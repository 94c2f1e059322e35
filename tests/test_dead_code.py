"""No dead definitions in the package.

Every function, class, method, property and module-level constant of
``src/kconfex`` is either exported (listed in its module's ``__all__``) or
referenced somewhere in the package other than at its own definition.  A
reference is any name or attribute that spells it, f-string fields
included; dunder names are called by the language and are exempt.  Every
exported function is referenced outside its own body by the package or by
the benchmark harness (``bench/*.py``), re-exported at the top level or
not: a function that only tests call belongs with the tests.  An
attribute spelling the name of a method that a package class defines is
taken for a call of that method, not a use of the function.
Every ``__all__`` entry names something its module defines or imports.
"""

import ast
from pathlib import Path

import kconfex

PACKAGE = Path(kconfex.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _definitions(body, module_level):
    """(name, node) of the functions, classes and methods in ``body``, and of
    its constants when ``body`` is a module's."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, module_level=False)
        elif module_level and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target


def _parse(directory):
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def _references(trees):
    """Each name or attribute spelled in ``trees``, with the nodes that spell it."""
    references = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append(node)
    return references


def test_every_definition_is_used_or_exported():
    trees = _parse(PACKAGE)
    references = _references(trees.values())
    dead = []
    for module, tree in trees.items():
        exported = _exported(tree)
        for name, node in _definitions(tree.body, module_level=True):
            if (name.startswith("__") and name.endswith("__")) or name in exported:
                continue
            if all(ref is node for ref in references.get(name, ())):
                dead.append(f"{module}:{node.lineno} {name}")
    assert not dead, dead


def _method_names(trees):
    """The names of the methods that classes in ``trees`` define."""
    return {
        inner.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for inner in node.body
        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_every_exported_function_is_used_outside_the_tests():
    trees = _parse(PACKAGE)
    references = _references([*trees.values(), *_parse(BENCH).values()])
    methods = _method_names(trees.values())
    unused = []
    for module, tree in trees.items():
        exported = _exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in exported:
                own = {id(inner) for inner in ast.walk(node)}
                uses = [
                    ref
                    for ref in references.get(node.name, ())
                    if id(ref) not in own and not (isinstance(ref, ast.Attribute) and ref.attr in methods)
                ]
                if not uses:
                    unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, unused


def _bound(tree):
    """The names a module binds at its top level: definitions, assignments
    and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_export_is_defined_or_imported():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stale += [f"{path.name} {name}" for name in sorted(_exported(tree) - _bound(tree))]
    assert not stale, stale
