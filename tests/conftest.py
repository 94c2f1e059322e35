from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from pathlib import Path
from typing import Iterable, NamedTuple

import pytest

from kconfex.difftest import _enumerate, builtin_oracle
from kconfex.encode import translate
from kconfex.errors import KconfexError, MissingVariable
from kconfex.kconfig import (
    And,
    ChoiceBlock,
    ConfigItem,
    Eq,
    Expr,
    Geq,
    Gt,
    KconfigModel,
    Leq,
    Literal,
    Lt,
    Neq,
    Not,
    Or,
    Sym,
    parse_model,
    parse_number,
)
from kconfex.prop import (
    FALSE,
    TRUE,
    AndF,
    Clauses,
    Iff,
    Implies,
    NotF,
    OrF,
    PropFormula,
    Var,
    _Const,
    _Renderer,
    evaluate_mask,
)
from kconfex.oracle import repair_space
from kconfex.tri import Columns, Configuration, RowValues, Tri, row_config

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

NOPROMPT_CHOICE_SOURCE = """\
choice
\tprompt "choice prompt"

config A
\tboolean "A prompt"

config B
\tboolean "B prompt"
\tdefault n

config NOPROMPT
\tboolean
\tdefault y

endchoice
"""


# MODULES plus nine chained tristates, the benchmark's ``bound`` model:
# 2 * 3**9 = 39,366 configurations.
BOUND_MODEL_SOURCE = 'config MODULES\n\tbool "modules"\n\toption modules\n' + "".join(
    f'config T{i}\n\ttristate "t{i}"\n' + (f"\tdepends on T{i - 1}\n" if i > 1 else "")
    for i in range(1, 10)
)


# Models whose option names are those of variables the translation derives:
# an m variable, a Tseitin auxiliary, a valued option's value variables.
DERIVED_NAME_COLLISIONS = {
    "module": ('config A\n\tbool "a"\nconfig A_MODULE\n\tbool "b"\n', "A_MODULE"),
    "aux": ('config __aux0\n\tbool "a"\nconfig B\n\tbool "b"\n\tdepends on __aux0\n', "__aux0"),
    "value": (
        'config A\n\tint "a"\n\tdefault 1\n\trange 1 2\nconfig A_EQ_1\n\tbool "flag"\n',
        "A_EQ_1",
    ),
}


@pytest.fixture
def noprompt_choice_model():
    return parse_model(NOPROMPT_CHOICE_SOURCE, "golden_choice")


@pytest.fixture(scope="session")
def corpus_dir():
    assert CORPUS_DIR.is_dir()
    return CORPUS_DIR


@contextlib.contextmanager
def bench_module(name: str):
    """Module ``name`` of ``bench/``, imported for the ``with`` block and
    dropped with the other ``bench/`` modules it imported.  Nothing under
    ``bench/`` is written."""
    before, dont_write = set(sys.modules), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH_DIR))
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        yield importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH_DIR))
        for module in ("workloads", "gen", "tracing"):
            if module not in before:
                sys.modules.pop(module, None)


def corpus_models():
    out = []
    for path in sorted(CORPUS_DIR.glob("*.kconfig")):
        out.append((path.name, parse_model(path.read_text(encoding="utf-8"), path.name)))
    return out


def model_counts(model, constraints=None):
    """The conjunction's models over every assignment to the translated
    variables, and the enumerated configurations the builtin oracle finds
    valid.

    Images of distinct configurations are distinct assignments.  So where
    ``check_model`` reports no mismatch, equal counts mean the formula has no
    model outside the images of the valid configurations: it is equivalent to
    the disjunction of the valid rows' images.
    """
    if constraints is None:
        constraints = translate(model)
    masks, ones = assignment_masks(constraints.variable_order)
    models = evaluate_mask(constraints.conjunction(), masks, ones)
    columns, rows, _ = _enumerate(model)
    valid, _ = builtin_oracle(model, columns, rows)
    return models.bit_count(), valid.bit_count()


def single_row(cfg: Configuration) -> Columns:
    """The columns of the one row ``cfg``."""
    return {name: {value: 1} for name, value in cfg.items()}


class RowRepair(NamedTuple):
    repaired: Configuration
    changed: bool
    select_override_fired: bool


def repair_row(model: KconfigModel, cfg: Configuration) -> RowRepair:
    """Repair the one configuration ``cfg``: :func:`repair_space` on one row.

    Options missing from ``cfg`` read as n, or as unset; the repaired
    configuration holds them once the repair writes a value that differs.
    """
    outcome = repair_space(model, single_row(cfg), 1)
    return RowRepair(
        repaired=row_config(outcome.repaired, 0),
        changed=bool(outcome.changed),
        select_override_fired=bool(outcome.select_override_fired),
    )


def enumerated_configs(model):
    """The enumerated rows of ``model`` and their configurations, in row
    order: ``(columns, ones, configs)``."""
    columns, ones, _ = _enumerate(model)
    return columns, ones, [row_config(columns, k) for k in range(ones.bit_length())]


def tree_text(f, parent=0):
    """Reference ``.model`` rendering: a plain recursion over every tree
    position, shared subtrees rendered again at each use."""

    def wrap(text, level):
        return f"({text})" if parent > level else text

    if isinstance(f, Var):
        return f.name
    if f is TRUE:
        return "1"
    if f is FALSE:
        return "0"
    if isinstance(f, NotF):
        return "!" + tree_text(f.operand, 5)
    if isinstance(f, AndF):
        return wrap(" & ".join(tree_text(op, 4) for op in f.operands), 4)
    if isinstance(f, OrF):
        return wrap(" | ".join(tree_text(op, 3) for op in f.operands), 3)
    if isinstance(f, Implies):
        return wrap(f"{tree_text(f.antecedent, 3)} => {tree_text(f.consequent, 2)}", 2)
    if isinstance(f, Iff):
        return wrap(f"{tree_text(f.left, 2)} <=> {tree_text(f.right, 2)}", 1)
    raise TypeError(f)


def tree_model_text(constraints):
    """Reference for ``ConstraintSet.model_text``, built on :func:`tree_text`."""
    return "".join(f"{tree_text(c.formula)}  # {c.provenance}\n" for c in constraints)


def large_chain_text(options):
    """A chain of tristates, each depending on the one before, with selects
    and conditional defaults: past the enumeration bound, with one constraint
    per rule and so a root clause of thousands of literals."""
    lines = ["config MODULES", '\tbool "modules"', "\toption modules", ""]
    for i in range(1, options):
        lines += [f"config T{i}", f'\ttristate "t{i}"']
        if i > 1:
            lines.append(f"\tdepends on T{i - 1}")
        if i % 3 == 0 and i + 2 < options:
            lines.append(f"\tselect T{i + 2}")
        if i % 5 == 0:
            lines.append(f"\tdefault m if T{i - 2}")
        if i % 7 == 0:
            lines.append("\tdefault y")
        lines.append("")
    return "\n".join(lines)


def flat_clauses(clauses: Iterable[Iterable[int]]) -> Clauses:
    """``clauses`` in the flat layout of a CNF: an ``array("i")`` of their
    literals one clause after another, and one of each clause's length."""
    literals = array("i")
    sizes = array("i")
    for clause in clauses:
        before = len(literals)
        literals.extend(clause)
        sizes.append(len(literals) - before)
    return Clauses(literals, sizes)


def auxiliary_names(cnf) -> dict[str, int]:
    """The names that DIMACS output gives the auxiliaries of ``cnf``, the
    last ``len(cnf.aux_definitions)`` variables: ``__aux0``, ``__aux1``, ..."""
    first = cnf.num_vars - len(cnf.aux_definitions) + 1
    return {f"__aux{k}": first + k for k in range(len(cnf.aux_definitions))}


def one_shot_dimacs(cnf):
    """A plain DIMACS writer that formats each name and clause on its own
    and builds the whole output at once: the reference for
    ``write_dimacs``."""
    out = [f"c {idx} {name}" for name, idx in {**cnf.var_map, **auxiliary_names(cnf)}.items()]
    out.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    for clause in cnf.clauses:
        out.append("%d " * len(clause) % tuple(clause) + "0")
    return ("\n".join(out) + "\n").encode("utf-8")


def node_objects(*roots):
    """Every node object reachable from ``roots``, by ``id``."""
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        if isinstance(node, NotF):
            stack.append(node.operand)
        elif isinstance(node, (AndF, OrF)):
            stack.extend(node.operands)
        elif isinstance(node, Implies):
            stack += [node.antecedent, node.consequent]
        elif isinstance(node, Iff):
            stack += [node.left, node.right]
    return seen


# --------------------------------------------------------------------------
# Reference implementations that only the tests use: exhaustive formula
# evaluation and equivalence, formula text, one-row expression evaluation,
# and a printer of models back to kconfig text.


class TooManyVariables(KconfexError):
    def __init__(self, count: int, bound: int):
        super().__init__(f"formula pair spans {count} variables, enumeration bound is {bound}")
        self.count = count
        self.bound = bound


def formula_vars(f: PropFormula) -> list[str]:
    """Variable names in first-occurrence order of a pre-order walk.

    A subtree object met a second time is skipped: every variable in it was
    already seen, so the order is that of the full tree walk, at a cost linear
    in the number of distinct node objects.
    """
    seen: dict[str, None] = {}
    _walk_vars(f, seen, set())
    return list(seen)


def _walk_vars(node: PropFormula, seen: dict[str, None], walked: set[int]) -> None:
    kind = type(node)
    if kind is Var:
        seen.setdefault(node.name)
        return
    key = id(node)
    if key in walked:
        return
    walked.add(key)
    if kind is NotF:
        _walk_vars(node.operand, seen, walked)
    elif kind is AndF or kind is OrF:
        for op in node.operands:
            _walk_vars(op, seen, walked)
    elif kind is Implies:
        _walk_vars(node.antecedent, seen, walked)
        _walk_vars(node.consequent, seen, walked)
    elif kind is Iff:
        _walk_vars(node.left, seen, walked)
        _walk_vars(node.right, seen, walked)


def evaluate(f: PropFormula, assignment: dict[str, bool]) -> bool:
    """Standard boolean semantics; the assignment must cover every variable."""
    kind = type(f)
    if kind is Var:
        try:
            return assignment[f.name]
        except KeyError:
            raise MissingVariable(f.name) from None
    if kind is _Const:
        return f.value
    if kind is NotF:
        return not evaluate(f.operand, assignment)
    if kind is AndF:
        return all(evaluate(op, assignment) for op in f.operands)
    if kind is OrF:
        return any(evaluate(op, assignment) for op in f.operands)
    if kind is Implies:
        return (not evaluate(f.antecedent, assignment)) or evaluate(f.consequent, assignment)
    if kind is Iff:
        return evaluate(f.left, assignment) == evaluate(f.right, assignment)
    raise TypeError(f"not a formula node: {f!r}")

def assignment_masks(names: Iterable[str]) -> tuple[dict[str, int], int]:
    """Truth-pattern masks enumerating all assignments over ``names``.

    Bit k of the mask for the i-th variable is ``(k >> i) & 1``.
    """
    names = list(names)
    width = 1 << len(names)
    ones = (1 << width) - 1
    masks: dict[str, int] = {}
    for i, name in enumerate(names):
        period = 1 << (i + 1)
        pattern = ((1 << (1 << i)) - 1) << (1 << i)  # one period: zeros, then ones
        filled = period
        while filled < width:
            pattern |= pattern << filled
            filled <<= 1
        masks[name] = pattern & ones
    return masks, ones


EQUIV_VAR_BOUND = 24


def equivalent(f: PropFormula, g: PropFormula) -> bool:
    """True iff ``f`` and ``g`` agree on every total assignment over the
    union of their variables.  Raises :class:`TooManyVariables` past the
    enumeration bound of 24 variables."""
    names: dict[str, None] = {}
    for name in formula_vars(f):
        names.setdefault(name)
    for name in formula_vars(g):
        names.setdefault(name)
    if len(names) > EQUIV_VAR_BOUND:
        raise TooManyVariables(len(names), EQUIV_VAR_BOUND)
    masks, ones = assignment_masks(names)
    return evaluate_mask(f, masks, ones) == evaluate_mask(g, masks, ones)

def formula_text(f: PropFormula) -> str:
    """Render with operators ``!``, ``&``, ``|``, ``=>``, ``<=>`` and the
    constants ``1``/``0``; parenthesized by precedence."""
    return _Renderer().render(f, 0)

def eval_expr(e: Expr, cfg: Configuration, model: KconfigModel) -> Tri:
    """Evaluate ``e`` to a Tri value under a concrete configuration.

    Raises :class:`EvalError` when an ordered comparison meets a value that
    does not parse as a number.
    """
    values = RowValues(model, single_row(cfg), 1)
    ge, y = values.tri(e, 1)
    if values.errors:
        raise values.errors[0][1]
    return Tri(ge + y)

_CMP_TOKEN = {Eq: "=", Neq: "!=", Lt: "<", Leq: "<=", Gt: ">", Geq: ">="}


def expr_text(e: Expr) -> str:
    """Render an expression in kconfig concrete syntax."""
    out: list[str] = []
    # (node, precedence of the operator around it), or (text to emit, None).
    stack: list[tuple] = [(e, 0)]
    while stack:
        node, parent_prec = stack.pop()
        kind = type(node)
        if parent_prec is None:
            out.append(node)
        elif kind is Sym:
            out.append(node.name)
        elif kind is Literal:
            out.append("'" + node.text.replace("'", "\\'") + "'")
        elif kind is Not:
            out.append("!")
            stack.append((node.operand, 3))
        elif kind is And or kind is Or:
            prec, token = (2, " && ") if kind is And else (1, " || ")
            if parent_prec > prec:
                out.append("(")
                stack.append((")", None))
            stack += [(node.right, prec), (token, None), (node.left, prec)]
        elif kind in _CMP_TOKEN:
            stack += [(node.right, 3), (_CMP_TOKEN[kind], None), (node.left, 3)]
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return "".join(out)

def _format_value(value: Expr) -> str:
    if isinstance(value, Sym):
        return value.name
    if isinstance(value, Literal):
        if parse_number(value.text) is not None:
            return value.text
        return '"' + value.text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"not a value node: {value!r}")


def _format_cond(cond: Expr | None) -> str:
    return f" if {expr_text(cond)}" if cond is not None else ""


def _emit_common(lines: list[str], decl: ConfigItem | ChoiceBlock, type_word: str | None) -> None:
    prompts = list(decl.prompts)
    if type_word is not None:
        if prompts:
            first = prompts.pop(0)
            lines.append(f'\t{type_word} "{first.text}"{_format_cond(first.condition)}')
        else:
            lines.append(f"\t{type_word}")
    for p in prompts:
        lines.append(f'\tprompt "{p.text}"{_format_cond(p.condition)}')
    if decl.depends is not None:
        lines.append(f"\tdepends on {expr_text(decl.depends)}")
    for d in decl.defaults:
        lines.append(f"\tdefault {_format_value(d.value)}{_format_cond(d.condition)}")


def pretty_model(model: KconfigModel) -> str:
    """Render a model back to kconfig subset text.

    Re-parsing the output yields a structurally identical model.
    """
    lines: list[str] = []
    emitted: set[str] = set()
    choice_at = {ch.members[0]: ch for ch in model.choices}

    for it in model.items:
        if it.name in emitted:
            continue
        ch = choice_at.get(it.name)
        if ch is not None:
            lines.append("choice")
            _emit_common(lines, ch, ch.type.value)
            for member_name in ch.members:
                _emit_item(lines, model.item(member_name), model.modules_option)
                emitted.add(member_name)
            lines.append("endchoice")
            lines.append("")
        else:
            _emit_item(lines, it, model.modules_option)
            emitted.add(it.name)
    return "\n".join(lines).rstrip("\n") + ("\n" if lines else "")


def _emit_item(lines: list[str], it: ConfigItem, modules_option: str | None) -> None:
    lines.append(f"config {it.name}")
    _emit_common(lines, it, it.type.value)
    for s in it.selects:
        lines.append(f"\tselect {s.target}{_format_cond(s.condition)}")
    for r in it.ranges:
        lines.append(f"\trange {r.low} {r.high}{_format_cond(r.condition)}")
    if it.name == modules_option:
        lines.append("\toption modules")
    lines.append("")
