from pathlib import Path

import pytest

from kconfex.difftest import DEFAULT_MAX_OPTIONS, _enumerate, builtin_oracle
from kconfex.encode import translate
from kconfex.kconfig import parse_model
from kconfex.prop import (
    FALSE,
    TRUE,
    AndF,
    Iff,
    Implies,
    NotF,
    OrF,
    Var,
    assignment_masks,
    evaluate_mask,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

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


# MODULES plus nine chained tristates, the 10-option enumeration bound:
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
    valid, _ = builtin_oracle(model, _enumerate(model, DEFAULT_MAX_OPTIONS))
    return models.bit_count(), valid.bit_count()


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
