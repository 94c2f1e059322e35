"""Value semantics of the package's record classes.

Importing the package must not load ``dataclasses`` (creating its classes
was most of the import's cost), ``concurrent.futures`` (only a parallel
corpus run needs it) or ``subprocess`` (only the external ``conf`` oracle
starts a process).

Every class below is an immutable value (equal and hash-equal by its
compared fields, assignment raises) or a mutable record (equal by its
fields, unhashable).  Equality needs exactly the same class.  Each ``repr``
string has the form the earlier ``dataclasses`` definitions of these classes
printed; ``UnsupportedComparison`` messages embed it and reach reports.
"""

import copy
import pickle
from array import array
import subprocess
import sys
from pathlib import Path

import pytest

import kconfex
from kconfex import difftest
from kconfex.difftest import CorpusOptions, CorpusReport, Mismatch
from kconfex.kconfig import (
    And,
    ChoiceBlock,
    ConfigItem,
    Default,
    Eq,
    Geq,
    Gt,
    KconfigModel,
    Leq,
    Literal,
    Lt,
    Neq,
    Not,
    OptionType,
    Or,
    Prompt,
    Range,
    Select,
    Sym,
)
from kconfex.prop import (
    FALSE,
    TRUE,
    AndF,
    Clauses,
    CnfFormula,
    ConstraintSet,
    Iff,
    Implies,
    NotF,
    OrF,
    Var,
    _Const,
)
from kconfex.tri import Tri


_ITEM = dict(
    name="A",
    type=OptionType.TRISTATE,
    prompts=(Prompt("a", Sym("M")),),
    defaults=(Default(Literal("m")),),
    depends=Not(Sym("B")),
    selects=(Select("C", Sym("B")),),
    line=3,
)
_MODEL = dict(
    items=(
        ConfigItem("N", OptionType.INT, ranges=(Range("1", "9", None),), line=1),
        ConfigItem("S", OptionType.BOOL, selects=(Select("T", None),), line=2),
        ConfigItem("T", OptionType.BOOL, line=3),
    ),
    choices=(),
    modules_option=None,
    source_name="m.kconfig",
)
_MISMATCH = Mismatch({"A": Tri.M, "N": None}, True, "FAILURE", ("A:depends",))

# name -> (class, keyword arguments of an instance, a field change that makes
#          it unequal, a change of fields that equality ignores or None, the
#          instance's repr as the dataclass definitions printed it)
CASES = {
    "Sym": (Sym, dict(name="A"), dict(name="B"), None, "Sym(name='A')"),
    "Literal": (Literal, dict(text="y"), dict(text="n"), None, "Literal(text='y')"),
    "Not": (Not, dict(operand=Sym("A")), dict(operand=Sym("B")), None, "Not(operand=Sym(name='A'))"),
    "And": (
        And,
        dict(left=Sym("A"), right=Literal("m")),
        dict(left=Literal("m")),
        None,
        "And(left=Sym(name='A'), right=Literal(text='m'))",
    ),
    "Or": (
        Or,
        dict(left=Sym("A"), right=Sym("B")),
        dict(right=Sym("C")),
        None,
        "Or(left=Sym(name='A'), right=Sym(name='B'))",
    ),
    "_Cmp": (
        Eq,
        dict(left=Sym("A"), right=Literal("m")),
        dict(right=Literal("y")),
        None,
        "Eq(left=Sym(name='A'), right=Literal(text='m'))",
    ),
    "ConfigItem": (
        ConfigItem,
        _ITEM,
        dict(name="B"),
        dict(line=40),
        "ConfigItem(name='A', type=<OptionType.TRISTATE: 'tristate'>, "
        "prompts=(Prompt(text='a', condition=Sym(name='M')),), "
        "defaults=(Default(value=Literal(text='m'), condition=None),), "
        "depends=Not(operand=Sym(name='B')), "
        "selects=(Select(target='C', condition=Sym(name='B')),), ranges=(), line=3)",
    ),
    "ChoiceBlock": (
        ChoiceBlock,
        dict(type=OptionType.BOOL, prompts=(Prompt("pick"),), members=("A", "B"), line=9),
        dict(members=("B", "A")),
        dict(line=1),
        "ChoiceBlock(type=<OptionType.BOOL: 'bool'>, "
        "prompts=(Prompt(text='pick', condition=None),), depends=None, defaults=(), "
        "members=('A', 'B'), line=9)",
    ),
    "KconfigModel": (
        KconfigModel,
        _MODEL,
        dict(modules_option="S"),
        dict(source_name="other"),
        "KconfigModel(items=(ConfigItem(name='N', type=<OptionType.INT: 'int'>, prompts=(), "
        "defaults=(), depends=None, selects=(), "
        "ranges=(Range(low='1', high='9', condition=None),), "
        "line=1), ConfigItem(name='S', "
        "type=<OptionType.BOOL: 'bool'>, prompts=(), defaults=(), depends=None, "
        "selects=(Select(target='T', condition=None),), ranges=(), "
        "line=2), ConfigItem(name='T', "
        "type=<OptionType.BOOL: 'bool'>, prompts=(), defaults=(), depends=None, selects=(), "
        "ranges=(), line=3)), choices=(), "
        "modules_option=None, source_name='m.kconfig')",
    ),
    "Var": (Var, dict(name="A"), dict(name="B"), None, "Var(name='A')"),
    "_Const": (_Const, dict(value=True), dict(value=False), None, "_Const(value=True)"),
    "NotF": (NotF, dict(operand=Var("A")), dict(operand=Var("B")), None, "NotF(operand=Var(name='A'))"),
    "AndF": (
        AndF,
        dict(operands=(Var("A"), NotF(Var("B")))),
        dict(operands=(Var("A"), Var("B"))),
        None,
        "AndF(operands=(Var(name='A'), NotF(operand=Var(name='B'))))",
    ),
    "OrF": (
        OrF,
        dict(operands=(Var("A"), Var("B"))),
        dict(operands=(Var("B"), Var("A"))),
        None,
        "OrF(operands=(Var(name='A'), Var(name='B')))",
    ),
    "Implies": (
        Implies,
        dict(antecedent=Var("A"), consequent=Var("B")),
        dict(antecedent=Var("C")),
        None,
        "Implies(antecedent=Var(name='A'), consequent=Var(name='B'))",
    ),
    "Iff": (
        Iff,
        dict(left=Var("A"), right=Var("B")),
        dict(right=Var("C")),
        None,
        "Iff(left=Var(name='A'), right=Var(name='B'))",
    ),
    "ConstraintSet": (
        ConstraintSet,
        dict(variable_order=["A"]),
        dict(variable_order=["B"]),
        None,
        "ConstraintSet(constraints=[], variable_order=['A'])",
    ),
    "CnfFormula": (
        CnfFormula,
        dict(num_vars=2, clauses=Clauses(array("i", [1, -2]), array("i", [2])), var_map={"A": 1, "B": 2}),
        dict(clauses=Clauses(array("i", [1, 2]), array("i", [2]))),
        None,
        "CnfFormula(num_vars=2, clauses=[(1, -2)], var_map={'A': 1, 'B': 2}, aux_definitions=())",
    ),
    "TestReport": (
        difftest.TestReport,
        dict(name="t", option_count=2, config_count=6, mismatches=[_MISMATCH], millis=1.5, notes=["n1"]),
        dict(mismatches=[]),
        None,
        "TestReport(name='t', option_count=2, config_count=6, "
        "mismatches=[Mismatch(cfg={'A': <Tri.M: 1>, 'N': None}, oracle_verdict=True, "
        "classification='FAILURE', failed_constraints=('A:depends',))], "
        "millis=1.5, notes=['n1'], error=None)",
    ),
    "CorpusOptions": (
        CorpusOptions,
        dict(jobs=2),
        dict(jobs=3),
        None,
        "CorpusOptions(jobs=2, generated=0, seed=0)",
    ),
    "CorpusReport": (
        CorpusReport,
        dict(reports=[], seed=4),
        dict(seed=0),
        None,
        "CorpusReport(reports=[], seed=4)",
    ),
}

MUTABLE = {"ConstraintSet", "CnfFormula", "TestReport", "CorpusOptions", "CorpusReport"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_semantics(name):
    cls, kwargs, change, uncompared_change, recorded_repr = CASES[name]
    a, b = cls(**kwargs), cls(**kwargs)
    different = cls(**{**kwargs, **change})
    assert a is not b
    assert a == b and not a != b
    assert a != different and different != a
    assert repr(a) == recorded_repr

    class Sibling(cls):
        __slots__ = ()

    sibling = Sibling(**kwargs)
    assert a != sibling and sibling != a  # equality needs exactly the same class

    if uncompared_change is not None:
        ignored = cls(**{**kwargs, **uncompared_change})
        assert ignored == a and hash(ignored) == hash(a)
        assert repr(ignored) != repr(a)

    field, value = next(iter(change.items()))
    if name in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
        setattr(b, field, value)
        assert b == different
    else:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b and repr(a) == recorded_repr

    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is type(a) and clone == a and repr(clone) == recorded_repr


@pytest.mark.parametrize(
    "left, right",
    [
        (Sym("A"), Var("A")),
        (Sym("A"), Literal("A")),
        (Not(Sym("A")), NotF(Sym("A"))),
        (And(Sym("A"), Sym("B")), Or(Sym("A"), Sym("B"))),
        (AndF((Var("A"), Var("B"))), OrF((Var("A"), Var("B")))),
        (Implies(Var("A"), Var("B")), Iff(Var("A"), Var("B"))),
        (TRUE, Var("A")),
    ]
    + [
        (cmp_a(Sym("A"), Literal("1")), cmp_b(Sym("A"), Literal("1")))
        for i, cmp_a in enumerate((Eq, Neq, Lt, Leq, Gt, Geq))
        for cmp_b in (Eq, Neq, Lt, Leq, Gt, Geq)[i + 1 :]
    ],
)
def test_sibling_classes_are_unequal(left, right):
    assert left != right and right != left
    assert not left == right
    assert len({left, right}) == 2


def test_mutable_defaults_are_not_shared():
    report = difftest.TestReport
    assert report("a", 0, 0, [], 0.0).notes is not report("b", 0, 0, [], 0.0).notes
    one, two = ConstraintSet(), ConstraintSet()
    assert one.constraints is not two.constraints
    assert one.variable_order is not two.variable_order
    # The default auxiliary definitions are an empty tuple: immutable, so
    # safe to share.
    assert CnfFormula(0, Clauses(array("i"), array("i")), {}).aux_definitions == ()


def test_empty_variable_name_raises():
    with pytest.raises(ValueError):
        Var("")


def test_model_lookups_survive_copy_and_pickle():
    model = KconfigModel(**_MODEL)

    for clone in (model, pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert clone.item("T").name == "T"
        assert clone.has_option("N") and not clone.has_option("Z")
        assert [sel.target for _, sel in clone.selects_targeting("T")] == ["T"]
        assert clone.selects_targeting("N") == []


@pytest.mark.parametrize(
    "option_type, boolish, numeric",
    [
        (OptionType.BOOL, True, False),
        (OptionType.TRISTATE, True, False),
        (OptionType.INT, False, True),
        (OptionType.HEX, False, True),
        (OptionType.STRING, False, False),
    ],
)
def test_item_type_flags(option_type, boolish, numeric):
    """``is_boolish`` and ``is_numeric`` are set from the type, survive copies
    and pickling, cannot be assigned, and equality and hashing ignore them."""
    item = ConfigItem("A", option_type, line=3)
    for clone in (item, pickle.loads(pickle.dumps(item)), copy.copy(item), copy.deepcopy(item)):
        assert (clone.is_boolish, clone.is_numeric) == (boolish, numeric)
    for flag in ("is_boolish", "is_numeric"):
        with pytest.raises(AttributeError):
            setattr(item, flag, not getattr(item, flag))
        assert flag not in ConfigItem._fields
    flipped = ConfigItem("A", option_type, line=3)
    object.__setattr__(flipped, "is_boolish", not boolish)
    object.__setattr__(flipped, "is_numeric", not numeric)
    assert flipped == item and hash(flipped) == hash(item)


def test_import_loads_neither_dataclasses_nor_concurrent_futures():
    src = str(Path(kconfex.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import kconfex, kconfex.cli; "
        "print([m for m in ('dataclasses', 'concurrent.futures', 'subprocess') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
