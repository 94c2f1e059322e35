import contextlib
import gc
import hashlib
import io
import itertools
import json
import random
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

import kconfex.encode
import kconfex.kconfig
import kconfex.prop
from kconfex.difftest import generate_model_text
from kconfex.encode import (
    ENC_M,
    ENC_N,
    ENC_Y,
    Translation,
    collect_numeric_values,
    enc_and,
    enc_not,
    enc_or,
    encode_expr,
    encode_reverse_dependencies,
    translate,
)
from kconfex.errors import MissingVariable, ParseError, SelectOnNonBoolean, UnsupportedComparison
from kconfex.kconfig import (
    And,
    ConfigItem,
    Default,
    Eq,
    KconfigModel,
    Leq,
    Literal,
    Lt,
    Neq,
    Not,
    OptionType,
    Or,
    Prompt,
    Sym,
    parse_model,
    validate_model,
)
from kconfex.prop import (
    FALSE,
    TRUE,
    Var,
    and_,
    implies,
    not_,
    or_,
    tseitin_cnf,
    write_dimacs,
)
from kconfex.tri import Tri

from conftest import (
    CORPUS_DIR,
    assignment_masks,
    corpus_models,
    equivalent,
    eval_expr,
    evaluate,
    formula_text,
    formula_vars,
    large_chain_text,
    node_objects,
    tree_model_text,
)


def _model(text):
    return parse_model(text, "t")


THREE_TRISTATES = _model(
    'config A\n\ttristate "a"\nconfig B\n\ttristate "b"\nconfig C\n\ttristate "c"\n'
)
EMPTY_DOM = collect_numeric_values(THREE_TRISTATES)


def _embed3(cfg):
    out = {}
    for name in ("A", "B", "C"):
        out[name] = cfg[name] is Tri.Y
        out[name + "_MODULE"] = cfg[name] is Tri.M
    return out


def _assert_pair_matches_eval(expr, model=THREE_TRISTATES, dom=EMPTY_DOM):
    enc = encode_expr(expr, Translation(model, dom))
    names = [it.name for it in model.items]
    for combo in itertools.product((Tri.N, Tri.M, Tri.Y), repeat=len(names)):
        cfg = dict(zip(names, combo))
        assignment = _embed3(cfg)
        value = eval_expr(expr, cfg, model)
        assert evaluate(enc.f_y, assignment) == (value is Tri.Y), (expr, cfg)
        assert evaluate(enc.f_m, assignment) == (value is Tri.M), (expr, cfg)


class TestEncodeExpr:
    def test_dependency_disjunction_shape(self):
        # B='n' || C='y' has the y-part !(B | B_MODULE) | C
        e = Or(Eq(Sym("B"), Literal("n")), Eq(Sym("C"), Literal("y")))
        enc = encode_expr(e, Translation(THREE_TRISTATES, EMPTY_DOM))
        expected = or_(not_(or_(Var("B"), Var("B_MODULE"))), Var("C"))
        assert equivalent(enc.f_y, expected)
        assert enc.f_m is FALSE

    def test_bool_symbol_has_false_m(self):
        model = _model('config X\n\tbool "x"\n')
        enc = encode_expr(Sym("X"), Translation(model, collect_numeric_values(model)))
        assert enc.f_y == Var("X")
        assert enc.f_m is FALSE

    def test_and_matches_min_semantics(self):
        _assert_pair_matches_eval(And(Sym("A"), Sym("B")))

    def test_or_not_comparisons_match_eval(self):
        exprs = [
            Or(Sym("A"), Sym("B")),
            Not(Sym("A")),
            Not(And(Sym("A"), Or(Sym("B"), Sym("C")))),
            Eq(Sym("A"), Literal("m")),
            Neq(Sym("A"), Literal("y")),
            Eq(Sym("A"), Sym("B")),
            And(Not(Sym("A")), Eq(Sym("B"), Literal("n"))),
        ]
        for e in exprs:
            _assert_pair_matches_eval(e)

    def test_random_pair_correspondence(self):
        rng = random.Random(4242)
        syms = ["A", "B", "C"]

        def gen(depth):
            if depth == 0 or rng.random() < 0.35:
                name = rng.choice(syms)
                roll = rng.random()
                if roll < 0.35:
                    cls = rng.choice([Eq, Neq])
                    return cls(Sym(name), Literal(rng.choice(["n", "m", "y"])))
                return Sym(name)
            op = rng.randrange(3)
            if op == 0:
                return Not(gen(depth - 1))
            cls = And if op == 1 else Or
            return cls(gen(depth - 1), gen(depth - 1))

        for _ in range(300):
            _assert_pair_matches_eval(gen(3))


class TestNumericDomain:
    def test_harvest_defaults_ranges_comparisons(self):
        model = _model(
            'config N\n\tint "n"\n\tdefault 0\n\trange 0 100\n'
            'config G\n\tbool "g"\n\tdepends on N<=5\n'
        )
        dom = collect_numeric_values(model)
        assert dom["N"] == ["0", "5", "100"]

    def test_unmentioned_option_empty(self):
        model = _model('config NUM\n\tint "n"\n')
        assert collect_numeric_values(model)["NUM"] == []

    def test_duplicates_collapse(self):
        model = _model(
            'config NUM\n\tint "n"\n\tdefault 5\n'
            'config G\n\tbool "g"\n\tdepends on NUM=5\n'
        )
        assert collect_numeric_values(model)["NUM"] == ["5"]

    def test_hex_canonicalization(self):
        # bare literals on hex options read in base 16, so 0X10 joins 0x10
        model = _model('config H\n\thex "h"\n\tdefault 0X10\n\trange 0x0 0x10\n')
        assert collect_numeric_values(model)["H"] == ["0x0", "0x10"]

    def test_string_defaults_only(self):
        model = _model(
            'config S\n\tstring "s"\n\tdefault "a"\n\tdefault "b"\n'
            'config G\n\tbool "g"\n\tdepends on S="z"\n'
        )
        assert collect_numeric_values(model)["S"] == ["a", "b"]


class TestNumericConstraint:
    """Comparisons over an int option, parsed and encoded through
    ``encode_expr`` with the known values 0, 5 and 100."""

    DOM = {"N": ["0", "5", "100"]}

    @staticmethod
    def _parsed(comparison):
        model = _model(f'config N\n\tint "n"\nconfig G\n\tbool "g"\n\tdepends on {comparison}\n')
        return model, model.item("G").depends

    def _encode(self, comparison):
        model, e = self._parsed(comparison)
        enc = encode_expr(e, Translation(model, self.DOM))
        assert enc.f_m is FALSE
        return enc.f_y

    def test_leq_over_known_values(self):
        f = self._encode("N <= 5")
        assert equivalent(f, or_(Var("N_EQ_0"), Var("N_EQ_5")))

    def test_unsatisfiable_comparison(self):
        assert self._encode("N < 0") is FALSE

    def test_neq_one_hot(self):
        f = self._encode("N != 5")
        names = ["N_EQ_0", "N_EQ_5", "N_EQ_100"]
        for hot in names:
            assignment = {n: n == hot for n in names}
            assert evaluate(f, assignment) == (hot != "N_EQ_5")

    @pytest.mark.parametrize("kind, holds", [("=", TRUE), ("!=", FALSE)])
    def test_options_with_no_known_value_are_equal(self, kind, holds):
        # Both are always unset, and "" equals "".
        model = _model(
            f'config S\n\tstring "s"\nconfig N\n\tint "n"\nconfig G\n\tbool "g"\n\tdepends on S {kind} N\n'
        )
        enc = encode_expr(model.item("G").depends, Translation(model, collect_numeric_values(model)))
        assert (enc.f_y, enc.f_m) == (holds, FALSE)

    def test_empty_domain_rejected(self):
        model, e = self._parsed("N >= 1")
        with pytest.raises(UnsupportedComparison, match="empty harvested domain"):
            encode_expr(e, Translation(model, {"N": []}))


class TestEncodeOption:
    def test_dependency_upper_bound_constraint(self):
        model = _model(
            'config B\n\ttristate "b"\nconfig C\n\ttristate "c"\n'
            "config A\n\tboolean \"a\"\n\tdepends on B='n' || C='y'\n"
        )
        cs = translate(model)
        (dep,) = [c.formula for c in cs if c.provenance == "A:depends"]
        expected = implies(
            Var("A"), or_(not_(or_(Var("B"), Var("B_MODULE"))), Var("C"))
        )
        assert equivalent(dep, expected)

    def test_invisible_default_implication(self):
        model = _model(
            'config P\n\tbool "p"\nconfig C\n\tbool "c"\n'
            "config O\n\tboolean \"prompt\" if P\n\tdefault 'y'\n\tdepends on C\n"
        )
        cs = translate(model)
        (d0,) = [c.formula for c in cs if c.provenance == "O:default[0]"]
        bool_only = and_(*(not_(Var(n + "_MODULE")) for n in ("P", "C", "O")))
        expected = implies(not_(Var("P")), implies(Var("C"), Var("O")))
        assert equivalent(and_(bool_only, d0), and_(bool_only, expected))

    def test_unconstrained_bool_emits_only_module_shape(self):
        model = _model('config O\n\tbool "o"\n')
        cs = translate(model)
        assert [c.provenance for c in cs] == ["O:bool-no-module"]
        assert equivalent(cs.conjunction(), not_(Var("O_MODULE")))

    def test_tristate_mutual_exclusion(self):
        model = _model('config T\n\ttristate "t"\n')
        cs = translate(model)
        conj = cs.conjunction()
        assert not evaluate(conj, {"T": True, "T_MODULE": True})
        assert evaluate(conj, {"T": True, "T_MODULE": False})
        assert evaluate(conj, {"T": False, "T_MODULE": True})

    def test_modules_gate(self):
        model = _model(
            'config MODULES\n\tbool "m"\n\toption modules\nconfig T\n\ttristate "t"\n'
        )
        cs = translate(model)
        conj = cs.conjunction()
        base = {"MODULES": False, "MODULES_MODULE": False, "T": False}
        assert not evaluate(conj, {**base, "T_MODULE": True})
        assert evaluate(conj, {**base, "MODULES": True, "T_MODULE": True})


# An always-visible option's invisible-value rules, and those after a
# default that always applies, fold to TRUE and are not built; their
# expressions are still encoded, so translate raises the same first error.
_Y_LT_3 = "ordered comparison over non-numeric constants 'y', '3'"


def _one_option_model(kind, prompted, defaults):
    # Built through the API: the parser takes only a symbol or a literal as
    # a default's value.
    prompts = (Prompt("x", None),) if prompted else ()
    item = ConfigItem("X", kind, prompts=prompts, defaults=defaults)
    return KconfigModel(items=(item,), choices=(), modules_option=None)


@pytest.mark.parametrize("where", ["value", "condition"])
@pytest.mark.parametrize("shape", ["always-visible", "after-a-default-that-always-applies"])
def test_unbuilt_default_rules_raise_the_same_error(shape, where):
    y_lt_3 = Lt(Sym("y"), Literal("3"))
    default = Default(y_lt_3) if where == "value" else Default(Sym("y"), y_lt_3)
    if shape == "always-visible":
        model = _one_option_model(OptionType.BOOL, True, (default,))
    else:
        model = _one_option_model(OptionType.TRISTATE, False, (Default(Literal("m")), default))
    with pytest.raises(UnsupportedComparison) as info:
        translate(model)
    assert str(info.value) == _Y_LT_3


def test_select_condition_error_comes_before_an_unbuilt_default_error():
    # X's select floor is never read, but the select condition is encoded
    # before X's default condition, as when the floor was built.
    model = _model(
        'config X\n\tbool "x"\n\tdefault y if FOO < 3\n'
        'config Z\n\tbool "z"\n\tselect X if y < 3\n'
    )
    with pytest.raises(UnsupportedComparison) as info:
        translate(model)
    assert str(info.value) == _Y_LT_3


class TestReverseDependencies:
    def test_bool_select_is_implication(self):
        model = _model('config O\n\tbool "o"\n\tselect P\nconfig P\n\tbool "p"\n')
        cs = translate(model)
        conj = cs.conjunction()
        valid = []
        for o, p in itertools.product([False, True], repeat=2):
            a = {"O": o, "O_MODULE": False, "P": p, "P_MODULE": False}
            if evaluate(conj, a):
                valid.append((o, p))
        assert valid == [(False, False), (False, True), (True, True)]

    def test_false_condition_erases_constraint(self):
        model = _model(
            'config O\n\tbool "o"\n\tselect P if FOO\nconfig P\n\tbool "p"\n'
        )
        constraints = encode_reverse_dependencies(
            Translation(model, collect_numeric_values(model))
        )
        assert constraints == []  # undeclared FOO is constant n

    def test_select_of_an_undeclared_target_is_skipped(self):
        model = _model('config O\n\tbool "o"\n\tselect NOPE\n')
        assert encode_reverse_dependencies(Translation(model, collect_numeric_values(model))) == []

    def test_select_on_valued_target_raises(self):
        model = _model('config O\n\tbool "o"\n\tselect N\nconfig N\n\tint "n"\n')
        with pytest.raises(SelectOnNonBoolean):
            encode_reverse_dependencies(Translation(model, collect_numeric_values(model)))

    @pytest.mark.parametrize(
        "text",
        [
            'config N\n\tint "n"\n\tdefault 1\n\trange 1 2\n\tselect A\nconfig A\n\tbool "a"\n',
            'choice\n\tbool "c"\nconfig A\n\tbool "a"\nconfig N\n\tint "n"\nendchoice\n',
        ],
        ids=["selector", "choice-member"],
    )
    def test_valued_option_read_as_nonzero_raises(self, text):
        """A valued selector or choice member, which validation rejects,
        stops the translation with an error that names it."""
        with pytest.raises(SelectOnNonBoolean, match="^N is int; only a bool or tristate option"):
            translate(_model(text))

    def test_condition_encoded_once_per_translation(self):
        """The select's own constraints and its invisible target's default
        chain read one encoding of the condition."""
        model = _model(
            'config A\n\tbool "a"\nconfig B\n\tbool "b"\n'
            'config S\n\tbool "s"\n\tselect T if A && B\nconfig T\n\tbool\n'
        )
        by = {c.provenance: c.formula for c in translate(model)}
        cond = encode_expr(And(Sym("A"), Sym("B")), Translation(model, collect_numeric_values(model)))
        for part in (cond.f_y, cond.nonzero):
            in_select = [
                n
                for key in ("S:select(T)[0]/y", "S:select(T)[0]/m")
                for n in node_objects(by[key]).values()
                if n == part
            ]
            in_chain = [n for n in node_objects(by["T:default-else"]).values() if n == part]
            assert in_select and in_chain, part
            assert all(n is in_chain[0] for n in in_select), part


class TestEncodeChoice:
    def test_empty_choice_rejected(self):
        # The model rejects it when it is built, so no encoder sees one.
        from kconfex.errors import ChoiceMembership
        from kconfex.kconfig import ChoiceBlock, KconfigModel, OptionType

        with pytest.raises(ChoiceMembership) as info:
            KconfigModel(THREE_TRISTATES.items, (ChoiceBlock(OptionType.BOOL),), None)
        assert str(info.value) == "choice 0 has no members"

    def test_singleton_choice_forces_member(self):
        model = _model('choice\n\tbool "pick"\nconfig X\n\tbool "x"\nendchoice\n')
        conj = translate(model).conjunction()
        assert evaluate(conj, {"X": True, "X_MODULE": False})
        assert not evaluate(conj, {"X": False, "X_MODULE": False})

    def test_three_member_choice_exactly_three_valid(self):
        model = _model(
            'choice\n\tbool "pick"\n'
            'config A\n\tbool "a"\nconfig B\n\tbool "b"\nconfig C\n\tbool "c"\n'
            "endchoice\n"
        )
        conj = translate(model).conjunction()
        count = 0
        for bits in itertools.product([False, True], repeat=3):
            a = dict(zip(("A", "B", "C"), bits))
            a.update({f"{n}_MODULE": False for n in ("A", "B", "C")})
            count += evaluate(conj, a)
        assert count == 3


class TestTranslate:
    def test_empty_model(self):
        cs = translate(_model(""))
        assert len(cs) == 0
        assert evaluate(cs.conjunction(), {})

    def test_deterministic_model_text(self, noprompt_choice_model):
        a = translate(noprompt_choice_model).model_text()
        b = translate(noprompt_choice_model).model_text()
        assert a == b

    def test_provenance_on_every_constraint(self):
        for name, model in corpus_models():
            for c in translate(model):
                assert c.provenance, name

    def test_one_hot_value_variables(self):
        model = _model(
            'config N\n\tint "n"\n\tdefault 0\n\trange 0 100\n'
            'config G\n\tbool "g"\n\tdepends on N<=5\n'
        )
        cs = translate(model)
        conj = cs.conjunction()
        names = ["N_EQ_0", "N_EQ_5", "N_EQ_100"]
        base = {"G": False, "G_MODULE": False}
        for bits in itertools.product([False, True], repeat=3):
            a = {**base, **dict(zip(names, bits))}
            if sum(bits) != 1:
                assert not evaluate(conj, a), bits


class TestSatisfyingAssignmentInvariants:
    """Properties of every satisfying assignment, checked by full enumeration
    over the translated variables of each corpus model."""

    @staticmethod
    def _satisfying_mask(model):
        from kconfex.prop import evaluate_mask

        cs = translate(model)
        order = cs.variable_order
        masks, ones = assignment_masks(order)
        return cs, masks, ones, evaluate_mask(cs.conjunction(), masks, ones)

    def test_tristate_mutual_exclusion(self):
        for name, model in corpus_models():
            cs, masks, ones, sat = self._satisfying_mask(model)
            for item in model.items:
                if item.type.value == "tristate":
                    both = masks[item.name] & masks[item.name + "_MODULE"]
                    assert sat & both == 0, (name, item.name)

    def test_value_variables_one_hot(self):
        for name, model in corpus_models():
            dom = collect_numeric_values(model)
            cs, masks, ones, sat = self._satisfying_mask(model)
            for item in model.items:
                domain = dom.get(item.name, [])
                if item.is_boolish or not domain:
                    continue
                variables = [masks[f"{item.name}_EQ_{v}"] for v in domain]
                for i, a in enumerate(variables):
                    for b in variables[i + 1 :]:
                        assert sat & a & b == 0, (name, item.name)


CORPUS_DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"


def test_corpus_output_bytes_match_recorded_digests():
    """The .model text and DIMACS bytes of every corpus model stay as recorded
    in corpus_digests.json (sha256 of each)."""
    recorded = json.loads(CORPUS_DIGESTS.read_text(encoding="utf-8"))
    for name, model in corpus_models():
        cs = translate(model)
        sink = io.BytesIO()
        write_dimacs(tseitin_cnf(cs.conjunction(), cs.variable_order), sink)
        assert recorded[name] == {
            "model": hashlib.sha256(cs.model_text().encode("utf-8")).hexdigest(),
            "dimacs": hashlib.sha256(sink.getvalue()).hexdigest(),
        }, name


# sha256 of the .model text and DIMACS of large_chain_text(600), recorded
# before Tseitin conversion and DIMACS output were made linear-time.
LARGE_CHAIN_DIGESTS = {
    "model": "40774409a3a36ee0acb9e24945da5ab0952f8b313084d6f705db0478ceeb615e",
    "dimacs": "533062282dc1602121f8b80141148ae54a48aec0bb4e24595609d6200c42ec2b",
}


def test_large_model_output_bytes_match_recorded_digests():
    model = parse_model(large_chain_text(600), "large_chain")
    assert len(model.items) == 600
    cs = translate(model)
    cnf = tseitin_cnf(cs.conjunction(), cs.variable_order)
    assert max(len(clause) for clause in cnf.clauses) == len(cs) + 1
    sink = io.BytesIO()
    write_dimacs(cnf, sink)
    assert {
        "model": hashlib.sha256(cs.model_text().encode("utf-8")).hexdigest(),
        "dimacs": hashlib.sha256(sink.getvalue()).hexdigest(),
    } == LARGE_CHAIN_DIGESTS


def test_large_model_text_matches_tree_renderer():
    cs = translate(parse_model(large_chain_text(600), "large_chain"))
    assert cs.model_text() == tree_model_text(cs)


def test_extract_path_leaves_no_reference_cycles():
    """Parse, validate, translate, .model text, Tseitin and DIMACS create no
    garbage that only the cyclic collector could free.  The builders pause
    the collector on that promise."""
    texts = [("large_chain", large_chain_text(600))]
    texts += [(path.name, path.read_text(encoding="utf-8")) for path in sorted(CORPUS_DIR.glob("*.kconfig"))]
    texts += [(f"generated[{seed}]", generate_model_text(seed)) for seed in range(100)]
    gc.collect()
    gc.disable()
    try:
        for name, text in texts:
            model = parse_model(text, name)
            validate_model(model)
            cs = translate(model)
            cs.model_text()
            write_dimacs(tseitin_cnf(cs.conjunction(), cs.variable_order), io.BytesIO())
            del model, cs
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def _observe_collector(monkeypatch, owner, attr):
    """Patch ``owner.attr`` to record ``gc.isenabled()`` on each call."""
    seen = []
    inner = getattr(owner, attr)

    def observed(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, observed)
    return seen


def test_extract_builders_pause_the_collector(monkeypatch):
    parse_seen = _observe_collector(monkeypatch, kconfex.kconfig._Parser, "parse")
    translate_seen = _observe_collector(monkeypatch, kconfex.encode, "collect_numeric_values")
    render_seen = _observe_collector(monkeypatch, kconfex.prop._Renderer, "render")
    order_seen = []

    def order(names):
        for name in names:
            order_seen.append(gc.isenabled())
            yield name

    assert gc.isenabled()
    cs = translate(parse_model(large_chain_text(20), "chain"))
    cs.model_text()
    tseitin_cnf(cs.conjunction(), order(cs.variable_order))
    assert gc.isenabled()
    for seen in (parse_seen, translate_seen, render_seen, order_seen):
        assert seen and not any(seen)


def test_failing_builders_leave_the_collector_enabled():
    assert gc.isenabled()
    with pytest.raises(ParseError):
        parse_model('config A\n\tbool "a"\n\tdepends on &&\n')
    assert gc.isenabled()
    with pytest.raises(MissingVariable):
        tseitin_cnf(and_(Var("A"), Var("B")), ["A"])
    assert gc.isenabled()


@contextlib.contextmanager
def _explicit_collections():
    """Hold off automatic collections (threshold 0; the collector stays
    enabled) and yield the generation of every collection that runs."""
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    threshold = gc.get_threshold()
    gc.set_threshold(0)
    gc.callbacks.append(record)
    try:
        yield generations
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)


def _generation_ids(generation):
    return {id(obj) for obj in gc.get_objects(generation=generation)}


def test_extract_builders_promote_what_they_keep_to_the_oldest_generation():
    assert gc.isenabled() and gc.get_freeze_count() == 0
    model = parse_model(large_chain_text(60), "chain")
    with _explicit_collections() as generations:
        cs = translate(model)
        young_after_translate = gc.get_count()[0]
        cnf = tseitin_cnf(cs.conjunction(), cs.variable_order)
        young_after_tseitin = gc.get_count()[0]
    oldest = _generation_ids(2)
    nodes = [node for node in node_objects(*(c.formula for c in cs)).values() if gc.is_tracked(node)]
    assert len(nodes) > 100
    assert all(id(node) in oldest for node in nodes)
    assert id(cnf.clauses.literals) in oldest and id(cnf.clauses.sizes) in oldest
    assert young_after_translate < 50 and young_after_tseitin < 50
    assert generations == [1, 1]  # one young collection on entry to each builder, no full one


class _Cycle:
    def __init__(self):
        self.me = self


_BUILDER_CALLS = {
    "parse_model": lambda inputs: parse_model(inputs.text, "chain"),
    "translate": lambda inputs: translate(inputs.model),
    "model_text": lambda inputs: inputs.cs.model_text(),
    "tseitin_cnf": lambda inputs: tseitin_cnf(inputs.formula, inputs.cs.variable_order),
}


@pytest.mark.parametrize("builder", sorted(_BUILDER_CALLS))
def test_extract_builders_collect_a_cycle_the_caller_dropped(builder):
    text = large_chain_text(20)
    model = parse_model(text, "chain")
    cs = translate(model)
    inputs = SimpleNamespace(text=text, model=model, cs=cs, formula=cs.conjunction())
    cycle = _Cycle()
    ref = weakref.ref(cycle)
    del cycle
    assert ref() is not None
    _BUILDER_CALLS[builder](inputs)
    assert ref() is None


def test_extract_builders_leave_an_application_freeze_alone():
    text = large_chain_text(20)
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        with _explicit_collections() as generations:
            cs = translate(parse_model(text, "chain"))
            cs.model_text()
            tseitin_cnf(cs.conjunction(), cs.variable_order)
        assert gc.get_freeze_count() == frozen
        assert generations == []
        assert gc.isenabled()
    finally:
        gc.unfreeze()


def test_extract_builders_promote_nothing_with_the_collector_off():
    model = parse_model(large_chain_text(20), "chain")
    gc.disable()
    try:
        with _explicit_collections() as generations:
            cs = translate(model)
            cnf = tseitin_cnf(cs.conjunction(), cs.variable_order)
        youngest = _generation_ids(0)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert generations == []
    assert all(id(obj) in youngest for obj in (cs, cnf, cnf.clauses.literals, cnf.clauses.sizes))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: parse_model('config A\n\tbool "a"\n\tdepends on &&\n'), ParseError),
        (lambda: tseitin_cnf(and_(Var("A"), Var("B")), ["A"]), MissingVariable),
    ],
    ids=["parse_model", "tseitin_cnf"],
)
def test_failing_builders_promote_nothing(call, error):
    with _explicit_collections() as generations:
        with pytest.raises(error) as raised:
            call()
        youngest = _generation_ids(0)
    assert gc.isenabled()
    assert generations == [1]  # the young collection on entry only
    assert id(raised.value) in youngest


def test_one_var_object_per_name_within_a_translation():
    models = corpus_models() + [("large_chain", parse_model(large_chain_text(600), "large_chain"))]
    for name, model in models:
        by_name = {}
        for node in node_objects(*(c.formula for c in translate(model))).values():
            if isinstance(node, Var):
                assert by_name.setdefault(node.name, node) is node, (name, node.name)


def _outputs(cs):
    sink = io.BytesIO()
    write_dimacs(tseitin_cnf(cs.conjunction(), cs.variable_order), sink)
    return cs.model_text(), sink.getvalue()


def test_no_state_survives_a_translation():
    """Translating A, then B, then A again gives the same bytes, and the two
    translations of A share no node object."""
    models = [model for _, model in corpus_models()]
    for a, b in zip(models, models[1:] + models[:1]):
        first = translate(a)
        translate(b)
        second = translate(a)
        assert _outputs(first) == _outputs(second), a.name
        first_nodes = node_objects(*(c.formula for c in first))
        shared = [
            node
            for key, node in node_objects(*(c.formula for c in second)).items()
            if key in first_nodes and node is not TRUE and node is not FALSE
        ]
        assert not shared, (a.name, shared[:3])


def test_large_model_conjunction_node_objects_bounded():
    """Derived formulas are built once per translation and shared.  The
    conjunction of the 600-option chain reached 25,512 node objects (15,423
    structurally distinct) when every use built its own copy; sharing brought
    it to 17,164."""
    cs = translate(parse_model(large_chain_text(600), "large_chain"))
    assert len(node_objects(cs.conjunction())) <= 17_164


def _generic_and(a, b):
    return and_(a.f_y, b.f_y), and_(or_(a.f_y, a.f_m), or_(b.f_y, b.f_m), not_(and_(a.f_y, b.f_y)))


def _generic_or(a, b):
    return or_(a.f_y, b.f_y), and_(or_(a.f_m, b.f_m), not_(a.f_y), not_(b.f_y))


def _generic_not(a):
    return not_(or_(a.f_y, a.f_m)), a.f_m


def _assert_same_structure(enc, pair, context):
    f_y, f_m = pair
    assert formula_text(enc.f_y) == formula_text(f_y), context
    assert formula_text(enc.f_m) == formula_text(f_m), context
    assert formula_text(enc.nonzero) == formula_text(or_(f_y, f_m)), context


def test_encoding_shortcuts_build_the_generic_structure():
    """``enc_and``/``enc_or``/``enc_not`` build exactly the formulas of the
    tristate translation table, not merely equivalent ones: the .model text
    follows their structure."""
    model = _model(
        'config A\n\ttristate "a"\nconfig B\n\tbool "b"\n'
        'config N\n\tint "n"\n\tdefault 1\n\trange 0 5\n'
    )
    tr = Translation(model, collect_numeric_values(model))
    encodings = {
        "y": ENC_Y,
        "n": ENC_N,
        "m": ENC_M,
        "tristate": encode_expr(Sym("A"), tr),
        "bool": encode_expr(Sym("B"), tr),
        "comparison": encode_expr(Leq(Sym("N"), Literal("1")), tr),
        "and": encode_expr(And(Sym("A"), Sym("B")), tr),
        "or": encode_expr(Or(Sym("A"), Sym("B")), tr),
    }
    for (x, a), (y, b) in itertools.product(encodings.items(), repeat=2):
        _assert_same_structure(enc_and(a, b), _generic_and(a, b), f"{x} & {y}")
        _assert_same_structure(enc_or(a, b), _generic_or(a, b), f"{x} | {y}")
    for x, a in encodings.items():
        _assert_same_structure(enc_not(a), _generic_not(a), f"!{x}")


def test_variable_order_covers_the_conjunction():
    """``tseitin_cnf`` requires the order to name every variable of the
    formula; translate's order does."""
    models = corpus_models() + [
        (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
        for seed in range(100)
    ]
    for name, model in models:
        cs = translate(model)
        assert set(formula_vars(cs.conjunction())) <= set(cs.variable_order), name
