import ast
import gc
from array import array
import io
import itertools
import random
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import kconfex
from kconfex.encode import translate
from kconfex.errors import FormatError, MissingVariable
from kconfex.kconfig import parse_model
from kconfex.prop import (
    _Const,
    _gc_paused,
    _Renderer,
    FALSE,
    TRUE,
    AndF,
    CnfFormula,
    Constraint,
    ConstraintSet,
    Iff,
    Implies,
    NotF,
    OrF,
    Var,
    and_,
    evaluate_mask,
    iff,
    implies,
    not_,
    or_,
    parse_dimacs,
    tseitin_cnf,
    write_dimacs,
)

from conftest import (
    TooManyVariables,
    assignment_masks,
    auxiliary_names,
    corpus_models,
    equivalent,
    evaluate,
    flat_clauses,
    formula_text,
    formula_vars,
    large_chain_text,
    one_shot_dimacs,
    tree_model_text,
    tree_text,
)

A, B, NP = Var("A"), Var("B"), Var("NOPROMPT")
GOLDEN = and_(NP, or_(and_(A, not_(B)), and_(not_(A), B)))

GOLDEN_VALID_ROWS = [
    {"A": False, "B": True, "NOPROMPT": True},
    {"A": True, "B": False, "NOPROMPT": True},
]


def test_node_classes_are_final():
    # Formula walkers dispatch on ``type(node) is Kind``, which a subclass
    # instance would slip past.
    for cls in (Var, _Const, NotF, AndF, OrF, Implies, Iff):
        assert cls.__subclasses__() == [], cls


def all_assignments(names):
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


class TestEvaluate:
    def test_golden_checked_row(self):
        assert evaluate(GOLDEN, {"A": True, "B": False, "NOPROMPT": True})

    def test_empty_conjunction_is_true(self):
        assert evaluate(and_(), {})

    def test_golden_all_rows(self):
        valid = [a for a in all_assignments(["A", "B", "NOPROMPT"]) if evaluate(GOLDEN, a)]
        assert valid == GOLDEN_VALID_ROWS

    def test_missing_variable(self):
        with pytest.raises(MissingVariable):
            evaluate(GOLDEN, {"A": True, "B": False})

    def test_implies_iff(self):
        f = iff(implies(A, B), or_(not_(A), B))
        for a in all_assignments(["A", "B"]):
            assert evaluate(f, a)


class TestEquivalent:
    def test_commutativity(self):
        assert equivalent(or_(A, B), or_(B, A))

    def test_golden_vs_disjunction_of_rows(self):
        rows = or_(
            and_(A, not_(B), NP),
            and_(not_(A), B, NP),
        )
        assert equivalent(GOLDEN, rows)

    def test_idempotent_conjunction(self):
        assert equivalent(A, and_(A, A, A))

    def test_inequivalent(self):
        assert not equivalent(A, B)

    def test_reflexive_symmetric(self):
        pairs = [(GOLDEN, GOLDEN), (A, and_(A, A)), (or_(A, B), or_(B, A))]
        for f, g in pairs:
            assert equivalent(f, f)
            assert equivalent(f, g) == equivalent(g, f)

    def test_variable_bound(self):
        wide = or_(*(Var(f"v{i}") for i in range(25)))
        with pytest.raises(TooManyVariables):
            equivalent(wide, TRUE)


class TestMaskEvaluation:
    def test_matches_pointwise_evaluation(self):
        """500 random formulas of depth 6, some of whose subformula objects
        recur within one formula and across formulas."""
        rng = random.Random(7)
        names = ["A", "B", "C", "D"]
        built = {depth: [] for depth in range(7)}  # reused at their own depth

        def gen(depth):
            if built[depth] and rng.random() < 0.2:
                return rng.choice(built[depth])
            if depth == 0 or rng.random() < 0.2:
                return Var(rng.choice(names))
            op = rng.randrange(5)
            if op == 0:
                f = not_(gen(depth - 1))
            elif op == 1:
                f = and_(gen(depth - 1), gen(depth - 1))
            elif op == 2:
                f = or_(gen(depth - 1), gen(depth - 1))
            elif op == 3:
                f = implies(gen(depth - 1), gen(depth - 1))
            else:
                f = iff(gen(depth - 1), gen(depth - 1))
            built[depth].append(f)
            return f

        masks, ones = assignment_masks(names)
        shared = 0
        for _ in range(500):
            f = gen(6)
            shared += len(node_ids(f)) > len(set(node_ids(f)))
            mask = evaluate_mask(f, masks, ones)
            # assignment k sets names[i] to bit i of k
            for k in range(1 << len(names)):
                assignment = {n: bool(k >> i & 1) for i, n in enumerate(names)}
                assert bool(mask >> k & 1) == evaluate(f, assignment)
        assert shared > 50

    def test_constants(self):
        masks, ones = assignment_masks(["A", "B"])
        assert evaluate_mask(TRUE, masks, ones) == ones == 0b1111
        assert evaluate_mask(FALSE, masks, ones) == 0

    @pytest.mark.parametrize(
        "shape",
        [
            lambda x: x,
            lambda x: NotF(x),
            lambda x: AndF((A, x)),
            lambda x: OrF((x, B)),
            lambda x: Implies(x, A),
            lambda x: Implies(A, x),
            lambda x: Iff(x, B),
            lambda x: Iff(A, x),
            lambda x: AndF((A, NotF(x))),
            lambda x: OrF((B, Implies(A, x))),
        ],
    )
    def test_missing_variable_is_named(self, shape):
        """A variable without a mask, at the top, as any operand of any node
        or deeper, raises ``MissingVariable`` naming it."""
        masks, ones = assignment_masks(["A", "B"])
        with pytest.raises(MissingVariable) as caught:
            evaluate_mask(shape(Var("X")), masks, ones)
        assert caught.value.name == "X"


def node_ids(f):
    """The ids of the node objects at every tree position of ``f``."""
    ids = [id(f)]
    for child in getattr(f, "operands", ()) or [
        getattr(f, slot) for slot in ("operand", "antecedent", "consequent", "left", "right") if hasattr(f, slot)
    ]:
        ids += node_ids(child)
    return ids


def tree_vars(f):
    """Variable names in first-occurrence order of a walk that visits every
    tree position, shared subtrees included."""
    seen = {}

    def walk(node):
        if isinstance(node, Var):
            seen.setdefault(node.name)
        elif isinstance(node, NotF):
            walk(node.operand)
        elif isinstance(node, (AndF, OrF)):
            for op in node.operands:
                walk(op)
        elif isinstance(node, Implies):
            walk(node.antecedent)
            walk(node.consequent)
        elif isinstance(node, Iff):
            walk(node.left)
            walk(node.right)

    walk(f)
    return list(seen)


class TestFormulaVars:
    def test_shared_subtree_keeps_tree_order(self):
        shared = or_(Var("C"), and_(Var("D"), not_(A)))
        f = and_(implies(B, shared), iff(shared, Var("E")), or_(Var("F"), not_(shared)), A)
        assert f.operands[0].consequent is f.operands[1].left is f.operands[2].operands[1].operand
        assert formula_vars(f) == tree_vars(f) == ["B", "C", "D", "A", "E", "F"]

    def test_corpus_conjunctions_keep_tree_order(self):
        for name, model in corpus_models():
            f = translate(model).conjunction()
            assert formula_vars(f) == tree_vars(f), name

    def test_doubling_dag(self):
        # Each level refers to the one below twice: about 2**17 tree
        # positions, 33 distinct nodes.
        f = Var("BASE")
        for k in range(16):
            f = implies(f, iff(f, Var(f"V{k}")))
        assert formula_vars(f) == tree_vars(f) == ["BASE"] + [f"V{k}" for k in range(16)]
        cnf = tseitin_cnf(f, formula_vars(f))
        assert len(cnf.aux_definitions) == 32
        assert cnf.num_vars == 17 + 32


def _satisfied(cnf, values):
    return all(any(values[abs(lit)] == (lit > 0) for lit in clause) for clause in cnf.clauses)


class TestTseitin:
    def test_single_variable(self):
        cnf = tseitin_cnf(A, formula_vars(A))
        assert cnf.num_vars == 1
        assert list(cnf.clauses) == [(1,)]
        assert _satisfied(cnf, {1: True})
        assert not _satisfied(cnf, {1: False})

    def test_constant_false(self):
        cnf = tseitin_cnf(or_(), [])
        assert list(cnf.clauses) == [()]
        assert not _satisfied(cnf, {})

    def test_constant_true(self):
        cnf = tseitin_cnf(and_(), [])
        assert list(cnf.clauses) == []
        assert _satisfied(cnf, {})

    def _assert_assignment_preserving(self, f):
        names = formula_vars(f)
        cnf = tseitin_cnf(f, formula_vars(f))
        for assignment in all_assignments(names):
            values = {cnf.var_map[n]: v for n, v in assignment.items()}
            first = cnf.num_vars - len(cnf.aux_definitions) + 1
            for idx, definition in enumerate(cnf.aux_definitions, start=first):
                values[idx] = evaluate(definition, assignment)
            assert _satisfied(cnf, values) == evaluate(f, assignment), assignment
        assert list(cnf.var_map.values()) == list(range(1, cnf.num_vars - len(cnf.aux_definitions) + 1))

    def test_golden_assignment_preserving(self):
        self._assert_assignment_preserving(GOLDEN)

    def test_random_formulas_assignment_preserving(self):
        rng = random.Random(13)
        names = ["A", "B", "C"]

        def gen(depth):
            if depth == 0 or rng.random() < 0.3:
                return Var(rng.choice(names))
            op = rng.randrange(5)
            kids = [gen(depth - 1), gen(depth - 1)]
            return [not_(kids[0]), and_(*kids), or_(*kids), implies(*kids), iff(*kids)][op]

        for _ in range(40):
            self._assert_assignment_preserving(gen(3))

    def test_long_conjunction(self):
        f = and_(*(Var(f"V{i}") for i in range(3000)))
        cnf = tseitin_cnf(f, formula_vars(f))
        assert len(cnf.aux_definitions) == 1
        assert cnf.num_vars == 3001
        clauses = list(cnf.clauses)
        assert len(cnf.clauses) == len(clauses) == 3002
        assert clauses[:3000] == [(-3001, i) for i in range(1, 3001)]
        assert clauses[3000] == (3001, *[-i for i in range(1, 3001)])
        assert clauses[3001] == (3001,)

    def test_tautological_long_disjunction_has_no_clause(self):
        f = or_(*(Var(f"V{i}") for i in range(3000)), not_(Var("V0")))
        cnf = tseitin_cnf(f, formula_vars(f))
        g = cnf.num_vars
        # one binary clause per operand, the root unit, and no defining clause
        assert list(cnf.clauses) == [(-i, g) for i in range(1, 3001)] + [(1, g), (g,)]

    def test_duplicate_literals_keep_first_occurrence(self):
        names = [f"V{i}" for i in range(2000)]
        operands = [Var(n) for n in names + names[::-1]] + [not_(Var("W"))]
        cnf = tseitin_cnf(or_(*operands), names + ["W"])
        g = cnf.num_vars
        w = cnf.var_map["W"]
        assert (-g, *range(1, 2001), -w) in list(cnf.clauses)
        assert all(len(set(clause)) == len(clause) for clause in cnf.clauses)
        cnf = tseitin_cnf(or_(A, B, A, not_(NP), B), ["A", "B", "NOPROMPT"])
        assert list(cnf.clauses)[5] == (-4, 1, 2, -3)

    def test_no_complementary_literals(self):
        f = and_(or_(A, not_(A), B), iff(A, not_(A)))
        cnf = tseitin_cnf(f, formula_vars(f))
        for clause in cnf.clauses:
            assert not any(-lit in clause for lit in clause)
            assert all(abs(lit) <= cnf.num_vars for lit in clause if lit != 0)

    def test_equal_distinct_objects_convert_as_one_shared_object(self):
        def build(shared):
            left, right = shared(), shared()
            return and_(
                implies(left, NP),
                iff(not_(right), B),
                or_(and_(left, NP), and_(right, NP)),
            )

        disjunction = or_(A, not_(B))
        f = build(lambda: or_(A, not_(B)))
        assert f.operands[0].antecedent is not f.operands[1].left.operand
        distinct = tseitin_cnf(f, formula_vars(f))
        shared = tseitin_cnf(build(lambda: disjunction), formula_vars(f))
        assert list(distinct.clauses) == list(shared.clauses)
        assert distinct.var_map == shared.var_map
        assert distinct.num_vars == shared.num_vars

    # B is variable 1 and C variable 2; X is a compound node with its own
    # auxiliary, 3.  The gate's auxiliary is the next index.  The clauses of
    # a gate whose operand literals repeat a variable drop a repeated literal
    # (first occurrence kept) and leave out a tautology.
    C = Var("C")
    X = OrF((B, C))
    X_CLAUSES = [(-1, 3), (-2, 3), (-3, 1, 2)]

    @pytest.mark.parametrize(
        "gate, clauses",
        [
            (AndF((B, B)), [(-3, 1), (-3, 1), (3, -1)]),
            (AndF((B, NotF(B))), [(-3, 1), (-3, -1)]),
            (OrF((B, B)), [(-1, 3), (-1, 3), (-3, 1)]),
            (OrF((B, NotF(B))), [(-1, 3), (1, 3)]),
            (AndF((C, B, C)), [(-3, 2), (-3, 1), (-3, 2), (3, -2, -1)]),
            (Implies(B, B), [(3, 1), (3, -1)]),
            (Iff(B, NotF(B)), [(-3, -1), (-3, 1)]),
            (AndF((X, NotF(X))), X_CLAUSES + [(-4, 3), (-4, -3)]),
            (OrF((X, NotF(X))), X_CLAUSES + [(-3, 4), (3, 4)]),
            (AndF((X, X)), X_CLAUSES + [(-4, 3), (-4, 3), (4, -3)]),
        ],
        ids=[
            "and-B-B",
            "and-B-notB",
            "or-B-B",
            "or-B-notB",
            "and-C-B-C",
            "implies-B-B",
            "iff-B-notB",
            "and-X-notX",
            "or-X-notX",
            "and-X-X",
        ],
    )
    def test_gate_over_a_repeated_variable(self, gate, clauses):
        cnf = tseitin_cnf(gate, ["B", "C"])
        root = cnf.num_vars
        assert list(cnf.clauses) == clauses + [(root,)]
        assert cnf.var_map == {"B": 1, "C": 2} and len(cnf.aux_definitions) == root - 2
        assert cnf.aux_definitions[-1] is gate  # the last auxiliary, variable ``root``

    def test_clauses_hold_no_object_per_clause(self):
        # 3,000 disjunction gates under one conjunction gate.  Variables A<i>
        # and B<i> are 2i+1 and 2i+2; the disjunctions get 6001..9000 and
        # the root 9001, the order in which their literals are first needed.
        n = 3000
        f = and_(*[or_(Var(f"A{i}"), Var(f"B{i}")) for i in range(n)])
        order = [name for i in range(n) for name in (f"A{i}", f"B{i}")]
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            cnf = tseitin_cnf(f, order)
            after = len(gc.get_objects())
        finally:
            gc.enable()
        assert after - before < 20
        root = 2 * n + n + 1
        expected = []
        for i in range(n):
            a, b, g = 2 * i + 1, 2 * i + 2, 2 * n + i + 1
            expected += [(-a, g), (-b, g), (-g, a, b)]
        expected += [(-root, 2 * n + i + 1) for i in range(n)]
        expected += [(root, *[-(2 * n + i + 1) for i in range(n)]), (root,)]
        assert list(cnf.clauses) == expected
        assert len(cnf.clauses) == len(expected)

    def test_variable_with_an_auxiliary_name_raises(self):
        with pytest.raises(ValueError, match="__aux0"):
            tseitin_cnf(and_(Var("__aux0"), or_(A, B)), ["__aux0", "A", "B"])

    def test_var_map_is_the_dict_of_the_originals(self):
        f = and_(or_(A, B), iff(A, NP), implies(B, or_(A, B)))
        cnf = tseitin_cnf(f, ["A", "B", "NOPROMPT", "UNUSED"])
        assert type(cnf.var_map) is dict
        assert list(cnf.var_map.items()) == [("A", 1), ("B", 2), ("NOPROMPT", 3), ("UNUSED", 4)]
        assert cnf.num_vars == 8
        assert cnf.aux_definitions == (or_(A, B), iff(A, NP), implies(B, or_(A, B)), f)

    def test_dimacs_names_every_auxiliary_after_the_originals(self):
        f = and_(or_(A, B), iff(A, NP), implies(B, or_(A, B)))
        sink = io.BytesIO()
        write_dimacs(tseitin_cnf(f, ["A", "B", "NOPROMPT", "UNUSED"]), sink)
        names = [line for line in sink.getvalue().decode().splitlines() if line.startswith("c ")]
        assert names == [
            "c 1 A",
            "c 2 B",
            "c 3 NOPROMPT",
            "c 4 UNUSED",
            "c 5 __aux0",
            "c 6 __aux1",
            "c 7 __aux2",
            "c 8 __aux3",
        ]

    # Two auxiliaries, __aux0 and __aux1: none of these names is one of
    # theirs.  The last has too many digits for ``int`` to convert.
    @pytest.mark.parametrize(
        "name",
        ["__aux00", "__aux01", "__aux-1", "__aux", "__aux\u0661", "__aux2", "__aux" + "9" * 5000],
        ids=["zero-0", "zero-1", "negative", "no-digits", "arabic-indic", "past-the-last", "5000-digits"],
    )
    def test_variable_named_like_no_auxiliary_is_kept(self, name):
        cnf = tseitin_cnf(and_(Var(name), or_(A, B)), [name, "A", "B"])
        assert cnf.var_map == {name: 1, "A": 2, "B": 3} and len(cnf.aux_definitions) == 2
        sink = io.BytesIO()
        write_dimacs(cnf, sink)
        names = f"c 1 {name}\nc 2 A\nc 3 B\nc 4 __aux0\nc 5 __aux1\n"
        assert sink.getvalue().decode().startswith(names + "p cnf 5 ")

    def test_order_missing_a_variable_raises(self):
        with pytest.raises(MissingVariable) as info:
            tseitin_cnf(GOLDEN, ["A", "NOPROMPT"])
        assert info.value.name == "B"


class TestDimacs:
    def test_matches_the_per_clause_writer(self):
        cnfs = [tseitin_cnf(FALSE, []), tseitin_cnf(TRUE, ["A"])]
        assert list(cnfs[0].clauses) == [()] and list(cnfs[1].clauses) == []
        clauses = flat_clauses([[3, -1], (2,), [], (-3, 1, 2)])
        cnfs.append(CnfFormula(num_vars=3, clauses=clauses, var_map={"A": 1}))
        for _, model in corpus_models():
            constraints = translate(model)
            cnfs.append(tseitin_cnf(constraints.conjunction(), constraints.variable_order))
        assert len(cnfs) > 50
        for cnf in cnfs:
            sink = io.BytesIO()
            write_dimacs(cnf, sink)
            assert sink.getvalue() == one_shot_dimacs(cnf)

    def test_single_clause_format(self):
        from kconfex.prop import CnfFormula

        cnf = CnfFormula(num_vars=2, clauses=flat_clauses([[1, -2]]), var_map={"A": 1, "B": 2})
        sink = io.BytesIO()
        write_dimacs(cnf, sink)
        text = sink.getvalue().decode()
        assert "p cnf 2 1" in text
        assert "1 -2 0" in text.splitlines()

    def test_empty_and_list_clauses(self):
        from kconfex.prop import CnfFormula

        sink = io.BytesIO()
        write_dimacs(CnfFormula(num_vars=2, clauses=flat_clauses([(), [2, -1], (1,)]), var_map={}), sink)
        assert sink.getvalue().decode().splitlines() == ["p cnf 2 3", "0", "2 -1 0", "1 0"]

    def test_header_only(self):
        from kconfex.prop import CnfFormula

        sink = io.BytesIO()
        write_dimacs(CnfFormula(num_vars=3, clauses=flat_clauses([]), var_map={}), sink)
        assert sink.getvalue().decode().splitlines() == ["p cnf 3 0"]

    def test_round_trip(self):
        cnf = tseitin_cnf(GOLDEN, formula_vars(GOLDEN))
        sink = io.BytesIO()
        write_dimacs(cnf, sink)
        back = parse_dimacs(io.BytesIO(sink.getvalue()))
        assert back.num_vars == cnf.num_vars
        assert list(back.clauses) == list(cnf.clauses)
        assert back.var_map == {**cnf.var_map, **auxiliary_names(cnf)}
        assert back.aux_definitions == ()
        again = io.BytesIO()
        write_dimacs(back, again)
        assert again.getvalue() == sink.getvalue()

    def test_clauses_are_c_int_arrays(self):
        cnf = tseitin_cnf(or_(A, and_(B, not_(NP))), ["A", "B", "NOPROMPT"])
        sink = io.BytesIO()
        write_dimacs(cnf, sink)
        back = parse_dimacs(io.BytesIO(sink.getvalue()))
        for clauses in (cnf.clauses, back.clauses):
            assert type(clauses.literals) is array and clauses.literals.typecode == "i"
            assert type(clauses.sizes) is array and clauses.sizes.typecode == "i"
        assert back.clauses == cnf.clauses

    def test_largest_variable_count_reads(self):
        back = parse_dimacs(io.BytesIO(b"p cnf 2147483647 1\n-2147483647 0\n"))
        assert (back.num_vars, list(back.clauses)) == (2147483647, [(-2147483647,)])

    def test_random_round_trip(self):
        rng = random.Random(19)
        for case in range(40):
            num_vars = rng.randrange(1, 60)
            clauses = [
                tuple(rng.choice((1, -1)) * rng.randrange(1, num_vars + 1) for _ in range(rng.randrange(6)))
                for _ in range(rng.randrange(30))
            ]
            if case == 0:
                clauses = []
            elif case == 1:
                clauses.insert(rng.randrange(len(clauses) + 1), ())
            elif case == 2:
                clauses.append(tuple(rng.choice((1, -1)) * rng.randrange(1, num_vars + 1) for _ in range(3001)))
            names = rng.sample(range(1, num_vars + 1), rng.randrange(num_vars + 1))
            cnf = CnfFormula(num_vars, flat_clauses(clauses), {f"V{idx}": idx for idx in names})
            sink = io.BytesIO()
            write_dimacs(cnf, sink)
            back = parse_dimacs(io.BytesIO(sink.getvalue()))
            assert back == cnf
            again = io.BytesIO()
            write_dimacs(back, again)
            assert again.getvalue() == sink.getvalue()
            assert list(back.clauses) == clauses
            assert len(back.clauses) == len(clauses)

    def test_write_is_byte_deterministic(self):
        cnf = tseitin_cnf(GOLDEN, formula_vars(GOLDEN))
        a, b = io.BytesIO(), io.BytesIO()
        write_dimacs(cnf, a)
        write_dimacs(cnf, b)
        assert a.getvalue() == b.getvalue()

    def test_empty_formula(self):
        back = parse_dimacs(io.BytesIO(b"p cnf 0 0\n"))
        assert back.num_vars == 0
        assert list(back.clauses) == []

    def test_malformed_header(self):
        with pytest.raises(FormatError) as info:
            parse_dimacs(io.BytesIO(b"p dnf 1 1\n1 0\n"))
        assert info.value.line == 1

    def test_clause_before_header(self):
        with pytest.raises(FormatError):
            parse_dimacs(io.BytesIO(b"1 0\n"))

    @pytest.mark.parametrize(
        "text, line",
        [
            (b"p cnf -1 0\n", 1),
            (b"p cnf 1 -1\n", 1),
            (b"p cnf 3 1\np cnf 3 2\n1 0\n2 0\n", 2),
            (b"c 9 X\np cnf 3 1\n1 0\n", 1),
            (b"c 0 X\np cnf 3 1\n1 0\n", 1),
            (b"c 1 A\nc 1 B\np cnf 3 1\n1 0\n", 2),
            (b"c 1 A\nc 2 A\np cnf 3 1\n1 0\n", 2),
        ],
        ids=[
            "negative-vars",
            "negative-clauses",
            "second-header",
            "name-index-above-count",
            "name-index-zero",
            "index-named-twice",
            "name-given-two-indices",
        ],
    )
    def test_malformed_input_names_the_line(self, text, line):
        with pytest.raises(FormatError) as info:
            parse_dimacs(io.BytesIO(text))
        assert info.value.line == line

    @pytest.mark.parametrize(
        "text, message, line",
        [
            (b"p cnf x 1\n", "malformed DIMACS header", 1),
            (b"p cnf 2 1\n1 x 0\n", "malformed clause line", 2),
            (b"p cnf 2 1\n1 2\n", "clause line does not end with 0", 2),
            (b"p cnf 2 1\n1 0 2 0\n", "literal 0 inside clause", 2),
            (b"p cnf 1 1\n1 2 0\n", "literal exceeds declared variable count", 2),
            (b"c 1 A\n", "missing DIMACS header", 1),
            (b"p cnf 1 2\n1 0\n", "declared 2 clauses, found 1", 1),
            (b"c 1 A\np cnf 2147483648 1\n2147483648 0\n", "variable count above 2147483647", 2),
        ],
        ids=[
            "count-not-an-int",
            "clause-not-ints",
            "clause-without-0",
            "0-inside-clause",
            "literal-above-count",
            "no-header",
            "clause-count",
            "count-above-c-int",
        ],
    )
    def test_malformed_input_message(self, text, message, line):
        with pytest.raises(FormatError) as info:
            parse_dimacs(io.BytesIO(text))
        assert (info.value.message, info.value.line) == (message, line)
        assert str(info.value) == f"line {line}: {message}"

    @pytest.mark.parametrize(
        "text, line",
        [
            (b"p cnf 1 1\n1 0\nc 1 \xff\n", 3),
            (b"c 1 \xc3\np cnf 1 1\n1 0\n", 1),
            (b"p cnf 1 1\r1 0\rc 1 \xff\r", 3),
        ],
        ids=["name-line", "cut-sequence", "after-two-crs"],
    )
    def test_bytes_that_are_not_utf8_name_the_line(self, text, line):
        with pytest.raises(FormatError) as info:
            parse_dimacs(io.BytesIO(text))
        assert (info.value.message, info.value.line) == ("not UTF-8 text", line)

    def test_reads_the_source_line_by_line(self):
        class LinesOnly(io.BytesIO):
            def read(self, *args):
                raise AssertionError("read the whole source")

        back = parse_dimacs(LinesOnly(b"c 1 A\r\np cnf 2 2\n1 -2 0\r\n\n2 0"))
        assert (back.num_vars, list(back.clauses), back.var_map) == (2, [(1, -2), (2,)], {"A": 1})

    def test_chunks_match_the_one_shot_writer(self):
        # Names, auxiliaries and clauses each fill more than one chunk and
        # end in a partly filled one, or in exactly full ones.
        chunk = kconfex.prop._CHUNK_LINES
        cnfs = []
        for n in (chunk + 100, chunk // 2):
            f = and_(*[or_(Var(f"A{i}"), not_(Var(f"B{i}"))) for i in range(n)])
            cnfs.append(tseitin_cnf(f, [name for i in range(n) for name in (f"A{i}", f"B{i}")]))
        rng = random.Random(5)
        for count in (2 * chunk, 3 * chunk + 17):
            clauses = [
                [rng.choice((1, -1)) * rng.randrange(1, 50) for _ in range(rng.randrange(5))]
                for _ in range(count)
            ]
            names = {f"V{k}": k % 50 + 1 for k in range(count)}
            cnfs.append(CnfFormula(num_vars=50, clauses=flat_clauses(clauses), var_map=names))
        assert len(cnfs[0].aux_definitions) > chunk and len(cnfs[0].clauses) > 4 * chunk
        for cnf in cnfs:
            writes = []
            write_dimacs(cnf, SimpleNamespace(write=writes.append))
            assert b"".join(writes) == one_shot_dimacs(cnf)
            assert all(text.count(b"\n") <= chunk for text in writes)

    def test_comments_without_index_are_ignored(self):
        text = "c made by hand\nc \u00b2 squared\nc 1 A\np cnf 1 1\n1 0\n"
        back = parse_dimacs(io.BytesIO(text.encode("utf-8")))
        assert back.var_map == {"A": 1}


class _ByteCounter:
    """A sink that keeps only the number of bytes written to it."""

    def __init__(self):
        self.count = 0

    def write(self, data):
        self.count += len(data)


class TestMemory:
    """What the CNF keeps and what writing DIMACS holds, traced on
    ``large_chain_text(600)``: 11,676 auxiliaries and 42,461 clauses."""

    @pytest.fixture(scope="class")
    def chain(self):
        return translate(parse_model(large_chain_text(600), "chain"))

    @staticmethod
    def _traced(fn):
        """``fn()``, and the bytes it left allocated and its peak, both
        above the start."""
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, current - start, peak - start

    def test_cnf_retains_few_bytes_per_auxiliary(self, chain):
        formula = chain.conjunction()
        cnf, kept, _ = self._traced(lambda: tseitin_cnf(formula, chain.variable_order))
        assert len(cnf.aux_definitions) == 11676
        # 344 bytes per auxiliary with a name string and two dict entries
        # for each, 210 with none, and 87 with the clauses in C-int arrays
        # rather than lists of int objects.
        assert kept / len(cnf.aux_definitions) < 120

    def test_model_text_peaks_below_eight_times_its_output(self, chain):
        text, _, peak = self._traced(chain.model_text)
        assert len(text) == 336829
        # 9.27 times the output when the memo kept each root's text too,
        # and 6.83 times it without.
        assert peak < 8 * len(text)

    def test_dimacs_writer_holds_less_than_it_writes(self, chain):
        cnf = tseitin_cnf(chain.conjunction(), chain.variable_order)
        sink = _ByteCounter()
        _, _, peak = self._traced(lambda: write_dimacs(cnf, sink))
        assert sink.count == 864044
        # 3.87 times the output when the whole output was built at once,
        # and 0.69 times it in chunks.
        assert peak < sink.count


class TestFormulaText:
    def test_operators(self):
        f = iff(implies(and_(A, not_(B)), or_(A, B)), TRUE)
        text = formula_text(implies(and_(A, not_(B)), or_(A, B)))
        assert text == "A & !B => A | B"
        assert formula_text(f) is not None

    def test_constants(self):
        assert formula_text(TRUE) == "1"
        assert formula_text(FALSE) == "0"

    def test_parenthesization(self):
        assert formula_text(and_(or_(A, B), NP)) == "(A | B) & NOPROMPT"
        assert formula_text(not_(and_(A, B))) == "!(A & B)"

    def test_shared_node_parenthesized_per_use(self):
        # One ``or_`` object under ``&``, under ``!``, as an antecedent and
        # as a root: each use site needs different parentheses.
        shared = or_(A, B)
        roots = [
            and_(shared, NP),
            not_(shared),
            implies(shared, NP),
            shared,
            iff(implies(shared, not_(shared)), and_(NP, shared)),
        ]
        cs = ConstraintSet([Constraint(root, f"root{k}") for k, root in enumerate(roots)])
        assert [formula_text(root) for root in roots] == [
            "(A | B) & NOPROMPT",
            "!(A | B)",
            "A | B => NOPROMPT",
            "A | B",
            "A | B => !(A | B) <=> NOPROMPT & (A | B)",
        ]
        assert [formula_text(root) for root in roots] == [tree_text(root) for root in roots]
        assert cs.model_text() == tree_model_text(cs)

    def test_root_text_is_not_kept(self):
        # ``shared`` is a root of its own and recurs inside two later roots
        # (and inside an earlier one): the memo keeps it from its first
        # inner use, and every line still reads as the tree renderer's.
        shared = or_(A, and_(B, NP))
        roots = [shared, and_(NP, shared), implies(shared, NP), shared, iff(not_(shared), A)]
        cs = ConstraintSet([Constraint(root, f"root{k}") for k, root in enumerate(roots)])
        renderer = _Renderer()
        first = renderer.render(shared, 0)
        assert id(shared) not in renderer.done and id(shared.operands[1]) in renderer.done
        lines = [renderer.render(root, 0) for root in roots]
        assert lines == [tree_text(root) for root in roots] and lines[0] == first
        assert id(shared) in renderer.done
        assert not {id(root) for root in roots[1:3] + roots[4:]} & renderer.done.keys()
        assert cs.model_text() == tree_model_text(cs)

    def test_corpus_model_text_matches_tree_renderer(self):
        for name, model in corpus_models():
            cs = translate(model)
            assert cs.model_text() == tree_model_text(cs), name


class TestGcPaused:
    @staticmethod
    @_gc_paused
    def _probe(seen, fail=False):
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError("inside")
        return "done"

    def test_paused_inside_and_resumed_after_return(self):
        seen = []
        assert gc.isenabled()
        assert self._probe(seen) == "done"
        assert seen == [False]
        assert gc.isenabled()

    def test_resumed_after_an_exception(self):
        seen = []
        with pytest.raises(RuntimeError, match="inside"):
            self._probe(seen, fail=True)
        assert seen == [False]
        assert gc.isenabled()

    def test_left_disabled_when_the_caller_disabled_it(self):
        seen = []
        gc.disable()
        try:
            self._probe(seen)
            with pytest.raises(RuntimeError):
                self._probe(seen, fail=True)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False, False]

    def test_nested_calls_resume_once(self):
        seen = []

        @_gc_paused
        def outer():
            self._probe(seen)
            seen.append(gc.isenabled())

        outer()
        assert seen == [False, False]
        assert gc.isenabled()


def test_only_gc_paused_refers_to_the_collector():
    """One owner holds the collector policy: the package names the ``gc``
    module only inside ``prop._gc_paused``, after one ``import gc`` at the
    top of ``prop``."""
    package = Path(kconfex.__file__).resolve().parent
    stray = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "prop.py":
            (owner,) = [node for node in tree.body if getattr(node, "name", None) == "_gc_paused"]
            inside = [node for node in ast.walk(owner) if isinstance(node, ast.Name) and node.id == "gc"]
            assert inside, "_gc_paused no longer uses the collector"
            allowed = {id(node) for node in inside}
            allowed |= {id(node) for node in tree.body if isinstance(node, ast.Import) and ast.unparse(node) == "import gc"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                refers = any(alias.name == "gc" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                refers = node.module == "gc"
            else:
                refers = isinstance(node, ast.Name) and node.id == "gc"
            if refers and id(node) not in allowed:
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, stray
