import gc
import io
import itertools
import random

import pytest

from kconfex.encode import translate
from kconfex.errors import FormatError, MissingVariable, TooManyVariables
from kconfex.prop import (
    _Const,
    _gc_paused,
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
    assignment_masks,
    equivalent,
    evaluate,
    evaluate_mask,
    formula_text,
    formula_vars,
    iff,
    implies,
    not_,
    or_,
    parse_dimacs,
    tseitin_cnf,
    var,
    write_dimacs,
)

from conftest import corpus_models, tree_model_text, tree_text

A, B, NP = var("A"), var("B"), var("NOPROMPT")
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
        wide = or_(*(var(f"v{i}") for i in range(25)))
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
                return var(rng.choice(names))
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
        shared = or_(var("C"), and_(var("D"), not_(A)))
        f = and_(implies(B, shared), iff(shared, var("E")), or_(var("F"), not_(shared)), A)
        assert f.operands[0].consequent is f.operands[1].left is f.operands[2].operands[1].operand
        assert formula_vars(f) == tree_vars(f) == ["B", "C", "D", "A", "E", "F"]

    def test_corpus_conjunctions_keep_tree_order(self):
        for name, model in corpus_models():
            f = translate(model).conjunction()
            assert formula_vars(f) == tree_vars(f), name

    def test_doubling_dag(self):
        # Each level refers to the one below twice: about 2**17 tree
        # positions, 33 distinct nodes.
        f = var("BASE")
        for k in range(16):
            f = implies(f, iff(f, var(f"V{k}")))
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
        assert cnf.clauses == [(1,)]
        assert _satisfied(cnf, {1: True})
        assert not _satisfied(cnf, {1: False})

    def test_constant_false(self):
        cnf = tseitin_cnf(or_(), [])
        assert cnf.clauses == [()]
        assert not _satisfied(cnf, {})

    def test_constant_true(self):
        cnf = tseitin_cnf(and_(), [])
        assert cnf.clauses == []
        assert _satisfied(cnf, {})

    def _assert_assignment_preserving(self, f):
        names = formula_vars(f)
        cnf = tseitin_cnf(f, formula_vars(f))
        for assignment in all_assignments(names):
            values = {cnf.var_map[n]: v for n, v in assignment.items()}
            for idx, definition in cnf.aux_definitions.items():
                values[idx] = evaluate(definition, assignment)
            assert _satisfied(cnf, values) == evaluate(f, assignment), assignment
        assert sorted(cnf.var_map.values()) == list(range(1, cnf.num_vars + 1))

    def test_golden_assignment_preserving(self):
        self._assert_assignment_preserving(GOLDEN)

    def test_random_formulas_assignment_preserving(self):
        rng = random.Random(13)
        names = ["A", "B", "C"]

        def gen(depth):
            if depth == 0 or rng.random() < 0.3:
                return var(rng.choice(names))
            op = rng.randrange(5)
            kids = [gen(depth - 1), gen(depth - 1)]
            return [not_(kids[0]), and_(*kids), or_(*kids), implies(*kids), iff(*kids)][op]

        for _ in range(40):
            self._assert_assignment_preserving(gen(3))

    def test_long_conjunction(self):
        f = and_(*(var(f"V{i}") for i in range(3000)))
        cnf = tseitin_cnf(f, formula_vars(f))
        assert len(cnf.aux_definitions) == 1
        assert cnf.num_vars == 3001
        assert len(cnf.clauses) == 3002
        assert cnf.clauses[:3000] == [(-3001, i) for i in range(1, 3001)]
        assert cnf.clauses[3000] == (3001, *[-i for i in range(1, 3001)])
        assert cnf.clauses[3001] == (3001,)

    def test_tautological_long_disjunction_has_no_clause(self):
        f = or_(*(var(f"V{i}") for i in range(3000)), not_(var("V0")))
        cnf = tseitin_cnf(f, formula_vars(f))
        g = cnf.num_vars
        # one binary clause per operand, the root unit, and no defining clause
        assert cnf.clauses == [(-i, g) for i in range(1, 3001)] + [(1, g), (g,)]

    def test_duplicate_literals_keep_first_occurrence(self):
        names = [f"V{i}" for i in range(2000)]
        operands = [var(n) for n in names + names[::-1]] + [not_(var("W"))]
        cnf = tseitin_cnf(or_(*operands), names + ["W"])
        g = cnf.num_vars
        w = cnf.var_map["W"]
        assert (-g, *range(1, 2001), -w) in cnf.clauses
        assert all(len(set(clause)) == len(clause) for clause in cnf.clauses)
        cnf = tseitin_cnf(or_(A, B, A, not_(NP), B), ["A", "B", "NOPROMPT"])
        assert cnf.clauses[5] == (-4, 1, 2, -3)

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
        assert distinct.clauses == shared.clauses
        assert distinct.var_map == shared.var_map
        assert distinct.num_vars == shared.num_vars

    # B is variable 1 and C variable 2; X is a compound node with its own
    # auxiliary, 3.  The gate's auxiliary is the next index.  The clauses of
    # a gate whose operand literals repeat a variable drop a repeated literal
    # (first occurrence kept) and leave out a tautology.
    C = var("C")
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
        assert cnf.clauses == clauses + [(root,)]
        assert list(cnf.var_map) == ["B", "C"] + [f"__aux{k}" for k in range(root - 2)]
        assert cnf.aux_definitions[root] is gate

    def test_variable_with_an_auxiliary_name_raises(self):
        with pytest.raises(ValueError, match="__aux0"):
            tseitin_cnf(and_(var("__aux0"), or_(A, B)), ["__aux0", "A", "B"])

    def test_order_missing_a_variable_raises(self):
        with pytest.raises(MissingVariable) as info:
            tseitin_cnf(GOLDEN, ["A", "NOPROMPT"])
        assert info.value.name == "B"


def _per_clause_dimacs(cnf):
    """A plain DIMACS writer that formats each clause on its own: the
    reference for ``write_dimacs``."""
    out = [f"c {idx} {name}" for name, idx in cnf.var_map.items()]
    out.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    for clause in cnf.clauses:
        out.append("%d " * len(clause) % tuple(clause) + "0")
    return ("\n".join(out) + "\n").encode("utf-8")


class TestDimacs:
    def test_matches_the_per_clause_writer(self):
        cnfs = [tseitin_cnf(FALSE, []), tseitin_cnf(TRUE, ["A"])]
        assert cnfs[0].clauses == [()] and cnfs[1].clauses == []
        cnfs.append(CnfFormula(num_vars=3, clauses=[[3, -1], (2,), [], (-3, 1, 2)], var_map={"A": 1}))
        for _, model in corpus_models():
            constraints = translate(model)
            cnfs.append(tseitin_cnf(constraints.conjunction(), constraints.variable_order))
        assert len(cnfs) > 50
        for cnf in cnfs:
            sink = io.BytesIO()
            write_dimacs(cnf, sink)
            assert sink.getvalue() == _per_clause_dimacs(cnf)

    def test_single_clause_format(self):
        from kconfex.prop import CnfFormula

        cnf = CnfFormula(num_vars=2, clauses=[[1, -2]], var_map={"A": 1, "B": 2})
        sink = io.BytesIO()
        write_dimacs(cnf, sink)
        text = sink.getvalue().decode()
        assert "p cnf 2 1" in text
        assert "1 -2 0" in text.splitlines()

    def test_empty_and_list_clauses(self):
        from kconfex.prop import CnfFormula

        sink = io.BytesIO()
        write_dimacs(CnfFormula(num_vars=2, clauses=[(), [2, -1], (1,)], var_map={}), sink)
        assert sink.getvalue().decode().splitlines() == ["p cnf 2 3", "0", "2 -1 0", "1 0"]

    def test_header_only(self):
        from kconfex.prop import CnfFormula

        sink = io.BytesIO()
        write_dimacs(CnfFormula(num_vars=3, clauses=[], var_map={}), sink)
        assert sink.getvalue().decode().splitlines() == ["p cnf 3 0"]

    def test_round_trip(self):
        cnf = tseitin_cnf(GOLDEN, formula_vars(GOLDEN))
        sink = io.BytesIO()
        write_dimacs(cnf, sink)
        back = parse_dimacs(io.BytesIO(sink.getvalue()))
        assert back.num_vars == cnf.num_vars
        assert back.clauses == cnf.clauses
        assert back.var_map == cnf.var_map

    def test_write_is_byte_deterministic(self):
        cnf = tseitin_cnf(GOLDEN, formula_vars(GOLDEN))
        a, b = io.BytesIO(), io.BytesIO()
        write_dimacs(cnf, a)
        write_dimacs(cnf, b)
        assert a.getvalue() == b.getvalue()

    def test_empty_formula(self):
        back = parse_dimacs(io.BytesIO(b"p cnf 0 0\n"))
        assert back.num_vars == 0
        assert back.clauses == []

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

    def test_comments_without_index_are_ignored(self):
        text = "c made by hand\nc \u00b2 squared\nc 1 A\np cnf 1 1\n1 0\n"
        back = parse_dimacs(io.BytesIO(text.encode("utf-8")))
        assert back.var_map == {"A": 1}


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
