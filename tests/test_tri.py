import itertools

import pytest

from kconfex.difftest import generate_model_text
from kconfex.errors import EvalError
from kconfex.kconfig import And, Eq, Leq, Literal, Lt, Neq, Not, Or, Prompt, Sym, parse_model
from kconfex.tri import RowValues, Tri

from conftest import corpus_models, enumerated_configs, eval_expr, single_row

ALL = (Tri.N, Tri.M, Tri.Y)


def _model(text):
    return parse_model(text, "t")


TRI_PAIR = _model('config X\n\ttristate "x"\nconfig Q\n\ttristate "q"\n')
X, Q = Sym("X"), Sym("Q")


def _value(expr, x, q=Tri.N):
    return eval_expr(expr, {"X": x, "Q": q}, TRI_PAIR)


class TestAlgebra:
    """Conjunction, disjunction and negation as the expression evaluator
    computes them, the code the repair runs."""

    def test_and_is_min(self):
        for a, b in itertools.product(ALL, ALL):
            assert _value(And(X, Q), a, b) == Tri(min(a.value, b.value))

    def test_or_is_max(self):
        for a, b in itertools.product(ALL, ALL):
            assert _value(Or(X, Q), a, b) == Tri(max(a.value, b.value))

    def test_not_is_complement(self):
        for a in ALL:
            assert _value(Not(X), a) == Tri(2 - a.value)

    def test_not_n_is_y(self):
        assert _value(Not(X), Tri.N) is Tri.Y

    def test_or_identity(self):
        assert _value(Or(X, Q), Tri.N, Tri.N) is Tri.N

    def test_and_y_m(self):
        assert _value(And(X, Q), Tri.Y, Tri.M) is Tri.M

    def test_de_morgan(self):
        for a, b in itertools.product(ALL, ALL):
            assert _value(Not(And(X, Q)), a, b) == _value(Or(Not(X), Not(Q)), a, b)
            assert _value(Not(Or(X, Q)), a, b) == _value(And(Not(X), Not(Q)), a, b)

    def test_involution(self):
        for a in ALL:
            assert _value(Not(Not(X)), a) == a


class TestEvalExpr:
    def test_eq_against_n(self):
        model = _model('config B\n\tbool "b"\n')
        assert eval_expr(Eq(Sym("B"), Literal("n")), {"B": Tri.N}, model) is Tri.Y

    def test_and_with_own_negation_at_m(self):
        # brute force over all values of X, checked against min/complement
        for v in ALL:
            expected = Tri(min(v.value, 2 - v.value))
            got = eval_expr(And(Sym("X"), Not(Sym("X"))), {"X": v, "Q": Tri.N}, TRI_PAIR)
            assert got == expected
        assert (
            eval_expr(And(Sym("X"), Not(Sym("X"))), {"X": Tri.M, "Q": Tri.N}, TRI_PAIR)
            is Tri.M
        )

    def test_unset_int_reads_as_zero_in_an_ordered_comparison(self):
        model = _model('config N\n\tint "n"\n')
        assert eval_expr(Lt(Sym("N"), Literal("1")), {"N": None}, model) is Tri.Y
        assert eval_expr(Lt(Literal("0"), Sym("N")), {"N": None}, model) is Tri.N

    def test_numeric_boundary(self):
        model = _model('config CPU\n\tint "cpu"\n\tdefault 5\n')
        assert eval_expr(Leq(Sym("CPU"), Literal("5")), {"CPU": "5"}, model) is Tri.Y

    def test_numeric_error_on_text(self):
        model = _model('config S\n\tstring "s"\n\tdefault "foo"\n')
        with pytest.raises(EvalError):
            eval_expr(Lt(Sym("S"), Literal("5")), {"S": "foo"}, model)

    def test_comparisons_two_valued(self):
        model = TRI_PAIR
        exprs = [
            Eq(Sym("X"), Sym("Q")),
            Neq(Sym("X"), Literal("m")),
            Eq(Sym("X"), Literal("y")),
        ]
        for e in exprs:
            for x, q in itertools.product(ALL, ALL):
                got = eval_expr(e, {"X": x, "Q": q}, model)
                assert got in (Tri.N, Tri.Y)

    def test_undeclared_symbol_is_n(self):
        model = _model('config A\n\tbool "a"\n')
        assert eval_expr(Sym("NOPE"), {"A": Tri.Y}, model) is Tri.N

    def test_constant_names(self):
        model = _model('config A\n\tbool "a"\n')
        cfg = {"A": Tri.N}
        assert eval_expr(Sym("y"), cfg, model) is Tri.Y
        assert eval_expr(Sym("m"), cfg, model) is Tri.M
        assert eval_expr(Sym("n"), cfg, model) is Tri.N

    def test_undeclared_in_comparison_acts_as_text(self):
        model = _model('config S\n\tstring "s"\n\tdefault "foo"\n')
        assert eval_expr(Eq(Sym("S"), Sym("foo")), {"S": "foo"}, model) is Tri.Y

    def test_nonboolean_bare_symbol(self):
        model = _model('config N\n\tint "n"\n\tdefault 5\n')
        assert eval_expr(Sym("N"), {"N": "5"}, model) is Tri.Y
        assert eval_expr(Sym("N"), {"N": None}, model) is Tri.N

    def test_or_tristate_table_row(self):
        # cross-check min/max semantics against the pair translation rules
        for a, b in itertools.product(ALL, ALL):
            v = eval_expr(Or(Sym("X"), Sym("Q")), {"X": a, "Q": b}, TRI_PAIR)
            e_y = a is Tri.Y or b is Tri.Y
            e_m = (a is Tri.M or b is Tri.M) and not e_y
            assert (v is Tri.Y) == e_y and (v is Tri.M) == e_m


def _visibility(item, cfg, model):
    """An option's prompt visibility in the one row ``cfg``, with its
    effective dependencies evaluated here."""
    values = RowValues(model, single_row(cfg), 1)
    depends = values.tri(model.effective_depends(item), 1)
    ge, y = values.visibility(item.prompts, depends, 1)
    return Tri(ge + y)


class TestVisibility:
    def test_noprompt_is_never_visible(self, noprompt_choice_model):
        noprompt = noprompt_choice_model.item("NOPROMPT")
        for a, b, c in itertools.product((Tri.N, Tri.Y), repeat=3):
            cfg = {"A": a, "B": b, "NOPROMPT": c}
            assert _visibility(noprompt, cfg, noprompt_choice_model) is Tri.N

    def test_unconditional_prompt(self):
        model = _model('config A\n\tbool "a"\n')
        assert _visibility(model.item("A"), {"A": Tri.N}, model) is Tri.Y

    def test_prompt_and_depends_min(self):
        model = _model(
            'config P\n\ttristate "p"\nconfig Q\n\ttristate "q"\n'
            'config I\n\ttristate "i" if P\n\tdepends on Q\n'
        )
        item = model.item("I")
        for p, q in itertools.product(ALL, ALL):
            cfg = {"P": p, "Q": q, "I": Tri.N}
            assert _visibility(item, cfg, model) == Tri(min(p.value, q.value))

    def test_choice_dependencies_gate_members(self):
        model = _model(
            'config G\n\tbool "g"\n'
            'choice\n\tbool "pick"\n\tdepends on G\n'
            'config A\n\tbool "a"\nconfig B\n\tbool "b"\nendchoice\n'
        )
        cfg = {"G": Tri.N, "A": Tri.N, "B": Tri.N}
        assert _visibility(model.item("A"), cfg, model) is Tri.N
        cfg["G"] = Tri.Y
        assert _visibility(model.item("A"), cfg, model) is Tri.Y


class TestWholeSpaceVisibility:
    """``visibility`` over every row at once."""

    P_Q = _model('config P\n\ttristate "p"\nconfig Q\n\ttristate "q"\n')

    def _rows(self):
        columns, ones, configs = enumerated_configs(self.P_Q)
        return ones, configs, RowValues(self.P_Q, columns, ones)

    def test_unconditional_prompt_is_the_dependency_value(self):
        ones, _, values = self._rows()
        depends = values.tri(Q, ones)
        assert depends != (ones, ones) and depends != (0, 0)
        assert values.visibility((Prompt("i"),), depends, ones) == depends

    @pytest.mark.parametrize("conditional_first", [True, False])
    def test_unconditional_beside_conditional_is_the_maximum(self, conditional_first):
        ones, configs, values = self._rows()
        prompts = (Prompt("i", Sym("P")), Prompt("i"))
        if not conditional_first:
            prompts = prompts[::-1]
        ge, y = values.visibility(prompts, values.tri(Q, ones), ones)
        for k, cfg in enumerate(configs):
            p, q = cfg["P"].value, cfg["Q"].value
            assert Tri((ge >> k & 1) + (y >> k & 1)) == Tri(max(min(p, q), q)), cfg

    def test_corpus_rows_match_one_row(self):
        """On every corpus model, each option's visibility on row k is its
        one-row visibility in configuration k."""
        checked = 0
        for name, model in corpus_models():
            columns, ones, configs = enumerated_configs(model)
            values = RowValues(model, columns, ones)
            for item in model.items:
                depends = values.tri(model.effective_depends(item), ones)
                ge, y = values.visibility(item.prompts, depends, ones)
                for k, cfg in enumerate(configs):
                    expected = _visibility(item, cfg, model)
                    assert Tri((ge >> k & 1) + (y >> k & 1)) is expected, (name, item.name, cfg)
                    checked += 1
        assert checked > 2000


class TestRowSet:
    """``RowValues`` takes ``ones = 2**n - 1`` and column masks inside it;
    its complements ``ones ^ x`` are exact only there."""

    def test_masks_inside_the_rows_accepted(self):
        values = RowValues(TRI_PAIR, {"X": {Tri.Y: 0b10, Tri.M: 0b01}}, 0b11)
        assert (values.ge["X"], values.y["X"], values.present["Q"]) == (0b11, 0b10, 0)
        assert RowValues(TRI_PAIR, {}, 0).present == {"X": 0, "Q": 0}

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError, match="X holds"):
            RowValues(TRI_PAIR, {"X": {Tri.Y: -1}}, 0b11)

    def test_mask_beyond_the_rows_rejected(self):
        with pytest.raises(ValueError, match="X holds"):
            RowValues(TRI_PAIR, {"X": {Tri.N: 0b01, Tri.Y: 0b110}}, 0b11)

    def test_valued_mask_beyond_the_rows_rejected(self):
        model = _model('config N\n\tint "n"\n\tdefault 5\n')
        with pytest.raises(ValueError, match="N holds '5'"):
            RowValues(model, {"N": {"5": 0b100}}, 0b11)

    def test_row_in_two_values_rejected(self):
        with pytest.raises(ValueError, match="X holds <Tri.Y: 2> on a row holding another"):
            RowValues(TRI_PAIR, {"X": {Tri.N: 0b01, Tri.M: 0b10, Tri.Y: 0b10}}, 0b11)
        with pytest.raises(ValueError, match="X holds <Tri.M: 1> on a row holding another"):
            RowValues(TRI_PAIR, {"X": {Tri.N: 0b01, Tri.M: 0b01, Tri.Y: 0b01}}, 0b1)
        model = _model('config N\n\tint "n"\n\tdefault 5\n')
        with pytest.raises(ValueError, match="N holds None on a row holding another"):
            RowValues(model, {"N": {"5": 0b10, None: 0b10}}, 0b11)

    def test_value_of_the_wrong_kind_rejected(self):
        with pytest.raises(TypeError, match="X holds 'y', not a Tri value"):
            RowValues(TRI_PAIR, {"X": {"y": 0b1}}, 0b1)
        model = _model('config S\n\tstring "s"\n\tdefault "y"\n')
        with pytest.raises(TypeError, match="S holds <Tri.Y: 2>, not text or None"):
            RowValues(model, {"S": {Tri.Y: 0b1}}, 0b1)

    @pytest.mark.parametrize("ones", [-1, 0b101, 0b10])
    def test_row_set_of_other_form_rejected(self, ones):
        with pytest.raises(ValueError, match="row set"):
            RowValues(TRI_PAIR, {}, ones)

    def test_columns_give_the_enumeration_back(self):
        """``columns()`` is the enumeration's columns without the values no
        row holds, on every corpus model and generated seeds 0-99."""
        models = corpus_models() + [
            (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
            for seed in range(100)
        ]
        for name, model in models:
            columns, ones, _ = enumerated_configs(model)
            expected = {
                option: {value: rows for value, rows in column.items() if rows}
                for option, column in columns.items()
            }
            assert RowValues(model, columns, ones).columns() == expected, name

    def test_columns_leave_out_the_rows_without_the_option(self):
        model = _model('config N\n\tint "n"\n\tdefault 5\nconfig S\n\tstring "s"\n')
        columns = {"X": {Tri.N: 0b001, Tri.M: 0}, "N": {"5": 0b010, None: 0b001}}
        assert RowValues(TRI_PAIR, columns, 0b111).columns() == {"X": {Tri.N: 0b001}}
        assert RowValues(model, columns, 0b111).columns() == {"N": {"5": 0b010, None: 0b001}}
