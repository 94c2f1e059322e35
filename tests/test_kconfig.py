import pytest

from kconfex.errors import DuplicateOption, ParseError
from kconfex.kconfig import (
    And,
    Diagnostic,
    Eq,
    Literal,
    Not,
    OptionType,
    Or,
    Sym,
    parse_model,
    pretty_model,
    validate_model,
)

from conftest import DERIVED_NAME_COLLISIONS, NOPROMPT_CHOICE_SOURCE, corpus_models


class TestParseModel:
    def test_noprompt_choice_structure(self, noprompt_choice_model):
        assert [it.name for it in noprompt_choice_model.items] == ["A", "B", "NOPROMPT"]
        assert all(it.type is OptionType.BOOL for it in noprompt_choice_model.items)
        (choice,) = noprompt_choice_model.choices
        assert choice.members == ("A", "B", "NOPROMPT")
        assert choice.type is OptionType.BOOL
        assert choice.prompts[0].text == "choice prompt"
        a, b, noprompt = noprompt_choice_model.items
        assert a.prompts and a.prompts[0].text == "A prompt"
        assert b.defaults[0].value == Sym("n")
        assert not noprompt.prompts
        assert noprompt.defaults[0].value == Sym("y")

    def test_empty_input(self):
        model = parse_model("", "empty")
        assert model.items == ()
        assert model.choices == ()

    def test_depends_ast(self):
        model = parse_model(
            "config X\n\ttristate \"x\"\n\tdepends on Y && Z='m'\n", "t"
        )
        (item,) = model.items
        assert item.type is OptionType.TRISTATE
        assert item.depends == And(Sym("Y"), Eq(Sym("Z"), Literal("m")))

    def test_multiple_depends_conjoined(self):
        model = parse_model(
            "config X\n\tbool \"x\"\n\tdepends on A\n\tdepends on B\n", "t"
        )
        assert model.items[0].depends == And(Sym("A"), Sym("B"))

    def test_bool_and_boolean_are_synonyms(self):
        m1 = parse_model('config A\n\tbool "a"\n', "t")
        m2 = parse_model('config A\n\tboolean "a"\n', "t")
        assert m1.items[0].type is m2.items[0].type is OptionType.BOOL

    def test_expression_precedence(self):
        model = parse_model(
            'config X\n\tbool "x"\n\tdepends on !A && B || C\n', "t"
        )
        assert model.items[0].depends == Or(And(Not(Sym("A")), Sym("B")), Sym("C"))

    def test_parentheses(self):
        model = parse_model('config X\n\tbool "x"\n\tdepends on !(A || B)\n', "t")
        assert model.items[0].depends == Not(Or(Sym("A"), Sym("B")))

    def test_comparison_binds_tighter_than_not(self):
        model = parse_model("config X\n\tbool \"x\"\n\tdepends on !A='y'\n", "t")
        assert model.items[0].depends == Not(Eq(Sym("A"), Literal("y")))

    def test_duplicate_option_rejected(self):
        with pytest.raises(DuplicateOption):
            parse_model('config A\n\tbool "a"\nconfig A\n\tbool "a"\n', "t")

    def test_unsupported_construct(self):
        with pytest.raises(ParseError) as info:
            parse_model('menu "m"\n', "t")
        assert info.value.line == 1

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as info:
            parse_model('config A\n\tbool "a"\n\tdepends on &&\n', "t")
        assert info.value.line == 3

    def test_help_block_discarded(self):
        model = parse_model(
            'config A\n\tbool "a"\n\thelp\n\t  Long explanation.\n\n'
            '\t  More text.\nconfig B\n\tbool "b"\n',
            "t",
        )
        assert [it.name for it in model.items] == ["A", "B"]

    def test_modules_flag(self):
        model = parse_model('config M\n\tbool "m"\n\toption modules\n', "t")
        assert model.modules_option == "M"

    def test_option_without_type_rejected(self):
        with pytest.raises(ParseError):
            parse_model('config A\n\tdepends on B\n', "t")

    def test_reserved_name_rejected(self):
        with pytest.raises(ParseError):
            parse_model('config y\n\tbool "y"\n', "t")

    def test_choice_requires_members(self):
        with pytest.raises(ParseError):
            parse_model('choice\n\tbool "c"\nendchoice\n', "t")

    def test_unclosed_choice(self):
        with pytest.raises(ParseError):
            parse_model('choice\n\tbool "c"\nconfig A\n\tbool "a"\n', "t")

    def test_items_in_declaration_order(self):
        model = parse_model(
            'config Z\n\tbool "z"\nconfig A\n\tint "a"\nconfig M\n\ttristate "m"\n',
            "t",
        )
        lines = sorted(model.items, key=lambda it: it.line)
        assert [it.name for it in model.items] == [it.name for it in lines] == ["Z", "A", "M"]

    def test_determinism(self):
        m1 = parse_model(NOPROMPT_CHOICE_SOURCE, "x")
        m2 = parse_model(NOPROMPT_CHOICE_SOURCE, "x")
        assert m1 == m2


class TestValidateModel:
    def test_noprompt_choice_clean(self, noprompt_choice_model):
        assert validate_model(noprompt_choice_model) == []

    def test_undeclared_symbol_warning(self):
        model = parse_model('config A\n\tbool "a"\n\tdepends on UNDECLARED\n', "t")
        diags = validate_model(model)
        assert len(diags) == 1
        assert diags[0].severity == "warning"
        assert "UNDECLARED" in diags[0].message

    def test_select_on_int_is_error(self):
        model = parse_model(
            'config B\n\tbool "b"\nconfig N\n\tint "n"\n\tselect B\n', "t"
        )
        diags = [d for d in validate_model(model) if d.severity == "error"]
        assert len(diags) == 1

    def test_range_on_bool_is_error(self):
        model = parse_model('config A\n\tbool "a"\n\trange 0 5\n', "t")
        assert any(d.severity == "error" for d in validate_model(model))

    def test_select_of_string_target_is_error(self):
        model = parse_model(
            'config S\n\tstring "s"\nconfig A\n\tbool "a"\n\tselect S\n', "t"
        )
        assert any(d.severity == "error" for d in validate_model(model))

    def test_recursive_select_condition_is_error(self):
        model = parse_model(
            'config P\n\tbool "p"\nconfig S\n\tbool "s"\n\tselect P if !P\n', "t"
        )
        errors = [d for d in validate_model(model) if d.severity == "error"]
        assert errors and "recursive" in errors[0].message

    def test_select_plus_depends_cycle_is_error(self):
        model = parse_model(
            'config P\n\tbool "p"\n'
            'config S\n\tbool "s"\n\tdepends on P\n\tselect P\n',
            "t",
        )
        errors = [d for d in validate_model(model) if d.severity == "error"]
        assert errors and "recursive" in errors[0].message

    @pytest.mark.parametrize(
        "text, name",
        [
            *DERIVED_NAME_COLLISIONS.values(),
            ('config H\n\thex "h"\nconfig H_EQ_0x1\n\tbool "flag"\n', "H_EQ_0x1"),
            ('config S_EQ\n\tstring "s"\nconfig S_EQ_EQ_a\n\tbool "flag"\n', "S_EQ_EQ_a"),
        ],
        ids=[*DERIVED_NAME_COLLISIONS, "hex-value", "string-value"],
    )
    def test_name_of_a_derived_variable_is_error(self, text, name):
        errors = [d for d in validate_model(parse_model(text, "t")) if d.severity == "error"]
        assert errors == [
            Diagnostic("error", f"option name {name} collides with a derived variable", name)
        ]

    def test_value_variable_shape_after_a_boolean_option_is_clean(self):
        # A bool option has no value variables, so B_EQ_1 names nothing derived.
        model = parse_model('config B\n\tbool "b"\nconfig B_EQ_1\n\tbool "c"\n', "t")
        assert validate_model(model) == []

    def test_corpus_validates_cleanly(self):
        for name, model in corpus_models():
            errors = [d for d in validate_model(model) if d.severity == "error"]
            assert not errors, f"{name}: {errors}"

    def test_every_symbol_declared_or_warned(self):
        from kconfex.kconfig import TRI_NAMES, expr_symbols

        for name, model in corpus_models():
            warned = {
                d.message.split()[1]
                for d in validate_model(model)
                if d.severity == "warning" and "never declared" in d.message
            }
            symbols = set()
            for it in model.items:
                symbols.update(expr_symbols(it.depends))
                for p in it.prompts:
                    symbols.update(expr_symbols(p.condition))
                for d in it.defaults:
                    symbols.update(expr_symbols(d.condition))
                for s in it.selects:
                    symbols.update(expr_symbols(s.condition))
                for r in it.ranges:
                    symbols.update(expr_symbols(r.condition))
            for sym in symbols:
                if sym in TRI_NAMES or sym.isdigit():
                    continue
                assert model.has_option(sym) or sym in warned, (name, sym)


# Case ids carry the position in the list ("...-model6"), so corpus models
# added after those ids were fixed are listed last, keeping the earlier ids.
_ADDED_LATER = ("choice_conditional_prompt.kconfig", "hex_invisible_default.kconfig")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name,model", sorted(corpus_models(), key=lambda case: case[0] in _ADDED_LATER)
    )
    def test_pretty_reparse_identity(self, name, model):
        printed = pretty_model(model)
        reparsed = parse_model(printed, model.source_name)
        assert reparsed == model, name
