import random
import re

import pytest

import kconfex.kconfig as kconfig
from kconfex.difftest import check_model, generate_model_text
from kconfex.encode import translate
from kconfex.errors import (
    ChoiceMembership,
    DuplicateItem,
    DuplicateOption,
    InvalidModulesSwitch,
    KconfexError,
    ParseError,
    UnsupportedComparison,
)
from kconfex.kconfig import (
    And,
    ConfigItem,
    Diagnostic,
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
    Sym,
    expr_nodes,
    parse_model,
    validate_model,
    value_dependency_cycles,
    value_dependency_edges,
)

from conftest import (
    CORPUS_DIR,
    DERIVED_NAME_COLLISIONS,
    NOPROMPT_CHOICE_SOURCE,
    corpus_models,
    pretty_model,
)

EXPR_CLASSES = (Sym, Literal, Not, And, Or, Eq, Neq, Lt, Leq, Gt, Geq)


def test_expr_classes_are_final():
    # Expression walkers dispatch on ``type(node) is Kind``, which a subclass
    # instance would slip past.
    for cls in EXPR_CLASSES:
        assert cls.__subclasses__() == [], cls


class TestExprNodes:
    def test_leaves(self):
        for leaf in (Sym("A"), Literal("3")):
            assert expr_nodes(leaf) == [leaf]

    def test_pre_order_left_before_right(self):
        a, b, one, c = Sym("A"), Sym("B"), Literal("1"), Sym("C")
        neg, cmp = Not(a), Lt(b, one)
        conj = And(neg, cmp)
        root = Or(conj, c)
        nodes = expr_nodes(root)
        assert [id(n) for n in nodes] == [id(n) for n in (root, conj, neg, a, cmp, b, one, c)]

    def test_every_binary_kind(self):
        for cls in (And, Or, Eq, Neq, Lt, Leq, Gt, Geq):
            left, right = Sym("L"), Literal("r")
            assert expr_nodes(cls(left, right)) == [cls(left, right), left, right]

    def test_repeated_subtree_is_listed_each_time(self):
        shared = Not(Sym("A"))
        assert expr_nodes(And(shared, shared)) == [And(shared, shared), shared, Sym("A"), shared, Sym("A")]

    def test_deep_tree_without_recursion(self):
        e = Sym("A")
        for _ in range(20_000):
            e = Not(e)
        nodes = expr_nodes(e)
        assert len(nodes) == 20_001 and type(nodes[-1]) is Sym


# Characters where str.splitlines breaks a line and kconfig does not.
OTHER_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


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

    def test_help_without_a_body(self):
        model = parse_model('config A\n\tbool "a"\n\thelp\nconfig B\n\tbool "b"\n', "t")
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

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=repr)
    def test_prompt_keeps_a_character_that_ends_no_line(self, char):
        model = parse_model(f'config A\n\tbool "a{char}b"\n', "t")
        assert model.items[0].prompts[0].text == f"a{char}b"

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=repr)
    def test_help_holding_a_character_that_ends_no_line_is_skipped(self, char):
        text = f'config A\n\tbool "a"\n\thelp\n\t  one{char}two\nconfig B\n\tbool "b"\n'
        assert [it.name for it in parse_model(text, "t").items] == ["A", "B"]

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=repr)
    def test_error_line_counts_newlines_alone(self, char):
        text = f'config A\n\tbool "a"\n\thelp\n\t  one{char}\t  two\nmenu "m"\n'
        with pytest.raises(ParseError) as info:
            parse_model(text, "t")
        assert info.value.line == 5

    def test_crlf_parses_as_lf(self):
        for name, model in corpus_models():
            text = (CORPUS_DIR / name).read_text(encoding="utf-8")
            assert parse_model(text.replace("\n", "\r\n"), name) == model, name


def _rebuilt(value, **changes):
    """A copy of a declaration with some fields replaced."""
    return type(value)(**{**{name: getattr(value, name) for name in value._fields}, **changes})


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

    @pytest.mark.parametrize(
        "operand, message",
        [
            ("y", "ordered comparison over non-numeric constants 'y', '3'"),
            ("T", "ordered comparison over non-numeric option T"),
            ("UNDECLARED", "ordered comparison over non-numeric constants 'UNDECLARED', '3'"),
            ("S", "ordered comparison over non-numeric option S"),
        ],
        ids=["tristate-name", "tristate-option", "undeclared-symbol", "string-option"],
    )
    def test_ordered_comparison_of_a_non_number_is_error(self, operand, message):
        text = f'config T\n\ttristate "t"\nconfig S\n\tstring "s"\nconfig X\n\tbool "x" if {operand} < 3\n'
        errors = [d for d in validate_model(parse_model(text, "t")) if d.severity == "error"]
        assert errors == [Diagnostic("error", message, "X")]

    @pytest.mark.parametrize(
        "left, right, message",
        [
            (Sym("N"), Literal("3"), None),
            (Literal("0x10"), Sym("H"), None),
            (Sym("2"), Literal("3"), None),
            (Sym("N"), Sym("H"), "ordered comparison of N against non-numeric 'H'"),
            (Literal("y"), Sym("N"), "ordered comparison of N against non-numeric 'y'"),
            (Literal("3"), Literal("m"), "ordered comparison over non-numeric constants '3', 'm'"),
            (Not(Sym("N")), Literal("3"), "comparison operand Not(operand=Sym(name='N')) is not a symbol or literal"),
        ],
        ids=["int-number", "number-hex", "numbers", "int-hex", "text-int", "number-text", "not-a-symbol"],
    )
    def test_ordered_comparison_rule_matches_the_encoder(self, left, right, message):
        # Built through the API: the parser already rejects the last four.
        model = parse_model('config N\n\tint "n"\n\tdefault 1\nconfig H\n\thex "h"\n\tdefault 0x1\n', "t")
        item = ConfigItem("X", OptionType.BOOL, prompts=(Prompt("x", Lt(left, right)),))
        model = KconfigModel(items=(*model.items, item), choices=(), modules_option=None)
        errors = [d for d in validate_model(model) if d.severity == "error"]
        assert errors == ([] if message is None else [Diagnostic("error", message, "X")])
        if message is None:
            translate(model)
        else:
            with pytest.raises(UnsupportedComparison, match=re.escape(message)):
                translate(model)

    @pytest.mark.parametrize(
        "switch, message",
        [
            ("M", "'option modules' needs a bool option; M is int"),
            ("T", "'option modules' needs a bool option; T is tristate"),
            ("NOPE", "modules switch NOPE is not a declared option"),
        ],
        ids=["int", "tristate", "undeclared"],
    )
    def test_api_model_with_a_bad_modules_switch_raises(self, switch, message):
        # The parser rejects the first two at the 'option modules' line; a
        # model built through the API gets the same rule when it is made.
        model = parse_model('config M\n\tint "m"\n\tdefault 1\nconfig T\n\ttristate "t"\n', "t")
        with pytest.raises(InvalidModulesSwitch) as info:
            KconfigModel(model.items, model.choices, switch)
        assert isinstance(info.value, KconfexError)
        assert str(info.value) == message

    def test_api_model_with_two_options_of_one_name_raises(self):
        # The parser rejects the second declaration at its line; a model
        # built through the API gets the same rule when it is made.
        bool_a = parse_model('config A\n\tbool "a"\n', "t").items[0]
        tristate_a = parse_model('config A\n\ttristate "a"\n', "t").items[0]
        with pytest.raises(DuplicateItem) as info:
            KconfigModel((bool_a, tristate_a), (), None)
        assert isinstance(info.value, KconfexError)
        assert str(info.value) == "option A declared twice"

    @pytest.mark.parametrize(
        "members, c_choice, message",
        [
            (("A", "B", "Z"), None, "choice 0 lists undeclared option Z"),
            (("A", "B"), 5, "option C is declared in choice 5 but listed in no choice"),
            (("A", "B", "A"), None, "choice 0 lists option A twice"),
            (("A", "B", "C"), None, "option C is declared in no choice but listed in choice 0"),
            (("A", "B"), 0, "option C is declared in choice 0 but listed in no choice"),
        ],
        ids=["undeclared-member", "no-such-choice", "member-twice", "member-outside", "unlisted"],
    )
    def test_api_model_with_disagreeing_choice_members_raises(self, members, c_choice, message):
        # The parser lists each option of a choice once, in the choice it is
        # declared in; a model built through the API gets the same rule.
        model = parse_model(
            'choice\n\tbool "c"\nconfig A\n\tbool "a"\nconfig B\n\tbool "b"\nendchoice\n'
            'config C\n\tbool "c"\n',
            "t",
        )
        (choice,) = model.choices
        a, b, c = model.items
        items = (a, b, _rebuilt(c, declared_in_choice=c_choice))
        with pytest.raises(ChoiceMembership) as info:
            KconfigModel(items, (_rebuilt(choice, members=members),), None)
        assert isinstance(info.value, KconfexError)
        assert str(info.value) == message

    def test_api_model_with_a_member_of_two_choices_raises(self):
        model = parse_model('choice\n\tbool "c"\nconfig A\n\tbool "a"\nendchoice\n', "t")
        (choice,) = model.choices
        with pytest.raises(ChoiceMembership) as info:
            KconfigModel(model.items, (choice, _rebuilt(choice, id=1)), None)
        assert str(info.value) == "choices 0 and 1 both list option A"

    def test_api_model_with_a_bool_modules_switch_checks(self):
        model = parse_model('config B\n\tbool "b"\nconfig T\n\ttristate "t"\n', "t")
        model = KconfigModel(model.items, model.choices, "B")
        assert validate_model(model) == []
        assert check_model(model).mismatches == []

    def test_value_variable_shape_after_a_boolean_option_is_clean(self):
        # A bool option has no value variables, so B_EQ_1 names nothing derived.
        model = parse_model('config B\n\tbool "b"\nconfig B_EQ_1\n\tbool "c"\n', "t")
        assert validate_model(model) == []

    def test_corpus_validates_cleanly(self):
        for name, model in corpus_models():
            errors = [d for d in validate_model(model) if d.severity == "error"]
            assert not errors, f"{name}: {errors}"

    def test_every_symbol_declared_or_warned(self):
        from kconfex.kconfig import TRI_NAMES, expr_nodes

        for name, model in corpus_models():
            warned = {
                d.message.split()[1]
                for d in validate_model(model)
                if d.severity == "warning" and "never declared" in d.message
            }
            exprs = []
            for it in model.items:
                exprs.append(it.depends)
                exprs += [p.condition for p in it.prompts]
                exprs += [d.condition for d in it.defaults]
                exprs += [s.condition for s in it.selects]
                exprs += [r.condition for r in it.ranges]
            symbols = {
                node.name
                for e in exprs
                if e is not None
                for node in expr_nodes(e)
                if type(node) is Sym
            }
            for sym in symbols:
                if sym in TRI_NAMES or sym.isdigit():
                    continue
                assert model.has_option(sym) or sym in warned, (name, sym)


_PARSE_ERRORS = [
    ("config A\n  && B\n", "unexpected token '&&'", 2, 1),
    ('config "A"\n', "expected option name after 'config'", 1, 8),
    ("config A B\n", "trailing tokens after option name", 1, 10),
    ("choice\nchoice\n", "nested choice blocks are not supported", 2, 1),
    ("choice x\n", "trailing tokens after 'choice'", 1, 8),
    ("endchoice\n", "'endchoice' outside a choice block", 1, 1),
    ('choice\n\tprompt "p"\n', "choice block not closed before end of file", 1, 1),
    (
        'config M\n\tbool "m"\n\toption modules\nconfig N\n\tbool "n"\n\toption modules\n',
        "second 'option modules' switch N (already on M)",
        4,
        1,
    ),
    ('choice\n\tint "c"\n', "choice cannot have type int", 2, 1),
    ('config A\n\tbool "a"\n\ttristate\n', "conflicting type tristate (already bool)", 3, 1),
    ("config A\n\tbool\n\tprompt A\n", "expected quoted prompt text", 3, 8),
    ('config A\n\tbool "a"\n\tdepends B\n', "expected 'on' after 'depends'", 3, 9),
    ('choice\n\tbool "c"\n\tselect A\n', "'select' is not valid on a choice", 3, 1),
    ('config A\n\tbool "a"\n\tselect "B"\n', "expected option name after 'select'", 3, 8),
    ('choice\n\tbool "c"\n\trange 1 2\n', "'range' is not valid on a choice", 3, 1),
    ('config N\n\tint "n"\n\trange A 5\n', "range bounds must be numeric literals", 3, 1),
    ('config A\n\tbool "a"\n\toption foo\n', "only 'option modules' is supported", 3, 8),
    ('choice\n\tbool "c"\n\toption modules\n', "'option modules' is not valid on a choice", 3, 1),
    (
        'config M\n\ttristate "m"\n\toption modules\n',
        "'option modules' needs a bool option; M is tristate",
        3,
        1,
    ),
    (
        'config M\n\toption modules\n\tint "m"\n\tdefault 1\nconfig T\n\ttristate "t"\n',
        "'option modules' needs a bool option; M is int",
        2,
        1,
    ),
    ('config A\n\tbool "a"\n\timply B\n', "unsupported construct 'imply'", 3, 1),
]


@pytest.mark.parametrize("text, message, line, column", _PARSE_ERRORS, ids=[case[1] for case in _PARSE_ERRORS])
def test_parse_error_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_model(text, "t")
    assert type(info.value) is ParseError
    assert (info.value.message, info.value.line, info.value.column) == (message, line, column)
    assert str(info.value) == f"t:{line}:{column}: {message}"


_DIAGNOSTICS = [
    (
        'config N\n\tint "n"\n\tdefault A\n',
        [("error", "numeric option default must be a numeric literal", "N")],
    ),
    (
        'config S\n\tstring "s"\n\tdefault T\n',
        [("error", "string option default must be a quoted literal", "S")],
    ),
    ('config A\n\tbool "a"\n\tselect B\n', [("warning", "select target B is never declared", "A")]),
    (
        'choice\n\tbool "c"\n\tdefault X\nconfig A\n\tbool "a"\nendchoice\n',
        [("error", "choice default must name one of its members", "choice#0")],
    ),
    (
        'choice\n\tbool "c"\nconfig A\n\tbool "a"\nconfig N\n\tint "n"\nendchoice\n',
        [("error", "choice member N is not bool/tristate", "choice#0")],
    ),
]


@pytest.mark.parametrize(
    "text, expected",
    _DIAGNOSTICS,
    ids=["numeric-default", "string-default", "undeclared-select", "choice-default", "choice-member"],
)
def test_validate_model_diagnostics(text, expected):
    assert validate_model(parse_model(text, "t")) == [Diagnostic(*d) for d in expected]


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

    @pytest.mark.parametrize(
        "expr", ["!" * 5000 + "A", " && ".join(["A"] * 3000)], ids=["negations", "conjunction"]
    )
    def test_deep_expression_round_trip(self, expr):
        model = parse_model(f'config A\n\tbool "a"\nconfig B\n\tbool "b"\n\tdepends on {expr}\n', "deep")
        printed = pretty_model(model)
        assert f"\tdepends on {expr}\n" in printed
        reparsed = parse_model(printed, "deep")
        # Model equality recurses once per nesting level, so the expressions
        # are compared by their pre-order nodes; each kind has a fixed arity.
        def nodes(m):
            return [(type(n), getattr(n, "name", None)) for n in expr_nodes(m.item("B").depends)]

        assert nodes(reparsed) == nodes(model)
        assert [it.name for it in reparsed.items] == ["A", "B"]


# --------------------------------------------------------------------------
# The recursive-descent expression parser that the iterative ``_parse_expr``
# replaced, kept as the reference of a differential test: on every line both
# must build the same model or raise the same ParseError (message, line and
# column).


def _ref_accept_op(ts, op):
    tok = ts.peek()
    if tok and tok[0] == "op" and tok[1] == op:
        ts.index += 1
        return True
    return False


def _ref_parse_value(ts):
    kind, text, _ = ts.next()
    if kind == "ident":
        return Sym(text)
    if kind == "num":
        return Literal(text)
    if kind == "str":
        return Literal(kconfig._unquote(text))
    raise ts.error(f"expected a symbol, number, or quoted string, got {text!r}")


def _ref_parse_expr(ts):
    e = _ref_parse_and(ts)
    while _ref_accept_op(ts, "||"):
        e = Or(e, _ref_parse_and(ts))
    return e


def _ref_parse_and(ts):
    e = _ref_parse_not(ts)
    while _ref_accept_op(ts, "&&"):
        e = And(e, _ref_parse_not(ts))
    return e


def _ref_parse_not(ts):
    if _ref_accept_op(ts, "!"):
        return Not(_ref_parse_not(ts))
    return _ref_parse_cmp(ts)


_REF_COMPARISONS = {"=": Eq, "!=": Neq, "<": Lt, "<=": Leq, ">": Gt, ">=": Geq}


def _ref_parse_cmp(ts):
    left = _ref_parse_atom(ts)
    tok = ts.peek()
    if tok and tok[0] == "op" and tok[1] in _REF_COMPARISONS:
        ts.next()
        right = _ref_parse_atom(ts)
        cls = _REF_COMPARISONS[tok[1]]
        if not isinstance(left, (Sym, Literal)) or not isinstance(right, (Sym, Literal)):
            raise ts.error("comparison operands must be symbols or literals")
        return cls(left, right)
    return left


def _ref_parse_atom(ts):
    if _ref_accept_op(ts, "("):
        e = _ref_parse_expr(ts)
        if not _ref_accept_op(ts, ")"):
            raise ts.error("expected ')'")
        return e
    return _ref_parse_value(ts)


_ATOMS = ["A", "B", "N", "y", "m", "n", "3", "0x1f", "-2", "07", '"s t"', "'q'", '"a\\"b"', "UNDECLARED"]
_COMPARISON_TOKENS = list(_REF_COMPARISONS)
_TOKENS = _ATOMS + _COMPARISON_TOKENS + ["(", ")", "!", "&&", "||", "if", "@"]
_LINES = ["\tdepends on {}", "\tselect B if {}", "\tdefault {}", "\tdefault y if {}", '\tprompt "p" if {}']


def _expr_tokens(rng, depth):
    """Tokens of a well-formed expression."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        if rng.random() < 0.3:
            return [rng.choice(_ATOMS), rng.choice(_COMPARISON_TOKENS), rng.choice(_ATOMS)]
        return [rng.choice(_ATOMS)]
    if r < 0.42:
        return ["!"] + _expr_tokens(rng, depth - 1)
    if r < 0.55:
        return ["("] + _expr_tokens(rng, depth - 1) + [")"]
    if r < 0.62:  # a comparison whose operands may be compound
        return _expr_tokens(rng, depth - 1) + [rng.choice(_COMPARISON_TOKENS)] + _expr_tokens(rng, depth - 1)
    op = rng.choice(["&&", "||"])
    return _expr_tokens(rng, depth - 1) + [op] + _expr_tokens(rng, depth - 1)


def _mutated(rng, tokens):
    tokens = list(tokens)
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        at = rng.randrange(len(tokens) + 1)
        action = rng.random()
        if action < 0.35 and tokens:
            del tokens[min(at, len(tokens) - 1)]
        elif action < 0.7:
            tokens.insert(at, rng.choice(_TOKENS))
        elif tokens:
            tokens[min(at, len(tokens) - 1)] = rng.choice(_TOKENS)
    return tokens


def _expression_lines(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.25:  # token soup
            tokens = [rng.choice(_TOKENS) for _ in range(rng.randrange(0, 9))]
        else:
            tokens = _mutated(rng, _expr_tokens(rng, rng.randrange(0, 5)))
        text = "".join(tok + rng.choice(["", " ", "  "]) for tok in tokens)
        yield rng.choice(_LINES).format(text)


def _parse_outcome(line):
    text = 'config N\n\tint "n"\nconfig A\n\ttristate "a"\n' + line + "\n"
    try:
        return repr(parse_model(text, "t"))
    except ParseError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestParserAgainstRecursiveDescent:
    def _both(self, monkeypatch, lines):
        new = [_parse_outcome(line) for line in lines]
        with monkeypatch.context() as patch:
            patch.setattr(kconfig, "_parse_expr", _ref_parse_expr)
            patch.setattr(kconfig, "_parse_value", _ref_parse_value)
            old = [_parse_outcome(line) for line in lines]
        return new, old

    def test_seeded_lines(self, monkeypatch):
        lines = list(_expression_lines(0, 6000))
        new, old = self._both(monkeypatch, lines)
        for line, got, want in zip(lines, new, old):
            assert got == want, line
        messages = {re.sub(r"^ParseError: t:\d+:\d+: ", "", o).split(",")[0] for o in new}
        for message in (
            "unexpected end of line",
            "expected a symbol",
            "expected ')'",
            "comparison operands must be symbols or literals",
            "trailing tokens",
            "unexpected character '@'",
        ):
            assert message in messages, message
        assert sum(o.startswith("KconfigModel(") for o in new) > len(lines) // 4

    @pytest.mark.parametrize(
        "condition, message, column",
        [
            ("(A && B) = C", "comparison operands must be symbols or literals", 1),
            ("A = (B || C) && A", "comparison operands must be symbols or literals", 25),
            ("A && ) B", "expected a symbol, number, or quoted string, got ')'", 19),
            ("A && )", "expected a symbol, number, or quoted string, got ')'", 1),
            ("A = !B", "expected a symbol, number, or quoted string, got '!'", 17),
            ("(A B", "expected ')'", 15),
            ("!(A ||", "unexpected end of line", 1),
        ],
    )
    def test_error_positions(self, monkeypatch, condition, message, column):
        # Columns count from the stripped line, "depends on " included; the
        # non-value error points at the token after the offending one.
        line = "\tdepends on " + condition
        new, old = self._both(monkeypatch, [line])
        assert new == old == [f"ParseError: t:5:{column}: {message}"]

    def test_nesting_past_the_recursion_limit(self):
        depth = 5000
        model = parse_model(
            'config A\n\tbool "a"\nconfig B\n\tbool "b"\n'
            f"\tdepends on {'(' * depth}A && {'(' * depth}B{')' * depth}{')' * depth}\n"
            f"\tdefault y if {'!' * depth}A\n",
            "t",
        )
        item = model.items[1]
        assert item.depends == And(Sym("A"), Sym("B"))
        kinds = [type(n) for n in expr_nodes(item.defaults[0].condition)]
        assert kinds == [Not] * depth + [Sym]


# --------------------------------------------------------------------------
# The value-dependency graph before validation walked each expression once,
# kept as the reference: symbol lists per expression, a set per expression,
# and each choice's conditions read once per member.


def _ref_symbols(e):
    if e is None or isinstance(e, Literal):
        return []
    if isinstance(e, Sym):
        return [e.name]
    if isinstance(e, Not):
        return _ref_symbols(e.operand)
    return _ref_symbols(e.left) + _ref_symbols(e.right)


def _ref_value_dependency_edges(model):
    edges = {it.name: set() for it in model.items}

    def declared(e):
        return {n for n in _ref_symbols(e) if model.has_option(n)}

    for it in model.items:
        reads = edges[it.name]
        reads |= declared(it.depends)
        for p in it.prompts:
            reads |= declared(p.condition)
        for d in it.defaults:
            reads |= declared(d.condition)
            reads |= declared(d.value)
        for r in it.ranges:
            reads |= declared(r.condition)
        for s in it.selects:
            if model.has_option(s.target):
                edges[s.target].add(it.name)
                edges[s.target] |= declared(s.condition)
        choice = model.choice_of(it)
        if choice is not None:
            reads |= declared(choice.depends)
            for p in choice.prompts:
                reads |= declared(p.condition)
            for d in choice.defaults:
                reads |= declared(d.condition)
        if model.modules_option not in (None, it.name) and (
            it.type is OptionType.TRISTATE
            or (choice is not None and choice.type is OptionType.TRISTATE)
        ):
            reads.add(model.modules_option)

    for it in model.items:
        choice = model.choice_of(it)
        if choice is not None:
            edges[it.name] -= {m for m in choice.members if m != it.name}
    return edges


def _ref_value_dependency_cycles(edges):
    """The recursive depth-first search that validation used before."""
    color, cycles = {}, []

    def visit(node, stack):
        color[node] = 1
        stack.append(node)
        for nxt in sorted(edges.get(node, ())):
            state = color.get(nxt, 0)
            if state == 1:
                cycles.append(stack[stack.index(nxt) :] + [nxt])
            elif state == 0:
                visit(nxt, stack)
        stack.pop()
        color[node] = 2

    for name in edges:
        if color.get(name, 0) == 0:
            visit(name, [])
    return cycles


CHOICE_WITH_CONDITIONS = """\
config MODULES
\tbool "modules"
\toption modules
config D
\tbool "d"
config P
\ttristate "p"
config Q
\tbool "q"
config S
\tbool "s"
\tselect C2 if Q && P
choice
\ttristate "pick" if P
\tprompt "again" if Q && D
\tdepends on D || S
\tdefault C2 if P
\tdefault C3 if !Q
config C1
\ttristate "c1"
\tdepends on C2 || P
config C2
\ttristate "c2"
\tdefault C1
config C3
\ttristate "c3"
\tdepends on Q
\tdefault y if C1 = y
endchoice
"""


def _planted_cycle_model(seed):
    """Bool options that depend on and select options on either side of them."""
    rng = random.Random(seed)
    count = rng.randrange(2, 12)
    lines = []
    for i in range(count):
        lines += [f"config O{i}", f'\tbool "o{i}"']
        for _ in range(rng.randrange(0, 3)):
            lines.append(f"\tdepends on O{rng.randrange(count)}")
        if rng.random() < 0.3:
            lines.append(f"\tselect O{rng.randrange(count)} if O{rng.randrange(count)}")
    return parse_model("\n".join(lines) + "\n", f"cycles-{seed}")


# A bool modules switch inside a tristate choice; the second model adds a
# bool member and a tristate that depends on a member.
SWITCH_IN_TRISTATE_CHOICE = (
    'choice\n\ttristate "c"\nconfig M\n\tbool "m"\n\toption modules\n'
    'config T\n\ttristate "t"\nendchoice\n'
)
SWITCH_IN_WIDER_CHOICE = (
    'choice\n\ttristate "c"\nconfig M\n\tbool "m"\n\toption modules\n'
    'config T\n\ttristate "t"\nconfig U\n\tbool "u"\nendchoice\n'
    'config X\n\ttristate "x"\n\tdepends on T\n'
)


class TestValueDependencies:
    def _models(self):
        yield from (model for _, model in corpus_models())
        for seed in range(300):
            yield parse_model(generate_model_text(seed), f"gen-{seed}")
        yield parse_model(CHOICE_WITH_CONDITIONS, "choice")
        yield parse_model(SWITCH_IN_TRISTATE_CHOICE, "switch")
        yield parse_model(SWITCH_IN_WIDER_CHOICE, "switch-wider")

    def test_edges_match_the_reference(self):
        for model in self._models():
            assert value_dependency_edges(model) == _ref_value_dependency_edges(model), model.source_name

    def test_edges_are_computed_once_per_model(self, monkeypatch):
        names = []
        compute = kconfig._value_dependency_edges

        def counted(model):
            names.append(model.source_name)
            return compute(model)

        monkeypatch.setattr(kconfig, "_value_dependency_edges", counted)
        model = parse_model(CHOICE_WITH_CONDITIONS, "choice")
        validate_model(model)
        check_model(model)
        assert names == ["choice"]

    def test_choice_conditions_reach_every_member(self):
        edges = value_dependency_edges(parse_model(CHOICE_WITH_CONDITIONS, "choice"))
        assert edges["C1"] == {"C2", "P", "Q", "D", "S", "MODULES"} - {"C2"}
        assert edges["C2"] == {"S", "P", "Q", "D", "MODULES"}
        assert edges["C3"] == {"P", "Q", "D", "S", "MODULES"}

    @pytest.mark.parametrize(
        "text, configs",
        [(SWITCH_IN_TRISTATE_CHOICE, 6), (SWITCH_IN_WIDER_CHOICE, 36)],
        ids=["switch", "switch-wider"],
    )
    def test_switch_in_a_tristate_choice_reads_no_switch(self, text, configs):
        """The switch does not read itself; the choice step still re-runs when
        it changes, as a choice step reads its members."""
        model = parse_model(text, "switch")
        assert "M" not in value_dependency_edges(model)["M"]
        assert [d for d in validate_model(model) if d.severity == "error"] == []
        report = check_model(model)
        assert (report.config_count, report.failures) == (configs, [])

    def test_planted_cycles_match_the_recursive_search(self):
        found = 0
        for seed in range(300):
            model = _planted_cycle_model(seed)
            cycles = value_dependency_cycles(model)
            assert cycles == _ref_value_dependency_cycles(value_dependency_edges(model)), seed
            found += bool(cycles)
            recursive = [d for d in validate_model(model) if "recursive value dependency" in d.message]
            assert [d.message.split(": ", 1)[1] for d in recursive] == [" -> ".join(c) for c in cycles]
        assert found > 100

    def test_long_forward_chain_validates(self):
        count = 5000
        text = "".join(
            f'config O{i}\n\tbool "o{i}"\n' + (f"\tdepends on O{i + 1}\n" if i + 1 < count else "")
            for i in range(count)
        )
        model = parse_model(text, "chain")
        assert validate_model(model) == []
        assert value_dependency_cycles(model) == []

    def test_long_cycle_is_reported_once(self):
        count = 3000
        text = "".join(f'config O{i}\n\tbool "o{i}"\n\tdepends on O{(i + 1) % count}\n' for i in range(count))
        (cycle,) = value_dependency_cycles(parse_model(text, "ring"))
        assert cycle == [f"O{i}" for i in range(count)] + ["O0"]
