"""Parser and declaration model for the supported kconfig-language subset.

The subset covers ``config`` entries, ``choice``/``endchoice`` blocks and the
attributes ``bool``/``boolean``/``tristate``/``int``/``hex``/``string``,
``prompt``, ``default``, ``depends on``, ``select``, ``range`` and
``option modules`` (on one bool option).  ``help`` blocks are consumed and
discarded.  Everything else (menus, if-blocks, source includes, optional
choices, imply) is rejected with a :class:`~kconfex.errors.ParseError`.
"""

from __future__ import annotations

import enum
import operator
import re
from typing import NamedTuple

from .errors import ChoiceMembership, DuplicateItem, DuplicateOption, InvalidModulesSwitch, ParseError
from .prop import Value, _gc_paused, _set

__all__ = [
    "OptionType",
    "Expr",
    "Sym",
    "Literal",
    "Not",
    "And",
    "Or",
    "Eq",
    "Neq",
    "Lt",
    "Leq",
    "Gt",
    "Geq",
    "Prompt",
    "Default",
    "Select",
    "Range",
    "ConfigItem",
    "ChoiceBlock",
    "KconfigModel",
    "Diagnostic",
    "parse_model",
    "validate_model",
    "parse_number",
    "number_text",
    "TRI_NAMES",
]

TRI_NAMES = ("n", "m", "y")


class OptionType(enum.Enum):
    BOOL = "bool"
    TRISTATE = "tristate"
    INT = "int"
    HEX = "hex"
    STRING = "string"


# --------------------------------------------------------------------------
# Expression AST: the node classes are final (``test_expr_classes_are_final``),
# so expression walkers dispatch on ``type(node) is Kind``.


class Expr(Value):
    """Base class for condition/value expressions."""

    __slots__ = ()


class Sym(Expr):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class Literal(Expr):
    __slots__ = _fields = ("text",)

    def __init__(self, text: str) -> None:
        _set(self, "text", text)


class Not(Expr):
    __slots__ = _fields = ("operand",)

    def __init__(self, operand: Expr) -> None:
        _set(self, "operand", operand)


class _Binary(Expr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class _Cmp(_Binary):
    __slots__ = ()


class Eq(_Cmp):
    __slots__ = ()


class Neq(_Cmp):
    __slots__ = ()


class Lt(_Cmp):
    __slots__ = ()


class Leq(_Cmp):
    __slots__ = ()


class Gt(_Cmp):
    __slots__ = ()


class Geq(_Cmp):
    __slots__ = ()


# Each ordered comparison's test on two numbers, for both sides of the check.
ORDERED_COMPARISONS = {Lt: operator.lt, Leq: operator.le, Gt: operator.gt, Geq: operator.ge}
COMPARISONS = frozenset((Eq, Neq, *ORDERED_COMPARISONS))


def expr_nodes(e: Expr) -> list[Expr]:
    """Every node of ``e`` in pre-order: each node before its operands, left
    operands before right ones."""
    kind = type(e)
    if kind is Sym or kind is Literal:
        return [e]
    nodes: list[Expr] = []
    stack = [e]
    while stack:
        node = stack.pop()
        nodes.append(node)
        kind = type(node)
        if kind is Sym or kind is Literal:
            continue
        if kind is Not:
            stack.append(node.operand)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return nodes


# --------------------------------------------------------------------------
# Declarations


class Prompt(NamedTuple):
    text: str
    condition: Expr | None = None


class Default(NamedTuple):
    value: Expr
    condition: Expr | None = None


class Select(NamedTuple):
    target: str
    condition: Expr | None = None


class Range(NamedTuple):
    low: str
    high: str
    condition: Expr | None = None


class ConfigItem(Value):
    """One declared option.  ``is_boolish`` (bool or tristate) and
    ``is_numeric`` (int or hex) are set from ``type``, outside ``_fields``."""

    _fields = (
        "name",
        "type",
        "prompts",
        "defaults",
        "depends",
        "selects",
        "ranges",
        "line",
    )
    __slots__ = _fields + ("is_boolish", "is_numeric")
    _uncompared = ("line",)

    def __init__(
        self,
        name: str,
        type: OptionType,
        prompts: tuple[Prompt, ...] = (),
        defaults: tuple[Default, ...] = (),
        depends: Expr | None = None,
        selects: tuple[Select, ...] = (),
        ranges: tuple[Range, ...] = (),
        line: int = 0,
    ) -> None:
        _set(self, "name", name)
        _set(self, "type", type)
        _set(self, "prompts", prompts)
        _set(self, "defaults", defaults)
        _set(self, "depends", depends)
        _set(self, "selects", selects)
        _set(self, "ranges", ranges)
        _set(self, "line", line)
        _set(self, "is_boolish", type in (OptionType.BOOL, OptionType.TRISTATE))
        _set(self, "is_numeric", type in (OptionType.INT, OptionType.HEX))


class ChoiceBlock(Value):
    """One choice.  It owns the names of its members; its place in
    ``KconfigModel.choices`` is its number, ``choice#<i>`` in diagnostics
    and constraint provenance."""

    __slots__ = _fields = ("type", "prompts", "depends", "defaults", "members", "line")
    _uncompared = ("line",)

    def __init__(
        self,
        type: OptionType,
        prompts: tuple[Prompt, ...] = (),
        depends: Expr | None = None,
        defaults: tuple[Default, ...] = (),
        members: tuple[str, ...] = (),
        line: int = 0,
    ) -> None:
        _set(self, "type", type)
        _set(self, "prompts", prompts)
        _set(self, "depends", depends)
        _set(self, "defaults", defaults)
        _set(self, "members", members)
        _set(self, "line", line)


def _modules_switch_error(name: str, option_type: OptionType | None) -> str | None:
    """Why option ``name``, of that type (None: undeclared), cannot be the
    modules switch; None when it can."""
    if option_type is None:
        return f"modules switch {name} is not a declared option"
    if option_type is not OptionType.BOOL:
        return f"'option modules' needs a bool option; {name} is {option_type.value}"
    return None


class KconfigModel(Value):
    _fields = ("items", "choices", "modules_option", "source_name")
    # ``value_edges``: the declared options each option's computed value reads
    # through dependencies, prompt and default conditions, default values,
    # range conditions, selects (the target reads selector and condition),
    # its choice's conditions, and the modules switch for tristates; not the
    # other members of its choice, which the selection discipline resolves.
    # ``choice_index``: each choice member's name -> the index in ``choices``
    # of the one choice listing it.  Both are computed once, when the model
    # is built; callers must not mutate them.
    __slots__ = _fields + ("_by_name", "_selectors", "choice_index", "value_edges")
    _uncompared = ("source_name",)

    def __init__(
        self,
        items: tuple[ConfigItem, ...],
        choices: tuple[ChoiceBlock, ...],
        modules_option: str | None,
        source_name: str = "<input>",
    ) -> None:
        _set(self, "items", items)
        _set(self, "choices", choices)
        _set(self, "modules_option", modules_option)
        _set(self, "source_name", source_name)
        by_name: dict[str, ConfigItem] = {}
        for it in items:
            if it.name in by_name:
                raise DuplicateItem(f"option {it.name} declared twice")
            by_name[it.name] = it
        _set(self, "_by_name", by_name)
        if modules_option is not None:
            switch = self._by_name.get(modules_option)
            message = _modules_switch_error(modules_option, None if switch is None else switch.type)
            if message:
                raise InvalidModulesSwitch(message)
        choice_index: dict[str, int] = {}
        for i, choice in enumerate(choices):
            if not choice.members:
                raise ChoiceMembership(f"choice {i} has no members")
            for name in choice.members:
                if name in choice_index:
                    j = choice_index[name]
                    message = f"choices {j} and {i} both list option {name}"
                    raise ChoiceMembership(f"choice {i} lists option {name} twice" if i == j else message)
                if name not in by_name:
                    raise ChoiceMembership(f"choice {i} lists undeclared option {name}")
                choice_index[name] = i
        _set(self, "choice_index", choice_index)
        selectors: dict[str, list[tuple[ConfigItem, Select]]] = {}
        for it in items:
            for sel in it.selects:
                selectors.setdefault(sel.target, []).append((it, sel))
        _set(self, "_selectors", selectors)
        _set(self, "value_edges", _value_dependency_edges(self))

    def item(self, name: str) -> ConfigItem:
        return self._by_name[name]

    def has_option(self, name: str) -> bool:
        return name in self._by_name

    def choice_of(self, item: ConfigItem) -> ChoiceBlock | None:
        i = self.choice_index.get(item.name)
        return None if i is None else self.choices[i]

    def effective_depends(self, item: ConfigItem) -> Expr | None:
        """Item dependencies with the enclosing choice's dependencies folded in."""
        choice = self.choice_of(item)
        if choice is None or choice.depends is None:
            return item.depends
        if item.depends is None:
            return choice.depends
        return And(item.depends, choice.depends)

    def selects_targeting(self, name: str) -> list[tuple[ConfigItem, Select]]:
        """(selector, select) pairs naming ``name`` as target, in declaration order."""
        return self._selectors.get(name, [])


# --------------------------------------------------------------------------
# Lexer for expressions and attribute arguments

_NUMBER = r"-?(?:0[xX][0-9a-fA-F]+|\d+)"
_NUMBER_RE = re.compile(_NUMBER)
_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<op><=|>=|!=|=|<|>|\(|\)|!|&&|\|\|)
      | (?P<num>{_NUMBER}(?![A-Za-z0-9_]))
      | (?P<ident>[A-Za-z0-9_]+)
      | (?P<str>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
    )""",
    re.VERBOSE,
)


class _TokenStream:
    __slots__ = ("line", "source", "tokens", "index")

    def __init__(self, text: str, line: int, source: str):
        self.line = line
        self.source = source
        self.tokens = tokens = []
        add = tokens.append
        match = _TOKEN_RE.match
        pos = 0
        while pos < len(text):
            m = match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                raise ParseError(f"unexpected character {rest[0]!r}", line, pos + 1, source)
            kind = m.lastgroup
            add((kind, m[kind], m.start(kind) + 1))
            pos = m.end()
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        index = self.index
        if index >= len(self.tokens):
            raise ParseError("unexpected end of line", self.line, 1, self.source)
        self.index = index + 1
        return self.tokens[index]

    def accept_ident(self, word: str) -> bool:
        # Only an identifier token has a keyword's text.
        if self.index < len(self.tokens) and self.tokens[self.index][1] == word:
            self.index += 1
            return True
        return False

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        col = tok[2] if tok else 1
        return ParseError(message, self.line, col, self.source)


_ESCAPE_RE = re.compile(r"\\(.)")


def _unquote(text: str) -> str:
    return _ESCAPE_RE.sub(r"\1", text[1:-1])


_VALUE_NODES = {"ident": Sym, "num": Literal, "str": lambda text: Literal(_unquote(text))}


def _parse_value(ts: _TokenStream) -> Expr:
    """The value at ``ts.index``; an error reports the column after it."""
    kind, text, _ = ts.next()
    node = _VALUE_NODES.get(kind)
    if node is None:
        raise ts.error(f"expected a symbol, number, or quoted string, got {text!r}")
    return node(text)


# Expression grammar, loosest binding first: "||", "&&", "!", comparisons
# (which bind tighter than "!"), then atoms: "(" expression ")" or a value.
# No operator token shares its text with a token of another kind (a string
# token keeps its quotes), so the parser compares token text alone.

_COMPARISON_OPS = {"=": Eq, "!=": Neq, "<": Lt, "<=": Leq, ">": Gt, ">=": Geq}


def _parse_expr(ts: _TokenStream) -> Expr:
    """Parse the expression at ``ts.index`` and leave the index past it.

    One loop, no recursion: each round reads an atom after its ``!`` and
    ``(`` prefixes, then reduces the frames it completes.  A frame is
    ``(token, left operand)``: ``!``, ``(``, ``&&``, ``||`` or a comparison.
    """
    tokens = ts.tokens
    end = len(tokens)
    i = ts.index
    stack = [("", None)]
    push, pop = stack.append, stack.pop
    while True:
        while i < end:
            text = tokens[i][1]
            if text == "(":
                push(("(", None))
            elif text == "!" and stack[-1][0] not in _COMPARISON_OPS:  # "!" is no atom
                push(("!", None))
            else:
                break
            i += 1
        if i == end:
            raise ParseError("unexpected end of line", ts.line, 1, ts.source)
        kind, text, _ = tokens[i]
        node = _VALUE_NODES.get(kind)
        if node is None:  # not a value: _parse_value raises its error
            ts.index = i
            _parse_value(ts)
        e = node(text)
        i += 1
        while True:  # e is a complete atom
            text = tokens[i][1] if i < end else None
            op, left = stack[-1]
            if op in _COMPARISON_OPS:
                pop()
                ts.index = i
                e = _comparison(ts, _COMPARISON_OPS[op], left, e)
                op, left = stack[-1]
            elif text in _COMPARISON_OPS:
                push((text, e))
                i += 1
                break
            while op == "!":
                pop()
                e = Not(e)
                op, left = stack[-1]
            if op == "&&":
                pop()
                e = And(left, e)
                op, left = stack[-1]
            if text == "&&":
                push(("&&", e))
                i += 1
                break
            if op == "||":
                pop()
                e = Or(left, e)
                op = stack[-1][0]
            if text == "||":
                push(("||", e))
                i += 1
                break
            ts.index = i
            if op != "(":
                return e
            if text != ")":
                raise ts.error("expected ')'")
            pop()
            i += 1


def _comparison(ts: _TokenStream, cls: type, left: Expr, right: Expr) -> Expr:
    """``cls(left, right)``, or the error raised at ``ts.index`` for operands that do not fit."""
    if type(left) not in (Sym, Literal) or type(right) not in (Sym, Literal):
        raise ts.error("comparison operands must be symbols or literals")
    return cls(left, right)


def parse_number(text: str, opt_type: OptionType | None = None) -> int | None:
    """Integer value of a numeric literal; None when it does not parse.

    With an option type the text is read in that type's base (16 for hex, 10
    otherwise; a hex literal may carry the ``0x`` prefix or not).  Without
    one the base follows the text: ``0x`` reads as hex, the rest as decimal.
    """
    try:
        if opt_type is None:
            return int(text, 0)
        return int(text, 16 if opt_type is OptionType.HEX else 10)
    except ValueError:
        return None


def read_number(text: str, opt_type: OptionType) -> int | None:
    """A text as an int or hex option reads it: in the option's base, else in
    the base its prefix names."""
    value = parse_number(text, opt_type)
    return parse_number(text) if value is None else value


def number_text(value: int, opt_type: OptionType) -> str:
    """Canonical text of a numeric value: ``0x…``/``-0x…`` in lowercase for
    hex options, plain decimal otherwise."""
    if opt_type is OptionType.HEX:
        return ("-0x%x" % -value) if value < 0 else ("0x%x" % value)
    return str(value)


# --------------------------------------------------------------------------
# Line-oriented parser

_TYPE_KEYWORDS = {
    "bool": OptionType.BOOL,
    "boolean": OptionType.BOOL,
    "tristate": OptionType.TRISTATE,
    "int": OptionType.INT,
    "hex": OptionType.HEX,
    "string": OptionType.STRING,
}


class _Builder:
    """What an option and a choice declare alike, collected line by line."""

    def __init__(self, line: int):
        self.line = line
        self.type: OptionType | None = None
        self.prompts: list[Prompt] = []
        self.defaults: list[Default] = []
        self.depends: Expr | None = None

    def add_depends(self, e: Expr) -> None:
        self.depends = e if self.depends is None else And(self.depends, e)


class _ItemBuilder(_Builder):
    def __init__(self, name: str, line: int):
        super().__init__(line)
        self.name = name
        self.selects: list[Select] = []
        self.ranges: list[Range] = []
        self.modules_line: int | None = None  # the line of its 'option modules'

    def build(self, source: str) -> ConfigItem:
        if self.type is None:
            raise ParseError(f"option {self.name} has no type", self.line, 1, source)
        message = self.modules_line and _modules_switch_error(self.name, self.type)
        if message:
            raise ParseError(message, self.modules_line, 1, source)
        return ConfigItem(
            name=self.name,
            type=self.type,
            prompts=tuple(self.prompts),
            defaults=tuple(self.defaults),
            depends=self.depends,
            selects=tuple(self.selects),
            ranges=tuple(self.ranges),
            line=self.line,
        )


class _ChoiceBuilder(_Builder):
    def __init__(self, line: int):
        super().__init__(line)
        self.members: list[str] = []

    def build(self, source: str) -> ChoiceBlock:
        if not self.members:
            raise ParseError("choice has no members", self.line, 1, source)
        return ChoiceBlock(
            type=self.type or OptionType.BOOL,
            prompts=tuple(self.prompts),
            depends=self.depends,
            defaults=tuple(self.defaults),
            members=tuple(self.members),
            line=self.line,
        )


def _indent_width(line: str) -> int:
    expanded = line.expandtabs()
    return len(expanded) - len(expanded.lstrip())


class _Parser:
    def __init__(self, source_text: str, source_name: str):
        self.lines = source_text.split("\n")  # kconfig breaks lines at \n alone
        self.source = source_name
        self.pos = 0
        self.items: list[ConfigItem] = []
        self.choices: list[ChoiceBlock] = []
        self.names: set[str] = set()
        self.modules_option: str | None = None

    def parse(self) -> KconfigModel:
        current: _ItemBuilder | None = None
        choice: _ChoiceBuilder | None = None

        while self.pos < len(self.lines):
            lineno = self.pos + 1
            raw = self.lines[self.pos]
            self.pos += 1
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue

            ts = _TokenStream(stripped, lineno, self.source)
            kind, word, col = ts.next()
            if kind != "ident":
                raise ParseError(f"unexpected token {word!r}", lineno, col, self.source)

            if word == "config":
                self._finish_item(current, choice)
                name_kind, name, ncol = ts.next()
                if name_kind != "ident":
                    raise ParseError("expected option name after 'config'", lineno, ncol, self.source)
                if not ts.at_end():
                    raise ts.error("trailing tokens after option name")
                if name in self.names:
                    raise DuplicateOption(f"option {name} declared twice", lineno, ncol, self.source)
                if name in TRI_NAMES:
                    raise ParseError(f"option name {name!r} is a reserved constant", lineno, ncol, self.source)
                self.names.add(name)
                current = _ItemBuilder(name, lineno)
                if choice is not None:
                    choice.members.append(name)
                continue

            if word == "choice":
                if choice is not None:
                    raise ParseError("nested choice blocks are not supported", lineno, col, self.source)
                self._finish_item(current, choice)
                current = None
                if not ts.at_end():
                    raise ts.error("trailing tokens after 'choice'")
                choice = _ChoiceBuilder(lineno)
                continue

            if word == "endchoice":
                if choice is None:
                    raise ParseError("'endchoice' outside a choice block", lineno, col, self.source)
                self._finish_item(current, choice)
                current = None
                self.choices.append(choice.build(self.source))
                choice = None
                continue

            # Attribute lines attach to the innermost open declaration.
            target: _ItemBuilder | _ChoiceBuilder | None = current
            if target is None:
                target = choice
            if target is None:
                raise ParseError(f"{word!r} outside any declaration", lineno, col, self.source)
            self._parse_attr(word, ts, target, lineno, raw)

        if choice is not None:
            raise ParseError("choice block not closed before end of file", choice.line, 1, self.source)
        self._finish_item(current, choice)

        return KconfigModel(
            items=tuple(self.items),
            choices=tuple(self.choices),
            modules_option=self.modules_option,
            source_name=self.source,
        )

    def _finish_item(self, builder: _ItemBuilder | None, choice: _ChoiceBuilder | None) -> None:
        if builder is None:
            return
        item = builder.build(self.source)
        self.items.append(item)
        if builder.modules_line is not None:
            if self.modules_option is not None:
                raise ParseError(
                    f"second 'option modules' switch {item.name} (already on {self.modules_option})",
                    builder.line,
                    1,
                    self.source,
                )
            self.modules_option = item.name
        if choice is not None and builder.type is not None and choice.type is None:
            # A choice without its own type line takes the type of its members.
            if builder.type in (OptionType.BOOL, OptionType.TRISTATE):
                choice.type = builder.type

    def _parse_attr(
        self,
        word: str,
        ts: _TokenStream,
        target: _ItemBuilder | _ChoiceBuilder,
        lineno: int,
        raw: str,
    ) -> None:
        if word in _TYPE_KEYWORDS:
            decl_type = _TYPE_KEYWORDS[word]
            if isinstance(target, _ChoiceBuilder) and decl_type not in (
                OptionType.BOOL,
                OptionType.TRISTATE,
            ):
                raise ParseError(f"choice cannot have type {word}", lineno, 1, self.source)
            if target.type is not None and target.type is not decl_type:
                raise ParseError(
                    f"conflicting type {word} (already {target.type.value})", lineno, 1, self.source
                )
            target.type = decl_type
            tok = ts.peek()
            if tok and tok[0] == "str":
                ts.next()
                cond = self._optional_if(ts)
                target.prompts.append(Prompt(_unquote(tok[1]), cond))
            self._expect_end(ts)
            return

        if word == "prompt":
            kind, text, pcol = ts.next()
            if kind != "str":
                raise ParseError("expected quoted prompt text", lineno, pcol, self.source)
            cond = self._optional_if(ts)
            self._expect_end(ts)
            target.prompts.append(Prompt(_unquote(text), cond))
            return

        if word == "default":
            value = _parse_value(ts)
            cond = self._optional_if(ts)
            self._expect_end(ts)
            target.defaults.append(Default(value, cond))
            return

        if word == "depends":
            if not ts.accept_ident("on"):
                raise ts.error("expected 'on' after 'depends'")
            e = _parse_expr(ts)
            self._expect_end(ts)
            target.add_depends(e)
            return

        if word in ("select", "range") and isinstance(target, _ChoiceBuilder):
            raise ParseError(f"{word!r} is not valid on a choice", lineno, 1, self.source)

        if word == "select":
            kind, name, scol = ts.next()
            if kind != "ident":
                raise ParseError("expected option name after 'select'", lineno, scol, self.source)
            cond = self._optional_if(ts)
            self._expect_end(ts)
            target.selects.append(Select(name, cond))
            return

        if word == "range":
            low = _parse_value(ts)
            high = _parse_value(ts)
            for bound in (low, high):
                if not isinstance(bound, Literal) or parse_number(bound.text) is None:
                    raise ParseError(
                        "range bounds must be numeric literals", lineno, 1, self.source
                    )
            cond = self._optional_if(ts)
            self._expect_end(ts)
            target.ranges.append(Range(low.text, high.text, cond))
            return

        if word == "option":
            if not ts.accept_ident("modules"):
                raise ts.error("only 'option modules' is supported")
            self._expect_end(ts)
            if isinstance(target, _ChoiceBuilder):
                raise ParseError("'option modules' is not valid on a choice", lineno, 1, self.source)
            target.modules_line = lineno
            return

        if word == "help":
            self._expect_end(ts)
            self._skip_help_block(raw)
            return

        raise ParseError(f"unsupported construct {word!r}", lineno, 1, self.source)

    def _optional_if(self, ts: _TokenStream) -> Expr | None:
        if ts.accept_ident("if"):
            return _parse_expr(ts)
        return None

    def _expect_end(self, ts: _TokenStream) -> None:
        if not ts.at_end():
            raise ts.error("trailing tokens")

    def _skip_help_block(self, help_line: str) -> None:
        # The help body is every following line indented deeper than the
        # 'help' keyword itself; blank lines do not end the block.
        keyword_indent = _indent_width(help_line)
        body_indent: int | None = None
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            if not line.strip():
                self.pos += 1
                continue
            indent = _indent_width(line)
            if body_indent is None:
                if indent <= keyword_indent:
                    return
                body_indent = indent
            if indent < body_indent:
                return
            self.pos += 1


@_gc_paused
def parse_model(source_text: str, source_name: str = "<input>") -> KconfigModel:
    """Parse kconfig subset text into a :class:`KconfigModel`.

    Raises :class:`ParseError` for constructs outside the subset and
    :class:`DuplicateOption` for repeated option names.
    """
    return _Parser(source_text, source_name).parse()


# --------------------------------------------------------------------------
# Validation


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    message: str
    option: str | None = None

    def __str__(self) -> str:
        where = f" [{self.option}]" if self.option else ""
        return f"{self.severity}{where}: {self.message}"


def ordered_comparison_error(node: Expr, model: KconfigModel) -> str | None:
    """Why the ordered comparison ``node`` cannot be encoded, or None.  It
    must compare a number with a number, or an int or hex option with a
    number.  Validation reports this message and the encoder raises it.
    """
    sides = [node.left, node.right]
    for s in sides:
        if type(s) is not Sym and type(s) is not Literal:
            return f"comparison operand {s!r} is not a symbol or literal"
    options = [model._by_name.get(s.name) if type(s) is Sym else None for s in sides]
    texts = [s.name if type(s) is Sym else s.text for s in sides]
    if options[0] is None and options[1] is None:
        if parse_number(texts[0]) is None or parse_number(texts[1]) is None:
            return f"ordered comparison over non-numeric constants {texts[0]!r}, {texts[1]!r}"
        return None
    if options[0] is None:  # the option first
        options.reverse()
        texts.reverse()
    option, other = options
    if not option.is_numeric:
        return f"ordered comparison over non-numeric option {option.name}"
    if other is not None or parse_number(texts[1]) is None:
        return f"ordered comparison of {option.name} against non-numeric {texts[1]!r}"
    return None


def validate_model(model: KconfigModel) -> list[Diagnostic]:
    """Check type rules and report undeclared symbols.

    Returns diagnostics; errors indicate the model is outside the supported
    semantics, warnings flag symbols that will be treated as constants.
    """
    out: list[Diagnostic] = []
    warned: set[str] = set()

    by_name = model._by_name

    def check_number(text: str, option: ConfigItem, owner: str) -> None:
        # conf reads int and hex values as signed 64-bit numbers.  A number
        # that int() refuses for its length is outside that range too.
        value = read_number(text, option.type)
        if value is None and not _NUMBER_RE.fullmatch(text):
            return
        if value is None or not -(2**63) <= value < 2**63:
            shown = text if len(text) <= 24 else f"{text[:16]}... ({len(text)} characters)"
            message = f"number {shown} read by {option.name} is outside the signed 64-bit range"
            out.append(Diagnostic("error", message, owner))

    def check_expr(e: Expr | None, owner: str) -> None:
        if e is None:
            return
        compared = []
        for node in expr_nodes(e):
            kind = type(node)
            if kind is Sym:
                name = node.name
                if name in by_name or name in warned or name in TRI_NAMES or parse_number(name) is not None:
                    continue
                warned.add(name)
                message = f"symbol {name} is never declared and is treated as a constant"
                out.append(Diagnostic("warning", message, owner))
            elif kind in COMPARISONS:
                compared.append(node)
        for node in compared:  # after the expression's warnings
            message = type(node) in ORDERED_COMPARISONS and ordered_comparison_error(node, model)
            if message:
                out.append(Diagnostic("error", message, owner))
            # An int or hex option reads the literal or undeclared symbol it is
            # compared with as a number.
            for side, other in ((node.left, node.right), (node.right, node.left)):
                option = by_name.get(side.name) if type(side) is Sym else None
                if option is None or not option.is_numeric:
                    continue
                if type(other) is Literal:
                    check_number(other.text, option, owner)
                elif type(other) is Sym and other.name not in by_name:
                    check_number(other.name, option, owner)

    # The translation names a bool/tristate option's m variable O_MODULE, a
    # valued option's value variables N_EQ_<value> and Tseitin auxiliaries
    # __aux<k>; an option name of that shape would share their variable.
    derived_names = {it.name + "_MODULE" for it in model.items}
    valued_names = {it.name for it in model.items if not it.is_boolish}

    def is_value_variable_name(name: str) -> bool:
        at = name.find("_EQ_")
        while at != -1:
            if name[:at] in valued_names:
                return True
            at = name.find("_EQ_", at + 1)
        return False

    for it in model.items:
        derived = it.name in derived_names or it.name.startswith("__aux")
        if derived or ("_EQ_" in it.name and is_value_variable_name(it.name)):
            out.append(
                Diagnostic("error", f"option name {it.name} collides with a derived variable", it.name)
            )
        if it.is_boolish and it.ranges:
            out.append(Diagnostic("error", "range on a bool/tristate option", it.name))
        if not it.is_boolish and it.selects:
            out.append(Diagnostic("error", "select on a non-boolean option", it.name))
        if it.is_numeric:
            for d in it.defaults:
                if not isinstance(d.value, Literal) or parse_number(d.value.text, it.type) is None:
                    out.append(
                        Diagnostic("error", "numeric option default must be a numeric literal", it.name)
                    )
                else:
                    check_number(d.value.text, it, it.name)
            for r in it.ranges:
                check_number(r.low, it, it.name)
                check_number(r.high, it, it.name)
                low, high = parse_number(r.low, it.type), parse_number(r.high, it.type)
                if low is None or high is None:
                    out.append(
                        Diagnostic("error", f"range bounds must be {it.type.value} literals", it.name)
                    )
                elif low > high:
                    message = f"range {r.low} {r.high} has its low bound above its high bound"
                    out.append(Diagnostic("error", message, it.name))
        if it.type is OptionType.STRING:
            for d in it.defaults:
                if not isinstance(d.value, Literal):
                    out.append(
                        Diagnostic("error", "string option default must be a quoted literal", it.name)
                    )
        check_expr(it.depends, it.name)
        for p in it.prompts:
            check_expr(p.condition, it.name)
        for d in it.defaults:
            check_expr(d.condition, it.name)
            if it.is_boolish:
                check_expr(d.value, it.name)
        for s in it.selects:
            check_expr(s.condition, it.name)
            if model.has_option(s.target):
                if not model.item(s.target).is_boolish:
                    out.append(
                        Diagnostic("error", f"select target {s.target} is not bool/tristate", it.name)
                    )
                if s.target in model.choice_index:
                    out.append(
                        Diagnostic(
                            "warning",
                            f"select target {s.target} is a choice member; the select is ignored "
                            "while the member is visible",
                            it.name,
                        )
                    )
            else:
                out.append(
                    Diagnostic("warning", f"select target {s.target} is never declared", it.name)
                )
        for r in it.ranges:
            check_expr(r.condition, it.name)

    for i, ch in enumerate(model.choices):
        owner = f"choice#{i}"
        check_expr(ch.depends, owner)
        for p in ch.prompts:
            check_expr(p.condition, owner)
        for d in ch.defaults:
            check_expr(d.condition, owner)
            if not isinstance(d.value, Sym) or d.value.name not in ch.members:
                out.append(Diagnostic("error", "choice default must name one of its members", owner))
        for member in ch.members:
            if not model.item(member).is_boolish:
                out.append(Diagnostic("error", f"choice member {member} is not bool/tristate", owner))

    for cycle in value_dependency_cycles(model):
        out.append(
            Diagnostic(
                "error",
                "recursive value dependency: " + " -> ".join(cycle),
                cycle[0],
            )
        )

    return out


def _value_dependency_edges(model: KconfigModel) -> dict[str, frozenset[str]]:
    edges: dict[str, set[str]] = {it.name: set() for it in model.items}

    def read(reads: set[str], e: Expr | None) -> None:
        if e is not None:
            for node in expr_nodes(e):
                if type(node) is Sym and node.name in edges:
                    reads.add(node.name)

    for ch in model.choices:
        reads = set()
        for e in (ch.depends, *[p.condition for p in ch.prompts], *[d.condition for d in ch.defaults]):
            read(reads, e)
        for member in ch.members:
            edges[member] |= reads

    for it in model.items:
        reads = edges[it.name]
        read(reads, it.depends)
        for p in it.prompts:
            read(reads, p.condition)
        for d in it.defaults:
            read(reads, d.condition)
            read(reads, d.value)
        for r in it.ranges:
            read(reads, r.condition)
        for s in it.selects:
            if s.target in edges:
                edges[s.target].add(it.name)
                read(edges[s.target], s.condition)
        choice = model.choice_of(it)
        if model.modules_option not in (None, it.name) and (
            it.type is OptionType.TRISTATE
            or (choice is not None and choice.type is OptionType.TRISTATE)
        ):
            reads.add(model.modules_option)

    for choice in model.choices:
        for member in choice.members:
            edges[member] -= {m for m in choice.members if m != member}
    return {name: frozenset(reads) for name, reads in edges.items()}


def value_dependency_cycles(model: KconfigModel) -> list[list[str]]:
    """Cycles in the value-dependency graph, one representative per cycle,
    found by a depth-first search (successors sorted) on explicit stacks."""
    edges = model.value_edges
    color: dict[str, int] = {}  # 1: on the search path, 2: finished
    cycles: list[list[str]] = []
    for root in edges:
        if root in color:
            continue
        color[root] = 1
        path, successors = [root], [iter(sorted(edges[root]))]
        while successors:
            for nxt in successors[-1]:
                state = color.get(nxt)
                if state == 1:
                    cycles.append(path[path.index(nxt) :] + [nxt])
                elif state is None:
                    color[nxt] = 1
                    path.append(nxt)
                    successors.append(iter(sorted(edges[nxt])))
                    break
            else:
                successors.pop()
                color[path.pop()] = 2
    return cycles
