"""Exception types shared across the package, and the reader of numbered
input lines that raises one of them."""

from typing import Iterable, Iterator


class KconfexError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KconfexError):
    def __init__(self, message: str, line: int, column: int = 1, source: str = "<input>"):
        super().__init__(f"{source}:{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.source = source


class DuplicateOption(ParseError):
    pass


class EvalError(KconfexError):
    pass


class MissingVariable(KconfexError):
    def __init__(self, name: str):
        super().__init__(f"assignment does not cover variable {name!r}")
        self.name = name


class FormatError(KconfexError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


def numbered_lines(
    source: str | bytes | Iterable[str | bytes], at_lf: bool = False
) -> Iterator[tuple[int, str]]:
    """The lines of a text, of bytes, or of a text or binary stream, numbered
    from 1.  A line ends where ``str.splitlines`` splits, or, with ``at_lf``,
    at ``\\n`` alone, as kconfig reads a ``.config`` file; there a ``\\r``
    ending a line is dropped, so CRLF files read too.  Bytes are decoded
    as UTF-8, one chunk at a time; bytes that are not UTF-8 raise
    :class:`FormatError` naming their line."""
    if isinstance(source, (str, bytes)):
        source = (source,)
    split = _split_at_lf if at_lf else str.splitlines
    lineno = 0
    for raw in source:
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                # The lines before the bad byte, counted as the text splits them.
                before = raw[: exc.start].decode("utf-8") + "x"
                raise FormatError("not UTF-8 text", lineno + len(split(before))) from None
        for line in split(raw):
            lineno += 1
            yield lineno, line


def _split_at_lf(text: str) -> list[str]:
    return [line.removesuffix("\r") for line in text.removesuffix("\n").split("\n")]


class UnwritableValue(KconfexError):
    """A string value that a ``.config`` file cannot hold: it has a ``\\n``,
    where the reader would split it."""

    def __init__(self, name: str, value: str):
        super().__init__(f"CONFIG_{name}: string value {value!r} holds a line break")
        self.name = name


class InvalidModulesSwitch(KconfexError):
    """A model's modules switch is not one of its bool options."""


class DuplicateItem(KconfexError):
    """A model holds two options of one name.  The parser reports the same
    rule, with its line, as :class:`DuplicateOption`."""


class ChoiceMembership(KconfexError):
    """A model's choices and its options' ``declared_in_choice`` disagree on
    which options a choice holds.  The parser builds them in agreement."""


class UnsupportedComparison(KconfexError):
    pass


class SelectOnNonBoolean(KconfexError):
    pass


class EmptyChoice(KconfexError):
    pass


class NonConvergence(KconfexError):
    def __init__(self, model_name: str, passes: int):
        super().__init__(f"{model_name}: value computation did not stabilize after {passes} passes")
        self.passes = passes


class ProcessError(KconfexError):
    pass


class TooManyRows(KconfexError):
    """A model has more configurations than the enumeration may build."""
