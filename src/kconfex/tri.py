"""Three-valued expression semantics shared by the reference configurator.

Values form the chain n < m < y.  Conjunction is min, disjunction is max,
negation is rank complement.  Comparisons are two-valued: they yield y or n,
never m.

Expressions are evaluated over many configurations (rows) at once.
:class:`RowValues` holds each option's value on every row as bit masks, bit
k standing for row k.  A bool or tristate option is two masks, the rows where
it is at least m and the rows where it is y, so min, max and complement
become ``&``, ``|`` and a swap.  An int, hex or string option is a partition
``{value: rows}``, and a comparison is decided once per distinct pair of
operand texts.

Every mask lies inside ``ones``, the mask of all rows, so a complement is
``ones ^ x``, or ``a ^ b`` where ``b`` lies inside ``a``, never a bitwise not:
that is the negative integer ``-(x + 1)``, which ``&`` first converts to two's
complement, several times slower on masks of thousands of rows.
"""

from __future__ import annotations

import enum

from .errors import EvalError
from .kconfig import (
    COMPARISONS,
    ORDERED_COMPARISONS,
    TRI_NAMES,
    And,
    Eq,
    Expr,
    KconfigModel,
    Literal,
    Neq,
    Not,
    Or,
    Prompt,
    Sym,
    parse_number,
)

__all__ = [
    "Tri",
    "Configuration",
    "ConfigValue",
    "Columns",
    "TriRows",
    "RowValues",
    "row_config",
]


class Tri(enum.IntEnum):
    N = 0
    M = 1
    Y = 2

    @property
    def label(self) -> str:
        return ("n", "m", "y")[self.value]

    @staticmethod
    def from_label(label: str) -> "Tri":
        return {"n": Tri.N, "m": Tri.M, "y": Tri.Y}[label]


# A configuration maps each declared option to a Tri (bool/tristate) or to
# literal text (int/hex/string).  None marks an unset non-boolean option.
ConfigValue = Tri | str | None
Configuration = dict[str, ConfigValue]

# Per option, the rows holding each of its values; an option a row does not
# hold is missing from that row's configuration.
Columns = dict[str, dict[ConfigValue, int]]

# A Tri value on every row: (rows at m or y, rows at y).
TriRows = tuple[int, int]


def _as_int(text: str) -> int:
    if text == "":
        return 0  # unset options read as zero, the strtoll convention
    value = parse_number(text)
    if value is None:
        raise EvalError(f"non-numeric value {text!r} in numeric comparison")
    return value


def _boolish_value(text: str) -> Tri:
    # Bare non-boolean symbols and literals in a boolean position: the three
    # canonical names keep their meaning, any other nonempty text acts as y.
    if text in ("n", ""):
        return Tri.N
    if text == "m":
        return Tri.M
    return Tri.Y


def _compare(kind: type, left: str, right: str) -> bool:
    """One comparison of two operand texts.  Equality also holds between
    equal numbers; ordered comparisons read both sides as numbers and raise
    :class:`EvalError` on the first that is not one."""
    if kind is Eq or kind is Neq:
        number = parse_number(left)
        equal = left == right or (number is not None and number == parse_number(right))
        return equal == (kind is Eq)
    return ORDERED_COMPARISONS[kind](_as_int(left), _as_int(right))


def _split(column) -> TriRows:
    """The rows at m or y and the rows at y of ``(Tri value, rows)`` pairs."""
    ge = y = 0
    for value, rows in column:
        if value is not Tri.N:
            ge |= rows
        if value is Tri.Y:
            y |= rows
    return ge, y


class RowValues:
    """The values of a model's options on a set of rows.

    ``ge``/``y`` hold the bool and tristate options (rows at m or y, rows at
    y), ``values`` the int, hex and string options (``{text: rows}``, None
    for unset) and ``present`` the rows whose configuration holds the option
    at all; a row without it reads n, or unset.  Evaluation records each
    :class:`EvalError` in ``errors`` with the rows it applies to, in the order
    met, and goes on with n on those rows.

    ``ones`` is ``2**n - 1`` for n rows; a column mask with a bit outside it
    raises :class:`ValueError`, as the complements rely on every mask lying
    inside ``ones``, and so does a row in two masks of one column.  With the
    rows of a column disjoint, a bool or tristate option's ``ge`` is its
    held rows outside n, and its ``y`` is its y column.  A value
    that is not a Tri in a bool or tristate column, or neither text nor None
    in the others, raises :class:`TypeError`.
    :meth:`columns` gives the values back in the shape they were given.
    """

    __slots__ = ("model", "ones", "ge", "y", "values", "present", "errors")

    def __init__(self, model: KconfigModel, columns: Columns, ones: int):
        self.model = model
        self.ones = ones
        self.ge: dict[str, int] = {}
        self.y: dict[str, int] = {}
        self.values: dict[str, dict[ConfigValue, int]] = {}
        self.present: dict[str, int] = {}
        self.errors: list[tuple[int, EvalError]] = []
        if ones < 0 or ones & (ones + 1):
            raise ValueError("the row set is not 2**n - 1, one bit per row")
        width = ones.bit_length()
        for item in model.items:
            column = columns.get(item.name, {})
            present = 0
            for value, rows in column.items():
                if rows < 0 or rows.bit_length() > width:
                    raise ValueError(f"{item.name} holds {value!r} outside the {width} rows")
                if rows & present:
                    raise ValueError(f"{item.name} holds {value!r} on a row holding another of its values")
                present |= rows
            self.present[item.name] = present
            if item.is_boolish:
                for value in column:
                    if not isinstance(value, Tri):
                        raise TypeError(f"{item.name} holds {value!r}, not a Tri value")
                self.ge[item.name] = present ^ column.get(Tri.N, 0)
                self.y[item.name] = column.get(Tri.Y, 0)
            else:
                for value in column:
                    if value is not None and not isinstance(value, str):
                        raise TypeError(f"{item.name} holds {value!r}, not text or None")
                part = dict(column)
                part[None] = part.get(None, 0) | (ones ^ present)
                self.values[item.name] = {value: rows for value, rows in part.items() if rows}

    def columns(self) -> Columns:
        """The values in the shape they were given: per option, in
        declaration order, the rows of each value it holds on some row.  A
        row whose configuration does not hold the option is in none of them,
        and an option no row holds has no column."""
        columns: Columns = {}
        for item in self.model.items:
            name = item.name
            present = self.present[name]
            if not present:
                continue
            if name in self.ge:
                ge, y = self.ge[name], self.y[name]
                column = {Tri.N: present ^ ge, Tri.M: ge ^ y, Tri.Y: y}
            else:
                column = {value: rows & present for value, rows in self.values[name].items()}
            columns[name] = {value: rows for value, rows in column.items() if rows}
        return columns

    # ---- evaluation

    def tri(self, e: Expr | None, live: int) -> TriRows:
        """The value of ``e`` (y when absent) on every row.  Errors are
        recorded for the ``live`` rows only, the rows the caller reads the
        value of."""
        if e is None:
            return self.ones, self.ones
        kind = type(e)
        if kind is Sym:
            name = e.name
            if name in self.ge:
                return self.ge[name], self.y[name]
            if name in self.values:
                column = self.values[name].items()
                return _split((_boolish_value(value or ""), rows) for value, rows in column)
            return self._const(Tri.from_label(name) if name in TRI_NAMES else Tri.N)
        if kind is Literal:
            return self._const(_boolish_value(e.text))
        if kind is Not:
            ge, y = self.tri(e.operand, live)
            return self.ones ^ y, self.ones ^ ge
        if kind is And or kind is Or:
            lge, ly = self.tri(e.left, live)
            rge, ry = self.tri(e.right, live)
            if kind is And:
                return lge & rge, ly & ry
            return lge | rge, ly | ry
        if kind in COMPARISONS:
            rows = self._holds(e, live)
            return rows, rows
        self.errors.append((live, EvalError(f"cannot evaluate node {e!r}")))
        return 0, 0

    def visibility(self, prompts: tuple[Prompt, ...], depends: TriRows, live: int) -> TriRows:
        """The strongest prompt condition and-ed with the already evaluated
        dependency value; n when there is no prompt."""
        ge = y = 0
        for prompt in prompts:
            if prompt.condition is None:  # y: the dependency value itself
                ge, y = ge | depends[0], y | depends[1]
                continue
            cge, cy = self.tri(prompt.condition, live)
            ge |= cge & depends[0]
            y |= cy & depends[1]
        return ge, y

    def _const(self, value: Tri) -> TriRows:
        return (self.ones if value is not Tri.N else 0), (self.ones if value is Tri.Y else 0)

    def _texts(self, e: Expr) -> dict[str, int]:
        """A comparison operand's text on every row, as ``{text: rows}``.

        Undeclared symbols act as string literals equal to their own name;
        unset options, and bool/tristate options a row does not hold, read
        as ""."""
        if type(e) is Literal:
            return {e.text: self.ones}
        if type(e) is not Sym:
            raise EvalError(f"comparison operand {e!r} is not a symbol or literal")
        name = e.name
        if name in self.ge:
            ge, y, present = self.ge[name], self.y[name], self.present[name]
            return {"y": y, "m": ge ^ y, "n": present ^ ge, "": self.ones ^ present}
        if name in self.values:
            texts: dict[str, int] = {}
            for value, rows in self.values[name].items():
                text = value or ""
                texts[text] = texts.get(text, 0) | rows
            return texts
        return {name: self.ones}

    def _holds(self, e, live: int) -> int:
        """The live rows on which comparison ``e`` holds."""
        try:
            lefts, rights = self._texts(e.left), self._texts(e.right)
        except EvalError as exc:
            self.errors.append((live, exc))
            return 0
        kind = type(e)
        holds = 0
        for left, lrows in lefts.items():
            lrows &= live
            if not lrows:
                continue
            for right, rrows in rights.items():
                rows = lrows & rrows
                if not rows:
                    continue
                try:
                    if _compare(kind, left, right):
                        holds |= rows
                except EvalError as exc:
                    self.errors.append((rows, exc))
        return holds


def row_config(columns: Columns, k: int) -> Configuration:
    """Row k of ``columns`` as a configuration: each option, in the columns'
    order, with the value whose rows include row k."""
    bit = 1 << k
    return {
        name: value for name, column in columns.items() for value, rows in column.items() if rows & bit
    }
