"""Three-valued expression semantics shared by the reference configurator.

Values form the chain n < m < y.  Conjunction is min, disjunction is max,
negation is rank complement.  Comparisons are two-valued: they yield y or n,
never m.
"""

from __future__ import annotations

import enum

from .errors import EvalError
from .kconfig import (
    And,
    ChoiceBlock,
    Eq,
    Expr,
    Geq,
    Gt,
    KconfigModel,
    Leq,
    Literal,
    Lt,
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
    "tri_and",
    "tri_or",
    "tri_not",
    "eval_expr",
    "choice_visibility",
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


def tri_and(a: Tri, b: Tri) -> Tri:
    return a if a < b else b


def tri_or(a: Tri, b: Tri) -> Tri:
    return a if a > b else b


def tri_not(a: Tri) -> Tri:
    return Tri(2 - a.value)


def _as_int(text: str) -> int:
    if text == "":
        return 0  # unset options read as zero, the strtoll convention
    value = parse_number(text)
    if value is None:
        raise EvalError(f"non-numeric value {text!r} in numeric comparison")
    return value


def _operand_text(e: Expr, cfg: Configuration, model: KconfigModel) -> str:
    """Comparison operand rendered as text.

    Tri values compare through their canonical names; undeclared symbols act
    as string literals equal to their own name; unset options compare as "".
    """
    if isinstance(e, Literal):
        return e.text
    if isinstance(e, Sym):
        if model.has_option(e.name):
            value = cfg.get(e.name)
            if isinstance(value, Tri):
                return value.label
            return value if value is not None else ""
        return e.name
    raise EvalError(f"comparison operand {e!r} is not a symbol or literal")


def _boolish_value(text: str) -> Tri:
    # Bare non-boolean symbols and literals in a boolean position: the three
    # canonical names keep their meaning, any other nonempty text acts as y.
    if text in ("n", ""):
        return Tri.N
    if text == "m":
        return Tri.M
    return Tri.Y


def eval_expr(e: Expr, cfg: Configuration, model: KconfigModel) -> Tri:
    """Evaluate ``e`` to a Tri value under a concrete configuration.

    Raises :class:`EvalError` when an ordered comparison meets a value that
    does not parse as a number.
    """
    if isinstance(e, Sym):
        if model.has_option(e.name):
            value = cfg.get(e.name)
            if isinstance(value, Tri):
                return value
            return _boolish_value(value if value is not None else "")
        if e.name in ("n", "m", "y"):
            return Tri.from_label(e.name)
        return Tri.N
    if isinstance(e, Literal):
        return _boolish_value(e.text)
    if isinstance(e, Not):
        return tri_not(eval_expr(e.operand, cfg, model))
    if isinstance(e, And):
        return tri_and(eval_expr(e.left, cfg, model), eval_expr(e.right, cfg, model))
    if isinstance(e, Or):
        return tri_or(eval_expr(e.left, cfg, model), eval_expr(e.right, cfg, model))
    if isinstance(e, (Eq, Neq)):
        left = _operand_text(e.left, cfg, model)
        right = _operand_text(e.right, cfg, model)
        number = parse_number(left)
        equal = left == right or (number is not None and number == parse_number(right))
        if isinstance(e, Neq):
            equal = not equal
        return Tri.Y if equal else Tri.N
    if isinstance(e, (Lt, Leq, Gt, Geq)):
        left = _as_int(_operand_text(e.left, cfg, model))
        right = _as_int(_operand_text(e.right, cfg, model))
        result = {
            Lt: left < right,
            Leq: left <= right,
            Gt: left > right,
            Geq: left >= right,
        }[type(e)]
        return Tri.Y if result else Tri.N
    raise EvalError(f"cannot evaluate node {e!r}")


def _eval_opt(e: Expr | None, cfg: Configuration, model: KconfigModel) -> Tri:
    return Tri.Y if e is None else eval_expr(e, cfg, model)


def prompt_visibility(
    prompts: tuple[Prompt, ...], depends: Tri, cfg: Configuration, model: KconfigModel
) -> Tri:
    """The strongest prompt condition and-ed with the already evaluated
    dependency value; n when there is no prompt."""
    best = Tri.N
    for prompt in prompts:
        best = tri_or(best, tri_and(_eval_opt(prompt.condition, cfg, model), depends))
    return best


def choice_visibility(choice: ChoiceBlock, cfg: Configuration, model: KconfigModel) -> Tri:
    """Visibility of a choice block itself; n when the block has no prompt."""
    if not choice.prompts:
        return Tri.N
    return prompt_visibility(choice.prompts, _eval_opt(choice.depends, cfg, model), cfg, model)


def modules_enabled(cfg: Configuration, model: KconfigModel) -> bool:
    """Tristate options may take the value m only when this holds.

    Without a declared modules switch every model behaves as if modules were
    enabled; with one, only the switch standing at y enables them.
    """
    if model.modules_option is None:
        return True
    return cfg.get(model.modules_option) is Tri.Y
