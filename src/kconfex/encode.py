"""Translation of a declaration model into propositional constraints.

Every bool/tristate option O is represented by two mutually exclusive
variables named ``O`` (value y) and ``O_MODULE`` (value m); both false means
value n.  Expressions over options are encoded as pairs of formulas via the
tristate translation table.  Numeric and string options are represented by
one boolean variable per known value (``NAME_EQ_<value>``).

The emitted constraint set holds exactly for the variable images of valid
configurations: configurations the reference configurator would leave
untouched.  Two rules are deliberately stricter than the configurator, which
lets a select force an option past its declared dependencies or visibility;
the differential harness classifies those disagreements separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyChoice, SelectOnNonBoolean, UnsupportedComparison
from .kconfig import (
    And,
    ChoiceBlock,
    ConfigItem,
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
    OptionType,
    Or,
    Prompt,
    Sym,
    TRI_NAMES,
    expr_nodes,
    number_text,
    parse_number,
)
from .prop import (
    Constraint,
    ConstraintSet,
    FALSE,
    PropFormula,
    TRUE,
    and_,
    iff,
    implies,
    not_,
    or_,
    var,
)

__all__ = [
    "TriEncoding",
    "NumericDomain",
    "yvar",
    "mvar",
    "value_var",
    "collect_numeric_values",
    "encode_expr",
    "encode_numeric_constraint",
    "encode_option",
    "encode_reverse_dependencies",
    "encode_choice",
    "translate",
]


def yvar(name: str) -> PropFormula:
    return var(name)


def mvar(name: str) -> PropFormula:
    return var(name + "_MODULE")


def value_var(name: str, value: str) -> PropFormula:
    return var(f"{name}_EQ_{value}")


@dataclass(frozen=True)
class TriEncoding:
    """Pair of formulas: the expression evaluates to y / to m."""

    f_y: PropFormula
    f_m: PropFormula

    @property
    def nonzero(self) -> PropFormula:
        return or_(self.f_y, self.f_m)


ENC_Y = TriEncoding(TRUE, FALSE)
ENC_M = TriEncoding(FALSE, TRUE)
ENC_N = TriEncoding(FALSE, FALSE)


def enc_not(a: TriEncoding) -> TriEncoding:
    return TriEncoding(not_(or_(a.f_y, a.f_m)), a.f_m)


def enc_and(a: TriEncoding, b: TriEncoding) -> TriEncoding:
    return TriEncoding(
        and_(a.f_y, b.f_y),
        and_(or_(a.f_y, a.f_m), or_(b.f_y, b.f_m), not_(and_(a.f_y, b.f_y))),
    )


def enc_or(a: TriEncoding, b: TriEncoding) -> TriEncoding:
    return TriEncoding(
        or_(a.f_y, b.f_y),
        and_(or_(a.f_m, b.f_m), not_(a.f_y), not_(b.f_y)),
    )


def enc_const(label: str) -> TriEncoding:
    if label == "y":
        return ENC_Y
    if label == "m":
        return ENC_M
    if label in ("n", ""):
        return ENC_N
    return ENC_Y  # any other nonempty text acts as y in a boolean position


# --------------------------------------------------------------------------
# Known-value domains for numeric and string options


@dataclass
class NumericDomain:
    """Per-option known values: the texts, canonicalized and ordered."""

    values: dict[str, list[str]] = field(default_factory=dict)

    def domain(self, name: str) -> list[str]:
        return self.values.get(name, [])


def _all_exprs(model: KconfigModel):
    for it in model.items:
        if it.depends is not None:
            yield it.depends
        for p in it.prompts:
            if p.condition is not None:
                yield p.condition
        for d in it.defaults:
            if d.condition is not None:
                yield d.condition
        for s in it.selects:
            if s.condition is not None:
                yield s.condition
        for r in it.ranges:
            if r.condition is not None:
                yield r.condition
    for ch in model.choices:
        if ch.depends is not None:
            yield ch.depends
        for p in ch.prompts:
            if p.condition is not None:
                yield p.condition
        for d in ch.defaults:
            if d.condition is not None:
                yield d.condition


def collect_numeric_values(model: KconfigModel) -> NumericDomain:
    """Harvest the known values of every non-boolean option.

    int/hex options: default literals, range endpoints, and comparison
    literals (against a literal or an undeclared symbol), deduplicated by
    numeric value and sorted ascending.  A text that does not parse in the
    option's base is read with the base its prefix names.  String options:
    default literals in source order.
    """
    dom = NumericDomain()
    numbers: dict[str, set[int]] = {}

    def harvest(name: str, text: str) -> None:
        value = parse_number(text, model.item(name).type)
        if value is None:
            value = parse_number(text)
        if value is not None:
            numbers[name].add(value)

    for it in model.items:
        if it.is_numeric:
            numbers[it.name] = set()
            dom.values[it.name] = []
            for d in it.defaults:
                if isinstance(d.value, Literal):
                    harvest(it.name, d.value.text)
            for r in it.ranges:
                harvest(it.name, r.low)
                harvest(it.name, r.high)
        elif it.type is OptionType.STRING:
            seen: dict[str, None] = {}
            for d in it.defaults:
                if isinstance(d.value, Literal):
                    seen.setdefault(d.value.text)
            dom.values[it.name] = list(seen)
    if numbers:
        for e in _all_exprs(model):
            for node in expr_nodes(e):
                if not isinstance(node, (Eq, Neq, Lt, Leq, Gt, Geq)):
                    continue
                sides = (node.left, node.right)
                for name in {s.name for s in sides if isinstance(s, Sym) and s.name in numbers}:
                    for s in sides:
                        if isinstance(s, Literal):
                            harvest(name, s.text)
                        elif isinstance(s, Sym) and s.name != name and not model.has_option(s.name):
                            harvest(name, s.name)
        for name, found in numbers.items():
            dom.values[name] = [number_text(v, model.item(name).type) for v in sorted(found)]
    return dom


# --------------------------------------------------------------------------
# Expression encoding


def _operand_kind(e: Expr, model: KconfigModel) -> tuple[str, str]:
    """Classify a comparison operand: ("tri"|"valued"|"const", name-or-text)."""
    if isinstance(e, Literal):
        return "const", e.text
    if isinstance(e, Sym):
        if model.has_option(e.name):
            item = model.item(e.name)
            return ("tri", e.name) if item.is_boolish else ("valued", e.name)
        return "const", e.name
    raise UnsupportedComparison(f"comparison operand {e!r} is not a symbol or literal")


def _nonzero(item: ConfigItem) -> PropFormula:
    """The option is y or m; a bool option's m variable is never read."""
    if item.type is OptionType.BOOL:
        return yvar(item.name)
    return or_(yvar(item.name), mvar(item.name))


def _tri_equals_label(name: str, label: str, model: KconfigModel) -> PropFormula:
    if label == "y":
        return yvar(name)
    if label == "m":
        if model.item(name).type is OptionType.BOOL:
            return FALSE
        return mvar(name)
    if label == "n":
        return not_(_nonzero(model.item(name)))
    return FALSE


def _texts_equal(a: str, b: str) -> bool:
    number = parse_number(a)
    return a == b or (number is not None and number == parse_number(b))


def _encode_equality(e: Expr, model: KconfigModel, dom: NumericDomain) -> PropFormula:
    (lk, lv), (rk, rv) = _operand_kind(e.left, model), _operand_kind(e.right, model)
    if lk == "const" and rk != "const":
        (lk, lv), (rk, rv) = (rk, rv), (lk, lv)

    if lk == "const":  # both constant
        return TRUE if _texts_equal(lv, rv) else FALSE

    if lk == "tri":
        if rk == "const":
            return _tri_equals_label(lv, rv, model)
        if rk == "tri":
            terms = [_tri_equals_label(lv, label, model) for label in TRI_NAMES]
            other = [_tri_equals_label(rv, label, model) for label in TRI_NAMES]
            return or_(*(and_(a, b) for a, b in zip(terms, other)))
        # tri vs valued: equal only when the valued side holds a y/m/n text
        parts = []
        for v in dom.domain(rv):
            if v in TRI_NAMES:
                parts.append(and_(_tri_equals_label(lv, v, model), value_var(rv, v)))
        return or_(*parts)

    # lk == "valued"
    if rk == "const":
        parts = [value_var(lv, v) for v in dom.domain(lv) if _texts_equal(v, rv)]
        return or_(*parts)
    if rk == "tri":
        parts = []
        for v in dom.domain(lv):
            if v in TRI_NAMES:
                parts.append(and_(value_var(lv, v), _tri_equals_label(rv, v, model)))
        return or_(*parts)
    parts = []
    for a in dom.domain(lv):
        for b in dom.domain(rv):
            if _texts_equal(a, b):
                parts.append(and_(value_var(lv, a), value_var(rv, b)))
    if not dom.domain(lv) and not dom.domain(rv):
        return TRUE  # both permanently unset: "" equals ""
    return or_(*parts)


def encode_numeric_constraint(
    op: type, option: str, literal: int, dom: NumericDomain
) -> PropFormula:
    """Disjunction of the option's value variables satisfying ``<op> literal``.

    Raises :class:`UnsupportedComparison` when the option has no harvested
    values at all.
    """
    domain = dom.domain(option)
    if not domain:
        raise UnsupportedComparison(
            f"comparison over {option} with an empty harvested domain"
        )
    checks = {
        Eq: lambda v: v == literal,
        Neq: lambda v: v != literal,
        Lt: lambda v: v < literal,
        Leq: lambda v: v <= literal,
        Gt: lambda v: v > literal,
        Geq: lambda v: v >= literal,
    }
    check = checks[op]
    parts = [value_var(option, text) for text in domain if check(parse_number(text))]
    return or_(*parts)


_FLIP = {Lt: Gt, Leq: Geq, Gt: Lt, Geq: Leq}


def _encode_ordered(e: Expr, model: KconfigModel, dom: NumericDomain) -> PropFormula:
    op = type(e)
    (lk, lv), (rk, rv) = _operand_kind(e.left, model), _operand_kind(e.right, model)
    if lk == "const" and rk != "const":
        (lk, lv), (rk, rv) = (rk, rv), (lk, lv)
        op = _FLIP[op]
    if lk == "const":
        left, right = parse_number(lv), parse_number(rv)
        if left is None or right is None:
            raise UnsupportedComparison(
                f"ordered comparison over non-numeric constants {lv!r}, {rv!r}"
            )
        result = {Lt: left < right, Leq: left <= right, Gt: left > right, Geq: left >= right}[op]
        return TRUE if result else FALSE
    if lk != "valued" or not model.item(lv).is_numeric:
        raise UnsupportedComparison(f"ordered comparison over non-numeric option {lv}")
    literal = parse_number(rv)
    if literal is None:
        raise UnsupportedComparison(f"ordered comparison of {lv} against non-numeric {rv!r}")
    return encode_numeric_constraint(op, lv, literal, dom)


def encode_expr(e: Expr, model: KconfigModel, dom: NumericDomain) -> TriEncoding:
    """Encode an expression as its (y, m) formula pair.

    Comparisons are two-valued, so their m-formula is always false.
    """
    if isinstance(e, Sym):
        if model.has_option(e.name):
            item = model.item(e.name)
            if item.type is OptionType.BOOL:
                return TriEncoding(yvar(e.name), FALSE)
            if item.type is OptionType.TRISTATE:
                return TriEncoding(yvar(e.name), mvar(e.name))
            # Non-boolean option in a boolean position: y when it holds any
            # nonempty value.
            parts = [value_var(e.name, v) for v in dom.domain(e.name) if v != ""]
            return TriEncoding(or_(*parts), FALSE)
        if e.name in TRI_NAMES:
            return enc_const(e.name)
        return ENC_N  # undeclared symbols are n in a boolean position
    if isinstance(e, Literal):
        return enc_const(e.text)
    if isinstance(e, Not):
        return enc_not(encode_expr(e.operand, model, dom))
    if isinstance(e, And):
        return enc_and(encode_expr(e.left, model, dom), encode_expr(e.right, model, dom))
    if isinstance(e, Or):
        return enc_or(encode_expr(e.left, model, dom), encode_expr(e.right, model, dom))
    if isinstance(e, Eq):
        return TriEncoding(_encode_equality(e, model, dom), FALSE)
    if isinstance(e, Neq):
        return TriEncoding(not_(_encode_equality(e, model, dom)), FALSE)
    if isinstance(e, (Lt, Leq, Gt, Geq)):
        return TriEncoding(_encode_ordered(e, model, dom), FALSE)
    raise UnsupportedComparison(f"cannot encode node {e!r}")


def _encode_opt(e: Expr | None, model: KconfigModel, dom: NumericDomain) -> TriEncoding:
    return ENC_Y if e is None else encode_expr(e, model, dom)


# --------------------------------------------------------------------------
# Shared per-item context


def _prompt_visibility(
    prompts: tuple[Prompt, ...], dep: TriEncoding, model: KconfigModel, dom: NumericDomain
) -> TriEncoding:
    """The strongest prompt condition and-ed with the dependencies; n without
    a prompt."""
    vis = ENC_N
    for prompt in prompts:
        vis = enc_or(vis, enc_and(_encode_opt(prompt.condition, model, dom), dep))
    return vis


def _bool_effective(bool_typed: bool, model: KconfigModel) -> PropFormula:
    """Where a value cannot be m: everywhere for bool options and bool
    choices, else while the modules switch is off (nowhere without one)."""
    if bool_typed:
        return TRUE
    if model.modules_option is not None:
        return not_(yvar(model.modules_option))
    return FALSE


class _ItemContext:
    """Derived formulas for one option under one model."""

    def __init__(self, item: ConfigItem, model: KconfigModel, dom: NumericDomain):
        self.item = item
        self.model = model
        self.dom = dom
        self.dep = _encode_opt(model.effective_depends(item), model, dom)
        self.vis = _prompt_visibility(item.prompts, self.dep, model, dom)
        self.visible = self.vis.nonzero
        self.invisible = not_(self.visible)
        choice = model.choice_of(item)
        self.bool_effective = _bool_effective(
            item.type is OptionType.BOOL or (choice is not None and choice.type is OptionType.BOOL),
            model,
        )

    def select_floor(self) -> tuple[PropFormula, PropFormula]:
        """(floor is y, floor is at least m) over all selects targeting the item."""
        floor_y = []
        floor_m = []
        for selector, sel in self.model.selects_targeting(self.item.name):
            cond = _encode_opt(sel.condition, self.model, self.dom)
            floor_y.append(and_(yvar(selector.name), cond.f_y))
            floor_m.append(and_(_nonzero(selector), cond.nonzero))
        return or_(*floor_y), or_(*floor_m)

    def first_match(
        self, entries, prior: list[PropFormula]
    ) -> tuple[list[tuple[TriEncoding, PropFormula]], PropFormula]:
        """kconfig's first-applicable-entry rule over defaults or ranges.

        An entry applies where its condition and the dependencies are nonzero.
        Returns, per entry, that condition and-ed with the dependencies and the
        guard under which the entry wins: every ``prior`` formula holds, the
        entry applies and no earlier entry does.  The last formula holds where
        every ``prior`` formula holds and no entry applies.
        """
        chain = []
        prior = list(prior)
        for entry in entries:
            applies = enc_and(_encode_opt(entry.condition, self.model, self.dom), self.dep)
            chain.append((applies, and_(*prior, applies.nonzero)))
            prior.append(not_(applies.nonzero))
        return chain, and_(*prior)


def _forced_value(
    ctx: _ItemContext, value: TriEncoding, rev_y: PropFormula, rev_ge_m: PropFormula
) -> PropFormula:
    """Equality constraint: the option equals max(value, select floor),
    with m rounded up to y when the option is effectively boolean."""
    oy, om = yvar(ctx.item.name), mvar(ctx.item.name)
    high = or_(value.f_y, rev_y)
    at_least_m = or_(value.f_y, value.f_m, rev_ge_m)
    forced_y = or_(high, and_(ctx.bool_effective, at_least_m))
    forced_m = and_(not_(ctx.bool_effective), not_(high), at_least_m)
    return and_(iff(oy, forced_y), iff(om, forced_m))


# --------------------------------------------------------------------------
# Per-option constraints


def encode_option(
    item: ConfigItem, model: KconfigModel, dom: NumericDomain
) -> list[Constraint]:
    """Constraints for one option: variable shape, modules gating, dependency
    bounds, visibility cap, and the forced value of invisible options."""
    if item.is_boolish:
        return _encode_boolish_option(item, model, dom)
    return _encode_valued_option(item, model, dom)


def _add(out: list[Constraint], formula: PropFormula, provenance: str) -> None:
    if formula is not TRUE:
        out.append(Constraint(formula, provenance))


def _encode_boolish_option(
    item: ConfigItem, model: KconfigModel, dom: NumericDomain
) -> list[Constraint]:
    out: list[Constraint] = []
    ctx = _ItemContext(item, model, dom)
    oy, om = yvar(item.name), mvar(item.name)

    if item.type is OptionType.BOOL:
        _add(out, not_(om), f"{item.name}:bool-no-module")
    else:
        _add(out, not_(and_(oy, om)), f"{item.name}:tristate-excl")
        if model.modules_option is not None and model.modules_option != item.name:
            _add(out, implies(om, yvar(model.modules_option)), f"{item.name}:modules-gate")
        elif model.modules_option == item.name:
            _add(out, implies(om, oy), f"{item.name}:modules-gate")

    # Declared dependencies bound the value from above.  A select may push
    # past this bound in the reference configurator; the harness classifies
    # such disagreements as the documented select inaccuracy.
    if model.effective_depends(item) is not None:
        d = ctx.dep
        upper_y = or_(d.f_y, and_(ctx.bool_effective, d.f_m))
        _add(out, implies(oy, upper_y), f"{item.name}:depends")
        if item.type is OptionType.TRISTATE:
            _add(out, implies(om, or_(d.f_y, d.f_m)), f"{item.name}:depends-m")

    # A prompt that only reaches m caps a true tristate at m.
    if item.prompts and item.type is OptionType.TRISTATE:
        _add(
            out,
            implies(and_(oy, ctx.vis.f_m), ctx.bool_effective),
            f"{item.name}:visibility-cap",
        )

    out.extend(_invisible_value_chain(ctx))
    return out


def _invisible_value_chain(ctx: _ItemContext) -> list[Constraint]:
    """While invisible, the option holds exactly the first applicable default
    (value and-ed with its condition and the dependencies), raised to the
    select floor, else n raised to the floor."""
    item, model, dom = ctx.item, ctx.model, ctx.dom
    out: list[Constraint] = []
    rev_y, rev_ge_m = ctx.select_floor()

    chain, none_applies = ctx.first_match(item.defaults, [ctx.invisible])
    for i, (default, (applies, guard)) in enumerate(zip(item.defaults, chain)):
        value = enc_and(encode_expr(default.value, model, dom), applies)
        _add(
            out,
            implies(guard, _forced_value(ctx, value, rev_y, rev_ge_m)),
            f"{item.name}:default[{i}]",
        )
    _add(
        out,
        implies(none_applies, _forced_value(ctx, ENC_N, rev_y, rev_ge_m)),
        f"{item.name}:default-else",
    )
    return out


def _encode_valued_option(
    item: ConfigItem, model: KconfigModel, dom: NumericDomain
) -> list[Constraint]:
    out: list[Constraint] = []
    domain = dom.domain(item.name)
    if not domain:
        return out  # never constrained, never enumerated
    ctx = _ItemContext(item, model, dom)
    value_vars = {v: value_var(item.name, v) for v in domain}

    if item.is_numeric:
        chain, none_active = ctx.first_match(item.ranges, [])
        ranges = [
            (parse_number(r.low, item.type), parse_number(r.high, item.type), active)
            for r, (_, active) in zip(item.ranges, chain)
        ]
        for j, (low, high, active) in enumerate(ranges):
            for v in domain:
                if not low <= parse_number(v) <= high:
                    _add(
                        out,
                        not_(and_(ctx.visible, active, value_vars[v])),
                        f"{item.name}:range[{j}]({v})",
                    )

    # Invisible options hold the first applicable default, clamped into the
    # active range for numerics; with no applicable default they are unset,
    # which no enumerated value matches.
    chain, unset = ctx.first_match(item.defaults, [ctx.invisible])
    for i, (default, (_, guard)) in enumerate(zip(item.defaults, chain)):
        assert isinstance(default.value, Literal)
        if item.is_numeric:
            raw = parse_number(default.value.text, item.type)
            for j, (low, high, active) in enumerate(ranges):
                text = number_text(min(max(raw, low), high), item.type)
                _add(
                    out,
                    implies(and_(guard, active), value_vars[text]),
                    f"{item.name}:default[{i}]/range[{j}]",
                )
            _add(
                out,
                implies(and_(guard, none_active), value_vars[number_text(raw, item.type)]),
                f"{item.name}:default[{i}]",
            )
        else:
            _add(
                out,
                implies(guard, value_vars[default.value.text]),
                f"{item.name}:default[{i}]",
            )
    _add(
        out,
        implies(unset, not_(or_(*value_vars.values()))),
        f"{item.name}:unset-guard",
    )
    return out


# --------------------------------------------------------------------------
# Reverse dependencies


def encode_reverse_dependencies(
    model: KconfigModel, dom: NumericDomain
) -> list[Constraint]:
    """A select makes its target at least as enabled as the selector under
    the select condition.  Targets that are currently visible members of a
    choice ignore selects (the choice machinery owns their value), so those
    implications are guarded by the member's invisibility."""
    out: list[Constraint] = []
    for item in model.items:
        for k, sel in enumerate(item.selects):
            if not model.has_option(sel.target):
                continue  # validation warns; nothing to constrain
            target = model.item(sel.target)
            if not target.is_boolish:
                raise SelectOnNonBoolean(
                    f"{item.name} selects {sel.target}, which is {target.type.value}"
                )
            cond = _encode_opt(sel.condition, model, dom)
            guard = TRUE
            if target.declared_in_choice is not None:
                guard = _ItemContext(target, model, dom).invisible
            _add(
                out,
                implies(and_(guard, yvar(item.name), cond.f_y), yvar(target.name)),
                f"{item.name}:select({sel.target})[{k}]/y",
            )
            _add(
                out,
                implies(and_(guard, _nonzero(item), cond.nonzero), _nonzero(target)),
                f"{item.name}:select({sel.target})[{k}]/m",
            )
    return out


# --------------------------------------------------------------------------
# Choices


def encode_choice(
    choice: ChoiceBlock, model: KconfigModel, dom: NumericDomain
) -> list[Constraint]:
    """Selection discipline among the visible members of a choice.

    While the choice is active and effectively boolean, exactly one visible
    member is y; a tristate choice reached only at m, or with no member at y,
    instead allows any set of visible members at m.  Invisible members are
    governed by their own per-option constraints.
    """
    if not choice.members:
        raise EmptyChoice(f"choice#{choice.id} has no members")
    out: list[Constraint] = []
    tag = f"choice#{choice.id}"

    ch_vis = _prompt_visibility(choice.prompts, _encode_opt(choice.depends, model, dom), model, dom)
    active = ch_vis.nonzero
    bool_effective = _bool_effective(choice.type is OptionType.BOOL, model)

    members = [model.item(name) for name in choice.members]
    member_visible = {
        it.name: _ItemContext(it, model, dom).visible for it in members
    }
    visible_y = {
        it.name: and_(member_visible[it.name], yvar(it.name)) for it in members
    }
    some_y = or_(*visible_y.values())
    any_visible = or_(*member_visible.values())
    mode_y = or_(and_(bool_effective, active), and_(ch_vis.f_y, some_y))

    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            _add(
                out,
                not_(and_(visible_y[a.name], visible_y[b.name])),
                f"{tag}:at-most-one({a.name},{b.name})",
            )
    _add(
        out,
        implies(and_(active, bool_effective, any_visible), some_y),
        f"{tag}:at-least-one",
    )
    for it in members:
        if it.type is OptionType.TRISTATE:
            _add(
                out,
                implies(and_(mode_y, member_visible[it.name]), not_(mvar(it.name))),
                f"{tag}:no-module-value({it.name})",
            )
    for it in members:
        _add(
            out,
            implies(and_(not_(active), member_visible[it.name]), not_(_nonzero(it))),
            f"{tag}:inactive({it.name})",
        )
    if choice.type is OptionType.TRISTATE:
        _add(
            out,
            implies(and_(not_(bool_effective), ch_vis.f_m), not_(some_y)),
            f"{tag}:mode-m-cap",
        )
    return out


# --------------------------------------------------------------------------
# Whole-model translation


def variable_order(model: KconfigModel, dom: NumericDomain) -> list[str]:
    """Declaration-ordered variable universe of the translated model."""
    order: list[str] = []
    for it in model.items:
        if it.is_boolish:
            order.append(it.name)
            order.append(it.name + "_MODULE")
        else:
            for v in dom.domain(it.name):
                order.append(f"{it.name}_EQ_{v}")
    return order


def translate(model: KconfigModel) -> ConstraintSet:
    """Full constraint set: per-option, per-choice, reverse-dependency, and
    value-variable constraints, in declaration order; deterministic."""
    dom = collect_numeric_values(model)
    cs = ConstraintSet(variable_order=variable_order(model, dom))
    for item in model.items:
        cs.constraints.extend(encode_option(item, model, dom))
    for choice in model.choices:
        cs.constraints.extend(encode_choice(choice, model, dom))
    cs.constraints.extend(encode_reverse_dependencies(model, dom))
    for item in model.items:
        domain = dom.domain(item.name)
        if item.is_boolish or not domain:
            continue
        value_vars = [value_var(item.name, v) for v in domain]
        cs.constraints.append(
            Constraint(or_(*value_vars), f"{item.name}:one-hot")
        )
        for i, a in enumerate(value_vars):
            for j in range(i + 1, len(value_vars)):
                cs.constraints.append(
                    Constraint(
                        not_(and_(a, value_vars[j])),
                        f"{item.name}:value-excl({domain[i]},{domain[j]})",
                    )
                )
    return cs
