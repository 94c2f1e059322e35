"""Translation of a declaration model into propositional constraints.

Every bool/tristate option O is represented by two mutually exclusive
variables named ``O`` (value y) and ``O_MODULE`` (value m); both false means
value n.  Expressions over options are encoded as pairs of formulas via the
tristate translation table.  Numeric and string options are represented by
one boolean variable per known value (``NAME_EQ_<value>``); in a boolean
position their text reads as a constant's does (n, m, ``""`` is n, any other
text y).  A comparison reads each operand as a list of (text, number,
formula) readings, the texts it can take and where it takes them, and holds
under the OR of the reading pairs that satisfy it.

The emitted constraint set holds exactly for the variable images of valid
configurations: configurations the reference configurator would leave
untouched.  Two rules are deliberately stricter than the configurator, which
lets a select force an option past its declared dependencies or visibility;
the differential harness classifies those disagreements separately.
"""

from __future__ import annotations

from itertools import chain

from .errors import SelectOnNonBoolean, UnsupportedComparison
from .kconfig import (
    And,
    COMPARISONS,
    ChoiceBlock,
    ConfigItem,
    Expr,
    KconfigModel,
    Literal,
    Neq,
    Not,
    OptionType,
    Or,
    ORDERED_COMPARISONS,
    Prompt,
    Select,
    Sym,
    TRI_NAMES,
    expr_nodes,
    number_text,
    ordered_comparison_error,
    parse_number,
    read_number,
)
from .prop import (
    Constraint,
    ConstraintSet,
    FALSE,
    PropFormula,
    TRUE,
    Var,
    _gc_paused,
    and_,
    iff,
    implies,
    not_,
    or_,
)

__all__ = [
    "Translation",
    "collect_numeric_values",
    "encode_expr",
    "encode_reverse_dependencies",
    "encode_choice",
    "translate",
]


class TriEncoding:
    """Pair of formulas: the expression evaluates to y / to m.  ``nonzero``,
    "y or m", is built with the pair: nearly every encoding is read that way."""

    __slots__ = ("f_y", "f_m", "nonzero")

    def __init__(self, f_y: PropFormula, f_m: PropFormula):
        self.f_y = f_y
        self.f_m = f_m
        self.nonzero = or_(f_y, f_m)


ENC_Y = TriEncoding(TRUE, FALSE)
ENC_M = TriEncoding(FALSE, TRUE)
ENC_N = TriEncoding(FALSE, FALSE)


def enc_not(a: TriEncoding) -> TriEncoding:
    return TriEncoding(not_(a.nonzero), a.f_m)


def enc_and(a: TriEncoding, b: TriEncoding) -> TriEncoding:
    # With a y or n operand the general pair folds to these shapes; they are
    # built directly, with the same structure.
    if a is ENC_N or b is ENC_N:
        return ENC_N
    if a is ENC_Y:
        a, b = b, a
    if b is ENC_Y:
        return a if a is ENC_Y else TriEncoding(a.f_y, and_(a.nonzero, not_(a.f_y)))
    f_y = and_(a.f_y, b.f_y)
    return TriEncoding(f_y, and_(a.nonzero, b.nonzero, not_(f_y)))


def enc_or(a: TriEncoding, b: TriEncoding) -> TriEncoding:
    if a is ENC_Y or b is ENC_Y:
        return ENC_Y
    if a is ENC_N:
        a, b = b, a
    if b is ENC_N:
        return a if a is ENC_N else TriEncoding(a.f_y, and_(a.f_m, not_(a.f_y)))
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


def _all_exprs(model: KconfigModel):
    """Every dependency and condition expression of the model."""
    for decl in chain(model.items, model.choices):
        entries = decl.prompts + decl.defaults
        if type(decl) is ConfigItem:
            entries += decl.selects + decl.ranges
        if decl.depends is not None:
            yield decl.depends
        for entry in entries:
            if entry.condition is not None:
                yield entry.condition


def collect_numeric_values(model: KconfigModel) -> dict[str, list[str]]:
    """Harvest the known values of every non-boolean option: the texts,
    canonicalized and ordered, by option name.  Every int, hex and string
    option has a key; bool and tristate options have none.

    int/hex options: default literals, range endpoints, and comparison
    literals (against a literal or an undeclared symbol), read by
    ``read_number``, deduplicated by numeric value and sorted ascending.
    String options: default literals in source order.
    """
    dom: dict[str, list[str]] = {}
    numbers: dict[str, set[int]] = {}

    def harvest(name: str, text: str) -> None:
        value = read_number(text, model.item(name).type)
        if value is not None:
            numbers[name].add(value)

    for it in model.items:
        if it.is_numeric:
            numbers[it.name] = set()
            dom[it.name] = []
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
            dom[it.name] = list(seen)
    if numbers:
        for e in _all_exprs(model):
            for node in expr_nodes(e):
                if type(node) not in COMPARISONS:
                    continue
                sides = (node.left, node.right)
                for name in {s.name for s in sides if type(s) is Sym and s.name in numbers}:
                    for s in sides:
                        if type(s) is Literal:
                            harvest(name, s.text)
                        elif type(s) is Sym and s.name != name and not model.has_option(s.name):
                            harvest(name, s.name)
        for name, found in numbers.items():
            dom[name] = [number_text(v, model.item(name).type) for v in sorted(found)]
    return dom


# --------------------------------------------------------------------------
# Per-translation context

# A comparison operand's reading: a text it can take, that text's number
# (None when it is not one) and the formula under which it holds the text.
_Reading = tuple[str, int | None, PropFormula]


class Translation:
    """The formulas one translation builds once and shares between its
    constraints: one ``Var`` per variable name, each option's symbol
    encoding (and with it the option's nonzero formula) and comparison
    readings, one :class:`_ItemContext` per option, each select's
    condition, and the effective-bool formula of tristate values.
    ``translate`` creates one per call and drops it when it returns; nothing
    it holds refers back to it.
    """

    __slots__ = ("model", "dom", "vars", "symbols", "_readings", "items", "conditions", "modules_off")

    def __init__(self, model: KconfigModel, dom: dict[str, list[str]]):
        self.model = model
        self.dom = dom
        self.vars: dict[str, PropFormula] = {}
        self.symbols: dict[str, TriEncoding] = {}
        self._readings: dict[str, list[_Reading]] = {}
        self.items: dict[str, _ItemContext] = {}
        # By the id of the condition expression; the model keeps it alive.
        self.conditions: dict[int, TriEncoding] = {}
        # Where a tristate value cannot be m: while the modules switch is off
        # (nowhere without one).
        self.modules_off = FALSE
        if model.modules_option is not None:
            self.modules_off = not_(self.var(model.modules_option))

    def var(self, name: str) -> PropFormula:
        v = self.vars.get(name)
        if v is None:
            v = self.vars[name] = Var(name)
        return v

    def value_var(self, name: str, value: str) -> PropFormula:
        return self.var(f"{name}_EQ_{value}")

    def symbol(self, item: ConfigItem) -> TriEncoding:
        """The (y, m) pair of an option read in a boolean position.  A valued
        option reads its text as a constant would: ``n`` and ``m`` keep
        their meaning, ``""`` is n and any other text is y."""
        enc = self.symbols.get(item.name)
        if enc is None:
            name = item.name
            if item.type is OptionType.BOOL:
                enc = TriEncoding(self.var(name), FALSE)
            elif item.type is OptionType.TRISTATE:
                enc = TriEncoding(self.var(name), self.var(name + "_MODULE"))
            else:
                readings = self.readings(item)
                enc = TriEncoding(
                    or_(*[f for text, _, f in readings if enc_const(text) is ENC_Y]),
                    or_(*[f for text, _, f in readings if text == "m"]),
                )
            self.symbols[name] = enc
        return enc

    def readings(self, item: ConfigItem) -> list[_Reading]:
        """Every text the option can take as a comparison operand, with its
        number and the formula under which the option holds it: n, m and y
        for a bool or tristate option, each known value for the others.  An
        option with no known value is always unset, and reads as ``""``."""
        found = self._readings.get(item.name)
        if found is None:
            if item.is_boolish:
                enc = self.symbol(item)
                found = [("n", None, not_(enc.nonzero)), ("m", None, enc.f_m), ("y", None, enc.f_y)]
            else:
                name = item.name
                found = [(v, parse_number(v), self.value_var(name, v)) for v in self.dom[name]]
                found = found or [("", None, TRUE)]
            self._readings[item.name] = found
        return found

    def nonzero(self, item: ConfigItem) -> PropFormula:
        """The option is y or m, for a selector or a choice member; a bool
        option's m variable is never read.  Validation rejects a valued
        option in either place; here it raises :class:`SelectOnNonBoolean`."""
        if not item.is_boolish:
            raise SelectOnNonBoolean(
                f"{item.name} is {item.type.value}; only a bool or tristate option "
                "can select or be a choice member"
            )
        return self.symbol(item).nonzero

    def select_condition(self, sel: Select) -> TriEncoding:
        """A select's condition, read by the select's own constraints and by
        its target's select floor."""
        if sel.condition is None:
            return ENC_Y
        enc = self.conditions.get(id(sel.condition))
        if enc is None:
            enc = self.conditions[id(sel.condition)] = encode_expr(sel.condition, self)
        return enc

    def item_context(self, item: ConfigItem) -> _ItemContext:
        ctx = self.items.get(item.name)
        if ctx is None:
            ctx = self.items[item.name] = _ItemContext(item, self)
        return ctx


# --------------------------------------------------------------------------
# Expression encoding


def _operand(e: Expr, tr: Translation) -> tuple[ConfigItem | None, list[_Reading]]:
    """A comparison operand's option (None for a constant) and its readings.
    A literal or an undeclared symbol is the one text it spells, always."""
    kind = type(e)
    if kind is Sym:
        if tr.model.has_option(e.name):
            item = tr.model.item(e.name)
            return item, tr.readings(item)
        text = e.name
    elif kind is Literal:
        text = e.text
    else:
        raise UnsupportedComparison(f"comparison operand {e!r} is not a symbol or literal")
    return None, [(text, parse_number(text), TRUE)]


def _encode_comparison(e: Expr, tr: Translation) -> PropFormula:
    """Where comparison ``e`` holds: the OR, over every pair of operand
    readings that satisfies it, of both readings' formulas.  Texts are equal
    when they are the same text or the same number, so two options with no
    known value are equal (``""`` both); ordered comparisons read both sides
    as numbers, and raise :class:`UnsupportedComparison` on an option with
    no known value, whose one reading has none."""
    kind = type(e)
    left, lefts = _operand(e.left, tr)
    right, rights = _operand(e.right, tr)
    compare = ORDERED_COMPARISONS.get(kind)
    if compare is not None:
        message = ordered_comparison_error(e, tr.model)
        if message is None and any(number is None for _, number, _ in lefts + rights):
            message = f"comparison over {(left or right).name} with an empty harvested domain"
        if message is not None:
            raise UnsupportedComparison(message)
    if left is not None and left.is_boolish:
        # Disjuncts in the right operand's order: `T = S` lists S's values
        # in domain order, which the pinned `.model` digests record.
        pairs = ((a, b) for b in rights for a in lefts)
    else:
        pairs = ((a, b) for a in lefts for b in rights)
    parts = []
    for (ltext, lnumber, lf), (rtext, rnumber, rf) in pairs:
        if compare is None:
            holds = ltext == rtext or (lnumber is not None and lnumber == rnumber)
        else:
            holds = compare(lnumber, rnumber)
        if holds:
            parts.append(rf if lf is TRUE else lf if rf is TRUE else and_(lf, rf))
    return not_(or_(*parts)) if kind is Neq else or_(*parts)


def encode_expr(e: Expr, tr: Translation) -> TriEncoding:
    """Encode an expression as its (y, m) formula pair.

    Comparisons are two-valued, so their m-formula is always false.
    """
    kind = type(e)
    if kind is Sym:
        if tr.model.has_option(e.name):
            return tr.symbol(tr.model.item(e.name))
        if e.name in TRI_NAMES:
            return enc_const(e.name)
        return ENC_N  # undeclared symbols are n in a boolean position
    if kind is And:
        return enc_and(encode_expr(e.left, tr), encode_expr(e.right, tr))
    if kind is Not:
        return enc_not(encode_expr(e.operand, tr))
    if kind is Or:
        return enc_or(encode_expr(e.left, tr), encode_expr(e.right, tr))
    if kind in COMPARISONS:
        return TriEncoding(_encode_comparison(e, tr), FALSE)
    if kind is Literal:
        return enc_const(e.text)
    raise UnsupportedComparison(f"cannot encode node {e!r}")


def _encode_opt(e: Expr | None, tr: Translation) -> TriEncoding:
    return ENC_Y if e is None else encode_expr(e, tr)


# --------------------------------------------------------------------------
# Shared per-item context


def _prompt_visibility(
    prompts: tuple[Prompt, ...], dep: TriEncoding, tr: Translation
) -> TriEncoding:
    """The strongest prompt condition and-ed with the dependencies; n without
    a prompt."""
    vis = ENC_N
    for prompt in prompts:
        vis = enc_or(vis, enc_and(_encode_opt(prompt.condition, tr), dep))
    return vis


class _ItemContext:
    """Derived formulas for one option under one model.  It holds no
    reference to the :class:`Translation` that built it."""

    __slots__ = ("item", "dep", "vis", "visible", "invisible", "bool_effective")

    def __init__(self, item: ConfigItem, tr: Translation):
        model = tr.model
        self.item = item
        self.dep = _encode_opt(model.effective_depends(item), tr)
        self.vis = _prompt_visibility(item.prompts, self.dep, tr)
        self.visible = self.vis.nonzero
        self.invisible = not_(self.visible)
        choice = model.choice_of(item)
        bool_typed = item.type is OptionType.BOOL or (choice is not None and choice.type is OptionType.BOOL)
        self.bool_effective = TRUE if bool_typed else tr.modules_off

    def select_floor(self, tr: Translation) -> tuple[PropFormula, PropFormula]:
        """(floor is y, floor is at least m) over all selects targeting the item."""
        floor_y = []
        floor_m = []
        for selector, sel in tr.model.selects_targeting(self.item.name):
            cond = tr.select_condition(sel)
            floor_y.append(and_(tr.var(selector.name), cond.f_y))
            floor_m.append(and_(tr.nonzero(selector), cond.nonzero))
        return or_(*floor_y), or_(*floor_m)

    def first_match(
        self, tr: Translation, entries, prior: list[PropFormula]
    ) -> tuple[list[tuple[TriEncoding, PropFormula]], PropFormula]:
        """kconfig's first-applicable-entry rule over defaults or ranges.

        An entry applies where its condition and the dependencies are nonzero.
        Returns, per entry, that condition and-ed with the dependencies and the
        guard under which the entry wins: every ``prior`` formula holds, the
        entry applies and no earlier entry does.  The last formula holds where
        every ``prior`` formula holds and no entry applies.

        Once a ``prior`` formula is FALSE, every later guard is FALSE: such
        an entry's condition is still encoded, so translation raises the
        same first error, but it gets ``(ENC_N, FALSE)`` and nothing more is
        built for it.
        """
        chain = []
        prior = list(prior)
        dead = any(p is FALSE for p in prior)
        for entry in entries:
            condition = _encode_opt(entry.condition, tr)
            if dead:
                chain.append((ENC_N, FALSE))
                continue
            applies = enc_and(condition, self.dep)
            chain.append((applies, and_(*prior, applies.nonzero)))
            prior.append(not_(applies.nonzero))
            dead = prior[-1] is FALSE
        return chain, FALSE if dead else and_(*prior)


def _forced_value(
    tr: Translation,
    ctx: _ItemContext,
    value: TriEncoding,
    rev_y: PropFormula,
    rev_ge_m: PropFormula,
) -> PropFormula:
    """Equality constraint: the option equals max(value, select floor),
    with m rounded up to y when the option is effectively boolean."""
    name = ctx.item.name
    oy, om = tr.var(name), tr.var(name + "_MODULE")
    high = or_(value.f_y, rev_y)
    at_least_m = or_(value.nonzero, rev_ge_m)
    forced_y = or_(high, and_(ctx.bool_effective, at_least_m))
    forced_m = and_(not_(ctx.bool_effective), not_(high), at_least_m)
    return and_(iff(oy, forced_y), iff(om, forced_m))


# --------------------------------------------------------------------------
# Per-option constraints: variable shape, modules gating, dependency bounds,
# visibility cap, and the forced value of invisible options


def _add(out: list[Constraint], formula: PropFormula, provenance: str) -> None:
    if formula is not TRUE:
        out.append(Constraint(formula, provenance))


def _encode_boolish_option(item: ConfigItem, tr: Translation) -> list[Constraint]:
    model = tr.model
    out: list[Constraint] = []
    ctx = tr.item_context(item)
    oy, om = tr.var(item.name), tr.var(item.name + "_MODULE")

    if item.type is OptionType.BOOL:
        _add(out, not_(om), f"{item.name}:bool-no-module")
    else:
        _add(out, not_(and_(oy, om)), f"{item.name}:tristate-excl")
        if model.modules_option is not None:
            _add(out, implies(om, tr.var(model.modules_option)), f"{item.name}:modules-gate")

    # Declared dependencies bound the value from above.  A select may push
    # past this bound in the reference configurator; the harness classifies
    # such disagreements as the documented select inaccuracy.
    if model.effective_depends(item) is not None:
        d = ctx.dep
        upper_y = or_(d.f_y, and_(ctx.bool_effective, d.f_m))
        _add(out, implies(oy, upper_y), f"{item.name}:depends")
        if item.type is OptionType.TRISTATE:
            _add(out, implies(om, d.nonzero), f"{item.name}:depends-m")

    # A prompt that only reaches m caps a true tristate at m.
    if item.prompts and item.type is OptionType.TRISTATE:
        _add(
            out,
            implies(and_(oy, ctx.vis.f_m), ctx.bool_effective),
            f"{item.name}:visibility-cap",
        )

    out.extend(_invisible_value_chain(ctx, tr))
    return out


def _invisible_value_chain(ctx: _ItemContext, tr: Translation) -> list[Constraint]:
    """While invisible, the option holds exactly the first applicable default
    (value and-ed with its condition and the dependencies), raised to the
    select floor, else n raised to the floor.

    A rule whose guard is FALSE (the option is never invisible, or an
    earlier default always applies) would fold to TRUE and is not built.
    The select conditions, each default's condition and each value are
    encoded all the same, in that order, so translation raises the same
    first error."""
    item = ctx.item
    for _, sel in tr.model.selects_targeting(item.name):
        tr.select_condition(sel)
    chain, none_applies = ctx.first_match(tr, item.defaults, [ctx.invisible])
    rules = []  # (guard, value, provenance)
    for i, (default, (applies, guard)) in enumerate(zip(item.defaults, chain)):
        value = encode_expr(default.value, tr)
        if guard is not FALSE:
            rules.append((guard, enc_and(value, applies), f"{item.name}:default[{i}]"))
    if none_applies is not FALSE:
        rules.append((none_applies, ENC_N, f"{item.name}:default-else"))

    out: list[Constraint] = []
    if rules:
        rev_y, rev_ge_m = ctx.select_floor(tr)
        for guard, value, provenance in rules:
            _add(out, implies(guard, _forced_value(tr, ctx, value, rev_y, rev_ge_m)), provenance)
    return out


def _encode_valued_option(item: ConfigItem, tr: Translation) -> list[Constraint]:
    out: list[Constraint] = []
    domain = tr.dom[item.name]
    if not domain:
        return out  # never constrained, never enumerated
    ctx = tr.item_context(item)
    value_vars = {v: tr.value_var(item.name, v) for v in domain}

    if item.is_numeric:
        chain, none_active = ctx.first_match(tr, item.ranges, [])
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
    chain, unset = ctx.first_match(tr, item.defaults, [ctx.invisible])
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


def encode_reverse_dependencies(tr: Translation) -> list[Constraint]:
    """A select makes its target at least as enabled as the selector under
    the select condition.  Targets that are currently visible members of a
    choice ignore selects (the choice machinery owns their value), so those
    implications are guarded by the member's invisibility."""
    model = tr.model
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
            cond = tr.select_condition(sel)
            guard = TRUE
            if sel.target in model.choice_index:
                guard = tr.item_context(target).invisible
            _add(
                out,
                implies(and_(guard, tr.var(item.name), cond.f_y), tr.var(target.name)),
                f"{item.name}:select({sel.target})[{k}]/y",
            )
            _add(
                out,
                implies(and_(guard, tr.nonzero(item), cond.nonzero), tr.nonzero(target)),
                f"{item.name}:select({sel.target})[{k}]/m",
            )
    return out


# --------------------------------------------------------------------------
# Choices


def encode_choice(choice: ChoiceBlock, tag: str, tr: Translation) -> list[Constraint]:
    """Selection discipline among the visible members of a choice, with
    provenance labels that start with ``tag``.

    While the choice is active and effectively boolean, exactly one visible
    member is y; a tristate choice reached only at m, or with no member at y,
    instead allows any set of visible members at m.  Invisible members are
    governed by their own per-option constraints.
    """
    model = tr.model
    out: list[Constraint] = []

    ch_vis = _prompt_visibility(choice.prompts, _encode_opt(choice.depends, tr), tr)
    active = ch_vis.nonzero
    bool_effective = TRUE if choice.type is OptionType.BOOL else tr.modules_off

    members = [model.item(name) for name in choice.members]
    member_visible = {it.name: tr.item_context(it).visible for it in members}
    visible_y = {
        it.name: and_(member_visible[it.name], tr.var(it.name)) for it in members
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
                implies(and_(mode_y, member_visible[it.name]), not_(tr.var(it.name + "_MODULE"))),
                f"{tag}:no-module-value({it.name})",
            )
    for it in members:
        _add(
            out,
            implies(and_(not_(active), member_visible[it.name]), not_(tr.nonzero(it))),
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


def variable_order(model: KconfigModel, dom: dict[str, list[str]]) -> list[str]:
    """Declaration-ordered variable universe of the translated model."""
    order: list[str] = []
    for it in model.items:
        if it.is_boolish:
            order.append(it.name)
            order.append(it.name + "_MODULE")
        else:
            for v in dom[it.name]:
                order.append(f"{it.name}_EQ_{v}")
    return order


@_gc_paused
def translate(model: KconfigModel) -> ConstraintSet:
    """Full constraint set: per-option, per-choice, reverse-dependency, and
    value-variable constraints, in declaration order; deterministic.  One
    :class:`Translation` shares the derived formulas for the call."""
    tr = Translation(model, collect_numeric_values(model))
    cs = ConstraintSet(variable_order=variable_order(model, tr.dom))
    for item in model.items:
        encode = _encode_boolish_option if item.is_boolish else _encode_valued_option
        cs.constraints.extend(encode(item, tr))
    for i, choice in enumerate(model.choices):
        cs.constraints.extend(encode_choice(choice, f"choice#{i}", tr))
    cs.constraints.extend(encode_reverse_dependencies(tr))
    for item in model.items:
        domain = tr.dom.get(item.name, [])
        if item.is_boolish or not domain:
            continue
        value_vars = [tr.value_var(item.name, v) for v in domain]
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
