"""Seeded model generators owned by the benchmark.

The program has a generator of its own (``kconfex.difftest.generate_model_text``)
that will grow as the fuzzer does; the workloads use these instead, so that
changing the program's generator cannot move them.  Every generator is
deterministic in its arguments.

Generated models are well formed by construction: an option's expressions
only name options declared before it (never a sibling in its own choice), and
a ``select`` only targets a later, non-choice bool/tristate option.  Every
value-dependency edge therefore points from a later option to an earlier one,
so validation never finds a recursive dependency.  Each int or hex option
owns three literals ``low < mid < high`` and each string option two words;
every range, default and comparison on the option draws from that set, so the
option always enumerates over exactly those values and the number of
configurations of a model depends only on its shape, not on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

BOOLISH = ("bool", "tristate")
WORDS = ("alpha", "beta", "gamma", "delta", "eps", "zeta")

# Shapes of the fuzz models, cycled by model index.  Letters are options
# (b bool, t tristate, i int, h hex, s string), "M" a leading modules
# switch, "[..]" a bool choice and "{..}" a tristate choice.  A shape fixes
# the number of configurations, so a seed changes structure, not size.
FUZZ_SHAPES = (
    "bt",
    "bbt",
    "tti",
    "bis",
    "M{tt}",
    "bt[bb]",
    "Mtth",
    "btis",
    "b[bbb]t",
    "Mbt{tt}",
    "bihs",
    "ttbi",
    "Mbtti",
    "b[bb]is",
    "tthb",
    "Mt{ttt}",
    "bbtts",
    "bib[bb]",
    "Mtbih",
    "tbsi",
)

# Option counts of the extract models: about 150 to about 1,000 options.
EXTRACT_SIZES = (150, 300, 600, 1000)
BOUND_TRISTATES = 9


@dataclass
class Decl:
    name: str
    kind: str
    values: list[str] = field(default_factory=list)


@dataclass
class ChoicePlan:
    kind: str
    members: list[Decl] = field(default_factory=list)


def bound_model_text(seed: int) -> str:
    """MODULES plus nine prompted tristates: 2 * 3**9 = 39,366 configurations.

    Seed 0 is the chain ``T<i> depends on T<i-1>``; any other seed draws each
    dependency target from the tristates declared before it.
    """
    rng = random.Random(seed)
    lines = [f"# bound model, seed={seed}", "config MODULES", '\tbool "modules"', "\toption modules", ""]
    for i in range(1, BOUND_TRISTATES + 1):
        lines += [f"config T{i}", f'\ttristate "t{i}"']
        if i > 1:
            target = i - 1 if seed == 0 else rng.randint(1, i - 1)
            lines.append(f"\tdepends on T{target}")
        lines.append("")
    return "\n".join(lines)


def fuzz_model_text(seed: int, index: int) -> str:
    """Small model number ``index`` of the fuzz set drawn with ``seed``."""
    rng = random.Random(f"fuzz:{seed}:{index}")
    plan = _plan_from_shape(FUZZ_SHAPES[index % len(FUZZ_SHAPES)], rng)
    return _Emitter(rng, plan, f"fuzz model {index}, seed={seed}").text()


def extract_model_text(seed: int, options: int) -> str:
    """Large model of about ``options`` options: selects, choices, invisible
    defaults, int/hex ranges and string options, well past the enumeration
    bound."""
    rng = random.Random(f"extract:{seed}:{options}")
    return _Emitter(rng, _plan_large(rng, options), f"extract model, {options} options, seed={seed}").text()


# --------------------------------------------------------------------------
# Planning: which declarations exist, of which type, in which choice


def _new_decl(rng: random.Random, name: str, kind: str) -> Decl:
    decl = Decl(name, kind)
    if kind in ("int", "hex"):
        low = rng.randint(0, 16)
        mid = low + rng.randint(1, 8)
        high = mid + rng.randint(1, 8)
        fmt = "0x%x" if kind == "hex" else "%d"
        decl.values = [fmt % v for v in (low, mid, high)]
    elif kind == "string":
        decl.values = rng.sample(WORDS, 2)
    return decl


def _plan_from_shape(shape: str, rng: random.Random) -> list[Decl | ChoicePlan]:
    plan: list[Decl | ChoicePlan] = []
    kinds = {"b": "bool", "t": "tristate", "i": "int", "h": "hex", "s": "string"}
    choice: ChoicePlan | None = None
    count = 0
    for ch in shape:
        if ch == "M":
            plan.append(Decl("MODULES", "bool"))
        elif ch in "[{":
            choice = ChoicePlan("bool" if ch == "[" else "tristate")
            plan.append(choice)
        elif ch in "]}":
            choice = None
        elif choice is not None:
            choice.members.append(_new_decl(rng, f"O{count}", choice.kind))
            count += 1
        else:
            plan.append(_new_decl(rng, f"O{count}", kinds[ch]))
            count += 1
    return plan


def _plan_large(rng: random.Random, options: int) -> list[Decl | ChoicePlan]:
    plan: list[Decl | ChoicePlan] = [Decl("MODULES", "bool")]
    count = 1
    while count < options:
        if rng.random() < 0.04:
            choice = ChoicePlan("tristate" if rng.random() < 0.25 else "bool")
            for _ in range(rng.randint(2, 4)):
                choice.members.append(_new_decl(rng, f"C{count}", choice.kind))
                count += 1
            plan.append(choice)
            continue
        kind = rng.choices(["bool", "tristate", "int", "hex", "string"], [50, 25, 12, 6, 7])[0]
        plan.append(_new_decl(rng, f"O{count}", kind))
        count += 1
    return plan


# --------------------------------------------------------------------------
# Emission


class _Emitter:
    def __init__(self, rng: random.Random, plan: list[Decl | ChoicePlan], title: str):
        self.rng = rng
        self.plan = plan
        self.lines = [f"# {title}"]
        self.pool: list[Decl] = []  # declared so far, outside any open choice
        # Non-choice bool/tristate options; a select targets one declared later.
        self.boolish = [p for p in plan if isinstance(p, Decl) and p.kind in BOOLISH and p.name != "MODULES"]

    def text(self) -> str:
        for entry in self.plan:
            if isinstance(entry, ChoicePlan):
                self._choice(entry)
            elif entry.name == "MODULES":
                self.lines += ["config MODULES", '\tbool "modules"', "\toption modules", ""]
                self.pool.append(entry)
            else:
                self._option(entry, member=False)
                self.pool.append(entry)
        return "\n".join(self.lines) + "\n"

    # ---- expressions over the options declared so far

    def _atom(self) -> str:
        rng = self.rng
        d = rng.choice(self.pool)
        if d.kind in BOOLISH:
            roll = rng.random()
            if d.kind == "tristate" and roll < 0.25:
                return f"{d.name}{rng.choice(['=', '!='])}'{rng.choice('nmy')}'"
            return f"!{d.name}" if roll < 0.45 else d.name
        if d.kind == "string":
            return f'{d.name}{rng.choice(["=", "!="])}"{rng.choice(d.values)}"'
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"{d.name}{op}{rng.choice(d.values)}"

    def _expr(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.4:
            return self._atom()
        text = f"({self._expr(depth - 1)} {rng.choice(['&&', '||'])} {self._expr(depth - 1)})"
        return f"!{text}" if rng.random() < 0.15 else text

    def _cond(self, chance: float) -> str:
        if self.pool and self.rng.random() < chance:
            return f" if {self._expr(1)}"
        return ""

    # ---- declarations

    def _option(self, d: Decl, member: bool) -> None:
        rng = self.rng
        lines = self.lines
        lines.append(f"config {d.name}")
        prompted = rng.random() < (0.85 if member else 0.7)
        if prompted:
            lines.append(f'\t{d.kind} "{d.name.lower()}"{self._cond(0.2)}')
            if self.pool and rng.random() < 0.1:
                lines.append(f'\tprompt "{d.name.lower()} again"{self._cond(1.0)}')
        else:
            lines.append(f"\t{d.kind}")
        if self.pool and rng.random() < 0.4:
            lines.append(f"\tdepends on {self._expr(2)}")
        if d.kind in BOOLISH:
            self._boolish_defaults(d, prompted)
            if not member:
                self._select(d)
        elif d.kind == "string":
            lines.append(f'\tdefault "{d.values[0]}"{self._cond(0.7)}')
            lines.append(f'\tdefault "{d.values[1]}"')
        else:
            low, mid, high = d.values
            if rng.random() < 0.3:
                lines.append(f"\tdefault {high}{self._cond(1.0)}")
            lines.append(f"\tdefault {mid}")
            if rng.random() < 0.3:
                lines.append(f"\trange {low} {mid}{self._cond(1.0)}")
            lines.append(f"\trange {low} {high}")
        lines.append("")

    def _boolish_defaults(self, d: Decl, prompted: bool) -> None:
        rng = self.rng
        if prompted and rng.random() >= 0.3:
            return
        for _ in range(rng.randint(1, 2)):
            refs = [p for p in self.pool if p.kind in BOOLISH]
            if refs and rng.random() < 0.4:
                value = rng.choice(refs).name
            else:
                value = rng.choice(["y", "m", "n"] if d.kind == "tristate" else ["y", "n"])
            self.lines.append(f"\tdefault {value}{self._cond(0.3)}")

    def _select(self, d: Decl) -> None:
        if self.rng.random() >= 0.25:
            return
        later = self.boolish[self.boolish.index(d) + 1 :]
        if later:
            target = self.rng.choice(later[:50])
            self.lines.append(f"\tselect {target.name}{self._cond(0.3)}")

    def _choice(self, c: ChoicePlan) -> None:
        rng = self.rng
        self.lines.append("choice")
        self.lines.append(f'\t{c.kind} "pick"{self._cond(0.3)}')
        if self.pool and rng.random() < 0.3:
            self.lines.append(f"\tdepends on {self._expr(1)}")
        if rng.random() < 0.4:
            self.lines.append(f"\tdefault {rng.choice(c.members).name}{self._cond(0.3)}")
        self.lines.append("")
        for member in c.members:
            self._option(member, member=True)
        self.lines.append("endchoice")
        self.lines.append("")
        self.pool.extend(c.members)
