"""Reference configurator: decide configuration validity by repair.

A configuration is valid exactly when the non-interactive repair pass leaves
it untouched.  The repair recomputes every option in declaration order and
iterates to a fixpoint: visible options keep their value clamped between the
select floor and their visibility, invisible options take their first
applicable default raised to the select floor, and active choices enforce a
single selected member among the visible ones.

This module deliberately shares nothing with the encoder beyond the
declaration model (which owns the numeric-literal format) and the
three-valued semantics; that independence is what makes differential
comparison meaningful.
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FormatError, NonConvergence, ProcessError
from .kconfig import (
    ChoiceBlock,
    ConfigItem,
    Default,
    Expr,
    KconfigModel,
    Literal,
    OptionType,
    Sym,
    number_text,
    parse_number,
)
from .tri import (
    Configuration,
    Tri,
    _eval_opt,
    choice_visibility,
    eval_expr,
    modules_enabled,
    prompt_visibility,
)
from .tri import tri_and as tri_min
from .tri import tri_or as tri_max

__all__ = [
    "MAX_PASSES",
    "RepairOutcome",
    "repair",
    "write_dotconfig",
    "parse_dotconfig",
    "external_conf_oracle",
]

MAX_PASSES = 32


@dataclass(frozen=True)
class RepairOutcome:
    repaired: Configuration
    changed: bool
    select_override_fired: bool


class _Option(NamedTuple):
    """What the repair reads of one option's declaration, derived once per
    model."""

    item: ConfigItem
    name: str
    boolish: bool
    depends: Expr | None  # with the enclosing choice's dependencies folded in
    selectors: tuple[tuple[str, Expr | None], ...]  # (selector, condition)
    literal_defaults: tuple[Default, ...]
    # Cannot hold m in any configuration: bool options, and tristate members
    # of a bool choice (they behave like boolean options).
    always_bool: bool


class _Choice(NamedTuple):
    block: ChoiceBlock
    members: tuple[_Option, ...]


def _plan(model: KconfigModel) -> tuple[_Option | _Choice, ...]:
    """The steps of one repair pass: options outside choices in declaration
    order, and each choice at the position of its first member."""

    def option(item: ConfigItem) -> _Option:
        choice = model.choice_of(item)
        return _Option(
            item=item,
            name=item.name,
            boolish=item.is_boolish,
            depends=model.effective_depends(item),
            selectors=tuple(
                (selector.name, sel.condition)
                for selector, sel in model.selects_targeting(item.name)
            ),
            literal_defaults=tuple(d for d in item.defaults if isinstance(d.value, Literal)),
            always_bool=item.type is OptionType.BOOL
            or (
                item.type is OptionType.TRISTATE
                and choice is not None
                and choice.type is OptionType.BOOL
            ),
        )

    steps: list[_Option | _Choice] = []
    done_choices: set[int] = set()
    for item in model.items:
        if item.declared_in_choice is None:
            steps.append(option(item))
        elif item.declared_in_choice not in done_choices:
            done_choices.add(item.declared_in_choice)
            block = model.choices[item.declared_in_choice]
            members = tuple(option(model.item(name)) for name in block.members)
            steps.append(_Choice(block, members))
    return tuple(steps)


class _Repair:
    def __init__(self, model: KconfigModel, cfg: Configuration):
        self.model = model
        self.steps = model.derived(_plan)
        self.work: Configuration = dict(cfg)
        self.changed_this_pass = False
        self.override = False

    def set(self, name: str, value) -> None:
        if self.work.get(name) != value:
            self.work[name] = value
            self.changed_this_pass = True

    def effective_bool(self, opt: _Option) -> bool:
        """True when the option cannot hold m: always-bool options, and
        tristate options while modules are disabled."""
        return opt.always_bool or (
            opt.item.type is OptionType.TRISTATE and not modules_enabled(self.work, self.model)
        )

    def select_floor(self, opt: _Option) -> Tri:
        floor = Tri.N
        for selector, condition in opt.selectors:
            sval = self.work.get(selector)
            if not isinstance(sval, Tri):
                continue
            cond = _eval_opt(condition, self.work, self.model)
            floor = tri_max(floor, tri_min(sval, cond))
        return floor

    def first_applicable(self, entries, dep: Tri):
        """The first default or range whose condition, and-ed with the
        dependency value, is not n, with that and-ed value; (None, n) when
        none applies."""
        for entry in entries:
            applies = tri_min(_eval_opt(entry.condition, self.work, self.model), dep)
            if applies is not Tri.N:
                return entry, applies
        return None, Tri.N

    def dependency_and_visibility(self, opt: _Option) -> tuple[Tri, Tri]:
        dep = _eval_opt(opt.depends, self.work, self.model)
        return dep, prompt_visibility(opt.item.prompts, dep, self.work, self.model)

    def recompute_boolish(self, opt: _Option, dep: Tri, vis: Tri) -> None:
        floor = self.select_floor(opt) if opt.selectors else Tri.N
        if vis is not Tri.N:
            if floor > vis:
                self.override = True
            current = self.work.get(opt.name, Tri.N)
            new = tri_max(tri_min(current, vis), floor)
        else:
            if floor > dep:
                self.override = True
            # The first applicable default, clamped by its condition and the
            # dependencies; n when none applies.
            default, applies = self.first_applicable(opt.item.defaults, dep)
            if default is not None:
                applies = tri_min(eval_expr(default.value, self.work, self.model), applies)
            new = tri_max(applies, floor)
        if new is Tri.M and self.effective_bool(opt):
            new = Tri.Y
        self.set(opt.name, new)

    def recompute_valued(self, opt: _Option, dep: Tri, vis: Tri) -> None:
        item = opt.item
        current = self.work.get(item.name)
        if item.type is OptionType.STRING:
            if vis is Tri.N or current is None:
                default, _ = self.first_applicable(opt.literal_defaults, dep)
                self.set(item.name, None if default is None else default.value.text)
            return

        active, _ = self.first_applicable(item.ranges, dep)
        if active is not None:
            low, high = parse_number(active.low, item.type), parse_number(active.high, item.type)
        if vis is not Tri.N and current:
            value = parse_number(current, item.type)
            if value is not None and (active is None or low <= value <= high):
                return  # user value kept verbatim
        default, _ = self.first_applicable(opt.literal_defaults, dep)
        value = None if default is None else parse_number(default.value.text, item.type)
        if value is not None and active is not None:
            value = min(max(value, low), high)
        self.set(item.name, None if value is None else number_text(value, item.type))

    def run_choice(self, step: _Choice) -> None:
        model, work, choice = self.model, self.work, step.block
        ch_vis = choice_visibility(choice, work, model)
        member_vis = {opt.name: self.dependency_and_visibility(opt)[1] for opt in step.members}
        visible = [opt for opt in step.members if member_vis[opt.name] is not Tri.N]
        eff_bool = choice.type is OptionType.BOOL or not modules_enabled(work, model)

        user_mode: Tri | None = None
        if any(work.get(opt.name) is Tri.Y for opt in visible):
            user_mode = Tri.Y
        elif any(work.get(opt.name) is Tri.M for opt in visible):
            user_mode = Tri.M
        mode = tri_min(tri_max(Tri.M, user_mode or Tri.N), ch_vis)
        if eff_bool and mode is Tri.M:
            mode = Tri.Y

        if mode is Tri.N:
            for opt in visible:
                self.set(opt.name, Tri.N)
        elif mode is Tri.Y:
            # A true tristate member whose own visibility only reaches m
            # cannot carry the selection of a y-mode choice; effectively
            # boolean members have their m visibility promoted to y.
            candidates = [
                opt
                for opt in visible
                if member_vis[opt.name] is Tri.Y or self.effective_bool(opt)
            ]
            chosen = self._chosen_member(choice, candidates)
            for opt in visible:
                self.set(opt.name, Tri.Y if opt is chosen else Tri.N)
        else:
            for opt in visible:
                if work.get(opt.name) is Tri.Y:
                    self.set(opt.name, Tri.M)

        for opt in step.members:
            # The selection above may have changed what a member's
            # dependencies and prompts read.
            dep, vis = self.dependency_and_visibility(opt)
            if vis is Tri.N:
                self.recompute_boolish(opt, dep, vis)

    def _chosen_member(self, choice: ChoiceBlock, candidates: list[_Option]) -> _Option | None:
        already = [opt for opt in candidates if self.work.get(opt.name) is Tri.Y]
        if already:
            return already[0]
        ch_dep = _eval_opt(choice.depends, self.work, self.model)
        names = {opt.name: opt for opt in candidates}
        naming_candidate = [
            d for d in choice.defaults if isinstance(d.value, Sym) and d.value.name in names
        ]
        default, _ = self.first_applicable(naming_candidate, ch_dep)
        if default is not None:
            return names[default.value.name]
        return candidates[0] if candidates else None

    def one_pass(self) -> bool:
        self.changed_this_pass = False
        for step in self.steps:
            if type(step) is _Choice:
                self.run_choice(step)
                continue
            dep, vis = self.dependency_and_visibility(step)
            if step.boolish:
                self.recompute_boolish(step, dep, vis)
            else:
                self.recompute_valued(step, dep, vis)
        return self.changed_this_pass


def repair(model: KconfigModel, cfg: Configuration) -> RepairOutcome:
    """Run the repair to a fixpoint; raises :class:`NonConvergence` when the
    value computation oscillates past ``MAX_PASSES`` passes."""
    state = _Repair(model, cfg)
    for _ in range(MAX_PASSES):
        if not state.one_pass():
            break
    else:
        raise NonConvergence(model.source_name, MAX_PASSES)
    return RepairOutcome(
        repaired=state.work,
        changed=state.work != cfg,
        select_override_fired=state.override,
    )


# --------------------------------------------------------------------------
# .config reading and writing


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            out.append(text[i + 1])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def write_dotconfig(cfg: Configuration, sink, model: KconfigModel | None = None) -> None:
    """Write the kernel-style ``.config`` form of a configuration.

    Lines appear in model declaration order when a model is given, in map
    order otherwise.  Unset non-boolean options produce no line.
    """
    if model is not None:
        names = [it.name for it in model.items if it.name in cfg]
    else:
        names = list(cfg)
    lines = []
    for name in names:
        value = cfg[name]
        if isinstance(value, Tri):
            if value is Tri.N:
                lines.append(f"# CONFIG_{name} is not set")
            else:
                lines.append(f"CONFIG_{name}={value.label}")
        elif value is None:
            continue
        else:
            quoted = model is not None and model.item(name).type is OptionType.STRING
            if model is None:
                quoted = parse_number(value) is None
            if quoted:
                lines.append(f'CONFIG_{name}="{_escape(value)}"')
            else:
                lines.append(f"CONFIG_{name}={value}")
    sink.write("".join(line + "\n" for line in lines))


def parse_dotconfig(source) -> Configuration:
    """Parse ``.config`` text back into a configuration map."""
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    cfg: Configuration = {}
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("CONFIG_") and body.endswith(" is not set"):
                cfg[body[len("CONFIG_") : -len(" is not set")]] = Tri.N
            continue
        if not line.startswith("CONFIG_") or "=" not in line:
            raise FormatError(f"unrecognized line {line!r}", lineno)
        name, _, value = line[len("CONFIG_") :].partition("=")
        if not name:
            raise FormatError("missing option name", lineno)
        if value in ("y", "m", "n"):
            cfg[name] = Tri.from_label(value)
        elif value.startswith('"') and value.endswith('"') and len(value) >= 2:
            cfg[name] = _unescape(value[1:-1])
        else:
            cfg[name] = value
    return cfg


# --------------------------------------------------------------------------
# External configurator adapter


def external_conf_oracle(
    conf_path: str,
    model_file: str,
    cfg: Configuration,
    workdir: str,
    model: KconfigModel | None = None,
) -> bool:
    """Ask a real ``conf`` binary whether the configuration survives repair.

    The configuration is written to a ``.config`` file, the binary runs in
    its non-interactive repair mode with ``KCONFIG_CONFIG`` pointing at the
    file, and the verdict is whether the file is semantically unchanged: the
    same set lines and the same not-set lines.
    """
    config_path = os.path.join(workdir, ".config.kconfex")
    with open(config_path, "w", encoding="utf-8") as sink:
        write_dotconfig(cfg, sink, model)
    with open(config_path, "r", encoding="utf-8") as fh:
        before = parse_dotconfig(fh)

    env = dict(os.environ)
    env["KCONFIG_CONFIG"] = config_path
    # conf runs in the work directory, so relative paths are resolved here; a
    # bare command name is still looked up on PATH.
    if os.sep in conf_path:
        conf_path = os.path.abspath(conf_path)
    try:
        result = subprocess.run(
            [conf_path, "--olddefconfig", os.path.abspath(model_file)],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise ProcessError(f"failed to run {conf_path}: {exc}") from exc
    if result.returncode != 0:
        raise ProcessError(
            f"{conf_path} exited with {result.returncode}: "
            f"{result.stderr.decode('utf-8', 'replace').strip()}"
        )
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            after = parse_dotconfig(fh)
    except OSError as exc:
        raise ProcessError(f"cannot read back {config_path}: {exc}") from exc
    return before == after
