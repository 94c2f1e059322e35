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

from .errors import FormatError, NonConvergence, ProcessError
from .kconfig import ConfigItem, KconfigModel, Literal, OptionType, Sym, number_text, parse_number
from .tri import (
    Configuration,
    Tri,
    _eval_opt,
    choice_visibility,
    effective_bool,
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


class _Repair:
    def __init__(self, model: KconfigModel, cfg: Configuration):
        self.model = model
        self.work: Configuration = dict(cfg)
        self.changed_this_pass = False
        self.override = False

    def set(self, name: str, value) -> None:
        if self.work.get(name) != value:
            self.work[name] = value
            self.changed_this_pass = True

    def select_floor(self, item: ConfigItem) -> Tri:
        floor = Tri.N
        for selector, sel in self.model.selects_targeting(item.name):
            sval = self.work.get(selector.name)
            if not isinstance(sval, Tri):
                continue
            cond = _eval_opt(sel.condition, self.work, self.model)
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

    def dependency_and_visibility(self, item: ConfigItem) -> tuple[Tri, Tri]:
        dep = _eval_opt(self.model.effective_depends(item), self.work, self.model)
        return dep, prompt_visibility(item.prompts, dep, self.work, self.model)

    def recompute_boolish(self, item: ConfigItem, dep: Tri, vis: Tri) -> None:
        floor = self.select_floor(item)
        if vis is not Tri.N:
            if floor > vis:
                self.override = True
            current = self.work.get(item.name, Tri.N)
            new = tri_max(tri_min(current, vis), floor)
        else:
            if floor > dep:
                self.override = True
            # The first applicable default, clamped by its condition and the
            # dependencies; n when none applies.
            default, applies = self.first_applicable(item.defaults, dep)
            if default is not None:
                applies = tri_min(eval_expr(default.value, self.work, self.model), applies)
            new = tri_max(applies, floor)
        if new is Tri.M and effective_bool(item, self.work, self.model):
            new = Tri.Y
        self.set(item.name, new)

    def recompute_valued(self, item: ConfigItem, dep: Tri, vis: Tri) -> None:
        current = self.work.get(item.name)
        literal_defaults = [d for d in item.defaults if isinstance(d.value, Literal)]
        if item.type is OptionType.STRING:
            if vis is Tri.N or current is None:
                default, _ = self.first_applicable(literal_defaults, dep)
                self.set(item.name, None if default is None else default.value.text)
            return

        active, _ = self.first_applicable(item.ranges, dep)
        if active is not None:
            low, high = parse_number(active.low, item.type), parse_number(active.high, item.type)
        if vis is not Tri.N and current:
            value = parse_number(current, item.type)
            if value is not None and (active is None or low <= value <= high):
                return  # user value kept verbatim
        default, _ = self.first_applicable(literal_defaults, dep)
        value = None if default is None else parse_number(default.value.text, item.type)
        if value is not None and active is not None:
            value = min(max(value, low), high)
        self.set(item.name, None if value is None else number_text(value, item.type))

    def run_choice(self, choice) -> None:
        model, work = self.model, self.work
        ch_vis = choice_visibility(choice, work, model)
        members = [model.item(name) for name in choice.members]
        member_vis = {it.name: self.dependency_and_visibility(it)[1] for it in members}
        visible = [it for it in members if member_vis[it.name] is not Tri.N]
        eff_bool = choice.type is OptionType.BOOL or not modules_enabled(work, model)

        user_mode: Tri | None = None
        if any(work.get(it.name) is Tri.Y for it in visible):
            user_mode = Tri.Y
        elif any(work.get(it.name) is Tri.M for it in visible):
            user_mode = Tri.M
        mode = tri_min(tri_max(Tri.M, user_mode or Tri.N), ch_vis)
        if eff_bool and mode is Tri.M:
            mode = Tri.Y

        if mode is Tri.N:
            for it in visible:
                self.set(it.name, Tri.N)
        elif mode is Tri.Y:
            # A true tristate member whose own visibility only reaches m
            # cannot carry the selection of a y-mode choice; effectively
            # boolean members have their m visibility promoted to y.
            candidates = [
                it
                for it in visible
                if member_vis[it.name] is Tri.Y or effective_bool(it, work, model)
            ]
            chosen = self._chosen_member(choice, candidates)
            for it in visible:
                self.set(it.name, Tri.Y if it is chosen else Tri.N)
        else:
            for it in visible:
                if work.get(it.name) is Tri.Y:
                    self.set(it.name, Tri.M)

        for it in members:
            # The selection above may have changed what a member's
            # dependencies and prompts read.
            dep, vis = self.dependency_and_visibility(it)
            if vis is Tri.N:
                self.recompute_boolish(it, dep, vis)

    def _chosen_member(self, choice, candidates: list[ConfigItem]) -> ConfigItem | None:
        already = [it for it in candidates if self.work.get(it.name) is Tri.Y]
        if already:
            return already[0]
        ch_dep = _eval_opt(choice.depends, self.work, self.model)
        names = {it.name for it in candidates}
        naming_candidate = [
            d for d in choice.defaults if isinstance(d.value, Sym) and d.value.name in names
        ]
        default, _ = self.first_applicable(naming_candidate, ch_dep)
        if default is not None:
            return self.model.item(default.value.name)
        return candidates[0] if candidates else None

    def one_pass(self) -> bool:
        self.changed_this_pass = False
        done_choices: set[int] = set()
        for item in self.model.items:
            if item.declared_in_choice is not None:
                if item.declared_in_choice not in done_choices:
                    done_choices.add(item.declared_in_choice)
                    self.run_choice(self.model.choices[item.declared_in_choice])
                continue
            dep, vis = self.dependency_and_visibility(item)
            if item.is_boolish:
                self.recompute_boolish(item, dep, vis)
            else:
                self.recompute_valued(item, dep, vis)
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
    try:
        result = subprocess.run(
            [conf_path, "--olddefconfig", model_file],
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
