"""Reference configurator: decide configuration validity by repair.

A configuration is valid exactly when the non-interactive repair pass leaves
it untouched.  The repair recomputes every option in declaration order and
iterates to a fixpoint: visible options keep their value clamped between the
select floor and their visibility, invisible options take their first
applicable default raised to the select floor, and active choices enforce a
single selected member among the visible ones.

The repair runs on every enumerated configuration at once
(:func:`repair_space`), over the row masks of :class:`~kconfex.tri.RowValues`.
Each branch of the per-configuration procedure becomes a row mask (visible or
not, the choice's mode, which first-applicable entry applies), and each write
records the rows whose value it changed.  Passes repeat until no row changes;
a row already at its fixpoint only repeats a pass that changes nothing, so
every row gets the result, the select-override flag and the ``MAX_PASSES``
limit of its own repair.  After the first pass, a pass re-runs only the steps
that read an option written since their last run: the others would write
nothing (see :class:`_Repair`), so each pass changes the same rows as one
that re-runs every step.  The repair takes the rows as per-option columns
and returns the final values as columns of the same shape, and a
configuration's verdict is whether some pass changed its row, which is
exactly whether its final values differ from its initial ones
(:func:`repair_space`).

This module deliberately shares nothing with the encoder beyond the
declaration model (which owns the numeric-literal format) and the
three-valued semantics; that independence is what makes differential
comparison meaningful.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import FormatError, NonConvergence, ProcessError, UnwritableValue, numbered_lines
from .kconfig import (
    ChoiceBlock,
    ConfigItem,
    Default,
    Expr,
    KconfigModel,
    Literal,
    OptionType,
    Sym,
    _unquote,
    number_text,
    parse_number,
    value_dependency_edges,
)
from .tri import Columns, Configuration, ConfigValue, RowValues, Tri, TriRows

__all__ = [
    "repair_space",
    "write_dotconfig",
    "parse_dotconfig",
    "external_conf_oracle",
]

MAX_PASSES = 32


class SpaceRepair(NamedTuple):
    """The repair of every row: the final values as columns in the shape
    :func:`repair_space` takes (see :meth:`RowValues.columns`), the mask of
    the rows some pass changed, which are the rows whose final values differ
    from their given ones, and the mask of the rows where a select overrode
    an option's dependencies."""

    repaired: Columns
    changed: int
    select_override_fired: int


class _Option(NamedTuple):
    """What the repair reads of one option's declaration, derived once per
    repair."""

    item: ConfigItem
    name: str
    boolish: bool
    depends: Expr | None  # with the enclosing choice's dependencies folded in
    selectors: tuple[tuple[str, Expr | None], ...]  # (bool/tristate selector, condition)
    literal_defaults: tuple[Default, ...]
    # Cannot hold m in any configuration: bool options, and tristate members
    # of a bool choice (they behave like boolean options).
    always_bool: bool
    reads: frozenset[str]  # the declared options the option's step evaluates


class _Choice(NamedTuple):
    block: ChoiceBlock
    members: tuple[_Option, ...]
    reads: frozenset[str]  # the members' reads, and the members themselves


def _plan(model: KconfigModel) -> tuple[_Option | _Choice, ...]:
    """The steps of one repair pass: options outside choices in declaration
    order, and each choice at the position of its first member."""
    edges = value_dependency_edges(model)

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
                if selector.is_boolish
            ),
            literal_defaults=tuple(d for d in item.defaults if isinstance(d.value, Literal)),
            always_bool=item.type is OptionType.BOOL
            or (
                item.type is OptionType.TRISTATE
                and choice is not None
                and choice.type is OptionType.BOOL
            ),
            reads=edges[item.name],
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
            reads = frozenset(block.members).union(*(opt.reads for opt in members))
            steps.append(_Choice(block, members, reads))
    return tuple(steps)


def _add(assignment: dict[ConfigValue, int], value: ConfigValue, rows: int) -> None:
    assignment[value] = assignment.get(value, 0) | rows


class _Repair:
    """Repair passes over all rows at once.  ``changed`` collects the rows
    the current pass changed, ``override`` the rows where a select floor
    exceeded an option's visibility or dependencies in any pass.

    The first pass runs every step; a later pass runs a step only when an
    option in its read set was written at or after the step's last run.
    Step runs are numbered, each write stamps its option with the number of
    the running step, and ``ran`` holds each step's last number.  Each
    option is written by its own step alone, and an option step is a
    function of what it reads and of its own current value that is
    idempotent in that value: a shown bool or tristate is clamped between
    the select floor and its visibility, hidden rows do not read their own
    value, int and hex options keep an in-range value, and a string option
    keeps a set shown value.  So a skipped step would have written nothing,
    and would only have added override bits and ``EvalError`` rows that its
    last run already recorded: every pass changes the same rows as a pass
    that runs every step, and the loop stops at the same pass.  ``>=``
    re-runs a step that reads its own option after writing it.  A choice
    step is not idempotent (its members' values decide the selection), so it
    reads its members, and runs again after it wrote one."""

    def __init__(self, model: KconfigModel, values: RowValues):
        self.model = model
        self.values = values
        self.ones = values.ones
        self.steps = _plan(model)
        self.changed = 0
        self.override = 0
        self.run = 0  # the number of the running step; runs count from 1
        self.ran = [0] * len(self.steps)  # 0: not run yet
        self.stamp = dict.fromkeys((item.name for item in model.items), 0)

    # ---- writes: a row changes when the value written differs from its
    # value, or when its configuration did not hold the option

    def set_tri(self, name: str, value: TriRows, lanes: int) -> None:
        v = self.values
        old_ge, old_y = v.ge[name], v.y[name]
        dge, dy = value[0] ^ old_ge, value[1] ^ old_y
        write = lanes & (dge | dy | (self.ones ^ v.present[name]))
        if write:
            # Flip the written rows whose value differs.
            v.ge[name] = old_ge ^ (dge & write)
            v.y[name] = old_y ^ (dy & write)
            v.present[name] |= write
            self.changed |= write
            self.stamp[name] = self.run

    def set_values(self, name: str, assignment: dict[ConfigValue, int]) -> None:
        part = self.values.values[name]
        moves = []
        writes = 0
        for value, rows in assignment.items():
            write = rows & (self.ones ^ part.get(value, 0))  # unset reads as None
            if write:
                moves.append((value, write))
                writes |= write
        if writes:
            unwritten = self.ones ^ writes
            part = {value: rows & unwritten for value, rows in part.items()}
            for value, write in moves:
                _add(part, value, write)
            self.values.values[name] = {value: rows for value, rows in part.items() if rows}
            self.values.present[name] |= writes
            self.changed |= writes
            self.stamp[name] = self.run

    # ---- reads

    def modules_disabled(self) -> int:
        """Rows where tristate options cannot take the value m: without a
        declared modules switch none, with one every row where the switch is
        not y."""
        switch = self.model.modules_option
        return 0 if switch is None else self.ones ^ self.values.y[switch]

    def effective_bool(self, opt: _Option) -> int:
        """Rows where the option cannot hold m: always-bool options, and
        tristate options while modules are disabled."""
        if opt.always_bool:
            return self.ones
        return self.modules_disabled() if opt.item.type is OptionType.TRISTATE else 0

    def first_applicable(self, entries, dep: TriRows, lanes: int):
        """For each default or range, the rows of ``lanes`` where it is the
        first whose condition, and-ed with the dependency value, is not n,
        with that and-ed value; and the rows where none applies."""
        found = []
        for entry in entries:
            if not lanes:
                break
            cge, cy = self.values.tri(entry.condition, lanes)
            applies = cge & dep[0], cy & dep[1]
            rows = lanes & applies[0]
            if rows:
                found.append((entry, rows, applies))
                lanes ^= rows
        return found, lanes

    def dependency_and_visibility(self, opt: _Option) -> tuple[TriRows, TriRows]:
        dep = self.values.tri(opt.depends, self.ones)
        return dep, self.values.visibility(opt.item.prompts, dep, self.ones)

    # ---- steps

    def recompute_boolish(self, opt: _Option, dep: TriRows, vis: TriRows, lanes: int) -> None:
        v = self.values
        fge = fy = 0  # the select floor
        for selector, condition in opt.selectors:
            # Only rows whose configuration holds the selector read its condition.
            cge, cy = v.tri(condition, lanes & v.present[selector])
            fge |= v.ge[selector] & cge
            fy |= v.y[selector] & cy
        ones, shown = self.ones, vis[0]
        hidden = lanes & (ones ^ shown)
        if fge:
            # The floor exceeds the visibility on shown rows, the dependencies
            # on hidden ones.
            self.override |= (lanes & fy & (shown ^ vis[1])) | (
                hidden & ((fge & (ones ^ dep[0])) | (fy & (ones ^ dep[1])))
            )
        # Shown rows keep their value clamped between the floor and the
        # visibility.
        ge = (v.ge[opt.name] & vis[0]) | fge
        y = (v.y[opt.name] & vis[1]) | fy
        if hidden:
            # Hidden rows take the first applicable default, clamped by its
            # condition and the dependencies and raised to the floor.
            dge, dy = fge, fy
            found, _ = self.first_applicable(opt.item.defaults, dep, hidden)
            for default, rows, (age, ay) in found:
                vge, vy = v.tri(default.value, rows)
                dge |= rows & vge & age
                dy |= rows & vy & ay
            ge = (ge & shown) | (dge & hidden)
            y = (y & shown) | (dy & hidden)
        y |= ge & self.effective_bool(opt)
        self.set_tri(opt.name, (ge, y), lanes)

    def recompute_valued(self, opt: _Option, dep: TriRows, vis: TriRows) -> None:
        item, ones = opt.item, self.ones
        current = self.values.values[item.name]
        if item.type is OptionType.STRING:
            rows = (ones ^ vis[0]) | current.get(None, 0)
            if rows:
                found, rest = self.first_applicable(opt.literal_defaults, dep, rows)
                assignment = {None: rest}
                for default, drows, _ in found:
                    _add(assignment, default.value.text, drows)
                self.set_values(item.name, assignment)
            return

        found, rest = self.first_applicable(item.ranges, dep, ones)
        limits = [
            ((parse_number(active.low, item.type), parse_number(active.high, item.type)), rows)
            for active, rows, _ in found
        ] + [(None, rest)]
        # Shown rows keep a user value that parses and lies in the active
        # range verbatim; each distinct value is decided once.
        kept = 0
        for value, rows in current.items():
            rows &= vis[0]
            number = parse_number(value, item.type) if rows and value else None
            if number is None:
                continue
            for bounds, lrows in limits:
                if bounds is None or bounds[0] <= number <= bounds[1]:
                    kept |= rows & lrows
        todo = ones ^ kept
        if not todo:
            return
        found, rest = self.first_applicable(opt.literal_defaults, dep, todo)
        assignment = {None: rest}
        for default, drows, _ in found:
            number = parse_number(default.value.text, item.type)
            for bounds, lrows in limits:
                rows = drows & lrows
                if not rows:
                    continue
                if number is None:
                    _add(assignment, None, rows)
                    continue
                value = number if bounds is None else min(max(number, bounds[0]), bounds[1])
                _add(assignment, number_text(value, item.type), rows)
        self.set_values(item.name, assignment)

    def run_choice(self, step: _Choice) -> None:
        v, ones, choice = self.values, self.ones, step.block
        ch_vis = (0, 0)
        if choice.prompts:
            ch_vis = v.visibility(choice.prompts, v.tri(choice.depends, ones), ones)
        member_vis = [self.dependency_and_visibility(opt)[1] for opt in step.members]
        eff_bool = ones if choice.type is OptionType.BOOL else self.modules_disabled()

        # The mode: m raised to y where a visible member is y, lowered to
        # the choice's visibility, and y where the choice is effectively
        # boolean.
        any_y = 0
        for opt, (shown, _) in zip(step.members, member_vis):
            any_y |= shown & v.y[opt.name]
        mode_on = ch_vis[0]
        mode_y = (any_y & ch_vis[1]) | (mode_on & eff_bool)
        mode_m = mode_on ^ mode_y
        mode_off = ones ^ mode_on

        picks = self.chosen_members(step, member_vis, mode_y)
        for opt, (shown, _), pick in zip(step.members, member_vis, picks):
            # n mode clears the visible members, y mode selects the chosen
            # one alone, m mode lowers a visible y to m.
            lanes = shown & (mode_off | mode_y | (mode_m & v.y[opt.name]))
            self.set_tri(opt.name, (mode_m | pick, pick), lanes)

        for opt in step.members:
            # The selection above may have changed what a member's
            # dependencies and prompts read.
            dep, vis = self.dependency_and_visibility(opt)
            hidden = ones ^ vis[0]
            if hidden:
                self.recompute_boolish(opt, dep, vis, hidden)

    def chosen_members(self, step: _Choice, member_vis: list[TriRows], lanes: int) -> list[int]:
        """Per member, the rows of ``lanes`` (the y-mode rows) that select it.

        The candidates are the visible members whose own visibility reaches
        y, or that are effectively boolean: a true tristate member visible
        only at m cannot carry the selection of a y-mode choice.  A candidate
        already at y keeps it; otherwise the first choice default naming a
        candidate whose condition applies, else the first candidate.  The
        choice's dependencies are at least m on y-mode rows, so they do not
        limit the defaults there."""
        v, members = self.values, step.members
        candidates = [
            lanes & shown & (shown_y | self.effective_bool(opt))
            for opt, (shown, shown_y) in zip(members, member_vis)
        ]
        picks = [0] * len(members)
        for i, opt in enumerate(members):
            picks[i] = lanes & candidates[i] & v.y[opt.name]
            lanes ^= picks[i]
        if not lanes:
            return picks
        index = {opt.name: i for i, opt in enumerate(members)}
        for default in step.block.defaults:
            if not (isinstance(default.value, Sym) and default.value.name in index):
                continue
            i = index[default.value.name]
            naming = lanes & candidates[i]
            if naming:
                cge, _ = v.tri(default.condition, naming)
                rows = naming & cge
                picks[i] |= rows
                lanes ^= rows
        for i in range(len(members)):
            rows = lanes & candidates[i]
            picks[i] |= rows
            lanes ^= rows
        return picks

    def one_pass(self) -> int:
        self.changed = 0
        stamp, ran = self.stamp, self.ran
        for i, step in enumerate(self.steps):
            last = ran[i]
            if last and not any(stamp[name] >= last for name in step.reads):
                continue
            self.run += 1
            ran[i] = self.run
            if type(step) is _Choice:
                self.run_choice(step)
                continue
            dep, vis = self.dependency_and_visibility(step)
            if step.boolish:
                self.recompute_boolish(step, dep, vis, self.ones)
            else:
                self.recompute_valued(step, dep, vis)
        return self.changed


def repair_space(model: KconfigModel, columns: Columns, ones: int) -> SpaceRepair:
    """Run the repair to a fixpoint on every row of ``columns`` at once
    (``ones`` has one bit per row).

    ``changed`` is the OR of the rows each pass changed, with no comparison
    of the final columns against the given ones, and it is exactly the rows
    whose final values differ from their given ones.  A pass acts on each
    row by that row's values alone, and it changes a row exactly when the
    row is not at a fixpoint.  A repair that returns leaves every row at a
    fixpoint.  So a row that no pass changed ends as it started, and a row
    that some pass changed did not start at a fixpoint, so it cannot end
    where it started.  A row that a pass changes and then restores within
    the same pass is back where that pass began, so every later pass
    repeats that and the repair ends in :class:`NonConvergence`.

    Raises what the repair of the first failing row raises: the first
    :class:`~kconfex.errors.EvalError` met on that row, or
    :class:`NonConvergence` when its values still change after
    ``MAX_PASSES`` passes.
    """
    values = RowValues(model, columns, ones)
    state = _Repair(model, values)
    changed = 0
    for _ in range(MAX_PASSES):
        rows = state.one_pass()
        if not rows:
            break
        changed |= rows
    failing = state.changed  # rows still changing after the last pass
    for rows, _ in values.errors:
        failing |= rows
    if failing:
        row = failing & -failing
        errors = (exc for rows, exc in values.errors if rows & row)
        raise next(errors, NonConvergence(model.source_name, MAX_PASSES))
    return SpaceRepair(values.columns(), changed, state.override)


# --------------------------------------------------------------------------
# .config reading and writing


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def write_dotconfig(cfg: Configuration, sink, model: KconfigModel) -> None:
    """Write the kernel-style ``.config`` form of a configuration.

    Lines appear in model declaration order; options the model does not
    declare and unset non-boolean options produce no line.  String values
    are quoted, int and hex values written bare.  A string value holding a
    ``\\n``, which :func:`parse_dotconfig` could not read back, raises
    :class:`UnwritableValue` naming the option.
    """
    lines = []
    for item in model.items:
        name, value = item.name, cfg.get(item.name)
        if isinstance(value, Tri):
            if value is Tri.N:
                lines.append(f"# CONFIG_{name} is not set")
            else:
                lines.append(f"CONFIG_{name}={value.label}")
        elif value is None:
            continue
        elif item.type is OptionType.STRING:
            if "\n" in value:
                raise UnwritableValue(name, value)
            lines.append(f'CONFIG_{name}="{_escape(value)}"')
        else:
            lines.append(f"CONFIG_{name}={value}")
    sink.write("".join(line + "\n" for line in lines))


def parse_dotconfig(source) -> Configuration:
    """Parse ``.config`` text or bytes, whole or as a stream, back into a
    configuration map.  Lines end at ``\\n`` alone, as kconfig reads them
    (see :func:`numbered_lines`).  Raises :class:`FormatError` naming the
    line on bytes that are not UTF-8 and on a line that is no setting."""
    cfg: Configuration = {}
    for lineno, raw in numbered_lines(source, at_lf=True):
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
            cfg[name] = _unquote(value)
        else:
            cfg[name] = value
    return cfg


# --------------------------------------------------------------------------
# External configurator adapter


_UNMET_DEPENDENCIES = b"unmet direct dependencies"


def external_conf_oracle(
    conf_path: str,
    model_file: str,
    cfg: Configuration,
    workdir: str,
    model: KconfigModel,
) -> tuple[bool, bool]:
    """Ask a real ``conf`` binary whether the configuration survives repair.

    The configuration is written to a ``.config`` file, the binary runs in
    its non-interactive repair mode with ``KCONFIG_CONFIG`` pointing at the
    file, and the verdict is whether the file is semantically unchanged: the
    same set lines and the same not-set lines.  Returns the verdict and
    whether a select overrode an option's dependencies, which conf reports
    with its "unmet direct dependencies" warning.
    """
    # Imported here: the builtin oracle never starts a process, and the
    # module pulls in several others.
    import subprocess

    config_path = os.path.join(workdir, ".config.kconfex")
    with open(config_path, "w", encoding="utf-8") as sink:
        write_dotconfig(cfg, sink, model)
    with open(config_path, "rb") as fh:
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
        with open(config_path, "rb") as fh:
            after = parse_dotconfig(fh)
    except (OSError, FormatError) as exc:
        raise ProcessError(f"cannot read back {config_path}: {exc}") from exc
    warned = _UNMET_DEPENDENCIES in result.stdout or _UNMET_DEPENDENCIES in result.stderr
    return before == after, warned
