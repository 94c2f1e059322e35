"""Differential comparison of the translated formula against a configurator.

For a small model the harness enumerates every configuration, asks an oracle
(the builtin reference configurator by default) for a validity verdict per
configuration, evaluates each translated constraint on the boolean image of
each configuration, and reports disagreements.  Both sides see all
configurations at once, as row masks (bit k is row k): the formula's verdict
is the AND of the constraints' masks, and those masks name the constraints a
row violates.  Only the rows where the two sides disagree become
configuration maps.  Disagreements explained by
the documented select inaccuracy (the configurator lets a select force an
option past its dependencies) are classified KNOWN-LIMITATION; everything
else is a FAILURE.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from .encode import collect_numeric_values, translate
from .errors import KconfexError, TooManyRows
from .kconfig import KconfigModel, OptionType, parse_model, validate_model
from .oracle import repair_space
from .prop import ConstraintSet, Record, evaluate_mask
from .tri import Columns, Configuration, Tri, row_config

__all__ = [
    "MAX_CELLS",
    "MAX_ROWS",
    "Mismatch",
    "TestReport",
    "CorpusReport",
    "builtin_oracle",
    "row_oracle",
    "check_model",
    "run_corpus",
    "CorpusOptions",
    "generate_model_text",
]

# The most configurations one check enumerates, and the most cells (rows x
# option values: the bits of the columns) it builds.  At both bounds, 22 bool
# options check in 0.13-0.32 s at 83-95 MB peak RSS (2 vCPUs, Python 3.11).
MAX_ROWS = 2**22
MAX_CELLS = 44 * MAX_ROWS

# --------------------------------------------------------------------------
# Enumeration and boolean images


# An oracle maps a model and its enumerated rows (per-option columns and the
# mask of all rows) to two row masks: the rows it finds valid and the rows
# where a select overrode an option's dependencies.
Oracle = Callable[[KconfigModel, Columns, int], tuple[int, int]]


def builtin_oracle(model: KconfigModel, columns: Columns, ones: int) -> tuple[int, int]:
    """The reference configurator, repairing every row at once."""
    outcome = repair_space(model, columns, ones)
    return ones ^ outcome.changed, outcome.select_override_fired


def row_oracle(verdict: Callable[[KconfigModel, Configuration], tuple[bool, bool]]) -> Oracle:
    """An oracle asking ``verdict`` for (valid, select override fired) one
    configuration at a time, in row order."""

    def oracle(model: KconfigModel, columns: Columns, ones: int) -> tuple[int, int]:
        valid = override = 0
        for k in range(ones.bit_length()):
            ok, fired = verdict(model, row_config(columns, k))
            valid |= ok << k
            override |= fired << k
        return valid, override

    return oracle


def _enumerate(model: KconfigModel, max_rows: int = MAX_ROWS) -> tuple[Columns, int, list[str]]:
    """The configurations of a small model as rows: per option and value the
    rows holding it, the mask of all rows, and notes on skipped options.

    Options enumerate in declaration order, the last declared option varying
    fastest; bool options range over n,y, tristate over n,m,y, and valued
    options over their harvested values.  Valued options without any known
    value are skipped (the check report carries a note for them).  A model
    past ``max_rows`` rows or :data:`MAX_CELLS` cells raises before any column is built.
    """
    dom = collect_numeric_values(model)
    axes: dict[str, list] = {}
    notes: list[str] = []
    for item in model.items:
        if item.type is OptionType.BOOL:
            axes[item.name] = [Tri.N, Tri.Y]
        elif item.type is OptionType.TRISTATE:
            axes[item.name] = [Tri.N, Tri.M, Tri.Y]
        elif dom[item.name]:
            axes[item.name] = dom[item.name]
        else:
            notes.append(f"{item.name}: no known values, skipped in enumeration")
    rows = math.prod(len(axis) for axis in axes.values())
    cells = rows * sum(len(axis) for axis in axes.values())
    if rows > max_rows:
        raise TooManyRows(f"model has {rows} configurations, enumeration bound is {max_rows}")
    if cells > MAX_CELLS:
        raise TooManyRows(f"model has {cells} rows x values, enumeration bound is {MAX_CELLS}")
    ones = (1 << rows) - 1
    columns: Columns = {}
    stride = rows
    for name, axis in axes.items():
        # Row k is a mixed-radix number, the last option its lowest digit:
        # value j holds on runs of ``stride`` rows starting at ``j * stride``
        # within every period of ``stride * len(axis)`` rows.
        period, stride = stride, stride // len(axis)
        # Value 0's rows: one run per period, copied over the next periods by
        # doubling and cut to the rows; value j's are the same rows shifted
        # by j runs, which keeps them inside the rows, and the last value's
        # are the rows no other value holds.
        first, width = (1 << stride) - 1, period
        while width < rows:
            first |= first << width
            width *= 2
        first &= ones
        column, last = {}, ones
        for j, value in enumerate(axis[:-1]):
            held = first << (j * stride) if j else first
            column[value] = held
            last ^= held
        column[axis[-1]] = last
        columns[name] = column
    return columns, ones, notes


def _masks(model: KconfigModel, columns: Columns) -> dict[str, int]:
    """The boolean images of all enumerated configurations at once, read off
    the enumeration's columns: bit k of ``masks[v]`` is the value of variable
    ``v`` in configuration k (``O``: O is y, ``O_MODULE``: O is m, ``O_EQ_v``:
    O holds v).  A valued option's column holds exactly its harvested values;
    one without any has no column and no variable."""
    masks: dict[str, int] = {}
    for item in model.items:
        column = columns.get(item.name, {})
        if item.is_boolish:
            masks[item.name] = column[Tri.Y]
            masks[item.name + "_MODULE"] = column.get(Tri.M, 0)
        else:
            for value, rows in column.items():
                masks[f"{item.name}_EQ_{value}"] = rows
    return masks


# --------------------------------------------------------------------------
# Reports


class Mismatch(NamedTuple):
    cfg: Configuration
    oracle_verdict: bool
    formula_verdict: bool
    classification: str  # "FAILURE" | "KNOWN-LIMITATION"
    failed_constraints: tuple[str, ...] = ()

    def describe(self) -> str:
        parts = []
        for name, value in self.cfg.items():
            if isinstance(value, Tri):
                parts.append(f"{name}={value.label}")
            else:
                parts.append(f"{name}={value!r}" if value is not None else f"{name}=?")
        where = ", ".join(parts) or "<empty>"
        text = (
            f"[{self.classification}] {{{where}}}: "
            f"oracle={'valid' if self.oracle_verdict else 'invalid'} "
            f"formula={'valid' if self.formula_verdict else 'invalid'}"
        )
        if self.failed_constraints:
            text += " violates " + "; ".join(self.failed_constraints)
        return text


class TestReport(Record):
    _fields = ("name", "option_count", "config_count", "mismatches", "millis", "notes", "error")

    def __init__(
        self,
        name: str,
        option_count: int,
        config_count: int,
        mismatches: list[Mismatch],
        millis: float,
        notes: list[str] | None = None,
        error: str | None = None,
    ) -> None:
        self.name = name
        self.option_count = option_count
        self.config_count = config_count
        self.mismatches = mismatches
        self.millis = millis
        self.notes = [] if notes is None else notes
        self.error = error

    @property
    def failures(self) -> list[Mismatch]:
        return [m for m in self.mismatches if m.classification == "FAILURE"]

    @property
    def known_limitations(self) -> list[Mismatch]:
        return [m for m in self.mismatches if m.classification == "KNOWN-LIMITATION"]

    @property
    def passed(self) -> bool:
        return self.error is None and not self.failures


def check_model(
    model: KconfigModel,
    oracle: Oracle = builtin_oracle,
    constraints: ConstraintSet | None = None,
    max_rows: int = MAX_ROWS,
    name: str | None = None,
) -> TestReport:
    """Compare the translated constraints against the oracle on every
    enumerated configuration; past the bounds it raises before translating.

    The oracle's verdicts and the formula's are row masks.  Each constraint
    is evaluated once, bit-parallel over the rows' boolean images; the
    formula's verdict is the AND of those masks, and a disagreeing row
    violates the constraints whose mask lacks it.  Only the disagreeing rows
    are decoded, in row order.
    """
    started = time.perf_counter()
    columns, ones, notes = _enumerate(model, max_rows)
    if constraints is None:
        constraints = translate(model)
    valid, override = oracle(model, columns, ones)
    masks = _masks(model, columns)
    holds = [evaluate_mask(c.formula, masks, ones) for c in constraints]
    verdict = ones
    for rows in holds:
        verdict &= rows
    disagree = verdict ^ valid
    mismatches: list[Mismatch] = []
    while disagree:
        row = disagree & -disagree
        disagree ^= row
        cfg = row_config(columns, row.bit_length() - 1)
        oracle_verdict = bool(valid & row)
        if oracle_verdict and override & row:
            classification = "KNOWN-LIMITATION"
        else:
            classification = "FAILURE"
        failed = tuple(c.provenance for c, rows in zip(constraints, holds) if not rows & row)
        mismatches.append(
            Mismatch(cfg, oracle_verdict, not oracle_verdict, classification, failed)
        )
    millis = (time.perf_counter() - started) * 1000.0
    return TestReport(
        name=name or model.source_name,
        option_count=len(model.items),
        config_count=ones.bit_length(),
        mismatches=mismatches,
        millis=millis,
        notes=notes,
    )


# --------------------------------------------------------------------------
# Corpus runs


class CorpusOptions(Record):
    _fields = ("jobs", "generated", "seed")

    def __init__(self, jobs: int = 1, generated: int = 0, seed: int = 0) -> None:
        self.jobs = jobs
        self.generated = generated
        self.seed = seed


class CorpusReport(Record):
    _fields = ("reports", "seed")

    def __init__(self, reports: list[TestReport], seed: int = 0) -> None:
        self.reports = reports
        self.seed = seed

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def render_text(self) -> str:
        lines = []
        for r in sorted(self.reports, key=lambda r: r.name):
            status = "ERROR" if r.error else ("PASS" if r.passed else "FAIL")
            line = (
                f"file={r.name} options={r.option_count} configs={r.config_count} "
                f"failures={len(r.failures)} known_limits={len(r.known_limitations)} "
                f"millis={r.millis:.1f} status={status}"
            )
            if r.error:
                line += f" error={r.error!r}"
            lines.append(line)
            for m in r.mismatches:
                lines.append("  " + m.describe())
            for note in r.notes:
                lines.append(f"  note: {note}")
        total_fail = sum(1 for r in self.reports if not r.passed)
        total_err = sum(1 for r in self.reports if r.error)
        lines.append(
            f"corpus files={len(self.reports)} failing={total_fail} errors={total_err} "
            f"seed={self.seed} status={'PASS' if self.passed else 'FAIL'}"
        )
        return "".join(line + "\n" for line in lines)


def _error_report(name: str, error: str, option_count: int = 0) -> TestReport:
    return TestReport(name, option_count, config_count=0, mismatches=[], millis=0.0, error=error)


def _check_source(job: tuple[str, str]) -> TestReport:
    name, text = job
    try:
        model = parse_model(text, name)
        diagnostics = validate_model(model)
        errors = [d for d in diagnostics if d.severity == "error"]
        if errors:  # the model parsed: report its options
            return _error_report(name, "; ".join(str(d) for d in errors), len(model.items))
        return check_model(model, name=name)
    except TooManyRows as exc:  # the model parsed: report its options
        return _error_report(name, str(exc), len(model.items))
    except KconfexError as exc:
        return _error_report(name, str(exc))
    except RecursionError:
        return _error_report(name, "input nested too deeply")


def run_corpus(directory: str | Path, options: CorpusOptions | None = None) -> CorpusReport:
    """Check every ``.kconfig`` file in a directory, plus optional generated
    models; per-file errors, including a file that cannot be read, are
    recorded, never fatal."""
    options = options or CorpusOptions()
    directory = Path(directory)
    jobs: list[tuple[str, str]] = []
    unreadable: list[TestReport] = []
    for path in sorted(directory.glob("*.kconfig")):
        try:
            text = path.read_bytes().decode("utf-8")  # no newline translation
        except (OSError, UnicodeDecodeError) as exc:
            unreadable.append(_error_report(path.name, f"cannot read {path.name}: {exc}"))
            continue
        jobs.append((path.name, text))
    for i in range(options.generated):
        jobs.append((f"generated[seed={options.seed + i}]", generate_model_text(options.seed + i)))

    if options.jobs > 1 and len(jobs) > 1:
        # Imported here: only a pool needs it, and it would slow every start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=options.jobs) as pool:
            reports = list(pool.map(_check_source, jobs))
    else:
        reports = [_check_source(job) for job in jobs]
    reports += unreadable
    reports.sort(key=lambda r: r.name)
    return CorpusReport(reports, seed=options.seed)


# --------------------------------------------------------------------------
# Seeded model generation


def _gen_expr(
    rng: random.Random, pool: list[tuple[str, OptionType]], depth: int
) -> tuple[str, set[str]]:
    """Random condition text over the pool, plus the symbols it references."""
    if depth <= 0 or not pool or rng.random() < 0.4:
        name, opt_type = rng.choice(pool)
        roll = rng.random()
        if opt_type is OptionType.TRISTATE and roll < 0.3:
            return f"{name}='{rng.choice(['n', 'm', 'y'])}'", {name}
        if roll < 0.45:
            return f"!{name}", {name}
        return name, {name}
    op = rng.choice(["&&", "||"])
    left, ls = _gen_expr(rng, pool, depth - 1)
    right, rs = _gen_expr(rng, pool, depth - 1)
    return f"({left} {op} {right})", ls | rs


def generate_model_text(seed: int) -> str:
    """A small well-formed model mixing bool/tristate options, dependencies,
    defaults, selects, and (sometimes) a choice block.

    Deterministic in the seed.  A reads-graph is tracked while emitting so
    that no recursive value dependency is ever produced; repair therefore
    always converges on the generated models.
    """
    rng = random.Random(seed)
    lines: list[str] = [f"# generated model, seed={seed}"]
    declared: list[tuple[str, OptionType]] = []
    reads: dict[str, set[str]] = {}

    def reaches(src: str, dst: str) -> bool:
        seen = set()
        work = [src]
        while work:
            node = work.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            work.extend(reads.get(node, ()))
        return False

    count = rng.randint(2, 6)
    with_choice = rng.random() < 0.4 and count >= 3
    choice_size = rng.randint(2, 3) if with_choice else 0
    plain = count - choice_size
    use_modules = rng.random() < 0.25
    modules_name = "MODULES" if use_modules else None

    def emit_option(index: int, member: bool, choice_reads: set[str]) -> None:
        name = f"O{index}"
        opt_type = OptionType.TRISTATE if rng.random() < 0.45 else OptionType.BOOL
        reads[name] = set(choice_reads)
        if modules_name and opt_type is OptionType.TRISTATE:
            reads[name].add(modules_name)
        lines.append(f"config {name}")
        prompted = rng.random() < 0.85 if member else rng.random() < 0.7
        if prompted:
            cond = ""
            if declared and rng.random() < 0.25:
                text, syms = _gen_expr(rng, declared, 1)
                cond = f" if {text}"
                reads[name] |= syms
            lines.append(f'\t{opt_type.value} "{name.lower()}"{cond}')
        else:
            lines.append(f"\t{opt_type.value}")
        if declared and rng.random() < 0.4:
            text, syms = _gen_expr(rng, declared, 2)
            lines.append(f"\tdepends on {text}")
            reads[name] |= syms
        if not prompted or rng.random() < 0.3:
            for _ in range(rng.randint(1, 2)):
                if declared and rng.random() < 0.4:
                    value = rng.choice(declared)[0]
                    reads[name].add(value)
                else:
                    value = rng.choice(
                        ["y", "m", "n"] if opt_type is OptionType.TRISTATE else ["y", "n"]
                    )
                cond = ""
                if declared and rng.random() < 0.3:
                    text, syms = _gen_expr(rng, declared, 1)
                    cond = f" if {text}"
                    reads[name] |= syms
                lines.append(f"\tdefault {value}{cond}")
        if not member and declared and rng.random() < 0.25:
            cond = ""
            cond_syms: set[str] = set()
            if rng.random() < 0.3:
                text, cond_syms = _gen_expr(rng, declared, 1)
                cond = f" if {text}"
            sources = {name} | cond_syms
            targets = [
                t
                for t, tt in declared
                if tt in (OptionType.BOOL, OptionType.TRISTATE)
                and t not in sources
                and not any(reaches(s, t) for s in sources)
            ]
            if targets:
                target = rng.choice(targets)
                lines.append(f"\tselect {target}{cond}")
                reads[target] |= sources
        lines.append("")
        declared.append((name, opt_type))

    index = 0
    if modules_name:
        lines.append(f"config {modules_name}")
        lines.append('\tbool "modules"')
        lines.append("\toption modules")
        lines.append("")
        declared.append((modules_name, OptionType.BOOL))
        reads[modules_name] = set()
    for _ in range(plain):
        emit_option(index, member=False, choice_reads=set())
        index += 1
    if with_choice:
        choice_type = "tristate" if rng.random() < 0.3 else "bool"
        lines.append("choice")
        lines.append(f'\t{choice_type} "pick one"')
        choice_reads: set[str] = set()
        if modules_name and choice_type == "tristate":
            choice_reads.add(modules_name)
        if declared and rng.random() < 0.3:
            text, syms = _gen_expr(rng, declared, 1)
            lines.append(f"\tdepends on {text}")
            choice_reads |= syms
        lines.append("")
        for _ in range(choice_size):
            emit_option(index, member=True, choice_reads=choice_reads)
            index += 1
        lines.append("endchoice")
        lines.append("")
    return "\n".join(lines)
