"""Command-line interface.

Exit codes: 0 pass, 1 differential failure, 2 input error, 3 enumeration
bound exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import shutil
import sys
import tempfile
from pathlib import Path

from .difftest import MAX_ROWS, CorpusOptions, builtin_oracle, check_model, row_oracle, run_corpus
from .encode import translate
from .errors import KconfexError, TooManyRows
from .kconfig import KconfigModel, parse_model, validate_model
from .oracle import external_conf_oracle
from .prop import tseitin_cnf, write_dimacs

EXIT_PASS = 0
EXIT_DIFF_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_BOUND = 3


def _load_model(path: str) -> KconfigModel:
    try:
        text = Path(path).read_bytes().decode("utf-8")  # no newline translation
    except (OSError, UnicodeDecodeError) as exc:
        raise KconfexError(f"cannot read {path}: {exc}") from exc
    model = parse_model(text, Path(path).name)
    diagnostics = validate_model(model)
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        raise KconfexError("validation failed")
    return model


@contextlib.contextmanager
def _output(path: str, mode: str = "w"):
    """An output file opened for writing; a failure to open or write it is
    an input error naming the path."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as sink:
            yield sink
    except OSError as exc:
        raise KconfexError(f"cannot write {path}: {exc}") from exc


def cmd_translate(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    constraints = translate(model)
    if args.model_out:
        with _output(args.model_out) as sink:
            sink.write(constraints.model_text())
    cnf = None
    if args.dimacs:
        cnf = tseitin_cnf(constraints.conjunction(), constraints.variable_order)
        with _output(args.dimacs, "wb") as sink:
            write_dimacs(cnf, sink)
    print(f"options: {len(model.items)}")
    print(f"variables: {len(constraints.variable_order)}")
    print(f"constraints: {len(constraints)}")
    if cnf is not None:
        print(f"cnf variables: {cnf.num_vars}")
        print(f"cnf clauses: {len(cnf.clauses)}")
    return EXIT_PASS


def _make_oracle(selector: str, model_file: str):
    """The oracle a selector names, the most rows it may judge, and the work
    directory it needs removed afterwards, if any."""
    if selector == "builtin":
        return builtin_oracle, MAX_ROWS, None
    if selector.startswith("exec:"):
        conf_path = selector[len("exec:") :]
        if not conf_path:
            raise KconfexError(f"oracle {selector!r} names no configurator (use 'exec:<path>')")
        workdir = tempfile.mkdtemp(prefix="kconfex-conf-")

        def verdict(model, cfg):
            return external_conf_oracle(conf_path, model_file, cfg, workdir, model)

        # One conf process per row: at most the rows of ten tristates.
        return row_oracle(verdict), 3**10, workdir
    raise KconfexError(f"unknown oracle {selector!r} (use 'builtin' or 'exec:<path>')")


def cmd_check(args: argparse.Namespace) -> int:
    workdir = None
    try:
        model = _load_model(args.file)
        oracle, max_rows, workdir = _make_oracle(args.oracle, args.file)
        report = check_model(model, oracle=oracle, max_rows=max_rows)
    except TooManyRows as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    for mismatch in report.mismatches:
        print(mismatch.describe())
    for note in report.notes:
        print(f"note: {note}")
    print(
        f"{report.name}: {report.config_count} configurations, "
        f"{len(report.failures)} failures, "
        f"{len(report.known_limitations)} known limitations "
        f"({report.millis:.1f} ms)"
    )
    if report.failures:
        return EXIT_DIFF_FAILURE
    if report.known_limitations:
        print("warning: disagreements limited to the documented select behavior")
    return EXIT_PASS


def cmd_corpus(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    options = CorpusOptions(jobs=args.jobs, generated=args.generated, seed=args.seed)
    report = run_corpus(directory, options)
    text = report.render_text()
    if args.report:
        with _output(args.report) as sink:
            sink.write(text)
    sys.stdout.write(text)
    return EXIT_PASS if report.passed else EXIT_DIFF_FAILURE


def cmd_stats(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    constraints = translate(model)
    cnf = tseitin_cnf(constraints.conjunction(), constraints.variable_order)
    print(f"options: {len(model.items)}")
    print(f"choices: {len(model.choices)}")
    print(f"constraints: {len(constraints)}")
    print(f"variables: {len(constraints.variable_order)}")
    print(f"cnf variables: {cnf.num_vars}")
    print(f"cnf clauses: {len(cnf.clauses)}")
    return EXIT_PASS


def _count(least: int):
    """An argparse type: an int of at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The command line; a malformed or out-of-range count is a usage error,
    which argparse reports with exit 2."""
    parser = argparse.ArgumentParser(
        prog="kconfex",
        description="Translate kconfig-subset models to propositional formulas "
        "and differentially test the translation against a reference configurator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="emit .model and/or DIMACS for a file")
    p.add_argument("file")
    p.add_argument("--model", dest="model_out", help="write the textual constraint list here")
    p.add_argument("--dimacs", help="write DIMACS CNF here")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("check", help="differentially test one file")
    p.add_argument("file")
    p.add_argument("--oracle", default="builtin", help="'builtin' or 'exec:<conf path>'")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("corpus", help="differentially test a directory of .kconfig files")
    p.add_argument("dir")
    p.add_argument("--jobs", type=_count(1), default=1)
    p.add_argument(
        "--generated", type=_count(0), default=0, help="additionally check N seeded generated models"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="also write the report here")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("stats", help="print size statistics for a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KconfexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        # The evaluators, the encoder and the formula walkers recurse over an
        # expression and over the dependencies an option accumulates.
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
