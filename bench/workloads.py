"""The benchmark's workloads: set-up, the timed operation, and output checks.

Each workload makes its inputs from the seed in ``setup``, runs one
operation per ``op`` call through the program's public functions, reduces
the output to a small summary outside the timed region (``summarize``), and
judges the summaries after the run (``check``).  A check counts failed
operations; it never changes what was measured.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import gen
from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
HANDWRITTEN = BENCH / "corpus"
REFERENCE = BENCH / "reference.json"
FUZZ_GENERATED = 100

_MILLIS = re.compile(r" millis=\S+")


def load_program() -> SimpleNamespace:
    """Import the package afresh (dropping any loaded copy) and return its
    layer modules by name."""
    for name in [n for n in sys.modules if n == "kconfex" or n.startswith("kconfex.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("kconfex")
    return SimpleNamespace(package=package, **{m: importlib.import_module(f"kconfex.{m}") for m in LAYERS})


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def record_block(k: SimpleNamespace, report) -> str:
    """A report's corpus record and its mismatch and note lines, without the
    timing field."""
    text = k.difftest.CorpusReport([report]).render_text()
    return _MILLIS.sub("", text[: text.rindex("corpus files=")])


def _digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


class Workload:
    name = ""
    models_per_op = 0

    def setup(self, k: SimpleNamespace, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def op(self, k: SimpleNamespace):
        raise NotImplementedError

    def summarize(self, k: SimpleNamespace, output):
        raise NotImplementedError

    def retain(self, output):
        """What ``check`` needs of the first operation's raw output."""
        return None

    def check(self, k: SimpleNamespace, seed: int, summaries: list, retained) -> tuple[int, int, list[str], dict]:
        """(attempted, failed, problems, exact counts of one operation)."""
        raise NotImplementedError

    def reference(self, k: SimpleNamespace, workdir: Path):
        """The seed-0 reference this workload's check compares against."""
        raise NotImplementedError


class Bound(Workload):
    """One model at the 10-option enumeration bound, checked end to end."""

    name = "bound"
    models_per_op = 1

    def setup(self, k, seed, workdir):
        self.text = gen.bound_model_text(seed)

    def op(self, k):
        model = k.kconfig.parse_model(self.text, "bound")
        errors = [d for d in k.kconfig.validate_model(model) if d.severity == "error"]
        return errors, k.difftest.check_model(model, name="bound")

    def summarize(self, k, output):
        errors, report = output
        return {
            "block": record_block(k, report),
            "errors": len(errors),
            "passed": report.passed,
            "configs": report.config_count,
            "mismatch_rows": len(report.mismatches),
        }

    def check(self, k, seed, summaries, retained):
        expected = load_reference()["bound_seed0"] if seed == 0 else summaries[0]["block"]
        problems = []
        for i, s in enumerate(summaries):
            if s["errors"] or not s["passed"]:
                problems.append(f"op {i}: validation errors or FAILURE rows:\n{s['block']}")
            elif s["block"] != expected:
                problems.append(f"op {i}: report differs from the reference:\n{s['block']}")
        first = summaries[0]
        counts = {"models": 1, "configs": first["configs"], "mismatch_rows": first["mismatch_rows"]}
        return len(summaries), len(problems), problems, counts

    def reference(self, k, workdir):
        self.setup(k, 0, workdir)
        return self.summarize(k, self.op(k))["block"]


class Fuzz(Workload):
    """The handwritten corpus plus seeded generated models, checked with
    ``run_corpus`` in one process, as ``kconfex corpus DIR`` does."""

    name = "fuzz"

    def setup(self, k, seed, workdir):
        self.dir = workdir / "fuzz"
        self.dir.mkdir(parents=True, exist_ok=True)
        for old in self.dir.glob("*.kconfig"):
            old.unlink()
        self.handwritten = set()
        for path in sorted(HANDWRITTEN.glob("*.kconfig")):
            (self.dir / path.name).write_bytes(path.read_bytes())
            self.handwritten.add(path.name)
        for i in range(FUZZ_GENERATED):
            (self.dir / f"fuzz-{i:03d}.kconfig").write_text(gen.fuzz_model_text(seed, i), encoding="utf-8")
        self.models_per_op = len(self.handwritten) + FUZZ_GENERATED

    def op(self, k):
        return k.difftest.run_corpus(self.dir, k.difftest.CorpusOptions(jobs=1))

    def summarize(self, k, output):
        return {
            r.name: (record_block(k, r), r.passed, r.config_count, len(r.mismatches), len(r.known_limitations))
            for r in output.reports
        }

    def check(self, k, seed, summaries, retained):
        reference = load_reference()["corpus"]
        first = summaries[0]
        problems = []
        failed = 0
        for i, s in enumerate(summaries):
            for name, (block, passed, *_) in s.items():
                if name in self.handwritten:
                    bad = block != reference.get(name)
                else:
                    bad = not passed or block != first[name][0]
                if bad:
                    failed += 1
                    if i == 0:
                        problems.append(f"{name}:\n{block}")
        rows = list(first.values())
        counts = {
            "models": len(rows),
            "configs": sum(r[2] for r in rows),
            "mismatch_rows": sum(r[3] for r in rows),
            "known_limit_rows": sum(r[4] for r in rows),
            "failing_models": sum(1 for r in rows if not r[1]),
        }
        return len(summaries) * len(first), failed, problems, counts

    def reference(self, k, workdir):
        report = k.difftest.run_corpus(HANDWRITTEN, k.difftest.CorpusOptions(jobs=1))
        return {r.name: record_block(k, r) for r in report.reports}


class Extract(Workload):
    """Large models well past the enumeration bound, taken through what
    ``kconfex translate --model --dimacs`` does, with output kept in memory."""

    name = "extract"
    models_per_op = len(gen.EXTRACT_SIZES)

    def setup(self, k, seed, workdir):
        self.texts = [(f"extract-{n}", gen.extract_model_text(seed, n)) for n in gen.EXTRACT_SIZES]

    def op(self, k):
        out = []
        for name, text in self.texts:
            model = k.kconfig.parse_model(text, name)
            errors = [d for d in k.kconfig.validate_model(model) if d.severity == "error"]
            constraints = k.encode.translate(model)
            model_text = constraints.model_text()
            cnf = k.prop.tseitin_cnf(constraints.conjunction(), constraints.variable_order)
            sink = io.BytesIO()
            k.prop.write_dimacs(cnf, sink)
            out.append((name, model, errors, constraints, cnf, model_text, sink.getvalue()))
        return out

    def summarize(self, k, output):
        return {
            name: {
                "errors": len(errors),
                "options": len(model.items),
                "constraints": len(constraints),
                "variables": len(constraints.variable_order),
                "cnf_vars": cnf.num_vars,
                "cnf_clauses": len(cnf.clauses),
                "dimacs_bytes": len(dimacs),
                "model_sha256": _digest(model_text),
                "dimacs_sha256": _digest(dimacs),
            }
            for name, model, errors, constraints, cnf, model_text, dimacs in output
        }

    def retain(self, output):
        return [(entry[0], entry[-1]) for entry in output]

    def check(self, k, seed, summaries, retained):
        first = summaries[0]
        reference = load_reference()["extract_seed0"] if seed == 0 else first
        broken = set()
        problems = []
        for name, dimacs in retained:
            try:
                parsed = k.prop.parse_dimacs(io.BytesIO(dimacs))
                round_trip = (parsed.num_vars, len(parsed.clauses))
            except k.package.KconfexError as exc:  # malformed DIMACS is a failed check
                round_trip = repr(exc)
            if round_trip != (first[name]["cnf_vars"], first[name]["cnf_clauses"]):
                broken.add(name)
                problems.append(f"{name}: DIMACS round trip gave {round_trip}")
            if first[name]["errors"]:
                broken.add(name)
                problems.append(f"{name}: {first[name]['errors']} validation errors")
        failed = 0
        for i, s in enumerate(summaries):
            for name, entry in s.items():
                if name in broken or entry != reference.get(name):
                    failed += 1
                    if i == 0 and name not in broken:
                        problems.append(f"{name}: output differs from the reference: {entry}")
        keys = ("options", "constraints", "variables", "cnf_vars", "cnf_clauses", "dimacs_bytes")
        counts = {"models": len(first), **{key: sum(e[key] for e in first.values()) for key in keys}}
        return len(summaries) * len(first), failed, problems, counts

    def reference(self, k, workdir):
        self.setup(k, 0, workdir)
        return self.summarize(k, self.op(k))


WORKLOADS = {w.name: w for w in (Bound, Fuzz, Extract)}
