"""kconfex benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload bound|fuzz|extract --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-references

Run from a checkout: the program is imported from ``src/`` next to this
directory, never from an installed copy, and the run fails (exit 2, no result)
when it is missing.  Set-up (fresh import of the package plus making the
workload's inputs from the seed) is repeated and its median reported.  The
workload's operation then runs in a closed loop, single process, for the
given number of seconds.  With ``--trace 1`` the first half of the time runs
untraced and the second half with every public function of the program's
layers wrapped in spans; the trace is written to ``.bench_out/``.

The shared hosts this runs on change speed by up to 1.5x for tens of seconds
at a time, which no statistic over one run can average out.  So a fixed piece
of pure-Python work that runs no program code (``calibrate``) is timed before
every set-up and every operation and after the last, and ``setup_s`` and
``wall_s`` are medians of durations scaled to a machine on which that work
takes ``NOMINAL_CALIBRATION_S``: each duration is multiplied by
``NOMINAL_CALIBRATION_S`` over the mean of the calibrations on either side of
it.  The unscaled medians are on the info line (``raw_setup_s``,
``raw_wall_s``) beside the median calibration time.

Outputs are checked after the timed loop.  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics untraced, per-layer metrics traced); the line before it
records the environment, sample counts and exact counts.  The exit code is 1
when any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gen
import workloads
from tracing import LAYERS, Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
CALIBRATION_MODELS = 60
# Reference speed: about the median of ``calibrate()`` on a 2-vCPU x86-64 Xeon
# host under Python 3.11.7, where its quartiles over twenty 55-second runs were
# 0.22 s and 0.29 s.
NOMINAL_CALIBRATION_S = 0.255


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kconfex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work that calls no
    program code: generating the same sixty 300-option models."""
    t0 = time.perf_counter()
    for i in range(CALIBRATION_MODELS):
        gen.extract_model_text(i, 300)
    return time.perf_counter() - t0


def scaled(durations: list[float], calibrations: list[float]) -> list[float]:
    """Each duration at the nominal machine speed, from the calibrations taken
    just before and just after it (``calibrations`` has one more entry)."""
    return [
        d * 2 * NOMINAL_CALIBRATION_S / (before + after)
        for d, before, after in zip(durations, calibrations, calibrations[1:])
    ]


def _timed_loop(workload, k, seconds: float, recorder=None):
    """Run operations for ``seconds`` (at least one; none is started that
    the medians so far say would end later), with a calibration before each
    and after the last; return the wall time of each, the calibrations, the
    operations' summaries and what the check keeps of the first."""
    walls: list[float] = []
    calibrations = [calibrate()]
    summaries: list = []
    retained = None
    started = time.perf_counter()
    while not walls or (
        time.perf_counter() - started + statistics.median(walls) + statistics.median(calibrations) <= seconds
    ):
        if recorder is None:
            t0 = time.perf_counter()
            output = workload.op(k)
            t1 = time.perf_counter()
        else:
            with recorder.operation():
                t0 = time.perf_counter()
                output = workload.op(k)
                t1 = time.perf_counter()
        calibrations.append(calibrate())
        walls.append(t1 - t0)
        if retained is None:
            retained = workload.retain(output)
        summaries.append(workload.summarize(k, output))
        del output
    return walls, calibrations, summaries, retained


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(recorder, traced_walls: list[float], untraced_walls: list[float], counts: dict) -> dict:
    """Per-layer metrics from a traced run, averaged per operation."""
    s = recorder.summary()
    ops = len(traced_walls)
    calls, incl, own, c = s["calls"], s["inclusive_ns"], s["self_ns"], recorder.counters

    def ms(ns: float) -> dict:
        return _metric(ns / 1e6 / ops, "ms")

    def per_op(n: float) -> dict:
        return _metric(n / ops, "count")

    repair_calls = calls["oracle.repair"]
    checks = [d / 1e6 for d in s["durations_ns"].get("difftest.check_model", [])]
    m = {
        "oracle.repair_ms": ms(incl["oracle.repair"]),
        "oracle.repair_calls": per_op(repair_calls),
        "oracle.repair_us_per_call": _metric(incl["oracle.repair"] / 1e3 / repair_calls if repair_calls else 0.0, "us"),
        "oracle.changed_frac": _metric(c["oracle.changed_rows"] / repair_calls if repair_calls else 0.0, "ratio"),
        "oracle.override_rows": per_op(c["oracle.override_rows"]),
        "difftest.embed_ms": ms(incl["difftest.embed"]),
        "difftest.embed_calls": per_op(calls["difftest.embed"]),
        "prop.evaluate_ms": ms(incl["prop.evaluate"]),
        "prop.evaluate_calls": per_op(calls["prop.evaluate"]),
        "prop.evaluate_mask_ms": ms(incl["prop.evaluate_mask"]),
        "prop.evaluate_mask_calls": per_op(calls["prop.evaluate_mask"]),
        "difftest.enumerate_ms": ms(own["difftest.ground_truth"]),
        "difftest.configs": per_op(c["difftest.configs"]),
        "difftest.classify_evaluate_calls": per_op(c["difftest.classify_evaluate_calls"]),
        "difftest.mismatch_rows": per_op(c["difftest.mismatch_rows"]),
        "difftest.known_limit_rows": per_op(c["difftest.known_limit_rows"]),
        "difftest.check_self_ms": ms(own["difftest.check_model"]),
        "difftest.check_ms_p50": _metric(percentile(checks, 0.5), "ms"),
        "difftest.check_ms_p90": _metric(percentile(checks, 0.9), "ms"),
        "kconfig.parse_ms": ms(incl["kconfig.parse_model"]),
        "kconfig.validate_ms": ms(incl["kconfig.validate_model"]),
        "kconfig.parse_calls": per_op(calls["kconfig.parse_model"]),
        "kconfig.options": per_op(c["kconfig.options"]),
        "encode.translate_ms": ms(incl["encode.translate"]),
        "encode.translate_calls": per_op(calls["encode.translate"]),
        "encode.constraints": per_op(c["encode.constraints"]),
        "encode.variables": per_op(c["encode.variables"]),
        "prop.model_text_ms": ms(incl["prop.model_text"]),
        "prop.tseitin_ms": ms(incl["prop.tseitin_cnf"]),
        "prop.cnf_vars": per_op(c["prop.cnf_vars"]),
        "prop.cnf_clauses": per_op(c["prop.cnf_clauses"]),
        "prop.dimacs_ms": ms(incl["prop.write_dimacs"]),
        "prop.dimacs_bytes": _metric(counts.get("dimacs_bytes", 0), "bytes"),
    }
    for layer in (*LAYERS, "bench"):
        m[f"{layer}.self_ms"] = ms(s["layer_self_ns"][layer])
    m["trace.wall_ms"] = _metric(sum(traced_walls) * 1e3 / ops, "ms")
    m["trace.overhead_s"] = _metric(statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path, out_dir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info)."""
    workload = workloads.WORKLOADS[workload_name]()
    calibrate()  # warm-up: the first call pays for cold caches
    setup_times = []
    setup_calibrations = [calibrate()]
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous import's module cycles are not this set-up's cost
        t0 = time.perf_counter()
        k = workloads.load_program()
        workload.setup(k, seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        setup_calibrations.append(calibrate())
    loaded_from = Path(k.package.__file__).resolve()
    if SRC.resolve() not in loaded_from.parents:
        raise SystemExit(f"error: kconfex was imported from {loaded_from}, not from {SRC}")

    budget = seconds / 2 if trace else seconds
    gc.collect()
    walls, calibrations, summaries, retained = _timed_loop(workload, k, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced_walls: list[float] = []
    recorder = None
    if trace:
        recorder = Recorder()
        recorder.install()
        try:
            traced_walls, _, traced_summaries, _ = _timed_loop(workload, k, budget, recorder)
        finally:
            recorder.uninstall()
        summaries += traced_summaries

    attempted, failed, problems, counts = workload.check(k, seed, summaries, retained)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    wall = statistics.median(scaled(walls, calibrations))
    if trace:
        metrics = layer_metrics(recorder, traced_walls, walls, counts)
        out_dir.mkdir(parents=True, exist_ok=True)
        recorder.write(out_dir / f"trace-{workload_name}-seed{seed}.tsv.gz")
        counts.update(
            repair_calls=metrics["oracle.repair_calls"]["value"],
            evaluate_calls=metrics["prop.evaluate_calls"]["value"],
        )
    else:
        metrics = {
            "setup_s": _metric(statistics.median(scaled(setup_times, setup_calibrations)), "s"),
            "wall_s": _metric(wall, "s"),
            "models_per_s": _metric(workload.models_per_op / wall, "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    info = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "samples": {
            "setup": len(setup_times),
            "ops": len(walls),
            "traced_ops": len(traced_walls),
            "calibrations": len(setup_calibrations) + len(calibrations),
        },
        "raw_setup_s": statistics.median(setup_times),
        "raw_wall_s": statistics.median(walls),
        "calibration_s": statistics.median(setup_calibrations + calibrations),
        "nominal_calibration_s": NOMINAL_CALIBRATION_S,
        "counts": counts,
        "failed_frac": failed / attempted,
        "configs_per_s": counts.get("configs", 0) / wall,
        "walls_s": walls,
        "calibrations_s": calibrations,
        "traced_walls_s": traced_walls,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def record_references(workdir: Path) -> None:
    k = workloads.load_program()
    reference = {
        "corpus": workloads.Fuzz().reference(k, workdir),
        "bound_seed0": workloads.Bound().reference(k, workdir),
        "extract_seed0": workloads.Extract().reference(k, workdir),
    }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true", help="rewrite bench/reference.json at seed 0")
    args = parser.parse_args(argv)
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "kconfex" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload or 'reference'}-{os.getpid()}"
    try:
        if args.record_references:
            record_references(workdir)
            return 0
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, ROOT / ".bench_out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
