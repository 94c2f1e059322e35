"""Tests of the benchmark itself.

    python3 -m pytest bench/tests

Each run here uses ``seconds=0``: one operation untraced and, when traced,
one more with tracing on.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "bytes")


def _run(name: str, seed: int, trace: bool, tmp_path: Path) -> tuple[dict, dict]:
    return run.run(name, seed, 0.0, trace, tmp_path / "work", tmp_path / "out")


@pytest.mark.parametrize("name", ["bound", "fuzz", "extract"])
def test_exact_counts_repeat(name, tmp_path):
    first_result, first_info = _run(name, 5, True, tmp_path)
    second_result, second_info = _run(name, 5, True, tmp_path)
    assert first_info["counts"] == second_info["counts"]
    counts = {k: v for k, v in first_result["metrics"].items() if v["unit"] in COUNT_UNITS}
    assert counts == {k: v for k, v in second_result["metrics"].items() if v["unit"] in COUNT_UNITS}
    assert (first_result["attempted"], first_result["failed"]) == (second_result["attempted"], second_result["failed"])


def test_layer_self_times_add_up_to_traced_wall(tmp_path):
    result, _ = _run("extract", 0, True, tmp_path)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_ms"] for layer in (*tracing.LAYERS, "bench"))
    # Self times partition the root spans exactly; the root span exceeds the
    # timed wall only by the clock reads around it.
    assert layers == pytest.approx(metrics["trace.wall_ms"], rel=0.01)
    assert metrics["oracle.repair_calls"] == 0
    assert metrics["prop.tseitin_ms"] > 0 and metrics["encode.translate_calls"] == len(gen.EXTRACT_SIZES)
    assert result["correct"]
    assert list((tmp_path / "out").glob("trace-extract-seed0.tsv.gz"))


def test_dropping_at_most_one_fails_fuzz(tmp_path, monkeypatch):
    baseline, _ = _run("fuzz", 0, False, tmp_path)
    load = workloads.load_program

    def load_doctored():
        k = load()
        translate = k.encode.translate

        def doctored(model):
            full = translate(model)
            kept = [c for c in full if "at-most-one" not in c.provenance]
            return k.prop.ConstraintSet(constraints=kept, variable_order=full.variable_order)

        for module in (k.package, k.encode, k.difftest):
            monkeypatch.setattr(module, "translate", doctored)
        return k

    monkeypatch.setattr(workloads, "load_program", load_doctored)
    mutated, info = _run("fuzz", 0, False, tmp_path)
    assert mutated["failed"] > baseline["failed"]
    assert info["failed_frac"] > 0
    assert not mutated["correct"]


def test_scaled_durations_use_the_calibrations_on_either_side():
    nominal = run.NOMINAL_CALIBRATION_S
    durations = [1.0, 3.0]
    calibrations = [nominal, nominal, 3 * nominal]  # the machine slows down over the second duration
    assert run.scaled(durations, calibrations) == pytest.approx([1.0, 1.5])


def test_generators_are_deterministic():
    assert gen.bound_model_text(7) == gen.bound_model_text(7)
    assert gen.bound_model_text(7) != gen.bound_model_text(8)
    assert gen.fuzz_model_text(3, 11) == gen.fuzz_model_text(3, 11)
    assert gen.extract_model_text(3, 150) == gen.extract_model_text(3, 150)
    assert "depends on T1\n" in gen.bound_model_text(0) and "depends on T8\n" in gen.bound_model_text(0)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        command + ["--workload", "bound", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
