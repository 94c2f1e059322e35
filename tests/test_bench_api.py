"""The benchmark's ``bound`` and ``extract`` workloads, once each at seed 0.

``bench/workloads.py`` drives the package through its public names and
compares the outputs with ``bench/reference.json``; running one operation
of each here catches a renamed or deleted name, or a changed output byte,
without the timed benchmark.  The package is the one already imported:
``workloads.load_program`` would import it afresh under the other tests.
Nothing under ``bench/`` is written.
"""

import importlib
from types import SimpleNamespace

import pytest

import kconfex

from conftest import bench_module


@pytest.fixture(scope="module")
def workloads():
    with bench_module("workloads") as module:
        yield module


@pytest.mark.parametrize("name", ["bound", "extract"])
def test_workload_matches_reference_at_seed_0(name, workloads, tmp_path):
    k = SimpleNamespace(
        package=kconfex, **{m: importlib.import_module(f"kconfex.{m}") for m in workloads.LAYERS}
    )
    workload = workloads.WORKLOADS[name]()
    workload.setup(k, 0, tmp_path)
    output = workload.op(k)
    summary = workload.summarize(k, output)
    attempted, failed, problems, _ = workload.check(k, 0, [summary], workload.retain(output))
    assert attempted > 0
    assert failed == 0, problems
