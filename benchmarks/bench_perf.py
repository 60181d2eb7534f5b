"""Performance-layer benchmarks: the vectorized TM kernel and the parallel
sweep engine under pytest-benchmark.

The machine-readable trajectory (``BENCH_perf.json``) and every speed gate
come from ``python -m repro bench``: the gates live in the registry in
``repro.analysis.perf`` and fail the command, not this file.  What stays
here is timing under pytest-benchmark, the bit-for-bit equality of parallel
and serial sweeps (the equality, not the timing, is the correctness
contract), and a smoke run of the registry itself.
"""

import json

import pytest

from repro.analysis.perf import BENCHMARKS, run_bench
from repro.analysis.sweep import Sweep, run_sweep
from repro.core.bas.tm import tm_values_vectorized
from repro.instances.random_trees import random_forest


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_bench_tm_vectorized(benchmark, n):
    forest = random_forest(n, seed=2018)
    forest.children_index  # warm the CSR layout; the DP is what's timed
    t, m = benchmark(tm_values_vectorized, forest, 2)
    assert len(t) == n and len(m) == n


def test_bench_sweep_parallel_identical(benchmark):
    from repro.analysis.config import CELL_REGISTRY

    cell = CELL_REGISTRY["bas_loss_random"]
    sweep = Sweep(axes={"n": [200], "k": [1, 2], "shape": ["attachment"]}, repeats=2)
    serial = run_sweep(sweep, cell, seed=7, workers=1)
    parallel = benchmark.pedantic(
        run_sweep, args=(sweep, cell), kwargs=dict(seed=7, workers=2),
        rounds=1, iterations=1,
    )
    assert serial == parallel


def test_bench_perf_json(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload, gates = run_bench(quick=True, out=str(out))
    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == "repro-bench-perf/2"
    assert on_disk["runs"][-1] == payload
    assert payload["schema"] == "repro-bench-perf/1"
    ops = {r["op"] for r in payload["records"]}
    assert "tm_values_vectorized" in ops and any(o.startswith("run_sweep") for o in ops)
    for rec in payload["records"]:
        assert rec["median_ms"] >= 0 and rec["p90_ms"] >= rec["median_ms"] * 0.999
    assert [g.name for g in gates] == [b.name for b in BENCHMARKS if b.gate is not None]
