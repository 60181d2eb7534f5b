"""The persistent shared-memory sweep pool (:mod:`repro.analysis.pool`).

The pool's contract has three legs, and each gets direct coverage here:

* **equality** — pool execution is bit-identical to serial, traced or not,
  for plain cells, ``batch_repeats`` cells, shared-corpus cells, and under
  armed fault injection (the spec snapshots the faults);
* **persistence** — workers survive across ``run_sweep`` calls (the
  ``pool.worker_reuse`` counter proves it), dead workers surface as
  :class:`~repro.analysis.pool.WorkerDied` and broken pools are replaced
  transparently by :func:`~repro.analysis.pool.get_pool`;
* **transport** — the shared-memory job block round-trips forests, numpy
  arrays and pickled values with 64-byte alignment, task messages carry
  only index chunks (``sweep.tasks_dispatched``), and the chunk heuristic
  :func:`~repro.analysis.pool.default_chunksize` honours its boundary
  cases.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.config import CELL_REGISTRY
from repro.analysis.pool import (
    SweepPool,
    WorkerDied,
    _pack_job,
    _pack_shared,
    _unpack_job,
    default_chunksize,
    get_pool,
    in_worker,
)
from repro.analysis.sweep import Sweep, run_sweep
from repro.core.bas.forest import Forest
from repro.instances.random_trees import random_forest
from repro.obs import MemorySink, Tracer
from repro.utils import faults


def _metric_cell(rng, n: int, k: int = 1) -> dict:
    """Module-level (picklable) cell driving the rng stream directly."""
    draws = rng.random(int(n))
    return {"mean": float(draws.mean()), "k_scaled": float(k * draws.sum())}


def _failing_cell(rng, n: int) -> dict:
    if int(n) == 13:
        raise ValueError("unlucky cell blew up")
    return {"ok": float(n)}


def _bad_batch_cell(rngs, n: int) -> list:
    return [{"x": 1.0}]  # always one run, regardless of len(rngs)


_bad_batch_cell.batch_repeats = True


def _exit_cell(rng, n: int) -> dict:
    os._exit(3)


def _nested_cell(rng, n: int) -> dict:
    """A cell that itself sweeps: must fall back to serial inside a worker."""
    inner = run_sweep(
        Sweep(axes={"n": [int(n)]}, repeats=2), _metric_cell, seed=1, workers=2
    )
    return {"inner": inner[0].metrics["mean"], "outer": float(rng.random())}


# ---------------------------------------------------------------------------
# chunk heuristic
# ---------------------------------------------------------------------------


class TestDefaultChunksize:
    @pytest.mark.parametrize(
        "n_cells,workers,expected",
        [
            (0, 4, 1),     # empty grid still yields the floor
            (1, 1, 1),
            (15, 4, 1),    # below 4*workers: floor kicks in
            (16, 4, 1),    # exactly 4 chunks per worker
            (17, 4, 1),    # floor division, not rounding
            (32, 4, 2),
            (16, 1, 4),
            (1000, 4, 62),
        ],
    )
    def test_boundaries(self, n_cells, workers, expected):
        assert default_chunksize(n_cells, workers) == expected

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="n_cells"):
            default_chunksize(-1, 2)
        with pytest.raises(ValueError, match="workers"):
            default_chunksize(4, 0)


# ---------------------------------------------------------------------------
# shared-memory transport (no worker processes involved)
# ---------------------------------------------------------------------------


class TestJobTransport:
    def test_round_trip_forests_arrays_and_pickles(self):
        forest = random_forest(40, trees=2, seed=3)
        corpus = [random_forest(12, seed=s) for s in range(3)]
        arr = np.arange(17, dtype=np.float64)
        manifest, arrays = _pack_shared(
            {"forest": forest, "forests": corpus, "weights": arr, "label": "x"}
        )
        shm = _pack_job({"cells": [{"n": 1}], "shared_manifest": manifest}, arrays)
        try:
            spec, shared = _unpack_job(shm)
            assert spec["cells"] == [{"n": 1}]
            assert all(off % 64 == 0 for off in spec["array_offsets"])
            out = shared["forest"]
            assert out.n == forest.n
            assert list(out.values) == list(forest.values)
            assert [f.n for f in shared["forests"]] == [f.n for f in corpus]
            np.testing.assert_array_equal(shared["weights"], arr)
            assert shared["label"] == "x"
            # Arrays are zero-copy views over the block, not copies.
            assert shared["weights"].base is not None
            del spec, shared, out
        finally:
            shm.close()
            shm.unlink()

    def test_empty_shared_packs_nothing(self):
        manifest, arrays = _pack_shared(None)
        assert manifest == {} and arrays == []


# ---------------------------------------------------------------------------
# serial-vs-pool equality
# ---------------------------------------------------------------------------


class TestPoolEquality:
    def test_untraced_bit_identical(self):
        sweep = Sweep(axes={"n": [40, 90], "k": [1, 2]}, repeats=2)
        serial = run_sweep(sweep, _metric_cell, seed=11, workers=1)
        pooled = run_sweep(sweep, _metric_cell, seed=11, workers=2)
        assert pooled == serial

    def test_traced_bit_identical_metrics(self):
        sweep = Sweep(axes={"n": [30, 60], "k": [1, 2]}, repeats=2)
        serial = run_sweep(sweep, _metric_cell, seed=7, workers=1)
        with Tracer(sinks=[MemorySink()]).activate():
            pooled = run_sweep(sweep, _metric_cell, seed=7, workers=2)
        assert [r.params for r in pooled] == [r.params for r in serial]
        assert [r.metrics for r in pooled] == [r.metrics for r in serial]
        assert all(r.trace is not None for r in pooled)

    def test_batch_repeats_cell_matches_serial(self):
        cell = CELL_REGISTRY["bas_loss_random_batched"]
        sweep = Sweep(axes={"n": [50, 80], "k": [1, 2]}, repeats=2)
        serial = run_sweep(sweep, cell, seed=3, workers=1)
        pooled = run_sweep(sweep, cell, seed=3, workers=2)
        assert pooled == serial

    def test_shared_corpus_cell_matches_serial(self):
        cell = CELL_REGISTRY["bas_loss_corpus"]
        corpus = [random_forest(30, shape="attachment", seed=s) for s in range(4)]
        sweep = Sweep(axes={"k": [1, 2]}, repeats=1)
        serial = run_sweep(sweep, cell, seed=0, workers=1, shared={"forests": corpus})
        pooled = run_sweep(sweep, cell, seed=0, workers=2, shared={"forests": corpus})
        assert pooled == serial

    def test_fault_injection_propagates_to_workers(self):
        # A fault armed in the parent is snapshot into the job spec, so
        # pool results must equal serial results *under the same fault* —
        # persistent workers forked before the arm included.
        cell = CELL_REGISTRY["bas_loss_random"]
        sweep = Sweep(axes={"n": [40, 70], "k": [2]}, repeats=2)
        run_sweep(sweep, _metric_cell, seed=0, workers=2)  # fork before arming
        with faults.inject("tm.loop.topk-order"):
            serial = run_sweep(sweep, cell, seed=5, workers=1)
            pooled = run_sweep(sweep, cell, seed=5, workers=2)
        assert pooled == serial

    def test_nested_sweep_falls_back_to_serial(self):
        assert not in_worker()
        sweep = Sweep(axes={"n": [20, 40]}, repeats=1)
        serial = run_sweep(sweep, _nested_cell, seed=2, workers=1)
        pooled = run_sweep(sweep, _nested_cell, seed=2, workers=2)
        assert pooled == serial


# ---------------------------------------------------------------------------
# counters and persistence
# ---------------------------------------------------------------------------


class TestCountersAndPersistence:
    def test_traced_sweep_counters(self):
        sweep = Sweep(axes={"n": [20, 30, 40, 50]}, repeats=1)
        tracer = Tracer(sinks=[MemorySink()])
        with tracer.activate():
            run_sweep(sweep, _metric_cell, seed=1, workers=2, chunksize=1)
            run_sweep(sweep, _metric_cell, seed=1, workers=2, chunksize=1)
        counters = tracer.counters
        assert counters["sweep.tasks_dispatched"] == 8  # 4 cells x 2 jobs
        assert counters["sweep.ipc_bytes_saved"] > 0
        assert counters["sweep.cells_run"] == 8
        # The second job ran on workers that had already served the first.
        assert counters["pool.worker_reuse"] >= 1
        assert counters.get("pool.workers_spawned", 0) <= 2

    def test_chunksize_controls_task_messages(self):
        sweep = Sweep(axes={"n": [10, 20, 30, 40]}, repeats=1)
        tracer = Tracer(sinks=[MemorySink()])
        with tracer.activate():
            run_sweep(sweep, _metric_cell, seed=0, workers=2, chunksize=4)
        assert tracer.counters["sweep.tasks_dispatched"] == 1

    def test_pool_persists_across_sweeps(self):
        pool = get_pool(2)
        run_sweep(Sweep(axes={"n": [5, 6]}), _metric_cell, seed=0, workers=2)
        assert get_pool(2) is pool
        pids = sorted(p.pid for p in pool._procs)
        run_sweep(Sweep(axes={"n": [7, 8]}), _metric_cell, seed=0, workers=2)
        assert sorted(p.pid for p in pool._procs) == pids


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


class TestFailureModes:
    def test_cell_exception_carries_worker_traceback(self):
        sweep = Sweep(axes={"n": [1, 13]}, repeats=1)
        with pytest.raises(RuntimeError) as exc:
            run_sweep(sweep, _failing_cell, seed=0, workers=2)
        assert "failed in pool worker" in str(exc.value)
        assert "unlucky cell blew up" in str(exc.value)
        # The pool is still usable after a cell error.
        ok = run_sweep(Sweep(axes={"n": [1, 2]}), _failing_cell, seed=0, workers=2)
        assert [r.metrics["ok"] for r in ok] == [1.0, 2.0]

    def test_batch_repeats_length_mismatch_raises(self):
        sweep = Sweep(axes={"n": [1, 2]}, repeats=3)
        with pytest.raises(ValueError, match="returned 1 runs for 3 repeats"):
            run_sweep(sweep, _bad_batch_cell, seed=0, workers=1)
        with pytest.raises(RuntimeError, match="returned 1 runs for 3 repeats"):
            run_sweep(sweep, _bad_batch_cell, seed=0, workers=2)

    def test_worker_death_detected_and_pool_replaced(self):
        sweep = Sweep(axes={"n": [1, 2]}, repeats=1)
        broken = get_pool(2)
        with pytest.raises(WorkerDied):
            run_sweep(sweep, _exit_cell, seed=0, workers=2)
        assert broken.broken
        fresh = get_pool(2)
        assert fresh is not broken
        # The replacement pool serves the next sweep bit-identically.
        serial = run_sweep(sweep, _metric_cell, seed=4, workers=1)
        assert run_sweep(sweep, _metric_cell, seed=4, workers=2) == serial

    def test_shutdown_pool_rejects_new_jobs(self):
        pool = SweepPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut-down"):
            pool.run_job(_metric_cell, [{"n": 1}], 1, 0)
        pool.shutdown()  # idempotent


# ---------------------------------------------------------------------------
# resource tracker hygiene
# ---------------------------------------------------------------------------


def test_pool_lifetimes_leave_the_resource_tracker_quiet():
    """Two pool lifetimes, one sweep each, print no tracker noise.

    (Regression: workers shared the parent's resource tracker but
    unregistered each job segment there, so the parent's own unlink made
    the tracker raise ``KeyError``; a worker that started its own tracker
    would report the segment as leaked instead.)
    """
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "from repro.analysis.config import CELL_REGISTRY\n"
        "from repro.analysis.pool import shutdown_pools\n"
        "from repro.analysis.sweep import Sweep, run_sweep\n"
        "for _ in range(2):\n"
        "    run_sweep(Sweep(axes={'n': [20, 30]}), CELL_REGISTRY['bas_loss_random'],\n"
        "              seed=0, workers=2)\n"
        "    shutdown_pools()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "KeyError" not in proc.stderr
    assert "leaked shared_memory" not in proc.stderr
