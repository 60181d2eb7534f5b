"""Persistent shared-memory worker pool for the sweep harness.

The previous parallel engine paid for itself on every call: a fresh
``ProcessPoolExecutor`` per sweep, and every cell's task pickled with its
cell function, parameter dict and spawned RNG generators.  BENCH_perf.json
recorded the result — ``run_sweep[workers=4]`` *slower* than serial.

This module replaces that with a pool that amortises everything that can
be amortised:

* **persistent workers** — spawned once per ``workers`` count and reused
  across ``run_sweep`` calls for the life of the process (see
  :func:`get_pool`); worker startup, interpreter boot and module imports
  are paid once, not per sweep;
* **one job spec per sweep, in shared memory** — the cell function,
  parameter grid, seed and shared corpus arrays are pickled *once* into a
  ``multiprocessing.shared_memory`` block; each worker maps it read-only
  on its first task of the job.  Forest corpora travel as flat CSR arrays
  (:meth:`repro.core.bas.forest.Forest.csr_payload`) and are rebuilt
  zero-copy on the worker side;
* **index-only task messages** — the task queue carries ``(job id, shm
  name, cell indices)`` tuples of a few dozen bytes; per-cell RNG streams
  are re-derived worker-side from ``(seed, index)`` via
  :func:`repro.utils.rng.spawn_rng_block`, which is bit-identical to the
  serial :func:`~repro.utils.rng.spawn_rngs` contract.

The transport preserves the sweep harness's two invariants: results are
collected and aggregated in deterministic cell order (so parallel output
is bit-identical to serial), and traced cells export their worker-side
tracer payloads for the parent to merge (the same transport the previous
engine used).  Armed fault injections (:mod:`repro.utils.faults`) are
snapshot into the job spec and re-armed in the worker for the job's
duration — a persistent worker forked *before* a fault was armed must
still see it, or serial-vs-parallel equality breaks under injection.

Observability counters (when a tracer is active in the parent):

* ``sweep.tasks_dispatched`` — task-queue messages (chunks) this job;
* ``sweep.ipc_bytes_saved`` — estimated pickle bytes the shared-memory
  transport avoided versus the legacy per-cell transport;
* ``pool.worker_reuse`` — workers that served this job having already
  served a previous one;
* ``pool.workers_spawned`` — worker processes forked (first job only,
  unless a worker died and was replaced).
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue as queue_mod
import struct
import threading
import traceback
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SweepPool", "get_pool", "shutdown_pools", "default_chunksize", "in_worker"]

#: Set in worker processes so a cell that itself calls ``run_sweep`` falls
#: back to serial execution instead of deadlocking on a nested pool.
_WORKER_ENV = "REPRO_SWEEP_POOL_WORKER"

#: Shared-memory block header: (spec length, arrays base offset).
_HEADER = struct.Struct("<QQ")

#: Alignment of the arrays region (and of each array within it).
_ALIGN = 64


def in_worker() -> bool:
    """Whether the current process is a sweep pool worker."""
    return bool(os.environ.get(_WORKER_ENV))


def default_chunksize(n_cells: int, workers: int) -> int:
    """Cells per task message: ``len(cells) / (4 * workers)``, floor 1.

    Four chunks per worker balances queue overhead against stragglers: the
    floor of 1 guarantees small grids still fan out one cell per message
    (never one chunk serialising the whole grid), while large grids keep
    messages coarse enough that the queue never becomes the bottleneck.
    """
    if n_cells < 0:
        raise ValueError(f"n_cells must be >= 0, got {n_cells}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return max(1, n_cells // (4 * workers))


# ---------------------------------------------------------------------------
# shared-memory job spec transport
# ---------------------------------------------------------------------------


def _pack_shared(shared: Optional[Dict[str, Any]]):
    """Split a ``shared=`` mapping into a picklable manifest plus raw arrays.

    Forests and numpy arrays are lifted out of the pickle stream into the
    shared-memory arrays region; anything else rides the spec pickle as-is.
    """
    from repro.core.bas.forest import Forest

    manifest: Dict[str, Any] = {}
    arrays: List[np.ndarray] = []

    def _add_array(arr: np.ndarray) -> Tuple[int, str, Tuple[int, ...]]:
        arr = np.ascontiguousarray(arr)
        arrays.append(arr)
        return (len(arrays) - 1, arr.dtype.str, arr.shape)

    def _encode(value):
        if isinstance(value, Forest):
            try:
                payload = value.csr_payload()
            except TypeError:
                return ("pickle", value)  # object-dtype values: pickle whole
            return ("forest", {name: _add_array(a) for name, a in payload.items()})
        if isinstance(value, (list, tuple)) and value and all(
            isinstance(v, Forest) for v in value
        ):
            return ("forest_seq", type(value).__name__, [_encode(v) for v in value])
        if isinstance(value, np.ndarray):
            return ("array", _add_array(value))
        return ("pickle", value)

    if shared:
        for name, value in shared.items():
            manifest[name] = _encode(value)
    return manifest, arrays


def _decode_shared(manifest: Dict[str, Any], get_array) -> Dict[str, Any]:
    from repro.core.bas.forest import Forest

    def _decode(entry):
        kind = entry[0]
        if kind == "forest":
            return Forest.from_csr_payload(
                {name: get_array(ref) for name, ref in entry[1].items()}
            )
        if kind == "forest_seq":
            seq = [_decode(e) for e in entry[2]]
            return tuple(seq) if entry[1] == "tuple" else seq
        if kind == "array":
            return get_array(entry[1])
        return entry[1]

    return {name: _decode(entry) for name, entry in manifest.items()}


def _pack_job(spec: Dict[str, Any], arrays: Sequence[np.ndarray]):
    """Pickle ``spec`` and lay it out with ``arrays`` in one shm block.

    Layout: 16-byte header ``(spec_len, arrays_base)``, the spec pickle,
    then the 64-byte-aligned arrays region addressed by the relative
    offsets the spec's manifest carries.
    """
    rel_offsets: List[int] = []
    cursor = 0
    for arr in arrays:
        cursor = -(-cursor // _ALIGN) * _ALIGN
        rel_offsets.append(cursor)
        cursor += arr.nbytes
    spec = dict(spec)
    spec["array_offsets"] = rel_offsets
    spec_bytes = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    arrays_base = -(-(_HEADER.size + len(spec_bytes)) // _ALIGN) * _ALIGN
    total = max(1, arrays_base + cursor)
    shm = shared_memory.SharedMemory(create=True, size=total)
    shm.buf[: _HEADER.size] = _HEADER.pack(len(spec_bytes), arrays_base)
    shm.buf[_HEADER.size : _HEADER.size + len(spec_bytes)] = spec_bytes
    for arr, rel in zip(arrays, rel_offsets):
        dest = np.ndarray(
            arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=arrays_base + rel
        )
        dest[...] = arr
    return shm


def _unpack_job(shm: shared_memory.SharedMemory):
    spec_len, arrays_base = _HEADER.unpack(bytes(shm.buf[: _HEADER.size]))
    spec = pickle.loads(bytes(shm.buf[_HEADER.size : _HEADER.size + spec_len]))
    offsets = spec["array_offsets"]

    def get_array(ref) -> np.ndarray:
        idx, dtype, shape = ref
        return np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf,
            offset=arrays_base + offsets[idx],
        )

    shared = _decode_shared(spec.get("shared_manifest", {}), get_array)
    return spec, shared


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_main(tasks, results) -> None:
    os.environ[_WORKER_ENV] = "1"
    # Forked workers inherit the parent's context: drop any active tracer
    # (cell traces must be fresh per task) and any armed faults (the job
    # spec is the only source of truth for injection state).
    from repro.obs import tracer as tracer_mod
    from repro.utils import faults

    tracer_mod._CURRENT.set(None)
    faults._active.clear()

    from repro.analysis.sweep import _execute_cell
    from repro.utils.rng import spawn_rng_block

    job_id = None
    job_shm = None
    spec: Dict[str, Any] = {}
    shared_kwargs: Dict[str, Any] = {}
    jobs_seen = 0
    while True:
        msg = tasks.get()
        if msg is None:
            break
        msg_job, shm_name, indices = msg
        if msg_job != job_id:
            shared_kwargs = {}
            spec = {}
            if job_shm is not None:
                try:
                    job_shm.close()
                except BufferError:  # pragma: no cover - lingering array views
                    pass
            job_shm = shared_memory.SharedMemory(name=shm_name)
            spec, shared_kwargs = _unpack_job(job_shm)
            job_id = msg_job
            jobs_seen += 1
            faults._active.clear()
            faults._active.update(spec.get("faults", ()))
        repeats = spec["repeats"]
        for index in indices:
            try:
                rngs = spawn_rng_block(spec["seed"], index * repeats, repeats)
                outcome = _execute_cell(
                    spec["cell_fn"],
                    spec["cells"][index],
                    rngs,
                    spec["trace"],
                    shared_kwargs,
                )
                error = None
            except BaseException:
                outcome, error = None, traceback.format_exc()
            results.put((msg_job, index, outcome, error, (os.getpid(), jobs_seen)))


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class WorkerDied(RuntimeError):
    """A pool worker process exited while its job was still running."""


class SweepPool:
    """A persistent pool of ``workers`` forked sweep processes.

    One job (= one ``run_sweep`` call) at a time; the instance lock makes
    concurrent ``run_job`` calls queue rather than interleave their task
    messages.  Workers survive across jobs — that persistence is the point.
    Use :func:`get_pool` rather than constructing pools directly so sweeps
    with the same worker count share one pool per process.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._ctx = get_context()
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._procs: List[Any] = []
        self._lock = threading.Lock()
        self._job_seq = 0
        self._spawned_total = 0
        self._served: set = set()  # pids that have completed at least one job
        self.broken = False
        self._closed = False

    # -- lifecycle --------------------------------------------------------

    def _ensure_workers(self) -> int:
        """Start (or replace dead) workers; returns how many were spawned."""
        alive = [p for p in self._procs if p.is_alive()]
        if len(alive) < self.workers:
            # Workers must share the parent's resource tracker: attaching a
            # segment registers it there (a no-op for a name the parent
            # already holds), and the parent's unlink retires it.  A worker
            # that started its own tracker would unlink the segment at exit
            # and report it as leaked.
            resource_tracker.ensure_running()
        spawned = 0
        while len(alive) < self.workers:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results),
                daemon=True,
                name=f"repro-sweep-worker-{self._spawned_total}",
            )
            proc.start()
            alive.append(proc)
            spawned += 1
            self._spawned_total += 1
        self._procs = alive
        return spawned

    def shutdown(self) -> None:
        """Stop the workers (best effort; the pool is unusable afterwards)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._procs:
                try:
                    self._tasks.put(None)
                except Exception:  # pragma: no cover - queue already torn down
                    break
            for proc in self._procs:
                proc.join(timeout=2.0)
            for proc in self._procs:
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
            self._procs = []
            for q in (self._tasks, self._results):
                try:
                    q.close()
                except Exception:  # pragma: no cover
                    pass

    # -- job execution ----------------------------------------------------

    def run_job(
        self,
        cell_fn,
        cells: Sequence[Dict[str, Any]],
        repeats: int,
        seed,
        *,
        trace: bool = False,
        shared: Optional[Dict[str, Any]] = None,
        chunksize: Optional[int] = None,
        tracer=None,
    ) -> List[Tuple[Any, Optional[Dict[str, Any]]]]:
        """Run every cell through the pool; returns outcomes in cell order.

        Each outcome is the ``(runs, trace_payload)`` pair
        :func:`repro.analysis.sweep._execute_cell` produces.  Raises
        :class:`WorkerDied` if a worker process vanishes mid-job and
        re-raises (with the worker traceback) any cell exception after the
        remaining cells finish.
        """
        from repro.utils import faults

        with self._lock:
            if self._closed:
                raise RuntimeError("run_job on a shut-down SweepPool")
            spawned = self._ensure_workers()
            self._job_seq += 1
            job_id = self._job_seq
            manifest, arrays = _pack_shared(shared)
            spec = {
                "cell_fn": cell_fn,
                "cells": list(cells),
                "repeats": repeats,
                "seed": seed,
                "trace": trace,
                "faults": tuple(sorted(faults.active_faults())),
                "shared_manifest": manifest,
            }
            shm = _pack_job(spec, arrays)
            if chunksize is None:
                chunksize = default_chunksize(len(cells), self.workers)
            chunks = [
                tuple(range(lo, min(lo + chunksize, len(cells))))
                for lo in range(0, len(cells), chunksize)
            ]
            if tracer is not None:
                if spawned:
                    tracer.count("pool.workers_spawned", spawned)
                tracer.count("sweep.tasks_dispatched", len(chunks))
                tracer.count("sweep.ipc_bytes_saved", self._ipc_bytes_saved(
                    cell_fn, cells, repeats, seed, trace, shared, shm.size, len(chunks)
                ))
            try:
                for chunk in chunks:
                    self._tasks.put((job_id, shm.name, chunk))
                outcomes, errors, reused = self._collect(job_id, len(cells))
            finally:
                shm.close()
                shm.unlink()
            if tracer is not None and reused:
                tracer.count("pool.worker_reuse", reused)
            if errors:
                index, tb = errors[0]
                raise RuntimeError(
                    f"sweep cell {index} failed in pool worker:\n{tb}"
                )
            return outcomes

    def _collect(self, job_id: int, n_cells: int):
        outcomes: List[Any] = [None] * n_cells
        errors: List[Tuple[int, str]] = []
        reused_pids: set = set()
        received = 0
        while received < n_cells:
            try:
                msg = self._results.get(timeout=1.0)
            except queue_mod.Empty:
                dead = [p for p in self._procs if not p.is_alive()]
                if dead:
                    self.broken = True
                    raise WorkerDied(
                        f"{len(dead)} sweep worker(s) exited mid-job "
                        f"(exitcodes {[p.exitcode for p in dead]})"
                    )
                continue
            msg_job, index, outcome, error, (pid, jobs_seen) = msg
            if msg_job != job_id:  # pragma: no cover - stale late result
                continue
            received += 1
            if error is not None:
                errors.append((index, error))
            else:
                outcomes[index] = outcome
            if jobs_seen > 1:
                reused_pids.add(pid)
        return outcomes, errors, len(reused_pids)

    def _ipc_bytes_saved(
        self, cell_fn, cells, repeats, seed, trace, shared, shm_size: int,
        n_chunks: int,
    ) -> int:
        """Estimated bytes the shm transport saves vs the legacy transport.

        The legacy engine pickled ``(cell_fn, params, rng generators,
        trace)`` — plus any shared corpus — per cell; one representative
        cell is measured and scaled.  Computed only when a tracer asks for
        it — pickling for the estimate is not free.
        """
        from repro.utils.rng import spawn_rng_block

        if not cells:
            return 0
        try:
            sample = pickle.dumps(
                (cell_fn, cells[0], spawn_rng_block(seed, 0, repeats), trace,
                 shared or {}),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:  # pragma: no cover - unpicklable legacy task
            return 0
        legacy = len(sample) * len(cells)
        new = shm_size + 64 * n_chunks
        return max(0, legacy - new)


_pools: Dict[int, SweepPool] = {}
_pools_lock = threading.Lock()


def get_pool(workers: int) -> SweepPool:
    """The process-wide persistent pool for ``workers`` (created on first use).

    Broken pools (a worker died) are transparently replaced.
    """
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None or pool.broken or pool._closed:
            if pool is not None:
                pool.shutdown()
            pool = SweepPool(workers)
            _pools[workers] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down every process-wide pool (atexit hook; callable from tests)."""
    with _pools_lock:
        for pool in _pools.values():
            pool.shutdown()
        _pools.clear()


atexit.register(shutdown_pools)
