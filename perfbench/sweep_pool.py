"""The ``sweep-pool`` workload: ``run_sweep`` on the persistent worker pool.

A *request* here is one ``run_sweep`` call, issued back to back (a closed
loop of one caller):

* light — a two-cell sweep of :func:`price_cell` (one cell per worker):
  dispatch, the shared-memory transport and two small exact solves per cell;
* heavy — the full grid: :func:`price_cell` plus the registered
  ``price_mixed`` and ``bas_loss_random_batched`` cells.

Every call uses its own seed.  A sample of the calls is replayed
serially, outside the timed window, and must match exactly.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Tuple

import layers
import perlayer
from common import best_round, child_pids, median, tail_percentile, usable_cpus, vm_hwm_mb

#: Share of ``--seconds`` given to each timed phase.
SHARES = {"light": 0.35, "heavy": 0.65}
#: Pool launches per untraced run; ``setup_s`` is their median.
SETUPS = 15
#: Alternating light/heavy rounds per run; each metric takes its best round.
ROUNDS = 3
#: Every CHECK_EVERY-th call of a phase (and its last) is replayed serially.
CHECK_EVERY = {"light": 10, "heavy": 6}


def price_cell(rng, n: int = 20, k: int = 2) -> Dict[str, float]:
    """Realised price via the public facade on a ``random_integral_jobs`` instance."""
    import repro.api as api
    from repro.instances.random_jobs import random_integral_jobs

    jobs = random_integral_jobs(int(n), seed=rng)
    m = api.price_of_bounded_preemption(jobs, int(k))
    return {"price": float(m.price), "opt": float(m.opt_infty), "alg": float(m.alg_value)}


def grids() -> Dict[str, List[Tuple[object, Callable]]]:
    """The light and the heavy grid as ``[(Sweep, cell function)]``."""
    import sys

    from repro.analysis.config import CELL_REGISTRY
    from repro.analysis.sweep import Sweep

    cell = sys.modules[__name__].price_cell  # the traced wrapper once installed
    return {
        "light": [(Sweep({"n": [18, 19]}, repeats=2), cell)],
        "heavy": [
            (Sweep({"n": [16, 20, 24], "k": [1, 2]}, repeats=1), cell),
            (Sweep({"n": [30], "k": [1, 2]}, repeats=2), CELL_REGISTRY["price_mixed"]),
            (Sweep({"n": [200], "k": [1, 2]}, repeats=8), CELL_REGISTRY["bas_loss_random_batched"]),
        ],
    }


def _cell_runs(grid) -> int:
    return sum(len(sweep.cells()) * sweep.repeats for sweep, _fn in grid)


def _call(grid, seed: int, workers: int):
    import repro.analysis.sweep as sweep_mod

    return [
        [(r.params, r.metrics) for r in sweep_mod.run_sweep(sweep, fn, seed=seed, workers=workers)]
        for sweep, fn in grid
    ]


def _setup(workers: int) -> float:
    """Fork a fresh pool and run its first job; seconds taken."""
    from repro.analysis.pool import get_pool, shutdown_pools

    shutdown_pools()
    t0 = time.perf_counter()
    get_pool(workers)
    _call(grids()["light"], seed=2**31 - 1, workers=workers)
    return time.perf_counter() - t0


def _calls(grid, seconds: float, seeds: List[int], workers: int):
    """Back-to-back calls for ``seconds``, seeds drawn from ``seeds`` (consumed).

    Returns ``(latencies ms, seeds used, results, wall s)``.
    """
    lat, used, results = [], [], []
    t0 = time.perf_counter()
    while True:
        seed = seeds.pop(0)
        c0 = time.perf_counter()
        results.append(_call(grid, seed, workers))
        now = time.perf_counter()
        lat.append((now - c0) * 1e3)
        used.append(seed)
        if now - t0 >= seconds:
            return lat, used, results, now - t0


def _drive(seed: int, seconds: float, workers: int, names=("light", "heavy")):
    """:data:`ROUNDS` rounds alternating the light and the heavy call."""
    seeds = {name: list(range(seed * 1_000_000 + 500_000 * i, seed * 1_000_000 + 500_000 * (i + 1)))
             for i, name in enumerate(("light", "heavy"))}
    rounds = {name: [] for name in names}
    for _r in range(ROUNDS):
        for name in names:
            rounds[name].append(
                _calls(grids()[name], seconds * SHARES[name] / ROUNDS, seeds[name], workers)
            )
    return rounds


def _throughput(heavy_round) -> float:
    _lat, used, _results, wall = heavy_round
    return len(used) * _cell_runs(grids()["heavy"]) / wall


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, workdir: str):
    from repro.analysis.pool import shutdown_pools
    from repro.obs.tracer import Tracer

    workers = usable_cpus()
    lines: List[str] = []
    errors: List[str] = []

    untraced_tp = None
    if trace:
        # The untraced twin of the traced heavy phase, for obs.overhead_pct.
        _setup(workers)
        twin = _drive(seed, seconds, workers, names=("heavy",))
        untraced_tp = best_round([_throughput(r) for r in twin["heavy"]], higher_is_better=True)
        sink = layers.EventSink()
        layers.install(sink)
        globals()["price_cell"] = layers.wrap_cell(price_cell)
        tracer = Tracer(sinks=[sink])

    try:
        setups = [_setup(workers) for _ in range(1 if trace else SETUPS)]
        t_start = time.time()
        if trace:
            with tracer.activate():
                counters0 = dict(tracer.counters)
                rounds = _drive(seed, seconds, workers)
                counters1 = dict(tracer.counters)
        else:
            rounds = _drive(seed, seconds, workers)
        t_end = time.time()
        rss = sum(vm_hwm_mb(pid) for pid in [os.getpid()] + child_pids(os.getpid()))
    finally:
        shutdown_pools()

    checked = 0
    for name, parts in rounds.items():
        seeds = [s for part in parts for s in part[1]]
        results = [res for part in parts for res in part[2]]
        for i, (s, got) in enumerate(zip(seeds, results)):
            if i % CHECK_EVERY[name] and i != len(seeds) - 1:
                continue
            checked += 1
            if got != _call(grids()[name], s, workers=1):
                errors.append(f"{name} sweep seed {s}: pool results differ from a serial run")
        lat = [part[0] for part in parts]
        tails = [tail_percentile(r) for r in lat]
        lines.append(f"# {name} rounds: calls " + " ".join(str(len(r)) for r in lat)
                     + " | p50 " + " ".join(f"{median(r):.3f}" for r in lat)
                     + " | tail " + " ".join(f"p{p}={v:.3f}(n={n})" for p, v, n in tails))
    lines.append(f"# serial replays checked: {checked}")
    lines.append(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    tput = [_throughput(r) for r in rounds["heavy"]]
    lines.append(f"# cells_per_s rounds: {' '.join(f'{x:.2f}' for x in tput)} "
                 f"({_cell_runs(grids()['heavy'])} cell-runs per grid)")
    metrics = {}
    for name in ("light", "heavy"):
        lat = [part[0] for part in rounds[name]]
        metrics[f"p50_ms.{name}"] = (best_round([median(r) for r in lat]), "ms")
        metrics[f"p99_ms.{name}"] = (best_round([tail_percentile(r)[1] for r in lat]), "ms")
    throughput = best_round(tput, higher_is_better=True)
    metrics["throughput_per_s"] = (throughput, "1/s")
    metrics["setup_s"] = (median(setups), "s")
    metrics["rss_mb"] = (rss, "MiB")

    layer_values = None
    if trace:
        trees = layers.load_trees(sink.trees)
        trees_in = perlayer.in_window(trees, [(t_start, t_end)])
        by = perlayer.nodes_by_name(trees_in)
        cells = by.get("L.sweep.cell", [])
        values = perlayer.solver_metrics(by)
        wall = sum(part[3] for parts in rounds.values() for part in parts)

        def delta(name: str) -> float:
            return float(counters1.get(name, 0) - counters0.get(name, 0))

        values.update({
            "sweep.cell_p50_ms": median(perlayer.ms_of(cells)) if cells else 0.0,
            "sweep.cell_p99_ms": tail_percentile(perlayer.ms_of(cells))[1] if cells else 0.0,
            "pool.busy_share": sum(perlayer.ms_of(cells)) / 1e3 / (workers * wall),
            "pool.worker_reuse": delta("pool.worker_reuse"),
            "sweep.tasks_dispatched": delta("sweep.tasks_dispatched"),
            "obs.overhead_pct": (untraced_tp - throughput) / untraced_tp * 100.0,
        })
        lines.append("# layer table (timed window): span, calls, inclusive p50, self p50")
        lines.extend(perlayer.layer_table(by))
        layer_values = perlayer.complete(values)
    attempted = sum(len(part[1]) for parts in rounds.values() for part in parts)
    return {
        "metrics": metrics,
        "per_layer": layer_values,
        "lines": lines,
        "errors": errors,
        "attempted": attempted,
        "failed": 0,
    }
