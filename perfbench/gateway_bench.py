"""The gateway workloads: ``gateway-hot`` and ``gateway-cold``.

One run: prepare the inputs, launch the fleet (a gateway process with
``nproc`` shards of one solver thread each) several times to time set-up,
warm it, then drive it open loop at the light and the heavy rate and
closed loop for the saturated throughput.  Every answer is checked after
the timed window; any wrong value, wrong shard or invalid degraded
schedule fails the run.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import layers
import mixes
import perlayer
from common import (
    child_pids,
    cpu_seconds,
    median,
    over_capacity,
    best_round,
    p50_or_zero,
    poisson_schedule,
    tail_or_zero,
    tail_percentile,
    unattributed_ms,
    usable_cpus,
    vm_hwm_mb,
)
from loadgen import LoadGen, PhaseResult, fetch, http_request

HOST = "127.0.0.1"
#: Share of ``--seconds`` given to each timed phase.
SHARES = {"light": 0.35, "heavy": 0.45, "saturated": 0.2}
#: A rate whose generator p99 lateness exceeds this is over capacity.
LATE_LIMIT_MS = 10.0
#: Alternating light/heavy/saturated rounds per run.
ROUNDS = 3
#: Fleet launches per untraced run; ``setup_s`` is their median.
SETUPS = 7


@dataclass(frozen=True)
class Spec:
    light_rps: float
    heavy_rps: float
    saturated_cap_rps: float  # upper bound used to size the closed-loop stream
    warmup: int
    cache_size: int
    corpus: int = 0
    zipf_s: float = 1.0


SPECS = {
    "gateway-hot": Spec(light_rps=35, heavy_rps=65, saturated_cap_rps=1000, warmup=200,
                        cache_size=150, corpus=600, zipf_s=1.1),
    "gateway-cold": Spec(light_rps=15, heavy_rps=30, saturated_cap_rps=300, warmup=40,
                         cache_size=256),
}


class Fleet:
    """One gateway process (and the shards it forks)."""

    def __init__(self, root: str, workdir: str, name: str, cfg: Dict):
        self._root = root
        self._cfg_path = os.path.join(workdir, f"{name}.json")
        with open(self._cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self._children: List[int] = []

    async def start(self) -> float:
        """Launch; returns seconds until ``/v1/healthz`` answers 200."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self._root, "src"), os.path.join(self._root, "perfbench")]
        )
        t0 = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(self._root, "perfbench", "gateway_proc.py"),
            self._cfg_path, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            cwd=self._root, env=env,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), 120)
        if not line:
            raise RuntimeError("gateway process exited before serving")
        self.port = json.loads(line)["port"]
        while (await fetch(HOST, self.port, "GET", "/v1/healthz"))[0] != 200:
            await asyncio.sleep(0.002)
        elapsed = time.perf_counter() - t0
        self._children = child_pids(self.proc.pid)
        return elapsed

    def pids(self) -> List[int]:
        return [self.proc.pid] + self._children

    def shard_pids(self) -> List[int]:
        return list(self._children)

    async def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.returncode is None:
            self.proc.stdin.close()
            try:
                await asyncio.wait_for(self.proc.wait(), 30)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        deadline = time.monotonic() + 10
        for pid in self._children:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc = None


def _prepare_hot(spec: Spec, seed: int, shards: int, store_root: str):
    """Corpus, its direct values, and per-shard stores holding every answer."""
    from repro.api import solve_k_bounded
    from repro.gateway.routing import shard_for_key
    from repro.store import ResultStore

    corpus = mixes.hot_corpus(seed, spec.corpus)
    refs: Dict[str, float] = {}
    results = []
    for req in corpus:
        result = solve_k_bounded(req.jobs, req.k)
        refs[req.key()] = result.value
        results.append(result)
    stores = [ResultStore(os.path.join(store_root, f"shard-{i:02d}")) for i in range(shards)]
    try:
        # Least popular first: the popular answers are the newest, so prewarm loads them.
        for idx in reversed(mixes.hot_popularity(seed, len(corpus))):
            req = corpus[idx]
            stores[shard_for_key(req.canonical_key(), shards)].put(req.key(), results[idx])
    finally:
        for store in stores:
            store.close()
    return corpus, refs


class Checker:
    """Checks every answer against a direct solve, the routing and the verifier."""

    def __init__(self, items: Dict[int, "mixes.Item"], shards: int, refs: Dict[str, float]):
        self._items = items
        self._shards = shards
        self._refs = refs
        self.errors: List[str] = []
        self.degraded = 0
        self.degraded_above_full = 0
        self.completed = 0
        self.failed = 0
        self.attempted = 0

    def _ref(self, req) -> float:
        from repro.api import solve_k_bounded

        key = req.key()
        if key not in self._refs:
            self._refs[key] = solve_k_bounded(req.jobs, req.k, machines=req.machines).value
        return self._refs[key]

    def check(self, outcomes) -> None:
        from repro.api import SolveResult
        from repro.gateway.routing import shard_for_key
        from repro.scheduling.verify import verify_schedule

        for out in outcomes:
            self.attempted += 1
            if out.status != 200:
                self.failed += 1
                continue
            self.completed += 1
            item = self._items[out.index]
            req = item.request
            payload = json.loads(out.body)
            if payload.get("shard") != shard_for_key(req.canonical_key(), self._shards):
                self.errors.append(f"request {out.index}: served by shard {payload.get('shard')}")
            doc = payload["result"]
            ref = self._ref(req)
            tol = 1e-9 * max(1.0, abs(ref))
            if doc["metrics"].get("served.degraded"):
                # A degraded answer is LSA on the whole instance.  It must be a
                # valid k-bounded schedule worth what it claims, which also
                # bounds it by OPT_inf.  It may beat the full pipeline (an
                # approximation too); that is counted, not failed.
                self.degraded += 1
                result = SolveResult.from_wire(doc)
                if not verify_schedule(result.schedule, req.k).feasible:
                    self.errors.append(f"request {out.index}: degraded schedule infeasible")
                if abs(float(result.schedule.value) - result.value) > tol:
                    self.errors.append(f"request {out.index}: degraded value {result.value} "
                                       f"!= its schedule's {result.schedule.value}")
                if result.value > ref + tol:
                    self.degraded_above_full += 1
            elif abs(float(doc["value"]) - ref) > tol:
                self.errors.append(f"request {out.index}: value {doc['value']} != {ref}")


def _latencies(phase: PhaseResult) -> List[float]:
    return [(o.done - o.due) * 1e3 for o in phase.outcomes if o.status == 200]


def _phase_line(name: str, phase: PhaseResult) -> str:
    lat = _latencies(phase)
    p50 = median(lat) if lat else float("nan")
    pct, tail, n = tail_percentile(lat) if lat else (0, float("nan"), 0)
    over = over_capacity(phase.late_ms, phase.backlog, LATE_LIMIT_MS) if phase.late_ms else False
    late = tail_percentile(phase.late_ms)[1] if phase.late_ms else 0.0
    return (
        f"# phase {name}: sent={len(phase.outcomes)} ok={n} p50={p50:.3f}ms p{pct}={tail:.3f}ms "
        f"late_p99={late:.3f}ms backlog_max={max(phase.backlog, default=0)} "
        f"wall={phase.wall_s:.2f}s{' OVER-CAPACITY' if over else ''}"
    )


async def _stats(port: int) -> Dict:
    status, payload = await fetch(HOST, port, "GET", "/v1/stats")
    if status != 200:
        raise RuntimeError(f"/v1/stats answered {status}")
    return payload


def _pairs(items) -> List[Tuple[int, bytes]]:
    return [(it.index, http_request("/v1/solve", it.body)) for it in items]


async def _drive(spec: Spec, fleet: Fleet, stream, seed: int, seconds: float, nconn: int,
                 light_only: bool):
    """Warm-up plus :data:`ROUNDS` rounds of light, heavy and saturated load.

    Rounds alternate the phases, so a passing disturbance on the machine
    lands on one round of each, and each metric takes its best round.
    Returns ``({phase: [PhaseResult per round]}, stats0, stats1, shard CPU ms)``.
    """
    names = ("light",) if light_only else ("light", "heavy", "saturated")
    pos = 0  # light-only drives skip the other phases' requests, so rounds line up

    def take(n):
        nonlocal pos
        chunk = stream[pos:pos + n]
        pos += n
        if len(chunk) < n:
            raise RuntimeError("request stream too short for the run")
        return chunk

    gen = LoadGen(HOST, fleet.port, nconn)
    await gen.start()
    rounds: Dict[str, List[PhaseResult]] = {name: [] for name in ("warmup",) + names}
    try:
        rounds["warmup"].append(await gen.closed_loop(_pairs(take(spec.warmup)), 120.0))
        stats0 = await _stats(fleet.port)
        cpu0 = sum(cpu_seconds(p) for p in fleet.shard_pids())
        for r in range(ROUNDS):
            for name in SHARES:
                count = _round_count(spec, name, seconds)
                if name not in names:
                    take(count)
                elif name == "saturated":
                    rounds[name].append(await gen.closed_loop(
                        _pairs(take(count)), seconds * SHARES[name] / ROUNDS
                    ))
                else:
                    items = take(count)
                    rng = random.Random(f"arrivals-{seed}-{name}-{r}")
                    offsets = poisson_schedule(_rate(spec, name), len(items), rng)
                    rounds[name].append(await gen.open_loop(_pairs(items), offsets))
        cpu1 = sum(cpu_seconds(p) for p in fleet.shard_pids())
        stats1 = await _stats(fleet.port)
    finally:
        await gen.close()
    return rounds, stats0, stats1, (cpu1 - cpu0) * 1e3


def _rate(spec: Spec, name: str) -> float:
    return {"light": spec.light_rps, "heavy": spec.heavy_rps,
            "saturated": spec.saturated_cap_rps}[name]


def _round_count(spec: Spec, name: str, seconds: float) -> int:
    """Requests one round of a phase needs (a cap for the closed loop)."""
    return max(1, round(_rate(spec, name) * seconds * SHARES[name] / ROUNDS))


def _stat_delta(stats0: Dict, stats1: Dict, section: str, name: str) -> float:
    return float(stats1[section][name]) - float(stats0[section][name])


def _gateway_layers(trees, phases, stats0, stats1, cpu_ms, checker: Checker) -> Dict[str, float]:
    timed = [p for name, p in phases.items() if name != "warmup"]
    windows = [w for p in timed for w in p.windows]
    trees_in = perlayer.in_window(trees, windows)
    by = perlayer.nodes_by_name(trees_in)
    handle = by.get("L.gw.handle_solve", [])
    calls = [n for n in by.get("L.gw.shard_call", []) if n["attrs"].get("op") in ("solve", "batch")]
    ops = {}
    for n in by.get("L.shard.op", []):
        ids = n["attrs"].get("ids") or []
        if ids:
            ops[(n["attrs"]["op"], ids[0])] = float(n["ms"])
    call_ms: Dict[int, float] = {}
    overhead = []
    for n in calls:
        ids = n["attrs"].get("ids") or []
        for i in ids:
            call_ms[i] = float(n["ms"])
        if ids and (n["attrs"]["op"], ids[0]) in ops:
            overhead.append(float(n["ms"]) - ops[(n["attrs"]["op"], ids[0])])
    self_ms = [float(n["ms"]) - call_ms.get(n["attrs"].get("id"), 0.0) for n in handle]
    client = {o.index: (o.done - o.sent) * 1e3 for p in timed for o in p.outcomes if o.status == 200}
    handle_ms = {n["attrs"].get("id"): float(n["ms"]) for n in handle}
    unattributed = [unattributed_ms(client[i], [handle_ms[i]]) for i in client if i in handle_ms]
    submits = by.get("L.serve.submit", [])
    waits = [float(n["attrs"]["wait_ms"]) for n in submits if n["attrs"].get("wait_ms") is not None]
    gets = by.get("L.store.get", [])
    puts = by.get("L.store.put", [])
    prewarm = perlayer.nodes_by_name(trees).get("L.store.prewarm", [])
    requests = _stat_delta(stats0, stats1, "fleet", "requests")
    store_hits = _stat_delta(stats0, stats1, "fleet", "store_hits")
    store_misses = _stat_delta(stats0, stats1, "fleet", "store_misses")
    open_loop = [p for name, p in phases.items() if name in ("light", "heavy")]
    late = [x for p in open_loop for x in p.late_ms]
    values = {
        "bench.late_p99_ms": tail_percentile(late)[1] if late else 0.0,
        "bench.backlog_max": float(max((b for p in open_loop for b in p.backlog), default=0)),
        "bench.failed_share": perlayer.ratio(checker.failed, checker.attempted),
        "gateway.self_p50_ms": p50_or_zero(self_ms),
        "gateway.self_p99_ms": tail_or_zero(self_ms),
        "gateway.batch_size_mean": perlayer.mean([float(len(n["attrs"]["ids"])) for n in calls]),
        "gateway.rejected": _stat_delta(stats0, stats1, "gateway", "rejected"),
        "gateway.failovers": _stat_delta(stats0, stats1, "gateway", "failovers"),
        "gateway.unattributed_p50_ms": p50_or_zero(unattributed),
        "link.rtt_p50_ms": p50_or_zero(perlayer.ms_of(calls)),
        "link.rtt_p99_ms": tail_or_zero(perlayer.ms_of(calls)),
        "link.overhead_p50_ms": p50_or_zero(overhead),
        "serve.request_p50_ms": p50_or_zero(perlayer.ms_of(submits)),
        "serve.request_p99_ms": tail_or_zero(perlayer.ms_of(submits)),
        "serve.queue_wait_p99_ms": tail_or_zero(waits),
        "serve.hit_ratio": perlayer.ratio(_stat_delta(stats0, stats1, "fleet", "hits"), requests),
        "serve.cpu_ms_per_req": perlayer.ratio(cpu_ms, requests),
        "serve.degraded_share": perlayer.ratio(checker.degraded, checker.completed),
        "store.get_p50_ms": p50_or_zero(perlayer.ms_of(gets)),
        "store.get_p99_ms": tail_or_zero(perlayer.ms_of(gets)),
        "store.put_p50_ms": p50_or_zero(perlayer.ms_of(puts)),
        "store.put_p99_ms": tail_or_zero(perlayer.ms_of(puts)),
        "store.hit_ratio": perlayer.ratio(store_hits, store_hits + store_misses),
        "store.prewarm_ms": p50_or_zero(perlayer.ms_of(prewarm)),
    }
    for name in ("evictions", "coalesced", "timeouts", "retries", "errors"):
        values[f"serve.{name}"] = _stat_delta(stats0, stats1, "fleet", name)
    values.update(perlayer.solver_metrics(by))
    return values, by


async def _run(workload: str, seed: int, seconds: float, trace: bool, root: str, workdir: str):
    spec = SPECS[workload]
    clock = {"start": time.perf_counter()}
    nconn = usable_cpus()
    shards = nconn
    hot = workload == "gateway-hot"
    refs: Dict[str, float] = {}

    total = spec.warmup + ROUNDS * sum(_round_count(spec, name, seconds) for name in SHARES)
    store_seed = os.path.join(workdir, "store-seed")
    if hot:
        corpus, refs = _prepare_hot(spec, seed, shards, store_seed)
        stream = mixes.hot_stream(seed, corpus, total, spec.zipf_s)
    else:
        stream = mixes.cold_stream(seed, total)
    items = {it.index: it for it in stream}
    clock["prepared"] = time.perf_counter()

    def fleet_cfg(name: str, traced: bool) -> Fleet:
        store_root = os.path.join(workdir, f"store-{name}")
        if hot:
            shutil.copytree(store_seed, store_root)
        trace_dir = os.path.join(workdir, f"trace-{name}")
        os.makedirs(trace_dir, exist_ok=True)
        cfg = {"shards": shards, "workers": 1, "cache_size": spec.cache_size,
               "store_root": store_root, "traced": traced, "trace_dir": trace_dir}
        return Fleet(root, workdir, name, cfg)

    lines: List[str] = []
    checker = Checker(items, shards, refs)
    untraced_p50: Optional[float] = None
    if trace:
        # The untraced twin of the traced light phase, for obs.overhead_pct.
        fleet = fleet_cfg("untraced", False)
        try:
            await fleet.start()
            twin, *_ = await _drive(spec, fleet, stream, seed, seconds, nconn, light_only=True)
        finally:
            await fleet.stop()
        for part in twin.values():
            for phase in part:
                checker.check(phase.outcomes)
        untraced_p50 = best_round([median(_latencies(p)) for p in twin["light"]])
        clock["twin"] = time.perf_counter()

    setups: List[float] = []
    fleet = None
    try:
        for i in range(1 if trace else SETUPS):
            if fleet is not None:
                await fleet.stop()
            fleet = fleet_cfg(f"fleet{i}", trace)
            setups.append(await fleet.start())
        clock["setups"] = time.perf_counter()
        rounds, stats0, stats1, cpu_ms = await _drive(
            spec, fleet, stream, seed, seconds, nconn, light_only=False
        )
        rss = sum(vm_hwm_mb(pid) for pid in fleet.pids())
        trace_dir = os.path.join(workdir, f"trace-fleet{len(setups) - 1}")
        clock["driven"] = time.perf_counter()
    finally:
        if fleet is not None:
            await fleet.stop()
    clock["stopped"] = time.perf_counter()

    phases = {name: PhaseResult.join(parts) for name, parts in rounds.items()}
    for phase in phases.values():
        checker.check(phase.outcomes)
    clock["checked"] = time.perf_counter()
    for name in ("warmup", "light", "heavy", "saturated"):
        lines.append(_phase_line(name, phases[name]))
    lat = {name: [_latencies(p) for p in rounds[name]] for name in ("light", "heavy")}
    if not all(all(r) for r in lat.values()):
        raise RuntimeError("a timed round completed no request")
    lines.append(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    lines.append(f"# failed_share={perlayer.ratio(checker.failed, checker.attempted):.4f} "
                 f"({checker.failed}/{checker.attempted}) degraded={checker.degraded} "
                 f"degraded_above_full={checker.degraded_above_full}")
    sat = [sum(1 for o in p.outcomes if o.status == 200) / p.wall_s for p in rounds["saturated"]]
    metrics = {"setup_s": (median(setups), "s"), "rss_mb": (rss, "MiB")}
    for name in ("light", "heavy"):
        tails = [tail_percentile(r) for r in lat[name]]
        metrics[f"p50_ms.{name}"] = (best_round([median(r) for r in lat[name]]), "ms")
        metrics[f"p99_ms.{name}"] = (best_round([v for _p, v, _n in tails]), "ms")
        lines.append(f"# {name} rounds: p50 " + " ".join(f"{median(r):.3f}" for r in lat[name])
                     + " | tail " + " ".join(f"p{p}={v:.3f}(n={n})" for p, v, n in tails))
    metrics["throughput_per_s"] = (best_round(sat, higher_is_better=True), "1/s")
    lines.append("# saturated rounds: " + " ".join(f"{x:.2f}/s" for x in sat))
    layer_values = None
    if trace:
        trees = layers.load_trees(layers.read_dir(trace_dir))
        values, by = _gateway_layers(trees, phases, stats0, stats1, cpu_ms, checker)
        traced_p50 = metrics["p50_ms.light"][0]
        values["obs.overhead_pct"] = (traced_p50 - untraced_p50) / untraced_p50 * 100.0
        lines.append("# layer table (timed window): span, calls, inclusive p50, self p50")
        lines.extend(perlayer.layer_table(by))
        layer_values = perlayer.complete(values)
    clock["reported"] = time.perf_counter()
    marks = list(clock.items())
    lines.append("# timing " + " ".join(
        f"{name}={t - prev:.2f}s" for (_p, prev), (name, t) in zip(marks, marks[1:])
    ))
    return {
        "metrics": metrics,
        "per_layer": layer_values,
        "lines": lines,
        "errors": checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, workdir: str):
    return asyncio.run(_run(workload, seed, seconds, trace, root, workdir))
