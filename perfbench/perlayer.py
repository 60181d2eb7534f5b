"""Per-layer metrics from traced runs.

Span names starting ``L.`` are the benchmark's wrappers (:mod:`layers`);
the rest are the program's own spans, used only for self time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from common import p50_or_zero, self_ms, tail_or_zero

#: Every per-layer metric, with its unit, in print order.
PER_LAYER = [
    ("bench.late_p99_ms", "ms"),
    ("bench.backlog_max", "count"),
    ("bench.failed_share", "ratio"),
    ("gateway.self_p50_ms", "ms"),
    ("gateway.self_p99_ms", "ms"),
    ("gateway.batch_size_mean", "count"),
    ("gateway.rejected", "count"),
    ("gateway.failovers", "count"),
    ("gateway.unattributed_p50_ms", "ms"),
    ("link.rtt_p50_ms", "ms"),
    ("link.rtt_p99_ms", "ms"),
    ("link.overhead_p50_ms", "ms"),
    ("serve.request_p50_ms", "ms"),
    ("serve.request_p99_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.timeouts", "count"),
    ("serve.retries", "count"),
    ("serve.errors", "count"),
    ("serve.cpu_ms_per_req", "ms"),
    ("serve.degraded_share", "ratio"),
    ("store.get_p50_ms", "ms"),
    ("store.get_p99_ms", "ms"),
    ("store.put_p50_ms", "ms"),
    ("store.put_p99_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.prewarm_ms", "ms"),
    ("api.calls", "count"),
    ("api.solve_p50_ms", "ms"),
    ("api.solve_p99_ms", "ms"),
    ("api.batch_size_mean", "count"),
    ("exact.calls", "count"),
    ("exact.opt_p50_ms", "ms"),
    ("exact.opt_p99_ms", "ms"),
    ("exact.nodes_per_solve", "count"),
    ("exact.prune_ratio", "ratio"),
    ("core.calls", "count"),
    ("reduce.forest_p50_ms", "ms"),
    ("reduce.compact_p50_ms", "ms"),
    ("tm.bas_p50_ms", "ms"),
    ("tm.nodes", "count"),
    ("lsa.p50_ms", "ms"),
    ("lsa.place_ratio", "ratio"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_p99_ms", "ms"),
    ("pool.busy_share", "ratio"),
    ("pool.worker_reuse", "count"),
    ("sweep.tasks_dispatched", "count"),
    ("obs.overhead_pct", "%"),
]


def nodes_by_name(trees: Iterable[dict]) -> Dict[str, List[dict]]:
    """Every span of every tree, grouped by name (children included)."""
    out: Dict[str, List[dict]] = {}
    stack = list(trees)
    while stack:
        node = stack.pop()
        out.setdefault(node["name"], []).append(node)
        stack.extend(node.get("children", ()))
    return out


def in_window(trees: Iterable[dict], windows) -> List[dict]:
    """Roots recorded inside any ``(start, end)`` wall-clock window."""
    return [t for t in trees if any(a <= t["ts"] <= b for a, b in windows)]


def ms_of(nodes: List[dict]) -> List[float]:
    return [float(n["ms"]) for n in nodes]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def solver_metrics(by: Dict[str, List[dict]]) -> Dict[str, float]:
    """api / exact / core layers (shared by the gateway and sweep workloads)."""
    single = by.get("L.api.solve", [])
    batch = by.get("L.api.solve_batch", [])
    exact = by.get("L.exact.opt", [])
    nodes = sum(float(n["attrs"].get("exact.nodes", 0)) for n in exact)
    pruned = sum(
        float(n["attrs"].get(c, 0))
        for n in exact
        for c in ("exact.pruned.bound", "exact.pruned.dominated", "exact.pruned.infeasible")
    )
    forest = by.get("L.reduce.forest", [])
    compact = by.get("L.reduce.compact", [])
    tm = by.get("L.tm.bas", [])
    lsa = by.get("L.lsa", [])
    placed = sum(float(n["attrs"].get("lsa.placed", 0)) for n in lsa)
    rejected = sum(float(n["attrs"].get("lsa.rejected", 0)) for n in lsa)
    sizes = [1.0] * len(single) + [float(n["attrs"].get("size", 1)) for n in batch]
    return {
        "api.calls": float(len(single) + len(batch)),
        "api.solve_p50_ms": p50_or_zero(ms_of(single)),
        "api.solve_p99_ms": tail_or_zero(ms_of(single)),
        "api.batch_size_mean": mean(sizes),
        "exact.calls": float(len(exact)),
        "exact.opt_p50_ms": p50_or_zero(ms_of(exact)),
        "exact.opt_p99_ms": tail_or_zero(ms_of(exact)),
        "exact.nodes_per_solve": ratio(nodes, len(exact)),
        "exact.prune_ratio": ratio(pruned, pruned + nodes),
        "core.calls": float(len(forest) + len(compact) + len(tm) + len(lsa)),
        "reduce.forest_p50_ms": p50_or_zero(ms_of(forest)),
        "reduce.compact_p50_ms": p50_or_zero(ms_of(compact)),
        "tm.bas_p50_ms": p50_or_zero(ms_of(tm)),
        "tm.nodes": mean([float(n["attrs"].get("size", 0)) for n in tm]),
        "lsa.p50_ms": p50_or_zero(ms_of(lsa)),
        "lsa.place_ratio": ratio(placed, placed + rejected),
    }


def layer_table(by: Dict[str, List[dict]]) -> List[str]:
    """Human-readable rows: calls, inclusive p50 and self p50 per span name."""
    rows = []
    for name in sorted(by):
        nodes = by[name]
        rows.append(
            f"#   {name:<28} calls={len(nodes):>6}  p50={p50_or_zero(ms_of(nodes)):9.3f} ms"
            f"  self_p50={p50_or_zero([self_ms(n) for n in nodes]):9.3f} ms"
        )
    return rows


def complete(values: Dict[str, float]) -> Dict[str, float]:
    """All :data:`PER_LAYER` names; a layer off this workload's path reads 0."""
    return {name: float(values.get(name, 0.0)) for name, _unit in PER_LAYER}
