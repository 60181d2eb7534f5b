"""Traced runs: wrappers around each layer's entry points, and their sink.

:func:`install` replaces the public entry points of every layer with
wrappers that record :mod:`repro.obs` spans.  Nothing in ``src`` changes:
the wrappers are swapped into the already-imported modules (every
``from x import f`` binding too), so processes forked afterwards — gateway
shards, sweep pool workers — run them as well.

Where a layer runs under a tracer (solver layers inside a shard's
per-request trace, cells inside a traced sweep) the wrapper opens a
nested span on it, and the program's own transports carry the span home:
the shard's ``SolverService`` merges each request trace into the tracer
handed to it through ``service_kwargs`` (whose sink is an
:class:`EventSink`), and ``run_sweep`` merges pool workers' traces into
the caller's tracer.  Layers that run outside any trace (the gateway's
event loop, the shard's op loop, the store) record a one-span trace of
their own into the process's sink.

Every sink writes JSON lines ``{"ts", "pid", "tid", "root" | "flat"}``:
a whole span tree, or one merged span in pre-order; :func:`load_trees`
turns both back into trees.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from common import build_trees

#: The process-wide sink of spans recorded outside any tracer.
_SINK: Optional["EventSink"] = None
#: Every sink made in this process (a forked shard flushes them on shutdown).
_SINKS: List["EventSink"] = []
#: Layers the current call is already inside (wrappers do not nest in themselves).
_ACTIVE: contextvars.ContextVar = contextvars.ContextVar("perfbench_active", default=frozenset())


class EventSink:
    """A :mod:`repro.obs` sink that keeps whole span trees.

    With ``directory`` it appends to ``<directory>/<role>-<pid>.jsonl``
    (opened lazily, so a forked child writes its own file); without, it
    keeps the trees in :attr:`trees`.  A tracer emits a root's tree when
    the root closes; spans grafted by ``Tracer.merge`` while no span is
    open arrive only as flat pre-order ``span`` events, which are
    reassembled on read.  Merged spans under an open span are dropped here
    because the enclosing root's tree already holds them.
    """

    def __init__(self, directory: Optional[str] = None, role: str = "proc"):
        self._dir = directory
        self._role = role
        self._lock = threading.Lock()
        self._pid: Optional[int] = None
        self._fh = None
        self._in_merged_root: Dict[int, bool] = {}
        self.trees: List[Dict[str, Any]] = []
        _SINKS.append(self)

    def emit(self, event: Dict[str, Any]) -> None:
        tid = threading.get_ident()
        kind = event.get("ev")
        if kind == "trace":
            self._in_merged_root[tid] = False
            self._write({"root": event["root"]}, tid)
        elif kind == "span" and event.get("merged"):
            depth = event.get("depth", 0)
            if depth == 0:
                self._in_merged_root[tid] = True
            if self._in_merged_root.get(tid):
                self._write(
                    {"flat": {"name": event["name"], "ms": event["ms"],
                              "attrs": event.get("attrs", {}), "depth": depth}},
                    tid,
                )

    def record(self, name: str, ms: float, **attrs: Any) -> None:
        """One finished span recorded outside any tracer."""
        self._in_merged_root[threading.get_ident()] = False
        self._write({"root": {"name": name, "ms": ms, "attrs": attrs, "children": []}},
                    threading.get_ident())

    def _write(self, doc: Dict[str, Any], tid: int) -> None:
        doc["ts"] = time.time()
        doc["pid"] = os.getpid()
        doc["tid"] = tid
        with self._lock:
            if self._dir is None:
                self.trees.append(doc)
                return
            if self._pid != os.getpid():
                self._pid = os.getpid()
                path = os.path.join(self._dir, f"{self._role}-{self._pid}.jsonl")
                self._fh = open(path, "a", encoding="utf-8")
            self._fh.write(json.dumps(doc, default=str) + "\n")

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None and self._pid == os.getpid():
                self._fh.flush()


def flush_all() -> None:
    for sink in _SINKS:
        sink.flush()


def load_trees(docs: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Span trees from sink records, each root stamped with ``ts``.

    Flat (merged) records are regrouped per writing thread and rebuilt
    with :func:`common.build_trees`.
    """
    trees: List[Dict[str, Any]] = []
    flat: Dict[tuple, List[dict]] = {}
    for doc in docs:
        if "root" in doc:
            trees.append(dict(doc["root"], ts=doc["ts"]))
        else:
            ev = dict(doc["flat"], ts=doc["ts"])
            flat.setdefault((doc["pid"], doc["tid"]), []).append(ev)
    for events in flat.values():
        trees.extend(build_trees(events))
    return trees


def read_dir(directory: str) -> List[Dict[str, Any]]:
    docs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                docs.extend(json.loads(line) for line in fh if line.strip())
    return docs


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _record(name: str, t0: float, **attrs: Any) -> None:
    if _SINK is not None:
        _SINK.record(name, (time.perf_counter() - t0) * 1e3, **attrs)


def _layer(name: str, counters: Iterable[str] = (), size: Optional[Callable] = None):
    """Wrap a synchronous layer entry point in a span named ``name``.

    Under an active tracer the span nests into its trace and carries the
    tracer counters in ``counters`` that the call moved; with none active
    (a deadline attempt's detached thread) the call is recorded into the
    process sink instead.
    """
    from repro.obs.tracer import current_tracer

    counters = tuple(counters)

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = _ACTIVE.get()
            if name in active:
                return fn(*args, **kwargs)
            token = _ACTIVE.set(active | {name})
            try:
                attrs = {"size": size(*args, **kwargs)} if size is not None else {}
                tracer = current_tracer()
                if tracer is None:
                    t0 = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        _record(name, t0, detached=True, **attrs)
                before = {c: tracer.counters.get(c, 0) for c in counters}
                with tracer.span(name, **attrs) as span:
                    out = fn(*args, **kwargs)
                    for c in counters:
                        span.attrs[c] = tracer.counters.get(c, 0) - before[c]
                return out
            finally:
                _ACTIVE.reset(token)

        return wrapper

    return deco


def _bench_ids(op: str, payload: Dict[str, Any]) -> List[Any]:
    if op == "solve":
        return [payload["request"].get("bench_id")]
    if op == "batch":
        return [doc.get("bench_id") for doc in payload["requests"]]
    return []


def _patch(module, attr: str, wrapper: Callable) -> None:
    """Replace ``module.attr`` and every other binding of the same object."""
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def install(sink: EventSink) -> None:
    """Wrap every layer's entry points in this process (once per process)."""
    global _SINK
    if _SINK is not None:
        raise RuntimeError("layer wrappers are already installed in this process")
    _SINK = sink

    from importlib import import_module

    # import_module, not ``import a.b as c``: ``repro.core`` re-exports a
    # function named ``lsa`` that shadows the submodule attribute.
    config = import_module("repro.analysis.config")
    sweep = import_module("repro.analysis.sweep")
    api = import_module("repro.api")
    tm = import_module("repro.core.bas.tm")
    lsa = import_module("repro.core.lsa")
    reduction = import_module("repro.core.reduction")
    gw_core = import_module("repro.gateway.core")
    shard = import_module("repro.gateway.shard")
    exact = import_module("repro.scheduling.exact")
    service = import_module("repro.serve.service")
    store = import_module("repro.store.store")
    for name in ("repro.core.combined", "repro.core.multimachine"):
        import_module(name)  # their ``from ... import`` bindings get patched too

    # -- solver layers: nested spans on the request's / cell's tracer --------
    exact_counters = ("exact.nodes", "exact.pruned.bound", "exact.pruned.dominated",
                      "exact.pruned.infeasible")
    _patch(api, "solve_k_bounded", _layer("L.api.solve")(api.solve_k_bounded))
    _patch(api, "solve_k_bounded_batch", _layer(
        "L.api.solve_batch", size=lambda jobs_list, *a, **k: len(jobs_list)
    )(api.solve_k_bounded_batch))
    _patch(exact, "opt_infty_auto", _layer("L.exact.opt", exact_counters)(exact.opt_infty_auto))
    _patch(exact, "opt_infty_exact", _layer("L.exact.opt", exact_counters)(exact.opt_infty_exact))
    _patch(reduction, "schedule_to_forest", _layer("L.reduce.forest")(reduction.schedule_to_forest))
    _patch(reduction, "forest_to_schedule", _layer("L.reduce.compact")(reduction.forest_to_schedule))
    _patch(tm, "tm_optimal_bas", _layer(
        "L.tm.bas", size=lambda forest, *a, **k: forest.n
    )(tm.tm_optimal_bas))
    _patch(tm, "tm_optimal_bas_batched", _layer(
        "L.tm.bas", size=lambda forests, *a, **k: sum(f.n for f in forests)
    )(tm.tm_optimal_bas_batched))
    _patch(tm, "tm_optimal_values_batched", _layer(
        "L.tm.bas", size=lambda forests, *a, **k: sum(f.n for f in forests)
    )(tm.tm_optimal_values_batched))
    _patch(lsa, "lsa_cs", _layer("L.lsa", ("lsa.placed", "lsa.rejected"))(lsa.lsa_cs))
    _patch(sweep, "run_sweep", _layer("L.sweep.run")(sweep.run_sweep))
    for name in ("price_mixed", "bas_loss_random_batched"):
        wrapped = _layer("L.sweep.cell")(config.CELL_REGISTRY[name])
        setattr(config, wrapped.__name__, wrapped)  # pool workers unpickle it by name
        config.CELL_REGISTRY[name] = wrapped

    # -- gateway process: the front door and the shard link ------------------
    orig_handle = gw_core.Gateway.handle_solve

    @functools.wraps(orig_handle)
    async def handle_solve(self, doc, tenant="default"):
        t0 = time.perf_counter()
        status = None
        try:
            out = await orig_handle(self, doc, tenant)
            status = out[0]
            return out
        finally:
            _record("L.gw.handle_solve", t0, id=doc.get("bench_id"), status=status)

    gw_core.Gateway.handle_solve = handle_solve

    orig_call = shard.ProcessShard.call

    @functools.wraps(orig_call)
    async def call(self, op, **payload):
        t0 = time.perf_counter()
        try:
            return await orig_call(self, op, **payload)
        finally:
            _record("L.gw.shard_call", t0, op=op, ids=_bench_ids(op, payload))

    shard.ProcessShard.call = call

    # -- shard process: op loop, serve tier, store ---------------------------
    orig_op = shard._handle_op

    @functools.wraps(orig_op)
    async def handle_op(svc, msg):
        t0 = time.perf_counter()
        try:
            return await orig_op(svc, msg)
        finally:
            _record("L.shard.op", t0, op=msg.get("op"), ids=_bench_ids(msg.get("op"), msg))

    shard._handle_op = handle_op

    Svc = service.SolverService

    def _watch(fut, t0: float) -> None:
        def done(f, t0=t0):
            start = getattr(f, "_perfbench_start", None)
            wait = max(0.0, (start - t0) * 1e3) if start is not None else None
            _record("L.serve.submit", t0, wait_ms=wait)

        fut.add_done_callback(done)

    orig_submit = Svc.submit

    @functools.wraps(orig_submit)
    def submit(self, request, *args, **kwargs):
        t0 = time.perf_counter()
        fut = orig_submit(self, request, *args, **kwargs)
        _watch(fut, t0)
        return fut

    orig_submit_batch = Svc.submit_batch

    @functools.wraps(orig_submit_batch)
    def submit_batch(self, requests, *args, **kwargs):
        t0 = time.perf_counter()
        futs = orig_submit_batch(self, requests, *args, **kwargs)
        for fut in futs:
            _watch(fut, t0)
        return futs

    orig_run = Svc._run

    @functools.wraps(orig_run)
    def run(self, key, fut, *args):
        fut._perfbench_start = time.perf_counter()
        return orig_run(self, key, fut, *args)

    orig_run_batch = Svc._run_batch

    @functools.wraps(orig_run_batch)
    def run_batch(self, group, *args):
        start = time.perf_counter()
        for _key, fut, _jobs in group:
            fut._perfbench_start = start
        return orig_run_batch(self, group, *args)

    orig_shutdown = Svc.shutdown

    @functools.wraps(orig_shutdown)
    def shutdown(self, *args, **kwargs):
        try:
            return orig_shutdown(self, *args, **kwargs)
        finally:
            flush_all()

    Svc.submit, Svc.submit_batch = submit, submit_batch
    Svc._run, Svc._run_batch, Svc.shutdown = run, run_batch, shutdown

    Store = store.ResultStore
    orig_get, orig_put, orig_prewarm = Store.get, Store.put, Store.prewarm_into

    @functools.wraps(orig_get)
    def get(self, key):
        t0 = time.perf_counter()
        out = orig_get(self, key)
        _record("L.store.get", t0, hit=out is not None)
        return out

    @functools.wraps(orig_put)
    def put(self, key, result, **kwargs):
        t0 = time.perf_counter()
        out = orig_put(self, key, result, **kwargs)
        _record("L.store.put", t0, wrote=bool(out))
        return out

    @functools.wraps(orig_prewarm)
    def prewarm_into(self, cache, limit=None):
        t0 = time.perf_counter()
        out = orig_prewarm(self, cache, limit)
        _record("L.store.prewarm", t0, loaded=out)
        return out

    Store.get, Store.put, Store.prewarm_into = get, put, prewarm_into


def wrap_cell(fn: Callable) -> Callable:
    """A benchmark cell wrapped as the ``L.sweep.cell`` layer."""
    return _layer("L.sweep.cell")(fn)
