"""The batch solver service: submit many, solve once, answer fast.

:class:`SolverService` fronts :func:`repro.api.solve_k_bounded` with the
three amortisations a real workload needs (the same adversarial families,
sweep cells and paper instances get re-requested constantly):

* **canonical-instance caching** — results are cached under
  :func:`repro.api.request_key`, so permuted or re-typed copies of an
  instance hit the same entry (``JobSet.canonical_key`` is order- and
  representation-independent);
* **request coalescing** — concurrent submissions of the same key share
  one in-flight solve: followers get the leader's future instead of a
  duplicate worker.  Coalescing is deadline-compatible: a request without
  a deadline never attaches to a deadline-bound leader (whose answer may
  be degraded) — it starts its own full solve and becomes the key's new
  leader;
* **deadline-driven degradation** — a request with a ``deadline_ms``
  budget that the full pipeline exceeds falls back to the LSA pipeline
  (fast, value-safe, still certificate-valid) and the result is flagged
  with ``metrics["served.degraded"]``.  Degraded results are never
  cached: the cache key promises the full-pipeline artifact;
* **durable second tier** — a service constructed with ``store=`` or
  ``store_path=`` mounts a :class:`repro.store.ResultStore` between the
  memory LRU and the cold solve (lookup order: LRU → store → solve).
  Store hits are stamped ``metrics["served.store_hit"]`` and promoted
  into the LRU; cold non-degraded results are persisted (the poisoning
  rule extends to disk); the LRU is prewarmed from the store at
  construction.  Store I/O failures are swallowed and counted — a broken
  disk degrades the service to memory-only, never to erroring requests.

The API is synchronous-friendly and takes one value object per request:
:meth:`SolverService.submit` accepts a single
:class:`repro.api.SolveRequest` and returns a
:class:`concurrent.futures.Future` resolving to a
:class:`~repro.api.SolveResult`; :meth:`SolverService.solve` blocks;
:meth:`SolverService.submit_batch` takes an iterable of requests.
Anything other than a ``SolveRequest`` is a ``TypeError``.  Execution is
concurrent on a bounded worker pool.  Failed solves are retried once
before the failure (or the degraded fallback, when a deadline is set) is
surfaced.

Observability: every request runs under a private tracer whose spans
(``serve.request`` wrapping the usual ``api.solve`` tree) and counters
merge into the service's tracer — the one active when the service was
constructed, or one passed explicitly.  Service counters are
``serve.requests/hits/misses/coalesced/batched/degraded/evictions/retries/
timeouts/errors`` plus the store tier's
``store.hits/misses/writes/prewarmed``; :meth:`SolverService.stats`
exposes the same numbers without any tracer.  See ``docs/SERVING.md`` for
the architecture and the degradation contract, and ``docs/STORE.md`` for
the durable tier.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.api import SolveRequest, SolveResult, solve_k_bounded, solve_k_bounded_batch
from repro.obs.tracer import Tracer, current_tracer
from repro.scheduling.job import JobSet
from repro.serve.cache import LruCache

__all__ = ["ServiceStats", "SolverService", "ServiceClosed"]


@dataclass(frozen=True)
class ServiceStats:
    """One service's counter snapshot, as a typed value object.

    Each monotonic field equals its tracer counter (``serve.<field>``, or
    ``store.<name>`` for a ``store_<name>`` field).  The gateway aggregates
    a whole fleet's stats with :meth:`aggregate`, which sums snapshots
    field by field.  ``cache_size`` and ``inflight`` are occupancy gauges,
    everything else is monotonic.  Dict-style access (``stats["hits"]``)
    and :meth:`as_dict` give the same numbers by name.
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    batched: int = 0
    degraded: int = 0
    evictions: int = 0
    retries: int = 0
    timeouts: int = 0
    errors: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_prewarmed: int = 0
    cache_size: int = 0
    inflight: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The plain-dict form (JSON payloads)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __getitem__(self, name: str) -> int:
        if name not in self.__dataclass_fields__:
            raise KeyError(name)
        return getattr(self, name)

    def __contains__(self, name: object) -> bool:
        return name in self.__dataclass_fields__

    @classmethod
    def aggregate(cls, snapshots: Iterable["ServiceStats"]) -> "ServiceStats":
        """Field-wise sum over a fleet (occupancy gauges sum too: the
        aggregate's ``cache_size``/``inflight`` are fleet totals)."""
        totals = {f.name: 0 for f in fields(cls)}
        for snap in snapshots:
            for name in totals:
                totals[name] += getattr(snap, name)
        return cls(**totals)


#: Tracer counter of each monotonic stat (every field but the occupancy
#: gauges): ``store.*`` for the ``store_*`` fields, ``serve.*`` for the rest.
_COUNTER_OF = {
    f.name: f"serve.{f.name}".replace("serve.store_", "store.")
    for f in fields(ServiceStats)
    if f.name not in ("cache_size", "inflight")
}


class ServiceClosed(RuntimeError):
    """Raised by the ``submit``/``solve`` entry points after :meth:`shutdown`."""


class SolverService:
    """Concurrently-executing, caching, coalescing facade over the solvers.

    ``workers`` bounds the solve concurrency; ``cache_size`` bounds the LRU
    result cache; ``deadline_ms`` is the default budget of every request
    that sets none itself, through :meth:`submit` and :meth:`submit_batch`
    alike (both share one admission path).  ``tracer`` defaults to the
    tracer active at construction time — pass one explicitly to collect
    service spans without activating a context tracer.  ``solve_fn``
    exists for tests (fault windows, slow solves); production callers
    never set it.

    ``store`` mounts an existing :class:`repro.store.ResultStore` as the
    durable second cache tier; ``store_path`` (mutually exclusive) opens
    one at that directory and the service owns it (closing it at
    :meth:`shutdown`) — being a plain string, ``store_path`` also travels
    through the gateway's ``service_kwargs`` into forked shard processes.
    ``prewarm`` (default on) loads the store's most recently written
    results into the memory LRU at construction, counted in
    ``store_prewarmed``.

    A timed-out pipeline attempt is *abandoned*, not interrupted — the
    worker thread finishes in the background while the degraded answer is
    served (solves are pure, so this wastes CPU but corrupts nothing).

    Usable as a context manager; :meth:`shutdown` drains the pool.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        cache_size: int = 256,
        deadline_ms: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        solve_fn: Optional[Callable[..., SolveResult]] = None,
        store=None,
        store_path: Optional[str] = None,
        prewarm: bool = True,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if store is not None and store_path is not None:
            raise TypeError("pass either store= or store_path=, not both")
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._cache = LruCache(cache_size)
        # key -> (leader future, leader deadline_ms); the deadline is kept so
        # coalescing can refuse to hand a possibly-degraded answer to a
        # request that did not opt into one.
        self._inflight: Dict[str, Tuple[Future, Optional[float]]] = {}
        self._lock = threading.Lock()
        self._stats: Dict[str, int] = dict.fromkeys(_COUNTER_OF, 0)
        self._tracer = tracer if tracer is not None else current_tracer()
        self._solve = solve_fn if solve_fn is not None else solve_k_bounded
        self._default_deadline_ms = deadline_ms
        self._closed = False
        self._owns_store = False
        if store is None and store_path is not None:
            from repro.store import ResultStore

            store = ResultStore(store_path)
            self._owns_store = True
        self._store = store
        if self._store is not None and prewarm:
            loaded = self._store.prewarm_into(self._cache, limit=cache_size)
            with self._lock:
                self._bump("store_prewarmed", loaded)

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (by default) drain in-flight solves.

        A store opened via ``store_path`` is closed after the pool drains;
        a caller-provided ``store`` object is left open (it may be shared).
        """
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
        if self._owns_store and self._store is not None:
            self._store.close()

    # -- the public surface ---------------------------------------------------

    def submit(self, request: SolveRequest) -> "Future[SolveResult]":
        """Enqueue one :class:`SolveRequest`; returns a future of its result.

        Cache hits resolve immediately (the result carries
        ``metrics["served.hit"]``); a duplicate of an in-flight request
        shares the leader's future when their deadlines are compatible (a
        no-deadline request never rides a deadline-bound leader, whose
        answer may be degraded — it replaces it as the key's leader);
        everything else dispatches to the worker pool.  A non-request
        argument raises ``TypeError`` here, in the caller's thread (the
        request validated its own fields when it was built) — only solver
        failures travel through the future.
        """
        return self._admit("submit", [request])[0]

    def solve(
        self, request: SolveRequest, *, timeout: Optional[float] = None
    ) -> SolveResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self._admit("solve", [request])[0].result(timeout=timeout)

    def submit_batch(
        self, requests: Iterable[SolveRequest]
    ) -> "list[Future[SolveResult]]":
        """Enqueue many :class:`SolveRequest`\\ s; returns futures in order.

        Every request is admitted exactly like a :meth:`submit` — same
        effective deadline (its own ``deadline_ms``, else the service-wide
        default), same cache and coalescing rules, and duplicates *within*
        the batch coalesce too.  What remains — the no-deadline cache
        misses — is grouped by ``(k, machines, method)``, and every group
        of two or more compatible requests (``k >= 1``, single machine,
        ``auto``/``combined`` method) is drained as *one* batched solve
        through :func:`repro.api.solve_k_bounded_batch`, so the whole
        group's schedule forests go through one cross-instance TM kernel
        dispatch.  Batched results are stamped with
        ``metrics["served.batched"]``; batched solves never degrade and
        every batched result is cacheable.  Singleton or incompatible
        misses, and every deadline-bound miss, dispatch as ordinary
        requests (deadline degradation applies to each alone).
        """
        return self._admit("submit_batch", requests)

    def solve_batch(
        self,
        requests: Iterable[SolveRequest],
        *,
        timeout: Optional[float] = None,
    ) -> "list[SolveResult]":
        """Blocking convenience wrapper around :meth:`submit_batch`."""
        return [fut.result(timeout=timeout) for fut in self.submit_batch(requests)]

    def stats(self) -> ServiceStats:
        """Snapshot of the service counters plus cache/in-flight occupancy.

        Returns a frozen :class:`ServiceStats`; dict-style access
        (``stats()["hits"]``) works too, and :meth:`ServiceStats.as_dict`
        gives the plain-dict form for JSON payloads.
        """
        with self._lock:
            return ServiceStats(
                cache_size=len(self._cache),
                inflight=len(self._inflight),
                **self._stats,
            )

    def clear_cache(self) -> None:
        """Drop every cached result (benchmarks use this for cold timings)."""
        with self._lock:
            self._cache.clear()

    # -- admission ------------------------------------------------------------

    def _admit(
        self, fn_name: str, requests: Iterable[SolveRequest]
    ) -> "list[Future[SolveResult]]":
        """The one admission path; returns one future per request, in order.

        Anything but a ``SolveRequest`` raises ``TypeError`` before any
        request is admitted.  Under the lock each request gets its
        effective deadline, then a cache hit, the in-flight leader's future
        (when the deadlines are compatible) or a new leader future
        registered in ``_inflight``.  After the lock, deadline-bound misses
        dispatch one by one (they may degrade, so they never join a batch,
        whose results are all cached) and the no-deadline misses dispatch
        per ``(k, machines, method)`` group.
        """
        reqs = list(requests)
        for req in reqs:
            if not isinstance(req, SolveRequest):
                raise TypeError(
                    f"SolverService.{fn_name}() takes a repro.api.SolveRequest, "
                    f"got {type(req).__name__}"
                )
        keys = [req.key() for req in reqs]
        default_ms = self._default_deadline_ms
        futures: "list[Future[SolveResult]]" = []
        solo: list = []  # _run's (key, fut, jobs, k, machines, method, deadline)
        groups: Dict[Tuple[int, int, str], list] = {}
        with self._lock:
            if self._closed:
                raise ServiceClosed(f"{fn_name} on a shut-down SolverService")
            self._bump("requests", len(reqs))
            for key, req in zip(keys, reqs):
                deadline_ms = default_ms if req.deadline_ms is None else req.deadline_ms
                cached = self._cache.get(key)
                if cached is not None:
                    self._bump("hits")
                    fut: "Future[SolveResult]" = Future()
                    fut.set_result(cached.with_metrics({"served.hit": 1.0}))
                    futures.append(fut)
                    continue
                entry = self._inflight.get(key)
                if entry is not None and (deadline_ms is not None or entry[1] is None):
                    self._bump("coalesced")
                    futures.append(entry[0])
                    continue
                # A new leader.  This also covers a no-deadline request
                # meeting a deadline-bound leader: it must get the
                # full-pipeline answer, so it replaces the leader (later
                # followers share the better future; the old leader
                # resolves its own waiters).
                self._bump("misses")
                fut = Future()
                self._inflight[key] = (fut, deadline_ms)
                futures.append(fut)
                if deadline_ms is None:
                    params = (req.k, req.machines, req.method)
                    groups.setdefault(params, []).append((key, fut, req.jobs))
                else:
                    solo.append(
                        (key, fut, req.jobs, req.k, req.machines, req.method,
                         deadline_ms)
                    )
        for (k, machines, method), group in groups.items():
            batchable = machines == 1 and k >= 1 and method in ("auto", "combined")
            if batchable and len(group) >= 2:
                with self._lock:
                    self._bump("batched", len(group))
                self._dispatch(group, self._run_batch, group, k, machines, method)
            else:
                solo.extend(
                    (key, fut, jobs, k, machines, method, None)
                    for key, fut, jobs in group
                )
        for args in solo:
            self._dispatch([args[:3]], self._run, *args)
        return futures

    def _dispatch(self, members: list, fn, *args) -> None:
        """Submit work to the pool; if shutdown() won the race since the
        closed-check, fail the members so no waiter is stranded."""
        try:
            self._pool.submit(fn, *args)
        except RuntimeError:
            self._fail(
                members,
                ServiceClosed("service shut down while dispatching the request"),
            )

    # -- completion -----------------------------------------------------------

    def _bump(self, stat: str, delta: float = 1) -> None:
        """Add ``delta`` to a stat and to its tracer counter, together.

        Caller must hold ``self._lock`` (the tracer's counter dict is
        shared).  A zero delta is skipped, so no counter appears at 0.
        """
        delta = int(delta)
        if delta:
            self._stats[stat] += delta
            if self._tracer is not None:
                self._tracer.count(_COUNTER_OF[stat], delta)

    def _drop_inflight(self, key: str, fut: "Future[SolveResult]") -> None:
        # Caller must hold self._lock.  Pop only our own entry: a no-deadline
        # request may have replaced us as the key's leader.
        entry = self._inflight.get(key)
        if entry is not None and entry[0] is fut:
            del self._inflight[key]

    def _store_lookup(self, members: list) -> list:
        """Resolve the ``(key, future, jobs)`` members the durable tier
        holds, promoting them into the LRU; returns the rest to solve.

        The store only holds full-pipeline artifacts, so a store hit
        satisfies deadline-bound and unbound requests alike.  Store I/O
        must never fail a request: a store-side exception is a miss.
        """
        if self._store is None:
            return members
        found, rest = [], []
        for member in members:
            try:
                stored = self._store.get(member[0])
            except Exception:
                stored = None
            if stored is None:
                rest.append(member)
            else:
                found.append((member, stored))
        with self._lock:
            evicted = 0
            for (key, fut, _), stored in found:
                evicted += self._cache.put(key, stored)
                self._drop_inflight(key, fut)
            self._bump("store_hits", len(found))
            self._bump("store_misses", len(rest))
            self._bump("evictions", evicted)
        for (_, fut, _), stored in found:
            fut.set_result(stored.with_metrics({"served.store_hit": 1.0}))
        return rest

    def _fail(
        self,
        members: list,
        exc: BaseException,
        tracer: Optional[Tracer] = None,
        retries: int = 0,
    ) -> None:
        """Fail every member's future with ``exc``, leaving no residue."""
        with self._lock:
            for key, fut, _ in members:
                self._drop_inflight(key, fut)
            self._bump("errors", len(members))
            self._bump("retries", retries)
            if self._tracer is not None and tracer is not None:
                self._tracer.merge(tracer.export())
        for _, fut, _ in members:
            fut.set_exception(exc)

    def _succeed(
        self, members: list, results: List[SolveResult], tracer: Tracer, **counts
    ) -> None:
        """Persist, cache, count and resolve stamped ``results``.

        Degraded results are neither persisted nor cached: the key promises
        the full-pipeline artifact, and a poisoned entry would be served to
        later no-deadline requests.  ``counts`` are extra stat deltas.
        """
        keep = [
            (key, result)
            for (key, _, _), result in zip(members, results)
            if not result.degraded
        ]
        # Persist outside the service lock: store I/O serialises on the
        # store's own lock and must not stall cache lookups.  A store-side
        # exception is swallowed (the write just does not count).
        wrote = 0
        if self._store is not None:
            for key, result in keep:
                try:
                    wrote += int(self._store.put(key, result))
                except Exception:
                    pass
        with self._lock:
            evicted = 0
            for key, result in keep:
                evicted += self._cache.put(key, result)
            for key, fut, _ in members:
                self._drop_inflight(key, fut)
            self._bump("evictions", evicted)
            self._bump("store_writes", wrote)
            self._bump("degraded", len(members) - len(keep))
            for stat, delta in counts.items():
                self._bump(stat, delta)
            if self._tracer is not None:
                self._tracer.merge(tracer.export())
        for (_, fut, _), result in zip(members, results):
            fut.set_result(result)

    def _run(
        self,
        key: str,
        fut: "Future[SolveResult]",
        jobs: JobSet,
        k: int,
        machines: int,
        method: str,
        deadline_ms: Optional[float],
    ) -> None:
        """Pool entry point: serve one request under its deadline."""
        members = self._store_lookup([(key, fut, jobs)])
        if not members:
            return
        tracer = Tracer()
        try:
            with tracer.activate(), tracer.span(
                "serve.request", n=jobs.n, k=k, machines=machines, method=method,
                deadline_ms=deadline_ms,
            ) as root:
                result, served = self._solve_with_deadline(
                    jobs, k, machines, method, deadline_ms
                )
                root.attrs["degraded"] = bool(served["served.degraded"])
        except BaseException as exc:
            self._fail(members, exc, tracer)
            return
        served["served.wall_ms"] = float(root.duration_ms)
        self._succeed(
            members,
            [result.with_metrics(served)],
            tracer,
            retries=served["served.retries"],
            timeouts=served["served.timeouts"],
            errors=served["served.errors"],
        )

    def _run_batch(self, group, k: int, machines: int, method: str) -> None:
        """Pool entry point: solve one compatible no-deadline miss group
        (a list of ``(key, future, jobs)``) with a single batched solve.

        Nothing here degrades, so every result is cached.  A failure of
        the batched solve is retried once — mirroring the no-deadline
        :meth:`_solve_with_deadline` contract — and then fails *all* the
        group's futures.  Members found in the store are served from it
        and only the remainder is batch-solved (the group was already
        counted ``batched`` at admission: the stat tracks requests drained
        through the batch path, not kernel membership).
        """
        group = self._store_lookup(group)
        if not group:
            return
        jobs_list = [jobs for _, _, jobs in group]
        attempt = lambda: solve_k_bounded_batch(
            jobs_list, k, machines=machines, method=method
        )
        tracer = Tracer()
        retries = 0
        try:
            with tracer.activate(), tracer.span(
                "serve.batch", requests=len(group), k=k, machines=machines,
                method=method,
            ) as root:
                try:
                    results = attempt()
                except Exception:
                    retries = 1
                    results = attempt()
        except BaseException as exc:
            self._fail(group, exc, tracer, retries=retries)
            return
        stamp = {
            "served.batched": 1.0,
            "served.degraded": 0.0,
            "served.wall_ms": float(root.duration_ms),
        }
        self._succeed(
            group, [result.with_metrics(stamp) for result in results], tracer,
            retries=retries,
        )

    def _solve_with_deadline(
        self,
        jobs: JobSet,
        k: int,
        machines: int,
        method: str,
        deadline_ms: Optional[float],
    ):
        """One solve under the request's budget; returns (result, served block).

        No deadline: solve inline, one retry on failure.  With a deadline:
        run the attempt in a side thread and wait out the remaining budget;
        a timeout (or a retry that would start with no budget left) degrades
        to the single-machine LSA pipeline, which is the cheap end of the
        Algorithm 3 spectrum and still certificate-valid.  The degraded
        result is flagged in ``served.degraded``; a multi-machine request
        degrades to the one-machine LSA value (a feasible lower bound).
        """
        served: Dict[str, float] = {
            "served.degraded": 0.0,
            "served.retries": 0.0,
            "served.timeouts": 0.0,
            "served.errors": 0.0,
        }
        attempt = lambda: self._solve(jobs, k, machines=machines, method=method)
        if deadline_ms is None:
            try:
                return attempt(), served
            except Exception:
                served["served.retries"] = 1.0
                return attempt(), served

        t0 = time.perf_counter()
        budget_s = max(0.0, float(deadline_ms) / 1e3)
        status, payload = _attempt_with_timeout(attempt, budget_s)
        if status == "error":
            remaining = budget_s - (time.perf_counter() - t0)
            if remaining > 0:
                served["served.retries"] = 1.0
                status, payload = _attempt_with_timeout(attempt, remaining)
            else:
                # No budget left for a retry: degrade without counting a
                # retry that never ran.  The attempt *errored* — it did not
                # time out — so this counts as an error, not a timeout.
                served["served.errors"] = 1.0
                status, payload = "degrade", None
        if status == "ok":
            return payload, served
        if status == "error":
            raise payload
        if status == "timeout":
            served["served.timeouts"] = 1.0
        served["served.degraded"] = 1.0
        # enforce_laxity=False keeps the fallback total: feasibility never
        # needed the laxity bound, only the value guarantee does.
        result = self._solve(
            jobs, k, machines=1, method="lsa", enforce_laxity=False
        )
        return result, served


def _attempt_with_timeout(fn: Callable[[], Any], timeout_s: float):
    """Run ``fn`` in a daemon thread, waiting at most ``timeout_s``.

    Returns ``("ok", result)``, ``("error", exception)`` or
    ``("timeout", None)``.  On timeout the thread is left to finish in the
    background (Python offers no safe preemption; solves are pure).

    An exhausted budget short-circuits *before* any thread is spawned:
    ``done.wait(0)`` would return immediately while the daemon thread ran
    a full cold solve nobody consumes — one leaked background solve per
    already-expired request.
    """
    if timeout_s <= 0:
        return "timeout", None
    box: Dict[str, Any] = {}
    done = threading.Event()

    def run() -> None:
        try:
            box["result"] = fn()
        except BaseException as exc:  # surfaced to the caller, never lost
            box["error"] = exc
        finally:
            done.set()

    worker = threading.Thread(target=run, daemon=True, name="repro-serve-attempt")
    worker.start()
    if not done.wait(timeout_s):
        return "timeout", None
    if "error" in box:
        return "error", box["error"]
    return "ok", box["result"]
