"""Seeded request mixes for the gateway workloads.

Everything here is a pure function of the seed: the same seed gives the
same instances, the same order and the same HTTP bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List

from common import ZipfSampler

#: Cold mix, per block of 20 requests: fresh / permuted repeat / deadline.
COLD_BLOCK = ("fresh",) * 15 + ("repeat",) * 3 + ("deadline",) * 2
#: Deadline given to the deadline share; cold solves at n 26-30 take longer.
COLD_DEADLINE_MS = 1.0
#: How far back a permuted repeat may reach (in fresh requests).
REPEAT_WINDOW = 8


@dataclass(frozen=True)
class Item:
    """One request of a stream, ready to send."""

    index: int
    kind: str  # hot | fresh | repeat | deadline
    request: object  # repro.api.SolveRequest
    body: bytes  # JSON wire document, tagged with ``bench_id``


def _item(index: int, kind: str, request) -> Item:
    doc = request.to_wire()
    doc["bench_id"] = index
    return Item(index, kind, request, json.dumps(doc).encode())


def hot_corpus(seed: int, size: int) -> List[object]:
    """``size`` small ``random_jobs`` instances (n 11-13, k 1-2)."""
    from repro.api import SolveRequest
    from repro.instances import random_jobs

    rng = random.Random(f"hot-corpus-{seed}")
    corpus = []
    for _ in range(size):
        jobs = random_jobs(rng.randint(11, 13), seed=rng.randrange(2**31))
        corpus.append(SolveRequest(jobs=jobs, k=rng.choice((1, 2))))
    return corpus


def hot_stream(seed: int, corpus: List[object], count: int, zipf_s: float) -> List[Item]:
    """``count`` Zipf-popular draws over the corpus.

    Popularity ranks map to corpus entries through a seeded permutation,
    so the popular keys spread over the shards.  Returns the stream; the
    corpus rank order (most popular first) is :func:`hot_popularity`.
    """
    rng = random.Random(f"hot-stream-{seed}")
    order = hot_popularity(seed, len(corpus))
    sampler = ZipfSampler(len(corpus), zipf_s, rng)
    return [_item(i, "hot", corpus[order[sampler.draw()]]) for i in range(count)]


def hot_popularity(seed: int, size: int) -> List[int]:
    """Corpus indices from most to least popular."""
    order = list(range(size))
    random.Random(f"hot-rank-{seed}").shuffle(order)
    return order


def _fresh_jobs(rng: random.Random):
    from repro.instances import random_jobs
    from repro.instances.random_jobs import random_integral_jobs
    from repro.instances.workloads import (
        batch_analytics_workload,
        mixed_server_workload,
        realtime_control_workload,
    )

    family = rng.random()
    seed = rng.randrange(2**31)
    if family < 0.35:
        return random_jobs(rng.randint(8, 20), seed=seed)
    if family < 0.65:
        return random_integral_jobs(rng.randint(20, 28), seed=seed)
    gen = rng.choice((realtime_control_workload, batch_analytics_workload, mixed_server_workload))
    return gen(30, seed=seed)


def _deadline_jobs(rng: random.Random):
    from repro.instances.random_jobs import random_integral_jobs
    from repro.instances.workloads import mixed_server_workload, realtime_control_workload

    seed = rng.randrange(2**31)
    if rng.random() < 0.5:
        return random_integral_jobs(rng.randint(26, 28), seed=seed)
    return rng.choice((realtime_control_workload, mixed_server_workload))(30, seed=seed)


def cold_stream(seed: int, count: int) -> List[Item]:
    """``count`` requests of the cold mix (shares fixed per block of 20)."""
    from repro.api import SolveRequest
    from repro.scheduling.job import JobSet

    rng = random.Random(f"cold-{seed}")
    items: List[Item] = []
    recent: List[object] = []
    block: List[str] = []
    for index in range(count):
        if not block:
            block = list(COLD_BLOCK)
            rng.shuffle(block)
        kind = block.pop()
        if kind == "repeat" and not recent:
            kind = "fresh"
        if kind == "fresh":
            machines = 2 if rng.random() < 0.08 else 1
            req = SolveRequest(jobs=_fresh_jobs(rng), k=rng.choice((0, 1, 2, 4)), machines=machines)
            recent = (recent + [req])[-REPEAT_WINDOW:]
        elif kind == "repeat":
            base = rng.choice(recent)
            jobs = list(base.jobs)
            rng.shuffle(jobs)
            req = SolveRequest(jobs=JobSet(jobs), k=base.k, machines=base.machines)
        else:
            req = SolveRequest(
                jobs=_deadline_jobs(rng), k=rng.choice((1, 2)), deadline_ms=COLD_DEADLINE_MS
            )
        items.append(_item(index, kind, req))
    return items
