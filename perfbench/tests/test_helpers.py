"""Tests for the benchmark's own helpers (run: ``python3 -m pytest perfbench/tests``)."""

import json
import os
import random
from collections import Counter

import pytest

import common
import layers
import mixes
import perlayer


# -- the percentile rule -------------------------------------------------------


def test_tail_percentile_keeps_p99_with_enough_samples():
    values = list(range(1, 1001))
    pct, value, n = common.tail_percentile(values)
    assert (pct, n) == (99, 1000)
    assert value == 990  # nearest rank: ceil(0.99 * 1000) = 990
    assert sum(v > value for v in values) == 10


def test_tail_percentile_steps_down_to_ten_samples_beyond():
    values = list(range(100))
    pct, value, n = common.tail_percentile(values)
    assert pct == 90
    assert sum(v > value for v in values) == 10
    # one sample fewer and p90 no longer has ten beyond it
    pct, value, _n = common.tail_percentile(values[:99])
    assert pct == 89
    assert sum(v > value for v in values[:99]) >= common.TAIL_SAMPLES


def test_tail_percentile_falls_back_to_the_median():
    pct, value, n = common.tail_percentile([5.0, 1.0, 3.0])
    assert (pct, value, n) == (50, 3.0, 3)


def test_tail_percentile_is_order_independent():
    values = [random.Random(1).random() for _ in range(500)]
    shuffled = list(values)
    random.Random(2).shuffle(shuffled)
    assert common.tail_percentile(values) == common.tail_percentile(shuffled)


def test_percentiles_reject_empty_input():
    with pytest.raises(ValueError):
        common.tail_percentile([])
    with pytest.raises(ValueError):
        common.median([])
    assert common.p50_or_zero([]) == 0.0
    assert common.tail_or_zero([]) == 0.0


def test_best_round_takes_the_least_disturbed_round():
    assert common.best_round([12.0, 10.5, 30.0]) == 10.5
    assert common.best_round([150.0, 180.0, 90.0], higher_is_better=True) == 180.0
    with pytest.raises(ValueError):
        common.best_round([])


def test_median_even_and_odd():
    assert common.median([3, 1, 2]) == 2
    assert common.median([4, 1, 2, 3]) == 2.5


# -- seeded inputs -------------------------------------------------------------


def test_zipf_sampler_is_seeded_and_skewed():
    a = common.ZipfSampler(50, 1.1, random.Random(7))
    b = common.ZipfSampler(50, 1.1, random.Random(7))
    draws = [a.draw() for _ in range(5000)]
    assert draws == [b.draw() for _ in range(5000)]
    counts = Counter(draws)
    assert set(counts) <= set(range(50))
    assert counts[0] > counts[1] > counts[10]
    # P(rank 0) = 1 / H(50, 1.1)
    h = sum(1 / (r + 1) ** 1.1 for r in range(50))
    assert abs(counts[0] / 5000 - 1 / h) < 0.03


def test_zipf_sampler_with_zero_skew_is_uniform():
    sampler = common.ZipfSampler(4, 0.0, random.Random(3))
    counts = Counter(sampler.draw() for _ in range(8000))
    assert all(abs(c / 8000 - 0.25) < 0.03 for c in counts.values())


def test_zipf_sampler_validates():
    with pytest.raises(ValueError):
        common.ZipfSampler(0, 1.0, random.Random(0))
    with pytest.raises(ValueError):
        common.ZipfSampler(3, -1.0, random.Random(0))


def test_poisson_schedule_is_seeded_increasing_and_at_rate():
    a = common.poisson_schedule(50.0, 2000, random.Random("x"))
    assert a == common.poisson_schedule(50.0, 2000, random.Random("x"))
    assert a != common.poisson_schedule(50.0, 2000, random.Random("y"))
    assert all(later > earlier for earlier, later in zip(a, a[1:]))
    assert abs(2000 / a[-1] - 50.0) < 5.0


def test_hot_stream_is_seeded():
    corpus = mixes.hot_corpus(3, 20)
    one = [it.body for it in mixes.hot_stream(3, corpus, 200, 1.1)]
    two = [it.body for it in mixes.hot_stream(3, mixes.hot_corpus(3, 20), 200, 1.1)]
    assert one == two
    other = [it.body for it in mixes.hot_stream(4, mixes.hot_corpus(4, 20), 200, 1.1)]
    assert one != other


def test_hot_stream_follows_popularity_order():
    corpus = mixes.hot_corpus(5, 30)
    stream = mixes.hot_stream(5, corpus, 3000, 1.1)
    top = corpus[mixes.hot_popularity(5, 30)[0]].key()
    counts = Counter(it.request.key() for it in stream)
    assert counts.most_common(1)[0][0] == top
    assert all(11 <= req.jobs.n <= 13 and req.k in (1, 2) for req in corpus)


def test_cold_stream_is_seeded_with_fixed_shares():
    a = mixes.cold_stream(9, 200)
    assert [it.body for it in a] == [it.body for it in mixes.cold_stream(9, 200)]
    assert [it.body for it in a] != [it.body for it in mixes.cold_stream(10, 200)]
    kinds = Counter(it.kind for it in a)
    # shares are exact per block of 20; a repeat with nothing to repeat turns fresh
    assert kinds["deadline"] == 20
    assert kinds["fresh"] + kinds["repeat"] == 180
    assert kinds["repeat"] >= 25
    assert [json.loads(it.body)["bench_id"] for it in a] == list(range(200))


def test_cold_stream_items_match_their_kind():
    stream = mixes.cold_stream(11, 120)
    fresh = []
    for it in stream:
        req = it.request
        if it.kind == "deadline":
            assert req.deadline_ms == mixes.COLD_DEADLINE_MS
            assert 26 <= req.jobs.n <= 30 and req.machines == 1
        else:
            assert req.deadline_ms is None and req.k in (0, 1, 2, 4)
        if it.kind == "fresh":
            fresh.append(req)
        if it.kind == "repeat":
            recent = {r.key() for r in fresh[-mixes.REPEAT_WINDOW:]}
            assert req.key() in recent


# -- span arithmetic -----------------------------------------------------------


def _ev(name, ms, depth):
    return {"name": name, "ms": ms, "attrs": {}, "depth": depth}


def test_build_trees_restores_preorder_nesting():
    events = [
        _ev("a", 10.0, 0), _ev("b", 4.0, 1), _ev("c", 1.0, 2), _ev("d", 3.0, 1),
        _ev("e", 2.0, 0),
    ]
    roots = common.build_trees(events)
    assert [r["name"] for r in roots] == ["a", "e"]
    a = roots[0]
    assert [c["name"] for c in a["children"]] == ["b", "d"]
    assert [c["name"] for c in a["children"][0]["children"]] == ["c"]


def test_self_time_is_duration_minus_direct_children():
    (a,) = common.build_trees([_ev("a", 10.0, 0), _ev("b", 4.0, 1), _ev("c", 1.0, 2),
                               _ev("d", 3.0, 1)])
    assert common.self_ms(a) == pytest.approx(3.0)
    assert common.self_ms(a["children"][0]) == pytest.approx(3.0)
    assert common.self_ms(a["children"][1]) == pytest.approx(3.0)
    # clock skew between parent and children never yields a negative self time
    (skewed,) = common.build_trees([_ev("p", 1.0, 0), _ev("q", 1.5, 1)])
    assert common.self_ms(skewed) == 0.0


def test_unattributed_time():
    assert common.unattributed_ms(12.0, [5.0, 4.0, 1.5]) == pytest.approx(1.5)
    assert common.unattributed_ms(3.0, [4.0]) == pytest.approx(-1.0)


def test_sink_rebuilds_merged_and_direct_trees():
    from repro.obs.tracer import Tracer

    sink = layers.EventSink()
    service_tracer = Tracer(sinks=[sink])
    request = Tracer()
    with request.span("serve.request"):
        with request.span("api.solve"):
            pass
    service_tracer.merge(request.export())  # no span open: arrives flat
    sink.record("L.store.get", 0.5, hit=True)
    with service_tracer.span("outer"):
        service_tracer.merge(request.export())  # under a span: only in the root tree
    trees = layers.load_trees(sink.trees)
    by = perlayer.nodes_by_name(trees)
    assert len(by["serve.request"]) == 2
    assert len(by["api.solve"]) == 2
    assert len(by["outer"]) == 1 and by["outer"][0]["children"][0]["name"] == "serve.request"
    assert by["L.store.get"][0]["attrs"] == {"hit": True}


def test_in_window_filters_roots():
    trees = [{"name": "x", "ms": 1.0, "ts": t, "children": []} for t in (1.0, 5.0, 9.0)]
    assert [t["ts"] for t in perlayer.in_window(trees, [(0.0, 2.0), (8.0, 10.0)])] == [1.0, 9.0]


def test_complete_reports_every_per_layer_metric():
    values = perlayer.complete({"gateway.rejected": 3})
    assert list(values) == [name for name, _unit in perlayer.PER_LAYER]
    assert values["gateway.rejected"] == 3.0 and values["exact.calls"] == 0.0


def test_per_layer_names_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == perlayer.PER_LAYER


# -- open-loop honesty ---------------------------------------------------------


def test_backlog_growth_and_over_capacity():
    assert not common.backlog_grew([0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0])
    assert common.backlog_grew([0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert not common.backlog_grew([5, 9])  # too few arrivals to call a trend
    assert common.over_capacity([0.1] * 100 + [50.0] * 20, [0] * 120, late_limit_ms=10.0)
    assert not common.over_capacity([0.1] * 120, [0] * 120, late_limit_ms=10.0)


# -- environment ---------------------------------------------------------------


def test_fingerprint_fields(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "m.py").write_text("x = 1\n")
    fp = common.fingerprint(str(tmp_path), ["python"], "1.0")
    assert fp["nproc"] == os.cpu_count()
    assert fp["affinity"] and all(isinstance(c, int) for c in fp["affinity"])
    assert fp["bitset_engines"] == ["python"] and fp["numpy"] == "1.0"
    assert len(fp["loadavg"]) == 3
    assert fp["git_sha"] is None  # not a git checkout
    digest = fp["src_digest"]
    (src / "m.py").write_text("x = 2\n")
    assert common.fingerprint(str(tmp_path), [], "1.0")["src_digest"] != digest
    json.dumps(fp)


def test_proc_readers_see_this_process():
    assert common.vm_hwm_mb(os.getpid()) > 1.0
    assert common.cpu_seconds(os.getpid()) > 0.0
    assert os.getpid() in common.child_pids(os.getppid())


# -- process supervision -------------------------------------------------------

_SUPERVISOR = """
import subprocess, sys, time
sys.path.insert(0, {bench!r})
import common
assert common.adopt_orphans()
# The child starts an orphan-to-be that sleeps {sleep} s, then exits at once.
subprocess.run([sys.executable, "-c",
                "import subprocess, sys; subprocess.Popen(['sleep', '{sleep}'])"], check=True)
t0 = time.monotonic()
stopped = common.wait_for_descendants({grace}, kill_wait_s=2.0)
print(len(stopped), round(time.monotonic() - t0, 3))
"""


def _supervise(sleep, grace):
    import subprocess
    import sys

    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = _SUPERVISOR.format(bench=bench, sleep=sleep, grace=grace)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    stopped, waited = out.stdout.split()
    return int(stopped), float(waited)


def test_wait_for_descendants_waits_for_an_adopted_orphan():
    stopped, waited = _supervise(sleep=0.5, grace=20)
    assert stopped == 0
    assert 0.2 < waited < 10


def test_wait_for_descendants_stops_an_orphan_past_its_grace():
    stopped, waited = _supervise(sleep=120, grace=0.3)
    assert stopped == 1
    assert 0.3 <= waited < 10
