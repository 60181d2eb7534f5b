"""``repro bench``: the trajectory file and the perf-gate registry.

Regression tests for the bug where a ``BENCH_perf.json`` that existed but
had no ``runs`` key left the tracked trajectory permanently empty — every
bench run rewrote the file without ever accumulating history.  The append
path must absorb every on-disk shape it can meet: missing file, empty
file, invalid JSON, the legacy single-run schema-1 payload, and trajectory
dicts with a missing or malformed ``runs`` key.

The gate tests run stub registry entries, so no timing run happens: each
gate status maps to the CLI exit code, a missing record fails its gate, and
the ``CI`` environment variable picks the relaxed threshold.
"""

import json
from dataclasses import replace

import pytest

import repro.analysis.perf as perf
from repro.analysis.perf import (
    RUN_SCHEMA,
    TRAJECTORY_SCHEMA,
    Benchmark,
    BenchRecord,
    Gate,
    GateResult,
    _load_runs,
    append_run,
    run_bench,
)
from repro.cli import main


def _fake_run(tag):
    return {
        "schema": RUN_SCHEMA,
        "quick": True,
        "records": [
            {
                "op": f"fake[{tag}]", "n": 10, "k": None, "reps": 1,
                "median_ms": 1.0, "p90_ms": 1.0, "speedup_vs_reference": None,
            }
        ],
    }


def _read(path):
    return json.loads(path.read_text())


def test_append_creates_missing_file(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    trajectory = append_run(str(out), _fake_run("first"))
    assert trajectory == _read(out)
    assert trajectory["schema"] == TRAJECTORY_SCHEMA
    assert [r["records"][0]["op"] for r in trajectory["runs"]] == ["fake[first]"]


def test_append_accumulates_runs(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    append_run(str(out), _fake_run("a"))
    append_run(str(out), _fake_run("b"))
    trajectory = append_run(str(out), _fake_run("c"))
    assert [r["records"][0]["op"] for r in trajectory["runs"]] == [
        "fake[a]", "fake[b]", "fake[c]",
    ]


def test_append_to_empty_file(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    out.write_text("")
    trajectory = append_run(str(out), _fake_run("x"))
    assert len(trajectory["runs"]) == 1


def test_append_to_invalid_json(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    out.write_text("{not json")
    trajectory = append_run(str(out), _fake_run("x"))
    assert len(trajectory["runs"]) == 1
    # The rewrite healed the file: the next append sees a valid trajectory.
    assert len(append_run(str(out), _fake_run("y"))["runs"]) == 2


def test_append_migrates_legacy_schema1_payload(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    legacy = _fake_run("legacy")
    out.write_text(json.dumps(legacy))
    trajectory = append_run(str(out), _fake_run("new"))
    assert [r["records"][0]["op"] for r in trajectory["runs"]] == [
        "fake[legacy]", "fake[new]",
    ]


@pytest.mark.parametrize(
    "on_disk",
    [
        {"schema": TRAJECTORY_SCHEMA},                      # the reported bug
        {"schema": TRAJECTORY_SCHEMA, "runs": "oops"},      # malformed runs
        {"schema": TRAJECTORY_SCHEMA, "runs": None},
        [1, 2, 3],                                          # not even a dict
    ],
)
def test_append_initialises_when_runs_key_unusable(tmp_path, on_disk):
    out = tmp_path / "BENCH_perf.json"
    out.write_text(json.dumps(on_disk))
    trajectory = append_run(str(out), _fake_run("x"))
    assert trajectory["schema"] == TRAJECTORY_SCHEMA
    assert len(trajectory["runs"]) == 1
    assert _read(out) == trajectory


def test_append_refuses_newer_on_disk_schema(tmp_path):
    # A trajectory written by a future library version must not be silently
    # rewritten (downgraded) by this one.
    out = tmp_path / "BENCH_perf.json"
    newer = {"schema": "repro-bench-perf/99", "runs": [_fake_run("future")]}
    out.write_text(json.dumps(newer))
    with pytest.raises(ValueError, match="refusing to silently downgrade"):
        append_run(str(out), _fake_run("x"))
    assert _read(out) == newer  # file untouched


def test_append_refuses_unversioned_run_payload(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    bad = _fake_run("x")
    del bad["schema"]
    with pytest.raises(ValueError, match="append_run only accepts"):
        append_run(str(out), bad)
    with pytest.raises(ValueError):
        append_run(str(out), {**_fake_run("y"), "schema": "something-else/3"})
    assert not out.exists()


def test_load_runs_skips_non_dict_entries(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    out.write_text(json.dumps({"schema": TRAJECTORY_SCHEMA, "runs": [_fake_run("a"), 7, None]}))
    assert [r["records"][0]["op"] for r in _load_runs(str(out))] == ["fake[a]"]


def test_run_bench_appends_and_returns_current_run(tmp_path, monkeypatch):
    # An empty registry makes this an I/O test, not a timing run.
    monkeypatch.setattr(perf, "BENCHMARKS", ())
    out = tmp_path / "BENCH_perf.json"
    first, _ = run_bench(quick=True, out=str(out))
    second, gates = run_bench(quick=True, out=str(out))
    assert first["schema"] == RUN_SCHEMA and second["records"] == [] and gates == []
    on_disk = _read(out)
    assert on_disk["schema"] == TRAJECTORY_SCHEMA
    assert on_disk["runs"] == [first, second]


def test_run_bench_out_none_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(perf, "BENCHMARKS", ())
    monkeypatch.chdir(tmp_path)
    payload, _ = run_bench(quick=True, out=None)
    assert payload["schema"] == RUN_SCHEMA
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# gate evaluation, on stub registry entries (no timing runs)
# ---------------------------------------------------------------------------


def _rec(op, speedup=None, median_ms=1.0):
    return BenchRecord(op=op, n=10, k=None, reps=1, median_ms=median_ms,
                       p90_ms=median_ms, speedup_vs_reference=speedup)


def _registry_entry(name):
    return next(b for b in perf.BENCHMARKS if b.name == name)


def _install(monkeypatch, entry, *records):
    """Make ``entry`` (its measurement stubbed to ``records``) the whole registry."""
    monkeypatch.setattr(perf, "BENCHMARKS", (replace(entry, measure=lambda **kw: list(records)),))


def test_gated_entries_measure_the_same_in_quick_runs():
    names = [b.name for b in perf.BENCHMARKS]
    assert len(names) == len(set(names))
    assert all(b.quick is None for b in perf.BENCHMARKS if b.gate is not None)


@pytest.mark.parametrize(
    "speedup, cores, status, code",
    [(2.0, 4, "pass", 0), (0.5, 4, "fail", 1), (0.5, 2, "skip", 0)],
)
def test_gate_status_sets_the_exit_code(monkeypatch, capsys, speedup, cores, status, code):
    monkeypatch.setattr(perf, "_usable_cores", lambda: cores)
    gate = Gate(perf._field("fast", "speedup_vs_reference"), 1.0, min_cores=4)
    _install(monkeypatch, Benchmark("g", None, {}, gate=gate), _rec("fast", speedup))
    assert main(["bench", "--quick", "--out", "-"]) == code
    assert f"gate g: {status} (" in capsys.readouterr().out


def test_gate_on_a_missing_record_fails(monkeypatch):
    _install(monkeypatch, _registry_entry("serve_cache_speedup"), _rec("serve.solve[cold]"))
    _, [gate] = run_bench(quick=True, out=None)
    assert gate == GateResult("serve_cache_speedup", "fail", "no serve.solve[cached] record")
    assert main(["bench", "--quick", "--out", "-"]) == 1


def test_ci_env_picks_the_ci_threshold(monkeypatch):
    _install(monkeypatch, _registry_entry("tm_batched_speedup"), _rec("tm_values_batched", 1.7))
    monkeypatch.delenv("CI", raising=False)
    assert run_bench(quick=True, out=None)[1][0].status == "fail"  # >= 2.0
    monkeypatch.setenv("CI", "true")
    assert run_bench(quick=True, out=None)[1][0].status == "pass"  # >= 1.6


@pytest.mark.parametrize("prewarmed_ms, status", [(0.28, "pass"), (0.30, "fail")])
def test_prewarm_gate_bounds_twice_warm_plus_a_floor(monkeypatch, prewarmed_ms, status):
    # The bound is prewarmed <= 2 x warm + 0.25 ms = 0.29 ms here.
    _install(
        monkeypatch, _registry_entry("store_prewarm_ratio"),
        _rec("serve.store[warm-cache]", median_ms=0.02),
        _rec("serve.store[prewarmed-cold-start]", median_ms=prewarmed_ms),
    )
    assert run_bench(quick=True, out=None)[1][0].status == status


def test_pool_gate_skips_below_four_cores(monkeypatch, capsys):
    # A pool speedup is bounded by the core count: a 2-core host cannot
    # show 1.5x at workers=4, so the gate must skip there, not fail.
    monkeypatch.setattr(perf, "_usable_cores", lambda: 2)
    _install(monkeypatch, _registry_entry("sweep_pool_speedup"), _rec("run_sweep[workers=4]", 0.5))
    assert main(["bench", "--quick", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert "gate sweep_pool_speedup: skip (needs >= 4 usable cores, have 2)" in out
