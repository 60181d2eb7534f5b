"""Unit tests for the CLI front end."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("e1", "e6", "e7a", "e10"):
            assert name in out


class TestRun:
    def test_run_single(self, capsys):
        assert main(["run", "e7a"]) == 0
        out = capsys.readouterr().out
        assert "geometric chain" in out

    def test_run_markdown(self, capsys):
        assert main(["run", "e7a", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("###")
        assert "|" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "e1", "e7a"]) == 0
        out = capsys.readouterr().out
        assert "Appendix-A" in out and "geometric chain" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "e99"])


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "OPT_inf" in out
        assert "k=0" in out and "k=2" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "frobnicate" in err


class TestFuzzErrorPaths:
    def test_bad_replay_file_exits_2_with_stderr(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["fuzz", "--replay", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot replay" in err and "nope.json" in err

    def test_unparseable_replay_file_exits_2(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["fuzz", "--replay", str(garbage)]) == 2
        err = capsys.readouterr().err
        assert "cannot replay" in err

    def test_smoke_contradicts_instances(self, capsys):
        assert main(["fuzz", "--smoke", "--instances", "5"]) == 2
        err = capsys.readouterr().err
        assert "--smoke" in err and "--instances" in err

    def test_replay_contradicts_fuzz_flags(self, capsys, tmp_path):
        case = tmp_path / "case.json"
        case.write_text("{}")
        assert main(["fuzz", "--replay", str(case), "--smoke"]) == 2
        err = capsys.readouterr().err
        assert "--replay" in err and "--smoke" in err
        assert (
            main(["fuzz", "--replay", str(case), "--inject-fault", "tm.loop.topk-order"])
            == 2
        )
        err = capsys.readouterr().err
        assert "--inject-fault" in err

    def test_unknown_fault_rejected_before_fuzzing(self, capsys):
        assert main(["fuzz", "--inject-fault", "no.such.fault"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault" in err and "no.such.fault" in err

    def test_list_oracles_includes_serve_pair(self, capsys):
        assert main(["fuzz", "--list-oracles"]) == 0
        out = capsys.readouterr().out
        assert "served-vs-direct" in out


class TestGatewayBench:
    def test_gateway_bench_inline_reports_and_writes_json(self, capsys, tmp_path):
        out = tmp_path / "gateway.json"
        assert (
            main(
                [
                    "gateway-bench", "--inline", "--shards", "2",
                    "--rps", "40", "--duration", "1", "--corpus", "6",
                    "--n", "6", "--max-p99-ms", "5000", "--out", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "latency p50" in text
        assert "shard 0:" in text and "shard 1:" in text
        assert "disagreements=0" in text
        import json

        payload = json.loads(out.read_text())
        assert payload["format"] == "repro-gateway-bench/1"
        assert payload["disagreements"] == 0
        assert payload["route_mismatches"] == 0
        assert all(s["hits"] > 0 for s in payload["per_shard"])

    def test_gateway_bench_p99_gate_flips_exit_code(self, capsys):
        assert (
            main(
                [
                    "gateway-bench", "--inline", "--shards", "2",
                    "--rps", "30", "--duration", "1", "--corpus", "4",
                    "--n", "6", "--max-p99-ms", "0.000001",
                ]
            )
            == 1
        )
        assert "above SLO" in capsys.readouterr().err

    def test_gateway_bench_rejects_bad_shards(self, capsys):
        assert main(["gateway-bench", "--shards", "0", "--inline"]) == 2
        assert "--shards" in capsys.readouterr().err
