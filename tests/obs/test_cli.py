"""End-to-end tests for the ``python -m repro.obs`` CLI (in-process)."""

import json

import pytest

from repro.cliutil import CliError, cli_entry
from repro.obs.__main__ import main

RUN_ARGS = ["--shape", "66x130", "--gpus", "2", "--iterations", "2"]


class TestRunCommands:
    def test_summary(self, capsys):
        assert main(["summary", *RUN_ARGS]) == 0
        out = capsys.readouterr().out
        assert "cpufree: 66x130 on 2 GPU(s), 2 iteration(s)" in out
        assert "total simulated time:" in out
        assert "overlap ratio" in out
        assert "lane" in out and "busy %" in out

    def test_links(self, capsys):
        assert main(["links", *RUN_ARGS]) == 0
        out = capsys.readouterr().out
        assert "src" in out and "bytes" in out and "mean sharers" in out

    def test_ops(self, capsys):
        assert main(["ops", *RUN_ARGS]) == 0
        out = capsys.readouterr().out
        assert "op" in out and "count" in out
        assert "signal waits" in out

    def test_critical_path(self, capsys):
        assert main(["critical-path", *RUN_ARGS]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "us/iteration" in out
        assert "contributed us" in out

    def test_unknown_variant_is_a_cli_error(self, capsys):
        with pytest.raises(CliError, match="unknown variant"):
            main(["summary", "--variant", "nope", *RUN_ARGS])
        # the module entry point renders it per the shared convention
        assert cli_entry(main, ["summary", "--variant", "nope", *RUN_ARGS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown variant 'nope'")
        assert "cpufree" in err  # lists the valid choices


class TestOutputs:
    def test_metrics_out_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["summary", *RUN_ARGS, "--metrics-out", str(a)]) == 0
        assert main(["summary", *RUN_ARGS, "--metrics-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["counters"]  # non-trivial dump

    def test_trace_out_is_valid_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["ops", *RUN_ARGS, "--trace-out", str(path)]) == 0
        events = json.loads(path.read_text())
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        # flow events link puts to satisfied waits
        assert "s" in phases and "f" in phases


class TestTimelineCommand:
    def test_prints_gantt_and_table(self, capsys):
        assert main(["timeline", *RUN_ARGS]) == 0
        out = capsys.readouterr().out
        assert "legend" in out and "# compute" in out
        assert "overlap (non-compute hidden under compute)" in out
        assert "comm ovl" in out

    def test_timeline_out_byte_identical_and_self_describing(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["timeline", *RUN_ARGS, "--timeline-out", str(a)]) == 0
        assert main(["timeline", *RUN_ARGS, "--timeline-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["format"] == "repro-timeline-v1"
        assert payload["run"]["variant"] == "cpufree"
        assert payload["run"]["gpus"] == 2
        assert len(payload["pes"]) == 2


class TestWhatifCommand:
    def test_default_scenarios_ranked(self, capsys):
        assert main(["whatif", *RUN_ARGS]) == 0
        out = capsys.readouterr().out
        assert "baseline makespan:" in out
        assert "compute x2" in out and "comm x2" in out and "host x2" in out

    def test_custom_scale_and_json_out(self, tmp_path, capsys):
        path = tmp_path / "wi.json"
        assert main(["whatif", *RUN_ARGS, "--scale", "comm=0.5",
                     "--json-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-whatif-v1"
        assert len(payload["scenarios"]) == 1
        assert payload["scenarios"][0]["comm"] == 0.5

    def test_unknown_scale_resource_is_a_cli_error(self):
        with pytest.raises(CliError, match="unknown resource"):
            main(["whatif", *RUN_ARGS, "--scale", "tpu=0.5"])

    @pytest.mark.parametrize("scale", ["comm=0", "host=-1", "compute=nan",
                                       "wire.pe0->*=inf"])
    def test_invalid_scale_factor_is_a_usage_error(self, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["whatif", *RUN_ARGS, "--scale", scale])
        assert exc.value.code == 2
        assert "must be finite and > 0" in capsys.readouterr().err


class TestRegressCommand:
    @staticmethod
    def _store(path):
        from repro.obs.history import HistoryStore

        return HistoryStore(path)

    def test_clean_rerun_exits_zero(self, tmp_path, capsys):
        store = self._store(tmp_path / "hist.jsonl")
        for run in ("base", "check"):
            store.append({"run": run, "id": "p1", "per_iter_us": 10.0})
        assert main(["regress", str(store.path)]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        store = self._store(tmp_path / "hist.jsonl")
        store.append({"run": "base", "id": "p1", "per_iter_us": 10.0})
        store.append({"run": "check", "id": "p1", "per_iter_us": 12.0})
        assert main(["regress", str(store.path)]) == 1
        assert "[regression]" in capsys.readouterr().out

    def test_rtol_for_override(self, tmp_path):
        store = self._store(tmp_path / "hist.jsonl")
        store.append({"run": "base", "id": "p1", "per_iter_us": 10.0})
        store.append({"run": "check", "id": "p1", "per_iter_us": 12.0})
        assert main(["regress", str(store.path),
                     "--rtol-for", "p*=0.3"]) == 0

    def test_missing_run_is_a_cli_error(self, tmp_path):
        store = self._store(tmp_path / "hist.jsonl")
        store.append({"run": "base", "id": "p1", "per_iter_us": 10.0})
        with pytest.raises(CliError, match="no baseline run"):
            main(["regress", str(store.path)])


class TestErrorConventionAcrossClis:
    """All four repro.* CLIs render bad invocations the same way."""

    def test_faults_unknown_variant(self, capsys):
        from repro.faults.__main__ import main as faults_main

        assert cli_entry(faults_main, ["--variants", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown variant")

    def test_sanitize_unknown_variant(self, capsys):
        from repro.sanitize.__main__ import main as sanitize_main

        assert cli_entry(
            sanitize_main,
            ["run", "--variant", "nope", "--shape", "18x18",
             "--iterations", "1"],
        ) == 2
        assert capsys.readouterr().err.startswith("error: unknown variant")

    def test_obs_diff_unreadable_input(self, capsys, tmp_path):
        missing = tmp_path / "does-not-exist.json"
        assert cli_entry(main, ["diff", str(missing), str(missing)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestDiff:
    @staticmethod
    def _dump(path, values):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        for name, value in values.items():
            reg.counter(name).inc(value)
        path.write_text(reg.to_json())

    def test_identical_dumps_exit_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._dump(a, {"sim.events_dispatched": 100})
        self._dump(b, {"sim.events_dispatched": 100})
        assert main(["diff", str(a), str(b)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._dump(a, {"sim.events_dispatched": 100})
        self._dump(b, {"sim.events_dispatched": 150})
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "+50.0%" in out

    def test_threshold_tolerates_small_increase(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._dump(a, {"x": 100})
        self._dump(b, {"x": 104})
        assert main(["diff", str(a), str(b), "--threshold", "0.05"]) == 0
        assert main(["diff", str(a), str(b), "--threshold", "0.01"]) == 1

    def test_improvement_exits_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._dump(a, {"x": 100})
        self._dump(b, {"x": 50})
        assert main(["diff", str(a), str(b)]) == 0
        assert "improved" in capsys.readouterr().out

    def test_nested_bench_json_diffable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"suite": {"wall_seconds": 2.0}}))
        b.write_text(json.dumps({"suite": {"wall_seconds": 1.9}}))
        assert main(["diff", str(a), str(b)]) == 0
