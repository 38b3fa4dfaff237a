"""Perf history store and the median-of-passes regression gate."""

import pytest

from repro.obs.history import HistoryStore, regress, regress_table


@pytest.fixture
def store(tmp_path):
    return HistoryStore(tmp_path / "hist.jsonl")


def _fill(store, run, values, field="pass_s", **extra):
    for pid, value in values.items():
        store.append({"run": run, "id": pid, field: value, **extra})


class TestStore:
    def test_round_trip_and_run_order(self, store):
        _fill(store, "base", {"a": 1.0, "b": 2.0})
        _fill(store, "check", {"a": 1.1})
        assert [r["id"] for r in store.records()] == ["a", "b", "a"]
        assert store.runs() == ["base", "check"]
        assert store.latest_run() == "check"

    def test_append_requires_run_and_id(self, store):
        with pytest.raises(ValueError, match="needs 'run' and 'id'"):
            store.append({"id": "a", "pass_s": 1.0})

    def test_missing_file_reads_empty(self, store):
        assert store.records() == []
        assert store.latest_run() is None

    def test_corrupt_line_skipped_and_reported(self, store):
        store.append({"run": "base", "id": "a", "pass_s": 1.0})
        with open(store.path, "a") as fh:
            fh.write("not json\n")
        store.append({"run": "base", "id": "b", "pass_s": 2.0})
        records = store.records()
        assert [r["id"] for r in records] == ["a", "b"]
        assert store.corrupt == [(2, "unparseable JSON (torn line?)")]

    def test_checksum_mismatch_skipped(self, store):
        store.append({"run": "base", "id": "a", "pass_s": 1.0})
        text = store.path.read_text()
        store.path.write_text(text.replace("1.0", "9.0"))
        assert store.records() == []
        assert store.corrupt == [(1, "checksum mismatch")]

    def test_legacy_records_without_sha_accepted(self, store):
        import json

        with open(store.path, "a") as fh:
            fh.write(json.dumps({"run": "base", "id": "a",
                                 "pass_s": 1.0}) + "\n")
        assert [r["id"] for r in store.records()] == ["a"]
        assert store.corrupt == []

    def test_blank_lines_tolerated(self, store):
        store.append({"run": "base", "id": "a", "pass_s": 1.0})
        with open(store.path, "a") as fh:
            fh.write("\n\n")
        assert len(store.records()) == 1

    def test_median_of_repeats(self, store):
        for value in (10.0, 30.0, 11.0):
            store.append({"run": "base", "id": "a", "pass_s": value})
        assert store.medians("base", "pass_s") == {"a": 11.0}

class TestRegress:
    def test_self_comparison_is_exactly_ok(self, store):
        _fill(store, "base", {"a": 10.0, "b": 5.0})
        _fill(store, "check", {"a": 10.0, "b": 5.0})
        report = regress(store)
        assert report.ok
        assert {e.status for e in report.entries} == {"ok"}
        assert all(e.rel == 0.0 for e in report.entries)

    def test_slowdown_past_tolerance_regresses(self, store):
        _fill(store, "base", {"a": 10.0})
        _fill(store, "check", {"a": 10.6})
        report = regress(store, rtol=0.05)
        assert not report.ok
        assert report.regressions[0].rel == pytest.approx(0.06)

    def test_slowdown_within_tolerance_is_ok(self, store):
        _fill(store, "base", {"a": 10.0})
        _fill(store, "check", {"a": 10.4})
        assert regress(store, rtol=0.05).ok

    def test_speedup_is_improved(self, store):
        _fill(store, "base", {"a": 10.0})
        _fill(store, "check", {"a": 8.0})
        assert regress(store).entries[0].status == "improved"

    def test_every_field_is_lower_is_better(self, store):
        _fill(store, "base", {"a": 100.0}, field="peak_rss_mb")
        _fill(store, "check", {"a": 120.0}, field="peak_rss_mb")
        assert not regress(store, field_name="peak_rss_mb").ok

    def test_added_and_missing_never_fail(self, store):
        _fill(store, "base", {"a": 10.0, "gone": 1.0})
        _fill(store, "check", {"a": 10.0, "new": 2.0})
        report = regress(store)
        assert report.ok
        by_id = {e.id: e.status for e in report.entries}
        assert by_id == {"a": "ok", "gone": "missing", "new": "added"}

    def test_default_runs_latest_vs_first_other(self, store):
        _fill(store, "r1", {"a": 10.0})
        _fill(store, "r2", {"a": 11.0})
        _fill(store, "r3", {"a": 20.0})
        report = regress(store)
        assert report.run == "r3" and report.baseline_run == "r1"

    def test_explicit_run_selection(self, store):
        _fill(store, "r1", {"a": 10.0})
        _fill(store, "r2", {"a": 20.0})
        report = regress(store, run="r1", baseline="r2")
        assert report.entries[0].status == "improved"

    def test_unknown_run_raises(self, store):
        _fill(store, "base", {"a": 1.0})
        with pytest.raises(ValueError, match="no records for run"):
            regress(store, run="nope")
        with pytest.raises(ValueError, match="no baseline run"):
            regress(store)

    def test_median_shields_one_noisy_repeat(self, store):
        _fill(store, "base", {"a": 10.0})
        for value in (10.0, 10.0, 99.0):  # one outlier repetition
            store.append({"run": "check", "id": "a", "pass_s": value})
        assert regress(store).ok


class TestRegressTable:
    def test_lists_regressions_and_summary(self, store):
        _fill(store, "base", {"a": 10.0, "b": 10.0})
        _fill(store, "check", {"a": 15.0, "b": 10.0})
        text = regress_table(regress(store))
        assert "[regression] a:" in text
        assert "b:" not in text  # ok rows hidden by default
        assert "2 point(s) compared: 1 ok, 1 regression" in text

    def test_show_ok_lists_everything(self, store):
        _fill(store, "base", {"a": 10.0})
        _fill(store, "check", {"a": 10.0})
        text = regress_table(regress(store), show_ok=True)
        assert "[ok] a:" in text
