"""The reproduction contract, as a test: every quantitative claim in
the paper's evaluation and every design ablation reproduces within its
acceptance band.

The module runs ``python -m repro.bench --paper --no-cache --jobs 1``
once: the report part of its output must equal the committed golden,
and every test below reads the verdict of that one pass."""

import math
import pathlib
import pstats

import pytest

from repro.apps.cg import cg_point
from repro.bench import __main__ as bench_cli
from repro.bench import paper
from repro.bench.__main__ import main
from repro.bench.figures import _stencil_point
from repro.bench.paper import PAPER_CLAIMS, Claim, ClaimResult, render_claims
from repro.perf import ResultCache, SweepRunner, point_identity, use_runner
from repro.perf.sweep import QuarantinedPoint
from repro.sdfg.codegen import SDFGExecutor
from repro.sdfg.serialize import sdfg_to_json

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden" / "bench_report.md"


@pytest.fixture(scope="module")
def paper_pass(tmp_path_factory):
    """One ``--paper`` pass; records the figures, ablations and results
    it evaluated next to its exit code and ``--out`` text, and every
    DaCe program it ran: the transformed graph, put scope and per-rank
    parameters of each ``SDFGExecutor.run``."""
    seen = {"dace_runs": []}
    evaluate, ablations = paper.evaluate_claims, paper._ablations
    run = SDFGExecutor.run

    def recording_run(self, rank_args):
        seen["dace_runs"].append(
            (sdfg_to_json(self.sdfg), self.comm_scope, repr(rank_args)))
        return run(self, rank_args)

    def recording_evaluate(figures):
        seen["figures"] = figures
        seen["results"] = evaluate(figures)
        return seen["results"]

    def recording_ablations():
        seen["ablations"] = ablations()
        return seen["ablations"]

    out = tmp_path_factory.mktemp("paper") / "paper.md"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paper, "evaluate_claims", recording_evaluate)
        mp.setattr(paper, "_ablations", recording_ablations)
        mp.setattr(SDFGExecutor, "run", recording_run)
        seen["exit"] = main(["--paper", "--no-cache", "--jobs", "1", "--out", str(out)])
    seen["text"] = out.read_text()
    return seen


@pytest.fixture(scope="module")
def results(paper_pass):
    return paper_pass["results"]


def test_every_paper_claim_within_band(results):
    failed = [r for r in results if not r.ok]
    assert not failed, "\n" + render_claims(failed)


def test_all_figures_covered(results):
    figures = {r.claim.figure for r in results}
    assert {"2.2a", "2.2b", "6.1", "6.2", "6.3a", "6.3b",
            "§4", "§4.1.2", "§5.1", "§5.3.2", "§5.4", "CG"} <= figures


def test_claim_count_matches_registry(results):
    assert len(results) == len(PAPER_CLAIMS) >= 50
    assert len({c.key for c in PAPER_CLAIMS}) == len(PAPER_CLAIMS)


def test_render_mentions_verdicts(results):
    text = render_claims(results)
    assert "OK" in text
    assert f"{len(results)}/{len(results)} paper claims" in text
    # rows the paper states only qualitatively have no paper value
    assert "—" in text


def test_render_flags_rows_on_a_band_edge():
    on_edge = ClaimResult(Claim("edge", "X", "sits on hi", 96.0, "%", 90.0, 100.0,
                                lambda f: 0.0), 100.0)
    inside = ClaimResult(Claim("inside", "X", "clear of both", None, "x", 1.0, math.inf,
                               lambda f: 0.0), 3.5)
    assert (on_edge.margin, inside.margin) == (0.0, 2.5)
    lines = render_claims([on_edge, inside]).splitlines()
    assert "0.000!" in lines[2] and "+4.00" in lines[2]
    assert "2.500 " in lines[3]
    assert lines[-1] == "on a band edge (!): edge"


def test_cli_paper_flag(paper_pass):
    """The report part of ``--out`` is the golden, byte for byte; the
    verdict follows it."""
    assert paper_pass["exit"] == 0
    text = paper_pass["text"]
    golden = GOLDEN.read_text()
    assert text.startswith(golden)
    verdict = text[len(golden):]
    assert "verdict" in verdict
    assert "paper claims reproduced within band" in verdict


def test_cli_paper_flag_exits_1_on_a_miss(paper_pass, monkeypatch, tmp_path, capsys):
    """Replays the module pass's figures and ablations, so no simulation
    runs here."""
    impossible = Claim("impossible", "6.1", "a band nothing can meet", None, "x",
                       1.0, 2.0, lambda f: 0.0)
    monkeypatch.setattr(bench_cli, "FIGURES", {
        key: (lambda figs=figs: figs) for key, figs in paper_pass["figures"].items()})
    monkeypatch.setattr(paper, "_ablations", lambda: paper_pass["ablations"])
    monkeypatch.setattr(paper, "PAPER_CLAIMS", (impossible,))
    assert main(["--paper", "--no-cache", "--out", str(tmp_path / "claims.txt")]) == 1
    assert "MISS" in capsys.readouterr().out


def test_cli_profile_covers_the_claims(paper_pass, monkeypatch, tmp_path):
    """The whole-run profile is still on while the claims evaluate."""
    def replayed_ablations():
        return paper_pass["ablations"]

    monkeypatch.setattr(bench_cli, "FIGURES", {
        key: (lambda figs=figs: figs) for key, figs in paper_pass["figures"].items()})
    monkeypatch.setattr(paper, "_ablations", replayed_ablations)
    prof = tmp_path / "run.prof"
    assert main(["--paper", "--no-cache", "--profile", str(prof)]) == 0
    profiled = {name for _, _, name in pstats.Stats(str(prof)).stats}
    assert {"evaluate_claims", "replayed_ablations"} <= profiled


def test_no_dace_configuration_runs_twice(paper_pass):
    """A claim that reads a figure's point reads the figure's row: the
    pass simulates each generated program configuration once (Fig 6.3a
    at 8 GPUs is also §5.1's relaxed-barrier run)."""
    runs = paper_pass["dace_runs"]
    assert len(runs) >= 16  # the 6.3a and 6.3b points at least
    assert len(set(runs)) == len(runs)


def test_ablations_replay_from_the_cache(tmp_path):
    """Every ablation is a sweep point: a second pass against the same
    cache computes nothing and reads the same values."""
    passes = []
    for _ in range(2):
        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"))
        with use_runner(runner):
            passes.append((paper._ablations(), runner.misses, runner.hits))
    (first, first_misses, _), (second, misses, hits) = passes
    assert first_misses > 0
    assert (misses, hits) == (0, first_misses)
    assert second == first


class _QuarantiningRunner(SweepRunner):
    """Runs every worker but ``dead``; each point of ``dead`` comes
    back quarantined, as if its worker process died on every attempt."""

    def __init__(self, dead):
        super().__init__()
        self.dead = dead

    def map(self, fn, argtuples):
        if fn is not self.dead:
            return super().map(fn, argtuples)
        return [QuarantinedPoint(i, point_identity(fn, args), attempts=3)
                for i, args in enumerate(argtuples)]


@pytest.mark.parametrize("dead, args", [
    (_stencil_point, ("cpufree", paper._stencil_config((34, 1026, 1026)))),
    (cg_point, ("cg_baseline", paper._cg_config(2))),
])
def test_a_quarantined_ablation_point_fails_by_name(paper_pass, dead, args):
    with use_runner(_QuarantiningRunner(dead)), \
            pytest.raises(RuntimeError, match="quarantined") as exc:
        paper.evaluate_claims(paper_pass["figures"])
    assert point_identity(dead, args) in str(exc.value)


@pytest.mark.parametrize("extra", [["6.1"], ["--fault-profile", "transient"]])
def test_cli_paper_rejects_figures_and_fault_profiles(extra):
    with pytest.raises(SystemExit) as exc:
        main(["--paper", "--no-cache", *extra])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", ["2.2b-comm-fraction", "6.3b-comm-fraction",
                                 "cg-device-idle"])
def test_no_share_row_can_pass_100(results, key):
    """A share above 100% is a miss, never a pass: the band stops at 100
    and the measured share sits inside it."""
    (result,) = [r for r in results if r.claim.key == key]
    assert result.claim.hi == 100.0
    assert 0.0 <= result.measured <= 100.0
    overshoot = ClaimResult(result.claim, 100.5)
    assert not overshoot.ok


def test_bands_contain_paper_values():
    """Sanity on the registry itself: each band brackets the paper's
    own number (except the sign-only large-domain claim)."""
    for claim in PAPER_CLAIMS:
        assert claim.lo < claim.hi
        assert math.isfinite(claim.lo) or math.isfinite(claim.hi), claim.key
        if claim.paper_value is not None and claim.key != "6.1-large-nvshmem":
            assert claim.lo <= claim.paper_value <= claim.hi, claim.key
