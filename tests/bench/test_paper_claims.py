"""The reproduction contract, as a test: every quantitative claim in
the paper's evaluation and every design ablation reproduces within its
acceptance band — the same table ``python -m repro.bench --paper``
prints and exits on."""

import math

import pytest

from repro.bench import paper
from repro.bench.__main__ import main
from repro.bench.paper import PAPER_CLAIMS, Claim, evaluate_claims, render_claims


@pytest.fixture(scope="module")
def experiments():
    """Run the experiments once; every test below, the CLI included,
    evaluates the table against this one dict."""
    computed = paper._experiments()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paper, "_experiments", lambda: computed)
        yield computed


@pytest.fixture(scope="module")
def results(experiments):
    return evaluate_claims()


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


def test_cli_paper_flag(experiments, tmp_path):
    out_file = tmp_path / "claims.txt"
    assert main(["--paper", "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert "paper claims reproduced within band" in text
    assert "verdict" in text


def test_cli_paper_flag_exits_1_on_a_miss(monkeypatch, tmp_path, capsys):
    impossible = Claim("impossible", "6.1", "a band nothing can meet", None, "x",
                       1.0, 2.0, lambda f: 0.0)
    monkeypatch.setattr(paper, "_experiments", dict)
    monkeypatch.setattr(paper, "PAPER_CLAIMS", (impossible,))
    assert main(["--paper", "--out", str(tmp_path / "claims.txt")]) == 1
    assert "MISS" in capsys.readouterr().out


def test_bands_contain_paper_values():
    """Sanity on the registry itself: each band brackets the paper's
    own number (except the sign-only large-domain claim)."""
    for claim in PAPER_CLAIMS:
        assert claim.lo < claim.hi
        assert math.isfinite(claim.lo) or math.isfinite(claim.hi), claim.key
        if claim.paper_value is not None and claim.key != "6.1-large-nvshmem":
            assert claim.lo <= claim.paper_value <= claim.hi, claim.key
