"""Documentation consistency: the promises in DESIGN.md / README.md
point at files and symbols that actually exist."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


def test_design_bench_targets_exist():
    """Every experiment DESIGN.md indexes cites rows of the claims table."""
    from repro.bench.paper import PAPER_CLAIMS

    cited = set(re.findall(r"`claim:([\w.-]+)`", read("DESIGN.md")))
    assert cited, "DESIGN.md should cite claim rows"
    assert cited <= {claim.key for claim in PAPER_CLAIMS}, \
        sorted(cited - {claim.key for claim in PAPER_CLAIMS})


def test_design_test_targets_exist():
    design = read("DESIGN.md")
    for target in set(re.findall(r"tests/([\w/]+\.py)", design)):
        assert (ROOT / "tests" / target).exists(), target


def test_readme_examples_exist():
    readme = read("README.md")
    for target in set(re.findall(r"examples/(\w+\.py)", readme)):
        assert (ROOT / "examples" / target).exists(), target


def test_readme_docs_exist():
    for name in ("DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
        assert (ROOT / name).exists(), name
    for doc in ("architecture.md", "cost-model.md", "protocols.md", "tutorial.md"):
        assert (ROOT / "docs" / doc).exists(), doc


def test_experiments_covers_every_figure():
    experiments = read("EXPERIMENTS.md")
    for figure in ("2.2", "6.1", "6.2", "6.3"):
        assert f"Figure {figure}" in experiments, figure


def test_readme_mentions_every_package():
    readme = read("README.md")
    src = ROOT / "src" / "repro"
    packages = {p.name for p in src.iterdir() if p.is_dir() and not p.name.startswith("__")}
    for package in packages:
        assert f"repro.{package}" in readme, package


def test_design_lists_every_variant():
    design = read("DESIGN.md")
    from repro.stencil import variant_names

    for name in variant_names():
        assert name in design, name


def test_mentioned_public_symbols_importable():
    readme = read("README.md")
    for dotted in set(re.findall(r"`repro\.[\w.]+\.(?:[a-z_]+)`", readme)):
        path = dotted.strip("`")
        module, _, attr = path.rpartition(".")
        mod = __import__(module, fromlist=[attr])
        assert hasattr(mod, attr), path
