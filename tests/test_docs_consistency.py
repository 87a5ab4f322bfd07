"""Documentation-consistency tests: the docs describe this repository.

Docs drift silently; these checks tie the load-bearing claims in
README/DESIGN/EXPERIMENTS to the code so a rename or removal fails CI.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.bench.harness import all_experiments

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    path = ROOT / name
    assert path.exists(), f"{name} missing"
    return path.read_text()


class TestFilesExist:
    @pytest.mark.parametrize(
        "name",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "CHANGELOG.md",
            "CONTRIBUTING.md",
            "LICENSE",
            "docs/algorithms.md",
            "docs/api.md",
            "docs/reproduction_notes.md",
        ],
    )
    def test_document_present(self, name):
        assert (ROOT / name).exists()

    def test_examples_referenced_in_readme_exist(self):
        readme = _read("README.md")
        for match in re.findall(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / match).exists(), match

    def test_docs_referenced_in_readme_exist(self):
        readme = _read("README.md")
        for match in re.findall(r"docs/(\w+\.md)", readme):
            assert (ROOT / "docs" / match).exists(), match


class TestExperimentCoverage:
    def test_every_experiment_appears_in_experiments_md(self):
        text = _read("EXPERIMENTS.md")
        for experiment in all_experiments():
            assert experiment.experiment_id in text, experiment.experiment_id

    def test_every_paper_figure_has_experiment(self):
        ids = {experiment.experiment_id for experiment in all_experiments()}
        for figure in (6, 9, 10, 11, 12, 13, 14, 15):
            assert f"fig{figure}" in ids, f"no experiment for figure {figure}"

    def test_design_md_mentions_every_experiment(self):
        design = _read("DESIGN.md")
        for experiment in all_experiments():
            assert f"`{experiment.experiment_id}`" in design, experiment.experiment_id


class TestReadmeClaims:
    def test_paper_identity(self):
        readme = _read("README.md")
        assert "EDBT" in readme
        assert "Skyline Probability over Uncertain Preferences" in readme

    def test_version_matches_package(self):
        import repro

        assert repro.__version__ in _read("CHANGELOG.md")

    def test_quickstart_symbols_exist(self):
        import repro

        readme = _read("README.md")
        for symbol in ("Dataset", "PreferenceModel", "SkylineProbabilityEngine"):
            assert symbol in readme
            assert hasattr(repro, symbol)
