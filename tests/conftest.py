"""Shared fixtures: small spaces with known skyline probabilities."""

from __future__ import annotations

import pytest

from repro.bench.harness import get_experiment
from repro.core.objects import Dataset
from repro.core.preferences import PreferenceModel
from repro.data.examples import observation_example, running_example


@pytest.fixture
def observation():
    """(dataset, preferences) of the paper's Figure 1 observation."""
    return observation_example()


@pytest.fixture
def running():
    """(dataset, preferences) of the paper's Figure 4 running example."""
    return running_example()


@pytest.fixture
def tiny_space():
    """A 2-d space with explicit, asymmetric, partly-incomparable prefs.

    Three objects over values {a, b} x {x, y, z}; preferences chosen with
    distinct probabilities so mistakes in orientation show up in numbers.
    """
    dataset = Dataset([("a", "x"), ("b", "y"), ("a", "z")], labels=["T", "U", "V"])
    preferences = PreferenceModel(2)
    preferences.set_preference(0, "a", "b", 0.7, 0.2)  # 0.1 incomparable
    preferences.set_preference(1, "x", "y", 0.6, 0.4)
    preferences.set_preference(1, "x", "z", 0.3, 0.5)  # 0.2 incomparable
    preferences.set_preference(1, "y", "z", 0.8, 0.1)  # 0.1 incomparable
    return dataset, preferences


@pytest.fixture(scope="session")
def quick_run():
    """``quick_run(experiment_id)``: the experiment's quick-scale tables.

    Each registered experiment runs at most once per session; every test
    that reads its quick tables shares that run.  The tables are shared,
    so tests only read them: at the end of the session each one must
    still equal (by ``repr``) what its run returned.
    """
    tables = {}
    snapshots = {}

    def run(experiment_id):
        if experiment_id not in tables:
            tables[experiment_id] = get_experiment(experiment_id).run("quick")
            snapshots[experiment_id] = repr(tables[experiment_id])
        return tables[experiment_id]

    yield run
    mutated = sorted(
        experiment_id
        for experiment_id, result in tables.items()
        if repr(result) != snapshots[experiment_id]
    )
    assert not mutated, f"a test mutated the shared quick tables of {mutated}"
