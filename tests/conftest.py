import pytest

from metasim.engine import _Engine, initial_state, simulate_ensemble
from metasim.runner import _group_key
from metasim.scenarios import catalog


@pytest.fixture(scope="session")
def catalog_runs():
    """Every built-in scenario simulated once, keyed by name.

    Building all of them takes most of a minute; the acceptance tests
    share this single pass instead of re-running scenarios per test.
    Scenarios that share everything but b, e, k and m integrate as one
    ``simulate_ensemble``, as a sweep's points do; every member is its
    solo ``simulate`` bit for bit (``test_engine.py::TestEnsemble``).
    """
    groups = {}
    for sc in catalog():
        groups.setdefault(_group_key(sc), []).append(sc)
    runs = {}
    for scs in groups.values():
        state = initial_state(scs[0].params, scs[0].initial_cohorts)
        out = simulate_ensemble([sc.params for sc in scs], scs[0].settings, state)
        for sc, result in zip(scs, out):
            if isinstance(result, Exception):
                raise result
            runs[sc.name] = (sc, *result)
    return runs


@pytest.fixture()
def no_steps(monkeypatch):
    """Make every engine step fail, so a check shows it ran before the
    first one."""

    def no_step(self, dt):
        raise AssertionError("stepped before the configuration was checked")

    monkeypatch.setattr(_Engine, "step", no_step)
