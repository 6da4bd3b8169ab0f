import pytest

from metasim import simulate
from metasim.engine import _Engine
from metasim.scenarios import catalog


@pytest.fixture(scope="session")
def catalog_runs():
    """Every built-in scenario simulated once, keyed by name.

    Building all of them takes around a minute; the acceptance tests
    share this single pass instead of re-running scenarios per test.
    """
    runs = {}
    for sc in catalog():
        traj, final = simulate(sc.params, sc.settings, sc.initial_cohorts)
        runs[sc.name] = (sc, traj, final)
    return runs


@pytest.fixture()
def no_steps(monkeypatch):
    """Make every engine step fail, so a check shows it ran before the
    first one."""

    def no_step(self, dt):
        raise AssertionError("stepped before the configuration was checked")

    monkeypatch.setattr(_Engine, "step", no_step)
