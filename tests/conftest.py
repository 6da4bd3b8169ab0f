import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from metasim.engine import _Engine, initial_state, simulate_ensemble
from metasim.runner import _group_key
from metasim.scenarios import catalog


def _integrate(scs: list) -> list:
    """Scenarios that share everything but b, e, k and m, as one ensemble."""
    state = initial_state(scs[0].params, scs[0].initial_cohorts)
    return simulate_ensemble([sc.params for sc in scs], scs[0].settings, state)


@pytest.fixture(scope="session")
def catalog_runs():
    """Every built-in scenario simulated once, keyed by name.

    Building all of them takes most of a minute; the acceptance tests
    share this single pass instead of re-running scenarios per test.
    Scenarios that share everything but b, e, k and m integrate as one
    ``simulate_ensemble``, as a sweep's points do; every member is its
    solo ``simulate`` bit for bit (``test_engine.py::TestEnsemble``).
    The groups are independent, so they run on up to two processes, the
    most members times steps first; a run's numbers do not depend on the
    process it runs in. The workers are spawned, not forked: this
    process already runs BLAS threads.
    """
    scenarios = catalog()
    groups = {}
    for sc in scenarios:
        groups.setdefault(_group_key(sc), []).append(sc)
    work = sorted(groups.values(), key=lambda scs: len(scs) * scs[0].settings.n_steps, reverse=True)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(min(2, os.cpu_count() or 1), mp_context=spawn) as pool:
        done = list(pool.map(_integrate, work))
    runs = {}
    for scs, out in zip(work, done):
        for sc, result in zip(scs, out):
            if isinstance(result, Exception):
                raise result
            runs[sc.name] = (sc, *result)
    return {sc.name: runs[sc.name] for sc in scenarios}


@pytest.fixture()
def no_steps(monkeypatch):
    """Make every engine step fail, so a check shows it ran before the
    first one."""

    def no_step(self, dt):
        raise AssertionError("stepped before the configuration was checked")

    monkeypatch.setattr(_Engine, "step", no_step)
