"""Acceptance gate: one test per shipped guarantee, at its stated
tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL
line per criterion with the measured values. Scenario-wide checks share
the session catalog runs built by the conftest fixture; the stated
runtime budgets refer to the work a criterion needs, which those shared
runs stay far inside.
"""

import filecmp
import math
import time

import numpy as np

from metasim import (
    ModelParams,
    SolverSettings,
    SystemState,
    TumorState,
)
from metasim.engine import simulate, step
from metasim.observables import histogram, oscillation_metrics
from metasim.runner import run_scenario
from metasim.scenarios import catalog
from metasim.spectral import fit_growth_rate, malthus_exponent
from oracles import brute_lambda0, flow_dense, renewal, renewal_births


def _verdict(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _metrics(runs, name):
    sc, traj, _ = runs[name]
    return oscillation_metrics(traj, sc.resolved_transient)


def test_c01_malthus_closed_form():
    # alpha = 0 with the threshold at the domain edge collapses the
    # spectral equation to m/lambda = 1
    t0 = time.perf_counter()
    rels = [
        abs(malthus_exponent(ModelParams(e=0.0, alpha=0.0, m=m)).lambda0 - m) / m
        for m in (1.0, 2.5)
    ]
    elapsed = time.perf_counter() - t0
    _verdict(
        max(rels) < 1e-9 and elapsed < 1.0,
        "c01 closed-form growth exponent",
        f"rel err {max(rels):.2e} < 1e-9 in {elapsed:.2f}s",
    )


def test_c02_malthus_brute_force_equivalence():
    p = ModelParams(e=0.0)
    t0 = time.perf_counter()
    res = malthus_exponent(p)
    oracle = brute_lambda0(p.b, p.m, p.alpha, p.V0, p.K0, p.Vm)
    elapsed = time.perf_counter() - t0
    rel = abs(res.lambda0 - oracle) / oracle
    _verdict(
        rel < 1e-6 and elapsed < 10.0,
        "c02 solver vs brute-force oracle",
        f"rel err {rel:.2e} < 1e-6 in {elapsed:.2f}s",
    )


def test_c03_linear_growth_matches_exponent():
    p = ModelParams(e=0.0)
    t0 = time.perf_counter()
    lam = malthus_exponent(p).lambda0
    rels = []
    for dt in (1e-2, 5e-3):
        traj, _ = simulate(p, SolverSettings(dt=dt, t_end=50.0, sample_every=0.1))
        slope = fit_growth_rate(traj.times, traj.M, (30.0, 50.0))
        rels.append(abs(slope - lam) / lam)
    elapsed = time.perf_counter() - t0
    _verdict(
        rels[0] < 0.02 and rels[1] < rels[0] and elapsed < 30.0,
        "c03 late-window slope vs growth exponent",
        f"rel err {rels[0]:.2e} at dt=1e-2, improving to {rels[1]:.2e} "
        f"at dt=5e-3, in {elapsed:.1f}s",
    )


def test_c04_primary_fixed_point_without_emission():
    # With emission off the population stays silent and the primary
    # tends to (1, 1). The Jacobian there, [[-1, 1], [b/3, -b]], has
    # eigenvalues -1 +- 1/sqrt(3) at b = 1, so the slow mode decays like
    # exp(-(1 - 1/sqrt(3)) t). An adaptive reference solve (DOP853,
    # rtol 1e-13) from the birth state (0.1, 0.2) puts the state
    # 1.206e-3 from (1, 1) at t = 20, first inside the 1e-3 ball at
    # t ~ 20.44 and 1.46e-4 away at t = 25. So the horizon is t = 25, the
    # first round time well inside the ball: no solver can meet 1e-3 at
    # t = 20. The whole sampled path is pinned to the independent oracle
    # (which carries the 1.206e-3 at t = 20), and the approach must run
    # at the linearised rate, so the longer horizon hides neither a
    # solver fault nor a scheme that snaps or overdamps onto the point.
    p = ModelParams(m=0.0, e=0.0)
    t_end = 25.0
    t0 = time.perf_counter()
    traj, final = simulate(p, SolverSettings(dt=1e-2, t_end=t_end, sample_every=0.1))
    elapsed = time.perf_counter() - t0
    gap = max(abs(final.primary.V - 1.0), abs(final.primary.K - 1.0))
    silent = bool(np.all(traj.M == 0.0) and np.all(traj.N == 0.0))
    ref = flow_dense(p.b, p.V0, p.K0, t_end, 1e-3)[::100]
    deviation = float(np.max(np.abs(traj.Vp - ref)))
    tail = traj.times >= 20.0 - 1e-9
    slope = np.polyfit(traj.times[tail], np.log(np.abs(1.0 - traj.Vp[tail])), 1)[0]
    rate = 1.0 - 1.0 / math.sqrt(3.0)
    rate_err = abs(-slope - rate) / rate
    _verdict(
        gap < 1e-3 and silent and deviation < 1e-9 and rate_err < 0.01 and elapsed < 1.0,
        "c04 primary fixed point",
        f"|(Vp,Kp)-(1,1)| = {gap:.2e} at t=25 (tolerance 1e-3), "
        f"max |Vp - oracle| = {deviation:.1e} (< 1e-9), "
        f"decay rate {-slope:.5f} vs 1-1/sqrt(3) = {rate:.5f} "
        f"(rel {rate_err:.1e} < 1e-2), M=N=0 exactly: {silent}, in {elapsed:.2f}s",
    )


def test_c05_inhibitor_closed_form():
    # sources frozen by pinning primary and one cohort at the unit
    # fixed point with m = e = 0: constant production c = 1 + 2
    p = ModelParams(m=0.0, e=0.0, k=2.0)
    s = SystemState(
        t=0.0,
        primary=TumorState(1.0, 1.0),
        I=0.0,
        V=[1.0],
        K=[1.0],
        w=[2.0],
        birth_t=[0.0],
        born_count=2.0,
        exited_count=0.0,
        V0=p.V0,
    )
    t0 = time.perf_counter()
    for _ in range(1000):
        s = step(s, p, 1e-3)
    elapsed = time.perf_counter() - t0
    exact = (3.0 / 2.0) * (1.0 - math.exp(-2.0 * 1.0))
    rel = abs(s.I - exact) / exact
    _verdict(
        rel < 1e-6 and elapsed < 1.0,
        "c05 inhibitor closed form",
        f"rel err {rel:.2e} < 1e-6 at dt=1e-3 in {elapsed:.2f}s",
    )


def test_c06_conservation_on_every_catalog_scenario(catalog_runs):
    worst = 0.0
    for name, (_, traj, final) in catalog_runs.items():
        gap = float(np.abs(traj.born - traj.exited - traj.N).max())
        live = math.fsum(final.w)
        gap = max(gap, abs(final.born_count - final.exited_count - live))
        assert gap < 1e-9, f"conservation broken on {name}: {gap:.3e}"
        worst = max(worst, gap)
    _verdict(
        worst < 1e-9,
        "c06 conservation",
        f"born = exited + live on all 12 scenarios, worst gap {worst:.2e} < 1e-9",
    )


def test_c07_base_regime_oscillates_away_from_zero(catalog_runs):
    om = _metrics(catalog_runs, "base")
    _verdict(
        om.peak_times.size >= 3 and om.min_after_transient > 0.0,
        "c07 base regime",
        f"{om.peak_times.size} peaks >= 3, min after transient "
        f"{om.min_after_transient:.3f} > 0",
    )


def test_c08_comparative_statics(catalog_runs):
    amp_hi = _metrics(catalog_runs, "e-x10").amplitude
    amp_base = _metrics(catalog_runs, "base").amplitude
    amp_lo = _metrics(catalog_runs, "e-x0.1").amplitude
    per_fast = _metrics(catalog_runs, "m-x10").mean_period
    per_base = _metrics(catalog_runs, "base").mean_period
    ok = (
        None not in (amp_hi, amp_base, amp_lo, per_fast, per_base)
        and amp_hi < amp_base < amp_lo
        and per_fast < per_base
    )
    _verdict(
        ok,
        "c08 comparative statics",
        f"amplitude {amp_hi:.3f} < {amp_base:.3f} < {amp_lo:.3f} as inhibition "
        f"efficacy falls; period {per_fast:.2f} < {per_base:.2f} as emission rises",
    )


def test_c09_small_b_homeostasis(catalog_runs):
    sc, traj, _ = catalog_runs["b-x0.1"]
    window = traj.largest_V[traj.times >= sc.resolved_transient]
    window = window[~np.isnan(window)]
    largest = float(window.max())

    om = oscillation_metrics(traj, sc.resolved_transient)
    amp_base = _metrics(catalog_runs, "base").amplitude
    # a flat series detects no peaks and reports no amplitude; that is
    # the strongest possible form of "low amplitude", scored as zero
    amp = om.amplitude or 0.0
    _verdict(
        window.size > 0 and largest < 0.15 and amp < 0.1 * amp_base,
        "c09 homeostasis at b=0.1",
        f"largest volume {largest:.3f} < 0.15 across the post-transient window, "
        f"amplitude {amp:.3f} < {0.1 * amp_base:.3f}",
    )


def test_c10_step_size_convergence_order():
    p = ModelParams()
    t0 = time.perf_counter()
    at = {}
    for dt in (4e-2, 2e-2, 1e-2):
        traj, _ = simulate(p, SolverSettings(dt=dt, t_end=10.0, sample_every=10.0))
        at[dt] = float(traj.M[-1])
    elapsed = time.perf_counter() - t0
    d1 = abs(at[4e-2] - at[2e-2])
    d2 = abs(at[2e-2] - at[1e-2])
    order = math.log2(d1 / d2)
    _verdict(
        order >= 2.0 and elapsed < 60.0,
        "c10 step-size convergence",
        f"|dM(10)| {d1:.2e} -> {d2:.2e} under halving, observed order "
        f"{order:.2f} >= 2, in {elapsed:.2f}s",
    )


def test_c11_determinism_byte_identical_reruns(tmp_path):
    by_name = {sc.name: sc for sc in catalog()}
    identical = True
    for name in ("base", "linear"):
        sc = by_name[name]
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        run_scenario(sc, out_dir=str(d1))
        run_scenario(sc, out_dir=str(d2))
        f1 = d1 / f"{name}_timeseries.csv"
        f2 = d2 / f"{name}_timeseries.csv"
        identical = identical and filecmp.cmp(f1, f2, shallow=False)
    _verdict(
        identical,
        "c11 determinism",
        "repeated runs emit byte-identical time series (base, linear)",
    )


def test_c12_linear_model_converges_to_the_renewal_oracle():
    # the oracle is second order in its grid step too; its Richardson
    # value from h = 2e-3 and 1e-3 is the exact reference here
    p = next(sc.params for sc in catalog() if sc.name == "linear")
    T = 10.0
    (M2, N2), (M1, N1) = renewal(p, T, 2e-3), renewal(p, T, 1e-3)
    exact = {"M": (4.0 * M1 - M2) / 3.0, "N": (4.0 * N1 - N2) / 3.0}
    at = {}
    for dt in (2e-2, 1e-2, 5e-3):
        traj, _ = simulate(p, SolverSettings(dt=dt, t_end=T, sample_every=T))
        at[dt] = {"M": float(traj.M[-1]), "N": float(traj.N[-1])}
    for key, ref in exact.items():
        err = [abs(at[dt][key] - ref) / ref for dt in (2e-2, 1e-2, 5e-3)]
        orders = [math.log2(err[0] / err[1]), math.log2(err[1] / err[2])]
        extrapolated = (4.0 * at[5e-3][key] - at[1e-2][key]) / 3.0
        gap = abs(extrapolated - ref) / ref
        _verdict(
            min(orders) >= 1.9 and gap <= 1e-9,
            f"c12 renewal oracle, {key}(10)",
            f"relative errors {err[0]:.2e}, {err[1]:.2e}, {err[2]:.2e} at dt = 2e-2, "
            f"1e-2, 5e-3 (orders {orders[0]:.3f}, {orders[1]:.3f} >= 1.9); "
            f"Richardson value {gap:.1e} <= 1e-9 from the oracle",
        )


def test_c12_final_histogram_matches_the_renewal_oracle():
    # V rises along the flow, so the bin [e_j, e_j+1] is the age interval
    # [a_j, a_j+1] with V(X_a_j) = e_j, and holds the births of times
    # T - a_j+1 to T - a_j. A cohort carries the births of one step, at
    # ages within dt/2 of its own, and lands whole in one bin, so a bin
    # may miss the oracle by the cohorts whose age span holds an edge.
    p = next(sc.params for sc in catalog() if sc.name == "linear")
    T, h, dt = 10.0, 1e-3, 1e-2
    V, B = renewal_births(p, T, h)
    assert np.all(np.diff(V) > 0)
    grid = np.arange(V.size) * h
    born = np.concatenate(([0.0], np.cumsum(0.5 * h * (B[1:] + B[:-1]))))
    _, final = simulate(p, SolverSettings(dt=dt, t_end=T, sample_every=T))
    hist = histogram(final)
    # an edge above the flow's reach at age T is the age T
    edge_age = np.interp(hist.bin_edges, V, grid)
    born_before = np.interp(T - edge_age, grid, born)
    oracle = born_before[:-1] - born_before[1:]
    age = T - final.birth_t
    straddle = np.array([final.w[np.abs(age - a) <= 0.5 * dt].sum() for a in edge_age])
    tol = straddle[:-1] + straddle[1:] + 1e-6 * oracle
    err = np.abs(hist.mass - oracle)
    worst = int(np.argmax(err - tol))
    _verdict(
        bool(np.all(err <= tol)),
        "c12 renewal oracle, final histogram",
        f"{hist.mass.size} bins; worst bin {worst}: mass {hist.mass[worst]:.6g} against "
        f"{oracle[worst]:.6g}, off by {err[worst]:.2e} <= {tol[worst]:.2e} "
        f"(edge-straddling cohorts plus 1e-6 relative)",
    )
