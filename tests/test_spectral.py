import bisect
import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from metasim import (
    ConfigurationError,
    ModelParams,
    NoRootError,
    NotLinearError,
    TumorState,
)
from metasim import spectral
from metasim._dop853 import Dop853
from metasim.model import _field
from metasim.spectral import (
    characteristic_flow,
    fit_growth_rate,
    malthus_exponent,
)
from oracles import (
    brute_lambda0,
    dop853_dense_at,
    dop853_reference,
    flow_dense,
    flow_dense_state,
    flow_extrapolated,
    richardson_lambda0,
)


def _grid(p: ModelParams, tau_max: float) -> np.ndarray:
    """Volumes of the cached flow of p at the grid nodes from 0 to
    tau_max: the volumes a solve reads."""
    return spectral._flow_for(p).volumes(0, round(tau_max / spectral._DTAU))[0]


def _capacities(p: ModelParams, tau_max: float) -> np.ndarray:
    """The dense output's capacities at the same nodes, each from the
    step that holds it in scalar Horner form: a solve reads only the
    last node's, by ``at``, which matches this form bit for bit
    (``test_sample_is_each_steps_scalar_horner_form``)."""
    ode = spectral._flow_for(p)._ode
    ends = [step[0] for step in ode._dense[1:]] + [ode.t]
    nodes = np.arange(round(tau_max / spectral._DTAU) + 1) * spectral._DTAU
    return np.array(
        [dop853_dense_at(ode._dense[bisect.bisect_left(ends, tau)], tau)[1] for tau in nodes]
    )


def _rates(p: ModelParams, Va: np.ndarray, tau_star: float) -> tuple[np.ndarray, np.ndarray]:
    """The emission rates m V^alpha at the grid volumes Va and, as a
    one-element array, at the crossing time tau_star."""
    onset = p.Vm if tau_star > 0 else p.V0
    return p.m * Va**p.alpha, p.m * np.array([onset]) ** p.alpha


class TestCharacteristicFlow:
    def test_starts_at_birth_state(self):
        p = ModelParams(e=0.0)
        f0 = characteristic_flow(0.0, p)
        assert f0.V == pytest.approx(p.V0, rel=1e-12, abs=0)
        assert f0.K == pytest.approx(p.K0, rel=1e-12, abs=0)

    def test_settles_at_unit_fixed_point(self):
        p = ModelParams(e=0.0)
        f = characteristic_flow(60.0, p)
        assert f.V == pytest.approx(1.0, abs=1e-6)
        assert f.K == pytest.approx(1.0, abs=1e-6)

    def test_off_grid_matches_dense_oracle(self):
        p = ModelParams(e=0.0)
        tau = 2.3456
        dense = flow_dense(p.b, p.V0, p.K0, 4.0, 1e-4)
        oracle_V = dense[int(round(tau / 1e-4))]
        assert characteristic_flow(tau, p).V == pytest.approx(oracle_V, rel=1e-8, abs=0)

    def test_off_grid_matches_fine_oracle(self):
        p = ModelParams(e=0.0)
        h = 1e-5
        dense = flow_dense(p.b, p.V0, p.K0, 3.0, h)
        # fine-grid indices off the flow grid, then two times just
        # below the node at 3
        ks = [17 + 14993 * j for j in range(20)] + [299_999]
        assert all(k % round(spectral._DTAU / h) for k in ks)
        for k in ks:
            assert characteristic_flow(k * h, p).V == pytest.approx(dense[k], rel=0, abs=1e-12)
        below = math.nextafter(3.0, 0.0)
        assert characteristic_flow(below, p).V == pytest.approx(dense[-1], rel=0, abs=1e-12)

    def test_last_cell_matches_fine_oracle(self):
        # an unsettled flow, so the state still moves within the cell
        p = ModelParams(e=0.0, b=0.01)
        flow = spectral._flow_for(p)
        h, dtau = 1e-5, spectral._DTAU
        node = round(spectral._TAU_MAX_INITIAL / dtau) - 1
        dense = flow_dense(p.b, *flow.at(node * dtau), dtau, h)
        for k in (1, 37, 63, 99):
            tau = node * dtau + k * h
            assert tau < spectral._TAU_MAX_INITIAL <= flow._ode.t
            assert characteristic_flow(tau, p).V == pytest.approx(dense[k], rel=0, abs=1e-12)

    def test_past_an_unsettled_horizon_rejected(self):
        # b = 0.01 reaches the horizon cap before settling at (1, 1); the
        # state at 900 is 6.4e-3 from the state at tau = 1200
        p = ModelParams(e=0.0, b=0.01)
        spectral._flow.cache_clear()
        with pytest.raises(ConfigurationError, match="tau=1200 .* tau_max=900"):
            characteristic_flow(1200.0, p)
        flow = spectral._flow_for(p)
        cap = spectral._TAU_MAX_CAP
        assert flow._ode.t >= cap
        V, K = flow.at(cap)
        assert not spectral._settled(V, K)
        assert characteristic_flow(cap, p) == TumorState(V=V, K=K)

    def test_past_the_cap_a_settled_flow_answers_from_where_it_settled(self):
        # the anchor flow settles at tau = 50, so a query past the cap
        # neither builds to the cap nor depends on how far it was built
        p = ModelParams(e=0.0)
        spectral._flow.cache_clear()
        far = characteristic_flow(1000.0, p)
        flow = spectral._flow_for(p)
        assert flow._ode.t < 2 * spectral._TAU_MAX_INITIAL
        settled = flow.at(spectral._TAU_MAX_INITIAL)
        assert spectral._settled(*settled)
        assert (far.V, far.K) == settled
        characteristic_flow(800.0, p)
        assert characteristic_flow(1000.0, p) == far

    def test_a_far_query_stays_within_the_cap(self):
        # b = 100 settles by tau = 50: a query at 1e6 reads the state there
        # and integrates no further
        p = ModelParams(e=0.0, b=100.0)
        spectral._flow.cache_clear()
        far = characteristic_flow(1e6, p)
        flow = spectral._flow_for(p)
        assert flow._ode.t < 2 * spectral._TAU_MAX_INITIAL
        assert (far.V, far.K) == flow.at(spectral._TAU_MAX_INITIAL)

    @pytest.mark.parametrize("b", [100.0, 1000.0])
    def test_stiff_off_node_matches_the_fine_oracle(self, b):
        # one RK4 step from the nearest node was up to 1.1e-11 off in K at
        # b = 100 and 8.7e-7 at b = 1000 here; the dense output is within
        # 2.2e-14 of the oracle
        p = ModelParams(e=0.0, b=b)
        h = 2e-6
        V, K = flow_dense_state(p.b, p.V0, p.K0, 0.2, h)
        ks = [k for k in range(1, 100_000, 97) if k % round(spectral._DTAU / h)]
        for k in ks:
            state = characteristic_flow(k * h, p)
            assert state.V == pytest.approx(V[k], rel=0, abs=1e-13)
            assert state.K == pytest.approx(K[k], rel=0, abs=1e-13)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            characteristic_flow(-1.0, ModelParams(e=0.0))


class TestMalthusExponent:
    def test_constant_emission_closed_form(self):
        # alpha = 0 with the threshold at the domain edge makes the
        # spectral integral m/lambda exactly, so the root is m itself
        # to the last digits however small m is: an absolute stop of
        # 1e-15 left 5.0e-11 relative at m = 1e-6 and 1.7e-4 at 1e-12.
        # From 1e-50 on, Brent's method takes more than 100 iterations
        # (about 130 at 1e-50), and the bracket's lower end reaches
        # 1e-9 * 2^-200, about 6.2e-70
        for m in (1.0, 2.5, 1e-6, 1e-12, 1e-50, 1e-60, 1e-69):
            res = malthus_exponent(ModelParams(e=0.0, alpha=0.0, m=m))
            assert res.lambda0 == pytest.approx(m, rel=1e-12, abs=0)
            assert res.residual < 1e-13

    def test_a_root_solve_that_does_not_converge_has_no_root(self, monkeypatch):
        monkeypatch.setattr(spectral, "_BRENT_MAXITER", 3)
        with pytest.raises(NoRootError, match="in 3 iterations"):
            malthus_exponent(ModelParams(e=0.0))

    def test_reference_parameters_frozen_value(self):
        res = malthus_exponent(ModelParams(e=0.0))
        assert res.lambda0 == pytest.approx(0.4292814661422716, rel=1e-9, abs=0)
        assert abs(res.residual) < 1e-10
        assert res.quadrature_nodes > 1000

    def test_reference_parameters_vs_brute_force(self):
        p = ModelParams(e=0.0)
        res = malthus_exponent(p)
        oracle = brute_lambda0(p.b, p.m, p.alpha, p.V0, p.K0, p.Vm)
        assert res.lambda0 == pytest.approx(oracle, rel=1e-6, abs=0)

    def test_slow_regime_extends_horizon(self):
        # a much deeper entry point needs a longer flow horizon; the
        # solver must grow it on its own
        p = ModelParams(e=0.0, V0=1e-4, K0=1e-3)
        res = malthus_exponent(p)
        assert res.tau_max > 50.0
        assert res.lambda0 == pytest.approx(0.15377797754549305, rel=1e-9, abs=0)
        oracle = brute_lambda0(p.b, p.m, p.alpha, p.V0, p.K0, p.Vm)
        assert res.lambda0 == pytest.approx(oracle, rel=1e-6, abs=0)

    def test_monotone_in_emission_strength(self):
        lam1 = malthus_exponent(ModelParams(e=0.0, m=1.0)).lambda0
        lam2 = malthus_exponent(ModelParams(e=0.0, m=2.0)).lambda0
        assert lam2 > lam1
        assert lam2 == pytest.approx(0.7028569585168192, rel=1e-9, abs=0)

    @pytest.mark.parametrize(
        "params", [dict(), dict(b=5.0), dict(m=2.0), dict(b=0.3), dict(b=0.3, m=3.0)]
    )
    def test_matches_the_extrapolated_brute_force(self, params):
        # the oracle's trapezoid at h and h/2, extrapolated; both sides
        # cancel their h^2 term, so they agree far below either grid
        # error. b = 0.3, m = 3 has its first decay bound within the
        # first horizon, so the walk stops after its first root solve
        p = ModelParams(e=0.0, **params)
        oracle = richardson_lambda0(p.b, p.m, p.alpha, p.V0, p.K0, p.Vm)
        assert malthus_exponent(p).lambda0 == pytest.approx(oracle, rel=1e-12, abs=0)

    @pytest.mark.parametrize("Vm", [0.3, 0.5, 0.9])
    def test_gated_threshold_vs_brute_force(self, Vm):
        # the oracle's trapezoid is first order at the switch-on, so its
        # gap to the product rule reaches about 5e-5 here
        p = ModelParams(e=0.0, Vm=Vm)
        spectral._flow.cache_clear()
        res = malthus_exponent(p)
        oracle = brute_lambda0(p.b, p.m, p.alpha, p.V0, p.K0, p.Vm)
        assert res.lambda0 == pytest.approx(oracle, rel=1e-4, abs=0)
        Va = _grid(p, res.tau_max)
        tau_star = spectral._emission_threshold_time(spectral._flow_for(p), Vm, Va)
        assert characteristic_flow(tau_star, p).V == pytest.approx(Vm, rel=0, abs=1e-13)

    @pytest.mark.parametrize(
        "params, below, at",
        [(dict(), 0.05, 0.1), (dict(V0=0.3, K0=0.5), 0.2, 0.3)],
    )
    def test_a_threshold_below_v0_is_the_threshold_at_v0(self, params, below, at):
        # emission starts at node 0 either way, at the rate of V0
        spectral._flow.cache_clear()
        gated = malthus_exponent(ModelParams(e=0.0, Vm=below, **params))
        spectral._flow.cache_clear()
        assert gated == malthus_exponent(ModelParams(e=0.0, Vm=at, **params))

    @pytest.mark.parametrize("Vm", [0.05, 0.1])
    def test_onset_at_node_0_when_v0_reaches_the_threshold(self, Vm):
        p = ModelParams(e=0.0)
        flow = spectral._flow_for(p)
        Va = flow.volumes(0, 10)[0]
        assert Va[0] == p.V0
        assert spectral._emission_threshold_time(flow, Vm, Va, 0) == 0.0

    def test_emission_threshold_shrinks_exponent(self):
        free = malthus_exponent(ModelParams(e=0.0)).lambda0
        gated = malthus_exponent(ModelParams(e=0.0, Vm=0.5)).lambda0
        assert gated < free

    def test_coupled_model_rejected(self):
        with pytest.raises(NotLinearError):
            malthus_exponent(ModelParams(e=1.0))

    def test_no_emission_no_root(self):
        with pytest.raises(NoRootError):
            malthus_exponent(ModelParams(e=0.0, m=0.0))

    def test_unreachable_threshold_no_root(self):
        # the flow saturates at V = 1, so a threshold above it never
        # switches emission on; the walk stops where the flow settled
        p = ModelParams(e=0.0, Vm=5.0)
        spectral._flow.cache_clear()
        with pytest.raises(NoRootError, match="never reaches the emission threshold Vm=5"):
            malthus_exponent(p)
        assert spectral._flow_for(p)._ode.t < 2 * spectral._TAU_MAX_INITIAL


# the anchor and the deep-seed regime, whose flows settle first and keep
# the horizon they have always had, a slow b, whose horizon the decay
# bound sets (it settled at 200 before the bound), and a faster b = 5
FROZEN_FOOTPRINTS = [
    (dict(), 50.0, 25001),
    (dict(b=0.2), 114.0, 57001),
    (dict(V0=1e-4, K0=1e-3), 100.0, 50001),
    (dict(b=5.0), 50.0, 25001),
]


# the first three ids keep the names the rows had on the 1e-3 grid, with
# twice the cells
@pytest.mark.parametrize(
    "params, tau_max, nodes",
    FROZEN_FOOTPRINTS,
    ids=[
        "params0-50.0-50001",
        "params1-114.0-114001",
        "params2-100.0-100001",
        "params3-50.0-25001",
    ],
)
class TestQuadratureGrid:
    @pytest.fixture(autouse=True)
    def cold_solve(self, params):
        # the flow a cold solve leaves
        spectral._flow.cache_clear()
        malthus_exponent(ModelParams(e=0.0, **params))

    def test_volume_matches_the_fine_oracle(self, params, tau_max, nodes):
        # every node against RK4 at a tenth of the step: the grid is within
        # 1.1e-13 of it, and an integrator tolerance of 1e-14 left 3.2e-12
        p = ModelParams(e=0.0, **params)
        Va = _grid(p, tau_max)
        dense, _ = flow_dense_state(p.b, p.V0, p.K0, tau_max, spectral._DTAU / 10)
        assert Va.size == nodes
        assert np.max(np.abs(Va - dense[::10])) < 5e-13

    def test_capacity_matches_the_fine_oracle(self, params, tau_max, nodes):
        # the capacity moves faster than the volume: 4.3e-13 at b = 5, and
        # within 6.2e-14 on the other rows
        p = ModelParams(e=0.0, **params)
        Ka = _capacities(p, tau_max)
        _, dense = flow_dense_state(p.b, p.V0, p.K0, tau_max, spectral._DTAU / 10)
        assert Ka.size == nodes
        assert np.max(np.abs(Ka - dense[::10])) < 1e-12

    def test_coarse_grid_ends_at_the_horizon(self, params, tau_max, nodes):
        # the extrapolated rule needs the quadrature on every second node
        # to cover the same [tau_star, tau_max] as the one on every node:
        # each rule's nodes are the crossing, its cell starts and the last
        # node, and the last coarse cell (width 2 dtau) starts where the
        # fine rule's last but one does
        p = ModelParams(e=0.0, **params)
        beta, beta_star = _rates(p, _grid(p, tau_max), 0.0)
        _, fine = spectral._truncated_integral(beta, beta_star, 0.0)
        _, coarse = spectral._truncated_integral(beta, beta_star, 0.0, 2)
        assert fine.size + 2 == nodes
        assert fine[-1] + spectral._DTAU == tau_max
        assert (coarse.size + 2, coarse[-1]) == ((nodes + 1) // 2, fine[-2])

    def test_footprint_frozen_and_residual_tight(self, params, tau_max, nodes):
        res = malthus_exponent(ModelParams(e=0.0, **params))
        assert (res.tau_max, res.quadrature_nodes) == (tau_max, nodes)
        assert res.residual < 1e-13


# lambda0 of the anchor and the frozen footprints, slow b, other m, Vm
# and alpha, the benchmark's first batch of b for seeds 1-3, two gated
# slow sets whose crossing lies past the first horizon of 50, and slow
# sets with a small m, whose integral truncated at 50 stays below 1.
# Each row holds the single-grid product rule's value at dtau = 1e-3,
# which names the test, then the extrapolated value at dtau = 2e-3,
# within 1.1e-13 relative of the single-grid rule's extrapolation from
# 1e-3 and 5e-4; the single-grid value was up to 5.3e-9 from it.
FROZEN_LAMBDA0 = [
    (dict(), 0.42928146616383706, 0.429281466358133),
    (dict(b=0.2), 0.3542599066564831, 0.35425990782795086),
    (dict(V0=0.0001, K0=0.001), 0.15377797754573885, 0.15377797744774693),
    (dict(b=0.1), 0.3344544743047505, 0.33445447569962283),
    (dict(b=0.05), 0.3225633226953571, 0.3225633242249512),
    (dict(b=0.01), 0.31191701804661287, 0.31191701969814206),
    (dict(m=2.0), 0.7028569585463132, 0.7028569588857753),
    (dict(Vm=0.5), 0.26649122038193906, 0.2664912205130791),
    (dict(alpha=0.0), 0.9999999999999992, 1.0000000000000038),
    (dict(b=0.13377827870871892), 0.34168654579596935, 0.3416865471093759),
    (dict(b=0.2501480146657758), 0.3625859532111909, 0.3625859542875382),
    (dict(b=0.26569742918010036), 0.3649879592193192, 0.36498796026793495),
    (dict(b=0.623528060608783), 0.4047465668835961, 0.4047465674373021),
    (dict(b=0.705089629226061), 0.4110762440801883, 0.4110762445461009),
    (dict(b=1.258826309551153), 0.4411775692046234, 0.4411775692037845),
    (dict(b=1.6308656851560326), 0.4541885098968872, 0.4541885096641498),
    (dict(b=2.6448660862927884), 0.4766873542713131, 0.4766873535850482),
    (dict(b=4.323041096130361), 0.49629059149914734, 0.4962905903545803),
    (dict(b=6.758640533344163), 0.5108561625593918, 0.510856161030206),
    (dict(b=0.1541420619830465), 0.3457658796620098, 0.34576588092947763),
    (dict(b=0.18179893845911338), 0.3509972549189624, 0.35099725612738925),
    (dict(b=0.2784342134592024), 0.36689754193986057, 0.36689754296631927),
    (dict(b=0.41002577954227787), 0.3840455618046811, 0.38404556262620654),
    (dict(b=0.889007765782287), 0.4231450063449156, 0.4231450066341765),
    (dict(b=1.1086513575379868), 0.43463792532922624, 0.434637925437533),
    (dict(b=1.6316410376067534), 0.4542118908091495, 0.45421189057597733),
    (dict(b=3.570789421807664), 0.4890972900590895, 0.48909728909016476),
    (dict(b=5.6201446365814896), 0.505226361742785, 0.5052263603670505),
    (dict(b=8.196029016113725), 0.5161764066551836, 0.5161764049751437),
    (dict(b=0.1486119117369139), 0.34467785882929186, 0.344677860109017),
    (dict(b=0.21700228420527476), 0.35718747927451033, 0.3571874804126833),
    (dict(b=0.28519373160062783), 0.3678905922623109, 0.36789059327720164),
    (dict(b=0.5663829949817726), 0.3998595857133727, 0.3998595863328093),
    (dict(b=0.7436844494954645), 0.4138405184329096, 0.4138405188594742),
    (dict(b=1.442005161376431), 0.44806774046514963, 0.44806774034405183),
    (dict(b=1.8766584288578447), 0.4609976002353166, 0.46099759987274497),
    (dict(b=3.0517841062485926), 0.48276856428686604, 0.4827685634651975),
    (dict(b=4.106998463921434), 0.4944175401694936, 0.4944175390715327),
    (dict(b=6.502225641609164), 0.5097199792116635, 0.5097199777139501),
    (dict(b=0.01, Vm=0.9), 0.00934611960819758, 0.009346119608197576),
    (dict(b=0.1, Vm=0.95), 0.046890330890380784, 0.04689033089043426),
    (dict(b=0.1, m=0.01), 0.0086634767486672, 0.008663476749267242),
    (dict(b=0.01, m=0.01), 0.005778893224218418, 0.005778893224578159),
    (dict(b=0.3, m=0.02), 0.017687165670610856, 0.01768716567293159),
]


class TestHorizon:
    @pytest.mark.parametrize(
        "params, single_grid, lambda0",
        FROZEN_LAMBDA0,
        ids=[f"params{i}-{row[1]}" for i, row in enumerate(FROZEN_LAMBDA0)],
    )
    def test_lambda0_frozen(self, params, single_grid, lambda0):
        res = malthus_exponent(ModelParams(e=0.0, **params))
        # abs=0: approx's default abs of 1e-12 outweighs rel 1e-12 below 1
        assert res.lambda0 == pytest.approx(lambda0, rel=1e-12, abs=0)
        assert res.residual < 1e-13
        assert res.lambda0 == pytest.approx(single_grid, rel=6e-9, abs=0)

    @pytest.mark.parametrize("params", [dict(), dict(b=0.1), dict(Vm=0.5)])
    def test_lambda0_is_the_root_it_reports(self, params):
        # F rebuilt from the two quadratures at the result's horizon
        p = ModelParams(e=0.0, **params)
        res = malthus_exponent(p)
        Va = _grid(p, res.tau_max)
        tau_star = spectral._emission_threshold_time(spectral._flow_for(p), p.Vm, Va)
        beta, beta_star = _rates(p, Va, tau_star)
        fine, fine_lo = spectral._truncated_integral(beta, beta_star, tau_star)
        coarse, coarse_lo = spectral._truncated_integral(beta, beta_star, tau_star, 2)

        def F(lam):
            fine_lam = fine(lam, spectral._decay(lam, fine_lo))
            quadrature = (4.0 * fine_lam - coarse(lam, spectral._decay(lam, coarse_lo))) / 3.0
            return quadrature + (p.m / lam) * math.exp(-lam * res.tau_max) - 1.0

        assert F(res.lambda0 * (1 - 1e-12)) > 0 > F(res.lambda0 * (1 + 1e-12))
        assert res.residual == pytest.approx(abs(F(res.lambda0)), rel=0, abs=1e-16)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_a_rule_keeps_no_cell_starts(self, stride):
        # the caller hands a rule its exponentials, so the cell starts it
        # returns are the only copy
        p = ModelParams(e=0.0)
        beta, beta_star = _rates(p, _grid(p, 50.0), 0.0)
        integral, tau_lo = spectral._truncated_integral(beta, beta_star, 0.0, stride)
        held = [cell.cell_contents for cell in integral.__closure__]
        assert all(x is not tau_lo for x in held)
        assert not any(np.array_equal(x, tau_lo) for x in held if isinstance(x, np.ndarray))

    def test_every_horizon_is_an_even_node(self):
        # the walk's horizons are 50 * 2^k, an integer decay bound, or the cap
        doubled = [spectral._TAU_MAX_INITIAL * 2**k for k in range(5)]
        bounds = range(int(spectral._TAU_MAX_INITIAL), int(spectral._TAU_MAX_CAP) + 1)
        for horizon in [*doubled, *bounds]:
            assert round(horizon / spectral._DTAU) % 2 == 0, horizon

    @pytest.mark.parametrize(
        "params, tau_star",
        [(dict(b=0.01, Vm=0.9), 495.5592281661308), (dict(b=0.1, Vm=0.95), 64.94905844896935)],
    )
    def test_crossing_past_the_first_horizon(self, params, tau_star):
        # a cold solve extends the flow until it finds the crossing
        p = ModelParams(e=0.0, **params)
        spectral._flow.cache_clear()
        res = malthus_exponent(p)
        Va = _grid(p, res.tau_max)
        found = spectral._emission_threshold_time(spectral._flow_for(p), p.Vm, Va)
        assert found == pytest.approx(tau_star, rel=1e-12, abs=0)
        assert found > spectral._TAU_MAX_INITIAL

    @pytest.mark.parametrize("params", [dict(b=0.134), dict(b=0.1, Vm=0.95)])
    def test_result_does_not_depend_on_earlier_queries(self, params):
        # the query takes the integrator past 800, beyond the solve's horizon
        p = ModelParams(e=0.0, **params)
        spectral._flow.cache_clear()
        cold = malthus_exponent(p)
        assert cold.tau_max < 800.0
        spectral._flow.cache_clear()
        characteristic_flow(800.0, p)
        assert spectral._flow_for(p)._ode.t >= 800.0
        assert malthus_exponent(p) == cold

    def test_queries_past_the_decay_horizon_extend_the_flow(self):
        p = ModelParams(e=0.0, b=0.134)
        spectral._flow.cache_clear()
        res = malthus_exponent(p)
        assert res.tau_max < 150.0
        h = spectral._DTAU
        # the first time is a node, the others lie past the horizon, on the
        # grid's spacing and off it; the oracle is within 7.8e-16 of RK4
        # with Kahan's sum at h / 10 at these eight times
        ks = (30_000, 75_000, 150_000, 449_500)
        taus = [t for k in ks for t in ((10 * k - 3) * (h / 10), k * h)]
        oracle = flow_extrapolated(p.b, p.V0, p.K0, taus)
        flow = spectral._flow_for(p)
        nodes = round(res.tau_max / h) + 1
        assert ks[0] < nodes <= ks[1]
        for i, k in enumerate(ks):
            V = characteristic_flow(k * h, p).V
            assert V == flow.volumes(k, k)[0][0]
            assert V == pytest.approx(oracle[2 * i + 1], rel=0, abs=1e-12)
            off = characteristic_flow(taus[2 * i], p).V
            assert off == pytest.approx(oracle[2 * i], rel=0, abs=1e-12)
        assert flow._ode.t >= ks[-1] * h


class TestEachValueOnce:
    def test_the_root_solve_evaluates_f_once_per_lambda(self):
        # the bracket ends are read again by Brent's method, and the root
        # is one of its iterates, so its value comes back with it
        calls = Counter()

        def f(lam):
            calls[lam] += 1
            return 0.25 / lam - 1.0

        result = spectral._root(f, 1e-6)
        assert set(calls.values()) == {1}
        root, value = result
        assert root == pytest.approx(0.25, rel=1e-15, abs=0)
        assert value == 0.25 / root - 1.0

    @pytest.mark.parametrize(
        "c, hi, lo",
        [
            (0.25, 1.0, 0.25 * (1.0 - 1e-8)),
            (0.25, 1.0, 0.3),
            (0.25, 1e-2, 1e-3),
            (0.25, 1.0, None),
            (1e-12, 1e-6, None),
            (1e-12, 1e-6, 1e-9),
        ],
        ids=[
            "hint-below-the-root",
            "hint-above-the-root",
            "step-up-passes-hi",
            "no-hint",
            "root-below-the-floor",
            "root-below-the-floor-hint-above",
        ],
    )
    def test_every_bracket_path_finds_the_root_once_per_lambda(self, c, hi, lo):
        # the root of c / lam - 1 is c, whether the bracket comes from a
        # lower bound stepped up, from halving down from hi, or from
        # halving on past the floor
        calls = Counter()

        def f(lam):
            calls[lam] += 1
            return c / lam - 1.0

        root, value = spectral._root(f, hi, lo)
        assert set(calls.values()) == {1}
        assert root == pytest.approx(c, rel=1e-15, abs=0)
        assert value == c / root - 1.0

    def test_a_hint_below_the_root_brackets_it_in_one_step(self):
        # a lower bound 1e-8 below the root: f at the bound and one step up,
        # 4e-8 of it, bracket the root, and hi is never read
        calls = []

        def f(lam):
            calls.append(lam)
            return 0.25 / lam - 1.0

        lo = 0.25 * (1.0 - 1e-8)
        spectral._root(f, 1.0, lo)
        assert calls[:2] == [lo, lo + 4e-8 * lo]
        assert 1.0 not in calls
        assert len(calls) <= 6

    @pytest.mark.parametrize("params, most", [(dict(), 10), (dict(b=0.1), 23)])
    def test_a_cold_solve_takes_no_more_evaluations_than_recorded(self, params, most, monkeypatch):
        # distinct lambdas over every root solve of one cold solve: the
        # bracket from a bound the walk holds took 12 and 34 from [1e-9, hi]
        counts = []
        root = spectral._root

        def counting(f, hi, lo=None):
            seen = Counter()

            def counted(lam):
                seen[lam] += 1
                return f(lam)

            counts.append(seen)
            return root(counted, hi, lo)

        monkeypatch.setattr(spectral, "_root", counting)
        spectral._flow.cache_clear()
        malthus_exponent(ModelParams(e=0.0, **params))
        assert set().union(*(seen.values() for seen in counts)) == {1}
        assert 0 < sum(map(len, counts)) <= most

    @pytest.mark.parametrize(
        "params",
        [
            dict(),
            dict(b=0.1),
            dict(Vm=0.5),
            dict(b=0.01, m=0.01),
            # the first decay bound lies within the horizon, so the walk
            # breaks right after its root solve and the final F starts at
            # that root; the first three end the solve on its root, the
            # last two evaluate their root before its last lambda
            dict(b=0.1, m=10.0),
            dict(b=0.05, m=5.0),
            dict(b=0.3, m=3.0),
            dict(b=0.2, m=3.0),
            dict(b=0.02, m=30.0),
        ],
    )
    def test_a_solve_evaluates_each_integral_once_per_lambda(self, params, monkeypatch):
        # the walk's check at the bracket floor, the lower-estimate solve,
        # the final root solve and the residual share their values, and
        # the final F shares the fine rule's with the walk's last solve
        counts = []
        truncated = spectral._truncated_integral

        def counting(*args, **kwargs):
            integral, tau_lo = truncated(*args, **kwargs)
            seen = Counter()
            counts.append(seen)

            def counted(lam, decay):
                seen[lam] += 1
                return integral(lam, decay)

            return counted, tau_lo

        monkeypatch.setattr(spectral, "_truncated_integral", counting)
        spectral._flow.cache_clear()
        malthus_exponent(ModelParams(e=0.0, **params))
        assert sum(map(len, counts)) > 0
        assert {n for seen in counts for n in seen.values()} == {1}

    @pytest.mark.parametrize("b", [0.1, 1.0, 100.0])
    def test_the_settle_state_is_the_last_nodes_sample(self, b, monkeypatch):
        # the capacity each horizon's settle test reads is the one a flow
        # query at that node gives, bit for bit
        p = ModelParams(e=0.0, b=b)
        spectral._flow.cache_clear()
        flow = spectral._flow_for(p)
        sampled = []
        volumes = flow.volumes

        def recording(first, last):
            V, K = volumes(first, last)
            sampled.append((last, K))
            return V, K

        monkeypatch.setattr(flow, "volumes", recording)
        res = malthus_exponent(p)
        assert sampled[-1][0] == round(res.tau_max / spectral._DTAU)
        for last, K in sampled:
            assert K == flow.at(last * spectral._DTAU)[1]
        assert len(sampled) > 1 if b == 0.1 else len(sampled) == 1

    @pytest.mark.parametrize("params", [dict(), dict(b=0.1), dict(Vm=0.5), dict(alpha=0.3)])
    def test_the_carried_rates_are_the_rates_of_the_final_nodes(self, params, monkeypatch):
        # beta, extended with each horizon's nodes, against m V^alpha
        # rebuilt on the solve's nodes in one piece
        p = ModelParams(e=0.0, **params)
        carried = []
        truncated = spectral._truncated_integral

        def recording(beta, *args):
            carried.append(beta)
            return truncated(beta, *args)

        monkeypatch.setattr(spectral, "_truncated_integral", recording)
        spectral._flow.cache_clear()
        res = malthus_exponent(p)
        Va = _grid(p, res.tau_max)
        assert np.array_equal(carried[-1], p.m * Va**p.alpha)


def _integrate(b: float, tau: float) -> tuple[Dop853, int]:
    """The spectral flow's integrator from the reference birth state,
    stepped until it covers tau, and the number of rejected attempts."""
    p = ModelParams(e=0.0, b=b)
    ode = Dop853(lambda V, K: _field(V, K, b, 0.0), p.V0, p.K0, spectral._FLOW_TOL)
    attempts = 0
    while ode.t < tau:
        ode.step()
        attempts += 1
    return ode, attempts - ode.steps


class TestFlowIntegrator:
    @pytest.mark.parametrize("b", [0.1, 1.0, 7.0, 100.0])
    def test_steps_are_the_table_driven_reference_bit_for_bit(self, b):
        # every accepted step's start, width, state and dense coefficients
        # against loops over the rows of SciPy's table, rejections included
        ode, rejected = _integrate(b, 50.0)
        p = ModelParams(e=0.0, b=b)
        steps, ref_rejected = dop853_reference(ode.field, p.V0, p.K0, spectral._FLOW_TOL, 50.0)
        assert ode._dense == steps
        assert rejected == ref_rejected > 0

    @pytest.mark.parametrize("b", [0.1, 1.0, 7.0])
    def test_sample_is_each_steps_scalar_horner_form(self, b):
        # a time on a step end is read from the step that ends there, so
        # the end state comes from x = 1 of that step, not x = 0 of the next
        ode, _ = _integrate(b, 50.0)
        steps = ode._dense
        ends = [step[0] for step in steps[1:]] + [ode.t]
        taus, expected = [0.0], [dop853_dense_at(steps[0], 0.0)]
        for step, end in zip(steps, ends):
            for tau in (step[0] + 0.3 * step[1], step[0] + 0.7 * step[1], end):
                taus.append(tau)
                expected.append(dop853_dense_at(step, tau))
        # each time is also sampled on its own, and its capacity read
        # by the one-time query
        V = ode.sample(np.array(taus))
        assert np.array_equal(V, [e[0] for e in expected])
        alone = [(ode.sample(np.array([tau]))[0], ode.at(tau)[1]) for tau in taus]
        assert alone[0] == steps[0][2:4]
        assert alone == expected
        # every step start, the previous step's end, and t: the one-time
        # query reads the same step as the sample, volume included
        assert [ode.at(tau) for tau in taus] == expected

    def test_one_time_is_the_sample_in_scalar_arithmetic(self):
        # every node of the b = 0.2 flow a cold solve leaves, to its frozen
        # horizon of 114, read one time at a time: against the oracle's
        # scalar form on the step that ends at or after the node, volume
        # and capacity, against one sample of all volumes, and against
        # the sample of every 1000th node alone
        p = ModelParams(e=0.0, b=0.2)
        spectral._flow.cache_clear()
        res = malthus_exponent(p)
        ode = spectral._flow_for(p)._ode
        nodes = np.arange(round(res.tau_max / spectral._DTAU) + 1) * spectral._DTAU
        assert nodes.size == 57_001
        ends = [step[0] for step in ode._dense[1:]] + [ode.t]
        scalar = [ode.at(tau) for tau in nodes]
        assert scalar == [
            dop853_dense_at(ode._dense[bisect.bisect_left(ends, tau)], tau) for tau in nodes
        ]
        assert np.array_equal(ode.sample(nodes), [V for V, _ in scalar])
        for i in range(0, nodes.size, 1000):
            assert ode.sample(nodes[i : i + 1])[0] == scalar[i][0]
        assert scalar[0] == ode._dense[0][2:4]

    def test_the_steps_are_recorded_once(self):
        # the dense output is one list of per-step tuples that both reads
        # evaluate; neither leaves an array behind on the integrator
        ode, _ = _integrate(1.0, 50.0)
        ode.sample(np.linspace(0.0, ode.t, 1001))
        ode.at(0.5 * ode.t)
        assert [name for name, v in vars(ode).items() if isinstance(v, np.ndarray)] == []

    @pytest.mark.parametrize("b", [0.1, 5.0])
    def test_nodes_do_not_depend_on_how_the_flow_was_extended(self, b, monkeypatch):
        # steps are never clipped to a target, so a node is the same
        # sample of the same step however far earlier calls went: three
        # volumes calls on a flow built to 50 against one on a flow
        # built to 200
        p = ModelParams(e=0.0, b=b)
        stepwise = spectral._Flow(p.b, p.V0, p.K0)
        ranges = ((0, 25_000), (25_001, 50_000), (50_001, 100_000))
        parts = [stepwise.volumes(first, last) for first, last in ranges]
        monkeypatch.setattr(spectral, "_TAU_MAX_INITIAL", 200.0)
        straight = spectral._Flow(p.b, p.V0, p.K0)
        assert straight._ode.t >= 200.0
        V, K = straight.volumes(0, 100_000)
        assert np.array_equal(V, np.concatenate([part[0] for part in parts]))
        assert K == parts[-1][1]
        assert straight._ode._dense == stepwise._ode._dense
        # the capacity at the end of every range, as the settle test reads it
        for (first, last), (_, K) in zip(ranges, parts):
            assert straight.volumes(first, last)[1] == K

    @pytest.mark.parametrize("b", [40.0, 100.0])
    def test_stiff_lambda0_matches_the_fine_oracle_grid(self, b, monkeypatch):
        # the same quadrature on the oracle's nodes at dtau / 20; the
        # fixed-step RK4 grid was 1.2e-11 and 2.0e-10 off here
        p = ModelParams(e=0.0, b=b)
        spectral._flow.cache_clear()
        res = malthus_exponent(p)
        V, K = flow_dense_state(p.b, p.V0, p.K0, res.tau_max, spectral._DTAU / 20)
        nodes, capacities = V[::20], K[::20]
        monkeypatch.setattr(
            spectral._flow_for(p),
            "volumes",
            lambda first, last: (nodes[first : last + 1], capacities[last]),
        )
        oracle = malthus_exponent(p)
        spectral._flow.cache_clear()
        assert oracle.tau_max == res.tau_max
        assert res.lambda0 == pytest.approx(oracle.lambda0, rel=1e-12, abs=0)

    def test_too_stiff_a_flow_is_a_configuration_error(self):
        # b = 2000 takes about 41 000 steps for the 25 000 cells to tau = 50
        p = ModelParams(e=0.0, b=2000.0)
        with pytest.raises(ConfigurationError, match="b=2000 takes more integrator steps"):
            malthus_exponent(p)

    def test_stiff_flow_within_the_step_budget_solves(self):
        # b = 1000 takes about 23 000 steps for 25 000 cells
        res = malthus_exponent(ModelParams(e=0.0, b=1000.0))
        assert res.residual < 1e-13
        assert spectral._flow_for(ModelParams(e=0.0, b=1000.0))._ode.steps < 25_000


class TestFlowCache:
    def test_size_stays_within_bound(self):
        size = spectral._FLOW_CACHE_SIZE
        for k in range(size + 2):
            characteristic_flow(1.0, ModelParams(e=0.0, b=2.0 + k))
            assert spectral._flow.cache_info().currsize <= size
        assert spectral._flow.cache_info().currsize == size

    def test_recently_used_flow_is_kept(self):
        p = ModelParams(e=0.0)
        kept = spectral._flow_for(p)
        for k in range(spectral._FLOW_CACHE_SIZE - 1):
            spectral._flow_for(ModelParams(e=0.0, b=3.0 + k))
        assert spectral._flow_for(p) is kept
        spectral._flow_for(ModelParams(e=0.0, b=9.0))
        assert spectral._flow_for(p) is kept

    @pytest.mark.parametrize("params", [dict(), dict(b=0.1)])
    def test_a_cold_solve_leaves_no_arrays_in_cycles(self, params):
        # scipy's brentq leaves a reference cycle per call; it may hold a
        # few small objects, not the solve's functions and their node
        # arrays (about 2.5 MiB at b = 0.1 when it held them)
        p = ModelParams(e=0.0, **params)
        spectral._flow.cache_clear()
        gc.collect()
        enabled, tracing = gc.isenabled(), tracemalloc.is_tracing()
        gc.disable()
        if not tracing:
            tracemalloc.start()
        try:
            malthus_exponent(p)
            live = tracemalloc.get_traced_memory()[0]
            gc.collect()
            in_cycles = live - tracemalloc.get_traced_memory()[0]
        finally:
            if not tracing:
                tracemalloc.stop()
            if enabled:
                gc.enable()
        assert in_cycles < 64 * 1024

    def test_evicted_flow_rebuilds_identically(self):
        p = ModelParams(e=0.0)
        first = spectral._flow_for(p)
        for k in range(spectral._FLOW_CACHE_SIZE):
            spectral._flow_for(ModelParams(e=0.0, b=2.0 + k))
        again = spectral._flow_for(p)
        assert again is not first
        assert again._ode._dense == first._ode._dense
        nodes = np.arange(25_001) * spectral._DTAU
        assert np.array_equal(again._ode.sample(nodes), first._ode.sample(nodes))
        assert again._ode.at(nodes[-1]) == first._ode.at(nodes[-1])

    def test_sets_that_differ_off_the_flow_share_it(self):
        # the flow depends on b, V0 and K0 only, so the key holds no more
        flow = spectral._flow_for(ModelParams(e=0.0, b=0.7))
        for other in (dict(m=2.0), dict(alpha=0.0), dict(Vm=0.5), dict(e=1.0)):
            assert spectral._flow_for(ModelParams(**(dict(e=0.0, b=0.7) | other))) is flow


class TestFitGrowthRate:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 10.0, 101)
        assert fit_growth_rate(t, np.exp(3.0 * t), (0.0, 10.0)) == pytest.approx(
            3.0, rel=1e-12, abs=0
        )

    def test_prefactor_ignored(self):
        t = np.linspace(0.0, 10.0, 201)
        M = 5.0 * np.exp(0.7 * t)
        assert fit_growth_rate(t, M, (2.0, 8.0)) == pytest.approx(0.7, rel=1e-12, abs=0)

    def test_window_restricts_fit(self):
        t = np.linspace(0.0, 10.0, 501)
        M = np.where(t < 5.0, np.exp(t), math.e**5 * np.exp(2.0 * (t - 5.0)))
        assert fit_growth_rate(t, M, (6.0, 10.0)) == pytest.approx(2.0, rel=1e-6, abs=0)

    def test_too_few_samples_rejected(self):
        t = np.linspace(0.0, 10.0, 101)
        with pytest.raises(ConfigurationError):
            fit_growth_rate(t, np.exp(t), (9.8, 10.0))

    def test_nonpositive_burden_rejected(self):
        t = np.linspace(0.0, 10.0, 101)
        M = np.exp(t)
        M[50] = 0.0
        with pytest.raises(ConfigurationError):
            fit_growth_rate(t, M, (0.0, 10.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_burden_rejected(self, bad):
        # only M <= 0 was refused, and a NaN or inf made the slope NaN
        t = np.linspace(0.0, 10.0, 101)
        M = np.exp(t)
        M[50] = bad
        with pytest.raises(ConfigurationError, match="M must be finite and positive"):
            fit_growth_rate(t, M, (0.0, 10.0))
        # outside the window it is not read
        assert fit_growth_rate(t, M, (6.0, 10.0)) == pytest.approx(1.0, rel=1e-12, abs=0)
