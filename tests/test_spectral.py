import math

import numpy as np
import pytest

from metasim import (
    ConfigurationError,
    ModelParams,
    NoRootError,
    NotLinearError,
)
from metasim import spectral
from metasim.model import _rk4_step
from metasim.spectral import (
    characteristic_flow,
    fit_growth_rate,
    malthus_exponent,
)
from oracles import brute_lambda0, flow_dense


class TestCharacteristicFlow:
    def test_starts_at_birth_state(self):
        p = ModelParams(e=0.0)
        f0 = characteristic_flow(0.0, p)
        assert f0.V == pytest.approx(p.V0, rel=1e-12)
        assert f0.K == pytest.approx(p.K0, rel=1e-12)

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
        assert characteristic_flow(tau, p).V == pytest.approx(oracle_V, rel=1e-8)

    def test_off_grid_matches_fine_oracle(self):
        p = ModelParams(e=0.0)
        h = 1e-5
        dense = flow_dense(p.b, p.V0, p.K0, 3.0, h)
        # fine-grid indices off the 1e-3 flow grid, then two times just
        # below the node at 3
        ks = [17 + 14993 * j for j in range(20)] + [299_999]
        assert all(k % 100 for k in ks)
        for k in ks:
            assert characteristic_flow(k * h, p).V == pytest.approx(dense[k], rel=0, abs=1e-12)
        below = math.nextafter(3.0, 0.0)
        assert characteristic_flow(below, p).V == pytest.approx(dense[-1], rel=0, abs=1e-12)

    def test_last_cell_matches_fine_oracle(self):
        # an unsettled flow, so the state still moves within the cell
        p = ModelParams(e=0.0, b=0.01)
        flow = spectral._flow_for(p)
        h = 1e-5
        node = flow.Va.size - 2
        dense = flow_dense(p.b, flow.Va[node], flow.Ka[node], flow.dtau, h)
        for k in (1, 37, 63, 99):
            tau = node * flow.dtau + k * h
            assert tau < flow.tau_max
            assert characteristic_flow(tau, p).V == pytest.approx(dense[k], rel=0, abs=1e-12)

    def test_past_an_unsettled_horizon_rejected(self):
        # b = 0.01 reaches the horizon cap before settling at (1, 1); the
        # last node is 6.4e-3 from the state at tau = 1200
        p = ModelParams(e=0.0, b=0.01)
        flow = spectral._flow_for(p)
        assert not flow.settled
        assert flow.tau_max == spectral._TAU_MAX_CAP
        assert characteristic_flow(flow.tau_max, p).V == flow.Va[-1]
        with pytest.raises(ConfigurationError, match="tau=1200 .* tau_max=900"):
            characteristic_flow(1200.0, p)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            characteristic_flow(-1.0, ModelParams(e=0.0))


class TestMalthusExponent:
    def test_constant_emission_closed_form(self):
        # alpha = 0 with the threshold at the domain edge makes the
        # spectral integral m/lambda exactly, so the root is m itself
        for m in (1.0, 2.5):
            res = malthus_exponent(ModelParams(e=0.0, alpha=0.0, m=m))
            assert res.lambda0 == pytest.approx(m, rel=1e-9)

    def test_reference_parameters_frozen_value(self):
        res = malthus_exponent(ModelParams(e=0.0))
        assert res.lambda0 == pytest.approx(0.4292814661422716, rel=1e-9)
        assert abs(res.residual) < 1e-10
        assert res.quadrature_nodes > 1000

    def test_reference_parameters_vs_brute_force(self):
        p = ModelParams(e=0.0)
        res = malthus_exponent(p)
        oracle = brute_lambda0(p.b, p.m, p.alpha, p.V0, p.K0, p.Vm)
        assert res.lambda0 == pytest.approx(oracle, rel=1e-6)

    def test_slow_regime_extends_horizon(self):
        # a much deeper entry point needs a longer flow horizon; the
        # solver must grow it on its own
        p = ModelParams(e=0.0, V0=1e-4, K0=1e-3)
        res = malthus_exponent(p)
        assert res.tau_max > 50.0
        assert res.lambda0 == pytest.approx(0.15377797754549305, rel=1e-9)
        oracle = brute_lambda0(p.b, p.m, p.alpha, p.V0, p.K0, p.Vm)
        assert res.lambda0 == pytest.approx(oracle, rel=1e-6)

    def test_monotone_in_emission_strength(self):
        lam1 = malthus_exponent(ModelParams(e=0.0, m=1.0)).lambda0
        lam2 = malthus_exponent(ModelParams(e=0.0, m=2.0)).lambda0
        assert lam2 > lam1
        assert lam2 == pytest.approx(0.7028569585168192, rel=1e-9)

    @pytest.mark.parametrize("Vm", [0.3, 0.5, 0.9])
    def test_gated_threshold_vs_brute_force(self, Vm):
        # the oracle's trapezoid is first order at the switch-on, so its
        # gap to the product rule reaches about 5e-5 here
        p = ModelParams(e=0.0, Vm=Vm)
        res = malthus_exponent(p)
        oracle = brute_lambda0(p.b, p.m, p.alpha, p.V0, p.K0, p.Vm)
        assert res.lambda0 == pytest.approx(oracle, rel=1e-4)
        tau_star = spectral._emission_threshold_time(spectral._flow_for(p), Vm)
        assert characteristic_flow(tau_star, p).V == pytest.approx(Vm, rel=0, abs=1e-13)

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
        # switches emission on
        with pytest.raises(NoRootError):
            malthus_exponent(ModelParams(e=0.0, Vm=5.0))


# the anchor, a slow b and the deep-seed regime, with the horizon and
# node count each has always had
FROZEN_FOOTPRINTS = [
    (dict(), 50.0, 50001),
    (dict(b=0.2), 200.0, 200001),
    (dict(V0=1e-4, K0=1e-3), 100.0, 100001),
]


@pytest.mark.parametrize("params, tau_max, nodes", FROZEN_FOOTPRINTS)
class TestQuadratureGrid:
    def test_flow_grid_is_the_oracle_bit_for_bit(self, params, tau_max, nodes):
        p = ModelParams(e=0.0, **params)
        flow = spectral._flow_for(p)
        dense = flow_dense(p.b, p.V0, p.K0, tau_max, 1e-3)
        assert np.array_equal(flow.Va, dense)

    def test_inlined_loop_is_the_rk4_step_bit_for_bit(self, params, tau_max, nodes):
        p = ModelParams(e=0.0, **params)
        flow = spectral._flow_for(p)
        # over the whole grid: a regrouped sum can stay bit-identical for
        # the first ten thousand nodes
        V, K = [p.V0], [p.K0]
        for _ in range(nodes - 1):
            v, k = _rk4_step(V[-1], K[-1], p.b, 0.0, 1e-3)
            V.append(v)
            K.append(k)
        assert np.array_equal(flow.Va, V)
        assert np.array_equal(flow.Ka, K)

    def test_footprint_frozen_and_residual_tight(self, params, tau_max, nodes):
        res = malthus_exponent(ModelParams(e=0.0, **params))
        assert (res.tau_max, res.quadrature_nodes) == (tau_max, nodes)
        assert res.residual < 1e-13


class TestFlowCache:
    def test_size_stays_within_bound(self):
        size = spectral._FLOW_CACHE_SIZE
        for k in range(size + 2):
            characteristic_flow(1.0, ModelParams(e=0.0, b=2.0 + k))
            assert len(spectral._flow_cache) <= size
        assert len(spectral._flow_cache) == size

    def test_recently_used_flow_is_kept(self):
        p = ModelParams(e=0.0)
        kept = spectral._flow_for(p)
        for k in range(spectral._FLOW_CACHE_SIZE - 1):
            spectral._flow_for(ModelParams(e=0.0, b=3.0 + k))
        assert spectral._flow_for(p) is kept
        spectral._flow_for(ModelParams(e=0.0, b=9.0))
        assert spectral._flow_for(p) is kept

    def test_evicted_flow_rebuilds_identically(self):
        p = ModelParams(e=0.0)
        first = spectral._flow_for(p)
        for k in range(spectral._FLOW_CACHE_SIZE):
            spectral._flow_for(ModelParams(e=0.0, b=2.0 + k))
        assert (p.b, p.V0, p.K0) not in spectral._flow_cache
        again = spectral._flow_for(p)
        assert again is not first
        assert np.array_equal(again.Va, first.Va)
        assert np.array_equal(again.Ka, first.Ka)


class TestFitGrowthRate:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 10.0, 101)
        assert fit_growth_rate(t, np.exp(3.0 * t), (0.0, 10.0)) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_prefactor_ignored(self):
        t = np.linspace(0.0, 10.0, 201)
        M = 5.0 * np.exp(0.7 * t)
        assert fit_growth_rate(t, M, (2.0, 8.0)) == pytest.approx(0.7, rel=1e-12)

    def test_window_restricts_fit(self):
        t = np.linspace(0.0, 10.0, 501)
        M = np.where(t < 5.0, np.exp(t), math.e**5 * np.exp(2.0 * (t - 5.0)))
        assert fit_growth_rate(t, M, (6.0, 10.0)) == pytest.approx(2.0, rel=1e-6)

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
