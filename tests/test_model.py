"""Unit and property tests for the model core.

Numeric literals below were computed independently with plain float
arithmetic (and mpmath spot checks) before the implementation existed;
they are frozen here as the oracle.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasim import (
    ConfigurationError,
    DimensionalParams,
    InvalidStateError,
    ModelParams,
    TumorState,
    birth_state,
    emission_rate,
    growth_field,
    local_inhibition_coefficient,
    nondimensionalize,
)

# Strategies kept well inside the domain so properties are about the
# model, not about float edge cases.
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
volumes = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestModelParams:
    def test_defaults_are_base_set(self):
        p = ModelParams()
        assert (p.b, p.e, p.k, p.m) == (1.0, 1.0, 1.0, 1.0)
        assert p.alpha == pytest.approx(2.0 / 3.0, rel=0, abs=0)
        assert (p.V0, p.K0) == (0.1, 0.2)

    def test_vm_defaults_to_v0(self):
        p = ModelParams(V0=0.05, K0=0.3)
        assert p.Vm == 0.05

    def test_vm_explicit_overrides(self):
        p = ModelParams(Vm=0.5)
        assert p.Vm == 0.5

    def test_frozen(self):
        p = ModelParams()
        with pytest.raises(AttributeError):
            p.b = 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"b": 0.0},
            {"b": -1.0},
            {"e": -0.5},
            {"k": 0.0},
            {"m": -1.0},
            {"alpha": -0.1},
            {"alpha": 1.5},
            {"V0": 0.0},
            {"V0": 0.3, "K0": 0.2},  # birth state must lie below the diagonal
            {"K0": 0.05},
            {"Vm": -1.0},
            {"b": float("nan")},
            {"e": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModelParams(**kwargs)


class TestTumorState:
    def test_holds_values(self):
        s = TumorState(V=0.1, K=0.2)
        assert s.V == 0.1 and s.K == 0.2

    @pytest.mark.parametrize("V,K", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                     (float("nan"), 1.0), (1.0, float("inf"))])
    def test_rejects_nonpositive_or_nonfinite(self, V, K):
        with pytest.raises(InvalidStateError):
            TumorState(V=V, K=K)


class TestGrowthField:
    def test_birth_state_base_params(self):
        # Frozen oracle: at (V, K) = (0.1, 0.2), b = 1, I = 0:
        #   dV = 0.1 * ln(2)
        #   dK = 1 * (0.1 - 0.1**(2/3) * 0.2)
        dV, dK = growth_field(TumorState(0.1, 0.2), 0.0, ModelParams())
        assert dV == pytest.approx(0.06931471805599453, rel=1e-15, abs=0)
        assert dK == pytest.approx(0.05691130619936233, rel=1e-15, abs=0)

    def test_systemic_term_linear_in_I(self):
        p = ModelParams(e=2.0)
        s = TumorState(0.5, 0.7)
        _, dK0 = growth_field(s, 0.0, p)
        _, dK1 = growth_field(s, 1.0, p)
        _, dK3 = growth_field(s, 3.0, p)
        assert dK1 - dK0 == pytest.approx(-2.0 * 0.7, rel=1e-12, abs=0)
        assert dK3 - dK0 == pytest.approx(3 * (dK1 - dK0), rel=1e-12, abs=0)

    def test_fixed_point_is_exact(self):
        # (1, 1) with no inhibitor: both rates vanish to the last bit
        # because 1**(2/3) == 1 exactly.
        dV, dK = growth_field(TumorState(1.0, 1.0), 0.0, ModelParams(e=0.0))
        assert dV == 0.0
        assert dK == 0.0

    def test_diagonal_stops_volume_growth(self):
        dV, _ = growth_field(TumorState(0.3, 0.3), 0.0, ModelParams())
        assert dV == 0.0

    @given(V=volumes, K=volumes)
    def test_volume_moves_toward_capacity(self, V, K):
        dV, _ = growth_field(TumorState(V, K), 0.0, ModelParams())
        assert math.copysign(1.0, dV) == math.copysign(1.0, K - V) or dV == 0.0

    @given(V=volumes, K=volumes, I=st.floats(min_value=0, max_value=1e6))
    def test_inhibitor_never_helps_capacity(self, V, K, I):
        p = ModelParams()
        _, dK_free = growth_field(TumorState(V, K), 0.0, p)
        _, dK_inh = growth_field(TumorState(V, K), I, p)
        assert dK_inh <= dK_free + 1e-12 * abs(dK_free)

    def test_rejects_negative_inhibitor(self):
        with pytest.raises(InvalidStateError):
            growth_field(TumorState(0.1, 0.2), -1e-9, ModelParams())

    @pytest.mark.parametrize("I", [-1e-9, math.nan, math.inf])
    def test_bad_inhibitor_message_names_both_conditions(self, I):
        with pytest.raises(
            InvalidStateError, match=rf"inhibitor amount must be finite and >= 0, got {I!r}"
        ):
            growth_field(TumorState(0.1, 0.2), I, ModelParams())


class TestEmissionRate:
    def test_base_rate_at_unit_volume(self):
        assert emission_rate(1.0, ModelParams()) == 1.0

    def test_power_law(self):
        # Frozen oracle: 0.5**(2/3)
        assert emission_rate(0.5, ModelParams()) == pytest.approx(
            0.6299605249474366, rel=1e-15, abs=0
        )

    def test_threshold_gates_emission(self):
        p = ModelParams(Vm=0.5)
        assert emission_rate(0.499, p) == 0.0
        assert emission_rate(0.5, p) > 0.0  # threshold itself emits

    def test_default_threshold_is_birth_volume(self):
        p = ModelParams()
        assert emission_rate(p.V0, p) > 0.0

    def test_m_zero_shuts_emission_off(self):
        assert emission_rate(123.0, ModelParams(m=0.0)) == 0.0

    @given(V=volumes, m=st.floats(min_value=0, max_value=100))
    def test_scales_linearly_in_m(self, V, m):
        base = emission_rate(V, ModelParams(m=1.0))
        assert emission_rate(V, ModelParams(m=m)) == pytest.approx(m * base, rel=1e-12, abs=0)

    @given(V1=volumes, V2=volumes)
    def test_monotone_in_volume(self, V1, V2):
        p = ModelParams(Vm=0.0)
        lo, hi = sorted((V1, V2))
        assert emission_rate(lo, p) <= emission_rate(hi, p) * (1 + 1e-12)

    @pytest.mark.parametrize("V", [0.0, -1.0, math.nan, math.inf])
    def test_bad_volume_message_names_both_conditions(self, V):
        with pytest.raises(InvalidStateError, match=rf"volume must be finite and > 0, got {V!r}"):
            emission_rate(V, ModelParams())


class TestBirthState:
    def test_matches_params(self):
        p = ModelParams(V0=0.02, K0=0.11)
        s = birth_state(p)
        assert (s.V, s.K) == (0.02, 0.11)


class TestLocalInhibitionCoefficient:
    def test_reference_value(self):
        # Frozen oracle: e=1, Vd=1, p=1, D=1 leaves the pure geometric
        # factor (1/15) * (3/(4*pi))**(2/3).
        d = local_inhibition_coefficient(1.0, 1.0, 1.0, 1.0)
        assert d == pytest.approx(0.3848347315591266 / 15.0, rel=1e-14, abs=0)

    def test_reference_value_D2(self):
        # Frozen oracle: D=2 divides by 4.
        d = local_inhibition_coefficient(1.0, 1.0, 1.0, 2.0)
        assert d == pytest.approx(0.09620868288978165 / 15.0, rel=1e-14, abs=0)

    @given(e=positive, Vd=positive, prod=positive, D=positive)
    def test_multiplicative_structure(self, e, Vd, prod, D):
        d = local_inhibition_coefficient(e, Vd, prod, D)
        ref = local_inhibition_coefficient(1.0, 1.0, 1.0, 1.0)
        assert d == pytest.approx(ref * e * Vd * prod / (D * D), rel=1e-9, abs=0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            local_inhibition_coefficient(0.0, 1.0, 1.0, 1.0)


class TestDimensionalParams:
    BASE = dict(a=0.192, b=5.85, k=1.0, m=0.001, alpha=2.0 / 3.0,
                V0=1e-6, K0=625e-6)

    def test_v_star(self):
        # Frozen oracle: (5.85 / 0.00873)**1.5.
        dp = DimensionalParams(d=0.00873, e=0.0, **self.BASE)
        assert dp.V_star == pytest.approx(17346.522891206965, rel=1e-15, abs=0)

    def test_d_built_from_biophysics(self):
        dp = DimensionalParams(e=2.0, Vd=3.0, p=0.5, D=1.5, **self.BASE)
        assert dp.d == pytest.approx(
            local_inhibition_coefficient(2.0, 3.0, 0.5, 1.5), rel=1e-15, abs=0
        )

    def test_e_derived_from_e_hat(self):
        dp = DimensionalParams(e_hat=6.0, Vd=3.0, p=0.5, D=1.5, **self.BASE)
        assert dp.e == pytest.approx(2.0, rel=1e-15, abs=0)

    def test_missing_d_and_subgroup_rejected(self):
        with pytest.raises(ConfigurationError):
            DimensionalParams(e=1.0, **self.BASE)

    def test_missing_e_rejected(self):
        with pytest.raises(ConfigurationError):
            DimensionalParams(d=0.00873, **self.BASE)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("e", dict(e=math.nan)),
            ("e", dict(e=math.inf)),
            ("e", dict(e=-1.0)),
            ("m", dict(e=0.0, m=math.nan)),
            ("m", dict(e=0.0, m=math.inf)),
            ("e_hat", dict(e_hat=math.nan, Vd=3.0)),
            ("e_hat", dict(e_hat=math.inf, Vd=3.0)),
            ("e_hat", dict(e_hat=-1.0, Vd=3.0)),
            ("Vd", dict(e_hat=1.0, Vd=0.0)),
            ("Vd", dict(e_hat=1.0, Vd=math.nan)),
            ("Vd", dict(e_hat=1.0, Vd=math.inf)),
            # a finite e_hat over a tiny Vd overflows to e = inf
            ("e", dict(e_hat=1e300, Vd=1e-300)),
        ],
    )
    def test_bad_e_or_m_rejected_by_name(self, field, bad):
        # a NaN e used to rescale silently to the uncoupled e = 0, and
        # Vd = 0 to raise a bare ZeroDivisionError
        kwargs = self.BASE | dict(d=1.0) | bad
        with pytest.raises(ConfigurationError, match=rf"parameter {field} must be finite"):
            DimensionalParams(**kwargs)


class TestNondimensionalize:
    def test_linear_case_leaves_e_zero(self):
        dp = DimensionalParams(d=0.00873, e=0.0,
                               **TestDimensionalParams.BASE)
        p = nondimensionalize(dp)
        assert p.e == 0.0
        assert p.b == pytest.approx(5.85 / 0.192, rel=1e-15, abs=0)
        assert p.k == pytest.approx(1.0 / 0.192, rel=1e-15, abs=0)

    def test_requires_production_rate_when_coupled(self):
        dp = DimensionalParams(d=0.00873, e=1e-4,
                               **TestDimensionalParams.BASE)
        with pytest.raises(ConfigurationError):
            nondimensionalize(dp)
        # a zero production rate is a given p: no inhibitor, so e rescales to 0
        dp = DimensionalParams(d=0.00873, e=1e-4, p=0.0,
                               **TestDimensionalParams.BASE)
        assert nondimensionalize(dp).e == 0.0

    def test_volume_scaling(self):
        dp = DimensionalParams(d=0.00873, e=0.0,
                               **TestDimensionalParams.BASE)
        p = nondimensionalize(dp)
        v_star = 17346.522891206965
        assert p.V0 == pytest.approx(1e-6 / v_star, rel=1e-14, abs=0)
        assert p.K0 == pytest.approx(625e-6 / v_star, rel=1e-14, abs=0)
        assert p.Vm == pytest.approx(p.V0, rel=1e-14, abs=0)

    def test_emission_scaling(self):
        dp = DimensionalParams(d=0.00873, e=0.0,
                               **TestDimensionalParams.BASE)
        p = nondimensionalize(dp)
        v_star = 17346.522891206965
        assert p.m == pytest.approx((0.001 / 0.192) * v_star ** (2.0 / 3.0), rel=1e-13, abs=0)

    @settings(max_examples=50)
    @given(
        a=st.floats(min_value=0.01, max_value=10),
        b=st.floats(min_value=0.01, max_value=10),
        d=st.floats(min_value=1e-4, max_value=1.0),
        e=st.floats(min_value=1e-6, max_value=1.0),
        k=st.floats(min_value=0.01, max_value=10),
        # the rescaled m = m v*^alpha / a can be 1e3 below m; an m under
        # about 1e-305 would land among the subnormals, whose few bits
        # cannot round-trip to 1e-12 relative
        m=st.just(0.0) | st.floats(min_value=1e-300, max_value=10),
        prod=st.floats(min_value=0.01, max_value=10),
    )
    def test_roundtrip_recovers_raw_constants(self, a, b, d, e, k, m, prod):
        """Undoing the rescaling by hand recovers every raw constant."""
        v_star = (b / d) ** 1.5
        dp = DimensionalParams(a=a, b=b, d=d, e=e, k=k, m=m, alpha=2.0 / 3.0,
                               V0=1e-7 * v_star, K0=5e-7 * v_star, p=prod)
        p = nondimensionalize(dp)
        assert p.b * a == pytest.approx(b, rel=1e-12, abs=0)
        assert p.k * a == pytest.approx(k, rel=1e-12, abs=0)
        assert p.e * a / (prod * v_star) == pytest.approx(e, rel=1e-12, abs=0)
        assert p.m * a / v_star**p.alpha == pytest.approx(m, rel=1e-12, abs=0)
        assert p.V0 * v_star == pytest.approx(1e-7 * v_star, rel=1e-12, abs=0)
        # time scaling: one unit of rescaled time is 1/a raw time units,
        # so every rescaled rate times a has the raw dimension back
        assert growth_field(birth_state(p), 0.0, p)[0] * a == pytest.approx(
            a * p.V0 * math.log(p.K0 / p.V0), rel=1e-12, abs=0
        )
