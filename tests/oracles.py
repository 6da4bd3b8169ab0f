"""Independent brute-force reference implementations used by the tests.

Deliberately naive: dense fixed grids, hand-rolled quadrature, plain
bisection. Slow but simple enough to trust by inspection; nothing here
imports from the package's numerical internals.
"""

from __future__ import annotations

import math

import numpy as np


def flow_dense(b: float, V0: float, K0: float, tau_max: float, dtau: float):
    """Volume of the free growth ODE from (V0, K0) on a dense tau grid."""
    n = int(round(tau_max / dtau))
    V = np.empty(n + 1)
    v, k = V0, K0
    V[0] = v

    def f(v, k):
        return v * math.log(k / v), b * (v - v ** (2.0 / 3.0) * k)

    h = dtau
    for i in range(n):
        dv1, dk1 = f(v, k)
        dv2, dk2 = f(v + 0.5 * h * dv1, k + 0.5 * h * dk1)
        dv3, dk3 = f(v + 0.5 * h * dv2, k + 0.5 * h * dk2)
        dv4, dk4 = f(v + h * dv3, k + h * dk3)
        v += (h / 6.0) * (dv1 + 2.0 * (dv2 + dv3) + dv4)
        k += (h / 6.0) * (dk1 + 2.0 * (dk2 + dk3) + dk4)
        V[i + 1] = v
    return V


def trapezoid(y: np.ndarray, dx: float) -> float:
    return float(dx * (0.5 * (y[0] + y[-1]) + y[1:-1].sum()))


def brute_lambda0(
    b: float,
    m: float,
    alpha: float,
    V0: float,
    K0: float,
    Vm: float,
    tau_max: float = 200.0,
    dtau: float = 1e-3,
) -> float:
    """Root of 1 = integral of beta(flow(tau)) e^(-lambda tau) dtau.

    Dense trapezoid on [0, tau_max], geometric bracket growth, plain
    bisection to machine-level interval width.
    """
    V = flow_dense(b, V0, K0, tau_max, dtau)
    beta = m * np.power(V, alpha)
    beta[V < Vm] = 0.0
    tau = np.arange(V.size) * dtau

    def F(lam: float) -> float:
        return trapezoid(beta * np.exp(-lam * tau), dtau) - 1.0

    lo, hi = 1e-12, 1.0
    while F(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("no decaying bracket found")
    if F(lo) < 0.0:
        raise RuntimeError("no root: emission too weak")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if F(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def renewal(p, T: float, h: float) -> tuple[float, float]:
    """Burden M(T) and count N(T) of the uncoupled model (e = 0) from
    its renewal equation.

    With no inhibitor every tumor, the primary included, rides the same
    flow X_tau from (V0, K0), so a cohort's state is a function of its
    age alone and the birth rate solves the linear Volterra equation

        B(t) = k(t) + int_0^t k(t - s) B(s) ds,   k(tau) = m beta(X_tau),

    whose first term is the primary's emission. Then N(T) = int_0^T B
    and M(T) = int_0^T V(X_{T-s}) B(s) ds. Trapezoid rule on the
    ``flow_dense`` grid of step h, solved node by node; the error is
    O(h^2) with an even expansion, so two grids extrapolate cleanly.
    ``p`` needs only the attributes b, m, alpha, V0, K0 and Vm.
    """
    n = int(round(T / h))
    V = flow_dense(p.b, p.V0, p.K0, n * h, h)
    k = p.m * np.power(V, p.alpha)
    k[V < p.Vm] = 0.0
    B = np.empty(n + 1)
    B[0] = k[0]
    for i in range(1, n + 1):
        # h * (k_i B_0 / 2 + sum_{j=1}^{i-1} k_{i-j} B_j + k_0 B_i / 2)
        known = 0.5 * k[i] * B[0] + np.dot(k[i - 1 : 0 : -1], B[1:i])
        B[i] = (k[i] + h * known) / (1.0 - 0.5 * h * k[0])
    N = trapezoid(B, h)
    M = h * (0.5 * (V[n] * B[0] + V[0] * B[n]) + np.dot(V[n - 1 : 0 : -1], B[1:n]))
    return float(M), float(N)
