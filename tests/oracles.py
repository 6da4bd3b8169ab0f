"""Independent brute-force reference implementations used by the tests.

Deliberately naive: dense fixed grids, hand-rolled quadrature, plain
bisection. Slow but simple enough to trust by inspection; nothing here
imports from the package's numerical internals.
"""

from __future__ import annotations

import math

import numpy as np


def flow_dense_state(b: float, V0: float, K0: float, tau_max: float, dtau: float):
    """Volume and capacity of the free growth ODE from (V0, K0) on a dense
    tau grid, by classical RK4.

    Each step's increment is added with Kahan's compensated sum. A plain
    sum loses increments below half an ulp of the state, so near the
    fixed point (1, 1) the volume stalls short of it: by 8.3e-13 at
    dtau = 2e-4 and 1.7e-12 at 1e-4 from (1e-4, 1e-3).
    """
    n = int(round(tau_max / dtau))
    V = np.empty(n + 1)
    K = np.empty(n + 1)
    v, k = V0, K0
    cv = ck = 0.0
    V[0], K[0] = v, k

    def f(v, k):
        return v * math.log(k / v), b * (v - v ** (2.0 / 3.0) * k)

    h = dtau
    for i in range(n):
        dv1, dk1 = f(v, k)
        dv2, dk2 = f(v + 0.5 * h * dv1, k + 0.5 * h * dk1)
        dv3, dk3 = f(v + 0.5 * h * dv2, k + 0.5 * h * dk2)
        dv4, dk4 = f(v + h * dv3, k + h * dk3)
        y = (h / 6.0) * (dv1 + 2.0 * (dv2 + dv3) + dv4) - cv
        t = v + y
        cv = (t - v) - y
        v = t
        y = (h / 6.0) * (dk1 + 2.0 * (dk2 + dk3) + dk4) - ck
        t = k + y
        ck = (t - k) - y
        k = t
        V[i + 1], K[i + 1] = v, k
    return V, K


def flow_dense(b: float, V0: float, K0: float, tau_max: float, dtau: float):
    """Volume of the free growth ODE from (V0, K0) on a dense tau grid."""
    return flow_dense_state(b, V0, K0, tau_max, dtau)[0]


def flow_extrapolated(b: float, V0: float, K0: float, taus, H: float = 0.5):
    """Volume of the free growth ODE from (V0, K0) at the ascending times
    taus, by Gragg's modified midpoint rule extrapolated to a zero step
    (Bulirsch & Stoer; Hairer, Nørsett & Wanner 1993, §II.9).

    Each step, at most H long and sized to land on every time in taus,
    runs the midpoint rule with 2, 4, ..., 16 substeps and extrapolates
    the increments as a polynomial in the substep squared (Aitken-Neville
    on the error expansion in even powers), which makes the step of order
    16. The increments are added with Kahan's compensated sum, as in
    ``flow_dense_state``.
    """

    def f(v, k):
        return v * math.log(k / v), b * (v - v ** (2.0 / 3.0) * k)

    def midpoint(v, k, step, n):
        # Gragg's rule on the increments from (v, k), so that increments
        # far below the state's ulp add up: one Euler substep, n - 1
        # leapfrog substeps, then the smoothing average
        h = step / n
        fv, fk = f(v, k)
        dv0, dk0, dv1, dk1 = 0.0, 0.0, h * fv, h * fk
        for _ in range(n - 1):
            fv, fk = f(v + dv1, k + dk1)
            dv0, dk0, dv1, dk1 = dv1, dk1, dv0 + 2.0 * h * fv, dk0 + 2.0 * h * fk
        fv, fk = f(v + dv1, k + dk1)
        return 0.5 * (dv1 + dv0 + h * fv), 0.5 * (dk1 + dk0 + h * fk)

    substeps = range(2, 18, 2)
    v, k, cv, ck, t = V0, K0, 0.0, 0.0, 0.0
    out = []
    for tau in taus:
        n_steps = max(1, math.ceil((tau - t) / H))
        step = (tau - t) / n_steps
        for _ in range(n_steps):
            rows = []
            for j, n in enumerate(substeps):
                row = [midpoint(v, k, step, n)]
                for i in range(1, j + 1):
                    ratio = (n / substeps[j - i]) ** 2 - 1.0
                    (av, ak), (bv, bk) = row[i - 1], rows[j - 1][i - 1]
                    row.append((av + (av - bv) / ratio, ak + (ak - bk) / ratio))
                rows.append(row)
            dv, dk = rows[-1][-1]
            y = dv - cv
            s = v + y
            cv = (s - v) - y
            v = s
            y = dk - ck
            s = k + y
            ck = (s - k) - y
            k = s
        t = tau
        out.append(v)
    return np.array(out)


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


def richardson_lambda0(
    b: float,
    m: float,
    alpha: float,
    V0: float,
    K0: float,
    Vm: float,
    tau_max: float = 200.0,
    h: float = 1e-3,
) -> float:
    """``brute_lambda0`` at steps h and h/2, extrapolated as
    (4 lambda(h/2) - lambda(h)) / 3 to cancel the trapezoid's h^2 term.

    The threshold must lie on or below V0 (or on a node of both grids):
    a gated beta jumps mid-cell, which leaves a first-order term the
    extrapolation does not cancel.
    """
    args = (b, m, alpha, V0, K0, Vm, tau_max)
    return (4.0 * brute_lambda0(*args, h / 2) - brute_lambda0(*args, h)) / 3.0


def renewal_births(p, T: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Flow volume V at ages 0, h, ..., T and birth rate B at times
    0, h, ..., T of the uncoupled model (e = 0), from its renewal
    equation.

    With no inhibitor every tumor, the primary included, rides the same
    flow X_tau from (V0, K0), so a cohort's state is a function of its
    age alone and the birth rate solves the linear Volterra equation

        B(t) = k(t) + int_0^t k(t - s) B(s) ds,   k(tau) = m beta(X_tau),

    whose first term is the primary's emission. Trapezoid rule on the
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
    return V, B


def renewal(p, T: float, h: float) -> tuple[float, float]:
    """Burden M(T) and count N(T) of the uncoupled model from
    ``renewal_births``: N(T) = int_0^T B and M(T) = int_0^T V(X_{T-s})
    B(s) ds, by the trapezoid rule on the same grid."""
    V, B = renewal_births(p, T, h)
    n = V.size - 1
    N = trapezoid(B, h)
    M = h * (0.5 * (V[n] * B[0] + V[0] * B[n]) + np.dot(V[n - 1 : 0 : -1], B[1:n]))
    return float(M), float(N)


def dop853_reference(field, V: float, K: float, tol: float, t_end: float):
    """Table-driven DOP853 integration of (V, K)' = field(V, K) from t = 0
    until t >= t_end, with scipy's step control and the step never clipped.

    Every stage, error and dense-output sum is a loop over the nonzero
    entries of a row of SciPy's table
    (``scipy.integrate._ivp.dop853_coefficients``) in ascending column
    order, each term added to a running sum from 0. Returns the accepted
    steps as (start, width, V, K, the seven dense-output coefficients of
    V, then of K) and the number of rejected attempts.
    """
    from scipy.integrate._ivp import dop853_coefficients as tab

    def row(weights):
        return [(int(j), float(weights[j])) for j in np.flatnonzero(weights)]

    A = [row(r) for r in tab.A]
    E3, E5, D = row(tab.E3), row(tab.E5), [row(r) for r in tab.D]

    def weighted(weights, kV, kK):
        sV = sK = 0.0
        for j, a in weights:
            sV += a * kV[j]
            sK += a * kK[j]
        return sV, sK

    f = field(V, K)
    # the initial step of Hairer, Nørsett & Wanner (1993), §II.4, for order 7
    sV, sK = tol * (1.0 + abs(V)), tol * (1.0 + abs(K))
    d0 = math.hypot(V / sV, K / sK) / math.sqrt(2.0)
    d1 = math.hypot(f[0] / sV, f[1] / sK) / math.sqrt(2.0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    g = field(V + h0 * f[0], K + h0 * f[1])
    d2 = math.hypot((g[0] - f[0]) / sV, (g[1] - f[1]) / sK) / math.sqrt(2.0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    h = min(100.0 * h0, h1)

    t, steps, rejected, after_rejection = 0.0, [], 0, False
    while t < t_end:
        kV, kK = [f[0]], [f[1]]
        for i in range(1, 13):
            sV, sK = weighted(A[i], kV, kK)
            v, k = V + h * sV, K + h * sK
            dv, dk = field(v, k)
            kV.append(dv)
            kK.append(dk)
        e5V, e5K = weighted(E5, kV, kK)
        e3V, e3K = weighted(E3, kV, kK)
        sV = tol * (1.0 + max(abs(V), abs(v)))
        sK = tol * (1.0 + max(abs(K), abs(k)))
        e5 = (e5V / sV) ** 2 + (e5K / sK) ** 2
        e3 = (e3V / sV) ** 2 + (e3K / sK) ** 2
        err = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * 2.0)
        if not err < 1.0:
            h *= max(0.2, 0.9 * err ** (-1.0 / 8.0))
            rejected += 1
            after_rejection = True
            continue
        factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** (-1.0 / 8.0))
        if after_rejection:
            factor = min(1.0, factor)
        after_rejection = False
        for i in range(13, 16):
            sV, sK = weighted(A[i], kV, kK)
            dv2, dk2 = field(V + h * sV, K + h * sK)
            kV.append(dv2)
            kK.append(dk2)
        dV, dK = v - V, k - K
        cV = [dV, h * kV[0] - dV, 2.0 * dV - h * (kV[12] + kV[0])]
        cK = [dK, h * kK[0] - dK, 2.0 * dK - h * (kK[12] + kK[0])]
        for weights in D:
            sV, sK = weighted(weights, kV, kK)
            cV.append(h * sV)
            cK.append(h * sK)
        steps.append((t, h, V, K, *cV, *cK))
        t += h
        V, K, f = v, k, (dv, dk)
        h *= factor
    return steps, rejected


def dop853_dense_at(step: tuple, tau: float) -> tuple[float, float]:
    """(V, K) at tau from one step of ``dop853_reference``, in scalar
    arithmetic: scipy's nested (Horner) form in x = (tau - start) / width,
    c6 * x + c5, times (1 - x), + c4, times x, ..., + c0, times x."""
    start, width = step[0], step[1]
    x = (tau - start) / width
    out = []
    for state, c in ((step[2], step[4:11]), (step[3], step[11:18])):
        acc = c[6] * x
        for r in range(5, -1, -1):
            acc += c[r]
            acc *= (1.0 - x) if r % 2 else x
        out.append(acc + state)
    return out[0], out[1]
