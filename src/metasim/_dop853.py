"""Dormand–Prince 8(5,3) with its seventh-order dense output, in scalar
Python, for an autonomous field of two components.

The method is the explicit Runge–Kutta pair of Dormand & Prince (1980)
with the error estimator and dense output of Hairer, Nørsett & Wanner
(1993, *Solving Ordinary Differential Equations I*, §II.5–II.6), and the
step control of scipy's ``scipy.integrate._ivp.rk``: safety 0.9, step
factors between 0.2 and 10, and a factor of at most 1 after a rejection.
The step is never clipped to an end time, so the step sequence depends
only on the initial state, the field and the tolerance.

The coefficients below are copied as literals from SciPy 1.17's
``scipy/integrate/_ivp/dop853_coefficients.py``, the table of SciPy's
port of Hairer's Fortran DOP853. SciPy is distributed under the BSD
3-clause licence: Copyright (c) 2001-2002 Enthought, Inc. and 2003-
SciPy Developers. Only the nonzero entries are kept, as (j, a_ij)
pairs; the field is autonomous, so the stage times C are not needed.
"""

from __future__ import annotations

import math

import numpy as np

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# the error estimator is of order 7, so the error scales as h^8
_ERROR_EXPONENT = -1.0 / 8.0

# A[i]: stage i's nonzero weights on stages 0 .. i-1. Rows 1-11 are the
# stages, row 12 the solution weights B (stage 12 is the field at the new
# state), rows 13-15 the extra stages of the dense output.
A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)),
    (
        (0, 2.41365134159266685502369798665e-1),
        (2, -8.84549479328286085344864962717e-1),
        (3, 9.24834003261792003115737966543e-1),
    ),
    (
        (0, 3.7037037037037037037037037037e-2),
        (3, 1.70828608729473871279604482173e-1),
        (4, 1.25467687566822425016691814123e-1),
    ),
    (
        (0, 3.7109375e-2),
        (3, 1.70252211019544039314978060272e-1),
        (4, 6.02165389804559606850219397283e-2),
        (5, -1.7578125e-2),
    ),
    (
        (0, 3.70920001185047927108779319836e-2),
        (3, 1.70383925712239993810214054705e-1),
        (4, 1.07262030446373284651809199168e-1),
        (5, -1.53194377486244017527936158236e-2),
        (6, 8.27378916381402288758473766002e-3),
    ),
    (
        (0, 6.24110958716075717114429577812e-1),
        (3, -3.36089262944694129406857109825),
        (4, -8.68219346841726006818189891453e-1),
        (5, 2.75920996994467083049415600797e1),
        (6, 2.01540675504778934086186788979e1),
        (7, -4.34898841810699588477366255144e1),
    ),
    (
        (0, 4.77662536438264365890433908527e-1),
        (3, -2.48811461997166764192642586468),
        (4, -5.90290826836842996371446475743e-1),
        (5, 2.12300514481811942347288949897e1),
        (6, 1.52792336328824235832596922938e1),
        (7, -3.32882109689848629194453265587e1),
        (8, -2.03312017085086261358222928593e-2),
    ),
    (
        (0, -9.3714243008598732571704021658e-1),
        (3, 5.18637242884406370830023853209),
        (4, 1.09143734899672957818500254654),
        (5, -8.14978701074692612513997267357),
        (6, -1.85200656599969598641566180701e1),
        (7, 2.27394870993505042818970056734e1),
        (8, 2.49360555267965238987089396762),
        (9, -3.0467644718982195003823669022),
    ),
    (
        (0, 2.27331014751653820792359768449),
        (3, -1.05344954667372501984066689879e1),
        (4, -2.00087205822486249909675718444),
        (5, -1.79589318631187989172765950534e1),
        (6, 2.79488845294199600508499808837e1),
        (7, -2.85899827713502369474065508674),
        (8, -8.87285693353062954433549289258),
        (9, 1.23605671757943030647266201528e1),
        (10, 6.43392746015763530355970484046e-1),
    ),
    (
        (0, 5.42937341165687622380535766363e-2),
        (5, 4.45031289275240888144113950566),
        (6, 1.89151789931450038304281599044),
        (7, -5.8012039600105847814672114227),
        (8, 3.1116436695781989440891606237e-1),
        (9, -1.52160949662516078556178806805e-1),
        (10, 2.01365400804030348374776537501e-1),
        (11, 4.47106157277725905176885569043e-2),
    ),
    (
        (0, 5.61675022830479523392909219681e-2),
        (6, 2.53500210216624811088794765333e-1),
        (7, -2.46239037470802489917441475441e-1),
        (8, -1.24191423263816360469010140626e-1),
        (9, 1.5329179827876569731206322685e-1),
        (10, 8.20105229563468988491666602057e-3),
        (11, 7.56789766054569976138603589584e-3),
        (12, -8.298e-3),
    ),
    (
        (0, 3.18346481635021405060768473261e-2),
        (5, 2.83009096723667755288322961402e-2),
        (6, 5.35419883074385676223797384372e-2),
        (7, -5.49237485713909884646569340306e-2),
        (10, -1.08347328697249322858509316994e-4),
        (11, 3.82571090835658412954920192323e-4),
        (12, -3.40465008687404560802977114492e-4),
        (13, 1.41312443674632500278074618366e-1),
    ),
    (
        (0, -4.28896301583791923408573538692e-1),
        (5, -4.69762141536116384314449447206),
        (6, 7.68342119606259904184240953878),
        (7, 4.06898981839711007970213554331),
        (8, 3.56727187455281109270669543021e-1),
        (12, -1.39902416515901462129418009734e-3),
        (13, 2.9475147891527723389556272149),
        (14, -9.15095847217987001081870187138),
    ),
)
B = A[12]

# the third-order estimator is B less these weights; the fifth-order one
# has weights of its own
_E3_OFFSETS = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
E3 = tuple((j, b - _E3_OFFSETS.get(j, 0.0)) for j, b in B)
E5 = (
    (0, 0.1312004499419488073250102996e-1),
    (5, -0.1225156446376204440720569753e1),
    (6, -0.4957589496572501915214079952),
    (7, 0.1664377182454986536961530415e1),
    (8, -0.3503288487499736816886487290),
    (9, 0.3341791187130174790297318841),
    (10, 0.8192320648511571246570742613e-1),
    (11, -0.2235530786388629525884427845e-1),
)

# D[r]: the weights of dense-output coefficient r + 3 on the 16 stages
D = (
    (
        (0, -0.84289382761090128651353491142e1),
        (5, 0.56671495351937776962531783590),
        (6, -0.30689499459498916912797304727e1),
        (7, 0.23846676565120698287728149680e1),
        (8, 0.21170345824450282767155149946e1),
        (9, -0.87139158377797299206789907490),
        (10, 0.22404374302607882758541771650e1),
        (11, 0.63157877876946881815570249290),
        (12, -0.88990336451333310820698117400e-1),
        (13, 0.18148505520854727256656404962e2),
        (14, -0.91946323924783554000451984436e1),
        (15, -0.44360363875948939664310572000e1),
    ),
    (
        (0, 0.10427508642579134603413151009e2),
        (5, 0.24228349177525818288430175319e3),
        (6, 0.16520045171727028198505394887e3),
        (7, -0.37454675472269020279518312152e3),
        (8, -0.22113666853125306036270938578e2),
        (9, 0.77334326684722638389603898808e1),
        (10, -0.30674084731089398182061213626e2),
        (11, -0.93321305264302278729567221706e1),
        (12, 0.15697238121770843886131091075e2),
        (13, -0.31139403219565177677282850411e2),
        (14, -0.93529243588444783865713862664e1),
        (15, 0.35816841486394083752465898540e2),
    ),
    (
        (0, 0.19985053242002433820987653617e2),
        (5, -0.38703730874935176555105901742e3),
        (6, -0.18917813819516756882830838328e3),
        (7, 0.52780815920542364900561016686e3),
        (8, -0.11573902539959630126141871134e2),
        (9, 0.68812326946963000169666922661e1),
        (10, -0.10006050966910838403183860980e1),
        (11, 0.77771377980534432092869265740),
        (12, -0.27782057523535084065932004339e1),
        (13, -0.60196695231264120758267380846e2),
        (14, 0.84320405506677161018159903784e2),
        (15, 0.11992291136182789328035130030e2),
    ),
    (
        (0, -0.25693933462703749003312586129e2),
        (5, -0.15418974869023643374053993627e3),
        (6, -0.23152937917604549567536039109e3),
        (7, 0.35763911791061412378285349910e3),
        (8, 0.93405324183624310003907691704e2),
        (9, -0.37458323136451633156875139351e2),
        (10, 0.10409964950896230045147246184e3),
        (11, 0.29840293426660503123344363579e2),
        (12, -0.43533456590011143754432175058e2),
        (13, 0.96324553959188282948394950600e2),
        (14, -0.39177261675615439165231486172e2),
        (15, -0.14972683625798562581422125276e3),
    ),
)


def _weighted(row, kV: list, kK: list) -> tuple[float, float]:
    sV = sK = 0.0
    for j, a in row:
        sV += a * kV[j]
        sK += a * kK[j]
    return sV, sK


class Dop853:
    """Adaptive DOP853 integration of (V, K)' = field(V, K) from t = 0.

    Each ``step`` is one attempt. An accepted one advances ``t`` and
    records the step's dense output, which ``sample`` evaluates; ``steps``
    counts the accepted ones.
    """

    def __init__(self, field, V: float, K: float, tol: float):
        self.field = field
        self.tol = tol
        self.t, self.V, self.K = 0.0, V, K
        self.f = field(V, K)
        self.h = self._initial_step()
        self._rejected = False
        # per accepted step: its start, width, initial state and the seven
        # dense-output coefficients of each component (a step ends where
        # the next starts); _table is the transpose, rebuilt once steps moves
        self._dense: list[tuple] = []
        self._table = np.empty((18, 0))

    @property
    def steps(self) -> int:
        """Accepted steps so far."""
        return len(self._dense)

    def _initial_step(self) -> float:
        # scipy's select_initial_step (Hairer, Nørsett & Wanner, §II.4)
        # for the error estimator's order 7, with no end time to clip to
        V, K, (fV, fK) = self.V, self.K, self.f
        sV, sK = self.tol * (1.0 + abs(V)), self.tol * (1.0 + abs(K))
        d0 = math.hypot(V / sV, K / sK) / math.sqrt(2.0)
        d1 = math.hypot(fV / sV, fK / sK) / math.sqrt(2.0)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        gV, gK = self.field(V + h0 * fV, K + h0 * fK)
        d2 = math.hypot((gV - fV) / sV, (gK - fK) / sK) / math.sqrt(2.0) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
        return min(100.0 * h0, h1)

    def step(self) -> None:
        """One attempt: accept it and advance, or shrink the step."""
        h, V, K = self.h, self.V, self.K
        kV, kK = [self.f[0]], [self.f[1]]
        for row in A[1:13]:
            sV, sK = _weighted(row, kV, kK)
            v, k = V + h * sV, K + h * sK
            dv, dk = self.field(v, k)
            kV.append(dv)
            kK.append(dk)
        # the last row is B: (v, k) is the new state, (dv, dk) its field
        e5V, e5K = _weighted(E5, kV, kK)
        e3V, e3K = _weighted(E3, kV, kK)
        sV = self.tol * (1.0 + max(abs(V), abs(v)))
        sK = self.tol * (1.0 + max(abs(K), abs(k)))
        e5 = (e5V / sV) ** 2 + (e5K / sK) ** 2
        e3 = (e3V / sV) ** 2 + (e3K / sK) ** 2
        err = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * 2.0)
        if not err < 1.0:
            self.h = h * max(MIN_FACTOR, SAFETY * err**_ERROR_EXPONENT)
            self._rejected = True
            return
        factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err**_ERROR_EXPONENT)
        if self._rejected:
            factor = min(1.0, factor)
        self._rejected = False
        self._record_dense(h, kV, kK, v, k)
        self.t += h
        self.V, self.K, self.f = v, k, (dv, dk)
        self.h = h * factor

    def _record_dense(self, h: float, kV: list, kK: list, v: float, k: float):
        V, K, field = self.V, self.K, self.field
        for row in A[13:]:
            sV, sK = _weighted(row, kV, kK)
            dv, dk = field(V + h * sV, K + h * sK)
            kV.append(dv)
            kK.append(dk)
        dV, dK = v - V, k - K
        cV = [dV, h * kV[0] - dV, 2.0 * dV - h * (kV[12] + kV[0])]
        cK = [dK, h * kK[0] - dK, 2.0 * dK - h * (kK[12] + kK[0])]
        for row in D:
            sV, sK = _weighted(row, kV, kK)
            cV.append(h * sV)
            cK.append(h * sK)
        self._dense.append((self.t, h, V, K, *cV, *cK))

    def sample(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The dense output at times tau in [0, t], each from the first step
        that ends at or after it; tau = 0 gives the start state exactly."""
        if self._table.shape[1] != self.steps:
            self._table = np.array(self._dense).T
        table = self._table
        # one column of the step table at a time, gathered per time, so the
        # temporaries stay a few arrays of the size of tau
        which = np.searchsorted(np.append(table[0][1:], self.t), tau)
        x = (tau - table[0][which]) / table[1][which]
        y = 1.0 - x

        def evaluate(start: np.ndarray, c: np.ndarray) -> np.ndarray:
            # scipy's nested form: c6, then * x, + c5, * (1 - x), + c4, ...
            acc = c[6][which] * x
            for r in range(5, -1, -1):
                acc += c[r][which]
                acc *= y if r % 2 else x
            return acc + start[which]

        return evaluate(table[2], table[4:11]), evaluate(table[3], table[11:18])
