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
SciPy Developers. Only the nonzero entries are kept, one constant each:
``Ai_j`` is the weight of stage j in stage i, ``Bj`` the solution weight
of stage j, ``E3_j``/``E5_j`` the error weights and ``Dr_j`` the weight
of stage j in dense-output coefficient r + 3. The field is autonomous,
so the stage times C are not needed. Every weighted sum is written out
term by term in ascending j, so it rounds as a loop over the row's
nonzero entries would; ``tests/oracles.py`` holds such a loop over
SciPy's table, which the tests match bit for bit.

The dense output is one tuple per accepted step, read through one search
and one Horner form: by ``sample`` in arrays, by ``at`` in floats, same bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter

import numpy as np

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# the error estimator is of order 7, so the error scales as h^8
_ERROR_EXPONENT = -1.0 / 8.0

# stages 1-11: the weights Ai_j of stage i on stages j < i
A1_0 = 5.26001519587677318785587544488e-2

A2_0 = 1.97250569845378994544595329183e-2
A2_1 = 5.91751709536136983633785987549e-2

A3_0 = 2.95875854768068491816892993775e-2
A3_2 = 8.87627564304205475450678981324e-2

A4_0 = 2.41365134159266685502369798665e-1
A4_2 = -8.84549479328286085344864962717e-1
A4_3 = 9.24834003261792003115737966543e-1

A5_0 = 3.7037037037037037037037037037e-2
A5_3 = 1.70828608729473871279604482173e-1
A5_4 = 1.25467687566822425016691814123e-1

A6_0 = 3.7109375e-2
A6_3 = 1.70252211019544039314978060272e-1
A6_4 = 6.02165389804559606850219397283e-2
A6_5 = -1.7578125e-2

A7_0 = 3.70920001185047927108779319836e-2
A7_3 = 1.70383925712239993810214054705e-1
A7_4 = 1.07262030446373284651809199168e-1
A7_5 = -1.53194377486244017527936158236e-2
A7_6 = 8.27378916381402288758473766002e-3

A8_0 = 6.24110958716075717114429577812e-1
A8_3 = -3.36089262944694129406857109825
A8_4 = -8.68219346841726006818189891453e-1
A8_5 = 2.75920996994467083049415600797e1
A8_6 = 2.01540675504778934086186788979e1
A8_7 = -4.34898841810699588477366255144e1

A9_0 = 4.77662536438264365890433908527e-1
A9_3 = -2.48811461997166764192642586468
A9_4 = -5.90290826836842996371446475743e-1
A9_5 = 2.12300514481811942347288949897e1
A9_6 = 1.52792336328824235832596922938e1
A9_7 = -3.32882109689848629194453265587e1
A9_8 = -2.03312017085086261358222928593e-2

A10_0 = -9.3714243008598732571704021658e-1
A10_3 = 5.18637242884406370830023853209
A10_4 = 1.09143734899672957818500254654
A10_5 = -8.14978701074692612513997267357
A10_6 = -1.85200656599969598641566180701e1
A10_7 = 2.27394870993505042818970056734e1
A10_8 = 2.49360555267965238987089396762
A10_9 = -3.0467644718982195003823669022

A11_0 = 2.27331014751653820792359768449
A11_3 = -1.05344954667372501984066689879e1
A11_4 = -2.00087205822486249909675718444
A11_5 = -1.79589318631187989172765950534e1
A11_6 = 2.79488845294199600508499808837e1
A11_7 = -2.85899827713502369474065508674
A11_8 = -8.87285693353062954433549289258
A11_9 = 1.23605671757943030647266201528e1
A11_10 = 6.43392746015763530355970484046e-1

# B: the solution weights, row 12 of the table (stage 12 is the field at
# the new state)
B0 = 5.42937341165687622380535766363e-2
B5 = 4.45031289275240888144113950566
B6 = 1.89151789931450038304281599044
B7 = -5.8012039600105847814672114227
B8 = 3.1116436695781989440891606237e-1
B9 = -1.52160949662516078556178806805e-1
B10 = 2.01365400804030348374776537501e-1
B11 = 4.47106157277725905176885569043e-2

# stages 13-15: the extra stages of the dense output
A13_0 = 5.61675022830479523392909219681e-2
A13_6 = 2.53500210216624811088794765333e-1
A13_7 = -2.46239037470802489917441475441e-1
A13_8 = -1.24191423263816360469010140626e-1
A13_9 = 1.5329179827876569731206322685e-1
A13_10 = 8.20105229563468988491666602057e-3
A13_11 = 7.56789766054569976138603589584e-3
A13_12 = -8.298e-3

A14_0 = 3.18346481635021405060768473261e-2
A14_5 = 2.83009096723667755288322961402e-2
A14_6 = 5.35419883074385676223797384372e-2
A14_7 = -5.49237485713909884646569340306e-2
A14_10 = -1.08347328697249322858509316994e-4
A14_11 = 3.82571090835658412954920192323e-4
A14_12 = -3.40465008687404560802977114492e-4
A14_13 = 1.41312443674632500278074618366e-1

A15_0 = -4.28896301583791923408573538692e-1
A15_5 = -4.69762141536116384314449447206
A15_6 = 7.68342119606259904184240953878
A15_7 = 4.06898981839711007970213554331
A15_8 = 3.56727187455281109270669543021e-1
A15_12 = -1.39902416515901462129418009734e-3
A15_13 = 2.9475147891527723389556272149
A15_14 = -9.15095847217987001081870187138

# the third-order estimator's weights are B's, less these at stages 0, 8 and 11
E3_0 = B0 - 0.244094488188976377952755905512
E3_8 = B8 - 0.733846688281611857341361741547
E3_11 = B11 - 0.220588235294117647058823529412e-1

# the fifth-order estimator
E5_0 = 0.1312004499419488073250102996e-1
E5_5 = -0.1225156446376204440720569753e1
E5_6 = -0.4957589496572501915214079952
E5_7 = 0.1664377182454986536961530415e1
E5_8 = -0.3503288487499736816886487290
E5_9 = 0.3341791187130174790297318841
E5_10 = 0.8192320648511571246570742613e-1
E5_11 = -0.2235530786388629525884427845e-1

# dense-output coefficient 3
D0_0 = -0.84289382761090128651353491142e1
D0_5 = 0.56671495351937776962531783590
D0_6 = -0.30689499459498916912797304727e1
D0_7 = 0.23846676565120698287728149680e1
D0_8 = 0.21170345824450282767155149946e1
D0_9 = -0.87139158377797299206789907490
D0_10 = 0.22404374302607882758541771650e1
D0_11 = 0.63157877876946881815570249290
D0_12 = -0.88990336451333310820698117400e-1
D0_13 = 0.18148505520854727256656404962e2
D0_14 = -0.91946323924783554000451984436e1
D0_15 = -0.44360363875948939664310572000e1

# dense-output coefficient 4
D1_0 = 0.10427508642579134603413151009e2
D1_5 = 0.24228349177525818288430175319e3
D1_6 = 0.16520045171727028198505394887e3
D1_7 = -0.37454675472269020279518312152e3
D1_8 = -0.22113666853125306036270938578e2
D1_9 = 0.77334326684722638389603898808e1
D1_10 = -0.30674084731089398182061213626e2
D1_11 = -0.93321305264302278729567221706e1
D1_12 = 0.15697238121770843886131091075e2
D1_13 = -0.31139403219565177677282850411e2
D1_14 = -0.93529243588444783865713862664e1
D1_15 = 0.35816841486394083752465898540e2

# dense-output coefficient 5
D2_0 = 0.19985053242002433820987653617e2
D2_5 = -0.38703730874935176555105901742e3
D2_6 = -0.18917813819516756882830838328e3
D2_7 = 0.52780815920542364900561016686e3
D2_8 = -0.11573902539959630126141871134e2
D2_9 = 0.68812326946963000169666922661e1
D2_10 = -0.10006050966910838403183860980e1
D2_11 = 0.77771377980534432092869265740
D2_12 = -0.27782057523535084065932004339e1
D2_13 = -0.60196695231264120758267380846e2
D2_14 = 0.84320405506677161018159903784e2
D2_15 = 0.11992291136182789328035130030e2

# dense-output coefficient 6
D3_0 = -0.25693933462703749003312586129e2
D3_5 = -0.15418974869023643374053993627e3
D3_6 = -0.23152937917604549567536039109e3
D3_7 = 0.35763911791061412378285349910e3
D3_8 = 0.93405324183624310003907691704e2
D3_9 = -0.37458323136451633156875139351e2
D3_10 = 0.10409964950896230045147246184e3
D3_11 = 0.29840293426660503123344363579e2
D3_12 = -0.43533456590011143754432175058e2
D3_13 = 0.96324553959188282948394950600e2
D3_14 = -0.39177261675615439165231486172e2
D3_15 = -0.14972683625798562581422125276e3


class Dop853:
    """Adaptive DOP853 integration of (V, K)' = field(V, K) from t = 0.

    Each ``step`` is one attempt. An accepted one advances ``t`` and
    appends the step's dense output to ``_dense``, the one record that
    ``sample`` and ``at`` evaluate; ``steps`` counts the accepted ones.
    """

    def __init__(self, field, V: float, K: float, tol: float):
        self.field = field
        self.tol = tol
        self.t, self.V, self.K = 0.0, V, K
        self.f = field(V, K)
        self.h = self._initial_step()
        self._rejected = False
        # per accepted step: its start, width, initial state and the seven
        # dense-output coefficients of each component; a step ends where
        # the next starts, and the last at t
        self._dense: list[tuple] = []

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
        h, V, K, field = self.h, self.V, self.K, self.field
        # kVi, kKi: the field at stage i
        kV0, kK0 = self.f
        kV1, kK1 = field(V + h * (A1_0 * kV0), K + h * (A1_0 * kK0))
        kV2, kK2 = field(V + h * (A2_0 * kV0 + A2_1 * kV1), K + h * (A2_0 * kK0 + A2_1 * kK1))
        kV3, kK3 = field(V + h * (A3_0 * kV0 + A3_2 * kV2), K + h * (A3_0 * kK0 + A3_2 * kK2))
        kV4, kK4 = field(
            V + h * (A4_0 * kV0 + A4_2 * kV2 + A4_3 * kV3),
            K + h * (A4_0 * kK0 + A4_2 * kK2 + A4_3 * kK3),
        )
        kV5, kK5 = field(
            V + h * (A5_0 * kV0 + A5_3 * kV3 + A5_4 * kV4),
            K + h * (A5_0 * kK0 + A5_3 * kK3 + A5_4 * kK4),
        )
        kV6, kK6 = field(
            V + h * (A6_0 * kV0 + A6_3 * kV3 + A6_4 * kV4 + A6_5 * kV5),
            K + h * (A6_0 * kK0 + A6_3 * kK3 + A6_4 * kK4 + A6_5 * kK5),
        )
        kV7, kK7 = field(
            V + h * (A7_0 * kV0 + A7_3 * kV3 + A7_4 * kV4 + A7_5 * kV5 + A7_6 * kV6),
            K + h * (A7_0 * kK0 + A7_3 * kK3 + A7_4 * kK4 + A7_5 * kK5 + A7_6 * kK6),
        )
        kV8, kK8 = field(
            V + h * (A8_0 * kV0 + A8_3 * kV3 + A8_4 * kV4 + A8_5 * kV5 + A8_6 * kV6 + A8_7 * kV7),
            K + h * (A8_0 * kK0 + A8_3 * kK3 + A8_4 * kK4 + A8_5 * kK5 + A8_6 * kK6 + A8_7 * kK7),
        )
        kV9, kK9 = field(
            V + h * (
                A9_0 * kV0 + A9_3 * kV3 + A9_4 * kV4 + A9_5 * kV5 + A9_6 * kV6 + A9_7 * kV7
                + A9_8 * kV8
            ),
            K + h * (
                A9_0 * kK0 + A9_3 * kK3 + A9_4 * kK4 + A9_5 * kK5 + A9_6 * kK6 + A9_7 * kK7
                + A9_8 * kK8
            ),
        )
        kV10, kK10 = field(
            V + h * (
                A10_0 * kV0 + A10_3 * kV3 + A10_4 * kV4 + A10_5 * kV5 + A10_6 * kV6 + A10_7 * kV7
                + A10_8 * kV8 + A10_9 * kV9
            ),
            K + h * (
                A10_0 * kK0 + A10_3 * kK3 + A10_4 * kK4 + A10_5 * kK5 + A10_6 * kK6 + A10_7 * kK7
                + A10_8 * kK8 + A10_9 * kK9
            ),
        )
        kV11, kK11 = field(
            V + h * (
                A11_0 * kV0 + A11_3 * kV3 + A11_4 * kV4 + A11_5 * kV5 + A11_6 * kV6 + A11_7 * kV7
                + A11_8 * kV8 + A11_9 * kV9 + A11_10 * kV10
            ),
            K + h * (
                A11_0 * kK0 + A11_3 * kK3 + A11_4 * kK4 + A11_5 * kK5 + A11_6 * kK6 + A11_7 * kK7
                + A11_8 * kK8 + A11_9 * kK9 + A11_10 * kK10
            ),
        )
        # row 12 is B: the new state, then its field
        v = V + h * (
            B0 * kV0 + B5 * kV5 + B6 * kV6 + B7 * kV7 + B8 * kV8 + B9 * kV9 + B10 * kV10
            + B11 * kV11
        )
        k = K + h * (
            B0 * kK0 + B5 * kK5 + B6 * kK6 + B7 * kK7 + B8 * kK8 + B9 * kK9 + B10 * kK10
            + B11 * kK11
        )
        kV12, kK12 = field(v, k)
        e5V = (
            E5_0 * kV0 + E5_5 * kV5 + E5_6 * kV6 + E5_7 * kV7 + E5_8 * kV8 + E5_9 * kV9
            + E5_10 * kV10 + E5_11 * kV11
        )
        e5K = (
            E5_0 * kK0 + E5_5 * kK5 + E5_6 * kK6 + E5_7 * kK7 + E5_8 * kK8 + E5_9 * kK9
            + E5_10 * kK10 + E5_11 * kK11
        )
        e3V = (
            E3_0 * kV0 + B5 * kV5 + B6 * kV6 + B7 * kV7 + E3_8 * kV8 + B9 * kV9 + B10 * kV10
            + E3_11 * kV11
        )
        e3K = (
            E3_0 * kK0 + B5 * kK5 + B6 * kK6 + B7 * kK7 + E3_8 * kK8 + B9 * kK9 + B10 * kK10
            + E3_11 * kK11
        )
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
        # the dense output reads stages 0 and 5-12 of this step
        self._record_dense(
            h,
            v,
            k,
            (kV0, kV5, kV6, kV7, kV8, kV9, kV10, kV11, kV12),
            (kK0, kK5, kK6, kK7, kK8, kK9, kK10, kK11, kK12),
        )
        self.t += h
        self.V, self.K, self.f = v, k, (kV12, kK12)
        self.h = h * factor

    def _record_dense(self, h: float, v: float, k: float, kV: tuple, kK: tuple):
        V, K, field = self.V, self.K, self.field
        kV0, kV5, kV6, kV7, kV8, kV9, kV10, kV11, kV12 = kV
        kK0, kK5, kK6, kK7, kK8, kK9, kK10, kK11, kK12 = kK
        kV13, kK13 = field(
            V + h * (
                A13_0 * kV0 + A13_6 * kV6 + A13_7 * kV7 + A13_8 * kV8 + A13_9 * kV9 + A13_10 * kV10
                + A13_11 * kV11 + A13_12 * kV12
            ),
            K + h * (
                A13_0 * kK0 + A13_6 * kK6 + A13_7 * kK7 + A13_8 * kK8 + A13_9 * kK9 + A13_10 * kK10
                + A13_11 * kK11 + A13_12 * kK12
            ),
        )
        kV14, kK14 = field(
            V + h * (
                A14_0 * kV0 + A14_5 * kV5 + A14_6 * kV6 + A14_7 * kV7 + A14_10 * kV10
                + A14_11 * kV11 + A14_12 * kV12 + A14_13 * kV13
            ),
            K + h * (
                A14_0 * kK0 + A14_5 * kK5 + A14_6 * kK6 + A14_7 * kK7 + A14_10 * kK10
                + A14_11 * kK11 + A14_12 * kK12 + A14_13 * kK13
            ),
        )
        kV15, kK15 = field(
            V + h * (
                A15_0 * kV0 + A15_5 * kV5 + A15_6 * kV6 + A15_7 * kV7 + A15_8 * kV8 + A15_12 * kV12
                + A15_13 * kV13 + A15_14 * kV14
            ),
            K + h * (
                A15_0 * kK0 + A15_5 * kK5 + A15_6 * kK6 + A15_7 * kK7 + A15_8 * kK8 + A15_12 * kK12
                + A15_13 * kK13 + A15_14 * kK14
            ),
        )
        dV, dK = v - V, k - K
        self._dense.append(
            (
                self.t,
                h,
                V,
                K,
                dV,
                h * kV0 - dV,
                2.0 * dV - h * (kV12 + kV0),
                h * (
                    D0_0 * kV0 + D0_5 * kV5 + D0_6 * kV6 + D0_7 * kV7 + D0_8 * kV8 + D0_9 * kV9
                    + D0_10 * kV10 + D0_11 * kV11 + D0_12 * kV12 + D0_13 * kV13 + D0_14 * kV14
                    + D0_15 * kV15
                ),
                h * (
                    D1_0 * kV0 + D1_5 * kV5 + D1_6 * kV6 + D1_7 * kV7 + D1_8 * kV8 + D1_9 * kV9
                    + D1_10 * kV10 + D1_11 * kV11 + D1_12 * kV12 + D1_13 * kV13 + D1_14 * kV14
                    + D1_15 * kV15
                ),
                h * (
                    D2_0 * kV0 + D2_5 * kV5 + D2_6 * kV6 + D2_7 * kV7 + D2_8 * kV8 + D2_9 * kV9
                    + D2_10 * kV10 + D2_11 * kV11 + D2_12 * kV12 + D2_13 * kV13 + D2_14 * kV14
                    + D2_15 * kV15
                ),
                h * (
                    D3_0 * kV0 + D3_5 * kV5 + D3_6 * kV6 + D3_7 * kV7 + D3_8 * kV8 + D3_9 * kV9
                    + D3_10 * kV10 + D3_11 * kV11 + D3_12 * kV12 + D3_13 * kV13 + D3_14 * kV14
                    + D3_15 * kV15
                ),
                dK,
                h * kK0 - dK,
                2.0 * dK - h * (kK12 + kK0),
                h * (
                    D0_0 * kK0 + D0_5 * kK5 + D0_6 * kK6 + D0_7 * kK7 + D0_8 * kK8 + D0_9 * kK9
                    + D0_10 * kK10 + D0_11 * kK11 + D0_12 * kK12 + D0_13 * kK13 + D0_14 * kK14
                    + D0_15 * kK15
                ),
                h * (
                    D1_0 * kK0 + D1_5 * kK5 + D1_6 * kK6 + D1_7 * kK7 + D1_8 * kK8 + D1_9 * kK9
                    + D1_10 * kK10 + D1_11 * kK11 + D1_12 * kK12 + D1_13 * kK13 + D1_14 * kK14
                    + D1_15 * kK15
                ),
                h * (
                    D2_0 * kK0 + D2_5 * kK5 + D2_6 * kK6 + D2_7 * kK7 + D2_8 * kK8 + D2_9 * kK9
                    + D2_10 * kK10 + D2_11 * kK11 + D2_12 * kK12 + D2_13 * kK13 + D2_14 * kK14
                    + D2_15 * kK15
                ),
                h * (
                    D3_0 * kK0 + D3_5 * kK5 + D3_6 * kK6 + D3_7 * kK7 + D3_8 * kK8 + D3_9 * kK9
                    + D3_10 * kK10 + D3_11 * kK11 + D3_12 * kK12 + D3_13 * kK13 + D3_14 * kK14
                    + D3_15 * kK15
                ),
            )
        )

    def _holding(self, tau: float) -> int:
        """Index of the step that holds tau: the first step that ends at or
        after it, so a time on a step end is read from the step that ends
        there, and tau = 0 from the first step."""
        return bisect_left(self._dense, tau, 1, key=itemgetter(0)) - 1

    def sample(self, tau: np.ndarray) -> np.ndarray:
        """The dense output's volume at the ascending times tau in [0, t],
        each from the step that holds it (see ``_holding``); tau = 0 gives
        the start volume exactly."""
        # the steps from the one that holds tau[0] to the one that holds
        # tau[-1], as rows; tau is sorted, so the times each holds are one
        # run of it, counted by one search per step end short of the last
        lo, hi = self._holding(tau[0]), self._holding(tau[-1])
        rows = np.array(self._dense[lo : hi + 1]).T
        held = np.searchsorted(tau, rows[0][1:], side="right")
        counts = np.diff(held, prepend=0, append=tau.size)
        # each row is repeated once per time as it is read, so the
        # temporaries stay a few arrays of the size of tau
        x = (tau - rows[0].repeat(counts)) / rows[1].repeat(counts)
        return _horner((c.repeat(counts) for c in _V_TERMS(rows)), x)

    def at(self, tau: float) -> tuple[float, float]:
        """The dense output's (V, K) at one time tau in [0, t], bit for bit
        what ``sample`` gives, in scalar arithmetic."""
        step = self._dense[self._holding(tau)]
        x = (tau - step[0]) / step[1]
        return _horner(_V_TERMS(step), x), _horner(_K_TERMS(step), x)


# a step's dense-output coefficients c6, ..., c0 and its start value, as
# _horner reads them: for V, then for K
_V_TERMS = itemgetter(10, 9, 8, 7, 6, 5, 4, 2)
_K_TERMS = itemgetter(17, 16, 15, 14, 13, 12, 11, 3)


def _horner(terms, x):
    """One component of the dense output at x, the time as a fraction of
    its step. ``terms`` yields c6, ..., c0 and then the step's start
    value, floats for one time or arrays for many, read in scipy's
    nested form: c6, then * x, + c5, * (1 - x), + c4, ..."""
    terms = iter(terms)
    y = 1.0 - x
    acc = next(terms) * x
    for factor in (y, x, y, x, y, x):
        acc += next(terms)
        acc *= factor
    return acc + next(terms)
