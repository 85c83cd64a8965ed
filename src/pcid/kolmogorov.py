"""Kolmogorov-Smirnov p-values and the standard normal cdf without scipy.stats.

The survival function of the two-sided one-sample Kolmogorov-Smirnov
statistic D_n, P(D_n > d), chosen per (n, d) among exact and asymptotic
methods as in Simard and L'Ecuyer, "Computing the two-sided
Kolmogorov-Smirnov distribution", J. Stat. Softw. 39(11), 2011:
Ruben-Gambino at the edges, 2 * smirnov for d >= 0.5 and the upper tail,
the Durbin matrix in the Marsaglia-Tsang-Wang form, the Pomeranz recursion,
and the Pelz-Good expansion.

This is the survival-function path of scipy.stats._ksstats._kolmogn
(scipy, BSD 3-Clause License, notice below), with each branch's
arithmetic, operand types and long-double scaling kept as scipy has them,
so `kstwo_sf` and `ks_two_sample` give the bits of `scipy.stats.kstwo.sf`
and `ks_2samp(a, b, method="asymp")`. Importing scipy.stats would cost
more than half of a `pcid run` start-up.

`ks_two_sample` is the test of `verifiers.check_stopping_time`. pcid
makes no one-sample fit of a sample to N(0, 1): the normal shape of the
CLT limits is not reached at the sizes the checks run (README).

`ndtr` is the standard normal cdf of the Cephes library (notice below),
the routine behind `scipy.special.ndtr`, carried over with its rational
approximations of erf and erfc, so that importing this module loads no
scipy at all. It gives the verdicts' z-test p-values and the normal
base measure's cdf. Only the 2 * smirnov branches import `scipy.special`,
when they are first reached.
"""

# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

# Cephes Math Library Release 2.8:  June, 2000
# Copyright 1984, 1995, 2000 by Stephen L. Moshier
#
# This software is derived from the Cephes Math Library and is
# incorporated herein by permission of the author.
#
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are met:
#     * Redistributions of source code must retain the above copyright
#       notice, this list of conditions and the following disclaimer.
#     * Redistributions in binary form must reproduce the above copyright
#       notice, this list of conditions and the following disclaimer in the
#       documentation and/or other materials provided with the distribution.
#     * Neither the name of the <organization> nor the
#       names of its contributors may be used to endorse or promote products
#       derived from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS" AND
# ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE IMPLIED
# WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE ARE
# DISCLAIMED. IN NO EVENT SHALL <COPYRIGHT HOLDER> BE LIABLE FOR ANY
# DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES
# (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES;
# LOSS OF USE, DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND
# ON ANY THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
# SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

import math

import numpy as np

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# B_{2j} / (2j) / (2j - 1) for j = 8, ..., 1, with B_m the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n^n) by Stirling's series, with n log(n) removed up front
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _cdf_durbin_mtw(n, d):
    """P(D_n <= d) for 1/n < d < 1 by the Durbin matrix, MTW form: the k-th
    diagonal entry of (n!/n^n) H^n for the m x m matrix H, m = 2k - 1,
    d = (k - h)/n, with powers rescaled by 2^128 as they grow."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    # v: first column and (reversed) last row of H; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip_prob(p)


def _pomeranz_j1j2(i, n, ll, ceilf, roundf):
    """The first and last non-zero entries of row i of the recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _cdf_pomeranz(n, x):
    """P(D_n <= x) by the Pomeranz recursion: n! times the last entry of row
    2n + 1, each row the convolution of the one before with one of three
    truncated Poisson weight sequences. Two rows are kept, each only over
    its non-zero span, and rescaled by 2^128 before they underflow."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)
    gpower = np.empty(npwrs)  # (g/n)^m / m!
    twogpower = np.empty(npwrs)  # (2g/n)^m / m!
    onem2gpower = np.empty(npwrs)  # ((1 - 2g)/n)^m / m!
    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # start index of each row

    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip_prob(ans)


def _cdf_pelz_good(n, x):
    """The Pelz-Good approximation of P(D_n <= x), 0 < x < 1: the
    Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5 in z = x sqrt(n), each term rewritten by the Jacobi theta
    functional equation for small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return _clip_prob(0.0)
    q = np.exp(qlog)

    # coefficients of the terms of K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner scheme over odd m = 2k - 1 of sum c_m q^(m^2)
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms over all integers k of K2, (pi k)^2 q^(k^2), and of K3,
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2), summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _twice_smirnov(n, x):
    """2 * the one-sided survival function P(D_n^+ >= x), the only use of
    scipy here: its module is imported on the first call that needs it."""
    from scipy import special
    return _clip_prob(2 * special.smirnov(n, x))


def _kolmogn_sf(n, x):
    """P(D_n > x) for an int n >= 1 and a 0-d float64 array x with
    0.5/n < x < 1, by the method Simard and L'Ecuyer choose for (n, x)."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return _clip_prob(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip_prob(2 * (1.0 - x)**n)
    if x >= 0.5:  # exact
        return _twice_smirnov(n, x)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return _clip_prob(1.0 - _cdf_durbin_mtw(n, x))
        if nxsquared <= 4:
            return _clip_prob(1.0 - _cdf_pomeranz(n, x))
        # Miller's approximation
        return _twice_smirnov(n, x)
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _twice_smirnov(n, x)
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _cdf_durbin_mtw(n, x)
    else:
        cdfprob = _cdf_pelz_good(n, x)
    return _clip_prob(1.0 - cdfprob)


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, exp(-x^2) R(x) / S(x) above,
# U, Q and S with their leading coefficient 1 left out
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # log(2^1024)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule, as cephes polevl."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1], as cephes p1evl."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf_small(x):
    """cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_large(x):
    """cephes erfc for x >= 1: 0 where exp(-x^2) underflows, as for x = inf.
    exp is libm's, through math.exp: numpy's own exp differs from it in the
    last bit at about one point in twenty."""
    out = np.zeros_like(x)
    with np.errstate(over="ignore"):
        z = -x * x
    live = z >= -_MAXLOG
    x = x[live]
    e = np.fromiter(map(math.exp, z[live].tolist()), np.float64, len(x))
    small = x < 8.0
    p = np.where(small, _polevl(x, _P), _polevl(x, _R))
    q = np.where(small, _p1evl(x, _Q), _p1evl(x, _S))
    out[live] = e * p / q
    return out


def ndtr(a):
    """The standard normal cdf, elementwise: cephes `ndtr`, bit for bit
    `scipy.special.ndtr`. NaN gives NaN."""
    a = np.asarray(a, dtype=np.float64)
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.full(x.shape, np.nan)
    centre = z < _SQRT1_2
    y[centre] = 0.5 + 0.5 * _erf_small(x[centre])
    # 0.5 erfc(|x|), with erfc = 1 - erf below 1
    mid = (z >= _SQRT1_2) & (z < 1.0)
    y[mid] = 0.5 * (1.0 - _erf_small(z[mid]))
    tail = z >= 1.0
    y[tail] = 0.5 * _erfc_large(z[tail])
    upper = ~centre & (x > 0)
    y[upper] = 1.0 - y[upper]
    return y[()]


def kstwo_sf(d: float, n: float) -> float:
    """P(D_n > d) for the two-sided one-sample Kolmogorov-Smirnov statistic
    D_n, bit for bit `scipy.stats.kstwo.sf(d, n)`: 1 for d <= 0.5/n, 0 for
    d >= 1, NaN for NaN d and for n that is not an integer >= 1."""
    if not (n >= 1 and float(n).is_integer()) or math.isnan(d):
        return math.nan
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    # d as the 0-d array that scipy's np.nditer hands its _kolmogn, so that
    # every operation below runs on the operand types it has there
    return float(_kolmogn_sf(int(n), np.array(d, dtype=np.float64)))


def ks_two_sample(a, b) -> tuple[float, float]:
    """(statistic, p-value) of the two-sided two-sample Kolmogorov-Smirnov
    test with the p-value of D at the effective size round(mn/(m + n)):
    `scipy.stats.ks_2samp(a, b, method="asymp")` bit for bit. That size is 0,
    so the p-value NaN, when both samples hold one point. A sample that is
    empty or holds a NaN gives (NaN, NaN)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n1, n2 = len(a), len(b)
    if min(n1, n2) == 0 or np.isnan(a).any() or np.isnan(b).any():
        return math.nan, math.nan
    pooled = np.concatenate([a, b])
    cddiffs = (np.searchsorted(a, pooled, side="right") / n1
               - np.searchsorted(b, pooled, side="right") / n2)
    min_s = np.clip(-cddiffs.min(), 0, 1)
    max_s = cddiffs.max()
    d = float(min_s if min_s > max_s else max_s)
    m, n = sorted([float(n1), float(n2)], reverse=True)
    return d, kstwo_sf(d, np.round(m * n / (m + n)))
