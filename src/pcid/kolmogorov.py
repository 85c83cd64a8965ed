"""The two-sample Kolmogorov-Smirnov test of two samples of equal size.

For two samples of n points each, the statistic is D = h/n, with h the
largest gap between the samples' counts at or below a pooled point. Under
the null (both samples i.i.d. from one continuous law) its law is exact:
P(D >= h/n) = 2 sum_{k >= 1} (-1)^(k-1) C(2n, n - kh) / C(2n, n)
(Gnedenko and Korolyuk, 1951). The sum is formed in the Horner form and
operation order of scipy.stats._stats_py._compute_prob_outside_square
(scipy, BSD 3-Clause License, notice below), so `ks_two_sample` gives the
bits of `scipy.stats.ks_2samp(a, b, method="exact")` without loading scipy.

`ks_two_sample` is the test of `verifiers.check_stopping_time`, which
compares two halves of equal size.
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

from __future__ import annotations

import math

import numpy as np


def _prob_outside_square(n: int, h: int) -> float:
    """P(D >= h/n) for 1 <= h <= n, as 2 A_0 (1 - A_1 (1 - A_2 (...))) with
    A_k = C(2n, n - (k+1)h) / C(2n, n - kh), each a product of h factors
    (a product that underflows to 0 stays there). The A_k fall with k; once
    one is at most 2^-54, 1 - (what the fold has reached there) rounds to 1,
    so the later ones change no bit and are not formed."""
    ratios = []
    for k in range(n // h + 1):
        a_k = 1.0
        for j in range(h):
            a_k = (n - k * h - j) * a_k / (n + k * h + j + 1)
            if a_k == 0.0:
                break
        ratios.append(a_k)
        if a_k <= 2.0 ** -54:
            break
    p = 0.0
    for a_k in reversed(ratios):
        p = a_k * (1.0 - p)
    return 2 * p


def ks_two_sample(a, b) -> tuple[float, float]:
    """(statistic, p-value) of the two-sided two-sample Kolmogorov-Smirnov
    test of two samples of equal size, with the exact null law:
    `scipy.stats.ks_2samp(a, b, method="exact")` bit for bit, except where
    the sum rounds above 1 (h = 1 at some n): scipy then falls back to its
    asymptotic law, and this clips to 1, the exact value. Ties make the test
    conservative. Unequal sizes raise ValueError; two empty samples, or a
    NaN, give (NaN, NaN)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n = len(a)
    if len(b) != n:
        raise ValueError(f"the samples must be of equal size, got {n} and {len(b)}")
    if n == 0 or np.isnan(a).any() or np.isnan(b).any():
        return math.nan, math.nan
    pooled = np.concatenate([a, b])
    h = int(np.abs(np.searchsorted(a, pooled, side="right")
                   - np.searchsorted(b, pooled, side="right")).max())
    if h == 0:
        return 0.0, 1.0
    return h / n, min(_prob_outside_square(n, h), 1.0)
