# Survival function of the two-sided one-sample Kolmogorov-Smirnov statistic
# D_n: the SF path of scipy 1.17.1 ``scipy/stats/_ksstats.py`` (``_kolmogn``
# with ``cdf=False`` and the routines it reaches), ported operation for
# operation, so :func:`kstwo_sf` returns the bits of ``scipy.stats.kstwo.sf``
# while feature separation imports only ``scipy.special``.  Method choice
# after Simard & L'Ecuyer (2011), J. Stat. Softw. 39(11).
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.  All rights
# reserved.  BSD-3-Clause: conditions and disclaimer in LICENSES/scipy-BSD-3-Clause.txt.

from __future__ import annotations

import numpy as np
from scipy import special

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED, _PI_FOUR, _PI_SIX = np.pi**2, np.pi**4, np.pi**6
# Stirling coefficients B_{2j}/(2j)/(2j-1), j = 8..1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _kolmogn_DMTW(n, d):
    """Pr(D_n <= d), Durbin's matrix algorithm after Marsaglia-Tsang-Wang."""
    # d = (k - h) / n: the k-th row of (n!/n^n) H^n, with H^n rescaled as it grows
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2 * h**m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)
    Hpwr = np.eye(np.shape(H)[0])
    nn, expnt, Hexpnt = n, 0, 0  # Hpwr and H carry 2**-expnt and 2**-Hexpnt
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


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """Endpoints of the non-zero interval of row i."""
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


def _kolmogn_Pomeranz(n, x):
    """Pr(D_n <= x) by Pomeranz's recursion: n! V[n-1, 2n+1], two rows kept."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf, roundf = (1 if f > 0 else 0), (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)
    # unnormalized Poisson weights (g/n)^m/m!, (2g/n)^m/m!, ((1-2g)/n)^m/m!
    gpower, twogpower, onem2gpower = np.empty(npwrs), np.empty(npwrs), np.empty(npwrs)
    gpower[0] = twogpower[0] = onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m
    V0, V1 = np.zeros([npwrs]), np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # start indices of the two rows
    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start, conv_len = j1 - k1, j2 - j1 + 1
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


def _kolmogn_PelzGood(n, x):
    """Pelz-Good: Li-Chien/Korolyuk's K0..K3 series at z = x*sqrt(n), ~Pr(D_n <= x)."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return _clip_prob(0.0)
    q = np.exp(qlog)
    k1a, k1b = -zsquared, _PI_SQUARED / 4
    k2a, k2b = 6 * zsix + 2 * zfour, (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c, k3d = _PI_FOUR * (1 - 2 * zsquared) / 16, _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b, k3a = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4, -30 * zsix - 90 * z**8
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):  # Horner: sum c_i q^(i^2) over odd i
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])
    # the K2 and K3 terms over all integers k, summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)


def _kolmogn_sf(n, x):
    """Pr(D_n > x) for integer ``n >= 1`` and 0-d float64 ``x`` in (0.5/n, 1)."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return _clip_prob(1.0)
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            rn = 1.0 / n  # log(n!/n^n) by Stirling, n*log(n) removed up front
            lnf = np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)
            prob = np.exp(lnf + n * np.log(2 * t - 1))
        return _clip_prob(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip_prob(2 * (1.0 - x)**n)
    nxsquared = t * x
    if x >= 0.5:
        pass  # exact: 2 * smirnov
    elif n <= 140:
        if nxsquared <= 0.754693:
            return _clip_prob(1.0 - _kolmogn_DMTW(n, x))
        if nxsquared <= 4:
            return _clip_prob(1.0 - _kolmogn_Pomeranz(n, x))
    elif nxsquared >= 370.0:
        return 0.0
    elif nxsquared < 2.2:
        if n <= 100000 and n * x**1.5 <= 1.4:
            return _clip_prob(1.0 - _kolmogn_DMTW(n, x))
        return _clip_prob(1.0 - _kolmogn_PelzGood(n, x))
    return _clip_prob(2 * special.smirnov(n, x))  # Miller below x = 0.5


def kstwo_sf(x, n: float) -> np.ndarray:
    """``scipy.stats.kstwo.sf(x, n)`` for a float64 array ``x`` and scalar ``n``.

    Keeps its support rules: NaN where ``n`` is not an integer ``>= 1`` or
    ``x`` is NaN, 1 for ``x <= 0.5/n``, 0 for ``x >= 1``.  Inner points go in
    as 0-d arrays, as scipy's ``nditer`` hands them over, so every operation
    takes the same numpy path.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (n >= 1 and n == np.round(n)):
        return np.full(x.shape, np.nan)
    out = np.zeros(x.shape)
    out[np.isnan(x)] = np.nan
    out[x <= 0.5 / n] = 1.0
    for i in np.flatnonzero((0.5 / n < x) & (x < 1.0)):
        out.flat[i] = _kolmogn_sf(int(n), np.asarray(x.flat[i]))
    return out
