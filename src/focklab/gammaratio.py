"""Ratios of complex Gamma products along a vertical line, in floats and in mpmath.

F(t) = prod_j Gamma(x_j + i t) / prod_k Gamma(y_k + i t) for exact rational
real parts x_j (numerator) and y_k (denominator), at an array of t.
gamma_ratio_float is vectorized numpy and returns a relative error bound
with every value, and log_abs_gamma_ratio_float the same for log |F|, which
does not overflow; gamma_ratio_mp is the mpmath reference at elevated working
precision.  The Mellin-Barnes contour tables of focklab.kernel use the first
and the last, the error bounds of its moments the second.
"""

from __future__ import annotations

import math

import numpy as np

# Stirling's series for log Gamma(w) with Re w >= STIRLING_R (DLMF 5.11.1):
# the coefficients B_2k / (2k (2k - 1)) for k < K, and |B_2K| / (2K (2K - 1))
# of the remainder bound (DLMF 5.11(ii), https://dlmf.nist.gov/5.11), K = 8
STIRLING_R = 12
_STIRLING_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_K = len(_STIRLING_COEFFS) + 1
_STIRLING_REMAINDER = 3617 / 122400
# rounding of each float operation, as a generous multiple of the unit roundoff
_ROUNDING = 16 * 2.0 ** -53


def log_gamma_float(w):
    """log Gamma(w) by Stirling's series, and a bound on its absolute error.

    For a numpy array w with Re w >= STIRLING_R.  The truncation error is at
    most |B_2K| sec^2K(ph(w) / 2) / (2K (2K - 1) |w|^(2K - 1)) (DLMF 5.11(ii)),
    with sec^2(ph(w) / 2) = 2|w| / (|w| + Re w).  Rounding adds a few units of
    eps times each term: |(w - 1/2) log w| + |w| + 1 bounds them all.
    """
    log_w = np.log(w)
    inv = 1.0 / w
    inv2 = inv * inv
    series = np.zeros_like(w)
    for coeff in reversed(_STIRLING_COEFFS):
        series = series * inv2 + coeff
    head = (w - 0.5) * log_w
    value = head - w + 0.5 * math.log(2.0 * math.pi) + series * inv
    r = np.abs(w)
    truncation = (_STIRLING_REMAINDER * (2.0 * r / (r + w.real)) ** _STIRLING_K
                  / r ** (2 * _STIRLING_K - 1))
    return value, truncation + _ROUNDING * (np.abs(head) + r + 1.0)


def _gamma_ratio_parts(b_re, a_re, ts):
    """(ratio, log_f, delta) with F = ratio e^log_f and |log F - log F_float| <= delta.

    Each argument z = x + i t is raised by the recurrence to w = z + N with
    Re w >= STIRLING_R: Gamma(z) = Gamma(w) / (z)_N, and 1/Gamma(z) =
    (z)_N / Gamma(w) is entire, so no reflection is needed and a pole of a
    denominator Gamma gives an exact zero.  The log Gammas are summed in
    log_f; the Pochhammer products stay outside the log, in ratio.  delta is
    the summed log-Gamma error bounds plus the rounding of each of the N + 1
    complex products and quotients of each argument.
    """
    log_f = np.zeros(len(ts), dtype=complex)
    delta = np.zeros(len(ts))
    ratio = np.ones(len(ts), dtype=complex)
    products = 1
    for numerator, xs in ((True, b_re), (False, a_re)):
        for x in xs:
            z = float(x) + 1j * ts
            shift = max(0, math.ceil(STIRLING_R - x))
            poch = np.ones(len(ts), dtype=complex)
            for j in range(shift):
                poch *= z + j
            value, error = log_gamma_float(z + shift)
            if numerator:
                log_f += value
                ratio /= poch
            else:
                log_f -= value
                ratio *= poch
            delta += error
            products += shift + 1
    return ratio, log_f, delta + _ROUNDING * products


def gamma_ratio_float(b_re, a_re, ts):
    """prod Gamma(x + i t) over b_re / prod Gamma(x + i t) over a_re, in floats.

    Returns (F, eps) at every t of the array ts, with |F - F_exact| <= eps |F_exact|,
    eps = e^delta - 1 for the delta of _gamma_ratio_parts.
    """
    ratio, log_f, delta = _gamma_ratio_parts(b_re, a_re, ts)
    return ratio * np.exp(log_f), np.expm1(delta)


def log_abs_gamma_ratio_float(b_re, a_re, ts):
    """log |F| for the ratio of gamma_ratio_float, and a bound on its error.

    Returns (L, delta) with |log |F_exact| - L| <= delta at every t; L is
    -inf where a denominator Gamma has a pole.  Unlike F itself, L does not
    overflow for large real parts.
    """
    ratio, log_f, delta = _gamma_ratio_parts(b_re, a_re, ts)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(ratio)) + log_f.real, delta


def gamma_ratio_mp(b_re, a_re, ts, precision: int) -> list[complex]:
    """The ratio of gamma_ratio_float with mpmath, rounded to complex at each t.

    The real parts are exact Fractions; the working precision is
    max(20, precision + 8) digits.
    """
    import mpmath as mp

    with mp.workdps(max(20, precision + 8)):
        b_mp = [mp.mpf(x.numerator) / x.denominator for x in b_re]
        a_mp = [mp.mpf(x.numerator) / x.denominator for x in a_re]
        fvals = []
        for t in ts:
            f = mp.mpf(1)
            for x in b_mp:
                f *= mp.gamma(mp.mpc(x, t))
            for x in a_mp:
                f *= mp.rgamma(mp.mpc(x, t))
            fvals.append(complex(f))
    return fvals
