"""The Mellin symbol of the weight: F(s) = prod Gamma(b_j + s) / prod Gamma(a_k + s).

MellinSymbol(b, a) owns F for exact rational parameters.  On a vertical line
Re s = c it gives F in vectorized floats with a relative error bound (line),
log |F| with an absolute bound, which does not overflow (log_abs_line), and
the mpmath reference (line_mp); at a real point F (at) and its Taylor series
(taylor) in mpmath; at a rational s the exact sign of F (sign), and from it
a proved sign change of the weight (sign_change).  focklab.kernel reads F
only through it.  numpy and mpmath load on first use.

Every numeric path evaluates one Gamma per residue class of the parameters
mod 1: with Gamma(x + n + s) = (x + s)_n Gamma(x + s) (DLMF 5.5.1), F is a
quotient R(s) of linear factors times prod_c Gamma(s + x_c)^(e_c), where
e_c counts the b_j of class c less its a_k (_reduced).  On the weights of
the catalog that is 52 Gammas per point over the 36 feasible pairs, where
the plain product takes 144.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    import numpy as np

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


def mpq(x: Fraction):
    """The rational x as an mpmath number at the working precision."""
    import mpmath as mp

    return mp.mpf(x.numerator) / x.denominator


@dataclass(frozen=True)
class MellinSymbol:
    """F(s) = prod Gamma(b_j + s) / prod Gamma(a_k + s) for rational b and a.

    This is the Mellin transform of G^{q,0}_{p,q}(u | a; b) on the strip
    Re s > -min b (DLMF 16.17.1, https://dlmf.nist.gov/16.17).  Both tuples are
    stored as sorted Fractions, so equal symbols hash alike and key caches.
    """

    b: tuple[Fraction, ...]
    a: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(sorted(map(Fraction, self.b))))
        object.__setattr__(self, "a", tuple(sorted(map(Fraction, self.a))))

    def shifted(self, sigma) -> MellinSymbol:
        """The symbol of F(s + sigma): every parameter plus sigma."""
        return MellinSymbol(tuple(x + sigma for x in self.b), tuple(x + sigma for x in self.a))

    @cached_property
    def _reduced(self):
        """(classes, numer, denom) with F(s) = R(s) prod_c Gamma(s + x_c)^(e_c),
        R(s) = prod_numer (s + y) / prod_denom (s + y), for (x_c, e_c) in classes.

        The parameters fall into classes by their value mod 1, and x_c is the
        least b_j of a class (its a_k if it holds no b_j), so Gamma(s + x_c)
        has no pole in the strip Re s > -min b where F is read.  Each
        Gamma(y + s) of the class is (x_c + s)_{y - x_c} Gamma(x_c + s), and
        1/Gamma(y + s) for y < x_c is (y + s)_{x_c - y} / Gamma(x_c + s).
        e_c counts the b_j less the a_k; a class with e_c = 0 needs no Gamma.
        Factors common to numer and denom cancel.
        """
        groups: dict[Fraction, tuple[list, list]] = {}
        for i, xs in enumerate((self.b, self.a)):
            for x in xs:
                groups.setdefault(x % 1, ([], []))[i].append(x)
        classes, numer, denom = [], [], []
        for bs, as_ in groups.values():
            x = min(bs or as_)
            numer += [x + k for y in bs for k in range(int(y - x))]
            denom += [x + k for y in as_ if y > x for k in range(int(y - x))]
            numer += [y + k for y in as_ if y < x for k in range(int(x - y))]
            if len(bs) != len(as_):
                classes.append((x, len(bs) - len(as_)))
        for y in list(numer):
            if y in denom:
                numer.remove(y)
                denom.remove(y)
        return tuple(classes), tuple(numer), tuple(denom)

    def _parts(self, c, ts):
        """(ratio, log_f, delta) with F(c + i t) = ratio e^log_f and
        |log F - log F_float| <= delta, from the reduced form (_reduced).

        Each class's z = x_c + c + i t is raised by the recurrence to
        w = z + N with Re w >= STIRLING_R: Gamma(z) = Gamma(w) / (z)_N, and
        1/Gamma(z) = (z)_N / Gamma(w) is entire, so no reflection is needed.
        e_c log Gamma(w) is summed in log_f; the Pochhammer products, e_c
        times each, and R's linear factors stay outside the log, in ratio.
        delta charges each class's log-Gamma error bound |e_c| times, plus
        the rounding of every complex product and quotient: N + |e_c| + 1 per
        class, one per factor of R, and one more.
        """
        import numpy as np

        classes, numer, denom = self._reduced
        log_f = np.zeros(len(ts), dtype=complex)
        delta = np.zeros(len(ts))
        ratio = np.ones(len(ts), dtype=complex)
        products = 1 + len(numer) + len(denom)
        for x, e in classes:
            z = float(x + c) + 1j * ts
            shift = max(0, math.ceil(STIRLING_R - (x + c)))
            poch = np.ones(len(ts), dtype=complex)
            for j in range(shift):
                poch *= z + j
            value, error = log_gamma_float(z + shift)
            log_f += e * value
            for _ in range(abs(e)):
                ratio = ratio / poch if e > 0 else ratio * poch
            delta += abs(e) * error
            products += shift + abs(e) + 1
        for ys, sign in ((numer, 1), (denom, -1)):
            for y in ys:
                factor = float(y + c) + 1j * ts
                ratio = ratio * factor if sign > 0 else ratio / factor
        return ratio, log_f, delta + _ROUNDING * products

    def line(self, c, ts):
        """(F, eps) at s = c + i t for every t of the array ts, in floats, with
        |F - F_exact| <= eps |F_exact|, eps = e^delta - 1 for the delta of _parts."""
        import numpy as np

        ratio, log_f, delta = self._parts(c, ts)
        return ratio * np.exp(log_f), np.expm1(delta)

    def log_abs_line(self, c, ts):
        """(L, delta) with |log |F(c + i t)| - L| <= delta at every t of ts; L is
        -inf where F vanishes.  Unlike F, L does not overflow."""
        import numpy as np

        ratio, log_f, delta = self._parts(c, ts)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(ratio)) + log_f.real, delta

    def _mp_values(self, c: Fraction, its) -> list:
        """F(c + it) in mpmath at the working precision for each mpmath number it
        of its (i t, or 0 for the real point c), one Gamma per class (_reduced)."""
        import mpmath as mp

        classes, numer, denom = self._reduced
        gammas = [(mpq(x + c), mp.gamma if e > 0 else mp.rgamma, abs(e)) for x, e in classes]
        numer, denom = [mpq(y + c) for y in numer], [mpq(y + c) for y in denom]
        out = []
        for it in its:
            f = mp.fprod([y + it for y in numer]) / mp.fprod([y + it for y in denom])
            for x, gamma, power in gammas:
                f *= gamma(x + it) ** power
            out.append(f)
        return out

    def line_mp(self, c: Fraction, ts, precision: int) -> list[complex]:
        """F(c + i t) with mpmath, rounded to complex at each t, for an exact c;
        the working precision is max(20, precision + 8) digits."""
        import mpmath as mp

        with mp.workdps(max(20, precision + 8)):
            return [complex(f) for f in self._mp_values(c, [mp.mpc(0, t) for t in ts])]

    def at(self, s: Fraction, precision: int) -> float:
        """F(s) at a real rational s with mpmath, in real arithmetic (see line_mp)."""
        import mpmath as mp

        with mp.workdps(max(20, precision + 8)):
            return float(self._mp_values(s, [mp.mpf(0)])[0])

    def taylor(self, s: Fraction, length: int) -> list:
        """[f_0, .., f_{length-1}], F(s + eps) = sum f_k eps^k + O(eps^length), in
        mpmath, where every Gamma argument and factor of R is positive (_reduced):
        F(s + eps) = F(s) exp(sum_n eps^n / n! (sum_c e_c psi^(n-1)(x_c + s))
        + sum_n eps^n (-1)^(n-1) / n (sum_numer (y + s)^-n - sum_denom (y + s)^-n))."""
        import mpmath as mp

        classes, numer, denom = self._reduced
        log_f, exp_f = [mp.mpf(0)] * length, [mp.mpf(1)]
        for x, e in classes:
            exp_f[0] *= mp.gamma(mpq(x + s)) ** e
            for n in range(1, length):
                log_f[n] += e * mp.psi(n - 1, mpq(x + s)) / mp.factorial(n)
        for ys, sign in ((numer, 1), (denom, -1)):
            for y in ys:
                v = mpq(y + s)
                exp_f[0] *= v ** sign
                for n in range(1, length):
                    log_f[n] -= sign * (-v) ** -n / n
        for n in range(1, length):
            exp_f.append(sum(k * log_f[k] * exp_f[n - k] for k in range(1, n + 1)) / n)
        return exp_f

    def sign(self, s) -> int:
        """The exact sign of F at a rational s: 1, -1, or 0 at a zero; ValueError at a pole.

        Gamma(x) > 0 for x > 0, and for a non-integer x < 0 its sign is
        (-1)^ceil(-x).  At x = -n, n = 0, 1, ..., Gamma(x + eps) ~ (-1)^n /
        (n! eps): each such argument adds (-1)^n to the sign and one to the
        order of the pole of F at s, or takes one off it in the denominator.
        """
        sign, order = 1, 0
        for xs, power in ((self.b, 1), (self.a, -1)):
            for x in xs:
                if x + s <= 0:
                    sign *= (-1) ** math.ceil(-(x + s))
                    order += power * ((x + s).denominator == 1)
        if order > 0:
            raise ValueError(f"F has a pole at s = {s}")
        return sign if order == 0 else 0

    def sign_change(self) -> tuple[Fraction, Fraction] | None:
        """(s-, s+) with F(s-) < 0 < F(s+) in the strip Re s > -min b, or None.

        For one a below min b: s- is the midpoint of (max(-1 - a, -min b), -a),
        where a + s- lies in (-1, 0) and every b_j + s- > 0, and s+ = 1 - a.
        If the G with Mellin transform F were >= 0, F(s) = int G(u) u^(s-1) du
        would be > 0 on the whole strip: so F(s-) < 0 < F(s+), both signs exact
        (sign), prove that G takes both signs, and a continuous G changes sign.
        """
        if len(self.a) != 1:
            return None
        (a,), low = self.a, -min(self.b)
        s_minus, s_plus = (max(-1 - a, low) - a) / 2, 1 - a
        if s_minus <= low or self.sign(s_minus) >= 0 or self.sign(s_plus) <= 0:
            return None
        return s_minus, s_plus
