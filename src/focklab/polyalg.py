"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent tuples to exact rational coefficients,
carried together with its variable list.  Every coefficient is normalised
when it is stored: an int when it is integral, a Fraction otherwise, so
integral polynomials (Q, every determinant and Pfaffian and their powers) run
on Python's int arithmetic.  Zero coefficients are never stored, which makes
equality of canonical forms plain dict equality.  A quotient of coefficients
read from `terms` must be taken as Fraction(a) / b: int / int is a float.

Exponents are validated where terms come from outside: `MultiPoly(vars,
terms)` rejects a tuple of the wrong length or with a negative entry.  The
results of this module's own arithmetic (+, -, *, scale, diff, substitute,
apply_diff_op) are built by a private constructor that normalises and drops
zero coefficients but trusts the exponents, which that arithmetic keeps
valid.

A product adds every pair of exponent tuples.  On a large product (Pf^2 on
Skew(8) is 11,025 pairs of 28-tuples) it packs each tuple into one int, a
byte per variable, so adding two exponents is one int addition instead of a
tuple built entry by entry; small products, where packing costs more than it
saves, stay on tuples.  Both paths give the same terms in the same order.

Polynomials double as constant-coefficient differential operators: a symbol
polynomial q applied to a target p realizes q(d/dz)p, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]


def exact_coeff(x: Scalar) -> Scalar:
    """x as a stored coefficient: an int when integral, a Fraction otherwise."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class VarSet:
    """Ordered list of distinct variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")

    def __len__(self) -> int:
        return len(self.names)

    @staticmethod
    def flat(names: Sequence[str]) -> "VarSet":
        """The VarSet of `names`, given as any sequence."""
        return VarSet(tuple(names))


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: Mapping[Exponent, Scalar]):
        clean: dict[Exponent, Scalar] = {}
        n = len(vars)
        for e, c in terms.items():
            c = exact_coeff(c)
            if c == 0:
                continue
            if len(e) != n or (e and min(e) < 0):
                raise ValueError(f"bad exponent {e} for {n} variables")
            clean[tuple(e)] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, vars: VarSet, terms: Mapping[Exponent, Scalar]) -> "MultiPoly":
        """A result of this module's own arithmetic: exponents already valid.

        Coefficients are normalised and zeros dropped, as in __init__, in the
        order of `terms`; the exponents are trusted, not re-checked.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", {
            e: c if type(c) is int else exact_coeff(c) for e, c in terms.items() if c})
        return self

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: VarSet) -> "MultiPoly":
        return MultiPoly(vars, {})

    @staticmethod
    def constant(vars: VarSet, c: Scalar) -> "MultiPoly":
        return MultiPoly(vars, {(0,) * len(vars): exact_coeff(c)})

    @staticmethod
    def variable(vars: VarSet, idx: int) -> "MultiPoly":
        e = [0] * len(vars)
        e[idx] = 1
        return MultiPoly(vars, {tuple(e): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{self.vars.names[i]}^{k}" if k > 1 else self.vars.names[i]
                for i, k in enumerate(e)
                if k
            )
            parts.append(f"{c}" if not mono else (f"{c}*{mono}" if c != 1 else mono))
        return " + ".join(parts)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise ValueError("operands defined over different variable lists")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly._of(self.vars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return MultiPoly._of(self.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.vars, {e: -c for e, c in self.terms.items()})

    def scale(self, c: Scalar) -> "MultiPoly":
        c = exact_coeff(c)
        if c == 0:
            return MultiPoly.zero(self.vars)
        return MultiPoly._of(self.vars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly._of(self.vars, _mul_terms(self.terms, other.terms))

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = None  # the constant 1, never multiplied in
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.constant(self.vars, 1) if result is None else result

    # -- calculus ----------------------------------------------------------

    def diff(self, idx: int) -> "MultiPoly":
        out: dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            if e[idx]:
                e2 = list(e)
                e2[idx] -= 1
                out[tuple(e2)] = c * e[idx]
        return MultiPoly._of(self.vars, out)

    def eval(self, point: Sequence[Scalar]) -> Scalar:
        """Exact value at a rational point."""
        if len(point) != len(self.vars):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.vars)}"
            )
        pt = [exact_coeff(x) for x in point]
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x**k
            total += v
        return total

    def shift(self, offsets: Sequence[Scalar]) -> "MultiPoly":
        """p(z + a): substitute z_v -> z_v + a_v."""
        images = [MultiPoly.variable(self.vars, v) + MultiPoly.constant(self.vars, a)
                  for v, a in enumerate(offsets)]
        return self.substitute(images)

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """p(y): substitute z_v -> images[v], polynomials over one variable list.

        `shift` and `fock`'s rule composition are this with affine images.
        """
        if len(images) != len(self.vars):
            raise ValueError(f"{len(images)} images for {len(self.vars)} variables")
        target = images[0].vars
        if any(im.vars != target for im in images):
            raise ValueError("images defined over different variable lists")
        one = (0,) * len(target)
        powers = [[{one: 1}] for _ in images]
        acc: dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            term = {one: c}
            for v, k in enumerate(e):
                if k:
                    pw = powers[v]
                    while len(pw) <= k:
                        pw.append(_mul_terms(pw[-1], images[v].terms))
                    term = _mul_terms(term, pw[k])
            for e2, w in term.items():
                acc[e2] = acc.get(e2, 0) + w
        return MultiPoly._of(target, acc)


# Products with at least this many term pairs add exponents as packed ints.
# Packing and unpacking every term costs more than it saves below about 64
# pairs on 4 to 28 variables, and packing wins at 256 pairs on each.
_PACKED_MIN_PAIRS = 256


def _mul_terms(a: Mapping[Exponent, Scalar],
               b: Mapping[Exponent, Scalar]) -> dict[Exponent, Scalar]:
    """The product of two term maps, before zero terms are dropped.

    Keys come out in first-reached order over the pairs (a outer, b inner).
    A large product whose exponent sums all fit a byte packs each exponent
    tuple into one int, a byte per variable (Kronecker substitution), so a
    pair's exponents add as one int addition with no carry between fields;
    each distinct result is unpacked once.  The two paths give the same dict.
    """
    out: dict = {}
    if (len(a) * len(b) >= _PACKED_MIN_PAIRS
            and max(map(max, a)) + max(map(max, b)) < 256):
        pb = [(int.from_bytes(bytes(e), "little"), c) for e, c in b.items()]
        for e1, c1 in a.items():
            k1 = int.from_bytes(bytes(e1), "little")
            for k2, c2 in pb:
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        n = len(next(iter(a)))
        return {tuple(k.to_bytes(n, "little")): c for k, c in out.items()}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def product(vars: VarSet, factors: Iterable[MultiPoly]) -> MultiPoly:
    """The product of the factors, over vars: it starts from the first factor,
    so the constant 1 is never multiplied in, and is 1 when there are none."""
    out = None
    for f in factors:
        out = f if out is None else out * f
    return MultiPoly.constant(vars, 1) if out is None else out


def rising(x: MultiPoly, k: int) -> MultiPoly:
    """Rising factorial (x)_k = x (x + 1) ... (x + k - 1) of a polynomial x."""
    return product(x.vars, (x + MultiPoly.constant(x.vars, t) for t in range(k)))


def apply_diff_op(symbol: MultiPoly, target: MultiPoly) -> MultiPoly:
    """Apply symbol(d/dz) to target, exactly.

    Each symbol monomial c * prod z_v^{e_v} acts as c * prod (d/dz_v)^{e_v};
    the result is linear in both arguments.  A target term survives that
    monomial only if it holds every variable of the monomial's support, so
    the target's terms are indexed once, by position, under the variables
    they hold, and each monomial visits just the intersection of the index
    sets of its support, smallest set first, in target order.  Positions
    hash as small ints, where a 28-variable exponent tuple would be hashed
    entry by entry at every set operation.  A constant monomial maps every
    target term.
    """
    if symbol.vars != target.vars:
        raise ValueError("symbol and target must share a variable list")
    if target.is_zero():
        return MultiPoly.zero(target.vars)
    tterms = list(target.terms.items())
    holding = [{j for j, n in enumerate(col) if n} for col in zip(*target.terms)]
    out: dict[Exponent, Scalar] = {}
    for se, sc in symbol.terms.items():
        support = [(i, k) for i, k in enumerate(se) if k]
        if support:
            sets = sorted((holding[i] for i, _ in support), key=len)
            candidates = sorted(sets[0].intersection(*sets[1:]))
        else:
            candidates = range(len(tterms))
        for j in candidates:
            te, tc = tterms[j]
            coeff = sc * tc
            res = list(te)
            for i, k in support:
                n = te[i]
                if n < k:
                    break
                # falling factorial n (n-1) ... (n-k+1), nonzero since n >= k
                for t in range(k):
                    coeff *= n - t
                res[i] = n - k
            else:
                key = tuple(res)
                out[key] = out.get(key, 0) + coeff
    return MultiPoly._of(symbol.vars, out)
