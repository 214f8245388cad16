"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent tuples to Fraction coefficients, carried
together with its variable list.  Variables belong to groups (one group per
simple Jordan factor) so that factor-wise operations can filter by group.
Zero coefficients are never stored, which makes equality of canonical forms
plain dict equality.

Polynomials double as constant-coefficient differential operators: a symbol
polynomial q applied to a target p realizes q(d/dz)p, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class VarSet:
    """Ordered variable list with a factor-group index per variable."""

    names: tuple[str, ...]
    groups: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.groups):
            raise ValueError("names and groups must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def group_indices(self, group: int) -> list[int]:
        return [i for i, g in enumerate(self.groups) if g == group]

    @staticmethod
    def flat(names: Sequence[str], group: int = 0) -> "VarSet":
        return VarSet(tuple(names), (group,) * len(names))


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: Mapping[Exponent, Scalar]):
        clean: dict[Exponent, Fraction] = {}
        n = len(vars)
        for e, c in terms.items():
            c = _frac(c)
            if c == 0:
                continue
            if len(e) != n or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e} for {n} variables")
            clean[tuple(e)] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: VarSet) -> "MultiPoly":
        return MultiPoly(vars, {})

    @staticmethod
    def constant(vars: VarSet, c: Scalar) -> "MultiPoly":
        return MultiPoly(vars, {(0,) * len(vars): _frac(c)})

    @staticmethod
    def variable(vars: VarSet, idx: int) -> "MultiPoly":
        e = [0] * len(vars)
        e[idx] = 1
        return MultiPoly(vars, {tuple(e): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, idx: int) -> int:
        return max((e[idx] for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

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
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.vars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return MultiPoly(self.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def scale(self, c: Scalar) -> "MultiPoly":
        c = _frac(c)
        if c == 0:
            return MultiPoly.zero(self.vars)
        return MultiPoly(self.vars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, out)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def diff(self, idx: int, order: int = 1) -> "MultiPoly":
        p = self
        for _ in range(order):
            out: dict[Exponent, Fraction] = {}
            for e, c in p.terms.items():
                if e[idx] == 0:
                    continue
                e2 = list(e)
                e2[idx] -= 1
                out[tuple(e2)] = c * e[idx]
            p = MultiPoly(self.vars, out)
        return p

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != len(self.vars):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.vars)}"
            )
        pt = [_frac(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x**k
            total += v
        return total

    def shift(self, offsets: Sequence[Scalar]) -> "MultiPoly":
        """p(z + a): substitute z_v -> z_v + a_v via binomial expansion."""
        from math import comb

        offs = [_frac(a) for a in offsets]
        acc: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            expansions: list[list[tuple[int, Fraction]]] = []
            for k, a in zip(e, offs):
                if a == 0 or k == 0:
                    expansions.append([(k, Fraction(1))])
                else:
                    expansions.append(
                        [(j, Fraction(comb(k, j)) * a ** (k - j)) for j in range(k + 1)]
                    )
            stack = [((), Fraction(1))]
            for choices in expansions:
                stack = [
                    (e_acc + (j,), c_acc * w)
                    for (e_acc, c_acc) in stack
                    for (j, w) in choices
                ]
            for e2, w in stack:
                acc[e2] = acc.get(e2, Fraction(0)) + c * w
        return MultiPoly(self.vars, acc)

def apply_diff_op(symbol: MultiPoly, target: MultiPoly) -> MultiPoly:
    """Apply symbol(d/dz) to target, exactly.

    Each symbol monomial c * prod z_v^{e_v} acts as c * prod (d/dz_v)^{e_v};
    the result is linear in both arguments.
    """
    if symbol.vars != target.vars:
        raise ValueError("symbol and target must share a variable list")
    out: dict[Exponent, Fraction] = {}
    for se, sc in symbol.terms.items():
        for te, tc in target.terms.items():
            coeff = sc * tc
            good = True
            res = list(te)
            for i, k in enumerate(se):
                if k == 0:
                    continue
                if te[i] < k:
                    good = False
                    break
                # falling factorial te[i]*(te[i]-1)*...*(te[i]-k+1)
                for t in range(k):
                    coeff *= te[i] - t
                res[i] = te[i] - k
            if not good or coeff == 0:
                continue
            key = tuple(res)
            out[key] = out.get(key, Fraction(0)) + coeff
    return MultiPoly(symbol.vars, out)


def apply_symbol_at_point(
    symbol: MultiPoly,
    base: MultiPoly,
    power: int,
    point: Sequence[Scalar],
) -> Fraction:
    """Value of (symbol(d/dz) base^power) at a point, without expanding base^power.

    Uses the generalized Leibniz rule: the derivative slots of each symbol
    monomial are distributed over the `power` copies of base, and each
    mixed partial of base is differentiated symbolically once and cached.
    Intended for degree<=4 symbols (all catalog Q's), where the distribution
    count power^4 stays small.
    """
    if symbol.vars != base.vars:
        raise ValueError("symbol and base must share a variable list")
    if power < 0:
        raise ValueError("negative power")
    pt = [_frac(x) for x in point]

    deriv_cache: dict[Exponent, Fraction] = {}
    zero_exp = (0,) * len(base.vars)

    def partial_value(e: Exponent) -> Fraction:
        if e in deriv_cache:
            return deriv_cache[e]
        p = base
        for i, k in enumerate(e):
            if k:
                p = p.diff(i, k)
        v = p.eval(pt)
        deriv_cache[e] = v
        return v

    total = Fraction(0)
    for se, sc in symbol.terms.items():
        slots: list[int] = []
        for i, k in enumerate(se):
            slots.extend([i] * k)
        if len(slots) == 0:
            total += sc * partial_value(zero_exp) ** power
            continue
        if power == 0:
            continue  # any derivative of the constant 1 vanishes
        # enumerate assignments slot -> copy index
        acc = Fraction(0)
        assignment = [0] * len(slots)
        nslots = len(slots)
        while True:
            per_copy: dict[int, list[int]] = {}
            for s, c in zip(slots, assignment):
                per_copy.setdefault(c, []).append(s)
            v = Fraction(1)
            used = 0
            for c, svars in per_copy.items():
                e = [0] * len(base.vars)
                for s in svars:
                    e[s] += 1
                v *= partial_value(tuple(e))
                if v == 0:
                    break
                used += 1
            if v != 0:
                v *= partial_value(zero_exp) ** (power - len(per_copy))
                acc += v
            # next assignment in base `power`
            j = nslots - 1
            while j >= 0:
                assignment[j] += 1
                if assignment[j] < power:
                    break
                assignment[j] = 0
                j -= 1
            if j < 0:
                break
        total += sc * acc
    return total
