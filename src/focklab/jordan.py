"""Catalog of simple Jordan factors and the eleven rank-4 product cases.

A case bundles an ordered list of simple factors (family, rank r, degree d,
dimension n, multiplicity k) with the classification-table metadata (names of
k, g, g_R and the dimension of g).  Sum over factors of k_i*r_i is always 4.

Determinant polynomials are built in Jordan coordinates: the rank-2 family
has Delta = z1^2 - z2^2 - ... - zp^2 with identity e = (1, 0, ..., 0).  The
classification table writes phi_p = z1^2 + ... + zp^2, the same polynomial
after z -> diag(1, i, ..., i) z; the structure-group and translate-span
dimensions are invariant under that change, so they use Jordan coordinates
too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from focklab.polyalg import MultiPoly, VarSet, product


class UnsupportedFamilyError(ValueError):
    """Operation not available for this factor family (catalog metadata only)."""


class Family(Enum):
    RANK1 = "Rank1"
    SPIN = "Spin"
    SYM = "SymMat"
    FULL = "FullMat"
    SKEW = "SkewMat"
    EXCEPTIONAL = "ExceptionalHerm3O"


@dataclass(frozen=True)
class SimpleFactorDescriptor:
    """One simple Jordan factor with multiplicity k in Q = prod Delta_i^{k_i}."""

    family: Family
    rank: int
    degree: int
    dim: int
    mult: int
    size: int = 0  # matrix size / spin-space dimension, where applicable

    def __post_init__(self):
        r, d, n = self.rank, self.degree, self.dim
        if self.mult < 1 or r < 1 or n < 1:
            raise ValueError("rank, dimension, multiplicity must be positive")
        if r >= 2 and Fraction(n, r) != 1 + Fraction((r - 1) * d, 2):
            raise ValueError(f"n/r = 1 + (r-1)d/2 violated: r={r} d={d} n={n}")
        if self.family is Family.RANK1 and (r, n) != (1, 1):
            raise ValueError("Rank1 requires r = n = 1")

    @property
    def n_over_r(self) -> Fraction:
        return Fraction(self.dim, self.rank)

    @property
    def eta0_shift(self) -> Fraction:
        """n/(k r), read from the dimension: the factor's eta0 at q = 0."""
        return Fraction(self.dim, self.mult * self.rank)

    def eta0(self, q) -> Fraction:
        """The factor's eta0 = q/k + n/(k r) at its q."""
        return Fraction(q) / self.mult + self.eta0_shift

    def var_names(self) -> list[str]:
        if self.family is Family.RANK1:
            return ["z"]
        if self.family is Family.SPIN:
            return [f"z{a}" for a in range(1, self.size + 1)]
        if self.family is Family.SYM:
            return [f"z{i}{j}" for i in range(1, self.size + 1) for j in range(i, self.size + 1)]
        if self.family is Family.FULL:
            return [f"z{i}{j}" for i in range(1, self.size + 1) for j in range(1, self.size + 1)]
        if self.family is Family.SKEW:
            return [f"z{i}{j}" for i in range(1, self.size + 1) for j in range(i + 1, self.size + 1)]
        raise UnsupportedFamilyError(f"no coordinates for {self.family.value}")

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "rank": self.rank,
            "degree": self.degree,
            "dim": self.dim,
            "mult": self.mult,
        }


def rank1(k: int = 1) -> SimpleFactorDescriptor:
    return SimpleFactorDescriptor(Family.RANK1, 1, 0, 1, k)


def spin(p: int, k: int = 1) -> SimpleFactorDescriptor:
    if p < 2:
        raise ValueError("spin factor needs p >= 2")
    return SimpleFactorDescriptor(Family.SPIN, 2, p - 2, p, k, size=p)


def sym_mat(n: int, k: int = 1) -> SimpleFactorDescriptor:
    return SimpleFactorDescriptor(Family.SYM, n, 1, n * (n + 1) // 2, k, size=n)


def full_mat(n: int, k: int = 1) -> SimpleFactorDescriptor:
    return SimpleFactorDescriptor(Family.FULL, n, 2, n * n, k, size=n)


def skew_mat(n: int, k: int = 1) -> SimpleFactorDescriptor:
    if n % 2:
        raise ValueError("skew factor needs even size")
    return SimpleFactorDescriptor(Family.SKEW, n // 2, 4, n * (n - 1) // 2, k, size=n)


def exceptional(k: int = 1) -> SimpleFactorDescriptor:
    return SimpleFactorDescriptor(Family.EXCEPTIONAL, 3, 8, 27, k)


# -- determinant polynomials ------------------------------------------------


def _matrix_det(entries: list[list[MultiPoly]], vars: VarSet) -> MultiPoly:
    n = len(entries)
    out = MultiPoly.zero(vars)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        out = out + product(vars, (entries[i][perm[i]] for i in range(n))).scale(sign)
    return out


def _pfaffian(idx: list[int], entry, vars: VarSet) -> MultiPoly:
    """Pfaffian over row/column indices idx; entry(i,j) gives the (i,j) poly, i<j."""
    if not idx:
        return MultiPoly.constant(vars, 1)
    i0 = idx[0]
    out = MultiPoly.zero(vars)
    for t, j in enumerate(idx[1:], start=1):
        rest = [x for x in idx if x not in (i0, j)]
        term = entry(i0, j).scale(1 if t % 2 == 1 else -1)
        out = out + (term * _pfaffian(rest, entry, vars) if rest else term)
    return out


def factor_var_set(factor: SimpleFactorDescriptor) -> VarSet:
    return VarSet.flat(factor.var_names())


def _sym_matrix(n: int, v, off=1) -> list[list[MultiPoly]]:
    """The symmetric n x n matrix of the coordinates z_ij, i <= j, v(t) the
    t-th of them in var_names order, with its off-diagonal entries scaled by off."""
    pos = {ij: t for t, ij in enumerate(itertools.combinations_with_replacement(range(n), 2))}
    return [[v(pos[min(i, j), max(i, j)]).scale(1 if i == j else off) for j in range(n)]
            for i in range(n)]


def determinant_poly(
    factor: SimpleFactorDescriptor,
    vars: VarSet | None = None,
    offset: int = 0,
) -> MultiPoly:
    """Delta_i in Jordan coordinates, homogeneous of degree r.

    `vars`/`offset` embed the factor's coordinates into a larger variable list
    (offset = index of the factor's first variable).
    """
    if factor.family is Family.EXCEPTIONAL:
        raise UnsupportedFamilyError(
            "ExceptionalHerm3O determinant is catalog metadata only"
        )
    if vars is None:
        vars = factor_var_set(factor)
        offset = 0
    v = lambda i: MultiPoly.variable(vars, offset + i)

    if factor.family is Family.RANK1:
        return v(0)
    if factor.family is Family.SPIN:
        p = factor.size
        out = v(0) * v(0)
        for a in range(1, p):
            out = out - v(a) * v(a)
        return out
    if factor.family is Family.SYM:
        return _matrix_det(_sym_matrix(factor.size, v), vars)
    if factor.family is Family.FULL:
        n = factor.size
        entries = [
            [v((i - 1) * n + (j - 1)) for j in range(1, n + 1)] for i in range(1, n + 1)
        ]
        return _matrix_det(entries, vars)
    if factor.family is Family.SKEW:
        pos = {ij: t for t, ij in enumerate(itertools.combinations(range(factor.size), 2))}
        return _pfaffian(list(range(factor.size)), lambda i, j: v(pos[i, j]), vars)
    raise UnsupportedFamilyError(str(factor.family))


def dual_determinant_symbol(factor: SimpleFactorDescriptor) -> MultiPoly:
    """The operator symbol realizing Delta(d/dz) in the stored coordinates.

    For the symmetric-matrix family the derivative matrix carries the
    standard (1 + delta_ij)/2 weights on entries (the off-diagonal variable
    z_ij stands for two matrix slots), without which the Bernstein constant
    would drift with the exponent.  Other families use Delta itself; the
    rank-2 family then shows a harmless alpha-independent constant 4^k.
    """
    if factor.family is not Family.SYM:
        return determinant_poly(factor)
    vars = factor_var_set(factor)
    v = lambda t: MultiPoly.variable(vars, t)
    return _matrix_det(_sym_matrix(factor.size, v, Fraction(1, 2)), vars)


# -- case catalog -------------------------------------------------------------


def _lie_dim(name: str) -> int:
    name = name.strip()
    table = {"g2": 14, "f4": 52, "e6": 78, "e7": 133, "e8": 248}
    if name in table:
        return table[name]
    kind = name[: name.index("(")]
    arg = int(name[name.index("(") + 1 : name.index(",") if "," in name else name.index(")")])
    if kind == "sl":
        return arg * arg - 1
    if kind == "so":
        return arg * (arg - 1) // 2
    if kind == "sp":
        m = arg // 2
        return m * (2 * m + 1)
    raise ValueError(f"unknown Lie algebra name {name!r}")


@dataclass(frozen=True)
class CaseDescriptor:
    """One catalog case (1)..(11) with classification-table metadata."""

    case_id: int
    factors: tuple[SimpleFactorDescriptor, ...]
    expected_k_name: str
    expected_g_name: str
    expected_gR_name: str
    expected_k_dim: int
    params: dict = field(default_factory=dict, compare=False)
    variant: str = ""

    def __post_init__(self):
        deg = sum(f.mult * f.rank for f in self.factors)
        if deg != 4:
            raise ValueError(f"degree of Q must be 4, got {deg}")

    @property
    def s(self) -> int:
        return len(self.factors)

    @property
    def dim_v(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def expected_g_dim(self) -> int:
        return _lie_dim(self.expected_g_name)

    @property
    def label(self) -> str:
        return f"{self.case_id}{self.variant}" if self.variant else str(self.case_id)

    @property
    def bernstein_lead(self) -> int:
        """A = prod k_i^{k_i r_i}, the leading coefficient of B."""
        out = 1
        for f in self.factors:
            out *= f.mult ** (f.mult * f.rank)
        return out

    def var_set(self) -> VarSet:
        names: list[str] = []
        for i, f in enumerate(self.factors, start=1):
            prefix = f"z{i}" if self.s > 1 else "z"
            if f.dim == 1:
                names.append(prefix)
            else:
                names.extend(f"{prefix}_{v[1:]}" for v in f.var_names())
        return VarSet.flat(names)

    def factor_offsets(self) -> list[int]:
        offs = []
        t = 0
        for f in self.factors:
            offs.append(t)
            t += f.dim
        return offs

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "variant": self.variant,
            "params": dict(self.params),
            "factors": [f.to_dict() for f in self.factors],
            "expected_k": self.expected_k_name,
            "expected_g": self.expected_g_name,
            "expected_gR": self.expected_gR_name,
            "expected_k_dim": self.expected_k_dim,
            "expected_g_dim": self.expected_g_dim,
        }


def q_polynomial(case: CaseDescriptor) -> MultiPoly:
    """Q = prod Delta_i^{k_i}, homogeneous of degree 4, on the joint variables."""
    vars = case.var_set()
    return product(vars, (determinant_poly(f, vars=vars, offset=off) ** f.mult
                          for f, off in zip(case.factors, case.factor_offsets())))


# the family parameters each parametrized case reads; the other cases read none
_FAMILY_PARAMS = {2: ("p",), 6: ("p",), 7: ("p",), 8: ("p1", "p2"), 9: ("variant",),
                  10: ("variant",)}


def build_case(
    case_id: int,
    p: int | None = None,
    p1: int | None = None,
    p2: int | None = None,
    variant: str = "",
) -> CaseDescriptor:
    """Instantiate a catalog case; parametrized families take p / (p1, p2).

    A parameter the case does not read is a ValueError, not ignored.
    """
    given = {"p": p, "p1": p1, "p2": p2, "variant": variant or None}
    stray = [k for k, v in given.items()
             if v is not None and k not in _FAMILY_PARAMS.get(case_id, ())]
    if stray and 1 <= case_id <= 11:
        raise ValueError(f"case ({case_id}) does not take {' or '.join(stray)}")
    if case_id == 1:
        return CaseDescriptor(1, (rank1(4),), "sl(2,C)", "sl(3,C)", "sl(3,R)", 3)
    if case_id == 2:
        p = 3 if p is None else p
        return CaseDescriptor(
            2, (spin(p, 2),), f"so({p + 2},C)", f"sl({p + 2},C)", f"sl({p + 2},R)",
            (p + 2) * (p + 1) // 2, params={"p": p},
        )
    if case_id == 3:
        # the g column is so(6,C): dim k + dim W = 6 + 9 = 15, matching the
        # printed real form so(3,3) (compact part so(3)+so(3) = the k column)
        return CaseDescriptor(
            3, (rank1(2), rank1(2)), "so(3,C)+so(3,C)", "so(6,C)", "so(3,3)", 6
        )
    if case_id == 4:
        return CaseDescriptor(
            4, (rank1(2), rank1(1), rank1(1)), "sl(2,C)^3", "so(7,C)", "so(3,4)", 9
        )
    if case_id == 5:
        return CaseDescriptor(
            5, (rank1(1),) * 4, "sl(2,C)^4", "so(8,C)", "so(4,2)", 12
        )
    if case_id == 6:
        p = 3 if p is None else p
        return CaseDescriptor(
            6, (spin(p, 1), rank1(2)),
            f"so({p + 2},C)+so(3,C)", f"so({p + 5},C)", f"so({p + 2},3)",
            (p + 2) * (p + 1) // 2 + 3, params={"p": p},
        )
    if case_id == 7:
        p = 2 if p is None else p
        return CaseDescriptor(
            7, (spin(p, 1), rank1(1), rank1(1)),
            f"so({p + 2},C)+sl(2,C)^2", f"so({p + 6},C)", f"so({p + 2},4)",
            (p + 2) * (p + 1) // 2 + 6, params={"p": p},
        )
    if case_id == 8:
        p1 = 2 if p1 is None else p1
        p2 = 2 if p2 is None else p2
        if (p1 - p2) % 2 or p1 < p2:
            raise ValueError("case (8) needs p1 >= p2 with p1 - p2 even")
        return CaseDescriptor(
            8, (spin(p1, 1), spin(p2, 1)),
            f"so({p1 + 2},C)+so({p2 + 2},C)", f"so({p1 + p2 + 4},C)",
            f"so({p1 + 2},{p2 + 2})",
            (p1 + 2) * (p1 + 1) // 2 + (p2 + 2) * (p2 + 1) // 2,
            params={"p1": p1, "p2": p2},
        )
    if case_id == 9:
        variant = variant or "a"
        data = {
            "a": (sym_mat(4), "sp(8,C)", "e6", "e6(6)", 36),
            "b": (full_mat(4), "sl(8,C)", "e7", "e7(7)", 63),
            "c": (skew_mat(8), "so(16,C)", "e8", "e8(8)", 120),
        }.get(variant)
        if data is None:
            raise ValueError(f"case (9) has variants a, b, c, not {variant!r}")
        return CaseDescriptor(9, (data[0],), data[1], data[2], data[3], data[4], variant=variant)
    if case_id == 10:
        variant = variant or "a"
        data = {
            "a": (sym_mat(3), "sp(6,C)+sl(2,C)", "f4", "f4(4)", 24),
            "b": (full_mat(3), "sl(6,C)+sl(2,C)", "e6", "e6(2)", 38),
            "c": (skew_mat(6), "so(12,C)+sl(2,C)", "e7", "e7(-5)", 69),
            "d": (exceptional(), "e7+sl(2,C)", "e8", "e8(-24)", 136),
        }.get(variant)
        if data is None:
            raise ValueError(f"case (10) has variants a, b, c, d, not {variant!r}")
        return CaseDescriptor(
            10, (data[0], rank1(1)), data[1], data[2], data[3], data[4], variant=variant
        )
    if case_id == 11:
        return CaseDescriptor(
            11, (rank1(3), rank1(1)), "sl(2,C)+sl(2,C)", "g2", "g2(2)", 6
        )
    raise ValueError(f"unknown case id {case_id}")


def default_catalog() -> list[CaseDescriptor]:
    """All eleven cases with default parameters (all variants of 9 and 10)."""
    out = [build_case(1)]
    out.append(build_case(2))
    out += [build_case(3), build_case(4), build_case(5), build_case(6), build_case(7)]
    out.append(build_case(8))
    out += [build_case(9, variant=v) for v in "abc"]
    out += [build_case(10, variant=v) for v in "abcd"]
    out.append(build_case(11))
    return out
