"""Monomial bases for the polynomial families on cube faces.

Three families, each realized as an explicit ordered monomial basis:

* P, total degree at most s (on a face, in its free variables only),
* Q, degree at most r separately in each variable,
* S, the serendipity family: monomials whose superlinear degree is at
  most r, i.e. the total degree may exceed r only through variables
  that enter linearly.

The S basis is produced constructively rather than by filtering: choose
d variables that appear with exponent >= 2, a monomial of total degree
at most r - 2d in those variables (shifted up by the forced square),
and an arbitrary 0/1 exponent pattern on the rest.  Each admissible
monomial arises exactly once.  Its cardinality matches the closed-form
dimension count, and membership in the two equivalent definitions is
checked for every generated monomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .cubegeom import Face, full_cube
from .exactpoly import Exponents, Monomial, grlex_key, superlinear_degree

__all__ = [
    "SpaceBasis",
    "basis_P",
    "basis_Q",
    "basis_S",
    "dim_P",
    "dim_Q",
    "dim_S_formula",
    "serendipity_exponents",
    "has_superlinear_degree_at_most",
    "is_linear_outside_degree_budget",
    "monomials_total_degree_at_most",
    "monomials_max_degree_at_most",
    "check_inclusions",
    "InclusionReport",
]


@dataclass(frozen=True)
class SpaceBasis:
    """An ordered monomial basis for one family on one face."""

    family: str
    n: int
    degree: int
    face: Face
    monomials: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if self.family not in ("P", "Q", "S"):
            raise ValueError(f"unknown family {self.family!r}")
        keys = [grlex_key(m.exponents) for m in self.monomials]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("basis monomials must be distinct and sorted")

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def index_of(self, exponents: Exponents) -> int:
        """Position of a monomial in the basis order, or raise KeyError."""
        return _index_map(self)[tuple(exponents)]

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "r": self.degree,
            "face": self.face.to_json_obj(),
            "dim": self.dim,
            "monomials": [list(m.exponents) for m in self.monomials],
        }


@lru_cache(maxsize=None)
def _index_map(basis: SpaceBasis) -> dict[Exponents, int]:
    return {m.exponents: i for i, m in enumerate(basis.monomials)}


def monomials_total_degree_at_most(
    n: int, indices: tuple[int, ...], s: int
) -> list[Exponents]:
    """Exponent tuples of total degree <= s supported on the given axes.

    Ambient length n, zero on all other axes, graded lex order.  Empty
    for s < 0; just the zero tuple for s >= 0 with no axes.
    """
    if s < 0:
        return []
    out: list[Exponents] = []
    k = len(indices)

    def rec(pos: int, remaining: int, partial: list[int]) -> None:
        if pos == k:
            exps = [0] * n
            for axis, e in zip(indices, partial):
                exps[axis] = e
            out.append(tuple(exps))
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, partial + [e])

    rec(0, s, [])
    out.sort(key=grlex_key)
    return out


def monomials_max_degree_at_most(
    n: int, indices: tuple[int, ...], cap: int
) -> list[Exponents]:
    """Exponent tuples with every listed axis capped at the given degree."""
    if cap < 0:
        return []
    out: list[Exponents] = []
    for combo in itertools.product(range(cap + 1), repeat=len(indices)):
        exps = [0] * n
        for axis, e in zip(indices, combo):
            exps[axis] = e
        out.append(tuple(exps))
    out.sort(key=grlex_key)
    return out


def dim_P(d: int, s: int) -> int:
    """Dimension of total-degree-at-most-s polynomials in d variables."""
    if s < 0:
        return 0
    return comb(s + d, d)


def dim_Q(n: int, r: int) -> int:
    if r < 0:
        return 0
    return (r + 1) ** n


def _comb0(a: int, b: int) -> int:
    """Binomial coefficient that is zero whenever b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


def dim_S_formula(n: int, r: int) -> int:
    """Closed-form dimension of the serendipity family on the n-cube."""
    if n < 1 or r < 1:
        raise ValueError("serendipity family requires n >= 1 and r >= 1")
    return sum(
        2 ** (n - d) * _comb0(n, d) * _comb0(r - d, d)
        for d in range(min(n, r // 2) + 1)
    )


def has_superlinear_degree_at_most(exponents: Exponents, r: int) -> bool:
    return superlinear_degree(exponents) <= r


def is_linear_outside_degree_budget(exponents: Exponents, r: int) -> bool:
    """Equivalent admission test: a monomial of total degree s must be
    linear in at least s - r of its variables."""
    s = sum(exponents)
    linear = sum(1 for e in exponents if e == 1)
    return linear >= s - r


def serendipity_exponents(n: int, r: int) -> list[Exponents]:
    """Constructive enumeration of the S basis exponents, graded lex.

    For each d in 0..min(n, r//2): pick the set J of superlinear axes,
    an inner monomial of total degree <= r - 2d on J, and a 0/1 pattern
    on the complement.  The superlinear axes receive exponent 2 plus the
    inner exponent, so every monomial is generated exactly once and no
    deduplication is needed.
    """
    if n < 1 or r < 1:
        raise ValueError("serendipity family requires n >= 1 and r >= 1")
    out: list[Exponents] = []
    for d in range(min(n, r // 2) + 1):
        for sup in itertools.combinations(range(n), d):
            sup_set = set(sup)
            rest = [i for i in range(n) if i not in sup_set]
            for inner in monomials_total_degree_at_most(n, sup, r - 2 * d):
                for pattern in itertools.product((0, 1), repeat=len(rest)):
                    exps = list(inner)
                    for axis in sup:
                        exps[axis] += 2
                    for axis, bit in zip(rest, pattern):
                        exps[axis] = bit
                    exps_t = tuple(exps)
                    # both admission tests must agree with the construction
                    if not (
                        has_superlinear_degree_at_most(exps_t, r)
                        and is_linear_outside_degree_budget(exps_t, r)
                    ):
                        raise AssertionError(f"{exps_t} fails an admission test for r={r}")
                    out.append(exps_t)
    if len(set(out)) != len(out):
        raise AssertionError("constructive enumeration repeated a monomial")
    out.sort(key=grlex_key)
    return out


@lru_cache(maxsize=None)
def basis_P(face: Face, s: int) -> SpaceBasis:
    """Total-degree family on a face, in the face's free variables."""
    exps = monomials_total_degree_at_most(face.n, face.free_indices, s)
    return SpaceBasis("P", face.n, s, face, tuple(Monomial(e) for e in exps))


@lru_cache(maxsize=None)
def basis_Q(n: int, r: int) -> SpaceBasis:
    """Tensor-product family on the full cube: each exponent <= r."""
    if n < 1 or r < 0:
        raise ValueError("family Q requires n >= 1 and r >= 0")
    exps = monomials_max_degree_at_most(n, tuple(range(n)), r)
    return SpaceBasis("Q", n, r, full_cube(n), tuple(Monomial(e) for e in exps))


@lru_cache(maxsize=None)
def basis_S(n: int, r: int) -> SpaceBasis:
    """Serendipity family on the full cube (requires r >= 1)."""
    exps = serendipity_exponents(n, r)
    basis = SpaceBasis("S", n, r, full_cube(n), tuple(Monomial(e) for e in exps))
    if basis.dim != dim_S_formula(n, r):
        raise AssertionError(
            f"enumerated {basis.dim} monomials but formula gives "
            f"{dim_S_formula(n, r)} for n={n}, r={r}"
        )
    return basis


@dataclass(frozen=True)
class InclusionReport:
    """Sandwich of the serendipity family between two total-degree families."""

    n: int
    r: int
    contains_total_degree_r: bool
    within_total_degree_r_plus: bool
    dim_P_r: int
    dim_S_r: int
    dim_Q_r: int

    @property
    def ok(self) -> bool:
        return self.contains_total_degree_r and self.within_total_degree_r_plus


def check_inclusions(n: int, r: int) -> InclusionReport:
    """Verify P_r is contained in S_r and S_r in P_{r + n - 1}."""
    s_basis = basis_S(n, r)
    s_set = {m.exponents for m in s_basis}
    p_exps = monomials_total_degree_at_most(n, tuple(range(n)), r)
    lower = all(e in s_set for e in p_exps)
    upper = all(m.degree <= r + n - 1 for m in s_basis)
    return InclusionReport(
        n=n,
        r=r,
        contains_total_degree_r=lower,
        within_total_degree_r_plus=upper,
        dim_P_r=len(p_exps),
        dim_S_r=s_basis.dim,
        dim_Q_r=dim_Q(n, r),
    )
