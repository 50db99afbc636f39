"""Degrees of freedom, exact rational linear algebra, unisolvence.

A degree of freedom is a face together with a polynomial weight: the
functional maps u to the integral of u times the weight over the face
(point evaluation at vertices, which carry the counting measure).

For the serendipity family the weights on a d-face span the total
degree family of degree r - 2d in the face's free variables; for the
tensor-product family, vertices carry evaluations and positive
dimensional faces carry weights of degree at most r - 2 in each free
variable.  DOFs are ordered by face dimension, then by the canonical
face order, then by graded lex on the weight monomial.

Ranks, solves and the positive definiteness test share one fraction-free
Bareiss pass over denominator-cleared integer rows, so every
intermediate value is an exact integer minor.  No floating point enters
any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence, Union

from .cubegeom import Face, enumerate_faces, face_moment
from .exactpoly import Monomial, Polynomial
from .spaces import (
    SpaceBasis,
    basis_Q,
    basis_S,
    dim_P,
    monomials_max_degree_at_most,
    monomials_total_degree_at_most,
)

__all__ = [
    "SingularMatrixError",
    "RationalMatrix",
    "DofFunctional",
    "dofs_S",
    "dofs_Q",
    "apply_dof",
    "dof_matrix",
    "UnisolvenceResult",
    "check_unisolvence",
    "nodal_basis",
    "LayoutRow",
    "LayoutReport",
    "dof_layout",
]


class SingularMatrixError(ArithmeticError):
    """Raised when an exact solve meets a rank-deficient matrix."""


def _bareiss(
    rows: Iterable[Sequence[Fraction]], pivot_cols: int
) -> tuple[list[list[int]], list[int], bool]:
    """Fraction-free forward elimination (Bareiss 1968) of the rows, each
    first scaled to integers by the lcm of its denominators.

    Scaling rows by positive integers changes neither the rank nor the
    sign of any leading principal minor.  Pivots are taken from the first
    pivot_cols columns, skipping any column with no nonzero candidate;
    every column is updated.  Each update divides exactly by the previous
    pivot, so every entry stays an integer minor, and without row
    exchanges the pivot of row i is the leading principal minor of order
    i + 1.  Returns the echelon rows, the pivot columns and whether any
    rows were exchanged.
    """
    m = []
    for row in rows:
        mult = 1
        for v in row:
            mult = lcm(mult, v.denominator)
        m.append([int(v * mult) for v in row])
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    exchanged = False
    prev = 1
    for c in range(pivot_cols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            exchanged = True
        pivot = m[r][c]
        base = m[r]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            for j in range(c + 1, ncols):
                num = pivot * row[j] - f * base[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise AssertionError("fraction-free division left a remainder")
                row[j] = q
            row[c] = 0
        prev = pivot
        pivots.append(c)
    return m, pivots, exchanged


class RationalMatrix:
    """Dense immutable matrix of Fractions with exact algorithms."""

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence[Union[int, Fraction]]]) -> None:
        rows = tuple(tuple(Fraction(v) for v in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("rows have unequal lengths")
        else:
            width = 0
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, k: int) -> "RationalMatrix":
        return cls([[Fraction(int(i == j)) for j in range(k)] for i in range(k)])

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._rows]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    def rank(self) -> int:
        """Exact rank: the pivot count of the Bareiss pass."""
        return len(_bareiss(self._rows, self.cols)[1])

    def solve(self, rhs: "RationalMatrix") -> "RationalMatrix":
        """Solve self @ X = rhs exactly; raise SingularMatrixError if singular.

        One Bareiss pass over [self | rhs] leaves an integer echelon form
        whose last pivot d is, up to sign, the determinant of the scaled
        system, so d * X is integral: integer back-substitution finds it
        and a single division by d gives X.
        """
        if self.rows != self.cols:
            raise ValueError("solve requires a square matrix")
        if rhs.rows != self.rows:
            raise ValueError("right hand side has the wrong number of rows")
        k = self.rows
        m, pivots, _ = _bareiss((a + b for a, b in zip(self._rows, rhs._rows)), k)
        if len(pivots) < k:
            raise SingularMatrixError(f"matrix of size {k} is singular")
        d = m[k - 1][k - 1] if k else 1
        dx: list[list[int]] = [[]] * k
        for i in range(k - 1, -1, -1):
            row = m[i]
            acc = [d * v for v in row[k:]]
            for j in range(i + 1, k):
                if row[j]:
                    acc = [s - row[j] * x for s, x in zip(acc, dx[j])]
            dx[i] = []
            for num in acc:
                q, rem = divmod(num, row[i])
                if rem:
                    raise AssertionError("integer back-substitution left a remainder")
                dx[i].append(q)
        return RationalMatrix([[Fraction(v, d) for v in row] for row in dx])

    def is_positive_definite(self) -> bool:
        """Whether the matrix is symmetric positive definite.

        Sylvester's criterion, read off one Bareiss pass: no row exchange
        and every pivot, a leading principal minor, is positive.
        """
        if self._rows != tuple(zip(*self._rows)):
            return False
        m, pivots, exchanged = _bareiss(self._rows, self.cols)
        positive = all(m[i][i] > 0 for i in pivots)
        return positive and not exchanged and len(pivots) == self.rows


@dataclass(frozen=True)
class DofFunctional:
    """Moment of the argument against a weight over one face."""

    face: Face
    weight: Polynomial
    index: int

    def __str__(self) -> str:
        return f"dof[{self.index}] on {self.face}: weight {self.weight!r}"

    def to_json_obj(self) -> dict:
        return {
            "index": self.index,
            "face": self.face.to_json_obj(),
            "weight": self.weight.to_json_obj(),
        }


@lru_cache(maxsize=None)
def dofs_S(n: int, r: int) -> tuple[DofFunctional, ...]:
    """Serendipity DOF set: degree r - 2d moments on each d-face."""
    if n < 1 or r < 1:
        raise ValueError("serendipity DOFs require n >= 1 and r >= 1")
    out: list[DofFunctional] = []
    for d in range(n + 1):
        s = r - 2 * d
        if s < 0:
            break
        for face in enumerate_faces(n, d):
            for exps in monomials_total_degree_at_most(n, face.free_indices, s):
                out.append(
                    DofFunctional(face, Polynomial.from_monomial(exps), len(out))
                )
    return tuple(out)


@lru_cache(maxsize=None)
def dofs_Q(n: int, r: int) -> tuple[DofFunctional, ...]:
    """Tensor-product DOF set: vertex values plus per-axis degree r - 2
    moments on positive dimensional faces."""
    if n < 1 or r < 1:
        raise ValueError("tensor-product DOFs require n >= 1 and r >= 1")
    out: list[DofFunctional] = []
    for d in range(n + 1):
        for face in enumerate_faces(n, d):
            if d == 0:
                weights = [(0,) * n]
            else:
                weights = monomials_max_degree_at_most(n, face.free_indices, r - 2)
            for exps in weights:
                out.append(
                    DofFunctional(face, Polynomial.from_monomial(exps), len(out))
                )
    return tuple(out)


def apply_dof(functional: DofFunctional, p: Polynomial) -> Fraction:
    """Evaluate one functional on a polynomial, exactly."""
    if p.n != functional.face.n:
        raise ValueError("polynomial and functional have different variable counts")
    total = Fraction(0)
    for wexps, wcoeff in functional.weight.terms():
        for pexps, pcoeff in p.terms():
            combined = tuple(a + b for a, b in zip(wexps, pexps))
            total += wcoeff * pcoeff * face_moment(functional.face, combined)
    return total


def dof_matrix(
    basis: Union[SpaceBasis, Sequence[Monomial]],
    functionals: Iterable[DofFunctional],
) -> RationalMatrix:
    """Matrix with entry (i, j) = functional i applied to basis monomial j."""
    monomials = basis.monomials if isinstance(basis, SpaceBasis) else tuple(basis)
    rows = []
    for functional in functionals:
        wterms = functional.weight.terms()
        face = functional.face
        row = []
        for m in monomials:
            val = Fraction(0)
            for wexps, wcoeff in wterms:
                combined = tuple(a + b for a, b in zip(m.exponents, wexps))
                val += wcoeff * face_moment(face, combined)
            row.append(val)
        rows.append(row)
    return RationalMatrix(rows)


@dataclass(frozen=True)
class UnisolvenceResult:
    n: int
    r: int
    dim: int
    rank: int
    facet_factor_ok: bool

    @property
    def matrix_full_rank(self) -> bool:
        return self.rank == self.dim

    @property
    def unisolvent(self) -> bool:
        return self.matrix_full_rank and self.facet_factor_ok

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "dim": self.dim,
            "rank": self.rank,
            "matrix_full_rank": self.matrix_full_rank,
            "facet_factor_ok": self.facet_factor_ok,
            "unisolvent": self.unisolvent,
        }


@lru_cache(maxsize=None)
def _dof_matrix_S(n: int, r: int) -> RationalMatrix:
    return dof_matrix(basis_S(n, r), dofs_S(n, r))


def check_unisolvence(n: int, r: int, include_facet_check: bool = True) -> UnisolvenceResult:
    """Verify the serendipity DOFs determine the space uniquely.

    Two independent computations: the square DOF matrix must have full
    rank exactly, and the joint kernel of all facet DOFs must be the
    facet-bubble multiples of the total degree r - 2n family (empty when
    r < 2n).
    """
    basis = basis_S(n, r)
    functionals = dofs_S(n, r)
    if len(functionals) != basis.dim:
        raise AssertionError(
            f"{len(functionals)} functionals for a space of dimension {basis.dim}"
        )
    rank = _dof_matrix_S(n, r).rank()
    if include_facet_check:
        from . import decomp

        facet_ok = decomp.facet_kernel_check(n, r).ok
    else:
        facet_ok = True
    return UnisolvenceResult(n=n, r=r, dim=basis.dim, rank=rank, facet_factor_ok=facet_ok)


@lru_cache(maxsize=None)
def nodal_basis(n: int, r: int) -> tuple[Polynomial, ...]:
    """The dual basis: polynomial j takes value 1 on DOF j and 0 on the rest."""
    basis = basis_S(n, r)
    matrix = _dof_matrix_S(n, r)
    coeffs = matrix.solve(RationalMatrix.identity(basis.dim))
    polys = []
    for j in range(basis.dim):
        terms = {
            basis.monomials[k].exponents: coeffs.entry(k, j)
            for k in range(basis.dim)
        }
        polys.append(Polynomial(n, terms))
    return tuple(polys)


@dataclass(frozen=True)
class LayoutRow:
    face_dim: int
    face_count: int
    per_face: int

    @property
    def subtotal(self) -> int:
        return self.face_count * self.per_face


@dataclass(frozen=True)
class LayoutReport:
    family: str
    n: int
    r: int
    rows: tuple[LayoutRow, ...]

    @property
    def total(self) -> int:
        return sum(row.subtotal for row in self.rows)

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "r": self.r,
            "rows": [
                {
                    "face_dim": row.face_dim,
                    "face_count": row.face_count,
                    "per_face": row.per_face,
                    "subtotal": row.subtotal,
                }
                for row in self.rows
            ],
            "total": self.total,
        }


def dof_layout(n: int, r: int, family: str = "S") -> LayoutReport:
    """Count DOFs per face dimension without materializing them."""
    if family not in ("S", "Q"):
        raise ValueError("layouts exist for families S and Q")
    if n < 1 or r < 1:
        raise ValueError("layouts require n >= 1 and r >= 1")
    rows = []
    for d in range(n + 1):
        count = len(enumerate_faces(n, d))
        if family == "S":
            per_face = dim_P(d, r - 2 * d)
        else:
            per_face = 1 if d == 0 else (r - 1) ** d
        rows.append(LayoutRow(face_dim=d, face_count=count, per_face=per_face))
    return LayoutReport(family=family, n=n, r=r, rows=tuple(rows))
