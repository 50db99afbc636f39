"""Degrees of freedom, exact rational linear algebra, unisolvence.

A degree of freedom is a face together with a weight monomial, stored
as its exponent tuple: the functional maps u to the integral of u times
the weight over the face (point evaluation at vertices, which carry the
counting measure).

For the serendipity family the weights on a d-face span the total
degree family of degree r - 2d in the face's free variables; for the
tensor-product family, vertices carry evaluations and positive
dimensional faces carry weights of degree at most r - 2 in each free
variable.  DOFs are ordered by face dimension, then by the canonical
face order, then by graded lex on the weight monomial.

Unisolvence and the nodal basis rest on the pairing certificate
(``decomp.certify_pairing``), so no DOF matrix is formed and nothing is
eliminated.  ``RationalMatrix`` is kept as the tests' dense reference:
its ranks and solves share one fraction-free Bareiss pass over integer
rows, so every intermediate value is an exact integer minor.  No
floating point enters any decision.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import decomp
from .cubegeom import Face, enumerate_faces, face_symmetry
from .decomp import SingularMatrixError
from .exactpoly import Exponents, Polynomial, Record, grlex_key, monomial_str
from .spaces import dim_P, face_monomials, monomials_max_degree_at_most

__all__ = [
    "SingularMatrixError",
    "RationalMatrix",
    "DofFunctional",
    "dofs_S",
    "dofs_Q",
    "UnisolvenceResult",
    "check_unisolvence",
    "nodal_functions",
    "nodal_basis",
    "LayoutRow",
    "LayoutReport",
    "dof_layout",
]


def _bareiss(
    rows: Iterable[Sequence[Fraction]], pivot_cols: int
) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination (Bareiss 1968) of the rows, each
    first scaled to integers by the lcm of its denominators.

    Scaling rows changes no rank.  Pivots are taken from the first
    pivot_cols columns, skipping any column with no nonzero candidate;
    every column is updated.  Each update divides exactly by the previous
    pivot, so every entry stays an integer minor.  Returns the echelon
    rows and the pivot columns.
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
    prev = 1
    for c in range(pivot_cols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
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
    return m, pivots


class RationalMatrix:
    """Dense immutable matrix of Fractions with exact algorithms: the
    tests' exact reference, which nothing in the package builds."""

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence[int | Fraction]]) -> None:
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

    def __reduce__(self):
        return (RationalMatrix, (self._rows,))

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
        m, pivots = _bareiss((a + b for a, b in zip(self._rows, rhs._rows)), k)
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


class DofFunctional(Record):
    """Moment of the argument against a weight monomial over one face."""

    face: Face
    exponents: Exponents
    index: int

    def __init__(self, face: Face, exponents: Exponents, index: int) -> None:
        self.__dict__.update(face=face, exponents=exponents, index=index)

    @property
    def weight(self) -> Polynomial:
        """The weight monomial as a polynomial with coefficient 1."""
        return Polynomial.from_monomial(self.exponents)

    def __str__(self) -> str:
        return f"dof[{self.index}] on {self.face}: weight {monomial_str(self.exponents)}"


@lru_cache(maxsize=None)
def dofs_S(n: int, r: int) -> tuple[DofFunctional, ...]:
    """Serendipity DOF set: degree r - 2d moments on each d-face."""
    if n < 1 or r < 1:
        raise ValueError("serendipity DOFs require n >= 1 and r >= 1")
    pairs = ((face, w) for face, exps in face_monomials(n, r).items() for w in exps)
    return tuple(DofFunctional(face, w, i) for i, (face, w) in enumerate(pairs))


def dofs_Q(n: int, r: int) -> Iterator[DofFunctional]:
    """Tensor-product DOF set: vertex values plus per-axis degree r - 2
    moments on positive dimensional faces.  The arguments are checked at
    the call and each functional is formed as it is read, so a caller
    that writes and drops them holds one face's weights at a time."""
    if n < 1 or r < 1:
        raise ValueError("tensor-product DOFs require n >= 1 and r >= 1")
    pairs = (
        (face, w)
        for d in range(n + 1)
        for face in enumerate_faces(n, d)
        for w in (monomials_max_degree_at_most(n, face.free_indices, r - 2) if d else [(0,) * n])
    )
    return (DofFunctional(face, w, i) for i, (face, w) in enumerate(pairs))


class UnisolvenceResult(Record):
    n: int
    r: int
    dim: int
    rank: int | None
    facet_factor_ok: bool
    culprit: str | None = None
    _derived = ("matrix_full_rank", "unisolvent")

    @property
    def matrix_full_rank(self) -> bool:
        return self.rank == self.dim

    @property
    def unisolvent(self) -> bool:
        return self.matrix_full_rank and self.facet_factor_ok


def check_unisolvence(n: int, r: int) -> UnisolvenceResult:
    """Verify the serendipity DOFs determine the space uniquely.

    The DOF matrix has full rank, dim = ``decomp.index_count``, when the
    pairing certificate (``decomp.certify_pairing``) holds.  The
    certificate is one-sided, so when it fails the rank is unknown (None)
    and is reported with the certificate's culprit.  The joint kernel of all facet DOFs must also
    be the facet-bubble multiples of the total degree r - 2n family
    (empty when r < 2n).
    """
    dim = decomp.index_count(n, r)
    culprit = decomp.certify_pairing(n, r)
    return UnisolvenceResult(
        n=n,
        r=r,
        dim=dim,
        rank=dim if culprit is None else None,
        facet_factor_ok=decomp.facet_kernel_check(n, r).ok,
        culprit=culprit,
    )


def _nodal_images(
    n: int, r: int, form: Callable[[Exponents, int, int], object]
) -> Iterator[tuple[list[Exponents], list, int]]:
    """The dual basis in DOF order, each function as its exponent tuples in
    graded lex order, form(e, c, scale) for each term c / scale x^e in the
    same order, and its scale.  The solve runs at the call, so an
    uncertified pairing raises before any function is read; the rest is
    formed as it is read, one perm at a time.

    With K = D C the pairing of the DOFs with the bubble components, the
    inverse of the DOF matrix is C K^-1: the nodal function of the DOF
    (F, w) is the sum of b_G m_G with the multipliers m = K^-1 of its
    unit values, the one face part {F's pins: {w: 1}}, which
    ``decomp._solve`` finds by per-axis passes in the orthogonal
    coordinates and the merge pass ``decomp._merge`` sums, as
    interpolation does.

    Only the weights of the first face H0 of each dimension in the index
    are solved for, and each solved function is kept as integer terms
    over its scale.  For any other face H, the cube symmetry sigma with
    sigma H0 = H (``cubegeom.face_symmetry``) maps the DOFs of H0 to
    those of H in order and each bubble b_F to b_{sigma F}, lemmas of the
    certificate that the solve requires.  So the function of weight i on H is that of
    weight i on H0 composed with sigma^-1: each term c x^e becomes
    +-c x^e', with e'[perm[k]] = e[k], negated when e' is odd over the
    flipped axes.

    Faces that share a perm come in runs (``enumerate_faces`` varies the
    signs innermost), and flip only axes that the run pins.  Once per run,
    each solved function of its dimension becomes a row of parallel lists
    over its permuted terms in graded lex order: the exponents, form's
    value for c, the value for -c where an exponent on a pinned axis is
    odd, and the bitmask of those axes, and then the scale.  The image on
    a face of the run takes the second value where that bitmask and the
    face's flipped axes share an odd number of bits.
    """
    index, solved = face_monomials(n, r), {}
    for H in (enumerate_faces(n, d)[0] for d in range(n + 1)):
        for w in index.get(H, ()):
            scale, parts = decomp._solve(n, r, 1, {H.fixed: {w: 1}})
            solved.setdefault(H.dim, []).append((scale, decomp._merge(n, parts)))

    def row(scale: int, terms: dict, source: list[int], pinned: int) -> tuple:
        exps, pos, neg, odds = [], [], [], []
        permuted = ((tuple(e[i] for i in source), c) for e, c in terms.items() if c)
        for e, c in sorted(permuted, key=lambda t: grlex_key(t[0])):
            odd = pinned & sum(1 << j for j, k in enumerate(e) if k & 1)
            exps.append(e)
            pos.append(form(e, c, scale))
            neg.append(form(e, -c, scale) if odd else pos[-1])
            odds.append(odd)
        return exps, pos, neg, odds, scale

    def images() -> Iterator[tuple[list[Exponents], list, int]]:
        symmetries = ((face.dim, *face_symmetry(face)) for face in face_monomials(n, r))
        for (d, perm), run in itertools.groupby(symmetries, key=lambda s: s[:2]):
            source = sorted(range(n), key=perm.__getitem__)
            masks = [sum(1 << j for j in flips) for _, _, flips in run]
            pinned = 0
            for mask in masks:
                pinned |= mask
            for done in [k for k in solved if k < d]:  # faces come in dimension order
                del solved[done]
            rows = [row(scale, terms, source, pinned) for scale, terms in solved[d]]
            for mask in masks:
                for exps, pos, neg, odds, scale in rows:
                    yield exps, [b if (o & mask).bit_count() & 1 else a for a, b, o in zip(pos, neg, odds)], scale

    return images()


def nodal_functions(n: int, r: int) -> Iterator[Polynomial]:
    """The dual basis in DOF order: polynomial j takes value 1 on DOF j and
    0 on the rest.  The solve runs at the call, so an uncertified pairing
    raises before any function is yielded; each function is formed as it
    is read, so a caller that writes and drops them holds only the solved
    ones and one perm's rows (``_nodal_images``), where the images of a
    term share its integer of each sign."""
    images = _nodal_images(n, r, lambda e, c, scale: c)
    return (Polynomial._over(n, dict(zip(exps, values)), scale) for exps, values, scale in images)


@lru_cache(maxsize=None)
def nodal_basis(n: int, r: int) -> tuple[Polynomial, ...]:
    """``nodal_functions(n, r)`` as a tuple, kept for later calls."""
    return tuple(nodal_functions(n, r))


class LayoutRow(Record):
    face_dim: int
    face_count: int
    per_face: int
    _derived = ("subtotal",)

    @property
    def subtotal(self) -> int:
        return self.face_count * self.per_face


class LayoutReport(Record):
    family: str
    n: int
    r: int
    rows: tuple[LayoutRow, ...]
    _derived = ("total",)

    @property
    def total(self) -> int:
        return sum(row.subtotal for row in self.rows)


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
