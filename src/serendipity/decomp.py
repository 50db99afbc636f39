"""Bubble functions and the face-wise splitting of the serendipity space.

Every face carries a bubble: the product of (1 - x_j^2) over its free
axes and (1 + c_j x_j) over its pinned axes.  The bubble vanishes on
each facet of the cube that does not contain the face and is positive
on the face's relative interior.  Multiplying the bubble by the total
degree family of degree r - 2d on the face (d = face dimension) gives
the face's component space, and these spaces sum directly to the whole
serendipity space.

Two independent ways to split a polynomial across faces are provided:

* solve: express it in the concatenated component basis with one exact
  linear solve, or
* construct: expand each monomial through the per-axis identities

      1    = (1 + x)/2 + (1 - x)/2
      x    = (1 + x)/2 - (1 - x)/2
      x^a  = (1 + x)/2 + (-1)^a (1 - x)/2 + (1 - x^2) q_a(x),  a >= 2,

  where q_a(x) = -(x^a' + x^(a'-2) + ... ) with a' = a - 2, taking
  every second power down to x or 1.  Distributing the product over one
  choice per axis sends each resulting term to a distinct face: picked
  sign factors pin axes, picked quotient factors stay free.

The facet kernel check characterizes the functions whose trace vanishes
on the whole boundary: exactly the full-cube bubble times total degree
r - 2n, verified by an exact kernel computation plus a positive
definite Gram matrix of the candidate basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Literal

from .cubegeom import Face, all_faces, enumerate_faces, full_cube, restrict_to_face
from .dofs import RationalMatrix
from .exactpoly import (
    Exponents,
    Polynomial,
    integrate_box,
    superlinear_degree,
)
from .spaces import basis_S, dim_P, monomials_total_degree_at_most

__all__ = [
    "BubbleFunction",
    "FaceComponent",
    "bubble",
    "space_V",
    "all_components",
    "component_matrix",
    "DirectSumResult",
    "verify_direct_sum",
    "expand_monomial",
    "decompose",
    "recompose",
    "FacetKernelResult",
    "facet_kernel_check",
]


@dataclass(frozen=True)
class BubbleFunction:
    """Lowest-degree polynomial vanishing on all facets avoiding the face."""

    face: Face
    poly: Polynomial

    def to_json_obj(self) -> dict:
        return {"face": self.face.to_json_obj(), "poly": self.poly.to_json_obj()}


@dataclass(frozen=True)
class FaceComponent:
    """One summand of a decomposition: coefficient times the face bubble."""

    face: Face
    coefficient: Polynomial
    component: Polynomial

    def to_json_obj(self) -> dict:
        return {
            "face": self.face.to_json_obj(),
            "coefficient": self.coefficient.to_json_obj(),
            "component": self.component.to_json_obj(),
        }


@lru_cache(maxsize=None)
def bubble(face: Face) -> BubbleFunction:
    """(1 - x_j^2) over free axes times (1 + c_j x_j) over pinned axes."""
    n = face.n
    poly = Polynomial.one(n)
    for j in face.free_indices:
        poly = poly * (1 - Polynomial.variable(n, j) ** 2)
    for j, sign in face.fixed:
        poly = poly * (1 + sign * Polynomial.variable(n, j))
    return BubbleFunction(face, poly)


def space_V(face: Face, r: int) -> tuple[FaceComponent, ...]:
    """The face's component space: bubble times degree r - 2d monomials.

    Empty when r - 2d < 0; its dimension is C(r - d, d).
    """
    d = face.dim
    b = bubble(face).poly
    out = []
    for exps in monomials_total_degree_at_most(face.n, face.free_indices, r - 2 * d):
        coeff = Polynomial.from_monomial(exps)
        out.append(FaceComponent(face, coeff, coeff * b))
    return tuple(out)


@lru_cache(maxsize=None)
def all_components(n: int, r: int) -> tuple[FaceComponent, ...]:
    """Components of every face, in face order (dimension ascending)."""
    if n < 1 or r < 1:
        raise ValueError("decomposition requires n >= 1 and r >= 1")
    out: list[FaceComponent] = []
    for face in all_faces(n):
        out.extend(space_V(face, r))
    return tuple(out)


@lru_cache(maxsize=None)
def component_matrix(n: int, r: int) -> RationalMatrix:
    """Columns are the components in the serendipity monomial coordinates.

    Raises if any component leaves the space, which would falsify the
    membership claim deg2(component) <= r.
    """
    basis = basis_S(n, r)
    comps = all_components(n, r)
    rows = [[Fraction(0)] * len(comps) for _ in range(basis.dim)]
    for col, fc in enumerate(comps):
        for exps, coeff in fc.component.terms():
            try:
                rows[basis.index_of(exps)][col] = coeff
            except KeyError:
                raise AssertionError(
                    f"component monomial {exps} escapes the space at n={n}, r={r}"
                ) from None
    return RationalMatrix(rows)


@dataclass(frozen=True)
class DirectSumResult:
    n: int
    r: int
    space_dim: int
    component_count: int
    rank: int

    @property
    def dims_match(self) -> bool:
        return self.component_count == self.space_dim

    @property
    def full_rank(self) -> bool:
        return self.rank == self.space_dim

    @property
    def ok(self) -> bool:
        return self.dims_match and self.full_rank

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "space_dim": self.space_dim,
            "component_count": self.component_count,
            "rank": self.rank,
            "dims_match": self.dims_match,
            "full_rank": self.full_rank,
            "ok": self.ok,
        }


def verify_direct_sum(n: int, r: int) -> DirectSumResult:
    """Counts plus exact rank: together they certify the direct sum."""
    dim = basis_S(n, r).dim
    comps = all_components(n, r)
    rank = component_matrix(n, r).rank()
    return DirectSumResult(
        n=n, r=r, space_dim=dim, component_count=len(comps), rank=rank
    )


@lru_cache(maxsize=None)
def _superlinear_split(alpha: int) -> tuple[Fraction, Fraction, tuple[Fraction, ...]]:
    """Coefficients (c_plus, c_minus, q) with
    t^alpha = c_plus (1 + t) + c_minus (1 - t) + (1 - t^2) q(t).

    q is returned as dense coefficients, lowest power first; it is the
    zero tuple only for alpha < 2, and has degree alpha - 2 otherwise.
    """
    if alpha < 0:
        raise ValueError("exponent must be non-negative")
    half = Fraction(1, 2)
    if alpha == 0:
        return half, half, ()
    if alpha == 1:
        return half, -half, ()
    c_minus = half if alpha % 2 == 0 else -half
    # t^alpha - 1 = -(1 - t^2)(1 + t^2 + ...) and t^alpha - t likewise,
    # so q collects every second power from alpha - 2 down, negated
    q = [Fraction(0)] * (alpha - 1)
    for k in range(alpha - 2, -1, -2):
        q[k] = Fraction(-1)
    # exactness guard: re-expand and compare
    check = [Fraction(0)] * (alpha + 1)
    check[0] += half + c_minus
    check[1] += half - c_minus
    for k, c in enumerate(q):
        check[k] += c
        check[k + 2] -= c
    expected = [Fraction(0)] * (alpha + 1)
    expected[alpha] = Fraction(1)
    if check != expected:
        raise AssertionError(f"split identity failed for exponent {alpha}")
    return half, c_minus, tuple(q)


def expand_monomial(exponents: Exponents, r: int) -> tuple[FaceComponent, ...]:
    """Split one monomial into face components, constructively.

    Each axis contributes a choice: a pinned sign with a scalar factor,
    or (for exponent >= 2) the free quotient factor.  Every choice
    combination lands on a different face, so the result has no face
    repeated.  Requires superlinear degree <= r so the pieces stay
    inside the degree budget of their faces.
    """
    exponents = tuple(exponents)
    n = len(exponents)
    if n < 1 or r < 1:
        raise ValueError("expansion requires n >= 1 and r >= 1")
    if superlinear_degree(exponents) > r:
        raise ValueError(
            f"monomial {exponents} has superlinear degree "
            f"{superlinear_degree(exponents)} > r = {r}"
        )
    choice_lists: list[list[tuple[int, Fraction, tuple[Fraction, ...] | None]]] = []
    for alpha in exponents:
        c_plus, c_minus, q = _superlinear_split(alpha)
        choices: list[tuple[int, Fraction, tuple[Fraction, ...] | None]] = [
            (1, c_plus, None),
            (-1, c_minus, None),
        ]
        if alpha >= 2:
            choices.append((0, Fraction(1), q))
        choice_lists.append(choices)

    out: list[FaceComponent] = []
    seen_faces: set[Face] = set()
    stack: list[tuple[int, list[tuple[int, int]], Fraction, dict[Exponents, Fraction]]] = [
        (0, [], Fraction(1), {(0,) * n: Fraction(1)})
    ]
    while stack:
        axis, pins, scalar, coeff_terms = stack.pop()
        if axis == n:
            face = Face(n, tuple(pins))
            if face in seen_faces:
                raise AssertionError("expansion revisited a face")
            seen_faces.add(face)
            coeff = Polynomial(n, coeff_terms) * scalar
            d = face.dim
            if coeff.degree() > r - 2 * d:
                raise AssertionError(
                    f"expansion coefficient degree {coeff.degree()} exceeds "
                    f"budget {r - 2 * d} on {face}"
                )
            out.append(FaceComponent(face, coeff, coeff * bubble(face).poly))
            continue
        for sign, factor, q in reversed(choice_lists[axis]):
            if q is None:
                stack.append(
                    (axis + 1, pins + [(axis, sign)], scalar * factor, coeff_terms)
                )
            else:
                merged: dict[Exponents, Fraction] = {}
                for exps, c in coeff_terms.items():
                    for k, qc in enumerate(q):
                        if qc:
                            key = exps[:axis] + (exps[axis] + k,) + exps[axis + 1 :]
                            merged[key] = merged.get(key, Fraction(0)) + c * qc
                stack.append((axis + 1, pins, scalar * factor, merged))
    return tuple(out)


@lru_cache(maxsize=None)
def _component_solver(n: int, r: int) -> RationalMatrix:
    """Inverse of the component matrix, computed once per cell."""
    matrix = component_matrix(n, r)
    return matrix.solve(RationalMatrix.identity(matrix.rows))


def decompose(
    p: Polynomial, r: int, method: Literal["solve", "construct"] = "solve"
) -> dict[Face, FaceComponent]:
    """Split a member of the serendipity space into its face components.

    Returns only faces with a nonzero component.  The two methods are
    algorithmically independent and must agree; both are exact.
    """
    n = p.n
    if n < 1 or r < 1:
        raise ValueError("decomposition requires n >= 1 and r >= 1")
    if p.superlinear_degree() > r:
        raise ValueError(
            f"polynomial has superlinear degree {p.superlinear_degree()} > r = {r}"
        )
    acc: dict[Face, dict[Exponents, Fraction]] = {}
    if method == "solve":
        basis = basis_S(n, r)
        comps = all_components(n, r)
        coords = [p.coefficient(m.exponents) for m in basis.monomials]
        inverse = _component_solver(n, r)
        for k, fc in enumerate(comps):
            weight = sum(
                (inverse.entry(k, j) * coords[j] for j in range(len(coords))),
                Fraction(0),
            )
            if weight:
                exps = fc.coefficient.terms()[0][0]
                face_acc = acc.setdefault(fc.face, {})
                face_acc[exps] = face_acc.get(exps, Fraction(0)) + weight
    elif method == "construct":
        for exps, coeff in p.terms():
            for fc in expand_monomial(exps, r):
                face_acc = acc.setdefault(fc.face, {})
                for e2, c2 in fc.coefficient.terms():
                    face_acc[e2] = face_acc.get(e2, Fraction(0)) + coeff * c2
    else:
        raise ValueError(f"unknown method {method!r}")
    out: dict[Face, FaceComponent] = {}
    for face, terms in acc.items():
        coeff = Polynomial(n, terms)
        if coeff:
            out[face] = FaceComponent(face, coeff, coeff * bubble(face).poly)
    return out


def recompose(components: dict[Face, FaceComponent], n: int) -> Polynomial:
    """Sum of the components; inverse of decompose."""
    total = Polynomial.zero(n)
    for fc in components.values():
        total = total + fc.component
    return total


@dataclass(frozen=True)
class FacetKernelResult:
    """Outcome of characterizing the boundary-vanishing subspace."""

    n: int
    r: int
    space_dim: int
    kernel_dim: int
    expected_dim: int
    candidates_contained: bool
    candidates_independent: bool
    gram_positive_definite: bool
    gram: RationalMatrix

    @property
    def ok(self) -> bool:
        return (
            self.kernel_dim == self.expected_dim
            and self.candidates_contained
            and self.candidates_independent
            and self.gram_positive_definite
        )

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "space_dim": self.space_dim,
            "kernel_dim": self.kernel_dim,
            "expected_dim": self.expected_dim,
            "candidates_contained": self.candidates_contained,
            "candidates_independent": self.candidates_independent,
            "gram_positive_definite": self.gram_positive_definite,
            "gram": [
                [f"{v.numerator}/{v.denominator}" for v in self.gram.row(i)]
                for i in range(self.gram.rows)
            ],
            "ok": self.ok,
        }


@lru_cache(maxsize=None)
def facet_kernel_check(n: int, r: int) -> FacetKernelResult:
    """The subspace with vanishing trace on every facet must be exactly
    the full-cube bubble times total degree r - 2n (empty for r < 2n)."""
    basis = basis_S(n, r)
    dim = basis.dim
    facets = enumerate_faces(n, n - 1)

    # one constraint row per (facet, surviving monomial) pair: the trace
    # coefficient of that monomial must cancel
    row_of: dict[tuple[int, Exponents], int] = {}
    entries: dict[tuple[int, int], Fraction] = {}
    for fi, facet in enumerate(facets):
        axis, sign = facet.fixed[0]
        for col, m in enumerate(basis.monomials):
            exps = m.exponents
            flip = -1 if (sign < 0 and exps[axis] % 2) else 1
            reduced = exps[:axis] + (0,) + exps[axis + 1 :]
            key = (fi, reduced)
            row = row_of.setdefault(key, len(row_of))
            entries[(row, col)] = entries.get((row, col), Fraction(0)) + flip
    rows = [[Fraction(0)] * dim for _ in range(len(row_of))]
    for (i, j), v in entries.items():
        rows[i][j] = v
    constraint = RationalMatrix(rows)
    kernel_dim = dim - constraint.rank()

    expected_dim = dim_P(n, r - 2 * n)
    cube_bubble = bubble(full_cube(n)).poly
    candidates = [
        cube_bubble * Polynomial.from_monomial(exps)
        for exps in monomials_total_degree_at_most(n, tuple(range(n)), r - 2 * n)
    ]
    contained = all(
        restrict_to_face(cand, facet).is_zero()
        for cand in candidates
        for facet in facets
    )
    coord_rows = [
        [cand.coefficient(m.exponents) for m in basis.monomials]
        for cand in candidates
    ]
    independent = RationalMatrix(coord_rows).rank() == len(candidates)
    gram = RationalMatrix(
        [
            [
                integrate_box(a * b, range(n)).coefficient((0,) * n)
                for b in candidates
            ]
            for a in candidates
        ]
    )
    return FacetKernelResult(
        n=n,
        r=r,
        space_dim=dim,
        kernel_dim=kernel_dim,
        expected_dim=expected_dim,
        candidates_contained=contained,
        candidates_independent=independent,
        gram_positive_definite=gram.is_positive_definite(),
        gram=gram,
    )
