"""Bubble functions and the face-wise splitting of the serendipity space.

Every face carries a bubble: the product of (1 - x_j^2) over its free
axes and (1 + c_j x_j) over its pinned axes.  The bubble vanishes on
each facet of the cube that does not contain the face and is positive
on the face's relative interior.  Multiplying the bubble by the total
degree family of degree r - 2d on the face (d = face dimension) gives
the face's component space, and these spaces sum directly to the whole
serendipity space.

The split and the merge between a polynomial and its face data are
per-axis passes (sum factorisation) on integers over one lcm.  Split
pass j (``_split_axis``) sends each term c x^e of each part, its pins
so far, to x_j = 1 (c), to x_j = -1 ((-1)^(e_j) c), and through a free
map to the part itself; terms that meet add up.  The construct method's
free map is the quotient q_a of x^a = (1 + x)/2 + (-1)^a (1 - x)/2 +
(1 - x^2) q_a(x), which lands each term on the faces; the solve
method's, the 1-D moments, gives the DOF values of p, which the inverse
X of the pairing K below maps to the multipliers.  Merge pass j
(``_merge``) multiplies each part by its bubble's factor along x_j, so
the n passes form the sum of b_F m_F.

Pairing the DOFs with the components gives the paper's unisolvence
proof.  Let K = D C, where D is the DOF matrix and C the component
matrix on the monomial basis, so K[(F, w), (G, q)] = L_{F,w}(b_G x^q).
``certify_pairing`` checks each face's index and bubble once and n + 1
positive definite diagonal blocks.  It follows that K is block lower
triangular over faces with one diagonal block per face dimension, so
K, hence D and C, is nonsingular without an N x N elimination.

The cube's symmetries, axis permutations with sign flips, act
transitively on the faces of each dimension and keep every face moment.
By the certificate they map each face's index and bubble onto the image
face's, so they permute the rows and columns of K, with signs.  The
inverse X = K^-1 is therefore solved and held for the n + 1 columns of
the first face of each dimension only, as integers over one common
denominator.  One multiplier map, shared by ``decompose`` and
``assembly.interpolate``, maps every other column from one of those as
it reads it; the nodal basis likewise expands n + 1 columns into
monomials and rewrites the rest.

The facet kernel check characterizes the functions whose trace vanishes
on the whole boundary: exactly the full-cube bubble times total degree
r - 2n.  Its dimension follows from the pairing (a boundary-vanishing
member has zero DOFs on every proper face, so its proper components
vanish).  The candidates vanish on the boundary because the cube
bubble does, and they are independent because their Gram matrix is
positive definite: a nonzero combination has a positive square integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from math import lcm, prod
from operator import add, mul
from typing import Iterable, Literal, Optional, Sequence

from .cubegeom import (
    Face,
    enumerate_faces,
    face_contains,
    face_moment,
    face_symmetry,
    full_cube,
)
from .dofs import RationalMatrix, SingularMatrixError
from .exactpoly import Exponents, Polynomial, Scalar, grlex_key
from .spaces import (
    basis_S,
    dim_P,
    dim_S_formula,
    face_monomials,
    monomials_total_degree_at_most,
)

Block = tuple[tuple[Fraction, ...], ...]
IntBlock = tuple[tuple[int, ...], ...]

__all__ = [
    "FaceComponent",
    "bubble",
    "all_components",
    "component_matrix",
    "pairing_block",
    "certify_pairing",
    "pairing_inverse",
    "DirectSumResult",
    "verify_direct_sum",
    "decompose",
    "recompose",
    "FacetKernelResult",
    "facet_kernel_check",
]


@dataclass(frozen=True)
class FaceComponent:
    """One summand of a decomposition: coefficient times the face bubble."""

    face: Face
    coefficient: Polynomial

    @property
    def component(self) -> Polynomial:
        """The summand itself, formed on each read."""
        return self.coefficient * bubble(self.face)

    def to_json_obj(self) -> dict:
        return {
            "face": self.face.to_json_obj(),
            "coefficient": self.coefficient.to_json_obj(),
            "component": self.component.to_json_obj(),
        }


def _bubble_factors(face: Face) -> tuple[tuple[int, int, int], ...]:
    """Per axis, the coefficients (c0, c1, c2) of the bubble's factor
    c0 + c1 t + c2 t^2: 1 - t^2 on a free axis, 1 + c t on an axis
    pinned at c."""
    return tuple((1, c, 0) if c else (1, 0, -1) for c in face.signs)


@lru_cache(maxsize=None)
def bubble(face: Face) -> Polynomial:
    """(1 - x_j^2) over free axes times (1 + c_j x_j) over pinned axes."""
    per_axis = [
        [(k, c) for k, c in enumerate(factor) if c] for factor in _bubble_factors(face)
    ]
    return Polynomial(
        face.n,
        (
            (tuple(k for k, _ in picks), prod(c for _, c in picks))
            for picks in itertools.product(*per_axis)
        ),
    )


@lru_cache(maxsize=None)
def all_components(n: int, r: int) -> tuple[FaceComponent, ...]:
    """One component per (face, monomial) pair, in DOF order."""
    if n < 1 or r < 1:
        raise ValueError("decomposition requires n >= 1 and r >= 1")
    return tuple(
        FaceComponent(face, Polynomial.from_monomial(q))
        for face, exps in face_monomials(n, r).items()
        for q in exps
    )


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


@lru_cache(maxsize=None)
def pairing_block(face: Face, other: Face, r: int) -> RationalMatrix:
    """The block K[F, G] of the pairing: row w, column q holds the DOF of
    face F with weight x^w applied to the component b_G x^q of face G.

    Each entry is the moment over F of x^(w + q) times the factors of
    b_G, one per axis, so it depends on w + q only and is computed once
    per sum.
    """
    index = face_monomials(face.n, r)
    moment = cache(partial(face_moment, face, factors=_bubble_factors(other)))
    return RationalMatrix(
        [[moment(tuple(map(add, w, q))) for q in index[other]] for w in index[face]]
    )


@lru_cache(maxsize=None)
def certify_pairing(n: int, r: int) -> Optional[str]:
    """Certify that the pairing K = D C is nonsingular, which proves the
    DOFs unisolvent and the components a basis of S_r at once.

    Returns None when every part holds, else names the first failure:

    (i) counts: the (face, monomial) index, the basis and the closed form
        agree on the dimension;
    (ii) index: each d-face's weights are distinct, in graded lex order,
        supported on its free axes, of degree <= r - 2d and dim P_{r-2d}
        in number: exactly P_{r-2d} in the free axes, in order;
    (iii) bubble: its factor is 1 - t^2 along a free axis (constant term
        1, zero at both ends) and 1 + s t along an axis pinned at s
        (linear, 0 at -s, 2 at s);
    (iv) the representative block of each dimension is positive definite.

    The rest are lemmas.  By (i) and (ii) every face with a nonempty
    P_{r-2d} is indexed, as the closed form sums dim P_{r-2d} over all
    faces.  The component b_G x^q has superlinear degree at most
    |q| + 2d <= r, so it lies in S_r.  For G not in F, a pin (j, s) of F
    that G lacks zeroes the factor of b_G along x_j at s, so K is block
    lower triangular with faces ordered by dimension.  On its own d-face
    b_F is 2^(n-d) times the product of (1 - x_i^2) over the free axes,
    and every d-face has the same weights over its free axes in the same
    order, so each diagonal block equals its dimension's representative.
    A cube symmetry keeps degrees and sends free axes to free axes and
    factors to factors, so it maps each index and bubble onto the image
    face's; the weights go in order and unsigned when it keeps the free
    axes in order and flips pinned axes only, as
    ``cubegeom.face_symmetry`` does.

    The certificate is one-sided: a failure proves nothing singular.
    """
    index = face_monomials(n, r)
    count = sum(map(len, index.values()))
    dim = basis_S(n, r).dim
    if not count == dim == dim_S_formula(n, r):
        return (
            f"count: {count} (face, monomial) pairs, basis dimension {dim}, "
            f"closed form {dim_S_formula(n, r)}"
        )
    for face, weights in index.items():
        budget, pins = r - 2 * face.dim, dict(face.fixed)
        for q in weights:
            if any(q[j] for j in pins) or sum(q) > budget:
                return f"index: the weight {q} of {face} is not in P_{budget} of its free axes"
        if any(grlex_key(a) >= grlex_key(b) for a, b in zip(weights, weights[1:])):
            return f"index: the weights of {face} are not distinct in graded lex order"
        if len(weights) != dim_P(face.dim, budget):
            return (
                f"index: {face} has {len(weights)} weights, "
                f"not dim P_{budget} = {dim_P(face.dim, budget)}"
            )
        for j, factor in enumerate(_bubble_factors(face)):
            expected = (1, pins[j], 0) if j in pins else (1, 0, -1)
            if factor != expected:
                return (
                    f"bubble: along x{j + 1} the bubble of {face} has the factor "
                    f"{factor}, not {expected} (coefficients of 1, t, t^2)"
                )
    for d in range(n + 1):
        representative = enumerate_faces(n, d)[0]
        if representative in index and not pairing_block(
            representative, representative, r
        ).is_positive_definite():
            return f"Gram block: the diagonal block of face dimension {d} is not positive definite"
    return None


def _product(a: Block, b: Block, scale: int = 1) -> Block:
    """scale times the product of two blocks given as rows, skipping zero
    factors."""
    cols = list(zip(*b))
    return tuple(
        tuple(scale * sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in cols)
        for row in a
    )


@lru_cache(maxsize=None)
def pairing_inverse(n: int, r: int) -> tuple[int, dict[Face, dict[Face, IntBlock]]]:
    """The n + 1 columns of X = K^-1 at the first face H0 of each
    dimension, ``enumerate_faces(n, d)[0]``, as (den, columns): each H0 in
    the index, in DOF order, maps every face F containing H0 to the block
    den X[F, H0] of integers, den the least common denominator of these
    columns.  X is block lower triangular like K.

    Block forward substitution finds them, subfaces first:

        X[H0, H0] = K[H0, H0]^-1,
        X[F, H0] = -K[F, F]^-1 sum over H0 <= G < F of K[F, G] X[G, H0],

    the sum formed as one product of the blocks K[F, G] side by side with
    the blocks X[G, H0] stacked.  The certificate must hold: it makes the
    blocks off G <= F zero and every diagonal block of dimension d equal
    to one representative, so the diagonal inverses are one solve per
    face dimension.  Every other column is the image of one of these
    under a cube symmetry; ``_multipliers`` maps the blocks as it reads them.
    """
    culprit = certify_pairing(n, r)
    if culprit is not None:
        raise SingularMatrixError(f"pairing at n={n}, r={r} is not certified: {culprit}")
    index = face_monomials(n, r)
    first = [face for face in index if face == enumerate_faces(n, face.dim)[0]]
    diagonal: dict[int, Block] = {}
    for h0 in first:
        block = pairing_block(h0, h0, r)
        inverse = block.solve(RationalMatrix.identity(block.rows))
        diagonal[h0.dim] = tuple(inverse.row(i) for i in range(inverse.rows))
    out: dict[Face, dict[Face, Block]] = {}
    for h0 in first:
        column = out[h0] = {h0: diagonal[h0.dim]}
        for face in sorted(index, key=lambda face: face.dim):  # subfaces first
            if face == h0 or not face_contains(face, h0):
                continue
            inner = [g for g in column if face_contains(face, g)]
            blocks = [pairing_block(face, g, r) for g in inner]
            left = [sum((k.row(i) for k in blocks), ()) for i in range(len(index[face]))]
            right = [row for g in inner for row in column[g]]
            column[face] = _product(diagonal[face.dim], _product(left, right), scale=-1)
    den = lcm(*(v.denominator for c in out.values() for b in c.values() for row in b for v in row))
    for column in out.values():
        for face, block in column.items():
            column[face] = tuple(tuple(int(v * den) for v in row) for row in block)
    return den, out


def _multipliers(values: Sequence[Scalar], n: int, r: int) -> tuple[int, dict[Face, dict]]:
    """The multipliers m = X v for DOF values v in DOF order, as (den, m):
    each indexed face, in index order, maps its weight q to den times the
    multiplier of b_F x^q.  The values are cleared to integers with one lcm,
    and faces whose values are all zero are skipped.  The cube symmetry
    sigma with sigma H0 = H (``cubegeom.face_symmetry``) keeps every face
    moment, so X[sigma F, H] row sigma q is sign(sigma q) X[F, H0] row q,
    with H's weights in H0's order and unsigned: y = X[F, H0] times the
    values on H adds y_q to the multiplier of x^e' on sigma F, where
    e'[perm[i]] = q[i], negated when e' is odd over the flipped axes.
    """
    den, columns = pairing_inverse(n, r)
    columns = {h0.dim: column for h0, column in columns.items()}
    index = face_monomials(n, r)
    scale = lcm(*(v.denominator for v in values))
    cleared = iter([v.numerator * (scale // v.denominator) for v in values])
    out = {face: dict.fromkeys(exps, 0) for face, exps in index.items()}
    for col, weights in index.items():
        on_col = list(itertools.islice(cleared, len(weights)))
        if not any(on_col):
            continue
        perm, flips = face_symmetry(col)
        source = sorted(range(n), key=perm.__getitem__)
        for face, block in columns[col.dim].items():
            pins = sorted((perm[i], -s if perm[i] in flips else s) for i, s in face.fixed)
            image = out[Face(n, tuple(pins))]
            for q, row in zip(index[face], block):
                y = sum(map(mul, row, on_col))
                if y:
                    e = tuple(q[i] for i in source)
                    image[e] += -y if sum(e[j] for j in flips) % 2 else y
    return den * scale, out


def _merge(n: int, multipliers: dict[Face, dict[Exponents, int]], den: int) -> Polynomial:
    """The sum of b_F m_F, each m_F given as den times its coefficients,
    by passes from x_n down to x_1: a part pinned at x_j = s is
    multiplied by 1 + s x_j and drops the pin, any other part by
    1 - x_j^2, and parts that meet add up.  Divided by den at the end."""
    state = {f.fixed: {q: y for q, y in m.items() if y} for f, m in multipliers.items()}
    for j in reversed(range(n)):
        merged: dict[tuple, dict[Exponents, int]] = {}
        for pins, part in state.items():
            pinned = bool(pins) and pins[-1][0] == j
            s, step = (pins[-1][1], 1) if pinned else (-1, 2)
            out = merged.setdefault(pins[:-1] if pinned else pins, {})
            for e, c in part.items():
                up = e[:j] + (e[j] + step,) + e[j + 1 :]
                out[e] = out.get(e, 0) + c
                out[up] = out.get(up, 0) + s * c
        state = merged
    return Polynomial(n, ((e, Fraction(v, den)) for e, v in state.get((), {}).items() if v))


@dataclass(frozen=True)
class DirectSumResult:
    n: int
    r: int
    space_dim: int
    component_count: int
    rank: int
    culprit: Optional[str] = None

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
            "culprit": self.culprit,
        }


def verify_direct_sum(n: int, r: int) -> DirectSumResult:
    """Counts plus rank: together they certify the direct sum.

    The rank is the dimension when the pairing certificate holds; when it
    fails, the exact rank of the component matrix is reported with the
    certificate's culprit.
    """
    dim = basis_S(n, r).dim
    count = sum(map(len, face_monomials(n, r).values()))
    culprit = certify_pairing(n, r)
    rank = dim if culprit is None else component_matrix(n, r).rank()
    return DirectSumResult(
        n=n, r=r, space_dim=dim, component_count=count, rank=rank, culprit=culprit
    )


def _split_axis(state: dict[tuple, dict[Exponents, int]], j: int, free) -> Iterable[tuple]:
    """One split pass, along x_j.  Each part, its pins so far mapped to
    integer terms, sends every term c x^e with a = e_j to three places:
    c to the pin (j, 1) and (-1)^a c to the pin (j, -1), both at x_j^0,
    and f c to x_j^k on its own pins for each (k, f) in the free map
    ``free(pins, e[:j], a)``.  Terms that meet add up."""
    for pins, part in state.items():
        plus: dict[Exponents, int] = {}
        minus: dict[Exponents, int] = {}
        stay: dict[Exponents, int] = {}
        for e, c in part.items():
            if not c:
                continue
            head, a, tail = e[:j], e[j], e[j + 1 :]
            e0 = head + (0,) + tail
            plus[e0] = plus.get(e0, 0) + c
            minus[e0] = minus.get(e0, 0) + (-c if a % 2 else c)
            for k, f in free(pins, head, a):
                ek = head + (k,) + tail
                stay[ek] = stay.get(ek, 0) + f * c
        if plus:
            yield pins + ((j, 1),), plus
            yield pins + ((j, -1),), minus
        if stay:
            yield pins, stay


def _split(p: Polynomial, free) -> tuple[int, dict[tuple, dict[Exponents, int]]]:
    """(den, parts): p cleared over den, the lcm of its denominators, and
    split along x_1, ..., x_n with the free map."""
    terms = p.terms()
    den = lcm(*(c.denominator for _, c in terms))
    state = {(): {e: c.numerator * (den // c.denominator) for e, c in terms}}
    for j in range(p.n):
        state = dict(_split_axis(state, j, free))
    return den, state


def _dof_values(p: Polynomial, r: int) -> tuple[int, list[int]]:
    """(den, D p): the DOF values of p in DOF order, integers over den.
    L_{F,w}(p) is the sum over p's terms c x^e of c times, per axis, s^e_j
    along a pin at s and mu(e_j + w_j) along a free axis, mu(k) = 2/(k + 1)
    for even k and 0 for odd k.  So the free map sends x^a to each weight
    w of a's parity with M mu(a + w), M = lcm(1, 3, ..., 2r + 1), up to the
    room r - 2 (free axes so far + 1) - |e[:j]| left to a face's weights,
    and a d-face holds its values at its weights, over den M^d."""
    n, M = p.n, lcm(*range(1, 2 * r + 2, 2))

    def free(pins, head, a):
        room = r - 2 * (len(head) - len(pins) + 1) - sum(head)
        return [(w, 2 * M // (a + w + 1)) for w in range(a % 2, room + 1, 2)]

    den, parts = _split(p, free)
    index = face_monomials(n, r).items()
    values = [parts.get(f.fixed, {}).get(w, 0) * M ** (n - f.dim) for f, ws in index for w in ws]
    return den * M**n, values


def decompose(
    p: Polynomial, r: int, method: Literal["solve", "construct"] = "solve"
) -> dict[Face, FaceComponent]:
    """Split a member of the serendipity space into its face components.

    Returns only faces with a nonzero component.  The two methods are
    algorithmically independent and must agree; both are exact.  Solve
    reads the component coordinates C^-1 p as X (D p), ``_dof_values``
    mapped by ``_multipliers``.  Construct splits p by the quotient map,
    and a face with k pins then holds den 2^k times its coefficient,
    which must fit the face's degree budget r - 2d.
    """
    n = p.n
    if n < 1 or r < 1:
        raise ValueError("decomposition requires n >= 1 and r >= 1")
    if p.superlinear_degree() > r:
        raise ValueError(
            f"polynomial has superlinear degree {p.superlinear_degree()} > r = {r}"
        )
    if method == "solve":
        den, values = _dof_values(p, r)
        scale, multipliers = _multipliers(values, n, r)
        parts = {face: (terms, den * scale) for face, terms in multipliers.items()}
    elif method == "construct":
        den, split = _split(p, lambda pins, head, a: ((k, -1) for k in range(a - 2, -1, -2)))
        parts = {Face(n, pins): (terms, den << len(pins)) for pins, terms in split.items()}
        for face, (terms, _) in parts.items():
            budget = r - 2 * face.dim
            if any(sum(e) > budget for e, y in terms.items() if y):
                raise AssertionError(f"a coefficient on {face} exceeds its degree budget {budget}")
    else:
        raise ValueError(f"unknown method {method!r}")
    coefficients = {
        face: Polynomial(n, ((e, Fraction(y, scale)) for e, y in terms.items() if y))
        for face, (terms, scale) in parts.items()
    }
    return {face: FaceComponent(face, c) for face, c in coefficients.items() if c}


def recompose(components: dict[Face, FaceComponent], n: int) -> Polynomial:
    """Sum of the components; inverse of decompose.  The coefficients are
    cleared over one lcm and ``_merge`` sums the b_F m_F."""
    if any(fc.face.n != n or fc.coefficient.n != n for fc in components.values()):
        raise ValueError(f"components must all live in n = {n} variables")
    terms = [(fc.face, fc.coefficient.terms()) for fc in components.values()]
    den = lcm(*(c.denominator for _, t in terms for _, c in t))
    multipliers: dict[Face, dict[Exponents, int]] = {}
    for face, t in terms:
        part = multipliers.setdefault(face, {})
        for q, c in t:
            part[q] = part.get(q, 0) + c.numerator * (den // c.denominator)
    return _merge(n, multipliers, den)


@dataclass(frozen=True)
class FacetKernelResult:
    """Outcome of characterizing the boundary-vanishing subspace."""

    n: int
    r: int
    space_dim: int
    kernel_dim: Optional[int]
    expected_dim: int
    candidates_contained: bool
    candidates_independent: bool
    gram_positive_definite: bool
    gram: RationalMatrix
    culprit: Optional[str] = None

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
            "culprit": self.culprit,
        }


@lru_cache(maxsize=None)
def facet_kernel_check(n: int, r: int) -> FacetKernelResult:
    """The subspace with vanishing trace on every facet must be exactly
    the full-cube bubble times total degree r - 2n (empty for r < 2n).

    The kernel dimension is a corollary of the pairing certificate: a
    member vanishing on the boundary has zero DOFs on every proper face,
    and K restricted to the proper faces is triangular and invertible,
    so every proper component vanishes.  Without the certificate the
    dimension is unknown (None).  The candidates b x^q restrict to a
    facet as (b there) x^q, so b vanishing on the 2n facets contains
    them; c^T G c is the cube integral of (b sum c_q x^q)^2, so their
    Gram matrix G is positive definite exactly when they are independent.
    b is a product of one factor per axis, so it vanishes on the facet
    x_j = s when its factor along x_j does at s, and b^2 is the product
    of the squared factors: the entry for b x^w and b x^q is the cube
    moment of x^(w + q) times those.
    """
    culprit = certify_pairing(n, r)
    expected_dim = dim_P(n, r - 2 * n)
    cube = full_cube(n)
    factors = _bubble_factors(cube)
    multipliers = monomials_total_degree_at_most(n, tuple(range(n)), r - 2 * n)
    contained, gram = True, RationalMatrix([])
    if multipliers:
        contained = not any(sum(c * s**k for k, c in enumerate(f)) for f in factors for s in (-1, 1))
        squares = [[sum(f[i] * f[k - i] for i in range(len(f)) if k - i in range(len(f)))
                    for k in range(2 * len(f) - 1)] for f in factors]
        moment = cache(partial(face_moment, cube, factors=squares))
        gram = RationalMatrix(
            [[moment(tuple(map(add, w, q))) for q in multipliers] for w in multipliers]
        )
    positive_definite = gram.is_positive_definite()
    return FacetKernelResult(
        n=n,
        r=r,
        space_dim=basis_S(n, r).dim,
        kernel_dim=expected_dim if culprit is None else None,
        expected_dim=expected_dim,
        candidates_contained=contained,
        candidates_independent=positive_definite,
        gram_positive_definite=positive_definite,
        gram=gram,
        culprit=culprit,
    )
