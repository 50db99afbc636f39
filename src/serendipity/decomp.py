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
method's, the 1-D moments, gives the DOF values of p.  Merge pass j
(``_merge``) multiplies each part by its bubble's factor along x_j, so
the n passes form the sum of b_F m_F.

Pairing the DOFs with the components gives the paper's unisolvence
proof.  Let K = D C, where D is the DOF matrix and C the component
matrix on the monomial basis, so K[(F, w), (G, q)] = L_{F,w}(b_G x^q).
``certify_pairing`` checks each face's index and bubble once, and the
orthogonal polynomials of the weight 1 - t^2 in one variable.  It
follows that K is block lower triangular over faces and each diagonal
block is 2^(n-d) T lam T^T, T unit lower triangular and lam positive
diagonal, so K, hence D and C, is nonsingular without any elimination.

The multipliers m = K^-1 v of DOF values v are found in the orthogonal
coordinates (``_solve``).  With the weights J_w and the components
b_G J_k, K is a product over axes: 2 along an axis that F pins, lam_w
(w = k) along one that G leaves free, and eta_s(w), the integral of
(1 + s t) J_w, along one that F leaves free and G pins at s.  So 3n
integer passes, one per axis for each step, take v into J weights,
apply the inverse factors and take the multipliers back to monomials.
Nothing is eliminated, and no column of K^-1 is formed.

The facet kernel check is the paper's boundary lemma, read off the same
certificate: the members vanishing on the whole boundary are exactly
the cube's components b x^q, contained because the cube bubble's factors
vanish at both ends, independent because the cube's diagonal block is
nonsingular, and all of them because K is triangular.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache, lru_cache, partial
from math import gcd, lcm, prod

from .cubegeom import Face
from .exactpoly import Exponents, Polynomial, Record, grlex_key
from .spaces import dim_P, dim_S_formula, face_monomials


__all__ = [
    "FaceComponent",
    "bubble",
    "index_count",
    "certify_pairing",
    "DirectSumResult",
    "verify_direct_sum",
    "decompose",
    "recompose",
    "FacetKernelResult",
    "facet_kernel_check",
]


class SingularMatrixError(ArithmeticError):
    """Raised when a solve over the pairing finds it uncertified
    (``certify_pairing``), or when ``dofs.RationalMatrix.solve`` meets a
    rank-deficient matrix."""


class FaceComponent(Record):
    """One summand of a decomposition: coefficient times the face bubble."""

    face: Face
    coefficient: Polynomial

    def __init__(self, face: Face, coefficient: Polynomial) -> None:
        self.__dict__.update(face=face, coefficient=coefficient)

    @property
    def component(self) -> Polynomial:
        """The summand itself, formed on each read by the merge pass."""
        return recompose({self.face: self}, self.face.n)


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


@cache
def _orthogonal(m: int) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    """(U, lam): the monic orthogonal polynomials J_0, ..., J_m for the
    weight 1 - t^2 on [-1, 1], Gegenbauer C^(3/2) up to scale, as their
    coefficients J_k = sum of U[k][a] t^a, and their norms lam_k, by the
    recurrence J_(k+1) = t J_k - beta_k J_(k-1) with beta_k =
    k (k + 2) / ((2k + 1)(2k + 3)), lam_0 = 4/3 and lam_k = lam_(k-1) beta_k."""
    U, lam = [(Fraction(1),), (Fraction(0), Fraction(1))], [Fraction(4, 3)]
    for k in range(1, m + 1):
        beta = Fraction(k * (k + 2), (2 * k + 1) * (2 * k + 3))
        U.append(tuple(a - beta * b for a, b in zip((0, *U[k]), (*U[k - 1], 0, 0))))
        lam.append(lam[k - 1] * beta)
    return tuple(U[: m + 1]), tuple(lam[: m + 1])


@cache
def _weight_culprit(m: int) -> str | None:
    """Part (iv) of ``certify_pairing`` for degrees up to m = r - 2, in
    O(m^3): the inner products <J_k, t^a> = sum over b of U[k][b] mu(a + b)
    with the moments mu(j) = 4 / ((j + 1)(j + 3)) of 1 - t^2, 0 for odd j."""
    U, lam = _orthogonal(m)
    mu = [Fraction(0 if j % 2 else 4, (j + 1) * (j + 3)) for j in range(2 * m + 1)]
    for k in range(m + 1):
        if len(U[k]) != k + 1 or U[k][k] != 1:
            return f"Gram block: J_{k} is not monic of degree {k}"
        if not lam[k] > 0:
            return f"Gram block: the norm lam_{k} = {lam[k]} is not positive"
        for a in range(k + 1):
            inner, want = sum(c * mu[a + b] for b, c in enumerate(U[k])), lam[k] if a == k else 0
            if inner != want:
                return f"Gram block: <J_{k}, t^{a}> = {inner} under 1 - t^2, not {want}"
    return None


def index_count(n: int, r: int) -> int:
    """The number of (face, weight) pairs of the index ``face_monomials(n,
    r)``: the count of DOFs and of components, and dim S_r when
    ``certify_pairing(n, r)`` holds (``spaces.serendipity_exponents``)."""
    return sum(map(len, face_monomials(n, r).values()))


@lru_cache(maxsize=None)
def certify_pairing(n: int, r: int) -> str | None:
    """Certify that the pairing K = D C is nonsingular, which proves the
    DOFs unisolvent and the components a basis of S_r at once.

    Returns None when every part holds, else names the first failure:

    (i) counts: the (face, monomial) pairs of the index are as many as the
        closed form gives;
    (ii) index: each d-face's weights are distinct, in graded lex order,
        supported on its free axes, of degree <= r - 2d and dim P_{r-2d}
        in number: exactly P_{r-2d} in the free axes, in order;
    (iii) bubble: its factor is 1 - t^2 along a free axis (constant term
        1, zero at both ends) and 1 + s t along an axis pinned at s
        (linear, 0 at -s, 2 at s);
    (iv) Gram block: the polynomials J_0, ..., J_{r-2} of ``_orthogonal``
        are monic of degrees 0, 1, ..., r - 2 and, under the moments mu of
        the weight 1 - t^2, <J_k, t^a> is 0 for a < k and lam_k > 0 for
        a = k: a check in one variable, no matrix formed.

    The rest are lemmas.  By (i) and (ii) every face with a nonempty
    P_{r-2d} is indexed, as the closed form sums dim P_{r-2d} over all
    faces.  So the index's monomials (``spaces.serendipity_exponents``)
    are distinct and are exactly those of superlinear degree <= r, and
    the count is dim S_r, with no basis enumerated.  The component b_G x^q
    has superlinear degree at most |q| + 2d <= r, so it lies in S_r.  For G not in F, a pin (j, s) of F
    that G lacks zeroes the factor of b_G along x_j at s, so K is block
    lower triangular with faces ordered by dimension.  On its own d-face
    b_F is 2^(n-d) times the product of (1 - x_i^2) over the free axes,
    and every d-face has the same weights over its free axes in the same
    order, so each diagonal block equals its dimension's representative:
    2^(n-d) times the d-th tensor power of M[a, b] = mu(a + b) restricted
    to S = P_{r-2d}.  By (iv) U M, U the coefficients of the J_k, is upper
    triangular with diagonal lam, so U M U^T = lam and M = T lam T^T with
    T = U^-1 unit lower triangular.  S is closed under lowering an
    exponent, so the tensor power T_S of T restricted to S is the block's
    triangular factor: K[H, H] = 2^(n-d) T_S lam_S T_S^T > 0.
    A cube symmetry keeps degrees and sends free axes to free axes and
    factors to factors, so it maps each index and bubble onto the image
    face's; the weights go in order and unsigned when it keeps the free
    axes in order and flips pinned axes only, as
    ``cubegeom.face_symmetry`` does.

    The certificate is one-sided: a failure proves nothing singular.
    """
    index, count = face_monomials(n, r), index_count(n, r)
    if count != dim_S_formula(n, r):
        return f"count: {count} (face, monomial) pairs, closed form {dim_S_formula(n, r)}"
    checked: dict[tuple[int, ...], tuple] = {}  # free axes -> weights that passed (ii)
    for face, weights in index.items():
        budget, pins = r - 2 * face.dim, dict(face.fixed)
        # (ii) reads only the free axes: the same tuple passes on every face
        if checked.get(face.free_indices) is not weights:
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
            checked[face.free_indices] = weights
        for j, factor in enumerate(_bubble_factors(face)):
            expected = (1, pins[j], 0) if j in pins else (1, 0, -1)
            if factor != expected:
                return (
                    f"bubble: along x{j + 1} the bubble of {face} has the factor "
                    f"{factor}, not {expected} (coefficients of 1, t, t^2)"
                )
    return _weight_culprit(r - 2)


def _over_lcm(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """(D, rows times D): the rows cleared by D, their least common denominator."""
    D = lcm(*(c.denominator for row in rows for c in row))
    return D, [[c.numerator * (D // c.denominator) for c in row] for row in rows]


@cache
def _pair_passes(r: int) -> tuple[tuple, tuple, tuple]:
    """The three kinds of axis pass of ``_solve``, as (D, free, pinned,
    drop), each table cleared by its lcm D: along x_j a part free there
    sends x_j^a to x_j^k times f for each (k, f) in free(room, a), room
    the weight budget it has left; a part pinned there at s is multiplied
    by pinned, and with drop also sends x_j^0 to the part without the pin
    by drop(s, room, 0).  With (U, lam) of ``_orthogonal(r - 2)`` and
    eta_s(k) the integral of (1 + s t) J_k over [-1, 1], from U:

    into J weights, x^a to the J_k >= it: free f = D U[k][a], pinned D;
    pairing inverse: free f = D / lam_a at k = a, pinned D / 2, and
        drop f = -D eta_s(k) / (2 lam_k) for every k within the room;
    back to monomials, J_a to the x^q <= it: free f = D U[a][q], pinned D.
    """
    U, lam = _orthogonal(r - 2)
    eta = [[sum(c * Fraction(2 * s**a, a + 1 + a % 2) for a, c in enumerate(J)) for J in U]
           for s in (1, -1)]
    D, T = _over_lcm(U)
    E, (half, inverse, plus, minus) = _over_lcm(
        [[Fraction(1, 2)], [1 / l for l in lam], *([-e / (2 * l) for e, l in zip(row, lam)] for row in eta)]
    )
    return (
        (D, cache(lambda room, a: tuple((k, T[k][a]) for k in range(a, a + room + 1, 2))), D, None),
        (E, cache(lambda room, a: ((a, inverse[a]),)), half[0],
         cache(lambda s, room, a: tuple(zip(range(room + 1), plus if s > 0 else minus)))),
        (D, cache(lambda room, a: tuple((q, T[a][q]) for q in range(a % 2, a + 1, 2))), D, None),
    )


def _pair_axis(state: dict, j: int, n: int, r: int, free, pinned: int, drop) -> dict:
    """One pass of ``_solve`` along x_j with the maps of ``_pair_passes``;
    terms that meet add up, and only parts with a nonzero term are kept."""
    out: dict[tuple, dict[Exponents, int]] = {}
    for pins, part in state.items():
        s = dict(pins).get(j)
        if s is not None:
            out[pins] = {e: pinned * c for e, c in part.items()}
            if drop is None:
                continue
            pins, step = tuple(p for p in pins if p[0] != j), partial(drop, s)
        else:
            step = free
        budget, target = r - 2 * (n - len(pins)), out.setdefault(pins, {})
        for e, c in part.items():
            head, tail = e[:j], e[j + 1 :]
            for k, f in step(budget - sum(e), e[j]):
                ek = head + (k,) + tail
                target[ek] = target.get(ek, 0) + f * c
    return {pins: part for pins, part in out.items() if any(part.values())}


def _solve(n: int, r: int, den: int, parts: dict[tuple, dict[Exponents, int]]) -> tuple[int, dict]:
    """The multipliers m = K^-1 v for DOF values v, as (scale, parts).
    v comes as face parts, the one form of DOF data inside the package:
    each face's pins map weights of the face in the index to integers over
    den, and what is left out is 0.  Each face with a nonzero multiplier,
    keyed by its pins in DOF order, maps its weight q to scale times the
    multiplier of b_F x^q; ``_merge`` of the parts gives scale times the
    sum of b_F m_F.  The pairing must be certified; its culprit is raised.

    In the weights J_w and the components b_G J_k, K is a product of one
    factor per axis, so it is solved by passes along x_1, ..., x_n: n into
    J weights, n through the inverse factors, n back to monomials
    (``_pair_passes``).  Each pass multiplies every part by its table's
    lcm, so all integers stay over one scale, reduced by the gcd at the end.
    """
    culprit = certify_pairing(n, r)
    if culprit is not None:
        raise SingularMatrixError(f"pairing at n={n}, r={r} is not certified: {culprit}")
    state, scale = {pins: part for pins, part in parts.items() if any(part.values())}, den
    for D, *maps in _pair_passes(r):
        for j in range(n):
            state = _pair_axis(state, j, n, r, *maps)
        scale *= D**n
    g = gcd(scale, *(y for part in state.values() for y in part.values()))
    parts = {f.fixed: {q: y // g for q, y in state[f.fixed].items() if y} for f in face_monomials(n, r) if f.fixed in state}
    return scale // g, parts


def _merge(n: int, parts: dict[tuple, dict[Exponents, int]]) -> dict[Exponents, int]:
    """The sum of b_F m_F as integer terms, each m_F given as integer
    terms keyed by F's pins, by passes from x_n down to x_1: a part pinned
    at x_j = s is multiplied by 1 + s x_j and drops the pin, any other part
    by 1 - x_j^2, and parts that meet add up.  The sum is the one part
    left, keyed by no pins."""
    state = {pins: {q: y for q, y in m.items() if y} for pins, m in parts.items()}
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
    return state.get((), {})


class DirectSumResult(Record):
    n: int
    r: int
    space_dim: int
    component_count: int
    rank: int | None
    culprit: str | None = None
    _derived = ("dims_match", "full_rank", "ok")

    @property
    def dims_match(self) -> bool:
        return self.component_count == self.space_dim

    @property
    def full_rank(self) -> bool:
        return self.rank == self.space_dim

    @property
    def ok(self) -> bool:
        return self.dims_match and self.full_rank


def verify_direct_sum(n: int, r: int) -> DirectSumResult:
    """Counts plus rank: together they certify the direct sum.

    The components are indexed by the (face, weight) pairs, so their count
    is ``index_count``, which is also dim S_r when the pairing certificate
    holds; so is the rank of the components.  The certificate is
    one-sided, so when it fails the rank is unknown (None) and is reported
    with the certificate's culprit.
    """
    dim = index_count(n, r)
    culprit = certify_pairing(n, r)
    return DirectSumResult(
        n=n, r=r, space_dim=dim, component_count=dim,
        rank=dim if culprit is None else None, culprit=culprit,
    )


def _split_axis(state: dict[tuple, dict[Exponents, int]], j: int, free) -> Iterable[tuple]:
    """One split pass, along x_j.  Each part, its pins so far mapped to
    integer terms, sends every term c x^e with a = e_j to three places:
    c to the pin (j, 1) and (-1)^a c to the pin (j, -1), both at x_j^0,
    and f c to x_j^k on its own pins for each (k, f) in the free map
    ``free(j - len(pins), sum(e[:j]), a)``.  Terms that meet add up."""
    for pins, part in state.items():
        axes = j - len(pins)
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
            for k, f in free(axes, sum(head), a):
                ek = head + (k,) + tail
                stay[ek] = stay.get(ek, 0) + f * c
        if plus:
            yield pins + ((j, 1),), plus
            yield pins + ((j, -1),), minus
        if stay:
            yield pins, stay


def _split(state: dict[tuple, dict[Exponents, int]], n: int, free) -> dict[tuple, dict[Exponents, int]]:
    """The split passes along x_1, ..., x_n with the free map."""
    for j in range(n):
        state = dict(_split_axis(state, j, free))
    return state


@cache
def _moments(r: int, axes: int, degree: int, a: int) -> tuple[tuple[int, int], ...]:
    """The moment free map at x^a after free axes whose weights sum to
    degree: each weight w of a's parity within the room left to a face's
    weights, with M mu(a + w), mu(k) = 2/(k + 1) for even k and 0 for odd
    k, M = lcm(1, 3, ..., 2r + 1).  L_{F,w}(p) is the sum over p's terms
    c x^e of c times, per axis, s^(e_j) along a pin at s and
    mu(e_j + w_j) along a free axis, so a d-face holds its values over M^d."""
    M = lcm(*range(1, 2 * r + 2, 2))
    room = r - 2 * (axes + 1) - degree
    return tuple((w, 2 * M // (a + w + 1)) for w in range(a % 2, room + 1, 2))


def _dof_values(p: Polynomial, r: int) -> tuple[int, dict[tuple, dict[Exponents, int]]]:
    """(den, D p): the DOF values of p as face parts keyed by pins,
    integers over den, from the unpruned moment passes, which hold a
    d-face's values over M^d; a part may hold zeros, and its faces and
    weights lie in the index."""
    n, M = p.n, lcm(*range(1, 2 * r + 2, 2))
    den, terms = p._cleared()
    parts = _split({(): terms}, n, partial(_moments, r))
    return den * M**n, {pins: {w: v * M ** len(pins) for w, v in part.items()} for pins, part in parts.items()}


def decompose(
    p: Polynomial, r: int, method: str = "solve"
) -> dict[Face, FaceComponent]:
    """Split a member of the serendipity space into its face components.

    Returns only faces with a nonzero component, in DOF order.  The two
    methods are algorithmically independent and must agree; both are
    exact.  Solve reads the component coordinates C^-1 p as K^-1 (D p):
    ``_dof_values`` solved by the per-axis passes of ``_solve``.  Construct
    splits p by the quotient map, and a face with k pins then holds
    den 2^k times its coefficient, which must fit the face's degree
    budget r - 2d.
    """
    n = p.n
    if n < 1 or r < 1:
        raise ValueError("decomposition requires n >= 1 and r >= 1")
    if p.superlinear_degree() > r:
        raise ValueError(
            f"polynomial has superlinear degree {p.superlinear_degree()} > r = {r}"
        )
    if method == "solve":
        scale, multipliers = _solve(n, r, *_dof_values(p, r))
        parts = {Face(n, pins): (terms, scale) for pins, terms in multipliers.items()}
    elif method == "construct":
        den, cleared = p._cleared()
        split = _split({(): cleared}, n, lambda axes, degree, a: ((k, -1) for k in range(a - 2, -1, -2)))
        for pins, terms in split.items():
            budget = r - 2 * (n - len(pins))
            if any(sum(e) > budget for e, y in terms.items() if y):
                raise AssertionError(f"a coefficient on {Face(n, pins)} exceeds its degree budget {budget}")
        # a face with a nonzero part is then in the index: take its order
        parts = {f: (split[f.fixed], den << len(f.fixed)) for f in face_monomials(n, r) if f.fixed in split}
    else:
        raise ValueError(f"unknown method {method!r}")
    coefficients = {face: Polynomial._over(n, terms, scale) for face, (terms, scale) in parts.items()}
    return {face: FaceComponent(face, c) for face, c in coefficients.items() if c}


def recompose(components: dict[Face, FaceComponent], n: int) -> Polynomial:
    """Sum of the components; inverse of decompose.  The coefficients are
    cleared over one lcm and ``_merge`` sums the b_F m_F."""
    if any(fc.face.n != n or fc.coefficient.n != n for fc in components.values()):
        raise ValueError(f"components must all live in n = {n} variables")
    cleared = [(fc.face, fc.coefficient._cleared()) for fc in components.values()]
    den = lcm(*(d for _, (d, _) in cleared))
    multipliers: dict[tuple, dict[Exponents, int]] = {}
    for face, (d, terms) in cleared:
        part, k = multipliers.setdefault(face.fixed, {}), den // d
        for q, v in terms.items():
            part[q] = part.get(q, 0) + v * k
    return Polynomial._over(n, _merge(n, multipliers), den)


class FacetKernelResult(Record):
    """Outcome of characterizing the boundary-vanishing subspace."""

    n: int
    r: int
    space_dim: int
    kernel_dim: int | None
    expected_dim: int
    culprit: str | None = None
    _derived = ("ok",)

    @property
    def ok(self) -> bool:
        return self.kernel_dim == self.expected_dim


@lru_cache(maxsize=None)
def facet_kernel_check(n: int, r: int) -> FacetKernelResult:
    """The paper's boundary lemma: the members of S_r whose trace vanishes
    on every facet are exactly b P_{r-2n}, b the cube bubble (none for
    r < 2n), which is the cube's own component space.  The whole report
    is read off ``certify_pairing``:

    containment: part (iii) gives b the factor 1 - t^2 along every axis,
        zero at both ends, so each b x^q vanishes on the 2n facets;
    independence: part (iv) makes the cube's diagonal block, the moments
        of x^(w + q) b, T_S lam_S T_S^T with T_S unit triangular and
        lam_S positive, so no nonzero combination of the b x^q vanishes;
    dimension: a boundary-vanishing member has zero DOFs on every proper
        face, and K is block lower triangular with nonsingular diagonal
        blocks, so its proper components vanish.

    Without the certificate the dimension is unknown (None) and the
    check fails.  The space dimension is ``index_count``.
    """
    culprit = certify_pairing(n, r)
    expected_dim = dim_P(n, r - 2 * n)
    return FacetKernelResult(
        n=n,
        r=r,
        space_dim=index_count(n, r),
        kernel_dim=expected_dim if culprit is None else None,
        expected_dim=expected_dim,
        culprit=culprit,
    )
