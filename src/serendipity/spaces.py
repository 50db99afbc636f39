"""Monomial bases for the polynomial families on cube faces.

Three families, each realized as an explicit ordered monomial basis:

* P, total degree at most s (on a face, in its free variables only),
* Q, degree at most r separately in each variable,
* S, the serendipity family: monomials whose superlinear degree is at
  most r, i.e. the total degree may exceed r only through variables
  that enter linearly.

The S basis is read off the element's index, the same (face, weight)
pairs that order the DOFs.  The paper's count of S_r pairs each d-face
with free axes J and a moment weight of degree at most r - 2d on J with
one monomial: exponent 2 plus the weight's on J (its superlinear
axes), and 1 or 0 on each pinned axis by the sign it is pinned at.
Membership in the two equivalent definitions, distinctness, the count
and the inclusions P_r in S_r in P_{r+n-1} are lemmas of the pairing
certificate's index part (``decomp.certify_pairing``), proved in the
docstrings of ``serendipity_exponents`` and ``check_inclusions``; no
monomial is tested at run time.

A monomial is its exponent tuple throughout.  ``face_monomials`` is the
element's one (face, monomial) index: it orders both the DOFs and the
face components.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import comb

from .cubegeom import Face, all_faces, full_cube
from .exactpoly import Exponents, Record, grlex_key, superlinear_degree

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
    "face_monomials",
    "check_inclusions",
    "InclusionReport",
]


class SpaceBasis(Record):
    """An ordered monomial basis for one family on one face; each
    monomial is its exponent tuple."""

    family: str
    n: int
    degree: int
    face: Face
    monomials: tuple[Exponents, ...]
    _derived = ("dim",)

    def __post_init__(self) -> None:
        if self.family not in ("P", "Q", "S"):
            raise ValueError(f"unknown family {self.family!r}")
        # strictly increasing keys are sorted and distinct, in one pass
        if any(a >= b for a, b in itertools.pairwise(map(grlex_key, self.monomials))):
            raise ValueError("basis monomials must be distinct and sorted")

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    @cached_property
    def _index(self) -> dict[Exponents, int]:
        return {m: i for i, m in enumerate(self.monomials)}

    def index_of(self, exponents: Exponents) -> int:
        """Position of a monomial in the basis order, or raise KeyError."""
        return self._index[tuple(exponents)]

    def to_json_obj(self) -> dict:
        obj = super().to_json_obj()
        obj["r"] = obj.pop("degree")
        return obj


def monomials_total_degree_at_most(
    n: int, indices: tuple[int, ...], s: int
) -> list[Exponents]:
    """Exponent tuples of total degree <= s supported on the given axes.

    Ambient length n, zero on all other axes, graded lex order.  Empty
    for s < 0; just the zero tuple for s >= 0 with no axes.
    """
    out: list[Exponents] = [(0,) * n] if s >= 0 else []
    for axis in indices:
        out = [m[:axis] + (e,) + m[axis + 1 :] for m in out for e in range(s - sum(m) + 1)]
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


@lru_cache(maxsize=None)
def face_monomials(n: int, r: int) -> dict[Face, tuple[Exponents, ...]]:
    """The serendipity element's one index: every d-face mapped to the
    monomials of total degree <= r - 2d in its free variables.

    The (face, monomial) pairs serve both as DOF moment weights and as
    bubble multipliers of the face components.  Faces come in DOF order
    (face dimension, then canonical face order) with their monomials in
    graded lex; faces without monomials are left out.  The 2^(n-d) faces
    on one set of free axes share one weight tuple.
    """
    faces = all_faces(n)
    weights = {
        free: tuple(monomials_total_degree_at_most(n, free, r - 2 * len(free)))
        for free in dict.fromkeys(face.free_indices for face in faces)
    }
    return {face: weights[face.free_indices] for face in faces if weights[face.free_indices]}


def dim_P(d: int, s: int) -> int:
    """Dimension of total-degree-at-most-s polynomials in d variables."""
    if s < 0:
        return 0
    return comb(s + d, d)


def dim_Q(n: int, r: int) -> int:
    if r < 0:
        return 0
    return (r + 1) ** n


def dim_S_formula(n: int, r: int) -> int:
    """Closed-form dimension of the serendipity family on the n-cube."""
    if n < 1 or r < 1:
        raise ValueError("serendipity family requires n >= 1 and r >= 1")
    return sum(
        2 ** (n - d) * comb(n, d) * comb(r - d, d)
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
    """The S basis exponents read off the index, graded lex.

    Each (face, weight) pair (F, w) of ``face_monomials(n, r)`` gives one
    monomial m: w + 2 on each free axis of F, 1 on each axis pinned at +1
    and 0 on each axis pinned at -1.  Part (ii) of
    ``decomp.certify_pairing`` gives a d-face F on the free axes J exactly
    the weights of P_{r-2d} on J, so:

    * m has superlinear degree |w| + 2d <= r, its superlinear axes J;
    * the linear axes of m are its +1 pins, and there are at least s - r
      of them, s = |w| + 2d + (number of +1 pins) its total degree, as
      |w| + 2d <= r;
    * F and w are read back from m (J where m_j >= 2, the pins where m_j
      is 1 or 0, w = m - 2 on J), so the monomials are distinct;
    * every m of superlinear degree <= r arises: take J = {j : m_j >= 2},
      the pins off the rest and w = m - 2 on J, of degree <= r - 2|J|.

    So these are the monomials of both definitions,
    ``has_superlinear_degree_at_most`` and
    ``is_linear_outside_degree_budget``, each once; the tests keep those
    two as oracles.
    """
    if n < 1 or r < 1:
        raise ValueError("serendipity family requires n >= 1 and r >= 1")
    out = [
        tuple([e + 2 if not s else int(s > 0) for e, s in zip(w, face.signs)])
        for face, weights in face_monomials(n, r).items()
        for w in weights
    ]
    out.sort(key=grlex_key)
    return out


@lru_cache(maxsize=None)
def basis_P(face: Face, s: int) -> SpaceBasis:
    """Total-degree family on a face, in the face's free variables."""
    exps = monomials_total_degree_at_most(face.n, face.free_indices, s)
    return SpaceBasis("P", face.n, s, face, tuple(exps))


@lru_cache(maxsize=None)
def basis_Q(n: int, r: int) -> SpaceBasis:
    """Tensor-product family on the full cube: each exponent <= r."""
    if n < 1 or r < 0:
        raise ValueError("family Q requires n >= 1 and r >= 0")
    exps = monomials_max_degree_at_most(n, tuple(range(n)), r)
    return SpaceBasis("Q", n, r, full_cube(n), tuple(exps))


@lru_cache(maxsize=None)
def basis_S(n: int, r: int) -> SpaceBasis:
    """Serendipity family on the full cube (requires r >= 1)."""
    exps = serendipity_exponents(n, r)
    basis = SpaceBasis("S", n, r, full_cube(n), tuple(exps))
    if basis.dim != dim_S_formula(n, r):
        raise AssertionError(
            f"enumerated {basis.dim} monomials but formula gives "
            f"{dim_S_formula(n, r)} for n={n}, r={r}"
        )
    return basis


class InclusionReport(Record):
    """Sandwich of the serendipity family between two total-degree families."""

    n: int
    r: int
    contains_total_degree_r: bool
    within_total_degree_r_plus: bool
    dim_P_r: int
    dim_S_r: int
    dim_Q_r: int
    culprit: str | None = None

    @property
    def ok(self) -> bool:
        return self.contains_total_degree_r and self.within_total_degree_r_plus


def check_inclusions(n: int, r: int) -> InclusionReport:
    """P_r is contained in S_r and S_r in P_{r + n - 1}, read off the
    pairing certificate ``decomp.certify_pairing(n, r)``.  When it holds,
    S_r is spanned by the monomials of ``serendipity_exponents``, those of
    superlinear degree at most r, and both inclusions are lemmas:

    P_r in S_r: the total degree bounds the superlinear degree;
    S_r in P_{r + n - 1}: the monomial of (F, w), F a d-face, has total
        degree |w| + 2d + (number of +1 pins) <= r - 2d + 2d + (n - d)
        = r + n - d, at most r + n - 1 for d >= 1; at a vertex it is at
        most n <= r + n - 1.

    The certificate is one-sided: when it fails, neither inclusion is
    proved, and the report names its culprit.  dim S_r is the index count.
    """
    from .decomp import certify_pairing, index_count  # decomp imports this module

    culprit = certify_pairing(n, r)
    return InclusionReport(
        n=n,
        r=r,
        contains_total_degree_r=culprit is None,
        within_total_degree_r_plus=culprit is None,
        dim_P_r=dim_P(n, r),
        dim_S_r=index_count(n, r),
        dim_Q_r=dim_Q(n, r),
        culprit=culprit,
    )
