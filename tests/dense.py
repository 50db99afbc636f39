"""Dense exact oracles for the tests.

The package proves unisolvence and the direct sum from the pairing
certificate (``decomp.certify_pairing``) and forms neither the DOF
matrix D nor the component matrix C.  These helpers build both on the
monomial basis of S_r, entry by entry from the 1-D moment rules, so that
tests can read exact dense ranks with ``dofs.RationalMatrix``.  Each
helper reads the package's index and bubbles at call time, so a
monkeypatched ``decomp.face_monomials`` or ``decomp._bubble_factors``
reaches it.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from operator import add

from serendipity import decomp
from serendipity.cubegeom import Face
from serendipity.dofs import DofFunctional, RationalMatrix
from serendipity.exactpoly import Polynomial
from serendipity.spaces import basis_S


def face_contains(outer: Face, inner: Face) -> bool:
    """Whether inner is a subface of outer: every pin of outer is a pin of
    inner."""
    if outer.n != inner.n:
        raise ValueError("faces belong to cubes of different dimension")
    return set(outer.fixed) <= set(inner.fixed)


def face_moment(face: Face, exponents: tuple[int, ...]) -> Fraction:
    """Integral of x^e over a face by the 1-D rule on each axis: t^e is
    s^e along an axis pinned at s, and integrates over [-1, 1] to
    2 / (e + 1) for even e and 0 for odd e along a free axis.  A vertex
    carries the counting measure, so its moment is a point value."""
    if len(exponents) != face.n:
        raise ValueError(f"{face} needs {face.n} exponents, got {exponents!r}")
    num = den = 1
    for s, e in zip(face.signs, exponents):
        if not s:
            if e % 2:
                return Fraction(0)
            num, den = 2 * num, (e + 1) * den
        elif s < 0 and e % 2:
            num = -num
    return Fraction(num, den)


def apply_dof(functional: DofFunctional, p: Polynomial) -> Fraction:
    """One functional applied to a polynomial, one face moment per term."""
    if p.n != functional.face.n:
        raise ValueError("polynomial and functional have different variable counts")
    face, w = functional.face, functional.exponents
    return sum((c * face_moment(face, tuple(map(add, e, w))) for e, c in p.terms()), Fraction(0))


def dof_matrix(basis: Iterable[tuple[int, ...]], functionals: Iterable[DofFunctional]) -> RationalMatrix:
    """D: entry (i, j) is functional i applied to basis monomial j; a
    SpaceBasis iterates over its monomials' exponent tuples."""
    monomials = tuple(basis)
    return RationalMatrix(
        [[face_moment(L.face, tuple(map(add, L.exponents, m))) for m in monomials] for L in functionals]
    )


def all_components(n: int, r: int) -> list[decomp.FaceComponent]:
    """One component b_F x^q per (face, monomial) pair of the index, in
    DOF order."""
    return [
        decomp.FaceComponent(face, Polynomial.from_monomial(q))
        for face, weights in decomp.face_monomials(n, r).items()
        for q in weights
    ]


def component_matrix(n: int, r: int) -> RationalMatrix:
    """C: column j is component j, the product of its monomial with
    ``decomp.bubble``, in the monomial coordinates of S_r.  Raises if a
    component leaves the space, which would falsify the membership lemma
    deg2(b_F x^q) <= r."""
    basis = basis_S(n, r)
    comps = all_components(n, r)
    rows = [[Fraction(0)] * len(comps) for _ in range(basis.dim)]
    for col, fc in enumerate(comps):
        for exps, coeff in (fc.coefficient * decomp.bubble(fc.face)).terms():
            try:
                rows[basis.index_of(exps)][col] = coeff
            except KeyError:
                raise AssertionError(
                    f"component monomial {exps} escapes the space at n={n}, r={r}"
                ) from None
    return RationalMatrix(rows)
