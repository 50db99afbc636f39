"""The benchmark's reference computations, against hand values and sympy."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

import oracles


def test_dimension_hand_values():
    assert oracles.dim_S(2, 4) == 17
    assert oracles.dim_S(3, 6) == 105
    assert oracles.dim_S(3, 8) == 192
    assert oracles.dim_S(4, 6) == 328
    assert [oracles.dim_S(1, r) for r in range(1, 6)] == [2, 3, 4, 5, 6]
    assert [oracles.dim_S(n, 1) for n in range(1, 6)] == [2, 4, 8, 16, 32]
    assert oracles.dim_S(0, 5) == 1  # the shared "facet" of two intervals is a point


def test_dimension_counts_monomials_and_dofs():
    for n in range(1, 4):
        for r in range(1, 7):
            assert len(oracles.s_exponents(n, r)) == oracles.dim_S(n, r)
            assert len(oracles.dof_set(n, r)) == oracles.dim_S(n, r)


def test_superlinear_degree():
    assert oracles.superlinear_degree((3, 1, 0)) == 3
    assert oracles.superlinear_degree((1, 1, 1)) == 0
    assert oracles.superlinear_degree((2, 2, 1)) == 4


def _random_face(rng, n):
    pinned = sorted(rng.sample(range(n), rng.randint(0, n)))
    return tuple((a, rng.choice((-1, 1))) for a in pinned)


def _sympy_face_moment(face, exps):
    xs = sympy.symbols(f"x0:{len(exps)}")
    expr = sympy.Mul(*(x**e for x, e in zip(xs, exps)))
    pinned = dict(face)
    expr = expr.subs({xs[a]: s for a, s in pinned.items()})
    for a, x in enumerate(xs):
        if a not in pinned:
            expr = sympy.integrate(expr, (x, -1, 1))
    return Fraction(str(expr))


@pytest.mark.parametrize("case", range(40))
def test_face_moment_matches_sympy(case):
    rng = random.Random(case)
    n = rng.randint(1, 3)
    face = _random_face(rng, n)
    exps = tuple(rng.randint(0, 5) for _ in range(n))
    assert oracles.face_moment(face, exps) == _sympy_face_moment(face, exps)


@pytest.mark.parametrize("case", range(10))
def test_restrict_matches_sympy(case):
    rng = random.Random(100 + case)
    n = 3
    xs = sympy.symbols(f"x0:{n}")
    poly = {tuple(rng.randint(0, 4) for _ in range(n)): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(8)}
    face = _random_face(rng, n)
    expr = sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, k)))
               for k, c in poly.items())
    expected = sympy.Poly(expr.subs({xs[a]: s for a, s in face}), *xs).as_dict()
    expected = {k: Fraction(str(v)) for k, v in expected.items() if v}
    assert oracles.restrict(poly, face) == expected


def test_apply_dofs_is_the_face_integral():
    rng = random.Random(7)
    n, r = 2, 4
    exps = oracles.s_exponents(n, r)
    dofs = sorted(oracles.dof_set(n, r))
    poly = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in exps}
    direct = [
        sum((c * oracles.face_moment(face, tuple(a + b for a, b in zip(w, e)))
             for e, c in poly.items()), Fraction(0))
        for face, w in dofs
    ]
    column = {e: k for k, e in enumerate(exps)}
    assert oracles.apply_dofs(oracles.moment_matrix(dofs, exps), column, poly) == direct


def test_evaluate_exact_at_binary_floats():
    poly = {(2, 0): Fraction(1), (0, 1): Fraction(-3, 2)}
    assert oracles.evaluate(poly, (0.5, 0.25)) == Fraction(1, 4) - Fraction(3, 8)
