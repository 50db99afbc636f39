"""Exact polynomial arithmetic: ring laws, degrees, integration, evaluation."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serendipity.exactpoly import (
    Monomial,
    Polynomial,
    axis_moment,
    grlex_key,
    integrate_box,
    superlinear_degree,
)


def box_moment_oracle(exponents) -> Fraction:
    """Independent full-box integral of one monomial, axis by axis."""
    value = Fraction(1)
    for e in exponents:
        if e % 2:
            return Fraction(0)
        value *= Fraction(2, e + 1)
    return value


coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def exponent_tuples(n: int, max_exp: int = 5):
    return st.tuples(*([st.integers(0, max_exp)] * n))


def polys(n: int, max_terms: int = 6):
    return st.dictionaries(exponent_tuples(n), coeffs, max_size=max_terms).map(
        lambda d: Polynomial(n, d)
    )


class TestMonomial:
    @pytest.mark.parametrize(
        "exps, expected",
        [
            ((2, 1, 3), 5),
            ((0, 0, 0), 0),
            ((1, 1, 1, 1), 0),
            ((4,), 4),
            ((2, 2), 4),
            ((1, 5, 1), 5),
        ],
    )
    def test_superlinear_degree(self, exps, expected):
        assert superlinear_degree(exps) == expected
        assert Monomial(exps).superlinear_degree == expected

    @given(exponent_tuples(4, 6))
    def test_degree_splits_into_superlinear_and_linear(self, exps):
        m = Monomial(exps)
        assert m.degree == m.superlinear_degree + sum(1 for e in exps if e == 1)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Monomial((1, -2))

    def test_order_puts_lower_total_degree_first(self):
        assert Monomial((0, 1)) < Monomial((1, 1))
        assert grlex_key((0, 1)) < grlex_key((1, 0))

    def test_str_forms(self):
        assert str(Monomial((0, 0))) == "1"
        assert str(Monomial((2, 1))) == "x1^2*x2"


class TestArithmetic:
    def test_difference_of_squares(self):
        x = Polynomial.variable(1, 0)
        assert (1 + x) * (1 - x) == 1 - x**2

    def test_two_variable_product(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = (1 - x**2) * (1 - y**2)
        assert p.coefficient((0, 0)) == 1
        assert p.coefficient((2, 0)) == -1
        assert p.coefficient((0, 2)) == -1
        assert p.coefficient((2, 2)) == 1
        assert len(p) == 4

    def test_cancellation_gives_empty_term_map(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = x * y + 3
        assert (p - p).is_zero()
        assert not (p - p)

    def test_zero_coefficients_dropped_on_construction(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert len(p) == 1
        assert p.coefficient((1, 0)) == 0

    def test_duplicate_exponents_accumulate(self):
        p = Polynomial(1, [((1,), Fraction(1)), ((1,), Fraction(2))])
        assert p.coefficient((1,)) == 3

    def test_mismatched_variable_counts_raise(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
        with pytest.raises(ValueError):
            Polynomial(2, {(1, 0, 0): 1})

    def test_scalar_operations(self):
        x = Polynomial.variable(1, 0)
        assert 2 * x - x == x
        assert (x + 1) - 1 == x
        assert Fraction(1, 2) * (2 * x) == x

    def test_degree_conventions_for_zero(self):
        z = Polynomial.zero(3)
        assert z.degree() == -1
        assert z.superlinear_degree() == -1

    def test_superlinear_degree_of_polynomial_is_max_over_terms(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = x**3 * y + x * y
        assert p.superlinear_degree() == 3
        assert p.degree() == 4

    @given(polys(2), polys(2))
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(polys(2, 4), polys(2, 4), polys(2, 4))
    @settings(max_examples=50)
    def test_multiplication_associates(self, p, q, w):
        assert (p * q) * w == p * (q * w)

    @given(polys(2, 4), polys(2, 4), polys(2, 4))
    @settings(max_examples=50)
    def test_distributive_law(self, p, q, w):
        assert p * (q + w) == p * q + p * w

    @given(polys(3))
    def test_additive_inverse(self, p):
        assert (p + (-p)).is_zero()

    @given(polys(2))
    def test_terms_are_sorted_and_nonzero(self, p):
        ts = p.terms()
        keys = [grlex_key(e) for e, _ in ts]
        assert keys == sorted(keys)
        assert all(c != 0 for _, c in ts)


class TestEvaluation:
    def test_exact_corner_value(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = Fraction(1, 4) * (1 + x) * (1 + y)
        assert p.evaluate((1, 1)) == 1
        assert p.evaluate((-1, 1)) == 0
        assert p(Fraction(1, 2), 0) == Fraction(3, 8)

    def test_monomial_with_signs(self):
        p = Polynomial.from_monomial((2, 1, 3))
        assert p.evaluate((1, 1, -1)) == -1

    def test_float_path_matches_exact_path(self):
        rng = random.Random(5)
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = 3 * x**4 * y - Fraction(7, 3) * x * y**2 + 2
        for _ in range(20):
            a = Fraction(rng.randint(-8, 8), 8)
            b = Fraction(rng.randint(-8, 8), 8)
            exact = p.evaluate((a, b))
            approx = p.evaluate((float(a), float(b)))
            assert abs(approx - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))

    def test_wrong_point_length_raises(self):
        with pytest.raises(ValueError):
            Polynomial.one(2).evaluate((1,))

    def test_zero_polynomial_evaluates_to_zero_float(self):
        assert Polynomial.zero(2).evaluate((0.3, -0.7)) == 0.0


class TestIntegration:
    @pytest.mark.parametrize(
        "exp, expected",
        [(0, Fraction(2)), (1, Fraction(0)), (2, Fraction(2, 3)), (4, Fraction(2, 5))],
    )
    def test_axis_moment(self, exp, expected):
        assert axis_moment(exp) == expected

    def test_square_over_the_square(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        out = integrate_box(x**2, (0, 1))
        assert out == Polynomial.constant(2, Fraction(4, 3))

    def test_odd_power_vanishes(self):
        x = Polynomial.variable(1, 0)
        assert integrate_box(x, (0,)).is_zero()

    def test_partial_integration_leaves_other_axes(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        out = integrate_box(x**2 * y, (0,))
        assert out == Fraction(2, 3) * y

    def test_no_axes_is_identity(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = x * y + 3
        assert integrate_box(p, ()) == p

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            integrate_box(Polynomial.one(2), (2,))

    @given(exponent_tuples(3, 6))
    def test_monomial_agrees_with_per_axis_oracle(self, exps):
        p = Polynomial.from_monomial(exps)
        got = integrate_box(p, (0, 1, 2))
        assert got.coefficient((0, 0, 0)) == box_moment_oracle(exps)

    @given(polys(2), polys(2), coeffs, coeffs)
    @settings(max_examples=60)
    def test_linearity(self, p, q, a, b):
        lhs = integrate_box(a * p + b * q, (0, 1))
        rhs = a * integrate_box(p, (0, 1)) + b * integrate_box(q, (0, 1))
        assert lhs == rhs

    def test_bubble_integral(self):
        x = Polynomial.variable(1, 0)
        out = integrate_box((1 - x**2) ** 2, (0,))
        assert out.coefficient((0,)) == Fraction(16, 15)


class TestSerialization:
    def test_round_trip_example(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = Fraction(-3, 7) * x**2 * y + y - 5
        data = json.loads(json.dumps(p.to_json_obj()))
        assert Polynomial.from_json_obj(2, data) == p

    def test_coefficients_are_exact_strings(self):
        p = Polynomial(1, {(3,): Fraction(1, 3)})
        obj = p.to_json_obj()
        assert obj == [{"exponents": [3], "coeff": "1/3"}]

    @given(polys(3))
    def test_round_trip_random(self, p):
        assert Polynomial.from_json_obj(3, p.to_json_obj()) == p

    def test_duplicate_records_accumulate(self):
        data = [
            {"exponents": [1], "coeff": "1/2"},
            {"exponents": [1], "coeff": "1/2"},
        ]
        assert Polynomial.from_json_obj(1, data) == Polynomial.from_monomial((1,))
