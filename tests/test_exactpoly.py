"""Exact polynomial arithmetic: ring laws, degrees, integration, evaluation."""

from __future__ import annotations

import copy
import dis
import itertools
import json
import pickle
import random
import struct
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense import apply_dof, face_moment
from serendipity import dofs, exactpoly
from serendipity.assembly import interpolate
from serendipity.cubegeom import Face, enumerate_faces, face_symmetry, full_cube, restrict_to_face
from serendipity.decomp import decompose, recompose
from serendipity.dofs import DofFunctional, dofs_S, nodal_basis, nodal_functions
from serendipity.exactpoly import (
    Polynomial,
    grlex_key,
    monomial_str,
    superlinear_degree,
)
from serendipity.spaces import face_monomials


def box_moment_oracle(exponents) -> Fraction:
    """Independent full-box integral of one monomial, axis by axis."""
    value = Fraction(1)
    for e in exponents:
        if e % 2:
            return Fraction(0)
        value *= Fraction(2, e + 1)
    return value


def horner_oracle(items, xs, axis):
    """Float Horner evaluation that regroups the term list at every call."""
    if not items:
        return 0.0
    if axis == len(xs):
        return sum(c for _, c in items)
    groups = {}
    for exps, c in items:
        groups.setdefault(exps[axis], []).append((exps, c))
    x = xs[axis]
    acc = 0.0
    prev = None
    for e in sorted(groups, reverse=True):
        inner = horner_oracle(groups[e], xs, axis + 1)
        if prev is None:
            acc = inner
        else:
            acc = acc * x ** (prev - e) + inner
        prev = e
    return acc * x**prev if prev else acc


def horner_powers(items, axis, n) -> set[tuple[int, int]]:
    """The (axis, power) pairs whose x ** power the Horner scheme of
    ``horner_oracle`` forms, over all its steps."""
    if axis == n:
        return set()
    groups = {}
    for exps, c in items:
        groups.setdefault(exps[axis], []).append((exps, c))
    out, prev = set(), None
    for e in sorted(groups, reverse=True):
        out |= horner_powers(groups[e], axis + 1, n)
        if prev is not None:
            out.add((axis, prev - e))
        prev = e
    return out | {(axis, prev)} if prev else out


def float_bits(evaluate):
    """The IEEE bytes of a float result, or the name of the overflow raised."""
    try:
        return struct.pack("<d", evaluate())
    except OverflowError:
        return "OverflowError"


def oracle_bits(p: Polynomial, point) -> bytes | str:
    def evaluate():
        items = [(e, float(c)) for e, c in p.terms()]
        return horner_oracle(items, [float(v) for v in point], 0)

    return float_bits(evaluate)


coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def exponent_tuples(n: int, max_exp: int = 5):
    return st.tuples(*([st.integers(0, max_exp)] * n))


def polys(n: int, max_terms: int = 6):
    return st.dictionaries(exponent_tuples(n), coeffs, max_size=max_terms).map(
        lambda d: Polynomial(n, d)
    )


class TestMonomial:
    """A monomial is its exponent tuple."""

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

    @given(exponent_tuples(4, 6))
    def test_degree_splits_into_superlinear_and_linear(self, exps):
        assert sum(exps) == superlinear_degree(exps) + sum(1 for e in exps if e == 1)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Polynomial.from_monomial((1, -2))

    def test_order_puts_lower_total_degree_first(self):
        assert grlex_key((0, 1)) < grlex_key((1, 1))
        assert grlex_key((0, 1)) < grlex_key((1, 0))

    def test_str_forms(self):
        assert monomial_str((0, 0)) == "1"
        assert monomial_str(()) == "1"
        assert monomial_str((2, 1)) == "x1^2*x2"
        assert monomial_str((0, 1, 3)) == "x2*x3^3"


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


def added_terms(pairs):
    """Oracle: (exponents, coefficient) pairs added up in a plain dict."""
    acc = {}
    for exps, coeff in pairs:
        acc[exps] = acc.get(exps, Fraction(0)) + Fraction(coeff)
    return {e: c for e, c in acc.items() if c}


def random_pairs(rng: random.Random, n: int) -> list:
    """Up to 12 seeded terms with small exponents, so some exponents repeat."""
    return [
        (tuple(rng.randint(0, 3) for _ in range(n)), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        for _ in range(rng.randint(0, 12))
    ]


class TestConstructor:
    """The one place where terms are added up: what it accepts and rejects."""

    def test_repeated_exponents_that_cancel_leave_no_term(self):
        p = Polynomial(2, [((1, 0), Fraction(1, 3)), ((0, 1), 2), ((1, 0), Fraction(-1, 3))])
        assert dict(p.terms()) == {(0, 1): 2}
        q = Polynomial(1, [((2,), 1), ((2,), -1), ((2,), Fraction(5, 2))])
        assert dict(q.terms()) == {(2,): Fraction(5, 2)}

    def test_list_and_generator_exponents_are_accepted(self):
        expected = {(1, 0): Fraction(3), (0, 2): Fraction(1)}
        assert dict(Polynomial(2, [([1, 0], 3), ([0, 2], 1)]).terms()) == expected
        p = Polynomial(2, [((e for e in (1, 0)), 3), (iter([0, 2]), 1)])
        assert dict(p.terms()) == expected
        assert all(type(e) is tuple for e, _ in p.terms())

    @pytest.mark.parametrize(
        "exps", [(True, 0), (1, -1), (0.0, 1), ("1", 0), [1, -2]], ids=str
    )
    def test_bad_exponents_raise(self, exps):
        with pytest.raises(ValueError) as err:
            Polynomial(2, [(exps, 1)])
        assert str(err.value) == f"exponents must be non-negative ints, got {tuple(exps)!r}"

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError) as err:
            Polynomial(2, [((1, 0, 0), 1)])
        assert str(err.value) == "exponent tuple (1, 0, 0) does not have length 2"

    def test_validation_comes_before_the_length_check(self):
        with pytest.raises(ValueError) as err:
            Polynomial(2, [((1, -1, 0), 1)])
        assert str(err.value) == "exponents must be non-negative ints, got (1, -1, 0)"

    @pytest.mark.parametrize(
        "coeff, value",
        [
            (0.5, Fraction(1, 2)),
            (0.1, Fraction(3602879701896397, 36028797018963968)),
            (-4, Fraction(-4)),
            ("-2/6", Fraction(-1, 3)),
            (Fraction(6, 4), Fraction(3, 2)),
        ],
    )
    def test_coefficients_are_coerced(self, coeff, value):
        c = Polynomial(1, [((1,), coeff)]).coefficient((1,))
        assert c == value and type(c) is Fraction

    def test_fraction_subclass_is_stored_as_a_plain_fraction(self):
        class Half(Fraction):
            pass

        c = Polynomial(1, [((1,), Half(1, 2))]).coefficient((1,))
        assert c == Fraction(1, 2) and type(c) is Fraction

    @given(polys(3))
    def test_cleared_terms_over_their_lcm_give_the_polynomial_back(self, p):
        den, terms = p._cleared()
        assert den == lcm(*(c.denominator for _, c in p.terms()))
        assert all(type(v) is int and v for v in terms.values()) and terms.keys() == dict(p.terms()).keys()
        assert all(Fraction(terms[e], den) == c for e, c in p.terms())
        q = Polynomial._over(3, terms, den)
        assert q == p and all(type(c) is Fraction for _, c in q.terms())

    def test_integer_terms_over_a_denominator_drop_zeros_and_reduce(self):
        p = Polynomial._over(2, {(1, 0): 6, (0, 1): 0, (0, 0): -3}, 4)
        assert p._cleared() == (4, {(1, 0): 6, (0, 0): -3})
        assert dict(p.terms()) == {(1, 0): Fraction(3, 2), (0, 0): Fraction(-3, 4)}
        assert Polynomial._over(2, {(1, 0): 6, (0, 0): -2}, 4)._cleared() == (2, {(1, 0): 3, (0, 0): -1})
        assert Polynomial._over(2, {(1, 0): 0}, 5).is_zero()
        assert Polynomial._over(2, {(1, 0): 0}, 5)._cleared() == (1, {})

    @pytest.mark.parametrize("seed", range(12))
    def test_arithmetic_matches_the_dict_oracle(self, seed):
        from serendipity.cubegeom import Face, restrict_to_face

        rng = random.Random(seed)
        n = rng.randint(1, 4)
        raw_p, raw_q = random_pairs(rng, n), random_pairs(rng, n)
        p, q = Polynomial(n, raw_p), Polynomial(n, raw_q)
        assert dict(p.terms()) == added_terms(raw_p)
        assert dict((p + q).terms()) == added_terms(p.terms() + q.terms())
        product = [
            (tuple(a + b for a, b in zip(ea, eb)), ca * cb)
            for ea, ca in p.terms()
            for eb, cb in q.terms()
        ]
        assert dict((p * q).terms()) == added_terms(product)
        pins = tuple(sorted((j, rng.choice((-1, 1))) for j in rng.sample(range(n), rng.randint(1, n))))
        trace = [
            (
                tuple(0 if any(j == i for j, _ in pins) else x for i, x in enumerate(e)),
                c * (-1) ** sum(e[j] for j, s in pins if s < 0),
            )
            for e, c in p.terms()
        ]
        assert dict(restrict_to_face(p, Face(n, pins)).terms()) == added_terms(trace)


def assert_stored_form(p: Polynomial) -> None:
    """p holds the canonical form: integer terms over den > 0, none zero,
    with no common factor of den and all of them; zero as (1, {})."""
    den, terms = p._cleared()
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in terms.values())
    assert gcd(den, *terms.values()) == 1
    assert terms or den == 1


class TestStoredForm:
    """Every producer of a polynomial returns the canonical stored form."""

    def test_constructor(self):
        class Half(Fraction):
            pass

        third, sixth = Fraction(1, 3), Fraction(1, 6)
        cases = {
            "subclass": (Polynomial(1, [((1,), Half(1, 2))]), (2, {(1,): 1})),
            "cancel": (Polynomial(2, [((1, 0), sixth), ((0, 1), 4), ((1, 0), -sixth)]), (1, {(0, 1): 4})),
            "sum": (Polynomial(2, [((1, 0), sixth), ((0, 0), -third), ((1, 0), sixth)]),
                    (3, {(1, 0): 1, (0, 0): -1})),
            "zero": (Polynomial(1, [((0,), 2), ((0,), -2)]), (1, {})),
            "empty": (Polynomial(2, {}), (1, {})),
            "constant": (Polynomial.constant(3, Fraction(-10, 8)), (4, {(0, 0, 0): -5})),
            "variable": (Polynomial.variable(3, 1), (1, {(0, 1, 0): 1})),
            "monomial": (Polynomial.from_monomial((2, 1), Fraction(4, 6)), (3, {(2, 1): 2})),
        }
        for name, (p, stored) in cases.items():
            assert_stored_form(p)
            assert p._cleared() == stored, name

    def test_from_json_obj(self):
        data = [{"exponents": [1], "coeff": "2/4"}, {"exponents": [0], "coeff": "-0.5"},
                {"exponents": [2], "coeff": 3}, {"exponents": [3], "coeff": "0/7"}]
        p = Polynomial.from_json_obj(1, data)
        assert_stored_form(p)
        assert p._cleared() == (2, {(1,): 1, (0,): -1, (2,): 6})
        assert Polynomial.from_json_obj(2, [])._cleared() == (1, {})

    @given(polys(3), polys(3), coeffs)
    def test_arithmetic(self, p, q, a):
        for out in (p + q, p - q, -p, p * q, p * a, a * p, p + a, a + p, p - a, a - p, p**0, p**2):
            assert_stored_form(out)
        assert_stored_form(Polynomial.from_json_obj(3, p.to_json_obj()))

    @pytest.mark.parametrize("n, r", [(1, 4), (2, 4), (3, 5), (4, 4)])
    def test_element_producers(self, n, r):
        rng = random.Random(10 * n + r)
        count = len(dofs_S(n, r))
        u = interpolate([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(count)], n, r)
        outs = [u, interpolate([0] * count, n, r), recompose({}, n)]
        outs += [restrict_to_face(u, face) for d in range(n) for face in enumerate_faces(n, d)]
        for method in ("solve", "construct"):
            components = decompose(u, r, method)
            outs += [fc.coefficient for fc in components.values()]
            outs += [fc.component for fc in components.values()]
            outs.append(recompose(components, n))
        outs += nodal_functions(n, r)
        for p in outs:
            assert_stored_form(p)

    def test_integer_terms_over_a_denominator_equal_their_fractions(self):
        e = (1, 0)
        p, q = Polynomial._over(2, {e: 6}, 4), Polynomial(2, {e: Fraction(3, 2)})
        assert p == q and hash(p) == hash(q) and p._cleared() == (2, {e: 3})
        # a constant hashes as its Fraction
        c = Polynomial._over(2, {(0, 0): 6}, 4)
        assert c == Fraction(3, 2) and hash(c) == hash(Fraction(3, 2))


def substituted(p: Polynomial, perm, flips) -> Polynomial:
    """p composed with the inverse of the signed axis map that sends axis i
    to axis perm[i] and then negates the axes in flips, by substitution in
    ring arithmetic: x_i becomes +-x_perm[i], negated when perm[i] flips."""
    n = p.n
    z = [Polynomial.variable(n, j) * (-1 if j in flips else 1) for j in perm]
    out = Polynomial.zero(n)
    for e, c in p.terms():
        term = Polynomial.constant(n, c)
        for zi, k in zip(z, e):
            term = term * zi**k
        out = out + term
    return out


class TestTransformed:
    """The nodal functions of a face are images of the solved functions of
    the first face of its dimension, formed from rows that permute each
    solved function's exponents once per perm and pick each term's sign
    per face (``dofs._nodal_images``)."""

    CELLS = [(1, 3), (2, 4), (3, 5), (4, 4), (5, 3)]

    @staticmethod
    def images(n, r, calls=None):
        """The images as (e, c, scale) lists, each c over its row's scale,
        counting the calls of form."""
        def form(e, c, scale):
            if calls is not None:
                calls.append(e)
            return e, c, scale

        for _, terms, scale in dofs._nodal_images(n, r, form):
            assert all(q == scale for _, _, q in terms)
            yield terms

    def test_composes_with_the_inverse_axis_map(self):
        for n, r in self.CELLS:
            self.assert_images_compose(n, r)

    def assert_images_compose(self, n, r):
        # each image equals the canonical function, solved independently by
        # interpolating its unit DOF vector, composed with sigma^-1
        index, count = face_monomials(n, r), len(dofs_S(n, r))
        first = {d: enumerate_faces(n, d)[0] for d in range(n + 1)}
        start, at = {}, 0
        for face, weights in index.items():
            start[face], at = at, at + len(weights)
        canonical = {
            d: [interpolate([int(k == start[h] + i) for k in range(count)], n, r)
                for i in range(len(index[h]))]
            for d, h in first.items() if h in index
        }
        calls = []
        images = self.images(n, r, calls)
        runs = {}
        for face in index:
            perm, flips = face_symmetry(face)
            runs[face.dim, perm] = face.fixed_indices
            for phi in canonical[face.dim]:
                image = Polynomial(n, {e: Fraction(p, q) for e, p, q in next(images)})
                assert image == substituted(phi, perm, flips), (face, phi)
        assert next(images, None) is None
        # form runs once per term and perm, not per image, and again for the
        # negated term only where a face of the run can flip its sign
        expected = 0
        for (d, perm), pinned in runs.items():
            for phi in canonical[d]:
                for e, _ in phi.terms():
                    expected += 1 + any(e[i] % 2 for i in range(n) if perm[i] in pinned)
        assert len(calls) == expected

    @pytest.mark.parametrize("n, r", CELLS)
    def test_images_are_sorted_and_reduced(self, n, r):
        for terms in self.images(n, r):
            exponents = [e for e, _, _ in terms]
            assert exponents == sorted(exponents, key=grlex_key)
            assert len(set(exponents)) == len(exponents)
            assert all(c and q > 0 for _, c, q in terms)
            # reduced in the stored form, as nodal_functions builds it
            den, ints = Polynomial._over(n, {e: c for e, c, _ in terms}, terms[0][2])._cleared()
            assert gcd(den, *ints.values()) == 1
            assert all(Fraction(ints[e], den) == Fraction(c, q) for e, c, q in terms)

    def test_result_is_canonical(self):
        # the polynomials match their canonical rebuild: terms, hash, floats;
        # the images of one term share one stored integer per sign
        phis = list(nodal_functions(3, 4))
        coefficients = {}
        for phi in phis:
            rebuilt = Polynomial(3, dict(phi.terms()))
            assert phi == rebuilt and hash(phi) == hash(rebuilt)
            assert phi.evaluate((0.5, -0.25, 2.0)) == rebuilt.evaluate((0.5, -0.25, 2.0))
            for c in phi._cleared()[1].values():
                coefficients.setdefault(c, set()).add(id(c))
        assert phis == list(nodal_basis(3, 4))
        assert len(phis) == len(dofs_S(3, 4))
        assert sum(map(len, coefficients.values())) < sum(map(len, phis))


class TestHash:
    """Objects that compare equal hash equally, so sets and dicts agree
    with ==, scalars included."""

    @pytest.mark.parametrize(
        "p, other",
        [
            (Polynomial.constant(1, 2), 2),
            (Polynomial.constant(3, Fraction(-5, 2)), Fraction(-5, 2)),
            (Polynomial.constant(2, Fraction(4, 2)), 2),
            (Polynomial.zero(3), 0),
            (Polynomial.zero(1), Fraction(0)),
            (Polynomial.constant(2, 7), Polynomial(2, {(0, 0): 7})),
            (Polynomial.zero(2), Polynomial.constant(2, 1) - 1),
            (Polynomial(2, {(1, 0): 1, (0, 0): 2}), Polynomial.variable(2, 0) + 2),
            (
                Polynomial(3, {(0, 2, 1): Fraction(1, 3)}),
                Polynomial.from_monomial((0, 2, 1), Fraction(1, 3)),
            ),
        ],
    )
    def test_equal_pairs_hash_equal(self, p, other):
        assert p == other and other == p
        assert hash(p) == hash(other)
        assert other in {p} and p in {other}
        assert {p: "value"}[other] == "value" and {other: "value"}[p] == "value"

    def test_unequal_polynomials_stay_apart(self):
        x = Polynomial.variable(2, 0)
        assert x != 2 and x + 2 != 2
        assert len({x, x + 2, Polynomial.constant(2, 2), 2}) == 3
        assert 2 not in {x + 2}

    @given(polys(2))
    def test_hash_agrees_with_rebuilt_copy(self, p):
        q = Polynomial(2, dict(p.terms()))
        assert q == p and hash(q) == hash(p)


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


class Coordinate(float):
    """A float subclass: the float path must read it as its float value."""


def special_or_random(rng: random.Random) -> float:
    specials = [0.0, -0.0, 1.0, -1.0, 1e-200, -1e200, 1e200, 0.75]
    return rng.choice(specials) if rng.random() < 0.6 else rng.uniform(-2, 2)


def leaf_bits(divide) -> bytes | str:
    """The IEEE bytes of 0 + divide(), or the repr of the overflow raised."""
    try:
        return struct.pack("<d", 0 + divide())
    except OverflowError as err:
        return repr(err)


class TestLeaf:
    """A float leaf is 0 + c / den of the stored integers.  CPython rounds
    the true division of ints correctly, so an unreduced pair gives the
    bits of its reduced Fraction's float, or raises the same overflow."""

    @given(st.integers(-(2**1200), 2**1200), st.integers(1, 2**1200), st.integers(1, 2**80))
    @example(1, 2**1100, 3)  # underflows to +0
    @example(-1, 2**1100, 3)  # to -0, which the leaf reads as 0.0
    @example(1, 2**1074, 6)  # the least subnormal
    @example(3, 2**1075, 10)  # a tie between subnormals, to even
    @example(2**1100 + 1, 1, 9)  # overflows
    @example(-(2**1024 - 2**970), 1, 5)  # rounds to -2**1024, which overflows
    @example(2**1024 - 2**970 - 1, 1, 2**70)  # the largest float
    @example(0, 7, 2**70)
    def test_unreduced_division_has_the_bits_of_the_fraction(self, p, q, k):
        c, den = p * k, q * k
        assert leaf_bits(lambda: c / den) == leaf_bits(lambda: float(Fraction(c, den)))


class TestFloatPlan:
    """The float path runs code compiled on the first float call; it must
    match the regrouping oracle bit for bit, overflow included."""

    def test_nodal_functions_match_oracle_bitwise(self):
        grid = [-1.0 + 2.0 * i / 4 for i in range(5)]
        for n in range(1, 4):
            for r in range(1, 5):
                for phi in nodal_basis(n, r):
                    for point in itertools.product(grid, repeat=n):
                        got = float_bits(lambda: phi.evaluate(point))
                        assert got == oracle_bits(phi, point), (n, r, phi, point)

    def test_random_polynomials_match_oracle_bitwise(self):
        rng, mix = random.Random(8), random.Random(9)
        tiny, huge = Fraction(-1, 10**400), Fraction(10**400, 3)
        # tiny rounds to -0.0; the oracle's leaf sum 0 + c makes that 0.0
        p = Polynomial(1, {(0,): tiny, (1,): tiny})
        assert float_bits(lambda: p.evaluate((0.5,))) == struct.pack("<d", 0.0)
        # a coefficient past the float range raises on the first float call,
        # before any code is built, and again on the next
        p = Polynomial(2, {(1, 0): huge, (0, 0): 1})
        for _ in range(2):
            with pytest.raises(OverflowError):
                p.evaluate((0.5, 0.25))
        overflowed = 0
        for _ in range(400):
            n = rng.randint(1, 4)
            terms = {
                tuple(rng.randint(0, 6) for _ in range(n)): rng.choice(
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 9)), tiny, huge]
                    if rng.random() < 0.1
                    else [Fraction(rng.randint(-99, 99), rng.randint(1, 99))]
                )
                for _ in range(rng.randint(1, 8))
            }
            p = Polynomial(n, terms)
            points = [tuple(special_or_random(rng) for _ in range(n)) for _ in range(6)]
            # one float kept, the other coordinates an int, a Fraction or a float subclass
            for _ in range(2):
                point = [special_or_random(mix) for _ in range(n)]
                for i in mix.sample(range(n), n - 1):
                    point[i] = mix.choice([
                        mix.randint(-2, 2),
                        Fraction(mix.randint(-9, 9), mix.randint(1, 9)),
                        Coordinate(point[i]),
                    ])
                points.append(tuple(point))
            for point in points:
                expected = oracle_bits(p, point)
                overflowed += expected == "OverflowError"
                assert float_bits(lambda: p.evaluate(point)) == expected, (p, point)
        assert overflowed

    @pytest.mark.parametrize("shape", ["deep", "wide"])
    def test_large_plans_compile_and_match_oracle_bitwise(self, shape):
        # deep: one variable with 300 distinct exponents, unevenly spaced;
        # wide: six variables with every exponent 0..12 on every axis
        rng = random.Random(shape)
        if shape == "deep":
            n, keys = 1, [(e,) for e in rng.sample(range(900), 300)]
        else:
            n = 6
            keys = [(e,) * n for e in range(13)]
            keys += [tuple(rng.randint(0, 12) for _ in range(n)) for _ in range(400)]
        p = Polynomial(n, {k: Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for k in keys})
        points = [(v,) * n for v in (0.0, -0.0, 1.0, -1.0, 0.75, 1e-200, 1e200)]
        points += [tuple(special_or_random(rng) for _ in range(n)) for _ in range(40)]
        for point in points:
            assert float_bits(lambda: p.evaluate(point)) == oracle_bits(p, point), point

    @pytest.mark.parametrize("n, r, stride", [(4, 6, 1), (5, 4, 3)])
    def test_nodal_functions_match_oracle_bitwise_beyond_n_3(self, n, r, stride):
        # the images of the symmetry rows, on the 3-point grid with its
        # zeros; every third function at (5, 4), for time
        grid = [-1.0, 0.0, 1.0]
        points = list(itertools.product(grid, repeat=n))
        for phi in nodal_basis(n, r)[::stride]:
            items = [(e, float(c)) for e, c in phi.terms()]
            for point in points:
                expected = struct.pack("<d", horner_oracle(items, point, 0))
                assert struct.pack("<d", phi.evaluate(point)) == expected, (phi, point)

    @pytest.mark.parametrize("shape", ["nodal", "deep", "wide"])
    def test_one_power_per_distinct_axis_and_exponent_step(self, shape):
        # straight-line code: every instruction runs once, and the ** count
        # is the number of distinct (axis, power) pairs the Horner steps use
        rng = random.Random(shape)
        if shape == "nodal":
            polys = list(nodal_basis(3, 6))[::7]
        else:
            n = 1 if shape == "deep" else 4
            polys = [
                Polynomial(n, {tuple(rng.randint(0, 40 if n == 1 else 6) for _ in range(n)):
                               Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(60)})
                for _ in range(10)
            ]
        for p in polys:
            p.evaluate((0.5,) * p.n)
            code = p._plan.__code__
            ops = list(dis.get_instructions(code))
            assert not any("JUMP" in op.opname for op in ops)
            assert len([op for op in ops if op.opname == "CALL"]) == p.n  # float(x_i)
            pows = [op for op in ops if op.opname == "BINARY_OP" and op.argrepr == "**"]
            # x ** 1 is read as x, the same float
            steps = {(axis, k) for axis, k in horner_powers(sorted(p.terms()), 0, p.n) if k != 1}
            assert len(pows) == len(steps)

    def test_one_template_per_exponent_shape(self):
        # the images of a canonical function share its exponents up to a
        # perm; at (3, 6) 105 nodal functions have 35 exponent shapes
        exactpoly._compile_horner.cache_clear()
        phis = list(nodal_functions(3, 6))
        for phi in phis:
            phi.evaluate((0.5, -0.25, 0.75))
        assert len(phis) == 105
        assert exactpoly._compile_horner.cache_info().misses == 35
        assert len({phi._plan.__code__ for phi in phis}) == 35

    def test_shared_shape_binds_each_polynomials_coefficients(self):
        tiny = Fraction(-1, 10**400)  # rounds to -0.0; its leaf 0 + c is 0.0
        pairs = [
            (1, {(0,): tiny}, {(0,): Fraction(-2)}),  # the value is the leaf
            (1, {(0,): tiny, (1,): tiny}, {(0,): Fraction(3), (1,): Fraction(-2, 7)}),
            (2, {(2, 0): tiny, (1, 1): Fraction(5, 3), (0, 0): tiny},
             {(2, 0): Fraction(-1, 3), (1, 1): tiny, (0, 0): Fraction(9, 11)}),
        ]
        rng = random.Random(3)
        for n, p_terms, q_terms in pairs:
            p, q = Polynomial(n, p_terms), Polynomial(n, q_terms)
            points = [(v,) * p.n for v in (0.0, -0.0, 0.5, -1.0, 1e200)]
            points += [tuple(special_or_random(rng) for _ in range(p.n)) for _ in range(20)]
            for point in points:
                for poly in (p, q, p):
                    assert float_bits(lambda: poly.evaluate(point)) == oracle_bits(poly, point)
            assert p._plan.__code__ is q._plan.__code__
            assert p._plan is not q._plan

    def test_template_cache_is_bounded(self):
        # a long process evaluating ever new shapes keeps the last ones only
        bound = exactpoly._TEMPLATES
        for k in range(bound + 20):
            assert Polynomial(1, {(k,): 1, (k + bound + 20,): 1}).evaluate((1.0,)) == 2.0
        assert exactpoly._compile_horner.cache_info().currsize == bound

    def test_reused_plan_is_not_stale(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = 3 * x**4 * y - Fraction(7, 3) * x * y**2 + 2 * y + 1
        first = p.evaluate((0.3, -1.7))
        other = p.evaluate((-2.5, 0.125))
        again = p.evaluate((0.3, -1.7))
        assert struct.pack("<d", first) == struct.pack("<d", again)
        assert first != other
        assert struct.pack("<d", other) == oracle_bits(p, (-2.5, 0.125))


class TestIntegration:
    @pytest.mark.parametrize(
        "exp, expected",
        [(0, Fraction(2)), (1, Fraction(0)), (2, Fraction(2, 3)), (4, Fraction(2, 5))],
    )
    def test_axis_moment(self, exp, expected):
        # the interval moment of t^exp is the moment over the 1-cube
        assert face_moment(Face(1, ()), (exp,)) == expected

    # the box integral is the face moment over the full cube, with weight 1
    @staticmethod
    def box_integral(p: Polynomial) -> Fraction:
        return apply_dof(DofFunctional(full_cube(p.n), (0,) * p.n, 0), p)

    def test_square_over_the_square(self):
        x = Polynomial.variable(2, 0)
        assert self.box_integral(x**2) == Fraction(4, 3)

    def test_odd_power_vanishes(self):
        x = Polynomial.variable(1, 0)
        assert self.box_integral(x) == 0

    @given(exponent_tuples(3, 6))
    def test_monomial_agrees_with_per_axis_oracle(self, exps):
        p = Polynomial.from_monomial(exps)
        assert self.box_integral(p) == box_moment_oracle(exps)

    @given(polys(2), polys(2), coeffs, coeffs)
    @settings(max_examples=60)
    def test_linearity(self, p, q, a, b):
        lhs = self.box_integral(a * p + b * q)
        assert lhs == a * self.box_integral(p) + b * self.box_integral(q)

    def test_bubble_integral(self):
        x = Polynomial.variable(1, 0)
        assert self.box_integral((1 - x**2) ** 2) == Fraction(16, 15)


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

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle_round_trip(self, clone):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p, never_evaluated = (Fraction(-3, 7) * x**2 * y + y - 5 for _ in range(2))
        value = p.evaluate((0.5, -0.25))
        q = clone(p)
        assert q == p and hash(q) == hash(p) and q.n == p.n
        assert q.evaluate((0.5, -0.25)) == value
        # the float code compiled by evaluate stays out of the pickle
        assert pickle.dumps(p) == pickle.dumps(never_evaluated)

    def test_duplicate_records_accumulate(self):
        data = [
            {"exponents": [1], "coeff": "1/2"},
            {"exponents": [1], "coeff": "1/2"},
        ]
        assert Polynomial.from_json_obj(1, data) == Polynomial.from_monomial((1,))

    @pytest.mark.parametrize("coeff", [0.1, 2.0, True, False])
    def test_float_and_bool_coefficients_are_rejected(self, coeff):
        # a float is already rounded and a bool is not a number in JSON
        with pytest.raises(TypeError, match="coefficient"):
            Polynomial.from_json_obj(1, [{"exponents": [1], "coeff": coeff}])

    @pytest.mark.parametrize(
        "coeff, value",
        [(3, Fraction(3)), (-4, Fraction(-4)), ("-2/6", Fraction(-1, 3)), ("0.1", Fraction(1, 10))],
    )
    def test_integers_and_strings_read_exactly(self, coeff, value):
        data = [{"exponents": [1], "coeff": coeff}]
        assert Polynomial.from_json_obj(1, data) == Polynomial(1, {(1,): value})

    @pytest.mark.parametrize(
        "coeff, value",
        [("+3", Fraction(3)), ("5/1", Fraction(5)), (".5", Fraction(1, 2)),
         ("2.", Fraction(2)), ("-0.25", Fraction(-1, 4))],
    )
    def test_every_documented_string_form_reads(self, coeff, value):
        data = [{"exponents": [1], "coeff": coeff}]
        assert Polynomial.from_json_obj(1, data) == Polynomial(1, {(1,): value})

    @pytest.mark.parametrize(
        "coeff", ["1e999999999", "1E3", "2.5e-1", " 1", "1 ", "1_000", "1/2/3", "1/-2",
                  "1.5/2", "inf", "nan", "", "-", "0x10", "\u0663"],
    )
    def test_other_string_forms_are_rejected(self, coeff):
        # only an integer, "p/q" or a decimal string; exponent notation
        # would make Fraction build the power of ten
        with pytest.raises(ValueError, match="coefficient"):
            Polynomial.from_json_obj(1, [{"exponents": [1], "coeff": coeff}])
