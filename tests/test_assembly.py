"""Two-element conformity: shared DOFs, trace equality, negative controls."""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import pytest

from serendipity import assembly, decomp, dofs, spaces
from serendipity.assembly import (
    ContinuityReport,
    ElementPair,
    check_continuity,
    interpolate,
    shared_dof_pairs,
    trace_certificate,
)
from dense import apply_dof, face_contains
from serendipity.cli import main
from serendipity.cubegeom import Face, full_cube, restrict_to_face
from serendipity.dofs import SingularMatrixError, dofs_S, nodal_basis
from serendipity.exactpoly import Polynomial, monomial_str
from serendipity.spaces import basis_S, dim_S_formula, face_monomials


def leak_cube_bubble(monkeypatch, n):
    """Make the factor of the n-cube's bubble along x1 the constant 1, which
    does not vanish on the facets x1 = +-1, so the interior nodal functions
    would leak onto a shared facet.  Returns the pairing certificate's
    culprit."""
    real = decomp._bubble_factors
    cube = full_cube(n)

    def leaking(face):
        return ((1, 0, 0),) + real(face)[1:] if face == cube else real(face)

    monkeypatch.setattr(decomp, "_bubble_factors", leaking)
    return (
        f"bubble: along x1 the bubble of {cube} has the factor (1, 0, 0), "
        "not (1, 0, -1) (coefficients of 1, t, t^2)"
    )


def mirror_face(face, axis):
    """The face with its pin on the glue axis flipped in sign."""
    return Face(face.n, tuple((i, -s) if i == axis else (i, s) for i, s in face.fixed))


# every n <= 3, r <= 6, and two cells at n = 4
LEMMA_CELLS = [(n, r) for n in range(1, 4) for r in range(1, 7)] + [(4, 4), (4, 6)]


def trace_locality_check(phis, n, r, axis):
    """Oracle: every DOF away from the shared facet has a nodal function in
    ``phis`` with zero trace there, so zeroing those DOFs never changes the
    trace.  It traces every such function."""
    face = ElementPair(n, axis).left_shared_face
    return not any(
        restrict_to_face(phi, face)
        for L, phi in zip(dofs_S(n, r), phis)
        if not face_contains(face, L.face)
    )


def added_interpolant(values, n, r):
    """Oracle: the interpolant as a running sum of value * nodal function."""
    total = Polynomial.zero(n)
    for value, phi in zip(values, nodal_basis(n, r)):
        if value:
            total = total + value * phi
    return total


def reinterpolated_continuity(n, r, axis, trials, seed):
    """Oracle: every trial and every control interpolates both elements in
    full and restricts the result to the shared facet."""
    pair = ElementPair(n, axis)
    count = len(dofs_S(n, r))
    pairs = shared_dof_pairs(n, r, axis)
    rng = random.Random(seed)
    results = []
    for _ in range(max(1, trials)):
        left = [Fraction(rng.randint(-9, 9)) for _ in range(count)]
        right = [Fraction(rng.randint(-9, 9)) for _ in range(count)]
        for L, R in pairs:
            right[R.index] = left[L.index]
        trace_left = restrict_to_face(added_interpolant(left, n, r), pair.left_shared_face)
        trace_right = restrict_to_face(
            added_interpolant(right, n, r), pair.right_shared_face
        )
        results.append(trace_left == trace_right)
    detections = []
    for _, R in pairs:
        bumped = list(right)
        bumped[R.index] += 1
        trace = restrict_to_face(added_interpolant(bumped, n, r), pair.right_shared_face)
        detections.append(trace != trace_left)
    return ContinuityReport(
        n=n,
        r=r,
        axis=axis,
        trials=max(1, trials),
        seed=seed,
        shared_count=len(pairs),
        trial_traces_equal=tuple(results),
        perturbations_detected=tuple(detections),
    )


class TestElementPair:
    def test_shared_faces(self):
        pair = ElementPair(3, 1)
        assert pair.left_shared_face == Face(3, ((1, 1),))
        assert pair.right_shared_face == Face(3, ((1, -1),))

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            ElementPair(2, 2)
        with pytest.raises(ValueError):
            ElementPair(2, -1)

    def test_json_uses_one_based_axis(self):
        obj = ElementPair(2, 0).to_json_obj()
        assert obj["axis"] == 1
        assert obj["left_shared_face"]["fixed"] == [{"index": 1, "sign": 1}]


class TestSharedDofPairs:
    @pytest.mark.parametrize(
        "n, r, axis, count",
        [
            (2, 2, 0, 3),   # 2 vertices + 1 edge moment
            (2, 1, 0, 2),   # 2 vertices
            (3, 4, 2, 17),  # 4 vertices + 4 edges x P_2 + 1 face moment
            (2, 2, 1, 3),
        ],
    )
    def test_counts(self, n, r, axis, count):
        pairs = shared_dof_pairs(n, r, axis)
        assert len(pairs) == count

    def test_count_equals_facet_element_dimension(self):
        for n in (2, 3):
            for r in range(1, 6):
                for axis in range(n):
                    pairs = shared_dof_pairs(n, r, axis)
                    assert len(pairs) == dim_S_formula(n - 1, r)

    def test_pairs_share_weights_and_mirror_faces(self):
        for L, R in shared_dof_pairs(3, 4, 0):
            assert L.weight == R.weight
            assert (0, 1) in L.face.fixed
            assert (0, -1) in R.face.fixed
            left_rest = tuple(p for p in L.face.fixed if p[0] != 0)
            right_rest = tuple(p for p in R.face.fixed if p[0] != 0)
            assert left_rest == right_rest

    def test_every_left_facet_dof_is_paired(self):
        n, r, axis = 3, 3, 1
        pair = ElementPair(n, axis)
        expected = {
            L.index
            for L in dofs_S(n, r)
            if face_contains(pair.left_shared_face, L.face)
        }
        got = {L.index for L, _ in shared_dof_pairs(n, r, axis)}
        assert got == expected

    def test_breakdown_for_cube_face(self):
        # shared 2-face of a cube at r=4: the face moment budget is
        # r - 2*2 = 0, one moment; each edge carries 3, each vertex 1
        pairs = shared_dof_pairs(3, 4, 2)
        by_dim: dict[int, int] = {}
        for L, _ in pairs:
            by_dim[L.face.dim] = by_dim.get(L.face.dim, 0) + 1
        assert by_dim == {0: 4, 1: 12, 2: 1}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_per_dof_mirror_oracle(self, n):
        # oracle: each left-facet DOF matched one at a time to the DOF on
        # its mirrored face with equal exponents
        for r in range(1, 9):
            functionals = dofs_S(n, r)
            for axis in range(n):
                pair = ElementPair(n, axis)
                right = {
                    (R.face, R.exponents): R
                    for R in functionals
                    if face_contains(pair.right_shared_face, R.face)
                }
                expected = [
                    (L, right.pop((mirror_face(L.face, axis), L.exponents)))
                    for L in functionals
                    if face_contains(pair.left_shared_face, L.face)
                ]
                assert not right, (n, r, axis)
                assert shared_dof_pairs(n, r, axis) == tuple(expected), (n, r, axis)

    @pytest.mark.parametrize("axis", [2, -1])
    def test_rejects_out_of_range_axis(self, axis):
        with pytest.raises(ValueError, match=f"axis {axis} out of range for n=2"):
            shared_dof_pairs(2, 2, axis)


class TestInterpolate:
    def test_reproduces_dof_values(self):
        rng = random.Random(40)
        n, r = 2, 3
        functionals = dofs_S(n, r)
        values = [Fraction(rng.randint(-9, 9)) for _ in functionals]
        u = interpolate(values, n, r)
        for L, v in zip(functionals, values):
            assert apply_dof(L, u) == v

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            interpolate([Fraction(1)], 2, 2)

    def test_matches_running_sum(self):
        rng = random.Random(41)
        n, r = 3, 4
        for _ in range(3):
            values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in dofs_S(n, r)]
            assert interpolate(values, n, r) == added_interpolant(values, n, r)

    @pytest.mark.parametrize(
        "n, r", [(n, r) for n in range(1, 4) for r in range(1, 7)] + [(4, 6)]
    )
    def test_matches_running_sum_on_the_grid(self, n, r):
        rng = random.Random(100 * n + r)
        count = len(dofs_S(n, r))
        # mixed denominators, some values zero, and ints beside Fractions
        values = [
            rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
            for _ in range(count)
        ]
        assert interpolate(values, n, r) == added_interpolant(values, n, r)
        zero = interpolate([Fraction(0)] * count, n, r)
        assert zero == Polynomial.zero(n) and not zero

    @pytest.mark.parametrize("value", [0.1, 2.0, True, False])
    def test_rejects_float_and_bool_values(self, value):
        values = [Fraction(0)] * len(dofs_S(1, 2))
        values[1] = value
        with pytest.raises(TypeError) as err:
            interpolate(values, 1, 2)
        assert str(err.value) == f"DOF value {value!r} is not an int or a Fraction"

    def test_accepts_int_and_fraction_values(self):
        n, r = 2, 3
        ints = [k % 5 - 2 for k in range(len(dofs_S(n, r)))]
        assert interpolate(ints, n, r) == interpolate([Fraction(v) for v in ints], n, r)
        assert interpolate(ints, n, r) == added_interpolant(ints, n, r)

    def test_builds_no_nodal_basis(self, fresh_caches):
        values = [Fraction(k % 7 - 3, k % 4 + 1) for k in range(len(dofs_S(3, 5)))]
        u = interpolate(values, 3, 5)
        assert nodal_basis.cache_info().misses == 0
        assert u == added_interpolant(values, 3, 5)


class TestContinuity:
    @pytest.mark.parametrize("n, r", [(1, 3), (2, 1), (2, 3), (3, 2)])
    def test_matched_dofs_give_equal_traces(self, n, r):
        report = check_continuity(n, r, axis=0, trials=8, seed=123)
        assert report.ok
        assert all(report.trial_traces_equal)
        assert all(report.perturbations_detected)

    def test_axis_choice_does_not_matter(self):
        for axis in range(3):
            assert check_continuity(3, 2, axis=axis, trials=4, seed=9).ok

    def test_every_perturbation_is_detected(self):
        report = check_continuity(2, 4, axis=1, trials=3, seed=77)
        assert len(report.perturbations_detected) == report.shared_count
        assert all(report.perturbations_detected)

    def test_one_dimensional_elements_share_a_vertex_value(self):
        report = check_continuity(1, 4, axis=0, trials=5, seed=3)
        assert report.ok
        assert report.shared_count == 1

    def test_unmatched_dofs_generally_break_traces(self):
        # direct negative experiment, independent of the built-in controls
        n, r, axis = 2, 3, 0
        rng = random.Random(55)
        functionals = dofs_S(n, r)
        pair = ElementPair(n, axis)
        left = [Fraction(rng.randint(-9, 9)) for _ in functionals]
        right = [Fraction(rng.randint(-9, 9)) for _ in functionals]
        trace_left = restrict_to_face(interpolate(left, n, r), pair.left_shared_face)
        trace_right = restrict_to_face(
            interpolate(right, n, r), pair.right_shared_face
        )
        assert trace_left != trace_right

    def test_report_serialization(self):
        report = check_continuity(2, 2, axis=0, trials=4, seed=5)
        obj = report.to_json_obj()
        assert obj["ok"] is True
        assert obj["axis"] == 1
        assert obj["seed"] == 5
        assert len(obj["trial_traces_equal"]) == 4

    @pytest.mark.parametrize("n, r", [(1, 3), (2, 3), (2, 5), (3, 3)])
    @pytest.mark.parametrize("seed", [0, 19])
    def test_matches_reinterpolating_oracle(self, n, r, seed):
        for axis in range(n):
            report = check_continuity(n, r, axis=axis, trials=5, seed=seed)
            assert report == reinterpolated_continuity(n, r, axis, 5, seed)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_fewer_than_one_trial(self, trials):
        with pytest.raises(ValueError, match=f"trials >= 1, got {trials}"):
            check_continuity(2, 2, axis=0, trials=trials, seed=5)

    def test_deterministic_for_fixed_seed(self):
        a = check_continuity(2, 3, axis=0, trials=6, seed=42)
        b = check_continuity(2, 3, axis=0, trials=6, seed=42)
        assert a == b

    @pytest.mark.parametrize("n, r", LEMMA_CELLS)
    def test_traces_only_the_shared_functions(self, n, r):
        # the lemma behind the certified report, on the real basis: each
        # shared pair traces alike, so every trial passes, and not to zero,
        # so every control is detected
        phis = nodal_basis(n, r)
        for axis in range(n):
            pair = ElementPair(n, axis)
            pairs = shared_dof_pairs(n, r, axis)
            for L, R in pairs:
                right = restrict_to_face(phis[R.index], pair.right_shared_face)
                assert right, (axis, R)
                assert restrict_to_face(phis[L.index], pair.left_shared_face) == right
            report = check_continuity(n, r, axis=axis, trials=3, seed=4)
            assert report.ok
            assert report.shared_count == len(pairs) == (dim_S_formula(n - 1, r) if n > 1 else 1)

    @pytest.mark.parametrize("n, r", [(3, 4), (6, 8)])
    def test_builds_no_nodal_basis_and_traces_nothing(self, monkeypatch, fresh_caches, n, r):
        # the report is read off the two certificates
        def forbidden(*args):
            raise AssertionError("continuity traced a polynomial, drew a value or solved")

        for module in [m for name, m in sys.modules.items() if name.startswith("serendipity")]:
            if hasattr(module, "restrict_to_face"):
                monkeypatch.setattr(module, "restrict_to_face", forbidden)
        monkeypatch.setattr(random, "Random", forbidden)
        for module in (assembly, decomp):
            monkeypatch.setattr(module, "_solve", forbidden)
        for axis in range(n):
            report = check_continuity(n, r, axis=axis, trials=6, seed=2)
            assert report.ok and report.shared_count == dim_S_formula(n - 1, r)
        assert nodal_basis.cache_info().misses == 0


def restriction_culprit(n, r, facet_basis):
    """Oracle for part (i) of the trace certificate, the old run-time
    walk: the first monomial of S_r(n) whose trace on a facet
    x_a = +1 is not in ``facet_basis``, else None."""
    facet = set(facet_basis)
    for axis in range(n):
        for e in basis_S(n, r):
            if e[:axis] + e[axis + 1 :] not in facet:
                return (
                    f"restriction on axis {axis + 1}: the trace of {monomial_str(e)} on "
                    f"{ElementPair(n, axis).left_shared_face} is not in S_{r} of the facet element"
                )
    return None


def facet_coordinates(face, weights, axis):
    """A face in the facet {x_axis = +1} and its DOF weights in the
    coordinates of the (n - 1)-cube: the pin and the exponent of x_axis
    go, later axes move down by one."""
    pins = tuple((i - (i > axis), s) for i, s in face.fixed if i != axis)
    return Face(face.n - 1, pins), tuple(w[:axis] + w[axis + 1 :] for w in weights)


def facet_dofs_culprit(n, r, coordinates=facet_coordinates):
    """Oracle for part (ii) of the trace certificate, the old run-time
    comparison: on each axis, the index's faces pinned at x_a = +1, mapped
    by ``coordinates``, against the (n - 1)-index; the first face whose
    weights differ, else None."""
    facet_index = face_monomials(n - 1, r)
    for axis in range(n):
        got = dict(
            coordinates(face, weights, axis)
            for face, weights in face_monomials(n, r).items()
            if face.signs[axis] > 0
        )
        for face in [*facet_index, *got]:
            weights, expected = got.get(face, ()), facet_index.get(face, ())
            if weights != expected:
                return (
                    f"facet DOFs on axis {axis + 1}: the shared DOFs on {face} of the "
                    f"facet element have the weights {weights}, not {expected}"
                )
    return None


ORACLE_CELLS = [(n, r) for n in range(2, 7) for r in range(1, 13)]


class TestTraceCertificate:
    """The paper's trace argument on every axis.  Parts (i) and (ii) are
    lemmas, so their old run-time checks are oracles here, each with a
    negative control; part (iii) fails under the mutation in
    ``test_cli.py::TestUncertifiedTraceCertificate``."""

    def test_holds_on_every_axis(self):
        for n in range(1, 7):
            for r in range(1, 13):
                assert trace_certificate(n, r) is None, (n, r)

    @pytest.mark.parametrize("n, r", ORACLE_CELLS)
    def test_lemmas_hold_i_ii(self, n, r):
        assert restriction_culprit(n, r, basis_S(n - 1, r)) is None
        assert facet_dofs_culprit(n, r) is None

    def test_n1_shares_the_vertex_value(self):
        # the n = 1 case of (ii): the one shared face is the vertex, weight 1
        for r in range(1, 13):
            assert face_monomials(1, r)[ElementPair(1, 0).left_shared_face] == ((0,),)

    def test_reads_only_the_facet_element(self, monkeypatch, fresh_caches):
        # no basis, index or coordinates of the n-element at run time
        seen = []
        for module in (assembly, decomp, spaces):
            for name in ("basis_S", "face_monomials"):
                if not hasattr(module, name):
                    continue
                real = getattr(module, name)
                monkeypatch.setattr(
                    module, name, lambda n, r, real=real: seen.append(n) or real(n, r)
                )
        assert trace_certificate(3, 4) is None
        assert seen and set(seen) == {2}
        assert not hasattr(assembly, "_facet_coordinates")

    def test_restriction_outside_the_facet_space_fails_i(self):
        dropped = basis_S(2, 4).monomials[-1]
        e = next(e for e in basis_S(3, 4) if e[1:] == dropped)
        assert restriction_culprit(3, 4, basis_S(2, 4).monomials[:-1]) == (
            f"restriction on axis 1: the trace of {monomial_str(e)} on face(x1=+1) "
            "is not in S_4 of the facet element"
        )

    def test_broken_coordinate_map_fails_ii(self):
        def first_axis_dropped(face, weights, axis):
            image, _ = facet_coordinates(face, weights, axis)
            return image, tuple(w[1:] for w in weights)

        # on axis 1 the map is right; on axis 2 the edge weights 1, x1 both become 1
        assert facet_dofs_culprit(2, 3, first_axis_dropped) == (
            "facet DOFs on axis 2: the shared DOFs on cube(n=1) of the facet element "
            "have the weights ((0,), (0,)), not ((0,), (1,))"
        )


class TestTraceLocality:
    @pytest.mark.parametrize("n, r", LEMMA_CELLS)
    def test_off_face_dofs_never_touch_the_trace(self, n, r):
        for axis in range(n):
            assert trace_locality_check(nodal_basis(n, r), n, r, axis)


class TestNonLocalNodalFunction:
    """Negative control: a nodal function whose trace leaks onto the facet."""

    def test_both_checks_fail(self, monkeypatch, fresh_caches):
        n, r = 2, 4
        interior = next(L.index for L in dofs_S(n, r) if not L.face.fixed)
        broken = tuple(
            phi + Polynomial.one(n) if i == interior else phi
            for i, phi in enumerate(nodal_basis(n, r))
        )
        for axis in range(n):
            assert not trace_locality_check(broken, n, r, axis)
        # continuity reads no nodal function; what would make an interior
        # function leak, a cube bubble that does not vanish on the facet,
        # fails the certificate it rests on
        culprit = leak_cube_bubble(monkeypatch, n)
        fresh_caches()
        for axis in range(n):
            with pytest.raises(SingularMatrixError) as err:
                check_continuity(n, r, axis=axis, trials=5, seed=1)
            assert str(err.value) == f"pairing at n=2, r=4 is not certified: {culprit}"


class TestFailingReportsMatchOracle:
    """A defect that would make the traces differ, so that a traced check
    would report failing trials, fails the pairing certificate, which
    names it."""

    n, r = 2, 4

    def test_stray_defect(self, capsys, monkeypatch, fresh_caches):
        # a cube bubble that does not vanish on the facet would add a trace
        # of an interior function: the verify row fails and names it
        culprit = leak_cube_bubble(monkeypatch, self.n)
        for axis in range(self.n):
            with pytest.raises(SingularMatrixError) as err:
                check_continuity(self.n, self.r, axis=axis, trials=4, seed=1)
            assert str(err.value) == f"pairing at n=2, r=4 is not certified: {culprit}"
        code = main(["verify", "--n", "2", "--r", "4", "--checks", "continuity",
                     "--jobs", "1", "--format", "json"])
        (row,) = json.loads(capsys.readouterr().out)["results"]
        assert code == 1 and not row["ok"]
        assert row["detail"] == (
            f"raised SingularMatrixError: pairing at n=2, r=4 is not certified: {culprit}"
        )

    def test_pair_defect(self, monkeypatch, fresh_caches):
        # the mirror edge's weights in reverse order pair DOFs of different
        # weights across the facet, so the traces would differ
        n, r = self.n, self.r
        real = dict(face_monomials(n, r))
        for axis in range(n):
            mirror = ElementPair(n, axis).right_shared_face
            index = {**real, mirror: real[mirror][::-1]}
            with monkeypatch.context() as patch:
                for module in (assembly, decomp, dofs):
                    patch.setattr(module, "face_monomials", lambda *cell: index)
                fresh_caches()
                assert any(L.weight != R.weight for L, R in shared_dof_pairs(n, r, axis))
                with pytest.raises(SingularMatrixError) as err:
                    check_continuity(n, r, axis=axis, trials=4, seed=1)
            assert str(err.value) == (
                f"pairing at n=2, r=4 is not certified: index: the weights of {mirror} "
                "are not distinct in graded lex order"
            )
            fresh_caches()


class TestControlSign:
    """A control rests on L_R(phi_R) = 1 with L_R reading the right trace
    only: a bubble that vanishes on its own face leaves the face's DOFs
    blind to its components, and fails the pairing certificate."""

    n, r = 2, 3

    def test_vanishing_right_trace_fails_the_certificate(self, monkeypatch, fresh_caches):
        n, r = self.n, self.r
        real = decomp._bubble_factors
        for axis in range(n):
            mirror = ElementPair(n, axis).right_shared_face

            def vanishing(face):
                # 1 + t in place of 1 - t along the glue axis: zero at x_axis = -1
                factors = list(real(face))
                if face == mirror:
                    factors[axis] = (1, 1, 0)
                return tuple(factors)

            with monkeypatch.context() as patch:
                patch.setattr(decomp, "_bubble_factors", vanishing)
                fresh_caches()
                assert not restrict_to_face(decomp.bubble(mirror), mirror)
                with pytest.raises(SingularMatrixError) as err:
                    check_continuity(n, r, axis=axis)
            assert str(err.value) == (
                f"pairing at n=2, r=3 is not certified: bubble: along x{axis + 1} the bubble "
                f"of {mirror} has the factor (1, 1, 0), not (1, -1, 0) "
                "(coefficients of 1, t, t^2)"
            )
            fresh_caches()
