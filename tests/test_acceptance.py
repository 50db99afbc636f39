"""Acceptance suite: twelve end-to-end criteria for the element family.

Each test evaluates one criterion at its stated ranges and tolerance and
prints a single pass/fail line (visible with pytest -s).  The frozen
dimension table below is the published reference surface; everything
else is exact arithmetic or an explicitly bounded float comparison.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

from dense import apply_dof, face_contains
from serendipity.assembly import check_continuity, trace_certificate
from serendipity.cli import main
from serendipity.cubegeom import (
    all_faces,
    enumerate_faces,
    full_cube,
    restrict_to_face,
)
from serendipity.decomp import (
    bubble,
    decompose,
    facet_kernel_check,
    recompose,
    verify_direct_sum,
)
from serendipity.dofs import (
    check_unisolvence,
    dof_layout,
    dofs_S,
    nodal_basis,
)
from serendipity.exactpoly import Polynomial
from serendipity.spaces import (
    basis_S,
    dim_S_formula,
    face_monomials,
    has_superlinear_degree_at_most,
    is_linear_outside_degree_budget,
    serendipity_exponents,
)

SEED = 20260819

# frozen reference: dim S_r([-1,1]^n) for n = 1..5, r = 1..8
TABLE1 = {
    1: (2, 3, 4, 5, 6, 7, 8, 9),
    2: (4, 8, 12, 17, 23, 30, 38, 47),
    3: (8, 20, 32, 50, 74, 105, 144, 192),
    4: (16, 48, 80, 136, 216, 328, 480, 681),
    5: (32, 112, 192, 352, 592, 952, 1472, 2202),
}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {name}: {status}{suffix}")


def test_c01_dimension_table_reproduction(capsys):
    start = time.perf_counter()
    code = main(["table1", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    data = json.loads(out)
    got = {row["n"]: tuple(row["dims"]) for row in data["rows"]}
    ok = code == 0 and got == TABLE1 and elapsed < 1.0
    with capsys.disabled():
        _report(1, "dimension table reproduction", ok, f"{elapsed:.3f}s for 40 cells")
    assert code == 0
    assert got == TABLE1
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"


def test_c02_dimension_identity(capsys):
    mismatches = [
        (n, r)
        for n in range(1, 6)
        for r in range(1, 9)
        if basis_S(n, r).dim != dim_S_formula(n, r)
    ]
    ok = not mismatches
    with capsys.disabled():
        _report(2, "enumerated dimension equals formula", ok, "grid n<=5, r<=8")
    assert ok, mismatches


def test_c03_definition_equivalence(capsys):
    bad = []
    for n in range(1, 5):
        for r in range(1, 7):
            grid = itertools.product(range(r + n + 1), repeat=n)
            by_superlinear = set()
            by_linear_slack = set()
            for exps in grid:
                if has_superlinear_degree_at_most(exps, r):
                    by_superlinear.add(exps)
                if is_linear_outside_degree_budget(exps, r):
                    by_linear_slack.add(exps)
            constructive = set(serendipity_exponents(n, r))
            if not (by_superlinear == by_linear_slack == constructive):
                bad.append((n, r))
    ok = not bad
    with capsys.disabled():
        _report(3, "equivalent membership definitions", ok, "n<=4, r<=6")
    assert ok, bad


def test_c04_tensor_count_identity(capsys):
    bad = []
    for n in range(1, 6):
        for r in range(1, 9):
            direct = sum(
                2 ** (n - d) * comb(n, d) * (r - 1) ** d for d in range(n + 1)
            )
            layout_total = dof_layout(n, r, family="Q").total
            if direct != (r + 1) ** n or layout_total != (r + 1) ** n:
                bad.append((n, r))
    ok = not bad
    with capsys.disabled():
        _report(4, "tensor family counting identity", ok, "n<=5, r<=8")
    assert ok, bad


def test_c05_unisolvence(capsys):
    cells = [(n, r) for n in range(1, 4) for r in range(1, 9)]
    cells += [(4, r) for r in range(1, 5)]
    start = time.perf_counter()
    failures = []
    for n, r in cells:
        result = check_unisolvence(n, r)
        if not result.unisolvent:
            failures.append((n, r, result.rank, result.dim))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    with capsys.disabled():
        _report(
            5,
            "exact unisolvence",
            ok,
            f"{len(cells)} cells up to dim 192 in {elapsed:.1f}s",
        )
    assert not failures, failures
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_c06_nodal_duality(capsys):
    failures = []
    for n in range(1, 4):
        for r in range(1, 7):
            phis = nodal_basis(n, r)
            functionals = dofs_S(n, r)
            for i, L in enumerate(functionals):
                for j, phi in enumerate(phis):
                    expected = Fraction(1 if i == j else 0)
                    if apply_dof(L, phi) != expected:
                        failures.append((n, r, i, j))
    ok = not failures
    with capsys.disabled():
        _report(6, "nodal duality (delta property)", ok, "n<=3, r<=6, exact")
    assert ok, failures[:5]


def test_c07_polynomial_reproduction(capsys):
    failures = []
    for n in range(1, 4):
        for r in range(1, 7):
            phis = nodal_basis(n, r)
            functionals = dofs_S(n, r)
            degree_r_exps = [
                exps
                for exps in itertools.product(range(r + 1), repeat=n)
                if sum(exps) <= r
            ]
            for exps in degree_r_exps:
                target = Polynomial.from_monomial(exps)
                combo = Polynomial.zero(n)
                for L, phi in zip(functionals, phis):
                    value = apply_dof(L, target)
                    if value:
                        combo = combo + value * phi
                if combo != target:
                    failures.append((n, r, exps))
    ok = not failures
    with capsys.disabled():
        _report(7, "total-degree monomial reproduction", ok, "n<=3, r<=6, exact")
    assert ok, failures[:5]


def test_c08_geometric_decomposition(capsys):
    rank_failures = []
    for n in range(1, 4):
        for r in range(1, 9):
            result = verify_direct_sum(n, r)
            if not result.ok:
                rank_failures.append((n, r))

    rng = random.Random(SEED)
    cells = [(1, r) for r in range(1, 9)]
    cells += [(2, r) for r in range(1, 9)]
    cells += [(3, r) for r in range(1, 6)]
    round_trips = 0
    round_trip_failures = []
    while round_trips < 100:
        for n, r in cells:
            coeffs = {
                m: Fraction(rng.randint(-9, 9))
                for m in basis_S(n, r).monomials
            }
            p = Polynomial(n, coeffs)
            if recompose(decompose(p, r), n) != p:
                round_trip_failures.append((n, r))
            round_trips += 1

    agreement_failures = []
    for n in range(1, 4):
        for r in range(1, 6):
            for m in basis_S(n, r).monomials:
                solved = decompose(Polynomial.from_monomial(m), r, method="solve")
                constructed = decompose(Polynomial.from_monomial(m), r, method="construct")
                if set(solved) != set(constructed) or any(
                    solved[f].coefficient != constructed[f].coefficient
                    for f in solved
                ):
                    agreement_failures.append((n, r, m))

    ok = not (rank_failures or round_trip_failures or agreement_failures)
    with capsys.disabled():
        _report(
            8,
            "geometric decomposition",
            ok,
            f"ranks n<=3 r<=8, {round_trips} round trips, face-wise agreement",
        )
    assert not rank_failures, rank_failures
    assert not round_trip_failures, round_trip_failures
    assert not agreement_failures, agreement_failures[:5]


def test_c09_bubble_properties(capsys):
    probes = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    failures = []
    for n in range(1, 5):
        facets = enumerate_faces(n, n - 1)
        for face in all_faces(n):
            b = bubble(face)
            for facet in facets:
                if not face_contains(facet, face):
                    if not restrict_to_face(b, facet).is_zero():
                        failures.append(("vanish", face, facet))
            base = [0] * n
            for axis, sign in face.fixed:
                base[axis] = sign
            for combo in itertools.product(probes, repeat=len(face.free_indices)):
                point = list(base)
                for axis, value in zip(face.free_indices, combo):
                    point[axis] = value
                if not b.evaluate(tuple(point)) > 0:
                    failures.append(("positive", face, tuple(point)))
    ok = not failures
    with capsys.disabled():
        _report(9, "bubble vanishing and positivity", ok, "all faces, n<=4")
    assert ok, failures[:5]


def _cube_integral(p: Polynomial) -> Fraction:
    """Integral over [-1, 1]^n, term by term: t^k has moment 2/(k + 1)
    for even k and 0 for odd k."""
    total = Fraction(0)
    for exps, coeff in p.terms():
        if not any(e % 2 for e in exps):
            for e in exps:
                coeff *= Fraction(2, e + 1)
            total += coeff
    return total


def test_c10_facet_vanishing_subspace(capsys, positive_definite):
    failures = []
    for n in range(1, 4):
        cube = full_cube(n)
        b = bubble(cube)
        for r in range(1, 9):
            result = facet_kernel_check(n, r)
            if not result.ok:
                failures.append((n, r, result.kernel_dim, result.expected_dim))
            if r < 2 * n and result.kernel_dim != 0:
                failures.append((n, r, "expected empty"))
            # the candidates b x^q are independent: their L2 Gram is positive definite
            candidates = [
                b * Polynomial.from_monomial(q) for q in face_monomials(n, r).get(cube, ())
            ]
            if candidates:
                gram = [[_cube_integral(u * v) for v in candidates] for u in candidates]
                if not positive_definite(gram):
                    failures.append((n, r, "Gram not positive definite"))
    ok = not failures
    with capsys.disabled():
        _report(
            10,
            "facet-vanishing subspace is the bubble multiple space",
            ok,
            "n<=3, r<=8, Gram positive definite",
        )
    assert ok, failures


def test_c11_continuity(capsys):
    failures = [
        (n, r, culprit)
        for n in range(1, 5)
        for r in range(1, 9)
        if (culprit := trace_certificate(n, r)) is not None
    ]
    for n in range(1, 4):
        for r in range(1, 6):
            report = check_continuity(n, r, axis=0, trials=25, seed=SEED)
            if not all(report.trial_traces_equal):
                failures.append((n, r, "trace mismatch"))
            if not all(report.perturbations_detected):
                failures.append((n, r, "missed perturbation"))
    ok = not failures
    with capsys.disabled():
        _report(
            11, "two-element continuity", ok,
            "certificate on every axis n<=4, r<=8; n<=3, r<=5, 25 trials each",
        )
    assert ok, failures


def test_c12_float_fidelity(capsys):
    cells = [(1, r) for r in range(1, 7)]
    cells += [(2, r) for r in range(1, 5)]
    cells += [(3, 1), (3, 2)]
    points = [-1.0 + 2.0 * i / 10 for i in range(11)]
    worst = 0.0
    failures = []
    for n, r in cells:
        for phi in nodal_basis(n, r):
            for point in itertools.product(points, repeat=n):
                approx = phi.evaluate(point)
                exact = phi.evaluate(tuple(Fraction(x) for x in point))
                scale = max(1.0, abs(float(exact)))
                err = abs(approx - float(exact)) / scale
                worst = max(worst, err)
                if err > 1e-12:
                    failures.append((n, r, point, err))
    ok = not failures
    with capsys.disabled():
        _report(
            12,
            "float sampling fidelity",
            ok,
            f"11-point grids, worst relative error {worst:.2e}",
        )
    assert ok, failures[:3]
