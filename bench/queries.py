"""The element-queries workload, run in a fresh interpreter.

    python3 bench/queries.py --n 3 --r 6 --seed 1 --rounds 19 [--stats FILE]

The process builds the (n, r) element cold (DOFs, nodal basis and the
decomposition solver) and prints ``ready`` as soon as it is built, so
the caller can time set-up from interpreter start.  With ``--rounds 0``
it stops there.  Otherwise it runs three seeded batches on the warm
caches, each of a fixed size per round:

* ``INTERP`` paired interpolations: both elements of a two-element patch
  glued along a seeded axis, shared DOF values copied from left to
  right, each interpolant restricted to the shared facet;
* ``DECOMPOSE`` random integer members of S_r split by both methods
  and recomposed;
* ``EVAL`` seeded points of the 11^n grid, at each of which every
  nodal function is evaluated in floating point.

The outputs are checked against ``oracles`` after the timed region, and
the last line printed is a JSON summary.  ``--stats FILE`` traces the
whole process (``tracer``) and writes the raw statistics to FILE.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import sys
from fractions import Fraction
from time import perf_counter

import oracles

INTERP, DECOMPOSE, EVAL = 2, 1, 50
REPRODUCE_POINTS = 100  # exact evaluation at binary-float points is slow
GRID = [-1.0 + 2.0 * i / 10 for i in range(11)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--r", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--stats", default=None)
    args = ap.parse_args(argv)
    tracer = None
    if args.stats:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    import serendipity as s

    n, r = args.n, args.r
    functionals = s.dofs_S(n, r)
    phis = s.nodal_basis(n, r)
    s.decompose(s.Polynomial.one(n), r, method="solve")  # builds the component solver
    print("ready", flush=True)
    if args.rounds == 0:
        return 0

    rng = random.Random(args.seed)
    dofs = [(L.face.fixed, L.weight.terms()[0][0]) for L in functionals]
    interp_in = [_paired_values(rng, dofs, n) for _ in range(INTERP * args.rounds)]
    s_exps = oracles.s_exponents(n, r)
    decomp_in = [
        {e: Fraction(rng.randint(-9, 9)) for e in s_exps} for _ in range(DECOMPOSE * args.rounds)
    ]
    decomp_polys = [s.Polynomial(n, p) for p in decomp_in]
    grid = list(itertools.product(GRID, repeat=n))
    points = [grid[rng.randrange(len(grid))] for _ in range(EVAL * args.rounds)]

    t0 = perf_counter()
    interp_out = []
    for axis, left, right in interp_in:
        u, v = s.interpolate(left, n, r), s.interpolate(right, n, r)
        interp_out.append((u, v, s.restrict_to_face(u, s.Face(n, ((axis, 1),))),
                           s.restrict_to_face(v, s.Face(n, ((axis, -1),)))))
    t1 = perf_counter()
    decomp_out = []
    for p in decomp_polys:
        a = s.decompose(p, r, method="solve")
        b = s.decompose(p, r, method="construct")
        decomp_out.append((a, b, s.recompose(a, n), s.recompose(b, n)))
    t2 = perf_counter()
    eval_out = [[phi.evaluate(x) for phi in phis] for x in points]
    t3 = perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = _check(n, r, rng, dofs, phis, interp_in, interp_out, decomp_in, decomp_out,
                    points, eval_out)
    if tracer is not None:
        with open(args.stats, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    print(json.dumps({
        "batch_s": [t1 - t0, t2 - t1, t3 - t2],
        "operations": len(interp_in) + len(decomp_in) + len(points),
        "rss_mb": rss_mb,
        "errors": errors[:10],
    }))
    return 0


def _paired_values(rng, dofs, n):
    """DOF values in [-9, 9] for both elements, shared values copied.

    Left DOF (F, w) with F inside {x_axis = +1} pairs with the right DOF
    (F mirrored to x_axis = -1, w): the same weight on the same face of
    the glued patch.
    """
    axis = rng.randrange(n)
    left = [Fraction(rng.randint(-9, 9)) for _ in dofs]
    right = [Fraction(rng.randint(-9, 9)) for _ in dofs]
    index = {dof: i for i, dof in enumerate(dofs)}
    for i, (face, w) in enumerate(dofs):
        if (axis, 1) in face:
            mirror = tuple((a, -1) if a == axis else (a, sg) for a, sg in face)
            right[index[(mirror, w)]] = left[i]
    return axis, left, right


def _terms(poly) -> dict:
    return dict(poly.terms())


def _check(n, r, rng, dofs, phis, interp_in, interp_out, decomp_in, decomp_out, points,
           eval_out) -> list[str]:
    errors: list[str] = []
    s_exps = oracles.s_exponents(n, r)
    column = {e: k for k, e in enumerate(s_exps)}
    moments = oracles.moment_matrix(dofs, s_exps)

    # interpolation reproduces the prescribed DOF values; traces agree
    for q, ((axis, left, right), (u, v, tu, tv)) in enumerate(zip(interp_in, interp_out)):
        for values, poly in ((left, u), (right, v)):
            terms = _terms(poly)
            if not set(terms) <= column.keys():
                errors.append(f"interp {q}: interpolant leaves S_{r}")
            elif oracles.apply_dofs(moments, column, terms) != values:
                errors.append(f"interp {q}: DOF values not reproduced")
        if _terms(tu) != oracles.restrict(_terms(u), ((axis, 1),)) or _terms(tu) != _terms(tv):
            errors.append(f"interp {q}: facet traces differ")

    # decomposition: round trip, agreement, degree budget, facet vanishing
    facets = [((a, sg),) for a in range(n) for sg in (-1, 1)]
    for q, (p, (a, b, sa, sb)) in enumerate(zip(decomp_in, decomp_out)):
        p = {e: c for e, c in p.items() if c}
        if _terms(sa) != p or _terms(sb) != p:
            errors.append(f"decompose {q}: recomposition differs from input")
        if oracles.add(*(_terms(fc.component) for fc in a.values())) != p:
            errors.append(f"decompose {q}: components do not sum to input")
        if a.keys() != b.keys() or any(a[f].coefficient != b[f].coefficient for f in a):
            errors.append(f"decompose {q}: methods disagree")
        for face, fc in a.items():
            coeff = _terms(fc.coefficient)
            if max(map(sum, coeff)) > r - 2 * face.dim:
                errors.append(f"decompose {q}: coefficient degree over budget on {face}")
            comp = _terms(fc.component)
            for facet in facets:
                if facet[0] not in face.fixed and oracles.restrict(comp, facet):
                    errors.append(f"decompose {q}: component of {face} nonzero on {facet}")

    # float evaluation: reproduction of P_r, and fidelity to exact values
    tests = [{(0,) * n: Fraction(1)}]
    tests.append({
        e: Fraction(rng.randint(-9, 9)) for e in s_exps if sum(e) <= r
    })
    for p in tests:
        weights = [float(v) for v in oracles.apply_dofs(moments, column, p)]
        for x, values in list(zip(points, eval_out))[:REPRODUCE_POINTS]:
            exact = oracles.evaluate(p, x)
            terms = [w * v for w, v in zip(weights, values)]
            # rounding error grows with the terms summed, not with the sum
            if abs(sum(terms) - exact) > 1e-12 * max(1, sum(map(abs, terms))):
                errors.append(f"eval: P_{r} not reproduced at {x}")
    for x, values in list(zip(points, eval_out))[:3]:
        for j, phi in enumerate(phis):
            exact = oracles.evaluate(_terms(phi), x)
            if abs(values[j] - exact) > 1e-12 * max(1, abs(exact)):
                errors.append(f"eval: nodal function {j} inexact at {x}")
    return errors


if __name__ == "__main__":
    sys.exit(main())
