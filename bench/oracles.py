"""Reference computations for checking the package's outputs.

Everything here is written from the definitions, without importing
``serendipity``: the closed-form dimension, superlinear degree, the
exact integral of a monomial over a face of [-1, 1]^n, restriction to a
face, the face-moment DOF set and exact evaluation.  A polynomial is a
dict from exponent tuples to ``Fraction`` coefficients; a face is a
tuple of (axis, sign) pins with 0-based axes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm


def dim_S(n: int, r: int) -> int:
    """dim S_r on the n-cube: sum over d of 2^(n-d) C(n,d) C(r-d,d)."""
    return sum(
        2 ** (n - d) * comb(n, d) * comb(r - d, d)
        for d in range(n + 1)
        if r - d >= d
    )


def dim_P(n: int, s: int) -> int:
    """Polynomials of total degree <= s in n variables (0 when s < 0)."""
    return comb(s + n, n) if s >= 0 else 0


def superlinear_degree(exps) -> int:
    return sum(e for e in exps if e >= 2)


def s_exponents(n: int, r: int) -> list[tuple[int, ...]]:
    """Every monomial of S_r, found by filtering the box [0, r]^n."""
    return sorted(
        (e for e in itertools.product(range(r + 1), repeat=n) if superlinear_degree(e) <= r),
        key=lambda e: (sum(e), e),
    )


def interval_moment(e: int) -> Fraction:
    """Integral of t^e over [-1, 1]: (1 - (-1)^(e+1)) / (e + 1)."""
    return Fraction(1 - (-1) ** (e + 1), e + 1)


def face_moment(face, exps) -> Fraction:
    """Integral of x^exps over a face; a vertex carries the counting measure."""
    pinned = dict(face)
    value = Fraction(1)
    for axis, e in enumerate(exps):
        if axis in pinned:
            value *= pinned[axis] ** e
        else:
            value *= interval_moment(e)
    return value


def restrict(poly: dict, face) -> dict:
    """Substitute the face's pinned values; pinned exponents become 0."""
    out: dict = {}
    for exps, c in poly.items():
        key = list(exps)
        for axis, sign in face:
            c = c * sign ** exps[axis]
            key[axis] = 0
        key = tuple(key)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def dof_set(n: int, r: int) -> set:
    """The face-moment DOFs as (face, weight exponents): on each d-face,
    the monomials of total degree <= r - 2d in its free variables."""
    out = set()
    for d in range(n + 1):
        s = r - 2 * d
        if s < 0:
            break
        for pinned in itertools.combinations(range(n), n - d):
            free = [a for a in range(n) if a not in pinned]
            for signs in itertools.product((-1, 1), repeat=n - d):
                face = tuple(zip(pinned, signs))
                for powers in itertools.product(range(s + 1), repeat=d):
                    if sum(powers) <= s:
                        w = [0] * n
                        for a, p in zip(free, powers):
                            w[a] = p
                        out.add((face, tuple(w)))
    return out


def moment_matrix(dofs, exponents) -> list[tuple[int, list[int]]]:
    """Row i, column k: DOF i applied to the monomial exponents[k], stored
    as (denominator, integer numerators) so that applying it is integer work."""
    rows = []
    for face, w in dofs:
        row = [face_moment(face, tuple(a + b for a, b in zip(w, e))) for e in exponents]
        den = lcm(*(v.denominator for v in row))
        rows.append((den, [int(v * den) for v in row]))
    return rows


def apply_dofs(matrix, column_of: dict, poly: dict) -> list[Fraction]:
    """Every DOF applied to poly, whose monomials must index columns."""
    den = lcm(*(Fraction(c).denominator for c in poly.values()))
    coords = [(column_of[e], int(c * den)) for e, c in poly.items()]
    return [Fraction(sum(row[k] * c for k, c in coords), d * den) for d, row in matrix]


def evaluate(poly: dict, point) -> Fraction:
    xs = [Fraction(x) for x in point]
    total = Fraction(0)
    for exps, c in poly.items():
        for x, e in zip(xs, exps):
            c = c * x**e
        total += c
    return total


def add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def from_json(terms) -> dict:
    """The CLI's serialized form: [{"exponents": [...], "coeff": "p/q"}]."""
    return {tuple(t["exponents"]): Fraction(t["coeff"]) for t in terms}


def face_from_json(obj) -> tuple:
    return tuple(sorted((f["index"] - 1, f["sign"]) for f in obj["fixed"]))
