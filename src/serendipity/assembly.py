"""Two-element conformity: matching shared DOFs forces equal traces.

The pair is two copies of the reference cube glued along one axis: the
left element exposes its {x_axis = +1} facet, the right its
{x_axis = -1} facet, and the identification between the two local
coordinate systems is the identity on the remaining n - 1 coordinates.
DOFs supported on the shared facet (or any of its subfaces) pair up
across the elements with identical weight polynomials, so giving paired
DOFs equal values must produce equal traces.  Axes are 0-based here and
1-based in serialized reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cubegeom import Face, face_contains, restrict_to_face
from .decomp import _expand, _multipliers
from .dofs import DofFunctional, dofs_S, nodal_basis
from .exactpoly import Polynomial, Scalar
from .spaces import dim_S_formula

__all__ = [
    "ElementPair",
    "shared_dof_pairs",
    "interpolate",
    "ContinuityReport",
    "check_continuity",
    "trace_locality_check",
]


@dataclass(frozen=True)
class ElementPair:
    """Two unit cubes adjacent along one axis (right = left shifted by 2)."""

    n: int
    axis: int

    def __post_init__(self) -> None:
        if not 0 <= self.axis < self.n:
            raise ValueError(f"axis {self.axis} out of range for n={self.n}")

    @property
    def left_shared_face(self) -> Face:
        return Face(self.n, ((self.axis, 1),))

    @property
    def right_shared_face(self) -> Face:
        return Face(self.n, ((self.axis, -1),))

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "axis": self.axis + 1,
            "left_shared_face": self.left_shared_face.to_json_obj(),
            "right_shared_face": self.right_shared_face.to_json_obj(),
        }


def _mirror_face(face: Face, axis: int) -> Face:
    """Same face with the glue-axis constraint flipped in sign."""
    flipped = tuple(
        (i, -s) if i == axis else (i, s) for i, s in face.fixed
    )
    return Face(face.n, flipped)


def shared_dof_pairs(
    n: int, r: int, axis: int = 0
) -> tuple[tuple[DofFunctional, DofFunctional], ...]:
    """Pair each left DOF on the shared facet with its right counterpart.

    Both sides carry the same weight monomial in the n - 1 shared
    coordinates; the pairing is a bijection whose size equals the DOF
    count of the (n - 1)-dimensional element of the same degree.
    """
    pair = ElementPair(n, axis)
    functionals = dofs_S(n, r)
    left = [
        L for L in functionals if face_contains(pair.left_shared_face, L.face)
    ]
    right_lookup = {
        (R.face, R.exponents): R
        for R in functionals
        if face_contains(pair.right_shared_face, R.face)
    }
    pairs = []
    for L in left:
        key = (_mirror_face(L.face, axis), L.exponents)
        R = right_lookup.pop(key, None)
        if R is None:
            raise AssertionError(f"no right-side partner for {L}")
        pairs.append((L, R))
    if right_lookup:
        raise AssertionError(
            f"{len(right_lookup)} unmatched right-side DOFs remain, "
            f"first {next(iter(right_lookup.values()))}"
        )
    if n >= 2 and len(pairs) != dim_S_formula(n - 1, r):
        raise AssertionError("shared DOF count does not match the facet element")
    return tuple(pairs)


def _combination(
    n: int, values: Sequence[Fraction], polys: Sequence[Polynomial]
) -> Polynomial:
    """sum(v * p), built in one constructor pass (it adds repeated exponents)."""
    return Polynomial(
        n, ((e, v * c) for v, p in zip(values, polys) if v for e, c in p.terms())
    )


def interpolate(values: Sequence[Scalar], n: int, r: int) -> Polynomial:
    """The unique member of the space with the prescribed DOF values: the
    sum of b_F m_F with the multipliers m = X v of the pairing inverse, so
    no nodal function is expanded.  A float or bool value raises TypeError."""
    count = len(dofs_S(n, r))
    if len(values) != count:
        raise ValueError(f"expected {count} DOF values, got {len(values)}")
    for v in values:
        if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
            raise TypeError(f"DOF value {v!r} is not an int or a Fraction")
    den, multipliers = _multipliers(values, n, r)
    return _expand(n, r, ((face, terms.items()) for face, terms in multipliers.items()), den)


@dataclass(frozen=True)
class ContinuityReport:
    n: int
    r: int
    axis: int
    trials: int
    seed: int
    shared_count: int
    trial_traces_equal: tuple[bool, ...]
    perturbations_detected: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.trial_traces_equal) and all(self.perturbations_detected)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "axis": self.axis + 1,
            "trials": self.trials,
            "seed": self.seed,
            "shared_count": self.shared_count,
            "trial_traces_equal": list(self.trial_traces_equal),
            "perturbations_detected": list(self.perturbations_detected),
            "ok": self.ok,
        }


def _random_values(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9)) for _ in range(count)]


def check_continuity(
    n: int, r: int, axis: int = 0, trials: int = 25, seed: int = 0
) -> ContinuityReport:
    """Seeded trials of the conformity property, plus negative controls.

    Each trial draws independent DOF values for both elements, copies
    the shared values from left to right, and compares the two facet
    traces exactly.  Their gap is linear in the values: a shared pair
    (L, R) adds tr_left(phi_L) - tr_right(phi_R) times the value of L,
    any other DOF its own trace (negated on the right) times its value.
    These defects are formed once per call, so on a conforming element a
    trial reads no trace term.  The controls bump one shared DOF at a
    time on the right element of the last trial, adding that DOF's nodal
    trace; a bump is detected unless that trace equals the gap.  Raises
    ValueError for trials < 1.
    """
    if trials < 1:
        raise ValueError(f"continuity needs trials >= 1, got {trials}")
    pair = ElementPair(n, axis)
    phis = nodal_basis(n, r)
    pairs = shared_dof_pairs(n, r, axis)
    left_traces = [restrict_to_face(phi, pair.left_shared_face) for phi in phis]
    right_traces = [restrict_to_face(phi, pair.right_shared_face) for phi in phis]
    # defect k is weighted by value k of the left element, then of the right
    defects = left_traces + [-trace for trace in right_traces]
    for L, R in pairs:
        defects[L.index] -= right_traces[R.index]
        defects[len(phis) + R.index] = Polynomial.zero(n)
    defects = [(k, d) for k, d in enumerate(defects) if d]
    rng = random.Random(seed)

    results = []
    for _ in range(trials):
        # every value is drawn, even those no defect reads, so a seed fixes its report
        values = _random_values(rng, len(phis)) + _random_values(rng, len(phis))
        gap = _combination(n, [values[k] for k, _ in defects], [d for _, d in defects])
        results.append(not gap)

    detections = [right_traces[R.index] != gap for _, R in pairs]

    return ContinuityReport(
        n=n,
        r=r,
        axis=axis,
        trials=trials,
        seed=seed,
        shared_count=len(pairs),
        trial_traces_equal=tuple(results),
        perturbations_detected=tuple(detections),
    )


def trace_locality_check(n: int, r: int, axis: int = 0) -> bool:
    """Every DOF away from the shared facet has a nodal function with zero
    trace there, so zeroing those DOFs never changes the trace."""
    face = ElementPair(n, axis).left_shared_face
    return not any(
        restrict_to_face(phi, face)
        for L, phi in zip(dofs_S(n, r), nodal_basis(n, r))
        if not face_contains(face, L.face)
    )
