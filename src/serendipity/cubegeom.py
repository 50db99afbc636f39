"""Face lattice of the reference cube [-1, 1]^n.

A face is the subset of the cube obtained by pinning some coordinates
to -1 or +1 and leaving the rest free.  It is stored combinatorially as
a sorted tuple of (axis, sign) constraints with 0-based axes; the
serialized form uses 1-based axes.  The cube itself is the face with no
constraints, vertices are the faces with all n coordinates pinned, and
the face lattice ordering is reverse inclusion of constraint sets.

Faces of each dimension are enumerated in a fixed deterministic order:
lexicographic on the set of pinned axes, then lexicographic on the sign
pattern with -1 before +1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .exactpoly import Exponents, Polynomial, axis_moment

__all__ = [
    "Face",
    "full_cube",
    "enumerate_faces",
    "all_faces",
    "face_contains",
    "restrict_to_face",
    "face_moment",
    "integrate_face",
]


@dataclass(frozen=True)
class Face:
    """A face of [-1, 1]^n given by its pinned coordinates."""

    n: int
    fixed: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("faces require n >= 1")
        fixed = tuple((int(i), int(s)) for i, s in self.fixed)
        axes = [i for i, _ in fixed]
        if axes != sorted(set(axes)):
            raise ValueError(f"pinned axes must be sorted and distinct: {fixed!r}")
        for i, s in fixed:
            if not 0 <= i < self.n:
                raise ValueError(f"axis {i} out of range for n={self.n}")
            if s not in (-1, 1):
                raise ValueError(f"sign for axis {i} must be -1 or +1, got {s}")
        object.__setattr__(self, "fixed", fixed)

    @property
    def dim(self) -> int:
        return self.n - len(self.fixed)

    @property
    def fixed_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.fixed)

    @property
    def free_indices(self) -> tuple[int, ...]:
        pinned = set(self.fixed_indices)
        return tuple(i for i in range(self.n) if i not in pinned)

    def sign_of(self, axis: int) -> int:
        """Pinned value of an axis, or 0 if the axis is free on this face."""
        for i, s in self.fixed:
            if i == axis:
                return s
        return 0

    def contains(self, other: "Face") -> bool:
        return face_contains(self, other)

    def barycenter(self) -> tuple[Fraction, ...]:
        """Center point: pinned coordinates at their sign, free ones at 0."""
        point = [Fraction(0)] * self.n
        for i, s in self.fixed:
            point[i] = Fraction(s)
        return tuple(point)

    def __str__(self) -> str:
        if not self.fixed:
            return f"cube(n={self.n})"
        pins = ", ".join(f"x{i + 1}={'+1' if s > 0 else '-1'}" for i, s in self.fixed)
        return f"face({pins})"

    def to_json_obj(self) -> dict:
        """Serialized form; indices are 1-based in JSON, 0-based in memory."""
        return {
            "n": self.n,
            "dim": self.dim,
            "fixed": [{"index": i + 1, "sign": s} for i, s in self.fixed],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Face":
        fixed = tuple(
            (int(rec["index"]) - 1, int(rec["sign"])) for rec in obj["fixed"]
        )
        return cls(int(obj["n"]), tuple(sorted(fixed)))


def full_cube(n: int) -> Face:
    return Face(n, ())


@lru_cache(maxsize=None)
def enumerate_faces(n: int, d: int) -> tuple[Face, ...]:
    """All d-dimensional faces of [-1, 1]^n in canonical order.

    There are 2^(n-d) * C(n, d) of them for 0 <= d <= n.
    """
    if n < 1:
        raise ValueError("faces require n >= 1")
    if not 0 <= d <= n:
        raise ValueError(f"face dimension {d} out of range 0..{n}")
    faces = []
    for pinned in itertools.combinations(range(n), n - d):
        for signs in itertools.product((-1, 1), repeat=len(pinned)):
            faces.append(Face(n, tuple(zip(pinned, signs))))
    return tuple(faces)


@lru_cache(maxsize=None)
def all_faces(n: int) -> tuple[Face, ...]:
    """Every face of the cube, dimension 0 through n, 3^n in total."""
    out: list[Face] = []
    for d in range(n + 1):
        out.extend(enumerate_faces(n, d))
    return tuple(out)


def face_contains(outer: Face, inner: Face) -> bool:
    """Whether inner is a subface of outer (inclusion of point sets).

    Holds exactly when every constraint of outer appears in inner.
    """
    if outer.n != inner.n:
        raise ValueError("faces belong to cubes of different dimension")
    inner_fixed = set(inner.fixed)
    return all(pin in inner_fixed for pin in outer.fixed)


def restrict_to_face(p: Polynomial, face: Face) -> Polynomial:
    """Substitute the pinned coordinate values of a face into p.

    The trace is returned in the ambient n variables, with exponent 0 on
    every pinned axis.  Restriction never raises the superlinear degree.
    """
    if p.n != face.n:
        raise ValueError(f"polynomial has n={p.n}, face has n={face.n}")
    if not face.fixed:
        return p
    out: dict[Exponents, Fraction] = {}
    for exps, coeff in p.terms():
        sign = 1
        for i, s in face.fixed:
            if s < 0 and exps[i] % 2:
                sign = -sign
        key = list(exps)
        for i, _ in face.fixed:
            key[i] = 0
        key_t = tuple(key)
        out[key_t] = out.get(key_t, Fraction(0)) + sign * coeff
    return Polynomial(p.n, out)


def face_moment(face: Face, exponents: Exponents) -> Fraction:
    """Integral of a single monomial over a face.

    Pinned axes contribute sign**exponent, free axes the interval moment
    of t**exponent.  A vertex uses the counting measure, so its moment
    is plain point evaluation.
    """
    value = Fraction(1)
    for i, s in face.fixed:
        if s < 0 and exponents[i] % 2:
            value = -value
    for i in face.free_indices:
        m = axis_moment(exponents[i])
        if not m:
            return Fraction(0)
        value *= m
    return value


def integrate_face(p: Polynomial, face: Face) -> Fraction:
    """Exact integral of p over a face, with the vertex convention above."""
    if p.n != face.n:
        raise ValueError(f"polynomial has n={p.n}, face has n={face.n}")
    total = Fraction(0)
    for exps, coeff in p.terms():
        total += coeff * face_moment(face, exps)
    return total
