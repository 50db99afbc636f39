"""Face lattice of the reference cube [-1, 1]^n.

A face is the subset of the cube obtained by pinning some coordinates
to -1 or +1 and leaving the rest free.  It is stored combinatorially as
a sorted tuple of (axis, sign) constraints with 0-based axes; the
serialized form uses 1-based axes.  The cube itself is the face with no
constraints, vertices are the faces with all n coordinates pinned, and
the face lattice ordering is reverse inclusion of constraint sets.

Faces of each dimension are enumerated in a fixed deterministic order:
lexicographic on the set of pinned axes, then lexicographic on the sign
pattern with -1 before +1.  ``face_symmetry`` gives the cube symmetry
that maps the first face of a dimension onto any other.

No face integral is formed here: ``decomp``'s split pass takes a
polynomial's DOF values on every face at once, axis by axis.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import cached_property, lru_cache
from operator import mul

from .exactpoly import Polynomial, Record

__all__ = [
    "Face",
    "full_cube",
    "enumerate_faces",
    "all_faces",
    "face_symmetry",
    "restrict_to_face",
]


class Face(Record):
    """A face of [-1, 1]^n given by its pinned coordinates."""

    n: int
    fixed: tuple[tuple[int, int], ...]

    def __init__(self, n: int, fixed: tuple[tuple[int, int], ...]) -> None:
        if n < 1:
            raise ValueError("faces require n >= 1")
        fixed = tuple([(int(i), int(s)) for i, s in fixed])
        axes = [i for i, _ in fixed]
        if axes != sorted(set(axes)):
            raise ValueError(f"pinned axes must be sorted and distinct: {fixed!r}")
        for i, s in fixed:
            if not 0 <= i < n:
                raise ValueError(f"axis {i} out of range for n={n}")
            if s not in (-1, 1):
                raise ValueError(f"sign for axis {i} must be -1 or +1, got {s}")
        self.__dict__.update(n=n, fixed=fixed, _hash=hash((n, fixed)))

    def __hash__(self) -> int:  # faces key most caches, so it is kept
        return self._hash

    @property
    def dim(self) -> int:
        return self.n - len(self.fixed)

    @cached_property
    def fixed_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.fixed)

    @cached_property
    def free_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.signs) if not s)

    @cached_property
    def signs(self) -> tuple[int, ...]:
        """Per axis, the sign it is pinned at, or 0 when it is free."""
        pins = dict(self.fixed)
        return tuple(pins.get(i, 0) for i in range(self.n))

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


def face_symmetry(face: Face) -> tuple[tuple[int, ...], frozenset[int]]:
    """The cube symmetry sigma that sends the first face of its dimension,
    ``enumerate_faces(n, d)[0]``, to face.

    Axis i goes to axis perm[i]: pinned axes to pinned axes and free axes
    to free axes, each in order.  Then the axes in flips, those the face
    pins at +1, change sign.  So sigma sends the pin (i, s) to
    (perm[i], -s or s), and x^e composed with sigma^-1 is x^e' times -1
    to the sum of e' over flips, where e'[perm[i]] = e[i].
    """
    first = enumerate_faces(face.n, face.dim)[0]
    perm = [0] * face.n
    for i, j in zip(first.fixed_indices + first.free_indices, face.fixed_indices + face.free_indices):
        perm[i] = j
    return tuple(perm), frozenset(j for j, s in face.fixed if s > 0)


def restrict_to_face(p: Polynomial, face: Face) -> Polynomial:
    """Substitute the pinned coordinate values of a face into p.

    The trace is returned in the ambient n variables, with exponent 0 on
    every pinned axis.  Restriction never raises the superlinear degree.
    The terms that meet on one trace monomial are added as integers over
    p's one denominator.
    """
    if p.n != face.n:
        raise ValueError(f"polynomial has n={p.n}, face has n={face.n}")
    if not face.fixed:
        return p
    keep = [int(i not in face.fixed_indices) for i in range(p.n)]
    flip = [i for i, s in face.fixed if s < 0]
    scale, terms = p._cleared()
    sums: dict[tuple[int, ...], int] = {}
    for e, value in terms.items():
        key = tuple(map(mul, e, keep))
        sums[key] = sums.get(key, 0) + (-value if sum(e[i] for i in flip) % 2 else value)
    return Polynomial._over(p.n, sums, scale)

