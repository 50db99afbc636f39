"""Fixtures shared by the test modules."""

from __future__ import annotations

from fractions import Fraction

import pytest

from serendipity import assembly, cubegeom, decomp, dofs, spaces


def _clear_caches() -> None:
    for module in (cubegeom, spaces, dofs, decomp, assembly):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def fresh_caches():
    """Empty every cache of the package before and after the test, so a
    monkeypatched helper is seen and leaves nothing behind.  Calling the
    fixture's value empties them again, for a helper patched mid-test."""
    _clear_caches()
    yield _clear_caches
    _clear_caches()


def _sylvester(rows) -> bool:
    """Sylvester's criterion for a symmetric matrix: Gaussian elimination
    in Fractions without row exchanges meets only positive pivots, the
    ratios of consecutive leading principal minors."""
    m = [[Fraction(v) for v in row] for row in rows]
    if m != [list(col) for col in zip(*m)]:
        return False
    for c in range(len(m)):
        if m[c][c] <= 0:
            return False
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return True


@pytest.fixture
def positive_definite():
    """The oracle for a positive definite matrix, given as rows: symmetric,
    by Sylvester's criterion."""
    return _sylvester
