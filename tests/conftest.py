"""Fixtures shared by the test modules."""

from __future__ import annotations

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
