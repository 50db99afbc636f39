"""Every exported name resolves, so tools that walk ``__all__`` can rely on it."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import serendipity

MODULES = sorted(
    p.stem for p in Path(serendipity.__file__).parent.glob("*.py") if p.stem != "__init__"
)


@pytest.mark.parametrize("module", ["serendipity"] + [f"serendipity.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        getattr(mod, name)
