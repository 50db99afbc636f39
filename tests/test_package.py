"""Every exported name resolves, so tools that walk ``__all__`` can rely on it."""

from __future__ import annotations

import ast
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


def test_public_api_is_pinned():
    """Any change to the package's exports shows up as a diff here."""
    assert serendipity.__all__ == [
        "Polynomial",
        "superlinear_degree",
        "Face",
        "all_faces",
        "enumerate_faces",
        "full_cube",
        "restrict_to_face",
        "SpaceBasis",
        "basis_P",
        "basis_Q",
        "basis_S",
        "check_inclusions",
        "dim_P",
        "dim_Q",
        "dim_S_formula",
        "DofFunctional",
        "SingularMatrixError",
        "check_unisolvence",
        "dof_layout",
        "dofs_Q",
        "dofs_S",
        "nodal_basis",
        "FaceComponent",
        "bubble",
        "decompose",
        "facet_kernel_check",
        "recompose",
        "verify_direct_sum",
        "ContinuityReport",
        "ElementPair",
        "check_continuity",
        "interpolate",
        "shared_dof_pairs",
        "__version__",
    ]


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_assert_statements(module):
    """Internal consistency checks raise explicitly, so they still run
    under ``python -O``, which strips ``assert`` statements."""
    path = Path(serendipity.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


DENSE_REFERENCE = {"RationalMatrix", "_bareiss"}


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_dense_reference_is_named_only_inside_itself(module):
    """``RationalMatrix`` and ``_bareiss`` stay only as the tests' dense
    reference: no code outside their own bodies names either of them, so
    the certified paths cannot reach an elimination.  Docstrings and
    ``__all__`` strings are not names."""
    path = Path(serendipity.__file__).parent / f"{module}.py"
    stack, lines = [ast.parse(path.read_text(), filename=str(path))], []
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in DENSE_REFERENCE:
            continue
        named = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.alias):
            named |= {node.name, node.asname}
        if named & DENSE_REFERENCE:
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    assert lines == [], f"{path.name} names the dense reference at lines {sorted(lines)}"
