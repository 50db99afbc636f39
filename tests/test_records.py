"""The package's frozen value records behave as ``@dataclass(frozen=True)``
classes do: construction by position, keyword and default, equality only
within one class, the hash of the field tuple, the ``Name(field=value)``
repr, no assignment or deletion, and pickle and copy round trips.  Each
writes its JSON data through ``to_json_obj``: the fields, then the
properties it names in ``_derived``, with no tuple left."""

from __future__ import annotations

import copy
import json
import pickle

import pytest

from serendipity.assembly import ContinuityReport, ElementPair
from serendipity.cubegeom import Face, all_faces
from serendipity.decomp import DirectSumResult, FaceComponent, FacetKernelResult
from serendipity.dofs import DofFunctional, LayoutReport, LayoutRow, UnisolvenceResult
from serendipity.exactpoly import Polynomial
from serendipity.spaces import InclusionReport, SpaceBasis

SQUARE = Face(2, ())
EDGE = Face(2, ((0, 1),))
ROW = LayoutRow(1, 4, 2)

# class -> (field names in order, a sample, a sample that differs in one field)
RECORDS = {
    ElementPair: (("n", "axis"), (3, 1), (3, 2)),
    ContinuityReport: (
        ("n", "r", "axis", "trials", "seed", "shared_count", "trial_traces_equal",
         "perturbations_detected"),
        (2, 3, 0, 2, 7, 4, (True, True), (True, False)),
        (2, 3, 0, 2, 8, 4, (True, True), (True, False)),
    ),
    Face: (("n", "fixed"), (3, ((0, 1),)), (3, ((0, -1),))),
    FaceComponent: (
        ("face", "coefficient"),
        (EDGE, Polynomial.from_monomial((0, 2), 3)),
        (EDGE, Polynomial.from_monomial((0, 2), 5)),
    ),
    DirectSumResult: (
        ("n", "r", "space_dim", "component_count", "rank", "culprit"),
        (2, 3, 12, 12, 12, None),
        (2, 3, 12, 12, 11, "Gram block"),
    ),
    FacetKernelResult: (
        ("n", "r", "space_dim", "kernel_dim", "expected_dim", "culprit"),
        (2, 4, 17, 1, 1, None),
        (2, 4, 17, None, 1, "bubble"),
    ),
    DofFunctional: (("face", "exponents", "index"), (EDGE, (0, 1), 5), (EDGE, (0, 1), 6)),
    UnisolvenceResult: (
        ("n", "r", "dim", "rank", "facet_factor_ok", "culprit"),
        (3, 2, 20, 20, True, None),
        (3, 2, 20, 19, True, None),
    ),
    LayoutRow: (("face_dim", "face_count", "per_face"), (1, 4, 2), (1, 4, 3)),
    LayoutReport: (("family", "n", "r", "rows"), ("S", 2, 3, (ROW,)), ("Q", 2, 3, (ROW,))),
    SpaceBasis: (
        ("family", "n", "degree", "face", "monomials"),
        ("S", 2, 1, SQUARE, ((0, 0), (0, 1), (1, 0))),
        ("P", 2, 1, SQUARE, ((0, 0), (0, 1), (1, 0))),
    ),
    InclusionReport: (
        ("n", "r", "contains_total_degree_r", "within_total_degree_r_plus", "dim_P_r",
         "dim_S_r", "dim_Q_r", "culprit"),
        (2, 2, True, True, 6, 8, 9, None),
        (2, 2, False, False, 6, 8, 9, "count"),
    ),
}
DEFAULTS = {DirectSumResult: {"culprit": None}, FacetKernelResult: {"culprit": None},
            UnisolvenceResult: {"culprit": None}, InclusionReport: {"culprit": None}}
CLASSES = list(RECORDS)

SQUARE_JSON = {"n": 2, "dim": 2, "fixed": []}
EDGE_JSON = {"n": 2, "dim": 1, "fixed": [{"index": 1, "sign": 1}]}
ROW_JSON = {"face_dim": 1, "face_count": 4, "per_face": 2, "subtotal": 8}
# class -> the sample's to_json_obj(), as each report's own method wrote it
JSON = {
    ElementPair: {
        "n": 3, "axis": 2,
        "left_shared_face": {"n": 3, "dim": 2, "fixed": [{"index": 2, "sign": 1}]},
        "right_shared_face": {"n": 3, "dim": 2, "fixed": [{"index": 2, "sign": -1}]},
    },
    ContinuityReport: {
        "n": 2, "r": 3, "axis": 1, "trials": 2, "seed": 7, "shared_count": 4,
        "trial_traces_equal": [True, True], "perturbations_detected": [True, False], "ok": False,
    },
    Face: {"n": 3, "dim": 2, "fixed": [{"index": 1, "sign": 1}]},
    DirectSumResult: {
        "n": 2, "r": 3, "space_dim": 12, "component_count": 12, "rank": 12,
        "dims_match": True, "full_rank": True, "ok": True, "culprit": None,
    },
    FacetKernelResult: {
        "n": 2, "r": 4, "space_dim": 17, "kernel_dim": 1, "expected_dim": 1, "ok": True,
        "culprit": None,
    },
    UnisolvenceResult: {
        "n": 3, "r": 2, "dim": 20, "rank": 20, "matrix_full_rank": True,
        "facet_factor_ok": True, "unisolvent": True, "culprit": None,
    },
    LayoutReport: {"family": "S", "n": 2, "r": 3, "rows": [ROW_JSON], "total": 8},
    SpaceBasis: {
        "family": "S", "n": 2, "r": 1, "face": SQUARE_JSON, "dim": 3,
        "monomials": [[0, 0], [0, 1], [1, 0]],
    },
}
# class -> the sample's to_json_obj() as Record writes it, in key order
INHERITED = {
    FaceComponent: {"face": EDGE_JSON, "coefficient": [{"exponents": [0, 2], "coeff": "3/1"}]},
    DofFunctional: {"face": EDGE_JSON, "exponents": [0, 1], "index": 5},
    LayoutRow: ROW_JSON,
    InclusionReport: {
        "n": 2, "r": 2, "contains_total_degree_r": True, "within_total_degree_r_plus": True,
        "dim_P_r": 6, "dim_S_r": 8, "dim_Q_r": 9, "culprit": None,
    },
}


def sample(cls, which: int = 1):
    return cls(*RECORDS[cls][which])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls):
        fields, values, _ = RECORDS[cls]
        x = cls(*values)
        assert tuple(getattr(x, f) for f in fields) == values
        assert cls(**dict(zip(fields, values))) == x
        assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == x

    def test_defaults(self, cls):
        fields, values, _ = RECORDS[cls]
        defaults = DEFAULTS.get(cls, {})
        assert fields[len(fields) - len(defaults):] == tuple(defaults)
        required = values[: len(fields) - len(defaults)]
        x = cls(*required)
        assert {f: getattr(x, f) for f in defaults} == defaults
        if not defaults:
            return
        with pytest.raises(TypeError):
            cls(*required[:-1])

    def test_bad_arguments_raise_type_error(self, cls):
        fields, values, _ = RECORDS[cls]
        for args, kwargs in [
            (values[:-1], {}) if cls not in DEFAULTS else (values[:-2], {}),
            (values + (0,), {}),
            (values, {"unknown": 0}),
            (values, {fields[0]: values[0]}),
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_equality_is_by_fields_within_the_class(self, cls):
        x, y, other = sample(cls), sample(cls), sample(cls, 2)
        assert x is not y and x == y and not x != y
        assert x != other and not x == other
        assert x != RECORDS[cls][1]  # not equal to its field tuple
        foreign = next(c for c in CLASSES if c is not cls)
        assert x != sample(foreign) and x != object()

    def test_hash_is_the_hash_of_the_field_tuple(self, cls):
        x = sample(cls)
        assert hash(x) == hash(RECORDS[cls][1]) == hash(sample(cls))
        assert {x: 1}[sample(cls)] == 1

    def test_repr_is_the_dataclass_repr(self, cls):
        fields, values, _ = RECORDS[cls]
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(sample(cls)) == f"{cls.__name__}({pairs})"

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        x = sample(cls)
        field = RECORDS[cls][0][0]
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
        with pytest.raises(AttributeError):
            setattr(x, "extra", 0)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert x == sample(cls)

    def test_pickle_and_copy_round_trips(self, cls):
        x = sample(cls)
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == repr(x)


@pytest.mark.parametrize("cls", list(JSON), ids=lambda c: c.__name__)
def test_json_obj_is_exact_and_holds_no_tuple(cls):
    obj = sample(cls).to_json_obj()
    assert obj == JSON[cls]
    assert json.loads(json.dumps(obj)) == obj


@pytest.mark.parametrize("cls", list(INHERITED), ids=lambda c: c.__name__)
def test_inherited_json_obj_is_the_fields_then_the_derived(cls):
    obj = sample(cls).to_json_obj()
    assert obj == INHERITED[cls] and list(obj) == list(INHERITED[cls])
    assert json.loads(json.dumps(obj)) == obj


def test_face_repr():
    assert repr(Face(n=3, fixed=((0, 1),))) == "Face(n=3, fixed=((0, 1),))"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_face_hashes_as_its_field_tuple(n):
    for face in all_faces(n):
        assert hash(face) == hash((face.n, face.fixed))


def test_face_coerces_its_pins_to_int_tuples():
    face = Face(3, [[True, -1], (2.0, 1)])
    assert face.fixed == ((1, -1), (2, 1)) and type(face.fixed[0]) is tuple
    assert face == Face(3, ((1, -1), (2, 1)))


@pytest.mark.parametrize(
    "n, fixed",
    [(0, ()), (2, ((1, 1), (0, 1))), (2, ((0, 1), (0, -1))), (2, ((2, 1),)),
     (2, ((-1, 1),)), (2, ((0, 0),))],
)
def test_face_validation(n, fixed):
    with pytest.raises(ValueError):
        Face(n, fixed)


def test_face_cached_properties():
    face = Face(4, ((0, 1), (2, -1)))
    assert face.fixed_indices == (0, 2)
    assert face.free_indices == (1, 3)
    assert face.signs == (1, 0, -1, 0)
    assert face.dim == 2
    assert face.signs is face.signs and face.free_indices is face.free_indices
    copied = pickle.loads(pickle.dumps(face))
    assert copied.signs == face.signs and copied == face


@pytest.mark.parametrize("n, axis", [(2, 2), (2, -1), (1, 1)])
def test_element_pair_validation(n, axis):
    with pytest.raises(ValueError):
        ElementPair(n, axis)


@pytest.mark.parametrize(
    "family, monomials",
    [("R", ((0, 0),)), ("S", ((1, 0), (0, 0))), ("S", ((0, 0), (0, 0))),
     ("S", ((0, 0), (1, 0), (0, 1)))],
)
def test_space_basis_validation(family, monomials):
    with pytest.raises(ValueError):
        SpaceBasis(family, 2, 1, SQUARE, monomials)


def test_space_basis_cached_index():
    basis = sample(SpaceBasis)
    assert [basis.index_of(m) for m in basis.monomials] == [0, 1, 2]
    assert basis.index_of([1, 0]) == 2
