"""DOF sets, exact linear algebra, unisolvence, nodal bases.

The RationalMatrix algorithms are checked against deliberately naive
oracles defined here: cofactor-expansion determinants, plain Fraction
Gaussian elimination for ranks and kernels, and the textbook matrix
product.  The oracles share no code with the implementations under test.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from dense import apply_dof, dof_matrix, face_contains
from serendipity.cubegeom import Face, full_cube
from serendipity.dofs import (
    DofFunctional,
    RationalMatrix,
    SingularMatrixError,
    check_unisolvence,
    dof_layout,
    dofs_Q,
    dofs_S,
    nodal_basis,
)
from serendipity.exactpoly import Polynomial
from serendipity.spaces import (
    basis_S,
    dim_Q,
    dim_S_formula,
    monomials_total_degree_at_most,
)


def cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    """Textbook recursive determinant; exponential, for small matrices only."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if not head:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def gauss_rank(rows: list[list[Fraction]]) -> int:
    """Plain Fraction Gaussian elimination rank, no Bareiss tricks."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def gauss_nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """A right-kernel basis from plain Fraction reduced row echelon form."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def naive_matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Textbook row-by-column product."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def leading_minors_positive(rows: list[list[Fraction]]) -> bool:
    return all(
        cofactor_det([r[:k] for r in rows[:k]]) > 0 for k in range(1, len(rows) + 1)
    )


def random_fraction_matrix(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]


class TestRationalMatrix:
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[0, 1], [1, 0]], False),  # zero leading minor: needs an exchange
            ([[1, 2], [2, 1]], False),  # indefinite
            ([[1, 1], [1, 1]], False),  # singular
            ([[1, 2], [0, 1]], False),  # leading minors positive, not symmetric
            ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], True),
            ([[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)], True),
            ([], True),
        ],
    )
    def test_positive_definite_frozen(self, positive_definite, rows, expected):
        # the Sylvester oracle of the Gram checks, against frozen answers
        fractions = [[Fraction(v) for v in row] for row in rows]
        assert positive_definite(rows) is expected
        if fractions == [list(col) for col in zip(*fractions)]:
            assert leading_minors_positive(fractions) is expected

    def test_positive_definite_matches_leading_minors(self, positive_definite):
        rng = random.Random(10)
        for size in (1, 2, 3, 4, 5):
            for _ in range(12):
                a = random_fraction_matrix(rng, size, size)
                sym = [[a[i][j] + a[j][i] for j in range(size)] for i in range(size)]
                gram = naive_matmul(a, [list(col) for col in zip(*a)])
                for rows in (sym, gram):
                    assert positive_definite(rows) is leading_minors_positive(rows)

    def test_rank_matches_gauss_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = random_fraction_matrix(rng, rows, cols)
            assert RationalMatrix(m).rank() == gauss_rank(m)

    def test_rank_of_engineered_deficient_matrices(self):
        rng = random.Random(12)
        for _ in range(20):
            # build rank <= 2 matrices as outer-product sums
            rows, cols = rng.randint(3, 6), rng.randint(3, 6)
            u1 = [Fraction(rng.randint(-5, 5)) for _ in range(rows)]
            v1 = [Fraction(rng.randint(-5, 5)) for _ in range(cols)]
            u2 = [Fraction(rng.randint(-5, 5)) for _ in range(rows)]
            v2 = [Fraction(rng.randint(-5, 5)) for _ in range(cols)]
            m = [
                [u1[i] * v1[j] + u2[i] * v2[j] for j in range(cols)]
                for i in range(rows)
            ]
            got = RationalMatrix(m).rank()
            assert got == gauss_rank(m)
            assert got <= 2

    def test_rank_zero_matrix(self):
        assert RationalMatrix([[0, 0], [0, 0]]).rank() == 0

    def test_solve_round_trip(self):
        rng = random.Random(13)
        solved = 0
        while solved < 10:
            rows = random_fraction_matrix(rng, 4, 4)
            if cofactor_det(rows) == 0:
                continue
            m = RationalMatrix(rows)
            identity = [[int(i == j) for j in range(4)] for i in range(4)]
            x = m.solve(RationalMatrix(identity))
            assert naive_matmul(rows, x.to_lists()) == identity
            b = random_fraction_matrix(rng, 4, 2)
            assert naive_matmul(rows, m.solve(RationalMatrix(b)).to_lists()) == b
            solved += 1

    def test_solve_rejects_singular(self):
        for rows in (
            [[1, 2], [2, 4]],
            [[0, 1], [0, 2]],
            [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        ):
            size = range(len(rows))
            with pytest.raises(SingularMatrixError):
                RationalMatrix(rows).solve(RationalMatrix([[int(i == j) for j in size] for i in size]))

    def test_solve_empty_system(self):
        assert RationalMatrix([]).solve(RationalMatrix([])) == RationalMatrix([])

    def test_solve_shape_validation(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]]).solve(RationalMatrix([[1]]))
        with pytest.raises(ValueError):
            RationalMatrix([[1, 0], [0, 1]]).solve(RationalMatrix([[1]]))

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("rows", [[[1, Fraction(-2, 3)], [0, 5]], []])
    def test_copy_and_pickle_round_trip(self, clone, rows):
        m = RationalMatrix(rows)
        copied = clone(m)
        assert copied == m and hash(copied) == hash(m)
        assert (copied.rows, copied.cols) == (m.rows, m.cols)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])


class TestDofSets:
    def test_counts_match_space_dimension(self):
        for n in range(1, 6):
            for r in range(1, 9):
                assert len(dofs_S(n, r)) == dim_S_formula(n, r), (n, r)

    def test_tensor_counts_match_q_dimension(self):
        for n in range(1, 4):
            for r in range(1, 7):
                assert sum(1 for _ in dofs_Q(n, r)) == dim_Q(n, r), (n, r)

    def test_counting_identity_via_layout(self):
        # sum over d of 2^(n-d) C(n,d) (r-1)^d = (r+1)^n
        for n in range(1, 6):
            for r in range(1, 9):
                layout = dof_layout(n, r, family="Q")
                assert layout.total == (r + 1) ** n

    def test_interior_moment_counts(self):
        layout = dof_layout(2, 6, family="S")
        by_dim = {row.face_dim: row for row in layout.rows}
        assert by_dim[2].per_face == 6  # degree 2 in two variables
        layout3 = dof_layout(3, 6, family="S")
        by_dim3 = {row.face_dim: row for row in layout3.rows}
        assert by_dim3[2].per_face == 6
        assert by_dim3[3].per_face == 1

    def test_low_degree_faces_carry_nothing(self):
        functionals = dofs_S(2, 3)
        assert len(functionals) == 12
        assert all(L.face.dim <= 1 for L in functionals)

    def test_ordering_is_by_dimension_then_face_then_weight(self):
        functionals = dofs_S(2, 4)
        dims = [L.face.dim for L in functionals]
        assert dims == sorted(dims)
        assert [L.index for L in functionals] == list(range(len(functionals)))
        # within the first edge, weights come in graded order
        edge = Face(2, ((0, -1),))
        weights = [
            L.weight.terms()[0][0] for L in functionals if L.face == edge
        ]
        assert weights == [(0, 0), (0, 1), (0, 2)]

    def test_weights_supported_on_free_axes(self):
        for L in dofs_S(3, 5):
            for exps, _ in L.weight.terms():
                assert all(exps[i] == 0 for i in L.face.fixed_indices)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            dofs_S(2, 0)
        with pytest.raises(ValueError):
            dofs_Q(0, 2)
        with pytest.raises(ValueError):
            dof_layout(2, 2, family="P")


class TestApplyDof:
    def test_vertex_evaluation(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        vertex = Face(2, ((0, 1), (1, -1)))
        L = DofFunctional(vertex, (0, 0), 0)
        assert apply_dof(L, 2 * x * y + 1) == -1

    def test_edge_moment(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        edge = Face(2, ((1, 1),))
        L = DofFunctional(edge, (1, 0), 0)
        assert apply_dof(L, x) == Fraction(2, 3)
        assert apply_dof(L, y) == 0

    def test_interior_moment(self):
        x = Polynomial.variable(1, 0)
        L = DofFunctional(full_cube(1), (0,), 0)
        assert apply_dof(L, 1 - x**2) == Fraction(4, 3)

    def test_mismatched_n_raises(self):
        with pytest.raises(ValueError, match="different variable counts"):
            apply_dof(DofFunctional(full_cube(3), (0, 0, 0), 0), Polynomial.one(2))

    def test_linearity(self):
        rng = random.Random(20)
        functionals = dofs_S(2, 4)
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = x**2 * y - 3 * y + 1
        q = x * y + Fraction(1, 2) * x**3
        for L in functionals:
            a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
            assert apply_dof(L, a * p + b * q) == a * apply_dof(L, p) + b * apply_dof(L, q)


class TestUnisolvence:
    def test_interval_matrix_frozen(self):
        m = dof_matrix(basis_S(1, 1), dofs_S(1, 1))
        assert m.to_lists() == [[1, -1], [1, 1]]
        assert cofactor_det(m.to_lists()) == 2

    def test_square_bilinear_det(self):
        m = dof_matrix(basis_S(2, 1), dofs_S(2, 1))
        assert abs(cofactor_det(m.to_lists())) == 16
        assert m.rank() == 4

    def test_full_rank_matches_oracle_on_moderate_cells(self):
        for n, r in [(1, 8), (2, 4), (3, 2)]:
            m = dof_matrix(basis_S(n, r), dofs_S(n, r))
            assert m.rank() == gauss_rank(m.to_lists()) == dim_S_formula(n, r)

    @pytest.mark.parametrize("n, r", [(1, 3), (2, 2), (2, 5), (3, 3)])
    def test_check_unisolvence(self, n, r):
        result = check_unisolvence(n, r)
        assert result.unisolvent
        assert result.rank == result.dim == dim_S_formula(n, r)
        assert result.matrix_full_rank
        assert result.facet_factor_ok

    def test_report_serialization(self):
        obj = check_unisolvence(2, 2).to_json_obj()
        assert obj["unisolvent"] is True
        assert obj["rank"] == obj["dim"] == 8


def dense_nodal_basis(n: int, r: int) -> tuple[Polynomial, ...]:
    """The earlier nodal basis, kept as an oracle: one dense solve of the
    DOF matrix against the identity, column j read as polynomial j."""
    basis = basis_S(n, r)
    identity = [[int(i == j) for j in range(basis.dim)] for i in range(basis.dim)]
    coeffs = dof_matrix(basis, dofs_S(n, r)).solve(RationalMatrix(identity))
    return tuple(
        Polynomial(n, {m: coeffs.entry(k, j) for k, m in enumerate(basis.monomials)})
        for j in range(basis.dim)
    )


class TestNodalBasis:
    @pytest.mark.parametrize("n, r", [(2, 4), (3, 4), (3, 6), (4, 4)])
    def test_matches_dense_solve(self, n, r):
        assert nodal_basis(n, r) == dense_nodal_basis(n, r)

    def test_bilinear_vertex_function(self):
        phis = nodal_basis(2, 1)
        functionals = dofs_S(2, 1)
        corner = Face(2, ((0, 1), (1, 1)))
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        expected = Fraction(1, 4) * (1 + x) * (1 + y)
        for L, phi in zip(functionals, phis):
            if L.face == corner:
                assert phi == expected

    @pytest.mark.parametrize("n, r", [(1, 4), (2, 2), (2, 3), (3, 2)])
    def test_delta_property_by_independent_application(self, n, r):
        phis = nodal_basis(n, r)
        functionals = dofs_S(n, r)
        for i, L in enumerate(functionals):
            for j, phi in enumerate(phis):
                assert apply_dof(L, phi) == (1 if i == j else 0)

    @pytest.mark.parametrize("n, r", [(2, 2), (2, 4), (3, 2)])
    def test_constants_reproduced(self, n, r):
        phis = nodal_basis(n, r)
        functionals = dofs_S(n, r)
        one = Polynomial.one(n)
        combo = Polynomial.zero(n)
        for L, phi in zip(functionals, phis):
            combo = combo + apply_dof(L, one) * phi
        assert combo == one

    def test_interpolation_reproduces_space_members(self):
        rng = random.Random(21)
        n, r = 2, 3
        phis = nodal_basis(n, r)
        functionals = dofs_S(n, r)
        for _ in range(5):
            p = Polynomial(
                n,
                {
                    m: Fraction(rng.randint(-4, 4))
                    for m in basis_S(n, r).monomials
                },
            )
            combo = Polynomial.zero(n)
            for L, phi in zip(functionals, phis):
                combo = combo + apply_dof(L, p) * phi
            assert combo == p


class TestTraceLocality:
    @pytest.mark.parametrize("n", [2, 3])
    def test_facet_dofs_determine_facet_trace(self, n):
        # whenever all DOFs on a facet and its subfaces vanish, the trace
        # on that facet vanishes identically
        from serendipity.cubegeom import enumerate_faces, restrict_to_face

        for r in range(1, 6):
            basis = basis_S(n, r)
            functionals = dofs_S(n, r)
            for facet in enumerate_faces(n, n - 1):
                on_facet = [
                    L for L in functionals if face_contains(facet, L.face)
                ]
                rows = dof_matrix(basis, on_facet)
                for v in gauss_nullspace(rows.to_lists()):
                    member = Polynomial(n, dict(zip(basis.monomials, v)))
                    assert restrict_to_face(member, facet).is_zero(), (n, r, facet)
