import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mrbleib import _kernels_py
from mrbleib.errors import DimensionMismatch, NotSurjective, ParseError
from mrbleib.linalg import (
    Matrix,
    flat_index,
    format_rational,
    kernel_basis,
    parse_rational,
    rank,
    rref,
    solve_right_inverse,
    solve_with_free_zero,
    unflatten,
)
from reference import fraction_rref


def test_rank_examples():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zeros(2, 2)) == 0
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(2)) == []
    assert kernel_basis(Matrix([[1, -1]])) == [(F(1), F(1))]
    assert kernel_basis(Matrix.zeros(2, 3)) == [
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    ]


def test_right_inverse_examples():
    assert solve_right_inverse(Matrix.identity(3)) == Matrix.identity(3)
    assert solve_right_inverse(Matrix([[1, 0]])) == Matrix([[1], [0]])
    with pytest.raises(NotSurjective):
        solve_right_inverse(Matrix([[1], [0]]))


def test_solve_inconsistent_returns_none():
    m = Matrix([[1, 0], [1, 0]])
    rhs = Matrix([[1], [2]])
    assert solve_with_free_zero(m, rhs) is None


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2) @ Matrix.identity(3)


def test_outside_input_is_coerced_and_checked():
    m = Matrix([[1, "2/3"], [F(1, 2), -4]])
    assert all(type(e) is F for i in range(m.rows) for e in m.row(i))
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([[1, "x"]])
    with pytest.raises(TypeError):
        Matrix([[1, object()]])


def test_internal_results_hold_fractions():
    m = Matrix([[1, 2], [3, 4]])
    results = [
        m + m, m - m, -m, m.scale(3), m @ m, m.transpose(), m.hstack(m), m.vstack(m),
        Matrix.zeros(2, 3), Matrix.identity(2), Matrix.from_cols([m.column(1)]),
        Matrix.diag_blocks(m, m), rref(m)[0],
        solve_with_free_zero(m, Matrix.identity(2)),
    ]
    for r in results:
        assert all(type(e) is F for i in range(r.rows) for e in r.row(i)), r
    assert m.transpose() == Matrix([[1, 3], [2, 4]])
    assert m.hstack(m).cols == 4 and m.vstack(m).rows == 4


def test_rref_canonical_form():
    reduced, pivots = rref(Matrix([[2, 4, 6], [1, 2, 4]]))
    assert pivots == (0, 2)
    assert reduced == Matrix([[1, 2, 0], [0, 0, 1]])


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    grid = draw(
        st.lists(
            st.lists(small_fractions, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix(grid)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(not e for e in m.apply(v))


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=4))
def test_right_inverse_property(m):
    if rank(m) == m.rows:
        s = solve_right_inverse(m)
        assert m @ s == Matrix.identity(m.rows)
    else:
        with pytest.raises(NotSurjective):
            solve_right_inverse(m)


# entries for the kernel checks: mostly zero or small, some with large
# numerators and denominators
kernel_entries = st.one_of(
    st.just(F(0)),
    small_fractions,
    st.fractions(max_denominator=10 ** 12).map(lambda x: x * 10 ** 9),
)


@st.composite
def kernel_matrices(draw):
    """Zero, tall, wide, n x 0 and rank-deficient matrices (products)."""
    rows = draw(st.integers(min_value=1, max_value=7))
    cols = draw(st.integers(min_value=0, max_value=7))

    def grid(r, c):
        return draw(st.lists(st.lists(kernel_entries, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if draw(st.booleans()):
        inner = draw(st.integers(min_value=1, max_value=3))
        return Matrix(grid(rows, inner)) @ Matrix(grid(inner, cols))
    return Matrix(grid(rows, cols))


def linalg_results(m, rhs):
    return rref(m), rank(m), kernel_basis(m), solve_with_free_zero(m, rhs)


def results_from(rref_rows, m, rhs):
    """What ``linalg_results`` must return, read off the reduced echelon
    forms of m and of [m | rhs] that ``rref_rows(dense_rows, cols)`` gives."""
    rows = m.to_lists()
    reduced, pivots = rref_rows(rows, m.cols)
    kernel = []
    for c in range(m.cols):
        if c not in pivots:
            vec = [F(0)] * m.cols
            vec[c] = F(1)
            for k, pc in enumerate(pivots):
                vec[pc] = -reduced[k][c]
            kernel.append(tuple(vec))
    aug, aug_pivots = rref_rows([r + s for r, s in zip(rows, rhs.to_lists())], m.cols + rhs.cols)
    solution = None
    if all(p < m.cols for p in aug_pivots):
        sol = [[F(0)] * rhs.cols for _ in range(m.cols)]
        for k, pc in enumerate(aug_pivots):
            sol[pc] = aug[k][m.cols:]
        solution = Matrix(sol) if sol else Matrix.zeros(0, rhs.cols)
    return (Matrix(reduced), tuple(pivots)), len(pivots), kernel, solution


def reference_rref(rows, cols):
    return fraction_rref(rows)


def sympy_rref(rows, cols):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq = sympy.QQ
    dm = DomainMatrix([[qq(e.numerator, e.denominator) for e in row] for row in rows],
                      (len(rows), cols), qq)
    red, pivots = dm.rref()
    return [[F(int(e.numerator), int(e.denominator)) for e in row] for row in red.to_list()], list(pivots)


def right_hand_sides(data, m):
    return Matrix(data.draw(st.lists(
        st.lists(kernel_entries, min_size=2, max_size=2), min_size=m.rows, max_size=m.rows)))


@settings(max_examples=150, deadline=None)
@given(kernel_matrices(), st.data())
def test_kernel_matches_fraction_reference(m, data):
    rhs = right_hand_sides(data, m)
    assert linalg_results(m, rhs) == results_from(reference_rref, m, rhs)


def test_kernel_on_empty_and_zero_matrices():
    assert _kernels_py.rref([], 0) == ([], [])
    # the kernel returns the pivot rows only; rref pads the zero rows back
    assert _kernels_py.rref([{}, {}], 0) == ([], [])
    assert _kernels_py.rref([{0: F(2)}, {0: F(1)}, {1: F(3)}], 3) == (
        [[F(1), F(0), F(0)], [F(0), F(1), F(0)]], [0, 1]
    )
    assert _kernels_py.echelon([]) == {} and _kernels_py.echelon([{}, {}]) == {}
    zero = Matrix.zeros(2, 3)
    assert rref(zero) == (zero, ()) and rank(zero) == 0
    assert kernel_basis(zero) == [tuple(F(int(i == j)) for j in range(3)) for i in range(3)]


def test_solve_keeps_no_zero_rows():
    # rank 200 over 20000 rows: dense zero rows for the 19800 others would
    # take about 32 MiB; the integer rows of the elimination take about 5 MiB
    rows, cols = 20000, 200
    m = Matrix._sparse([{i % cols: F(1)} for i in range(rows)], cols)
    tracemalloc.start()
    try:
        x = solve_with_free_zero(m, Matrix.zeros(rows, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x == Matrix.zeros(cols, 1)
    assert peak < 12 * 2 ** 20, peak


def test_matrix_with_no_rows_keeps_its_columns():
    empty = Matrix.zeros(0, 3)
    assert (empty.rows, empty.cols) == (0, 3)
    assert kernel_basis(empty) == [tuple(F(int(i == j)) for j in range(3)) for i in range(3)]
    assert rank(empty) == 0 and rref(empty) == (empty, ())
    product = Matrix.zeros(2, 0) @ empty
    assert (product.rows, product.cols) == (2, 3) and product == Matrix.zeros(2, 3)
    assert (empty.transpose().rows, empty.transpose().cols) == (3, 0)
    assert (Matrix.zeros(3, 0).transpose().rows, Matrix.zeros(3, 0).transpose().cols) == (0, 3)
    stacked = empty.vstack(Matrix.zeros(0, 3))
    assert (stacked.rows, stacked.cols) == (0, 3)
    wide = empty.hstack(Matrix.zeros(0, 2))
    assert (wide.rows, wide.cols) == (0, 5)
    cols = Matrix.from_cols([(), ()], 0)
    assert (cols.rows, cols.cols) == (0, 2)
    x = solve_with_free_zero(empty, Matrix.zeros(0, 2))
    assert x == Matrix.zeros(3, 2)
    for m in (empty + empty, empty - empty, -empty, empty.scale(2)):
        assert (m.rows, m.cols) == (0, 3)


def test_nonzeros_lists_entries_row_major():
    m = Matrix([[0, F(1, 2)], [3, 0], [0, 0]])
    assert m.nonzeros() == [(0, 1, F(1, 2)), (1, 0, F(3))]
    assert Matrix.zeros(0, 3).nonzeros() == []


@settings(max_examples=60, deadline=None)
@given(kernel_matrices(), st.data())
def test_rref_matches_sympy(m, data):
    rhs = right_hand_sides(data, m)
    assert linalg_results(m, rhs) == results_from(sympy_rref, m, rhs)


def test_cancelled_entries_are_never_stored():
    a = Matrix([[1, F(1, 2)], [0, 3]])
    b = Matrix([[-1, F(1, 2)], [0, -3]])
    cases = [
        (a + b, Matrix([[0, 1], [0, 0]])),
        (a - a, Matrix.zeros(2, 2)),
        (a.scale(0), Matrix.zeros(2, 2)),
        (Matrix([[1, 1], [2, 0]]) @ Matrix([[1, 0], [-1, 0]]), Matrix([[0, 0], [2, 0]])),
        (-(-a), a),
        (a.hstack(b).vstack(b.hstack(a)), Matrix([[1, F(1, 2), -1, F(1, 2)], [0, 3, 0, -3],
                                                 [-1, F(1, 2), 1, F(1, 2)], [0, -3, 0, 3]])),
        (Matrix.from_cols([(F(0), F(2))]), Matrix([[0], [2]])),
        (Matrix.diag_blocks(a, Matrix.zeros(1, 1)), Matrix([[1, F(1, 2), 0], [0, 3, 0], [0, 0, 0]])),
        (Matrix._dense([[F(0), F(5)]], 2), Matrix([[0, 5]])),
        (Matrix._sparse([{1: F(5)}], 2), Matrix([[0, 5]])),
        (Matrix([[F(2, 4), F(0, 3)]]), Matrix._sparse([{0: F(1, 2)}], 2)),
        (rref(a + b)[0], Matrix([[0, 1], [0, 0]])),
        (solve_with_free_zero(a, a), Matrix.identity(2)),
    ]
    for got, expected in cases:
        dense = [e for row in got.to_lists() for e in row]
        assert len(got.nonzeros()) == sum(1 for e in dense if e), got
        assert got == expected and hash(got) == hash(expected), got
    assert a + b != Matrix([[0, 1], [0, 1]]) and Matrix.zeros(1, 2) != Matrix.zeros(2, 1)


@settings(max_examples=60, deadline=None)
@given(kernel_matrices(), st.data())
def test_matmul_matches_triple_loop(a, data):
    cols = data.draw(st.integers(min_value=0, max_value=5))
    b = Matrix(data.draw(st.lists(
        st.lists(kernel_entries, min_size=cols, max_size=cols), min_size=a.cols, max_size=a.cols)))
    naive = [[sum((a[i, t] * b[t, j] for t in range(a.cols)), F(0)) for j in range(b.cols)]
             for i in range(a.rows)]
    assert (a @ b).to_lists() == naive


def test_determinism_bit_identical():
    m = Matrix([[F(1, 3), 2, -1], [4, F(-2, 7), 0], [1, 1, 1]])
    first = (rank(m), kernel_basis(m), rref(m))
    second = (rank(m), kernel_basis(m), rref(m))
    assert first == second


def test_multi_index_flat_formula():
    # flat = sum (i_t - 1) d^(n-t), leftmost most significant
    assert flat_index((1, 1), 3) == 0
    assert flat_index((1, 2), 3) == 1
    assert flat_index((2, 1), 3) == 3
    assert flat_index((3, 3, 3), 3) == 26


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3))
def test_multi_index_bijection(dim, arity):
    seen = set()
    for pos in range(dim ** arity):
        idx = unflatten(pos, arity, dim)
        assert flat_index(idx, dim) == pos
        seen.add(idx)
    assert len(seen) == dim ** arity


def test_rational_strings():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational("−2/3") == F(-2, 3)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-2)) == "-2"
    assert parse_rational(" -3/6\n") == F(-1, 2)
    for bad in ("1/0", "1/-2", "+1", "a", "1.5", "", "1/+2", "1_000", "1/ 2", "\u0661"):
        with pytest.raises(ParseError):
            parse_rational(bad)


@settings(max_examples=80, deadline=None)
@given(small_fractions)
def test_rational_round_trip(x):
    assert parse_rational(format_rational(F(x))) == F(x)
