import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference
from fixtures import AFF, G3, K0, KZ, MRB_FIXTURES, ROT, SL2, SL2_ID, Z1, Z1_K
from mrbleib.algebra import (
    Defect,
    LeibnizAlgebra,
    OperatorContext,
    derived_algebra,
    grid_search_operators,
    leibniz_defect,
    morphism_defect,
    mrb_defect,
    rb_defect,
    rb_to_mrb,
)
from mrbleib.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidArgument,
    NotModifiedRotaBaxter,
    NotRotaBaxter,
)
from mrbleib.linalg import Matrix
from mrbleib.representations import mrb_rep_defect, rep_defect


def test_duplicate_structure_constant_rejected():
    with pytest.raises(DimensionMismatch):
        LeibnizAlgebra(2, [(1, 1, 2, 1), (1, 1, 2, 3)])


def test_leibniz_defect_examples():
    assert leibniz_defect(G3).is_empty
    assert leibniz_defect(AFF).is_empty
    assert leibniz_defect(SL2).is_empty
    bad = LeibnizAlgebra(1, [(1, 1, 1, 1)])
    report = leibniz_defect(bad)
    assert report.entries == (Defect("leibniz", (1, 1, 1), (F(-1),)),)


def test_leibniz_defect_stable_under_reserialization():
    twin = LeibnizAlgebra(3, reversed([(1, 1, 3, 1)]))
    assert twin == G3
    assert leibniz_defect(twin) == leibniz_defect(G3)


def test_mrb_defect_examples():
    assert mrb_defect(G3, K0).is_empty
    for alg in (G3, AFF, SL2, Z1):
        ident = OperatorContext(Matrix.identity(alg.dim), F(-1))
        assert mrb_defect(alg, ident).is_empty
    report = mrb_defect(G3, OperatorContext(K0.operator, F(0)))
    assert report.entries == (Defect("mrb", (1, 1), (F(0), F(0), F(1))),)


def test_mrb_defect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mrb_defect(G3, OperatorContext(Matrix.identity(2), F(0)))


def test_rb_defect_examples():
    assert rb_defect(G3, OperatorContext(Matrix.zeros(3, 3), F(5))).is_empty
    # T = id at weight -2: T([x,y] + [x,y] - 2[x,y]) = 0, so the residual is
    # the bracket itself wherever it is nonzero
    report = rb_defect(G3, OperatorContext(Matrix.identity(3), F(-2)))
    assert report.entries == (Defect("rb", (1, 1), (F(0), F(0), F(1))),)


def test_rb_defect_matches_brute_force():
    t = OperatorContext(Matrix([[1, 0], [0, 0]]), F(0))
    report = rb_defect(AFF, t)
    for d in report.entries:
        i, j = d.where
        ti = t.operator.column(i - 1)
        tj = t.operator.column(j - 1)
        lhs = AFF.bracket(ti, tj)
        inner = [
            a + b
            for a, b in zip(
                AFF.bracket(ti, tuple(F(int(k == j - 1)) for k in range(2))),
                AFF.bracket(tuple(F(int(k == i - 1)) for k in range(2)), tj),
            )
        ]
        rhs = t.operator.apply(inner)
        assert d.residual == tuple(a - b for a, b in zip(lhs, rhs))


def test_rb_to_mrb_examples():
    out = rb_to_mrb(G3, OperatorContext(Matrix.zeros(3, 3), F(2)))
    assert out.operator == Matrix.identity(3).scale(2)
    assert out.weight == F(-4)
    assert mrb_defect(G3, out).is_empty

    out = rb_to_mrb(G3, OperatorContext(Matrix.zeros(3, 3), F(0)))
    assert out.operator == Matrix.zeros(3, 3)
    assert out.weight == F(0)

    with pytest.raises(NotRotaBaxter):
        rb_to_mrb(G3, OperatorContext(Matrix.identity(3), F(-2)))


def brute_force_rb_operators(alg, weight, grid=(0, 1)):
    d = alg.dim
    found = []
    for values in itertools.product([F(g) for g in grid], repeat=d * d):
        m = Matrix([list(values[r * d:(r + 1) * d]) for r in range(d)])
        if rb_defect(alg, OperatorContext(m, weight)).is_empty:
            found.append(m)
    return found


def test_rb_to_mrb_on_grid_found_operators():
    for alg in (G3, AFF):
        for t in brute_force_rb_operators(alg, F(0)):
            ctx = OperatorContext(t, F(0))
            out = rb_to_mrb(alg, ctx)
            assert out.weight == F(0)
            assert mrb_defect(alg, out).is_empty
            # the transform is invertible: (K - w id)/2 recovers T
            back = (out.operator - Matrix.identity(alg.dim).scale(F(0))).scale(F(1, 2))
            assert back == t


def test_derived_algebra_examples():
    derived = derived_algebra(G3, K0)
    assert derived.dim == 3
    assert derived.entries == (((1, 1, 3), F(2)),)

    doubled = derived_algebra(AFF, OperatorContext(Matrix.identity(2), F(-1)))
    assert doubled.entries == tuple(
        ((i, j, k), 2 * c) for (i, j, k), c in AFF.entries
    )

    zero = derived_algebra(G3, OperatorContext(Matrix.zeros(3, 3), F(0)))
    assert zero.entries == ()


def test_derived_algebra_requires_mrb():
    with pytest.raises(NotModifiedRotaBaxter):
        derived_algebra(G3, OperatorContext(K0.operator, F(7)))


def test_morphism_defect_examples():
    assert morphism_defect(G3, K0, G3, K0, Matrix.identity(3)).is_empty
    assert morphism_defect(G3, K0, G3, K0, Matrix.zeros(3, 3)).is_empty
    phi = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    report = morphism_defect(G3, K0, G3, K0, phi)
    assert report.section("operator") == ()
    bracket = report.section("bracket")
    assert bracket == (Defect("bracket", (1, 1), (F(0), F(0), F(-1))),)


def test_grid_search_weight0_is_first_row_zero_family():
    solutions = grid_search_operators(G3, F(0), [F(0), F(1)])
    assert len(solutions) == 64
    for m in solutions:
        assert m.row(0) == (F(0), F(0), F(0))
        assert mrb_defect(G3, OperatorContext(m, F(0))).is_empty
    # independent exhaustive oracle over all 512 candidates
    expected = []
    for values in itertools.product([F(0), F(1)], repeat=9):
        m = Matrix([list(values[0:3]), list(values[3:6]), list(values[6:9])])
        if mrb_defect(G3, OperatorContext(m, F(0))).is_empty:
            expected.append(m)
    assert solutions == expected


def test_grid_search_masked_weight1():
    mask = {(1, 2): F(0), (1, 3): F(0), (2, 3): F(0),
            (2, 1): F(0), (3, 1): F(0), (3, 2): F(0), (2, 2): F(0)}
    solutions = grid_search_operators(G3, F(1), [F(0), F(1)], mask=mask)
    assert K0.operator in solutions
    assert solutions == [K0.operator]


def test_grid_search_on_aff_over_minus_one_zero_one():
    grid = [F(-1), F(0), F(1)]
    assert len(grid_search_operators(AFF, F(0), grid)) == 15
    # weight 1: only the two rotations
    assert grid_search_operators(AFF, F(1), grid) == [
        Matrix([[0, -1], [1, 0]]),
        Matrix([[0, 1], [-1, 0]]),
    ]


def test_grid_search_degenerate_and_budget():
    assert grid_search_operators(AFF, F(0), [F(0)]) == [Matrix.zeros(2, 2)]
    with pytest.raises(BudgetExceeded):
        grid_search_operators(G3, F(0), [F(0), F(1)], budget=10)


def test_grid_search_rejects_a_repeated_grid_value():
    for grid in ([F(0), F(0)], [F(1), F(-1), F(2, 2)]):
        with pytest.raises(InvalidArgument):
            grid_search_operators(G3, F(0), grid)


fractions = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def searches(draw):
    """A grid search on an algebra of dim 0-3 with fractional constants (not
    necessarily Leibniz): an unsorted grid of distinct fractions, a weight
    that is often -g**2 for a grid value g (so g * id is a solution), and a
    random mask; at most 243 candidates, for the oracle's sake."""
    d = draw(st.integers(0, 3))
    index = st.integers(1, max(d, 1))
    keys = draw(st.lists(st.tuples(index, index, index), unique=True, max_size=2 * d))
    alg = LeibnizAlgebra(d, [(i, j, k, draw(fractions)) for i, j, k in keys])
    grid = draw(st.lists(fractions, min_size=1, max_size=3, unique=True))
    weight = draw(st.one_of(fractions, st.sampled_from(grid).map(lambda g: -g * g)))
    cells = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    most = max(f for f in range(len(cells) + 1) if len(grid) ** f <= 243)
    free = draw(st.sets(st.sampled_from(cells), max_size=most)) if cells else set()
    pins = st.one_of(st.sampled_from(grid), fractions)
    mask = {c: draw(pins) for c in cells if c not in free}
    return alg, weight, grid, mask


@settings(max_examples=200, deadline=None)
@given(searches())
def test_grid_search_matches_the_enumeration_oracle(search):
    alg, weight, grid, mask = search
    solutions = grid_search_operators(alg, weight, grid, mask)
    assert solutions == reference.grid_search_operators(alg, weight, grid, mask)
    for m in solutions:
        assert mrb_defect(alg, OperatorContext(m, weight)).is_empty


def test_grid_search_one_value_grid_in_dimension_forty():
    # 1600 free entries: far deeper than Python's recursion limit
    d = 40
    alg = LeibnizAlgebra(d, [(1, 1, d, 1)])
    assert grid_search_operators(alg, F(0), [F(0)]) == [Matrix.zeros(d, d)]
    for weight, grid in ((F(-1), [F(0)]), (F(0), [F(1)]), (F(-1), [F(1, 2)])):
        assert grid_search_operators(alg, weight, grid) == reference.grid_search_operators(
            alg, weight, grid
        ) == []
    # the diagonal pinned to 1 and 1560 free entries over {0}: K = id, weight -1
    diagonal = {(i, i): F(1) for i in range(1, d + 1)}
    assert grid_search_operators(alg, F(-1), [F(0)], diagonal) == [Matrix.identity(d)]


def test_grid_search_with_every_entry_pinned():
    pinned = {(i + 1, j + 1): K0.operator[i, j] for i in range(3) for j in range(3)}
    assert grid_search_operators(G3, F(1), [F(0), F(1)], pinned) == [K0.operator]
    assert grid_search_operators(G3, F(7), [F(0), F(1)], pinned) == []
    # the grid plays no part, but still has to be well formed
    with pytest.raises(InvalidArgument):
        grid_search_operators(G3, F(1), [F(1), F(1)], pinned)


def test_grid_search_in_dimension_zero():
    zero = LeibnizAlgebra(0, [])
    assert grid_search_operators(zero, F(5), [F(0), F(1)]) == [Matrix.zeros(0, 0)]
    assert grid_search_operators(zero, F(5), []) == [Matrix.zeros(0, 0)]


def test_all_fixtures_satisfy_their_axioms():
    for name, alg, ctx, rep in MRB_FIXTURES:
        assert leibniz_defect(alg).is_empty, name
        assert mrb_defect(alg, ctx).is_empty, name
        assert rep_defect(alg, rep).is_empty, name
        assert mrb_rep_defect(alg, ctx, rep).is_empty, name
