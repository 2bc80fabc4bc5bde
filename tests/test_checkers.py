"""The sparse defect checkers against the dense oracles of ``reference``.

``mrb_defect`` and ``rep_defect`` accumulate residuals from pairs of
nonzero structure constants and operator or action entries; the oracles
evaluate every axiom on every basis pair.  Reports must agree in entries,
order, sections and residuals, on valid structures and on broken ones.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference
from fixtures import MRB_FIXTURES
from mrbleib.algebra import Defect, LeibnizAlgebra, OperatorContext, mrb_defect
from mrbleib.linalg import Matrix
from mrbleib.representations import Representation, regular_rep, rep_defect

fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


def sparse_matrix(draw, n, density):
    return Matrix([
        [draw(fractions) if draw(st.floats(0, 1)) < density else 0 for _ in range(n)]
        for _ in range(n)
    ])


@st.composite
def structures(draw):
    """An algebra of dim 0-5 with fractional constants, an operator and a
    module that are usually not axiom-abiding, and the regular module."""
    d = draw(st.integers(0, 5))
    index = st.integers(1, max(d, 1))
    keys = draw(st.lists(st.tuples(index, index, index), unique=True, max_size=3 * d))
    alg = LeibnizAlgebra(d, [(i, j, k, draw(fractions)) for i, j, k in keys])
    ctx = OperatorContext(sparse_matrix(draw, d, draw(st.floats(0, 1))), draw(fractions))
    n = draw(st.integers(0, 3))
    density = draw(st.floats(0, 1))
    module = Representation(
        n,
        [sparse_matrix(draw, n, density) for _ in range(d)],
        [sparse_matrix(draw, n, density) for _ in range(d)],
        Matrix.zeros(n, n),
    )
    return alg, ctx, module


@settings(max_examples=200, deadline=None)
@given(structures())
def test_sparse_checkers_match_the_dense_oracle(structure):
    alg, ctx, module = structure
    assert mrb_defect(alg, ctx) == reference.mrb_defect(alg, ctx)
    assert rep_defect(alg, module) == reference.rep_defect(alg, module)
    regular = regular_rep(alg, ctx)
    assert rep_defect(alg, regular) == reference.rep_defect(alg, regular)


@pytest.mark.parametrize("name,alg,ctx,rep", MRB_FIXTURES, ids=[f[0] for f in MRB_FIXTURES])
def test_sparse_checkers_match_the_dense_oracle_on_fixtures(name, alg, ctx, rep):
    assert mrb_defect(alg, ctx) == reference.mrb_defect(alg, ctx)
    assert rep_defect(alg, rep) == reference.rep_defect(alg, rep)


def test_one_constant_in_dimension_forty():
    # [e1,e1] = e1, which is not Leibniz; only the pair (1, 1) can fail
    d = 40
    alg = LeibnizAlgebra(d, [(1, 1, 1, 1)])
    e1 = (F(1),) + (F(0),) * (d - 1)
    # K = id of weight 2: [x,y] - 2[x,y] - 2[x,y] = -3[x,y]
    ctx = OperatorContext(Matrix.identity(d), F(2))
    assert mrb_defect(alg, ctx).entries == (
        Defect("mrb", (1, 1), tuple(-3 * x for x in e1)),
    )
    # rho_L(e1) = rho_R(e1) = E_11, so only the pair (1, 1) fails, at the
    # first entry of each flattened 40 x 40 residual
    unit = (F(1),) + (F(0),) * (d * d - 1)
    assert rep_defect(alg, regular_rep(alg)).entries == tuple(
        Defect(section, (1, 1), tuple(s * x for x in unit))
        for section, s in (
            ("left-left", 1), ("left-right", 1), ("right-right", -1), ("right-absorb", 2),
        )
    )
