import random
from fractions import Fraction as F

import pytest

from fixtures import AFF, G3, K0, MRB_FIXTURES, TRIV1, Z1
from mrbleib.algebra import LeibnizAlgebra, OperatorContext, leibniz_defect, mrb_defect
from mrbleib.errors import NotRBRepresentation
from mrbleib.extensions import semidirect
from mrbleib.linalg import Matrix, rank
from mrbleib.representations import (
    Representation,
    induced_rep,
    mrb_rep_defect,
    rb_rep_defect,
    rb_rep_to_mrb_rep,
    regular_rep,
    rep_defect,
)

E31 = Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])


def test_rep_defect_regular_and_zero():
    assert rep_defect(G3, regular_rep(G3, K0)).is_empty
    zero = Representation(2, (Matrix.zeros(2, 2),), (Matrix.zeros(2, 2),), Matrix.zeros(2, 2))
    assert rep_defect(Z1, zero).is_empty


def test_rep_defect_pinpoints_failing_axiom():
    nilp = Matrix([[0, 1], [0, 0]])
    rep = Representation(2, (nilp,), (Matrix.identity(2),), Matrix.zeros(2, 2))
    report = rep_defect(Z1, rep)
    assert report.section("left-left") == ()
    assert report.section("left-right") == ()
    fail = report.section("right-right")
    assert len(fail) == 1
    # rhoR([e,e]) = 0 while rhoL rhoR + rhoR rhoR = nilp + id
    expected = nilp + Matrix.identity(2)
    assert fail[0].residual == tuple(-e for row in range(2) for e in expected.row(row))
    assert report.section("right-absorb") != ()


def test_mrb_rep_defect_examples():
    assert mrb_rep_defect(G3, K0, regular_rep(G3, K0)).is_empty
    broken = Representation(
        3, regular_rep(G3, K0).rho_left, regular_rep(G3, K0).rho_right, Matrix.zeros(3, 3)
    )
    report = mrb_rep_defect(G3, K0, broken)
    left = report.section("left")
    assert left and left[0].where == (1,)
    # all operator terms vanish, leaving -weight * rhoL(e1) = -E31
    assert left[0].residual == tuple(-e for row in range(3) for e in E31.row(row))
    ident = OperatorContext(Matrix.identity(2), F(-1))
    rep = Representation(
        2,
        regular_rep(AFF).rho_left,
        regular_rep(AFF).rho_right,
        Matrix.identity(2),
    )
    assert mrb_rep_defect(AFF, ident, rep).is_empty


def test_rb_and_mrb_module_laws_disagree_on_a_witness():
    ctx = OperatorContext(Matrix.zeros(3, 3), F(2))
    rep = Representation(
        3,
        regular_rep(G3).rho_left,
        regular_rep(G3).rho_right,
        Matrix.zeros(3, 3),
    )
    assert rb_rep_defect(G3, ctx, rep).is_empty
    assert not mrb_rep_defect(G3, ctx, rep).is_empty


def test_regular_rep_matrices():
    rep = regular_rep(G3, K0)
    assert rep.rho_left[0] == E31
    assert rep.rho_right[0] == E31
    for i in (1, 2):
        assert rep.rho_left[i].is_zero()
        assert rep.rho_right[i].is_zero()
    assert rep.k_v == K0.operator

    rep = regular_rep(Z1)
    assert rep.rho_left[0].is_zero() and rep.rho_right[0].is_zero()

    rep = regular_rep(AFF)
    assert rep.rho_left[0] == Matrix([[0, 0], [0, 1]])
    assert rep.rho_right[0] == Matrix([[0, 0], [0, -1]])
    assert rep.rho_left[1] == Matrix([[0, 0], [-1, 0]])
    assert rep.rho_right[1] == Matrix([[0, 0], [1, 0]])


def test_rb_rep_to_mrb_rep_scalar_cases():
    for lam in (F(2), F(0)):
        ctx = OperatorContext(Matrix.zeros(3, 3), lam)
        rep = Representation(
            3,
            regular_rep(G3).rho_left,
            regular_rep(G3).rho_right,
            Matrix.zeros(3, 3),
        )
        out = rb_rep_to_mrb_rep(G3, ctx, rep)
        assert out.k_v == Matrix.identity(3).scale(lam)


def test_rb_rep_to_mrb_rep_regular_instances():
    # the regular module with T_V = T satisfies the Rota-Baxter module law
    # whenever T satisfies the operator law
    import itertools
    from mrbleib.algebra import rb_defect

    found = 0
    for values in itertools.product([F(0), F(1)], repeat=4):
        t = Matrix([list(values[0:2]), list(values[2:4])])
        ctx = OperatorContext(t, F(0))
        if not rb_defect(AFF, ctx).is_empty:
            continue
        base = regular_rep(AFF)
        rep = Representation(2, base.rho_left, base.rho_right, t)
        out = rb_rep_to_mrb_rep(AFF, ctx, rep)
        assert out.k_v == t.scale(2)
        found += 1
    assert found >= 2


def test_rb_rep_to_mrb_rep_rejects_bad_input():
    ctx = OperatorContext(Matrix.identity(3), F(-2))
    rep = regular_rep(G3, K0)
    with pytest.raises(NotRBRepresentation):
        rb_rep_to_mrb_rep(G3, ctx, rep)


def test_induced_rep_examples():
    rep = induced_rep(G3, K0, regular_rep(G3, K0))
    assert rep.rho_left[0] == E31
    assert rep.rho_right[0] == E31
    for i in (1, 2):
        assert rep.rho_left[i].is_zero()
        assert rep.rho_right[i].is_zero()

    ident = OperatorContext(Matrix.identity(2), F(-1))
    collapsed = induced_rep(AFF, ident, regular_rep(AFF, ident))
    for m in (*collapsed.rho_left, *collapsed.rho_right):
        assert m.is_zero()

    zero_ctx = OperatorContext(Matrix.zeros(3, 3), F(0))
    rep0 = induced_rep(G3, zero_ctx, regular_rep(G3, zero_ctx))
    for i in range(3):
        assert rep0.rho_left[i].is_zero()


def test_semidirect_example():
    total, op = semidirect(G3, K0, regular_rep(G3, K0))
    assert total.dim == 6
    assert dict(total.entries) == {
        (1, 1, 3): F(1),
        (1, 4, 6): F(1),
        (4, 1, 6): F(1),
    }
    expected_op = Matrix.diag_blocks(K0.operator, K0.operator)
    assert op.operator == expected_op
    assert op.weight == F(1)
    assert leibniz_defect(total).is_empty
    assert mrb_defect(total, op).is_empty


def test_semidirect_trivial_cases():
    empty = Representation(0, (Matrix.zeros(0, 0),) * 3, (Matrix.zeros(0, 0),) * 3, Matrix.zeros(0, 0))
    alg, ctx = semidirect(G3, K0, empty)
    assert alg is G3 and ctx is K0

    zero_ctx = OperatorContext(Matrix.zeros(3, 3), F(0))
    zero_rep = Representation(2, (Matrix.zeros(2, 2),) * 3, (Matrix.zeros(2, 2),) * 3, Matrix.zeros(2, 2))
    total, op = semidirect(G3, zero_ctx, zero_rep)
    assert total.dim == 5
    assert total.entries == (((1, 1, 3), F(1)),)


def _conjugated(alg, ctx, rep, p):
    """Transport a module along an invertible matrix on V (axioms survive)."""
    pinv = _inverse(p)
    return Representation(
        rep.dim_v,
        tuple(p @ m @ pinv for m in rep.rho_left),
        tuple(p @ m @ pinv for m in rep.rho_right),
        p @ rep.k_v @ pinv,
    )


def _inverse(m):
    from mrbleib.linalg import solve_right_inverse

    return solve_right_inverse(m)


def test_induced_and_semidirect_closure_on_random_modules():
    rng = random.Random(7)
    for name, alg, ctx, rep in MRB_FIXTURES:
        for _ in range(3):
            while True:
                p = Matrix(
                    [
                        [F(rng.choice([-1, 0, 1, 2])) for _ in range(rep.dim_v)]
                        for _ in range(rep.dim_v)
                    ]
                )
                if rank(p) == rep.dim_v:
                    break
            twisted = _conjugated(alg, ctx, rep, p)
            assert rep_defect(alg, twisted).is_empty
            assert mrb_rep_defect(alg, ctx, twisted).is_empty
            # both constructions check their own closure post-conditions
            induced_rep(alg, ctx, twisted)
            semidirect(alg, ctx, twisted)
