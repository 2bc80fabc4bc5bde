import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import mrbleib
from fixtures import AFF, G3, K0, MRB_FIXTURES, ROT, SL2_ROT, SL2_ROT_K
from mrbleib.algebra import OperatorContext
from mrbleib.cohomology import (
    Cochain,
    ConeCochain,
    apply_cone,
    apply_delta,
    apply_phi,
    bracket_cochain,
    classify_cochain,
    cochain_from_entries,
    cone_differential,
    operator_cochain,
    vec_to_cone,
    zero_cochain,
)
from mrbleib.deformation import (
    FormalIso,
    TruncatedDeformation,
    apply_formal_iso,
    deformation_residuals,
    equivalence_residuals,
    gauge_step,
    infinitesimal,
    is_residual_free,
)
from mrbleib.errors import (
    DimensionMismatch,
    InvalidArgument,
    NotADeformation,
    OrderMismatch,
)
from mrbleib.linalg import Matrix, kernel_basis
from mrbleib.representations import regular_rep


def rand_matrix(rng, d, lo=-2, hi=2):
    return Matrix([[F(rng.randint(lo, hi)) for _ in range(d)] for _ in range(d)])


def rand_iso(rng, d, order):
    return FormalIso(
        (Matrix.identity(d),) + tuple(rand_matrix(rng, d) for _ in range(order))
    )


def test_trivial_deformation_residual_free_to_order_4():
    for alg, ctx in ((G3, K0), (AFF, ROT)):
        triv = TruncatedDeformation.trivial(alg, ctx, 4)
        reports = deformation_residuals(triv)
        assert len(reports) == 5
        assert all(r.is_empty for r in reports)


def test_order_zero_residuals_are_base_axioms():
    # a base that is not Leibniz shows up at order 0 in the bracket section
    from mrbleib.algebra import LeibnizAlgebra, leibniz_defect, mrb_defect

    bad = LeibnizAlgebra(1, [(1, 1, 1, 1)])
    ctx = OperatorContext(Matrix.zeros(1, 1), F(0))
    dfm = TruncatedDeformation(
        bad, ctx, (bracket_cochain(bad),), (ctx.operator,)
    )
    report = deformation_residuals(dfm)[0]
    leib = {d.where: d.residual for d in report.section("leibniz")}
    base = {d.where: d.residual for d in leibniz_defect(bad).entries}
    assert leib == base
    op = {d.where: d.residual for d in report.section("operator")}
    base_op = {d.where: d.residual for d in mrb_defect(bad, ctx).entries}
    assert op == base_op


def test_non_cocycle_order_one_fails_and_matches_classifier():
    rng = random.Random(23)
    rep = regular_rep(G3, K0)
    hits = {True: 0, False: 0}
    for _ in range(8):
        mu1 = Cochain(2, Matrix([[F(rng.randint(-1, 1)) for _ in range(9)] for _ in range(3)]))
        k1 = rand_matrix(rng, 3)
        dfm = TruncatedDeformation.trivial(G3, K0, 1).with_order_one(mu1, k1)
        free = deformation_residuals(dfm)[1].is_empty
        cocycle = classify_cochain(
            G3, K0, rep, ConeCochain(mu1, operator_cochain(k1))
        ).cocycle
        assert free == cocycle
        hits[cocycle] += 1
    assert hits[False] > 0


def test_gauge_image_of_trivial_is_residual_free():
    rng = random.Random(4)
    for alg, ctx in ((G3, K0), (AFF, ROT)):
        triv = TruncatedDeformation.trivial(alg, ctx, 3)
        iso = rand_iso(rng, alg.dim, 3)
        gauged = apply_formal_iso(triv, iso)
        assert is_residual_free(gauged)


def test_infinitesimal_of_trivial_is_zero():
    triv = TruncatedDeformation.trivial(G3, K0, 2)
    cone = infinitesimal(triv)
    assert cone.is_zero()


def test_infinitesimal_of_gauge_is_coboundary_dpsi():
    rng = random.Random(8)
    psi1 = rand_matrix(rng, 3)
    iso = FormalIso((Matrix.identity(3), psi1))
    triv = TruncatedDeformation.trivial(G3, K0, 1)
    gauged = apply_formal_iso(triv, iso)
    cone = infinitesimal(gauged)
    rep = regular_rep(G3, K0)
    expected = apply_cone(
        G3, K0, rep, ConeCochain(Cochain(1, psi1), zero_cochain(3, 3, 0))
    )
    assert cone.leib == expected.leib and cone.op == expected.op
    assert classify_cochain(G3, K0, rep, cone).coboundary


def test_infinitesimal_requires_residual_freeness():
    mu1 = Cochain(2, Matrix([[1] * 9, [0] * 9, [0] * 9]))
    dfm = TruncatedDeformation.trivial(G3, K0, 1).with_order_one(
        mu1, Matrix.zeros(3, 3)
    )
    if not is_residual_free(dfm, 1):
        with pytest.raises(NotADeformation):
            infinitesimal(dfm)


def test_infinitesimal_requires_order_one():
    with pytest.raises(InvalidArgument):
        infinitesimal(TruncatedDeformation.trivial(G3, K0, 0))


def test_apply_formal_iso_identity_and_inverse():
    rng = random.Random(12)
    triv = TruncatedDeformation.trivial(AFF, ROT, 3)
    iso = rand_iso(rng, 2, 3)
    gauged = apply_formal_iso(triv, iso)

    identity = FormalIso((Matrix.identity(2),) + (Matrix.zeros(2, 2),) * 3)
    assert apply_formal_iso(gauged, identity).mu == gauged.mu

    inverse = FormalIso(iso.inverse_coefficients())
    back = apply_formal_iso(gauged, inverse)
    assert back.mu == triv.mu and back.kk == triv.kk


def test_neumann_inverse_composes_to_identity():
    rng = random.Random(17)
    iso = rand_iso(rng, 3, 4)
    inv = iso.inverse_coefficients()
    d = 3
    for n in range(5):
        acc = Matrix.zeros(d, d)
        for a in range(n + 1):
            acc = acc + iso.psi[a] @ inv[n - a]
        assert acc == (Matrix.identity(d) if n == 0 else Matrix.zeros(d, d))


def test_equivalence_residuals():
    rng = random.Random(31)
    triv = TruncatedDeformation.trivial(G3, K0, 2)
    identity = FormalIso((Matrix.identity(3),) + (Matrix.zeros(3, 3),) * 2)
    assert all(r.is_empty for r in equivalence_residuals(triv, triv, identity))

    iso = rand_iso(rng, 3, 2)
    gauged = apply_formal_iso(triv, iso)
    assert all(r.is_empty for r in equivalence_residuals(triv, gauged, iso))
    # a wrong iso leaves residuals
    other = rand_iso(rng, 3, 2)
    if other.psi != iso.psi:
        assert not all(r.is_empty for r in equivalence_residuals(triv, gauged, other))


def test_equivalent_deformations_have_cohomologous_infinitesimals():
    rng = random.Random(41)
    rep = regular_rep(AFF, ROT)
    base = TruncatedDeformation.trivial(AFF, ROT, 2)
    kern = kernel_basis(cone_differential(AFF, ROT, rep, 2))
    cocycle = vec_to_cone(kern[1], 2, 2, 2)
    d1 = base.with_order_one(cocycle.leib, cocycle.op.values)
    assert is_residual_free(d1, 1)
    iso = rand_iso(rng, 2, 2)
    d2 = apply_formal_iso(d1, iso)
    inf1 = infinitesimal(d1)
    inf2 = infinitesimal(d2)
    psi1 = Cochain(1, iso.psi[1])
    expected_leib = inf1.leib + apply_delta(AFF, rep, psi1)
    expected_op = inf1.op - apply_phi(AFF, ROT, rep, psi1)
    assert inf2.leib == expected_leib
    assert inf2.op == expected_op


def test_order_mismatch():
    triv = TruncatedDeformation.trivial(G3, K0, 2)
    iso = FormalIso((Matrix.identity(3),))
    with pytest.raises(OrderMismatch):
        apply_formal_iso(triv, iso)


def assert_gauged(out):
    """out keeps the deformation equations at every order and has no
    order-1 terms."""
    assert out is not None and is_residual_free(out)
    assert out.mu[1].is_zero() and out.kk[1].is_zero()


def test_gauge_step_zero_trivializer_on_trivial():
    # the canonical witness of a zero infinitesimal is zero: nothing moves
    triv = TruncatedDeformation.trivial(G3, K0, 2)
    out = gauge_step(triv)
    assert out.mu == triv.mu and out.kk == triv.kk


def test_gauge_step_inverts_a_gauge():
    rng = random.Random(6)
    for alg, ctx in ((G3, K0), (AFF, ROT)):
        triv = TruncatedDeformation.trivial(alg, ctx, 3)
        gauged = apply_formal_iso(triv, rand_iso(rng, alg.dim, 3))
        assert_gauged(gauge_step(gauged))


def test_gauge_step_on_h2_zero_fixture():
    # every cocycle deformation on (AFF, ROT) is trivializable: H^2 vanishes
    rep = regular_rep(AFF, ROT)
    kern = kernel_basis(cone_differential(AFF, ROT, rep, 2))
    base = TruncatedDeformation.trivial(AFF, ROT, 1)
    for v in kern:
        cocycle = vec_to_cone(v, 2, 2, 2)
        dfm = base.with_order_one(cocycle.leib, cocycle.op.values)
        assert is_residual_free(dfm, 1)
        assert_gauged(gauge_step(dfm))


def test_gauge_step_leaves_a_nontrivial_class():
    # cone H^2 of (G3, K0) is 3-dimensional: some cocycle is no coboundary
    rep = regular_rep(G3, K0)
    base = TruncatedDeformation.trivial(G3, K0, 1)
    cocycles = [vec_to_cone(v, 3, 3, 2) for v in kernel_basis(cone_differential(G3, K0, rep, 2))]
    classes = [c for c in cocycles if not classify_cochain(G3, K0, rep, c).coboundary]
    assert classes
    for c in classes:
        assert gauge_step(base.with_order_one(c.leib, c.op.values)) is None


CONE_FIXTURES = [(name, alg, ctx) for name, alg, ctx, _ in MRB_FIXTURES] + [
    ("sl2-rot", SL2_ROT, SL2_ROT_K)
]


def residual_cochain(report, section, d, degree):
    """One section of a residual report as a cochain with values in the algebra."""
    return cochain_from_entries(d, d, degree, (
        (e.where, t + 1, v) for e in report.section(section) for t, v in enumerate(e.residual)
    ))


@pytest.mark.parametrize("name,alg,ctx", CONE_FIXTURES, ids=[f[0] for f in CONE_FIXTURES])
def test_order_one_residual_is_the_cone_differential(name, alg, ctx):
    # the order-1 equations are linear in (mu_1, K_1): the bracket part is
    # the Leibniz half of the cone differential of (mu_1, K_1) and the
    # operator part its operator half negated, which pins phi_weight and
    # the sign of the shift
    rng = random.Random(name)
    d = alg.dim
    rep = regular_rep(alg, ctx)

    def entry():
        return F(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.4 else F(0)

    for _ in range(4):
        mu1 = Cochain(2, Matrix([[entry() for _ in range(d * d)] for _ in range(d)]))
        k1 = Matrix([[entry() for _ in range(d)] for _ in range(d)])
        image = apply_cone(alg, ctx, rep, ConeCochain(mu1, operator_cochain(k1)))
        dfm = TruncatedDeformation.trivial(alg, ctx, 1).with_order_one(mu1, k1)
        residual = deformation_residuals(dfm)[1]
        assert residual_cochain(residual, "leibniz", d, 3) == image.leib
        assert residual_cochain(residual, "operator", d, 2) == -image.op


def test_iso_and_deformations_must_share_one_dimension():
    g3 = TruncatedDeformation.trivial(G3, K0, 1)
    aff = TruncatedDeformation.trivial(AFF, ROT, 1)
    iso2 = FormalIso((Matrix.identity(2), Matrix([[1, 0], [2, 1]])))
    iso3 = FormalIso((Matrix.identity(3), Matrix.identity(3)))
    with pytest.raises(DimensionMismatch):
        apply_formal_iso(g3, iso2)
    with pytest.raises(DimensionMismatch):
        apply_formal_iso(aff, iso3)
    with pytest.raises(DimensionMismatch):
        equivalence_residuals(g3, g3, iso2)
    with pytest.raises(DimensionMismatch):
        equivalence_residuals(g3, aff, iso3)
    with pytest.raises(DimensionMismatch):
        equivalence_residuals(g3, aff, iso2)


def test_trivial_deformation_in_dimension_forty_is_checked_within_a_minute():
    # [e1,e1] = e2 with K = id of weight -1: one nonzero constant, so the
    # equations cost a few products, where evaluating every basis triple
    # grows like dim^4 and takes minutes at dim 40
    script = (
        "from fractions import Fraction as F\n"
        "from mrbleib.algebra import LeibnizAlgebra, OperatorContext\n"
        "from mrbleib.deformation import TruncatedDeformation, is_residual_free\n"
        "from mrbleib.linalg import Matrix\n"
        "alg = LeibnizAlgebra(40, [(1, 1, 2, 1)])\n"
        "ctx = OperatorContext(Matrix.identity(40), F(-1))\n"
        "assert is_residual_free(TruncatedDeformation.trivial(alg, ctx, 2))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mrbleib.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
