"""Acceptance battery: every criterion is exact (residuals identically
zero, dimensions exact integers) and the whole module runs in well under a
minute.  Run with -s to watch the per-criterion lines."""

import itertools
import json
import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from fixtures import (
    AFF,
    CHAIN_MAP_FIXTURES,
    G3,
    K0,
    KZ,
    MRB_FIXTURES,
    ROT,
    SL2,
    SL2_ID,
    Z1,
    Z1_ZERO,
)
from mrbleib.algebra import (
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
from mrbleib.cli import build_parser, execute
from mrbleib.cohomology import (
    Cochain,
    ConeCochain,
    apply_cone,
    apply_delta,
    apply_phi,
    classify_cochain,
    cohomology_dimensions,
    cone_differential,
    cone_space_dim,
    delta_matrix,
    operator_complex_pair,
    phi_matrix,
    vec_to_cone,
    zero_cochain,
    zero_cone_cochain,
)
from mrbleib.deformation import (
    FormalIso,
    TruncatedDeformation,
    apply_formal_iso,
    deformation_residuals,
    gauge_step,
    infinitesimal,
    is_residual_free,
)
from mrbleib.documents import (
    AlgebraDocument,
    cocycle_json,
    deformation_json,
    serialize_document,
)
from mrbleib.extensions import (
    extension_from_cocycle,
    extract_cocycle,
    iso_from_gamma,
    section_from_proj,
    semidirect,
    validate_extension,
)
from mrbleib.errors import NotACocycle
from mrbleib.linalg import Matrix, kernel_basis
from mrbleib.representations import (
    Representation,
    induced_rep,
    mrb_rep_defect,
    regular_rep,
    rep_defect,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_worked_example():
    with criterion("1 worked example"):
        assert mrb_defect(G3, K0).is_empty
        solutions = grid_search_operators(G3, F(0), [F(0), F(1)])
        assert len(solutions) == 64
        expected = []
        for values in itertools.product([F(0), F(1)], repeat=9):
            m = Matrix([list(values[0:3]), list(values[3:6]), list(values[6:9])])
            if mrb_defect(G3, OperatorContext(m, F(0))).is_empty:
                expected.append(m)
        assert solutions == expected
        for m in solutions:
            assert m.row(0) == (F(0),) * 3
        for values in itertools.product([F(0), F(1)], repeat=9):
            m = Matrix([list(values[0:3]), list(values[3:6]), list(values[6:9])])
            if any(m.row(0)):
                assert not mrb_defect(G3, OperatorContext(m, F(0))).is_empty


def test_criterion_2_rb_mrb_transform():
    with criterion("2 Rota-Baxter transform"):
        for lam in (F(0), F(2), F(-3)):
            ctx = OperatorContext(Matrix.zeros(3, 3), lam)
            out = rb_to_mrb(G3, ctx)
            assert out.weight == -lam ** 2
            assert mrb_defect(G3, out).is_empty
        for alg in (G3, AFF):
            d = alg.dim
            for values in itertools.product([F(0), F(1)], repeat=d * d):
                t = Matrix([list(values[r * d:(r + 1) * d]) for r in range(d)])
                ctx = OperatorContext(t, F(0))
                if rb_defect(alg, ctx).is_empty:
                    out = rb_to_mrb(alg, ctx)
                    assert out.weight == F(0)
                    assert mrb_defect(alg, out).is_empty


def test_criterion_3_closure_properties():
    with criterion("3 construction closure"):
        for name, alg, ctx, rep in MRB_FIXTURES:
            derived = derived_algebra(alg, ctx)
            assert leibniz_defect(derived).is_empty, name
            assert mrb_defect(derived, ctx).is_empty, name
            induced = induced_rep(alg, ctx, rep)
            assert rep_defect(derived, induced).is_empty, name
            assert mrb_rep_defect(derived, ctx, induced).is_empty, name
            total, op = semidirect(alg, ctx, rep)
            assert leibniz_defect(total).is_empty, name
            assert mrb_defect(total, op).is_empty, name


def test_criterion_4_chain_map():
    with criterion("4 chain map degrees 0..3"):
        weights = set()
        for name, alg, ctx, rep in CHAIN_MAP_FIXTURES:
            assert alg.dim <= 3 and rep.dim_v <= 3
            weights.add(ctx.weight == 0)
            derived, ind = operator_complex_pair(alg, ctx, rep)
            for n in range(4):
                lhs = phi_matrix(alg, ctx, rep, n + 1) @ delta_matrix(alg, rep, n)
                rhs = delta_matrix(derived, ind, n) @ phi_matrix(alg, ctx, rep, n)
                assert lhs == rhs, (name, n)
        assert len(CHAIN_MAP_FIXTURES) >= 4
        assert weights == {True, False}


def test_criterion_5_complexes():
    with criterion("5 complexes square to zero"):
        for name, alg, ctx, rep in MRB_FIXTURES:
            derived, ind = operator_complex_pair(alg, ctx, rep)
            for n in range(3):
                assert (delta_matrix(alg, rep, n + 1) @ delta_matrix(alg, rep, n)).is_zero()
                assert (delta_matrix(derived, ind, n + 1) @ delta_matrix(derived, ind, n)).is_zero()
                assert (
                    cone_differential(alg, ctx, rep, n + 1)
                    @ cone_differential(alg, ctx, rep, n)
                ).is_zero()
        for name, alg, ctx, rep in MRB_FIXTURES:
            report = cohomology_dimensions(alg, rep, ctx, max_degree=2)
            for n in range(3):
                cone_h = report.cone.cohomology_dims[n]
                leib_h = report.leibniz.cohomology_dims[n]
                op_prev = report.operator.cohomology_dims[n - 1] if n else 0
                assert cone_h <= leib_h + op_prev, (name, n)
                expected_cells = report.leibniz.cochain_dims[n] + (
                    report.operator.cochain_dims[n - 1] if n else 0
                )
                assert report.cone.cochain_dims[n] == expected_cells, (name, n)


def test_criterion_6_pinned_dimensions():
    with criterion("6 pinned cohomology dimensions"):
        leib = cohomology_dimensions(G3, regular_rep(G3), max_degree=1)
        assert leib.leibniz.cohomology_dims == (2, 4)
        for name, alg, ctx, rep in MRB_FIXTURES:
            report = cohomology_dimensions(alg, rep, ctx, max_degree=1)
            assert report.cone.cohomology_dims[0] == 0, name
        zero_rep = regular_rep(Z1, Z1_ZERO)
        report = cohomology_dimensions(Z1, zero_rep, Z1_ZERO, max_degree=2)
        assert report.cone.cohomology_dims == (0, 1, 2)


def test_criterion_7_deformations():
    with criterion("7 deformations"):
        for alg, ctx in ((G3, K0), (AFF, ROT)):
            assert is_residual_free(TruncatedDeformation.trivial(alg, ctx, 4))
        rng = random.Random(77)
        rep = regular_rep(G3, K0)
        kern = kernel_basis(cone_differential(G3, K0, rep, 2))
        base = TruncatedDeformation.trivial(G3, K0, 1)
        for v in kern[:4]:
            cocycle = vec_to_cone(v, 3, 3, 2)
            dfm = base.with_order_one(cocycle.leib, cocycle.op.values)
            assert is_residual_free(dfm, 1)
            inf = infinitesimal(dfm)
            assert classify_cochain(G3, K0, rep, inf).cocycle
        # equivalent deformations differ by the coboundary of psi_1
        triv = TruncatedDeformation.trivial(G3, K0, 2)
        psi1 = Matrix([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        iso = FormalIso((Matrix.identity(3), psi1, Matrix.zeros(3, 3)))
        gauged = apply_formal_iso(triv, iso)
        inf = infinitesimal(gauged)
        expected = apply_cone(
            G3, K0, rep, ConeCochain(Cochain(1, psi1), zero_cochain(3, 3, 0))
        )
        assert inf.leib == expected.leib and inf.op == expected.op
        # gauge step kills order one on the vanishing-H2 fixture
        rep2 = regular_rep(AFF, ROT)
        report = cohomology_dimensions(AFF, rep2, ROT, max_degree=2)
        assert report.cone.cohomology_dims[2] == 0
        kern2 = kernel_basis(cone_differential(AFF, ROT, rep2, 2))
        for v in kern2:
            cocycle = vec_to_cone(v, 2, 2, 2)
            dfm = TruncatedDeformation.trivial(AFF, ROT, 1).with_order_one(
                cocycle.leib, cocycle.op.values
            )
            assert is_residual_free(dfm, 1)
            out = gauge_step(dfm)
            assert out is not None and is_residual_free(out)
            assert out.mu[1].is_zero() and out.kk[1].is_zero()


def test_criterion_8_extensions():
    with criterion("8 extensions"):
        rng = random.Random(99)
        rep = TRIV = Representation(
            1,
            (Matrix.zeros(1, 1),) * 3,
            (Matrix.zeros(1, 1),) * 3,
            Matrix([[2]]),
        )
        kern = kernel_basis(cone_differential(G3, K0, rep, 2))
        built = 0
        for _ in range(20):
            coeffs = [F(rng.randint(-3, 3)) for _ in kern]
            vec = [sum(c * v[i] for c, v in zip(coeffs, kern)) for i in range(len(kern[0]))]
            pair = vec_to_cone(vec, 1, 3, 2)
            ext = extension_from_cocycle(G3, K0, rep, pair)
            assert validate_extension(ext).is_empty
            s = section_from_proj(ext)
            _, recovered = extract_cocycle(ext, s)
            assert recovered.leib == pair.leib and recovered.op == pair.op
            built += 1
        assert built == 20
        rejected = 0
        attempts = 0
        while rejected < 20 and attempts < 400:
            attempts += 1
            vec = [F(rng.randint(-2, 2)) for _ in range(cone_space_dim(1, 3, 2))]
            cone = vec_to_cone(vec, 1, 3, 2)
            if classify_cochain(G3, K0, rep, cone).cocycle:
                continue
            with pytest.raises(NotACocycle):
                extension_from_cocycle(G3, K0, rep, cone)
            rejected += 1
        assert rejected == 20

        # section change shifts the cocycle by exactly the coboundary of gamma
        reg = regular_rep(G3, K0)
        kern_reg = kernel_basis(cone_differential(G3, K0, reg, 2))
        cone = vec_to_cone(kern_reg[3], 3, 3, 2)
        ext = extension_from_cocycle(G3, K0, reg, cone)
        s = section_from_proj(ext)
        _, base_pair = extract_cocycle(ext, s)
        for _ in range(5):
            gamma = Cochain(
                1, Matrix([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
            )
            _, pair = extract_cocycle(ext, s + ext.incl @ gamma.values)
            assert pair.leib == base_pair.leib + apply_delta(G3, reg, gamma)
            assert pair.op == base_pair.op - apply_phi(G3, K0, reg, gamma)

        checked = 0
        while checked < 10:
            coeffs = [F(rng.randint(-2, 2)) for _ in kern_reg]
            vec = [
                sum(c * v[i] for c, v in zip(coeffs, kern_reg))
                for i in range(len(kern_reg[0]))
            ]
            base_pair = vec_to_cone(vec, 3, 3, 2)
            gamma = Cochain(
                1, Matrix([[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
            )
            shifted = ConeCochain(
                base_pair.leib + apply_delta(G3, reg, gamma),
                base_pair.op - apply_phi(G3, K0, reg, gamma),
            )
            e2 = extension_from_cocycle(G3, K0, reg, base_pair)
            e1 = extension_from_cocycle(G3, K0, reg, shifted)
            zeta = iso_from_gamma(e1, e2, gamma)
            assert morphism_defect(
                e1.total, e1.total_op, e2.total, e2.total_op, zeta
            ).is_empty
            assert zeta @ e1.incl == e2.incl
            assert e2.proj @ zeta == e1.proj
            checked += 1


def test_criterion_9_cli_determinism(tmp_path):
    with criterion("9 report determinism"):
        base = AlgebraDocument(G3, K0, None)
        doc_path = tmp_path / "g3.json"
        doc_path.write_text(serialize_document(base))
        aff_doc = AlgebraDocument(AFF, ROT, None)
        aff_path = tmp_path / "aff.json"
        aff_path.write_text(serialize_document(aff_doc))
        dfm = apply_formal_iso(
            TruncatedDeformation.trivial(AFF, ROT, 2),
            FormalIso((Matrix.identity(2), Matrix([[0, 1], [0, 0]]), Matrix.zeros(2, 2))),
        )
        dfm_path = tmp_path / "def.json"
        dfm_path.write_text(json.dumps(deformation_json(dfm)))
        reg = regular_rep(G3, K0)
        rep_doc = AlgebraDocument(G3, K0, reg)
        rep_path = tmp_path / "g3rep.json"
        rep_path.write_text(serialize_document(rep_doc))
        pair = zero_cone_cochain(3, 3, 2)
        coc_path = tmp_path / "cocycle.json"
        coc_path.write_text(json.dumps(cocycle_json(pair, rep_doc)))

        command_lines = [
            ["check", str(doc_path)],
            ["cohomology", str(doc_path), "--max-degree", "1"],
            ["derived", str(doc_path)],
            ["search", str(doc_path), "--weight", "0", "--grid", "0,1"],
            ["deform", "verify", str(aff_path), "--deformation", str(dfm_path)],
            ["deform", "infinitesimal", str(aff_path), "--deformation", str(dfm_path)],
            ["deform", "gauge", str(aff_path), "--deformation", str(dfm_path)],
            ["extend", "build", str(rep_path), "--cocycle", str(coc_path)],
        ]
        parser = build_parser()
        for argv in command_lines:
            outputs = []
            for _ in range(2):
                report, code = execute(parser.parse_args(argv))
                outputs.append(json.dumps(report, indent=2).encode("utf-8"))
            assert outputs[0] == outputs[1], argv
