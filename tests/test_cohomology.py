import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest

import reference
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
    SL2_ROT,
    SL2_ROT_K,
    Z1,
    Z1_K,
    Z1_ZERO,
)
import mrbleib
from mrbleib.algebra import LeibnizAlgebra, OperatorContext, leibniz_defect, mrb_defect
from mrbleib.cohomology import (
    Cochain,
    ConeCochain,
    apply_cone,
    apply_delta,
    apply_phi,
    bracket_cochain,
    classify_cochain,
    cochain_entries,
    cochain_from_entries,
    cochain_to_vec,
    cohomology_dimensions,
    cone_differential,
    cone_space_dim,
    cone_to_vec,
    delta_matrix,
    operator_cochain,
    operator_complex_pair,
    phi_matrix,
    phi_weight,
    vec_to_cochain,
    vec_to_cone,
    zero_cochain,
    zero_cone_cochain,
)
from mrbleib.errors import BudgetExceeded, DimensionMismatch, InvalidArgument, NotAComplex, NotLeibniz
from mrbleib.linalg import Matrix, kernel_basis, rank
from mrbleib.representations import Representation, regular_rep


def test_delta0_on_g3():
    rep = regular_rep(G3, K0)
    d0 = delta_matrix(G3, rep, 0)
    assert d0.rows == 9 and d0.cols == 3
    # (delta v)(x) = -rhoR(x) v, so the e1 column maps e1 to -e3
    assert d0.column(0) == (F(0), F(0), F(-1)) + (F(0),) * 6
    assert rank(d0) == 1
    assert len(kernel_basis(d0)) == 2


def test_delta1_kernel_conditions_on_g3():
    rep = regular_rep(G3, K0)
    d1 = delta_matrix(G3, rep, 1)
    kern = kernel_basis(d1)
    assert len(kern) == 5
    for v in kern:
        f = vec_to_cochain(v, 3, 3, 1).values
        assert f[0, 1] == 0 and f[0, 2] == 0 and f[1, 2] == 0
        assert f[2, 2] == 2 * f[0, 0]


def test_delta_of_identity_is_bracket():
    rep = regular_rep(G3, K0)
    image = apply_delta(G3, rep, Cochain(1, Matrix.identity(3)))
    assert image == bracket_cochain(G3)
    rep = regular_rep(AFF, ROT)
    image = apply_delta(AFF, rep, Cochain(1, Matrix.identity(2)))
    assert image == bracket_cochain(AFF)


def test_partial0_on_g3():
    rep = regular_rep(G3, K0)
    p0 = delta_matrix(*operator_complex_pair(G3, K0, rep), 0)
    assert p0.column(0) == (F(0), F(0), F(-1)) + (F(0),) * 6
    assert kernel_basis(p0) == [
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    ]


def test_partial_vanishes_for_zero_operator_zero_module():
    zero_ctx = OperatorContext(Matrix.zeros(3, 3), F(0))
    from mrbleib.representations import Representation

    zrep = Representation(
        2, (Matrix.zeros(2, 2),) * 3, (Matrix.zeros(2, 2),) * 3, Matrix.zeros(2, 2)
    )
    derived, ind = operator_complex_pair(G3, zero_ctx, zrep)
    for n in range(3):
        assert delta_matrix(derived, ind, n).is_zero()


def test_phi_weights():
    lam = F(3)
    assert phi_weight(0, lam) == 1
    assert phi_weight(1, lam) == -1
    assert phi_weight(2, lam) == -lam
    assert phi_weight(3, lam) == lam
    assert phi_weight(4, lam) == lam ** 2
    assert phi_weight(2, F(0)) == 0


def test_phi1_of_identity_vanishes():
    rep = regular_rep(G3, K0)
    image = apply_phi(G3, K0, rep, Cochain(1, Matrix.identity(3)))
    assert image.is_zero()


def test_phi2_of_bracket_vanishes_on_mrb_fixtures():
    for name, alg, ctx, rep in MRB_FIXTURES:
        if rep.dim_v != alg.dim:
            continue
        reg = regular_rep(alg, ctx)
        assert apply_phi(alg, ctx, reg, bracket_cochain(alg)).is_zero(), name


def test_phi2_formula_at_weight_zero():
    rep = regular_rep(G3, KZ)
    rng = random.Random(3)
    vals = Matrix([[F(rng.randrange(-2, 3)) for _ in range(9)] for _ in range(3)])
    f = Cochain(2, vals)
    image = apply_phi(G3, KZ, rep, f)
    k = KZ.operator
    kv = rep.k_v
    d = 3
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            def ev(u, v):
                out = [F(0)] * d
                for a, ua in enumerate(u):
                    for b, vb in enumerate(v):
                        if ua and vb:
                            col = vals.column(a * d + b)
                            out = [o + ua * vb * c for o, c in zip(out, col)]
                return tuple(out)

            ei = tuple(F(int(t == i - 1)) for t in range(d))
            ej = tuple(F(int(t == j - 1)) for t in range(d))
            ki, kj = k.column(i - 1), k.column(j - 1)
            expected = ev(ki, kj)
            inner = [a + b for a, b in zip(ev(ki, ej), ev(ei, kj))]
            expected = tuple(a - b for a, b in zip(expected, kv.apply(inner)))
            assert image.values.column((i - 1) * d + (j - 1)) == expected


def test_chain_map_low_degrees():
    for name, alg, ctx, rep in MRB_FIXTURES:
        derived, ind = operator_complex_pair(alg, ctx, rep)
        for n in range(2):
            lhs = phi_matrix(alg, ctx, rep, n + 1) @ delta_matrix(alg, rep, n)
            rhs = delta_matrix(derived, ind, n) @ phi_matrix(alg, ctx, rep, n)
            assert lhs == rhs, (name, n)


def test_differentials_square_to_zero():
    for name, alg, ctx, rep in MRB_FIXTURES:
        derived, ind = operator_complex_pair(alg, ctx, rep)
        for n in range(2):
            dd = delta_matrix(alg, rep, n + 1) @ delta_matrix(alg, rep, n)
            assert dd.is_zero(), (name, "delta", n)
            pp = delta_matrix(derived, ind, n + 1) @ delta_matrix(derived, ind, n)
            assert pp.is_zero(), (name, "partial", n)
            cc = cone_differential(alg, ctx, rep, n + 1) @ cone_differential(alg, ctx, rep, n)
            assert cc.is_zero(), (name, "cone", n)


def test_cone_differential_of_leibniz_half():
    rep = regular_rep(G3, K0)
    rng = random.Random(5)
    psi = Cochain(1, Matrix([[F(rng.randrange(-2, 3)) for _ in range(3)] for _ in range(3)]))
    pair = ConeCochain(psi, zero_cochain(3, 3, 0))
    image = apply_cone(G3, K0, rep, pair)
    assert image.leib == apply_delta(G3, rep, psi)
    assert image.op == -apply_phi(G3, K0, rep, psi)


def test_cone_degree_zero_injective():
    for name, alg, ctx, rep in MRB_FIXTURES:
        d0 = cone_differential(alg, ctx, rep, 0)
        assert len(kernel_basis(d0)) == 0, name


def test_cohomology_dimensions_leibniz_only():
    report = cohomology_dimensions(G3, regular_rep(G3), max_degree=1)
    assert report.operator is None and report.cone is None
    assert report.leibniz.cohomology_dims == (2, 4)
    assert report.leibniz.cochain_dims == (3, 9)


def test_cohomology_dimensions_dim1_zero_fixture():
    rep = regular_rep(Z1, Z1_ZERO)
    report = cohomology_dimensions(Z1, rep, Z1_ZERO, max_degree=2)
    assert report.cone.cohomology_dims == (0, 1, 2)
    assert report.cone.cochain_dims == (1, 2, 2)


def test_cohomology_dimensions_g3():
    rep = regular_rep(G3, K0)
    report = cohomology_dimensions(G3, rep, K0, max_degree=2)
    assert report.leibniz.cohomology_dims == (2, 4, 8)
    assert report.cone.cohomology_dims[0] == 0
    # termwise cone dimensions match the two halves
    for n in range(3):
        leib = report.leibniz.cochain_dims[n]
        op_prev = report.operator.cochain_dims[n - 1] if n else 0
        assert report.cone.cochain_dims[n] == (leib + op_prev if n else leib)


def blockwise_cone_dims(alg, ctx, rep, max_degree):
    """Independent cone cohomology path from delta/partial/phi ranks only."""
    derived, ind = operator_complex_pair(alg, ctx, rep)
    deltas = [delta_matrix(alg, rep, n) for n in range(max_degree + 1)]
    partials = [delta_matrix(derived, ind, n) for n in range(max_degree + 1)]
    phis = [phi_matrix(alg, ctx, rep, n) for n in range(max_degree + 1)]
    dim_v, d = rep.dim_v, alg.dim
    kernels = []
    for n in range(max_degree + 1):
        kern_delta = kernel_basis(deltas[n])
        if n == 0:
            if kern_delta:
                span = Matrix.from_cols([phis[0].apply(v) for v in kern_delta], dim_v)
                kernels.append(len(kern_delta) - rank(span))
            else:
                kernels.append(0)
            continue
        prev = partials[n - 1]
        if kern_delta:
            image_candidates = Matrix.from_cols(
                [phis[n].apply(v) for v in kern_delta], dim_v * d ** n
            )
            stacked = prev.hstack(image_candidates)
            independent = rank(stacked) - rank(prev)
        else:
            independent = 0
        kernels.append(
            len(kern_delta) - independent + len(kernel_basis(prev))
        )
    dims = []
    for n in range(max_degree + 1):
        space = cone_space_dim(dim_v, d, n)
        prev_rank = 0
        if n:
            prev_space = cone_space_dim(dim_v, d, n - 1)
            prev_rank = prev_space - kernels[n - 1]
        dims.append(kernels[n] - prev_rank)
    return tuple(dims)


def test_blockwise_oracle_agrees_with_cone_ranks():
    rep = regular_rep(G3, K0)
    report = cohomology_dimensions(G3, rep, K0, max_degree=2)
    assert blockwise_cone_dims(G3, K0, rep, 2) == report.cone.cohomology_dims
    rep = regular_rep(AFF, ROT)
    report = cohomology_dimensions(AFF, rep, ROT, max_degree=2)
    assert blockwise_cone_dims(AFF, ROT, rep, 2) == report.cone.cohomology_dims


def test_classify_zero_and_coboundaries():
    rep = regular_rep(G3, K0)
    zero = zero_cone_cochain(3, 3, 2)
    result = classify_cochain(G3, K0, rep, zero)
    assert result.cocycle and result.coboundary
    assert result.witness is not None and result.witness.is_zero()

    rng = random.Random(11)
    psi = Cochain(1, Matrix([[F(rng.randrange(-2, 3)) for _ in range(3)] for _ in range(3)]))
    image = apply_cone(G3, K0, rep, ConeCochain(psi, zero_cochain(3, 3, 0)))
    result = classify_cochain(G3, K0, rep, image)
    assert result.cocycle and result.coboundary
    recovered = apply_cone(G3, K0, rep, result.witness)
    assert recovered.leib == image.leib and recovered.op == image.op


def test_classify_bracket_cochain():
    rep = regular_rep(G3, K0)
    pair = ConeCochain(bracket_cochain(G3), zero_cochain(3, 3, 1))
    result = classify_cochain(G3, K0, rep, pair)
    assert result.cocycle
    if result.coboundary:
        recovered = apply_cone(G3, K0, rep, result.witness)
        assert recovered.leib == pair.leib and recovered.op == pair.op


def test_budget_guard():
    rep = regular_rep(G3, K0)
    with pytest.raises(BudgetExceeded):
        cohomology_dimensions(G3, rep, K0, max_degree=3, budget=10)


def test_cochain_vec_round_trip():
    rng = random.Random(2)
    vals = Matrix([[F(rng.randrange(-3, 4)) for _ in range(9)] for _ in range(2)])
    c = Cochain(2, vals)
    assert vec_to_cochain(cochain_to_vec(c), 2, 3, 2) == c
    cone = ConeCochain(c, Cochain(1, Matrix([[1, 2, 3], [4, 5, 6]])))
    assert vec_to_cone(cone_to_vec(cone), 2, 3, 2) == cone


def test_cone_matrix_matches_apply():
    rng = random.Random(9)
    for name, alg, ctx, rep in ASSEMBLY_CASES:
        for n in (0, 1, 2):
            mat = cone_differential(alg, ctx, rep, n)
            vec = tuple(
                F(rng.randrange(-2, 3)) for _ in range(cone_space_dim(rep.dim_v, alg.dim, n))
            )
            cone = vec_to_cone(vec, rep.dim_v, alg.dim, n)
            assert mat.apply(vec) == cone_to_vec(apply_cone(alg, ctx, rep, cone)), (name, n)


ASSEMBLY_CASES = MRB_FIXTURES + [
    ("sl2-rotated", SL2_ROT, SL2_ROT_K, regular_rep(SL2_ROT, SL2_ROT_K)),
]


def test_rotated_sl2_case_is_fractional_and_valid():
    assert any(c.denominator != 1 for _, c in SL2_ROT.entries)
    assert leibniz_defect(SL2_ROT).is_empty
    assert mrb_defect(SL2_ROT, SL2_ROT_K).is_empty


@pytest.mark.parametrize("name, alg, ctx, rep", ASSEMBLY_CASES, ids=[c[0] for c in ASSEMBLY_CASES])
def test_assembly_matches_basis_evaluation(name, alg, ctx, rep):
    derived, ind = operator_complex_pair(alg, ctx, rep)
    for n in range(5 if alg.dim <= 2 else 4):
        assert delta_matrix(alg, rep, n) == reference.delta_matrix(alg, rep, n), n
        assert delta_matrix(derived, ind, n) == reference.partial_matrix(alg, ctx, rep, n), n
        assert phi_matrix(alg, ctx, rep, n) == reference.phi_matrix(alg, ctx, rep, n), n
        cone = cone_differential(alg, ctx, rep, n)
        assert cone == reference.cone_differential(alg, ctx, rep, n), n
        assert all(type(e) is F for i in range(cone.rows) for e in cone.row(i)), n


def test_g3_regular_degree_four_table():
    report = cohomology_dimensions(G3, regular_rep(G3, K0), K0, max_degree=4)
    assert report.leibniz.cohomology_dims == (2, 4, 8, 16, 32)
    assert report.operator.cohomology_dims == (2, 4, 8, 16, 32)
    assert report.cone.cohomology_dims == (0, 3, 3, 3, 15)
    assert report.cone.differential_ranks == (3, 6, 27, 78, 231)


# Cone ranks of G3/K0 with the regular module through degree 6, from an
# independent weight-block computation (weights (1,0), (0,1), (2,0))
G3_CONE_RANKS = (3, 6, 27, 78, 231, 726, 2119)


def test_g3_regular_degree_six_table():
    report = cohomology_dimensions(G3, regular_rep(G3, K0), K0, max_degree=6)
    assert report.cone.differential_ranks == G3_CONE_RANKS
    assert report.cone.cohomology_dims == (0, 3, 3, 3, 15, 15, 71)
    assert report.leibniz.cohomology_dims == tuple(2 ** n for n in range(1, 8))


def test_degree_five_cohomology_stays_small_in_memory():
    # dense rows of the degree-5 cone (2916 x 972 cells and more) peak near
    # 96 MiB; sparse rows and a forward-only rank stay under 16 MiB
    rep = regular_rep(G3, K0)
    tracemalloc.start()
    try:
        report = cohomology_dimensions(G3, rep, K0, max_degree=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cone.differential_ranks == G3_CONE_RANKS[:6]
    assert peak < 16 * 2 ** 20, peak


def z1_phi(n):
    """phi_n on Z1 with K = 2, weight 3 and the regular module (K_V = 2):
    sum over subset sizes r of C(n, r) * w(r) * 2^(n - r), times K_V = 2 on
    odd r."""
    return sum(
        comb(n, r) * phi_weight(r, F(3)) * 2 ** (n - r) * (2 if r % 2 else 1)
        for r in range(n + 1)
    )


def test_phi_on_z1_matches_its_closed_form():
    assert [z1_phi(n) for n in range(5)] == [1, 0, -7, -28, -63]
    rep = regular_rep(Z1, Z1_K)
    for n in range(31):
        assert phi_matrix(Z1, Z1_K, rep, n) == Matrix([[z1_phi(n)]]), n


def test_degree_thirty_on_a_one_dimensional_algebra_finishes():
    # every cochain space of Z1 has one cell, so the budget never fires: phi
    # must not cost 2^n per row
    doc = '{"field":"rational","algebra":{"dim":1,"bracket":[]},"operator":{"weight":"3","matrix":[["2"]]}}'
    script = "import sys; from mrbleib.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(mrbleib.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script, "cohomology", "-", "--max-degree", "30"],
        input=doc, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    cone = json.loads(out.stdout)["result"]["cone"]
    ranks = [1] + [int(z1_phi(n) != 0) for n in range(1, 31)]
    assert cone["differentialRanks"] == ranks
    assert cone["cohomologyDims"] == [0] + [2 - ranks[n] - ranks[n - 1] for n in range(1, 31)]


def test_cancelling_terms_leave_no_stored_zero():
    # rho_R = -rho_L on Z1: the two terms of delta_1 cancel; on Z1/Z1_K the
    # K and K_V terms of phi_1 cancel
    one = Matrix.identity(1)
    sym = Representation(1, (one,), (-one,), Matrix.zeros(1, 1))
    zrep = regular_rep(Z1, Z1_K)
    for got, expected in (
        (delta_matrix(Z1, sym, 1), reference.delta_matrix(Z1, sym, 1)),
        (phi_matrix(Z1, Z1_K, zrep, 1), reference.phi_matrix(Z1, Z1_K, zrep, 1)),
        (cone_differential(Z1, Z1_K, zrep, 1), reference.cone_differential(Z1, Z1_K, zrep, 1)),
    ):
        assert all(v for _, _, v in got.nonzeros())
        assert got == expected and hash(got) == hash(expected)
    assert delta_matrix(Z1, sym, 1).nonzeros() == [] and phi_matrix(Z1, Z1_K, zrep, 1).nonzeros() == []


# [e1,e1] = e1 fails the Leibniz identity by -e1, in dim 1 and in dim 2
NOT_LEIBNIZ = [LeibnizAlgebra(1, [(1, 1, 1, 1)]), LeibnizAlgebra(2, [(1, 1, 1, 1)])]


@pytest.mark.parametrize("alg", NOT_LEIBNIZ, ids=["dim1", "dim2"])
def test_library_rejects_a_non_leibniz_algebra(alg):
    with pytest.raises(NotLeibniz):
        cohomology_dimensions(alg, regular_rep(alg))


def test_a_module_that_breaks_the_complex_is_an_explicit_error():
    # rho_L = rho_R = id on Z1 fails the module axioms; ranks 1 + 1 > dim 1
    one = Matrix.identity(1)
    bad = Representation(1, (one,), (one,), Matrix.zeros(1, 1))
    with pytest.raises(NotAComplex):
        cohomology_dimensions(Z1, bad, max_degree=2)


def test_validation_survives_optimized_python():
    script = "\n".join([
        "from mrbleib.algebra import LeibnizAlgebra",
        "from mrbleib.cohomology import cohomology_dimensions",
        "from mrbleib.errors import MrbError",
        "from mrbleib.linalg import Matrix",
        "from mrbleib.representations import Representation, regular_rep",
        "alg = LeibnizAlgebra(2, [(1, 1, 1, 1)])",
        "one = Matrix.identity(1)",
        "bad = Representation(1, (one,), (one,), Matrix.zeros(1, 1))",
        "for a, r in ((alg, regular_rep(alg)), (LeibnizAlgebra(1, []), bad)):",
        "    try:",
        "        print(cohomology_dimensions(a, r, max_degree=2))",
        "    except MrbError as exc:",
        "        print(type(exc).__name__)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(mrbleib.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["NotLeibniz", "NotAComplex"]


def test_negative_max_degree_is_rejected():
    with pytest.raises(InvalidArgument):
        cohomology_dimensions(G3, regular_rep(G3), max_degree=-1)


# three copies of sl2, each split as in SL2_ROT (K = +1 on e, h and -1 on f)
SL2_CUBED = LeibnizAlgebra(
    9, [(i + t, j + t, k + t, c) for t in (0, 3, 6) for (i, j, k), c in SL2.entries]
)
SL2_CUBED_K = OperatorContext(
    Matrix([[F(-1 if i % 3 == 1 else 1) if i == j else F(0) for j in range(9)] for i in range(9)]),
    F(-1),
)


def test_evaluators_do_not_assemble_the_differentials():
    # The degree-2 delta matrix here has 6561 x 729 cells (over 38 MB of
    # pointers alone); evaluating one cone cochain must stay far below that.
    rep = regular_rep(SL2_CUBED, SL2_CUBED_K)
    cone = ConeCochain(bracket_cochain(SL2_CUBED), operator_cochain(SL2_CUBED_K.operator))
    tracemalloc.start()
    try:
        image = apply_cone(SL2_CUBED, SL2_CUBED_K, rep, cone)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    derived, ind = operator_complex_pair(SL2_CUBED, SL2_CUBED_K, rep)
    expected = reference.apply_delta(SL2_CUBED, rep, cone.leib)
    assert image.leib == expected
    expected = -reference.apply_phi(SL2_CUBED, SL2_CUBED_K, rep, cone.leib)
    expected = expected - reference.apply_delta(derived, ind, cone.op)
    assert image.op == expected


def test_cochain_entries_invert_cochain_from_entries():
    entries = [((1, 2), 1, F(1, 2)), ((2, 1), 2, F(-3)), ((1, 2), 2, F(4)), ((3, 3), 1, F(7))]
    c = cochain_from_entries(2, 3, 2, entries)
    # flat column order, then fiber row
    assert list(cochain_entries(c, 3)) == [entries[0], entries[2], entries[1], entries[3]]
    assert cochain_from_entries(2, 3, 2, cochain_entries(c, 3)) == c
    assert list(cochain_entries(zero_cochain(2, 3, 2), 3)) == []
    assert list(cochain_entries(Cochain(0, Matrix([[0], [5]])), 3)) == [((), 2, F(5))]
    # a repeated key adds up
    assert list(cochain_entries(cochain_from_entries(1, 2, 1, [((2,), 1, 1), ((2,), 1, 2)]), 2)) == [
        ((2,), 1, F(3))
    ]
    for a in (0, 3):
        with pytest.raises(DimensionMismatch):
            cochain_from_entries(2, 3, 1, [((1,), a, 1)])


def test_cone_cochain_halves_share_the_fiber():
    with pytest.raises(DimensionMismatch):
        ConeCochain(zero_cochain(2, 3, 2), zero_cochain(3, 3, 1))
    with pytest.raises(DimensionMismatch):
        ConeCochain(zero_cochain(0, 3, 1), zero_cochain(1, 3, 0))
    assert zero_cone_cochain(2, 3, 2).op.dim_v == 2


def test_cochains_of_a_zero_dimensional_module_keep_their_columns():
    for degree in range(3):
        cols = 3 ** degree
        assert cochain_from_entries(0, 3, degree, []).values.cols == cols
        assert vec_to_cochain((), 0, 3, degree).values.cols == cols
        assert list(cochain_entries(zero_cochain(0, 3, degree), 3)) == []


AFF_ID = OperatorContext(Matrix.identity(2), F(-1))


def test_chain_map_on_aff_with_the_identity():
    rep = regular_rep(AFF, AFF_ID)
    derived, ind = operator_complex_pair(AFF, AFF_ID, rep)
    for n in range(4):
        lhs = phi_matrix(AFF, AFF_ID, rep, n + 1) @ delta_matrix(AFF, rep, n)
        rhs = delta_matrix(derived, ind, n) @ phi_matrix(AFF, AFF_ID, rep, n)
        assert lhs == rhs, n


# Leibniz, operator and cone H^0..H^2 with the regular module
DEGREE_TWO_TABLES = [
    ("z1-zero", Z1, Z1_ZERO, (1, 1, 1), (1, 1, 1), (0, 1, 2)),
    ("g3-k0", G3, K0, (2, 4, 8), (2, 4, 8), (0, 3, 3)),
    ("aff-id", AFF, AFF_ID, (0, 0, 0), (2, 2, 2), (0, 2, 2)),
    ("sl2-id", SL2, SL2_ID, (0, 0, 0), (3, 0, 0), (0, 3, 0)),
    ("aff-zero", AFF, OperatorContext(Matrix.zeros(2, 2), F(0)), (0, 0, 0), (2, 4, 8), (0, 2, 4)),
    ("sl2-zero", SL2, OperatorContext(Matrix.zeros(3, 3), F(0)), (0, 0, 0), (3, 9, 27), (0, 3, 9)),
    ("aff-2id", AFF, OperatorContext(Matrix.identity(2).scale(2), F(-4)), (0, 0, 0), (2, 2, 2), (0, 2, 2)),
]


@pytest.mark.parametrize(
    "name, alg, ctx, leib, op, cone", DEGREE_TWO_TABLES, ids=[t[0] for t in DEGREE_TWO_TABLES]
)
def test_degree_two_tables(name, alg, ctx, leib, op, cone):
    report = cohomology_dimensions(alg, regular_rep(alg, ctx), ctx, max_degree=2)
    assert report.leibniz.cohomology_dims == leib
    assert report.operator.cohomology_dims == op
    assert report.cone.cohomology_dims == cone


def test_known_answers_for_sl2():
    # Ntolo, C. R. Acad. Sci. Paris 309 (1989): HL*(sl2, Q) is Q in degree 0
    zero = Matrix.zeros(1, 1)
    trivial = Representation(1, (zero,) * 3, (zero,) * 3, zero)
    report = cohomology_dimensions(SL2, trivial, max_degree=6)
    assert report.leibniz.cohomology_dims == (1, 0, 0, 0, 0, 0, 0)
    # the adjoint module has no Leibniz cohomology at all
    report = cohomology_dimensions(SL2, regular_rep(SL2), max_degree=5)
    assert report.leibniz.cohomology_dims == (0,) * 6
    # K = id of weight -1 with the regular module: rho_K = rho - K_V rho = 0,
    # so the operator complex is that of sl2 (bracket doubled) with a trivial
    # 3-dim module, Q^3 in degree 0 by Ntolo; the Leibniz side is zero, so
    # the cone's long exact sequence gives H^1 = Q^3 and nothing else
    report = cohomology_dimensions(SL2, regular_rep(SL2, SL2_ID), SL2_ID, max_degree=4)
    assert report.operator.cohomology_dims == (3, 0, 0, 0, 0)
    assert report.cone.cohomology_dims == (0, 3, 0, 0, 0)
