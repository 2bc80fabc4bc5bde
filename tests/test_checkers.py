"""The sparse defect checkers against the dense oracles of ``reference``.

``mrb_defect`` and ``rep_defect`` accumulate residuals from pairs of
nonzero structure constants and operator or action entries; the oracles
evaluate every axiom on every basis pair.  Reports must agree in entries,
order, sections and residuals, on valid structures and on broken ones.
The same holds for everything else written on the sparse bilinear core:
``rb_defect``, ``derived_algebra``, ``morphism_defect``, the deformation
equations, formal isomorphisms and equivalence equations, the module laws
``mrb_rep_defect`` and ``rb_rep_defect``, the induced module, and the
checks and read-off of abelian extensions.

``mrb_defect``, ``derived_algebra`` and the module laws and induced actions
run the core on integers scaled by a common denominator; the fractions
drawn here have denominators up to 7, so a draw's common denominator is
rarely 1, and the tests below pin that every value they return is a
``Fraction`` and that denominators from the constants, the operator and the
weight all come out right.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference
from fixtures import G3, MRB_FIXTURES, SL2, SL2_ROT, SL2_ROT_K, change_basis
from mrbleib.algebra import (
    Defect,
    LeibnizAlgebra,
    OperatorContext,
    derived_algebra,
    morphism_defect,
    mrb_defect,
    rb_defect,
)
from mrbleib.cli import build_parser, execute
from mrbleib.cohomology import Cochain, bracket_cochain, cochain_entries, zero_cone_cochain
from mrbleib.deformation import (
    FormalIso,
    TruncatedDeformation,
    apply_formal_iso,
    deformation_residuals,
    equivalence_residuals,
)
from mrbleib.documents import AlgebraDocument, serialize_document
from mrbleib.errors import MrbError
from mrbleib.extensions import (
    ExtensionData,
    _read_off,
    canonical_injection,
    canonical_projection,
    extension_from_cocycle,
    extract_cocycle,
    retraction_from,
    section_from_proj,
    semidirect,
    validate_extension,
)
from mrbleib.linalg import Matrix, solve_right_inverse
from mrbleib.representations import (
    Representation,
    _induced,
    induced_rep,
    mrb_rep_defect,
    rb_rep_defect,
    regular_rep,
    rep_defect,
)

fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 7))


def sparse_matrix(draw, n, density, cols=None):
    cols = n if cols is None else cols
    rows = [
        [draw(fractions) if draw(st.floats(0, 1)) < density else F(0) for _ in range(cols)]
        for _ in range(n)
    ]
    return Matrix._dense(rows, cols)


def algebras(draw, d):
    index = st.integers(1, max(d, 1))
    keys = draw(st.lists(st.tuples(index, index, index), unique=True, max_size=3 * d))
    return LeibnizAlgebra(d, [(i, j, k, draw(fractions)) for i, j, k in keys])


def outcome(f, *args):
    """The result of f, or the class of the package error it raises."""
    try:
        return f(*args)
    except MrbError as e:
        return type(e)


@st.composite
def structures(draw):
    """An algebra of dim 0-5 with fractional constants, an operator and a
    module (actions and module operator) that are usually not axiom-abiding,
    and the regular module."""
    d = draw(st.integers(0, 5))
    alg = algebras(draw, d)
    ctx = OperatorContext(sparse_matrix(draw, d, draw(st.floats(0, 1))), draw(fractions))
    n = draw(st.integers(0, 3))
    density = draw(st.floats(0, 1))
    module = Representation(
        n,
        [sparse_matrix(draw, n, density) for _ in range(d)],
        [sparse_matrix(draw, n, density) for _ in range(d)],
        sparse_matrix(draw, n, draw(st.floats(0, 1))),
    )
    return alg, ctx, module


@settings(max_examples=200, deadline=None)
@given(structures())
def test_sparse_checkers_match_the_dense_oracle(structure):
    alg, ctx, module = structure
    assert mrb_defect(alg, ctx) == reference.mrb_defect(alg, ctx)
    regular = regular_rep(alg, ctx)
    for rep in (module, regular):
        assert rep_defect(alg, rep) == reference.rep_defect(alg, rep)
        assert mrb_rep_defect(alg, ctx, rep) == reference.mrb_rep_defect(alg, ctx, rep)
        assert rb_rep_defect(alg, ctx, rep) == reference.rb_rep_defect(alg, ctx, rep)
        assert _induced(alg, ctx, rep) == reference.induced_rep(alg, ctx, rep)


@st.composite
def deformation_data(draw):
    """Two truncated deformations of order 0-3 over one algebra of dim 0-4
    (brackets and operators usually not axiom-abiding), a formal
    isomorphism of the same order, and a second operator algebra with a
    linear map into it."""
    d = draw(st.integers(0, 4))
    order = draw(st.integers(0, 3))
    alg = algebras(draw, d)
    ctx = OperatorContext(sparse_matrix(draw, d, draw(st.floats(0, 1))), draw(fractions))

    def deformation():
        density = draw(st.floats(0, 0.5))
        return TruncatedDeformation(
            alg, ctx,
            (bracket_cochain(alg),) + tuple(
                Cochain(2, sparse_matrix(draw, d, density, d * d)) for _ in range(order)
            ),
            (ctx.operator,) + tuple(sparse_matrix(draw, d, density) for _ in range(order)),
        )

    iso = FormalIso((Matrix.identity(d),) + tuple(
        sparse_matrix(draw, d, draw(st.floats(0, 1))) for _ in range(order)
    ))
    d2 = draw(st.integers(0, 4))
    alg2 = algebras(draw, d2)
    ctx2 = OperatorContext(sparse_matrix(draw, d2, draw(st.floats(0, 1))), draw(fractions))
    phi = sparse_matrix(draw, d2, draw(st.floats(0, 1)), d)
    return deformation(), deformation(), iso, alg2, ctx2, phi


@settings(max_examples=150, deadline=None)
@given(deformation_data())
def test_bilinear_core_matches_the_dense_oracles(data):
    dfm, other, iso, alg2, ctx2, phi = data
    alg, ctx = dfm.algebra, dfm.ctx
    assert rb_defect(alg, ctx) == reference.rb_defect(alg, ctx)
    assert outcome(derived_algebra, alg, ctx) == outcome(reference.derived_algebra, alg, ctx)
    assert morphism_defect(alg, ctx, alg2, ctx2, phi) == reference.morphism_defect(
        alg, ctx, alg2, ctx2, phi
    )
    assert deformation_residuals(dfm) == reference.deformation_residuals(dfm)
    assert apply_formal_iso(dfm, iso) == reference.apply_formal_iso(dfm, iso)
    assert equivalence_residuals(dfm, other, iso) == reference.equivalence_residuals(
        dfm, other, iso
    )


CORE_FIXTURES = [(name, alg, ctx) for name, alg, ctx, _ in MRB_FIXTURES] + [
    ("sl2-rot", SL2_ROT, SL2_ROT_K)
]


@pytest.mark.parametrize("name,alg,ctx,rep", MRB_FIXTURES, ids=[f[0] for f in MRB_FIXTURES])
def test_sparse_checkers_match_the_dense_oracle_on_fixtures(name, alg, ctx, rep):
    assert mrb_defect(alg, ctx) == reference.mrb_defect(alg, ctx)
    assert rep_defect(alg, rep) == reference.rep_defect(alg, rep)
    assert mrb_rep_defect(alg, ctx, rep) == reference.mrb_rep_defect(alg, ctx, rep)
    assert rb_rep_defect(alg, ctx, rep) == reference.rb_rep_defect(alg, ctx, rep)
    assert induced_rep(alg, ctx, rep) == reference.induced_rep(alg, ctx, rep)
    # a genuine extension: the semidirect product, read off at its canonical
    # section, gives back the module and the zero pair
    d, m = alg.dim, rep.dim_v
    ext = extension_from_cocycle(alg, ctx, rep, zero_cone_cochain(m, d, 2))
    report = validate_extension(ext)
    assert report.is_empty and report == reference.validate_extension(ext)
    section = section_from_proj(ext)
    read = extract_cocycle(ext, section)
    assert read == reference.read_off(ext, section, retraction_from(ext, section))
    assert read[0] == rep and read[1].leib.is_zero() and read[1].op.is_zero()


@st.composite
def perturbed_extensions(draw):
    """A direct-sum model over a fixture, twisted by a random pair (psi, chi)
    that is usually not a cocycle, perturbed by one of: a nonzero fiber
    bracket, brackets with the fiber on either side that leave the ideal, a
    wrong projection entry, or nothing; then written in a random basis of the
    total space."""
    _, alg, ctx, rep = draw(st.sampled_from(MRB_FIXTURES))
    d, m = alg.dim, rep.dim_v
    n = d + m
    density = draw(st.floats(0, 0.5))
    psi = Cochain(2, sparse_matrix(draw, m, density, d * d))
    chi = sparse_matrix(draw, m, density, d)
    entries = [(i, j, k, c) for (i, j, k), c in semidirect(alg, ctx, rep)[0].entries]
    entries += [(i, j, d + a, c) for (i, j), a, c in cochain_entries(psi, d)]
    op = Matrix.diag_blocks(ctx.operator, rep.k_v)
    op = op + Matrix.zeros(d, d).vstack(chi).hstack(Matrix.zeros(n, m))
    proj = canonical_projection(d, m)
    kind = draw(st.sampled_from(["fiber", "ideal", "projection", "none"]))
    fiber = st.integers(d + 1, n)
    nonzero = fractions.filter(bool)
    if kind == "fiber":
        entries.append((draw(fiber), draw(fiber), draw(st.integers(1, n)), draw(nonzero)))
    elif kind == "ideal":
        base = st.integers(1, d)
        entries.append((draw(base), draw(fiber), draw(base), draw(nonzero)))
        entries.append((draw(fiber), draw(base), draw(base), draw(nonzero)))
    elif kind == "projection":
        hit = Matrix.zeros(d, n).to_lists()
        hit[draw(st.integers(0, d - 1))][draw(st.integers(0, n - 1))] = draw(nonzero)
        proj = proj + Matrix(hit)
    # a unit upper triangular matrix with permuted columns is invertible
    upper = sparse_matrix(draw, n, draw(st.floats(0, 0.5))).to_lists()
    for i in range(n):
        upper[i][:i + 1] = [F(0)] * i + [F(1)]
    perm = draw(st.permutations(range(n)))
    p = Matrix(upper) @ Matrix([[F(int(perm[j] == i)) for j in range(n)] for i in range(n)])
    total, total_op = change_basis(LeibnizAlgebra(n, entries), OperatorContext(op, ctx.weight), p)
    pinv = solve_right_inverse(p)
    return ExtensionData(
        total, total_op, pinv @ canonical_injection(d, m), proj @ p, alg, ctx, rep.k_v
    )


@settings(max_examples=60, deadline=None)
@given(perturbed_extensions())
def test_extension_checks_match_the_dense_oracles(ext):
    assert validate_extension(ext) == reference.validate_extension(ext)
    section = outcome(section_from_proj, ext)
    if isinstance(section, Matrix):
        t = outcome(retraction_from, ext, section)
        if isinstance(t, Matrix):
            assert _read_off(ext, section, t) == reference.read_off(ext, section, t)


@pytest.mark.parametrize("name,alg,ctx", CORE_FIXTURES, ids=[f[0] for f in CORE_FIXTURES])
def test_bilinear_core_matches_the_dense_oracles_on_fixtures(name, alg, ctx):
    # genuine structures: the derived bracket exists, and the operator is a
    # morphism from the derived algebra to the algebra
    derived = derived_algebra(alg, ctx)
    assert derived == reference.derived_algebra(alg, ctx)
    k = ctx.operator
    assert morphism_defect(derived, ctx, alg, ctx, k) == reference.morphism_defect(
        derived, ctx, alg, ctx, k
    )
    assert rb_defect(alg, ctx) == reference.rb_defect(alg, ctx)


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


def all_fractions(values) -> bool:
    return all(type(v) is F for v in values)


@settings(max_examples=100, deadline=None)
@given(structures())
def test_the_integer_path_returns_fractions(structure):
    alg, ctx, module = structure
    for rep in (module, regular_rep(alg, ctx)):
        for report in (mrb_defect(alg, ctx), rep_defect(alg, rep), mrb_rep_defect(alg, ctx, rep)):
            assert all(all_fractions(d.residual) for d in report.entries)
        induced = _induced(alg, ctx, rep)
        for m in (*induced.rho_left, *induced.rho_right):
            assert all_fractions(v for _, _, v in m.nonzeros())


@pytest.mark.parametrize("name,alg,ctx", CORE_FIXTURES, ids=[f[0] for f in CORE_FIXTURES])
def test_the_derived_bracket_has_fraction_constants(name, alg, ctx):
    assert all_fractions(c for _, c in derived_algebra(alg, ctx).entries)


# sl2 split as span(e, h) + span(f) with s = 1/2: K = diag(s, -s, s) is
# modified Rota-Baxter of weight -s^2, its denominators in K and the weight
SL2_HALF = OperatorContext(Matrix([[F(1, 2), 0, 0], [0, F(-1, 2), 0], [0, 0, F(1, 2)]]), F(-1, 4))
# K0 = diag(1, 0, 0) on G3 has weight 1; at weight 1/3 the modified identity
# fails at (e1, e1) by [e1,e1] - 1/3 [e1,e1] = 2/3 e3, and so does the
# module law of the regular module at e1, at V-entry (3, 1) on both sides
G3_THIRD = OperatorContext(Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), F(1, 3))
THIRD = ["0"] * 6 + ["2/3", "0", "0"]

PINNED = [
    ("sl2-half", SL2, SL2_HALF, {}),
    ("g3-third", G3, G3_THIRD, {
        "mrb": [("mrb", [1, 1], ["0", "0", "2/3"])],
        "mrb-representation": [("left", [1], THIRD), ("right", [1], THIRD)],
    }),
]


@pytest.mark.parametrize("name,alg,ctx,failures", PINNED, ids=[f[0] for f in PINNED])
def test_denominators_from_the_operator_and_the_weight(tmp_path, name, alg, ctx, failures):
    rep = regular_rep(alg, ctx)
    assert mrb_defect(alg, ctx) == reference.mrb_defect(alg, ctx)
    assert rep_defect(alg, rep) == reference.rep_defect(alg, rep)
    assert mrb_rep_defect(alg, ctx, rep) == reference.mrb_rep_defect(alg, ctx, rep)
    assert _induced(alg, ctx, rep) == reference.induced_rep(alg, ctx, rep)
    assert outcome(derived_algebra, alg, ctx) == outcome(reference.derived_algebra, alg, ctx)
    path = tmp_path / "doc.json"
    path.write_text(serialize_document(AlgebraDocument(alg, ctx, None)))
    report, code = execute(build_parser().parse_args(["check", str(path)]))
    assert code == (1 if failures else 0)
    assert [
        (s["name"], [(r["kind"], r["at"], r["value"]) for r in s["residuals"]])
        for s in report["sections"]
    ] == [
        (section, failures.get(section, []))
        for section in ("leibniz", "mrb", "representation", "mrb-representation")
    ]
