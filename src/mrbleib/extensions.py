"""Abelian extensions of modified Rota-Baxter Leibniz algebras.

An abelian extension is a short exact sequence of operator algebras whose
kernel has vanishing bracket.  Extensions are stored with explicit
inclusion and projection matrices rather than assuming a direct-sum
splitting, so cocycle extraction genuinely exercises the section and
retraction algebra.  The direct-sum model produced from a 2-cocycle is the
canonical output going the other way, and the two directions are mutually
inverse up to the isomorphisms built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    DefectReport,
    LeibnizAlgebra,
    OperatorContext,
    _collect,
    leibniz_defect,
    morphism_defect,
    mrb_defect,
)
from .cohomology import (
    Cochain,
    ConeCochain,
    apply_delta,
    apply_phi,
    classify_cochain,
    cochain_entries,
)
from .errors import (
    DimensionMismatch,
    NotACocycle,
    NotAnExtension,
    NotASection,
    NotCohomologous,
    NotMRBRepresentation,
)
from .linalg import Matrix, ZERO, rank, solve_right_inverse, solve_with_free_zero
from .representations import Representation, _direct_sum_entries, mrb_rep_defect, rep_defect


@dataclass(frozen=True)
class ExtensionData:
    """A candidate abelian extension 0 -> V -> total -> base -> 0."""

    total: LeibnizAlgebra
    total_op: OperatorContext
    incl: Matrix
    proj: Matrix
    base: LeibnizAlgebra
    base_op: OperatorContext
    fiber_op: Matrix

    def __post_init__(self):
        d, m = self.base.dim, self.fiber_dim
        if self.total.dim != d + m:
            raise DimensionMismatch("total dimension must be base + fiber")
        if self.incl.rows != d + m:
            raise DimensionMismatch("inclusion must map the fiber into the total space")
        if self.proj.rows != d or self.proj.cols != d + m:
            raise DimensionMismatch("projection must map the total space onto the base")
        if self.fiber_op.rows != m or self.fiber_op.cols != m:
            raise DimensionMismatch("fiber operator must be square on the fiber")

    @property
    def fiber_dim(self) -> int:
        return self.incl.cols


@dataclass(frozen=True)
class CocyclePair:
    """A degree-2 cochain and a degree-1 cochain with values in the fiber."""

    psi: Cochain
    chi: Cochain

    def __post_init__(self):
        if self.psi.degree != 2 or self.chi.degree != 1:
            raise DimensionMismatch("cocycle pair must have degrees (2, 1)")
        if self.psi.values.rows != self.chi.values.rows:
            raise DimensionMismatch("both halves must share the fiber dimension")

    def as_cone(self) -> ConeCochain:
        return ConeCochain(self.psi, self.chi)


def canonical_injection(d: int, m: int) -> Matrix:
    """The last-m-coordinates inclusion of the fiber into base + fiber."""
    return Matrix.zeros(d, m).vstack(Matrix.identity(m))


def canonical_projection(d: int, m: int) -> Matrix:
    """The first-d-coordinates projection of base + fiber onto the base."""
    return Matrix.identity(d).hstack(Matrix.zeros(d, m))


def canonical_section(d: int, m: int) -> Matrix:
    """The first-d-coordinates inclusion of the base; the canonical section."""
    return Matrix.identity(d).vstack(Matrix.zeros(m, d))


def validate_extension(ext: ExtensionData) -> DefectReport:
    """Residuals of everything that makes the data an abelian extension.

    Sections: exactness (p i = 0, both maps of full rank), operator-diagram
    (both commuting squares and equal weights), abelian (the fiber bracket
    vanishes), ideal-left / ideal-right (brackets with the fiber stay in the
    fiber), projection-morphism, total-leibniz and total-mrb.
    """
    d, m = ext.base.dim, ext.fiber_dim
    items = []
    pi = ext.proj @ ext.incl
    for b in range(m):
        items.append(("exactness", (b + 1,), pi.column(b)))
    if rank(ext.incl) != m:
        items.append(("exactness", (), (Fraction(m - rank(ext.incl)),)))
    if rank(ext.proj) != d:
        items.append(("exactness", (), (Fraction(d - rank(ext.proj)),)))
    khat = ext.total_op.operator
    left_square = khat @ ext.incl - ext.incl @ ext.fiber_op
    for b in range(m):
        items.append(("operator-diagram", (b + 1,), left_square.column(b)))
    right_square = ext.proj @ khat - ext.base_op.operator @ ext.proj
    for b in range(d + m):
        items.append(("operator-diagram", (b + 1,), right_square.column(b)))
    items.append(
        ("operator-diagram", (), (ext.total_op.weight - ext.base_op.weight,))
    )
    icols = [ext.incl.column(b) for b in range(m)]
    for a in range(m):
        for b in range(m):
            items.append(
                ("abelian", (a + 1, b + 1), ext.total.bracket(icols[a], icols[b]))
            )
    for t in range(1, d + m + 1):
        et = tuple(Fraction(1) if s == t - 1 else ZERO for s in range(d + m))
        for b in range(m):
            items.append(
                ("ideal-left", (t, b + 1), ext.proj.apply(ext.total.bracket(et, icols[b])))
            )
            items.append(
                ("ideal-right", (b + 1, t), ext.proj.apply(ext.total.bracket(icols[b], et)))
            )
    pcols = [ext.proj.column(t) for t in range(d + m)]
    for s in range(1, d + m + 1):
        for t in range(1, d + m + 1):
            lhs = ext.proj.apply(ext.total.bracket_basis(s, t))
            rhs = ext.base.bracket(pcols[s - 1], pcols[t - 1])
            items.append(
                ("projection-morphism", (s, t), tuple(a - b for a, b in zip(lhs, rhs)))
            )
    for defect in leibniz_defect(ext.total).entries:
        items.append(("total-leibniz", defect.where, defect.residual))
    for defect in mrb_defect(ext.total, ext.total_op).entries:
        items.append(("total-mrb", defect.where, defect.residual))
    return _collect(items)


def section_from_proj(ext: ExtensionData) -> Matrix:
    """The canonical right inverse of the projection (free coordinates zero)."""
    return solve_right_inverse(ext.proj)


def retraction_from(ext: ExtensionData, section: Matrix) -> Matrix:
    """The retraction t with i t = id - s p determined by the section."""
    d, m = ext.base.dim, ext.fiber_dim
    target = Matrix.identity(d + m) - section @ ext.proj
    t = solve_with_free_zero(ext.incl, target)
    if t is None:
        raise NotAnExtension("id - s p does not factor through the inclusion")
    return t


def extract_cocycle(
    ext: ExtensionData, section: Matrix
) -> tuple[Representation, CocyclePair]:
    """Read off the module structure and the 2-cocycle seen by a section.

    rhoL(x)v = t[s x, i v], rhoR(x)v = t[i v, s x],
    psi(x,y) = t([s x, s y] - s[x,y]), chi(x) = t(K s x - s K x).
    The module is checked to satisfy both module laws, and the pair is
    checked to be a cocycle; both are theorems for valid extensions.
    """
    report = validate_extension(ext)
    if not report.is_empty:
        raise NotAnExtension(f"{len(report)} validation residuals")
    d, m = ext.base.dim, ext.fiber_dim
    if section.rows != d + m or section.cols != d:
        raise NotASection("section has the wrong shape")
    if ext.proj @ section != Matrix.identity(d):
        raise NotASection("p s is not the identity")
    t = retraction_from(ext, section)
    scols = [section.column(x) for x in range(d)]
    icols = [ext.incl.column(b) for b in range(m)]
    left = []
    right = []
    for x in range(d):
        left.append(Matrix.from_cols(
            [t.apply(ext.total.bracket(scols[x], icols[b])) for b in range(m)], m
        ))
        right.append(Matrix.from_cols(
            [t.apply(ext.total.bracket(icols[b], scols[x])) for b in range(m)], m
        ))
    rep = Representation(m, tuple(left), tuple(right), ext.fiber_op)
    psi_cols = []
    for x in range(d):
        for y in range(d):
            inner = ext.total.bracket(scols[x], scols[y])
            inner = tuple(
                a - b for a, b in zip(inner, section.apply(ext.base.bracket_basis(x + 1, y + 1)))
            )
            psi_cols.append(t.apply(inner))
    khat = ext.total_op.operator
    chi_cols = []
    for x in range(d):
        vec = khat.apply(scols[x])
        vec = tuple(a - b for a, b in zip(vec, section.apply(ext.base_op.operator.column(x))))
        chi_cols.append(t.apply(vec))
    pair = CocyclePair(
        Cochain(2, Matrix.from_cols(psi_cols, m)),
        Cochain(1, Matrix.from_cols(chi_cols, m)),
    )
    assert rep_defect(ext.base, rep).is_empty
    assert mrb_rep_defect(ext.base, ext.base_op, rep).is_empty
    assert classify_cochain(ext.base, ext.base_op, rep, pair.as_cone()).cocycle
    return rep, pair


def extension_from_cocycle(
    alg: LeibnizAlgebra,
    ctx: OperatorContext,
    rep: Representation,
    pair: CocyclePair,
) -> ExtensionData:
    """The direct-sum model with bracket twisted by psi and operator by chi:

    [x+u, y+v] = [x,y] + rhoL(x)v + rhoR(y)u + psi(x,y),
    K(x+u) = K x + chi(x) + K_V u.

    Succeeds exactly when the pair is a 2-cocycle; otherwise raises
    NotACocycle carrying the validation report.
    """
    if not rep_defect(alg, rep).is_empty:
        raise NotMRBRepresentation("module fails the Leibniz module axioms")
    if not mrb_rep_defect(alg, ctx, rep).is_empty:
        raise NotMRBRepresentation("module fails the modified module law")
    d, m = alg.dim, rep.dim_v
    if pair.psi.values.rows != m or pair.psi.values.cols != d * d:
        raise DimensionMismatch("psi shape does not match base and fiber")
    if pair.chi.values.rows != m or pair.chi.values.cols != d:
        raise DimensionMismatch("chi shape does not match base and fiber")
    entries = _direct_sum_entries(alg, rep)
    entries.extend((i, j, d + a, c) for (i, j), a, c in cochain_entries(pair.psi, d))
    total = LeibnizAlgebra(d + m, entries)
    op_rows = [
        list(ctx.operator.row(i)) + [ZERO] * m for i in range(d)
    ]
    for a in range(m):
        op_rows.append(list(pair.chi.values.row(a)) + list(rep.k_v.row(a)))
    ext = ExtensionData(
        total=total,
        total_op=OperatorContext(Matrix(op_rows), ctx.weight),
        incl=canonical_injection(d, m),
        proj=canonical_projection(d, m),
        base=alg,
        base_op=ctx,
        fiber_op=rep.k_v,
    )
    report = validate_extension(ext)
    cocycle = classify_cochain(alg, ctx, rep, pair.as_cone()).cocycle
    assert report.is_empty == cocycle
    if not report.is_empty:
        raise NotACocycle(f"{len(report)} validation residuals", report)
    return ext


def _require_direct_sum_models(e1: ExtensionData, e2: ExtensionData):
    d, m = e1.base.dim, e1.fiber_dim
    if (e1.base, e1.base_op, e1.fiber_op) != (e2.base, e2.base_op, e2.fiber_op):
        raise NotAnExtension("extensions live over different base or fiber data")
    inj, proj = canonical_injection(d, m), canonical_projection(d, m)
    for e in (e1, e2):
        if e.incl != inj or e.proj != proj:
            raise NotAnExtension("iso construction expects direct-sum models")


def iso_from_gamma(
    e1: ExtensionData, e2: ExtensionData, gamma: Cochain
) -> Matrix:
    """The isomorphism e1 -> e2 induced by gamma when the extracted cocycles
    differ by its coboundary: cocycle(e1) = cocycle(e2) + (delta gamma, -phi gamma).

    Returns the block map (x, u) -> (x, gamma(x) + u); it commutes with the
    inclusions and projections and is verified to be a morphism of operator
    algebras.
    """
    _require_direct_sum_models(e1, e2)
    d, m = e1.base.dim, e1.fiber_dim
    if gamma.degree != 1 or gamma.values.rows != m or gamma.values.cols != d:
        raise DimensionMismatch("gamma must be a degree-1 cochain from base to fiber")
    section = canonical_section(d, m)
    rep1, c1 = extract_cocycle(e1, section)
    rep2, c2 = extract_cocycle(e2, section)
    assert rep1 == rep2
    delta_gamma = apply_delta(e1.base, rep1, gamma)
    phi_gamma = apply_phi(e1.base, e1.base_op, rep1, gamma)
    if c1.psi - c2.psi != delta_gamma or c1.chi - c2.chi != -phi_gamma:
        raise NotCohomologous("cocycle difference is not the coboundary of gamma")
    rows = [
        [Fraction(1) if j == i else ZERO for j in range(d + m)] for i in range(d)
    ]
    for a in range(m):
        rows.append(list(gamma.values.row(a)) + [Fraction(1) if j == a else ZERO for j in range(m)])
    zeta = Matrix(rows)
    assert morphism_defect(e1.total, e1.total_op, e2.total, e2.total_op, zeta).is_empty
    assert zeta @ e1.incl == e2.incl
    assert e2.proj @ zeta == e1.proj
    return zeta
