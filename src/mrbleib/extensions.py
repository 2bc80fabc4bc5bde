"""Abelian extensions of modified Rota-Baxter Leibniz algebras.

An abelian extension is a short exact sequence of operator algebras whose
kernel has vanishing bracket.  Extensions are stored with explicit
inclusion and projection matrices rather than assuming a direct-sum
splitting, so cocycle extraction genuinely exercises the section and
retraction algebra.  The cocycle (psi, chi) a section sees is a degree-2
``ConeCochain`` (psi its ``leib`` half, chi its ``op`` half).  The direct-sum
model built from a cocycle is the canonical output going the other way, and
the two directions are mutually inverse up to the isomorphisms built here.
The zero cocycle gives the split extension, whose total space is the
semidirect product (``semidirect``).

Every bracket is a composition on the bilinear core of ``mrbleib.algebra``:
the total bracket meets the inclusion and projection in
``validate_extension``, and the section, inclusion and retraction in
``extract_cocycle`` (``tests/reference.py`` keeps the evaluations on dense
vectors as oracles).

Extensions with one module are equivalent exactly when their cocycles
differ by a cone coboundary: ``cohomology.cone_preimage`` finds a witness,
``cohomology.fold_witness`` folds it into a cochain gamma, and
``iso_from_gamma`` checks the shear of gamma by the definition of an
equivalence, without extracting the cocycles again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    DefectReport,
    LeibnizAlgebra,
    OperatorContext,
    _apply_after,
    _collect,
    _compose,
    _constants,
    _dense,
    leibniz_defect,
    morphism_defect,
    mrb_defect,
)
from .cohomology import Cochain, ConeCochain, apply_cone, cochain_entries, zero_cone_cochain
from .errors import (
    DimensionMismatch,
    NotACocycle,
    NotAnExtension,
    NotASection,
    NotCohomologous,
    NotLeibniz,
    NotModifiedRotaBaxter,
    NotMRBRepresentation,
)
from .linalg import Matrix, rank, solve_right_inverse, solve_with_free_zero
from .representations import Representation, _module_constants, mrb_rep_defect, rep_defect


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
    fiber), projection-morphism, total-leibniz and total-mrb.  The bracket
    sections are compositions on the bilinear core; ideal-left at (t, b) is
    followed by ideal-right at (b, t).
    """
    d, m = ext.base.dim, ext.fiber_dim

    def renamed(section, entries):
        return [(section, e.where, e.residual) for e in entries]

    pi = ext.proj @ ext.incl
    items = [("exactness", (b + 1,), pi.column(b)) for b in range(m)]
    for f, full in ((ext.incl, m), (ext.proj, d)):
        items.append(("exactness", (), (Fraction(full - rank(f)),)))
    left_square = ext.total_op.operator @ ext.incl - ext.incl @ ext.fiber_op
    items += [("operator-diagram", (b + 1,), left_square.column(b)) for b in range(m)]
    # p is a morphism of operator algebras: its operator section is the
    # right square, its bracket section projection-morphism
    morphism = morphism_defect(ext.total, ext.total_op, ext.base, ext.base_op, ext.proj)
    items += renamed("operator-diagram", morphism.section("operator"))
    items.append(("operator-diagram", (), (ext.total_op.weight - ext.base_op.weight,)))
    mu = _constants(ext.total)
    fiber, into_left, into_right = {}, {}, {}
    incl = ext.incl._rows
    _compose(fiber, mu, incl, incl)
    items += [("abelian", (a + 1, b + 1), _dense(fiber[a, b], d + m)) for a, b in sorted(fiber)]
    for acc, left, right in ((into_left, None, incl), (into_right, incl, None)):
        raw = {}
        _compose(raw, mu, left, right)
        _apply_after(acc, ext.proj._rows, raw)
    for t, b in sorted({*into_left, *((t, b) for b, t in into_right)}):
        items.append(("ideal-left", (t + 1, b + 1), _dense(into_left.get((t, b), {}), d)))
        items.append(("ideal-right", (b + 1, t + 1), _dense(into_right.get((b, t), {}), d)))
    items += renamed("projection-morphism", morphism.section("bracket"))
    items += renamed("total-leibniz", leibniz_defect(ext.total).entries)
    items += renamed("total-mrb", mrb_defect(ext.total, ext.total_op).entries)
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
) -> tuple[Representation, ConeCochain]:
    """Read off the module structure and the 2-cocycle seen by a section.

    rhoL(x)v = t[s x, i v], rhoR(x)v = t[i v, s x],
    psi(x,y) = t([s x, s y] - s[x,y]), chi(x) = t(K s x - s K x).
    The module is checked to satisfy both module laws, and (psi, chi) is
    checked to be a cone cocycle; both are theorems for valid extensions.
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
    rep, cocycle = _read_off(ext, section, t)
    assert rep_defect(ext.base, rep).is_empty
    assert mrb_rep_defect(ext.base, ext.base_op, rep).is_empty
    assert apply_cone(ext.base, ext.base_op, rep, cocycle).is_zero()
    return rep, cocycle


def _read_off(
    ext: ExtensionData, section: Matrix, t: Matrix
) -> tuple[Representation, ConeCochain]:
    """The module and the cone cochain seen by a section s and a retraction
    t, without the checks of ``extract_cocycle``.  Since i t s = s - s p s = 0
    and i is injective, t s = 0: so psi(x,y) = t[s x, s y] and chi = t K s,
    and the actions t[s x, i v], t[i v, s x] and psi are compositions on the
    bilinear core."""
    d, m = ext.base.dim, ext.fiber_dim
    mu = _constants(ext.total)
    seen = []
    s, incl = section._rows, ext.incl._rows
    for left, right in ((s, incl), (incl, s), (s, s)):
        raw, acc = {}, {}
        _compose(raw, mu, left, right)
        _apply_after(acc, t._rows, raw)
        seen.append(acc)

    def cols(acc, keys):
        return Matrix.from_cols([_dense(acc.get(k, {}), m) for k in keys], m)

    rep = Representation(
        m,
        [cols(seen[0], [(x, b) for b in range(m)]) for x in range(d)],
        [cols(seen[1], [(b, x) for b in range(m)]) for x in range(d)],
        ext.fiber_op,
    )
    psi = cols(seen[2], [(x, y) for x in range(d) for y in range(d)])
    return rep, ConeCochain(Cochain(2, psi), Cochain(1, t @ ext.total_op.operator @ section))


def extension_from_cocycle(
    alg: LeibnizAlgebra,
    ctx: OperatorContext,
    rep: Representation,
    cocycle: ConeCochain,
) -> ExtensionData:
    """The direct-sum model with bracket twisted by psi and operator by chi,
    the halves of a degree-2 cone cochain (psi, chi):

    [x+u, y+v] = [x,y] + rhoL(x)v + rhoR(y)u + psi(x,y),
    K(x+u) = K x + chi(x) + K_V u.

    Succeeds exactly when (psi, chi) is a cone cocycle; otherwise raises
    NotACocycle carrying the validation report.  The module, the shapes and
    the base structure are checked first, in this order.
    """
    if not rep_defect(alg, rep).is_empty:
        raise NotMRBRepresentation("module fails the Leibniz module axioms")
    if not mrb_rep_defect(alg, ctx, rep).is_empty:
        raise NotMRBRepresentation("module fails the modified module law")
    d, m = alg.dim, rep.dim_v
    if cocycle.degree != 2:
        raise DimensionMismatch("cocycle must be a degree-2 cone cochain")
    psi, chi = cocycle.leib.values, cocycle.op.values
    if psi.rows != m or psi.cols != d * d:
        raise DimensionMismatch("psi shape does not match base and fiber")
    if chi.rows != m or chi.cols != d:
        raise DimensionMismatch("chi shape does not match base and fiber")
    if not leibniz_defect(alg).is_empty:
        raise NotLeibniz("base bracket fails the Leibniz identity")
    if not mrb_defect(alg, ctx).is_empty:
        raise NotModifiedRotaBaxter("operator fails the modified identity")
    left, right = _module_constants(d, rep)
    entries = [(a + 1, b + 1, t + 1, c) for a, b, t, c in _constants(alg) + left + right]
    entries.extend((i, j, d + a, c) for (i, j), a, c in cochain_entries(cocycle.leib, d))
    total = LeibnizAlgebra(d + m, entries)
    chi = Matrix.zeros(d, d).vstack(chi).hstack(Matrix.zeros(d + m, m))
    ext = ExtensionData(
        total=total,
        total_op=OperatorContext(Matrix.diag_blocks(ctx.operator, rep.k_v) + chi, ctx.weight),
        incl=canonical_injection(d, m),
        proj=canonical_projection(d, m),
        base=alg,
        base_op=ctx,
        fiber_op=rep.k_v,
    )
    report = validate_extension(ext)
    assert report.is_empty == apply_cone(alg, ctx, rep, cocycle).is_zero()
    if not report.is_empty:
        raise NotACocycle(f"{len(report)} validation residuals", report)
    return ext


def semidirect(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation
) -> tuple[LeibnizAlgebra, OperatorContext]:
    """Semidirect product on g + V with operator K + K_V, same weight: the
    total space of the split extension (the zero class), checked as every
    extension is; with dim V = 0, the algebra and operator given.  Basis
    order: g's, then V's; [x, v] = rhoL(x)v, [v, y] = rhoR(y)v, V abelian."""
    ext = extension_from_cocycle(alg, ctx, rep, zero_cone_cochain(rep.dim_v, alg.dim, 2))
    if rep.dim_v == 0:
        return alg, ctx
    return ext.total, ext.total_op


def iso_from_gamma(e1: ExtensionData, e2: ExtensionData, gamma: Cochain) -> Matrix:
    """The equivalence e1 -> e2 induced by gamma, zeta(x, u) = (x, gamma(x) + u).

    e1 and e2 must be direct-sum models over the same base and fiber data
    (else NotAnExtension), so zeta i1 = i2 and p2 zeta = p1 hold by
    construction, and zeta is an equivalence exactly when it is a morphism of
    operator algebras; that is checked by its definition (else
    NotCohomologous).  For such models it holds exactly when both induce the
    same module, which the brackets [x, v] and [v, x] force, and the cocycles
    differ by the coboundary of gamma: psi1 - psi2 = delta gamma by the
    brackets [x, y], chi1 - chi2 = K_V gamma - gamma K = -phi gamma by K.
    """
    d, m = e1.base.dim, e1.fiber_dim
    if (e1.base, e1.base_op, e1.fiber_op) != (e2.base, e2.base_op, e2.fiber_op):
        raise NotAnExtension("extensions live over different base or fiber data")
    inj, proj = canonical_injection(d, m), canonical_projection(d, m)
    if any(e.incl != inj or e.proj != proj for e in (e1, e2)):
        raise NotAnExtension("iso construction expects direct-sum models")
    if gamma.degree != 1 or gamma.values.rows != m or gamma.values.cols != d:
        raise DimensionMismatch("gamma must be a degree-1 cochain from base to fiber")
    shear = Matrix.zeros(d, d + m).vstack(gamma.values.hstack(Matrix.zeros(m, m)))
    zeta = Matrix.identity(d + m) + shear
    if not morphism_defect(e1.total, e1.total_op, e2.total, e2.total_op, zeta).is_empty:
        raise NotCohomologous("zeta is not a morphism: the modules or the classes differ")
    return zeta
