"""Representations of Leibniz and modified Rota-Baxter Leibniz algebras.

A representation bundles the two action families rho_left, rho_right (one
matrix per algebra basis vector) with an operator on the module.  Two
different weighted compatibility laws appear for the module operator:

* Rota-Baxter modules put the weight term inside the operator:
  ``rhoL(Tx) T_V v = T_V(rhoL(Tx) v + rhoL(x) T_V v + w rhoL(x) v)``
* modified Rota-Baxter modules put it outside:
  ``rhoL(Kx) K_V v = K_V(rhoL(Kx) v + rhoL(x) K_V v) + w rhoL(x) v``

Conflating the two is the classic implementation bug, so each law has its
own checker and the tests pin an instance on which they disagree.

``rep_defect`` holds every action matrix by its nonzeros and forms the
products of each pair of basis vectors from them, so its cost follows the
nonzero actions rather than dense dim_v x dim_v products.  Its report lists
the pairs (i, j) in lexicographic order and, for each pair, the sections
left-left, left-right, right-right and right-absorb.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Defect,
    DefectReport,
    LeibnizAlgebra,
    OperatorContext,
    _collect,
    _dense,
    leibniz_defect,
    mrb_defect,
    rb_defect,
    derived_algebra,
    rb_to_mrb,
)
from .errors import (
    DimensionMismatch,
    NotLeibniz,
    NotMRBRepresentation,
    NotModifiedRotaBaxter,
    NotRBRepresentation,
)
from .linalg import Matrix


@dataclass(frozen=True)
class Representation:
    """Module data (V, rho_left, rho_right, k_v) over an algebra."""

    dim_v: int
    rho_left: tuple[Matrix, ...]
    rho_right: tuple[Matrix, ...]
    k_v: Matrix

    def __post_init__(self):
        object.__setattr__(self, "rho_left", tuple(self.rho_left))
        object.__setattr__(self, "rho_right", tuple(self.rho_right))
        for m in (*self.rho_left, *self.rho_right, self.k_v):
            if m.rows != self.dim_v or m.cols != self.dim_v:
                raise DimensionMismatch("action matrices must be dim_v x dim_v")


def _combine(mats, vec, dim_v: int) -> Matrix:
    out = Matrix.zeros(dim_v, dim_v)
    for a, c in enumerate(vec):
        if c:
            out = out + mats[a].scale(c)
    return out


def _shape_check(alg: LeibnizAlgebra, rep: Representation):
    if len(rep.rho_left) != alg.dim or len(rep.rho_right) != alg.dim:
        raise DimensionMismatch(
            f"representation lists have length {len(rep.rho_left)}, algebra dim {alg.dim}"
        )


def _direct_sum_entries(alg: LeibnizAlgebra, rep: Representation) -> list:
    """Structure constants (i, j, k, c) of the bracket on g + V (V's basis
    after g's) with [x, v] = rhoL(x)v, [v, y] = rhoR(y)v and V abelian."""
    d = alg.dim
    entries = [(i, j, k, c) for (i, j, k), c in alg.entries]
    for i in range(d):
        for a, b, c in rep.rho_left[i].nonzeros():
            entries.append((i + 1, d + b + 1, d + a + 1, c))
        for a, b, c in rep.rho_right[i].nonzeros():
            entries.append((d + b + 1, i + 1, d + a + 1, c))
    return entries


def _matrix_defects(section, where, m: Matrix):
    """Flatten a residual matrix into one defect entry (row-major)."""
    return (section, where, tuple(e for row in range(m.rows) for e in m.row(row)))


def _rows_of(nz):
    """Nonzeros (row, column, value) grouped by row: row -> [(column, value)]."""
    rows = {}
    for r, c, v in nz:
        rows.setdefault(r, []).append((c, v))
    return rows


def _scaled_into(acc: dict, nz, c, n: int):
    """acc += c * M, with M given by its nonzeros and acc keyed as below."""
    for r, col, v in nz:
        pos = r * n + col
        acc[pos] = acc[pos] + c * v if pos in acc else c * v


def _product_into(acc: dict, a_nz, b_rows: dict, n: int, negate: bool = False):
    """acc += A @ B (or -= when ``negate``), with A given by its nonzeros,
    B by its rows of nonzeros, and acc keyed by the flat row-major position
    in an n x n matrix."""
    for r, m, x in a_nz:
        for c, y in b_rows.get(m, ()):
            p = -x * y if negate else x * y
            pos = r * n + c
            acc[pos] = acc[pos] + p if pos in acc else p


def rep_defect(alg: LeibnizAlgebra, rep: Representation) -> DefectReport:
    """Residuals of the three Leibniz module axioms on all basis pairs.

    Sections: "left-left", "left-right", "right-right", plus the derived
    diagnostic "right-absorb" (rhoR(y)(rhoL(x) + rhoR(x)) = 0), which is the
    difference of the last two axioms and pinpoints which pair fails.

    Every rho_L(i) and rho_R(i) is held by its nonzeros, so the products of
    each pair and the bracket terms cost what their nonzeros cost.  Entries
    come pair by pair in lexicographic (i, j) order, the four sections in
    the order above for each pair; each residual is the row-major flattening
    of a dim_v x dim_v matrix.
    """
    _shape_check(alg, rep)
    d, n = alg.dim, rep.dim_v
    left = [m.nonzeros() for m in rep.rho_left]
    right = [m.nonzeros() for m in rep.rho_right]
    left_rows = [_rows_of(nz) for nz in left]
    right_rows = [_rows_of(nz) for nz in right]
    brackets = {}
    for (i, j, t), c in alg.entries:
        brackets.setdefault((i - 1, j - 1), []).append((t - 1, c))
    entries = []
    for i in range(d):
        for j in range(d):
            ll = {}
            rb = {}
            for t, c in brackets.get((i, j), ()):
                _scaled_into(ll, left[t], c, n)
                _scaled_into(rb, right[t], c, n)
            _product_into(ll, left[i], left_rows[j], n, negate=True)
            _product_into(ll, left[j], left_rows[i], n)
            lr = dict(rb)
            _product_into(lr, left[i], right_rows[j], n, negate=True)
            _product_into(lr, right[j], left_rows[i], n)
            rr = dict(rb)
            _product_into(rr, left[i], right_rows[j], n, negate=True)
            _product_into(rr, right[j], right_rows[i], n, negate=True)
            ra = {}
            _product_into(ra, right[j], left_rows[i], n)
            _product_into(ra, right[j], right_rows[i], n)
            for section, acc in (
                ("left-left", ll), ("left-right", lr), ("right-right", rr), ("right-absorb", ra)
            ):
                if any(acc.values()):
                    entries.append(Defect(section, (i + 1, j + 1), _dense(acc, n * n)))
    return DefectReport(tuple(entries))


def mrb_rep_defect(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation
) -> DefectReport:
    """Residuals of the modified Rota-Baxter module law, per basis vector."""
    _shape_check(alg, rep)
    if ctx.operator.rows != alg.dim:
        raise DimensionMismatch("operator does not match algebra dimension")
    kv, w = rep.k_v, ctx.weight
    items = []
    for i in range(1, alg.dim + 1):
        kx = ctx.operator.column(i - 1)
        for section, mats in (("left", rep.rho_left), ("right", rep.rho_right)):
            rho_kx = _combine(mats, kx, rep.dim_v)
            rho_x = mats[i - 1]
            res = rho_kx @ kv - kv @ (rho_kx + rho_x @ kv) - rho_x.scale(w)
            items.append(_matrix_defects(section, (i,), res))
    return _collect(items)


def rb_rep_defect(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation
) -> DefectReport:
    """Residuals of the (plain) Rota-Baxter module law, weight term inside."""
    _shape_check(alg, rep)
    if ctx.operator.rows != alg.dim:
        raise DimensionMismatch("operator does not match algebra dimension")
    tv, w = rep.k_v, ctx.weight
    items = []
    for i in range(1, alg.dim + 1):
        tx = ctx.operator.column(i - 1)
        for section, mats in (("left", rep.rho_left), ("right", rep.rho_right)):
            rho_tx = _combine(mats, tx, rep.dim_v)
            rho_x = mats[i - 1]
            res = rho_tx @ tv - tv @ (rho_tx + rho_x @ tv + rho_x.scale(w))
            items.append(_matrix_defects(section, (i,), res))
    return _collect(items)


def regular_rep(
    alg: LeibnizAlgebra, ctx: OperatorContext | None = None
) -> Representation:
    """The algebra acting on itself by left and right bracket multiplication.

    The module operator is the algebra operator when a context is given,
    else zero (only Leibniz-level consumers may omit the context).
    """
    d = alg.dim
    kv = ctx.operator if ctx is not None else Matrix.zeros(d, d)
    return Representation(
        dim_v=d,
        rho_left=tuple(alg.left_mul(i) for i in range(1, d + 1)),
        rho_right=tuple(alg.right_mul(i) for i in range(1, d + 1)),
        k_v=kv,
    )


def rb_rep_to_mrb_rep(
    alg: LeibnizAlgebra, rb_ctx: OperatorContext, rep: Representation
) -> Representation:
    """Module transform matching the operator transform T -> 2T + w*id.

    The input operator slot holds T_V; the output holds 2 T_V + w*id and is
    a module over the transformed algebra of weight -w**2.
    """
    if not rb_rep_defect(alg, rb_ctx, rep).is_empty:
        raise NotRBRepresentation("input fails the Rota-Baxter module law")
    kv = rep.k_v.scale(2) + Matrix.identity(rep.dim_v).scale(rb_ctx.weight)
    out = Representation(rep.dim_v, rep.rho_left, rep.rho_right, kv)
    mrb_ctx = rb_to_mrb(alg, rb_ctx)
    assert mrb_rep_defect(alg, mrb_ctx, out).is_empty
    return out


def induced_rep(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation
) -> Representation:
    """The module over the derived algebra: rho_K(x) = rho(Kx) - K_V rho(x).

    Checked to be a genuine module over the derived bracket, and a modified
    Rota-Baxter module for the same operator and weight.
    """
    if not mrb_defect(alg, ctx).is_empty:
        raise NotModifiedRotaBaxter("operator fails the modified identity")
    if not mrb_rep_defect(alg, ctx, rep).is_empty:
        raise NotMRBRepresentation("module fails the modified module law")
    kv = rep.k_v
    left = []
    right = []
    for i in range(1, alg.dim + 1):
        kx = ctx.operator.column(i - 1)
        left.append(_combine(rep.rho_left, kx, rep.dim_v) - kv @ rep.rho_left[i - 1])
        right.append(_combine(rep.rho_right, kx, rep.dim_v) - kv @ rep.rho_right[i - 1])
    out = Representation(rep.dim_v, tuple(left), tuple(right), kv)
    derived = derived_algebra(alg, ctx)
    assert rep_defect(derived, out).is_empty
    assert mrb_rep_defect(derived, ctx, out).is_empty
    return out


def semidirect(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation
) -> tuple[LeibnizAlgebra, OperatorContext]:
    """Semidirect product on g + V with operator K + K_V, same weight.

    Basis order: algebra basis first, then module basis.  The mixed
    brackets are [x, v] = rhoL(x)v and [v, y] = rhoR(y)v; V is abelian.
    """
    if not leibniz_defect(alg).is_empty:
        raise NotLeibniz("base bracket fails the Leibniz identity")
    if not mrb_defect(alg, ctx).is_empty:
        raise NotModifiedRotaBaxter("operator fails the modified identity")
    if not rep_defect(alg, rep).is_empty:
        raise NotMRBRepresentation("module fails the Leibniz module axioms")
    if not mrb_rep_defect(alg, ctx, rep).is_empty:
        raise NotMRBRepresentation("module fails the modified module law")
    if rep.dim_v == 0:
        return alg, ctx
    total = LeibnizAlgebra(alg.dim + rep.dim_v, _direct_sum_entries(alg, rep))
    op = OperatorContext(Matrix.diag_blocks(ctx.operator, rep.k_v), ctx.weight)
    assert leibniz_defect(total).is_empty
    assert mrb_defect(total, op).is_empty
    return total, op
