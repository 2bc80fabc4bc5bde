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

Every module law is an identity on g + V.  ``_module_constants`` writes the
actions as constants of the bracket of g + V (V's basis after g's, V
abelian), the one encoding of a module, and each law is one call to the
bilinear core of ``mrbleib.algebra`` on arguments with exactly one in V:
the Leibniz identity (``rep_defect``), the operator identities of K + K_V
(``mrb_rep_defect``, ``rb_rep_defect``), compositions with K and K_V
(``induced_rep``).  Each residual at v_b is column b of a dim_v x dim_v
matrix, flattened row-major in the reports (``tests/reference.py`` keeps
the dense matrix products as oracles).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Defect,
    DefectReport,
    LeibnizAlgebra,
    OperatorContext,
    _apply_after,
    _compose,
    _constants,
    _dense,
    _leibniz_terms,
    _operator_residual,
    _rb_residual,
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
from .linalg import Matrix, ZERO


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


def _shape_check(alg: LeibnizAlgebra, rep: Representation):
    if len(rep.rho_left) != alg.dim or len(rep.rho_right) != alg.dim:
        raise DimensionMismatch(
            f"representation lists have length {len(rep.rho_left)}, algebra dim {alg.dim}"
        )


def _module_constants(d: int, rep: Representation):
    """The actions as core constants on g + V, 0-based with V's basis after
    g's: the left actions [x_i, v_b] = rhoL(x_i) v_b and the right actions
    [v_b, x_i] = rhoR(x_i) v_b, as two lists."""
    left = [(i, d + b, d + a, c) for i in range(d) for a, b, c in rep.rho_left[i].nonzeros()]
    right = [(d + b, i, d + a, c) for i in range(d) for a, b, c in rep.rho_right[i].nonzeros()]
    return left, right


def _direct_sum_entries(alg: LeibnizAlgebra, rep: Representation) -> list:
    """Structure constants (i, j, k, c), 1-based, of the bracket on g + V
    with [x, v] = rhoL(x)v, [v, y] = rhoR(y)v and V abelian."""
    left, right = _module_constants(alg.dim, rep)
    return [(a + 1, b + 1, t + 1, c) for a, b, t, c in _constants(alg) + left + right]


def _on_direct_sum(alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation):
    """The module constants and the operator K + K_V, after the shape checks."""
    _shape_check(alg, rep)
    if ctx.operator.rows != alg.dim:
        raise DimensionMismatch("operator does not match algebra dimension")
    left, right = _module_constants(alg.dim, rep)
    return left, right, Matrix.diag_blocks(ctx.operator, rep.k_v)


def _by_action(acc: dict, d: int, n: int):
    """Residuals at (x_i, v_b) and (v_b, x_i) of g + V, valued in V, as one
    (left, right) pair per i of sparse dim_v x dim_v matrices: each maps
    the row-major position of entry (a, b) to V-coordinate a at v_b."""
    out = [({}, {}) for _ in range(d)]
    for (x, y), res in acc.items():
        i, side, b = (x, 0, y - d) if x < d else (y, 1, x - d)
        for t, v in res.items():
            out[i][side][(t - d) * n + b] = v
    return out


def _action_report(acc: dict, d: int, n: int) -> DefectReport:
    return DefectReport(tuple(
        Defect(section, (i + 1,), _dense(res, n * n))
        for i, sides in enumerate(_by_action(acc, d, n))
        for section, res in zip(("left", "right"), sides)
        if any(res.values())
    ))


def rep_defect(alg: LeibnizAlgebra, rep: Representation) -> DefectReport:
    """Residuals of the three Leibniz module axioms on all basis pairs.

    Sections: "left-left", "left-right", "right-right", plus the derived
    diagnostic "right-absorb" (rhoR(y)(rhoL(x) + rhoR(x)) = 0), which is the
    difference of the last two axioms and pinpoints which pair fails.

    The axioms are minus the Leibniz identity of g + V at (x_i, y_j, v) and
    (x_i, v, y_j), and the identity at (v, x_i, y_j); only module constants
    are outer brackets, so no triple inside g is evaluated.  Entries come
    pair by pair in lexicographic (i, j) order, sections in the order above.
    """
    _shape_check(alg, rep)
    d, n = alg.dim, rep.dim_v
    left, right = _module_constants(d, rep)
    acc = {}
    _leibniz_terms(acc, left + right, _constants(alg) + left + right)
    pairs = {}
    for (x, y, z), res in acc.items():
        if z >= d:
            key, k, b = (x, y), 0, z - d
        elif y >= d:
            key, k, b = (x, z), 1, y - d
        else:
            key, k, b = (y, z), 2, x - d
        sections = pairs.setdefault(key, ({}, {}, {}, {}))
        absorb = sections[3]
        for t, v in res.items():
            pos = (t - d) * n + b
            sections[k][pos] = v if k == 2 else -v
            if k:  # right-absorb is left-right minus right-right
                absorb[pos] = absorb.get(pos, ZERO) - v
    return DefectReport(tuple(
        Defect(section, (i + 1, j + 1), _dense(res, n * n))
        for (i, j), sections in sorted(pairs.items())
        for section, res in zip(
            ("left-left", "left-right", "right-right", "right-absorb"), sections
        )
        if any(res.values())
    ))


def mrb_rep_defect(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation
) -> DefectReport:
    """Residuals of the modified Rota-Baxter module law, per basis vector:
    the modified identity of K + K_V on g + V at (x_i, v) ("left") and at
    (v, x_i) ("right")."""
    left, right, kk = _on_direct_sum(alg, ctx, rep)
    acc = _operator_residual([left + right], [kk], ctx.weight, 0)
    return _action_report(acc, alg.dim, rep.dim_v)


def rb_rep_defect(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation
) -> DefectReport:
    """Residuals of the (plain) Rota-Baxter module law, weight term inside:
    the Rota-Baxter identity of T + T_V on g + V, laid out as in
    ``mrb_rep_defect``."""
    left, right, kk = _on_direct_sum(alg, ctx, rep)
    acc = _rb_residual(left + right, kk, ctx.weight)
    return _action_report(acc, alg.dim, rep.dim_v)


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
    Rota-Baxter module for the same operator and weight.  Both are theorems
    when rep is a module, but rep's Leibniz module axioms are not checked
    up front, so a failure raises ``NotMRBRepresentation``.
    """
    if not mrb_defect(alg, ctx).is_empty:
        raise NotModifiedRotaBaxter("operator fails the modified identity")
    if not mrb_rep_defect(alg, ctx, rep).is_empty:
        raise NotMRBRepresentation("module fails the modified module law")
    out = _induced(alg, ctx, rep)
    derived = derived_algebra(alg, ctx)
    if not (rep_defect(derived, out).is_empty and mrb_rep_defect(derived, ctx, out).is_empty):
        raise NotMRBRepresentation("module fails the Leibniz module axioms")
    return out


def _induced(alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation) -> Representation:
    """The actions rho(Kx) - K_V rho(x), without the checks of ``induced_rep``:
    the left actions with K on their first argument, the right actions with
    K on their second, minus K_V after the plain actions."""
    left, right, kk = _on_direct_sum(alg, ctx, rep)
    acc = {}
    _compose(acc, left, ctx.operator, None)
    _compose(acc, right, None, ctx.operator)
    plain = {}
    _compose(plain, left + right)
    _apply_after(acc, kk, plain, negate=True)
    n = rep.dim_v
    mats = []
    for sides in _by_action(acc, alg.dim, n):
        for res in sides:
            rows = [{} for _ in range(n)]
            for pos, v in res.items():
                if v:
                    rows[pos // n][pos % n] = v
            mats.append(Matrix._sparse(rows, n))
    return Representation(n, mats[0::2], mats[1::2], rep.k_v)


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
