"""Truncated formal deformations of a modified Rota-Baxter Leibniz algebra.

A deformation deforms both the bracket and the operator as polynomials in
a formal parameter, truncated at a fixed order N.  The deformation
equations are compared order by order; at each order n the weight term
enters exactly once, against the order-n bracket coefficient, which is the
reading forced by the base case n = 0 (the defining operator identity).

The order-n equations are the Leibniz identity and the modified identity
expanded in the parameter (Gerstenhaber, Ann. Math. 79, 1964), so they are
computed by the sparse bilinear core of ``mrbleib.algebra``: the bracket
part is ``_leibniz_terms(mu_i, mu_j)`` summed over i + j = n, and the
operator part is ``_operator_residual`` at order n, whose order 0 is
``mrb_defect``.  Formal isomorphisms act through the same core: each
coefficient of the pulled-back bracket is a sum of compositions
inv_a o mu_b(psi_c x, psi_e y).  Cochains enter the core through
``cochain_entries`` and leave it through ``cochain_from_entries``, so the
cost follows the nonzero constants and matrix entries; ``tests/reference.py``
keeps the evaluation on every basis tuple as the oracle.

All cohomological bookkeeping (infinitesimals, gauge steps) happens in the
cone complex with regular coefficients.  ``gauge_step`` is the one gauge
path, and each check runs once: no helper re-checks what a theorem gives
(the order-1 residual is the cone differential, and a formal isomorphism
keeps the equations); the tests pin those theorems instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DefectReport,
    LeibnizAlgebra,
    OperatorContext,
    _apply_after,
    _compose,
    _leibniz_terms,
    _operator_residual,
    _report,
)
from .cohomology import (
    Cochain,
    ConeCochain,
    bracket_cochain,
    cochain_entries,
    cochain_from_entries,
    cone_preimage,
    fold_witness,
    operator_cochain,
    zero_cochain,
)
from .errors import DimensionMismatch, InvalidArgument, NotADeformation, OrderMismatch
from .linalg import ONE, Matrix
from .representations import regular_rep


@dataclass(frozen=True)
class TruncatedDeformation:
    """Bracket and operator coefficients mu_0..mu_N, K_0..K_N.

    mu_0 must be the base bracket as a degree-2 cochain and K_0 the base
    operator; orders above N are deliberately out of scope.
    """

    algebra: LeibnizAlgebra
    ctx: OperatorContext
    mu: tuple[Cochain, ...]
    kk: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(self.mu))
        object.__setattr__(self, "kk", tuple(self.kk))
        if len(self.mu) != len(self.kk) or not self.mu:
            raise DimensionMismatch("mu and kk must have equal positive length")
        d = self.algebra.dim
        for c in self.mu:
            if c.degree != 2 or c.values.rows != d or c.values.cols != d * d:
                raise DimensionMismatch("each mu_i must be a degree-2 cochain on the algebra")
        for k in self.kk:
            if k.rows != d or k.cols != d:
                raise DimensionMismatch("each K_i must be a d x d matrix")
        if self.mu[0] != bracket_cochain(self.algebra):
            raise DimensionMismatch("mu_0 must equal the base bracket")
        if self.kk[0] != self.ctx.operator:
            raise DimensionMismatch("K_0 must equal the base operator")

    @property
    def order(self) -> int:
        return len(self.mu) - 1

    @classmethod
    def trivial(
        cls, alg: LeibnizAlgebra, ctx: OperatorContext, order: int
    ) -> "TruncatedDeformation":
        d = alg.dim
        mu = (bracket_cochain(alg),) + tuple(
            zero_cochain(d, d, 2) for _ in range(order)
        )
        kk = (ctx.operator,) + tuple(Matrix.zeros(d, d) for _ in range(order))
        return cls(alg, ctx, mu, kk)

    def with_order_one(self, mu1: Cochain, k1: Matrix) -> "TruncatedDeformation":
        """Replace the order-1 coefficients (order must be >= 1)."""
        if self.order < 1:
            raise OrderMismatch("deformation has no order-1 slot")
        mu = (self.mu[0], mu1) + self.mu[2:]
        kk = (self.kk[0], k1) + self.kk[2:]
        return TruncatedDeformation(self.algebra, self.ctx, mu, kk)


def _cochain_constants(c: Cochain, d: int):
    """A degree-2 cochain as the constants (a, b, t, c), 0-based, of the
    bilinear core in ``mrbleib.algebra``."""
    return [(i - 1, j - 1, t - 1, v) for (i, j), t, v in cochain_entries(c, d)]


def deformation_residuals(
    dfm: TruncatedDeformation, through: int | None = None
) -> tuple[DefectReport, ...]:
    """Order-by-order residuals of the two deformation equations, at the
    orders 0..through (all orders by default).

    Order n, bracket part (basis triples x,y,z):
      sum_{i+j=n} mu_i(x, mu_j(y,z)) - mu_i(mu_j(x,y), z) - mu_i(y, mu_j(x,z))
    Order n, operator part (basis pairs x,y):
      sum_{i+j+k=n} mu_i(K_j x, K_k y)
      - sum_{i+j+k=n} K_i(mu_j(K_k x, y) + mu_j(x, K_k y))
      - weight * mu_n(x, y).
    """
    d = dfm.algebra.dim
    last = dfm.order if through is None else min(through, dfm.order)
    mus = [_cochain_constants(mu, d) for mu in dfm.mu[: last + 1]]
    ks = [k._rows for k in dfm.kk[: last + 1]]
    reports = []
    for n in range(last + 1):
        leib = {}
        for i in range(n + 1):
            _leibniz_terms(leib, mus[i], mus[n - i])
        op = _operator_residual(mus, ks, dfm.ctx.weight, n)
        reports.append(_report(("leibniz", leib, d), ("operator", op, d)))
    return tuple(reports)


def is_residual_free(dfm: TruncatedDeformation, through_order: int | None = None) -> bool:
    return all(r.is_empty for r in deformation_residuals(dfm, through_order))


def infinitesimal(dfm: TruncatedDeformation) -> ConeCochain:
    """The pair (mu_1, K_1) as a degree-2 cone cochain.  It requires order
    >= 1 and the equations through order 1, so it is a cocycle: the order-1
    residual is its cone differential."""
    if dfm.order < 1:
        raise InvalidArgument("order >= 1 required for an infinitesimal")
    if not is_residual_free(dfm, 1):
        raise NotADeformation("deformation equations fail at order <= 1")
    return ConeCochain(dfm.mu[1], operator_cochain(dfm.kk[1]))


@dataclass(frozen=True)
class FormalIso:
    """Coefficients psi_0..psi_N of an invertible formal map; psi_0 = id."""

    psi: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "psi", tuple(self.psi))
        if not self.psi:
            raise DimensionMismatch("formal isomorphism needs at least psi_0")
        d = self.psi[0].rows
        if self.psi[0] != Matrix.identity(d):
            raise DimensionMismatch("psi_0 must be the identity")
        for p in self.psi:
            if p.rows != d or p.cols != d:
                raise DimensionMismatch("all psi_i must be d x d")

    @property
    def order(self) -> int:
        return len(self.psi) - 1

    def inverse_coefficients(self) -> tuple[Matrix, ...]:
        """Neumann-series coefficients of psi_t^{-1} modulo t^{N+1}."""
        d = self.psi[0].rows
        inv = [Matrix.identity(d)]
        for n in range(1, len(self.psi)):
            acc = Matrix.zeros(d, d)
            for a in range(1, n + 1):
                acc = acc + self.psi[a] @ inv[n - a]
            inv.append(-acc)
        return tuple(inv)


def _check_iso(iso: FormalIso, d: int):
    if iso.psi[0].rows != d:
        raise DimensionMismatch(f"iso is {iso.psi[0].rows}x{iso.psi[0].rows}, algebra dim {d}")


def apply_formal_iso(
    dfm: TruncatedDeformation, iso: FormalIso
) -> TruncatedDeformation:
    """Pull the deformation back through the iso, modulo t^(N+1).

    The result D' satisfies psi_t o mu'_t = mu_t o (psi_t x psi_t) and
    psi_t o K'_t = K_t o psi_t, i.e. the iso maps D' to D.  Residual
    freeness is preserved.
    """
    if iso.order != dfm.order:
        raise OrderMismatch(
            f"iso order {iso.order} differs from deformation order {dfm.order}"
        )
    d = dfm.algebra.dim
    _check_iso(iso, d)
    inv = iso.inverse_coefficients()
    psi = iso.psi
    rows = [p._rows for p in psi]
    mus = [_cochain_constants(mu, d) for mu in dfm.mu]
    new_mu = []
    new_kk = []
    for n in range(dfm.order + 1):
        # mu'_n = sum_{a+b+c+e=n} inv_a o mu_b(psi_c x, psi_e y)
        acc = {}
        for a in range(n + 1):
            mid = {}
            for b in range(n + 1 - a):
                for c in range(n + 1 - a - b):
                    _compose(mid, mus[b], rows[c], rows[n - a - b - c])
            _apply_after(acc, inv[a]._rows, mid)
        new_mu.append(cochain_from_entries(d, d, 2, (
            ((i + 1, j + 1), t + 1, v) for (i, j), res in acc.items() for t, v in res.items()
        )))
        k_val = Matrix.zeros(d, d)
        for a in range(n + 1):
            for b in range(n + 1 - a):
                c = n - a - b
                k_val = k_val + inv[a] @ dfm.kk[b] @ psi[c]
        new_kk.append(k_val)
    return TruncatedDeformation(dfm.algebra, dfm.ctx, tuple(new_mu), tuple(new_kk))


def equivalence_residuals(
    d1: TruncatedDeformation, d2: TruncatedDeformation, iso: FormalIso
) -> tuple[DefectReport, ...]:
    """Order-by-order residuals of the equivalence equations for iso: D2 -> D1,
    i.e. psi_t o mu_{2,t} = mu_{1,t} o (psi_t x psi_t) and
    psi_t o K_{2,t} = K_{1,t} o psi_t."""
    if d1.order != d2.order or iso.order != d1.order:
        raise OrderMismatch("deformations and iso must share one truncation order")
    d = d1.algebra.dim
    if d2.algebra.dim != d:
        raise DimensionMismatch(f"deformations have dims {d} and {d2.algebra.dim}")
    _check_iso(iso, d)
    psi = iso.psi
    rows = [p._rows for p in psi]
    mus1 = [_cochain_constants(mu, d) for mu in d1.mu]
    mus2 = [_cochain_constants(mu, d) for mu in d2.mu]
    reports = []
    for n in range(d1.order + 1):
        bracket = {}
        for a in range(n + 1):
            mid = {}
            _compose(mid, mus2[n - a])
            _apply_after(bracket, rows[a], mid)
            for b in range(n + 1 - a):
                _compose(bracket, mus1[a], rows[b], rows[n - a - b], -ONE)
        lhs_k = Matrix.zeros(d, d)
        rhs_k = Matrix.zeros(d, d)
        for a in range(n + 1):
            lhs_k = lhs_k + psi[a] @ d2.kk[n - a]
            rhs_k = rhs_k + d1.kk[a] @ psi[n - a]
        op = {}
        for r, i, v in (lhs_k - rhs_k).nonzeros():
            op.setdefault((i,), {})[r] = v
        reports.append(_report(("bracket", bracket, d), ("operator", op, d)))
    return tuple(reports)


def gauge_step(dfm: TruncatedDeformation) -> TruncatedDeformation | None:
    """Kill the order-1 coefficients, or None when the infinitesimal is not
    a coboundary.

    The canonical witness (psi_1', x) of the infinitesimal, d(psi_1', x) =
    (mu_1, K_1), folds to psi_1 = psi_1' + delta(x) (see ``fold_witness``);
    the gauge psi_t = id - psi_1 t then produces a deformation with
    mu'_1 = 0 and K'_1 = 0 exactly, leaving higher orders alone.
    """
    cone = infinitesimal(dfm)
    rep = regular_rep(dfm.algebra, dfm.ctx)
    witness = cone_preimage(dfm.algebra, dfm.ctx, rep, cone)
    if witness is None:
        return None
    psi1 = fold_witness(dfm.algebra, rep, witness).values
    d = dfm.algebra.dim
    psis = [Matrix.identity(d), -psi1] + [Matrix.zeros(d, d)] * (dfm.order - 1)
    return apply_formal_iso(dfm, FormalIso(tuple(psis)))
