"""Reference implementations the package is checked against.

``fraction_rref`` is plain Gauss-Jordan elimination on ``Fraction`` entries,
the oracle for the integer elimination kernel of ``mrbleib._kernels_py``.

``mrb_defect`` and ``rep_defect`` evaluate each axiom on every basis pair
with dense vectors and matrices, the oracle for the sparse checkers of
``mrbleib.algebra`` and ``mrbleib.representations``.  ``mrb_rep_defect``,
``rb_rep_defect`` and ``induced_rep`` (the formula only, without the
package's checks) do the same for the module laws and the induced module,
by dense sums and products of action matrices (``_combine``,
``_matrix_defects``).  ``validate_extension`` and ``read_off`` evaluate the
total bracket of an extension on dense basis, inclusion, section and
projection vectors: the oracles for ``mrbleib.extensions``, which composes
them on the bilinear core.

``rb_defect``, ``derived_algebra`` and ``morphism_defect`` evaluate the
bracket on dense coordinate vectors at every basis pair, and
``deformation_residuals``, ``apply_formal_iso`` and
``equivalence_residuals`` evaluate each coefficient cochain on every basis
tuple or multiply it by dense Kronecker products: the oracles for the sparse
bilinear core of ``mrbleib.algebra`` and ``mrbleib.deformation``.

``grid_search_operators`` enumerates every candidate matrix of a grid
search and keeps those that ``mrb_defect`` passes, the oracle for the
compiled depth-first search of ``mrbleib.algebra``.

``apply_delta`` and ``apply_phi`` evaluate the defining formulas of delta
and Phi on one cochain, column by column.  The package writes each formula
only once, as row blocks of sparse terms that both its matrices and its
evaluators consume; the differential matrices here are built by basis
evaluation instead: column by column, evaluating these formulas on every
basis cochain and flattening the image.  This is slow, but it shares no
code with the package, so it is the oracle the matrices and evaluators of
``mrbleib.cohomology`` are compared against.
"""

import itertools
from fractions import Fraction

from mrbleib import algebra
from mrbleib.algebra import (
    DefectReport,
    LeibnizAlgebra,
    OperatorContext,
    _basis,
    _check_dims,
    _collect,
)
from mrbleib.cohomology import (
    Cochain,
    ConeCochain,
    cochain_to_vec,
    operator_complex_pair,
    phi_weight,
)
from mrbleib.deformation import TruncatedDeformation
from mrbleib.errors import DimensionMismatch, NotLeibniz, NotModifiedRotaBaxter, OrderMismatch
from mrbleib.linalg import ONE, ZERO, Matrix, flat_index, rank, vec_is_zero, vec_sub
from mrbleib.representations import Representation, _shape_check


def _combine(mats, vec, dim_v):
    out = Matrix.zeros(dim_v, dim_v)
    for a, c in enumerate(vec):
        if c:
            out = out + mats[a].scale(c)
    return out


def _matrix_defects(section, where, m):
    """Flatten a residual matrix into one defect entry (row-major)."""
    return (section, where, tuple(e for row in range(m.rows) for e in m.row(row)))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(s, u):
    return tuple(s * a for a in u)


def kron(a, b):
    """Kronecker product; row (i*b.rows + k), column (j*b.cols + l)."""
    return Matrix([
        [a[i, j] * b[k, l] for j in range(a.cols) for l in range(b.cols)]
        for i in range(a.rows)
        for k in range(b.rows)
    ])


def fraction_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions.

    Same contract as ``mrbleib._kernels_py.rref``: ``(reduced_rows,
    pivot_cols)`` with pivot rows first in pivot order and zero rows last.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    mat = [list(row) for row in rows]
    pivots = []
    pr = 0
    for pc in range(n):
        best = -1
        best_key = None
        for r in range(pr, m):
            e = mat[r][pc]
            if e:
                key = abs(e.numerator)
                if best < 0 or key < best_key:
                    best, best_key = r, key
        if best < 0:
            continue
        if best != pr:
            mat[pr], mat[best] = mat[best], mat[pr]
        prow = mat[pr]
        piv = prow[pc]
        if piv != ONE:
            inv = ONE / piv
            for c in range(pc, n):
                if prow[c]:
                    prow[c] *= inv
        for r in range(m):
            if r == pr:
                continue
            f = mat[r][pc]
            if f:
                row = mat[r]
                for c in range(pc, n):
                    if prow[c]:
                        row[c] -= f * prow[c]
        pivots.append(pc)
        pr += 1
        if pr == m:
            break
    return mat, pivots


def _columns(c):
    vals = c.values
    return [vals.column(m) for m in range(vals.cols)]


def apply_delta(alg, rep, f):
    """The Loday-Pirashvili coboundary of f, degree n -> n + 1.

    (delta f)(x_1..x_{n+1}) =
        sum_{i<=n} (-1)^(i+1) rhoL(x_i) f(..no x_i..)
      + (-1)^(n+1) rhoR(x_{n+1}) f(x_1..x_n)
      + sum_{i<j} (-1)^i f(..no x_i.., [x_i,x_j] in slot j-1, ..).

    At n = 0 only the middle term survives: (delta v)(x) = -rhoR(x) v.
    """
    n = f.degree
    d = alg.dim
    dim_v = rep.dim_v
    fcols = _columns(f)
    out = []
    sign_mid = ONE if n % 2 else -ONE  # (-1)^(n+1)
    for y in itertools.product(range(1, d + 1), repeat=n + 1):
        acc = [ZERO] * dim_v
        for i in range(1, n + 1):
            col = fcols[flat_index(y[: i - 1] + y[i:], d)]
            if not vec_is_zero(col):
                image = rep.rho_left[y[i - 1] - 1].apply(col)
                if i % 2:
                    acc = [a + b for a, b in zip(acc, image)]
                else:
                    acc = [a - b for a, b in zip(acc, image)]
        col = fcols[flat_index(y[:n], d)]
        if not vec_is_zero(col):
            image = rep.rho_right[y[n] - 1].apply(col)
            acc = [a + sign_mid * b for a, b in zip(acc, image)]
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                bracket = alg.bracket_basis(y[i - 1], y[j - 1])
                if vec_is_zero(bracket):
                    continue
                base = list(y[: i - 1] + y[i:])
                sign = -ONE if i % 2 else ONE
                for k, c in enumerate(bracket):
                    if c:
                        base[j - 2] = k + 1
                        col = fcols[flat_index(base, d)]
                        if not vec_is_zero(col):
                            s = sign * c
                            acc = [a + s * b for a, b in zip(acc, col)]
        out.append(tuple(acc))
    return Cochain(n + 1, Matrix.from_cols(out, dim_v))


def apply_phi(alg, ctx, rep, f):
    """The comparison map into the operator complex, degree preserved.

    Phi(f)(y) sums, over the slot subsets S with a nonzero weight w(|S|),
    w(|S|) * f(a) with a_i = y_i on S and a_i = K y_i off S, post-composed
    with K_V when |S| is odd (``mrbleib.cohomology.PHI_CONVENTION``).
    Degree 0 is the identity.
    """
    n = f.degree
    if n == 0:
        return f
    d = alg.dim
    dim_v = rep.dim_v
    k = ctx.operator
    kv = rep.k_v
    fcols = _columns(f)
    knz = [
        [(r + 1, k[r, j]) for r in range(d) if k[r, j]]
        for j in range(d)
    ]
    weights = [phi_weight(r, ctx.weight) for r in range(n + 1)]
    out = []
    for y in itertools.product(range(1, d + 1), repeat=n):
        acc = [ZERO] * dim_v
        for mask in range(1 << n):
            r = bin(mask).count("1")
            w = weights[r]
            if not w:
                continue
            choices = []
            dead = False
            for slot in range(n):
                if mask >> slot & 1:
                    choices.append(((y[slot], ONE),))
                else:
                    opts = knz[y[slot] - 1]
                    if not opts:
                        dead = True
                        break
                    choices.append(tuple(opts))
            if dead:
                continue
            term = [ZERO] * dim_v
            hit = False
            for combo in itertools.product(*choices):
                coeff = ONE
                pos = 0
                for idx, val in combo:
                    coeff *= val
                    pos = pos * d + (idx - 1)
                col = fcols[pos]
                if not vec_is_zero(col):
                    hit = True
                    term = [a + coeff * b for a, b in zip(term, col)]
            if not hit:
                continue
            if r % 2:
                term = kv.apply(term)
            acc = [a + w * b for a, b in zip(acc, term)]
        out.append(tuple(acc))
    return Cochain(n, Matrix.from_cols(out, dim_v))


def basis_cochains(dim_v, alg_dim, degree):
    """Yield the basis cochains in flat vector order."""
    cols = alg_dim ** degree
    for m in range(cols):
        for v in range(dim_v):
            grid = [[ZERO] * cols for _ in range(dim_v)]
            grid[v][m] = ONE
            yield Cochain(degree, Matrix(grid))


def matrix_of(op, dim_v, alg_dim, degree):
    """The matrix of a cochain operation, by evaluation on basis cochains."""
    cols = [cochain_to_vec(op(c)) for c in basis_cochains(dim_v, alg_dim, degree)]
    out_rows = len(cols[0]) if cols else 0
    return Matrix.from_cols(cols, out_rows)


def delta_matrix(alg, rep, n):
    return matrix_of(lambda c: apply_delta(alg, rep, c), rep.dim_v, alg.dim, n)


def partial_matrix(alg, ctx, rep, n):
    derived, ind = operator_complex_pair(alg, ctx, rep)
    return delta_matrix(derived, ind, n)


def phi_matrix(alg, ctx, rep, n):
    if n == 0:
        return Matrix.identity(rep.dim_v)
    return matrix_of(lambda c: apply_phi(alg, ctx, rep, c), rep.dim_v, alg.dim, n)


def cone_differential(alg, ctx, rep, n):
    """Block matrix [[delta_n, 0], [-phi_n, -partial_{n-1}]] from the blocks."""
    top = delta_matrix(alg, rep, n)
    if n == 0:
        return top.vstack(-phi_matrix(alg, ctx, rep, 0))
    partial_prev = partial_matrix(alg, ctx, rep, n - 1)
    top = top.hstack(Matrix.zeros(top.rows, partial_prev.cols))
    bottom = (-phi_matrix(alg, ctx, rep, n)).hstack(-partial_prev)
    return top.vstack(bottom)


def mrb_defect(alg, ctx) -> DefectReport:
    """Residuals of [Kx,Ky] - K([Kx,y] + [x,Ky]) - w[x,y] on all basis pairs."""
    _check_dims(alg, ctx)
    k, w = ctx.operator, ctx.weight
    d = alg.dim
    kcols = [k.column(j) for j in range(d)]
    items = []
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            ki, kj = kcols[i - 1], kcols[j - 1]
            lhs = alg.bracket(ki, kj)
            mid = vec_add(alg.bracket(ki, _basis(d, j)), alg.bracket(_basis(d, i), kj))
            res = vec_sub(vec_sub(lhs, k.apply(mid)), vec_scale(w, alg.bracket_basis(i, j)))
            items.append(("mrb", (i, j), res))
    return _collect(items)


def rep_defect(alg, rep) -> DefectReport:
    """Residuals of the Leibniz module axioms on all basis pairs, by dense
    matrix products, in the sections left-left, left-right, right-right and
    right-absorb for each pair."""
    _shape_check(alg, rep)
    d = alg.dim
    items = []
    for i in range(1, d + 1):
        li = rep.rho_left[i - 1]
        ri = rep.rho_right[i - 1]
        for j in range(1, d + 1):
            lj = rep.rho_left[j - 1]
            rj = rep.rho_right[j - 1]
            bracket = alg.bracket_basis(i, j)
            lb = _combine(rep.rho_left, bracket, rep.dim_v)
            rb = _combine(rep.rho_right, bracket, rep.dim_v)
            items.append(_matrix_defects("left-left", (i, j), lb - (li @ lj - lj @ li)))
            items.append(_matrix_defects("left-right", (i, j), rb - (li @ rj - rj @ li)))
            items.append(_matrix_defects("right-right", (i, j), rb - (li @ rj + rj @ ri)))
            items.append(_matrix_defects("right-absorb", (i, j), rj @ (li + ri)))
    return _collect(items)


def mrb_rep_defect(alg, ctx, rep) -> DefectReport:
    """Residuals of the modified Rota-Baxter module law for each basis
    vector, "left" then "right", by dense matrix products."""
    return _module_law(alg, ctx, rep, lambda rho_kx, rho_x, kv, w: (
        rho_kx @ kv - kv @ (rho_kx + rho_x @ kv) - rho_x.scale(w)
    ))


def rb_rep_defect(alg, ctx, rep) -> DefectReport:
    """Residuals of the Rota-Baxter module law, weight term inside."""
    return _module_law(alg, ctx, rep, lambda rho_tx, rho_x, tv, w: (
        rho_tx @ tv - tv @ (rho_tx + rho_x @ tv + rho_x.scale(w))
    ))


def _module_law(alg, ctx, rep, law):
    _shape_check(alg, rep)
    if ctx.operator.rows != alg.dim:
        raise DimensionMismatch("operator does not match algebra dimension")
    items = []
    for i in range(1, alg.dim + 1):
        kx = ctx.operator.column(i - 1)
        for section, mats in (("left", rep.rho_left), ("right", rep.rho_right)):
            res = law(_combine(mats, kx, rep.dim_v), mats[i - 1], rep.k_v, ctx.weight)
            items.append(_matrix_defects(section, (i,), res))
    return _collect(items)


def induced_rep(alg, ctx, rep):
    """The actions rho(Kx) - K_V rho(x) by dense matrix sums, without the
    checks of the package's ``induced_rep``."""
    kv = rep.k_v
    left = []
    right = []
    for i in range(1, alg.dim + 1):
        kx = ctx.operator.column(i - 1)
        left.append(_combine(rep.rho_left, kx, rep.dim_v) - kv @ rep.rho_left[i - 1])
        right.append(_combine(rep.rho_right, kx, rep.dim_v) - kv @ rep.rho_right[i - 1])
    return Representation(rep.dim_v, tuple(left), tuple(right), kv)


def grid_search_operators(alg, weight, grid, mask=None):
    """Every matrix with entries from ``grid`` (``mask`` entries pinned) that
    passes ``mrb_defect``, the free entries enumerated in row-major order,
    each over the grid in the order given."""
    d = alg.dim
    mask = mask or {}
    free = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1) if (i, j) not in mask]
    solutions = []
    for values in itertools.product(grid, repeat=len(free)):
        entries = dict(mask)
        entries.update(zip(free, values))
        candidate = Matrix(
            [[entries[(i, j)] for j in range(1, d + 1)] for i in range(1, d + 1)]
        )
        if algebra.mrb_defect(alg, OperatorContext(candidate, weight)).is_empty:
            solutions.append(candidate)
    return solutions


def rb_defect(alg, ctx) -> DefectReport:
    """Residuals of [Tx,Ty] - T([Tx,y] + [x,Ty] + w[x,y]) on all basis pairs."""
    _check_dims(alg, ctx)
    t, w = ctx.operator, ctx.weight
    d = alg.dim
    tcols = [t.column(j) for j in range(d)]
    items = []
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            ti, tj = tcols[i - 1], tcols[j - 1]
            lhs = alg.bracket(ti, tj)
            mid = vec_add(alg.bracket(ti, _basis(d, j)), alg.bracket(_basis(d, i), tj))
            mid = vec_add(mid, vec_scale(w, alg.bracket_basis(i, j)))
            items.append(("rb", (i, j), vec_sub(lhs, t.apply(mid))))
    return _collect(items)


def derived_algebra(alg, ctx):
    """The bracket [Kx,y] + [x,Ky] on every basis pair, after the same
    checks as the package (``NotLeibniz``, ``NotModifiedRotaBaxter``)."""
    if not algebra.leibniz_defect(alg).is_empty:
        raise NotLeibniz("base bracket fails the Leibniz identity")
    if not mrb_defect(alg, ctx).is_empty:
        raise NotModifiedRotaBaxter("operator fails the modified identity")
    d = alg.dim
    k = ctx.operator
    entries = []
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            vec = vec_add(
                alg.bracket(k.column(i - 1), _basis(d, j)),
                alg.bracket(_basis(d, i), k.column(j - 1)),
            )
            for t, c in enumerate(vec):
                if c:
                    entries.append((i, j, t + 1, c))
    return LeibnizAlgebra(d, entries)


def morphism_defect(alg1, ctx1, alg2, ctx2, phi) -> DefectReport:
    """Residuals of phi[x,y] - [phi x, phi y] and phi K - K' phi."""
    if phi.cols != alg1.dim or phi.rows != alg2.dim:
        raise DimensionMismatch("morphism matrix shape")
    _check_dims(alg1, ctx1)
    _check_dims(alg2, ctx2)
    items = []
    d = alg1.dim
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            lhs = phi.apply(alg1.bracket_basis(i, j))
            rhs = alg2.bracket(phi.column(i - 1), phi.column(j - 1))
            items.append(("bracket", (i, j), vec_sub(lhs, rhs)))
    diff = phi @ ctx1.operator - ctx2.operator @ phi
    for i in range(1, d + 1):
        items.append(("operator", (i,), diff.column(i - 1)))
    return _collect(items)


def _ev2(c, d, u, v):
    """Evaluate a degree-2 cochain on two coordinate vectors."""
    vals = c.values
    out = [ZERO] * vals.rows
    for a, ua in enumerate(u):
        for b, vb in enumerate(v):
            if ua and vb:
                col = vals.column(a * d + b)
                out = [o + ua * vb * e for o, e in zip(out, col)]
    return tuple(out)


def deformation_residuals(dfm):
    """Both deformation equations at every order, on every basis tuple."""
    d = dfm.algebra.dim
    weight = dfm.ctx.weight
    kcols = [[k.column(j) for j in range(d)] for k in dfm.kk]
    reports = []
    for n in range(dfm.order + 1):
        items = []
        for a, b, c in itertools.product(range(1, d + 1), repeat=3):
            x, y, z = _basis(d, a), _basis(d, b), _basis(d, c)
            res = (ZERO,) * d
            for i in range(n + 1):
                mi, mj = dfm.mu[i], dfm.mu[n - i]
                term = _ev2(mi, d, x, _ev2(mj, d, y, z))
                term = vec_sub(term, _ev2(mi, d, _ev2(mj, d, x, y), z))
                term = vec_sub(term, _ev2(mi, d, y, _ev2(mj, d, x, z)))
                res = vec_add(res, term)
            items.append(("leibniz", (a, b, c), res))
        for a, b in itertools.product(range(1, d + 1), repeat=2):
            x, y = _basis(d, a), _basis(d, b)
            res = (ZERO,) * d
            for i in range(n + 1):
                for j in range(n + 1 - i):
                    k = n - i - j
                    res = vec_add(res, _ev2(dfm.mu[i], d, kcols[j][a - 1], kcols[k][b - 1]))
                    inner = vec_add(
                        _ev2(dfm.mu[j], d, kcols[k][a - 1], y),
                        _ev2(dfm.mu[j], d, x, kcols[k][b - 1]),
                    )
                    res = vec_sub(res, dfm.kk[i].apply(inner))
            res = vec_sub(res, vec_scale(weight, _ev2(dfm.mu[n], d, x, y)))
            items.append(("operator", (a, b), res))
        reports.append(_collect(items))
    return tuple(reports)


def apply_formal_iso(dfm, iso):
    """mu'_n = sum inv_a mu_b (psi_c x psi_e) and K'_n = sum inv_a K_b psi_c,
    by dense matrix products."""
    if iso.order != dfm.order:
        raise OrderMismatch("iso order differs from deformation order")
    d = dfm.algebra.dim
    inv = iso.inverse_coefficients()
    new_mu = []
    new_kk = []
    for n in range(dfm.order + 1):
        mu_vals = Matrix.zeros(d, d * d)
        k_val = Matrix.zeros(d, d)
        for a, b, c in itertools.product(range(n + 1), repeat=3):
            e = n - a - b - c
            if e == 0:
                k_val = k_val + inv[a] @ dfm.kk[b] @ iso.psi[c]
            if e >= 0:
                mu_vals = mu_vals + inv[a] @ dfm.mu[b].values @ kron(iso.psi[c], iso.psi[e])
        new_mu.append(Cochain(2, mu_vals))
        new_kk.append(k_val)
    return TruncatedDeformation(dfm.algebra, dfm.ctx, tuple(new_mu), tuple(new_kk))


def equivalence_residuals(d1, d2, iso):
    """The equivalence equations for iso: D2 -> D1 at every order, by dense
    matrix products, read off column by column."""
    if d1.order != d2.order or iso.order != d1.order:
        raise OrderMismatch("deformations and iso must share one truncation order")
    d = d1.algebra.dim
    reports = []
    for n in range(d1.order + 1):
        items = []
        diff = Matrix.zeros(d, d * d)
        diffk = Matrix.zeros(d, d)
        for a in range(n + 1):
            diff = diff + iso.psi[a] @ d2.mu[n - a].values
            diffk = diffk + iso.psi[a] @ d2.kk[n - a] - d1.kk[a] @ iso.psi[n - a]
            for b in range(n + 1 - a):
                diff = diff - d1.mu[a].values @ kron(iso.psi[b], iso.psi[n - a - b])
        for i, j in itertools.product(range(1, d + 1), repeat=2):
            items.append(("bracket", (i, j), diff.column(flat_index((i, j), d))))
        for i in range(1, d + 1):
            items.append(("operator", (i,), diffk.column(i - 1)))
        reports.append(_collect(items))
    return tuple(reports)


def validate_extension(ext) -> DefectReport:
    """Every section of the package's ``validate_extension``, with the
    brackets evaluated on dense basis and image vectors."""
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
        et = _basis(d + m, t)
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
            items.append(("projection-morphism", (s, t), vec_sub(lhs, rhs)))
    for defect in algebra.leibniz_defect(ext.total).entries:
        items.append(("total-leibniz", defect.where, defect.residual))
    for defect in mrb_defect(ext.total, ext.total_op).entries:
        items.append(("total-mrb", defect.where, defect.residual))
    return _collect(items)


def read_off(ext, section, t):
    """The module t[s x, i v], t[i v, s x] and the pair
    psi(x,y) = t([s x, s y] - s[x,y]), chi(x) = t(K s x - s K x), each
    evaluated on dense basis vectors, without any check."""
    d, m = ext.base.dim, ext.fiber_dim
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
            inner = vec_sub(inner, section.apply(ext.base.bracket_basis(x + 1, y + 1)))
            psi_cols.append(t.apply(inner))
    khat = ext.total_op.operator
    chi_cols = []
    for x in range(d):
        vec = vec_sub(khat.apply(scols[x]), section.apply(ext.base_op.operator.column(x)))
        chi_cols.append(t.apply(vec))
    pair = ConeCochain(
        Cochain(2, Matrix.from_cols(psi_cols, m)),
        Cochain(1, Matrix.from_cols(chi_cols, m)),
    )
    return rep, pair
