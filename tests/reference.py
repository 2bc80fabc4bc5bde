"""Reference implementations the package is checked against.

``fraction_rref`` is plain Gauss-Jordan elimination on ``Fraction`` entries,
the oracle for the integer elimination kernel of ``mrbleib._kernels_py``.

``mrb_defect`` and ``rep_defect`` evaluate each axiom on every basis pair
with dense vectors and matrices, the oracle for the sparse checkers of
``mrbleib.algebra`` and ``mrbleib.representations``.

The differential matrices are assembled by basis evaluation: each matrix
is built column by column, evaluating the cochain operation on every basis
cochain and flattening the image into a column.  This is slow, but it
only relies on ``apply_delta`` and ``apply_phi``, which evaluate the
defining formulas directly, so it is the oracle the directly assembled
matrices of ``mrbleib.cohomology`` are compared against.
"""

from mrbleib.algebra import DefectReport, _basis, _check_dims, _collect
from mrbleib.cohomology import (
    Cochain,
    apply_delta,
    apply_phi,
    cochain_to_vec,
    operator_complex_pair,
)
from mrbleib.linalg import ONE, ZERO, Matrix, vec_add, vec_scale, vec_sub
from mrbleib.representations import _combine, _matrix_defects, _shape_check


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
