"""Reference assembly of the differential matrices by basis evaluation.

Each matrix is built column by column: the cochain operation is evaluated
on every basis cochain and the image is flattened into a column.  This is
slow, but it only relies on ``apply_delta`` and ``apply_phi``, which
evaluate the defining formulas directly, so it is the oracle the directly
assembled matrices of ``mrbleib.cohomology`` are compared against.
"""

from mrbleib.cohomology import (
    Cochain,
    apply_delta,
    apply_phi,
    cochain_to_vec,
    operator_complex_pair,
)
from mrbleib.linalg import ONE, ZERO, Matrix


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
