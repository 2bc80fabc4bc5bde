"""Exact elimination and multiplication kernels.

``rref`` eliminates on integers.  Each row is scaled once by the lcm of its
denominators, so the working matrix holds only ``int``s.  Clearing the entry
``v`` of a row against the pivot ``piv`` uses the fraction-free step

    row = (piv/g) * row - (v/g) * prow,    g = gcd(piv, v),

whose subtraction runs only over the columns where the pivot row is
nonzero.  The updated row is then divided by the gcd of its entries (its
content) to keep coefficients small (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
Rows are only ever scaled by nonzero integers, so their spans never change,
and the entries become ``Fraction``s once, when each reduced row is divided
by its pivot at output.  The reduced row echelon form of a rational matrix
is unique, so the result does not depend on the pivoting order.

``matmul`` multiplies ``Fraction`` rows directly, skipping zero entries,
which suits the sparse products of the cochain differentials.
"""

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _integer_row(row):
    """The row times the lcm of its denominators, as ints.

    Only nonzero entries are asked for their denominator: the differentials
    are sparse, and each read of ``numerator`` or ``denominator`` is a
    Python-level property call.
    """
    nums = [e.numerator for e in row]
    den = lcm(*[row[c].denominator for c, p in enumerate(nums) if p])
    if den == 1:
        return nums
    return [p * (den // row[c].denominator) if p else 0 for c, p in enumerate(nums)]


def rref(rows):
    """Reduced row echelon form of a list-of-rows rational matrix.

    Returns ``(reduced_rows, pivot_cols)``.  Pivot rows come first in pivot
    order, zero rows last; every pivot entry is 1 and is the only nonzero
    entry in its column.  Pivot selection favors the smallest absolute
    value to curb coefficient growth (the result does not depend on it).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    mat = [_integer_row(row) for row in rows]
    pivots = []
    pr = 0
    for pc in range(n):
        best = -1
        best_abs = 0
        for r in range(pr, m):
            v = mat[r][pc]
            if v and (best < 0 or abs(v) < best_abs):
                best, best_abs = r, abs(v)
        if best < 0:
            continue
        if best != pr:
            mat[pr], mat[best] = mat[best], mat[pr]
        prow = mat[pr]
        piv = prow[pc]
        # rows pr.. are zero left of pc, so the pivot row is too
        support = [(c, prow[c]) for c in range(pc, n) if prow[c]]
        for r in range(m):
            if r == pr:
                continue
            row = mat[r]
            v = row[pc]
            if not v:
                continue
            g = gcd(piv, v)
            fa = piv // g
            fb = v // g
            if fa != 1:
                row = [fa * x for x in row]
            for c, p in support:
                row[c] -= fb * p
            content = gcd(*row)
            if content > 1:
                row = [x // content for x in row]
            mat[r] = row
        pivots.append(pc)
        pr += 1
        if pr == m:
            break
    out = []
    for r, pc in enumerate(pivots):
        piv = mat[r][pc]
        out.append([Fraction(v, piv) if v else _ZERO for v in mat[r]])
    out.extend([_ZERO] * n for _ in range(m - len(pivots)))
    return out, pivots


def matmul(a, b, n):
    """Product of two list-of-rows rational matrices, skipping zero entries;
    ``b`` has ``n`` columns."""
    m = len(a)
    inner = len(b)
    out = [[_ZERO] * n for _ in range(m)]
    for i in range(m):
        arow = a[i]
        orow = out[i]
        for t in range(inner):
            v = arow[t]
            if v:
                brow = b[t]
                for j in range(n):
                    w = brow[j]
                    if w:
                        orow[j] += v * w
    return out
