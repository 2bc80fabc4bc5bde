"""Exact elimination over sparse integer rows.

A row is a dict column -> nonzero value that never stores a zero.  Each
rational row is scaled once by the lcm of its denominators and divided by
the gcd of its entries (its content), so elimination runs on ``int``s only.
Clearing the entry ``v`` of a row against the pivot ``piv`` of a pivot row
uses the fraction-free step

    row = (piv/g) * row - (v/g) * prow,    g = gcd(piv, v),

which touches only the columns where the two rows are nonzero; the updated
row is divided by its content again to keep coefficients small (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968).  Rows are only ever scaled by nonzero
integers, so their spans never change.

``echelon`` is the forward pass: it takes the rows shortest first and
reduces each one against the pivot rows found so far, always at its
leading (smallest) column, until it is zero or its leading column has no
pivot row yet and it becomes one.  The number of pivot rows is the rank.
``rref`` adds the back-substitution and divides each row by its pivot.
The reduced row echelon form of a rational matrix is unique, so no result
depends on the order in which rows are taken (Dumas & Villard, "Computing
the rank of large sparse matrices over finite fields", CASC 2002).
"""

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _primitive(row):
    """An integer row divided by its content."""
    content = gcd(*row.values())
    if content > 1:
        return {c: x // content for c, x in row.items()}
    return row


def _integer_row(row):
    """A nonzero rational row times the lcm of its denominators, divided by
    its content."""
    den = lcm(*[v.denominator for v in row.values()])
    return _primitive({c: v.numerator * (den // v.denominator) for c, v in row.items()})


def _eliminate(row, prow, pc):
    """``row`` with its entry at ``pc`` cleared against ``prow``, whose entry
    at ``pc`` is its pivot; divided by its content."""
    piv = prow[pc]
    v = row[pc]
    g = gcd(piv, v)
    fa = piv // g
    fb = v // g
    out = {c: fa * x for c, x in row.items()} if fa != 1 else dict(row)
    for c, p in prow.items():
        x = out.get(c, 0) - fb * p
        if x:
            out[c] = x
        else:
            del out[c]
    return _primitive(out)


def echelon(rows):
    """Forward elimination of sparse rational rows.

    Returns ``{pivot column: integer row}``: rows spanning the same space
    whose leading columns are their distinct pivot columns.  Its length is
    the rank.
    """
    pivots = {}
    for row in sorted((_integer_row(r) for r in rows if r), key=len):
        while row:
            pc = min(row)
            prow = pivots.get(pc)
            if prow is None:
                # a positive pivot scales the rows cleared against it only
                # when it does not divide their entry
                if row[pc] < 0:
                    row = {c: -x for c, x in row.items()}
                pivots[pc] = row
                break
            row = _eliminate(row, prow, pc)
    return pivots


def rref(rows, cols):
    """Reduced row echelon form of sparse rational rows with ``cols`` columns.

    Returns ``(reduced_rows, pivot_cols)``: the pivot rows only (no zero
    rows), in pivot order, each a dense list of ``cols`` ``Fraction``s whose
    pivot entry is 1 and the only nonzero entry in its column.
    """
    forward = echelon(rows)
    pivots = sorted(forward)
    reduced = {}
    # last pivot first: the rows already reduced are zero at every other
    # pivot column, so clearing one pivot column brings in no other
    for pc in reversed(pivots):
        row = forward[pc]
        for c in [c for c in row if c in reduced]:
            row = _eliminate(row, reduced[c], c)
        reduced[pc] = row
    out = []
    for pc in pivots:
        row = reduced[pc]
        piv = row[pc]
        dense = [_ZERO] * cols
        for c, x in row.items():
            dense[c] = Fraction(x, piv)
        out.append(dense)
    return out, pivots
