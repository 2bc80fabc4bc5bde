"""Exact rational scalars, sparse matrices and the rank/kernel/solve core.

Every scalar the package takes or returns is a ``fractions.Fraction``:
every computation is exact, nothing is ever rounded.  Inside, the
elimination kernel and the bilinear core of ``mrbleib.algebra`` scale to a
common denominator and run on ints.  A linear map from a space of
dimension ``a`` to one of dimension ``b`` is a ``b x a`` matrix whose
column ``j`` is the image of the ``j``-th basis vector.

A ``Matrix`` stores each row sparsely, as a dict column -> nonzero
``Fraction``; a zero is never stored, so two equal matrices hold equal
rows and ``==`` and ``hash`` go by value.  ``row``, ``column``, ``[i, j]``
and ``to_lists`` are dense views derived from the sparse rows, and
``nonzeros()`` lists the stored entries row-major.  Sums, products and
stacking work on the nonzeros only and drop entries that cancel.

Elimination runs in one kernel, ``_kernels_py``, over sparse integer rows.
``rank`` runs only its forward pass (``_kernels_py.echelon``); ``rref``,
``kernel_basis`` and ``solve_with_free_zero`` add the back-substitution
(``_kernels_py.rref``), which returns the pivot rows only.  The reduced
echelon form is unique, so results never depend on the pivoting order.

``Matrix(data)`` is the constructor for input from outside the package: it
coerces every entry with ``Fraction()`` and rejects ragged rows.  Matrices
built inside the package use the private ``Matrix._dense(rows, cols)``,
for rows whose entries are already ``Fraction`` objects, and
``Matrix._sparse(rows, cols)``, for dict rows that hold no zero; neither
coerces or checks.  The column count is passed, not read from the first
row, so a matrix with no rows keeps its columns.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import _kernels_py as _kernels
from .errors import DimensionMismatch, NotSurjective, ParseError

ZERO = Fraction(0)
ONE = Fraction(1)
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" in ASCII digits, with an optional minus (or U+2212)
    on p and no sign on q; q > 0.  Surrounding whitespace is ignored.

    Rationals travel as strings, so anything else (a JSON number, say) is a
    ParseError too.
    """
    if not isinstance(text, str):
        raise ParseError(f"bad rational: expected a string, not {type(text).__name__}")
    s = text.strip().replace("−", "-")
    if not _RATIONAL.fullmatch(s):
        raise ParseError(f"bad rational {text!r}")
    num, sep, den = s.partition("/")
    try:  # past the interpreter's digit limit int() refuses
        p, q = int(num), int(den) if sep else 1
    except ValueError:
        raise ParseError(f"bad rational {text!r}") from None
    if q == 0:
        raise ParseError(f"bad rational {text!r}: denominator must be positive")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    """Render a rational as "p" or "p/q" (lowest terms, q > 0)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def add_entry(row: dict, col: int, v: Fraction):
    """``row[col] += v`` in a sparse row, which keeps no zeros."""
    old = row.get(col)
    if old is not None:
        v = old + v
    if v:
        row[col] = v
    elif old is not None:
        del row[col]


def _row_sum(ra: dict, rb: dict) -> dict:
    if not rb:
        return ra
    out = dict(ra)
    for c, v in rb.items():
        add_entry(out, c, v)
    return out


def _shifted(row: dict, shift: int) -> dict:
    return {c + shift: v for c, v in row.items()}


class Matrix:
    """Immutable matrix over the rationals, stored as sparse rows."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, data):
        rows = []
        cols = None
        for row in data:
            row = [Fraction(e) for e in row]
            if cols is None:
                cols = len(row)
            elif len(row) != cols:
                raise DimensionMismatch("ragged rows")
            rows.append({c: v for c, v in enumerate(row) if v})
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols or 0)
        object.__setattr__(self, "_rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _sparse(cls, rows, cols: int) -> "Matrix":
        """Wrap dict rows (column -> nonzero Fraction) built inside the
        package; the rows are shared, not copied, and never changed."""
        m = object.__new__(cls)
        rows = tuple(rows)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_rows", rows)
        return m

    @classmethod
    def _dense(cls, rows, cols: int) -> "Matrix":
        """Wrap rows of length ``cols`` built inside the package; every entry
        is already a Fraction."""
        return cls._sparse(
            [{c: v for c, v in enumerate(row) if v} for row in rows], cols
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._sparse([{}] * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._sparse([{i: ONE} for i in range(n)], n)

    @classmethod
    def from_cols(cls, cols, rows: int | None = None) -> "Matrix":
        cols = list(cols)
        if not cols:
            if rows is None:
                raise DimensionMismatch("from_cols with no columns needs a row count")
            return cls.zeros(rows, 0)
        out = [{} for _ in cols[0]]
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                if v:
                    out[i][j] = v
        return cls._sparse(out, len(cols))

    @classmethod
    def diag_blocks(cls, *blocks: "Matrix") -> "Matrix":
        rows = []
        c0 = 0
        for b in blocks:
            rows.extend(_shifted(r, c0) for r in b._rows)
            c0 += b.cols
        return cls._sparse(rows, c0)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if j < 0:
            j += self.cols
        if not 0 <= j < self.cols:
            raise IndexError("matrix column index out of range")
        return self._rows[i].get(j, ZERO)

    def row(self, i: int):
        out = [ZERO] * self.cols
        for c, v in self._rows[i].items():
            out[c] = v
        return tuple(out)

    def column(self, j: int):
        return tuple(r.get(j, ZERO) for r in self._rows)

    def nonzeros(self):
        """The nonzero entries as (row, column, value), 0-based, row-major."""
        return [(a, b, r[b]) for a, r in enumerate(self._rows) for b in sorted(r)]

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(e) for e in row) for row in self.to_lists()
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix._sparse(map(_row_sum, self._rows, other._rows), self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix._sparse([{c: -v for c, v in r.items()} for r in self._rows], self.cols)

    def scale(self, s) -> "Matrix":
        s = Fraction(s)
        if not s:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._sparse([{c: s * v for c, v in r.items()} for r in self._rows], self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        brows = other._rows
        out = []
        for arow in self._rows:
            acc = {}
            for t, v in arow.items():
                for j, w in brows[t].items():
                    add_entry(acc, j, v * w)
            out.append(acc)
        return Matrix._sparse(out, other.cols)

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                out[j][i] = v
        return Matrix._sparse(out, self.rows)

    def apply(self, vec):
        """Image of a coordinate vector under the matrix.

        Only the stored (nonzero) entries meet the vector, and only those
        whose coordinate is nonzero are multiplied, so applying a sparse
        matrix (an assembled differential, say) costs one step per nonzero.
        """
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(
            sum((a * vec[c] for c, a in r.items() if vec[c]), ZERO) for r in self._rows
        )

    def is_zero(self) -> bool:
        return not any(self._rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        shift = self.cols
        return Matrix._sparse(
            [{**ra, **_shifted(rb, shift)} if rb else ra
             for ra, rb in zip(self._rows, other._rows)],
            self.cols + other.cols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return Matrix._sparse(self._rows + other._rows, self.cols)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; the zero rows come last,
    so the form keeps the shape of ``m``."""
    reduced, pivots = _kernels.rref(m._rows, m.cols)
    zero_rows = Matrix.zeros(m.rows - len(pivots), m.cols)
    return Matrix._dense(reduced, m.cols).vstack(zero_rows), tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank over the rationals, computed exactly by forward elimination."""
    return len(_kernels.echelon(m._rows))


def kernel_basis(m: Matrix):
    """Basis of the null space, one vector per free column.

    Vectors are emitted in increasing free-column order with the free
    coordinate normalized to 1, so the output is canonical.
    """
    reduced, pivots = _kernels.rref(m._rows, m.cols)
    pivot_set = set(pivots)
    basis = []
    for c in range(m.cols):
        if c in pivot_set:
            continue
        vec = [ZERO] * m.cols
        vec[c] = ONE
        for k, pc in enumerate(pivots):
            if reduced[k][c]:
                vec[pc] = -reduced[k][c]
        basis.append(tuple(vec))
    return basis


def solve_with_free_zero(m: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve ``m @ X = rhs`` setting free variables to zero.

    Returns the canonical particular solution, or None when the system is
    inconsistent.  With ``rhs`` the identity this yields a right inverse.
    """
    if m.rows != rhs.rows:
        raise DimensionMismatch("solve shape mismatch")
    augmented = m.hstack(rhs)
    reduced, pivots = _kernels.rref(augmented._rows, augmented.cols)
    if any(p >= m.cols for p in pivots):
        return None
    out = [{} for _ in range(m.cols)]
    for k, pc in enumerate(pivots):
        out[pc] = {c: v for c, v in enumerate(reduced[k][m.cols:]) if v}
    return Matrix._sparse(out, rhs.cols)


def solve_right_inverse(m: Matrix) -> Matrix:
    """A right inverse S with ``m @ S = I``; raises NotSurjective otherwise."""
    s = solve_with_free_zero(m, Matrix.identity(m.rows))
    if s is None:
        raise NotSurjective(f"matrix of rank {rank(m)} has {m.rows} rows")
    return s


def flat_index(indices, dim: int) -> int:
    """Flat 0-based position of a 1-based index tuple."""
    pos = 0
    for i in indices:
        if not 1 <= i <= dim:
            raise DimensionMismatch(f"index {i} out of range 1..{dim}")
        pos = pos * dim + (i - 1)
    return pos


def unflatten(pos: int, arity: int, dim: int) -> tuple[int, ...]:
    """Inverse of flat_index."""
    out = [0] * arity
    for t in range(arity - 1, -1, -1):
        out[t] = pos % dim + 1
        pos //= dim
    return tuple(out)


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_is_zero(u) -> bool:
    return all(not a for a in u)
