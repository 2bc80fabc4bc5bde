"""Exact rational scalars, dense matrices and the rank/kernel/solve core.

Scalars are ``fractions.Fraction`` throughout: every computation in this
package is exact, nothing is ever rounded.  A linear map from a space of
dimension ``a`` to one of dimension ``b`` is a ``b x a`` matrix whose
column ``j`` is the image of the ``j``-th basis vector.

Elimination (rank, kernel, solve) runs in one kernel, ``_kernels_py.rref``.
It scales each row by the lcm of its denominators, eliminates with the
fraction-free integer step ``row = (piv/g)*row - (v/g)*prow`` over the pivot
row's nonzero columns, divides every updated row by its content, and makes
``Fraction``s only when it writes the reduced rows.  The reduced echelon
form is unique, so results never depend on the pivoting order.  Products
use the zero-skipping ``Fraction`` ``_kernels_py.matmul``.

``Matrix(data)`` is the constructor for input from outside the package: it
coerces every entry with ``Fraction()`` and rejects ragged rows.  Matrices
built inside the package (arithmetic, stacking, the named constructors,
products, echelon forms and the assembled differentials) use the private
``Matrix._trusted(rows, cols)``, which stores rows whose entries are
already ``Fraction`` objects as they are, without coercion or shape checks.
The column count is passed, not read from the first row, so a matrix with
no rows keeps its columns.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernels_py as _kernels
from .errors import DimensionMismatch, NotSurjective, ParseError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with an optional leading minus on p; q > 0.

    Rationals travel as strings, so anything else (a JSON number, say) is a
    ParseError too.
    """
    if not isinstance(text, str):
        raise ParseError(f"bad rational {text!r}: expected a string")
    s = text.strip().replace("−", "-")
    num, sep, den = s.partition("/")
    try:
        p = int(num, 10)
    except ValueError:
        raise ParseError(f"bad rational {text!r}") from None
    if num.startswith("+"):
        raise ParseError(f"bad rational {text!r}: explicit '+' not allowed")
    if not sep:
        return Fraction(p)
    try:
        q = int(den, 10)
    except ValueError:
        raise ParseError(f"bad rational {text!r}") from None
    if q <= 0:
        raise ParseError(f"bad rational {text!r}: denominator must be positive")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    """Render a rational as "p" or "p/q" (lowest terms, q > 0)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data):
        rows = tuple(tuple(Fraction(e) for e in row) for row in data)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "_data", rows)

    def __setattr__(self, name, value):
        if name in ("rows", "cols") and not hasattr(self, "_data"):
            object.__setattr__(self, name, value)
        elif not hasattr(self, "_data"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("Matrix is immutable")

    @classmethod
    def _trusted(cls, rows, cols: int) -> "Matrix":
        """Wrap rows of length ``cols`` built inside the package; every entry
        is already a Fraction.

        Nothing is coerced or checked, so outside input must use Matrix(data).
        """
        m = object.__new__(cls)
        data = tuple(map(tuple, rows))
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_data", data)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._trusted([(ZERO,) * cols] * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._trusted(
            [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)], n
        )

    @classmethod
    def from_cols(cls, cols, rows: int | None = None) -> "Matrix":
        cols = list(cols)
        if not cols:
            if rows is None:
                raise DimensionMismatch("from_cols with no columns needs a row count")
            return cls.zeros(rows, 0)
        return cls._trusted(zip(*cols), len(cols))

    @classmethod
    def diag_blocks(cls, *blocks: "Matrix") -> "Matrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[ZERO] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                out[r0 + i][c0:c0 + b.cols] = list(b._data[i])
            r0 += b.rows
            c0 += b.cols
        return cls._trusted(out, cols)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int):
        return self._data[i]

    def column(self, j: int):
        return tuple(row[j] for row in self._data)

    def nonzeros(self):
        """The nonzero entries as (row, column, value), 0-based, row-major."""
        return [
            (a, b, v) for a, row in enumerate(self._data) for b, v in enumerate(row) if v
        ]

    def to_lists(self):
        return [list(row) for row in self._data]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(e) for e in row) for row in self._data
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix._trusted(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ],
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return Matrix._trusted(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ],
            self.cols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix._trusted([[-e for e in row] for row in self._data], self.cols)

    def scale(self, s) -> "Matrix":
        s = Fraction(s)
        return Matrix._trusted([[s * e for e in row] for row in self._data], self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Matrix._trusted(
            _kernels.matmul(self._data, other._data, other.cols), other.cols
        )

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix.zeros(self.cols, 0)
        return Matrix._trusted(zip(*self._data), self.rows)

    def apply(self, vec):
        """Image of a coordinate vector under the matrix.

        Only products of a nonzero matrix entry and a nonzero coordinate are
        formed, so applying a sparse matrix (an assembled differential, say)
        costs one comparison per entry plus its nonzero products.
        """
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(
            sum((a * v for a, v in zip(row, vec) if a and v), ZERO) for row in self._data
        )

    def is_zero(self) -> bool:
        return all(not e for row in self._data for e in row)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix._trusted(
            [ra + rb for ra, rb in zip(self._data, other._data)],
            self.cols + other.cols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return Matrix._trusted(self._data + other._data, self.cols)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    reduced, pivots = _kernels.rref(m._data)
    return Matrix._trusted(reduced, m.cols), tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank over the rationals, computed exactly."""
    return len(_kernels.rref(m._data)[1])


def kernel_basis(m: Matrix):
    """Basis of the null space, one vector per free column.

    Vectors are emitted in increasing free-column order with the free
    coordinate normalized to 1, so the output is canonical.
    """
    reduced, pivots = _kernels.rref(m._data)
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
    reduced, pivots = _kernels.rref(augmented._data)
    if any(p >= m.cols for p in pivots):
        return None
    out = [[ZERO] * rhs.cols for _ in range(m.cols)]
    for k, pc in enumerate(pivots):
        out[pc] = reduced[k][m.cols:]
    return Matrix._trusted(out, rhs.cols)


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


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row (i*b.rows + k), column (j*b.cols + l)."""
    out = [[ZERO] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            s = a[i, j]
            if not s:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    v = b[k, l]
                    if v:
                        out[i * b.rows + k][j * b.cols + l] = s * v
    return Matrix._trusted(out, a.cols * b.cols)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(s, u):
    return tuple(s * a for a in u)

def vec_is_zero(u) -> bool:
    return all(not a for a in u)
