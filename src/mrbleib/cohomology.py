"""Cochain complexes and cohomology of modified Rota-Baxter Leibniz algebras.

Three complexes are built as explicit matrices over the rationals:

* the Loday-Pirashvili complex (delta) of the algebra with module
  coefficients,
* the operator complex (partial), which is the same construction applied
  to the derived bracket [x,y]_K = [Kx,y] + [x,Ky] with the induced module
  rho_K(x) = rho(Kx) - K_V rho(x),
* the mapping cone of the comparison map Phi between them, shifted so that
  degree n holds a pair (degree-n cochain, degree-(n-1) operator cochain).

A degree-n cochain is a (dim V) x (dim g)^n matrix; column order follows
the flat multi-index with the leftmost argument most significant.  As a
vector, entry (x, b) of a cochain sits at position flat(x) * dim V + b.

Each differential formula is written once, as a generator of row blocks
(``_delta_blocks``, ``_phi_blocks``): for every output multi-index y it lists
the sparse terms of the image at y, i.e. the nonzero entries of
rho_L(y_i), rho_R(y_{n+1}) and the structure constants (delta), or of the
products of K over the slots outside a slot subset, summed per subset size,
with K_V on odd sizes (Phi), each at the cochain column it reads.
``delta_matrix`` and ``phi_matrix`` write these terms straight into the
sparse rows of a ``Matrix``; ``apply_delta`` and ``apply_phi`` multiply them
against one cochain without building a matrix, so evaluating a cochain
costs about as many operations as the matrix has nonzeros.  The cone
matrix joins the rows of delta, -Phi and -partial by shifting column keys.
The tests compare the assembly with an independent per-cochain evaluation
of the formulas (``tests/reference.py``) on every basis cochain.

Sparse entries ((i_1..i_n), a, value), 1-based, are the document format of
a cochain: ``cochain_from_entries`` reads them and ``cochain_entries``
lists them, so no other module computes flat positions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LeibnizAlgebra, OperatorContext, derived_algebra, leibniz_defect
from .errors import BudgetExceeded, DimensionMismatch, InvalidArgument, NotAComplex, NotLeibniz
from .linalg import (
    Matrix,
    ZERO,
    ONE,
    add_entry,
    flat_index,
    rank,
    solve_with_free_zero,
    unflatten,
)
from .representations import Representation, induced_rep

# Weight convention for the comparison map Phi, degree n >= 1:
#
#   Phi(f)(x_1..x_n) = sum over subsets S of {1..n} of
#       w(|S|) * (K_V after f, only when |S| is odd) * f(a_1..a_n),
#   a_i = x_i for i in S, a_i = K x_i otherwise,
#   w(0) = 1,  w(r odd) = -(-weight)^((r-1)/2),  w(r even) = (-weight)^(r/2).
#
# Even-size subsets carry no K_V factor.  These coefficients are the unique
# ones compatible with the degree-2 form
#   Phi(f)(x,y) = f(Kx,Ky) - K_V(f(Kx,y) + f(x,Ky)) - weight*f(x,y)
# (which must turn the bracket cochain into the defining operator identity)
# and they are certified by the chain-map test battery
# Phi . delta = partial . Phi in degrees 0..3.
PHI_CONVENTION = (
    "phi subset weights: w(0)=1, w(odd r)=-(-weight)^((r-1)/2) with module "
    "operator post-composed, w(even r)=(-weight)^(r/2) with no operator factor"
)


def phi_weight(r: int, weight: Fraction) -> Fraction:
    if r == 0:
        return ONE
    if r % 2:
        return -((-weight) ** ((r - 1) // 2))
    return (-weight) ** (r // 2)


@dataclass(frozen=True)
class Cochain:
    """Element of Hom(g^(tensor n), V) in flat coordinates."""

    degree: int
    values: Matrix

    def __post_init__(self):
        if self.degree < 0:
            raise DimensionMismatch("cochain degree must be >= 0")

    @property
    def dim_v(self) -> int:
        return self.values.rows

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise DimensionMismatch("cochain degrees differ")
        return Cochain(self.degree, self.values + other.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise DimensionMismatch("cochain degrees differ")
        return Cochain(self.degree, self.values - other.values)

    def scale(self, s) -> "Cochain":
        return Cochain(self.degree, self.values.scale(s))

    def __neg__(self) -> "Cochain":
        return Cochain(self.degree, -self.values)

    def is_zero(self) -> bool:
        return self.values.is_zero()


def zero_cochain(dim_v: int, alg_dim: int, degree: int) -> Cochain:
    return Cochain(degree, Matrix.zeros(dim_v, alg_dim ** degree))


def cochain_from_entries(dim_v: int, alg_dim: int, degree: int, entries) -> Cochain:
    """Build a cochain from sparse entries ((i_1..i_n), a, value), 1-based;
    the values of a repeated key add up."""
    rows = [{} for _ in range(dim_v)]
    for indices, a, c in entries:
        if not 1 <= a <= dim_v:
            raise DimensionMismatch(f"fiber index {a} out of range 1..{dim_v}")
        add_entry(rows[a - 1], flat_index(indices, alg_dim), Fraction(c))
    return Cochain(degree, Matrix._sparse(rows, alg_dim ** degree))


def cochain_entries(c: Cochain, alg_dim: int):
    """The nonzero entries of c as ((i_1..i_n), a, value), 1-based, in flat
    column order and then fiber row; the inverse of ``cochain_from_entries``."""
    for m, a, v in sorted((m, a, v) for a, m, v in c.values.nonzeros()):
        yield unflatten(m, c.degree, alg_dim), a + 1, v


def bracket_cochain(alg: LeibnizAlgebra) -> Cochain:
    """The bracket itself as a degree-2 cochain with values in the algebra."""
    return cochain_from_entries(
        alg.dim, alg.dim, 2, (((i, j), k, c) for (i, j, k), c in alg.entries)
    )


def operator_cochain(op: Matrix) -> Cochain:
    """A linear map as a degree-1 cochain."""
    return Cochain(1, op)


def cochain_to_vec(c: Cochain) -> tuple[Fraction, ...]:
    """Flatten columnwise: position = flat_multi_index * dim_v + row."""
    vals = c.values
    vec = [ZERO] * (vals.rows * vals.cols)
    for a, m, v in vals.nonzeros():
        vec[m * vals.rows + a] = v
    return tuple(vec)


def vec_to_cochain(vec, dim_v: int, alg_dim: int, degree: int) -> Cochain:
    """Inverse of ``cochain_to_vec``."""
    vec = [Fraction(e) for e in vec]
    cols = alg_dim ** degree
    if len(vec) != dim_v * cols:
        raise DimensionMismatch("vector length does not match cochain space")
    rows = [{} for _ in range(dim_v)]
    for pos, v in enumerate(vec):
        if v:
            rows[pos % dim_v][pos // dim_v] = v
    return Cochain(degree, Matrix._sparse(rows, cols))


def _flat(indices, d: int) -> int:
    """Flat position of a 0-based multi-index (no range check)."""
    pos = 0
    for i in indices:
        pos = pos * d + i
    return pos


def _assemble(blocks, dim_v: int, cols: int) -> Matrix:
    """The matrix whose t-th row block (dim_v rows) sums the t-th block's
    terms: each (base, nz) adds v at (a, base + b) for every (a, b, v) in nz.

    Every term value is nonzero, so only a sum can cancel, and a cancelled
    entry is removed at once: the rows never hold a zero.  This is
    ``add_entry`` written out, since a call per term made assembly about a
    third slower."""
    rows = []
    for terms in blocks:
        block = [{} for _ in range(dim_v)]
        for base, nz in terms:
            for a, b, v in nz:
                row = block[a]
                pos = base + b
                old = row.get(pos)
                if old is None:
                    row[pos] = v
                else:
                    v += old
                    if v:
                        row[pos] = v
                    else:
                        del row[pos]
        rows.extend(block)
    return Matrix._sparse(rows, cols)


def _evaluate(blocks, f: Cochain, dim_v: int, alg_dim: int, degree: int) -> Cochain:
    """The same sums applied to f without building the matrix: only terms
    that meet a nonzero entry of f are multiplied out."""
    if f.values.rows != dim_v or f.values.cols != alg_dim ** f.degree:
        raise DimensionMismatch("cochain shape does not match algebra and module")
    vec = cochain_to_vec(f)
    rows = [{} for _ in range(dim_v)]
    for m, terms in enumerate(blocks):
        for base, nz in terms:
            for a, b, v in nz:
                x = vec[base + b]
                if x:
                    add_entry(rows[a], m, v * x)
    return Cochain(degree, Matrix._sparse(rows, alg_dim ** degree))


def _delta_blocks(alg: LeibnizAlgebra, rep: Representation, n: int):
    """The degree-n Loday-Pirashvili coboundary, one row block at a time:

    (delta f)(x_1..x_{n+1}) =
        sum_{i<=n} (-1)^(i+1) rhoL(x_i) f(..no x_i..)
      + (-1)^(n+1) rhoR(x_{n+1}) f(x_1..x_n)
      + sum_{i<j} (-1)^i f(..no x_i.., [x_i,x_j] in slot j-1, ..).

    At n = 0 only the middle term survives: (delta v)(x) = -rhoR(x) v.
    For each degree-(n+1) multi-index y in flat order, yields the terms of
    (delta f)(y) as (base, nz): base is the vector offset of the cochain
    column (x, 0) the term reads and nz its nonzero (a, b, coefficient)s.
    """
    d = alg.dim
    dim_v = rep.dim_v
    left = [m.nonzeros() for m in rep.rho_left]
    left_neg = [[(a, b, -v) for a, b, v in nz] for nz in left]
    right = [m.nonzeros() for m in rep.rho_right]
    if n % 2 == 0:  # the sign (-1)^(n+1) of the rho_R term
        right = [[(a, b, -v) for a, b, v in nz] for nz in right]
    # (-1)^i c times the identity of V, for odd and for even 1-based i
    brackets = {}
    for (i, j, k), c in alg.entries:
        brackets.setdefault((i - 1, j - 1), []).append(
            (k - 1, [(b, b, -c) for b in range(dim_v)], [(b, b, c) for b in range(dim_v)])
        )
    for y in itertools.product(range(d), repeat=n + 1):
        # (-1)^(i+1) rho_L(y_i) f(.. no y_i ..), 1-based i <= n
        terms = [
            (_flat(y[:i] + y[i + 1:], d) * dim_v, (left if i % 2 == 0 else left_neg)[y[i]])
            for i in range(n)
        ]
        # (-1)^(n+1) rho_R(y_{n+1}) f(y_1..y_n)
        terms.append((_flat(y[:n], d) * dim_v, right[y[n]]))
        # (-1)^i f(.. no y_i .., [y_i, y_j] in slot j-1 ..), 1-based i < j
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                bracket = brackets.get((y[i], y[j]))
                if bracket is None:
                    continue
                rest = list(y[:i] + y[i + 1:])
                for k, odd, even in bracket:
                    rest[j - 1] = k
                    terms.append((_flat(rest, d) * dim_v, odd if i % 2 == 0 else even))
        yield terms


def apply_delta(alg: LeibnizAlgebra, rep: Representation, f: Cochain) -> Cochain:
    """The Loday-Pirashvili coboundary of f, degree n -> n + 1 (see
    ``_delta_blocks``)."""
    n = f.degree
    return _evaluate(_delta_blocks(alg, rep, n), f, rep.dim_v, alg.dim, n + 1)


def delta_matrix(alg: LeibnizAlgebra, rep: Representation, n: int) -> Matrix:
    """Matrix of the degree-n Loday-Pirashvili coboundary (see
    ``_delta_blocks``)."""
    if n < 0:
        raise DimensionMismatch("degree must be >= 0")
    return _assemble(_delta_blocks(alg, rep, n), rep.dim_v, rep.dim_v * alg.dim ** n)


def operator_complex_pair(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation
) -> tuple[LeibnizAlgebra, Representation]:
    """The (derived algebra, induced module) pair underlying the operator complex."""
    return derived_algebra(alg, ctx), induced_rep(alg, ctx, rep)


def partial_matrix(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation, n: int
) -> Matrix:
    """Matrix of the degree-n differential of the operator complex."""
    derived, ind = operator_complex_pair(alg, ctx, rep)
    return delta_matrix(derived, ind, n)


def _phi_blocks(alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation, n: int):
    """The degree-n comparison map, one row block at a time (the identity
    at degree 0), in the form of ``_delta_blocks``.

    For row block y and each slot subset S with a nonzero weight, the
    columns x with x_i = y_i on S and K[x_i, y_i] != 0 off S receive
    w(|S|) * prod K[x_i, y_i], times K_V when |S| is odd and times the
    identity when it is even (see PHI_CONVENTION).  The subsets are never
    listed: the products are summed slot by slot, keyed by (column prefix,
    size of S so far), and w and K_V are applied once at the end, so a block
    costs (n + 1) times its columns per slot at most, not 2^n.
    """
    d = alg.dim
    dim_v = rep.dim_v
    k = ctx.operator
    knz = [[(r, k[r, j]) for r in range(d) if k[r, j]] for j in range(d)]
    kv = rep.k_v.nonzeros()
    weights = [phi_weight(r, ctx.weight) for r in range(n + 1)]
    # subsets larger than this have weight zero (weight 0 leaves sizes 0, 1)
    largest = max(r for r, w in enumerate(weights) if w)
    for y in itertools.product(range(d), repeat=n):
        acc = {(0, 0): ONE}
        for slot in y:
            step = {}
            for (pos, r), c in acc.items():
                pos *= d
                if r < largest:
                    key = (pos + slot, r + 1)
                    step[key] = step[key] + c if key in step else c
                for x, kx in knz[slot]:
                    key = (pos + x, r)
                    step[key] = step[key] + c * kx if key in step else c * kx
            acc = step
        even = {}
        odd = {}
        for (pos, r), c in acc.items():
            c *= weights[r]
            if c:
                out = odd if r % 2 else even
                out[pos] = out[pos] + c if pos in out else c
        terms = [
            (pos * dim_v, [(b, b, c) for b in range(dim_v)]) for pos, c in even.items() if c
        ]
        terms.extend(
            (pos * dim_v, [(a, b, c * v) for a, b, v in kv]) for pos, c in odd.items() if c
        )
        yield terms


def apply_phi(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation, f: Cochain
) -> Cochain:
    """The comparison map into the operator complex, degree preserved (see
    ``_phi_blocks``)."""
    n = f.degree
    return _evaluate(_phi_blocks(alg, ctx, rep, n), f, rep.dim_v, alg.dim, n)


def phi_matrix(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation, n: int
) -> Matrix:
    """Matrix of the degree-n comparison map (see ``_phi_blocks``)."""
    if n < 0:
        raise DimensionMismatch("degree must be >= 0")
    return _assemble(_phi_blocks(alg, ctx, rep, n), rep.dim_v, rep.dim_v * alg.dim ** n)


@dataclass(frozen=True)
class ConeCochain:
    """Degree-n element of the cone complex: a pair (leib, op) with
    deg(op) = deg(leib) - 1; the op half is absent in degree 0."""

    leib: Cochain
    op: Cochain | None

    def __post_init__(self):
        if self.leib.degree == 0:
            if self.op is not None:
                raise DimensionMismatch("degree-0 cone cochain has no operator half")
        elif self.op is None or self.op.degree != self.leib.degree - 1:
            raise DimensionMismatch("cone halves must have degrees n and n-1")

    @property
    def degree(self) -> int:
        return self.leib.degree

    def is_zero(self) -> bool:
        return self.leib.is_zero() and (self.op is None or self.op.is_zero())


def zero_cone_cochain(dim_v: int, alg_dim: int, degree: int) -> ConeCochain:
    if degree == 0:
        return ConeCochain(zero_cochain(dim_v, alg_dim, 0), None)
    return ConeCochain(
        zero_cochain(dim_v, alg_dim, degree),
        zero_cochain(dim_v, alg_dim, degree - 1),
    )


def cone_to_vec(c: ConeCochain) -> tuple[Fraction, ...]:
    if c.op is None:
        return cochain_to_vec(c.leib)
    return cochain_to_vec(c.leib) + cochain_to_vec(c.op)


def vec_to_cone(vec, dim_v: int, alg_dim: int, degree: int) -> ConeCochain:
    vec = list(vec)
    if degree == 0:
        return ConeCochain(vec_to_cochain(vec, dim_v, alg_dim, 0), None)
    split = dim_v * alg_dim ** degree
    return ConeCochain(
        vec_to_cochain(vec[:split], dim_v, alg_dim, degree),
        vec_to_cochain(vec[split:], dim_v, alg_dim, degree - 1),
    )


def cone_space_dim(dim_v: int, alg_dim: int, degree: int) -> int:
    if degree == 0:
        return dim_v
    return dim_v * alg_dim ** degree + dim_v * alg_dim ** (degree - 1)


def apply_cone(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation, c: ConeCochain
) -> ConeCochain:
    """Cone differential d(f, g) = (delta f, -partial g - phi f)."""
    derived, ind = operator_complex_pair(alg, ctx, rep)
    top = apply_delta(alg, rep, c.leib)
    bottom = -apply_phi(alg, ctx, rep, c.leib)
    if c.op is not None:
        bottom = bottom - apply_delta(derived, ind, c.op)
    return ConeCochain(top, bottom)


def cone_differential(
    alg: LeibnizAlgebra, ctx: OperatorContext, rep: Representation, n: int
) -> Matrix:
    """Block matrix of the degree-n cone differential.

    Degree 0 sends f to (delta f, -f); degree n >= 1 sends (f, g) to
    (delta f, -partial g - phi f).
    """
    if n == 0:
        return delta_matrix(alg, rep, 0).vstack(-phi_matrix(alg, ctx, rep, 0))
    derived, ind = operator_complex_pair(alg, ctx, rep)
    delta_n = delta_matrix(alg, rep, n)
    partial_prev = delta_matrix(derived, ind, n - 1)
    bottom = -(phi_matrix(alg, ctx, rep, n).hstack(partial_prev))
    return delta_n.hstack(Matrix.zeros(delta_n.rows, partial_prev.cols)).vstack(bottom)


@dataclass(frozen=True)
class ComplexTable:
    """Per-degree dimensions for one cochain complex."""

    cochain_dims: tuple[int, ...]
    differential_ranks: tuple[int, ...]
    cohomology_dims: tuple[int, ...]


@dataclass(frozen=True)
class CohomologyReport:
    max_degree: int
    leibniz: ComplexTable
    operator: ComplexTable | None
    cone: ComplexTable | None
    convention: str = PHI_CONVENTION


def _table_from_matrices(dims, mats) -> ComplexTable:
    ranks = tuple(rank(m) for m in mats)
    homs = []
    for n in range(len(dims)):
        prev = ranks[n - 1] if n else 0
        h = dims[n] - ranks[n] - prev
        if h < 0:
            raise NotAComplex(
                f"degree-{n} differential ranks {prev} and {ranks[n]} exceed the "
                f"cochain dimension {dims[n]}: the differentials do not square to zero"
            )
        homs.append(h)
    return ComplexTable(tuple(dims), ranks, tuple(homs))


def cohomology_dimensions(
    alg: LeibnizAlgebra,
    rep: Representation,
    ctx: OperatorContext | None = None,
    max_degree: int = 3,
    budget: int = 10 ** 7,
) -> CohomologyReport:
    """Exact cohomology dimensions for degrees 0..max_degree.

    With an operator context all three complexes are reported, otherwise
    only the Loday-Pirashvili one.  The budget caps the cell count of the
    largest cochain space touched (degree max_degree + 1) and the number of
    degrees, max_degree + 2.  The algebra is checked (NotLeibniz, and with
    an operator NotModifiedRotaBaxter, ...) before any table is built; the
    module is not.
    """
    if max_degree < 0:
        raise InvalidArgument(f"max degree must be at least 0, got {max_degree}")
    d = alg.dim
    dim_v = rep.dim_v
    if max_degree + 2 > budget:  # each degree costs one cell at least
        raise BudgetExceeded(f"{max_degree + 2} cochain degrees exceed budget {budget}")
    for n in range(max_degree + 2):
        cells = dim_v * d ** n
        if cells > budget:
            raise BudgetExceeded(
                f"degree-{n} cochain space has {cells} cells, budget {budget}"
            )
    degrees = range(max_degree + 1)
    # validate before any table is built from differentials that need not
    # square to zero
    if ctx is not None:
        derived, ind = operator_complex_pair(alg, ctx, rep)
    elif not leibniz_defect(alg).is_empty:
        raise NotLeibniz("bracket fails the Leibniz identity")
    leib_dims = [dim_v * d ** n for n in degrees]
    leib_mats = [delta_matrix(alg, rep, n) for n in degrees]
    leib_table = _table_from_matrices(leib_dims, leib_mats)
    if ctx is None:
        return CohomologyReport(max_degree, leib_table, None, None)
    op_mats = [delta_matrix(derived, ind, n) for n in degrees]
    op_table = _table_from_matrices(leib_dims, op_mats)
    cone_dims = [cone_space_dim(dim_v, d, n) for n in degrees]
    cone_mats = [cone_differential(alg, ctx, rep, n) for n in degrees]
    cone_table = _table_from_matrices(cone_dims, cone_mats)
    return CohomologyReport(max_degree, leib_table, op_table, cone_table)


@dataclass(frozen=True)
class ClassifyResult:
    cocycle: bool
    coboundary: bool
    witness: ConeCochain | None


def classify_cochain(
    alg: LeibnizAlgebra,
    ctx: OperatorContext,
    rep: Representation,
    c: ConeCochain,
) -> ClassifyResult:
    """Decide cocycle (d c = 0) and coboundary (c in the image of d) status.

    When c is a coboundary the canonical preimage (free variables zero) is
    returned as witness.
    """
    n = c.degree
    cocycle = apply_cone(alg, ctx, rep, c).is_zero()
    if n == 0:
        return ClassifyResult(cocycle, c.is_zero(), None)
    target = Matrix.from_cols([cone_to_vec(c)], cone_space_dim(rep.dim_v, alg.dim, n))
    d_prev = cone_differential(alg, ctx, rep, n - 1)
    sol = solve_with_free_zero(d_prev, target)
    if sol is None:
        return ClassifyResult(cocycle, False, None)
    witness = vec_to_cone(sol.column(0), rep.dim_v, alg.dim, n - 1)
    return ClassifyResult(cocycle, True, witness)
