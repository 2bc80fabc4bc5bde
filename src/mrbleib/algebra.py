"""Leibniz algebras by structure constants and their (modified) Rota-Baxter
operators.

An algebra is stored as a sparse list of constants ``(i, j, k, c)`` meaning
the bracket ``[e_i, e_j]`` contains ``c * e_k`` (indices 1-based).  Nothing
is validated at construction time: loading a broken candidate and asking
*which* identity fails where is a first-class use case, so every identity
has a defect checker returning the full list of nonzero residuals.

Every identity that precomposes a bilinear map with linear maps goes
through one sparse core (``_compose``, ``_apply_after``, ``_leibniz_terms``,
``_operator_residual``).  A bilinear map is its nonzero constants, a linear
map its sparse rows, a residual is a map from basis tuple to sparse vector,
and ``_compose`` adds mu(L e_i, R e_j) by meeting each constant with the
nonzeros of the matching rows of L and R.  So the cost follows those
nonzeros, not dim**2 dense bracket evaluations.  ``mrb_defect`` is the
order-0 case of ``_operator_residual``, whose higher orders are the operator
part of the deformation equations (``mrbleib.deformation``).  ``rb_defect``,
``derived_algebra`` and the bracket section of ``morphism_defect`` are
compositions too, and so are the module laws and extension checks, on g + V
(``mrbleib.representations``, ``mrbleib.extensions``).  ``_report`` lists
basis tuples in lexicographic order,
each residual a dense coordinate tuple, and drops residuals that cancel to
zero, exactly as an evaluation on every basis tuple would
(``tests/reference.py`` keeps those evaluations as oracles).

The core only adds and multiplies, so it runs on any numbers.
``mrb_defect``, the derived bracket, and ``rep_defect``, ``mrb_rep_defect``
and the induced actions of ``mrbleib.representations`` run it on ints:
``_scaled`` multiplies every constant and matrix entry by one common
denominator D and the weight by D**2.  Each identity is homogeneous, so its
residuals come out multiplied by a fixed power of D (D**3 for the modified
identity, D**2 for the rest), by which ``_dense`` divides the nonzero ones
once, as the elimination kernel does.  Every value these functions return
is a ``Fraction``.  The other compositions stay on Fractions.

``leibniz_defect`` still evaluates every basis triple, although its sparse
form is one ``_leibniz_terms(acc, mu, mu)`` call.  That call would make the
benchmark's session-mix workload about twice as fast, but the benchmark
harness (``perfbench/run.py``) keeps about 0.55 MB per pass, so the extra
passes would push its peak memory past the 10% bound.  It waits on that
harness fix.

``grid_search_operators`` builds no candidate matrix and calls no checker:
it compiles the modified identity once into polynomials in the entries of K
and prunes a depth-first search with them.  Its solutions come in the order
of enumerating every candidate (``tests/reference.py`` keeps that
enumeration, one ``mrb_defect`` per candidate, as the oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidArgument,
    NotLeibniz,
    NotModifiedRotaBaxter,
    NotRotaBaxter,
)
from .linalg import Matrix, ONE, ZERO, vec_is_zero, vec_sub


@dataclass(frozen=True)
class Defect:
    """One failed identity instance: which check, at which basis tuple, off by what."""

    section: str
    where: tuple[int, ...]
    residual: tuple[Fraction, ...]


@dataclass(frozen=True)
class DefectReport:
    entries: tuple[Defect, ...]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def section(self, name: str) -> tuple[Defect, ...]:
        return tuple(d for d in self.entries if d.section == name)

    def __len__(self) -> int:
        return len(self.entries)


def _collect(items) -> DefectReport:
    return DefectReport(tuple(
        Defect(section, where, tuple(res))
        for section, where, res in items
        if not vec_is_zero(res)
    ))


class LeibnizAlgebra:
    """Finite-dimensional algebra given by sparse structure constants."""

    __slots__ = ("dim", "entries", "_table")

    def __init__(self, dim: int, entries=()):
        seen = {}
        for i, j, k, c in entries:
            for idx in (i, j, k):
                if not 1 <= idx <= dim:
                    raise DimensionMismatch(
                        f"structure constant index {idx} out of range 1..{dim}"
                    )
            key = (i, j, k)
            if key in seen:
                raise DimensionMismatch(f"duplicate structure constant key {key}")
            c = Fraction(c)
            if c:
                seen[key] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", tuple(sorted(seen.items())))
        table = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), c in self.entries:
            table[i - 1][j - 1][k - 1] = c
        object.__setattr__(
            self, "_table",
            tuple(tuple(tuple(v) for v in row) for row in table),
        )

    def __setattr__(self, name, value):
        raise AttributeError("LeibnizAlgebra is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, LeibnizAlgebra)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, self.entries))

    def __repr__(self):
        body = ", ".join(f"[{i},{j}]+={c}*e{k}" for (i, j, k), c in self.entries)
        return f"LeibnizAlgebra(dim={self.dim}, {body or 'abelian'})"

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        """Coordinates of [e_i, e_j] (1-based arguments)."""
        return self._table[i - 1][j - 1]

    def bracket(self, u, v) -> tuple[Fraction, ...]:
        """Bilinear extension of the bracket to coordinate vectors."""
        out = [ZERO] * self.dim
        for a, ua in enumerate(u):
            if not ua:
                continue
            row = self._table[a]
            for b, vb in enumerate(v):
                if not vb:
                    continue
                cell = row[b]
                s = ua * vb
                for k, c in enumerate(cell):
                    if c:
                        out[k] += s * c
        return tuple(out)

    def left_mul(self, i: int) -> Matrix:
        """Matrix of x -> [e_i, x]."""
        return Matrix.from_cols(
            [self.bracket_basis(i, j) for j in range(1, self.dim + 1)], self.dim
        )

    def right_mul(self, i: int) -> Matrix:
        """Matrix of x -> [x, e_i]."""
        return Matrix.from_cols(
            [self.bracket_basis(j, i) for j in range(1, self.dim + 1)], self.dim
        )


@dataclass(frozen=True)
class OperatorContext:
    """A linear operator on the algebra together with its weight."""

    operator: Matrix
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", Fraction(self.weight))
        if self.operator.rows != self.operator.cols:
            raise DimensionMismatch("operator matrix must be square")


def _check_dims(alg: LeibnizAlgebra, ctx: OperatorContext):
    if ctx.operator.rows != alg.dim:
        raise DimensionMismatch(
            f"operator is {ctx.operator.rows}x{ctx.operator.cols}, algebra dim {alg.dim}"
        )


def _dense(vec: dict, length: int, den: int | None = None) -> tuple[Fraction, ...]:
    """A sparse residual ``{position: value}`` as a dense coordinate tuple;
    integer values scaled by ``den`` (see ``_scaled``) are divided by it."""
    res = [ZERO] * length
    for pos, v in vec.items():
        if v:
            res[pos] = v if den is None else Fraction(v, den)
    return tuple(res)


# The bilinear core.  A bilinear map is the list of its nonzero constants
# (a, b, t, c): mu(e_a, e_b) contains c e_t.  A residual map is
# {where: {t: value}}, keyed by the 0-based basis tuple it is evaluated at.
# A linear map enters as its sparse rows, {col: value} dicts, by the
# nonzeros of its rows (``_compose``, where None stands for the identity)
# or of its columns (``_apply_after``).


def _constants(alg: LeibnizAlgebra):
    """The bracket as the constants (a, b, t, c), 0-based, of the core."""
    return [(i - 1, j - 1, k - 1, c) for (i, j, k), c in alg.entries]


def _scaled(mu, rows=(), weight: Fraction = ZERO):
    """The integer form of core arguments: the lcm D of the denominators
    of the constants, the row entries and the weight, then the constants
    and rows times D and the weight times D**2, as ints."""
    den = math.lcm(
        weight.denominator,
        *{e[3].denominator for e in mu},
        *{v.denominator for r in rows for v in r.values()},
    )
    return (
        den,
        [(a, b, t, c.numerator * (den // c.denominator)) for a, b, t, c in mu],
        [{j: v.numerator * (den // v.denominator) for j, v in r.items()} for r in rows],
        weight.numerator * (den * den // weight.denominator),
    )


def _add_at(acc: dict, where, pos: int, v):
    """acc[where][pos] += v, creating the residual on first use."""
    res = acc.get(where)
    if res is None:
        acc[where] = {pos: v}
    else:
        res[pos] = res[pos] + v if pos in res else v


def _compose(acc: dict, mu, left=None, right=None, s=ONE):
    """acc[(i, j)] += s * mu(L e_i, R e_j), from the nonzeros of the rows of
    L and R: each constant (a, b, t, c) meets row a of L and row b of R.
    Factors that are the object ONE (the identity's) are not multiplied."""
    for a, b, t, c in mu:
        if s is not ONE:
            c *= s
        for i, u in ((a, ONE),) if left is None else left[a].items():
            uc = c if u is ONE else u * c
            for j, v in ((b, ONE),) if right is None else right[b].items():
                _add_at(acc, (i, j), t, uc if v is ONE else uc * v)


def _apply_after(acc: dict, m, res: dict, negate: bool = False):
    """acc[where] += M res[where] (or -= when ``negate``) for every
    residual, through the nonzero columns of the rows of M."""
    if not res:
        return
    cols = {}
    for r, row in enumerate(m):
        for t, v in row.items():
            cols.setdefault(t, []).append((r, v))
    for where, vec in res.items():
        for t, x in vec.items():
            if negate:
                x = -x
            for r, v in cols.get(t, ()):
                _add_at(acc, where, r, v * x)


def _leibniz_terms(acc: dict, outer, inner):
    """acc[(x, y, z)] += outer(x, inner(y,z)) - outer(inner(x,y), z)
    - outer(y, inner(x,z)) on basis triples.  Each inner constant
    (p, q, m, c) meets the outer constants whose right argument is m (first
    and last term) or whose left argument is m (middle term)."""
    by_left = {}
    by_right = {}
    for a, b, t, c in outer:
        by_left.setdefault(a, []).append((b, t, c))
        by_right.setdefault(b, []).append((a, t, c))
    for p, q, m, c in inner:
        for a, t, c2 in by_right.get(m, ()):
            v = c * c2
            _add_at(acc, (a, p, q), t, v)
            _add_at(acc, (p, a, q), t, -v)
        for z, t, c2 in by_left.get(m, ()):
            _add_at(acc, (p, q, z), t, -c * c2)


def _operator_residual(mus, ks, weight, n: int) -> dict:
    """The order-n part of the modified identity for mu_t = sum mu_i t^i and
    K_t = sum K_i t^i (each K_i as its rows):

      sum_{p+q+r=n} mu_p(K_q x, K_r y) - K_p(mu_q(K_r x, y) + mu_q(x, K_r y))
      - weight * mu_n(x, y).

    At n = 0 this is [Kx,Ky] - K([Kx,y] + [x,Ky]) - w[x,y].
    """
    acc = {}
    for p in range(n + 1):
        mid = {}
        for q in range(n + 1 - p):
            r = n - p - q
            _compose(acc, mus[p], ks[q], ks[r])
            _compose(mid, mus[q], ks[r], None)
            _compose(mid, mus[q], None, ks[r])
        _apply_after(acc, ks[p], mid, negate=True)
    if weight:
        _compose(acc, mus[n], s=-weight)
    return acc


def _report(*sections, den: int | None = None) -> DefectReport:
    """A report from (section, residual map, length) triples, in that order:
    each map's entries in lexicographic order of their basis tuples, given
    1-based, with every residual a dense tuple (divided by ``den`` as in
    ``_dense``); all-zero residuals drop."""
    return DefectReport(tuple(
        Defect(section, tuple(x + 1 for x in where), _dense(acc[where], length, den))
        for section, acc, length in sections
        for where in sorted(acc)
        if any(acc[where].values())
    ))


def leibniz_defect(alg: LeibnizAlgebra) -> DefectReport:
    """Residuals of [x,[y,z]] - [[x,y],z] - [y,[x,z]] on all basis triples."""
    d = alg.dim
    items = []
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                ei = alg.bracket_basis(j, k)
                lhs = alg.bracket(_basis(d, i), ei)
                r1 = alg.bracket(alg.bracket_basis(i, j), _basis(d, k))
                r2 = alg.bracket(_basis(d, j), alg.bracket_basis(i, k))
                items.append(("leibniz", (i, j, k), vec_sub(vec_sub(lhs, r1), r2)))
    return _collect(items)


def _basis(dim: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if t == i - 1 else ZERO for t in range(dim))


def mrb_defect(alg: LeibnizAlgebra, ctx: OperatorContext) -> DefectReport:
    """Residuals of [Kx,Ky] - K([Kx,y] + [x,Ky]) - w[x,y] on basis pairs,
    the order-0 case of ``_operator_residual``, in lexicographic (i,j)
    order."""
    _check_dims(alg, ctx)
    den, mu, k, w = _scaled(_constants(alg), ctx.operator._rows, ctx.weight)
    acc = _operator_residual([mu], [k], w, 0)
    return _report(("mrb", acc, alg.dim), den=den ** 3)


def rb_defect(alg: LeibnizAlgebra, ctx: OperatorContext) -> DefectReport:
    """Residuals of [Tx,Ty] - T([Tx,y] + [x,Ty] + w[x,y]) on basis pairs."""
    _check_dims(alg, ctx)
    acc = _rb_residual(_constants(alg), ctx.operator._rows, ctx.weight)
    return _report(("rb", acc, alg.dim))


def _rb_residual(mu, t, w) -> dict:
    """[Tx,Ty] - T([Tx,y] + [x,Ty] + w[x,y]) for the bilinear map mu and
    the rows of T."""
    acc = {}
    _compose(acc, mu, t, t)
    mid = {}
    _compose(mid, mu, t, None)
    _compose(mid, mu, None, t)
    if w:
        _compose(mid, mu, s=w)
    _apply_after(acc, t, mid, negate=True)
    return acc


def rb_to_mrb(alg: LeibnizAlgebra, ctx: OperatorContext) -> OperatorContext:
    """Turn a Rota-Baxter operator T of weight w into the modified operator
    2T + w*id of weight -w**2."""
    report = rb_defect(alg, ctx)
    if not report.is_empty:
        raise NotRotaBaxter(f"{len(report)} Rota-Baxter residuals")
    k = ctx.operator.scale(2) + Matrix.identity(alg.dim).scale(ctx.weight)
    out = OperatorContext(k, -ctx.weight ** 2)
    check = mrb_defect(alg, out)
    assert check.is_empty, "transformed operator must satisfy the modified identity"
    return out


def derived_algebra(alg: LeibnizAlgebra, ctx: OperatorContext) -> LeibnizAlgebra:
    """The algebra with bracket [x,y]_K = [Kx,y] + [x,Ky].

    Requires a genuine modified Rota-Baxter structure; the result is again
    Leibniz and carries the same operator and weight, both of which are
    re-checked before returning.
    """
    if not leibniz_defect(alg).is_empty:
        raise NotLeibniz("base bracket fails the Leibniz identity")
    if not mrb_defect(alg, ctx).is_empty:
        raise NotModifiedRotaBaxter("operator fails the modified identity")
    den, mu, k, _ = _scaled(_constants(alg), ctx.operator._rows)
    acc = {}
    _compose(acc, mu, k, None)
    _compose(acc, mu, None, k)
    out = LeibnizAlgebra(alg.dim, [
        (i + 1, j + 1, t + 1, Fraction(c, den * den))
        for (i, j), res in acc.items() for t, c in res.items() if c
    ])
    assert leibniz_defect(out).is_empty
    assert mrb_defect(out, ctx).is_empty
    return out


def morphism_defect(
    alg1: LeibnizAlgebra,
    ctx1: OperatorContext,
    alg2: LeibnizAlgebra,
    ctx2: OperatorContext,
    phi: Matrix,
) -> DefectReport:
    """Residuals of phi[x,y] - [phi x, phi y] and phi K - K' phi."""
    if phi.cols != alg1.dim or phi.rows != alg2.dim:
        raise DimensionMismatch(
            f"morphism matrix must be {alg2.dim}x{alg1.dim}, got {phi.rows}x{phi.cols}"
        )
    _check_dims(alg1, ctx1)
    _check_dims(alg2, ctx2)
    bracket = {}
    _compose(bracket, _constants(alg1))
    acc = {}
    _apply_after(acc, phi._rows, bracket)
    _compose(acc, _constants(alg2), phi._rows, phi._rows, -ONE)
    diff = phi @ ctx1.operator - ctx2.operator @ phi
    op = {}
    for r, i, v in diff.nonzeros():
        op.setdefault((i,), {})[r] = v
    return _report(("bracket", acc, alg2.dim), ("operator", op, alg2.dim))


def _mrb_polynomials(alg: LeibnizAlgebra, weight: Fraction, pinned: dict) -> dict:
    """The modified identity as polynomials in the entries of K.

    Returns ``{(i, j, t): {monomial: coefficient}}``, coordinate t of the
    residual at the basis pair (i, j).  A monomial is the sorted tuple of the
    entries ``(row, col)`` of K it multiplies, at most two; entries in
    ``pinned`` are multiplied into the coefficient instead.  Each constant
    ``[e_a,e_b] = .. + c e_t`` contributes ``c K[a,i] K[b,j]`` at (i, j, t)
    through [Ke_i,Ke_j], ``-c K[r,t] K[a,i]`` at (i, b, r) and
    ``-c K[r,t] K[b,i]`` at (a, i, r) through K applied to
    [Ke_i,e_b] + [e_a,Ke_i], and ``-w c`` at (a, b, t).  Coefficients that
    cancel stay in the map as zeros.
    """
    polys = {}

    def add(where, c, *factors):
        mono = []
        for e in factors:
            v = pinned.get(e)
            if v is None:
                mono.append(e)
            else:
                c *= v
        if c:
            poly = polys.setdefault(where, {})
            mono = tuple(sorted(mono))
            poly[mono] = poly.get(mono, ZERO) + c

    basis = range(1, alg.dim + 1)
    for (a, b, t), c in alg.entries:
        for i in basis:
            for j in basis:
                add((i, j, t), c, (a, i), (b, j))
            for r in basis:
                add((i, b, r), -c, (r, t), (a, i))
                add((a, i, r), -c, (r, t), (b, i))
        if weight:
            add((a, b, t), -weight * c)
    return polys


def _value(terms, x) -> int:
    """A compiled polynomial ``[(coeff, (n, ..)), ..]`` at the integer values
    ``x[n]`` of the free entries, numbered in row-major order."""
    s = 0
    for c, mono in terms:
        for n in mono:
            c *= x[n]
        s += c
    return s


def grid_search_operators(
    alg: LeibnizAlgebra,
    weight,
    grid,
    mask: dict[tuple[int, int], Fraction] | None = None,
    budget: int = 10 ** 7,
) -> list[Matrix]:
    """All matrices with entries from ``grid`` (mask entries pinned) that are
    modified Rota-Baxter operators of the given weight.

    The solutions come in the order of enumerating the candidates with the
    free entries in row-major order, each running over the grid in the order
    given, so the output is the lexicographic one and is reproducible.  The
    grid values must be distinct.  The budget bounds that candidate count,
    ``len(grid) ** len(free)``, not the nodes the search visits.

    No candidate matrix is built.  The identity is compiled once into one
    polynomial in the free entries per residual coordinate (pinned entries
    substituted; see ``_mrb_polynomials``), scaled to integer coefficients
    over the grid's common denominator.  A polynomial without free entries
    is evaluated up front.  The free entries are then assigned depth first,
    in row-major order, with an explicit stack; each polynomial is evaluated
    as soon as its last free entry is assigned, and a nonzero value drops
    the whole subtree.
    """
    weight = Fraction(weight)
    grid = [Fraction(g) for g in grid]
    if len(set(grid)) != len(grid):
        repeated = next(g for g in grid if grid.count(g) > 1)
        raise InvalidArgument(f"grid value {repeated} is repeated")
    d = alg.dim
    mask = {k: Fraction(v) for k, v in (mask or {}).items()}
    for (i, j) in mask:
        if not (1 <= i <= d and 1 <= j <= d):
            raise DimensionMismatch(f"mask entry {(i, j)} out of range")
    free = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1) if (i, j) not in mask]
    total = len(grid) ** len(free) if free else 1
    if total > budget:
        raise BudgetExceeded(f"{total} candidates exceed budget {budget}")

    # Scaled by den ** 2 and by the lcm of its coefficients' denominators,
    # a polynomial takes integer values on the integers g * den, which are
    # zero exactly when it vanishes on the grid values g.
    den = math.lcm(*(g.denominator for g in grid))
    values = [g.numerator * (den // g.denominator) for g in grid]
    position = {e: n for n, e in enumerate(free)}
    checks = [[] for _ in free]
    for poly in _mrb_polynomials(alg, weight, mask).values():
        terms = [
            (c * den ** (2 - len(mono)), tuple(position[e] for e in mono))
            for mono, c in poly.items()
            if c
        ]
        if not terms:
            continue
        used = [n for _, mono in terms for n in mono]
        if not used:
            return []  # a pinned residual that no free entry can change
        scale = math.lcm(*(c.denominator for c, _ in terms))
        checks[max(used)].append(
            [(c.numerator * (scale // c.denominator), mono) for c, mono in terms]
        )

    cells = [[mask.get((i, j)) for j in range(1, d + 1)] for i in range(1, d + 1)]
    if not free:
        return [Matrix._dense(cells, d)]
    solutions = []
    x = [0] * len(free)
    pick = [-1] * len(free)
    last = len(free) - 1
    depth = 0
    while depth >= 0:
        g = pick[depth] + 1
        if g == len(grid):
            pick[depth] = -1
            depth -= 1
            continue
        pick[depth] = g
        x[depth] = values[g]
        if any(_value(terms, x) for terms in checks[depth]):
            continue
        if depth < last:
            depth += 1
            continue
        for (i, j), n in zip(free, pick):
            cells[i - 1][j - 1] = grid[n]
        solutions.append(Matrix._dense(cells, d))
    return solutions
