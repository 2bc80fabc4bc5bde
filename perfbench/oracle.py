"""Independent evaluator for the benchmark's inputs and reports.

Nothing here imports mrbleib: the benchmark decides what a correct report
is from these few formulas, so its verdicts never rest on the code under
test.  Indices are 0-based inside this module and 1-based in documents and
reports.  An algebra is a pair ``(dim, br)`` where ``br`` maps a basis pair
``(i, j)`` to the sparse image ``{k: c}`` of ``[e_i, e_j]`` (left Leibniz
convention: ``[x,[y,z]] = [[x,y],z] + [y,[x,z]]``).  Operators and module
actions are dense row lists, so ``m[r][c]`` is the ``r``-th coordinate of the
image of ``e_c``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------- scalars


def fmt(x: Fraction) -> str:
    """The document spelling of a rational: "p" or "p/q" in lowest terms."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- matrices


def zeros(rows: int, cols: int):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int):
    return [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]


def matmul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * cols
        for t in range(inner):
            v = row[t]
            if v:
                for c, w in enumerate(b[t]):
                    if w:
                        acc[c] += v * w
        out.append(acc)
    return out


def madd(a, b, s=ONE):
    """a + s*b."""
    return [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(a, s):
    return [[s * x for x in row] for row in a]


def apply(m, v):
    return [sum((x * y for x, y in zip(row, v) if y), ZERO) for row in m]


def column(m, c):
    return [row[c] for row in m]


def from_cols(cols, rows: int):
    return [[col[r] for col in cols] for r in range(rows)] if cols else zeros(rows, 0)


def inverse(m):
    """Exact inverse by Gauss-Jordan; raises ValueError when singular."""
    n = len(m)
    aug = [list(row) + identity(n)[r] for r, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = ONE / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def is_zero(rows) -> bool:
    return all(not x for row in rows for x in row)


def basis(d: int, i: int):
    v = [ZERO] * d
    v[i] = ONE
    return v


# ---------------------------------------------------------------- algebras


def algebra(dim: int, entries):
    """Algebra from 1-based constants ``(i, j, k, c)``; zero constants dropped."""
    br = {}
    for i, j, k, c in entries:
        c = Fraction(c)
        if c:
            br.setdefault((i - 1, j - 1), {})[k - 1] = c
    return dim, br


def entries(alg):
    """Sorted 1-based constants of an algebra."""
    _, br = alg
    return sorted(
        (i + 1, j + 1, k + 1, c) for (i, j), col in br.items() for k, c in col.items() if c
    )


def bracket(alg, u, v):
    d, br = alg
    out = [ZERO] * d
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if not b:
                continue
            col = br.get((i, j))
            if col:
                s = a * b
                for k, c in col.items():
                    out[k] += s * c
    return out


def bracket_basis(alg, i: int, j: int):
    d, br = alg
    out = [ZERO] * d
    for k, c in br.get((i, j), {}).items():
        out[k] = c
    return out


def transport(alg, op, p):
    """The structure carried over by the basis change ``x -> p x``:
    ``[x, y]' = p[p^-1 x, p^-1 y]`` and ``K' = p K p^-1``."""
    d = alg[0]
    pinv = inverse(p)
    cols = [column(pinv, c) for c in range(d)]
    out = []
    for i in range(d):
        for j in range(d):
            img = apply(p, bracket(alg, cols[i], cols[j]))
            out.extend((i + 1, j + 1, k + 1, c) for k, c in enumerate(img) if c)
    new_op = matmul(matmul(p, op), pinv) if op is not None else None
    return algebra(d, out), new_op


def _acc(out: dict, s, col: dict):
    for k, c in col.items():
        out[k] = out.get(k, ZERO) + s * c


def leibniz_residuals(alg):
    """``[x,[y,z]] - [[x,y],z] - [y,[x,z]]`` on basis triples, nonzero only."""
    d, br = alg
    empty = {}
    out = []
    for i in range(d):
        for j in range(d):
            bij = br.get((i, j), empty)
            for k in range(d):
                res = {}
                for t, c in br.get((j, k), empty).items():
                    _acc(res, c, br.get((i, t), empty))
                for t, c in bij.items():
                    _acc(res, -c, br.get((t, k), empty))
                for t, c in br.get((i, k), empty).items():
                    _acc(res, -c, br.get((j, t), empty))
                if any(res.values()):
                    vec = [res.get(t, ZERO) for t in range(d)]
                    out.append(((i + 1, j + 1, k + 1), vec))
    return out


def mrb_residuals(alg, op, weight):
    """``[Kx,Ky] - K([Kx,y] + [x,Ky]) - w[x,y]`` on basis pairs, nonzero only."""
    d = alg[0]
    kcols = [column(op, c) for c in range(d)]
    out = []
    for i in range(d):
        for j in range(d):
            lhs = bracket(alg, kcols[i], kcols[j])
            mid = [
                a + b
                for a, b in zip(
                    bracket(alg, kcols[i], basis(d, j)), bracket(alg, basis(d, i), kcols[j])
                )
            ]
            kmid = apply(op, mid)
            bij = bracket_basis(alg, i, j)
            res = [a - b - weight * c for a, b, c in zip(lhs, kmid, bij)]
            if any(res):
                out.append(((i + 1, j + 1), res))
    return out


# ---------------------------------------------------------------- modules


def regular_module(alg, op):
    """``(dim_v, rho_left, rho_right, k_v)`` of the algebra acting on itself."""
    d = alg[0]
    left = [from_cols([bracket_basis(alg, i, j) for j in range(d)], d) for i in range(d)]
    right = [from_cols([bracket_basis(alg, j, i) for j in range(d)], d) for i in range(d)]
    kv = op if op is not None else zeros(d, d)
    return d, left, right, kv


def trivial_module(d: int, kv):
    m = len(kv)
    return m, [zeros(m, m)] * d, [zeros(m, m)] * d, kv


def _sparse(m):
    """Row dict ``{r: {c: x}}`` of a dense matrix, zeros dropped."""
    return {r: {c: x for c, x in enumerate(row) if x} for r, row in enumerate(m) if any(row)}


def _smul(a, b):
    out = {}
    for r, row in a.items():
        acc = {}
        for t, x in row.items():
            for c, y in b.get(t, {}).items():
                acc[c] = acc.get(c, ZERO) + x * y
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def _sadd(*terms):
    """Sum of ``(scale, sparse matrix)`` terms."""
    out = {}
    for s, a in terms:
        for r, row in a.items():
            acc = out.setdefault(r, {})
            for c, x in row.items():
                acc[c] = acc.get(c, ZERO) + s * x
    out = {r: {c: v for c, v in row.items() if v} for r, row in out.items()}
    return {r: row for r, row in out.items() if row}


def _scombine(mats, vec):
    return _sadd(*((c, mats[a]) for a, c in enumerate(vec) if c))


def _flat(a, m: int):
    return [a.get(r, {}).get(c, ZERO) for r in range(m) for c in range(m)]


def combine(mats, vec, m: int):
    out = zeros(m, m)
    for a, c in enumerate(vec):
        if c:
            out = madd(out, mats[a], c)
    return out


def module_residuals(alg, rep):
    """The four Leibniz-module sections of the check report, in report order."""
    d = alg[0]
    m = rep[0]
    left, right = [_sparse(x) for x in rep[1]], [_sparse(x) for x in rep[2]]
    out = []
    for i in range(d):
        li, ri = left[i], right[i]
        for j in range(d):
            lj, rj = left[j], right[j]
            bij = bracket_basis(alg, i, j)
            lb, rb = _scombine(left, bij), _scombine(right, bij)
            lirj, rjli = _smul(li, rj), _smul(rj, li)
            cases = (
                ("left-left", _sadd((ONE, lb), (-ONE, _smul(li, lj)), (ONE, _smul(lj, li)))),
                ("left-right", _sadd((ONE, rb), (-ONE, lirj), (ONE, rjli))),
                ("right-right", _sadd((ONE, rb), (-ONE, lirj), (-ONE, _smul(rj, ri)))),
                ("right-absorb", _sadd((ONE, rjli), (ONE, _smul(rj, ri)))),
            )
            for kind, res in cases:
                if res:
                    out.append((kind, (i + 1, j + 1), _flat(res, m)))
    return out


def mrb_module_residuals(alg, op, weight, rep):
    """``rho(Kx)K_V - K_V(rho(Kx) + rho(x)K_V) - w rho(x)`` for both actions."""
    d = alg[0]
    m = rep[0]
    kv = _sparse(rep[3])
    actions = (("left", [_sparse(x) for x in rep[1]]), ("right", [_sparse(x) for x in rep[2]]))
    out = []
    for i in range(d):
        kx = column(op, i)
        for kind, mats in actions:
            rkx, rx = _scombine(mats, kx), mats[i]
            res = _sadd(
                (ONE, _smul(rkx, kv)),
                (-ONE, _smul(kv, rkx)),
                (-ONE, _smul(kv, _smul(rx, kv))),
                (-weight, rx),
            )
            if res:
                out.append((kind, (i + 1,), _flat(res, m)))
    return out


def derived(alg, op):
    """The derived bracket ``[x,y]_K = [Kx,y] + [x,Ky]``."""
    d = alg[0]
    kcols = [column(op, c) for c in range(d)]
    out = []
    for i in range(d):
        for j in range(d):
            v = [
                a + b
                for a, b in zip(
                    bracket(alg, kcols[i], basis(d, j)), bracket(alg, basis(d, i), kcols[j])
                )
            ]
            out.extend((i + 1, j + 1, k + 1, c) for k, c in enumerate(v) if c)
    return algebra(d, out)


def induced_module(alg, op, rep):
    """``rho_K(x) = rho(Kx) - K_V rho(x)`` over the derived algebra."""
    d = alg[0]
    m, left, right, kv = rep
    new_left, new_right = [], []
    for i in range(d):
        kx = column(op, i)
        new_left.append(madd(combine(left, kx, m), matmul(kv, left[i]), -ONE))
        new_right.append(madd(combine(right, kx, m), matmul(kv, right[i]), -ONE))
    return m, new_left, new_right, kv


def is_valid(alg, op=None, weight=ZERO, rep=None) -> bool:
    """All identities the structure claims: Leibniz, and the modified
    Rota-Baxter identity and module laws where an operator or module exists."""
    if leibniz_residuals(alg):
        return False
    if op is not None and mrb_residuals(alg, op, weight):
        return False
    if rep is not None and module_residuals(alg, rep):
        return False
    if op is not None and rep is not None and mrb_module_residuals(alg, op, weight, rep):
        return False
    return True


def semidirect(alg, op, rep, psi=None, chi=None):
    """Total algebra and operator of ``g + V`` twisted by a cochain pair.

    ``[x+u, y+v] = [x,y] + rhoL(x)v + rhoR(y)u + psi(x,y)`` and
    ``K(x+u) = Kx + chi(x) + K_V u``; psi maps ``(i, j)`` to a fiber vector and
    chi is an ``m x d`` matrix.  The pair is a 2-cocycle exactly when the
    result is a modified Rota-Baxter Leibniz algebra.
    """
    d, br = alg
    m, left, right, kv = rep
    out = entries(alg)
    for i in range(d):
        for b in range(m):
            for a in range(m):
                if left[i][a][b]:
                    out.append((i + 1, d + b + 1, d + a + 1, left[i][a][b]))
                if right[i][a][b]:
                    out.append((d + b + 1, i + 1, d + a + 1, right[i][a][b]))
    for (i, j), vec in (psi or {}).items():
        out.extend((i + 1, j + 1, d + a + 1, c) for a, c in enumerate(vec) if c)
    chi = chi if chi is not None else zeros(m, d)
    total_op = [list(op[r]) + [ZERO] * m for r in range(d)]
    total_op += [list(chi[a]) + list(kv[a]) for a in range(m)]
    return algebra(d + m, out), total_op


def coboundary(alg, op, rep, gamma):
    """The cone coboundary ``(delta gamma, -phi gamma)`` of a degree-1
    cochain ``gamma`` (an ``m x d`` matrix):
    ``psi(x,y) = rhoL(x)gamma(y) + rhoR(y)gamma(x) - gamma([x,y])`` and
    ``chi(x) = -(gamma(Kx) - K_V gamma(x))``."""
    d = alg[0]
    m, left, right, kv = rep
    gcols = [column(gamma, c) for c in range(d)]
    psi = {}
    for i in range(d):
        for j in range(d):
            v = [
                a + b - c
                for a, b, c in zip(
                    apply(left[i], gcols[j]),
                    apply(right[j], gcols[i]),
                    apply(gamma, bracket_basis(alg, i, j)),
                )
            ]
            if any(v):
                psi[(i, j)] = v
    chi = madd(matmul(kv, gamma), matmul(gamma, op), -ONE)
    return psi, chi


def morphism_ok(alg1, op1, alg2, op2, phi) -> bool:
    """``phi[x,y]_1 = [phi x, phi y]_2`` on basis pairs and ``phi K_1 = K_2 phi``."""
    d = alg1[0]
    cols = [column(phi, c) for c in range(d)]
    for i in range(d):
        for j in range(d):
            if apply(phi, bracket_basis(alg1, i, j)) != bracket(alg2, cols[i], cols[j]):
                return False
    return matmul(phi, op1) == matmul(op2, phi)


# ---------------------------------------------------------------- deformations


def _ev2(mu, d, u, v):
    """Evaluate a bilinear map ``{(i, j): {k: c}}`` on two coordinate vectors."""
    return bracket((d, mu), u, v)


def deformation_residuals(alg, op, weight, mus, kks):
    """Order-by-order residuals of the deformation equations.

    ``mus`` and ``kks`` list the bracket and operator coefficients of orders
    ``0..N`` (``mus[0]`` the algebra's ``br``, ``kks[0]`` its operator).  Returns
    one list of ``(kind, where, residual)`` per order.
    """
    d = alg[0]
    n_max = len(mus) - 1
    kcols = [[column(k, c) for c in range(d)] for k in kks]
    out = []
    for n in range(n_max + 1):
        items = []
        for a in range(d):
            x = basis(d, a)
            for b in range(d):
                y = basis(d, b)
                for c in range(d):
                    z = basis(d, c)
                    res = [ZERO] * d
                    for i in range(n + 1):
                        mi, mj = mus[i], mus[n - i]
                        t1 = _ev2(mi, d, x, _ev2(mj, d, y, z))
                        t2 = _ev2(mi, d, _ev2(mj, d, x, y), z)
                        t3 = _ev2(mi, d, y, _ev2(mj, d, x, z))
                        res = [r + p - q - s for r, p, q, s in zip(res, t1, t2, t3)]
                    if any(res):
                        items.append(("leibniz", (a + 1, b + 1, c + 1), res))
        for a in range(d):
            x = basis(d, a)
            for b in range(d):
                y = basis(d, b)
                res = [ZERO] * d
                for i in range(n + 1):
                    for j in range(n + 1 - i):
                        k = n - i - j
                        kjx, kky, kkx = kcols[j][a], kcols[k][b], kcols[k][a]
                        t = _ev2(mus[i], d, kjx, kky)
                        inner = [
                            p + q
                            for p, q in zip(_ev2(mus[j], d, kkx, y), _ev2(mus[j], d, x, kky))
                        ]
                        res = [r + p - q for r, p, q in zip(res, t, apply(kks[i], inner))]
                res = [r - weight * q for r, q in zip(res, _ev2(mus[n], d, x, y))]
                if any(res):
                    items.append(("operator", (a + 1, b + 1), res))
        out.append(items)
    return out


def pull_back(alg, op, psis):
    """Pull the trivial deformation back through ``psi_t = sum psi_n t^n``
    (``psis[0]`` the identity), modulo ``t^(N+1)``: returns the coefficients
    ``mus``, ``kks`` of ``psi_t^-1 mu (psi_t x psi_t)`` and ``psi_t^-1 K psi_t``."""
    d, br = alg
    order = len(psis) - 1
    inv = [identity(d)]
    for n in range(1, order + 1):
        acc = zeros(d, d)
        for a in range(1, n + 1):
            acc = madd(acc, matmul(psis[a], inv[n - a]))
        inv.append(mscale(acc, -ONE))
    cols = [[column(p, c) for c in range(d)] for p in psis]
    mus, kks = [], []
    for n in range(order + 1):
        mu = {}
        for i in range(d):
            for j in range(d):
                acc = [ZERO] * d
                for a in range(n + 1):
                    for b in range(n + 1 - a):
                        c = n - a - b
                        img = apply(inv[a], bracket(alg, cols[b][i], cols[c][j]))
                        acc = [p + q for p, q in zip(acc, img)]
                col = {k: v for k, v in enumerate(acc) if v}
                if col:
                    mu[(i, j)] = col
        mus.append(mu)
        k_n = zeros(d, d)
        for a in range(n + 1):
            k_n = madd(k_n, matmul(matmul(inv[a], op), psis[n - a]))
        kks.append(k_n)
    return mus, kks


# ---------------------------------------------------------------- documents


def matrix_json(m):
    return [[fmt(x) for x in row] for row in m]


def document_json(alg, op=None, weight=ZERO, rep=None):
    """The canonical document object, in the key and entry order mrbleib's
    format specifies."""
    out = {
        "field": "rational",
        "algebra": {
            "dim": alg[0],
            "bracket": [[i, j, k, fmt(c)] for i, j, k, c in entries(alg)],
        },
    }
    if op is not None:
        out["operator"] = {"weight": fmt(weight), "matrix": matrix_json(op)}
    if rep is not None:
        m, left, right, kv = rep
        out["representation"] = {
            "dimV": m,
            "rhoL": [matrix_json(x) for x in left],
            "rhoR": [matrix_json(x) for x in right],
            "kV": matrix_json(kv),
        }
    return out


def dumps(obj) -> str:
    """Serialization used for documents and for expected reports."""
    return json.dumps(obj, indent=2) + "\n"


def section(name: str, items):
    """A report section from ``(kind, where, residual)`` triples."""
    return {
        "name": name,
        "status": "fail" if items else "pass",
        "residuals": [
            {"kind": kind, "at": list(where), "value": [fmt(v) for v in res]}
            for kind, where, res in items
        ],
    }


def report(command: str, text: str, sections, result=None) -> str:
    """The exact standard output mrbleib's CLI owes for a report."""
    out = {
        "command": command,
        "inputDigest": digest(text),
        "sections": sections,
        "status": "pass" if all(s["status"] == "pass" for s in sections) else "fail",
    }
    if result is not None:
        out["result"] = result
    return json.dumps(out, indent=2) + "\n"
