"""Seeded request lists for the benchmark's four workloads.

``requests(workload, seed, pass_index, seen)`` builds one pass: a list of
CLI requests, each with its input files and a verdict function for its
exit code and standard output.  Every input comes from a ``random.Random``
seeded with the workload, seed and pass, and every structure is checked by
the independent evaluator in ``oracle`` before it is used, so the same seed
gives byte-identical inputs and validity never rests on mrbleib itself.

Each pass has a fixed list of slots (family, operator kind, degree); the
seed only picks constants, basis changes and defects inside a slot, so
every seed costs about the same.  ``seen`` holds every document text of the
run so far and no document repeats: a memo shared across requests cannot
win anything a one-process-per-command user would not see.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable

import oracle as o

DEFAULT_SEED = 0
WORKLOADS = ("coh-sparse", "coh-dense", "check-search", "session-mix")
ONE, ZERO = o.ONE, o.ZERO
# Structure constants: nonzero integers of at most two digits.  The range is
# wide so that a family with one constant still has thousands of distinct
# documents, and small enough that every product stays a one-digit int.
CONSTS = tuple(c for c in range(-99, 100) if c)
GRID = (-1, 0, 1)


@dataclass
class Request:
    """One CLI invocation.

    ``argv`` names input files as ``@name`` tokens that the runner replaces
    by paths; a token with no entry in ``files`` names a file that does not
    exist.  ``verify(code, stdout, reference_stdout)`` returns None when the
    outcome is correct, else the reason it is not.  ``reference`` is an
    optional second request whose standard output ``verify`` compares with.
    ``contract_break`` marks kinds on which the unmodified program is known
    to break its exit-code contract; they still count as failures.
    """

    kind: str
    argv: list
    files: dict
    verify: Callable
    reference: "Request | None" = None
    contract_break: bool = False
    unique: tuple = ()


# ---------------------------------------------------------------- helpers


def diag(*vals):
    n = len(vals)
    return [[Fraction(vals[r]) if r == c else ZERO for c in range(n)] for r in range(n)]


def signed_perm(rng, d):
    perm = list(range(d))
    rng.shuffle(perm)
    p = o.zeros(d, d)
    for c, r in enumerate(perm):
        p[r][c] = rng.choice((ONE, -ONE))
    return p


def integer_basis_change(rng, d, dets=None):
    """``L U`` with unit lower ``L`` and upper ``U`` of diagonal ``dets`` (ones
    by default); every off-diagonal entry of both is drawn from {-1, 1}."""
    dets = list(dets or [1] * d)
    rng.shuffle(dets)
    low = [[ONE if r == c else (Fraction(rng.choice((-1, 1))) if r > c else ZERO)
            for c in range(d)] for r in range(d)]
    up = [[Fraction(dets[r]) if r == c else (Fraction(rng.choice((-1, 1))) if r < c else ZERO)
           for c in range(d)] for r in range(d)]
    return o.matmul(low, up)


def scramble(rng, alg, op):
    """Carry a structure over by a random signed permutation of the basis."""
    return o.transport(alg, op, signed_perm(rng, alg[0]))


def require(valid: bool):
    """Refuse a generated input the evaluator rejects (a generator bug)."""
    if not valid:
        raise RuntimeError("generated structure fails the evaluator")


def doc_text(alg, op=None, weight=ZERO, rep=None) -> str:
    return o.dumps(o.document_json(alg, op, weight, rep))


def fresh(rng, seen, make):
    """Call ``make(rng)`` until the texts it returns (its first item) are all
    new to the run; a None text means the draw was rejected."""
    for _ in range(1000):
        out = make(rng)
        texts = out[0]
        if None not in texts and not any(t in seen for t in texts):
            seen.update(texts)
            return out
    raise RuntimeError("generator cannot find an unused document")


def expect_exact(expected_code, expected_out):
    def verify(code, out, _ref):
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        if out != expected_out:
            return "report differs from the evaluator's"
        return None
    return verify


def expect_usage_error(codes=(2,)):
    def verify(code, out, _ref):
        if code not in codes:
            return f"exit {code}, expected {' or '.join(map(str, codes))}"
        if code == 2 and out:
            return "usage error printed a report"
        return None
    return verify


def parse_matrix(rows):
    return [[o.parse(x) for x in row] for row in rows]


# ---------------------------------------------------------------- families
#
# Each family returns (algebra, operator, weight) in the evaluator's form.


def g3_k0(rng):
    """[e1,e1] = c e3 with the idempotent diag(1,0,0) of weight 1."""
    return o.algebra(3, [(1, 1, 3, rng.choice(CONSTS))]), diag(1, 0, 0), ONE


def g3_split(rng, s=None):
    """[e1,e1] = c e3 split into the subalgebras <e1,e3> and <e2>."""
    s = s or rng.choice((1, 2, 3))
    return o.algebra(3, [(1, 1, 3, rng.choice(CONSTS))]), diag(-s, s, -s), Fraction(-s * s)


def null_filiform(rng, d, s=None):
    """[e1,e_i] = c_i e_{i+1}, with the scalar operator s id of weight -s^2."""
    s = s or rng.choice((1, 2, 3))
    consts = [(1, i, i + 1, rng.choice(CONSTS)) for i in range(1, d)]
    return o.algebra(d, consts), diag(*[s] * d), Fraction(-s * s)


def aff_split(rng, s=None):
    """[e1,e2] = c e2 = -[e2,e1] split into <e1> and <e2>."""
    s = s or rng.choice((1, 2, 3))
    c = rng.choice(CONSTS)
    sign = rng.choice((1, -1))
    return (o.algebra(2, [(1, 2, 2, c), (2, 1, 2, -c)]), diag(sign * s, -sign * s),
            Fraction(-s * s))


def aff_rot(rng, a=None):
    """[e1,e2] = c e2 = -[e2,e1] with a times the rotation, of weight a^2."""
    c, a = rng.choice(CONSTS), a or rng.choice((1, 2))
    rot = [[ZERO, Fraction(-a)], [Fraction(a), ZERO]]
    return o.algebra(2, [(1, 2, 2, c), (2, 1, 2, -c)]), rot, Fraction(a * a)


SL2 = [(1, 2, 3, 1), (2, 1, 3, -1), (3, 1, 1, 2), (1, 3, 1, -2), (3, 2, 2, -2), (2, 3, 2, 2)]
# s (P_- - P_+) for the vector-space splittings of sl2 = <e,f,h> into two
# subalgebras; all are modified Rota-Baxter operators of weight -s^2
SL2_SPLITS = ((-1, 1, -1), (1, -1, -1), (1, -1, 1))


def sl2_split(rng, s=None, split=None):
    s = s or rng.choice((1, 2, 3))
    signs = split or rng.choice(SL2_SPLITS)
    return o.algebra(3, SL2), diag(*[s * x for x in signs]), Fraction(-s * s)


def sl2_centre(rng, s=None, split=None):
    """sl2 + a one-dimensional centre; the operator acts on the centre by +-s."""
    s = s or rng.choice((1, 2, 3))
    signs = split or rng.choice(SL2_SPLITS)
    return (o.algebra(4, SL2), diag(*[s * x for x in signs], s * rng.choice((1, -1))),
            Fraction(-s * s))


SMALL_FAMILIES = (
    g3_k0, g3_split, lambda r: null_filiform(r, 3), lambda r: null_filiform(r, 2),
    aff_split, aff_rot, sl2_split,
)


def small(rng, k):
    """The ``k``-th small family (cyclically) with random constants, scrambled;
    cycling keeps the mix of families, and so the cost, the same in every pass."""
    alg, op, w = SMALL_FAMILIES[k % len(SMALL_FAMILIES)](rng)
    alg, op = scramble(rng, alg, op)
    alg, op = o.transport(alg, op, diag(*(rng.choice((1, 2, 3)) for _ in range(alg[0]))))
    require(o.is_valid(alg, op, w, o.regular_module(alg, op)))
    return alg, op, w


# ---------------------------------------------------------------- cohomology


def table_problem(result, d, dim_v, has_op, max_degree):
    """Structural checks any correct cohomology report passes, on any seed."""
    names = ("leibniz", "operator", "cone") if has_op else ("leibniz",)
    if sorted(k for k in result if k in ("leibniz", "operator", "cone")) != sorted(names):
        return "wrong set of complexes"
    if result.get("maxDegree") != max_degree:
        return "wrong maxDegree"
    for name in names:
        table = result[name]

        def dim(n):
            if name != "cone":
                return dim_v * d ** n
            return dim_v if n == 0 else dim_v * d ** n + dim_v * d ** (n - 1)

        dims, ranks, homs = table["cochainDims"], table["differentialRanks"], table["cohomologyDims"]
        if dims != [dim(n) for n in range(max_degree + 1)]:
            return f"{name}: cochainDims differ from dim_v * d^n"
        if len(ranks) != max_degree + 1 or len(homs) != max_degree + 1:
            return f"{name}: table length"
        for n, r in enumerate(ranks):
            if not 0 <= r <= min(dim(n), dim(n + 1)):
                return f"{name}: rank {r} exceeds the matrix size in degree {n}"
            prev = ranks[n - 1] if n else 0
            if homs[n] != dims[n] - r - prev or homs[n] < 0:
                return f"{name}: cohomology dimension inconsistent in degree {n}"
    return None


def cohomology_request(text, d, dim_v, has_op, degree, reference=None):
    def verify(code, out, ref_out):
        if code != 0:
            return f"exit {code}, expected 0"
        report = json.loads(out)
        problem = table_problem(report["result"], d, dim_v, has_op, degree)
        if problem:
            return problem
        if reference is not None and json.loads(ref_out)["result"] != report["result"]:
            return "tables differ from those of the unrotated algebra"
        return None

    argv = ["cohomology", "@doc", "--max-degree", str(degree)]
    return Request("cohomology", argv, {"doc": text}, verify, reference, unique=(text,))


def coh_sparse_slot(rng, seen, family, degree, trivial_kv=None):
    def build(r):
        alg, op, w = family(r)
        alg, op = scramble(r, alg, op)
        rep = None
        if trivial_kv is not None:
            rep = o.trivial_module(alg[0], [[Fraction(r.choice(trivial_kv))]])
            require(o.is_valid(alg, op, w, rep))
        else:
            require(o.is_valid(alg, op, w, o.regular_module(alg, op)))
        text = doc_text(alg, op, w, rep)
        return (text,), alg, rep

    (text,), alg, rep = fresh(rng, seen, build)
    dim_v = rep[0] if rep else alg[0]
    return cohomology_request(text, alg[0], dim_v, True, degree)


def coh_sparse(rng, seen):
    """Sparse small-integer algebras: assembly dominates, elimination is cheap.

    Three dim-2 degree-4 slots of about the same cost sit in the middle of
    the cost order, with two cheaper and two costlier slots around them, so
    the median request time lands in the middle of one group of alike
    requests instead of on the gap between two."""
    slot = lambda fam, deg, kv=None: coh_sparse_slot(rng, seen, fam, deg, kv)
    return [
        slot(g3_k0, 3),
        slot(partial(null_filiform, d=3, s=1), 2),
        slot(g3_k0, 4, kv=(2, 3, -1, -2)),
        slot(partial(null_filiform, d=2, s=2), 4),
        slot(partial(aff_split, s=1), 4),
        slot(partial(aff_rot, a=2), 4),
        slot(partial(g3_split, s=1), 2),
    ]


def coh_dense_slot(rng, seen, slot, family, degree, dets):
    """A rotated algebra: the basis change is a fixed integer matrix per slot
    (so every seed costs about the same) times a random signed permutation,
    and the seed picks the operator's splitting."""
    base_change = integer_basis_change(random.Random(f"coh-dense/rotation/{slot}"), len(dets), dets)

    def build(r):
        alg, op, w = family(r)
        require(o.is_valid(alg, op, w, o.regular_module(alg, op)))
        plain = doc_text(alg, op, w)
        p = o.matmul(signed_perm(r, alg[0]), base_change)
        alg2, op2 = o.transport(alg, op, p)
        require(o.is_valid(alg2, op2, w, o.regular_module(alg2, op2)))
        return (doc_text(alg2, op2, w),), plain, alg2

    (text,), plain, alg = fresh(rng, seen, build)
    ref = cohomology_request(plain, alg[0], alg[0], True, degree)
    return cohomology_request(text, alg[0], alg[0], True, degree, reference=ref)


def coh_dense(rng, seen):
    """Semisimple and reductive algebras in an integer basis with determinant
    2 or 3: dense constants with fractions, so elimination carries real
    coefficient growth."""
    slots = [(partial(sl2_split, s=1), 2, (2, 1, 1))] * 5
    slots += [
        (partial(sl2_centre, s=1), 2, (2, 1, 1, 1)),
        (partial(aff_split, s=2), 3, (2, 1)),
    ]
    return [coh_dense_slot(rng, seen, n, *slot) for n, slot in enumerate(slots)]


# ---------------------------------------------------------------- check


def check_expected(text, alg, op, w, rep):
    """Exit code and exact report of ``check`` by the evaluator."""
    sections = [o.section("leibniz", [("leibniz", t, r) for t, r in o.leibniz_residuals(alg)])]
    eff = rep if rep is not None else (o.regular_module(alg, op) if op is not None else None)
    if op is not None:
        sections.append(o.section("mrb", [("mrb", t, r) for t, r in o.mrb_residuals(alg, op, w)]))
    if eff is not None:
        sections.append(o.section("representation", o.module_residuals(alg, eff)))
    if op is not None and eff is not None:
        sections.append(
            o.section("mrb-representation", o.mrb_module_residuals(alg, op, w, eff))
        )
    out = o.report("check", text, sections)
    return (0 if all(s["status"] == "pass" for s in sections) else 1), out


def check_request(text, alg, op, w, rep=None, kind="check"):
    code, out = check_expected(text, alg, op, w, rep)
    return Request(kind, ["check", "@doc"], {"doc": text}, expect_exact(code, out), unique=(text,))


# Blocks of weight -1 for the big checks, by name: (dimension, maker).
BLOCKS = {
    "g3-split": (3, lambda r: g3_split(r, 1)),
    "g3-sign": (3, lambda r: (g3_k0(r)[0], diag(*[r.choice((1, -1))] * 3), -ONE)),
    "filiform3": (3, lambda r: null_filiform(r, 3, 1)),
    "sl2": (3, lambda r: sl2_split(r, 1)),
    "aff": (2, lambda r: aff_split(r, 1)),
    "filiform2": (2, lambda r: null_filiform(r, 2, 1)),
    "line": (1, lambda r: (o.algebra(1, []), diag(r.choice((1, -1))), -ONE)),
}


def block_sum(rng, layout):
    """A direct sum of the named blocks with a block-diagonal operator of
    weight -1, scrambled by a signed permutation.  The layout is fixed per
    slot, so the seed changes constants and basis but not the cost."""
    entries, ops, used = [], [], 0
    for name in layout:
        size, make = BLOCKS[name]
        alg, op, w = make(rng)
        require(w == -ONE and alg[0] == size)
        entries += [(i + used, j + used, k + used, c) for i, j, k, c in o.entries(alg)]
        ops.append(op)
        used += size
    big = o.zeros(used, used)
    at = 0
    for op in ops:
        for r, row in enumerate(op):
            for c, x in enumerate(row):
                big[at + r][at + c] = x
        at += len(op)
    return scramble(rng, o.algebra(used, entries), big)


def big_check(rng, seen, layout, defect):
    """``check`` on a dim-12..16 block sum; ``defect`` is None, "bracket" or
    "operator".  A defect is one changed constant or operator entry, placed
    where the evaluator sees the identities fail."""
    def build(r):
        alg, op = block_sum(r, layout)
        dim, w = alg[0], -ONE
        if defect == "bracket":
            i, j, k = (r.randrange(dim) + 1 for _ in range(3))
            ents = [e for e in o.entries(alg) if e[:3] != (i, j, k)]
            alg = o.algebra(dim, ents + [(i, j, k, r.choice(CONSTS))])
        elif defect == "operator":
            a, b = r.randrange(dim), r.randrange(dim)
            op = [list(row) for row in op]
            op[a][b] += r.choice((1, -1))
        valid = o.is_valid(alg, op, w, o.regular_module(alg, op))
        if valid != (defect is None):
            return (None,), None, None
        return (doc_text(alg, op, w),), alg, op

    (text,), alg, op = fresh(rng, seen, build)
    return check_request(text, alg, op, -ONE, kind=f"check-{defect or 'valid'}")


def search_request(rng, seen, pinned, family=g3_k0, mask_text=None, kind="search"):
    """Grid search over dim-3 operators of ``family`` with ``pinned`` entries
    taken from a known solution; the evaluator enumerates the same grid for
    the answer."""
    def make(r):
        alg, op, w = family(r)
        alg, op = scramble(r, alg, op)
        return (doc_text(alg),), alg, op, w

    (text,), alg, op, w = fresh(rng, seen, make)
    cells = [(i, j) for i in range(3) for j in range(3)]
    mask = dict((c, op[c[0]][c[1]]) for c in rng.sample(cells, pinned))
    free = [c for c in cells if c not in mask]
    grid = [Fraction(g) for g in GRID]
    solutions = []
    for values in itertools.product(grid, repeat=len(free)):
        cand = o.zeros(3, 3)
        for (i, j), v in itertools.chain(mask.items(), zip(free, values)):
            cand[i][j] = v
        if not o.mrb_residuals(alg, cand, w):
            solutions.append(cand)
    result = {
        "weight": o.fmt(w),
        "grid": [o.fmt(g) for g in grid],
        "count": len(solutions),
        "solutions": [o.matrix_json(m) for m in solutions],
    }
    if mask_text is None:
        mask_text = json.dumps(
            {"entries": [[i + 1, j + 1, o.fmt(v)] for (i, j), v in sorted(mask.items())]}
        )
        verify = expect_exact(0, o.report("search", text, [], result))
    else:
        verify = expect_usage_error()
    argv = ["search", "@doc", f"--weight={o.fmt(w)}", "--grid=" + ",".join(map(str, GRID)),
            "--mask", "@mask"]
    return Request(kind, argv, {"doc": text, "mask": mask_text}, verify, unique=(text,),
                   contract_break=kind == "search-mask-not-json")


# The big checks, one per pass in turn: (blocks, defect).
BIG_CHECKS = (
    (("sl2", "g3-sign", "filiform3", "aff", "line"), None),
    (("sl2", "g3-split", "filiform3", "aff", "line"), "bracket"),
    (("g3-split", "sl2", "filiform3", "filiform2", "line"), "operator"),
)


def check_search(rng, seen, pass_index):
    """A defect check on a dim-12 block sum plus two operator grid
    searches: no differential is assembled and no matrix is reduced.  The
    pass is short, so a run has a dozen of them to take the median over."""
    layout, defect = BIG_CHECKS[pass_index % len(BIG_CHECKS)]
    return [
        big_check(rng, seen, layout, defect),
        search_request(rng, seen, 3, partial(null_filiform, d=3, s=1)),
        search_request(rng, seen, 4, partial(g3_split, s=1)),
    ]


# ---------------------------------------------------------------- session mix


def derived_request(rng, seen, k):
    def make(r):
        alg, op, w = small(r, k)
        return (doc_text(alg, op, w),), alg, op, w

    (text,), alg, op, w = fresh(rng, seen, make)
    dalg = o.derived(alg, op)
    ind = o.induced_module(alg, op, o.regular_module(alg, op))
    require(o.is_valid(dalg, op, w, ind))
    out = o.report("derived", text, [], o.document_json(dalg, op, w, ind))
    return Request("derived", ["derived", "@doc"], {"doc": text}, expect_exact(0, out),
                   unique=(text,))


def small_check(rng, seen, k, defect):
    def make(r):
        alg, op, w = small(r, k)
        rep = None
        if k % 3 == 2:
            rep = o.trivial_module(alg[0], diag(*[r.choice((1, 2, -1))] * r.choice((1, 2))))
        if defect:
            d = alg[0]
            at = tuple(r.randrange(d) + 1 for _ in range(3))
            ents = [e for e in o.entries(alg) if e[:3] != at] + [at + (r.choice(CONSTS),)]
            alg = o.algebra(d, ents)
            if o.is_valid(alg, op, w, rep or o.regular_module(alg, op)):
                return (None,), None, None, None, None
        return (doc_text(alg, op, w, rep),), alg, op, w, rep

    (text,), alg, op, w, rep = fresh(rng, seen, make)
    return check_request(text, alg, op, w, rep, kind="check-defect" if defect else "check")


def small_cohomology(rng, seen, k, degree):
    def make(r):
        alg, op, w = small(r, k)
        if k % len(SMALL_FAMILIES) == 2:  # the null-filiform family, without operator
            return (doc_text(alg),), alg, False
        return (doc_text(alg, op, w),), alg, True

    (text,), alg, has_op = fresh(rng, seen, make)
    return cohomology_request(text, alg[0], alg[0], has_op, degree)


def mu_entries(mu):
    """Sparse ``[i, j, k, c]`` entries of a bilinear map, in document order."""
    return [[i + 1, j + 1, t + 1, o.fmt(c)]
            for (i, j), col in sorted(mu.items()) for t, c in sorted(col.items()) if c]


def deformation(rng, seen, k, order, broken=False):
    """A base document and a deformation file pulled back from the trivial
    deformation by a random formal isomorphism (or one broken at the top order)."""
    def make(r):
        alg, op, w = small(r, k)
        d = alg[0]
        psis = [o.identity(d)] + [
            [[Fraction(r.choice((-1, 0, 0, 1))) for _ in range(d)] for _ in range(d)]
            for _ in range(order)
        ]
        mus, kks = o.pull_back(alg, op, psis)
        if broken:
            a, b, c = (r.randrange(d) for _ in range(3))
            top = {key: dict(col) for key, col in mus[order].items()}
            col = top.setdefault((a, b), {})
            col[c] = col.get(c, ZERO) + r.choice((1, -1))
            mus[order] = top
        base = doc_text(alg, op, w)
        res = o.deformation_residuals(alg, op, w, mus, kks)
        if any(res) != broken or (not broken and not any(mus[1]) and o.is_zero(kks[1])):
            return (None, None), None
        dfm = {
            "field": "rational",
            "baseDigest": o.digest(base),
            "order": order,
            "mu": [mu_entries(mu) for mu in mus[1:]],
            "kk": [o.matrix_json(kn) for kn in kks[1:]],
        }
        return (base, o.dumps(dfm)), (alg, op, w, mus, kks, res)

    return fresh(rng, seen, make)


def deform_request(rng, seen, k, sub, broken=False):
    (base, dfm), (alg, op, w, mus, kks, res) = deformation(rng, seen, k, 2, broken)
    d = alg[0]
    argv = ["deform", sub, "@doc", "--deformation", "@dfm"]
    files = {"doc": base, "dfm": dfm}
    if sub == "verify":
        sections = [o.section(f"order-{n}", items) for n, items in enumerate(res)]
        verify = expect_exact(1 if broken else 0, o.report("deform verify", base, sections))
    elif sub == "infinitesimal":
        result = {"mu1": mu_entries(mus[1]), "k1": o.matrix_json(kks[1]), "cocycle": True,
                  "coboundary": True}
        verify = expect_exact(0, o.report("deform infinitesimal", base, [], result))
    else:
        def verify(code, out, _ref):
            if code != 0:
                return f"exit {code}, expected 0"
            got = json.loads(out)["result"]
            if got["baseDigest"] != o.digest(base) or got["order"] != 2:
                return "gauged deformation has the wrong base or order"
            if got["mu"][0] or not o.is_zero(parse_matrix(got["kk"][0])):
                return "gauged deformation keeps order-1 terms"
            new_mus = [mus[0]] + [
                o.algebra(d, [(i, j, t, o.parse(c)) for i, j, t, c in block])[1]
                for block in got["mu"]
            ]
            new_kks = [op] + [parse_matrix(kn) for kn in got["kk"]]
            if any(o.deformation_residuals(alg, op, w, new_mus, new_kks)):
                return "gauged deformation fails the deformation equations"
            return None
    return Request(f"deform-{sub}" + ("-broken" if broken else ""), argv, files, verify,
                   unique=(base, dfm))


def ext_base(rng, k, abelian):
    """Base structure, module and a cocycle maker for extension requests.

    Either a small algebra with its regular module, where cocycles are
    coboundaries of random gamma, or an abelian base with K = diag(+-s) of
    weight -s^2 and the trivial module with K_V = diag(+-s).  There psi may
    be nonzero exactly where (s_i - t_a)(s_j - t_a) = 0, chi is free, and every
    coboundary has psi = 0, so pairs with different psi are never cohomologous.
    """
    if not abelian:
        alg, op, w = small(rng, k)
        rep = o.regular_module(alg, op)
        d, m = alg[0], rep[0]

        def cocycle(r):
            gamma = [[Fraction(r.choice((-1, 0, 1))) for _ in range(d)] for _ in range(m)]
            return o.coboundary(alg, op, rep, gamma)
        return alg, op, w, rep, None, cocycle
    # s ranges widely: the diagonal operators are the only freedom an abelian
    # base has, and every request needs a base document of its own
    d, m, s = 2 + k % 2, 1 + k // 2 % 2, rng.randrange(1, 100)
    ks = [s * rng.choice((1, -1)) for _ in range(d)]
    ts = [s * rng.choice((1, -1)) for _ in range(m)]
    alg, op, w = o.algebra(d, []), diag(*ks), Fraction(-s * s)
    rep = o.trivial_module(d, diag(*ts))

    def cocycle(r):
        psi = {}
        for i in range(d):
            for j in range(d):
                v = [Fraction(r.choice((-1, 0, 1))) if t in (ks[i], ks[j]) else ZERO
                     for t in ts]
                if any(v):
                    psi[(i, j)] = v
        chi = [[Fraction(r.choice((-1, 0, 1))) for _ in range(d)] for _ in range(m)]
        return psi, chi
    return alg, op, w, rep, rep, cocycle


def cocycle_json(base_text, d, m, psi, chi):
    return o.dumps({
        "field": "rational",
        "baseDigest": o.digest(base_text),
        "psi": [[i + 1, j + 1, a + 1, o.fmt(c)]
                for (i, j), v in sorted(psi.items()) for a, c in enumerate(v) if c],
        "chi": [[i + 1, a + 1, o.fmt(chi[a][i])] for i in range(d) for a in range(m)
                if chi[a][i]],
    })


def extension_json(alg, op, w, rep, total, total_op, incl=None, proj=None):
    d, m = alg[0], rep[0]
    if incl is None:
        incl = [[ZERO] * m for _ in range(d)] + o.identity(m)
        proj = [list(row) + [ZERO] * m for row in o.identity(d)]
    return {
        "field": "rational",
        "base": o.document_json(alg, op, w),
        "total": o.document_json(total, total_op, w),
        "incl": o.matrix_json(incl),
        "proj": o.matrix_json(proj),
        "fiberOp": o.matrix_json(rep[3]),
    }


def add_pairs(a, b, s=ONE):
    (psi1, chi1), (psi2, chi2) = a, b
    psi = {}
    for key in set(psi1) | set(psi2):
        m = len(next(iter((psi1 or psi2).values())))
        v = [x + s * y for x, y in zip(psi1.get(key, [ZERO] * m), psi2.get(key, [ZERO] * m))]
        if any(v):
            psi[key] = v
    return psi, o.madd(chi1, chi2, s)


def extend_build(rng, seen, k, broken=False):
    def make(r):
        alg, op, w, rep, explicit, cocycle = ext_base(r, k, abelian=k % 2 == 1)
        alg_doc = doc_text(alg, op, w, explicit)
        psi, chi = cocycle(r)
        d, m = alg[0], rep[0]
        if broken:
            i, j, a = r.randrange(d), r.randrange(d), r.randrange(m)
            v = list(psi.get((i, j), [ZERO] * m))
            v[a] += r.choice((1, -1))
            psi = dict(psi)
            psi[(i, j)] = v
        total, total_op = o.semidirect(alg, op, rep, psi, chi)
        if o.is_valid(total, total_op, w) == broken:
            return (None, None), None
        ctext = cocycle_json(alg_doc, d, m, psi, chi)
        return (alg_doc, ctext), (alg, op, w, rep, total, total_op)

    (doc, ctext), (alg, op, w, rep, total, total_op) = fresh(rng, seen, make)
    if broken:
        def verify(code, out, _ref):
            if code != 1:
                return f"exit {code}, expected 1"
            report = json.loads(out)
            sec = report["sections"]
            if "result" in report or sec[0]["name"] != "cocycle" or not sec[0]["residuals"]:
                return "non-cocycle not reported with its residuals"
            return None
    else:
        sections = [{"name": "cocycle", "status": "pass", "residuals": []}]
        result = extension_json(alg, op, w, rep, total, total_op)
        verify = expect_exact(0, o.report("extend build", doc, sections, result))
    argv = ["extend", "build", "@doc", "--cocycle", "@cocycle"]
    return Request("extend-build" + ("-broken" if broken else ""), argv,
                   {"doc": doc, "cocycle": ctext}, verify, unique=(doc, ctext))


def _pairs_from_result(cocycle, d, m):
    psi = {}
    for i, j, a, c in cocycle["psi"]:
        psi.setdefault((i - 1, j - 1), [ZERO] * m)[a - 1] = o.parse(c)
    chi = o.zeros(m, d)
    for i, a, c in cocycle["chi"]:
        chi[a - 1][i - 1] = o.parse(c)
    return psi, chi


def extend_extract(rng, seen, k):
    """An extension in a scrambled basis of the total space, so the section
    and retraction are not the coordinate ones."""
    def make(r):
        alg, op, w, rep, _explicit, cocycle = ext_base(r, k, abelian=k % 2 == 1)
        psi, chi = cocycle(r)
        total, total_op = o.semidirect(alg, op, rep, psi, chi)
        d, m = alg[0], rep[0]
        q = integer_basis_change(r, d + m)
        incl = o.matmul(q, [[ZERO] * m for _ in range(d)] + o.identity(m))
        proj = o.matmul([list(row) + [ZERO] * m for row in o.identity(d)], o.inverse(q))
        total2, op2 = o.transport(total, total_op, q)
        require(o.is_valid(total2, op2, w))
        text = o.dumps(extension_json(alg, op, w, rep, total2, op2, incl, proj))
        return (text,), (alg, op, w, rep, proj)

    (text,), (alg, op, w, rep, proj) = fresh(rng, seen, make)
    d, m = alg[0], rep[0]
    base_digest = o.digest(doc_text(alg, op, w))
    rep_json = {
        "dimV": m,
        "rhoL": [o.matrix_json(x) for x in rep[1]],
        "rhoR": [o.matrix_json(x) for x in rep[2]],
        "kV": o.matrix_json(rep[3]),
    }

    def verify(code, out, _ref):
        if code != 0:
            return f"exit {code}, expected 0"
        report = json.loads(out)
        res = report["result"]
        if report["sections"] != [{"name": "validation", "status": "pass", "residuals": []}]:
            return "valid extension failed validation"
        if res["representation"] != rep_json:
            return "extracted module differs from the generating module"
        if o.matmul(proj, parse_matrix(res["section"])) != o.identity(d):
            return "section is not a right inverse of the projection"
        if res["cocycle"]["baseDigest"] != base_digest:
            return "cocycle names the wrong base"
        psi, chi = _pairs_from_result(res["cocycle"], d, m)
        if not o.is_valid(*o.semidirect(alg, op, rep, psi, chi), w):
            return "extracted pair is not a cocycle"
        return None

    return Request("extend-extract", ["extend", "extract", "@ext"], {"ext": text}, verify,
                   unique=(text,))


def extend_compare(rng, seen, k, cohomologous):
    def make(r):
        # coboundaries vanish over the abelian base, so only the regular
        # module family gives distinct cohomologous pairs
        alg, op, w, rep, explicit, cocycle = ext_base(r, k, abelian=not cohomologous)
        d, m = alg[0], rep[0]
        c0 = cocycle(r)
        if cohomologous:
            gammas = [[[Fraction(r.choice((-1, 0, 1))) for _ in range(d)] for _ in range(m)]
                      for _ in range(2)]
            pairs = [add_pairs(c0, o.coboundary(alg, op, rep, g)) for g in gammas]
        else:
            pairs = [c0, cocycle(r)]
            if not add_pairs(pairs[0], pairs[1], -ONE)[0]:
                return (None, None), None
        texts = []
        for psi, chi in pairs:
            total, total_op = o.semidirect(alg, op, rep, psi, chi)
            require(o.is_valid(total, total_op, w))
            texts.append(o.dumps(extension_json(alg, op, w, rep, total, total_op)))
        if texts[0] == texts[1]:
            return (None, None), None
        return tuple(texts), (alg, op, w, rep, pairs)

    (t1, t2), (alg, op, w, rep, pairs) = fresh(rng, seen, make)
    d, m = alg[0], rep[0]
    argv = ["extend", "compare", "@ext1", "@ext2"]
    if not cohomologous:
        sections = [{"name": "cohomologous", "status": "fail", "residuals": []}]
        verify = expect_exact(1, o.report("extend compare", t1 + t2, sections,
                                          {"cohomologous": False}))
    else:
        totals = [o.semidirect(alg, op, rep, psi, chi) for psi, chi in pairs]

        def verify(code, out, _ref):
            if code != 0:
                return f"exit {code}, expected 0"
            res = json.loads(out)["result"]
            if res.get("cohomologous") is not True or "zeta" not in res:
                return "cohomologous extensions not recognised"
            gamma = parse_matrix(res["gamma"])
            diff = add_pairs(pairs[0], pairs[1], -ONE)
            cob = o.coboundary(alg, op, rep, gamma)
            if add_pairs(diff, cob, -ONE) != ({}, o.zeros(m, d)):
                return "gamma does not bound the cocycle difference"
            if not o.morphism_ok(*totals[0], *totals[1], parse_matrix(res["zeta"])):
                return "zeta is not a morphism of the extensions"
            return None
    return Request("extend-compare" + ("" if cohomologous else "-distinct"), argv,
                   {"ext1": t1, "ext2": t2}, verify, unique=(t1, t2))


def malformed(rng, seen, k, kind):
    """Inputs the contract answers with exit 2 (or 1 for a failed property)."""
    def make(r):
        alg, op, w = small(r, k)
        good = doc_text(alg, op, w)
        if kind == "truncated-json":
            return (good[: len(good) // 2],), alg, op, w
        if kind == "index-out-of-range":
            obj = o.document_json(alg, op, w)
            obj["algebra"]["bracket"].append([1, 1, alg[0] + 1, "1"])
            return (o.dumps(obj),), alg, op, w
        if kind == "zero-denominator":
            obj = o.document_json(alg, op, w)
            obj["operator"]["matrix"][0][0] = "1/0"
            return (o.dumps(obj),), alg, op, w
        if kind == "derived-not-mrb":
            bad = [list(row) for row in op]
            bad[r.randrange(alg[0])][r.randrange(alg[0])] += r.choice((2, -2))
            if o.leibniz_residuals(alg) or not o.mrb_residuals(alg, bad, w):
                return (None,), None, None, None
            return (doc_text(alg, bad, w),), alg, op, w
        if kind == "cohomology-not-leibniz":
            d = alg[0]
            ents = [e for e in o.entries(alg) if e[:3] != (1, 1, 1)] + [(1, 1, 1, 1)]
            bad = o.algebra(d, ents)
            if not o.leibniz_residuals(bad):
                return (None,), None, None, None
            return (doc_text(bad),), alg, op, w
        return (good,), alg, op, w

    (text,), alg, op, w = fresh(rng, seen, make)
    files = {"doc": text}
    argv = ["check", "@doc"]
    verify = expect_usage_error()
    breaks = False
    if kind == "derived-not-mrb":
        argv = ["derived", "@doc"]

        def verify(code, out, _ref):
            if code != 1:
                return f"exit {code}, expected 1"
            sec = json.loads(out)["sections"]
            if [s.get("error") for s in sec] != ["NotModifiedRotaBaxter"]:
                return "operator defect not reported"
            return None
    elif kind == "cohomology-not-leibniz":
        argv = ["cohomology", "@doc", "--max-degree", "2"]
        verify, breaks = expect_usage_error((1, 2)), True
    elif kind == "missing-file":
        argv, files, breaks = ["check", "@absent"], {}, True
    return Request(kind, argv, files, verify, contract_break=breaks, unique=(text,))


SESSION_MIX = (
    # (count per pass, maker(rng, seen, k) for the k-th request of the kind)
    (14, lambda r, s, k: small_check(r, s, k, False)),
    (6, lambda r, s, k: small_check(r, s, k, True)),
    (10, derived_request),
    (6, lambda r, s, k: small_cohomology(r, s, k, 0)),
    (6, lambda r, s, k: small_cohomology(r, s, k, 1)),
    (8, lambda r, s, k: small_cohomology(r, s, k, 2)),
    (6, lambda r, s, k: deform_request(r, s, k, "verify")),
    (3, lambda r, s, k: deform_request(r, s, k, "verify", broken=True)),
    (6, lambda r, s, k: deform_request(r, s, k, "infinitesimal")),
    (6, lambda r, s, k: deform_request(r, s, k, "gauge")),
    (7, extend_build),
    (2, lambda r, s, k: extend_build(r, s, k, broken=True)),
    (6, extend_extract),
    (5, lambda r, s, k: extend_compare(r, s, k, True)),
    (3, lambda r, s, k: extend_compare(r, s, k, False)),
    (1, lambda r, s, k: malformed(r, s, k, "truncated-json")),
    (1, lambda r, s, k: malformed(r, s, k, "index-out-of-range")),
    (1, lambda r, s, k: malformed(r, s, k, "zero-denominator")),
    (1, lambda r, s, k: malformed(r, s, k, "derived-not-mrb")),
    (1, lambda r, s, k: malformed(r, s, k, "missing-file")),
    (1, lambda r, s, k: malformed(r, s, k, "cohomology-not-leibniz")),
    (1, lambda r, s, k: search_request(r, s, 6, mask_text="entries: not json",
                                       kind="search-mask-not-json")),
)


def session_mix(rng, seen):
    """Over a hundred small requests of every command: per-request set-up,
    parsing and serialization weigh as much as the mathematics here."""
    out = []
    for count, maker in SESSION_MIX:
        out += [maker(rng, seen, k) for k in range(count)]
    rng.shuffle(out)
    return out


MAKERS = {
    "coh-sparse": lambda rng, seen, _pass_index: coh_sparse(rng, seen),
    "coh-dense": lambda rng, seen, _pass_index: coh_dense(rng, seen),
    "check-search": check_search,
    "session-mix": lambda rng, seen, _pass_index: session_mix(rng, seen),
}


def requests(workload: str, seed: int, pass_index: int, seen: set) -> list:
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return MAKERS[workload](rng, seen, pass_index)
