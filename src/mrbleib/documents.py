"""The JSON document format shared by the command line tools.

All rationals travel as strings "p/q" (or "p") so the format stays
precision-lossless and language-neutral.  One document describes an
algebra, optionally an operator with its weight, and optionally a
representation; deformation, cocycle and extension files are supplementary
documents that reference a base document by content digest so a mismatched
base cannot slip through silently.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .algebra import LeibnizAlgebra, OperatorContext
from .cohomology import (
    Cochain,
    ConeCochain,
    bracket_cochain,
    cochain_entries,
    cochain_from_entries,
)
from .deformation import TruncatedDeformation
from .errors import DuplicateKey, IndexOutOfRange, ParseError
from .extensions import ExtensionData
from .linalg import Matrix, format_rational, parse_rational
from .representations import Representation, regular_rep


@dataclass(frozen=True)
class AlgebraDocument:
    algebra: LeibnizAlgebra
    operator: OperatorContext | None
    representation: Representation | None

    def effective_representation(self) -> Representation | None:
        """The explicit representation, else regular when an operator exists."""
        if self.representation is not None:
            return self.representation
        if self.operator is not None:
            return regular_rep(self.algebra, self.operator)
        return None


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _is_count(x) -> bool:
    """A JSON integer >= 0; ``true`` and ``false`` are not counts."""
    return type(x) is int and x >= 0


def _is_index(x, bound: int) -> bool:
    """A JSON integer in 1..bound; ``true`` is not the index 1."""
    return type(x) is int and 1 <= x <= bound


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def _parse_matrix(obj, rows: int, cols: int, what: str) -> Matrix:
    _require(isinstance(obj, list) and len(obj) == rows, f"{what}: expected {rows} rows")
    grid = []
    for row in obj:
        _require(isinstance(row, list) and len(row) == cols, f"{what}: expected {cols} columns")
        grid.append([parse_rational(e) for e in row])
    return Matrix._dense(grid, cols)


def _matrix_json(m: Matrix):
    return [[format_rational(e) for e in row] for row in m.to_lists()]


def _cochain_json(c: Cochain, alg_dim: int):
    """A cochain's nonzero entries as [i_1, .., i_n, a, "value"] lists."""
    return [[*indices, a, format_rational(v)] for indices, a, v in cochain_entries(c, alg_dim)]


def _parse_bracket(entries, dim: int, what: str = "bracket"):
    _require(isinstance(entries, list), f"{what}: expected a list")
    seen = set()
    out = []
    for item in entries:
        _require(
            isinstance(item, list) and len(item) == 4,
            f"{what}: entries must be [i, j, k, coefficient]",
        )
        i, j, k, c = item
        for idx in (i, j, k):
            if not _is_index(idx, dim):
                raise IndexOutOfRange(f"{what}: index {idx} outside 1..{dim}")
        if (i, j, k) in seen:
            raise DuplicateKey(f"{what}: duplicate key {(i, j, k)}")
        seen.add((i, j, k))
        out.append((i, j, k, parse_rational(c)))
    return out


def parse_document(text: str) -> AlgebraDocument:
    """Parse and structurally validate an algebra document."""
    data = _load_json(text)
    _require(isinstance(data, dict), "document must be an object")
    _require(data.get("field") == "rational", 'field must be "rational"')
    alg_obj = data.get("algebra")
    _require(isinstance(alg_obj, dict), "missing algebra object")
    dim = alg_obj.get("dim")
    _require(_is_count(dim), "algebra.dim must be a count")
    # the algebra keeps a dense table of dim**3 bracket cells
    _require(dim ** 3 <= 10 ** 7, f"algebra.dim {dim} is too large: over 10**7 bracket cells")
    bracket = _parse_bracket(alg_obj.get("bracket", []), dim)
    algebra = LeibnizAlgebra(dim, bracket)
    operator = None
    if "operator" in data:
        op_obj = data["operator"]
        _require(isinstance(op_obj, dict), "operator must be an object")
        weight = parse_rational(op_obj.get("weight", "0"))
        matrix = _parse_matrix(op_obj.get("matrix"), dim, dim, "operator.matrix")
        operator = OperatorContext(matrix, weight)
    representation = None
    if "representation" in data:
        rep_obj = data["representation"]
        _require(isinstance(rep_obj, dict), "representation must be an object")
        dim_v = rep_obj.get("dimV")
        _require(_is_count(dim_v), "representation.dimV must be a count")
        for key in ("rhoL", "rhoR"):
            _require(
                isinstance(rep_obj.get(key), list) and len(rep_obj[key]) == dim,
                f"representation.{key} must list one matrix per basis vector",
            )
        rho_l = tuple(
            _parse_matrix(m, dim_v, dim_v, "representation.rhoL") for m in rep_obj["rhoL"]
        )
        rho_r = tuple(
            _parse_matrix(m, dim_v, dim_v, "representation.rhoR") for m in rep_obj["rhoR"]
        )
        k_v = _parse_matrix(rep_obj.get("kV"), dim_v, dim_v, "representation.kV")
        representation = Representation(dim_v, rho_l, rho_r, k_v)
    return AlgebraDocument(algebra, operator, representation)


def document_json(doc: AlgebraDocument):
    """Canonical JSON object for a document (stable key and entry order)."""
    out = {
        "field": "rational",
        "algebra": {
            "dim": doc.algebra.dim,
            "bracket": [
                [i, j, k, format_rational(c)] for (i, j, k), c in doc.algebra.entries
            ],
        },
    }
    if doc.operator is not None:
        out["operator"] = {
            "weight": format_rational(doc.operator.weight),
            "matrix": _matrix_json(doc.operator.operator),
        }
    if doc.representation is not None:
        out["representation"] = representation_json(doc.representation)
    return out


def representation_json(rep: Representation):
    """The "representation" object of a document."""
    return {
        "dimV": rep.dim_v,
        "rhoL": [_matrix_json(m) for m in rep.rho_left],
        "rhoR": [_matrix_json(m) for m in rep.rho_right],
        "kV": _matrix_json(rep.k_v),
    }


def serialize_document(doc: AlgebraDocument) -> str:
    return json.dumps(document_json(doc), indent=2) + "\n"


def document_digest(doc: AlgebraDocument) -> str:
    payload = serialize_document(doc).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def _check_digest(data, base_doc: AlgebraDocument, what: str):
    digest = data.get("baseDigest")
    expected = document_digest(base_doc)
    _require(
        digest == expected,
        f"{what}: baseDigest {digest!r} does not match the base document ({expected})",
    )


def parse_deformation(text: str, base: AlgebraDocument) -> TruncatedDeformation:
    """Parse a deformation file against its base document.

    Format: {"field", "baseDigest", "order": N, "mu": [bracket-entry lists,
    one per order 1..N], "kk": [d x d matrices, one per order 1..N]}.
    """
    data = _load_json(text)
    _require(isinstance(data, dict), "deformation file must be an object")
    _require(data.get("field") == "rational", 'field must be "rational"')
    _require(base.operator is not None, "deformation base document needs an operator")
    _check_digest(data, base, "deformation")
    order = data.get("order")
    _require(_is_count(order), "order must be a count")
    mu_blocks = data.get("mu", [])
    kk_blocks = data.get("kk", [])
    _require(
        isinstance(mu_blocks, list) and isinstance(kk_blocks, list),
        "mu and kk must be lists",
    )
    _require(
        len(mu_blocks) == order and len(kk_blocks) == order,
        "mu and kk must each carry one block per order 1..N",
    )
    d = base.algebra.dim
    mu = [bracket_cochain(base.algebra)]
    for block in mu_blocks:
        entries = _parse_bracket(block, d, "mu")
        mu.append(cochain_from_entries(d, d, 2, (((i, j), k, c) for i, j, k, c in entries)))
    kk = [base.operator.operator]
    for block in kk_blocks:
        kk.append(_parse_matrix(block, d, d, "kk"))
    return TruncatedDeformation(base.algebra, base.operator, tuple(mu), tuple(kk))


def deformation_json(dfm: TruncatedDeformation):
    base = AlgebraDocument(dfm.algebra, dfm.ctx, None)
    return {
        "field": "rational",
        "baseDigest": document_digest(base),
        "order": dfm.order,
        "mu": [_cochain_json(c, dfm.algebra.dim) for c in dfm.mu[1:]],
        "kk": [_matrix_json(k) for k in dfm.kk[1:]],
    }


def parse_cocycle(text: str, base: AlgebraDocument) -> ConeCochain:
    """Parse a cocycle file into a degree-2 cone cochain: psi [i, j, a, c],
    chi [i, a, c], with a indexing the fiber of the base document's module."""
    data = _load_json(text)
    _require(isinstance(data, dict), "cocycle file must be an object")
    _require(data.get("field") == "rational", 'field must be "rational"')
    _check_digest(data, base, "cocycle")
    rep = base.effective_representation()
    _require(rep is not None, "cocycle base document needs a representation or operator")
    d, m = base.algebra.dim, rep.dim_v
    halves = []
    for key, degree, shape in (("psi", 2, "[i, j, a, c]"), ("chi", 1, "[i, a, c]")):
        items = data.get(key, [])
        _require(isinstance(items, list), f"{key} must be a list")
        entries = []
        seen = set()
        for item in items:
            _require(
                isinstance(item, list) and len(item) == degree + 2, f"{key} entries are {shape}"
            )
            *indices, a, c = item
            for idx, bound in (*((i, d) for i in indices), (a, m)):
                if not _is_index(idx, bound):
                    raise IndexOutOfRange(f"{key} index {idx} outside 1..{bound}")
            if (*indices, a) in seen:
                raise DuplicateKey(f"{key} duplicate key {(*indices, a)}")
            seen.add((*indices, a))
            entries.append((indices, a, parse_rational(c)))
        halves.append(cochain_from_entries(m, d, degree, entries))
    return ConeCochain(*halves)


def cocycle_json(c: ConeCochain, base: AlgebraDocument):
    """The cocycle file of a degree-2 cone cochain (psi, chi) = (leib, op)."""
    return {
        "field": "rational",
        "baseDigest": document_digest(base),
        "psi": _cochain_json(c.leib, base.algebra.dim),
        "chi": _cochain_json(c.op, base.algebra.dim),
    }


def parse_extension(text: str) -> ExtensionData:
    """Parse an extension document bundling base and total algebra documents
    plus the inclusion, projection and fiber operator matrices."""
    data = _load_json(text)
    _require(isinstance(data, dict), "extension file must be an object")
    _require(data.get("field") == "rational", 'field must be "rational"')
    base_doc = parse_document(json.dumps(data.get("base")))
    total_doc = parse_document(json.dumps(data.get("total")))
    _require(base_doc.operator is not None, "extension base needs an operator")
    _require(total_doc.operator is not None, "extension total needs an operator")
    d = base_doc.algebra.dim
    n = total_doc.algebra.dim
    m = n - d
    _require(m >= 0, "total dimension must be at least the base dimension")
    incl = _parse_matrix(data.get("incl"), n, m, "incl")
    proj = _parse_matrix(data.get("proj"), d, n, "proj")
    fiber_op = _parse_matrix(data.get("fiberOp"), m, m, "fiberOp")
    return ExtensionData(
        total=total_doc.algebra,
        total_op=total_doc.operator,
        incl=incl,
        proj=proj,
        base=base_doc.algebra,
        base_op=base_doc.operator,
        fiber_op=fiber_op,
    )


def extension_json(ext: ExtensionData):
    return {
        "field": "rational",
        "base": document_json(AlgebraDocument(ext.base, ext.base_op, None)),
        "total": document_json(AlgebraDocument(ext.total, ext.total_op, None)),
        "incl": _matrix_json(ext.incl),
        "proj": _matrix_json(ext.proj),
        "fiberOp": _matrix_json(ext.fiber_op),
    }
