"""The JSON input layer: every file or standard input the command line
reads, and the canonical JSON it writes.

All rationals travel as strings "p/q" (or "p") so the format stays
precision-lossless and language-neutral.  One document describes an
algebra, optionally an operator with its weight, and optionally a
representation; deformation, cocycle and extension files are supplementary
documents, and the deformation and cocycle files reference a base document
by content digest so a mismatched base cannot slip through silently.  A
deformation does not depend on the module, so its base is the document
without its representation.

Every input passes ``read_text`` (a file or standard input, strictly
UTF-8), ``_load_json``, one key check per object, and ``_parse_entries`` for
each sparse list of entries ``[i_1, .., i_k, "value"]``, each index within
its bound and each index tuple at most once: ``bracket`` and ``mu`` hold
[i, j, k, c], ``psi`` [i, j, a, c], ``chi`` [i, a, c] (a over the module)
and the search mask [i, j, c].  The keys each object accepts: document
field/algebra/operator/representation; algebra dim/bracket; operator
weight/matrix; representation dimV/rhoL/rhoR/kV; deformation
field/baseDigest/order/mu/kk; cocycle field/baseDigest/psi/chi; extension
field/base/total/incl/proj/fiberOp (base and total are documents); mask
entries, which it requires.  Unreadable or non-UTF-8 input, malformed or
too deeply nested JSON, an unknown key, a wrong type, an index out of
range, a repeated index tuple and a mismatched baseDigest raise
``ParseError``, which the command line answers with exit code 2.
"""

from __future__ import annotations

import hashlib
import json
import sys
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


def read_text(path: str | None) -> str:
    """The text of the file at ``path``, or of standard input for None or
    "-"; either must be UTF-8."""
    try:
        if path is not None and path != "-":
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        if sys.stdin is None:
            raise OSError("standard input is closed")
        return sys.stdin.buffer.read().decode("utf-8")
    except (OSError, UnicodeError) as exc:
        name = "standard input" if path in (None, "-") else path
        raise ParseError(f"cannot read {name}: {exc}") from None


def _load_json(text: str, what: str):
    """Decode JSON text; malformed JSON, an integer past the interpreter's
    digit limit and nesting past its recursion limit are ParseErrors."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or too many digits
        raise ParseError(f"{what} is not JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{what} is nested too deeply") from None


def _object(data, keys: set, what: str):
    """``data`` itself, once it is a JSON object with no key outside ``keys``."""
    _require(isinstance(data, dict), f"{what} must be an object")
    for key in data:
        _require(key in keys, f"{what}: unknown key {key!r}")
    return data


def _header(data, keys: set, what: str, base: AlgebraDocument | None = None):
    """A document or supplement object: its keys, its field and, against
    ``base``, its baseDigest."""
    _object(data, keys, what)
    _require(data.get("field") == "rational", f'{what}: field must be "rational"')
    if base is not None:
        expected = document_digest(base)
        _require(
            data.get("baseDigest") == expected,
            f"{what}: baseDigest does not match the base document ({expected})",
        )
    return data


def _parse_entries(items, bounds: tuple, what: str) -> dict:
    """A sparse list of entries ``[i_1, .., i_k, "value"]``, k = len(bounds),
    with 1 <= i_t <= bounds[t] and each index tuple at most once, as a map
    (i_1, .., i_k) -> value in list order."""
    _require(isinstance(items, list), f"{what}: expected a list of entries")
    k = len(bounds)
    shape = f'{what}: each entry is {k} indices and a "value" string'
    out = {}
    for item in items:
        # types first: an entry is echoed in a message only once it is flat
        _require(isinstance(item, list) and len(item) == k + 1 and isinstance(item[k], str)
                 and all(type(idx) is int for idx in item[:k]), shape)
        key = tuple(item[:k])
        for idx, bound in zip(key, bounds):
            if not 1 <= idx <= bound:
                raise IndexOutOfRange(f"{what} entry {item!r}: index {idx} outside 1..{bound}")
        if key in out:
            raise DuplicateKey(f"{what}: duplicate key {key}")
        out[key] = parse_rational(item[k])
    return out


def _parse_cochain(items, dim_v: int, alg_dim: int, degree: int, what: str) -> Cochain:
    """A cochain from its entries [i_1, .., i_n, a, "value"]."""
    entries = _parse_entries(items, (alg_dim,) * degree + (dim_v,), what)
    return cochain_from_entries(
        dim_v, alg_dim, degree, ((key[:-1], key[-1], c) for key, c in entries.items())
    )


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


def _document_from(data, what: str) -> AlgebraDocument:
    """Validate a loaded document object and build its document."""
    _header(data, {"field", "algebra", "operator", "representation"}, what)
    alg_obj = _object(data.get("algebra"), {"dim", "bracket"}, "algebra")
    dim = alg_obj.get("dim")
    _require(_is_count(dim), "algebra.dim must be a count")
    # the algebra keeps a dense table of dim**3 bracket cells
    _require(dim ** 3 <= 10 ** 7, f"algebra.dim {dim} is too large: over 10**7 bracket cells")
    bracket = _parse_entries(alg_obj.get("bracket", []), (dim, dim, dim), "bracket")
    algebra = LeibnizAlgebra(dim, [(*key, c) for key, c in bracket.items()])
    operator = None
    if "operator" in data:
        op_obj = _object(data["operator"], {"weight", "matrix"}, "operator")
        weight = parse_rational(op_obj.get("weight", "0"))
        matrix = _parse_matrix(op_obj.get("matrix"), dim, dim, "operator.matrix")
        operator = OperatorContext(matrix, weight)
    representation = None
    if "representation" in data:
        rep_obj = _object(data["representation"], {"dimV", "rhoL", "rhoR", "kV"},
                          "representation")
        dim_v = rep_obj.get("dimV")
        _require(_is_count(dim_v), "representation.dimV must be a count")
        actions = []
        for key in ("rhoL", "rhoR"):
            mats, name = rep_obj.get(key), f"representation.{key}"
            _require(isinstance(mats, list) and len(mats) == dim,
                     f"{name} must list one matrix per basis vector")
            actions.append(tuple(_parse_matrix(m, dim_v, dim_v, name) for m in mats))
        k_v = _parse_matrix(rep_obj.get("kV"), dim_v, dim_v, "representation.kV")
        representation = Representation(dim_v, *actions, k_v)
    return AlgebraDocument(algebra, operator, representation)


def parse_document(text: str) -> AlgebraDocument:
    """Parse and structurally validate an algebra document."""
    return _document_from(_load_json(text, "document"), "document")


def parse_mask(text: str, dim: int) -> dict:
    """A search mask ``{"entries": [[i, j, "value"], ..]}`` as a map
    (i, j) -> value, with 1 <= i, j <= dim."""
    data = _object(_load_json(text, "mask"), {"entries"}, "mask")
    _require("entries" in data, 'mask: missing "entries"')
    return _parse_entries(data["entries"], (dim, dim), "mask")


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


def parse_deformation(text: str, base: AlgebraDocument) -> TruncatedDeformation:
    """Parse a deformation file against its base document.

    Format: {"field", "baseDigest", "order": N, "mu": [bracket-entry lists,
    one per order 1..N], "kk": [d x d matrices, one per order 1..N]}.
    """
    data = _header(_load_json(text, "deformation file"),
                   {"field", "baseDigest", "order", "mu", "kk"}, "deformation file",
                   AlgebraDocument(base.algebra, base.operator, None))
    _require(base.operator is not None, "deformation base document needs an operator")
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
    mu.extend(_parse_cochain(block, d, d, 2, "mu") for block in mu_blocks)
    kk = [base.operator.operator]
    kk.extend(_parse_matrix(block, d, d, "kk") for block in kk_blocks)
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
    data = _header(_load_json(text, "cocycle file"),
                   {"field", "baseDigest", "psi", "chi"}, "cocycle file", base)
    rep = base.effective_representation()
    _require(rep is not None, "cocycle base document needs a representation or operator")
    d, m = base.algebra.dim, rep.dim_v
    return ConeCochain(_parse_cochain(data.get("psi", []), m, d, 2, "psi"),
                       _parse_cochain(data.get("chi", []), m, d, 1, "chi"))


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
    data = _header(_load_json(text, "extension file"),
                   {"field", "base", "total", "incl", "proj", "fiberOp"}, "extension file")
    base_doc = _document_from(data.get("base"), "extension base")
    total_doc = _document_from(data.get("total"), "extension total")
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
