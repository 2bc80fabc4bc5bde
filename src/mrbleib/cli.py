"""Command line surface: check, cohomology, derived, search, deform, extend.

Input documents arrive as a positional file path or on standard input;
reports are JSON on standard output with stable key order, diagnostics go
to standard error.  Exit codes: 0 all requested checks pass, 1 a checked
property failed, 2 input or usage error.  Reports contain no timestamps or
environment data, so identical inputs produce byte-identical reports.

Each subparser names its handler; a handler reads and parses its own inputs
through ``documents`` (one reader, one JSON loader, one entry parser) and
returns (digest text, sections, result).  ``execute`` dispatches once and
builds every report the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from .algebra import (
    DefectReport,
    derived_algebra,
    grid_search_operators,
    leibniz_defect,
    mrb_defect,
)
from .cohomology import (
    ConeCochain,
    classify_cochain,
    cohomology_dimensions,
    cone_preimage,
    fold_witness,
)
from .deformation import (
    deformation_residuals,
    gauge_step,
    infinitesimal,
)
from .documents import (
    AlgebraDocument,
    _cochain_json,
    _matrix_json,
    cocycle_json,
    deformation_json,
    document_json,
    extension_json,
    parse_cocycle,
    parse_deformation,
    parse_document,
    parse_extension,
    parse_mask,
    read_text,
    representation_json,
)
from .errors import (
    BudgetExceeded,
    InvalidArgument,
    MrbError,
    NotACocycle,
    NotAnExtension,
    NotMRBRepresentation,
    ParseError,
)
from .extensions import (
    extension_from_cocycle,
    extract_cocycle,
    iso_from_gamma,
    section_from_proj,
    validate_extension,
)
from .linalg import format_rational, parse_rational
from .representations import (
    induced_rep,
    mrb_rep_defect,
    regular_rep,
    rep_defect,
)

USAGE_ERRORS = (ParseError, BudgetExceeded, InvalidArgument)


def _residuals_json(report: DefectReport):
    return [
        {
            "kind": d.section,
            "at": list(d.where),
            "value": [format_rational(v) for v in d.residual],
        }
        for d in report.entries
    ]


def _section(name: str, report: DefectReport):
    return {
        "name": name,
        "status": "pass" if report.is_empty else "fail",
        "residuals": _residuals_json(report),
    }


def _table_json(table):
    return {
        "cochainDims": list(table.cochain_dims),
        "differentialRanks": list(table.differential_ranks),
        "cohomologyDims": list(table.cohomology_dims),
    }


def _document(path: str) -> tuple[str, AlgebraDocument]:
    """The text at ``path`` and the algebra document it holds."""
    text = read_text(path)
    return text, parse_document(text)


def cmd_check(args):
    text, doc = _document(args.document)
    sections = [_section("leibniz", leibniz_defect(doc.algebra))]
    rep = doc.effective_representation()
    if doc.operator is not None:
        sections.append(_section("mrb", mrb_defect(doc.algebra, doc.operator)))
    if rep is not None:
        sections.append(_section("representation", rep_defect(doc.algebra, rep)))
    if doc.operator is not None and rep is not None:
        sections.append(
            _section("mrb-representation", mrb_rep_defect(doc.algebra, doc.operator, rep))
        )
    return text, sections, None


def _checked_module(doc: AlgebraDocument):
    """The document's effective module; one given in the document must pass
    the Leibniz module axioms, which no later check covers."""
    rep = doc.effective_representation()
    if doc.representation is not None and not rep_defect(doc.algebra, rep).is_empty:
        raise NotMRBRepresentation("module fails the Leibniz module axioms")
    return rep


def cmd_cohomology(args):
    text, doc = _document(args.document)
    rep = _checked_module(doc)
    if rep is None:
        rep = regular_rep(doc.algebra)
    report = cohomology_dimensions(
        doc.algebra, rep, doc.operator, max_degree=args.max_degree, budget=args.budget
    )
    result = {
        "maxDegree": report.max_degree,
        "convention": report.convention,
        "leibniz": _table_json(report.leibniz),
    }
    if report.operator is not None:
        result["operator"] = _table_json(report.operator)
        result["cone"] = _table_json(report.cone)
    return text, [], result


def cmd_derived(args):
    text, doc = _document(args.document)
    if doc.operator is None:
        raise ParseError("derived requires a document with an operator")
    rep = _checked_module(doc)
    derived = derived_algebra(doc.algebra, doc.operator)
    induced = induced_rep(doc.algebra, doc.operator, rep)
    out = AlgebraDocument(derived, doc.operator, induced)
    return text, [], document_json(out)


def cmd_search(args):
    text, doc = _document(args.document)
    w = parse_rational(args.weight)
    grid_vals = [parse_rational(g) for g in args.grid.split(",") if g.strip()]
    if not grid_vals:
        raise ParseError("empty grid")
    if len(set(grid_vals)) != len(grid_vals):
        raise ParseError(f"grid {args.grid!r} repeats a value")
    mask = None if args.mask is None else parse_mask(read_text(args.mask), doc.algebra.dim)
    solutions = grid_search_operators(doc.algebra, w, grid_vals, mask, args.budget)
    result = {
        "weight": format_rational(w),
        "grid": [format_rational(g) for g in grid_vals],
        "count": len(solutions),
        "solutions": [_matrix_json(m) for m in solutions],
    }
    return text, [], result


def cmd_deform(args):
    text, doc = _document(args.document)
    dfm = parse_deformation(read_text(args.deformation), doc)
    if args.subcommand == "verify":
        reports = deformation_residuals(dfm)
        return text, [_section(f"order-{n}", r) for n, r in enumerate(reports)], None
    cone = infinitesimal(dfm)
    cls = classify_cochain(dfm.algebra, dfm.ctx, regular_rep(dfm.algebra, dfm.ctx), cone)
    if args.subcommand == "infinitesimal":
        result = {
            "mu1": _cochain_json(cone.leib, dfm.algebra.dim),
            "k1": _matrix_json(cone.op.values),
            "cocycle": cls.cocycle,
            "coboundary": cls.coboundary,
        }
        return text, [], result
    if not cls.coboundary:
        reason = "infinitesimal is not a coboundary"
        return text, [{"name": "gauge", "status": "fail", "residuals": [], "reason": reason}], None
    return text, [], deformation_json(gauge_step(dfm, cls.witness))


def cmd_extend_build(args):
    text, doc = _document(args.document)
    rep = doc.effective_representation()
    if doc.operator is None or rep is None:
        raise ParseError("extend build needs a document with operator (and representation)")
    cocycle = parse_cocycle(read_text(args.cocycle), doc)
    try:
        ext = extension_from_cocycle(doc.algebra, doc.operator, rep, cocycle)
    except NotACocycle as exc:
        return text, [_section("cocycle", exc.report)], None
    return text, [{"name": "cocycle", "status": "pass", "residuals": []}], extension_json(ext)


def cmd_extend_extract(args):
    text = read_text(args.extension)
    ext = parse_extension(text)
    report = validate_extension(ext)
    sections = [_section("validation", report)]
    if not report.is_empty:
        return text, sections, None
    section = section_from_proj(ext)
    rep, cocycle = extract_cocycle(ext, section)
    base_doc = AlgebraDocument(ext.base, ext.base_op, None)
    result = {
        "representation": representation_json(rep),
        "cocycle": cocycle_json(cocycle, base_doc),
        "section": _matrix_json(section),
    }
    return text, sections, result


def cmd_extend_compare(args):
    text1, text2 = read_text(args.extension), read_text(args.extension2)
    e1 = parse_extension(text1)
    e2 = parse_extension(text2)
    if (e1.base, e1.base_op, e1.fiber_op) != (e2.base, e2.base_op, e2.fiber_op):
        raise ParseError("extensions live over different base or fiber data")
    rep1, c1 = extract_cocycle(e1, section_from_proj(e1))
    rep2, c2 = extract_cocycle(e2, section_from_proj(e2))
    if rep1 != rep2:
        raise ParseError("extensions induce different modules")
    diff = ConeCochain(c1.leib - c2.leib, c1.op - c2.op)
    witness = cone_preimage(e1.base, e1.base_op, rep1, diff)
    if witness is None:
        sections = [{"name": "cohomologous", "status": "fail", "residuals": []}]
        return text1 + text2, sections, {"cohomologous": False}
    # the cocycle difference is (delta gamma, -phi gamma) on the nose
    gamma = fold_witness(e1.base, rep1, witness)
    result = {"cohomologous": True, "gamma": _matrix_json(gamma.values)}
    try:
        result["zeta"] = _matrix_json(iso_from_gamma(e1, e2, gamma))
    except NotAnExtension:
        # not direct-sum models; the class comparison still stands
        pass
    sections = [{"name": "cohomologous", "status": "pass", "residuals": []}]
    return text1 + text2, sections, result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrbleib",
        description="Exact checks, cohomology, deformations and extensions "
        "of modified Rota-Baxter Leibniz algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run all applicable axiom checks")
    p.add_argument("document", nargs="?", default="-")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("cohomology", help="cohomology dimension tables")
    p.add_argument("document", nargs="?", default="-")
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.set_defaults(handler=cmd_cohomology)

    p = sub.add_parser("derived", help="derived algebra and induced representation")
    p.add_argument("document", nargs="?", default="-")
    p.set_defaults(handler=cmd_derived)

    p = sub.add_parser("search", help="grid search for modified Rota-Baxter operators")
    p.add_argument("document", nargs="?", default="-")
    p.add_argument("--weight", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--mask", default=None)
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("deform", help="truncated formal deformations")
    p.add_argument("subcommand", choices=["verify", "infinitesimal", "gauge"])
    p.add_argument("document", nargs="?", default="-")
    p.add_argument("--deformation", required=True)
    p.set_defaults(handler=cmd_deform)

    p = sub.add_parser("extend", help="abelian extensions")
    ext_sub = p.add_subparsers(dest="subcommand", required=True)
    b = ext_sub.add_parser("build", help="build an extension from a cocycle")
    b.add_argument("document", nargs="?", default="-")
    b.add_argument("--cocycle", required=True)
    b.set_defaults(handler=cmd_extend_build)
    e = ext_sub.add_parser("extract", help="extract module and cocycle")
    e.add_argument("extension")
    e.set_defaults(handler=cmd_extend_extract)
    c = ext_sub.add_parser("compare", help="decide whether two extensions are cohomologous")
    c.add_argument("extension")
    c.add_argument("extension2")
    c.set_defaults(handler=cmd_extend_compare)
    return parser


def execute(args) -> tuple[dict, int]:
    """Run one command; returns (report, exit_code)."""
    text, sections, result = args.handler(args)
    passed = all(s["status"] == "pass" for s in sections)
    report = {
        "command": " ".join(filter(None, (args.command, getattr(args, "subcommand", None)))),
        "inputDigest": "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "sections": sections,
        "status": "pass" if passed else "fail",
    }
    if result is not None:
        report["result"] = result
    return report, 0 if passed else 1


def _emit(report: dict) -> None:
    """Print a report; if the reader has closed stdout, point stdout at the
    null device, so the interpreter's final flush does not fail again."""
    try:
        print(json.dumps(report, indent=2), flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = execute(args)
    except USAGE_ERRORS as exc:
        print(f"mrbleib: {exc}", file=sys.stderr)
        return 2
    except MrbError as exc:
        report = {
            "command": args.command,
            "sections": [
                {
                    "name": "error",
                    "status": "fail",
                    "residuals": [],
                    "error": type(exc).__name__,
                    "reason": str(exc),
                }
            ],
            "status": "fail",
        }
        code = 1
    _emit(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
