import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import mrbleib
from fixtures import AFF, G3, K0, KZ, ROT, TRIV1, Z1, z1_extensions
from mrbleib.algebra import LeibnizAlgebra, OperatorContext
from mrbleib.cli import build_parser, execute, main
from mrbleib.cohomology import cone_differential, vec_to_cone
from mrbleib.deformation import FormalIso, TruncatedDeformation, apply_formal_iso
from mrbleib.documents import (
    AlgebraDocument,
    cocycle_json,
    deformation_json,
    document_digest,
    extension_json,
    parse_document,
    serialize_document,
)
from mrbleib.extensions import extension_from_cocycle
from mrbleib.cohomology import ConeCochain, apply_delta, apply_phi, Cochain, zero_cone_cochain
from mrbleib.errors import MrbError
from mrbleib.linalg import Matrix, kernel_basis
from mrbleib.representations import Representation, regular_rep

G3_DOC = serialize_document(AlgebraDocument(G3, K0, None))
G3_PLAIN = serialize_document(AlgebraDocument(G3, None, None))
# [e1,e1] = e1 fails the Leibniz identity by -e1
NOT_LEIBNIZ = """{"field":"rational","algebra":{"dim":1,"bracket":[[1,1,1,"1"]]}}"""
AFF_DOC = serialize_document(AlgebraDocument(AFF, ROT, None))


def run_cli(tmp_path, *argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    report, code = execute(args)
    return report, code


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_passes_and_exit_zero(tmp_path):
    doc = write(tmp_path, "g3.json", G3_DOC)
    report, code = run_cli(tmp_path, "check", doc)
    assert code == 0
    assert report["status"] == "pass"
    names = [s["name"] for s in report["sections"]]
    assert names == ["leibniz", "mrb", "representation", "mrb-representation"]


def test_check_fails_on_broken_algebra(tmp_path):
    bad = """{"field":"rational","algebra":{"dim":1,"bracket":[[1,1,1,"1"]]}}"""
    doc = write(tmp_path, "bad.json", bad)
    report, code = run_cli(tmp_path, "check", doc)
    assert code == 1
    assert report["status"] == "fail"
    assert report["sections"][0]["residuals"] == [
        {"kind": "leibniz", "at": [1, 1, 1], "value": ["-1"]}
    ]


def test_search_counts_first_row_zero_family(tmp_path):
    doc = write(tmp_path, "g3.json", G3_DOC)
    report, code = run_cli(tmp_path, "search", doc, "--weight", "0", "--grid", "0,1")
    assert code == 0
    assert report["result"]["count"] == 64
    for rows in report["result"]["solutions"]:
        assert rows[0] == ["0", "0", "0"]


def test_search_mask(tmp_path):
    doc = write(tmp_path, "g3.json", G3_DOC)
    mask = {"entries": [[1, 2, "0"], [1, 3, "0"], [2, 3, "0"],
                        [2, 1, "0"], [3, 1, "0"], [3, 2, "0"], [2, 2, "0"]]}
    mask_path = write(tmp_path, "mask.json", json.dumps(mask))
    report, code = run_cli(
        tmp_path, "search", doc, "--weight", "1", "--grid", "0,1", "--mask", mask_path
    )
    assert code == 0
    assert report["result"]["solutions"] == [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]]


def test_cohomology_leibniz_only(tmp_path):
    doc = write(tmp_path, "g3p.json", G3_PLAIN)
    report, code = run_cli(tmp_path, "cohomology", doc, "--max-degree", "0")
    assert code == 0
    assert report["result"]["leibniz"]["cohomologyDims"] == [2]
    assert "operator" not in report["result"]


def test_cohomology_full(tmp_path):
    doc = write(tmp_path, "g3.json", G3_DOC)
    report, code = run_cli(tmp_path, "cohomology", doc, "--max-degree", "2")
    assert code == 0
    assert report["result"]["leibniz"]["cohomologyDims"] == [2, 4, 8]
    assert report["result"]["cone"]["cohomologyDims"] == [0, 3, 3]
    assert "convention" in report["result"]


def test_cohomology_budget_is_usage_error(tmp_path, capsys):
    doc = write(tmp_path, "g3.json", G3_DOC)
    code = main(["cohomology", doc, "--budget", "5"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_derived_document(tmp_path):
    doc = write(tmp_path, "g3.json", G3_DOC)
    report, code = run_cli(tmp_path, "derived", doc)
    assert code == 0
    assert report["result"]["algebra"]["bracket"] == [[1, 1, 3, "2"]]
    assert report["result"]["operator"]["weight"] == "1"


def test_parse_error_exit_two(tmp_path, capsys):
    doc = write(tmp_path, "bad.json", "{nope")
    code = main(["check", doc])
    assert code == 2
    assert capsys.readouterr().err.startswith("mrbleib:")


def test_deform_verify_and_infinitesimal_and_gauge(tmp_path):
    base = AlgebraDocument(AFF, ROT, None)
    doc = write(tmp_path, "aff.json", serialize_document(base))
    triv = TruncatedDeformation.trivial(AFF, ROT, 2)
    iso = FormalIso((Matrix.identity(2), Matrix([[1, 1], [0, 1]]) - Matrix.identity(2), Matrix.zeros(2, 2)))
    dfm = apply_formal_iso(triv, iso)
    dpath = write(tmp_path, "def.json", json.dumps(deformation_json(dfm)))

    report, code = run_cli(tmp_path, "deform", "verify", doc, "--deformation", dpath)
    assert code == 0
    assert [s["name"] for s in report["sections"]] == ["order-0", "order-1", "order-2"]

    report, code = run_cli(tmp_path, "deform", "infinitesimal", doc, "--deformation", dpath)
    assert code == 0
    assert report["result"]["cocycle"] is True
    assert report["result"]["coboundary"] is True

    report, code = run_cli(tmp_path, "deform", "gauge", doc, "--deformation", dpath)
    assert code == 0
    assert report["result"]["mu"][0] == []
    assert report["result"]["kk"][0] == [["0", "0"], ["0", "0"]]


def test_deform_verify_fails_on_broken_order_one(tmp_path):
    base = AlgebraDocument(AFF, ROT, None)
    doc = write(tmp_path, "aff.json", serialize_document(base))
    dfm = TruncatedDeformation.trivial(AFF, ROT, 1)
    payload = deformation_json(dfm)
    payload["mu"] = [[[1, 1, 1, "1"]]]
    dpath = write(tmp_path, "def.json", json.dumps(payload))
    report, code = run_cli(tmp_path, "deform", "verify", doc, "--deformation", dpath)
    assert code == 1
    assert report["sections"][1]["status"] == "fail"


def test_extend_build_extract_compare(tmp_path):
    rep = regular_rep(G3, K0)
    base = AlgebraDocument(G3, K0, rep)
    doc = write(tmp_path, "base.json", serialize_document(base))

    kern = kernel_basis(cone_differential(G3, K0, rep, 2))
    pair = vec_to_cone(kern[4], 3, 3, 2)
    cpath = write(tmp_path, "cocycle.json", json.dumps(cocycle_json(pair, base)))

    report, code = run_cli(tmp_path, "extend", "build", doc, "--cocycle", cpath)
    assert code == 0
    ext_text = json.dumps(report["result"])
    epath = write(tmp_path, "ext.json", ext_text)

    report, code = run_cli(tmp_path, "extend", "extract", epath)
    assert code == 0
    assert report["sections"][0]["status"] == "pass"
    got = report["result"]["cocycle"]
    expected = cocycle_json(pair, AlgebraDocument(G3, K0, None))
    assert got["psi"] == expected["psi"]
    assert got["chi"] == expected["chi"]

    gamma = Cochain(1, Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    shifted = ConeCochain(
        pair.leib + apply_delta(G3, rep, gamma),
        pair.op - apply_phi(G3, K0, rep, gamma),
    )
    ext2 = extension_from_cocycle(G3, K0, rep, shifted)
    epath2 = write(tmp_path, "ext2.json", json.dumps(extension_json(ext2)))

    report, code = run_cli(tmp_path, "extend", "compare", epath2, epath)
    assert code == 0
    assert report["result"]["cohomologous"] is True
    assert "zeta" in report["result"]

    # a non-cohomologous pair: shift by a non-coboundary cocycle if one exists
    report0, _ = run_cli(tmp_path, "extend", "compare", epath, epath)
    assert report0["result"]["cohomologous"] is True


def test_extend_build_rejects_non_cocycle(tmp_path):
    rep = regular_rep(G3, K0)
    base = AlgebraDocument(G3, K0, rep)
    doc = write(tmp_path, "base.json", serialize_document(base))
    payload = cocycle_json(
        zero_cone_cochain(3, 3, 2), base
    )
    payload["psi"] = [[1, 1, 1, "1"]]
    cpath = write(tmp_path, "cocycle.json", json.dumps(payload))
    report, code = run_cli(tmp_path, "extend", "build", doc, "--cocycle", cpath)
    assert code == 1
    assert report["sections"][0]["status"] == "fail"
    assert report["sections"][0]["residuals"]


def test_reports_are_byte_identical(tmp_path, capsys):
    doc = write(tmp_path, "g3.json", G3_DOC)
    outputs = []
    for _ in range(2):
        code = main(["check", doc])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mask", [
    "entries: not json",
    "[[1, 1, \"0\"]]",
    '{"entries": [[1, 1]]}',
    '{"entries": [[1, 1, "0", "1"]]}',
    '{"entries": [[1, 1, 0]]}',
    '{"entries": [["1", 1, "0"]]}',
    '{"entries": 5}',
])
def test_malformed_mask_is_usage_error(tmp_path, capsys, mask):
    doc = write(tmp_path, "g3.json", G3_DOC)
    mask_path = write(tmp_path, "mask.json", mask)
    code = main(["search", doc, "--weight", "1", "--grid", "0,1", "--mask", mask_path])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("mrbleib:")


def test_repeated_mask_entry_is_usage_error(tmp_path, capsys):
    doc = write(tmp_path, "g3.json", G3_DOC)
    mask = {"entries": [[1, 1, "0"], [2, 1, "0"], [1, 1, "1"]]}
    mask_path = write(tmp_path, "mask.json", json.dumps(mask))
    code = main(["search", doc, "--weight", "1", "--grid", "0,1", "--mask", mask_path])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "(1, 1)" in captured.err


@pytest.mark.parametrize("grid", ["0,0", "1,,1", "-1,0,2/2,1"])
def test_repeated_grid_value_is_usage_error(tmp_path, capsys, grid):
    doc = write(tmp_path, "g3.json", G3_DOC)
    assert main(["search", doc, "--weight", "0", f"--grid={grid}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("mrbleib:")


def test_negative_max_degree_is_usage_error(tmp_path, capsys):
    doc = write(tmp_path, "g3.json", G3_DOC)
    assert main(["cohomology", doc, "--max-degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max degree" in captured.err


@pytest.mark.parametrize("entry", [[7, 1, "0"], [1, 4, "0"], [0, 1, "0"], [1, -1, "0"]])
def test_mask_entry_outside_the_dimension_is_usage_error(tmp_path, capsys, entry):
    doc = write(tmp_path, "g3.json", G3_DOC)
    mask_path = write(tmp_path, "mask.json", json.dumps({"entries": [entry]}))
    code = main(["search", doc, "--weight", "1", "--grid", "0,1", "--mask", mask_path])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and repr(entry) in captured.err


def test_missing_or_unreadable_input_is_usage_error(tmp_path, capsys):
    for path in (str(tmp_path / "absent.json"), str(tmp_path)):
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("mrbleib:")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    assert main(["check", str(binary)]) == 2
    doc = write(tmp_path, "g3.json", G3_DOC)
    for mask in (str(tmp_path / "absent-mask.json"), ""):
        assert main(["search", doc, "--weight", "1", "--grid", "0,1", "--mask", mask]) == 2


def error_of(capsys, argv):
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    return code, report["sections"][0]["error"]


def test_cohomology_of_a_non_leibniz_document_fails(tmp_path, capsys):
    doc = write(tmp_path, "bad.json", NOT_LEIBNIZ)
    assert error_of(capsys, ["cohomology", doc, "--max-degree", "2"]) == (1, "NotLeibniz")
    # with an operator the operator complex's checks reject it first
    payload = json.loads(NOT_LEIBNIZ)
    payload["operator"] = {"weight": "0", "matrix": [["0"]]}
    doc = write(tmp_path, "bad-op.json", json.dumps(payload))
    assert error_of(capsys, ["cohomology", doc, "--max-degree", "2"]) == (1, "NotLeibniz")


def test_cohomology_with_a_broken_module_fails(tmp_path, capsys):
    one = Matrix.identity(1)
    bad = Representation(1, (one,), (one,), Matrix.zeros(1, 1))
    doc = write(tmp_path, "bad-rep.json", serialize_document(AlgebraDocument(Z1, None, bad)))
    assert error_of(capsys, ["cohomology", doc]) == (1, "NotMRBRepresentation")
    # the operator 0 of weight 0 passes, and so does this module's modified law
    doc = write(tmp_path, "bad-rep-op.json", serialize_document(
        AlgebraDocument(Z1, OperatorContext(Matrix.zeros(1, 1), F(0)), bad)))
    assert error_of(capsys, ["cohomology", doc]) == (1, "NotMRBRepresentation")


def test_derived_with_a_broken_module_fails(tmp_path, capsys):
    # K_V = 0 at weight 0 passes the modified module law for any actions, and
    # these break the Leibniz module axioms; the derived bracket of (G3, KZ)
    # is zero, so the induced actions fail them too
    one = Matrix.identity(1)
    bad = Representation(1, (one,) * 3, (one,) * 3, Matrix.zeros(1, 1))
    doc = write(tmp_path, "bad-rep.json", serialize_document(AlgebraDocument(G3, KZ, bad)))
    assert error_of(capsys, ["derived", doc]) == (1, "NotMRBRepresentation")


def _with_true(tmp_path, where):
    """A document (and CLI arguments) with JSON ``true`` at ``where``."""
    if where == "dim":
        text = '{"field":"rational","algebra":{"dim":true,"bracket":[[1,1,1,"1"]]}}'
        return ["check", write(tmp_path, "doc.json", text)]
    if where == "bracket index":
        text = '{"field":"rational","algebra":{"dim":1,"bracket":[[true,1,1,"1"]]}}'
        return ["check", write(tmp_path, "doc.json", text)]
    if where == "dimV":
        zero = Matrix.zeros(1, 1)
        payload = json.loads(serialize_document(
            AlgebraDocument(Z1, None, Representation(1, (zero,), (zero,), zero))))
        payload["representation"]["dimV"] = True
        return ["check", write(tmp_path, "doc.json", json.dumps(payload))]
    doc = write(tmp_path, "aff.json", serialize_document(AlgebraDocument(AFF, ROT, None)))
    payload = deformation_json(TruncatedDeformation.trivial(AFF, ROT, 1))
    payload["order"] = True
    return ["deform", "verify", doc, "--deformation",
            write(tmp_path, "def.json", json.dumps(payload))]


@pytest.mark.parametrize("where", ["dim", "bracket index", "dimV", "order"])
def test_json_true_is_not_a_count_or_an_index(tmp_path, capsys, where):
    assert main(_with_true(tmp_path, where)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("mrbleib:")


def test_extend_build_over_a_zero_dimensional_module(tmp_path, capsys):
    # psi and chi of a dimV 0 module are 0 x 4 and 0 x 2: the extension is
    # the base algebra and operator themselves
    zero = Matrix.zeros(0, 0)
    base = AlgebraDocument(AFF, ROT, Representation(0, (zero, zero), (zero, zero), zero))
    doc = write(tmp_path, "base.json", serialize_document(base))
    pair = zero_cone_cochain(0, 2, 2)
    cpath = write(tmp_path, "cocycle.json", json.dumps(cocycle_json(pair, base)))
    assert main(["extend", "build", doc, "--cocycle", cpath]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    plain = json.loads(serialize_document(AlgebraDocument(AFF, ROT, None)))
    assert result["total"] == plain and result["base"] == plain
    assert result["incl"] == [[], []] and result["fiberOp"] == []
    epath = write(tmp_path, "ext.json", json.dumps(result))
    assert main(["extend", "extract", epath]) == 0
    extracted = json.loads(capsys.readouterr().out)["result"]
    assert extracted["representation"]["dimV"] == 0
    assert extracted["cocycle"]["psi"] == [] and extracted["cocycle"]["chi"] == []


def test_extend_over_a_zero_dimensional_base(tmp_path, capsys):
    # the projection onto a dim-0 base is a 0 x 1 matrix, written []
    zero = Matrix.zeros(0, 0)
    empty = LeibnizAlgebra(0, [])
    ctx = OperatorContext(zero, F(0))
    base = AlgebraDocument(empty, ctx, Representation(1, (), (), Matrix([[2]])))
    doc = write(tmp_path, "base.json", serialize_document(base))
    pair = zero_cone_cochain(1, 0, 2)
    cpath = write(tmp_path, "cocycle.json", json.dumps(cocycle_json(pair, base)))
    assert main(["extend", "build", doc, "--cocycle", cpath]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["proj"] == [] and result["incl"] == [["1"]]
    assert result["total"]["operator"]["matrix"] == [["2"]]
    epath = write(tmp_path, "ext.json", json.dumps(result))
    assert main(["extend", "extract", epath]) == 0
    extracted = json.loads(capsys.readouterr().out)["result"]
    assert extracted["representation"]["kV"] == [["2"]]
    assert extracted["section"] == [[]]


def _wrongly_typed(tmp_path, where):
    """CLI arguments whose input has a JSON value of the wrong type at ``where``."""
    if where == "coefficient":
        text = '{"field":"rational","algebra":{"dim":1,"bracket":[[1,1,1,1]]}}'
        return ["check", write(tmp_path, "doc.json", text)]
    if where == "weight":
        payload = json.loads(AFF_DOC)
        payload["operator"]["weight"] = 0
        return ["check", write(tmp_path, "doc.json", json.dumps(payload))]
    if where in ("mu", "kk"):
        doc = write(tmp_path, "aff.json", AFF_DOC)
        payload = deformation_json(TruncatedDeformation.trivial(AFF, ROT, 1))
        payload[where] = 5
        return ["deform", "verify", doc, "--deformation",
                write(tmp_path, "def.json", json.dumps(payload))]
    base = AlgebraDocument(G3, K0, regular_rep(G3, K0))
    doc = write(tmp_path, "base.json", serialize_document(base))
    payload = cocycle_json(zero_cone_cochain(3, 3, 2), base)
    payload[where] = 5
    return ["extend", "build", doc, "--cocycle",
            write(tmp_path, "cocycle.json", json.dumps(payload))]


@pytest.mark.parametrize("where", ["coefficient", "weight", "mu", "kk", "psi", "chi"])
def test_wrongly_typed_json_is_a_usage_error(tmp_path, capsys, where):
    assert main(_wrongly_typed(tmp_path, where)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("mrbleib:")


DIM0 = '{"field":"rational","algebra":{"dim":0,"bracket":[]}}'
HUGE = '{"field":"rational","algebra":{"dim":%d,"bracket":[]}}' % 10 ** 30


@pytest.mark.parametrize("text,argv,message", [
    # every degree counts as one cell at least, even when dim is 0
    (DIM0, ["cohomology", "--max-degree", "1000000000"], "budget"),
    (HUGE, ["check"], "too large"),
])
def test_hopeless_requests_are_refused_at_once(tmp_path, capsys, text, argv, message):
    doc = write(tmp_path, "doc.json", text)
    start = time.perf_counter()
    assert main([argv[0], doc, *argv[1:]]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def _compare_pairs():
    """The two extensions of ``z1_extensions``, and the second with its
    total in the swapped basis (v, x); no pair of them may compare."""
    abelian, acting = (extension_json(e) for e in z1_extensions())
    swapped = json.loads(json.dumps(acting))
    swapped["total"]["algebra"]["bracket"] = [[2, 1, 1, "1"]]
    swapped["incl"], swapped["proj"] = [["1"], ["0"]], [["0", "1"]]
    return json.dumps(abelian), json.dumps(acting), json.dumps(swapped)


ABELIAN_EXT, ACTING_EXT, SWAPPED_EXT = _compare_pairs()


@pytest.mark.parametrize("other", [ACTING_EXT, SWAPPED_EXT], ids=["direct-sum", "swapped"])
def test_compare_refuses_different_modules(tmp_path, capsys, other):
    first = write(tmp_path, "abelian.json", ABELIAN_EXT)
    second = write(tmp_path, "other.json", other)
    assert main(["extend", "compare", first, second]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "different modules" in captured.err


def _g3_cohomologous_extensions(tmp_path):
    rep = regular_rep(G3, K0)
    pair = zero_cone_cochain(3, 3, 2)
    gamma = Cochain(1, Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    shifted = ConeCochain(apply_delta(G3, rep, gamma), -apply_phi(G3, K0, rep, gamma))
    return [
        write(tmp_path, f"ext{k}.json", json.dumps(extension_json(
            extension_from_cocycle(G3, K0, rep, p))))
        for k, p in enumerate((pair, shifted))
    ]


def count_calls(monkeypatch, *names):
    """Count the calls of each ``module.function`` of mrbleib through every
    alias the package holds of it."""
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in sys.modules.items() if n.startswith("mrbleib.")]
    for name in names:
        module, function = name.split(".")
        fn = getattr(sys.modules[f"mrbleib.{module}"], function)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def test_compare_extracts_each_extension_once(tmp_path, monkeypatch):
    ext1, ext2 = _g3_cohomologous_extensions(tmp_path)
    counts = count_calls(monkeypatch, "extensions.validate_extension",
                         "extensions.extract_cocycle")
    report, code = run_cli(tmp_path, "extend", "compare", ext1, ext2)
    assert code == 0 and "zeta" in report["result"]
    assert counts == {"extensions.validate_extension": 2, "extensions.extract_cocycle": 2}


def test_build_and_extract_classify_nothing(tmp_path, monkeypatch):
    rep = regular_rep(G3, K0)
    base = AlgebraDocument(G3, K0, rep)
    doc = write(tmp_path, "base.json", serialize_document(base))
    cone = vec_to_cone(kernel_basis(cone_differential(G3, K0, rep, 2))[4], 3, 3, 2)
    cocycle = json.dumps(cocycle_json(cone, base))
    cpath = write(tmp_path, "cocycle.json", cocycle)
    counts = count_calls(monkeypatch, "cohomology.classify_cochain")
    report, code = run_cli(tmp_path, "extend", "build", doc, "--cocycle", cpath)
    assert code == 0
    epath = write(tmp_path, "ext.json", json.dumps(report["result"]))
    assert run_cli(tmp_path, "extend", "extract", epath)[1] == 0
    assert counts == {"cohomology.classify_cochain": 0}


def test_derived_of_a_dimension_one_non_module_fails(tmp_path, capsys):
    # the induced actions over the zero derived bracket pass, but the module
    # itself fails right-absorb: rhoR(x) rhoL(x) + rhoR(x) rhoR(x) = 2
    one = Matrix.identity(1)
    bad = Representation(1, (one,), (one,), Matrix.zeros(1, 1))
    doc = write(tmp_path, "bad-rep.json", serialize_document(
        AlgebraDocument(Z1, OperatorContext(Matrix.zeros(1, 1), F(0)), bad)))
    assert error_of(capsys, ["derived", doc]) == (1, "NotMRBRepresentation")


def test_extend_build_over_a_non_leibniz_base_fails(tmp_path, capsys):
    # [e1, e1] = e1 with the zero module: the module laws hold, the base
    # does not, and that is reported before any cocycle check
    zero = Matrix.zeros(1, 1)
    base = AlgebraDocument(LeibnizAlgebra(1, [(1, 1, 1, 1)]), OperatorContext(zero, F(0)),
                           Representation(1, (zero,), (zero,), zero))
    doc = write(tmp_path, "base.json", serialize_document(base))
    pair = zero_cone_cochain(1, 1, 2)
    cpath = write(tmp_path, "cocycle.json", json.dumps(cocycle_json(pair, base)))
    assert error_of(capsys, ["extend", "build", doc, "--cocycle", cpath]) == (1, "NotLeibniz")


CLI = [sys.executable, "-c", "import sys; from mrbleib.cli import main; sys.exit(main())"]


def cli_env(**changes):
    """The environment for a CLI subprocess that imports this mrbleib."""
    src = str(Path(mrbleib.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(changes)
    return {k: v for k, v in env.items() if v is not None}


@pytest.mark.parametrize("stdin,locale", [
    (b"\xff{", {"LANG": None, "LC_ALL": None, "LC_CTYPE": None}),
    (b"\xff{", {"LC_ALL": "C.UTF-8"}),
    (None, {}),
], ids=["non-utf8-no-locale", "non-utf8-C.UTF-8", "closed"])
def test_unreadable_standard_input_is_usage_error(stdin, locale):
    # None: the shell closes standard input, so sys.stdin is None
    argv = [*CLI, "check"] if stdin else ["sh", "-c", 'exec "$@" <&-', "sh", *CLI, "check"]
    proc = subprocess.run(argv, input=stdin, capture_output=True, env=cli_env(**locale),
                          timeout=60)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"mrbleib:") and b"Traceback" not in proc.stderr


def test_a_closed_stdout_ends_quietly(tmp_path):
    # [e_i, e_j] = e_1 fails the Leibniz identity at all 512 triples: the
    # report (about 150 KB) is more than a pipe holds, so the writer meets
    # the closed pipe
    bracket = [[i, j, 1, "1"] for i in range(1, 9) for j in range(1, 9)]
    doc = write(tmp_path, "big.json", json.dumps(
        {"field": "rational", "algebra": {"dim": 8, "bracket": bracket}}))
    with subprocess.Popen(
        [*CLI, "check", doc], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def _deformation_seed():
    triv = TruncatedDeformation.trivial(AFF, ROT, 2)
    iso = FormalIso((Matrix.identity(2), Matrix([[0, 1], [0, 0]]), Matrix.zeros(2, 2)))
    return json.dumps(deformation_json(apply_formal_iso(triv, iso)))


def _extension_seeds():
    """A G3/K0 base with the module TRIV1, a nonzero cocycle over it, and two
    cohomologous extensions built from that cocycle."""
    base = AlgebraDocument(G3, K0, TRIV1)
    pair = vec_to_cone(kernel_basis(cone_differential(G3, K0, TRIV1, 2))[0], 1, 3, 2)
    gamma = Cochain(1, Matrix([[1, 0, 1]]))
    shifted = ConeCochain(pair.leib + apply_delta(G3, TRIV1, gamma),
                          pair.op - apply_phi(G3, K0, TRIV1, gamma))
    exts = [json.dumps(extension_json(extension_from_cocycle(G3, K0, TRIV1, p)))
            for p in (pair, shifted)]
    return serialize_document(base), json.dumps(cocycle_json(pair, base)), exts


G3_TRIV_DOC, G3_COCYCLE, G3_EXTS = _extension_seeds()
DEEP = "[" * 200000
DEFORMATION = _deformation_seed()
SEEDS = [G3_DOC, AFF_DOC, NOT_LEIBNIZ, DIM0, G3_TRIV_DOC]
EXTENSIONS = G3_EXTS + [ABELIAN_EXT, ACTING_EXT]
# (argv, alternative input tuples); @k names the k-th input, and input 0
# comes on standard input
COMMANDS = [
    *(((*argv[:1], "@0", *argv[1:]), [(t,) for t in SEEDS]) for argv in (
        ("check",),
        ("derived",),
        ("search", "--weight", "0", "--grid", "0,1"),
        ("cohomology", "--max-degree", "0"),
        ("cohomology", "--max-degree", "2"),
    )),
    *((("deform", sub, "@0", "--deformation", "@1"), [(AFF_DOC, DEFORMATION)])
      for sub in ("verify", "infinitesimal", "gauge")),
    (("extend", "build", "@0", "--cocycle", "@1"), [(G3_TRIV_DOC, G3_COCYCLE)]),
    (("extend", "extract", "@0"), [(t,) for t in EXTENSIONS]),
    (("extend", "compare", "@0", "@1"), [tuple(G3_EXTS), (ABELIAN_EXT, ACTING_EXT)]),
]
KEYS = ["dim", "bracket", "weight", "matrix", "dimV", "rhoL", "kV", "order", "mu", "psi", "incl"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.sampled_from([216, 10 ** 30])
    | st.sampled_from(["0", "1", "-1", "1/2", "2/0", "x", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(KEYS), inner, max_size=3,
    ),
    max_leaves=8,
)


def paths(node, prefix=()):
    """The paths to every value below node, as key tuples."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutate(draw, text):
    """text with one to three changes at random places below its field tag:
    a scalar replaced by one of its type (a rational string, a small count),
    any value replaced by a random JSON value, or deleted."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        # deepest first: the first choice is the one drawn most often
        places = sorted((p for p in paths(doc) if p[0] != "field"), key=len, reverse=True)
        if not places:
            break
        *where, key = draw(st.sampled_from(places))
        parent = doc
        for k in where:
            parent = parent[k]
        action = draw(st.sampled_from(["retype", "retype", "any", "delete"]))
        old = parent[key]
        if action == "delete":
            del parent[key]
        elif action == "retype" and isinstance(old, str):
            parent[key] = draw(st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2"]))
        elif action == "retype" and type(old) is int:
            parent[key] = draw(st.integers(0, 4))
        else:
            parent[key] = draw(json_values)
    return json.dumps(doc)


def restamp(base, supplement):
    """The supplement with the baseDigest of base, when base parses."""
    try:
        digest = document_digest(parse_document(base))
    except MrbError:
        return supplement
    payload = json.loads(supplement)
    if "baseDigest" not in payload:
        return supplement
    payload["baseDigest"] = digest
    return json.dumps(payload)


@st.composite
def mutated_requests(draw):
    """A command with seed inputs, one of them mutated; a mutated base
    document re-stamps the baseDigest of its supplements."""
    argv, seeds = draw(st.sampled_from(COMMANDS))
    texts = list(draw(st.sampled_from(seeds)))
    k = draw(st.integers(0, len(texts) - 1))
    texts[k] = mutate(draw, texts[k])
    if k == 0:
        texts[1:] = [restamp(texts[0], t) for t in texts[1:]]
    return argv, tuple(texts)


@settings(max_examples=300, deadline=None)
@given(mutated_requests())
@example((("cohomology", "@0", "--max-degree", "1000000000"), (DIM0,)))
@example((("check", "@0"), (HUGE,)))
@example((("extend", "compare", "@0", "@1"), (ABELIAN_EXT, ACTING_EXT)))
@example((("extend", "compare", "@0", "@1"), (ABELIAN_EXT, SWAPPED_EXT)))
@example((("check", "@0"), (DEEP,)))
@example((("deform", "verify", "@0", "--deformation", "@1"), (AFF_DOC, DEEP)))
@example((("check", "@0"), ("\udcff{",)))
def test_no_document_escapes_main(request):
    argv, texts = request
    # reports and diagnostics are dropped
    with tempfile.TemporaryDirectory() as tmp:
        names = ["-"]
        for k, text in enumerate(texts[1:], 1):
            names.append(os.path.join(tmp, f"{k}.json"))
            with open(names[k], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [names[int(a[1:])] if a.startswith("@") else a for a in argv]
        stdin = io.TextIOWrapper(io.BytesIO(texts[0].encode("utf-8", "surrogatepass")))
        with mock.patch.object(sys, "stdin", stdin), \
                redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize("where", ["document", "deformation", "mask"])
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, where):
    doc = write(tmp_path, "aff.json", AFF_DOC)
    deep = write(tmp_path, "deep.json", DEEP)
    argv = {
        "document": ["check", deep],
        "deformation": ["deform", "verify", doc, "--deformation", deep],
        "mask": ["search", doc, "--weight", "0", "--grid", "0,1", "--mask", deep],
    }[where]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nested too deeply" in captured.err


# a JSON value in place of X that loads, but may nest too deeply to be
# echoed in a message, so no message echoes it: (argv, inputs); @k names
# the k-th input
NEAR_THE_LIMIT = {
    "bracket index": (("check", "@0"),
                      ('{"field":"rational","algebra":{"dim":1,"bracket":[[X,1,1,"1"]]}}',)),
    "weight": (("check", "@0"), ('{"field":"rational","algebra":{"dim":1,"bracket":[]},'
                                 '"operator":{"weight":X,"matrix":[["0"]]}}',)),
    "baseDigest": (("deform", "verify", "@0", "--deformation", "@1"),
                   (AFF_DOC, '{"field":"rational","baseDigest":X,"order":0}')),
    "mask entry": (("search", "@0", "--weight", "0", "--grid", "0,1", "--mask", "@1"),
                   (AFF_DOC, '{"entries":[[7,1,X]]}')),
    "bracket index after one out of range": (
        ("check", "@0"), ('{"field":"rational","algebra":{"dim":1,"bracket":[[2,X,1,"1"]]}}',)),
    "mask index after one out of range": (
        ("search", "@0", "--weight", "0", "--grid", "0,1", "--mask", "@1"),
        (AFF_DOC, '{"entries":[[7,X,"1"]]}')),
}


@pytest.mark.parametrize("where", list(NEAR_THE_LIMIT))
def test_nesting_near_the_recursion_limit_is_usage_error(tmp_path, capsys, where):
    argv, texts = NEAR_THE_LIMIT[where]
    limit = sys.getrecursionlimit()
    for n in range(limit - 200, limit + 1):
        value = "[" * n + "]" * n
        names = [write(tmp_path, f"{k}.json", t.replace("X", value)) for k, t in enumerate(texts)]
        assert main([names[int(a[1:])] if a.startswith("@") else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "[[[" not in captured.err


def test_an_integer_past_the_digit_limit_is_usage_error(tmp_path, capsys):
    text = '{"field":"rational","algebra":{"dim":1%s,"bracket":[]}}' % ("0" * 5000)
    assert main(["check", write(tmp_path, "doc.json", text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("mrbleib:")


# (argv, inputs, the input edited, the path to the object that gets a key);
# @k names the k-th input
UNKNOWN_KEY_CASES = {
    "document": (("check", "@0"), (AFF_DOC,), 0, ()),
    "algebra": (("check", "@0"), (AFF_DOC,), 0, ("algebra",)),
    "operator": (("check", "@0"), (AFF_DOC,), 0, ("operator",)),
    "representation": (("check", "@0"), (G3_TRIV_DOC,), 0, ("representation",)),
    "deformation": (("deform", "verify", "@0", "--deformation", "@1"),
                    (AFF_DOC, DEFORMATION), 1, ()),
    "cocycle": (("extend", "build", "@0", "--cocycle", "@1"), (G3_TRIV_DOC, G3_COCYCLE), 1, ()),
    "extension": (("extend", "extract", "@0"), (G3_EXTS[0],), 0, ()),
    "extension base": (("extend", "extract", "@0"), (G3_EXTS[0],), 0, ("base",)),
}


@pytest.mark.parametrize("where", list(UNKNOWN_KEY_CASES))
def test_an_unknown_key_is_usage_error(tmp_path, capsys, where):
    argv, texts, k, path = UNKNOWN_KEY_CASES[where]

    def run(texts):
        names = [write(tmp_path, f"{n}.json", t) for n, t in enumerate(texts)]
        return main([names[int(a[1:])] if a.startswith("@") else a for a in argv])

    assert run(texts) == 0
    capsys.readouterr()
    payload = json.loads(texts[k])
    target = payload
    for key in path:
        target = target[key]
    if where == "document":  # a misspelt operator used to be ignored
        target["operater"] = target.pop("operator")
    else:
        target["note"] = "1"
    assert run([json.dumps(payload) if n == k else t for n, t in enumerate(texts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown key" in captured.err


@pytest.mark.parametrize("mask", ["{}", G3_DOC], ids=["empty", "document"])
def test_a_mask_without_entries_is_usage_error(tmp_path, capsys, mask):
    doc = write(tmp_path, "g3.json", G3_DOC)
    mask_path = write(tmp_path, "mask.json", mask)
    assert main(["search", doc, "--weight", "1", "--grid", "0,1", "--mask", mask_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("mrbleib: mask")
