import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fixtures import AFF, G3, K0, KZ, ROT, TRIV1, Z1
from mrbleib.algebra import LeibnizAlgebra, OperatorContext
from mrbleib.cli import build_parser, execute, main
from mrbleib.cohomology import cone_differential, vec_to_cone
from mrbleib.deformation import FormalIso, TruncatedDeformation, apply_formal_iso
from mrbleib.documents import (
    AlgebraDocument,
    cocycle_json,
    deformation_json,
    extension_json,
    serialize_document,
)
from mrbleib.extensions import CocyclePair, extension_from_cocycle
from mrbleib.cohomology import zero_cochain, apply_delta, apply_phi, Cochain
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
    cone = vec_to_cone(kern[4], 3, 3, 2)
    pair = CocyclePair(cone.leib, cone.op)
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
    shifted = CocyclePair(
        pair.psi + apply_delta(G3, rep, gamma),
        pair.chi - apply_phi(G3, K0, rep, gamma),
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
        CocyclePair(zero_cochain(3, 3, 2), zero_cochain(3, 3, 1)), base
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
    code = main(["search", doc, "--weight", "1", "--grid", "0,1",
                 "--mask", str(tmp_path / "absent-mask.json")])
    assert code == 2


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
    pair = CocyclePair(zero_cochain(0, 2, 2), zero_cochain(0, 2, 1))
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
    pair = CocyclePair(zero_cochain(1, 0, 2), zero_cochain(1, 0, 1))
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
    payload = cocycle_json(CocyclePair(zero_cochain(3, 3, 2), zero_cochain(3, 3, 1)), base)
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


SEEDS = [
    G3_DOC,
    AFF_DOC,
    NOT_LEIBNIZ,
    DIM0,
    serialize_document(AlgebraDocument(G3, K0, TRIV1)),
]
COMMANDS = [
    ("check",),
    ("derived",),
    ("search", "--weight", "0", "--grid", "0,1"),
    ("cohomology", "--max-degree", "0"),
    ("cohomology", "--max-degree", "2"),
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.sampled_from([216, 10 ** 30])
    | st.sampled_from(["0", "1", "-1", "1/2", "2/0", "x", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["dim", "bracket", "weight", "matrix", "dimV", "rhoL", "kV"]),
        inner, max_size=3,
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


@st.composite
def mutated_documents(draw):
    """A seed document with one to three changes at random places below its
    field tag: a scalar replaced by one of its type (a rational string, a
    small count), any value replaced by a random JSON value, or deleted."""
    doc = json.loads(draw(st.sampled_from(SEEDS)))
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


@settings(max_examples=150, deadline=None)
@given(mutated_documents(), st.sampled_from(COMMANDS))
@example(DIM0, ("cohomology", "--max-degree", "1000000000"))
@example(HUGE, ("check",))
def test_no_document_escapes_main(text, command):
    # the document comes on standard input; reports and diagnostics are dropped
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main([command[0], "-", *command[1:]]) in (0, 1, 2)
