import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import AFF, G3, K0, ROT
from mrbleib.algebra import LeibnizAlgebra
from mrbleib.deformation import FormalIso, TruncatedDeformation, apply_formal_iso
from mrbleib.documents import (
    AlgebraDocument,
    cocycle_json,
    deformation_json,
    document_digest,
    document_json,
    extension_json,
    parse_cocycle,
    parse_deformation,
    parse_document,
    parse_extension,
    serialize_document,
)
from mrbleib.errors import DuplicateKey, IndexOutOfRange, ParseError
from mrbleib.extensions import extension_from_cocycle
from mrbleib.cohomology import zero_cone_cochain
from mrbleib.linalg import Matrix
from mrbleib.representations import regular_rep

G3_TEXT = """
{
  "field": "rational",
  "algebra": {"dim": 3, "bracket": [[1, 1, 3, "1"]]},
  "operator": {"weight": "1",
               "matrix": [["1","0","0"],["0","0","0"],["0","0","0"]]}
}
"""


def test_parse_g3_document():
    doc = parse_document(G3_TEXT)
    assert doc.algebra == G3
    assert doc.operator == K0
    assert doc.representation is None
    assert doc.effective_representation() == regular_rep(G3, K0)


def test_round_trip_is_identity_on_canonical_form():
    doc = parse_document(G3_TEXT)
    text = serialize_document(doc)
    again = serialize_document(parse_document(text))
    assert text == again


def test_full_document_round_trip():
    rep = regular_rep(AFF, ROT)
    doc = AlgebraDocument(AFF, ROT, rep)
    text = serialize_document(doc)
    parsed = parse_document(text)
    assert parsed.algebra == AFF
    assert parsed.operator == ROT
    assert parsed.representation == rep
    assert document_digest(parsed) == document_digest(doc)


def test_parse_errors():
    with pytest.raises(IndexOutOfRange):
        parse_document('{"field":"rational","algebra":{"dim":3,"bracket":[[1,1,4,"1"]]}}')
    with pytest.raises(DuplicateKey):
        parse_document(
            '{"field":"rational","algebra":{"dim":2,"bracket":[[1,1,2,"1"],[1,1,2,"2"]]}}'
        )
    with pytest.raises(ParseError):
        parse_document('{"field":"rational","algebra":{"dim":1,"bracket":[[1,1,1,"1/0"]]}}')
    with pytest.raises(ParseError):
        parse_document('{"algebra":{"dim":1,"bracket":[]}}')
    with pytest.raises(ParseError):
        parse_document("not json")
    with pytest.raises(ParseError):
        parse_document('{"field":"real","algebra":{"dim":1,"bracket":[]}}')
    # the dense bracket table of dim 216 would have more than 10**7 cells
    for dim in (216, 10 ** 30):
        with pytest.raises(ParseError, match="too large"):
            parse_document('{"field":"rational","algebra":{"dim":%d,"bracket":[]}}' % dim)


def test_deformation_document_round_trip():
    base = AlgebraDocument(AFF, ROT, None)
    triv = TruncatedDeformation.trivial(AFF, ROT, 2)
    iso = FormalIso((Matrix.identity(2), Matrix([[0, 1], [1, 0]]), Matrix.zeros(2, 2)))
    dfm = apply_formal_iso(triv, iso)
    payload = json.dumps(deformation_json(dfm))
    parsed = parse_deformation(payload, base)
    assert parsed.mu == dfm.mu
    assert parsed.kk == dfm.kk


def test_deformation_digest_mismatch():
    base = AlgebraDocument(AFF, ROT, None)
    other = AlgebraDocument(G3, K0, None)
    payload = json.dumps(deformation_json(TruncatedDeformation.trivial(AFF, ROT, 1)))
    parse_deformation(payload, base)
    with pytest.raises(ParseError):
        parse_deformation(payload, other)


def test_cocycle_document_round_trip():
    rep = regular_rep(G3, K0)
    base = AlgebraDocument(G3, K0, rep)
    pair = zero_cone_cochain(3, 3, 2)
    ext = extension_from_cocycle(G3, K0, rep, pair)
    payload = json.dumps(cocycle_json(pair, base))
    parsed = parse_cocycle(payload, base)
    assert parsed == pair

    ext_payload = json.dumps(extension_json(ext))
    parsed_ext = parse_extension(ext_payload)
    assert parsed_ext.total == ext.total
    assert parsed_ext.total_op == ext.total_op
    assert parsed_ext.incl == ext.incl
    assert parsed_ext.proj == ext.proj
    assert parsed_ext.fiber_op == ext.fiber_op


def test_cocycle_document_errors():
    rep = regular_rep(G3, K0)
    base = AlgebraDocument(G3, K0, rep)
    digest = document_digest(base)
    with pytest.raises(IndexOutOfRange):
        parse_cocycle(
            json.dumps({"field": "rational", "baseDigest": digest,
                        "psi": [[1, 1, 9, "1"]], "chi": []}),
            base,
        )
    with pytest.raises(DuplicateKey):
        parse_cocycle(
            json.dumps({"field": "rational", "baseDigest": digest,
                        "psi": [[1, 1, 1, "1"], [1, 1, 1, "2"]], "chi": []}),
            base,
        )


small_entries = st.lists(
    st.tuples(
        st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
    max_size=6,
)


@settings(max_examples=50, deadline=None)
@given(small_entries)
def test_algebra_document_round_trip_property(entries):
    dedup = {}
    for i, j, k, c in entries:
        dedup[(i, j, k)] = c
    alg = LeibnizAlgebra(2, [(i, j, k, c) for (i, j, k), c in dedup.items()])
    doc = AlgebraDocument(alg, None, None)
    assert parse_document(serialize_document(doc)).algebra == alg
