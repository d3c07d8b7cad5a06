"""Document format: canonical emission, parsing, context enforcement."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from ietrel.cli import EXIT_PARSE, main
from ietrel.documents import (
    KIND_CERTIFICATE,
    KIND_IET,
    KIND_PERM_LAMBDA,
    KIND_ROTATION,
    KIND_SCALAR,
    KIND_WORD,
    KINDS,
    document,
    emit_certificate,
    emit_document,
    parse_document,
)
from ietrel.errors import ContextMismatchError, ParseError
from ietrel.iet import Iet, PermLambdaSpec
from ietrel.relations import RelationCertificate, synthesize
from ietrel.rotation import DisjointRotationSpec
from ietrel.scalars import QuadExt
from ietrel.words import Word

from conftest import q, quads, seeded_iets, seeded_specs

F = Fraction

SQRT2M1 = QuadExt(-1, 1, 2)


def round_trip(payload, kind):
    """Emit the payload as a document and parse it back as that kind."""
    return parse_document(emit_document(document(payload)), kind).payload

ROTATION_TEXT = """\
ietrel v1
D = 2
kind = rotation
lengths = 1/2, 1/2
rates = -1+1*sqrt(2), 0
"""


# -- canonical emission ----------------------------------------------------------


def test_rotation_document_is_byte_exact():
    spec = DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))), (SQRT2M1, q(0)))
    assert emit_document(document(spec)) == ROTATION_TEXT


def test_parse_then_emit_is_byte_stable():
    noisy = (
        "# a comment\n\n  ietrel v1  \nD = 2\n\nkind = rotation\n"
        "lengths = 2/4, 1/2\n# rates below\nrates = -1+1*sqrt(2), 0/5\n"
    )
    doc = parse_document(noisy)
    assert emit_document(doc) == ROTATION_TEXT
    assert emit_document(parse_document(ROTATION_TEXT)) == ROTATION_TEXT


def test_scalar_document():
    doc = document(SQRT2M1)
    assert doc.kind == "scalar"
    assert doc.disc == 2
    text = emit_document(doc)
    assert text == "ietrel v1\nD = 2\nkind = scalar\nvalue = -1+1*sqrt(2)\n"
    assert parse_document(text).payload == SQRT2M1


def test_word_document_including_empty():
    text = emit_document(document(Word.parse("b^-1 a^3")))
    assert text == "ietrel v1\nD = 0\nkind = word\nword = b^-1 a^3\n"
    empty = emit_document(document(Word()))
    assert empty == "ietrel v1\nD = 0\nkind = word\nword =\n"
    assert parse_document(empty).payload == Word()


def test_certificate_document_round_trip():
    cert = synthesize(DisjointRotationSpec((q(1),), (SQRT2M1,)), Iet.identity())
    text = emit_certificate(cert, disc=2)
    lines = text.splitlines()
    assert lines[:3] == ["ietrel v1", "D = 2", "kind = certificate"]
    assert "branch = h_trivial" in lines
    assert "verified = true" in lines
    assert parse_document(text, KIND_CERTIFICATE).payload == cert


def test_certificate_document_omits_absent_params():
    cert = RelationCertificate(word=Word.parse("a^4"), branch="finite_order",
                               verified=True)
    text = emit_certificate(cert)
    assert text == (
        "ietrel v1\nD = 0\nkind = certificate\nbranch = finite_order\n"
        "verified = true\nword = a^4\n"
    )
    assert parse_document(text, KIND_CERTIFICATE).payload == cert


# -- round trips over every kind --------------------------------------------------


def test_iet_and_perm_lambda_round_trip():
    f = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(3, 2, 1),
        lengths=(q(F(1, 4)), q(F(1, 4)), q(F(1, 2)))))
    assert round_trip(f, KIND_IET) == f
    spec = PermLambdaSpec(pi=(2, 1), lengths=(SQRT2M1, q(2) - QuadExt(0, 1, 2)))
    text = emit_document(document(spec))
    assert parse_document(text).payload == spec


@given(seeded_iets())
@settings(max_examples=25, deadline=None)
def test_random_iets_round_trip(f):
    assert round_trip(f, KIND_IET) == f


@given(seeded_specs())
@settings(max_examples=25, deadline=None)
def test_random_specs_round_trip(spec):
    assert round_trip(spec, KIND_ROTATION) == spec


@given(quads())
@settings(max_examples=40, deadline=None)
def test_scalar_grammar_round_trips(x):
    assert QuadExt.parse(str(x)) == x
    assert round_trip(x, KIND_SCALAR) == x


def test_word_grammar_round_trips():
    for text in ("", "a", "b^-1 a^-5 b a^5", "a^3 b^2 a^-1"):
        w = Word.parse(text)
        assert Word.parse(str(w)) == w
        assert round_trip(w, KIND_WORD) == w


# -- context enforcement -----------------------------------------------------------


def test_declared_context_must_match_payload():
    with pytest.raises(ContextMismatchError):
        document(SQRT2M1, disc=3)
    # a rational payload may be declared under any valid context
    assert document(q(F(1, 2)), disc=5).disc == 5
    assert document(q(F(1, 2))).disc == 0


def test_parse_rejects_foreign_sqrt():
    text = ROTATION_TEXT.replace("sqrt(2)", "sqrt(3)")
    with pytest.raises(ContextMismatchError):
        parse_document(text)


def test_parse_rejects_bad_discriminant():
    with pytest.raises(ParseError):
        parse_document("ietrel v1\nD = 4\nkind = scalar\nvalue = 1/2\n")
    with pytest.raises(ParseError):
        parse_document("ietrel v1\nD = -2\nkind = scalar\nvalue = 1/2\n")


# -- parse errors -------------------------------------------------------------------


def test_parse_error_carries_the_line_number():
    with pytest.raises(ParseError) as exc:
        parse_document("ietrel v1\nD = 2\nkind = rotation\nlengths = 1\nrates = x\n")
    assert exc.value.line == 5


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError, match="header"):
        parse_document("not a document\n")
    with pytest.raises(ParseError, match="empty"):
        parse_document("# only a comment\n")
    with pytest.raises(ParseError, match="key = value"):
        parse_document("ietrel v1\nD = 2\nkind\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_document("ietrel v1\nD = 2\nD = 3\nkind = word\nword =\n")
    with pytest.raises(ParseError, match="missing"):
        parse_document("ietrel v1\nkind = word\nword =\n")
    with pytest.raises(ParseError, match="unknown kind"):
        parse_document("ietrel v1\nD = 0\nkind = polygon\n")
    with pytest.raises(ParseError, match="unexpected key"):
        parse_document("ietrel v1\nD = 0\nkind = word\nword =\nextra = 1\n")
    with pytest.raises(ParseError, match="integer"):
        parse_document("ietrel v1\nD = two\nkind = word\nword =\n")
    with pytest.raises(ParseError, match="branch"):
        parse_document(
            "ietrel v1\nD = 0\nkind = certificate\nbranch = magic\n"
            "verified = true\nword = a\n"
        )
    with pytest.raises(ParseError, match="verified"):
        parse_document(
            "ietrel v1\nD = 0\nkind = certificate\nbranch = h_trivial\n"
            "verified = maybe\nword = a\n"
        )


def test_typed_wrappers_enforce_the_kind():
    with pytest.raises(ParseError, match="expected a iet"):
        parse_document(ROTATION_TEXT, KIND_IET)
    with pytest.raises(ParseError, match="expected a rotation"):
        parse_document("ietrel v1\nD = 0\nkind = word\nword = a\n", KIND_ROTATION)


# -- the kind filter the CLI applies ---------------------------------------------

SAMPLES = {
    KIND_SCALAR: SQRT2M1,
    KIND_PERM_LAMBDA: PermLambdaSpec(pi=(2, 1), lengths=(q(F(1, 4)), q(F(3, 4)))),
    KIND_IET: Iet.rotation(q(F(1, 4))),
    KIND_ROTATION: DisjointRotationSpec((q(1),), (SQRT2M1,)),
    KIND_WORD: Word.parse("a b^-1"),
    KIND_CERTIFICATE: RelationCertificate(word=Word.parse("a^4"), branch="finite_order",
                                          verified=True),
}

# each accepted-kind set of the CLI, with a command that reads a {doc} under it
ACCEPTED = {
    "maps": ((KIND_IET, KIND_PERM_LAMBDA, KIND_ROTATION), ("l1", "--map", "{doc}")),
    "rotation": ((KIND_ROTATION,), ("synthesize", "--r", "{doc}", "--g", "{g}")),
    "word-or-certificate": ((KIND_WORD, KIND_CERTIFICATE),
                            ("verify", "--word", "{doc}", "--r", "{r}", "--g", "{g}")),
}


def test_the_samples_cover_every_kind():
    assert set(SAMPLES) == set(KINDS)


def test_a_payload_of_no_kind_has_no_document():
    with pytest.raises(TypeError, match="no document kind for object"):
        document(object())


@pytest.mark.parametrize("accepted, argv", ACCEPTED.values(), ids=ACCEPTED.keys())
@pytest.mark.parametrize("kind", KINDS)
def test_only_the_accepted_kinds_parse(tmp_path, capsys, accepted, argv, kind):
    text = emit_document(document(SAMPLES[kind]))
    paths = {"doc": tmp_path / "doc", "r": tmp_path / "r", "g": tmp_path / "g"}
    paths["doc"].write_text(text)
    paths["r"].write_text(emit_document(document(SAMPLES[KIND_ROTATION])))
    paths["g"].write_text(emit_document(document(Iet.identity())))
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    if kind in accepted:
        assert parse_document(text, *accepted).payload == SAMPLES[kind]
        assert code != EXIT_PARSE
        return
    with pytest.raises(ParseError, match=f"expected a .* document, got kind '{kind}'"):
        parse_document(text, *accepted)
    assert code == EXIT_PARSE
    assert f"got kind '{kind}'" in err
    assert str(paths["doc"]) in err
