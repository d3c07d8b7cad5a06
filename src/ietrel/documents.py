"""Self-describing text documents for every object the CLI exchanges.

One document family covers all payload kinds.  A document is line oriented:

    ietrel v1
    D = 2
    kind = rotation
    lengths = 1/2, 1/2
    rates = -1+1*sqrt(2), 0

The first significant line is the magic string, then the quadratic context
(D = 0 for purely rational payloads), then the payload kind and its fields.
Blank lines and lines starting with '#' are ignored.  Every scalar in the
payload must live in the declared context; a foreign sqrt is a context
error, not a parse error.  Emission is canonical (fixed key order, fixed
spacing, scalars in canonical form), so parse-then-emit is byte stable.

`KINDS` is the whole format: each kind's payload type and its fields, in
emission order, with the codec of each.  Parsing, emission and context
inference all read that one table.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ContextMismatchError, ParseError, shown
from .iet import Iet, PermLambdaSpec
from .relations import (
    BRANCH_FINITE_ORDER,
    BRANCH_H_TRIVIAL,
    BRANCH_T_SIXTH,
    BRANCH_T_TRIVIAL,
    RelationCertificate,
)
from .rotation import DisjointRotationSpec
from .scalars import QuadExt, _check_read_disc, _lattice, _read_disc, _read_int
from .words import Word

__all__ = [
    "Document",
    "document",
    "infer_disc",
    "parse_document",
    "emit_document",
    "emit_certificate",
    "MAGIC",
    "KINDS",
]

MAGIC = "ietrel v1"

KIND_SCALAR = "scalar"
KIND_PERM_LAMBDA = "perm-lambda"
KIND_IET = "iet"
KIND_ROTATION = "rotation"
KIND_WORD = "word"
KIND_CERTIFICATE = "certificate"


class Document(NamedTuple):
    disc: int
    kind: str
    payload: object


# -- codecs: one field value to and from its text ---------------------------


class _Codec(NamedTuple):
    parse: Callable[[str, int], object]  # (text, D) -> value; ParseError if malformed
    emit: Callable[[object], str] = str
    scalars: Callable[[object], tuple] = lambda value: ()  # for context inference


def _split(text: str) -> List[str]:
    return [tok.strip() for tok in text.split(",")] if text else []


def _join(xs: Sequence) -> str:
    return ", ".join(str(x) for x in xs)


def _disc(text: str, _context: int = 0) -> int:
    disc = _read_disc(text)
    if disc:
        _check_read_disc(disc)
    return disc


def _one_of(*options: str) -> Callable[[str, int], str]:
    def parse(text: str, disc: int) -> str:
        if text not in options:
            raise ParseError(f"expected one of {', '.join(options)}, got {shown(text)}")
        return text

    return parse


_SCALAR = _Codec(lambda text, disc: QuadExt.parse(text, disc=disc), scalars=lambda x: (x,))
_SCALARS = _Codec(
    lambda text, disc: tuple(QuadExt.parse(tok, disc=disc) for tok in _split(text)),
    emit=_join,
    scalars=tuple,
)
_DISC = _Codec(_disc)
_INT = _Codec(lambda text, disc: _read_int(text))
_INTS = _Codec(lambda text, disc: tuple(map(_read_int, _split(text))), emit=_join)
_WORD = _Codec(lambda text, disc: Word.parse(text))
_BRANCH = _Codec(
    _one_of(BRANCH_FINITE_ORDER, BRANCH_H_TRIVIAL, BRANCH_T_TRIVIAL, BRANCH_T_SIXTH)
)
_BOOL = _Codec(
    lambda text, disc: _one_of("true", "false")(text, disc) == "true",
    emit=lambda flag: "true" if flag else "false",
)


# -- the kind table -----------------------------------------------------------


class _Kind(NamedTuple):
    type: type
    fields: Tuple[Tuple[str, _Codec, bool], ...]  # (key, codec, optional) in order
    bare: bool = False  # the payload is its one field's value, not an object of fields


KINDS = {
    KIND_SCALAR: _Kind(QuadExt, (("value", _SCALAR, False),), bare=True),
    KIND_PERM_LAMBDA: _Kind(PermLambdaSpec, (("pi", _INTS, False), ("lengths", _SCALARS, False))),
    KIND_IET: _Kind(Iet, (("breakpoints", _SCALARS, False), ("translations", _SCALARS, False))),
    KIND_ROTATION: _Kind(
        DisjointRotationSpec, (("lengths", _SCALARS, False), ("rates", _SCALARS, False))
    ),
    KIND_WORD: _Kind(Word, (("word", _WORD, False),), bare=True),
    KIND_CERTIFICATE: _Kind(RelationCertificate, (
        ("branch", _BRANCH, False),
        ("L", _INT, True),
        ("d", _INT, True),
        ("M", _INT, True),
        ("epsilon", _SCALAR, True),
        ("verified", _BOOL, False),
        ("word", _WORD, False),
    )),
}


def _kind_of(payload) -> str:
    for kind, spec in KINDS.items():
        if isinstance(payload, spec.type):
            return kind
    raise TypeError(f"no document kind for {type(payload).__name__}")


def _fields(kind: str, payload):
    """(key, codec, value) for each field of the payload, in emission order."""
    spec = KINDS[kind]
    for key, codec, _ in spec.fields:
        yield key, codec, payload if spec.bare else getattr(payload, key)


def infer_disc(*payloads) -> int:
    """The one discriminant of every scalar in the payloads; 0 if all are rational."""
    return _lattice(
        x
        for payload in payloads
        for _, codec, value in _fields(_kind_of(payload), payload)
        if value is not None
        for x in codec.scalars(value)
    )[1]


def document(payload, disc: Optional[int] = None) -> Document:
    """Wrap a payload object, inferring the context D unless given."""
    inferred = infer_disc(payload)
    if disc is None:
        disc = inferred
    elif inferred != 0 and disc != inferred:
        raise ContextMismatchError(
            f"payload uses sqrt({inferred}) under declared context D={disc}"
        )
    return Document(disc=disc, kind=_kind_of(payload), payload=payload)


# -- emission -------------------------------------------------------------


def emit_document(doc: Document) -> str:
    lines = [MAGIC, f"D = {doc.disc}", f"kind = {doc.kind}"]
    for key, codec, value in _fields(doc.kind, doc.payload):
        if value is not None:
            text = codec.emit(value)
            lines.append(f"{key} = {text}" if text else f"{key} =")
    return "\n".join(lines) + "\n"


def emit_certificate(cert: RelationCertificate, disc: Optional[int] = None) -> str:
    return emit_document(document(cert, disc=disc))


# -- parsing ----------------------------------------------------------------


def parse_document(text: str, *kinds: str) -> Document:
    """Parse one document.  Given kinds, the document must be one of them;
    that is checked after the payload parses, so a bad payload is reported
    first whatever its kind."""
    entries: dict = {}
    saw_magic = False
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_magic:
            if line != MAGIC:
                raise ParseError(f"expected header {MAGIC!r}, got {shown(line)}", line=n)
            saw_magic = True
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"expected 'key = value', got {shown(line)}", line=n)
        key = key.strip()
        if key in entries:
            raise ParseError(f"duplicate key {shown(key)}", line=n)
        entries[key] = (value.strip(), n)
    if not saw_magic:
        raise ParseError("empty document")
    disc = _field(entries, "D", _DISC, 0)
    kind, n = _pop(entries, "kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {shown(kind)}", line=n)
    spec = KINDS[kind]
    values = {
        key: None if optional and key not in entries else _field(entries, key, codec, disc)
        for key, codec, optional in spec.fields
    }
    payload = next(iter(values.values())) if spec.bare else spec.type(**values)
    if entries:
        key, (_, n) = next(iter(entries.items()))
        raise ParseError(f"unexpected key {shown(key)} for kind {kind!r}", line=n)
    if kinds and kind not in kinds:
        raise ParseError(f"expected a {' or '.join(kinds)} document, got kind {kind!r}")
    return Document(disc=disc, kind=kind, payload=payload)


def _pop(entries: dict, key: str) -> Tuple[str, int]:
    if key not in entries:
        raise ParseError(f"missing required key {key!r}")
    return entries.pop(key)


def _field(entries: dict, key: str, codec: _Codec, disc: int):
    value, n = _pop(entries, key)
    try:
        return codec.parse(value, disc)
    except ParseError as exc:
        raise ParseError(f"key {key!r}: {exc}", line=n) from None
