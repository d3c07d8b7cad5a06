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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ContextMismatchError, ParseError, PreconditionError
from .iet import Iet, PermLambdaSpec
from .relations import (
    BRANCH_FINITE_ORDER,
    BRANCH_H_TRIVIAL,
    BRANCH_T_SIXTH,
    BRANCH_T_TRIVIAL,
    RelationCertificate,
)
from .rotation import DisjointRotationSpec
from .scalars import QuadExt, as_scalar
from .words import Word

__all__ = [
    "Document",
    "document",
    "parse_document",
    "emit_document",
    "parse_scalar",
    "emit_scalar",
    "parse_iet",
    "emit_iet",
    "parse_spec",
    "emit_spec",
    "parse_perm_lambda",
    "emit_perm_lambda",
    "parse_word",
    "emit_word",
    "parse_certificate",
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

KINDS = (
    KIND_SCALAR,
    KIND_PERM_LAMBDA,
    KIND_IET,
    KIND_ROTATION,
    KIND_WORD,
    KIND_CERTIFICATE,
)

_BRANCHES = (
    BRANCH_FINITE_ORDER,
    BRANCH_H_TRIVIAL,
    BRANCH_T_TRIVIAL,
    BRANCH_T_SIXTH,
)


@dataclass(frozen=True)
class Document:
    disc: int
    kind: str
    payload: object


def _scalars_of(payload) -> Tuple[QuadExt, ...]:
    if isinstance(payload, QuadExt):
        return (payload,)
    if isinstance(payload, PermLambdaSpec):
        return payload.lengths
    if isinstance(payload, Iet):
        return payload.breakpoints + payload.translations
    if isinstance(payload, DisjointRotationSpec):
        return payload.lengths + payload.rates
    if isinstance(payload, Word):
        return ()
    if isinstance(payload, RelationCertificate):
        return () if payload.epsilon is None else (payload.epsilon,)
    raise TypeError(f"no document kind for {type(payload).__name__}")


def _kind_of(payload) -> str:
    if isinstance(payload, QuadExt):
        return KIND_SCALAR
    if isinstance(payload, PermLambdaSpec):
        return KIND_PERM_LAMBDA
    if isinstance(payload, Iet):
        return KIND_IET
    if isinstance(payload, DisjointRotationSpec):
        return KIND_ROTATION
    if isinstance(payload, Word):
        return KIND_WORD
    if isinstance(payload, RelationCertificate):
        return KIND_CERTIFICATE
    raise TypeError(f"no document kind for {type(payload).__name__}")


def infer_disc(scalars: Iterable[QuadExt]) -> int:
    disc = 0
    for x in scalars:
        if x.disc == 0:
            continue
        if disc == 0:
            disc = x.disc
        elif disc != x.disc:
            raise ContextMismatchError(f"mixed discriminants {disc} and {x.disc}")
    return disc


def document(payload, disc: Optional[int] = None) -> Document:
    """Wrap a payload object, inferring the context D unless given."""
    inferred = infer_disc(_scalars_of(payload))
    if disc is None:
        disc = inferred
    elif inferred != 0 and disc != inferred:
        raise ContextMismatchError(
            f"payload uses sqrt({inferred}) under declared context D={disc}"
        )
    return Document(disc=disc, kind=_kind_of(payload), payload=payload)


# -- emission -------------------------------------------------------------


def _join(xs: Sequence) -> str:
    return ", ".join(str(x) for x in xs)


def emit_document(doc: Document) -> str:
    lines = [MAGIC, f"D = {doc.disc}", f"kind = {doc.kind}"]
    p = doc.payload
    if doc.kind == KIND_SCALAR:
        lines.append(f"value = {p}")
    elif doc.kind == KIND_PERM_LAMBDA:
        lines.append(f"pi = {_join(p.pi)}")
        lines.append(f"lengths = {_join(p.lengths)}")
    elif doc.kind == KIND_IET:
        lines.append(f"breakpoints = {_join(p.breakpoints)}")
        lines.append(f"translations = {_join(p.translations)}")
    elif doc.kind == KIND_ROTATION:
        lines.append(f"lengths = {_join(p.lengths)}")
        lines.append(f"rates = {_join(p.rates)}")
    elif doc.kind == KIND_WORD:
        lines.append(_word_line(p))
    elif doc.kind == KIND_CERTIFICATE:
        lines.append(f"branch = {p.branch}")
        for key in ("L", "d", "M"):
            value = getattr(p, key)
            if value is not None:
                lines.append(f"{key} = {value}")
        if p.epsilon is not None:
            lines.append(f"epsilon = {p.epsilon}")
        lines.append(f"verified = {'true' if p.verified else 'false'}")
        lines.append(_word_line(p.word))
    else:
        raise TypeError(f"unknown document kind {doc.kind!r}")
    return "\n".join(lines) + "\n"


def _word_line(w: Word) -> str:
    s = str(w)
    return f"word = {s}" if s else "word ="


# -- parsing ----------------------------------------------------------------


def parse_document(text: str) -> Document:
    entries: dict = {}
    saw_magic = False
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_magic:
            if line != MAGIC:
                raise ParseError(f"expected header {MAGIC!r}, got {line!r}", line=n)
            saw_magic = True
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"expected 'key = value', got {line!r}", line=n)
        key = key.strip()
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", line=n)
        entries[key] = (value.strip(), n)
    if not saw_magic:
        raise ParseError("empty document")
    d_value, d_line = _take(entries, "D")
    try:
        disc = int(d_value)
    except ValueError:
        raise ParseError(f"key 'D' needs an integer, got {d_value!r}", line=d_line) from None
    if disc != 0:
        try:
            QuadExt.sqrt(disc)
        except ValueError as exc:
            raise ParseError(str(exc), line=d_line) from None
    kind, kind_line = _take(entries, "kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}", line=kind_line)
    payload = _parse_payload(kind, disc, entries)
    if entries:
        key, (_, n) = next(iter(entries.items()))
        raise ParseError(f"unexpected key {key!r} for kind {kind!r}", line=n)
    return Document(disc=disc, kind=kind, payload=payload)


def _take(entries: dict, key: str) -> Tuple[str, int]:
    if key not in entries:
        raise ParseError(f"missing required key {key!r}")
    return entries.pop(key)


def _take_int(entries: dict, key: str) -> int:
    value, n = _take(entries, key)
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"key {key!r} needs an integer, got {value!r}", line=n) from None


def _split_list(value: str) -> List[str]:
    if not value:
        return []
    return [tok.strip() for tok in value.split(",")]


def _parse_scalars(value: str, disc: int, n: int) -> List[QuadExt]:
    out = []
    for tok in _split_list(value):
        try:
            out.append(QuadExt.parse(tok, disc=disc))
        except ParseError as exc:
            _reraise(exc, n)
    return out


def _reraise(exc: ParseError, n: int):
    if exc.line is None:
        raise ParseError(exc.args[0], line=n) from None
    raise exc


def _parse_payload(kind: str, disc: int, entries: dict):
    if kind == KIND_SCALAR:
        value, n = _take(entries, "value")
        try:
            return QuadExt.parse(value, disc=disc)
        except ParseError as exc:
            _reraise(exc, n)
    if kind == KIND_PERM_LAMBDA:
        pi_value, pi_n = _take(entries, "pi")
        try:
            pi = tuple(int(tok) for tok in _split_list(pi_value))
        except ValueError:
            raise ParseError(f"pi needs integers, got {pi_value!r}", line=pi_n) from None
        lengths_value, lengths_n = _take(entries, "lengths")
        lengths = _parse_scalars(lengths_value, disc, lengths_n)
        return PermLambdaSpec(pi=pi, lengths=tuple(lengths))
    if kind == KIND_IET:
        b_value, b_n = _take(entries, "breakpoints")
        t_value, t_n = _take(entries, "translations")
        breakpoints = _parse_scalars(b_value, disc, b_n)
        translations = _parse_scalars(t_value, disc, t_n)
        f = Iet(tuple(breakpoints), tuple(translations))
        if not f.is_bijection():
            raise PreconditionError(
                "the iet is not a bijection: its image intervals do not tile [0, 1)"
            )
        return f
    if kind == KIND_ROTATION:
        l_value, l_n = _take(entries, "lengths")
        r_value, r_n = _take(entries, "rates")
        lengths = _parse_scalars(l_value, disc, l_n)
        rates = _parse_scalars(r_value, disc, r_n)
        return DisjointRotationSpec(lengths=tuple(lengths), rates=tuple(rates))
    if kind == KIND_WORD:
        value, n = _take(entries, "word")
        try:
            return Word.parse(value)
        except ParseError as exc:
            _reraise(exc, n)
    if kind == KIND_CERTIFICATE:
        branch, branch_n = _take(entries, "branch")
        if branch not in _BRANCHES:
            raise ParseError(f"unknown branch {branch!r}", line=branch_n)
        params = {}
        for key in ("L", "d", "M"):
            if key in entries:
                params[key] = _take_int(entries, key)
            else:
                params[key] = None
        epsilon = None
        if "epsilon" in entries:
            value, n = _take(entries, "epsilon")
            try:
                epsilon = QuadExt.parse(value, disc=disc)
            except ParseError as exc:
                _reraise(exc, n)
        verified_value, verified_n = _take(entries, "verified")
        if verified_value not in ("true", "false"):
            raise ParseError(
                f"verified must be true or false, got {verified_value!r}",
                line=verified_n,
            )
        word_value, word_n = _take(entries, "word")
        try:
            word = Word.parse(word_value)
        except ParseError as exc:
            _reraise(exc, word_n)
        return RelationCertificate(
            word=word,
            branch=branch,
            L=params["L"],
            d=params["d"],
            epsilon=epsilon,
            M=params["M"],
            verified=verified_value == "true",
        )
    raise TypeError(f"unknown document kind {kind!r}")


# -- typed convenience wrappers --------------------------------------------


def parse_scalar(text: str, disc: Optional[int] = None) -> QuadExt:
    """Parse a bare scalar in the scalar grammar (not a document)."""
    return QuadExt.parse(text, disc=disc)


def emit_scalar(x) -> str:
    return str(as_scalar(x))


def parse_word(text: str) -> Word:
    """Parse a bare word in the word grammar (not a document)."""
    return Word.parse(text)


def emit_word(w: Word) -> str:
    return str(w)


def _parse_expecting(text: str, kind: str):
    doc = parse_document(text)
    if doc.kind != kind:
        raise ParseError(f"expected a {kind} document, got kind {doc.kind!r}")
    return doc.payload


def parse_iet(text: str) -> Iet:
    return _parse_expecting(text, KIND_IET)


def emit_iet(f: Iet) -> str:
    return emit_document(document(f))


def parse_spec(text: str) -> DisjointRotationSpec:
    return _parse_expecting(text, KIND_ROTATION)


def emit_spec(spec: DisjointRotationSpec) -> str:
    return emit_document(document(spec))


def parse_perm_lambda(text: str) -> PermLambdaSpec:
    return _parse_expecting(text, KIND_PERM_LAMBDA)


def emit_perm_lambda(spec: PermLambdaSpec) -> str:
    return emit_document(document(spec))


def parse_certificate(text: str) -> RelationCertificate:
    return _parse_expecting(text, KIND_CERTIFICATE)


def emit_certificate(cert: RelationCertificate, disc: Optional[int] = None) -> str:
    return emit_document(document(cert, disc=disc))
