"""Word.parse and QuadExt.parse against copies of the term-by-term parsers
they replaced: on seeded valid and malformed text, the same value or the
same exception with the same message."""

from __future__ import annotations

import random
import re

from ietrel.errors import ContextMismatchError, ParseError, shown
from ietrel.scalars import (
    MAX_PRINT_DIGITS, QuadExt, _check_read_disc, _make, _read_disc, _read_int,
)
from ietrel.words import MAX_EXPONENT_DIGITS, Word, free_reduce

# -- the parsers as they were -----------------------------------------------------

_OLD_TOKEN = re.compile(r"^([ab])(?:\^(-?[0-9]+))?$")
_OLD_TERM = re.compile(
    r"([+-]?)(?:([0-9]+)(?:/([0-9]+))?(?:\*sqrt\(([0-9]+)\))?|sqrt\(([0-9]+)\))"
)


def _old_word_parse(text):
    raw = []
    for token in text.split():
        m = _OLD_TOKEN.match(token)
        if not m:
            raise ParseError(f"bad word token {shown(token)}")
        exp = _read_int(m.group(2) or "1", MAX_EXPONENT_DIGITS,
                        f"MAX_EXPONENT_DIGITS = {MAX_EXPONENT_DIGITS}")
        if exp == 0:
            raise ParseError(f"zero exponent in token {shown(token)}")
        raw.append((m.group(1), exp))
    return free_reduce(raw)


def _old_scalar_parse(text, disc=None):
    terms = re.split(r"(?<=.)(?=[+-])", re.sub(r"\s+", "", text))
    if terms == [""]:
        raise ParseError("empty scalar")
    if len(terms) > 2:
        raise ParseError(f"malformed scalar {shown(text)}")
    read = {}
    for term in terms:
        m = _OLD_TERM.fullmatch(term)
        if m is None:
            raise ParseError(f"malformed scalar term {shown(term)} in {shown(text)}")
        sign, p, q, d, bare_d = m.groups()
        d = d or bare_d
        kind = "rational" if d is None else "root"
        if kind in read:
            raise ParseError(f"two {kind} terms in scalar {shown(text)}")
        den = _read_int(q or "1")
        if not den:
            raise ParseError(f"zero denominator in scalar {shown(text)}")
        read[kind] = _read_int(sign + (p or "1")), den, d and _read_disc(d)
    a, b, _ = read.get("rational", (0, 1, 0))
    c, e, root = read.get("root", (0, 1, 0))
    if c:
        _check_read_disc(root)
        if disc is not None and root != disc:
            raise ContextMismatchError(
                f"scalar {shown(text)} uses sqrt({root}) under context D={disc}"
            )
    return _make(a * e, c * b, b * e, root)


# -- seeded text ---------------------------------------------------------------------

SPACES = (" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c")
NON_ASCII_DIGITS = ("\u0663", "\uff15", "\u0660")
JUNK = ("x", "+", "-", "*", "/", "(", ")", "^", ".", "_", "sqrt", "a", "1")


def _digits(rng, cap):
    """Decimal text: usually small, sometimes zero-padded, zero, at its cap
    or past it, or holding a non-ASCII digit."""
    roll = rng.randrange(12)
    if roll == 0:
        return "0" * rng.randrange(1, 4)
    if roll == 1:
        return "0" * rng.choice((1, 3, 5000)) + str(rng.randrange(1, 10**6))
    if roll == 2:
        return "7" * rng.choice((cap, cap + 1))
    if roll == 3:
        text = str(rng.randrange(1, 1000))
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(NON_ASCII_DIGITS) + text[at:]
    return str(rng.randrange(1, 10**rng.randrange(1, 12)))


def _spaced(rng, text):
    """text with whitespace put in at a few random places."""
    for _ in range(rng.choice((0, 0, 1, 3))):
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(SPACES) + text[at:]
    return text


def _mangled(rng, text):
    """text with a character dropped or a junk piece put in."""
    at = rng.randrange(len(text) + 1)
    if text and rng.randrange(2):
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(JUNK) + text[at:]


def _scalar_term(rng, sign):
    p = _digits(rng, MAX_PRINT_DIGITS)
    q = _digits(rng, MAX_PRINT_DIGITS)
    d = rng.choice(("2", "3", "5", "4", "02", "1", "0")) if rng.randrange(5) else _digits(rng, 11)
    form = rng.randrange(5)
    body = (p, f"{p}/{q}", f"{p}*sqrt({d})", f"{p}/{q}*sqrt({d})", f"sqrt({d})")[form]
    return sign + body


def _scalar_text(rng):
    terms = [_scalar_term(rng, rng.choice(("", "+", "-")))]
    for _ in range(rng.choice((0, 1, 1, 1, 2))):
        terms.append(_scalar_term(rng, rng.choice("+-")))
    text = "".join(terms)
    if not rng.randrange(6):
        text = _mangled(rng, text)
    if not rng.randrange(40):
        text = ""
    return _spaced(rng, text)


def _word_text(rng):
    tokens = []
    for _ in range(rng.randrange(0, 8)):
        gen = rng.choice("ab")
        roll = rng.randrange(4)
        if roll == 0:
            tokens.append(gen)
        else:
            sign = rng.choice(("", "-"))
            tokens.append(f"{gen}^{sign}{_digits(rng, MAX_EXPONENT_DIGITS)}")
        if not rng.randrange(10):
            tokens[-1] = _mangled(rng, tokens[-1])
    return "".join(token + rng.choice(SPACES) for token in tokens).rstrip(" ")


def _outcome(parse, *args):
    try:
        return "value", parse(*args)
    except Exception as exc:  # the type and message are compared
        return type(exc).__name__, str(exc)


def test_scalar_parse_matches_the_term_by_term_parser():
    rng = random.Random(20261019)
    seen = {}
    for _ in range(3000):
        text = _scalar_text(rng)
        disc = rng.choice((None, None, 2, 3))
        want = _outcome(_old_scalar_parse, text, disc)
        assert _outcome(QuadExt.parse, text, disc) == want, (text, disc)
        kind = want[0] if want[0] != "ParseError" else want[1].split(" ", 2)[:2][0]
        seen[kind] = seen.get(kind, 0) + 1
    # every outcome: values, malformed text, zero denominators, caps, contexts,
    # discriminants that are not square-free or below 2
    for kind in ("value", "malformed", "zero", "two", "empty", "SearchCapError",
                 "ContextMismatchError", "discriminant"):
        assert seen.get(kind, 0) >= 5, seen


def test_word_parse_matches_the_token_by_token_parser():
    rng = random.Random(20261020)
    seen = {}
    for _ in range(3000):
        text = _word_text(rng)
        want = _outcome(_old_word_parse, text)
        assert _outcome(Word.parse, text) == want, text
        kind = want[0] if want[0] != "ParseError" else want[1].split(" ", 1)[0]
        seen[kind] = seen.get(kind, 0) + 1
    for kind in ("value", "bad", "zero", "SearchCapError"):
        assert seen.get(kind, 0) >= 5, seen
