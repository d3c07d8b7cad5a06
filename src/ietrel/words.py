"""Freely reduced words in two abstract generators and their evaluation on IETs.

A word is a sequence of syllables (generator, exponent) with nonzero
exponents and distinct adjacent generators.  Generator 'a' stands for the
first map and 'b' for the second; a word reads left to right but composes
right to left, so the leftmost syllable acts last.

Three evaluators live here.  `verify_word` is the one relation checker: it
certifies every synthesized word and backs `ietrel verify`.  `eval_word`
(repeated squaring through `Iet.power`) and `eval_word_naive` (one letter
at a time) return the evaluated `Iet`; tests compare them with each other
and with `verify_word`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Tuple

from .errors import ParseError, PreconditionError, SearchCapError
from .iet import Iet
from .rotation import DisjointRotationSpec
from .scalars import ONE, ZERO, QuadExt

__all__ = [
    "Word",
    "free_reduce",
    "eval_word",
    "eval_word_naive",
    "verify_word",
    "GENERATORS",
    "MAX_B_LETTERS",
]

GENERATORS = ("a", "b")

# verify_word pushes every b letter through on its own, while an a^k
# syllable costs the same for any k, so the total count of b letters bounds
# its work.  A generic g can add pieces with every letter, which makes that
# work grow with the square of the count.  Certificates hold 4, 16 or 96
# b letters, by branch.
MAX_B_LETTERS = 1000

Syllable = Tuple[str, int]
# (lo, hi, translation): a half-open interval and the shift applied to it
Piece = Tuple[QuadExt, QuadExt, QuadExt]
_LO = itemgetter(0)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty tuple is the trivial word."""

    syllables: Tuple[Syllable, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "syllables", tuple(self.syllables))
        prev = None
        for gen, exp in self.syllables:
            if gen not in GENERATORS:
                raise PreconditionError(f"unknown generator {gen!r}")
            if not isinstance(exp, int) or exp == 0:
                raise PreconditionError(f"exponents must be nonzero integers, got {exp!r}")
            if gen == prev:
                raise PreconditionError("word is not freely reduced")
            prev = gen

    # -- construction ---------------------------------------------------

    @classmethod
    def generator(cls, gen: str, exp: int = 1) -> "Word":
        if exp == 0:
            return cls()
        return cls(((gen, exp),))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Whitespace-separated tokens a^k / b^k; exponent 1 may be omitted."""
        raw = []
        for token in text.split():
            m = _TOKEN.match(token)
            if not m:
                raise ParseError(f"bad word token {token!r}")
            exp = int(m.group(2)) if m.group(2) is not None else 1
            if exp == 0:
                raise ParseError(f"zero exponent in token {token!r}")
            raw.append((m.group(1), exp))
        return free_reduce(raw)

    # -- group operations -------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return free_reduce(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        out = Word()
        for _ in range(n):
            out = out * self
        return out

    # -- queries ----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.syllables

    def syllable_count(self) -> int:
        return len(self.syllables)

    def letter_count(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __str__(self):
        return " ".join(
            g if e == 1 else f"{g}^{e}" for g, e in self.syllables
        )

    def __repr__(self):
        return f"Word({str(self)!r})"


_TOKEN = re.compile(r"^([ab])(?:\^(-?\d+))?$")


def free_reduce(syllables: Iterable[Syllable]) -> Word:
    """Merge adjacent same-generator syllables and drop vanished ones."""
    stack: list[list] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return Word(tuple((g, e) for g, e in stack))


def eval_word(word: Word, r: Iet, g: Iet) -> Iet:
    """Evaluate with a -> r, b -> g; syllable powers use repeated squaring."""
    table = {"a": r, "b": g}
    acc = Iet.identity()
    for gen, exp in word.syllables:
        acc = acc.compose(table[gen].power(exp))
    return acc


def eval_word_naive(word: Word, r: Iet, g: Iet) -> Iet:
    """Evaluate by composing one letter at a time, left to right.

    Deliberately avoids repeated squaring so it can serve as an independent
    check of eval_word.
    """
    table = {
        "a": (r, r.inverse()),
        "b": (g, g.inverse()),
    }
    acc = Iet.identity()
    for gen, exp in word.syllables:
        step = table[gen][0] if exp > 0 else table[gen][1]
        for _ in range(abs(exp)):
            acc = acc.compose(step)
    return acc


def verify_word(word: Word, spec: DisjointRotationSpec, g: Iet) -> bool:
    """True when the word evaluates to the identity with a -> r, b -> g,
    where r is the disjoint rotation map of spec.

    The evaluation keeps the composite map as pieces (image lo, image hi,
    total translation), starting from the single piece [0, 1) with
    translation 0, and applies the syllables right to left.  Each syllable
    splits every piece at the breakpoints of its own map, shifts it, and
    the pieces are re-sorted by image with equal-translation neighbours
    merged; the word is the identity when one piece with translation 0
    remains.  An a^k syllable costs the same for every k: block j is
    rotated in closed form by (k * alpha_j) mod 1.  A b^k syllable is
    pushed through |k| times, and the word may hold at most MAX_B_LETTERS
    b letters (SearchCapError above that).

    What this shares with the construction of h, k and T: QuadExt
    arithmetic and comparison, the DisjointRotationSpec fields lengths and
    rates, and the tuples g.breakpoints and g.translations.  It calls no Iet
    or DisjointRotationSpec method.
    """
    b_letters = sum(abs(exp) for gen, exp in word.syllables if gen == "b")
    if b_letters > MAX_B_LETTERS:
        raise SearchCapError(
            f"word has {b_letters} b letters, more than MAX_B_LETTERS = {MAX_B_LETTERS}"
        )
    g_forward = list(zip(g.breakpoints, g.breakpoints[1:] + (ONE,), g.translations))
    g_backward = sorted(((lo + t, hi + t, -t) for lo, hi, t in g_forward), key=_LO)
    cursor = ZERO
    for lo, hi, _ in g_backward:
        if lo != cursor:
            raise PreconditionError("the image intervals of g do not tile [0, 1)")
        cursor = hi
    maps: Dict[Tuple[str, int], List[Piece]] = {("b", 1): g_forward, ("b", -1): g_backward}
    pieces: List[Piece] = [(ZERO, ONE, ZERO)]
    for gen, exp in reversed(word.syllables):
        if gen == "a":
            step = maps.get(("a", exp))
            if step is None:
                step = maps[("a", exp)] = _rotation_power(spec, exp)
            pieces = _push(pieces, step)
        else:
            step = maps[("b", 1 if exp > 0 else -1)]
            for _ in range(abs(exp)):
                pieces = _push(pieces, step)
    return len(pieces) == 1 and not pieces[0][2]


def _rotation_power(spec: DisjointRotationSpec, k: int) -> List[Piece]:
    """Domain pieces of r^k: block j rotated in place by (k * alpha_j) mod 1."""
    out = []
    left = ZERO
    for lam, alpha in zip(spec.lengths, spec.rates):
        right = left + lam
        shift = lam * (alpha * k).mod_one()
        if shift:
            out.append((left, right - shift, shift))
            out.append((right - shift, right, shift - lam))
        else:
            out.append((left, right, ZERO))
        left = right
    return _merged(out)


def _push(pieces: List[Piece], step: List[Piece]) -> List[Piece]:
    """Apply step after pieces: both tile [0, 1), pieces by image, step by domain."""
    out = []
    j = 0
    for lo, hi, t in pieces:
        while True:
            _, step_hi, s = step[j]
            if hi <= step_hi:
                out.append((lo + s, hi + s, t + s))
                if hi == step_hi:
                    j += 1
                break
            out.append((lo + s, step_hi + s, t + s))
            lo = step_hi
            j += 1
    out.sort(key=_LO)
    return _merged(out)


def _merged(pieces: List[Piece]) -> List[Piece]:
    """Merge neighbours with equal translation; pieces must be sorted and tile."""
    out = [pieces[0]]
    for lo, hi, t in pieces[1:]:
        if t == out[-1][2]:
            out[-1] = (out[-1][0], hi, t)
        else:
            out.append((lo, hi, t))
    return out
