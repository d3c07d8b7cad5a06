"""Freely reduced words in two abstract generators and their evaluation on IETs.

A word is a sequence of syllables (generator, exponent) with nonzero
exponents and distinct adjacent generators.  Generator 'a' stands for the
first map and 'b' for the second; a word reads left to right but composes
right to left, so the leftmost syllable acts last.

Three evaluators live here.  `verify_word` is the one relation checker: it
certifies every synthesized word and backs `ietrel verify`.  It pushes the
composite map, kept in image order as (image lo, translation) pieces,
through the word one syllable at a time, and calls no `Iet` method; its
one hot loop is `_push`.  `eval_word`
(repeated squaring through `Iet.power`) and `eval_word_naive` (one letter
at a time) return the evaluated `Iet`; tests compare them with each other
and with `verify_word`.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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
# (image lo, total translation): one piece of the composite map in verify_word
Piece = Tuple[QuadExt, QuadExt]
# (domain lo, domain hi, shift): one piece of a syllable's map
Step = Tuple[QuadExt, QuadExt, QuadExt]


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
        return free_reduce(self.syllables * n)

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

    The composite map is kept in image order as pieces (image lo, total
    translation); each piece ends where the next begins, the last at 1.  It
    starts as the single piece (0, 0), and the syllables act right to left.
    Each syllable's map is listed in image order as (domain lo, domain hi,
    shift), so pushing the composite through it (`_push`) emits fragments
    already in image order and merges equal-translation neighbours as it
    goes; the word is the identity when one piece with translation 0
    remains.  An a^k syllable costs the same for every k: block j is
    rotated in closed form by (k * alpha_j) mod 1.  A b^k syllable is
    pushed through |k| times, and the word may hold at most MAX_B_LETTERS
    b letters (SearchCapError above that).

    What this shares with the construction of h, k and T: QuadExt
    arithmetic and comparison, the DisjointRotationSpec fields lengths and
    rates, and the QuadExt tuples g.breakpoints and g.translations, which Iet
    builds from its integer storage when they are read.  It calls no other
    Iet or DisjointRotationSpec method, so none of Iet's integer arithmetic.
    """
    b_letters = sum(abs(exp) for gen, exp in word.syllables if gen == "b")
    if b_letters > MAX_B_LETTERS:
        raise SearchCapError(
            f"word has {b_letters} b letters, more than MAX_B_LETTERS = {MAX_B_LETTERS}"
        )
    g_pieces = list(zip(g.breakpoints, g.breakpoints[1:] + (ONE,), g.translations))
    maps: Dict[Tuple[str, int], List[Step]] = {
        ("b", 1): sorted(g_pieces, key=lambda p: p[0] + p[2]),
        ("b", -1): [(lo + t, hi + t, -t) for lo, hi, t in g_pieces],
    }
    pieces: List[Piece] = [(ZERO, ZERO)]
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
    return len(pieces) == 1 and not pieces[0][1]


def _rotation_power(spec: DisjointRotationSpec, k: int) -> List[Step]:
    """The map r^k in image order: block j rotated in place by (k * alpha_j) mod 1,
    its wrapped piece first."""
    out = []
    left = ZERO
    for lam, alpha in zip(spec.lengths, spec.rates):
        right = left + lam
        shift = lam * (alpha * k).mod_one()
        if shift:
            cut = right - shift
            out.append((cut, right, shift - lam))
            out.append((left, cut, shift))
        else:
            out.append((left, right, ZERO))
        left = right
    return out


def _push(pieces: List[Piece], step: List[Step]) -> List[Piece]:
    """Apply step after the composite map pieces; both are listed in image order.

    The domain [lo, hi) of a step piece starts inside the composite piece
    found by one bisection and covers the run of pieces that start before
    hi.  The composite has no two neighbours with equal translation, so
    within a run none arise either: only the first fragment of a run can
    merge, with the last fragment emitted before it.
    """
    starts = [lo for lo, _ in pieces]
    out: List[Piece] = []
    for lo, hi, s in step:
        i = bisect_right(starts, lo)
        t = pieces[i - 1][1] + s
        if not out or t != out[-1][1]:
            out.append((lo + s, t))
        out.extend((lo + s, t + s) for lo, t in pieces[i:bisect_left(starts, hi, i)])
    return out
