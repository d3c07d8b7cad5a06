"""Freely reduced words in two abstract generators and their evaluation on IETs.

A word is a sequence of syllables (generator, exponent) with nonzero
exponents and distinct adjacent generators.  Generator 'a' stands for the
first map and 'b' for the second; a word reads left to right but composes
right to left, so the leftmost syllable acts last.

Three evaluators live here.  `verify_word` is the one relation checker: it
certifies every synthesized word and backs `ietrel verify`.  It pushes the
composite map through the word one syllable at a time, on integer pairs
over a lattice (1/N)(Z + Z sqrt(D)) of its own; its one hot loop is
`_push`.  It shares with the Iet algebra of synthesis only what defines
the maps: QuadExt at entry, `DisjointRotationSpec.pieces`, `Iet.pieces`
and the scalars helpers _lattice, _pair, _sign3 and _merged_disc.
`eval_word` (repeated squaring through `Iet.power`) and `eval_word_naive`
(one letter at a time) return the evaluated `Iet`; tests compare them with
each other and with `verify_word`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Tuple

from .errors import ParseError, PreconditionError, SearchCapError
from .iet import Iet
from .rotation import DisjointRotationSpec
from .scalars import QuadExt, _lattice, _pair, _sign3

__all__ = [
    "Word",
    "free_reduce",
    "eval_word",
    "eval_word_naive",
    "verify_word",
    "GENERATORS",
    "MAX_B_LETTERS",
    "MAX_EXPONENT_DIGITS",
    "MAX_VERIFY_PIECES",
]

GENERATORS = ("a", "b")

# verify_word pushes every b letter through on its own, while an a^k
# syllable is one push for any k, so the total count of b letters bounds the
# number of pushes.  A generic g can add pieces with every letter, which makes
# their work grow with the square of the count (MAX_VERIFY_PIECES bounds it).
# Certificates hold 4, 16 or 96 b letters, by branch.
MAX_B_LETTERS = 1000
# Word.parse refuses an exponent of more digits, so every count the program
# prints stays far below the 4300 digits that int() and str() accept.
MAX_EXPONENT_DIGITS = 1000
# Before any push, verify_word bounds the pieces its pushes may walk in all:
# each push can grow the composite map by its step's piece count less one.
# The suite's certificates walk at most 75077, a 96-b-letter word against a
# 100-interval g about 931490.  At the cap, b^250 a against a 64-interval g
# that gains 63 pieces per b letter: 0.9-1.4 s, 23 MB, on CPython 3.11, one
# x86 core of a shared host.
MAX_VERIFY_PIECES = 2 * 10**6

Syllable = Tuple[str, int]
# (domain lo, domain hi, shift): one piece of a syllable's map
Step = Tuple[QuadExt, QuadExt, QuadExt]
# verify_word's integer forms: a syllable's map (see _on_lattice), and one
# piece of the composite map, (image lo, translation) as flat integer pairs
LatticeStep = Tuple[List[Tuple[int, ...]], List[int]]
Piece = Tuple[int, int, int, int]


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
            spelled = m.group(2) or "1"
            digits = len(spelled.lstrip("-"))
            if digits > MAX_EXPONENT_DIGITS:
                raise SearchCapError(
                    f"a word exponent of {digits} digits exceeds "
                    f"MAX_EXPONENT_DIGITS = {MAX_EXPONENT_DIGITS}"
                )
            exp = int(spelled)
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

    The syllable maps are built in QuadExt, r^k once per distinct k from
    spec.pieces(k) and g from g.pieces(), and `_on_lattice` writes them as
    integer pairs (a, b), meaning (a + b sqrt(D)) / N, over one N and D.
    The composite map, kept in image order as pieces (image lo, total
    translation), starts as the one piece (0, 0); `_push` sends it through
    the syllables right to left, a b^k syllable |k| times, and the word is
    the identity when one piece with translation (0, 0) remains.  More than
    MAX_B_LETTERS b letters, or pushes that may walk more than
    MAX_VERIFY_PIECES pieces in all, raise SearchCapError before any push.
    """
    b_letters = sum(abs(exp) for gen, exp in word.syllables if gen == "b")
    if b_letters > MAX_B_LETTERS:
        raise SearchCapError(
            f"word has {b_letters} b letters, more than MAX_B_LETTERS = {MAX_B_LETTERS}"
        )
    steps: Dict[Tuple[str, int], List[Step]] = {}
    if b_letters:
        g_pieces = list(g.pieces())
        steps["b", 1] = g_pieces
        steps["b", -1] = [(lo + t, hi + t, -t) for lo, hi, t in g_pieces]
    for k in {exp for gen, exp in word.syllables if gen == "a"}:
        steps["a", k] = spec.pieces(k)
    pushes = []  # the step of each push, in the order they act
    for gen, exp in reversed(word.syllables):
        if gen == "a":
            pushes.append((gen, exp))
        else:
            pushes += [(gen, 1 if exp > 0 else -1)] * abs(exp)
    # a push can add all but one of its step's pieces to the composite map
    most, walked = 1, 0
    for key in pushes:
        most += len(steps[key]) - 1
        walked += most
    if walked > MAX_VERIFY_PIECES:
        raise SearchCapError(
            f"the pushes may walk up to {walked} pieces, more than "
            f"MAX_VERIFY_PIECES = {MAX_VERIFY_PIECES}"
        )
    _, disc, maps = _on_lattice(steps)
    pieces: List[Piece] = [(0, 0, 0, 0)]
    for key in pushes:
        pieces = _push(pieces, maps[key], disc)
    return pieces == [(0, 0, 0, 0)]


def _on_lattice(steps: Dict[Tuple[str, int], List[Step]]) -> Tuple[int, int, dict]:
    """N and D, the lattice of every value (scalars._lattice, which raises
    ContextMismatchError if D is mixed), and each map of steps over them:
    its pieces in domain order, each with the pairs of lo, hi and shift
    laid flat, and their indices in image order, both sorted in QuadExt."""
    den, disc = _lattice(v for step in steps.values() for piece in step for v in piece)
    maps = {}
    for key, step in steps.items():
        step = sorted(step, key=itemgetter(0))
        flat = [(*_pair(lo, den), *_pair(hi, den), *_pair(s, den)) for lo, hi, s in step]
        maps[key] = flat, sorted(range(len(step)), key=lambda p: step[p][0] + step[p][2])
    return den, disc, maps


def _push(pieces: List[Piece], step: LatticeStep, disc: int) -> List[Piece]:
    """Apply step after the composite map pieces, listed in image order.

    A walk takes the step's pieces in domain order beside the composite's:
    each covers the run of composite pieces from the one it starts in to
    the last that starts before its hi, each moved by its shift.  The runs
    are joined in the step's image order; as the composite has no two
    equal neighbours, only a run's first fragment can merge with the last.
    """
    domain_order, image_order = step
    n = len(pieces)
    runs = []
    i = 1  # the first composite piece that starts after the walk
    _, _, ta, tb = pieces[0]
    for la, lb, ha, hb, sa, sb in domain_order:
        run = [(la + sa, lb + sb, ta + sa, tb + sb)]
        while i < n:
            pa, pb, qa, qb = pieces[i]
            if _sign3(ha - pa, hb - pb, disc) <= 0:
                break
            run.append((pa + sa, pb + sb, qa + sa, qb + sb))
            ta, tb = qa, qb
            i += 1
        if i < n and pieces[i][0] == ha and pieces[i][1] == hb:
            _, _, ta, tb = pieces[i]
            i += 1
        runs.append(run)
    out: List[Piece] = []
    for p in image_order:
        run = runs[p]
        if out and out[-1][2:] == run[0][2:]:
            del run[0]
        out += run
    return out
