"""Freely reduced words in two abstract generators and their evaluation on IETs.

A word is a sequence of syllables (generator, exponent) with nonzero
exponents and distinct adjacent generators.  Generator 'a' stands for the
first map and 'b' for the second; a word reads left to right but composes
right to left, so the leftmost syllable acts last.

Three evaluators live here.  `verify_word` is the one relation checker: it
certifies every synthesized word and backs `ietrel verify`.  It pushes the
composite map through the word one syllable at a time, on integer pairs
over a lattice (1/N)(Z + Z sqrt(D)) of its own; its one hot loop is
`_push`.  Every step it pushes, one syllable's map, is built by `_as_step`,
which chains the pieces' domain and image orders from 0 and so makes no
comparison.  A word x u^k x^-1 with k >= 2 has its root u pushed once, and
the map of u then pushed k times as one step.  It shares with the Iet
algebra of synthesis only what defines the maps, as integers from entry:
r^k for k >= 1 from `DisjointRotationSpec.power`, the closed form that
synthesis also takes r^M and r^d from, and both r^k and g read by
`Iet.lattice_pieces` from their stored pairs (each inverse is flipped from
them); the scalars helper _merged_disc; and the exact sign test stated at
scalars._sign3, which `_push` makes inline.
`eval_word` (repeated squaring through `Iet.power`) and `eval_word_naive`
(one letter at a time) return the evaluated `Iet`; tests compare them with
each other and with `verify_word`.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Tuple

from .errors import ParseError, PreconditionError, SearchCapError, shown
from .iet import Iet
from .rotation import DisjointRotationSpec
from .scalars import _Frozen, _merged_disc, _read_int

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

# The word's own push plan pushes every b letter through on its own, while
# an a^k syllable is one push for any k, so the total count of b letters
# bounds the number of pushes.  A generic g can add pieces with every letter,
# which makes their work grow with the square of the count (MAX_VERIFY_PIECES
# bounds it).  Both caps are counted on the word as given; a power's plan,
# its root pushed once, is taken only when it may walk no more pieces.
# Certificates hold 4, 16 or 96 b letters, by branch.
MAX_B_LETTERS = 1000
# Word.parse refuses an exponent of more significant digits, so every count
# the program prints stays far below the 4300 digits that int() and str()
# accept.
MAX_EXPONENT_DIGITS = 1000
# Before any push, verify_word bounds the pieces the word's pushes may walk
# in all: each push can grow the composite map by its step's piece count
# less one.
# The suite's certificates walk at most 75077, a 96-b-letter word against a
# 100-interval g about 931490.  At the cap, b^250 a against a 64-interval g
# that gains 63 pieces per b letter: 0.9-1.4 s, 23 MB, on CPython 3.11, one
# x86 core of a shared host.
MAX_VERIFY_PIECES = 2 * 10**6

Syllable = Tuple[str, int]
# verify_word's integer forms: a syllable's map as its generator gives it,
# (den, disc, pieces in domain order) with each piece's lo, hi and shift
# laid flat as (la, lb, ha, hb, sa, sb); that map made a step over the
# verifier's one lattice (see _as_step); and one piece of the composite map,
# (image lo, translation) as flat integer pairs
LatticeMap = Tuple[int, int, List[Tuple[int, ...]]]
LatticeStep = Tuple[List[Tuple[int, ...]], List[int]]
Piece = Tuple[int, int, int, int]


class Word(_Frozen):
    """A freely reduced word; the empty tuple is the trivial word."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: Iterable[Syllable] = ()):
        syllables = tuple(syllables)
        prev = None
        for gen, exp in syllables:
            _check_syllable(gen, exp)
            if gen == prev:
                raise PreconditionError("word is not freely reduced")
            prev = gen
        self._set(syllables)

    # -- construction ---------------------------------------------------

    @classmethod
    def generator(cls, gen: str, exp: int = 1) -> "Word":
        if exp == 0:
            return cls()
        return cls(((gen, exp),))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Whitespace-separated tokens a^k / b^k; exponent 1 may be omitted.
        One pattern, _TOKEN, reads the tokens in order."""
        raw = []
        exps: Dict[str, int] = {}  # each distinct exponent text, read once
        for token, gen, digits, bad in _TOKEN.findall(text):
            if bad:
                raise ParseError(f"bad word token {shown(bad)}")
            exp = exps.get(digits)
            if exp is None:
                exp = exps[digits] = _read_int(digits or "1", MAX_EXPONENT_DIGITS,
                                               f"MAX_EXPONENT_DIGITS = {MAX_EXPONENT_DIGITS}")
            if exp == 0:
                raise ParseError(f"zero exponent in token {shown(token)}")
            raw.append((gen, exp))
        return free_reduce(raw)

    # -- group operations -------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return free_reduce(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return _reduced(tuple((g, -e) for g, e in reversed(self.syllables)))

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


# A token is a run of non-whitespace: a well-formed a^k or b^k that the run
# ends after, as (token, generator, exponent digits, ""), or else the whole
# run, a bad token, as ("", "", "", run).
_TOKEN = re.compile(r"(([ab])(?:\^(-?[0-9]+))?)(?!\S)|(\S+)")


def _check_syllable(gen: str, exp: int) -> None:
    # the check of one syllable, for Word and free_reduce alike
    if gen not in GENERATORS:
        raise PreconditionError(f"unknown generator {gen!r}")
    if not isinstance(exp, int) or exp == 0:
        raise PreconditionError(f"exponents must be nonzero integers, got {exp!r}")


def free_reduce(syllables: Iterable[Syllable]) -> Word:
    """Merge adjacent same-generator syllables and drop vanished ones.

    One pass checks each syllable as Word does, and the reduced syllables
    become the Word as they are, with no second check.  The check is inline,
    and _check_syllable runs only to raise its message."""
    stack: List[Syllable] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if gen not in GENERATORS or not isinstance(exp, int):
            _check_syllable(gen, exp)
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
            if exp:
                stack.append((gen, exp))
        else:
            stack.append((gen, exp))
    return _reduced(tuple(stack))


def _reduced(syllables: Tuple[Syllable, ...]) -> Word:
    # the Word of syllables already checked and reduced, built without
    # __init__'s second walk
    return object.__new__(Word)._set(syllables)


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

    The syllable maps come as integer pairs (a, b), meaning
    (a + b sqrt(D)) / N: r^k once per distinct k >= 1 from
    spec.power(k).lattice_pieces(), and g from g.lattice_pieces().  Each
    inverse is their flip: the piece [lo, hi) + t becomes [lo + t, hi + t) - t.
    `_on_lattice` rescales them to one N and D, each ordered by `_as_step`.
    The composite map, kept in image order as pieces (image lo, total
    translation), starts as the one piece (0, 0); `_push` sends it through
    the syllables right to left, a b^k syllable |k| times, and the word is
    the identity when one piece with translation (0, 0) remains.

    A word that is a power up to conjugation, x u^k x^-1 with k >= 2 (see
    `_root`), is pushed by a shorter plan: u's syllables from the identity
    once, then that composite U, made a step by `_as_step`, in the plan of
    the word x U^k x^-1.  The final composite is the map of the word itself,
    not of a conjugate; a T_sixth certificate, x one a syllable and u 32
    syllables to the sixth, takes 40 pushes instead of 193.

    More than MAX_B_LETTERS b letters, or pushes of the word's own plan that
    may walk more than MAX_VERIFY_PIECES pieces in all, raise
    SearchCapError before any push.  The power plan, whose U has at most the
    pieces u's pushes may leave, is taken only when it may walk no more
    than the word's own plan, so both caps bound it as well.
    """
    b_letters = sum(abs(exp) for gen, exp in word.syllables if gen == "b")
    if b_letters > MAX_B_LETTERS:
        raise SearchCapError(
            f"word has {b_letters} b letters, more than MAX_B_LETTERS = {MAX_B_LETTERS}"
        )
    x, u, k = _root(word)
    x_inv = tuple((gen, -exp) for gen, exp in reversed(x))
    keys = {(gen, exp if gen == "a" else 1 if exp > 0 else -1)
            for gen, exp in word.syllables + u + x_inv}
    steps: Dict[Tuple[str, int], LatticeMap] = {}
    for gen, size in {(gen, abs(exp)) for gen, exp in keys}:
        den, disc, pieces = (g if gen == "b" else spec.power(size)).lattice_pieces()
        if (gen, size) in keys:
            steps[gen, size] = den, disc, pieces
        if (gen, -size) in keys:
            steps[gen, -size] = den, disc, [(la + ta, lb + tb, ha + ta, hb + tb, -ta, -tb)
                                            for la, lb, ha, hb, ta, tb in pieces]
    counts = {key: len(step[2]) for key, step in steps.items()}
    pushes = _pushes(word.syllables)
    walked, _ = _walk(pushes, counts)
    if walked > MAX_VERIFY_PIECES:
        raise SearchCapError(
            f"the pushes may walk up to {walked} pieces, more than "
            f"MAX_VERIFY_PIECES = {MAX_VERIFY_PIECES}"
        )
    root_pushes: List[Tuple[str, int]] = []
    if k > 1:
        u_pushes = _pushes(u)
        u_walked, counts["u", 1] = _walk(u_pushes, counts)
        power_pushes = _pushes(x + (("u", k),) + x_inv)
        if u_walked + _walk(power_pushes, counts)[0] <= walked:
            root_pushes, pushes = u_pushes, power_pushes
    den, disc, maps = _on_lattice(steps)
    if root_pushes:
        u_map = _run(root_pushes, maps, disc)  # piece p's image ends where p + 1's starts
        his = [piece[:2] for piece in u_map[1:]] + [(den, 0)]
        maps["u", 1] = _as_step([(la - ta, lb - tb, ha - ta, hb - tb, ta, tb)
                                 for (la, lb, ta, tb), (ha, hb) in zip(u_map, his)])
    return _run(pushes, maps, disc) == [(0, 0, 0, 0)]


def _root(word: Word) -> Tuple[Tuple[Syllable, ...], Tuple[Syllable, ...], int]:
    """(x, u, k) such that the word is x u^k x^-1, freely reduced, with k >= 2
    as large as can be; ((), the word's syllables, 1) when there is none.

    The ends are reduced cyclically: while the first and the last syllable
    of the core share a generator, the first moves into x, and the two drop
    if their exponents cancel; otherwise their merged syllable ends the core
    and the reduction stops.  u is the core's least period that divides its
    length."""
    core = word.syllables
    x: List[Syllable] = []
    while len(core) > 1 and core[0][0] == core[-1][0]:
        (gen, first), (_, last) = core[0], core[-1]
        x.append(core[0])
        core = core[1:-1]
        if first + last:
            core += ((gen, first + last),)
            break
    n = len(core)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and core[p:] == core[:-p]:
            return tuple(x), core[:p], n // p
    return (), word.syllables, 1


def _pushes(syllables: Tuple[Syllable, ...]) -> List[Tuple[str, int]]:
    """The step of each push, in the order they act: the syllables right to
    left, an a^k syllable as one push and any other as |k| pushes of its
    generator or its inverse."""
    out = []
    for gen, exp in reversed(syllables):
        if gen == "a":
            out.append((gen, exp))
        else:
            out += [(gen, 1 if exp > 0 else -1)] * abs(exp)
    return out


def _walk(pushes: List[Tuple[str, int]], counts: Dict[Tuple[str, int], int]) -> Tuple[int, int]:
    """The pieces the pushes may walk in all from the identity, and the most
    pieces the composite map may then hold: a push can add all but one of
    its step's counts[key] pieces to the composite map."""
    most, walked = 1, 0
    for key in pushes:
        most += counts[key] - 1
        walked += most
    return walked, most


def _run(pushes: List[Tuple[str, int]], maps: dict, disc: int) -> List[Piece]:
    """The composite map after the pushes, from the identity."""
    pieces: List[Piece] = [(0, 0, 0, 0)]
    for key in pushes:
        pieces = _push(pieces, maps[key], disc)
    return pieces


def _on_lattice(steps: Dict[Tuple[str, int], LatticeMap]) -> Tuple[int, int, dict]:
    """N and D, the one lattice of every map of steps (N the lcm of their
    dens; ContextMismatchError, from scalars._merged_disc, if D is mixed),
    and each map rescaled to N and made a step by `_as_step`.  The verifier
    keeps this loop, not synthesis's DisjointRotationSpec._lattice_with."""
    den, disc = 1, 0
    for step_den, step_disc, _ in steps.values():
        den = math.lcm(den, step_den)
        disc = _merged_disc(disc, step_disc)
    maps = {}
    for key, (step_den, _, pieces) in steps.items():
        c = den // step_den
        if c > 1:
            pieces = [(la * c, lb * c, ha * c, hb * c, sa * c, sb * c)
                      for la, lb, ha, hb, sa, sb in pieces]
        maps[key] = _as_step(pieces)
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
            da = ha - pa
            db = hb - pb
            # da + db sqrt(disc) <= 0, the test of scalars._sign3's comment negated
            if ((db <= 0 or da * da > db * db * disc) if da <= 0
                    else (db < 0 and db * db * disc > da * da)):
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


def _as_step(pieces: List[Tuple[int, ...]]) -> LatticeStep:
    """A map's pieces, in any order, as a step for `_push`: the pieces in
    domain order, each with the pairs of lo, hi and shift laid flat, and
    their indices in image order.  Both orders are chained from 0, each next
    piece found by the exact pair its last one ends on, so no comparison is
    made (as in iet._image_order)."""
    at_lo = {piece[:2]: piece for piece in pieces}
    domain_order = [at_lo[0, 0]]
    while len(domain_order) < len(pieces):
        domain_order.append(at_lo[domain_order[-1][2:4]])
    at_image_lo = {(la + sa, lb + sb): p for p, (la, lb, _, _, sa, sb) in enumerate(domain_order)}
    image_order = [at_image_lo[0, 0]]
    while len(image_order) < len(pieces):
        _, _, ha, hb, sa, sb = domain_order[image_order[-1]]
        image_order.append(at_image_lo[ha + sa, hb + sb])
    return domain_order, image_order
