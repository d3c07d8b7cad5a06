"""Free words in two generators: reduction, group operations, evaluation."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ietrel import iet as iet_module
from ietrel import words as words_module
from ietrel.documents import parse_document
from ietrel.errors import ParseError, PreconditionError, SearchCapError
from ietrel.iet import Iet, PermLambdaSpec
from ietrel.relations import synthesize
from ietrel.rotation import DisjointRotationSpec
from ietrel.sampling import demo_suite, random_iet, random_partition, random_rotation_spec
from ietrel.scalars import ONE, ZERO, QuadExt
from ietrel.words import (
    MAX_B_LETTERS,
    MAX_EXPONENT_DIGITS,
    Word,
    eval_word,
    eval_word_naive,
    free_reduce,
    verify_word,
)

from conftest import q, seeded_iets


GOLDEN = Path(__file__).parent / "golden"

raw_syllables = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(-4, 4)), max_size=12
)
words = raw_syllables.map(free_reduce)


# -- reduction ---------------------------------------------------------------


def test_reduction_anchors():
    assert free_reduce([("a", 3), ("a", -3)]).is_empty()
    assert Word.parse("a b b^-1 a^-1").is_empty()
    w = Word.parse("b^-1 a^-2 b a^2 b^-1 a^2 b a^-2")
    assert w.syllable_count() == 8
    assert str(w) == "b^-1 a^-2 b a^2 b^-1 a^2 b a^-2"


def test_reduction_merges_through_cancellation():
    # the middle b-syllables cancel, then the a-powers merge
    w = free_reduce([("a", 2), ("b", 1), ("b", -1), ("a", 3)])
    assert w.syllables == (("a", 5),)


@given(raw_syllables)
def test_reduction_is_idempotent(raw):
    w = free_reduce(raw)
    assert free_reduce(w.syllables) == w


def test_word_constructor_enforces_reduced_form():
    with pytest.raises(PreconditionError):
        Word((("a", 0),))
    with pytest.raises(PreconditionError):
        Word((("a", 1), ("a", 2)))
    with pytest.raises(PreconditionError):
        Word((("c", 1),))


# -- parsing and rendering ---------------------------------------------------


def test_parse_anchor():
    w = Word.parse("b^-1 a^-5 b a^5")
    assert w.syllables == (("b", -1), ("a", -5), ("b", 1), ("a", 5))
    assert w.letter_count() == 12
    assert str(w) == "b^-1 a^-5 b a^5"


def test_parse_omitted_exponent():
    assert Word.parse("a").syllables == (("a", 1),)
    assert Word.parse("a b").syllables == (("a", 1), ("b", 1))


def test_parse_rejects_bad_tokens():
    for text in ("c", "a^0", "a^", "ab", "a^1.5", "a^--2"):
        with pytest.raises(ParseError):
            Word.parse(text)


def test_parse_caps_exponent_digits():
    longest = "9" * MAX_EXPONENT_DIGITS
    assert Word.parse(f"a^-{longest} b").syllables == (("a", -int(longest)), ("b", 1))
    for token in (f"a^1{longest}", f"b^-1{longest}"):
        with pytest.raises(SearchCapError, match="MAX_EXPONENT_DIGITS"):
            Word.parse(token)


@given(words)
def test_str_parse_round_trip(w):
    assert Word.parse(str(w)) == w


# -- group operations --------------------------------------------------------


@given(words)
def test_inverse_cancels(w):
    assert (w * w.inverse()).is_empty()
    assert (w.inverse() * w).is_empty()
    assert w.inverse().inverse() == w


@given(words, words)
def test_inverse_of_product(v, w):
    assert (v * w).inverse() == w.inverse() * v.inverse()


@given(words, st.integers(-4, 4))
def test_power_is_repeated_product(w, n):
    expected = Word()
    step = w if n >= 0 else w.inverse()
    for _ in range(abs(n)):
        expected = expected * step
    assert w**n == expected


def test_generator_constructor():
    assert Word.generator("a", 3).syllables == (("a", 3),)
    assert Word.generator("b", 0).is_empty()


# -- evaluation --------------------------------------------------------------


def _sample_pair():
    r = Iet.rotation(q(Fraction(1, 4)))
    g = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(3, 2, 1),
        lengths=(q(Fraction(1, 4)), q(Fraction(1, 4)), q(Fraction(1, 2))),
    ))
    return r, g


def test_eval_anchors():
    r, g = _sample_pair()
    assert eval_word(Word(), r, g).is_identity()
    assert eval_word(Word.parse("a"), r, g) == r
    assert eval_word(Word.parse("b^-1"), r, g) == g.inverse()
    # leftmost syllable acts last: "a b" is r after g
    assert eval_word(Word.parse("a b"), r, g) == r.compose(g)


@given(words)
def test_eval_routes_agree(w):
    r, g = _sample_pair()
    assert eval_word(w, r, g) == eval_word_naive(w, r, g)


@given(words, seeded_iets(max_intervals=4))
def test_eval_routes_agree_on_random_maps(w, g):
    r = Iet.rotation(q(Fraction(3, 8)))
    assert eval_word(w, r, g) == eval_word_naive(w, r, g)


@given(words, words)
def test_eval_is_a_homomorphism(v, w):
    r, g = _sample_pair()
    assert eval_word(v * w, r, g) == eval_word(v, r, g).compose(eval_word(w, r, g))


# -- syllable-by-syllable verification -----------------------------------------


def _random_spec(rng):
    spec = random_rotation_spec(rng)
    if rng.randrange(3):
        return spec
    # every rate rational, so r has finite order
    dens = [rng.randrange(2, 7) for _ in spec.rates]
    rates = tuple(q(Fraction(rng.randrange(d), d)) for d in dens)
    return DisjointRotationSpec(spec.lengths, rates)


def _random_g(rng, spec):
    if rng.randrange(2):
        return random_iet(rng, 5, 8)
    # irrational breakpoints in the spec's field: a rotation map, conjugated
    disc = max(a.disc for a in spec.rates) or 2
    other = random_rotation_spec(rng, discs=(disc,), max_blocks=2)
    return other.to_iet().conjugate(random_iet(rng, 3, 8))


def _random_word(rng):
    raw = []
    for _ in range(rng.randrange(1, 6)):
        sign = rng.choice((-1, 1))
        if rng.randrange(2):
            raw.append(("a", sign * rng.randrange(1, 8)))
        else:
            raw.append(("b", sign * rng.randrange(1, 4)))
    return free_reduce(raw)


def _image_form(f):
    """f as verify_word keeps it: (image lo, translation) pieces in image order."""
    inv = f.inverse()
    return list(zip(inv.breakpoints, [-t for t in inv.translations]))


class _Pushes(list):
    """verify_word's _push results, kept as integers with their lattice (N, D)
    and decoded to (image lo, translation) QuadExt pairs when read."""

    def __getitem__(self, i):
        pieces, den, disc = super().__getitem__(i)

        def value(a, b):
            return QuadExt(Fraction(a, den), Fraction(b, den), disc if b else 0)

        return [(value(la, lb), value(ta, tb)) for la, lb, ta, tb in pieces]


@pytest.fixture
def pushed(monkeypatch):
    """Every map verify_word builds, in order: _on_lattice wrapped to record
    the lattice, and _push to record its result over it."""
    out = _Pushes()
    lattice = []
    on_lattice = words_module._on_lattice
    push = words_module._push

    def recording_on_lattice(steps):
        result = on_lattice(steps)
        lattice[:] = result[:2]
        return result

    def recording_push(pieces, step, disc):
        result = push(pieces, step, disc)
        out.append((result, *lattice))
        return result

    monkeypatch.setattr(words_module, "_on_lattice", recording_on_lattice)
    monkeypatch.setattr(words_module, "_push", recording_push)
    return out


def test_verify_word_agrees_with_naive_on_random_cases(pushed):
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(100):
        spec = _random_spec(rng)
        g = _random_g(rng, spec)
        w = _random_word(rng)
        if rng.randrange(4) == 0:
            # g = r^j commutes with r, so w a^-e is the identity when e is
            # the total exponent of r in w
            j = rng.choice((-2, -1, 1, 2))
            g = spec.power_spec(j).to_iet()
            e = sum(exp if gen == "a" else j * exp for gen, exp in w.syllables)
            w = w * Word.generator("a", -e)
            seen["g a power of r"] += 1
        order = spec.classify().order
        if order is not None and rng.randrange(2):
            # u a^(+-order) u^-1 is the identity but does not reduce away
            w = w * Word.generator("a", rng.choice((-1, 1)) * order) * w.inverse()
            seen["finite order"] += 1
        for gen, exp in w.syllables:
            seen["a^-k"] += gen == "a" and exp < 0
            seen["b^k, |k| >= 2"] += gen == "b" and abs(exp) >= 2
            seen["rotation by 0"] += gen == "a" and any(
                a and not (a * exp).mod_one() for a in spec.rates
            )
        f = eval_word_naive(w, spec.to_iet(), g)
        expected = f.is_identity()
        pushed.clear()
        assert verify_word(w, spec, g) == expected, (spec, g, w)
        # the whole map, pieces merged, not only the verdict
        assert (pushed or [[(ZERO, ZERO)]])[-1] == _image_form(f), (spec, g, w)
        seen[expected] += 1
    cases = (True, False, "g a power of r", "finite order", "a^-k", "b^k, |k| >= 2",
             "rotation by 0")
    for key in cases:
        assert seen[key], key


def test_verify_word_builds_a_large_power_exactly(pushed):
    # a generic quadratic 4-interval map: g^40 has 3 * 40 + 1 pieces
    s2 = q(0, 1, 2)
    lengths = (s2 / 10, q(Fraction(1, 5)), q(Fraction(1, 2)) - s2 * Fraction(3, 20))
    g = Iet.from_perm_lambda(PermLambdaSpec((4, 3, 2, 1), lengths + (1 - sum(lengths),)))
    spec = DisjointRotationSpec((q(1),), (q(Fraction(1, 2)),))
    assert not verify_word(Word.parse("b^40"), spec, g)
    assert len(pushed) == 40
    assert len(pushed[-1]) == 121
    assert pushed[-1] == _image_form(g.power(40))


def test_verify_word_anchors():
    spec = DisjointRotationSpec((q(Fraction(1, 3)), q(Fraction(2, 3))),
                                (q(Fraction(1, 2)), q(Fraction(1, 4))))
    r, g = _sample_pair()
    assert verify_word(Word(), spec, g)
    assert verify_word(Word.parse("a^4"), spec, g)
    assert verify_word(Word.parse("a^-8"), spec, g)
    assert not verify_word(Word.parse("a^2"), spec, g)
    halves = Iet.rotation(q(Fraction(1, 2)))
    assert verify_word(Word.parse("b^2"), spec, halves)
    assert not verify_word(Word.parse("b^3"), spec, halves)
    assert not verify_word(Word.parse("b a^4 b^-1 a"), spec, g)
    one_block = DisjointRotationSpec((q(1),), (q(0, 1, 2) - 1,))
    assert verify_word(Word.parse("a b a^-1 b^-1"), one_block, r)  # rotations commute


def test_verify_word_bounds_b_letters():
    spec = DisjointRotationSpec((q(1),), (q(Fraction(1, 2)),))
    g = Iet.rotation(q(Fraction(1, MAX_B_LETTERS)))
    assert verify_word(Word.parse(f"b^{MAX_B_LETTERS}"), spec, g)
    with pytest.raises(SearchCapError):
        verify_word(Word.parse(f"b^-1 a b^{MAX_B_LETTERS}"), spec, g)


def test_verify_word_bounds_the_pieces_its_pushes_may_walk(monkeypatch):
    # b^3 a: the a push (2 pieces) leaves at most 2, each b push (3 pieces)
    # adds 2 more, so the pushes may walk 2 + 4 + 6 + 8 = 20 pieces
    spec = DisjointRotationSpec((q(1),), (q(-1, 1, 2),))
    g = Iet.from_perm_lambda(PermLambdaSpec((3, 2, 1), (q(Fraction(1, 4)),) * 2 + (q(Fraction(1, 2)),)))
    word = Word.parse("b^3 a")
    monkeypatch.setattr(words_module, "MAX_VERIFY_PIECES", 20)
    assert not verify_word(word, spec, g)
    monkeypatch.setattr(words_module, "MAX_VERIFY_PIECES", 19)

    def forbidden(*args):
        raise AssertionError("a piece was pushed")

    monkeypatch.setattr(words_module, "_push", forbidden)
    with pytest.raises(SearchCapError, match="up to 20 pieces"):
        verify_word(word, spec, g)


def test_verify_word_admits_a_96_b_letter_word_against_a_100_interval_g():
    # g: 100 intervals over the denominator 4n^2, seeded as in the M-cap
    # measurements; the word: a certificate of 16 b letters to the sixth,
    # the shape of a T_sixth certificate
    n = 100
    rng = random.Random(0)
    lengths = tuple(q(Fraction(u, 4 * n * n)) for u in random_partition(rng, 4 * n * n, n))
    pi = list(range(1, n + 1))
    rng.shuffle(pi)
    g = Iet.from_perm_lambda(PermLambdaSpec(tuple(pi), lengths))
    spec = DisjointRotationSpec((q(1),), (q(-1, 1, 2),))
    word = synthesize(spec, g).word ** 6
    assert sum(abs(exp) for gen, exp in word.syllables if gen == "b") == 96
    assert verify_word(word, spec, g)


# -- the integer verifier against the QuadExt one it replaced ------------------


def _oracle(word, spec, g):
    """verify_word as it ran on QuadExt values, with its _push: the verdict
    and the final composite map as (image lo, translation) pieces."""
    g_pieces = list(zip(g.breakpoints, g.breakpoints[1:] + (ONE,), g.translations))
    maps = {
        ("b", 1): sorted(g_pieces, key=lambda p: p[0] + p[2]),
        ("b", -1): [(lo + t, hi + t, -t) for lo, hi, t in g_pieces],
    }
    pieces = [(ZERO, ZERO)]
    for gen, exp in reversed(word.syllables):
        if gen == "a":
            step = maps.get(("a", exp))
            if step is None:
                step = maps[("a", exp)] = sorted(spec.pieces(exp), key=lambda p: p[0] + p[2])
            pieces = _oracle_push(pieces, step)
        else:
            step = maps[("b", 1 if exp > 0 else -1)]
            for _ in range(abs(exp)):
                pieces = _oracle_push(pieces, step)
    return len(pieces) == 1 and not pieces[0][1], pieces


def _oracle_push(pieces, step):
    starts = [lo for lo, _ in pieces]
    out = []
    for lo, hi, s in step:
        i = bisect_right(starts, lo)
        t = pieces[i - 1][1] + s
        if not out or t != out[-1][1]:
            out.append((lo + s, t))
        out.extend((lo + s, t + s) for lo, t in pieces[i:bisect_left(starts, hi, i)])
    return out


def _golden_cases():
    """(name, word, spec, g) for the 22 golden certificates."""
    return [
        (pair.name, parse_document((GOLDEN / f"{pair.name}.cert").read_text()).payload.word,
         pair.r, pair.g)
        for pair in demo_suite()
    ]


def _deep_m_like_cases(count=40, seed=0):
    """(name, word, spec, g): seeded rotations with 2 to 4 blocks whose rates
    are frac(q sqrt(D)), against a random 6-interval g over denominator 64,
    each with its synthesized word."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        disc = rng.choice((2, 3, 5))
        blocks = rng.randrange(2, 5)
        lengths = tuple(q(Fraction(u, 24)) for u in random_partition(rng, 24, blocks))
        rates = []
        for _ in lengths:
            c = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
            rates.append((q(0, c, disc)).mod_one())
        spec = DisjointRotationSpec(lengths, tuple(rates))
        g = random_iet(rng, 6, 64)
        out.append((f"deep-m-like {i}", synthesize(spec, g).word, spec, g))
    return out


def _perturbed(cases):
    """Each case's word w, w b, and w without its first syllable."""
    for name, w, spec, g in cases:
        yield name, w, spec, g
        yield f"{name} . b", w * Word.generator("b"), spec, g
        yield f"{name} minus its first syllable", Word(w.syllables[1:]), spec, g


def _assert_agrees_with_oracle(cases, pushed):
    verdicts = Counter()
    for name, w, spec, g in _perturbed(cases):
        expected, pieces = _oracle(w, spec, g)
        pushed.clear()
        assert verify_word(w, spec, g) == expected, name
        assert (pushed or [[(ZERO, ZERO)]])[-1] == pieces, name
        verdicts[expected] += 1
    assert verdicts[True] >= len(cases) and verdicts[False], verdicts


def test_verify_word_matches_the_quadext_verifier_on_golden_words(pushed):
    _assert_agrees_with_oracle(_golden_cases(), pushed)


def test_verify_word_matches_the_quadext_verifier_on_deep_m_like_pairs(pushed):
    _assert_agrees_with_oracle(_deep_m_like_cases(), pushed)


def test_verify_word_matches_the_quadext_verifier_on_rational_maps(monkeypatch, pushed):
    lattices = []
    on_lattice = words_module._on_lattice

    def recording_on_lattice(steps):
        result = on_lattice(steps)
        lattices.append(result[:2])
        return result

    monkeypatch.setattr(words_module, "_on_lattice", recording_on_lattice)
    spec = DisjointRotationSpec((q(Fraction(1, 3)), q(Fraction(2, 3))),
                                (q(Fraction(1, 2)), q(Fraction(3, 4))))
    g = random_iet(random.Random(5), 6, 8)
    word = Word.parse("a^4 b a^-4 b^-1")
    _assert_agrees_with_oracle([("rational", word, spec, g)], pushed)
    assert {disc for _, disc in lattices} == {0}


def test_verify_word_certifies_golden_words_without_iet_arithmetic(monkeypatch):
    cases = _golden_cases()

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_word called the Iet kernel")

    for name in ("compose", "inverse", "power"):
        monkeypatch.setattr(Iet, name, forbidden)
    monkeypatch.setattr(iet_module, "_store", forbidden)
    for name, w, spec, g in cases:
        assert verify_word(w, spec, g), name
