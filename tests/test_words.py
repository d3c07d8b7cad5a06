"""Free words in two generators: reduction, group operations, evaluation."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ietrel import words as words_module
from ietrel.errors import ParseError, PreconditionError, SearchCapError
from ietrel.iet import Iet, PermLambdaSpec
from ietrel.rotation import DisjointRotationSpec
from ietrel.sampling import random_iet, random_rotation_spec
from ietrel.scalars import ZERO
from ietrel.words import (
    MAX_B_LETTERS,
    Word,
    eval_word,
    eval_word_naive,
    free_reduce,
    verify_word,
)

from conftest import q, seeded_iets


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


@pytest.fixture
def pushed(monkeypatch):
    """Every map verify_word builds, in order: _push wrapped to record its result."""
    out = []
    push = words_module._push

    def recording_push(pieces, step):
        out.append(push(pieces, step))
        return out[-1]

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
