"""Free words in two generators: reduction, group operations, evaluation."""

from __future__ import annotations

import ast
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from operator import itemgetter
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
from ietrel.sampling import demo_suite, random_iet, random_partition
from ietrel.scalars import ONE, ZERO, QuadExt, _lattice, _pair
from ietrel.words import (
    MAX_B_LETTERS,
    MAX_EXPONENT_DIGITS,
    Word,
    eval_word,
    eval_word_naive,
    free_reduce,
    verify_word,
)

from conftest import q, quadext_pieces, random_rotation_spec, seeded_iets


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


def test_free_reduce_checks_each_syllable_as_the_constructor_does():
    with pytest.raises(PreconditionError, match="unknown generator 'c'"):
        free_reduce([("a", 1), ("c", 2)])
    with pytest.raises(PreconditionError, match=r"nonzero integers, got 1\.5"):
        free_reduce([("b", 1), ("a", 1.5)])
    with pytest.raises(PreconditionError, match="nonzero integers, got '2'"):
        free_reduce([("a", "2")])
    # a zero exponent vanishes in reduction, and only the constructor refuses it
    assert free_reduce([("a", 2), ("b", 0), ("a", -1)]).syllables == (("a", 1),)
    with pytest.raises(PreconditionError, match="nonzero integers, got 0"):
        Word((("a", 0),))
    # the Word free_reduce builds without a second check is the checked one
    w = free_reduce([("b", 2), ("a", 1), ("a", 2), ("b", -1)])
    checked = Word((("b", 2), ("a", 3), ("b", -1)))
    assert w == checked and hash(w) == hash(checked) and type(w.syllables) is tuple


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


def test_a_word_times_a_non_word_raises_type_error():
    with pytest.raises(TypeError, match="unsupported operand"):
        Word.parse("a b") * 3


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


# -- powers up to conjugation ----------------------------------------------------


def _alternating_syllables(rng, count):
    """count syllables with alternating generators: a^+-(1..7), b^+-(1..3)."""
    gen = rng.choice("ab")
    out = []
    for _ in range(count):
        top = 8 if gen == "a" else 4
        out.append((gen, rng.choice((-1, 1)) * rng.randrange(1, top)))
        gen = "b" if gen == "a" else "a"
    return out


def _inverse(syllables):
    return [(gen, -exp) for gen, exp in reversed(syllables)]


def _push_count(syllables):
    return sum(1 if gen == "a" else abs(exp) for gen, exp in syllables)


def _walk_bound(word, spec, g):
    """The pieces the pushes of the word, one per a syllable and b letter,
    may walk: each push adds at most its step's pieces less one."""
    most, walked = 1, 0
    for gen, exp in reversed(word.syllables):
        sizes = [spec.power(exp).num_intervals] if gen == "a" else [g.num_intervals] * abs(exp)
        for size in sizes:
            most += size - 1
            walked += most
    return walked


def test_verify_word_pushes_a_power_once_and_agrees_with_naive(pushed):
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(120):
        spec = _random_spec(rng)
        g = _random_g(rng, spec)
        k = rng.randrange(2, 8)
        u = _alternating_syllables(rng, rng.randrange(1, 13))
        x = _alternating_syllables(rng, rng.randrange(0, 4))
        roll = rng.randrange(5)
        if roll == 0:
            # g = r^j commutes with r: u a^-e, e the total exponent of r in
            # u, is the identity, and so is its k-th power
            j = rng.choice((-2, -1, 1, 2))
            g = spec.power_spec(j).to_iet()
            e = sum(exp if gen == "a" else j * exp for gen, exp in u)
            u = list(free_reduce(u + [("a", -e)]).syllables) or [("b", 1)]
            seen["u^k the identity"] += 1
        elif roll == 1:
            # g a rotation by 1/k: b^k is the identity
            g = Iet.rotation(q(Fraction(1, k)))
            u = [("b", 1)]
            seen["u^k the identity"] += 1
        if x and rng.randrange(2):
            # x's last syllable cancels u's first, or merges with it
            gen, exp = u[0]
            x[-1] = (gen, -exp if rng.randrange(2) else exp)
            if len(x) > 1 and x[-2][0] == gen:
                del x[-2]
            seen["x meets u"] += 1
        w = free_reduce(x + u * k + _inverse(x))
        f = eval_word_naive(w, spec.to_iet(), g)
        pushed.clear()
        assert verify_word(w, spec, g) == f.is_identity(), (spec, g, w)
        # the whole map of w, not of a conjugate
        assert (pushed or [[(ZERO, ZERO)]])[-1] == _image_form(f), (spec, g, w)
        walked = sum(len(pushed[i]) for i in range(len(pushed)))
        assert walked <= _walk_bound(w, spec, g), (spec, g, w)
        root_x, root_u, root_k = words_module._root(w)
        assert free_reduce(list(root_x) + list(root_u) * root_k + _inverse(root_x)) == w
        if len(pushed) < _push_count(w.syllables):
            # u once, then x^-1, U k times and x
            assert root_k >= 2
            assert len(pushed) == (_push_count(root_u) + 2 * _push_count(root_x) + root_k)
            seen["pushed as a power"] += 1
        else:
            assert len(pushed) == _push_count(w.syllables)
        seen[f.is_identity()] += 1
    for key in (True, False, "u^k the identity", "x meets u"):
        assert seen[key], key
    assert seen["pushed as a power"] >= 60, seen


def test_verify_word_keeps_the_word_plan_when_the_power_plan_may_walk_more(pushed):
    # b a b^2 a b is b (a b^2)^2 b^-1, but pushing a b^2 once, then b^-1, U
    # twice and b may walk 14 + 39 pieces against the 6 pushes' 41
    spec = DisjointRotationSpec((q(1),), (q(Fraction(1, 4)),))
    _, g = _sample_pair()
    w = Word.parse("b a b^2 a b")
    assert words_module._root(w) == ((("b", 1),), (("a", 1), ("b", 2)), 2)
    f = eval_word_naive(w, spec.to_iet(), g)
    assert verify_word(w, spec, g) == f.is_identity()
    assert len(pushed) == 6
    assert pushed[-1] == _image_form(f)


def test_t_sixth_certificates_verify_as_a_sixth_power_in_40_pushes(pushed):
    cases = [case for case in _golden_cases() if case[1].syllable_count() == 193]
    assert len(cases) == 8
    for name, w, spec, g in cases:
        x, u, k = words_module._root(w)
        assert (len(x), len(u), k) == (1, 32, 6), name
        pushed.clear()
        assert verify_word(w, spec, g), name
        # 32 pushes of u, then a^-1, U six times and a
        assert len(pushed) == 40, name


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
                step = maps[("a", exp)] = sorted(spec.power(exp).pieces(),
                                                 key=lambda p: p[0] + p[2])
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


# -- a^k steps with adjacent fixed blocks merged ---------------------------------


class _Unmerged:
    """r^k as verify_word took it before DisjointRotationSpec.power merged
    adjacent fixed blocks: one piece for each block r^k fixes, two for each
    it moves, from conftest's quadext_pieces."""

    def __init__(self, spec, k):
        self.pieces = quadext_pieces(spec, k)

    def lattice_pieces(self):
        den, disc = _lattice(v for piece in self.pieces for v in piece)
        return den, disc, [tuple(x for v in piece for x in _pair(v, den))
                           for piece in self.pieces]


def _merge_cases():
    """(name, word, spec, g), with perturbations: d5-four-blocks-mixed's
    word, whose even powers of r fix its adjacent blocks of rates 1/2 and 0,
    and seeded specs of rates (1/2, 0, alpha) with synthesized and random
    words against seeded g."""
    cases = [case for case in _golden_cases() if case[0] == "d5-four-blocks-mixed"]
    rng = random.Random(20261026)
    for i in range(8):
        disc = rng.choice((2, 3, 5))
        lengths = tuple(q(Fraction(u, 24)) for u in random_partition(rng, 24, 3))
        alpha = q(0, Fraction(rng.randrange(1, 7), rng.randrange(1, 5)), disc).mod_one()
        spec = DisjointRotationSpec(lengths, (q(Fraction(1, 2)), q(0), alpha))
        g = random_iet(rng, 6, 8)
        w = synthesize(spec, g).word if i % 2 else _random_word(rng)
        cases.append((f"rates 1/2, 0, alpha {i}", w, spec, g))
    return list(_perturbed(cases))


def test_merged_rotation_steps_change_nothing_the_verifier_reports(monkeypatch, pushed):
    walks = []
    walk = words_module._walk
    monkeypatch.setattr(words_module, "_walk", lambda *args: walks.append(walk(*args)) or walks[-1])

    def report(w, spec, g):
        """The verdict, the final composite map and the word plan's walk bound."""
        pushed.clear()
        walks.clear()
        return verify_word(w, spec, g), (pushed or [[(ZERO, ZERO)]])[-1], walks[0][0]

    seen = Counter()
    for name, w, spec, g in _merge_cases():
        composite = _image_form(eval_word(w, spec.to_iet(), g))
        verdict, pieces, walked = report(w, spec, g)
        with monkeypatch.context() as unmerged:
            unmerged.setattr(DisjointRotationSpec, "power", lambda spec, k: _Unmerged(spec, k))
            oracle = report(w, spec, g)
        assert (verdict, pieces) == oracle[:2], name
        assert pieces == composite and verdict == (composite == [(ZERO, ZERO)]), name
        assert walked <= oracle[2], name
        seen[verdict] += 1
        seen["smaller walk bound"] += walked < oracle[2]
    assert seen[True] >= 5 and seen[False] and seen["smaller walk bound"] >= 10, seen


# -- one step builder --------------------------------------------------------------


def _sorting_on_lattice(steps):
    """_on_lattice as it was before every step came from _as_step: each map
    sorted in QuadExt, by lo and by image lo."""
    den, disc = _lattice(v for step in steps.values() for piece in step for v in piece)
    maps = {}
    for key, step in steps.items():
        step = sorted(step, key=itemgetter(0))
        flat = [(*_pair(lo, den), *_pair(hi, den), *_pair(s, den)) for lo, hi, s in step]
        maps[key] = flat, sorted(range(len(step)), key=lambda p: step[p][0] + step[p][2])
    return den, disc, maps


def _quadext_steps(keys, spec, g):
    """The maps verify_word takes for the keys, in QuadExt: r^k from
    spec.power(k).pieces(), g and g^-1 from g.pieces()."""
    g_pieces = list(g.pieces())
    inverse = [(lo + t, hi + t, -t) for lo, hi, t in g_pieces]
    return {(gen, exp): list(spec.power(exp).pieces()) if gen == "a"
            else g_pieces if exp == 1 else inverse for gen, exp in keys}


def _composite_as_step(pieces, den):
    """U's step as it was built from the composite map pieces (image lo,
    translation), in image order over den: the domain order chained from 0,
    the image order its inverse."""
    his = [piece[:2] for piece in pieces[1:]] + [(den, 0)]
    flat = [(la - ta, lb - tb, ha - ta, hb - tb, ta, tb)
            for (la, lb, ta, tb), (ha, hb) in zip(pieces, his)]
    piece_at = {piece[:2]: p for p, piece in enumerate(flat)}
    order = [piece_at[0, 0]]
    for _ in flat[1:]:
        order.append(piece_at[flat[order[-1]][2:4]])
    image_order = [0] * len(flat)
    for i, p in enumerate(order):
        image_order[p] = i
    return [flat[p] for p in order], image_order


def _builder_cases():
    """(name, word, spec, g): the golden and deep-m-like words with their
    perturbations, then 300 seeded random cases, every other one a power
    x u^k x^-1."""
    yield from _perturbed(_golden_cases())
    yield from _perturbed(_deep_m_like_cases())
    rng = random.Random(20261020)
    for i in range(300):
        spec = _random_spec(rng)
        g = _random_g(rng, spec)
        if i % 2:
            w = _random_word(rng)
        else:
            u = _alternating_syllables(rng, rng.randrange(1, 9))
            x = _alternating_syllables(rng, rng.randrange(0, 3))
            w = free_reduce(x + u * rng.randrange(2, 6) + _inverse(x))
        yield f"random {i}", w, spec, g


def test_every_step_is_the_one_the_sorting_builder_made(monkeypatch):
    events = []  # (name, args, result) of each call, in the order it returns
    for name in ("_on_lattice", "_run", "_as_step"):
        def record(*args, _name=name, _call=getattr(words_module, name)):
            result = _call(*args)
            events.append((_name, args, result))
            return result

        monkeypatch.setattr(words_module, name, record)
    seen = Counter()
    for name, w, spec, g in _builder_cases():
        events.clear()
        verify_word(w, spec, g)
        at = [event[0] for event in events].index("_on_lattice")
        (steps,), (den, disc, maps) = events[at][1:]
        maps.pop(("u", 1), None)  # added to the dict _on_lattice returned
        assert (den, disc, maps) == _sorting_on_lattice(_quadext_steps(steps, spec, g)), name
        seen["steps"] += len(steps)
        seen["g^-1"] += ("b", -1) in steps
        seen["rate-0 block"] += any(gen == "a" for gen, _ in steps) and not all(spec.rates)
        after = [event[0] for event in events[at + 1:]]
        if after == ["_run", "_as_step", "_run"]:
            (_, _, u_map), (_, _, u_step) = events[at + 1:at + 3]
            assert u_step == _composite_as_step(u_map, den), name
            seen["U"] += 1
        else:
            assert after == ["_run"], name
    assert seen["steps"] >= 1500 and min(seen.values()) >= 50, seen


def test_verify_word_makes_no_quadext_comparison(monkeypatch):
    cases = list(_builder_cases())  # synthesis compares: build the cases first

    def forbidden(*args):
        raise AssertionError("verify_word compared QuadExt values")

    monkeypatch.setattr(QuadExt, "_cmp", forbidden)
    verdicts = Counter(verify_word(w, spec, g) for _, w, spec, g in cases)
    assert verdicts[True] and verdicts[False], verdicts


def test_the_verifier_imports_only_iet_from_the_iet_algebra():
    tree = ast.parse(Path(words_module.__file__).read_text())
    imported = [(node.module or "", alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    imported += [(alias.name, "") for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names]
    modules = [(module.split(".")[-1], name) for module, name in imported]
    assert [name for module, name in modules if "iet" in (module, name)] == ["Iet"]
    assert not [name for module, name in modules if "relations" in (module, name)]


def test_verify_word_certifies_golden_words_without_iet_arithmetic(monkeypatch):
    cases = _golden_cases()

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_word called the Iet kernel")

    for name in ("compose", "inverse", "power"):
        monkeypatch.setattr(Iet, name, forbidden)
    monkeypatch.setattr(iet_module, "_store", forbidden)
    for name, w, spec, g in cases:
        assert verify_word(w, spec, g), name


def test_verify_word_asks_the_spec_for_each_positive_power_once(monkeypatch):
    # every inverse step is the flip of a step already built, so a golden
    # word asks DisjointRotationSpec.power once per distinct |k| and never
    # for k < 1
    power = DisjointRotationSpec.power
    asked = []
    monkeypatch.setattr(DisjointRotationSpec, "power",
                        lambda spec, m: asked.append(m) or power(spec, m))
    calls = Counter()
    for pair in demo_suite():
        cert = parse_document((GOLDEN / f"{pair.name}.cert").read_text()).payload
        asked.clear()
        assert verify_word(cert.word, pair.r, pair.g), pair.name
        assert min(asked) >= 1 and len(set(asked)) == len(asked), (pair.name, asked)
        calls[cert.branch, len(asked)] += 1
    assert calls == {("finite_order", 1): 2, ("h_trivial", 1): 8,
                     ("T_trivial", 3): 4, ("T_sixth", 4): 8}
