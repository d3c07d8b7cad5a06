"""The relation synthesizer: parameter searches, h/k/T assembly, certificates."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietrel import relations, words
from ietrel.errors import InvariantError, PreconditionError, SearchCapError
from ietrel.iet import Iet, PermLambdaSpec
from ietrel.intervals import IntervalSet, circular_ball
from ietrel.relations import (
    BRANCH_FINITE_ORDER,
    BRANCH_H_TRIVIAL,
    BRANCH_T_SIXTH,
    BRANCH_T_TRIVIAL,
    DEFAULT_M_CAP,
    build_h,
    build_k,
    build_T,
    check_small_support,
    compute_P,
    find_d,
    find_epsilon,
    find_M,
    neighborhood_union,
    synthesize,
    synthesize_with_context,
)
from ietrel.rotation import DisjointRotationSpec
from ietrel.sampling import demo_suite, random_rotation_spec
from ietrel.scalars import ONE, QuadExt
from ietrel.words import Word, eval_word, eval_word_naive

from conftest import q, seeded_iets

F = Fraction

SQRT2M1 = QuadExt(-1, 1, 2)  # sqrt(2) - 1

ONE_BLOCK = DisjointRotationSpec((q(1),), (SQRT2M1,))


def _quarter_rotation_g() -> Iet:
    return Iet.rotation(q(F(1, 4)))


# -- the point set P -----------------------------------------------------------


def test_compute_P_identity_g():
    spec = DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))), (SQRT2M1, q(0)))
    assert compute_P(spec, Iet.identity()) == (q(0), q(F(1, 2)))


def test_compute_P_collects_preimages_and_discontinuities():
    assert compute_P(ONE_BLOCK, _quarter_rotation_g()) == (q(0), q(F(3, 4)))


# -- the displacement exponent d -------------------------------------------------


def test_find_d_anchors():
    r = ONE_BLOCK.to_iet()
    assert find_d(r, [q(0)]) == 1
    assert find_d(r, [q(0), q(F(3, 4))]) == 1
    assert find_d(Iet.rotation(q(F(1, 4))), [q(0), q(F(1, 4))]) == 2
    assert find_d(r, []) == 1


def test_find_d_requires_supported_points():
    spec = DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))), (SQRT2M1, q(0)))
    with pytest.raises(PreconditionError):
        find_d(spec.to_iet(), [q(F(3, 4))])  # inside the fixed block


# -- the separation radius epsilon ----------------------------------------------


def test_find_epsilon_anchors():
    assert find_epsilon(Iet.identity(), [q(0), q(F(1, 2))], 1) == q(F(1, 16))
    r = ONE_BLOCK.to_iet()
    pts = [q(0), q(F(1, 4)), q(F(3, 4))]
    assert find_epsilon(r, pts, 1) == q(F(1, 32))
    assert find_epsilon(r, pts, 1, min_block=q(1)) == q(F(1, 32))
    assert find_epsilon(r, [q(0)], 1) == q(F(1, 16))


def test_find_epsilon_respects_min_block():
    # the block cap forces one extra halving beyond the separation checks
    eps = find_epsilon(Iet.identity(), [q(0), q(F(1, 2))], 1, min_block=q(F(1, 8)))
    assert eps == q(F(1, 64))


def test_find_epsilon_search_cap(monkeypatch):
    monkeypatch.setattr(relations, "MAX_HALVINGS", 1)
    with pytest.raises(SearchCapError):
        find_epsilon(Iet.identity(), [q(0)], 1)


@given(st.sets(st.integers(0, 63), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_epsilon_separates_the_balls(ks):
    pts = [q(F(k, 64)) for k in sorted(ks)]
    r = ONE_BLOCK.to_iet()
    eps = find_epsilon(r, pts, 1)
    assert eps * 10 < ONE
    balls = [circular_ball(p, eps) for p in pts]
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            assert balls[i].is_disjoint(balls[j])
    x = neighborhood_union(pts, eps)
    assert x.is_disjoint(r.image_of(x))
    assert x.measure() == eps * 2 * len(pts)


# -- the flattening exponent M ---------------------------------------------------


def test_find_M_anchors():
    # theta = 1/100; the continued fraction of sqrt(2)-1 first gets that
    # close at the convergent denominator 70
    assert find_M(ONE_BLOCK, q(F(1, 10))) == 70
    assert find_M(ONE_BLOCK, q(F(1, 16))) == 70
    near_zero = DisjointRotationSpec((q(1),), (q(F(1, 1000)),))
    assert find_M(near_zero, q(F(1, 10))) == 1
    fixed = DisjointRotationSpec((q(1),), (q(0),))
    assert find_M(fixed, q(F(1, 10))) == 1


def test_find_M_guards():
    with pytest.raises(SearchCapError):
        find_M(ONE_BLOCK, q(F(1, 10)), m_cap=10)
    with pytest.raises(PreconditionError):
        find_M(ONE_BLOCK, q(0))


def test_find_M_is_minimal():
    eps = q(F(1, 16))
    M = find_M(ONE_BLOCK, eps)
    theta = eps / 10
    for m in range(1, M):
        rate = ONE_BLOCK.block_rates(m)[0]
        assert not (rate < theta or rate > ONE - theta)


def linear_find_M(r_spec, epsilon, m_cap=DEFAULT_M_CAP):
    """The oracle: step every rate as a QuadExt, one M at a time."""
    theta = epsilon / 10
    upper = ONE - theta
    rates = r_spec.rates
    current = list(rates)
    for m in range(1, m_cap + 1):
        if all(c < theta or c > upper for c in current):
            return m
        for j, a in enumerate(rates):
            c = current[j] + a
            if c >= ONE:
                c = c - ONE
            current[j] = c
    raise SearchCapError(f"no admissible M up to cap {m_cap}")


def _outcome(search, spec, eps, m_cap):
    try:
        return search(spec, eps, m_cap)
    except SearchCapError:
        return "cap"


def _differential_case(seed):
    """A seeded spec and epsilon >= 1/1000; seeds 1 and 2 mod 4 put a zero
    rate in some block or in the first one."""
    rng = random.Random(seed)
    spec = random_rotation_spec(rng)
    rates = list(spec.rates)
    if seed % 4 == 1:
        rates[rng.randrange(len(rates))] = q(0)
    elif seed % 4 == 2:
        rates[0] = q(0)
    spec = DisjointRotationSpec(spec.lengths, tuple(rates))
    n = round(1000 ** rng.random())  # log-uniform in [1, 1000]
    disc = max(a.disc for a in rates) or rng.choice((2, 3, 5))
    eps = q(F(1, n)) if rng.random() < 0.5 else QuadExt(F(1, n), F(1, 8 * n), disc)
    return spec, eps


def test_find_M_matches_the_linear_scan_on_seeded_specs():
    m_cap = 20_000
    outcomes = []
    for seed in range(240):
        spec, eps = _differential_case(seed)
        want = _outcome(linear_find_M, spec, eps, m_cap)
        assert _outcome(find_M, spec, eps, m_cap) == want, (seed, spec, eps)
        outcomes.append(want)
    # the cases reach past the trivial M = 1 and past the first convergents
    assert sum(m != "cap" and m > 100 for m in outcomes) >= 20


_HALVES = (q(F(1, 2)), q(F(1, 2)))


@pytest.mark.parametrize("spec, m", [
    (ONE_BLOCK, 70),  # the rate sits just below 1
    (ONE_BLOCK, 169),  # just above 0
    (DisjointRotationSpec((q(1),), (q(F(3, 8)),)), 3),  # exact in fixed point
    (DisjointRotationSpec(_HALVES, (SQRT2M1, (SQRT2M1 * 2).mod_one())), 70),
])
def test_find_M_decides_an_exact_boundary_exactly(spec, m):
    # M = m is admissible exactly when theta exceeds the largest circular
    # distance of a block rate from 0 there, and no smaller M gets as close.
    # At theta equal to that distance the strict test must reject M = m; at
    # theta larger by far less than one fixed-point unit it must accept it.
    # In the two-block case the first block passes at theta itself.
    distance = max(min(c, ONE - c) for c in spec.block_rates(m))
    tiny = q(F(1, 2**200))
    at, above = distance * 10, (distance + tiny) * 10
    assert find_M(spec, at) == linear_find_M(spec, at) > m
    assert find_M(spec, above) == linear_find_M(spec, above) == m


@pytest.mark.parametrize("eps, M", [(F(1, 10**3), 5741), (F(1, 10**4), 80782),
                                    (F(1, 10**5), 470832)])
def test_find_M_convergent_anchors(eps, M):
    # each M is a convergent denominator of sqrt(2)
    assert find_M(ONE_BLOCK, q(eps)) == M


def test_find_M_reaches_the_default_cap_quickly():
    start = time.perf_counter()
    with pytest.raises(SearchCapError, match=f"cap {DEFAULT_M_CAP}"):
        find_M(ONE_BLOCK, q(F(1, 10**9)))
    assert time.perf_counter() - start < 5.0


# -- h, k, T ---------------------------------------------------------------------


def test_build_h_word_shape():
    r = ONE_BLOCK.to_iet()
    h, word = build_h(r, _quarter_rotation_g(), M=70)
    assert h.is_identity()  # rotations commute
    assert word == Word.parse("b^-1 a^-70 b a^70 b^-1 a^70 b a^-70")
    assert word.letter_count() == 284


def test_build_h_folds_the_fixing_power():
    r = ONE_BLOCK.to_iet()
    _, word = build_h(r, _quarter_rotation_g(), M=3, fixing_power=2)
    assert word == Word.parse("b^-1 a^-6 b a^6 b^-1 a^6 b a^-6")


def test_build_h_matches_its_word():
    r = ONE_BLOCK.to_iet()
    g = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(3, 2, 1),
        lengths=(q(F(1, 4)), q(F(1, 4)), q(F(1, 2)))))
    h, word = build_h(r, g, M=5)
    assert eval_word(word, r, g) == h


def test_build_k_and_T_match_their_words():
    r = ONE_BLOCK.to_iet()
    g = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(3, 2, 1),
        lengths=(q(F(1, 4)), q(F(1, 4)), q(F(1, 2)))))
    h, word_h = build_h(r, g, M=5)
    k, word_k = build_k(r, h, word_h, d=2)
    assert k == r.power(2).compose(h).compose(r.power(-2))
    assert eval_word(word_k, r, g) == k
    t, word_t = build_T(h, k, word_h, word_k)
    assert t == k.compose(h.inverse()).compose(k.inverse()).compose(h)
    assert eval_word(word_t, r, g) == t


def test_check_small_support():
    f = Iet([q(0), q(F(1, 4)), q(F(1, 2))], [q(F(1, 4)), q(-F(1, 4)), q(0)])
    assert check_small_support(f, IntervalSet([(q(0), q(F(1, 2)))]))
    assert check_small_support(f, IntervalSet.full())
    assert not check_small_support(f, IntervalSet([(q(0), q(F(3, 8)))]))
    assert check_small_support(Iet.identity(), IntervalSet([]))


# -- synthesize -------------------------------------------------------------------


def test_finite_order_branch():
    spec = DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))),
                                (q(F(1, 4)), q(F(3, 4))))
    cert, ctx = synthesize_with_context(spec, _quarter_rotation_g())
    assert cert.branch == BRANCH_FINITE_ORDER
    assert cert.word == Word.parse("a^4")
    assert cert.verified
    assert cert.d is None and cert.M is None
    assert ctx is None


def test_h_trivial_branch_anchor():
    cert, ctx = synthesize_with_context(ONE_BLOCK, Iet.identity())
    assert cert.branch == BRANCH_H_TRIVIAL
    assert cert.word == Word.parse("b^-1 a^-70 b a^70 b^-1 a^70 b a^-70")
    assert (cert.L, cert.d, cert.M) == (1, 1, 70)
    assert cert.epsilon == q(F(1, 16))
    assert cert.verified
    assert ctx is not None
    assert ctx.P == (q(0),)
    assert ctx.h.is_identity()
    assert not ctx.fallback_used
    assert ctx.invariants_hold()


def test_T_trivial_branch():
    g = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(3, 2, 1),
        lengths=(q(F(1, 4)), q(F(1, 4)), q(F(1, 2)))))
    cert, ctx = synthesize_with_context(ONE_BLOCK, g)
    assert cert.branch in (BRANCH_T_TRIVIAL, BRANCH_T_SIXTH)
    assert cert.verified
    assert ctx.invariants_hold()
    assert eval_word_naive(cert.word, ONE_BLOCK.to_iet(), g).is_identity()


def test_T_sixth_branch():
    pair = next(p for p in demo_suite() if p.name == "d3-two-blocks-fixed")
    cert, ctx = synthesize_with_context(pair.r, pair.g)
    assert cert.branch == BRANCH_T_SIXTH
    assert cert.verified
    assert not ctx.T.is_identity()
    assert ctx.T.power(6).is_identity()
    assert eval_word(cert.word, pair.r.to_iet(), pair.g).is_identity()


def test_synthesize_is_deterministic():
    g = _quarter_rotation_g()
    assert synthesize(ONE_BLOCK, g) == synthesize(ONE_BLOCK, g)


def test_search_cap_propagates():
    with pytest.raises(SearchCapError):
        synthesize(ONE_BLOCK, Iet.identity(), m_cap=1)


def test_word_is_nonempty_and_reduced():
    for g in (Iet.identity(), _quarter_rotation_g()):
        cert = synthesize(ONE_BLOCK, g)
        assert not cert.word.is_empty()
        assert cert.word == Word(cert.word.syllables)  # already reduced


def test_conjugator_moves_the_relation():
    c = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(3, 2, 1),
        lengths=(q(F(1, 4)), q(F(1, 4)), q(F(1, 2)))))
    g = Iet.rotation(q(F(3, 8)))
    cert = synthesize(ONE_BLOCK, g, conjugator=c)
    assert cert.verified
    r_actual = ONE_BLOCK.to_iet().conjugate(c)
    assert eval_word(cert.word, r_actual, g).is_identity()
    # the word is the one synthesized for the normalized pair
    g_norm = c.inverse().compose(g).compose(c)
    assert cert.word == synthesize(ONE_BLOCK, g_norm).word


# -- certification -----------------------------------------------------------------


def _t_sixth_pair():
    pair = next(p for p in demo_suite() if p.name == "d3-two-blocks-fixed")
    return pair.r, pair.g, None, BRANCH_T_SIXTH


def _conjugated_pair():
    c = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(3, 2, 1),
        lengths=(q(F(1, 4)), q(F(1, 4)), q(F(1, 2)))))
    return ONE_BLOCK, Iet.rotation(q(F(3, 8))), c, BRANCH_T_TRIVIAL


@pytest.mark.parametrize("make_pair", [_t_sixth_pair, _conjugated_pair])
def test_certification_does_not_evaluate_words_as_iets(make_pair, monkeypatch):
    r_spec, g, c, branch = make_pair()

    def forbidden(*args):
        raise AssertionError("certification called eval_word")

    monkeypatch.setattr(relations, "eval_word", forbidden)
    monkeypatch.setattr(words, "eval_word", forbidden)
    cert = synthesize(r_spec, g, conjugator=c)
    assert cert.verified
    assert cert.branch == branch


def test_a_word_the_checker_rejects_is_not_certified(monkeypatch):
    monkeypatch.setattr(relations, "verify_word", lambda *args: False)
    with pytest.raises(InvariantError, match="does not evaluate to the identity"):
        synthesize(ONE_BLOCK, _quarter_rotation_g())


def test_escaped_support_raises_without_a_retry(monkeypatch):
    calls = {"compute_P": 0, "find_M": 0}

    def counted(name):
        original = getattr(relations, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(relations, name, counted(name))
    monkeypatch.setattr(relations, "check_small_support", lambda h, x: False)
    with pytest.raises(InvariantError, match="support of h escaped"):
        synthesize(ONE_BLOCK, _quarter_rotation_g())
    assert calls == {"compute_P": 1, "find_M": 1}


def test_input_type_guards():
    with pytest.raises(PreconditionError):
        synthesize(ONE_BLOCK.to_iet(), Iet.identity())
    with pytest.raises(PreconditionError):
        synthesize(ONE_BLOCK, ONE_BLOCK)


@given(seeded_iets(max_intervals=4))
@settings(max_examples=15, deadline=None)
def test_synthesized_words_hold_on_random_g(g):
    cert = synthesize(ONE_BLOCK, g)
    assert cert.verified
    assert not cert.word.is_empty()
    assert eval_word(cert.word, ONE_BLOCK.to_iet(), g).is_identity()
