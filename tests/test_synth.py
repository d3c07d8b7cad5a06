"""The relation synthesizer: parameter searches, h/k/T assembly, certificates."""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
    _arc_hits,
    _first_hit,
)
from ietrel.rotation import FINITE_ORDER, DisjointRotationSpec
from ietrel.sampling import demo_suite, random_iet, random_partition
from ietrel.scalars import ONE, QuadExt
from ietrel.words import Word, eval_word, eval_word_naive

from conftest import q, random_rotation_spec, seeded_iets
from oracles import (
    halving_find_epsilon,
    invariants_hold,
    linear_find_M,
    quadext_compute_P,
    quadext_find_d,
)
from test_words import _deep_m_like_cases

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


def _convergent(k):
    """The k-th continued-fraction convergent of sqrt(2) - 1 = [0; 2, 2, ...]."""
    p0, q0, p1, q1 = 0, 1, 1, 2
    for _ in range(k - 1):
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
    return F(p1, q1)


def near_orbit_g(k, grid):
    """The reversing exchange of the 1/grid cells, with two more breakpoints
    1/3 and 1/3 + p/q, p/q the k-th convergent of sqrt(2) - 1: nearly one
    step apart on an orbit of the rotation by sqrt(2) - 1, so epsilon needs
    about 2 log2(q) halvings."""
    x = F(1, 3)
    cuts = sorted({F(j, grid) for j in range(grid)} | {x, x + _convergent(k)})
    lengths = [b - a for a, b in zip(cuts, cuts[1:] + [F(1)])]
    return Iet.from_perm_lambda(PermLambdaSpec(
        tuple(range(len(lengths), 0, -1)), tuple(q(v) for v in lengths)))


def orbit_aligned_g(n):
    """The reversing exchange whose breakpoints are 0 and frac(k (sqrt(2) - 1))
    for k = 1 .. n: all on one orbit of the rotation by sqrt(2) - 1, so d is
    n + 1 against ONE_BLOCK."""
    cuts = sorted({(SQRT2M1 * k).mod_one() for k in range(1, n + 1)} | {q(0)})
    lengths = [b - a for a, b in zip(cuts, cuts[1:] + [ONE])]
    return Iet.from_perm_lambda(PermLambdaSpec(
        tuple(range(len(lengths), 0, -1)), tuple(lengths)))


def _search_cases():
    """(name, spec, g): |P| = 1, the near-orbit g, the orbit-aligned g at
    n = 400, a spec with irrational block lengths and 60 seeded random specs
    of one to four blocks with zero, rational and irrational rates."""
    yield "one block against the identity: |P| = 1", ONE_BLOCK, Iet.identity()
    for k in (4, 12, 30):
        yield f"near-orbit {k}", ONE_BLOCK, near_orbit_g(k, 16)
    yield "orbit-aligned n = 400", ONE_BLOCK, orbit_aligned_g(400)
    root = q(0, F(1, 2), 2)  # sqrt(2) / 2
    yield ("irrational lengths", DisjointRotationSpec((root, ONE - root), (SQRT2M1, q(F(1, 3)))),
           random_iet(random.Random(5), 6, 8))
    rng = random.Random(27)
    count = 0
    while count < 60:
        spec = random_rotation_spec(rng)
        if spec.classify().kind != FINITE_ORDER:
            yield f"random {count}", spec, random_iet(rng, 8, 64)
            count += 1


def test_the_searches_match_their_quadext_oracles():
    seen = Counter()
    for name, spec, g in _search_cases():
        L = spec.fixing_power()
        fixed = spec.power_spec(L)
        r = fixed.to_iet()
        supp = r.support()
        P = quadext_compute_P(fixed, g)
        P_prime = tuple(p for p in P if supp.contains_point(p))
        d = quadext_find_d(r, P_prime)
        assert compute_P(fixed, g) == P, name
        assert find_d(r, P_prime) == d, name
        # the public find_d and find_epsilon take points in any order
        assert find_d(r, P_prime[::-1] + P_prime[:1]) == d, name
        # no block bound is the bound 1, which 10 eps < 1 already implies
        assert find_epsilon(r, P, d) == find_epsilon(r, P, d, min_block=ONE), name
        for min_block in (None, spec.min_block_length()):
            eps = halving_find_epsilon(r, P, d, min_block)
            assert find_epsilon(r, P[::-1], d, min_block) == eps, name
        # synthesis's search on one lattice, with X and X' at its epsilon
        X = neighborhood_union(P, eps)
        assert relations._search(fixed, g, spec.min_block_length()) == (
            P, P_prime, d, eps, X, X.intersect(supp)), name
        seen["multi-block"] += spec.n > 1
        seen["a rational rate"] += any(a.is_rational and a for a in spec.rates)
        seen["fixing power above 1"] += L > 1
        seen["|P| = 1"] += len(P) == 1
        seen["d > 1"] += d > 1
        seen["d = 401"] += d == 401
    assert min(seen.values()) >= 1 and seen["fixing power above 1"] >= 10, seen


def test_the_searches_make_no_quadext_comparison(monkeypatch):
    cases = []
    for _, spec, g in _search_cases():
        fixed = spec.power_spec(spec.fixing_power())
        # min_block_length compares QuadExt values, so it runs before the guard
        cases.append((fixed, g, fixed.to_iet(), spec.min_block_length()))

    def forbidden(*args):
        raise AssertionError("a search compared QuadExt values")

    monkeypatch.setattr(QuadExt, "_cmp", forbidden)
    for fixed, g, r, min_block in cases:
        P = compute_P(fixed, g)
        supp = r.support()
        d = find_d(r, [p for p in P if supp.contains_point(p)])
        find_epsilon(r, P, d, min_block)
        relations._search(fixed, g, min_block)


@given(st.sets(st.integers(1, 63), min_size=1, max_size=6), st.integers(0, 2))
@example({63}, 0)  # the ball wraps past 1
@example({1, 40}, 1)  # below 0
@settings(max_examples=40, deadline=None)
def test_find_epsilon_matches_the_halving_loop_on_balls_that_wrap(ks, rate):
    # without 0 among the points, the last ball can reach past 1
    pts = [q(F(k, 64)) for k in ks]
    r = DisjointRotationSpec((q(F(1, 2)), q(F(1, 2))), (SQRT2M1, q(F(rate, 3)))).to_iet()
    supp = r.support()
    d = find_d(r, [p for p in pts if supp.contains_point(p)])
    assert find_epsilon(r, pts, d) == halving_find_epsilon(r, pts, d)


def test_find_epsilon_matches_the_halving_loop():
    cases = [(ONE_BLOCK, near_orbit_g(k, 16)) for k in (4, 12, 30)]
    rng = random.Random(2)
    while len(cases) < 63:
        spec = random_rotation_spec(rng)
        if spec.classify().kind != FINITE_ORDER:
            cases.append((spec, random_iet(rng, 8, 64)))
    halvings = []
    for spec, g in cases:
        L = spec.fixing_power()
        fixed = spec.power_spec(L)
        r = fixed.to_iet()
        supp = r.support()
        P = compute_P(fixed, g)
        d = find_d(r, [p for p in P if supp.contains_point(p)])
        for min_block in (None, spec.min_block_length()):
            want = halving_find_epsilon(r, P, d, min_block)
            assert find_epsilon(r, P, d, min_block) == want, (spec, g)
        halvings.append((min(b - a for a, b in zip(P, P[1:] + (P[0] + 1,))) / want).floor())
    # multi-block specs, and searches of a few halvings up to more than 60
    assert sum(spec.n > 1 for spec, _ in cases) >= 30
    assert min(halvings) <= 8 and max(halvings) >= 2**60


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


def brute_first_hit(a, n, lo, hi):
    # a * x mod n repeats with period at most n
    return next((x for x in range(n) if lo <= a * x % n <= hi), None)


def test_first_hit_matches_a_brute_force_search():
    rng = random.Random(4)
    cases = [(0, 7, 0, 3), (0, 7, 1, 3), (9, 7, 2, 2), (14, 7, 1, 6), (6, 8, 1, 1)]
    for _ in range(3000):
        n = rng.randrange(1, 70)
        lo = rng.randrange(n)
        cases.append((rng.randrange(3 * n), n, lo, rng.randrange(lo, n)))
    for a, n, lo, hi in cases:
        assert _first_hit(a, n, lo, hi) == brute_first_hit(a, n, lo, hi), (a, n, lo, hi)


def test_first_hit_descends_13000_bits_without_recursion():
    # an odd a is a unit mod 2^K, so x0 is the one x below 2^K that lands on a * x0
    n = 1 << 13000
    a = (SQRT2M1 * n).floor() | 1
    x0 = 3**8000
    target = a * x0 % n
    assert _first_hit(a, n, target, target) == x0
    x = _first_hit(a, n, n // 3, n // 3 + (n >> 12900))
    assert n // 3 <= a * x % n <= n // 3 + (n >> 12900)


def test_arc_hits_match_a_brute_force_scan():
    rng = random.Random(6)
    for _ in range(3000):
        n = rng.randrange(1, 70)
        a, p, w = rng.randrange(3 * n), rng.randrange(-n, 2 * n), rng.randrange(1, n + 1)
        limit = 3 * n + 3
        want = [m for m in range(1, limit) if 2 * w > n or (m * a - p) % n < w]
        hits = _arc_hits(a, n, p, w)
        got = [m for m in (next(hits, limit) for _ in want) if m < limit]
        assert got == want and next(hits, limit) >= limit, (a, n, p, w)


def test_a_flattening_exponent_past_ten_million_synthesizes():
    # 100 rational intervals over 4 * 100^2 drive epsilon to 1/4096000, and
    # the least M for sqrt(3) - 1 is then a convergent denominator past 10^7
    n = 100
    rng = random.Random(0)
    units = random_partition(rng, 4 * n * n, n)
    pi = list(range(1, n + 1))
    rng.shuffle(pi)
    g = Iet.from_perm_lambda(PermLambdaSpec(tuple(pi), tuple(q(F(u, 4 * n * n)) for u in units)))
    r = DisjointRotationSpec((q(1),), (QuadExt(-1, 1, 3),))
    cert = synthesize(r, g)
    assert (cert.epsilon, cert.M) == (q(F(1, 4096000)), 29354524)
    assert cert.verified and words.verify_word(cert.word, r, g)


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
    assert invariants_hold(ctx)


def test_T_trivial_branch():
    g = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(3, 2, 1),
        lengths=(q(F(1, 4)), q(F(1, 4)), q(F(1, 2)))))
    cert, ctx = synthesize_with_context(ONE_BLOCK, g)
    assert cert.branch in (BRANCH_T_TRIVIAL, BRANCH_T_SIXTH)
    assert cert.verified
    assert invariants_hold(ctx)
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
    # synthesis searches P on integer pairs through relations._points
    calls = {"_points": 0, "find_M": 0}

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
    assert calls == {"_points": 1, "find_M": 1}


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


# -- T_trivial decided by disjoint supports ---------------------------------------

README_PAIR = (ONE_BLOCK, Iet.from_perm_lambda(PermLambdaSpec(
    pi=(3, 2, 1), lengths=(q(F(1, 4)), q(F(1, 4)), q(F(1, 2))))))


def _built_k(r_fixed, h, word_h, d, fixing_power):
    """build_k as synthesis ran it: r^d by repeated squaring, and its word."""
    rd = r_fixed.power(d)
    wa = Word.generator("a", d * fixing_power)
    return rd.compose(h).compose(rd.inverse()), wa * word_h * wa.inverse()


def _built_T(h, k, word_h, word_k):
    """build_T as synthesis ran it."""
    t = k.compose(h.inverse()).compose(k.inverse()).compose(h)
    return t, word_k * word_h.inverse() * word_k.inverse() * word_h


def _shortcut_cases():
    """(name, r, g): the 22 suite pairs, the deep-m-like pairs and 200
    seeded random pairs drawn with the suite's recipe."""
    for pair in demo_suite():
        yield pair.name, pair.r, pair.g
    for name, _, spec, g in _deep_m_like_cases():
        yield name, spec, g
    rng = random.Random(20261023)
    for i in range(200):
        yield f"random {i}", random_rotation_spec(rng), random_iet(rng, 6, 8)


def test_a_T_that_synthesis_skips_is_the_identity_the_iet_algebra_builds():
    seen = Counter()
    for name, r, g in _shortcut_cases():
        try:
            cert, ctx = synthesize_with_context(r, g)
        except SearchCapError:
            seen["M past its cap"] += 1
            continue
        if ctx is None or ctx.h.is_identity():
            continue
        assert invariants_hold(ctx), name
        if ctx.T is not None:
            seen["T built"] += 1
            continue
        assert cert.branch == BRANCH_T_TRIVIAL and ctx.k is None, name
        r_fixed = ctx.r_spec.to_iet()
        h, word_h = build_h(r_fixed, ctx.g, ctx.M, ctx.fixing_power)
        assert h == ctx.h, name
        k, word_k = _built_k(r_fixed, h, word_h, ctx.d, ctx.fixing_power)
        T, word_T = _built_T(h, k, word_h, word_k)
        assert T.is_identity(), name
        assert word_T == cert.word, name
        seen["T skipped"] += 1
    assert seen["T skipped"] >= 60 and seen["T built"] >= 40, seen


def test_T_is_built_on_every_T_sixth_golden():
    built = 0
    for pair in demo_suite():
        cert, ctx = synthesize_with_context(pair.r, pair.g)
        if cert.branch == BRANCH_T_SIXTH:
            assert ctx.T is not None and ctx.k is not None, pair.name
            assert not ctx.T.is_identity(), pair.name
            built += 1
    assert built == 8


def test_the_readme_and_deep_m_like_pairs_synthesize_without_k_or_T(monkeypatch):
    cases = [("README", *README_PAIR)]
    cases += [(name, spec, g) for name, _, spec, g in _deep_m_like_cases()]

    def forbidden(*args, **kwargs):
        raise AssertionError("k or T was built")

    monkeypatch.setattr(relations, "build_k", forbidden)
    monkeypatch.setattr(relations, "build_T", forbidden)
    branches = Counter()
    for name, r, g in cases:
        cert = synthesize(r, g)
        assert cert.verified, name
        branches[cert.branch] += 1
    assert branches[BRANCH_T_TRIVIAL] >= 30, branches
    assert set(branches) <= {BRANCH_H_TRIVIAL, BRANCH_T_TRIVIAL}, branches


def test_invariants_hold_rederives_the_disjoint_support_premise():
    cert, ctx = synthesize_with_context(*README_PAIR)
    assert cert.branch == BRANCH_T_TRIVIAL and ctx.T is None
    assert invariants_hold(ctx)
    # X and X' are re-derived, not taken from the search: an empty X' is
    # moved off itself by any map
    assert not invariants_hold(ctx._replace(X_prime=IntervalSet()))
    assert not invariants_hold(ctx._replace(X=IntervalSet.full()))
    # an h that moves half of [0, 1) onto the other half: its support meets
    # its image under r^d
    assert not invariants_hold(ctx._replace(h=Iet.rotation(q(F(1, 2)))))
    # a T_sixth context with k and T dropped: h moves points that r^L fixes
    pair = next(p for p in demo_suite() if p.name == "d2-two-blocks-fixed")
    cert, ctx = synthesize_with_context(pair.r, pair.g)
    assert cert.branch == BRANCH_T_SIXTH and invariants_hold(ctx)
    assert not invariants_hold(ctx._replace(k=None, T=None))


def test_invariants_hold_checks_that_d_epsilon_and_m_are_the_ones_promised():
    # one block at rate sqrt(2) - 1 against the rotation by 4/5: P = {0, 1/5}
    # has eps0 = 1/10, and 10 eps < 1 takes one halving more
    cert, ctx = synthesize_with_context(ONE_BLOCK, Iet.rotation(q(F(4, 5))))
    assert ctx.P == (q(0), q(F(1, 5)))
    assert (ctx.d, ctx.epsilon, ctx.M) == (1, q(F(1, 20)), 169)
    assert invariants_hold(ctx)
    # a context with every set re-derived at eps0 and its own least M still
    # breaks 10 eps < 1
    eps = q(F(1, 10))
    X = neighborhood_union(ctx.P, eps)
    M = find_M(ctx.r_spec, eps)
    assert M == 70
    supp = ctx.r_spec.to_iet().support()
    wide = ctx._replace(epsilon=eps, M=M, X=X, X_prime=X.intersect(supp))
    assert not invariants_hold(wide)
    # a d past the least one
    assert not invariants_hold(ctx._replace(d=2))
    # an M past the least one: rate * 169 is within 1/160 of 0 and rate * 168
    # is not, but M = 70 came first
    cert, ctx = synthesize_with_context(ONE_BLOCK, Iet.identity())
    assert (ctx.epsilon, ctx.M) == (q(F(1, 16)), 70) and invariants_hold(ctx)
    assert not invariants_hold(ctx._replace(M=169))
    # an h built at another M, on a context whose k and T were built
    pair = next(p for p in demo_suite() if p.name == "d2-two-blocks-fixed")
    cert, ctx = synthesize_with_context(pair.r, pair.g)
    assert cert.branch == BRANCH_T_SIXTH and invariants_hold(ctx)
    h = build_h(ctx.r_spec, ctx.g, ctx.M + 1)[0]
    assert not invariants_hold(ctx._replace(h=h))
