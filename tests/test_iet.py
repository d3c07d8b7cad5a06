"""Interval exchange maps: canonical form, group operations, geometry."""

from __future__ import annotations

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietrel.documents import parse_document
from ietrel.errors import ContextMismatchError, InvariantError, PreconditionError
from ietrel.finite_model import CommutatorInstance
from ietrel.iet import Iet, PermLambdaSpec
from ietrel.intervals import IntervalSet
from ietrel.rotation import DisjointRotationSpec
from ietrel.sampling import random_iet, random_partition
from ietrel.scalars import ZERO, QuadExt
from ietrel.words import Word

from conftest import (
    assert_tiles_unit_interval,
    grid_points,
    interval_sets,
    q,
    seeded_iets,
)
from oracles import validate

F = Fraction


# -- construction and canonical form ------------------------------------------


def test_two_interval_exchange():
    spec = PermLambdaSpec(pi=(2, 1), lengths=(q(F(1, 4)), q(F(3, 4))))
    f = Iet.from_perm_lambda(spec)
    assert f.breakpoints == (q(0), q(F(1, 4)))
    assert f.translations == (q(F(3, 4)), q(-F(1, 4)))
    assert f.apply(q(0)) == q(F(3, 4))
    assert f.apply(q(F(1, 4))) == q(0)
    assert f.apply(q(F(1, 2))) == q(F(1, 4))


def test_identity_and_rotation():
    assert Iet.identity().is_identity()
    assert Iet.rotation(q(0)).is_identity()
    assert Iet.rotation(q(1)).is_identity()
    r = Iet.rotation(q(F(1, 4)))
    assert r.breakpoints == (q(0), q(F(3, 4)))
    assert r.translations == (q(F(1, 4)), q(-F(3, 4)))
    assert r.apply(q(F(7, 8))) == q(F(1, 8))


def test_adjacent_equal_translations_merge():
    f = Iet([q(0), q(F(1, 3)), q(F(2, 3))],
            [q(F(1, 3)), q(F(1, 3)), q(-F(2, 3))])
    assert f.num_intervals == 2
    assert f == Iet.rotation(q(F(1, 3)))


def test_rejected_constructions():
    with pytest.raises(PreconditionError):
        Iet([q(F(1, 4))], [q(0)])  # first breakpoint not 0
    with pytest.raises(PreconditionError):
        Iet([q(0), q(F(1, 2)), q(F(1, 4))], [q(0), q(0), q(0)])
    with pytest.raises(PreconditionError):
        Iet([q(0), q(1)], [q(0), q(0)])  # breakpoint at 1
    with pytest.raises(PreconditionError):
        Iet([q(0)], [q(F(1, 2)), q(0)])  # length mismatch
    with pytest.raises(PreconditionError):
        Iet([q(0)], [q(F(1, 2))])  # image leaves [0, 1)
    with pytest.raises(PreconditionError):
        Iet.from_perm_lambda(PermLambdaSpec(pi=(1, 1), lengths=(q(F(1, 2)),) * 2))
    with pytest.raises(PreconditionError):
        Iet.from_perm_lambda(PermLambdaSpec(pi=(1, 2), lengths=(q(F(1, 2)),) * 3))
    with pytest.raises(PreconditionError):
        Iet.from_perm_lambda(PermLambdaSpec(pi=(1,), lengths=(q(F(1, 2)),)))



def test_perm_lambda_spec_refuses_entries_of_pi_that_are_not_integers():
    halves = (q(F(1, 2)),) * 2
    for pi, got in (((2.9, 1.2), "2.9"), (("2", "1"), "'2'"), ((2, True), "True")):
        with pytest.raises(PreconditionError, match=f"pi entries must be integers, got {got}"):
            PermLambdaSpec(pi, halves)
    # the value is quoted through errors.shown, so a long one is cut short
    with pytest.raises(PreconditionError, match=r"got '11111.*\.\.\. \(length 100\)"):
        PermLambdaSpec(("1" * 100, 2), halves)
    assert PermLambdaSpec([2, 1], halves).pi == (2, 1)

def test_apply_rejects_points_outside_domain():
    r = Iet.rotation(q(F(1, 4)))
    with pytest.raises(PreconditionError):
        r.apply(q(1))
    with pytest.raises(PreconditionError):
        r.apply(q(-F(1, 8)))


# -- basic queries -------------------------------------------------------------


def test_discontinuities_exclude_zero():
    assert Iet.identity().discontinuities() == ()
    assert Iet.rotation(q(F(1, 4))).discontinuities() == (q(F(3, 4)),)
    f = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(3, 2, 1),
        lengths=(q(F(1, 4)), q(F(1, 4)), q(F(1, 2)))))
    assert f.discontinuities() == (q(F(1, 4)), q(F(1, 2)))


def test_support():
    assert Iet.identity().support() == IntervalSet([])
    assert Iet.rotation(q(F(1, 4))).support() == IntervalSet.full()
    # swap the two halves of [0, 1/2), fix [1/2, 1)
    f = Iet([q(0), q(F(1, 4)), q(F(1, 2))], [q(F(1, 4)), q(-F(1, 4)), q(0)])
    assert f.support() == IntervalSet([(q(0), q(F(1, 2)))])


def test_l1_distance_anchors():
    assert not Iet.identity().l1_distance_to_identity()
    assert Iet.rotation(q(F(1, 4))).l1_distance_to_identity() == q(F(3, 8))
    assert Iet.rotation(q(F(1, 2))).l1_distance_to_identity() == q(F(1, 2))


# -- group structure -----------------------------------------------------------


def test_compose_rotations():
    r = Iet.rotation(q(F(1, 4)))
    assert r.compose(r) == Iet.rotation(q(F(1, 2)))
    assert r.compose(r.inverse()).is_identity()


def test_compose_order_of_application():
    r = Iet.rotation(q(F(1, 4)))
    g = Iet.from_perm_lambda(PermLambdaSpec(
        pi=(3, 2, 1),
        lengths=(q(F(1, 4)), q(F(1, 4)), q(F(1, 2)))))
    x = q(F(1, 8))
    assert r.compose(g).apply(x) == r.apply(g.apply(x))
    assert r.compose(g) != g.compose(r)


def test_inverse_anchors():
    r = Iet.rotation(q(F(1, 4)))
    assert r.inverse() == Iet.rotation(q(F(3, 4)))
    assert r.inverse().inverse() == r
    assert Iet.identity().inverse().is_identity()


def test_inverse_rejects_non_bijection():
    # two source intervals land on [1/2, 3/4): no such map can be built
    with pytest.raises(PreconditionError, match="do not tile"):
        Iet([q(0), q(F(1, 4)), q(F(1, 2))],
            [q(F(1, 2)), q(F(1, 4)), q(-F(1, 2))])


def test_group_operations_do_not_rerun_the_constructor(monkeypatch):
    def maps():
        return Iet.rotation(q(F(1, 8))), Iet.from_perm_lambda(PermLambdaSpec(
            pi=(3, 1, 2), lengths=(q(F(1, 4)), q(F(1, 3)), q(F(5, 12)))))

    r, f = maps()
    r_ref, f_ref = maps()
    want = [f_ref.compose(r_ref), f_ref.inverse(), f_ref.power(5), f_ref.power(-5)]

    def forbidden(self, *args):
        raise AssertionError("Iet.__init__ ran")

    monkeypatch.setattr(Iet, "__init__", forbidden)
    got = [f.compose(r), f.inverse(), f.power(5), f.power(-5)]
    monkeypatch.undo()
    assert got == want
    for g in got:
        validate(g)


def test_validate_rechecks_what_the_algebra_stores():
    from ietrel.iet import _store

    def stored(den, disc, bps, trs):
        f = object.__new__(Iet)
        for name, value in zip(("_den", "_disc", "_bps", "_trs"), (den, disc, bps, trs)):
            object.__setattr__(f, name, value)
        return f

    # pieces over the denominator 4: [0, 1/4) + 1/2, [1/4, 1/2) + 1/4, [1/2, 1) - 1/2
    overlapping = _store(object.__new__(Iet), 4, 0, [(0, 0), (1, 0), (2, 0)],
                         [(2, 0), (1, 0), (-2, 0)])
    with pytest.raises(InvariantError, match="do not tile"):
        validate(overlapping)
    # the rotation by 1/4, stored with its first piece split in two
    unmerged = stored(4, 0, ((0, 0), (1, 0), (3, 0)), ((1, 0), (1, 0), (-3, 0)))
    with pytest.raises(InvariantError, match="equal neighbours"):
        validate(unmerged)
    # the same rotation over the denominator 8, which gcd(8, 6, 2, -6) reduces
    unreduced = stored(8, 0, ((0, 0), (6, 0)), ((2, 0), (-6, 0)))
    assert unreduced.breakpoints == Iet.rotation(q(F(1, 4))).breakpoints
    with pytest.raises(InvariantError, match="reducible denominator"):
        validate(unreduced)


def test_power_anchors():
    r = Iet.rotation(q(F(1, 8)))
    assert r.power(4) == Iet.rotation(q(F(1, 2)))
    assert r.power(8).is_identity()
    assert r.power(0).is_identity()
    assert r.power(-2) == r.inverse().compose(r.inverse())
    assert r.power(11) == Iet.rotation(q(F(3, 8)))


def test_conjugate():
    r = Iet.rotation(q(F(1, 4)))
    c = Iet.rotation(q(F(1, 3)))
    assert r.conjugate(Iet.identity()) == r
    assert r.conjugate(c) == r  # rotations commute
    g = Iet([q(0), q(F(1, 4)), q(F(1, 2))], [q(F(1, 4)), q(-F(1, 4)), q(0)])
    assert g.conjugate(c) == c.compose(g).compose(c.inverse())


def test_orbit():
    r = Iet.rotation(q(F(1, 3)))
    assert r.orbit(q(0), 4) == [q(0), q(F(1, 3)), q(F(2, 3)), q(0)]
    assert r.orbit(q(0), 1) == [q(0)]
    with pytest.raises(PreconditionError):
        r.orbit(q(0), 0)
    # a one-point orbit checks its point as apply does
    with pytest.raises(PreconditionError, match=r"point 3/2 outside \[0, 1\)"):
        Iet.identity().orbit(q(F(3, 2)), 1)


def test_irrational_rotation_orbit_has_no_repeats():
    r = Iet.rotation(QuadExt(-1, 1, 2))  # sqrt(2) - 1
    pts = r.orbit(q(0), 100)
    assert len(set(pts)) == 100


def test_image_of():
    r = Iet.rotation(q(F(1, 2)))
    assert r.image_of(IntervalSet([(q(0), q(F(1, 4)))])) == \
        IntervalSet([(q(F(1, 2)), q(F(3, 4)))])
    # wrap-around splits the image in two
    r4 = Iet.rotation(q(F(1, 4)))
    assert r4.image_of(IntervalSet([(q(F(1, 2)), q(1))])) == \
        IntervalSet([(q(0), q(F(1, 4))), (q(F(3, 4)), q(1))])
    assert r4.image_of(IntervalSet.full()) == IntervalSet.full()


def test_equality_and_hash():
    r = Iet.rotation(q(F(1, 4)))
    s = Iet([q(0), q(F(3, 4))], [q(F(1, 4)), q(-F(3, 4))])
    assert r == s
    assert hash(r) == hash(s)
    assert r != Iet.rotation(q(F(1, 2)))
    assert len({r, s, Iet.identity()}) == 2


def test_iets_and_interval_sets_are_immutable_and_never_equal():
    f = Iet.rotation(q(F(1, 4)))
    s = IntervalSet([(q(0), q(F(3, 4)))])
    for obj in (f, s):
        for name in ("_den", "_disc", "_bps", "_trs", "_ends", "breakpoints", "spans", "extra"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(obj, name, 1)
    assert f == Iet.rotation(q(F(1, 4))) and s == IntervalSet([(q(0), q(F(3, 4)))])
    assert f != s and s != f and not f == s
    assert Iet.identity() != IntervalSet.full() and len({f, s}) == 2


def test_validate_returns_self():
    r = Iet.rotation(q(F(1, 4)))
    assert validate(r) is r


# -- properties ----------------------------------------------------------------


@given(seeded_iets(), seeded_iets(), seeded_iets())
@settings(max_examples=40, deadline=None)
def test_compose_is_associative(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@given(seeded_iets(), seeded_iets())
@settings(max_examples=40, deadline=None)
def test_inverse_of_compose(f, g):
    assert f.compose(g).inverse() == g.inverse().compose(f.inverse())


@given(seeded_iets(), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=30, deadline=None)
def test_power_is_additive(f, a, b):
    assert f.power(a).compose(f.power(b)) == f.power(a + b)


@given(seeded_iets(), seeded_iets())
@settings(max_examples=40, deadline=None)
def test_discontinuity_count_is_subadditive(f, g):
    bound = len(f.discontinuities()) + len(g.discontinuities())
    assert len(f.compose(g).discontinuities()) <= bound


@given(seeded_iets(), interval_sets())
@settings(max_examples=40, deadline=None)
def test_image_preserves_measure(f, s):
    assert f.image_of(s).measure() == s.measure()


@given(seeded_iets(), seeded_iets())
@settings(max_examples=30, deadline=None)
def test_support_moves_with_conjugation(f, c):
    assert f.conjugate(c).support() == c.image_of(f.support())


@given(seeded_iets(), grid_points())
@settings(max_examples=50, deadline=None)
def test_apply_stays_in_domain_and_inverts(f, x):
    y = f.apply(x)
    assert q(0) <= y < q(1)
    assert f.inverse().apply(y) == x


@given(seeded_iets())
@settings(max_examples=50, deadline=None)
def test_images_tile_the_unit_interval(f):
    assert_tiles_unit_interval(f)
    validate(f)


# -- compose against the cut-and-apply oracle --------------------------------------


def compose_by_cuts(f, g):
    """f after g, the slow way: cut at g's breakpoints and at the preimages of
    f's breakpoints, then locate every cut through apply."""
    inv = g.inverse()
    cuts = sorted(set(g.breakpoints) | {inv.apply(b) for b in f.breakpoints})
    return Iet(cuts, [f.apply(g.apply(c)) - c for c in cuts])


def quadratic_perm_lambda(rng, n, disc):
    """An exchange of n intervals with lengths in Q(sqrt(disc)) summing to 1."""
    while True:
        rats = random_partition(rng, 4 * n, n)
        coefs = [rng.randrange(-3, 4) for _ in range(n - 1)]
        coefs.append(-sum(coefs))
        lengths = [QuadExt(F(a, 4 * n), F(b, 16 * n), disc) for a, b in zip(rats, coefs)]
        if all(v.sign() > 0 for v in lengths):
            pi = list(range(1, n + 1))
            rng.shuffle(pi)
            return Iet.from_perm_lambda(PermLambdaSpec(tuple(pi), tuple(lengths)))


def test_random_partition_refuses_more_parts_than_units():
    with pytest.raises(ValueError, match="cannot split 3 units into 4 positive parts"):
        random_partition(random.Random(0), 3, 4)


def quadratic_rotation(rng, disc):
    return Iet.rotation(QuadExt(F(rng.randrange(1, 16), 16), F(rng.randrange(-8, 9), 16), disc))


def big_iet(rng):
    """A rational exchange of 100 to 120 intervals."""
    n = rng.randrange(100, 121)
    lengths = [q(F(u, 4 * n)) for u in random_partition(rng, 4 * n, n)]
    pi = list(range(1, n + 1))
    rng.shuffle(pi)
    return Iet.from_perm_lambda(PermLambdaSpec(tuple(pi), tuple(lengths)))


def compose_pairs(count=200):
    """Seeded (f, g) pairs of every shape the walk must handle."""
    rng = random.Random(20100719)
    bigs = [big_iet(rng) for _ in range(4)]
    pairs = []
    for i in range(count):
        kind = i % 5
        disc = rng.choice((2, 3, 5))
        if kind == 0:
            f, g = random_iet(rng, 8, 24), random_iet(rng, 8, 24)
        elif kind == 1:
            f = quadratic_perm_lambda(rng, rng.randrange(2, 7), disc)
            g = quadratic_perm_lambda(rng, rng.randrange(2, 7), disc)
        elif kind == 2:
            f = quadratic_rotation(rng, disc)
            g = rng.choice((quadratic_rotation(rng, disc), Iet.identity(),
                            quadratic_perm_lambda(rng, 4, disc)))
            if rng.random() < 0.5:
                f, g = g, f
        elif kind == 3:
            f = rng.choice((random_iet(rng), quadratic_perm_lambda(rng, 5, disc)))
            f, g = (f, f.inverse()) if rng.random() < 0.5 else (f.inverse(), f)
        else:
            big = bigs[i // 5 % len(bigs)]
            one = rng.choice((Iet.identity(), random_iet(rng, 3, 4)))
            f, g = (one, big) if rng.random() < 0.5 else (big, one)
            if rng.random() < 0.3:
                f, g = big, bigs[(i + 1) % len(bigs)]
        pairs.append((f, g))
    return pairs


def grid_pairs(count=120):
    """Seeded (f, g) pairs with every breakpoint on one grid of 1/24, so that
    images of g's pieces often end exactly on a breakpoint of f, after one or
    after many of f's pieces."""
    rng = random.Random(24)
    return [
        (random_iet(rng, rng.choice((3, 12, 24)), 24), random_iet(rng, rng.choice((2, 4, 8)), 24))
        for _ in range(count)
    ]


PAIRS = compose_pairs()
GRID_PAIRS = grid_pairs()


def test_compose_pairs_cover_every_shape():
    sizes = [(f.num_intervals, g.num_intervals) for f, g in PAIRS]
    assert len(PAIRS) == 200
    assert any(a == 1 and b >= 100 for a, b in sizes)
    assert any(a >= 100 and b == 1 for a, b in sizes)
    assert any(not f.is_identity() and g == f.inverse() for f, g in PAIRS)
    assert any(any(not b.is_rational for b in f.breakpoints) for f, _ in PAIRS)
    # images of g that end on a breakpoint of f, by how many of f's
    # breakpoints lie inside them
    crossed = Counter()
    for f, g in GRID_PAIRS:
        for lo, hi, t in g.pieces():
            if hi + t in f.discontinuities():
                crossed[sum(lo + t < b < hi + t for b in f.breakpoints)] += 1
    assert crossed[0] >= 10
    assert sum(n for k, n in crossed.items() if k >= 3) >= 20


def test_compose_matches_the_cut_and_apply_oracle():
    for f, g in PAIRS + GRID_PAIRS:
        h = f.compose(g)
        assert h == compose_by_cuts(f, g)
        validate(h)
        for x in h.breakpoints:
            assert h.apply(x) == f.apply(g.apply(x))


def test_compose_uses_no_apply_inverse_or_images(monkeypatch):
    pairs = PAIRS[:40]
    want = [compose_by_cuts(f, g) for f, g in pairs]

    def forbidden(*args):
        raise AssertionError("compose called a point or inverse method")

    # the point methods, and every method that inverts or takes powers
    for name in ("apply", "orbit", "image_of", "inverse", "power", "conjugate"):
        monkeypatch.setattr(Iet, name, forbidden)
    got = [f.compose(g) for f, g in pairs]
    monkeypatch.undo()
    assert got == want


# -- L1 distance ---------------------------------------------------------------------


def l1_by_every_piece(f):
    total = ZERO
    for lo, hi, t in f.pieces():
        total = total + abs(t) * (hi - lo)
    return total


# a generic 4-interval exchange: f^64 has 3*64 + 1 pieces, as in disc-growth
GENERIC_4 = Iet.from_perm_lambda(PermLambdaSpec(pi=(4, 3, 2, 1), lengths=(
    QuadExt(0, F(1, 8), 2), q(F(1, 4)), q(F(1, 4)), QuadExt(F(1, 2), -F(1, 8), 2))))


def test_l1_distance_equals_the_sum_over_every_piece():
    rng = random.Random(7)
    maps = [Iet.identity(), GENERIC_4.power(64)]
    maps += [quadratic_rotation(rng, d) for d in (2, 3, 5)]
    maps += [f for pair in PAIRS[:60] for f in pair]
    assert maps[1].num_intervals == 193
    for f in maps:
        assert f.l1_distance_to_identity() == l1_by_every_piece(f)
    assert Iet.identity().l1_distance_to_identity() == ZERO


def big_coefficient_map(rng, disc, n):
    """The reversal of n intervals whose lengths have integers past 10**40, each
    length (a + b sqrt(disc)) / den with b of either sign."""
    den = rng.randrange(10**45, 10**46)
    while True:
        most = den // (4 * n) if disc else 1  # the root coefficients lie in (-most, most)
        coefs = [rng.randrange(-most, most) if disc else 0 for _ in range(n - 1)]
        coefs.append(-sum(coefs))
        rats = [den * u // (2 * n * n) + rng.randrange(10**20)
                for u in random_partition(rng, 2 * n * n, n)]
        rats[-1] += den - sum(rats)
        lengths = [QuadExt(F(a, den), F(b, den), disc) for a, b in zip(rats, coefs)]
        if all(v.sign() > 0 for v in lengths):
            pi = tuple(range(n, 0, -1))  # the reversal moves every interval
            return Iet.from_perm_lambda(PermLambdaSpec(pi, tuple(lengths)))


def test_l1_distance_equals_the_sum_over_every_piece_on_large_coefficients():
    rng = random.Random(24)
    for disc in (0, 2, 3, 5):
        for _ in range(6):
            f = big_coefficient_map(rng, disc, rng.randrange(2, 7))
            for g in (f, f.power(7), f.compose(quadratic_rotation(rng, disc or 2)).power(-3)):
                assert max(abs(a) for pair in g._bps for a in pair) > 10**40
                assert g.l1_distance_to_identity() == l1_by_every_piece(g)


# -- growth against the compose chain ---------------------------------------------


def growth_by_compose(f, max_n):
    """The rows of f.growth(max_n) by the Iet algebra: f^n = f^(n-1) after f,
    each power built with compose and measured with l1_distance_to_identity."""
    cur = Iet.identity()
    rows = []
    for n in range(1, max_n + 1):
        cur = cur.compose(f)
        rows.append((n, cur.num_intervals - 1, cur.l1_distance_to_identity()))
    return rows


SEVERAL_BLOCKS = """ietrel v1
D = 3
kind = rotation
lengths = 1/6, 1/3, 1/4, 1/4
rates = 1/2*sqrt(3), 0, 2/3, -1+1*sqrt(3)
"""


def test_growth_matches_the_compose_chain_row_by_row():
    rng = random.Random(41)
    maps = [
        Iet.identity(),
        Iet.rotation(q(F(1, 4))),  # f^4 = id: images end exactly on breakpoints
        parse_document(SEVERAL_BLOCKS).payload.to_iet(),
        GENERIC_4,
        big_coefficient_map(rng, 5, 4),
    ]
    maps += [random_iet(rng, rng.randrange(2, 7), rng.choice((8, 12, 24))) for _ in range(8)]
    for f in maps:
        assert list(f.growth(70)) == growth_by_compose(f, 70)
        assert list(f.growth(1)) == growth_by_compose(f, 1)
    assert {(k, d) for _, k, d in Iet.identity().growth(64)} == {(0, ZERO)}
    assert [k for _, k, _ in Iet.rotation(q(F(1, 4))).growth(8)] == [1, 1, 1, 0] * 2
    assert [k for _, k, _ in GENERIC_4.growth(64)] == [3 * n for n in range(1, 65)]


# -- the integer kernel against QuadExt --------------------------------------------
#
# Iet stores integer pairs over one shared denominator.  The references below
# read only the QuadExt values that pieces() and breakpoints hand out, and do
# everything else with QuadExt.


def ref_apply(f, x):
    for lo, hi, t in f.pieces():
        if lo <= x < hi:
            return x + t
    raise AssertionError(f"{x} outside [0, 1)")


def ref_compose(f, g):
    """f after g: cut each piece of g where its image crosses a breakpoint of f."""
    bps, trs = [], []
    for lo, hi, t in g.pieces():
        cuts = [lo] + [b - t for b in f.breakpoints if lo + t < b < hi + t]
        for c in cuts:
            bps.append(c)
            trs.append(t + ref_apply(f, c + t) - (c + t))
    return Iet(bps, trs)


def ref_inverse(f):
    images = sorted((lo + t, t) for lo, _, t in f.pieces())
    return Iet([lo for lo, _ in images], [-t for _, t in images])


def ref_image_of(f, s):
    out = []
    for lo, hi in s:
        for plo, phi, t in f.pieces():
            a, b = max(lo, plo), min(hi, phi)
            if a < b:
                out.append((a + t, b + t))
    return IntervalSet(out)


def ref_support(f):
    return IntervalSet((lo, hi) for lo, hi, t in f.pieces() if t)


def test_group_operations_store_the_canonical_form():
    # a rational g over 8 against a quadratic rotation over 24
    g = Iet.from_perm_lambda(PermLambdaSpec(pi=(3, 1, 2), lengths=(
        q(F(1, 8)), q(F(3, 8)), q(F(1, 2)))))
    r = Iet.rotation(QuadExt(F(5, 24), F(1, 24), 2))
    built = [r.compose(g), g.compose(r), g.compose(r).inverse(), r.inverse().compose(g.inverse())]
    built += [f.compose(h) for f, h in PAIRS[:60]] + [f.inverse() for f, _ in PAIRS[:60]]
    for h in built:
        rebuilt = Iet(h.breakpoints, h.translations)
        assert h == rebuilt and hash(h) == hash(rebuilt)
    assert built[0] == ref_compose(r, g) and built[1] == ref_compose(g, r)
    assert built[2] == ref_inverse(built[1])
    # a quadratic map against its inverse: the identity, with every root term gone
    f = quadratic_perm_lambda(random.Random(3), 5, 2)
    assert not all(t.is_rational for t in f.translations)
    for one in (f.compose(f.inverse()), f.inverse().compose(f), f.power(4).compose(f.power(-4))):
        assert one == Iet.identity() and hash(one) == hash(Iet.identity())
        assert one.is_identity() and all(t.is_rational for t in one.translations)


def test_point_and_set_methods_match_the_quadext_reference():
    rng = random.Random(11)
    for f, g in PAIRS[::3]:
        disc = next((t.disc for t in f.translations + g.translations if t.disc), 0)
        points = [q(F(k, 16)) for k in range(16)] + list(g.breakpoints)
        if disc:
            points += [QuadExt(F(k, 16), F(1, 64), disc) for k in range(1, 15)]
        for x in points:
            assert f.apply(x) == ref_apply(f, x)
        sets = [g.support(), IntervalSet([(q(F(1, 3)), q(F(5, 7)))]),
                IntervalSet([(lo, hi) for lo, hi, _ in g.pieces() if rng.random() < 0.5])]
        for s in sets:
            assert f.image_of(s) == ref_image_of(f, s)
        assert f.support() == ref_support(f)
        assert f.inverse() == ref_inverse(f)


def test_maps_from_two_quadratic_fields_do_not_compose():
    r2 = Iet.rotation(QuadExt(-1, 1, 2))
    r3 = Iet.rotation(QuadExt(-1, 1, 3))
    with pytest.raises(ContextMismatchError):
        r2.compose(r3)
    with pytest.raises(ContextMismatchError):
        r3.compose(r2)
    with pytest.raises(ContextMismatchError):
        r2.apply(QuadExt(0, F(1, 4), 3))
    with pytest.raises(ContextMismatchError):
        r2.image_of(IntervalSet([(q(0), QuadExt(0, F(1, 4), 3))]))
    # a rational map composes with either
    g = Iet.rotation(q(F(1, 3)))
    assert r2.compose(g).compose(g.inverse()) == r2


_ROOT = QuadExt(0, F(1, 2), 2)  # sqrt(2) / 2


@pytest.mark.parametrize("value", [
    QuadExt(F(1, 3), F(2, 7), 5),
    Iet.from_perm_lambda(PermLambdaSpec((3, 1, 2), (_ROOT / 2, F(1, 4), F(3, 4) - _ROOT / 2))),
    IntervalSet([(F(1, 8), _ROOT), (F(3, 4), F(7, 8))]),
    DisjointRotationSpec((_ROOT, 1 - _ROOT), (_ROOT - F(1, 2), F(1, 3))),
    Word.parse("b^-1 a^3 b a^-3"),
    PermLambdaSpec((3, 1, 2), (_ROOT / 2, F(1, 4), F(3, 4) - _ROOT / 2)),
    CommutatorInstance((1, 2, 0, 3), (0, 3, 2, 1)),
], ids=["QuadExt", "Iet", "IntervalSet", "DisjointRotationSpec", "Word", "PermLambdaSpec",
        "CommutatorInstance"])
def test_pickle_and_copy_rebuild_an_equal_immutable_value(value):
    slots = [name for cls in type(value).__mro__ for name in vars(cls).get("__slots__", ())]
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError, match="is immutable"):
            twin.den = 1
        with pytest.raises(AttributeError, match="is immutable"):
            twin._den = 1
        # a delete is refused too, and leaves the value whole
        for name in slots:
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(twin, name)
        assert twin == value and repr(twin) == repr(value)
