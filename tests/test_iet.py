"""Interval exchange maps: canonical form, group operations, geometry."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietrel.errors import InvariantError, PreconditionError
from ietrel.iet import Iet, PermLambdaSpec
from ietrel.intervals import IntervalSet
from ietrel.sampling import random_iet, random_partition
from ietrel.scalars import ZERO, QuadExt

from conftest import (
    assert_tiles_unit_interval,
    grid_points,
    interval_sets,
    q,
    seeded_iets,
)

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
    assert r.inverse().inverse() is r  # cached both ways
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
        g.validate()


def test_validate_rechecks_what_the_algebra_stores():
    from ietrel.iet import _store

    overlapping = _store(object.__new__(Iet), [q(0), q(F(1, 4)), q(F(1, 2))],
                         [q(F(1, 2)), q(F(1, 4)), q(-F(1, 2))])
    with pytest.raises(InvariantError, match="do not tile"):
        overlapping.validate()
    unmerged = object.__new__(Iet)
    object.__setattr__(unmerged, "breakpoints", (q(0), q(F(1, 4)), q(F(3, 4))))
    object.__setattr__(unmerged, "translations", (q(F(1, 4)), q(F(1, 4)), q(-F(3, 4))))
    object.__setattr__(unmerged, "_inv", None)
    with pytest.raises(InvariantError, match="equal neighbours"):
        unmerged.validate()


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


def test_validate_returns_self():
    r = Iet.rotation(q(F(1, 4)))
    assert r.validate() is r


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
    f.validate()


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


PAIRS = compose_pairs()


def test_compose_pairs_cover_every_shape():
    sizes = [(f.num_intervals, g.num_intervals) for f, g in PAIRS]
    assert len(PAIRS) == 200
    assert any(a == 1 and b >= 100 for a, b in sizes)
    assert any(a >= 100 and b == 1 for a, b in sizes)
    assert any(not f.is_identity() and g == f.inverse() for f, g in PAIRS)
    assert any(any(not b.is_rational for b in f.breakpoints) for f, _ in PAIRS)


def test_compose_matches_the_cut_and_apply_oracle():
    for f, g in PAIRS:
        h = f.compose(g)
        assert h == compose_by_cuts(f, g)
        h.validate()
        for x in h.breakpoints:
            assert h.apply(x) == f.apply(g.apply(x))


def test_compose_uses_no_apply_inverse_or_images(monkeypatch):
    pairs = PAIRS[:40]
    want = [compose_by_cuts(f, g) for f, g in pairs]

    def forbidden(self, *args):
        raise AssertionError("compose called a point or inverse method")

    for name in ("apply", "inverse", "_images"):
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


def test_l1_distance_equals_the_sum_over_every_piece():
    rng = random.Random(7)
    # a generic 4-interval exchange: f^64 has 3*64 + 1 pieces, as in disc-growth
    growth = Iet.from_perm_lambda(PermLambdaSpec(pi=(4, 3, 2, 1), lengths=(
        QuadExt(0, F(1, 8), 2), q(F(1, 4)), q(F(1, 4)), QuadExt(F(1, 2), -F(1, 8), 2))))
    maps = [Iet.identity(), growth.power(64)]
    maps += [quadratic_rotation(rng, d) for d in (2, 3, 5)]
    maps += [f for pair in PAIRS[:60] for f in pair]
    assert maps[1].num_intervals == 193
    for f in maps:
        assert f.l1_distance_to_identity() == l1_by_every_piece(f)
    assert Iet.identity().l1_distance_to_identity() == ZERO
