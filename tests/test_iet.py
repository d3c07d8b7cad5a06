"""Interval exchange maps: canonical form, group operations, geometry."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietrel.errors import InvariantError, PreconditionError
from ietrel.iet import Iet, PermLambdaSpec
from ietrel.intervals import IntervalSet
from ietrel.scalars import QuadExt

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
