"""Commutator structure of permutation pairs with displaced overlap."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietrel import finite_model, scalars
from ietrel.errors import InvariantError, PreconditionError
from ietrel.finite_model import (
    CASE_LABELS,
    CommutatorInstance,
    check_hypotheses,
    classify_point,
    compose_maps,
    compute_T,
    enumerate_instances,
    identity_map,
    invert_map,
    orbit_sizes,
    random_instance,
    support_of,
)

FIXED_CASES = {"outside", "I", "III", "Vb"}
MOVES = {"II": ("A", "B"), "Va": ("B", "A"), "VI": ("B", "C"),
         "IVa": ("C", "A"), "IVb": ("C", "B")}


def _region(p: int, inst: CommutatorInstance) -> str:
    if p in inst.A:
        return "A"
    if p in inst.B:
        return "B"
    if p in inst.C:
        return "C"
    return "outside"


# -- map plumbing --------------------------------------------------------------


def test_map_plumbing():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose_maps(p, q) == (1, 0, 2)  # p after q
    assert invert_map(p) == (2, 0, 1)
    assert identity_map(3) == (0, 1, 2)
    assert support_of((1, 0, 2)) == {0, 1}
    assert support_of(identity_map(4)) == frozenset()


def test_orbit_sizes():
    assert orbit_sizes((1, 2, 0, 3)) == (3, 1)
    assert orbit_sizes(identity_map(3)) == (1, 1, 1)
    assert orbit_sizes((1, 0, 3, 2)) == (2, 2)


# -- the three-point worked example --------------------------------------------


def test_three_point_example():
    inst = CommutatorInstance(h=(1, 0, 2), phi=(2, 1, 0))
    assert inst.A == {0}
    assert inst.B == {1}
    assert inst.C == {2}
    assert inst.k == (0, 2, 1)
    assert check_hypotheses(inst)
    t = compute_T(inst)
    assert t == (1, 2, 0)
    assert orbit_sizes(t) == (3,)
    assert compose_maps(t, compose_maps(t, t)) == identity_map(3)
    assert classify_point(0, inst) == ("II", 1)
    assert classify_point(1, inst) == ("VI", 2)
    assert classify_point(2, inst) == ("IVa", 0)


def test_build_rejects_mismatched_sizes():
    with pytest.raises(PreconditionError):
        CommutatorInstance(h=(1, 0), phi=(2, 1, 0))


# -- degenerate overlaps --------------------------------------------------------


def test_empty_B_makes_T_trivial():
    # h swaps {0, 1}; phi moves exactly that pair away, so supp h = A
    inst = CommutatorInstance(h=(1, 0, 2, 3), phi=(2, 3, 0, 1))
    assert check_hypotheses(inst)
    assert inst.B == frozenset()
    assert compute_T(inst) == identity_map(4)
    assert all(classify_point(p, inst)[1] == p for p in range(4))


def test_empty_A_makes_k_equal_h():
    # disjoint supports: phi never touches supp h
    inst = CommutatorInstance(h=(1, 0, 2, 3), phi=(0, 1, 3, 2))
    assert inst.A == frozenset()
    assert inst.k == inst.h
    assert compute_T(inst) == identity_map(4)


def test_hypothesis_violation_is_detected():
    # phi maps 0 back into supp h, so A and C overlap
    inst = CommutatorInstance(h=(1, 2, 0), phi=(1, 0, 2))
    assert not check_hypotheses(inst)


def test_classify_rejects_doctored_sets():
    # a genuine instance never sends A into C; force it by lying about C
    good = CommutatorInstance(h=(1, 0, 2), phi=(2, 1, 0))
    bad = scalars._rebuilt(CommutatorInstance, good.h, good.phi, frozenset({0}), frozenset(),
                           frozenset({1}), good.k, good.h_inv, good.phi_inv)
    with pytest.raises(InvariantError):
        classify_point(0, bad)


def test_each_map_is_inverted_a_fixed_number_of_times_per_instance(monkeypatch):
    # the constructor inverts h and phi once each and compute_T inverts k,
    # whatever the size m; classify_point inverts nothing
    calls = []
    real = finite_model.invert_map
    monkeypatch.setattr(finite_model, "invert_map", lambda p: calls.append(p) or real(p))
    for m in (3, 12, 30):
        sample = random_instance(m, random.Random(m))
        calls.clear()
        inst = CommutatorInstance(sample.h, sample.phi)
        t = compute_T(inst)
        for p in range(m):
            assert classify_point(p, inst)[1] == t[p]
        assert calls == [inst.h, inst.phi, inst.k]


# -- case table ------------------------------------------------------------------


def _assert_case_table(inst: CommutatorInstance) -> None:
    t = compute_T(inst)
    for p in range(inst.m):
        label, image = classify_point(p, inst)
        assert label in CASE_LABELS
        assert t[p] == image
        if label in FIXED_CASES:
            assert image == p
            assert _region(p, inst) == ("outside" if label == "outside"
                                        else {"I": "A", "III": "C", "Vb": "B"}[label])
        else:
            src, dst = MOVES[label]
            assert _region(p, inst) == src
            assert _region(image, inst) == dst
        # the one forbidden transition
        assert not (p in inst.A and image in inst.C)


def test_case_table_on_small_enumeration():
    count = 0
    for inst in enumerate_instances(4):
        _assert_case_table(inst)
        count += 1
    assert count == 96


@given(st.integers(0, 10_000), st.integers(3, 24))
@settings(max_examples=60, deadline=None)
def test_case_table_on_random_instances(seed, m):
    inst = random_instance(m, random.Random(seed))
    assert check_hypotheses(inst)
    assert inst.A
    _assert_case_table(inst)


@given(st.integers(0, 10_000), st.integers(3, 24))
@settings(max_examples=40, deadline=None)
def test_commutator_has_order_dividing_six(seed, m):
    inst = random_instance(m, random.Random(seed))
    t = compute_T(inst)
    assert all(size in (1, 2, 3) for size in orbit_sizes(t))


# -- generators -------------------------------------------------------------------


def test_random_instance_is_deterministic_per_seed():
    a = random_instance(8, random.Random(7))
    b = random_instance(8, random.Random(7))
    assert (a.h, a.phi) == (b.h, b.phi)
    with pytest.raises(PreconditionError):
        random_instance(2, random.Random(0))


def _build_every_candidate(m: int, rng: random.Random) -> CommutatorInstance:
    """Reference sampler: the same draws as random_instance, but every
    candidate is built and check_hypotheses decides it."""
    points = list(range(m))
    while True:
        size_h = rng.randrange(2, max(3, m // 2 + 1))
        size_phi = rng.randrange(2, max(3, m // 2 + 1))
        sup_h = rng.sample(points, size_h)
        sup_phi = rng.sample(points, size_phi)
        h = finite_model._random_derangement_on(m, sup_h, rng)
        phi = finite_model._random_derangement_on(m, sup_phi, rng)
        inst = CommutatorInstance(h, phi)
        if check_hypotheses(inst) and inst.A:
            return inst


def test_random_instance_builds_only_the_instances_it_returns(monkeypatch):
    trials = 200
    sizes = (3, 12, 30)
    want = {}
    for m in sizes:
        rng = random.Random(m)
        want[m] = [_build_every_candidate(m, rng) for _ in range(trials)]
    builds = []
    real = CommutatorInstance.__init__
    monkeypatch.setattr(CommutatorInstance, "__init__",
                        lambda self, h, phi: builds.append(h) or real(self, h, phi))
    for m in sizes:
        rng = random.Random(m)
        assert [random_instance(m, rng) for _ in range(trials)] == want[m]
    assert len(builds) == trials * len(sizes)


# no points first: with the guard gone it returns the identity, while one
# point would draw forever
@pytest.mark.parametrize("points", [[], [2]], ids=["no-point", "one-point"])
def test_a_derangement_needs_two_points(points):
    with pytest.raises(PreconditionError, match="a derangement needs at least 2 points"):
        finite_model._random_derangement_on(5, points, random.Random(0))


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_instances(3)) == 6
    assert sum(1 for _ in enumerate_instances(4)) == 96
    assert sum(1 for _ in enumerate_instances(5)) == 1380


def _stream_digest(instances):
    """The count of instances and the sha256 of their (h, phi) pairs, in order."""
    digest = hashlib.sha256()
    count = 0
    for inst in instances:
        digest.update(repr((inst.h, inst.phi)).encode())
        count += 1
    return count, digest.hexdigest()


def test_instance_streams_are_pinned():
    # the streams, order included, that prop-check checks with --exhaustive
    # --size 6 and with --size 30 --trials 5000 --seed 0
    assert _stream_digest(enumerate_instances(6)) == (
        21840, "e725d26fe26b67283347dfb63067cd4b157f4bdb746975c02c9be9aa09320730")
    rng = random.Random(0)
    assert _stream_digest(random_instance(30, rng) for _ in range(5000)) == (
        5000, "dd7bbeec1461a4debd6562aa52274ab113b85ecddfee191fb69ad9a83d183b3c")


def test_enumeration_contains_the_worked_example():
    pairs = {(inst.h, inst.phi) for inst in enumerate_instances(3)}
    assert ((1, 0, 2), (2, 1, 0)) in pairs
    for inst in enumerate_instances(3):
        assert check_hypotheses(inst)
        assert inst.A
        assert support_of(inst.h)
        assert support_of(inst.phi)
