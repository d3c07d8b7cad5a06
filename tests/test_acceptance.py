"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS or FAIL line on the real stdout, including
its measured runtime, so a plain pytest run doubles as an acceptance
report.  Every comparison is exact; there are no float tolerances anywhere
in this file except in printed summaries.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Optional

import pytest

from ietrel.finite_model import (
    check_hypotheses,
    classify_point,
    compose_maps,
    compute_T,
    enumerate_instances,
    orbit_sizes,
    random_instance,
)
from ietrel.iet import Iet
from ietrel.relations import (
    RelationCertificate,
    SynthesisContext,
    check_small_support,
    find_M,
    synthesize_with_context,
)
from ietrel.rotation import FINITE_ORDER, DisjointRotationSpec
from ietrel.sampling import SuitePair, demo_suite, random_iet
from ietrel.scalars import ONE, ZERO, QuadExt
from ietrel.words import Word, eval_word_naive, free_reduce, verify_word

from conftest import q
from oracles import invariants_hold, validate

F = Fraction

MILLI = QuadExt(F(1, 1000))

# Frozen oracles.  The instance counts were computed by an independent
# prototype before this suite existed; the decay exponents come from the
# closed-form scan in criterion 8 and are cross-checked there against the
# full map arithmetic.
SATISFYING_COUNTS = {1: 1, 2: 3, 3: 17, 4: 149, 5: 1689, 6: 23959}
NONTRIVIAL_COUNTS = {3: 6, 4: 96, 5: 1380, 6: 21840}
DECAY_EXPONENTS = {
    "d2-one-block-sqrt2m1-identity": 985,
    "d3-one-block-sqrt3m1-rot13": 780,
    "d5-one-block-golden-identity": 987,
    "d2-one-block-moderate-rot": 985,
    "d2-one-block": 64,
    "d3-one-block": 32,
    "d5-one-block": 64,
    "d2-two-blocks-fixed": 64,
    "d3-two-blocks-fixed": 32,
    "d2-two-blocks-mixed": 64,
    "d5-two-blocks-mixed": 64,
    "d2-two-blocks-irrational": 64,
    "d5-two-blocks-irrational": 64,
    "d2-three-blocks": 64,
    "d3-three-blocks": 96,
    "d5-three-blocks-mixed": 64,
    "d2-four-blocks": 64,
    "d3-four-blocks-mixed": 32,
    "d5-four-blocks-mixed": 64,
    "d3-two-blocks-thirds": 48,
}


class _Report:
    def __init__(self):
        self.note = ""


@contextmanager
def criterion(capsys, n: int, what: str):
    rep = _Report()
    t0 = time.perf_counter()
    try:
        yield rep
    except BaseException:
        with capsys.disabled():
            print(f"\nFAIL criterion {n}: {what}", flush=True)
        raise
    dt = time.perf_counter() - t0
    suffix = f"; {rep.note}" if rep.note else ""
    with capsys.disabled():
        print(f"\nPASS criterion {n}: {what}{suffix} ({dt:.2f}s)", flush=True)


# -- shared end-to-end suite ------------------------------------------------------


@dataclass(frozen=True)
class SuiteRun:
    pair: SuitePair
    cert: RelationCertificate
    ctx: Optional[SynthesisContext]
    seconds: float
    naive_identity: bool


@pytest.fixture(scope="module")
def suite_runs():
    runs = []
    for pair in demo_suite():
        t0 = time.perf_counter()
        cert, ctx = synthesize_with_context(pair.r, pair.g)
        ok = eval_word_naive(cert.word, pair.r.to_iet(), pair.g).is_identity()
        runs.append(SuiteRun(pair, cert, ctx, time.perf_counter() - t0, ok))
    return runs


# -- criterion 1: exhaustive finite model ------------------------------------------


def _inv_perm(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def test_criterion_1_exhaustive_small_models(capsys):
    with criterion(capsys, 1, "T^6 = id on every admissible pair of size <= 6") as rep:
        t0 = time.perf_counter()
        counts = {}
        for m in range(1, 7):
            perms = list(permutations(range(m)))
            ident = perms[0]
            invs = [_inv_perm(p) for p in perms]
            masks = [sum(1 << i for i, j in enumerate(p) if i != j) for p in perms]
            satisfied = 0
            for hi, h in enumerate(perms):
                hinv = invs[hi]
                mask_h = masks[hi]
                for pi, phi in enumerate(perms):
                    mask_a = mask_h & masks[pi]
                    mask_c = mask_ha = 0
                    bits = mask_a
                    while bits:
                        low = bits & -bits
                        mask_c |= 1 << phi[low.bit_length() - 1]
                        mask_ha |= 1 << h[low.bit_length() - 1]
                        bits ^= low
                    if mask_a & mask_c:
                        continue
                    satisfied += 1
                    phinv = invs[pi]
                    k = tuple(phi[h[phinv[i]]] for i in range(m))
                    kinv = _inv_perm(k)
                    t = tuple(k[hinv[kinv[h[i]]]] for i in range(m))
                    t3 = tuple(t[t[t[i]]] for i in range(m))
                    assert tuple(t3[t3[i]] for i in range(m)) == ident
                    # the rule synthesis decides T by: T = 1 exactly when h
                    # maps A into A
                    assert (t == ident) == (mask_ha == mask_a)
                    seen = [False] * m
                    for s in range(m):
                        if seen[s]:
                            continue
                        n = 0
                        j = s
                        while not seen[j]:
                            seen[j] = True
                            j = t[j]
                            n += 1
                        assert n in (1, 2, 3)
            counts[m] = satisfied
        assert counts == SATISFYING_COUNTS
        # the library's enumerator skips trivial h, phi and empty overlap
        for m, expected in NONTRIVIAL_COUNTS.items():
            assert sum(1 for _ in enumerate_instances(m)) == expected
        assert time.perf_counter() - t0 < 60
        rep.note = f"{sum(counts.values())} admissible pairs"


# -- criterion 2: randomized finite model -------------------------------------------


def test_criterion_2_randomized_models(capsys):
    with criterion(capsys, 2, "1000 random instances of size <= 30") as rep:
        t0 = time.perf_counter()
        rng = random.Random(20260814)
        sizes = set()
        for _ in range(1000):
            m = rng.randint(3, 30)
            sizes.add(m)
            inst = random_instance(m, rng)
            assert check_hypotheses(inst)
            t = compute_T(inst)
            t3 = compose_maps(compose_maps(t, t), t)
            assert compose_maps(t3, t3) == tuple(range(m))
            assert all(s in (1, 2, 3) for s in orbit_sizes(t))
            assert (t == tuple(range(m))) == all(inst.h[p] in inst.A for p in inst.A)
            for p in range(m):
                label, image = classify_point(p, inst)
                assert t[p] == image
                assert not (p in inst.A and image in inst.C)
        assert sizes == set(range(3, 31))
        assert time.perf_counter() - t0 < 30
        rep.note = "sizes 3..30 all hit"


# -- criterion 3: end-to-end synthesis over the suite --------------------------------


def test_criterion_3_suite_relations_verify(suite_runs, capsys):
    what = "suite words verify letter by letter and syllable by syllable"
    with criterion(capsys, 3, what) as rep:
        assert len(suite_runs) >= 20
        block_counts = set()
        discs = set()
        has_mixed = has_fixed = has_all_moving = False
        for run in suite_runs:
            spec, g = run.pair.r, run.pair.g
            block_counts.add(spec.n)
            for x in spec.lengths + spec.rates:
                if x.disc:
                    discs.add(x.disc)
            rational_rates = [a for a in spec.rates if a.is_rational]
            if any(not a.is_rational for a in spec.rates) and any(
                a for a in rational_rates
            ):
                has_mixed = True
            if any(a == ZERO for a in spec.rates):
                has_fixed = True
            elif all(not a.is_rational for a in spec.rates):
                has_all_moving = True
            assert g.num_intervals <= 6
            assert all((x.is_rational for x in g.breakpoints + g.translations))

            assert run.cert.verified
            assert not run.cert.word.is_empty()
            assert free_reduce(run.cert.word.syllables) == run.cert.word
            assert run.naive_identity
            assert verify_word(run.cert.word, spec, g) == run.naive_identity
            assert run.seconds < 60
        assert block_counts == {1, 2, 3, 4}
        assert discs == {2, 3, 5}
        assert has_mixed and has_fixed and has_all_moving
        assert max(r.pair.g.num_intervals for r in suite_runs) == 6
        branches = {run.cert.branch for run in suite_runs}
        assert branches == {"finite_order", "h_trivial", "T_trivial", "T_sixth"}
        total = sum(run.seconds for run in suite_runs)
        rep.note = (
            f"{len(suite_runs)} pairs, worst {max(r.seconds for r in suite_runs):.2f}s,"
            f" total {total:.1f}s"
        )


# -- criterion 4: support confinement --------------------------------------------------


def test_criterion_4_support_stays_inside_X(suite_runs, capsys):
    with criterion(capsys, 4, "supp(h) inside X on every pipeline run") as rep:
        checked = 0
        for run in suite_runs:
            if run.ctx is None:
                continue
            assert check_small_support(run.ctx.h, run.ctx.X)
            assert not run.ctx.fallback_used
            checked += 1
        assert checked == 20
        rep.note = f"{checked} pipeline runs, fallback never triggered"


# -- criterion 5: parameter bounds ------------------------------------------------------


def test_criterion_5_parameter_bounds(suite_runs, capsys):
    with criterion(capsys, 5, "d, epsilon, M within their defining bounds") as rep:
        rechecked_M = 0
        for run in suite_runs:
            ctx = run.ctx
            if ctx is None:
                continue
            assert 1 <= ctx.d <= len(ctx.P_prime) ** 2 + 1

            eps = ctx.epsilon
            assert eps * 10 < ONE
            assert eps * 4 < run.pair.r.min_block_length()
            # pairwise ball disjointness, straight from circular gaps
            pts = sorted(ctx.P)
            gaps = [b - a for a, b in zip(pts, pts[1:])]
            gaps.append(pts[0] + ONE - pts[-1])
            if len(pts) > 1:
                assert all(gap >= eps * 2 for gap in gaps)
            assert ctx.X.measure() == eps * 2 * len(pts)
            # the supported part moves off itself under r^d
            rd = ctx.r_spec.to_iet().power(ctx.d)
            assert ctx.X_prime.is_disjoint(rd.image_of(ctx.X_prime))
            assert invariants_hold(ctx)

            # M is minimal: every smaller exponent leaves some rate far from 0
            theta = eps / 10
            for m in range(1, ctx.M):
                rates = ctx.r_spec.block_rates(m)
                assert any(
                    not (rho < theta or rho > ONE - theta) for rho in rates
                )
            rechecked_M += 1
        assert rechecked_M >= 3
        rep.note = f"M minimality re-scanned on {rechecked_M} members"


# -- criterion 6: Diophantine anchor ------------------------------------------------------


def test_criterion_6_flattening_anchor(capsys):
    with criterion(capsys, 6, "threshold 1/100 at rate sqrt(2)-1 needs M = 70") as rep:
        alpha = QuadExt(-1, 1, 2)
        spec = DisjointRotationSpec((q(1),), (alpha,))
        assert find_M(spec, q(F(1, 10))) == 70  # theta = epsilon / 10

        theta = q(F(1, 100))

        def close(m: int) -> bool:
            rho = (alpha * m).mod_one()
            return rho < theta or rho > ONE - theta

        assert close(70)
        assert not any(close(m) for m in range(1, 70))

        # sqrt(2)-1 = [0; 2, 2, 2, ...]; best approximations sit at the
        # convergent denominators, so 70 must be one of them
        dens = [1, 2]
        while dens[-1] < 70:
            dens.append(2 * dens[-1] + dens[-2])
        assert dens == [1, 2, 5, 12, 29, 70]
        assert not any(close(d) for d in dens[:-1])
        rep.note = "scan and convergents agree"


# -- criterion 7: discontinuity bound under powers ------------------------------------------


def test_criterion_7_power_discontinuity_bound(suite_runs, capsys):
    with criterion(capsys, 7, "|disc(r^m)| <= 2n for all m <= 10^4") as rep:
        t0 = time.perf_counter()
        specs = {}
        for run in suite_runs:
            spec = run.pair.r
            specs[(spec.lengths, spec.rates)] = spec
        for spec in specs.values():
            r = spec.to_iet()
            bound = 2 * spec.n
            cur = r
            for m in range(1, 10_001):
                if m > 1:
                    cur = cur.compose(r)
                assert len(cur.discontinuities()) <= bound
            assert cur == r.power(10_000)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        rep.note = f"{len(specs)} distinct specs, every power checked"


# -- criterion 8: L1 decay along powers -------------------------------------------------------


def test_criterion_8_l1_decay(suite_runs, capsys):
    with criterion(capsys, 8, "every infinite-order r has l1(r^M) < 10^-3") as rep:
        found = {}
        for run in suite_runs:
            spec = run.pair.r
            if spec.classify().kind == FINITE_ORDER:
                continue
            # closed form per block: l1 = sum_j 2 lambda_j^2 rho_j (1 - rho_j)
            lam_sq = [v * v for v in spec.lengths]
            current = list(spec.rates)
            M = None
            for m in range(1, 10**6 + 1):
                total = ZERO
                for l2, rho in zip(lam_sq, current):
                    total = total + l2 * rho * (ONE - rho)
                if total + total < MILLI:
                    M = m
                    break
                for j, a in enumerate(spec.rates):
                    nxt = current[j] + a
                    if nxt >= ONE:
                        nxt = nxt - ONE
                    current[j] = nxt
            assert M is not None and M <= 10**6
            found[run.pair.name] = M
            # independent route: full map arithmetic at M and at M-1
            r = spec.to_iet()
            assert r.power(M).l1_distance_to_identity() < MILLI
            if M > 1:
                assert r.power(M - 1).l1_distance_to_identity() >= MILLI
        assert found == DECAY_EXPONENTS
        rep.note = f"max exponent {max(found.values())}"


# -- criterion 9: algebra on random maps ---------------------------------------------------------


def test_criterion_9_algebra_suite(capsys):
    with criterion(capsys, 9, "group axioms on 1000 random maps") as rep:
        t0 = time.perf_counter()
        rng = random.Random(424242)
        iets = []
        for _ in range(1000):
            f = random_iet(rng, 6, 8)
            validate(f)
            iets.append(f)
        for f, g in zip(iets, iets[1:]):
            fg = f.compose(g)
            validate(fg)
            assert fg.inverse() == g.inverse().compose(f.inverse())
            assert len(fg.discontinuities()) <= (
                len(f.discontinuities()) + len(g.discontinuities())
            )
        for i in range(0, 998, 3):
            f, g, h = iets[i], iets[i + 1], iets[i + 2]
            assert f.compose(g).compose(h) == f.compose(g.compose(h))
        for f in iets[::25]:
            validate(f.inverse())
            assert f.compose(f.inverse()).is_identity()
            assert f.power(-1) == f.inverse()
            assert f.power(2).compose(f.power(3)) == f.power(5)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30
        rep.note = "1000 maps validated, axioms exact"


# -- criterion 10: conjugation transfer ------------------------------------------------------------


def test_criterion_10_conjugation_transfer(suite_runs, capsys):
    with criterion(capsys, 10, "emitted words survive conjugation of both maps") as rep:
        names = (
            "d2-one-block-sqrt2m1-identity",
            "d3-one-block-sqrt3m1-rot13",
            "d5-one-block-golden-identity",
            "d2-one-block-moderate-rot",
            "d3-two-blocks-thirds",
        )
        by_name = {run.pair.name: run for run in suite_runs}
        for i, name in enumerate(names):
            run = by_name[name]
            c = random_iet(random.Random(7000 + i), 4, 8)
            r_conj = run.pair.r.to_iet().conjugate(c)
            g_conj = run.pair.g.conjugate(c)
            assert eval_word_naive(run.cert.word, r_conj, g_conj).is_identity()
        rep.note = f"{len(names)} pairs, naive route"
