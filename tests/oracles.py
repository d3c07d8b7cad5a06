"""The QuadExt references the tests hold the program to.

Each search of synthesis has one oracle here, written the plain way: P from
Iet.apply and a sort by QuadExt comparison, d by applying r to QuadExt
points, epsilon by the halving loop with one full check per halving, and M
by stepping every rate one M at a time.  invariants_hold re-derives a
synthesis context from them, and validate re-runs Iet's constructor checks
on a map the group operations built.
"""

from __future__ import annotations

from fractions import Fraction

from ietrel.errors import InvariantError, PreconditionError, SearchCapError
from ietrel.iet import Iet
from ietrel.intervals import neighborhood_union
from ietrel.relations import DEFAULT_M_CAP, MAX_HALVINGS
from ietrel.scalars import ONE, _lattice, _pair, _sign3

from conftest import q

F = Fraction


def quadext_compute_P(r_spec, g):
    """The oracle: compute_P on QuadExt values, g^-1 by Iet.apply and the
    points sorted by QuadExt comparison."""
    bounds = r_spec.block_bounds()[:-1]
    points = set(bounds)
    g_inv = g.inverse()
    points.update(g_inv.apply(b) for b in bounds)
    points.update(g.discontinuities())
    return tuple(sorted(points))


def quadext_find_d(r, points):
    """The oracle: find_d's loop, r applied to QuadExt values by Iet.apply."""
    base = set(points)
    images = list(points)
    for d in range(1, len(points) ** 2 + 2):
        images = [r.apply(p) for p in images]
        if base.isdisjoint(images):
            return d
    raise AssertionError("no admissible d")


def halving_find_epsilon(r, points, d, min_block=None):
    """The oracle: the halving loop, one full check per halving."""
    pts = sorted(set(points))
    if len(pts) >= 2:
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        gaps.append(pts[0] + ONE - pts[-1])
        eps = min(gaps) / 2
    else:
        eps = q(F(1, 4))
    supp = r.support()
    rd = r.power(d)
    for _ in range(MAX_HALVINGS):
        ok = eps * 10 < ONE and (min_block is None or eps * 4 < min_block)
        if ok:
            x_prime = neighborhood_union(pts, eps).intersect(supp)
            ok = x_prime.is_disjoint(rd.image_of(x_prime))
        if ok:
            return eps
        eps = eps / 2
    raise SearchCapError("no admissible epsilon")


def linear_find_M(r_spec, epsilon, m_cap=DEFAULT_M_CAP):
    """The oracle: step every rate one M at a time, and test each exactly.

    The rates and theta = epsilon/10 are integer pairs over one lattice
    (1/N)(Z + Z sqrt(D)).  frac(m * alpha) is the pair c in [0, N), moved
    by alpha and brought back below N by one subtraction of N per step; M
    passes when every c has c < t or c > N - t, t the pair of theta, each
    decided by the exact sign of a pair."""
    theta = epsilon / 10
    den, disc = _lattice([*r_spec.rates, theta])
    ta, tb = _pair(theta, den)
    rates = [_pair(a, den) for a in r_spec.rates]
    current = list(rates)
    for m in range(1, m_cap + 1):
        if all(_sign3(a - ta, b - tb, disc) < 0 or _sign3(a - den + ta, b + tb, disc) > 0
               for a, b in current):
            return m
        for j, (a, b) in enumerate(rates):
            a += current[j][0]
            b += current[j][1]
            current[j] = (a - den, b) if _sign3(a - den, b, disc) >= 0 else (a, b)
    raise SearchCapError(f"no admissible M up to cap {m_cap}")


def invariants_hold(ctx) -> bool:
    """Does a synthesis context hold what synthesis promises?  P, P', d,
    epsilon, X and X' must be the ones the oracles derive, which makes d the
    least d and epsilon the largest eps0 / 2^t passing the separation
    checks, with the balls pairwise disjoint; M must bring every block rate
    within epsilon/10 of 0 and M - 1 must not; and a T that was not built
    must rest on its premise, supp h inside supp r^L."""
    spec = ctx.r_spec
    r = spec.to_iet()
    supp = r.support()
    P = quadext_compute_P(spec, ctx.g)
    P_prime = tuple(p for p in P if supp.contains_point(p))
    if (ctx.P, ctx.P_prime) != (P, P_prime) or ctx.d != quadext_find_d(r, P_prime):
        return False
    if ctx.epsilon != halving_find_epsilon(r, P, ctx.d, spec.min_block_length()):
        return False
    # X and X' as the QuadExt route builds them, not as the search did
    X = neighborhood_union(P, ctx.epsilon)
    if ctx.X != X or ctx.X_prime != X.intersect(supp):
        return False
    if ctx.T is None and not ctx.h.is_identity():
        # T = 1 was decided from supports: the premise synthesis tested,
        # supp h inside supp r^L, and what it stands for, supp k =
        # r^d(supp h) off supp h (which r^d could not give a point r^L fixes)
        h_supp = ctx.h.support()
        rd = r.power(ctx.d)
        if not (supp.contains_set(h_supp) and h_supp.is_disjoint(rd.image_of(h_supp))):
            return False
    theta = ctx.epsilon / 10

    def near_zero(m: int) -> bool:
        # every block rate of r^m within theta of 0 circularly
        return all(rate < theta or rate > ONE - theta for rate in spec.block_rates(m))

    return near_zero(ctx.M) and not (ctx.M > 1 and near_zero(ctx.M - 1))


def validate(f: Iet) -> Iet:
    """Re-run the constructor's checks on f's stored pieces and return f;
    raises InvariantError unless they form a bijection of [0, 1) in
    canonical form.

    Maps built by the group operations are never re-checked, so this is how
    a test confirms that the algebra kept the invariants."""
    try:
        rebuilt = Iet(f.breakpoints, f.translations)
    except PreconditionError as exc:
        raise InvariantError(str(exc)) from None
    if rebuilt != f:
        raise InvariantError(
            "canonical form violated: equal neighbours or a reducible denominator"
        )
    return f
