"""Finite combinatorial model of the commutator-order argument.

The reason T = k h^-1 k^-1 h has order dividing 6 is purely combinatorial:
it only uses that k = phi h phi^-1 for some phi with phi(supp h disjoint
from supp h inside supp phi.  This module replays the argument with finite
permutations, where every claim can be checked exhaustively.

Points of {0, ..., m-1} split into supp(h) = A | B with A = supp(h) moved
by phi and B fixed by phi, plus C = phi(A).  The hypothesis is that A and
phi(A) are disjoint.  classify_point assigns every point one of the nine
interaction cases and predicts its image under T; compute_T checks the
prediction against the direct product k h^-1 k^-1 h.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator, Tuple

from .errors import InvariantError, PreconditionError, SearchCapError

__all__ = [
    "compose_maps",
    "invert_map",
    "identity_map",
    "support_of",
    "CommutatorInstance",
    "check_hypotheses",
    "compute_T",
    "classify_point",
    "orbit_sizes",
    "random_instance",
    "enumerate_instances",
    "CASE_LABELS",
]

Map = Tuple[int, ...]

CASE_LABELS = ("outside", "I", "II", "III", "IVa", "IVb", "Va", "Vb", "VI")


def compose_maps(p: Map, q: Map) -> Map:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(q)))


def invert_map(p: Map) -> Map:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity_map(m: int) -> Map:
    return tuple(range(m))


def support_of(p: Map) -> frozenset:
    return frozenset(i for i, j in enumerate(p) if i != j)


@dataclass(frozen=True)
class CommutatorInstance:
    """A pair (h, phi) on m points with phi(supp h cap supp phi) off supp h.

    The inverses of h and phi are computed once, here, for compute_T and
    classify_point.
    """

    h: Map
    phi: Map
    A: frozenset
    B: frozenset
    C: frozenset
    k: Map
    h_inv: Map = field(init=False, repr=False, compare=False)
    phi_inv: Map = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h_inv", invert_map(self.h))
        object.__setattr__(self, "phi_inv", invert_map(self.phi))

    @classmethod
    def build(cls, h: Map, phi: Map) -> "CommutatorInstance":
        if len(h) != len(phi):
            raise PreconditionError("h and phi must act on the same point set")
        supp_h = support_of(h)
        supp_phi = support_of(phi)
        a = frozenset(supp_h & supp_phi)
        b = frozenset(supp_h - supp_phi)
        c = frozenset(phi[i] for i in a)
        k = [0] * len(h)
        for i, j in enumerate(h):
            k[phi[i]] = phi[j]  # k = phi h phi^-1
        return cls(h=h, phi=phi, A=a, B=b, C=c, k=tuple(k))

    @property
    def m(self) -> int:
        return len(self.h)


def check_hypotheses(inst: CommutatorInstance) -> bool:
    """A and phi(A) disjoint; that is all the argument needs."""
    return inst.A.isdisjoint(inst.C)


def compute_T(inst: CommutatorInstance) -> Map:
    """T = k h^-1 k^-1 h."""
    k_inv = invert_map(inst.k)
    return compose_maps(compose_maps(inst.k, inst.h_inv), compose_maps(k_inv, inst.h))


def classify_point(p: int, inst: CommutatorInstance) -> Tuple[str, int]:
    """Case label and predicted T-image for one point.

    T = k h^-1 k^-1 h; the hypothesis makes C disjoint from supp h and A
    disjoint from supp k, which collapses the chase through the four
    factors to nine cases.  I, III, Vb and outside are fixed; II sends A
    to B by h; Va sends B to A by h^-1; VI sends B to C by k; IVa and IVb
    send C to A and B along h^-1 k^-1.  No case sends A into C.
    """
    h, phi, h_inv = inst.h, inst.phi, inst.h_inv
    a, b, c = inst.A, inst.B, inst.C
    if p in a:
        hp = h[p]
        if hp in a:
            return "I", p
        if hp in b:
            return "II", hp
        raise InvariantError(f"point {p}: h maps A into C, hypothesis violated")
    if p in b:
        hp = h[p]
        if hp in a:
            return "VI", phi[hp]  # = k(p)
        v = h_inv[p]
        if v in a:
            return "Va", v
        return "Vb", p
    if p in c:
        u = h_inv[inst.phi_inv[p]]
        if u in a:
            return "III", p
        v = h_inv[u]  # u landed in B, so chase once more
        if v in a:
            return "IVa", v
        return "IVb", u
    return "outside", p


def orbit_sizes(t: Map) -> Tuple[int, ...]:
    """Cycle lengths of t, sorted descending."""
    seen = [False] * len(t)
    sizes = []
    for i in range(len(t)):
        if seen[i]:
            continue
        n = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = t[j]
            n += 1
        sizes.append(n)
    return tuple(sorted(sizes, reverse=True))


# Rejection-sampling draws per instance before random_instance gives up.
MAX_TRIES = 10_000


def random_instance(m: int, rng: random.Random) -> CommutatorInstance:
    """Sample (h, phi) on m points satisfying the hypothesis.

    Rejection sampling over pairs of random permutations with restricted
    support sizes; small supports keep the acceptance rate workable.  A
    derangement moves every point of its support, so A = sup_h & sup_phi
    and the hypothesis are decided from the draws, and only an accepted
    pair is built.
    """
    if m < 3:
        raise PreconditionError("need at least 3 points")
    points = list(range(m))
    for _ in range(MAX_TRIES):
        size_h = rng.randrange(2, max(3, m // 2 + 1))
        size_phi = rng.randrange(2, max(3, m // 2 + 1))
        sup_h = rng.sample(points, size_h)
        sup_phi = rng.sample(points, size_phi)
        h = _random_derangement_on(m, sup_h, rng)
        phi = _random_derangement_on(m, sup_phi, rng)
        a = set(sup_h).intersection(sup_phi)
        if a and a.isdisjoint(phi[i] for i in a):
            return CommutatorInstance.build(h, phi)
    raise SearchCapError(f"no admissible instance in {MAX_TRIES} tries")


def _random_derangement_on(m: int, points, rng: random.Random) -> Map:
    """Permutation of range(m) fixing everything outside `points` and
    nothing inside."""
    pts = list(points)
    if len(pts) < 2:
        raise PreconditionError("a derangement needs at least 2 points")
    while True:
        img = pts[:]
        rng.shuffle(img)
        if all(x != y for x, y in zip(pts, img)):
            break
    out = list(range(m))
    for x, y in zip(pts, img):
        out[x] = y
    return tuple(out)


def enumerate_instances(m: int) -> Iterator[CommutatorInstance]:
    """Every (h, phi) pair on m points satisfying the hypothesis, with h
    and phi both nontrivial and A nonempty."""
    perms = list(permutations(range(m)))
    supports = [support_of(p) for p in perms]
    for h, sup_h in zip(perms, supports):
        for phi, sup_phi in zip(perms, supports):
            a = sup_h & sup_phi
            if a and a.isdisjoint(phi[i] for i in a):
                yield CommutatorInstance.build(h, phi)
