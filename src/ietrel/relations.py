"""Synthesis of group relations between a disjoint rotation map and an IET.

Given a disjoint rotation spec r and an arbitrary IET g, synthesize() emits
a nonempty freely reduced word in two generators (a for r, b for g) that
evaluates to the identity map, together with the parameters that witnessed
it.  The construction:

  * finite-order r: the word a^q, q the exact order;
  * otherwise pass to r^L (L the fixing power, so every block rate is 0 or
    irrational), collect the point set P from block endpoints, their
    g-preimages and the discontinuities of g, and choose
      d   with r^d(P') disjoint from P' (P' the part of P in supp r),
      eps with the eps-balls around P pairwise disjoint and the supported
          part X' of their union X moved off itself by r^d,
      M   with every block rate of s = r^M within eps/10 of 0 circularly;
  * h = (g^-1 s^-1 g s)(g^-1 s g s^-1) is then supported inside X, and
    k = r^d h r^-d has support disjoint from h's inside supp r, which
    forces T = k h^-1 k^-1 h to have order dividing 6.

The emitted word is, by branch: a^q, the word of h when h is trivial, the
word of T when T is trivial, and the word of T concatenated six times
otherwise.  Every branch re-checks that the word evaluates to the identity
exactly before it is certified, with `verify_word`: the syllable-by-syllable
checker behind `ietrel verify`, which shares no map arithmetic with the Iet
algebra that built h, k and T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import InvariantError, PreconditionError, SearchCapError
from .iet import Iet
from .intervals import IntervalSet, circular_ball
from .rotation import FINITE_ORDER, DisjointRotationSpec
from .scalars import ONE, QuadExt, as_scalar
from .words import MAX_EXPONENT_DIGITS, Word, verify_word
from .words import eval_word  # noqa: F401 -- perfbench/tracing.py wraps the name here

__all__ = [
    "compute_P",
    "find_d",
    "find_epsilon",
    "find_M",
    "neighborhood_union",
    "build_h",
    "build_k",
    "build_T",
    "check_small_support",
    "synthesize",
    "synthesize_with_context",
    "SynthesisContext",
    "RelationCertificate",
    "BRANCH_FINITE_ORDER",
    "BRANCH_H_TRIVIAL",
    "BRANCH_T_TRIVIAL",
    "BRANCH_T_SIXTH",
    "DEFAULT_M_CAP",
]

BRANCH_FINITE_ORDER = "finite_order"
BRANCH_H_TRIVIAL = "h_trivial"
BRANCH_T_TRIVIAL = "T_trivial"
BRANCH_T_SIXTH = "T_sixth"

DEFAULT_M_CAP = 10_000_000
# find_epsilon raises SearchCapError when eps0 / 2^MAX_HALVINGS still fails.
MAX_HALVINGS = 200


@dataclass(frozen=True)
class RelationCertificate:
    """A verified relation: word evaluates to the identity on (r, g)."""

    word: Word
    branch: str
    L: Optional[int] = None
    d: Optional[int] = None
    epsilon: Optional[QuadExt] = None
    M: Optional[int] = None
    verified: bool = False


@dataclass
class SynthesisContext:
    """Every intermediate object of one synthesis run, for inspection."""

    r_spec: DisjointRotationSpec  # post-fixing-power spec
    g: Iet  # the working copy of g (conjugator already absorbed)
    fixing_power: int
    P: Tuple[QuadExt, ...]
    P_prime: Tuple[QuadExt, ...]
    d: int
    epsilon: QuadExt
    M: int
    h: Iet
    k: Optional[Iet]
    T: Optional[Iet]
    X: IntervalSet
    X_prime: IntervalSet
    fallback_used = False  # a constant: synthesis has no retry; perfbench/tracing.py reads it

    def invariants_hold(self) -> bool:
        """Re-derive the defining conditions of d, epsilon and M."""
        r_fixed = self.r_spec.to_iet()
        supp = r_fixed.support()
        if tuple(p for p in self.P if supp.contains_point(p)) != self.P_prime:
            return False
        rd = r_fixed.power(self.d)
        images = list(self.P_prime)
        for _ in range(self.d):
            images = [r_fixed.apply(q) for q in images]
        if not set(images).isdisjoint(self.P_prime):
            return False
        balls = [circular_ball(p, self.epsilon) for p in self.P]
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                if not balls[i].is_disjoint(balls[j]):
                    return False
        if not self.X_prime.is_disjoint(rd.image_of(self.X_prime)):
            return False
        theta = self.epsilon / 10
        for rate in self.r_spec.block_rates(self.M):
            if not (rate < theta or rate > ONE - theta):
                return False
        return True


def compute_P(r_spec: DisjointRotationSpec, g: Iet) -> Tuple[QuadExt, ...]:
    """Block endpoints of r, their preimages under g, and disc(g), sorted."""
    points = set(r_spec.block_bounds()[:-1])
    g_inv = g.inverse()
    points.update(g_inv.apply(b) for b in r_spec.block_bounds()[:-1])
    points.update(g.discontinuities())
    return tuple(sorted(points))


def find_d(r: Iet, points: Sequence[QuadExt]) -> int:
    """Smallest d >= 1 with r^d(points) disjoint from points.

    Every point must lie in supp(r); along such orbits each return is
    possible for at most one d, so some d <= len(points)^2 + 1 works.
    """
    supp = r.support()
    pts = [as_scalar(p) for p in points]
    for p in pts:
        if not supp.contains_point(p):
            raise PreconditionError(f"point {p} is not in the support of r")
    if not pts:
        return 1
    base = set(pts)
    images = pts
    cap = len(pts) ** 2 + 1
    for d in range(1, cap + 1):
        images = [r.apply(q) for q in images]
        if base.isdisjoint(images):
            return d
    raise InvariantError(f"no admissible d up to {cap}; orbit structure violated")


def neighborhood_union(points: Sequence[QuadExt], epsilon) -> IntervalSet:
    """Union of the circular epsilon-balls around the given points."""
    spans = []
    for p in points:
        spans.extend(circular_ball(p, epsilon).spans)
    return IntervalSet(spans)


def find_epsilon(
    r: Iet,
    points: Sequence[QuadExt],
    d: int,
    min_block: QuadExt | None = None,
) -> QuadExt:
    """Largest eps = eps0 / 2^t (t minimal) passing every separation check.

    eps0 is half the minimum circular gap of the point set, which already
    makes the balls pairwise disjoint.  Halving continues until additionally
    10*eps < 1, eps is below a quarter of the smallest block when a block
    length is supplied, and the supported part X' of the ball union is moved
    off itself by r^d.
    """
    pts = sorted(set(as_scalar(p) for p in points))
    if len(pts) >= 2:
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        gaps.append(pts[0] + ONE - pts[-1])
        eps = min(gaps) / 2
    else:
        eps = as_scalar(1) / 4
    supp = r.support()
    rd = r.power(d)
    for _ in range(MAX_HALVINGS):
        ok = eps * 10 < ONE
        if ok and min_block is not None:
            ok = eps * 4 < min_block
        if ok:
            x_prime = neighborhood_union(pts, eps).intersect(supp)
            ok = x_prime.is_disjoint(rd.image_of(x_prime))
        if ok:
            return eps
        eps = eps / 2
    raise SearchCapError(f"no admissible epsilon after MAX_HALVINGS = {MAX_HALVINGS}")


def find_M(
    r_spec: DisjointRotationSpec, epsilon: QuadExt, m_cap: int = DEFAULT_M_CAP
) -> int:
    """Smallest M >= 1 with every block rate of r^M within theta = epsilon/10
    of 0 circularly: frac(M * alpha_j) < theta or > 1 - theta for every j.

    A filtered scan, exact in every decision.  Each nonzero rate alpha is
    stepped as the integer A = floor(alpha * 2^K), found once with
    `QuadExt.floor`.  Since m * alpha * 2^K exceeds m * A by less than m, the
    true frac(m * alpha) * 2^K lies in [x, x + m) with x = m * A mod 2^K.  A
    block with t <= x and x + m_cap <= 2^K - t, where t = ceil(theta * 2^K),
    is at least theta from 0 on both sides, so m fails with integer work
    only.  An m that no block rejects this way is decided by the exact test
    on (alpha * m).mod_one().  K has at least 96 bits and 32 to spare over
    m_cap / theta, so the filter passes about a 2 * theta share of the steps
    on the first block; the others are filtered only at those steps.  Zero
    rates always pass and are left out.
    """
    if epsilon.sign() <= 0:
        raise PreconditionError("epsilon must be positive")
    theta = epsilon / 10
    upper = ONE - theta
    rates = [a for a in r_spec.rates if a]
    bits = max(96, (m_cap * ((ONE / theta).floor() + 1)).bit_length() + 32)
    full = 1 << bits
    low = -(theta * -full).floor()  # t = ceil(theta * 2^K)
    high = full - low - m_cap
    steps = [(a * full).floor() for a in rates]
    lead, *rest = steps or [0]
    x = 0
    for m in range(1, m_cap + 1):
        x += lead
        if x >= full:
            x -= full
        if low <= x <= high or any(low <= m * a % full <= high for a in rest):
            continue
        if all(c < theta or c > upper for c in ((a * m).mod_one() for a in rates)):
            return m
    raise SearchCapError(f"no admissible M up to cap {m_cap}")


def _commutator_word(exponent: int) -> Word:
    return Word(
        (
            ("b", -1),
            ("a", -exponent),
            ("b", 1),
            ("a", exponent),
            ("b", -1),
            ("a", exponent),
            ("b", 1),
            ("a", -exponent),
        )
    )


def build_h(r_fixed: Iet, g: Iet, M: int, fixing_power: int = 1) -> Tuple[Iet, Word]:
    """h = (g^-1 s^-1 g s)(g^-1 s g s^-1) with s = r_fixed^M.

    The word's exponents fold in the fixing power, so it evaluates against
    the original r rather than r_fixed.
    """
    s = r_fixed.power(M)
    si = s.inverse()
    gi = g.inverse()
    h = (
        gi.compose(si).compose(g).compose(s).compose(gi).compose(s).compose(g).compose(si)
    )
    return h, _commutator_word(M * fixing_power)


def check_small_support(h: Iet, x: IntervalSet) -> bool:
    """Does h move points only inside x?"""
    return x.contains_set(h.support())


def build_k(
    r_fixed: Iet, h: Iet, word_h: Word, d: int, fixing_power: int = 1
) -> Tuple[Iet, Word]:
    """k = r_fixed^d h r_fixed^-d and its word."""
    rd = r_fixed.power(d)
    k = rd.compose(h).compose(rd.inverse())
    wa = Word.generator("a", d * fixing_power)
    return k, wa * word_h * wa.inverse()


def build_T(h: Iet, k: Iet, word_h: Word, word_k: Word) -> Tuple[Iet, Word]:
    """T = k h^-1 k^-1 h and its word."""
    t = k.compose(h.inverse()).compose(k.inverse()).compose(h)
    return t, word_k * word_h.inverse() * word_k.inverse() * word_h


def synthesize(
    r_spec: DisjointRotationSpec,
    g: Iet,
    conjugator: Iet | None = None,
    m_cap: int = DEFAULT_M_CAP,
) -> RelationCertificate:
    cert, _ = synthesize_with_context(r_spec, g, conjugator, m_cap)
    return cert


def synthesize_with_context(
    r_spec: DisjointRotationSpec,
    g: Iet,
    conjugator: Iet | None = None,
    m_cap: int = DEFAULT_M_CAP,
) -> Tuple[RelationCertificate, Optional[SynthesisContext]]:
    """Synthesize a relation word for (r, g) and return the full context.

    With a conjugator c the pair under consideration is (c r c^-1, g); the
    pipeline runs on the normalized pair (r, c^-1 g c) and the word transfers
    unchanged, since w(r, g) = id iff w(c r c^-1, c g c^-1) = id.  The word
    is certified on the normalized pair.
    """
    if not isinstance(r_spec, DisjointRotationSpec):
        raise PreconditionError("r must be given as a DisjointRotationSpec")
    if not isinstance(g, Iet):
        raise PreconditionError("g must be an Iet")
    g_work = g if conjugator is None else conjugator.inverse().compose(g).compose(conjugator)

    order = r_spec.classify()
    if order.kind == FINITE_ORDER:
        word = Word.generator("a", order.order)
        return _certify(word, BRANCH_FINITE_ORDER, r_spec, g_work, L=None), None

    L = r_spec.fixing_power()
    spec_fixed = r_spec.power_spec(L)
    r_fixed = spec_fixed.to_iet()
    supp = r_fixed.support()
    P = compute_P(spec_fixed, g_work)
    P_prime = tuple(p for p in P if supp.contains_point(p))
    d = find_d(r_fixed, P_prime)
    epsilon = find_epsilon(r_fixed, P, d, min_block=r_spec.min_block_length())
    M = find_M(spec_fixed, epsilon, m_cap=m_cap)
    h, word_h = build_h(r_fixed, g_work, M, fixing_power=L)
    X = neighborhood_union(P, epsilon)
    if not check_small_support(h, X):
        raise InvariantError("support of h escaped its neighborhood bound X")

    k = None
    T = None
    if h.is_identity():
        word = word_h
        branch = BRANCH_H_TRIVIAL
    else:
        k, word_k = build_k(r_fixed, h, word_h, d, fixing_power=L)
        T, word_T = build_T(h, k, word_h, word_k)
        if T.is_identity():
            word = word_T
            branch = BRANCH_T_TRIVIAL
        else:
            if not T.power(6).is_identity():
                raise InvariantError("T^6 is not the identity; construction violated")
            word = word_T**6
            branch = BRANCH_T_SIXTH

    cert = _certify(word, branch, r_spec, g_work, L=L, d=d, epsilon=epsilon, M=M)
    ctx = SynthesisContext(
        r_spec=spec_fixed,
        g=g_work,
        fixing_power=L,
        P=P,
        P_prime=P_prime,
        d=d,
        epsilon=epsilon,
        M=M,
        h=h,
        k=k,
        T=T,
        X=X,
        X_prime=X.intersect(supp),
    )
    return cert, ctx


def _certify(
    word: Word,
    branch: str,
    r_spec: DisjointRotationSpec,
    g: Iet,
    L: Optional[int],
    d: Optional[int] = None,
    epsilon: Optional[QuadExt] = None,
    M: Optional[int] = None,
) -> RelationCertificate:
    if word.is_empty():
        raise InvariantError("synthesized word reduced to the empty word")
    if max(abs(exp) for _, exp in word.syllables) >= 10**MAX_EXPONENT_DIGITS:
        raise SearchCapError(
            "the word has an exponent of more than "
            f"MAX_EXPONENT_DIGITS = {MAX_EXPONENT_DIGITS} digits"
        )
    if not verify_word(word, r_spec, g):
        raise InvariantError("synthesized word does not evaluate to the identity")
    return RelationCertificate(
        word=word, branch=branch, L=L, d=d, epsilon=epsilon, M=M, verified=True
    )
