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
  * h = [g^-1 s^-1 g, s] = (g^-1 s^-1 g s)(g^-1 s g s^-1) is then supported
    inside X, its conjugate k = r^d h r^-d has support disjoint from h's
    inside supp r, and that forces T = [k, h^-1] to have order dividing 6.

s = r^M and r^d are taken in closed form (`DisjointRotationSpec.power`),
not by repeated squaring.

The searches for P, d and epsilon run on integers (`_search`): P is held
from the start as ascending, distinct integer pairs over one lattice
(1/N)(Z + Z sqrt(D)), that of g and of every power of r, and every order
decision is the exact sign of an integer difference, with no QuadExt
comparison.  g^-1 moves the block bounds in one walk, one sort of pairs
joins them with the bounds and disc(g), and P' is read by one walk beside
supp r's ends.  find_d moves the pairs by r, and each separation check of
find_epsilon walks end lists over N * 2^k, where the radius is the least
gap of P itself; the search hands synthesis X and X' at the epsilon it
found.  The two closed-form bounds on epsilon are taken once per search as
floors of exact QuadExt values, 10 eps0 and 4 eps0 / (least block), and
P and P' become QuadExt values by scalars._values.  The public compute_P,
find_d and find_epsilon take and return QuadExt values around the same
cores.

The emitted word is, by branch: a^q, the word of h when h is trivial, the
word of T when T is trivial, and the word of T concatenated six times
otherwise.  T is decided without building k or T, by the case table of
finite_model.classify_point: with A = supp h & X', which r^d moves off
itself, T = 1 exactly when h maps A onto itself, and always when supp h
lies in X' (then A = supp h).  Every branch re-checks that the word
evaluates to the identity exactly before it is certified, with
`verify_word`: the syllable-by-syllable checker behind `ietrel verify`,
which shares no map arithmetic with the Iet algebra that built h.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvariantError, PreconditionError, SearchCapError
from .iet import Iet, _image_ends, _image_order, _image_points
from .intervals import IntervalSet, _ball_ends, _from_ends, _merge_ends, neighborhood_union
from .intervals import circular_ball  # noqa: F401 -- perfbench/tracing.py wraps the name here
from .rotation import FINITE_ORDER, DisjointRotationSpec
from .scalars import (
    ONE, Pair, QuadExt, _lattice, _make, _merged_disc, _pair, _ranks, _sign3, _values,
    as_scalar,
)
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

# find_M visits only the M that one block's integer filter passes, about a
# 2 * theta share of those up to the cap.  At the cap, in-process, CPython
# 3.11 on one x86 core of a shared host (medians of five runs): epsilon =
# 10^-9 on one block, under 1 ms; ten blocks with rates frac((7^j + 3j) *
# sqrt(2)), j = 1 .. 10, and epsilon = 1/41, 0.4 s.  Six such blocks with
# epsilon = 1/25 stop at M = 15994428 in 0.13 s.
DEFAULT_M_CAP = 100_000_000
# find_epsilon raises SearchCapError when eps0 / 2^MAX_HALVINGS still fails.
MAX_HALVINGS = 200


class RelationCertificate(NamedTuple):
    """A verified relation: word evaluates to the identity on (r, g)."""

    word: Word
    branch: str
    L: Optional[int] = None
    d: Optional[int] = None
    epsilon: Optional[QuadExt] = None
    M: Optional[int] = None
    verified: bool = False


class SynthesisContext(NamedTuple):
    """Every intermediate object of one synthesis run, for inspection; no k
    or T, which synthesis does not build (build_k and build_T do)."""

    r_spec: DisjointRotationSpec  # post-fixing-power spec
    g: Iet  # the working copy of g (conjugator already absorbed)
    fixing_power: int
    P: Tuple[QuadExt, ...]
    P_prime: Tuple[QuadExt, ...]
    d: int
    epsilon: QuadExt
    M: int
    h: Iet
    X: IntervalSet
    X_prime: IntervalSet
    fallback_used = False  # a constant: synthesis has no retry; perfbench/tracing.py reads it


def compute_P(r_spec: DisjointRotationSpec, g: Iet) -> Tuple[QuadExt, ...]:
    """Block endpoints of r, their preimages under g, and disc(g), sorted."""
    return _values(*_points(r_spec, g))


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
    return _find_d(r, *_ascending(pts, r._den, r._disc))


def find_epsilon(
    r: Iet,
    points: Sequence[QuadExt],
    d: int,
    min_block: QuadExt | None = None,
) -> QuadExt:
    """Largest eps = eps0 / 2^t (t minimal) passing every separation check.

    eps0 is half the minimum circular gap of the point set (1/4 for a single
    point), which already makes the balls pairwise disjoint.  Halving
    continues until additionally 10*eps < 1, eps is below a quarter of
    min_block (the least block length; None stands for 1, a bound that
    10*eps < 1 already implies), and the supported part X' of the ball
    union X is moved off itself by r^d.  Each check that holds for eps holds
    for every smaller eps, since X' shrinks with eps, so the least t is
    found by galloping: the first two checks give t0 in closed form, and the
    third is tried at t0, t0 + 1, t0 + 2, t0 + 4, ... and then bisected.
    t stays below MAX_HALVINGS.

    The search runs on integer pairs over one lattice, in `_separate`.
    """
    supp = r.support()
    rd = r.power(d)
    pts, den, disc = _ascending(points, *supp._joint(rd)[:2])
    block = ONE if min_block is None else as_scalar(min_block)
    return _separate(pts, supp, rd, block, den, disc)[0]


# -- the searches on integer pairs (see the module docstring) ----------------------


def _search(
    spec: DisjointRotationSpec, g: Iet, min_block: QuadExt
) -> Tuple[Tuple[QuadExt, ...], Tuple[QuadExt, ...], int, QuadExt, IntervalSet, IntervalSet]:
    """P, P', d, epsilon, X and X' for synthesis on the pair (spec, g), spec
    at its fixing power: compute_P, find_d and find_epsilon on the one
    lattice of g and of every power of spec, which _points takes.  P' is the
    part of P in supp r, by one walk beside supp's ends, and r^d comes from
    spec's closed form."""
    r = spec.to_iet()
    supp = r.support()
    pts, den, disc = _points(spec, g)
    (ends,) = supp._over(den)
    pts_prime = [p for p, rank in zip(pts, _ranks(pts, ends, disc)) if rank & 1]
    d = _find_d(r, pts_prime, den, disc)
    return (_values(pts, den, disc), _values(pts_prime, den, disc), d,
            *_separate(pts, supp, spec.power(d), min_block, den, disc))


def _ascending(values: Sequence, den: int, disc: int) -> Tuple[List[Pair], int, int]:
    """The values as ascending, distinct pairs over the lattice of den, disc
    and the values, with that lattice's N and D."""
    values = [as_scalar(v) for v in values]
    den, disc = _lattice(values, den, disc)
    return _sorted_pairs([_pair(v, den) for v in values], disc), den, disc


def _sorted_pairs(pairs: Sequence[Pair], disc: int) -> List[Pair]:
    # the distinct pairs, ascending by the exact sign of their differences
    key = cmp_to_key(lambda u, v: _sign3(u[0] - v[0], u[1] - v[1], disc))
    return sorted(set(pairs), key=key)


def _points(r_spec: DisjointRotationSpec, g: Iet) -> Tuple[List[Pair], int, int]:
    """compute_P's points, ascending and distinct, with the N and D of the
    lattice of g and of every power of r_spec (r_spec._lattice_with), over
    which they lie.  g^-1 moves the ascending block bounds in one walk
    (iet._image_points)."""
    den, disc = r_spec._lattice_with(g)
    bounds = r_spec._over(den)[2][:-1]
    bps, trs = g.inverse()._over(den)
    preimages = _image_points(bps, trs, _image_order(bps, trs, den)[0], bounds, disc)
    return _sorted_pairs([*bounds, *preimages, *g._over(den)[0][1:]], disc), den, disc


def _find_d(r: Iet, pts: Sequence[Pair], den: int, disc: int) -> int:
    """find_d on ascending points over den, a multiple of r's N: r moves them
    by one walk (iet._image_points), which keeps them ascending, and the
    images are checked against the points as a set of pairs."""
    bps, trs = r._over(den)
    order = _image_order(bps, trs, den)[0]
    base = set(pts)
    images = pts
    cap = len(pts) ** 2 + 1
    for d in range(1, cap + 1):
        images = _image_points(bps, trs, order, images, disc)
        if base.isdisjoint(images):
            return d
    raise InvariantError(f"no admissible d up to {cap}; orbit structure violated")


def _separate(
    pts: Sequence[Pair],
    supp: IntervalSet,
    rd: Iet,
    min_block: QuadExt,
    den: int,
    disc: int,
) -> Tuple[QuadExt, IntervalSet, IntervalSet]:
    """find_epsilon on the ascending, distinct points pts over den, a
    multiple of the N of supp = supp r and of rd = r^d: epsilon, and X and
    X' = X & supp at that epsilon.

    eps0 is half the least circular gap of the points, so the t-th halving
    has radius gap / 2^(t + 1): at the lattice den * 2^(t + 1) the radius is
    the gap pair itself.  A lone point has gap 1 and eps0 = 1/4, one halving
    later.  Each separation check scales the points, supp's ends and rd's
    pieces to that lattice and walks end lists: X's ends (`_ball_ends`), X'
    (`_merge_ends`), X''s image under rd cut at its pieces in an image order
    found once (`_image_ends`), and the disjointness of the two."""
    (ends,) = supp._over(den)
    bps, trs = rd._over(den)
    order = _image_order(bps, trs, den)[0]
    if len(pts) >= 2:
        ga, gb = pts[0][0] + den - pts[-1][0], pts[0][1] - pts[-1][1]
        for (a0, b0), (a1, b1) in zip(pts, pts[1:]):
            if _sign3(a1 - a0 - ga, b1 - b0 - gb, disc) < 0:
                ga, gb = a1 - a0, b1 - b0
        shift = 1
    else:
        ga, gb, shift = den, 0, 2
    # the least t with x < 2^t, for x > 0, is floor(x).bit_length(): for
    # x = 10 eps0 and x = 4 eps0 / (least block), exact QuadExt values whose
    # floors are taken once
    eps0 = _make(ga, gb, den << shift, disc)
    disc = _merged_disc(disc, min_block.disc)
    t0 = max((10 * eps0).floor(), (4 * eps0 / min_block).floor()).bit_length()
    last = MAX_HALVINGS - 1
    cap = f"no admissible epsilon after MAX_HALVINGS = {MAX_HALVINGS}"
    if t0 > last:
        raise SearchCapError(cap)

    def moved_off(t: int) -> Optional[Tuple[List[Pair], List[Pair]]]:
        # the ends of X and X' at the t-th halving, or None if r^d does not
        # move X' off itself
        k = t + shift
        x = _ball_ends([(a << k, b << k) for a, b in pts], (ga, gb), den << k, disc)
        x_prime = _merge_ends(x, [(a << k, b << k) for a, b in ends], disc, True)
        image = _image_ends([(a << k, b << k) for a, b in bps],
                            [(a << k, b << k) for a, b in trs], order, x_prime, disc)
        return None if _merge_ends(x_prime, image, disc, True) else (x, x_prime)

    failed, t = t0 - 1, t0  # failed: the largest t known to fail
    while not (kept := moved_off(t)):
        if t == last:
            raise SearchCapError(cap)
        failed, t = t, min(last, t0 + max(1, 2 * (t - t0)))
    while t - failed > 1:
        mid = (failed + t) // 2
        if found := moved_off(mid):
            t, kept = mid, found
        else:
            failed = mid
    n = den << (t + shift)
    return _make(ga, gb, n, disc), _from_ends(n, disc, kept[0]), _from_ends(n, disc, kept[1])


def find_M(
    r_spec: DisjointRotationSpec, epsilon: QuadExt, m_cap: int = DEFAULT_M_CAP
) -> int:
    """Smallest M >= 1 with every block rate of r^M within theta = epsilon/10
    of 0 circularly: frac(M * alpha_j) < theta or > 1 - theta for every j.

    A filtered search, exact in every decision.  Each nonzero rate alpha is
    taken as the integer A = floor(alpha * 2^K), found once with
    `QuadExt.floor`.  Since m * alpha * 2^K exceeds m * A by less than m, the
    true frac(m * alpha) * 2^K lies in [x, x + m) with x = m * A mod 2^K.  A
    block with t <= x and x + m_cap <= 2^K - t, where t = ceil(theta * 2^K),
    is at least theta from 0 on both sides, so m fails with integer work
    only.  K has at least 96 bits and 32 to spare over m_cap / theta.

    The first block's filter passes m exactly when x lies in the arc of the
    residues from 2^K - t - m_cap + 1 up to t - 1 + 2^K, about a 2 * theta
    share of all m, and `_arc_hits` lists just those m, with a few integer
    steps each.  Each of them goes to the other blocks' filters, and an m
    that no block rejects is decided by the exact test on
    (alpha * m).mod_one().  Zero rates always pass and are left out.
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
    for m in _arc_hits(lead, full, high + 1, low - 1 + full - high):
        if m > m_cap:
            break
        for a in rest:
            if low <= m * a % full <= high:
                break
        else:
            if all(c < theta or c > upper for c in ((a * m).mod_one() for a in rates)):
                return m
    raise SearchCapError(f"no admissible M up to cap {m_cap}")


def _arc_hits(a: int, n: int, p: int, w: int) -> Iterator[int]:
    """In increasing order, the m >= 1 with m * a mod n among the w >= 1
    residues from p, that is in [p, p + w) taken mod n; every m >= 1 once w
    passes n / 2.

    `_first_hit` finds the first, and two gaps: ga, the least g >= 1 with
    g * a mod n < w, and gb, the least with it > n - w.  From an m at offset
    u = m * a - p mod n in [0, w), m + g qualifies exactly when u + g * a
    mod n < w, and while w is at most n / 2 the first of m + ga, m + gb and
    m + ga + gb that qualifies is the next m that does: the three-gap theorem
    (Slater, 1967).  So each m after the first costs a few integer steps.
    """
    if 2 * w > n:
        w = n

    def after(c: int, q: int, v: int) -> Optional[int]:
        # the least x >= 0 with c + x * a mod n among the v residues from q
        lo = (q - c) % n
        return 0 if lo + v > n else _first_hit(a, n, lo, lo + v - 1)

    x = after(a, p, w)
    if x is None:
        return
    m = 1 + x
    yield m
    ga = 1 + after(a, 0, w)  # g = n / gcd(a, n) has g * a mod n = 0, so ga exists
    gb = after(a, 1 - w, w - 1) if w > 1 else None
    gaps = [ga] if gb is None else [ga, 1 + gb, 1 + ga + gb]
    gaps = sorted((g, g * a % n) for g in gaps)
    u = (m * a - p) % n
    while True:
        for g, step in gaps:
            v = (u + step) % n
            if v < w:
                m += g
                u = v
                break
        else:
            return
        yield m


def _first_hit(a: int, n: int, lo: int, hi: int) -> Optional[int]:
    """The least x >= 0 with lo <= a * x mod n <= hi, for 0 <= lo <= hi < n,
    or None when there is none.

    If no x with a * x in [lo, hi] works outright, that span lies strictly
    between two multiples of a, and x works for the least t >= 0 with a
    multiple of a in [lo + n * t, hi + n * t], which is the least t with
    (n mod a) * t mod a in [a - hi mod a, a - lo mod a]: the same question
    for (n mod a, a), as in Euclid's algorithm, and x = ceil((lo + n * t) / a).
    The way back up multiplies no two large numbers: with n = q * a + r,
    and t landing one level down on rho = r * t mod a after floor(r * t / a)
    wraps (the answer two levels down), x = q * t + floor(r * t / a) +
    ceil((lo + rho) / a), and a * x mod n = a * ceil((lo + rho) / a) - rho.
    Both ways are loops, so a 13000-bit n takes about 10^4 levels and no
    recursion."""
    a %= n
    levels = []
    while lo:
        if a == 0:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        q, r = divmod(n, a)
        levels.append((a, q, lo))
        a, n, lo, hi = r, a, a - hi % a, a - lo % a
    else:
        x = 0
    t, rho = 0, a * x  # at the lowest level, a * x lands without a wrap
    for a, q, lo in reversed(levels):
        c = -(-(lo + rho) // a)
        x, t, rho = q * x + t + c, x, a * c - rho
    return x


def _commutator(x, y, times):
    """[x, y] = x y x^-1 y^-1, times the product of x's type: Word.__mul__
    for words, Iet.compose for maps (looked up by the caller when it runs)."""
    return times(times(times(x, y), x.inverse()), y.inverse())


def build_h(
    r_fixed: Iet | DisjointRotationSpec, g: Iet, M: int, fixing_power: int = 1
) -> Tuple[Iet, Word]:
    """h = [g^-1 s^-1 g, s] and its word [b^-1 a^-e b, a^e], with s = r_fixed^M
    taken by r_fixed.power: repeated squaring for an Iet, the closed form for
    a spec.

    The word's exponent e = M * fixing_power folds in the fixing power, so it
    evaluates against the original r rather than r_fixed.
    """
    s = r_fixed.power(M)
    b, a = Word.generator("b"), Word.generator("a", M * fixing_power)
    h = _commutator(g.inverse().compose(s.inverse()).compose(g), s, Iet.compose)
    return h, _commutator(b.inverse() * a.inverse() * b, a, Word.__mul__)


def check_small_support(h: Iet, x: IntervalSet) -> bool:
    """Does h move points only inside x?"""
    return x.contains_set(h.support())


def build_k(
    r_fixed: Iet | DisjointRotationSpec, h: Iet, word_h: Word, d: int, fixing_power: int = 1
) -> Tuple[Iet, Word]:
    """k = r_fixed^d h r_fixed^-d, h conjugated by r_fixed^d (taken as in
    build_h), and its word; the benchmark's synthesis_plan and the tests'
    oracle call it, synthesis not."""
    return h.conjugate(r_fixed.power(d)), _word_k(word_h, d * fixing_power)


def build_T(h: Iet, k: Iet, word_h: Word, word_k: Word) -> Tuple[Iet, Word]:
    """T = [k, h^-1] = k h^-1 k^-1 h and its word [word_k, word_h^-1]; like
    build_k, not called by synthesis."""
    T = _commutator(k, h.inverse(), Iet.compose)
    return T, _commutator(word_k, word_h.inverse(), Word.__mul__)


def _word_k(word_h: Word, exponent: int) -> Word:
    wa = Word.generator("a", exponent)
    return wa * word_h * wa.inverse()


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
    g_work = g if conjugator is None else g.conjugate(conjugator.inverse())

    order = r_spec.classify()
    if order.kind == FINITE_ORDER:
        word = Word.generator("a", order.order)
        return _certify(word, BRANCH_FINITE_ORDER, r_spec, g_work, L=None), None

    L = r_spec.fixing_power()
    spec_fixed = r_spec.power_spec(L)
    P, P_prime, d, epsilon, X, X_prime = _search(
        spec_fixed, g_work, r_spec.min_block_length()
    )
    M = find_M(spec_fixed, epsilon, m_cap=m_cap)
    h, word_h = build_h(spec_fixed, g_work, M, fixing_power=L)
    # X' lies in X: supp h inside X' settles the bound and, below, T = 1;
    # only otherwise is supp h tested against X itself
    in_X_prime = check_small_support(h, X_prime)
    if not (in_X_prime or check_small_support(h, X)):
        raise InvariantError("support of h escaped its neighborhood bound X")

    if h.is_identity():
        word = word_h
        branch = BRANCH_H_TRIVIAL
    else:
        # T = 1 exactly when h maps A = supp h & X' onto itself: the case
        # table of finite_model.classify_point, whose hypothesis is that r^d
        # moves A off itself.  It holds here, since supp h in X puts A inside
        # X', which find_epsilon moved off itself by r^d.  With supp h inside
        # X', A is supp h, which h maps onto itself
        word_T = _commutator(_word_k(word_h, d * L), word_h.inverse(), Word.__mul__)
        if in_X_prime or h.image_of(A := X_prime.intersect(h.support())) == A:
            word = word_T
            branch = BRANCH_T_TRIVIAL
        else:
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
        X=X,
        X_prime=X_prime,
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
