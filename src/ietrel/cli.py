"""Command-line interface.

Commands: compose, pow, eval, orbit, l1, disc-growth, synthesize, verify,
prop-check.  Inputs are documents (see documents.py); map arguments accept
iet, perm-lambda or rotation documents interchangeably.

Exit codes:
  0  success;
  1  verification failure or internal invariant violation;
  2  parse error, such as an integer literal with a digit outside ASCII
     0-9;
  3  precondition or context error, such as an iet whose images do not
     tile [0, 1), or a count below its floor: orbit --n, disc-growth
     --max-n or synthesize --m-cap below 1, prop-check --size below
     finite_model.MIN_POINTS, or --trials below 1;
  4  a search cap exhausted, or an input past a size cap: a discriminant
     above scalars.MAX_DISC, an integer literal with more significant
     digits than its cap (the 11 digits of MAX_DISC for a discriminant,
     words.MAX_EXPONENT_DIGITS for a word exponent, and
     scalars.MAX_PRINT_DIGITS for a scalar's numerator or denominator and
     for a document integer), a word with more than words.MAX_B_LETTERS
     b letters, a word whose pushes in verify may walk more than
     words.MAX_VERIFY_PIECES pieces, |pow --n| above MAX_POW_N, orbit --n
     above MAX_ORBIT_N, disc-growth --max-n above MAX_GROWTH_N,
     synthesize --m-cap above relations.DEFAULT_M_CAP, a map whose piece
     count lets the pieces pow or disc-growth may build pass MAX_POW_PIECES
     or MAX_GROWTH_PIECES, or prop-check --size above MAX_EXHAUSTIVE_SIZE
     (exhaustive) or MAX_RANDOM_SIZE (random), or --trials above
     MAX_TRIALS.  Also a synthesized word with an exponent of more than
     words.MAX_EXPONENT_DIGITS digits, which verify would refuse, and an
     exact value to print with an integer of more than
     scalars.MAX_PRINT_DIGITS digits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import random
import sys
from typing import Optional, Tuple

from .documents import (
    KIND_CERTIFICATE,
    KIND_IET,
    KIND_PERM_LAMBDA,
    KIND_ROTATION,
    KIND_WORD,
    Document,
    document,
    emit_certificate,
    emit_document,
    infer_disc,
    parse_document,
)
from .errors import (
    ContextMismatchError,
    InvariantError,
    ParseError,
    PreconditionError,
    SearchCapError,
)
from .finite_model import (
    MIN_POINTS,
    CommutatorInstance,
    check_hypotheses,
    classify_point,
    compute_T,
    enumerate_instances,
    orbit_sizes,
    random_instance,
)
from .iet import Iet, PermLambdaSpec
from .relations import DEFAULT_M_CAP, RelationCertificate, synthesize_with_context
from .rotation import DisjointRotationSpec
from .scalars import QuadExt
from .words import verify_word
from .words import eval_word_naive  # noqa: F401 -- perfbench/tracing.py wraps the name here

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SEARCH_CAP = 4

# Size caps on counts given on the command line, checked before any work.
# f^n of a generic 4-interval map has 3n + 1 pieces.  Beside each cap: time
# and peak memory at the cap for such a map, on CPython 3.11, one x86 core
# of a shared host (the median of five runs; single runs vary by about 30 %).
MAX_POW_N = 10**4  # pow --n 10000: 1.0 s, 39 MB
MAX_ORBIT_N = 10**5  # orbit keeps every point; --n 100000: 1.3 s, 38 MB
MAX_GROWTH_N = 500  # disc-growth walks max-n powers; --max-n 500: 0.25 s, 17 MB
# prop-check --exhaustive scans all m!^2 pairs of permutations, so size 7
# has 49 times the pairs of size 6; a random instance costs O(m^2).
MAX_EXHAUSTIVE_SIZE = 6  # prop-check --size 6 --exhaustive: 1.3 s, 17 MB
MAX_RANDOM_SIZE = 30  # prop-check --size 30 --trials 5000: 1.1 s, 17 MB
MAX_TRIALS = 5000  # the same run: both random caps at once


def _pow_pieces(k: int, n: int) -> int:
    """Most pieces f^n can have when f has k pieces."""
    return (k - 1) * abs(n) + 1


def _growth_pieces(k: int, max_n: int) -> int:
    """Most pieces disc-growth builds in all, f^1 up to f^max_n, when f has k pieces."""
    return (k - 1) * max_n * (max_n + 1) // 2 + max_n


# Caps on the work a map brings with it, checked once the map is loaded: what
# the count caps above allow a 4-interval map.
MAX_POW_PIECES = _pow_pieces(4, MAX_POW_N)  # 30001
MAX_GROWTH_PIECES = _growth_pieces(4, MAX_GROWTH_N)  # 376250


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path: str, *kinds: str) -> Document:
    """Read and parse the document at path, which must be one of kinds."""
    try:
        return parse_document(_read(path), *kinds)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_map(path: str) -> Tuple[Iet, int]:
    """Load any map-shaped document as an Iet, plus its context D."""
    doc = _load(path, KIND_IET, KIND_PERM_LAMBDA, KIND_ROTATION)
    f = doc.payload
    if isinstance(f, PermLambdaSpec):
        f = Iet.from_perm_lambda(f)
    elif isinstance(f, DisjointRotationSpec):
        f = f.to_iet()
    return f, doc.disc


def _check_cap(what: str, value: int, cap_name: str, cap: int) -> None:
    if value > cap:
        raise SearchCapError(f"{what} {value} exceeds {cap_name} = {cap}")


def _check_floor(what: str, value: int, least: int) -> None:
    # a count below its floor would run nothing and still report success
    if value < least:
        raise PreconditionError(f"{what} must be at least {least}, got {value}")


# -- commands ---------------------------------------------------------------


def _cmd_compose(args) -> int:
    f, _ = _load_map(args.f)
    g, _ = _load_map(args.g)
    _write_out(emit_document(document(f.compose(g))), args.output)
    return EXIT_OK


def _cmd_pow(args) -> int:
    _check_cap("|pow --n|", abs(args.n), "MAX_POW_N", MAX_POW_N)
    f, _ = _load_map(args.map)
    k = f.num_intervals
    _check_cap(f"pieces of f^{args.n} for a {k}-interval f: up to",
               _pow_pieces(k, args.n), "MAX_POW_PIECES", MAX_POW_PIECES)
    _write_out(emit_document(document(f.power(args.n))), args.output)
    return EXIT_OK


def _cmd_eval(args) -> int:
    f, disc = _load_map(args.map)
    x = QuadExt.parse(args.x, disc=disc if disc else None)
    _write_out(emit_document(document(f.apply(x))), args.output)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    _check_cap("orbit --n", args.n, "MAX_ORBIT_N", MAX_ORBIT_N)
    f, disc = _load_map(args.map)
    x = QuadExt.parse(args.x, disc=disc if disc else None)
    lines = "".join(f"{p}\n" for p in f.orbit(x, args.n))
    _write_out(lines, args.output)
    return EXIT_OK


def _cmd_l1(args) -> int:
    f, _ = _load_map(args.map)
    dist = f.l1_distance_to_identity()
    _write_out(f"exact = {dist}\nfloat = {float(dist)}\n", args.output)
    return EXIT_OK


def _cmd_disc_growth(args) -> int:
    _check_floor("disc-growth --max-n", args.max_n, 1)
    _check_cap("disc-growth --max-n", args.max_n, "MAX_GROWTH_N", MAX_GROWTH_N)
    f, _ = _load_map(args.map)
    k = f.num_intervals
    _check_cap(f"pieces of f^1 to f^{args.max_n} for a {k}-interval f: up to",
               _growth_pieces(k, args.max_n), "MAX_GROWTH_PIECES", MAX_GROWTH_PIECES)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "discontinuities", "l1_exact", "l1_float"])
    for n, discontinuities, dist in f.growth(args.max_n):
        writer.writerow([n, discontinuities, str(dist), float(dist)])
    _write_out(buf.getvalue(), args.output)
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    # relations.DEFAULT_M_CAP records find_M's time at the cap
    _check_floor("synthesize --m-cap", args.m_cap, 1)
    _check_cap("synthesize --m-cap", args.m_cap, "DEFAULT_M_CAP", DEFAULT_M_CAP)
    spec = _load(args.r, KIND_ROTATION).payload
    g, _ = _load_map(args.g)
    conjugator = None
    if args.conjugator is not None:
        conjugator, _ = _load_map(args.conjugator)
    cert, ctx = synthesize_with_context(spec, g, conjugator, m_cap=args.m_cap)
    _write_out(emit_certificate(cert, disc=infer_disc(spec, g, cert)), args.output)
    params = ", ".join(
        f"{k}={v}"
        for k, v in (("L", cert.L), ("d", cert.d), ("epsilon", cert.epsilon), ("M", cert.M))
        if v is not None
    )
    print(
        f"branch {cert.branch}"
        + (f" ({params})" if params else "")
        + f"; word has {cert.word.syllable_count()} syllables, verified",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    word = _load(args.word, KIND_WORD, KIND_CERTIFICATE).payload
    if isinstance(word, RelationCertificate):
        word = word.word
    spec = _load(args.r, KIND_ROTATION).payload
    g, _ = _load_map(args.g)
    if word.is_empty():
        print("verification failed: word is empty after free reduction", file=sys.stderr)
        return EXIT_VERIFICATION
    if verify_word(word, spec, g):
        print(f"verified: {word.letter_count()} letters evaluate to the identity")
        return EXIT_OK
    print("verification failed: word does not evaluate to the identity", file=sys.stderr)
    return EXIT_VERIFICATION


def _check_instance(inst: CommutatorInstance) -> Optional[str]:
    if not check_hypotheses(inst):
        return "hypothesis A disjoint from phi(A) violated"
    t = compute_T(inst)
    sizes = orbit_sizes(t)
    if any(s not in (1, 2, 3) for s in sizes):
        return f"T has a cycle of length outside {{1,2,3}}: {sizes}"
    for p in range(inst.m):
        label, image = classify_point(p, inst)
        if t[p] != image:
            return f"case table disagrees at point {p} (case {label})"
        if p in inst.A and t[p] in inst.C:
            return f"point {p} realizes the impossible A to C transition"
    return None


def _cmd_prop_check(args) -> int:
    _check_floor("prop-check --size", args.size, MIN_POINTS)
    if args.exhaustive:
        _check_cap("prop-check --exhaustive --size", args.size,
                   "MAX_EXHAUSTIVE_SIZE", MAX_EXHAUSTIVE_SIZE)
        instances = enumerate_instances(args.size)
        label = f"exhaustive size {args.size}"
    else:
        _check_cap("prop-check --size", args.size, "MAX_RANDOM_SIZE", MAX_RANDOM_SIZE)
        _check_floor("prop-check --trials", args.trials, 1)
        _check_cap("prop-check --trials", args.trials, "MAX_TRIALS", MAX_TRIALS)
        rng = random.Random(args.seed)
        instances = (random_instance(args.size, rng) for _ in range(args.trials))
        label = f"{args.trials} random trials at size {args.size} (seed {args.seed})"
    total = 0
    for inst in instances:
        failure = _check_instance(inst)
        if failure is not None:
            print(f"FAIL after {total} instances: {failure}", file=sys.stderr)
            return EXIT_VERIFICATION
        total += 1
    print(f"ok: {label}, {total} instances, T^6 = id and case table agree")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ietrel",
        description="Exact interval exchange transformations and relation synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="compose two maps (f after g)")
    p.add_argument("--f", required=True, help="map document applied second")
    p.add_argument("--g", required=True, help="map document applied first")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("pow", help="integer power of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_pow)

    p = sub.add_parser("eval", help="apply a map to a point")
    p.add_argument("--map", required=True)
    p.add_argument("--x", required=True, help="point in the scalar grammar")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("orbit", help="first n orbit points of x")
    p.add_argument("--map", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("l1", help="exact L1 distance to the identity")
    p.add_argument("--map", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_l1)

    p = sub.add_parser("disc-growth", help="CSV of discontinuity growth and L1 decay")
    p.add_argument("--map", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_disc_growth)

    p = sub.add_parser("synthesize", help="synthesize a relation word for (r, g)")
    p.add_argument("--r", required=True, help="rotation document")
    p.add_argument("--g", required=True, help="map document")
    p.add_argument("--conjugator", help="map document c; r is then c r c^-1")
    p.add_argument("--m-cap", type=int, default=DEFAULT_M_CAP)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser(
        "verify",
        help="check exactly that a relation word evaluates to the identity, "
        "pushing pieces of [0, 1) through it syllable by syllable, the root of "
        "a power once",
    )
    p.add_argument("--word", required=True, help="word or certificate document")
    p.add_argument("--r", required=True, help="rotation document")
    p.add_argument("--g", required=True, help="map document")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("prop-check", help="finite-model property checks")
    p.add_argument("--size", type=int, required=True, help="number of points")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prop_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once, on first use: it costs about 20 parses
    return build_parser()


def _attach_x(argv) -> list:
    # argparse reads a token that starts with "-" as an option, not as the
    # value of --x; "-1+1*sqrt(2)" is how the program itself writes
    # sqrt(2) - 1, so the token after --x is joined to it as --x=<value>
    out = []
    for token in argv:
        if out and out[-1] == "--x":
            out[-1] = f"--x={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_x(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ContextMismatchError as exc:
        print(f"context error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SearchCapError as exc:
        print(f"search cap exhausted: {exc}", file=sys.stderr)
        return EXIT_SEARCH_CAP
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
