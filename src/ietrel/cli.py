"""Command-line interface.

Commands: compose, pow, eval, orbit, l1, disc-growth, synthesize, verify,
prop-check.  Inputs are documents (see documents.py); map arguments accept
iet, perm-lambda or rotation documents interchangeably.

Exit codes:
  0  success;
  1  verification failure or internal invariant violation;
  2  parse error;
  3  precondition or context error, such as an iet whose images do not
     tile [0, 1);
  4  a search cap exhausted, or an input past a size cap: a discriminant
     above scalars.MAX_DISC, a word with more than words.MAX_B_LETTERS
     b letters, |pow --n| above MAX_POW_N, orbit --n above MAX_ORBIT_N,
     or disc-growth --max-n above MAX_GROWTH_N.
"""

from __future__ import annotations

import argparse
import csv
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
    document,
    emit_certificate,
    emit_document,
    infer_disc,
    parse_document,
    _scalars_of,
)
from .errors import (
    ContextMismatchError,
    InvariantError,
    ParseError,
    PreconditionError,
    SearchCapError,
)
from .finite_model import (
    CommutatorInstance,
    check_hypotheses,
    classify_point,
    compute_T,
    enumerate_instances,
    orbit_sizes,
    random_instance,
)
from .iet import Iet
from .relations import DEFAULT_M_CAP, synthesize_with_context
from .rotation import DisjointRotationSpec
from .scalars import QuadExt
from .words import Word, verify_word
from .words import eval_word_naive  # noqa: F401 -- perfbench/tracing.py wraps the name here

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SEARCH_CAP = 4

# Size caps on counts given on the command line, checked before any work.
# f^n of a generic 4-interval map has 3n + 1 pieces.  Beside each cap: time
# and peak memory at the cap for such a map, on CPython 3.11, one x86 core.
MAX_POW_N = 10**4  # pow --n 10000: 1.0 s, 38 MB
MAX_ORBIT_N = 10**5  # orbit keeps every point; --n 100000: 0.7 s, 43 MB
MAX_GROWTH_N = 500  # disc-growth composes max-n times; --max-n 500: 2.2 s, 21 MB


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_map(path: str) -> Tuple[Iet, int]:
    """Load any map-shaped document as an Iet, plus its context D."""
    doc = parse_document(_read(path))
    if doc.kind == KIND_IET:
        return doc.payload, doc.disc
    if doc.kind == KIND_PERM_LAMBDA:
        return Iet.from_perm_lambda(doc.payload), doc.disc
    if doc.kind == KIND_ROTATION:
        return doc.payload.to_iet(), doc.disc
    raise ParseError(f"{path}: expected a map document, got kind {doc.kind!r}")


def _load_rotation(path: str) -> DisjointRotationSpec:
    doc = parse_document(_read(path))
    if doc.kind != KIND_ROTATION:
        raise ParseError(f"{path}: expected a rotation document, got kind {doc.kind!r}")
    return doc.payload


def _load_word(path: str) -> Word:
    doc = parse_document(_read(path))
    if doc.kind == KIND_WORD:
        return doc.payload
    if doc.kind == KIND_CERTIFICATE:
        return doc.payload.word
    raise ParseError(
        f"{path}: expected a word or certificate document, got kind {doc.kind!r}"
    )


def _check_cap(flag: str, value: int, cap_name: str, cap: int) -> None:
    if value > cap:
        raise SearchCapError(f"{flag} {value} exceeds {cap_name} = {cap}")


# -- commands ---------------------------------------------------------------


def _cmd_compose(args) -> int:
    f, _ = _load_map(args.f)
    g, _ = _load_map(args.g)
    _write_out(emit_document(document(f.compose(g))), args.output)
    return EXIT_OK


def _cmd_pow(args) -> int:
    _check_cap("|pow --n|", abs(args.n), "MAX_POW_N", MAX_POW_N)
    f, _ = _load_map(args.map)
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
    _check_cap("disc-growth --max-n", args.max_n, "MAX_GROWTH_N", MAX_GROWTH_N)
    f, _ = _load_map(args.map)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "discontinuities", "l1_exact", "l1_float"])
    cur = Iet.identity()
    for n in range(1, args.max_n + 1):
        cur = cur.compose(f)
        dist = cur.l1_distance_to_identity()
        writer.writerow([n, len(cur.discontinuities()), str(dist), float(dist)])
    _write_out(buf.getvalue(), args.output)
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    spec = _load_rotation(args.r)
    g, _ = _load_map(args.g)
    conjugator = None
    if args.conjugator is not None:
        conjugator, _ = _load_map(args.conjugator)
    cert, ctx = synthesize_with_context(spec, g, conjugator, m_cap=args.m_cap)
    disc = infer_disc(
        _scalars_of(spec) + _scalars_of(g) + (() if cert.epsilon is None else (cert.epsilon,))
    )
    _write_out(emit_certificate(cert, disc=disc), args.output)
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
    return EXIT_OK if cert.verified else EXIT_VERIFICATION


def _cmd_verify(args) -> int:
    word = _load_word(args.word)
    spec = _load_rotation(args.r)
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
    t6 = t
    for _ in range(5):
        t6 = tuple(t[i] for i in t6)
    if t6 != tuple(range(inst.m)):
        return "T^6 is not the identity"
    for p in range(inst.m):
        label, image = classify_point(p, inst)
        if t[p] != image:
            return f"case table disagrees at point {p} (case {label})"
        if p in inst.A and t[p] in inst.C:
            return f"point {p} realizes the impossible A to C transition"
    return None


def _cmd_prop_check(args) -> int:
    if args.exhaustive:
        instances = enumerate_instances(args.size)
        label = f"exhaustive size {args.size}"
    else:
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
        "pushing pieces of [0, 1) through it syllable by syllable",
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
