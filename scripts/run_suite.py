#!/usr/bin/env python3
"""Run the fixed demo suite end to end and report one line per pair.

For every (r, g) pair: synthesize a relation word, then re-check it with
`verify_word`, the syllable-by-syllable route behind `ietrel verify`.  That
route shares only the exact scalars and the input data with the
synthesizer's fast route (see its docstring).  Exit status is nonzero if any
pair fails either check.
"""

from __future__ import annotations

import argparse
import sys
import time

from ietrel.relations import DEFAULT_M_CAP, synthesize_with_context
from ietrel.sampling import demo_suite
from ietrel.words import verify_word


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-cap", type=int, default=DEFAULT_M_CAP)
    args = parser.parse_args(argv)
    header = (
        f"{'pair':<38} {'branch':<12} {'L':>2} {'d':>2} {'M':>4} "
        f"{'epsilon':>8} {'letters':>7} {'synth':>8} {'verify':>8}"
    )
    print(header)
    print("-" * len(header))
    failures = 0
    grand_t0 = time.perf_counter()
    for pair in demo_suite():
        t0 = time.perf_counter()
        cert, _ = synthesize_with_context(pair.r, pair.g, m_cap=args.m_cap)
        synth = time.perf_counter() - t0
        t0 = time.perf_counter()
        ok = verify_word(cert.word, pair.r, pair.g)
        verify = time.perf_counter() - t0
        if not (ok and cert.verified and not cert.word.is_empty()):
            failures += 1
        mark = "" if ok else "  <-- FAILED"
        print(
            f"{pair.name:<38} {cert.branch:<12} "
            f"{cert.L if cert.L is not None else '-':>2} "
            f"{cert.d if cert.d is not None else '-':>2} "
            f"{cert.M if cert.M is not None else '-':>4} "
            f"{str(cert.epsilon) if cert.epsilon is not None else '-':>8} "
            f"{cert.word.letter_count():>7} {synth:7.2f}s {verify:7.2f}s{mark}"
        )
    total = time.perf_counter() - grand_t0
    n = len(demo_suite())
    print("-" * len(header))
    if failures:
        print(f"{failures} of {n} pairs FAILED ({total:.1f}s)")
        return 1
    print(f"all {n} pairs verified ({total:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
