"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is a list of jobs.  A job is one `ietrel` command line, run
in-process through `ietrel.cli.main`, whose inputs are document files this
module writes from the seed.  The program under test sees only those files.

* `suite`: the 22 demo pairs, each as `synthesize` then `verify`.  Seed 0 is
  exactly `sampling.demo_suite()`.  Another seed keeps the 22 rotation specs
  and redraws every random g with the suite's recipe (`random_iet`, 6
  intervals, denominator 8), keeping a draw only when synthesis takes the
  same branch as at seed 0, so every seed covers the four branches in the
  reference proportions.
* `deep-m`: rotations with 2 to 4 blocks whose rates are frac(q*sqrt(D)),
  against random 6-interval g with denominator 64, each as `synthesize`
  only.  A pair is kept when the minimal M, predicted by a float scan, puts
  the exact M-scan (M times the number of blocks steps) inside a fixed
  band, so every seed scans about as many steps.
* `growth`: `disc-growth` to a fixed power on 4-interval exchanges with an
  irreducible permutation and lengths in Q(sqrt(D)), kept only when the
  discontinuity count of f^N is the largest possible, (k-1)*N.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ietrel import cli
from ietrel.documents import KIND_CERTIFICATE, document, emit_document, parse_document
from ietrel.iet import Iet, PermLambdaSpec
from ietrel.relations import (
    BRANCH_FINITE_ORDER,
    BRANCH_H_TRIVIAL,
    BRANCH_T_SIXTH,
    BRANCH_T_TRIVIAL,
    build_h,
    build_k,
    build_T,
    compute_P,
    find_d,
    find_epsilon,
    find_M,
)
from ietrel.rotation import FINITE_ORDER, DisjointRotationSpec
from ietrel.sampling import demo_suite, random_iet, random_partition, random_perm_lambda
from ietrel.scalars import QuadExt
from ietrel.words import Word

# suite: the first four demo pairs pair a badly approximable rate with a
# hand-chosen g (identity or a rotation) that keeps the word short; every
# other pair's g was drawn by random_iet and is redrawn for seeds other than 0.
SUITE_FIXED_G = frozenset(p.name for p in demo_suite()[:4])
SUITE_MAX_DRAWS = 400
SUITE_CANDIDATES = 16
SUITE_COST_MATCH = 0.02
# suite jobs other than the T_sixth verifications take under about 1 s and
# include the jobs read by job_p50_s and job_tail_s; each runs this often per
# pass so that one slow stretch of a shared machine does not decide its latency
SUITE_SHORT_SAMPLES = 3

# nominal seconds of one untraced pass over each workload's jobs, at the
# speed of a quiet 2.1 GHz x86 core with Python 3.11; a run measures
# ceil(--seconds / this) passes, so the sample count of a job does not
# depend on how busy the machine is
PASS_S = {"suite": 25.0, "deep-m": 8.5, "growth": 7.5}

# deep-m: 40 pairs, each with an exact M-scan of 20000 to 30000 block steps.
DEEP_M_PAIRS = 40
DEEP_M_STEPS = (20_000, 30_000)
DEEP_M_DISCS = (2, 3, 5)
# a float scan decides "within theta of 0" only when no value it inspects
# lies this close to theta or 1 - theta; closer candidates are redrawn
FLOAT_MARGIN = 1e-9

# growth: 40 maps with 4 intervals, each taken to the power 64 (193 pieces).
GROWTH_MAPS = 40
GROWTH_INTERVALS = 4
GROWTH_POWER = 64
GROWTH_DISCS = (2, 3, 5)


@dataclass
class Job:
    """One CLI invocation and what its output is checked against."""

    name: str
    command: str
    argv: Tuple[str, ...]
    output: Optional[Path] = None
    expect: Dict[str, object] = field(default_factory=dict)
    samples: int = 1  # executions per pass, spread over the pass in rounds


@dataclass
class Workload:
    name: str
    seed: int
    jobs: List[Job]
    digests: Dict[str, str]  # job name -> sha256 of its seed-0 output
    pass_s: float

    def check(self, job: Job, code: int, stdout: str) -> Optional[str]:
        """Why the job's result is wrong, or None when it is right."""
        if code != 0:
            return f"exit code {code}"
        if self.seed == 0 and job.output is not None:
            want = self.digests.get(job.name)
            if want is None:
                return "no frozen digest for this seed-0 output"
            if hashlib.sha256(job.output.read_bytes()).hexdigest() != want:
                return "output digest differs from the frozen digest"
        return CHECKS[job.command](job, stdout)


def _write(path: Path, payload) -> Path:
    path.write_text(emit_document(document(payload)), encoding="utf-8")
    return path


# -- suite ---------------------------------------------------------------------


def synthesis_plan(r: DisjointRotationSpec, g: Iet) -> Tuple[str, Word]:
    """The branch `synthesize` takes for (r, g) and the word it repeats (the
    word of T once for the T_sixth branch), found without certifying the
    word, which is most of the cost of synthesis on suite pairs."""
    if r.classify().kind == FINITE_ORDER:
        return BRANCH_FINITE_ORDER, Word.generator("a", r.classify().order)
    L = r.fixing_power()
    spec = r.power_spec(L)
    r_fixed = spec.to_iet()
    supp = r_fixed.support()
    P = compute_P(spec, g)
    d = find_d(r_fixed, tuple(p for p in P if supp.contains_point(p)))
    epsilon = find_epsilon(r_fixed, P, d, min_block=r.min_block_length())
    h, word_h = build_h(r_fixed, g, find_M(spec, epsilon), fixing_power=L)
    if h.is_identity():
        return BRANCH_H_TRIVIAL, word_h
    k, word_k = build_k(r_fixed, h, word_h, d, fixing_power=L)
    T, word_T = build_T(h, k, word_h, word_k)
    return (BRANCH_T_TRIVIAL if T.is_identity() else BRANCH_T_SIXTH), word_T


def letter_cost(word: Word, r: Iet, g: Iet) -> int:
    """Sum over letters of the pieces the letter-at-a-time verifier composes
    (running product plus generator), with the running product sampled at
    syllable boundaries: an exact count that tracks its time."""
    table = {"a": r, "b": g}
    powers: Dict[Tuple[str, int], Iet] = {}
    acc = Iet.identity()
    cost = 0
    for gen, exp in word.syllables:
        cost += abs(exp) * (acc.num_intervals + table[gen].num_intervals)
        if (gen, exp) not in powers:
            powers[gen, exp] = table[gen].power(exp)
        acc = acc.compose(powers[gen, exp])
    return cost


def suite_pairs(seed: int) -> List[Tuple[str, DisjointRotationSpec, Iet, str]]:
    """(name, r, g, expected branch) for every demo pair under this seed.

    A redrawn g must take the seed-0 branch.  The first such draw whose
    letter_cost is within SUITE_COST_MATCH of seed 0's is kept, else the
    nearest of SUITE_CANDIDATES such draws, so every seed costs the verifier
    about as much as the reference suite.
    """
    rng = random.Random(seed)
    out = []
    for pair in demo_suite():
        r_iet = pair.r.to_iet()
        branch, word = synthesis_plan(pair.r, pair.g)
        g = pair.g
        if seed != 0 and pair.name not in SUITE_FIXED_G:
            target = letter_cost(word, r_iet, pair.g)
            candidates = []
            for _ in range(SUITE_MAX_DRAWS):
                draw = random_iet(rng, 6, 8)
                draw_branch, draw_word = synthesis_plan(pair.r, draw)
                if draw_branch == branch:
                    miss = abs(letter_cost(draw_word, r_iet, draw) - target)
                    candidates.append((miss, draw))
                    if miss <= SUITE_COST_MATCH * target or len(candidates) == SUITE_CANDIDATES:
                        break
            if not candidates:
                raise RuntimeError(f"seed {seed}: no g for {pair.name} takes branch {branch}")
            g = min(candidates, key=lambda c: c[0])[1]
        out.append((pair.name, pair.r, g, branch))
    return out


def _suite_jobs(seed: int, work: Path) -> List[Job]:
    jobs = []
    for name, r, g, branch in suite_pairs(seed):
        r_doc = _write(work / f"{name}.r", r)
        g_doc = _write(work / f"{name}.g", g)
        cert = work / f"{name}.cert"
        jobs.append(Job(
            f"{name}/synthesize", "synthesize",
            ("synthesize", "--r", str(r_doc), "--g", str(g_doc), "-o", str(cert)),
            cert, {"branch": branch}, SUITE_SHORT_SAMPLES,
        ))
        jobs.append(Job(
            f"{name}/verify", "verify",
            ("verify", "--word", str(cert), "--r", str(r_doc), "--g", str(g_doc)),
            samples=1 if branch == BRANCH_T_SIXTH else SUITE_SHORT_SAMPLES,
        ))
    return jobs


# -- deep-m --------------------------------------------------------------------


def float_scan_M(rates, epsilon, m_max: int) -> Tuple[int, bool]:
    """Smallest M >= 1 with every rate of r^M within epsilon/10 of 0 mod 1,
    by a float scan, and whether every decision it made cleared
    FLOAT_MARGIN.  Returns m_max + 1 when no M <= m_max qualifies.
    """
    theta = float(epsilon) / 10
    upper = 1.0 - theta
    far_lo, far_hi = theta + FLOAT_MARGIN, upper - FLOAT_MARGIN
    alphas = [float(a) for a in rates]
    safe = True
    for m in range(1, m_max + 1):
        for a in alphas:
            y = m * a % 1.0
            if far_lo < y < far_hi:
                break  # clearly not near 0
            if abs(y - theta) < FLOAT_MARGIN or abs(y - upper) < FLOAT_MARGIN:
                safe = False
            if theta <= y <= upper:
                break
        else:
            return m, safe
    return m_max + 1, safe


def _quadratic_rate(rng: random.Random, disc: int) -> QuadExt:
    """frac(q*sqrt(disc)) for a small positive rational q."""
    q = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
    square = q * q * disc
    floor = math.isqrt(square.numerator // square.denominator)
    return QuadExt(-floor, q, disc)


def deep_m_pairs(seed: int):
    """(rotation, g as perm-lambda, expected M) for every deep-m pair."""
    rng = random.Random(seed)
    lo, hi = DEEP_M_STEPS
    out = []
    while len(out) < DEEP_M_PAIRS:
        disc = rng.choice(DEEP_M_DISCS)
        blocks = rng.randrange(2, 5)
        lengths = tuple(QuadExt(Fraction(u, 24)) for u in random_partition(rng, 24, blocks))
        r = DisjointRotationSpec(lengths, tuple(_quadratic_rate(rng, disc) for _ in lengths))
        g_spec = random_perm_lambda(rng, 6, 64)
        g = Iet.from_perm_lambda(g_spec)
        r_iet = r.to_iet()  # every rate is irrational, so r is its own fixed power
        supp = r_iet.support()
        P = compute_P(r, g)
        d = find_d(r_iet, tuple(p for p in P if supp.contains_point(p)))
        epsilon = find_epsilon(r_iet, P, d, min_block=r.min_block_length())
        M, safe = float_scan_M(r.rates, epsilon, hi // blocks)
        if safe and lo <= M * blocks <= hi:
            out.append((r, g_spec, M))
    return out


def _deep_m_jobs(seed: int, work: Path) -> List[Job]:
    jobs = []
    for i, (r, g_spec, M) in enumerate(deep_m_pairs(seed)):
        name = f"pair{i:02d}"
        r_doc = _write(work / f"{name}.r", r)
        g_doc = _write(work / f"{name}.g", g_spec)
        cert = work / f"{name}.cert"
        jobs.append(Job(
            f"{name}/synthesize", "synthesize",
            ("synthesize", "--r", str(r_doc), "--g", str(g_doc), "-o", str(cert)),
            cert, {"M": M},
        ))
    return jobs


# -- growth --------------------------------------------------------------------


def _irreducible_perm(rng: random.Random, n: int) -> Tuple[int, ...]:
    while True:
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        if all(set(pi[:j]) != set(range(1, j + 1)) for j in range(1, n)):
            return tuple(pi)


def _quadratic_lengths(rng: random.Random, n: int, disc: int) -> Tuple[QuadExt, ...]:
    """n positive lengths in Q(sqrt(disc)) summing to 1, with irrational parts."""
    while True:
        rats = random_partition(rng, 16, n)
        coefs = [rng.randrange(-2, 3) for _ in range(n - 1)]
        coefs.append(-sum(coefs))
        lengths = tuple(QuadExt(Fraction(a, 16), Fraction(b, 16), disc) for a, b in zip(rats, coefs))
        if all(c for c in coefs) and all(v.sign() > 0 for v in lengths):
            return lengths


def growth_maps(seed: int) -> List[PermLambdaSpec]:
    rng = random.Random(seed)
    k, n = GROWTH_INTERVALS, GROWTH_POWER
    out = []
    while len(out) < GROWTH_MAPS:
        disc = rng.choice(GROWTH_DISCS)
        spec = PermLambdaSpec(_irreducible_perm(rng, k), _quadratic_lengths(rng, k, disc))
        f = Iet.from_perm_lambda(spec)
        if f.num_intervals == k and len(f.power(n).discontinuities()) == (k - 1) * n:
            out.append(spec)
    return out


def _growth_jobs(seed: int, work: Path) -> List[Job]:
    jobs = []
    for i, spec in enumerate(growth_maps(seed)):
        name = f"map{i:02d}"
        f_doc = _write(work / f"{name}.f", spec)
        out = work / f"{name}.csv"
        jobs.append(Job(
            f"{name}/disc-growth", "disc-growth",
            ("disc-growth", "--map", str(f_doc), "--max-n", str(GROWTH_POWER), "-o", str(out)),
            out, {"last_row": _pow_then_l1(f_doc, work / f"{name}.pow")},
        ))
    return jobs


def _pow_then_l1(f_doc: Path, power: Path) -> List[str]:
    """The row disc-growth must end with, from `ietrel pow` then `ietrel l1`
    at the same n: repeated squaring against sequential composition."""
    code, out = run_cli(("pow", "--map", str(f_doc), "--n", str(GROWTH_POWER), "-o", str(power)))
    if code != 0:
        raise RuntimeError(f"ietrel pow exited {code}: {out}")
    code, out = run_cli(("l1", "--map", str(power)))
    if code != 0:
        raise RuntimeError(f"ietrel l1 exited {code}: {out}")
    f_n = parse_document(power.read_text(encoding="utf-8")).payload
    exact = out.splitlines()[0].removeprefix("exact = ")
    return [str(GROWTH_POWER), str(len(f_n.discontinuities())), exact]


# -- checks --------------------------------------------------------------------


def run_cli(argv) -> Tuple[int, str]:
    """Run one `ietrel` command in-process; its exit code and its output."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = cli.main(list(argv))
    return code, sink.getvalue()


def _check_certificate(job: Job, stdout: str) -> Optional[str]:
    doc = parse_document(job.output.read_text(encoding="utf-8"))
    if doc.kind != KIND_CERTIFICATE:
        return f"output is a {doc.kind} document, not a certificate"
    cert = doc.payload
    if not cert.verified or cert.word.is_empty():
        return "certificate is not verified or has an empty word"
    for key, want in job.expect.items():
        if getattr(cert, key) != want:
            return f"certificate {key} = {getattr(cert, key)}, expected {want}"
    return None


def _check_verify(job: Job, stdout: str) -> Optional[str]:
    return None if stdout.startswith("verified:") else f"unexpected output {stdout!r}"


def _check_growth(job: Job, stdout: str) -> Optional[str]:
    rows = list(csv.reader(io.StringIO(job.output.read_text(encoding="utf-8"))))
    if len(rows) != GROWTH_POWER + 1:
        return f"{len(rows)} CSV rows, expected {GROWTH_POWER + 1}"
    if rows[-1][:3] != job.expect["last_row"]:
        return f"last row {rows[-1][:3]} differs from pow + l1 {job.expect['last_row']}"
    return None


CHECKS: Dict[str, Callable[[Job, str], Optional[str]]] = {
    "synthesize": _check_certificate,
    "verify": _check_verify,
    "disc-growth": _check_growth,
}

_JOBS = {"suite": _suite_jobs, "deep-m": _deep_m_jobs, "growth": _growth_jobs}


def build(name: str, seed: int, work: Path, digests: Dict[str, Dict[str, str]]) -> Workload:
    """Write the workload's input documents under `work` and list its jobs."""
    work.mkdir(parents=True, exist_ok=True)
    jobs = _JOBS[name](seed, work)
    return Workload(name, seed, jobs, digests.get(name, {}), PASS_S[name])
