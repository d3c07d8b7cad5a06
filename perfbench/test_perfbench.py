"""Tests of the benchmark itself: inputs, output checks and trace accounting.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from ietrel.documents import parse_document  # noqa: E402
from ietrel.sampling import demo_suite  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402

CHEAP_PAIRS = ("d2-one-block-sqrt2m1-identity", "d5-three-blocks-mixed", "rational-single-rot")


def _suite_subset(tmp_path: Path, seed: int = 0) -> workloads.Workload:
    """The suite workload cut down to a few cheap pairs, with real digests."""
    full = workloads.build("suite", seed, tmp_path, run.load_digests())
    full.jobs = [j for j in full.jobs if j.name.split("/")[0] in CHEAP_PAIRS]
    return full


def test_seed_zero_suite_is_the_demo_suite(tmp_path):
    workload = workloads.build("suite", 0, tmp_path, {})
    for pair in demo_suite():
        r = parse_document((tmp_path / f"{pair.name}.r").read_text()).payload
        g = parse_document((tmp_path / f"{pair.name}.g").read_text()).payload
        assert (r, g) == (pair.r, pair.g)
    assert len(workload.jobs) == 2 * len(demo_suite())


def test_other_seeds_keep_rotations_and_branches():
    base = workloads.suite_pairs(0)
    other = workloads.suite_pairs(5)
    assert [(n, r, b) for n, r, _, b in base] == [(n, r, b) for n, r, _, b in other]
    # a redraw may land on the seed-0 map itself; most do not
    assert sum(g0 != g5 for (_, _, g0, _), (_, _, g5, _) in zip(base, other)) >= 10


def test_deep_m_inputs_follow_the_seed():
    first = workloads.deep_m_pairs(7)
    assert first == workloads.deep_m_pairs(7)
    lo, hi = workloads.DEEP_M_STEPS
    assert all(lo <= M * r.n <= hi for r, _, M in first)


def _executions(workload, command=None) -> int:
    return sum(j.samples for j in workload.jobs if command in (None, j.command))


def test_clean_run_has_no_failures(tmp_path):
    workload = _suite_subset(tmp_path)
    loop = run.Loop(workload, workloads.run_cli)
    latencies, _ = loop.run(1)
    assert loop.failures == [] and loop.attempted == _executions(workload)
    assert [len(xs) for xs in latencies] == [j.samples for j in workload.jobs]


def test_corrupted_certificate_is_a_failure(tmp_path):
    def corrupting_cli(argv):
        code, out = workloads.run_cli(argv)
        if argv[0] == "synthesize":
            cert = Path(argv[argv.index("-o") + 1])
            # w evaluates to the identity, so w a evaluates to r, which is not
            cert.write_text(cert.read_text().rstrip("\n") + " a\n")
        return code, out

    workload = _suite_subset(tmp_path)
    loop = run.Loop(workload, corrupting_cli)
    loop.run(1)
    # the altered bytes miss their digest, and the altered word fails verify
    assert len(loop.failures) == _executions(workload)
    assert any("digest" in f for f in loop.failures)
    assert any("exit code 1" in f for f in loop.failures)


def test_digest_mismatch_is_a_failure(tmp_path):
    workload = _suite_subset(tmp_path)
    job = workload.jobs[0]
    code, out = workloads.run_cli(job.argv)
    assert workload.check(job, code, out) is None
    workload.digests[job.name] = hashlib.sha256(b"something else").hexdigest()
    assert "digest" in workload.check(job, code, out)


def test_seed_zero_output_without_digest_is_a_failure(tmp_path):
    workload = _suite_subset(tmp_path)
    workload.digests = {}
    job = workload.jobs[0]
    code, out = workloads.run_cli(job.argv)
    assert "no frozen digest" in workload.check(job, code, out)


def test_growth_row_must_match_pow_and_l1(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "GROWTH_MAPS", 1)
    workload = workloads.build("growth", 3, tmp_path, {})
    job = workload.jobs[0]
    code, out = workloads.run_cli(job.argv)
    assert workload.check(job, code, out) is None
    text = job.output.read_text().splitlines()
    n, disc, exact, approx = text[-1].split(",")
    text[-1] = ",".join((n, str(int(disc) + 1), exact, approx))
    job.output.write_text("\n".join(text) + "\n")
    assert "differs from pow + l1" in workload.check(job, code, out)


def test_failed_check_makes_the_command_fail(tmp_path, monkeypatch, capsys):
    workload = _suite_subset(tmp_path)
    workload.digests = {j.name: "0" * 64 for j in workload.jobs}
    monkeypatch.setattr(workloads, "build", lambda *args: workload)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    code = run.main(["--workload", "suite", "--seed", "0", "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == _executions(workload, "synthesize")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(44)]) == (33.0, 77)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100)


def test_self_times_and_unaccounted_add_up_to_wall(tmp_path):
    workload = _suite_subset(tmp_path)
    loop = run.Loop(workload, workloads.run_cli)
    tracer = Tracer()
    _, wall_ns = loop.run(1, tracer)
    assert loop.failures == []
    own = self_times(tracer.spans)
    assert min(own) >= 0
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(own) + (wall_ns - roots) == wall_ns
    m = summarize(tracer, wall_ns, 1)
    layers = ("cli", "documents", "relations", "words", "iet", "intervals", "rotation")
    total = sum(m[f"{layer}.self_s"] for layer in layers) + m["trace.unaccounted_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert {name.split(".")[0] for name, *_ in tracer.spans} <= set(layers)


def test_tracer_restores_every_patched_name(tmp_path):
    from ietrel import cli
    from ietrel.iet import Iet
    from ietrel.scalars import QuadExt

    before = (cli.main, Iet.compose, QuadExt.__lt__, QuadExt.__radd__)
    tracer = Tracer()
    tracer.install()
    assert cli.main is not before[0]
    tracer.uninstall()
    assert (cli.main, Iet.compose, QuadExt.__lt__, QuadExt.__radd__) == before


def test_every_listed_metric_is_reported(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = _suite_subset(tmp_path)
    loop = run.Loop(workload, workloads.run_cli)
    latencies, _ = loop.run(1)
    e2e, _ = run.end_to_end(latencies, workload.jobs, setup_s=0.1)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layered, _, _ = run.per_layer(loop, 1)
    assert {m["name"] for m in spec["per_layer"]} == set(layered)
