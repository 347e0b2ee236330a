"""Tests of the benchmark's own code: inputs, checkers, tracing and self time.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import csv
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qelim  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _cycles(name, seed, k=3):
    w = wl.make_workload(name, str(ROOT), str(ROOT / ".perfbench_out"))
    inp = wl.inputs(name, seed)
    return [w.cycle(inp) for _ in range(k)]


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _cycles(name, 7) == _cycles(name, 7)
    assert _cycles(name, 7) != _cycles(name, 8)


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_every_cycle_has_the_same_shape(name):
    shapes = {tuple((j.kind, j.n, j.shots, j.repeat_of, j.argv[:1]) for j in
                    sorted(c, key=lambda j: (j.kind, j.n, j.argv[:1])))
              for c in _cycles(name, 3, k=6)}
    assert len(shapes) == 1


def test_angles_stay_inside_their_ranges():
    inp = wl.inputs("pairs", 1)
    draws = [inp.angle(45.0, wl.THRESHOLD_DEG) for _ in range(200)]
    assert all(45.0 < d < wl.THRESHOLD_DEG for d in draws)
    # The sequence spreads evenly: every tenth of the range is hit.
    tenths = {int((d - 45.0) / (wl.THRESHOLD_DEG - 45.0) * 10) for d in draws}
    assert tenths == set(range(10))


# ------------------------------------------------------------- checkers


@pytest.fixture(scope="module")
def pairs_job():
    job = wl.Job("pairs", deg=30.0)
    return job, wl.run_pairs(job)


def test_pairs_check_accepts_the_library(pairs_job):
    job, res = pairs_job
    assert wl.check_pairs(job, res, []) == []


def test_pairs_check_flags_perturbed_probability(pairs_job):
    job, res = pairs_job
    report, stats = res.reports["eliminate_two"]
    probs = stats.probs.copy()
    probs[0] += 1e-6
    bad = wl.PairsResult(dict(res.reports), list(res.certs))
    bad.reports["eliminate_two"] = (report, replace(stats, probs=probs))
    assert any("p[" in p for p in wl.check_pairs(job, bad, []))


def test_pairs_check_flags_fail_prob_and_validation(pairs_job):
    job, res = pairs_job
    report, stats = res.reports["eliminate_one"]
    broken = replace(report, violations=["made up"])
    bad = wl.PairsResult(dict(res.reports), list(res.certs))
    bad.reports["eliminate_one"] = (broken, replace(stats, fail_prob=stats.fail_prob + 1e-3))
    problems = wl.check_pairs(job, bad, [])
    assert any("validate failed" in p for p in problems)
    assert any("fail_prob" in p for p in problems)


def test_pairs_check_flags_failed_verdict(pairs_job):
    job, res = pairs_job
    bad = wl.PairsResult(res.reports, [replace(res.certs[0], verdict="fail"), res.certs[1]])
    assert any("certificate failed" in p for p in wl.check_pairs(job, bad, []))


def test_local_audit_check():
    job = wl.Job("local-audit", deg=50.0, n=3)
    cert = wl.run_local_audit(job)
    assert wl.check_local_audit(job, cert, []) == []
    assert wl.check_local_audit(job, replace(cert, verdict="fail"), [])
    assert wl.check_local_audit(job, replace(cert, oracle=cert.oracle + 1e-7), [])


def test_sampling_check():
    job = wl.Job("sampling:eliminate_two", deg=75.0, n=2, seed=5, shots=200_000)
    sim = wl.run_sampling(job)
    assert wl.check_sampling(job, sim, []) == []
    moved = list(sim.counts)
    moved[0] -= 2000
    moved[1] += 2000
    problems = wl.check_sampling(job, replace(sim, counts=moved), [])
    assert any("tail probability" in p for p in problems)
    lost = list(sim.counts)
    lost[0] -= 1
    assert any("sum to" in p for p in wl.check_sampling(job, replace(sim, counts=lost), []))
    again = replace(job, repeat_of=0)
    assert wl.check_sampling(again, sim, [sim]) == []
    other = list(sim.counts)
    other[0], other[1] = other[0] + 1, other[1] - 1
    assert wl.check_sampling(again, replace(sim, counts=other), [sim])


def test_tail_prob_handles_rare_outcomes():
    # One hit where 0.02 were expected is unusual, not impossible.
    assert wl.tail_prob(1, 65536, 3e-7) > wl.TAIL_MIN
    assert wl.tail_prob(50, 10**6, 1e-5) < wl.TAIL_MIN
    assert wl.tail_prob(5600, 10_000, 0.5) < wl.TAIL_MIN
    assert wl.tail_prob(0, 100, 0.0) == 1.0
    assert wl.tail_prob(1, 100, 0.0) == 0.0


def _tamper(command, text):
    """The same output with one reported value nudged."""
    if command in ("probs", "sweep"):
        rows = list(csv.reader(io.StringIO(text)))
        rows[1][1] = repr(float(rows[1][1]) + 1e-9)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    doc = json.loads(text)
    key = "bound" if command == "bounds" else "completeness_residual"
    doc["result"][key] += 1e-9
    return json.dumps(doc)


@pytest.mark.parametrize("command", ["bounds", "probs", "sweep", "validate"])
def test_cli_check(tmp_path, command):
    runner = wl.CliRunner(str(ROOT), str(tmp_path), in_process=True)
    job = next(j for j in wl.cli_cycle(wl.inputs("cli", 2)) if j.argv[0] == command)
    res = runner(job)
    want = wl.cli_expected(job.argv)
    assert wl.check_cli_output(job.argv, res, want) == []
    assert wl.check_cli_output(job.argv, replace(res, code=1), want)
    assert wl.check_cli_output(job.argv, replace(res, text="{not json"), want)
    assert wl.check_cli_output(job.argv, replace(res, text=_tamper(command, res.text)), want)
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------- tracing


def _span(name, start, end, parent=-1, job=0, work=None):
    return (name, start, end, parent, job, work)


def test_self_time_of_a_synthetic_tree():
    spans = [
        _span("povm.validate", 0.0, 10.0),
        _span("linalg.eig_hermitian", 1.0, 4.0, parent=0),
        _span("linalg.eigh_jacobi", 2.0, 3.0, parent=1),
        _span("linalg.is_hermitian", 3.5, 6.0, parent=0),  # overlaps its sibling
        _span("linalg.kron", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_totals_count_outermost_calls_and_their_work():
    spans = [
        _span("povm.validate", 0.0, 10.0, work={"povm.clicks": 7}),
        _span("linalg.eig_hermitian", 1.0, 4.0, 0, work={"linalg.eig.elems": 16}),
        _span("linalg.eigh_jacobi", 2.0, 3.0, 1, work={"linalg.eig.elems": 16}),
        _span("linalg.eig_hermitian", 5.0, 6.0, 0, work={"linalg.eig.elems": 4}),
    ]
    out = tracing.layer_totals(spans, tracing.self_times(spans), range(len(spans)))
    assert out["linalg.eig.calls"] == 2
    assert out["linalg.eig.elems"] == 20
    assert out["linalg.eig.self_s"] == pytest.approx(4.0)
    assert out["povm.validate.calls"] == 1
    assert out["povm.clicks"] == 7
    assert out["povm.validate.self_s"] == pytest.approx(6.0)


def test_tracer_counts_one_audit_and_restores_the_library():
    before = {m: dict(vars(m)) for m in (qelim, qelim.povm, qelim.verify, qelim.linalg)}
    tracer = tracing.Tracer(qelim)
    tracer.install()
    try:
        assert qelim.povm.eig_hermitian is not before[qelim.povm]["eig_hermitian"]
        job = wl.Job("local-audit", deg=40.0, n=3)
        wl.run_local_audit(job)  # outside a job: no spans
        assert tracer.spans == []
        tracer.job = 0
        cert = wl.run_local_audit(job)
        tracer.job = None
    finally:
        tracer.uninstall()
    for m, attrs in before.items():
        assert dict(vars(m)) == attrs
    assert cert.ok
    out = tracing.layer_totals(tracer.spans, tracing.self_times(tracer.spans),
                               range(len(tracer.spans)))
    # 3^n effects over 2^n states, less the 4^n consistent pairs for validate
    assert out["povm.clicks"] == 2 * 6 ** 3 - 4 ** 3
    assert out["linalg.eig.calls"] == 27
    assert out["linalg.eig.elems"] == 27 * 64
    assert out["schemes.build.effects"] == 27
    assert out["verify.audit.calls"] == 1
    assert {s[0] for s in tracer.spans if s[3] == -1} == {"verify.audit_bound", "schemes.local_usd"}


def test_grid_points_from_certificate_params():
    angle = qelim.Angle.from_two_theta_deg(30.0)
    assert tracing.grid_points(qelim.certify_one(angle, grid_steps=5, refine_iters=2).params) == 137
    assert tracing.grid_points(qelim.certify_two(angle, grid_steps=7, zoom_rounds=3).params) == 147
    assert tracing.grid_points({}) == 0


def test_mc_blocks_round_up():
    measure = tracing._mc_shots(qelim.verify.BLOCK_SIZE)
    assert measure((None, None, qelim.verify.BLOCK_SIZE + 1), {}, None)["verify.mc.blocks"] == 2


def test_per_layer_flags_counts_that_differ_between_cycles():
    class FakeTracer:
        spans = [
            _span("povm.validate", 0.0, 1.0, job=0, work={"povm.clicks": 5}),
            _span("povm.validate", 2.0, 3.0, job=1, work={"povm.clicks": 6}),
        ]

    records = [run.JobRecord(1, True, 1.0, []), run.JobRecord(3, True, 1.0, [])]
    cycles = [run.Cycle(c % 2 == 1, []) for c in range(4)]
    _, problems = run.per_layer(FakeTracer(), records, cycles)
    assert any("povm.clicks" in p for p in problems)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90.0) == (90, 10)
    assert run.percentile(values, 99.0) == (99, 1)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_benchmark_spec_matches_what_run_reports():
    spec = run.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
