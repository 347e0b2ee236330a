"""The benchmark's workloads: seeded inputs, one job at a time, and checks.

A workload hands out its jobs in cycles. Every cycle has the same
shape (the same job kinds, in the same angle strata), and only the
generated angles and sampler seeds change from one cycle to the next.
That keeps the job mix, and so every count the traced run reports,
identical from cycle to cycle and from seed to seed, while the timings
still average over many angles.

Jobs call the library through its module attributes (``schemes.local_usd``
rather than a name bound at import), so the wrappers the traced run
installs on those attributes see every call.

Checks run after a job, outside its timing, and compare the library's
answer with an independent route: closed forms from ``qelim.analysis``,
sampling statistics, or the library called in-process for a CLI run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

from qelim import analysis, cli, povm, schemes, states, verify

THRESHOLD_DEG = math.degrees(math.acos(math.sqrt(2.0) - 1.0))

PROB_TOL = 1e-9
AUDIT_TOL = 1e-9
# A sampled count may lie as far from its mean as Z_MAX standard normal
# deviations, judged by its two-sided tail probability so that rare
# outcomes are judged by their Poisson tail. Over every outcome of every
# job of a run, chance alone does not reach it (2e-9 per outcome).
Z_MAX = 6.0
TAIL_MIN = math.erfc(Z_MAX / math.sqrt(2.0))
SAMPLING_SHOTS = 2_000_000
CLI_SHOTS = 1_000_000


@dataclass(frozen=True)
class Job:
    kind: str
    deg: float = 0.0
    n: int = 0
    seed: int = 0
    shots: int = 0
    argv: tuple = ()
    # index, within its cycle, of the job this one repeats exactly
    repeat_of: int | None = None


class Inputs:
    """All generated inputs of one run, drawn from one seeded generator.

    Angles come from one golden-ratio sequence per range, started at a
    seeded offset: successive cycles cover each range evenly, so a run's
    timings average over the whole range whichever seed it got. Job
    costs depend on the angle (an n = 6 audit takes 10 % longer at some
    angles than at others), and plain random draws made the medians
    of short runs drift with the seed.
    """

    _STEP = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._next = {}

    def angle(self, lo: float, hi: float) -> float:
        """The next angle strictly inside (lo, hi), in degrees."""
        while True:
            u = self._next.get((lo, hi))
            if u is None:
                u = self.rng.random()
            self._next[(lo, hi)] = (u + self._STEP) % 1.0
            x = lo + (hi - lo) * u
            if lo < x < hi:
                return x

    def seed(self) -> int:
        return self.rng.getrandbits(32)

    def shuffle(self, items: list) -> None:
        self.rng.shuffle(items)


def _angle(deg: float):
    return states.Angle.from_two_theta_deg(deg)


# ---------------------------------------------------------------- pairs


def pairs_cycle(inp: Inputs) -> list:
    """Two fixed angles plus six drawn from three strata.

    Below 45 deg the job adds eliminate_one, its symmetrization and
    certify_one; between 45 deg and the pair threshold eliminate_two
    keeps a failure effect; above the threshold it has none. Fixing how
    many angles fall in each stratum fixes the work per cycle.
    """
    degs = [45.0, THRESHOLD_DEG]
    degs += [inp.angle(0.0, 45.0) for _ in range(3)]
    degs.append(inp.angle(45.0, THRESHOLD_DEG))
    degs += [inp.angle(THRESHOLD_DEG, 90.0) for _ in range(2)]
    inp.shuffle(degs)
    return [Job("pairs", deg=d) for d in degs]


@dataclass
class PairsResult:
    reports: dict = field(default_factory=dict)  # scheme -> (validation, stats)
    certs: list = field(default_factory=list)


def run_pairs(job: Job) -> PairsResult:
    angle = _angle(job.deg)
    ensemble = states.uniform_ensemble(angle, 2)
    below = angle.two_theta < math.pi / 4.0
    built = {"eliminate_two": schemes.eliminate_two(angle)}
    if below:
        one = schemes.eliminate_one(angle)
        built["eliminate_one"] = one
        built["symmetrize"] = schemes.symmetrize(one)
    else:
        built["ancilla_eliminate_one"] = schemes.ancilla_eliminate_one(angle)
    if job.deg == 45.0:
        built["pbr_basis"] = schemes.pbr_basis(angle)
    out = PairsResult()
    for name, m in built.items():
        out.reports[name] = (
            povm.validate(m, ensemble),
            povm.outcome_probabilities(m, ensemble),
        )
    if below:
        out.certs.append(verify.certify_one(angle))
    out.certs.append(verify.certify_two(angle))
    return out


def check_pairs(job: Job, res: PairsResult, done: list) -> list:
    angle = _angle(job.deg)
    problems = []
    for name, (report, stats) in res.reports.items():
        if not report.ok:
            problems.append(f"{name}: validate failed: {report.violations}")
        if name == "eliminate_two":
            want = analysis.eliminate_two_fail_prob(angle)
            closed = analysis.eliminate_two_outcome_probs(angle)
            got = dict(zip(stats.labels, (float(p) for p in stats.probs)))
            for label in set(got) | set(closed):
                if not math.isclose(got.get(label, 0.0), closed.get(label, 0.0),
                                    rel_tol=0.0, abs_tol=PROB_TOL):
                    problems.append(
                        f"eliminate_two: p[{label}] = {got.get(label)} but closed "
                        f"form gives {closed.get(label)}"
                    )
        else:
            want = analysis.eliminate_one_fail_prob(angle)
        if not math.isclose(stats.fail_prob, want, rel_tol=0.0, abs_tol=PROB_TOL):
            problems.append(f"{name}: fail_prob {stats.fail_prob} != closed form {want}")
    kinds = 2 if angle.two_theta < math.pi / 4.0 else 1
    if len(res.certs) != kinds:
        problems.append(f"expected {kinds} certificates, got {len(res.certs)}")
    for cert in res.certs:
        if cert.verdict != "pass":
            problems.append(f"certificate failed: {cert.claim} (gap {cert.gap})")
    return problems


# ---------------------------------------------------------- local-audit


def local_audit_cycle(inp: Inputs) -> list:
    """Three audits each at n = 4 and 5 and one at n = 6, in shuffled order.

    The n = 6 audit takes about 70 % of a cycle's time. With one job in
    seven at n = 6, a 20 s run holds some fifteen jobs beyond the p90
    that job_tail_ms reports, and the median job is an n = 5 audit.
    """
    jobs = [Job("local-audit", deg=inp.angle(0.0, 90.0), n=n)
            for n in (4, 4, 4, 5, 5, 5, 6)]
    inp.shuffle(jobs)
    return jobs


def run_local_audit(job: Job):
    angle = _angle(job.deg)
    return verify.audit_bound(schemes.local_usd(angle, job.n), angle)


def check_local_audit(job: Job, cert, done: list) -> list:
    problems = []
    if cert.verdict != "pass":
        problems.append(f"audit verdict {cert.verdict!r}")
    want = analysis.local_avg_eliminated(_angle(job.deg), job.n)
    if not math.isclose(cert.oracle, want, rel_tol=0.0, abs_tol=AUDIT_TOL):
        problems.append(f"avg eliminated {cert.oracle} != 2^n - (1 + cos 2t)^n = {want}")
    return problems


# ------------------------------------------------------------- sampling

SAMPLED_SCHEMES = ("pbr_basis", "eliminate_two", "ancilla_eliminate_one", "local_usd")


def sampling_cycle(inp: Inputs, shots: int = SAMPLING_SHOTS) -> list:
    """Each sampled scheme once, then eliminate_two again with the same seed.

    eliminate_two is drawn past the pair threshold, where it has no
    failure outcome, so its outcome count is the same in every cycle. The
    repeat is always the eliminate_two job, so every cycle costs the
    same whichever seed drew it.
    """
    degs = {
        "pbr_basis": 45.0,
        "eliminate_two": inp.angle(THRESHOLD_DEG, 90.0),
        "ancilla_eliminate_one": inp.angle(45.0, 90.0),
        "local_usd": inp.angle(0.0, 90.0),
    }
    jobs = [
        Job("sampling:" + name, deg=degs[name], n=4 if name == "local_usd" else 2,
            seed=inp.seed(), shots=shots)
        for name in SAMPLED_SCHEMES
    ]
    first = SAMPLED_SCHEMES.index("eliminate_two")
    jobs.append(
        Job(jobs[first].kind, deg=jobs[first].deg, n=2, seed=jobs[first].seed,
            shots=shots, repeat_of=first)
    )
    return jobs


def run_sampling(job: Job):
    angle = _angle(job.deg)
    name = job.kind.split(":", 1)[1]
    if name == "local_usd":
        m = schemes.local_usd(angle, job.n)
    else:
        m = getattr(schemes, name)(angle)
    return verify.monte_carlo(m, states.uniform_ensemble(angle, m.n), job.shots, job.seed)


def tail_prob(count: int, shots: int, p: float) -> float:
    """Two-sided probability of a count at least this far out, for Binomial(shots, p).

    Uses the normal approximation when the variance is large and the
    Poisson limit (on whichever of the outcome and its complement is
    rare) when it is not, where a z-score would overstate rare hits.
    """
    if p <= 0.0 or p >= 1.0:
        return 1.0 if count == shots * round(p) else 0.0
    var = shots * p * (1.0 - p)
    if var >= 100.0:
        return math.erfc(abs(count - shots * p) / math.sqrt(2.0 * var))
    if p > 0.5:
        count, p = shots - count, 1.0 - p
    lam = shots * p
    term, below = math.exp(-lam), 0.0
    for k in range(count):
        below += term
        term *= lam / (k + 1)
    # below = P(X < count), term = P(X = count)
    return min(1.0, 2.0 * min(below + term, 1.0 - below))


def check_counts(counts, analytic, shots: int) -> list:
    """Counts sum to the shots and none is further out than Z_MAX sigma allows."""
    problems = []
    if sum(counts) != shots:
        problems.append(f"counts sum to {sum(counts)}, not {shots}")
    for i, (c, p) in enumerate(zip(counts, analytic)):
        prob = tail_prob(c, shots, p)
        if prob < TAIL_MIN:
            problems.append(f"outcome {i}: count {c} against mean {shots * p:.4g} has "
                            f"tail probability {prob:.3g}")
    return problems


def check_sampling(job: Job, sim, done: list) -> list:
    problems = check_counts(sim.counts, sim.analytic, job.shots)
    if job.repeat_of is not None:
        first = done[job.repeat_of]
        if first is None or first.counts != sim.counts:
            problems.append("repeat with the same seed gave different counts")
    return problems


# ------------------------------------------------------------------ cli


def cli_cycle(inp: Inputs) -> list:
    """The six subcommands with the README's arguments, at drawn angles and seed.

    validate draws eliminate-two below the pair threshold (seven outcomes)
    and probs above it (six), so each cycle does the same work.
    """
    def deg(lo, hi):
        return repr(inp.angle(lo, hi))

    argvs = [
        ("validate", "--scheme", "eliminate-two", "--two-theta-deg",
         deg(0.0, THRESHOLD_DEG)),
        ("probs", "--scheme", "eliminate-two", "--two-theta-deg", deg(THRESHOLD_DEG, 90.0),
         "--format", "csv"),
        ("sweep", "--scheme", "eliminate-two", "--from", "30", "--to", "90",
         "--steps", "25"),
        ("simulate", "--scheme", "pbr", "--two-theta-deg", "45",
         "--shots", str(CLI_SHOTS), "--seed", str(inp.seed())),
        ("certify", "--scheme", "eliminate-one", "--two-theta-deg", deg(0.0, 45.0)),
        ("bounds", "--two-theta-deg", deg(0.0, 90.0), "--n", "3"),
    ]
    inp.shuffle(argvs)
    return [Job("cli", argv=a) for a in argvs]


@dataclass
class CliResult:
    code: int
    text: str
    stderr: str = ""


class CliRunner:
    """Runs one qelim subcommand with --out to a fresh file in the scratch dir.

    With in_process=False each job is a fresh ``python3 -m qelim.cli``
    process; with in_process=True it calls ``qelim.cli.main`` directly,
    which the traced run needs so that spans cover the subcommand.

    Every job writes a new file, removed once read: rewriting one path
    makes ext4 flush the truncated file on close, which costs tens of
    milliseconds that have nothing to do with qelim.
    """

    def __init__(self, root: str, scratch: str, in_process: bool):
        self.root = root
        self.scratch = scratch
        self.in_process = in_process
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.runs = 0

    def __call__(self, job: Job) -> CliResult:
        self.runs += 1
        out = os.path.join(self.scratch, f"cli-{os.getpid()}-{self.runs}.out")
        argv = list(job.argv) + ["--out", out]
        if self.in_process:
            code, err = cli.main(argv), ""
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "qelim.cli", *argv],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=120,
            )
            code, err = proc.returncode, proc.stderr
        try:
            with open(out, encoding="utf-8") as fh:
                return CliResult(code, fh.read(), err)
        except FileNotFoundError:
            return CliResult(code, "", err)
        finally:
            if os.path.exists(out):
                os.remove(out)


def _opts(argv) -> tuple:
    opts = dict(zip(argv[1::2], argv[2::2]))
    return argv[0], opts


_CLI_SCHEMES = {"eliminate-two": "eliminate_two", "eliminate-one": "eliminate_one",
                "pbr": "pbr_basis"}


def cli_expected(argv) -> dict:
    """What the library returns for the inputs of one CLI run, in its output's terms."""
    command, o = _opts(argv)
    angle = _angle(float(o.get("--two-theta-deg", "45")))
    build = getattr(schemes, _CLI_SCHEMES.get(o.get("--scheme"), "eliminate_two"))
    if command == "validate":
        r = povm.validate(build(angle), states.uniform_ensemble(angle, 2), tol=cli.DEFAULT_TOL)
        return {"ok": r.ok, "violations": r.violations,
                "completeness_residual": r.completeness_residual,
                "min_eigenvalues": r.min_eigenvalues,
                "unambiguity_residuals": r.unambiguity_residuals}
    if command == "probs":
        m = build(angle)
        s = povm.outcome_probabilities(m, states.uniform_ensemble(angle, 2))
        return {"rows": [[lab, float(p), e.excludes.size]
                         for lab, p, e in zip(s.labels, s.probs, m.effects)]}
    if command == "sweep":
        lo, hi, steps = float(o["--from"]), float(o["--to"]), int(o["--steps"])
        rows = []
        for i in range(steps):
            deg = lo + (hi - lo) * i / (steps - 1)
            a = _angle(deg)
            m = build(a)
            s = povm.outcome_probabilities(m, states.uniform_ensemble(a, 2))
            row = {"two_theta_deg": deg, "fail_prob": s.fail_prob,
                   "avg_eliminated": s.avg_eliminated,
                   "bound": analysis.elimination_bound(a, 2).bound}
            row.update({f"p[{lab}]": float(p) for lab, p in zip(s.labels, s.probs)})
            rows.append(row)
        return {"rows": rows}
    if command == "simulate":
        sim = verify.monte_carlo(build(angle), states.uniform_ensemble(angle, 2),
                                 int(o["--shots"]), int(o["--seed"]))
        return {"labels": sim.labels, "counts": sim.counts, "analytic": sim.analytic}
    if command == "certify":
        c = verify.certify_one(angle)
        return {"closed_form": c.closed_form, "oracle": c.oracle, "gap": c.gap,
                "verdict": c.verdict}
    if command == "bounds":
        n = int(o["--n"])
        b = analysis.elimination_bound(angle, n)
        return {"n": n, "bound": b.bound, "per_k_caps": [[k, c] for k, c in b.per_k_caps],
                "disc_gap": analysis.discrimination_gap(angle.overlap, n)}
    raise ValueError(f"no expectation for subcommand {command!r}")


def _csv_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def check_cli_output(argv, res: CliResult, want: dict) -> list:
    """Exit code 0, parsable output, and values equal to the library's."""
    command, _ = _opts(argv)
    if res.code != 0:
        return [f"{command}: exit code {res.code}: {res.stderr.strip()[-300:]}"]
    try:
        if command in ("probs", "sweep"):
            rows = _csv_rows(res.text)
            if command == "probs":
                got = [[r["label"], float(r["probability"]), int(r["excluded_count"])]
                       for r in rows]
                return [] if got == want["rows"] else [f"probs: {got} != {want['rows']}"]
            problems = []
            if len(rows) != len(want["rows"]):
                return [f"sweep: {len(rows)} rows, expected {len(want['rows'])}"]
            for got, exp in zip(rows, want["rows"]):
                for key in set(got) | set(exp):
                    if float(got.get(key, 0.0)) != exp.get(key, 0.0):
                        problems.append(f"sweep: {key} = {got.get(key)} != {exp.get(key)}")
            return problems
        result = json.loads(res.text)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{command}: output does not parse: {exc!r}"]
    return [f"{command}: {key} = {result.get(key)!r} != library {value!r}"
            for key, value in want.items() if result.get(key) != value]


# ---------------------------------------------------------- the registry


@dataclass
class Workload:
    name: str
    cycle: object  # Inputs -> list[Job]
    run: object  # Job -> result
    check: object  # (Job, result, results so far in the cycle) -> list[str]
    warmup: object = None  # Inputs -> list[Job] run untimed during set-up


def make_workload(name: str, root: str, scratch: str, in_process_cli: bool = False) -> Workload:
    if name == "pairs":
        return Workload(name, pairs_cycle, run_pairs, check_pairs)
    if name == "local-audit":
        return Workload(name, local_audit_cycle, run_local_audit, check_local_audit,
                        warmup=lambda inp: [j for j in local_audit_cycle(inp) if j.n == 4])
    if name == "sampling":
        return Workload(name, sampling_cycle, run_sampling, check_sampling,
                        warmup=lambda inp: sampling_cycle(inp, shots=verify.BLOCK_SIZE))
    if name == "cli":
        return Workload(name, cli_cycle, CliRunner(root, scratch, in_process_cli),
                        lambda job, res, done: check_cli_output(
                            job.argv, res, cli_expected(job.argv)),
                        warmup=lambda inp: [j for j in cli_cycle(inp) if j.argv[0] == "bounds"])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pairs", "local-audit", "sampling", "cli")


def inputs(workload: str, seed: int, stream: str = "jobs") -> Inputs:
    """The inputs of one run: a function of the workload, seed and stream only."""
    return Inputs(random.Random(f"{workload}/{seed}/{stream}"))
