"""qelim benchmark: run one workload for a while, check it, print its metrics.

From the repository root:

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 20 --trace 0

Workloads are pairs, local-audit, sampling and cli (see README.md in
this directory). One client runs jobs in a closed loop: the next job
starts when the previous one and its check have finished. Jobs come in
cycles of a fixed shape, and a run keeps starting cycles until
--seconds have passed.

With --trace 0 the run reports the end-to-end metrics; with --trace 1
it alternates untraced and traced cycles, reports the per-layer metrics
and the tracing overhead, and writes its spans to
.perfbench_out/trace-<workload>-seed<seed>.json. Metric names and
units come from BENCHMARK.json at the repository root. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the provenance and the
figures that are not metrics (error rate, tail percentile and sample
counts, shots per second).
"""

import time

_T0 = time.perf_counter()  # probes time interpreter start up to this point

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, for this process and every child it starts. With the
# default of one per CPU, a second OpenBLAS thread worked through every
# 64 x 64 matrix-vector product of an n = 6 audit without making it
# faster; on two CPUs shared with other tenants, the audit then switched
# between two speeds 20 % apart from one run to the next.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("pairs", "local-audit", "sampling", "cli")
# Fresh interpreters started per run to time set-up (and, traced, imports);
# their median is reported.
SETUP_PROBES = 5
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 120
# job_tail_ms is this percentile on every workload. Each workload's 20 s
# run leaves at least ten jobs beyond it; a higher percentile of the
# pairs workload moved by 12 % between runs of the same code.
TAIL_PCT = 90.0


@dataclass
class JobRecord:
    cycle: int
    traced: bool
    latency: float
    problems: list


@dataclass
class Cycle:
    traced: bool
    jobs: list  # job ids
    busy: float = 0.0  # time spent inside this cycle's jobs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "imports"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and args.probe != "imports":
        p.error("--workload is required")
    return args


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_job(wl, job, tracer, job_id, done):
    """Run one job, timing it, then check it; returns (latency, result, problems)."""
    if tracer is not None:
        tracer.job = job_id
    start = time.perf_counter()
    try:
        result = wl.run(job)
        error = None
    except Exception:  # a failed job is counted, and the loop goes on
        result, error = None, traceback.format_exc(limit=3).strip()
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.job = None
    if error is not None:
        return latency, None, [error]
    try:
        problems = wl.check(job, result, done)
    except Exception:
        problems = ["check raised: " + traceback.format_exc(limit=3).strip()]
    return latency, result, problems


def prepare(args, in_process_cli):
    """Set-up: import the library, build the workload, draw inputs, warm up."""
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.make_workload(args.workload, str(ROOT), str(OUT), in_process_cli)
    inp = workloads.inputs(args.workload, args.seed)
    first = wl.cycle(inp)
    warm = workloads.inputs(args.workload, args.seed, "warmup")
    done = []
    for job in (wl.warmup or wl.cycle)(warm):
        _, result, problems = run_job(wl, job, None, None, done)
        done.append(result)
        if problems:
            raise RuntimeError(f"warm-up job {job} failed: {problems}")
    return wl, inp, first


def measure(wl, inp, first, seconds, tracer=None):
    """Run whole cycles until `seconds` pass; with a tracer, trace every other cycle."""
    records, cycles = [], []
    deadline = time.perf_counter() + seconds
    jobs = first
    while True:
        traced = tracer is not None and len(cycles) % 2 == 1
        cycle = Cycle(traced, [])
        done = []
        if traced:
            tracer.install()
        try:
            for job in jobs:
                job_id = len(records)
                latency, result, problems = run_job(wl, job, tracer if traced else None,
                                                    job_id, done)
                done.append(result)
                cycle.jobs.append(job_id)
                cycle.busy += latency
                records.append(JobRecord(len(cycles), traced, latency, problems))
        finally:
            if traced:
                tracer.uninstall()
        cycles.append(cycle)
        enough = tracer is None or len(cycles) >= 2
        if enough and time.perf_counter() >= deadline:
            return records, cycles
        jobs = wl.cycle(inp)


def percentile(values, pct):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(records, cycles, traced):
    lat = [r.latency for r in records if r.traced == traced]
    busy = [c.busy for c in cycles if c.traced == traced]
    tail, beyond = percentile(lat, TAIL_PCT)
    per_cycle = len(cycles[0].jobs)
    return {
        "jobs_per_s": per_cycle / statistics.median(busy),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_tail_ms": tail * 1e3,
    }, {"tail_pct": TAIL_PCT, "samples": len(lat), "beyond_tail": beyond,
        "cycles": len(busy), "jobs_per_cycle": per_cycle}


def _probe(argv):
    """Start run.py in a fresh interpreter; returns (spawn time, its JSON line)."""
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv} failed: {proc.stderr.strip()[-500:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(args) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        spawned, data = _probe(["--probe", "setup", "--workload", args.workload,
                                "--seed", str(args.seed)])
        times.append(data["ready"] - spawned)
    return statistics.median(times)


def import_seconds() -> dict:
    samples = {"cli.interp_s": [], "cli.numpy_import_s": [], "cli.import_s": []}
    for _ in range(IMPORT_PROBES):
        spawned, data = _probe(["--probe", "imports"])
        samples["cli.interp_s"].append(data["start"] - spawned)
        samples["cli.numpy_import_s"].append(data["numpy_import_s"])
        samples["cli.import_s"].append(data["import_s"])
    return {k: statistics.median(v) for k, v in samples.items()}


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the process that runs the jobs.

    cli jobs run in child processes, so for cli this is the largest child.
    """
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_layer(tracer, records, cycles) -> tuple:
    """Per-layer totals of one traced cycle, plus problems if cycles disagree.

    Counts must repeat exactly from cycle to cycle because every cycle has
    the same shape; times are medians over the traced cycles.
    """
    import tracing

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    by_cycle = {}
    for i, span in enumerate(spans):
        by_cycle.setdefault(records[span[4]].cycle, []).append(i)
    traced = [c for c, cy in enumerate(cycles) if cy.traced]
    totals = [tracing.layer_totals(spans, selfs, by_cycle.get(c, [])) for c in traced]
    problems = []
    out = dict(totals[0])
    for key in set().union(*totals):
        values = [t.get(key, 0.0) for t in totals]
        if key.endswith("_s"):
            out[key] = statistics.median(values)
        elif key != "cli.emit_bytes" and len(set(values)) > 1:
            problems.append(f"count {key} differs between traced cycles: {values}")
    return out, problems


def write_trace(tracer, args) -> str:
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "job", "work"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return str(path.relative_to(ROOT))


def provenance(args) -> dict:
    import hashlib
    import platform

    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qelim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_name(numpy),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # the benchmark may run from an exported tree
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _blas_name(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return None


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or None


def select(values: dict, specs: list) -> dict:
    """The metrics BENCHMARK.json names, each with its unit."""
    out = {}
    for spec in specs:
        value = values.get(spec["name"], 0.0)
        out[spec["name"]] = {"value": int(value) if spec["unit"] in ("count", "bytes") else value,
                             "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qelim" / "__init__.py").is_file():
        print(f"run.py: no qelim sources under {SRC}; run from a qelim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe == "imports":
        start = time.perf_counter()
        import numpy  # noqa: F401

        numpy_done = time.perf_counter()
        import qelim.cli  # noqa: F401

        print(json.dumps({"start": _T0, "numpy_import_s": numpy_done - start,
                          "import_s": time.perf_counter() - numpy_done}))
        return 0

    wl, inp, first = prepare(args, in_process_cli=bool(args.trace))
    if args.probe == "setup":
        print(json.dumps({"ready": time.perf_counter()}))
        return 0

    spec = benchmark_spec()
    tracer = None
    if args.trace:
        import qelim
        import tracing

        tracer = tracing.Tracer(qelim)
    records, cycles = measure(wl, inp, first, args.seconds, tracer)
    rss = peak_rss_mb(args.workload)  # before any probe adds a child process

    values, info = end_to_end(records, cycles, traced=False)
    problems = [p for r in records for p in r.problems]
    if args.trace:
        layer, count_problems = per_layer(tracer, records, cycles)
        problems += count_problems
        traced_values, _ = end_to_end(records, cycles, traced=True)
        layer.update(import_seconds())
        layer["trace.overhead.job_p50_ms"] = traced_values["job_p50_ms"] - values["job_p50_ms"]
        layer["trace.overhead.jobs_per_s"] = traced_values["jobs_per_s"] - values["jobs_per_s"]
        info.update(untraced=values, traced=traced_values, trace_file=write_trace(tracer, args))
        metrics = select(layer, spec["per_layer"])
    else:
        values["setup_s"] = setup_seconds(args)
        values["peak_rss_mb"] = rss
        metrics = select(values, spec["end_to_end"])

    attempted = len(records)
    failed = sum(1 for r in records if r.problems)
    info["error_rate"] = failed / attempted
    if args.workload == "sampling" and not args.trace:
        info["shots_per_s"] = sum(j.shots for j in first) * values["jobs_per_s"] / len(first)
    info["first_problems"] = problems[:5]
    info["provenance"] = provenance(args)

    print(f"qelim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']!r:>24} {m['unit']}")
    print(f"  {'error_rate':28s} {info['error_rate']!r:>24} ({failed} of {attempted} jobs)")
    for line in problems[:5]:
        print("  problem: " + line.replace("\n", "\n    "), file=sys.stderr)
    print(json.dumps(info))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
