"""Command line front end.

Six subcommands: validate, probs, sweep, simulate, certify, bounds.
Angles are given as 2*theta in degrees. Output is JSON (default) or
CSV via --format; sweep defaults to CSV. Exit codes: 0 on success and
passing checks, 1 when a requested check fails, 2 on usage or domain
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys

from .analysis import discrimination_gap, elimination_bound, local_avg_eliminated
from .povm import outcome_probabilities, validate
from .schemes import (
    DegenerateAngle,
    TooManyQubits,
    UnsupportedAngle,
    ancilla_eliminate_one,
    eliminate_one,
    eliminate_two,
    local_usd,
    pbr_basis,
    usd_qubit,
)
from .states import Angle, uniform_ensemble
from .verify import certify_one, certify_two, monte_carlo

DEFAULT_TOL = 1e-10
DEFAULT_N = 2
DEFAULT_SHOTS = 10 ** 6
DEFAULT_SEED = 1
SEED_ENV_VAR = "QELIM_SEED"

# A value of this form is a negative number, not an option name.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf(inity)?|nan)$", re.IGNORECASE
)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _angle_from_deg(deg: float, option: str = "--two-theta-deg") -> Angle:
    if not (0.0 <= deg <= 90.0):
        raise UnsupportedAngle(f"{option} must lie in [0, 90] degrees, got {deg!r}")
    return Angle.from_two_theta_deg(deg)


def _eliminate_one(angle: Angle):
    """eliminate_one, with a domain error that points to ancilla-one."""
    if angle.two_theta >= math.pi / 4.0:
        raise UnsupportedAngle(
            "eliminate-one covers 0 <= 2*theta < 45 deg; use "
            "--scheme ancilla-one for 45 <= 2*theta <= 90 deg"
        )
    return eliminate_one(angle)


# --scheme name: (qubits, builder, certifier). A qubit count of None
# means the builder takes the count from --n.
SCHEMES = {
    "pbr": (2, pbr_basis, None),
    "eliminate-one": (2, _eliminate_one, certify_one),
    "ancilla-one": (2, ancilla_eliminate_one, None),
    "eliminate-two": (2, eliminate_two, certify_two),
    "usd": (1, usd_qubit, None),
    "local-usd": (None, local_usd, None),
}


def _qubits(args) -> int:
    """The scheme's qubit count; a fixed-size scheme refuses any other --n."""
    qubits = SCHEMES[args.scheme][0]
    if qubits is None:
        return DEFAULT_N if args.n is None else args.n
    if args.n not in (None, qubits):
        unit = "qubit" if qubits == 1 else "qubits"
        raise ValueError(f"--scheme {args.scheme} acts on {qubits} {unit}, got --n {args.n}")
    return qubits


def _build(args, angle: Angle):
    """The scheme's POVM at angle, once --n has passed the qubit check."""
    qubits, build, _ = SCHEMES[args.scheme]
    n = _qubits(args)
    return build(angle) if qubits else build(angle, n)


def _setup(args, angle: Angle, **config):
    """The scheme's POVM at angle, its uniform ensemble and the run's config."""
    povm = _build(args, angle)
    config = {"scheme": args.scheme, "two_theta_deg": args.two_theta_deg, "n": povm.n, **config}
    return povm, uniform_ensemble(angle, povm.n), config


def _resolve_seed(args) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
        else:
            seed = DEFAULT_SEED
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return seed


def _emit(args, config: dict, result: dict, rows: list, columns: list | None = None):
    """Write JSON (nested) or CSV (tabular rows) to --out or stdout.

    CSV columns are the first row's keys unless columns is given.
    """
    fmt = args.format or ("csv" if args.command == "sweep" else "json")
    if fmt == "json":
        text = json.dumps(
            {"command": args.command, "config": config, "result": result}, indent=2
        )
        text += "\n"
    else:
        columns = columns or list(rows[0])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            # a usage error (exit 2), not a failed check (exit 1)
            raise ValueError(f"cannot write --out {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    angle = _angle_from_deg(args.two_theta_deg)
    povm, ensemble, config = _setup(args, angle, tol=args.tol)
    report = validate(povm, ensemble, tol=args.tol)
    result = {
        "ok": report.ok,
        "violations": report.violations,
        "completeness_residual": report.completeness_residual,
        "min_eigenvalues": report.min_eigenvalues,
        "unambiguity_residuals": report.unambiguity_residuals,
    }
    rows = [
        {
            "effect": e.label,
            "min_eigenvalue": report.min_eigenvalues[i],
            "unambiguity_residual": report.unambiguity_residuals[i],
            "completeness_residual": report.completeness_residual,
            "ok": report.ok,
        }
        for i, e in enumerate(povm.effects)
    ]
    _emit(args, config, result, rows)
    return 0 if report.ok else 1


def _cmd_probs(args) -> int:
    angle = _angle_from_deg(args.two_theta_deg)
    povm, ensemble, config = _setup(args, angle)
    stats = outcome_probabilities(povm, ensemble)
    result = {
        "labels": stats.labels,
        "probs": [float(p) for p in stats.probs],
        "fail_prob": stats.fail_prob,
        "avg_eliminated": stats.avg_eliminated,
    }
    rows = [
        {
            "label": e.label,
            "probability": float(p),
            "excluded_count": e.excludes.size,
        }
        for e, p in zip(povm.effects, stats.probs)
    ]
    _emit(args, config, result, rows)
    return 0


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if not args.from_deg < args.to_deg:
        raise ValueError("--from must be smaller than --to")
    _angle_from_deg(args.from_deg, "--from")
    _angle_from_deg(args.to_deg, "--to")
    span = args.to_deg - args.from_deg
    # from + span can round past --to; such a point is --to itself
    degs = [
        min(args.from_deg + span * i / (args.steps - 1), args.to_deg)
        for i in range(args.steps)
    ]
    rows = []
    columns = ["two_theta_deg", "fail_prob"]
    for deg in degs:
        angle = _angle_from_deg(deg)
        povm = _build(args, angle)
        stats = outcome_probabilities(povm, uniform_ensemble(angle, povm.n))
        row = {"two_theta_deg": deg, "fail_prob": stats.fail_prob}
        for e, p in zip(povm.effects, stats.probs):
            key = f"p[{e.label}]"
            row[key] = float(p)
            if key not in columns:
                columns.append(key)
        row["avg_eliminated"] = stats.avg_eliminated
        row["bound"] = local_avg_eliminated(angle, povm.n)
        rows.append(row)
    columns += ["avg_eliminated", "bound"]
    for row in rows:
        for c in columns:
            row.setdefault(c, 0.0)  # outcomes absent at this angle never click
    config = {
        "scheme": args.scheme,
        "from": args.from_deg,
        "to": args.to_deg,
        "steps": args.steps,
        "n": povm.n,
    }
    result = {"columns": columns, "rows": [[r.get(c) for c in columns] for r in rows]}
    _emit(args, config, result, rows, columns)
    return 0


def _cmd_simulate(args) -> int:
    angle = _angle_from_deg(args.two_theta_deg)
    if args.shots < 1:
        raise ValueError("--shots must be at least 1")
    seed = _resolve_seed(args)
    povm, ensemble, config = _setup(args, angle, shots=args.shots, seed=seed)
    sim = monte_carlo(povm, ensemble, args.shots, seed)
    result = {
        "labels": sim.labels,
        "counts": sim.counts,
        "freqs": sim.freqs,
        "analytic": sim.analytic,
        "max_abs_dev": sim.max_abs_dev,
        "avg_eliminated": sim.avg_eliminated,
    }
    rows = [
        {
            "label": lab,
            "count": cnt,
            "frequency": frq,
            "analytic": ana,
            "abs_dev": abs(frq - ana),
        }
        for lab, cnt, frq, ana in zip(sim.labels, sim.counts, sim.freqs, sim.analytic)
    ]
    _emit(args, config, result, rows)
    return 0


def _cmd_certify(args) -> int:
    angle = _angle_from_deg(args.two_theta_deg)
    certifier = SCHEMES[args.scheme][2]
    if certifier is None:
        certified = " or ".join(name for name, entry in SCHEMES.items() if entry[2])
        raise ValueError(f"certify supports --scheme {certified}")
    _qubits(args)
    report = certifier(angle)
    config = {"scheme": args.scheme, "two_theta_deg": args.two_theta_deg}
    result = {
        "claim": report.claim,
        "closed_form": report.closed_form,
        "oracle": report.oracle,
        "gap": report.gap,
        "params": report.params,
        "verdict": report.verdict,
    }
    row = {k: v for k, v in result.items() if k != "params"}
    _emit(args, config, result, [row])
    return 0 if report.ok else 1


def _cmd_bounds(args) -> int:
    angle = _angle_from_deg(args.two_theta_deg)
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    report = elimination_bound(angle, args.n)
    gap = discrimination_gap(angle.overlap, args.n)
    config = {"two_theta_deg": args.two_theta_deg, "n": args.n}
    result = {
        "n": report.n,
        "overlap": report.overlap,
        "bound": report.bound,
        "per_k_caps": [[k, cap] for k, cap in report.per_k_caps],
        "disc_gap": gap,
    }
    rows = [
        {
            "n": report.n,
            "two_theta_deg": args.two_theta_deg,
            "bound": report.bound,
            "disc_gap": gap,
            "k": k,
            "cap": cap,
        }
        for k, cap in report.per_k_caps
    ]
    _emit(args, config, result, rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes -1e-10, -inf and -nan as option values.

    argparse before Python 3.13 treats only plain decimals such as -0.5
    as negative numbers, so "--tol -1e-10" lost its value to the option
    scanner. Subparsers are built from the parent's class, so every
    float option of every subcommand gets the wider pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qelim",
        description="Unambiguous state-elimination measurements for qubit pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme=True, angle=True):
        if scheme:
            p.add_argument("--scheme", required=True, choices=SCHEMES)
        if angle:
            p.add_argument("--two-theta-deg", type=float, required=True)
        p.add_argument("--n", type=int, default=None if scheme else DEFAULT_N)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default=None)

    p_validate = sub.add_parser("validate", help="check a scheme's POVM")
    p_validate.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common(p_validate)
    common(sub.add_parser("probs", help="outcome probabilities of a scheme"))

    p_sweep = sub.add_parser("sweep", help="tabulate a scheme over an angle range")
    p_sweep.add_argument("--from", dest="from_deg", type=float, required=True)
    p_sweep.add_argument("--to", dest="to_deg", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    common(p_sweep, angle=False)

    p_sim = sub.add_parser("simulate", help="finite-shot sampling of a scheme")
    p_sim.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p_sim.add_argument("--seed", type=int, default=None)
    common(p_sim)

    common(sub.add_parser("certify", help="re-derive a closed form by search"))

    p_bounds = sub.add_parser("bounds", help="local benchmark and gap at an angle")
    common(p_bounds, scheme=False)
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "probs": _cmd_probs,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "certify": _cmd_certify,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (UnsupportedAngle, DegenerateAngle, TooManyQubits, ValueError) as exc:
        print(f"qelim {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
