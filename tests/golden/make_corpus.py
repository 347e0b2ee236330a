"""Write the golden CLI corpus, cli.jsonl, next to this file.

Each line records one in-process run of ``qelim.cli.main``: its argv,
exit code, stderr and stdout. tests/test_golden.py replays every record
and requires the same exit code and stderr, and stdout equal up to the
float tolerance it states. Regenerate only when a change to the output
is intended, and list in CHANGES.md the records it prints as moved:

    PYTHONPATH=src python tests/golden/make_corpus.py

Every simulate run passes --seed, so the corpus does not depend on the
QELIM_SEED environment variable. Usage errors that argparse reports are
left out: their wording changes between Python versions. So are
validate runs whose verdict sits on roundoff, such as a tolerance below
1e-16.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from qelim import cli

CORPUS = Path(__file__).with_name("cli.jsonl")

# Angles (2t in degrees) inside each scheme's domain, from edge to edge.
_SCHEME_DEGS = {
    "pbr": ["45"],
    "eliminate-one": ["0", "10", "30", "44.5"],
    "ancilla-one": ["45", "60", "90"],
    "eliminate-two": ["20", "50", "70", "90"],
    "usd": ["0", "30", "90"],
}
_LOCAL_DEGS = ["30", "57"]


def _scheme_runs() -> list:
    """validate, probs and seeded simulate for every scheme, local-usd at n = 1-4."""
    cases = [(scheme, deg, []) for scheme, degs in _SCHEME_DEGS.items() for deg in degs]
    cases += [("local-usd", deg, ["--n", str(n)]) for n in (1, 2, 3, 4) for deg in _LOCAL_DEGS]
    runs = []
    for scheme, deg, extra in cases:
        base = ["--scheme", scheme, "--two-theta-deg", deg, *extra]
        runs.append(["validate", *base])
        runs.append(["probs", *base])
        runs.append(["simulate", *base, "--shots", "100000", "--seed", "7"])
    return runs


def _other_runs() -> list:
    """CSV output, sweep, certify, bounds and the errors that exit 2."""
    return [
        ["validate", "--scheme", "eliminate-two", "--two-theta-deg", "30", "--format", "csv"],
        ["validate", "--scheme", "local-usd", "--two-theta-deg", "57", "--n", "3",
         "--tol", "1e-12"],
        ["probs", "--scheme", "ancilla-one", "--two-theta-deg", "75", "--format", "csv"],
        ["probs", "--scheme", "local-usd", "--two-theta-deg", "40", "--n", "4",
         "--format", "csv"],
        ["simulate", "--scheme", "pbr", "--two-theta-deg", "45", "--seed", "3",
         "--format", "csv"],
        ["simulate", "--scheme", "eliminate-two", "--two-theta-deg", "80", "--shots", "1",
         "--seed", str(2 ** 64 - 1)],
        ["sweep", "--scheme", "eliminate-two", "--from", "30", "--to", "90", "--steps", "7"],
        ["sweep", "--scheme", "eliminate-one", "--from", "0", "--to", "40", "--steps", "5",
         "--format", "json"],
        ["sweep", "--scheme", "local-usd", "--from", "10", "--to", "80", "--steps", "4",
         "--n", "3"],
        ["sweep", "--scheme", "usd", "--from", "0", "--to", "90", "--steps", "3"],
        ["certify", "--scheme", "eliminate-one", "--two-theta-deg", "20"],
        ["certify", "--scheme", "eliminate-one", "--two-theta-deg", "0"],
        ["certify", "--scheme", "eliminate-two", "--two-theta-deg", "40"],
        ["certify", "--scheme", "eliminate-two", "--two-theta-deg", "70", "--format", "csv"],
        *[["bounds", "--two-theta-deg", deg, "--n", str(n)]
          for n in (1, 2, 3, 4, 5) for deg in ("30", "75")],
        ["bounds", "--two-theta-deg", "0", "--n", "5", "--format", "csv"],
        # exit 2: out-of-domain angles and qubit counts
        ["validate", "--scheme", "pbr", "--two-theta-deg", "30"],
        ["validate", "--scheme", "eliminate-one", "--two-theta-deg", "60"],
        ["probs", "--scheme", "ancilla-one", "--two-theta-deg", "0"],
        ["probs", "--scheme", "ancilla-one", "--two-theta-deg", "30"],
        ["probs", "--scheme", "eliminate-two", "--two-theta-deg", "0"],
        ["probs", "--scheme", "usd", "--two-theta-deg", "95"],
        ["probs", "--scheme", "usd", "--two-theta-deg", "-1"],
        ["probs", "--scheme", "local-usd", "--two-theta-deg", "30", "--n", "7"],
        ["probs", "--scheme", "local-usd", "--two-theta-deg", "30", "--n", "0"],
        # exit 2: bad tolerances, shot counts, seeds and ranges
        ["validate", "--scheme", "usd", "--two-theta-deg", "30", "--tol", "nan"],
        ["validate", "--scheme", "usd", "--two-theta-deg", "30", "--tol", "-1e-10"],
        ["simulate", "--scheme", "usd", "--two-theta-deg", "30", "--shots", "0", "--seed", "1"],
        ["simulate", "--scheme", "usd", "--two-theta-deg", "30", "--shots", str(10 ** 11),
         "--seed", "1"],
        ["simulate", "--scheme", "usd", "--two-theta-deg", "30", "--seed", "-1"],
        ["sweep", "--scheme", "usd", "--from", "0", "--to", "90", "--steps", "1"],
        ["sweep", "--scheme", "usd", "--from", "50", "--to", "40", "--steps", "3"],
        ["sweep", "--scheme", "usd", "--from", "0", "--to", "100", "--steps", "3"],
        ["certify", "--scheme", "usd", "--two-theta-deg", "30"],
        ["certify", "--scheme", "eliminate-one", "--two-theta-deg", "50"],
        ["bounds", "--two-theta-deg", "30", "--n", "0"],
        # --n given to a fixed-size scheme: accepted when it matches, else exit 2
        ["probs", "--scheme", "usd", "--two-theta-deg", "30", "--n", "1"],
        ["validate", "--scheme", "pbr", "--two-theta-deg", "45", "--n", "5"],
        ["probs", "--scheme", "usd", "--two-theta-deg", "30", "--n", "0"],
        ["simulate", "--scheme", "eliminate-two", "--two-theta-deg", "60", "--seed", "1",
         "--n", "3"],
        ["sweep", "--scheme", "usd", "--from", "0", "--to", "90", "--steps", "3", "--n", "9"],
        ["certify", "--scheme", "eliminate-one", "--two-theta-deg", "20", "--n", "7"],
    ]


def corpus_argvs() -> list:
    return _scheme_runs() + _other_runs()


def run(argv: list) -> dict:
    """One in-process CLI run as a corpus record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


def main() -> None:
    """Rewrite the corpus and print the argv of every record that moved."""
    old = {}
    if CORPUS.exists():
        for line in CORPUS.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            old[tuple(record["argv"])] = record
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for argv in corpus_argvs():
            record = run(argv)
            fh.write(json.dumps(record) + "\n")
            if old.get(tuple(argv), record) != record:
                print("moved:", " ".join(argv))


if __name__ == "__main__":
    main()
