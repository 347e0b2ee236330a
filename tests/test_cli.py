"""Tests for the command line front end."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qelim
from qelim.analysis import local_avg_eliminated, pair_threshold
from qelim.cli import DEFAULT_SEED, SCHEMES, SEED_ENV_VAR, main
from qelim.povm import outcome_probabilities
from qelim.schemes import eliminate_two
from qelim.states import Angle, uniform_ensemble


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    doc = json.loads(out)
    assert set(doc) == {"command", "config", "result"}
    return doc


class TestValidateCommand:
    def test_pbr_valid_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["validate", "--scheme", "pbr", "--two-theta-deg", "45"],
        )
        assert code == 0
        doc = parse_json(out)
        assert doc["command"] == "validate"
        assert doc["config"]["scheme"] == "pbr"
        assert doc["result"]["ok"] is True
        assert doc["result"]["violations"] == []
        assert doc["result"]["completeness_residual"] <= 1e-10

    def test_failing_check_exits_one(self, capsys):
        # an impossally tight tolerance turns roundoff into a violation
        code, out, _ = run_cli(
            capsys,
            [
                "validate",
                "--scheme",
                "pbr",
                "--two-theta-deg",
                "45",
                "--tol",
                "1e-18",
            ],
        )
        assert code == 1
        doc = parse_json(out)
        assert doc["result"]["ok"] is False
        assert doc["result"]["violations"]

    def test_wrong_branch_redirects(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["validate", "--scheme", "eliminate-one", "--two-theta-deg", "50"],
        )
        assert code == 2
        assert "ancilla-one" in err

    def test_angle_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["validate", "--scheme", "pbr", "--two-theta-deg", "95"],
        )
        assert code == 2
        assert "90" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-10"])
    def test_bad_tol_exits_two(self, capsys, tol):
        code, out, err = run_cli(
            capsys,
            ["validate", "--scheme", "pbr", "--two-theta-deg", "45", f"--tol={tol}"],
        )
        assert code == 2
        assert out == ""
        assert "tol" in err

    @pytest.mark.parametrize("spelling", ["--tol=-1e-10", "--tol -1e-10"])
    def test_negative_tol_in_scientific_notation(self, capsys, spelling):
        # both spellings reach the tolerance check, not an argparse error
        argv = ["validate", "--scheme", "pbr", "--two-theta-deg", "45"]
        code, out, err = run_cli(capsys, argv + spelling.split())
        assert code == 2
        assert out == ""
        assert err == "qelim validate: tol must be finite and nonnegative, got -1e-10\n"

    @pytest.mark.parametrize("joined", [True, False], ids=["equals", "space"])
    @pytest.mark.parametrize(
        "argv, option, value, message",
        [
            (["validate", "--scheme", "pbr"], "--two-theta-deg", "-1e-3", "got -0.001"),
            (["bounds"], "--two-theta-deg", "-2.5E1", "got -25.0"),
            (["validate", "--scheme", "pbr", "--two-theta-deg", "45"], "--tol", "-inf",
             "got -inf"),
            (["sweep", "--scheme", "usd", "--to", "10", "--steps", "2"], "--from", "-1e1",
             "got -10.0"),
            (["sweep", "--scheme", "usd", "--from", "-2e1", "--steps", "2"], "--to", "-1e1",
             "got -20.0"),
        ],
    )
    def test_every_float_option_takes_scientific_negatives(
        self, capsys, argv, option, value, message, joined
    ):
        extra = [f"{option}={value}"] if joined else [option, value]
        code, out, err = run_cli(capsys, argv + extra)
        assert code == 2
        assert out == ""
        assert "expected one argument" not in err
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["probs", "--scheme", "pbr", "--two-theta-deg", "45"],
            ["sweep", "--scheme", "pbr", "--from", "40", "--to", "45", "--steps", "2"],
            ["simulate", "--scheme", "pbr", "--two-theta-deg", "45", "--shots", "10"],
            ["certify", "--scheme", "eliminate-one", "--two-theta-deg", "30"],
            ["bounds", "--two-theta-deg", "45"],
        ],
    )
    def test_tol_only_on_validate(self, capsys, argv):
        # --tol changes nothing outside validate, so elsewhere it is a usage error
        code, out, err = run_cli(capsys, argv + ["--tol", "1e-3"])
        assert code == 2
        assert out == ""
        assert "--tol" in err
        code, out, _ = run_cli(
            capsys, ["validate", "--scheme", "pbr", "--two-theta-deg", "45", "--tol", "1e-3"]
        )
        assert code == 0
        assert parse_json(out)["config"]["tol"] == 1e-3

    @pytest.mark.parametrize(
        "scheme, deg",
        [
            ("pbr", "45.0000001"),
            ("ancilla-one", "44.9999999"),
            ("usd", "90.0000001"),
        ],
    )
    def test_domain_error_shows_exact_angle(self, capsys, scheme, deg):
        # the rejected angle must not round to one that would be accepted
        code, _, err = run_cli(
            capsys, ["validate", "--scheme", scheme, "--two-theta-deg", deg]
        )
        assert code == 2
        assert f"got {deg}" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "validate",
                "--scheme",
                "usd",
                "--two-theta-deg",
                "45",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "effect",
            "min_eigenvalue",
            "unambiguity_residual",
            "completeness_residual",
            "ok",
        ]
        assert len(rows) == 4  # header + three effects


class TestProbsCommand:
    def test_eliminate_two_csv_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "probs",
                "--scheme",
                "eliminate-two",
                "--two-theta-deg",
                "60",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["label", "probability", "excluded_count"]
        by_label = {r[0]: (float(r[1]), int(r[2])) for r in rows[1:]}
        assert by_label["not(++,-+)"] == (pytest.approx(0.1875, abs=1e-15), 2)
        assert by_label["not(+-,-+)"] == (pytest.approx(0.0625, abs=1e-15), 2)
        assert by_label["fail"] == (pytest.approx(0.125, abs=1e-12), 0)

    def test_csv_floats_round_trip(self, capsys):
        a = Angle.from_two_theta_deg(60.0)
        stats = outcome_probabilities(eliminate_two(a), uniform_ensemble(a, 2))
        exact = dict(zip(stats.labels, (float(p) for p in stats.probs)))
        code, out, _ = run_cli(
            capsys,
            [
                "probs",
                "--scheme",
                "eliminate-two",
                "--two-theta-deg",
                "60",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        for row in list(csv.reader(io.StringIO(out)))[1:]:
            # 17 significant digits reproduce the double exactly
            assert float(row[1]) == exact[row[0]]

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["probs", "--scheme", "local-usd", "--two-theta-deg", "45", "--n", "2"],
        )
        assert code == 0
        doc = parse_json(out)
        assert len(doc["result"]["labels"]) == 9
        assert sum(doc["result"]["probs"]) == pytest.approx(1.0, abs=1e-12)


class TestSweepCommand:
    def test_defaults_to_csv_with_filled_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "sweep",
                "--scheme",
                "eliminate-two",
                "--from",
                "60",
                "--to",
                "80",
                "--steps",
                "5",
            ],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header = rows[0]
        assert header[:2] == ["two_theta_deg", "fail_prob"]
        assert "p[fail]" in header
        assert len(rows) == 6
        # rows past the threshold have no failure effect; the column is
        # filled with zeros rather than left ragged
        fail_col = header.index("p[fail]")
        thr = math.degrees(pair_threshold())
        for r in rows[1:]:
            deg = float(r[0])
            assert r[fail_col] != ""
            if deg > thr:
                assert float(r[fail_col]) == 0.0

    @pytest.mark.parametrize("scheme, n", [("usd", 1), ("eliminate-two", 2), ("local-usd", 3)])
    def test_bound_is_the_local_benchmark_on_the_schemes_qubits(self, capsys, scheme, n):
        argv = ["sweep", "--scheme", scheme, "--from", "30", "--to", "90", "--steps", "3"]
        code, out, _ = run_cli(capsys, argv + ["--n", str(n), "--format", "json"])
        assert code == 0
        doc = parse_json(out)
        assert doc["config"]["n"] == n
        columns = doc["result"]["columns"]
        for row in doc["result"]["rows"]:
            deg, bound = row[0], row[columns.index("bound")]
            assert bound == local_avg_eliminated(Angle.from_two_theta_deg(deg), n)

    def test_fail_prob_decreases_to_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "sweep",
                "--scheme",
                "eliminate-two",
                "--from",
                "30",
                "--to",
                "90",
                "--steps",
                "7",
            ],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        fails = [float(r[1]) for r in rows[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(fails, fails[1:]))
        assert fails[-1] == 0.0

    def test_json_format_option(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "sweep",
                "--scheme",
                "usd",
                "--from",
                "10",
                "--to",
                "90",
                "--steps",
                "3",
                "--format",
                "json",
            ],
        )
        assert code == 0
        doc = parse_json(out)
        assert len(doc["result"]["rows"]) == 3
        assert doc["config"]["steps"] == 3

    @pytest.mark.parametrize("scheme, n, want", [("usd", "1", 1), ("local-usd", "3", 3)])
    def test_config_records_qubit_count(self, capsys, scheme, n, want):
        code, out, _ = run_cli(
            capsys,
            [
                "sweep",
                "--scheme",
                scheme,
                "--from",
                "10",
                "--to",
                "90",
                "--steps",
                "2",
                "--n",
                n,
                "--format",
                "json",
            ],
        )
        assert code == 0
        assert parse_json(out)["config"]["n"] == want

    def test_bad_ranges(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["sweep", "--scheme", "usd", "--from", "30", "--to", "10", "--steps", "3"],
        )
        assert code == 2
        assert "--from" in err
        code, _, err = run_cli(
            capsys,
            ["sweep", "--scheme", "usd", "--from", "10", "--to", "30", "--steps", "1"],
        )
        assert code == 2
        assert "--steps" in err

    @pytest.mark.parametrize(
        "lo, hi, option, value",
        [
            ("-1e1", "10", "--from", "-10.0"),
            ("-5", "95", "--from", "-5.0"),
            ("10", "95", "--to", "95.0"),
            ("0", "90.5", "--to", "90.5"),
        ],
    )
    def test_out_of_range_end_names_its_option(self, capsys, lo, hi, option, value):
        code, out, err = run_cli(
            capsys, ["sweep", "--scheme", "usd", "--from", lo, "--to", hi, "--steps", "2"]
        )
        assert code == 2
        assert out == ""
        assert err == f"qelim sweep: {option} must lie in [0, 90] degrees, got {value}\n"

    @pytest.mark.parametrize("lo, steps", [("29.3", "19"), ("0.3", "27")])
    def test_last_point_is_the_upper_end(self, capsys, lo, steps):
        # from + (to - from) rounds to 90.00000000000001 here; the sweep
        # must end at --to instead of rejecting its own last point
        code, out, _ = run_cli(
            capsys, ["sweep", "--scheme", "usd", "--from", lo, "--to", "90", "--steps", steps]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == int(steps)
        assert float(rows[0]["two_theta_deg"]) == float(lo)
        assert rows[-1]["two_theta_deg"] == "90"


class TestSimulateCommand:
    ARGS = [
        "simulate",
        "--scheme",
        "pbr",
        "--two-theta-deg",
        "45",
        "--shots",
        "20000",
    ]

    def test_deterministic_for_fixed_seed(self, capsys):
        code1, out1, _ = run_cli(capsys, self.ARGS + ["--seed", "9"])
        code2, out2, _ = run_cli(capsys, self.ARGS + ["--seed", "9"])
        assert code1 == code2 == 0
        assert json.loads(out1)["result"]["counts"] == (
            json.loads(out2)["result"]["counts"]
        )

    def test_seed_changes_counts(self, capsys):
        _, out1, _ = run_cli(capsys, self.ARGS + ["--seed", "9"])
        _, out2, _ = run_cli(capsys, self.ARGS + ["--seed", "10"])
        assert json.loads(out1)["result"]["counts"] != (
            json.loads(out2)["result"]["counts"]
        )

    def test_env_seed_honored(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "31")
        code, out, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 31

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "31")
        code, out, _ = run_cli(capsys, self.ARGS + ["--seed", "5"])
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 5

    def test_default_seed(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, out, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        assert json.loads(out)["config"]["seed"] == DEFAULT_SEED

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code, _, err = run_cli(capsys, self.ARGS)
        assert code == 2
        assert SEED_ENV_VAR in err

    def test_shots_above_the_cap_exit_two_at_once(self, capsys):
        argv = ["simulate", "--scheme", "pbr", "--two-theta-deg", "45"]
        code, out, err = run_cli(capsys, argv + ["--shots", "100000000000000"])
        assert code == 2
        assert out == ""
        assert "shots must be at most 10000000000" in err

    def test_negative_seed_rejected(self, capsys):
        code, _, err = run_cli(capsys, self.ARGS + ["--seed", "-3"])
        assert code == 2
        assert "seed" in err

    def test_counts_sum_to_shots(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS + ["--seed", "2"])
        assert code == 0
        assert sum(json.loads(out)["result"]["counts"]) == 20000

    def test_result_keys_unchanged(self, capsys):
        # the sampler's chi2 and dof stay out of the default output
        code, out, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        assert list(parse_json(out)["result"]) == [
            "labels",
            "counts",
            "freqs",
            "analytic",
            "max_abs_dev",
            "avg_eliminated",
        ]


class TestCertifyCommand:
    def test_eliminate_two_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["certify", "--scheme", "eliminate-two", "--two-theta-deg", "60"],
        )
        assert code == 0
        doc = parse_json(out)
        assert doc["result"]["verdict"] == "pass"
        assert "conjecture" in doc["result"]["claim"]
        assert abs(doc["result"]["gap"]) <= 1e-12

    def test_eliminate_one_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["certify", "--scheme", "eliminate-one", "--two-theta-deg", "30"],
        )
        assert code == 0
        assert parse_json(out)["result"]["verdict"] == "pass"

    @pytest.mark.parametrize(
        "scheme, deg", [("eliminate-two", "60"), ("eliminate-one", "30")]
    )
    def test_exact_gap_and_no_grid(self, capsys, scheme, deg):
        code, out, _ = run_cli(
            capsys,
            ["certify", "--scheme", scheme, "--two-theta-deg", deg, "--format", "json"],
        )
        assert code == 0
        result = parse_json(out)["result"]
        assert result["verdict"] == "pass"
        assert abs(result["gap"]) <= 1e-12
        assert result["params"]["grid_steps"] == 0

    def test_unsupported_scheme(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["certify", "--scheme", "usd", "--two-theta-deg", "45"],
        )
        assert code == 2
        assert "certify" in err


class TestSchemeTable:
    # An angle (2t in degrees) inside each scheme's domain.
    IN_DOMAIN = {
        "pbr": "45",
        "eliminate-one": "30",
        "ancilla-one": "60",
        "eliminate-two": "60",
        "usd": "30",
        "local-usd": "57",
    }
    FIXED = [name for name, (qubits, _, _) in SCHEMES.items() if qubits is not None]

    def test_every_scheme_has_an_angle_here(self):
        assert set(self.IN_DOMAIN) == set(SCHEMES)

    @pytest.mark.parametrize("name", FIXED)
    def test_builder_acts_on_the_declared_qubits(self, name):
        qubits, build, _ = SCHEMES[name]
        assert build(Angle.from_two_theta_deg(float(self.IN_DOMAIN[name]))).n == qubits

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_local_usd_acts_on_n_qubits(self, capsys, n):
        qubits, build, _ = SCHEMES["local-usd"]
        assert qubits is None
        assert build(Angle.from_two_theta_deg(57.0), n).n == n
        argv = ["probs", "--scheme", "local-usd", "--two-theta-deg", "57", "--n", str(n)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert parse_json(out)["config"]["n"] == n

    def test_local_usd_defaults_to_two_qubits(self, capsys):
        code, out, _ = run_cli(capsys, ["probs", "--scheme", "local-usd", "--two-theta-deg", "57"])
        assert code == 0
        assert parse_json(out)["config"]["n"] == 2

    def test_certifiers_only_for_the_elimination_schemes(self):
        certified = {name for name, (_, _, certifier) in SCHEMES.items() if certifier}
        assert certified == {"eliminate-one", "eliminate-two"}

    @pytest.mark.parametrize("command", ["validate", "probs", "simulate"])
    @pytest.mark.parametrize("name", FIXED)
    def test_matching_n_changes_nothing(self, capsys, command, name):
        argv = [command, "--scheme", name, "--two-theta-deg", self.IN_DOMAIN[name]]
        argv += ["--shots", "1000", "--seed", "3"] if command == "simulate" else []
        code, plain, _ = run_cli(capsys, argv)
        given = run_cli(capsys, argv + ["--n", str(SCHEMES[name][0])])
        assert (code, plain) == given[:2] and given[2] == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", "--scheme", "pbr", "--two-theta-deg", "45", "--n", "5"],
             "--scheme pbr acts on 2 qubits, got --n 5"),
            (["probs", "--scheme", "usd", "--two-theta-deg", "30", "--n", "0"],
             "--scheme usd acts on 1 qubit, got --n 0"),
            (["sweep", "--scheme", "usd", "--from", "0", "--to", "90", "--steps", "3",
              "--n", "9"],
             "--scheme usd acts on 1 qubit, got --n 9"),
            (["simulate", "--scheme", "ancilla-one", "--two-theta-deg", "60", "--seed", "1",
              "--n", "1"],
             "--scheme ancilla-one acts on 2 qubits, got --n 1"),
            (["certify", "--scheme", "eliminate-two", "--two-theta-deg", "40", "--n", "7"],
             "--scheme eliminate-two acts on 2 qubits, got --n 7"),
        ],
    )
    def test_mismatched_n_exits_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"qelim {argv[0]}: {message}\n"

    def test_checks_run_in_order(self, capsys):
        # with several faults, the first check in the order angle, shots,
        # seed, --n, scheme domain reports
        argv = ["simulate", "--scheme", "eliminate-one", "--two-theta-deg", "95",
                "--shots", "0", "--seed", "-1", "--n", "3"]
        fixes = [("--two-theta-deg", "60"), ("--shots", "10"), ("--seed", "1"), ("--n", "2")]
        wants = ["--two-theta-deg must lie", "--shots must be", "seed must be",
                 "acts on 2 qubits", "use --scheme ancilla-one"]
        for (option, value), want in zip(fixes + [(None, None)], wants):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, "")
            assert want in err
            if option:
                argv[argv.index(option) + 1] = value


class TestBoundsCommand:
    def test_values_at_45(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--two-theta-deg", "45", "--n", "2"],
        )
        assert code == 0
        doc = parse_json(out)
        assert doc["result"]["bound"] == pytest.approx(
            1.085786437626905, abs=1e-14
        )
        assert len(doc["result"]["per_k_caps"]) == 3

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--two-theta-deg", "45", "--n", "2", "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 4  # header + one row per K
        assert rows[0][0] == "n"

    def test_bad_n(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--two-theta-deg", "45", "--n", "0"])
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize("n", ["17", "24", "40"])
    def test_too_many_qubits_exits_two(self, capsys, n):
        code, out, err = run_cli(capsys, ["bounds", "--two-theta-deg", "45", "--n", n])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "up to 16 qubits" in err


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            [
                "validate",
                "--scheme",
                "pbr",
                "--two-theta-deg",
                "45",
                "--out",
                str(target),
            ],
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["result"]["ok"] is True


    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        code, out, err = run_cli(
            capsys,
            ["probs", "--scheme", "usd", "--two-theta-deg", "60", "--out", str(target)],
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"qelim probs: cannot write --out {target}: [Errno ")


class TestEntryPoints:
    PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

    @staticmethod
    def child_env(bin_dir=None):
        """Environment for a child that imports the qelim this process imported."""
        env = dict(os.environ)
        package_root = str(Path(qelim.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        if bin_dir is not None:
            env["PATH"] = os.pathsep.join(
                filter(None, [str(bin_dir), env.get("PATH")])
            )
        return env

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qelim.cli", "--help"],
            capture_output=True,
            text=True,
            env=self.child_env(),
        )
        assert proc.returncode == 0
        assert "validate" in proc.stdout

    def test_console_script(self, tmp_path):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with open(self.PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["qelim"]
        module, _, func = target.partition(":")
        # the launcher pip writes for a console script, without installing
        launcher = tmp_path / "qelim"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n",
            encoding="utf-8",
        )
        launcher.chmod(0o755)
        proc = subprocess.run(
            ["qelim", "probs", "--scheme", "usd", "--two-theta-deg", "60"],
            capture_output=True,
            text=True,
            env=self.child_env(bin_dir=tmp_path),
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["command"] == "probs"
