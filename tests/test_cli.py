"""Tests for the command-line surface: grammar, output, exit codes."""

import importlib.util
import json
from math import gcd
from pathlib import Path

import pytest

from trisieve import cli
from trisieve.survey import CSV_HEADER

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference"


def brute_count(p, q, n):
    total = 0
    for a in range(1, n + 1):
        if gcd(a, n) != 1:
            continue
        if 1 <= (a * p) % n <= 2 * p - 1 and 1 <= (a * q) % n <= 2 * q - 1:
            total += 1
    return total


class TestCheck:
    def test_ruled_out_line(self):
        outcome = cli.run(["check", "5", "6", "23"])
        assert outcome.exit_code == 0
        assert outcome.stdout_payload == "RULED OUT  witness=5  ineqs=p,q  S=3\n"

    def test_not_ruled_out_line(self):
        expected_s = brute_count(1, 4, 12)
        assert expected_s == 1
        outcome = cli.run(["check", "1", "4", "12", "--mode", "two-of-three"])
        assert outcome.exit_code == 0
        assert outcome.stdout_payload == f"NOT RULED OUT  S={expected_s}\n"

    def test_obtuseness_violation_exits_one(self, capsys):
        outcome = cli.run(["check", "3", "3", "10"])
        assert outcome.exit_code == 1
        assert outcome.stdout_payload == ""
        assert "p + q < n/2" in capsys.readouterr().err

    def test_deterministic(self):
        first = cli.run(["check", "5", "6", "23"])
        second = cli.run(["check", "5", "6", "23"])
        assert first == second


class TestCountAndSpectrum:
    def test_count(self):
        outcome = cli.run(["count", "1", "2", "7"])
        assert outcome.exit_code == 0
        assert outcome.stdout_payload == "1\n"

    def test_spectrum_fields(self):
        outcome = cli.run(["spectrum", "5", "6", "23"])
        assert outcome.exit_code == 0
        line = outcome.stdout_payload.strip()
        parts = dict(token.split("=") for token in line.split())
        assert parts["S"] == "3"
        assert float(parts["M"]) == pytest.approx(2178 / 529, abs=1e-6)
        assert float(parts["E"]) == pytest.approx(3 - 2178 / 529, abs=1e-6)
        assert float(parts["residual"]) < 1e-6


@pytest.fixture(scope="module")
def oracle():
    """The benchmark's brute-force pointwise oracle, which shares no code
    with trisieve; loaded read-only by path."""
    path = PERFBENCH / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPointwiseOracle:
    # survivors, witnesses by p and q or by r (4 | n among them), S up to
    # 253, a prime and a primorial denominator
    PAIRS = (
        (5, 6, 23),
        (1, 4, 12),
        (1, 2, 7),
        (1, 5, 20),
        (3, 5, 64),
        (7, 30, 97),
        (100, 101, 1000),
        (1, 1, 1009),
        (250, 251, 1009),
        (13, 17, 2310),
    )

    @pytest.mark.parametrize("p, q, n", PAIRS)
    def test_output_matches_oracle(self, oracle, p, q, n):
        pair = [str(p), str(q), str(n)]
        for kind, *flags in (("check", "--mode", "two-of-three"), ("count",), ("spectrum",)):
            argv = ["--threads", "1", kind, *pair, *flags]
            outcome = cli.run(argv)
            assert outcome.exit_code == 0, argv
            assert oracle.pointwise_ok(argv, outcome.stdout_payload), (argv, outcome)

    @pytest.mark.parametrize("p, q, n", PAIRS)
    def test_check_s_is_count(self, p, q, n):
        pair = [str(p), str(q), str(n)]
        line = cli.run(["--threads", "1", "check", *pair]).stdout_payload
        count = cli.run(["--threads", "1", "count", *pair]).stdout_payload
        assert line.endswith(f"  S={count}"), (line, count)


class TestSurveyCommand:
    def test_writes_csv_file(self, tmp_path):
        out = tmp_path / "s.csv"
        outcome = cli.run(
            ["survey", "--min", "5", "--max", "30", "--filter", "primes", "--out", str(out)]
        )
        assert outcome.exit_code == 0
        assert outcome.stdout_payload == ""
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9  # header + 8 primes

    def test_stdout_csv(self):
        outcome = cli.run(["survey", "--min", "5", "--max", "10"])
        assert outcome.exit_code == 0
        lines = outcome.stdout_payload.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7

    def test_eta_flag(self):
        plain = cli.run(["survey", "--min", "30", "--max", "30"])
        trimmed = cli.run(["survey", "--min", "30", "--max", "30", "--eta", "1/15"])
        assert trimmed.exit_code == 0
        h_plain = int(plain.stdout_payload.splitlines()[1].split(",")[3])
        h_trim = int(trimmed.stdout_payload.splitlines()[1].split(",")[3])
        assert h_trim < h_plain

    def test_bad_eta_exits_one(self, capsys):
        outcome = cli.run(["survey", "--min", "5", "--max", "10", "--eta", "1/3"])
        assert outcome.exit_code == 1
        capsys.readouterr()

    def test_byte_identical_files(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.run(["survey", "--min", "5", "--max", "60", "--out", str(a)])
        cli.run(["survey", "--min", "5", "--max", "60", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_failed_survey_keeps_out_file(self, tmp_path, capsys):
        out = tmp_path / "keep.csv"
        out.write_text("earlier results\n", encoding="utf-8")
        for bad in (["--min", "30", "--max", "10"], ["--min", "5", "--max", "9", "--eta", "1/5"]):
            outcome = cli.run(["survey", *bad, "--out", str(out)])
            assert outcome.exit_code == 1
            assert out.read_text(encoding="utf-8") == "earlier results\n"
        capsys.readouterr()

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        for out in (tmp_path / "missing" / "s.csv", tmp_path):
            outcome = cli.run(["survey", "--min", "5", "--max", "8", "--out", str(out)])
            assert outcome.exit_code == 1
            assert outcome.stdout_payload == ""
            assert capsys.readouterr().err.startswith("error: ")

    def test_threads_below_one_exit_one(self, capsys):
        for threads in ("0", "-3"):
            outcome = cli.run(["--threads", threads, "survey", "--min", "5", "--max", "10"])
            assert outcome.exit_code == 1
            assert outcome.stdout_payload == ""
            assert "workers must be at least 1" in capsys.readouterr().err

    def test_matches_stored_references(self, capsys):
        # denominators of each stored benchmark reference, byte for byte;
        # phi(n) is a multiple of 64 at n = 1920, 2048 and 2113
        cases = [("survey-prime", n) for n in (1901, 2113)]
        cases += [("survey-cut", n) for n in (1900, 1920, 2048, 2100)]
        for workload, n in cases + [("deep-audit", 487)]:
            doc = json.loads((REFERENCE / f"{workload}.json").read_text(encoding="utf-8"))
            argv = ["--threads", "1", "survey", "--min", str(n), "--max", str(n)]
            outcome = cli.run(argv + doc["flags"])
            want = doc["outputs"][str(n)]
            assert outcome.exit_code == 0
            assert outcome.stdout_payload == want["stdout"], workload
            assert capsys.readouterr().err == want["stderr"], workload

    def test_threads_do_not_change_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.run(["survey", "--min", "5", "--max", "40", "--out", str(a)])
        cli.run(["--threads", "3", "survey", "--min", "5", "--max", "40", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def test_ramanujan_suite(self):
        outcome = cli.run(["verify", "ramanujan", "--max-n", "40"])
        assert outcome.exit_code == 0
        assert "closed form = oracle" in outcome.stdout_payload

    def test_error_bound_suite(self):
        for argv, line in (
            ("101 2 2", "n=101 q=2 R=2.0: max ratio 0.005182 over 48 admissible p; "
             "exceptional classes 0 (cap 50.00)"),
            ("202 3 2", "n=202 q=3 R=2.0: max ratio 0.004144 over 97 admissible p; "
             "exceptional classes 0 (cap 50.00)"),
            ("300 7 2", "n=300 q=7 R=2.0: max ratio 0.000297 over 114 admissible p; "
             "exceptional classes 0 (cap 10.00)"),
            ("250 3 3", "n=250 q=3 R=3.0: max ratio 0.000085 over 97 admissible p; "
             "exceptional classes 0 (cap 33.33)"),
            ("1009 100 2", "n=1009 q=100 R=2.0: max ratio 0.141782 over 404 admissible p; "
             "exceptional classes 0 (cap 504.00)"),
        ):
            n, q, r = argv.split()
            outcome = cli.run(["verify", "error-bound", "--n", n, "--q", q, "--r", r])
            assert outcome.exit_code == 0
            assert outcome.stdout_payload == f"error bound {line}\n"

    def test_error_bound_needs_params(self, capsys):
        for argv in (["verify", "error-bound"], ["verify", "error-bound", "--n", "101"]):
            outcome = cli.run(argv)
            assert outcome.exit_code == 1
            assert outcome.stdout_payload == ""
            assert "required" in capsys.readouterr().err
        for r in ("nan", "inf"):
            argv = ["verify", "error-bound", "--n", "101", "--q", "2", "--r", r]
            outcome = cli.run(argv)
            assert outcome.exit_code == 1
            assert outcome.stdout_payload == ""
            assert "R must satisfy" in capsys.readouterr().err

    def test_error_bound_q_without_window_pair_exits_one(self, capsys):
        for n, q in (("101", "50"), ("4", "1")):
            outcome = cli.run(["verify", "error-bound", "--n", n, "--q", q, "--r", "2"])
            assert outcome.exit_code == 1
            assert outcome.stdout_payload == ""
            assert "no window pair" in capsys.readouterr().err

    def test_max_n_below_range_exits_one(self, capsys):
        for suite in ("ramanujan", "fourier-bounds", "regression-families"):
            for max_n in ("0", "-5"):
                outcome = cli.run(["verify", suite, "--max-n", max_n])
                assert outcome.exit_code == 1
                assert outcome.stdout_payload == ""
                assert "max_n" in capsys.readouterr().err

    def test_regression_suite(self):
        outcome = cli.run(["verify", "regression-families", "--max-n", "30"])
        assert outcome.exit_code == 0

    def test_spectral_suite(self):
        outcome = cli.run(["verify", "spectral"])
        assert outcome.exit_code == 0
        assert "residual < 1e-6" in outcome.stdout_payload

    def test_fourier_bounds_suite(self):
        outcome = cli.run(["verify", "fourier-bounds", "--max-n", "2"])
        assert outcome.exit_code == 0
        assert "bounds hold to n = 2" in outcome.stdout_payload

    def test_max_n_does_not_leak_between_calls(self):
        first = cli.run(["verify", "regression-families", "--max-n", "9"])
        second = cli.run(["verify", "regression-families"])
        assert first.stdout_payload.endswith("up to n = 9\n")
        assert second.stdout_payload.endswith("up to n = 60\n")

    def test_failing_suite_exits_two(self, monkeypatch):
        monkeypatch.setattr(
            cli.suites, "ramanujan_suite", lambda max_n: (False, "forced failure")
        )
        outcome = cli.run(["verify", "ramanujan"])
        assert outcome.exit_code == 2
        assert "forced failure" in outcome.stdout_payload


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        outcome = cli.run(["frobnicate"])
        assert outcome.exit_code == 1
        capsys.readouterr()

    def test_no_command(self, capsys):
        outcome = cli.run([])
        assert outcome.exit_code == 1
        capsys.readouterr()

    def test_unknown_suite(self, capsys):
        outcome = cli.run(["verify", "nonsense"])
        assert outcome.exit_code == 1
        capsys.readouterr()

    def test_flag_the_suite_does_not_read(self, capsys):
        for argv in (
            ["verify", "spectral", "--max-n", "0"],
            ["verify", "ramanujan", "--max-n", "3", "--n", "7"],
            ["verify", "error-bound", "--n", "101", "--q", "2", "--r", "2", "--max-n", "5"],
        ):
            outcome = cli.run(argv)
            assert outcome.exit_code == 1
            assert outcome.stdout_payload == ""
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_malformed_flag(self, capsys):
        outcome = cli.run(["survey", "--min", "five", "--max", "10"])
        assert outcome.exit_code == 1
        capsys.readouterr()

    def test_main_raises_systemexit(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["count", "1", "2", "7"])
        assert info.value.code == 0
        assert capsys.readouterr().out == "1\n"
