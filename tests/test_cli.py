import json
import subprocess
import sys

import numpy as np
import pytest

from bruhatdiag import cli
from bruhatdiag.cli import main
from bruhatdiag.linalg import matrix_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDiagonalCommand:
    def test_rank_one_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "d", "--family", "AIII", "--m", "1", "--n", "1",
            "--payload", '{"Z": [[[0.5, 0]]]}')
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "cayley_det"
        assert obj["entries"][0][0] == pytest.approx(0.6)
        assert obj["entries"][1][0] == pytest.approx(1 / 0.6)
        assert obj["generic"] == [True, True]

    def test_all_methods_agree(self, capsys):
        # CI payload must equal its own antitranspose: corners match
        code, out, _ = run_cli(
            capsys, "d", "--family", "CI", "--n", "2", "--method", "all",
            "--payload", '{"Z": [[[0.2, 0.1], [0.3, 0]], [[-0.1, 0.2], [0.2, 0.1]]]}')
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert set(obj["reports"]) == {"gauss", "minor_ratio", "cayley_det",
                                       "fredholm", "coroot_product"}

    def test_nongeneric_failure_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "d", "--family", "AIII", "--m", "1", "--n", "1",
            "--payload", '{"Z": [[[1.0, 0]]]}')
        assert code == 2
        obj = json.loads(out)
        assert obj["error"]["kind"] == "non_generic"
        assert obj["error"]["index"] == 1


class TestEnumerateCommand:
    def test_sphere_lines(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "AIII",
                               "--m", "1", "--n", "1", "--format", "table")
        assert code == 0
        assert out.splitlines() == ["++", "--"]

    def test_check_limits_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "CI", "--n", "2",
                               "--check-limits")
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == 4
        assert obj["all_converged"] is True
        assert all(c["converged"] for c in obj["components"])

    def test_skipped_last_point_reads_not_applicable(self, capsys, monkeypatch):
        real_limit_check = cli.limit_check

        def skip_last_point(rep):
            report = real_limit_check(rep)
            report.deviations[-1] = None
            return report

        monkeypatch.setattr(cli, "limit_check", skip_last_point)
        code, out, _ = run_cli(capsys, "enumerate", "--family", "AIII", "--m", "1",
                               "--n", "1", "--check-limits", "--format", "table")
        assert code == 2
        assert out.splitlines() == ["++  final_dev=n/a  NOT-CONVERGED",
                                    "--  final_dev=n/a  NOT-CONVERGED"]


class TestBuildAndFactorize:
    def test_build_then_cayley_then_factorize(self, capsys, tmp_path):
        # DIII payload negates under antitranspose: diagonal corners flip sign
        code, out, _ = run_cli(capsys, "build", "--family", "DIII", "--n", "2",
                               "--payload",
                               '{"Z": [[[0.4, 0], [0, 0]], [[0, 0], [-0.4, 0]]]}')
        assert code == 0
        xfile = tmp_path / "x.json"
        xfile.write_text(out)
        X = matrix_from_json(json.loads(out))
        assert X.shape == (4, 4)

        code, out, _ = run_cli(capsys, "cayley", "--matrix", f"@{xfile}")
        assert code == 0
        gfile = tmp_path / "g.json"
        gfile.write_text(out)
        g = matrix_from_json(json.loads(out))
        assert np.abs(g.conj().T @ g - np.eye(4)).max() <= 1e-10

        code, out, _ = run_cli(capsys, "factorize", "--matrix", f"@{gfile}")
        assert code == 0
        obj = json.loads(out)
        L = matrix_from_json(obj["L"])
        D = matrix_from_json(obj["D"])
        U = matrix_from_json(obj["U"])
        assert np.abs(L @ D @ U - g).max() <= 1e-9

    def test_factorize_rotation_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "factorize", "--matrix",
            '{"n": 2, "entries": [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]}')
        assert code == 2
        obj = json.loads(out)
        assert obj["error"]["index"] == 1


class TestVerifyCommands:
    def test_verify_single_family(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "AIII",
                               "--m", "1", "--n", "2", "--draws", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True

    def test_verify_all_families_default_draws(self, capsys):
        # default: 100 seeded draws per family, all routes plus membership
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert len(obj["results"]) == 6
        assert all(r["draws"] == 100 for r in obj["results"])

    def test_verify_rep(self, capsys):
        code, out, _ = run_cli(capsys, "verify-rep", "--n", "3", "--samples", "25")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert obj["max_symplectic_dev"] <= 1e-10

    def test_golden_suite(self, capsys):
        code, out, _ = run_cli(capsys, "golden", "--suite", "rp6",
                               "--format", "table")
        assert code == 0
        assert "PASS" in out


class TestErrorHandling:
    def test_missing_dimension_flag(self, capsys):
        code, _, err = run_cli(capsys, "build", "--family", "CII", "--p", "1",
                               "--payload", "{}")
        assert code == 1
        assert '--q' in err

    def test_malformed_payload_json(self, capsys):
        code, _, err = run_cli(capsys, "build", "--family", "AIII",
                               "--m", "1", "--n", "1", "--payload", "{nope")
        assert code == 1
        assert "--payload" in err

    def test_missing_payload_field(self, capsys):
        code, _, err = run_cli(capsys, "build", "--family", "AIII",
                               "--m", "1", "--n", "1", "--payload", "{}")
        assert code == 1
        assert '"Z"' in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "golden", "--suite", "nope")
        assert code == 1
        assert "--suite" in err

    def test_usage_error_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bruhatdiag.cli", "d", "--family", "NOPE"],
            capture_output=True, text=True)
        assert proc.returncode == 1


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        args = ("verify", "--family", "CI", "--n", "2", "--draws", "5",
                "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_seed_changes_draws(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--family", "CI", "--n", "2",
                             "--draws", "5", "--seed", "1")
        _, out2, _ = run_cli(capsys, "verify", "--family", "CI", "--n", "2",
                             "--draws", "5", "--seed", "2")
        assert out1 != out2

    def test_table_rounds_to_twelve_digits(self, capsys):
        _, out, _ = run_cli(capsys, "d", "--family", "AIII", "--m", "1",
                            "--n", "1", "--payload", '{"Z": [[[0.5, 0]]]}',
                            "--format", "table")
        first = out.split()[0]
        assert first == "0.6"
