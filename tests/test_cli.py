import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bruhatdiag import bruhat, cli, golden, repcompat, spaces
from bruhatdiag.cayley import _verify_image, cayley, verify_image
from bruhatdiag.cli import main
from bruhatdiag.linalg import matrix_from_json

BENCH = Path(__file__).resolve().parent.parent / "bench"
#: The CI(2) payload of ``test_all_methods_agree``: its five routes agree
#: to a gap of about 2e-16.
CI_PAYLOAD = '{"Z": [[[0.2, 0.1], [0.3, 0]], [[-0.1, 0.2], [0.2, 0.1]]]}'
AIII_COORDINATES = '{"family": "AIII", "params": {"m": 1, "n": 1}, "payload": {"Z": [[[0.5, 0]]]}}'


#: Each route of ``d --method`` called through its public function.
STANDALONE_ROUTES = {
    "gauss": lambda X, spec: bruhat.diagonal_via_gauss(cayley(X)),
    "minor_ratio": lambda X, spec: bruhat.diagonal_via_minors(cayley(X)),
    "cayley_det": bruhat.diagonal_via_cayley,
    "fredholm": lambda X, spec: bruhat.diagonal_via_fredholm(X),
    "coroot_product": lambda X, spec: bruhat.diagonal_via_coroots(spec, X),
}


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
        assert "generic" not in obj

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

    def test_all_methods_fail_at_zero_tolerance(self, capsys):
        argv = ("d", "--family", "CI", "--n", "2", "--method", "all", "--tol", "0",
                "--payload", CI_PAYLOAD)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert '"ok": false' in out
        obj = json.loads(out)
        assert obj["max_gap"] > 0.0 and obj["tol"] == 0.0
        code, out, _ = run_cli(capsys, *argv, "--format", "table")
        assert code == 2
        assert out.splitlines()[-1] == f"max gap {obj['max_gap']:.12g}  (FAIL)"

    # the overflowing determinants warn: the routes do not refuse a
    # non-finite table themselves yet, so three of them return NaN
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_nan_route_gap_fails(self, capsys):
        argv = ("d", "--family", "AIII", "--m", "1", "--n", "1", "--method", "all",
                "--payload", '{"Z": [[[1e155, 0]]]}')
        code, out, _ = run_cli(capsys, *argv, "--format", "table")
        assert code == 2
        assert out.splitlines()[-1] == "max gap nan  (FAIL)"
        assert "cayley_det: nan+nani  nan+nani" in out.splitlines()
        assert not [line for line in out.splitlines() if "nan-nani" in line]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert '"max_gap": NaN' in out and '"ok": false' in out

    def test_single_route_with_non_finite_entries_exits_two(self):
        # the 1e200 payload overflows the flipped stack, so the three routes
        # that read it print NaN entries; a subprocess keeps the overflow
        # warnings out of this suite's warnings-as-errors
        src = str(Path(bruhat.__file__).resolve().parent.parent)
        argv = ["d", "--family", "AIII", "--m", "1", "--n", "1",
                "--payload", '{"Z": [[[1e200, 0]]]}', "--method"]
        codes = []
        for method in bruhat.ROUTES:
            proc = subprocess.run([sys.executable, "-m", "bruhatdiag.cli", *argv, method],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src}, timeout=120)
            entries = np.array(json.loads(proc.stdout)["entries"])
            assert np.isfinite(entries).all() == (proc.returncode == 0), method
            codes.append(proc.returncode)
        assert codes == [0, 0, 2, 2, 2]

    @pytest.mark.parametrize("z, text", [
        (complex(np.nan, np.nan), "nan+nani"), (complex(0.5, np.nan), "0.5+nani"),
        (complex(np.nan, -2.0), "nan-2i"), (complex(1.0, -0.0), "1"),
    ])
    def test_complex_table_entry_signs(self, z, text):
        assert cli._fmt_complex(z) == text

    @pytest.mark.parametrize("method", [*bruhat.ROUTES, "all"])
    def test_each_method_prints_its_standalone_report(self, capsys, method):
        argv = ("d", "--family", "CI", "--n", "2", "--payload", CI_PAYLOAD, "--method", method)
        code, out, _ = run_cli(capsys, *argv)
        spec = spaces.ci(2)
        X = spaces.build_tangent(spec, spaces.coordinates_from_payload(
            spec, json.loads(CI_PAYLOAD)))
        if method == "all":
            reports = bruhat.cross_check(X, spec)
            want = {"reports": {k: r.to_json_dict() for k, r in reports.items()},
                    "max_gap": bruhat.max_cross_gap(reports), "tol": 1e-9, "ok": True}
        else:
            want = STANDALONE_ROUTES[method](X, spec).to_json_dict()
        assert code == 0
        assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("method", [*bruhat.ROUTES, "all"])
    def test_each_method_names_itself_at_a_boundary(self, capsys, method):
        code, out, _ = run_cli(capsys, "d", "--family", "AIII", "--m", "1", "--n", "1",
                               "--payload", '{"Z": [[[1, 0]]]}', "--method", method)
        assert code == 2
        error = json.loads(out)["error"]
        assert (error["route"], error["index"]) == (
            "gauss" if method == "all" else method, 1)

    def test_fredholm_above_the_expansion_cap_exits_one(self, capsys):
        payload = json.dumps({"Z": [[[0.05, 0]] * 10]})
        code, out, err = run_cli(capsys, "d", "--family", "AIII", "--m", "1", "--n", "10",
                                 "--payload", payload, "--method", "fredholm")
        assert (code, out) == (1, "")
        # the advice names a route the CLI can run: --method cayley_det
        assert err == ("bruhatdiag: error: matrix size 11 exceeds the expansion cap 10; "
                       "the cayley_det route computes the same ratios without it\n")

    def test_method_choices_list_in_route_table_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["d", "--help"])
        assert "{gauss,minor_ratio,cayley_det,fredholm,coroot_product,all}" in (
            capsys.readouterr().out)

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

    def test_factorize_empty_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "factorize", "--matrix", '{"n": 0, "entries": []}')
        assert code == 0
        obj = json.loads(out)
        assert [obj[f] for f in "DLU"] == [{"n": 0, "entries": []}] * 3

    def test_factorize_rotation_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "factorize", "--matrix",
            '{"n": 2, "entries": [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]}')
        assert code == 2
        obj = json.loads(out)
        assert obj["error"]["index"] == 1


class TestVerifyCommands:
    def test_radius_defaults_read_one_constant(self):
        defaults = (inspect.signature(spaces.random_coordinates).parameters["radius"].default,
                    inspect.signature(bruhat.check_draw).parameters["radius"].default,
                    cli._build_parser().parse_args(["verify"]).radius)
        assert defaults == (spaces.DEFAULT_RADIUS,) * 3

    def test_check_tolerance_defaults_read_one_constant(self, capsys):
        defaults = (inspect.signature(verify_image).parameters["tol"].default,
                    inspect.signature(_verify_image).parameters["tol"].default,
                    inspect.signature(spaces.validate_tangent).parameters["tol"].default,
                    cli._build_parser().parse_args(["verify"]).tol)
        assert all(default is spaces.CHECK_TOL for default in defaults)
        _, out, _ = run_cli(capsys, "d", "--family", "CI", "--n", "2", "--method", "all",
                            "--payload", CI_PAYLOAD)
        assert json.loads(out)["tol"] == spaces.CHECK_TOL

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

    @pytest.mark.parametrize("m,n,seed,draws", [(5, 45, 1255, 3), (10, 10, 1259, 8)])
    def test_verify_large_draws_within_gap_tolerance(self, capsys, m, n, seed, draws):
        # the last draw of each missed the 1e-9 route gap (1.088e-9, 1.502e-9)
        # while cayley_det factored full N x N flips
        code, out, _ = run_cli(capsys, "verify", "--family", "AIII", "--m", str(m),
                               "--n", str(n), "--seed", str(seed), "--draws", str(draws))
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["ok"] is True
        assert result["max_route_gap"] <= 1e-9

    def test_verify_without_family_shares_dimension_flags(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "1", "--n", "2", "--draws", "2")
        assert code == 0
        params = {r["family"]: r["params"] for r in json.loads(out)["results"]}
        assert params["AIII"] == {"m": 1, "n": 2}
        assert params["DIII"] == params["CI"] == {"n": 2}
        assert params["CII"] == {"p": 2, "q": 2}

    def test_verify_without_family_puts_flags_over_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--draws", "1")
        assert code == 0
        params = {r["family"]: r["params"] for r in json.loads(out)["results"]}
        assert params["AIII"] == {"m": 2, "n": 2}
        assert params["DIII"] == params["CI"] == {"n": 2}
        assert params["CII"] == {"p": 2, "q": 2}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_verify_draw_loop_that_gives_up_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "CI", "--radius", "1e300",
                                 "--draws", "1")
        assert code == 1
        assert out == ""
        assert err == ("bruhatdiag: error: could not draw a well-conditioned payload "
                       "for CI at radius 1e+300; lower the radius\n")

    def test_verify_fails_at_zero_tolerance_with_the_same_worst_values(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--draws", "2", "--tol", "0")
        assert code == 2
        assert '"ok": false' in out
        failed = json.loads(out)
        _, out, _ = run_cli(capsys, "verify", "--draws", "2", "--tol", "1e-9")
        passed = json.loads(out)
        assert failed["ok"] is False and passed["ok"] is True
        for bad, good in zip(failed["results"], passed["results"]):
            assert bad["ok"] is False and bad["tol"] == 0.0
            assert {k: v for k, v in bad.items() if k not in ("ok", "tol")} == {
                k: v for k, v in good.items() if k not in ("ok", "tol")}
        code, out, _ = run_cli(capsys, "verify", "--draws", "2", "--tol", "0",
                               "--format", "table")
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 6 and all(line.endswith(" FAIL") for line in lines)

    def test_verify_builds_one_image_and_stack_per_draw(self, capsys, monkeypatch):
        # seed 134 redraws the first AIII(2, 3) payload: a redrawn payload
        # costs its own stack, an accepted one no second stack or image
        solves, stacks, samples = [], [], []
        real_solve = np.linalg.solve
        real_sample = spaces._sample_coordinates

        def counting_solve(a, b):
            solves.append(np.shape(a))
            return real_solve(a, b)

        def counting_sample(*args):
            samples.append(args[0].family)
            return real_sample(*args)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(spaces, "_sample_coordinates", counting_sample)
        for module in (spaces, bruhat):
            real = module._flipped_stack
            monkeypatch.setattr(module, "_flipped_stack",
                                lambda *args, real=real: stacks.append(1) or real(*args))
        code, out, _ = run_cli(capsys, "verify", "--seed", "134", "--draws", "3")
        assert code == 0
        assert len(json.loads(out)["results"]) == 6
        assert len(solves) == 6 * 3
        assert samples.count("AIII") == 4 and len(samples) > 6 * 3
        assert len(stacks) == len(samples)

    def test_verify_rep(self, capsys):
        code, out, _ = run_cli(capsys, "verify-rep", "--n", "3", "--samples", "25")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert obj["max_symplectic_dev"] <= 1e-10

    def test_verify_rep_fails_at_zero_tolerance(self, capsys, monkeypatch):
        monkeypatch.setattr(repcompat, "CONJUGACY_TOL", 0.0)
        code, out, _ = run_cli(capsys, "verify-rep", "--n", "3", "--samples", "25")
        assert code == 2
        assert '"ok": false' in out
        obj = json.loads(out)
        assert obj["tolerance"] == 0.0 and obj["max_orthogonal_dev"] > 0.0
        code, out, _ = run_cli(capsys, "verify-rep", "--n", "3", "--samples", "25",
                               "--format", "table")
        assert code == 2
        assert out.endswith(" FAIL\n")

    def test_golden_suite(self, capsys):
        code, out, _ = run_cli(capsys, "golden", "--suite", "rp6",
                               "--format", "table")
        assert code == 0
        assert "PASS" in out

    def test_golden_suite_fails_at_zero_tolerance(self, capsys, monkeypatch):
        monkeypatch.setitem(golden._SUITE_TOL, "rp6", 0.0)
        code, out, _ = run_cli(capsys, "golden", "--suite", "rp6")
        assert code == 2
        assert '"ok": false' in out
        (result,) = json.loads(out)["results"]
        assert result["ok"] is False and result["tolerance"] == 0.0
        assert result["max_deviation"] > 0.0
        code, out, _ = run_cli(capsys, "golden", "--suite", "rp6", "--format", "table")
        assert code == 2
        assert out.endswith("  FAIL\n")


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

    def test_coordinates_json_missing_parameter(self, capsys):
        payload = '{"family": "AIII", "params": {"m": 1}, "payload": {"Z": [[[0.1, 0]]]}}'
        code, out, err = run_cli(capsys, "d", "--payload", payload)
        assert code == 1
        assert out == ""
        assert err == 'bruhatdiag: error: family AIII requires parameter "n"\n'

    def test_coordinates_json_params_not_an_object(self, capsys):
        payload = '{"family": "AIII", "params": [1, 2], "payload": {"Z": [[[0.1, 0]]]}}'
        code, out, err = run_cli(capsys, "d", "--payload", payload)
        assert code == 1
        assert out == ""
        assert err == 'bruhatdiag: error: coordinates JSON field "params" must be an object\n'

    @pytest.mark.parametrize("payload,message", [
        ('{"family": "AIII", "params": {"m": 1, "n": null}, "payload": {"Z": [[[0.1, 0]]]}}',
         'coordinates JSON parameter "n" must be an integer, got None'),
        ('{"family": "AIII", "params": {"m": 1, "n": 1}, "payload": 5}',
         "payload must be an object, got 5"),
        ('{"family": "AIII", "params": {"m": 1, "n": 1}, "payload": {"Z": 5}}',
         'payload field "Z" must be a 1 x 1 array of [re, im] pairs'),
        ('{"family": ["AIII"], "params": {"m": 1, "n": 1}, "payload": {"Z": [[[0.1, 0]]]}}',
         'coordinates JSON field "family" must be a string'),
        ('{"family": "AIII", "params": {"m": 1, "n": 1}, "payload": {"Z": [[[null, 0]]]}}',
         "complex entries must be [re, im] pairs of numbers, got [None, 0]"),
        ('{"family": "BDI_oddodd", "params": {"p": 1, "q": 1}, "payload": '
         '{"Z1": [], "Z2": [], "w1": 5, "w2": [], "s": 0.1}}',
         'payload field "w1" must be a length-0 array of [re, im] pairs'),
        ('{"family": "BDI_oddodd", "params": {"p": 1, "q": 1}, "payload": '
         '{"Z1": [], "Z2": [], "w1": [], "w2": [], "s": null}}',
         'payload field "s" must be a number, got None'),
        ('{"family": "AIII", "params": {"m": 1, "n": 1.9}, "payload": {"Z": [[[0.5, 0]]]}}',
         'coordinates JSON parameter "n" must be an integer, got 1.9'),
        ('{"family": "AIII", "params": {"m": true, "n": 1}, "payload": {"Z": [[[0.5, 0]]]}}',
         'coordinates JSON parameter "m" must be an integer, got True'),
        ('{"family": "AIII", "params": {"m": 1, "n": "2"}, "payload": {"Z": [[[0.5, 0], [0, 0]]]}}',
         'coordinates JSON parameter "n" must be an integer, got \'2\''),
        ('{"family": "AIII", "params": {"m": 1, "n": 1}, "payload": {"Z": [[["0.5", true]]]}}',
         "complex entries must be [re, im] pairs of numbers, got ['0.5', True]"),
        ('{"family": "BDI_oddodd", "params": {"p": 1, "q": 1}, "payload": '
         '{"Z1": [], "Z2": [], "w1": [], "w2": [], "s": "0.3"}}',
         'payload field "s" must be a number, got \'0.3\''),
        ('{"family": "BDI_oddodd", "params": {"p": 1, "q": 1}, "payload": '
         '{"Z1": [], "Z2": [], "w1": [], "w2": [], "s": NaN}}',
         "s has non-finite entries"),
        ('{"family": "AIII", "params": {"m": 1, "n": 1, "q": 7}, "payload": {"Z": [[[0.5, 0]]]}}',
         'family AIII takes no parameter "q"'),
        ('{"family": "AIII", "params": {"m": 1, "n": 1}, "payload": '
         '{"Z": [[[0.5, 0]]], "W": [[1, 2]]}}',
         'family AIII has no payload field "W"'),
        ('{"family": "AIII", "params": {"m": 1, "n": 1}, "payload": {"Z": [[[0.5, 0]]], "s": 0.3}}',
         'family AIII has no payload field "s"'),
        ('{"family": "BDI_oddodd", "params": {"p": 1, "q": 3}, "payload": '
         '{"Z1": [[], [], []], "Z2": [], "w1": [], "w2": [[0.1, 0.2]], "s": 0.3}}',
         'payload field "Z1" must be a 0 x 1 array of [re, im] pairs'),
        ('{"family": "AIII", "params": {"m": 2, "n": 2}, "payload": '
         '{"Z": [[[0.1, 0], [0.2, 0]], [[0.1, 0]]]}}',
         'payload field "Z" must be a 2 x 2 array of [re, im] pairs'),
        ('{"family": "BDI_oddodd", "params": {"p": 3, "q": 1}, "payload": '
         '{"Z1": [], "Z2": [[]], "w1": [[[0.1, 0.2]]], "w2": [], "s": 0.3}}',
         "complex entries must be [re, im] pairs, got [[0.1, 0.2]]"),
        ('{"family": "XYZ", "params": {}, "payload": {}}', "unknown family 'XYZ'"),
        ('{"payload": {}}', 'coordinates JSON is missing field "family"'),
        ('{"Z": [[[0.1, 0]]]}', 'missing required flag "--family"'),
        ('{"family": "AIII", "params": {"m": 1, "n": 1%s}, "payload": {}}' % ("0" * 400),
         "AIII parameter n is too large for an array"),
        ('{"family": "AIII", "params": {"m": 1, "n": 1}, "payload": {"Z": [[[1%s, 0]]]}}'
         % ("0" * 400), "complex entries must be [re, im] pairs of numbers, got [1%s, 0]"
         % ("0" * 400)),
        ("@no-such-dir/payload.json",
         "cannot read --payload file 'no-such-dir/payload.json': "
         "[Errno 2] No such file or directory: 'no-such-dir/payload.json'"),
    ], ids=["null_parameter", "payload_not_an_object", "block_not_a_grid",
            "family_not_a_string", "null_entry", "vector_not_a_list", "null_scalar",
            "fractional_parameter", "boolean_parameter", "string_parameter",
            "string_and_boolean_entry", "string_scalar", "non_finite_scalar",
            "foreign_parameter", "foreign_payload_field", "foreign_torus_field",
            "empty_grid_of_other_shape", "ragged_block", "vector_entry_nested_too_deep",
            "unknown_family", "missing_family_field", "bare_payload_without_family_flag",
            "parameter_beyond_an_index", "entry_beyond_a_float", "unreadable_file"])
    def test_malformed_coordinates_json_exits_one(self, capsys, payload, message):
        code, out, err = run_cli(capsys, "d", "--payload", payload)
        assert code == 1
        assert out == ""
        assert err == f"bruhatdiag: error: {message}\n"

    def test_empty_block_for_a_non_empty_slot_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "d", "--family", "AIII", "--m", "2", "--n", "3",
                                 "--payload", '{"Z": []}')
        assert code == 1
        assert out == ""
        assert err == ('bruhatdiag: error: payload field "Z" must be a 2 x 3 array '
                       "of [re, im] pairs\n")

    def test_empty_block_for_an_empty_slot_reads(self, capsys):
        # BDI_oddodd(3, 1) has an empty (1, 0) block Z1
        code, _, _ = run_cli(capsys, "d", "--payload",
                             '{"family": "BDI_oddodd", "params": {"p": 3, "q": 1}, "payload": '
                             '{"Z1": [], "Z2": [[]], "w1": [[0.1, 0.2]], "w2": [], "s": 0.3}}')
        assert code == 0

    @pytest.mark.parametrize("argv,message", [
        (("d", "--family", "DIII", "--n", "2", "--m", "9", "--payload",
          '{"Z": [[[0.4, 0], [0, 0]], [[0, 0], [-0.4, 0]]]}'),
         'family DIII takes no flag "--m"'),
        (("verify", "--family", "DIII", "--m", "4"), 'family DIII takes no flag "--m"'),
        (("enumerate", "--family", "CI", "--n", "2", "--q", "1"),
         'family CI takes no flag "--q"'),
        (("d", "--family", "DIII", "--n", "2", "--payload", AIII_COORDINATES),
         'flag "--family" is not read with a coordinates object, which names its own space'),
        (("build", "--m", "1", "--payload", AIII_COORDINATES),
         'flag "--m" is not read with a coordinates object, which names its own space'),
        (("cayley", "--family", "AIII", "--matrix", '{"n": 1, "entries": [[[0, 0.5]]]}'),
         'flag "--family" is not read with "--matrix"'),
        (("d", "--family", "AIII", "--m", "1", "--n", "1", "--method", "gauss", "--tol", "0",
          "--payload", '{"Z": [[[0.5, 0]]]}'),
         'flag "--tol" is not read without "--method all"'),
        (("build", "--family", "AIII", "--m", "1", "--n", "1" + "0" * 400, "--payload", "{}"),
         "AIII parameter n is too large for an array"),
        (("verify", "--family", "AIII", "--m", "1", "--n", "1" + "0" * 400, "--draws", "1"),
         "AIII parameter n is too large for an array"),
        (("enumerate", "--family", "CI", "--n", "1" + "0" * 400),
         "CI parameter n is too large for an array"),
    ], ids=["d_foreign_dimension", "verify_foreign_dimension", "enumerate_foreign_dimension",
            "d_family_with_coordinates", "build_dimension_with_coordinates",
            "cayley_family_with_matrix", "d_tol_without_method_all",
            "build_dimension_beyond_an_index",
            "verify_dimension_beyond_an_index", "enumerate_dimension_beyond_an_index"])
    def test_space_flag_that_is_not_read_exits_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"bruhatdiag: error: {message}\n"

    @pytest.mark.parametrize("verb,matrix,message", [
        ("cayley", '{"n": null, "entries": []}',
         'matrix JSON field "n" must be an integer, got None'),
        ("cayley", '{"n": 1, "entries": 5}',
         'matrix JSON field "entries" must be a 1 x 1 array of [re, im] pairs'),
        ("factorize", '{"n": 1, "entries": [5]}',
         'matrix JSON field "entries" must be a 1 x 1 array of [re, im] pairs'),
        ("cayley", '{"n": 1.9, "entries": [[[1, 0]]]}',
         'matrix JSON field "n" must be an integer, got 1.9'),
        ("cayley", '{"n": 1, "entries": [[["0", "0.5"]]]}',
         "complex entries must be [re, im] pairs of numbers, got ['0', '0.5']"),
        ("factorize", '{"n": -1, "entries": []}',
         'matrix JSON field "n" must be non-negative, got -1'),
        ("factorize", '{"n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}',
         'matrix JSON field "entries" must be a 2 x 2 array of [re, im] pairs'),
        ("cayley", '{"n": 1, "entries": [[[-1, 0]]]}',
         "1 + X is numerically singular; input is not skew-Hermitian"),
    ], ids=["null_size", "entries_not_a_list", "row_not_a_list", "fractional_size",
            "string_entry", "negative_size", "ragged_row", "singular_one_plus_x"])
    def test_malformed_matrix_json_exits_one(self, capsys, verb, matrix, message):
        code, out, err = run_cli(capsys, verb, "--matrix", matrix)
        assert code == 1
        assert out == ""
        assert err == f"bruhatdiag: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("golden", "--suite", "cpn", "--tol", "1e-30"),
        ("verify-rep", "--n", "3", "--tol", "1e-30"),
        ("build", "--family", "AIII", "--m", "1", "--n", "1",
         "--payload", '{"Z": [[[0.5, 0]]]}', "--seed", "5"),
        ("enumerate", "--family", "AIII", "--m", "1", "--n", "1", "--tol", "3"),
    ], ids=["golden_tol", "verify_rep_tol", "build_seed", "enumerate_tol"])
    def test_flag_no_verb_reads_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (("verify", "--draws", "-3"), "--draws"),
        (("verify", "--draws", "0"), "--draws"),
        (("golden", "--draws", "-1"), "--draws"),
        (("verify-rep", "--n", "3", "--samples", "-2"), "--samples"),
        (("verify", "--tol", "nan"), "--tol"),
        (("d", "--family", "AIII", "--m", "1", "--n", "1", "--method", "all",
          "--payload", '{"Z": [[[0.5, 0]]]}', "--tol", "nan"), "--tol"),
        (("verify", "--radius", "inf"), "--radius"),
        (("verify", "--radius", "0"), "--radius"),
        (("verify", "--seed", "-1"), "--seed"),
        (("golden", "--seed", "-1"), "--seed"),
        (("verify-rep", "--n", "3", "--seed", "-1"), "--seed"),
        (("verify-rep", "--n", "0"), "--n"),
        (("verify", "--draws", "abc"), "--draws"),
    ], ids=["verify_draws_negative", "verify_draws_zero", "golden_draws_negative",
            "verify_rep_samples_negative", "verify_tol_nan", "d_tol_nan",
            "verify_radius_inf", "verify_radius_zero", "verify_seed_negative",
            "golden_seed_negative", "verify_rep_seed_negative", "verify_rep_n_zero",
            "verify_draws_not_an_integer"])
    def test_malformed_count_or_tolerance_is_refused(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1
        assert f"argument {flag}: must be " in capsys.readouterr().err

    @pytest.mark.parametrize("sources", [
        ("--payload", AIII_COORDINATES, "--matrix", '{"n": 1, "entries": [[[0, 0]]]}'),
        (),
        ("--family", "AIII", "--m", "1", "--n", "2",
         "--payload", '{"Z": [[[0.3, 0.1], [0.2, 0]]]}'),
    ], ids=["both", "neither", "payload_alone"])
    def test_cayley_takes_exactly_one_source(self, capsys, sources):
        if "--family" in sources:  # one source: a payload with its family flags
            code, out, _ = run_cli(capsys, "cayley", *sources)
            assert code == 0
            spec = spaces.aiii(1, 2)
            X = spaces.build_tangent(spec, spaces.Coordinates(
                family="AIII", Z=np.array([[0.3 + 0.1j, 0.2]])))
            assert np.array_equal(matrix_from_json(json.loads(out)), cayley(X))
            return
        with pytest.raises(SystemExit) as exc:
            main(["cayley", *sources])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--payload" in err and "--matrix" in err

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


def test_library_import_loads_no_cli():
    # every program that imports the library pays its import, so the CLI,
    # its argument parser and the golden suites load only when asked for
    src = str(Path(bruhat.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bruhatdiag; print(sorted(m for m in sys.modules if m "
         "in ('bruhatdiag.cli', 'bruhatdiag.golden', 'argparse')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestBenchmarkParity:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_pipeline_matches_verify(self, monkeypatch, seed):
        # the benchmark refuses to time (exit 3) when its draw pipeline and
        # `bruhatdiag verify` disagree; the same check runs here first
        monkeypatch.syspath_prepend(str(BENCH))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        workloads = importlib.import_module("workloads")
        assert workloads.cli_parity(seed) == []
