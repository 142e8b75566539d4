"""Command-line interface: parsing, CSV/JSON output, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from unigamma import DomainError
from unigamma.cli import GridRequest, main, parse_complex
from unigamma.oracle import oracle_digamma, oracle_recip_gamma


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("1.5", 1.5 + 0j),
            ("-2", -2 + 0j),
            ("3i", 3j),
            ("-2.5i", -2.5j),
            ("i", 1j),
            ("-i", -1j),
            ("0.5+3i", 0.5 + 3j),
            ("1-1i", 1 - 1j),
            ("3+i", 3 + 1j),
            ("-0.5-i", -0.5 - 1j),
            ("1e-3+2e-4i", 1e-3 + 2e-4j),
            ("2.5E2-1.5e-1i", 250 - 0.15j),
            ("+4", 4 + 0j),
        ],
    )
    def test_accepted_forms(self, text, want):
        assert parse_complex(text) == want

    @pytest.mark.parametrize("text", ["", "abc", "1+2", "i3", "1 + 2i", "2j", "++1i"])
    def test_rejected_forms(self, text):
        with pytest.raises(DomainError):
            parse_complex(text)


class TestGridRequest:
    def test_valid(self):
        req = GridRequest("recip_gamma", -1, 1, 5, -1, 1, 5)
        assert req.function == "recip_gamma"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"function": "laplace_recip_gamma"},  # not a grid function
            {"re_min": 2.0, "re_max": 1.0},
            {"re_min": -math.inf},
            {"im_max": math.inf},
            {"re_steps": 0},
            {"im_steps": -3},
            {"sigma": 0.0},
            {"sigma": 8.5},
            {"tol": 0.0},
            {"tol": math.inf},
        ],
    )
    def test_invalid(self, kwargs):
        base = dict(function="G", re_min=-1.0, re_max=1.0, re_steps=3,
                    im_min=-1.0, im_max=1.0, im_steps=3)
        base.update(kwargs)
        with pytest.raises(DomainError):
            GridRequest(**base)


class TestEval:
    def test_converged_point_exits_zero(self, capsys):
        code = main(["eval", "recip_gamma", "0.5+3i"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged    = true" in out
        assert "42.29498020969" in out

    def test_json_record(self, capsys):
        code = main(["eval", "G", "1", "--json"])
        rec = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rec["function"] == "G"
        assert rec["value"]["re"] == pytest.approx(math.pi, abs=1e-11)
        assert rec["value"]["im"] == pytest.approx(0.0, abs=1e-11)
        assert rec["converged"] is True
        assert rec["spec_used"]["sigma"] == 1.0

    def test_json_key_order(self, capsys):
        assert main(["eval", "digamma", "2.5-1i", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert list(rec) == ["function", "z", "value", "err_estimate",
                             "converged", "evaluations", "spec_used"]
        assert list(rec["spec_used"]) == ["sigma", "half_width", "step", "tol",
                                          "max_refinements", "window"]

    def test_reports_both_window_ends(self, capsys):
        assert main(["eval", "recip_gamma", "0.5+3i", "--json"]) == 0
        lower, upper = json.loads(capsys.readouterr().out)["spec_used"]["window"]
        assert -upper < lower < 0.0 < upper
        assert main(["eval", "recip_gamma", "0.5+3i"]) == 0
        assert f"t in [{lower!r}, {upper!r}]" in capsys.readouterr().out
        # Laplace integrates the symmetric [-T, T].
        assert main(["eval", "laplace_recip_gamma", "1", "--json"]) == 0
        spec = json.loads(capsys.readouterr().out)["spec_used"]
        assert spec["window"] == [-spec["half_width"], spec["half_width"]]

    def test_pole_exits_three(self, capsys):
        code = main(["eval", "gamma", "--", "-2"])
        err = capsys.readouterr().err
        assert code == 3
        assert "nearest pole at z = -2" in err

    def test_unparseable_point_exits_one(self, capsys):
        assert main(["eval", "G", "2+2"]) == 1

    def test_usage_error_exits_one(self, capsys):
        assert main(["eval", "not_a_function", "1"]) == 1
        assert main(["frobnicate"]) == 1
        assert main([]) == 1

    def test_laplace_domain_error_exits_one(self, capsys):
        assert main(["eval", "laplace_recip_gamma", "--", "-1"]) == 1

    def test_unconverged_exits_two(self, capsys):
        # sigma far off the saddle at a deep-left point: honest failure.
        code = main(["eval", "G", "-3.5", "--sigma", "6"])
        assert code == 2

    def test_sigma_override_recorded(self, capsys):
        main(["eval", "G", "1.25", "--sigma", "2", "--json"])
        rec = json.loads(capsys.readouterr().out)
        assert rec["spec_used"]["sigma"] == 2.0


HEADER = ("re_z,im_z,re_value,im_value,err_estimate,"
          "oracle_re,oracle_im,abs_err,rel_err,converged")


def run_grid(capsys, *extra):
    args = [
        "grid", "--function", "recip_gamma",
        "--re-min", "1", "--re-max", "3", "--re-steps", "3",
        "--im-min", "-1", "--im-max", "1", "--im-steps", "3",
    ]
    code = main(args + list(extra))
    return code, capsys.readouterr().out


class TestGrid:
    def test_csv_shape_and_accuracy(self, capsys):
        code, out = run_grid(capsys)
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == HEADER
        assert len(lines) == 10
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 10
            assert fields[9] == "true"
            assert float(fields[8]) < 1e-10  # rel_err
        # row-major: imaginary outer, real inner
        first = lines[1].split(",")
        assert (float(first[0]), float(first[1])) == (1.0, -1.0)
        last = lines[9].split(",")
        assert (float(last[0]), float(last[1])) == (3.0, 1.0)

    def test_single_point_grid(self, capsys):
        code = main([
            "grid", "--function", "recip_gamma",
            "--re-min", "1", "--re-max", "1", "--re-steps", "1",
            "--im-min", "0", "--im-max", "0", "--im-steps", "1",
        ])
        out = capsys.readouterr().out
        row = out.strip().split("\n")[1].split(",")
        assert code == 0
        assert float(row[2]) == pytest.approx(1.0, abs=1e-12)
        assert float(row[3]) == 0.0

    def test_zero_crossing_uses_absolute_error(self, capsys):
        # At z = 0 the oracle is exactly zero; rel_err is nan, abs_err tiny.
        code = main([
            "grid", "--function", "recip_gamma",
            "--re-min", "0", "--re-max", "0", "--re-steps", "1",
            "--im-min", "0", "--im-max", "0", "--im-steps", "1",
        ])
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert code == 0
        assert float(row[7]) < 1e-10
        assert math.isnan(float(row[8]))
        assert row[9] == "true"

    def test_gamma_grid_marks_poles_and_exits_two(self, capsys):
        code = main([
            "grid", "--function", "gamma",
            "--re-min", "-1", "--re-max", "1", "--re-steps", "3",
            "--im-min", "0", "--im-max", "0", "--im-steps", "1",
        ])
        lines = capsys.readouterr().out.strip().split("\n")
        assert code == 2
        rows = {float(r.split(",")[0]): r.split(",") for r in lines[1:]}
        assert math.isnan(float(rows[-1.0][2]))
        assert rows[-1.0][9] == "false"
        assert rows[1.0][9] == "true"

    @pytest.mark.parametrize("function,oracle", [
        ("G", lambda z: math.pi * oracle_recip_gamma(z)),
        ("gamma_sin_pi", lambda z: math.pi * oracle_recip_gamma(1.0 - z)),
        ("digamma", oracle_digamma),
    ])
    def test_oracle_columns(self, capsys, function, oracle):
        code = main([
            "grid", "--function", function,
            "--re-min", "0.5", "--re-max", "0.5", "--re-steps", "1",
            "--im-min", "2", "--im-max", "2", "--im-steps", "1",
        ])
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        ref = oracle(0.5 + 2j)
        assert code == 0
        assert row[5:7] == [format(ref.real, ".17g"), format(ref.imag, ".17g")]

    def test_deterministic_reruns(self, capsys):
        _, first = run_grid(capsys)
        _, second = run_grid(capsys)
        assert first == second

    def test_oracle_overflow_keeps_rows(self, capsys):
        # The Lanczos oracle overflows for Re z >= 143.5 while 1/Gamma
        # itself is a tiny finite double there.
        code = main([
            "grid", "--function", "recip_gamma",
            "--re-min", "148", "--re-max", "150", "--re-steps", "3",
            "--im-min", "0", "--im-max", "0", "--im-steps", "1",
        ])
        rows = [r.split(",") for r in capsys.readouterr().out.strip().split("\n")[1:]]
        assert code == 0
        assert len(rows) == 3
        for row in rows:
            assert math.isfinite(float(row[2])) and row[9] == "true"
            assert all(math.isnan(float(f)) for f in row[5:9])

    def test_failing_points_keep_rows(self, tmp_path):
        # Far left the kernel overflows; each point becomes a NaN row with
        # converged=false instead of losing the whole CSV.  A subprocess, so
        # that the suite's RuntimeWarning-as-error filter does not apply.
        target = tmp_path / "far_left.csv"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([
            sys.executable, "-m", "unigamma.cli", "grid",
            "--function", "recip_gamma",
            "--re-min", "-121", "--re-max", "-119", "--re-steps", "3",
            "--im-min", "0", "--im-max", "0", "--im-steps", "1",
            "--out", str(target),
        ], capture_output=True, env=env)
        assert proc.returncode == 2, proc.stderr
        lines = target.read_text().strip().split("\n")
        assert lines[0] == HEADER
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert math.isnan(float(fields[2])) and fields[9] == "false"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out = run_grid(capsys, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith(HEADER)

    def test_unwritable_out_exits_one(self, capsys, tmp_path):
        code, _ = run_grid(capsys, "--out", str(tmp_path / "nope" / "scan.csv"))
        assert code == 1


class TestSweepSigma:
    def test_report_shape(self, capsys):
        code = main(["sweep-sigma", "recip_gamma", "2", "--sigmas", "0.5,1,2"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(rep) == {"z", "entries", "max_pairwise_rel_diff"}
        assert rep["z"] == {"re": 2.0, "im": 0.0}
        assert [e["sigma"] for e in rep["entries"]] == [0.5, 1.0, 2.0]
        for entry in rep["entries"]:
            assert set(entry) == {
                "sigma", "value_re", "value_im", "err_estimate",
                "T", "h", "evaluations",
            }
            assert entry["value_re"] == pytest.approx(1.0, rel=1e-10)
        assert rep["max_pairwise_rel_diff"] < 1e-10

    def test_t_names_both_window_ends(self, capsys):
        assert main(["sweep-sigma", "G", "1+2i", "--sigmas", "1,2"]) == 0
        for entry in json.loads(capsys.readouterr().out)["entries"]:
            lower, upper = entry["T"]
            assert lower < 0.0 < upper and lower != -upper

    def test_single_sigma_has_zero_diff(self, capsys):
        main(["sweep-sigma", "G", "1.5", "--sigmas", "1"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["max_pairwise_rel_diff"] == 0.0
        assert len(rep["entries"]) == 1

    def test_negative_point_wider_sigma_needs_more_nodes(self, capsys):
        code = main(["sweep-sigma", "recip_gamma", "-3.5", "--sigmas", "0.5,1,2"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        evals = [e["evaluations"] for e in rep["entries"]]
        assert evals == sorted(evals)
        assert rep["max_pairwise_rel_diff"] < 1e-10

    def test_rejects_bad_sigma_list(self, capsys):
        assert main(["sweep-sigma", "G", "1", "--sigmas", "1,zap"]) == 1
        assert main(["sweep-sigma", "G", "1", "--sigmas", "0,1"]) == 1
        assert main(["sweep-sigma", "G", "1", "--sigmas", ""]) == 1
        capsys.readouterr()
        for argv in (["G", "1", "--sigmas", "0.5,9"],
                     ["laplace_recip_gamma", "1", "--sigmas", "9"]):
            assert main(["sweep-sigma", *argv]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "sigma must lie in (0, 8]" in captured.err


class TestVerify:
    def test_single_check_passes(self, capsys):
        code = main(["verify", "--only", "duplication"])
        out = capsys.readouterr().out
        assert code == 0
        assert "duplication" in out
        assert "pass" in out

    def test_json_reports(self, capsys):
        code = main(["verify", "--only", "contour_loop", "--json"])
        reports = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(reports) == 1
        rep = reports[0]
        assert rep["check_name"] == "contour_loop"
        assert rep["passed"] is True
        assert rep["points_tested"] == 12
        assert set(rep["worst_point"]) == {"re", "im"}

    def test_json_key_order(self, capsys):
        assert main(["verify", "--only", "duplication", "--json"]) == 0
        (rep,) = json.loads(capsys.readouterr().out)
        assert list(rep) == ["check_name", "points_tested", "max_rel_err",
                             "max_abs_err", "passed", "worst_point", "rel_tol",
                             "abs_tol"]

    @pytest.mark.parametrize("flag,check", [("--rel-tol", "duplication"),
                                            ("--abs-tol", "contour_loop")])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_unmeetable_tolerance_exits_one(self, capsys, flag, check, value):
        assert main(["verify", "--only", check, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a positive finite real" in captured.err

    def test_unknown_check_exits_one(self, capsys):
        assert main(["verify", "--only", "bogus"]) == 1

    def test_impossible_tolerance_exits_two(self, capsys):
        code = main(["verify", "--only", "duplication", "--rel-tol", "1e-17"])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out


class TestConstants:
    def test_text_output(self, capsys):
        code = main(["constants"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.5772156649" in out
        assert "3.14159265358979" in out

    def test_json_output(self, capsys):
        code = main(["constants", "--json"])
        rec = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rec["euler_mascheroni"]["value"] == pytest.approx(
            0.5772156649015329, abs=1e-10
        )
        assert rec["euler_mascheroni"]["converged"] is True
        assert rec["g_one"]["re"] == pytest.approx(math.pi, abs=1e-11)
        assert rec["pi_over_g1_minus_1"] < 1e-12
