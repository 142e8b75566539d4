"""Tests of the benchmark itself:  python3 -m pytest bench

They check that the benchmark's checks can fail, that a failing operation is
counted and the run goes on, and that tracing leaves the package as it was.
"""

from __future__ import annotations

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import unigamma.cli  # noqa: E402
import unigamma.functions  # noqa: E402
import unigamma.integrands  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Speed  # noqa: E402

PERTURBATION = 1.0 + 1e-6


@pytest.mark.parametrize("function, z", [
    ("recip_gamma", 0.5 + 3j),
    ("recip_gamma", -7.3 + 0.2j),
    ("gamma_sin_pi", 4.4 - 2j),
    ("gamma", 2.5 - 1j),
    ("digamma", -3.5 + 6j),
])
def test_perturbed_result_fails_its_check(function, z):
    value = getattr(unigamma.functions, function)(z).value
    ref = checks.reference(function, z)
    assert checks.meets_contract(function, z, value, ref)
    assert not checks.meets_contract(function, z, value * PERTURBATION, ref)


def test_perturbed_laplace_result_fails_its_check():
    z = 0.8 - 1.5j
    value = unigamma.functions.laplace_recip_gamma(z, tol=workloads.LAPLACE_TOL).value
    ref = checks.reference("laplace_recip_gamma", z)
    assert checks.meets_laplace_tol(value, ref)
    assert not checks.meets_laplace_tol(value * PERTURBATION, ref)


def test_near_zero_contract_is_absolute():
    # 1/Gamma at 1e-4 from -2 is ~2e-4: 1e-6 absolute is the promise there.
    z = -2.0 + 1e-4j
    ref = checks.reference("recip_gamma", z)
    assert checks.meets_contract("recip_gamma", z, ref + 5e-7, ref)
    assert not checks.meets_contract("recip_gamma", z, ref + 2e-6, ref)


def test_perturbed_grid_row_fails_its_check():
    header = "re_z,im_z,re_value,im_value,err_estimate,oracle_re,oracle_im,abs_err,rel_err,converged"
    z = 1.5 - 2.5j
    value = unigamma.functions.recip_gamma(z).value

    def row(v):
        return f"{z.real!r},{z.imag!r},{v.real!r},{v.imag!r},0,0,0,0,0,true"

    refs = checks.References()
    assert checks.check_grid_csv(f"{header}\n{row(value)}\n", refs) == (1, 0, [])
    _, _, problems = checks.check_grid_csv(f"{header}\n{row(value * PERTURBATION)}\n", refs)
    assert len(problems) == 1


def test_verify_output_with_a_failing_check_is_rejected():
    good = "".join(f"check{k}  points=1  max_rel=0  max_abs=0  pass\n" for k in range(5))
    assert checks.check_verify_output(good + "all checks passed\n") == []
    bad = good.replace("  pass\n", "  FAIL\n", 1) + "FAILED: check0\n"
    assert checks.check_verify_output(bad)


def test_exception_is_one_failed_operation_and_the_run_goes_on():
    def lookup(function):
        if function == "gamma":
            def boom(z, **kwargs):
                raise ZeroDivisionError("injected")
            return boom
        return getattr(unigamma.functions, function)

    ops = [("box", "recip_gamma", 0.5 + 1j), ("box", "gamma", 2.0 + 0j),
           ("box", "digamma", 1.5 - 1j)]
    records = worker.run_round(ops, lookup, lambda function: {}, Speed("small"))
    assert [r[6] for r in records] == [None, "ZeroDivisionError", None]
    assert all(r[4] > 0 and r[5] > 0 for r in records)

    tally = run.Tally()
    run.check_ops([{"round": 0, "ops": records}],
                  checks.References(), tally)
    assert (tally.attempted, tally.failed, tally.passed) == (3, 1, 2)
    assert tally.problems == []


def test_nonzero_cli_exit_is_one_failed_operation(tmp_path):
    code, cpu_s, wall_s, peak_mb, _ = run.cli_round(
        ["verify", "--only", "no-such-check"], str(tmp_path / "op"))
    assert code == 1 and 0 < cpu_s and 0 < wall_s and peak_mb > 0
    tally = run.Tally()
    run.judge_cli("cli-verify", code, "", None, None, checks.References(), tally)
    assert (tally.attempted, tally.failed, tally.passed) == (1, 1, 0)


def test_differing_grid_runs_are_reported():
    tally = run.Tally()
    run.judge_cli("cli-grid", 0, "", "a\n", "b\n", checks.References(), tally)
    assert tally.problems == ["grid CSV differs between runs"]


def test_tracing_changes_no_result_and_is_removed():
    kernel = unigamma.integrands.g_integrand
    table = dict(unigamma.cli._FUNCTIONS)
    z = -3.5 + 2j
    plain = unigamma.functions.digamma(z)
    tracer = Tracer()
    tracer.install()
    try:
        traced = unigamma.functions.digamma(z)
    finally:
        tracer.remove()
    assert traced == plain
    assert unigamma.integrands.g_integrand is kernel
    assert unigamma.cli._FUNCTIONS == table
    names = {span[1] for span in tracer.spans}
    assert {"functions.digamma", "quadrature.trapezoid", "integrands.g_integrand",
            "integrands.g_log_integrand", "quadrature.select_truncation"} <= names
    top = [span for span in tracer.spans if span[4] == -1]
    assert [span[1] for span in top] == ["functions.digamma"]


def test_inputs_follow_the_seed_and_rounds_keep_their_make_up():
    a = workloads.plane_mix_round(3, 0)
    assert a == workloads.plane_mix_round(3, 0)
    b = workloads.plane_mix_round(4, 0)
    assert a != b and len(a) == len(b) == workloads.PLANE_MIX_ROUND_SIZE

    def kept(ops):
        return sorted((s, f, z.real, z.imag) for s, f, z in ops
                      if s in workloads.KEPT_FAILING)

    assert kept(a) == kept(b)
    assert kept(a) != kept(workloads.plane_mix_round(3, 1))
    lap = workloads.laplace_round(3, 0)
    assert len(lap) == workloads.LAPLACE_ROUND_SIZE
    assert all(0.25 <= op[2].real <= 1 and abs(op[2].imag) <= 4 for op in lap)
