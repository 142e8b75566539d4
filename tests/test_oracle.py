"""Reference implementations and the identity-check suite."""

import cmath
import dataclasses
import math
import warnings

import pytest

from unigamma import (
    EULER_GAMMA,
    DomainError,
    PoleError,
    default_verification_grid,
    evaluate_many,
    gaussian_moment_check,
    lanczos_gamma,
    oracle_digamma,
    oracle_recip_gamma,
    run_identity_suite,
)
from unigamma import functions, oracle
from unigamma.oracle import SUITE_CHECKS

LATTICE_CHECKS = ("recip_gamma_vs_oracle", "gamma_sin_pi_vs_oracle", "reflection")

SQRT_PI = math.sqrt(math.pi)


class TestLanczosGamma:
    @pytest.mark.parametrize(
        "z,want",
        [
            (1, 1.0),
            (2, 1.0),
            (5, 24.0),
            (0.5, SQRT_PI),
            (-0.5, -2 * SQRT_PI),
            (-5.5, 1 / 91.63673001529573),
            (3 + 2j, 1 / (-0.45024525741693705 - 0.9287638518642101j)),
        ],
    )
    def test_reference_values(self, z, want):
        assert lanczos_gamma(z) == pytest.approx(want, rel=5e-14)

    def test_poles_raise(self):
        for z in (0, -1, -2, -17):
            with pytest.raises(PoleError):
                lanczos_gamma(z)

    def test_recurrence_self_consistency(self):
        for z in (0.3, 1.7 - 0.4j, -2.6 + 1j, 4 + 3j):
            assert lanczos_gamma(z + 1) == pytest.approx(
                z * lanczos_gamma(z), rel=1e-12
            )

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for z in (0.25, 1.5, 3.75, 2 + 2j, -1.5 + 0.5j, 0.5 - 4j):
            assert lanczos_gamma(z) == pytest.approx(
                complex(special.gamma(z)), rel=1e-12
            )


class TestOracleRecipGamma:
    def test_zero_at_nonpositive_integers(self):
        for z in (0, -1, -6, -40):
            assert oracle_recip_gamma(z) == 0

    def test_matches_inverse_elsewhere(self):
        for z in (2.5, -0.5, 1 + 1j):
            assert oracle_recip_gamma(z) == pytest.approx(
                1 / lanczos_gamma(z), rel=1e-13
            )


class TestOracleDigamma:
    @pytest.mark.parametrize(
        "z,want",
        [
            (1, -EULER_GAMMA),
            (2, 0.42278433509846713),
            (0.5, -1.9635100260214235),
            (10, 2.251752589066721),
            (-1.5, 0.7031566406452432),
            (3.5 + 2j, 1.283736197197344 + 0.5850751845103465j),
        ],
    )
    def test_reference_values(self, z, want):
        assert oracle_digamma(z) == pytest.approx(want, rel=1e-13, abs=1e-14)

    def test_recurrence(self):
        for z in (0.3, -2.4 + 1j, 5 - 3j):
            assert oracle_digamma(z + 1) - oracle_digamma(z) == pytest.approx(
                1 / z, rel=1e-12
            )

    def test_poles_raise(self):
        for z in (0, -3):
            with pytest.raises(PoleError):
                oracle_digamma(z)

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for z in (0.25, 4.0, -0.75, 1.5 + 2.5j):
            assert oracle_digamma(z) == pytest.approx(
                complex(special.digamma(z)), rel=1e-12, abs=1e-13
            )


class TestGaussianMomentCheck:
    def test_passes_at_reference_orders(self):
        for y in (1, 2, 3, 0.5, 1.5 + 1j):
            rep = gaussian_moment_check(y)
            assert rep.passed, (y, rep)
            assert rep.max_rel_err < 1e-8

    def test_second_moment_both_routes(self):
        # E|X| for X ~ N(0,1) is sqrt(2/pi); check both sides land on it.
        rep = gaussian_moment_check(2)
        assert rep.passed
        want = math.sqrt(2 / math.pi)
        # closed form: 2^{1/2} Gamma(1) / sqrt(pi) = sqrt(2/pi)... the report
        # records the worst point, so recompute the closed form directly.
        closed = (2 ** 0.5) * lanczos_gamma(1.0) / SQRT_PI
        assert closed == pytest.approx(want, rel=1e-14)

    def test_non_numeric_order_parameter_is_a_domain_error(self):
        with pytest.raises(DomainError, match="y must be a complex number"):
            gaussian_moment_check("x")

    def test_rejects_nonpositive_order_parameter(self):
        with pytest.raises(DomainError):
            gaussian_moment_check(0)
        with pytest.raises(DomainError):
            gaussian_moment_check(-1 + 2j)


class TestIdentitySuite:
    def test_default_grid_shape(self):
        grid = default_verification_grid()
        lattice, high = grid[:441], grid[441:]
        assert min(p.real for p in lattice) == -5.0
        assert max(p.imag for p in lattice) == 5.0
        # half-integer lattice
        assert all((2 * p.real) == round(2 * p.real) for p in lattice)
        # then at most 20 points at |Im z| in [20, 60], both signs
        assert len(high) == 18 and len(set(grid)) == len(grid)
        assert all(20.0 <= abs(p.imag) <= 60.0 and abs(p.real) <= 5.0 for p in high)
        assert sum(p.imag > 0 for p in high) == 9

    def test_small_grid_all_pass(self):
        grid = [0.5 + 0.5j, 1 + 0j, -1.5 - 1j, 2 + 2j, -3 + 0.5j]
        reports = run_identity_suite(grid)
        assert [r.check_name for r in reports] == list(SUITE_CHECKS)
        for r in reports:
            assert r.passed, r
            assert r.points_tested > 0

    def test_checks_subset(self):
        reports = run_identity_suite([1 + 0j], checks=("duplication",))
        assert len(reports) == 1
        assert reports[0].check_name == "duplication"

    def test_unknown_check_rejected(self):
        with pytest.raises(DomainError):
            run_identity_suite([1 + 0j], checks=("nope",))

    @pytest.mark.parametrize("kind", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf, "x"])
    def test_unmeetable_tolerance_rejected(self, kind, value):
        # A negative excess, or a NaN one that never becomes the worst,
        # would otherwise report every check passed.
        with pytest.raises(DomainError, match=kind):
            run_identity_suite([1 + 0j], checks=("duplication",), **{kind: value})

    def test_non_numeric_grid_point_rejected(self):
        with pytest.raises(DomainError, match="z must be a complex number"):
            run_identity_suite(grid=["x"])

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            run_identity_suite([])

    def test_far_out_point_flags_but_completes(self):
        # Where the roundoff floor lies above the promise (near the zero at
        # -15) the suite must finish and report rather than crash; with the
        # flag-aware excess the offending check(s) report not-passed.
        reports = run_identity_suite([-15 + 4e-8j])
        assert len(reports) == len(SUITE_CHECKS)
        by_name = {r.check_name: r for r in reports}
        assert not by_name["recip_gamma_vs_oracle"].passed

    def test_impossible_threshold_fails_honestly(self):
        reports = run_identity_suite([0.5 + 0.5j, 2 - 1j], rel_tol=1e-17)
        assert any(not r.passed for r in reports)

    @pytest.mark.parametrize("grid", [[-150.3 + 0j, 1 + 0j], [148 + 0j]])
    @pytest.mark.parametrize("check", LATTICE_CHECKS)
    def test_failed_point_is_reported_not_raised(self, grid, check):
        # At -150.3 G's integrand overflows, and Lanczos does for the sine
        # product; at 148 Lanczos overflows, and G does at 1 - 148.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (rep,) = run_identity_suite(grid=grid, checks=(check,))
        assert not rep.passed
        assert rep.worst_point == grid[0]
        assert rep.points_tested == len(grid)

    def test_unconverged_contour_loop_fails(self, monkeypatch):
        # The residual stays tiny; the unconverged segments alone must fail it.
        real = oracle.contour_loop
        monkeypatch.setattr(
            oracle, "contour_loop",
            lambda y, spec: dataclasses.replace(real(y, spec), converged=False))
        (rep,) = run_identity_suite([1 + 0j], checks=("contour_loop",))
        assert rep.max_abs_err < 1e-8
        assert not rep.passed


class TestSharedGPass:
    """The lattice checks read recip_gamma and gamma_sin_pi off one G pass."""

    def test_recip_gamma_and_gamma_sin_pi_are_g(self):
        pts = default_verification_grid()
        g = evaluate_many("G", pts)
        g_mirror = evaluate_many("G", [1.0 - z for z in pts])
        recip = evaluate_many("recip_gamma", pts)
        sin_product = evaluate_many("gamma_sin_pi", pts)
        # Bit for bit where the function keeps the direct line; where it
        # reads the line at 1 - w instead (its line point w left of
        # Re w = 1/2), within the two estimates.
        for z, gz, gm, r, sp in zip(pts, g, g_mirror, recip, sin_product):
            if z.real >= 0.5:
                assert r.value == gz.value / math.pi, z
                assert r.converged == gz.converged, z
            else:
                assert r.converged, z
                assert abs(r.value - gz.value / math.pi) <= (
                    r.err_estimate + gz.err_estimate / math.pi), z
            if (1.0 - z).real >= 0.5:
                assert sp.value == gm.value, z
                assert sp.converged == gm.converged, z
            else:
                assert sp.converged, z
                assert abs(sp.value - gm.value) <= sp.err_estimate + gm.err_estimate, z

    def test_integrates_one_point_per_conjugate_pair(self, monkeypatch):
        # 519 distinct points, z and 1 - z; 271 of them up to conjugation.
        lines = []
        joint = functions._trapezoid_joint

        def joining(fs, grids, *args, **kwargs):
            lines.append(len(grids))
            return joint(fs, grids, *args, **kwargs)

        monkeypatch.setattr(functions, "_trapezoid_joint", joining)
        pts = default_verification_grid()
        g_at = oracle._g_pass(pts, [1.0 - z for z in pts], SUITE_CHECKS)
        assert lines == [271]
        assert len(g_at) == 519

    def test_each_check_alone_matches_full_suite(self):
        full = {rep.check_name: rep for rep in run_identity_suite()}
        for name in LATTICE_CHECKS:
            (alone,) = run_identity_suite(checks=(name,))
            assert alone == full[name]
