"""Public special-function API: worked values, identities, pole behavior."""

import cmath
import doctest
import inspect
import math
import os
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unigamma import (
    G,
    ContourSpec,
    DomainError,
    PoleError,
    QuadratureNodeError,
    default_sigma,
    digamma,
    euler_mascheroni,
    evaluate_many,
    g_tilde,
    gamma,
    gamma_sin_pi,
    laplace_recip_gamma,
    recip_gamma,
)
from unigamma import functions, integrands, quadrature
from unigamma.errors import UnigammaError
from unigamma.functions import _TAIL_SHARE

SQRT_PI = math.sqrt(math.pi)
EULER = 0.5772156649015329

# Points where hypothesis may roam without tripping over G's zeros or the
# far-out region where the strict converged flag correctly goes False.
reasonable_z = st.complex_numbers(max_magnitude=4.5, allow_nan=False, allow_infinity=False)


class TestG:
    def test_at_one(self):
        res = G(1)
        assert res.converged
        assert res.value == pytest.approx(math.pi, abs=1e-12)
        assert res.err_estimate < 1e-12

    def test_at_half(self):
        assert G(0.5).value == pytest.approx(SQRT_PI, abs=1e-12)

    def test_at_zero_vanishes(self):
        res = G(0)
        assert res.converged
        assert abs(res.value) < 1e-12

    def test_at_negative_half(self):
        # G(-1/2) = pi / Gamma(-1/2) = -sqrt(pi)/2.
        assert G(-0.5).value == pytest.approx(-0.886226925452758, abs=1e-12)

    def test_result_records_inputs(self):
        res = G(2 - 1j, tol=1e-10)
        assert res.z == 2 - 1j
        assert res.spec_used.half_width >= res.spec_used.sigma
        assert res.evaluations >= 3

    def test_sigma_override(self):
        a = G(0.3, sigma=0.5)
        b = G(0.3, sigma=2.0)
        assert a.spec_used.sigma == 0.5
        assert b.spec_used.sigma == 2.0
        assert a.value == pytest.approx(b.value, rel=1e-11)

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            G(1, sigma=0.0)
        with pytest.raises(DomainError):
            G(1, sigma=9.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            G(complex("inf"))

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(DomainError):
            G(1, tol=tol)

    @pytest.mark.parametrize("tol", [5e-324, 2e-323])
    def test_tolerance_whose_tail_share_underflows_is_a_result(self, tol):
        # The tails' share of tol rounds to 0; the window is sized for the
        # least positive double and the line runs to its roundoff floor.
        for res in [G(1, tol=tol), *evaluate_many("G", [1, 2], tol=tol)]:
            assert res.converged
            assert res.value == pytest.approx(math.pi, rel=1e-14)
            assert 0.0 < res.spec_used.tol < 1e-13

    @given(reasonable_z)
    @example(-1 + 0j)
    @settings(max_examples=40, deadline=None)
    def test_recurrence(self, z):
        """z G(z+1) = G(z), the recurrence driving the pole structure.

        At the zeros z = -1, -2, ... both sides vanish and the residual is
        roundoff of size err_estimate, so each side's own estimate joins the
        relative bound.
        """
        here, up = G(z), G(z + 1)
        scale = max(abs(here.value), abs(up.value), 1e-6)
        bound = 1e-10 * scale + abs(z) * up.err_estimate + here.err_estimate
        assert abs(z * up.value - here.value) <= bound

    @given(reasonable_z)
    @settings(max_examples=40, deadline=None)
    def test_conjugate_symmetry(self, z):
        a = G(z).value
        b = G(z.conjugate()).value
        assert b == pytest.approx(a.conjugate(), rel=1e-12, abs=1e-12)

    def test_far_out_flags_unconverged_not_wrong(self):
        # Near the zero at -15 the line's summand mass outruns double
        # precision for every sigma in 0.1-3: the roundoff floor lies above
        # the promise, and the flag must go False rather than the value
        # silently degrading.
        res = G(-15 + 4e-8j)
        assert not res.converged

    def test_far_up_the_imaginary_axis_converges(self):
        # The saddle line carries 0.5+40j without cancellation.
        mpmath = pytest.importorskip("mpmath")
        res = G(0.5 + 40j)
        with mpmath.workdps(30):
            want = complex(mpmath.pi / mpmath.gamma(mpmath.mpc(0.5, 40)))
        assert res.converged
        assert abs(res.value - want) <= res.err_estimate
        assert abs(res.value - want) <= 1e-12 * abs(want)

    def test_refinement_exhausted_is_unconverged(self):
        # A line that neither a certificate nor Richardson settles at level
        # 1: sigma = 0.5 is far off the saddle (1.22) of 0.5+3i, so the
        # strip bound certifies neither level and the halving goes on.
        z, sigma = 0.5 + 3j, 0.5
        trunc = quadrature.select_truncation(z, sigma, 0.125 * 1e-12)
        assert quadrature._start_certificate(z, sigma, trunc, 0.75e-12, False)[1] == math.inf
        res = G(z, sigma=sigma, max_refinements=1)
        assert res.converged is False and res.spec_used.step == 0.125
        assert G(z, sigma=sigma).converged


class TestGTilde:
    def test_matches_reparametrization(self):
        y = 0.7 - 0.3j
        assert g_tilde(y).value == G((y + 1) / 2).value
        assert g_tilde(y).z == y

    def test_at_zero(self):
        assert g_tilde(0).value == pytest.approx(SQRT_PI, abs=1e-12)

    def test_at_one(self):
        # G-tilde(1) = G(1) = pi.
        assert g_tilde(1).value == pytest.approx(math.pi, abs=1e-12)


class TestRecipGamma:
    def test_at_one(self):
        assert recip_gamma(1).value == pytest.approx(1.0, abs=1e-13)

    def test_at_negative_three_is_zero(self):
        res = recip_gamma(-3)
        assert res.converged
        assert abs(res.value) < 1e-12

    def test_factorial(self):
        assert recip_gamma(5).value == pytest.approx(1 / 24, rel=1e-11)

    def test_complex_reference(self):
        want = 42.29498020969168 - 13.539817708865499j
        assert recip_gamma(0.5 + 3j).value == pytest.approx(want, rel=1e-11)

    def test_negative_half_integer_reference(self):
        assert recip_gamma(-5.5).value == pytest.approx(91.63673001529573, rel=1e-11)


class TestGamma:
    def test_factorials(self):
        assert gamma(5).value == pytest.approx(24.0, rel=1e-11)
        assert gamma(0.5).value == pytest.approx(SQRT_PI, rel=1e-12)

    def test_pole_raises(self):
        with pytest.raises(PoleError) as exc:
            gamma(-2)
        assert exc.value.nearest_pole == -2

    def test_near_pole_raises(self):
        with pytest.raises(PoleError):
            gamma(-3 + 1e-14j)

    def test_away_from_pole_fine(self):
        res = gamma(-2.5)
        assert res.converged
        # Gamma(-2.5) = -8 sqrt(pi) / 15.
        assert res.value == pytest.approx(-8 * SQRT_PI / 15, rel=1e-11)

    @pytest.mark.parametrize("z", [
        -60.32344004494155 + 72.44507069345973j,
        *(complex(rng.uniform(-63, -52), rng.uniform(65, 100))
          for rng in [random.Random(20)] for _ in range(3))])
    def test_err_estimate_holds_where_g_is_huge(self, z):
        # A small Gamma(z) on the direct line, past the mirror's reach:
        # |G(z)| is above 1e154, where |G|^2 overflows, and the estimate
        # must still bound the error rather than read 0.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
        assert not functions._mirrors(z)
        assert math.pi / abs(want) > 1e154
        res = gamma(z)
        assert res.converged
        assert res.err_estimate > 0.0
        assert abs(res.value - want) <= res.err_estimate

    def test_err_estimate_is_inf_where_the_error_reaches_g(self):
        # A direct line whose G is known only within more than |G|: pi/G
        # bounds nothing (Gamma is about 1.7e9 here, the value 0.1).
        res = gamma(75.89830749339087 + 253.4421653116848j)
        assert not res.converged
        assert res.err_estimate == math.inf


class TestGammaSinPi:
    def test_at_half(self):
        # Gamma(1/2) sin(pi/2) = sqrt(pi).
        assert gamma_sin_pi(0.5).value == pytest.approx(SQRT_PI, abs=1e-12)

    def test_finite_at_pole_of_gamma(self):
        # At z = 0 the product is pi/Gamma(1) * ... = G(1-0) evaluated: pi...
        # sin(pi z) zero cancels the pole: limit is pi/Gamma(1) = pi? No --
        # the defining identity gives G(1 - z); at z = 0 that's G(1) = pi.
        res = gamma_sin_pi(0)
        assert res.converged
        assert res.value == pytest.approx(math.pi, abs=1e-11)

    def test_zero_at_positive_integers(self):
        assert abs(gamma_sin_pi(3).value) < 1e-12

    def test_reference_value(self):
        # z = -1/2: Gamma(-1/2) sin(-pi/2) = 2 sqrt(pi).
        assert gamma_sin_pi(-0.5).value == pytest.approx(2 * SQRT_PI, rel=1e-11)

    @given(reasonable_z)
    @settings(max_examples=30, deadline=None)
    def test_is_g_at_reflected_point(self, z):
        # G(1 - z) bit for bit where its line point 1 - z keeps the direct
        # line; right of Re z = 1/2 it is read from the line at z, within
        # the two estimates of the direct line's value.
        res, direct = gamma_sin_pi(z), G(1 - z)
        if (1 - z).real >= 0.5:
            assert res.value == direct.value
        else:
            assert abs(res.value - direct.value) <= res.err_estimate + direct.err_estimate


class TestDigamma:
    @pytest.mark.parametrize(
        "z,want",
        [
            (1, -EULER),
            (2, 0.42278433509846713),
            (0.5, -1.9635100260214235),
            (10, 2.251752589066721),
            (-1.5, 0.7031566406452432),
            (3.5 + 2j, 1.283736197197344 + 0.5850751845103465j),
        ],
    )
    def test_reference_values(self, z, want):
        res = digamma(z)
        assert res.converged
        assert res.value == pytest.approx(want, rel=1e-11, abs=1e-12)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            digamma(0)
        with pytest.raises(PoleError):
            digamma(-7)

    def test_recurrence(self):
        # psi(z+1) = psi(z) + 1/z.
        z = 1.25 - 0.75j
        assert digamma(z + 1).value == pytest.approx(
            digamma(z).value + 1 / z, rel=1e-11
        )


class TestEulerMascheroni:
    def test_value(self):
        res = euler_mascheroni()
        assert res.converged
        assert abs(res.value.real - EULER) < 1e-10
        assert res.value.imag == 0

    def test_sigma_stability(self):
        a = euler_mascheroni(sigma=0.5)
        b = euler_mascheroni(sigma=2.0)
        assert abs(a.value - b.value) < 1e-10

    def test_consistent_with_digamma(self):
        assert euler_mascheroni().value == pytest.approx(
            -digamma(1).value, abs=1e-10
        )


class TestLaplaceRecipGamma:
    def test_at_one(self):
        res = laplace_recip_gamma(1)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_at_half(self):
        assert laplace_recip_gamma(0.5).value == pytest.approx(
            1 / SQRT_PI, rel=1e-9
        )

    def test_matches_contour_route(self):
        z = 3 + 2j
        a = laplace_recip_gamma(z).value
        b = recip_gamma(z).value
        assert abs(a - b) / abs(b) < 1e-8

    # The benchmark's design points; their relative error is held to 1e-9.
    DESIGN = (0.28 + 0.4j, 0.45 + 2.5j, 0.60 + 1.0j, 0.80 + 0.5j, 0.95 + 3.0j)

    def test_err_estimate_bounds_true_error(self):
        """At the default tol and at loose ones, where ``converged`` is the
        relative check alone and no accuracy box backs it."""
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2506)
        sample = [complex(rng.uniform(0.05, 12.0), rng.uniform(-12.0, 12.0))
                  for _ in range(40)]
        cases = [(z, tol) for tol in (1e-9, 1e-6, 1e-3) for z in sample]
        for z, tol in cases + [(z, 1e-9) for z in self.DESIGN]:
            res = laplace_recip_gamma(z, tol=tol)
            with mpmath.workdps(30):
                want = complex(mpmath.rgamma(mpmath.mpc(z.real, z.imag)))
            err = abs(res.value - want)
            if res.converged:
                assert err <= res.err_estimate, (z, tol)
                assert err <= tol * abs(want), (z, tol)
            if z in self.DESIGN:
                assert res.converged, z

    def test_evaluates_each_node_once(self, monkeypatch):
        # The relative tolerance is anchored on the driver's own level-0 sum,
        # so no node is evaluated by a pass of its own.
        seen = []

        def spy(z, sigma, t, kernel=integrands.laplace_integrand):
            seen.append(np.array(t, dtype=float, ndmin=1))
            return kernel(z, sigma, t)

        monkeypatch.setattr(integrands, "laplace_integrand", spy)
        res = laplace_recip_gamma(0.5 + 1j)
        nodes = np.concatenate(seen)
        assert np.unique(nodes).size == nodes.size == res.evaluations

    def test_tail_remainder_above_tol_is_unconverged(self):
        # The quadrature meets its gate here, but the tail-series remainder
        # puts err_estimate at about 116 x tol*|value| (relative error 3.1e-9).
        res = laplace_recip_gamma(0.1585 - 10.8785j)
        assert res.err_estimate > 1e-9 * abs(res.value)
        assert res.converged is False

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1e-9}, {"tol": math.nan},
        {"sigma": 0.0}, {"sigma": -1.0}, {"sigma": 8.5},
        {"max_refinements": 2.5}, {"max_refinements": 0},
        {"tol": "x"}, {"sigma": "x"}, {"sigma": 1e-300},
    ])
    def test_rejects_bad_tol_and_sigma(self, kwargs):
        with pytest.raises(DomainError):
            laplace_recip_gamma(1.5, **kwargs)

    def test_non_finite_coarse_node_is_a_node_error(self):
        # |w|^-5 passes the double range at t = 0; the coarse pass reports
        # that node, and no numpy warning escapes.
        with pytest.raises(QuadratureNodeError) as info:
            laplace_recip_gamma(5, sigma=1e-100)
        assert info.value.node == 0.0

    def test_sigma_below_the_normal_doubles_is_refused_first(self):
        with pytest.raises(DomainError, match="at least 2"):
            laplace_recip_gamma(0.5, sigma=1e-300)

    def test_tolerance_below_the_doubles_once_scaled_is_a_result(self):
        # tol times |1/Gamma(5)| rounds to 0 as an absolute tolerance; the
        # quadrature then runs to its roundoff floor and says so.
        res = laplace_recip_gamma(5, tol=5e-324)
        assert not res.converged
        assert abs(res.value - 1 / 24) <= res.err_estimate
        assert res.spec_used.tol > 0.0

    def test_far_points_fail_typed_and_fast(self):
        # The first would ask for 5e12 nodes, the second overflows the tail
        # series; both are refused before any node array is built.
        for z in (1e6, 0.5 + 1e5j):
            with pytest.raises(DomainError):
                laplace_recip_gamma(z)

    def test_rejects_left_half_plane(self):
        with pytest.raises(DomainError):
            laplace_recip_gamma(0)
        with pytest.raises(DomainError):
            laplace_recip_gamma(-1.5)
        with pytest.raises(DomainError):
            laplace_recip_gamma(-2 + 5j)


class TestDefaultSigma:
    def test_core_is_one(self):
        assert default_sigma(0.5) == 1.0
        assert default_sigma(-1) == 1.0
        assert default_sigma(1.5) == 1.0

    def test_right_drift_continuous(self):
        assert default_sigma(1.5 + 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert default_sigma(4.5) == pytest.approx(2.0)
        assert default_sigma(1e6) == 8.0

    def test_left_shrink_continuous(self):
        assert default_sigma(-1 - 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert default_sigma(-4) == pytest.approx(0.5)
        assert default_sigma(-1e6) == 0.1

    def test_off_axis_through_the_saddle(self):
        # sigma = Re sqrt(z - 1/2) wherever that lies above the real-axis rule.
        assert default_sigma(0.5 + 40j) == math.sqrt(20.0)
        assert default_sigma(-15 + 20j) == pytest.approx(2.21395, abs=1e-5)
        assert default_sigma(0.5 + 1e4j) == 8.0
        # Near the left's zeros the saddle lies near the imaginary axis.
        assert default_sigma(-15 + 4e-8j) == default_sigma(-15)

    def test_entirety_probe_far_left(self):
        # The same code path with no pole special-casing stays accurate
        # deep into the left half-plane.
        res = recip_gamma(-10)
        assert res.converged
        assert abs(res.value) < 1e-9


class TestContourErrEstimate:
    """err_estimate on the contour path bounds the true error in the box."""

    FUNCTIONS = {
        "recip_gamma": (recip_gamma, lambda mp, w: mp.rgamma(w)),
        "gamma_sin_pi": (gamma_sin_pi, lambda mp, w: mp.pi * mp.rgamma(1 - w)),
        "gamma": (gamma, lambda mp, w: mp.gamma(w)),
        "digamma": (digamma, lambda mp, w: mp.digamma(w)),
    }

    def test_err_estimate_bounds_true_error(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(4171)
        names = sorted(self.FUNCTIONS)
        converged = misses = 0
        for k in range(400):
            name = names[k % len(names)]
            fn, exact = self.FUNCTIONS[name]
            z = complex(rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0))
            res = fn(z)
            if not res.converged:
                continue
            with mpmath.workdps(30):
                want = complex(exact(mpmath, mpmath.mpc(z.real, z.imag)))
            err = abs(res.value - want)
            assert err <= 2.0 * res.err_estimate, (name, z, err, res.err_estimate)
            converged += 1
            misses += err > res.err_estimate
        assert converged >= 390
        assert misses <= 0.01 * converged


class TestHighImaginaryVerdict:
    """Above |Im z| = 30 the flag follows the same rule as everywhere else.

    Converged means the roundoff floor sits inside the accuracy promise;
    it is not withheld for the size of Im z alone, and a point whose floor
    lies above the promise (near a zero of 1/Gamma) is flagged.
    """

    def _exact(self, mpmath, fn, z):
        with mpmath.workdps(30):
            return complex(fn(mpmath.mpc(z.real, z.imag)))

    @pytest.mark.parametrize("name, z", [
        ("digamma", 7 - 40j),
        ("gamma", 9.473117389423265 + 47.84051029763282j),
    ])
    def test_accurate_points_converge(self, name, z):
        mpmath = pytest.importorskip("mpmath")
        fn, exact = {"digamma": (digamma, mpmath.digamma),
                     "gamma": (gamma, mpmath.gamma)}[name]
        res = fn(z)
        assert res.converged
        assert abs(res.value - self._exact(mpmath, exact, z)) <= res.err_estimate

    def test_roundoff_floor_still_flags(self):
        # The direct line near a zero at Re z <= -12 flags; recip_gamma reads
        # the point from the line at 1 - z, which does not cancel.
        mpmath = pytest.importorskip("mpmath")
        z = -15 + 4e-8j
        want = self._exact(mpmath, mpmath.rgamma, z)
        direct = G(z)
        assert not direct.converged
        assert abs(direct.value / math.pi - want) > 1e-9 * abs(want)
        res = recip_gamma(z)
        assert res.converged
        assert abs(res.value - want) <= min(res.err_estimate, 1e-9 * abs(want))


class TestMirror:
    """Left of Re w = 1/2 a line point w is read from the line at 1 - w.

    G(w) = pi sin(pi w)/G(1 - w) and psi(z) = psi(1 - z) - pi cot(pi z), while
    1 - w's saddle abscissa is below the sigma cap; G, g_tilde and a forced
    sigma keep the direct line.
    """

    @staticmethod
    def _exact(mpmath, name, z):
        with mpmath.workdps(30):
            w = mpmath.mpc(z.real, z.imag)
            return complex({"recip_gamma": mpmath.rgamma, "gamma": mpmath.gamma,
                            "digamma": mpmath.digamma,
                            "G": lambda x: mpmath.pi * mpmath.rgamma(x),
                            "gamma_sin_pi": lambda x: mpmath.pi * mpmath.rgamma(1 - x),
                            }[name](w))

    @pytest.mark.parametrize("name, z", [
        ("recip_gamma", -13.0000001),
        ("gamma_sin_pi", 14.0000001),
        ("recip_gamma", -15 + 4e-8j),
    ])
    def test_points_near_deep_zeros_converge(self, name, z):
        mpmath = pytest.importorskip("mpmath")
        want = self._exact(mpmath, name, complex(z))
        res = getattr(functions, name)(z)
        assert res.converged
        assert abs(res.value - want) <= min(res.err_estimate, 1e-9 * abs(want))

    @pytest.mark.parametrize("name", ["recip_gamma", "gamma_sin_pi"])
    def test_near_zero_points_converge_within_estimate(self, name):
        # Within 1e-12..1e-3 of the zeros 0..-15 of 1/Gamma, resp. 1..16 of
        # Gamma sin(pi z), the make-up of plane-mix's near-zero slice.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2201)
        for _ in range(60):
            centre = -rng.randrange(16) if name == "recip_gamma" else rng.randint(1, 16)
            z = centre + 10.0 ** rng.uniform(-12.0, -3.0) * cmath.exp(
                1j * rng.uniform(0.0, 2.0 * math.pi))
            res = getattr(functions, name)(z)
            want = self._exact(mpmath, name, z)
            assert res.converged, z
            assert abs(res.value - want) <= res.err_estimate, z
            assert abs(res.value - want) <= max(1e-9 * abs(want), 1e-6), z

    def test_digamma_left_points_within_estimate(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2202)
        for _ in range(60):
            z = complex(rng.uniform(-60.0, 0.5), rng.uniform(-40.0, 40.0))
            if abs(z - round(z.real)) < 1e-3:
                continue
            res = digamma(z)
            assert res.converged, z
            assert abs(res.value - self._exact(mpmath, "digamma", z)) <= res.err_estimate, z

    def test_left_points_within_estimate(self):
        # Including Re w where 1 - w rounds (it leaves the binade of w).
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2203)
        for _ in range(40):
            z = complex(rng.uniform(-63.0, 0.5), rng.uniform(-30.0, 30.0))
            for name in ("recip_gamma", "gamma", "gamma_sin_pi"):
                x = 1.0 - z if name == "gamma_sin_pi" else z
                res = getattr(functions, name)(x)
                assert res.converged, (name, x)
                assert abs(res.value - self._exact(mpmath, name, x)) <= res.err_estimate, (
                    name, x)

    @pytest.mark.parametrize("name", ["gamma", "digamma"])
    @pytest.mark.parametrize("z", [0, -3, -17, -40, -3 + 1e-14j])
    def test_poles_still_raise(self, name, z):
        with pytest.raises(PoleError, match=f"nearest pole at z = {round(complex(z).real)}$"):
            getattr(functions, name)(z)

    @pytest.mark.parametrize("name", ["recip_gamma", "gamma", "gamma_sin_pi", "digamma"])
    def test_mirror_reach(self, name):
        # Re sqrt(m - 1/2) < 8 for the line point m = 1 - w: mirrored at
        # Re z = -63.4 and at 0.2 + 120i, direct at -63.6 and at 0.2 + 130i.
        fn = getattr(functions, name)
        line_point = (lambda z: 1.0 - z) if name == "gamma_sin_pi" else (lambda z: z)
        for z, mirrored in ((-63.4 + 0.5j, True), (0.2 + 120j, True),
                            (-63.6 + 0.5j, False), (0.2 + 130j, False)):
            if name == "gamma_sin_pi":
                z = 1.0 - z
            w = line_point(z)
            sigma = default_sigma(1.0 - w if mirrored else w)
            assert fn(z).spec_used.sigma == sigma, (z, mirrored)
        direct = G(-63.6 + 0.5j)
        if name == "recip_gamma":
            assert recip_gamma(-63.6 + 0.5j).value == direct.value / math.pi

    def test_past_the_reach_keeps_the_direct_lines_node_error(self):
        # -2+400i is past the reach (Re sqrt(1/2 - w) is 14): its direct
        # line's nodes leave the double range, though |1/Gamma| fits.
        assert not functions._mirrors(-2 + 400j)
        with pytest.raises(QuadratureNodeError) as raised:
            recip_gamma(-2 + 400j)
        assert str(raised.value) == str(TestEvaluateMany._one_point(G, -2 + 400j))

    @pytest.mark.parametrize("name, z", [
        ("recip_gamma", -111.3), ("recip_gamma", -150.3), ("digamma", -130.2 + 0.7j)])
    def test_far_left_converges_on_its_direct_line(self, name, z):
        # Past the reach the direct line's nodes reach e^416 (at -111.3) and
        # e^606 (at -150.3); formed as one exponential, no factor of a node
        # overflows before the node does.
        mpmath = pytest.importorskip("mpmath")
        z = complex(z)
        assert not functions._mirrors(z)
        res = getattr(functions, name)(z)
        assert res.converged and res.spec_used.sigma == default_sigma(z)
        err = abs(res.value - self._exact(mpmath, name, z))
        assert err <= res.err_estimate and err <= 1e-9 * abs(res.value)

    @pytest.mark.parametrize("name, z", [("G", 64.499 + 0.014j),
                                         ("recip_gamma", -63.499 - 0.014j)])
    def test_floor_covers_the_whole_exponent(self, name, z):
        # The line at 64.499+0.014i is all but real, so the rounding of its
        # exponent comes from (1 - 2 Re z) Log w, not from Im z; the point
        # at -63.499-0.014i is read from that line's conjugate.  A floor
        # that counts Im z log u alone sits at 1.0 and 0.8 of the error.
        mpmath = pytest.importorskip("mpmath")
        res = getattr(functions, name)(z)
        err = abs(res.value - self._exact(mpmath, name, z))
        assert res.converged
        assert err <= 0.25 * res.err_estimate and err <= 1e-9 * abs(res.value)

    @pytest.mark.parametrize("z", [-3.5, -10 + 2j, 0.25 - 1j])
    def test_g_and_forced_sigma_keep_the_direct_line(self, z):
        direct = G(z)
        assert direct.spec_used.sigma == default_sigma(z)
        assert g_tilde(2 * z - 1).spec_used.sigma == default_sigma(z)
        forced = G(z, sigma=1.0)
        assert repr(recip_gamma(z, sigma=1.0).spec_used) == repr(forced.spec_used)
        assert recip_gamma(z, sigma=1.0).value == forced.value / math.pi
        assert gamma_sin_pi(1 - z, sigma=1.0).value == G(1 - (1 - z), sigma=1.0).value


class TestTruncationWindow:
    """The G line's window is sized on each side, relative to the value."""

    def test_right_half_plane_is_relatively_accurate(self):
        """A tail budget in absolute terms would leave 7e-7 relative here.

        At Re z in [12, 15] the values are small, so only a budget relative
        to the integrand's magnitude keeps the tails below the value's last
        digits.
        """
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(1415)
        sample = [14.405 - 11.458j] + [complex(rng.uniform(12.0, 15.0),
                                                rng.uniform(-15.0, 15.0))
                                        for _ in range(30)]
        for z in sample:
            with mpmath.workdps(30):
                w = mpmath.mpc(z.real, z.imag)
                want = {recip_gamma: complex(mpmath.rgamma(w)),
                        gamma: complex(mpmath.gamma(w))}
            for fn, exact in want.items():
                res = fn(z)
                assert res.converged, (fn.__name__, z)
                assert abs(res.value - exact) <= 1e-12 * abs(exact), (fn.__name__, z)

    def test_conjugates_mirror_windows_and_values_exactly(self):
        rng = random.Random(1416)
        for _ in range(40):
            z = complex(rng.uniform(-15.0, 15.0), rng.uniform(-40.0, 40.0))
            for fn in (G, digamma):
                a, b = fn(z), fn(z.conjugate())
                lower, upper = a.spec_used.window
                assert b.spec_used.window == (-upper, -lower), z
                assert b.value == a.value.conjugate(), z
        for x in (-7.5, -1.25, 0.5, 3.0, 12.75):
            res = G(x)
            lower, upper = res.spec_used.window
            assert lower == -upper and res.value.imag == 0.0, x

    def test_forced_sigma_far_from_poles_is_no_pole(self):
        # Off the saddle the line cancels until |G| sits within 8 error
        # bars of 0, but z is 29 away from the nearest pole.
        res = digamma(11.531799874248094 + 27.055194734163678j,
                      sigma=1.108695358707731)
        assert not res.converged
        assert res.err_estimate > 1e-9 * abs(res.value)

    def test_both_tails_within_the_tail_share(self, monkeypatch):
        # Each side gets half the tail share, so tails and quadrature
        # together stay within tol.  The truncation and the quadrature's
        # tolerance are read off the calls the line makes.
        seen = {}
        select, joint = functions.select_truncation, functions._trapezoid_joint

        def selecting(*args, **kwargs):
            seen["log_weight"] = kwargs["log_weight"]
            seen["trunc"] = select(*args, **kwargs)
            return seen["trunc"]

        def joining(fs, points, *args, **kwargs):
            (point,) = points
            seen["tol"] = point.tol
            return joint(fs, points, *args, **kwargs)

        monkeypatch.setattr(functions, "select_truncation", selecting)
        monkeypatch.setattr(functions, "_trapezoid_joint", joining)
        rng = random.Random(1417)
        for _ in range(60):
            z = complex(rng.uniform(-15.0, 15.0), rng.uniform(-100.0, 100.0))
            tol = 10.0 ** rng.uniform(-14.0, -4.0)
            for log_weight, function in ((False, "G"), (True, "digamma")):
                seen.clear()
                evaluate_many(function, [z], tol=tol)
                trunc = seen["trunc"]
                assert seen["log_weight"] is log_weight
                assert trunc.tail <= _TAIL_SHARE * tol * (1.0 + 1e-12), (z, tol)
                assert seen["tol"] + trunc.tail <= tol * (1.0 + 1e-12), (z, tol)

    def test_tiny_forced_sigma(self):
        # sigma**2 must be a normal double; just above that, the bounds pass
        # the double range near t = 0 and the point still gets its outcome.
        with pytest.raises(DomainError):
            G(10j, sigma=1e-300)
        outcomes = evaluate_many("G", [1, 10j], sigma=1e-300)
        assert all(isinstance(out, DomainError) for out in outcomes)
        assert not G(10j, sigma=2.0 ** -511).converged


class TestHighImaginaryBand:
    """The saddle line holds the four functions at |Im z| in [15, 100]."""

    def test_converged_within_estimate_and_no_false_pole(self):
        mpmath = pytest.importorskip("mpmath")
        functions = TestContourErrEstimate.FUNCTIONS
        names = sorted(functions)
        rng = random.Random(61)
        for k in range(400):
            name = names[k % len(names)]
            fn, exact = functions[name]
            z = complex(rng.uniform(-20.0, 20.0),
                        rng.choice((-1.0, 1.0)) * rng.uniform(15.0, 100.0))
            res = fn(z)  # a PoleError fails the test
            with mpmath.workdps(30):
                want = complex(exact(mpmath, mpmath.mpc(z.real, z.imag)))
            assert res.converged, (name, z)
            assert abs(res.value - want) <= res.err_estimate, (name, z)


class TestEvaluateMany:
    """Many points through one call: the same outcomes as one point at a time."""

    ONE_POINT = {"G": G, "recip_gamma": recip_gamma, "gamma": gamma,
                 "gamma_sin_pi": gamma_sin_pi, "digamma": digamma}

    @staticmethod
    def _one_point(fn, z, **options):
        try:
            return fn(z, **options)
        except (PoleError, QuadratureNodeError, DomainError) as exc:
            return exc

    @pytest.mark.parametrize("name", sorted(ONE_POINT))
    def test_matches_one_point_calls(self, name):
        rng = random.Random(707)
        sample = [complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
                  for _ in range(60)]
        sample += [complex(rng.uniform(-15, 15), 0.0) for _ in range(12)]
        sample += [-2 + 0j, -150.3 + 0j, 2.5 - 1j, 0j, 1.5 + 2j, -1.5 - 3j]
        fn = self.ONE_POINT[name]
        for z, many in zip(sample, evaluate_many(name, sample)):
            one = self._one_point(fn, z)
            assert type(many) is type(one), (z, many, one)
            if isinstance(one, Exception):
                assert str(many) == str(one)
                continue
            # Bit for bit: the kernels round a node alike in every layout.
            assert repr(many) == repr(one), z

    def test_failing_point_leaves_chunk_mates_bit_identical(self):
        mates = [0.3 + 2j, -4.7 + 1.1j, 5.2 - 3.3j, 2.5 + 0.5j, -9.1 - 7.4j, 1.5 + 0j, 0j]
        outcomes = evaluate_many("recip_gamma", mates[:2] + [0.5 + 400j] + mates[2:])
        assert isinstance(outcomes[2], QuadratureNodeError)
        del outcomes[2]
        assert outcomes == [recip_gamma(z) for z in mates]
        assert outcomes == evaluate_many("recip_gamma", mates)

    def test_outcomes_in_input_order(self):
        outcomes = evaluate_many("gamma", [5, -2, complex("inf"), 0.5], tol=1e-10)
        assert outcomes[0].value == pytest.approx(24.0, rel=1e-9)
        assert isinstance(outcomes[1], PoleError)
        assert isinstance(outcomes[2], DomainError)
        assert outcomes[3] == gamma(0.5, tol=1e-10)
        assert evaluate_many("digamma", []) == []

    def test_whole_chunk_failing_together(self):
        # Both points meet a non-finite node at the same level, so none of
        # the chunk goes on: two node errors, and no numpy warning escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = evaluate_many("recip_gamma", [0.5 + 400j, 0.5 + 420j])
        assert [type(outcome) for outcome in outcomes] == [QuadratureNodeError] * 2

    def test_pass_with_every_point_failed_sums_nothing(self, monkeypatch):
        # With the fsum cutover at 0 every pass is binned, the empty one too.
        monkeypatch.setattr(quadrature, "_FSUM_TERMS", 0)
        outcomes = evaluate_many("recip_gamma", [0.5 + 400j, 0.5 + 500j])
        assert [type(outcome) for outcome in outcomes] == [QuadratureNodeError] * 2

    def test_rejects_unknown_function(self):
        with pytest.raises(DomainError):
            evaluate_many("laplace_recip_gamma", [1.0])

    def test_malformed_point_is_its_own_outcome(self):
        outcomes = evaluate_many("recip_gamma", [1, None, "abc", 2])
        assert [outcomes[0], outcomes[3]] == [recip_gamma(1), recip_gamma(2)]
        for bad in outcomes[1:3]:
            assert isinstance(bad, DomainError)
            assert "z must be a complex number" in str(bad)


class TestConjugateSharing:
    """G(conj z) = conj G(z): one integral per conjugate pair, the whole record mirrored."""

    ONE_POINT = {"G": G, "g_tilde": g_tilde, "recip_gamma": recip_gamma,
                 "gamma": gamma, "gamma_sin_pi": gamma_sin_pi, "digamma": digamma}

    @staticmethod
    def _sample() -> list:
        rng = random.Random(1818)
        box = [complex(rng.uniform(-15, 15), rng.uniform(-15, 15)) for _ in range(16)]
        near_zero = [-rng.randint(0, 12) + 10.0 ** rng.uniform(-12, -3)
                     * cmath.exp(1j * rng.uniform(0.1, 3.0)) for _ in range(8)]
        high = [complex(rng.uniform(-15, 15), rng.choice((-1, 1)) * rng.uniform(15, 30))
                for _ in range(8)]
        return [-10 - 0.5j] + box + near_zero + high

    @staticmethod
    def _assert_mirrored(a, b, label):
        """b, the outcome at conj z, is the conjugate record of a, at z."""
        if isinstance(a, Exception) or isinstance(b, Exception):
            assert type(a) is type(b), label
            return
        assert repr(b.value) == repr(a.value.conjugate()), label
        assert b.err_estimate == a.err_estimate, label
        assert b.converged == a.converged, label
        assert b.evaluations == a.evaluations, label
        assert b.spec_used.tol == a.spec_used.tol, label
        assert b.spec_used.step == a.spec_used.step, label
        lower, upper = a.spec_used.window
        assert b.spec_used.window == (-upper, -lower), label

    @pytest.mark.parametrize("name", sorted(ONE_POINT))
    def test_conjugate_point_gets_the_conjugate_record(self, name):
        fn = self.ONE_POINT[name]
        sample = self._sample()
        conjugates = [z.conjugate() for z in sample]
        for z in sample:
            one, mirror = (TestEvaluateMany._one_point(fn, w) for w in (z, z.conjugate()))
            self._assert_mirrored(one, mirror, (name, z))
        batch = evaluate_many(name, sample)
        apart = evaluate_many(name, conjugates)
        together = evaluate_many(name, sample + conjugates)
        for z, a, b, c, d in zip(sample, batch, apart, together, together[len(sample):]):
            self._assert_mirrored(a, b, (name, z, "batch"))
            self._assert_mirrored(c, d, (name, z, "one batch"))

    @pytest.mark.parametrize("name,x", [("G", 2.0), ("gamma_sin_pi", 3.25)])
    def test_signed_zeros_and_duplicates_match_one_point_calls(self, name, x, monkeypatch):
        zs = [complex(x, 0.0), complex(x, -0.0), complex(x, 0.0)]
        fn = self.ONE_POINT[name]
        assert [repr(out) for out in evaluate_many(name, zs)] == [repr(fn(z)) for z in zs]
        # A -0.0 imaginary part is integrated as given, not conjugated.
        seen = []
        kernel = integrands.g_integrand

        def spy(z, sigma, t):
            seen.append(math.copysign(1.0, complex(z).imag))
            return kernel(z, sigma, t)

        monkeypatch.setattr(integrands, "g_integrand", spy)
        G(complex(x, -0.0))
        assert seen and set(seen) == {-1.0}

    def test_conjugates_and_duplicates_are_integrated_once(self, monkeypatch):
        nodes = []
        kernel = integrands.g_integrand

        def spy(z, sigma, t):
            nodes.append(np.array(t, dtype=float).ravel())
            return kernel(z, sigma, t)

        monkeypatch.setattr(integrands, "g_integrand", spy)
        z = 2.5 - 1.5j
        evaluate_many("G", [z])
        alone = np.concatenate(nodes)
        nodes.clear()
        evaluate_many("G", [z, z.conjugate(), z])
        assert np.array_equal(np.concatenate(nodes), alone)

    @pytest.mark.parametrize("z", [0.5 - 400j, 0.3 - 410j, 0.3 + 410j])
    def test_node_error_names_the_points_own_first_bad_node(self, z):
        # The first kernel call evaluates the window at half the start step
        # and looks at its even k first, in the point's own node order.
        sigma = default_sigma(z)
        trunc = functions.select_truncation(z, sigma, 0.5 * _TAIL_SHARE * 1e-12)
        h = 0.5 * functions._T_GRID
        t = np.arange(2 * math.floor(trunc.lower / functions._T_GRID),
                      2 * math.ceil(trunc.upper / functions._T_GRID) + 1) * h
        with np.errstate(all="ignore"):
            finite = np.isfinite(integrands.g_integrand(z, sigma, t))
        first = next(float(t[look][~finite[look]][0])
                     for look in (slice(None, None, 2), slice(None)) if not finite[look].all())
        for outcome in (evaluate_many("G", [z.conjugate(), z])[1],
                        TestEvaluateMany._one_point(G, z)):
            assert isinstance(outcome, QuadratureNodeError)
            assert repr(outcome.node) == repr(first)
            assert str(outcome) == f"integrand returned a non-finite value at node t={first!r}"

    def test_lattice_integrates_its_upper_half(self, monkeypatch):
        # The 41 x 41 grid of `unigamma grid`: a point left of Re z = 1/2 is
        # read from the line at 1 - z, so the left half reads the right
        # half's lines, and the conjugates of these lines are not
        # integrated: 462 lines, 20 x 21 of the right half and 2 x 21 at
        # Re 1 - z in {10.5, 11}.
        sizes, lines = [], []
        kernel, joint = integrands.g_integrand, functions._trapezoid_joint

        def spy(z, sigma, t):
            sizes.append(np.size(t))
            return kernel(z, sigma, t)

        def joining(fs, grids, *args, **kwargs):
            lines.append(len(grids))
            return joint(fs, grids, *args, **kwargs)

        monkeypatch.setattr(integrands, "g_integrand", spy)
        monkeypatch.setattr(functions, "_trapezoid_joint", joining)
        axis = [-10.0 + k * 0.5 for k in range(41)]
        points = [complex(re, im) for im in axis for re in axis]
        outcomes = evaluate_many("recip_gamma", points)
        assert lines == [462]
        # Each line's nodes are counted once, by a point that reads it.
        integrated = {}
        for z, out in zip(points, outcomes):
            line_point = 1.0 - z if z.real < 0.5 else z
            if line_point.imag >= 0.0:
                integrated[line_point] = out.evaluations
        assert len(integrated) == 462
        assert sum(sizes) == sum(integrated.values())


class TestLonePoint:
    """A one-point call takes its own path past evaluate_many's lists, to the same outcome."""

    ONE_POINT = TestConjugateSharing.ONE_POINT
    # The input whose G-line point is w, per function.
    FROM_LINE = {"g_tilde": lambda w: 2.0 * w - 1.0, "gamma_sin_pi": lambda w: 1.0 - w}

    @staticmethod
    def _described(outcome) -> str:
        if isinstance(outcome, Exception):
            return f"{type(outcome).__name__}: {outcome}"
        return repr(outcome)

    @pytest.mark.parametrize("name", sorted(ONE_POINT))
    def test_matches_evaluate_many_of_that_point(self, name):
        rng = random.Random(2121)
        sample = TestConjugateSharing._sample()
        sample += [complex(rng.uniform(18, 40), rng.uniform(-3, 3)) for _ in range(3)]
        sample += [complex(2.5, 0.0), complex(2.5, -0.0), complex(-3.5, -0.0),
                   complex(0.0, -0.0), complex(-0.0, 2.0)]
        to_input = self.FROM_LINE.get(name, lambda w: w)
        failing = [to_input(w) for w in (0.5 - 400j, -2.0 - 400j)]
        fn = self.ONE_POINT[name]
        for z in sample + failing:
            for options in ({}, {"tol": 1e-9, "max_refinements": 3}):
                one = self._described(TestEvaluateMany._one_point(fn, z, **options))
                # A duplicate is integrated once, with the lone layout, but
                # through the batch's sharing table.
                many = evaluate_many(name, [z], **options) + evaluate_many(name, [z, z], **options)
                assert [self._described(out) for out in many] == [one] * 3, (name, z, options)
        for z in failing:       # the conjugated line's node text
            assert isinstance(TestEvaluateMany._one_point(fn, z), QuadratureNodeError), (name, z)

    def test_lone_bad_point_is_its_one_point_error(self):
        # One point: its DomainError is raised before any line is integrated.
        with pytest.raises(DomainError) as raised:
            recip_gamma(None)
        (many,) = evaluate_many("recip_gamma", [None])
        assert isinstance(many, DomainError) and str(many) == str(raised.value)

    @pytest.mark.parametrize("name", sorted(ONE_POINT))
    @pytest.mark.parametrize("z", ["abc", complex("nan"), math.inf])
    def test_bad_point_error_wins_over_bad_options(self, name, z):
        fn = self.ONE_POINT[name]
        with pytest.raises(DomainError) as raised:
            fn(z, tol=-1.0, sigma="x")
        (many,) = evaluate_many(name, [z], tol=-1.0, sigma="x")
        assert str(raised.value) == str(many)
        assert str(many).startswith("z must be")

    @pytest.mark.parametrize("z", [0.5 + 3j, 7.2 - 9j, -3.3 + 0.2j])
    def test_keeps_the_lookups_tracers_wrap(self, z, monkeypatch):
        # bench/spans.py wraps these module attributes; a one-point digamma
        # must still call through each of them.
        calls, nodes = [], []
        select, joint = functions.select_truncation, functions._trapezoid_joint

        def spying(name, fn, count_nodes=False):
            def spy(*args, **kwargs):
                calls.append(name)
                if count_nodes:
                    nodes.append(np.size(args[2]))
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(functions, "select_truncation",
                            spying("select_truncation", select))
        monkeypatch.setattr(functions, "_trapezoid_joint", spying("_trapezoid_joint", joint))
        for kernel in ("g_integrand", "g_log_integrand"):
            monkeypatch.setattr(integrands, kernel,
                                spying(kernel, getattr(integrands, kernel), True))
        res = digamma(z)
        assert calls.count("select_truncation") == 1
        assert calls.count("_trapezoid_joint") == 1
        assert calls.count("g_integrand") == calls.count("g_log_integrand") >= 1
        assert sum(nodes) == res.evaluations


class TestPromiseSlice:
    """A seeded slice of the plane, |z| log-uniform in [1e-2, 1e3] and arg z
    uniform, judged against mpmath at 30 digits for the four functions.
    What holds at every point: each exception is a UnigammaError and no
    warning leaks, and a converged result whose true value fits a double
    ([1e-300, 1e300]) lies within its err_estimate.  Each point that is not
    "ok" (converged and within 1e-9 relative) is pinned to its present
    class, so a change that moves one shows up here."""

    SEED, SIZE = 13, 40
    FUNCTIONS = ("recip_gamma", "gamma", "gamma_sin_pi", "digamma")
    FAILING = {
        ("recip_gamma", 7): "converged, > 1e-9 relative",
        ("gamma", 7): "PoleError",
        ("gamma_sin_pi", 7): "QuadratureNodeError (out of range)",
        ("digamma", 7): "PoleError",
        ("recip_gamma", 12): "QuadratureNodeError (out of range)",
        ("gamma", 12): "QuadratureNodeError (out of range)",
        ("gamma_sin_pi", 12): "unconverged",
        ("digamma", 12): "QuadratureNodeError",
        ("recip_gamma", 19): "returned (out of range)",
        ("gamma", 19): "PoleError (out of range)",
        ("gamma_sin_pi", 19): "QuadratureNodeError (out of range)",
        ("digamma", 19): "PoleError",
        ("recip_gamma", 30): "returned (out of range)",
        ("gamma", 30): "PoleError (out of range)",
        ("gamma_sin_pi", 30): "QuadratureNodeError (out of range)",
        ("digamma", 30): "PoleError",
        ("recip_gamma", 36): "QuadratureNodeError (out of range)",
        ("gamma", 36): "QuadratureNodeError (out of range)",
        ("gamma_sin_pi", 36): "converged, > 1e-9 relative",
        ("digamma", 36): "QuadratureNodeError",
    }

    @classmethod
    def _points(cls) -> list[complex]:
        rng = random.Random(cls.SEED)
        points = []
        for _ in range(cls.SIZE):
            size, angle = 10.0 ** rng.uniform(-2, 3), rng.uniform(-math.pi, math.pi)
            points.append(complex(size * math.cos(angle), size * math.sin(angle)))
        return points

    @staticmethod
    def _exact(mpmath, name: str, z: complex):
        w = mpmath.mpc(z.real, z.imag)
        with mpmath.workdps(30):
            try:
                return {"recip_gamma": lambda: mpmath.rgamma(w),
                        "gamma": lambda: mpmath.gamma(w),
                        "gamma_sin_pi": lambda: mpmath.pi * mpmath.rgamma(1 - w),
                        "digamma": lambda: mpmath.digamma(w)}[name]()
            except (ValueError, ZeroDivisionError):     # at a pole
                return None

    def test_slice(self):
        mpmath = pytest.importorskip("mpmath")
        classes = {}
        for index, z in enumerate(self._points()):
            for name in self.FUNCTIONS:
                exact = self._exact(mpmath, name, z)
                fits = exact is not None and 1e-300 <= abs(exact) <= 1e300
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        res = getattr(functions, name)(z)
                    except Exception as exc:
                        assert isinstance(exc, UnigammaError), (name, z, exc)
                        classes[name, index] = (type(exc).__name__
                                                + ("" if fits else " (out of range)"))
                        continue
                if not fits:
                    classes[name, index] = "returned (out of range)"
                elif not res.converged:
                    classes[name, index] = "unconverged"
                else:
                    err = abs(res.value - complex(exact))
                    assert err <= res.err_estimate, (name, z, err, res.err_estimate)
                    if err > 1e-9 * abs(exact):
                        classes[name, index] = "converged, > 1e-9 relative"
        assert classes == self.FAILING

    # Lines whose sigma is capped at 8 well left of the saddle abscissa
    # (17.9, 26.3 and 18.0) and that no certificate settles: at the crest
    # the integrand turns at 55 to 111 radians per unit t, which steps 0.25
    # and 0.125 alias to one frequency, so their two sums agreed, on values
    # up to 1e101 times the true one, and the lines passed as converged.
    PAST_THE_CAP = (("recip_gamma", 205.93858051401375 - 380.4951468265725j),
                    ("recip_gamma", 288.12975620914966 + 1061.3329137533183j),
                    ("gamma", 288.12975620914966 + 1061.3329137533183j),
                    ("digamma", 288.12975620914966 + 1061.3329137533183j),
                    ("gamma_sin_pi", -194.11912460191417 - 408.7371974233468j))

    @pytest.mark.parametrize("name,z", PAST_THE_CAP)
    def test_aliased_crest_is_no_convergence(self, name, z):
        mpmath = pytest.importorskip("mpmath")
        res = getattr(functions, name)(z)
        exact = complex(self._exact(mpmath, name, z))
        assert abs(res.value - exact) <= res.err_estimate, (res, exact)
        # The step it stops on resolves the crest; |rate| is the same at conj(w).
        w = 1.0 - z if name == "gamma_sin_pi" else z
        spec = res.spec_used
        assert spec.sigma == 8.0
        assert spec.step * quadrature._crest_rate(w, spec.sigma) < math.pi

    @pytest.mark.parametrize("name,z", PAST_THE_CAP)
    def test_aliased_crest_in_a_batch_is_the_lone_result(self, name, z):
        # Beside a box point, in one chunk, the line refines past the alias
        # as it does alone: a batch builds its points as a lone call does.
        mate = 3.0 + 4.0j
        outcomes = evaluate_many(name, [z, mate])
        assert [repr(outcome) for outcome in outcomes] == [
            repr(getattr(functions, name)(point)) for point in (z, mate)]


class TestCertifiedLine:
    """A line certified a priori (``quadrature._start_certificate``) costs
    one kernel call per integrand, on the nodes of the level certified
    alone: level 0's at the start step, or level 1's where only that one is."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for name in ("g_integrand", "g_log_integrand"):
            kernel = getattr(integrands, name)

            def spy(z, sigma, t, name=name, kernel=kernel):
                calls.append((name, np.array(t, copy=True)))
                return kernel(z, sigma, t)

            monkeypatch.setattr(integrands, name, spy)
        return calls

    @staticmethod
    def _one_call_per_kernel(calls, res, kernels, step):
        assert res.converged and res.spec_used.step == step
        assert len(calls) == kernels
        assert len({name for name, _ in calls}) == kernels
        lower, upper = res.spec_used.window
        level = np.arange(round(lower / step), round(upper / step) + 1) * step
        for _, nodes in calls:
            # A line point below the axis is integrated at its conjugate,
            # over the window mirrored.
            assert np.array_equal(nodes, level) or np.array_equal(-nodes[::-1], level)
        assert res.evaluations == kernels * level.size

    @pytest.mark.parametrize("fn, z, kernels", [
        (recip_gamma, 10.0, 1), (gamma, -3.3 + 0.7j, 1), (gamma_sin_pi, -6.5 - 2j, 1),
        (digamma, 7.2 + 9j, 2)])
    def test_one_call_per_kernel_on_level_zero(self, fn, z, kernels, monkeypatch):
        calls = self._spy(monkeypatch)
        self._one_call_per_kernel(calls, fn(z), kernels, 0.25)

    @pytest.mark.parametrize("fn, z, kernels", [
        (recip_gamma, 1.761 - 0.2085j, 1), (digamma, 0.288 - 1.018j, 2)])
    def test_one_call_per_kernel_on_level_one(self, fn, z, kernels, monkeypatch):
        # Both lines refined to level 2 by Richardson before the level-1
        # bound; it certifies them at step 0.125.
        calls = self._spy(monkeypatch)
        self._one_call_per_kernel(calls, fn(z), kernels, 0.125)

    def test_direct_line_near_the_branch_point_still_refines(self, monkeypatch):
        # G(-5)'s line at sigma = 0.45 cannot be certified at the start step;
        # Richardson stops it at level 1, within its estimate of 0.
        calls = self._spy(monkeypatch)
        res = G(-5)
        assert [nodes.size for _, nodes in calls] == [117]
        assert repr(res) == (
            "EvalResult(z=(-5+0j), value=(5.220482215724265e-14+0j), "
            "err_estimate=1.120554514765391e-12, spec_used=ContourSpec(sigma=0.4472135954999579, "
            "half_width=7.25, step=0.125, tol=1.1122461535836966e-12, max_refinements=12, "
            "window=(-7.25, 7.25)), converged=True, evaluations=117)")

    @pytest.mark.parametrize("zs", [
        # 39 + 89 + 117 terms on the first pass: summed by fsum.
        [10.0, 1.761 - 0.2085j, -5.0],
        # Past _FSUM_TERMS: binned, one slot for a certified line, two for
        # the Richardson lines' levels 0 and 1.
        [10.0, 1.761 - 0.2085j, -5.0, 7.2 + 9j, 0.288 - 1.018j, -5.3 + 0.2j, 3 + 4j]])
    def test_batch_mixing_levels_keeps_each_lines_lone_bits(self, zs):
        # G's direct lines: certified at level 0 (10, 7.2+9i), at level 1
        # (1.761-0.2085i, 0.288-1.018i, 3+4i), and neither (-5, -5.3+0.2i,
        # near the branch point), which Richardson stops at level 1.
        steps = {10.0: 0.25, 7.2 + 9j: 0.25}
        many = evaluate_many("G", zs)
        for z, res in zip(zs, many):
            assert res == G(z)
            assert res.converged and res.spec_used.step == steps.get(z, 0.125)
            w = complex(z).conjugate() if complex(z).imag < 0 else complex(z)
            sigma = res.spec_used.sigma
            trunc = quadrature.select_truncation(w, sigma, 0.125 * 1e-12)
            level, bound = quadrature._start_certificate(w, sigma, trunc, 0.75e-12, False)
            if z.real < 0:
                assert bound == math.inf
            else:
                assert level == (0 if z in steps else 1) and bound < math.inf

    def test_batch_certifies_the_same_lines(self):
        zs = [10.0, 3 + 4j, 7.2 + 9j, -3.3 + 0.7j, 0.5 + 3j, 2.5 - 1j]
        many = evaluate_many("recip_gamma", zs)
        steps = [res.spec_used.step for res in many]
        assert steps == [recip_gamma(z).spec_used.step for z in zs]
        assert steps.count(0.25) == 3
        for res, z in zip(many, zs):
            alone = recip_gamma(z)
            assert res.evaluations == alone.evaluations
            assert abs(res.value - alone.value) <= res.err_estimate + alone.err_estimate


class TestPinnedBits:
    """One-point results pinned to their repr, which round-trips every float:
    the value, the error estimate, the spec and the flag keep their bits
    whatever the glue around the nodes.  The points: direct, mirrored (Re z
    < 1/2) and conjugated (Im z < 0) lines; digamma's two kernels;
    gamma_sin_pi's line at 1 - z; a point 1e-9 from the zero at -3; the real
    axis; a far-left point past the mirror's reach, whose direct line
    Richardson settles at level 1 (step 0.125); and the node error of a line
    whose nodes leave the double range.  Every other line is certified a
    priori (``_start_certificate``): those at 4.3-0.7i (for -3.3+0.7i),
    7.2+9i and 4-1e-9i at the start step (step 0.25), the others at level 1
    (step 0.125)."""

    # The step each returning entry settles at; each is within its
    # err_estimate of mpmath (test_certified_entries_hold_their_estimate).
    CERTIFIED = {("recip_gamma", -3.3 + 0.7j): 0.25, ("gamma", -3.3 + 0.7j): 0.25,
                 ("gamma", 7.2 + 9j): 0.25, ("recip_gamma", -3 + 1e-9j): 0.25,
                 ("recip_gamma", 3 + 4j): 0.125, ("recip_gamma", 2.5 - 1j): 0.125,
                 ("recip_gamma", 0.5 + 3j): 0.125, ("recip_gamma", 2.0): 0.125,
                 ("gamma_sin_pi", 2.5 + 0.7j): 0.125, ("gamma_sin_pi", -1.5 - 0.5j): 0.125,
                 ("digamma", 3 + 4j): 0.125, ("digamma", -2.5 - 1.5j): 0.125,
                 ("G", 1.5 + 0.5j): 0.125, ("g_tilde", -0.5 + 2j): 0.125}

    PINNED = {
        ("recip_gamma", (3+4j)):
            "EvalResult(z=(3+4j), value=(0.17535481200032257+5.7902091462220175j), "
            "err_estimate=2.8800298223531845e-14, "
            "spec_used=ContourSpec(sigma=1.899603980574412, half_width=6.0, step=0.125, "
            "tol=7.5e-13, max_refinements=12, window=(-4.25, 6.0)), converged=True, "
            "evaluations=83)",
        ("recip_gamma", (2.5-1j)):
            "EvalResult(z=(2.5-1j), value=(0.7036905931010078+0.6427178342636966j), "
            "err_estimate=3.7011659015127845e-15, "
            "spec_used=ContourSpec(sigma=1.455346690225355, half_width=5.5, step=0.125, "
            "tol=7.5e-13, max_refinements=12, window=(-5.5, 5.25)), converged=True, "
            "evaluations=87)",
        ("recip_gamma", (0.5+3j)):
            "EvalResult(z=(0.5+3j), value=(42.2949802096917-13.53981770886549j), "
            "err_estimate=1.733069007638739e-13, "
            "spec_used=ContourSpec(sigma=1.224744871391589, half_width=6.25, step=0.125, "
            "tol=7.5e-13, max_refinements=12, window=(-4.75, 6.25)), converged=True, "
            "evaluations=89)",
        ("recip_gamma", (-3.3+0.7j)):
            "EvalResult(z=(-3.3+0.7j), value=(0.164907454017882-11.96832148346j), "
            "err_estimate=1.173770617337385e-11, "
            "spec_used=ContourSpec(sigma=1.9575412916810122, half_width=5.25, step=0.25, "
            "tol=7.5e-13, max_refinements=12, window=(-5.25, 5.0)), converged=True, "
            "evaluations=42)",
        ("gamma", (-3.3+0.7j)):
            "EvalResult(z=(-3.3+0.7j), value=(0.0011510424761156375+0.08353804548929578j), "
            "err_estimate=8.19283667812023e-14, "
            "spec_used=ContourSpec(sigma=1.9575412916810122, half_width=5.25, step=0.25, "
            "tol=7.5e-13, max_refinements=12, window=(-5.25, 5.0)), converged=True, "
            "evaluations=42)",
        ("gamma", (7.2+9j)):
            "EvalResult(z=(7.2+9j), value=(7.586533911190442+1.142901746979259j), "
            "err_estimate=8.675109474618714e-14, "
            "spec_used=ContourSpec(sigma=2.9933318644130673, half_width=6.25, step=0.25, "
            "tol=7.5e-13, max_refinements=12, window=(-3.25, 6.25)), converged=True, "
            "evaluations=39)",
        ("gamma_sin_pi", (2.5+0.7j)):
            "EvalResult(z=(2.5+0.7j), value=(4.718037225199027+2.609998908357085j), "
            "err_estimate=3.079214639681343e-14, "
            "spec_used=ContourSpec(sigma=1.4350891975835003, half_width=5.5, step=0.125, "
            "tol=7.5e-13, max_refinements=12, window=(-5.25, 5.5)), converged=True, "
            "evaluations=87)",
        ("gamma_sin_pi", (-1.5-0.5j)):
            "EvalResult(z=(-1.5-0.5j), value=(2.3534003050421473-0.8762193471418795j), "
            "err_estimate=9.514374517444359e-15, "
            "spec_used=ContourSpec(sigma=1.425053124063947, half_width=5.5, step=0.125, "
            "tol=7.5e-13, max_refinements=12, window=(-5.25, 5.5)), converged=True, "
            "evaluations=87)",
        ("digamma", (3+4j)):
            "EvalResult(z=(3+4j), value=(1.5503598173334106+1.0105022091860445j), "
            "err_estimate=1.8226054225608794e-14, "
            "spec_used=ContourSpec(sigma=1.899603980574412, half_width=6.25, step=0.125, "
            "tol=7.5e-13, max_refinements=12, window=(-4.5, 6.25)), converged=True, "
            "evaluations=174)",
        ("digamma", (-2.5-1.5j)):
            "EvalResult(z=(-2.5-1.5j), value=(1.212420100466981-2.680346743809672j), "
            "err_estimate=1.7962712796156102e-14, "
            "spec_used=ContourSpec(sigma=1.782428394950227, half_width=5.75, step=0.125, "
            "tol=7.5e-13, max_refinements=12, window=(-5.0, 5.75)), converged=True, "
            "evaluations=174)",
        ("G", (1.5+0.5j)):
            "EvalResult(z=(1.5+0.5j), value=(3.96821013113416-0.13762886819174566j), "
            "err_estimate=1.480876227591066e-14, "
            "spec_used=ContourSpec(sigma=1.0290855136357462, half_width=5.75, step=0.125, "
            "tol=7.5e-13, max_refinements=12, window=(-5.5, 5.75)), converged=True, "
            "evaluations=91)",
        ("g_tilde", (-0.5+2j)):
            "EvalResult(z=(-0.5+2j), value=(1.1256252241723124+5.86504668211665j), "
            "err_estimate=3.8256867541529114e-14, spec_used=ContourSpec(sigma=1.0, "
            "half_width=6.0, step=0.125, tol=7.5e-13, max_refinements=12, window=(-5.5, "
            "6.0)), converged=True, evaluations=93)",
        ("recip_gamma", (-3+1e-09j)):
            "EvalResult(z=(-3+1e-09j), value=(-7.53670598862622e-18-5.999999999999895e-09j), "
            "err_estimate=2.510540441281441e-21, "
            "spec_used=ContourSpec(sigma=1.8708286933869707, half_width=5.25, step=0.25, "
            "tol=7.5e-13, max_refinements=12, window=(-5.25, 5.25)), converged=True, "
            "evaluations=43)",
        ("recip_gamma", (-120.3-0.5j)):
            "EvalResult(z=(-120.3-0.5j), value=(2.15860260106649e+199-3.4113358326189744e+198j), "
            "err_estimate=4.536485767760719e+186, "
            "spec_used=ContourSpec(sigma=0.1, half_width=29.0, step=0.125, "
            "tol=1.4251790361111729e+187, max_refinements=12, window=(-29.0, 29.0)), "
            "converged=True, evaluations=465)",
        ("recip_gamma", (0.5+400j)):
            "QuadratureNodeError: integrand returned a non-finite value at node t=13.0",
        ("recip_gamma", 2.0):
            "EvalResult(z=(2+0j), value=(1.0000000000000002+0j), "
            "err_estimate=3.742883299839828e-15, "
            "spec_used=ContourSpec(sigma=1.224744871391589, half_width=5.5, step=0.125, "
            "tol=7.5e-13, max_refinements=12, window=(-5.5, 5.5)), converged=True, "
            "evaluations=89)",
    }

    @pytest.mark.parametrize("name, z", list(PINNED), ids=[f"{n}({z})" for n, z in PINNED])
    def test_repr(self, name, z):
        fn = getattr(functions, name)
        try:
            outcome = repr(fn(z))
        except QuadratureNodeError as exc:
            outcome = f"QuadratureNodeError: {exc}"
        assert outcome == self.PINNED[name, z]

    def test_certified_entries_hold_their_estimate(self):
        mpmath = pytest.importorskip("mpmath")
        # All but the far-left line and the node error.
        assert len(self.CERTIFIED) == len(self.PINNED) - 2
        for (name, z), step in self.CERTIFIED.items():
            res = getattr(functions, name)(z)
            assert res.spec_used.step == step
            with mpmath.workdps(30):
                w = mpmath.mpc(z.real, z.imag)
                want = complex({
                    "G": lambda: mpmath.pi * mpmath.rgamma(w),
                    "g_tilde": lambda: mpmath.pi * mpmath.rgamma((w + 1) / 2),
                    "recip_gamma": lambda: mpmath.rgamma(w),
                    "gamma": lambda: mpmath.gamma(w),
                    "gamma_sin_pi": lambda: mpmath.pi * mpmath.rgamma(1 - w),
                    "digamma": lambda: mpmath.digamma(w),
                }[name]())
            assert abs(res.value - want) <= res.err_estimate, (name, z)

    def test_euler_mascheroni(self):
        # Its line at z = 1 is certified at level 1; the value is within its
        # err_estimate of Euler's constant.
        res = euler_mascheroni()
        assert repr(res) == (
            "EvalResult(z=(1+0j), value=(0.5772156649015329-0j), "
            "err_estimate=4.916013094324326e-15, spec_used=ContourSpec(sigma=1.0, "
            "half_width=5.75, step=0.125, tol=7.5e-13, max_refinements=12, "
            "window=(-5.75, 5.75)), converged=True, evaluations=93)")
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            assert abs(res.value - complex(mpmath.euler)) <= res.err_estimate


def test_malformed_point_raises_domain_error():
    with pytest.raises(DomainError, match="complex number"):
        G(None)
    with pytest.raises(DomainError, match="complex number"):
        laplace_recip_gamma("x")


def test_int_beyond_double_range_raises_domain_error():
    # 10**5000 is past the digits an int's repr allows.
    for huge in (10**400, 10**5000):
        with pytest.raises(DomainError, match="double range"):
            G(huge)
        with pytest.raises(DomainError, match="double range"):
            laplace_recip_gamma(huge)
    good, bad = evaluate_many("G", [1, 10**400])
    assert good == G(1)
    assert isinstance(bad, DomainError)


def test_non_integer_max_refinements_is_rejected():
    for bad in (2.5, math.inf, -math.inf, math.nan, None):
        for fn, args in ((G, (1,)), (euler_mascheroni, ()), (laplace_recip_gamma, (0.5,))):
            with pytest.raises(DomainError):
                fn(*args, max_refinements=bad)
        outcomes = evaluate_many("G", [1, 2], max_refinements=bad)
        assert all(isinstance(outcome, DomainError) for outcome in outcomes)


@pytest.mark.parametrize("bad", [{"tol": "x"}, {"tol": None}, {"sigma": "x"},
                                 {"sigma": 1j}])
def test_non_numeric_tol_or_sigma_is_a_domain_error(bad):
    calls = [(fn, (1.5,)) for fn in (G, g_tilde, recip_gamma, gamma, gamma_sin_pi,
                                      digamma, laplace_recip_gamma)]
    for fn, args in calls + [(euler_mascheroni, ())]:
        with pytest.raises(DomainError):
            fn(*args, **bad)
    outcomes = evaluate_many("digamma", [1, 2.5], **bad)
    assert all(isinstance(outcome, DomainError) for outcome in outcomes)


def test_one_contour_spec_per_line_point(monkeypatch):
    # The options are checked once per call; a G-line point builds only the
    # spec it reports.
    built = []
    post_init = ContourSpec.__post_init__

    def counting(spec):
        built.append(spec)
        post_init(spec)

    monkeypatch.setattr(ContourSpec, "__post_init__", counting)
    alone = G(0.5 + 3j)
    assert built == [alone.spec_used]
    built.clear()
    many = evaluate_many("recip_gamma", [1, 2 + 1j, -3.5, 0.5 + 20j, "x"])
    assert built == [out.spec_used for out in many[:4]]
    built.clear()
    ratio = digamma(2.5 - 1j)
    assert built == [ratio.spec_used]


def test_readme_examples():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    failures, tried = doctest.testfile(readme, module_relative=False,
                                       optionflags=doctest.ELLIPSIS)
    assert tried > 0 and failures == 0


def test_public_keyword_surface():
    """The options the public functions take; adding one is a visible change."""
    surface = {
        G: ["z", "sigma", "tol", "max_refinements"],
        digamma: ["z", "sigma", "tol", "max_refinements"],
        euler_mascheroni: ["sigma", "tol", "max_refinements"],
        gamma: ["z", "kwargs"],
        laplace_recip_gamma: ["z", "sigma", "tol", "max_refinements"],
        evaluate_many: ["function", "zs", "sigma", "tol", "max_refinements"],
    }
    for fn, names in surface.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__
