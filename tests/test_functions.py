"""Public special-function API: worked values, identities, pole behavior."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unigamma import (
    G,
    DomainError,
    PoleError,
    default_sigma,
    digamma,
    euler_mascheroni,
    g_tilde,
    gamma,
    gamma_sin_pi,
    laplace_recip_gamma,
    recip_gamma,
)

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
        # High up the imaginary axis the oscillation outruns double
        # precision; the flag must go False rather than the value silently
        # degrading.
        res = G(0.5 + 40j)
        assert not res.converged


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
        assert gamma_sin_pi(z).value == G(1 - z).value


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
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2506)
        sample = [complex(rng.uniform(0.05, 12.0), rng.uniform(-12.0, 12.0))
                  for _ in range(40)]
        for z in sample + list(self.DESIGN):
            res = laplace_recip_gamma(z)
            with mpmath.workdps(30):
                want = complex(mpmath.rgamma(mpmath.mpc(z.real, z.imag)))
            err = abs(res.value - want)
            if res.converged:
                assert err <= res.err_estimate, z
            if z in self.DESIGN:
                assert res.converged and err <= 1e-9 * abs(want), z

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
