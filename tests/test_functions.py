"""Public special-function API: worked values, identities, pole behavior."""

import doctest
import inspect
import math
import os
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unigamma import (
    G,
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
from unigamma.functions import _TAIL_SHARE, _line_spec

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
        assert G(0.5 + 3j, max_refinements=1).converged is False


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
                assert err <= 1e-9 * abs(want), z
            if z in self.DESIGN:
                assert res.converged, z

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
    ])
    def test_rejects_bad_tol_and_sigma(self, kwargs):
        with pytest.raises(DomainError):
            laplace_recip_gamma(1.5, **kwargs)

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
        mpmath = pytest.importorskip("mpmath")
        z = -15 + 4e-8j
        res = recip_gamma(z)
        want = self._exact(mpmath, mpmath.rgamma, z)
        assert not res.converged
        assert abs(res.value - want) > 1e-9 * abs(want)


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

    def test_both_tails_within_the_tail_share(self):
        # Each side gets half the tail share, so tails and quadrature
        # together stay within tol.
        rng = random.Random(1417)
        for _ in range(60):
            z = complex(rng.uniform(-15.0, 15.0), rng.uniform(-100.0, 100.0))
            tol = 10.0 ** rng.uniform(-14.0, -4.0)
            for log_weight in (False, True):
                spec, trunc = _line_spec(z, log_weight, None, tol, 12)
                assert trunc.tail <= _TAIL_SHARE * tol * (1.0 + 1e-12), (z, tol)
                assert spec.tol + trunc.tail <= tol * (1.0 + 1e-12), (z, tol)

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
    def _one_point(fn, z):
        try:
            return fn(z)
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
            assert many.converged == one.converged, z
            assert many.evaluations == one.evaluations, z
            assert many.spec_used == one.spec_used, z
            assert abs(many.value - one.value) <= one.err_estimate, z

    def test_failing_point_leaves_chunk_mates_bit_identical(self):
        # Re z away from 0 and +-1.5, where the batched kernel layout rounds
        # like the one-point one (see unigamma.integrands).
        mates = [0.3 + 2j, -4.7 + 1.1j, 5.2 - 3.3j, 2.5 + 0.5j, -9.1 - 7.4j]
        outcomes = evaluate_many("recip_gamma", mates[:2] + [-150.3] + mates[2:])
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
            outcomes = evaluate_many("recip_gamma", [-150.3, -151.7])
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
