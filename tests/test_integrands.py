"""Pointwise integrand kernels: worked values, symmetries, domain checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unigamma import (
    DomainError,
    g_integrand,
    g_log_integrand,
    laplace_integrand,
    principal_power,
)

E = math.e
EPS = math.ulp(1.0)


class TestPrincipalPower:
    def test_base_one_is_one(self):
        assert principal_power(1.0, -3.7 + 2j) == 1.0 + 0j

    def test_imaginary_square(self):
        # (1+i)^2 = 2i, well inside the right half-plane.
        assert principal_power(1 + 1j, 2) == pytest.approx(2j, abs=1e-15)

    def test_complex_exponent_reference_value(self):
        # 2^(-1+i) = e^{(-1+i) ln 2}, independently computed.
        want = 0.38461945068198605 + 0.3194806381568174j
        assert principal_power(2.0, -1 + 1j) == pytest.approx(want, rel=1e-15)

    def test_rejects_left_half_plane_base(self):
        with pytest.raises(DomainError):
            principal_power(-1.0, 0.5)
        with pytest.raises(DomainError):
            principal_power(1j, 2.0)

    @given(
        st.floats(0.05, 50),
        st.floats(-50, 50),
        st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
    )
    def test_inverse_product(self, sigma, t, a):
        """w^a * w^(-a) should reproduce 1 to a few ulp."""
        w = complex(sigma, t)
        prod = principal_power(w, a) * principal_power(w, -a)
        assert abs(prod - 1.0) <= 4 * math.ulp(1.0) * (1 + abs(a))


class TestGIntegrand:
    def test_at_origin_of_t(self):
        # z = 1, sigma = 1, t = 0: w = 1, w^{-1} e^{1} = e.
        assert g_integrand(1.0, 1.0, 0.0) == pytest.approx(E, rel=1e-15)

    def test_exponent_zero(self):
        # z = 1/2 kills the power; only e^{w^2} remains.
        want = cmath.exp((1 + 1j) ** 2)
        assert g_integrand(0.5, 1.0, 1.0) == pytest.approx(want, rel=1e-14)

    def test_reference_value(self):
        want = -1.325444263372824 + 0.4931505902785393j
        assert g_integrand(0j, 1.0, 1.0) == pytest.approx(want, rel=1e-14)

    def test_array_matches_scalar(self):
        ts = np.linspace(-3, 3, 11)
        arr = g_integrand(0.3 - 2j, 1.5, ts)
        assert arr.shape == ts.shape
        for tk, fk in zip(ts, arr):
            assert complex(fk) == g_integrand(0.3 - 2j, 1.5, float(tk))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            g_integrand(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            g_integrand(1.0, -2.0, 0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            g_integrand(complex("nan"), 1.0, 0.0)
        with pytest.raises(DomainError):
            g_integrand(1.0, 1.0, float("inf"))

    @given(
        st.complex_numbers(max_magnitude=6, allow_nan=False, allow_infinity=False),
        st.floats(0.1, 4),
        st.floats(-12, 12),
    )
    @settings(max_examples=200)
    def test_conjugate_symmetry(self, z, sigma, t):
        """f(conj z, sigma, -t) = conj f(z, sigma, t), exactly as computed."""
        a = g_integrand(z, sigma, t)
        b = g_integrand(z.conjugate(), sigma, -t)
        assert b == a.conjugate()

    @given(st.floats(-6, 6), st.floats(0.1, 3), st.floats(-12, 12))
    def test_magnitude_bound(self, x, sigma, t):
        """|f| <= |w|^{1-2 Re z} e^{sigma^2 - t^2} (equality for real z)."""
        val = abs(g_integrand(complex(x, 0), sigma, t))
        w = math.hypot(sigma, t)
        bound = math.exp((1 - 2 * x) * math.log(w) + sigma * sigma - t * t)
        assert val <= bound * (1 + 1e-12) + 1e-300


class TestGLogIntegrand:
    def test_reference_value(self):
        # z = 1, sigma = 2, t = 0: e^{4} * 2 ln 2 / 2... the weight is
        # 2 Log(2) on top of w^{-1} e^{w^2} = e^4 / 2.
        want = math.exp(4.0) * math.log(2.0)
        assert g_log_integrand(1.0, 2.0, 0.0) == pytest.approx(want, rel=1e-14)

    def test_zero_weight_at_unit_w(self):
        # w = 1 has Log w = 0, so the kernel vanishes for any z.
        assert g_log_integrand(0.25 + 5j, 1.0, 0.0) == 0

    @given(
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        st.floats(0.1, 3),
        st.floats(-10, 10),
    )
    @example(0j, 0.99999, 0.0)
    def test_is_log_weighted_g(self, z, sigma, t):
        """The kernel is g_integrand times 2 Log w.

        Near |w| = 1 the weight is ~0 while rounding sigma^2 + t^2 already
        costs an ulp of |base|, so the bound has an absolute part in |base|.
        """
        mpmath = pytest.importorskip("mpmath")
        base = g_integrand(z, sigma, t)
        with mpmath.workdps(30):
            weight = complex(2 * mpmath.log(mpmath.mpc(sigma, t)))
        got = g_log_integrand(z, sigma, t)
        want = base * weight
        assert abs(got - want) <= 1e-13 * abs(want) + 4 * EPS * abs(base)


class TestLaplaceIntegrand:
    def test_at_origin_of_t(self):
        # z = 1, sigma = 1, t = 0: w^{-1} e^{w} = e.
        assert laplace_integrand(1.0, 1.0, 0.0) == pytest.approx(E, rel=1e-15)

    def test_reference_value(self):
        # (1 + i pi)^{-1} e^{1 + i pi} = -e (1 - i pi) / (1 + pi^2).
        want = -0.25008102670108373 + 0.7856527162863176j
        assert laplace_integrand(1.0, 1.0, math.pi) == pytest.approx(want, rel=1e-14)

    def test_exponent_zero(self):
        want = cmath.exp(1 + 1j)
        assert laplace_integrand(0j, 1.0, 1.0) == pytest.approx(want, rel=1e-14)

    @given(
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        st.floats(0.1, 3),
        st.floats(-40, 40),
    )
    @settings(max_examples=200)
    def test_conjugate_symmetry(self, z, sigma, t):
        a = laplace_integrand(z, sigma, t)
        b = laplace_integrand(z.conjugate(), sigma, -t)
        assert b == a.conjugate()

    def test_no_gaussian_decay(self):
        """The Laplace kernel decays only algebraically in t."""
        slow = abs(laplace_integrand(2.0, 1.0, 50.0))
        fast = abs(g_integrand(2.0, 1.0, 50.0))
        assert slow > 1e-8
        assert fast < 1e-300 or fast < slow * 1e-100
