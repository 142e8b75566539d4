"""Trapezoid engine, truncation selection, and contour-segment integrals."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unigamma import (
    TRUNCATION_CAP,
    ContourSpec,
    DomainError,
    QuadratureNodeError,
    SegmentPath,
    contour_loop,
    default_sigma,
    g_integrand,
    g_log_integrand,
    integrate_segment,
    select_truncation,
    tail_bound,
    trapezoid_line,
)
from unigamma.quadrature import (_FSUM_TERMS, _UNIT, _Grid, _exact_sums, _line_grid,
                                 _only, _trapezoid_joint)

SQRT_PI = math.sqrt(math.pi)


def _plain_trapezoid(f, half_width: float, step: float) -> complex:
    """The trapezoid sum at ``step`` over [-half_width, half_width], by fsum."""
    n = round(half_width / step)
    values = f(np.arange(-n, n + 1, dtype=float) * step)
    values[0] *= 0.5
    values[-1] *= 0.5
    return complex(step * math.fsum(values.real.tolist()),
                   step * math.fsum(values.imag.tolist()))


def _fsum_hex(terms) -> str:
    try:
        return math.fsum(terms).hex()
    except OverflowError:
        return "overflow"


def _rounded_hex(total: int) -> str:
    try:
        return (total / _UNIT).hex()
    except OverflowError:
        return "overflow"


# Below 2^1015 in magnitude, 60 terms cannot overflow fsum's partial sums.
_TERM = st.floats(min_value=-2.0 ** 1015, max_value=2.0 ** 1015)
_SLOTS = 4


class TestExactSums:
    @given(st.lists(st.tuples(st.integers(0, _SLOTS - 1), _TERM, _TERM),
                    min_size=1, max_size=60))
    @example([(0, 5e-324, -5e-324), (1, 5e-324, 5e-324), (1, 2.5e-308, -1e-310)])
    @example([(0, 1e300, 3.5), (2, -1e300, -3.5), (2, 1e300, 7.0), (0, -1e300, 1.0)])
    # A bin of over 2^21 terms, whose exact sum is the rounding error of
    # the last term; one float accumulator would lose it.
    @example([(0, 1 - 2.0 ** -53, 0.5)] * (2 ** 21 + 1)
             + [(0, -(2 ** 21 + 1) * (1 - 2.0 ** -53), 0.5)])
    @example([(1, 1e308, -1.5), (1, 1e308, 2.0)])
    @settings(max_examples=100, deadline=None)
    def test_equals_fsum_bit_for_bit(self, terms):
        slots = np.array([slot for slot, _, _ in terms])
        values = np.empty(len(terms), dtype=complex)
        values.real = [re for _, re, _ in terms]
        values.imag = [im for _, _, im in terms]
        sums = _exact_sums(values, slots, _SLOTS)
        for slot in range(_SLOTS):
            mine = values[slots == slot]
            assert _rounded_hex(sums[2 * slot]) == _fsum_hex(mine.real.tolist())
            assert _rounded_hex(sums[2 * slot + 1]) == _fsum_hex(mine.imag.tolist())
        assert _exact_sums(values[slots == 0]) == sums[:2]


class TestContourSpec:
    def test_defaults_are_valid(self):
        spec = ContourSpec()
        assert spec.sigma == 1.0
        assert spec.half_width >= spec.sigma
        assert spec.step <= spec.half_width
        assert spec.max_refinements >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"sigma": 8.5},
            {"sigma": float("nan")},
            {"half_width": 0.5, "sigma": 1.0},
            {"step": 9.0},
            {"step": 0.0},
            {"tol": 0.0},
            {"tol": -1e-9},
            {"max_refinements": 0},
            {"max_refinements": float("inf")},
            {"max_refinements": float("nan")},
            {"max_refinements": None},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            ContourSpec(**kwargs)

    @pytest.mark.parametrize("window", [(-7.0, 5.0), (5.0, -5.0), (1.0, 1.1),
                                        (math.nan, 5.0)])
    def test_rejects_bad_window(self, window):
        with pytest.raises(DomainError):
            ContourSpec(half_width=6.0, step=0.25, window=window)

    def test_window_sets_the_line_grid(self):
        grid = _line_grid(ContourSpec(half_width=6.0, step=0.25, window=(-2.5, 6.0)))
        assert (grid.origin, grid.k_lo, grid.k_hi, grid.step) == (0.0, -10, 24, 0.25)

    def test_frozen(self):
        spec = ContourSpec()
        with pytest.raises(AttributeError):
            spec.sigma = 2.0


class TestTailBound:
    def test_decreases_in_half_width(self):
        bounds = [tail_bound(0.5, 1.0, T) for T in (4.0, 5.0, 6.0, 8.0)]
        assert all(b > 0 for b in bounds)
        assert bounds == sorted(bounds, reverse=True)

    def test_no_overflow_far_left(self):
        # p = (1 - 2 Re z)/2 is large; a naive (sigma^2+T^2)^p overflows.
        b = tail_bound(-400.0, 1.0, 30.0)
        assert math.isfinite(b) or b == math.inf

    def test_log_weight_costs_more(self):
        assert tail_bound(1.0, 1.0, 6.0, log_weight=True) > tail_bound(1.0, 1.0, 6.0)

    @pytest.mark.parametrize("args", [
        (1, 1, -math.inf), (1, math.inf, 5), (1, 1, math.inf), (1, 1, math.nan),
        (1, math.nan, 5), (1, -1, 5), (1, 0.0, 5), (1, 8.5, 5),
        (math.nan, 1, 5), (complex(1, math.inf), 1, 5),
    ])
    def test_rejects_what_select_truncation_rejects(self, args):
        with pytest.raises(DomainError):
            tail_bound(*args)

    def test_every_finite_end_is_an_end(self):
        # A window's ends may sit at t <= 0 on either side; the bound on a
        # tail that holds the crest is at least the bump's half.
        assert tail_bound(0.5, 1.0, 0.0) > 0.5 * math.e * SQRT_PI * 0.99
        assert tail_bound(0.5, 1.0, -2.0) > tail_bound(0.5, 1.0, 0.0)
        assert tail_bound(0.5, 1.0, 2.0, lower=True) == tail_bound(0.5, 1.0, -2.0)
        # |f(-t)| at z is |f(t)| at conj(z).
        assert (tail_bound(2 + 5j, 2.0, -3.5, lower=True)
                == tail_bound(2 - 5j, 2.0, 3.5))

    @staticmethod
    def _beyond(z, sigma, end, lower, log_weight):
        """The integral of |f| beyond ``end``, Gauss-Legendre on 0.25-wide panels."""
        nodes, weights = np.polynomial.legendre.leggauss(24)
        panels = 0.25 * np.arange(96)
        starts = end - 24.0 + panels if lower else end + panels
        t = (starts[:, None] + 0.125 * (nodes + 1.0)).ravel()
        kernel = g_log_integrand if log_weight else g_integrand
        with np.errstate(all="ignore"):
            values = np.abs(kernel(z, sigma, t))
        return 0.125 * float(np.sum(values * np.tile(weights, 96)))

    def test_each_side_bounds_its_tail(self):
        """Each side's bound is at least the integral of |f| beyond its end.

        Seeded points in the box and at |Im z| in [15, 100], both kernels,
        at the window's ends and at ends across the integrand's crest.
        """
        rng = random.Random(1414)
        checked = 0
        for k in range(48):
            if k % 2:
                z = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
            else:
                z = complex(rng.uniform(-15, 15),
                            rng.choice((-1, 1)) * rng.uniform(15, 100))
            sigma = default_sigma(z) if k % 3 else rng.uniform(0.3, 4.0)
            log_weight = k % 4 >= 2
            window = select_truncation(z, sigma, 1e-13, log_weight=log_weight)
            ends = [(window.upper, False), (window.lower, True),
                    (window.upper - 1.5, False), (window.lower + 1.5, True),
                    (rng.uniform(-4.0, 4.0), rng.random() < 0.5)]
            for end, lower in ends:
                bound = tail_bound(z, sigma, end, lower=lower, log_weight=log_weight)
                actual = self._beyond(z, sigma, end, lower, log_weight)
                if not math.isfinite(actual):
                    continue
                assert actual <= bound * (1.0 + 1e-9), (z, sigma, end, lower, log_weight)
                checked += 1
        assert checked > 200


class TestSelectTruncation:
    def test_balances_budget_exactly(self):
        # Presenting the tail bound at T = 6 as the budget must return 6; at
        # z = 0.5 that bound lies below the relative cap, so tol binds.
        budget = tail_bound(0.5, 1.0, 6.0)
        t = select_truncation(0.5, 1.0, budget)
        assert t.half_width == 6.0
        assert not t.capped

    def test_frozen_values(self):
        assert select_truncation(0.5, 1.0, 1e-12).half_width == 5.75
        assert select_truncation(-5, 1.0, 1e-12).half_width == 7.25
        assert select_truncation(0.5 + 10j, 1.0, 1e-12).half_width == 7.5
        assert select_truncation(1, 1.0, 1e-12, log_weight=True).half_width == 5.75
        # Off the real axis the window leans toward the saddle's side.
        window = select_truncation(0.5 + 10j, 1.0, 1e-12)
        assert (window.lower, window.upper) == (-2.25, 7.5)
        mirror = select_truncation(0.5 - 10j, 1.0, 1e-12)
        assert (mirror.lower, mirror.upper) == (-7.5, 2.25)
        assert mirror.tail == window.tail

    def test_relative_budget(self):
        # Each tail's budget is at most 5e-16 times the magnitude at the
        # saddle height: e at z = 0.5, sigma = 1, far below tol = 1e-12.
        window = select_truncation(0.5, 1.0, 1e-12)
        assert tail_bound(0.5, 1.0, window.upper) <= 5e-16 * math.e
        assert tail_bound(0.5, 1.0, window.upper - 0.25) > 5e-16 * math.e
        assert select_truncation(0.5, 1.0, 1.0) == window
        assert select_truncation(0.5, 1.0, 1e-20).upper > window.upper

    def test_each_end_is_the_lowest_that_meets(self):
        """One grid step in from either end, the tail bound misses the budget.

        Seeded points in the box and at |Im z| in [15, 100], both kernels,
        default and forced sigma; the step in is checked where it stays on
        the end's side of the crest Im sqrt(z - 1/2), which every window holds.
        """
        rng = random.Random(1415)
        checked = 0
        for k in range(120):
            if k % 2:
                z = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
            else:
                z = complex(rng.uniform(-15, 15),
                            rng.choice((-1, 1)) * rng.uniform(15, 100))
            sigma = default_sigma(z) if k % 3 else rng.uniform(0.3, 4.0)
            log_weight = k % 4 >= 2
            tol = 10.0 ** rng.uniform(-15, -5)
            window = select_truncation(z, sigma, tol, log_weight=log_weight)
            if window.capped:
                continue
            crest = cmath.sqrt(z - 0.5).imag
            budget = min(tol, 5e-16 * abs(g_integrand(z, sigma, crest)))
            for end, lower in ((window.upper, False), (window.lower, True)):
                bound = tail_bound(z, sigma, end, lower=lower, log_weight=log_weight)
                assert bound <= budget * (1.0 + 1e-9), (z, sigma, tol, end)
                inner = end + 0.25 if lower else end - 0.25
                if (inner < crest) if lower else (inner > crest):
                    assert tail_bound(z, sigma, inner, lower=lower,
                                      log_weight=log_weight) > budget * (1.0 - 1e-9), (
                        z, sigma, tol, end)
                    checked += 1
        assert checked > 150

    def test_tiny_sigma(self):
        # A sigma whose square is no normal double is refused; just above
        # it, bounds past the double range steer the search, which still
        # returns a window.
        for z in (10j, 2, 0.5 + 3j):
            with pytest.raises(DomainError):
                select_truncation(z, 1e-300, 1e-12)
            with pytest.raises(DomainError):
                tail_bound(z, 1e-160, 1.0)
        assert tail_bound(10j, 2.0 ** -511, -1.0) == math.inf
        for z in (10j, -3 + 1e5j, 0.3 + 100j):
            window = select_truncation(z, 2.0 ** -511, 1e-13, log_weight=True)
            assert window.lower < window.upper

    def test_bounds_past_the_double_range(self):
        # Far left, log bounds reach inf; the search bisects past them and
        # flags the window it cannot close.
        window = select_truncation(-1e250 + 3j, 1.0, 1e-12)
        assert window.capped and window.tail == math.inf

    def test_meets_budget(self):
        for z, tol in [(0.5, 1e-10), (-8, 1e-13), (2 + 5j, 1e-12)]:
            t = select_truncation(z, 1.0, tol)
            assert tail_bound(z, 1.0, t.half_width) <= tol

    def test_monotone_in_tol(self):
        widths = [
            select_truncation(0.5, 1.0, 10.0 ** -k).half_width for k in (6, 9, 12, 15)
        ]
        assert widths == sorted(widths)

    def test_respects_minimum(self):
        # However loose the budget, the window holds the saddle height
        # Im sqrt(z - 1/2) inside it.
        for z, tol in [(0.5, 1e-3), (0.5, 1e30), (0.5 + 2j, 1e30), (0.5 - 2j, 1e30)]:
            t = select_truncation(z, 2.0, tol)
            height = cmath.sqrt(z - 0.5).imag
            assert t.lower < height < t.upper, (z, tol)
            assert t.upper - t.lower >= 0.25

    def test_caps_when_unreachable(self):
        t = select_truncation(-4000, 1.0, 1e-12)
        assert t.capped
        assert t.half_width == TRUNCATION_CAP


class TestTrapezoidLine:
    def test_gaussian(self):
        spec = ContourSpec(sigma=1.0, half_width=7.0, step=0.5, tol=1e-13)
        res = trapezoid_line(lambda t: np.exp(-(t * t)), spec)
        assert res.converged
        assert abs(res.value - SQRT_PI) <= 1e-13
        assert res.err_estimate <= res.tol_effective
        assert res.evaluations >= 3

    def test_odd_integrand_cancels_exactly(self):
        spec = ContourSpec(half_width=6.0, step=0.25, tol=1e-12)
        res = trapezoid_line(lambda t: t * np.exp(-(t * t)), spec)
        # Symmetric nodes + exactly rounded summation: the zero is exact.
        assert res.value == 0

    def test_g_at_one(self):
        spec = ContourSpec(sigma=1.0, half_width=6.0, step=0.25, tol=1e-12)
        res = trapezoid_line(lambda t: g_integrand(1.0, 1.0, t), spec)
        assert res.converged
        assert res.value == pytest.approx(math.pi, abs=5e-13)

    def test_step_used_divides_initial(self):
        spec = ContourSpec(half_width=6.0, step=0.25, tol=1e-13)
        res = trapezoid_line(lambda t: np.exp(-(t * t)) / (1 + t * t), spec)
        ratio = spec.step / res.step_used
        assert ratio == 2 ** round(math.log2(ratio))

    def test_rejects_nonfinite_nodes(self):
        spec = ContourSpec(half_width=6.0, step=0.5, tol=1e-9, max_refinements=2)
        with np.errstate(divide="ignore"), pytest.raises(QuadratureNodeError):
            trapezoid_line(lambda t: np.exp(-(t * t)) / t, spec)

    def test_unconverged_flag_when_starved(self):
        spec = ContourSpec(half_width=6.0, step=3.0, tol=1e-14, max_refinements=1)
        res = trapezoid_line(lambda t: np.exp(-(t * t)) * np.cos(5 * t), spec)
        assert not res.converged

    def test_each_node_is_evaluated_once(self):
        seen = []

        def recording(t):
            seen.extend(t.tolist())
            return np.exp(-(t * t)) * np.cos(5 * t)

        spec = ContourSpec(half_width=6.0, step=1.0, tol=1e-13)
        res = trapezoid_line(recording, spec)
        assert res.step_used < spec.step / 4
        assert len(seen) == len(set(seen)) == res.evaluations

    def test_equals_plain_trapezoid_at_final_step(self):
        def f(t):
            return g_integrand(0.5 + 3j, 1.0, t)

        spec = ContourSpec(half_width=7.0, step=1.0, tol=1e-13)
        res = trapezoid_line(f, spec)
        n = round(spec.half_width / res.step_used)
        values = f(np.arange(-n, n + 1, dtype=float) * res.step_used)
        values[0] *= 0.5
        values[-1] *= 0.5
        plain = complex(res.step_used * math.fsum(values.real.tolist()),
                        res.step_used * math.fsum(values.imag.tolist()))
        assert res.step_used < spec.step / 4
        assert res.value == plain

    def test_equals_plain_trapezoid_across_the_cutover(self):
        # Levels of 61, 121 and 241 nodes go to fsum; 481 bins the kept
        # values, 961 bins only its new nodes.
        def f(t):
            return g_integrand(0.5 + 3j, 1.0, t)

        spec = ContourSpec(half_width=30.0, step=1.0, tol=1e-13)
        res = trapezoid_line(f, spec)
        assert 2 * round(spec.half_width / spec.step) + 1 < _FSUM_TERMS
        assert res.evaluations > 2 * _FSUM_TERMS
        assert res.value == _plain_trapezoid(f, spec.half_width, res.step_used)

    def test_many_points_equal_plain_trapezoid(self):
        # One chunk: every level is binned, each point in its own slot, and
        # the point whose kernel fails at t = 0 stays out of the sums.
        widths = np.array([0.3, 1.0, 2.0, 0.0, 5.0])
        freqs = np.array([1.0, 3.0, 0.5, 1.0, 7.0])

        def f(t, rows):
            a, b = widths[rows], freqs[rows]
            return np.exp(-a * t * t + 1j * b * t) / np.where(a == 0.0, t, 1.0)

        specs = [ContourSpec(half_width=8.0, step=0.5, tol=1e-13)] * len(widths)
        outcomes = _trapezoid_joint((f,), specs)
        assert isinstance(outcomes[3], QuadratureNodeError)
        for p in (0, 1, 2, 4):
            (res,) = outcomes[p]
            assert res.converged and res.step_used < specs[p].step / 2
            plain = _plain_trapezoid(lambda t: f(t, np.full(t.size, p)),
                                     specs[p].half_width, res.step_used)
            assert res.value == plain

    def test_romberg_removes_endpoint_error(self):
        # cos does not vanish at +-T, so plain halving is stuck at O(h^2);
        # an explicit grid, here the line's own, turns Romberg on.
        spec = ContourSpec(half_width=6.0, step=0.5, tol=1e-12, max_refinements=6)
        plain = trapezoid_line(np.cos, spec)
        extrapolated = _trapezoid_joint(
            (lambda t, _: np.cos(t),), [spec], grids=[_line_grid(spec)])[0][0]
        assert not plain.converged
        assert extrapolated.converged
        assert extrapolated.evaluations < plain.evaluations
        assert abs(extrapolated.value - 2 * math.sin(6.0)) <= 1e-12

    @given(st.floats(0.3, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_err_estimate_is_honest_for_gaussians(self, a):
        """Discretization error on the finite window stays within estimate.

        The estimate covers [-T, T] only; the tail beyond T is priced
        separately by tail_bound, so compare against the erf-truncated
        integral, not sqrt(pi/a).
        """
        spec = ContourSpec(half_width=8.0, step=0.25, tol=1e-12)
        res = trapezoid_line(lambda t: np.exp(-a * t * t), spec)
        exact = math.sqrt(math.pi / a) * math.erf(math.sqrt(a) * spec.half_width)
        assert abs(res.value - exact) <= max(res.err_estimate, 1e-13) + 1e-13


def _fsum_trapezoid(terms: np.ndarray, step: float) -> complex:
    """step times the fsum of trapezoid terms, the end weights already applied."""
    return complex(step * math.fsum(terms.real.tolist()),
                   step * math.fsum(terms.imag.tolist()))


def _level_one(f, t0: float, n: int, step: float):
    """Level 1 of a grid t0 + k*step, k in [0, n]: T(step), T(step/2), the
    floor 16 eps int|f| at step/2 and the node count, all by plain sums."""
    terms = f(t0 + np.arange(2 * n + 1, dtype=float) * (0.5 * step))
    terms[[0, -1]] *= 0.5
    floor = 16.0 * math.ulp(1.0) * (0.5 * step * float(np.abs(terms).sum()))
    return (_fsum_trapezoid(terms[0::2], step), _fsum_trapezoid(terms, 0.5 * step),
            floor, terms.size)


class TestFirstStep:
    """The first kernel call evaluates level 1's nodes and settles levels 0 and 1."""

    def test_line_stopping_at_level_one_makes_one_call(self):
        calls = []

        def f(t):
            calls.append(t.size)
            return np.exp(-1.25 * t * t + 0.2j * t)

        spec = ContourSpec(half_width=7.0, step=0.5, tol=1e-12)
        res = trapezoid_line(f, spec)
        assert calls == [57]
        coarse, fine, floor, size = _level_one(f, -7.0, 28, 0.5)
        assert res.step_used == 0.25 and res.converged
        assert res.evaluations == size
        assert res.value == fine
        assert abs(fine - coarse) > floor
        assert res.err_estimate == max(abs(fine - coarse), floor)

    def test_chunk_stopping_at_level_one_makes_one_call(self):
        # Point 2's only non-finite node is t = 0.25, an odd k of level 1.
        widths = np.array([1.3, 0.8, 1.0, 1.1])
        poles = np.array([50.0, 50.0, 0.25, 50.0])
        calls = []

        def f(t, rows):
            calls.append(t.size)
            return np.exp(-widths[rows] * t * t) / (t - poles[rows])

        spec = ContourSpec(half_width=7.0, step=0.5, tol=1e-12)
        outcomes = _trapezoid_joint((f,), [spec] * len(widths))
        assert calls == [4 * 57]
        assert isinstance(outcomes[2], QuadratureNodeError)
        assert outcomes[2].node == 0.25
        for p in (0, 1, 3):
            (res,) = outcomes[p]
            coarse, fine, floor, size = _level_one(
                lambda t: f(t, np.full(t.size, p)), -7.0, 28, 0.5)
            assert res.step_used == 0.25 and res.converged
            assert res.evaluations == size
            assert res.value == fine
            assert res.err_estimate == max(abs(fine - coarse), floor)

    def test_romberg_stopping_at_level_one_makes_one_call(self):
        # A periodic integrand over its period: spectral, so level 1 stops.
        calls = []

        def f(theta):
            calls.append(theta.size)
            return np.exp(np.cos(theta) + 1j * np.sin(theta))

        step = 2 * math.pi / 24
        spec = ContourSpec(half_width=7.0, step=step, tol=1e-12)
        (res,) = _only(_trapezoid_joint((lambda t, _: f(t),), [spec],
                                        grids=[_Grid(0.0, 0, 24, step)]))
        assert calls == [49]
        coarse, fine, floor, size = _level_one(f, 0.0, 24, step)
        assert res.converged and res.evaluations == size
        romberg = fine + (fine - coarse) / 3.0
        assert res.value == romberg
        assert res.err_estimate == max(abs(romberg - coarse), floor)


class TestSegments:
    SPEC = ContourSpec(sigma=1.0, half_width=8.0, step=0.25, tol=1e-10)

    def test_line_ab_at_y_zero(self):
        # y = 0 maps to z = 1/2: integral of e^{w^2} i dt = i sqrt(pi) e^0...
        # the vertical line carries the full Gaussian mass i sqrt(pi).
        got = integrate_segment(0.0, SegmentPath.LINE_AB, self.SPEC)
        assert got == pytest.approx(1j * SQRT_PI, abs=1e-10)

    def test_rays_reference_value(self):
        # At y = 0 each ray reduces to -i * (1/2)Gamma(1/2) = -i sqrt(pi)/2.
        cd = integrate_segment(0.0, SegmentPath.RAY_CD, self.SPEC)
        de = integrate_segment(0.0, SegmentPath.RAY_DE, self.SPEC)
        assert cd == pytest.approx(-0.5j * SQRT_PI, abs=1e-9)
        assert cd == pytest.approx(de, abs=1e-12)

    def test_rays_reject_right_half_plane(self):
        with pytest.raises(DomainError):
            integrate_segment(0.5, SegmentPath.RAY_CD, self.SPEC)
        with pytest.raises(DomainError):
            integrate_segment(1e-9, SegmentPath.RAY_DE, self.SPEC)

    def test_arc_magnitude_is_small(self):
        # On |w| = R the factor e^{Re w^2} <= e^{R^2 cos 2theta}; both arcs
        # live where cos 2theta <= ~0, so they are tiny for R ~ 8.
        for path in (SegmentPath.ARC_BC, SegmentPath.ARC_EA):
            val = integrate_segment(-1.0, path, self.SPEC)
            assert abs(val) < 1e-6

    def test_loop_closes(self):
        rep = contour_loop(-1.0, self.SPEC)
        assert abs(rep.loop_sum) < 1e-10
        parts = rep.i_ab + rep.i_bc + rep.i_cd + rep.i_de + rep.i_ea
        assert parts == rep.loop_sum

    def test_loop_report_geometry(self):
        rep = contour_loop(0.0, ContourSpec(sigma=3.0, half_width=4.0, step=0.25, tol=1e-8))
        assert rep.big_r == pytest.approx(5.0)
        assert rep.big_theta == pytest.approx(math.acos(3.0 / 5.0))

    def test_loop_rejects_right_half_plane(self):
        with pytest.raises(DomainError):
            contour_loop(0.25, self.SPEC)

    def test_loop_rejects_a_window(self):
        # The arcs meet the line at +-half_width; a window would leave a gap.
        spec = ContourSpec(sigma=1.0, half_width=8.0, step=0.25, tol=1e-10,
                           window=(-6.0, 8.0))
        with pytest.raises(DomainError):
            contour_loop(-1.0, spec)
        with pytest.raises(DomainError):
            integrate_segment(-1.0, SegmentPath.LINE_AB, spec)

    def test_loop_reports_convergence(self):
        loose = ContourSpec(sigma=1.0, half_width=5.0, step=0.25, tol=1e-6)
        starved = ContourSpec(sigma=1.0, half_width=5.0, step=0.25, tol=1e-14,
                              max_refinements=1)
        assert contour_loop(-1.0, loose).converged
        assert not contour_loop(-1.0, starved).converged

    def test_loop_converges_within_tol(self):
        for tol in (1e-6, 1e-8, 1e-10, 1e-12):
            rep = contour_loop(0.0, ContourSpec(sigma=1.0, half_width=5.0,
                                                step=0.25, tol=tol))
            assert rep.converged, tol
            assert abs(rep.loop_sum) <= tol, (tol, rep.loop_sum)
