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
    G,
    QuadratureNodeError,
    SegmentPath,
    contour_loop,
    default_sigma,
    evaluate_many,
    g_integrand,
    g_log_integrand,
    integrate_segment,
    select_truncation,
    tail_bound,
    trapezoid_line,
)
from unigamma import integrands
from unigamma.quadrature import (_FSUM_TERMS, _RICHARDSON_MARGIN, _T_GRID, _UNIT, _Grid,
                                 _Point, _crest_rate, _exact_sums, _line_grid, _only,
                                 _start_certificate, _trapezoid_joint, _window_grid)

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
            {"sigma": 1e-200},
            {"sigma": "x"},
            {"tol": "x"},
            {"half_width": "x"},
            {"step": "x"},
            {"window": ("a", 5.0)},
            {"window": 5},
            {"window": (1.0,)},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            ContourSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, named", [
        ({"sigma": 9.0, "tol": 0.0}, "sigma must lie in (0, 8], got 9.0"),
        ({"sigma": 1e-200}, "sigma must be at least 2**-511"),
        ({"half_width": 0.5}, "half_width must be finite and >= sigma, got 0.5"),
        ({"half_width": math.inf}, "half_width must be finite and >= sigma, got inf"),
        ({"step": 7.0, "tol": 0.0}, "step must lie in (0, half_width], got 7.0"),
        ({"window": (-1.0, -1.0)}, "window must be an interval at least a step long"),
        ({"window": (0.0, 0.1)}, "window must be an interval at least a step long"),
        ({"tol": math.inf}, "tol must be a positive finite real, got inf"),
        ({"max_refinements": 2.5}, "max_refinements must be an integer >= 1, got 2.5"),
    ])
    def test_names_the_first_bad_field(self, kwargs, named):
        # Valid specs pass one test of all bounds; a failure is named by the
        # field checks, in their order.
        with pytest.raises(DomainError) as failure:
            ContourSpec(**kwargs)
        assert str(failure.value).startswith(named)

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
        (math.nan, 1, 5), (complex(1, math.inf), 1, 5), (1, 1, "x"), (1, 1, None),
        (1, 1, 1j),
    ])
    def test_rejects_what_select_truncation_rejects(self, args):
        with pytest.raises(DomainError):
            tail_bound(*args)

    @pytest.mark.parametrize("sigma", [1e-200, 2.0 ** -512, 0.0, 8.5, math.nan, math.inf,
                                       "x", None, 1j])
    def test_sigma_rule_is_the_contour_spec_rule(self, sigma):
        for call in (lambda: ContourSpec(sigma=sigma), lambda: tail_bound(1, sigma, 5),
                     lambda: select_truncation(1, sigma, 1e-12)):
            with pytest.raises(DomainError, match="sigma must"):
                call()
        spec = ContourSpec(sigma=2.0 ** -511)
        assert select_truncation(1, spec.sigma, spec.tol).upper > 0.0

    @pytest.mark.parametrize("z", [None, "abc", [1.0], 10 ** 400],
                             ids=["None", "str", "list", "huge-int"])
    def test_non_numeric_point_is_a_domain_error(self, z):
        with pytest.raises(DomainError):
            select_truncation(z, 1.0, 1e-12)
        with pytest.raises(DomainError):
            tail_bound(z, 1.0, 5.0)

    def test_non_numeric_tol_is_a_domain_error(self):
        for tol in ("x", None, 1j):
            with pytest.raises(DomainError, match="tol must"):
                select_truncation(1, 1.0, tol)

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

        spec = ContourSpec(half_width=8.0, step=0.5, tol=1e-13)
        outcomes = _trapezoid_joint((f,), [_Point(_line_grid(spec), spec.tol) for _ in widths],
                                    spec.max_refinements)
        assert isinstance(outcomes[3], QuadratureNodeError)
        for p in (0, 1, 2, 4):
            (res,) = outcomes[p]
            assert res.converged and res.step_used < spec.step / 2
            plain = _plain_trapezoid(lambda t: f(t, np.full(t.size, p)),
                                     spec.half_width, res.step_used)
            assert res.value == plain

    def test_romberg_removes_endpoint_error(self):
        # cos does not vanish at +-T, so plain halving is stuck at O(h^2);
        # Romberg, asked for on the line's own grid, is not.
        spec = ContourSpec(half_width=6.0, step=0.5, tol=1e-12, max_refinements=6)
        plain = trapezoid_line(np.cos, spec)
        extrapolated = _trapezoid_joint(
            (lambda t, _: np.cos(t),), [_Point(_line_grid(spec), spec.tol, romberg=True)],
            spec.max_refinements)[0][0]
        assert not plain.converged
        assert extrapolated.converged
        assert extrapolated.evaluations < plain.evaluations
        assert abs(extrapolated.value - 2 * math.sin(6.0)) <= 1e-12

    def test_explicit_grid_without_romberg_is_plain(self):
        # A grid off origin 0, as the rays and arcs pass theirs, whose ends
        # have not decayed: Romberg only when asked for.
        step, n = 0.3, 10

        def f(t):
            return np.exp(1j * t)

        grid = _Grid(0.5, 0, n, step)
        (plain,) = _only(_trapezoid_joint((lambda t, _: f(t),), [_Point(grid, 1e-13)], 4))
        (extrapolated,) = _only(_trapezoid_joint((lambda t, _: f(t),),
                                                 [_Point(grid, 1e-13, romberg=True)], 4))
        assert plain.step_used == step / 16 and not plain.converged
        terms = f(0.5 + np.arange(16 * n + 1, dtype=float) * plain.step_used)
        terms[[0, -1]] *= 0.5
        assert plain.value == _fsum_trapezoid(terms, plain.step_used)
        exact = (cmath.exp(1j * (0.5 + n * step)) - cmath.exp(0.5j)) / 1j
        assert abs(extrapolated.value - exact) < abs(plain.value - exact)

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
        outcomes = _trapezoid_joint((f,), [_Point(_line_grid(spec), spec.tol) for _ in widths],
                                    spec.max_refinements)
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
        (res,) = _only(_trapezoid_joint((lambda t, _: f(t),),
                                        [_Point(_Grid(0.0, 0, 24, step), spec.tol, romberg=True)],
                                        spec.max_refinements))
        assert calls == [49]
        coarse, fine, floor, size = _level_one(f, 0.0, 24, step)
        assert res.converged and res.evaluations == size
        romberg = fine + (fine - coarse) / 3.0
        assert res.value == romberg
        assert res.err_estimate == max(abs(romberg - coarse), floor)


class TestCertifiedStart:
    """A point whose certificate (level, bound) meets the tolerance settles
    on that level: level 0, or level 1's nodes alone."""

    @staticmethod
    def _level_zero(f, grid):
        terms = f(np.arange(grid.k_lo, grid.k_hi + 1, dtype=float) * grid.step)
        terms[[0, -1]] *= 0.5
        floor = 16.0 * math.ulp(1.0) * (grid.step * float(np.abs(terms).sum()))
        return _fsum_trapezoid(terms, grid.step), floor, terms.size

    def test_certified_point_makes_one_call_on_level_zero(self):
        calls = []

        def f(t):
            calls.append(t.size)
            return np.exp(-1.25 * t * t + 0.2j * t)

        grid, tol = _Grid(0.0, -14, 14, 0.5), 1e-12
        for certificate in (0.0, 1e-300, 2e-13, _RICHARDSON_MARGIN * tol):
            calls.clear()
            (res,) = _only(_trapezoid_joint((lambda t, _: f(t),),
                                            [_Point(grid, tol, certificate=(0, certificate))],
                                            12))
            assert calls == [29]
            value, floor, size = self._level_zero(f, grid)
            assert res.value == value and res.evaluations == size
            assert res.step_used == 0.5 and res.converged and res.tol_effective == tol
            assert res.err_estimate == max(certificate, floor)

    def test_level_one_certificate_makes_one_call_on_level_one(self):
        # Level 1's nodes alone, summed alone: no level-0 sum, no Richardson
        # difference; the bound stands for it.
        calls = []

        def f(t):
            calls.append(t.size)
            return np.exp(-1.25 * t * t + 0.2j * t)

        grid, tol = _Grid(0.0, -14, 14, 0.5), 1e-12
        _, fine, floor, size = _level_one(f, -7.0, 28, 0.5)
        for certificate in (0.0, 2e-13, _RICHARDSON_MARGIN * tol):
            calls.clear()
            (res,) = _only(_trapezoid_joint((lambda t, _: f(t),),
                                            [_Point(grid, tol, certificate=(1, certificate))],
                                            12))
            assert calls == [57]
            assert res.value == fine and res.evaluations == size
            assert res.step_used == 0.25 and res.converged and res.tol_effective == tol
            assert res.err_estimate == max(certificate, floor)

    def test_uncertified_point_refines_as_without_one(self):
        def f(t, _):
            return np.exp(-1.25 * t * t + 0.2j * t)

        grid, tol = _Grid(0.0, -14, 14, 0.5), 1e-12
        plain = _trapezoid_joint((f,), [_Point(grid, tol)], 12)
        for level in (0, 1):
            for bound in (math.nextafter(_RICHARDSON_MARGIN * tol, 1.0), 1.0, math.inf):
                point = _Point(grid, tol, certificate=(level, bound))
                assert _trapezoid_joint((f,), [point], 12) == plain

    def test_chunk_mixes_certified_and_refining_points(self):
        # Points certified at level 0 (0, 3), at level 1 (1, 4) and at
        # neither (2, 5), in one chunk: one call covers level 0 of the first
        # and level 1 of the rest, and each point gets its lone bits, summed
        # by fsum (k_hi 12: 2 x 25 + 4 x 49 terms) or binned (k_hi 70:
        # 2 x 141 + 4 x 281), one bin slot for a certified point and two for
        # the levels 0 and 1 of a refining one.
        widths = np.array([1.3, 0.8, 1.0, 1.0, 0.6, 1.2])
        freqs = np.array([0.3, 0.3, 8.0, 0.3, 0.3, 9.0])
        calls = []

        def f(t, rows):
            calls.append(t.size)
            return np.exp(-widths[rows] * t * t + 1j * freqs[rows] * t)

        certificates = [(0, 1e-13), (1, 2e-13), (0, math.inf),
                        (0, 0.0), (1, 0.0), (1, math.inf)]
        for k_hi in (12, 70):
            grid, tol = _Grid(0.0, -k_hi, k_hi, 0.5), 1e-12
            calls.clear()
            outcomes = _trapezoid_joint(
                (f,), [_Point(grid, tol, certificate=pair) for pair in certificates], 12)
            assert calls[0] == 2 * (2 * k_hi + 1) + 4 * (4 * k_hi + 1)
            assert (calls[0] < _FSUM_TERMS) == (k_hi == 12)
            for p, (level, bound) in enumerate(certificates):
                def alone(t, p=p):
                    return f(t, np.full(t.size, p))

                assert [outcomes[p]] == _trapezoid_joint(
                    (lambda t, _: alone(t),), [_Point(grid, tol, certificate=(level, bound))], 12)
                (res,) = outcomes[p]
                if bound == math.inf:
                    assert res.step_used < 0.25     # fast waves refine past level 1
                    continue
                assert res.step_used == 0.5 / 2 ** level
                assert res.value == (_level_one(alone, -0.5 * k_hi, 2 * k_hi, 0.5)[1] if level
                                     else self._level_zero(alone, grid)[0])

    def test_tol_function_takes_no_certificate(self):
        # The Laplace path's relative tolerance comes with none; the default
        # certificate leaves such a point refining.
        grid = _Grid(0.0, -14, 14, 0.5)
        (res,) = _only(_trapezoid_joint((lambda t, _: np.exp(-t * t) + 0j,),
                                        [_Point(grid, lambda level0: 1e-12 * abs(level0))], 12))
        assert res.step_used < 0.5

    @staticmethod
    def _seeded_lines(seed: int, count: int, level: int):
        """(w, log_weight, tol, sigma, trunc, bound) at seeded line points
        whose certificate is at ``level``."""
        rng = random.Random(seed)
        for k in range(count):
            if level == 0:
                w = (complex(rng.uniform(0.5, 16.0), rng.uniform(0.0, 16.0)) if k % 3
                     else complex(rng.uniform(2.0, 40.0), rng.uniform(0.0, 3.0)))
            else:
                w = complex(rng.uniform(0.5, 4.0), rng.uniform(0.0, 6.0))
            log_weight = k % 4 == 1
            tol = 10.0 ** rng.uniform(-14, -8)
            sigma = default_sigma(w)
            trunc = select_truncation(w, sigma, tol / 8, log_weight=log_weight)
            first, bound = _start_certificate(w, sigma, trunc, tol, log_weight)
            if bound == math.inf or first != level:
                continue
            assert bound <= _RICHARDSON_MARGIN * tol
            yield w, log_weight, tol, sigma, trunc, bound

    @staticmethod
    def _trapezoid_and_exact(mpmath, w, log_weight, sigma, grid, level):
        """T(h) over the grid at ``level``, summed at 30 digits, and the whole
        line's integral: G(w) = pi/Gamma(w), or G psi with the log weight."""
        z, s = mpmath.mpc(w.real, w.imag), mpmath.mpf(sigma)
        h = mpmath.mpf(grid.step) / 2 ** level
        lo, hi = grid.k_lo << level, grid.k_hi << level

        def f(k):
            v = s + 1j * k * h
            value = v ** (1 - 2 * z) * mpmath.exp(v * v)
            return value * 2 * mpmath.log(v) if log_weight else value

        total = h * (mpmath.fsum(f(k) for k in range(lo + 1, hi)) + (f(lo) + f(hi)) / 2)
        exact = mpmath.pi * mpmath.rgamma(z)
        if log_weight:
            exact *= mpmath.digamma(z)
        return total, exact

    def test_certificate_bounds_the_level_zero_error(self):
        """At seeded line points certified at level 0, T(0.25) over the
        window, summed at 30 digits, lies within the bound of the whole
        line's integral."""
        mpmath = pytest.importorskip("mpmath")
        certified = 0
        for w, log_weight, tol, sigma, trunc, bound in self._seeded_lines(2611, 60, 0):
            certified += 1
            grid = _window_grid(trunc.lower, trunc.upper, _T_GRID)
            with mpmath.workdps(30):
                level0, exact = self._trapezoid_and_exact(mpmath, w, log_weight, sigma, grid, 0)
                error = float(abs(level0 - exact))
            assert error <= bound, (w, log_weight, tol, error, bound)
        assert certified >= 25

    def test_certificate_bounds_the_level_one_error(self):
        """At seeded line points certified at level 1 alone, T(0.125) over
        the window, summed at 30 digits, lies within the bound of the whole
        line's integral; at many of them the Richardson difference T(0.125)
        - T(0.25) misses the tolerance, so halving would have gone on to
        level 2."""
        mpmath = pytest.importorskip("mpmath")
        certified = refining = 0
        for w, log_weight, tol, sigma, trunc, bound in self._seeded_lines(2711, 60, 1):
            certified += 1
            grid = _window_grid(trunc.lower, trunc.upper, _T_GRID)
            with mpmath.workdps(30):
                level1, exact = self._trapezoid_and_exact(mpmath, w, log_weight, sigma, grid, 1)
                level0, _ = self._trapezoid_and_exact(mpmath, w, log_weight, sigma, grid, 0)
                error = float(abs(level1 - exact))
                refining += float(abs(level1 - level0)) > _RICHARDSON_MARGIN * tol
            assert error <= bound, (w, log_weight, tol, error, bound)
        assert certified >= 25 and refining >= 15

    def test_capped_or_heavy_lines_are_not_certified(self):
        # A capped window, a line near the branch point and a far-left line.
        for w, sigma in ((0.5 + 3j, 0.5), (-120.3 + 0.5j, 0.09)):
            trunc = select_truncation(w, sigma, 1.25e-13)
            assert _start_certificate(w, sigma, trunc, 7.5e-13, False)[1] == math.inf
        trunc = select_truncation(12.0, 3.39, 1.25e-13)
        capped = trunc._replace(capped=True)
        assert _start_certificate(12.0, 3.39, trunc, 7.5e-13, False)[1] < math.inf
        assert _start_certificate(12.0, 3.39, capped, 7.5e-13, False)[1] == math.inf


def _waves(widths, freqs):
    """f(t, rows) = exp(-a t^2 + i b t) with (a, b) of the point of each node."""
    widths, freqs = np.array(widths), np.array(freqs)
    return lambda t, rows: np.exp(-widths[rows] * t * t + 1j * freqs[rows] * t)


def _reference(f, half_width: float, step: float, step_used: float,
               romberg: bool) -> complex:
    """The plain trapezoid sum at ``step_used`` or, with ``romberg``, the
    Romberg diagonal of those from ``step`` down to it."""
    if not romberg:
        return _plain_trapezoid(f, half_width, step_used)
    row = []
    while step >= step_used:
        new = [_plain_trapezoid(f, half_width, step)]
        for j, below in enumerate(row, start=1):
            new.append(new[-1] + (new[-1] - below) / (4.0 ** j - 1.0))
        row, step = new, 0.5 * step
    return row[-1]


class TestCrestRate:
    """A Richardson level must resolve the phase rate at the integrand's crest
    (``_crest_rate``), or two levels that alias it alike pass for converged."""

    def test_matches_the_sampled_crest(self):
        rng = np.random.default_rng(5)
        t = np.linspace(-60.0, 60.0, 240001)
        for _ in range(200):
            z = complex(rng.uniform(-300, 300), rng.uniform(-400, 400) * (rng.random() < 0.8))
            sigma = rng.uniform(0.05, 8.0)
            p, y = 0.5 - z.real, z.imag
            u = sigma * sigma + t * t
            crest = t[np.argmax(p * np.log(u) + 2 * y * np.arctan2(t, sigma) - t * t)]
            rate = abs(2 * (p * sigma - y * crest) / (sigma * sigma + crest * crest) + 2 * sigma)
            assert _crest_rate(z, sigma) == pytest.approx(rate, rel=0.01, abs=0.05), (z, sigma)
        assert _crest_rate(4.0 + 3.0j, cmath.sqrt(3.5 + 3.0j).real) < 1e-12     # the saddle

    # e^{-t^2 + i omega t} with omega = 2 pi/0.125: steps 0.25 and 0.125 both
    # alias omega to 0 and sum to sqrt(pi), where the integral is e^{-omega^2/4}
    # sqrt(pi), about 1e-274.
    OMEGA = 16.0 * math.pi

    def _f(self, t, _):
        return np.exp(-t * t + 1j * self.OMEGA * t)

    def test_unresolved_levels_refine_past_the_alias(self):
        grid = _Grid(0.0, -24, 24, 0.25)
        (fooled,) = _only(_trapezoid_joint((self._f,), [_Point(grid, 1e-12)], 12))
        assert fooled.converged and fooled.step_used == 0.125
        assert fooled.value == pytest.approx(math.sqrt(math.pi))
        (res,) = _only(_trapezoid_joint((self._f,), [_Point(grid, 1e-12, rate=self.OMEGA)], 12))
        assert res.converged and res.step_used * self.OMEGA < math.pi
        assert abs(res.value) <= res.err_estimate <= 1e-12

    def test_stops_unconverged_where_no_level_resolves(self):
        grid = _Grid(0.0, -24, 24, 0.25)
        (res,) = _only(_trapezoid_joint((self._f,), [_Point(grid, 1e-12, rate=self.OMEGA)], 2))
        assert not res.converged and res.err_estimate == math.inf
        assert res.step_used == 0.0625

    def test_resolved_levels_keep_their_bits(self):
        grid = _Grid(0.0, -24, 24, 0.25)

        def f(t, _):
            return np.exp(-t * t + 3j * t)

        plain = _trapezoid_joint((f,), [_Point(grid, 1e-12)], 12)
        assert _trapezoid_joint((f,), [_Point(grid, 1e-12, rate=3.0)], 12) == plain


class TestSummationRoutes:
    """A pass sums by fsum below _FSUM_TERMS kept terms in all and by the bins
    above; either way every point gets the bits of its lone call and of the
    plain trapezoid rule, with the plain halving and with Romberg."""

    @staticmethod
    def _check(f, spec, count, romberg):
        grid = _line_grid(spec)
        outcomes = _trapezoid_joint(
            (f,), [_Point(grid, spec.tol, romberg=romberg) for _ in range(count)],
            spec.max_refinements)
        for p, (res,) in enumerate(outcomes):
            alone = _trapezoid_joint((lambda t, _: f(t, p),),
                                     [_Point(grid, spec.tol, romberg=romberg)],
                                     spec.max_refinements)
            assert [res] == _only(alone)
            assert res.value == _reference(lambda t: f(t, p), spec.half_width,
                                           spec.step, res.step_used, romberg)
        return [res.evaluations for (res,) in outcomes]

    @pytest.mark.parametrize("romberg", [False, True])
    def test_small_chunk_sums_by_fsum(self, romberg):
        # Three points of 49 level-1 terms each: 147 in all.
        spec = ContourSpec(half_width=6.0, step=0.5, tol=1e-13)
        sizes = self._check(_waves([1.0, 0.6, 1.5], [0.0, 2.0, 4.0]), spec, 3, romberg)
        assert 3 * 49 < _FSUM_TERMS and min(sizes) == 49 and max(sizes) > 2 * _FSUM_TERMS

    @pytest.mark.parametrize("romberg", [False, True])
    def test_two_point_chunk_crossing_the_cutover(self, romberg):
        # 2 x 33 and 2 x 65 terms go to fsum on levels 1 and 2; the 2 x 129
        # of level 3 are binned afresh.
        spec = ContourSpec(half_width=8.0, step=1.0, tol=1e-12)
        sizes = self._check(_waves([1.0, 1.0], [6.0, 7.0]), spec, 2, romberg)
        assert 2 * 65 < _FSUM_TERMS <= 2 * 129 <= sum(sizes)

    @pytest.mark.parametrize("romberg", [False, True])
    def test_point_refining_on_alone_drops_its_running_sum(self, romberg):
        # Four points of 65 level-1 terms each, 260 in all, are binned; the
        # oscillating one goes on alone, its 129 terms of level 2 go to fsum,
        # and its 257 of level 3 are binned afresh, not added to the sum of
        # level 1.
        spec = ContourSpec(half_width=8.0, step=0.5, tol=1e-13)
        sizes = self._check(_waves([1.0] * 4, [0.0, 0.0, 20.0, 0.0]), spec, 4, romberg)
        assert 4 * 65 >= _FSUM_TERMS > 129
        assert sizes[:2] == [65, 65] and sizes[3] == 65 and sizes[2] >= 257

    @pytest.mark.parametrize("romberg", [False, True])
    def test_lone_point_crossing_the_cutover_at_level_two(self, romberg):
        # 161 terms go to fsum on level 1, 321 are binned on level 2.
        spec = ContourSpec(half_width=10.0, step=0.25, tol=1e-13)
        (size,) = self._check(lambda t, _: g_integrand(0.5 + 3j, 1.0, t), spec, 1, romberg)
        assert 161 < _FSUM_TERMS <= 321 <= size


class TestSumPastTheDoubleRange:
    """Finite node values whose trapezoid sum leaves the double range are a
    QuadratureNodeError naming no node, on a pass below the fsum cutover
    (fsum overflows, and the exact bins decide) and above it alike; the
    point's chunk-mates go on."""

    MESSAGE = "the trapezoid sum of finite values left the double range"

    @staticmethod
    def _huge(*args):
        return np.full(np.shape(args[-1]), 1e307 + 0j)

    @pytest.mark.parametrize("half_width", [6.0, 60.0])
    def test_lone_line(self, half_width):
        # 49 level-1 terms are below the fsum cutover, 481 above it.
        with pytest.raises(QuadratureNodeError, match=self.MESSAGE) as info:
            trapezoid_line(self._huge, ContourSpec(half_width=half_width))
        assert info.value.node is None

    @pytest.mark.parametrize("y", [-342.0, -341.5])
    def test_ray(self, y):
        spec = ContourSpec(sigma=1, half_width=20, step=0.25, tol=1e-10)
        with pytest.raises(QuadratureNodeError, match=self.MESSAGE):
            integrate_segment(y, "ray_cd", spec)

    def test_ray_phase_past_the_doubles(self):
        # The radial integral fits (its nodes near 1e307), but times
        # e^{pi Im y/2} ~ 1e136 it does not: decided before the product.
        spec = ContourSpec(sigma=1, half_width=20, step=0.25, tol=1e-10)
        with pytest.raises(QuadratureNodeError, match="left the double range") as info:
            integrate_segment(-342 + 200j, "ray_cd", spec)
        assert info.value.node is None
        # The other ray takes e^{-pi Im y/2} and fits.
        assert cmath.isfinite(integrate_segment(-342 + 200j, "ray_de", spec).value)
        # e^{pi Im y/2} alone past the doubles, where a bare OverflowError escaped.
        with pytest.raises(QuadratureNodeError, match="left the double range") as info:
            integrate_segment(-1 + 460j, "ray_cd", spec)
        assert info.value.node is None

    @pytest.mark.parametrize("half_width", [6.0, 60.0])
    def test_chunk_mates_go_on(self, half_width):
        # Four points of 49 level-1 terms are below the cutover, of 481 above.
        spec = ContourSpec(half_width=half_width, tol=1e-13)
        grid = _line_grid(spec)
        huge = np.array([True, False, True, False])

        def f(t, rows):
            return np.where(huge[rows], 1e307, np.exp(-t * t)) + 0j

        outcomes = _trapezoid_joint((f,), [_Point(grid, spec.tol) for _ in huge],
                                    spec.max_refinements)
        alone = _only(_trapezoid_joint((lambda t, _: np.exp(-t * t) + 0j,),
                                       [_Point(grid, spec.tol)], spec.max_refinements))
        for outcome, failed in zip(outcomes, huge):
            if failed:
                assert isinstance(outcome, QuadratureNodeError)
                assert outcome.node is None and self.MESSAGE in str(outcome)
            else:
                assert outcome == alone

    def test_partial_sums_past_the_doubles_go_to_the_bins(self):
        # The terms cancel to the one at t = 0, but fsum's partial sums of
        # the 24 terms of 1e308 overflow: the 49 level-1 terms, below the
        # cutover, go to the bins.
        def f(t):
            return np.where(t < 0, 1e308, np.where(t > 0, -1e308, 1.0)) + 0j

        res = trapezoid_line(f, ContourSpec(half_width=6.0))
        assert res.value == res.step_used


    def test_line_function_at_either_conjugate(self, monkeypatch):
        # The G line's kernel is looked up per call; the point below the
        # axis is integrated at its conjugate and keeps the message.
        monkeypatch.setattr(integrands, "g_integrand", self._huge)
        outcomes = evaluate_many("G", [2 + 1j, 2 - 1j])
        for outcome in outcomes:
            assert isinstance(outcome, QuadratureNodeError)
            assert outcome.node is None and self.MESSAGE in str(outcome)
        with pytest.raises(QuadratureNodeError, match=self.MESSAGE):
            G(2 - 1j)


class TestFloorPastTheDoubleRange:
    """Where the sum of |f| over a level leaves the double range while the
    signed sum fits, the roundoff floor and the effective tolerance are inf:
    no Richardson difference meets that, so the integral comes back
    unconverged, err_estimate inf, from the level where it happened."""

    def test_line(self):
        res = trapezoid_line(lambda t: 1e306 * np.cos(40 * t) + 0j,
                             ContourSpec(half_width=60.0))
        assert cmath.isfinite(res.value)
        assert res.tol_effective == res.err_estimate == math.inf
        assert not res.converged
        assert res.evaluations == 961       # level 1, where the floor left the range

    def test_contour_segments(self):
        # The line's ends at t = +-8 have not decayed, so plain halving goes
        # on until the 1e304-sized terms near them sum past the doubles.
        y, spec = -290.0, ContourSpec(sigma=8.0, half_width=8.0, step=0.25, tol=1e-10)
        line = trapezoid_line(lambda t: g_integrand((y + 1.0) / 2.0, spec.sigma, t), spec)
        assert line.tol_effective == math.inf and not line.converged
        loop = contour_loop(y, spec)
        segment = integrate_segment(y, SegmentPath.LINE_AB, spec)
        assert loop.i_ab == segment.value == 1j * line.value
        assert not loop.converged
        # The segment keeps its line's verdict, where it once returned the value alone.
        assert segment == line._replace(value=1j * line.value)
        assert segment.converged is False and segment.err_estimate == math.inf


class TestSegments:
    SPEC = ContourSpec(sigma=1.0, half_width=8.0, step=0.25, tol=1e-10)

    def test_line_ab_at_y_zero(self):
        # y = 0 maps to z = 1/2: integral of e^{w^2} i dt = i sqrt(pi) e^0...
        # the vertical line carries the full Gaussian mass i sqrt(pi).
        got = integrate_segment(0.0, SegmentPath.LINE_AB, self.SPEC)
        assert got.converged
        assert got.value == pytest.approx(1j * SQRT_PI, abs=1e-10)

    def test_rays_reference_value(self):
        # At y = 0 each ray reduces to -i * (1/2)Gamma(1/2) = -i sqrt(pi)/2.
        cd = integrate_segment(0.0, SegmentPath.RAY_CD, self.SPEC)
        de = integrate_segment(0.0, SegmentPath.RAY_DE, self.SPEC)
        assert cd.converged and de.converged
        assert cd.value == pytest.approx(-0.5j * SQRT_PI, abs=1e-9)
        assert cd.value == pytest.approx(de.value, abs=1e-12)

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
            assert val.converged and abs(val.value) < 1e-6

    def test_loop_closes(self):
        rep = contour_loop(-1.0, self.SPEC)
        assert abs(rep.loop_sum) < 1e-10
        parts = rep.i_ab + rep.i_bc + rep.i_cd + rep.i_de + rep.i_ea
        assert parts == rep.loop_sum

    def test_segments_are_the_loop_parts(self):
        # Each segment returns its quadrature's record; the loop sums their
        # values and joins their verdicts.  Both rays scale one radial
        # integral, by |e^{-+i pi y/2}| = e^{+-pi Im y/2}, its estimate too.
        y = -1.5 + 2.0j
        loop = contour_loop(y, self.SPEC)
        parts = [integrate_segment(y, path, self.SPEC) for path in SegmentPath]
        assert [part.value for part in parts] == [loop.i_ab, loop.i_bc, loop.i_cd,
                                                  loop.i_de, loop.i_ea]
        assert loop.converged and all(part.converged for part in parts)
        _, _, cd, de, _ = parts
        assert cd.evaluations == de.evaluations and cd.step_used == de.step_used
        assert cd.err_estimate / de.err_estimate == pytest.approx(math.exp(math.pi * y.imag))

    def test_loop_report_geometry(self):
        rep = contour_loop(0.0, ContourSpec(sigma=3.0, half_width=4.0, step=0.25, tol=1e-8))
        assert rep.big_r == pytest.approx(5.0)
        assert rep.big_theta == pytest.approx(math.acos(3.0 / 5.0))

    def test_loop_rejects_right_half_plane(self):
        with pytest.raises(DomainError):
            contour_loop(0.25, self.SPEC)

    def test_non_numeric_y_is_a_domain_error(self):
        with pytest.raises(DomainError, match="y must be a complex number"):
            contour_loop("x", ContourSpec())
        with pytest.raises(DomainError, match="y must be a complex number"):
            integrate_segment("x", SegmentPath.LINE_AB, ContourSpec())
        with pytest.raises(DomainError, match="y must be finite"):
            contour_loop(-math.inf, ContourSpec())

    def test_unknown_path_is_a_domain_error(self):
        with pytest.raises(DomainError, match="path must be one of"):
            integrate_segment(0, "nope", ContourSpec())
        assert (integrate_segment(-1.0, "arc_bc", self.SPEC)
                == integrate_segment(-1.0, SegmentPath.ARC_BC, self.SPEC))

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
