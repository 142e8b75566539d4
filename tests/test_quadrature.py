"""Trapezoid engine, truncation selection, and contour-segment integrals."""

import cmath
import math

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
    g_integrand,
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
        (1, 1, 0), (1, 1, -2.0), (1, 1, math.inf), (1, 1, math.nan),
        (1, math.nan, 5), (1, -1, 5), (1, 0.0, 5), (1, 8.5, 5),
        (math.nan, 1, 5), (complex(1, math.inf), 1, 5),
    ])
    def test_rejects_what_select_truncation_rejects(self, args):
        with pytest.raises(DomainError):
            tail_bound(*args)


class TestSelectTruncation:
    def test_balances_budget_exactly(self):
        # Presenting the tail bound at T = 5 as the budget must return 5.
        budget = tail_bound(0.5, 1.0, 5.0)
        t = select_truncation(0.5, 1.0, budget)
        assert t.half_width == 5.0
        assert not t.capped

    def test_frozen_values(self):
        assert select_truncation(0.5, 1.0, 1e-12).half_width == 5.5
        assert select_truncation(-5, 1.0, 1e-12).half_width == 7.0
        assert select_truncation(0.5 + 10j, 1.0, 1e-12).half_width == 8.0
        assert select_truncation(1, 1.0, 1e-12, log_weight=True).half_width == 5.5

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
        t = select_truncation(0.5, 2.0, 1e-3)
        assert t.half_width >= 2.0 + 3.0

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
