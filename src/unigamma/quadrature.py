"""Truncated-line trapezoid quadrature and the closed-contour segments.

The improper integrals over t in (-inf, inf) are cut to a finite window,
then summed with the composite trapezoid rule and refined by step halving.
The integrands are analytic in a strip around the real t-axis and
Gaussian-decaying, so the trapezoid rule converges spectrally; the
Richardson difference between successive halvings is an honest (if
slightly conservative) error estimate.  The G line's window [lower, upper]
is not symmetric: ``select_truncation`` sizes each end by a rigorous bound
on its own tail (``tail_bound``), built from the integrand's exact
magnitude u^p e^{2 Im z atan(t/sigma)} e^{sigma^2 - t^2} and a decay rate
that covers the log weight's growth, so off the real axis the window
follows the integrand's crest near the saddle height Im sqrt(z - 1/2).
Its nodes stay at k*h about origin 0, so a real z, whose window is
symmetric, keeps exact conjugate symmetry.

One driver, ``_trapezoid_joint``, does every halving and evaluates every
node: the line, the two rays and the two arcs of the closed contour, and
the Laplace cross-check, whose relative tolerance it fixes from level 0.
It takes many points at once and refines them in chunks, one kernel call
per level for the whole chunk; the rays, arcs and Laplace are one-point
calls.  Its levels are nested -- nodes are ``origin + k*h`` over integer
k, so halving keeps every old node at an even k and evaluates only the
odd k -- and ``evaluations`` counts each node once.  A G-line point
settles on the first level, 0 or 1, that an a-priori certificate covers:
its ``_start_certificate`` (the trapezoid error bound of Trefethen &
Weideman on a strip about its line, plus the nodes beyond its window),
taken at the start step and, where that one misses the tolerance, at half
of it.  Such a point evaluates that level's nodes alone, sums them alone
and settles there, the certificate standing for a Richardson difference.
A point certified at neither level (a line near the branch point, a
sigma far off the saddle, the other paths) refines by Richardson, whose
difference a G line counts only on a level that resolves the phase rate
at its integrand's crest (``_crest_rate``).  Its first kernel call
evaluates level 1's nodes, level 0's at the even k and the odd k between
them.  The point keeps them as trapezoid terms, its
values with the end weights 1/2 applied once, and settles level 0 from
the even terms and level 1 from all of them: a point that stops at level
0 or 1 makes one kernel call per integrand.  The rays, the arcs and the
Laplace integrand end where they have not decayed, so their
Euler-Maclaurin endpoint terms hold plain halving to O(h^2); those paths
ask for Romberg by name, which extrapolates the level sums with a Romberg
table, removing h^2, h^4, ... in turn.  The G line keeps plain halving:
its ends have decayed below the tolerance, and the trapezoid rule is
spectral there.

Summation is exactly rounded: each level's trapezoid sum is the float
nearest the exact sum of its terms, which has two consequences worth
relying on: results are bit-reproducible regardless of evaluation order,
and exactly antisymmetric node contributions cancel exactly.  One rule
picks the route of each refinement pass, whether it sums one point or
many: fewer than ``_FSUM_TERMS`` kept terms in all go to ``math.fsum``,
more to ``_exact_sums``, which bins mantissas by exponent into integer
digits with numpy and keeps each point's exact running sum, so a halving
adds only its new terms.  Both give the same bits.

One roundoff floor, ``16*eps*int |f|``, serves both the convergence gate
and the error estimate: the gate enforces the *effective* tolerance
``max(tol, floor)`` and ``err_estimate`` is ``max(Richardson difference,
floor)``, or ``max(certificate, floor)`` for a point its certificate settles.
The floor covers the kernels' few-ulp pointwise error summed over the
line, so an estimate below it would claim more than the nodes carry.
A G-line point scales its floor by max(1, Phi/16), with Phi = |1 - 2z|
max|Log w| over the window: the kernel rounds its exponent (1 - 2z) Log w
+ w^2 as a whole, to an ulp of Phi, which past 16 outgrows the few ulps
above (the ``noise`` of a ``_Point``).
For heavily cancelling integrands (deep left half-plane z) the requested
absolute tolerance may lie below what double precision can represent of the
summand mass; converging to the roundoff floor is then reported as
convergence against the recorded effective tolerance rather than a silent
failure or a fake success at the unreachable one.  A floor past the double
range (int |f| overflows while the sum fits) is no tolerance at all: the
integral stops there, unconverged, with err_estimate inf.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
import sys
from dataclasses import dataclass
from math import atan2, erfc, exp, expm1, fsum, hypot, log, pi, sqrt
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import integrands
from .errors import DomainError, QuadratureNodeError

__all__ = [
    "ContourSpec",
    "QuadratureResult",
    "ContourLoopReport",
    "SegmentPath",
    "Truncation",
    "TRUNCATION_CAP",
    "tail_bound",
    "select_truncation",
    "trapezoid_line",
    "integrate_segment",
    "contour_loop",
]

_EPS = math.ulp(1.0)
# Multiplier on eps * int|f| when attributing summand mass to roundoff; the
# one floor under both the convergence gate and err_estimate.
_CANCEL_FLOOR = 16.0
# Accept a halving when the Richardson difference sits comfortably below tol.
_RICHARDSON_MARGIN = 0.75
TRUNCATION_CAP = 200.0
# The G line's start step; its window ends lie on multiples of it, where the
# line's nodes k*h about origin 0 land.
_T_GRID = 0.25
_CAP_STEPS = round(TRUNCATION_CAP / _T_GRID)
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)
_LOG_MAX = 709.0          # math.exp overflows just past 709.78
# Each tail's budget is at most this share of the integrand's magnitude at
# the saddle height (see select_truncation).
_LOG_TAIL_REL = math.log(5e-16)
# The least sigma whose square is a normal double; the kernels refuse less.
_SIGMA_MIN = integrands._SIGMA_MIN
# The largest sigma a line takes: exp(sigma**2) stays far from overflow.
_SIGMA_CAP = 8.0
_MAX = sys.float_info.max
_INF = math.inf


@dataclass(frozen=True)
class ContourSpec:
    """Quadrature configuration: abscissa, truncation, step, tolerance.

    The line runs over t in [-half_width, half_width], or over ``window``,
    a ``(lower, upper)`` interval inside it, when one is given: the G line
    records the window its tails were sized for, and ``half_width`` its
    larger end (at least sigma).
    """

    sigma: float = 1.0
    half_width: float = 6.0
    step: float = 0.25
    tol: float = 1e-12
    max_refinements: int = 12
    window: tuple[float, float] | None = None

    def __post_init__(self):
        # The all-valid case in one test, the same bounds as the checks
        # below, which run only to name a failure.
        try:
            sigma, half_width, step, refinements = (self.sigma, self.half_width, self.step,
                                                    self.max_refinements)
            lower, upper = (-half_width, half_width) if self.window is None else self.window
            if (_SIGMA_MIN <= sigma <= _SIGMA_CAP and sigma <= half_width <= _MAX
                    and 0.0 < step <= half_width and -half_width <= lower < upper <= half_width
                    and step <= upper - lower and 0.0 < self.tol <= _MAX
                    and 0.5 < refinements <= _INF and refinements % 1 == 0):
                return
        except Exception:   # whatever it is, the checks below name it
            pass
        _check_sigma(self.sigma)
        if not (_inside(self.half_width, sys.float_info.max)
                and self.half_width >= self.sigma):
            raise DomainError(
                f"half_width must be finite and >= sigma, got {self.half_width!r}"
            )
        if not _inside(self.step, self.half_width):
            raise DomainError(f"step must lie in (0, half_width], got {self.step!r}")
        if self.window is not None:
            try:
                lower, upper = self.window
                ok = (-self.half_width <= lower < upper <= self.half_width
                      and self.step <= upper - lower)
            except (TypeError, ValueError):     # not a pair of reals
                ok = False
            if not ok:
                raise DomainError(
                    f"window must be an interval at least a step long inside "
                    f"[-half_width, half_width], got {self.window!r}")
        _check_tol(self.tol)
        _check_refinements(self.max_refinements)


class QuadratureResult(NamedTuple):
    """One line integral: value, error estimate, and convergence diagnostics.

    ``step_used`` and ``tol_effective`` record the step after refinement and
    the tolerance actually enforced (the requested one, raised to the
    cancellation floor ``16*eps*int|f|`` when roundoff dominates).  A tuple,
    since the driver builds one per integrand and point.
    """

    value: complex
    err_estimate: float
    evaluations: int
    converged: bool
    step_used: float
    tol_effective: float


@dataclass(frozen=True)
class ContourLoopReport:
    """The five segment integrals of the closed contour and their sum.

    ``converged`` is true only when every segment's quadrature and the
    rays' analytic head series met their tolerance.
    """

    i_ab: complex
    i_bc: complex
    i_cd: complex
    i_de: complex
    i_ea: complex
    loop_sum: complex
    big_r: float
    big_theta: float
    converged: bool


class SegmentPath(enum.Enum):
    """Segments of the closed contour, named by their endpoints.

    A = (sigma, -T), B = (sigma, T), C = iR, D = 0, E = -iR with
    R = sqrt(sigma^2 + T^2); the loop runs A->B->C->D->E->A.
    """

    LINE_AB = "line_ab"
    ARC_BC = "arc_bc"
    RAY_CD = "ray_cd"
    RAY_DE = "ray_de"
    ARC_EA = "arc_ea"


class Truncation(NamedTuple):
    """A window [lower, upper] of the G line, the bound on its two tails
    together, and whether an end hit the search cap."""

    lower: float
    upper: float
    tail: float
    capped: bool

    @property
    def half_width(self) -> float:
        """The larger end: the half-width of the symmetric line around the window."""
        return max(-self.lower, self.upper)


def _log_magnitude(p: float, y: float, sigma: float, t: float,
                   log_weight: bool) -> tuple[float, float, float]:
    """log of the G-line integrand's magnitude at t, times |ln u| + pi >= |2 Log w|
    for the log weight; and the slope and half the curvature of -log|f| at t,
    the log weight's share left out.

    With p = 1/2 - Re z, y = Im z and u = sigma^2 + t^2 the magnitude is
    exactly u^p e^{2 y atan(t/sigma)} e^{sigma^2 - t^2}, and d/dt log|f| =
    D(t) - 2t with D = 2(p t + y sigma)/u.
    """
    s2, t2 = sigma * sigma, t * t
    u = s2 + t2
    log_u = log(u)
    lm = p * log_u + 2.0 * y * atan2(t, sigma) + s2 - t2
    if log_weight:
        lm += log(abs(log_u) + pi)
    drift = 2.0 * (p * t + y * sigma) / u
    return lm, 2.0 * t - drift, 1.0 + (drift * t - p) / u


def _crest_rate(z: complex, sigma: float) -> float:
    """|d/dt arg f| at the crest of the G-line integrand f, the t where |f| peaks.

    On w = sigma + it the exponent h(w) = (1 - 2z) Log w + w^2 turns at the
    rate Re h'(w) = 2 (p sigma - y t)/u + 2 sigma, with p = 1/2 - Re z,
    y = Im z and u = sigma^2 + t^2: 0 at the saddle, growing as the line
    leaves it.  The crest is a real root of d/dt log|f| = 0, that is of
    t^3 + (sigma^2 - p) t - y sigma = 0 (``_log_magnitude``), the highest
    one where there are three.  inf where the cubic leaves the double range.
    """
    p, y = 0.5 - z.real, z.imag
    a, b = sigma * sigma - p, -y * sigma
    q = 0.25 * b * b + a * a * a / 27.0
    if q > 0.0:     # one real root, by Cardano's formula without cancellation
        c = -0.5 * b - math.copysign(sqrt(q), b)
        r = math.copysign(abs(c) ** (1.0 / 3.0), c)
        roots = (r - a / (3.0 * r) if r else 0.0,)
    else:           # three, by the trigonometric form; here a < 0
        r = 2.0 * sqrt(-a / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * b / (a * r)))) / 3.0
        roots = [r * math.cos(phi - 2.0 * pi * k / 3.0) for k in range(3)]
    t = max(roots, key=lambda t: _log_magnitude(p, y, sigma, t, False)[0])
    rate = abs(2.0 * (p * sigma - y * t) / (sigma * sigma + t * t) + 2.0 * sigma)
    return rate if rate == rate else _INF


def _log_tail(p: float, y: float, sigma: float, end: float, log_weight: bool,
              lead: float) -> tuple[float, float, float]:
    """log of a bound on the integral of |f| over t > end; and the slope and
    half the curvature of -log|f| at end, which steer ``_upper_end``.
    ``lead`` is y + hypot(p, y), the same for every end of one side.

    On t >= end, d/dt log|f| = D(t) - 2t (``_log_magnitude``).  D is at
    most R, its supremum over [end, inf), which (p tau + y)/(tau^2 + 1)
    with tau = t/sigma gives in closed form; so with d = t - end,
    |f(t)| <= |f(end)| e^{-kappa d - d^2} with kappa = 2 end - R, and the
    tail is at most |f(end)| J(kappa), where J(kappa) = int_0^inf
    e^{-kappa d - d^2} dd = (sqrt(pi)/2) e^{kappa^2/4} erfc(kappa/2) <=
    1/kappa.  The log weight's bound |ln u| + pi grows at a log-rate of at
    most 2|t|/(pi u), whose supremum over the tail kappa absorbs too.  The
    bound holds for every real end, on either side of the integrand's crest;
    where it passes the double range its log is inf.
    """
    lm, slope, curve = _log_magnitude(p, y, sigma, end, log_weight)
    return lm + _log_spread(p, sigma, end, log_weight, lead, slope), slope, curve


def _log_spread(p: float, sigma: float, end: float, log_weight: bool, lead: float,
                slope: float) -> float:
    """log J(kappa), the tail bound of ``_log_tail`` over the magnitude at
    ``end``, from the slope of -log|f| there (``_log_magnitude``)."""
    if lead > 0.0 and end * lead <= p * sigma:
        kappa = 2.0 * end - lead / sigma    # the supremum lies inside the tail
    else:
        kappa = slope if slope < 2.0 * end else 2.0 * end
    if log_weight:
        kappa -= (2.0 * end / (sigma * sigma + end * end) if end >= sigma
                  else 1.0 / sigma) / pi
    if kappa >= 8.0:
        return -log(kappa)
    return 0.25 * kappa * kappa + log(_HALF_SQRT_PI * erfc(0.5 * kappa))


def _check_point(z, name: str = "z") -> complex:
    """z as a complex; DomainError unless it is a finite number."""
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a complex number, got {z!r}") from None
    except OverflowError:
        # No repr: past 4,300 digits an int's repr raises too.
        raise DomainError(f"{name} must be finite, got a number beyond the "
                          "double range") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


# The three checks below are on every call's path: each tests its range
# itself, as ``_inside`` would, a TypeError meaning no real number.

def _check_sigma(sigma) -> float:
    """sigma as a float; DomainError unless it is a real in [2**-511, _SIGMA_CAP]."""
    try:
        if _SIGMA_MIN <= sigma <= _SIGMA_CAP:
            return float(sigma)
        small = 0.0 < sigma < _SIGMA_MIN
    except TypeError:
        small = False
    if small:
        raise DomainError(f"sigma must be at least 2**-511, where sigma**2 is a "
                          f"normal double, got {sigma!r}")
    raise DomainError(f"sigma must lie in (0, {_SIGMA_CAP:g}], got {sigma!r}")


def _check_tol(tol, name: str = "tol") -> None:
    """DomainError unless tol is a positive finite real."""
    try:
        if 0.0 < tol <= _MAX:
            return
    except TypeError:
        pass
    raise DomainError(f"{name} must be a positive finite real, got {tol!r}")


def _check_refinements(max_refinements) -> None:
    """DomainError unless max_refinements is a whole number >= 1."""
    try:
        if 0.5 < max_refinements <= _INF and max_refinements % 1 == 0:
            return
    except TypeError:
        pass
    raise DomainError(f"max_refinements must be an integer >= 1, got {max_refinements!r}")


def _inside(value, high: float, low: float = 0.0) -> bool:
    """Whether low < value <= high; False for what is not a real number."""
    try:
        return low < value <= high
    except TypeError:
        return False


def tail_bound(z, sigma: float, end: float, *, lower: bool = False,
               log_weight: bool = False) -> float:
    """Rigorous bound on the integral of |f| over the G line's tail beyond ``end``.

    f is the integrand w^{1-2z} e^{w^2}, times 2 Log w with ``log_weight``;
    the tail is t > end, or t < end when ``lower``.  The bound starts from
    the exact magnitude at ``end`` and a decay rate valid over the whole
    tail, the log factor's growth included (see ``_log_tail``), so it holds
    for every finite end.  Raises DomainError unless z and ``end`` are
    finite and sigma lies in [2**-511, 8].
    """
    z = _check_point(z)
    sigma = _check_sigma(sigma)
    if not _inside(end, sys.float_info.max, -math.inf):
        raise DomainError(f"end must be a finite real, got {end!r}")
    p, y = 0.5 - z.real, z.imag
    if lower:
        y, end = -y, -end     # |f(-t)| at z is |f(t)| at conj(z)
    log_tail = _log_tail(p, y, sigma, end, log_weight, y + hypot(p, y))[0]
    return math.exp(log_tail) if log_tail < _LOG_MAX else math.inf


def _upper_end(p: float, y: float, sigma: float, start: float, floor: int,
               log_budget: float, log_weight: bool) -> tuple[float, float, bool]:
    """The lowest upper end on the _T_GRID grid, at or above ``floor`` grid
    steps, whose tail bound meets the budget; the log of that bound; and
    whether the search stopped at the cap without meeting it.

    The search keeps the highest end known to miss and the lowest known to
    meet, and stops when they are one grid step apart.  A quadratic model
    of the log bound, from its value, slope and curvature at the last end
    bounded, names the next grid point, kept strictly between the two; the
    first model is the exact magnitude at ``start`` over its slope.  Where
    the model names none -- a bound past the double range -- the search
    bisects.
    """
    if floor < 1 - _CAP_STEPS:
        floor = 1 - _CAP_STEPS
    elif floor > _CAP_STEPS:
        floor = _CAP_STEPS
    low, high = floor - 1, _CAP_STEPS + 1     # k known to miss and to meet
    lead = y + hypot(p, y)
    end = start
    log_tail, slope, curve = _log_magnitude(p, y, sigma, start, log_weight)
    if slope > 1.0:
        log_tail -= log(slope)
    while True:
        # The model's root: excess - slope d - curve d^2 = 0.  Under budget
        # at or before a crest, it names the lowest end left.
        excess = log_tail - log_budget
        disc = slope * slope + 4.0 * (curve if curve > 0.5 else 0.5) * excess
        rise = slope + sqrt(disc) if disc >= 0.0 else 0.0
        guess = (end + 2.0 * excess / rise) / _T_GRID - 0.02 if rise > 0.0 else -math.inf
        if guess != guess:      # NaN: inf / inf
            k = (low + high) // 2
        else:
            k = (low + 1 if guess <= low + 1 else high - 1 if guess >= high - 1
                 else math.ceil(guess))
        end = k * _T_GRID
        log_tail, slope, curve = _log_tail(p, y, sigma, end, log_weight, lead)
        # A bound equal to the budget meets it, whichever way the logs round.
        if log_tail <= log_budget or (log_tail - log_budget < 1e-9
                                      and math.exp(log_tail) <= math.exp(log_budget)):
            high, best = k, log_tail
        else:
            low = k
        if high - low == 1:
            break
    if high > _CAP_STEPS:
        return TRUNCATION_CAP, log_tail, True
    return high * _T_GRID, best, False


def select_truncation(z, sigma: float, tol: float, *,
                      log_weight: bool = False) -> Truncation:
    """The narrowest window on a 0.25-grid whose two tail bounds each meet the budget.

    The budget of each tail is min(tol, 5e-16 m), where m is the
    integrand's exact magnitude at the saddle height Im sqrt(z - 1/2): a
    tail small against m is small against the value wherever the line does
    not cancel, so both tails stay within 1e-15 of it when ``tol`` alone
    would swamp a small value.  Each end is the lowest grid point whose own
    tail bound (``tail_bound``) meets the budget, searched from where a
    Gaussian e^{-2 d^2} about that height puts it, so a point off the real
    axis gets a window shifted toward its saddle and a real z a symmetric
    one.  The window always holds the grid interval around the height.  An
    end that would pass T = 200 stops there and is flagged.
    """
    z = _check_point(z)
    sigma = _check_sigma(sigma)
    _check_tol(tol)
    p, y = 0.5 - z.real, z.imag
    # The saddle height.  On the real axis both sides start from the upper
    # of the two crests at +-Im w0, and z and conj(z) see the same numbers.
    height = cmath.sqrt(complex(-p, abs(y))).imag
    magnitude = _log_magnitude(p, abs(y), sigma, height, False)[0]
    # The log weight's bound at the height, as _log_magnitude adds it.
    peak = (magnitude + log(abs(log(sigma * sigma + height * height)) + pi) if log_weight
            else magnitude)
    log_budget = min(log(tol), _LOG_TAIL_REL + magnitude)
    # Gaussian start: peak - 2 d^2 - log(4 d) = log(budget).
    excess = peak - log_budget
    if excess < 2.0:
        excess = 2.0
    reach = excess - log(4.0 * sqrt(0.5 * excess))
    reach = sqrt(0.5 * reach) if reach > 1.0 else sqrt(0.5)
    # The lower tail of z beyond -e is the upper tail of conj(z) beyond e.
    crest = height if y >= 0.0 else -height
    upper, upper_log, upper_capped = _upper_end(
        p, y, sigma, crest + reach, math.floor(crest / _T_GRID) + 1, log_budget,
        log_weight)
    if y == 0.0:
        lower, lower_log, lower_capped = upper, upper_log, upper_capped
    else:
        lower, lower_log, lower_capped = _upper_end(
            p, -y, sigma, reach - crest, math.floor(-crest / _T_GRID) + 1, log_budget,
            log_weight)
    tail = (math.exp(upper_log) + math.exp(lower_log)
            if upper_log < _LOG_MAX and lower_log < _LOG_MAX else math.inf)
    return Truncation(-lower, upper, tail, upper_capped or lower_capped)


# The lines Re w = sigma/4 and Re w = sigma + 3 whose integrals of |f| bound
# the G line's aliasing error at levels 0 and 1 (see _start_certificate):
# the left one 3/4 of the way from the line to the branch point at w = 0,
# the right one far enough that e^{2 pi 3/h} outweighs the growth of
# e^{w^2}.  Of the pairs measured (left at 0.1 to 0.65 sigma, right at 1 to
# 4 past it), this one certifies the most lines at the start step: 71% of
# plane-mix's and 302 of the 41 x 41 lattice's 462, against 58% and 218 at
# sigma/2, sigma + 2.
_LEFT_LINE = 0.25
_RIGHT_SHIFT = 3.0
_LOG_ALIAS_RIGHT = math.log(math.expm1(2.0 * math.pi * _RIGHT_SHIFT / _T_GRID))
# Halving h squares e^{2 pi a/h}: expm1(2x) = expm1(x) (expm1(x) + 2), so a
# part of level 1's bound is level 0's over expm1(x) + 2, e^x + 1 (its gain).
_GAIN_RIGHT = math.log(math.exp(2.0 * math.pi * _RIGHT_SHIFT / _T_GRID) + 1.0)
# Past a window's end e, the nodes beyond it weigh at most 1 + 4h/sqrt(pi)
# times e's tail bound and the end node's half weight at most (2e + sqrt 2)
# h/2 times it (see _start_certificate): this, plus h e, at h = _T_GRID and
# at h = _T_GRID/2.
_DISCRETE_TAIL = 1.0 + 4.0 * _T_GRID / math.sqrt(math.pi) + 0.5 * _T_GRID * math.sqrt(2.0)
_DISCRETE_TAIL_FINE = 1.0 + 2.0 * _T_GRID / math.sqrt(math.pi) + 0.25 * _T_GRID * math.sqrt(2.0)
# A line that neither level's bound certifies: its first level, and no bound.
_UNCERTIFIED = (0, _INF)


def _start_certificate(z: complex, sigma: float, trunc: Truncation, tol: float,
                       log_weight: bool) -> tuple[int, float]:
    """The first level, 0 or 1, whose trapezoid sum over ``trunc``'s window
    a rigorous bound certifies against the integral over the whole line, and
    that bound: at the start step h = _T_GRID where its bound is at most
    _RICHARDSON_MARGIN * tol, else at h = _T_GRID/2 where that one is;
    ``_UNCERTIFIED`` where neither is, where the driver would take no bound
    (each level's parts are summed only that far).

    f is analytic in Re w > 0 and decays like e^{-t^2} along every line
    Re w = s > 0, so the trapezoid sum over all nodes k*h errs by at most
    M(s)/(e^{2 pi (sigma - s)/h} - 1) + M(s')/(e^{2 pi (s' - sigma)/h} - 1)
    for any 0 < s < sigma < s' (Trefethen & Weideman, SIAM Rev. 56 (2014),
    Thm 5.1, one side of the strip per sign of the aliased frequency),
    where M(s) is the integral of |f| over the line Re w = s.  Here s =
    sigma/4 and s' = sigma + 3, and M is bounded by the tail bound of
    ``_log_tail`` on both sides of the saddle height; with ``log_weight`` it
    bounds the log weight's integrand, which covers the plain one.  The
    same four parts of M bound both levels, each over its own alias factor,
    so a line the start step misses costs four more exponentials, no second
    pass over the strip.

    The window then drops its end nodes' half weights and the nodes beyond
    its ends.  Past an end e (measured away from the window), |f(e + d)| <=
    |f(e)| g(d) with g(d) = e^{-kappa d - d^2} and kappa <= 2e, and |f(e)|
    J(kappa) is the tail bound ``trunc`` holds for e, J the integral of g
    (``_log_tail``).  h times the sum of g over d = h, 2h, ... is at most
    J(kappa) where g falls (kappa >= 0), and J(kappa) + 2h e^{kappa^2/4} <=
    (1 + 4h/sqrt(pi)) J(kappa) where it first rises.  The end node's own
    g(0) = 1 is below (kappa + sqrt 2) J(kappa) <= (2e + sqrt 2) J(kappa)
    (the Mills ratio bound, A&S 7.1.13) where kappa >= 0, and below
    (2/sqrt(pi)) J(kappa) where it is not.  So both ends together weigh at
    most _DISCRETE_TAIL + h max(e) times the tail bound (_DISCRETE_TAIL_FINE
    at level 1).  A capped window is not certified.
    """
    lower, upper, tail, capped = trunc
    budget = _RICHARDSON_MARGIN * tol
    reach = max(upper, -lower)
    total = (_DISCRETE_TAIL + _T_GRID * reach) * tail
    fine = (_DISCRETE_TAIL_FINE + 0.5 * _T_GRID * reach) * tail
    if capped or not fine <= budget:
        return _UNCERTIFIED
    log_budget = log(budget)
    p, y = 0.5 - z.real, z.imag
    crest = cmath.sqrt(complex(-p, abs(y))).imag
    if y < 0.0:
        crest = -crest
    hyp = hypot(p, y)
    alias = expm1(2.0 * pi * (1.0 - _LEFT_LINE) * sigma / _T_GRID)
    parts = []      # the logs of level 0's four parts
    for line, log_alias in ((_LEFT_LINE * sigma, log(alias)),
                            (sigma + _RIGHT_SHIFT, _LOG_ALIAS_RIGHT)):
        # M over t > crest, and over t < crest as the upper tail at conj(z)
        # beyond -crest, where |f| and its slope are those at crest mirrored.
        lm, slope, _ = _log_magnitude(p, y, line, crest, log_weight)
        lm -= log_alias
        for lead, end, rate in ((y + hyp, crest, slope), (hyp - y, -crest, -slope)):
            part = lm + _log_spread(p, line, end, log_weight, lead, rate)
            parts.append(part)
            if part > log_budget:
                total = _INF
            else:
                total += exp(part)
    if total <= budget:
        return 0, total
    left = log(alias + 2.0)
    for part, gain in zip(parts, (left, left, _GAIN_RIGHT, _GAIN_RIGHT)):
        part -= gain
        if part > log_budget:
            return _UNCERTIFIED
        fine += exp(part)
    return (1, fine) if fine <= budget else _UNCERTIFIED


# Exact summation (mantissas binned by exponent, as in R. Neal, "Fast exact
# summation using small and large superaccumulators", arXiv:1505.05571).
# frexp writes a finite double as m * 2^e with 0.5 <= |m| < 1 and e >= -1073.
# e names a 32-bit digit, counted in units of 2^-1152, and a shift r < 32
# within it; m * 2^r is cut into three integer pieces below 2^32, for that
# digit and the two above it.  A float bincount adds each column of pieces;
# with at most 2^17 values a block, every partial sum is an integer below
# 2^49 and a digit's three columns stay below 2^51, so each digit is exact.
# The digits of a row then make one Python integer, and one correctly rounded
# division turns it into the float that math.fsum returns, subnormal or not,
# raising OverflowError past the double range.
_DIGIT_BIAS = 34          # e >= -1073 puts e >> 5 at -34 or above
_DIGITS = 70              # e >> 5 spans 67 digits and the pieces two more; even
_UNIT = 1 << (32 * _DIGIT_BIAS + 64)  # what digit 0 counts, as a divisor
_BLOCK = 1 << 17          # complex values per bincount pass
# Digits go to Python as 64-bit words of digit + 2^52, in two interleaved sets.
_WORD_BIAS = sum(1 << (52 + 32 * k) for k in range(_DIGITS))


def _exact_sums(values: np.ndarray, slots: np.ndarray | None = None,
                count: int = 1) -> list[int]:
    """Exact sums of finite complex ``values`` (1-D) per slot, in units of 1/_UNIT.

    ``slots`` names the slot in ``range(count)`` of each value (slot 0 for
    all when None).  Returns the real and then the imaginary sum of each
    slot in turn; ``total / _UNIT`` rounds one to the nearest float.
    """
    size = 2 * count * _DIGITS
    width = 4 * _DIGITS
    sums = [0] * (2 * count)
    for start in range(0, values.size, _BLOCK):
        block = values[start:start + _BLOCK]
        n = block.size
        mantissa = np.empty(2 * n)
        exponent = np.empty(2 * n, dtype=np.intc)
        np.frexp(block.real, out=(mantissa[:n], exponent[:n]))
        np.frexp(block.imag, out=(mantissa[n:], exponent[n:]))
        # Row 2s of digits sums slot s's real parts, row 2s + 1 its imaginary ones.
        digit = np.right_shift(exponent, 5, dtype=np.intp)
        real, imag = digit[:n], digit[n:]
        if slots is None:
            real += _DIGIT_BIAS
            imag += _DIGIT_BIAS + _DIGITS
        else:
            row = (2 * _DIGITS) * slots[start:start + _BLOCK] + _DIGIT_BIAS
            real += row
            row += _DIGITS
            imag += row
        exponent &= 31
        # In place and freed early: a block's arrays are its peak memory.
        piece = np.ldexp(mantissa, exponent, out=mantissa)  # |m * 2^r| < 2^31
        del exponent
        part = np.trunc(piece)
        piece -= part
        piece *= 2.0 ** 32
        top = np.bincount(digit, part, size)
        np.trunc(piece, out=part)
        piece -= part
        piece *= 2.0 ** 32
        middle = np.bincount(digit, part, size)
        digits = np.bincount(digit, piece, size)
        by_row = digits.reshape(-1, _DIGITS)
        by_row[:, 1:] += middle.reshape(-1, _DIGITS)[:, :-1]
        by_row[:, 2:] += top.reshape(-1, _DIGITS)[:, :-2]
        digits += 2.0 ** 52
        words = digits.astype(np.int64).reshape(-1, _DIGITS // 2, 2)
        even, odd = words[:, :, 0].tobytes(), words[:, :, 1].tobytes()
        for row in range(2 * count):
            cut = slice(row * width, (row + 1) * width)
            sums[row] += (int.from_bytes(even[cut], "little")
                          + (int.from_bytes(odd[cut], "little") << 32) - _WORD_BIAS)
    return sums


# Kept terms, over all the points of a refinement pass, below which the pass
# goes to math.fsum rather than the bins (_pass_sums).  A bin pass costs some
# 50-80 us whatever its length; fsum about 0.2 us a term.  Measured on one
# G-line point's level-1 pass (2-core x86_64 VM, Python 3.11, numpy 2.4),
# fsum took 25-27 us against 53-76 us binned at 101 terms and 135-203 us
# against 67-104 us at 801; they crossed between 250 and 400 terms.  Over
# 1,200 plane-mix operations, each timed under every cutover in turn (min of
# 3), the mean took 38% longer binned alone, 10% at 128 and 2% at 192 than
# at this cutover, and from 256 up to fsum alone moved by at most 1.2%.
_FSUM_TERMS = 256


class _Grid(NamedTuple):
    """Level-0 nodes ``origin + k*step`` for the integers k in [k_lo, k_hi]."""

    origin: float
    k_lo: int
    k_hi: int
    step: float


def _window_grid(lower: float, upper: float, step: float) -> _Grid:
    # The multiples of step around [lower, upper]: integer k about origin 0
    # keep t and -t exact negatives, so conjugate symmetry holds bit for bit.
    return _Grid(0.0, math.floor(lower / step), math.ceil(upper / step), step)


def _line_grid(spec: ContourSpec) -> _Grid:
    # [-T, T] is cut into 2n equal steps; a window keeps the step.
    if spec.window is not None:
        return _window_grid(*spec.window, spec.step)
    n = max(2, math.ceil(spec.half_width / spec.step))
    return _Grid(0.0, -n, n, spec.half_width / n)


def _romberg_row(previous: list[complex], trapezoid: complex) -> list[complex]:
    """Next row of the Romberg table: eliminate h^2, h^4, ... in turn."""
    row = [trapezoid]
    for j, below in enumerate(previous, start=1):
        row.append(row[-1] + (row[-1] - below) / (4.0 ** j - 1.0))
    return row


# Level-0 nodes one chunk of points may hold.  A chunk's kernel calls and
# the node values it keeps grow with this budget (its first call takes
# twice its level-0 nodes); each refinement step costs one call per
# integrand whatever the number of points in the chunk.
_CHUNK_NODES = 4096


def _chunks(points: Sequence[_Point]):
    """Consecutive runs of points within the level-0 node budget, one point at least."""
    start = budget = 0
    for index, point in enumerate(points):
        size = point.grid.k_hi - point.grid.k_lo + 1
        if index > start and budget + size > _CHUNK_NODES:
            yield range(start, index)
            start, budget = index, 0
        budget += size
    if start < len(points):
        yield range(start, len(points))


def _node_error(nodes: np.ndarray, news, level: int) -> QuadratureNodeError | None:
    """The error of the first non-finite value of ``news`` at ``nodes``; None
    where all are finite, even if their sum is not (see ``_pass_sums``).

    On level 1 the even k, level 0's nodes, are looked at first: the error
    names a node of the coarsest level that has a non-finite one.  Its
    ``_mirror_node`` is the node that the mirror image of the line, t -> -t,
    would name: the negation of the last such node.
    """
    finite = [np.isfinite(new) for new in news]
    looks = (slice(None, None, 2), slice(None)) if level == 1 else (slice(None),)
    for look in looks:
        for ok in finite:
            if not ok[look].all():
                bad = nodes[look][~ok[look]]
                error = _nonfinite_node(float(bad[0]))
                error._mirror_node = 0.0 - float(bad[-1])
                return error
    return None


def _nonfinite_node(node: float) -> QuadratureNodeError:
    return QuadratureNodeError(
        f"integrand returned a non-finite value at node t={node!r}", node=node)


class _Point:
    """One integral of ``_trapezoid_joint``: what its caller sets, and its
    refinement state (its last level and that level's step, kept trapezoid
    terms, their mass and sums per integrand).

    ``grid`` holds its level-0 nodes; ``tol`` is its absolute tolerance, or
    a function of its level-0 sum that gives one; ``romberg`` asks for
    Romberg extrapolation; ``noise`` scales its roundoff floor;
    ``certificate`` is a pair (level, bound), a level, 0 or 1, and a
    rigorous bound on the error of that level's sum for every integrand
    (``_UNCERTIFIED``: none); ``rate`` is the phase rate at the crest of its
    integrand (``_crest_rate``).  A point serves one driver call.
    """

    __slots__ = ("grid", "tol", "floor", "romberg", "rate", "certificate", "level", "h",
                 "values", "added", "mass", "exact", "sums", "rows")

    def __init__(self, grid: _Grid, tol: float | Callable[[complex], float], *,
                 romberg: bool = False, noise: float = 1.0,
                 certificate: tuple[int, float] = _UNCERTIFIED, rate: float = 0.0):
        self.grid = grid
        self.tol = tol
        self.floor = _CANCEL_FLOOR * _EPS * noise
        self.romberg = romberg
        self.rate = rate
        # A certified point's first level is the one its bound certifies,
        # every other point's 1, and its certificate inf.
        level, bound = certificate
        if bound < _INF and bound <= _RICHARDSON_MARGIN * tol:
            self.certificate, self.level = bound, level - 1
        else:
            self.certificate, self.level = _INF, 0
        # Exact running sums of the terms, real and imaginary per
        # integrand, once the bins sum this point; None before and after fsum.
        self.exact: list[int] | None = None

    def next_nodes(self) -> np.ndarray:
        """The nodes that the point's next kernel call evaluates, on its next
        level, whose number and step ``h`` the point takes.

        Level 0 evaluates the grid, level 1 the whole grid at half its step,
        level 0's nodes at its even k; each later level adds the odd k.
        """
        grid = self.grid
        level = self.level = self.level + 1
        k_lo, k_hi = grid.k_lo << level, grid.k_hi << level
        nodes = (np.arange(k_lo, k_hi + 1, dtype=float) if level <= 1
                 else np.arange(k_lo + 1, k_hi, 2, dtype=float))
        self.h = math.ldexp(grid.step, -level)
        nodes *= self.h
        if grid.origin:
            nodes += grid.origin
        return nodes

    def keep(self, news: list) -> bool:
        """Keep the integrands' new values as trapezoid terms, and each
        integrand's mass, the sum of |term| over the level; whether the
        masses add up to a finite number, as they do unless a value is not
        finite or they pass the double range.

        The first level keeps the arrays themselves, which the driver owns,
        with the end weights 1/2 applied at level 0's ends; a later level's
        nodes are interior, so its terms are its values, interleaved with
        the kept ones, and ``added`` holds them for the bins.
        """
        if self.level <= 1:
            for terms in news:
                terms[0] *= 0.5         # its two ends
                terms[-1] *= 0.5
            self.values = news
        else:
            values = self.values
            for i, new in enumerate(news):
                merged = np.empty(2 * new.size + 1, dtype=complex)
                merged[0::2] = values[i]
                merged[1::2] = new
                values[i] = merged
            self.added = news
        mass = self.mass = [float(np.add.reduce(np.abs(terms))) for terms in self.values]
        return sum(mass) < _INF

    def add_exact(self, sums: list[list[int]], slot: int, step: float) -> list[complex]:
        """Add slot ``slot``'s exact sums, from one ``_exact_sums`` pass per
        integrand, to the running sums; those, each rounded once, times ``step``."""
        part = [total for each in sums for total in each[2 * slot:2 * slot + 2]]
        exact = self.exact = (part if self.exact is None
                              else [total + more for total, more in zip(self.exact, part)])
        return [complex(step * (exact[j] / _UNIT), step * (exact[j + 1] / _UNIT))
                for j in range(0, len(exact), 2)]

    def steps(self) -> tuple[float, ...]:
        """The step of each level this step settles: levels 0 and 1 on an
        uncertified point's first step, level 0 from the even terms and 1
        from all; else the point's own level alone.  The fsum and the bin
        routes both read them here."""
        if self.level == 1 and self.certificate == _INF:
            return self.grid.step, self.h
        return (self.h,)

    def fsum_levels(self) -> list[list[complex]]:
        """The trapezoid sum by fsum of the kept terms, per integrand, of each
        level this step settles; drops the running sum, so the next bin
        pass takes every kept term."""
        self.exact = None
        steps = self.steps()
        if len(steps) == 1:
            (h,) = steps
            return [[complex(h * fsum(v.real.tolist()), h * fsum(v.imag.tolist()))
                     for v in self.values]]
        coarse, fine, (h0, h) = [], [], steps
        for v in self.values:
            # Each part converted once; level 0 is its even terms.
            re, im = v.real.tolist(), v.imag.tolist()
            coarse.append(complex(h0 * fsum(re[0::2]), h0 * fsum(im[0::2])))
            fine.append(complex(h * fsum(re), h * fsum(im)))
        return [coarse, fine]

    def settle(self, sums, max_refinements: int):
        """Take the trapezoid sums of the levels this step settles; the outcome once the point stops.

        ``sums`` holds one list per level, the last one the point's level's:
        levels 0 and 1 on an uncertified point's first step, one level
        otherwise; or an overflow error, the outcome.  Else the outcome is
        one ``QuadratureResult`` per integrand; None while the point goes on
        refining toward the tolerance the first step fixes.  A certified point
        settles its first level with its certificate as the difference,
        which meets the tolerance, so it stops there.  An integrand whose
        roundoff floor, and so its effective tolerance, is past the double range
        cannot converge, at this level or a finer one, whose mass holds
        this one's: the point stops there, unconverged.
        """
        if isinstance(sums, QuadratureNodeError):
            return sums
        level = self.level
        if level <= 1:
            last, totals = sums[0], sums[-1]
            if callable(self.tol):
                self.tol = self.tol(last[0])    # from the first integrand's level 0
            if self.romberg:
                self.rows = [[total] for total in last]
        else:
            last, (totals,) = self.sums, sums
        if self.romberg:
            self.rows = [_romberg_row(row, total) for row, total in zip(self.rows, totals)]
            totals = [row[-1] for row in self.rows]
        self.sums = totals
        h, tol, evaluations, bound = self.h, self.tol, self.values[0].size, self.certificate
        results, done, refining = [], True, level < max_refinements
        # A step that does not resolve the crest's phase aliases it, and two
        # such levels can alias it alike: their difference proves nothing.
        unresolved = bound == _INF and h * self.rate >= pi
        for total, previous, mass in zip(totals, last, self.mass):
            diff = (_INF if unresolved else abs(total - previous) if bound == _INF
                    else bound)
            floor = self.floor * (h * mass)
            tol_eff = max(tol, floor)
            converged = diff <= _RICHARDSON_MARGIN * tol_eff < _INF
            done = done and converged
            refining = refining and tol_eff < _INF
            results.append(QuadratureResult(total, max(diff, floor), evaluations, converged, h,
                                            tol_eff))
        return None if refining and not done else results


def _pass_sums(points: list) -> list:
    """The trapezoid sums of the levels a pass settles, per point of
    ``points`` that this pass keeps terms of, as ``_Point.settle`` takes
    them: by fsum below ``_FSUM_TERMS`` kept terms in all, else by one
    ``_exact_sums`` pass per integrand, a slot per level the point settles
    (``_Point.steps``; two on an uncertified point's first step, the even
    and the odd k, one otherwise).  A binned point adds its new terms to its
    running sum, or all its kept ones where it has none (its first level,
    or after fsum).  Both routes give the same bits.  A pass whose points
    have all failed sums nothing.  fsum refuses partial sums past the
    double range, even where the sum fits, so such a pass goes to the exact
    bins; a point whose sum does not fit gets its error in place of its sums.
    """
    if not points or sum([point.values[0].size for point in points]) < _FSUM_TERMS:
        try:
            return [point.fsum_levels() for point in points]
        except OverflowError:
            pass
    binned = [point.values if point.exact is None else point.added for point in points]
    steps_of = [point.steps() for point in points]
    pers = [len(steps) for steps in steps_of]
    firsts = list(itertools.accumulate(pers, initial=0))
    sizes = [terms[0].size for terms in binned]
    if len(binned) == 1:    # its terms go in as they are: no copy of a long level
        slots = np.arange(sizes[0]) & 1 if pers[0] == 2 else None
    else:
        slots = np.repeat(firsts[:-1], sizes)
        if 2 in pers:
            slots += np.concatenate([np.arange(size) & (per - 1)
                                     for size, per in zip(sizes, pers)])
    sums = [_exact_sums(np.concatenate(values) if len(values) > 1 else values[0],
                        slots, firsts[-1])
            for values in zip(*binned)]
    outcomes = []
    for first, steps, point in zip(firsts, steps_of, points):
        try:
            outcomes.append([point.add_exact(sums, first + j, step)
                             for j, step in enumerate(steps)])
        except OverflowError:
            outcomes.append(QuadratureNodeError(
                "the trapezoid sum of finite values left the double range"))
    return outcomes


def _refine_chunk(fs, points: dict, outcomes: list, max_refinements: int) -> None:
    """Halve the step of every point (index: _Point) of a chunk until each one stops.

    Each pass takes each point to its next level, level 1 first (it
    settles levels 0 and 1), or for a certified point the level its bound
    certifies, where it stops: one kernel call per integrand on the new
    nodes of the points still refining; each point keeps its terms and
    their mass, a point whose masses are not all finite is looked at for a
    non-finite node (``_node_error``) and, with one, leaves the pass; then
    one ``_pass_sums`` over the rest.  A chunk of one point takes the same steps without the per-pass lists: it
    hands the kernel its nodes and its index as ``rows``, scalars, and none
    of the joining and splitting, which cost about 5% of a small integral.
    """
    if len(points) == 1:
        ((p, point),) = points.items()
        while True:
            nodes = point.next_nodes()
            news = [np.asarray(f(nodes, p), dtype=complex) for f in fs]
            outcome = None if point.keep(news) else _node_error(nodes, news, point.level)
            if outcome is None:
                (sums,) = _pass_sums((point,))
                outcome = point.settle(sums, max_refinements)
            if outcome is not None:
                outcomes[p] = outcome
                return
    while points:
        active = list(points.items())
        nodes = [point.next_nodes() for _, point in active]
        sizes = [block.size for block in nodes]
        t, rows = np.concatenate(nodes), np.repeat([p for p, _ in active], sizes)
        cuts = list(itertools.accumulate(sizes[:-1]))
        parts = zip(*(np.split(np.asarray(f(t, rows), dtype=complex), cuts) for f in fs))
        kept = []
        for (p, point), block, part in zip(active, nodes, parts):
            error = (None if point.keep(list(part))
                     else _node_error(block, part, point.level))
            if error is None:
                kept.append((p, point))
            else:           # out of the sums, so it cannot spoil its chunk-mates'
                outcomes[p] = error
                del points[p]
        for (p, point), sums in zip(kept, _pass_sums([point for _, point in kept])):
            outcome = point.settle(sums, max_refinements)
            if outcome is not None:
                outcomes[p] = outcome
                del points[p]


@np.errstate(all="ignore")      # as a decorator it costs half what a with block does
def _trapezoid_joint(fs: Sequence[Callable], points: Sequence[_Point],
                     max_refinements: int) -> list:
    """Trapezoid-with-halving on several integrands at many points.

    Each ``_Point`` integrates over its grid to its tolerance in at most
    ``max_refinements`` halvings (one cap for all points, checked by the
    caller).  A point whose certificate's bound is at most
    _RICHARDSON_MARGIN * tol evaluates that level's nodes alone, one kernel
    call per integrand, and settles there: value that level's sum alone,
    err_estimate max(bound, floor), step_used that level's step.  Every
    other point's first kernel call evaluates the grid at half its step and
    settles two levels: level 0 from the terms at even k, level 1 from all
    of them; a tol function turns level 0's sum (the first integrand's)
    into the tolerance then, so a relative tolerance costs no pass of its
    own.  A level whose step h has h * rate >= pi aliases the oscillation
    at the crest, and two such levels may alias it to the same frequency
    and agree on a wrong sum, so its Richardson difference counts as inf:
    the point refines on, or stops at ``max_refinements`` unconverged with
    err_estimate inf.  With ``romberg``, each level's trapezoid sum is
    replaced by the diagonal of a Romberg table, for integrands whose
    interval ends carry Euler-Maclaurin terms in h^2.  Every integrand of a
    point sees the same nodes each level, and the point stops only when
    all of them meet their effective tolerance; sharing nodes lets
    ratio-type consumers (digamma) cancel common error.  The levels are
    nested: after the first, only the new odd-k nodes are evaluated and
    interleaved with the kept terms, so every node costs one kernel
    evaluation however many halvings follow.

    Points are refined together in chunks of about ``_CHUNK_NODES`` level-0
    nodes, one point as a chunk of one, by the same steps (``_refine_chunk``,
    whose chunk of one builds no per-pass lists).  Each refinement step
    calls each integrand once as ``f(t, rows)`` on the new nodes of the
    chunk's points still refining, concatenated in point order: ``rows`` is
    the point's index in a chunk of one point, else an array naming the
    point of every node.  An integrand returns a new array each call: the
    driver keeps it, its end weights written in place, with no copy.  Each
    point keeps its own terms, their mass (sum of |term|, which also tells
    it whether a node is not finite), exact sums, roundoff floor and
    Richardson stop, so its result does not depend on its chunk-mates.
    One summation pass per step (``_pass_sums``) sums the terms of them
    all, by ``fsum`` below ``_FSUM_TERMS`` terms in all and binned above.

    Returns, per point, one ``QuadratureResult`` per integrand, or the
    QuadratureNodeError of its first non-finite node on the coarsest level
    that has one, or of a sum past the double range (its chunk-mates go
    on).  A point whose mass, and so its roundoff floor, leaves the double
    range while its sum fits stops there, unconverged.  Floating-point
    warnings are silenced, once per call: a non-finite node is reported
    that way instead.
    """
    outcomes: list = [None] * len(points)
    for chunk in (range(1),) if len(points) == 1 else _chunks(points):
        _refine_chunk(fs, {p: points[p] for p in chunk}, outcomes, max_refinements)
    return outcomes


def _only(outcomes: list) -> list[QuadratureResult]:
    """The results of a one-point ``_trapezoid_joint`` call; raises its node error."""
    (outcome,) = outcomes
    if isinstance(outcome, QuadratureNodeError):
        raise outcome
    return outcome


def trapezoid_line(f: Callable[[np.ndarray], np.ndarray], spec: ContourSpec) -> QuadratureResult:
    """Composite trapezoid over t in [-T, T] with step-halving refinement."""
    # A copy of f's values: the driver writes the end weights into the arrays it keeps.
    return _only(_trapezoid_joint((lambda t, _: np.array(f(t), dtype=complex),),
                                  [_Point(_line_grid(spec), spec.tol)], spec.max_refinements))[0]


def _lower_gamma_series(a: complex, x: float) -> tuple[complex, bool]:
    """Lower incomplete gamma(a, x) via its power series; needs x <= ~1.

    gamma(a, x) = x^a * sum_k (-x)^k / (k! (a+k)); with x <= 1 the series is
    alternating with rapidly shrinking terms, so ~40 terms reach eps.  The
    flag is false when 120 terms did not get there.
    """
    total = 0j
    term = 1.0 + 0j
    converged = False
    for k in range(120):
        total += term / (a + k)
        term *= -x / (k + 1)
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            converged = True
            break
    return cmath.exp(a * math.log(x)) * total, converged


def _ray_radial(y: complex, big_r: float, spec: ContourSpec) -> QuadratureResult:
    """J(y, R) = int_0^R r^{-y} e^{-r^2} dr, shared by both rays.

    The endpoint r = 0 carries the r^{-y} weight, so a head cell [0, H] is
    integrated analytically after the proof-style substitution v = r^2:
    int_0^H r^{-y} e^{-r^2} dr = (1/2) * lower_gamma((1-y)/2, H^2).  H is
    *fixed* at min(1, R/2) rather than shrinking with the step — a moving
    head cell reintroduces an O(h^2 * f'(H)) endpoint term that blows up for
    oscillatory pure-imaginary y.  The remaining smooth piece [H, R] is
    summed by trapezoid halving with Romberg extrapolation, since neither
    end has decayed; the result is converged only if the head series
    converged too.
    """
    a = (1.0 - y) / 2.0
    head_end = min(1.0, 0.5 * big_r)
    head, head_ok = _lower_gamma_series(a, head_end * head_end)
    n = max(4, math.ceil((big_r - head_end) / spec.step))
    grid = _Grid(head_end, 0, n, (big_r - head_end) / n)
    quad = _only(_trapezoid_joint((lambda r, _: np.exp(-y * np.log(r) - r * r),),
                                  [_Point(grid, spec.tol, romberg=True)],
                                  spec.max_refinements))[0]
    return quad._replace(value=0.5 * head + quad.value, converged=quad.converged and head_ok)


def _arc(y: complex, big_r: float, theta0: float, theta1: float,
         spec: ContourSpec) -> QuadratureResult:
    """int f(w) dw over the arc w = R e^{i theta}, theta in [theta0, theta1].

    The arc's ends meet the line and a ray where the integrand has not
    decayed, so the halving levels are combined by Romberg extrapolation.
    """
    span = theta1 - theta0
    # e^{i R^2 sin 2theta} oscillates with frequency ~2R^2; start with about
    # one node per radian of that phase so refinement never aliases.
    n = max(8, math.ceil(span / spec.step), math.ceil(span * big_r * big_r))
    log_r = math.log(big_r)

    def f(theta, _):
        w_sq = (big_r * big_r) * np.exp(2j * theta)
        return np.exp(-y * (log_r + 1j * theta) + w_sq) * (1j * big_r * np.exp(1j * theta))

    return _only(_trapezoid_joint((f,), [_Point(_Grid(theta0, 0, n, span / n), spec.tol,
                                                romberg=True)],
                                  spec.max_refinements))[0]


def _segment(y: complex, path: SegmentPath, spec: ContourSpec) -> QuadratureResult:
    """One segment integral's result (see ``integrate_segment``)."""
    if spec.window is not None:
        raise DomainError(f"the closed contour's line runs over [-half_width, "
                          f"half_width], not a window; got {spec.window!r}")
    big_r = math.hypot(spec.sigma, spec.half_width)
    big_theta = math.acos(spec.sigma / big_r)

    if path is SegmentPath.LINE_AB:
        z_equiv = (y + 1.0) / 2.0
        quad = trapezoid_line(
            lambda t: integrands.g_integrand(z_equiv, spec.sigma, t), spec
        )
        return quad._replace(value=1j * quad.value)
    if path is SegmentPath.ARC_BC:
        return _arc(y, big_r, big_theta, 0.5 * math.pi, spec)
    if path is SegmentPath.ARC_EA:
        return _arc(y, big_r, -0.5 * math.pi, -big_theta, spec)

    if y.real > 0.0:
        raise DomainError(
            f"ray through the origin requires Re(y) <= 0 for integrability, got y={y!r}"
        )
    return _ray_value(y, path, _ray_radial(y, big_r, spec))


def _ray_value(y: complex, path: SegmentPath,
               radial: QuadratureResult) -> QuadratureResult:
    """A ray's integral -i e^{-+i pi y/2} J(y, R) from the shared radial J,
    its error estimate and effective tolerance times |e^{-+i pi y/2}|.

    Its size is decided in logs before the product is formed: where it, or
    the factor e^{-+i pi y/2} alone, passes e^709 (where the product or its
    complex parts could leave the double range) the ray raises the
    QuadratureNodeError of a sum past the double range, ``node`` None.
    """
    shift = (-0.5j if path is SegmentPath.RAY_CD else 0.5j) * math.pi * y
    value = radial.value
    if shift.real > _LOG_MAX or (value and shift.real + log(abs(value)) > _LOG_MAX):
        raise QuadratureNodeError("the ray's integral or its factor e^{-+i pi y/2} "
                                  "left the double range")
    scale = math.exp(shift.real)
    return radial._replace(value=-1j * cmath.exp(shift) * value,
                           err_estimate=scale * radial.err_estimate,
                           tol_effective=scale * radial.tol_effective)


def integrate_segment(y, path: SegmentPath, spec: ContourSpec) -> QuadratureResult:
    """Path integral of w^{-y} e^{w^2} along one contour segment, as the
    QuadratureResult of its quadrature.

    The vertical segment reuses trapezoid_line (dw = i dt); the arcs are
    parametrized by angle; the two rays reduce to the shared radial integral
    J(y, R) with the constant phases e^{-+ i pi y / 2} split off:

        I_CD = -i e^{-i pi y/2} J(y, R)      (C = iR down to the origin)
        I_DE = -i e^{+i pi y/2} J(y, R)      (origin down to E = -iR)

    Rays pass through the origin, so Re(y) <= 0 is required for
    integrability there; the arcs and the vertical line have no such
    restriction.  A ray's ``converged`` also needs the head series of
    ``_ray_radial`` to converge, and its ``err_estimate`` and
    ``tol_effective`` are the radial integral's times |e^{-+i pi y/2}|.
    Raises DomainError unless y is a finite number and ``path`` a
    SegmentPath or the value of one.
    """
    y = _check_point(y, "y")
    try:
        path = SegmentPath(path)
    except ValueError:
        raise DomainError(f"path must be one of "
                          f"{', '.join(p.value for p in SegmentPath)}, got {path!r}") from None
    return _segment(y, path, spec)


def contour_loop(y, spec: ContourSpec) -> ContourLoopReport:
    """All five segment integrals of w^{-y} e^{w^2} around the closed loop.

    The integrand is entire for Re(y) <= 0 (the origin is regular or an
    integrable singularity on the rays), so the exact loop sum is zero and
    the reported ``loop_sum`` measures accumulated quadrature error.  Both
    rays share one radial integral J(y, R), computed once.
    """
    y = _check_point(y, "y")
    if y.real > 0.0:
        raise DomainError(
            f"contour_loop requires Re(y) <= 0 (analyticity inside the loop), got y={y!r}"
        )
    big_r = math.hypot(spec.sigma, spec.half_width)
    parts = [_segment(y, SegmentPath.LINE_AB, spec),
             _segment(y, SegmentPath.ARC_BC, spec)]
    radial = _ray_radial(y, big_r, spec)
    parts += [_ray_value(y, SegmentPath.RAY_CD, radial),
              _ray_value(y, SegmentPath.RAY_DE, radial),
              _segment(y, SegmentPath.ARC_EA, spec)]
    i_ab, i_bc, i_cd, i_de, i_ea = (part.value for part in parts)
    return ContourLoopReport(
        i_ab=i_ab,
        i_bc=i_bc,
        i_cd=i_cd,
        i_de=i_de,
        i_ea=i_ea,
        loop_sum=i_ab + i_bc + i_cd + i_de + i_ea,
        big_r=big_r,
        big_theta=math.acos(spec.sigma / big_r),
        converged=all(part.converged for part in parts),
    )
