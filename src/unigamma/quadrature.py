"""Truncated-line trapezoid quadrature and the closed-contour segments.

The improper integrals over t in (-inf, inf) are replaced by [-T, T] with T
chosen from an analytic majorant of the integrand, then summed with the
composite trapezoid rule and refined by step halving.  The integrands are
analytic in a strip around the real t-axis and Gaussian-decaying, so the
trapezoid rule converges spectrally; the Richardson difference between
successive halvings is an honest (if slightly conservative) error estimate.

One driver, ``_trapezoid_joint``, does every halving: the line, the two
rays and the two arcs of the closed contour, and the Laplace cross-check.
Its levels are nested -- nodes are ``origin + k*h`` over integer k, so
halving keeps every old node at an even k and evaluates only the odd k --
and ``evaluations`` counts each node once.  The Laplace integrand is cut
off at +-T where it has not decayed, so its Euler-Maclaurin endpoint
terms hold plain halving to O(h^2); that path extrapolates the level sums
with a Romberg table instead, which removes h^2, h^4, ... in turn.  The
contour rays keep plain halving (their residual must keep shrinking as
``tol`` tightens).

Summation uses ``math.fsum`` (exactly rounded), which has two consequences
worth relying on: results are bit-reproducible regardless of evaluation
order, and exactly antisymmetric node contributions cancel exactly.

One roundoff floor, ``16*eps*int |f|``, serves both the convergence gate
and the error estimate: the gate enforces the *effective* tolerance
``max(tol, floor)`` and ``err_estimate`` is ``max(Richardson difference,
floor)``.  The floor covers the kernels' few-ulp pointwise error summed over
the line, so an estimate below it would claim more than the nodes carry.
For heavily cancelling integrands (deep left half-plane z) the requested
absolute tolerance may lie below what double precision can represent of the
summand mass; converging to the roundoff floor is then reported as
convergence against the recorded effective tolerance rather than a silent
failure or a fake success at the unreachable one.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace
from math import fsum
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
_T_GRID = 0.5


@dataclass(frozen=True)
class ContourSpec:
    """Quadrature configuration: abscissa, truncation, step, tolerance."""

    sigma: float = 1.0
    half_width: float = 6.0
    step: float = 0.25
    tol: float = 1e-12
    max_refinements: int = 12

    def __post_init__(self):
        if not (0.0 < self.sigma <= 8.0) or not math.isfinite(self.sigma):
            raise DomainError(
                f"sigma must lie in (0, 8], got {self.sigma!r} "
                "(exp(sigma**2) must stay far from double overflow)"
            )
        if not math.isfinite(self.half_width) or self.half_width < self.sigma:
            raise DomainError(
                f"half_width must be finite and >= sigma, got {self.half_width!r}"
            )
        if not (0.0 < self.step <= self.half_width):
            raise DomainError(f"step must lie in (0, half_width], got {self.step!r}")
        if not (self.tol > 0.0) or not math.isfinite(self.tol):
            raise DomainError(f"tol must be a positive finite real, got {self.tol!r}")
        if int(self.max_refinements) != self.max_refinements or self.max_refinements < 1:
            raise DomainError(
                f"max_refinements must be an integer >= 1, got {self.max_refinements!r}"
            )


@dataclass(frozen=True)
class QuadratureResult:
    """One line integral: value, error estimate, and convergence diagnostics.

    ``step_used`` and ``tol_effective`` record the step after refinement and
    the tolerance actually enforced (the requested one, raised to the
    cancellation floor when roundoff dominates); ``node_peak`` is the largest
    integrand magnitude seen on the final grid, the raw ingredient of the
    cancellation estimate.
    """

    value: complex
    err_estimate: float
    evaluations: int
    converged: bool
    step_used: float
    tol_effective: float
    node_peak: float


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
    """Selected half-width plus a flag for hitting the search cap."""

    half_width: float
    capped: bool


def _log_majorant(z: complex, sigma: float, t: float, *, log_weight: bool) -> float:
    """log of the pointwise bound (sigma^2+t^2)^p e^{pi|Im z|} e^{sigma^2-t^2}."""
    p = 0.5 * (1.0 - 2.0 * z.real)
    u = sigma * sigma + t * t
    lm = p * math.log(u) + math.pi * abs(z.imag) + sigma * sigma - t * t
    if log_weight:
        # |2 Log w| <= ln(sigma^2+t^2) + pi on the line.
        lm += math.log(abs(math.log(u)) + math.pi)
    return lm


def tail_bound(z, sigma: float, half_width: float, *, log_weight: bool = False) -> float:
    """Rigorous bound on the |t| > half_width tail of the G-line integral.

    For p <= 0 the majorant is dominated by e^{T^2 - t^2} <= e^{-2T(t-T)} on
    the tail, giving majorant(T)/(2T); for p > 0 the polynomial factor is
    folded into a half-Gaussian decay, giving majorant(T)/T provided T sits
    beyond the majorant's crest (select_truncation's search floor enforces
    that).
    """
    z = complex(z)
    p = 0.5 * (1.0 - 2.0 * z.real)
    lm = _log_majorant(z, sigma, half_width, log_weight=log_weight)
    if lm > 700.0:
        return math.inf
    return math.exp(lm) / ((2.0 * half_width) if p <= 0 else half_width)


def select_truncation(z, sigma: float, tol: float, *, log_weight: bool = False) -> Truncation:
    """Smallest half-width T on a 0.5-grid whose tail bound is <= tol.

    ``tol`` is the tail budget itself; callers that split an overall target
    between tail and discretization pass their tail share here.  The search
    starts at max(sigma + 3, crest + 1) so the p > 0 branch of tail_bound is
    valid, and caps at T = 200 (flagged) for pathological inputs.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got {z!r}")
    if not (0.0 < sigma <= 8.0):
        raise DomainError(f"sigma must lie in (0, 8], got {sigma!r}")
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tol must be a positive finite real, got {tol!r}")
    p = 0.5 * (1.0 - 2.0 * z.real)
    crest = math.sqrt(max(2.0 * p - sigma * sigma, 0.0))
    start = max(sigma + 3.0, crest + 1.0)
    half_width = math.ceil(start / _T_GRID) * _T_GRID
    while half_width < TRUNCATION_CAP and tail_bound(
        z, sigma, half_width, log_weight=log_weight
    ) > tol:
        half_width += _T_GRID
    if tail_bound(z, sigma, half_width, log_weight=log_weight) > tol:
        return Truncation(TRUNCATION_CAP, True)
    return Truncation(half_width, False)


def _fsum_trapezoid(values: np.ndarray, step: float) -> complex:
    re = values.real.copy()
    im = values.imag.copy()
    re[0] *= 0.5
    re[-1] *= 0.5
    im[0] *= 0.5
    im[-1] *= 0.5
    return complex(step * fsum(re.tolist()), step * fsum(im.tolist()))


class _Grid(NamedTuple):
    """Level-0 nodes ``origin + k*step`` for the integers k in [k_lo, k_hi]."""

    origin: float
    k_lo: int
    k_hi: int
    step: float


def _romberg_row(previous: list[complex], trapezoid: complex) -> list[complex]:
    """Next row of the Romberg table: eliminate h^2, h^4, ... in turn."""
    row = [trapezoid]
    for j, below in enumerate(previous, start=1):
        row.append(row[-1] + (row[-1] - below) / (4.0 ** j - 1.0))
    return row


def _trapezoid_joint(
    fs: Sequence[Callable[[np.ndarray], np.ndarray]],
    spec: ContourSpec,
    *,
    grid: _Grid | None = None,
    romberg: bool = False,
) -> list[QuadratureResult]:
    """Trapezoid-with-halving on several integrands over shared nodes.

    All integrands see identical node sets each level and the refinement
    stops only when every one of them meets its effective tolerance; sharing
    nodes lets ratio-type consumers (digamma) cancel common error.  The
    levels are nested: after the first, only the new odd-k nodes are
    evaluated and interleaved with the kept values, so every node costs
    one kernel evaluation however many halvings follow.  ``grid`` defaults
    to the symmetric line [-T, T] of ``spec``.  ``romberg`` replaces each
    level's trapezoid sum by the diagonal of a Romberg table, for
    integrands whose interval ends carry Euler-Maclaurin terms in h^2.
    """
    if grid is None:
        # Symmetric integer k about origin 0 make t and -t exact negatives,
        # so conjugate symmetry survives bit-for-bit.
        n = max(2, math.ceil(spec.half_width / spec.step))
        grid = _Grid(0.0, -n, n, spec.half_width / n)
    count = len(fs)
    values: list[np.ndarray] = []
    sums = [0j] * count
    rows: list[list[complex]] = [[] for _ in range(count)]
    diffs = [math.inf] * count
    floors = [0.0] * count
    peaks = [0.0] * count
    tol_eff = [spec.tol] * count
    step = grid.step
    nodes = grid.origin + np.arange(grid.k_lo, grid.k_hi + 1, dtype=float) * step

    for level in range(spec.max_refinements + 1):
        if level:
            step *= 0.5
            k_lo, k_hi = grid.k_lo << level, grid.k_hi << level
            nodes = grid.origin + np.arange(k_lo + 1, k_hi, 2, dtype=float) * step
        for i, f in enumerate(fs):
            new = np.asarray(f(nodes), dtype=complex)
            finite = np.isfinite(new.real) & np.isfinite(new.imag)
            if not finite.all():
                bad = float(nodes[np.argmin(finite)])
                raise QuadratureNodeError(
                    f"integrand returned a non-finite value at node t={bad!r}",
                    node=bad,
                )
            if level:
                merged = np.empty(2 * new.size + 1, dtype=complex)
                merged[0::2] = values[i]
                merged[1::2] = new
                values[i] = merged
            else:
                values.append(new)
            total = _fsum_trapezoid(values[i], step)
            if romberg:
                rows[i] = _romberg_row(rows[i], total)
                total = rows[i][-1]
            if level:
                diffs[i] = abs(total - sums[i])
            sums[i] = total
            magnitudes = np.abs(values[i])
            peaks[i] = float(magnitudes.max())
            magnitudes[0] *= 0.5
            magnitudes[-1] *= 0.5
            floors[i] = _CANCEL_FLOOR * _EPS * (step * float(np.sum(magnitudes)))
        if level:
            tol_eff = [max(spec.tol, floor) for floor in floors]
            if all(d <= _RICHARDSON_MARGIN * te for d, te in zip(diffs, tol_eff)):
                break

    evaluations = values[0].size
    results = []
    for i in range(count):
        err = max(diffs[i], floors[i])
        ok = diffs[i] <= _RICHARDSON_MARGIN * tol_eff[i]
        results.append(
            QuadratureResult(
                value=sums[i],
                err_estimate=err,
                evaluations=evaluations,
                converged=ok,
                step_used=step,
                tol_effective=tol_eff[i],
                node_peak=peaks[i],
            )
        )
    return results


def trapezoid_line(f: Callable[[np.ndarray], np.ndarray], spec: ContourSpec) -> QuadratureResult:
    """Composite trapezoid over t in [-T, T] with step-halving refinement."""
    return _trapezoid_joint((f,), spec)[0]


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
    oscillatory pure-imaginary y.  The remaining smooth piece [H, R] gets the
    usual trapezoid-with-halving treatment; the result is converged only if
    the head series converged too.
    """
    a = (1.0 - y) / 2.0
    head_end = min(1.0, 0.5 * big_r)
    head, head_ok = _lower_gamma_series(a, head_end * head_end)
    n = max(4, math.ceil((big_r - head_end) / spec.step))
    grid = _Grid(head_end, 0, n, (big_r - head_end) / n)
    quad = _trapezoid_joint(
        (lambda r: np.exp(-y * np.log(r) - r * r),), spec, grid=grid
    )[0]
    return replace(quad, value=0.5 * head + quad.value,
                   converged=quad.converged and head_ok)


def _arc(y: complex, big_r: float, theta0: float, theta1: float,
         spec: ContourSpec) -> QuadratureResult:
    """int f(w) dw over the arc w = R e^{i theta}, theta in [theta0, theta1]."""
    span = theta1 - theta0
    # e^{i R^2 sin 2theta} oscillates with frequency ~2R^2; start with about
    # one node per radian of that phase so refinement never aliases.
    n = max(8, math.ceil(span / spec.step), math.ceil(span * big_r * big_r))
    log_r = math.log(big_r)

    def f(theta):
        w_sq = (big_r * big_r) * np.exp(2j * theta)
        return np.exp(-y * (log_r + 1j * theta) + w_sq) * (1j * big_r * np.exp(1j * theta))

    return _trapezoid_joint((f,), spec, grid=_Grid(theta0, 0, n, span / n))[0]


def _segment(y: complex, path: SegmentPath, spec: ContourSpec) -> tuple[complex, bool]:
    """One segment integral and whether its quadrature converged."""
    if not (math.isfinite(y.real) and math.isfinite(y.imag)):
        raise DomainError(f"y must be finite, got {y!r}")
    big_r = math.hypot(spec.sigma, spec.half_width)
    big_theta = math.acos(spec.sigma / big_r)

    if path is SegmentPath.LINE_AB:
        z_equiv = (y + 1.0) / 2.0
        quad = trapezoid_line(
            lambda t: integrands.g_integrand(z_equiv, spec.sigma, t), spec
        )
        return 1j * quad.value, quad.converged
    if path is SegmentPath.ARC_BC:
        quad = _arc(y, big_r, big_theta, 0.5 * math.pi, spec)
        return quad.value, quad.converged
    if path is SegmentPath.ARC_EA:
        quad = _arc(y, big_r, -0.5 * math.pi, -big_theta, spec)
        return quad.value, quad.converged

    if y.real > 0.0:
        raise DomainError(
            f"ray through the origin requires Re(y) <= 0 for integrability, got y={y!r}"
        )
    radial = _ray_radial(y, big_r, spec)
    if path is SegmentPath.RAY_CD:
        phase = cmath.exp(-0.5j * math.pi * y)
    else:
        phase = cmath.exp(0.5j * math.pi * y)
    return -1j * phase * radial.value, radial.converged


def integrate_segment(y, path: SegmentPath, spec: ContourSpec) -> complex:
    """Path integral of w^{-y} e^{w^2} along one contour segment.

    The vertical segment reuses trapezoid_line (dw = i dt); the arcs are
    parametrized by angle; the two rays reduce to the shared radial integral
    J(y, R) with the constant phases e^{-+ i pi y / 2} split off:

        I_CD = -i e^{-i pi y/2} J(y, R)      (C = iR down to the origin)
        I_DE = -i e^{+i pi y/2} J(y, R)      (origin down to E = -iR)

    Rays pass through the origin, so Re(y) <= 0 is required for
    integrability there; the arcs and the vertical line have no such
    restriction.
    """
    return _segment(complex(y), SegmentPath(path), spec)[0]


def contour_loop(y, spec: ContourSpec) -> ContourLoopReport:
    """All five segment integrals of w^{-y} e^{w^2} around the closed loop.

    The integrand is entire for Re(y) <= 0 (the origin is regular or an
    integrable singularity on the rays), so the exact loop sum is zero and
    the reported ``loop_sum`` measures accumulated quadrature error.
    """
    y = complex(y)
    if y.real > 0.0:
        raise DomainError(
            f"contour_loop requires Re(y) <= 0 (analyticity inside the loop), got y={y!r}"
        )
    parts = [_segment(y, path, spec) for path in SegmentPath]
    i_ab, i_bc, i_cd, i_de, i_ea = (value for value, _ in parts)
    big_r = math.hypot(spec.sigma, spec.half_width)
    return ContourLoopReport(
        i_ab=i_ab,
        i_bc=i_bc,
        i_cd=i_cd,
        i_de=i_de,
        i_ea=i_ea,
        loop_sum=i_ab + i_bc + i_cd + i_de + i_ea,
        big_r=big_r,
        big_theta=math.acos(spec.sigma / big_r),
        converged=all(ok for _, ok in parts),
    )
