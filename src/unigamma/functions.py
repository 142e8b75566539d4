"""Public special-function API built on the contour engine.

Every operation returns an :class:`EvalResult` carrying the value together
with quadrature diagnostics: the ContourSpec actually used after refinement
(sigma, the window [lower, upper] of t, step h, effective tolerance), an
error estimate combining the Richardson difference with the bound on both
truncated tails, and a ``converged`` flag.  Every line integral of G,
digamma and Euler's constant goes through one helper, ``_lines``, which
refines many points together (the public functions are its one-point case,
``evaluate_many`` its many-point one), and every ``converged`` flag comes
from one rule, ``_gate``: the flag is true only when the truncation was not capped, the
refinement met its (possibly roundoff-floored) tolerance, *and* that
tolerance is small enough to honor the documented accuracy box (1e-9
relative, 1e-6 absolute near the zeros on Re z in [-15, 15], |Im z| <= 100).
The box says where accuracy is promised, not where the flag goes false:
``recip_gamma(30)``, outside it, is accurate and returns ``converged=True``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import integrands
from .errors import DomainError, PoleError, UnigammaError
from .quadrature import (
    ContourSpec,
    QuadratureResult,
    Truncation,
    select_truncation,
    # tail_bound and trapezoid_line are unused here; bench/spans.py patches
    # these attributes.
    tail_bound,
    trapezoid_line,
    _line_grid,
    _only,
    _trapezoid_joint,
)

__all__ = [
    "EvalResult",
    "POLE_TOL",
    "default_sigma",
    "evaluate_many",
    "G",
    "g_tilde",
    "recip_gamma",
    "gamma",
    "gamma_sin_pi",
    "digamma",
    "euler_mascheroni",
    "laplace_recip_gamma",
]

POLE_TOL = 1e-12
# Distance to a nonpositive integer within which a G that cannot be told from
# 0 at the achievable precision is a pole; further out it is an inaccurate
# value, returned as such.
_POLE_REACH = 1e-3

# Documented accuracy box: promises used by the convergence gate.
_ABS_PROMISE = 1e-6
_REL_PROMISE = 1e-9

# Share of the tolerance given to the analytic truncation tails, half to
# each side; the discretization (Richardson-controlled) part receives the rest.
_TAIL_SHARE = 0.25

# Terms of the Laplace tail's integration-by-parts series.
_LAPLACE_TAIL_TERMS = 12
# Level-0 nodes past which laplace_recip_gamma refuses a point; its coarse
# pass and first level each hold about this many complex values.
_LAPLACE_MAX_NODES = 1 << 18


@dataclass(frozen=True)
class EvalResult:
    """Function value plus the quadrature diagnostics that produced it."""

    z: complex
    value: complex
    err_estimate: float
    spec_used: ContourSpec
    converged: bool
    evaluations: int


def default_sigma(z) -> float:
    """Contour abscissa policy: the vertical line through the saddle point.

    The integrand is e^{h(w)} with h(w) = (1-2z) Log w + w^2, whose saddle
    w0 = sqrt(z - 1/2) has h''(w0) = 4 for every z: the steepest descent
    through w0 is vertical, and near it the integrand is close to one
    Gaussian of fixed width.  So sigma = Re sqrt(z - 1/2), which on the
    real axis is sqrt(Re z - 1/2) and minimizes the t = 0 node magnitude
    (the cancellation driver).  Capped at 8 per the engine's overflow guard.

    The saddle is floored by sigma = 1, which keeps e^{sigma^2} tame, and
    for Re z < -1 by 1/sqrt(-Re z): there the value cancels toward the
    zeros at nonpositive integers while the node magnitudes grow like
    (sigma^2+t^2)^p e^{sigma^2} (p = 1/2 - Re z), so the roundoff floor is
    proportional to roughly e^{2 sigma^2}; shrinking sigma keeps it orders
    of magnitude below the values' 1e-9 scale.  On the real axis the floor
    wins wherever Re z <= 1.5, the saddle beyond.
    """
    z = complex(z)
    floor = max(0.1, 1.0 / math.sqrt(-z.real)) if z.real < -1.0 else 1.0
    return min(8.0, max(floor, cmath.sqrt(z - 0.5).real))


def _check_point(z) -> complex:
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise DomainError(f"z must be a complex number, got {z!r}") from None
    except OverflowError:
        # No repr: past 4,300 digits an int's repr raises too.
        raise DomainError("z must be finite, got a number beyond the "
                          "double range") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got {z!r}")
    return z


def _gate(quad: QuadratureResult, capped: bool, tol: float,
          magnitude: float) -> bool:
    """The one convergence verdict for a line integral at the API level.

    ``tol`` is the tolerance the quadrature ran to.  The effective
    tolerance may sit above it on the roundoff floor; that is accepted only
    while it stays inside the documented accuracy box around ``magnitude``.
    """
    return (not capped and quad.converged
            and quad.tol_effective <= max(tol, _ABS_PROMISE,
                                          _REL_PROMISE * magnitude))


class _Line(NamedTuple):
    """The line integrals of one point, as ``_lines`` returns them."""

    values: list[complex]
    errs: list[float]
    spec: ContourSpec
    converged: bool
    evaluations: int


def _line_spec(z: complex, log_weight: bool, sigma, tol: float,
               max_refinements: int) -> tuple[ContourSpec, Truncation]:
    """The spec of the G line at z and the truncation it integrates.

    The window is sized for the heaviest kernel, each side's tail to half
    the tail share of tol, or less where ``select_truncation`` caps it
    against the integrand's magnitude at the saddle height.  The start step
    is 0.25 for every z: on the saddle line the integrand is close to a
    Gaussian e^{-2 (t - Im w0)^2} whatever Im z is, and the halving does
    the rest.
    """
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tol must be a positive finite real, got {tol!r}")
    sig = default_sigma(z) if sigma is None else float(sigma)
    trunc = select_truncation(z, sig, 0.5 * _TAIL_SHARE * tol, log_weight=log_weight)
    spec = ContourSpec(
        sigma=sig,
        half_width=max(sig, trunc.half_width),
        step=0.25,
        tol=(1.0 - _TAIL_SHARE) * tol,
        max_refinements=max_refinements,
        window=(trunc.lower, trunc.upper),
    )
    return spec, trunc


def _phase_noise(z: complex, spec: ContourSpec) -> float:
    """Factor on a G-line point's roundoff floor for the kernel's phase error.

    The phase carries -Im z * log(sigma^2 + t^2), rounded to an ulp of its
    size Phi = |Im z| max|log u| over the window (u from sigma^2 to sigma^2
    plus the larger end squared); past Phi = 16 that noise outgrows the
    floor's 16 eps.  1 for real z.
    """
    lower, upper = spec.window
    u_lo = spec.sigma ** 2
    u_hi = u_lo + max(-lower, upper) ** 2
    phase = abs(z.imag) * max(abs(math.log(u_lo)), abs(math.log(u_hi)))
    return max(1.0, phase / 16.0)


def _lines(points, kernels, sigma, tol: float, max_refinements: int) -> list:
    """Integrate each ``(kernel name, log_weight)`` along the G line at each point.

    ``points`` are the line's z values, or the UnigammaError a point has
    already met, which is passed through.  The kernels of a point share
    one spec and one node set; the points share ``_trapezoid_joint``'s kernel calls.
    Returns per point a ``_Line``: each integral's value, its error
    estimate with the analytic tail added, the spec used, the joint
    ``_gate`` verdict and the kernel evaluation count.  A point that fails
    gets its UnigammaError instead.
    """
    # Looked up on every call, where a tracer may have wrapped them.
    fns = [getattr(integrands, name) for name, _ in kernels]
    log_weight = any(lw for _, lw in kernels)
    outcomes: list = list(points)
    todo, zs, specs, truncs = [], [], [], []
    for index, z in enumerate(points):
        if isinstance(z, UnigammaError):
            continue
        try:
            spec, trunc = _line_spec(z, log_weight, sigma, tol, max_refinements)
        except UnigammaError as exc:
            outcomes[index] = exc
            continue
        todo.append(index)
        zs.append(z)
        specs.append(spec)
        truncs.append(trunc)
    # ``rows`` is one point's index, or per-node indices for many points;
    # lists hand a lone point its scalars without numpy scalar boxing.
    z_of, sigma_of = zs, [spec.sigma for spec in specs]
    if len(zs) > 1:
        z_of, sigma_of = np.array(z_of, dtype=complex), np.array(sigma_of)
    quads_of = _trapezoid_joint(
        [lambda t, rows, fn=fn: fn(z_of[rows], sigma_of[rows], t) for fn in fns],
        specs, noise=[_phase_noise(z, spec) for z, spec in zip(zs, specs)])
    for index, spec, trunc, quads in zip(todo, specs, truncs, quads_of):
        if isinstance(quads, UnigammaError):
            outcomes[index] = quads
            continue
        # The heaviest kernel's tail bound, which covers the others'.
        errs = [quad.err_estimate + trunc.tail for quad in quads]
        converged = all(_gate(quad, trunc.capped, spec.tol, abs(quad.value))
                        for quad in quads)
        spec_used = replace(spec, step=quads[0].step_used,
                            tol=max(quad.tol_effective for quad in quads))
        outcomes[index] = _Line([quad.value for quad in quads], errs, spec_used,
                                converged, sum(quad.evaluations for quad in quads))
    return outcomes


_G_LINE = (("g_integrand", False),)
_DIGAMMA_LINE = (("g_log_integrand", True), ("g_integrand", False))


def _g_result(z: complex, line: _Line) -> EvalResult:
    (value,), (err,) = line.values, line.errs
    return EvalResult(z, value, err, line.spec, line.converged, line.evaluations)


def _recip_gamma_result(z: complex, line: _Line) -> EvalResult:
    (value,), (err,) = line.values, line.errs
    return EvalResult(z, value / math.pi, err / math.pi, line.spec,
                      line.converged, line.evaluations)


def _nearest_pole(z: complex) -> int:
    return min(0, round(z.real))


def _pole_guard(name: str, z: complex, mag: float, err: float) -> None:
    """Raise when a G denominator is indistinguishable from an exact zero.

    The literal |G| < POLE_TOL test catches poles where the quadrature
    floor sits below POLE_TOL (integers down to about -5).  Deeper left the
    computed |G| at an exact pole is pure roundoff residue that can exceed
    any fixed absolute tolerance, so within _POLE_REACH of a nonpositive
    integer the value is also a pole when it is within a few error bars of
    zero: |G| <= 8 err.  Near a pole |G| grows like pi.n!.dist, so this net
    only catches points within an ulp-scale distance of it; far from every
    pole a G swamped by its error (a forced sigma off the saddle) is an
    inaccurate value, left to ``converged``, not a pole.
    """
    pole = _nearest_pole(z)
    if mag < POLE_TOL or (mag <= 8.0 * err and abs(z - pole) <= _POLE_REACH):
        raise PoleError(
            f"{name}({z}) is within pole tolerance: |G(z)| = {mag:.3e} is "
            f"below {POLE_TOL:g} or indistinguishable from 0 at the "
            f"achievable precision ({err:.3e}); nearest pole at z = {pole}",
            z=z, nearest_pole=pole,
        )


def _gamma_result(z: complex, line: _Line) -> EvalResult:
    (value,), (err,) = line.values, line.errs
    mag = abs(value)
    _pole_guard("gamma", z, mag, err)
    return EvalResult(z, math.pi / value, math.pi * err / (mag * mag),
                      line.spec, line.converged, line.evaluations)


def _digamma_result(z: complex, line: _Line) -> EvalResult:
    (num, den), (err_num, err_den) = line.values, line.errs
    den_mag = abs(den)
    _pole_guard("digamma", z, den_mag, err_den)
    value = num / den
    err = (err_num + abs(value) * err_den) / den_mag
    return EvalResult(z, value, err, line.spec, line.converged, line.evaluations)


# name: (the point of the G line for input z, its kernels, the result).
_ENGINE = {
    "G": (lambda z: z, _G_LINE, _g_result),
    "g_tilde": (lambda y: (y + 1.0) / 2.0, _G_LINE, _g_result),
    "recip_gamma": (lambda z: z, _G_LINE, _recip_gamma_result),
    "gamma": (lambda z: z, _G_LINE, _gamma_result),
    "gamma_sin_pi": (lambda z: 1.0 - z, _G_LINE, _g_result),
    "digamma": (lambda z: z, _DIGAMMA_LINE, _digamma_result),
}


def evaluate_many(function: str, zs, *, sigma=None, tol: float = 1e-12,
                  max_refinements: int = 12) -> list:
    """One public function at many points, their kernel calls shared.

    ``function`` names one of G, g_tilde, recip_gamma, gamma, gamma_sin_pi
    and digamma; the options are theirs.  Returns, in input order, the
    EvalResult of each point or the UnigammaError its one-point call
    raises; a failing point does not stop the others.  The one-point
    functions are this call on one point.  Points are refined together, in
    chunks, one kernel call per halving level; values on more than one
    point may differ in the last bits from the one-point values (see
    ``integrands``) and stay within ``err_estimate`` of them.
    """
    if function not in _ENGINE:
        raise DomainError(
            f"function must be one of {', '.join(_ENGINE)}; got {function!r}")
    line_point, kernels, result = _ENGINE[function]
    checked = []
    for z in zs:
        try:
            checked.append(_check_point(z))
        except DomainError as exc:
            checked.append(exc)
    lines = _lines([z if isinstance(z, UnigammaError) else line_point(z)
                    for z in checked],
                   kernels, sigma, tol, max_refinements)
    outcomes = []
    for z, line in zip(checked, lines):
        if not isinstance(line, UnigammaError):
            try:
                line = result(z, line)
            except UnigammaError as exc:
                line = exc
        outcomes.append(line)
    return outcomes


def _one(function: str, z, **options) -> EvalResult:
    (outcome,) = evaluate_many(function, (z,), **options)
    if isinstance(outcome, UnigammaError):
        raise outcome
    return outcome


def G(z, *, sigma=None, tol: float = 1e-12,
      max_refinements: int = 12) -> EvalResult:
    """The unifying line integral: G(z) = int w^{1-2z} e^{w^2} dt, w = sigma+it.

    Defined for every finite z with no case split; equals pi/Gamma(z).
    """
    return _one("G", z, sigma=sigma, tol=tol, max_refinements=max_refinements)


def g_tilde(y, **kwargs) -> EvalResult:
    """Reparametrized line integral: g_tilde(y) = G((y+1)/2) = int w^{-y} e^{w^2} dt."""
    return _one("g_tilde", y, **kwargs)


def recip_gamma(z, **kwargs) -> EvalResult:
    """1/Gamma(z) = G(z)/pi — entire, zero (not singular) at 0, -1, -2, ..."""
    return _one("recip_gamma", z, **kwargs)


def gamma(z, **kwargs) -> EvalResult:
    """Gamma(z) = pi/G(z); raises PoleError where G(z) cannot be told from 0."""
    return _one("gamma", z, **kwargs)


def gamma_sin_pi(z, **kwargs) -> EvalResult:
    """Gamma(z) sin(pi z) = G(1-z) — entire; finite at every pole of Gamma."""
    return _one("gamma_sin_pi", z, **kwargs)


def digamma(z, *, sigma=None, tol: float = 1e-12,
            max_refinements: int = 12) -> EvalResult:
    """psi(z) as a ratio of two line integrals over one shared node set.

    psi(z) = [int w^{1-2z} e^{w^2} (2 Log w) dt] / [int w^{1-2z} e^{w^2} dt];
    numerator and denominator use the same ContourSpec so their node sets
    coincide and common quadrature error partially cancels in the ratio.
    """
    return _one("digamma", z, sigma=sigma, tol=tol,
                max_refinements=max_refinements)


def euler_mascheroni(*, sigma=None, tol: float = 1e-12,
                     max_refinements: int = 12) -> EvalResult:
    """gamma = -(1/pi) int w^{-1} e^{w^2} (2 Log w) dt  (the z = 1 line)."""
    z = 1.0 + 0.0j
    (line,) = _lines([z], (("g_log_integrand", True),), sigma, tol,
                     max_refinements)
    if isinstance(line, UnigammaError):
        raise line
    (total,), (err,) = line.values, line.errs
    return EvalResult(z, -total / math.pi, err / math.pi, line.spec,
                      line.converged, line.evaluations)


def _laplace_tail(z: complex, sigma: float, half_width: float, terms: int) -> complex:
    """Analytic correction for the |t| > T tail of int w^{-z} e^w dt.

    Repeated integration by parts against e^{it} turns the tail into a
    boundary series sum_j i (z)_j [w_+^{-z-j} e^{w_+} - w_-^{-z-j} e^{w_-}]
    with w_± = sigma ± iT and (z)_j the rising factorial; each term gains a
    factor ~|z+j|/T, so with T >= 2.5(|z| + terms) the remainder after
    ``terms`` terms is negligible against double precision.
    """
    wp = complex(sigma, half_width)
    wm = complex(sigma, -half_width)
    ep = cmath.exp(wp)
    em = cmath.exp(wm)
    total = 0j
    rising = 1.0 + 0j
    for j in range(terms):
        total += 1j * rising * (wp ** (-z - j) * ep - wm ** (-z - j) * em)
        rising *= z + j
    return total


def laplace_recip_gamma(z, *, sigma: float = 1.0, tol: float = 1e-9,
                        max_refinements: int = 12) -> EvalResult:
    """Classical half-plane form 1/Gamma(z) = (1/2pi) int w^{-z} e^w dt.

    Valid only for Re(z) > 0 — the representation itself, not an engine
    limitation — and kept as an independent cross-check of the contour path.
    Unlike the Gaussian-decaying contour kernels this integrand decays only
    like |t|^{-Re z}, so the truncation tail is folded in analytically via
    ``_laplace_tail`` and ``tol`` is interpreted *relative* to the result
    (the value spans many orders of magnitude over the supported strip).
    Cutting off at +-T where the integrand has not decayed leaves
    Euler-Maclaurin endpoint terms in h^2, h^4, ..., so the halving levels
    are combined by Romberg extrapolation; a few thousand nodes then do
    what plain halving needed millions for.  ``err_estimate`` is the
    difference of the last two Romberg diagonals, floored at
    16 * eps * int |f| like every other line integral, plus the tail-series
    remainder; ``converged`` requires that sum to stay within
    ``tol * |value|``.
    """
    z = _check_point(z)
    if z.real <= 0.0:
        raise DomainError(
            f"laplace_recip_gamma requires Re(z) > 0 (the half-plane integral "
            f"diverges otherwise), got z={z!r}"
        )
    sigma = float(sigma)
    half_width = max(40.0, 2.5 * (abs(z) + _LAPLACE_TAIL_TERMS))
    step0 = min(0.1, 1.0 / (1.0 + abs(z)))
    spec = ContourSpec(sigma=sigma, half_width=half_width, step=step0, tol=tol,
                       max_refinements=max_refinements)
    nodes = 2 * math.ceil(half_width / step0) + 1
    if nodes > _LAPLACE_MAX_NODES:
        raise DomainError(
            f"laplace_recip_gamma({z!r}) needs {nodes} nodes at its first step, "
            f"more than the {_LAPLACE_MAX_NODES} it takes; use recip_gamma")
    try:
        tail = _laplace_tail(z, sigma, half_width, _LAPLACE_TAIL_TERMS)
        # Remainder after the series: first omitted term, bounded crudely.
        rising = 1.0
        for j in range(_LAPLACE_TAIL_TERMS):
            rising *= abs(z) + j
        remainder = (
            2.0 * rising
            * math.exp(sigma + 0.5 * math.pi * abs(z.imag))
            * (sigma * sigma + half_width * half_width)
            ** (-0.5 * (z.real + _LAPLACE_TAIL_TERMS))
        )
    except OverflowError:
        tail = remainder = math.inf
    if not (cmath.isfinite(tail) and math.isfinite(remainder)):
        raise DomainError(
            f"laplace_recip_gamma({z!r}): the analytic tail leaves the double range")

    # Coarse pass to anchor the relative tolerance in absolute terms.
    coarse_n = math.ceil(half_width / step0)
    coarse_t = np.arange(-coarse_n, coarse_n + 1, dtype=float) * (half_width / coarse_n)
    coarse_v = integrands.laplace_integrand(z, sigma, coarse_t)
    coarse_sum = (half_width / coarse_n) * (
        coarse_v.sum() - 0.5 * (coarse_v[0] + coarse_v[-1])
    )
    scale = abs(complex(coarse_sum) + tail)
    tol_abs = tol * max(scale, 1e-300)
    spec = replace(spec, tol=tol_abs)
    quad = _only(_trapezoid_joint(
        (lambda t, _: integrands.laplace_integrand(z, sigma, t),), [spec],
        grids=[_line_grid(spec)]))[0]
    two_pi = 2.0 * math.pi
    value = (quad.value + tail) / two_pi
    err = (quad.err_estimate + remainder) / two_pi
    # The gate sees the quadrature only; the tail-series remainder must fit
    # the requested relative tolerance as well.
    converged = (_gate(quad, False, tol_abs, abs(quad.value + tail))
                 and err <= tol * abs(value))
    spec_used = replace(spec, step=quad.step_used, tol=quad.tol_effective)
    return EvalResult(z, value, err, spec_used, converged,
                      quad.evaluations + coarse_t.size)
