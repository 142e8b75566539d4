"""Public special-function API built on the contour engine.

Every operation returns an :class:`EvalResult` carrying the value together
with quadrature diagnostics: the ContourSpec actually used after refinement (sigma,
half-width T, step h, effective tolerance), an error estimate combining the
Richardson difference with the analytic truncation tail, and a ``converged``
flag.  The flag is deliberately strict — it is true only when the engine both
met its (possibly roundoff-floored) tolerance *and* that tolerance is small
enough to honor the documented accuracy box (1e-9 relative, 1e-6 absolute
near the zeros on Re z in [-15, 15], |Im z| <= 15).  The box says where
accuracy is promised, not where the flag goes false: ``recip_gamma(30)``,
outside it, is accurate and returns ``converged=True``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import integrands
from .errors import DomainError, PoleError
from .quadrature import (
    ContourSpec,
    QuadratureResult,
    select_truncation,
    tail_bound,
    trapezoid_line,
    _trapezoid_joint,
)

__all__ = [
    "EvalResult",
    "POLE_TOL",
    "default_sigma",
    "G",
    "g_tilde",
    "recip_gamma",
    "gamma",
    "gamma_sin_pi",
    "digamma",
    "euler_mascheroni",
    "laplace_recip_gamma",
]

_EPS = math.ulp(1.0)
POLE_TOL = 1e-12

# Documented accuracy box: promises used by the convergence gate.
_ABS_PROMISE = 1e-6
_REL_PROMISE = 1e-9
_IM_CLIFF = 30.0

# Share of the tolerance given to the analytic truncation tail; the
# discretization (Richardson-controlled) part receives the rest.
_TAIL_SHARE = 0.25


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
    """Contour abscissa policy: sigma = 1 in the core, drifting outward.

    For -1 <= Re z <= 1.5 the classic sigma = 1 keeps e^{sigma^2} tame.
    Further right the integrand's mass at t = 0 grows like
    sigma^{1-2Re z} e^{sigma^2} while the integral itself shrinks like
    1/Gamma, so a fixed abscissa leaks relative accuracy;
    sigma = sqrt(Re z - 1/2) minimizes the t = 0 node magnitude (the
    cancellation driver) and is continuous with the flat policy at
    Re z = 1.5.  Capped at 8 per the engine's overflow guard.

    Far left the value cancels toward the zeros at nonpositive integers
    while the node magnitudes grow like (sigma^2+t^2)^p e^{sigma^2}
    (p = 1/2 - Re z), so the roundoff floor is proportional to roughly
    e^{2 sigma^2}; shrinking sigma like 1/sqrt(-Re z) keeps that floor
    orders of magnitude below the values' 1e-9 scale, again joining the
    flat policy continuously at Re z = -1.
    """
    zr = complex(z).real
    if zr < -1.0:
        return max(0.1, 1.0 / math.sqrt(-zr))
    if zr <= 1.5:
        return 1.0
    return min(8.0, math.sqrt(zr - 0.5))


def _check_point(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got {z!r}")
    return z


def _contour_spec(z: complex, sigma, tol: float, step, max_refinements: int,
                  *, log_weight: bool = False) -> tuple[ContourSpec, bool]:
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tol must be a positive finite real, got {tol!r}")
    sig = default_sigma(z) if sigma is None else float(sigma)
    trunc = select_truncation(z, sig, _TAIL_SHARE * tol, log_weight=log_weight)
    if step is None:
        step = min(0.25, 1.0 / (1.0 + abs(z.imag)))
    spec = ContourSpec(
        sigma=sig,
        half_width=trunc.half_width,
        step=float(step),
        tol=(1.0 - _TAIL_SHARE) * tol,
        max_refinements=int(max_refinements),
    )
    return spec, trunc.capped


def _gate(z: complex, quad: QuadratureResult, capped: bool, tol: float,
          magnitude: float) -> bool:
    """Convergence verdict for one line integral at the API level."""
    if capped or not quad.converged:
        return False
    # The effective tolerance may sit above the request on the roundoff
    # floor; accept that only while it stays inside the documented box.
    if quad.tol_effective > max((1.0 - _TAIL_SHARE) * tol, _ABS_PROMISE,
                                _REL_PROMISE * magnitude):
        return False
    # Known cliff: for huge |Im z| the integrand carries e^{pi |Im z|} while
    # the result is exponentially small; flag when roundoff of the largest
    # node swamps the requested tolerance.
    if abs(z.imag) > _IM_CLIFF and quad.node_peak * _EPS > tol * max(1.0, magnitude):
        return False
    return True


def G(z, *, sigma=None, tol: float = 1e-12, step=None,
      max_refinements: int = 12) -> EvalResult:
    """The unifying line integral: G(z) = int w^{1-2z} e^{w^2} dt, w = sigma+it.

    Defined for every finite z with no case split; equals pi/Gamma(z).
    """
    z = _check_point(z)
    spec, capped = _contour_spec(z, sigma, tol, step, max_refinements)
    quad = trapezoid_line(lambda t: integrands.g_integrand(z, spec.sigma, t), spec)
    tail = tail_bound(z, spec.sigma, spec.half_width)
    err = quad.err_estimate + tail
    converged = _gate(z, quad, capped, tol, abs(quad.value))
    spec_used = replace(spec, step=quad.step_used, tol=quad.tol_effective)
    return EvalResult(z, quad.value, err, spec_used, converged, quad.evaluations)


def g_tilde(y, **kwargs) -> EvalResult:
    """Reparametrized line integral: g_tilde(y) = G((y+1)/2) = int w^{-y} e^{w^2} dt."""
    y = _check_point(y)
    res = G((y + 1.0) / 2.0, **kwargs)
    return replace(res, z=y)


def recip_gamma(z, **kwargs) -> EvalResult:
    """1/Gamma(z) = G(z)/pi — entire, zero (not singular) at 0, -1, -2, ..."""
    res = G(z, **kwargs)
    return replace(res, value=res.value / math.pi,
                   err_estimate=res.err_estimate / math.pi)


def _nearest_pole(z: complex) -> int:
    return min(0, round(z.real))


def _pole_guard(name: str, z: complex, mag: float, err: float,
                pole_tol: float) -> None:
    """Raise when a G denominator is indistinguishable from an exact zero.

    The literal |G| < pole_tol test catches poles where the quadrature
    floor sits below pole_tol (integers down to about -5).  Deeper left the
    computed |G| at an exact pole is pure roundoff residue that can exceed
    any fixed absolute tolerance, so we also treat the value as a pole when
    it is within a few error bars of zero: |G| <= 8 err.  Away from poles
    |G| grows like pi.n!.dist, so this wider net still only catches points
    within an ulp-scale distance of a true pole.
    """
    if mag < pole_tol or mag <= 8.0 * err:
        pole = _nearest_pole(z)
        raise PoleError(
            f"{name}({z}) is within pole tolerance: |G(z)| = {mag:.3e} is "
            f"below {pole_tol:g} or indistinguishable from 0 at the "
            f"achievable precision ({err:.3e}); nearest pole at z = {pole}",
            z=z, nearest_pole=pole,
        )


def gamma(z, *, pole_tol: float = POLE_TOL, **kwargs) -> EvalResult:
    """Gamma(z) = pi/G(z); refuses points within pole_tol of a pole."""
    res = G(z, **kwargs)
    mag = abs(res.value)
    _pole_guard("gamma", res.z, mag, res.err_estimate, pole_tol)
    value = math.pi / res.value
    err = math.pi * res.err_estimate / (mag * mag)
    converged = res.converged and res.err_estimate <= 0.5 * mag
    return replace(res, value=value, err_estimate=err, converged=converged)


def gamma_sin_pi(z, **kwargs) -> EvalResult:
    """Gamma(z) sin(pi z) = G(1-z) — entire; finite at every pole of Gamma."""
    z = _check_point(z)
    res = G(1.0 - z, **kwargs)
    return replace(res, z=z)


def digamma(z, *, sigma=None, tol: float = 1e-12, step=None,
            max_refinements: int = 12, pole_tol: float = POLE_TOL) -> EvalResult:
    """psi(z) as a ratio of two line integrals over one shared node set.

    psi(z) = [int w^{1-2z} e^{w^2} (2 Log w) dt] / [int w^{1-2z} e^{w^2} dt];
    numerator and denominator use the same ContourSpec so their node sets
    coincide and common quadrature error partially cancels in the ratio.
    """
    z = _check_point(z)
    spec, capped = _contour_spec(z, sigma, tol, step, max_refinements,
                                 log_weight=True)
    num, den = _trapezoid_joint(
        (
            lambda t: integrands.g_log_integrand(z, spec.sigma, t),
            lambda t: integrands.g_integrand(z, spec.sigma, t),
        ),
        spec,
    )
    den_mag = abs(den.value)
    err_num = num.err_estimate + tail_bound(z, spec.sigma, spec.half_width,
                                            log_weight=True)
    err_den = den.err_estimate + tail_bound(z, spec.sigma, spec.half_width)
    _pole_guard("digamma", z, den_mag, err_den, pole_tol)
    value = num.value / den.value
    err = (err_num + abs(value) * err_den) / den_mag
    converged = (
        _gate(z, den, capped, tol, den_mag)
        and _gate(z, num, capped, tol, abs(num.value))
        and err_den <= 0.5 * den_mag
    )
    spec_used = replace(spec, step=den.step_used,
                        tol=max(num.tol_effective, den.tol_effective))
    return EvalResult(z, value, err, spec_used, converged,
                      num.evaluations + den.evaluations)


def euler_mascheroni(*, sigma=None, tol: float = 1e-12, step=None,
                     max_refinements: int = 12) -> EvalResult:
    """gamma = -(1/pi) int w^{-1} e^{w^2} (2 Log w) dt  (the z = 1 line)."""
    z = 1.0 + 0.0j
    spec, capped = _contour_spec(z, sigma, tol, step, max_refinements,
                                 log_weight=True)
    quad = trapezoid_line(
        lambda t: integrands.g_log_integrand(z, spec.sigma, t), spec
    )
    value = -quad.value / math.pi
    tail = tail_bound(z, spec.sigma, spec.half_width, log_weight=True)
    err = (quad.err_estimate + tail) / math.pi
    converged = _gate(z, quad, capped, tol, abs(quad.value))
    spec_used = replace(spec, step=quad.step_used, tol=quad.tol_effective)
    return EvalResult(z, value, err, spec_used, converged, quad.evaluations)


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
                        max_refinements: int = 12, tail_terms: int = 12) -> EvalResult:
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
    remainder.
    """
    z = _check_point(z)
    if z.real <= 0.0:
        raise DomainError(
            f"laplace_recip_gamma requires Re(z) > 0 (the half-plane integral "
            f"diverges otherwise), got z={z!r}"
        )
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tol must be a positive finite real, got {tol!r}")
    sigma = float(sigma)
    if not (0.0 < sigma <= 8.0):
        raise DomainError(f"sigma must lie in (0, 8], got {sigma!r}")

    half_width = max(40.0, 2.5 * (abs(z) + tail_terms))
    tail = _laplace_tail(z, sigma, half_width, tail_terms)
    # Remainder after the series: first omitted term, bounded crudely.
    rising = 1.0
    for j in range(tail_terms):
        rising *= abs(z) + j
    remainder = (
        2.0 * rising
        * math.exp(sigma + 0.5 * math.pi * abs(z.imag))
        * (sigma * sigma + half_width * half_width) ** (-0.5 * (z.real + tail_terms))
    )

    # Coarse pass to anchor the relative tolerance in absolute terms.
    step0 = min(0.1, 1.0 / (1.0 + abs(z)))
    coarse_n = math.ceil(half_width / step0)
    coarse_t = np.arange(-coarse_n, coarse_n + 1, dtype=float) * (half_width / coarse_n)
    coarse_v = integrands.laplace_integrand(z, sigma, coarse_t)
    coarse_sum = (half_width / coarse_n) * (
        coarse_v.sum() - 0.5 * (coarse_v[0] + coarse_v[-1])
    )
    scale = abs(complex(coarse_sum) + tail)
    tol_abs = tol * max(scale, 1e-300)

    spec = ContourSpec(sigma=sigma, half_width=half_width, step=step0,
                       tol=tol_abs, max_refinements=int(max_refinements))
    quad = _trapezoid_joint(
        (lambda t: integrands.laplace_integrand(z, sigma, t),), spec, romberg=True
    )[0]
    two_pi = 2.0 * math.pi
    value = (quad.value + tail) / two_pi
    err = (quad.err_estimate + remainder) / two_pi
    converged = quad.converged and quad.tol_effective <= max(
        tol_abs, _ABS_PROMISE, _REL_PROMISE * abs(quad.value + tail)
    )
    spec_used = replace(spec, step=quad.step_used, tol=quad.tol_effective)
    return EvalResult(z, value, err, spec_used, converged,
                      quad.evaluations + coarse_t.size)
