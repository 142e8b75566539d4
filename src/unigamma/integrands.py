"""Pointwise integrand kernels on the vertical line w = sigma + i*t.

Everything here reduces to one primitive: w**c times an exponential weight
(e^{w^2} for the contour kernels, e^w for the half-plane kernel), built in
plain doubles as ``mag*cos(phase) + i*mag*sin(phase)`` from a separately
assembled magnitude and phase.

Phase and real exponent reach O(100) for large |z| or |t|, so rounding
them costs up to an ulp of 100 in absolute phase.  Against mpmath at 3,000
seeded nodes (z in the accuracy box, the default sigma, t within the
selected truncation) the relative error of ``g_integrand`` is 2.4e-15 in
the median and 2.3e-14 at worst (a double-double carry of the phase gave
1.5e-15 and 8.9e-15).  Node errors are relative to each node and vary in
sign, so their sum over the line stays inside the ``16*eps*int|f|`` floor
that the quadrature driver applies to both its convergence gate and
``err_estimate``; on 12,000 seeded points of the box the true error of the
four contour functions never exceeded that estimate.

All kernels are pure, stateless, and accept ``t`` as a scalar or ndarray;
scalars come back as built-in ``complex``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "principal_power",
    "g_integrand",
    "g_log_integrand",
    "laplace_integrand",
]

# sigma beyond this makes e^{sigma^2} meaningless in double precision;
# callers validate earlier (ContourSpec), this is a hard backstop.
_SIGMA_LIMIT = 26.0


def _check_complex(name: str, value) -> complex:
    z = complex(value)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return z


def _check_sigma(sigma) -> float:
    s = float(sigma)
    if not np.isfinite(s) or s <= 0.0:
        raise DomainError(f"sigma must be a positive finite real, got {sigma!r}")
    if s > _SIGMA_LIMIT:
        raise DomainError(f"sigma={s} overflows exp(sigma**2) in double precision")
    return s


def _check_t(t):
    arr = np.asarray(t, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("t must be finite")
    return arr if arr.ndim else float(arr)


def _wpow_parts(cr: float, ci: float, sigma, t):
    """Magnitude and phase of w**c, w = sigma + i*t.

    The |w|**cr factor leans on the libm ``pow``, whose internal extended
    precision beats any explicit exp(cr*log) assembly.
    """
    u = sigma * sigma + t * t
    theta = np.arctan2(t, sigma)
    mag = np.power(u, 0.5 * cr)
    ph = cr * theta
    if ci != 0.0:
        mag = mag * np.exp(-ci * theta)
        ph = ph + 0.5 * ci * np.log(u)
    return mag, ph


def _assemble(mag, ph):
    return mag * np.cos(ph) + 1j * (mag * np.sin(ph))


def principal_power(w, a) -> complex:
    """w**a on the principal branch, requiring Re(w) > 0.

    The half-plane restriction keeps arg(w) inside (-pi/2, pi/2), so the
    branch cut of the logarithm is never approached.
    """
    w = _check_complex("w", w)
    a = _check_complex("a", a)
    if w.real <= 0.0:
        raise DomainError(
            f"principal_power requires Re(w) > 0 (branch-cut hazard), got w={w!r}"
        )
    return complex(_assemble(*_wpow_parts(a.real, a.imag, w.real, w.imag)))


def g_integrand(z, sigma, t):
    """w**(1-2z) * e^{w^2} with w = sigma + i*t; vectorized over t."""
    z = _check_complex("z", z)
    sigma = _check_sigma(sigma)
    t = _check_t(t)
    mag, ph = _wpow_parts(1.0 - 2.0 * z.real, -2.0 * z.imag, sigma, t)
    # e^{w^2}: magnitude e^{sigma^2 - t^2}, phase 2*sigma*t.
    out = _assemble(mag * np.exp(sigma * sigma - t * t), ph + 2.0 * sigma * t)
    return out if np.ndim(t) else complex(out)


def g_log_integrand(z, sigma, t):
    """g_integrand weighted by 2*Log(w) — the log-derivative kernel.

    ``log(w**2)`` is always realized as ``2*Log(w)``: Re(w) = sigma > 0 puts
    arg(w) in (-pi/2, pi/2), hence arg(w^2) in (-pi, pi), and doubling the
    principal logarithm is the unambiguous reading.
    """
    base = g_integrand(z, sigma, t)
    sigma = float(sigma)
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    u = sigma * sigma + t * t
    log2w = np.log(u) + 2j * np.arctan2(t, sigma)
    out = base * log2w
    return out if np.ndim(t) else complex(out)


def laplace_integrand(z, sigma, t):
    """w**(-z) * e^{w} with w = sigma + i*t; vectorized over t."""
    z = _check_complex("z", z)
    sigma = _check_sigma(sigma)
    t = _check_t(t)
    mag, ph = _wpow_parts(-z.real, -z.imag, sigma, t)
    # e^{w}: magnitude e^{sigma}, phase t.
    out = _assemble(mag * np.exp(sigma), ph + t)
    return out if np.ndim(t) else complex(out)
