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
scalars come back as built-in ``complex``.  ``g_integrand`` and
``g_log_integrand`` also take ``z`` and ``sigma`` as arrays broadcast
against ``t``, so one call can carry the nodes of many points.  Scalar
arguments keep the scalar arithmetic.  The two layouts give the same bits
at every node except where numpy rounds a scalar exponent differently from
an array one: ``np.power`` evaluates a scalar exponent of 0.5, 2 or -1 as
``sqrt``, ``square`` or ``reciprocal``, an array exponent always as ``pow``
(``exp``, ``log``, ``cos``, ``sin`` and ``arctan2`` agree bit for bit).  For
``g_integrand`` those exponents are Re z = 0, -1.5 and 1.5.
"""

from __future__ import annotations

import math

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
# The least sigma whose square is a normal double: below it sigma^2 + t^2
# drops sigma, and at t = 0 underflows to 0.
_SIGMA_MIN = 2.0 ** -511


# What is surely no array: np.ndim of a Python scalar costs microseconds, a
# visible share of a kernel call; numpy's scalars subclass float and complex.
_SCALARS = (float, complex, int)


def _check_complex(name: str, value):
    if not isinstance(value, _SCALARS) and np.ndim(value) > 0:
        z = np.asarray(value, dtype=complex)
        if not np.isfinite(z).all():
            raise DomainError(f"{name} must be finite")
        return z
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return z


def _check_sigma(sigma):
    if not isinstance(sigma, _SCALARS) and np.ndim(sigma) > 0:
        s = np.asarray(sigma, dtype=float)
        if not (np.isfinite(s) & (s >= _SIGMA_MIN)).all():
            raise DomainError("sigma must be finite reals of at least 2**-511")
        if (s > _SIGMA_LIMIT).any():
            raise DomainError("sigma overflows exp(sigma**2) in double precision")
        return s
    s = float(sigma)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"sigma must be a positive finite real, got {sigma!r}")
    if s < _SIGMA_MIN:
        raise DomainError(f"sigma must be at least 2**-511, where sigma**2 is a "
                          f"normal double, got {sigma!r}")
    if s > _SIGMA_LIMIT:
        raise DomainError(f"sigma={s} overflows exp(sigma**2) in double precision")
    return s


def _check_t(t):
    arr = np.asarray(t, dtype=float)
    # A finite sum has finite terms: only a sum past the double range, whose
    # terms square past it too, needs the test of every node.
    if not (math.isfinite(np.add.reduce(arr.ravel())) or np.isfinite(arr).all()):
        raise DomainError("t must be finite")
    return arr if arr.ndim else float(arr)


def _wpow_parts(cr, ci, u, theta, log_u=None):
    """Magnitude and phase of w**c from u = |w|^2, theta = arg w and, if known, log u.

    The |w|**cr factor leans on the libm ``pow``, whose internal extended
    precision beats any explicit exp(cr*log) assembly.  ``cr`` and ``ci``
    may be arrays; an array ``ci`` always takes the complex-exponent branch,
    which is exact for its zero entries.
    """
    mag = np.power(u, 0.5 * cr)
    ph = cr * theta
    if isinstance(ci, np.ndarray) or ci != 0.0:
        mag = mag * np.exp(-ci * theta)
        ph = ph + 0.5 * ci * (np.log(u) if log_u is None else log_u)
    return mag, ph


def _assemble(mag, ph):
    if not isinstance(ph, np.ndarray):
        return mag * np.cos(ph) + 1j * (mag * np.sin(ph))
    out = np.empty(ph.shape, dtype=complex)     # each part in place, no temporaries
    np.multiply(mag, np.cos(ph), out=out.real)
    np.multiply(mag, np.sin(ph), out=out.imag)
    return out


def principal_power(w, a) -> complex:
    """w**a on the principal branch, requiring Re(w) > 0 and |w| >= 2**-511.

    The half-plane restriction keeps arg(w) inside (-pi/2, pi/2), so the
    branch cut of the logarithm is never approached; the floor keeps |w|^2
    a normal double.
    """
    w = _check_complex("w", w)
    a = _check_complex("a", a)
    if w.real <= 0.0:
        raise DomainError(
            f"principal_power requires Re(w) > 0 (branch-cut hazard), got w={w!r}"
        )
    if abs(w) < _SIGMA_MIN:
        raise DomainError(f"principal_power requires |w| >= 2**-511, where |w|**2 "
                          f"is a normal double, got w={w!r}")
    u, theta = w.real * w.real + w.imag * w.imag, np.arctan2(w.imag, w.real)
    return complex(_assemble(*_wpow_parts(a.real, a.imag, u, theta)))


def _g_line(z, sigma, t, log_weight: bool):
    """``g_integrand``, times log(w**2) = log u + 2i theta with ``log_weight``;
    u, theta and log u serve both factors."""
    z = _check_complex("z", z)
    sigma = _check_sigma(sigma)
    t = _check_t(t)
    t_sq = t * t
    u, theta = sigma * sigma + t_sq, np.arctan2(t, sigma)
    log_u = np.log(u) if log_weight else None
    mag, ph = _wpow_parts(1.0 - 2.0 * z.real, -2.0 * z.imag, u, theta, log_u)
    # e^{w^2}: magnitude e^{sigma^2 - t^2}, phase 2*sigma*t.
    out = _assemble(mag * np.exp(sigma * sigma - t_sq), ph + 2.0 * sigma * t)
    if log_weight:
        out = out * (log_u + 2j * theta)
    return out if isinstance(out, np.ndarray) else complex(out)


def g_integrand(z, sigma, t):
    """w**(1-2z) * e^{w^2} with w = sigma + i*t; z, sigma, t broadcast."""
    return _g_line(z, sigma, t, False)


def g_log_integrand(z, sigma, t):
    """g_integrand weighted by log(w**2) = log(sigma^2 + t^2) + 2i atan2(t, sigma).

    ``log(w**2)`` is always realized as ``2*Log(w)``: Re(w) = sigma > 0 puts
    arg(w) in (-pi/2, pi/2), hence arg(w^2) in (-pi, pi), and doubling the
    principal logarithm is the unambiguous reading.  Computed in one body
    with ``g_integrand``, whose value times the weight it equals bit for bit.
    """
    return _g_line(z, sigma, t, True)


def laplace_integrand(z, sigma, t):
    """w**(-z) * e^{w} with w = sigma + i*t; vectorized over t."""
    z = _check_complex("z", z)
    sigma = _check_sigma(sigma)
    t = _check_t(t)
    u, theta = sigma * sigma + t * t, np.arctan2(t, sigma)
    mag, ph = _wpow_parts(-z.real, -z.imag, u, theta)
    # e^{w}: magnitude e^{sigma}, phase t.
    out = _assemble(mag * np.exp(sigma), ph + t)
    return out if isinstance(out, np.ndarray) else complex(out)
