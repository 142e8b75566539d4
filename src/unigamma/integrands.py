"""Pointwise integrand kernels on the vertical line w = sigma + i*t.

Every kernel is w**c times an exponential weight: e^{w^2} for the contour
kernels, e^w for the half-plane one.  The contour kernels, ``g_integrand``
and ``g_log_integrand``, form the paper's integrand as the one exponential
exp((1 - 2z) Log w + w^2): one complex log and one complex exp a node, so
no factor of a node can overflow before the node does, and the log weight
2 Log w comes from the same Log w.  The exponent rounds as a whole, to an
ulp of its size, which reaches O(100) for large |z| or |t|.  Against mpmath
at 3,000 seeded nodes (z in the accuracy box, the default sigma, t within
the selected truncation) the relative error of ``g_integrand`` is 2.7e-15
in the median and 2.8e-14 at worst.  Node errors are relative to each
node and vary in sign, so their sum over the line stays inside the
roundoff floor that the quadrature driver applies to both its convergence
gate and ``err_estimate``: 16 eps int|f|, scaled by the exponent's size
where that passes 16 (``functions._exponent_noise``).  On 12,000 seeded
results of the four contour functions in the box the true error never
exceeded that estimate.

``laplace_integrand`` and ``principal_power`` keep the assembly from a
magnitude and a phase, ``mag*cos(phase) + i*mag*sin(phase)``, with |w|**cr
from libm ``pow``.  numpy runs complex exp and log through libm one element
at a time, so past about a thousand nodes they cost more than the real
ufuncs, and a Laplace call takes thousands.

All kernels are pure, stateless, and accept ``t`` as a scalar or ndarray;
scalars come back as built-in ``complex``.  ``g_integrand`` and
``g_log_integrand`` also take ``z`` and ``sigma`` as arrays broadcast
against ``t``, so one call can carry the nodes of many points.  A scalar
``t`` goes through a one-element array, so every operation takes numpy's
array loops, and the two layouts give the same bits at every node (a
product of numpy or Python scalars, or a complex product numpy forms in
place, may round differently from the array loop).
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


def _check_t(t) -> tuple[np.ndarray, bool]:
    """t as a float array of at least one dimension, and whether it was a scalar."""
    arr = np.asarray(t, dtype=float)
    # A finite sum has finite terms: only a sum past the double range, whose
    # terms square past it too, needs the test of every node.
    if not (math.isfinite(np.add.reduce(arr.ravel())) or np.isfinite(arr).all()):
        raise DomainError("t must be finite")
    return (arr, False) if arr.ndim else (arr.reshape(1), True)


def _wpow_parts(cr, ci, u, theta):
    """Magnitude and phase of w**c from u = |w|^2 and theta = arg w.

    The |w|**cr factor leans on the libm ``pow``, whose internal extended
    precision beats an explicit exp(cr*log) assembly.
    """
    mag = np.power(u, 0.5 * cr)
    ph = cr * theta
    if ci != 0.0:
        mag = mag * np.exp(-ci * theta)
        ph = ph + 0.5 * ci * np.log(u)
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
    """``g_integrand``, times 2 Log w with ``log_weight``: one complex log and
    one complex exp a node, exp((1 - 2z) Log w + w^2), Log w serving both."""
    z = _check_complex("z", z)
    sigma = _check_sigma(sigma)
    t, scalar = _check_t(t)
    shape = t.shape
    if isinstance(sigma, np.ndarray):
        shape = np.broadcast_shapes(sigma.shape, shape)
    w = np.empty(shape, dtype=complex)
    w.real = sigma
    w.imag = t
    log_w = np.log(w)
    # No complex multiply in place: numpy rounds that one by the array's size.
    out = (1.0 - 2.0 * z) * log_w
    out += w * w
    np.exp(out, out=out)
    if log_weight:
        out = out * (2.0 * log_w)
    if scalar and not isinstance(z, np.ndarray) and not isinstance(sigma, np.ndarray):
        return complex(out[0])
    return out


def g_integrand(z, sigma, t):
    """w**(1-2z) * e^{w^2} with w = sigma + i*t; z, sigma, t broadcast."""
    return _g_line(z, sigma, t, False)


def g_log_integrand(z, sigma, t):
    """g_integrand weighted by log(w**2) = 2 Log w, w = sigma + i*t.

    ``log(w**2)`` is always realized as ``2*Log(w)``: Re(w) = sigma > 0 puts
    arg(w) in (-pi/2, pi/2), hence arg(w^2) in (-pi, pi), and doubling the
    principal logarithm is the unambiguous reading.  Computed in one body
    with ``g_integrand`` from the same Log w, ``np.log(w)``; its value is
    ``g_integrand``'s times ``2*np.log(w)`` bit for bit.
    """
    return _g_line(z, sigma, t, True)


def laplace_integrand(z, sigma, t):
    """w**(-z) * e^{w} with w = sigma + i*t; vectorized over t."""
    z = _check_complex("z", z)
    sigma = _check_sigma(sigma)
    t, scalar = _check_t(t)
    u, theta = sigma * sigma + t * t, np.arctan2(t, sigma)
    mag, ph = _wpow_parts(-z.real, -z.imag, u, theta)
    # e^{w}: magnitude e^{sigma}, phase t.
    out = _assemble(mag * np.exp(sigma), ph + t)
    return complex(out[0]) if scalar else out
