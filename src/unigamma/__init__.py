"""unigamma: the gamma family through a single contour integral.

Everything here is computed from one object — the integral of
``w**(1 - 2z) * exp(w**2)`` along the vertical line ``w = sigma + i*t`` —
which equals ``pi / Gamma(z)`` for every complex ``z`` and any abscissa
``sigma > 0``.  Because the integral is entire in ``z``, the reciprocal
gamma function, ``Gamma(z)*sin(pi*z)``, the digamma function, and the
Euler-Mascheroni constant all come out of the same quadrature engine.
The paper's own reflection, ``G(z) G(1 - z) = pi sin(pi z)``, lets the
derived functions read a left-half-plane point from the line at ``1 - z``,
which does not cancel; :func:`G` itself is always the direct line.

Public surface:

- :func:`G`, :func:`g_tilde` — the line integral itself (two parametrizations).
- :func:`recip_gamma`, :func:`gamma`, :func:`gamma_sin_pi`,
  :func:`digamma`, :func:`euler_mascheroni` — derived functions.
- :func:`evaluate_many` — one of the line functions at many points, with
  their kernel calls shared.
- :func:`laplace_recip_gamma` — an independent Hankel-style cross-check,
  valid only for ``Re z > 0``.
- :mod:`unigamma.quadrature` — the trapezoid engine, truncation logic and
  the closed-contour segment integrals used by the verification suite.
- :mod:`unigamma.oracle` — classical Lanczos/asymptotic references and
  :func:`run_identity_suite`.
- :mod:`unigamma.cli` — the ``unigamma`` command-line tool.
"""

from .errors import (
    DomainError,
    PoleError,
    QuadratureNodeError,
    UnigammaError,
)
from .functions import (
    POLE_TOL,
    EvalResult,
    G,
    default_sigma,
    digamma,
    euler_mascheroni,
    evaluate_many,
    g_tilde,
    gamma,
    gamma_sin_pi,
    laplace_recip_gamma,
    recip_gamma,
)
from .integrands import (
    g_integrand,
    g_log_integrand,
    laplace_integrand,
    principal_power,
)
from .oracle import (
    EULER_GAMMA,
    OracleReport,
    SUITE_CHECKS,
    default_verification_grid,
    gaussian_moment_check,
    lanczos_gamma,
    oracle_digamma,
    oracle_recip_gamma,
    run_identity_suite,
)
from .quadrature import (
    TRUNCATION_CAP,
    ContourLoopReport,
    ContourSpec,
    QuadratureResult,
    SegmentPath,
    Truncation,
    contour_loop,
    integrate_segment,
    select_truncation,
    tail_bound,
    trapezoid_line,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "UnigammaError",
    "DomainError",
    "PoleError",
    "QuadratureNodeError",
    # integrands
    "principal_power",
    "g_integrand",
    "g_log_integrand",
    "laplace_integrand",
    # quadrature
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
    # functions
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
    # oracle
    "EULER_GAMMA",
    "OracleReport",
    "SUITE_CHECKS",
    "lanczos_gamma",
    "oracle_recip_gamma",
    "oracle_digamma",
    "default_verification_grid",
    "gaussian_moment_check",
    "run_identity_suite",
]
