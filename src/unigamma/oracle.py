"""Independent reference implementations and the identity-check suite.

The reference routines here deliberately share nothing with the contour
engine except the complex type: ``lanczos_gamma`` is a classical rational
approximation and ``oracle_digamma`` an asymptotic series with upward
recurrence.  Their job is to judge the engine, so they must fail
independently of it.  The identity suite then replays the structural facts
the engine is built on — reciprocal/oracle agreement, the sine product, the
reflection and duplication identities, and the closed-contour residual —
each as a pass/fail report with worst-point diagnostics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, UnigammaError
from .functions import (
    # G, recip_gamma and gamma_sin_pi are unused here; bench/spans.py
    # patches these attributes.
    G,
    evaluate_many,
    g_tilde,
    gamma_sin_pi,
    recip_gamma,
)
from .quadrature import ContourSpec, contour_loop, trapezoid_line, _check_point, _check_tol

__all__ = [
    "EULER_GAMMA",
    "OracleReport",
    "lanczos_gamma",
    "oracle_recip_gamma",
    "oracle_digamma",
    "gaussian_moment_check",
    "default_verification_grid",
    "run_identity_suite",
    "SUITE_CHECKS",
]

EULER_GAMMA = 0.5772156649015329

# Lanczos approximation, g = 607/128 with 15 coefficients — the widely
# reproduced set computed by Paul Godfrey (2001); relative error ~1e-15 on
# Re(z) >= 1/2 in exact arithmetic, observed <= ~2e-14 in doubles here.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and float(z.real).is_integer()


def lanczos_gamma(z) -> complex:
    """Reference Gamma(z) via the Lanczos approximation (reflection for Re z < 1/2)."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma has a pole at z = {z}", z=z,
                        nearest_pole=int(z.real))
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * lanczos_gamma(1.0 - z))
    zs = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (zs + k)
    t = zs + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zs + 0.5) * cmath.exp(-t) * acc


def oracle_recip_gamma(z) -> complex:
    """Reference 1/Gamma(z); exactly 0 at the nonpositive integers."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        return 0j
    return 1.0 / lanczos_gamma(z)


def oracle_digamma(z) -> complex:
    """Reference psi(z): shift upward until Re z >= 10, then the Stirling series."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"digamma has a pole at z = {z}", z=z,
                        nearest_pole=int(z.real))
    acc = 0j
    while z.real < 10.0:
        acc -= 1.0 / z
        z += 1.0
    iz = 1.0 / z
    iz2 = iz * iz
    ser = (1.0 / 12.0
           - (1.0 / 120.0
              - (1.0 / 252.0
                 - (1.0 / 240.0
                    - (1.0 / 132.0
                       - (691.0 / 32760.0 - iz2 / 12.0) * iz2) * iz2) * iz2) * iz2) * iz2)
    return acc + cmath.log(z) - 0.5 * iz - ser * iz2


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one identity check over a set of points."""

    check_name: str
    points_tested: int
    max_rel_err: float
    max_abs_err: float
    passed: bool
    worst_point: complex
    rel_tol: float | None = None
    abs_tol: float | None = None


def default_verification_grid() -> list[complex]:
    """Half-step lattice m/2 + (n/2)i for m, n in [-10, 10] — 441 points —
    then 18 points x + yi, x in {-5, 0, 5}, |y| in {20, 40, 60}."""
    return [
        complex(m * 0.5, n * 0.5)
        for n in range(-10, 11)
        for m in range(-10, 11)
    ] + [complex(x, y) for y in (20, -20, 40, -40, 60, -60) for x in (-5, 0, 5)]


def gaussian_moment_check(y, spec: ContourSpec | None = None) -> OracleReport:
    """Absolute-moment identity E|X|^{y-1} for a standard Gaussian X.

    Closed form 2^{(y-1)/2} Gamma(y/2) / sqrt(pi) against the contour route
    (Gamma(y)/pi) * int w^{-y} e^{w^2/2} dt, evaluated with its own
    trapezoid pass over the e^{w^2/2} kernel.  The two sides are linked by
    the Legendre duplication identity, so agreement exercises quadrature and
    oracle at once.  Requires a finite y with Re(y) > 0 (the moment must
    exist).
    """
    y = _check_point(y, "y")
    if y.real <= 0.0:
        raise DomainError(f"gaussian_moment_check requires Re(y) > 0, got y={y!r}")
    closed = (cmath.exp(0.5 * math.log(2.0) * (y - 1.0))
              * lanczos_gamma(0.5 * y) / math.sqrt(math.pi))

    if spec is None:
        sigma, tol = 1.0, 1e-11
        half_width = max(
            9.0,
            1.0 + math.sqrt(sigma * sigma
                            + 2.0 * math.log(1.0 / tol)
                            + 2.0 * math.pi * abs(y.imag)),
        )
        spec = ContourSpec(sigma=sigma, half_width=half_width,
                           step=min(0.25, 1.0 / (1.0 + abs(y.imag))), tol=tol)

    def integrand(t):
        w = spec.sigma + 1j * np.asarray(t, dtype=float)
        return np.exp(-y * np.log(w) + 0.5 * w * w)

    quad = trapezoid_line(integrand, spec)
    via_contour = lanczos_gamma(y) / math.pi * quad.value
    abs_err = abs(via_contour - closed)
    rel_err = abs_err / abs(closed)
    rel_tol = 1e-8
    return OracleReport(
        check_name="gaussian_moment",
        points_tested=1,
        max_rel_err=rel_err,
        max_abs_err=abs_err,
        passed=bool(quad.converged and rel_err <= rel_tol),
        worst_point=y,
        rel_tol=rel_tol,
    )


class _Worst:
    """Track the worst offender of a check by threshold-normalized excess."""

    def __init__(self):
        self.excess = 0.0
        self.point = 0j
        self.rel = 0.0
        self.abs = 0.0
        self.count = 0

    def add(self, point: complex, excess: float, rel: float, abs_err: float):
        self.count += 1
        self.rel = max(self.rel, rel)
        self.abs = max(self.abs, abs_err)
        if excess >= self.excess:
            self.excess = excess
            self.point = point

    def fail(self, point: complex):
        """A point the check could not judge: its evaluation or reference raised."""
        self.add(point, math.inf, 0.0, 0.0)

    def report(self, name: str, rel_tol: float | None,
               abs_tol: float | None) -> OracleReport:
        return OracleReport(
            check_name=name,
            points_tested=self.count,
            max_rel_err=self.rel,
            max_abs_err=self.abs,
            passed=self.excess <= 1.0,
            worst_point=self.point,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
        )


def _reference(oracle, z: complex) -> complex | None:
    """The oracle's value at z, or None where it overflows.

    Lanczos overflows at |Re z| >= 143.5, where the engine's own value may
    still be finite; the check cannot judge such a point.
    """
    try:
        return oracle(z)
    except ArithmeticError:
        return None


def _check_recip_vs_oracle(points, g_at: dict, rel_tol: float,
                           abs_tol: float) -> OracleReport:
    # Relative where the reciprocal is healthy, absolute in the deep zeros.
    worst = _Worst()
    for z in points:
        res = g_at[z]
        ref = None
        if not isinstance(res, UnigammaError):
            ref = _reference(oracle_recip_gamma, z)
        if ref is None:
            worst.fail(z)
            continue
        abs_err = abs(res.value / math.pi - ref)  # recip_gamma is G/pi
        rel_err = abs_err / abs(ref) if abs(ref) > 0.0 else 0.0
        if not res.converged:
            worst.add(z, math.inf, rel_err, abs_err)
        elif abs(ref) > 1e-6:
            worst.add(z, rel_err / rel_tol, rel_err, abs_err)
        else:
            worst.add(z, abs_err / abs_tol, rel_err, abs_err)
    return worst.report("recip_gamma_vs_oracle", rel_tol, abs_tol)


def _sin_product(z: complex) -> complex:
    return lanczos_gamma(z) * cmath.sin(math.pi * z)


def _check_sin_product_vs_oracle(points, mirror, g_at: dict, rel_tol: float,
                                 abs_tol: float) -> OracleReport:
    # gamma_sin_pi(z) is G(1-z).
    worst = _Worst()
    for z, one_minus_z in zip(points, mirror):
        # The oracle side is an indeterminate 0 * inf at the poles of Gamma.
        if _is_nonpositive_integer(z):
            continue
        res = g_at[one_minus_z]
        if isinstance(res, UnigammaError):
            worst.fail(z)
            continue
        if z.imag == 0.0 and float(z.real).is_integer():
            abs_err = abs(res.value)  # sin(pi n) kills the product exactly
            excess = abs_err / abs_tol if res.converged else math.inf
            worst.add(z, excess, 0.0, abs_err)
            continue
        ref = _reference(_sin_product, z)
        if ref is None:
            worst.fail(z)
            continue
        abs_err = abs(res.value - ref)
        rel_err = abs_err / abs(ref)
        excess = rel_err / rel_tol if res.converged else math.inf
        worst.add(z, excess, rel_err, abs_err)
    return worst.report("gamma_sin_pi_vs_oracle", rel_tol, abs_tol)


def _pi_sin_pi(z: complex) -> complex:
    return math.pi * cmath.sin(math.pi * z)


def _check_reflection(points, mirror, g_at: dict, rel_tol: float) -> OracleReport:
    # G(z) G(1-z) = pi sin(pi z), residual scaled by 1 + |pi sin(pi z)|.
    worst = _Worst()
    for z, one_minus_z in zip(points, mirror):
        a, b = g_at[z], g_at[one_minus_z]
        rhs = None
        if not (isinstance(a, UnigammaError) or isinstance(b, UnigammaError)):
            rhs = _reference(_pi_sin_pi, z)
        if rhs is None:
            worst.fail(z)
            continue
        abs_err = abs(a.value * b.value - rhs)
        scaled = abs_err / (1.0 + abs(rhs))
        excess = scaled / rel_tol if (a.converged and b.converged) else math.inf
        worst.add(z, excess, scaled, abs_err)
    return worst.report("reflection", rel_tol, None)


_DUPLICATION_POINTS = (-2.0 + 0j, -0.5 + 0j, 0j, 0.7 + 0j, 1.0 + 1.0j)


def _check_duplication(rel_tol: float) -> OracleReport:
    # g_tilde(y) g_tilde(y+1) = sqrt(pi) 2^y g_tilde(2y+1).
    worst = _Worst()
    for y in _DUPLICATION_POINTS:
        a = g_tilde(y)
        b = g_tilde(y + 1.0)
        c = g_tilde(2.0 * y + 1.0)
        rhs = math.sqrt(math.pi) * cmath.exp(math.log(2.0) * y) * c.value
        abs_err = abs(a.value * b.value - rhs)
        scaled = abs_err / (1.0 + abs(rhs))
        ok = a.converged and b.converged and c.converged
        worst.add(y, scaled / rel_tol if ok else math.inf, scaled, abs_err)
    return worst.report("duplication", rel_tol, None)


_LOOP_POINTS = (0j, -1.0 + 0j, -2.0 + 1.0j)
_LOOP_SIGMAS = (1.0, 2.0)
_LOOP_HALF_WIDTHS = (5.0, 8.0)


def _check_contour_loop(abs_tol: float) -> OracleReport:
    # The closed loop is exactly zero analytically; every segment must
    # converge and the numerical residual stay below the combined budget.
    worst = _Worst()
    for y in _LOOP_POINTS:
        for sigma in _LOOP_SIGMAS:
            for half_width in _LOOP_HALF_WIDTHS:
                spec = ContourSpec(sigma=sigma, half_width=half_width,
                                   step=0.25, tol=1e-10)
                loop = contour_loop(y, spec)
                residual = abs(loop.loop_sum)
                excess = residual / abs_tol if loop.converged else math.inf
                worst.add(y, excess, 0.0, residual)
    return worst.report("contour_loop", None, abs_tol)


SUITE_CHECKS = (
    "recip_gamma_vs_oracle",
    "gamma_sin_pi_vs_oracle",
    "reflection",
    "duplication",
    "contour_loop",
)


def _g_pass(points, mirror, selected) -> dict:
    """G at each point the selected lattice checks read.

    ``mirror`` holds 1 - z for each z of ``points``; the result maps each
    of those points to its ``evaluate_many`` outcome, so a failed point
    arrives as its UnigammaError.  ``evaluate_many`` integrates a repeated
    point, or the conjugate of one already met, only once.
    """
    wanted = []
    if "recip_gamma_vs_oracle" in selected:
        wanted += points
    if "gamma_sin_pi_vs_oracle" in selected:
        wanted += [m for z, m in zip(points, mirror)
                   if not _is_nonpositive_integer(z)]
    if "reflection" in selected:
        wanted += points + mirror
    return dict(zip(wanted, evaluate_many("G", wanted)))


def run_identity_suite(grid=None, *, rel_tol: float | None = None,
                       abs_tol: float | None = None,
                       checks=None) -> list[OracleReport]:
    """Run the structural checks; failures are reported, never raised.

    ``rel_tol``/``abs_tol`` override each check's default threshold of the
    matching kind; each given one must be a positive finite real.  The
    duplication and contour-loop checks use their own fixed point sets (the
    identities constrain specific points); the other three run over ``grid``
    (default: ``default_verification_grid``, 459 points).  Those three read G from one
    shared pass over the distinct points they need -- z for the oracle and
    reflection checks, 1 - z for the sine product and reflection, since
    recip_gamma is G(z)/pi and gamma_sin_pi(z) is G(1-z) -- so no point is
    integrated twice; ``evaluate_many`` integrates a conjugate pair once,
    too.  On Re z = 1/2, 1 - z is conj z, so the reflection check's two
    factors there come from one integral, G(z) and its conjugate; their
    product is still judged against pi sin(pi z), which the oracle computes
    apart.  A point whose evaluation or reference value raises
    counts as a failure there.  ``checks`` restricts the run to a sequence
    of ``SUITE_CHECKS`` names (a bare string is refused), preserving suite
    order, and only their points are evaluated; by default all five run.
    """
    pts = (default_verification_grid() if grid is None
           else [_check_point(z) for z in grid])
    if not pts:
        raise DomainError("verification grid must be nonempty")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if tol is not None:
            _check_tol(tol, name)
    rel = 1e-9 if rel_tol is None else float(rel_tol)
    loop_abs = 1e-8 if abs_tol is None else float(abs_tol)
    near_zero_abs = 1e-10 if abs_tol is None else float(abs_tol)
    if isinstance(checks, str):
        raise DomainError(f"checks must be a sequence of check names, got the string "
                          f"{checks!r}; pass ({checks!r},) for one check")
    selected = SUITE_CHECKS if checks is None else tuple(checks)
    unknown = [name for name in selected if name not in SUITE_CHECKS]
    if unknown:
        raise DomainError(f"unknown check names: {', '.join(unknown)}; "
                          f"choose from {', '.join(SUITE_CHECKS)}")
    mirror = [1.0 - z for z in pts]
    g_at = _g_pass(pts, mirror, selected)
    runners = {
        "recip_gamma_vs_oracle": lambda: _check_recip_vs_oracle(
            pts, g_at, rel, near_zero_abs),
        "gamma_sin_pi_vs_oracle": lambda: _check_sin_product_vs_oracle(
            pts, mirror, g_at, rel, near_zero_abs),
        "reflection": lambda: _check_reflection(pts, mirror, g_at, rel),
        "duplication": lambda: _check_duplication(rel),
        "contour_loop": lambda: _check_contour_loop(loop_abs),
    }
    return [runners[name]() for name in SUITE_CHECKS if name in selected]
