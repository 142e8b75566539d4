"""Public special-function API built on the contour engine.

Every operation returns an :class:`EvalResult` carrying the value together
with quadrature diagnostics: the ContourSpec actually used after
refinement (sigma, the window [lower, upper] of t, step h, effective
tolerance), an error estimate combining the Richardson difference, or the
a-priori bound of a line certified at its start step or at half of it,
with the bound on both truncated tails, and a ``converged`` flag.  Every
line integral of G, digamma and Euler's constant goes through one helper,
``_lines``, which refines many points together (the public functions are its one-point case,
``evaluate_many`` its many-point one), and every ``converged`` flag comes
from one rule, ``_gate``: the flag is true only when the truncation was not capped, the
refinement met its (possibly roundoff-floored) tolerance, *and* that
tolerance is small enough to honor the documented accuracy box (1e-9
relative, 1e-6 absolute near the zeros on Re z in [-15, 15], |Im z| <= 100).
The box says where accuracy is promised, not where the flag goes false:
``recip_gamma(30)``, outside it, is accurate and returns ``converged=True``.

Left of Re w = 1/2 the line at a point w cancels toward the zeros of 1/Gamma,
while the line at m = 1 - w sits on its saddle and does not.  So wherever
m's saddle abscissa Re sqrt(m - 1/2) is below the sigma cap of 8 (Re w >
-63.5 on the real axis) and no sigma is forced, ``recip_gamma``, ``gamma``,
``gamma_sin_pi`` and ``digamma`` read w from the line at m.  ``_route``
decides this once per point, and ``_mirror`` computes once what the read
needs: m, its rounding remainder, and sin and cos of pi w from the reduced
argument w - round(w).  ``_g_at``, the one place the mirror rebuilds G,
yields G(w) from the paper's G(w) G(1 - w) = pi sin(pi w) with its error
bound; each function reads that G(w) as it reads the direct line's, and
only ``digamma``, whose ratio on the line at m is psi(1 - z), adds its own
step psi(z) = psi(1 - z) - pi cot(pi z) from the same record.  ``G``,
``g_tilde`` and a forced sigma keep the direct line, the paper's
definition.  A mirrored result's ``spec_used`` and ``evaluations`` are
those of the line at m.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import integrands
from .errors import DomainError, PoleError, QuadratureNodeError, UnigammaError
from .quadrature import (
    ContourSpec,
    QuadratureResult,
    Truncation,
    select_truncation,
    # tail_bound and trapezoid_line are unused here; bench/spans.py patches
    # these attributes.
    tail_bound,
    trapezoid_line,
    _SIGMA_CAP,
    _T_GRID,
    _check_point,
    _check_refinements,
    _check_sigma,
    _check_tol,
    _crest_rate,
    _line_grid,
    _nonfinite_node,
    _only,
    _Point,
    _start_certificate,
    _trapezoid_joint,
    _window_grid,
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

_EPS = sys.float_info.epsilon
_TINY = math.ulp(0.0)

# Documented accuracy box: promises used by the convergence gate.
_ABS_PROMISE = 1e-6
_REL_PROMISE = 1e-9

# Share of the tolerance given to the analytic truncation tails, half to
# each side; the discretization (Richardson-controlled) part receives the rest.
_TAIL_SHARE = 0.25

# Terms of the Laplace tail's integration-by-parts series.
_LAPLACE_TAIL_TERMS = 12
# Level-0 nodes past which laplace_recip_gamma refuses a point; its first
# kernel call evaluates level 1, twice as many nodes.
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
    wins wherever Re z <= 1.5, the saddle beyond.  The public functions take
    the left branch only where they integrate the direct line: ``G``,
    ``g_tilde``, a forced sigma, and past the mirror's reach; elsewhere they
    rebuild G(w) from the line at 1 - w (see the module docstring).
    """
    z = complex(z)
    floor = max(0.1, 1.0 / math.sqrt(-z.real)) if z.real < -1.0 else 1.0
    return min(_SIGMA_CAP, max(floor, cmath.sqrt(z - 0.5).real))


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


def _exponent_noise(z: complex, sigma: float, trunc: Truncation) -> float:
    """Factor on a G-line point's roundoff floor for the kernel's exponent error.

    The kernel rounds its exponent (1 - 2z) Log w + w^2 as a whole, so each
    node errs by an ulp of its size, relative to the node; the term in Log w
    leads it, of size |1 - 2z| |Log w|.  Over the window |Log w| is at most
    hypot(max|log u|/2, atan(T/sigma)), u = sigma^2 + t^2 running from
    sigma^2 to sigma^2 plus the larger end T squared; past 16 that noise
    outgrows the floor's 16 eps.
    """
    u_lo = sigma ** 2
    u_hi = u_lo + trunc.half_width ** 2
    log_w = math.hypot(0.5 * max(abs(math.log(u_lo)), abs(math.log(u_hi))),
                       math.atan(trunc.half_width / sigma))
    return max(1.0, abs(1.0 - 2.0 * z) * log_w / 16.0)


def _line_point(z: complex, sigma: float, trunc: Truncation, tol: float,
                log_weight: bool) -> _Point:
    """The driver's point for the G line at z: the start-step grid over
    ``trunc``'s window, its ``_start_certificate`` and ``_exponent_noise``,
    and, for a line certified at neither level, the phase rate at its crest
    (``_crest_rate``), which its steps must resolve; a certified line's
    bound covers aliasing."""
    certificate = _start_certificate(z, sigma, trunc, tol, log_weight)
    return _Point(_window_grid(trunc.lower, trunc.upper, _T_GRID), tol,
                  noise=_exponent_noise(z, sigma, trunc), certificate=certificate,
                  rate=0.0 if certificate[1] < math.inf else _crest_rate(z, sigma))


def _lines(zs, kernels, sigma, tol: float, max_refinements: int) -> list:
    """Integrate the kernels ``(names, log_weight)`` along the G line at each point.

    ``zs`` are distinct line points, each a valid z with Im z >= 0 (-0.0
    included).  ``tol``, ``sigma`` and ``max_refinements`` are checked once
    per call; a bad one is the outcome of every point.  Each window is sized
    for the heaviest kernel (the log weight's, where there is one), each
    side's tail to half the tail share of tol (never below the least
    positive double), or less where ``select_truncation`` caps it against
    the integrand's magnitude at the saddle height.  The start step is ``_T_GRID`` for every z: on the
    saddle line the integrand is close to a Gaussian e^{-2 (t - Im w0)^2}
    whatever Im z is, and the halving does the rest.  Each line's driver
    point (``_line_point``) carries its ``_start_certificate``, the first
    level (0 at that step, or 1 at half of it) whose sum a rigorous bound
    certifies, with the bound, for the heaviest kernel, which covers the
    others: a line it certifies settles on that level's nodes alone, with
    the bound as its estimate, and a line certified at neither level
    refines by halving, to a step that resolves the phase rate at its
    crest.  The kernels of a point share one node set; the points share
    ``_trapezoid_joint``'s kernel calls.  Returns per point the triple
    ``(sigma, truncation, results)``, one QuadratureResult per kernel, which
    ``_read`` turns into the point's line tuple; a point whose quadrature
    fails gets its QuadratureNodeError instead.
    """
    try:
        _check_tol(tol)
        sigma = None if sigma is None else _check_sigma(sigma)
        _check_refinements(max_refinements)
    except DomainError as exc:
        return [exc] * len(zs)
    # The kernels are looked up by name at each call, where a tracer may
    # have wrapped them.
    names, log_weight = kernels
    line_tol = (1.0 - _TAIL_SHARE) * tol
    tail_tol = max(0.5 * _TAIL_SHARE * tol, _TINY)
    # ``select_truncation`` cannot fail here: z is valid, sigma checked and
    # the tail tolerance positive.
    sigmas, truncs, points = [], [], []
    for z in zs:
        sig = default_sigma(z) if sigma is None else sigma
        trunc = select_truncation(z, sig, tail_tol, log_weight=log_weight)
        sigmas.append(sig)
        truncs.append(trunc)
        points.append(_line_point(z, sig, trunc, line_tol, log_weight))
    # ``rows`` is one line's index, or per-node indices for many lines;
    # sequences hand one line its scalars without numpy scalar boxing.
    z_of, sigma_of = zs, sigmas
    if len(zs) > 1:
        z_of, sigma_of = np.array(zs, dtype=complex), np.array(sigmas)
    lines = _trapezoid_joint(
        [lambda t, rows, name=name: getattr(integrands, name)(z_of[rows], sigma_of[rows], t)
         for name in names], points, max_refinements)
    for index, quads in enumerate(lines):
        if not isinstance(quads, UnigammaError):
            lines[index] = (sigmas[index], truncs[index], quads)
    return lines


def _read(line, flip: bool, tol: float, max_refinements: int):
    """A point's line tuple ``(values, errs, spec, converged, evaluations)``
    from its ``_lines`` outcome, conjugated where ``flip``: each integral's
    value and its error estimate with the analytic tail added, then the
    last three fields of the point's EvalResult: the spec used (one
    ContourSpec, built after the quadrature), the joint ``_gate`` verdict at
    the line's share of ``tol`` and the kernel evaluation count.  A
    UnigammaError passes through; a node error read conjugated names the
    mirror of the node it named."""
    if isinstance(line, UnigammaError):
        if flip and isinstance(line, QuadratureNodeError) and line.node is not None:
            line = _nonfinite_node(line._mirror_node)
        return line
    sig, (lower, upper, tail, capped), quads = line
    line_tol = (1.0 - _TAIL_SHARE) * tol
    values, errs, converged, tol_used, evaluations = [], [], True, 0.0, 0
    for quad in quads:
        values.append(quad.value.conjugate() if flip else quad.value)
        # The heaviest kernel's tail bound, which covers the others'.
        errs.append(quad.err_estimate + tail)
        converged = converged and _gate(quad, capped, line_tol, abs(quad.value))
        tol_used = max(tol_used, quad.tol_effective)
        evaluations += quad.evaluations
    spec = ContourSpec(sigma=sig, half_width=max(sig, -lower, upper),
                       step=quads[0].step_used, tol=tol_used, max_refinements=max_refinements,
                       window=(-upper, -lower) if flip else (lower, upper))
    return values, errs, spec, converged, evaluations


# A line's kernels, as ``_lines`` takes them: their names in ``integrands``,
# and whether one carries the log weight.
_G_LINE = (("g_integrand",), False)
_DIGAMMA_LINE = (("g_log_integrand", "g_integrand"), True)


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


def _mirrors(w: complex) -> bool:
    """Whether line point ``w`` is read from the line at m = 1 - w: it lies
    left of Re w = 1/2, and m's saddle abscissa Re sqrt(m - 1/2) is below
    the sigma cap, so the line at m sits on its saddle."""
    return w.real < 0.5 and cmath.sqrt(0.5 - w).real < _SIGMA_CAP


def _mirror(w: complex) -> tuple:
    """w's mirror record, what reading a line point w from the line at 1 - w
    needs, as a plain tuple ``(m, delta, sin, cos, dx)``: m = 1 - w as
    rounded, the point integrated; delta = (1 - w) - m exactly; sin(pi w),
    cos(pi w), and dx, a bound on the error of their rounded argument.
    1 - Re w rounds where it leaves the binade of Re w, by up to half an ulp
    of m, and TwoSum recovers that exactly.  sin and cos come from the
    reduced argument r = w - round(Re w), which is exact; the rounded pi r
    errs by at most eps |pi r|."""
    m = 1.0 - w
    back = m.real - 1.0
    n = round(w.real)
    x = math.pi * complex(w.real - n, w.imag)
    s, c = cmath.sin(x), cmath.cos(x)
    s, c = (-s, -c) if n % 2 else (s, c)
    return m, (1.0 - (m.real - back)) + (-w.real - back), s, c, _EPS * abs(x)


def _route(w: complex, may_mirror: bool, sigma) -> tuple[complex, tuple | None]:
    """The point whose line ``_lines`` integrates for line point w, and w's
    mirror record: the line at 1 - w where the function may mirror, no sigma
    is forced and ``_mirrors`` says so; else w's own line, and None."""
    if may_mirror and sigma is None and _mirrors(w):
        mirror = _mirror(w)
        return mirror[0], mirror
    return w, None


def _g_at(mirror: tuple | None, g: complex, err: float) -> tuple[complex, float]:
    """G at a line point w and its error bound, from a line's G integral g
    known within err: g itself, or, with w's ``mirror`` record, G(w) = pi
    sin(pi w)/G(1 - w) rebuilt from g on the line at m.

    m misses 1 - w by delta, which moves G by -psi(m) delta relatively; a
    first-order step with psi ~ Log m - 1/(2m) takes it back.  On Re m >= 1/2
    that psi is within 1/(6 |m|^2) of the true one (Stirling's remainder),
    and the step's second order is below its square.  sin's error is the
    argument's through its slope cos plus 4 ulps of its own; dividing by a
    G(1 - w) known within err adds at most |sin| err/|G| to it before the
    division by |G| - err; the product and the quotient round once each.
    """
    if mirror is None:
        return g, err
    m, delta, s, c, dx = mirror
    if delta:
        step = (cmath.log(m) - 0.5 / m) * delta
        g_m, g = g, g * (1.0 - step)
        err = (err * abs(1.0 - step) + _EPS * abs(g)
               + abs(g_m) * (abs(delta) / (6.0 * abs(m) ** 2) + abs(step) ** 2))
    mag = abs(g)
    g_w = math.pi * s / g
    room = mag - err
    err_s = dx * abs(c) + 4.0 * _EPS * abs(s)
    err = (math.pi * (err_s + abs(s) * err / mag) / room if room > 0.0
           else math.inf)
    return g_w, err + 2.0 * _EPS * abs(g_w)


def _recip_gamma_result(z: complex, mirror: tuple | None, values: list, errs: list) -> tuple:
    g, err = _g_at(mirror, values[-1], errs[-1])
    return g / math.pi, err / math.pi


def _gamma_result(z: complex, mirror: tuple | None, values: list, errs: list) -> tuple:
    """Gamma(z) = pi/G(z), within pi err/(|G| (|G| - err)) of pi over a G
    known within err, and within nothing known where err reaches |G|; the
    error term divides by |G| and by that room in turn, never by |G|^2,
    which overflows where Gamma(z) is small."""
    g, err = _g_at(mirror, values[-1], errs[-1])
    mag = abs(g)
    _pole_guard("gamma", z, mag, err)
    room = mag - err
    return math.pi / g, math.pi * (err / mag) / room if room > 0.0 else math.inf


def _digamma_result(z: complex, mirror: tuple | None, values: list, errs: list) -> tuple:
    """psi(z) as the ratio of the line's two integrals; where mirrored, that
    ratio is psi(1 - z) and psi(z) = psi(1 - z) - pi cot(pi z), from z's
    mirror record.  The pole guard reads G(z) through ``_g_at``.

    m misses 1 - z by delta, which moves psi by psi'(m) delta, below
    (1/|m| + 1/|m|^2) |delta| on Re m >= 1/2.  cot = cos/sin errs by the
    argument's error over |sin|^2 and by the rounding of sin, cos and their
    quotient (9 ulps of cot); times pi and the final subtraction round once each.
    """
    (num, den), (err_num, err_den) = values, errs
    g, err_g = _g_at(mirror, den, err_den)
    _pole_guard("digamma", z, abs(g), err_g)
    value = num / den
    err = (err_num + abs(value) * err_den) / abs(den)
    if mirror is not None:
        m, delta, s, c, dx = mirror
        mag_m, mag_s = abs(m), abs(s)
        pi_cot = math.pi * (c / s)
        value = value - pi_cot
        err = (err + abs(delta) * (1.0 + 1.0 / mag_m) / mag_m
               + math.pi * dx / mag_s / mag_s + 10.0 * _EPS * abs(pi_cot)
               + _EPS * abs(value))
    return value, err


def _g_result(z: complex, mirror: tuple | None, values: list, errs: list) -> tuple:
    return _g_at(mirror, values[-1], errs[-1])


# name: (the point w of the G line for input z, its kernels, the reader that
# returns (value, err) from the line's values and errs as ``read(z, mirror,
# values, errs)``, and whether w may be read from the line at 1 - w, as
# ``_route`` decides).  G, g_tilde and gamma_sin_pi return G at w itself.
_ENGINE = {
    "G": (lambda z: z, _G_LINE, _g_result, False),
    "g_tilde": (lambda y: (y + 1.0) / 2.0, _G_LINE, _g_result, False),
    "recip_gamma": (lambda z: z, _G_LINE, _recip_gamma_result, True),
    "gamma": (lambda z: z, _G_LINE, _gamma_result, True),
    "gamma_sin_pi": (lambda z: 1.0 - z, _G_LINE, _g_result, True),
    "digamma": (lambda z: z, _DIGAMMA_LINE, _digamma_result, True),
}


def evaluate_many(function: str, zs, *, sigma=None, tol: float = 1e-12,
                  max_refinements: int = 12) -> list:
    """One public function at many points, their kernel calls shared.

    ``function`` names one of G, g_tilde, recip_gamma, gamma, gamma_sin_pi
    and digamma; the options are theirs.  Returns, in input order, the
    EvalResult of each point or the UnigammaError its one-point call
    raises; a failing point does not stop the others.  The options are
    checked once per call, and a bad one is the error of every point whose
    z is valid.  A one-point function returns or raises this call's
    outcome on its one point (``_one``), without this call's sharing table.
    Points are refined together, in chunks, one kernel call per halving
    level, and each gets the one-point call's outcome bit for bit: the
    kernels round a node alike in every layout (see ``integrands``), and the
    sums are exactly rounded.

    Each point has a G-line point w: z, (y + 1)/2 or 1 - z.  ``_route``
    decides once which line it reads: unless sigma is forced, recip_gamma,
    gamma, gamma_sin_pi and digamma read a w left of Re w = 1/2 from the
    line at 1 - w within the sigma cap's reach, with w's mirror record (see
    the module docstring); G and g_tilde always integrate w.

    Points share integrals.  The integrand is real-symmetric, f(-t; conj w)
    = conj f(t; w), and the nodes k*h sit symmetrically about 0, so the line
    at conj w is the line at w mirrored.  The line integrated at a point (w,
    or 1 - w) is integrated at its conjugate when its imaginary part is
    negative (strictly: a signed-zero imaginary part is integrated as
    given), and read back conjugated (``_read``): its values conjugated and
    its window mirrored to (-upper, -lower), every other field the same.  So
    two points whose lines are conjugates or equal, bit for bit, 0.0 told
    from -0.0, are integrated once, and the left half of a lattice symmetric
    about Re z = 1/2 reads the lines of its right half; points that read a
    line the same way share one line tuple.  The result at conj z is then
    exactly the conjugate of the result at z, in a batch or alone, and a
    node error names the first non-finite node of the point's own line, the
    mirror of the last one of the line integrated.  ``_one`` conjugates and
    reads its point the same way.
    """
    if function not in _ENGINE:
        raise DomainError(
            f"function must be one of {', '.join(_ENGINE)}; got {function!r}")
    line_point, kernels, read, may_mirror = _ENGINE[function]
    # Per point: its z's DomainError; or its z, its mirror record, the slot
    # of the line it reads in ``slots`` and whether it reads it conjugated.
    points, slots = [], {}
    for z in zs:
        try:
            z = _check_point(z)
        except DomainError as exc:
            points.append(exc)
            continue
        w, mirror = _route(line_point(z), may_mirror, sigma)
        flip = w.imag < 0.0
        if flip:
            w = w.conjugate()
        key = (w, math.copysign(1.0, w.real), math.copysign(1.0, w.imag))
        points.append((z, mirror, slots.setdefault(key, len(slots)), flip))
    lines = _lines([w for w, _, _ in slots], kernels, sigma, tol, max_refinements)
    # Points that read one line the same way share its line tuple.
    reads, outcomes = {}, []
    for point in points:
        if isinstance(point, DomainError):
            outcomes.append(point)
            continue
        z, mirror, slot, flip = point
        line = reads.get((slot, flip))
        if line is None:
            line = reads[slot, flip] = _read(lines[slot], flip, tol, max_refinements)
        if not isinstance(line, UnigammaError):
            try:
                line = _result(read, z, mirror, line)
            except UnigammaError as exc:
                line = exc
        outcomes.append(line)
    return outcomes


def _result(read, z: complex, mirror: tuple | None, line: tuple) -> EvalResult:
    """The EvalResult at z from its line tuple (see ``_read``), its value and
    error estimate by the function's ``read``; raises what ``read`` raises."""
    values, errs, spec, converged, evaluations = line
    value, err = read(z, mirror, values, errs)
    return EvalResult(z, value, err, spec, converged, evaluations)


def _one(function: str, z, *, sigma=None, tol: float = 1e-12,
         max_refinements: int = 12) -> EvalResult:
    """``evaluate_many`` of one point, its outcome returned or raised."""
    line_point, kernels, read, may_mirror = _ENGINE[function]
    z = _check_point(z)
    w, mirror = _route(line_point(z), may_mirror, sigma)
    flip = w.imag < 0.0
    (line,) = _lines((w.conjugate() if flip else w,), kernels, sigma, tol, max_refinements)
    line = _read(line, flip, tol, max_refinements)
    if isinstance(line, UnigammaError):
        raise line
    return _result(read, z, mirror, line)


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
    numerator and denominator share one node set, so common quadrature
    error partially cancels in the ratio.
    """
    return _one("digamma", z, sigma=sigma, tol=tol,
                max_refinements=max_refinements)


def euler_mascheroni(*, sigma=None, tol: float = 1e-12,
                     max_refinements: int = 12) -> EvalResult:
    """gamma = -(1/pi) int w^{-1} e^{w^2} (2 Log w) dt  (the z = 1 line)."""
    z = 1.0 + 0.0j
    (line,) = _lines((z,), (("g_log_integrand",), True), sigma, tol, max_refinements)
    line = _read(line, False, tol, max_refinements)
    if isinstance(line, UnigammaError):
        raise line
    (total,), (err,), spec, converged, evaluations = line
    return EvalResult(z, -total / math.pi, err / math.pi, spec, converged, evaluations)


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
    what plain halving needed millions for.  The quadrature's absolute
    tolerance is ``tol`` times |level-0 sum + tail|, from the driver's own
    level-0 sum.  ``err_estimate`` is the difference of the last two
    Romberg diagonals, floored at 16 * eps * int |f| like every other line
    integral, plus the tail-series remainder; ``converged`` is the relative
    check ``err_estimate <= tol * |value|``, which holds that floor within
    it too.
    """
    z = _check_point(z)
    if z.real <= 0.0:
        raise DomainError(
            f"laplace_recip_gamma requires Re(z) > 0 (the half-plane integral "
            f"diverges otherwise), got z={z!r}"
        )
    sigma = _check_sigma(sigma)
    half_width = max(40.0, 2.5 * (abs(z) + _LAPLACE_TAIL_TERMS))
    step0 = min(0.1, 1.0 / (1.0 + abs(z)))
    spec = ContourSpec(sigma=sigma, half_width=half_width, step=step0, tol=tol,
                       max_refinements=max_refinements)
    grid = _line_grid(spec)
    nodes = grid.k_hi - grid.k_lo + 1
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

    quad = _only(_trapezoid_joint(
        (lambda t, _: integrands.laplace_integrand(z, sigma, t),),
        [_Point(grid, lambda level0: tol * max(abs(level0 + tail), 1e-300), romberg=True)],
        max_refinements))[0]
    two_pi = 2.0 * math.pi
    value = (quad.value + tail) / two_pi
    err = (quad.err_estimate + remainder) / two_pi
    spec_used = replace(spec, step=quad.step_used, tol=quad.tol_effective)
    return EvalResult(z, value, err, spec_used, err <= tol * abs(value),
                      quad.evaluations)
