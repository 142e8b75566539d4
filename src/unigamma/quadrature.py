"""Truncated-line trapezoid quadrature and the closed-contour segments.

The improper integrals over t in (-inf, inf) are replaced by [-T, T] with T
chosen from an analytic majorant of the integrand, then summed with the
composite trapezoid rule and refined by step halving.  The integrands are
analytic in a strip around the real t-axis and Gaussian-decaying, so the
trapezoid rule converges spectrally; the Richardson difference between
successive halvings is an honest (if slightly conservative) error estimate.

One driver, ``_trapezoid_joint``, does every halving: the line, the two
rays and the two arcs of the closed contour, and the Laplace cross-check.
It takes many points at once and refines them in chunks, one kernel call
per level for the whole chunk; the rays, arcs and Laplace are one-point
calls.  Its levels are nested -- nodes are ``origin + k*h`` over integer
k, so halving keeps every old node at an even k and evaluates only the
odd k -- and ``evaluations`` counts each node once.  No point stops on
level 0, which has no Richardson difference, so a point's first kernel
call evaluates level 1's nodes, level 0's at the even k and the odd k
between them.  The point keeps them as trapezoid terms, its values with
the end weights 1/2 applied once, and settles level 0 from the even terms
and level 1 from all of them: a point that stops at level 1 makes one
kernel call per integrand.  The rays, the arcs and the Laplace integrand
end where they have not decayed, so their Euler-Maclaurin endpoint terms
hold plain halving to O(h^2); those paths pass their grid, and a given grid
extrapolates the level sums with a Romberg table, which removes h^2, h^4,
... in turn.  The G line keeps plain halving: its ends have decayed below
the tolerance, and the trapezoid rule is spectral there.

Summation is exactly rounded: each level's trapezoid sum is the float
nearest the exact sum of its terms, which has two consequences worth
relying on: results are bit-reproducible regardless of evaluation order,
and exactly antisymmetric node contributions cancel exactly.  Short levels
of a lone point go to ``math.fsum``; longer ones, and every level of a
many-point chunk, to ``_exact_sums``, which bins mantissas by exponent into
integer digits with numpy and keeps each point's exact running sum, so a
halving adds only its new terms.  Both give the same bits.

One roundoff floor, ``16*eps*int |f|``, serves both the convergence gate
and the error estimate: the gate enforces the *effective* tolerance
``max(tol, floor)`` and ``err_estimate`` is ``max(Richardson difference,
floor)``.  The floor covers the kernels' few-ulp pointwise error summed over
the line, so an estimate below it would claim more than the nodes carry.
A G-line point off the real axis scales its floor by max(1, Phi/16), with
Phi = |Im z| max|log(sigma^2 + t^2)| over the window: the kernel's phase
carries Im z log(sigma^2 + t^2), rounded to an ulp of Phi, which past 16
outgrows the few ulps above (the ``noise`` of ``_trapezoid_joint``).
For heavily cancelling integrands (deep left half-plane z) the requested
absolute tolerance may lie below what double precision can represent of the
summand mass; converging to the roundoff floor is then reported as
convergence against the recorded effective tolerance rather than a silent
failure or a fake success at the unreachable one.
"""

from __future__ import annotations

import cmath
import enum
import itertools
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
        try:
            whole = int(self.max_refinements) == self.max_refinements
        except (TypeError, ValueError, OverflowError):
            whole = False  # None, NaN, an infinity or a non-number
        if not whole or self.max_refinements < 1:
            raise DomainError(
                f"max_refinements must be an integer >= 1, got {self.max_refinements!r}"
            )


@dataclass(frozen=True)
class QuadratureResult:
    """One line integral: value, error estimate, and convergence diagnostics.

    ``step_used`` and ``tol_effective`` record the step after refinement and
    the tolerance actually enforced (the requested one, raised to the
    cancellation floor ``16*eps*int|f|`` when roundoff dominates).
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


def _check_z(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got {z!r}")
    return z


def _check_sigma(sigma: float) -> None:
    if not (0.0 < sigma <= 8.0):
        raise DomainError(f"sigma must lie in (0, 8], got {sigma!r}")


def tail_bound(z, sigma: float, half_width: float, *, log_weight: bool = False) -> float:
    """Rigorous bound on the |t| > half_width tail of the G-line integral.

    For p <= 0 the majorant is dominated by e^{T^2 - t^2} <= e^{-2T(t-T)} on
    the tail, giving majorant(T)/(2T); for p > 0 the polynomial factor is
    folded into a half-Gaussian decay, giving majorant(T)/T provided T sits
    beyond the majorant's crest (select_truncation's search floor enforces
    that).  Raises DomainError unless z is finite, sigma lies in (0, 8]
    and half_width is a positive finite real.
    """
    z = _check_z(z)
    _check_sigma(sigma)
    if not (0.0 < half_width < math.inf):
        raise DomainError(f"half_width must be a positive finite real, got {half_width!r}")
    return _tail_bound(z, sigma, half_width, log_weight)


def _tail_bound(z: complex, sigma: float, half_width: float, log_weight: bool) -> float:
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
    z = _check_z(z)
    _check_sigma(sigma)
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tol must be a positive finite real, got {tol!r}")
    p = 0.5 * (1.0 - 2.0 * z.real)
    crest = math.sqrt(max(2.0 * p - sigma * sigma, 0.0))
    start = max(sigma + 3.0, crest + 1.0)
    half_width = math.ceil(start / _T_GRID) * _T_GRID
    while _tail_bound(z, sigma, half_width, log_weight) > tol:
        if half_width >= TRUNCATION_CAP:
            return Truncation(TRUNCATION_CAP, True)
        half_width += _T_GRID
    return Truncation(half_width, False)


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


# Terms below which a lone point's level goes to math.fsum rather than the
# bins.  A bin pass costs about 35 us whatever the length (some 30 numpy
# calls) plus about 0.025 us a term; fsum about 0.3 us a term on the G line's
# values, whose magnitudes span some 130 bits.  Measured on plane-mix's values
# (2-core x86_64 VM, Python 3.11, numpy 2.4), a whole level of terms:
# 200-250 terms take 61 us by fsum and 60 us binned, 600-800 terms 235 us
# against 54 us.  Per plane-mix operation (600 of them, min of 5 runs each),
# the median took 307 us with fsum alone, 285 us binned alone, 271-274 us
# with this cutover at 192-256 and 285 us at 320.
_FSUM_TERMS = 256


class _Grid(NamedTuple):
    """Level-0 nodes ``origin + k*step`` for the integers k in [k_lo, k_hi]."""

    origin: float
    k_lo: int
    k_hi: int
    step: float


def _line_grid(spec: ContourSpec) -> _Grid:
    # Symmetric integer k about origin 0 make t and -t exact negatives, so
    # conjugate symmetry survives bit-for-bit.
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


def _chunks(grids: Sequence[_Grid]):
    """Consecutive runs of points within the level-0 node budget, one point at least."""
    start = budget = 0
    for index, grid in enumerate(grids):
        size = grid.k_hi - grid.k_lo + 1
        if index > start and budget + size > _CHUNK_NODES:
            yield range(start, index)
            start, budget = index, 0
        budget += size
    if start < len(grids):
        yield range(start, len(grids))


def _node_error(nodes: np.ndarray, news, level: int) -> QuadratureNodeError | None:
    """The error of the first non-finite value of ``news`` at ``nodes``, if any.

    On level 1 the even k, level 0's nodes, are looked at first: the error
    names a node of the coarsest level that has a non-finite one.
    """
    finite = [np.isfinite(new) for new in news]
    if all(ok.all() for ok in finite):
        return None
    looks = (slice(None, None, 2), slice(None)) if level == 1 else (slice(None),)
    for look in looks:
        for ok in finite:
            if not ok[look].all():
                bad = float(nodes[look][np.argmin(ok[look])])
                return QuadratureNodeError(
                    f"integrand returned a non-finite value at node t={bad!r}",
                    node=bad)
    return None


def _slot_sums(sums: list[list[int]], slot: int) -> list[int]:
    """Slot ``slot``'s exact sums, real and imaginary per integrand, from one
    ``_exact_sums`` pass per integrand."""
    return [total for part in sums for total in part[2 * slot:2 * slot + 2]]


def _fsums(values) -> list[float]:
    """fsum of each array's real and imaginary parts, in turn."""
    return [total for v in values
            for total in (fsum(v.real.tolist()), fsum(v.imag.tolist()))]


class _Point:
    """Refinement state of one point: kept trapezoid terms and sums per integrand."""

    __slots__ = ("spec", "grid", "floor", "romberg", "values", "exact", "sums", "rows")

    def __init__(self, spec: ContourSpec, grid: _Grid, count: int, noise: float,
                 romberg: bool):
        self.spec = spec
        self.grid = grid
        # The roundoff floor per unit of int |f|.
        self.floor = _CANCEL_FLOOR * _EPS * noise
        self.romberg = romberg
        self.values: list = []
        # Exact running sums of the terms, real and imaginary per
        # integrand, once the bins sum this point; None while fsum does.
        self.exact: list[int] | None = None
        self.sums = [0j] * count
        self.rows: list[list[complex]] = [[] for _ in range(count)]

    def step(self, level: int) -> float:
        return math.ldexp(self.grid.step, -level)

    def next_nodes(self, level: int) -> np.ndarray:
        """The nodes that the kernel call of ``level`` (1 or more) evaluates.

        Level 1 evaluates the whole grid at half its step, level 0's nodes
        at its even k; each later level adds the odd k.
        """
        grid = self.grid
        k_lo, k_hi = grid.k_lo << level, grid.k_hi << level
        k = (np.arange(k_lo, k_hi + 1, dtype=float) if level == 1
             else np.arange(k_lo + 1, k_hi, 2, dtype=float))
        return grid.origin + k * self.step(level)

    def keep(self, news, level: int) -> list:
        """Keep the integrands' new values as trapezoid terms; the terms this level adds.

        Level 1 keeps a copy with the end weights 1/2 applied, at level 0's
        ends; a later level's nodes are interior, so its terms are its
        values, interleaved with the kept ones.
        """
        if level == 1:
            self.values = [new.copy() for new in news]
            for terms in self.values:
                terms[[0, -1]] *= 0.5
            return self.values
        for i, new in enumerate(news):
            merged = np.empty(2 * new.size + 1, dtype=complex)
            merged[0::2] = self.values[i]
            merged[1::2] = new
            self.values[i] = merged
        return news

    def add_exact(self, sums: list[int]) -> list[float]:
        """Add a level's exact sums; the running sums, each rounded once."""
        if self.exact is None:
            self.exact = sums
        else:
            self.exact = [total + part for total, part in zip(self.exact, sums)]
        return [total / _UNIT for total in self.exact]

    def sum_alone(self, terms, level: int) -> list[list[float]]:
        """A lone point's sums, real and imaginary per integrand, of each
        level this step settles (levels 0 and 1 on level 1).

        ``terms`` are the ones this level adds.  Fewer than ``_FSUM_TERMS``
        kept terms go to fsum.  The first level at or above it bins all the
        kept terms, level 1 the even and the odd k in two slots; later
        levels bin only the ones they add.
        """
        if self.exact is None:
            if self.values[0].size < _FSUM_TERMS:
                if level == 1:
                    return [_fsums(v[0::2] for v in self.values), _fsums(self.values)]
                return [_fsums(self.values)]
            if level == 1:
                parity = np.arange(self.values[0].size) & 1
                sums = [_exact_sums(v, parity, 2) for v in self.values]
                return [self.add_exact(_slot_sums(sums, s)) for s in (0, 1)]
            terms = self.values
        return [self.add_exact([total for new in terms for total in _exact_sums(new)])]

    def settle(self, sums: list[list[float]], level: int):
        """Take the sums of the levels this step settles; the outcome once the point stops.

        ``sums`` holds one list per level, the last one ``level``'s: levels 0
        and 1 on the first step, one level after it.  The outcome is one
        QuadratureResult per integrand; None while the point goes on
        refining.
        """
        for at, level_sums in enumerate(sums, level + 1 - len(sums)):
            step = self.step(at)
            last, self.sums = self.sums, []
            for i in range(len(last)):
                total = complex(step * level_sums[2 * i], step * level_sums[2 * i + 1])
                if self.romberg:
                    self.rows[i] = _romberg_row(self.rows[i], total)
                    total = self.rows[i][-1]
                self.sums.append(total)
        spec = self.spec
        diffs = [abs(total - previous) for total, previous in zip(self.sums, last)]
        floors = [self.floor * (step * float(np.add.reduce(np.abs(values))))
                  for values in self.values]
        tol_eff = [max(spec.tol, floor) for floor in floors]
        done = all(d <= _RICHARDSON_MARGIN * te for d, te in zip(diffs, tol_eff))
        if not done and level < spec.max_refinements:
            return None
        evaluations = self.values[0].size
        return [
            QuadratureResult(
                value=total,
                err_estimate=max(diff, floor),
                evaluations=evaluations,
                converged=diff <= _RICHARDSON_MARGIN * te,
                step_used=step,
                tol_effective=te,
            )
            for total, diff, floor, te in zip(self.sums, diffs, floors, tol_eff)
        ]


def _refine_chunk(fs, points: dict, outcomes: list) -> None:
    """Halve the step of every point (index: _Point) of a chunk until each one stops.

    The first kernel call of a point is level 1's, which settles levels 0
    and 1; each later one adds a level.
    """
    if len(points) == 1:
        # One point: its scalars go to the kernel, and none of the
        # many-point bookkeeping, which costs about 5% of a small integral.
        ((p, point),) = points.items()
        level, outcome = 1, None
        while outcome is None:
            nodes = point.next_nodes(level)
            news = [np.asarray(f(nodes, p), dtype=complex) for f in fs]
            outcome = _node_error(nodes, news, level)
            if outcome is None:
                terms = point.keep(news, level)
                outcome = point.settle(point.sum_alone(terms, level), level)
            level += 1
        outcomes[p] = outcome
        return
    level = 1
    while points:
        active = list(points)
        nodes = [points[p].next_nodes(level) for p in active]
        sizes = [block.size for block in nodes]
        t, rows = np.concatenate(nodes), np.repeat(active, sizes)
        news = [np.asarray(f(t, rows), dtype=complex) for f in fs]
        cuts = list(itertools.accumulate(sizes[:-1]))
        parts = zip(*(np.split(new, cuts) for new in news))
        kept = []
        for p, block, part in zip(active, nodes, parts):
            error = _node_error(block, part, level)
            if error is None:
                kept.append((p, points[p].keep(part, level)))
            else:
                outcomes[p] = error
                del points[p]
        if not kept:
            break
        # One bin pass per integrand over the terms the points that go on
        # add, each point in its own slot, or on level 1 in two: the even k
        # (level 0) and the odd k.  A point with a non-finite node stays
        # out, so it cannot spoil its chunk-mates' sums.
        per = 2 if level == 1 else 1
        sizes = [terms[0].size for _, terms in kept]
        slots = np.repeat(np.arange(len(kept)), sizes)
        if per == 2:
            slots = 2 * slots + np.concatenate([np.arange(size) & 1 for size in sizes])
        sums = [_exact_sums(np.concatenate([terms[i] for _, terms in kept]), slots,
                            per * len(kept))
                for i in range(len(fs))]
        for slot, (p, _) in enumerate(kept):
            point = points[p]
            outcome = point.settle(
                [point.add_exact(_slot_sums(sums, s))
                 for s in range(per * slot, per * (slot + 1))], level)
            if outcome is not None:
                outcomes[p] = outcome
                del points[p]
        level += 1


def _trapezoid_joint(
    fs: Sequence[Callable],
    specs: Sequence[ContourSpec],
    *,
    grids: Sequence[_Grid] | None = None,
    noise: Sequence[float] | None = None,
) -> list:
    """Trapezoid-with-halving on several integrands at many points.

    Point p integrates over ``grids[p]`` (default: the symmetric line
    [-T, T] of ``specs[p]``) to ``specs[p].tol``, its roundoff floor
    scaled by ``noise[p]`` (default 1).  Every integrand of a
    point sees the same nodes each level, and the point stops only when
    all of them meet their effective tolerance; sharing nodes lets
    ratio-type consumers (digamma) cancel common error.  The first kernel
    call evaluates the grid at half its step and settles two levels: level
    0 from the terms at even k, level 1 from all of them.  The levels are
    nested: after that, only the new odd-k nodes are evaluated and
    interleaved with the kept terms, so every node costs one kernel
    evaluation however many halvings follow.  Given ``grids``, each level's
    trapezoid sum is replaced by the diagonal of a Romberg table: those
    integrands' interval ends carry Euler-Maclaurin terms in h^2.

    Points are refined together in chunks of about ``_CHUNK_NODES`` level-0
    nodes.  Each refinement step calls each integrand once as ``f(t, rows)``
    on the new nodes of the chunk's points still refining, concatenated in
    point order: ``rows`` is the point's index in a chunk of one point, else an
    array naming the point of every node.  Each point keeps its own terms,
    exact sums, roundoff floor and Richardson stop, so its result does not
    depend on its chunk-mates beyond the bits of the kernel layout.  A
    chunk's new terms go through one ``_exact_sums`` pass per integrand
    and step, each point in its own slot (two on the first step: the even
    k and the odd k); a lone point sums its short levels with ``fsum``
    (below ``_FSUM_TERMS`` terms) and bins the rest.

    Returns, per point, one QuadratureResult per integrand, or the
    QuadratureNodeError of its first non-finite node on the coarsest level
    that has one (its chunk-mates go on).  Floating-point warnings are
    silenced: a non-finite node is reported that way instead.
    """
    romberg = grids is not None
    if grids is None:
        grids = [_line_grid(spec) for spec in specs]
    if noise is None:
        noise = [1.0] * len(specs)
    outcomes: list = [None] * len(specs)
    with np.errstate(all="ignore"):
        for chunk in _chunks(grids):
            _refine_chunk(fs, {p: _Point(specs[p], grids[p], len(fs), noise[p], romberg)
                               for p in chunk}, outcomes)
    return outcomes


def _only(outcomes: list) -> list[QuadratureResult]:
    """The results of a one-point ``_trapezoid_joint`` call; raises its node error."""
    (outcome,) = outcomes
    if isinstance(outcome, QuadratureNodeError):
        raise outcome
    return outcome


def trapezoid_line(f: Callable[[np.ndarray], np.ndarray], spec: ContourSpec) -> QuadratureResult:
    """Composite trapezoid over t in [-T, T] with step-halving refinement."""
    return _only(_trapezoid_joint((lambda t, _: f(t),), [spec]))[0]


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
    quad = _only(_trapezoid_joint(
        (lambda r, _: np.exp(-y * np.log(r) - r * r),), [spec], grids=[grid]))[0]
    return replace(quad, value=0.5 * head + quad.value,
                   converged=quad.converged and head_ok)


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

    return _only(_trapezoid_joint((f,), [spec], grids=[_Grid(theta0, 0, n, span / n)]))[0]


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
    return _ray_value(y, path, _ray_radial(y, big_r, spec))


def _ray_value(y: complex, path: SegmentPath,
               radial: QuadratureResult) -> tuple[complex, bool]:
    """A ray's integral -i e^{-+i pi y/2} J(y, R) from the shared radial J."""
    half_turn = -0.5j if path is SegmentPath.RAY_CD else 0.5j
    return -1j * cmath.exp(half_turn * math.pi * y) * radial.value, radial.converged


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
    the reported ``loop_sum`` measures accumulated quadrature error.  Both
    rays share one radial integral J(y, R), computed once.
    """
    y = complex(y)
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
    i_ab, i_bc, i_cd, i_de, i_ea = (value for value, _ in parts)
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
