"""Seeded inputs for the benchmark's workloads.

Every generator here is a pure function of ``(seed, round index)``: the same
seed gives the same inputs, and no two rounds of one run share a point.  A
round always has the same make-up (slice sizes and functions), so the share
of operations that fail is the same in every run whatever its length.

The two failing slices of ``plane-mix`` (right tail, far left) are drawn
from the round index alone, never from the seed: they fail on every input
today, and their count per round is fixed.

This module imports nothing from the package and nothing heavy, because the
process that imports it is the one whose memory is measured.
"""

from __future__ import annotations

import math
import random

# The documented accuracy box of the package.
BOX_RE = 15.0
BOX_IM = 15.0
# Nearest distance of a box point of gamma/digamma to a pole 0, -1, ..., -15.
POLE_CLEARANCE = 0.05

# plane-mix round: (slice, function, count).  200 operations per round.
PLANE_MIX_ROUND = (
    ("box", "recip_gamma", 35),
    ("box", "gamma_sin_pi", 35),
    ("box", "gamma", 35),
    ("box", "digamma", 35),
    ("near-zero", "recip_gamma", 12),
    ("near-zero", "gamma_sin_pi", 12),
    ("high-im", "recip_gamma", 6),
    ("high-im", "gamma_sin_pi", 6),
    ("high-im", "gamma", 6),
    ("high-im", "digamma", 6),
    ("right-tail", "gamma", 3),
    ("right-tail", "digamma", 3),
    ("far-left", "recip_gamma", 6),
)
PLANE_MIX_ROUND_SIZE = sum(count for _, _, count in PLANE_MIX_ROUND)

# Slices that fail every time today; their inputs ignore the seed.
KEPT_FAILING = ("right-tail", "far-left")

# laplace-crosscheck: Re z in [0.25, 1], |Im z| <= 4, relative tolerance.
# Each round jitters one fixed design of five (Re z, |Im z|) points.  The
# cost of a point is a step function of z (the refinement level reached),
# and the design fixes how many points of each level a round holds; the
# corner nearest Re z = 0, where the integrand decays slowest, is always in.
# With an odd count the median time falls inside one design point's values.
LAPLACE_DESIGN = ((0.28, 0.4), (0.45, 2.5), (0.60, 1.0),
                  (0.80, 0.5), (0.95, 3.0))
LAPLACE_JITTER = (0.03, 0.3)
LAPLACE_TOL = 1e-9
LAPLACE_ROUND_SIZE = len(LAPLACE_DESIGN)

# The CLI lattice: 41 x 41 points over [-10, 10]^2, default settings.
GRID_ARGS = (
    "grid", "--function", "recip_gamma",
    "--re-min", "-10", "--re-max", "10", "--re-steps", "41",
    "--im-min", "-10", "--im-max", "10", "--im-steps", "41",
)
VERIFY_ARGS = ("verify",)

IN_PROCESS = ("plane-mix", "laplace-crosscheck")
CLI = {"cli-verify": VERIFY_ARGS, "cli-grid": GRID_ARGS}
WORKLOADS = IN_PROCESS + tuple(CLI)


def _rng(*parts) -> random.Random:
    # String seeds hash through SHA-512, so they are stable across runs.
    return random.Random("/".join(str(p) for p in parts))


def _box_point(rng: random.Random, function: str) -> complex:
    while True:
        z = complex(rng.uniform(-BOX_RE, BOX_RE), rng.uniform(-BOX_IM, BOX_IM))
        if function not in ("gamma", "digamma"):
            return z
        pole = min(0, round(z.real))
        if pole < -15 or abs(z - pole) >= POLE_CLEARANCE:
            return z


def _near_zero_point(rng: random.Random, function: str) -> complex:
    # 1/Gamma vanishes at 0, -1, ..., -15; Gamma*sin(pi z) at 1, ..., 16.
    centre = -rng.randrange(16) if function == "recip_gamma" else rng.randint(1, 16)
    offset = 10.0 ** rng.uniform(-12.0, -3.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return centre + offset * complex(math.cos(angle), math.sin(angle))


def _high_im_point(rng: random.Random) -> complex:
    im = rng.uniform(BOX_IM, 2.0 * BOX_IM)
    return complex(rng.uniform(-BOX_RE, BOX_RE), im if rng.random() < 0.5 else -im)


def _right_tail_point(rng: random.Random) -> complex:
    # gamma/digamma raise a false PoleError here (absolute |G| test).
    return complex(rng.uniform(18.0, 40.0), rng.uniform(-3.0, 3.0))


def _far_left_point(rng: random.Random) -> complex:
    # recip_gamma overflows np.power here although 1/Gamma fits a double.
    return complex(rng.uniform(-160.0, -111.0), rng.uniform(-2.0, 2.0))


def plane_mix_round(seed: int, index: int) -> list[tuple[str, str, complex]]:
    """One shuffled round of ``(slice, function, z)`` operations."""
    rng = _rng("plane-mix", seed, index)
    fixed = _rng("plane-mix-kept-failing", index)
    ops = []
    for slice_name, function, count in PLANE_MIX_ROUND:
        for _ in range(count):
            if slice_name == "box":
                z = _box_point(rng, function)
            elif slice_name == "near-zero":
                z = _near_zero_point(rng, function)
            elif slice_name == "high-im":
                z = _high_im_point(rng)
            elif slice_name == "right-tail":
                z = _right_tail_point(fixed)
            else:
                z = _far_left_point(fixed)
            ops.append((slice_name, function, z))
    rng.shuffle(ops)
    return ops


def laplace_round(seed: int, index: int) -> list[tuple[str, str, complex]]:
    """The design points, each moved by a seeded jitter, random sign."""
    rng = _rng("laplace-crosscheck", seed, index)
    d_re, d_im = LAPLACE_JITTER
    ops = []
    for re, im in LAPLACE_DESIGN:
        re += rng.uniform(-d_re, d_re)
        im += rng.uniform(-d_im, d_im)
        if rng.random() < 0.5:
            im = -im
        ops.append(("strip", "laplace_recip_gamma", complex(re, im)))
    rng.shuffle(ops)
    return ops


def round_ops(workload: str, seed: int, index: int) -> list[tuple[str, str, complex]]:
    if workload == "plane-mix":
        return plane_mix_round(seed, index)
    if workload == "laplace-crosscheck":
        return laplace_round(seed, index)
    raise ValueError(f"{workload!r} has no in-process rounds")

