"""Independent correctness checks against mpmath at 30 digits.

References are computed at run time, after the timed loop and in the
benchmark's own process, never in the process whose time and memory are
measured.  Nothing here keeps a stored copy of the program's output.
"""

from __future__ import annotations

import mpmath

from workloads import LAPLACE_TOL

DIGITS = 30
# The package's accuracy contract (README "Accuracy contract", functions
# docstring): 1e-9 relative, or 1e-6 absolute near the zeros.  "Near" is
# within 1e-3 of a zero, the reach of plane-mix's near-zero slice.
REL_PROMISE = 1e-9
ABS_PROMISE = 1e-6
NEAR_ZERO = 1e-3
# unigamma verify runs five identity checks.
VERIFY_CHECKS = 5


def reference(function: str, z: complex) -> complex:
    """The exact value of ``function`` at ``z``, rounded to a double."""
    with mpmath.workdps(DIGITS):
        w = mpmath.mpc(z.real, z.imag)
        if function in ("recip_gamma", "laplace_recip_gamma"):
            value = mpmath.rgamma(w)
        elif function == "G":
            value = mpmath.pi * mpmath.rgamma(w)
        elif function == "g_tilde":
            value = mpmath.pi * mpmath.rgamma((w + 1) / 2)
        elif function == "gamma":
            value = mpmath.gamma(w)
        elif function == "gamma_sin_pi":
            value = mpmath.pi * mpmath.rgamma(1 - w)
        elif function == "digamma":
            value = mpmath.digamma(w)
        else:
            raise ValueError(f"no reference for {function!r}")
        return complex(value)


class References:
    """mpmath references, each computed once per ``(function, z)``."""

    def __init__(self):
        self._known: dict[tuple[str, complex], complex] = {}

    def __call__(self, function: str, z: complex) -> complex:
        key = (function, z)
        if key not in self._known:
            self._known[key] = reference(function, z)
        return self._known[key]


def distance_to_zero(function: str, z: complex) -> float:
    """Distance from ``z`` to the nearest zero of ``function``, or inf."""
    if function == "g_tilde":
        function, z = "G", (z + 1.0) / 2.0
    if function in ("recip_gamma", "G"):
        return abs(z - min(0, round(z.real)))
    if function == "gamma_sin_pi":
        return abs(z - max(1, round(z.real)))
    return float("inf")


def meets_contract(function: str, z: complex, value: complex, ref: complex) -> bool:
    """1e-9 relative; within 1e-3 of a zero, 1e-6 absolute is enough too."""
    err = abs(value - ref)
    if err <= REL_PROMISE * abs(ref):
        return True
    return distance_to_zero(function, z) <= NEAR_ZERO and err <= ABS_PROMISE


def meets_laplace_tol(value: complex, ref: complex) -> bool:
    """laplace_recip_gamma promises its requested relative tolerance."""
    return abs(value - ref) <= LAPLACE_TOL * abs(ref)


def rel_err(value: complex, ref: complex) -> float:
    return abs(value - ref) / abs(ref)


def check_grid_csv(text: str, refs: References) -> tuple[int, int, list[str]]:
    """Check every converged row of a ``grid --function recip_gamma`` CSV.

    Returns ``(rows, unconverged, problems)``.  The row's own Lanczos
    columns are ignored; each value is judged against mpmath.
    """
    lines = text.splitlines()
    problems = []
    if not lines or not lines[0].startswith("re_z,im_z,re_value,im_value"):
        return 0, 0, ["missing CSV header"]
    rows = unconverged = 0
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 10:
            problems.append(f"malformed row {line!r}")
            continue
        rows += 1
        z = complex(float(fields[0]), float(fields[1]))
        if fields[9] != "true":
            unconverged += 1
            continue
        value = complex(float(fields[2]), float(fields[3]))
        if not meets_contract("recip_gamma", z, value, refs("recip_gamma", z)):
            problems.append(f"recip_gamma({z}) = {value} misses the contract")
    return rows, unconverged, problems


def check_verify_output(text: str) -> list[str]:
    """``unigamma verify`` must report every check as passing."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[-1] != "all checks passed":
        return ["verify did not report 'all checks passed'"]
    failing = [line for line in lines[:-1] if not line.endswith("  pass")]
    problems = [f"verify check not passing: {line!r}" for line in failing]
    if len(lines) - 1 != VERIFY_CHECKS:
        problems.append(f"verify reported {len(lines) - 1} checks, not {VERIFY_CHECKS}")
    return problems
