"""A promise map: four public functions over a seeded slice of the plane,
judged against mpmath, as JSON.

    python3 tools/promise_map.py [CHECKOUT ...] [--seed S] [--size N]
                                 [--top T] [--bands B ...] [--digits D]

With no checkout, the one this script lives in is mapped.  Each checkout's
``src/unigamma`` runs in its own subprocess (this script with ``--emit``).
The points are those of ``tests/test_functions.py::TestPromiseSlice``: |z|
log-uniform in [1e-2, T] and arg z uniform, drawn in that order from
``random.Random(S)``; ``--seed 13 --size 40 --top 1e3 --digits 30`` is the
slice that test pins.  ``recip_gamma``, ``gamma``, ``gamma_sin_pi`` and
``digamma`` are called at every point and classed as the test classes them:

- ``ok``: converged, within its err_estimate and within 1e-9 relative of
  the reference;
- ``converged, outside err_estimate`` (which the test refuses outright);
  ``converged, > 1e-9 relative``; ``unconverged``;
- ``returned (out of range)``: a result where the true |value| lies outside
  [1e-300, 1e300];
- an exception by its type name, with `` (out of range)`` where the true
  value does not fit, and `` (untyped)`` where it is no UnigammaError.

Per function and band (|z| up to each of B, and past the last) it counts
the points of each class, the points whose call leaked a warning, and the
results whose true value fits but lies further from it than their own
``err_estimate`` (converged or not).  ``failing`` lists, per function and
class other than ``ok``, the points in that class, so a change can name
what it moved.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings

FUNCTIONS = ("recip_gamma", "gamma", "gamma_sin_pi", "digamma")


def points(seed: int, size: int, top: float) -> list[complex]:
    """TestPromiseSlice's sampler: |z| log-uniform in [1e-2, top], arg z uniform."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        radius = 10.0 ** rng.uniform(-2, math.log10(top))
        angle = rng.uniform(-math.pi, math.pi)
        out.append(complex(radius * math.cos(angle), radius * math.sin(angle)))
    return out


def _exact(mpmath, name: str, z: complex, digits: int):
    """The reference value at ``digits`` digits; None at a pole."""
    w = mpmath.mpc(z.real, z.imag)
    with mpmath.workdps(digits):
        try:
            return {"recip_gamma": lambda: mpmath.rgamma(w),
                    "gamma": lambda: mpmath.gamma(w),
                    "gamma_sin_pi": lambda: mpmath.pi * mpmath.rgamma(1 - w),
                    "digamma": lambda: mpmath.digamma(w)}[name]()
        except (ValueError, ZeroDivisionError):     # at a pole
            return None


def judge(ug, mpmath, name: str, z: complex, digits: int) -> tuple[str, bool, bool]:
    """One call's class, whether it leaked a warning, and whether its result
    misses a true value that fits by more than its err_estimate."""
    exact = _exact(mpmath, name, z, digits)
    fits = exact is not None and 1e-300 <= abs(exact) <= 1e300
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        try:
            res = getattr(ug, name)(z)
        except Exception as exc:    # every failure is classed
            kind = type(exc).__name__
            if not isinstance(exc, ug.UnigammaError):
                kind += " (untyped)"
            return kind + ("" if fits else " (out of range)"), bool(leaked), False
    if not fits:
        return "returned (out of range)", bool(leaked), False
    err = abs(res.value - complex(exact))
    miss = not err <= res.err_estimate
    if not res.converged:
        return "unconverged", bool(leaked), miss
    if miss:
        return "converged, outside err_estimate", bool(leaked), miss
    if err > 1e-9 * abs(exact):
        return "converged, > 1e-9 relative", bool(leaked), miss
    return "ok", bool(leaked), miss


def _band_names(bands: list[float]) -> list[str]:
    names, low = [], None
    for high in bands:
        names.append(f"|z| <= {high:g}" if low is None else f"{low:g} < |z| <= {high:g}")
        low = high
    return names + [f"|z| > {low:g}"]


def promise_map(ug, seed: int, size: int, top: float, bands: list[float],
                digits: int) -> dict:
    import mpmath

    names = _band_names(bands)
    counts = {name: {band: {"points": 0, "classes": {}, "leaked_warnings": 0,
                            "err_estimate_misses": 0} for band in names}
              for name in FUNCTIONS}
    failing: dict = {name: {} for name in FUNCTIONS}
    for z in points(seed, size, top):
        band = names[sum(abs(z) > high for high in bands)]
        for name in FUNCTIONS:
            kind, leaked, miss = judge(ug, mpmath, name, z, digits)
            cell = counts[name][band]
            cell["points"] += 1
            cell["classes"][kind] = cell["classes"].get(kind, 0) + 1
            cell["leaked_warnings"] += leaked
            cell["err_estimate_misses"] += miss
            if kind != "ok":
                failing[name].setdefault(kind, []).append(repr(z))
    return {"counts": counts, "failing": failing}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*",
                        default=[os.path.dirname(os.path.dirname(os.path.abspath(__file__)))])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--size", type=int, default=400)
    parser.add_argument("--top", type=float, default=1e4, help="largest |z|")
    parser.add_argument("--bands", type=float, nargs="+", default=[30.0, 300.0],
                        help="upper |z| of each band but the last")
    parser.add_argument("--digits", type=int, default=40, help="mpmath's working digits")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    args = parser.parse_args()
    options = dict(seed=args.seed, size=args.size, top=args.top, bands=sorted(args.bands),
                   digits=args.digits)
    if args.emit:
        sys.path.insert(0, os.path.join(os.path.abspath(args.emit), "src"))
        import unigamma

        json.dump(promise_map(unigamma, **options), sys.stdout)
        return
    maps = {}
    with tempfile.TemporaryDirectory() as tmp:
        for checkout in args.checkouts:
            run = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--emit", checkout,
                 "--seed", str(args.seed), "--size", str(args.size), "--top", repr(args.top),
                 "--digits", str(args.digits), "--bands", *map(repr, args.bands)],
                cwd=tmp, capture_output=True, text=True,
                env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
            if run.returncode:
                sys.exit(f"{checkout}: the map failed\n{run.stderr}")
            maps[checkout] = json.loads(run.stdout)
    print(json.dumps({**options, "maps": maps}, indent=1))


if __name__ == "__main__":
    main()
