"""Lone-point cost of each layer of the G line, per checkout, as JSON.

    python3 tools/layer_costs.py [CHECKOUT ...] [--processes P] [--repeats N]

With no checkout, the one this script lives in is measured.  Each
checkout's ``src/unigamma`` runs in its own subprocesses (this script with
``--emit``), P of them per checkout, started in turn across the checkouts so
that a drift of the machine's speed falls on all of them alike.  A process
times every layer at every point N times, the layers interleaved, each time
over enough calls to last about a millisecond, with the garbage collector
off.  A layer's figure at a point is the least time a call took over all
repeats and processes, in microseconds; the figure printed is its mean over
the points.

The points are drawn from a fixed seed over the box Re z, Im z in [-15, 15].
Each is the input of a lone ``recip_gamma`` call; the layers below the
functions run on the point whose line that call integrates (z, or 1 - z
where the left half-plane is read from the mirror line), as the call does:

- ``select_truncation``: the window of the line, ``quadrature.select_truncation``;
- ``certify``: the line's a-priori bound, ``quadrature._start_certificate``,
  at the start step and, where that one misses, at half of it;
- ``kernel``: ``integrands.g_integrand`` on the level-1 nodes of that window;
- ``kernel_log``: ``integrands.g_log_integrand``, digamma's weighted kernel,
  on the same nodes;
- ``summation``: one level-1 pass of ``quadrature._pass_sums`` over those
  nodes' kept terms;
- ``driver``: the line's driver point, built as ``functions._line_point``
  builds it (window grid, certificate, roundoff noise and, for a line no
  certificate settles, the crest rate), and ``quadrature._trapezoid_joint``
  on it, kernel included;
- ``reader``: from the line's quadrature to the EvalResult: ``_read``, the
  route, the function's reader and the EvalResult (``_result``, where the
  checkout has it);
- ``recip_gamma``, ``gamma``, ``gamma_sin_pi``, ``digamma`` and ``G``: the
  public call at the input point, each whole.

``level_two`` times a lone ``recip_gamma(1.761-0.2085j)`` and a lone
``digamma(0.288-1.018j)``, one figure each: lines that Richardson refines
to level 2 (step 0.0625) and that a level-1 certificate settles at step
0.125, so what certifying level 1 saves shows as a layer.

``readers`` times, at two fixed points, route + read + EvalResult on a line
already integrated, one figure per function and route (mirrored at
-3.3+0.7i, direct at 2.5+0.7i; gamma_sin_pi, whose line point is 1 - z,
the other way round).  The layers call private helpers as the checkout
they run in lays them out.  The driver is ``_trapezoid_joint(fs, points,
max_refinements)`` on points built by ``functions._line_point``.  Where
``functions._result`` exists, ``_lines`` returns a ``(sigma, truncation,
results)`` triple per point (Im z >= 0) and its caller reads it with
``_read(line, flip, tol, max_refinements)``; before that, ``_lines`` read
its points itself, and ``_read`` took the line's share of tol.  ``levels``
gives, per checkout, the level each point's line settles on (0 at step
0.25, 1 at 0.125, ...), marked "certified" where the checkout's
certificate settles it there and "Richardson" where the halving does.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
from time import perf_counter_ns

SEED = 2025
POINTS = 8
TARGET_NS = 1_000_000
_FUNCTIONS = ("recip_gamma", "gamma", "gamma_sin_pi", "digamma", "G")
_READERS = {"mirrored": -3.3 + 0.7j, "direct": 2.5 + 0.7j}
_LEVEL_TWO = {"recip_gamma": 1.761 - 0.2085j, "digamma": 0.288 - 1.018j}


def _points() -> list[complex]:
    rng = random.Random(SEED)
    return [complex(rng.uniform(-15, 15), rng.uniform(-15, 15)) for _ in range(POINTS)]


def _reads_apart(F) -> bool:
    """Whether ``_lines`` leaves the read to its caller (see the docstring)."""
    return hasattr(F, "_result")


def _number(call) -> int:
    """Calls per timing: about TARGET_NS of them, at least one, from five
    calls timed after three that warm up."""
    for _ in range(3):
        call()
    start = perf_counter_ns()
    for _ in range(5):
        call()
    return max(1, 5 * TARGET_NS // max(1, perf_counter_ns() - start))


def _cases(ug) -> tuple[dict, list[str]]:
    """Per layer, one zero-argument call per point; and per point, the level
    its line settles on, and whether the certificate or the halving settles
    it there."""
    import numpy as np

    F, Q, I = ug.functions, ug.quadrature, ug.integrands
    certify = Q._start_certificate
    cases: dict = {name: [] for name in ("select_truncation", "certify", "kernel", "kernel_log",
                                         "summation", "driver", "reader", *_FUNCTIONS)}
    tol, max_refinements = 1e-12, 12
    line_tol = (1.0 - F._TAIL_SHARE) * tol
    tail_tol = 0.5 * F._TAIL_SHARE * tol
    reader = _reader(F, "recip_gamma")
    levels = []
    for z in _points():
        w, mirror = F._route(z, True, None)
        flip = w.imag < 0.0
        w = w.conjugate() if flip else w
        sigma = F.default_sigma(w)
        trunc = Q.select_truncation(w, sigma, tail_tol)
        grid = Q._window_grid(trunc.lower, trunc.upper, Q._T_GRID)
        noise = F._exponent_noise(w, sigma, trunc)
        nodes = np.arange(2 * grid.k_lo, 2 * grid.k_hi + 1, dtype=float) * (0.5 * grid.step)
        fs = [lambda t, _, w=w, sigma=sigma: I.g_integrand(w, sigma, t)]
        cases["certify"].append(lambda w=w, sigma=sigma, trunc=trunc: certify(
            w, sigma, trunc, line_tol, False))
        def drive(fs=fs, w=w, sigma=sigma, trunc=trunc):
            return Q._trapezoid_joint(fs, [F._line_point(w, sigma, trunc, line_tol, False)],
                                      max_refinements)
        (quads,) = drive()
        level = round(math.log2(grid.step / quads[0].step_used))
        bound = certify(w, sigma, trunc, line_tol, False)[1]
        how = "certified" if bound <= Q._RICHARDSON_MARGIN * line_tol else "Richardson"
        levels.append(f"{level} {how}")
        cases["select_truncation"].append(
            lambda w=w, sigma=sigma: Q.select_truncation(w, sigma, tail_tol))
        cases["kernel"].append(lambda w=w, sigma=sigma, nodes=nodes: I.g_integrand(w, sigma, nodes))
        cases["kernel_log"].append(
            lambda w=w, sigma=sigma, nodes=nodes: I.g_log_integrand(w, sigma, nodes))
        point = Q._Point(grid, line_tol, noise=noise, romberg=False)
        cases["summation"].append(_summation(Q, point, I.g_integrand(w, sigma, nodes)))
        cases["driver"].append(drive)
        line = (sigma, trunc, quads)
        cases["reader"].append(lambda z=z, line=line, flip=flip: reader(
            z, F._read(line, flip, tol if _reads_apart(F) else line_tol, max_refinements)))
        for name in _FUNCTIONS:
            cases[name].append(lambda fn=getattr(F, name), z=z: fn(z))
    return cases, levels


def _summation(Q, point, values):
    """One level-1 ``_pass_sums`` of a lone uncertified ``point`` that keeps ``values``."""
    point.next_nodes()
    point.keep([values.copy()])
    return lambda: Q._pass_sums((point,))


def _reader(F, name: str):
    """Route + read + EvalResult of ``name``, as a call ``(z, line)`` on the
    line tuple of a line already integrated."""
    line_point, _, read, may_mirror = F._ENGINE[name]
    route = F._route
    if _reads_apart(F):
        result = F._result

        def call(z, line):
            return result(read, z, route(line_point(z), may_mirror, None)[1], line)
        return call
    result = F.EvalResult

    def call(z, line):
        _, mirror = route(line_point(z), may_mirror, None)
        values, errs, spec, converged, evaluations = line
        return result(z, *read(z, mirror, values, errs), spec, converged, evaluations)
    return call


def _reader_cases(ug) -> dict:
    F = ug.functions
    cases = {}
    for name in ("recip_gamma", "gamma", "gamma_sin_pi", "digamma"):
        line_point, kernels, _, may_mirror = F._ENGINE[name]
        for route, z in _READERS.items():
            if name == "gamma_sin_pi":
                z = 1.0 - z
            point, _ = F._route(line_point(z), may_mirror, None)
            if _reads_apart(F):
                flip = point.imag < 0.0
                (line,) = F._lines((point.conjugate() if flip else point,), kernels, None,
                                   1e-12, 12)
                line = F._read(line, flip, 1e-12, 12)
            else:
                (line,) = F._lines((point,), kernels, None, 1e-12, 12)
            cases[f"{route} {name}"] = [lambda read=_reader(F, name), z=z, line=line:
                                        read(z, line)]
    return cases


def _emit(checkout: str, repeats: int) -> None:
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    import unigamma

    cases, levels = _cases(unigamma)
    layers = {**cases,
              **{f"level_two {name}": [lambda fn=getattr(unigamma, name), z=z: fn(z)]
                 for name, z in _LEVEL_TWO.items()},
              **{f"readers {k}": v for k, v in _reader_cases(unigamma).items()}}
    numbers = {layer: [_number(call) for call in calls] for layer, calls in layers.items()}
    best = {layer: [float("inf")] * len(calls) for layer, calls in layers.items()}
    gc.disable()
    for _ in range(repeats):
        for layer, calls in layers.items():
            for i, (call, number) in enumerate(zip(calls, numbers[layer])):
                start = perf_counter_ns()
                for _ in range(number):
                    call()
                best[layer][i] = min(best[layer][i], (perf_counter_ns() - start) / number)
    gc.enable()
    json.dump({"layers": best, "levels": levels}, sys.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*",
                        default=[os.path.dirname(os.path.dirname(os.path.abspath(__file__)))])
    parser.add_argument("--processes", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        _emit(args.emit, args.repeats)
        return
    best: dict = {checkout: {} for checkout in args.checkouts}
    levels = {}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.processes):
            for checkout in args.checkouts:
                run = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--emit", checkout,
                     "--repeats", str(args.repeats)],
                    cwd=tmp, capture_output=True, text=True,
                    env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
                if run.returncode:
                    sys.exit(f"{checkout}: the timing failed\n{run.stderr}")
                emitted = json.loads(run.stdout)
                levels[checkout] = emitted["levels"]
                for layer, times in emitted["layers"].items():
                    seen = best[checkout].setdefault(layer, times)
                    best[checkout][layer] = [min(a, b) for a, b in zip(seen, times)]
    print(json.dumps({
        "what": "lone-point cost of each layer, microseconds a call: per point the least "
                "over all repeats and processes, then the mean over the points",
        "points": [repr(z) for z in _points()],
        "level_two": {name: repr(z) for name, z in _LEVEL_TWO.items()},
        "processes": args.processes,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "levels": levels,
        "figures": {checkout: {layer: round(sum(times) / len(times) / 1e3, 2)
                               for layer, times in layers.items()}
                    for checkout, layers in best.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
