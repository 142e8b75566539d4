"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration minus the durations of its direct
children; the interpreter is single-threaded, so children never overlap.
An "eval" is one call into the ``functions`` layer's public API, whoever
made it (the benchmark's loop, ``oracle`` or ``cli``).

``layer_metrics`` returns the metrics every workload measures, which
BENCHMARK.json lists, and a second dict of figures that exist only on some
workloads (a layer the workload never reaches has no time per call).
Times are process CPU time scaled by the run's speed probes, as everywhere
in the benchmark (see speed.py).
"""

from __future__ import annotations

import json
import statistics

from checks import NEAR_ZERO, References, distance_to_zero, rel_err
from workloads import BOX_IM, BOX_RE

_KERNEL_NODES = ("integrands.g_integrand", "integrands.laplace_integrand")
_TRAPEZOID = "quadrature.trapezoid"
_LANCZOS = "oracle.lanczos_gamma"


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _away_from_zeros(function: str, z: complex) -> bool:
    """Inside the accuracy box and further than 1e-3 from any zero."""
    return (abs(z.real) <= BOX_RE and abs(z.imag) <= BOX_IM
            and distance_to_zero(function, z) > NEAR_ZERO)


def _share(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def layer_metrics(spans: list, refs: References, scale: float) -> tuple[dict, dict]:
    """``scale`` turns the spans' CPU ns into ns at the reference speed."""
    duration = [(s[3] - s[2]) * scale for s in spans]
    child_ns = [0] * len(spans)
    for s, d in zip(spans, duration):
        if s[4] >= 0:
            child_ns[s[4]] += d
    self_ns = [d - c for d, c in zip(duration, child_ns)]

    def under_trapezoid(index: int) -> bool:
        parent = spans[index][4]
        while parent >= 0:
            if spans[parent][1] == _TRAPEZOID:
                return True
            parent = spans[parent][4]
        return False

    evals = [i for i, s in enumerate(spans) if s[1].startswith("functions.")]
    kernels = [i for i, s in enumerate(spans) if s[1].startswith("integrands.")]
    trapezoids = [i for i, s in enumerate(spans) if s[1] == _TRAPEZOID]
    truncations = [i for i, s in enumerate(spans)
                   if s[1] == "quadrature.select_truncation"]
    n_evals = max(1, len(evals))

    nodes = sum(spans[i][5] for i in kernels if spans[i][1] in _KERNEL_NODES)
    trapezoid_nodes = sum(spans[i][5] for i in kernels
                       if spans[i][1] in _KERNEL_NODES and under_trapezoid(i))
    direct_kernel_calls = sum(1 for i in kernels
                              if spans[i][4] >= 0 and spans[spans[i][4]][1] == _TRAPEZOID)
    integrals = sum(spans[i][5] for i in trapezoids)

    returned = [(spans[i][1][len("functions."):], spans[i][5])
                for i in evals if spans[i][5] is not None]
    converged = [(fn, r) for fn, r in returned if r[5]]
    misses = 0
    max_rel = 0.0
    for fn, (zr, zi, vr, vi, err, _, _) in converged:
        z, value = complex(zr, zi), complex(vr, vi)
        ref = refs(fn, z)
        if abs(value - ref) > err:
            misses += 1
        if _away_from_zeros(fn, z):
            max_rel = max(max_rel, rel_err(value, ref))

    metrics = {
        "integrands.calls_per_eval": (len(kernels) / n_evals, "count"),
        "integrands.nodes_per_eval": (nodes / n_evals, "count"),
        "integrands.ns_per_node": (
            sum(self_ns[i] for i in kernels) / max(1, nodes), "ns"),
        "integrands.self_ms_per_eval": (
            sum(self_ns[i] for i in kernels) / n_evals / 1e6, "ms"),
        "quadrature.trapezoid_self_ns_per_node": (
            sum(self_ns[i] for i in trapezoids) / max(1, trapezoid_nodes), "ns"),
        "quadrature.levels_per_integral": (
            direct_kernel_calls / max(1, integrals), "count"),
        "quadrature.select_truncation_calls_per_eval": (
            len(truncations) / n_evals, "count"),
        "functions.self_us_per_eval": (
            sum(self_ns[i] for i in evals) / n_evals / 1e3, "us"),
        "functions.nodes_per_eval": (
            sum(r[6] for _, r in returned) / max(1, len(returned)), "count"),
        "functions.unconverged_pct": (
            _share(len(returned) - len(converged), len(returned)), "%"),
        "functions.err_bound_misses_pct": (
            _share(misses, len(converged)), "%"),
        "functions.max_rel_err": (max_rel, "rel"),
        **_repeated_work(spans, kernels, evals),
    }

    extras = {
        "evals": len(evals),
        "evals_returned": len(returned),
        "evals_converged": len(converged),
        "err_bound_misses": misses,
        "nodes": nodes,
    }
    if truncations:
        extras["quadrature.select_truncation_us"] = (
            sum(duration[i] for i in truncations) / len(truncations) / 1e3)
    loops = [duration[i] for i, s in enumerate(spans)
             if s[1] == "quadrature.contour_loop"]
    if loops:
        extras["quadrature.contour_loop_ms"] = sum(loops) / len(loops) / 1e6
    by_function: dict[str, list[int]] = {}
    for i in evals:
        by_function.setdefault(spans[i][1], []).append(duration[i])
    for name, times in sorted(by_function.items()):
        extras[f"{name}_p50_ms"] = statistics.median(times) / 1e6
        extras[f"{name}_calls"] = len(times)
    lanczos = [duration[i] for i, s in enumerate(spans)
               if s[1] == _LANCZOS and (s[4] < 0 or spans[s[4]][1] != _LANCZOS)]
    if lanczos:
        extras["oracle.lanczos_gamma_us"] = sum(lanczos) / len(lanczos) / 1e3
    mains = [i for i, s in enumerate(spans) if s[1] == "cli.main"]
    if mains:
        extras["cli.self_s"] = sum(self_ns[i] for i in mains) / len(mains) / 1e9
    return metrics, extras


def _g_argument(function: str, z: complex):
    """The point of the line integral G that a public call evaluates."""
    if function in ("G", "recip_gamma", "gamma"):
        return ("G", z)
    if function == "gamma_sin_pi":
        return ("G", 1.0 - z)
    if function == "g_tilde":
        return ("G", (z + 1.0) / 2.0)
    return (function, z)


def _repeated_work(spans: list, kernels: list[int], evals: list[int]) -> dict:
    """Shares of the work that repeats work already done.

    - evals whose line integral the same operation already computed (verify
      evaluates G(z) and G(1-z) again for its reflection check);
    - kernel nodes that repeat the previous halving level (every even node
      of a level is a node of the level before);
    - g_integrand nodes evaluated a second time inside g_log_integrand.
    """
    seen: set = set()
    repeated_evals = 0
    for i in evals:
        attr = spans[i][5]
        if attr is None:
            continue
        key = (spans[i][0], _g_argument(spans[i][1][len("functions."):],
                                         complex(attr[0], attr[1])))
        repeated_evals += key in seen
        seen.add(key)
    previous: dict = {}
    halving_repeats = 0
    total = 0
    log_repeats = 0
    for i in kernels:
        name, parent, nodes = spans[i][1], spans[i][4], spans[i][5]
        if name not in _KERNEL_NODES:
            continue
        total += nodes
        if parent >= 0 and spans[parent][1] == "integrands.g_log_integrand":
            log_repeats += nodes
            continue
        if parent >= 0 and spans[parent][1] == _TRAPEZOID:
            key = (parent, name)
            if key in previous:
                halving_repeats += (nodes + 1) // 2
            previous[key] = nodes
    return {
        "functions.repeated_eval_pct": (_share(repeated_evals, len(evals)), "%"),
        "quadrature.halving_repeat_node_pct": (_share(halving_repeats, total), "%"),
        "integrands.log_pass_repeat_node_pct": (_share(log_repeats, total), "%"),
    }
