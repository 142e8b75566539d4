"""Spans around the package's module boundaries, recorded from outside.

The package is not changed: ``Tracer.install`` replaces each traced entry
point at the attribute where its caller looks it up (a module global, or the
CLI's function table) and ``Tracer.remove`` puts the originals back.  A span
is ``(op, name, start_ns, end_ns, parent, attr)``, times in process CPU
time; ``op`` is the workload operation the span belongs to, ``parent`` the
index of the enclosing span (-1 at the top).  Spans stay in memory until
``write`` at the end of a run.
"""

from __future__ import annotations

import json
from time import process_time_ns

import numpy as np

import unigamma.cli
import unigamma.functions
import unigamma.integrands
import unigamma.oracle
import unigamma.quadrature

_I = unigamma.integrands
_Q = unigamma.quadrature
_F = unigamma.functions
_O = unigamma.oracle
_C = unigamma.cli

# (module, attribute, span name).  Every lookup site of an entry point that
# the workloads reach is listed, so a call is traced whoever makes it.
_MODULE_SITES = (
    (_I, "g_integrand", "integrands.g_integrand"),
    (_I, "g_log_integrand", "integrands.g_log_integrand"),
    (_I, "laplace_integrand", "integrands.laplace_integrand"),
    (_F, "select_truncation", "quadrature.select_truncation"),
    (_F, "tail_bound", "quadrature.tail_bound"),
    (_F, "trapezoid_line", "quadrature.trapezoid"),
    (_F, "_trapezoid_joint", "quadrature.trapezoid"),
    (_Q, "trapezoid_line", "quadrature.trapezoid"),
    (_O, "contour_loop", "quadrature.contour_loop"),
    (_Q, "_ray_radial", "quadrature.ray_radial"),
    (_Q, "_arc", "quadrature.arc"),
    # The benchmark's own loop calls unigamma.functions.<name>.  G is not
    # wrapped in that module, where recip_gamma, gamma and gamma_sin_pi call
    # it: their spans would nest.
    *((_F, name, f"functions.{name}") for name in (
        "g_tilde", "recip_gamma", "gamma", "gamma_sin_pi", "digamma",
        "laplace_recip_gamma")),
    (_O, "G", "functions.G"),
    (_O, "g_tilde", "functions.g_tilde"),
    (_O, "recip_gamma", "functions.recip_gamma"),
    (_O, "gamma_sin_pi", "functions.gamma_sin_pi"),
    (_O, "lanczos_gamma", "oracle.lanczos_gamma"),
    (_O, "oracle_recip_gamma", "oracle.oracle_recip_gamma"),
    (_C, "lanczos_gamma", "oracle.lanczos_gamma"),
    (_C, "oracle_recip_gamma", "oracle.oracle_recip_gamma"),
    (_C, "oracle_digamma", "oracle.oracle_digamma"),
    (_C, "run_identity_suite", "oracle.run_identity_suite"),
    (_C, "main", "cli.main"),
)
_KERNELS_WITH_NODES = ("integrands.g_integrand", "integrands.laplace_integrand")


def _attr(name: str, args, kwargs, result):
    """What a span records besides its times, per kind of entry point."""
    if name in _KERNELS_WITH_NODES:
        t = args[2] if len(args) > 2 else kwargs["t"]
        return int(np.size(t))
    if name == "quadrature.trapezoid":
        fs = args[0] if args else kwargs.get("fs", kwargs.get("f"))
        return len(fs) if isinstance(fs, (tuple, list)) else 1
    if name.startswith("functions.") and result is not None:
        v = complex(result.value)
        z = complex(result.z)
        return [z.real, z.imag, v.real, v.imag, float(result.err_estimate),
                bool(result.converged), int(result.evaluations)]
    return None


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = process_time_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = process_time_ns()
                stack.pop()
                spans[index] = (self.op, name, start, end, parent,
                                _attr(name, args, kwargs, result))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attribute, name in _MODULE_SITES:
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original))
        table = _C._FUNCTIONS
        for key, original in list(table.items()):
            self._saved.append((table, key, original))
            table[key] = self._wrap(f"functions.{key}", original)

    def remove(self) -> None:
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
