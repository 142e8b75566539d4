"""The measuring tools under ``tools/`` still run against this package.

They call private helpers (``functions._lines``, ``_read``,
``quadrature._trapezoid_joint``, ...), so a change to those breaks them
without breaking any other test.  Each tool is loaded by path and driven on
this checkout's ``unigamma``, once per case, with no subprocess.
"""

from __future__ import annotations

import importlib.util
import math
import os

import numpy as np
import pytest

import unigamma
from unigamma import EvalResult, QuadratureResult

import test_functions

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_tool_{name}", os.path.join(_TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layer_costs():
    return _tool("layer_costs")


@pytest.fixture(scope="module")
def cases(layer_costs):
    return layer_costs._cases(unigamma)


class TestLayerCosts:
    def test_every_case_runs(self, layer_costs, cases):
        cases, levels = cases
        assert len(levels) == layer_costs.POINTS
        for layer, calls in cases.items():
            assert len(calls) == layer_costs.POINTS, layer
            for call in calls:
                call()

    def test_reader_case_is_the_public_call(self, cases):
        # The reader layer reads the line the lone call integrates, as it reads it.
        cases, _ = cases
        for read, call in zip(cases["reader"], cases["recip_gamma"]):
            assert read() == call()

    def test_every_reader_case_runs(self, layer_costs):
        cases = layer_costs._reader_cases(unigamma)
        assert len(cases) == 8
        for name, (call,) in cases.items():
            assert isinstance(call(), EvalResult), name


def test_compare_outputs_joint():
    compare_outputs = _tool("compare_outputs")
    spec = unigamma.ContourSpec(half_width=6.0, step=0.5, tol=1e-12)
    outcomes = compare_outputs._joint(
        unigamma, (lambda t, rows: np.exp(-t * t),), spec, 2)
    assert len(outcomes) == 2
    for (quad,) in outcomes:
        assert isinstance(quad, QuadratureResult)
        assert quad.converged
        assert quad.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_promise_map_samples_the_promise_slice():
    # The tool's docstring: "--seed 13 --size 40 --top 1e3" is the slice that test pins.
    assert _tool("promise_map").points(13, 40, 1e3) == test_functions.TestPromiseSlice._points()
