"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is a contract; do not relax them.
"""

import cmath
import math
import os
import subprocess
import sys
import time

import pytest

from unigamma import (
    G,
    ContourSpec,
    DomainError,
    SegmentPath,
    contour_loop,
    digamma,
    euler_mascheroni,
    gamma_sin_pi,
    integrate_segment,
    laplace_recip_gamma,
    lanczos_gamma,
    oracle_digamma,
    oracle_recip_gamma,
    recip_gamma,
)
from unigamma.oracle import default_verification_grid

EULER = 0.5772156649015329


def _report(label: str, ok: bool, detail: str):
    print(f"{label}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{label} failed: {detail}"


def _is_integer(z: complex) -> bool:
    return z.imag == 0 and z.real == round(z.real)


def test_01_recip_gamma_grid_vs_oracle():
    """Global validity of the contour route on the 459-point default grid."""
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_abs = 0.0
    ok = True
    for z in default_verification_grid():
        got = recip_gamma(z)
        ref = oracle_recip_gamma(z)
        if abs(ref) > 1e-6:
            rel = abs(got.value - ref) / abs(ref)
            worst_rel = max(worst_rel, rel)
            ok = ok and rel <= 1e-9
        else:
            err = abs(got.value - ref)
            worst_abs = max(worst_abs, err)
            ok = ok and err <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        "criterion 01 (recip_gamma on 459-grid)", ok,
        f"worst rel {worst_rel:.2e} <= 1e-9, worst abs {worst_abs:.2e} "
        f"<= 1e-10, {elapsed:.1f}s < 60s",
    )


def test_02_gamma_sin_pi_vs_oracle():
    """Gamma(z) sin(pi z) against the classical product on the grid.

    At exact positive integers the product is exactly zero, checked to
    1e-10 absolute.  Exact nonpositive integers are excluded: the oracle
    side is an indeterminate 0 * inf there (the reference gamma has a
    pole), while gamma_sin_pi itself stays finite.
    """
    worst_rel = 0.0
    worst_abs = 0.0
    ok = True
    tested = 0
    for z in default_verification_grid():
        if _is_integer(z):
            if z.real <= 0:
                continue
            err = abs(gamma_sin_pi(z).value)
            worst_abs = max(worst_abs, err)
            ok = ok and err <= 1e-10
            tested += 1
            continue
        ref = lanczos_gamma(z) * cmath.sin(math.pi * z)
        rel = abs(gamma_sin_pi(z).value - ref) / abs(ref)
        worst_rel = max(worst_rel, rel)
        ok = ok and rel <= 1e-9
        tested += 1
    _report(
        "criterion 02 (gamma_sin_pi on grid)", ok,
        f"{tested} points, worst rel {worst_rel:.2e} <= 1e-9, "
        f"worst abs-at-zeros {worst_abs:.2e} <= 1e-10",
    )


def test_03_sigma_invariance():
    """The abscissa is arbitrary: G must not depend on it."""
    points = [
        complex(re, im)
        for re in (-1.7, -0.8, 0.25, 0.6, 1.3)
        for im in (-1.8, -1.4, -1.0, -0.6, -0.2, 0.2, 0.6, 1.0, 1.4, 1.8)
    ]
    assert len(points) == 50
    worst = 0.0
    for z in points:
        vals = [G(z, sigma=s).value for s in (0.5, 1.0, 2.0)]
        peak = max(abs(v) for v in vals)
        for i in range(3):
            for j in range(i + 1, 3):
                diff = abs(vals[i] - vals[j])
                worst = max(worst, diff / peak if peak > 1e-3 else diff / 1e-12)
    _report(
        "criterion 03 (sigma invariance)", worst <= 1e-10,
        f"50 points x sigma {{0.5,1,2}}, max pairwise rel {worst:.2e} <= 1e-10",
    )


def test_04_reflection_formula():
    """G(z) G(1-z) = pi sin(pi z) across the default grid."""
    worst = 0.0
    for z in default_verification_grid():
        rhs = math.pi * cmath.sin(math.pi * z)
        resid = abs(G(z).value * G(1 - z).value - rhs) / (1 + abs(rhs))
        worst = max(worst, resid)
    _report(
        "criterion 04 (reflection formula)", worst <= 1e-9,
        f"459 points, worst scaled residual {worst:.2e} <= 1e-9",
    )


def test_05_duplication_identity():
    """G-tilde(y) G-tilde(y+1) = sqrt(pi) 2^y G-tilde(2y+1)."""

    def gt(y):
        return G((y + 1) / 2).value

    worst = 0.0
    for y in (-2, -0.5, 0, 0.7, 1 + 1j):
        lhs = gt(y) * gt(y + 1)
        rhs = math.sqrt(math.pi) * cmath.exp(y * math.log(2)) * gt(2 * y + 1)
        worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
    _report(
        "criterion 05 (duplication identity)", worst <= 1e-9,
        f"5 orders, worst scaled residual {worst:.2e} <= 1e-9",
    )


def test_06_laplace_cross_check():
    """The half-plane Laplace route agrees with the entire contour route."""
    points = [
        complex(re, im)
        for re in (0.25, 0.5, 1.0, 2.5, 10.0)
        for im in (-10.0, -2.0, 0.0, 1.0, 7.5)
    ]
    worst = 0.0
    for z in points:
        a = laplace_recip_gamma(z)
        b = recip_gamma(z)
        worst = max(worst, abs(a.value - b.value) / abs(b.value))
    ok = worst <= 1e-8
    for bad in (0, -0.25, -3 + 2j):
        with pytest.raises(DomainError):
            laplace_recip_gamma(bad)
    _report(
        "criterion 06 (laplace cross-check)", ok,
        f"25 points, worst rel {worst:.2e} <= 1e-8; Re(z)<=0 rejected",
    )


def test_07_contour_loop_residual():
    """The closed loop integrates to zero, converged and within each tol."""
    combos = [
        (y, s, t)
        for y in (0, -1, -2 + 1j)
        for s in (1.0, 2.0)
        for t in (5.0, 8.0)
    ]
    worst_by_tol = {}
    within = True
    for tol in (1e-6, 1e-8, 1e-10):
        worst_by_tol[tol] = 0.0
        for y, s, t in combos:
            rep = contour_loop(y, ContourSpec(sigma=s, half_width=t, step=0.25,
                                              tol=tol))
            residual = abs(rep.loop_sum)
            worst_by_tol[tol] = max(worst_by_tol[tol], residual)
            within = within and rep.converged and residual <= tol
    worst = worst_by_tol[1e-10]
    ok = within and worst <= 1e-8
    _report(
        "criterion 07 (contour loop residual)", ok,
        f"12 combos converged and within tol: {within}; worst |loop| per tol: "
        + ", ".join(f"{tol:g}: {w:.2e}" for tol, w in worst_by_tol.items()),
    )


def test_08_proof_limit_rays():
    """I_CD + I_DE at T = 8 against -i 2cos(pi y/2) (1/2)Gamma((1-y)/2)."""
    spec = ContourSpec(sigma=1.0, half_width=8.0, step=0.25, tol=1e-10)
    worst = 0.0
    for y in (0, -1, -2.5):
        got = (integrate_segment(y, SegmentPath.RAY_CD, spec).value
               + integrate_segment(y, SegmentPath.RAY_DE, spec).value)
        want = -1j * 2 * cmath.cos(math.pi * y / 2) * 0.5 * lanczos_gamma((1 - y) / 2)
        worst = max(worst, abs(got - want))
    _report(
        "criterion 08 (proof-limit rays)", worst <= 1e-7,
        f"y in {{0,-1,-2.5}}, worst abs diff {worst:.2e} <= 1e-7",
    )


def test_09_digamma_and_euler():
    """The log-weighted integral: gamma constant and digamma values."""
    euler = euler_mascheroni()
    e_err = abs(euler.value.real - EULER)
    points = [
        complex(re, im)
        for re in (-4.5, -1.5, 0.5, 2.5, 4.5)
        for im in (-3.0, -0.5, 1.0, 4.0)
    ]
    assert len(points) == 20
    worst = 0.0
    for z in points:
        rel = abs(digamma(z).value - oracle_digamma(z)) / abs(oracle_digamma(z))
        worst = max(worst, rel)
    d1 = abs(digamma(1).value + euler.value)
    ok = e_err <= 1e-9 and worst <= 1e-8 and d1 <= 1e-10
    _report(
        "criterion 09 (digamma and Euler's constant)", ok,
        f"euler err {e_err:.2e} <= 1e-9; 20-point digamma worst rel "
        f"{worst:.2e} <= 1e-8; psi(1)+gamma = {d1:.2e} <= 1e-10",
    )


def test_10_entirety_across_poles():
    """One code path, no pole branches: G stays accurate at Gamma's poles."""
    ok = True
    worst = 0.0
    for z in (0, -1, -2, -3, -5.5, -10):
        res = recip_gamma(z)
        ok = ok and res.converged
        if z == -5.5:
            continue
        worst = max(worst, abs(res.value))
        ok = ok and abs(res.value) <= 1e-9
    _report(
        "criterion 10 (entire across poles)", ok,
        f"all converged; worst |1/Gamma| at nonpositive integers "
        f"{worst:.2e} <= 1e-9",
    )


def test_11_grid_determinism(tmp_path):
    """Two consecutive grid scans emit byte-identical CSV."""
    args = [
        sys.executable, "-m", "unigamma.cli", "grid",
        "--function", "recip_gamma",
        "--re-min", "-2", "--re-max", "2", "--re-steps", "5",
        "--im-min", "-2", "--im-max", "2", "--im-steps", "5",
    ]
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    runs = []
    for k in (1, 2):
        out = tmp_path / f"run{k}.csv"
        proc = subprocess.run(args + ["--out", str(out)], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append(out.read_bytes())
    ok = runs[0] == runs[1] and len(runs[0]) > 0
    _report(
        "criterion 11 (grid determinism)", ok,
        f"two runs, {len(runs[0])} bytes, byte-identical",
    )
