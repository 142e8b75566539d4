"""Compare the outputs of two unigamma checkouts on one fixed seeded corpus.

    python3 tools/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's ``src/unigamma`` runs in its own subprocess (this script
with ``--emit``), so the two packages never share an interpreter.  The
corpus is fixed by its seed:

- the six line functions (G, g_tilde, recip_gamma, gamma, gamma_sin_pi,
  digamma) with random ``tol``, ``sigma`` and ``max_refinements``, at
  in-box, near-zero, high-Im, right-tail and far-left points, and
  ``gamma`` at three direct-line points where |G(z)| > 1.3e154;
- ``evaluate_many`` batches whose chunk-mates fail (poles, non-finite
  nodes, bad input), batches of two and three points, and batches that
  hold conjugate pairs, exact duplicates and signed-zero imaginary parts;
- ``laplace_recip_gamma`` (at random tolerances and at 1e-3 and 1e-6),
  ``euler_mascheroni``, contour loops and segments, ``trapezoid_line``,
  tolerances whose tail share underflows, and some bad arguments;
- rays and lines whose node values are finite but whose sum leaves the
  double range, by fsum and by the bins, a line whose sum fits though
  fsum's partial sums overflow, and a line and a contour loop whose sums fit
  though their sums of |f| overflow;
- lone lines and a chunk whose levels cross the fsum cutover (see
  ``quadrature._pass_sums``) both ways, so every summation route is taken;
  the chunks call ``quadrature._trapezoid_joint`` in the signature of the
  checkout they run in;
- ``evaluate_many`` batches that put each of five points whose line has
  its sigma capped far below its saddle (no certificate settles it, and
  steps 0.25 and 0.125 alias its crest) amid box points, so the batch path
  is seen on uncertified lines;
- the CLI: the 41 x 41 ``grid --function recip_gamma`` CSV, a ``digamma``
  grid out to |Im z| = 30, ``verify --json`` and ``constants --json``.

An outcome is the ``repr`` of a result, whose floats round-trip exactly, or
the type and text of the exception raised, so "same" means the same bits.
Prints the number of differing outcomes and the first few, and exits 1 if
any differ.  For a change meant to move last bits, it then sums the
differences up: how many differing results differ only in ``evaluations``
(and in the ``tol`` their spec records); how many differing results (an
outcome, or a row of a grid CSV) differ only in ``err_estimate``,
``tol_effective`` and the spec's ``tol``, each by at most 1e-15 relative,
and the largest such move; of the values that changed where both sides
returned (results and grid rows), how many lie within the sum of the two
``err_estimate``s; how many changed results (outcomes whose text moved)
went from each step to each other (old step -> new step: "0.25 -> 0.25"
counts results that stayed at the G line's start step, "0.0625 -> 0.125"
lines that now stop a level sooner; a grid CSV row records no step, so its
rows are counted apart), and how many changed results (outcomes and grid
rows) differ only in ``err_estimate``, their values and every other field
the same; and how
many ``converged`` flags (and how many of them from False to True) and
exception types changed, naming the first few.
Where mpmath is importable, each result of a line function (an outcome or
a grid row) whose value or ``err_estimate`` changed is also judged against
mpmath at 30 digits: per side, how many meet the documented accuracy box
(1e-9 relative, or 1e-6 absolute within 1e-3 of a zero), how many lie
further from mpmath than their own ``err_estimate``, and the worst relative
error, so a change that moves values shows whether they moved toward the
truth and whether the estimates still hold.  Writes only to a temporary
directory.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile

SEED = 20260413
SHOW = 8

_LINE_FUNCTIONS = ("G", "g_tilde", "recip_gamma", "gamma", "gamma_sin_pi", "digamma")
_CLI_RUNS = {
    "cli grid recip_gamma 41x41": (
        "grid", "--function", "recip_gamma",
        "--re-min", "-10", "--re-max", "10", "--re-steps", "41",
        "--im-min", "-10", "--im-max", "10", "--im-steps", "41"),
    "cli grid digamma to |Im z| = 30": (
        "grid", "--function", "digamma",
        "--re-min", "-8", "--re-max", "8", "--re-steps", "17",
        "--im-min", "-30", "--im-max", "30", "--im-steps", "25"),
    "cli verify --json": ("verify", "--json"),
    "cli constants --json": ("constants", "--json"),
}


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # every failure is an outcome to compare
        return _described(exc)


def _described(outcome) -> str:
    """An ``evaluate_many`` outcome as ``_outcome`` writes a call's."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return repr(outcome)


def _points(rng: random.Random) -> list[tuple[str, complex]]:
    """(slice, z) pairs: in-box, near-zero, high-Im, right-tail, far-left."""
    out = []
    for _ in range(240):
        out.append(("box", complex(rng.uniform(-15, 15), rng.uniform(-15, 15))))
    for _ in range(60):
        offset = 10.0 ** rng.uniform(-12, -3) * complex(math.cos(a := rng.uniform(0, 6.3)),
                                                         math.sin(a))
        out.append(("near-zero", -rng.randint(0, 15) + offset))
    for _ in range(60):
        out.append(("high-im", complex(rng.uniform(-15, 15),
                                       rng.choice((-1, 1)) * rng.uniform(15, 100))))
    for _ in range(20):
        out.append(("right-tail", complex(rng.uniform(18, 40), rng.uniform(-3, 3))))
    for _ in range(20):
        out.append(("far-left", complex(rng.uniform(-160, -111), rng.uniform(-2, 2))))
    return out


def _options(rng: random.Random) -> dict:
    options = {}
    if rng.random() < 0.4:
        options["tol"] = 10.0 ** rng.uniform(-14, -6)
    if rng.random() < 0.3:
        options["sigma"] = rng.uniform(0.3, 4.0)
    if rng.random() < 0.3:
        options["max_refinements"] = rng.randint(1, 8)
    return options


def _spec_key(spec) -> str:
    """A ContourSpec by the fields every checkout's has, so keys match across them."""
    return " ".join(f"{name}={getattr(spec, name)!r}"
                    for name in ("sigma", "half_width", "step", "tol", "max_refinements"))


def _joint(ug, fs, spec, count: int) -> list:
    """``_trapezoid_joint`` of ``fs`` at ``count`` points on ``spec``'s line, in
    this checkout's signature: a ``_Point`` per point, or a grid per point
    and the tolerance once.  Each integral is shown as a QuadratureResult,
    also where the driver returns its fields in another tuple."""
    Q = ug.quadrature
    grid = Q._line_grid(spec)
    if "points" in inspect.signature(Q._trapezoid_joint).parameters:
        outcomes = Q._trapezoid_joint(fs, [Q._Point(grid, spec.tol) for _ in range(count)],
                                      spec.max_refinements)
    else:
        outcomes = Q._trapezoid_joint(fs, [grid] * count, spec.tol, spec.max_refinements)
    return [[ug.QuadratureResult(*quad) for quad in outcome]
            if isinstance(outcome, list) else outcome for outcome in outcomes]


def _corpus(ug) -> dict[str, str]:
    """Every in-process outcome of the corpus, by a key naming the call."""
    import numpy as np

    rng = random.Random(SEED)
    out: dict[str, str] = {}
    points = _points(rng)
    for name in _LINE_FUNCTIONS:
        fn = getattr(ug, name)
        for index, (where, z) in enumerate(points):
            options = _options(rng) if index % 2 else {}
            out[f"{name}/{where}/{index} {z!r} {options}"] = _outcome(
                lambda: fn(z, **options))
    # Small Gamma on the direct line, past the mirror's reach: |G(z)| above
    # 1.3e154, where an error term over |G|^2 overflows.
    for z in (-60.32344004494155 + 72.44507069345973j,
              -63.0138222383571 + 72.59358580646737j,
              -54.49759955562225 + 104.14417602659863j):
        out[f"gamma/huge-g {z!r}"] = _outcome(lambda: ug.gamma(z))
    for batch in range(20):
        name = _LINE_FUNCTIONS[batch % len(_LINE_FUNCTIONS)]
        zs = [z for _, z in rng.sample(points, 25)]
        zs[3:3] = [-120.5 + 0.3j, -2, float("nan"), "abc", 1 - 1e-14]
        options = _options(rng)
        outcomes = ug.evaluate_many(name, zs, **options)
        for index, (z, outcome) in enumerate(zip(zs, outcomes)):
            out[f"evaluate_many {name}/{batch}/{index} {z!r} {options}"] = _described(outcome)
    for index in range(30):
        z = complex(rng.uniform(0.05, 3.0), rng.uniform(-6, 6))
        options = {"tol": 10.0 ** rng.uniform(-11, -7)} if index % 2 else {}
        out[f"laplace_recip_gamma/{index} {z!r} {options}"] = _outcome(
            lambda: ug.laplace_recip_gamma(z, **options))
    # Loose tolerances, where the relative check alone decides the flag; an
    # rng of their own keeps the draws of the rest of the corpus.
    loose = random.Random(SEED + 1)
    for index in range(20):
        z = complex(loose.uniform(0.05, 12.0), loose.uniform(-12, 12))
        tol = (1e-3, 1e-6)[index % 2]
        out[f"laplace_recip_gamma loose/{index} {z!r} tol={tol}"] = _outcome(
            lambda: ug.laplace_recip_gamma(z, tol=tol))
    for tol in (1e-12, 1e-9, 1e-6):
        out[f"euler_mascheroni tol={tol}"] = _outcome(lambda: ug.euler_mascheroni(tol=tol))
    for index in range(8):
        y = complex(-rng.uniform(0, 3), rng.uniform(-2, 2))
        spec = ug.ContourSpec(sigma=rng.uniform(0.5, 2), half_width=rng.uniform(4, 8),
                              step=0.25, tol=10.0 ** rng.uniform(-12, -8))
        out[f"contour_loop/{index} {y!r} {_spec_key(spec)}"] = _outcome(
            lambda: ug.contour_loop(y, spec))
        for path in ug.SegmentPath:
            out[f"integrate_segment/{index} {path.value}"] = _outcome(
                lambda: ug.integrate_segment(y, path, spec))
    lines = {
        "gaussian": lambda t: np.exp(-t * t),
        "odd": lambda t: t * np.exp(-t * t),
        "oscillating": lambda t: np.exp(-t * t) * np.cos(5 * t),
        "g(0.5+3i)": lambda t: ug.g_integrand(0.5 + 3j, 1.0, t),
        "pole at 0": lambda t: np.exp(-t * t) / t,
        "cos": np.cos,
    }
    for index in range(24):
        label = list(lines)[index % len(lines)]
        spec = ug.ContourSpec(half_width=rng.uniform(4, 30), step=rng.choice((0.25, 0.5, 1.0)),
                              tol=10.0 ** rng.uniform(-14, -8),
                              max_refinements=rng.randint(1, 10))
        out[f"trapezoid_line/{index} {label} {_spec_key(spec)}"] = _outcome(
            lambda: ug.trapezoid_line(lines[label], spec))
    # Non-finite at t = -0.5 (an odd k at step 1) and t = 2 (an even k), and
    # per point of a chunk, with chunk-mates that stay finite.
    spec = ug.ContourSpec(half_width=6.0, step=1.0, tol=1e-12)
    out["trapezoid_line poles at -0.5 and 2"] = _outcome(lambda: ug.trapezoid_line(
        lambda t: np.exp(-t * t) / ((t + 0.5) * (t - 2.0)), spec))
    shifts = np.array([3j, 0.5, 0.25, 0.5, 3j])
    ends = np.array([9.0, 2.0, 9.0, 9.0, 2.0])
    out["_trapezoid_joint chunk with poles"] = _outcome(lambda: _joint(
        ug, (lambda t, rows: np.exp(-t * t) / ((t + shifts[rows]) * (t - ends[rows])),),
        spec, len(shifts)))
    # Finite node values whose sum leaves the double range, summed by fsum
    # (y = -342, half-width 6) and by the bins (y = -341.5, half-width 60).
    ray = ug.ContourSpec(sigma=1, half_width=20, step=0.25, tol=1e-10)
    for y in (-342, -341.5):
        out[f"integrate_segment sum past the doubles {y!r} ray_cd"] = _outcome(
            lambda: ug.integrate_segment(y, "ray_cd", ray))
    for width in (6.0, 60.0):
        out[f"trapezoid_line sum past the doubles half_width={width!r}"] = _outcome(
            lambda: ug.trapezoid_line(lambda t: np.full(np.shape(t), 1e307 + 0j),
                                      ug.ContourSpec(half_width=width)))
    # A sum that fits, whose fsum partials overflow.
    out["trapezoid_line partial sums past the doubles"] = _outcome(lambda: ug.trapezoid_line(
        lambda t: np.where(t < 0, 1e308, np.where(t > 0, -1e308, 1.0)) + 0j,
        ug.ContourSpec(half_width=6.0)))
    # Sums that fit, whose sum of |f|, and so the roundoff floor, does not:
    # at level 1 of a line, and at a later level of the closed contour's.
    out["trapezoid_line floor past the doubles"] = _outcome(lambda: ug.trapezoid_line(
        lambda t: 1e306 * np.cos(40 * t) + 0j, ug.ContourSpec(half_width=60.0)))
    out["contour_loop floor past the doubles"] = _outcome(lambda: ug.contour_loop(
        -290.0, ug.ContourSpec(sigma=8.0, half_width=8.0, step=0.25, tol=1e-10)))
    # Small batches, whose refinement passes hold few terms in all.
    for batch in range(24):
        name = _LINE_FUNCTIONS[batch % len(_LINE_FUNCTIONS)]
        zs = [z for _, z in rng.sample(points, 2 + batch % 2)]
        options = _options(rng) if batch % 3 else {}
        outcomes = ug.evaluate_many(name, zs, **options)
        for index, (z, outcome) in enumerate(zip(zs, outcomes)):
            out[f"evaluate_many small {name}/{batch}/{index} {z!r} {options}"] = (
                _described(outcome))
    # Lone lines whose first levels hold fewer terms than the fsum cutover
    # and whose later ones more: 161, then 321 (half-width 10, step 0.25),
    # and 61, 121, 241, then 481 (half-width 30, step 1).
    for width, step, label in ((10.0, 0.25, "g(0.5+3i)"), (30.0, 1.0, "g(0.5+3i)"),
                               (30.0, 1.0, "oscillating")):
        spec = ug.ContourSpec(half_width=width, step=step, tol=1e-13)
        out[f"trapezoid_line crossing {label} {_spec_key(spec)}"] = _outcome(
            lambda: ug.trapezoid_line(lines[label], spec))
    # A chunk of four lines of 65 level-1 terms each: level 1 is binned,
    # the oscillating one refines alone, its 129 terms of level 2 go to
    # fsum, and its 257 of level 3 are binned afresh.
    spec = ug.ContourSpec(half_width=8.0, step=0.5, tol=1e-13)
    freqs = np.array([0.0, 0.0, 20.0, 0.0])
    out["_trapezoid_joint chunk, one point refining on"] = _outcome(lambda: _joint(
        ug, (lambda t, rows: np.exp(-t * t + 1j * freqs[rows] * t),), spec, len(freqs)))
    bad = {
        "tail_bound(1, 1, 0)": lambda: ug.tail_bound(1, 1, 0),
        "tail_bound(1, nan, 5)": lambda: ug.tail_bound(1, math.nan, 5),
        "tail_bound(nan, 1, 5)": lambda: ug.tail_bound(math.nan, 1, 5),
        "tail_bound(1, -1, 5)": lambda: ug.tail_bound(1, -1, 5),
        "G(1, max_refinements=inf)": lambda: ug.G(1, max_refinements=math.inf),
        "G(1, max_refinements=nan)": lambda: ug.G(1, max_refinements=math.nan),
        "G(1, max_refinements=None)": lambda: ug.G(1, max_refinements=None),
        "evaluate_many(G, [1, 2], max_refinements=inf)":
            lambda: ug.evaluate_many("G", [1, 2], max_refinements=math.inf),
        "ContourSpec(sigma=1e-200)": lambda: ug.ContourSpec(sigma=1e-200),
        "select_truncation(None, 1, 1e-12)": lambda: ug.select_truncation(None, 1.0, 1e-12),
        "G(1, tol='x')": lambda: ug.G(1, tol="x"),
        "G(1, sigma='x')": lambda: ug.G(1, sigma="x"),
        "evaluate_many(G, [1, 2], tol='x')": lambda: ug.evaluate_many("G", [1, 2], tol="x"),
        "euler_mascheroni(sigma='x')": lambda: ug.euler_mascheroni(sigma="x"),
        "laplace_recip_gamma(1, sigma='x')": lambda: ug.laplace_recip_gamma(1, sigma="x"),
        "laplace_recip_gamma(5, sigma=1e-100)":
            lambda: ug.laplace_recip_gamma(5, sigma=1e-100),
        "laplace_recip_gamma(0.5, sigma=1e-300)":
            lambda: ug.laplace_recip_gamma(0.5, sigma=1e-300),
        "ContourSpec(half_width='x')": lambda: ug.ContourSpec(half_width="x"),
        "ContourSpec(step='x')": lambda: ug.ContourSpec(step="x"),
        "tail_bound(1, 1, 'x')": lambda: ug.tail_bound(1, 1, "x"),
        "run_identity_suite(rel_tol='x')": lambda: ug.run_identity_suite(rel_tol="x"),
        "run_identity_suite(grid=['x'])": lambda: ug.run_identity_suite(grid=["x"]),
        "contour_loop('x', ContourSpec())": lambda: ug.contour_loop("x", ug.ContourSpec()),
        "integrate_segment('x', line_ab, ContourSpec())":
            lambda: ug.integrate_segment("x", ug.SegmentPath.LINE_AB, ug.ContourSpec()),
        "integrate_segment(0, 'nope', ContourSpec())":
            lambda: ug.integrate_segment(0, "nope", ug.ContourSpec()),
        "gaussian_moment_check('x')": lambda: ug.gaussian_moment_check("x"),
        "ContourSpec(window=('a', 5.0))": lambda: ug.ContourSpec(window=("a", 5.0)),
        "ContourSpec(window=5)": lambda: ug.ContourSpec(window=5),
        "ContourSpec(window=(1.0,))": lambda: ug.ContourSpec(window=(1.0,)),
        "G(1, tol=5e-324)": lambda: ug.G(1, tol=5e-324),
        "G(1, tol=2e-323)": lambda: ug.G(1, tol=2e-323),
        "g_integrand(1, 1e-300, 0)": lambda: ug.g_integrand(1, 1e-300, 0.0),
        "g_log_integrand(1, 1e-300, 0)": lambda: ug.g_log_integrand(1, 1e-300, 0.0),
        "laplace_integrand(0.5, 1e-300, 0)":
            lambda: ug.laplace_integrand(0.5, 1e-300, 0.0),
        "principal_power(1e-300, 0.5)": lambda: ug.principal_power(1e-300, 0.5),
    }
    for key, call in bad.items():
        out[key] = _outcome(call)
    zs = [1, 2, 0.5 + 3j]
    for z, outcome in zip(zs, ug.evaluate_many("G", zs, tol=5e-324)):
        out[f"evaluate_many G {z!r} tol=5e-324"] = _described(outcome)
    # Conjugate pairs, exact duplicates and signed-zero imaginary parts in
    # one batch; an rng of their own keeps the draws of the rest.
    pairs = random.Random(SEED + 2)
    for batch, name in enumerate(_LINE_FUNCTIONS):
        zs = [z for _, z in pairs.sample(points, 6)]
        x = float(pairs.randint(-6, 6)) + 0.5 * (batch % 2)
        zs += [z.conjugate() for z in zs[:4]] + zs[:2]
        zs += [complex(x, 0.0), complex(x, -0.0), complex(x, 0.0),
               complex(-0.0, 2.0), complex(0.0, 2.0), complex(0.0, -2.0)]
        for index, (z, outcome) in enumerate(zip(zs, ug.evaluate_many(name, zs))):
            out[f"evaluate_many pairs {name}/{batch}/{index} {z!r}"] = _described(outcome)
    # Lines capped at sigma 8 far below their saddle abscissa, which no
    # certificate settles, each amid box points; an rng of their own.
    capped = random.Random(SEED + 3)
    for name, z in (("recip_gamma", 205.93858051401375 - 380.4951468265725j),
                    ("recip_gamma", 288.12975620914966 + 1061.3329137533183j),
                    ("gamma", 288.12975620914966 + 1061.3329137533183j),
                    ("digamma", 288.12975620914966 + 1061.3329137533183j),
                    ("gamma_sin_pi", -194.11912460191417 - 408.7371974233468j)):
        zs = [complex(capped.uniform(-15, 15), capped.uniform(-15, 15)) for _ in range(4)]
        zs.insert(2, z)
        for index, (w, outcome) in enumerate(zip(zs, ug.evaluate_many(name, zs))):
            out[f"evaluate_many capped crest {name} {z!r}/{index} {w!r}"] = _described(outcome)
    return out


def _cli(checkout: str) -> dict[str, str]:
    """Exit code and output bytes of each CLI run, by its name."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in _CLI_RUNS.items():
            argv = [sys.executable, "-m", "unigamma.cli", *args]
            path = os.path.join(tmp, "out.csv")
            if args[0] == "grid":
                argv += ["--out", path]
            run = subprocess.run(argv, cwd=tmp, env=env, capture_output=True)
            text = run.stdout
            if args[0] == "grid" and os.path.exists(path):
                with open(path, "rb") as handle:
                    text = handle.read()
                os.remove(path)
            out[name] = f"exit {run.returncode}\n" + text.decode(errors="replace")
    return out


def _emit(checkout: str) -> None:
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    import unigamma

    json.dump(_corpus(unigamma), sys.stdout)


def _run(checkout: str) -> dict[str, str]:
    checkout = os.path.abspath(checkout)
    if not os.path.isdir(os.path.join(checkout, "src", "unigamma")):
        sys.exit(f"no src/unigamma under {checkout}")
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", checkout],
                             cwd=tmp, capture_output=True, text=True,
                             env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if run.returncode:
        sys.exit(f"{checkout}: the corpus failed\n{run.stderr}")
    outcomes = json.loads(run.stdout)
    outcomes.update(_cli(checkout))
    return outcomes


_RESULT = re.compile(r"value=([^,]+), err_estimate=([^,]+),.*?converged=(True|False)")
_POINT = re.compile(r"^EvalResult\(z=([^,]+),")
# The accuracy box of the package (README "Accuracy contract").
_REL_PROMISE = 1e-9
_ABS_PROMISE = 1e-6
_NEAR_ZERO = 1e-3
_DIGITS = 30
_EVALUATIONS = re.compile(r"evaluations=\d+")
_SPEC_TOL = re.compile(r"\btol=[^,]+")
_EXCEPTION = re.compile(r"([A-Za-z_]\w*): ")
# The fields a canonical integration order may move in their last bits.
_LAST_BITS = re.compile(r"\b(err_estimate|tol_effective|tol)=([-+]?(?:inf|nan|[\d.]+(?:e[-+]?\d+)?))")
_LAST_BITS_REL = 1e-15
_GRID_ERR = 4       # a grid CSV's err_estimate column
# The step a result stopped at: a ContourSpec's, or a QuadratureResult's.
_STEP = re.compile(r"\bstep(?:_used)?=([^,)]+)")
_ERR = re.compile(r"\berr_estimate=[^,]+")


def _facts(key: str, outcome: str):
    """What an outcome returned: per result (text, z, value, err_estimate,
    converged), one for a result and one per row of a grid CSV, z None
    where the result names no point; or the exception type name; or "a
    result" for any other return value."""
    if key.startswith("cli grid"):
        rows = [row.split(",") for row in outcome.splitlines()[2:]]
        return [(",".join(f), complex(float(f[0]), float(f[1])),
                 complex(float(f[2]), float(f[3])), float(f[4]), f[9] == "true")
                for f in rows if len(f) == 10]
    result = _RESULT.search(outcome)
    if result:
        point = _POINT.match(outcome)
        return [(outcome, complex(point[1]) if point else None,
                 complex(result[1].strip("()")), float(result[2]), result[3] == "True")]
    exception = _EXCEPTION.match(outcome)
    return exception[1] if exception else "a result"


def _rel_move(a: str, b: str) -> float:
    a, b = float(a), float(b)
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _last_bit_moves(key: str, old: str, new: str) -> list[float] | None:
    """Per differing result (an outcome, or a grid CSV row) the largest
    relative move of its err_estimate, tol_effective and spec tol, when
    nothing else differs; None when something else does."""
    if key.startswith("cli grid"):
        rows_a, rows_b = old.splitlines(), new.splitlines()
        if len(rows_a) != len(rows_b):
            return None
        moves = []
        for a, b in zip(rows_a, rows_b):
            if a == b:
                continue
            fa, fb = a.split(","), b.split(",")
            if (len(fa) != len(fb) or len(fa) <= _GRID_ERR
                    or fa[:_GRID_ERR] + fa[_GRID_ERR + 1:] != fb[:_GRID_ERR] + fb[_GRID_ERR + 1:]):
                return None
            moves.append(_rel_move(fa[_GRID_ERR], fb[_GRID_ERR]))
        return moves
    if _LAST_BITS.sub(r"\1=_", old) != _LAST_BITS.sub(r"\1=_", new):
        return None
    return [max(_rel_move(a[2], b[2]) for a, b in zip(_LAST_BITS.finditer(old),
                                                      _LAST_BITS.finditer(new)))]


def _line_function(key: str) -> str | None:
    """The line function a key's outcome (or grid) evaluates, if any."""
    for word in key.replace("/", " ").split()[:3]:
        if word in _LINE_FUNCTIONS:
            return word
    return None


def _judge(changed: list) -> None:
    """Judge each ``(function, z, (old value, old err_estimate), (new value,
    new err_estimate))`` whose value or estimate changed against mpmath: per
    side, how many of the changed values meet the accuracy box and their
    worst relative error, and how many of all lie further from mpmath than
    their own err_estimate."""
    try:
        import mpmath
    except ImportError:
        print("mpmath is not importable; changed values not judged")
        return
    moved, meets, misses, worst = 0, [0, 0], [0, 0], [0.0, 0.0]
    for function, z, *sides in changed:
        with mpmath.workdps(_DIGITS):
            w = mpmath.mpc(z.real, z.imag)
            ref = complex({
                "G": lambda: mpmath.pi * mpmath.rgamma(w),
                "g_tilde": lambda: mpmath.pi * mpmath.rgamma((w + 1) / 2),
                "recip_gamma": lambda: mpmath.rgamma(w),
                "gamma": lambda: mpmath.gamma(w),
                "gamma_sin_pi": lambda: mpmath.pi * mpmath.rgamma(1 - w),
                "digamma": lambda: mpmath.digamma(w),
            }[function]())
        zero = {"G": z, "g_tilde": (z + 1.0) / 2.0, "recip_gamma": z}.get(function)
        if zero is not None:
            near = abs(zero - min(0, round(zero.real))) <= _NEAR_ZERO
        else:
            near = function == "gamma_sin_pi" and abs(z - max(1, round(z.real))) <= _NEAR_ZERO
        value_moved = sides[0][0] != sides[1][0]
        moved += value_moved
        for side, (value, estimate) in enumerate(sides):
            err = abs(value - ref)
            misses[side] += err > estimate
            if value_moved:
                meets[side] += err <= _REL_PROMISE * abs(ref) or (near and err <= _ABS_PROMISE)
                if ref:
                    worst[side] = max(worst[side], err / abs(ref))
    print(f"against mpmath at {_DIGITS} digits, of {moved} changed values of "
          f"the line functions: old meets the accuracy box on {meets[0]}, worst "
          f"relative error {worst[0]:.2e}; new on {meets[1]}, worst {worst[1]:.2e} "
          f"(relative errors where the value is not 0)")
    print(f"of {len(changed)} results of the line functions whose value or "
          f"err_estimate changed, off mpmath by more than their own err_estimate: "
          f"old {misses[0]}, new {misses[1]}")


def _summary(old: dict, new: dict, differing: list[str]) -> None:
    """How the differing counts, values, flags and exception types moved."""
    within = compared = counts = counts_and_tol = last_bits = 0
    grid_rows = err_only = 0
    largest = 0.0
    flags, kinds, changed, steps = [], [], [], {}
    for key in differing:
        if key not in old or key not in new:
            continue
        a, b = (_EVALUATIONS.sub("evaluations=_", old[key]),
                _EVALUATIONS.sub("evaluations=_", new[key]))
        counts += a == b
        counts_and_tol += a != b and _SPEC_TOL.sub("tol=_", a) == _SPEC_TOL.sub("tol=_", b)
        moves = _last_bit_moves(key, old[key], new[key])
        if moves and max(moves) <= _LAST_BITS_REL:
            last_bits += len(moves)
            largest = max(largest, *moves)
        a, b = _facts(key, old[key]), _facts(key, new[key])
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            function = _line_function(key)
            for (text_a, za, va, ea, ca), (text_b, zb, vb, eb, cb) in zip(a, b):
                if text_a == text_b:
                    continue
                if key.startswith("cli grid"):
                    grid_rows += 1
                    fields_a, fields_b = text_a.split(","), text_b.split(",")
                    del fields_a[_GRID_ERR], fields_b[_GRID_ERR]
                    err_only += fields_a == fields_b
                else:
                    move = " -> ".join(step[1] if step else "not recorded"
                                       for step in (_STEP.search(text_a), _STEP.search(text_b)))
                    steps[move] = steps.get(move, 0) + 1
                    err_only += _ERR.sub("", text_a) == _ERR.sub("", text_b)
                if va != vb:
                    compared += 1
                    within += abs(va - vb) <= ea + eb
                if ((va, ea) != (vb, eb) and function is not None
                        and za is not None and za == zb):
                    changed.append((function, za, (va, ea), (vb, eb)))
                if ca != cb:
                    flags.append(f"{key}: converged {ca} -> {cb}")
        elif isinstance(a, str) or isinstance(b, str):
            a, b = (facts if isinstance(facts, str) else "a result" for facts in (a, b))
            if a != b:
                kinds.append(f"{key}: {a} -> {b}")
    print(f"{counts} differing outcomes differ only in evaluations, {counts_and_tol} "
          f"more only in evaluations and the spec's tol")
    print(f"{last_bits} differing results differ only in err_estimate, tol_effective "
          f"and the spec's tol, each by at most {_LAST_BITS_REL:g} relative; the "
          f"largest move is {largest:.2e}")
    print(f"changed results by old step -> new step, apart from {grid_rows} grid CSV "
          f"rows, which record no step:")
    for move, count in sorted(steps.items(), key=lambda item: -item[1]):
        print(f"- {move}: {count}")
    print(f"{err_only} changed results (outcomes and grid rows) differ only in err_estimate")
    raised = sum(flag.endswith("False -> True") for flag in flags)
    print(f"{within} of {compared} changed values lie within the sum of their "
          f"err_estimates; {len(flags)} converged flags ({raised} of them False -> "
          f"True) and {len(kinds)} exception types changed")
    for line in (flags + kinds)[:SHOW]:
        print(f"- {line}")
    if changed:
        _judge(changed)


def _first_difference(old: str, new: str) -> str:
    for number, (a, b) in enumerate(zip(old.splitlines(), new.splitlines()), start=1):
        if a != b:
            return f"line {number}:\n    old {a}\n    new {b}"
    return f"lengths {len(old)} and {len(new)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="checkout whose outputs are the reference")
    parser.add_argument("new", nargs="?", help="checkout to compare against it")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        _emit(args.old)
        return 0
    if args.new is None:
        parser.error("NEW_CHECKOUT is required")
    old, new = _run(args.old), _run(args.new)
    keys = sorted(old.keys() | new.keys())
    differing = [key for key in keys if old.get(key) != new.get(key)]
    print(f"{len(keys)} outcomes, {len(differing)} differ")
    for key in differing[:SHOW]:
        a, b = old.get(key, "(missing)"), new.get(key, "(missing)")
        if key.startswith("cli "):
            print(f"- {key}: {_first_difference(a, b)}")
        else:
            print(f"- {key}\n    old {a}\n    new {b}")
    if differing:
        _summary(old, new, differing)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
