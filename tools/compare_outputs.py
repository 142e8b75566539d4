"""Compare the outputs of two unigamma checkouts on one fixed seeded corpus.

    python3 tools/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's ``src/unigamma`` runs in its own subprocess (this script
with ``--emit``), so the two packages never share an interpreter.  The
corpus is fixed by its seed:

- the six line functions (G, g_tilde, recip_gamma, gamma, gamma_sin_pi,
  digamma) with random ``tol``, ``sigma`` and ``max_refinements``, at
  in-box, near-zero, high-Im, right-tail and far-left points;
- ``evaluate_many`` batches whose chunk-mates fail (poles, non-finite
  nodes, bad input);
- ``laplace_recip_gamma``, ``euler_mascheroni``, contour loops and
  segments, ``trapezoid_line`` and some bad arguments;
- the CLI: the 41 x 41 ``grid --function recip_gamma`` CSV, a ``digamma``
  grid out to |Im z| = 30, ``verify --json`` and ``constants --json``.

An outcome is the ``repr`` of a result, whose floats round-trip exactly, or
the type and text of the exception raised, so "same" means the same bits.
Prints the number of differing outcomes and the first few, and exits 1 if
any differ.  For a change meant to move last bits, it then sums the
differences up: of the differing values where both sides returned (results
and grid rows), how many lie within the sum of the two ``err_estimate``s,
and how many ``converged`` flags and exception types changed, naming the
first few.  Writes only to a temporary directory.
"""

from __future__ import annotations

import argparse
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
        return f"{type(exc).__name__}: {exc}"


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
    for batch in range(20):
        name = _LINE_FUNCTIONS[batch % len(_LINE_FUNCTIONS)]
        zs = [z for _, z in rng.sample(points, 25)]
        zs[3:3] = [-120.5 + 0.3j, -2, float("nan"), "abc", 1 - 1e-14]
        options = _options(rng)
        outcomes = ug.evaluate_many(name, zs, **options)
        for index, (z, outcome) in enumerate(zip(zs, outcomes)):
            out[f"evaluate_many {name}/{batch}/{index} {z!r} {options}"] = (
                repr(outcome) if not isinstance(outcome, Exception)
                else f"{type(outcome).__name__}: {outcome}")
    for index in range(30):
        z = complex(rng.uniform(0.05, 3.0), rng.uniform(-6, 6))
        options = {"tol": 10.0 ** rng.uniform(-11, -7)} if index % 2 else {}
        out[f"laplace_recip_gamma/{index} {z!r} {options}"] = _outcome(
            lambda: ug.laplace_recip_gamma(z, **options))
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
    joint = getattr(ug.quadrature, "_trapezoid_joint", None)
    out["_trapezoid_joint chunk with poles"] = _outcome(lambda: joint(
        (lambda t, rows: np.exp(-t * t) / ((t + shifts[rows]) * (t - ends[rows])),),
        [spec] * len(shifts)))
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
    }
    for key, call in bad.items():
        out[key] = _outcome(call)
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
_EXCEPTION = re.compile(r"([A-Za-z_]\w*): ")


def _facts(key: str, outcome: str):
    """What an outcome returned: per result (text, value, err_estimate,
    converged), one for a result and one per row of a grid CSV; or the
    exception type name; or "a result" for any other return value."""
    if key.startswith("cli grid"):
        rows = [row.split(",") for row in outcome.splitlines()[2:]]
        return [(",".join(f), complex(float(f[2]), float(f[3])), float(f[4]),
                 f[9] == "true") for f in rows if len(f) == 10]
    result = _RESULT.search(outcome)
    if result:
        return [(outcome, complex(result[1].strip("()")), float(result[2]),
                 result[3] == "True")]
    exception = _EXCEPTION.match(outcome)
    return exception[1] if exception else "a result"


def _summary(old: dict, new: dict, differing: list[str]) -> None:
    """How the differing values, flags and exception types moved."""
    within = compared = 0
    flags, kinds = [], []
    for key in differing:
        if key not in old or key not in new:
            continue
        a, b = _facts(key, old[key]), _facts(key, new[key])
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for (text_a, va, ea, ca), (text_b, vb, eb, cb) in zip(a, b):
                if text_a == text_b:
                    continue
                compared += 1
                within += abs(va - vb) <= ea + eb
                if ca != cb:
                    flags.append(f"{key}: converged {ca} -> {cb}")
        elif isinstance(a, str) or isinstance(b, str):
            a, b = (facts if isinstance(facts, str) else "a result" for facts in (a, b))
            if a != b:
                kinds.append(f"{key}: {a} -> {b}")
    print(f"{within} of {compared} differing values lie within the sum of their "
          f"err_estimates; {len(flags)} converged flags and {len(kinds)} "
          f"exception types changed")
    for line in (flags + kinds)[:SHOW]:
        print(f"- {line}")


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
