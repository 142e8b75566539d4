"""Command-line front end: eval, grid, sweep-sigma, verify, constants.

Exit codes are a stable contract: 0 success, 1 usage/domain error, 2
verification or convergence failure, 3 pole proximity.  All numeric output
is deterministic — grid CSV uses 17-significant-digit formatting and the
underlying summation is exactly rounded, so identical invocations produce
byte-identical files.  A grid point that fails (a pole, a non-finite
quadrature node, an oracle overflow) keeps its row with NaN columns; a
failed value is written with ``converged=false``, and the scan goes on.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import asdict, dataclass

from . import functions
from .errors import DomainError, PoleError, UnigammaError
from .oracle import (
    SUITE_CHECKS,
    lanczos_gamma,
    oracle_digamma,
    oracle_recip_gamma,
    run_identity_suite,
)
from .quadrature import _check_sigma, _check_tol

__all__ = ["GridRequest", "parse_complex", "main"]

_GRID_FUNCTIONS = ("G", "recip_gamma", "gamma", "gamma_sin_pi", "digamma")

_CSV_HEADER = ("re_z,im_z,re_value,im_value,err_estimate,"
               "oracle_re,oracle_im,abs_err,rel_err,converged")


@dataclass(frozen=True)
class GridRequest:
    """A rectangular scan request; validated on construction."""

    function: str
    re_min: float
    re_max: float
    re_steps: int
    im_min: float
    im_max: float
    im_steps: int
    sigma: float | None = None
    tol: float | None = None

    def __post_init__(self):
        if self.function not in _GRID_FUNCTIONS:
            raise DomainError(
                f"grid function must be one of {', '.join(_GRID_FUNCTIONS)}; "
                f"got {self.function!r}"
            )
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(math.isfinite(b) for b in bounds):
            raise DomainError(f"grid bounds must be finite, got {bounds!r}")
        if not (self.re_min <= self.re_max) or not (self.im_min <= self.im_max):
            raise DomainError("grid bounds must satisfy min <= max on both axes")
        if self.re_steps < 1 or self.im_steps < 1:
            raise DomainError("grid steps must be >= 1 on both axes")
        if self.sigma is not None:
            _check_sigma(self.sigma)
        if self.tol is not None:
            _check_tol(self.tol)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' literals: '1.5', '-2i', '0.5+3i', '1e-3-2.5e2i', 'i'."""
    s = text.strip()
    msg = (f"could not parse complex literal {text!r}; expected forms like "
           f"'1.5', '2i', or '0.5+3i' (no spaces, trailing 'i' on the "
           f"imaginary part)")
    if not s:
        raise DomainError(msg)
    try:
        if s[-1] in "iI":
            body = s[:-1]
            re_part, im_part = "", body
            for k in range(len(body) - 1, 0, -1):
                if body[k] in "+-" and body[k - 1] not in "eE":
                    re_part, im_part = body[:k], body[k:]
                    break
            if im_part in ("", "+"):
                imag = 1.0
            elif im_part == "-":
                imag = -1.0
            else:
                imag = float(im_part)
            real = float(re_part) if re_part else 0.0
            return complex(real, imag)
        return complex(float(s), 0.0)
    except ValueError:
        raise DomainError(msg) from None


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if (im >= 0 or math.isnan(im)) else "-"
    return f"{re!r} {sign} {abs(im)!r}i"


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _window(spec) -> list[float]:
    """The t-interval a result integrated: its window, or [-T, T]."""
    return list(spec.window or (-spec.half_width, spec.half_width))


def _engine_kwargs(args) -> dict:
    """Engine keywords from whichever of --sigma, --tol, --max-refine were given."""
    kwargs = {}
    if getattr(args, "sigma", None) is not None:
        kwargs["sigma"] = args.sigma
    if getattr(args, "tol", None) is not None:
        kwargs["tol"] = args.tol
    if getattr(args, "max_refine", None) is not None:
        kwargs["max_refinements"] = args.max_refine
    return kwargs


_FUNCTIONS = {
    "G": functions.G,
    "recip_gamma": functions.recip_gamma,
    "gamma": functions.gamma,
    "gamma_sin_pi": functions.gamma_sin_pi,
    "digamma": functions.digamma,
    "g_tilde": functions.g_tilde,
    "laplace_recip_gamma": functions.laplace_recip_gamma,
}


def _cmd_eval(args) -> int:
    z = parse_complex(args.z)
    res = _FUNCTIONS[args.function](z, **_engine_kwargs(args))
    spec = res.spec_used
    if args.json:
        record = {
            "function": args.function,
            "z": _complex_json(res.z),
            "value": _complex_json(res.value),
            "err_estimate": res.err_estimate,
            "converged": res.converged,
            "evaluations": res.evaluations,
            "spec_used": {**asdict(spec), "window": _window(spec)},
        }
        print(json.dumps(record))
    else:
        print(f"{args.function}({args.z}) = {_fmt_complex(res.value)}")
        print(f"  err_estimate = {res.err_estimate:.3e}")
        print(f"  converged    = {_fmt_bool(res.converged)}")
        lower, upper = _window(spec)
        print(f"  sigma = {spec.sigma!r}  t in [{lower!r}, {upper!r}]  "
              f"h = {spec.step!r}  evaluations = {res.evaluations}")
    return 0 if res.converged else 2


def _grid_oracle(function: str, z: complex) -> complex:
    if function == "G":
        return math.pi * oracle_recip_gamma(z)
    if function == "recip_gamma":
        return oracle_recip_gamma(z)
    if function == "gamma":
        return lanczos_gamma(z)
    if function == "gamma_sin_pi":
        # Gamma(z) sin(pi z) = pi / Gamma(1-z), finite everywhere.
        return math.pi * oracle_recip_gamma(1.0 - z)
    return oracle_digamma(z)


def _magnitude(z: complex) -> float:
    # abs() of a NaN complex can raise a spurious OverflowError after a
    # failed complex power: CPython reads an errno the NaN path never resets.
    return math.nan if cmath.isnan(z) else abs(z)


def _grid_row(function: str, z: complex, outcome) -> tuple[str, bool]:
    nan = float("nan")
    if isinstance(outcome, UnigammaError):
        value, err, converged = complex(nan, nan), nan, False
    else:
        value, err, converged = outcome.value, outcome.err_estimate, outcome.converged
    try:
        ref = _grid_oracle(function, z)
    except ArithmeticError:
        # A pole, or Lanczos overflow for |Re z| beyond about 143.
        ref = complex(nan, nan)
    abs_err = _magnitude(value - ref)
    ref_mag = _magnitude(ref)
    rel_err = abs_err / ref_mag if ref_mag > 0.0 else nan
    fields = (
        _fmt17(z.real), _fmt17(z.imag),
        _fmt17(value.real), _fmt17(value.imag),
        _fmt17(err),
        _fmt17(ref.real), _fmt17(ref.imag),
        _fmt17(abs_err), _fmt17(rel_err),
        _fmt_bool(converged),
    )
    return ",".join(fields), converged


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _axis(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + k * (hi - lo) / (steps - 1) for k in range(steps)]


def _cmd_grid(args) -> int:
    req = GridRequest(
        function=args.function,
        re_min=args.re_min, re_max=args.re_max, re_steps=args.re_steps,
        im_min=args.im_min, im_max=args.im_max, im_steps=args.im_steps,
        sigma=args.sigma, tol=args.tol,
    )
    points = [
        complex(re, im)
        for im in _axis(req.im_min, req.im_max, req.im_steps)
        for re in _axis(req.re_min, req.re_max, req.re_steps)
    ]
    outcomes = functions.evaluate_many(req.function, points, **_engine_kwargs(args))
    rows = [_grid_row(req.function, z, outcome)
            for z, outcome in zip(points, outcomes)]
    _write("\n".join([_CSV_HEADER] + [row for row, _ in rows]) + "\n", args.out)
    return 0 if all(ok for _, ok in rows) else 2


def _cmd_sweep_sigma(args) -> int:
    z = parse_complex(args.z)
    try:
        sigmas = [float(part) for part in args.sigmas.split(",") if part.strip()]
    except ValueError:
        raise DomainError(
            f"--sigmas must be a comma-separated list of reals, got {args.sigmas!r}"
        ) from None
    if not sigmas:
        raise DomainError("--sigmas must name at least one value")
    fn = _FUNCTIONS[args.function]
    kwargs = _engine_kwargs(args)
    results = [fn(z, sigma=s, **kwargs) for s in sigmas]
    values = [r.value for r in results]
    peak = max(abs(v) for v in values)
    diff = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            diff = max(diff, abs(values[i] - values[j]))
    report = {
        "z": _complex_json(z),
        "entries": [
            {
                "sigma": s,
                "value_re": r.value.real,
                "value_im": r.value.imag,
                "err_estimate": r.err_estimate,
                "T": _window(r.spec_used),
                "h": r.spec_used.step,
                "evaluations": r.evaluations,
            }
            for s, r in zip(sigmas, results)
        ],
        "max_pairwise_rel_diff": (diff / peak) if peak > 0.0 else 0.0,
    }
    _write(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if all(r.converged for r in results) else 2


def _cmd_verify(args) -> int:
    checks = None if args.only is None else (args.only,)
    reports = run_identity_suite(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                                 checks=checks)
    if args.json:
        print(json.dumps([{**asdict(r), "worst_point": _complex_json(r.worst_point)}
                          for r in reports], indent=2))
    else:
        name_width = max(len(r.check_name) for r in reports)
        for r in reports:
            print(f"{r.check_name:<{name_width}}  points={r.points_tested:<4d} "
                  f"max_rel={r.max_rel_err:.3e}  max_abs={r.max_abs_err:.3e}  "
                  f"{'pass' if r.passed else 'FAIL'}")
        failed = [r.check_name for r in reports if not r.passed]
        if failed:
            print(f"FAILED: {', '.join(failed)}")
        else:
            print("all checks passed")
    return 0 if all(r.passed for r in reports) else 2


def _cmd_constants(args) -> int:
    kwargs = _engine_kwargs(args)
    euler = functions.euler_mascheroni(**kwargs)
    g_one = functions.G(1, **kwargs)
    ratio_residual = abs(math.pi / g_one.value - 1.0)
    if args.json:
        print(json.dumps({
            "euler_mascheroni": {
                "value": euler.value.real,
                "err_estimate": euler.err_estimate,
                "converged": euler.converged,
            },
            "g_one": _complex_json(g_one.value),
            "pi_over_g1_minus_1": ratio_residual,
        }))
    else:
        print(f"euler_mascheroni = {euler.value.real!r}")
        print(f"  err_estimate = {euler.err_estimate:.3e}  "
              f"converged = {_fmt_bool(euler.converged)}")
        print(f"G(1) = {_fmt_complex(g_one.value)}")
        print(f"  |pi/G(1) - 1| = {ratio_residual:.3e}")
    return 0 if (euler.converged and g_one.converged) else 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 (not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_engine_flags(sub, *, max_refine: bool = True):
    sub.add_argument("--sigma", type=float, default=None,
                     help="contour abscissa override (default: per-point policy)")
    sub.add_argument("--tol", type=float, default=None,
                     help="target tolerance (default: per-function)")
    if max_refine:
        sub.add_argument("--max-refine", type=int, default=None,
                         help="maximum step-halving refinements (default 12)")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="unigamma",
        description="Gamma-family special functions via one contour integral.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    p_eval.add_argument("function", choices=tuple(_FUNCTIONS))
    p_eval.add_argument("z", help="complex point, e.g. 0.5+3i")
    _add_engine_flags(p_eval)
    p_eval.add_argument("--json", action="store_true",
                        help="emit a JSON record instead of text")
    p_eval.set_defaults(handler=_cmd_eval)

    p_grid = sub.add_parser("grid", help="scan a rectangle, CSV with oracle errors")
    p_grid.add_argument("--function", required=True, choices=_GRID_FUNCTIONS)
    p_grid.add_argument("--re-min", type=float, required=True)
    p_grid.add_argument("--re-max", type=float, required=True)
    p_grid.add_argument("--re-steps", type=int, required=True)
    p_grid.add_argument("--im-min", type=float, required=True)
    p_grid.add_argument("--im-max", type=float, required=True)
    p_grid.add_argument("--im-steps", type=int, required=True)
    _add_engine_flags(p_grid, max_refine=False)
    p_grid.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_grid.set_defaults(handler=_cmd_grid)

    p_sweep = sub.add_parser("sweep-sigma",
                             help="one point across several abscissas, JSON")
    p_sweep.add_argument("function", choices=tuple(_FUNCTIONS))
    p_sweep.add_argument("z", help="complex point, e.g. -3.5")
    p_sweep.add_argument("--sigmas", default="0.5,1,2",
                         help="comma-separated abscissas (default 0.5,1,2)")
    p_sweep.add_argument("--tol", type=float, default=None)
    p_sweep.add_argument("--out", default=None, help="JSON path (default: stdout)")
    p_sweep.set_defaults(handler=_cmd_sweep_sigma)

    p_verify = sub.add_parser("verify", help="run the identity-check suite")
    p_verify.add_argument("--only", default=None,
                          help=f"run a single check ({', '.join(SUITE_CHECKS)})")
    p_verify.add_argument("--rel-tol", type=float, default=None,
                          help="override relative thresholds")
    p_verify.add_argument("--abs-tol", type=float, default=None,
                          help="override absolute thresholds")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(handler=_cmd_verify)

    p_const = sub.add_parser("constants",
                             help="Euler-Mascheroni constant and G(1) diagnostics")
    _add_engine_flags(p_const, max_refine=False)
    p_const.add_argument("--json", action="store_true")
    p_const.set_defaults(handler=_cmd_constants)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.handler(args)
    except PoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnigammaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
