"""The process that calls the package: one closed loop, one caller.

Run by ``run.py`` with the package's ``src`` directory on ``PYTHONPATH``::

    python3 bench/worker.py --workload plane-mix --seed 1 --seconds 20 \
        --trace 0 --results out.jsonl [--spans spans.jsonl]

In-process workloads call ``unigamma.functions`` round by round until
``--seconds`` have passed; every round is finished.  Each round's records go
to ``--results`` as one JSON line as soon as the round ends, so this
process's memory does not grow with the run.  With ``--trace 1`` each round
runs twice on the same inputs, untraced and then traced, and the ratio of
the two times is the tracing overhead.

For the CLI workloads only the traced run comes here: each round times the
command as a fresh subprocess, then ``cli.main`` in this process untraced
and traced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from time import perf_counter, perf_counter_ns, process_time_ns

import unigamma.functions

import workloads
from speed import PROBE_OF, Speed

# Probe at least this often, in operation CPU time.
PROBE_EVERY_NS = 100_000_000


def run_op(lookup, function: str, z: complex, kwargs: dict) -> list:
    """Call one function once; any exception is one failed operation.

    The time is this process's CPU time, see bench/README.md "Time".
    """
    fn = lookup(function)
    start = process_time_ns()
    try:
        res = fn(z, **kwargs)
    except Exception as exc:  # the program's fault, recorded, loop goes on
        return [process_time_ns() - start, type(exc).__name__, str(exc)[:200]]
    elapsed = process_time_ns() - start
    v = complex(res.value)
    return [elapsed, None, [v.real, v.imag, float(res.err_estimate),
                            bool(res.converged), int(res.evaluations)]]


def run_round(ops, lookup, kwargs_of, speed: Speed) -> list:
    """All operations of one round, each recorded as
    ``[slice, function, re z, im z, scaled ns, CPU ns, error, result]``."""
    records = []
    for slice_name, function, z in ops:
        segment = speed.segment
        elapsed, error, payload = run_op(lookup, function, z, kwargs_of(function))
        speed.spent(elapsed)
        records.append([slice_name, function, z.real, z.imag, segment,
                        elapsed, error, payload])
    speed.close()
    for record in records:
        record[4] = record[5] * speed.factor(record[4])
    return records


def _kwargs_of(function: str) -> dict:
    if function == "laplace_recip_gamma":
        return {"tol": workloads.LAPLACE_TOL}
    return {}


def _lookup(function: str):
    # Looked up on every call, where a traced run installs its wrappers.
    return getattr(unigamma.functions, function)


def _warm_up(workload: str) -> None:
    # Lazy numpy and import-time work, paid once, before any timing.
    if workload == "laplace-crosscheck":
        unigamma.functions.laplace_recip_gamma(1.0, tol=workloads.LAPLACE_TOL)
    for function in ("recip_gamma", "gamma_sin_pi", "gamma", "digamma"):
        getattr(unigamma.functions, function)(0.5 + 0.5j)


def in_process(args, out) -> None:
    _warm_up(args.workload)
    speed = Speed(*PROBE_OF[args.workload], every_ns=PROBE_EVERY_NS)
    tracer = None
    if args.trace:
        # Imported only here: the untraced loop's memory is measured.
        from spans import Tracer
        tracer = Tracer()
    begin = perf_counter()
    index = 0
    while True:
        ops = workloads.round_ops(args.workload, args.seed, index)
        wall = perf_counter_ns()
        records = run_round(ops, _lookup, _kwargs_of, speed)
        line = {"round": index, "wall_ns": perf_counter_ns() - wall, "ops": records}
        if tracer is not None:
            segment = speed.segment
            tracer.install()
            try:
                tracer.op = index * len(ops)
                traced = []
                start = process_time_ns()
                for slice_name, function, z in ops:
                    traced.append(run_op(_lookup, function, z, _kwargs_of(function)))
                    tracer.op += 1
                traced_ns = process_time_ns() - start
            finally:
                tracer.remove()
            speed.sample()
            line["traced_ns"] = traced_ns * speed.factor(segment)
            # Tracing must not change a single result.
            line["trace_mismatch"] = sum(
                r[6:] != t[1:] for r, t in zip(records, traced))
        out.write(json.dumps(line) + "\n")
        out.flush()
        index += 1
        if perf_counter() - begin >= args.seconds:
            break
    out.write(json.dumps({"speed_factor": speed.median_factor()}) + "\n")
    if tracer is not None:
        tracer.write(args.spans)


def _cli_argv(workload: str, out_path: str) -> list[str]:
    argv = list(workloads.CLI[workload])
    if workload == "cli-grid":
        argv += ["--out", out_path]
    return argv


def _in_process_main(argv: list[str], tracer=None) -> tuple[int, str, int]:
    import unigamma.cli

    buffer = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        start = process_time_ns()
        with contextlib.redirect_stdout(buffer):
            code = unigamma.cli.main(argv)
        elapsed = process_time_ns() - start
    finally:
        if tracer is not None:
            tracer.remove()
    return code, buffer.getvalue(), elapsed


def _children_cpu_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def cli_traced(args, out) -> None:
    import unigamma.oracle
    from spans import Tracer

    tracer = Tracer()
    stem = os.path.splitext(args.results)[0]
    # One untimed in-process run first, so neither timed one pays warm-up.
    warm = f"{stem}-warm.csv"
    _in_process_main(_cli_argv(args.workload, warm))
    if os.path.exists(warm):
        os.remove(warm)
    speed = Speed(*PROBE_OF[args.workload])
    begin = perf_counter()
    index = 0
    while True:
        paths = [f"{stem}-{index}-{kind}.csv" for kind in ("proc", "main", "traced")]
        command = [sys.executable, "-m", "unigamma.cli",
                   *_cli_argv(args.workload, paths[0])]
        start = _children_cpu_ns()
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        proc_ns = _children_cpu_ns() - start
        speed.sample()
        line = {"round": index, "proc_ns": proc_ns,
                "codes": [proc.returncode, None, None],
                "outputs": [proc.stdout, None, None]}
        # Alternate which in-process run goes first, so order cannot bias
        # the tracing overhead.
        tracer.op = index
        for kind in (1, 2) if index % 2 == 0 else (2, 1):
            code, text, elapsed = _in_process_main(
                _cli_argv(args.workload, paths[kind]),
                tracer if kind == 2 else None)
            speed.sample()
            line["main_ns" if kind == 1 else "traced_ns"] = elapsed
            line["codes"][kind] = code
            line["outputs"][kind] = text
        if args.workload == "cli-grid":
            line["outputs"] = []
            for path in paths:
                with open(path, encoding="ascii") as fh:
                    line["outputs"].append(fh.read())
                os.remove(path)
        out.write(json.dumps(line) + "\n")
        out.flush()
        index += 1
        if perf_counter() - begin >= args.seconds:
            break
    if args.workload == "cli-verify":
        # Each identity check timed on its own, untraced.
        seconds = {}
        for name in unigamma.oracle.SUITE_CHECKS:
            start = process_time_ns()
            unigamma.oracle.run_identity_suite(checks=(name,))
            seconds[name] = (process_time_ns() - start) / 1e9
            speed.sample()
        out.write(json.dumps({"suite_check_s": seconds}) + "\n")
    out.write(json.dumps({"speed_factor": speed.median_factor()}) + "\n")
    tracer.write(args.spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    with open(args.results, "w", encoding="utf-8") as out:
        if args.workload in workloads.IN_PROCESS:
            in_process(args, out)
        else:
            cli_traced(args, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
