"""The unigamma benchmark: one command per workload run.

    python3 bench/run.py --workload plane-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is taken from ``src/`` there.
Each run measures one workload for ``--seconds`` seconds in whole rounds,
checks every output against mpmath after the timed part, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
from a separate traced run with ``--trace 1``.  The line before it holds the
figures that exist on this workload only.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import workloads
from speed import PROBE_OF, Speed
from checks import (References, check_grid_csv, check_verify_output,
                    meets_contract, meets_laplace_tol)
from layers import layer_metrics, load_spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

IMPORT_SAMPLES = 7
# A child that runs longer than this is stopped and counts as failed.
CLI_LIMIT_S = 60.0
WORKER_GRACE_S = 150.0

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import unigamma; "
                 "print(time.perf_counter() - t)")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _wait(proc: subprocess.Popen, limit: float):
    """Wait for ``proc``; return its resource usage.  Kills it past ``limit``."""
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def setup_seconds() -> float:
    """Median wall time of ``import unigamma`` in a fresh interpreter.

    Wall, not CPU time: numpy's import starts threads whose start-up CPU
    time does not delay the caller.
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=_env(),
                             capture_output=True, text=True, timeout=CLI_LIMIT_S,
                             check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _read_lines(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def run_worker(args, results: str, spans: str | None):
    """Run the in-process loop in its own process; returns rounds and usage."""
    command = [sys.executable, os.path.join(BENCH, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--results", results]
    if spans:
        command += ["--spans", spans]
    proc = subprocess.Popen(command, env=_env(), stdout=subprocess.DEVNULL)
    usage = _wait(proc, args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return _read_lines(results), usage


class Tally:
    """Operations attempted, failed (raised or exited non-zero), checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passed = 0
        self.unconverged = 0
        self.problems: list[str] = []
        self.failures: dict[str, int] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1

    def summary(self) -> dict:
        return {"passed": self.passed, "unconverged": self.unconverged,
                "failures": self.failures, "problems": self.problems[:20]}


def check_ops(rounds: list[dict], refs, tally: Tally) -> list[float]:
    """Judge every in-process operation; returns each one's scaled ns."""
    times = []
    for line in rounds:
        for slice_name, function, zr, zi, ns, _, error, payload in line["ops"]:
            tally.attempted += 1
            times.append(ns)
            if error is not None:
                tally.fail(f"{slice_name}/{function}: {error}")
                continue
            vr, vi, _, converged, _ = payload
            if not converged:
                tally.unconverged += 1
                continue
            z, value = complex(zr, zi), complex(vr, vi)
            ref = refs(function, z)
            ok = (meets_laplace_tol(value, ref) if function == "laplace_recip_gamma"
                  else meets_contract(function, z, value, ref))
            if ok:
                tally.passed += 1
            else:
                tally.problems.append(f"{function}({z}) = {value}, mpmath {ref}")
        if line.get("trace_mismatch"):
            tally.problems.append(f"round {line['round']}: tracing changed a result")
    return times


def cli_round(argv: list[str], out_base: str) -> tuple[int, float, float, float, str]:
    """One fresh ``python -m unigamma.cli`` process.

    Returns its exit code, CPU seconds, wall seconds, peak MB and stdout.
    """
    with open(out_base + ".out", "w+", encoding="utf-8") as stdout:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "unigamma.cli", *argv],
                                env=_env(), stdout=stdout,
                                stderr=subprocess.DEVNULL)
        usage = _wait(proc, CLI_LIMIT_S)
        wall = perf_counter() - start
        stdout.seek(0)
        text = stdout.read()
    return proc.returncode, _cpu_s(usage), wall, usage.ru_maxrss / 1024.0, text


def judge_cli(workload: str, code: int, text: str, csv: str | None,
              first_csv: str | None, refs, tally: Tally) -> None:
    """One CLI operation: a non-zero exit fails it, its output is checked."""
    tally.attempted += 1
    if code != 0:
        tally.fail(f"{workload}: exit {code}")
        return
    if workload == "cli-verify":
        problems = check_verify_output(text)
    elif first_csv is None:
        rows, unconverged, problems = check_grid_csv(csv, refs)
        tally.unconverged += unconverged
        if rows != 41 * 41:
            problems.append(f"grid wrote {rows} rows")
    else:
        problems = [] if csv == first_csv else ["grid CSV differs between runs"]
    tally.problems.extend(problems)
    if not problems:
        tally.passed += 1


def cli_untraced(args, refs, tally: Tally, info: dict) -> dict:
    stem = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    times, walls, peaks = [], [], []
    speed = Speed(*PROBE_OF[args.workload])
    first_csv = None
    index = 0
    begin = perf_counter()
    # Whole operations; cli-grid needs two to compare their CSVs.
    while index < 2 or perf_counter() - begin < args.seconds:
        argv = list(workloads.CLI[args.workload])
        csv_path = f"{stem}-{index}.csv"
        if args.workload == "cli-grid":
            argv += ["--out", csv_path]
        code, seconds, wall, peak, text = cli_round(argv, stem)
        speed.sample()
        times.append(seconds)
        walls.append(wall)
        peaks.append(peak)
        csv = None
        if code == 0 and args.workload == "cli-grid":
            with open(csv_path, encoding="ascii") as fh:
                csv = fh.read()
        judge_cli(args.workload, code, text, csv, first_csv, refs, tally)
        if first_csv is None and csv is not None:
            first_csv = csv
        for path in (csv_path, stem + ".out"):
            if os.path.exists(path):
                os.remove(path)
        index += 1
    # One scale for the run: a probe between processes seconds apart says
    # little about the speed during any one of them.
    scale = speed.median_factor()
    times = [t * scale for t in times]
    info["op_samples"] = len(times)
    info["wall_ops_per_s"] = tally.passed / sum(walls)
    info["wall_op_p50_ms"] = statistics.median(walls) * 1e3
    info["speed_factor"] = scale
    return {
        "ops_per_s": (tally.passed / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": (max(peaks), "MB"),
    }


def in_process_untraced(args, refs, tally: Tally, info: dict) -> dict:
    results = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}.jsonl")
    rounds, usage = run_worker(args, results, None)
    os.remove(results)
    info["speed_factor"] = rounds.pop()["speed_factor"]
    times = check_ops(rounds, refs, tally)
    loop_s = sum(times) / 1e9
    info["wall_ops_per_s"] = tally.passed / (sum(line["wall_ns"] for line in rounds) / 1e9)
    ms = [t / 1e6 for t in times]
    if len(ms) >= 1000:
        info["op_p99_ms"] = statistics.quantiles(ms, n=100)[98]
    info["op_samples"] = len(ms)
    info["rounds"] = len(rounds)
    return {
        "ops_per_s": (tally.passed / loop_s, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }


def traced(args, refs, tally: Tally, info: dict) -> dict:
    results = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}-traced.jsonl")
    spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    rounds, _ = run_worker(args, results, spans_path)
    os.remove(results)
    factor = rounds.pop()["speed_factor"]
    info["speed_factor"] = factor
    if args.workload in workloads.IN_PROCESS:
        untraced_ns = sum(check_ops(rounds, refs, tally))
        traced_ns = sum(line["traced_ns"] for line in rounds)
    else:
        suite = rounds.pop() if "suite_check_s" in rounds[-1] else None
        first_csv = None
        for line in rounds:
            tally.attempted += 1
            if any(code != 0 for code in line["codes"]):
                tally.fail(f"{args.workload}: exits {line['codes']}")
                continue
            outputs = line["outputs"]
            if args.workload == "cli-verify":
                problems = [p for text in outputs for p in check_verify_output(text)]
            else:
                problems = []
                if first_csv is None:
                    first_csv = outputs[0]
                    problems = check_grid_csv(first_csv, refs)[2]
                if any(text != first_csv for text in outputs):
                    problems.append("grid CSV differs between runs")
            tally.problems.extend(problems)
            if not problems:
                tally.passed += 1
        # As in the untraced run, one speed scale for the whole run.
        untraced_ns = sum(line["main_ns"] for line in rounds)
        traced_ns = sum(line["traced_ns"] for line in rounds)
        info["cli.process_overhead_s"] = factor * (
            statistics.median(line["proc_ns"] for line in rounds)
            - statistics.median(line["main_ns"] for line in rounds)) / 1e9
        if suite:
            for name, seconds in suite["suite_check_s"].items():
                info[f"oracle.{name}_s"] = seconds * factor
    metrics, extras = layer_metrics(load_spans(spans_path), refs, factor)
    info.update(extras)
    info["rounds"] = len(rounds)
    metrics["tracing.overhead_pct"] = (100.0 * (traced_ns / untraced_ns - 1.0), "%")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "unigamma", "__init__.py")):
        print(f"error: no package at {SRC}/unigamma; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    # One core for this process and its children, so that the speed probes
    # and the work they scale run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT, exist_ok=True)

    refs = References()
    tally = Tally()
    info: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        metrics = traced(args, refs, tally, info)
    else:
        setup = setup_seconds()
        if args.workload in workloads.IN_PROCESS:
            metrics = in_process_untraced(args, refs, tally, info)
        else:
            metrics = cli_untraced(args, refs, tally, info)
        metrics["setup_s"] = (setup, "s")
    info.update(tally.summary())

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
