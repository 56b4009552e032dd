"""Run one workload of the qw22 benchmark and print its metrics.

    python3 perfbench/run.py --workload {assoc,oracle,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; qw22 is imported from ./src.  The
run is a sequence of rounds, each a fresh worker process (so qw22's caches
start cold, as in every ``qw22`` process), until about --seconds have
passed and at least MIN_OPS operations were timed.  Every round holds the
same number of operations.  With --trace 0 the last line of stdout is the
JSON result with the end-to-end metrics; with --trace 1 each round runs
twice on the same inputs, untraced and traced, and the result holds the
per-layer metrics and the tracing overhead.  Exits 1 without a result if a
worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("assoc", "oracle", "cli")
# The tail percentile: with at least MIN_OPS timed operations, at least
# ten lie beyond it.
TAIL_PERCENTILE = 99
MIN_OPS = 1000
# A worker that has not finished by then has hung; the whole run must end
# within 180 s.
WORKER_TIMEOUT_S = 120
RUN_LIMIT_S = 150

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

COUNTS = (
    "laurent.mul.calls",
    "laurent.mul.monomial_calls",
    "laurent.mul.two_var_calls",
    "laurent.mul.terms_out",
    "laurent.add.calls",
    "algebra.normalize.calls",
    "algebra.normalize.terms_out",
    "algebra.multiply.calls",
    "algebra.multiply.word_pairs",
    "hopf.coproduct.calls",
    "hopf.antipode.calls",
    "hopf.tensor_multiply.calls",
    "oscillator.apply_element.calls",
    "oscillator.apply_word.calls",
    "oscillator.apply_generator.calls",
    "oscillator.ladder_weight.calls",
    "gc.collections",
)
SECONDS = (
    "laurent.mul.s",
    "laurent.add.s",
    "algebra.normalize.self_s",
    "algebra.multiply.self_s",
    "hopf.coproduct.self_s",
    "hopf.antipode.self_s",
    "hopf.tensor_multiply.self_s",
    "hopf.tensor_text.s",
    "oscillator.oracle_consistency.self_s",
    "oscillator.apply_element.self_s",
    "oscillator.apply_word.self_s",
    "exprparse.parse.s",
    "exprparse.parse_element.self_s",
    "cli.main.self_s",
    "algebra.element_text.s",
    "gc.pause_s",
)


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, round_index: int, trace: int) -> dict:
    launch = time.perf_counter()
    argv = [sys.executable, WORKER, workload, str(seed), str(round_index), str(trace), repr(launch)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"round {round_index} did not finish in {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"round {round_index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def end_to_end(rounds: list) -> dict:
    times = sorted(t for r in rounds for t in r["times"])
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": percentile(times, TAIL_PERCENTILE) * 1e3,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(untraced: list, traced: list) -> dict:
    """Per-layer totals per traced operation, and the tracing overhead
    against the untraced run of the same rounds."""
    ops = sum(r["attempted"] for r in traced)
    out = {}
    for name in COUNTS + SECONDS:
        out[name] = sum(r["layers"].get(name, 0) for r in traced) / ops
    plain = sum(sum(r["times"]) for r in untraced)
    with_trace = sum(sum(r["times"]) for r in traced)
    out["trace.overhead_s"] = (with_trace - plain) / ops
    out["trace.overhead_ratio"] = with_trace / plain
    return out


def units(trace: int) -> dict:
    if not trace:
        return dict(END_TO_END)
    out = {name: "count/op" for name in COUNTS}
    out.update({name: "s/op" for name in SECONDS})
    out.update({"trace.overhead_s": "s/op", "trace.overhead_ratio": "ratio"})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        # Keep only this run's span files.
        os.makedirs(OUT_DIR, exist_ok=True)
        for name in os.listdir(OUT_DIR):
            if name.startswith(f"trace-{args.workload}-"):
                os.remove(os.path.join(OUT_DIR, name))

    start = time.perf_counter()
    untraced, traced = [], []
    try:
        while True:
            round_index = len(untraced)
            untraced.append(run_worker(args.workload, args.seed, round_index, 0))
            if args.trace:
                traced.append(run_worker(args.workload, args.seed, round_index, 1))
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(untraced)
            timed_ops = sum(r["attempted"] for r in untraced)
            if elapsed + per_round > RUN_LIMIT_S:
                break
            if timed_ops >= MIN_OPS and elapsed + per_round / 2 >= args.seconds:
                break
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = untraced + traced
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    unit = units(args.trace)
    problems = [p for r in rounds for p in r["problems"]]
    faults = {}
    for r in rounds:
        for fault in r["faults"]:
            faults[fault] = faults.get(fault, 0) + 1
    for fault, count in sorted(faults.items()):
        print(f"failed x{count}: {fault}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    n_ops = sum(len(r["times"]) for r in untraced)
    print(
        f"{args.workload}: seed {args.seed}, {len(untraced)} rounds, {n_ops} timed operations, "
        f"p{TAIL_PERCENTILE} has {n_ops - math.ceil(TAIL_PERCENTILE / 100 * n_ops)} beyond it, "
        f"{time.perf_counter() - start:.1f} s"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit[name]}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        detail = [
            {
                "ops": len(r["times"]),
                "timed_s": sum(r["times"]),
                "p50_ms": statistics.median(r["times"]) * 1e3,
                "setup_s": r["setup_s"],
                "peak_rss_mb": r["peak_rss_mb"],
            }
            for r in untraced
        ]
        json.dump({**result, "rounds": detail}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
