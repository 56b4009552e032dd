"""One round of one workload, in a fresh process with cold qw22 caches.

    python3 perfbench/worker.py WORKLOAD SEED ROUND TRACE LAUNCH_TIME

LAUNCH_TIME is the parent's time.perf_counter() just before it started
this process; on Linux that clock is system-wide, so the set-up time is
measured from launch until ``import qw22`` (numpy included) returns.  The
worker then builds its inputs, runs the timed pass, reads its peak
resident memory, checks every output and prints one JSON line.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import qw22  # noqa: E402

_READY = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = {"assoc": workloads.Assoc, "oracle": workloads.Oracle, "cli": workloads.Cli}


def main(argv) -> int:
    name, seed, round_index, trace, launch = argv
    setup_s = _READY - float(launch)
    src = os.path.realpath(os.path.join(_ROOT, "src", "qw22"))
    if os.path.dirname(os.path.realpath(qw22.__file__)) != src:
        print(f"qw22 was imported from {qw22.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name](int(seed), int(round_index))
    specs = workload.specs
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    outputs = [None] * len(specs)
    times = [0.0] * len(specs)
    errors = {}
    clock = time.perf_counter
    if tracer:
        tracer.start()
    for i, spec in enumerate(specs):
        if tracer:
            tracer.op = i
        start = clock()
        try:
            outputs[i] = workload.run(spec)
        except Exception as exc:  # an operation that raises counts as failed
            errors[i] = f"{type(exc).__name__}: {exc}"
        times[i] = clock() - start
    if tracer:
        tracer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    faults = []
    failed = 0
    for i, spec in enumerate(specs):
        if i in errors:
            wrong, fault = [f"operation {i} raised {errors[i]}"], None
        else:
            try:
                wrong, fault = workload.check(spec, outputs[i])
            except Exception as exc:  # a malformed output is a wrong output
                wrong, fault = [f"operation {i}: check raised {type(exc).__name__}: {exc}"], None
        problems += wrong
        if fault:
            faults.append(fault)
        failed += bool(wrong or fault)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "times": times,
        "attempted": len(specs),
        "failed": failed,
        "faults": faults,
        "problems": problems,
    }
    if tracer:
        trace_dir = os.path.join(_ROOT, "perfbench", "out")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"trace-{name}-{seed}-{round_index}.npz"))
        result["layers"] = tracer.layer_totals()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
