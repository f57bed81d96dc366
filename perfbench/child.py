"""One benchmark process: set up a workload, then (unless told to stop
there) run whole rounds of it for the requested seconds.

``run.py`` starts this script in a fresh interpreter for every set-up it
times, because the program memoizes generated datasets per process and
caches BFS layers on the graph for the process's life: a second set-up or
run in the same interpreter would time warm caches.  The last line of
standard output is one JSON object with the measured figures.
"""

from __future__ import annotations

import os
import sys

#: numpy's BLAS thread count, fixed before numpy loads.  One thread keeps
#: set-up time independent of how the machine schedules a second core; it
#: is no larger than any machine's core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402


def _rss_mb() -> float:
    """Current resident memory of this process, in MB."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="time.monotonic() of the parent just before it started this process",
    )
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install_setup_layers(tracer)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup()
    inputs = workload.inputs(args.seed, 0)
    setup_s = time.monotonic() - args.spawned_at
    loops = [speed.loop_seconds()]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "loop_s": loops[0]}))
        return 0

    rss_after_setup = _rss_mb()
    if tracer is not None:
        setup_self_s = dict(tracer.self_s)
        layers.install_run_layers(tracer)

    rounds = []
    walls = []
    while True:
        started = time.perf_counter()
        if tracer is not None:
            tracer.round = len(rounds)
            produced = tracer.call("round", workload.run, inputs)
            tracer.round = None
        else:
            produced = workload.run(inputs)
        walls.append(time.perf_counter() - started)
        loops.append(speed.loop_seconds())
        rounds.append(workload.reduce(produced))  # checks run outside the timed span
        del produced
        if sum(walls) >= args.seconds:
            break
        inputs = workload.inputs(args.seed, len(rounds))

    settled = sum(r.settled for r in rounds)
    run_s = sum(map(speed.normalized, walls, loops, loops[1:]))
    latencies = [x for r in rounds for x in r.latencies]
    result = {
        "setup_s": setup_s,
        "loop_s": loops[0],
        "wall_queries_per_s": settled / sum(walls),
        "attempted": settled,
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "problems": [p for r in rounds for p in r.problems],
        "digest": rounds[0].digest,
    }
    if tracer is None:
        result["metrics"] = {
            "queries_per_s": settled / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "paid_tokens_per_query": sum(r.paid_tokens for r in rounds) / settled,
            "usd_per_1k_queries": 1000 * sum(r.usd for r in rounds) / settled,
            "accuracy": sum(r.correct for r in rounds) / settled,
            "sim_makespan_s": sum(r.sim_makespan_s for r in rounds) / len(rounds),
            "sim_latency_p50_s": _percentile(latencies, 50),
            "sim_latency_p99_s": _percentile(latencies, 99),
        }
    else:
        values = layers.layer_values(tracer, setup_self_s)
        values["mem.rss_after_setup_mb"] = rss_after_setup
        values["mem.rss_after_run_mb"] = _rss_mb()
        values["run.wall_s"] = sum(walls)
        values["run.settled"] = settled
        result["metrics"] = values
        tracer.write(HERE / "traces" / f"{args.workload}.jsonl.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
