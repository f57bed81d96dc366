"""Wall-clock, memory and token benchmark of the MQO runtime.

Usage (from the repository root)::

    python3 perfbench/run.py --workload boost-sns-products --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

Every set-up runs in a fresh interpreter (see ``child.py``); set-up is
repeated and the median reported.  With ``--trace 0``
the last line of standard output carries every end-to-end metric; with
``--trace 1`` every per-layer metric of a separately traced run.  The
README beside this file describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds one run measures, and the limit for a whole invocation, which
#: must end within 180 s.
RUN_SECONDS = 12
TIME_LIMIT_S = 170

#: name -> (why, set-ups timed per run).  The products and arxiv replicas
#: take 10-25 s to set up, so they are set up twice, cora three times; a
#: run's ``setup_s`` is the median.  Ten runs of every workload then take
#: about 20 minutes.
WORKLOADS = {
    "boost-sns-products": (
        "Algorithm 2 with SNS on ogbn-products: the run phase is almost all "
        "5-hop BFS in neighbor selection",
        2,
    ),
    "joint-1hop-arxiv": (
        "prune then boost with 1-hop selection on ogbn-arxiv: set-up is the "
        "scorer fit, the run many cheap boosting re-selections",
        2,
    ),
    "serve-mqo-cora": (
        "open-loop multi-tenant serving on cora with every MQO rung on: "
        "tokenizer, MQO, scheduler, serve and observer hooks",
        3,
    ),
}

#: name -> (unit, better, bound).  Each bound is about three times the
#: spread (interquartile range over median) seen across ten seeds on the
#: workload where that metric spreads most; set-up time has the largest.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "queries_per_s": ("1/s", "higher", 0.24),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "paid_tokens_per_query": ("tokens", "lower", 0.05),
    "usd_per_1k_queries": ("USD", "lower", 0.05),
    "accuracy": ("ratio", "higher", 0.2),
    "sim_makespan_s": ("s", "lower", 0.2),
    "sim_latency_p50_s": ("s", "lower", 0.2),
    "sim_latency_p99_s": ("s", "lower", 0.24),
}


def manifest() -> dict:
    from layers import PER_LAYER

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, _) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


class ChildFailed(RuntimeError):
    pass


def spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its JSON result,
    with ``setup_s`` normalized to the reference machine speed."""
    loop_before = speed.loop_seconds()
    spawned = time.monotonic()
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(spawned),
    ]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"benchmark process exceeded the time limit: {error}") from error
    if done.returncode != 0:
        raise ChildFailed(f"benchmark process exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("benchmark process printed no result")
    result = json.loads(lines[-1])
    result["wall_setup_s"] = result["setup_s"]
    result["setup_s"] = speed.normalized(result["setup_s"], loop_before, result["loop_s"])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest", action="store_true", help="write BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)
    if args.write_manifest:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(manifest(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    count = 1 if args.trace else WORKLOADS[args.workload][1]
    try:
        setups = [spawn(args, deadline, setup_only=True) for _ in range(count - 1)]
        result = spawn(args, deadline, setup_only=False)
    except ChildFailed as error:
        print(str(error), file=sys.stderr)
        return 1
    setups.append(result)

    if args.trace:
        from layers import PER_LAYER

        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
        result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {result['rounds']} rounds, "
        f"{result['attempted']} attempted, {result['failed']} failed, "
        f"round-0 digest {result['digest']}"
    )
    print(
        f"  unnormalized wall time: set-up {statistics.median(s['wall_setup_s'] for s in setups):.4g} s "
        f"(median of {len(setups)}), run {result['wall_queries_per_s']:.6g} queries/s"
    )
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
