"""One benchmark process: set a workload up, then run and check it.

Started by run.py under a memory limit, from the root of a checkout. With
`--phase setup` it stops once the first item could be timed; with
`--phase run` it repeats the workload's round, timing each item and checking
it off the clock, until at least `--seconds` of item time have passed and
enough items for the workload's tail percentile have run. With
`--trace 1` it also times one more round with every layer wrapped. The
result goes to `--result` as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy  # noqa: E402,F401  (set-up time includes importing numpy)
import tropicone  # noqa: E402,F401

# A run keeps starting rounds only while it is younger than this, so that a
# much slower program still ends before run.py's deadline.
ROUND_START_LIMIT_S = 90.0
SETUP_REFERENCE_SAMPLES = 20


def reference_work() -> int:
    """A fixed pure-Python loop whose duration gauges the host's current speed."""
    acc: dict[tuple[int, int], int] = {}
    for i in range(10000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i * 3 % 7
    return len(acc)


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def run_round(wl, references: list[float], tracer=None):
    """Time every item of the round once; return (latencies, failure messages).

    The reference loop is timed before each item, off the clock, into references.
    """
    latencies, failures = [], []
    for item in wl.round:
        references.append(time_reference())
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out, error = wl.run(item), None
        except (Exception, SystemExit) as e:
            out, error = None, f"{type(e).__name__}: {e}"
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                error = wl.check(item, out)
            except Exception as e:
                error = f"check raised {type(e).__name__}: {e}"
        if error is not None:
            failures.append(f"{wl.describe(item)}: {error}")
    return latencies, failures


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result_path = Path(args.result)

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        tracer.active = True
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, result_path.parent)
    result = {"ready": time.monotonic(), "round_items": len(wl.round)}
    if tracer is not None:
        tracer.active = False
    references = result["references"] = []

    if args.phase == "run":
        started = time.monotonic()
        min_items = math.ceil(1000 / (100 - wl.tail_percentile))
        rounds, round_failed, failures = [], [], []
        while not rounds or (
            (sum(map(sum, rounds)) < args.seconds or sum(map(len, rounds)) < min_items)
            and time.monotonic() - started < ROUND_START_LIMIT_S
        ):
            latencies, failed = run_round(wl, references)
            rounds.append(latencies)
            round_failed.append(len(failed))
            failures += failed
        if tracer is not None:
            traced, failed = run_round(wl, [], tracer)
            failures += failed
            result["traced_failed"] = len(failed)
            untraced = statistics.median(sum(r) for r in rounds)
            result["per_layer"] = tracer.metrics(overhead_ratio=sum(traced) / untraced)
            tracer.write_spans(result_path.with_suffix(".spans.jsonl"))
        result.update(
            rounds=rounds, round_failed=round_failed, failures=failures, tail_percentile=wl.tail_percentile
        )
    else:
        references += [time_reference() for _ in range(SETUP_REFERENCE_SAMPLES)]
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
