"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in child processes
(bench/child.py) under an address-space limit, so a memory blow-up fails as a
counted MemoryError inside the child instead of exhausting the machine. Set-up
time is taken over several fresh children and reported as their median. The
last line of standard output is one JSON object: with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer metrics.

The host these numbers come from changes speed by up to a third over tens of
seconds, for every kind of work alike. Each child therefore also times a
fixed pure-Python reference loop (child.reference_work), and every end-to-end
time is reported at reference speed: divided by that child's slowdown, its
mean reference duration over REFERENCE_S. The raw values are printed above
the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cone-E6", "allwords-A4", "census")
SETUP_CHILDREN = 4  # plus the measuring child: set-up is the median of five
MEMORY_LIMIT_BYTES = 1 << 30
DEADLINE_S = 170.0
SHOWN_FAILURES = 5
# Median duration of child.reference_work on the reference host (2 cores,
# Python 3.11) when it is quiet. It only sets the scale of reported times.
REFERENCE_S = 0.0025


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run_child(args, phase: str, result: Path, deadline: float):
    """Run one child to completion; return (its result, its rusage).

    The result gains "setup_s", the seconds from spawning it to its first item.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--phase", phase, "--result", str(result),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(command, env=env, stdout=sys.stderr, preexec_fn=limit_memory)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise BenchError(f"{phase} child passed the {DEADLINE_S:.0f} s deadline")
        time.sleep(0.01)
    if proc.returncode != 0:
        raise BenchError(f"{phase} child exited with code {proc.returncode}")
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready"] - spawned
    return out, usage


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between the closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def slowdown(out: dict) -> float:
    return statistics.fmean(out["references"]) / REFERENCE_S


def end_to_end(out: dict, setup_outs: list[dict], usage) -> dict:
    """Metric name -> (value at reference speed, unit, raw value)."""
    rounds, failed = out["rounds"], out["round_failed"]
    latencies = [x for r in rounds for x in r]
    items_per_s = statistics.median((len(r) - f) / sum(r) for r, f in zip(rounds, failed))
    p50 = statistics.median(latencies)
    tail = percentile(latencies, out["tail_percentile"])
    k = slowdown(out)
    return {
        "setup_s": (
            statistics.median(o["setup_s"] / slowdown(o) for o in setup_outs),
            "s",
            statistics.median(o["setup_s"] for o in setup_outs),
        ),
        "items_per_s": (items_per_s * k, "1/s", items_per_s),
        "item_p50_s": (p50 / k, "s", p50),
        "item_tail_s": (tail / k, "s", tail),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB", None),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tropicone" / "__init__.py").is_file():
        print("error: run from the root of a tropicone checkout (src/tropicone is missing)", file=sys.stderr)
        return 2
    run_dir = root / ".bench_run" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_outs = []
        if not args.trace:
            for k in range(SETUP_CHILDREN):
                setup_outs.append(run_child(args, "setup", run_dir / f"setup{k}.json", deadline)[0])
        out, usage = run_child(args, "run", run_dir / "run.json", deadline)
        setup_outs.append(out)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        spans = run_dir / "run.spans.jsonl"
        if spans.exists():
            spans.replace(root / ".bench_run" / f"{args.workload}-seed{args.seed}.spans.jsonl")
        shutil.rmtree(run_dir)

    attempted = sum(map(len, out["rounds"])) + (out["round_items"] if args.trace else 0)
    failed = sum(out["round_failed"]) + out.get("traced_failed", 0)
    if args.trace:
        metrics = out["per_layer"]
        raw = {}
    else:
        values = end_to_end(out, setup_outs, usage)
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in values.items()}
        raw = {name: r for name, (_, _, r) in values.items() if r is not None}

    print(f"workload {args.workload}, seed {args.seed}: {len(out['rounds'])} rounds of {out['round_items']} items")
    for name, m in metrics.items():
        measured = f" (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{measured}")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} items)")
    if not args.trace:
        print(f"  item_tail_s is the p{out['tail_percentile']} latency")
        print(f"  slowdown of the measuring child = {slowdown(out):.4g}")
    for message in out["failures"][:SHOWN_FAILURES]:
        print(f"  failed: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
