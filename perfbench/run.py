"""agentsearch benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh interpreter (worker.py), so caches
start cold as they do for every CLI invocation. With --trace 0 the run
takes several set-up samples and then repeats passes until S seconds of
passes are done and the per-task percentiles have enough samples; it
prints the end-to-end metrics. With --trace 1 it alternates untraced and
traced passes and prints the per-layer metrics and the tracing overhead.

The last line of standard output is the result object; the line before it
holds the details: run environment, sample counts, trace digest, failures.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 9
# Stop starting passes after this long, so a run ends well within 180 s.
DEADLINE_S = 140.0

class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, part: int, mode: str, started: float) -> dict:
    budget = max(10.0, 170.0 - (time.monotonic() - started))
    proc = subprocess.run(
        [
            sys.executable, str(WORKER), "--workload", workload,
            "--seed", str(seed), "--part", str(part), "--mode", mode,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=budget,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
    return ordered[index]


def run_passes(workload, seed, parts, seconds, started, modes, min_rounds):
    """Cycle through the parts, running one worker per mode for each, until
    min_rounds parts ran and `seconds` are used up. Returns {mode: passes};
    each pass is tagged with its part."""
    runs = {mode: [] for mode in modes}
    window = time.monotonic()
    index = 0
    while time.monotonic() - started < DEADLINE_S:
        used = time.monotonic() - window
        if index >= min_rounds and used + used / index > seconds:
            break
        for mode in modes:
            result = run_worker(workload, seed, index % parts, mode, started)
            result["part"] = index % parts
            runs[mode].append(result)
        index += 1
    return runs


def behaviour(passes, parts) -> tuple:
    """Whether every part ran and its repeats reproduced it; the run's
    trace digest over the parts in order; and one pass of each part."""
    first = {}
    repeatable = True
    for p in passes:
        key = (p["digest"], p["solved"], p["failed"])
        repeatable &= first.setdefault(p["part"], key) == key
    once = list({p["part"]: p for p in reversed(passes)}.values())
    digest = hashlib.sha256("".join(first[i][0] for i in sorted(first)).encode()).hexdigest()
    return repeatable and sorted(first) == list(range(parts)), digest, once


def tally(passes) -> dict:
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:10],
    }


def end_to_end(workload: str, seed: int, seconds: float, started: float, parts: int):
    run_worker(workload, seed, 0, "setup", started)  # warms the page cache and .pyc files
    setup = [
        run_worker(workload, seed, 0, "setup", started)["setup_s"] for _ in range(SETUP_SAMPLES)
    ]
    passes = run_passes(workload, seed, parts, seconds, started, ("pass",), parts)["pass"]
    setup += [p["setup_s"] for p in passes]
    # Every pass counts, repeats of a part too: the host's speed drifts over
    # tens of seconds, so the whole run's time is steadier than any one
    # pass's or any search's best. A repeated search counts once in the
    # percentiles, with the mean of its times.
    times = {}
    for p in passes:
        for key, s in p["task_s"].items():
            times.setdefault((p["part"], key), []).append(s)
    task_s = [statistics.fmean(v) for v in times.values()]
    # For cli-latency a pass's time is the invocation's wall time, which also
    # covers the cli's file writing and report.
    wall = sum(p["wall_s"] for p in passes)
    deterministic, digest, once = behaviour(passes, parts)
    metrics = {
        "setup_s": statistics.median(setup),
        "tasks_per_s": sum(len(p["task_s"]) for p in passes) / wall,
        "proposals_per_s": sum(p["proposals"] for p in passes) / wall,
        "nodes_per_s": sum(p["nodes"] for p in passes) / wall,
        "task_ms_p50": 1000.0 * percentile(task_s, 0.5),
        "task_ms_p95": 1000.0 * percentile(task_s, 0.95),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "solved_frac": sum(p["solved"] for p in once) / sum(p["attempted"] for p in once),
        "mean_best_reward": sum(p["reward_sum"] for p in once) / sum(p["attempted"] for p in once),
    }
    counts = tally(passes)
    details = {
        "parts": parts,
        "passes": len(passes),
        "setup_samples": len(setup),
        "task_samples": len(task_s),
        "samples_above_p95": sum(t * 1000.0 > metrics["task_ms_p95"] for t in task_s),
        "failed_frac": counts["failed"] / counts["attempted"],
        "trace_digest": digest,
        "deterministic": deterministic,
    }
    correct = counts["failed"] == 0 and deterministic
    return correct, counts, metrics, details


def per_layer(workload: str, seed: int, seconds: float, started: float, parts: int):
    runs = run_passes(workload, seed, parts, seconds, started, ("pass", "traced"), 2)
    plain, traced = runs["pass"], runs["traced"]
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]
    }
    metrics["trace_overhead_frac"] = (
        sum(t["wall_s"] for t in traced) / sum(p["wall_s"] for p in plain) - 1.0
    )
    deterministic, digest, _ = behaviour(plain + traced, min(len(traced), parts))
    counts = tally(plain + traced)
    details = {
        "parts": parts,
        "passes": len(plain),
        "traced_passes": len(traced),
        "trace_digest": digest,
        "deterministic": deterministic,
        "self_within_wall": all(t["self_within_wall"] for t in traced),
        "failed_frac": counts["failed"] / counts["attempted"],
    }
    correct = counts["failed"] == 0 and deterministic and details["self_within_wall"]
    return correct, counts, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="agentsearch benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "agentsearch" / "__init__.py").is_file():
        print(f"benchmark needs the agentsearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import PARTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    started = time.monotonic()
    env = environment()
    measure = per_layer if args.trace else end_to_end
    try:
        correct, counts, metrics, details = measure(
            args.workload, args.seed, args.seconds, started, PARTS[args.workload]
        )
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        environment=env,
        failures=counts["failures"],
        elapsed_s=time.monotonic() - started,
    )
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
