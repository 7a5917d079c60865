"""One pass of one workload, in a fresh interpreter.

run.py starts this script once per set-up sample and once per pass, so the
process-global caches in agentsearch (solver24's lru_caches) start cold
every time, as they do for each `agentsearch run` invocation. The last line
of standard output is one JSON object with the pass's raw measurements.

    python3 perfbench/worker.py --workload NAME --seed N --part I --mode setup|pass|traced

Part I of a run draws its inputs from its own seed, derived from the
workload seed N and I.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".bench_build" / "perfbench"


class CheckFailed(Exception):
    """A run's output disagrees with its trace or with a fresh environment."""


def check_path(task, steps, success, best_reward):
    """Re-execute the best node's path in a fresh environment. steps holds
    (action text, observation, terminal, reward) from the root's child down
    to the best node; every observation must repeat exactly, and the run's
    success claim must match the path's final reward."""
    from agentsearch.actions import parse_action
    from agentsearch.envs import make_env
    from agentsearch.envs.base import INVALID

    env = make_env(task.kind)
    env.reset(task)
    for raw, observation, terminal, reward in steps:
        try:
            action = parse_action(raw, env.grammar)
        except ValueError:
            action = None
        if observation == INVALID and (action is None or action.kind == "thought"):
            continue
        if action is None:
            raise CheckFailed(f"{task.task_id}: unparseable action {raw!r} was played")
        obs = env.step(action)
        if (obs.text, obs.terminal, obs.reward) != (observation, terminal, reward):
            raise CheckFailed(f"{task.task_id}: {raw!r} replays to {obs.text!r}")
    reached = bool(steps) and steps[-1][2] and steps[-1][3] >= 1.0
    if reached != success:
        raise CheckFailed(f"{task.task_id}: success={success} but path reward says {reached}")
    if steps and steps[-1][2] and steps[-1][3] != best_reward:
        raise CheckFailed(f"{task.task_id}: best_reward {best_reward} != path {steps[-1][3]}")


def event_stats(events, stats):
    """Accumulate trace-derived counts over one run's events."""
    from agentsearch.envs.base import INVALID

    for event in events:
        stats["events"] += 1
        if event["type"] == "expand":
            stats["children"] += len(event["children"])
            stats["invalid"] += sum(c["observation"] == INVALID for c in event["children"])
        elif event["type"] == "evaluate":
            stats["scores"] += len(event["scores"])
            stats["flagged"] += sum(s["flagged"] for s in event["scores"])


def new_tally():
    return {
        "attempted": 0,
        "failed": 0,
        "failures": [],
        "task_s": {},  # search key -> seconds in run_search
        "solved": 0,
        "reward_sum": 0.0,
        "proposals": 0,
        "nodes": 0,
        "episodes": 0,
        "expansions": 0,
        "events": dict.fromkeys(("events", "children", "invalid", "scores", "flagged", "bytes"), 0),
    }


def count_result(tally, result):
    tally["solved"] += int(result.success)
    tally["reward_sum"] += result.best_reward
    tally["proposals"] += result.proposals
    tally["nodes"] += len(result.tree.nodes)
    tally["episodes"] += result.episodes_used
    tally["expansions"] += result.nodes_expanded


def fail(tally, task_id, exc):
    tally["failed"] += 1
    if len(tally["failures"]) < 5:
        tally["failures"].append(f"{task_id}: {exc!r}")


def run_jobs(jobs, tally, digest, run_search, writer_cls, wrap_backends):
    """Closed loop, one client: each search starts when the previous one
    returns. Only run_search itself is timed; checks run between searches."""
    from agentsearch.trace import replay_trace

    for index, job in enumerate(jobs):
        tally["attempted"] += 1
        writer = writer_cls()
        backends = wrap_backends(job.backends)
        try:
            started = time.perf_counter()
            result = run_search(job.task, backends, job.templates, job.config, trace=writer)
            tally["task_s"][str(index)] = time.perf_counter() - started
        except Exception as exc:  # a run that raises is counted, never dropped
            digest.update(f"raised {job.task.task_id}\n".encode())
            fail(tally, job.task.task_id, exc)
            continue
        text = writer.to_jsonl()
        digest.update(text.encode())
        tally["events"]["bytes"] += len(text.encode())
        event_stats(writer.events, tally["events"])
        count_result(tally, result)
        tree = result.tree
        path = list(reversed(tree.path_to_root(result.best_node)))[1:]
        steps = [
            (tree.node(i).action.raw, tree.node(i).observation,
             tree.node(i).is_terminal, tree.node(i).reward)
            for i in path
        ]
        try:
            replay_trace(writer.events)
            check_path(job.task, steps, result.success, result.best_reward)
        except Exception as exc:
            fail(tally, job.task.task_id, exc)


def run_cli(argv, out_dir, tally, digest, delay_s):
    """One `agentsearch run` invocation through cli.main, with every backend
    the cli builds wrapped in a DelayBackend; then its output files are
    checked: every trace replays, every best path re-executes, and
    report.json agrees with the traces. Returns the invocation's wall time
    and the seconds its backends slept."""
    import agentsearch.cli as cli
    from agentsearch.envs import load_task
    from agentsearch.trace import read_trace, replay_trace
    from standins import DelayBackend

    delayed = []
    parse_spec = cli.parse_backend_spec

    def delayed_spec(spec):
        delayed.append(DelayBackend(parse_spec(spec), delay_s))
        return delayed[-1]

    cli.parse_backend_spec = delayed_spec
    results = []
    inner = cli.run_search

    def timed_run_search(task, *args, **kwargs):
        started = time.perf_counter()
        result = inner(task, *args, **kwargs)
        tally["task_s"][task.task_id] = time.perf_counter() - started
        results.append(result)
        return result

    cli.run_search = timed_run_search
    task_files = sorted(Path(argv[1]).glob("*.json"))
    tally["attempted"] += len(task_files)
    sink = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:
        code = exc
    wall = time.perf_counter() - started
    wait_s = sum(b.waited_s for b in delayed)
    if code != 0:
        for path in task_files:
            fail(tally, path.stem, f"cli run ended with {code!r}: {sink.getvalue()[-300:]}")
        return wall, wait_s
    for result in results:
        count_result(tally, result)
    report = json.loads((out_dir / "report.json").read_text())
    rows = {row["task_id"]: row for row in report["rows"]}
    for path in task_files:
        task = load_task(path)
        try:
            trace_path = out_dir / f"{task.task_id}.trace.jsonl"
            text = trace_path.read_text()
            digest.update(text.encode())
            tally["events"]["bytes"] += len(text.encode())
            events = read_trace(trace_path)
            event_stats(events, tally["events"])
            replay_trace(events)
            end = events[-1]
            nodes = {}
            for line in (out_dir / f"{task.task_id}.tree.jsonl").read_text().splitlines():
                row = json.loads(line)
                nodes[row["id"]] = row
            path_ids = []
            cur = end["best_node"]
            while nodes[cur]["parent"] is not None:
                path_ids.append(cur)
                cur = nodes[cur]["parent"]
            fields = ("action", "observation", "terminal", "reward")
            steps = [tuple(nodes[i][f] for f in fields) for i in reversed(path_ids)]
            check_path(task, steps, end["success"], end["best_reward"])
            if rows[task.task_id]["success"] != end["success"]:
                raise CheckFailed(f"{task.task_id}: report.json disagrees with the trace")
        except Exception as exc:
            digest.update(f"failed {task.task_id}\n".encode())
            fail(tally, task.task_id, exc)
    return wall, wait_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one pass of one benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "agentsearch" / "__init__.py").is_file():
        print(f"no agentsearch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads

    seed = workloads.derive(args.seed, "part", args.part)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli-latency":
        import agentsearch.cli  # noqa: F401  (its import is part of set-up)

        out_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=SCRATCH))
        cli_argv = workloads.cli_argv(seed, out_dir)
        jobs = []
    else:
        jobs = workloads.build_jobs(args.workload, seed)
    setup_s = time.perf_counter() - START
    if args.mode == "setup":
        if args.workload == "cli-latency":
            shutil.rmtree(out_dir)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from agentsearch.search import run_search
    from agentsearch.trace import TraceWriter

    rec = None
    writer_cls = TraceWriter

    def wrap_backends(backends):
        return backends

    if args.mode == "traced":
        import spans

        rec = spans.Recorder()
        run_search, writer_cls = spans.install(rec)

        def wrap_backends(backends):
            return spans.role_backends(rec, backends.policy, backends.value, backends.reflection)

    tally = new_tally()
    digest = hashlib.sha256()
    wait_s = 0.0
    if args.workload == "cli-latency":
        try:
            wall_s, wait_s = run_cli(cli_argv, out_dir, tally, digest, workloads.ROUND_TRIP_S)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    else:
        run_jobs(jobs, tally, digest, run_search, writer_cls, wrap_backends)
        wall_s = sum(tally["task_s"].values())
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest.hexdigest(),
        "wait_s": wait_s,
        **tally,
    }
    if rec is not None:
        out["layers"], out["self_within_wall"] = spans.layer_metrics(rec, tally, wait_s, wall_s)
        rec.write(SCRATCH / f"spans-{args.workload}-{args.seed}-{args.part}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
