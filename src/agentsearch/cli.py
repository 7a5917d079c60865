"""Command line interface.

Subcommands:

    run       search one or more task files and write traces plus a report
    replay    verify previously written trace files against their statistics
    report    merge report.json files and print aggregate success rates
    oracle24  check a make-24 number set for solvability from the shell

Backend specs (for --backend / --value-backend / --reflection-backend):

    oracle:p=0.3,seed=1          make-24 step oracle of tunable competence
    oracle-value:accuracy=0.85   make-24 scoring oracle (value role)
    script:rules.json            canned responses from a rule file
    static:TEXT                  one fixed response for every prompt
    http:URL,model=NAME[,temperature=F,cache=DIR]   chat-completions server

Exit codes: 0 on success, 1 when replay finds a mismatch, 2 for bad
configuration (unknown spec, missing arguments) and when any task file of a
run is malformed or repeats an earlier file's task_id; run still searches
the other tasks and writes its report.
"""

from __future__ import annotations

import argparse
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import solver24
from .backends import (
    Game24PolicyOracle,
    Game24ValueOracle,
    HttpChatBackend,
    ScriptedBackend,
    static_backend,
)
from .envs import TaskError, load_task
from .report import COLUMNS, RunReport
from .reflection import ReflectionStore
from .search import (
    PROMPT_STYLES,
    VARIANTS,
    BackendSet,
    SearchConfig,
    run_search,
)
from .templates import load_template_set
from .trace import TraceWriter, decode, read_trace, replay_trace, write_trace
from .tree import tree_to_jsonl
from .valuation import VALUE_MODES


class CliError(ValueError):
    """Bad command line or config input; maps to exit code 2."""


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_backend_spec(spec: str):
    """Build one backend from its spec string (see module docstring)."""
    if ":" not in spec:
        raise CliError(f"backend spec needs a 'type:...' prefix: {spec!r}")
    kind, rest = spec.split(":", 1)
    try:
        if kind == "oracle":
            kv = _parse_kv(rest)
            return Game24PolicyOracle(
                p_correct=float(kv.get("p", 1.0)), seed=int(kv.get("seed", 0))
            )
        if kind == "oracle-value":
            kv = _parse_kv(rest)
            return Game24ValueOracle(
                accuracy=float(kv.get("accuracy", 1.0)), seed=int(kv.get("seed", 0))
            )
        if kind == "script":
            return ScriptedBackend.from_file(rest)
        if kind == "static":
            return static_backend(rest)
        if kind == "http":
            parts = rest.split(",")
            endpoint = parts[0]
            kv = _parse_kv(",".join(parts[1:])) if len(parts) > 1 else {}
            if "model" not in kv:
                raise CliError("http backend spec needs model=NAME")
            return HttpChatBackend(
                endpoint=endpoint,
                model=kv["model"],
                temperature=float(kv.get("temperature", 0.7)),
                cache_dir=kv.get("cache"),
            )
    except (OSError, ValueError) as exc:
        raise CliError(f"bad backend spec {spec!r}: {exc}") from exc
    raise CliError(f"unknown backend type {kind!r} in {spec!r}")


# SearchConfig field -> value type, with Optional[X] read as X.
_CONFIG_TYPES = {
    name: next((a for a in typing.get_args(hint) if a is not type(None)), hint)
    for name, hint in typing.get_type_hints(SearchConfig).items()
}


def _coerce(key: str, raw: str):
    typ = _CONFIG_TYPES[key]
    if typ is bool:
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise CliError(f"config key {key} expects a boolean, got {raw!r}")
    try:
        return typ(raw.strip())
    except ValueError as exc:
        raise CliError(f"config key {key}: {exc}") from exc


def read_config_file(path) -> dict:
    """key=value lines; blank lines and '#' comments are skipped."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_TYPES:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, value)
    return values


def build_config(args) -> SearchConfig:
    """The config file's values, overridden by every config flag given."""
    values = read_config_file(args.config) if args.config else {}
    for key in _CONFIG_TYPES:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    try:
        config = SearchConfig(**values)
        config.validate()
        return config
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad configuration: {exc}") from exc


def collect_task_paths(specs) -> list:
    paths = []
    for spec in specs:
        p = Path(spec)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        elif p.is_file():
            paths.append(p)
        else:
            raise CliError(f"no such task file or directory: {spec}")
    if not paths:
        raise CliError("no task files found")
    return paths


def _backend_set(args) -> BackendSet:
    """Backends built from the specs; fresh per task, as scripted backends
    keep cursor state."""
    return BackendSet(
        policy=parse_backend_spec(args.backend),
        value=parse_backend_spec(args.value_backend) if args.value_backend else None,
        reflection=(
            parse_backend_spec(args.reflection_backend) if args.reflection_backend else None
        ),
    )


def _load_tasks(paths) -> list:
    """(path, task or None, TaskError or None) per file, in path order. A
    file whose task does not load, or whose task_id an earlier file already
    took (its outputs would overwrite that file's), gets an error."""
    owners = {}
    loaded = []
    for index, path in enumerate(paths):
        task = None
        try:
            task = load_task(path)
            first, earlier = owners.setdefault(task.task_id, (index, path))
            if first != index:
                raise TaskError(f"task_id {task.task_id!r} is already used by {earlier}")
            loaded.append((path, task, None))
        except TaskError as exc:
            loaded.append((path, task, exc))
    return loaded


def _run_one(path, task, error, args, config, out_dir) -> dict:
    """Search one loaded task and return its report row. A load error, or a
    task that turns out malformed, gives a failed "task_error" row instead."""
    try:
        if error is not None:
            raise error
        templates = load_template_set(task.kind, args.templates)
        writer = TraceWriter(log_prompts=args.log_prompts)
        store = ReflectionStore()
        result = run_search(task, _backend_set(args), templates, config, writer, store)
    except TaskError as exc:
        row = dict.fromkeys(COLUMNS, 0)
        row.update(
            task_id=task.task_id if task else Path(path).stem,
            kind=task.kind if task else "unknown",
            variant=config.variant,
            success=False,
            terminate_reason="task_error",
            error=str(exc),
        )
        return row
    if out_dir is not None:
        write_trace(writer.events, out_dir / f"{task.task_id}.trace.jsonl")
        (out_dir / f"{task.task_id}.tree.jsonl").write_text(tree_to_jsonl(result.tree))
        reflections = store.to_jsonl()
        if reflections:
            (out_dir / f"{task.task_id}.reflections.jsonl").write_text(reflections)
    return result.summary()


def cmd_run(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise CliError("--limit must be >= 1")
    if args.workers < 1:
        raise CliError("--workers must be >= 1")
    paths = collect_task_paths(args.tasks)[: args.limit]
    # Validate shared inputs once, before any worker starts.
    _backend_set(args)
    config = build_config(args)
    out_dir = None
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot make output directory {out_dir}: {exc}") from exc
    loaded = _load_tasks(paths)
    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(lambda item: _run_one(*item, args, config, out_dir), loaded))
    else:
        rows = [_run_one(*item, args, config, out_dir) for item in loaded]
    rows.sort(key=lambda r: r["task_id"])
    report = RunReport(rows=rows)
    if out_dir is not None:
        report.write_json(out_dir / "report.json")
        report.write_csv(out_dir / "report.csv")
    for row in rows:
        if "error" in row:
            print(f"error: {row['task_id']}: {row['error']}", file=sys.stderr)
        status = "ok" if row["success"] else "fail"
        print(
            f"{row['task_id']}: {status} reward={row['best_reward']:g} "
            f"episodes={row['episodes']} proposals={row['policy_proposals']} "
            f"({row['terminate_reason']})"
        )
    for key, agg in report.aggregate().items():
        print(
            f"{key}: {agg['successes']}/{agg['tasks']} solved "
            f"({agg['success_rate']:.1%}), mean reward {agg['mean_best_reward']:.3f}"
        )
    return 2 if any("error" in row for row in rows) else 0


def cmd_replay(args) -> int:
    failures = 0
    for path in args.traces:
        try:
            stats = replay_trace(read_trace(path))
        except (OSError, ValueError) as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
            continue
        print(
            f"OK {path}: nodes={stats['nodes']} backprops={stats['backprops']} "
            f"episodes={stats['episodes']} success={stats['success']}"
        )
    return 1 if failures else 0


def cmd_report(args) -> int:
    rows = []
    for path in args.reports:
        try:
            payload = decode(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read report {path}: {exc}") from exc
        file_rows = payload.get("rows", []) if isinstance(payload, dict) else None
        if not isinstance(file_rows, list):
            raise CliError(f"report {path} must hold an object with a 'rows' list")
        try:
            RunReport(rows=file_rows).aggregate()
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CliError(f"report {path} has a malformed row: {exc!r}") from exc
        rows.extend(file_rows)
    if not rows:
        raise CliError("reports contain no rows")
    merged = RunReport(rows=rows)
    if args.csv:
        merged.write_csv(args.csv)
    if args.json:
        merged.write_json(args.json)
    for key, agg in merged.aggregate().items():
        print(
            f"{key}: {agg['successes']}/{agg['tasks']} solved "
            f"({agg['success_rate']:.1%}), mean reward {agg['mean_best_reward']:.3f}, "
            f"mean episodes {agg['mean_episodes']:.1f}"
        )
    return 0


def cmd_oracle24(args) -> int:
    if args.max_solutions < 0:
        raise CliError("--max-solutions must be >= 0")
    try:
        nums = [solver24.number(tok) for tok in args.numbers]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad number: {exc}") from exc
    solvable, solutions = solver24.solve(nums)
    print(f"numbers: {' '.join(solver24.format_number(n) for n in nums)}")
    print(f"solvable: {'yes' if solvable else 'no'}")
    for lines in solutions[: args.max_solutions]:
        print("  " + " ; ".join(lines))
    if len(solutions) > args.max_solutions:
        print(f"  ... and {len(solutions) - args.max_solutions} more")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentsearch", description="Tree search over textual agent trajectories."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="search task files and write traces")
    run.add_argument("tasks", nargs="+", help="task JSON files or directories of them")
    run.add_argument("--backend", required=True, help="policy backend spec")
    run.add_argument("--value-backend", help="value backend spec (default: policy)")
    run.add_argument("--reflection-backend", help="reflection backend spec (default: policy)")
    run.add_argument("--templates", help="directory of prompt templates (default: bundled)")
    run.add_argument("--config", help="key=value config file; CLI flags win")
    run.add_argument("--variant", choices=VARIANTS)
    run.add_argument("--n", type=int, help="proposals per expansion")
    run.add_argument("--k", type=int, help="episode / expansion / rollout budget")
    run.add_argument(
        "--depth", dest="depth_limit", type=int, help="depth limit (default: per kind)"
    )
    run.add_argument("--w", type=float, help="UCT exploration weight")
    run.add_argument("--lam", type=float, help="LM-vs-agreement mixing weight")
    run.add_argument("--value-mode", choices=VALUE_MODES)
    run.add_argument(
        "--reflection",
        dest="reflection_enabled",
        action=argparse.BooleanOptionalAction,
        help="toggle reflections",
    )
    run.add_argument("--reflection-limit", type=int, help="max injected reflections")
    run.add_argument(
        "--skip-simulation",
        action=argparse.BooleanOptionalAction,
        help="toggle direct child-reward backup (default: per kind)",
    )
    run.add_argument("--prune-threshold", type=float)
    run.add_argument("--prompt-style", choices=PROMPT_STYLES)
    run.add_argument(
        "--inject-trajectories",
        dest="inject_trajectories_into_agent_prompts",
        action=argparse.BooleanOptionalAction,
        help="also show failed trajectories to the acting prompt",
    )
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output directory for traces and reports")
    run.add_argument("--log-prompts", action="store_true", help="full prompts in traces")
    run.add_argument("--workers", type=int, default=1, help="parallel tasks")
    run.add_argument("--limit", type=int, help="run at most this many tasks")
    run.set_defaults(func=cmd_run)

    replay = sub.add_parser("replay", help="verify trace files")
    replay.add_argument("traces", nargs="+", help="trace JSONL files")
    replay.set_defaults(func=cmd_replay)

    report = sub.add_parser("report", help="merge and summarize report.json files")
    report.add_argument("reports", nargs="+", help="report.json files")
    report.add_argument("--csv", help="write merged rows to this CSV file")
    report.add_argument("--json", help="write merged report to this JSON file")
    report.set_defaults(func=cmd_report)

    oracle = sub.add_parser("oracle24", help="solve a make-24 number set")
    oracle.add_argument("numbers", nargs="+", help="the numbers, e.g. 4 7 8 8")
    oracle.add_argument("--max-solutions", type=int, default=5)
    oracle.set_defaults(func=cmd_oracle24)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, TaskError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
