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
configuration (unknown spec, missing arguments, a report file that cannot
be written) and when any task file of a run is malformed, repeats an
earlier file's task_id, or has an output file that cannot be written; run
still searches the other tasks and writes its report.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import typing
from pathlib import Path

from . import solver24
from .backends import (
    Game24PolicyOracle,
    Game24ValueOracle,
    HttpChatBackend,
    ScriptedBackend,
    http_session,
    static_backend,
)
from .envs import TaskError, load_task
from .pool import ThreadPool
from .report import RunReport, result_row, task_error_row, task_line
from .reflection import ReflectionStore
from .search import (
    PROMPT_STYLES,
    VARIANTS,
    BackendSet,
    SearchConfig,
    run_search,
)
from .templates import load_template_set
from .trace import TraceWriter, read_trace, replay_trace, write_trace
from .tree import tree_to_jsonl
from .valuation import VALUE_MODES


class CliError(ValueError):
    """Bad command line or config input; maps to exit code 2."""


def _parse_kv(text: str, keys) -> dict:
    """key=value pairs, each key one of keys."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"expected key=value, got {part!r}")
        key, value = (s.strip() for s in part.split("=", 1))
        if key not in keys:
            raise CliError(f"unknown key {key!r}; expected one of {', '.join(keys)}")
        out[key] = value
    return out


def parse_backend_spec(spec: str):
    """Build one backend from its spec string (see module docstring)."""
    if ":" not in spec:
        raise CliError(f"backend spec needs a 'type:...' prefix: {spec!r}")
    kind, rest = spec.split(":", 1)
    try:
        if kind == "oracle":
            kv = _parse_kv(rest, ("p", "seed"))
            return Game24PolicyOracle(
                p_correct=float(kv.get("p", 1.0)), seed=int(kv.get("seed", 0))
            )
        if kind == "oracle-value":
            kv = _parse_kv(rest, ("accuracy", "seed"))
            return Game24ValueOracle(
                accuracy=float(kv.get("accuracy", 1.0)), seed=int(kv.get("seed", 0))
            )
        if kind == "script":
            return ScriptedBackend.from_file(rest)
        if kind == "static":
            return static_backend(rest)
        if kind == "http":
            endpoint, _, options = rest.partition(",")
            kv = _parse_kv(options, ("model", "temperature", "cache"))
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
        text = Path(path).read_text(encoding="utf-8")
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
        return SearchConfig(**values)
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


def _backend_set(args, session=None, value_pool=None) -> BackendSet:
    """Backends built from the specs; fresh per task, as scripted backends
    keep cursor state. Every http backend sends through session, when one is
    given, and the run carries value_pool."""

    def build(spec):
        if not spec:
            return None
        backend = parse_backend_spec(spec)
        if session is not None and isinstance(backend, HttpChatBackend):
            backend.session = session
        return backend

    backends = BackendSet(
        policy=build(args.backend),
        value=build(args.value_backend),
        reflection=build(args.reflection_backend),
    )
    backends.value_pool = value_pool
    return backends


def _load_tasks(paths, template_dir) -> list:
    """(path, task or None, its kind's templates or None, TaskError or None) per
    file, in path order. A file whose task or templates do not load, or whose
    task_id an earlier file took (its outputs would overwrite it), gets an error."""
    owners = {}
    template_sets = {}
    loaded = []
    for index, path in enumerate(paths):
        task = None
        try:
            task = load_task(path)
            first, earlier = owners.setdefault(task.task_id, (index, path))
            if first != index:
                raise TaskError(f"task_id {task.task_id!r} is already used by {earlier}")
            if task.kind not in template_sets:
                template_sets[task.kind] = load_template_set(task.kind, template_dir)
            loaded.append((path, task, template_sets[task.kind], None))
        except TaskError as exc:
            loaded.append((path, task, None, exc))
    return loaded


def _run_one(path, task, templates, error, args, config, out_dir, session, value_pool) -> dict:
    """Search one loaded task and return its report row. A load error, or a
    task that turns out malformed, gives a failed "task_error" row instead.
    An output file that cannot be written adds an error to the row."""
    try:
        if error is not None:
            raise error
        writer = TraceWriter(log_prompts=args.log_prompts)
        store = ReflectionStore()
        backends = _backend_set(args, session, value_pool)
        result = run_search(task, backends, templates, config, writer, store)
    except TaskError as exc:
        return task_error_row(path, task, config.variant, exc)
    row = result_row(result)
    if out_dir is None:
        return row
    # The task's files are one set; an empty store removes an earlier run's reflections.
    others = {
        out_dir / f"{task.task_id}.tree.jsonl": tree_to_jsonl(result.tree),
        out_dir / f"{task.task_id}.reflections.jsonl": store.to_jsonl() or None,
    }
    try:
        write_trace(writer.events, out_dir / f"{task.task_id}.trace.jsonl", others)
    except OSError as exc:
        row["error"] = f"cannot write its output: {exc}"
    return row


def _write_report(report, json_path, csv_path) -> None:
    """Write the report files that have a path; one that cannot be written
    is a CliError."""
    try:
        if json_path:
            report.write_json(json_path)
        if csv_path:
            report.write_csv(csv_path)
    except OSError as exc:
        raise CliError(f"cannot write report: {exc}") from exc


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
        reports = out_dir / "report.json", out_dir / "report.csv"
        # The reports are written last; a path they cannot take stops the run first.
        for path in reports:
            if path.is_dir():
                raise CliError(f"cannot write report: {path} is a directory")
        try:
            tempfile.TemporaryFile(dir=out_dir).close()
        except OSError as exc:
            raise CliError(f"cannot write report: {exc}") from exc
    loaded = _load_tasks(paths, args.templates)
    # The batch shares one http session, so connections are reused, and one
    # value pool, whose threads only a value backend that is not inline starts.
    value_threads = config.n * args.workers
    value_pool = ThreadPool(value_threads, "value")
    specs = (args.backend, args.value_backend, args.reflection_backend)
    http = any(spec and spec.startswith("http:") for spec in specs)
    session = http_session(value_threads + args.workers) if http else None

    def run(item):
        return _run_one(*item, args, config, out_dir, session, value_pool)

    try:
        with value_pool, ThreadPool(args.workers, "task") as tasks:  # a lone worker runs inline
            rows = tasks.map(run, loaded) if args.workers > 1 else list(map(run, loaded))
    finally:
        if session is not None:
            session.close()
    rows.sort(key=lambda r: r["task_id"])
    report = RunReport(rows=rows)
    for row in rows:
        if "error" in row:
            print(f"error: {row['task_id']}: {row['error']}", file=sys.stderr)
        print(task_line(row))
    print("\n".join(report.group_lines()))  # a run has a row, so a group
    if out_dir is not None:
        _write_report(report, *reports)
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
    try:
        merged = RunReport.read(args.reports)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_report(merged, args.json, args.csv)
    print("\n".join(merged.group_lines(episodes=True)))
    return 0


def cmd_oracle24(args) -> int:
    if args.max_solutions < 0:
        raise CliError("--max-solutions must be >= 0")
    try:
        nums = [solver24.number(tok) for tok in args.numbers]
        solver24.check_printable(nums)
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
    run.add_argument("--lam", type=float, help="LM-vs-agreement mixing weight (default: per kind)")
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
