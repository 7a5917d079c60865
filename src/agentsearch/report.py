"""Report rows, the one owner of their columns: built, checked, read, summed and printed."""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .trace import decode, write_whole

# Each column of a search's row, with how its SearchResult gives it.
_FROM_RESULT = {
    "task_id": lambda r: r.task_id,
    "kind": lambda r: r.task_kind,
    "variant": lambda r: r.config.variant,
    "success": lambda r: r.success,
    "best_reward": lambda r: r.best_reward,
    "episodes": lambda r: r.episodes_used,
    "expansions": lambda r: r.nodes_expanded,
    "nodes": lambda r: len(r.tree.nodes),
    "policy_calls": lambda r: r.backend_calls["policy"]["calls"],
    "policy_proposals": lambda r: r.backend_calls["policy"]["proposals"],
    "value_calls": lambda r: r.backend_calls["value"]["calls"],
    "reflection_calls": lambda r: r.backend_calls["reflection"]["calls"],
    "reflections": lambda r: len(r.reflections),
    "terminate_reason": lambda r: r.terminate_reason,
}
COLUMNS = tuple(_FROM_RESULT)

# The columns the aggregate reads, each with the exact types a read row may hold there.
_CHECKED = {"kind": (str,), "variant": (str,), "success": (bool,)}
_CHECKED.update(dict.fromkeys(("best_reward", "episodes", "policy_proposals"), (int, float)))


def result_row(result) -> dict:
    """The row of a finished search (a search.SearchResult)."""
    return {column: get(result) for column, get in _FROM_RESULT.items()}


def task_error_row(path, task, variant: str, error: Exception) -> dict:
    """The failed row of a task that was not searched: one that did not load
    is named by its file's stem, and its kind is "unknown"."""
    task_id, kind = (task.task_id, task.kind) if task else (Path(path).stem, "unknown")
    return dict(
        dict.fromkeys(COLUMNS, 0), task_id=task_id, kind=kind, variant=variant, success=False,
        terminate_reason="task_error", error=str(error),
    )


def _problem(row):
    """What unfits a read row for the aggregate, naming the field; None if nothing."""
    if not isinstance(row, dict):
        return f"{row!r} is not an object"
    for key, types in _CHECKED.items():
        if key not in row:
            return f"{key} is missing"
        if type(row[key]) not in types:
            return f"{key} {row[key]!r} has the wrong type"
        if float in types and not abs(row[key]) <= sys.float_info.max:  # NaN too
            return f"{key} {row[key]!r} is not finite"


def task_line(row: dict) -> str:
    """A row as `agentsearch run` prints it."""
    return (
        f"{row['task_id']}: {'ok' if row['success'] else 'fail'} reward={row['best_reward']:g} "
        f"episodes={row['episodes']} proposals={row['policy_proposals']} "
        f"({row['terminate_reason']})"
    )


@dataclass
class RunReport:
    """One row per finished run, plus grouped success statistics."""

    rows: list = field(default_factory=list)

    @classmethod
    def from_results(cls, results) -> "RunReport":
        return cls(rows=[result_row(r) for r in results])

    @classmethod
    def read(cls, paths) -> "RunReport":
        """The checked rows of report.json files; a fault is a ValueError naming the file."""
        rows = []
        for path in paths:
            try:
                payload = decode(Path(path).read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise ValueError(f"cannot read report {path}: {exc}") from exc
            file_rows = payload.get("rows") if isinstance(payload, dict) else None
            if not isinstance(file_rows, list):
                raise ValueError(f"report {path} must hold an object with a 'rows' list")
            problem = next(filter(None, map(_problem, file_rows)), None)
            if problem:
                raise ValueError(f"report {path} has a malformed row: {problem}")
            rows.extend(file_rows)
        if not rows:
            raise ValueError("reports contain no rows")
        return cls(rows=rows)

    def aggregate(self) -> dict:
        groups: dict = {}
        for row in self.rows:
            groups.setdefault(f"{row['kind']}/{row['variant']}", []).append(row)
        out = {}
        for key, rows in sorted(groups.items()):
            tasks, successes, reward = len(rows), sum(1 for r in rows if r["success"]), 0.0
            for row in rows:  # one float at a time: sum() rounds otherwise from Python 3.12 on
                reward += float(row["best_reward"])
            out[key] = {
                "tasks": tasks, "successes": successes, "success_rate": successes / tasks,
                "mean_best_reward": reward / tasks,
                "mean_episodes": sum(int(r["episodes"]) for r in rows) / tasks,
                "total_policy_proposals": sum(int(r["policy_proposals"]) for r in rows),
            }
        return out

    def group_lines(self, episodes: bool = False) -> list:
        """One line per kind/variant group, ending in its mean episodes if episodes."""
        return [
            f"{key}: {agg['successes']}/{agg['tasks']} solved "
            f"({agg['success_rate']:.1%}), mean reward {agg['mean_best_reward']:.3f}"
            + (f", mean episodes {agg['mean_episodes']:.1f}" if episodes else "")
            for key, agg in self.aggregate().items()
        ]

    def to_json(self) -> str:
        payload = {"aggregate": self.aggregate(), "rows": self.rows}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write_json(self, path) -> None:
        write_whole({path: self.to_json()})

    def write_csv(self, path) -> None:
        text = io.StringIO(newline="")
        writer = csv.DictWriter(text, fieldnames=COLUMNS + ("error",), extrasaction="ignore")
        writer.writeheader()
        writer.writerows(self.rows)
        write_whole({path: text.getvalue()})
