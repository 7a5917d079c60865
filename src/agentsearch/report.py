"""Aggregation of run outcomes into JSON and CSV reports."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .trace import write_whole

COLUMNS = (
    "task_id",
    "kind",
    "variant",
    "success",
    "best_reward",
    "episodes",
    "expansions",
    "nodes",
    "policy_calls",
    "policy_proposals",
    "value_calls",
    "reflection_calls",
    "reflections",
    "terminate_reason",
)


@dataclass
class RunReport:
    """One row per finished run, plus grouped success statistics."""

    rows: list = field(default_factory=list)

    @classmethod
    def from_results(cls, results) -> "RunReport":
        return cls(rows=[r.summary() for r in results])

    def aggregate(self) -> dict:
        groups: dict = {}
        for row in self.rows:
            key = f"{row['kind']}/{row['variant']}"
            bucket = groups.setdefault(
                key,
                {
                    "tasks": 0,
                    "successes": 0,
                    "total_reward": 0.0,
                    "episodes": 0,
                    "policy_proposals": 0,
                },
            )
            bucket["tasks"] += 1
            bucket["successes"] += 1 if row["success"] else 0
            bucket["total_reward"] += float(row["best_reward"])
            bucket["episodes"] += int(row["episodes"])
            bucket["policy_proposals"] += int(row["policy_proposals"])
        out = {}
        for key, bucket in sorted(groups.items()):
            tasks = bucket["tasks"]
            out[key] = {
                "tasks": tasks,
                "successes": bucket["successes"],
                "success_rate": bucket["successes"] / tasks,
                "mean_best_reward": bucket["total_reward"] / tasks,
                "mean_episodes": bucket["episodes"] / tasks,
                "total_policy_proposals": bucket["policy_proposals"],
            }
        return out

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
