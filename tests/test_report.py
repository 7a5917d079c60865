"""Report aggregation tests."""

import csv
import json

from agentsearch.report import COLUMNS, RunReport


def row(task_id, kind="game24", variant="mcts", success=True, reward=1.0, episodes=1):
    return {
        "task_id": task_id,
        "kind": kind,
        "variant": variant,
        "success": success,
        "best_reward": reward,
        "episodes": episodes,
        "expansions": 3,
        "nodes": 16,
        "policy_calls": 3,
        "policy_proposals": 15,
        "value_calls": 10,
        "reflection_calls": 0,
        "reflections": 0,
        "terminate_reason": "success" if success else "budget_exhausted",
    }


def sample_rows():
    return [
        row("a", success=True, reward=1.0, episodes=1),
        row("b", success=False, reward=0.0, episodes=30),
        row("c", success=True, reward=1.0, episodes=5),
        row("d", variant="best_of_k", success=False, reward=0.5, episodes=30),
        row("e", kind="shop", variant="mcts", success=False, reward=2 / 3, episodes=4),
    ]


def test_aggregate_matches_recomputation():
    report = RunReport(rows=sample_rows())
    agg = report.aggregate()
    assert set(agg) == {"game24/mcts", "game24/best_of_k", "shop/mcts"}
    g = agg["game24/mcts"]
    assert g["tasks"] == 3
    assert g["successes"] == 2
    assert g["success_rate"] == 2 / 3
    assert g["mean_best_reward"] == (1.0 + 0.0 + 1.0) / 3
    assert g["mean_episodes"] == (1 + 30 + 5) / 3
    assert g["total_policy_proposals"] == 45
    assert agg["game24/best_of_k"]["success_rate"] == 0.0
    assert agg["shop/mcts"]["mean_best_reward"] == 2 / 3


def test_json_round_trip(tmp_path):
    report = RunReport(rows=sample_rows())
    path = tmp_path / "report.json"
    report.write_json(path)
    data = json.loads(path.read_text())
    assert data["rows"] == sample_rows()
    assert data["aggregate"] == report.aggregate()
    rebuilt = RunReport(rows=data["rows"])
    assert rebuilt.aggregate() == report.aggregate()


def test_csv_columns_and_rows(tmp_path):
    failed = dict(row("f", success=False, reward=0.0), error="game24 payload needs numbers")
    report = RunReport(rows=sample_rows() + [failed])
    path = tmp_path / "report.csv"
    report.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert tuple(rows[0].keys()) == COLUMNS + ("error",)
    assert rows[0]["task_id"] == "a"
    assert rows[3]["variant"] == "best_of_k"
    assert rows[4]["kind"] == "shop"
    assert [r["error"] for r in rows] == [""] * 5 + ["game24 payload needs numbers"]


def test_empty_report_aggregates_to_nothing():
    report = RunReport()
    assert report.aggregate() == {}
    assert json.loads(report.to_json()) == {"aggregate": {}, "rows": []}
