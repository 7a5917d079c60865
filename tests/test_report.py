"""Report aggregation tests."""

import csv
import json

import pytest

from agentsearch.envs import TaskError
from agentsearch.report import COLUMNS, RunReport, task_error_row, task_line


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


def test_a_task_error_row_has_the_columns_and_then_the_error():
    unloaded = task_error_row("tasks/bad.json", None, "dfs_prune", TaskError("no payload"))
    assert tuple(unloaded) == COLUMNS + ("error",)
    assert unloaded["task_id"] == "bad" and unloaded["kind"] == "unknown"
    assert unloaded["variant"] == "dfs_prune" and unloaded["success"] is False
    assert unloaded["terminate_reason"] == "task_error" and unloaded["error"] == "no payload"
    assert [unloaded[c] for c in ("best_reward", "episodes", "nodes", "reflections")] == [0] * 4


def test_the_printed_lines():
    report = RunReport(rows=sample_rows())
    assert task_line(report.rows[4]) == "e: fail reward=0.666667 episodes=4 proposals=15 (budget_exhausted)"
    assert report.group_lines() == [
        "game24/best_of_k: 0/1 solved (0.0%), mean reward 0.500",
        "game24/mcts: 2/3 solved (66.7%), mean reward 0.667",
        "shop/mcts: 0/1 solved (0.0%), mean reward 0.667",
    ]
    assert report.group_lines(episodes=True)[1] == (
        "game24/mcts: 2/3 solved (66.7%), mean reward 0.667, mean episodes 12.0"
    )


def test_rewards_are_summed_in_row_order():
    """One float at a time from 0.0, as every Python version adds them."""
    report = RunReport(rows=[row(str(i), reward=0.1) for i in range(10)])
    total = 0.0
    for _ in range(10):
        total += 0.1
    assert total != 1.0
    assert report.aggregate()["game24/mcts"]["mean_best_reward"] == total / 10


def test_read_merges_files_in_order(tmp_path):
    paths = []
    for name, rows in (("one", sample_rows()[:2]), ("two", sample_rows()[2:])):
        paths.append(tmp_path / f"{name}.json")
        RunReport(rows=rows).write_json(paths[-1])
    merged = RunReport.read(paths)
    assert merged.rows == sample_rows()
    assert merged.to_json() == RunReport(rows=sample_rows()).to_json()


@pytest.mark.parametrize("field", ["kind", "variant", "success", "best_reward", "episodes", "policy_proposals"])
def test_read_names_the_file_and_a_missing_field(tmp_path, field):
    bad = row("b")
    del bad[field]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": [row("a"), bad]}))
    with pytest.raises(ValueError) as raised:
        RunReport.read([path])
    assert str(raised.value) == f"report {path} has a malformed row: {field} is missing"


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("kind", 5, "5 has the wrong type"),
        ("variant", None, "None has the wrong type"),
        ("success", 1, "1 has the wrong type"),
        ("episodes", "3", "'3' has the wrong type"),
        ("best_reward", float("nan"), "nan is not finite"),
        ("policy_proposals", 10**400, f"{10**400} is not finite"),
    ],
)
def test_read_names_the_file_and_a_bad_field(tmp_path, field, value, problem):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": [dict(row("a"), **{field: value})]}))
    with pytest.raises(ValueError) as raised:
        RunReport.read([path])
    assert str(raised.value) == f"report {path} has a malformed row: {field} {problem}"


def test_read_names_an_unreadable_or_rowless_file(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ValueError, match=f"cannot read report {missing}: "):
        RunReport.read([missing])
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    with pytest.raises(ValueError, match=f"report {listed} must hold an object with a 'rows' list"):
        RunReport.read([listed])
    empty = tmp_path / "empty.json"
    empty.write_text('{"rows": []}')
    with pytest.raises(ValueError, match="reports contain no rows"):
        RunReport.read([empty])
