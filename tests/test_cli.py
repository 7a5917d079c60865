"""CLI tests: spec parsing, config files, and end-to-end subcommands."""

import dataclasses
import json
import re
import shlex

import pytest

from agentsearch.backends import (
    Game24PolicyOracle,
    Game24ValueOracle,
    HttpChatBackend,
    ScriptedBackend,
)
from agentsearch.cli import (
    CliError,
    build_config,
    build_parser,
    main,
    parse_backend_spec,
    read_config_file,
)
from agentsearch.search import SearchConfig
from agentsearch.trace import read_trace, write_trace

from helpers import DATA_DIR


# ---------------------------------------------------------------------------
# backend specs


def test_parse_oracle_specs():
    policy = parse_backend_spec("oracle:p=0.3,seed=7")
    assert isinstance(policy, Game24PolicyOracle)
    assert policy.p_correct == 0.3 and policy.seed == 7
    value = parse_backend_spec("oracle-value:accuracy=0.85,seed=2")
    assert isinstance(value, Game24ValueOracle)
    assert value.accuracy == 0.85 and value.seed == 2
    assert parse_backend_spec("oracle:").p_correct == 1.0


def test_parse_static_and_script_specs(tmp_path):
    static = parse_backend_spec("static:the correctness score is 8")
    assert static.propose("anything", 2, 0) == ["the correctness score is 8"] * 2
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [{"contains": "x", "responses": ["y"]}]}))
    scripted = parse_backend_spec(f"script:{rules}")
    assert isinstance(scripted, ScriptedBackend)
    assert scripted.propose("x", 1, 0) == ["y"]


def test_parse_http_spec():
    backend = parse_backend_spec("http:http://localhost:9999/v1,model=m1,temperature=0.2")
    assert isinstance(backend, HttpChatBackend)
    assert backend.endpoint == "http://localhost:9999/v1"
    assert backend.model == "m1"
    assert backend.temperature == 0.2


def test_bad_specs_raise_cli_error():
    for spec in (
        "nocolon",
        "mystery:whatever",
        "oracle:p=high",
        "http:http://h,temperature=0.2",  # missing model
        "script:/nonexistent/rules.json",
    ):
        with pytest.raises(CliError):
            parse_backend_spec(spec)


# ---------------------------------------------------------------------------
# config files and flags


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "n = 3\n"
        "k=12\n"
        "depth_limit = 6\n"
        "w = 0.5\n"
        "lam = 0.25\n"
        "value_mode = sc_only\n"
        "reflection_enabled = false\n"
        "reflection_limit = 2\n"
        "skip_simulation = yes\n"
        "variant = best_of_k\n"
        "prune_threshold = 0.3\n"
        "prompt_style = reasoning\n"
        "inject_trajectories_into_agent_prompts = on\n"
        "seed = 9\n"
        "\n"
    )
    values = read_config_file(cfg)
    assert values == {
        "n": 3,
        "k": 12,
        "depth_limit": 6,
        "w": 0.5,
        "lam": 0.25,
        "value_mode": "sc_only",
        "reflection_enabled": False,
        "reflection_limit": 2,
        "skip_simulation": True,
        "variant": "best_of_k",
        "prune_threshold": 0.3,
        "prompt_style": "reasoning",
        "inject_trajectories_into_agent_prompts": True,
        "seed": 9,
    }
    assert [type(v) for v in values.values()] == [
        int, int, int, float, float, str, bool, int, bool, str, float, str, bool, int
    ]
    assert set(values) == {f.name for f in dataclasses.fields(SearchConfig)}


def test_every_config_flag_reaches_its_field():
    args = build_parser().parse_args(
        [
            "run",
            "t.json",
            "--backend",
            "static:x",
            "--n",
            "3",
            "--k",
            "7",
            "--depth",
            "4",
            "--w",
            "0.5",
            "--lam",
            "0.2",
            "--value-mode",
            "sc_only",
            "--no-reflection",
            "--reflection-limit",
            "2",
            "--skip-simulation",
            "--variant",
            "greedy_retry",
            "--prune-threshold",
            "0.3",
            "--prompt-style",
            "reasoning",
            "--inject-trajectories",
            "--seed",
            "11",
        ]
    )
    assert build_config(args) == SearchConfig(
        n=3,
        k=7,
        depth_limit=4,
        w=0.5,
        lam=0.2,
        value_mode="sc_only",
        reflection_enabled=False,
        reflection_limit=2,
        skip_simulation=True,
        variant="greedy_retry",
        prune_threshold=0.3,
        prompt_style="reasoning",
        inject_trajectories_into_agent_prompts=True,
        seed=11,
    )
    defaults = build_parser().parse_args(["run", "t.json", "--backend", "static:x"])
    assert build_config(defaults) == SearchConfig()


def test_read_config_file_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("does_not_exist = 1\n")
    with pytest.raises(CliError, match="unknown config key"):
        read_config_file(cfg)
    cfg.write_text("just some words\n")
    with pytest.raises(CliError, match="expected key=value"):
        read_config_file(cfg)
    cfg.write_text("reflection_enabled = maybe\n")
    with pytest.raises(CliError, match="boolean"):
        read_config_file(cfg)
    with pytest.raises(CliError, match="cannot read"):
        read_config_file(tmp_path / "missing.cfg")


def write_game24_task(path, numbers):
    path.write_text(
        json.dumps(
            {
                "kind": "game24",
                "task_id": path.stem,
                "payload": {"numbers": numbers},
            }
        )
    )


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 1\nn = 1\nseed = 0\n")
    task = tmp_path / "t1.json"
    write_game24_task(task, [4, 9, 10, 13])
    # with k=1,n=1 and p=0, this fails; the --k/--n flags make it solvable
    code = main(
        [
            "run",
            str(task),
            "--backend",
            "oracle:p=1.0,seed=1",
            "--value-backend",
            "oracle-value:accuracy=1.0",
            "--config",
            str(cfg),
            "--k",
            "5",
            "--n",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "t1: ok" in out
    assert "game24/mcts: 1/1 solved (100.0%)" in out


# ---------------------------------------------------------------------------
# subcommands end to end


def test_run_writes_traces_and_reports(tmp_path, capsys):
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    write_game24_task(task_dir / "a.json", [4, 9, 10, 13])
    write_game24_task(task_dir / "b.json", [1, 4, 6, 9])
    out_dir = tmp_path / "out"
    code = main(
        [
            "run",
            str(task_dir),
            "--backend",
            "oracle:p=1.0,seed=1",
            "--value-backend",
            "oracle-value:accuracy=1.0",
            "--k",
            "5",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["aggregate"]["game24/mcts"]["successes"] == 2
    assert {row["task_id"] for row in report["rows"]} == {"a", "b"}
    assert (out_dir / "report.csv").exists()
    for tid in ("a", "b"):
        assert (out_dir / f"{tid}.trace.jsonl").exists()
        assert (out_dir / f"{tid}.tree.jsonl").exists()

    # the written traces replay cleanly
    code = main(["replay", str(out_dir / "a.trace.jsonl"), str(out_dir / "b.trace.jsonl")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("OK ") >= 2


def test_run_limit_and_workers(tmp_path, capsys):
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    for i, nums in enumerate([[4, 9, 10, 13], [1, 4, 6, 9], [3, 3, 8, 8]]):
        write_game24_task(task_dir / f"t{i}.json", nums)
    code = main(
        [
            "run",
            str(task_dir),
            "--backend",
            "oracle:p=1.0,seed=1",
            "--value-backend",
            "oracle-value:accuracy=1.0",
            "--limit",
            "2",
            "--workers",
            "2",
            "--k",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "t0: ok" in out and "t1: ok" in out and "t2" not in out


@pytest.mark.parametrize(
    "flags", [["--limit", "0"], ["--limit", "-1"], ["--workers", "0"], ["--w", "nan"], ["--w", "inf"]]
)
def test_run_rejects_bad_run_flags_before_any_task(tmp_path, capsys, flags):
    task = tmp_path / "t.json"
    write_game24_task(task, [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    argv = ["run", str(task), "--backend", "oracle:p=0.1,seed=1", "--out", str(out_dir)]
    assert main(argv + flags) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_rejects_malformed_rule_file_before_any_task(tmp_path, capsys):
    task = tmp_path / "t.json"
    write_game24_task(task, [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    for spec in ([], {"rules": [{"pattern": "(", "responses": ["think[x]"]}]}):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(spec))
        argv = ["run", str(task), "--backend", f"script:{rules}", "--out", str(out_dir)]
        assert main(argv) == 2
        assert "bad backend spec" in capsys.readouterr().err
        assert not out_dir.exists()


def test_run_finishes_batch_past_a_malformed_task(tmp_path, capsys):
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    write_game24_task(task_dir / "a.json", [4, 9, 10, 13])
    write_game24_task(task_dir / "b.json", ["x"])
    write_game24_task(task_dir / "c.json", [1, 4, 6, 9])
    out_dir = tmp_path / "out"
    code = main(
        [
            "run",
            str(task_dir),
            "--backend",
            "oracle:p=1.0,seed=1",
            "--value-backend",
            "oracle-value:accuracy=1.0",
            "--k",
            "5",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "a: ok" in captured.out and "c: ok" in captured.out
    assert "b: fail reward=0 episodes=0 proposals=0 (task_error)" in captured.out
    assert "error: b:" in captured.err
    report = json.loads((out_dir / "report.json").read_text())
    rows = {row["task_id"]: row for row in report["rows"]}
    assert sorted(rows) == ["a", "b", "c"]
    bad = rows["b"]
    assert bad["kind"] == "game24" and bad["variant"] == "mcts"
    assert bad["success"] is False and bad["best_reward"] == 0
    assert bad["terminate_reason"] == "task_error" and bad["error"]
    assert all(bad[c] == 0 for c in ("episodes", "nodes", "policy_calls", "value_calls"))
    agg = report["aggregate"]["game24/mcts"]
    assert agg["tasks"] == 3 and agg["successes"] == 2
    assert (out_dir / "report.csv").read_text().count("\n") == 4
    assert (out_dir / "c.trace.jsonl").exists() and not (out_dir / "b.trace.jsonl").exists()



def test_run_finishes_batch_past_an_unknown_kind(tmp_path, capsys):
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    (task_dir / "a.json").write_text(json.dumps({"kind": "bogus", "payload": {}}))
    write_game24_task(task_dir / "b.json", [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    code = main(["run", str(task_dir), "--backend", "oracle:p=1.0,seed=1", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "b: ok" in captured.out
    assert "error: a:" in captured.err and "bogus" in captured.err
    rows = {row["task_id"]: row for row in json.loads((out_dir / "report.json").read_text())["rows"]}
    assert rows["a"]["terminate_reason"] == "task_error" and rows["a"]["kind"] == "unknown"
    assert rows["b"]["success"] is True

@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_gives_task_error_row_to_a_repeated_task_id(tmp_path, capsys, workers):
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    for name, numbers in [("a", [1, 1, 1, 1]), ("b", [4, 9, 10, 13]), ("c", [1, 4, 6, 9])]:
        task = {"kind": "game24", "task_id": "same" if name != "c" else "c"}
        (task_dir / f"{name}.json").write_text(json.dumps({**task, "payload": {"numbers": numbers}}))
    argv = ["--backend", "oracle:p=0.5,seed=1", "--reflection-backend", "static:retry", "--k", "3"]
    argv += ["--workers", workers]
    assert main(["run", str(task_dir / "a.json"), "--out", str(tmp_path / "alone")] + argv) == 0
    out_dir = tmp_path / "out"
    assert main(["run", str(task_dir), "--out", str(out_dir)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out.count("same: ") == 3  # a alone, then a and b
    assert f"error: same: task_id 'same' is already used by {task_dir / 'a.json'}" in captured.err
    rows = json.loads((out_dir / "report.json").read_text())["rows"]
    assert [(r["task_id"], r["terminate_reason"] == "task_error") for r in rows] == [
        ("c", False),
        ("same", False),
        ("same", True),
    ]
    assert "a.json" in rows[2]["error"] and rows[2]["kind"] == "game24"
    for name in ("same.trace.jsonl", "same.tree.jsonl", "same.reflections.jsonl"):
        assert (out_dir / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


@pytest.mark.parametrize("task_id", ["sub/x", "nul\0byte", "../escaped"])
def test_run_gives_task_error_row_for_a_task_id_that_is_no_file_name(tmp_path, capsys, task_id):
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    task = {"kind": "game24", "task_id": task_id, "payload": {"numbers": [4, 9, 10, 13]}}
    (task_dir / "a.json").write_text(json.dumps(task))
    write_game24_task(task_dir / "b.json", [4, 9, 10, 13])
    out_dir = tmp_path / "runs" / "out"
    code = main(["run", str(task_dir), "--backend", "oracle:p=1.0,seed=1", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "b: ok" in captured.out and "error: a:" in captured.err
    rows = {row["task_id"]: row for row in json.loads((out_dir / "report.json").read_text())["rows"]}
    assert rows["a"]["terminate_reason"] == "task_error" and "task_id" in rows["a"]["error"]
    assert rows["b"]["success"] is True
    assert sorted(path.name for path in tmp_path.iterdir()) == ["runs", "tasks"]
    assert [path.name for path in (tmp_path / "runs").iterdir()] == ["out"]
    written = sorted(path.name for path in out_dir.iterdir())
    assert written == ["b.trace.jsonl", "b.tree.jsonl", "report.csv", "report.json"]


def test_run_rejects_an_out_path_naming_a_file_before_any_search(tmp_path, capsys):
    task = tmp_path / "t.json"
    write_game24_task(task, [4, 9, 10, 13])
    out = tmp_path / "out"
    out.write_text("not a directory")
    assert main(["run", str(task), "--backend", "oracle:p=1.0,seed=1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot make output directory")
    assert captured.out == ""
    assert out.read_text() == "not a directory"


def test_readme_run_example_prints_its_lines_and_stores_reflections(tmp_path, capsys, monkeypatch):
    root = DATA_DIR.parents[2]
    readme = (root / "README.md").read_text()
    command, printed = re.search(
        r"```bash\n(agentsearch run .*?)```\n\n```\n(.*?)```", readme, re.DOTALL
    ).groups()
    argv = shlex.split(command.replace("\\\n", " "))[1:]
    argv[argv.index("--out") + 1] = str(tmp_path / "demo")
    monkeypatch.chdir(root)
    assert main(argv) == 0
    assert capsys.readouterr().out == printed
    rows = json.loads((tmp_path / "demo" / "report.json").read_text())["rows"]
    assert all(row["reflections"] == row["reflection_calls"] for row in rows)
    assert [row["reflections"] for row in rows] == [4, 0, 4]


def test_run_gives_task_error_row_for_an_infinite_game24_number(tmp_path, capsys):
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    write_game24_task(task_dir / "a.json", [float("inf"), 1, 2, 3])  # written as Infinity
    write_game24_task(task_dir / "b.json", [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    code = main(["run", str(task_dir), "--backend", "oracle:p=1.0,seed=1", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "b: ok" in captured.out and "error: a:" in captured.err
    rows = {row["task_id"]: row for row in json.loads((out_dir / "report.json").read_text())["rows"]}
    assert rows["a"]["terminate_reason"] == "task_error" and rows["a"]["kind"] == "game24"
    assert rows["b"]["success"] is True


def assert_unreadable_json_gives_task_error_rows(tmp_path, capsys, bad_task, bad_corpus):
    """Task a's file and task c's corpus_file hold the given texts; the two
    get task_error rows, and task b beside them still runs."""
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    (task_dir / "a.json").write_text(bad_task)
    (tmp_path / "corpus.json").write_text(bad_corpus)
    (task_dir / "c.json").write_text(
        json.dumps(
            {
                "kind": "docqa",
                "payload": {"question": "q", "answer": "a", "corpus_file": "../corpus.json"},
            }
        )
    )
    write_game24_task(task_dir / "b.json", [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    code = main(["run", str(task_dir), "--backend", "oracle:p=1.0,seed=1", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: a: cannot read task file" in captured.err
    assert "error: c: cannot read corpus_file" in captured.err
    rows = {row["task_id"]: row for row in json.loads((out_dir / "report.json").read_text())["rows"]}
    assert rows["a"]["terminate_reason"] == rows["c"]["terminate_reason"] == "task_error"
    assert rows["b"]["success"] is True


def test_run_gives_task_error_rows_for_over_long_integers(tmp_path, capsys):
    # json.loads refuses an integer of over 4,300 digits with a plain ValueError.
    huge = "9" * 5000
    assert_unreadable_json_gives_task_error_rows(
        tmp_path,
        capsys,
        '{"kind": "game24", "payload": {"numbers": [%s, 1, 2, 3]}}' % huge,
        '{"Page": [%s]}' % huge,
    )


# json.loads raises RecursionError, not a ValueError, on input nested this deeply.
TOO_DEEP = "[" * 100_000


def test_run_gives_task_error_rows_for_too_deeply_nested_json(tmp_path, capsys):
    assert_unreadable_json_gives_task_error_rows(tmp_path, capsys, TOO_DEEP, TOO_DEEP)


def test_run_rejects_a_too_deeply_nested_script_file(tmp_path, capsys):
    task = tmp_path / "t.json"
    write_game24_task(task, [4, 9, 10, 13])
    rules = tmp_path / "rules.json"
    rules.write_text(TOO_DEEP)
    assert main(["run", str(task), "--backend", f"script:{rules}"]) == 2
    assert "bad backend spec" in capsys.readouterr().err


def test_run_scores_solution_candidates_it_cannot_evaluate(tmp_path, capsys):
    out_dir = tmp_path / "out"
    tasks = DATA_DIR / "solution" / "tasks"
    code = main(["run", str(tasks), "--backend", "static:submit[\u00b2]", "--out", str(out_dir)])
    assert code == 0
    rows = json.loads((out_dir / "report.json").read_text())["rows"]
    assert len(rows) == len(list(tasks.glob("*.json")))
    assert all(row["best_reward"] == 0.0 and "error" not in row for row in rows)


def test_run_gives_task_error_row_for_a_string_where_shop_wants_a_list(tmp_path, capsys):
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    payload = {
        "instruction": "i want wool socks",
        "attributes": "wool",
        "price_cap": 10.0,
        "catalog": [{"id": "P1", "title": "Wool socks", "price": 5.0, "attributes": ["wool"]}],
    }
    (task_dir / "a.json").write_text(json.dumps({"kind": "shop", "payload": payload}))
    write_game24_task(task_dir / "b.json", [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    code = main(["run", str(task_dir), "--backend", "oracle:p=1.0,seed=1", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: a:" in captured.err and "task attributes must be a list" in captured.err
    rows = {row["task_id"]: row for row in json.loads((out_dir / "report.json").read_text())["rows"]}
    assert rows["a"]["terminate_reason"] == "task_error" and rows["a"]["kind"] == "shop"
    assert rows["b"]["success"] is True


def test_run_gives_task_error_rows_for_missing_templates(tmp_path, capsys):
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    write_game24_task(task_dir / "a.json", [4, 9, 10, 13])
    write_game24_task(task_dir / "b.json", [1, 4, 6, 9])
    empty = tmp_path / "templates"
    empty.mkdir()
    out_dir = tmp_path / "out"
    argv = ["run", str(task_dir), "--backend", "oracle:p=1.0,seed=1", "--templates", str(empty)]
    code = main(argv + ["--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: a: game24 act template:" in captured.err
    rows = json.loads((out_dir / "report.json").read_text())["rows"]
    assert [(r["task_id"], r["terminate_reason"]) for r in rows] == [
        ("a", "task_error"),
        ("b", "task_error"),
    ]


def test_replay_detects_corruption(tmp_path, capsys):
    task = tmp_path / "t.json"
    write_game24_task(task, [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    main(
        [
            "run",
            str(task),
            "--backend",
            "oracle:p=1.0,seed=1",
            "--value-backend",
            "oracle-value:accuracy=1.0",
            "--out",
            str(out_dir),
        ]
    )
    capsys.readouterr()
    trace_path = out_dir / "t.trace.jsonl"
    events = read_trace(trace_path)
    for entry in events[-1]["node_stats"]:
        if entry["visits"]:
            entry["value"] += 0.5
    write_trace(events, trace_path)
    code = main(["replay", str(trace_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_replay_reports_malformed_files_and_checks_the_rest(tmp_path, capsys):
    task = tmp_path / "t.json"
    write_game24_task(task, [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    main(["run", str(task), "--backend", "oracle:p=1.0,seed=1", "--out", str(out_dir)])
    capsys.readouterr()
    not_object = tmp_path / "list.jsonl"
    not_object.write_text("[1,2]\n")
    bad_children = tmp_path / "children.jsonl"
    bad_children.write_text('{"seq":0,"type":"expand","children":5}\n')
    good = out_dir / "t.trace.jsonl"
    assert main(["replay", str(not_object), str(bad_children), str(good)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["FAIL", "FAIL", "OK"]


@pytest.mark.parametrize(
    "payload",
    [[], {"rows": 5}, {"rows": [3]}, {"rows": [{"kind": "game24", "success": True}]}],
)
def test_report_rejects_malformed_file(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["report", str(path)]) == 2
    assert f"report {path}" in capsys.readouterr().err


def test_report_rejects_an_over_long_integer(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": [{"episodes": %s}]}' % ("9" * 5000))
    assert main(["report", str(path)]) == 2
    assert f"cannot read report {path}" in capsys.readouterr().err


def test_report_rejects_too_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(TOO_DEEP)
    assert main(["report", str(path)]) == 2
    assert f"cannot read report {path}" in capsys.readouterr().err


def test_replay_fails_a_too_deeply_nested_trace_and_checks_the_rest(tmp_path, capsys):
    task = tmp_path / "t.json"
    write_game24_task(task, [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    main(["run", str(task), "--backend", "oracle:p=1.0,seed=1", "--out", str(out_dir)])
    capsys.readouterr()
    deep = tmp_path / "deep.jsonl"
    deep.write_text(TOO_DEEP + "\n")
    assert main(["replay", str(deep), str(out_dir / "t.trace.jsonl")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["FAIL", "OK"]
    assert "nested too deeply" in lines[0]


def test_report_merges_files(tmp_path, capsys):
    row = {
        "task_id": "x",
        "kind": "game24",
        "variant": "mcts",
        "success": True,
        "best_reward": 1.0,
        "episodes": 2,
        "expansions": 4,
        "nodes": 9,
        "policy_calls": 4,
        "policy_proposals": 20,
        "value_calls": 8,
        "reflection_calls": 1,
        "reflections": 1,
        "terminate_reason": "success",
    }
    other = dict(row, task_id="y", success=False, best_reward=0.0, terminate_reason="budget")
    (tmp_path / "r1.json").write_text(json.dumps({"rows": [row]}))
    (tmp_path / "r2.json").write_text(json.dumps({"rows": [other]}))
    merged_csv = tmp_path / "merged.csv"
    code = main(
        [
            "report",
            str(tmp_path / "r1.json"),
            str(tmp_path / "r2.json"),
            "--csv",
            str(merged_csv),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "game24/mcts: 1/2 solved (50.0%)" in out
    assert merged_csv.read_text().count("\n") == 3  # header + 2 rows


def test_oracle24_subcommand(capsys):
    assert main(["oracle24", "4", "9", "10", "13"]) == 0
    out = capsys.readouterr().out
    assert "solvable: yes" in out
    assert main(["oracle24", "1", "1", "1", "1"]) == 0
    assert "solvable: no" in capsys.readouterr().out
    assert main(["oracle24", "not-a-number"]) == 2


def test_oracle24_rejects_a_negative_max_solutions(capsys):
    assert main(["oracle24", "4", "7", "8", "8", "--max-solutions", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--max-solutions" in captured.err
    assert captured.out == ""
    assert main(["oracle24", "4", "7", "8", "8", "--max-solutions", "0"]) == 0
    assert capsys.readouterr().out == "numbers: 4 7 8 8\nsolvable: yes\n  ... and 8 more\n"


@pytest.mark.parametrize(
    "numbers, expected",
    [
        (
            ["3", "3", "8", "8"],
            "numbers: 3 3 8 8\n"
            "solvable: yes\n"
            "  8 / 3 ; 3 - 8/3 ; 8 / 1/3\n",
        ),
        (
            ["4/2", "6", "-3", "1"],
            "numbers: 2 6 -3 1\n"
            "solvable: yes\n"
            "  -3 + 1 ; 2 - -2 ; 4 * 6\n"
            "  2 - -3 ; 5 - 1 ; 4 * 6\n"
            "  2 - 1 ; 1 - -3 ; 4 * 6\n",
        ),
        (
            ["-1", "5/3", "7", "2"],
            "numbers: -1 5/3 7 2\n"
            "solvable: yes\n"
            "  2 + 7 ; 5/3 - -1 ; 8/3 * 9\n"
            "  -1 - 7 ; 5/3 - 2 ; -8 / -1/3\n"
            "  5/3 - -1 ; 2 + 7 ; 8/3 * 9\n"
            "  5/3 - 2 ; -1 - 7 ; -8 / -1/3\n"
            "  2 - 5/3 ; 7 - -1 ; 8 / 1/3\n"
            "  ... and 1 more\n",
        ),
    ],
    ids=["3-3-8-8", "normalised", "negative-fractions"],
)
def test_oracle24_prints_numbers_and_steps_as_fractions_do(capsys, numbers, expected):
    # recorded when the solver computed on fractions.Fraction
    assert main(["oracle24", *numbers]) == 0
    assert capsys.readouterr().out == expected


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    task = tmp_path / "t.json"
    write_game24_task(task, [4, 9, 10, 13])
    assert main(["run", str(task), "--backend", "bogus:spec"]) == 2
    assert main(["run", str(tmp_path / "missing.json"), "--backend", "oracle:p=1"]) == 2
    assert main(["run", str(task), "--backend", "oracle:p=1", "--k", "0"]) == 2
    bad_task = tmp_path / "bad.json"
    bad_task.write_text("{not json")
    out_dir = tmp_path / "out"
    assert main(["run", str(bad_task), "--backend", "oracle:p=1", "--out", str(out_dir)]) == 2
    (row,) = json.loads((out_dir / "report.json").read_text())["rows"]
    assert row["task_id"] == "bad" and row["kind"] == "unknown"
    assert "cannot read task file" in row["error"]
    capsys.readouterr()


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
