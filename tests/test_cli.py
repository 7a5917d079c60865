"""CLI tests: spec parsing, config files, and end-to-end subcommands."""

import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading

import pytest
import requests

from agentsearch import cli, search, valuation
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

from helpers import DATA_DIR, SlowBackend, bundled_task_files


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


@pytest.mark.parametrize(
    "spec, key",
    [
        ("oracle-value:acuracy=0.5", "acuracy"),
        ("oracle:p=0.3,sed=1", "sed"),
        ("oracle:accuracy=0.9", "accuracy"),
        ("oracle-value:p=0.9", "p"),
        ("http:http://h,model=m,temprature=0.2", "temprature"),
    ],
)
def test_a_spec_key_its_type_does_not_take_is_an_error(spec, key):
    """A typo in a key used to leave its default in place without a word."""
    with pytest.raises(CliError, match=f"unknown key '{key}'"):
        parse_backend_spec(spec)


def test_run_with_an_unknown_spec_key_exits_2_before_any_search(tmp_path, capsys):
    task = tmp_path / "t.json"
    write_game24_task(task, [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    code = main(["run", str(task), "--backend", "oracle:p=1.0,seed=1",
                 "--value-backend", "oracle-value:acuracy=0.5", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown key 'acuracy'" in captured.err
    assert not out_dir.exists()


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
    with open(out_dir / "report.csv", newline="") as fh:
        csv_rows = {row["task_id"]: row for row in csv.DictReader(fh)}
    assert {key: row["error"] for key, row in csv_rows.items()} == {
        "a": "",
        "b": bad["error"],
        "c": "",
    }
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


def readme_run_example(out_dir, monkeypatch):
    """The README's `agentsearch run` argv, writing to out_dir, and the
    lines it says the run prints; the working directory is the repo root."""
    root = DATA_DIR.parents[2]
    readme = (root / "README.md").read_text()
    command, printed = re.search(
        r"```bash\n(agentsearch run .*?)```\n\n```\n(.*?)```", readme, re.DOTALL
    ).groups()
    argv = shlex.split(command.replace("\\\n", " "))[1:]
    argv[argv.index("--out") + 1] = str(out_dir)
    monkeypatch.chdir(root)
    return argv, printed


def test_readme_python_api_example_runs():
    root = DATA_DIR.parents[2]
    (code,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.DOTALL)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("True")


def test_readme_run_example_prints_its_lines_and_stores_reflections(tmp_path, capsys, monkeypatch):
    argv, printed = readme_run_example(tmp_path / "demo", monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == printed
    rows = json.loads((tmp_path / "demo" / "report.json").read_text())["rows"]
    assert all(row["reflections"] == row["reflection_calls"] for row in rows)
    assert [row["reflections"] for row in rows] == [4, 0, 4]


def test_rerun_without_reflections_removes_the_earlier_reflection_files(tmp_path, monkeypatch):
    out_dir = tmp_path / "demo"
    argv, _ = readme_run_example(out_dir, monkeypatch)
    assert main(argv) == 0
    stored = sorted(path.name for path in out_dir.glob("*.reflections.jsonl"))
    assert stored == ["24-1-1-3-13.reflections.jsonl", "24-1-10-11-12.reflections.jsonl"]
    assert main(argv + ["--no-reflection"]) == 0
    rows = json.loads((out_dir / "report.json").read_text())["rows"]
    assert [row["reflections"] for row in rows] == [0, 0, 0]
    assert list(out_dir.glob("*.reflections.jsonl")) == []
    assert len(list(out_dir.glob("*.trace.jsonl"))) == 3


def puzzle_batch_argv(out_dir) -> list:
    """`run` over the first three bundled puzzles into out_dir."""
    return [
        "run",
        str(DATA_DIR / "game24" / "puzzles"),
        "--limit",
        "3",
        "--backend",
        "oracle:p=0.9,seed=1",
        "--value-backend",
        "oracle-value:accuracy=0.9",
        "--out",
        str(out_dir),
    ]


@pytest.mark.parametrize("output", ["trace", "tree", "reflections"])
def test_run_finishes_batch_past_an_output_file_it_cannot_write(tmp_path, capsys, output):
    out_dir = tmp_path / "out"
    (out_dir / f"24-1-1-3-13.{output}.jsonl").mkdir(parents=True)
    assert main(puzzle_batch_argv(out_dir)) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "error: 24-1-1-3-13: cannot write its output:" in captured.err
    rows = json.loads((out_dir / "report.json").read_text())["rows"]
    assert [row["task_id"] for row in rows] == ["24-1-1-3-13", "24-1-1-4-9", "24-1-10-11-12"]
    bad, *good = rows
    assert "Is a directory" in bad["error"]
    # The search ran, and its row says what it found.
    assert bad["terminate_reason"] != "task_error" and bad["nodes"] > 1
    assert all("error" not in row for row in good)
    for row in good:
        assert (out_dir / f"{row['task_id']}.trace.jsonl").is_file()


def no_search(*args):
    raise AssertionError("a search ran")


@pytest.mark.parametrize("name", ["report.json", "report.csv", "read-only"])
def test_run_reports_a_report_file_it_cannot_write(tmp_path, capsys, monkeypatch, name):
    out_dir = tmp_path / "out"
    if name == "read-only":
        out_dir.mkdir()

        def read_only(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(tempfile, "TemporaryFile", read_only)
    else:
        (out_dir / name).mkdir(parents=True)
    monkeypatch.setattr(cli, "run_search", no_search)
    assert main(puzzle_batch_argv(out_dir)) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: cannot write report:")
    assert captured.out == ""
    assert list(out_dir.glob("*.jsonl")) == []


def test_a_rerun_whose_writes_fail_leaves_the_earlier_files_whole(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "demo"
    argv, _ = readme_run_example(out_dir, monkeypatch)
    assert main(argv) == 0
    earlier = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert any(name.endswith(".reflections.jsonl") for name in earlier)

    def full_disk(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    assert main(argv + ["--log-prompts"]) == 2  # traces that would differ
    assert "error: cannot write report:" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == earlier


def task_files(out_dir) -> dict:
    """{task_id: {file name: bytes}} for the task files in out_dir."""
    found = {}
    for path in out_dir.glob("*.jsonl"):
        found.setdefault(path.name.split(".")[0], {})[path.name] = path.read_bytes()
    return found


@pytest.mark.parametrize("failing", ["trace", "tree", "reflections"])
def test_a_rerun_whose_rename_fails_leaves_no_task_mixing_two_runs(
    tmp_path, capsys, monkeypatch, failing
):
    argv, _ = readme_run_example(tmp_path / "clean", monkeypatch)
    assert main(argv + ["--seed", "5"]) == 0
    second = task_files(tmp_path / "clean")
    # the seed-5 run stores reflections for one task and none for another
    assert "24-1-10-11-12.reflections.jsonl" in second["24-1-10-11-12"]
    assert "24-1-1-3-13.reflections.jsonl" not in second["24-1-1-3-13"]
    out_dir = tmp_path / "demo"
    argv, _ = readme_run_example(out_dir, monkeypatch)
    assert main(argv) == 0
    first = task_files(out_dir)
    replace = os.replace

    def full_disk_for_one_kind(src, dst):
        if str(dst).endswith(f".{failing}.jsonl"):
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", full_disk_for_one_kind)
    assert main(argv + ["--seed", "5"]) == 2
    assert "cannot write its output" in capsys.readouterr().err
    left = task_files(out_dir)
    for task_id in first:
        if failing == "trace":  # the first rename failed: the earlier set stands
            expected = first[task_id]
        elif f"{task_id}.{failing}.jsonl" in second[task_id]:  # failed part-way
            expected = None
        else:  # the set needed no rename of that kind
            expected = second[task_id]
        assert left.get(task_id) == expected, task_id
    assert not list(out_dir.glob("*.tmp"))


def test_a_run_reads_and_writes_utf8_whatever_the_locale(tmp_path):
    ascii_env = dict(os.environ, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="C")
    probe = [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"]
    encoding = subprocess.run(probe, env=ascii_env, capture_output=True, text=True).stdout
    if "utf" in encoding.lower():
        pytest.skip(f"the C locale here still prefers {encoding.strip()}")
    task = json.loads((DATA_DIR / "game24" / "puzzles" / "24-1-1-3-13.json").read_text())
    task.update(task_id="cafe", metadata={"note": "caf\u00e9"})
    (tmp_path / "tasks").mkdir()
    (tmp_path / "tasks" / "cafe.json").write_text(json.dumps(task, ensure_ascii=False), "utf-8")
    traces = []
    for name, env in (("utf8", dict(ascii_env, PYTHONUTF8="1")), ("ascii", ascii_env)):
        out_dir = tmp_path / name
        command = [sys.executable, "-m", "agentsearch.cli", "run", str(tmp_path / "tasks")]
        command += ["--backend", "oracle:p=0.5,seed=1", "--out", str(out_dir)]
        env["PYTHONPATH"] = str(DATA_DIR.parents[1])  # the package's src directory
        done = subprocess.run(command, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        traces.append((out_dir / "cafe.trace.jsonl").read_bytes())
    assert traces[0] == traces[1]


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


def test_run_gives_task_error_rows_for_a_malformed_payload_and_file_reference(tmp_path, capsys):
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    (task_dir / "a.json").write_text(json.dumps({"kind": "game24", "payload": [1, 2]}))
    (task_dir / "c.json").write_text(json.dumps({"kind": "docqa", "payload": {"corpus_file": 3}}))
    write_game24_task(task_dir / "b.json", [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    code = main(["run", str(task_dir), "--backend", "oracle:p=1.0,seed=1", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "b: ok" in captured.out
    assert "error: a:" in captured.err and "error: c:" in captured.err
    rows = {row["task_id"]: row for row in json.loads((out_dir / "report.json").read_text())["rows"]}
    assert rows["a"]["terminate_reason"] == rows["c"]["terminate_reason"] == "task_error"
    assert rows["b"]["success"] is True


def test_run_gives_task_error_rows_for_game24_numbers_too_long_to_print(tmp_path, capsys):
    """1e5000 failed to print at reset, and 1e3000 * 1e3000 failed to print
    mid-search; either ended the batch with a traceback."""
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    write_game24_task(task_dir / "a.json", ["1e5000", 1, 2, 3])
    write_game24_task(task_dir / "b.json", ["1e3000", "1e3000", 1, 1])
    write_game24_task(task_dir / "c.json", [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    code = main(["run", str(task_dir), "--backend", "oracle:p=1.0,seed=1", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "c: ok" in captured.out and "error: a:" in captured.err and "error: b:" in captured.err
    assert "digits" in captured.err and "Traceback" not in captured.err
    rows = {row["task_id"]: row for row in json.loads((out_dir / "report.json").read_text())["rows"]}
    assert [rows[t]["terminate_reason"] for t in "ab"] == ["task_error", "task_error"]
    assert rows["c"]["success"] is True


def run_cli(*argv, timeout=20):
    """The cli in a child process, which a regression that hangs cannot stall."""
    env = dict(os.environ, PYTHONPATH=str(DATA_DIR.parents[1]))  # the package's src directory
    command = [sys.executable, "-m", "agentsearch.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)


def test_a_huge_exponent_is_refused_before_it_is_computed(tmp_path):
    """1e99999999 made the parser compute 10**99999999, which ran for minutes."""
    task_dir = tmp_path / "tasks"
    task_dir.mkdir()
    solution = {"statement": "f(x) = x", "tests": [{"input": "1e99999999", "expected": 1}]}
    (task_dir / "a.json").write_text(json.dumps({"kind": "solution", "payload": solution}))
    write_game24_task(task_dir / "b.json", [4, 9, 10, 13])
    out_dir = tmp_path / "out"
    done = run_cli("run", str(task_dir), "--backend", "oracle:p=1.0,seed=1", "--out", str(out_dir))
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "error: a: malformed test row" in done.stderr and "b: ok" in done.stdout
    rows = {row["task_id"]: row for row in json.loads((out_dir / "report.json").read_text())["rows"]}
    assert rows["a"]["terminate_reason"] == "task_error" and rows["b"]["success"] is True
    done = run_cli("oracle24", "1e99999999", "2", "3", "4", timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: bad number: ") and "digits" in done.stderr


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
    assert rows[0]["error"] == rows[1]["error"]
    assert rows[0]["error"].startswith("game24 act template:")


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
    [[], {}, {"rows": 5}, {"rows": [3]}, {"rows": [{"kind": "game24", "success": True}]}],
)
def test_report_rejects_malformed_file(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["report", str(path)]) == 2
    assert f"report {path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("success", "false"),
        ("success", 0),
        ("best_reward", "0.5"),
        ("episodes", True),
        ("policy_proposals", None),
        ("best_reward", float("nan")),
        ("best_reward", float("inf")),
        ("best_reward", float("-inf")),
    ],
)
def test_report_rejects_a_row_whose_field_has_the_wrong_type(tmp_path, capsys, field, value):
    """A failed row whose success reads "false" was counted as solved, and a
    best_reward of NaN or Infinity printed a mean reward of nan or inf."""
    good = {"task_id": "x", "kind": "game24", "variant": "mcts", "success": False}
    good.update(best_reward=0.0, episodes=2, policy_proposals=20)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": [good, dict(good, task_id="y", **{field: value})]}))
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"report {path} has a malformed row" in captured.err and field in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_report_to_a_file_it_cannot_write_exits_2(tmp_path, capsys, flag):
    out_dir = tmp_path / "out"
    assert main(puzzle_batch_argv(out_dir)) == 0
    capsys.readouterr()
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["report", str(out_dir / "report.json"), flag, str(target)]) == 2
    captured = capsys.readouterr()
    assert "error: cannot write report:" in captured.err
    assert "Traceback" not in captured.err


def test_oracle24_subcommand(capsys):
    assert main(["oracle24", "4", "9", "10", "13"]) == 0
    out = capsys.readouterr().out
    assert "solvable: yes" in out
    assert main(["oracle24", "1", "1", "1", "1"]) == 0
    assert "solvable: no" in capsys.readouterr().out
    assert main(["oracle24", "not-a-number"]) == 2
    assert main(["oracle24", "1e3000", "1e3000", "1", "1"]) == 2  # 1e6000 would not print
    assert "bad number" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# one value pool and one http session per batch

BATCH = bundled_task_files("game24")[:5]
BATCH_N = 3


def batch_argv(out_dir, workers, backend_args=None):
    backend_args = backend_args or [
        "--backend", "oracle:p=0.3,seed=1", "--value-backend", "oracle-value:accuracy=0.85"
    ]
    return [
        "run", *map(str, BATCH), *backend_args, "--n", str(BATCH_N), "--k", "3",
        "--workers", str(workers), "--out", str(out_dir),
    ]


def test_run_loads_each_kinds_templates_once_and_shares_them(tmp_path, monkeypatch, capsys):
    """Every task of a kind searches with the one TemplateSet the run loaded
    for that kind, under --workers too."""
    load, inner = cli.load_template_set, cli.run_search
    loads, used = [], []

    def counting_load(kind, directory=None):
        loads.append(kind)
        return load(kind, directory)

    def run_search(task, backends, templates, *rest):
        used.append(templates)
        return inner(task, backends, templates, *rest)

    monkeypatch.setattr(cli, "load_template_set", counting_load)
    monkeypatch.setattr(cli, "run_search", run_search)
    assert main(batch_argv(tmp_path / "out", 2)) == 0
    capsys.readouterr()
    assert loads == ["game24"]
    assert len(used) == len(BATCH) and all(t is used[0] for t in used)


class CrashingValue(SlowBackend):
    def propose(self, prompt: str, n: int, seed: int) -> list:
        raise RuntimeError("value backend crashed")


def slow_value_specs(monkeypatch, crash_index=None):
    """Wrap every value backend the cli builds in a SlowBackend (the one at
    crash_index, in build order, raises instead) and return them in build
    order; the first is the up-front spec check's."""
    built = []
    parse = cli.parse_backend_spec

    def slow_spec(spec):
        backend = parse(spec)
        if spec.startswith("oracle-value:"):
            crashes = len(built) == crash_index
            built.append((CrashingValue if crashes else SlowBackend)(backend))
            return built[-1]
        return backend

    monkeypatch.setattr(cli, "parse_backend_spec", slow_spec)
    return built


@pytest.mark.parametrize("workers", [1, 3])
def test_run_batch_shares_one_value_pool_whose_threads_end_with_it(tmp_path, monkeypatch, workers):
    before = threading.active_count()
    built = slow_value_specs(monkeypatch)
    assert main(batch_argv(tmp_path / "out", workers)) == 0
    assert threading.active_count() == before
    assert len(built) == 1 + len(BATCH) and not built[0].trips.threads
    names = set().union(*(backend.trips.threads for backend in built))
    assert 1 <= len({name for name in names if name.startswith("value")}) <= BATCH_N * workers
    for backend in built[1:]:
        assert backend.trips.threads
        assert all(name.startswith("value") for name in backend.trips.threads)


@pytest.mark.parametrize("workers", [1, 3])
def test_run_batch_value_pool_threads_end_when_a_task_raises(tmp_path, monkeypatch, workers):
    before = threading.active_count()
    slow_value_specs(monkeypatch, crash_index=2)
    with pytest.raises(RuntimeError, match="value backend crashed"):
        main(batch_argv(tmp_path / "out", workers))
    assert threading.active_count() == before


def batch_files(out_dir) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def test_run_batch_through_the_benchmark_wrapper_shapes(tmp_path, monkeypatch, capsys):
    """perfbench wraps parse_backend_spec with one argument, replaces
    BackendSet with a function of the three roles, and wraps run_search
    with seven fixed parameters; a batch through them writes the same files."""
    assert main(batch_argv(tmp_path / "plain", 2)) == 0
    parse, inner, pools = cli.parse_backend_spec, cli.run_search, []

    def run_search(
        task, backends, templates, config=None, trace=None, reflection_store=None, env=None
    ):
        pools.append(backends.value_pool)
        return inner(task, backends, templates, config, trace, reflection_store, env)

    monkeypatch.setattr(cli, "parse_backend_spec", lambda spec: parse(spec))
    monkeypatch.setattr(
        cli,
        "BackendSet",
        lambda policy, value=None, reflection=None: search.BackendSet(policy, value, reflection),
    )
    monkeypatch.setattr(cli, "run_search", run_search)
    assert main(batch_argv(tmp_path / "wrapped", 2)) == 0
    capsys.readouterr()
    assert batch_files(tmp_path / "wrapped") == batch_files(tmp_path / "plain")
    assert len(pools) == len(BATCH) and pools[0] is not None
    assert all(pool is pools[0] for pool in pools)


class _Reply:
    status_code = 200
    text = ""

    def __init__(self, n):
        self.n = n

    def json(self):
        return {"choices": [{"message": {"content": "The correctness score is 5"}}] * self.n}


class CountingSession(requests.Session):
    """A real session, but every post gets one canned reply; it lists
    itself in `made` and counts its closes."""

    def __init__(self, made):
        super().__init__()
        self.posts = self.closes = 0
        made.append(self)

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        return _Reply(json["n"])

    def close(self):
        self.closes += 1
        super().close()


def test_run_batch_opens_one_http_session_for_every_task_and_role(tmp_path, monkeypatch, capsys):
    made = []
    monkeypatch.setattr(requests, "Session", lambda: CountingSession(made))
    spec = "http:http://127.0.0.1:9/v1/chat,model=stub"
    roles = ["--backend", spec, "--value-backend", spec, "--reflection-backend", spec]
    tasks = bundled_task_files("game24")[:6]
    workers = 2
    argv = ["run", *map(str, tasks), *roles, "--n", str(BATCH_N), "--k", "2"]
    assert main(argv + ["--workers", str(workers)]) == 0
    assert "game24/mcts:" in capsys.readouterr().out
    (session,) = made
    assert session.posts > 0 and session.closes == 1
    adapter = session.get_adapter("http://127.0.0.1:9/v1/chat")
    assert adapter.poolmanager.connection_pool_kw["maxsize"] == (BATCH_N + 1) * workers


def value_call_threads(monkeypatch) -> list:
    """Make valuation.lm_score list the name of the thread each value call
    runs on, and return the list."""
    names = []
    score = valuation.lm_score

    def recording(prompt, backend, seed=0):
        names.append(threading.current_thread().name)
        return score(prompt, backend, seed)

    monkeypatch.setattr(valuation, "lm_score", recording)
    return names


@pytest.mark.parametrize("workers", [1, 3])
def test_the_backends_fix_where_value_calls_run(tmp_path, monkeypatch, capsys, workers):
    threads = value_call_threads(monkeypatch)
    argv, _ = readme_run_example(tmp_path / "oracle", monkeypatch)
    assert main(argv + ["--workers", str(workers)]) == 0
    assert threads and not any(name.startswith("value") for name in threads)

    threads.clear()
    monkeypatch.setattr(requests, "Session", lambda: CountingSession([]))
    http = ["--backend", "http:http://127.0.0.1:9/v1/chat,model=stub"]
    assert main(batch_argv(tmp_path / "http", workers, http)) == 0
    assert threads and all(name.startswith("value") for name in threads)

    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [], "default": "The correctness score is 5"}))
    for kind, spec in [("script", f"script:{rules}"), ("static", "static:score is 5")]:
        threads.clear()
        backends = ["--backend", "oracle:p=0.3,seed=1", "--value-backend", spec]
        assert main(batch_argv(tmp_path / kind, workers, backends)) == 0
        assert threads and not any(name.startswith("value") for name in threads)
    capsys.readouterr()


def test_a_run_whose_value_backend_is_inline_starts_no_thread(tmp_path, monkeypatch, capsys):
    """The README run's oracle value backend is inline, so its batch's pool
    is never used; the value backend reads the thread count on every call."""
    counts = []

    class Counting:
        inline = True

        def __init__(self, inner):
            self.inner = inner

        def propose(self, prompt, n, seed):
            counts.append(threading.active_count())
            return self.inner.propose(prompt, n, seed)

    parse = cli.parse_backend_spec
    monkeypatch.setattr(
        cli,
        "parse_backend_spec",
        lambda spec: Counting(parse(spec)) if spec.startswith("oracle-value") else parse(spec),
    )
    argv, printed = readme_run_example(tmp_path / "demo", monkeypatch)
    before = threading.active_count()
    assert main(argv) == 0
    assert capsys.readouterr().out == printed
    assert counts and set(counts) == {before}
