"""Trace writer and replay verification tests."""

import pytest

from agentsearch.trace import (
    ReplayError,
    TraceWriter,
    prompt_digest,
    read_trace,
    replay_trace,
    write_trace,
)


def minimal_events(value_at_root=0.7):
    """A hand-built two-episode trace whose accounting is consistent."""
    return [
        {"seq": 0, "type": "run_start", "task_id": "t"},
        {"seq": 1, "type": "episode_start", "episode": 1},
        {
            "seq": 2,
            "type": "expand",
            "parent": 0,
            "children": [{"id": 1, "action": "a"}, {"id": 2, "action": "b"}],
        },
        {
            "seq": 3,
            "type": "evaluate",
            "scores": [{"id": 1, "combined": 0.9}, {"id": 2, "combined": 0.2}],
        },
        {"seq": 4, "type": "backprop", "path": [1, 0], "reward": 0.5},
        {"seq": 5, "type": "episode_start", "episode": 2},
        {"seq": 6, "type": "backprop", "path": [2, 0], "reward": 0.9},
        {
            "seq": 7,
            "type": "terminate",
            "success": True,
            "node_stats": [
                {"id": 0, "visits": 2, "value": value_at_root},
                {"id": 1, "visits": 1, "value": 0.5},
                {"id": 2, "visits": 1, "value": 0.9},
            ],
        },
    ]


def test_writer_assigns_sequential_seq_and_mirrors_stream():
    writer = TraceWriter()
    writer.emit("run_start", task_id="t")
    writer.emit("episode_start", episode=1)
    assert [e["seq"] for e in writer.events] == [0, 1]
    lines = writer.to_jsonl().strip().splitlines()
    assert lines[0] == '{"seq":0,"task_id":"t","type":"run_start"}'


def test_prompt_field_digest_by_default():
    writer = TraceWriter()
    hashed = writer.prompt_field("some long prompt")
    assert hashed == prompt_digest("some long prompt")
    assert len(hashed) == 64 and "prompt" not in hashed
    verbose = TraceWriter(log_prompts=True)
    assert verbose.prompt_field("some long prompt") == "some long prompt"


def test_write_read_round_trip(tmp_path):
    events = minimal_events()
    path = tmp_path / "run.jsonl"
    write_trace(events, path)
    assert read_trace(path) == events


def test_replay_accepts_consistent_trace():
    summary = replay_trace(minimal_events())
    assert summary == {"nodes": 3, "backprops": 2, "episodes": 2, "success": True}


def test_replay_checks_running_mean_value():
    with pytest.raises(ReplayError, match="value"):
        replay_trace(minimal_events(value_at_root=0.8))


def test_replay_rejects_broken_sequence():
    events = minimal_events()
    events[3]["seq"] = 99
    with pytest.raises(ReplayError, match="sequence broken"):
        replay_trace(events)


def test_replay_rejects_tampered_visits():
    events = minimal_events()
    events[-1]["node_stats"][1]["visits"] = 2
    with pytest.raises(ReplayError, match="visits"):
        replay_trace(events)


def test_replay_rejects_duplicate_or_unknown_nodes():
    events = minimal_events()
    events[2]["children"].append({"id": 1, "action": "dup"})
    with pytest.raises(ReplayError, match="created twice"):
        replay_trace(events)

    events = minimal_events()
    events[4]["path"] = [7, 0]
    with pytest.raises(ReplayError, match="unknown node"):
        replay_trace(events)


def test_replay_requires_terminate_with_stats():
    with pytest.raises(ReplayError, match="terminate"):
        replay_trace(minimal_events()[:-1])
    events = minimal_events()
    del events[-1]["node_stats"]
    with pytest.raises(ReplayError, match="node_stats"):
        replay_trace(events)


def test_replay_eval_seed_is_overwritten_by_first_backprop():
    # node 1 is seeded with 0.9 then visited with reward 0.5; replay must
    # land on 0.5, which minimal_events already encodes. Removing the
    # evaluate event must not change the verdict.
    events = [e for e in minimal_events() if e["type"] != "evaluate"]
    for i, e in enumerate(events):
        e["seq"] = i
    assert replay_trace(events)["nodes"] == 3
