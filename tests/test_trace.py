"""Trace writer and replay verification tests."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch.trace import (
    LONG_LIST,
    ReplayError,
    TraceWriter,
    decode,
    encode,
    jsonl,
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


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.sampled_from([-0.0, 1e-7, float("nan"), float("-inf"), 2**53 + 1, -(2**64)]),
    st.text(max_size=6),
    st.sampled_from(["é", "日本", "\u2028", "😀", '"\\\n']),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.dictionaries(st.integers(), inner, max_size=2),
    ),
    max_leaves=6,
)
# Lists on both sides of the bound above which jsonl encodes a list LONG_LIST
# items at a time, up to three runs long; a long one repeats a few generated
# items, as generating each would be slow.
LISTS = st.one_of(
    st.lists(VALUES, max_size=3),
    st.builds(
        lambda items, extra: (items * 3 * LONG_LIST)[: LONG_LIST + extra],
        st.lists(VALUES, min_size=1, max_size=3),
        st.integers(0, LONG_LIST + 2),
    ),
)
FIELDS = st.one_of(VALUES, LISTS)
RECORDS = st.one_of(
    st.dictionaries(st.text(max_size=8), FIELDS, max_size=4),
    st.dictionaries(st.one_of(st.integers(), st.floats(allow_nan=False)), FIELDS, max_size=3),
    st.dictionaries(st.booleans(), FIELDS, max_size=2),
    st.dictionaries(st.none(), FIELDS, max_size=1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(RECORDS, max_size=3))
def test_jsonl_is_the_join_of_the_encoded_records(records):
    assert jsonl(records) == "".join(encode(r) + "\n" for r in records)


def test_jsonl_encodes_a_long_list_in_little_more_memory_than_its_text():
    """The C encoder holds a string per token until a record is done: encoded
    whole, this record took about 11x its line."""
    node_stats = [{"id": i, "value": i / 7, "visits": i % 13} for i in range(2000)]
    record = {"seq": 9, "type": "terminate", "success": False, "node_stats": node_stats}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = jsonl([record])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert text == encode(record) + "\n"
    assert peak < 4 * len(text)


def test_prompt_field_digest_by_default():
    writer = TraceWriter()
    hashed = writer.prompt_field("some long prompt")
    assert hashed == prompt_digest("some long prompt")
    assert len(hashed) == 64 and "prompt" not in hashed
    verbose = TraceWriter(log_prompts=True)
    assert verbose.prompt_field("some long prompt") == "some long prompt"


def test_decode_reads_too_deep_nesting_as_a_value_error():
    assert decode('{"a": [1, 2]}') == {"a": [1, 2]}
    with pytest.raises(ValueError, match="nested too deeply"):
        decode("[" * 100_000)


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


def test_replay_rejects_scoring_before_creation():
    events = minimal_events()
    events[3]["scores"].append({"id": 7, "combined": 0.5})
    with pytest.raises(ReplayError, match="evaluate before creation of node 7"):
        replay_trace(events)


@pytest.mark.parametrize("where", ["again", "after_backprop"])
def test_replay_rejects_a_node_scored_twice_or_after_a_backprop(where):
    events = minimal_events()
    rescore = {"type": "evaluate", "scores": [{"id": 1, "combined": 0.9}]}
    events.insert(4 if where == "again" else 5, rescore)
    for seq, event in enumerate(events):
        event["seq"] = seq
    with pytest.raises(ReplayError, match="node 1 scored twice or after a backprop"):
        replay_trace(events)


def test_replay_rejects_node_stats_that_disagree_on_the_nodes():
    events = minimal_events()
    del events[-1]["node_stats"][2]
    missing = "created 3 nodes but terminate reports 2: node 2 is missing"
    with pytest.raises(ReplayError, match=missing):
        replay_trace(events)
    events = minimal_events()
    events[-1]["node_stats"][2] = dict(events[-1]["node_stats"][1])
    with pytest.raises(ReplayError, match="terminate reports node 1 twice"):
        replay_trace(events)
    events = minimal_events()
    events[-1]["node_stats"][2]["id"] = 7
    with pytest.raises(ReplayError, match="terminate reports unknown node 7"):
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


@pytest.mark.parametrize(
    "event",
    [
        [1, 2],
        {"seq": 0, "type": "expand", "children": 5},
        {"seq": 0, "type": "expand", "children": [{"action": "a"}]},
        {"seq": 0, "type": "evaluate", "scores": [[1, 0.5]]},
        {"seq": 0, "type": "backprop", "path": [[0]], "reward": 1.0},
    ],
)
def test_replay_rejects_malformed_events(event):
    with pytest.raises(ReplayError):
        replay_trace([event])


def test_replay_rejects_malformed_node_stats():
    events = minimal_events()
    events[-1]["node_stats"] = 3
    with pytest.raises(ReplayError):
        replay_trace(events)
    events[-1]["node_stats"] = [{"id": 0}, {"id": 1}, {"id": 2}]
    with pytest.raises(ReplayError):
        replay_trace(events)
