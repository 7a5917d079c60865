"""Reflection store and generation tests."""

import json

import pytest

from agentsearch.actions import ActionGrammar, parse_action
from agentsearch.prompts import PromptBundle
from agentsearch.reflection import (
    ReflectionStore,
    assemble_reflection_prompt,
    generate_reflection,
    inject,
)
from agentsearch.tree import StateContext

from conftest import FailingBackend, StubBackend


def failed_ctx():
    grammar = ActionGrammar(verbs=("finish",), terminal_verbs=("finish",))
    steps = [(parse_action("Finish[wrong answer]", grammar), "Episode finished, reward = 0")]
    return StateContext(input="what is the capital?", steps=steps)


def test_store_selects_m_most_recent_oldest_first():
    store = ReflectionStore()
    for i in range(5):
        store.record("t1", f"traj {i}", 0.0, f"reflection {i}", episode=i + 1)
    store.record("t2", "other", 0.0, "other task", episode=1)
    picked = store.select("t1", 3)
    assert [r.reflection for r in picked] == ["reflection 2", "reflection 3", "reflection 4"]
    assert store.select("t1", 100) == store.select("t1", 5)
    assert store.select("t1", 0) == []
    with pytest.raises(ValueError):
        store.select("t1", -1)


def test_store_jsonl_round_trip():
    store = ReflectionStore()
    store.record("t1", "Question: q\nAction 1: Finish[x]", 0.25, "do not finish early", 1)
    store.record("t1", "second trajectory", 0.0, "search before answering", 2)
    text = store.to_jsonl()
    assert text.endswith("\n")
    assert len(text.strip().splitlines()) == 2
    rows = [json.loads(line) for line in text.splitlines()]
    assert [r["created_at"] for r in rows] == [0, 1]
    assert rows[0] == {
        "task_id": "t1",
        "trajectory_text": "Question: q\nAction 1: Finish[x]",
        "reward": 0.25,
        "reflection": "do not finish early",
        "episode": 1,
        "created_at": 0,
    }
    assert ReflectionStore().to_jsonl() == ""


def test_reflection_prompt_shows_trajectory_and_fail_status():
    bundle = PromptBundle(instruction="You failed. Explain why.")
    prompt = assemble_reflection_prompt(bundle, failed_ctx(), reward=0.5)
    assert prompt.startswith("You failed. Explain why.")
    assert "Question: what is the capital?" in prompt
    assert "Action 1: Finish[wrong answer]" in prompt
    assert "STATUS: FAIL (reward: 0.5)" in prompt
    assert prompt.endswith("Reflection:")


def test_generate_reflection_calls_backend_once():
    backend = StubBackend(["I answered without searching first."])
    bundle = PromptBundle(instruction="inst")
    text = generate_reflection(failed_ctx(), 0.0, bundle, backend, seed=4)
    assert text == "I answered without searching first."
    assert len(backend.calls) == 1
    call = backend.calls[0]
    assert call["n"] == 1 and call["seed"] == 4
    assert "STATUS: FAIL" in call["prompt"]


def test_generate_reflection_refuses_success():
    with pytest.raises(ValueError):
        generate_reflection(failed_ctx(), 1.0, PromptBundle(instruction="i"), StubBackend([]))


def test_generate_reflection_swallows_backend_error():
    backend = FailingBackend(StubBackend(["never reached"]), failures=5)
    text = generate_reflection(failed_ctx(), 0.0, PromptBundle(instruction="i"), backend)
    assert text == ""


def test_inject_fills_reflections_without_mutating_original():
    store = ReflectionStore()
    store.record("t", "traj a", 0.0, "avoid the dead end", 1)
    store.record("t", "traj b", 0.0, "", 2)  # empty reflections are skipped
    bundle = PromptBundle(instruction="inst")
    updated = inject(bundle, store.select("t", 4))
    assert updated.reflections == ["avoid the dead end"]
    assert updated.failed_trajectories == []
    assert bundle.reflections == []
    assert inject(bundle, []) is bundle


def test_inject_carries_failed_trajectories_when_enabled():
    store = ReflectionStore()
    store.record("t", "traj a", 0.0, "r1", 1)
    bundle = PromptBundle(instruction="inst", include_failed_trajectories=True)
    updated = inject(bundle, store.select("t", 4))
    assert updated.failed_trajectories == ["traj a"]
    assert inject(updated, store.select("t", 4)).reflections == ["r1"]
