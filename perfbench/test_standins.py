"""Tests for the benchmark's stand-in backends and span wrappers.

Run with: python3 -m pytest perfbench
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from agentsearch.actions import parse_action
from agentsearch.backends import static_backend
from agentsearch.envs import load_task, make_env, task_input
from agentsearch.valuation import parse_score

from standins import (
    DelayBackend,
    ReferencePolicy,
    ReferenceValue,
    distractors,
    reference_plan,
)

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "agentsearch" / "data"
KINDS = ("docqa", "shop", "solution")


def _tasks(kind):
    for path in sorted((DATA / kind / "tasks").glob("*.json")):
        yield load_task(path), json.loads(path.read_text()).get("metadata", {})


def _prompt(question, actions, example=True):
    lines = []
    if example:
        lines += ["Question: an unrelated few-shot example", "Action 1: search[Decoy]", ""]
    lines.append(f"Question: {question}")
    for i, action in enumerate(actions, start=1):
        lines += [f"Action {i}: {action}", f"Observation {i}: something"]
    return "\n".join(lines)


@pytest.mark.parametrize("kind", KINDS)
def test_reference_plan_solves_every_bundled_task(kind):
    for task, metadata in _tasks(kind):
        env = make_env(kind)
        env.reset(task)
        for text in reference_plan(kind, task.payload, metadata):
            obs = env.step(parse_action(text, env.grammar))
        assert obs.terminal and obs.reward == 1.0, task.task_id


@pytest.mark.parametrize("kind", KINDS)
def test_distractors_never_solve_a_task_in_one_step(kind):
    for task, metadata in _tasks(kind):
        plan = reference_plan(kind, task.payload, metadata)
        wrong = distractors(kind, task.payload, metadata)
        assert wrong and not set(wrong) & set(plan), task.task_id
        for text in wrong:
            env = make_env(kind)
            env.reset(task)
            obs = env.step(parse_action(text, env.grammar))
            assert not (obs.terminal and obs.reward >= 1.0), (task.task_id, text)


def _policy(competence=0.5, seed=3):
    task, metadata = next(_tasks("docqa"))
    plan = reference_plan("docqa", task.payload, metadata)
    wrong = distractors("docqa", task.payload, metadata)
    return ReferencePolicy(task_input(task), plan, wrong, competence, seed), plan


def test_policy_is_deterministic_in_prompt_n_and_seed():
    policy, plan = _policy()
    prompt = _prompt(policy.question, plan[:1])
    first = policy.propose(prompt, 5, 11)
    assert policy.propose(prompt, 5, 11) == first
    assert _policy()[0].propose(prompt, 5, 11) == first
    assert len(first) == 5
    assert len({tuple(policy.propose(prompt, 5, s)) for s in range(20)}) > 1


def test_policy_reads_step_index_from_the_query_block_only():
    policy, plan = _policy(competence=1.0)
    assert policy.propose(_prompt(policy.question, []), 3, 0) == [plan[0]] * 3
    assert policy.propose(_prompt(policy.question, plan[:1]), 2, 0) == [plan[1]] * 2
    off_plan = ["lookup[nothing]", plan[0]]
    assert policy.propose(_prompt(policy.question, off_plan), 1, 0) == [plan[1]]
    assert policy.propose(_prompt(policy.question, plan), 1, 0) == [plan[-1]]


def test_policy_with_zero_competence_never_proposes_the_plan():
    policy, plan = _policy(competence=0.0)
    for seed in range(20):
        out = policy.propose(_prompt(policy.question, []), 5, seed)
        assert plan[0] not in out
        assert set(out) <= set(policy.wrong)


def test_value_ends_with_score_sentence_and_tracks_progress():
    _, plan = _policy()
    task, _ = next(_tasks("docqa"))
    value = ReferenceValue(task_input(task), plan, accuracy=1.0, seed=5)
    scores = []
    for done in range(len(plan) + 1):
        texts = value.propose(_prompt(value.question, plan[:done]), 1, 9)
        assert texts[0].splitlines()[-1].startswith("Thus the correctness score is")
        scores.append(parse_score(texts[0]))
    assert scores == sorted(scores) and scores[0] == 1 and scores[-1] == 10
    invalid = _prompt(value.question, plan[:1]).replace("something", "Invalid action!")
    assert parse_score(value.propose(invalid, 1, 9)[0]) == 1


def test_value_is_deterministic():
    task, metadata = next(_tasks("shop"))
    plan = reference_plan("shop", task.payload, metadata)
    value = ReferenceValue(task_input(task), plan, accuracy=0.5, seed=2)
    prompt = _prompt(value.question, plan[:2])
    assert value.propose(prompt, 4, 8) == value.propose(prompt, 4, 8)


def test_delay_backend_passes_through_and_waits():
    inner = static_backend("think[ok]")
    delayed = DelayBackend(inner, 0.005)
    started = time.perf_counter()
    out = delayed.propose("prompt", 3, 1)
    assert time.perf_counter() - started >= 0.005
    assert out == inner.propose("prompt", 3, 1)
    assert delayed.waited_s >= 0.005


_PASS_THROUGH = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans, workloads
from agentsearch.search import run_search
from agentsearch.trace import TraceWriter

def traces(run, writer_cls, wrap):
    out = []
    for job in jobs:
        writer = writer_cls()
        run(job.task, wrap(job.backends), job.templates, job.config, trace=writer)
        out.append(writer.to_jsonl())
    return out

groups = {}
for job in workloads.build_jobs("cpu-mix", 4):
    groups.setdefault((job.task.kind, job.config.variant), []).append(job)
jobs = [job for group in groups.values() for job in group[:2]]
plain = traces(run_search, TraceWriter, lambda b: b)
rec = spans.Recorder()
traced_run, writer_cls = spans.install(rec)
wrap = lambda b: spans.role_backends(rec, b.policy, b.value, b.reflection)
traced = traces(traced_run, writer_cls, wrap)
by_name, _ = rec.self_times()
print(json.dumps({"same": plain == traced, "layers": sorted({n.split(".")[0] for n in by_name})}))
"""


def test_span_wrappers_leave_traces_byte_identical():
    # In a child process: install() patches module globals for good.
    proc = subprocess.run(
        [sys.executable, "-c", _PASS_THROUGH, str(HERE.parent / "src"), str(HERE)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["same"]
    assert {"search", "tree", "prompts", "actions", "envs", "valuation", "backends",
            "solver24", "seeding", "trace", "reflection"} <= set(out["layers"])
