"""Benchmark-owned stand-in backends.

None of these call a language model. Each implements the engine's backend
contract, propose(prompt, n, seed) -> list of n texts, and is deterministic
in (prompt, n, seed) for a fixed constructor seed.

ReferencePolicy  proposes a task's reference step with a set competence,
                 otherwise a distractor from the task's own vocabulary
ReferenceValue   scores a trajectory by its progress along the reference
                 plan and ends with the standard score sentence
DelayBackend     sleeps a fixed simulated round trip before every call
"""

from __future__ import annotations

import random
import re
import time

from agentsearch.actions import parse_action
from agentsearch.envs import TaskSpec, make_env

_ACTION_RE = re.compile(r"^Action \d+: (.*)$", re.MULTILINE)
_OBSERVATION_RE = re.compile(r"^Observation \d+: (.*)$", re.MULTILINE)
_INVALID = "Invalid action!"


def reference_plan(kind: str, payload: dict, metadata: dict) -> list:
    """The action texts that solve a bundled docqa, shop or solution task."""
    if kind == "docqa":
        hops = [f"search[{title}]" for title in metadata["hop_titles"]]
        return hops + [f"finish[{payload['answer']}]"]
    if kind == "shop":
        picks = [f"choose[{value}]" for _, value in sorted(payload["options"].items())]
        return (
            [f"search[{metadata['target_title']}]", f"choose[{metadata['target_product']}]"]
            + picks
            + ["choose[Buy Now]"]
        )
    if kind == "solution":
        return [f"submit[{metadata['reference']}]"]
    raise ValueError(f"no reference plan for task kind {kind!r}")


def distractors(kind: str, payload: dict, metadata: dict) -> list:
    """Wrong but well-formed actions drawn from the task's own vocabulary."""
    plan = reference_plan(kind, payload, metadata)
    return [
        text
        for text in _vocabulary(kind, payload, metadata)
        if text not in plan and not _solves_at_once(kind, payload, text)
    ]


def _solves_at_once(kind: str, payload: dict, text: str) -> bool:
    """Whether a final answer such as submit[3*x] for "x + x + x" solves the
    task from its first state."""
    env = make_env(kind)
    action = parse_action(text, env.grammar)
    if action.kind != "final_answer":
        return False
    env.reset(TaskSpec("check", kind, payload))
    obs = env.step(action)
    return obs.terminal and obs.reward >= 1.0


def _vocabulary(kind: str, payload: dict, metadata: dict) -> list:
    if kind == "docqa":
        titles = sorted(payload["corpus"])
        words = sorted({w.strip("?,.") for w in payload["question"].split() if len(w) > 3})
        out = [f"search[{t}]" for t in titles[:: max(1, len(titles) // 12)]]
        out += [f"lookup[{w}]" for w in words]
        out += [f"finish[{t}]" for t in titles[:: max(1, len(titles) // 6)]]
        return out + ["think[I should look up the entity named in the question.]"]
    if kind == "shop":
        words = payload["instruction"].split()
        ids = [str(p["id"]) for p in payload["catalog"]]
        target = next(p for p in payload["catalog"] if p["id"] == metadata["target_product"])
        values = [v for vals in target.get("options", {}).values() for v in vals]
        out = [f"search[{' '.join(words[i:i + 3])}]" for i in range(0, len(words) - 2, 3)]
        out += [f"choose[{pid}]" for pid in ids[:: max(1, len(ids) // 10)]]
        out += [f"choose[{v}]" for v in values]
        return out + ["choose[next page]", "choose[back to search]", "choose[Buy Now]"]
    if kind == "solution":
        ref = metadata["reference"]
        consts = sorted(set(re.findall(r"\d+", ref)) | {"1", "2", "3"})
        out = []
        for c in consts:
            out.append(f"submit[{ref} + {c}]")
            out.append(f"submit[{c}*x]")
        for op, swap in (("+", "-"), ("-", "+"), ("*", "+")):
            if op in ref:
                out.append(f"submit[{ref.replace(op, swap, 1)}]")
        out.append("submit[x]")
        # As many thoughts as submissions, so most expansions leave an open leaf.
        thought = "think[Check term {} of the candidate against the tests.]"
        return out + [thought.format(i) for i in range(len(out))]
    raise ValueError(f"no distractors for task kind {kind!r}")


def _query_block(prompt: str, question: str) -> str:
    """The trajectory being asked about, without the few-shot examples that
    precede it in the prompt."""
    start = prompt.rfind(f"Question: {question}")
    return prompt[start:] if start >= 0 else ""


def plan_progress(plan: list, actions: list) -> int:
    """How many reference steps the actions have taken, in order."""
    done = 0
    for action in actions:
        if done < len(plan) and action == plan[done]:
            done += 1
    return done


class ReferencePolicy:
    """Proposes the next reference step with probability `competence`,
    otherwise a distractor. The step index is read from the prompt's
    `Action i:` lines."""

    def __init__(self, question: str, plan: list, wrong: list, competence: float, seed: int):
        if not 0.0 <= competence <= 1.0:
            raise ValueError("competence must be in [0, 1]")
        self.question = question
        self.plan = plan
        self.wrong = wrong
        self.competence = competence
        self.seed = seed

    def propose(self, prompt: str, n: int, seed: int) -> list:
        done = plan_progress(self.plan, _ACTION_RE.findall(_query_block(prompt, self.question)))
        step = self.plan[min(done, len(self.plan) - 1)]
        rng = random.Random(f"policy|{self.seed}|{seed}|{done}")
        return [
            step if rng.random() < self.competence else rng.choice(self.wrong)
            for _ in range(n)
        ]


class ReferenceValue:
    """With probability `accuracy` scores plan progress from 1 to 10 (1 for
    a trajectory ending in an invalid action); otherwise a uniform score."""

    def __init__(self, question: str, plan: list, accuracy: float, seed: int):
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        self.question = question
        self.plan = plan
        self.accuracy = accuracy
        self.seed = seed

    def propose(self, prompt: str, n: int, seed: int) -> list:
        block = _query_block(prompt, self.question)
        done = plan_progress(self.plan, _ACTION_RE.findall(block))
        observations = _OBSERVATION_RE.findall(block)
        invalid = bool(observations) and observations[-1] == _INVALID
        rng = random.Random(f"value|{self.seed}|{seed}|{done}")
        out = []
        for _ in range(n):
            if rng.random() < self.accuracy:
                score = 1 if invalid else 1 + round(9 * done / len(self.plan))
            else:
                score = rng.randint(1, 10)
            out.append(
                "The trajectory was compared with the task.\n"
                f"Thus the correctness score is {score}"
            )
        return out


class DelayBackend:
    """Sleeps `delay_s` before passing each call through to `inner`, as a
    fixed simulated round trip. `waited_s` totals the measured sleeps."""

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s
        self.waited_s = 0.0

    def propose(self, prompt: str, n: int, seed: int) -> list:
        start = time.perf_counter()
        time.sleep(self.delay_s)
        self.waited_s += time.perf_counter() - start
        return self.inner.propose(prompt, n, seed)
