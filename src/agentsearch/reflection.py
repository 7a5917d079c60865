"""Failure reflections: generate on failed terminals, store, and re-inject.

A reflection is a short self-critique produced after a trajectory ends with
reward below 1.0. Records accumulate append-only per task; prompt assembly
surfaces the m most recent ones (oldest first) so later episodes can avoid
repeating the same mistake.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .backends import BackendError, PolicyBackend
from .prompts import PromptBundle, render_acting_steps
from .tree import StateContext

SUCCESS_THRESHOLD = 1.0


@dataclass(frozen=True)
class ReflectionRecord:
    task_id: str
    trajectory_text: str
    reward: float
    reflection: str
    episode: int
    created_at: int  # monotonic per store, not wall-clock


class ReflectionStore:
    """Append-only reflection memory keyed by task id."""

    def __init__(self):
        self._records = []
        self._counter = 0

    def record(
        self,
        task_id: str,
        trajectory_text: str,
        reward: float,
        reflection: str,
        episode: int,
    ) -> ReflectionRecord:
        rec = ReflectionRecord(
            task_id=task_id,
            trajectory_text=trajectory_text,
            reward=reward,
            reflection=reflection,
            episode=episode,
            created_at=self._counter,
        )
        self._counter += 1
        self._records.append(rec)
        return rec

    def select(self, task_id: str, m: int) -> list:
        """The m most recent records for a task, oldest first."""
        if m < 0:
            raise ValueError("m must be >= 0")
        mine = [r for r in self._records if r.task_id == task_id]
        return mine[-m:] if m else []

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "task_id": r.task_id,
                    "trajectory_text": r.trajectory_text,
                    "reward": r.reward,
                    "reflection": r.reflection,
                    "episode": r.episode,
                    "created_at": r.created_at,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            for r in self._records
        ]
        return "\n".join(lines) + "\n" if lines else ""


def assemble_reflection_prompt(bundle: PromptBundle, ctx: StateContext, reward: float) -> str:
    parts = [bundle.instruction.strip()]
    parts.extend(example.strip() for example in bundle.few_shot)
    block = render_acting_steps(ctx)
    trailer = f"STATUS: FAIL (reward: {reward:g})\n\nReflection:"
    parts.append(block + "\n" + trailer)
    return "\n\n".join(p for p in parts if p)


def generate_reflection(
    ctx: StateContext,
    reward: float,
    bundle: PromptBundle,
    backend: PolicyBackend,
    seed: int = 0,
) -> str:
    """Ask the reflection backend to critique a failed trajectory.

    Precondition: the trajectory actually failed (reward < 1.0). On backend
    failure returns an empty string so the caller can skip storing it and
    keep searching.
    """
    if reward >= SUCCESS_THRESHOLD:
        raise ValueError("refusing to reflect on a successful trajectory")
    prompt = assemble_reflection_prompt(bundle, ctx, reward)
    try:
        texts = backend.propose(prompt, 1, seed)
    except BackendError:
        return ""
    return texts[0].strip() if texts else ""


def inject(bundle: PromptBundle, records: list) -> PromptBundle:
    """Copy the bundle with reflection texts filled in (and, for bundles that
    carry failed trajectories, those too). Empty input returns the bundle
    unchanged; injecting the same records twice is a no-op."""
    if not records:
        return bundle
    reflections = [r.reflection for r in records if r.reflection]
    updated = replace(bundle, reflections=reflections)
    if bundle.include_failed_trajectories:
        updated = replace(updated, failed_trajectories=[r.trajectory_text for r in records])
    return updated
