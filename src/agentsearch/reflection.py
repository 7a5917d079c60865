"""Failure reflections: generate on failed terminals, store, and re-inject.

A reflection is a short self-critique produced after a trajectory ends with
reward below 1.0. Records accumulate append-only per task; prompt assembly
surfaces the m most recent ones (oldest first) so later episodes can avoid
repeating the same mistake.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from .backends import BackendError, PolicyBackend
from .prompts import PromptBundle, join_head
from .trace import jsonl

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
            created_at=len(self._records),
        )
        self._records.append(rec)
        return rec

    def select(self, task_id: str, m: int) -> list:
        """The m most recent records for a task, oldest first."""
        if m < 0:
            raise ValueError("m must be >= 0")
        mine = [r for r in self._records if r.task_id == task_id]
        return mine[-m:] if m else []

    def to_jsonl(self) -> str:
        return jsonl(asdict(r) for r in self._records)


def assemble_reflection_prompt(bundle: PromptBundle, trajectory: str, reward: float) -> str:
    """The bundle's instruction and examples, then the failed trajectory's
    acting-style block with its status and a reflection cue."""
    trailer = f"STATUS: FAIL (reward: {reward:g})\n\nReflection:"
    return join_head(bundle.intro, trajectory + "\n" + trailer)


def generate_reflection(
    trajectory: str, reward: float, bundle: PromptBundle, backend: PolicyBackend, seed: int = 0
) -> str:
    """Ask the reflection backend to critique a failed trajectory's block.

    Precondition: the trajectory actually failed (reward < 1.0). On backend
    failure returns an empty string so the caller can skip storing it and
    keep searching.
    """
    if reward >= SUCCESS_THRESHOLD:
        raise ValueError("refusing to reflect on a successful trajectory")
    prompt = assemble_reflection_prompt(bundle, trajectory, reward)
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
