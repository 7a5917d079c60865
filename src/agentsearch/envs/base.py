"""Environment contract shared by the bundled task simulators.

An environment is reset with a TaskSpec, stepped with parsed ActionSamples,
and can serialize its full state to an opaque snapshot token and restore it
later. Restoring a snapshot and replaying the same actions must reproduce
the same observations byte for byte; the search engine leans on that to
revert to arbitrary tree nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ..actions import ActionGrammar, ActionSample
from ..trace import encode

INVALID = "Invalid action!"


@dataclass(frozen=True)
class EnvObservation:
    text: str
    terminal: bool = False
    reward: Optional[float] = None

    def __post_init__(self):
        if self.terminal and self.reward is None:
            raise ValueError("terminal observation requires a reward")
        if not self.terminal and self.reward is not None:
            raise ValueError("non-terminal observation must not carry a reward")


@dataclass(frozen=True)
class EnvSnapshot:
    kind: str
    task_id: str
    token: str


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    kind: str
    payload: dict = field(default_factory=dict)


class TaskError(ValueError):
    """Malformed task file or payload."""


class Environment:
    """Base class wiring the step preamble all environments share."""

    kind: str = ""
    grammar: ActionGrammar = ActionGrammar()

    def __init__(self):
        self._task: Optional[TaskSpec] = None
        self._done = False

    # -- subclass hooks -------------------------------------------------
    def _do_reset(self, task: TaskSpec) -> EnvObservation:
        raise NotImplementedError

    def _apply(self, action: ActionSample) -> EnvObservation:
        raise NotImplementedError

    def _state(self) -> dict:
        raise NotImplementedError

    def _load_state(self, state: dict) -> None:
        raise NotImplementedError

    # -- public API ------------------------------------------------------
    def reset(self, task: TaskSpec) -> EnvObservation:
        if task.kind != self.kind:
            raise TaskError(f"task kind {task.kind!r} does not fit env {self.kind!r}")
        self._task = task
        self._done = False
        return self._do_reset(task)

    def step(self, action: ActionSample) -> EnvObservation:
        if self._task is None:
            raise RuntimeError("step() before reset()")
        if self._done:
            raise RuntimeError("episode already ended; reset() or restore() first")
        if action.kind == "thought":
            return EnvObservation("OK.")
        if action.verb not in self.grammar.verbs:
            return EnvObservation(INVALID)
        obs = self._apply(action)
        if obs.terminal:
            self._done = True
        return obs

    def snapshot(self) -> EnvSnapshot:
        if self._task is None:
            raise RuntimeError("snapshot() before reset()")
        token = encode({"done": self._done, "state": self._state()})
        return EnvSnapshot(kind=self.kind, task_id=self._task.task_id, token=token)

    def restore(self, snap: EnvSnapshot) -> None:
        if self._task is None:
            raise RuntimeError("restore() before reset()")
        if snap.kind != self.kind or snap.task_id != self._task.task_id:
            raise ValueError("snapshot belongs to a different environment or task")
        data = json.loads(snap.token)
        self._done = data["done"]
        self._load_state(data["state"])

    @staticmethod
    def invalid() -> EnvObservation:
        return EnvObservation(INVALID)
