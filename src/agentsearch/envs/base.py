"""Environment contract shared by the bundled task simulators.

Each Environment subclass is the one declaration of its kind: its `kind`,
action `grammar`, search defaults (`depth_limit`, `lam`, `skip_simulation`)
and `question(payload)`, the text its tasks pose; agentsearch.envs
registers each class under its own `kind`.

An environment is reset with a TaskSpec and stepped with parsed
ActionSamples. Everything a step may change lives in one dataclass, the
environment's `State`, whose fields and defaults are declared once; the
rest (catalog, corpus, answer, tests) is fixed per task and set at reset.
The State is a frozen value that a step replaces, never changes, so the
State object is the snapshot: `snapshot()` keeps it and `restore()` assigns
it back. Every snapshot shares its nested values (shop selections), which a
step rebuilds too. A step that changes nothing (a thought, an invalid
action) keeps the State object and the done flag, so `snapshot()` returns
the snapshot last made or restored instead of a new one; `reset` forgets
it. A snapshot's `token` is only a JSON view of it, for callers that
measure or log it. Restoring a snapshot and replaying the same actions
must reproduce the same observations byte for byte; the search engine
leans on that to revert to arbitrary tree nodes.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Optional

from ..actions import ActionGrammar, ActionSample
from ..trace import encode

INVALID = "Invalid action!"
_PUNCTUATION = str.maketrans({c: " " for c in string.punctuation})


def words(text: str) -> list:
    """The text's words, casefolded, with each punctuation mark a space."""
    return text.casefold().translate(_PUNCTUATION).split()


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


# The observations of a thought and of an invalid action; frozen, so shared.
OK_OBSERVATION = EnvObservation("OK.")
INVALID_OBSERVATION = EnvObservation(INVALID)


@dataclass(frozen=True)
class EnvSnapshot:
    kind: str
    task_id: str
    done: bool
    state: object  # the environment's State value, shared, not copied

    @property
    def token(self) -> str:
        return encode({"done": self.done, "state": vars(self.state)})


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
    depth_limit: int
    lam: float
    skip_simulation = False
    question_key = ""  # the payload key of the text a task poses

    @classmethod
    def question(cls, payload: dict) -> str:
        """The text a task of this kind poses; a TaskError when it is missing."""
        text = payload.get(cls.question_key)
        if not isinstance(text, str) or not text:
            raise TaskError(f"{cls.kind} payload needs a {cls.question_key!r} string")
        return text

    @dataclass(frozen=True)
    class State:
        """What a step may change; subclasses declare their own. This one
        has no fields, for an environment whose steps change nothing."""

    state: State

    def __init__(self):
        self._task: Optional[TaskSpec] = None
        self._done = False
        self._snapshot: Optional[EnvSnapshot] = None  # the last one made or restored

    # -- subclass hooks -------------------------------------------------
    def _do_reset(self, task: TaskSpec) -> EnvObservation:
        """Read the task's constants; self.state already holds a fresh State."""
        raise NotImplementedError

    def _apply(self, action: ActionSample) -> EnvObservation:
        raise NotImplementedError

    # -- public API ------------------------------------------------------
    def reset(self, task: TaskSpec) -> EnvObservation:
        if task.kind != self.kind:
            raise TaskError(f"task kind {task.kind!r} does not fit env {self.kind!r}")
        self._task = task
        self._done = False
        self._snapshot = None
        self.state = self.State()
        return self._do_reset(task)

    def step(self, action: ActionSample) -> EnvObservation:
        if self._task is None:
            raise RuntimeError("step() before reset()")
        if self._done:
            raise RuntimeError("episode already ended; reset() or restore() first")
        if action.kind == "thought":
            return OK_OBSERVATION
        if action.verb not in self.grammar.verbs:
            return INVALID_OBSERVATION
        obs = self._apply(action)
        if obs.terminal:
            self._done = True
        return obs

    def snapshot(self) -> EnvSnapshot:
        if self._task is None:
            raise RuntimeError("snapshot() before reset()")
        snap = self._snapshot
        if snap is None or snap.state is not self.state or snap.done != self._done:
            snap = self._snapshot = EnvSnapshot(
                self.kind, self._task.task_id, self._done, self.state
            )
        return snap

    def restore(self, snap: EnvSnapshot) -> None:
        if self._task is None:
            raise RuntimeError("restore() before reset()")
        if snap.kind != self.kind or snap.task_id != self._task.task_id:
            raise ValueError("snapshot belongs to a different environment or task")
        self._done = snap.done
        self.state = snap.state
        self._snapshot = snap
