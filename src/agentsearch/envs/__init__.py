"""Bundled environments, per-kind defaults, and task files."""

from __future__ import annotations

import json
from pathlib import Path

from .base import Environment, EnvObservation, EnvSnapshot, TaskError, TaskSpec
from .docqa import DocQAEnv
from .game24 import Game24Env, question_text
from .shop import ShopEnv
from .solution import SolutionEnv

REGISTRY = {
    Game24Env.kind: Game24Env,
    DocQAEnv.kind: DocQAEnv,
    ShopEnv.kind: ShopEnv,
    SolutionEnv.kind: SolutionEnv,
}

# Search depth, value-mixing weight, and simulation mode defaults per kind.
DEFAULT_DEPTH = {"game24": 5, "docqa": 7, "shop": 15, "solution": 8}
DEFAULT_LAMBDA = {"game24": 0.5, "docqa": 0.5, "shop": 0.8, "solution": 0.8}
DEFAULT_SKIP_SIMULATION = {"game24": False, "docqa": False, "shop": False, "solution": True}


def make_env(kind: str) -> Environment:
    try:
        return REGISTRY[kind]()
    except KeyError:
        raise TaskError(f"unknown environment kind {kind!r}") from None


def load_task(path) -> TaskSpec:
    """Read one task JSON file; sibling corpus/catalog files referenced by
    `corpus_file` / `catalog_file` are inlined into the payload. A kind with
    no registered environment is a TaskError here, before any search."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TaskError(f"cannot read task file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise TaskError(f"task file {path} must hold a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        raise TaskError(f"task file {path} is missing a 'kind'")
    if kind not in REGISTRY:
        raise TaskError(f"task file {path} has unknown environment kind {kind!r}")
    task_id = data.get("task_id") or path.stem
    payload = dict(data.get("payload") or {})
    for ref_key, inline_key in (("corpus_file", "corpus"), ("catalog_file", "catalog")):
        ref = payload.pop(ref_key, None)
        if ref is not None and inline_key not in payload:
            ref_path = (path.parent / ref).resolve()
            try:
                payload[inline_key] = json.loads(ref_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise TaskError(f"cannot read {ref_key} {ref_path}: {exc}") from exc
    return TaskSpec(task_id=str(task_id), kind=kind, payload=payload)


def task_input(task: TaskSpec) -> str:
    """The question/instruction text a task poses, used as the tree root input."""
    if task.kind == "game24":
        return question_text(task.payload.get("numbers", []))
    key = {"docqa": "question", "shop": "instruction", "solution": "statement"}.get(task.kind)
    if key is None:
        raise TaskError(f"unknown environment kind {task.kind!r}")
    text = task.payload.get(key)
    if not isinstance(text, str) or not text:
        raise TaskError(f"{task.kind} payload needs a {key!r} string")
    return text


__all__ = [
    "Environment",
    "EnvObservation",
    "EnvSnapshot",
    "TaskError",
    "TaskSpec",
    "load_task",
    "make_env",
    "task_input",
    "REGISTRY",
    "DEFAULT_DEPTH",
    "DEFAULT_LAMBDA",
    "DEFAULT_SKIP_SIMULATION",
    "Game24Env",
    "DocQAEnv",
    "ShopEnv",
    "SolutionEnv",
]
