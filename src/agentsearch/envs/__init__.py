"""Bundled environments, registered by their kind, and task files."""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from ..trace import decode
from .base import Environment, EnvObservation, EnvSnapshot, TaskError, TaskSpec
from .docqa import DocQAEnv
from .game24 import Game24Env
from .shop import ShopEnv
from .solution import SolutionEnv

REGISTRY = {env.kind: env for env in (Game24Env, DocQAEnv, ShopEnv, SolutionEnv)}


def env_class(kind: str) -> type:
    """The environment class of a kind; an unknown kind is a TaskError."""
    try:
        return REGISTRY[kind]
    except KeyError:
        raise TaskError(f"unknown environment kind {kind!r}") from None


def make_env(kind: str) -> Environment:
    return env_class(kind)()


@lru_cache(maxsize=8)
def _decode_shared(text: str):
    """One parsed object per distinct corpus or catalog text. Keyed on the
    text, not the path, so a rewritten file is parsed afresh; a text that
    does not parse raises and is not cached."""
    return decode(text)


def load_task(path) -> TaskSpec:
    """Read one task JSON file; sibling corpus/catalog files referenced by
    `corpus_file` / `catalog_file` are inlined into the payload. A kind with
    no registered environment, or a task_id holding '/' or NUL, is a
    TaskError here, before any search: output files are named after the
    task_id.

    A referenced file is parsed once per process: every task that names a
    file of the same text gets the same object as its inlined `corpus` or
    `catalog`. That object is shared read-only; environments copy what they
    keep at reset, and no caller may change it."""
    path = Path(path)
    try:
        data = decode(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise TaskError(f"cannot read task file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise TaskError(f"task file {path} must hold a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        raise TaskError(f"task file {path} is missing a 'kind'")
    if kind not in REGISTRY:
        raise TaskError(f"task file {path} has unknown environment kind {kind!r}")
    task_id = str(data.get("task_id") or path.stem)
    if "/" in task_id or "\0" in task_id:
        raise TaskError(f"task file {path} has a task_id {task_id!r} holding '/' or NUL")
    payload = data.get("payload")
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise TaskError(f"task file {path} has a 'payload' that is not a JSON object")
    for ref_key, inline_key in (("corpus_file", "corpus"), ("catalog_file", "catalog")):
        ref = payload.pop(ref_key, None)
        if ref is None:
            continue
        if not isinstance(ref, str):
            raise TaskError(f"task file {path} has a {ref_key!r} that is not a string")
        if inline_key not in payload:
            ref_path = path.parent / ref
            try:
                ref_path = ref_path.resolve()  # a NUL in the name is a ValueError here
                payload[inline_key] = _decode_shared(ref_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise TaskError(f"cannot read {ref_key} {ref_path}: {exc}") from exc
    return TaskSpec(task_id=task_id, kind=kind, payload=payload)


def task_input(task: TaskSpec) -> str:
    """The question/instruction text a task poses, used as the tree root input."""
    return env_class(task.kind).question(task.payload)


__all__ = [
    "Environment",
    "EnvObservation",
    "EnvSnapshot",
    "TaskError",
    "TaskSpec",
    "env_class",
    "load_task",
    "make_env",
    "task_input",
    "REGISTRY",
    "Game24Env",
    "DocQAEnv",
    "ShopEnv",
    "SolutionEnv",
]
