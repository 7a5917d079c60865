"""Helpers shared by the test modules.

A plain module rather than conftest.py, so `from helpers import ...` cannot
pick up another directory's conftest when one pytest run collects both.
"""

import json
import random
from pathlib import Path

from agentsearch.actions import ActionSample
from agentsearch.backends import BackendError
from agentsearch.tree import ChildSpec, SearchTree, add_children

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "agentsearch" / "data"


def bundled_task_files(kind: str) -> list:
    sub = {"game24": "puzzles"}.get(kind, "tasks")
    return sorted((DATA_DIR / kind / sub).glob("*.json"))


def task_metadata(path: Path) -> dict:
    return json.loads(path.read_text()).get("metadata", {})


class StubBackend:
    """Returns queued responses verbatim; records every call."""

    def __init__(self, responses=None, default="think[no idea]"):
        self.responses = list(responses or [])
        self.default = default
        self.calls = []

    def propose(self, prompt: str, n: int, seed: int) -> list:
        self.calls.append({"prompt": prompt, "n": n, "seed": seed})
        out = []
        for _ in range(n):
            out.append(self.responses.pop(0) if self.responses else self.default)
        return out


class FailingBackend:
    """Raises BackendError for the first `failures` calls, then delegates."""

    def __init__(self, inner, failures: int):
        self.inner = inner
        self.failures = failures
        self.calls = 0

    def propose(self, prompt: str, n: int, seed: int) -> list:
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendError("synthetic outage")
        return self.inner.propose(prompt, n, seed)


def grow_random_tree(rng: random.Random, max_children: int = 4, max_nodes: int = 40):
    """Build a random tree through the public API and return it with the
    list of expandable leaf ids (non-terminal, childless)."""
    tree = SearchTree.create("root question")
    frontier = [0]
    total = 1
    while frontier and total < max_nodes:
        parent = frontier.pop(rng.randrange(len(frontier)))
        n_children = rng.randint(1, max_children)
        specs = []
        for i in range(n_children):
            terminal = rng.random() < 0.2
            specs.append(ChildSpec(
                action=ActionSample(kind="env_action", raw=f"step[{parent}-{i}]",
                                    verb="step", argument=f"{parent}-{i}"),
                observation="ok",
                is_terminal=terminal,
                reward=rng.random() if terminal else None,
            ))
        ids = add_children(tree, parent, specs)
        for cid in ids:
            if not tree.node(cid).is_terminal and rng.random() < 0.7:
                frontier.append(cid)
        total += len(ids)
    leaves = [n.id for n in tree.nodes if not n.children and not n.is_terminal]
    return tree, leaves
