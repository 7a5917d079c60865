"""Helpers shared by the test modules.

A plain module rather than conftest.py, so `from helpers import ...` cannot
pick up another directory's conftest when one pytest run collects both.
"""

import contextlib
import json
import random
import threading
import time
from pathlib import Path

from agentsearch.actions import ActionSample
from agentsearch.backends import BackendError
from agentsearch.envs.base import EnvObservation
from agentsearch.prompts import render_step
from agentsearch.tree import SearchTree, add_children, reconstruct_context
from agentsearch.pool import ThreadPool

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "agentsearch" / "data"


def bundled_task_files(kind: str) -> list:
    sub = {"game24": "puzzles"}.get(kind, "tasks")
    return sorted((DATA_DIR / kind / sub).glob("*.json"))


def task_metadata(path: Path) -> dict:
    return json.loads(path.read_text()).get("metadata", {})


def acting_steps_from_scratch(tree, node_id):
    """The node's acting-style block, rendered afresh from its path: the
    question, then each step."""
    lines = [f"Question: {tree.input}"]
    steps = reconstruct_context(tree, node_id)
    lines.extend(render_step(i, a, o) for i, (a, o) in enumerate(steps, start=1))
    return "\n".join(lines)


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


class RoundTrips:
    """A simulated 2 ms round trip per call that records the most calls in
    flight at once and the names of the threads they came from."""

    def __init__(self):
        self._lock = threading.Lock()
        self._in_flight = 0
        self.peak = 0
        self.threads = set()

    @contextlib.contextmanager
    def call(self):
        with self._lock:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
            self.threads.add(threading.current_thread().name)
        try:
            time.sleep(0.002)
            yield
        finally:
            with self._lock:
                self._in_flight -= 1


def value_pool(workers: int) -> ThreadPool:
    """A pool for BackendSet.value_pool, its threads named as the cli
    names them."""
    return ThreadPool(workers, "value")


class SlowBackend:
    """Delegates every call after a simulated round trip, as a remote
    backend would answer."""

    def __init__(self, inner):
        self.inner = inner
        self.trips = RoundTrips()

    def propose(self, prompt: str, n: int, seed: int) -> list:
        with self.trips.call():
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
        steps = []
        for i in range(n_children):
            terminal = rng.random() < 0.2
            steps.append((
                ActionSample(kind="env_action", raw=f"step[{parent}-{i}]",
                             verb="step", argument=f"{parent}-{i}"),
                EnvObservation("ok", terminal, rng.random() if terminal else None),
            ))
        ids = add_children(tree, parent, steps)
        for cid in ids:
            if not tree.node(cid).is_terminal and rng.random() < 0.7:
                frontier.append(cid)
        total += len(ids)
    leaves = [n.id for n in tree.nodes if not n.children and not n.is_terminal]
    return tree, leaves
