"""Determinism matrix: one batch run several ways writes the same files.

Every trace, tree and reflections file, and report.json, must be
byte-identical whatever the task concurrency (--workers), whether value
calls go to the pool, and for the cached HTTP backend whether its cache
starts cold or warm.
"""

import threading

import pytest
import requests

from agentsearch import cli
from agentsearch.backends import BackendError, Game24PolicyOracle, Game24ValueOracle
from agentsearch.cli import main
from agentsearch.search import run_search
from agentsearch.seeding import stable_seed

from helpers import bundled_task_files

TASKS = bundled_task_files("game24")[:6]
SEARCH = ["--n", "3", "--k", "3", "--reflection-limit", "2"]
ORACLES = [
    "--backend",
    "oracle:p=0.4,seed=3",
    "--value-backend",
    "oracle-value:accuracy=0.8,seed=5",
    "--reflection-backend",
    "static:Try a different first step.",
]
HTTP = "http:http://127.0.0.1:9/v1/chat,model=stub,cache={}"


class Delegate:
    """Passes every call to the backend it wraps, declaring nothing, so a
    search sends its value calls to the batch's pool."""

    def __init__(self, inner):
        self.inner = inner

    def propose(self, prompt: str, n: int, seed: int) -> list:
        return self.inner.propose(prompt, n, seed)


class InlineDelegate(Delegate):
    inline = True


def run_batch(out_dir, backend_args, workers, pool_on, monkeypatch):
    """Run the batch into out_dir and return {file name: bytes}. pool_on
    sends every value call to the pool (or else keeps all of them inline),
    whatever the value backend declares."""
    wrapper = Delegate if pool_on else InlineDelegate

    def wrapped_run_search(task, backends, *args):
        backends.value = wrapper(backends.value or backends.policy)
        return run_search(task, backends, *args)

    monkeypatch.setattr(cli, "run_search", wrapped_run_search)
    argv = ["run", *map(str, TASKS), *backend_args, *SEARCH, "--workers", str(workers)]
    assert main(argv + ["--out", str(out_dir)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def assert_complete(files):
    names = set(files)
    assert "report.json" in names
    for task in TASKS:
        assert {f"{task.stem}.trace.jsonl", f"{task.stem}.tree.jsonl"} <= names
    assert any(name.endswith(".reflections.jsonl") for name in names)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("pool_on", [False, True])
def test_oracle_batch_files_match_across_workers_and_value_pool(
    tmp_path, monkeypatch, workers, pool_on
):
    reference = run_batch(tmp_path / "ref", ORACLES, 1, False, monkeypatch)
    assert_complete(reference)
    assert run_batch(tmp_path / "run", ORACLES, workers, pool_on, monkeypatch) == reference


class _Reply:
    def __init__(self, status_code, texts=(), text=""):
        self.status_code = status_code
        self.text = text
        self._texts = list(texts)

    def json(self):
        return {"choices": [{"message": {"content": t}} for t in self._texts]}


class PromptSession:
    """A chat server stand-in whose answer is a function of the request
    alone: reflection prompts get a fixed text, value and policy prompts
    the make-24 oracles' answers, seeded from the prompt."""

    def __init__(self):
        self.policy = Game24PolicyOracle(0.4, seed=3)
        self.value = Game24ValueOracle(0.8, seed=5)
        self.posts = 0
        self._lock = threading.Lock()

    def post(self, endpoint, json=None, headers=None, timeout=None):
        with self._lock:
            self.posts += 1
        prompt, n = json["messages"][0]["content"], json["n"]
        if prompt.endswith("Reflection:"):
            return _Reply(200, ["Try a different first step."] * n)
        oracle = self.value if "correctness score is" in prompt else self.policy
        try:
            return _Reply(200, oracle.propose(prompt, n, stable_seed(prompt)))
        except BackendError as exc:
            return _Reply(400, text=str(exc))

    def mount(self, prefix, adapter):
        pass

    def close(self):
        pass


class NoPosts:
    """A session for a warm cache: any request is a test failure."""

    def __init__(self):
        self.posts = 0

    def post(self, *args, **kwargs):
        self.posts += 1
        raise AssertionError("a warm-cache run sent a request")

    def mount(self, prefix, adapter):
        pass

    def close(self):
        pass


def test_cached_http_batch_files_match_cold_and_warm(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    spec = HTTP.format(cache)
    backend_args = ["--backend", spec]

    cold_session = PromptSession()
    monkeypatch.setattr(requests, "Session", lambda: cold_session)
    cold = run_batch(tmp_path / "cold", backend_args, 3, True, monkeypatch)
    assert_complete(cold)
    assert cold_session.posts > 0

    warm_session = NoPosts()
    monkeypatch.setattr(requests, "Session", lambda: warm_session)
    assert run_batch(tmp_path / "warm", backend_args, 1, False, monkeypatch) == cold
    assert warm_session.posts == 0
