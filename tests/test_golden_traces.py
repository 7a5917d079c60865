"""Golden traces: sha256 of each run's trace JSONL, pinned across code versions.

Any change to event order, payloads, prompts or search decisions changes a
digest. A deliberate trace change must bump ENGINE_VERSION and re-record the
digests below; a refactor must leave them alone.
"""

import hashlib
import threading

import pytest

from agentsearch.backends import (
    BackendError,
    Game24PolicyOracle,
    Game24ValueOracle,
    ScriptedBackend,
    ScriptRule,
    static_backend,
)
from agentsearch.envs import load_task
from agentsearch.search import BackendSet, SearchConfig, run_search
from agentsearch.templates import load_template_set
from agentsearch.trace import TraceWriter

from helpers import DATA_DIR, FailingBackend, RoundTrips, SlowBackend


class FailOnCalls:
    """Raises BackendError on the listed (1-based) calls, else delegates."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.fail = set(calls)
        self.count = 0

    def propose(self, prompt: str, n: int, seed: int) -> list:
        self.count += 1
        if self.count in self.fail:
            raise BackendError("synthetic outage")
        return self.inner.propose(prompt, n, seed)


def _task(kind, name):
    sub = "puzzles" if kind == "game24" else "tasks"
    return load_task(DATA_DIR / kind / sub / f"{name}.json")


def _oracles(policy=None):
    return BackendSet(
        policy=policy or Game24PolicyOracle(0.3, seed=1),
        value=Game24ValueOracle(0.85, seed=2),
        reflection=static_backend("Try a different first step."),
    )


def _scripted(responses, scores, reflection="Search before answering."):
    return BackendSet(
        policy=ScriptedBackend([ScriptRule(pattern=".", responses=responses)]),
        value=ScriptedBackend(
            [ScriptRule(pattern=".", responses=[f"the correctness score is {s}" for s in scores])]
        ),
        reflection=static_backend(reflection),
    )


DOCQA_POLICY = [
    "search[The Amber Armistice]",
    "think[the author is named on the page]",
    "lookup[born]",
    "search[unclosed",
    "finish[Paris]",
    "search[Wendeline Bellweather]",
]
SHOP_POLICY = [
    "search[bed sheets]",
    "choose[P005]",
    "click[next page]",
    "choose[twin]",
    "think[check the price]",
    "choose[Buy Now]",
    "click[back to search]",
]
SOLUTION_POLICY = ["submit[x]", "think[try a linear form]", "submit[3*x]", "submit[x + 2]"]


def _case(name):
    if name.startswith("game24-"):
        _, variant, puzzle = name.split("-", 2)
        return _task("game24", puzzle), _oracles(), SearchConfig(
            n=3, k=8, variant=variant, seed=7
        )
    if name == "mcts-skip-simulation":
        return _task("game24", "24-3-4-5-9"), _oracles(), SearchConfig(
            n=3, k=6, skip_simulation=True, seed=7
        )
    if name == "mcts-fails-once":
        policy = FailingBackend(Game24PolicyOracle(0.3, seed=1), failures=1)
        return _task("game24", "24-3-4-5-9"), _oracles(policy), SearchConfig(n=3, k=6, seed=7)
    if name == "mcts-fails-in-simulation":
        policy = FailOnCalls(Game24PolicyOracle(0.3, seed=1), calls={2, 7})
        return _task("game24", "24-3-4-5-9"), _oracles(policy), SearchConfig(n=3, k=6, seed=7)
    if name == "greedy_retry-fails-mid-rollout":
        policy = FailOnCalls(Game24PolicyOracle(0.3, seed=1), calls={2, 6})
        return _task("game24", "24-3-4-5-9"), _oracles(policy), SearchConfig(
            n=3, k=5, variant="greedy_retry", seed=7
        )
    if name == "mcts-tree-exhausted":
        backends = BackendSet(
            policy=static_backend("pondering the numbers"),
            value=static_backend("the correctness score is 5"),
            reflection=static_backend("reflect"),
        )
        return _task("game24", "24-3-4-5-9"), backends, SearchConfig(
            n=2, k=10, depth_limit=2, seed=7
        )
    if name == "docqa-mcts":
        return _task("docqa", "docqa-01"), _scripted(DOCQA_POLICY, [3, 7, 5, 9, 2]), SearchConfig(
            n=3, k=6, depth_limit=4, seed=7
        )
    if name == "shop-mcts":
        return _task("shop", "shop-01"), _scripted(SHOP_POLICY, [4, 8, 6, 2]), SearchConfig(
            n=3, k=5, depth_limit=5, seed=7
        )
    if name == "solution-mcts":
        return _task("solution", "expr-01"), _scripted(SOLUTION_POLICY, [5, 3, 8]), SearchConfig(
            n=3, k=4, seed=7
        )
    raise KeyError(name)


GOLDEN = {
    "game24-mcts-24-3-4-5-9": "409a3491ccf4fc5d7d61f7ec9c3efa4bc47db5f2cf0e3d9870044dd65f13012f",
    "game24-mcts-24-4-5-6-7": "5573dd98c8badfb3550c6d1e16ee57aa9ffbe0ac0fedb353e4db5dde45e4ef6b",
    "game24-dfs_prune-24-3-4-5-9": "506a6e0ec8144acc2f29cada17881f7851f1023e86e43c692d77e473041fb07c",
    "game24-dfs_prune-24-4-5-6-7": "e6f41b8a4d513478c0136d9c2ab6a1d1fc4c8cec065fa41c812fc51109b81a9c",
    "game24-best_of_k-24-3-4-5-9": "f78042e20d267bc9b164012b8d420220ef9b7607faa275d05601396bccfe9ffb",
    "game24-best_of_k-24-4-5-6-7": "99f587497d137b21e61709a51e214c02253b9ae92bd9e05cea9856cbb941c8d7",
    "game24-greedy_retry-24-3-4-5-9": "365baf1f4002fc8fef82a89f7f216779f31f9f8d3a80a8ef0900efcbc43cfcf2",
    "game24-greedy_retry-24-4-5-6-7": "79ecb7271a6e24b9730f17ff677b4d85b415f4465110a14513aad233c164c9fc",
    "mcts-skip-simulation": "4aae30ae55ad48cb9051856eab99d8e438346a825950b9a5e561b8276f75e9c6",
    "mcts-fails-once": "e558e9c601fd51b8dddcd4a763b8af3dc3f0c5cee9fc0fb0c8baa0b1dfcd194b",
    "mcts-fails-in-simulation": "e821bb4a84856a242684a4f3bfb3ddaf01a924e80f943707487a22bdf290334b",
    "mcts-tree-exhausted": "33e739a2b58026a93a2f03350a1ed1cb075ce5a5973d7bbd800315ded5c4cf06",
    "greedy_retry-fails-mid-rollout": "b7f6585cbe50eae63c545eea51d2fd5ee0aefffbff5ba1983a371ffb874adab4",
    "docqa-mcts": "c6542c2984c5d2b6b2f5e22bc99ed201478fb0f083aa0813082707bfc1886c4f",
    "shop-mcts": "3ccee30172cccb44c40576b0c8478036d6ca7cc8483ce9f411c38722d31d315c",
    "solution-mcts": "2bb1c639136e352156c0cac44b32866069e24e781f7711eda82db7e8d361797d",
}


def _digest(task, backends, config):
    trace = TraceWriter()
    run_search(task, backends, load_template_set(task.kind), config, trace=trace)
    return hashlib.sha256(trace.to_jsonl().encode("utf-8")).hexdigest()


def trace_digest(name):
    return _digest(*_case(name))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_matches_golden_digest(name):
    assert trace_digest(name) == GOLDEN[name]


class SlowScriptedBackend(ScriptedBackend):
    """A scripted backend whose every call takes a simulated round trip."""

    def __init__(self, rules, default):
        super().__init__(rules, default)
        self.trips = RoundTrips()

    def propose(self, prompt: str, n: int, seed: int) -> list:
        with self.trips.call():
            return super().propose(prompt, n, seed)


@pytest.mark.parametrize(
    "name",
    [
        "game24-mcts-24-3-4-5-9",
        "game24-mcts-24-4-5-6-7",
        "game24-dfs_prune-24-3-4-5-9",
        "game24-dfs_prune-24-4-5-6-7",
        "mcts-skip-simulation",
        "mcts-fails-in-simulation",
    ],
)
def test_slow_value_calls_run_concurrently_to_the_same_trace(name):
    task, backends, config = _case(name)
    backends.value = SlowBackend(backends.value)
    assert _digest(task, backends, config) == GOLDEN[name]
    assert backends.value.trips.peak > 1


def test_order_dependent_value_backend_is_called_one_at_a_time():
    task, backends, config = _case("docqa-mcts")
    backends.value = SlowScriptedBackend(backends.value.rules, backends.value.default)
    assert _digest(task, backends, config) == GOLDEN["docqa-mcts"]
    assert backends.value.trips.peak == 1
    assert backends.value.trips.threads == {threading.main_thread().name}
