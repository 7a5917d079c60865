"""Golden traces: sha256 of each run's trace JSONL, pinned across code versions.

Any change to event order, payloads, prompts or search decisions changes a
digest. A deliberate trace change re-records the digests of the runs it
changes and no others: ENGINE_VERSION is in every trace, so it stays, and the
other pins keep guarding the runs the change leaves alone. A refactor must
leave every digest alone.
"""

import hashlib
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch.backends import (
    BackendError,
    Game24PolicyOracle,
    Game24ValueOracle,
    ScriptedBackend,
    ScriptRule,
    static_backend,
)
from agentsearch.envs import load_task, make_env
from agentsearch.prompts import render_acting_steps
from agentsearch.reflection import ReflectionStore
from agentsearch.search import VARIANTS, BackendSet, SearchConfig, _Engine, run_search
from agentsearch.templates import load_template_set
from agentsearch.trace import TraceWriter
from agentsearch.valuation import VALUE_MODES

from helpers import (
    DATA_DIR,
    FailingBackend,
    RoundTrips,
    SlowBackend,
    acting_steps_from_scratch,
    value_pool,
)


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
    if name == "docqa-mcts-reasoning":
        return _task("docqa", "docqa-01"), _scripted(DOCQA_POLICY, [3, 7, 5, 9, 2]), SearchConfig(
            n=3, k=6, depth_limit=4, prompt_style="reasoning", seed=7
        )
    if name == "solution-mcts":
        return _task("solution", "expr-01"), _scripted(SOLUTION_POLICY, [5, 3, 8]), SearchConfig(
            n=3, k=4, seed=7
        )
    raise KeyError(name)


GOLDEN = {
    "game24-mcts-24-3-4-5-9": "409a3491ccf4fc5d7d61f7ec9c3efa4bc47db5f2cf0e3d9870044dd65f13012f",
    "game24-mcts-24-4-5-6-7": "5573dd98c8badfb3550c6d1e16ee57aa9ffbe0ac0fedb353e4db5dde45e4ef6b",
    "game24-dfs_prune-24-3-4-5-9": "cf1db3354a570c1104afa986a32e6ace63670a89c097e7d1fa053cc700da9126",
    "game24-dfs_prune-24-4-5-6-7": "7599634d292a379b80e3297e4cfb0d885e49bd92977456f7cab1ad427321daa2",
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
    "docqa-mcts-reasoning": "8c600201a0ec91e85bed55849fe856c2096d844566fa24bbace23ed20c6ecd21",
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


# The traces carry only the policy prompts. These digests pin the rest of
# what a run sends and stores: every value and reflection (seed, prompt)
# pair, sorted so that pool thread order cannot matter, the reflection
# store's JSONL, which holds each failed trajectory's text, and the best
# trajectory's text.
SIDE_PROMPTS = {
    "game24-mcts-24-3-4-5-9": "8ec8381ffa81667966080103da43c61cc69995f37d32e325093adf31b54756fa",
    "game24-mcts-24-4-5-6-7": "9c1e47906d3ec529330b2d482aba43c009aed936e396c41e3229c72b53bec4ea",
    "game24-dfs_prune-24-3-4-5-9": "3f515db011cc23eff9e746eda1c738b017ed04ceb42d999af1ab3219a9d3e12c",
    "game24-dfs_prune-24-4-5-6-7": "47dab6e58d3e11ce1f17f57040643e063408474e13e06d327307f6fe644eb566",
    "game24-best_of_k-24-3-4-5-9": "3bf49c21de5e8ba75b85ec9e493cdae1347a297c8bad314ebef295db4bd764ad",
    "game24-best_of_k-24-4-5-6-7": "6365c305a1e3df305f80930dc68f079df373e557a43201709b96895a3c9a0c4f",
    "game24-greedy_retry-24-3-4-5-9": "8e369da4785678aacdedaf53a44d72e727bfd67dc146955fe0a101d1d6d2bc62",
    "game24-greedy_retry-24-4-5-6-7": "5dac86c8f09d0028714c17485d23c662e21966fc4b4e875926f39a4617ee80c4",
    "mcts-skip-simulation": "d6974b6bd7fcb7cea0e7ad312e4ffa37f762a132d9a2cd69c0b0dc40085f1817",
    "mcts-fails-once": "16847f3028ad5fca32069652b239e0edd4a9934033d0cadfd36deafbd404a0e2",
    "mcts-fails-in-simulation": "1894073b9870e0b2c903d8b09295ecdabce586a3233c1fa3d683af7bb4998d2e",
    "mcts-tree-exhausted": "fe90edee4fb77e22ae4f63dbbc43c00baba247a2b9c6b376c9c909014ff7f81a",
    "greedy_retry-fails-mid-rollout": "8c87252c69db4f6a708e757252b6a63db49207eff91b87b75aa84c6596d983c6",
    "docqa-mcts": "7c258d92b0a778bd19b73c60206776ab5793460cabccb8cf82dae0acfc6fc296",
    "docqa-mcts-reasoning": "7c258d92b0a778bd19b73c60206776ab5793460cabccb8cf82dae0acfc6fc296",
    "shop-mcts": "8485c2b70045c1772f66935c600e31b611b6f376c828ec6cdb368c70263bbb74",
    "solution-mcts": "aa61fdc013f06e34894a4f4532680c8fc489991b893070fe8e402369db02d90f",
}


class PromptLog:
    """Delegates every call and keeps its (seed, prompt) pair."""

    def __init__(self, inner):
        self.inner = inner
        self.inline = getattr(inner, "inline", False)
        self.pairs = []
        self._lock = threading.Lock()

    def propose(self, prompt: str, n: int, seed: int) -> list:
        with self._lock:
            self.pairs.append((seed, prompt))
        return self.inner.propose(prompt, n, seed)


def side_prompt_digest(name):
    task, backends, config = _case(name)
    backends.value = PromptLog(backends.value)
    backends.reflection = PromptLog(backends.reflection)
    store = ReflectionStore()
    result = run_search(
        task, backends, load_template_set(task.kind), config, reflection_store=store
    )
    record = {
        "value": sorted(backends.value.pairs),
        "reflection": sorted(backends.reflection.pairs),
        "store": store.to_jsonl(),
        "best_trajectory": result.best_trajectory,
    }
    return hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest()


def test_side_prompts_cover_every_golden_case():
    assert sorted(SIDE_PROMPTS) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(SIDE_PROMPTS))
def test_value_and_reflection_prompts_match_golden_digest(name):
    assert side_prompt_digest(name) == SIDE_PROMPTS[name]


class SlowScriptedBackend(ScriptedBackend):
    """A scripted backend whose every call takes a simulated round trip."""

    def __init__(self, rules, default):
        super().__init__(rules, default)
        self.trips = RoundTrips()

    def propose(self, prompt: str, n: int, seed: int) -> list:
        with self.trips.call():
            return super().propose(prompt, n, seed)


def no_thread_start(thread):
    raise AssertionError(f"thread {thread.name} started")


@pytest.mark.parametrize("pooled", [True, False], ids=["pool", "inline"])
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
def test_slow_value_calls_run_concurrently_to_the_same_trace(name, pooled, monkeypatch):
    """On a carried pool slow value calls overlap; without one they all run
    inline and no thread starts. The trace is the same either way."""
    if not pooled:
        monkeypatch.setattr(threading.Thread, "start", no_thread_start)
    task, backends, config = _case(name)
    backends.value = SlowBackend(backends.value)
    if pooled:
        with value_pool(config.n) as backends.value_pool:
            assert _digest(task, backends, config) == GOLDEN[name]
        assert backends.value.trips.peak > 1
    else:
        assert _digest(task, backends, config) == GOLDEN[name]
        assert backends.value.trips.threads == {threading.main_thread().name}


def test_inline_value_backend_is_called_one_at_a_time():
    task, backends, config = _case("docqa-mcts")
    backends.value = SlowScriptedBackend(backends.value.rules, backends.value.default)
    with value_pool(config.n) as backends.value_pool:
        assert _digest(task, backends, config) == GOLDEN["docqa-mcts"]
    assert backends.value.trips.peak == 1
    assert backends.value.trips.threads == {threading.main_thread().name}


# -- the engine's expand/evaluate contract ------------------------------------


def assert_children_scored_once(events, variant):
    """Under mcts and dfs_prune a node is expanded at most once, and each
    evaluate event scores exactly the children of the expansion just made,
    in order. The rollout variants never evaluate."""
    expanded = set()
    last = None
    for event in events:
        if event["type"] == "expand":
            if variant in ("mcts", "dfs_prune"):
                assert event["parent"] not in expanded
            expanded.add(event["parent"])
            last = event
        elif event["type"] == "evaluate":
            assert variant in ("mcts", "dfs_prune")
            assert last is not None and event["parent"] == last["parent"]
            assert [s["id"] for s in event["scores"]] == [c["id"] for c in last["children"]]
            last = None


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_runs_score_each_expansion_once(name):
    task, backends, config = _case(name)
    trace = TraceWriter()
    run_search(task, backends, load_template_set(task.kind), config, trace=trace)
    assert_children_scored_once(trace.events, config.variant)
    if config.variant in ("mcts", "dfs_prune"):
        assert any(event["type"] == "evaluate" for event in trace.events)


SCRIPTED_CASES = {
    "game24": ("24-3-4-5-9", None),
    "docqa": ("docqa-01", DOCQA_POLICY),
    "shop": ("shop-01", SHOP_POLICY),
    "solution": ("expr-01", SOLUTION_POLICY),
}
SCORE_TEXTS = [f"the correctness score is {s}" for s in (1, 3, 5, 8, 10)] + ["no verdict"]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(SCRIPTED_CASES)), variant=st.sampled_from(VARIANTS), data=st.data()
)
def test_random_runs_score_each_expansion_once(kind, variant, data):
    name, pool = SCRIPTED_CASES[kind]
    if pool is None:
        policy = Game24PolicyOracle(data.draw(st.sampled_from([0.0, 0.3, 1.0])), seed=1)
    else:
        texts = st.sampled_from(pool + ["not an action", ""])
        policy = ScriptedBackend(
            [ScriptRule(pattern=".", responses=data.draw(st.lists(texts, min_size=1, max_size=8)))]
        )
    scores = data.draw(st.lists(st.sampled_from(SCORE_TEXTS), min_size=1, max_size=5))
    backends = BackendSet(
        policy=FailOnCalls(policy, data.draw(st.sets(st.integers(1, 12), max_size=3))),
        value=ScriptedBackend([ScriptRule(pattern=".", responses=scores)]),
        reflection=static_backend("Try another way."),
    )
    config = SearchConfig(
        n=data.draw(st.integers(1, 4)),
        k=data.draw(st.integers(1, 8)),
        depth_limit=data.draw(st.integers(1, 6)),
        variant=variant,
        value_mode=data.draw(st.sampled_from(VALUE_MODES)),
        skip_simulation=data.draw(st.booleans()),
        seed=data.draw(st.integers(0, 99)),
    )
    task = _task(kind, name)
    trace = TraceWriter()
    run_search(task, backends, load_template_set(kind), config, trace=trace)
    assert_children_scored_once(trace.events, variant)


def _random_engine(kind, variant, data):
    """An engine over a bundled task with a drawn policy (random script or
    make-24 oracle), value script and config."""
    name, pool = SCRIPTED_CASES[kind]
    if pool is None:
        policy = Game24PolicyOracle(data.draw(st.sampled_from([0.0, 0.3, 1.0])), seed=1)
    else:
        texts = st.sampled_from(pool + ["not an action", ""])
        policy = ScriptedBackend(
            [ScriptRule(pattern=".", responses=data.draw(st.lists(texts, min_size=1, max_size=8)))]
        )
    scores = data.draw(st.lists(st.sampled_from(SCORE_TEXTS), min_size=1, max_size=5))
    backends = BackendSet(
        policy=policy,
        value=ScriptedBackend([ScriptRule(pattern=".", responses=scores)]),
        reflection=static_backend("Try another way."),
    )
    config = SearchConfig(
        n=data.draw(st.integers(1, 4)),
        k=data.draw(st.integers(1, 6)),
        depth_limit=data.draw(st.integers(1, 6)),
        variant=variant,
        seed=data.draw(st.integers(0, 99)),
    ).resolved(kind)
    task = _task(kind, name)
    return _Engine(task, backends, load_template_set(kind), config, TraceWriter(), ReflectionStore())


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(SCRIPTED_CASES)), variant=st.sampled_from(VARIANTS), data=st.data()
)
def test_every_node_keeps_the_snapshot_of_its_replayed_path(kind, variant, data):
    """Siblings that repeat a text, and steps that change nothing, share
    snapshots; each node's must still be what replaying its path gives."""
    engine = _random_engine(kind, variant, data)
    engine.run()
    tree = engine.tree
    assert sorted(engine.snapshots) == [node.id for node in tree.nodes]
    fresh = make_env(kind)
    for node in tree.nodes:
        fresh.reset(engine.task)
        for step in reversed(tree.path_to_root(node.id)[:-1]):
            fresh.step(tree.node(step).action)
        assert fresh.snapshot().token == engine.snapshots[node.id].token


@pytest.mark.parametrize("kind", sorted(SCRIPTED_CASES))
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_a_finished_tree_holds_no_block_and_renders_each_path_afresh(kind, variant, data):
    """The block cache goes with the search: the returned tree holds none,
    and the acting text of any node, rebuilt on demand, is the from-scratch
    rendering of its path, as the best trajectory is at the best node."""
    result = _random_engine(kind, variant, data).run()
    tree = result.tree
    assert all(node.block is None for node in tree.nodes)
    assert result.best_trajectory == acting_steps_from_scratch(tree, result.best_node)
    for node in tree.nodes:
        assert render_acting_steps(tree, node.id) == acting_steps_from_scratch(tree, node.id)
