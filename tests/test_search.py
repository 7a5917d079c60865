"""Search engine tests across the four variants."""

import sys
import threading
import types

import pytest

from agentsearch.backends import (
    Game24PolicyOracle,
    Game24ValueOracle,
    ScriptedBackend,
    ScriptRule,
    static_backend,
)
from agentsearch.envs import TaskSpec
from agentsearch.prompts import DEFAULT_REFLECTIONS_HEADER
from agentsearch.reflection import ReflectionStore
from agentsearch.search import VARIANTS, BackendSet, SearchConfig, _CountingBackend, run_search
from agentsearch.templates import load_template_set
from agentsearch.trace import TraceWriter

from helpers import FailingBackend, SlowBackend


class RecordingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def propose(self, prompt: str, n: int, seed: int) -> list:
        self.calls.append({"prompt": prompt, "n": n, "seed": seed})
        return self.inner.propose(prompt, n, seed)


def game24_task(numbers):
    tid = "g" + "-".join(str(n) for n in numbers)
    return TaskSpec(task_id=tid, kind="game24", payload={"numbers": list(numbers)})


def oracle_backends(p=1.0, accuracy=1.0, reflection_text="Try a different first step."):
    return BackendSet(
        policy=Game24PolicyOracle(p, seed=1),
        value=Game24ValueOracle(accuracy, seed=2),
        reflection=static_backend(reflection_text),
    )


@pytest.fixture(scope="module")
def game24_templates():
    return load_template_set("game24")


@pytest.fixture(scope="module")
def solution_templates():
    return load_template_set("solution")


# ---------------------------------------------------------------------------
# config resolution and validation


def test_config_resolution_fills_kind_defaults():
    cfg = SearchConfig().resolved("game24")
    assert (cfg.depth_limit, cfg.lam, cfg.skip_simulation) == (5, 0.5, False)
    cfg = SearchConfig().resolved("solution")
    assert (cfg.depth_limit, cfg.lam, cfg.skip_simulation) == (8, 0.8, True)
    cfg = SearchConfig().resolved("shop")
    assert (cfg.depth_limit, cfg.lam, cfg.skip_simulation) == (15, 0.8, False)
    # explicit values win over kind defaults
    cfg = SearchConfig(depth_limit=3, lam=0.25, skip_simulation=True).resolved("game24")
    assert (cfg.depth_limit, cfg.lam, cfg.skip_simulation) == (3, 0.25, True)


def test_config_resolution_leaves_original_untouched():
    base = SearchConfig()
    base.resolved("game24")
    assert base.depth_limit is None and base.lam is None


def test_config_validation_errors():
    with pytest.raises(ValueError):
        SearchConfig().resolved("chess")
    for bad in (
        SearchConfig(variant="bfs"),
        SearchConfig(value_mode="sometimes"),
        SearchConfig(prompt_style="poetry"),
        SearchConfig(n=0),
        SearchConfig(k=0),
        SearchConfig(depth_limit=0),
        SearchConfig(w=-0.5),
        SearchConfig(w=float("nan")),
        SearchConfig(w=float("inf")),
        SearchConfig(lam=1.5),
        SearchConfig(prune_threshold=-0.1),
        SearchConfig(reflection_limit=-1),
    ):
        with pytest.raises(ValueError):
            bad.resolved("game24")


# ---------------------------------------------------------------------------
# mcts happy path


def test_mcts_perfect_oracle_succeeds_in_first_episode(game24_templates):
    result = run_search(
        game24_task([4, 9, 10, 13]),
        oracle_backends(p=1.0),
        game24_templates,
        SearchConfig(n=5, k=10, seed=0),
    )
    assert result.success
    assert result.terminate_reason == "success"
    assert result.episodes_used == 1
    assert result.best_reward == 1.0
    assert "Remaining numbers: 24" in result.best_trajectory
    # a 4-number puzzle needs 3 combinations: at most 3 expansions
    assert result.nodes_expanded <= 3
    assert result.proposals <= 3 * 5
    # the winning reward was backpropagated before terminating
    assert result.tree.root.visits == 1
    assert result.tree.root.value == 1.0
    best = result.tree.node(result.best_node)
    assert best.is_terminal and best.reward == 1.0


def test_mcts_budget_exhausted_counts_episodes(game24_templates):
    result = run_search(
        game24_task([1, 1, 1, 1]),  # unsolvable: every episode fails
        oracle_backends(p=0.0),
        game24_templates,
        SearchConfig(n=2, k=4, seed=3),
    )
    assert not result.success
    assert result.terminate_reason in ("budget_exhausted", "tree_exhausted")
    if result.terminate_reason == "budget_exhausted":
        assert result.episodes_used == 4
    assert result.best_reward == 0.0
    assert result.proposals <= 4 * 2 * 5  # k * n * depth_limit


def test_mcts_static_thoughts_exhaust_shallow_tree(game24_templates):
    result = run_search(
        game24_task([1, 4, 6, 9]),
        BackendSet(
            policy=static_backend("pondering the numbers"),
            value=static_backend("the correctness score is 5"),
            reflection=static_backend("reflect"),
        ),
        game24_templates,
        SearchConfig(n=1, k=10, depth_limit=2, seed=0),
    )
    assert result.terminate_reason == "tree_exhausted"
    assert result.episodes_used == 2  # episode 2 finds nothing selectable
    assert not result.success
    deepest = [n for n in result.tree.nodes if n.depth == 2]
    assert deepest and all(n.exhausted and not n.children for n in deepest)
    # truncated (non-terminal) rollouts never trigger reflections
    assert result.backend_calls["reflection"]["calls"] == 0


def test_mcts_value_mode_none_makes_no_value_calls(game24_templates):
    result = run_search(
        game24_task([4, 9, 10, 13]),
        oracle_backends(p=1.0),
        game24_templates,
        SearchConfig(n=4, k=8, value_mode="none", seed=1),
    )
    assert result.success
    assert result.backend_calls["value"]["calls"] == 0


def test_mcts_sc_only_makes_no_value_calls(game24_templates):
    result = run_search(
        game24_task([4, 9, 10, 13]),
        oracle_backends(p=1.0),
        game24_templates,
        SearchConfig(n=4, k=8, value_mode="sc_only", seed=1),
    )
    assert result.success
    assert result.backend_calls["value"]["calls"] == 0


def test_mcts_reflects_on_failed_terminals(game24_templates):
    result = run_search(
        game24_task([1, 1, 1, 1]),
        oracle_backends(p=0.0),
        game24_templates,
        SearchConfig(n=2, k=3, seed=5),
    )
    assert result.backend_calls["reflection"]["calls"] == result.episodes_used
    assert len(result.reflections) == result.episodes_used
    assert all(r.reflection == "Try a different first step." for r in result.reflections)


def test_whitespace_reflections_are_neither_stored_nor_traced(game24_templates):
    task = game24_task([1, 1, 1, 1])
    store = ReflectionStore()
    trace = TraceWriter()
    result = run_search(
        task,
        oracle_backends(p=0.0, reflection_text=" \n\t "),
        game24_templates,
        SearchConfig(n=2, k=3, seed=5),
        trace=trace,
        reflection_store=store,
    )
    assert result.backend_calls["reflection"]["calls"] == result.episodes_used == 3
    assert result.reflections == []
    assert store.select(task.task_id, 10) == []
    assert not any(e["type"] == "reflect" for e in trace.events)


def test_reflection_disabled_means_zero_reflection_calls(game24_templates):
    result = run_search(
        game24_task([1, 1, 1, 1]),
        oracle_backends(p=0.0),
        game24_templates,
        SearchConfig(n=2, k=3, reflection_enabled=False, seed=5),
    )
    assert result.backend_calls["reflection"]["calls"] == 0
    assert result.reflections == []


def test_backend_error_aborts_episode_but_not_run(game24_templates):
    backends = BackendSet(
        policy=FailingBackend(Game24PolicyOracle(1.0, seed=1), failures=1),
        value=Game24ValueOracle(1.0, seed=2),
        reflection=static_backend("r"),
    )
    trace = TraceWriter()
    result = run_search(
        game24_task([4, 9, 10, 13]),
        backends,
        game24_templates,
        SearchConfig(n=5, k=5, seed=0),
        trace=trace,
    )
    assert result.success
    assert result.episodes_used == 2  # episode 1 was aborted by the error
    errored = [e for e in trace.events if e["type"] == "episode_end" and "error" in e]
    assert len(errored) == 1 and errored[0]["episode"] == 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_all_episodes_erroring_reports_backend_error(game24_templates, variant):
    backends = BackendSet(
        policy=FailingBackend(Game24PolicyOracle(1.0, seed=1), failures=999),
        value=Game24ValueOracle(1.0, seed=2),
        reflection=static_backend("r"),
    )
    result = run_search(
        game24_task([4, 9, 10, 13]),
        backends,
        game24_templates,
        SearchConfig(n=5, k=3, variant=variant, seed=0),
    )
    assert not result.success
    assert result.terminate_reason == "backend_error"
    assert result.episodes_used == 3
    assert result.backend_calls["policy"]["calls"] == 3


class NoProposals:
    """A policy backend that answers every call with an empty list."""

    def propose(self, prompt: str, n: int, seed: int) -> list:
        return []


def test_mcts_episodes_given_no_proposals_each_end_with_an_error(game24_templates):
    backends = oracle_backends()
    backends.policy = NoProposals()
    trace = TraceWriter()
    result = run_search(
        game24_task([4, 9, 10, 13]),
        backends,
        game24_templates,
        SearchConfig(n=5, k=3, seed=0),
        trace=trace,
    )
    assert result.terminate_reason == "backend_error"
    ends = [e for e in trace.events if e["type"] == "episode_end"]
    assert [e["episode"] for e in ends] == [1, 2, 3]
    assert {e["error"] for e in ends} == {"policy backend returned no proposals"}
    assert len(result.tree.nodes) == 1 and result.nodes_expanded == 0
    assert result.backend_calls["value"]["calls"] == 0


def test_dfs_retries_a_node_given_no_proposals_until_k_is_spent(game24_templates):
    backends = oracle_backends()
    backends.policy = RecordingBackend(NoProposals())
    trace = TraceWriter()
    result = run_search(
        game24_task([4, 9, 10, 13]),
        backends,
        game24_templates,
        SearchConfig(n=3, k=4, variant="dfs_prune", seed=0),
        trace=trace,
    )
    assert result.terminate_reason == "backend_error"
    assert result.episodes_used == 4
    assert len(backends.policy.calls) == 4
    assert len({call["prompt"] for call in backends.policy.calls}) == 1  # the root each time
    assert len(result.tree.nodes) == 1 and result.nodes_expanded == 0
    assert [e["type"] for e in trace.events] == ["run_start", "terminate"]


# ---------------------------------------------------------------------------
# dfs with pruning


def dfs_scripted_backends():
    policy = ScriptedBackend(
        [
            ScriptRule(contains="Remaining numbers: 1 15", responses=[]),
            ScriptRule(contains="Remaining numbers: 24 8", responses=[]),
            ScriptRule(
                contains="Remaining numbers: 1 9 24",
                responses=["combine[24 - 9]", "combine[9 - 1]"],
            ),
            ScriptRule(
                contains="Remaining numbers: 6 9 5",
                responses=["combine[6 + 9]", "combine[9 - 6]"],
            ),
            ScriptRule(
                contains="Remaining numbers: 1 4 6 9",
                responses=["combine[4 * 6]", "combine[1 + 4]"],
            ),
        ]
    )
    value = ScriptedBackend(
        [
            ScriptRule(contains="Remaining numbers: 1 15", responses=["correctness score is 1"]),
            ScriptRule(contains="Remaining numbers: 24 8", responses=["correctness score is 1"]),
            ScriptRule(
                contains="Remaining numbers: 6 9 5", responses=["correctness score is 1"]
            ),
            ScriptRule(
                contains="Remaining numbers: 1 9 24", responses=["correctness score is 10"]
            ),
        ],
        default="correctness score is 1",
    )
    return BackendSet(policy=policy, value=value, reflection=static_backend("r"))


def test_dfs_prunes_low_scoring_subtrees(game24_templates):
    trace = TraceWriter()
    result = run_search(
        game24_task([1, 4, 6, 9]),
        dfs_scripted_backends(),
        game24_templates,
        SearchConfig(n=2, k=10, variant="dfs_prune", seed=0),
        trace=trace,
    )
    tree = result.tree
    # root children: [1 9 24] scored 0.75 survives, [6 9 5] scored 0.3 pruned
    strong = next(n for n in tree.nodes if "1 9 24" in (n.observation or ""))
    weak = next(n for n in tree.nodes if "6 9 5" in (n.observation or ""))
    assert strong.children and not weak.children
    prunes = [e for e in trace.events if e["type"] == "prune"]
    assert prunes[0]["kept"] == [strong.id]
    assert prunes[0]["dropped"] == [weak.id]
    # dfs never backpropagates: no visit statistics anywhere
    assert all(n.visits == 0 for n in tree.nodes)
    assert not any(e["type"] == "backprop" for e in trace.events)
    assert result.terminate_reason == "tree_exhausted"
    assert result.nodes_expanded == 2


def test_dfs_budget_is_an_expansion_cap(game24_templates):
    result = run_search(
        game24_task([1, 4, 6, 9]),
        dfs_scripted_backends(),
        game24_templates,
        SearchConfig(n=2, k=1, variant="dfs_prune", seed=0),
    )
    assert result.terminate_reason == "budget_exhausted"
    assert result.nodes_expanded == 1
    assert result.episodes_used == 1


def test_dfs_finds_winning_terminal(game24_templates):
    result = run_search(
        game24_task([4, 9, 10, 13]),
        oracle_backends(p=1.0),
        game24_templates,
        SearchConfig(n=3, k=20, variant="dfs_prune", seed=2),
    )
    assert result.success
    assert result.terminate_reason == "success"



def test_dfs_retries_a_node_whose_expansion_errored(game24_templates):
    backends = oracle_backends(p=1.0)
    backends.policy = FailingBackend(backends.policy, failures=1)
    trace = TraceWriter()
    result = run_search(
        game24_task([4, 9, 10, 13]),
        backends,
        game24_templates,
        SearchConfig(n=3, k=20, variant="dfs_prune", seed=2),
        trace=trace,
    )
    assert result.success
    # the errored root attempt counts against k, then the root is expanded
    assert result.episodes_used == result.nodes_expanded + 1
    assert result.backend_calls["policy"]["calls"] == result.episodes_used
    assert [e["episode"] for e in trace.events if e["type"] == "expand"][0] == 1


# ---------------------------------------------------------------------------
# greedy rollouts


def test_best_of_k_uses_width_one(game24_templates):
    recorder = RecordingBackend(Game24PolicyOracle(1.0, seed=1))
    backends = BackendSet(
        policy=recorder,
        value=Game24ValueOracle(1.0, seed=2),
        reflection=static_backend("r"),
    )
    result = run_search(
        game24_task([4, 9, 10, 13]),
        backends,
        game24_templates,
        SearchConfig(n=5, k=3, variant="best_of_k", seed=0),
    )
    assert result.success and result.episodes_used == 1
    assert all(call["n"] == 1 for call in recorder.calls)
    # the tree is a single chain of three steps
    assert len(result.tree.nodes) == 4
    assert all(len(n.children) <= 1 for n in result.tree.nodes)
    assert result.backend_calls["value"]["calls"] == 0  # rollouts never evaluate


def test_best_of_k_never_reflects(game24_templates):
    result = run_search(
        game24_task([1, 1, 1, 1]),
        oracle_backends(p=0.0),
        game24_templates,
        SearchConfig(n=1, k=3, variant="best_of_k", seed=4),
    )
    assert result.backend_calls["reflection"]["calls"] == 0
    assert result.episodes_used == 3
    assert result.terminate_reason == "budget_exhausted"


def test_greedy_retry_reflects_and_injects(game24_templates):
    recorder = RecordingBackend(Game24PolicyOracle(0.0, seed=3))
    backends = BackendSet(
        policy=recorder,
        value=Game24ValueOracle(1.0, seed=2),
        reflection=static_backend("Stop adding ones together."),
    )
    result = run_search(
        game24_task([1, 1, 1, 1]),
        backends,
        game24_templates,
        SearchConfig(n=1, k=2, variant="greedy_retry", seed=0),
    )
    assert result.backend_calls["reflection"]["calls"] == 2
    first_episode_calls = recorder.calls[:3]
    later_calls = recorder.calls[3:]
    assert all("Stop adding ones" not in c["prompt"] for c in first_episode_calls)
    assert later_calls
    assert all("Stop adding ones" in c["prompt"] for c in later_calls)
    assert all(DEFAULT_REFLECTIONS_HEADER in c["prompt"] for c in later_calls)


def test_greedy_retry_recovers_from_error_episode(game24_templates):
    backends = BackendSet(
        policy=FailingBackend(Game24PolicyOracle(1.0, seed=1), failures=1),
        value=Game24ValueOracle(1.0, seed=2),
        reflection=static_backend("r"),
    )
    result = run_search(
        game24_task([4, 9, 10, 13]),
        backends,
        game24_templates,
        SearchConfig(n=1, k=4, variant="greedy_retry", seed=0),
    )
    assert result.success and result.episodes_used == 2


def test_reflection_limit_selects_most_recent(game24_templates):
    task = game24_task([1, 1, 1, 1])
    store = ReflectionStore()
    for i in range(1, 7):
        store.record(task.task_id, f"traj {i}", 0.0, f"reflection number {i}", episode=i)
    recorder = RecordingBackend(Game24PolicyOracle(0.0, seed=3))
    backends = BackendSet(
        policy=recorder,
        value=Game24ValueOracle(1.0, seed=2),
        reflection=static_backend("new note"),
    )
    run_search(
        task,
        backends,
        game24_templates,
        SearchConfig(n=1, k=1, variant="greedy_retry", reflection_limit=2, seed=0),
        reflection_store=store,
    )
    prompt = recorder.calls[0]["prompt"]
    assert "reflection number 5" in prompt
    assert "reflection number 6" in prompt
    assert "reflection number 4" not in prompt


@pytest.mark.parametrize("agent_trajectories", [False, True])
def test_failed_trajectories_reach_value_prompts_and_agent_prompts_on_request(
    game24_templates, agent_trajectories
):
    task = game24_task([1, 1, 1, 1])
    store = ReflectionStore()
    store.record(task.task_id, "EARLIER FAILED TRAJECTORY", 0.0, "a reflection", episode=1)
    policy = RecordingBackend(Game24PolicyOracle(0.0, seed=3))
    value = RecordingBackend(Game24ValueOracle(1.0, seed=2))
    config = SearchConfig(
        n=2, k=1, seed=0, inject_trajectories_into_agent_prompts=agent_trajectories
    )
    run_search(
        task,
        BackendSet(policy=policy, value=value, reflection=static_backend("r")),
        game24_templates,
        config,
        reflection_store=store,
    )
    assert value.calls and policy.calls
    assert all("EARLIER FAILED TRAJECTORY" in c["prompt"] for c in value.calls)
    shown = ["EARLIER FAILED TRAJECTORY" in c["prompt"] for c in policy.calls]
    assert shown == [agent_trajectories] * len(policy.calls)
    assert all("a reflection" in c["prompt"] for c in policy.calls + value.calls)


# ---------------------------------------------------------------------------
# skip-simulation mode (solution defaults)


def solution_task(tests=None):
    return TaskSpec(
        task_id="expr",
        kind="solution",
        payload={
            "statement": "Write an arithmetic expression in x that computes f(x) = 2*x.",
            "tests": tests
            or [
                {"input": 0, "expected": 0},
                {"input": 1, "expected": 2},
                {"input": 3, "expected": 6},
            ],
        },
    )


def test_skip_simulation_winner_short_circuits(solution_templates):
    policy = ScriptedBackend(
        [
            ScriptRule(
                contains="f(x) = 2*x",
                responses=["submit[x]", "submit[x * 2]", "submit[x + 1]"],
            )
        ]
    )
    trace = TraceWriter()
    result = run_search(
        solution_task(),
        BackendSet(policy=policy, value=static_backend("correctness score is 5")),
        solution_templates,
        SearchConfig(n=3, k=5, seed=0),
        trace=trace,
    )
    assert result.success and result.episodes_used == 1
    assert result.config.skip_simulation is True
    assert not any(e["type"] == "simulate_step" for e in trace.events)
    # the winner was found at expansion time, before any evaluation
    assert result.backend_calls["value"]["calls"] == 0
    assert result.proposals == 3  # one expansion, k*n bound with L=1


def test_skip_simulation_backprops_best_partial_reward(solution_templates):
    policy = ScriptedBackend(
        [
            ScriptRule(
                contains="f(x) = 2*x",
                responses=["submit[x]", "submit[x + 1]", "think[unsure]"],
            )
        ]
    )
    trace = TraceWriter()
    result = run_search(
        solution_task(),
        BackendSet(policy=policy, value=static_backend("unparseable")),
        solution_templates,
        SearchConfig(n=3, k=1, value_mode="sc_only", seed=0),
        trace=trace,
    )
    assert not result.success
    assert result.terminate_reason == "budget_exhausted"
    # both submissions pass exactly one of three tests; tie broken to the
    # earlier node, whose reward is then backpropagated
    assert result.best_reward == pytest.approx(1 / 3)
    backprops = [e for e in trace.events if e["type"] == "backprop"]
    assert len(backprops) == 1
    assert backprops[0]["reward"] == pytest.approx(1 / 3)
    best = result.tree.node(result.best_node)
    assert best.visits == 1


# ---------------------------------------------------------------------------
# determinism and budget monotonicity


def run_once(k, trace=None):
    return run_search(
        game24_task([4, 9, 10, 13]),
        oracle_backends(p=0.3, accuracy=0.85),
        load_template_set("game24"),
        SearchConfig(n=3, k=k, seed=12),
        trace=trace,
    )


def test_identical_runs_produce_identical_traces():
    t1, t2 = TraceWriter(), TraceWriter()
    r1 = run_once(5, t1)
    r2 = run_once(5, t2)
    assert t1.to_jsonl() == t2.to_jsonl()
    assert r1.summary() == r2.summary()


def test_larger_budget_extends_the_same_run():
    t_small, t_large = TraceWriter(), TraceWriter()
    run_once(3, t_small)
    run_once(6, t_large)
    # identical except for the budget knob: the small run's episode events
    # are a prefix of the large run's (run_start/terminate carry k itself)
    small_core = t_small.events[1:-1]
    large_core = t_large.events[1 : 1 + len(small_core)]
    assert small_core == large_core


def test_summary_and_proposals_accessors(game24_templates):
    result = run_search(
        game24_task([4, 9, 10, 13]),
        oracle_backends(p=1.0),
        game24_templates,
        SearchConfig(n=2, k=2, seed=0),
    )
    summary = result.summary()
    assert summary["task_id"] == "g4-9-10-13"
    assert summary["kind"] == "game24"
    assert summary["variant"] == "mcts"
    assert summary["success"] is True
    assert summary["policy_proposals"] == result.proposals
    assert summary["expansions"] == result.nodes_expanded
    assert summary["nodes"] == len(result.tree.nodes)


# ---------------------------------------------------------------------------
# concurrent value calls


class CrashingInPoolBackend(SlowBackend):
    """Slow, and raises RuntimeError on any call off the main thread."""

    def propose(self, prompt: str, n: int, seed: int) -> list:
        with self.trips.call():
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("value backend crashed")
            return self.inner.propose(prompt, n, seed)


def test_value_pool_threads_end_with_the_run(game24_templates):
    before = threading.active_count()
    backends = oracle_backends(p=0.3, accuracy=0.85)
    backends.value = SlowBackend(backends.value)
    result = run_search(
        game24_task([4, 9, 10, 13]), backends, game24_templates, SearchConfig(n=3, k=4, seed=12)
    )
    assert backends.value.trips.peak > 1
    assert result.backend_calls["value"]["calls"] >= 3
    assert threading.active_count() == before


def test_value_pool_threads_end_when_the_run_raises(game24_templates):
    before = threading.active_count()
    backends = oracle_backends(p=0.3, accuracy=0.85)
    backends.value = CrashingInPoolBackend(backends.value)
    with pytest.raises(RuntimeError, match="value backend crashed"):
        run_search(
            game24_task([4, 9, 10, 13]),
            backends,
            game24_templates,
            SearchConfig(n=3, k=4, seed=12),
        )
    assert len(backends.value.trips.threads) > 1
    assert threading.active_count() == before


def test_counting_backend_counts_exactly_across_threads():
    counters = {"value": {"calls": 0, "proposals": 0}}
    echo = types.SimpleNamespace(propose=lambda prompt, n, seed: ["x"] * n)
    counting = _CountingBackend(echo, counters, "value")
    threads = [
        threading.Thread(target=lambda: [counting.propose("p", 2, i) for i in range(3000)])
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counters["value"] == {"calls": 24000, "proposals": 48000}
