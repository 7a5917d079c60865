"""Acceptance checklist for the whole package.

Each test covers one numbered criterion and prints exactly one verdict line,
so running this file with -s reads as a checklist:

    [criterion 01] backprop keeps running means and visit counts: PASS
    ...

The criteria pin down the numeric core (backpropagation, selection,
valuation, self-consistency), end-to-end success targets on the bundled
puzzle suite, the ordering of search variants under matched proposal
budgets, ablation behavior, budget accounting, byte-level determinism with
trace replay, and environment snapshot fidelity. Oracles are computed
independently inside each test; tolerances and time bounds are stated
inline.
"""

import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from agentsearch.actions import ActionSample, parse_action
from agentsearch.backends import (
    Game24PolicyOracle,
    Game24ValueOracle,
    ScriptedBackend,
    ScriptRule,
    static_backend,
)
from agentsearch.envs import REGISTRY, load_task, make_env
from agentsearch.envs.base import EnvObservation, TaskSpec
from agentsearch.search import BackendSet, SearchConfig, run_search
from agentsearch.seeding import stable_seed
from agentsearch.templates import load_template_set
from agentsearch.trace import TraceWriter, replay_trace
from agentsearch.tree import (
    SearchTree,
    add_children,
    backpropagate,
    dump_tree,
    select_path,
    uct,
)
from agentsearch.valuation import combine, normalize_action_text, sc_scores

from helpers import bundled_task_files, grow_random_tree, task_metadata

REFLECT_TEXT = "Prefer combining toward factors of twenty four early."


def _verdict(label: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"[{label}] {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert not failures, f"{label}: " + "; ".join(str(f) for f in failures[:6])


@pytest.fixture(scope="module")
def game24_templates():
    return load_template_set("game24")


@pytest.fixture(scope="module")
def solution_templates():
    return load_template_set("solution")


@pytest.fixture(scope="module")
def puzzle_suite():
    return [(path, load_task(path)) for path in bundled_task_files("game24")]


def _oracle_run(task, templates, variant, k, value_mode="full", p=0.3, accuracy=0.85, n=5):
    """One search run against the tunable scripted oracles, seeded per task."""
    combo = tuple(task.payload["numbers"])
    backends = BackendSet(
        policy=Game24PolicyOracle(p, stable_seed("c6-policy", combo)),
        value=Game24ValueOracle(accuracy, stable_seed("c6-value", combo)),
        reflection=static_backend(REFLECT_TEXT),
    )
    config = SearchConfig(n=n, k=k, seed=7, variant=variant, value_mode=value_mode)
    return run_search(task, backends, templates, config)


@pytest.fixture(scope="module")
def oracle_grid(puzzle_suite, game24_templates):
    """All oracle-backed run sets shared by criteria 6, 7, and 9.

    The headline comparison holds every variant to the same total proposal
    budget: best_of_k gets ceil(proposals(mcts) / rollout length) rollouts
    of width 1, and dfs_prune gets the same expansion cap k as mcts.
    """
    grid = {"mcts30": [], "bok": [], "dfs30": [], "none30": [], "full10": [], "none10": []}
    t0 = time.perf_counter()
    for _, task in puzzle_suite:
        result = _oracle_run(task, game24_templates, "mcts", 30)
        grid["mcts30"].append(result)
        steps_per_rollout = len(task.payload["numbers"]) - 1
        bok_k = max(1, math.ceil(result.proposals / steps_per_rollout))
        grid["bok"].append(_oracle_run(task, game24_templates, "best_of_k", bok_k))
        grid["dfs30"].append(_oracle_run(task, game24_templates, "dfs_prune", 30))
    grid["c6_elapsed"] = time.perf_counter() - t0
    for label, k, mode in (("none30", 30, "none"), ("full10", 10, "full"), ("none10", 10, "none")):
        for _, task in puzzle_suite:
            grid[label].append(_oracle_run(task, game24_templates, "mcts", k, value_mode=mode))
    return grid


def _successes(results) -> int:
    return sum(1 for r in results if r.success)


# -- criterion 1: backpropagation -------------------------------------------


def test_criterion_01_backprop_running_mean():
    """Over 1000 random trees and random backprop sequences, every node's
    value is the arithmetic mean of the rewards sent through it (1e-9) and
    the root's visit count equals the number of episodes. Under 10 s."""
    rng = random.Random(101)
    failures = []
    t0 = time.perf_counter()
    for trial in range(1000):
        tree, _ = grow_random_tree(rng)
        history = {}
        episodes = rng.randint(1, 8)
        for _ in range(episodes):
            start = rng.randrange(len(tree.nodes))
            reward = rng.random()
            backpropagate(tree, start, reward)
            node_id = start
            while node_id is not None:
                history.setdefault(node_id, []).append(reward)
                node_id = tree.node(node_id).parent
        if tree.root.visits != episodes:
            failures.append(f"trial {trial}: root visits {tree.root.visits} != {episodes}")
            break
        for node in tree.nodes:
            rewards = history.get(node.id, [])
            if node.visits != len(rewards):
                failures.append(f"trial {trial}: node {node.id} visits off")
                break
            if rewards and abs(node.value - sum(rewards) / len(rewards)) > 1e-9:
                failures.append(f"trial {trial}: node {node.id} value off mean")
                break
        if failures:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, bound is 10s")
    _verdict(
        "criterion 01: backprop keeps running means and visit counts",
        failures,
        f"1000 trees in {elapsed:.1f}s",
    )


# -- criterion 2: selection ---------------------------------------------------


def _argmax_descent(tree):
    """Independent oracle: descend by stored value alone, lowest id on ties."""
    current = tree.root
    if current.exhausted:
        return None
    while current.children:
        candidates = [tree.node(c) for c in current.children if not tree.node(c).exhausted]
        if not candidates:
            return None
        assert all(c.visits > 0 for c in candidates)
        current = max(candidates, key=lambda c: (c.value, -c.id))
    return current.id


def test_criterion_02_selection():
    failures = []
    # (a) with w=0 selection equals a pure argmax-value descent.
    rng = random.Random(202)
    for trial in range(100):
        tree, _ = grow_random_tree(rng)
        for node in list(tree.nodes):
            backpropagate(tree, node.id, rng.random())
        got = select_path(tree, 0.0)
        want = _argmax_descent(tree)
        if got != want:
            failures.append(f"trial {trial}: w=0 selected {got}, argmax descent gives {want}")
            break
    # (b) with equal values and w=1, every root child is visited within
    # child-count episodes.
    for count in range(2, 7):
        tree = SearchTree.create("q")
        steps = [
            (
                ActionSample(kind="env_action", raw=f"go[{i}]", verb="go", argument=str(i)),
                EnvObservation("ok"),
            )
            for i in range(count)
        ]
        child_ids = add_children(tree, 0, steps)
        seen = set()
        for _ in range(count):
            leaf = select_path(tree, 1.0)
            seen.add(leaf)
            backpropagate(tree, leaf, 0.5)
        if seen != set(child_ids):
            failures.append(f"{count} equal children: only {sorted(seen)} visited")
    # (c) uct spot checks against independent arithmetic, 1e-12.
    for value in (0.0, 0.25, 0.5, 1.0):
        for visits in (1, 2, 5, 100):
            for parent_visits in (1, 3, 10, 1000):
                for w in (0.0, 0.5, 1.0, 2.0):
                    want = value + w * math.sqrt(math.log(parent_visits) / visits)
                    got = uct(value, visits, parent_visits, w)
                    if abs(got - want) > 1e-12:
                        failures.append(f"uct({value},{visits},{parent_visits},{w}) off")
    _verdict("criterion 02: selection greedy at w=0, covering at w=1, uct exact", failures)


# -- criterion 3: score combination ------------------------------------------


def test_criterion_03_combine_and_lambda_defaults():
    failures = []
    rng = random.Random(303)
    pairs = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    pairs += [(rng.random(), rng.random()) for _ in range(200)]
    for lam in (0.0, 0.5, 0.8, 1.0):
        for lm, sc in pairs:
            if combine(lm, sc, lam) != lam * lm + (1.0 - lam) * sc:
                failures.append(f"combine({lm},{sc},{lam}) inexact")
    lambdas = {kind: env.lam for kind, env in REGISTRY.items()}
    if lambdas != {"game24": 0.5, "docqa": 0.5, "shop": 0.8, "solution": 0.8}:
        failures.append(f"lambda defaults are {lambdas}")
    for kind, want in lambdas.items():
        got = SearchConfig().resolved(kind).lam
        if got != want:
            failures.append(f"resolved lambda for {kind} is {got}, want {want}")
    _verdict("criterion 03: combined score exact on the lambda grid, defaults per kind", failures)


# -- criterion 4: self-consistency --------------------------------------------


def test_criterion_04_sc_score_brute_force():
    failures = []
    rng = random.Random(404)
    pool = [
        ActionSample(kind="env_action", raw="combine[1 + 2]", verb="combine", argument="1 + 2"),
        ActionSample(kind="env_action", raw="combine[3 * 4]", verb="combine", argument="3 * 4"),
        ActionSample(kind="env_action", raw="combine[9 - 5]", verb="combine", argument="9 - 5"),
        ActionSample(kind="thought", raw="think[try pairs that reach 24]"),
    ]
    for trial in range(300):
        size = rng.randint(1, 8)
        picks = [rng.randrange(len(pool)) for _ in range(size)]
        siblings = [pool[i] for i in picks]
        by_identity = Counter(picks)
        by_text = Counter(normalize_action_text(s) for s in siblings)
        scores = sc_scores(siblings)
        for index in range(size):
            got = scores[index]
            if got != by_identity[picks[index]] / size:
                failures.append(f"trial {trial} index {index}: {got} vs identity count")
                break
            if got != by_text[normalize_action_text(siblings[index])] / size:
                failures.append(f"trial {trial} index {index}: {got} vs text count")
                break
        if failures:
            break
    distinct = pool[:3]
    if sc_scores(distinct) != [1 / len(distinct)] * len(distinct):
        failures.append("all-distinct sibling set must score exactly 1/n")
    _verdict("criterion 04: sc frequency matches brute-force counting", failures)


# -- criterion 5: bundled suite ------------------------------------------------


def test_criterion_05_bundled_suite(puzzle_suite, game24_templates):
    failures = []
    if len(puzzle_suite) != 50:
        failures.append(f"bundled suite holds {len(puzzle_suite)} puzzles, want 50")
    replays = 0
    for path, task in puzzle_suite:
        solutions = task_metadata(path).get("solutions", [])
        if not solutions:
            failures.append(f"{task.task_id}: no packaged solutions")
            continue
        env = make_env(task.kind)
        for steps in solutions:
            env.reset(task)
            obs = None
            for step in steps:
                obs = env.step(parse_action(f"combine[{step}]", env.grammar))
                replays += 1
            if obs is None or not obs.terminal or obs.reward != 1.0:
                failures.append(f"{task.task_id}: solution {steps} does not replay to 1.0")
                break
    t0 = time.perf_counter()
    solved_first = 0
    for _, task in puzzle_suite:
        result = _oracle_run(task, game24_templates, "mcts", 30, p=1.0, accuracy=1.0)
        if result.success and result.episodes_used == 1:
            solved_first += 1
    elapsed = time.perf_counter() - t0
    if solved_first != len(puzzle_suite):
        failures.append(f"perfect policy solved {solved_first}/{len(puzzle_suite)} in episode 1")
    if elapsed >= 30.0:
        failures.append(f"perfect-policy sweep took {elapsed:.1f}s, bound is 30s")
    _verdict(
        "criterion 05: packaged solutions replay to 1.0, perfect policy solves all in episode 1",
        failures,
        f"{replays} replays, sweep {elapsed:.1f}s",
    )


# -- criterion 6: variant ordering ---------------------------------------------


def test_criterion_06_variant_ordering(oracle_grid, puzzle_suite):
    failures = []
    total = len(puzzle_suite)
    mcts = _successes(oracle_grid["mcts30"])
    bok = _successes(oracle_grid["bok"])
    dfs = _successes(oracle_grid["dfs30"])
    if mcts / total < bok / total + 0.10:
        failures.append(f"tree search {mcts}/{total} not 10 points above best-of-k {bok}/{total}")
    if mcts <= dfs:
        failures.append(f"tree search {mcts} not strictly above dfs pruning {dfs}")
    if oracle_grid["c6_elapsed"] >= 300.0:
        failures.append(f"comparison took {oracle_grid['c6_elapsed']:.0f}s, bound is 300s")
    _verdict(
        "criterion 06: mcts beats matched-budget best-of-k by 10+ points and dfs strictly",
        failures,
        f"mcts {mcts}/50, best_of_k {bok}/50, dfs_prune {dfs}/50, {oracle_grid['c6_elapsed']:.1f}s",
    )


# -- criterion 7: ablations ------------------------------------------------------


def _reflection_rules():
    """Game of 24 on [1, 4, 6], scripted so only reflected prompts win.

    Without the reflections header the backend walks into dead ends at both
    frontier states; with it the winning step appears. Rule order matters:
    reflected rules first, then states deepest first so substring matches on
    the trajectory pick the current state.
    """
    return [
        ScriptRule(
            pattern=r"(?s)The following reflection.*Remaining numbers: 1 24",
            responses=["combine[1 * 24]"],
        ),
        ScriptRule(
            pattern=r"(?s)The following reflection.*Remaining numbers: 1 4 6",
            responses=["combine[4 * 6]"],
        ),
        ScriptRule(contains="Remaining numbers: 1 10", responses=["combine[1 + 10]", "combine[10 - 1]"]),
        ScriptRule(contains="Remaining numbers: 1 24", responses=["combine[24 - 1]", "combine[1 + 24]"]),
        ScriptRule(contains="Remaining numbers: 1 4 6", responses=["combine[4 + 6]", "combine[4 * 6]"]),
    ]


def _reflection_run(game24_templates, enabled: bool):
    task = TaskSpec(task_id="g24-1-4-6", kind="game24", payload={"numbers": [1, 4, 6]})
    backends = BackendSet(
        policy=ScriptedBackend(_reflection_rules()),
        value=static_backend("Looks workable so far. correctness score is 5"),
        reflection=static_backend("Multiply four by six first, then use the one."),
    )
    config = SearchConfig(n=2, k=3, seed=7, variant="mcts", reflection_enabled=enabled)
    return run_search(task, backends, game24_templates, config)


def test_criterion_07_ablations(oracle_grid, game24_templates):
    failures = []
    full30 = _successes(oracle_grid["mcts30"])
    none30 = _successes(oracle_grid["none30"])
    full10 = _successes(oracle_grid["full10"])
    none10 = _successes(oracle_grid["none10"])
    if none30 >= full30:
        failures.append(f"value off scored {none30} vs {full30} with values on (k=30)")
    if none10 >= full10:
        failures.append(f"value off scored {none10} vs {full10} with values on (k=10)")
    with_reflection = _reflection_run(game24_templates, enabled=True)
    if not with_reflection.success or with_reflection.episodes_used != 2:
        failures.append(
            f"reflection run: success={with_reflection.success} "
            f"episodes={with_reflection.episodes_used}, want episode-2 success"
        )
    if with_reflection.backend_calls["reflection"]["calls"] != 1:
        failures.append("reflection run should call the reflection backend exactly once")
    if len(with_reflection.reflections) != 1:
        failures.append("reflection run should record exactly one reflection")
    without = _reflection_run(game24_templates, enabled=False)
    if without.success:
        failures.append("same scripted backend must fail with reflection disabled")
    if without.backend_calls["reflection"]["calls"] != 0:
        failures.append("reflection disabled must mean zero reflection backend calls")
    _verdict(
        "criterion 07: value-off degrades success, reflection converts failure to success",
        failures,
        f"values on/off {full30}/{none30} at k=30, {full10}/{none10} at k=10",
    )


# -- criterion 8: skip-simulation -----------------------------------------------


_SOLUTION_TESTS = [
    {"input": 0, "expected": 1},
    {"input": 1, "expected": 3},
    {"input": 2, "expected": 5},
]


def _pass_fraction(expression: str) -> float:
    passed = 0
    for row in _SOLUTION_TESTS:
        try:
            value = eval(expression, {"__builtins__": {}}, {"x": Fraction(row["input"])})
        except Exception:
            continue
        passed += int(value == Fraction(row["expected"]))
    return passed / len(_SOLUTION_TESTS)


def _skip_sim_run(solution_templates):
    task = TaskSpec(
        task_id="expr-accept",
        kind="solution",
        payload={
            "statement": "Find an expression in x that passes the hidden tests.",
            "tests": _SOLUTION_TESTS,
        },
    )
    rules = [
        ScriptRule(
            contains="consider linear forms",
            responses=["submit[x * x + 1]", "submit[2 * x]", "submit[0]"],
        ),
        ScriptRule(
            contains="Find an expression",
            responses=["submit[x + 1]", "submit[3 * x]", "think[consider linear forms]"],
        ),
    ]
    backends = BackendSet(
        policy=ScriptedBackend(rules),
        value=static_backend("Plausible start. correctness score is 5"),
        reflection=static_backend("Quadratic terms may be needed."),
    )
    config = SearchConfig(n=3, k=2, seed=7, variant="mcts")
    trace = TraceWriter()
    result = run_search(task, backends, solution_templates, config, trace=trace)
    return result, trace


def test_criterion_08_skip_simulation(solution_templates):
    failures = []
    result, trace = _skip_sim_run(solution_templates)
    if not result.config.skip_simulation:
        failures.append("solution runs must resolve skip_simulation to True")
    if any(event["type"] == "simulate_step" for event in trace.events):
        failures.append("skip-simulation run must not emit simulate_step events")
    candidates = [
        node
        for node in result.tree.nodes
        if node.is_terminal and node.action is not None and node.action.verb == "submit"
    ]
    if len(candidates) < 4:
        failures.append(f"expected several submit candidates, found {len(candidates)}")
    fractions = {node.id: _pass_fraction(node.action.argument) for node in candidates}
    for node in candidates:
        if node.reward != fractions[node.id]:
            failures.append(f"node {node.id} reward {node.reward} != recomputed {fractions[node.id]}")
    best_possible = max(fractions.values())
    if result.best_reward != best_possible:
        failures.append(f"returned {result.best_reward}, exhaustive best is {best_possible}")
    if fractions.get(result.best_node) != best_possible:
        failures.append("returned candidate is not the pass-fraction argmax")
    _verdict(
        "criterion 08: skip-simulation returns the candidate with the best test pass rate",
        failures,
        f"best pass fraction {best_possible:.3f} over {len(candidates)} candidates",
    )


# -- criterion 9: budget accounting -----------------------------------------------


class _TapBackend:
    """Appends its role to a shared log before delegating."""

    def __init__(self, inner, log, role):
        self.inner = inner
        self.log = log
        self.role = role

    def propose(self, prompt: str, n: int, seed: int) -> list:
        self.log.append(self.role)
        return self.inner.propose(prompt, n, seed)


def test_criterion_09_budgets(oracle_grid, game24_templates, solution_templates):
    failures = []
    checked = 0
    for label in ("mcts30", "bok", "dfs30", "none30", "full10", "none10"):
        for result in oracle_grid[label]:
            bound = result.config.k * result.config.n * result.config.depth_limit
            if result.proposals > bound:
                failures.append(f"{label}/{result.task_id}: {result.proposals} proposals > {bound}")
            checked += 1
    skip_result, _ = _skip_sim_run(solution_templates)
    skip_bound = skip_result.config.k * skip_result.config.n
    if skip_result.proposals > skip_bound:
        failures.append(f"skip-simulation run made {skip_result.proposals} proposals > k*n={skip_bound}")
    log = []
    task = TaskSpec(task_id="g24-3-8", kind="game24", payload={"numbers": [3, 8]})
    backends = BackendSet(
        policy=_TapBackend(
            ScriptedBackend([ScriptRule(contains="Remaining numbers: 3 8", responses=["combine[3 * 8]"])]),
            log,
            "policy",
        ),
        value=_TapBackend(static_backend("correctness score is 5"), log, "value"),
        reflection=_TapBackend(static_backend("unused"), log, "reflection"),
    )
    config = SearchConfig(n=2, k=50, seed=7, variant="mcts")
    result = run_search(task, backends, game24_templates, config)
    if not result.success or result.episodes_used != 1:
        failures.append("instant win should succeed in episode 1")
    if log != ["policy"]:
        failures.append(f"early termination leaked backend calls: {log}")
    _verdict(
        "criterion 09: proposals bounded by k*n*L (k*n when skipping simulation), wins halt all calls",
        failures,
        f"{checked} runs checked",
    )


# -- criterion 10: determinism and replay -------------------------------------------


def _traced_oracle_run(task, templates, variant, k):
    combo = tuple(task.payload["numbers"])
    backends = BackendSet(
        policy=Game24PolicyOracle(0.3, stable_seed("c6-policy", combo)),
        value=Game24ValueOracle(0.85, stable_seed("c6-value", combo)),
        reflection=static_backend(REFLECT_TEXT),
    )
    config = SearchConfig(n=3, k=k, seed=7, variant=variant)
    trace = TraceWriter()
    result = run_search(task, backends, templates, config, trace=trace)
    return result, trace


def _rebuild_tree(events, root_observation):
    """Independent reconstruction of the dump rows from trace events."""
    nodes = {
        0: {
            "id": 0,
            "parent": None,
            "action": None,
            "observation": root_observation,
            "value": 0.0,
            "visits": 0,
            "terminal": False,
            "reward": None,
        }
    }
    for event in events:
        if event["type"] == "expand":
            for child in event["children"]:
                nodes[child["id"]] = {
                    "id": child["id"],
                    "parent": event["parent"],
                    "action": child["action"],
                    "observation": child["observation"],
                    "value": 0.0,
                    "visits": 0,
                    "terminal": child["terminal"],
                    "reward": child["reward"],
                }
        elif event["type"] == "evaluate":
            for entry in event["scores"]:
                node = nodes[entry["id"]]
                if node["visits"] == 0:
                    node["value"] = entry["combined"]
        elif event["type"] == "backprop":
            for node_id in event["path"]:
                node = nodes[node_id]
                count = node["visits"] + 1
                node["visits"] = count
                if count == 1:
                    node["value"] = event["reward"]
                else:
                    node["value"] = (node["value"] * (count - 1) + event["reward"]) / count
    return [nodes[i] for i in sorted(nodes)]


def test_criterion_10_determinism_and_replay(puzzle_suite, game24_templates):
    failures = []
    tasks = [task for _, task in puzzle_suite[:3]]
    for task in tasks:
        for variant, k in (("mcts", 8), ("dfs_prune", 6)):
            first, trace_a = _traced_oracle_run(task, game24_templates, variant, k)
            second, trace_b = _traced_oracle_run(task, game24_templates, variant, k)
            if trace_a.to_jsonl() != trace_b.to_jsonl():
                failures.append(f"{task.task_id}/{variant}: repeated run not byte-identical")
                continue
            summary = replay_trace(trace_a.events)
            if summary["success"] != first.success or summary["nodes"] != len(first.tree.nodes):
                failures.append(f"{task.task_id}/{variant}: replay summary disagrees with result")
            root_obs = make_env(task.kind).reset(task).text
            rebuilt = _rebuild_tree(trace_a.events, root_obs)
            if rebuilt != dump_tree(first.tree):
                failures.append(f"{task.task_id}/{variant}: events do not rebuild the dumped tree")
    _verdict(
        "criterion 10: reruns byte-identical, replay verifies, events rebuild the tree",
        failures,
        f"{len(tasks)} tasks x 2 variants",
    )


# -- criterion 11: environment fidelity ----------------------------------------------


_STATE_RE = re.compile(r"Remaining numbers: ([^\n]*)")


def _game24_actions(rng, task):
    """Interactive generator: mostly plausible combines over the parsed pool."""
    pool = [str(n) for n in task.payload["numbers"]]

    def step(last_text):
        matches = _STATE_RE.findall(last_text)
        if matches:
            pool[:] = matches[-1].split()
        roll = rng.random()
        if roll < 0.6 and len(pool) >= 2:
            a, b = rng.sample(pool, 2)
            op = rng.choice("+-*/")
            return f"combine[{a} {op} {b}]"
        if roll < 0.75:
            return "think[look for a useful pair]"
        return rng.choice(["combine[99 + 98]", "combine[1 +]", "lookup[nothing]"])

    return step


def _docqa_actions(rng, task):
    titles = list(task.payload["corpus"])
    words = [w for w in re.findall(r"\w+", task.payload["question"]) if len(w) > 3]

    def step(last_text):
        roll = rng.random()
        if roll < 0.4:
            return f"Search[{rng.choice(titles)}]"
        if roll < 0.6:
            return f"Lookup[{rng.choice(words)}]"
        if roll < 0.75:
            return f"Search[{rng.choice(words)}]"
        if roll < 0.85:
            return "Think[scan the page for the city]"
        return f"Finish[{rng.choice([task.payload['answer'], 'Umbervale', 'a guess'])}]"

    return step


def _shop_actions(rng, task):
    catalog = task.payload["catalog"]
    pids = [p["id"] for p in catalog]
    values = sorted({v for p in catalog for vals in p.get("options", {}).values() for v in vals})
    words = [w for w in re.findall(r"\w+", task.payload["instruction"]) if len(w) > 3]

    def step(last_text):
        roll = rng.random()
        if roll < 0.25:
            return f"search[{' '.join(rng.sample(words, min(2, len(words))))}]"
        if roll < 0.45:
            return f"click[{rng.choice(pids)}]"
        if roll < 0.6 and values:
            return f"click[{rng.choice(values)}]"
        if roll < 0.7:
            return "click[next page]"
        if roll < 0.8:
            return "click[back to search]"
        if roll < 0.9:
            return "click[buy now]"
        return "think[compare the prices]"

    return step


def _solution_actions(rng, task):
    del task
    pool = ["x + 1", "2 * x", "x * x", "3 * x + 2", "(x", "1 / 0", "x / (x - 1)"]

    def step(last_text):
        if rng.random() < 0.4:
            return "think[consider a linear form]"
        return f"submit[{rng.choice(pool)}]"

    return step


_ACTION_MAKERS = {
    "game24": _game24_actions,
    "docqa": _docqa_actions,
    "shop": _shop_actions,
    "solution": _solution_actions,
}


def _run_recorded(env, task, stepper, rng):
    """Roll a random episode, keeping pre-step snapshots and observations."""
    obs = env.reset(task)
    last_text = obs.text
    snapshots = []
    actions = []
    observed = []
    for _ in range(rng.randint(2, 10)):
        snapshots.append(env.snapshot())
        raw = stepper(last_text)
        action = parse_action(raw, env.grammar)
        result = env.step(action)
        actions.append(action)
        observed.append((result.text, result.reward, result.terminal))
        last_text = result.text
        if result.terminal:
            break
    return snapshots, actions, observed


def test_criterion_11_environment_fidelity():
    failures = []
    sequences = 0
    for kind, maker in _ACTION_MAKERS.items():
        tasks = [load_task(path) for path in bundled_task_files(kind)[:3]]
        rng = random.Random(f"fidelity-{kind}")
        env = make_env(kind)
        for trial in range(200):
            task = tasks[trial % len(tasks)]
            stepper = maker(rng, task)
            snapshots, actions, observed = _run_recorded(env, task, stepper, rng)
            if not actions:
                continue
            cut = rng.randrange(len(snapshots))
            env.restore(snapshots[cut])
            replayed = []
            for action in actions[cut:]:
                result = env.step(action)
                replayed.append((result.text, result.reward, result.terminal))
            if replayed != observed[cut:]:
                failures.append(f"{kind} trial {trial}: replay diverged after restore")
                break
            sequences += 1
    failures += _shop_reward_hand_count()
    _verdict(
        "criterion 11: snapshot/restore replays identically, purchase rewards hand-count",
        failures,
        f"{sequences} sequences, 100 random catalogs",
    )


_COLORS = ["red", "navy", "olive", "teal", "plum"]
_SIZES = ["small", "medium", "large", "xl"]
_WORDS = ["wool", "cotton", "running", "shoes", "jacket", "mug", "steel", "desk",
          "lamp", "canvas", "tote", "thermal", "ceramic", "trail"]
_ATTRS = ["lightweight", "waterproof", "machine wash", "stainless", "dimmable"]


def _random_catalog(rng):
    products = []
    for i in range(rng.randint(4, 7)):
        options = {}
        if rng.random() < 0.8:
            options["color"] = rng.sample(_COLORS, rng.randint(1, 3))
        if rng.random() < 0.6:
            options["size"] = rng.sample(_SIZES, rng.randint(1, 3))
        products.append(
            {
                "id": f"P{i + 1:03d}",
                "title": " ".join(rng.sample(_WORDS, 3)),
                "price": round(rng.uniform(5.0, 80.0), 2),
                "options": options,
                "attributes": rng.sample(_ATTRS, rng.randint(0, 3)),
            }
        )
    return products


def _shop_reward_hand_count():
    """Drive 100 random catalogs to a purchase and recompute each reward."""
    failures = []
    rng = random.Random("hand-count")
    env = make_env("shop")
    for trial in range(100):
        catalog = _random_catalog(rng)
        required_attrs = rng.sample(_ATTRS, rng.randint(0, 2))
        required_options = {}
        if rng.random() < 0.8:
            required_options["color"] = rng.choice(_COLORS)
        if rng.random() < 0.5:
            required_options["size"] = rng.choice(_SIZES)
        task = TaskSpec(
            task_id=f"shop-rand-{trial}",
            kind="shop",
            payload={
                "instruction": "find the item described by the hidden requirements",
                "attributes": required_attrs,
                "options": required_options,
                "price_cap": round(rng.uniform(10.0, 90.0), 2),
                "catalog": catalog,
            },
        )
        env.reset(task)
        env.step(parse_action(f"search[{rng.choice(_WORDS)}]", env.grammar))
        target = rng.choice(catalog)
        opened = False
        for _ in range(4):
            obs = env.step(parse_action(f"click[{target['id']}]", env.grammar))
            if "[Buy Now]" in obs.text:
                opened = True
                break
            paged = env.step(parse_action("click[next page]", env.grammar))
            if "Invalid" in paged.text:
                break
        if not opened:
            continue
        selections = {}
        for _ in range(rng.randint(0, 3)):
            wanted = rng.choice(_COLORS + _SIZES)
            result = env.step(parse_action(f"click[{wanted}]", env.grammar))
            if result.text == f"You have clicked {wanted}.":
                opt_type = "color" if wanted in _COLORS else "size"
                selections[opt_type] = wanted
        final = env.step(parse_action("click[buy now]", env.grammar))
        have = {a.casefold() for a in target["attributes"]}
        matched_attrs = sum(1 for a in required_attrs if a.casefold() in have)
        matched_options = sum(
            1
            for opt_type, value in required_options.items()
            if selections.get(opt_type, "").casefold() == value.casefold()
        )
        price_ok = 1 if target["price"] <= task.payload["price_cap"] else 0
        denom = len(required_attrs) + len(required_options) + 1
        expected = (matched_attrs + matched_options + price_ok) / denom
        if not final.terminal or final.reward != expected:
            failures.append(f"catalog {trial}: reward {final.reward} != hand count {expected}")
    return failures
