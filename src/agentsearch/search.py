"""Search engine over textual agent trajectories.

Four variants share one expansion/valuation substrate:

    mcts          full tree search: UCT selection, n-wide expansion, value
                  scoring, greedy simulation to a terminal state, running-mean
                  backpropagation, and failure reflections across episodes
    dfs_prune     depth-first search that discards children scoring below a
                  threshold; no visit statistics, no backpropagation
    best_of_k     k independent greedy rollouts, one proposal per step
    greedy_retry  best_of_k plus failure reflections carried across rollouts

mcts (in selection and simulation alike) and dfs_prune advance by steps: a
node is expanded into n children, the first solved child in child order ends
the search before anything is scored, and otherwise each child is scored
once. The rollouts never score. An expansion costs one unit of work per
distinct proposal: a run parses each proposal text once, and a child whose
text repeats an earlier sibling's shares that sibling's action, observation
and snapshot instead of being played again. Duplicate siblings still become
nodes of their own, as sibling agreement is part of the value.

All four variants run through one episode loop: each of up to k episodes
refreshes the reflection-injected prompts, plays the variant's body to an end
node and reward, then stops the run on success or reflects on a failed
terminal. mcts's body selects, steps, simulates and backpropagates; the
rollouts' body descends one proposal per step; dfs_prune's body steps the node
on top of its stack. A BackendError ends only its episode; when all k
episodes errored the run ends with backend_error.

A run terminates as soon as any trajectory reaches reward 1.0 (that reward is
still backpropagated first, where the variant backpropagates at all), when the
budget k is spent, or when the tree has no expandable leaf left.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from .actions import ActionSample, parse_action
from .backends import BackendError, PolicyBackend
from .envs import Environment, TaskSpec, env_class, make_env, task_input
from .envs.base import INVALID_OBSERVATION
from .prompts import assemble_prompt, render_acting_steps
from .reflection import ReflectionStore, generate_reflection, inject
from .seeding import stable_seed
from .templates import TemplateSet
from .trace import TraceWriter
from .tree import (
    Node,
    SearchTree,
    add_children,
    backpropagate,
    mark_unexpandable,
    node_record,
    # Unused here, but perfbench/spans.py wraps it by name (ROADMAP item 1).
    reconstruct_context,
    select_path,
)
from .valuation import VALUE_MODES, evaluate_children

if TYPE_CHECKING:
    from .pool import ThreadPool

ENGINE_VERSION = "0.1.0"

VARIANTS = ("mcts", "dfs_prune", "best_of_k", "greedy_retry")
PROMPT_STYLES = ("acting", "reasoning")
ROLES = ("policy", "value", "reflection")

# Variants that generate and inject failure reflections.
_REFLECTIVE_VARIANTS = ("mcts", "greedy_retry")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one search run.

    depth_limit, lam, and skip_simulation default to None, meaning "use the
    environment kind's default"; resolved() fills them in. A config is
    checked when it is made: a bad value raises ValueError.
    """

    n: int = 5
    k: int = 50
    depth_limit: Optional[int] = None
    w: float = 1.0
    lam: Optional[float] = None
    value_mode: str = "full"
    reflection_enabled: bool = True
    reflection_limit: int = 4
    skip_simulation: Optional[bool] = None
    variant: str = "mcts"
    prune_threshold: float = 0.4
    prompt_style: str = "acting"
    inject_trajectories_into_agent_prompts: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.value_mode not in VALUE_MODES:
            raise ValueError(f"unknown value mode {self.value_mode!r}")
        if self.prompt_style not in PROMPT_STYLES:
            raise ValueError(f"unknown prompt style {self.prompt_style!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.depth_limit is not None and self.depth_limit < 1:
            raise ValueError("depth_limit must be >= 1")
        if not (math.isfinite(self.w) and self.w >= 0):
            raise ValueError("exploration weight w must be finite and >= 0")
        if self.lam is not None and not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        if not 0.0 <= self.prune_threshold <= 1.0:
            raise ValueError("prune_threshold must be in [0, 1]")
        if self.reflection_limit < 0:
            raise ValueError("reflection_limit must be >= 0")

    def resolved(self, kind: str) -> "SearchConfig":
        """This config with each field left None set from the kind's class; an
        unknown kind raises TaskError, a ValueError."""
        env = env_class(kind)
        fields = ("depth_limit", "lam", "skip_simulation")
        return replace(self, **{f: getattr(env, f) for f in fields if getattr(self, f) is None})


@dataclass
class BackendSet:
    """Backends by role; value and reflection fall back to the policy one.

    value_pool, when set, is a ThreadPool that the value calls go to,
    shared with the other runs that carry it; its owner closes it after the
    last run returns. It is the only way value calls reach threads:
    without one, and always for a value backend that declares `inline`,
    they run inline, in child order."""

    policy: PolicyBackend
    value: Optional[PolicyBackend] = None
    reflection: Optional[PolicyBackend] = None
    value_pool: Optional[ThreadPool] = None


@dataclass
class SearchResult:
    task_id: str
    task_kind: str
    success: bool
    best_reward: float
    best_node: int
    best_trajectory: str
    episodes_used: int
    nodes_expanded: int
    backend_calls: dict
    tree: SearchTree
    reflections: list
    config: SearchConfig
    terminate_reason: str

    @property
    def proposals(self) -> int:
        return self.backend_calls["policy"]["proposals"]


def _solved(node: Node) -> bool:
    """The success test: a terminal node with full reward."""
    return node.is_terminal and node.reward >= 1.0


def _outcome(node: Node):
    """(node, reward) for an episode ending at node; truncation scores 0."""
    return node, float(node.reward) if node.is_terminal else 0.0


def _best(nodes: list):
    """The outcome of the best terminal by reward, or, when none of the nodes
    is terminal, of the best node by value. Ties go to the lowest id."""
    terminal = [n for n in nodes if n.is_terminal]
    if terminal:
        return _outcome(max(terminal, key=lambda n: (n.reward, n.value, -n.id)))
    return _outcome(_choose(nodes))


def _choose(nodes: list) -> Node:
    """The node of highest value; ties go to the lowest id."""
    return max(nodes, key=lambda n: (n.value, -n.id))


class _CountingBackend:
    """Counts calls and requested proposals for one backend role, under a
    lock, as value calls may come from several threads at once."""

    def __init__(self, inner: PolicyBackend, counters: dict, role: str):
        self.inner = inner
        self.counters = counters
        self.role = role
        self._lock = threading.Lock()

    def propose(self, prompt: str, n: int, seed: int) -> list:
        with self._lock:
            entry = self.counters[self.role]
            entry["calls"] += 1
            entry["proposals"] += n
        return self.inner.propose(prompt, n, seed)


def run_search(
    task: TaskSpec,
    backends: BackendSet,
    templates: TemplateSet,
    config: Optional[SearchConfig] = None,
    trace: Optional[TraceWriter] = None,
    reflection_store: Optional[ReflectionStore] = None,
    env: Optional[Environment] = None,
) -> SearchResult:
    """Run one search over a task and return the outcome.

    trace and reflection_store may be shared across runs; fresh private ones
    are created when omitted. An explicit env overrides the registry lookup.
    Only a carried backends.value_pool runs value calls on threads, and its
    owner closes it; this starts no thread. No value call of this run is
    still in flight when it returns or raises.
    """
    cfg = (config or SearchConfig()).resolved(task.kind)
    return _Engine(
        task,
        backends,
        templates,
        cfg,
        trace if trace is not None else TraceWriter(),
        reflection_store if reflection_store is not None else ReflectionStore(),
        env,
    ).run()


class _Engine:
    def __init__(self, task, backends, templates, cfg, trace, store, env=None):
        self.task = task
        self.cfg = cfg
        self.trace = trace
        self.store = store
        self.env = env if env is not None else make_env(task.kind)
        self.counters = {role: {"calls": 0, "proposals": 0} for role in ROLES}
        self.policy = _CountingBackend(backends.policy, self.counters, "policy")
        value = backends.value or backends.policy
        self.value = _CountingBackend(value, self.counters, "value")
        self.value_pool = None if getattr(value, "inline", False) else backends.value_pool
        self.reflector = _CountingBackend(
            backends.reflection or backends.policy, self.counters, "reflection"
        )
        self.templates = templates
        self.act_bundle = templates.act
        self.value_bundle = templates.value
        self.value_seed = stable_seed(cfg.seed, task.task_id, "value")
        obs = self.env.reset(task)
        self.tree = SearchTree.create(task_input(task), root_observation=obs.text)
        self.snapshots = {0: self.env.snapshot()}
        # proposal text -> (action, observation or None); one grammar per run
        self.parsed = {}
        self.new_reflections = []
        self.reflective = cfg.reflection_enabled and cfg.variant in _REFLECTIVE_VARIANTS
        self.expansions = 0
        self.episodes = 0
        self.stack = [0]  # the dfs_prune frontier

    # -- shared machinery -------------------------------------------------

    def _refresh_bundles(self) -> None:
        """Inject the latest reflections. Value prompts also show their failed
        trajectories; policy prompts do only when the config asks."""
        if not self.reflective:
            return
        records = self.store.select(self.task.task_id, self.cfg.reflection_limit)
        agent_trajectories = self.cfg.inject_trajectories_into_agent_prompts
        self.act_bundle = inject(self.templates.act, records, agent_trajectories)
        self.value_bundle = inject(self.templates.value, records, True)

    def _parse(self, text: str) -> tuple:
        """(action, observation) for a proposal text, parsed once per run.
        A text that does not parse becomes a thought with an invalid-action
        observation; a parsed one has no observation until it is played."""
        outcome = self.parsed.get(text)
        if outcome is None:
            try:
                outcome = parse_action(text, self.env.grammar), None
            except ValueError:
                raw = text if text and text.strip() else "(empty proposal)"
                outcome = ActionSample(kind="thought", raw=raw), INVALID_OBSERVATION
            self.parsed[text] = outcome
        return outcome

    def _play(self, parent_id: int, texts: list) -> list:
        """(action, observation, snapshot) per proposal text, each played in
        the environment from the parent's saved state. A text that repeats
        an earlier sibling's shares its result; one that does not parse
        shares the parent's snapshot."""
        parent = self.snapshots[parent_id]
        played = {}
        for text in texts:
            if text in played:
                continue
            action, obs = self._parse(text)
            if obs is None:
                self.env.restore(parent)
                obs = self.env.step(action)
                played[text] = action, obs, self.env.snapshot()
            else:
                played[text] = action, obs, parent
        return [played[text] for text in texts]

    def _expand(self, parent_id: int, episode: int, width: Optional[int] = None) -> list:
        width = width if width is not None else self.cfg.n
        prompt = assemble_prompt(self.act_bundle, self.tree, parent_id, self.cfg.prompt_style)
        seed = stable_seed(self.cfg.seed, self.task.task_id, "policy", episode, parent_id)
        texts = self.policy.propose(prompt, width, seed)
        if not texts:
            raise BackendError("policy backend returned no proposals")
        played = self._play(parent_id, texts)
        ids = add_children(self.tree, parent_id, [(action, obs) for action, obs, _ in played])
        children = [self.tree.node(node_id) for node_id in ids]
        for node, (_, _, snap) in zip(children, played):
            self.snapshots[node.id] = snap
            if not node.is_terminal and node.depth >= self.cfg.depth_limit:
                mark_unexpandable(self.tree, node.id)
        self.expansions += 1
        self.trace.emit(
            "expand",
            episode=episode,
            parent=parent_id,
            prompt=self.trace.prompt_field(prompt),
            children=[node_record(node) for node in children],
        )
        return children

    def _step(self, node_id: int, episode: int):
        """Expand a node and return (children, winner). The winner is the
        first solved child in child order; it ends the search before any
        child is scored. With no winner (None) the children are evaluated."""
        children = self._expand(node_id, episode)
        winner = next((child for child in children if _solved(child)), None)
        if winner is None and self.cfg.value_mode != "none":
            scores = evaluate_children(
                self.tree,
                node_id,
                self.cfg.value_mode,
                self.cfg.lam,
                bundle=self.value_bundle,
                backend=self.value,
                seed=self.value_seed,
                pool=self.value_pool,
            )
            self.trace.emit("evaluate", episode=episode, parent=node_id, scores=scores)
        return children, winner

    def _backprop(self, leaf_id: int, reward: float, episode: int) -> None:
        path = self.tree.path_to_root(leaf_id)
        backpropagate(self.tree, leaf_id, reward)
        self.trace.emit("backprop", episode=episode, leaf=leaf_id, reward=reward, path=path)

    def _maybe_reflect(self, node: Node, reward: float, episode: int) -> None:
        if not self.reflective or not node.is_terminal or _solved(node):
            return
        trajectory = render_acting_steps(self.tree, node.id)
        seed = stable_seed(self.cfg.seed, self.task.task_id, "reflection", episode)
        text = generate_reflection(trajectory, reward, self.templates.reflect, self.reflector, seed)
        if not text:
            return
        record = self.store.record(self.task.task_id, trajectory, reward, text, episode)
        self.new_reflections.append(record)
        self.trace.emit("reflect", episode=episode, node=node.id, reward=reward, reflection=text)

    # -- the episode loop ---------------------------------------------------

    def _run_episodes(self, body) -> str:
        """Run up to k episodes. body(episode) plays one episode and returns
        (end node, reward), or None when nothing is left to expand. A
        BackendError ends just that episode; a failed terminal is reflected
        on before the next one starts."""
        errors = 0
        for episode in range(1, self.cfg.k + 1):
            self.episodes = episode
            self._refresh_bundles()
            self.trace.emit("episode_start", episode=episode)
            try:
                outcome = body(episode)
            except BackendError as exc:
                errors += 1
                self.trace.emit("episode_end", episode=episode, reward=None, error=str(exc))
                continue
            if outcome is None:
                self.trace.emit("episode_end", episode=episode, reward=None, note="tree exhausted")
                return "tree_exhausted"
            end, reward = outcome
            self._maybe_reflect(end, reward, episode)
            self.trace.emit("episode_end", episode=episode, reward=reward)
            if _solved(end):
                return "success"
        return "backend_error" if errors == self.cfg.k else "budget_exhausted"

    # -- mcts -------------------------------------------------------------

    def _simulate(self, children: list, episode: int):
        """Greedy descent from the best fresh child to an exhausted one: a
        terminal or a node at the depth limit."""
        current = _choose(children)
        self.trace.emit("simulate_step", episode=episode, node=current.id, depth=current.depth)
        while not current.exhausted:
            children, winner = self._step(current.id, episode)
            current = winner or _choose(children)
            self.trace.emit(
                "simulate_step", episode=episode, node=current.id, depth=current.depth
            )
        return _outcome(current)

    def _mcts_episode(self, episode: int):
        """Select a leaf and step it. A winning child ends the episode at
        once; otherwise simulate from the scored children, or skip. The end
        reward is backpropagated either way."""
        leaf_id = select_path(self.tree, self.cfg.w)
        if leaf_id is None:
            return None
        self.trace.emit(
            "select",
            episode=episode,
            node=leaf_id,
            path=list(reversed(self.tree.path_to_root(leaf_id))),
        )
        children, winner = self._step(leaf_id, episode)
        if winner is not None:
            end, reward = _outcome(winner)
        elif self.cfg.skip_simulation:
            # Skip simulation: score the episode by its best child.
            end, reward = _best(children)
        else:
            end, reward = self._simulate(children, episode)
        self._backprop(end.id, reward, episode)
        return end, reward

    # -- greedy rollouts ---------------------------------------------------

    def _rollout_episode(self, episode: int):
        """One proposal per step from the root to a terminal or the depth
        limit; no selection, evaluation or backpropagation."""
        current = self.tree.root
        # Not `exhausted`: each rollout re-expands the root, exhausted since the first.
        while not current.is_terminal and current.depth < self.cfg.depth_limit:
            current = self._expand(current.id, episode, width=1)[0]
        return _outcome(current)

    # -- dfs with pruning --------------------------------------------------

    def _dfs_episode(self, episode: int):
        """Step the node on top of the stack and push its surviving children,
        best on top. The node is popped only once its step returns, so an
        errored expansion is tried again in the next episode."""
        if not self.stack:
            return None
        node_id = self.stack[-1]
        children, winner = self._step(node_id, episode)
        self.stack.pop()
        if winner is not None:
            return _outcome(winner)
        # With no value function there is nothing to prune on.
        floor = self.cfg.prune_threshold if self.cfg.value_mode != "none" else -math.inf
        survivors = [c for c in children if not c.exhausted and c.value >= floor]
        survivors.sort(key=lambda c: (c.value, -c.id))  # best popped first
        self.stack.extend(c.id for c in survivors)
        kept = {c.id for c in survivors}
        self.trace.emit(
            "prune",
            parent=node_id,
            kept=sorted(kept),
            dropped=[c.id for c in children if c.id not in kept],
        )
        return _best(children)

    # -- orchestration ------------------------------------------------------

    def run(self) -> SearchResult:
        self.trace.emit(
            "run_start",
            task_id=self.task.task_id,
            kind=self.task.kind,
            engine_version=ENGINE_VERSION,
            config=dataclasses.asdict(self.cfg),
        )
        if self.cfg.variant == "mcts":
            reason = self._run_episodes(self._mcts_episode)
        elif self.cfg.variant == "dfs_prune":
            reason = self._run_episodes(self._dfs_episode)
        else:
            reason = self._run_episodes(self._rollout_episode)
        return self._finalize(reason)

    def _finalize(self, reason: str) -> SearchResult:
        best, best_reward = _best(self.tree.nodes)
        success = _solved(best)
        trajectory = render_acting_steps(self.tree, best.id)
        # Blocks are a search-time cache; the finished tree keeps none.
        for node in self.tree.nodes:
            node.block = None
        self.trace.emit(
            "terminate",
            reason=reason,
            success=success,
            best_node=best.id,
            best_reward=best_reward,
            episodes=self.episodes,
            nodes=len(self.tree.nodes),
            expansions=self.expansions,
            counters=self.counters,
            node_stats=[
                {"id": n.id, "value": n.value, "visits": n.visits} for n in self.tree.nodes
            ],
        )
        return SearchResult(
            task_id=self.task.task_id,
            task_kind=self.task.kind,
            success=success,
            best_reward=best_reward,
            best_node=best.id,
            best_trajectory=trajectory,
            episodes_used=self.episodes,
            nodes_expanded=self.expansions,
            backend_calls=self.counters,
            tree=self.tree,
            reflections=list(self.new_reflections),
            config=self.cfg,
            terminate_reason=reason,
        )
