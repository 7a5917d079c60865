"""Search tree core: nodes, UCT selection, expansion bookkeeping, backpropagation.

Each child holds what the environment observed when its action was played.
Node statistics follow the running-mean rule: visits start at zero, and each
backpropagation of reward r through a node does

    N <- N + 1
    V <- (V * (N - 1) + r) / N

so V is always the mean of the rewards backpropagated through the node.
Evaluation seeds each new child's V once, before its first backpropagation;
the update above discards that seed at N=1 by construction, so the mean
property is preserved.

A Node caches its acting-style block once prompts.render_acting_steps built
it (engine thread only); value-scored children keep none. Blocks live only
while the search runs: run_search drops them before it returns, so a
finished tree holds no prompt text, and the dumps never held any. Nodes use
slots, children are a tuple of ids that every leaf shares as the one empty
tuple, and siblings that repeat a proposal share one ActionSample, so a
node holds little beyond its statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .actions import ActionSample
from .envs.base import EnvObservation
from .trace import jsonl

NodeId = int


@dataclass(slots=True)
class Node:
    id: NodeId
    parent: Optional[NodeId]
    action: Optional[ActionSample]
    observation: Optional[str]
    depth: int
    value: float = 0.0
    visits: int = 0
    is_terminal: bool = False
    reward: Optional[float] = None
    children: tuple = ()
    # True when selection can never return this node or anything below it:
    # a terminal, a leaf pinned at the depth limit, or an inner node whose
    # children are all exhausted.
    exhausted: bool = False
    block: Optional[str] = None


@dataclass
class SearchTree:
    input: str
    nodes: list = field(default_factory=list)

    @classmethod
    def create(cls, input_text: str, root_observation: Optional[str] = None) -> "SearchTree":
        tree = cls(input=input_text)
        tree.nodes.append(
            Node(id=0, parent=None, action=None, observation=root_observation, depth=0)
        )
        return tree

    @property
    def root(self) -> Node:
        return self.nodes[0]

    def node(self, node_id: NodeId) -> Node:
        return self.nodes[node_id]

    def path_to_root(self, node_id: NodeId) -> list:
        """Node ids from the given node up to and including the root."""
        path = []
        cur: Optional[int] = node_id
        while cur is not None:
            path.append(cur)
            cur = self.nodes[cur].parent
        return path


def uct(value: float, visits: int, parent_visits: int, w: float) -> float:
    """Upper confidence score: value + w * sqrt(ln(parent_visits) / visits).

    Requires visits >= 1 and parent_visits >= 1; zero-visit children are
    handled by the caller's unvisited-first rule, never by this formula.
    """
    if visits < 1:
        raise ValueError("uct undefined for unvisited node (visits < 1)")
    if parent_visits < 1:
        raise ValueError("uct undefined for unvisited parent (parent_visits < 1)")
    return value + w * math.sqrt(math.log(parent_visits) / visits)


def select_path(tree: SearchTree, w: float) -> Optional[NodeId]:
    """Descend from the root by UCT and return an expandable leaf id.

    At each level only non-exhausted children are considered. Unvisited
    children (visits = 0 under zero-initialization, whether or not a value
    seed is present) are selected before any visited sibling, in creation
    order; otherwise the child maximizing uct() wins, ties broken by lowest
    creation order. Returns None when the whole tree is exhausted.
    """
    current = tree.root
    if current.exhausted:
        return None
    while current.children:
        candidates = [tree.node(c) for c in current.children if not tree.node(c).exhausted]
        if not candidates:
            # Should not happen if exhaustion flags are maintained, but keep
            # the walk total rather than looping.
            return None
        unvisited = [c for c in candidates if c.visits == 0]
        if unvisited:
            current = unvisited[0]
            continue
        parent_visits = max(1, current.visits)
        best = None
        best_score = -math.inf
        for child in candidates:
            score = uct(child.value, child.visits, parent_visits, w)
            if score > best_score:
                best = child
                best_score = score
        current = best
    return current.id


def add_children(
    tree: SearchTree, parent_id: NodeId, steps: Iterable[tuple[ActionSample, EnvObservation]]
) -> list:
    """Append one child per (action, observation) step, in order, and return
    the new ids. Each child takes the observation's text, terminal flag and
    reward; a terminal child is exhausted at once.

    Duplicate actions are retained as distinct nodes (sibling frequency is a
    signal for the value function). Expanding a terminal node is an error.
    """
    parent = tree.node(parent_id)
    if parent.is_terminal:
        raise ValueError(f"cannot expand terminal node {parent_id}")
    created = []
    for action, obs in steps:
        node = Node(
            id=len(tree.nodes),
            parent=parent_id,
            action=action,
            observation=obs.text,
            depth=parent.depth + 1,
            is_terminal=obs.terminal,
            reward=obs.reward,
            exhausted=obs.terminal,
        )
        tree.nodes.append(node)
        created.append(node.id)
    parent.children += tuple(created)
    _propagate_exhaustion(tree, parent_id)
    return created


def mark_unexpandable(tree: SearchTree, node_id: NodeId) -> None:
    """Pin a leaf (e.g. a non-terminal node at the depth limit) so selection
    never returns it, and update ancestor exhaustion."""
    node = tree.node(node_id)
    node.exhausted = True
    if node.parent is not None:
        _propagate_exhaustion(tree, node.parent)


def _propagate_exhaustion(tree: SearchTree, node_id: NodeId) -> None:
    cur: Optional[int] = node_id
    while cur is not None:
        node = tree.node(cur)
        if node.children and all(tree.node(c).exhausted for c in node.children):
            if not node.exhausted:
                node.exhausted = True
                cur = node.parent
                continue
        break


def backpropagate(tree: SearchTree, leaf_id: NodeId, reward: float) -> None:
    """Fold reward into every node from the leaf up to the root."""
    for node_id in tree.path_to_root(leaf_id):
        node = tree.node(node_id)
        node.visits += 1
        node.value = (node.value * (node.visits - 1) + reward) / node.visits


def reconstruct_context(tree: SearchTree, node_id: NodeId) -> list:
    """The node's steps: every (action, observation) pair from the root's
    child down to the node, so len(steps) == depth."""
    return [
        (tree.node(nid).action, tree.node(nid).observation)
        for nid in reversed(tree.path_to_root(node_id)[:-1])
    ]


def node_record(node: Node) -> dict:
    """What a node was when created: its id, action text, observation,
    terminal flag and reward. Expand events list children in this form."""
    return {
        "id": node.id,
        "action": node.action.raw if node.action is not None else None,
        "observation": node.observation,
        "terminal": node.is_terminal,
        "reward": node.reward,
    }


def dump_tree(tree: SearchTree) -> list:
    """One plain dict per node, in id order, for the line-delimited dump:
    the node's record plus its parent, value and visits."""
    return [
        {**node_record(node), "parent": node.parent, "value": node.value, "visits": node.visits}
        for node in tree.nodes
    ]


def tree_to_jsonl(tree: SearchTree) -> str:
    return jsonl(dump_tree(tree))
