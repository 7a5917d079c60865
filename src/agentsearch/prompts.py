"""Prompt assembly.

A PromptBundle carries the static parts of a prompt (instruction, few-shot
examples, reflection header) plus the slots that change per call (reflection
texts, failed trajectories). The engine decides which bundles get failed
trajectories; a bundle shows what it holds. Assembly is a pure function of
(bundle, trajectory): same inputs, same string.

Section order is fixed: instruction, examples, reflections under their
header, failed trajectories, then the current question with its trajectory.

Each style has one path, and assemble_prompt picks it. Bundles are never
mutated (injection copies them), so each joins its static sections once, as
the cached `head`. The acting style builds prompts once per node: a node's
block is its parent's block plus its own step, and render_acting_steps
caches it on the Node when the node is expanded, reflected on or reported;
a child that is only value-scored gets its block on the spot. The reasoning
style (policy prompts only) renders from a StateContext: it drops
observations, and its cue depends on the whole path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .tree import SearchTree, StateContext, reconstruct_context

DEFAULT_REFLECTIONS_HEADER = (
    "You have attempted this task before and failed. The following "
    "reflection(s) give a plan to avoid failing in the same way. Use them to "
    "improve your strategy."
)


@dataclass
class PromptBundle:
    instruction: str
    few_shot: list = field(default_factory=list)
    reflections_header: str = DEFAULT_REFLECTIONS_HEADER
    reflections: list = field(default_factory=list)
    failed_trajectories: list = field(default_factory=list)
    # None picks the per-style default cue; "" suppresses the cue entirely.
    cue: Optional[str] = None

    @cached_property
    def intro(self) -> str:
        """The instruction and examples, joined."""
        parts = [self.instruction.strip()]
        parts.extend(example.strip() for example in self.few_shot)
        return "\n\n".join(p for p in parts if p)

    @cached_property
    def head(self) -> str:
        """Every section before the query: the intro, the deduplicated
        reflections under their header, and any failed trajectories."""
        reflections = []
        for text in self.reflections:
            if text and text not in reflections:
                reflections.append(text)
        parts = [self.intro]
        if reflections:
            parts.append(self.reflections_header.strip() + "\n\n" + "\n\n".join(reflections))
        parts.extend(t.strip() for t in self.failed_trajectories)
        return "\n\n".join(p for p in parts if p)


def render_step(i: int, action, observation: Optional[str]) -> str:
    """Step i as "Thought i: ..." or "Action i: ...", then "Observation i:
    ..." when there is one (for a thought, one other than "OK.")."""
    if action.kind == "thought":
        text = f"Thought {i}: {action.raw}"
        if observation is not None and observation != "OK.":
            text += f"\nObservation {i}: {observation}"
    else:
        text = f"Action {i}: {action.raw}"
        if observation is not None:
            text += f"\nObservation {i}: {observation}"
    return text


def render_acting_steps(tree: SearchTree, node_id: int) -> str:
    """The node's acting-style block: the question, then each step. It is
    cached on the node and on every ancestor below the nearest one that
    already has its block."""
    pending = []
    node = tree.node(node_id)
    while node.block is None and node.parent is not None:
        pending.append(node)
        node = tree.node(node.parent)
    if node.block is None:
        node.block = f"Question: {tree.input}"
    for child in reversed(pending):
        child.block = node.block + "\n" + render_step(child.depth, child.action, child.observation)
        node = child
    return node.block


def render_reasoning_steps(ctx: StateContext) -> str:
    """Trajectory block in reasoning style: thoughts only, observations
    omitted, any action rendered as a bare "Action:" line."""
    lines = [f"Question: {ctx.input}"]
    for i, (action, _observation) in enumerate(ctx.steps, start=1):
        if action.kind == "thought":
            lines.append(f"Thought {i}: {action.raw}")
        else:
            lines.append(f"Action: {action.raw}")
    return "\n".join(lines)


def join_head(head: str, block: str) -> str:
    return head + "\n\n" + block if head else block


def _with_cue(bundle: PromptBundle, depth: int, block: str, default_cue: str) -> str:
    """block followed by the bundle's cue ("{i}" numbers the next step), or
    by default_cue once any step exists when the bundle sets none."""
    if bundle.cue is None:
        return block + "\n" + default_cue if depth else block
    if bundle.cue:
        return block + "\n" + bundle.cue.replace("{i}", str(depth + 1))
    return block


def assemble_acting_prompt(bundle: PromptBundle, block: str, depth: int) -> str:
    """Full acting-style prompt for a block of depth steps. With no steps it
    ends right after the question; otherwise with a next-step cue."""
    return join_head(bundle.head, _with_cue(bundle, depth, block, f"Thought {depth + 1}:"))


def assemble_reasoning_prompt(bundle: PromptBundle, ctx: StateContext) -> str:
    """Full reasoning-style prompt; ends with an "Action:" cue once any
    thought steps exist and the trajectory has not already answered."""
    block = render_reasoning_steps(ctx)
    if not any(a.kind == "final_answer" for a, _ in ctx.steps):
        block = _with_cue(bundle, len(ctx.steps), block, "Action:")
    return join_head(bundle.head, block)


def assemble_prompt(bundle: PromptBundle, tree: SearchTree, node_id: int, style: str) -> str:
    """The policy prompt for expanding a node, in the given style."""
    if style == "acting":
        block = render_acting_steps(tree, node_id)
        return assemble_acting_prompt(bundle, block, tree.node(node_id).depth)
    if style == "reasoning":
        return assemble_reasoning_prompt(bundle, reconstruct_context(tree, node_id))
    raise ValueError(f"unknown prompt style: {style!r}")
