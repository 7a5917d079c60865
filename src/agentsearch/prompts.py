"""Prompt assembly.

A PromptBundle carries the static parts of a prompt (instruction, few-shot
examples, reflection header) plus the slots that change per call (reflection
texts, failed trajectories, the rendered state context). Assembly is a pure
function of (bundle, context): same inputs, same string.

Section order is fixed: instruction, examples, reflections under their
header, failed trajectories, then the current question with its trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .tree import StateContext

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
    # Value prompts carry failed trajectories; agent prompts usually do not.
    include_failed_trajectories: bool = False
    # None picks the per-style default cue; "" suppresses the cue entirely.
    cue: Optional[str] = None


def render_acting_steps(ctx: StateContext) -> str:
    """Trajectory block in acting style.

    Thought steps render as "Thought i: ...", action steps as "Action i: ..."
    followed by "Observation i: ..." when an observation exists.
    """
    lines = [f"Question: {ctx.input}"]
    for i, (action, observation) in enumerate(ctx.steps, start=1):
        if action.kind == "thought":
            lines.append(f"Thought {i}: {action.raw}")
            if observation is not None and observation != "OK.":
                lines.append(f"Observation {i}: {observation}")
        else:
            lines.append(f"Action {i}: {action.raw}")
            if observation is not None:
                lines.append(f"Observation {i}: {observation}")
    return "\n".join(lines)


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


def _sections(bundle: PromptBundle, query_block: str) -> str:
    reflections = []
    for text in bundle.reflections:
        if text and text not in reflections:
            reflections.append(text)
    parts = [bundle.instruction.strip()]
    parts.extend(example.strip() for example in bundle.few_shot)
    if reflections:
        parts.append(bundle.reflections_header.strip() + "\n\n" + "\n\n".join(reflections))
    if bundle.include_failed_trajectories and bundle.failed_trajectories:
        parts.extend(t.strip() for t in bundle.failed_trajectories)
    parts.append(query_block)
    return "\n\n".join(p for p in parts if p)


def _with_cue(bundle: PromptBundle, ctx: StateContext, block: str, default_cue: str) -> str:
    """block followed by the bundle's cue ("{i}" numbers the next step), or
    by default_cue once any step exists when the bundle sets none."""
    if bundle.cue is None:
        return block + "\n" + default_cue if ctx.steps else block
    if bundle.cue:
        return block + "\n" + bundle.cue.replace("{i}", str(len(ctx.steps) + 1))
    return block


def assemble_acting_prompt(bundle: PromptBundle, ctx: StateContext) -> str:
    """Full acting-style prompt. With an empty trajectory the prompt ends
    right after the question; otherwise it ends with a next-step cue."""
    block = _with_cue(bundle, ctx, render_acting_steps(ctx), f"Thought {len(ctx.steps) + 1}:")
    return _sections(bundle, block)


def assemble_reasoning_prompt(bundle: PromptBundle, ctx: StateContext) -> str:
    """Full reasoning-style prompt; ends with an "Action:" cue once any
    thought steps exist and the trajectory has not already answered."""
    block = render_reasoning_steps(ctx)
    if not any(a.kind == "final_answer" for a, _ in ctx.steps):
        block = _with_cue(bundle, ctx, block, "Action:")
    return _sections(bundle, block)


def assemble_prompt(bundle: PromptBundle, ctx: StateContext, style: str) -> str:
    if style == "acting":
        return assemble_acting_prompt(bundle, ctx)
    if style == "reasoning":
        return assemble_reasoning_prompt(bundle, ctx)
    raise ValueError(f"unknown prompt style: {style!r}")
