"""Prompt assembly tests: section order, trajectory rendering, cues."""

import pytest

from agentsearch.actions import ActionGrammar, parse_action
from agentsearch.prompts import (
    DEFAULT_REFLECTIONS_HEADER,
    PromptBundle,
    assemble_acting_prompt,
    assemble_prompt,
    assemble_reasoning_prompt,
    render_acting_steps,
    render_reasoning_steps,
)
from agentsearch.tree import StateContext


GRAMMAR = ActionGrammar(
    verbs=("search", "lookup", "finish", "combine"),
    thought_verbs=("think",),
    terminal_verbs=("finish",),
)


def ctx_with(input_text, raw_steps):
    steps = [(parse_action(raw, GRAMMAR), obs) for raw, obs in raw_steps]
    return StateContext(input=input_text, steps=steps)


def test_acting_steps_render_thought_action_observation():
    ctx = ctx_with(
        "who wrote it?",
        [
            ("I should search.", "OK."),
            ("Search[the book]", "It was written in 1999."),
        ],
    )
    assert render_acting_steps(ctx) == (
        "Question: who wrote it?\n"
        "Thought 1: I should search.\n"
        "Action 2: Search[the book]\n"
        "Observation 2: It was written in 1999."
    )


def test_acting_steps_hide_ok_observation_for_thoughts_only():
    ctx = ctx_with("q", [("think about it", "OK.")])
    assert "Observation" not in render_acting_steps(ctx)
    ctx2 = ctx_with("q", [("think about it", "something else")])
    assert "Observation 1: something else" in render_acting_steps(ctx2)


def test_acting_action_without_observation_renders_no_observation_line():
    action = parse_action("Search[x]", GRAMMAR)
    ctx = StateContext(input="q", steps=[(action, None)])
    assert render_acting_steps(ctx) == "Question: q\nAction 1: Search[x]"


def test_reasoning_steps_drop_observations_and_number_thoughts():
    ctx = ctx_with(
        "make 24",
        [
            ("I will combine the fours.", "OK."),
            ("combine[4 * 6]", "Remaining numbers: 1 24"),
        ],
    )
    assert render_reasoning_steps(ctx) == (
        "Question: make 24\n"
        "Thought 1: I will combine the fours.\n"
        "Action: combine[4 * 6]"
    )


def test_acting_prompt_empty_trajectory_ends_with_question():
    bundle = PromptBundle(instruction="Solve the task.")
    ctx = StateContext(input="what year?")
    prompt = assemble_acting_prompt(bundle, ctx)
    assert prompt.endswith("Question: what year?")
    assert prompt.startswith("Solve the task.")


def test_acting_prompt_with_steps_ends_with_thought_cue():
    bundle = PromptBundle(instruction="Solve the task.")
    ctx = ctx_with("q", [("Search[a]", "nothing"), ("Search[b]", "nothing")])
    assert assemble_acting_prompt(bundle, ctx).endswith("Thought 3:")


def test_reasoning_prompt_ends_with_action_cue_until_answered():
    bundle = PromptBundle(instruction="inst")
    pending = ctx_with("q", [("I think x = 2.", "OK.")])
    assert assemble_reasoning_prompt(bundle, pending).endswith("Action:")
    done = ctx_with("q", [("Finish[2]", "Episode finished, reward = 1")])
    assert not assemble_reasoning_prompt(bundle, done).endswith("Action:")


def test_empty_cue_suppresses_trailing_cue():
    bundle = PromptBundle(instruction="inst", cue="")
    ctx = ctx_with("q", [("Search[a]", "nothing")])
    prompt = assemble_acting_prompt(bundle, ctx)
    assert prompt.endswith("Observation 1: nothing")


def test_custom_cue_substitutes_step_index():
    bundle = PromptBundle(instruction="inst", cue="Next step {i}:")
    ctx = ctx_with("q", [("Search[a]", "nothing")])
    assert assemble_acting_prompt(bundle, ctx).endswith("Next step 2:")


def test_section_order_instruction_examples_reflections_query():
    bundle = PromptBundle(
        instruction="Do the task.",
        few_shot=["Question: demo\nAction 1: Finish[x]"],
        reflections=["Avoid repeating the failed search."],
    )
    ctx = StateContext(input="real question")
    prompt = assemble_acting_prompt(bundle, ctx)
    i_inst = prompt.index("Do the task.")
    i_demo = prompt.index("Question: demo")
    i_header = prompt.index(DEFAULT_REFLECTIONS_HEADER)
    i_refl = prompt.index("Avoid repeating the failed search.")
    i_query = prompt.index("Question: real question")
    assert i_inst < i_demo < i_header < i_refl < i_query


def test_reflections_header_absent_without_reflections():
    bundle = PromptBundle(instruction="inst")
    prompt = assemble_acting_prompt(bundle, StateContext(input="q"))
    assert DEFAULT_REFLECTIONS_HEADER not in prompt


def test_context_reflections_merge_and_dedupe():
    bundle = PromptBundle(instruction="inst", reflections=["r1", "", "r2", "r1"])
    prompt = assemble_acting_prompt(bundle, StateContext(input="q"))
    assert prompt.count("r1") == 1
    assert "r2" in prompt
    assert prompt.index("r1") < prompt.index("r2")


def test_failed_trajectories_included_only_when_enabled():
    trajectory = "Question: q\nAction 1: Finish[wrong]"
    off = PromptBundle(instruction="inst", failed_trajectories=[trajectory])
    on = PromptBundle(
        instruction="inst",
        failed_trajectories=[trajectory],
        include_failed_trajectories=True,
    )
    ctx = StateContext(input="q2")
    assert "Finish[wrong]" not in assemble_acting_prompt(off, ctx)
    assert "Finish[wrong]" in assemble_acting_prompt(on, ctx)


def test_assemble_prompt_dispatch_and_unknown_style():
    bundle = PromptBundle(instruction="inst")
    ctx = StateContext(input="q")
    assert assemble_prompt(bundle, ctx, "acting") == assemble_acting_prompt(bundle, ctx)
    assert assemble_prompt(bundle, ctx, "reasoning") == assemble_reasoning_prompt(bundle, ctx)
    with pytest.raises(ValueError):
        assemble_prompt(bundle, ctx, "verse")


def test_assembly_is_pure():
    bundle = PromptBundle(instruction="inst", reflections=["r"])
    ctx = ctx_with("q", [("Search[a]", "nothing")])
    first = assemble_acting_prompt(bundle, ctx)
    assert assemble_acting_prompt(bundle, ctx) == first
    assert bundle.reflections == ["r"]
    assert len(ctx.steps) == 1
