"""Prompt assembly tests: section order, trajectory rendering, cues."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch.actions import ActionGrammar, ActionSample, parse_action
from agentsearch.envs.base import INVALID, EnvObservation
from agentsearch.prompts import (
    DEFAULT_REFLECTIONS_HEADER,
    PromptBundle,
    assemble_acting_prompt,
    assemble_prompt,
    assemble_reasoning_prompt,
    join_head,
    render_acting_steps,
    render_reasoning_steps,
    render_step,
)
from agentsearch.reflection import ReflectionStore, assemble_reflection_prompt, inject
from agentsearch.tree import SearchTree, StateContext, add_children, reconstruct_context
from agentsearch.valuation import evaluate_children


GRAMMAR = ActionGrammar(
    verbs=("search", "lookup", "finish", "combine"),
    thought_verbs=("think",),
    terminal_verbs=("finish",),
)


def ctx_with(input_text, raw_steps):
    steps = [(parse_action(raw, GRAMMAR), obs) for raw, obs in raw_steps]
    return StateContext(input=input_text, steps=steps)


def chain_with(input_text, raw_steps):
    """A one-path tree holding the steps; returns (tree, leaf id)."""
    tree = SearchTree.create(input_text)
    leaf = 0
    for raw, obs in raw_steps:
        (leaf,) = add_children(tree, leaf, [(parse_action(raw, GRAMMAR), EnvObservation(obs))])
    return tree, leaf


def acting_prompt_of(bundle, input_text, raw_steps=()):
    tree, leaf = chain_with(input_text, raw_steps)
    return assemble_prompt(bundle, tree, leaf, "acting")


# -- from-scratch references: the acting style rendered from a StateContext --


def acting_steps_from_scratch(ctx):
    """The acting-style block of a StateContext: the question, then each step."""
    lines = [f"Question: {ctx.input}"]
    lines.extend(render_step(i, a, o) for i, (a, o) in enumerate(ctx.steps, start=1))
    return "\n".join(lines)


def acting_prompt_from_scratch(bundle, ctx):
    return assemble_acting_prompt(bundle, acting_steps_from_scratch(ctx), len(ctx.steps))


def test_acting_steps_render_thought_action_observation():
    tree, leaf = chain_with(
        "who wrote it?",
        [
            ("I should search.", "OK."),
            ("Search[the book]", "It was written in 1999."),
        ],
    )
    assert render_acting_steps(tree, leaf) == (
        "Question: who wrote it?\n"
        "Thought 1: I should search.\n"
        "Action 2: Search[the book]\n"
        "Observation 2: It was written in 1999."
    )


def test_acting_steps_hide_ok_observation_for_thoughts_only():
    assert "Observation" not in render_acting_steps(*chain_with("q", [("think about it", "OK.")]))
    tree, leaf = chain_with("q", [("think about it", "something else")])
    assert "Observation 1: something else" in render_acting_steps(tree, leaf)


def test_acting_action_without_observation_renders_no_observation_line():
    tree, leaf = chain_with("q", [("Search[x]", None)])
    assert render_acting_steps(tree, leaf) == "Question: q\nAction 1: Search[x]"


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
    prompt = acting_prompt_of(bundle, "what year?")
    assert prompt.endswith("Question: what year?")
    assert prompt.startswith("Solve the task.")


def test_acting_prompt_with_steps_ends_with_thought_cue():
    bundle = PromptBundle(instruction="Solve the task.")
    steps = [("Search[a]", "nothing"), ("Search[b]", "nothing")]
    assert acting_prompt_of(bundle, "q", steps).endswith("Thought 3:")


def test_reasoning_prompt_ends_with_action_cue_until_answered():
    bundle = PromptBundle(instruction="inst")
    pending = ctx_with("q", [("I think x = 2.", "OK.")])
    assert assemble_reasoning_prompt(bundle, pending).endswith("Action:")
    done = ctx_with("q", [("Finish[2]", "Episode finished, reward = 1")])
    assert not assemble_reasoning_prompt(bundle, done).endswith("Action:")


def test_empty_cue_suppresses_trailing_cue():
    bundle = PromptBundle(instruction="inst", cue="")
    prompt = acting_prompt_of(bundle, "q", [("Search[a]", "nothing")])
    assert prompt.endswith("Observation 1: nothing")


def test_custom_cue_substitutes_step_index():
    bundle = PromptBundle(instruction="inst", cue="Next step {i}:")
    assert acting_prompt_of(bundle, "q", [("Search[a]", "nothing")]).endswith("Next step 2:")


def test_section_order_instruction_examples_reflections_query():
    bundle = PromptBundle(
        instruction="Do the task.",
        few_shot=["Question: demo\nAction 1: Finish[x]"],
        reflections=["Avoid repeating the failed search."],
        failed_trajectories=["Question: earlier\nAction 1: Finish[wrong]"],
    )
    prompt = acting_prompt_of(bundle, "real question")
    i_inst = prompt.index("Do the task.")
    i_demo = prompt.index("Question: demo")
    i_header = prompt.index(DEFAULT_REFLECTIONS_HEADER)
    i_refl = prompt.index("Avoid repeating the failed search.")
    i_failed = prompt.index("Finish[wrong]")
    i_query = prompt.index("Question: real question")
    assert i_inst < i_demo < i_header < i_refl < i_failed < i_query


def test_reflections_header_absent_without_reflections():
    bundle = PromptBundle(instruction="inst")
    assert DEFAULT_REFLECTIONS_HEADER not in acting_prompt_of(bundle, "q")


def test_context_reflections_merge_and_dedupe():
    bundle = PromptBundle(instruction="inst", reflections=["r1", "", "r2", "r1"])
    prompt = acting_prompt_of(bundle, "q")
    assert prompt.count("r1") == 1
    assert "r2" in prompt
    assert prompt.index("r1") < prompt.index("r2")


def test_failed_trajectories_included_only_when_enabled():
    # The bundle shows what it holds; inject's flag decides what it holds.
    store = ReflectionStore()
    store.record("t", "Question: q\nAction 1: Finish[wrong]", 0.0, "a reflection", 1)
    bundle = PromptBundle(instruction="inst")
    off = inject(bundle, store.select("t", 4), trajectories=False)
    on = inject(bundle, store.select("t", 4), trajectories=True)
    assert "Finish[wrong]" not in acting_prompt_of(off, "q2")
    assert "Finish[wrong]" in acting_prompt_of(on, "q2")


def test_assemble_prompt_dispatch_and_unknown_style():
    bundle = PromptBundle(instruction="inst")
    tree, leaf = chain_with("q", [("Search[a]", "nothing")])
    ctx = reconstruct_context(tree, leaf)
    assert assemble_prompt(bundle, tree, leaf, "acting") == acting_prompt_from_scratch(bundle, ctx)
    assert assemble_prompt(bundle, tree, leaf, "reasoning") == assemble_reasoning_prompt(
        bundle, ctx
    )
    with pytest.raises(ValueError):
        assemble_prompt(bundle, tree, leaf, "verse")


def test_assembly_is_pure():
    bundle = PromptBundle(instruction="inst", reflections=["r"])
    tree, leaf = chain_with("q", [("Search[a]", "nothing")])
    first = assemble_prompt(bundle, tree, leaf, "acting")
    assert assemble_prompt(bundle, tree, leaf, "acting") == first
    assert bundle.reflections == ["r"]
    assert len(tree.nodes) == 2


# -- incremental prompts -------------------------------------------------------

ACTIONS = [
    ActionSample(kind="thought", raw="think it over"),
    ActionSample(kind="env_action", raw="search[x]", verb="search", argument="x"),
    ActionSample(kind="final_answer", raw="finish[y]", verb="finish", argument="y"),
]
OBSERVATIONS = [None, "OK.", INVALID, "line one\nline two", ""]
TEXTS = ["", "  ", "Solve it.", "  padded example\n", "multi\nline"]

bundles = st.builds(
    PromptBundle,
    instruction=st.sampled_from(TEXTS),
    few_shot=st.lists(st.sampled_from(TEXTS), max_size=3),
    reflections=st.lists(st.sampled_from(["", "avoid x", "try y", "avoid x"]), max_size=4),
    failed_trajectories=st.lists(st.sampled_from(TEXTS), max_size=2),
    cue=st.sampled_from([None, "", "Thought {i}:", "Next ({i}):"]),
)


@st.composite
def trees(draw):
    """A tree of up to 40 nodes and depth 15: each node extends the newest
    node or a random earlier one."""
    tree = SearchTree.create("the question\nin two lines")
    for _ in range(draw(st.integers(0, 39))):
        newest = len(tree.nodes) - 1
        parent = newest if draw(st.booleans()) else draw(st.integers(0, newest))
        if tree.node(parent).depth >= 15:
            continue
        action = draw(st.sampled_from(ACTIONS))
        add_children(tree, parent, [(action, EnvObservation(draw(st.sampled_from(OBSERVATIONS))))])
    return tree


def sections_from_scratch(bundle, query_block):
    """The static sections joined afresh on every call, as before the head
    was cached."""
    reflections = []
    for text in bundle.reflections:
        if text and text not in reflections:
            reflections.append(text)
    parts = [bundle.instruction.strip()]
    parts.extend(example.strip() for example in bundle.few_shot)
    if reflections:
        parts.append(bundle.reflections_header.strip() + "\n\n" + "\n\n".join(reflections))
    parts.extend(t.strip() for t in bundle.failed_trajectories)
    parts.append(query_block)
    return "\n\n".join(p for p in parts if p)


def reflection_from_scratch(bundle, ctx, reward):
    parts = [bundle.instruction.strip()]
    parts.extend(example.strip() for example in bundle.few_shot)
    parts.append(acting_steps_from_scratch(ctx) + f"\nSTATUS: FAIL (reward: {reward:g})\n\nReflection:")
    return "\n\n".join(p for p in parts if p)


class ScorePrompts:
    def __init__(self):
        self.prompts = []

    def propose(self, prompt, n, seed):
        self.prompts.append(prompt)
        return ["the correctness score is 5"] * n


@settings(max_examples=80, deadline=None)
@given(tree=trees(), bundle=bundles, data=st.data())
def test_incremental_prompts_equal_the_from_scratch_assembly(tree, bundle, data):
    assert join_head(bundle.head, "Question: q") == sections_from_scratch(bundle, "Question: q")
    # Visit the nodes in any order, so a block is often first filled deep
    # in the tree, below ancestors that have none yet.
    for node_id in data.draw(st.permutations(range(len(tree.nodes)))):
        node = tree.node(node_id)
        ctx = reconstruct_context(tree, node_id)
        expected = acting_prompt_from_scratch(bundle, ctx)
        assert assemble_prompt(bundle, tree, node_id, "acting") == expected
        assert render_acting_steps(tree, node_id) == acting_steps_from_scratch(ctx)
        assert assemble_reflection_prompt(
            bundle, render_acting_steps(tree, node_id), 0.25
        ) == reflection_from_scratch(bundle, ctx, 0.25)
        if node.children:
            backend = ScorePrompts()
            evaluate_children(tree, node_id, "full", 0.5, bundle=bundle, backend=backend)
            assert backend.prompts == [
                acting_prompt_from_scratch(bundle, reconstruct_context(tree, c))
                for c in node.children
            ]


def test_value_scoring_stores_no_child_block():
    tree = SearchTree.create("q")
    child_ids = add_children(tree, 0, [(a, EnvObservation("seen")) for a in ACTIONS])
    evaluate_children(
        tree, 0, "full", 0.5, bundle=PromptBundle(instruction="rate"), backend=ScorePrompts()
    )
    assert tree.root.block == "Question: q"
    assert all(tree.node(c).block is None for c in child_ids)
