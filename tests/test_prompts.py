"""Prompt assembly tests: section order, trajectory rendering, cues."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch.actions import ActionGrammar, ActionSample, parse_action
from agentsearch.envs import load_task, make_env, task_input
from agentsearch.envs.base import INVALID, EnvObservation
from agentsearch.prompts import (
    DEFAULT_REFLECTIONS_HEADER,
    PromptBundle,
    assemble_acting_prompt,
    assemble_prompt,
    join_head,
    render_acting_steps,
)
from agentsearch.reflection import ReflectionStore, assemble_reflection_prompt, inject
from agentsearch.tree import SearchTree, add_children
from agentsearch.valuation import evaluate_children

from helpers import acting_steps_from_scratch, bundled_task_files


GRAMMAR = ActionGrammar(
    verbs=("search", "lookup", "finish", "combine"),
    thought_verbs=("think",),
    terminal_verbs=("finish",),
)


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


def reasoning_prompt_of(bundle, input_text, raw_steps=()):
    tree, leaf = chain_with(input_text, raw_steps)
    return assemble_prompt(bundle, tree, leaf, "reasoning")


# -- from-scratch references: each prompt rendered afresh from the path ------


def acting_prompt_from_scratch(bundle, tree, node_id):
    block = acting_steps_from_scratch(tree, node_id)
    return assemble_acting_prompt(bundle, block, tree.node(node_id).depth)


def reasoning_prompt_from_scratch(bundle, tree, node_id):
    """The node's reasoning-style policy prompt, read off the nodes on its
    path: thoughts numbered by depth, any other step a bare "Action:" line,
    no observations, and a cue unless some step on the path answered."""
    path = [tree.node(i) for i in reversed(tree.path_to_root(node_id)) if i != 0]
    lines = [f"Question: {tree.input}"]
    for node in path:
        if node.action.kind == "thought":
            lines.append(f"Thought {node.depth}: {node.action.raw}")
        else:
            lines.append(f"Action: {node.action.raw}")
    if not any(node.action.kind == "final_answer" for node in path):
        if bundle.cue is None and path:
            lines.append("Action:")
        elif bundle.cue:
            lines.append(bundle.cue.replace("{i}", str(len(path) + 1)))
    return sections_from_scratch(bundle, "\n".join(lines))


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
    prompt = reasoning_prompt_of(
        PromptBundle(instruction="inst", cue=""),
        "make 24",
        [
            ("I will combine the fours.", "OK."),
            ("combine[4 * 6]", "Remaining numbers: 1 24"),
        ],
    )
    assert prompt == (
        "inst\n\n"
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
    assert reasoning_prompt_of(bundle, "q") == "inst\n\nQuestion: q"
    pending = reasoning_prompt_of(bundle, "q", [("I think x = 2.", "OK.")])
    assert pending == "inst\n\nQuestion: q\nThought 1: I think x = 2.\nAction:"
    done = [("Finish[2]", "Episode finished, reward = 1"), ("I think x = 2.", "OK.")]
    assert not reasoning_prompt_of(bundle, "q", done[:1]).endswith("Action:")
    assert not reasoning_prompt_of(bundle, "q", done).endswith("Action:")


def test_reasoning_prompt_below_a_rejected_shop_purchase_has_no_action_cue():
    # choose[Buy Now] off a results page is a final answer that the shop
    # rejects: the node is not terminal, so the search may expand below it.
    task = load_task(bundled_task_files("shop")[0])
    env = make_env("shop")
    tree = SearchTree.create(task_input(task), root_observation=env.reset(task).text)
    leaf = 0
    for raw in ("search[jacket]", "choose[Buy Now]", "think[try the first result]"):
        action = parse_action(raw, env.grammar)
        (leaf,) = add_children(tree, leaf, [(action, env.step(action))])
    buy = tree.node(tree.node(leaf).parent)
    assert buy.action.kind == "final_answer"
    assert buy.observation == INVALID and not buy.is_terminal
    bundle = PromptBundle(instruction="inst")
    for node_id, last_line in [
        (buy.id, "Action: choose[Buy Now]"),
        (leaf, "Thought 3: think[try the first result]"),
    ]:
        prompt = assemble_prompt(bundle, tree, node_id, "reasoning")
        assert prompt == reasoning_prompt_from_scratch(bundle, tree, node_id)
        assert prompt.endswith("\n" + last_line)


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
    acting = assemble_prompt(bundle, tree, leaf, "acting")
    assert acting == acting_prompt_from_scratch(bundle, tree, leaf)
    assert acting.endswith("Observation 1: nothing\nThought 2:")
    reasoning = assemble_prompt(bundle, tree, leaf, "reasoning")
    assert reasoning == reasoning_prompt_from_scratch(bundle, tree, leaf)
    assert reasoning == "inst\n\nQuestion: q\nAction: Search[a]\nAction:"
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


def reflection_from_scratch(bundle, tree, node_id, reward):
    parts = [bundle.instruction.strip()]
    parts.extend(example.strip() for example in bundle.few_shot)
    status = f"\nSTATUS: FAIL (reward: {reward:g})\n\nReflection:"
    parts.append(acting_steps_from_scratch(tree, node_id) + status)
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
        expected = acting_prompt_from_scratch(bundle, tree, node_id)
        assert assemble_prompt(bundle, tree, node_id, "acting") == expected
        assert render_acting_steps(tree, node_id) == acting_steps_from_scratch(tree, node_id)
        assert assemble_reflection_prompt(
            bundle, render_acting_steps(tree, node_id), 0.25
        ) == reflection_from_scratch(bundle, tree, node_id, 0.25)
        expected = reasoning_prompt_from_scratch(bundle, tree, node_id)
        assert assemble_prompt(bundle, tree, node_id, "reasoning") == expected
        if node.children:
            backend = ScorePrompts()
            evaluate_children(tree, node_id, "full", 0.5, bundle=bundle, backend=backend)
            assert backend.prompts == [
                acting_prompt_from_scratch(bundle, tree, c) for c in node.children
            ]


def test_value_scoring_stores_no_child_block():
    tree = SearchTree.create("q")
    child_ids = add_children(tree, 0, [(a, EnvObservation("seen")) for a in ACTIONS])
    evaluate_children(
        tree, 0, "full", 0.5, bundle=PromptBundle(instruction="rate"), backend=ScorePrompts()
    )
    assert tree.root.block == "Question: q"
    assert all(tree.node(c).block is None for c in child_ids)
