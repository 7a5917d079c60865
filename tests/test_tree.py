"""Tree structure, UCT, selection order, and backpropagation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch.actions import ActionSample
from agentsearch.tree import (
    ChildSpec,
    SearchTree,
    add_children,
    backpropagate,
    dump_tree,
    mark_unexpandable,
    reconstruct_context,
    select_path,
    tree_to_jsonl,
    uct,
)

from helpers import grow_random_tree


def make_children(tree, parent, count, terminal_rewards=None):
    specs = []
    for i in range(count):
        reward = None
        terminal = False
        if terminal_rewards and i in terminal_rewards:
            terminal = True
            reward = terminal_rewards[i]
        action = ActionSample(kind="env_action", raw=f"a{i}", verb="a", argument=str(i))
        specs.append(ChildSpec(action, f"obs{i}", terminal, reward))
    return add_children(tree, parent, specs)


# -- structure ---------------------------------------------------------------

def test_create_has_single_root():
    tree = SearchTree.create("q")
    assert tree.root.id == 0
    assert tree.root.depth == 0
    assert tree.root.parent is None
    assert tree.root.visits == 0
    assert tree.root.value == 0.0


def test_add_children_assigns_sequential_ids_and_depth():
    tree = SearchTree.create("q")
    ids = make_children(tree, 0, 3)
    assert ids == [1, 2, 3]
    assert all(tree.node(i).depth == 1 for i in ids)
    grand = make_children(tree, 2, 2)
    assert grand == [4, 5]
    assert all(tree.node(i).depth == 2 for i in grand)
    assert tree.node(2).children == [4, 5]


def test_reward_requires_terminal():
    tree = SearchTree.create("q")
    with pytest.raises(ValueError):
        add_children(tree, 0, [ChildSpec("a", "o", False, 0.5)])
    with pytest.raises(ValueError):
        add_children(tree, 0, [ChildSpec("a", "o", True, None)])


def test_terminal_children_are_exhausted_and_unexpandable():
    tree = SearchTree.create("q")
    ids = make_children(tree, 0, 2, terminal_rewards={0: 1.0, 1: 0.0})
    for i in ids:
        node = tree.node(i)
        assert node.is_terminal and node.exhausted


def test_exhaustion_propagates_to_ancestors():
    tree = SearchTree.create("q")
    a, b = make_children(tree, 0, 2)
    make_children(tree, a, 2, terminal_rewards={0: 0.0, 1: 0.0})
    assert tree.node(a).exhausted
    assert not tree.root.exhausted
    make_children(tree, b, 1, terminal_rewards={0: 0.0})
    assert tree.node(b).exhausted
    assert tree.root.exhausted


def test_mark_unexpandable_exhausts_childless_node():
    tree = SearchTree.create("q")
    a, = make_children(tree, 0, 1)
    mark_unexpandable(tree, a)
    assert tree.node(a).exhausted
    assert tree.root.exhausted


def test_path_to_root_and_context():
    tree = SearchTree.create("the question", root_observation="start")
    a, = make_children(tree, 0, 1)
    b, = make_children(tree, a, 1)
    assert tree.path_to_root(b) == [b, a, 0]
    ctx = reconstruct_context(tree, b)
    assert ctx.input == "the question"
    assert [s[0].raw for s in ctx.steps] == ["a0", "a0"]
    assert len(ctx.steps) == tree.node(b).depth


# -- uct ---------------------------------------------------------------------

def test_uct_matches_independent_arithmetic():
    cases = [
        (0.5, 1, 1, 1.0),
        (0.5, 1, 2, 1.0),
        (0.25, 3, 10, 1.0),
        (0.9, 7, 20, 0.5),
        (0.0, 2, 4, 2.0),
        (1.0, 5, 5, 0.0),
    ]
    for value, visits, parent_visits, w in cases:
        expected = value + w * math.sqrt(math.log(parent_visits) / visits)
        assert abs(uct(value, visits, parent_visits, w) - expected) < 1e-12


def test_uct_rejects_unvisited():
    with pytest.raises(ValueError):
        uct(0.5, 0, 3, 1.0)
    with pytest.raises(ValueError):
        uct(0.5, 2, 0, 1.0)


def test_uct_w_zero_is_value():
    assert uct(0.37, 4, 9, 0.0) == 0.37


# -- selection ---------------------------------------------------------------

def test_select_path_returns_root_when_childless():
    tree = SearchTree.create("q")
    assert select_path(tree, 1.0) == 0


def test_select_path_unvisited_first_in_creation_order():
    tree = SearchTree.create("q")
    ids = make_children(tree, 0, 3)
    backpropagate(tree, ids[0], 1.0)
    # highest value sits on ids[0], but ids[1] is unvisited and comes first
    assert select_path(tree, 1.0) == ids[1]
    backpropagate(tree, ids[1], 0.0)
    assert select_path(tree, 1.0) == ids[2]


def test_select_path_eval_seeded_children_still_count_as_unvisited():
    tree = SearchTree.create("q")
    ids = make_children(tree, 0, 3)
    for i in ids:
        node = tree.node(i)
        node.eval_score = 0.9
        node.value = 0.9
    backpropagate(tree, ids[2], 1.0)
    assert select_path(tree, 1.0) == ids[0]


def test_select_path_uct_tie_breaks_to_lowest_id():
    tree = SearchTree.create("q")
    ids = make_children(tree, 0, 3)
    for i in ids:
        backpropagate(tree, i, 0.5)
    assert select_path(tree, 1.0) == ids[0]


def test_select_path_skips_exhausted_branches():
    tree = SearchTree.create("q")
    a, b = make_children(tree, 0, 2)
    make_children(tree, a, 1, terminal_rewards={0: 0.0})
    assert tree.node(a).exhausted
    backpropagate(tree, a, 0.9)
    backpropagate(tree, b, 0.1)
    assert select_path(tree, 1.0) == b


def test_select_path_exhausted_tree_returns_none():
    tree = SearchTree.create("q")
    make_children(tree, 0, 2, terminal_rewards={0: 0.0, 1: 0.0})
    assert select_path(tree, 1.0) is None


def test_select_path_descends_by_uct():
    tree = SearchTree.create("q")
    a, b = make_children(tree, 0, 2)
    # a: mean 0.8 over 2 visits, b: mean 0.1 over 1 visit
    backpropagate(tree, a, 0.8)
    backpropagate(tree, a, 0.8)
    backpropagate(tree, b, 0.1)
    # w=0: pure exploitation goes to a
    assert select_path(tree, 0.0) == a
    # large w: exploration term dominates, b has fewer visits
    assert select_path(tree, 100.0) == b


# -- backpropagation ----------------------------------------------------------

def test_backprop_first_visit_sets_value_to_reward():
    # a freshly expanded node receiving reward 0.8 ends at N=1, V=0.8
    tree = SearchTree.create("q")
    a, = make_children(tree, 0, 1)
    backpropagate(tree, a, 0.8)
    assert tree.node(a).visits == 1
    assert tree.node(a).value == 0.8
    assert tree.root.visits == 1
    assert tree.root.value == 0.8


def test_backprop_overwrites_eval_seed_on_first_visit():
    tree = SearchTree.create("q")
    a, = make_children(tree, 0, 1)
    node = tree.node(a)
    node.eval_score = 0.6
    node.value = 0.6
    backpropagate(tree, a, 1.0)
    assert node.visits == 1
    assert node.value == 1.0


def test_backprop_running_mean_two_rewards():
    tree = SearchTree.create("q")
    a, = make_children(tree, 0, 1)
    backpropagate(tree, a, 1.0)
    backpropagate(tree, a, 0.0)
    assert tree.node(a).visits == 2
    assert abs(tree.node(a).value - 0.5) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=30))
def test_backprop_value_is_mean_of_rewards(rewards):
    tree = SearchTree.create("q")
    a, = make_children(tree, 0, 1)
    b, = make_children(tree, a, 1)
    for r in rewards:
        backpropagate(tree, b, r)
    mean = sum(rewards) / len(rewards)
    for node_id in (b, a, 0):
        node = tree.node(node_id)
        assert node.visits == len(rewards)
        assert abs(node.value - mean) < 1e-9


def test_backprop_randomized_trees_match_brute_force():
    rng = random.Random(20240817)
    for _ in range(50):
        tree, leaves = grow_random_tree(rng)
        if not leaves:
            continue
        history = {n.id: [] for n in tree.nodes}
        episodes = rng.randint(1, 15)
        for _ in range(episodes):
            leaf = rng.choice(leaves)
            reward = rng.random()
            backpropagate(tree, leaf, reward)
            for node_id in tree.path_to_root(leaf):
                history[node_id].append(reward)
        assert tree.root.visits == episodes
        for node in tree.nodes:
            rewards = history[node.id]
            assert node.visits == len(rewards)
            if rewards:
                assert abs(node.value - sum(rewards) / len(rewards)) < 1e-9


# -- serialization -------------------------------------------------------------

def test_dump_tree_row_fields_and_jsonl():
    tree = SearchTree.create("q", root_observation="hello")
    a, = make_children(tree, 0, 1)
    backpropagate(tree, a, 0.4)
    rows = dump_tree(tree)
    assert [r["id"] for r in rows] == [0, a]
    assert rows[1]["action"] == "a0"
    assert rows[1]["visits"] == 1
    text = tree_to_jsonl(tree)
    lines = text.strip().split("\n")
    assert len(lines) == 2
    import json

    assert json.loads(lines[0])["id"] == 0


def test_tree_jsonl_bytes_are_pinned():
    # Written by `agentsearch run --out` as <task>.tree.jsonl; readers of old
    # dumps depend on these exact bytes (key order, separators, escapes).
    tree = SearchTree.create("q", root_observation="Remaining numbers: 1 4 6 9")
    a, _ = add_children(
        tree,
        0,
        [
            ChildSpec(
                ActionSample(kind="env_action", raw="combine[4 / 6]", verb="combine",
                             argument="4 / 6"),
                "Remaining numbers: 1 9 2/3",
            ),
            ChildSpec(
                ActionSample(kind="env_action", raw="finish[x]", verb="finish", argument="x"),
                "done \u2014 half",
                True,
                0.5,
            ),
        ],
    )
    backpropagate(tree, a, 1 / 3)
    backpropagate(tree, a, 0.0)
    assert tree_to_jsonl(tree) == (
        '{"action":null,"id":0,"observation":"Remaining numbers: 1 4 6 9","parent":null,'
        '"reward":null,"terminal":false,"value":0.16666666666666666,"visits":2}\n'
        '{"action":"combine[4 / 6]","id":1,"observation":"Remaining numbers: 1 9 2/3",'
        '"parent":0,"reward":null,"terminal":false,"value":0.16666666666666666,"visits":2}\n'
        '{"action":"finish[x]","id":2,"observation":"done \\u2014 half","parent":0,'
        '"reward":0.5,"terminal":true,"value":0.0,"visits":0}\n'
    )
