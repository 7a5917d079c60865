"""LM score parsing, self-consistency, and the weighted mix."""

import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch.actions import normalize_action_text, parse_action
from agentsearch.backends import BackendError
from agentsearch.envs.game24 import GRAMMAR
from agentsearch.prompts import PromptBundle
from agentsearch.tree import ChildSpec, SearchTree, add_children
from agentsearch.valuation import (
    ValuePool,
    ValueScore,
    combine,
    evaluate_children,
    lm_score,
    parse_score,
    sc_score,
)

from helpers import SlowBackend


def combo_actions(raws):
    return [parse_action(r, GRAMMAR) for r in raws]


# -- parse_score -----------------------------------------------------------------

def test_parse_score_reads_the_stated_score():
    assert parse_score("The state looks fine. Thus the correctness score is 7") == 7


def test_parse_score_takes_last_match():
    text = "the correctness score is 3. Revised: thus the correctness score is 9"
    assert parse_score(text) == 9


def test_parse_score_returns_raw_integer():
    # clamping happens in lm_score, not here
    assert parse_score("correctness score is 15") == 15
    assert parse_score("correctness score is 0") == 0


def test_parse_score_none_when_absent():
    assert parse_score("no verdict here") is None


# -- lm_score ---------------------------------------------------------------------

class OneShotBackend:
    def __init__(self, texts):
        self.texts = list(texts)
        self.seeds = []
        self.prompts = []

    def propose(self, prompt, n, seed):
        self.seeds.append(seed)
        self.prompts.append(prompt)
        return [self.texts.pop(0)] if self.texts else [""]


def test_lm_score_parses_first_attempt():
    backend = OneShotBackend(["Thus the correctness score is 8"])
    score, raw = lm_score("rate it\n\nQuestion: q", backend, seed=11)
    assert raw == 8
    assert score == 0.8
    assert len(backend.seeds) == 1


def test_lm_score_clamps_raw_scores():
    prompt = "rate it\n\nQuestion: q"
    score, raw = lm_score(prompt, OneShotBackend(["correctness score is 15"]), seed=1)
    assert (score, raw) == (1.0, 10)
    score, raw = lm_score(prompt, OneShotBackend(["correctness score is 0"]), seed=1)
    assert (score, raw) == (0.1, 1)


def test_lm_score_retries_once_then_flags():
    backend = OneShotBackend(["nothing", "still nothing"])
    score, raw = lm_score("rate it\n\nQuestion: q", backend, seed=11)
    assert (score, raw) == (0.0, None)
    assert len(backend.seeds) == 2
    assert backend.seeds[0] != backend.seeds[1]
    assert backend.prompts == ["rate it\n\nQuestion: q"] * 2


# -- sc_score ----------------------------------------------------------------------

def test_sc_score_counts_duplicates():
    sibs = combo_actions(["combine[1 + 2]", "combine[1 + 2]", "combine[3 * 4]"])
    assert sc_score(sibs, 0) == pytest.approx(2 / 3)
    assert sc_score(sibs, 2) == pytest.approx(1 / 3)


def test_sc_score_all_distinct_is_exactly_1_over_n():
    sibs = combo_actions([f"combine[{i} + 1]" for i in range(1, 6)])
    for i in range(5):
        assert sc_score(sibs, i) == 1 / 5


def test_sc_score_case_fold_on_verb():
    sibs = combo_actions(["combine[1 + 2]", "COMBINE[1 + 2]"])
    assert sc_score(sibs, 0) == 1.0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=7))
def test_sc_score_matches_brute_force_frequency(tags, index):
    if index >= len(tags):
        index = index % len(tags)
    sibs = combo_actions([f"combine[{t} + {t}]" for t in tags])
    counts = Counter(normalize_action_text(s) for s in sibs)
    expected = counts[normalize_action_text(sibs[index])] / len(sibs)
    assert sc_score(sibs, index) == pytest.approx(expected, abs=1e-12)


# -- combine ------------------------------------------------------------------------

def test_combine_grid_matches_formula_exactly():
    points = [(0.0, 0.0), (0.1, 0.9), (0.5, 0.5), (1.0, 0.2), (0.7, 1.0)]
    for lam in (0.0, 0.5, 0.8, 1.0):
        for lm, sc in points:
            assert combine(lm, sc, lam) == lam * lm + (1 - lam) * sc


def test_combine_validates_ranges():
    with pytest.raises(ValueError):
        combine(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        combine(0.5, 1.2, 0.5)
    with pytest.raises(ValueError):
        combine(0.5, 0.5, 1.5)


def test_default_lambda_per_kind():
    from agentsearch.envs import DEFAULT_LAMBDA

    assert DEFAULT_LAMBDA["game24"] == 0.5
    assert DEFAULT_LAMBDA["docqa"] == 0.5
    assert DEFAULT_LAMBDA["shop"] == 0.8
    assert DEFAULT_LAMBDA["solution"] == 0.8


# -- evaluate_children -----------------------------------------------------------------

def scored_tree():
    tree = SearchTree.create("Use 1 4 6 to make 24.")
    specs = [
        ChildSpec(parse_action("combine[4 + 6]", GRAMMAR), "Remaining numbers: 1 10"),
        ChildSpec(parse_action("combine[4 + 6]", GRAMMAR), "Remaining numbers: 1 10"),
        ChildSpec(parse_action("combine[4 * 6]", GRAMMAR), "Remaining numbers: 1 24"),
    ]
    add_children(tree, 0, specs)
    return tree


class FixedScoreBackend:
    def __init__(self, score):
        self.score = score
        self.calls = 0

    def propose(self, prompt, n, seed):
        self.calls += 1
        return [f"Thus the correctness score is {self.score}"]


def test_evaluate_children_full_mode_mixes_lm_and_sc():
    tree = scored_tree()
    backend = FixedScoreBackend(10)
    bundle = PromptBundle(instruction="rate")
    evaluate_children(tree, 0, "full", 0.5, bundle, backend, seed=3)
    assert tree.node(1).value == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
    assert tree.node(3).value == pytest.approx(0.5 * 1.0 + 0.5 * (1 / 3))
    assert all(isinstance(tree.node(i).eval_score, ValueScore) for i in (1, 2, 3))
    assert backend.calls == 3


def test_evaluate_children_sc_only_skips_backend():
    tree = scored_tree()
    backend = FixedScoreBackend(10)
    bundle = PromptBundle(instruction="rate")
    evaluate_children(tree, 0, "sc_only", 0.5, bundle, backend, seed=3)
    assert backend.calls == 0
    assert tree.node(1).value == pytest.approx(2 / 3)
    assert tree.node(3).value == pytest.approx(1 / 3)


def test_evaluate_children_skips_already_scored():
    tree = scored_tree()
    backend = FixedScoreBackend(10)
    bundle = PromptBundle(instruction="rate")
    first = evaluate_children(tree, 0, "full", 0.5, bundle, backend, seed=3)
    assert first == [(i, tree.node(i).eval_score) for i in (1, 2, 3)]
    calls_after_first = backend.calls
    assert evaluate_children(tree, 0, "full", 0.5, bundle, backend, seed=3) == []
    assert backend.calls == calls_after_first


def test_evaluate_children_does_not_touch_visited_value():
    tree = scored_tree()
    from agentsearch.tree import backpropagate

    backpropagate(tree, 1, 0.9)
    backend = FixedScoreBackend(10)
    bundle = PromptBundle(instruction="rate")
    evaluate_children(tree, 0, "full", 0.5, bundle, backend, seed=3)
    assert tree.node(1).value == 0.9
    assert tree.node(1).eval_score is not None


class ExplodingBackend:
    def propose(self, prompt, n, seed):
        raise BackendError("down")


def test_evaluate_children_flags_backend_failures():
    tree = scored_tree()
    bundle = PromptBundle(instruction="rate")
    evaluate_children(tree, 0, "full", 0.5, bundle, ExplodingBackend(), seed=3)
    for i in (1, 2, 3):
        score = tree.node(i).eval_score
        assert score.flagged
        assert score.lm_score == 0.0


class PerChildBackend:
    """Scores each child by its prompt's length; the state "1 24" is an
    outage."""

    def propose(self, prompt, n, seed):
        if "Remaining numbers: 1 24" in prompt:
            raise BackendError("down")
        return [f"Thus the correctness score is {len(prompt) % 10 + 1}"]


def fanned_tree():
    tree = scored_tree()
    specs = [
        ChildSpec(parse_action(f"combine[1 + {i}]", GRAMMAR), f"Remaining numbers: {i + 1} 6")
        for i in range(4)
    ]
    add_children(tree, 0, specs)
    return tree


def test_evaluate_children_gives_the_same_pairs_with_fan_out():
    bundle = PromptBundle(instruction="rate")
    inline = evaluate_children(fanned_tree(), 0, "full", 0.5, bundle, PerChildBackend(), seed=3)
    assert [child_id for child_id, _ in inline] == [1, 2, 3, 4, 5, 6, 7]
    assert [score.flagged for _, score in inline] == [False, False, True] + [False] * 4
    pool = ValuePool(3)
    try:
        for slow_from_the_start in (False, True):
            pool.slow = slow_from_the_start
            backend = SlowBackend(PerChildBackend())
            tree = fanned_tree()
            pairs = evaluate_children(tree, 0, "full", 0.5, bundle, backend, seed=3, pool=pool)
            assert pairs == inline
            assert [tree.node(i).eval_score for i, _ in pairs] == [s for _, s in inline]
            assert backend.trips.peak > 1
            assert pool.slow
    finally:
        pool.close()


class CrashingBackend:
    """Raises RuntimeError for the states "2 6" and "3 6"; the later child
    fails first."""

    def propose(self, prompt, n, seed):
        if "Remaining numbers: 2 6" in prompt:
            time.sleep(0.02)
            raise RuntimeError("2 6")
        if "Remaining numbers: 3 6" in prompt:
            raise RuntimeError("3 6")
        return ["Thus the correctness score is 5"]


def test_evaluate_children_raises_the_earliest_childs_error_with_fan_out():
    pool = ValuePool(7)
    pool.slow = True
    try:
        with pytest.raises(RuntimeError, match="2 6"):
            evaluate_children(
                fanned_tree(), 0, "full", 0.5, PromptBundle(instruction="rate"),
                CrashingBackend(), seed=3, pool=pool,
            )
    finally:
        pool.close()
