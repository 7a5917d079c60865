"""LM score parsing, self-consistency, and the weighted mix."""

import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch.actions import ActionSample, normalize_action_text, parse_action
from agentsearch.backends import BackendError
from agentsearch.envs.base import INVALID_OBSERVATION, OK_OBSERVATION, EnvObservation
from agentsearch.envs import Game24Env
from agentsearch.prompts import (
    PromptBundle,
    assemble_acting_prompt,
    render_acting_steps,
    render_step,
)
from agentsearch.seeding import stable_seed
from agentsearch.tree import SearchTree, add_children
from agentsearch.valuation import (
    combine,
    evaluate_children,
    lm_score,
    parse_score,
    sc_scores,
)

from helpers import SlowBackend, value_pool


GRAMMAR = Game24Env.grammar


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
    assert lm_score("rate it\n\nQuestion: q", backend, seed=11) == 0.8
    assert len(backend.seeds) == 1


def test_lm_score_clamps_raw_scores():
    prompt = "rate it\n\nQuestion: q"
    assert lm_score(prompt, OneShotBackend(["correctness score is 15"]), seed=1) == 1.0
    assert lm_score(prompt, OneShotBackend(["correctness score is 0"]), seed=1) == 0.1
    # int() refuses over 4,300 digits; a score of any length still clamps.
    for digits, clamped in (("9" * 5000, 10), ("-" + "9" * 5000, 1), ("0" * 5000 + "7", 7)):
        text = "Thus the correctness score is " + digits
        assert lm_score(prompt, OneShotBackend([text]), seed=1) == clamped / 10


def test_lm_score_gives_the_clamped_tenth_as_one_shared_float():
    prompt = "rate it\n\nQuestion: q"
    for raw in (-3, *range(1, 11), 12):
        text = f"Thus the correctness score is {raw}"
        first = lm_score(prompt, OneShotBackend([text]), seed=1)
        again = lm_score(prompt, OneShotBackend([text]), seed=2)
        assert first == min(10, max(1, raw)) / 10.0
        assert first is again


def test_lm_score_retries_once_then_flags():
    backend = OneShotBackend(["nothing", "still nothing"])
    assert lm_score("rate it\n\nQuestion: q", backend, seed=11) is None
    assert len(backend.seeds) == 2
    assert backend.seeds[0] != backend.seeds[1]
    assert backend.prompts == ["rate it\n\nQuestion: q"] * 2


# -- sc_scores ---------------------------------------------------------------------

def test_sc_score_counts_duplicates():
    sibs = combo_actions(["combine[1 + 2]", "combine[1 + 2]", "combine[3 * 4]"])
    assert sc_scores(sibs) == [pytest.approx(2 / 3), pytest.approx(2 / 3), pytest.approx(1 / 3)]


def test_sc_score_all_distinct_is_exactly_1_over_n():
    sibs = combo_actions([f"combine[{i} + 1]" for i in range(1, 6)])
    assert sc_scores(sibs) == [1 / 5] * 5


def test_sc_score_case_fold_on_verb():
    sibs = combo_actions(["combine[1 + 2]", "COMBINE[1 + 2]"])
    assert sc_scores(sibs) == [1.0, 1.0]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=8))
def test_sc_score_matches_brute_force_frequency(tags):
    sibs = combo_actions([f"combine[{t} + {t}]" for t in tags])
    counts = Counter(normalize_action_text(s) for s in sibs)
    # the same division as counting each sibling on its own, so equal floats
    expected = [counts[normalize_action_text(s)] / len(sibs) for s in sibs]
    scores = sc_scores(sibs)
    assert scores == expected
    # one float per distinct count, shared by every sibling with that count
    assert len({id(score) for score in scores}) == len(set(counts.values()))


# -- combine ------------------------------------------------------------------------

def test_combine_grid_matches_formula_exactly():
    points = [(0.0, 0.0), (0.1, 0.9), (0.5, 0.5), (1.0, 0.2), (0.7, 1.0)]
    for lam in (0.0, 0.5, 0.8, 1.0):
        for lm, sc in points:
            assert combine(lm, sc, lam) == lam * lm + (1 - lam) * sc


def test_default_lambda_per_kind():
    from agentsearch.envs import REGISTRY

    assert REGISTRY["game24"].lam == 0.5
    assert REGISTRY["docqa"].lam == 0.5
    assert REGISTRY["shop"].lam == 0.8
    assert REGISTRY["solution"].lam == 0.8


# -- evaluate_children -----------------------------------------------------------------

def scored_tree():
    tree = SearchTree.create("Use 1 4 6 to make 24.")
    steps = [
        (parse_action("combine[4 + 6]", GRAMMAR), EnvObservation("Remaining numbers: 1 10")),
        (parse_action("combine[4 + 6]", GRAMMAR), EnvObservation("Remaining numbers: 1 10")),
        (parse_action("combine[4 * 6]", GRAMMAR), EnvObservation("Remaining numbers: 1 24")),
    ]
    add_children(tree, 0, steps)
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
    records = evaluate_children(tree, 0, "full", 0.5, bundle, backend, seed=3)
    assert tree.node(1).value == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
    assert tree.node(3).value == pytest.approx(0.5 * 1.0 + 0.5 * (1 / 3))
    assert records == [
        {"id": i, "lm": 1.0, "sc": sc, "combined": tree.node(i).value, "flagged": False}
        for i, sc in ((1, 2 / 3), (2, 2 / 3), (3, 1 / 3))
    ]
    assert backend.calls == 3


def test_evaluate_children_sc_only_skips_backend():
    tree = scored_tree()
    backend = FixedScoreBackend(10)
    bundle = PromptBundle(instruction="rate")
    records = evaluate_children(tree, 0, "sc_only", 0.5, bundle, backend, seed=3)
    assert backend.calls == 0
    # combined is sc itself, not 0.5 * 0 + 0.5 * sc
    assert records == [
        {"id": i, "lm": 0.0, "sc": sc, "combined": sc, "flagged": False}
        for i, sc in ((1, 2 / 3), (2, 2 / 3), (3, 1 / 3))
    ]
    assert [tree.node(i).value for i in (1, 2, 3)] == [2 / 3, 2 / 3, 1 / 3]


def test_evaluate_children_rejects_modes_that_score_nothing():
    for mode in ("none", "bogus"):
        with pytest.raises(ValueError):
            evaluate_children(scored_tree(), 0, mode, 0.5)


def test_evaluate_children_rejects_lambda_outside_unit_interval():
    backend = FixedScoreBackend(10)
    for mode in ("full", "sc_only"):
        for lam in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="lambda"):
                evaluate_children(scored_tree(), 0, mode, lam, PromptBundle("rate"), backend)
    assert backend.calls == 0


# One child's value answer per attempt: a stated score, unparseable text, or
# a BackendError.
ANSWER = st.one_of(st.integers(-20, 30), st.just("no verdict"), st.just(BackendError))


class AnsweringBackend:
    """Answers each child's value calls in turn from its list of answers; the
    child is told apart by the "<child i>" marker in its observation."""

    def __init__(self, answers):
        self.answers = answers
        self.calls = Counter()

    def propose(self, prompt, n, seed):
        child = next(i for i in range(len(self.answers)) if f"<child {i}>" in prompt)
        answer = self.answers[child][self.calls[child]]
        self.calls[child] += 1
        if answer is BackendError:
            raise BackendError("down")
        return [answer if isinstance(answer, str) else f"Thus the correctness score is {answer}"]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.tuples(ANSWER, ANSWER)), min_size=1, max_size=8),
    st.floats(0.0, 1.0),
)
def test_value_records_blend_in_range_scores_and_flag_failures(children, lam):
    tree = SearchTree.create("Use 1 4 6 to make 24.")
    steps = [
        (parse_action(f"combine[{tag} + {tag}]", GRAMMAR), EnvObservation(f"<child {i}>"))
        for i, (tag, _) in enumerate(children)
    ]
    add_children(tree, 0, steps)
    backend = AnsweringBackend([answers for _, answers in children])
    records = evaluate_children(tree, 0, "full", lam, PromptBundle("rate"), backend, seed=5)
    assert [record["id"] for record in records] == list(range(1, len(children) + 1))
    for record, (_, (first, second)) in zip(records, children):
        lm, sc = record["lm"], record["sc"]
        assert record["combined"] == lam * lm + (1 - lam) * sc
        assert tree.node(record["id"]).value == record["combined"]
        assert 0.0 <= lm <= 1.0 and 0.0 <= sc <= 1.0
        # An error ends the query; unparseable text gets one retry.
        if isinstance(first, int):
            stated = first
        elif first == "no verdict" and isinstance(second, int):
            stated = second
        else:
            stated = None
        assert record["flagged"] == (stated is None)
        assert lm == (0.0 if stated is None else min(10, max(1, stated)) / 10)


class ExplodingBackend:
    def propose(self, prompt, n, seed):
        raise BackendError("down")


def test_evaluate_children_flags_backend_failures():
    tree = scored_tree()
    bundle = PromptBundle(instruction="rate")
    records = evaluate_children(tree, 0, "full", 0.5, bundle, ExplodingBackend(), seed=3)
    assert [record["id"] for record in records] == [1, 2, 3]
    for record in records:
        assert record["flagged"]
        assert record["lm"] == 0.0


class PerChildBackend:
    """Scores each child by its prompt's length; the state "1 24" is an
    outage."""

    def propose(self, prompt, n, seed):
        if "Remaining numbers: 1 24" in prompt:
            raise BackendError("down")
        return [f"Thus the correctness score is {len(prompt) % 10 + 1}"]


def fanned_tree():
    tree = scored_tree()
    steps = [
        (
            parse_action(f"combine[1 + {i}]", GRAMMAR),
            EnvObservation(f"Remaining numbers: {i + 1} 6"),
        )
        for i in range(4)
    ]
    add_children(tree, 0, steps)
    return tree


def test_evaluate_children_gives_the_same_records_with_fan_out():
    bundle = PromptBundle(instruction="rate")
    inline = evaluate_children(fanned_tree(), 0, "full", 0.5, bundle, PerChildBackend(), seed=3)
    assert [record["id"] for record in inline] == [1, 2, 3, 4, 5, 6, 7]
    assert [record["flagged"] for record in inline] == [False, False, True] + [False] * 4
    backend = SlowBackend(PerChildBackend())
    tree = fanned_tree()
    with value_pool(3) as pool:
        records = evaluate_children(tree, 0, "full", 0.5, bundle, backend, seed=3, pool=pool)
    assert records == inline
    assert [tree.node(r["id"]).value for r in records] == [r["combined"] for r in inline]
    assert backend.trips.peak > 1


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
    with value_pool(7) as pool, pytest.raises(RuntimeError, match="2 6"):
        evaluate_children(
            fanned_tree(), 0, "full", 0.5, PromptBundle(instruction="rate"),
            CrashingBackend(), seed=3, pool=pool,
        )


# -- evaluate_children against a from-scratch reference ----------------------------


def sc_scores_from_scratch(siblings):
    distinct = {s: normalize_action_text(s) for s in set(siblings)}
    normalized = [distinct[s] for s in siblings]
    counts = Counter(normalized)
    shares = {count: count / len(normalized) for count in set(counts.values())}
    return [shares[counts[text]] for text in normalized]


def evaluate_children_from_scratch(
    tree, parent_id, mode, lam, bundle=None, backend=None, seed=0, pool=None
):
    """evaluate_children written plainly: one seed and one value prompt per
    child, deduplicated on the (action, observation) pair."""
    if mode not in ("full", "sc_only"):
        raise ValueError(f"no child scoring in value mode {mode!r}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    children = [tree.node(c) for c in tree.node(parent_id).children]
    if mode == "full":
        block = render_acting_steps(tree, parent_id)
        prompts = {}
        for child in children:
            step = child.action, child.observation
            if step not in prompts:
                text = block + "\n" + render_step(child.depth, *step)
                prompts[step] = assemble_acting_prompt(bundle, text, child.depth)
        texts = [prompts[child.action, child.observation] for child in children]
        seeds = [stable_seed(seed, child.id) for child in children]
        calls = lm_score, texts, [backend] * len(children), seeds
        lm_results = list(map(*calls)) if pool is None else pool.map(*calls)
    else:
        lm_results = [0.0] * len(children)
    records = []
    agreement = sc_scores_from_scratch([child.action for child in children])
    for child, lm, sc in zip(children, lm_results, agreement):
        flagged = lm is None
        lm = 0.0 if flagged else lm
        child.value = sc if mode == "sc_only" else combine(lm, sc, lam)
        records.append(
            {"id": child.id, "lm": lm, "sc": sc, "combined": child.value, "flagged": flagged}
        )
    return records


# Proposal texts and what playing them observes. Some normalize alike; the
# last two do not parse, so they are thoughts that observe an invalid action.
PROPOSALS = [
    ("combine[4 + 6]", "Remaining numbers: 1 10"),
    ("COMBINE[4 + 6]", "Remaining numbers: 1 10"),
    ("combine[4  +  6]", "Remaining numbers: 1 10"),
    ("combine[4 * 6]", "Remaining numbers: 1 24"),
    ("think[halve it]", OK_OBSERVATION.text),
    ("Thought: try 6 - 4", OK_OBSERVATION.text),
    ("combine[4 +", INVALID_OBSERVATION.text),
    ("(empty proposal)", INVALID_OBSERVATION.text),
]


def sibling_tree(siblings):
    """A parent at depth 1 with one child per (proposal index, shared) pair.
    A shared repeat takes the earlier sibling's action and observation
    objects, as the engine gives them; any other child gets equal copies."""
    tree = SearchTree.create("Use 1 4 6 to make 24.")
    add_children(tree, 0, [(parse_action("combine[1 + 4]", GRAMMAR), EnvObservation("5 6"))])
    made = {}
    steps = []
    for index, shared in siblings:
        if not (shared and index in made):
            raw, text = PROPOSALS[index]
            try:
                action = parse_action(raw, GRAMMAR)
            except ValueError:
                action = ActionSample(kind="thought", raw=raw)
            made[index] = action, EnvObservation("".join(list(text)))
        steps.append(made[index])
    add_children(tree, 1, steps)
    return tree


class RecordingBackend:
    """Answers from (prompt, seed) alone: a score, unparseable text or an
    outage. Records every call."""

    def __init__(self):
        self.calls = []

    def propose(self, prompt, n, seed):
        self.calls.append((prompt, n, seed))
        pick = stable_seed(prompt, seed) % 14
        if pick == 0:
            raise BackendError("down")
        if pick == 1:
            return ["no verdict"]
        return [f"Thus the correctness score is {pick - 2}"]


@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
@pytest.mark.parametrize("mode", ["full", "sc_only"])
@settings(max_examples=40, deadline=None)
@given(
    siblings=st.lists(
        st.tuples(st.integers(0, len(PROPOSALS) - 1), st.booleans()), min_size=1, max_size=8
    ),
    lam=st.floats(0.0, 1.0),
    seed=st.integers(-(2**70), 2**70),
    cue=st.sampled_from([None, "", "Step {i}:"]),
)
def test_evaluate_children_equals_the_from_scratch_reference(
    mode, pooled, siblings, lam, seed, cue
):
    outcomes = []
    for evaluate in (evaluate_children, evaluate_children_from_scratch):
        tree = sibling_tree(siblings)
        backend = RecordingBackend()
        args = tree, 1, mode, lam, PromptBundle("rate", cue=cue), backend, seed
        if pooled:
            with value_pool(3) as pool:
                records = evaluate(*args, pool=pool)
        else:
            records = evaluate(*args)
        outcomes.append((records, [node.value for node in tree.nodes], backend.calls))
    (records, values, calls), (expected, expected_values, expected_calls) = outcomes
    assert records == expected
    assert values == expected_values
    if pooled:
        assert sorted(calls) == sorted(expected_calls)
    else:
        assert calls == expected_calls
    assert (mode == "sc_only") == (calls == [])
