"""Environment behavior tests for the four bundled simulators."""

import copy
import dataclasses
import json
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch.actions import parse_action
from agentsearch.backends import static_backend
from agentsearch.envs import docqa
from agentsearch.envs import (
    REGISTRY,
    DocQAEnv,
    Game24Env,
    ShopEnv,
    SolutionEnv,
    TaskError,
    TaskSpec,
    load_task,
    make_env,
    task_input,
)
from agentsearch.envs.base import INVALID
from agentsearch.envs.docqa import normalize_answer
from agentsearch.envs.game24 import parse_step_argument
from agentsearch.envs.solution import ExprError, evaluate_expression
from agentsearch.search import BackendSet, SearchConfig, run_search
from agentsearch.templates import load_template_set
from helpers import bundled_task_files


def act(env, raw):
    return env.step(parse_action(raw, env.grammar))


# ---------------------------------------------------------------------------
# shared lifecycle (base Environment)


def game24_task(numbers=(1, 4, 6, 9)):
    return TaskSpec(task_id="t", kind="game24", payload={"numbers": list(numbers)})


def test_step_before_reset_raises():
    env = Game24Env()
    with pytest.raises(RuntimeError):
        act(env, "combine[1 + 4]")
    with pytest.raises(RuntimeError):
        env.snapshot()


def test_reset_rejects_wrong_kind():
    with pytest.raises(TaskError):
        Game24Env().reset(TaskSpec(task_id="t", kind="shop", payload={}))


def test_thoughts_observe_ok_and_do_not_change_state():
    env = Game24Env()
    env.reset(game24_task())
    before = env.snapshot()
    obs = act(env, "I should multiply the big numbers.")
    assert obs.text == "OK."
    assert not obs.terminal and obs.reward is None
    assert env.snapshot() == before


def test_unknown_verb_is_invalid():
    # the game24 grammar parses Search[...] as a thought; an env_action whose
    # verb the grammar does not know (e.g. parsed elsewhere) is invalid
    from agentsearch.actions import ActionSample

    env = Game24Env()
    env.reset(game24_task())
    foreign = ActionSample(kind="env_action", raw="Search[x]", verb="search", argument="x")
    assert env.step(foreign).text == INVALID
    assert act(env, "Search[something]").text == "OK."


def test_step_after_terminal_raises_until_reset_or_restore():
    env = Game24Env()
    env.reset(game24_task())
    act(env, "combine[4 * 6]")
    mid = env.snapshot()
    act(env, "combine[1 * 24]")
    done = act(env, "combine[9 + 24]")  # 33, wrong but terminal
    assert done.terminal and done.reward == 0.0
    with pytest.raises(RuntimeError):
        act(env, "combine[1 + 1]")
    env.restore(mid)
    assert act(env, "combine[1 * 24]").text == "Remaining numbers: 9 24"


def test_restore_rejects_foreign_snapshot():
    env_a = Game24Env()
    env_a.reset(game24_task())
    snap = env_a.snapshot()
    env_b = Game24Env()
    env_b.reset(TaskSpec(task_id="other", kind="game24", payload={"numbers": [2, 2]}))
    with pytest.raises(ValueError):
        env_b.restore(snap)


# ---------------------------------------------------------------------------
# game24


def test_game24_combine_consumes_multiset():
    env = Game24Env()
    env.reset(TaskSpec(task_id="t", kind="game24", payload={"numbers": [4, 4, 9, 1]}))
    obs = act(env, "combine[4 + 4]")
    assert obs.text == "Remaining numbers: 9 1 8"
    # only one 4 was present afterwards, so reusing it is invalid
    assert act(env, "combine[4 + 4]").text == INVALID


def test_game24_success_and_failure_rewards():
    env = Game24Env()
    env.reset(game24_task())
    assert act(env, "combine[9 - 1]").text == "Remaining numbers: 4 6 8"
    assert act(env, "combine[8 - 4]").text == "Remaining numbers: 6 4"
    obs = act(env, "combine[6 * 4]")
    assert obs.terminal and obs.reward == 1.0
    assert obs.text == "Remaining numbers: 24"

    env.reset(game24_task())
    act(env, "combine[4 * 6]")
    act(env, "combine[1 * 9]")
    obs = act(env, "combine[24 + 9]")
    assert obs.terminal and obs.reward == 0.0


def test_game24_exact_division_and_fractions():
    env = Game24Env()
    env.reset(TaskSpec(task_id="t", kind="game24", payload={"numbers": [3, 8, 8, 8]}))
    obs = act(env, "combine[3 / 8]")
    assert obs.text == "Remaining numbers: 8 8 3/8"
    obs = act(env, "combine[8 - 3/8]")
    assert obs.text == "Remaining numbers: 8 61/8"
    obs = act(env, "combine[8 * 61/8]")
    assert obs.terminal and obs.reward == 0.0


def test_game24_winning_fraction_line():
    # the classic 3 3 8 8 puzzle: 8 / (3 - 8/3) = 24
    env = Game24Env()
    env.reset(TaskSpec(task_id="t", kind="game24", payload={"numbers": [3, 3, 8, 8]}))
    act(env, "combine[8 / 3]")
    act(env, "combine[3 - 8/3]")
    obs = act(env, "combine[8 / 1/3]")
    assert obs.terminal and obs.reward == 1.0


def test_game24_invalid_steps():
    env = Game24Env()
    env.reset(game24_task())
    assert act(env, "combine[2 + 2]").text == INVALID  # numbers not in pool
    assert act(env, "combine[4 +]").text == INVALID  # malformed
    assert act(env, "combine[6 / 0]").text == INVALID  # 0 not in pool anyway
    env.reset(TaskSpec(task_id="t", kind="game24", payload={"numbers": [5, 0, 3, 3]}))
    assert act(env, "combine[5 / 0]").text == INVALID  # division by zero
    # a failed step leaves the pool unchanged
    assert act(env, "combine[5 + 0]").text == "Remaining numbers: 3 3 5"


def test_game24_payload_validation():
    with pytest.raises(TaskError):
        Game24Env().reset(TaskSpec(task_id="t", kind="game24", payload={}))
    with pytest.raises(TaskError):
        Game24Env().reset(TaskSpec(task_id="t", kind="game24", payload={"numbers": [4]}))
    with pytest.raises(TaskError):
        Game24Env().reset(TaskSpec(task_id="t", kind="game24", payload={"numbers": [4, "x"]}))
    # json.loads reads Infinity, for which number raises OverflowError
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(TaskError):
            Game24Env().reset(TaskSpec(task_id="t", kind="game24", payload={"numbers": [bad, 1]}))


def test_parse_step_argument_accepts_unicode_operators():
    assert parse_step_argument("4 × 6") == ((4, 1), "*", (6, 1))
    assert parse_step_argument("9 − 5") == ((9, 1), "-", (5, 1))
    assert parse_step_argument("24 ÷ 3") == ((24, 1), "/", (3, 1))
    assert parse_step_argument("7/3 + 2") == ((7, 3), "+", (2, 1))
    assert parse_step_argument("-4/6 - 2") == ((-2, 3), "-", (2, 1))
    assert parse_step_argument("four + 6") is None


def test_question_text_shows_numbers_and_state_line():
    text = Game24Env.question({"numbers": [1, 4, 6, 9]})
    assert "Use the numbers 1 4 6 9" in text
    assert text.endswith("Remaining numbers: 1 4 6 9")


# ---------------------------------------------------------------------------
# docqa

CORPUS = {
    "The Silent River": [
        "The Silent River is a novel.",
        "It was published in 1987.",
        "It was written by Ada Lanford.",
        "The story is set near Harrowgate.",
    ],
    "Ada Lanford": [
        "Ada Lanford is an author.",
        "Ada Lanford was born in Harrowgate.",
        "Ada Lanford received the Meridian Prize in 1990.",
        "Critics praise the spare prose.",
        "A fifth sentence about style.",
        "A sixth sentence beyond the page preview.",
    ],
}


def docqa_task(question="Who wrote The Silent River?", answer="Ada Lanford"):
    return TaskSpec(
        task_id="d",
        kind="docqa",
        payload={"question": question, "answer": answer, "corpus": CORPUS},
    )


def test_docqa_reset_shows_question():
    env = DocQAEnv()
    assert env.reset(docqa_task()).text == "Who wrote The Silent River?"


def test_docqa_search_hit_shows_first_five_sentences():
    env = DocQAEnv()
    env.reset(docqa_task())
    obs = act(env, "Search[Ada Lanford]")
    assert obs.text == " ".join(CORPUS["Ada Lanford"][:5])
    assert "sixth sentence" not in obs.text


def test_docqa_search_is_case_and_punctuation_insensitive():
    env = DocQAEnv()
    env.reset(docqa_task())
    obs = act(env, "Search[the silent river!]")
    assert obs.text.startswith("The Silent River is a novel.")


def test_docqa_search_miss_suggests_similar_titles():
    env = DocQAEnv()
    env.reset(docqa_task())
    obs = act(env, "Search[Silent River novel]")
    assert obs.text.startswith("Similar: ")
    assert "The Silent River" in obs.text


def test_docqa_search_takes_the_first_title_that_normalizes_alike():
    def first_page(corpus):
        env = DocQAEnv()
        env.reset(TaskSpec("d", "docqa", {"question": "q", "answer": "a", "corpus": corpus}))
        return act(env, "Search[SILENT river]").text

    one, two = ("Silent River", ["First entry."]), ("silent river!", ["Second entry."])
    assert first_page(dict([one, two])) == "First entry."
    assert first_page(dict([two, one])) == "Second entry."


def test_docqa_title_indexes_follow_reset():
    env = DocQAEnv()
    env.reset(docqa_task())
    assert act(env, "Search[Ada Lanford]").text.startswith("Ada Lanford is an author.")
    assert act(env, "Search[Silent Rivers]").text == "Similar: The Silent River, Ada Lanford"
    corpus = {"Harrowgate": ["Harrowgate is a town."], "Silent Rivers": ["A band."]}
    env.reset(TaskSpec("d2", "docqa", {"question": "q", "answer": "a", "corpus": corpus}))
    assert act(env, "Search[Ada Lanford]").text == "Similar: Harrowgate, Silent Rivers"
    assert act(env, "Search[Silent Rivers]").text == "A band."
    assert act(env, "Search[The Silent River]").text == "Similar: Silent Rivers, Harrowgate"


def test_docqa_computes_title_trigrams_on_the_first_miss_only(monkeypatch):
    calls = []
    real = docqa.trigrams
    monkeypatch.setattr(docqa, "trigrams", lambda text: calls.append(text) or real(text))
    env = DocQAEnv()
    env.reset(docqa_task())
    assert act(env, "Finish[Ada Lanford]").reward == 1.0
    env.reset(docqa_task())
    act(env, "Search[Ada Lanford]")  # a hit needs no trigrams
    assert calls == []
    act(env, "Search[Silent River novel]")
    assert len(calls) == len(CORPUS) + 1
    calls.clear()
    act(env, "Search[Lanford author]")
    assert calls == ["Lanford author"]


def test_docqa_lookup_walks_matches_then_exhausts():
    env = DocQAEnv()
    env.reset(docqa_task())
    act(env, "Search[Ada Lanford]")
    assert act(env, "Lookup[Harrowgate]").text == "Ada Lanford was born in Harrowgate."
    assert act(env, "Lookup[Harrowgate]").text == "No more results."
    # switching keyword restarts the scan
    assert act(env, "Lookup[prize]").text == (
        "Ada Lanford received the Meridian Prize in 1990."
    )


def test_docqa_lookup_without_page_is_invalid():
    env = DocQAEnv()
    env.reset(docqa_task())
    assert act(env, "Lookup[prize]").text == INVALID


def test_docqa_finish_normalized_match():
    env = DocQAEnv()
    env.reset(docqa_task(answer="the Meridian Prize"))
    obs = act(env, "Finish[Meridian Prize!]")
    assert obs.terminal and obs.reward == 1.0
    env.reset(docqa_task(answer="Meridian Prize"))
    obs = act(env, "Finish[Meridian award]")
    assert obs.reward == 0.0


def test_normalize_answer_drops_articles_and_punctuation():
    assert normalize_answer("The Silent River.") == "silent river"
    assert normalize_answer("A  Prize,  an  honor") == "prize honor"


def test_docqa_payload_validation():
    with pytest.raises(TaskError):
        DocQAEnv().reset(TaskSpec(task_id="d", kind="docqa", payload={"corpus": {}}))
    with pytest.raises(TaskError):
        DocQAEnv().reset(
            TaskSpec(
                task_id="d",
                kind="docqa",
                payload={"question": "q", "answer": "a", "corpus": {"T": "not a list"}},
            )
        )


# ---------------------------------------------------------------------------
# shop

CATALOG = [
    {
        "id": "B001",
        "title": "Acme waterproof hiking jacket",
        "price": 49.99,
        "options": {"color": ["red", "navy"], "size": ["s", "m", "l"]},
        "attributes": ["waterproof", "lightweight"],
    },
    {
        "id": "B002",
        "title": "Acme insulated winter jacket",
        "price": 89.50,
        "options": {"color": ["black"]},
        "attributes": ["insulated"],
    },
    {
        "id": "B003",
        "title": "Trailhead hiking boots",
        "price": 74.00,
        "options": {"size": ["8", "9"]},
        "attributes": ["waterproof"],
    },
    {
        "id": "B004",
        "title": "Plain cotton tee",
        "price": 9.99,
        "options": {},
        "attributes": [],
    },
]


def shop_task(**overrides):
    payload = {
        "instruction": "i am looking for a waterproof hiking jacket with navy color",
        "attributes": ["waterproof"],
        "options": {"color": "navy"},
        "price_cap": 60.0,
        "catalog": CATALOG,
    }
    payload.update(overrides)
    return TaskSpec(task_id="s", kind="shop", payload=payload)


def test_shop_reset_shows_instruction_and_search_box():
    env = ShopEnv()
    obs = env.reset(shop_task())
    assert obs.text == (
        "Instruction: i am looking for a waterproof hiking jacket with navy color\n[Search]"
    )


def test_shop_search_ranks_by_title_overlap_then_id():
    env = ShopEnv()
    env.reset(shop_task())
    obs = act(env, "search[hiking jacket]")
    lines = obs.text.splitlines()
    assert lines[0] == "Page 1 (Total results: 4)"
    # B001 matches both words; B002/B003 one word each (tie broken by id)
    assert lines[1] == "[B001]"
    assert lines[4] == "[B002]"
    assert lines[7] == "[B003]"
    assert "$49.99" in obs.text
    # words match whatever their case and punctuation
    env.reset(shop_task())
    assert act(env, "search[HIKING, jacket!]").text == obs.text


def test_shop_paging_bounds():
    env = ShopEnv()
    env.reset(shop_task())
    act(env, "search[jacket]")
    assert act(env, "click[prev page]").text == INVALID
    next_page = act(env, "click[next page]")
    assert next_page.text.startswith("Page 2 (Total results: 4)")
    assert "[B004]" in next_page.text or "[B003]" in next_page.text
    assert act(env, "click[next page]").text == INVALID
    assert act(env, "click[prev page]").text.startswith("Page 1")


def test_shop_click_product_only_when_visible():
    env = ShopEnv()
    env.reset(shop_task())
    act(env, "search[hiking jacket]")
    assert act(env, "click[B004]").text == INVALID  # page 2, not visible
    obs = act(env, "click[b001]")  # ids match case-insensitively
    assert obs.text.splitlines()[0] == "[B001] Acme waterproof hiking jacket"
    assert "color: [red][navy]" in obs.text
    assert "[Buy Now]" in obs.text


def test_shop_option_click_and_buy_full_reward():
    env = ShopEnv()
    env.reset(shop_task())
    act(env, "search[waterproof hiking jacket]")
    act(env, "click[B001]")
    assert act(env, "click[navy]").text == "You have clicked navy."
    obs = act(env, "choose[Buy Now]")
    assert obs.terminal and obs.reward == 1.0
    assert obs.text == "Order placed."


def test_shop_reward_fractions():
    env = ShopEnv()
    env.reset(shop_task())
    act(env, "search[waterproof hiking jacket]")
    act(env, "click[B001]")
    # no option selected: (1 attr + 0 opts + price ok) / 3
    assert act(env, "click[Buy Now]").reward == pytest.approx(2 / 3)

    env.reset(shop_task())
    act(env, "search[insulated winter jacket]")
    act(env, "click[B002]")
    # wrong attrs, wrong option, over cap
    assert act(env, "click[Buy Now]").reward == 0.0


def test_shop_price_cap_boundary_is_inclusive():
    env = ShopEnv()
    env.reset(shop_task(price_cap=49.99, attributes=[], options={}))
    act(env, "search[waterproof hiking jacket]")
    act(env, "click[B001]")
    assert act(env, "click[Buy Now]").reward == 1.0
    env.reset(shop_task(price_cap=49.98, attributes=[], options={}))
    act(env, "search[waterproof hiking jacket]")
    act(env, "click[B001]")
    assert act(env, "click[Buy Now]").reward == 0.0


def test_shop_back_to_search_resets_results():
    env = ShopEnv()
    env.reset(shop_task())
    act(env, "search[jacket]")
    act(env, "click[B001]")
    obs = act(env, "click[back to search]")
    assert obs.text.endswith("[Search]")
    assert act(env, "click[B001]").text == INVALID  # no results page anymore
    assert act(env, "search[boots]").text.startswith("Page 1")


def test_shop_buy_requires_item_page():
    env = ShopEnv()
    env.reset(shop_task())
    assert act(env, "click[Buy Now]").text == INVALID
    act(env, "search[jacket]")
    assert act(env, "choose[Buy Now]").text == INVALID


def test_shop_option_selection_persists_per_product():
    env = ShopEnv()
    env.reset(shop_task())
    act(env, "search[hiking jacket]")
    act(env, "click[B001]")
    act(env, "click[navy]")
    act(env, "click[back to search]")
    act(env, "search[hiking jacket]")
    act(env, "click[B001]")
    assert act(env, "click[Buy Now]").reward == 1.0


def test_shop_payload_validation():
    with pytest.raises(TaskError):
        ShopEnv().reset(shop_task(catalog=[]))
    with pytest.raises(TaskError):
        ShopEnv().reset(shop_task(price_cap="steep"))
    with pytest.raises(TaskError):
        ShopEnv().reset(shop_task(catalog=[{"id": "X", "title": "t"}]))  # no price
    dup = [dict(CATALOG[0]), dict(CATALOG[0])]
    with pytest.raises(TaskError):
        ShopEnv().reset(shop_task(catalog=dup))


@pytest.mark.parametrize(
    "product, task",
    [
        ({"options": {"size": "Large"}}, {}),
        ({"options": [["size", ["Large"]]]}, {}),
        ({"attributes": "wool"}, {}),
        ({}, {"attributes": "wool"}),
        ({}, {"options": [["color", "navy"]]}),
    ],
    ids=[
        "option-string",
        "options-pairs",
        "attributes-string",
        "task-attributes-string",
        "task-options-pairs",
    ],
)
def test_shop_rejects_a_non_list_where_a_list_belongs(product, task):
    catalog = [dict(CATALOG[0], **product)] + CATALOG[1:]
    with pytest.raises(TaskError):
        ShopEnv().reset(shop_task(catalog=catalog, **task))


@pytest.mark.parametrize(
    "product, task",
    [
        ({}, {"attributes": ["waterproof", None]}),
        ({"attributes": ["waterproof", 3]}, {}),
        ({"options": {"color": ["red", None]}}, {}),
    ],
    ids=["task-attribute-null", "attribute-number", "option-value-null"],
)
def test_shop_rejects_a_list_element_that_is_not_a_string(product, task):
    # str(None) would be a requirement, or an option, that no product means
    catalog = [dict(CATALOG[0], **product)] + CATALOG[1:]
    with pytest.raises(TaskError):
        ShopEnv().reset(shop_task(catalog=catalog, **task))


@pytest.mark.parametrize("value", [["navy"], 3, None], ids=["list", "number", "null"])
def test_shop_rejects_a_task_option_value_that_is_not_a_string(value):
    # str(["navy"]) would be a requirement no click can meet
    with pytest.raises(TaskError):
        ShopEnv().reset(shop_task(options={"color": value}))


def test_bundled_shop_tasks_load():
    paths = bundled_task_files("shop")
    assert len(paths) == 20
    for path in paths:
        ShopEnv().reset(load_task(path))


def test_shop_title_index_follows_reset():
    env = ShopEnv()
    env.reset(shop_task())
    assert act(env, "search[hiking jacket]").text.splitlines()[1] == "[B001]"
    # the same ids with other titles: the ranking must come from the new ones
    catalog = [
        {"id": "B001", "title": "Plain wool socks", "price": 5.0},
        {"id": "B002", "title": "Acme hiking jacket", "price": 50.0},
    ]
    env.reset(shop_task(catalog=catalog, attributes=[], options={}))
    # the same query terms: neither the index nor the ranking memo survives
    lines = act(env, "search[Jacket hiking]").text.splitlines()
    assert lines[1:3] == ["[B002]", "Acme hiking jacket"]
    assert lines[4:6] == ["[B001]", "Plain wool socks"]


def test_shop_ranks_each_query_once_per_task():
    env = ShopEnv()
    env.reset(shop_task())
    first = act(env, "search[hiking jacket]").text
    ranked = env.state.ranked
    act(env, "click[back to search]")
    # another text with the same terms gets the memoised ranking and page
    assert act(env, "search[Jacket, HIKING!]").text == first
    assert env.state.ranked is ranked
    act(env, "click[back to search]")
    assert act(env, "search[boots]").text.splitlines()[1] == "[B003]"


# ---------------------------------------------------------------------------
# solution


def solution_task():
    return TaskSpec(
        task_id="x",
        kind="solution",
        payload={
            "statement": "Write an expression for f(x) = 3*x + 2.",
            "tests": [
                {"input": 0, "expected": 2},
                {"input": 1, "expected": 5},
                {"input": "1/2", "expected": "7/2"},
                {"input": -3, "expected": -7},
            ],
        },
    )


def test_solution_reset_shows_statement():
    env = SolutionEnv()
    assert env.reset(solution_task()).text == "Write an expression for f(x) = 3*x + 2."


def test_solution_submit_scores_fraction_of_tests():
    env = SolutionEnv()
    env.reset(solution_task())
    obs = act(env, "submit[3*x + 2]")
    assert obs.terminal and obs.reward == 1.0
    assert obs.text == "Passed 4 of 4 tests."

    env.reset(solution_task())
    obs = act(env, "submit[x + 4]")  # right only at x=1
    assert obs.reward == 0.25

    env.reset(solution_task())
    obs = act(env, "submit[totally broken ++]")
    assert obs.terminal and obs.reward == 0.0


def test_solution_division_by_zero_fails_only_that_test():
    env = SolutionEnv()
    env.reset(
        TaskSpec(
            task_id="x",
            kind="solution",
            payload={
                "statement": "s",
                "tests": [{"input": 0, "expected": 0}, {"input": 2, "expected": 3}],
            },
        )
    )
    # 6/(x*2) is 3/2 at... evaluate: at x=0 division by zero (fails), at x=2 6/4 != 3
    obs = act(env, "submit[6 / (x * 2)]")
    assert obs.reward == 0.0
    env.reset(
        TaskSpec(
            task_id="x",
            kind="solution",
            payload={
                "statement": "s",
                "tests": [{"input": 0, "expected": 0}, {"input": 2, "expected": 3}],
            },
        )
    )
    obs = act(env, "submit[6 * x / (x + 2)]")  # 0 at 0, 3 at 2
    assert obs.reward == 1.0


def test_a_float_test_row_reads_as_printed_but_a_game24_float_exactly():
    env = SolutionEnv()
    tests = [{"input": 0.1, "expected": "3/10"}, {"input": "1/2", "expected": 1.5}]
    env.reset(TaskSpec(task_id="x", kind="solution", payload={"statement": "s", "tests": tests}))
    assert act(env, "submit[3 * x]").reward == 1.0
    game = Game24Env()
    game.reset(TaskSpec(task_id="t", kind="game24", payload={"numbers": [0.1, 1]}))
    assert game.state.nums[0] == (3602879701896397, 36028797018963968)


def test_evaluate_expression_language():
    assert evaluate_expression("3*x + 2", (4, 1)) == (14, 1)
    assert evaluate_expression("-x * -x", (3, 1)) == (9, 1)
    assert evaluate_expression("(x + 1) * (x - 1)", (5, 1)) == (24, 1)
    assert evaluate_expression("x / 4", (1, 2)) == (1, 8)
    assert evaluate_expression("2 + 3 * 4", (0, 1)) == (14, 1)  # precedence
    assert evaluate_expression("X + x", (2, 1)) == (4, 1)
    assert evaluate_expression("\u0663 * x", (2, 1)) == (6, 1)  # any decimal digit reads
    for bad in ("", "x +", "2 ** 3", "(x", "3.5", "y + 1", "1 / 0"):
        with pytest.raises(ExprError):
            evaluate_expression(bad, (1, 1))


# An expression tree: ("int", n), ("x", spelling), ("neg", e) or ("bin", op, a, b).
_TREES = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=10**30).map(lambda n: ("int", n)),
        st.sampled_from(["x", "X"]).map(lambda name: ("x", name)),
    ),
    lambda inner: st.one_of(
        inner.map(lambda e: ("neg", e)),
        st.tuples(st.just("bin"), st.sampled_from("+-*/"), inner, inner),
    ),
    max_leaves=12,
)
_PRECEDENCE = {"+": 0, "-": 0, "*": 1, "/": 1}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def render_tree(tree, gap: str) -> tuple:
    """(text, precedence), with parentheses only where the grammar needs them."""
    if tree[0] == "int":
        return str(tree[1]), 2
    if tree[0] == "x":
        return tree[1], 2
    if tree[0] == "neg":
        text, prec = render_tree(tree[1], gap)
        return "-" + (text if prec == 2 else f"({text})"), 2
    _, op, a, b = tree
    (left, lp), (right, rp) = render_tree(a, gap), render_tree(b, gap)
    left = left if lp >= _PRECEDENCE[op] else f"({left})"
    right = right if rp > _PRECEDENCE[op] else f"({right})"
    return f"{left}{gap}{op}{gap}{right}", _PRECEDENCE[op]


def fraction_value(tree, x: Fraction) -> Fraction:
    """The tree's value on Fraction; ZeroDivisionError for a division by zero."""
    if tree[0] == "int":
        return Fraction(tree[1])
    if tree[0] == "x":
        return x
    if tree[0] == "neg":
        return -fraction_value(tree[1], x)
    _, op, a, b = tree
    return _OPERATORS[op](fraction_value(a, x), fraction_value(b, x))


@settings(max_examples=300, deadline=None)
@given(
    _TREES,
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.sampled_from(["", " "]),
)
def test_evaluate_expression_agrees_with_fraction_arithmetic(tree, x, gap):
    text, _ = render_tree(tree, gap)
    try:
        expected = fraction_value(tree, x)
    except ZeroDivisionError:
        with pytest.raises(ExprError):
            evaluate_expression(text, (x.numerator, x.denominator))
        return
    assert evaluate_expression(text, (x.numerator, x.denominator)) == (
        expected.numerator,
        expected.denominator,
    )


@pytest.mark.parametrize(
    "candidate",
    ["\u00b2", "9" * 5000, "(" * 1000 + "x" + ")" * 1000],
    ids=["superscript-two", "over-long-literal", "deep-nesting"],
)
def test_solution_candidate_it_cannot_evaluate_fails_every_test(candidate):
    with pytest.raises(ExprError):
        evaluate_expression(candidate, 1)
    env = SolutionEnv()
    env.reset(solution_task())
    obs = act(env, f"submit[{candidate}]")
    assert obs.terminal and obs.reward == 0.0
    assert obs.text == "Passed 0 of 4 tests."


def test_solution_payload_validation():
    with pytest.raises(TaskError):
        SolutionEnv().reset(TaskSpec(task_id="x", kind="solution", payload={"statement": "s"}))
    with pytest.raises(TaskError):
        SolutionEnv().reset(
            TaskSpec(
                task_id="x",
                kind="solution",
                payload={"statement": "s", "tests": [{"input": "??", "expected": 1}]},
            )
        )


# ---------------------------------------------------------------------------
# loading and registry


def test_load_task_inlines_sibling_corpus(tmp_path):
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps(CORPUS))
    task_path = tmp_path / "tasks" / "q1.json"
    task_path.parent.mkdir()
    task_path.write_text(
        json.dumps(
            {
                "kind": "docqa",
                "payload": {
                    "question": "q",
                    "answer": "a",
                    "corpus_file": "../corpus.json",
                },
            }
        )
    )
    task = load_task(task_path)
    assert task.task_id == "q1"  # falls back to the file stem
    assert task.payload["corpus"] == CORPUS
    assert "corpus_file" not in task.payload


def test_load_task_errors():
    with pytest.raises(TaskError):
        load_task("/nonexistent/task.json")


def test_load_task_requires_kind(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"payload": {}}))
    with pytest.raises(TaskError):
        load_task(p)
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(TaskError):
        load_task(p)


@pytest.mark.parametrize("payload", [[1, 2], "ab", ["ab"], 3])
def test_load_task_rejects_a_payload_that_is_not_an_object(tmp_path, payload):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"kind": "game24", "payload": payload}))
    with pytest.raises(TaskError, match="'payload' that is not a JSON object"):
        load_task(p)


@pytest.mark.parametrize("kind, ref_key", [("docqa", "corpus_file"), ("shop", "catalog_file")])
@pytest.mark.parametrize("ref", [["x"], 3, {"x": 1}])
def test_load_task_rejects_a_file_reference_that_is_not_a_string(tmp_path, kind, ref_key, ref):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"kind": kind, "payload": {ref_key: ref}}))
    with pytest.raises(TaskError, match=f"'{ref_key}' that is not a string"):
        load_task(p)


def test_load_task_rejects_a_file_reference_holding_nul(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"kind": "docqa", "payload": {"corpus_file": "corpus\0.json"}}))
    with pytest.raises(TaskError, match="cannot read corpus_file"):
        load_task(p)


def write_tasks_naming(tmp_path, ref_key, text, count=2):
    """count task files in tmp_path/tasks whose ref_key names one sibling
    file holding text; returns their paths."""
    (tmp_path / "shared.json").write_text(text)
    (tmp_path / "tasks").mkdir(exist_ok=True)
    kind = {"corpus_file": "docqa", "catalog_file": "shop"}[ref_key]
    paths = []
    for i in range(count):
        path = tmp_path / "tasks" / f"t{i}.json"
        path.write_text(json.dumps({"kind": kind, "payload": {ref_key: "../shared.json"}}))
        paths.append(path)
    return paths


@pytest.mark.parametrize(
    "ref_key, inline_key, content",
    [("corpus_file", "corpus", CORPUS), ("catalog_file", "catalog", CATALOG)],
)
def test_tasks_naming_one_file_share_one_parse_of_it(tmp_path, ref_key, inline_key, content):
    text = json.dumps(content)
    first, second = (load_task(p) for p in write_tasks_naming(tmp_path, ref_key, text))
    assert first.payload[inline_key] is second.payload[inline_key]
    assert first.payload[inline_key] == json.loads(text)


def test_a_rewritten_shared_file_is_parsed_afresh(tmp_path):
    (path,) = write_tasks_naming(tmp_path, "corpus_file", json.dumps(CORPUS), count=1)
    before = load_task(path).payload["corpus"]
    rewritten = {"Another Page": ["One sentence."]}
    (tmp_path / "shared.json").write_text(json.dumps(rewritten))
    assert load_task(path).payload["corpus"] == rewritten
    assert before == CORPUS


def test_each_task_naming_a_malformed_shared_file_gets_a_task_error(tmp_path):
    for path in write_tasks_naming(tmp_path, "catalog_file", '[{"id": "P1",'):
        with pytest.raises(TaskError, match="cannot read catalog_file"):
            load_task(path)


class VocabularyBackend:
    """Answers each call with texts drawn from a fixed list by the call's seed."""

    def __init__(self, texts):
        self.texts = texts

    def propose(self, prompt: str, n: int, seed: int) -> list:
        rng = random.Random(seed)
        return [rng.choice(self.texts) for _ in range(n)]


def vocabulary(task):
    payload = task.payload
    if task.kind == "docqa":
        words = [w for w in re.findall(r"\w+", payload["question"]) if len(w) > 3]
        return (
            [f"search[{t}]" for t in payload["corpus"]]
            + [f"lookup[{w}]" for w in words]
            + [f"finish[{payload['answer']}]", "finish[a guess]", "think[read on]"]
        )
    words = payload["instruction"].split()
    values = {v for p in payload["catalog"] for vals in p.get("options", {}).values() for v in vals}
    return (
        [f"search[{' '.join(words[i:i + 3])}]" for i in range(0, len(words), 3)]
        + [f"click[{p['id']}]" for p in payload["catalog"]]
        + [f"click[{v}]" for v in sorted(values)]
        + ["click[next page]", "click[back to search]", "click[buy now]", "think[compare]"]
    )


def test_searches_leave_the_shared_corpus_and_catalog_unchanged():
    tasks = [load_task(p) for kind in ("docqa", "shop") for p in bundled_task_files(kind)[:4]]
    shared = {id(v): v for t in tasks for k, v in t.payload.items() if k in ("corpus", "catalog")}
    assert len(shared) == 2  # one corpus and one catalog, each shared by its four tasks
    before = copy.deepcopy(shared)
    scores = [f"Thus the correctness score is {i}" for i in range(1, 11)]
    for i, task in enumerate(tasks):
        backends = BackendSet(
            policy=VocabularyBackend(vocabulary(task)),
            value=VocabularyBackend(scores),
            reflection=static_backend("Try another page."),
        )
        config = SearchConfig(variant="mcts", n=3, k=6, seed=i)
        run_search(task, backends, load_template_set(task.kind), config)
    assert shared == before


def test_make_env_registry():
    assert isinstance(make_env("game24"), Game24Env)
    assert isinstance(make_env("shop"), ShopEnv)
    with pytest.raises(TaskError):
        make_env("chess")


def test_task_input_per_kind():
    assert task_input(game24_task()).endswith("Remaining numbers: 1 4 6 9")
    assert task_input(docqa_task()) == "Who wrote The Silent River?"
    assert task_input(shop_task()).startswith("i am looking for")
    assert task_input(solution_task()).startswith("Write an expression")
    with pytest.raises(TaskError):
        task_input(TaskSpec(task_id="t", kind="chess", payload={}))
    for payload in ({"numbers": 5}, {}, {"numbers": [24]}):
        with pytest.raises(TaskError, match="'numbers' list of at least two values"):
            task_input(TaskSpec(task_id="t", kind="game24", payload=payload))


def test_default_lambda_per_kind():
    lambdas = {kind: env.lam for kind, env in REGISTRY.items()}
    assert lambdas == {"game24": 0.5, "docqa": 0.5, "shop": 0.8, "solution": 0.8}


# ---------------------------------------------------------------------------
# snapshot round-trips (unit level; the randomized sweep lives in acceptance)


def test_snapshot_round_trip_mid_episode_each_env():
    env = DocQAEnv()
    env.reset(docqa_task())
    act(env, "Search[Ada Lanford]")
    act(env, "Lookup[Harrowgate]")
    snap = env.snapshot()
    after = act(env, "Lookup[Harrowgate]").text
    env.restore(snap)
    assert act(env, "Lookup[Harrowgate]").text == after

    # A snapshot shares its state with the env restored from it, so every
    # step from it must start from it again, and leave its token alone.
    env.reset(docqa_task())
    act(env, "Search[Ada Lanford]")
    page = env.snapshot()
    token = page.token
    for _ in range(2):
        env.restore(page)
        assert act(env, "Lookup[Harrowgate]").text == "Ada Lanford was born in Harrowgate."
    assert page.token == token

    shop = ShopEnv()
    shop.reset(shop_task())
    act(shop, "search[hiking jacket]")
    snap = shop.snapshot()
    page2 = act(shop, "click[next page]").text
    act(shop, "click[prev page]")
    shop.restore(snap)
    assert act(shop, "click[next page]").text == page2

    act(shop, "click[prev page]")
    act(shop, "click[B001]")
    item = shop.snapshot()
    token = item.token
    act(shop, "click[red]")
    shop.restore(item)
    act(shop, "click[navy]")
    assert act(shop, "click[buy now]").reward == 1.0
    shop.restore(item)
    assert act(shop, "click[buy now]").reward == pytest.approx(2 / 3)  # no colour chosen
    assert item.token == token


@pytest.mark.parametrize("env_cls", REGISTRY.values(), ids=REGISTRY)
def test_env_state_is_a_frozen_dataclass(env_cls):
    # snapshots share State objects, so a step can only replace one
    state = env_cls.State()
    assert dataclasses.is_dataclass(state)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.anything = 1


@pytest.mark.parametrize(
    "env_cls, task, moves",
    [
        (Game24Env, game24_task, ["combine[4 / 6]"]),
        (DocQAEnv, docqa_task, ["Search[Ada Lanford]", "Lookup[Harrowgate]"]),
        (ShopEnv, shop_task, ["search[hiking jacket]", "click[B001]", "click[navy]"]),
        (SolutionEnv, solution_task, []),
    ],
)
def test_reset_after_an_episode_starts_from_the_declared_state(env_cls, task, moves):
    fresh = env_cls()
    fresh.reset(task())
    env = env_cls()
    env.reset(task())
    for move in moves:
        act(env, move)
    moved = env.snapshot()
    assert (moved != fresh.snapshot()) == bool(moves)
    env.reset(task())
    assert env.snapshot() == fresh.snapshot()
    env.restore(moved)
    assert env.snapshot() == moved


@pytest.mark.parametrize(
    "env_cls, task, moves, unchanged, changing",
    [
        (Game24Env, game24_task, [], ["combine[2 + 2]", "think[try 9]", "combine[1 +]"],
         "combine[4 / 6]"),
        (DocQAEnv, docqa_task, ["Search[Ada Lanford]"], ["think[read on]"], "Lookup[Harrowgate]"),
        (ShopEnv, shop_task, [], ["click[next page]", "click[Buy Now]", "think[compare]"],
         "search[hiking jacket]"),
        (SolutionEnv, solution_task, [], ["think[a line]"], "submit[x + 1]"),
    ],
    ids=["game24", "docqa", "shop", "solution"],
)
def test_a_step_that_changes_nothing_keeps_its_snapshot(env_cls, task, moves, unchanged, changing):
    env = env_cls()
    env.reset(task())
    for move in moves:
        act(env, move)
    parent = env.snapshot()
    assert env.snapshot() is parent
    for move in unchanged:
        env.restore(parent)
        act(env, move)
        assert env.snapshot() is parent, move
    env.restore(parent)
    act(env, changing)
    child = env.snapshot()
    assert child is not parent and child != parent  # a new state, or done (solution)
    assert env.snapshot() is child
    env.restore(parent)
    assert env.snapshot() is parent


@pytest.mark.parametrize(
    "env_cls, task",
    [(Game24Env, game24_task), (DocQAEnv, docqa_task), (ShopEnv, shop_task),
     (SolutionEnv, solution_task)],
    ids=["game24", "docqa", "shop", "solution"],
)
def test_reset_forgets_the_previous_tasks_snapshot(env_cls, task):
    env = env_cls()
    env.reset(task())
    before = env.snapshot()
    env.reset(task())
    fresh = env.snapshot()
    assert fresh is not before and fresh.state is not before.state
    assert fresh == before  # the same task, so an equal snapshot all the same


def test_snapshot_token_bytes_are_pinned():
    env = Game24Env()
    env.reset(game24_task())
    act(env, "combine[4 / 6]")
    assert env.snapshot().token == '{"done":false,"state":{"nums":[[1,1],[9,1],[2,3]]}}'

    shop = ShopEnv()
    shop.reset(shop_task())
    act(shop, "search[hiking jacket]")
    act(shop, "click[B001]")
    act(shop, "click[navy]")
    assert shop.snapshot().token == (
        '{"done":false,"state":{"current":"B001","page_index":0,"page_kind":"item",'
        '"ranked":["B001","B002","B003","B004"],"selections":{"B001":{"color":"navy"}}}}'
    )
