"""Action parsing, grammars, and normalization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agentsearch.actions import (
    ActionGrammar,
    ActionSample,
    ParseError,
    normalize_action_text,
    parse_action,
)
from agentsearch.envs import DocQAEnv, Game24Env, ShopEnv

DOCQA_GRAMMAR = DocQAEnv.grammar
GAME24_GRAMMAR = Game24Env.grammar
SHOP_GRAMMAR = ShopEnv.grammar


def test_search_action_parses():
    sample = parse_action("Search[First for Women]", DOCQA_GRAMMAR)
    assert sample.kind == "env_action"
    assert sample.verb == "search"
    assert sample.argument == "First for Women"
    assert sample.raw == "Search[First for Women]"


def test_thought_prefix_parses_as_thought():
    sample = parse_action("Thought 2: Arthur's Magazine was started in 1844.", DOCQA_GRAMMAR)
    assert sample.kind == "thought"


def test_buy_now_is_terminal_final_answer():
    sample = parse_action("click[Buy Now]", SHOP_GRAMMAR)
    assert sample.kind == "final_answer"
    assert sample.verb == "click"
    assert sample.argument == "Buy Now"


def test_finish_is_final_answer():
    sample = parse_action("Finish[1,800 to 7,000 ft]", DOCQA_GRAMMAR)
    assert sample.kind == "final_answer"
    assert sample.argument == "1,800 to 7,000 ft"


def test_action_step_prefix_is_stripped():
    sample = parse_action("Action 3: Lookup[eastern sector]", DOCQA_GRAMMAR)
    assert sample.kind == "env_action"
    assert sample.verb == "lookup"


def test_unknown_verb_becomes_thought():
    sample = parse_action("Ponder[the meaning]", DOCQA_GRAMMAR)
    assert sample.kind == "thought"
    assert sample.raw == "Ponder[the meaning]"


def test_malformed_bracket_for_known_verb_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse_action("Search[First for Women", DOCQA_GRAMMAR)
    assert err.value.raw == "Search[First for Women"


def test_empty_raises_value_error():
    with pytest.raises(ValueError):
        parse_action("", DOCQA_GRAMMAR)
    with pytest.raises(ValueError):
        parse_action("   ", DOCQA_GRAMMAR)


def test_case_insensitive_verbs():
    for raw in ("SEARCH[x]", "search[x]", "Search[x]"):
        assert parse_action(raw, DOCQA_GRAMMAR).verb == "search"


def test_combine_action_game24():
    sample = parse_action("combine[4 * 6]", GAME24_GRAMMAR)
    assert sample.kind == "env_action"
    assert sample.argument == "4 * 6"


def test_terminal_args_only_for_matching_argument():
    assert parse_action("click[next page]", SHOP_GRAMMAR).kind == "env_action"
    assert parse_action("click[buy now]", SHOP_GRAMMAR).kind == "final_answer"
    assert parse_action("choose[Buy Now]", SHOP_GRAMMAR).kind == "final_answer"


def test_grammar_is_terminal():
    assert SHOP_GRAMMAR.is_terminal("click", "Buy Now")
    assert not SHOP_GRAMMAR.is_terminal("click", "blue")
    assert DOCQA_GRAMMAR.is_terminal("finish", "anything")


# -- round trip ----------------------------------------------------------------

@given(st.sampled_from(["search", "lookup", "finish"]),
       st.text(alphabet=st.characters(blacklist_characters="[]\n",
                                      blacklist_categories=("Cs",)),
               min_size=1, max_size=30))
def test_render_parse_round_trip(verb, argument):
    rendered = f"{verb}[{argument}]"
    sample = parse_action(rendered, DOCQA_GRAMMAR)
    if sample.kind == "thought":
        return
    assert sample.verb == verb
    assert sample.argument == argument


# -- normalization ----------------------------------------------------------------

def test_normalize_folds_verb_case_only():
    upper = parse_action("SEARCH[Rome]", DOCQA_GRAMMAR)
    lower = parse_action("search[Rome]", DOCQA_GRAMMAR)
    assert normalize_action_text(upper) == normalize_action_text(lower)
    cased = parse_action("finish[Rome]", DOCQA_GRAMMAR)
    folded = parse_action("finish[rome]", DOCQA_GRAMMAR)
    assert normalize_action_text(cased) != normalize_action_text(folded)


def test_normalize_distinguishes_different_arguments():
    a = parse_action("combine[1 + 2]", GAME24_GRAMMAR)
    b = parse_action("combine[1 + 3]", GAME24_GRAMMAR)
    assert normalize_action_text(a) != normalize_action_text(b)


def test_normalize_same_sample_is_stable():
    sample = parse_action("Search[Arthur's Magazine]", DOCQA_GRAMMAR)
    assert normalize_action_text(sample) == normalize_action_text(sample)
