import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agentsearch.seeding import stable_seed, stable_seeds


def test_same_parts_same_seed():
    assert stable_seed("a", 1, "b") == stable_seed("a", 1, "b")


def test_distinct_parts_distinct_seed():
    assert stable_seed("a", 1) != stable_seed("a", 2)
    assert stable_seed("a") != stable_seed("b")
    assert stable_seed("a", "1") != stable_seed("a1")


def test_order_matters():
    assert stable_seed("x", "y") != stable_seed("y", "x")


@given(st.lists(st.one_of(st.integers(), st.text(max_size=10)), max_size=5))
def test_seed_fits_in_63_bits_and_feeds_random(parts):
    seed = stable_seed(*parts)
    assert 0 <= seed < 2 ** 63
    rng = random.Random(seed)
    rng.random()


# Every seed a run draws, and so every trace, rests on these values.
@pytest.mark.parametrize(
    "parts, seed",
    [
        ((-1,), 997184231609768190),
        ((0,), 3456079177858693020),
        ((-(2**63),), 4799766536046224370),
        ((2**64 + 1,), 6062990344819168931),
        ((2**64, 0), 1064281173169996580),
        ((-3, 2**70), 7331022995163460901),
        ((7, "value"), 8159077278811669132),
        (("a|b",), 528545156983444986),
        (("|",), 7346188959066655828),
        (("café", "ß"), 2064051854259839108),
        (("日本", -5, "x|y"), 6762216413488799722),
    ],
)
def test_stable_seed_pins(parts, seed):
    assert stable_seed(*parts) == seed


def test_a_bar_inside_a_part_reads_as_a_separator():
    assert stable_seed("a|b") == stable_seed("a", "b")
    assert stable_seed("|") == stable_seed("", "")


@given(st.integers(), st.lists(st.integers(), max_size=8))
def test_batched_seeds_equal_one_stable_seed_each(prefix, lasts):
    assert stable_seeds(prefix, lasts) == [stable_seed(prefix, last) for last in lasts]
