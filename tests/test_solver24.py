"""Exhaustive Game-of-24 solver used as the oracle ground truth."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch.solver24 import (
    apply_op,
    canon,
    correct_steps,
    legal_steps,
    render_step,
    solvable,
    solve,
    step_result,
)


def F(values):
    return [Fraction(v) for v in values]


def test_known_solvable_puzzles():
    for combo in ((4, 9, 10, 13), (1, 4, 6, 9), (3, 3, 8, 8), (1, 1, 11, 13)):
        assert solvable(F(combo)), combo


def test_known_unsolvable_puzzles():
    # (1,1,1,2) tops out at (1+1)*(1+2) = 6, far short of 24
    for combo in ((1, 1, 1, 1), (13, 13, 13, 13), (1, 1, 1, 2)):
        assert not solvable(F(combo)), combo


def test_single_number_base_case():
    assert solvable(F([24]))
    assert not solvable(F([23]))


def test_apply_op_division_by_zero_is_none():
    assert apply_op(Fraction(3), "/", Fraction(0)) is None
    assert apply_op(Fraction(3), "/", Fraction(2)) == Fraction(3, 2)


def test_canon_is_order_insensitive():
    assert canon(F([4, 9, 10, 13])) == canon(F([13, 10, 9, 4]))


def test_step_result_removes_operands_and_appends():
    nums = F([4, 9, 10, 13])
    steps = legal_steps(nums)
    step = steps[0]
    out = step_result(nums, step)
    assert len(out) == 3


def test_correct_steps_preserve_solvability():
    nums = F([4, 9, 10, 13])
    for step in correct_steps(nums):
        assert solvable(step_result(nums, step))


def test_solve_lines_replay_to_24():
    for combo in ((4, 9, 10, 13), (1, 4, 6, 9), (3, 3, 8, 8)):
        ok, lines = solve(F(combo))
        assert ok and lines
        for line_list in lines:
            pool = F(combo)
            for line in line_list:
                a_text, op, b_text = line.split()
                a, b = Fraction(a_text), Fraction(b_text)
                pool.remove(a)
                pool.remove(b)
                result = apply_op(a, op, b)
                assert result is not None
                pool.append(result)
            assert pool == [Fraction(24)]


def test_render_step_round_trips_through_split():
    nums = F([2, 3, 5, 12])
    for step in legal_steps(nums)[:10]:
        text = render_step(step)
        a, op, b = text.split()
        assert Fraction(a) == step[0]
        assert op == step[1]
        assert Fraction(b) == step[2]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=13), min_size=2, max_size=4))
def test_legal_steps_results_shrink_pool(values):
    nums = F(values)
    for step in legal_steps(nums):
        out = step_result(nums, step)
        assert len(out) == len(nums) - 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=13), min_size=4, max_size=4))
def test_solve_agrees_with_solvable(values):
    nums = F(values)
    ok, lines = solve(nums)
    assert ok == solvable(nums)
    assert ok == bool(lines)


_VALUES = st.one_of(
    st.integers(min_value=0, max_value=13).map(Fraction),
    st.builds(
        Fraction, st.integers(min_value=0, max_value=13), st.integers(min_value=2, max_value=13)
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=4))
def test_memoised_correct_steps_match_their_definition(nums):
    expected = [s for s in legal_steps(nums) if solvable(step_result(nums, s))]
    assert correct_steps(nums) == expected
    assert correct_steps(list(reversed(nums))) == expected  # the memo is order-blind


def test_changing_a_returned_correct_steps_list_leaves_the_memo_intact():
    nums = F([4, 9, 10, 13])
    first = correct_steps(nums)
    assert first
    expected = list(first)
    first.clear()
    assert correct_steps(nums) == expected
    assert correct_steps(nums) is not correct_steps(nums)
