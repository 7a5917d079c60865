"""Exhaustive Game-of-24 solver used as the oracle ground truth."""

import operator
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch.envs import load_task
from agentsearch.solver24 import (
    TARGET,
    apply_op,
    canon,
    correct_steps,
    format_number,
    legal_steps,
    number,
    render_step,
    solvable,
    solve,
    step_result,
)
from helpers import bundled_task_files


def P(values):
    return [number(v) for v in values]


def test_known_solvable_puzzles():
    for combo in ((4, 9, 10, 13), (1, 4, 6, 9), (3, 3, 8, 8), (1, 1, 11, 13)):
        assert solvable(P(combo)), combo


def test_known_unsolvable_puzzles():
    # (1,1,1,2) tops out at (1+1)*(1+2) = 6, far short of 24
    for combo in ((1, 1, 1, 1), (13, 13, 13, 13), (1, 1, 1, 2)):
        assert not solvable(P(combo)), combo


def test_single_number_base_case():
    assert solvable(P([24]))
    assert not solvable(P([23]))


def test_apply_op_division_by_zero_is_none():
    assert apply_op((3, 1), "/", (0, 1)) is None
    assert apply_op((3, 1), "/", (2, 1)) == (3, 2)


def test_number_normalises_text_and_ints():
    assert number("24") == number(24) == TARGET
    assert number("-8/6") == (-4, 3)
    assert number("0/5") == (0, 1)
    assert number("1.5") == (3, 2)


def test_format_number_prints_as_fraction_does():
    assert format_number((24, 1)) == "24"
    assert format_number((-8, 3)) == "-8/3"
    assert format_number((0, 1)) == "0"


def test_canon_is_order_insensitive():
    assert canon(P([4, 9, 10, 13])) == canon(P([13, 10, 9, 4]))


def test_step_result_removes_operands_and_appends():
    nums = P([4, 9, 10, 13])
    steps = legal_steps(nums)
    step = steps[0]
    out = step_result(nums, step)
    assert len(out) == 3


def test_correct_steps_preserve_solvability():
    nums = P([4, 9, 10, 13])
    for step in correct_steps(nums):
        assert solvable(step_result(nums, step))


def test_solve_lines_replay_to_24():
    for combo in ((4, 9, 10, 13), (1, 4, 6, 9), (3, 3, 8, 8)):
        ok, lines = solve(P(combo))
        assert ok and lines
        for line_list in lines:
            pool = P(combo)
            for line in line_list:
                a_text, op, b_text = line.split()
                a, b = number(a_text), number(b_text)
                pool.remove(a)
                pool.remove(b)
                result = apply_op(a, op, b)
                assert result is not None
                pool.append(result)
            assert pool == [TARGET]


def test_render_step_round_trips_through_split():
    nums = P([2, 3, 5, 12])
    for step in legal_steps(nums)[:10]:
        text = render_step(step)
        a, op, b = text.split()
        assert number(a) == step[0]
        assert op == step[1]
        assert number(b) == step[2]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=13), min_size=2, max_size=4))
def test_legal_steps_results_shrink_pool(values):
    nums = P(values)
    for step in legal_steps(nums):
        out = step_result(nums, step)
        assert len(out) == len(nums) - 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=13), min_size=4, max_size=4))
def test_solve_agrees_with_solvable(values):
    nums = P(values)
    ok, lines = solve(nums)
    assert ok == solvable(nums)
    assert ok == bool(lines)


# numbers as the solver sees them, fractional and negative values included
_VALUES = st.builds(
    lambda n, d: number(f"{n}/{d}"),
    st.integers(min_value=-13, max_value=13),
    st.integers(min_value=1, max_value=13),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=4))
def test_memoised_correct_steps_match_their_definition(nums):
    expected = [s for s in legal_steps(nums) if solvable(step_result(nums, s))]
    assert correct_steps(nums) == expected
    assert correct_steps(list(reversed(nums))) == expected  # the memo is order-blind


def test_changing_a_returned_correct_steps_list_leaves_the_memo_intact():
    nums = P([4, 9, 10, 13])
    first = correct_steps(nums)
    assert first
    expected = list(first)
    first.clear()
    assert correct_steps(nums) == expected
    assert correct_steps(nums) is not correct_steps(nums)


# ---------------------------------------------------------------------------
# the pair arithmetic against a Fraction reference


def _fraction(x):
    return Fraction(*x)


def _pair(f):
    return (f.numerator, f.denominator)


def _fraction_legal_steps(nums):
    """The step list as the solver built it on Fraction values. The oracles
    draw from it by index, so its order is part of every trace."""
    seen = set()
    steps = []
    n = len(nums)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = nums[i], nums[j]
            lo, hi = (a, b) if a <= b else (b, a)
            candidates = [(lo, "+", hi), (lo, "*", hi), (a, "-", b), (b, "-", a)]
            if b != 0:
                candidates.append((a, "/", b))
            if a != 0:
                candidates.append((b, "/", a))
            for step in candidates:
                if step not in seen:
                    seen.add(step)
                    steps.append(step)
    steps.sort(key=lambda s: ("+-*/".index(s[1]), s[0], s[2]))
    return steps


_FRACTION_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@settings(max_examples=300, deadline=None)
@given(_VALUES, st.sampled_from("+-*/"), _VALUES)
def test_apply_op_and_format_number_match_fraction(a, op, b):
    if op == "/" and b == (0, 1):
        assert apply_op(a, op, b) is None
        return
    expected = _FRACTION_OPS[op](_fraction(a), _fraction(b))
    assert apply_op(a, op, b) == _pair(expected)
    assert format_number(apply_op(a, op, b)) == str(expected)


def test_every_reachable_state_keeps_the_fraction_step_order():
    """Walk every state the bundled puzzles can reach, terminal ones too, in
    the order the environment holds its numbers, and compare each step list
    and each successor with the Fraction reference."""
    todo = [tuple(P(load_task(path).payload["numbers"])) for path in bundled_task_files("game24")]
    assert len(todo) == 50
    seen = set(todo)
    while todo:
        nums = todo.pop()
        steps = legal_steps(nums)
        reference = _fraction_legal_steps([_fraction(x) for x in nums])
        assert steps == [(_pair(a), op, _pair(b)) for a, op, b in reference], nums
        for (a, op, b), step in zip(reference, steps):
            assert render_step(step) == f"{a} {op} {b}"
            after = tuple(step_result(nums, step))
            assert after[-1] == _pair(_FRACTION_OPS[op](a, b))
            if after not in seen:
                seen.add(after)
                todo.append(after)
    assert len(seen) == 17_583  # 15,050 as multisets
