"""Exhaustive Game-of-24 solver used as the oracle ground truth."""

import itertools
import operator
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentsearch import solver24
from agentsearch.envs import load_task
from agentsearch.solver24 import (
    OPS,
    TARGET,
    _pair_reaches,
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


@pytest.mark.parametrize(
    "value",
    [0, 7, -7, True, False, 10**40, -(10**40), 0.1, 1.5, -0.0, float("inf"), float("-inf"),
     float("nan"), Decimal("1.5"), Decimal("-0.25"), Decimal("NaN"), Fraction(-6, 4),
     " 3/4 ", "3 / 4", "1_000", "1__000", "_1", ".5", "5.", ".", "+2", "-47e-2", "1.5E+3",
     "\n-6/8\t", "1_0.2_5e1_0", "00012/0006", "\u0663/\u0664", "\u0663.\u0665", "3/0",
     "0/0", "1/0_0", "", "  ", "-", "1 2", "+-1", "1/2/3", "1e", "1.d", "0x10", "3/-4",
     None, [1], b"1"],
    ids=repr,
)
def test_number_gives_the_pair_or_the_exception_type_of_fraction(value):
    try:
        f = Fraction(value)
    except Exception as exc:  # its type is the reference
        with pytest.raises(type(exc)):
            number(value)
    else:
        assert number(value) == (f.numerator, f.denominator)


@pytest.mark.parametrize(
    "earlier, value",
    [((), 1 + 0j), ((1.0,), 1 + 0j), ((True,), 1 + 0j), ((1,), 1 + 0j), (("1",), 1 + 0j),
     ((1 + 0j,), 1.0), ((1 + 0j,), True), ((1 + 0j, 1.0), "1"), ((1.0, True), 1), ((), 1.0)],
    ids=repr,
)
def test_number_answers_alike_whatever_was_asked_before(earlier, value):
    solver24._parse.cache_clear()
    for other in earlier:
        try:
            number(other)
        except TypeError:
            pass
    try:
        f = Fraction(value)
    except TypeError:
        with pytest.raises(TypeError):
            number(value)
    else:
        assert number(value) == (f.numerator, f.denominator)


@pytest.mark.parametrize(
    "text, pair",
    [
        ("1e4299", (10**4299, 1)),
        ("-1e-4299", (-1, 10**4299)),
        ("5e-4300", (1, 2 * 10**4299)),  # 4,300 digits once in lowest terms
        ("1" + "0" * 4000 + "e-8000", (1, 10**4000)),
        ("0e99999999", (0, 1)),
        ("0.000e-99999999", (0, 1)),
    ],
)
def test_number_takes_a_text_whose_pair_prints(text, pair):
    assert number(text) == pair


@pytest.mark.parametrize(
    "text",
    ["1e4300", "-1e-4300", "2e-4301", "9" * 4300 + "0", "1e99999999", "1e-99999999", "1.5e99999999",
     "1/" + "1" * 4301],
)
def test_number_refuses_a_text_whose_pair_would_not_print(text):
    with pytest.raises(ValueError):
        number(text)


def test_a_huge_exponent_is_refused_before_it_is_computed():
    """10**99999999 took minutes, and Fraction("1e99999999") still does."""
    code = "from agentsearch import solver24\nfor t in ('1e99999999', '-7.5e-99999999'):\n"
    code += "    try:\n        solver24.number(t)\n    except ValueError:\n        print('refused')\n"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(Path(solver24.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.stdout.split() == ["refused", "refused"], done.stderr


def reachable_numbers(nums: tuple) -> set:
    found, frontier = set(nums), {canon(nums)}
    while frontier:
        state = frontier.pop()
        for step in legal_steps(state):
            successor = canon(step_result(state, step))
            found.update(successor)
            if len(successor) > 1:
                frontier.add(successor)
    return found


@pytest.mark.parametrize(
    "texts",
    [["99", "99", "99", "99"], ["1/99", "1/98", "97", "-1/96"], ["999/998", "997/996", "-995/994"]],
)
def test_numbers_within_the_digit_bound_reach_only_numbers_within_it(monkeypatch, texts):
    nums = tuple(number(t) for t in texts)
    total = sum(len(str(abs(n))) + len(str(d)) for n, d in nums)
    monkeypatch.setattr(solver24, "max_digits", lambda: total)
    solver24.check_printable(nums)
    widest = max(max(len(str(abs(n))), len(str(d))) for n, d in reachable_numbers(nums))
    assert widest <= total
    monkeypatch.setattr(solver24, "max_digits", lambda: total - 1)
    with pytest.raises(ValueError):
        solver24.check_printable(nums)


def test_number_gives_one_pair_object_per_text():
    assert number("3/4") is number("3/4")
    assert number("-8/6") is number("-8/6") == (-4, 3)


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


# ---------------------------------------------------------------------------
# the search kernel against its former definitions


def _reference_legal_steps(nums):
    """legal_steps as it was written before the kernel sorted each state's
    distinct values once: every pair of positions, a seen set, one keyed sort."""
    scale = lcm(*(d for _, d in nums))
    value = {x: x[0] * (scale // x[1]) for x in nums}
    seen = set()
    steps = []
    n = len(nums)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = nums[i], nums[j]
            lo, hi = (a, b) if value[a] <= value[b] else (b, a)
            candidates = [(lo, "+", hi), (lo, "*", hi), (a, "-", b), (b, "-", a)]
            if b[0]:
                candidates.append((a, "/", b))
            if a[0]:
                candidates.append((b, "/", a))
            for step in candidates:
                if step not in seen:
                    seen.add(step)
                    steps.append(step)
    steps.sort(key=lambda s: (OPS.index(s[1]), value[s[0]], value[s[2]]))
    return steps


@lru_cache(maxsize=None)
def _reference_solvable(key):
    """The normalising recursion over every state, as the solver ran it
    before two- and three-number states got their own tests."""
    if len(key) == 1:
        return key[0] == TARGET
    return any(
        _reference_solvable(canon(step_result(key, step))) for step in _reference_legal_steps(key)
    )


# a few values drawn often, so states repeat numbers, hold zero and reach 24
_OFTEN = P([0, 1, -1, 2, 3, 4, 6, 8, 24, "1/3", "-8/3"])
_NUMBERS = st.one_of(_VALUES, st.sampled_from(_OFTEN))


def _assert_matches_former_definitions(nums):
    steps = _reference_legal_steps(nums)
    assert legal_steps(nums) == steps
    assert solvable(nums) == _reference_solvable(canon(nums))
    expected = [s for s in steps if _reference_solvable(canon(step_result(nums, s)))]
    assert correct_steps(nums) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(_NUMBERS, max_size=4))
def test_solver_matches_its_former_definitions(nums):
    _assert_matches_former_definitions(nums)


# The reference needs about 0.3 s for a five-number state of arbitrary
# values, so these draw from the often-drawn values only.
@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_OFTEN), min_size=5, max_size=5))
def test_five_number_states_match_the_former_definitions(nums):
    _assert_matches_former_definitions(nums)


@pytest.mark.parametrize(
    "a, b, reaches",
    [
        ((8, -1), (-3, 1), True),  # -8 * -3
        ((-48, -2), (0, 1), True),  # an unnormalised 24, plus 0
        ((-8, 1), (-1, 3), True),  # -8 / -1/3: division by a negative fraction
        ((16, -2), (1, -3), True),  # the same with both denominators negative
        ((30, 1), (-12, -2), True),  # 30 - 6
        ((3, -4), (-18, 1), True),  # -18 / -3/4
        ((8, -1), (3, 1), False),
        ((0, 1), (0, -5), False),  # 0 / 0 is no step
        ((48, 1), (0, -3), False),  # neither is 48 / 0
    ],
)
def test_the_two_number_test_takes_unnormalised_denominators(a, b, reaches):
    assert _pair_reaches(a, b) is reaches
    assert _pair_reaches(b, a) is reaches
    normal = [_pair(Fraction(*a)), _pair(Fraction(*b))]
    assert _reference_solvable(canon(normal)) is reaches


@pytest.mark.parametrize(
    "values, step",
    [
        ((-4, "-1/3", 12), ("-4", "/", "-1/3")),  # -4 / -1/3 is built as (-12, -1)
        (("-1/2", 8, 8), ("8", "/", "-1/2")),  # 8 / -1/2 is built as (16, -1)
    ],
)
def test_three_number_states_reach_24_through_negative_denominators(values, step):
    nums = P(values)
    a, op, b = step
    assert solvable(nums)
    assert correct_steps(nums) == [(number(a), op, number(b))]


def test_the_memos_stay_within_their_limit_and_answer_as_unmemoised(monkeypatch):
    monkeypatch.setattr(solver24, "MEMO_LIMIT", 40)
    monkeypatch.setattr(solver24, "_SOLVABLE", {})
    monkeypatch.setattr(solver24, "_CORRECT", {})
    states = [P(combo) for combo in itertools.combinations_with_replacement(range(1, 10), 4)]
    assert len(states) == 495  # each distinct, and each reaches more three-number states
    for nums in states:
        steps = _reference_legal_steps(nums)
        assert correct_steps(nums) == [
            s for s in steps if _reference_solvable(canon(step_result(nums, s)))
        ]
        assert solvable(nums) == _reference_solvable(canon(nums))
        assert len(solver24._SOLVABLE) <= 40 and len(solver24._CORRECT) <= 40
    assert len(solver24._SOLVABLE) > 0 and len(solver24._CORRECT) > 0
