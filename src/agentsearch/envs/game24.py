"""Make-24 arithmetic environment.

State is the multiset of remaining numbers, as solver24's exact
(numerator, denominator) pairs. Each combine[a op b] consumes two of them
and appends the result; after the last combination the episode ends with
reward 1.0 exactly when 24 remains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .. import solver24
from ..actions import ActionGrammar, ActionSample
from .base import INVALID, Environment, EnvObservation, TaskError, TaskSpec

GRAMMAR = ActionGrammar(verbs=("combine",), thought_verbs=("think",))

_STEP_RE = re.compile(
    r"^\s*(-?\d+(?:/\d+)?)\s*([+\-*/×÷−])\s*(-?\d+(?:/\d+)?)\s*$"
)
_OP_ALIASES = {"×": "*", "÷": "/", "−": "-"}


def parse_step_argument(argument: str):
    """(a, op, b) from a combine argument, or None when malformed."""
    m = _STEP_RE.match(argument)
    if not m:
        return None
    try:
        a = solver24.number(m.group(1))
        b = solver24.number(m.group(3))
    except (ValueError, ZeroDivisionError):
        return None
    op = _OP_ALIASES.get(m.group(2), m.group(2))
    return a, op, b


def format_numbers(nums) -> str:
    return " ".join(solver24.format_number(n) for n in nums)


def question_text(numbers) -> str:
    listed = " ".join(str(n) for n in numbers)
    return (
        f"Use the numbers {listed} with + - * / to make 24. "
        "Each number must be used exactly once.\n"
        f"Remaining numbers: {listed}"
    )


class Game24Env(Environment):
    kind = "game24"
    grammar = GRAMMAR

    @dataclass(frozen=True)
    class State:
        # the remaining numbers, as (numerator, denominator) pairs
        nums: tuple = ()

    def _do_reset(self, task: TaskSpec) -> EnvObservation:
        numbers = task.payload.get("numbers")
        if not isinstance(numbers, list) or len(numbers) < 2:
            raise TaskError("game24 payload needs a 'numbers' list of at least two values")
        try:
            nums = tuple(solver24.number(n) for n in numbers)
        except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise TaskError(f"bad number in game24 payload: {exc}") from exc
        self.state = self.State(nums)
        return EnvObservation(f"Remaining numbers: {format_numbers(nums)}")

    def _apply(self, action: ActionSample) -> EnvObservation:
        step = parse_step_argument(action.argument or "")
        if step is None:
            return EnvObservation(INVALID)
        try:
            nums = tuple(solver24.step_result(self.state.nums, step))
        except (ValueError, ZeroDivisionError):  # an operand not in the pool, or x / 0
            return EnvObservation(INVALID)
        self.state = self.State(nums)
        text = f"Remaining numbers: {format_numbers(nums)}"
        if len(nums) == 1:
            reward = 1.0 if nums[0] == solver24.TARGET else 0.0
            return EnvObservation(text, terminal=True, reward=reward)
        return EnvObservation(text)
