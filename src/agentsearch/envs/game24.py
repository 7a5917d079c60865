"""Make-24 arithmetic environment.

State is the multiset of remaining numbers (exact rationals). Each
combine[a op b] consumes two of them and appends the result; after the last
combination the episode ends with reward 1.0 exactly when 24 remains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .. import solver24
from ..actions import ActionGrammar, ActionSample
from .base import Environment, EnvObservation, TaskError, TaskSpec

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
        a = Fraction(m.group(1))
        b = Fraction(m.group(3))
    except (ValueError, ZeroDivisionError):
        return None
    op = _OP_ALIASES.get(m.group(2), m.group(2))
    return a, op, b


def format_numbers(nums) -> str:
    return " ".join(str(n) for n in nums)


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

    @dataclass
    class State:
        # the remaining numbers, as [numerator, denominator] pairs
        nums: list = field(default_factory=list)

    def _do_reset(self, task: TaskSpec) -> EnvObservation:
        numbers = task.payload.get("numbers")
        if not isinstance(numbers, list) or len(numbers) < 2:
            raise TaskError("game24 payload needs a 'numbers' list of at least two values")
        try:
            nums = [Fraction(n) for n in numbers]
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise TaskError(f"bad number in game24 payload: {exc}") from exc
        self.state.nums = [[n.numerator, n.denominator] for n in nums]
        return EnvObservation(f"Remaining numbers: {format_numbers(nums)}")

    def _apply(self, action: ActionSample) -> EnvObservation:
        step = parse_step_argument(action.argument or "")
        if step is None:
            return self.invalid()
        try:
            nums = solver24.step_result([Fraction(n, d) for n, d in self.state.nums], step)
        except (ValueError, ZeroDivisionError):  # an operand not in the pool, or x / 0
            return self.invalid()
        self.state.nums = [[n.numerator, n.denominator] for n in nums]
        text = f"Remaining numbers: {format_numbers(nums)}"
        if len(nums) == 1:
            reward = 1.0 if nums[0] == solver24.TARGET else 0.0
            return EnvObservation(text, terminal=True, reward=reward)
        return EnvObservation(text)
