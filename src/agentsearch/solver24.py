"""Exhaustive Game-of-24 solver over exact rationals.

States are multisets of fractions. A step picks two numbers and an operator;
the solver enumerates every step sequence that leaves exactly the target.
Everything is computed with fractions.Fraction, so 8 / (3 - 8/3) == 24 holds
exactly rather than within floating-point error.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

TARGET = Fraction(24)
OPS = ("+", "-", "*", "/")


def apply_op(a: Fraction, op: str, b: Fraction) -> Optional[Fraction]:
    """Apply one operator; None for division by zero or unknown operator."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b if b != 0 else None
    return None


def canon(nums: Iterable[Fraction]) -> tuple:
    """Hashable canonical form of a multiset of fractions."""
    return tuple(sorted((f.numerator, f.denominator) for f in nums))


def _from_canon(key: tuple) -> tuple:
    return tuple(Fraction(n, d) for n, d in key)


def legal_steps(nums: Sequence[Fraction]) -> list:
    """Distinct executable (a, op, b) triples over the multiset.

    Commutative operators are canonicalized to a <= b; subtraction and
    division keep both operand orders. Division by zero is excluded. The
    list order is deterministic (sorted by operator then operands).
    """
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
    steps.sort(key=lambda s: (OPS.index(s[1]), s[0], s[2]))
    return steps


def step_result(nums: Sequence[Fraction], step: tuple) -> list:
    """Multiset after combining step = (a, op, b); both operands removed,
    the result appended."""
    a, op, b = step
    rest = list(nums)
    rest.remove(a)
    rest.remove(b)
    result = apply_op(a, op, b)
    if result is None:
        raise ZeroDivisionError("division by zero in step")
    rest.append(result)
    return rest


@lru_cache(maxsize=None)
def _solvable_key(key: tuple) -> bool:
    nums = _from_canon(key)
    if len(nums) == 1:
        return nums[0] == TARGET
    for step in legal_steps(nums):
        if _solvable_key(canon(step_result(nums, step))):
            return True
    return False


def solvable(nums: Iterable[Fraction]) -> bool:
    """Can the multiset still be reduced to the target?"""
    return _solvable_key(canon(Fraction(x) for x in nums))


def correct_steps(nums: Sequence[Fraction]) -> list:
    """Legal steps after which the remaining multiset is still solvable."""
    return [step for step in legal_steps(nums) if solvable(step_result(nums, step))]


def render_step(step: tuple) -> str:
    a, op, b = step
    return f"{a} {op} {b}"


@lru_cache(maxsize=None)
def _solutions_key(key: tuple) -> tuple:
    nums = _from_canon(key)
    if len(nums) == 1:
        return ((),) if nums[0] == TARGET else ()
    lines = []
    seen = set()
    for step in legal_steps(nums):
        tails = _solutions_key(canon(step_result(nums, step)))
        for tail in tails:
            line = (render_step(step),) + tail
            if line not in seen:
                seen.add(line)
                lines.append(line)
    return tuple(lines)


def solve(nums: Iterable[Fraction]) -> tuple:
    """(solvable, solutions) where each solution is a list of step strings
    like "3 - 8/3" that replay in the environment to the target."""
    lines = _solutions_key(canon(Fraction(x) for x in nums))
    return (len(lines) > 0, [list(line) for line in lines])
