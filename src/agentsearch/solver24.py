"""Exhaustive Game-of-24 solver over exact rationals.

A number is a normalised (numerator, denominator) pair of ints with a
positive denominator, so equal values are equal pairs and 8/3 is (8, 3).
States are multisets of such pairs. A step picks two numbers and an
operator; the solver enumerates every step sequence that leaves exactly the
target. The arithmetic is on integers, so 8 / (3 - 8/3) == 24 holds exactly.
`number` parses text with Fraction; `format_number` prints as str(Fraction).

The oracles ask about the same number states again and again: in a pass of
the cpu-mix benchmark, about 70% of their solver calls repeat a state. So
`solvable`, `correct_steps` and `solve` are memoised by the state's `canon`
key for the life of the process. `legal_steps` is not memoised, and
`_solvable_key` does not go through a table of each state's successors. Both
were tried on that benchmark: they raised peak memory by 3.6 MB and 16 MB
and made the pass no faster.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

TARGET = (24, 1)
OPS = ("+", "-", "*", "/")


@lru_cache(maxsize=4096)
def number(value) -> tuple:
    """The pair for an int or a text such as "-8/3"; raises as Fraction does."""
    f = Fraction(value)
    return (f.numerator, f.denominator)


def format_number(x: tuple) -> str:
    """A pair as str(Fraction) prints it: "24", "-8/3"."""
    n, d = x
    return str(n) if d == 1 else f"{n}/{d}"


def apply_op(a: tuple, op: str, b: tuple) -> Optional[tuple]:
    """Apply one operator; None for division by zero or unknown operator."""
    (an, ad), (bn, bd) = a, b
    if op == "+":
        n, d = an * bd + bn * ad, ad * bd
    elif op == "-":
        n, d = an * bd - bn * ad, ad * bd
    elif op == "*":
        n, d = an * bn, ad * bd
    elif op == "/" and bn:
        n, d = (an * bd, ad * bn) if bn > 0 else (-an * bd, -ad * bn)
    else:
        return None
    g = gcd(n, d)
    return (n // g, d // g)


def canon(nums: Iterable[tuple]) -> tuple:
    """Hashable canonical form of a multiset of numbers."""
    return tuple(sorted(nums))


def legal_steps(nums: Sequence[tuple]) -> list:
    """Distinct executable (a, op, b) triples over the multiset.

    Commutative operators are canonicalized to a <= b; subtraction and
    division keep both operand orders. Division by zero is excluded. The
    list order is deterministic: by operator, then by operand value, compared
    as integers scaled by the lcm of the denominators.
    """
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


def step_result(nums: Sequence[tuple], step: tuple) -> list:
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
    if len(key) == 1:
        return key[0] == TARGET
    return any(_solvable_key(canon(step_result(key, step))) for step in legal_steps(key))


def solvable(nums: Iterable[tuple]) -> bool:
    """Can the multiset still be reduced to the target?"""
    return _solvable_key(canon(nums))


@lru_cache(maxsize=None)
def _correct_steps_key(key: tuple) -> tuple:
    return tuple(
        step for step in legal_steps(key) if _solvable_key(canon(step_result(key, step)))
    )


def correct_steps(nums: Sequence[tuple]) -> list:
    """Legal steps after which the remaining multiset is still solvable.
    Each call returns a new list, so a caller may change it freely."""
    return list(_correct_steps_key(canon(nums)))


def render_step(step: tuple) -> str:
    a, op, b = step
    return f"{format_number(a)} {op} {format_number(b)}"


@lru_cache(maxsize=None)
def _solutions_key(key: tuple) -> tuple:
    if len(key) == 1:
        return ((),) if key[0] == TARGET else ()
    lines = []
    seen = set()
    for step in legal_steps(key):
        tails = _solutions_key(canon(step_result(key, step)))
        for tail in tails:
            line = (render_step(step),) + tail
            if line not in seen:
                seen.add(line)
                lines.append(line)
    return tuple(lines)


def solve(nums: Iterable[tuple]) -> tuple:
    """(solvable, solutions) where each solution is a list of step strings
    like "3 - 8/3" that replay in the environment to the target."""
    lines = _solutions_key(canon(nums))
    return (len(lines) > 0, [list(line) for line in lines])
