"""Exhaustive Game-of-24 solver over exact rationals.

A number is a normalised (numerator, denominator) pair of ints with a
positive denominator, so equal values are equal pairs and 8/3 is (8, 3).
States are multisets of such pairs. A step picks two numbers and an
operator; the solver enumerates every step sequence that leaves exactly the
target. The arithmetic is on integers, so 8 / (3 - 8/3) == 24 holds exactly.
`number` parses text with Fraction; `format_number` prints as str(Fraction).

The oracles ask about the same number states again and again: in a pass of
the cpu-mix benchmark, about 70% of their solver calls repeat a state. So
`correct_steps` and `solve` are memoised by the state's `canon` key for the
life of the process, and `solvable` is for states of three or more numbers.
A state of two numbers is cheaper to test than to look up: it reaches the
target when one of six cross-multiplied equalities holds (`_pair_reaches`),
which needs no gcd, builds no key and adds no memo entry. A state of three
tries its three pairings through that test. After a cpu-mix pass (seed 401,
part 0) the `solvable` memo holds 1,141 entries and tracemalloc counts
0.7 MB allocated here; memoising every state, two-number ones included, held
14,996 entries and 3.6 MB. `legal_steps` is not memoised: on this kernel that
holds 3.2 MB instead of 0.7 after the same pass, raises peak RSS by about
2 MB and makes the pass no faster. `_solvable_key` does not go through a
table of each state's successors either; that raised peak memory by 16 MB.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

TARGET = (24, 1)
_TN, _TD = TARGET
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
    division keep both operand orders. A number pairs with itself only if it
    appears twice. Division by zero is excluded. The distinct values are
    sorted once, compared as integers scaled by the lcm of the denominators,
    and the steps come out by operator in OPS order, then by operand value.
    """
    scale = lcm(*[d for _, d in nums])
    vals = sorted(set(nums), key=lambda x: x[0] * (scale // x[1]))
    twice = {x for x in vals if nums.count(x) > 1} if len(vals) < len(nums) else ()
    plus, minus, times, divide = [], [], [], []
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            if i == j and a not in twice:
                continue
            if i <= j:
                plus.append((a, "+", b))
                times.append((a, "*", b))
            minus.append((a, "-", b))
            if b[0]:
                divide.append((a, "/", b))
    return plus + minus + times + divide


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


def _results(a: tuple, b: tuple) -> list:
    """The numbers one step on a and b can leave, up to six, as pairs that
    are not normalised: a denominator may have either sign."""
    (an, ad), (bn, bd) = a, b
    s, t, d = an * bd, bn * ad, ad * bd
    out = [(s + t, d), (s - t, d), (t - s, d), (an * bn, d)]
    if bn:
        out.append((s, ad * bn))
    if an:
        out.append((t, bd * an))
    return out


def _pair_reaches(a: tuple, b: tuple) -> bool:
    """Does one step on the two numbers leave the target? This is _results
    spelt out and compared with the target cross-multiplied: the value
    oracle asks it of every two-number state, unmemoised."""
    (an, ad), (bn, bd) = a, b
    s, t, d = an * bd, bn * ad, ad * bd
    goal = _TN * d
    return (
        (s + t) * _TD == goal
        or (s - t) * _TD == goal
        or (t - s) * _TD == goal
        or an * bn * _TD == goal
        or (bn != 0 and s * _TD == _TN * ad * bn)
        or (an != 0 and t * _TD == _TN * bd * an)
    )


def _solvable(nums: Sequence[tuple]) -> bool:
    """Solvability of a state in any order; only states of three or more
    numbers go through the memo."""
    n = len(nums)
    if n == 2:
        return _pair_reaches(nums[0], nums[1])
    if n < 2:
        return n == 1 and nums[0] == TARGET
    return _solvable_key(canon(nums))


@lru_cache(maxsize=None)
def _solvable_key(key: tuple) -> bool:
    """Solvability of a state of three or more numbers, by its canon key."""
    if len(key) > 3:
        return any(_solvable(step_result(key, step)) for step in legal_steps(key))
    a, b, c = key
    return any(
        _pair_reaches(r, z) for x, y, z in ((a, b, c), (a, c, b), (b, c, a)) for r in _results(x, y)
    )


def solvable(nums: Iterable[tuple]) -> bool:
    """Can the multiset still be reduced to the target?"""
    return _solvable(tuple(nums))


@lru_cache(maxsize=None)
def _correct_steps_key(key: tuple) -> tuple:
    return tuple(step for step in legal_steps(key) if _solvable(step_result(key, step)))


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
