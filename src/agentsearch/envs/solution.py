"""One-shot expression-synthesis environment.

A task states a target function of x and carries hidden input/expected test
pairs. submit[<expression>] ends the episode immediately; the reward is the
fraction of tests the candidate passes under exact rational evaluation, on
solver24's normalised (numerator, denominator) pairs, as game24 computes.
Candidates use a tiny arithmetic language: integers, x, + - * /, unary
minus, and parentheses.
"""

from __future__ import annotations

import re
from typing import Optional

from ..actions import ActionGrammar, ActionSample
from ..solver24 import apply_op, number
from .base import Environment, EnvObservation, TaskError, TaskSpec

# An integer in any decimal digits, an operator, x, or a character to refuse.
_TOKEN = re.compile(r"\s*(?:(\d+)|([-+*/()xX])|(\S))")


class ExprError(ValueError):
    pass


class _Parser:
    """Recursive-descent parser; evaluates while parsing.

    grammar:  expr   := term (('+'|'-') term)*
              term   := unary (('*'|'/') unary)*
              unary  := '-' unary | atom
              atom   := INT | 'x' | '(' expr ')'
    """

    def __init__(self, text: str, x: tuple):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.x = x

    @staticmethod
    def _tokenize(text: str) -> list:
        tokens = []
        for digits, symbol, other in _TOKEN.findall(text):
            if other:
                raise ExprError(f"unexpected character {other!r}")
            tokens.append(digits or symbol.lower())
        if not tokens:
            raise ExprError("empty expression")
        return tokens

    def _peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> str:
        tok = self._peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> tuple:
        value = self._expr()
        if self._peek() is not None:
            raise ExprError(f"trailing tokens near {self._peek()!r}")
        return value

    def _expr(self) -> tuple:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._take()
            value = apply_op(value, op, self._term())
        return value

    def _term(self) -> tuple:
        value = self._unary()
        while self._peek() in ("*", "/"):
            op = self._take()
            rhs = self._unary()
            if op == "/" and not rhs[0]:
                raise ExprError("division by zero")
            value = apply_op(value, op, rhs)
        return value

    def _unary(self) -> tuple:
        if self._peek() == "-":
            self._take()
            n, d = self._unary()
            return (-n, d)
        return self._atom()

    def _atom(self) -> tuple:
        tok = self._take()
        if tok == "(":
            value = self._expr()
            if self._take() != ")":
                raise ExprError("missing closing parenthesis")
            return value
        if tok == "x":
            return self.x
        if tok.isdecimal():
            try:
                return (int(tok), 1)
            except ValueError as exc:  # over int()'s 4,300-digit limit
                raise ExprError(str(exc)) from exc
        raise ExprError(f"unexpected token {tok!r}")


def evaluate_expression(text: str, x: tuple) -> tuple:
    """Evaluate a candidate expression at the pair x, to a pair; raises
    ExprError on bad input, nesting too deep to parse included."""
    try:
        return _Parser(text, x).parse()
    except RecursionError as exc:
        raise ExprError("expression nested too deeply") from exc


def _as_number(value) -> tuple:
    """A test row's value as a pair; a float reads as it prints, so 0.1 is 1/10."""
    return number(str(value) if isinstance(value, float) else value)


class SolutionEnv(Environment):
    """submit is the only step and it ends the episode, so no step changes
    anything: the env keeps the base's empty State."""

    kind = "solution"
    grammar = ActionGrammar(verbs=("submit",), thought_verbs=("think",), terminal_verbs=("submit",))
    depth_limit = 8
    lam = 0.8
    skip_simulation = True
    question_key = "statement"

    def _do_reset(self, task: TaskSpec) -> EnvObservation:
        statement = self.question(task.payload)
        tests = task.payload.get("tests")
        if not isinstance(tests, list) or not tests:
            raise TaskError("solution payload needs a non-empty 'tests' list")
        parsed = []
        for row in tests:
            try:
                parsed.append((_as_number(row["input"]), _as_number(row["expected"])))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise TaskError(f"malformed test row {row!r}: {exc}") from exc
        self._tests = parsed
        return EnvObservation(statement)

    def _apply(self, action: ActionSample) -> EnvObservation:
        candidate = (action.argument or "").strip()
        passed = 0
        for x, expected in self._tests:
            try:
                if evaluate_expression(candidate, x) == expected:
                    passed += 1
            except ExprError:
                # malformed candidates fail every test; per-input failures
                # (division by zero at one x) fail just that test
                continue
        reward = passed / len(self._tests)
        return EnvObservation(
            f"Passed {passed} of {len(self._tests)} tests.", terminal=True, reward=reward
        )
