"""One-shot expression-synthesis environment.

A task states a target function of x and carries hidden input/expected test
pairs. submit[<expression>] ends the episode immediately; the reward is the
fraction of tests the candidate passes under exact rational evaluation.
Candidates use a tiny arithmetic language: integers, x, + - * /, unary
minus, and parentheses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..actions import ActionGrammar, ActionSample
from .base import Environment, EnvObservation, TaskError, TaskSpec

GRAMMAR = ActionGrammar(
    verbs=("submit",),
    thought_verbs=("think",),
    terminal_verbs=("submit",),
)


class ExprError(ValueError):
    pass


class _Parser:
    """Recursive-descent parser; evaluates while parsing.

    grammar:  expr   := term (('+'|'-') term)*
              term   := unary (('*'|'/') unary)*
              unary  := '-' unary | atom
              atom   := INT | 'x' | '(' expr ')'
    """

    def __init__(self, text: str, x: Fraction):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.x = x

    @staticmethod
    def _tokenize(text: str) -> list:
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdecimal():
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                tokens.append(text[i:j])
                i = j
            elif ch in "+-*/()xX":
                tokens.append(ch.lower())
                i += 1
            else:
                raise ExprError(f"unexpected character {ch!r}")
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

    def parse(self) -> Fraction:
        value = self._expr()
        if self._peek() is not None:
            raise ExprError(f"trailing tokens near {self._peek()!r}")
        return value

    def _expr(self) -> Fraction:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._take()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> Fraction:
        value = self._unary()
        while self._peek() in ("*", "/"):
            op = self._take()
            rhs = self._unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs == 0:
                    raise ExprError("division by zero")
                value = value / rhs
        return value

    def _unary(self) -> Fraction:
        if self._peek() == "-":
            self._take()
            return -self._unary()
        return self._atom()

    def _atom(self) -> Fraction:
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
                return Fraction(int(tok))
            except ValueError as exc:  # over int()'s 4,300-digit limit
                raise ExprError(str(exc)) from exc
        raise ExprError(f"unexpected token {tok!r}")


def evaluate_expression(text: str, x) -> Fraction:
    """Evaluate a candidate expression at x; raises ExprError on bad input,
    nesting too deep to parse included."""
    try:
        return _Parser(text, Fraction(x)).parse()
    except RecursionError as exc:
        raise ExprError("expression nested too deeply") from exc


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


class SolutionEnv(Environment):
    """submit is the only step and it ends the episode, so no step changes
    anything: the env keeps the base's empty State."""

    kind = "solution"
    grammar = GRAMMAR

    def _do_reset(self, task: TaskSpec) -> EnvObservation:
        statement = task.payload.get("statement")
        tests = task.payload.get("tests")
        if not isinstance(statement, str) or not statement:
            raise TaskError("solution payload needs a 'statement' string")
        if not isinstance(tests, list) or not tests:
            raise TaskError("solution payload needs a non-empty 'tests' list")
        parsed = []
        for row in tests:
            try:
                parsed.append((_as_fraction(row["input"]), _as_fraction(row["expected"])))
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
