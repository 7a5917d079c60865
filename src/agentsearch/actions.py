"""Action grammar and parsing.

Proposal texts coming back from a policy backend are free-form. Each
environment declares a small grammar (which verbs exist, which ones end the
episode) and `parse_action` classifies a raw text against it as a thought,
an environment action, or a final answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional


class ParseError(ValueError):
    """Raised for a recognized verb whose bracket syntax is malformed."""

    def __init__(self, raw: str, message: str = "malformed action"):
        super().__init__(f"{message}: {raw!r}")
        self.raw = raw


@dataclass(frozen=True)
class ActionSample:
    """One parsed proposal.

    kind is "thought", "env_action", or "final_answer". Thoughts carry raw
    text only; the other kinds carry the case-folded verb and the verbatim
    argument. raw always preserves the original text.
    """

    kind: str
    raw: str
    verb: Optional[str] = None
    argument: Optional[str] = None


@dataclass(frozen=True)
class ActionGrammar:
    """Verb vocabulary for one environment.

    terminal_verbs end the episode for any argument (e.g. finish, submit);
    terminal_args lists (verb, case-folded argument) pairs that end it for
    one specific argument (e.g. choose[Buy Now]).
    """

    verbs: tuple = ()
    thought_verbs: tuple = ("think",)
    terminal_verbs: tuple = ()
    terminal_args: tuple = ()

    def is_terminal(self, verb: str, argument: str) -> bool:
        if verb in self.terminal_verbs:
            return True
        return (verb, argument.casefold().strip()) in self.terminal_args


_PREFIX_RE = re.compile(r"^\s*Action(?:\s+\d+)?\s*:\s*", re.IGNORECASE)
_THOUGHT_RE = re.compile(r"^\s*Thought(?:\s+\d+)?\s*:", re.IGNORECASE)
_VERB_CALL_RE = re.compile(r"^\s*([A-Za-z][A-Za-z _-]*?)\s*\[(.*)\]\s*$", re.DOTALL)
_OPEN_ONLY_RE = re.compile(r"^\s*([A-Za-z][A-Za-z _-]*?)\s*\[", re.DOTALL)


def parse_action(raw: str, grammar: ActionGrammar) -> ActionSample:
    """Classify one raw proposal against a grammar.

    Rules, in order: a leading "Thought ...:" prefix makes it a thought; a
    recognized verb with a bracketed argument makes it an env_action (or a
    final_answer when the grammar marks it terminal); a recognized verb with
    an unclosed bracket raises ParseError; anything else is a thought.
    A leading "Action N:" transcript prefix is stripped before matching.
    """
    if not raw or not raw.strip():
        raise ValueError("empty action text")
    if _THOUGHT_RE.match(raw):
        return ActionSample(kind="thought", raw=raw)
    text = _PREFIX_RE.sub("", raw, count=1)
    m = _VERB_CALL_RE.match(text)
    if m:
        verb = m.group(1).strip().casefold()
        argument = m.group(2)
        if verb in grammar.thought_verbs:
            return ActionSample(kind="thought", raw=raw)
        if verb in grammar.verbs:
            kind = "final_answer" if grammar.is_terminal(verb, argument) else "env_action"
            return ActionSample(kind=kind, raw=raw, verb=verb, argument=argument)
        return ActionSample(kind="thought", raw=raw)
    m = _OPEN_ONLY_RE.match(text)
    if m:
        verb = m.group(1).strip().casefold()
        if verb in grammar.verbs or verb in grammar.thought_verbs:
            raise ParseError(raw, "unclosed bracket")
    return ActionSample(kind="thought", raw=raw)


def normalize_action_text(sample: ActionSample) -> str:
    """Canonical text used when counting duplicate sibling actions.

    Whitespace is trimmed and internal runs collapsed; the verb is
    case-folded (arguments keep their case so Finish[Rome] != Finish[rome]).
    """
    if sample.kind == "thought" or sample.verb is None:
        return " ".join(sample.raw.split())
    argument = " ".join((sample.argument or "").split())
    return f"{sample.verb}[{argument}]"
