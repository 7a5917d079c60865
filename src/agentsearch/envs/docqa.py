"""Offline lookup question answering over a bundled entity corpus.

Search[entity] pages in an entry (or suggests similar titles on a miss),
Lookup[keyword] walks matching sentences of the current page, and
Finish[answer] ends the episode, scored by normalized exact match.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Optional

from ..actions import ActionGrammar, ActionSample
from .base import Environment, EnvObservation, TaskError, TaskSpec

GRAMMAR = ActionGrammar(
    verbs=("search", "lookup", "finish"),
    thought_verbs=("think",),
    terminal_verbs=("finish",),
)

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})
_ARTICLES = {"a", "an", "the"}


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    words = text.casefold().translate(_PUNCT_TABLE).split()
    return " ".join(w for w in words if w not in _ARTICLES)


def _normalize_title(text: str) -> str:
    return " ".join(text.casefold().translate(_PUNCT_TABLE).split())


def trigrams(text: str) -> frozenset:
    squeezed = _normalize_title(text)
    if len(squeezed) < 3:
        return frozenset({squeezed}) if squeezed else frozenset()
    return frozenset(squeezed[i : i + 3] for i in range(len(squeezed) - 2))


def similarity(a: str, b: str) -> float:
    """Jaccard overlap of character trigrams of the normalized strings."""
    ta, tb = trigrams(a), trigrams(b)
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


class DocQAEnv(Environment):
    kind = "docqa"
    grammar = GRAMMAR

    @dataclass
    class State:
        page: Optional[str] = None
        lookup_keyword: Optional[str] = None
        lookup_pos: int = 0

    def _do_reset(self, task: TaskSpec) -> EnvObservation:
        corpus = task.payload.get("corpus")
        answer = task.payload.get("answer")
        question = task.payload.get("question")
        if not isinstance(corpus, dict) or not corpus:
            raise TaskError("docqa payload needs a non-empty 'corpus' mapping")
        if not isinstance(answer, str) or not isinstance(question, str):
            raise TaskError("docqa payload needs string 'question' and 'answer'")
        for title, sentences in corpus.items():
            if not isinstance(sentences, list) or not all(isinstance(s, str) for s in sentences):
                raise TaskError(f"corpus entry {title!r} must be a list of sentences")
        self._corpus = {title: list(sentences) for title, sentences in corpus.items()}
        self._answer = answer
        return EnvObservation(question)

    def _find_title(self, entity: str) -> Optional[str]:
        wanted = _normalize_title(entity)
        for title in self._corpus:
            if _normalize_title(title) == wanted:
                return title
        return None

    def _similar_titles(self, entity: str, limit: int = 5) -> list:
        scored = sorted(
            self._corpus, key=lambda title: (-similarity(entity, title), title)
        )
        return scored[:limit]

    def _apply(self, action: ActionSample) -> EnvObservation:
        argument = (action.argument or "").strip()
        if action.verb == "search":
            title = self._find_title(argument)
            self.state = self.State(page=title)
            if title is None:
                suggestions = ", ".join(self._similar_titles(argument))
                return EnvObservation(f"Similar: {suggestions}")
            return EnvObservation(" ".join(self._corpus[title][:5]))
        if action.verb == "lookup":
            state = self.state
            if state.page is None:
                return self.invalid()
            keyword = argument.casefold()
            if keyword != state.lookup_keyword:
                state.lookup_keyword = keyword
                state.lookup_pos = 0
            sentences = self._corpus[state.page]
            for idx in range(state.lookup_pos, len(sentences)):
                if keyword in sentences[idx].casefold():
                    state.lookup_pos = idx + 1
                    return EnvObservation(sentences[idx])
            state.lookup_pos = len(sentences)
            return EnvObservation("No more results.")
        # finish, the grammar's one other verb
        reward = 1.0 if normalize_answer(argument) == normalize_answer(self._answer) else 0.0
        return EnvObservation("Episode finished.", terminal=True, reward=reward)
