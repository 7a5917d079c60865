"""Offline lookup question answering over a bundled entity corpus.

Search[entity] pages in an entry (or suggests similar titles on a miss),
Lookup[keyword] walks matching sentences of the current page, and
Finish[answer] ends the episode, scored by normalized exact match.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..actions import ActionGrammar, ActionSample
from .base import INVALID_OBSERVATION, Environment, EnvObservation, TaskError, TaskSpec, words

_ARTICLES = {"a", "an", "the"}


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    return " ".join(w for w in words(text) if w not in _ARTICLES)


def _normalize_title(text: str) -> str:
    return " ".join(words(text))


def trigrams(text: str) -> frozenset:
    squeezed = _normalize_title(text)
    if len(squeezed) < 3:
        return frozenset({squeezed}) if squeezed else frozenset()
    return frozenset(squeezed[i : i + 3] for i in range(len(squeezed) - 2))


def _jaccard(ta: frozenset, tb: frozenset) -> float:
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


class DocQAEnv(Environment):
    kind = "docqa"
    grammar = ActionGrammar(
        verbs=("search", "lookup", "finish"), thought_verbs=("think",), terminal_verbs=("finish",)
    )
    depth_limit = 7
    lam = 0.5
    question_key = "question"

    @dataclass(frozen=True)
    class State:
        page: Optional[str] = None
        lookup_keyword: Optional[str] = None
        lookup_pos: int = 0

    def _do_reset(self, task: TaskSpec) -> EnvObservation:
        corpus = task.payload.get("corpus")
        answer = task.payload.get("answer")
        if not isinstance(corpus, dict) or not corpus:
            raise TaskError("docqa payload needs a non-empty 'corpus' mapping")
        question = self.question(task.payload)
        if not isinstance(answer, str):
            raise TaskError("docqa payload needs an 'answer' string")
        for title, sentences in corpus.items():
            if not isinstance(sentences, list) or not all(isinstance(s, str) for s in sentences):
                raise TaskError(f"corpus entry {title!r} must be a list of sentences")
        self._corpus = {title: list(sentences) for title, sentences in corpus.items()}
        self._answer = answer
        # Title indexes, built by the first search that needs them: a reset
        # that is never searched pays for neither.
        self._by_normal_title = None  # normalized title -> first such title
        self._title_trigrams = None  # title -> trigrams
        return EnvObservation(question)

    def _find_title(self, entity: str) -> Optional[str]:
        if self._by_normal_title is None:
            self._by_normal_title = {}
            for title in self._corpus:
                self._by_normal_title.setdefault(_normalize_title(title), title)
        return self._by_normal_title.get(_normalize_title(entity))

    def _similar_titles(self, entity: str, limit: int = 5) -> list:
        if self._title_trigrams is None:
            self._title_trigrams = {title: trigrams(title) for title in self._corpus}
        query, titles = trigrams(entity), self._title_trigrams
        scored = sorted(titles, key=lambda title: (-_jaccard(query, titles[title]), title))
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
                return INVALID_OBSERVATION
            keyword = argument.casefold()
            start = state.lookup_pos if keyword == state.lookup_keyword else 0
            sentences = self._corpus[state.page]
            for idx in range(start, len(sentences)):
                if keyword in sentences[idx].casefold():
                    self.state = replace(state, lookup_keyword=keyword, lookup_pos=idx + 1)
                    return EnvObservation(sentences[idx])
            self.state = replace(state, lookup_keyword=keyword, lookup_pos=len(sentences))
            return EnvObservation("No more results.")
        # finish, the grammar's one other verb
        reward = 1.0 if normalize_answer(argument) == normalize_answer(self._answer) else 0.0
        return EnvObservation("Episode finished.", terminal=True, reward=reward)
