"""Catalog shopping simulator.

The agent searches a product catalog, pages through ranked results three at
a time, opens an item, picks options, and buys. The purchase reward is

    (matched attributes + matched selected options + price-under-cap) /
    (|required attributes| + |required options| + 1)

so 1.0 means the bought item satisfied the instruction completely.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..actions import ActionGrammar, ActionSample
from .base import INVALID_OBSERVATION, Environment, EnvObservation, TaskError, TaskSpec, words

PAGE_SIZE = 3


def _strings(values, what: str) -> list:
    if not isinstance(values, list):
        raise TaskError(f"{what} must be a list, not {type(values).__name__}")
    if not all(isinstance(v, str) for v in values):
        raise TaskError(f"each of the {what} must be a string")
    return list(values)


def _mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TaskError(f"{what} must be an object, not {type(value).__name__}")
    return value


class ShopEnv(Environment):
    kind = "shop"
    grammar = ActionGrammar(
        verbs=("search", "choose", "click"),
        thought_verbs=("think",),
        terminal_args=(("choose", "buy now"), ("click", "buy now")),
    )
    depth_limit = 15
    lam = 0.8
    question_key = "instruction"

    @dataclass(frozen=True)
    class State:
        page_kind: str = "search"  # search | results | item
        ranked: tuple = ()  # product ids, best first
        page_index: int = 0
        current: Optional[str] = None  # the open item's id
        # id -> {option type: value}; shared with snapshots, so never mutated
        selections: dict = field(default_factory=dict)

    def _do_reset(self, task: TaskSpec) -> EnvObservation:
        catalog = task.payload.get("catalog")
        if not isinstance(catalog, list) or not catalog:
            raise TaskError("shop payload needs a non-empty 'catalog' list")
        self._catalog = {}
        for product in catalog:
            try:
                pid = str(product["id"])
                entry = {
                    "id": pid,
                    "title": str(product["title"]),
                    "price": float(product["price"]),
                    "options": {
                        str(t): _strings(vals, "option values")
                        for t, vals in _mapping(product.get("options", {}), "options").items()
                    },
                    "attributes": _strings(product.get("attributes", []), "attributes"),
                }
            except (KeyError, TypeError, ValueError) as exc:
                raise TaskError(f"malformed catalog product: {exc}") from exc
            if pid in self._catalog:
                raise TaskError(f"duplicate product id {pid!r}")
            self._catalog[pid] = entry
        self._title_terms = {pid: set(words(p["title"])) for pid, p in self._catalog.items()}
        self._rankings = {}  # query terms -> ranked ids; a task asks few distinct queries
        self._instruction = self.question(task.payload)
        self._required_attrs = _strings(task.payload.get("attributes", []), "task attributes")
        options = _mapping(task.payload.get("options", {}), "task options")
        if not all(isinstance(v, str) for v in options.values()):
            raise TaskError("each task option value must be a string")
        self._required_options = {str(t): v for t, v in options.items()}
        try:
            self._price_cap = float(task.payload["price_cap"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TaskError("shop payload needs a numeric 'price_cap'") from exc
        return EnvObservation(self._search_page())

    # -- page rendering ---------------------------------------------------
    def _search_page(self) -> str:
        return f"Instruction: {self._instruction}\n[Search]"

    def _results_page(self) -> str:
        lines = [f"Page {self.state.page_index + 1} (Total results: {len(self.state.ranked)})"]
        for pid in self._visible_ids():
            product = self._catalog[pid]
            lines.append(f"[{pid}]")
            lines.append(product["title"])
            lines.append(f"${product['price']:.2f}")
        return "\n".join(lines)

    def _item_page(self) -> str:
        product = self._catalog[self.state.current]
        lines = [f"[{product['id']}] {product['title']}", f"${product['price']:.2f}"]
        for opt_type in sorted(product["options"]):
            values = "".join(f"[{v}]" for v in product["options"][opt_type])
            lines.append(f"{opt_type}: {values}")
        lines.append("[Buy Now]")
        return "\n".join(lines)

    def _visible_ids(self) -> tuple:
        start = self.state.page_index * PAGE_SIZE
        return self.state.ranked[start : start + PAGE_SIZE]

    # -- actions ----------------------------------------------------------
    def _apply(self, action: ActionSample) -> EnvObservation:
        argument = (action.argument or "").strip()
        state = self.state
        if action.verb == "search":
            if state.page_kind != "search":
                return INVALID_OBSERVATION
            query = frozenset(words(argument))
            if query not in self._rankings:
                titles = self._title_terms
                self._rankings[query] = tuple(
                    sorted(titles, key=lambda pid: (-len(query & titles[pid]), pid))
                )
            ranked = self._rankings[query]
            self.state = replace(state, page_kind="results", ranked=ranked, page_index=0)
            return EnvObservation(self._results_page())
        # choose and click are synonyms
        key = argument.casefold()
        if key == "buy now":
            if state.page_kind != "item":
                return INVALID_OBSERVATION
            return self._buy()
        if key == "next page":
            end = (state.page_index + 1) * PAGE_SIZE
            if state.page_kind != "results" or end >= len(state.ranked):
                return INVALID_OBSERVATION
            self.state = replace(state, page_index=state.page_index + 1)
            return EnvObservation(self._results_page())
        if key == "prev page":
            if state.page_kind != "results" or state.page_index == 0:
                return INVALID_OBSERVATION
            self.state = replace(state, page_index=state.page_index - 1)
            return EnvObservation(self._results_page())
        if key == "back to search":
            self.state = self.State(selections=state.selections)
            return EnvObservation(self._search_page())
        if state.page_kind == "results":
            for pid in self._visible_ids():
                if pid.casefold() == key:
                    self.state = replace(state, page_kind="item", current=pid)
                    return EnvObservation(self._item_page())
            return INVALID_OBSERVATION
        if state.page_kind == "item":
            product = self._catalog[state.current]
            for opt_type in sorted(product["options"]):
                for value in product["options"][opt_type]:
                    if value.casefold() == key:
                        chosen = {**state.selections.get(state.current, {}), opt_type: value}
                        selections = {**state.selections, state.current: chosen}
                        self.state = replace(state, selections=selections)
                        return EnvObservation(f"You have clicked {value}.")
        return INVALID_OBSERVATION

    def _buy(self) -> EnvObservation:
        product = self._catalog[self.state.current]
        chosen = self.state.selections.get(self.state.current, {})
        have_attrs = {a.casefold() for a in product["attributes"]}
        matched_attrs = sum(1 for a in self._required_attrs if a.casefold() in have_attrs)
        matched_options = sum(
            1
            for opt_type, value in self._required_options.items()
            if chosen.get(opt_type, "").casefold() == value.casefold()
        )
        price_ok = 1 if product["price"] <= self._price_cap else 0
        denom = len(self._required_attrs) + len(self._required_options) + 1
        reward = (matched_attrs + matched_options + price_ok) / denom
        return EnvObservation("Order placed.", terminal=True, reward=reward)
