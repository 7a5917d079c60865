"""Proposal backends.

Every backend implements one method:

    propose(prompt: str, n: int, seed: int) -> list[str]

returning exactly n completion texts. Deterministic backends return the same
list for the same (prompt, n, seed).

A search may call its value backend from several threads at once: the
value calls of one node's fresh children go out together once they prove
slow. So a backend must be safe to call concurrently, and must answer as a
function of (prompt, n, seed) alone, or else set the class attribute
`order_dependent = True`; a search then makes its value calls one at a
time, in child order. The scripted backend is order-dependent: it hands out
responses by call order.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Protocol

from . import solver24
from .seeding import stable_seed
from .trace import decode


class BackendError(RuntimeError):
    """A backend could not produce completions (bad state, exhausted retries)."""


class PolicyBackend(Protocol):
    def propose(self, prompt: str, n: int, seed: int) -> list: ...


@dataclass
class ScriptRule:
    """Either a literal substring match or an anchored/partial regex."""

    contains: Optional[str] = None
    pattern: Optional[str] = None
    responses: list = field(default_factory=list)

    def matches(self, prompt: str) -> bool:
        if self.contains is not None:
            return self.contains in prompt
        if self.pattern is not None:
            return re.search(self.pattern, prompt) is not None
        return False


class ScriptedBackend:
    """Deterministic canned backend for tests and plumbing checks.

    The first rule whose matcher hits the prompt answers it, handing out its
    next n responses and cycling through the list. Repeating an identical
    (prompt, n, seed) call replays the exact same window instead of advancing
    the cursor, so deterministic-backend semantics hold; a novel call moves
    the cursor forward. Prompts matching no rule get the default response.
    As answers depend on call order, a search never calls it concurrently.
    """

    order_dependent = True

    def __init__(self, rules: Optional[list] = None, default: str = "think[no scripted response]"):
        self.rules = list(rules or [])
        self.default = default
        self._cursors = [0] * len(self.rules)
        self._memo = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        """Read {"rules": [{"contains" or "pattern": ..., "responses": [...]}],
        "default": TEXT}. A malformed file is a ValueError here, before any
        prompt reaches it."""
        data = decode(Path(path).read_text())
        if not isinstance(data, dict) or not isinstance(data.get("rules", []), list):
            raise ValueError(f"{path} must hold an object with a 'rules' list")
        rules = []
        for index, raw in enumerate(data.get("rules", [])):
            where = f"{path} rule {index}"
            if not isinstance(raw, dict):
                raise ValueError(f"{where} is not an object")
            rule = ScriptRule(
                contains=raw.get("contains"),
                pattern=raw.get("pattern"),
                responses=raw.get("responses", []),
            )
            if not isinstance(rule.contains, (str, type(None))):
                raise ValueError(f"{where}: 'contains' must be a string")
            if rule.pattern is not None:
                try:
                    re.compile(rule.pattern)
                except (re.error, TypeError) as exc:
                    raise ValueError(f"{where}: bad pattern {rule.pattern!r}: {exc}") from exc
            if not isinstance(rule.responses, list) or not all(
                isinstance(r, str) for r in rule.responses
            ):
                raise ValueError(f"{where}: 'responses' must be a list of strings")
            rules.append(rule)
        default = data.get("default", "think[no scripted response]")
        if not isinstance(default, str):
            raise ValueError(f"{path}: 'default' must be a string")
        return cls(rules, default=default)

    def propose(self, prompt: str, n: int, seed: int) -> list:
        if n < 1:
            raise ValueError("n must be >= 1")
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not rule.matches(prompt):
                    continue
                if not rule.responses:
                    break
                key = (index, prompt, n, seed)
                if key in self._memo:
                    return list(self._memo[key])
                start = self._cursors[index]
                out = [rule.responses[(start + i) % len(rule.responses)] for i in range(n)]
                self._cursors[index] = (start + n) % len(rule.responses)
                self._memo[key] = out
                return list(out)
            return [self.default] * n


def static_backend(text: str) -> ScriptedBackend:
    """Backend that answers everything with one fixed text."""
    return ScriptedBackend([], default=text)


# HttpChatBackend: bearer-token variable, token cap, timeout, attempts, first retry delay.
API_KEY_ENV = "AGENTSEARCH_API_KEY"
MAX_TOKENS = 256
TIMEOUT_S = 60.0
RETRIES = 3
BACKOFF_S = 0.5


class HttpChatBackend:
    """Chat-completions client with retry and an on-disk response cache.

    Responses are cached keyed by a hash of (prompt, n, seed, model,
    temperature), so each seeded call is its own sample and repeating a run
    against a warm cache makes no network calls. A cache file is renamed into
    place once written, so no reader sees a partial one; one that cannot be
    read or does not hold n completion strings (say, left half-written by an
    older version) counts as a miss, and one that cannot be written is
    skipped. Transport errors and 5xx responses are retried, RETRIES
    attempts in all, with exponential backoff; other HTTP errors, non-JSON
    replies and non-string completions raise BackendError immediately.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        temperature: float = 0.7,
        cache_dir=None,
        session=None,
    ):
        import requests

        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._session = session or requests.Session()
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _cache_key(self, prompt: str, n: int, seed: int) -> str:
        blob = json.dumps(
            dict(prompt=prompt, n=n, seed=seed, model=self.model, temperature=self.temperature),
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _cache_path(self, key: str):
        return self.cache_dir / f"{key}.json" if self.cache_dir else None

    def propose(self, prompt: str, n: int, seed: int) -> list:
        path = self._cache_path(self._cache_key(prompt, n, seed))
        if path is not None:
            try:
                texts = decode(path.read_text())["texts"]
            # absent or unreadable, not UTF-8, not JSON, no texts
            except (OSError, ValueError, KeyError, TypeError):
                texts = None
            if _are_texts(texts, n):
                return texts
            # anything else is a miss, and the write below replaces the file
        texts = self._request(prompt, n)
        if path is not None:
            self._store(path, texts)
        return texts

    def _store(self, path: Path, texts: list) -> None:
        """Write a cache file. A write that fails (a full disk, a directory
        at the path) leaves no temp file behind; the caller still gets the
        texts, and the next call for the key asks the server again."""
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps({"texts": texts}, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)

    def _request(self, prompt: str, n: int) -> list:
        import requests

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "n": n,
            "temperature": self.temperature,
            "max_tokens": MAX_TOKENS,
        }
        last_error = "no attempt made"
        for attempt in range(RETRIES):
            try:
                resp = self._session.post(
                    self.endpoint, json=body, headers=headers, timeout=TIMEOUT_S
                )
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
            else:
                if resp.status_code >= 500:
                    last_error = f"server error {resp.status_code}: {resp.text[:200]}"
                elif resp.status_code >= 400:
                    raise BackendError(
                        f"http backend rejected request ({resp.status_code}): {resp.text[:200]}"
                    )
                else:
                    try:
                        data = resp.json()
                    except (ValueError, RecursionError) as exc:
                        raise BackendError(f"completion reply is not JSON: {exc}") from exc
                    return self._parse(data, n)
            if attempt + 1 < RETRIES:
                time.sleep(BACKOFF_S * (2**attempt))
        raise BackendError(f"http backend failed after {RETRIES} attempts; {last_error}")

    @staticmethod
    def _parse(data: dict, n: int) -> list:
        try:
            texts = [choice["message"]["content"] for choice in data["choices"]]
        except (KeyError, TypeError) as exc:
            raise BackendError(f"malformed completion payload: {exc}") from exc
        if len(texts) < n:
            raise BackendError(f"backend returned {len(texts)} completions, wanted {n}")
        if not _are_texts(texts[:n], n):
            raise BackendError("completion content is not a string")
        return texts[:n]


def _are_texts(value, n: int) -> bool:
    """Whether value is a list of exactly n completion strings."""
    return isinstance(value, list) and len(value) == n and all(isinstance(t, str) for t in value)


_REMAINING_RE = re.compile(r"Remaining numbers:\s*([^\n]+)")


def parse_remaining_numbers(prompt: str) -> list:
    """Extract the current number multiset from the last state line in a
    prompt. Raises BackendError when no parseable state is present."""
    matches = _REMAINING_RE.findall(prompt)
    if not matches:
        raise BackendError("prompt contains no 'Remaining numbers:' state line")
    tokens = matches[-1].split()
    try:
        return [solver24.number(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise BackendError(f"unparseable number state {matches[-1]!r}") from exc


class Game24PolicyOracle:
    """Scripted stand-in for an LM of tunable competence on Game of 24.

    Each proposal is, with probability p_correct, a uniformly chosen step
    that keeps the remaining numbers solvable (per the exhaustive solver);
    otherwise it is a uniformly chosen legal step. Draws are seeded from
    (backend seed, call seed), so identical calls return identical lists.
    """

    def __init__(self, p_correct: float, seed: int = 0):
        if not 0.0 <= p_correct <= 1.0:
            raise ValueError("p_correct must be in [0, 1]")
        self.p_correct = p_correct
        self.seed = seed

    def propose(self, prompt: str, n: int, seed: int) -> list:
        nums = parse_remaining_numbers(prompt)
        if len(nums) < 2:
            raise BackendError("number state is already terminal")
        rng = random.Random(stable_seed(self.seed, seed, "policy"))
        legal = solver24.legal_steps(nums)
        correct = solver24.correct_steps(nums)
        out = []
        for _ in range(n):
            pool = correct if (correct and rng.random() < self.p_correct) else legal
            step = pool[rng.randrange(len(pool))]
            out.append(f"combine[{solver24.render_step(step)}]")
        return out


class Game24ValueOracle:
    """Value-prompt counterpart of Game24PolicyOracle.

    With probability `accuracy` it reports score 10 when the remaining
    numbers can still reach 24 (score 1 otherwise, and for terminal states
    score 10 only on exactly 24); with the remaining probability it reports
    a uniform random score. Output ends with the standard score sentence.
    """

    def __init__(self, accuracy: float, seed: int = 0):
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        self.accuracy = accuracy
        self.seed = seed

    def propose(self, prompt: str, n: int, seed: int) -> list:
        nums = parse_remaining_numbers(prompt)
        rng = random.Random(stable_seed(self.seed, seed, "value"))
        out = []
        for _ in range(n):
            if rng.random() < self.accuracy:
                if len(nums) == 1:
                    score = 10 if nums[0] == solver24.TARGET else 1
                else:
                    score = 10 if solver24.solvable(nums) else 1
            else:
                score = rng.randint(1, 10)
            out.append(
                "The remaining numbers were checked against the target.\n"
                f"Thus the correctness score is {score}"
            )
        return out
