"""Backend tests: scripted rules, game-of-24 oracles, HTTP client plumbing."""

import json
import os
import tempfile

import pytest
import requests

from agentsearch import backends, solver24
from agentsearch.backends import (
    BackendError,
    Game24PolicyOracle,
    Game24ValueOracle,
    HttpChatBackend,
    ScriptedBackend,
    ScriptRule,
    parse_remaining_numbers,
    static_backend,
)
from agentsearch.valuation import parse_score


# ---------------------------------------------------------------------------
# scripted backend


def test_first_matching_rule_wins():
    backend = ScriptedBackend(
        [
            ScriptRule(contains="alpha", responses=["from first"]),
            ScriptRule(contains="alpha beta", responses=["from second"]),
        ]
    )
    assert backend.propose("alpha beta", 1, 0) == ["from first"]


def test_rules_cycle_through_responses():
    backend = ScriptedBackend([ScriptRule(contains="q", responses=["a", "b", "c"])])
    assert backend.propose("q", 2, seed=1) == ["a", "b"]
    assert backend.propose("q", 2, seed=2) == ["c", "a"]
    assert backend.propose("q", 1, seed=3) == ["b"]


def test_repeated_identical_call_replays_without_advancing():
    backend = ScriptedBackend([ScriptRule(contains="q", responses=["a", "b", "c"])])
    assert backend.propose("q", 2, seed=1) == ["a", "b"]
    assert backend.propose("q", 2, seed=1) == ["a", "b"]
    # the cursor moved only once, so a novel call continues at "c"
    assert backend.propose("q", 1, seed=9) == ["c"]


def test_pattern_rules_and_default():
    backend = ScriptedBackend(
        [ScriptRule(pattern=r"Remaining numbers: 1 4\b", responses=["combine[1 + 4]"])],
        default="think[nothing matched]",
    )
    assert backend.propose("state\nRemaining numbers: 1 4", 1, 0) == ["combine[1 + 4]"]
    assert backend.propose("Remaining numbers: 1 40", 2, 0) == ["think[nothing matched]"] * 2


def test_empty_rule_falls_through_to_default():
    backend = ScriptedBackend([ScriptRule(contains="q", responses=[])], default="d")
    assert backend.propose("q", 1, 0) == ["d"]


def test_propose_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        static_backend("x").propose("q", 0, 0)


def test_from_file_round_trip(tmp_path):
    spec = {
        "default": "fallback",
        "rules": [
            {"contains": "hello", "responses": ["hi there"]},
            {"pattern": "bye$", "responses": ["farewell", "later"]},
        ],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(spec))
    backend = ScriptedBackend.from_file(path)
    assert backend.propose("hello world", 1, 0) == ["hi there"]
    assert backend.propose("good bye", 2, 0) == ["farewell", "later"]
    assert backend.propose("nothing", 1, 0) == ["fallback"]


@pytest.mark.parametrize(
    "spec",
    [
        [],
        {"rules": {}},
        {"rules": [1]},
        {"rules": [{"pattern": "(", "responses": ["x"]}]},
        {"rules": [{"pattern": 5, "responses": ["x"]}]},
        {"rules": [{"contains": 3, "responses": ["x"]}]},
        {"rules": [{"contains": "q", "responses": "x"}]},
        {"rules": [{"contains": "q", "responses": [1]}]},
        {"default": 1},
    ],
)
def test_from_file_rejects_malformed_rules(tmp_path, spec):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError):
        ScriptedBackend.from_file(path)


def test_static_backend_answers_everything():
    backend = static_backend("the correctness score is 7")
    assert backend.propose("any prompt", 3, 5) == ["the correctness score is 7"] * 3


# ---------------------------------------------------------------------------
# number-state parsing


def test_parse_remaining_numbers_takes_last_state_line():
    prompt = "Remaining numbers: 1 2 3 4\nObservation\nRemaining numbers: 3 8"
    assert parse_remaining_numbers(prompt) == [(3, 1), (8, 1)]


def test_parse_remaining_numbers_reads_fractions():
    assert parse_remaining_numbers("Remaining numbers: 7/3 24") == [(7, 3), (24, 1)]
    assert parse_remaining_numbers("Remaining numbers: -8/6 3") == [(-4, 3), (3, 1)]


def test_parse_remaining_numbers_errors():
    with pytest.raises(BackendError):
        parse_remaining_numbers("no state here at all")
    with pytest.raises(BackendError):
        parse_remaining_numbers("Remaining numbers: one two")


# ---------------------------------------------------------------------------
# game-of-24 oracles

STATE_PROMPT = "Question: reach 24\nRemaining numbers: 4 9 10 13"


def test_policy_oracle_p1_only_proposes_solvable_steps():
    nums = [(4, 1), (9, 1), (10, 1), (13, 1)]
    correct = {solver24.render_step(s) for s in solver24.correct_steps(nums)}
    oracle = Game24PolicyOracle(p_correct=1.0, seed=3)
    for call_seed in range(20):
        for text in oracle.propose(STATE_PROMPT, 5, call_seed):
            assert text.startswith("combine[") and text.endswith("]")
            assert text[len("combine[") : -1] in correct


def test_policy_oracle_p0_proposes_legal_steps():
    nums = [(4, 1), (9, 1), (10, 1), (13, 1)]
    legal = {solver24.render_step(s) for s in solver24.legal_steps(nums)}
    oracle = Game24PolicyOracle(p_correct=0.0, seed=3)
    seen = set()
    for call_seed in range(30):
        for text in oracle.propose(STATE_PROMPT, 5, call_seed):
            seen.add(text[len("combine[") : -1])
    assert seen <= legal
    assert len(seen) > 1


def test_policy_oracle_is_deterministic_per_seed():
    oracle = Game24PolicyOracle(p_correct=0.3, seed=11)
    first = oracle.propose(STATE_PROMPT, 8, seed=42)
    again = oracle.propose(STATE_PROMPT, 8, seed=42)
    other = oracle.propose(STATE_PROMPT, 8, seed=43)
    assert first == again
    assert first != other


def test_policy_oracle_rejects_terminal_state_and_bad_p():
    oracle = Game24PolicyOracle(p_correct=0.5)
    with pytest.raises(BackendError):
        oracle.propose("Remaining numbers: 24", 1, 0)
    with pytest.raises(ValueError):
        Game24PolicyOracle(p_correct=1.5)


def test_value_oracle_accurate_scores():
    oracle = Game24ValueOracle(accuracy=1.0, seed=5)
    solvable = "Remaining numbers: 4 9 10 13"
    unsolvable = "Remaining numbers: 1 1 1 1"
    for call_seed in range(5):
        assert all(parse_score(t) == 10 for t in oracle.propose(solvable, 2, call_seed))
        assert all(parse_score(t) == 1 for t in oracle.propose(unsolvable, 2, call_seed))
    assert parse_score(oracle.propose("Remaining numbers: 24", 1, 0)[0]) == 10
    assert parse_score(oracle.propose("Remaining numbers: 23", 1, 0)[0]) == 1


def test_value_oracle_inaccurate_scores_stay_in_range():
    oracle = Game24ValueOracle(accuracy=0.0, seed=5)
    scores = [parse_score(t) for t in oracle.propose(STATE_PROMPT, 50, seed=1)]
    assert all(1 <= s <= 10 for s in scores)
    assert len(set(scores)) > 3
    assert oracle.propose(STATE_PROMPT, 50, seed=1) == oracle.propose(STATE_PROMPT, 50, seed=1)
    with pytest.raises(ValueError):
        Game24ValueOracle(accuracy=-0.1)


# ---------------------------------------------------------------------------
# http backend (stub transport, no network)


class StubResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class StubSession:
    """Replays a queue of responses/exceptions and records every post."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, endpoint, json=None, headers=None, timeout=None):
        self.calls.append({"endpoint": endpoint, "body": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def completion_payload(texts):
    return {"choices": [{"message": {"content": t}} for t in texts]}


@pytest.fixture(autouse=True)
def no_retry_backoff(monkeypatch):
    monkeypatch.setattr(backends, "BACKOFF_S", 0.0)


def make_backend(session, **kwargs):
    return HttpChatBackend("http://example.invalid/v1/chat", "test-model", session=session, **kwargs)


def test_http_backend_returns_n_texts():
    session = StubSession([StubResponse(200, completion_payload(["one", "two"]))])
    backend = make_backend(session)
    assert backend.propose("hello", 2, 0) == ["one", "two"]
    body = session.calls[0]["body"]
    assert body["messages"] == [{"role": "user", "content": "hello"}]
    assert body["n"] == 2
    assert body["model"] == "test-model"


def test_http_backend_cache_skips_network(tmp_path):
    session = StubSession(
        [
            StubResponse(200, completion_payload(["cached"])),
            StubResponse(200, completion_payload(["other sample"])),
        ]
    )
    backend = make_backend(session, cache_dir=tmp_path)
    assert backend.propose("p", 1, 0) == ["cached"]
    # a different seed is a different sample: it goes to the server
    assert backend.propose("p", 1, 99) == ["other sample"]
    assert len(session.calls) == 2
    # a repeated (prompt, n, seed) is served from disk
    assert backend.propose("p", 1, 99) == ["other sample"]
    assert len(session.calls) == 2
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".json", ".json"]
    fresh = make_backend(StubSession([]), cache_dir=tmp_path)
    assert fresh.propose("p", 1, 0) == ["cached"]


def test_http_backend_corrupt_cache_file_is_a_miss(tmp_path):
    corrupt = [
        b'{"texts": ["half',  # cut short
        b"\xff\xfe",  # not UTF-8
        b'{"texts": "ab"}',  # a string, not a list of them
        b'{"texts": [null, 3]}',  # not strings
        b'{"texts": ["a", "b"]}',  # not n of them
        b'["a", "b"]',  # no texts key
        b"[" * 100_000,  # nested too deeply for json.loads
    ]
    for content in corrupt:
        session = StubSession([StubResponse(200, completion_payload(["fresh", "more"]))])
        backend = make_backend(session, cache_dir=tmp_path)
        path = backend._cache_path(backend._cache_key("p", 1, 0))
        path.write_bytes(content)
        assert backend.propose("p", 1, 0) == ["fresh"], content
        assert len(session.calls) == 1
        assert json.loads(path.read_text()) == {"texts": ["fresh"]}


def test_http_backend_unreadable_or_unwritable_cache_path_is_a_miss(tmp_path):
    session = StubSession([StubResponse(200, completion_payload(["fresh"]))] * 2)
    backend = make_backend(session, cache_dir=tmp_path)
    path = backend._cache_path(backend._cache_key("p", 1, 0))
    path.mkdir()  # reading it raises IsADirectoryError, and so does renaming onto it
    assert backend.propose("p", 1, 0) == ["fresh"]
    assert backend.propose("p", 1, 0) == ["fresh"]
    assert len(session.calls) == 2
    assert path.is_dir()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file left


@pytest.mark.parametrize("failing", ["mkstemp", "replace"])
def test_http_backend_failed_cache_write_returns_the_texts(tmp_path, monkeypatch, failing):
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tempfile if failing == "mkstemp" else os, failing, full_disk)
    session = StubSession([StubResponse(200, completion_payload(["fresh", "more"]))])
    backend = make_backend(session, cache_dir=tmp_path)
    assert backend.propose("p", 2, 0) == ["fresh", "more"]
    assert len(session.calls) == 1
    assert list(tmp_path.iterdir()) == []


def test_http_backend_null_content_raises_backend_error(tmp_path):
    session = StubSession([StubResponse(200, completion_payload(["one", None]))])
    backend = make_backend(session, cache_dir=tmp_path)
    with pytest.raises(BackendError, match="not a string"):
        backend.propose("p", 2, 0)
    assert len(session.calls) == 1
    assert list(tmp_path.iterdir()) == []  # nothing cached


def test_http_backend_client_error_raises_without_retry():
    session = StubSession([StubResponse(403, text="denied")])
    backend = make_backend(session)
    with pytest.raises(BackendError, match="403"):
        backend.propose("p", 1, 0)
    assert len(session.calls) == 1


def test_http_backend_retries_server_errors_then_fails():
    session = StubSession([StubResponse(500, text="boom")] * 3)
    backend = make_backend(session)
    with pytest.raises(BackendError, match="after 3 attempts"):
        backend.propose("p", 1, 0)
    assert len(session.calls) == 3


def test_http_backend_recovers_after_transport_error():
    session = StubSession(
        [
            requests.ConnectionError("refused"),
            StubResponse(200, completion_payload(["recovered"])),
        ]
    )
    backend = make_backend(session)
    assert backend.propose("p", 1, 0) == ["recovered"]
    assert len(session.calls) == 2


def test_http_backend_non_json_reply_raises_backend_error():
    session = StubSession([StubResponse(200, ValueError("Expecting value"), text="<html>")])
    backend = make_backend(session)
    with pytest.raises(BackendError, match="not JSON"):
        backend.propose("p", 1, 0)
    assert len(session.calls) == 1


def test_http_backend_too_deeply_nested_reply_raises_backend_error():
    reply = requests.Response()
    reply.status_code = 200
    reply._content = b"[" * 100_000  # json.loads raises RecursionError on it
    backend = make_backend(StubSession([reply]))
    with pytest.raises(BackendError, match="not JSON"):
        backend.propose("p", 1, 0)


@pytest.mark.parametrize("key", ["sk-test", None])
def test_http_backend_sends_the_api_key_only_when_set(monkeypatch, key):
    if key is None:
        monkeypatch.delenv("AGENTSEARCH_API_KEY", raising=False)
    else:
        monkeypatch.setenv("AGENTSEARCH_API_KEY", key)
    session = StubSession([StubResponse(200, completion_payload(["one"]))])
    assert make_backend(session).propose("p", 1, 0) == ["one"]
    headers = session.calls[0]["headers"]
    assert headers.get("Authorization") == (f"Bearer {key}" if key else None)
    assert headers["Content-Type"] == "application/json"


def test_http_backend_rejects_short_completions():
    session = StubSession([StubResponse(200, completion_payload(["only one"]))])
    backend = make_backend(session)
    with pytest.raises(BackendError, match="wanted 3"):
        backend.propose("p", 3, 0)
