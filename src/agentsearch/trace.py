"""Structured JSONL traces of a search run, and replay verification.

Every engine operation appends one event. Events are dictionaries with a
monotonically increasing ``seq`` and a ``type`` drawn from:

    run_start, episode_start, select, expand, evaluate, simulate_step,
    backprop, prune, reflect, episode_end, terminate

Runs on the same task with the same config and deterministic backends must
produce byte-identical trace files, so events never carry timestamps and all
serialization is key-sorted. Prompts are logged as sha256 digests unless the
writer is told to keep full text.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable


def encode(record: dict) -> str:
    """The canonical one-line JSON form of a record: sorted keys, no spaces.
    Traces, tree dumps, reflection logs and snapshot tokens all use it."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def decode(text: str):
    """json.loads, but input nested too deeply to parse is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def jsonl(records: Iterable[dict]) -> str:
    """One encoded record per line, each ending in a newline."""
    return "".join(encode(r) + "\n" for r in records)


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class TraceWriter:
    """Collects events in order."""

    def __init__(self, log_prompts: bool = False):
        self.events: list = []
        self.log_prompts = log_prompts

    def emit(self, type_: str, **payload) -> dict:
        event = {"seq": len(self.events), "type": type_}
        event.update(payload)
        self.events.append(event)
        return event

    def prompt_field(self, prompt: str) -> str:
        if self.log_prompts:
            return prompt
        return prompt_digest(prompt)

    def to_jsonl(self) -> str:
        return jsonl(self.events)


def write_trace(events: Iterable[dict], path) -> None:
    with open(path, "w") as fh:
        fh.write(jsonl(events))


def read_trace(path) -> list:
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(decode(line))
    return events


class ReplayError(ValueError):
    pass


def replay_trace(events) -> dict:
    """Rebuild the search tree implied by a trace and check its accounting.

    Expansion events create nodes, evaluation events seed values, and
    backprop events replay the running-mean update. A node is scored at
    most once, and never after a backprop has reached it. The final per-node
    value/visit statistics carried by the terminate event must agree with
    the reconstruction: visits exactly, values within 1e-9. A malformed
    event (not an object, a missing field, a field of the wrong type) is a
    ReplayError too.

    Returns summary statistics of the verified trace.
    """
    try:
        return _replay(events)
    except (KeyError, TypeError) as exc:
        raise ReplayError(f"malformed trace: {type(exc).__name__}: {exc}") from exc


def _replay(events) -> dict:
    values: dict = {}
    visits: dict = {}
    scored = set()
    expected_seq = 0
    terminate = None
    for event in events:
        if not isinstance(event, dict):
            raise ReplayError(f"trace event {expected_seq} is not an object: {event!r}")
        if event.get("seq") != expected_seq:
            raise ReplayError(
                f"trace sequence broken: expected {expected_seq}, got {event.get('seq')}"
            )
        expected_seq += 1
        etype = event.get("type")
        if etype == "run_start":
            values[0] = 0.0
            visits[0] = 0
        elif etype == "expand":
            for child in event["children"]:
                cid = child["id"]
                if cid in values:
                    raise ReplayError(f"node {cid} created twice")
                values[cid] = 0.0
                visits[cid] = 0
        elif etype == "evaluate":
            for entry in event["scores"]:
                cid = entry["id"]
                if cid not in values:
                    raise ReplayError(f"evaluate before creation of node {cid}")
                if cid in scored or visits[cid]:
                    raise ReplayError(f"node {cid} scored twice or after a backprop")
                scored.add(cid)
                values[cid] = entry["combined"]
        elif etype == "backprop":
            reward = event["reward"]
            for nid in event["path"]:
                if nid not in values:
                    raise ReplayError(f"backprop through unknown node {nid}")
                n = visits[nid] + 1
                visits[nid] = n
                if n == 1:
                    values[nid] = reward
                else:
                    values[nid] = (values[nid] * (n - 1) + reward) / n
        elif etype == "terminate":
            terminate = event
    if terminate is None:
        raise ReplayError("trace has no terminate event")

    stats = terminate.get("node_stats")
    if stats is None:
        raise ReplayError("terminate event carries no node_stats")
    if len(stats) != len(values):
        raise ReplayError(
            f"trace created {len(values)} nodes but terminate reports {len(stats)}"
        )
    for entry in stats:
        nid = entry["id"]
        if nid not in values:
            raise ReplayError(f"terminate reports unknown node {nid}")
        if entry["visits"] != visits[nid]:
            raise ReplayError(
                f"node {nid}: visits {entry['visits']} != replayed {visits[nid]}"
            )
        if not math.isclose(entry["value"], values[nid], rel_tol=0.0, abs_tol=1e-9):
            raise ReplayError(
                f"node {nid}: value {entry['value']} != replayed {values[nid]}"
            )
    return {
        "nodes": len(values),
        "backprops": sum(1 for e in events if e.get("type") == "backprop"),
        "episodes": sum(1 for e in events if e.get("type") == "episode_start"),
        "success": bool(terminate.get("success")),
    }
