"""Structured JSONL traces of a search run, and replay verification.

Every engine operation appends one event. Events are dictionaries with a
monotonically increasing ``seq`` and a ``type`` drawn from:

    run_start, episode_start, select, expand, evaluate, simulate_step,
    backprop, prune, reflect, episode_end, terminate

Runs on the same task with the same config and deterministic backends must
produce byte-identical trace files, so events never carry timestamps and all
serialization is key-sorted. Prompts are logged as sha256 digests unless the
writer is told to keep full text. Events are encoded after the search, as doing
it at `emit` slows it, by `jsonl` in little more memory than the text (see there).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Optional

# The canonical one-line JSON form of a record (sorted keys, no spaces) for traces,
# tree dumps, reflection logs and snapshot tokens: one encoder, not one per record.
encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# Lists longer than this are encoded this many items at a time (jsonl). At 4 the
# first cpu-mix shop trace took 31 ms, not 19 (2-vCPU host): small lists split too.
LONG_LIST = 64


def decode(text: str):
    """json.loads, but input nested too deeply to parse is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def jsonl(records: Iterable[dict]) -> str:
    """One encoded record per line, each ending in a newline. The text grows in
    place (CPython's `+=` on a sole reference), and a list longer than LONG_LIST
    is encoded LONG_LIST items at a time: the C encoder keeps a string per token."""
    text = ""
    for record in records:
        for v in record.values():
            if type(v) is list and len(v) > LONG_LIST and all(isinstance(k, str) for k in record):
                break
        else:  # no long list, or a key that JSON, but not encode(k), turns into a string
            text += encode(record) + "\n"
            continue
        for i, (key, items) in enumerate(sorted(record.items())):
            text += ("," if i else "{") + encode(key) + ":"
            if type(items) is not list or len(items) <= LONG_LIST:
                text += encode(items)
                continue
            for j in range(0, len(items), LONG_LIST):
                text += ("," if j else "[") + encode(items[j : j + LONG_LIST])[1:-1]
            text += "]"
        text += "}\n"
    return text


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class TraceWriter:
    """Collects events in order."""

    def __init__(self, log_prompts: bool = False):
        self.events: list = []
        self.log_prompts = log_prompts

    def emit(self, type_: str, **payload) -> dict:
        event = {"seq": len(self.events), "type": type_, **payload}
        self.events.append(event)
        return event

    def prompt_field(self, prompt: str) -> str:
        if self.log_prompts:
            return prompt
        return prompt_digest(prompt)

    def to_jsonl(self) -> str:
        return jsonl(self.events)


def write_whole(files: dict) -> None:
    """Write each path's text in UTF-8 (None removes the path) as one set:
    all into owner-only temp files beside their paths, then each renamed
    over its path. A failure raises OSError and removes the temp files; once
    a rename has happened it removes every path too, so no set mixes two."""
    staged = {}
    renamed = False
    try:
        for path, text in files.items():
            if text is not None:
                fd, staged[path] = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
                with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
        for path, text in files.items():
            if text is None:
                Path(path).unlink(missing_ok=True)
            else:
                os.replace(staged[path], path)
                del staged[path]
            renamed = True
    except BaseException:
        for path in [*staged.values(), *(files if renamed else ())]:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def write_trace(events: Iterable[dict], path, others: Optional[dict] = None) -> None:
    """Write a trace, and with it the others' texts, as one set (write_whole)."""
    write_whole({path: jsonl(events), **(others or {})})


def read_trace(path) -> list:
    events = []
    with open(path, encoding="utf-8") as fh:
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
    most once, and never after a backprop has reached it. The terminate
    event's node_stats must list each created node once, with the value and
    visits of the reconstruction: visits exactly, values within 1e-9. A
    malformed event (not an object, a missing field, a field of the wrong
    type) is a ReplayError too.

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
    reported = set()
    for entry in stats:
        nid = entry["id"]
        if nid not in values:
            raise ReplayError(f"terminate reports unknown node {nid}")
        if nid in reported:
            raise ReplayError(f"terminate reports node {nid} twice")
        reported.add(nid)
        if entry["visits"] != visits[nid]:
            raise ReplayError(
                f"node {nid}: visits {entry['visits']} != replayed {visits[nid]}"
            )
        if not math.isclose(entry["value"], values[nid], rel_tol=0.0, abs_tol=1e-9):
            raise ReplayError(
                f"node {nid}: value {entry['value']} != replayed {values[nid]}"
            )
    if len(reported) != len(values):
        raise ReplayError(
            f"trace created {len(values)} nodes but terminate reports {len(reported)}:"
            f" node {min(values.keys() - reported)} is missing"
        )
    return {
        "nodes": len(values),
        "backprops": sum(1 for e in events if e.get("type") == "backprop"),
        "episodes": sum(1 for e in events if e.get("type") == "episode_start"),
        "success": bool(terminate.get("success")),
    }
