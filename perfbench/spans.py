"""Span tracing for the traced run, installed from outside the program.

Spans are recorded by wrapping the engine's public entry points and the
module-level names that agentsearch.search, .valuation, .reflection,
.backends and .cli import. Nothing under src/ changes. A span is
[name, parent index, start, end]; each thread keeps its own list and stack,
so parent links stay correct under the cli --workers thread pool. Spans stay
in memory and are written out once the pass ends.

A span's layer is the part of its name before the first dot; layers are
named after the agentsearch modules.
"""

from __future__ import annotations

import json
import threading
import types
from collections import Counter, defaultdict
from time import perf_counter

import agentsearch.backends
import agentsearch.cli
import agentsearch.reflection
import agentsearch.search
import agentsearch.valuation
from agentsearch import solver24
from agentsearch.envs import make_env
from agentsearch.report import RunReport
from agentsearch.search import ROLES, BackendSet
from agentsearch.trace import TraceWriter


class _ThreadState:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()


class Recorder:
    """In-memory span and counter store with one state per thread."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._seen = set()

    def state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def count(self, key: str, amount=1) -> None:
        self.state().counts[key] += amount

    def seen_before(self, key) -> bool:
        """Whether key was passed here earlier in this pass."""
        with self._lock:
            repeat = key in self._seen
            self._seen.add(key)
        return repeat

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            st = self.state()
            span = [name, st.stack[-1] if st.stack else -1, perf_counter(), 0.0]
            st.stack.append(len(st.spans))
            st.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                st.stack.pop()

        return traced

    def counts(self) -> Counter:
        total = Counter()
        for st in self._states:
            total.update(st.counts)
        return total

    def self_times(self) -> tuple:
        """Per span name: (calls, total self seconds, total seconds), and
        the self seconds summed per thread."""
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        per_thread = []
        for st in self._states:
            child_time = [0.0] * len(st.spans)
            for name, parent, start, end in st.spans:
                if parent >= 0:
                    child_time[parent] += end - start
            thread_self = 0.0
            for (name, _parent, start, end), inner in zip(st.spans, child_time):
                entry = by_name[name]
                entry[0] += 1
                entry[1] += (end - start) - inner
                entry[2] += end - start
                thread_self += (end - start) - inner
            per_thread.append(thread_self)
        return dict(by_name), per_thread

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for thread, st in enumerate(self._states):
                for index, (name, parent, start, end) in enumerate(st.spans):
                    fh.write(json.dumps([thread, index, parent, name, start, end]) + "\n")


class TracedEnv:
    """Environment proxy whose reset/step/restore/snapshot are spans."""

    def __init__(self, env, rec: Recorder):
        self._rec = rec
        self.kind = env.kind
        self.grammar = env.grammar
        self.reset = rec.wrap("envs.reset", env.reset)
        self.step = rec.wrap("envs.step", env.step)
        self.restore = rec.wrap("envs.restore", env.restore)
        self._snapshot = rec.wrap("envs.snapshot", env.snapshot)

    def snapshot(self):
        snap = self._snapshot()
        self._rec.count("envs.snapshot.bytes", len(snap.token.encode("utf-8")))
        return snap


class _RoleBackend:
    """Backend wrapper that times one engine role and counts its prompts."""

    def __init__(self, inner, role: str, rec: Recorder):
        self.inner = inner
        self.role = role
        self.rec = rec
        self._propose = rec.wrap(f"backends.{role}", inner.propose)

    def propose(self, prompt: str, n: int, seed: int) -> list:
        self.rec.count("prompts.chars", len(prompt))
        self.rec.count(f"backends.{self.role}.proposals", n)
        texts = self._propose(prompt, n, seed)
        if self.role == "policy":
            self.rec.count("backends.policy.duplicates", len(texts) - len(set(texts)))
        return texts


def role_backends(rec: Recorder, policy, value=None, reflection=None) -> BackendSet:
    """A BackendSet whose three roles are timed separately; value and
    reflection fall back to the policy backend as in the engine."""
    return BackendSet(
        policy=_RoleBackend(policy, "policy", rec),
        value=_RoleBackend(value if value is not None else policy, "value", rec),
        reflection=_RoleBackend(
            reflection if reflection is not None else policy, "reflection", rec
        ),
    )


def traced_trace_writer(rec: Recorder):
    class TracedTraceWriter(TraceWriter):
        emit = rec.wrap("trace.emit", TraceWriter.emit)
        prompt_field = rec.wrap("trace.prompt_field", TraceWriter.prompt_field)

    return TracedTraceWriter


def _solver_proxy(rec: Recorder):
    """Stand-in for the solver24 module as agentsearch.backends sees it:
    the oracle's solver calls become spans, and each call records whether
    its number state was already seen in this pass."""

    def wrap(name):
        fn = getattr(solver24, name)
        timed = rec.wrap(f"solver24.{name}", fn)

        def call(nums, *args):
            rec.count("solver24.repeats", int(rec.seen_before((name, solver24.canon(nums)))))
            return timed(nums, *args)

        return call

    proxy = types.SimpleNamespace(**vars(solver24))
    for name in ("legal_steps", "correct_steps", "solvable"):
        setattr(proxy, name, wrap(name))
    return proxy


def install(rec: Recorder) -> tuple:
    """Patch the module-level names the engine and cli use. Returns the
    run_search and TraceWriter the benchmark itself should call."""
    search = agentsearch.search
    patches = {
        search: {
            "select_path": "tree.select_path",
            "add_children": "tree.add_children",
            "backpropagate": "tree.backpropagate",
            "mark_unexpandable": "tree.mark_unexpandable",
            "reconstruct_context": "tree.reconstruct_context",
            "assemble_prompt": "prompts.assemble_prompt",
            "render_acting_steps": "prompts.render_acting_steps",
            "parse_action": "actions.parse_action",
            "evaluate_children": "valuation.evaluate_children",
            "generate_reflection": "reflection.generate_reflection",
            "inject": "reflection.inject",
            "stable_seed": "seeding.stable_seed",
        },
        agentsearch.valuation: {
            "reconstruct_context": "tree.reconstruct_context",
            "assemble_acting_prompt": "prompts.assemble_acting_prompt",
            "stable_seed": "seeding.stable_seed",
        },
        agentsearch.reflection: {
            "assemble_reflection_prompt": "prompts.assemble_reflection_prompt"
        },
        agentsearch.backends: {"stable_seed": "seeding.stable_seed"},
        agentsearch.cli: {
            "write_trace": "cli.write_trace",
            "tree_to_jsonl": "cli.tree_to_jsonl",
        },
    }
    for module, names in patches.items():
        for attr, span in names.items():
            setattr(module, attr, rec.wrap(span, getattr(module, attr)))
    agentsearch.backends.solver24 = _solver_proxy(rec)

    writer_cls = traced_trace_writer(rec)
    plain_run_search = search.run_search
    timed_search = rec.wrap("search.run_search", plain_run_search)

    def run_search(
        task, backends, templates, config=None, trace=None, reflection_store=None, env=None
    ):
        env = env if env is not None else TracedEnv(make_env(task.kind), rec)
        return timed_search(task, backends, templates, config, trace, reflection_store, env)

    class TracedReport(RunReport):
        write_json = rec.wrap("cli.write_report", RunReport.write_json)
        write_csv = rec.wrap("cli.write_report", RunReport.write_csv)

    agentsearch.cli.run_search = run_search
    agentsearch.cli.TraceWriter = writer_cls
    agentsearch.cli.BackendSet = lambda policy, value=None, reflection=None: role_backends(
        rec, policy, value, reflection
    )
    agentsearch.cli.RunReport = TracedReport
    return run_search, writer_cls


def layer_metrics(rec: Recorder, tally: dict, wait_s: float, wall_s: float) -> tuple:
    """The per-layer metrics of one traced pass, and whether every thread's
    self times sum to no more than the pass's wall time."""
    events_stats = tally["events"]
    by_name, per_thread = rec.self_times()
    counts = rec.counts()

    def calls(prefix):
        return sum(v[0] for k, v in by_name.items() if k == prefix or k.startswith(prefix + "."))

    def self_s(prefix):
        return sum(v[1] for k, v in by_name.items() if k == prefix or k.startswith(prefix + "."))

    def total_s(name):
        return by_name.get(name, [0, 0.0, 0.0])[2]

    policy_props = counts["backends.policy.proposals"]
    solver_calls = calls("solver24")
    out = {
        "search.self_s": self_s("search"),
        "search.episodes": tally["episodes"],
        "search.expansions": tally["expansions"],
        "tree.calls": calls("tree"),
        "tree.self_s": self_s("tree"),
        "tree.select_path.self_s": self_s("tree.select_path"),
        "tree.reconstruct_context.calls": calls("tree.reconstruct_context"),
        "tree.reconstruct_context.self_s": self_s("tree.reconstruct_context"),
        "prompts.calls": calls("prompts"),
        "prompts.self_s": self_s("prompts"),
        "prompts.chars": counts["prompts.chars"],
        "actions.calls": calls("actions"),
        "actions.self_s": self_s("actions"),
        "actions.invalid_frac": _frac(events_stats["invalid"], events_stats["children"]),
        "envs.step.calls": calls("envs.step"),
        "envs.restore.calls": calls("envs.restore"),
        "envs.snapshot.calls": calls("envs.snapshot"),
        "envs.self_s": self_s("envs"),
        "envs.snapshot.bytes": counts["envs.snapshot.bytes"],
        "valuation.calls": calls("valuation"),
        "valuation.self_s": self_s("valuation"),
        "valuation.flagged_frac": _frac(events_stats["flagged"], events_stats["scores"]),
    }
    for role in ROLES:
        out[f"backends.{role}.calls"] = calls(f"backends.{role}")
        out[f"backends.{role}.proposals"] = counts[f"backends.{role}.proposals"]
        out[f"backends.{role}.busy_s"] = total_s(f"backends.{role}")
    out.update(
        {
            "backends.wait_s": wait_s,
            "backends.dup_sibling_frac": _frac(counts["backends.policy.duplicates"], policy_props),
            "solver24.calls": solver_calls,
            "solver24.self_s": self_s("solver24"),
            "solver24.repeat_state_frac": _frac(counts["solver24.repeats"], solver_calls),
            "seeding.calls": calls("seeding"),
            "seeding.self_s": self_s("seeding"),
            "trace.events": events_stats["events"],
            "trace.self_s": self_s("trace"),
            "trace.bytes": events_stats["bytes"],
            "reflection.calls": calls("reflection"),
            "reflection.self_s": self_s("reflection"),
            "cli.write_s": self_s("cli"),
        }
    )
    return out, max(per_thread, default=0.0) <= wall_s


def _frac(part, whole) -> float:
    return part / whole if whole else 0.0
