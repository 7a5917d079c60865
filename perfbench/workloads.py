"""Workload definitions: which tasks, backends and configs each one runs.

Every seed below is derived from the workload seed given on the command
line, so one seed fixes every input the engine receives.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from agentsearch.backends import Game24PolicyOracle, Game24ValueOracle, static_backend
from agentsearch.envs import load_task, task_input
from agentsearch.search import VARIANTS, BackendSet, SearchConfig
from agentsearch.templates import load_template_set

from standins import ReferencePolicy, ReferenceValue, distractors, reference_plan

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "agentsearch" / "data"
PUZZLES = DATA / "game24" / "puzzles"

WORKLOADS = ("cpu-mix", "cli-latency")
# Parts per run: each part is one pass over the workload's tasks with its own
# derived seed. Pooling several parts keeps one run's figures from hanging on
# the luck of a single seed.
PARTS = {"cpu-mix": 3, "cli-latency": 8}

N, K = 5, 30
REFLECTION_TEXT = "Retry from a different first step and check each step against the goal."
# cli-latency: the simulated round trip before every backend call.
ROUND_TRIP_S = 0.002
# Chance that a stand-in proposal is the reference step, per kind.
# Chosen so that most tasks need many episodes rather than solving at once.
# Nearly every shop search spends the whole budget, so cpu-mix's p95, which
# falls among its slowest 7.5% of searches (the shop ones), lies inside one
# cluster instead of moving with how many shop searches happen to solve.
COMPETENCE = {"docqa": 0.01, "shop": 0.02, "solution": 0.02}
VALUE_ACCURACY = 0.7
CLI_WORKERS = 1


def derive(seed: int, *parts) -> int:
    """A 63-bit seed from the workload seed and a label."""
    text = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclass
class Job:
    task: object
    backends: BackendSet
    templates: object
    config: SearchConfig


def _task_files(kind: str) -> list:
    sub = PUZZLES if kind == "game24" else DATA / kind / "tasks"
    return sorted(sub.glob("*.json"))


def _game24_jobs(seed, p, accuracy):
    """The 50 puzzles under every variant, one list per variant."""
    templates = load_template_set("game24")
    by_variant = []
    tasks = [load_task(f) for f in _task_files("game24")]
    for variant in VARIANTS:
        config = SearchConfig(variant=variant, n=N, k=K, seed=derive(seed, "engine"))
        jobs = []
        by_variant.append(jobs)
        for task in tasks:
            # Oracle seeds differ per variant, so the variants' outcomes on
            # one puzzle are independent draws.
            backends = BackendSet(
                Game24PolicyOracle(p, derive(seed, "policy", variant, task.task_id)),
                Game24ValueOracle(accuracy, derive(seed, "value", variant, task.task_id)),
                static_backend(REFLECTION_TEXT),
            )
            jobs.append(Job(task, backends, templates, config))
    return by_variant


def _env_jobs(seed):
    """mcts on the shop, docqa and solution tasks with the stand-in
    backends, one list per kind."""
    by_kind = []
    config = SearchConfig(variant="mcts", n=N, k=K, seed=derive(seed, "engine"))
    for kind in ("shop", "docqa", "solution"):
        templates = load_template_set(kind)
        jobs = []
        by_kind.append(jobs)
        for path in _task_files(kind):
            task = load_task(path)
            metadata = json.loads(path.read_text()).get("metadata", {})
            question = task_input(task)
            plan = reference_plan(kind, task.payload, metadata)
            wrong = distractors(kind, task.payload, metadata)
            backends = BackendSet(
                policy=ReferencePolicy(
                    question, plan, wrong, COMPETENCE[kind], derive(seed, "policy", task.task_id)
                ),
                value=ReferenceValue(
                    question, plan, VALUE_ACCURACY, derive(seed, "value", task.task_id)
                ),
                reflection=static_backend(REFLECTION_TEXT),
            )
            jobs.append(Job(task, backends, templates, config))
    return by_kind


def _spread(groups) -> list:
    """Merge job lists so that each is spread evenly over the result: a
    burst of host contention then slows a mix of kinds and variants rather
    than one of them."""
    keyed = [
        ((i + 0.5) / len(group), g, job)
        for g, group in enumerate(groups)
        for i, job in enumerate(group)
    ]
    return [job for _, _, job in sorted(keyed, key=lambda k: k[:2])]


def build_jobs(workload: str, seed: int) -> list:
    """The searches one pass of an in-process workload runs, in order."""
    if workload == "cpu-mix":
        return _spread(_game24_jobs(seed, p=0.1, accuracy=0.6) + _env_jobs(seed))
    raise ValueError(f"unknown in-process workload {workload!r}")


def cli_argv(seed: int, out_dir) -> list:
    """`agentsearch run` arguments for cli-latency: the README's oracle specs
    with seeds derived from the workload seed."""
    return [
        "run",
        str(PUZZLES),
        "--backend", f"oracle:p=0.3,seed={derive(seed, 'cli-policy')}",
        "--value-backend", f"oracle-value:accuracy=0.85,seed={derive(seed, 'cli-value')}",
        "--variant", "mcts",
        "--n", str(N),
        "--k", str(K),
        "--seed", str(derive(seed, "engine")),
        "--out", str(out_dir),
        "--workers", str(CLI_WORKERS),
    ]
