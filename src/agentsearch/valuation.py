"""Child valuation: a scored blend of an LM judgment and sibling agreement.

Every child of a just-expanded node is scored, once:

    combined = lam * lm_score + (1 - lam) * sc_score

where lm_score comes from a value prompt whose completion must end with
"... correctness score is <1..10>" (mapped to [0, 1]), and sc_score is the
frequency of the child's normalized action text among its siblings. The
combined score seeds the child's selection value until the first real
backpropagation replaces it.

Each child's value prompt, its parent's cached block plus its own
step, is built in the calling thread. Once a run's value calls prove slow
they go out together on the run's ValuePool; the scores are still applied
in child order, so the result does not depend on which call returns first.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .actions import ActionSample, normalize_action_text
from .backends import BackendError, PolicyBackend
# assemble_acting_prompt and reconstruct_context are unused here, but
# perfbench/spans.py wraps them by name.
from .prompts import PromptBundle, acting_prompt, assemble_acting_prompt, node_block, render_step
from .seeding import stable_seed
from .tree import SearchTree, reconstruct_context

VALUE_MODES = ("full", "sc_only", "none")

SCORE_RE = re.compile(r"correctness score is\s*(-?)0*(\d+)", re.IGNORECASE)

# A value call taking at least this many seconds marks the run's value calls
# as slow. Handing a call to a pool thread costs about 110 us on a 2-vCPU
# host: an always-on pool added 5.8-6.3 s over the 54,565 value calls of one
# perfbench cpu-mix pass. A call ten times that long is worth overlapping; a
# CPU-bound oracle call, mostly well under it, is not.
SLOW_CALL_S = 0.001


@dataclass(frozen=True)
class ValueScore:
    """Evaluation result for one child.

    combined always equals lam*lm + (1-lam)*sc for the lambda in force at
    evaluation time; sc_only mode stores lm_score=0 and an effective lambda
    of zero, so combined == sc_score there. flagged marks children whose LM
    call failed or never produced a parseable score.
    """

    lm_score: float
    sc_score: float
    combined: float
    flagged: bool = False


def parse_score(text: str) -> Optional[int]:
    """Last "correctness score is <int>" occurrence in a completion, or None."""
    matches = SCORE_RE.findall(text)
    if not matches:
        return None
    sign, digits = matches[-1]
    try:
        return int(sign + digits)
    except ValueError:  # past int()'s 4,300-digit limit; the first 3 clamp alike
        return int(sign + digits[:3])


def lm_score(prompt: str, backend: PolicyBackend, seed: int = 0) -> tuple:
    """Query the value backend once (retrying once on unparseable output).

    Returns (score_in_unit_interval, raw_integer_or_None). Raw scores are
    clamped into [1, 10] before scaling, so an off-scale "12" reads as 10.
    """
    for attempt in range(2):
        texts = backend.propose(prompt, 1, stable_seed(seed, attempt))
        raw = parse_score(texts[0]) if texts else None
        if raw is not None:
            clamped = min(10, max(1, raw))
            return clamped / 10.0, clamped
    return 0.0, None


def sc_scores(siblings: Sequence[ActionSample]) -> list:
    """Each sibling's frequency of its normalized action text in the sibling
    set (the node itself included, so a singleton scores 1.0), in order."""
    normalized = [normalize_action_text(s) for s in siblings]
    counts = Counter(normalized)
    return [counts[text] / len(normalized) for text in normalized]


def combine(lm: float, sc: float, lam: float) -> float:
    if not 0.0 <= lm <= 1.0:
        raise ValueError(f"lm score {lm} outside [0, 1]")
    if not 0.0 <= sc <= 1.0:
        raise ValueError(f"sc score {sc} outside [0, 1]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    return lam * lm + (1.0 - lam) * sc


class ValuePool:
    """One run's concurrent value calls: the "calls are slow" flag and a
    thread pool of at most `workers` threads, started on first use."""

    def __init__(self, workers: int):
        self.workers = workers
        self.slow = False
        self._executor = None

    def submit(self, fn, *args):
        if self._executor is None:
            # Imported here, like requests in backends: a run whose value
            # calls are all fast pays for neither the import nor a thread.
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(self.workers, thread_name_prefix="value")
        return self._executor.submit(fn, *args)

    def close(self) -> None:
        """Stop the threads, dropping calls not yet started."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


def _timed_lm_score(child_id, prompt, backend, seed) -> tuple:
    """(seconds taken, (lm score, raw)) for one child's value query. A
    BackendError reads as an unparseable (0.0, None)."""
    start = time.perf_counter()
    try:
        result = lm_score(prompt, backend, stable_seed(seed, child_id))
    except BackendError:
        result = 0.0, None
    return time.perf_counter() - start, result


def _lm_scores(queries, backend, seed, pool) -> list:
    """(lm score, raw) per (child id, prompt), in order. Children are queried
    one at a time until a call takes SLOW_CALL_S; the rest, and every fresh
    child of later nodes, then go to the pool together, until a pooled
    batch's fastest call is quick again. Without a pool, all run inline."""
    results = []
    futures = []
    for child_id, prompt in queries:
        if pool is not None and pool.slow:
            futures.append(pool.submit(_timed_lm_score, child_id, prompt, backend, seed))
            continue
        elapsed, result = _timed_lm_score(child_id, prompt, backend, seed)
        results.append(result)
        if pool is not None and elapsed >= SLOW_CALL_S:
            pool.slow = True
    if futures:
        timed = [future.result() for future in futures]
        pool.slow = min(elapsed for elapsed, _ in timed) >= SLOW_CALL_S
        results.extend(result for _, result in timed)
    return results


def evaluate_children(
    tree: SearchTree,
    parent_id: int,
    mode: str,
    lam: float,
    bundle: Optional[PromptBundle] = None,
    backend: Optional[PolicyBackend] = None,
    seed: int = 0,
    pool: Optional[ValuePool] = None,
) -> list:
    """Score every child of a just-expanded node, once: set each child's
    value to its combined score and return the (child id, ValueScore) pairs,
    in child order.

    mode "full" blends LM and sibling-agreement scores and "sc_only" uses the
    agreement term alone without any backend call; in mode "none" the engine
    scores nothing and never calls this. A backend failure on one child flags
    that child and evaluation of the rest continues; any other exception
    propagates (the earliest child's, if several raise). With a pool, slow
    value calls run concurrently (see _lm_scores) to the same result.
    """
    if mode not in ("full", "sc_only"):
        raise ValueError(f"no child scoring in value mode {mode!r}")
    children = [tree.node(c) for c in tree.node(parent_id).children]
    if mode == "full":
        if bundle is None or backend is None:
            raise ValueError("full value mode needs a value bundle and backend")
        block = node_block(tree, parent_id)
        queries = []
        for child in children:
            step = render_step(child.depth, child.action, child.observation)
            queries.append((child.id, acting_prompt(bundle, block + "\n" + step, child.depth)))
        lm_results = _lm_scores(queries, backend, seed, pool)
    scored = []
    agreement = sc_scores([child.action for child in children])
    for position, (child, sc) in enumerate(zip(children, agreement)):
        if mode == "sc_only":
            score = ValueScore(lm_score=0.0, sc_score=sc, combined=sc)
        else:
            lm, raw = lm_results[position]
            score = ValueScore(
                lm_score=lm,
                sc_score=sc,
                combined=combine(lm, sc, lam),
                flagged=raw is None,
            )
        child.value = score.combined
        scored.append((child.id, score))
    return scored
