"""Child valuation: a scored blend of an LM judgment and sibling agreement.

Every child of a just-expanded node is scored, once:

    combined = lam * lm + (1 - lam) * sc

where lm comes from a value prompt whose completion must end with
"... correctness score is <1..10>" (clamped into that range and mapped to
[0.1, 1.0]), and sc is the frequency of the child's normalized action text
among its siblings. Each scored child gets one record, the one the trace's
`evaluate` event holds: its id, lm, sc, combined and flagged. A child whose
value call failed or never parsed is flagged and scores lm = 0. The
combined score seeds the child's selection value until the first real
backpropagation replaces it.

Each child's value prompt (acting style, under the engine's value bundle)
is its parent's cached block plus its own step, built in the calling
thread. Once a run's value calls prove slow they go out together on the
run's ValuePool; the scores are still applied in child order, so the
result does not depend on which call returns first.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from typing import Optional, Sequence

from .actions import ActionSample, normalize_action_text
from .backends import BackendError, PolicyBackend
from .prompts import PromptBundle, assemble_acting_prompt, render_acting_steps, render_step
from .seeding import stable_seed
# reconstruct_context: unused, but perfbench/spans.py wraps it (ROADMAP item 1).
from .tree import SearchTree, reconstruct_context

VALUE_MODES = ("full", "sc_only", "none")

SCORE_RE = re.compile(r"correctness score is\s*(-?)0*(\d+)", re.IGNORECASE)

# A value call taking at least this many seconds marks the run's value calls
# as slow. Handing a call to a pool thread costs about 110 us on a 2-vCPU
# host: an always-on pool added 5.8-6.3 s over the 54,565 value calls of one
# perfbench cpu-mix pass. A call ten times that long is worth overlapping; a
# CPU-bound oracle call, mostly well under it, is not.
SLOW_CALL_S = 0.001


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


def lm_score(prompt: str, backend: PolicyBackend, seed: int = 0) -> Optional[float]:
    """Query the value backend once, retrying once on unparseable output.

    Returns the stated score clamped into [1, 10] and divided by 10, so an
    off-scale "12" reads as 1.0; or None when neither attempt parsed or the
    backend raised BackendError.
    """
    for attempt in range(2):
        try:
            texts = backend.propose(prompt, 1, stable_seed(seed, attempt))
        except BackendError:
            return None
        raw = parse_score(texts[0]) if texts else None
        if raw is not None:
            return min(10, max(1, raw)) / 10.0
    return None


def sc_scores(siblings: Sequence[ActionSample]) -> list:
    """Each sibling's frequency of its normalized action text in the sibling
    set (the node itself included, so a singleton scores 1.0), in order."""
    normalized = [normalize_action_text(s) for s in siblings]
    counts = Counter(normalized)
    return [counts[text] / len(normalized) for text in normalized]


def combine(lm: float, sc: float, lam: float) -> float:
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
    """(seconds taken, lm score or None) for one child's value query."""
    start = time.perf_counter()
    score = lm_score(prompt, backend, stable_seed(seed, child_id))
    return time.perf_counter() - start, score


def _lm_scores(queries, backend, seed, pool) -> list:
    """lm score or None per (child id, prompt), in order. Children are queried
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
    value to its combined score and return the children's value records,
    in child order.

    mode "full" blends LM and sibling-agreement scores. "sc_only" makes no
    backend call: each child scores lm = 0 and combined = sc, unflagged. In
    mode "none" the engine scores nothing and never calls this. A backend
    failure on one child flags that child and evaluation of the rest
    continues; any other exception propagates (the earliest child's, if
    several raise). With a pool, slow value calls run concurrently (see
    _lm_scores) to the same result.
    """
    if mode not in ("full", "sc_only"):
        raise ValueError(f"no child scoring in value mode {mode!r}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    children = [tree.node(c) for c in tree.node(parent_id).children]
    if mode == "full":
        if bundle is None or backend is None:
            raise ValueError("full value mode needs a value bundle and backend")
        block = render_acting_steps(tree, parent_id)
        queries = []
        for child in children:
            text = block + "\n" + render_step(child.depth, child.action, child.observation)
            queries.append((child.id, assemble_acting_prompt(bundle, text, child.depth)))
        lm_results = _lm_scores(queries, backend, seed, pool)
    else:
        lm_results = [0.0] * len(children)
    records = []
    agreement = sc_scores([child.action for child in children])
    for child, lm, sc in zip(children, lm_results, agreement):
        flagged = lm is None
        lm = 0.0 if flagged else lm
        # sc_only keeps sc itself: 0*lam + (1-lam)*sc is another float.
        child.value = sc if mode == "sc_only" else combine(lm, sc, lam)
        records.append(
            {"id": child.id, "lm": lm, "sc": sc, "combined": child.value, "flagged": flagged}
        )
    return records
