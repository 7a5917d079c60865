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
thread once per distinct (action, observation) among the siblings; each
child still makes its own value call, with its own seed. Without a
ValuePool every value call runs inline, in child order. A caller that
wants them overlapped opens one and carries it in BackendSet.value_pool;
once value calls prove slow they go out together on it. The scores are
still applied in child order, so the result does not depend on which call
returns first, where it ran, or which run learned that calls are slow.
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

# The ten lm scores, made once: every record holding a score shares its float.
LM_SCORES = tuple(i / 10.0 for i in range(1, 11))


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
            return LM_SCORES[min(10, max(1, raw)) - 1]
    return None


def sc_scores(siblings: Sequence[ActionSample]) -> list:
    """Each sibling's frequency of its normalized action text in the sibling
    set (the node itself included, so a singleton scores 1.0), in order."""
    distinct = {s: normalize_action_text(s) for s in set(siblings)}
    normalized = [distinct[s] for s in siblings]
    counts = Counter(normalized)
    shares = {count: count / len(normalized) for count in set(counts.values())}
    return [shares[counts[text]] for text in normalized]


def combine(lm: float, sc: float, lam: float) -> float:
    return lam * lm + (1.0 - lam) * sc


class ValuePool:
    """Concurrent value calls: the "calls are slow" flag and a thread pool of
    at most `workers` threads, each started by a submit that finds none idle.

    Runs borrow it through BackendSet.value_pool; several runs, on several
    threads, may share it. The flag only decides where a call runs, never
    its result. The pool's owner closes it."""

    def __init__(self, workers: int):
        # Imported here, like requests in backends: a search that is given
        # no pool pays for neither the import nor a thread.
        from concurrent.futures import ThreadPoolExecutor

        self.slow = False
        self._executor = ThreadPoolExecutor(workers, thread_name_prefix="value")

    def submit(self, fn, *args):
        return self._executor.submit(fn, *args)

    def close(self) -> None:
        """Stop the threads, dropping calls not yet started. A later submit
        raises RuntimeError."""
        self._executor.shutdown(wait=True, cancel_futures=True)


def _timed_lm_score(child_id, prompt, backend, seed) -> tuple:
    """(seconds taken, lm score or None) for one child's value query."""
    start = time.perf_counter()
    score = lm_score(prompt, backend, stable_seed(seed, child_id))
    return time.perf_counter() - start, score


def _lm_scores(queries, backend, seed, pool) -> list:
    """lm score or None per (child id, prompt), in order. Without a pool,
    each is queried inline. With one, children are queried one at a time
    until a call takes SLOW_CALL_S or the pool is marked slow; the rest,
    and every fresh child of later nodes, then go to the pool together,
    until a pooled batch's fastest call is quick again. Every pooled call
    has ended before this returns or raises."""
    if pool is None:
        return [
            lm_score(prompt, backend, stable_seed(seed, child_id)) for child_id, prompt in queries
        ]
    results = []
    futures = []
    try:
        for child_id, prompt in queries:
            if futures or pool.slow:
                futures.append(pool.submit(_timed_lm_score, child_id, prompt, backend, seed))
                continue
            elapsed, result = _timed_lm_score(child_id, prompt, backend, seed)
            results.append(result)
            if elapsed >= SLOW_CALL_S:
                pool.slow = True
    finally:
        if futures:
            from concurrent.futures import wait  # loaded with the pool

            wait(futures)
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
    _lm_scores) to the same result; without one, all run inline.
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
        prompts = {}
        queries = []
        for child in children:
            step = child.action, child.observation
            if step not in prompts:
                text = block + "\n" + render_step(child.depth, *step)
                prompts[step] = assemble_acting_prompt(bundle, text, child.depth)
            queries.append((child.id, prompts[step]))
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
