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
child still makes its own value call, with its own seed. A caller that
wants the calls overlapped carries a pool.ThreadPool in BackendSet.value_pool,
and every value call of a backend that does not declare `inline` goes to
it; all other value calls run inline, in child order. The scores are
applied in child order either way, so the result does not depend on which
call returns first or where it ran.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import TYPE_CHECKING, Optional, Sequence

from .actions import ActionSample, normalize_action_text
from .backends import BackendError, PolicyBackend
from .prompts import PromptBundle, assemble_acting_prompt, render_acting_steps, render_step
from .seeding import stable_seed
# reconstruct_context: unused, but perfbench/spans.py wraps it (ROADMAP item 1).
from .tree import SearchTree, reconstruct_context

if TYPE_CHECKING:  # loaded at run time only by a caller that opens a pool
    from .pool import ThreadPool

VALUE_MODES = ("full", "sc_only", "none")

SCORE_RE = re.compile(r"correctness score is\s*(-?)0*(\d+)", re.IGNORECASE)

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


def evaluate_children(
    tree: SearchTree,
    parent_id: int,
    mode: str,
    lam: float,
    bundle: Optional[PromptBundle] = None,
    backend: Optional[PolicyBackend] = None,
    seed: int = 0,
    pool: Optional[ThreadPool] = None,
) -> list:
    """Score every child of a just-expanded node, once: set each child's
    value to its combined score and return the children's value records,
    in child order.

    mode "full" blends LM and sibling-agreement scores. "sc_only" makes no
    backend call: each child scores lm = 0 and combined = sc, unflagged. In
    mode "none" the engine scores nothing and never calls this. A backend
    failure on one child flags that child and evaluation of the rest
    continues; any other exception propagates (the earliest child's, if
    several raise). With a pool (a ThreadPool), the value calls run
    concurrently on it to the same result; without one, all run inline.
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
        for child in children:
            step = child.action, child.observation
            if step not in prompts:
                text = block + "\n" + render_step(child.depth, *step)
                prompts[step] = assemble_acting_prompt(bundle, text, child.depth)
        texts = [prompts[child.action, child.observation] for child in children]
        seeds = [stable_seed(seed, child.id) for child in children]
        calls = lm_score, texts, [backend] * len(children), seeds
        lm_results = list(map(*calls)) if pool is None else pool.map(*calls)
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
