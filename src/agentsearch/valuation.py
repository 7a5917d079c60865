"""Child valuation: a scored blend of an LM judgment and sibling agreement.

Each freshly expanded child gets

    combined = lam * lm_score + (1 - lam) * sc_score

where lm_score comes from a value prompt whose completion must end with
"... correctness score is <1..10>" (mapped to [0, 1]), and sc_score is the
frequency of the child's normalized action text among its siblings. The
combined score seeds the child's selection value until the first real
backpropagation replaces it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .actions import ActionSample, normalize_action_text
from .backends import BackendError, PolicyBackend
from .prompts import PromptBundle, assemble_acting_prompt
from .seeding import stable_seed
from .tree import SearchTree, reconstruct_context

VALUE_MODES = ("full", "sc_only", "none")

SCORE_RE = re.compile(r"correctness score is\s*(-?\d+)", re.IGNORECASE)


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
    return int(matches[-1])


def lm_score(
    ctx,
    bundle: PromptBundle,
    backend: PolicyBackend,
    seed: int = 0,
) -> tuple:
    """Query the value backend once (retrying once on unparseable output).

    Returns (score_in_unit_interval, raw_integer_or_None). Raw scores are
    clamped into [1, 10] before scaling, so an off-scale "12" reads as 10.
    """
    prompt = assemble_acting_prompt(bundle, ctx)
    for attempt in range(2):
        texts = backend.propose(prompt, 1, stable_seed(seed, attempt))
        raw = parse_score(texts[0]) if texts else None
        if raw is not None:
            clamped = min(10, max(1, raw))
            return clamped / 10.0, clamped
    return 0.0, None


def sc_score(siblings: Sequence[ActionSample], index: int) -> float:
    """Frequency of siblings[index]'s normalized action text in the sibling
    set (the node itself included, so a singleton scores 1.0)."""
    if not 0 <= index < len(siblings):
        raise IndexError("sibling index out of range")
    normalized = [normalize_action_text(s) for s in siblings]
    return normalized.count(normalized[index]) / len(normalized)


def combine(lm: float, sc: float, lam: float) -> float:
    if not 0.0 <= lm <= 1.0:
        raise ValueError(f"lm score {lm} outside [0, 1]")
    if not 0.0 <= sc <= 1.0:
        raise ValueError(f"sc score {sc} outside [0, 1]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    return lam * lm + (1.0 - lam) * sc


def evaluate_children(
    tree: SearchTree,
    parent_id: int,
    mode: str,
    lam: float,
    bundle: Optional[PromptBundle] = None,
    backend: Optional[PolicyBackend] = None,
    seed: int = 0,
) -> list:
    """Score every not yet scored child of parent_id in place and return
    the (child id, ValueScore) pairs scored, in child order.

    mode "full" blends LM and sibling-agreement scores, "sc_only" uses the
    agreement term alone without any backend call, and "none" leaves the
    children untouched (values stay 0, no calls). A backend failure on one
    child flags that child and evaluation of the rest continues.
    """
    if mode not in VALUE_MODES:
        raise ValueError(f"unknown value mode {mode!r}")
    scored = []
    if mode == "none":
        return scored
    parent = tree.node(parent_id)
    siblings = [tree.node(c).action for c in parent.children]
    for index, child_id in enumerate(parent.children):
        child = tree.node(child_id)
        if child.eval_score is not None:
            continue
        sc = sc_score(siblings, index)
        if mode == "sc_only":
            score = ValueScore(lm_score=0.0, sc_score=sc, combined=sc)
        else:
            if bundle is None or backend is None:
                raise ValueError("full value mode needs a value bundle and backend")
            ctx = reconstruct_context(tree, child_id)
            try:
                lm, raw = lm_score(ctx, bundle, backend, stable_seed(seed, child_id))
            except BackendError:
                lm, raw = 0.0, None
            score = ValueScore(
                lm_score=lm,
                sc_score=sc,
                combined=combine(lm, sc, lam),
                flagged=raw is None,
            )
        child.eval_score = score
        if child.visits == 0:
            child.value = score.combined
        scored.append((child_id, score))
    return scored
