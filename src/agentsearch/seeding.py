"""Stable seed derivation so every random draw is reproducible from the run seed.

stable_seeds batches the seeds of one node's children, the same integers as
one stable_seed(seed, child id) each, encoding the shared prefix once."""

from __future__ import annotations

import hashlib


def stable_seed(*parts) -> int:
    """Map an arbitrary tuple of parts to a 63-bit integer seed.

    Uses sha256 over the '|'-joined string forms, so the result does not
    depend on interpreter hash randomization or platform word size.
    """
    digest = hashlib.sha256("|".join([str(p) for p in parts]).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def stable_seeds(prefix, lasts) -> list:
    """[stable_seed(prefix, last) for last in lasts], in order."""
    head = (str(prefix) + "|").encode("utf-8")
    sha256, from_bytes = hashlib.sha256, int.from_bytes
    return [
        from_bytes(sha256(head + str(last).encode("utf-8")).digest()[:8], "big") >> 1
        for last in lasts
    ]
