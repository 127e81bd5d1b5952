"""Similarity between term-count vectors.

The default "common-set" mode restricts both the dot product and the
norms to the terms the two vectors share. That is not the standard
cosine: a tweet and a title with exactly one term in common score 1.0
no matter what else either says. It rewards any topical overlap, which
is the behavior the voting step is built around. "full-cosine" is the
textbook formula, kept as an alternative for comparison runs.

Counts are non-negative ints, so every accumulation below is exact
integer arithmetic; results do not depend on term iteration order.
"""

from __future__ import annotations

import math

from .textproc import TermVector

MODE_COMMON_SET = "common-set"
MODE_FULL_COSINE = "full-cosine"
SIM_MODES = (MODE_COMMON_SET, MODE_FULL_COSINE)


def _validate(vec: TermVector, name: str) -> None:
    """Every count is exactly an int (not a bool or other subclass) and
    positive. Runs on every call: cosine is public and this is its one
    input check."""
    for count in vec.values():
        if type(count) is not int or count <= 0:
            term = next(t for t, c in vec.items() if c is count)
            raise ValueError(
                f"{name}[{term!r}] must be a positive int, got {count!r}"
            )


def cosine(a: TermVector, b: TermVector, mode: str = MODE_COMMON_SET) -> float:
    """Similarity in [0, 1]; 0.0 when the vectors share no terms."""
    if mode not in SIM_MODES:
        raise ValueError(f"unknown similarity mode: {mode!r}")
    _validate(a, "a")
    _validate(b, "b")
    shared = a.keys() & b.keys()
    if not shared:
        return 0.0
    dot = norm_a = norm_b = 0
    for term in shared:
        x = a[term]
        y = b[term]
        dot += x * y
        norm_a += x * x
        norm_b += y * y
    if mode == MODE_FULL_COSINE:
        norm_a = sum(c * c for c in a.values())
        norm_b = sum(c * c for c in b.values())
    # norm_a * norm_b is an exact int, so identical or proportional
    # vectors divide out to exactly 1.0 (sqrt of a perfect square is
    # exact); splitting the sqrt would lose a ulp
    value = dot / math.sqrt(norm_a * norm_b)
    return min(1.0, value)
