"""Host-speed calibration.

Host speed on a shared machine drifts by up to 2x over tens of seconds,
and pure-Python work slows with it: back-to-back runs of the same
pipeline differ by 20-40% in wall time. The benchmark therefore brackets
every pipeline repetition with calibration blocks that time this fixed,
stdlib-only workload, shaped like the pipeline's inner loops (split
text, strip suffixes with a vowel-consonant measure, count terms, score
term overlap between vector pairs), and scales the repetition's times
to the reference speed:

    scaled seconds = measured seconds x REF_UNIT_S / unit_s

where unit_s is the mean calibration-unit time of the blocks before and
after the repetition. The factor is the same for every stage of a
repetition, so ratios between stages, runs and commits are kept while
the drift largely cancels. This file is part of the benchmark, never of
the program under test, so a change to ctvm cannot move the reference.
"""

from __future__ import annotations

import time

# One unit takes about this long on a quiet 2-core Xeon host
# (Python 3.11); scaled seconds are seconds at that speed.
REF_UNIT_S = 0.003
BLOCK_S = 0.2

_VOWELS = frozenset("aeiou")
_SUFFIXES = (
    ("ational", "ate"), ("tional", "tion"), ("izer", "ize"), ("ness", ""),
    ("ing", ""), ("ed", ""), ("es", "e"), ("s", ""), ("e", ""), ("a", ""),
    ("o", ""),
)
_TEXTS = [
    " ".join(
        "".join(
            "bdfgklmnprstvz"[(i * 31 + j * 7 + k * 3) % 14] + "aeiou"[(i + j * k) % 5]
            for k in range(3 + (i + j) % 2)
        )
        for j in range(9)
    )
    for i in range(120)
]


def _measure(word: str) -> int:
    m, prev_vowel = 0, False
    for ch in word:
        if ch in _VOWELS:
            prev_vowel = True
        else:
            m += prev_vowel
            prev_vowel = False
    return m


def _unit() -> float:
    vectors = []
    for text in _TEXTS:
        counts: dict[str, int] = {}
        for token in text.split():
            for suffix, replacement in _SUFFIXES:
                if token.endswith(suffix) and _measure(token[: -len(suffix)]) > 0:
                    token = token[: -len(suffix)] + replacement
                    break
            counts[token] = counts.get(token, 0) + 1
        vectors.append(counts)
    total = 0.0
    for a in vectors[:20]:
        for b in vectors[:40]:
            shared = a.keys() & b.keys()
            if shared:
                dot = sum(a[t] * b[t] for t in shared)
                norms = sum(a[t] ** 2 for t in shared) * sum(b[t] ** 2 for t in shared)
                total += dot / norms**0.5
    return total


def block() -> float:
    """Run units for BLOCK_S seconds; return mean seconds per unit."""
    units = 0
    start = time.perf_counter()
    while True:
        _unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= BLOCK_S:
            return elapsed / units
