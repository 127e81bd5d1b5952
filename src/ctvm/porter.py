"""Porter suffix-stripping stemmer, original 1980 rule set.

This is a deliberate re-implementation of the rules exactly as published:
no minimum-length guard, ABLI maps to ABLE, and there is no LOGI rule.
Several later variants (including the widely-copied C version) add those
departures; we avoid them so that stems are reproducible from the printed
rule tables alone.

Within a step the longest matching suffix wins, and if its condition
fails no other rule in that step is attempted.
"""

from __future__ import annotations

import functools

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant at the start of a word or after a vowel
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC sequences: the m in [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _apply_step(word: str, rules, min_measure: int) -> str:
    """Apply the longest matching rule of a step, or nothing.

    rules must be ordered longest suffix first. Once a suffix matches,
    the step is decided: either that rule's condition holds and it
    rewrites the word, or the whole step is a no-op.
    """
    for suffix, replacement, extra in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure and (extra is None or extra(stem)):
                return stem + replacement
            return word
    return word


# (suffix, replacement, extra condition on the stem)
_STEP2_RULES = (
    ("ational", "ate", None),
    ("ization", "ize", None),
    ("iveness", "ive", None),
    ("fulness", "ful", None),
    ("ousness", "ous", None),
    ("tional", "tion", None),
    ("biliti", "ble", None),
    ("entli", "ent", None),
    ("ousli", "ous", None),
    ("ation", "ate", None),
    ("alism", "al", None),
    ("aliti", "al", None),
    ("iviti", "ive", None),
    ("enci", "ence", None),
    ("anci", "ance", None),
    ("izer", "ize", None),
    ("abli", "able", None),
    ("alli", "al", None),
    ("ator", "ate", None),
    ("eli", "e", None),
)

_STEP3_RULES = (
    ("icate", "ic", None),
    ("ative", "", None),
    ("alize", "al", None),
    ("iciti", "ic", None),
    ("ical", "ic", None),
    ("ness", "", None),
    ("ful", "", None),
)

_STEP4_RULES = (
    ("ement", "", None),
    ("ance", "", None),
    ("ence", "", None),
    ("able", "", None),
    ("ible", "", None),
    ("ment", "", None),
    ("ant", "", None),
    ("ent", "", None),
    ("ion", "", lambda stem: stem.endswith(("s", "t"))),
    ("ism", "", None),
    ("ate", "", None),
    ("iti", "", None),
    ("ous", "", None),
    ("ive", "", None),
    ("ize", "", None),
    ("al", "", None),
    ("er", "", None),
    ("ic", "", None),
    ("ou", "", None),
)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    # fix-ups after removing ed/ing
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word: str) -> str:
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    m = _measure(stem)
    if m > 1:
        return stem
    if m == 1 and not _ends_cvc(stem):
        return stem
    return word


def _step5b(word: str) -> str:
    if (
        _measure(word) > 1
        and _ends_double_consonant(word)
        and word[-1] == "l"
    ):
        return word[:-1]
    return word


@functools.lru_cache(maxsize=4096)
def stem(word: str) -> str:
    """Stem a single lowercase alphabetic token.

    Tokens containing anything other than ASCII letters are returned
    unchanged; the rules are only defined over a-z.

    Results are memoized for the 4096 most recently used tokens: tweet
    vocabularies repeat heavily, and the bound keeps a long tail of
    one-off words from growing the process.
    """
    w = word.lower()
    if not w.isascii() or not w.isalpha():
        return word
    w = _step1a(w)
    w = _step1b(w)
    w = _step1c(w)
    w = _apply_step(w, _STEP2_RULES, 0)
    w = _apply_step(w, _STEP3_RULES, 0)
    w = _apply_step(w, _STEP4_RULES, 1)
    w = _step5a(w)
    w = _step5b(w)
    return w
