"""Porter suffix-stripping stemmer, original 1980 rule set.

This is a deliberate re-implementation of the rules exactly as published:
no minimum-length guard, ABLI maps to ABLE, and there is no LOGI rule.
Several later variants (including the widely-copied C version) add those
departures; we avoid them so that stems are reproducible from the printed
rule tables alone.

Within a step the longest matching suffix wins, and if its condition
fails no other rule in that step is attempted. Every suffix of steps
2-4 has at least two letters, so it can only match a word that ends in
its own last two letters, and each of those steps files its rules under
those two letters, longest suffix first. One index both guards and
dispatches the step: stem runs it only on a word whose last two letters
are a key, and the step then tries only that key's rules, at most five
suffixes instead of a whole table of up to twenty.

A step changes a word only when one of its suffixes ends it, so stem
calls the other steps only on a word that ends as one of their
suffixes ends: 1a on s, 1b on ed or ng (eed, ed, ing), 1c on y, 5a on e
and 5b on ll. A word turned away would have come back unchanged, so the
stems are the same, and a one-off word skips most of the eight steps.

The conditions read a word's consonant/vowel pattern, one "c" or "v"
per letter, built in one left-to-right pass: a letter's class depends
only on the letters before it (y is a vowel after a consonant and a
consonant otherwise), so no letter is classified twice and a long run
of y is no deeper than a short one. The measure m is the number of "vc"
pairs in the pattern.
"""

from __future__ import annotations

import functools

# a-z to "v" (vowel) or "c" (consonant); y stays "y" until _pattern
# decides it from its left neighbour
_CLASSES = str.maketrans("aeioubcdfghjklmnpqrstvwxz", "v" * 5 + "c" * 20)


def _pattern(word: str) -> str:
    """The consonant/vowel pattern of a lowercase a-z word."""
    pattern = word.translate(_CLASSES)
    if "y" not in pattern:
        return pattern
    letters = []
    prev = "v"  # so that a leading y is a consonant
    for cls in pattern:
        if cls == "y":
            cls = "v" if prev == "c" else "c"
        letters.append(cls)
        prev = cls
    return "".join(letters)


def _measure(stem: str) -> int:
    """Count VC sequences: the m in [C](VC)^m[V]."""
    return _pattern(stem).count("vc")


def _contains_vowel(stem: str) -> bool:
    return "v" in _pattern(stem)


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _pattern(word).endswith("c")
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    return not word.endswith(("w", "x", "y")) and _pattern(word).endswith("cvc")


def _apply_step(word: str, rules, min_measure: int) -> str:
    """Apply the longest matching rule of a step, or nothing.

    rules maps two letters to the rules whose suffixes end in them,
    longest suffix first. Once a suffix matches, the step is decided:
    either that rule's condition holds and it rewrites the word, or the
    whole step is a no-op.
    """
    for suffix, replacement, extra in rules.get(word[-2:], ()):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure and (extra is None or extra(stem)):
                return stem + replacement
            return word
    return word


def _by_ending(rules):
    """Index a step's rules, listed longest suffix first, by each
    suffix's last two letters; each bucket keeps the listed order."""
    buckets: dict[str, list] = {}
    for rule in rules:
        buckets.setdefault(rule[0][-2:], []).append(rule)
    return {ending: tuple(bucket) for ending, bucket in buckets.items()}


# (suffix, replacement, extra condition on the stem)
_STEP2_RULES = _by_ending((
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
))

_STEP3_RULES = _by_ending((
    ("icate", "ic", None),
    ("ative", "", None),
    ("alize", "al", None),
    ("iciti", "ic", None),
    ("ical", "ic", None),
    ("ness", "", None),
    ("ful", "", None),
))

_STEP4_RULES = _by_ending((
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
))


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    return word[:-1]


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
    if _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word: str) -> str:
    stem = word[:-1]
    m = _measure(stem)
    if m > 1:
        return stem
    if m == 1 and not _ends_cvc(stem):
        return stem
    return word


def _step5b(word: str) -> str:
    # ll is the only double consonant this step undoubles
    if _measure(word) > 1:
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
    if w[-1:] == "s":
        w = _step1a(w)
    if w[-2:] in ("ed", "ng"):
        w = _step1b(w)
    if w[-1:] == "y":
        w = _step1c(w)
    if w[-2:] in _STEP2_RULES:
        w = _apply_step(w, _STEP2_RULES, 0)
    if w[-2:] in _STEP3_RULES:
        w = _apply_step(w, _STEP3_RULES, 0)
    if w[-2:] in _STEP4_RULES:
        w = _apply_step(w, _STEP4_RULES, 1)
    if w[-1:] == "e":
        w = _step5a(w)
    if w[-2:] == "ll":
        w = _step5b(w)
    return w
