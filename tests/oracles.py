"""Independent reference implementations used to pin expected values.

Everything here is written from the contract, not from the package
internals: different data structures, different accumulation order,
math.log(x, 2) instead of log2, repeated selection instead of sort.
naive_vector shares one piece with the package, ctvm.porter.stem, so
that these oracles check the pipeline around the stemmer. The stemmer
itself is pinned by its published-vector tests and by naive_stem, an
earlier, plainer implementation of the same rules.
"""

from __future__ import annotations

import math
import unicodedata

from ctvm.judgments import parse_label
from ctvm.porter import stem


def naive_tokens(text: str) -> list[str]:
    """Alphanumeric runs, lowercased. No URL handling: callers feed
    URL-free text (URL stripping has its own direct tests)."""
    tokens: list[str] = []
    current: list[str] = []
    for ch in text.lower():
        if ch.isalnum() and ch != "_":
            current.append(ch)
        else:
            if current:
                tokens.append("".join(current))
                current = []
    if current:
        tokens.append("".join(current))
    return tokens


def naive_vector(
    text: str,
    stopwords: frozenset[str],
    query_terms: frozenset[str],
) -> dict[str, int]:
    blocked_stems = set(stopwords) | set(query_terms)
    blocked_stems.update(stem(t) for t in query_terms)
    counts: dict[str, int] = {}
    for token in naive_tokens(text):
        if token in stopwords or token in query_terms:
            continue
        stemmed = stem(token)
        if stemmed in blocked_stems:
            continue
        counts[stemmed] = counts.get(stemmed, 0) + 1
    return counts


def naive_similarity(
    a: dict[str, int],
    b: dict[str, int],
    mode: str = "common-set",
) -> float:
    shared = sorted(t for t in a if t in b)
    if not shared:
        return 0.0
    dot = math.fsum(a[t] * b[t] for t in shared)
    if mode == "common-set":
        left = math.fsum(a[t] ** 2 for t in shared)
        right = math.fsum(b[t] ** 2 for t in shared)
    else:
        left = math.fsum(v**2 for v in a.values())
        right = math.fsum(v**2 for v in b.values())
    return dot / math.sqrt(left * right)


def formula_cosine(
    a: dict[str, int],
    b: dict[str, int],
    mode: str = "common-set",
) -> float:
    """The similarity formula applied to every pair, with no shortcut:
    int sums, one sqrt of their int product, one division, clamped at
    1.0. Unlike naive_similarity this is the package's own arithmetic,
    kept so that a fast path can be held to it bit for bit."""
    shared = [t for t in a if t in b]
    if not shared:
        return 0.0
    dot = sum(a[t] * b[t] for t in shared)
    if mode == "full-cosine":
        norm_a = sum(c * c for c in a.values())
        norm_b = sum(c * c for c in b.values())
    else:
        norm_a = sum(a[t] * a[t] for t in shared)
        norm_b = sum(b[t] * b[t] for t in shared)
    return min(1.0, dot / math.sqrt(norm_a * norm_b))


def naive_votes(
    tweet_texts: list[str],
    news_texts: list[str],
    stopwords: frozenset[str],
    query_terms: frozenset[str],
    mode: str = "common-set",
) -> list[float]:
    """Vote totals recomputed from raw text, news-major with fsum."""
    tweet_vectors = [
        naive_vector(t, stopwords, query_terms) for t in tweet_texts
    ]
    news_vectors = [naive_vector(n, stopwords, query_terms) for n in news_texts]
    totals: list[float] = []
    for news_vec in news_vectors:
        sims = [
            naive_similarity(tweet_vec, news_vec, mode)
            for tweet_vec in tweet_vectors
            if tweet_vec
        ]
        totals.append(math.fsum(sims))
    return totals


def naive_rerank(
    news_ids: list[str],
    engine_ranks: list[int],
    votes: list[float],
) -> list[str]:
    """Order ids by vote desc, engine rank asc, via repeated selection."""
    remaining = list(range(len(news_ids)))
    ordered: list[str] = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if votes[i] > votes[best] or (
                votes[i] == votes[best] and engine_ranks[i] < engine_ranks[best]
            ):
                best = i
        ordered.append(news_ids[best])
        remaining.remove(best)
    return ordered


def naive_gain(relevance: float, variant: str, gain: str) -> float:
    if variant == "literal":
        return math.pow(2.0, relevance - 1.0)
    if gain == "linear":
        return relevance
    return math.pow(2.0, relevance) - 1.0


def naive_dcg(
    relevances: list[float],
    k: int,
    variant: str = "standard",
    gain: str = "exponential",
) -> float:
    total = 0.0
    for idx in range(min(k, len(relevances))):
        g = naive_gain(relevances[idx], variant, gain)
        if variant == "literal":
            total += g
        else:
            total += g / math.log(idx + 2, 2)
    return total


def naive_ndcg(
    relevances: list[float],
    k: int,
    variant: str = "standard",
    gain: str = "exponential",
) -> float:
    best = naive_dcg(sorted(relevances, reverse=True), k, variant, gain)
    if best == 0.0:
        return 0.0
    return naive_dcg(relevances, k, variant, gain) / best


def ranking_relevances(ids, lookup, query_id: str, region: str) -> list[float]:
    """Relevance of each ranked doc under one region's judgments, 0.0
    where unjudged: the per-doc reads that mean_ndcg batches."""
    return [lookup.get(query_id, news_id, region) for news_id in ids]


def naive_resolve(
    location: str,
    entries: list[tuple[str, str]],
    loose: bool = False,
) -> str | None:
    """First-match region resolution with a hand-rolled token scanner.
    Names and locations are compared lowercased in NFC, with NFC applied
    again after lowering, which can leave a letter and a mark to compose."""

    def fold(text: str) -> str:
        return unicodedata.normalize("NFC", unicodedata.normalize("NFC", text).lower())

    if not location:
        return None
    lowered = fold(location)
    runs: list[str] = []
    current: list[str] = []
    for ch in location:
        if ("a" <= ch <= "z") or ("A" <= ch <= "Z"):
            current.append(ch)
        else:
            if current:
                runs.append("".join(current))
                current = []
    if current:
        runs.append("".join(current))
    for code, name in entries:
        if fold(name) in lowered:
            return code
        if loose:
            if code in location:
                return code
        elif any(run == code for run in runs):
            return code
    return None


def naive_mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def naive_aggregate(records, min_judges: int):
    """aggregate's (cells, counts) from the contract: every record's
    label goes through parse_label, which is shared with the package as
    the definition of a label; cells maps each kept (query, news,
    region) key to the mean of its judges' latest labels."""
    counts = dict.fromkeys(
        ("records_in", "bad_labels", "duplicates_superseded", "cells_kept", "cells_dropped"),
        0,
    )
    keys: list[tuple[str, str, str]] = []
    ratings: dict[tuple[str, str, str], list[list]] = {}
    for record in records:
        counts["records_in"] += 1
        try:
            label = parse_label(record.label)
        except ValueError:
            counts["bad_labels"] += 1
            continue
        key = (record.query_id, record.news_id, record.region)
        if key not in ratings:
            keys.append(key)
            ratings[key] = []
        for rating in ratings[key]:
            if rating[0] == record.judge_id:
                rating[1] = label
                counts["duplicates_superseded"] += 1
                break
        else:
            ratings[key].append([record.judge_id, label])
    cells = {}
    for key in keys:
        labels = [label for _, label in ratings[key]]
        if len(labels) < min_judges:
            counts["cells_dropped"] += 1
            continue
        counts["cells_kept"] += 1
        cells[key] = sum(int(label) for label in labels) / len(labels)
    return cells, counts


def relevance_cells(lookup) -> dict[tuple[str, str, str], float]:
    """Every judged cell of a RelevanceLookup, as (query, news, region)
    -> relevance, read through its public methods."""
    return {
        (query_id, news_id, region): relevance
        for region in lookup.regions()
        for query_id, news in lookup.region_cells(region).items()
        for news_id, relevance in news.items()
    }


# naive_stem: the Porter stemmer as it stood before ctvm.porter indexed
# its rules and classified letters in one pass. Each step tries every
# suffix of its table in turn, and each letter is classified by
# _naive_is_consonant, which recurses on a run of y: a word holding more
# than about a thousand y in a row raises RecursionError here, so
# callers keep y runs short.

_NAIVE_VOWELS = frozenset("aeiou")


def _naive_is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _NAIVE_VOWELS:
        return False
    if ch == "y":
        # y is a consonant at the start of a word or after a vowel
        return i == 0 or not _naive_is_consonant(word, i - 1)
    return True


def _naive_measure(stem: str) -> int:
    """Count VC sequences: the m in [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _naive_is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _naive_contains_vowel(stem: str) -> bool:
    return any(not _naive_is_consonant(stem, i) for i in range(len(stem)))


def _naive_ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _naive_is_consonant(word, len(word) - 1)
    )


def _naive_ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(word) < 3:
        return False
    return (
        _naive_is_consonant(word, len(word) - 3)
        and not _naive_is_consonant(word, len(word) - 2)
        and _naive_is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _naive_apply_step(word: str, rules, min_measure: int) -> str:
    """Apply the longest matching rule of a step, or nothing.

    rules must be ordered longest suffix first. Once a suffix matches,
    the step is decided: either that rule's condition holds and it
    rewrites the word, or the whole step is a no-op.
    """
    for suffix, replacement, extra in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _naive_measure(stem) > min_measure and (extra is None or extra(stem)):
                return stem + replacement
            return word
    return word


# (suffix, replacement, extra condition on the stem)
_NAIVE_STEP2_RULES = (
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

_NAIVE_STEP3_RULES = (
    ("icate", "ic", None),
    ("ative", "", None),
    ("alize", "al", None),
    ("iciti", "ic", None),
    ("ical", "ic", None),
    ("ness", "", None),
    ("ful", "", None),
)

_NAIVE_STEP4_RULES = (
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


def _naive_step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _naive_step1b(word: str) -> str:
    if word.endswith("eed"):
        if _naive_measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed") and _naive_contains_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _naive_contains_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    # fix-ups after removing ed/ing
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _naive_ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _naive_measure(word) == 1 and _naive_ends_cvc(word):
        return word + "e"
    return word


def _naive_step1c(word: str) -> str:
    if word.endswith("y") and _naive_contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _naive_step5a(word: str) -> str:
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    m = _naive_measure(stem)
    if m > 1:
        return stem
    if m == 1 and not _naive_ends_cvc(stem):
        return stem
    return word


def _naive_step5b(word: str) -> str:
    if (
        _naive_measure(word) > 1
        and _naive_ends_double_consonant(word)
        and word[-1] == "l"
    ):
        return word[:-1]
    return word


def naive_stem(word: str) -> str:
    """Stem a single lowercase alphabetic token.

    Tokens containing anything other than ASCII letters are returned
    unchanged; the rules are only defined over a-z. Unlike
    ctvm.porter.stem, nothing is memoized.
    """
    w = word.lower()
    if not w.isascii() or not w.isalpha():
        return word
    w = _naive_step1a(w)
    w = _naive_step1b(w)
    w = _naive_step1c(w)
    w = _naive_apply_step(w, _NAIVE_STEP2_RULES, 0)
    w = _naive_apply_step(w, _NAIVE_STEP3_RULES, 0)
    w = _naive_apply_step(w, _NAIVE_STEP4_RULES, 1)
    w = _naive_step5a(w)
    w = _naive_step5b(w)
    return w
