"""Tokenization and term-vector construction for tweets and news text.

The vector pipeline mirrors classic IR preprocessing: lowercase, strip
URLs, split on non-word characters, drop stopwords and the query's own
terms, stem what is left, and count. Query terms are removed because
every candidate document matched the query already; keeping them would
let the query word dominate every similarity score.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

from .errors import read_input
from .porter import stem

# URLs are noise in tweet text; drop them before splitting.
_URL_RE = re.compile(r"\bhttps?://\S+", re.IGNORECASE)
# Word characters minus underscore. \w is unicode-aware, so accented
# letters and digits survive; punctuation and emoji split tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

TermVector = dict[str, int]


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens in order of appearance."""
    normalized = unicodedata.normalize("NFC", text).lower()
    normalized = _URL_RE.sub(" ", normalized)
    return _TOKEN_RE.findall(normalized)


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """Read a stopword file: one word per line, # comments, blanks ok.

    With no path, the bundled SMART list is used.
    """
    words = set()
    for line in read_input(path, "stopwords_smart.txt"):
        entry = line.strip().lower()
        if not entry or entry.startswith("#"):
            continue
        words.add(entry)
    return frozenset(words)


@dataclass(frozen=True)
class Pipeline:
    """Everything to_vector needs besides the text itself.

    query_terms are the lowercase surface forms of the query; their
    stems are excluded as well, so an inflected variant of the query
    word ("economies" for query "economy") cannot sneak back in after
    stemming.
    """

    stopwords: frozenset[str]
    query_terms: frozenset[str] = frozenset()
    # tokens dropped before stemming, and stems dropped after it
    _drop_tokens: frozenset[str] = field(init=False, repr=False)
    _drop_stems: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        drop_tokens = self.stopwords | self.query_terms
        for word in drop_tokens:
            if word != word.lower():
                raise ValueError(f"pipeline words must be lowercase: {word!r}")
        drop_stems = drop_tokens | {stem(t) for t in self.query_terms}
        object.__setattr__(self, "_drop_tokens", drop_tokens)
        object.__setattr__(self, "_drop_stems", drop_stems)


def to_vector(text: str, pipeline: Pipeline) -> TermVector:
    """Stemmed term counts for one piece of text.

    A stem is also dropped when it lands on a stopword or query term
    ("news" stems to "new", which is a stopword), keeping the output
    free of both regardless of inflection.
    """
    drop_tokens, drop_stems = pipeline._drop_tokens, pipeline._drop_stems
    counts: TermVector = {}
    for token in tokenize(text):
        if token in drop_tokens:
            continue
        stemmed = stem(token)
        # bare "s" stems to "" under the strict published rules
        if not stemmed or stemmed in drop_stems:
            continue
        counts[stemmed] = counts.get(stemmed, 0) + 1
    return counts
