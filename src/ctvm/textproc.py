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
    _blocked_stems: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for word in self.stopwords | self.query_terms:
            if word != word.lower():
                raise ValueError(f"pipeline words must be lowercase: {word!r}")
        blocked = {stem(t) for t in self.query_terms}
        blocked.update(self.query_terms)
        object.__setattr__(self, "_blocked_stems", frozenset(blocked))

    def drops_before_stem(self, token: str) -> bool:
        return token in self.stopwords or token in self.query_terms

    def drops_after_stem(self, stemmed: str) -> bool:
        return stemmed in self.stopwords or stemmed in self._blocked_stems


def to_vector(text: str, pipeline: Pipeline) -> TermVector:
    """Stemmed term counts for one piece of text.

    A stem is also dropped when it lands on a stopword or query term
    ("news" stems to "new", which is a stopword), keeping the output
    free of both regardless of inflection.
    """
    counts: TermVector = {}
    for token in tokenize(text):
        if pipeline.drops_before_stem(token):
            continue
        stemmed = stem(token)
        # bare "s" stems to "" under the strict published rules
        if not stemmed or pipeline.drops_after_stem(stemmed):
            continue
        counts[stemmed] = counts.get(stemmed, 0) + 1
    return counts
