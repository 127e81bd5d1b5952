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
from collections import namedtuple

from .errors import read_input
from .porter import stem

# URLs are noise in tweet text; drop them before splitting.
_URL_RE = re.compile(r"\bhttps?://\S+", re.IGNORECASE)
# Word characters minus underscore. \w is unicode-aware, so accented
# letters and digits survive; punctuation and emoji split tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

TermVector = dict[str, int]


def lower_nfc(text: str) -> str:
    """Text lowercased in NFC, the one form text is compared in. NFC
    comes again after lowering, which can leave a letter and a mark NFC
    would compose: "J" + U+030C lowers to "j" + U+030C, which is U+01F0.
    ASCII text is already NFC, so it is only lowercased."""
    if text.isascii():
        return text.lower()
    return unicodedata.normalize("NFC", unicodedata.normalize("NFC", text).lower())


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens in order of appearance."""
    normalized = _URL_RE.sub(" ", lower_nfc(text))
    return _TOKEN_RE.findall(normalized)


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """Read a stopword file: one word per line, # comments, blanks ok.
    Each word is folded as tokens are, with lower_nfc.

    With no path, the bundled SMART list is used.
    """
    words = set()
    for line in read_input(path, "stopwords_smart.txt"):
        entry = lower_nfc(line.strip())
        if not entry or entry.startswith("#"):
            continue
        words.add(entry)
    return frozenset(words)


class Pipeline(namedtuple("Pipeline", "stopwords query_terms drop_tokens drop_stems")):
    """Everything to_vector needs besides the text itself.

    Every word is in lower_nfc's form, as tokens are. query_terms are
    the surface forms of the query; their stems are excluded as well,
    so an inflected variant of the query word ("economies" for query
    "economy") cannot sneak back in after stemming.

    drop_tokens (dropped before stemming) and drop_stems (after it) are
    derived from the first two fields, the only constructor arguments,
    which are all that copy and pickle pass back to it.
    """

    __slots__ = ()

    def __new__(
        cls, stopwords: frozenset[str], query_terms: frozenset[str] = frozenset()
    ) -> Pipeline:
        drop_tokens = stopwords | query_terms
        for word in drop_tokens:
            if word != lower_nfc(word):
                raise ValueError(f"pipeline words must be lowercase NFC: {word!r}")
        drop_stems = drop_tokens | {stem(t) for t in query_terms}
        return tuple.__new__(cls, (stopwords, query_terms, drop_tokens, drop_stems))

    def __getnewargs__(self):
        return self[:2]


def to_vector(text: str, pipeline: Pipeline) -> TermVector:
    """Stemmed term counts for one piece of text.

    A stem is also dropped when it lands on a stopword or query term
    ("news" stems to "new", which is a stopword), keeping the output
    free of both regardless of inflection.
    """
    drop_tokens, drop_stems = pipeline.drop_tokens, pipeline.drop_stems
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
