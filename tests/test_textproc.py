from __future__ import annotations

import re
import string
import sys
import unicodedata

import pytest
from hypothesis import given, strategies as st

from ctvm.textproc import (
    _TOKEN_RE,
    _URL_RE,
    Pipeline,
    TermVector,
    load_stopwords,
    lower_nfc,
    to_vector,
    tokenize,
)

from oracles import naive_vector


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("Obama's tax plan, explained!") == [
            "obama", "s", "tax", "plan", "explained",
        ]

    def test_strips_urls(self):
        assert tokenize("Read this http://bit.ly/x123 now") == ["read", "this", "now"]
        assert tokenize("see https://example.com/a?b=1 and http://t.co") == [
            "see", "and",
        ]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []
        assert tokenize("!!! ... ###") == []

    def test_digits_kept_underscore_splits(self):
        assert tokenize("top10 items_are here") == ["top10", "items", "are", "here"]

    def test_unicode_letters_survive(self):
        assert tokenize("café au lait") == ["café", "au", "lait"]

    def test_emoji_and_hashtags_split(self):
        assert tokenize("#Obama2012 🎉 @whitehouse") == ["obama2012", "whitehouse"]

    @given(st.text(max_size=200))
    def test_tokens_are_lowercase_and_nonempty(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert "_" not in token


# URL-like pieces in cases and spellings the URL pattern's IGNORECASE
# treats specially: "ſ" (long s) matches "s" and U+212A (the Kelvin sign)
# matches "k"
URL_PIECES = st.sampled_from(
    ["http://a.b/c", "HTTP://X.CO", "Https://x", "httpſ://x.y", "HTTPſ://Z",
     "hTtP", "http", "://", "ſ", "\u212a", "İ", "Ⓗttp://x", "ｈｔｔｐ://x", "é", " "]
)


class TestUrlStripping:
    """tokenize runs the URL pattern only on text holding "http"; the
    tokens are those of running it on every text."""

    @given(st.lists(URL_PIECES | st.text(max_size=8), max_size=12).map("".join))
    def test_equals_the_unconditional_substitution(self, text):
        assert tokenize(text) == _TOKEN_RE.findall(_URL_RE.sub(" ", lower_nfc(text)))

    def test_only_ascii_letters_match_h_t_and_p(self):
        """Every code point the pattern's "h", "t" or "p" matches under
        IGNORECASE is an ASCII letter, which lower_nfc lowercases."""
        letter = re.compile("[htp]", re.IGNORECASE)
        matched = {chr(c) for c in range(sys.maxunicode + 1) if letter.fullmatch(chr(c))}
        assert matched == set("htpHTP")


class TestLowerNfc:
    def test_ascii_is_only_lowercased(self):
        assert lower_nfc("Obama's TAX plan") == "obama's tax plan"

    def test_lowered_letter_and_mark_are_composed(self):
        # J + caron lowers to j + caron, which NFC writes as U+01F0
        assert lower_nfc("J\u030cx") == "\u01f0x"
        assert tokenize("J\u030cx today") == tokenize("\u01f0x today") == [
            "\u01f0x", "today",
        ]

    def test_every_cased_letter_before_a_mark(self):
        # every code point with a case mapping, before each mark U+0300-U+036F
        cased = [
            chr(c)
            for c in range(sys.maxunicode + 1)
            if not 0xD800 <= c <= 0xDFFF
            and chr(c).lower() + chr(c).upper() != 2 * chr(c)
        ]
        not_idempotent, split_apart = [], []
        for letter in cased:
            for mark in map(chr, range(0x300, 0x370)):
                text = letter + mark + "x"
                folded = lower_nfc(text)
                if lower_nfc(folded) != folded:
                    not_idempotent.append(text)
                if tokenize(text) != tokenize(letter.lower() + mark + "x"):
                    split_apart.append(text)
        assert not_idempotent == [] and split_apart == []

    @given(st.text(max_size=50))
    def test_idempotent_lowercase_nfc(self, text):
        folded = lower_nfc(text)
        assert lower_nfc(folded) == folded
        assert unicodedata.is_normalized("NFC", folded)
        assert folded == folded.lower()


class TestLoadStopwords:
    def test_default_list(self, stopwords):
        assert len(stopwords) == 570
        for word in ("the", "a", "is", "in", "on", "of", "new", "s", "t"):
            assert word in stopwords
        for word in ("tax", "economy", "obama", "rally"):
            assert word not in stopwords

    def test_custom_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\n\n  Bar  \nfoo\n")
        words = load_stopwords(str(path))
        assert words == frozenset({"foo", "bar"})

    @pytest.mark.parametrize("entry", ["cafe\u0301", "CAFE\u0301"])
    def test_entries_fold_as_tokens_do(self, tmp_path, entry):
        path = tmp_path / "stop.txt"
        path.write_text(entry + "\n", encoding="utf-8")
        pipeline = Pipeline(stopwords=load_stopwords(str(path)))
        assert to_vector("caf\u00e9 cafe\u0301 opens", pipeline) == {"open": 1}


class TestPipeline:
    def test_rejects_uppercase_terms(self, stopwords):
        with pytest.raises(ValueError):
            Pipeline(stopwords=stopwords, query_terms=frozenset({"Obama"}))
        with pytest.raises(ValueError):
            Pipeline(stopwords=frozenset({"The"}))
        # tokens are NFC, so a decomposed word could never match one
        with pytest.raises(ValueError, match="lowercase"):
            Pipeline(stopwords=frozenset({"cafe\u0301"}))

    def test_blocks_query_stem_variants(self, stopwords):
        p = Pipeline(stopwords=stopwords, query_terms=frozenset({"economy"}))
        # "economies" stems to "economi", same as the query term itself
        assert to_vector("economies boom", p) == {"boom": 1}
        assert to_vector("economy talk", p) == {"talk": 1}


class TestToVector:
    def test_counts_after_stemming(self, plain_pipeline):
        assert to_vector("Economy economy rally", plain_pipeline) == {
            "economi": 2,
            "ralli": 1,
        }

    def test_drops_stopwords(self, plain_pipeline):
        assert to_vector("the tax of the land", plain_pipeline) == {
            "tax": 1,
            "land": 1,
        }

    def test_drops_query_terms(self, obama_pipeline):
        assert to_vector("Obama tax rally", obama_pipeline) == {
            "tax": 1,
            "ralli": 1,
        }

    def test_stopword_reached_by_stemming_is_dropped(self, plain_pipeline):
        # "news" stems to "new", which is a stopword
        assert to_vector("news report", plain_pipeline) == {"report": 1}

    def test_empty_text(self, plain_pipeline):
        assert to_vector("", plain_pipeline) == {}

    def test_all_stopwords(self, plain_pipeline):
        assert to_vector("the is of and", plain_pipeline) == {}

    def test_golden_tweet(self, obama_pipeline):
        assert to_vector("Obama tax plan is a bad plan", obama_pipeline) == {
            "tax": 1, "plan": 2, "bad": 1,
        }
        assert to_vector("Obama's tax plan splits congress", obama_pipeline) == {
            "tax": 1, "plan": 1, "split": 1, "congress": 1,
        }

    def test_no_stopword_or_query_term_ever_appears(self, stopwords):
        p = Pipeline(stopwords=stopwords, query_terms=frozenset({"obama"}))
        vec = to_vector(
            "Obama news knows the economy; obama IS newS again", p
        )
        assert "obama" not in vec
        for key in vec:
            assert key not in stopwords


WORDS = st.lists(
    st.sampled_from(
        "the a of new news economy economies tax taxes rally vote votes "
        "is plan plans congress speech report today jobs photo photos".split()
    ),
    max_size=30,
)

_STOP = load_stopwords()
_PLAIN = Pipeline(stopwords=_STOP)
_OBAMA = Pipeline(stopwords=_STOP, query_terms=frozenset({"obama"}))


class TestToVectorProperties:
    @given(WORDS)
    def test_matches_oracle(self, words):
        text = " ".join(words)
        assert to_vector(text, _OBAMA) == naive_vector(
            text, _STOP, frozenset({"obama"})
        )

    @given(WORDS)
    def test_word_order_is_irrelevant(self, words):
        assert to_vector(" ".join(words), _PLAIN) == to_vector(
            " ".join(reversed(words)), _PLAIN
        )

    @given(WORDS)
    def test_counts_are_positive_ints(self, words):
        vec: TermVector = to_vector(" ".join(words), _PLAIN)
        assert sum(vec.values()) <= len(words)
        for count in vec.values():
            assert isinstance(count, int) and count >= 1

    @given(st.text(alphabet=string.printable, max_size=120))
    def test_never_raises_on_arbitrary_text(self, text):
        vec = to_vector(text, _PLAIN)
        assert all(key for key in vec)
