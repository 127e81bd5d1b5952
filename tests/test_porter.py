"""Stemmer tests against the published 1980 rule examples.

The per-step vectors come straight from the algorithm's description and
are applied to the matching step in isolation; a word's full-pipeline
output often differs because later steps keep rewriting ("valenci"
passes step 2 as "valence" and step 5a then drops the e). Full-pipeline
cases below were each traced by hand through all eight steps.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, strategies as st

from ctvm.porter import (
    _apply_step,
    _measure,
    _STEP2_RULES,
    _STEP3_RULES,
    _STEP4_RULES,
    _step1a,
    _step1b,
    _step1c,
    _step5a,
    _step5b,
    stem,
)

MEASURE_CASES = {
    "tr": 0, "ee": 0, "tree": 0, "y": 0, "by": 0,
    "trouble": 1, "oats": 1, "trees": 1, "ivy": 1,
    "troubles": 2, "private": 2, "oaten": 2, "orrery": 2,
}


@pytest.mark.parametrize("word,m", sorted(MEASURE_CASES.items()))
def test_measure(word, m):
    assert _measure(word) == m


STEP1A = {
    "caresses": "caress", "ponies": "poni", "ties": "ti",
    "caress": "caress", "cats": "cat",
}

STEP1B = {
    "feed": "feed", "agreed": "agree", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing",
    # fix-up cases after ed/ing removal
    "conflated": "conflate", "troubled": "trouble", "sized": "size",
    "hopping": "hop", "tanned": "tan", "falling": "fall",
    "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file",
}

STEP1C = {"happy": "happi", "sky": "sky"}

STEP2 = {
    "relational": "relate", "conditional": "condition",
    "rational": "rational", "valenci": "valence",
    "hesitanci": "hesitance", "digitizer": "digitize",
    "conformabli": "conformable", "radicalli": "radical",
    "differentli": "different", "vileli": "vile",
    "analogousli": "analogous", "vietnamization": "vietnamize",
    "predication": "predicate", "operator": "operate",
    "feudalism": "feudal", "decisiveness": "decisive",
    "hopefulness": "hopeful", "callousness": "callous",
    "formaliti": "formal", "sensitiviti": "sensitive",
    "sensibiliti": "sensible",
}

STEP3 = {
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electric", "electrical": "electric",
    "hopeful": "hope", "goodness": "good",
}

STEP4 = {
    "revival": "reviv", "allowance": "allow", "inference": "infer",
    "airliner": "airlin", "gyroscopic": "gyroscop",
    "adjustable": "adjust", "defensible": "defens",
    "irritant": "irrit", "replacement": "replac",
    "adjustment": "adjust", "dependent": "depend",
    "adoption": "adopt", "homologou": "homolog",
    "communism": "commun", "activate": "activ",
    "angulariti": "angular", "homologous": "homolog",
    "effective": "effect", "bowdlerize": "bowdler",
}

STEP5A = {"probate": "probat", "rate": "rate", "cease": "ceas"}

STEP5B = {"controll": "control", "roll": "roll"}


@pytest.mark.parametrize("word,want", sorted(STEP1A.items()))
def test_step1a(word, want):
    assert _step1a(word) == want


@pytest.mark.parametrize("word,want", sorted(STEP1B.items()))
def test_step1b(word, want):
    assert _step1b(word) == want


@pytest.mark.parametrize("word,want", sorted(STEP1C.items()))
def test_step1c(word, want):
    assert _step1c(word) == want


@pytest.mark.parametrize("word,want", sorted(STEP2.items()))
def test_step2(word, want):
    assert _apply_step(word, _STEP2_RULES, 0) == want


@pytest.mark.parametrize("word,want", sorted(STEP3.items()))
def test_step3(word, want):
    assert _apply_step(word, _STEP3_RULES, 0) == want


@pytest.mark.parametrize("word,want", sorted(STEP4.items()))
def test_step4(word, want):
    assert _apply_step(word, _STEP4_RULES, 1) == want


@pytest.mark.parametrize("word,want", sorted(STEP5A.items()))
def test_step5a(word, want):
    assert _step5a(word) == want


@pytest.mark.parametrize("word,want", sorted(STEP5B.items()))
def test_step5b(word, want):
    assert _step5b(word) == want


# hand-traced through all eight steps
FULL_PIPELINE = {
    "caresses": "caress",
    "economy": "economi",      # 1c only
    "economic": "econom",      # step 4 ic (m("econom")=3)
    "economies": "economi",    # 1a ies -> economi
    "taxes": "tax",
    "tax": "tax",
    "praises": "prais",        # 1a -> praise, 5a drops e (m=1, not *o)
    "vacation": "vacat",       # 2 ation->ate, 5a (m=2)
    "photos": "photo",
    "amazing": "amaz",         # 1b ing (fix-ups: no at/bl/iz, no *d, m("amaz")=2)
    "rally": "ralli",
    "splits": "split",
    "stalls": "stall",
    "congress": "congress",    # ss kept by 1a
    "generalizations": "gener",  # traced step by step below
    "oscillators": "oscil",    # 1a, 2 ator->ate, 4 ate, 5b ll->l
    "conflated": "conflat",    # 1b -> conflate, 5a (m=2)
    "news": "new",
    "jobs": "job",
    "today": "todai",
    "agreed": "agre",          # 1b -> agree, 5a (m("agre")=1, not *o)
    "hoping": "hope",          # 1b cvc fix-up adds e
    "hopping": "hop",          # 1b double-consonant undouble
    "controlled": "control",   # 1b keeps ll (*l exception), 5b trims
    "speech": "speech",
    "report": "report",
}


@pytest.mark.parametrize("word,want", sorted(FULL_PIPELINE.items()))
def test_full_pipeline(word, want):
    assert stem(word) == want


def test_generalizations_trace():
    # four steps fire in sequence, worth spelling out
    assert _step1a("generalizations") == "generalization"
    assert _apply_step("generalization", _STEP2_RULES, 0) == "generalize"
    assert _apply_step("generalize", _STEP3_RULES, 0) == "general"
    assert _apply_step("general", _STEP4_RULES, 1) == "gener"
    assert stem("generalizations") == "gener"


def test_non_alpha_tokens_pass_through():
    for token in ("123", "r2d2", "café", "a_b", ""):
        assert stem(token) == token


def test_uppercase_is_lowered():
    assert stem("TAXES") == "tax"
    assert stem("Congress") == "congress"


def test_bare_s_stems_to_empty():
    # the published rules have no length guard; 1a consumes the whole word
    assert stem("s") == ""


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_stem_never_grows_and_stays_lowercase_alpha(word):
    out = stem(word)
    assert len(out) <= len(word)
    assert out == "" or (out.isascii() and out.isalpha() and out == out.lower())


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_stem_is_deterministic(word):
    assert stem(word) == stem(word)


MEMO_CASES = sorted(FULL_PIPELINE) + [
    "TAXES", "Congress", "café", "naïve", "ÉCONOMIE", "123", "r2d2", "2012", "s", "",
]


def test_memo_is_transparent():
    """The memo on stem returns what the rules themselves return, on a
    cold first call and on a repeat, and it is bounded."""
    assert stem.cache_info().maxsize == 4096
    stem.cache_clear()
    for word in MEMO_CASES:
        want = stem.__wrapped__(word)
        assert stem(word) == want
        assert stem(word) == want
