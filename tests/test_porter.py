"""Stemmer tests against the published 1980 rule examples.

The per-step vectors come straight from the algorithm's description and
are applied to the matching step in isolation; a word's full-pipeline
output often differs because later steps keep rewriting ("valenci"
passes step 2 as "valence" and step 5a then drops the e). Full-pipeline
cases below were each traced by hand through all eight steps.

Every word here is also checked against naive_stem (tests/oracles.py),
the plainer implementation of the same rules that this module's
indexed rules and one-pass letter classes replaced.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import string
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import naive_stem

from ctvm import porter
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


def test_long_y_run_stems_without_recursing():
    # each y's class depends on the letter before it; a classifier that
    # recurses leftwards through a run of y overflows the stack here
    word = "a" + "y" * 5000
    assert stem(word) == "a" + "y" * 4999 + "i"   # 1c only


PUBLISHED_WORDS = sorted(
    set().union(
        STEP1A, STEP1B, STEP1C, STEP2, STEP3, STEP4, STEP5A, STEP5B,
        FULL_PIPELINE, MEASURE_CASES,
    )
)


@pytest.mark.parametrize("word", PUBLISHED_WORDS)
def test_published_words_match_naive(word):
    assert stem.__wrapped__(word) == naive_stem(word)


def test_short_words_match_naive():
    """Every a-z word of one to three letters: stem runs a step only on
    a word that ends like one of its suffixes, and these are the words
    whose endings are shorter than, or as long as, the guards' slices."""
    words = (
        "".join(letters)
        for n in (1, 2, 3)
        for letters in itertools.product(string.ascii_lowercase, repeat=n)
    )
    wrong = [w for w in words if stem.__wrapped__(w) != naive_stem(w)]
    assert wrong == []


def _load_perfbench_gen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_words() -> list[str]:
    """Every word of longtail's 20k-word core plus 5,000 of its hapax
    words, drawn as the generator draws them."""
    gen = _load_perfbench_gen()
    core = 20000
    rng = random.Random(1)
    ids = list(range(core)) + [
        core + rng.randrange(gen.HAPAX_SPACE) for _ in range(5000)
    ]
    return list(map(gen.word, ids))


def test_benchmark_vocabulary_matches_naive():
    wrong = [w for w in _benchmark_words() if stem.__wrapped__(w) != naive_stem(w)]
    assert wrong == []


# the ending stem tests before it calls each step; the steps rely on it
STEP_GUARDS = {
    "_step1a": ("s",),
    "_step1b": ("ed", "ng"),
    "_step1c": ("y",),
    "_step5a": ("e",),
    "_step5b": ("ll",),
}


def test_steps_are_called_only_past_their_guard(monkeypatch):
    """stem calls each step of 1a-1c, 5a and 5b only on a word that
    ends as the step's suffixes end, over the published words and the
    benchmark vocabulary; every step is reached."""
    calls: dict[str, list[str]] = {name: [] for name in STEP_GUARDS}

    def spy(name, step):
        def wrapped(word):
            calls[name].append(word)
            return step(word)
        return wrapped

    for name in STEP_GUARDS:
        monkeypatch.setattr(porter, name, spy(name, getattr(porter, name)))
    stem.cache_clear()
    try:
        for word in PUBLISHED_WORDS + _benchmark_words():
            stem(word)
    finally:
        stem.cache_clear()
    for name, endings in STEP_GUARDS.items():
        assert calls[name], name
        assert [w for w in calls[name] if not w.endswith(endings)] == [], name


# The benchmark's syllables never hold a y and random letters rarely end
# in "ational", so words are built to reach each rule: a random stem
# with y runs and doubled letters, one suffix of some rule of steps 1-5,
# and sometimes an inflection that steps 1a/1b strip first.
RULE_SUFFIXES = sorted(
    {"sses", "ies", "ss", "s", "eed", "ed", "ing", "y", "at", "bl", "iz",
     "e", "ll"}
    | {rule[0] for table in (_STEP2_RULES, _STEP3_RULES, _STEP4_RULES)
       for bucket in table.values() for rule in bucket}
)
_LETTERS = st.sampled_from(string.ascii_lowercase)
_STEMS = st.lists(
    st.one_of(
        _LETTERS,
        _LETTERS.map(lambda ch: ch * 2),
        st.integers(min_value=1, max_value=6).map(lambda n: "y" * n),
    ),
    max_size=6,
).map("".join)
RULE_WORDS = st.builds(
    lambda stem_, suffix, inflection: stem_ + suffix + inflection,
    _STEMS,
    st.sampled_from(RULE_SUFFIXES),
    st.sampled_from(["", "", "s", "ed", "ing", "y"]),
)


@settings(max_examples=1000, deadline=None)
@given(RULE_WORDS)
def test_rule_words_match_naive(word):
    assert stem.__wrapped__(word) == naive_stem(word)


def _dispatch_faults(rules) -> list[str]:
    """Why an indexed step table could miss a suffix or let a shorter
    suffix win."""
    faults = []
    for ending, bucket in rules.items():
        for suffix, _, _ in bucket:
            if suffix[-2:] != ending:
                faults.append(f"{suffix!r} filed under {ending!r}")
        lengths = [len(rule[0]) for rule in bucket]
        if lengths != sorted(lengths, reverse=True):
            faults.append(f"bucket {ending!r} is not longest-first")
    return faults


@pytest.mark.parametrize(
    "rules,count",
    [(_STEP2_RULES, 20), (_STEP3_RULES, 7), (_STEP4_RULES, 19)],
    ids=["step2", "step3", "step4"],
)
def test_rules_are_filed_by_last_two_letters_longest_first(rules, count):
    assert _dispatch_faults(rules) == []
    assert sum(len(bucket) for bucket in rules.values()) == count


def test_dispatch_check_catches_a_shorter_suffix_first():
    ion = next(rule for rule in _STEP4_RULES["on"] if rule[0] == "ion")
    ation = next(rule for rule in _STEP2_RULES["on"] if rule[0] == "ation")
    mutant = {"on": (ion, ation)}
    assert _dispatch_faults(mutant) == ["bucket 'on' is not longest-first"]
    # and the order matters: "ion" would shadow "ation" on a real word
    assert _apply_step("predication", mutant, 0) == "predicat"
    assert _apply_step("predication", {"on": (ation, ion)}, 0) == "predicate"
