"""The benchmark's workloads.

Each workload gives the generator's parameters (the traffic dimensions
of gen.generate), the rerank flags that go with them, and the shape
checks the traced run applies: if a workload stops stressing the layers
it was chosen for, the traced run fails instead of measuring something
else. The default seed's rankings and eval digests are in expected.json.
"""

from __future__ import annotations

COMMON = {
    "queries": 10,
    "engines": 2,
    "days": 2,
    "top_k": 10,
    "mention_rate": 0.9,
    "judged_share": 0.9,
    "judges_per_cell": 3,
    "superseded_share": 0.05,
    "under_min_share": 0.1,
}

STUDY_REGIONS = ["CA", "NY", "TX"]

WORKLOADS = {
    # Stem, to_vector and cosine reuse: a stem or vector cache or an
    # inverted index should show its gain here or on longtail.
    "local3": {
        "why": "the paper's setting: keyword-collected tweets in CA/NY/TX with "
        "repeated locations and a 2k-word Zipf vocabulary, so stemming and "
        "pair scoring dominate",
        "params": dict(
            COMMON,
            queries=5,
            tweets=3500,
            focus_regions=STUDY_REGIONS,
            region_skew=0.85,
            vocab=2000,
            zipf=1.2,
            hapax_share=0.0,
            location_pool=100,
            unresolvable_share=0.05,
            judged_regions=STUDY_REGIONS,
        ),
        "regions": STUDY_REGIONS,
        "sim": "common-set",
        "include_snippet": False,
        "shape": [
            ("similarity.cosine.nonzero_ratio", ">=", 0.5),
            ("geofilter.resolve.distinct_ratio", "<=", 0.05),
            ("porter.stem.distinct_ratio", "<=", 0.05),
        ],
    },
    # slice_corpus rescans every tweet per (group, region) and eval
    # scores 50 regions x 51 provenances: bucketing and eval work show
    # here.
    "national50": {
        "why": "all 50 states as regions with tweets spread evenly and "
        "judgments for every state, so slicing and eval do most of the work",
        "params": dict(
            COMMON,
            queries=2,
            tweets=3000,
            focus_regions=[],
            region_skew=0.0,
            vocab=2000,
            zipf=1.0,
            hapax_share=0.0,
            location_pool=500,
            unresolvable_share=0.05,
            judged_regions=None,
        ),
        "regions": "ALL",
        "sim": "common-set",
        "include_snippet": False,
        "shape": [("corpus.slice_corpus.calls", ">=", "4x-others")],
    },
    # One engine, so no tweet is vectorized twice; most tokens occur
    # once; locations never repeat: caches miss and few pairs overlap.
    "longtail": {
        "why": "the local3 regions with distinct locations, many unresolvable, "
        "and mostly one-off words over title and snippet, so caches and "
        "pair pruning miss",
        "params": dict(
            COMMON,
            engines=1,
            tweets=6000,
            focus_regions=STUDY_REGIONS,
            region_skew=0.85,
            vocab=20000,
            zipf=1.0,
            hapax_share=0.85,
            location_pool=0,
            unresolvable_share=0.3,
            judged_regions=STUDY_REGIONS,
        ),
        "regions": STUDY_REGIONS,
        "sim": "full-cosine",
        "include_snippet": True,
        "shape": [
            ("similarity.cosine.nonzero_ratio", "<=", 0.25),
            ("geofilter.resolve.distinct_ratio", ">=", 0.8),
            ("porter.stem.distinct_ratio", ">=", 0.5),
        ],
    },
}


def resolve(name: str, region_codes: list[str]) -> dict:
    """The workload with "ALL" regions expanded to the region table."""
    workload = dict(WORKLOADS[name])
    if workload["regions"] == "ALL":
        workload["regions"] = list(region_codes)
    return workload


def shape_problems(name: str, metrics: dict, region_codes: list[str]) -> list[str]:
    """Traced-run metrics that break the workload's intended shape."""
    problems = []
    for metric, op, bound in WORKLOADS[name]["shape"]:
        if bound == "4x-others":
            # slice_corpus runs once per (query, engine, day) x region
            bound = 4 * max(
                p["queries"] * p["engines"] * p["days"]
                * len(resolve(other, region_codes)["regions"])
                for other, w in WORKLOADS.items()
                if other != name
                for p in [w["params"]]
            )
        value = metrics[metric]
        if not (value >= bound if op == ">=" else value <= bound):
            problems.append(f"shape: {metric} = {value:.4g}, expected {op} {bound}")
    return problems
