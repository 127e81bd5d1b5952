"""Community tweet voting for news search rankings.

Pipeline: ingest tweets and attach regions, slice the corpus per
(query, region, day, engine), let each tweet vote for every news result
by text similarity, re-rank by votes, and score rankings against human
judgments with NDCG.
"""

from .corpus import (
    CorpusSlice,
    NewsDoc,
    Query,
    Tweet,
    ingest_tweets,
    load_news,
    load_queries,
    slice_corpus,
)
from .errors import ContractViolation, CtvmError, InputDataError
from .evaluation import NdcgConfig, compare, dcg, mean_ndcg, ndcg
from .geofilter import RegionTable, load_region_table
from .judgments import (
    Label,
    RelevanceLookup,
    aggregate,
    load_judgment_records,
    parse_label,
)
from .porter import stem
from .similarity import cosine
from .textproc import Pipeline, load_stopwords, to_vector, tokenize
from .voting import engine_ranking, rerank, vote

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "CorpusSlice",
    "CtvmError",
    "InputDataError",
    "Label",
    "NdcgConfig",
    "NewsDoc",
    "Pipeline",
    "Query",
    "RegionTable",
    "RelevanceLookup",
    "Tweet",
    "aggregate",
    "compare",
    "cosine",
    "dcg",
    "engine_ranking",
    "ingest_tweets",
    "load_judgment_records",
    "load_news",
    "load_queries",
    "load_region_table",
    "load_stopwords",
    "mean_ndcg",
    "ndcg",
    "parse_label",
    "rerank",
    "slice_corpus",
    "stem",
    "to_vector",
    "tokenize",
    "vote",
]
