"""Bool-filtered aggregation contexts: `_search` bodies of the shape
``bool {must: [match], filter: [term/terms/range...]}`` + aggs — THE
dashboard request (query + keyword filter + time/numeric window, then
aggregate).  Filters install as ambient per-process context
(`searcher.ctx_filters`, broadcast to shard actors) and intersect at
the match-set chokepoints, so every whitelisted agg kind inherits
them in process and on shard actors.  Reference semantics: OpenSearch
filter-context clauses narrow the agg scope without affecting scoring
(reference dashboards: source/saved_objects/each-dashboard/*.ndjson
panel filters)."""

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index)
from siem_on_amazon_opensearch_service_ray.state.dsl import execute_dsl
from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

VOCAB = ["spark", "join", "shuffle", "sql", "table", "query", "index",
         "merge", "sort", "scan", "filter", "group"]
N = 400


def _frame() -> pd.DataFrame:
    rng = np.random.default_rng(7)
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB),
                                           int(rng.integers(5, 30))))
            for _ in range(N)]
    return pd.DataFrame({
        "doc_id": range(N), "text": docs,
        "lang": [["py", "go", "rs"][i % 3] for i in range(N)],
        "source": [["web", "app"][i % 2] for i in range(N)],
        "n_chars": rng.integers(10, 500, N).astype(np.int64)})


def _matches(df: pd.DataFrame) -> pd.DataFrame:
    has = df.text.map(lambda s: "spark" in set(
        re.findall(r"[a-z0-9_]+", s.lower())))
    return df[has & df.lang.isin(["py", "go"])
              & (df.n_chars >= 50) & (df.n_chars <= 300)]


BODY_FILTER = [{"terms": {"lang": ["py", "go"]}},
               {"range": {"n_chars": {"gte": 50, "lte": 300}}}]


def _body(aggs: dict) -> dict:
    return {"query": {"bool": {"must": [{"match": {"content": "spark"}}],
                               "filter": BODY_FILTER}},
            "size": 0, "aggs": aggs}


@pytest.fixture(scope="module")
def fagg_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("fagg")
    df = _frame()
    src = str(root / "d.parquet")
    pq.write_table(pa.Table.from_pandas(df[["doc_id", "text", "lang",
                                            "source", "n_chars"]]), src)
    idx = str(root / "idx")
    build_index([src], idx, IndexConfig(
        num_partitions=4,
        fields=(("content", "text", "base"),),
        keyword_fields=("lang", "source"), range_fields=("n_chars",),
        doc_id_col="doc_id", sha_col="text"))
    return idx, df


# The ids keep the names this suite has always reported: "term" runs
# the in-process searcher (the driver-side gather path the retired
# term-partitioned layout used), "doc" the actor-sharded one.
@pytest.fixture(scope="module", params=[False, True], ids=["term", "doc"])
def searcher(request, fagg_index):
    idx, df = fagg_index
    s = Searcher(idx, use_actors=request.param)
    yield s, df
    s.close()


def test_terms_with_metric_sub(searcher):
    s, df = searcher
    ref = _matches(df)
    a = execute_dsl(s, _body({
        "by_src": {"terms": {"field": "source", "size": 10},
                   "aggs": {"snc": {"sum": {"field": "n_chars"}}}}}))[
        "aggregations"]["by_src"]["buckets"]
    exp = (ref.groupby("source")
           .agg(n=("doc_id", "count"), snc=("n_chars", "sum"))
           .reset_index()
           .sort_values(["n", "source"], ascending=[False, True]))
    assert [(b["key"], b["doc_count"], b["snc"]["value"]) for b in a] \
        == [(r.source, r.n, float(r.snc)) for r in exp.itertuples()]


def test_stats_family(searcher):
    s, df = searcher
    ref = _matches(df)
    a = execute_dsl(s, _body({
        "st": {"stats": {"field": "n_chars"}},
        "xs": {"extended_stats": {"field": "n_chars"}},
        "av": {"avg": {"field": "n_chars"}},
        "mx": {"max": {"field": "n_chars"}},
        "vc": {"value_count": {"field": "n_chars"}},
        "ms": {"missing": {"field": "n_chars"}}}))["aggregations"]
    assert a["st"]["count"] == len(ref)
    assert a["st"]["sum"] == float(ref.n_chars.sum())
    assert a["st"]["min"] == float(ref.n_chars.min())
    assert a["st"]["max"] == float(ref.n_chars.max())
    assert a["av"]["value"] == pytest.approx(float(ref.n_chars.mean()))
    assert a["mx"]["value"] == float(ref.n_chars.max())
    assert a["vc"]["value"] == len(ref)          # field present on all
    assert a["ms"]["doc_count"] == 0
    assert a["xs"]["sum_sq"] == pytest.approx(
        float(np.square(ref.n_chars.values.astype(np.float64)).sum()))


def test_bucket_family(searcher):
    s, df = searcher
    ref = _matches(df)
    a = execute_dsl(s, _body({
        "hist": {"histogram": {"field": "n_chars", "interval": 100.0}},
        "card": {"cardinality": {"field": "source"}},
        "rng": {"range": {"field": "n_chars",
                          "ranges": [{"to": 150}, {"from": 150}]}}}))[
        "aggregations"]
    exp_hist = ref.groupby(ref.n_chars // 100 * 100).size()
    assert {b["key"]: b["doc_count"] for b in a["hist"]["buckets"]} \
        == {float(k): int(v) for k, v in exp_hist.items()}
    assert a["card"]["value"] == ref.source.nunique()
    lo = int((ref.n_chars < 150).sum())
    assert [b["doc_count"] for b in a["rng"]["buckets"]] \
        == [lo, len(ref) - lo]


def test_percentiles_and_mad(searcher):
    s, df = searcher
    ref = _matches(df)
    a = execute_dsl(s, _body({
        "p": {"percentiles": {"field": "n_chars", "percents": [50.0]}},
        "pr": {"percentile_ranks": {"field": "n_chars",
                                    "values": [150.0]}},
        "mad": {"median_absolute_deviation": {"field": "n_chars"}}}))[
        "aggregations"]
    v = np.sort(ref.n_chars.values.astype(np.float64))
    med = a["p"]["values"]["50"]
    # exact selection: the engine's quantile is an element of the set
    # and at least half the values lie on each side
    assert med in v
    assert (v <= med).sum() * 2 >= v.size
    assert a["pr"]["values"]["150"] == pytest.approx(
        100.0 * (v <= 150.0).sum() / v.size)
    assert a["mad"]["value"] in np.abs(v - np.median(v))


def test_percentiles_identical_on_both_paths(fagg_index):
    """The percentiles agg returns the same bits from shard actors and
    in process, filtered or not, and they are np.quantile's linear
    interpolation over the match set.  Single-digit percents and ones
    whose p/100*100 is not an exact float (29, 57) must resolve too."""
    idx, df = fagg_index
    percents = [0.0, 1.0, 12.5, 25.0, 29.0, 50.0, 57.0, 90.0, 99.0, 100.0]
    agg = {"p": {"percentiles": {"field": "n_chars",
                                 "percents": percents}}}
    plain = {"query": {"match": {"content": "spark"}}, "size": 0,
             "aggs": agg}
    full = df[df.text.map(lambda t: "spark" in set(
        re.findall(r"[a-z0-9_]+", t.lower())))]
    got = {}
    for actors in (False, True):
        s = Searcher(idx, use_actors=actors)
        try:
            got[actors] = [execute_dsl(s, b)["aggregations"]["p"]["values"]
                           for b in (_body(agg), plain)]
        finally:
            s.close()
    assert got[False] == got[True]
    for vals, ref in zip(got[False], (_matches(df), full)):
        v = ref.n_chars.values.astype(np.float64)
        assert vals == {f"{p:g}": float(np.quantile(v, p / 100.0))
                        for p in percents}


def test_filters_compose_and_clear(searcher):
    """The ambient context clears after the request: an unfiltered
    follow-up sees the full match set again."""
    s, df = searcher
    full = df[df.text.map(lambda t: "spark" in set(
        re.findall(r"[a-z0-9_]+", t.lower())))]
    body = {"query": {"match": {"content": "spark"}}, "size": 0,
            "aggs": {"vc": {"value_count": {"field": "n_chars"}}}}
    filtered = execute_dsl(s, _body(
        {"vc": {"value_count": {"field": "n_chars"}}}))
    unfiltered = execute_dsl(s, body)
    assert filtered["aggregations"]["vc"]["value"] == len(_matches(df))
    assert unfiltered["aggregations"]["vc"]["value"] == len(full)


def test_hits_unaffected_by_agg_filters(searcher):
    """Filter clauses narrow BOTH hits (via search_bool's filter
    params) and aggs — but the agg context must not leak into a
    later plain query's scoring."""
    s, df = searcher
    execute_dsl(s, _body({"vc": {"value_count": {"field": "n_chars"}}}))
    hits = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                           "size": 500})["hits"]["hits"]
    full = df[df.text.map(lambda t: "spark" in set(
        re.findall(r"[a-z0-9_]+", t.lower())))]
    assert len(hits) == len(full)


def test_unsupported_kind_raises(searcher):
    s, _ = searcher
    with pytest.raises(ValueError, match="bool-filtered context"):
        execute_dsl(s, _body({"th": {"top_hits": {"size": 3}}}))


def test_bad_bool_context_raises(searcher):
    s, _ = searcher
    # a must_not MATCH clause is not a filter-table op — refuse
    with pytest.raises(ValueError, match="must_not 'match' unsupported"):
        execute_dsl(s, {"query": {"bool": {
                            "must_not": [{"match": {"content": "sql"}}],
                            "filter": BODY_FILTER}},
                        "size": 0,
                        "aggs": {"vc": {"value_count":
                                        {"field": "n_chars"}}}})
    # should clauses have no filter-context meaning
    with pytest.raises(ValueError, match="no should"):
        execute_dsl(s, {"query": {"bool": {
                            "should": [{"match": {"content": "sql"}}],
                            "filter": BODY_FILTER}},
                        "size": 0,
                        "aggs": {"vc": {"value_count":
                                        {"field": "n_chars"}}}})


def test_must_not_and_exists_context(searcher):
    """Negated filter pills (must_not term/terms) and exists filters
    — the reference dashboards' searchSourceJSON filter shapes."""
    s, df = searcher
    base = df[df.text.map(lambda t: "spark" in set(
        re.findall(r"[a-z0-9_]+", t.lower())))]
    ref = base[base.lang != "rs"]
    a = execute_dsl(s, {
        "query": {"bool": {
            "must": [{"match": {"content": "spark"}}],
            "must_not": [{"term": {"lang": "rs"}}]}},
        "size": 0,
        "aggs": {"vc": {"value_count": {"field": "n_chars"}}}})
    assert a["aggregations"]["vc"]["value"] == len(ref)
    # exists on a keyword field present everywhere: no-op narrowing
    a2 = execute_dsl(s, {
        "query": {"bool": {
            "must": [{"match": {"content": "spark"}}],
            "filter": [{"exists": {"field": "source"}}]}},
        "size": 0,
        "aggs": {"vc": {"value_count": {"field": "n_chars"}}}})
    assert a2["aggregations"]["vc"]["value"] == len(base)
    # exists on an unknown field: empty set
    a3 = execute_dsl(s, {
        "query": {"bool": {
            "must": [{"match": {"content": "spark"}}],
            "filter": [{"exists": {"field": "nope"}}]}},
        "size": 0,
        "aggs": {"vc": {"value_count": {"field": "n_chars"}}}})
    assert a3["aggregations"]["vc"]["value"] == 0
    # pure context with only a must_not: no base set — refuse
    with pytest.raises(ValueError, match="POSITIVE"):
        execute_dsl(s, {
            "query": {"bool": {"must_not": [{"term": {"lang": "rs"}}]}},
            "size": 0,
            "aggs": {"vc": {"value_count": {"field": "n_chars"}}}})
    # pure positive + negated: range base minus one lang
    pure = df[(df.n_chars >= 50) & (df.n_chars <= 300)
              & (df.lang != "rs")]
    a4 = execute_dsl(s, {
        "query": {"bool": {
            "filter": [{"range": {"n_chars": {"gte": 50, "lte": 300}}}],
            "must_not": [{"term": {"lang": "rs"}}]}},
        "size": 0,
        "aggs": {"vc": {"value_count": {"field": "n_chars"}}}})
    assert a4["aggregations"]["vc"]["value"] == len(pure)
    with pytest.raises(ValueError, match="gte/lte"):
        execute_dsl(s, _body({"vc": {"value_count":
                                     {"field": "n_chars"}}})
                    | {"query": {"bool": {
                        "must": [{"match": {"content": "spark"}}],
                        "filter": [{"range": {"n_chars": {"gt": 5}}}]}}})


def test_filter_agg_takes_bool_context(searcher):
    """The singular filter agg (match_all outer) accepts the same
    bool shape — pure OpenSearch filter-context aggregation."""
    s, df = searcher
    ref = _matches(df)
    out = execute_dsl(s, {"size": 0, "aggs": {"f": {
        "filter": {"bool": {"must": [{"match": {"content": "spark"}}],
                            "filter": BODY_FILTER}},
        "aggs": {"st": {"stats": {"field": "n_chars"}}}}}})[
        "aggregations"]["f"]
    assert out["doc_count"] == len(ref)
    assert out["st"]["sum"] == float(ref.n_chars.sum())


def test_pure_filter_context(searcher):
    """bool {filter: [...]} with NO match must — the time-window /
    keyword-only dashboard context: the first filter's ids are the
    base set, the rest intersect; no term lookup happens."""
    s, df = searcher
    ref = df[df.lang.isin(["py", "go"])
             & (df.n_chars >= 50) & (df.n_chars <= 300)]
    a = execute_dsl(s, {
        "query": {"bool": {"filter": BODY_FILTER}}, "size": 0,
        "aggs": {"by_src": {"terms": {"field": "source", "size": 10}},
                 "st": {"stats": {"field": "n_chars"}},
                 "vc": {"value_count": {"field": "n_chars"}}}})[
        "aggregations"]
    exp = (ref.groupby("source").size().reset_index(name="n")
           .sort_values(["n", "source"], ascending=[False, True]))
    assert [(b["key"], b["doc_count"]) for b in a["by_src"]["buckets"]] \
        == [(r.source, r.n) for r in exp.itertuples()]
    assert a["st"]["count"] == len(ref)
    assert a["st"]["sum"] == float(ref.n_chars.sum())
    assert a["vc"]["value"] == len(ref)


def test_pure_filter_agg_context(searcher):
    """The singular filter agg with a filters-only bool — pure
    OpenSearch filter-context aggregation under match_all."""
    s, df = searcher
    ref = df[(df.n_chars >= 50) & (df.n_chars <= 300)]
    out = execute_dsl(s, {"size": 0, "aggs": {"f": {
        "filter": {"bool": {"filter": [
            {"range": {"n_chars": {"gte": 50, "lte": 300}}}]}},
        "aggs": {"mx": {"max": {"field": "n_chars"}}}}}})[
        "aggregations"]["f"]
    assert out["doc_count"] == len(ref)
    assert out["mx"]["value"] == float(ref.n_chars.max())


def test_empty_bool_context_raises(searcher):
    s, _ = searcher
    with pytest.raises(ValueError, match="at least one filter"):
        execute_dsl(s, {"query": {"bool": {}}, "size": 0,
                        "aggs": {"vc": {"value_count":
                                        {"field": "n_chars"}}}})


def test_count_with_bool(searcher):
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_count)
    s, df = searcher
    ref = _matches(df)
    n = execute_count(s, {"query": {"bool": {
        "must": [{"match": {"content": "spark"}}],
        "filter": BODY_FILTER}}})["count"]
    assert n == len(ref)
    pure = df[df.lang.isin(["py", "go"])
              & (df.n_chars >= 50) & (df.n_chars <= 300)]
    n2 = execute_count(s, {"query": {"bool":
                                     {"filter": BODY_FILTER}}})["count"]
    assert n2 == len(pure)


def test_remaining_whitelist_kinds(searcher):
    """The whitelisted kinds not covered above: multi_terms,
    rare_terms, date_range, weighted_avg, string_stats, boxplot —
    each against the pandas reference under the filtered context."""
    s, df = searcher
    ref = _matches(df)
    a = execute_dsl(s, _body({
        "mt": {"multi_terms": {"terms": [{"field": "lang"},
                                         {"field": "source"}],
                               "size": 100}},
        "rare": {"rare_terms": {"field": "source",
                                "max_doc_count": 1000}},
        "dr": {"date_range": {"field": "n_chars",
                              "ranges": [{"to": 150},
                                         {"from": 150}]}},
        "wa": {"weighted_avg": {"value": {"field": "n_chars"},
                                "weight": {"field": "n_chars"}}},
        "ss": {"string_stats": {"field": "source"}},
        "bx": {"boxplot": {"field": "n_chars"}}}))["aggregations"]
    exp_mt = (ref.groupby(["lang", "source"]).size()
              .reset_index(name="n")
              .sort_values(["n", "lang", "source"],
                           ascending=[False, True, True]))
    assert [(tuple(b["key"]), b["doc_count"])
            for b in a["mt"]["buckets"]] \
        == [((r.lang, r.source), r.n) for r in exp_mt.itertuples()]
    exp_rare = ref.groupby("source").size()
    assert {b["key"]: b["doc_count"] for b in a["rare"]["buckets"]} \
        == {k: int(v) for k, v in exp_rare.items() if v <= 1000}
    lo = int((ref.n_chars < 150).sum())
    assert [b["doc_count"] for b in a["dr"]["buckets"]] \
        == [lo, len(ref) - lo]
    v = ref.n_chars.values.astype(np.float64)
    assert a["wa"]["value"] == pytest.approx(
        float((v * v).sum() / v.sum()))
    assert a["ss"]["count"] == len(ref)
    assert a["ss"]["min_length"] == 3 and a["ss"]["max_length"] == 3
    assert a["bx"]["min"] == float(v.min())
    assert a["bx"]["max"] == float(v.max())
    assert a["bx"]["q2"] in v


def test_significant_terms_filtered_context(searcher):
    """sig_terms under a filtered context: foreground = the narrowed
    match set, background = the whole corpus (OpenSearch
    'anomalous within this window' semantics) — JLH recomputed
    against the pandas reference."""
    s, df = searcher
    ref = _matches(df)
    a = execute_dsl(s, _body({
        "sig": {"significant_terms": {"field": "lang",
                                      "size": 10}}}))[
        "aggregations"]["sig"]["buckets"]
    fg = ref.groupby("lang").size()
    bg = df.groupby("lang").size()
    fg_t, bg_t = float(fg.sum()), float(bg.sum())
    exp = []
    for v, n in fg.items():
        fg_pct, bg_pct = n / fg_t, bg[v] / bg_t
        if fg_pct > bg_pct:
            exp.append((v, int(n),
                        (fg_pct - bg_pct) * (fg_pct / bg_pct)))
    exp.sort(key=lambda t: (-t[2], t[0]))
    got = [(b["key"], b["doc_count"]) for b in a]
    assert got == [(v, n) for v, n, _ in exp]
    for b, (_, _, sc) in zip(a, exp):
        assert b["score"] == pytest.approx(sc)


def test_wildcard_filter_context(searcher):
    """`wildcard` bool filter clause (kw_like): the value dictionary
    matches shard-side, the doc lists union — here lang p* = py."""
    s, df = searcher
    base = df[df.text.map(lambda t: "spark" in set(
        re.findall(r"[a-z0-9_]+", t.lower())))]
    ref = base[base.lang.str.match(r"p.*")]
    a = execute_dsl(s, {
        "query": {"bool": {
            "must": [{"match": {"content": "spark"}}],
            "filter": [{"wildcard": {"lang": "p*"}}]}},
        "size": 0,
        "aggs": {"vc": {"value_count": {"field": "n_chars"}}}})
    assert a["aggregations"]["vc"]["value"] == len(ref)
    # negated wildcard
    ref2 = base[~base.lang.str.match(r"p.*")]
    a2 = execute_dsl(s, {
        "query": {"bool": {
            "must": [{"match": {"content": "spark"}}],
            "must_not": [{"wildcard": {"lang": "p*"}}]}},
        "size": 0,
        "aggs": {"vc": {"value_count": {"field": "n_chars"}}}})
    assert a2["aggregations"]["vc"]["value"] == len(ref2)


def test_filters_agg_with_bool_entries(searcher):
    """Named `filters` agg buckets may be bool shapes — each bucket
    counts its own filter context by per-shard set algebra."""
    s, df = searcher
    spark = df[df.text.map(lambda t: "spark" in set(
        re.findall(r"[a-z0-9_]+", t.lower())))]
    out = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"f": {"filters": {"filters": {
            "py_small": {"bool": {
                "must": [{"match": {"content": "spark"}}],
                "filter": [{"term": {"lang": "py"}},
                           {"range": {"n_chars": {"lte": 250}}}]}},
            "any_go": {"bool": {"filter": [{"term": {"lang": "go"}}]}},
            "sql_docs": {"match": {"content": "sql"}},
        }}}}})["aggregations"]["f"]["buckets"]
    exp_py = len(spark[(spark.lang == "py") & (spark.n_chars <= 250)])
    assert out["py_small"]["doc_count"] == exp_py
    assert out["any_go"]["doc_count"] == len(df[df.lang == "go"])
    assert out["sql_docs"]["doc_count"] > 0


def test_composite_filtered_context(searcher):
    """composite paging under filtered AND pure filter contexts."""
    s, df = searcher
    ref = _matches(df)
    a = execute_dsl(s, _body({
        "c": {"composite": {
            "size": 100,
            "sources": [{"l": {"terms": {"field": "lang"}}},
                        {"s": {"terms": {"field": "source"}}}]}}}))[
        "aggregations"]["c"]
    exp = (ref.groupby(["lang", "source"]).size()
           .reset_index(name="n")
           .sort_values(["lang", "source"]))
    assert [(b["key"]["l"], b["key"]["s"], b["doc_count"])
            for b in a["buckets"]] \
        == [(r.lang, r.source, r.n) for r in exp.itertuples()]
    # pure context
    pref = df[(df.n_chars >= 50) & (df.n_chars <= 300)]
    a2 = execute_dsl(s, {
        "query": {"bool": {"filter": [
            {"range": {"n_chars": {"gte": 50, "lte": 300}}}]}},
        "size": 0,
        "aggs": {"c": {"composite": {
            "size": 100,
            "sources": [{"l": {"terms": {"field": "lang"}}}]}}}})[
        "aggregations"]["c"]
    exp2 = pref.groupby("lang").size().sort_index()
    assert [(b["key"]["l"], b["doc_count"]) for b in a2["buckets"]] \
        == [(k, int(v)) for k, v in exp2.items()]
