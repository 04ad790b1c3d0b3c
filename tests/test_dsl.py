"""execute_dsl: OpenSearch JSON request bodies vs direct engine calls
— every supported query node and a broad agg slice must produce
byte-identical results to the method they lower onto, plus
response-shape and unsupported-node contracts."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index)
from siem_on_amazon_opensearch_service_ray.state.dsl import execute_dsl
from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

VOCAB = ["spark", "join", "shuffle", "sql", "table", "query", "merge",
         "sort", "scan", "filter"]
N = 200


@pytest.fixture(scope="module")
def dsl_s(ray_session, tmp_path_factory):
    rng = np.random.default_rng(99)
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB),
                                           int(rng.integers(5, 25))))
            for _ in range(N)]
    t = pa.table({
        "doc_id": pa.array(range(N), pa.int64()),
        "text": docs,
        "lang": [["py", "go", "rs"][i % 3] for i in range(N)],
        "repo": [f"r{i % 4}" for i in range(N)],
        "msm": pa.array([(i % 3) + 1.0 for i in range(N)], pa.float64()),
        "lat": pa.array([-10.0 + (i % 30) * 0.7 for i in range(N)],
                        pa.float64()),
        "lon": pa.array([5.0 + (i % 30) * 1.1 for i in range(N)],
                        pa.float64()),
    })
    root = tmp_path_factory.mktemp("dsl_exec")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),),
                      keyword_fields=("lang", "repo"),
                      range_fields=("msm", "lat", "lon"),
                      doc_id_col="doc_id", sha_col="text",
                      store_positions=True)
    build_index([src], idx, cfg)
    s = Searcher(idx, use_actors=False)
    yield s
    s.close()


def _ids(resp):
    return [(h["_score"], h["_id"]) for h in resp["hits"]["hits"]]


def test_dsl_query_nodes(dsl_s):
    s = dsl_s
    # match (or / and)
    r = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                        "size": 7})
    assert _ids(r) == s.search("spark join", k=7)
    r = execute_dsl(s, {"query": {"match": {"content": {
        "query": "spark join", "operator": "and"}}}, "size": 5})
    assert _ids(r) == s.search("spark join", k=5, mode="and")
    # match_phrase (scored + slop)
    r = execute_dsl(s, {"query": {"match_phrase": {
        "content": "spark join"}}, "size": 5})
    assert _ids(r) == s.phrase_search_scored("spark join", k=5)
    r = execute_dsl(s, {"query": {"match_phrase": {"content": {
        "query": "spark join", "slop": 1}}}, "size": 5})
    assert _ids(r) == [(float(tf), d) for tf, d in
                       s.phrase_search("spark join", k=5, slop=1)]
    # bool with filter + range
    body = {"query": {"bool": {
        "must": [{"match": {"content": "spark"}}],
        "should": [{"match": {"content": "join"}}],
        "must_not": [{"match": {"content": "sql"}}],
        "filter": [{"term": {"lang": "py"}},
                   {"range": {"msm": {"gte": 1, "lte": 2}}}]}},
        "size": 10}
    r = execute_dsl(s, body)
    assert _ids(r) == s.search_bool(
        must=["spark"], should=["join"], must_not=["sql"],
        filter_field="lang", filter_value="py",
        range_field="msm", range_lo=1, range_hi=2, k=10)
    # terms_set / prefix / fuzzy / query_string family
    r = execute_dsl(s, {"query": {"terms_set": {"content": {
        "terms": ["spark", "join", "shuffle"],
        "minimum_should_match_field": "msm"}}}, "size": 6})
    assert _ids(r) == s.terms_set_search(
        ["spark", "join", "shuffle"], msm_field="msm", k=6)
    r = execute_dsl(s, {"query": {"prefix": {"content": "sh"}},
                        "size": 4})
    assert _ids(r) == s.prefix_search("sh", "content", 4)
    r = execute_dsl(s, {"query": {"simple_query_string": {
        "query": "spark | merge -sql"}}, "size": 6})
    assert _ids(r) == s.simple_query_string("spark | merge -sql", k=6)
    # scoring wrappers
    r = execute_dsl(s, {"query": {"constant_score": {
        "filter": {"match": {"content": "spark"}}, "boost": 2.0}},
        "size": 4})
    assert _ids(r) == s.constant_score("spark", boost=2.0, k=4)
    r = execute_dsl(s, {"query": {"script_score": {
        "query": {"match": {"content": "spark"}},
        "script": {"source": "_score + msm"}, "fields": ["msm"]}},
        "size": 5})
    assert _ids(r) == s.script_score_search("spark", "_score + msm",
                                            ("msm",), k=5)
    r = execute_dsl(s, {"query": {"rank_feature": {
        "query": {"match": {"content": "spark"}}, "field": "msm",
        "saturation": {"pivot": 2.0}, "boost": 1.5}}, "size": 5})
    assert _ids(r) == s.rank_feature_search(
        "spark", "msm", pivot=2.0, boost=1.5, k=5)
    # exists / ids / pinned / range
    r = execute_dsl(s, {"query": {"exists": {"field": "msm"}},
                        "size": 5})
    assert _ids(r) == s.exists_search("msm", k=5)
    r = execute_dsl(s, {"query": {"ids": {"values": [3, 999, 7]}}})
    assert _ids(r) == s.ids_search([3, 999, 7], k=10)
    r = execute_dsl(s, {"query": {"pinned": {
        "ids": [9, 4], "organic": {"match": {"content": "spark"}}}},
        "size": 5})
    assert _ids(r) == s.pinned_search("spark", [9, 4], k=5)
    r = execute_dsl(s, {"query": {"range": {"msm": {"gte": 3}}},
                        "size": 5})
    assert [d for _, d in _ids(r)] == [i for i in range(N)
                                       if i % 3 == 2][:5]
    # collapse rides the top-level key
    r = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                        "collapse": {"field": "lang"}, "size": 3})
    direct = s.collapse_search("spark join", "lang", k=3)
    assert [(h["_score"], h["_id"], h["fields"]["lang"][0])
            for h in r["hits"]["hits"]] == direct


def test_dsl_aggs(dsl_s):
    s = dsl_s
    body = {
        "query": {"match": {"content": "spark join"}},
        "size": 0,
        "aggs": {
            "by_lang": {"terms": {"field": "lang", "size": 5}},
            "pairs": {"multi_terms": {
                "terms": [{"field": "lang"}, {"field": "repo"}],
                "size": 4}},
            "nv": {"cardinality": {"field": "repo"}},
            "msm_stats": {"extended_stats": {"field": "msm"}},
            "msm_pct": {"percentiles": {"field": "msm",
                                        "percents": [50.0]}},
            "hist": {"histogram": {"field": "msm", "interval": 1.0},
                     "aggs": {"cum": {"cumulative_sum": {}}}},
            "rings": {"geo_distance": {
                "lat_field": "lat", "lon_field": "lon",
                "origin": {"lat": 0.0, "lon": 0.0},
                "ranges": [{"to": 1500.0}, {"from": 1500.0}]}},
            "sm": {"scripted_metric": {
                "fields": ["msm"], "map_script": "msm * 2",
                "reduce_script": "state / count"}},
        },
    }
    r = execute_dsl(s, body)
    assert r["hits"]["hits"] == []
    a = r["aggregations"]
    want_terms = s.terms_aggregation("spark join", "lang")
    assert a["by_lang"]["buckets"] == [
        {"key": v, "doc_count": n} for v, n in want_terms[:5]]
    want_pairs = s.multi_terms_aggregation("spark join",
                                           ("lang", "repo"))
    assert a["pairs"]["buckets"] == [
        {"key": [x, y], "doc_count": n} for x, y, n in want_pairs[:4]]
    assert a["nv"]["value"] == s.cardinality_aggregation("spark join",
                                                         "repo")
    st = s.stats_aggregation("spark join", "msm")
    assert a["msm_stats"]["variance"] == st["variance"]
    stq = s.stats_aggregation("spark join", "msm", quantiles=(0.5,),
                              quantile_method="exact")
    assert a["msm_pct"]["values"]["50"] == stq["p50"]
    hb = s.histogram_aggregation("spark join", "msm", 1.0)
    assert a["hist"]["buckets"] == [
        {"key": b, "doc_count": n} for b, n in hb]
    assert a["hist"]["cum"] == list(np.cumsum([n for _, n in hb]))
    assert sum(b["doc_count"] for b in a["rings"]["buckets"]) <= \
        sum(n for _, n in want_terms)
    sm = s.scripted_metric("spark join", ("msm",), "msm * 2",
                           "state / count")
    assert a["sm"] == sm


def test_dsl_contracts(dsl_s):
    s = dsl_s
    with pytest.raises(ValueError, match="unsupported query node"):
        execute_dsl(s, {"query": {"nested": {}}})
    with pytest.raises(ValueError, match="filter-context"):
        execute_dsl(s, {"query": {"term": {"lang": "py"}}})
    with pytest.raises(ValueError, match="match/bool query context"):
        execute_dsl(s, {"query": {"match_all": {}}, "size": 0,
                        "aggs": {"x": {"terms": {"field": "lang"}}}})
    with pytest.raises(ValueError, match="unsupported aggregation"):
        execute_dsl(s, {"query": {"match": {"content": "spark"}},
                        "aggs": {"x": {"nope": {}}}})
    # total relation: gte when the page filled, eq otherwise
    r = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                        "size": 3})
    assert r["hits"]["total"]["relation"] == "gte"
    r = execute_dsl(s, {"query": {"ids": {"values": [1]}}, "size": 10})
    assert r["hits"]["total"] == {"value": 1, "relation": "eq"}


@pytest.fixture(scope="module")
def hl_s(ray_session, tmp_path_factory):
    """Tiny store_source index for the highlight fetch surface."""
    docs = ["alpha beta spark gamma delta", "join the spark table now",
            "nothing relevant here at all", "spark spark join end"]
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": docs})
    root = tmp_path_factory.mktemp("dsl_hl")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    cfg = IndexConfig(num_partitions=2,
                      fields=(("content", "text", "base"),),
                      keyword_fields=(), range_fields=(),
                      doc_id_col="doc_id", sha_col="text",
                      store_source=True)
    build_index([src], idx, cfg)
    s = Searcher(idx, use_actors=False)
    yield s
    s.close()


def test_dsl_highlight(dsl_s, hl_s):
    # success path: fragments wrap every matched token, rank order kept
    r = execute_dsl(hl_s, {"query": {"match": {"content": "spark join"}},
                           "highlight": {"fields": {"content": {}}},
                           "size": 10})
    assert r["hits"]["total"]["value"] == 3
    by_id = {h["_id"]: h for h in r["hits"]["hits"]}
    assert 2 not in by_id
    frag3 = by_id[3]["highlight"]["content"][0]
    assert frag3 == "<em>spark</em> <em>spark</em> <em>join</em> end"
    frag0 = by_id[0]["highlight"]["content"][0]
    assert "<em>spark</em>" in frag0 and "<em>" + "beta" not in frag0
    # scores must equal the plain ranked query's
    plain = execute_dsl(hl_s, {"query": {"match": {"content":
                                                   "spark join"}},
                               "size": 10})
    assert [(h["_id"], h["_score"]) for h in r["hits"]["hits"]] == \
        [(h["_id"], h["_score"]) for h in plain["hits"]["hits"]]
    # direct method: window bounds clip at doc edges
    rows = hl_s.highlight("spark", k=4, window=1)
    assert all(f == "" or "<em>spark</em>" in f for _, _, f in rows)
    # error contracts: no _source stored / non-match query / wrong field
    with pytest.raises(ValueError, match="store_source"):
        execute_dsl(dsl_s, {"query": {"match": {"content": "spark"}},
                            "highlight": {"fields": {"content": {}}}})
    with pytest.raises(ValueError, match="not.*supported|use match"):
        execute_dsl(hl_s, {"query": {"ids": {"values": [1]}},
                           "highlight": {"fields": {"content": {}}}})
    with pytest.raises(ValueError, match="field"):
        execute_dsl(hl_s, {"query": {"match": {"content": "spark"}},
                           "highlight": {"fields": {"other": {}}}})
    # custom tags pass through
    r2 = execute_dsl(hl_s, {"query": {"match": {"content": "join"}},
                            "highlight": {"fields": {"content": {}},
                                          "pre_tags": ["**"],
                                          "post_tags": ["**"]}})
    assert all("**join**" in h["highlight"]["content"][0]
               for h in r2["hits"]["hits"])


def test_dsl_rescore(dsl_s):
    """rescore body: lowers onto rescore_search with the body's
    window/weights; hits match the direct call, aggs still execute."""
    s = dsl_s
    body = {"query": {"match": {"content": "spark join"}},
            "rescore": {"window_size": 30,
                        "query": {"rescore_query":
                                  {"match": {"content": "merge sort"}},
                                  "query_weight": 0.9,
                                  "rescore_query_weight": 1.3}},
            "size": 8,
            "aggs": {"langs": {"terms": {"field": "lang"}}}}
    r = execute_dsl(s, body)
    want = s.rescore_search("spark join", "merge sort", k=8,
                            window_size=30, query_weight=0.9,
                            rescore_query_weight=1.3, field="content")
    assert _ids(r) == [(sc, d) for sc, d in want]
    assert r["hits"]["total"]["value"] == 8
    assert "langs" in r["aggregations"]
    # defaults: window_size 10, weights 1.0
    r2 = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                         "rescore": {"query": {"rescore_query":
                                     {"match": {"content": "sort"}}}},
                         "size": 5})
    want2 = s.rescore_search("spark", "sort", k=5, window_size=10)
    assert _ids(r2) == [(sc, d) for sc, d in want2]
    # contract: only match primaries / match rescore queries
    with pytest.raises(ValueError, match="match"):
        execute_dsl(s, {"query": {"ids": {"values": [1]}},
                        "rescore": {"query": {"rescore_query":
                                    {"match": {"content": "x"}}}},
                        "size": 3})
    with pytest.raises(ValueError, match="rescore_query"):
        execute_dsl(s, {"query": {"match": {"content": "spark"}},
                        "rescore": {"query": {"rescore_query":
                                    {"ids": {"values": [1]}}}},
                        "size": 3})


def test_dsl_count_msearch_wrapper(dsl_s):
    """_count / _msearch / wrapper surfaces against direct engine calls."""
    import base64
    import json
    s = dsl_s
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_count, execute_msearch)
    n = execute_count(s, {"query": {"match": {"content": "spark"}}})
    assert n["count"] == s.match_count("spark")
    assert execute_count(s, {})["count"] == int(s.stats["n_docs"])
    both = execute_count(s, {"query": {"match": {"content": {
        "query": "spark join", "operator": "and"}}}})["count"]
    assert both == s.match_count("spark join", mode="and") <= \
        s.match_count("spark join")
    # non-match nodes count their executed match set
    ids_n = execute_count(s, {"query": {"ids": {"values": [1, 2, 999999]}}})
    assert ids_n["count"] == 2
    # msearch: order kept, headers skipped, per-item error isolation
    r = execute_msearch(s, [
        {"index": "x"}, {"query": {"match": {"content": "spark"}}, "size": 3},
        {}, {"query": {"bogus": {}}},
        {"query": {"match": {"content": "join"}}, "size": 2},
    ])
    assert len(r["responses"]) == 3
    assert len(r["responses"][0]["hits"]["hits"]) == 3
    assert "error" in r["responses"][1]
    assert len(r["responses"][2]["hits"]["hits"]) == 2
    # wrapper: base64 body executes as the inner node
    inner = {"match": {"content": "spark join"}}
    b64 = base64.b64encode(json.dumps(inner).encode()).decode()
    rw = execute_dsl(s, {"query": {"wrapper": {"query": b64}}, "size": 5})
    rp = execute_dsl(s, {"query": inner, "size": 5})
    assert rw["hits"] == rp["hits"]


def test_term_vectors(hl_s, dsl_s):
    """_termvectors: realtime from _source; tf + first position; guards."""
    rows = hl_s.term_vectors(3)      # "spark spark join end"
    assert rows == [("end", 1, 3), ("join", 1, 2), ("spark", 2, 0)]
    assert hl_s.term_vectors(999999) == []
    import pytest as _pytest
    with _pytest.raises(ValueError, match="store_source"):
        dsl_s.term_vectors(0)


def test_dsl_from_and_search_after(dsl_s):
    """Offset paging (`from`) and score-sorted cursor paging
    (`search_after`) both reproduce slices of the full ranking."""
    s = dsl_s
    full = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                           "size": 12})["hits"]["hits"]
    page2 = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                            "from": 4, "size": 4})["hits"]["hits"]
    assert [(h["_id"], h["_score"]) for h in page2] == \
        [(h["_id"], h["_score"]) for h in full[4:8]]
    # cursor paging: resume after page-1's last (score, doc_id)
    p1 = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                         "size": 4})["hits"]["hits"]
    cursor = [p1[-1]["_score"], p1[-1]["_id"]]
    p2 = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                         "search_after": cursor, "size": 4})["hits"]["hits"]
    assert [(h["_id"], h["_score"]) for h in p2] == \
        [(h["_id"], h["_score"]) for h in full[4:8]]
    assert p2[0]["sort"] == [p2[0]["_score"], p2[0]["_id"]]
    # error contracts
    import pytest as _pytest
    with _pytest.raises(ValueError, match="from"):
        execute_dsl(s, {"query": {"match": {"content": "spark"}},
                        "from": -1})
    with _pytest.raises(ValueError, match="search_after"):
        execute_dsl(s, {"query": {"ids": {"values": [1]}},
                        "search_after": [1.0, 1]})
    with _pytest.raises(ValueError, match="rescore|highlight"):
        execute_dsl(s, {"query": {"match": {"content": "spark"}},
                        "from": 2,
                        "rescore": {"query": {"rescore_query":
                                              {"match": {"content":
                                                         "join"}}}}})


def test_dsl_field_sort(dsl_s):
    """`sort` body key: per-shard boundary bisect over the range
    tables — asc/desc, match filter, from-offset, one-key contract."""
    s = dsl_s
    r = execute_dsl(s, {"sort": [{"msm": "desc"}], "size": 5})
    vals = [h["sort"][0] for h in r["hits"]["hits"]]
    assert vals == sorted(vals, reverse=True) and vals[0] == 3.0
    direct = s.field_sorted_search("msm", k=5, desc=True)
    assert [(h["sort"][0], h["_id"]) for h in r["hits"]["hits"]] == \
        [(float(v), int(d)) for v, d in direct]
    # asc default; string / dict / order forms agree
    a1 = execute_dsl(s, {"sort": "msm", "size": 4})
    a2 = execute_dsl(s, {"sort": [{"msm": {"order": "asc"}}], "size": 4})
    assert a1["hits"]["hits"] == a2["hits"]["hits"]
    # match query filters the sorted set
    rm = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                         "sort": [{"msm": "desc"}], "size": 6})
    dm = s.field_sorted_search("msm", k=6, desc=True, query="spark")
    assert [h["_id"] for h in rm["hits"]["hits"]] == \
        [int(d) for _, d in dm]
    # from-offset slices the sorted page
    off = execute_dsl(s, {"sort": [{"msm": "desc"}], "from": 2,
                          "size": 3})
    allr = execute_dsl(s, {"sort": [{"msm": "desc"}], "size": 5})
    assert off["hits"]["hits"] == allr["hits"]["hits"][2:]
    import pytest as _pytest
    with _pytest.raises(ValueError, match="tiebreak"):
        execute_dsl(s, {"sort": [{"msm": "asc"}, {"lat": "asc"}]})
    with _pytest.raises(ValueError, match="sort.*not supported|query"):
        execute_dsl(s, {"query": {"ids": {"values": [1]}},
                        "sort": [{"msm": "asc"}]})


def test_dsl_source_fetch(hl_s):
    """`_source` body key: one bulk docstore fetch; true = all stored
    columns, list = subset; works on every hit-producing path."""
    r = execute_dsl(hl_s, {"query": {"match": {"content": "spark join"}},
                           "_source": True, "size": 10})
    assert all(h["_source"]["text"] for h in r["hits"]["hits"])
    ids = {h["_id"] for h in r["hits"]["hits"]}
    r2 = execute_dsl(hl_s, {"query": {"match": {"content": "spark join"}},
                            "_source": ["text"], "size": 10})
    for h in r2["hits"]["hits"]:
        assert set(h["_source"]) == {"text"}
    # default: no _source key -> hits carry no _source
    r3 = execute_dsl(hl_s, {"query": {"match": {"content": "spark"}},
                            "size": 3})
    assert all("_source" not in h for h in r3["hits"]["hits"])
    assert ids == {h["_id"] for h in r2["hits"]["hits"]}


def test_execute_mget(hl_s):
    """_mget: one fetch_docs round trip, request order kept, found
    flags, per-doc _source projection."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_mget)
    r = execute_mget(hl_s, {"ids": [3, 0, 999999, 3]})
    assert [d["_id"] for d in r["docs"]] == [3, 0, 999999, 3]
    assert [d["found"] for d in r["docs"]] == [True, True, False, True]
    assert r["docs"][0]["_source"]["text"] == "spark spark join end"
    assert r["docs"][2]["_source"] is None
    r2 = execute_mget(hl_s, {"docs": [
        {"_id": 1, "_source": ["text"]},
        {"_id": 2, "_source": False},
        {"_id": 0}]})
    assert set(r2["docs"][0]["_source"]) == {"text"}
    assert r2["docs"][1]["found"] and r2["docs"][1]["_source"] is None
    assert "doc_id" in r2["docs"][2]["_source"]
    import pytest as _pytest
    with _pytest.raises(ValueError, match="ids.*docs|docs.*ids"):
        execute_mget(hl_s, {})


def test_execute_analyze(dsl_s):
    """_analyze: tokens + true positions; array text gets the
    position_increment_gap; field resolves the index analyzer."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_analyze)
    r = execute_analyze({"analyzer": "base", "text": "Spark JOIN spark"})
    assert [(t["token"], t["position"]) for t in r["tokens"]] == \
        [("spark", 0), ("join", 1), ("spark", 2)]
    # array text: positions continue across elements with a 100 gap
    r2 = execute_analyze({"analyzer": "base", "text": ["a b", "c"]})
    assert [(t["token"], t["position"]) for t in r2["tokens"]] == \
        [("a", 0), ("b", 1), ("c", 102)]
    # field form resolves the configured analyzer from the index
    r3 = execute_analyze({"field": "content", "text": "spark join"},
                         searcher=dsl_s)
    assert [t["token"] for t in r3["tokens"]] == ["spark", "join"]
    import pytest as _pytest
    with _pytest.raises(ValueError, match="unknown analyzer"):
        execute_analyze({"analyzer": "nope", "text": "x"})
    with _pytest.raises(ValueError, match="text"):
        execute_analyze({"analyzer": "base"})
    with _pytest.raises(ValueError, match="field"):
        execute_analyze({"field": "content", "text": "x"})


def test_execute_explain(dsl_s):
    """_explain: the explanation value equals the doc's _search score
    exactly; unmatched docs report matched=False."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_explain)
    top = execute_dsl(dsl_s, {"query": {"match": {"content":
                                                  "spark join"}},
                              "size": 1})["hits"]["hits"][0]
    ex = execute_explain(dsl_s, top["_id"],
                         {"query": {"match": {"content": "spark join"}}})
    assert ex["matched"] and ex["_id"] == top["_id"]
    assert ex["explanation"]["value"] == pytest.approx(top["_score"])
    assert len(ex["explanation"]["details"]) == 2
    assert all("weight(content:" in d["description"]
               for d in ex["explanation"]["details"])
    import pytest as _pytest
    with _pytest.raises(ValueError, match="match"):
        execute_explain(dsl_s, 0, {"query": {"ids": {"values": [0]}}})


def test_dsl_track_total_hits(dsl_s):
    """track_total_hits: true — exact match-set total regardless of
    page size, on the ranked, sorted and match_all paths."""
    s = dsl_s
    exact = s.match_count("spark")
    r = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                        "size": 2, "track_total_hits": True})
    assert r["hits"]["total"] == {"value": exact, "relation": "eq"}
    assert len(r["hits"]["hits"]) == 2
    r2 = execute_dsl(s, {"sort": [{"msm": "desc"}], "size": 3,
                         "track_total_hits": True})
    assert r2["hits"]["total"] == {"value": int(s.stats["n_docs"]),
                                   "relation": "eq"}
    import pytest as _pytest
    with _pytest.raises(ValueError, match="track_total_hits"):
        execute_dsl(s, {"query": {"match": {"content": "spark"}},
                        "track_total_hits": 10000})


def test_dsl_field_sort_search_after(dsl_s):
    """search_after on a field sort: per-shard cursor bisect — pages
    chain to exactly the full sorted list, including through the big
    tie runs (msm has three values over 200 docs)."""
    s = dsl_s
    full = execute_dsl(s, {"sort": [{"msm": "desc"}],
                           "size": 200})["hits"]["hits"]
    assert len(full) == 200
    paged, cursor = [], None
    for _ in range(60):
        body = {"sort": [{"msm": "desc"}], "size": 7}
        if cursor is not None:
            body["search_after"] = cursor
        page = execute_dsl(s, body)["hits"]["hits"]
        if not page:
            break
        paged.extend(page)
        cursor = page[-1]["sort"]
    assert [(h["sort"][0], h["_id"]) for h in paged] == \
        [(h["sort"][0], h["_id"]) for h in full]
    # asc too, and under a match filter
    fa = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                         "sort": [{"msm": "asc"}],
                         "size": 100})["hits"]["hits"]
    p1 = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                         "sort": [{"msm": "asc"}],
                         "size": 5})["hits"]["hits"]
    p2 = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                         "sort": [{"msm": "asc"}], "size": 5,
                         "search_after": p1[-1]["sort"]})["hits"]["hits"]
    assert [h["_id"] for h in p1 + p2] == [h["_id"] for h in fa[:10]]
    # direct-method cursor equivalence on the boundary bisect
    rows = s.field_sorted_search("msm", k=200, desc=True)
    av, ad = rows[9]
    rest = s.field_sorted_search("msm", k=5, desc=True,
                                 after=(av, int(ad)))
    assert [(float(v), int(d)) for v, d in rest] == \
        [(float(v), int(d)) for v, d in rows[10:15]]
    import pytest as _pytest
    with _pytest.raises(ValueError, match="from"):
        execute_dsl(s, {"sort": [{"msm": "desc"}], "from": 3,
                        "search_after": [2.0, 5], "size": 5})
    with _pytest.raises(ValueError, match="search_after"):
        execute_dsl(s, {"sort": [{"msm": "desc"}],
                        "search_after": [2.0], "size": 5})


def test_field_sort_after_doc_sharded(dsl_s, tmp_path_factory):
    """The cursor bisect on the ACTOR path (sort_local): doc-sharded
    pages must equal the local-path pages exactly — k rows per shard,
    cursor applied inside each shard's bisect."""
    import dataclasses
    rng = np.random.default_rng(99)
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB),
                                           int(rng.integers(5, 25))))
            for _ in range(N)]
    t = pa.table({
        "doc_id": pa.array(range(N), pa.int64()),
        "text": docs,
        "msm": pa.array([(i % 3) + 1.0 for i in range(N)], pa.float64()),
    })
    root = tmp_path_factory.mktemp("dsl_sort_doc")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),),
                      keyword_fields=(), range_fields=("msm",),
                      doc_id_col="doc_id", sha_col="text")
    build_index([src], idx, cfg)
    s = Searcher(idx, use_actors=True)
    try:
        full = s.field_sorted_search("msm", k=40, desc=True)
        av, ad = full[12]
        rest = s.field_sorted_search("msm", k=8, desc=True,
                                     after=(float(av), int(ad)))
        assert [(float(v), int(d)) for v, d in rest] == \
            [(float(v), int(d)) for v, d in full[13:21]]
        # matches the driver-path fixture exactly (same data/seed)
        loc = dsl_s.field_sorted_search("msm", k=8, desc=True,
                                        after=(float(av), int(ad)))
        assert [(float(v), int(d)) for v, d in rest] == \
            [(float(v), int(d)) for v, d in loc]
    finally:
        s.close()


def test_delete_by_query(ray_session, tmp_path_factory):
    """_delete_by_query: term / match / range deletes tombstone live
    docs, the live Searcher (driver + actor pool) refreshes in place,
    re-delete is a no-op, match_all refuses."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_count, execute_delete_by_query)
    rng = np.random.default_rng(7)
    n = 120
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB),
                                           int(rng.integers(5, 20))))
            for _ in range(n)]
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": docs,
        "lang": [["py", "go", "rs"][i % 3] for i in range(n)],
        "age": pa.array([float(i) for i in range(n)], pa.float64()),
    })
    root = tmp_path_factory.mktemp("dbq")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),),
                      keyword_fields=("lang",), range_fields=("age",),
                      doc_id_col="doc_id", sha_col="text")
    build_index([src], idx, cfg)
    s = Searcher(idx, use_actors=True)
    try:
        live0 = execute_count(s, {})["count"]
        assert live0 == n
        # term delete: all lang=py docs (40 of 120)
        r = execute_delete_by_query(s, {"query": {"term":
                                                  {"lang": "py"}}})
        assert r["deleted"] == 40 and r["tombstones"] == 40
        assert execute_count(s, {})["count"] == n - 40
        # the live searcher no longer matches the deleted docs
        # (actor pool refreshed in the same call)
        hits = s.search("spark", k=200)
        assert all(int(d) % 3 != 0 for _, d in hits)
        # re-delete: idempotent, nothing newly dead
        r2 = execute_delete_by_query(s, {"query": {"term":
                                                   {"lang": "py"}}})
        assert r2["deleted"] == 0 and r2["total"] == 0
        # range delete (retention shape): age <= 9 — the live ones
        # are the non-py ids 1,2,4,5,7,8 (6 docs)
        r3 = execute_delete_by_query(s, {"query": {"range":
                                                   {"age": {"lte": 9}}}})
        assert r3["deleted"] == 6
        assert execute_count(s, {})["count"] == n - 46
        # match delete on a token
        tok = "shuffle"
        m = s.match_count(tok)
        r4 = execute_delete_by_query(s, {"query": {"match":
                                                   {"content": tok}}})
        assert r4["deleted"] == m
        assert execute_count(
            s, {"query": {"match": {"content": tok}}})["count"] == 0
        import pytest as _pytest
        with _pytest.raises(ValueError, match="match_all"):
            execute_delete_by_query(s, {"query": {"match_all": {}}})
        with _pytest.raises(ValueError, match="gte/lte"):
            execute_delete_by_query(s, {"query": {"range":
                                                  {"age": {"gt": 3}}}})
    finally:
        s.close()
    # the local (no-actor) searcher sees the same final state and
    # supports the same surface
    s2 = Searcher(idx, use_actors=False)
    final = execute_count(s2, {})["count"]
    assert final == n - 46 - m
    r5 = execute_delete_by_query(s2, {"query": {"term": {"lang": "go"}}})
    assert r5["deleted"] == r5["total"] > 0
    assert execute_count(s2, {"query": {"match_all": {}}})["count"] == \
        final - r5["deleted"]


def test_dsl_source_object_form(hl_s):
    """_source object form: includes/excludes filtering, excludes-only
    projects everything minus the listed columns."""
    r = execute_dsl(hl_s, {"query": {"match": {"content": "spark"}},
                           "_source": {"includes": ["text"]},
                           "size": 3})
    assert all(set(h["_source"]) == {"text"} for h in r["hits"]["hits"])
    r2 = execute_dsl(hl_s, {"query": {"match": {"content": "spark"}},
                            "_source": {"excludes": ["text"]},
                            "size": 3})
    for h in r2["hits"]["hits"]:
        assert "text" not in h["_source"] and "doc_id" in h["_source"]
    r3 = execute_dsl(hl_s, {"query": {"match": {"content": "spark"}},
                            "_source": {"includes": ["text", "doc_id"],
                                        "excludes": ["text"]},
                            "size": 2})
    assert all(set(h["_source"]) == {"doc_id"}
               for h in r3["hits"]["hits"])
    import pytest as _pytest
    with _pytest.raises(ValueError, match="includes"):
        execute_dsl(hl_s, {"query": {"match": {"content": "spark"}},
                           "_source": {"fields": ["text"]}})


def test_execute_bulk(ray_session, tmp_path_factory):
    """_bulk: index actions land as ONE incremental generation, a
    reopened Searcher sees them; deletes tombstone with found flags;
    replay is a no-op; index+delete of one id refuses."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_bulk, execute_count)
    n = 60
    rng = np.random.default_rng(3)
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB), 8))
            for _ in range(n)]
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": docs,
        "lang": [["py", "go"][i % 2] for i in range(n)],
    })
    root = tmp_path_factory.mktemp("bulk")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),),
                      keyword_fields=("lang",), range_fields=(),
                      doc_id_col="doc_id", sha_col="text")
    build_index([src], idx, cfg)
    lines = [
        {"index": {"_id": 1000}},
        {"text": "zebra quokka spark", "lang": "py"},
        {"create": {"_id": 1001}},
        {"text": "zebra zebra join", "lang": "go"},
        {"delete": {"_id": 5}},
        {"delete": {"_id": 999999}},
    ]
    r = execute_bulk(idx, lines)
    assert not r["errors"]
    assert r["items"][0]["index"]["result"] == "created"
    assert r["items"][2]["delete"]["result"] == "deleted"
    assert r["items"][3]["delete"]["result"] == "not_found"
    # a reopened Searcher sees the generation and the tombstone
    s = Searcher(idx, use_actors=False)
    hits = s.search("zebra", k=10)
    assert {int(d) for _, d in hits} == {1000, 1001}
    assert execute_count(s, {})["count"] == n + 2 - 1
    assert s.ids_search([5], k=5) == []
    s.close()
    # replay: content-addressed no-op, delete already dead
    r2 = execute_bulk(idx, lines)
    assert r2["items"][0]["index"]["result"] == "noop"
    assert r2["items"][2]["delete"]["result"] == "not_found"
    s = Searcher(idx, use_actors=False)
    assert execute_count(s, {})["count"] == n + 2 - 1
    s.close()
    import pytest as _pytest
    with _pytest.raises(ValueError, match="both"):
        execute_bulk(idx, [{"index": {"_id": 7}}, {"text": "x"},
                           {"delete": {"_id": 7}}])
    with _pytest.raises(ValueError, match="_id"):
        execute_bulk(idx, [{"index": {}}, {"text": "x"}])
    with _pytest.raises(ValueError, match="source line"):
        execute_bulk(idx, [{"index": {"_id": 9}}])


def test_dsl_dis_max(dsl_s):
    """dis_max: max clause score + tie_breaker * rest over the full
    per-clause match sets — verified against the combination computed
    from the raw per-clause searches."""
    s = dsl_s
    tb = 0.35
    r = execute_dsl(s, {"query": {"dis_max": {
        "queries": [{"match": {"content": "spark"}},
                    {"match": {"content": "join shuffle"}}],
        "tie_breaker": tb}}, "size": 15})
    a = {d: sc for sc, d in s.search("spark", k=1 << 31)}
    b = {d: sc for sc, d in s.search("join shuffle", k=1 << 31)}
    comb = []
    for d in set(a) | set(b):
        v = [x for x in (a.get(d), b.get(d)) if x is not None]
        comb.append((max(v) + tb * (sum(v) - max(v)), d))
    comb.sort(key=lambda t: (-t[0], t[1]))
    got = [(h["_score"], h["_id"]) for h in r["hits"]["hits"]]
    assert [d for _, d in got] == [d for _, d in comb[:15]]
    np.testing.assert_allclose([sc for sc, _ in got],
                               [sc for sc, _ in comb[:15]], rtol=1e-12)
    # tie_breaker 0 = pure max; mixed clause kinds execute
    r0 = execute_dsl(s, {"query": {"dis_max": {
        "queries": [{"match": {"content": "spark"}},
                    {"match_phrase": {"content": "spark join"}}]}},
        "size": 5})
    assert r0["hits"]["hits"]
    import pytest as _pytest
    with _pytest.raises(ValueError, match="queries"):
        execute_dsl(s, {"query": {"dis_max": {"tie_breaker": 0.5}}})


def test_dsl_fields_and_explain_keys(hl_s, dsl_s):
    """`fields` (docvalue lists) and `explain: true` (per-hit
    _explanation summing to _score) body keys."""
    r = execute_dsl(hl_s, {"query": {"match": {"content": "spark"}},
                           "fields": ["text"], "size": 3})
    for h in r["hits"]["hits"]:
        assert isinstance(h["fields"]["text"], list)
    r2 = execute_dsl(dsl_s, {"query": {"match": {"content":
                                                 "spark join"}},
                             "explain": True, "size": 4})
    for h in r2["hits"]["hits"]:
        assert h["_explanation"]["value"] == pytest.approx(h["_score"])
    # sorted pages can carry fields too
    r3 = execute_dsl(dsl_s, {"sort": [{"msm": "desc"}], "size": 3,
                             "fields": ["msm"]})
    for h in r3["hits"]["hits"]:
        assert h["fields"]["msm"] == [h["sort"][0]]
    import pytest as _pytest
    with _pytest.raises(ValueError, match="explain"):
        execute_dsl(dsl_s, {"query": {"ids": {"values": [1]}},
                            "explain": True})


def test_dsl_metric_missing_aggs(dsl_s):
    """avg/sum/min/max single-metric aggs equal the stats agg's keys;
    missing equals the value_count presence partial's second half."""
    s = dsl_s
    st = s.stats_aggregation("spark join", "msm")
    r = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                        "size": 0,
                        "aggs": {k: {k: {"field": "msm"}}
                                 for k in ("avg", "sum", "min", "max")}})
    for k in ("avg", "sum", "min", "max"):
        assert r["aggregations"][k]["value"] == pytest.approx(st[k])
    _have, miss = s.value_count_aggregation("spark join", "lang")
    rm = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                         "size": 0,
                         "aggs": {"m": {"missing": {"field": "lang"}}}})
    assert rm["aggregations"]["m"]["doc_count"] == miss == 0


def test_dsl_filter_agg(dsl_s):
    """Singular filter agg under match_all: doc_count == match_count,
    sub-aggs run in the narrowed context; under a real query it
    raises (the intersection context is not expressible)."""
    s = dsl_s
    r = execute_dsl(s, {"query": {"match_all": {}}, "size": 0,
                        "aggs": {"narrow": {
                            "filter": {"match": {"content": "spark"}},
                            "aggs": {"by_lang": {"terms": {
                                "field": "lang", "size": 10}},
                                "st": {"stats": {"field": "msm"}}}}}})
    nw = r["aggregations"]["narrow"]
    assert nw["doc_count"] == s.match_count("spark")
    direct = s.terms_aggregation("spark", "lang")
    assert [(b["key"], b["doc_count"]) for b in
            nw["by_lang"]["buckets"]] == [(v, n) for v, n in direct[:10]]
    assert nw["st"]["count"] == nw["doc_count"]
    # absent query works too (treated as match_all)
    r2 = execute_dsl(s, {"size": 0, "aggs": {"n2": {
        "filter": {"match": {"content": "spark"}}}}})
    assert r2["aggregations"]["n2"]["doc_count"] == nw["doc_count"]
    with pytest.raises(ValueError, match="filter agg"):
        execute_dsl(s, {"query": {"match": {"content": "join"}},
                        "aggs": {"f": {"filter": {
                            "match": {"content": "spark"}}}}})


def test_dsl_min_score(dsl_s):
    """min_score: exact post-rank cutoff (docs below it are a suffix
    of the descending ranking); rejected with sort / rescore /
    track_total_hits."""
    s = dsl_s
    full = execute_dsl(s, {"query": {"match": {"content":
                                               "spark join"}},
                           "size": 60})
    cut = full["hits"]["hits"][7]["_score"]
    r = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                        "size": 60, "min_score": cut})
    want = [h for h in full["hits"]["hits"] if h["_score"] >= cut]
    assert [(h["_id"], h["_score"]) for h in r["hits"]["hits"]] == \
        [(h["_id"], h["_score"]) for h in want]
    assert r["hits"]["total"] == {"value": len(want), "relation": "eq"}
    # a full page proves nothing about the remainder -> gte
    r2 = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                         "size": 3, "min_score": 0.0})
    assert r2["hits"]["total"]["relation"] == "gte"
    for bad in ({"sort": [{"msm": "desc"}]},
                {"track_total_hits": True}):
        with pytest.raises(ValueError, match="min_score"):
            execute_dsl(s, {"query": {"match": {"content": "spark"}},
                            "min_score": 1.0, **bad})


def test_value_count_missing_range_field(ray_session, tmp_path_factory):
    """value_count/missing on a RANGE (numeric) field: presence reads
    the range-table ids (nulls never index), identical in process
    and on the actor path."""
    rng = np.random.default_rng(5)
    n = 120
    docs = [" ".join(VOCAB[int(j)] for j in rng.integers(0, 10, 8))
            for _ in range(n)]
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": docs,
        "opt": pa.array([float(i) if i % 4 < 2 else None
                         for i in range(n)], pa.float64()),
    })
    root = tmp_path_factory.mktemp("vc_range")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    import re as _re
    tokens = set("spark".split())
    match = [i for i, d in enumerate(docs)
             if tokens & set(_re.findall(r"[a-z0-9_]+", d))]
    want_have = sum(1 for i in match if i % 4 < 2)
    want_miss = len(match) - want_have
    cfg = IndexConfig(num_partitions=3,
                      fields=(("content", "text", "base"),),
                      keyword_fields=(), range_fields=("opt",),
                      doc_id_col="doc_id", sha_col="text")
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    for actors in (False, True):
        s = Searcher(idx, use_actors=actors)
        try:
            have, miss = s.value_count_aggregation("spark", "opt")
        finally:
            s.close()
        assert (have, miss) == (want_have, want_miss), \
            actors


def test_dsl_scroll(dsl_s):
    """scroll: stateless base64 cursor over the search_after
    machinery.  Draining score-ordered and field-sorted scrolls
    reproduces the single-big-page order exactly; terminal tokens
    stay terminal; garbage ids raise."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_scroll, execute_scroll_search)
    s = dsl_s
    full = execute_dsl(s, {"query": {"match": {"content":
                                               "spark join"}},
                           "size": 1000})
    want = [(h["_id"], h["_score"]) for h in full["hits"]["hits"]]
    got = []
    r = execute_scroll_search(s, {"query": {"match": {
        "content": "spark join"}}, "size": 13})
    pages = 0
    while r["hits"]["hits"]:
        got += [(h["_id"], h["_score"]) for h in r["hits"]["hits"]]
        pages += 1
        r = execute_scroll(s, {"scroll_id": r["_scroll_id"]})
    assert got == want and pages == -(-len(want) // 13)
    # terminal token stays terminal
    assert not execute_scroll(s, {"scroll_id":
                                  r["_scroll_id"]})["hits"]["hits"]
    # field-sort scroll under match_all, _source flows through pages
    fullb = execute_dsl(s, {"sort": [{"msm": "asc"}], "size": 1000})
    wantb = [(h["_id"], h["sort"][0]) for h in fullb["hits"]["hits"]]
    gotb = []
    r = execute_scroll_search(s, {"sort": [{"msm": "asc"}], "size": 17,
                                  "_source": ["lang"]})
    while r["hits"]["hits"]:
        assert all("lang" in h["_source"] for h in r["hits"]["hits"])
        gotb += [(h["_id"], h["sort"][0]) for h in r["hits"]["hits"]]
        r = execute_scroll(s, {"scroll_id": r["_scroll_id"]})
    assert gotb == wantb
    for bad in ({"query": {"match_all": {}}, "size": 5},
                {"query": {"match": {"content": "x"}},
                 "aggs": {"a": {"avg": {"field": "msm"}}}},
                {"query": {"match": {"content": "x"}}, "from": 3}):
        with pytest.raises(ValueError):
            execute_scroll_search(s, bad)
    with pytest.raises(ValueError, match="scroll_id"):
        execute_scroll(s, {"scroll_id": "garbage!!"})


def test_dsl_field_caps_validate_template(dsl_s):
    """_field_caps (manifest-only metadata), _validate/query
    (translate-by-probe) and _search/template (mustache subset)."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_field_caps, execute_search_template, execute_validate,
        render_search_template)
    s = dsl_s
    caps = execute_field_caps(s)["fields"]
    assert caps["content"]["text"] == {
        "type": "text", "searchable": True, "aggregatable": False}
    assert caps["lang"]["keyword"]["aggregatable"]
    assert caps["msm"]["double"]["aggregatable"]
    only = execute_field_caps(s, ["l*", "msm"])["fields"]
    assert sorted(only) == ["lang", "lat", "lon", "msm"]
    # validate: good body true, bad node false with explain text
    assert execute_validate(s, {"query": {"match": {
        "content": "spark"}}})["valid"]
    bad = execute_validate(s, {"query": {"knnn": {}}, "explain": True})
    assert not bad["valid"] and "knnn" in bad["error"]
    # template: raw-string source with scalar + toJson params
    tpl = ('{"query": {"bool": {"must": [{"match": {"content": '
           '"{{q}}"}}], "filter": [{"terms": {"lang": '
           '{{#toJson}}langs{{/toJson}}}}]}}, "size": {{n}}}')
    rendered = render_search_template(
        tpl, {"q": "spark join", "langs": ["py", "go"], "n": 5})
    assert rendered["size"] == 5
    assert rendered["query"]["bool"]["filter"][0]["terms"]["lang"] == \
        ["py", "go"]
    r = execute_search_template(s, {"source": tpl, "params": {
        "q": "spark join", "langs": ["py", "go"], "n": 5}})
    assert r["hits"]["hits"] == execute_dsl(s, rendered)["hits"]["hits"]
    # object-form source; missing param renders empty -> empty match
    r2 = execute_search_template(s, {"source": {
        "query": {"match": {"content": "{{missing}}"}}, "size": 3}})
    assert r2["hits"]["hits"] == []
    with pytest.raises(ValueError, match="not found"):
        execute_search_template(s, {"id": "tpl-never-stored"})
    with pytest.raises(ValueError, match="render"):
        render_search_template('{"size": {{n}}}', {})


def test_bool_terms_filter_cross_layout(ray_session, tmp_path_factory):
    """bool.filter terms (multi-value keyword filter): union of the
    values' packed doc lists — equals the merged single-term filters,
    identical in process and on the actor path."""
    rng = np.random.default_rng(11)
    n = 150
    docs = [" ".join(VOCAB[int(j)] for j in rng.integers(0, 10, 10))
            for _ in range(n)]
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": docs,
        "lang": [["py", "go", "rs", "ts"][i % 4] for i in range(n)],
    })
    root = tmp_path_factory.mktemp("terms_filter")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    want = None
    cfg = IndexConfig(num_partitions=3,
                      fields=(("content", "text", "base"),),
                      keyword_fields=("lang",), range_fields=(),
                      doc_id_col="doc_id", sha_col="text")
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    for actors in (False, True):
        s = Searcher(idx, use_actors=actors)
        try:
            r = execute_dsl(s, {"query": {"bool": {
                "must": [{"match": {"content": "spark"}}],
                "filter": [{"terms": {"lang": ["py", "ts"]}}]}},
                "size": 1000})
            got = [(h["_id"], round(h["_score"], 9))
                   for h in r["hits"]["hits"]]
            # equals the union of the two single-term filters
            a = execute_dsl(s, {"query": {"bool": {
                "must": [{"match": {"content": "spark"}}],
                "filter": [{"term": {"lang": "py"}}]}},
                "size": 1000})["hits"]["hits"]
            b = execute_dsl(s, {"query": {"bool": {
                "must": [{"match": {"content": "spark"}}],
                "filter": [{"term": {"lang": "ts"}}]}},
                "size": 1000})["hits"]["hits"]
            merged = sorted(
                [(round(h["_score"], 9), h["_id"])
                 for h in a + b], key=lambda x: (-x[0], x[1]))
            assert got == [(d, sc) for sc, d in merged]
            assert got and all(
                lid % 4 in (0, 3) for lid, _ in got)
        finally:
            s.close()
        if want is None:
            want = got
        else:
            assert got == want, actors


def test_dsl_post_filter(dsl_s):
    """post_filter: hits narrow to (query AND filter), aggregations
    and track_total_hits keep the UNFILTERED query — byte-identical
    to the explicit bool composition on the hits side and to the
    plain query on the agg side."""
    s = dsl_s
    q = {"match": {"content": "spark join"}}
    agg = {"by_lang": {"terms": {"field": "lang", "size": 5}}}
    base = execute_dsl(s, {"query": q, "size": 50, "aggs": agg,
                           "track_total_hits": True})
    pf = execute_dsl(s, {"query": q, "size": 50, "aggs": agg,
                         "post_filter": {"term": {"lang": "py"}},
                         "track_total_hits": True})
    composed = execute_dsl(s, {"query": {"bool": {
        "must": [q], "filter": [{"term": {"lang": "py"}}]}},
        "size": 50})
    assert _ids(pf) == _ids(composed)
    assert len(_ids(pf)) < len(_ids(base))
    assert pf["aggregations"] == base["aggregations"]
    # exact total rides the unfiltered query
    assert pf["hits"]["total"] == base["hits"]["total"]

    # terms + range post_filter shapes; bool primary gains the filter
    pf2 = execute_dsl(s, {"query": q, "size": 50,
                          "post_filter": {"terms": {"lang": ["py",
                                                             "go"]}}})
    c2 = execute_dsl(s, {"query": {"bool": {
        "must": [q],
        "filter": [{"terms": {"lang": ["py", "go"]}}]}}, "size": 50})
    assert _ids(pf2) == _ids(c2)
    pf3 = execute_dsl(s, {
        "query": {"bool": {"must": [q],
                           "filter": [{"term": {"lang": "py"}}]}},
        "post_filter": {"range": {"msm": {"gte": 2.0}}}, "size": 50})
    c3 = execute_dsl(s, {"query": {"bool": {
        "must": [q], "filter": [{"term": {"lang": "py"}},
                                {"range": {"msm": {"gte": 2.0}}}]}},
        "size": 50})
    assert _ids(pf3) == _ids(c3)

    with pytest.raises(ValueError, match="post_filter"):
        execute_dsl(s, {"query": q, "sort": [{"msm": "asc"}],
                        "post_filter": {"term": {"lang": "py"}}})
    with pytest.raises(ValueError, match="post_filter"):
        execute_dsl(s, {"query": {"match_all": {}},
                        "post_filter": {"term": {"lang": "py"}}})
    # two keyword filters now compose (intersection) instead of
    # raising — the round-5 multi-filter scored bool
    both = execute_dsl(s, {"query": {"bool": {
        "must": [q], "filter": [{"term": {"lang": "py"}},
                                {"terms": {"lang": ["py", "go"]}}]}},
        "size": 50})
    assert _ids(both) == _ids(composed)


def test_dsl_suggest(dsl_s):
    """suggest body key: named term/phrase/completion suggesters in
    the OpenSearch response shape, option lists byte-identical to the
    direct suggester methods."""
    s = dsl_s
    resp = execute_dsl(s, {"size": 0, "suggest": {
        "fix": {"text": "sprak", "term": {"field": "content",
                                          "size": 3}},
        "auto": {"prefix": "s", "completion": {"field": "content",
                                               "size": 4}},
        "rephrase": {"text": "sprak jion",
                     "phrase": {"field": "content", "size": 2}},
    }})
    assert resp["hits"]["hits"] == []
    sg = resp["suggest"]
    # term: one entry per analyzed token, options == direct method
    direct = s.suggest("sprak", field="content", size=3)
    ent = sg["fix"]
    assert [e["text"] for e in ent] == ["sprak"]
    assert ent[0]["offset"] == 0 and ent[0]["length"] == 5
    assert [o["text"] for o in ent[0]["options"]] == \
        [c for c, _, _ in direct[0][1]]
    assert [o["freq"] for o in ent[0]["options"]] == \
        [df for _, _, df in direct[0][1]]
    for o, (c, d, _) in zip(ent[0]["options"], direct[0][1]):
        assert o["score"] == round(1.0 - d / max(5, len(c)), 6)
    # completion: prefix expansion ranked by df
    comp = s.suggest_completion("s", field="content", size=4)
    assert [o["text"] for o in sg["auto"][0]["options"]] == \
        [t for t, _ in comp]
    # phrase: whole-input corrections
    ph = s.suggest_phrase("sprak jion", field="content", size=2)
    assert [o["text"] for o in sg["rephrase"][0]["options"]] == \
        [p for p, _ in ph]

    # global text + coexistence with a scoring query; token offsets
    both = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 3,
        "suggest": {"text": "mrege sprak",
                    "fix": {"term": {"field": "content"}}}})
    assert len(both["hits"]["hits"]) == 3
    toks = both["suggest"]["fix"]
    assert [(e["text"], e["offset"], e["length"]) for e in toks] == \
        [("mrege", 0, 5), ("sprak", 6, 5)]
    with pytest.raises(ValueError, match="exactly one"):
        execute_dsl(s, {"suggest": {"bad": {"text": "x"}}})
    with pytest.raises(ValueError, match="missing text"):
        execute_dsl(s, {"suggest": {"bad": {"term": {}}}})


def test_dsl_script_fields(dsl_s):
    """script_fields: whitelisted-arithmetic per-hit values from the
    stored columns; missing referenced fields drop the script field
    from that hit; bad scripts raise naming the problem."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark join"}}, "size": 5,
        "script_fields": {"m2": {"script": {"source": "msm * 2"}},
                          "c": {"script": "min(msm, 2) + 1"}}})
    assert len(resp["hits"]["hits"]) == 5
    src = execute_dsl(s, {
        "query": {"match": {"content": "spark join"}}, "size": 5,
        "_source": ["msm"]})
    by_id = {h["_id"]: h["_source"]["msm"] for h in src["hits"]["hits"]}
    for h in resp["hits"]["hits"]:
        msm = by_id[h["_id"]]
        assert h["fields"]["m2"] == [msm * 2]
        assert h["fields"]["c"] == [min(msm, 2) + 1]
    with pytest.raises(ValueError, match="reserved"):
        execute_dsl(s, {"query": {"match": {"content": "spark"}},
                        "script_fields": {"x": {"script": {
                            "source": "__import__('os')"}}}})
    with pytest.raises(ValueError, match="script_fields"):
        execute_dsl(s, {"query": {"match": {"content": "spark"}},
                        "script_fields": {"x": {}}})


def test_update_by_query(ray_session, tmp_path_factory):
    """_update_by_query: matching docs get the scripted field
    recomputed and are rewritten through delete -> compact -> extend;
    non-matching docs keep their values; replay converges; contract
    errors raise."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_count, execute_update_by_query)
    rng = np.random.default_rng(7)
    n = 120
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB), 8))
            for _ in range(n)]
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": docs,
        "lang": [["py", "go"][i % 2] for i in range(n)],
        "msm": pa.array([float(i % 5) for i in range(n)], pa.float64()),
    })
    root = tmp_path_factory.mktemp("ubq")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    cfg = IndexConfig(num_partitions=2,
                      fields=(("content", "text", "base"),),
                      keyword_fields=("lang",),
                      range_fields=("msm",),
                      doc_id_col="doc_id", sha_col="text",
                      store_source=True)
    build_index([src], idx, cfg)

    body = {"query": {"term": {"lang": "py"}},
            "script": {"source": "doc_id % 5 + 100"}}
    with pytest.raises(ValueError, match="ONE assignment"):
        execute_update_by_query(idx, body)
    # absolute (doc_id-derived) assignment -> replay converges
    body["script"]["source"] = "msm = doc_id % 5 + 100"
    res = execute_update_by_query(idx, body)
    assert res == {"updated": 60, "noops": 0, "total": 60}

    s = Searcher(idx, use_actors=False)
    try:
        tbl = s.fetch_docs(list(range(n)), columns=["doc_id", "msm"])
        got = dict(zip(tbl.column("doc_id").to_pylist(),
                       tbl.column("msm").to_pylist()))
        for i in range(n):
            want = (i % 5) + 100.0 if i % 2 == 0 else float(i % 5)
            assert got[i] == want, (i, got[i], want)
        assert execute_count(s, {})["count"] == n
        # postings rebuilt: text unchanged -> same match behavior
        assert s.search("spark", k=5)
    finally:
        s.close()

    # replay converges (same ids, same values)
    res2 = execute_update_by_query(idx, body)
    assert res2["total"] == 60
    s = Searcher(idx, use_actors=False)
    try:
        assert execute_count(s, {})["count"] == n
    finally:
        s.close()

    with pytest.raises(ValueError, match="identity/source"):
        execute_update_by_query(idx, {
            "query": {"term": {"lang": "py"}},
            "script": {"source": "doc_id = msm"}})
    with pytest.raises(ValueError, match="match_all"):
        execute_update_by_query(idx, {
            "query": {"match_all": {}},
            "script": {"source": "msm = 1"}})


def test_dsl_terms_metric_subaggs(dsl_s):
    """terms + metric sub-aggs: per-bucket sum/avg/min/max/stats/
    value_count match a hand computation over the match set."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"by_lang": {"terms": {"field": "lang", "size": 5},
                 "aggs": {"mu": {"avg": {"field": "msm"}},
                          "hi": {"max": {"field": "msm"}},
                          "st": {"stats": {"field": "msm"}}}}}})
    hits = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                           "size": 1000, "_source": ["lang", "msm"]})
    per = {}
    for h in hits["hits"]["hits"]:
        per.setdefault(h["_source"]["lang"], []).append(
            h["_source"]["msm"])
    for b in resp["aggregations"]["by_lang"]["buckets"]:
        vals = per[b["key"]]
        assert b["doc_count"] == len(vals)
        assert b["mu"]["value"] == pytest.approx(sum(vals) / len(vals))
        assert b["hi"]["value"] == max(vals)
        assert b["st"]["count"] == len(vals)
        assert b["st"]["sum"] == pytest.approx(sum(vals))
    with pytest.raises(ValueError, match="unsupported"):
        execute_dsl(s, {"query": {"match": {"content": "spark"}},
                        "size": 0,
                        "aggs": {"x": {"terms": {"field": "lang"},
                                       "aggs": {"y": {"percentiles": {
                                           "field": "msm"}}}}}})


def test_dsl_histogram_metric_subaggs(dsl_s):
    """histogram + metric sub-aggs (the avg-over-time panel): per-bin
    avg/sum/value_count match a hand computation; pipeline sub-aggs
    keep working next to them."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"h": {"histogram": {"field": "msm", "interval": 1.0},
                 "aggs": {"mu_lat": {"avg": {"field": "lat"}},
                          "s_lon": {"sum": {"field": "lon"}},
                          "cum": {"cumulative_sum": {}}}}}})
    hits = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                           "size": 1000,
                           "_source": ["msm", "lat", "lon"]})
    bins: dict = {}
    for h in hits["hits"]["hits"]:
        src = h["_source"]
        bins.setdefault(src["msm"] // 1 * 1.0, []).append(
            (src["lat"], src["lon"]))
    agg = resp["aggregations"]["h"]
    assert len(agg["buckets"]) == len(bins)
    for b in agg["buckets"]:
        vals = bins[b["key"]]
        assert b["doc_count"] == len(vals)
        assert b["mu_lat"]["value"] == pytest.approx(
            sum(v for v, _ in vals) / len(vals))
        assert b["s_lon"]["value"] == pytest.approx(
            sum(v for _, v in vals))
    assert len(agg["cum"]) == len(agg["buckets"])


def test_dsl_terms_histogram_subagg(dsl_s):
    """terms x date_histogram sub-bucket agg (the split-series area
    chart): DSL wiring is byte-identical to the direct method."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"by_lang": {"terms": {"field": "lang", "size": 5},
                 "aggs": {"tl": {"histogram": {
                     "field": "msm", "interval": 1.0}}}}}})
    direct = s.terms_histogram_aggregation("spark", "lang", "msm", 1.0)
    got = [(b["key"], sb["key"], sb["doc_count"])
           for b in resp["aggregations"]["by_lang"]["buckets"]
           for sb in b["tl"]["buckets"]]
    assert sorted(got) == sorted(direct)


def test_dsl_collapse_inner_hits(dsl_s):
    """collapse + inner_hits: each collapsed group carries its top-N
    docs; group best == the collapsed hit; non-match collapse raises."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark join"}}, "size": 3,
        "collapse": {"field": "lang",
                     "inner_hits": {"name": "grp", "size": 2}}})
    hits = resp["hits"]["hits"]
    assert len(hits) == 3
    groups = dict(s.top_hits_aggregation("spark join", "lang",
                                         hits_per_bucket=2))
    for h in hits:
        val = h["fields"]["lang"][0]
        inner = h["inner_hits"]["grp"]["hits"]["hits"]
        assert [(x["_score"], x["_id"]) for x in inner] == \
            [(sc, d) for sc, d in groups[val]]
        # the collapsed hit IS the group's best inner hit
        assert inner[0]["_id"] == h["_id"]
        assert inner[0]["_score"] == h["_score"]
    with pytest.raises(ValueError, match="collapse"):
        execute_dsl(s, {"query": {"prefix": {"content": "spa"}},
                        "collapse": {"field": "lang"}})


def test_rank_eval(dsl_s):
    """_rank_eval: precision/recall@k, MRR and NDCG over rated docs
    match hand computations against the live ranking."""
    import math

    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_rank_eval)
    s = dsl_s
    base = execute_dsl(s, {"query": {"match": {"content": "spark join"}},
                           "size": 5})
    ranked = [h["_id"] for h in base["hits"]["hits"]]
    # rate the 1st and 4th hits relevant, 2nd irrelevant, rest unrated
    ratings = [{"_id": ranked[0], "rating": 2},
               {"_id": ranked[1], "rating": 0},
               {"_id": ranked[3], "rating": 1},
               {"_id": 999999, "rating": 3}]
    req = [{"id": "q1",
            "request": {"query": {"match": {"content": "spark join"}}},
            "ratings": ratings}]
    p = execute_rank_eval(s, {"requests": req,
                              "metric": {"precision": {"k": 5}}})
    assert p["metric_score"] == pytest.approx(2 / 5)
    assert p["details"]["q1"]["unrated_docs"] == [ranked[2], ranked[4]]
    r = execute_rank_eval(s, {"requests": req,
                              "metric": {"recall": {"k": 5}}})
    assert r["metric_score"] == pytest.approx(2 / 3)
    mrr = execute_rank_eval(s, {
        "requests": req,
        "metric": {"mean_reciprocal_rank": {
            "k": 5, "relevant_rating_threshold": 1}}})
    assert mrr["metric_score"] == 1.0
    nd = execute_rank_eval(s, {"requests": req,
                               "metric": {"dcg": {"k": 5,
                                                  "normalize": True}}})
    gains = {ranked[0]: 2, ranked[3]: 1}
    dcg = sum((2 ** gains.get(d, 0) - 1) / math.log2(i + 1)
              for i, d in enumerate(ranked, start=1))
    idcg = sum((2 ** g - 1) / math.log2(i + 1)
               for i, g in enumerate([3, 2, 1, 0], start=1))
    assert nd["metric_score"] == pytest.approx(dcg / idcg)
    with pytest.raises(ValueError, match="unknown metric"):
        execute_rank_eval(s, {"requests": req,
                              "metric": {"err": {}}})


def test_stored_search_templates(dsl_s):
    """PUT/GET _scripts + _search/template by id: stored template
    renders and executes identically to the inline source."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_search_template, get_script, put_script)
    s = dsl_s
    src = ('{"query": {"match": {"content": "{{q}}"}}, '
           '"size": {{n}}}')
    assert put_script(s.index_dir, "find", src) == \
        {"acknowledged": True}
    assert get_script(s.index_dir, "find") == src
    params = {"q": "spark join", "n": 4}
    by_id = execute_search_template(s, {"id": "find",
                                        "params": params})
    inline = execute_search_template(s, {"source": src,
                                         "params": params})
    assert _ids(by_id) == _ids(inline) and len(_ids(by_id)) == 4
    put_script(s.index_dir, "find", src.replace("match", "match"))
    with pytest.raises(ValueError, match="not found"):
        get_script(s.index_dir, "nope")
    with pytest.raises(ValueError, match="source OR id"):
        execute_search_template(s, {"id": "find", "source": src})


def test_highlight_number_of_fragments(hl_s):
    """number_of_fragments > 1: non-overlapping windows around
    successive occurrences, each fragment tagged; single-fragment
    path unchanged."""
    s = hl_s
    one = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                          "size": 3, "highlight": {
                              "fields": {"content": {}}}})
    multi = execute_dsl(s, {"query": {"match": {"content": "spark"}},
                            "size": 3, "highlight": {
                                "fields": {"content": {}},
                                "number_of_fragments": 3}})
    for h1, hm in zip(one["hits"]["hits"], multi["hits"]["hits"]):
        assert h1["_id"] == hm["_id"]
        frs = hm["highlight"]["content"]
        assert 1 <= len(frs) <= 3
        assert frs[0] == h1["highlight"]["content"][0]
        for fr in frs:
            assert "<em>spark</em>" in fr


def test_dsl_terms_terms_subagg(dsl_s):
    """terms -> terms sub-buckets regroup the multi_terms pair
    census; sub-bucket counts sum to the parent doc_count."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"by_lang": {"terms": {"field": "lang", "size": 5},
                 "aggs": {"rep": {"terms": {"field": "repo",
                                            "size": 10}}}}}})
    pairs = dict(((a, b), n) for a, b, n in
                 s.multi_terms_aggregation("spark", ("lang", "repo")))
    for b in resp["aggregations"]["by_lang"]["buckets"]:
        subs = b["rep"]["buckets"]
        assert sum(x["doc_count"] for x in subs) == b["doc_count"]
        for x in subs:
            assert pairs[(b["key"], x["key"])] == x["doc_count"]
        counts = [x["doc_count"] for x in subs]
        assert counts == sorted(counts, reverse=True)


def test_dsl_bucket_script(dsl_s):
    """bucket_script: params.x painless refs over sibling metric
    values, aligned per parent bucket; missing metrics raise; a
    zero-denominator bucket emits None instead of raising."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"h": {"histogram": {"field": "msm", "interval": 1.0},
                 "aggs": {"sl": {"sum": {"field": "lat"}},
                          "r": {"bucket_script": {
                              "buckets_path": {"a": "sl",
                                               "b": "_count"},
                              "script": "params.a / params.b"}}}}}})
    agg = resp["aggregations"]["h"]
    for b, r in zip(agg["buckets"], agg["r"]):
        assert r == pytest.approx(b["sl"]["value"] / b["doc_count"])
    with pytest.raises(ValueError, match="no metric sub-agg"):
        execute_dsl(s, {
            "query": {"match": {"content": "spark"}}, "size": 0,
            "aggs": {"h": {"histogram": {"field": "msm",
                                         "interval": 1.0},
                     "aggs": {"r": {"bucket_script": {
                         "buckets_path": {"a": "nope"},
                         "script": "params.a"}}}}}})


def test_bucket_script_units():
    from siem_on_amazon_opensearch_service_ray.state.searcher import \
        bucket_script_buckets
    # zero division -> None; None input -> None (gap skip)
    assert bucket_script_buckets(
        {"a": [1.0, 2.0, None], "b": [0.0, 2.0, 4.0]},
        "params.a / params.b") == [None, 1.0, None]
    with pytest.raises(ValueError, match="misaligned"):
        bucket_script_buckets({"a": [1.0], "b": [1.0, 2.0]}, "a + b")
    with pytest.raises(ValueError, match="calls allowed"):
        bucket_script_buckets({"a": [1.0]}, "__import__('os')")


def test_dsl_moving_fn(dsl_s):
    """moving_fn: MovingFunctions.{max,sum,ewma} over the trailing
    window EXCLUDING the current bucket; first bucket None."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"h": {"histogram": {"field": "msm", "interval": 1.0},
                 "aggs": {"mx": {"moving_fn": {
                     "buckets_path": "_count", "window": 2,
                     "script": "MovingFunctions.max(values)"}}}}}})
    agg = resp["aggregations"]["h"]
    counts = [b["doc_count"] for b in agg["buckets"]]
    want = [None] + [max(counts[max(0, i - 2):i])
                     for i in range(1, len(counts))]
    assert agg["mx"] == want
    with pytest.raises(ValueError, match="MovingFunctions"):
        execute_dsl(s, {
            "query": {"match": {"content": "spark"}}, "size": 0,
            "aggs": {"h": {"histogram": {"field": "msm",
                                         "interval": 1.0},
                     "aggs": {"m": {"moving_fn": {
                         "buckets_path": "_count", "window": 2,
                         "script": "values.sum()"}}}}}})


def test_moving_fn_units():
    from siem_on_amazon_opensearch_service_ray.state.searcher import \
        moving_fn_buckets
    b = [(0.0, 2.0), (1.0, 4.0), (2.0, 6.0), (3.0, 8.0)]
    assert moving_fn_buckets(b, 2, "linearWeightedAvg") == \
        [(0.0, None), (1.0, 2.0), (2.0, (2 * 1 + 4 * 2) / 3),
         (3.0, (4 * 1 + 6 * 2) / 3)]
    # ewma oldest->newest with alpha
    got = moving_fn_buckets(b, 3, "ewma", alpha=0.5)
    assert got[3][1] == pytest.approx(
        0.5 * 6 + 0.5 * (0.5 * 4 + 0.5 * 2))
    assert moving_fn_buckets(b, 2, "stdDev")[2][1] == \
        pytest.approx(np.std([2.0, 4.0]))
    with pytest.raises(ValueError, match="unsupported function"):
        moving_fn_buckets(b, 2, "median")


def test_dsl_cumulative_cardinality(dsl_s):
    """cumulative_cardinality: running distinct keyword values in
    bucket order — monotone nondecreasing, final value == the match
    set's total cardinality; per-bucket cardinality sub-agg exact."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"h": {"histogram": {"field": "msm", "interval": 1.0},
                 "aggs": {"c": {"cardinality": {"field": "repo"}},
                          "cc": {"cumulative_cardinality": {
                              "buckets_path": "c"}}}}}})
    agg = resp["aggregations"]["h"]
    cc = agg["cc"]
    assert all(a <= b for a, b in zip(cc, cc[1:]))
    assert cc[-1] == s.cardinality_aggregation("spark", "repo")
    assert all(b["c"]["value"] <= cc[i]
               for i, b in enumerate(agg["buckets"]))
    with pytest.raises(ValueError, match="sibling cardinality"):
        execute_dsl(s, {
            "query": {"match": {"content": "spark"}}, "size": 0,
            "aggs": {"h": {"histogram": {"field": "msm",
                                         "interval": 1.0},
                     "aggs": {"cc": {"cumulative_cardinality": {
                         "buckets_path": "zzz"}}}}}})


def test_dsl_terms_order(dsl_s):
    """terms order: by metric sub-agg (full census, exact), by _key,
    and _count asc — key-asc tiebreak in every mode."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"t": {"terms": {"field": "repo", "size": 2,
                                 "order": {"m.avg": "desc"}},
                 "aggs": {"m": {"stats": {"field": "lat"}}}}}})
    got = [(b["key"], b["m"]["avg"]) for b in
           resp["aggregations"]["t"]["buckets"]]
    full = {v: (su / n) for v, n, su, *_ in
            s.terms_stats_aggregation("spark", "repo", "lat")}
    want = sorted(full.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
    assert [(k, pytest.approx(v)) for k, v in want] == got
    rk = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"t": {"terms": {"field": "repo", "size": 3,
                                 "order": {"_key": "desc"}}}}})
    keys = [b["key"] for b in rk["aggregations"]["t"]["buckets"]]
    assert keys == sorted(keys, reverse=True)
    ra = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"t": {"terms": {"field": "repo", "size": 3,
                                 "order": {"_count": "asc"}}}}})
    cnts = [b["doc_count"] for b in ra["aggregations"]["t"]["buckets"]]
    assert cnts == sorted(cnts)
    with pytest.raises(ValueError, match="no metric sub-agg"):
        execute_dsl(s, {
            "query": {"match": {"content": "spark"}}, "size": 0,
            "aggs": {"t": {"terms": {"field": "repo", "size": 2,
                                     "order": {"zzz": "desc"}}}}})


def test_dsl_normalize_pipeline(dsl_s):
    """normalize through the DSL: percent_of_sum over histogram doc
    counts sums to 1."""
    s = dsl_s
    resp = execute_dsl(s, {
        "query": {"match": {"content": "spark"}}, "size": 0,
        "aggs": {"h": {"histogram": {"field": "msm", "interval": 1.0},
                 "aggs": {"pct": {"normalize": {
                     "method": "percent_of_sum"}}}}}})
    assert sum(resp["aggregations"]["h"]["pct"]) == pytest.approx(1.0)


def test_terms_missing_param(ray_session, tmp_path):
    """terms agg `missing` parameter: docs in the match set lacking
    the keyword field bucket under the given key, merged into census
    order (count desc, key asc)."""
    import pyarrow.parquet as _pq
    n = 60
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": ["alpha beta"] * n,
        "team": pa.array([None if i % 3 == 0
                          else ["red", "blue"][i % 2]
                          for i in range(n)], pa.string()),
    })
    src = str(tmp_path / "m.parquet")
    _pq.write_table(t, src)
    idx = str(tmp_path / "m_idx")
    build_index([src], idx, IndexConfig(
        num_partitions=2, fields=(("content", "text", "base"),),
        keyword_fields=("team",), doc_id_col="doc_id",
        sha_col="text"))
    s = Searcher(idx, use_actors=False)
    try:
        a = execute_dsl(s, {
            "query": {"match": {"content": "alpha"}}, "size": 0,
            "aggs": {"by_team": {"terms": {"field": "team",
                                           "missing": "N/A",
                                           "size": 10}}}})
    finally:
        s.close()
    buckets = {b["key"]: b["doc_count"]
               for b in a["aggregations"]["by_team"]["buckets"]}
    df = t.to_pandas()
    exp = df.team.fillna("N/A").value_counts().to_dict()
    assert buckets == exp


def test_filters_agg_other_bucket_cross_layout(ray_session,
                                               tmp_path_factory):
    """filters agg other_bucket: live docs matching NONE of the named
    filters — brute-forced from the generated docs, identical in
    process and on the actor path; bool entries + other_bucket refuse."""
    rng = np.random.default_rng(23)
    n = 120
    docs = [" ".join(VOCAB[int(j)] for j in rng.integers(0, 10, 8))
            for _ in range(n)]
    in_a = {i for i, d in enumerate(docs) if "spark" in d.split()}
    in_b = {i for i, d in enumerate(docs)
            if {"merge", "sort"} <= set(d.split())}
    want = {"a": len(in_a), "b": len(in_b),
            "_other_": n - len(in_a | in_b)}
    body = {"size": 0, "aggs": {"kinds": {"filters": {
        "filters": {
            "a": {"match": {"content": "spark"}},
            "b": {"match": {"content": {"query": "merge sort",
                                        "operator": "and"}}},
        },
        "other_bucket": True,
    }}}}
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": docs})
    root = tmp_path_factory.mktemp("filters_other")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    cfg = IndexConfig(num_partitions=3,
                      fields=(("content", "text", "base"),),
                      keyword_fields=(), range_fields=(),
                      doc_id_col="doc_id", sha_col="text")
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    for actors in (False, True):
        s = Searcher(idx, use_actors=actors)
        try:
            r = execute_dsl(s, body)
            got = {k: v["doc_count"] for k, v in
                   r["aggregations"]["kinds"]["buckets"].items()}
            assert got == want, actors
            # custom key name
            body2 = {"size": 0, "aggs": {"kinds": {"filters": {
                "filters": body["aggs"]["kinds"]["filters"]["filters"],
                "other_bucket_key": "rest"}}}}
            r2 = execute_dsl(s, body2)
            assert (r2["aggregations"]["kinds"]["buckets"]["rest"]
                    ["doc_count"]) == want["_other_"]
            # bool entries cannot carry an other bucket
            with pytest.raises(ValueError, match="other_bucket"):
                execute_dsl(s, {"size": 0, "aggs": {"k": {"filters": {
                    "filters": {"x": {"bool": {"filter": [
                        {"term": {"lang": "py"}}]}}},
                    "other_bucket": True}}}})
        finally:
            s.close()


def test_histogram_offset_extended_bounds_cross_layout(ray_session,
                                                       tmp_path_factory):
    """histogram offset + extended_bounds: shifted bucket grid
    (floor((v-off)/i)*i + off) brute-forced from the generated values;
    min_doc_count=0 zero fill widens to the bounds, identical in
    process and on the actor path."""
    rng = np.random.default_rng(31)
    n = 90
    vals = [int(rng.integers(40, 400)) for _ in range(n)]
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": ["spark join" if i % 2 else "merge scan"
                 for i in range(n)],
        "v": pa.array([float(x) for x in vals], pa.float64()),
    })
    root = tmp_path_factory.mktemp("hist_offset")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    import math
    matched = [vals[i] for i in range(n) if i % 2]   # "spark" docs
    key = lambda v: math.floor((v - 25) / 50) * 50 + 25
    from collections import Counter
    cnt = Counter(key(v) for v in matched)
    lo = min(min(cnt), key(-75))
    hi = max(max(cnt), key(975))
    want = [(float(k), cnt.get(k, 0)) for k in range(int(lo), int(hi) + 1, 50)]
    body = {"query": {"match": {"content": "spark"}}, "size": 0,
            "aggs": {"h": {"histogram": {
                "field": "v", "interval": 50, "offset": 25,
                "min_doc_count": 0,
                "extended_bounds": {"min": -75, "max": 975}}}}}
    cfg = IndexConfig(num_partitions=3,
                      fields=(("content", "text", "base"),),
                      keyword_fields=(), range_fields=("v",),
                      doc_id_col="doc_id", sha_col="text")
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    for actors in (False, True):
        s = Searcher(idx, use_actors=actors)
        try:
            r = execute_dsl(s, body)
            got = [(b["key"], b["doc_count"]) for b in
                   r["aggregations"]["h"]["buckets"]]
            assert got == want, actors
            # plain offset without bounds: non-empty buckets only
            r2 = execute_dsl(s, {**body, "aggs": {"h": {"histogram": {
                "field": "v", "interval": 50, "offset": 25}}}})
            got2 = {b["key"]: b["doc_count"] for b in
                    r2["aggregations"]["h"]["buckets"]}
            assert got2 == {float(k): v for k, v in cnt.items()}
        finally:
            s.close()


def test_global_agg_cross_layout(ray_session, tmp_path_factory):
    """global agg: ignores the outer query (doc_count = every live
    doc; sub-aggs over the whole corpus) while a sibling agg stays in
    the narrowed query context — brute-forced from the generated
    docs, identical in process and on the actor path."""
    rng = np.random.default_rng(47)
    n = 150
    docs = [" ".join(VOCAB[int(j)] for j in rng.integers(0, 10, 8))
            for _ in range(n)]
    langs = [["py", "go", "rs"][i % 3] for i in range(n)]
    vals = [float((i * 7) % 50) for i in range(n)]
    matched = [i for i, d in enumerate(docs) if "spark" in d.split()]
    want_all_avg = sum(vals) / n
    want_all_by_lang = {}
    for lg in langs:
        want_all_by_lang[lg] = want_all_by_lang.get(lg, 0) + 1
    want_q_by_lang = {}
    for i in matched:
        want_q_by_lang[langs[i]] = want_q_by_lang.get(langs[i], 0) + 1
    body = {"size": 0,
            "query": {"match": {"content": "spark"}},
            "aggs": {
                "in_query": {"terms": {"field": "lang", "size": 10}},
                "everything": {"global": {}, "aggs": {
                    "by_lang": {"terms": {"field": "lang", "size": 10}},
                    "v_avg": {"avg": {"field": "v"}},
                }},
            }}
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": docs, "lang": langs,
                  "v": pa.array(vals, pa.float64())})
    root = tmp_path_factory.mktemp("global_agg")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    cfg = IndexConfig(num_partitions=3,
                      fields=(("content", "text", "base"),),
                      keyword_fields=("lang",), range_fields=("v",),
                      doc_id_col="doc_id", sha_col="text")
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    for actors in (False, True):
        s = Searcher(idx, use_actors=actors)
        try:
            r = execute_dsl(s, body)
            g = r["aggregations"]["everything"]
            assert g["doc_count"] == n, actors
            got_all = {b["key"]: b["doc_count"]
                       for b in g["by_lang"]["buckets"]}
            assert got_all == want_all_by_lang, actors
            assert g["v_avg"]["value"] == pytest.approx(
                want_all_avg), actors
            got_q = {b["key"]: b["doc_count"] for b in
                     r["aggregations"]["in_query"]["buckets"]}
            assert got_q == want_q_by_lang, actors
            # non-empty global body refuses
            with pytest.raises(ValueError, match="empty body"):
                execute_dsl(s, {"size": 0, "aggs": {"g": {
                    "global": {"x": 1}}}})
        finally:
            s.close()


def test_variable_width_histogram_cross_layout(ray_session,
                                               tmp_path_factory):
    """variable_width_histogram (deterministic ntile variant):
    clusters brute-forced from the generated values — the first
    n%B clusters take the extra value (DuckDB ntile split), tie
    correction keeps rank-range sums exact when equal values
    straddle a boundary; identical in process and on the actor
    path, through execute_dsl too."""
    rng = np.random.default_rng(53)
    n = 140
    docs = ["spark join" if i % 2 else "merge scan" for i in range(n)]
    # heavy ties: values from a tiny grid so boundaries straddle
    vals = [float(rng.integers(0, 9) * 10) for _ in range(n)]
    matched = sorted(vals[i] for i in range(n) if i % 2)
    B = 6
    base, extra = divmod(len(matched), B)
    sizes = [base + (1 if k < extra else 0) for k in range(B)]
    want = []
    pos = 0
    for sz in sizes:
        chunk = matched[pos:pos + sz]
        pos += sz
        want.append((sz, chunk[0], chunk[-1], sum(chunk)))
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": docs,
                  "v": pa.array(vals, pa.float64())})
    root = tmp_path_factory.mktemp("vwh")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    cfg = IndexConfig(num_partitions=3,
                      fields=(("content", "text", "base"),),
                      keyword_fields=(), range_fields=("v",),
                      doc_id_col="doc_id", sha_col="text")
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    for actors in (False, True):
        s = Searcher(idx, use_actors=actors)
        try:
            rows = s.variable_width_histogram("spark", "v",
                                              buckets=B)
            got = [(r["doc_count"], r["min"], r["max"], r["sum"])
                   for r in rows]
            assert got == [(sz, mn, mx, float(sm))
                           for sz, mn, mx, sm in want], \
                actors
            # key = centroid
            for r, (sz, _, _, sm) in zip(rows, want):
                assert r["key"] == pytest.approx(sm / sz)
            # through the JSON executor
            r2 = execute_dsl(s, {"size": 0,
                "query": {"match": {"content": "spark"}},
                "aggs": {"vw": {"variable_width_histogram": {
                    "field": "v", "buckets": B}}}})
            assert r2["aggregations"]["vw"]["buckets"] == rows
            # B > n collapses to one cluster per value position
            one = s.variable_width_histogram("spark", "v",
                                             buckets=10**6)
            assert len(one) == len(matched)
            assert [r["min"] for r in one] == matched
        finally:
            s.close()


def test_pit_pins_visibility(ray_session, tmp_path_factory):
    """Point-in-time: a search under the PIT sees the open-time doc
    set — later _bulk ingests invisible, later deletes still returned
    — on a LIVE actor-backed searcher reopened after the mutations;
    the live view is restored when the PIT block exits; close frees."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_bulk, execute_close_pit, execute_dsl, execute_open_pit)
    n = 60
    rng = np.random.default_rng(9)
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB), 8))
            for _ in range(n)]
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": docs,
        "lang": [["py", "go"][i % 2] for i in range(n)],
    })
    root = tmp_path_factory.mktemp("pit")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),),
                      keyword_fields=("lang",), range_fields=(),
                      doc_id_col="doc_id", sha_col="text")
    build_index([src], idx, cfg)
    s = Searcher(idx, use_actors=False)
    base = {int(d) for _, d in s.search("spark", k=1 << 31)}
    assert base, "fixture should match spark"
    victim = min(base)
    pit = execute_open_pit(s)["pit_id"]
    s.close()
    execute_bulk(idx, [{"index": {"_id": 2000}},
                       {"text": "spark zebra", "lang": "py"},
                       {"delete": {"_id": victim}}])
    s2 = Searcher(idx, use_actors=True)
    try:
        live = {int(d) for _, d in s2.search("spark", k=1 << 31)}
        assert 2000 in live and victim not in live
        resp = execute_dsl(s2, {
            "query": {"match": {"content": "spark"}}, "size": 500,
            "pit": {"id": pit}})
        assert {h["_id"] for h in resp["hits"]["hits"]} == base
        assert resp["pit_id"] == pit
        # live view restored after the PIT block
        assert {int(d) for _, d in s2.search("spark", k=1 << 31)} == live
        # a FRESH actor pool whose first request runs under the PIT:
        # the pinned exclusion set reaches every shard group before
        # any query has run there
        s3 = Searcher(idx, use_actors=True)
        try:
            resp = execute_dsl(s3, {
                "query": {"prefix": {"content": "spar"}}, "size": 500,
                "pit": {"id": pit}})
            assert {h["_id"] for h in resp["hits"]["hits"]} == base
        finally:
            s3.close()
        assert execute_close_pit(s2, {"pit_id": pit}) == {
            "succeeded": True, "num_freed": 1}
        with pytest.raises(KeyError, match="unknown or closed"):
            execute_dsl(s2, {"query": {"match": {"content": "spark"}},
                             "pit": {"id": pit}})
    finally:
        s2.close()


def test_pit_ids_never_reused_after_close(tmp_path):
    """open A, open B, close A, open C: C must not take B's id (an
    ordinal derived from the count of open PITs would), so closing C
    leaves B open."""
    import json as _json

    from siem_on_amazon_opensearch_service_ray.state.pit import (
        close_pit, open_pit, pit_exclusions)
    idx = str(tmp_path)
    (tmp_path / "INDEX_MANIFEST.json").write_text(
        _json.dumps({"fingerprint": "f" * 16, "generations": {}}))
    a = open_pit(idx)
    b = open_pit(idx)
    assert close_pit(idx, a)
    c = open_pit(idx)
    assert c != b and c != a
    assert close_pit(idx, c)
    assert pit_exclusions(idx, b).size == 0     # B is still open
    assert close_pit(idx, b)
    with pytest.raises(KeyError, match="unknown or closed"):
        pit_exclusions(idx, b)


def test_pit_stable_deep_pagination(ray_session, tmp_path_factory):
    """THE PIT use case: field-sorted search_after paging stays
    consistent when docs are ingested mid-pagination — the remaining
    pages reproduce exactly the open-time snapshot, no duplicates or
    skips; the same pagination WITHOUT the pit surfaces the new doc.
    (Score-sorted cursors are NOT stats-stable across ingests — the
    documented PIT deviation — so deep paging sorts on a field, the
    OpenSearch timestamp+tiebreak pattern.)"""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_bulk, execute_dsl, execute_open_pit)
    n = 50
    rng = np.random.default_rng(31)
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB), 8))
            for _ in range(n)]
    root = tmp_path_factory.mktemp("pitpage")
    src = str(root / "d.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": docs,
        "lang": [["py", "go"][i % 2] for i in range(n)],
        "ord": pa.array([float(i) for i in range(n)], pa.float64()),
    }), src)
    idx = str(root / "idx")
    cfg = IndexConfig(num_partitions=2,
                      fields=(("content", "text", "base"),),
                      keyword_fields=("lang",), range_fields=("ord",),
                      doc_id_col="doc_id", sha_col="text")
    build_index([src], idx, cfg)
    s = Searcher(idx, use_actors=False)
    pit = execute_open_pit(s)["pit_id"]
    first = execute_dsl(s, {"sort": [{"ord": "asc"}], "size": 7,
                            "pit": {"id": pit}})
    s.close()
    execute_bulk(idx, [{"index": {"_id": 3000}},
                       {"text": "spark spark spark spark",
                        "lang": "py", "ord": 7.5}])
    s2 = Searcher(idx, use_actors=False)
    try:
        ids = [h["_id"] for h in first["hits"]["hits"]]
        cursor = first["hits"]["hits"][-1]["sort"]
        while True:
            page = execute_dsl(s2, {"sort": [{"ord": "asc"}],
                                    "size": 7, "pit": {"id": pit},
                                    "search_after": cursor})
            hits = page["hits"]["hits"]
            if not hits:
                break
            ids += [h["_id"] for h in hits]
            cursor = hits[-1]["sort"]
        assert ids == list(range(n))        # exact open-time snapshot
        # the same drain WITHOUT the pit picks up the new doc at 7.5
        live, cursor = [], None
        while True:
            body = {"sort": [{"ord": "asc"}], "size": 7}
            if cursor is not None:
                body["search_after"] = cursor
            hits = execute_dsl(s2, body)["hits"]["hits"]
            if not hits:
                break
            live += [h["_id"] for h in hits]
            cursor = hits[-1]["sort"]
        assert live == list(range(8)) + [3000] + list(range(8, n))
    finally:
        s2.close()
