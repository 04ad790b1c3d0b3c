"""Doc-sharded execution for the scoring operators that need the full
match set (constant_score / boosting / function_score / collapse) plus
the presence-count aggs: every method called on an actor-backed
Searcher (which runs it per doc shard) must be rank-AND-score
identical to the same method on an in-process Searcher over the same
index, and function_score's
decay / weight / score_mode surface is checked against a brute-force
reference.  Reference parity: OpenSearch executes these per doc shard
and merges shard-local partials (the collapse combine is an
associative max per value; function_score rescoring is per-doc
local)."""

import math
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index)
from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

VOCAB = ["spark", "join", "shuffle", "sql", "table", "query", "index",
         "merge", "sort", "scan", "filter", "group"]
N_DOCS = 400


@pytest.fixture(scope="module")
def pair(ray_session, tmp_path_factory):
    """(in-process driver searcher, actor-sharded searcher) over one
    index of the corpus."""
    rng = np.random.default_rng(11)
    docs = []
    for _ in range(N_DOCS):
        n = int(rng.integers(5, 40))
        docs.append(" ".join(VOCAB[int(j)]
                             for j in rng.integers(0, len(VOCAB), n)))
    t = pa.table({
        "doc_id": pa.array(range(N_DOCS), pa.int64()),
        "text": docs,
        # every 11th doc has NO lang (collapse omission + missing agg)
        "lang": [None if i % 11 == 3 else ["py", "go", "rs", "js"][i % 4]
                 for i in range(N_DOCS)],
        "n_chars": pa.array([len(d) for d in docs], pa.int64()),
    })
    root = tmp_path_factory.mktemp("scoring")
    src = str(root / "docs.parquet")
    pq.write_table(t, src)
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),),
                      keyword_fields=("lang",), range_fields=("n_chars",),
                      doc_id_col="doc_id", sha_col="text")
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    s_local = Searcher(idx, use_actors=False)
    s_act = Searcher(idx, use_actors=True)
    yield s_local, s_act, docs, t
    s_act.close()


def _same(got, want):
    assert [d for _, d in got] == [d for _, d in want]
    np.testing.assert_allclose([s for s, _ in got],
                               [s for s, _ in want], rtol=1e-12)


def test_constant_score_sharded(pair):
    st, sd, _, _ = pair
    for q, k in [("spark join", 25), ("needle", 5), ("sql", 400)]:
        _same(sd.constant_score(q, boost=1.5, k=k),
              st.constant_score(q, boost=1.5, k=k))
    # AND mode narrows the filter set; scores stay the constant
    _same(sd.constant_score("spark join", mode="and", k=50),
          st.constant_score("spark join", mode="and", k=50))


def test_boosting_sharded(pair):
    st, sd, _, _ = pair
    kw = dict(negative_boost=0.5, k=30)
    _same(sd.boosting_search("spark join", "sort", **kw),
          st.boosting_search("spark join", "sort", **kw))
    # demote-nothing and demote-everything edges
    _same(sd.boosting_search("spark", "zz_nope", k=20),
          st.boosting_search("spark", "zz_nope", k=20))
    _same(sd.boosting_search("spark", "spark", negative_boost=0.1,
                             k=20),
          st.boosting_search("spark", "spark", negative_boost=0.1, k=20))


def test_rescore_cross_layout(pair):
    """rescore (score_mode=total): doc-sharded secondary scoring must
    be rank-and-score identical to the single-process path, and the
    combine must match a brute-force primary+secondary blend."""
    st, sd, _, _ = pair
    kw = dict(k=15, window_size=40, query_weight=1.0,
              rescore_query_weight=2.0)
    got = sd.rescore_search("spark join", "merge sort", **kw)
    want = st.rescore_search("spark join", "merge sort", **kw)
    _same(got, want)

    # brute force: blend the two standalone searches over the window
    prim = st.search("spark join", k=40)
    sec = dict((d, s) for s, d in st.search("merge sort", k=N_DOCS))
    ref = sorted(((1.0 * s + 2.0 * sec.get(d, 0.0), d)
                  for s, d in prim), key=lambda t: (-t[0], t[1]))[:15]
    _same(got, ref)

    # a doc OUTSIDE the top-window_size primary hits must never enter,
    # even if the secondary would promote it: shrink the window to 5
    small = st.rescore_search("spark join", "merge sort", k=5,
                              window_size=5)
    win_ids = {d for _, d in st.search("spark join", k=5)}
    assert {d for _, d in small} <= win_ids
    _same(sd.rescore_search("spark join", "merge sort", k=5,
                            window_size=5), small)

    # no-secondary-match edge: combined == query_weight * primary
    noop = st.rescore_search("spark", "zz_nope", k=10, window_size=20,
                             query_weight=0.7)
    base = st.search("spark", k=20)
    ref2 = sorted(((0.7 * s, d) for s, d in base),
                  key=lambda t: (-t[0], t[1]))[:10]
    _same(noop, ref2)
    _same(sd.rescore_search("spark", "zz_nope", k=10, window_size=20,
                            query_weight=0.7), noop)
    assert st.rescore_search("zz_nope", "spark", k=5) == []


def test_function_score_sharded_legacy(pair):
    st, sd, _, _ = pair
    kw = dict(value_field="n_chars", factor=0.01, modifier="log1p", k=25)
    _same(sd.function_score("spark join", **kw),
          st.function_score("spark join", **kw))
    kw = dict(value_field="n_chars", factor=0.001, modifier="sqrt",
              boost_mode="sum", k=25)
    _same(sd.function_score("spark join", **kw),
          st.function_score("spark join", **kw))


def test_function_score_decay_modes_sharded(pair):
    st, sd, _, _ = pair
    fns = [
        {"type": "gauss", "field": "n_chars", "origin": 120.0,
         "scale": 60.0, "offset": 10.0, "decay": 0.5, "weight": 2.0},
        {"type": "field_value_factor", "field": "n_chars",
         "factor": 0.01, "modifier": "log1p"},
        {"type": "weight", "weight": 0.7},
    ]
    for score_mode in ("multiply", "sum", "avg", "min", "max"):
        for boost_mode in ("multiply", "sum", "replace"):
            kw = dict(functions=fns, score_mode=score_mode,
                      boost_mode=boost_mode, k=20)
            _same(sd.function_score("spark join", **kw),
                  st.function_score("spark join", **kw))
    for typ in ("exp", "linear"):
        fn = [{"type": typ, "field": "n_chars", "origin": 100.0,
               "scale": 50.0, "decay": 0.3}]
        _same(sd.function_score("spark join", functions=fn, k=20),
              st.function_score("spark join", functions=fn, k=20))
    # random_score: per-doc-local hash -> identical per shard,
    # deterministic across calls, seed changes the order
    fn = [{"type": "random_score", "seed": 11}]
    r1 = st.function_score("spark join", functions=fn, k=20)
    _same(sd.function_score("spark join", functions=fn, k=20), r1)
    _same(st.function_score("spark join", functions=fn, k=20), r1)
    base = {d for _, d in st.search("spark join", k=20)}
    assert {d for _, d in r1} <= {d for _, d in
                                  st.search("spark join", k=1 << 31)}
    fn2 = [{"type": "random_score", "seed": 12}]
    r2 = st.function_score("spark join", functions=fn2, k=20)
    assert [d for _, d in r2] != [d for _, d in r1] or base == set()
    # DSL body parse for random_score routes to the same execution
    from siem_on_amazon_opensearch_service_ray.state.dsl import execute_dsl
    resp = execute_dsl(st, {"query": {"function_score": {
        "query": {"match": {"content": "spark join"}},
        "functions": [{"random_score": {"seed": 11}}]}}, "size": 20})
    assert [h["_id"] for h in resp["hits"]["hits"]] == [d for _, d in r1]


def test_decay_math_brute_force(pair):
    """The decay curves match OpenSearch's published formulas exactly,
    checked doc-by-doc against a pure-Python reference."""
    st, _, docs, _ = pair
    origin, scale, offset, decay = 120.0, 60.0, 10.0, 0.5
    for typ in ("gauss", "exp", "linear"):
        hits = st.function_score(
            "spark join", functions=[{
                "type": typ, "field": "n_chars", "origin": origin,
                "scale": scale, "offset": offset, "decay": decay}],
            boost_mode="replace", k=15)
        for s, d in hits:
            dist = max(0.0, abs(len(docs[d]) - origin) - offset)
            if typ == "gauss":
                sigma2 = -(scale ** 2) / (2.0 * math.log(decay))
                want = math.exp(-(dist ** 2) / (2.0 * sigma2))
            elif typ == "exp":
                want = math.exp(math.log(decay) / scale * dist)
            else:
                sl = scale / (1.0 - decay)
                want = max((sl - dist) / sl, 0.0)
            assert s == pytest.approx(want, rel=1e-12)


def test_function_score_spec_errors(pair):
    _, sd, _, _ = pair
    with pytest.raises(ValueError, match="boost_mode"):
        sd.function_score("spark", value_field="n_chars",
                          boost_mode="xor")
    with pytest.raises(ValueError, match="score_mode"):
        sd.function_score("spark", value_field="n_chars",
                          score_mode="xor")
    with pytest.raises(ValueError, match="value_field"):
        sd.function_score("spark")
    with pytest.raises(ValueError, match="at least one"):
        sd.function_score("spark", functions=[])
    st = pair[0]
    with pytest.raises(ValueError, match="decay"):
        st.function_score("spark", functions=[{
            "type": "gauss", "field": "n_chars", "origin": 0.0,
            "scale": 10.0, "decay": 1.5}])
    with pytest.raises(ValueError, match="scale"):
        st.function_score("spark", functions=[{
            "type": "exp", "field": "n_chars", "origin": 0.0,
            "scale": -1.0}])


def test_collapse_sharded(pair):
    st, sd, docs, t = pair
    got = sd.collapse_search("spark join", "lang", k=10)
    want = st.collapse_search("spark join", "lang", k=10)
    assert [(d, v) for _, d, v in got] == [(d, v) for _, d, v in want]
    np.testing.assert_allclose([s for s, _, _ in got],
                               [s for s, _, _ in want], rtol=1e-12)
    # brute-force shape checks: one rep per value, rep is that value's
    # best (score desc, doc asc) hit, docs missing lang omitted
    langs = t.column("lang").to_pylist()
    assert len({v for _, _, v in got}) == len(got)
    full = st.function_score("spark join", functions=[{"type": "weight",
                                                       "weight": 1.0}],
                             boost_mode="multiply", k=1 << 31)
    by_val = {}
    for s, d in full:
        v = langs[d]
        if v is None:
            continue
        cur = by_val.get(v)
        if cur is None or (s, -d) > (cur[0], -cur[1]):
            by_val[v] = (s, d)
    for s, d, v in got:
        assert by_val[v] == (pytest.approx(s), d)
        assert langs[d] == v


def test_value_count_sharded(pair):
    """value_count/missing: additive per-shard presence partials on
    actors equal the in-process computation and the brute-force
    census."""
    st, sd, docs, t = pair
    langs = t.column("lang").to_pylist()
    for q in ("spark join", "sql", "needle"):
        a = st.value_count_aggregation(q, "lang")
        b = sd.value_count_aggregation(q, "lang")
        assert a == b
        terms = set(re.findall(r"[a-z0-9_]+", q))
        match = [i for i, d in enumerate(docs)
                 if terms & set(d.split())]
        want_with = sum(1 for i in match if langs[i] is not None)
        assert a == (want_with, len(match) - want_with)


def _prefix_edit_ref(q, t, transpositions=True):
    """Reference prefix-edit distance: min edit distance from q to any
    prefix of t (OSA transpositions)."""
    best = len(q)
    for j in range(len(t) + 1):
        p = t[:j]
        D = [[0] * (len(p) + 1) for _ in range(len(q) + 1)]
        for i in range(len(q) + 1):
            D[i][0] = i
        for jj in range(len(p) + 1):
            D[0][jj] = jj
        for i in range(1, len(q) + 1):
            for jj in range(1, len(p) + 1):
                D[i][jj] = min(D[i - 1][jj] + 1, D[i][jj - 1] + 1,
                               D[i - 1][jj - 1]
                               + (q[i - 1] != p[jj - 1]))
                if (transpositions and i > 1 and jj > 1
                        and q[i - 1] == p[jj - 2]
                        and q[i - 2] == p[jj - 1]):
                    D[i][jj] = min(D[i][jj], D[i - 2][jj - 2] + 1)
        best = min(best, D[len(q)][len(p)])
    return best


def test_completion_fuzzy(pair):
    st, sd, docs, _ = pair
    # 'sprk' with one edit completes to spark (and nothing else here)
    got = sd.suggest_completion("sprk", fuzziness=1, size=10)
    assert [t for t, _ in got] == ["spark"]
    # expansion set == brute-force prefix-edit distance over the vocab,
    # same in process and on actors
    for q, d in [("sprk", 1), ("sq", 1), ("tble", 1), ("xy", 2)]:
        want = sorted(t for t in VOCAB
                      if t[:1] == q[:1]
                      and _prefix_edit_ref(q, t) <= d)
        for s in (st, sd):
            exp = s.expand_terms(q, "content", "completion_fuzzy",
                                 1 << 20, d, True, q[:1])
            assert exp == want, (q, d, exp, want)
    # transposition counts one edit: 'jion' -> join
    got = sd.suggest_completion("jion", fuzziness=1, size=5)
    assert [t for t, _ in got] == ["join"]
    got = sd.suggest_completion("jion", fuzziness=1, size=5,
                                transpositions=False)
    assert got == []


def test_completion_context(pair):
    st, sd, docs, t = pair
    langs = t.column("lang").to_pylist()
    # brute-force: df of each s-term within lang=py docs
    want = {}
    for term in VOCAB:
        if not term.startswith("s"):
            continue
        n = sum(1 for i, d in enumerate(docs)
                if langs[i] == "py" and term in d.split())
        if n:
            want[term] = n
    for s in (st, sd):
        got = s.suggest_completion("s", size=20, context_field="lang",
                                   context_value="py")
        assert dict(got) == want
        # ranking: df desc, term asc
        assert got == sorted(got, key=lambda kv: (-kv[1], kv[0]))
    # empty context -> no suggestions
    assert sd.suggest_completion("s", context_field="lang",
                                 context_value="zz") == []


def test_match_bool_prefix_cross_layout(pair):
    """match_bool_prefix: in-process driver path vs doc-sharded —
    rank AND score identical, and equal to the hand-built expanded OR
    (literal terms + prefix expansion of the last token)."""
    s_local, s_act, docs, _ = pair
    got_t = s_local.match_bool_prefix("spark s", k=50)
    got_d = s_act.match_bool_prefix("spark s", k=50)
    _same(got_d, got_t)
    # reference: union of 'spark' and every vocab term starting 's'
    exp = ["spark"] + sorted({w for w in VOCAB
                              if w.startswith("s") and w != "spark"})
    want = s_local._expanded_or(
        list(dict.fromkeys(exp)), "content", 50, 1.2, 0.75)
    assert {d for _, d in got_t} == {d for _, d in want}
    # single-token query: pure prefix query
    _same(s_local.match_bool_prefix("sq", k=20),
          s_local.prefix_search("sq", k=20))
    # empty analysis -> []
    assert s_local.match_bool_prefix("!!!", k=5) == []


@pytest.fixture(scope="module")
def cf_pair(ray_session, tmp_path_factory):
    """Two-text-field corpus with per-doc length sidecars
    (combined_fields needs store_doclens), searched in process and on
    actors."""
    rng = np.random.default_rng(23)
    docs, titles = [], []
    for i in range(200):
        n = int(rng.integers(3, 30))
        docs.append(" ".join(VOCAB[int(j)]
                             for j in rng.integers(0, len(VOCAB), n)))
        titles.append(" ".join(VOCAB[int(j)]
                               for j in rng.integers(0, len(VOCAB), 3)))
    t = pa.table({"doc_id": pa.array(range(200), pa.int64()),
                  "text": docs, "title": titles})
    root = tmp_path_factory.mktemp("cf")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),
                              ("title", "title", "base")),
                      keyword_fields=(), range_fields=(),
                      doc_id_col="doc_id", sha_col="text",
                      store_doclens=True)
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    s_local = Searcher(idx, use_actors=False)
    s_act = Searcher(idx, use_actors=True)
    yield s_local, s_act, docs, titles
    s_act.close()


def test_combined_fields_cross_layout_and_reference(cf_pair):
    """combined_fields: in-process driver path vs doc-sharded — rank
    AND score identical — and equal to a brute-force BM25F reference
    (weighted tf, sidecar quantized dl, union df)."""
    import math
    from siem_on_amazon_opensearch_service_ray.norms import (
        decode_norm, encode_norm)
    s_local, s_act, docs, titles = cf_pair
    q, flds = "spark sort", ["content", "title^3"]
    got_t = s_local.combined_fields(q, flds, k=300)
    got_d = s_act.combined_fields(q, flds, k=300)
    _same(got_d, got_t)
    # brute force
    N = len(docs)
    dlc = [len(d.split()) for d in docs]
    dlt = [len(t.split()) for t in titles]
    qz = lambda v: float(decode_norm(encode_norm(
        np.array([v]))).astype(float)[0])
    avg = sum(dlc) / N + 3 * sum(dlt) / N
    scores = {}
    for term in ["spark", "sort"]:
        tf = {}
        for i in range(N):
            v = docs[i].split().count(term) + 3 * titles[i].split().count(term)
            if v:
                tf[i] = float(v)
        idf = math.log(1 + (N - len(tf) + 0.5) / (len(tf) + 0.5))
        for i, v in tf.items():
            dl = qz(dlc[i]) + 3 * qz(dlt[i])
            scores[i] = scores.get(i, 0.0) + \
                idf * v * 2.2 / (v + 1.2 * (1 - 0.75 + 0.75 * dl / avg))
    want = sorted(((sc, d) for d, sc in scores.items()),
                  key=lambda t: (-t[0], t[1]))[:300]
    _same(got_t, want)
    # weight < 1 rejected; empty query/fields -> []
    with pytest.raises(ValueError, match=">= 1"):
        s_local.combined_fields("spark", ["content^0.5"])
    assert s_local.combined_fields("", flds) == []
    assert s_local.combined_fields("zz_not_there", flds) == []


def test_combined_fields_requires_sidecar(pair):
    """An index built WITHOUT store_doclens raises a named error."""
    s_local, _, _, _ = pair
    with pytest.raises(ValueError, match="store_doclens"):
        s_local.combined_fields("spark", ["content"], k=5)


def test_intervals_translation_contracts(pair):
    """intervals -> span translation: single-token match = span_term;
    unbounded max_gaps; unsupported kinds raise named errors."""
    s_local, _, _, _ = pair
    an = lambda t: t.split()
    one = Searcher._intervals_to_span({"match": {"query": "spark"}}, an)
    assert one == {"span_term": "spark"}
    near = Searcher._intervals_to_span(
        {"match": {"query": "spark join", "ordered": True}}, an)
    assert near["span_near"]["slop"] == Searcher._INTERVALS_UNBOUNDED
    assert near["span_near"]["in_order"] is True
    allof = Searcher._intervals_to_span(
        {"all_of": {"intervals": [{"match": {"query": "spark"}},
                                  {"any_of": {"intervals": [
                                      {"match": {"query": "join"}},
                                      {"match": {"query": "sort"}}]}}],
                    "max_gaps": 1, "ordered": True}}, an)
    assert allof["span_near"]["clauses"][1]["span_or"]
    with pytest.raises(ValueError, match="not supported"):
        Searcher._intervals_to_span({"prefix": {"prefix": "sp"}}, an)
    with pytest.raises(ValueError, match="empty query"):
        Searcher._intervals_to_span({"match": {"query": ""}}, an)
    with pytest.raises(ValueError, match="requires intervals"):
        Searcher._intervals_to_span({"any_of": {"intervals": []}}, an)


def test_geo_queries_cross_layout(pair, tmp_path_factory, ray_session):
    """geo_bounding_box / geo_distance queries: doc-sharded on actors
    equals the in-process driver path, equals a brute-force filtered
    BM25."""
    rng = np.random.default_rng(7)
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB),
                                           int(rng.integers(5, 25))))
            for _ in range(300)]
    t = pa.table({"doc_id": pa.array(range(300), pa.int64()),
                  "text": docs,
                  "lat": pa.array([-40.0 + (i % 100) * 0.9
                                   for i in range(300)], pa.float64()),
                  "lon": pa.array([-90.0 + (i % 100) * 1.7
                                   for i in range(300)], pa.float64())})
    root = tmp_path_factory.mktemp("geoq")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),),
                      keyword_fields=(), range_fields=("lat", "lon"),
                      doc_id_col="doc_id", sha_col="text")
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    s_t = Searcher(idx, use_actors=False)
    s_d = Searcher(idx, use_actors=True)
    try:
        box = (("spark join", "lat", "lon", (20.05, -50.05),
                (-10.05, 30.05)))
        bt = s_t.geo_bounding_box_search(*box, k=300)
        bd = s_d.geo_bounding_box_search(*box, k=300)
        _same(bd, bt)
        inside = {i for i in range(300)
                  if -10.05 <= -40.0 + (i % 100) * 0.9 <= 20.05
                  and -50.05 <= -90.0 + (i % 100) * 1.7 <= 30.05}
        ref = [(sc, d) for sc, d in s_t.search("spark join", k=300)
               if d in inside]
        _same(bt, ref)
        dq = ("spark join", "lat", "lon", (0.0, 0.0), 2000.0)
        dt = s_t.geo_distance_search(*dq, k=300)
        dd = s_d.geo_distance_search(*dq, k=300)
        _same(dd, dt)
        import math
        def hav(la, lo):
            a = (math.sin(math.radians(la) / 2) ** 2
                 + math.cos(0.0) * math.cos(math.radians(la))
                 * math.sin(math.radians(lo) / 2) ** 2)
            return 2 * 6371.0 * math.asin(math.sqrt(a))
        near = {i for i in range(300)
                if hav(-40.0 + (i % 100) * 0.9,
                       -90.0 + (i % 100) * 1.7) <= 2000.0}
        ref_d = [(sc, d) for sc, d in s_t.search("spark join", k=300)
                 if d in near]
        _same(dt, ref_d)
        # empty band / empty box
        assert s_t.geo_distance_search("spark", "lat", "lon",
                                       (89.0, 0.0), 10.0) == []
        assert s_t.geo_bounding_box_search("spark", "lat", "lon",
                                           (89.9, 0.0), (89.8, 0.1)) == []
        # geo_polygon: convex ring, identical on actors, equals the
        # brute-force half-plane census; CW input auto-reverses
        ring = [(-35.01, -80.03), (-37.07, 40.09),
                (15.03, 55.01), (25.09, -60.07)]  # (lat, lon), CCW
        pq_args = ("spark join", "lat", "lon", ring)
        pt = s_t.geo_polygon_search(*pq_args, k=300)
        pd_ = s_d.geo_polygon_search(*pq_args, k=300)
        _same(pd_, pt)
        vx = [lo for _la, lo in ring]
        vy = [la for la, _lo in ring]
        def _inside(la, lo):
            n = len(ring)
            for i in range(n):
                j = (i + 1) % n
                if ((vx[j] - vx[i]) * (la - vy[i])
                        - (vy[j] - vy[i]) * (lo - vx[i])) <= 0:
                    return False
            return True
        poly_in = {i for i in range(300)
                   if _inside(-40.0 + (i % 100) * 0.9,
                              -90.0 + (i % 100) * 1.7)}
        assert poly_in, "fixture ring should contain grid points"
        ref_p = [(sc, d) for sc, d in s_t.search("spark join", k=300)
                 if d in poly_in]
        _same(pt, ref_p)
        cw = s_t.geo_polygon_search("spark join", "lat", "lon",
                                    ring[::-1], k=300)
        _same(cw, pt)
        with pytest.raises(ValueError, match="convex"):
            s_t.geo_polygon_search("spark", "lat", "lon",
                                   [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0),
                                    (9.0, 9.0)])
        with pytest.raises(ValueError, match=">= 3"):
            s_t.geo_polygon_search("spark", "lat", "lon",
                                   [(0.0, 0.0), (1.0, 1.0)])
    finally:
        s_d.close()


def test_knn_index_sidecar(ray_session, tmp_path_factory):
    """In-index exact kNN: per-shard matvec top-k equals brute force;
    empty vectors skipped; missing-sidecar guard raises."""
    rng = np.random.default_rng(5)
    n, dim = 120, 16
    vecs = rng.normal(size=(n, dim)).astype(np.float32)
    emb = [None if i == 7 else vecs[i].tolist() for i in range(n)]
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": [f"doc number {i}" for i in range(n)],
                  "emb": pa.array(emb, pa.list_(pa.float32()))})
    root = tmp_path_factory.mktemp("knnidx")
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),),
                      keyword_fields=(), range_fields=(),
                      doc_id_col="doc_id", sha_col="text",
                      vector_fields=("emb",))
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    s = Searcher(idx, use_actors=True)
    try:
        q = vecs[3].astype(np.float64)
        got = s.knn_search("emb", q.tolist(), k=10)
        m = vecs.astype(np.float64)
        sims = (m @ q) / (np.linalg.norm(m, axis=1) * np.linalg.norm(q))
        sims[7] = -np.inf                       # doc 7 has no vector
        want_ids = np.lexsort((np.arange(n), -sims))[:10]
        assert [d for _, d in got] == [int(i) for i in want_ids]
        np.testing.assert_allclose([c for c, _ in got],
                                   sims[want_ids], rtol=1e-12)
        assert got[0][1] == 3 and abs(got[0][0] - 1.0) < 1e-12
        # DSL knn node
        from siem_on_amazon_opensearch_service_ray.state.dsl import (
            execute_dsl)
        r = execute_dsl(s, {"query": {"knn": {"emb": {
            "vector": q.tolist(), "k": 5}}}})
        assert [h["_id"] for h in r["hits"]["hits"]] == \
            [d for _, d in got[:5]]
    finally:
        s.close()
    # guard: no sidecar
    s2 = Searcher(idx, use_actors=False)
    with pytest.raises(ValueError, match="vector sidecar"):
        s2._vectors("other")
