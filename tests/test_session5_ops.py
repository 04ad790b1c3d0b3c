"""multi_terms / significant_text / terms_set / geo_distance vs brute
force, executed per shard on actors and in process — per-shard
partials must reproduce the exact whole-corpus result.  Reference
semantics: OpenSearch multi_terms (docs missing either field are
skipped), significant_text JLH
(doc-count percentages, full-dictionary scan), terms_set with
minimum_should_match_field (per-doc minimum, BM25-sum scoring),
geo_distance arc rings (from-incl/to-excl km, haversine R=6371)."""

import math
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index)
from siem_on_amazon_opensearch_service_ray.state.searcher import (
    Searcher, _haversine_km)

VOCAB = ["spark", "join", "shuffle", "sql", "table", "query", "index",
         "merge", "sort", "scan", "filter", "group"]
N = 240


def _toks(x):
    return re.findall(r"[a-z0-9_]+", x.lower())


def _paths_agree(searchers, method, *args, **kw):
    """The public method on the actor pool and in process: identical
    ids, scores to rtol 1e-12."""
    a = getattr(searchers["actors"], method)(*args, **kw)
    b = getattr(searchers["local"], method)(*args, **kw)
    assert [d for _, d in a] == [d for _, d in b], method
    np.testing.assert_allclose([s for s, _ in a], [s for s, _ in b],
                               rtol=1e-12, err_msg=method)
    return b


@pytest.fixture(scope="module")
def corpora(ray_session, tmp_path_factory):
    rng = np.random.default_rng(55)
    docs = []
    for _ in range(N):
        n = int(rng.integers(5, 30))
        docs.append(" ".join(VOCAB[int(j)]
                             for j in rng.integers(0, len(VOCAB), n)))
    grid = np.arange(N) % 40
    t = pa.table({
        "doc_id": pa.array(range(N), pa.int64()),
        "text": docs,
        "lang": [["py", "go", "rs"][i % 3] for i in range(N)],
        "repo": [f"r{i % 4}" for i in range(N)],
        "msm": pa.array([(i % 3) + 1.0 for i in range(N)], pa.float64()),
        "lat": pa.array(-20.0 + grid * 0.9, pa.float64()),
        "lon": pa.array(-50.0 + grid * 1.7, pa.float64()),
    })
    root = tmp_path_factory.mktemp("s5ops")
    src = str(root / "docs.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),),
                      keyword_fields=("lang", "repo"),
                      range_fields=("msm", "lat", "lon"),
                      doc_id_col="doc_id", sha_col="text",
                      store_positions=True)
    build_index([src], idx, cfg)
    out = {"actors": Searcher(idx, use_actors=True),
           "local": Searcher(idx, use_actors=False)}
    yield out, docs
    for s in out.values():
        s.close()


def _match(docs, terms):
    return [i for i, d in enumerate(docs)
            if any(t in _toks(d) for t in terms)]


def test_multi_terms(corpora):
    searchers, docs = corpora
    m = _match(docs, ["spark", "join"])
    exp: dict = {}
    for i in m:
        key = (["py", "go", "rs"][i % 3], f"r{i % 4}")
        exp[key] = exp.get(key, 0) + 1
    want = sorted(((a, b, n) for (a, b), n in exp.items()),
                  key=lambda t: (-t[2], t[0], t[1]))
    for name, s in searchers.items():
        got = s.multi_terms_aggregation("spark join", ("lang", "repo"))
        assert got == want, name


def test_significant_text_jlh(corpora):
    searchers, docs = corpora
    toksets = [set(_toks(d)) for d in docs]
    m = set(_match(docs, ["spark", "join"]))
    fgt, bgt = float(len(m)), float(N)
    exp = []
    for t in sorted(set().union(*toksets)):
        fg = sum(1 for i in m if t in toksets[i])
        bg = sum(1 for ts in toksets if t in ts)
        if fg == 0 or bg == 0:
            continue
        fp, bp = fg / fgt, bg / bgt
        if fp <= bp:
            continue
        exp.append((t, fg, (fp - bp) * (fp / bp)))
    exp.sort(key=lambda r: (-r[2], r[0]))
    for name, s in searchers.items():
        got = s.significant_text("spark join", field="content", k=20)
        assert [(t, n) for t, n, _ in got] == \
            [(t, n) for t, n, _ in exp[:20]], name
        for (_, _, a), (_, _, b) in zip(got, exp):
            assert math.isclose(a, b, rel_tol=1e-12), name


def test_significant_text_max_terms_guard(corpora):
    searchers, _ = corpora
    with pytest.raises(ValueError, match="max_terms"):
        searchers["actors"].significant_text("spark", field="content",
                                          max_terms=3)


def test_terms_set_per_doc_minimum(corpora):
    searchers, docs = corpora
    terms = ["spark", "join", "shuffle"]
    # brute-force BM25 (Lucene norm quantization), as in test_query_dsl
    tok_lists = [_toks(d) for d in docs]
    dls = [len(tl) for tl in tok_lists]
    avgdl = sum(dls) / N

    def quant(dl):
        if dl < 8:
            return dl
        sh = int(math.floor(math.log2(dl))) - 3
        return (dl >> sh) << sh

    def idf(t):
        df = sum(1 for tl in tok_lists if t in tl)
        return math.log(1 + (N - df + 0.5) / (df + 0.5))

    exp = []
    for i, tl in enumerate(tok_lists):
        nmatch = sum(1 for t in terms if t in tl)
        if nmatch < (i % 3) + 1:
            continue
        sc = 0.0
        for t in terms:
            tf = tl.count(t)
            if tf:
                dq = quant(dls[i])
                sc += idf(t) * tf * 2.2 / (
                    tf + 1.2 * (1 - 0.75 + 0.75 * dq / avgdl))
        exp.append((sc, i))
    exp.sort(key=lambda sd: (-sd[0], sd[1]))
    _paths_agree(searchers, "terms_set_search", terms, field="content",
                 msm_field="msm", k=15)
    for name, s in searchers.items():
        got = s.terms_set_search(terms, field="content", msm_field="msm",
                                 k=15)
        assert [(round(a, 6), b) for a, b in got] == \
            [(round(a, 6), b) for a, b in exp[:15]], name
    # constant minimum: msm=3 keeps only docs containing all three
    got = searchers["actors"].terms_set_search(
        terms, minimum_should_match=3, k=200)
    want_ids = {i for i, tl in enumerate(tok_lists)
                if all(t in tl for t in terms)}
    assert {d for _, d in got} == want_ids
    # no minimum given -> empty (OpenSearch requires one)
    assert searchers["actors"].terms_set_search(terms, k=5) == []


def test_geo_distance_rings(corpora):
    searchers, docs = corpora
    m = _match(docs, ["spark", "join"])
    grid = np.arange(N) % 40
    lat = -20.0 + grid * 0.9
    lon = -50.0 + grid * 1.7
    dist = _haversine_km(lat, lon, 0.0, 0.0)
    ranges = [(None, 2500.0), (2500.0, 5500.0), (5500.0, None)]
    want = []
    for lo, hi in ranges:
        n = sum(1 for i in m
                if (lo is None or dist[i] >= lo)
                and (hi is None or dist[i] < hi))
        want.append(n)
    labels = ["*-2500.0", "2500.0-5500.0", "5500.0-*"]
    for name, s in searchers.items():
        got = s.geo_distance_aggregation("spark join", "lat", "lon",
                                         (0.0, 0.0), ranges)
        assert got == list(zip(labels, want)), name
        assert sum(n for _, n in got) <= len(m)


def test_sampler_and_diversified(corpora):
    """sampler / diversified_sampler vs a brute-force replay of the
    collection rule: per doc shard (doc_id % 4), in process and on
    actors."""
    searchers, docs = corpora
    terms = ["spark", "join"]
    tok_lists = [_toks(d) for d in docs]
    dls = [len(tl) for tl in tok_lists]
    avgdl = sum(dls) / N

    def quant(dl):
        if dl < 8:
            return dl
        sh = int(math.floor(math.log2(dl))) - 3
        return (dl >> sh) << sh

    def idf(t):
        df = sum(1 for tl in tok_lists if t in tl)
        return math.log(1 + (N - df + 0.5) / (df + 0.5))

    def score(i):
        sc = 0.0
        for t in terms:
            tf = tok_lists[i].count(t)
            if tf:
                sc += idf(t) * tf * 2.2 / (
                    tf + 1.2 * (1 - 0.75 + 0.75 * quant(dls[i]) / avgdl))
        return sc

    hits = sorted(((score(i), i) for i in range(N) if score(i) > 0),
                  key=lambda sd: (-sd[0], sd[1]))

    def collect(shard_ids, shard_size, diversify, max_per_value):
        kept, cnt = [], {}
        for sc, i in hits:
            if i not in shard_ids:
                continue
            if diversify:
                v = f"r{i % 4}"
                if cnt.get(v, 0) >= max_per_value:
                    continue
                cnt[v] = cnt.get(v, 0) + 1
            kept.append(i)
            if len(kept) >= shard_size:
                break
        return kept

    def expect(shards, shard_size, diversify, max_per_value):
        out: dict = {}
        for sh in shards:
            for i in collect(sh, shard_size, diversify, max_per_value):
                v = ["py", "go", "rs"][i % 3]
                out[v] = out.get(v, 0) + 1
        return sorted(out.items(), key=lambda kv: (-kv[1], kv[0]))

    doc_shards = [set(i for i in range(N) if i % 4 == p)
                  for p in range(4)]
    for dv in (False, True):
        for shard_size in (10, 40):
            want = expect(doc_shards, shard_size, dv, 2)
            for name, s in searchers.items():
                got = s.sampler_aggregation(
                    "spark join", "lang", shard_size=shard_size,
                    diversify_field="repo" if dv else None,
                    max_docs_per_value=2)
                assert got == want, f"{name} size={shard_size} dv={dv}"


def test_geotile_grid(corpora):
    searchers, docs = corpora
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        _geotile_xy)
    m = _match(docs, ["spark", "join"])
    grid = np.arange(N) % 40
    lat = -20.0 + grid * 0.9
    lon = -50.0 + grid * 1.7
    x, y = _geotile_xy(lat, lon, 4)
    exp: dict = {}
    for i in m:
        k = f"4/{x[i]}/{y[i]}"
        exp[k] = exp.get(k, 0) + 1
    want = sorted(exp.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, s in searchers.items():
        got = s.geotile_grid_aggregation("spark join", "lat", "lon",
                                         precision=4)
        assert got == want, name
    # size truncates after the (count desc, key asc) sort
    got3 = searchers["actors"].geotile_grid_aggregation(
        "spark join", "lat", "lon", precision=4, size=3)
    assert got3 == want[:3]
    # known projections: (0,0) is the exact center tile corner
    gx, gy = _geotile_xy(np.array([0.0]), np.array([0.0]), 1)
    assert (gx[0], gy[0]) == (1, 1)


def test_percentiles_bucket_interpolation():
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        percentiles_bucket)
    buckets = [(0.0, 10), (1.0, 30), (2.0, 20), (3.0, 40)]
    rows = percentiles_bucket(buckets, [0.0, 50.0, 100.0])
    assert rows == [(0.0, 10.0), (50.0, 25.0), (100.0, 40.0)]
    # matches numpy linear on an uneven spread
    buckets = [(float(i), v) for i, v in enumerate([3, 1, 4, 1, 5, 9, 2])]
    got = percentiles_bucket(buckets, [37.5])[0][1]
    assert got == float(np.percentile([3, 1, 4, 1, 5, 9, 2], 37.5))
    assert np.isnan(percentiles_bucket([], [50.0])[0][1])


def test_geo_bounds_and_boxplot(corpora):
    searchers, docs = corpora
    m = _match(docs, ["spark", "join"])
    grid = np.arange(N) % 40
    lat = -20.0 + grid * 0.9
    lon = -50.0 + grid * 1.7
    mlat = np.array([lat[i] for i in m])
    mlon = np.array([lon[i] for i in m])
    for name, s in searchers.items():
        gb = s.geo_bounds_aggregation("spark join", "lat", "lon")
        assert gb["count"] == len(m), name
        assert gb["top_left"] == (mlat.max(), mlon.min()), name
        assert gb["bottom_right"] == (mlat.min(), mlon.max()), name
        assert math.isclose(gb["centroid"][0], mlat.mean(),
                            rel_tol=1e-12), name
        bp = s.boxplot_aggregation("spark join", "msm")
        vals = np.array([(i % 3) + 1.0 for i in m])
        assert bp["count"] == len(m) and bp["min"] == 1.0 \
            and bp["max"] == 3.0, name
        for q, p in (("q1", 25), ("q2", 50), ("q3", 75)):
            assert bp[q] == float(np.percentile(vals, p)), (name, q)
    # empty match set
    assert searchers["actors"].geo_bounds_aggregation(
        "zzzmissing", "lat", "lon") == {"count": 0}


def test_string_stats_and_t_test(corpora):
    searchers, docs = corpora
    m = _match(docs, ["spark", "join"])
    # repo values: "r0".."r3" (len 2); lang "py"/"go"/"rs" (len 2)
    vals = [f"r{i % 4}" for i in m]
    from collections import Counter
    chars = Counter("".join(vals))
    tot = sum(chars.values())
    p = np.array([chars[c] for c in sorted(chars)], np.float64) / tot
    want_entropy = float(-(p * np.log2(p)).sum())
    for name, s in searchers.items():
        st = s.string_stats("spark join", "repo")
        assert st["count"] == len(m) and st["min_length"] == 2 \
            and st["max_length"] == 2 and st["avg_length"] == 2.0, name
        assert math.isclose(st["entropy"], want_entropy,
                            rel_tol=1e-12), name
        # t_test paired over (msm, lat): d derived from the same
        # six co-moment sums
        x = np.array([(i % 3) + 1.0 for i in m])
        y = np.array([-20.0 + (i % 40) * 0.9 for i in m])
        d = x - y
        want_t = d.mean() / math.sqrt(d.var(ddof=1) / d.size)
        tt = s.t_test("spark join", "msm", "lat", test_type="paired")
        assert tt["count"] == len(m), name
        assert math.isclose(tt["t_value"], want_t, rel_tol=1e-9), name
        # welch matches scipy-style formula
        want_w = (x.mean() - y.mean()) / math.sqrt(
            x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
        tw = s.t_test("spark join", "msm", "lat",
                      test_type="heteroscedastic")
        assert math.isclose(tw["t_value"], want_w, rel_tol=1e-9), name
    # identical fields -> zero variance of d -> None
    assert searchers["actors"].t_test("spark join", "msm", "msm")[
        "t_value"] is None


def test_geohash_grid(corpora):
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        _geohash_cells)
    # canonical vectors
    assert _geohash_cells(np.array([57.64911]),
                          np.array([10.40744]), 11) == ["u4pruydqqvj"]
    assert _geohash_cells(np.array([42.605]),
                          np.array([-5.603]), 5) == ["ezs42"]
    searchers, docs = corpora
    m = _match(docs, ["spark", "join"])
    grid = np.arange(N) % 40
    lat = -20.0 + grid * 0.9
    lon = -50.0 + grid * 1.7
    cells = _geohash_cells(lat, lon, 3)
    exp: dict = {}
    for i in m:
        exp[cells[i]] = exp.get(cells[i], 0) + 1
    want = sorted(exp.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, s in searchers.items():
        got = s.geohash_grid_aggregation("spark join", "lat", "lon",
                                         precision=3)
        assert got == want, name


def test_rate_buckets():
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        rate_buckets)
    buckets = [(0.0, 240), (86400.0, 480)]
    assert rate_buckets(buckets, 86400.0, unit="hour") == \
        [(0.0, 10.0), (86400.0, 20.0)]
    assert rate_buckets(buckets, 3600.0, unit="minute") == \
        [(0.0, 4.0), (86400.0, 8.0)]
    # value_index picks a sub-agg column (e.g. a sum riding along)
    b3 = [(0.0, 240, 1200.0)]
    assert rate_buckets(b3, 86400.0, unit="day", value_index=2) == \
        [(0.0, 1200.0)]
    with pytest.raises(ValueError, match="unsupported rate unit"):
        rate_buckets(buckets, 60.0, unit="fortnight")


def test_scripted_metric(corpora):
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        compile_metric_expr)
    searchers, docs = corpora
    m = _match(docs, ["spark", "join"])
    x = np.array([(i % 3) + 1.0 for i in m])          # msm
    y = np.array([-20.0 + (i % 40) * 0.9 for i in m])  # lat
    want_state = float((x * 2 - y).sum())
    for name, s in searchers.items():
        sm = s.scripted_metric("spark join", ("msm", "lat"),
                               "msm * 2 - lat", "state / count")
        assert sm["count"] == len(m), name
        assert math.isclose(sm["state"], want_state, rel_tol=1e-12), \
            name
        assert math.isclose(sm["value"], want_state / len(m),
                            rel_tol=1e-12), name
    # escape attempts are rejected at compile time, driver-side
    for bad in ("__import__('os').system('x')", "msm.real", "msm[0]",
                "print(msm)", "lambda: 1", "'s'"):
        with pytest.raises(ValueError):
            compile_metric_expr(bad, ("msm",))
    # unknown reduce name rejected before any scatter
    with pytest.raises(ValueError, match="unknown name"):
        searchers["actors"].scripted_metric("spark", ("msm",), "msm",
                                         "state / bogus")


def test_moving_percentiles():
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        moving_percentiles_buckets)
    buckets = [(0.0, 10), (1.0, 30), (2.0, 20), (3.0, 40), (4.0, 50)]
    got = moving_percentiles_buckets(buckets, 50.0, window=3)
    assert got[0] == (0.0, None)
    assert got[1] == (1.0, 10.0)
    assert got[2] == (2.0, 20.0)       # median of [10, 30]
    assert got[3] == (3.0, 20.0)       # median of [10, 30, 20]
    assert got[4] == (4.0, 30.0)       # median of [30, 20, 40]
    # other percentiles use numpy linear interpolation
    got = moving_percentiles_buckets(buckets, 25.0, window=4)
    assert got[4][1] == float(np.percentile([10, 30, 20, 40], 25.0))


def test_script_score_and_distance_feature(corpora):
    searchers, docs = corpora
    terms = ["spark", "join"]
    tok_lists = [_toks(d) for d in docs]
    dls = [len(tl) for tl in tok_lists]
    avgdl = sum(dls) / N

    def quant(dl):
        if dl < 8:
            return dl
        sh = int(math.floor(math.log2(dl))) - 3
        return (dl >> sh) << sh

    def idf(t):
        df = sum(1 for tl in tok_lists if t in tl)
        return math.log(1 + (N - df + 0.5) / (df + 0.5))

    def bm25(i):
        sc = 0.0
        for t in terms:
            tf = tok_lists[i].count(t)
            if tf:
                sc += idf(t) * tf * 2.2 / (
                    tf + 1.2 * (1 - 0.75 + 0.75 * quant(dls[i]) / avgdl))
        return sc

    m = _match(docs, terms)
    # script_score: _score * msm (msm = i%3 + 1)
    exp = sorted(((bm25(i) * ((i % 3) + 1), i) for i in m),
                 key=lambda sd: (-sd[0], sd[1]))
    _paths_agree(searchers, "script_score_search", "spark join",
                 "_score * msm", ("msm",), k=12)
    for name, s in searchers.items():
        got = s.script_score_search("spark join", "_score * msm",
                                    ("msm",), k=12)
        assert [(round(a, 6), b) for a, b in got] == \
            [(round(a, 6), b) for a, b in exp[:12]], name
    # distance_feature on lat, origin 0, pivot 5, boost 3
    lat = [-20.0 + (i % 40) * 0.9 for i in range(N)]
    exp = sorted(((bm25(i) + 3.0 * 5.0 / (5.0 + abs(lat[i] - 0.0)), i)
                  for i in m), key=lambda sd: (-sd[0], sd[1]))
    _paths_agree(searchers, "distance_feature_search", "spark join",
                 "lat", 0.0, 5.0, boost=3.0, k=12)
    for name, s in searchers.items():
        got = s.distance_feature_search("spark join", "lat", 0.0, 5.0,
                                        boost=3.0, k=12)
        assert [(round(a, 6), b) for a, b in got] == \
            [(round(a, 6), b) for a, b in exp[:12]], name
    # functions whitelist: sqrt/log allowed, everything else blocked
    got = searchers["actors"].script_score_search(
        "spark join", "sqrt(_score) + log1p(msm)", ("msm",), k=3)
    assert got
    with pytest.raises(ValueError, match="calls allowed"):
        searchers["actors"].script_score_search(
            "spark", "open('/etc/passwd')", (), k=1)


def test_rank_feature_exists_ids_pinned(corpora):
    searchers, docs = corpora
    terms = ["spark", "join"]
    tok_lists = [_toks(d) for d in docs]
    dls = [len(tl) for tl in tok_lists]
    avgdl = sum(dls) / N

    def quant(dl):
        if dl < 8:
            return dl
        sh = int(math.floor(math.log2(dl))) - 3
        return (dl >> sh) << sh

    def idf(t):
        df = sum(1 for tl in tok_lists if t in tl)
        return math.log(1 + (N - df + 0.5) / (df + 0.5))

    def bm25(i):
        sc = 0.0
        for t in terms:
            tf = tok_lists[i].count(t)
            if tf:
                sc += idf(t) * tf * 2.2 / (
                    tf + 1.2 * (1 - 0.75 + 0.75 * quant(dls[i]) / avgdl))
        return sc

    m = _match(docs, terms)
    # rank_feature saturation over msm (i%3+1), pivot 1.5, boost 2
    exp = sorted(
        ((bm25(i) + 2.0 * (((i % 3) + 1) / (((i % 3) + 1) + 1.5)), i)
         for i in m), key=lambda sd: (-sd[0], sd[1]))
    _paths_agree(searchers, "rank_feature_search", "spark join", "msm",
                 function="saturation", pivot=1.5, boost=2.0, k=12)
    for name, s in searchers.items():
        got = s.rank_feature_search("spark join", "msm",
                                    function="saturation", pivot=1.5,
                                    boost=2.0, k=12)
        assert [(round(a, 6), b) for a, b in got] == \
            [(round(a, 6), b) for a, b in exp[:12]], name
        # exists: every doc carries msm -> first k ids ascending
        got = s.exists_search("msm", k=7)
        assert got == [(1.0, i) for i in range(7)], name
        assert s.exists_search("no_such_field") == [], name
        # ids: bogus ids drop, result doc-asc
        got = s.ids_search([9, 200 + N, 3, 9])
        assert got == [(1.0, 3), (1.0, 9)], name
        # pinned: given order first, organic (minus pinned) after
        organic = [i for _, i in
                   sorted(((bm25(i), i) for i in m),
                          key=lambda sd: (-sd[0], sd[1]))]
        pins = [organic[5], 999999, organic[0]]
        got = s.pinned_search("spark join", pins, k=6)
        ids = [d for _, d in got]
        assert ids[:2] == [organic[5], organic[0]], name
        assert ids[2:] == [i for i in organic
                           if i not in (organic[5], organic[0])][:4], \
            name
        # pinned synthetic scores strictly decrease across the pins
        assert got[0][0] > got[1][0] > got[2][0], name


def test_simple_query_string_tolerance(corpora):
    from siem_on_amazon_opensearch_service_ray.state.querystring import (
        MUST, MUST_NOT, SHOULD, parse_simple_query_string)
    searchers, docs = corpora
    s = searchers["actors"]
    # sane queries execute on both paths, identically
    for q in ("spark | join", "spark join", '"spark join"~1 -sql',
              "spar* +table"):
        _paths_agree(searchers, "simple_query_string", q, k=8)
    # garbage NEVER raises (the defining contract vs query_string)
    for junk in ("AND (((", "a^2 /re/", '"unterminated', "~~~", "", "|",
                 "+ - |", "field:value:weird", 'NOT NOT "', ")(("):
        s.simple_query_string(junk, k=3)  # must not raise
    # grammar lowering
    p = parse_simple_query_string("a + b -c")
    assert [c.occur for c in p.clauses] == [MUST, MUST, MUST_NOT]
    p = parse_simple_query_string("a b", default_operator="and")
    assert [c.occur for c in p.clauses] == [MUST, MUST]
    p = parse_simple_query_string("a | b", default_operator="and")
    assert [c.occur for c in p.clauses] == [MUST, SHOULD]
    p = parse_simple_query_string('"x y"~2 z~ w*')
    assert [(c.kind, c.slop, c.fuzziness) for c in p.clauses] == \
        [("phrase", 2, 0), ("fuzzy", 0, 2), ("prefix", 0, 0)]


def test_percolate(ray_session):
    import pandas as pd
    import ray.data as rd
    from siem_on_amazon_opensearch_service_ray.stages.percolate import (
        compile_rules, percolate_batch, percolate_docs)
    texts = ["spark join shuffle", "table scan", "sql table",
             "merge sort now", "sort merge", "spark Join!"]
    rules = [("r1", "spark AND join"), ("r2", "+table -sql"),
             ("r3", '"merge sort"'), ("r4", "shuffle | scan")]
    comp = compile_rules(rules)
    got = percolate_batch(texts, comp)
    assert got == [["r1", "r4"], ["r2", "r4"], [], ["r3"], [],
                   ["r1"]]
    # invalid rules fail REGISTRATION, not silently never match
    with pytest.raises(ValueError):
        compile_rules([("bad", "lang:en spark")])
    with pytest.raises(ValueError):
        compile_rules([("bad", "spar*")])
    # the Dataset stage emits one row per (doc, rule)
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": list(range(len(texts))), "text": texts}))
    out = percolate_docs(ds, rules).to_pandas() \
        .sort_values(["doc_id", "rule_id"]).reset_index(drop=True)
    want = [(i, r) for i, rs in enumerate(got) for r in rs]
    assert list(map(tuple, out.itertuples(index=False))) == want
