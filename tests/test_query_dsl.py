"""Query-DSL surface vs brute force: boolean queries, prefix/wildcard
multi-term rewrite, ordered span-near, and match-set aggregations
(cardinality / histogram / stats) — every result checked against a
pure-Python reference over the same corpus."""

import math
import re
from itertools import product

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index)
from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

VOCAB = ["spark", "join", "shuffle", "sql", "table", "query", "index",
         "merge", "sort", "scan", "filter", "group"]
N_DOCS = 300


@pytest.fixture(scope="module")
def dsl_index(ray_session, tmp_path_factory):
    rng = np.random.default_rng(7)
    docs = []
    for _ in range(N_DOCS):
        n = int(rng.integers(5, 40))
        docs.append(" ".join(VOCAB[int(j)]
                             for j in rng.integers(0, len(VOCAB), n)))
    t = pa.table({
        "doc_id": pa.array(range(N_DOCS), pa.int64()),
        "text": docs,
        "lang": [["py", "go", "rs", "js"][i % 4] for i in range(N_DOCS)],
        "repo": [f"r{i % 3}" for i in range(N_DOCS)],
        "n_chars": pa.array([len(d) for d in docs], pa.int64()),
    })
    root = tmp_path_factory.mktemp("dsl")
    src = str(root / "docs.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    cfg = IndexConfig(num_partitions=4, fields=(("content", "text", "base"),),
                      keyword_fields=("lang", "repo"),
                      range_fields=("n_chars",),
                      doc_id_col="doc_id", sha_col="text",
                      store_positions=True)
    build_index([src], idx, cfg)
    s = Searcher(idx, use_actors=False)
    yield s, docs


def _toks(x):
    return re.findall(r"[a-z0-9_]+", x.lower())


class _Ref:
    """Brute-force BM25 (Lucene norm quantization) over the corpus."""

    def __init__(self, docs):
        self.tok_lists = [_toks(d) for d in docs]
        self.n = len(docs)
        self.dls = [len(tl) for tl in self.tok_lists]
        self.avgdl = sum(self.dls) / self.n

    @staticmethod
    def _quant(dl):
        if dl < 8:
            return dl
        sh = int(math.floor(math.log2(dl))) - 3
        return (dl >> sh) << sh

    def idf(self, term):
        df = sum(1 for tl in self.tok_lists if term in tl)
        return math.log(1 + (self.n - df + 0.5) / (df + 0.5))

    def bm25(self, term, i):
        tf = self.tok_lists[i].count(term)
        if tf == 0:
            return 0.0
        dq = self._quant(self.dls[i])
        return self.idf(term) * tf * 2.2 / (
            tf + 1.2 * (1 - 0.75 + 0.75 * dq / self.avgdl))


@pytest.fixture(scope="module")
def ref(dsl_index):
    return _Ref(dsl_index[1])


def test_bool_query(dsl_index, ref):
    s, _ = dsl_index
    must, should, mnot, msm = ["spark"], ["join", "shuffle"], ["table"], 1
    exp = []
    for i in range(N_DOCS):
        tl = ref.tok_lists[i]
        if "spark" not in tl or "table" in tl:
            continue
        if sum(1 for x in should if x in tl) < msm:
            continue
        exp.append((ref.bm25("spark", i) +
                    sum(ref.bm25(x, i) for x in should), i))
    exp.sort(key=lambda sd: (-sd[0], sd[1]))
    got = s.search_bool(must=must, should=should, must_not=mnot,
                        minimum_should_match=1, k=10)
    assert [(round(a, 6), b) for a, b in got] == \
        [(round(a, 6), b) for a, b in exp[:10]]


def test_bool_msm_two_and_should_only(dsl_index, ref):
    s, _ = dsl_index
    # should-only query, minimum_should_match=2
    should = ["spark", "join", "shuffle"]
    exp = []
    for i in range(N_DOCS):
        tl = ref.tok_lists[i]
        hits = [x for x in should if x in tl]
        if len(hits) < 2:
            continue
        exp.append((sum(ref.bm25(x, i) for x in hits), i))
    exp.sort(key=lambda sd: (-sd[0], sd[1]))
    got = s.search_bool(should=should, minimum_should_match=2, k=15)
    assert [(round(a, 6), b) for a, b in got] == \
        [(round(a, 6), b) for a, b in exp[:15]]
    with pytest.raises(ValueError):
        s.search_bool(must_not=["spark"])  # no scoring clause


def test_prefix_and_wildcard(dsl_index, ref):
    s, _ = dsl_index
    for pattern, kind, matcher in [
            ("s", "prefix", lambda w: w.startswith("s")),
            ("s*t", "wildcard", lambda w: re.fullmatch("s.*t", w)),
            ("s?an", "wildcard", lambda w: re.fullmatch("s.an", w))]:
        terms = sorted({w for tl in ref.tok_lists for w in tl if matcher(w)})
        assert s.expand_terms(pattern, kind=kind) == terms
        exp = []
        for i in range(N_DOCS):
            sc = sum(ref.bm25(t, i) for t in terms)
            if sc > 0:
                exp.append((sc, i))
        exp.sort(key=lambda sd: (-sd[0], sd[1]))
        got = (s.prefix_search(pattern, k=12) if kind == "prefix"
               else s.wildcard_search(pattern, k=12))
        assert [(round(a, 5), b) for a, b in got] == \
            [(round(a, 5), b) for a, b in exp[:12]]


def test_prefix_too_many_clauses(dsl_index):
    s, _ = dsl_index
    with pytest.raises(ValueError, match="max_expansions"):
        s.prefix_search("s", max_expansions=2)


def _span_count(tl, terms, slop):
    poss = [[p for p, w in enumerate(tl) if w == t] for t in terms]
    k = len(terms)
    return sum(1 for tup in product(*poss)
               if all(tup[j] < tup[j + 1] for j in range(k - 1))
               and tup[-1] - tup[0] + 1 <= k + slop)


@pytest.mark.parametrize("terms,slop", [
    (["spark", "sql"], 0), (["spark", "sql"], 2),
    (["spark", "join", "sql"], 3)])
def test_span_near(dsl_index, ref, terms, slop):
    s, _ = dsl_index
    exp = sorted(((c, i) for i in range(N_DOCS)
                  if (c := _span_count(ref.tok_lists[i], terms, slop))),
                 key=lambda cd: (-cd[0], cd[1]))
    assert s.span_near(terms, slop=slop, k=10**6) == exp


def _span_count_unordered(tl, terms, slop):
    poss = [[p for p, w in enumerate(tl) if w == t] for t in terms]
    k = len(terms)
    return sum(1 for tup in product(*poss)
               if len(set(tup)) == k
               and max(tup) - min(tup) + 1 <= k + slop)


@pytest.mark.parametrize("terms,slop", [
    (["spark", "sql"], 0), (["spark", "sql"], 2),
    (["spark", "join", "sql"], 3)])
def test_span_near_unordered(dsl_index, ref, terms, slop):
    s, _ = dsl_index
    exp = sorted(
        ((c, i) for i in range(N_DOCS)
         if (c := _span_count_unordered(ref.tok_lists[i], terms, slop))),
        key=lambda cd: (-cd[0], cd[1]))
    assert s.span_near(terms, slop=slop, k=10**6, in_order=False) == exp


def _bf_spans(tl, expr):
    """Brute-force span-algebra evaluator over a token list (same
    slack / ordering / disjointness rules as Searcher.span_query)."""
    if isinstance(expr, str):
        return [(p, p + 1) for p, w in enumerate(tl) if w == expr]
    kind, body = next(iter(expr.items()))
    if kind == "span_term":
        return _bf_spans(tl, body)
    if kind == "span_or":
        out = []
        for c in body["clauses"]:
            out.extend(_bf_spans(tl, c))
        return sorted(out)
    if kind == "span_first":
        return [(s, e) for s, e in _bf_spans(tl, body["match"])
                if e <= body["end"]]
    if kind == "span_not":
        inc = _bf_spans(tl, body["include"])
        exc = _bf_spans(tl, body["exclude"])
        return [(s, e) for s, e in inc
                if not any(s < xe and xs < e for xs, xe in exc)]
    if kind == "span_containing":
        big = _bf_spans(tl, body["big"])
        little = _bf_spans(tl, body["little"])
        return [(s, e) for s, e in big
                if any(s <= ls and le <= e for ls, le in little)]
    if kind == "span_within":
        little = _bf_spans(tl, body["little"])
        big = _bf_spans(tl, body["big"])
        return [(ls, le) for ls, le in little
                if any(s <= ls and le <= e for s, e in big)]
    assert kind == "span_near"
    cl = [_bf_spans(tl, c) for c in body["clauses"]]
    slop, in_order = body.get("slop", 0), body.get("in_order", True)
    out = []
    for combo in product(*cl):
        if in_order:
            if not all(combo[j + 1][0] >= combo[j][1]
                       for j in range(len(combo) - 1)):
                continue
        elif any(combo[a][0] < combo[b][1] and combo[b][0] < combo[a][1]
                 for a in range(len(combo))
                 for b in range(a + 1, len(combo))):
            continue
        ss = min(s for s, _ in combo)
        ee = max(e for _, e in combo)
        if (ee - ss) - sum(e - s for s, e in combo) <= slop:
            out.append((ss, ee))
    return out


@pytest.mark.parametrize("expr", [
    {"span_or": {"clauses": ["spark", "sql"]}},
    {"span_first": {"match": "spark", "end": 3}},
    {"span_first": {"match": {"span_near": {
        "clauses": ["spark", "sql"], "slop": 2}}, "end": 12}},
    {"span_not": {"include": "join",
                  "exclude": {"span_near": {
                      "clauses": ["join", "shuffle"], "slop": 0}}}},
    {"span_near": {"clauses": [
        {"span_or": {"clauses": ["spark", "table"]}}, "sql"],
        "slop": 2, "in_order": False}},
    {"span_near": {"clauses": [
        {"span_near": {"clauses": ["spark", "sql"], "slop": 1}},
        "join"], "slop": 3}},
    {"span_containing": {"big": {"span_near": {
        "clauses": ["spark", "join"], "slop": 3}}, "little": "sql"}},
    {"span_within": {"little": "sql", "big": {"span_near": {
        "clauses": ["spark", "join"], "slop": 3}}}},
])
def test_span_query_algebra(dsl_index, ref, expr):
    s, _ = dsl_index
    exp = sorted(((c, i) for i in range(N_DOCS)
                  if (c := len(_bf_spans(ref.tok_lists[i], expr)))),
                 key=lambda cd: (-cd[0], cd[1]))
    assert s.span_query(expr, k=10**6) == exp


def test_span_query_matches_span_near(dsl_index):
    s, _ = dsl_index
    for in_order in (True, False):
        expr = {"span_near": {"clauses": ["spark", "join", "sql"],
                              "slop": 3, "in_order": in_order}}
        assert s.span_query(expr, k=10**6) == \
            s.span_near(["spark", "join", "sql"], slop=3, k=10**6,
                        in_order=in_order)
    with pytest.raises(ValueError, match="single term"):
        s.span_query({"span_or": {"clauses": ["spark join"]}})
    with pytest.raises(ValueError, match="unknown span clause"):
        s.span_query({"span_nope": {}})
    assert s.span_query({"span_near": {"clauses": ["zz_nope", "spark"]}}) \
        == []


def test_span_multi(dsl_index, ref):
    """span_multi: the wrapped prefix/wildcard/fuzzy pattern expands
    against the term dictionary into a span_or of term leaves —
    identical to writing the expansion out by hand; field mismatch
    and dictionary misses follow the contracts."""
    s, _ = dsl_index
    exp_terms = s.expand_terms("s", "content", "prefix")
    assert exp_terms  # corpus has s-words (spark, sql, ...)
    by_multi = s.span_query(
        {"span_near": {"clauses": [
            {"span_multi": {"match": {"prefix": {"content": "s"}}}},
            {"span_term": "join"}], "slop": 2}}, k=10**6)
    by_hand = s.span_query(
        {"span_near": {"clauses": [
            {"span_or": {"clauses": [
                {"span_term": t} for t in exp_terms]}},
            {"span_term": "join"}], "slop": 2}}, k=10**6)
    assert by_multi == by_hand and by_multi
    # wildcard + fuzzy kinds route through the same expansion
    assert s.span_query({"span_multi": {"match": {
        "wildcard": {"content": "sp*"}}}}, k=10**6) == \
        s.span_query({"span_or": {"clauses": [
            {"span_term": t} for t in
            s.expand_terms("sp*", "content", "wildcard")]}}, k=10**6)
    # a dictionary miss matches nothing
    assert s.span_query({"span_multi": {"match": {
        "prefix": {"content": "zzzznope"}}}}, k=10**6) == []
    with pytest.raises(ValueError, match="single-field"):
        s.span_query({"span_multi": {"match": {
            "prefix": {"other_field": "s"}}}}, k=10**6)
    with pytest.raises(ValueError, match="unsupported"):
        s.span_query({"span_multi": {"match": {
            "terms": {"content": ["a"]}}}}, k=10**6)


def test_regexp_search(dsl_index, ref):
    s, _ = dsl_index
    pattern = "s[a-z]*"
    terms = sorted({w for tl in ref.tok_lists for w in tl
                    if re.fullmatch(pattern, w)})
    assert s.expand_terms(pattern, kind="regexp") == terms
    exp = []
    for i in range(N_DOCS):
        sc = sum(ref.bm25(t, i) for t in terms)
        if sc > 0:
            exp.append((sc, i))
    exp.sort(key=lambda sd: (-sd[0], sd[1]))
    got = s.regexp_search(pattern, k=12)
    assert [(round(a, 5), b) for a, b in got] == \
        [(round(a, 5), b) for a, b in exp[:12]]
    # unanchored substring must NOT match (Lucene RegexpQuery anchors)
    assert "spark" not in s.expand_terms("par", kind="regexp")


def test_span_slop0_adjacent_equals_phrase(dsl_index):
    s, _ = dsl_index
    spans = s.span_near(["spark", "sql"], slop=0, k=10**6)
    phrase = s.phrase_search("spark sql", k=10**6)
    assert spans == phrase


def test_match_set_aggregations(dsl_index, ref):
    s, docs = dsl_index
    match = [i for i in range(N_DOCS)
             if "spark" in ref.tok_lists[i] or "join" in ref.tok_lists[i]]
    langs = {["py", "go", "rs", "js"][i % 4] for i in match}
    assert s.cardinality_aggregation("spark join", "lang") == len(langs)

    from collections import Counter
    exp_hist = Counter(float((len(docs[i]) // 50) * 50) for i in match)
    assert dict(s.histogram_aggregation("spark join", "n_chars", 50)) == \
        dict(exp_hist)

    vals = np.array([len(docs[i]) for i in match], dtype=float)
    st = s.stats_aggregation("spark join", "n_chars", quantiles=(0.5, 0.9))
    assert st["count"] == vals.size
    assert st["min"] == vals.min() and st["max"] == vals.max()
    assert abs(st["avg"] - vals.mean()) < 1e-9
    assert st["p50"] == float(np.quantile(vals, 0.5))
    assert st["p90"] == float(np.quantile(vals, 0.9))
    # zero-hit query
    assert s.stats_aggregation("zz_nope", "n_chars") == {"count": 0}
    assert s.histogram_aggregation("zz_nope", "n_chars", 50) == []


def test_fuzzy_search(dsl_index, ref):
    s, _ = dsl_index
    # 'jion' is absent; distance-2 neighbours include 'join'
    terms = s.expand_terms("jion", kind="fuzzy", fuzziness=2)

    def lev(a, b):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    vocab = sorted({w for tl in ref.tok_lists for w in tl})
    assert terms == [w for w in vocab if lev("jion", w) <= 2]
    exp = []
    for i in range(N_DOCS):
        sc = sum(ref.bm25(t, i) for t in terms)
        if sc > 0:
            exp.append((sc, i))
    exp.sort(key=lambda sd: (-sd[0], sd[1]))
    got = s.fuzzy_search("jion", fuzziness=2, k=12)
    assert [(round(a, 5), b) for a, b in got] == \
        [(round(a, 5), b) for a, b in exp[:12]]
    # exact term at fuzziness=0 degenerates to a term query
    assert s.expand_terms("spark", kind="fuzzy", fuzziness=0) == ["spark"]


def test_significant_terms(dsl_index, ref):
    s, docs = dsl_index
    langs = [["py", "go", "rs", "js"][i % 4] for i in range(N_DOCS)]
    match = [i for i in range(N_DOCS) if "spark" in ref.tok_lists[i]]
    from collections import Counter
    fg = Counter(langs[i] for i in match)
    bg = Counter(langs)
    fgt, bgt = sum(fg.values()), sum(bg.values())
    exp = []
    for v, n in fg.items():
        fgp, bgp = n / fgt, bg[v] / bgt
        if fgp > bgp:
            exp.append((v, n, (fgp - bgp) * (fgp / bgp)))
    exp.sort(key=lambda t: (-t[2], t[0]))
    got = s.significant_terms("spark", "lang", k=10)
    assert [(v, n, round(sc, 9)) for v, n, sc in got] == \
        [(v, n, round(sc, 9)) for v, n, sc in exp[:10]]


def test_terms_stats_aggregation(dsl_index, ref):
    s, docs = dsl_index
    match = [i for i in range(N_DOCS)
             if "spark" in ref.tok_lists[i] or "join" in ref.tok_lists[i]]
    exp = {}
    for i in match:
        lang = ["py", "go", "rs", "js"][i % 4]
        v = float(len(docs[i]))
        n, sm, lo, hi = exp.get(lang, (0, 0.0, v, v))
        exp[lang] = (n + 1, sm + v, min(lo, v), max(hi, v))
    want = sorted(((g, n, sm, lo, hi, sm / n)
                   for g, (n, sm, lo, hi) in exp.items()),
                  key=lambda r: (-r[1], r[0]))
    assert s.terms_stats_aggregation("spark join", "lang", "n_chars") == want
    assert s.terms_stats_aggregation("zz_nope", "lang", "n_chars") == []


def test_doc_sharded_aggregations_match_term_partitioned(
        dsl_index, ray_session, tmp_path_factory):
    """The per-part aggregation paths over a second, unpositioned index
    of the same docs — in process and on actors — equal the fixture
    index's results."""
    import pyarrow.parquet as pq2
    s, docs = dsl_index
    root = tmp_path_factory.mktemp("dsl_doc")
    t = pa.table({
        "doc_id": pa.array(range(N_DOCS), pa.int64()),
        "text": docs,
        "lang": [["py", "go", "rs", "js"][i % 4] for i in range(N_DOCS)],
        "repo": [f"r{i % 3}" for i in range(N_DOCS)],
        "n_chars": pa.array([len(d) for d in docs], pa.int64()),
    })
    src = str(root / "docs.parquet")
    pq2.write_table(t, src)
    idx = str(root / "idx_doc")
    cfg = IndexConfig(num_partitions=4, fields=(("content", "text", "base"),),
                      keyword_fields=("lang", "repo"),
                      range_fields=("n_chars",),
                      doc_id_col="doc_id", sha_col="text")
    build_index([src], idx, cfg)
    sd = Searcher(idx, use_actors=False)
    for q in ("spark join", "dup_zero_hits"):
        assert sd.histogram_aggregation(q, "n_chars", 50) == \
            s.histogram_aggregation(q, "n_chars", 50)
        st_d = sd.stats_aggregation(q, "n_chars", quantiles=(0.5,))
        st_t = s.stats_aggregation(q, "n_chars", quantiles=(0.5,))
        assert st_d == st_t
        # distributed-exact selection: same bits, no value shipping
        assert sd.stats_aggregation(
            q, "n_chars", quantiles=(0.5,),
            quantile_method="exact_distributed") == st_t
    assert sd.significant_terms("spark", "lang") == \
        s.significant_terms("spark", "lang")
    assert sd.terms_stats_aggregation("spark join", "lang", "n_chars") == \
        s.terms_stats_aggregation("spark join", "lang", "n_chars")
    ranges = [(None, 80.0), (80.0, 160.0), (160.0, None), (10_000.0, None)]
    assert sd.range_aggregation("spark join", "n_chars", ranges) == \
        s.range_aggregation("spark join", "n_chars", ranges)
    flt = {"a": ("spark", "or"), "b": ("join shuffle", "and")}
    assert sd.filters_aggregation(flt) == s.filters_aggregation(flt)
    for q in ("spark", None):
        assert sd.composite_aggregation(["lang", "repo"], query=q,
                                        size=100) == \
            s.composite_aggregation(["lang", "repo"], query=q, size=100)
    sa = Searcher(idx, use_actors=True)
    try:
        assert sa.terms_stats_aggregation("spark join", "lang",
                                          "n_chars") == \
            s.terms_stats_aggregation("spark join", "lang", "n_chars")
        assert sa.range_aggregation("spark join", "n_chars", ranges) == \
            s.range_aggregation("spark join", "n_chars", ranges)
        assert sa.filters_aggregation(flt) == s.filters_aggregation(flt)
        assert sa.composite_aggregation(["lang", "repo"], query="spark",
                                        size=100) == \
            s.composite_aggregation(["lang", "repo"], query="spark",
                                    size=100)
        qs = (0.05, 0.5, 0.9)
        want_q = s.stats_aggregation("spark join", "n_chars", quantiles=qs)
        for _ in range(2):  # 2nd call exercises the shard-side memo
            assert sa.stats_aggregation(
                "spark join", "n_chars", quantiles=qs,
                quantile_method="exact_distributed") == want_q
    finally:
        sa.close()
    # t-digest partials merge across doc shards; close to exact
    exact = s.stats_aggregation("spark join", "n_chars", quantiles=(0.5,))
    approx = sd.stats_aggregation("spark join", "n_chars", quantiles=(0.5,),
                                  quantile_method="tdigest")
    assert approx["count"] == exact["count"]
    spread = exact["max"] - exact["min"]
    assert abs(approx["p50"] - exact["p50"]) < 0.05 * spread


def test_f64_ordinal_roundtrip_monotone():
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        _f64_to_ord, _ord_to_f64)
    vals = [-1e300, -123.456, -1e-9, -0.0, 0.0, 1e-9, 1.5, 2.0, 1e300]
    ords = [_f64_to_ord(v) for v in vals]
    assert ords == sorted(ords)
    assert [_ord_to_f64(o) for o in ords] == vals


def test_search_after_pagination(dsl_index):
    s, _ = dsl_index
    for mode, method in [("or", "auto"), ("or", "taat"), ("and", "and"),
                         ("or", "wand")]:
        full = s.search("spark join", k=60, mode=mode, method=method)
        pages, cursor = [], None
        while True:
            page = s.search("spark join", k=7, mode=mode, method=method,
                            search_after=cursor)
            if not page:
                break
            pages.extend(page)
            cursor = page[-1]
            if len(pages) >= len(full):
                break
        assert pages[:len(full)] == full, (mode, method)
    # paging composes with filters
    full = s.search("spark", k=50, filter_field="lang", filter_value="py")
    p1 = s.search("spark", k=5, filter_field="lang", filter_value="py")
    p2 = s.search("spark", k=5, filter_field="lang", filter_value="py",
                  search_after=p1[-1])
    assert p1 + p2 == full[:10]


def test_match_phrase_prefix(dsl_index, ref):
    s, _ = dsl_index
    # 'join s' = exact 'join' followed by any s* term
    exp = []
    for i in range(N_DOCS):
        tl = ref.tok_lists[i]
        anchors = {p for p in range(len(tl) - 1)
                   if tl[p] == "join" and tl[p + 1].startswith("s")}
        if anchors:
            exp.append((len(anchors), i))
    exp.sort(key=lambda td: (-td[0], td[1]))
    got = s.match_phrase_prefix("join s", k=10**6, max_expansions=1024)
    assert got == exp
    # single-token prefix degenerates to "any position holding s*"
    got1 = s.match_phrase_prefix("sq", k=10**6)
    exp1 = sorted(((sum(1 for w in ref.tok_lists[i] if w.startswith("sq")), i)
                   for i in range(N_DOCS)
                   if any(w.startswith("sq") for w in ref.tok_lists[i])),
                  key=lambda td: (-td[0], td[1]))
    assert got1 == exp1
    assert s.match_phrase_prefix("join zz_nope") == []


def test_stats_tdigest_close_to_exact(dsl_index):
    s, _ = dsl_index
    exact = s.stats_aggregation("spark join", "n_chars",
                                quantiles=(0.5, 0.9))
    approx = s.stats_aggregation("spark join", "n_chars",
                                 quantiles=(0.5, 0.9),
                                 quantile_method="tdigest")
    for key in ("count", "min", "max", "sum", "avg"):
        assert approx[key] == exact[key]
    spread = exact["max"] - exact["min"]
    assert abs(approx["p50"] - exact["p50"]) < 0.05 * spread
    assert abs(approx["p90"] - exact["p90"]) < 0.05 * spread
    with pytest.raises(ValueError, match="quantile_method"):
        s.stats_aggregation("spark", "n_chars", quantiles=(0.5,),
                            quantile_method="bogus")


def test_top_hits_aggregation(dsl_index, ref):
    s, _ = dsl_index
    langs = [["py", "go", "rs", "js"][i % 4] for i in range(N_DOCS)]
    scored = {i: ref.bm25("spark", i) + ref.bm25("join", i)
              for i in range(N_DOCS)
              if "spark" in ref.tok_lists[i] or "join" in ref.tok_lists[i]}
    exp = {}
    for v in set(langs):
        members = sorted(((scored[i], i) for i in scored if langs[i] == v),
                         key=lambda sd: (-sd[0], sd[1]))
        if members:
            exp[v] = members[:2]
    got = s.top_hits_aggregation("spark join", "lang", hits_per_bucket=2)
    # bucket order: count desc, value asc
    exp_counts = {v: sum(1 for i in scored if langs[i] == v)
                  for v in exp}
    assert [v for v, _ in got] == sorted(exp, key=lambda v: (-exp_counts[v], v))
    for v, hits in got:
        assert [(round(a, 6), b) for a, b in hits] == \
            [(round(a, 6), b) for a, b in exp[v]]


def test_range_aggregation(dsl_index, ref):
    s, docs = dsl_index
    ranges = [(None, 80.0), (80.0, 160.0), (160.0, None), (9000.0, None)]
    match = [i for i in range(N_DOCS)
             if "spark" in ref.tok_lists[i] or "join" in ref.tok_lists[i]]
    lens = [len(docs[i]) for i in match]
    want = [sum(1 for x in lens
                if (lo is None or x >= lo) and (hi is None or x < hi))
            for lo, hi in ranges]
    got = s.range_aggregation("spark join", "n_chars", ranges)
    assert got == list(zip(ranges, want))
    assert got[-1][1] == 0          # empty buckets ARE returned (range-agg)
    assert s.range_aggregation("zz_nope", "n_chars", ranges) == \
        [(r, 0) for r in ranges]


def test_filters_aggregation(dsl_index, ref):
    s, _ = dsl_index
    flt = {"any_spark": ("spark", "or"),
           "join_and_shuffle": ("join shuffle", "and"),
           "nothing": ("zz_nope", "or")}
    want = {"any_spark": sum(1 for tl in ref.tok_lists if "spark" in tl),
            "join_and_shuffle": sum(1 for tl in ref.tok_lists
                                    if "join" in tl and "shuffle" in tl),
            "nothing": 0}
    assert s.filters_aggregation(flt) == want


def test_composite_aggregation(dsl_index, ref):
    s, _ = dsl_index
    langs = [["py", "go", "rs", "js"][i % 4] for i in range(N_DOCS)]
    repos = [f"r{i % 3}" for i in range(N_DOCS)]
    exp = {}
    for i in range(N_DOCS):
        if "spark" in ref.tok_lists[i]:
            key = (langs[i], repos[i])
            exp[key] = exp.get(key, 0) + 1
    want = sorted(exp.items())
    got, cursor, pages = [], None, 0
    while True:
        page, cursor = s.composite_aggregation(["lang", "repo"],
                                               query="spark", size=5,
                                               after=cursor)
        got.extend(page)
        pages += 1
        if cursor is None:
            break
    assert got == want
    assert pages >= 2               # size=5 over 12 key combos -> paged
    # match-all (no query): every live doc carrying both fields
    all_exp = {}
    for i in range(N_DOCS):
        key = (langs[i], repos[i])
        all_exp[key] = all_exp.get(key, 0) + 1
    full, ck = s.composite_aggregation(["lang", "repo"], size=100)
    assert full == sorted(all_exp.items()) and ck is None
    assert s.composite_aggregation(["lang", "repo"], query="zz_nope") == \
        ([], None)


def test_more_like_this(dsl_index, ref):
    from collections import Counter
    s, docs = dsl_index
    like = docs[0]
    tfs = Counter(_toks(like))
    sel = []
    for t in sorted(tfs):
        df = sum(1 for x in ref.tok_lists if t in x)
        if df < 2:
            continue
        sel.append((tfs[t] * math.log(1 + (N_DOCS - df + 0.5) / (df + 0.5)),
                    t))
    sel.sort(key=lambda it: (-it[0], it[1]))
    chosen = [t for _, t in sel[:5]]
    msm = max(int(0.3 * len(chosen)), 1)
    exp = []
    for i in range(N_DOCS):
        hit = [t for t in chosen if t in ref.tok_lists[i]]
        if len(hit) < msm:
            continue
        exp.append((sum(ref.bm25(t, i) for t in hit), i))
    exp.sort(key=lambda sd: (-sd[0], sd[1]))
    got = s.more_like_this(like, k=12, max_query_terms=5)
    assert [(round(a, 6), d) for a, d in got] == \
        [(round(a, 6), d) for a, d in exp[:12]]
    # every candidate term below min_doc_freq -> no selectable terms
    assert s.more_like_this("zz_nope qq_nada") == []
    assert s.more_like_this("") == []


def test_percentile_ranks_doc_layout_identity(ray_session):
    """percentile_ranks on actors (per-shard count-<= partials) must
    equal the in-process computation over the same index — a doc
    matching both query terms must be counted once, not once per
    term."""
    from siem_on_amazon_opensearch_service_ray.pipelines import queries as q
    from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher
    sf = "/root/testdata/sf0.001"
    idx = q._doc_sharded_index(sf)
    st = Searcher(idx, use_actors=False)
    sd = Searcher(idx, use_actors=True)
    try:
        probes = [150.0, 300.0, 450.0]
        want = st.percentile_ranks(q.BM25_QUERY, "n_chars", probes)
        got = sd.percentile_ranks(q.BM25_QUERY, "n_chars", probes)
        assert [v for v, _ in got] == [v for v, _ in want]
        import numpy as np
        np.testing.assert_allclose([p for _, p in got],
                                   [p for _, p in want], rtol=1e-12)
    finally:
        sd.close()


def test_mad_distributed_matches_driver_side(ray_session):
    """Distributed-exact MAD (count-probe median + deviation probes)
    on actors equals the in-process np.median computation and a
    brute-force MAD over the matched values."""
    import numpy as np
    from siem_on_amazon_opensearch_service_ray.pipelines import queries as q
    from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher
    sf = "/root/testdata/sf0.001"
    idx = q._doc_sharded_index(sf)
    st = Searcher(idx, use_actors=False)
    sd = Searcher(idx, use_actors=True)
    try:
        want = st.mad_aggregation(q.BM25_QUERY, "n_chars")
        got_dist = sd.mad_aggregation(q.BM25_QUERY, "n_chars")
        np.testing.assert_allclose(got_dist, want, rtol=1e-12)
        from siem_on_amazon_opensearch_service_ray.analysis import ANALYZERS
        ids = st._match_ids("content", ANALYZERS["base"](q.BM25_QUERY),
                            "or")
        got = st.fetch_docs(ids, columns=["n_chars"])
        v = np.asarray([x for x in got.column("n_chars").to_pylist()
                        if x is not None], np.float64)
        np.testing.assert_allclose(
            want, np.median(np.abs(v - np.median(v))), rtol=1e-12)
    finally:
        sd.close()


def test_bucket_selector_and_sort_pure():
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        bucket_selector, bucket_sort)
    buckets = [(0.0, 5), (150.0, 2), (300.0, 9), (450.0, 5), (600.0, 1)]
    kept = bucket_selector(buckets, "gt", 2)
    assert kept == [(0.0, 5), (300.0, 9), (450.0, 5)]
    assert bucket_selector(buckets, "lte", 2) == [(150.0, 2), (600.0, 1)]
    # ties break by bucket key asc (OpenSearch stable order)
    assert bucket_sort(kept, desc=True, size=2) == [(300.0, 9), (0.0, 5)]
    assert bucket_sort(kept, desc=False, size=2, frm=1) == \
        [(450.0, 5), (300.0, 9)]
    assert bucket_sort([], desc=True, size=3) == []


def test_matrix_stats_weighted_avg_cross_layout(ray_session, tmp_path):
    """matrix_stats / weighted_avg: per-shard six-sum partials, actors
    and local, all
    equal the numpy reference; docs missing either field are skipped."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
        IndexConfig, build_index)
    from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

    n = 200
    rng = np.random.default_rng(7)
    x = rng.integers(0, 1000, n).astype(np.float64)
    w = rng.integers(1, 6, n).astype(np.float64)
    # field presence gaps: drop x on i%17==0 rows, w on i%23==0 rows
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": [["alpha beta", "gamma alpha", "beta delta"][i % 3]
                    for i in range(n)],
        "x": pa.array([None if i % 17 == 0 else x[i] for i in range(n)],
                      pa.float64()),
        "w": pa.array([None if i % 23 == 0 else w[i] for i in range(n)],
                      pa.float64()),
    })
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(t, str(corpus / "c.parquet"))

    # docs matching 'alpha' = i%3 in (0,1); both fields present
    match = np.array([i for i in range(n)
                      if i % 3 in (0, 1) and i % 17 and i % 23])
    mx, mw = x[match], w[match]
    ref_wavg = float((mx * mw).sum() / mw.sum())
    cov_ref = float((mx * mw).sum() / mx.size
                    - mx.mean() * mw.mean())
    corr_ref = cov_ref / float(np.sqrt(
        ((mx * mx).sum() / mx.size - mx.mean() ** 2)
        * ((mw * mw).sum() / mw.size - mw.mean() ** 2)))

    results = []
    cfg = IndexConfig(num_partitions=3,
                      fields=(("content", "content", "base"),),
                      keyword_fields=(), range_fields=("x", "w"),
                      doc_id_col="doc_id", sha_col="content")
    idx = str(tmp_path / "idx")
    build_index(str(corpus), idx, cfg)
    for actors in (False, True):
        s = Searcher(idx, use_actors=actors)
        try:
            ms = s.matrix_stats("alpha", ("x", "w"))
            wa = s.weighted_avg("alpha", "x", "w")
        finally:
            s.close()
        assert ms["count"] == match.size
        np.testing.assert_allclose(ms["covariance"], cov_ref,
                                   rtol=1e-12)
        np.testing.assert_allclose(ms["correlation"], corr_ref,
                                   rtol=1e-12)
        np.testing.assert_allclose(wa["value"], ref_wavg, rtol=1e-12)
        results.append((ms["sums"]["sxy"], ms["sums"]["sxx"]))
    # exact integer sums identical across execution modes
    assert len(set(results)) == 1


def test_bucket_metrics_pure():
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        bucket_metrics)
    bm = bucket_metrics([(0.0, 4), (150.0, 9), (300.0, 4), (450.0, 9)])
    assert bm["count"] == 4 and bm["sum"] == 26.0 and bm["avg"] == 6.5
    assert bm["min"] == 4.0 and bm["max"] == 9.0
    # ties keep every tied key in bucket order (OpenSearch keys list)
    assert bm["min_keys"] == [0.0, 300.0]
    assert bm["max_keys"] == [150.0, 450.0]
    empty = bucket_metrics([])
    assert empty["count"] == 0 and empty["avg"] is None


def test_extended_bucket_metrics_pure():
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        extended_bucket_metrics)
    vals = [4.0, 9.0, 4.0, 9.0]
    xs = extended_bucket_metrics(list(zip([0., 1., 2., 3.], vals)),
                                 sigma=3.0)
    assert xs["count"] == 4 and xs["sum"] == 26.0 and xs["avg"] == 6.5
    assert xs["sum_of_squares"] == sum(v * v for v in vals)
    assert xs["variance"] == pytest.approx(6.25)     # population
    assert xs["std_deviation"] == pytest.approx(2.5)
    assert xs["std_deviation_bounds"]["upper"] == pytest.approx(14.0)
    assert xs["std_deviation_bounds"]["lower"] == pytest.approx(-1.0)
    empty = extended_bucket_metrics([])
    assert empty["count"] == 0 and empty["variance"] is None


def test_adjacency_and_auto_histogram_cross_layout(ray_session):
    """adjacency_matrix and auto_date_histogram produce identical
    output in process and on actors (per-shard partials)."""
    from siem_on_amazon_opensearch_service_ray.pipelines import queries as q
    from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher
    sf = "/root/testdata/sf0.001"
    idx = q._doc_sharded_index(sf)
    st = Searcher(idx, use_actors=False)
    sd = Searcher(idx, use_actors=True)
    try:
        want_adj = st.adjacency_matrix(q._ADJ_FILTERS)
        want_ah = st.auto_date_histogram(q.BM25_QUERY, "n_chars",
                                         target_buckets=8)
        assert sd.adjacency_matrix(q._ADJ_FILTERS) == want_adj
        assert sd.auto_date_histogram(q.BM25_QUERY, "n_chars",
                                      target_buckets=8) == want_ah
        assert want_adj  # non-trivial fixture
        assert want_ah[1]
    finally:
        st.close(); sd.close()


def test_serial_diff_and_normalize_pure():
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        normalize_buckets, serial_diff_buckets)
    b = [(0.0, 4), (150.0, 10), (300.0, 6)]
    assert serial_diff_buckets(b, lag=1) == \
        [(0.0, None), (150.0, 6.0), (300.0, -4.0)]
    assert serial_diff_buckets(b, lag=2) == \
        [(0.0, None), (150.0, None), (300.0, 2.0)]
    assert normalize_buckets(b, "percent_of_sum") == \
        [(0.0, 0.2), (150.0, 0.5), (300.0, 0.3)]
    r01 = normalize_buckets(b, "rescale_0_1")
    assert r01[0][1] == 0.0 and r01[1][1] == 1.0
    import numpy as np
    z = normalize_buckets(b, "z-score")
    np.testing.assert_allclose(sum(v for _, v in z), 0.0, atol=1e-12)
    # degenerate all-equal buckets -> zeros, not NaN
    flat = normalize_buckets([(0.0, 5), (1.0, 5)], "rescale_0_1")
    assert [v for _, v in flat] == [0.0, 0.0]
    import pytest as _pytest
    with _pytest.raises(ValueError):
        serial_diff_buckets(b, lag=0)
    with _pytest.raises(ValueError):
        normalize_buckets(b, "softmax")
