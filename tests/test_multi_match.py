"""multi_match (best_fields / most_fields, boosts, tie_breaker) —
property tests against the single-field searcher, plus in-process vs
actor-sharded identity.  The absolute-score contract is covered by
the MULTI_MATCH_SQL oracle in test_oracle_parity."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index)
from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

N = 300
WORDS = ["alpha", "beta", "gamma", "delta", "spark", "join", "scan",
         "sparky"]
LABELS = ["news", "code", "mail"]


@pytest.fixture(scope="module")
def mm_indexes(ray_session, tmp_path_factory):
    rng = np.random.default_rng(3)
    texts = [" ".join(WORDS[int(j)]
                      for j in rng.integers(0, len(WORDS),
                                            int(rng.integers(4, 30))))
             for _ in range(N)]
    t = pa.table({
        "doc_id": pa.array(range(N), pa.int64()),
        "text": texts,
        "label": [LABELS[i % 3] + (" spark" if i % 7 == 0 else "")
                  for i in range(N)],
    })
    root = tmp_path_factory.mktemp("mm")
    src = str(root / "docs.parquet")
    pq.write_table(t, src)
    # (in-process driver searcher, actor-sharded searcher) over one index
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),
                              ("lbl", "label", "base")),
                      keyword_fields=(), id_cols=("doc_id",),
                      doc_id_col="doc_id", sha_col="text")
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    st = Searcher(idx, use_actors=False)
    sd = Searcher(idx, use_actors=True)
    yield st, sd
    sd.close()


def _full(s, q, field):
    return dict((d, sc) for sc, d in s.search(q, field=field, k=1 << 30))


def test_best_fields_tie0_is_dismax(mm_indexes):
    st, _ = mm_indexes
    q = "spark code"
    c, l = _full(st, q, "content"), _full(st, q, "lbl")
    got = dict((d, sc) for sc, d in
               st.multi_match(q, ["content", "lbl"], k=1 << 30,
                              tie_breaker=0.0))
    assert set(got) == set(c) | set(l)
    for d, sc in got.items():
        assert sc == pytest.approx(max(c.get(d, 0.0), l.get(d, 0.0)))


def test_tie_breaker_and_most_fields(mm_indexes):
    st, _ = mm_indexes
    q = "spark news"
    c, l = _full(st, q, "content"), _full(st, q, "lbl")
    tie = dict((d, sc) for sc, d in
               st.multi_match(q, ["content", "lbl"], k=1 << 30,
                              tie_breaker=0.4))
    most = dict((d, sc) for sc, d in
                st.multi_match(q, ["content", "lbl"], k=1 << 30,
                               match_type="most_fields"))
    for d in tie:
        cs, ls = c.get(d, 0.0), l.get(d, 0.0)
        mx = max(cs, ls)
        assert tie[d] == pytest.approx(mx + 0.4 * (cs + ls - mx))
        assert most[d] == pytest.approx(cs + ls)


def test_field_boost(mm_indexes):
    st, _ = mm_indexes
    q = "spark"
    base = dict((d, sc) for sc, d in
                st.multi_match(q, ["content", "lbl"], k=1 << 30,
                               match_type="most_fields"))
    boosted = dict((d, sc) for sc, d in
                   st.multi_match(q, ["content", "lbl^2"], k=1 << 30,
                                  match_type="most_fields"))
    c, l = _full(st, q, "content"), _full(st, q, "lbl")
    for d in base:
        assert boosted[d] == pytest.approx(c.get(d, 0.0) + 2 * l.get(d, 0.0))


def test_doc_sharded_identical(mm_indexes):
    """multi_match on an actor pool (per-shard, per-field global idf)
    equals the in-process run: identical ids, scores to rtol 1e-12."""
    st, sd = mm_indexes
    for q, ty, tie in [("spark code", "best_fields", 0.3),
                       ("spark news", "most_fields", 0.0),
                       ("gamma mail", "best_fields", 0.0),
                       ("spark code", "cross_fields", 0.3)]:
        a = st.multi_match(q, ["content", "lbl"], k=25,
                           match_type=ty, tie_breaker=tie)
        b = sd.multi_match(q, ["content", "lbl"], k=25,
                           match_type=ty, tie_breaker=tie)
        assert [d for _, d in a] == [d for _, d in b], ty
        np.testing.assert_allclose([s for s, _ in a], [s for s, _ in b],
                                   rtol=1e-12, err_msg=ty)


def test_suggest_missing_and_always_modes(mm_indexes):
    st, sd = mm_indexes
    out = dict(st.suggest("spakr scan", field="content"))
    # misspelled token -> nearest dictionary terms by (dist, df desc)
    top = [c for c, _, _ in out["spakr"]]
    assert "spark" in top[:2]            # (dist, df desc) ranking:
    assert all(d <= 2 for _, d, _ in out["spakr"])   # sparky may outrank
    # in-dictionary token: the OpenSearch default suggests nothing
    assert out["scan"] == []
    always = dict(st.suggest("spark", field="content",
                             suggest_mode="always"))
    cands = [c for c, _, _ in always["spark"]]
    assert "sparky" in cands and "spark" not in cands
    # doc-sharded index: identical suggestions (dictionary scan is
    # per-part either way; dfs sum globally)
    assert dict(sd.suggest("spakr scan", field="content")) == out
    with pytest.raises(ValueError):
        st.suggest("x", suggest_mode="sometimes")


def test_suggest_phrase_collation(mm_indexes):
    st, _ = mm_indexes
    got = st.suggest_phrase("spakr code", field="content", size=3)
    assert got, "no phrase candidates"
    # in-dictionary 'code' keeps itself; misspelled token corrected
    assert all(p.endswith(" code") for p, _ in got)
    assert got[0][0] in ("spark code", "sparky code")
    # scores strictly ordered desc, deterministic tie-break by phrase
    scores = [s for _, s in got]
    assert scores == sorted(scores, reverse=True)
    assert st.suggest_phrase("", field="content") == []


def test_explain_matches_search_scores(mm_indexes):
    st, _ = mm_indexes
    for q in ("spark code", "gamma", "spark spark delta"):
        hits = st.search(q, field="content", k=5)
        assert hits
        for score, d in hits:
            ex = st.explain(q, d, field="content")
            assert ex["score"] == pytest.approx(score, rel=1e-12), q
            assert ex["matched_terms"] >= 1
            for det in ex["details"]:
                if det["matched"]:
                    assert det["score"] == pytest.approx(
                        det["weight"] * det["idf"] * det["tf_norm"])
    # a doc that matches nothing explains to zero
    ex = st.explain("qqqzzz", 0, field="content")
    assert ex["score"] == 0.0 and ex["matched_terms"] == 0


def test_unknown_type_rejected(mm_indexes):
    st, _ = mm_indexes
    with pytest.raises(ValueError):
        st.multi_match("x", ["content"], match_type="bogus_fields")


def test_cross_fields_blended_idf(mm_indexes):
    """cross_fields semantics: per-term blended df (max across
    fields), per-term best-field + tie_breaker combination, summed
    over terms — and the sharded execution must match exactly."""
    st, sd = mm_indexes
    q = "spark gamma"
    got = st.multi_match(q, ["content", "lbl"],
                         match_type="cross_fields", tie_breaker=0.3,
                         k=1 << 30)
    assert got
    # brute-force recompute from primitives
    from siem_on_amazon_opensearch_service_ray.norms import (idf as idf_fn,
                                                             tf_norm)
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        prepare_terms)
    import numpy as np
    n = int(st.stats["n_docs"])
    toks = ["spark", "gamma"]
    want: dict[int, float] = {}
    bdf = {t: max(st._term_dfs(f, [t]).get(t, 0)
                  for f in ("content", "lbl")) for t in toks}
    idf_t = {t: float(idf_fn(d, n)) for t, d in bdf.items()}
    for j, t in enumerate(toks):
        per_doc: dict[int, list[float]] = {}
        for f in ("content", "lbl"):
            avgdl = float(st.stats["avgdl"][f])
            td = prepare_terms(toks, st._gather(f, toks), n, avgdl,
                               idf_by_term=idf_t,
                               exclude_ids=st.tombstones)[j]
            for d, c in zip(td.doc_ids.tolist(),
                            (td.idf * tf_norm(td.tfs, td.lens, avgdl,
                                              1.2, 0.75)).tolist()):
                per_doc.setdefault(int(d), []).append(c)
        for d, cs in per_doc.items():
            mx = max(cs)
            want[d] = want.get(d, 0.0) + mx + 0.3 * (sum(cs) - mx)
    got_d = {d: s for s, d in got}
    assert set(got_d) == set(want)
    for d in want:
        np.testing.assert_allclose(got_d[d], want[d], rtol=1e-12)
    # sharded execution identical
    sh = sd.multi_match(q, ["content", "lbl"],
                        match_type="cross_fields",
                        tie_breaker=0.3, k=1 << 30)
    assert [d for _, d in sh] == [d for _, d in got]
    np.testing.assert_allclose([s for s, _ in sh], [s for s, _ in got],
                               rtol=1e-12)


@pytest.fixture(scope="module")
def mm_pos_indexes(ray_session, tmp_path_factory):
    """Positional two-text-field fixture: the phrase 'spark join'
    genuinely matches BOTH fields (planted in label every 5th doc)."""
    rng = np.random.default_rng(17)
    texts = [" ".join(WORDS[int(j)]
                      for j in rng.integers(0, len(WORDS),
                                            int(rng.integers(4, 30))))
             for _ in range(N)]
    t = pa.table({
        "doc_id": pa.array(range(N), pa.int64()),
        "text": texts,
        "label": [LABELS[i % 3] + (" spark join" if i % 5 == 0 else "")
                  for i in range(N)],
    })
    root = tmp_path_factory.mktemp("mmpos")
    src = str(root / "docs.parquet")
    pq.write_table(t, src)
    cfg = IndexConfig(num_partitions=4,
                      fields=(("content", "text", "base"),
                              ("lbl", "label", "base")),
                      keyword_fields=(), id_cols=("doc_id",),
                      doc_id_col="doc_id", sha_col="text",
                      store_positions=True)
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    st = Searcher(idx, use_actors=False)
    sd = Searcher(idx, use_actors=True)
    labels = t.column("label").to_pylist()
    yield st, sd, texts, labels
    sd.close()


def test_multi_match_phrase_types(mm_pos_indexes):
    """multi_match type=phrase / phrase_prefix: per-field phrase
    matching combined dis-max (max + tie_breaker * rest), field
    boosts honored, identical in process and on actors, and equal to the
    hand-combined per-field phrase searches."""
    st, sd, _texts, _labels = mm_pos_indexes
    q, tb = "spark join", 0.3
    for typ, meth in (("phrase",
                       lambda s, f: s.phrase_search_scored(
                           q, field=f, k=1 << 31)),
                      ("phrase_prefix",
                       lambda s, f: s.match_phrase_prefix(
                           q, field=f, k=1 << 31))):
        got = st.multi_match(q, ["content", "lbl^2"], k=50,
                             match_type=typ, tie_breaker=tb)
        per_doc = {}
        for fname, boost in (("content", 1.0), ("lbl", 2.0)):
            for sc, d in meth(st, fname):
                per_doc.setdefault(int(d), []).append(
                    boost * float(sc))
        want = sorted(((max(v) + tb * (sum(v) - max(v)), d)
                       for d, v in per_doc.items()),
                      key=lambda t: (-t[0], t[1]))[:50]
        assert [(pytest.approx(sc), d) for sc, d in want] == got
        # some doc must combine BOTH fields or the fixture is moot
        assert any(len(v) == 2 for v in per_doc.values())
        dgot = sd.multi_match(q, ["content", "lbl^2"], k=50,
                              match_type=typ, tie_breaker=tb)
        assert [d for _, d in dgot] == [d for _, d in got]
        assert np.allclose([s for s, _ in dgot], [s for s, _ in got])


def test_field_masking_span(mm_pos_indexes):
    """field_masking_span: (1) masking to the SAME field is the
    identity; (2) a masked leaf alone reads the alternate field's
    positions (doc set + per-doc tf match the planted labels);
    (3) a cross-field span_near composes content positions with lbl
    positions — doc set = spark-in-text ∩ join-in-label; identical
    in process and on actors throughout."""
    st, sd, texts, labels = mm_pos_indexes
    plain = {"span_near": {"clauses": [{"span_term": "spark"},
                                       {"span_term": "alpha"}],
                           "slop": 6, "in_order": False}}
    masked_same = {"span_near": {"clauses": [
        {"span_term": "spark"},
        {"field_masking_span": {"query": {"span_term": "alpha"},
                                "field": "content"}}],
        "slop": 6, "in_order": False}}
    assert st.span_query(masked_same, field="content", k=1 << 31) == \
        st.span_query(plain, field="content", k=1 << 31)
    # a lone masked leaf = the alt field's positions
    leaf = {"field_masking_span": {"query": {"span_term": "join"},
                                   "field": "lbl"}}
    got = st.span_query(leaf, field="content", k=1 << 31)
    want = sorted(((lbl.split().count("join"), i)
                   for i, lbl in enumerate(labels)
                   if "join" in lbl.split()),
                  key=lambda t: (-t[0], t[1]))
    assert got == want
    # cross-field near: spark (content) within 1000 of join (lbl)
    cross = {"span_near": {"clauses": [
        {"span_term": "spark"},
        {"field_masking_span": {"query": {"span_term": "join"},
                                "field": "lbl"}}],
        "slop": 1000, "in_order": False}}
    got_x = st.span_query(cross, field="content", k=1 << 31)
    expect_docs = {i for i in range(len(texts))
                   if "spark" in texts[i].split()
                   and "join" in labels[i].split()}
    assert {d for _, d in got_x} == expect_docs and expect_docs
    for expr in (leaf, cross):
        assert sd.span_query(expr, field="content", k=1 << 31) == \
            st.span_query(expr, field="content", k=1 << 31)
