"""Full query DSL on the doc-sharded index: every scored method called
on an actor-backed Searcher (which runs it per doc shard) must be
rank-AND-score identical to the same method on an in-process Searcher
over the same index, which gathers every shard's postings — global
idf via the dfs round makes per-doc scores equal, and doc shards are
disjoint so the merged top-k is exact.  Reference parity: OpenSearch
executes every query per doc shard (command_index.txt:8)."""

import json
import os

import numpy as np
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index)
from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

CFG = IndexConfig(num_partitions=4, store_positions=True, store_source=True)


@pytest.fixture(scope="module")
def pair(ray_session, small_corpus, tmp_path_factory):
    """(in-process driver searcher, actor-sharded searcher) over one
    doc index."""
    idx = str(tmp_path_factory.mktemp("dsl_doc") / "idx")
    build_index(small_corpus, idx, CFG)
    s_local = Searcher(idx, use_actors=False)
    s_act = Searcher(idx, use_actors=True)
    yield s_local, s_act
    s_act.close()


def _same(got, want, scores=True):
    assert [d for _, d in got] == [d for _, d in want]
    if scores:
        np.testing.assert_allclose([s for s, _ in got],
                                   [s for s, _ in want], rtol=1e-12)
    else:
        assert [n for n, _ in got] == [n for n, _ in want]


def test_bool_sharded(pair):
    st, sd = pair
    kw = dict(must=["def"], should=["return", "import"],
              must_not=["needle_137"], minimum_should_match=1, k=25)
    _same(sd.search_bool(**kw), st.search_bool(**kw))
    # filter + range composition
    kw = dict(must=["def"], should=["class"], filter_field="lang",
              filter_value="go", k=25)
    _same(sd.search_bool(**kw), st.search_bool(**kw))


def test_phrase_sharded(pair):
    st, sd = pair
    _same(sd.phrase_search("def return", k=50),
          st.phrase_search("def return", k=50), scores=False)
    _same(sd.phrase_search("def return", k=50, slop=2),
          st.phrase_search("def return", k=50, slop=2), scores=False)
    _same(sd.phrase_search_scored("def return", k=25),
          st.phrase_search_scored("def return", k=25))


def test_phrase_prefix_sharded(pair):
    st, sd = pair
    _same(sd.match_phrase_prefix("def ret", k=30,
                                 max_expansions=512),
          st.match_phrase_prefix("def ret", k=30, max_expansions=512),
          scores=False)


def test_span_sharded(pair):
    st, sd = pair
    _same(sd.span_near(["def", "return"], slop=3, k=30),
          st.span_near(["def", "return"], slop=3, k=30), scores=False)
    _same(sd.span_near(["return", "def"], slop=4, k=30,
                       in_order=False),
          st.span_near(["return", "def"], slop=4, k=30, in_order=False),
          scores=False)
    expr = {"span_near": {"clauses": [
        "def", {"span_or": {"clauses": ["return", "import"]}}],
        "slop": 3, "in_order": True}}
    _same(sd.span_query(expr, k=30), st.span_query(expr, k=30),
          scores=False)


def test_mlt_sharded(pair):
    st, sd = pair
    like = "def return import class static void main"
    _same(sd.more_like_this(like_text=like, k=20),
          st.more_like_this(like_text=like, k=20))
    # stored-doc form (store_source covers content)
    _same(sd.more_like_this(doc_id=7, k=15),
          st.more_like_this(doc_id=7, k=15))


def test_multi_term_sharded(pair):
    st, sd = pair
    _same(sd.prefix_search("need", k=20),
          st.prefix_search("need", k=20))
    _same(sd.wildcard_search("ret?rn", k=20),
          st.wildcard_search("ret?rn", k=20))
    _same(sd.regexp_search("im[a-z]+t", k=20),
          st.regexp_search("im[a-z]+t", k=20))
    _same(sd.fuzzy_search("retrun", fuzziness=2, k=20),
          st.fuzzy_search("retrun", fuzziness=2, k=20))


def test_query_string_sharded(pair):
    st, sd = pair
    for qs in ('+def return -needle_137', '"def return" lang:go imp*'):
        _same(sd.query_string(qs, k=25), st.query_string(qs, k=25))


def test_search_auto_routes_doc_layout(pair):
    """search() with actors takes the per-shard path and stays
    identical to the in-process driver ranking."""
    st, sd = pair
    for q in ("def return", "needle_137", "zz_no_such_term_zz"):
        _same(sd.search(q, k=20), st.search(q, k=20))
    _same(sd.search("def", k=20, filter_field="lang", filter_value="go"),
          st.search("def", k=20, filter_field="lang", filter_value="go"))


def test_match_operator_and_both_paths(pair):
    """A multi-word ``match`` with ``operator: and`` runs
    search(mode="and") on both paths, on a text and a path field: the
    actor pool and the in-process searcher return identical ids and
    scores, equal to the direct conjunctive search."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import execute_dsl
    st, sd = pair
    for field, text in (("content", "def return"), ("path", "src py")):
        body = {"query": {"match": {field: {"query": text,
                                            "operator": "and"}}},
                "size": 20}
        hits = {}
        for name, s in (("local", st), ("actors", sd)):
            hits[name] = [(h["_score"], h["_id"])
                          for h in execute_dsl(s, body)["hits"]["hits"]]
        assert hits["local"], field
        _same(hits["actors"], hits["local"])
        _same(hits["local"], st.search(text, field=field, k=20,
                                       mode="and"))


def test_gather_correct_on_doc_layout(pair):
    """The driver gather is also CORRECT on an actor-backed searcher —
    _gather scatters to every shard group and merges their runs into
    the same postings the in-process searcher reads."""
    st, sd = pair
    terms = ["def", "return", "needle_137", "zz_no_such_term_zz"]
    got, want = sd._gather("content", terms), st._gather("content", terms)
    assert set(got) == set(want)
    for t in want:
        assert sorted(r[0] for r in got[t]) == sorted(r[0] for r in want[t])
    assert sd._term_dfs("content", terms) == st._term_dfs("content", terms)


def test_sharded_requires_doc_layout(pair, tmp_path):
    """An index whose manifest records the retired term-partitioned
    layout is refused with a ValueError by Searcher, extend_index and
    compact_index; an older doc-layout manifest that still carries the
    retired layout/salting keys keeps opening."""
    from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
        compact_index, config_from_manifest, extend_index)
    st, _ = pair
    with open(os.path.join(st.index_dir, "INDEX_MANIFEST.json")) as f:
        man = json.load(f)
    old_doc = dict(man["config"], partition_by="doc", salting=True,
                   sample_mod=64, hot_df_threshold=20000, salt_unit=20000,
                   max_salts=8, shuffle_mode="sort", tokenize_mode="tasks")
    stale = str(tmp_path / "stale")
    os.makedirs(stale)
    for cfg, ok in ((old_doc, True),
                    (dict(old_doc, partition_by="term"), False)):
        with open(os.path.join(stale, "INDEX_MANIFEST.json"), "w") as f:
            json.dump(dict(man, config=cfg), f)
        if ok:
            assert config_from_manifest(stale) == config_from_manifest(
                st.index_dir)
            continue
        with pytest.raises(ValueError, match="term-partitioned"):
            Searcher(stale, use_actors=False)
        with pytest.raises(ValueError, match="term-partitioned"):
            extend_index(str(tmp_path / "new"), stale)
        with pytest.raises(ValueError, match="term-partitioned"):
            compact_index(stale)
