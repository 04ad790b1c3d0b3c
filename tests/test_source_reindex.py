"""Stored _source surface: ``store_source=True`` builds, ``fetch_docs``
(GET _doc / mget parity), ``more_like_this(doc_id=...)``, and
``reindex`` (OpenSearch _reindex parity — rebuild under a new config
from the docstore, tombstoned docs dropped)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index, delete_docs, reindex)
from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

VOCAB = ["spark", "join", "shuffle", "sql", "table", "query", "index",
         "merge", "sort", "scan", "filter", "group"]
N_DOCS = 120


def _corpus(n, seed=11):
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n):
        m = int(rng.integers(5, 30))
        docs.append(" ".join(VOCAB[int(j)]
                             for j in rng.integers(0, len(VOCAB), m)))
    return docs


def _write(root, docs, name="docs.parquet"):
    t = pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": docs,
        "lang": [["py", "go"][i % 2] for i in range(len(docs))],
    })
    src = str(root / name)
    pq.write_table(t, src)
    return src


def _cfg(**kw):
    base = dict(num_partitions=4, fields=(("content", "text", "base"),),
                keyword_fields=("lang",), doc_id_col="doc_id",
                sha_col="text", store_source=True)
    base.update(kw)
    return IndexConfig(**base)


@pytest.fixture(scope="module")
def src_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("srcidx")
    docs = _corpus(N_DOCS)
    src = _write(root, docs)
    idx = str(root / "idx")
    build_index([src], idx, _cfg())
    s = Searcher(idx, use_actors=False)
    yield s, docs, idx, root


def test_fetch_docs_returns_stored_source(src_index):
    s, docs, _, _ = src_index
    t = s.fetch_docs([5, 17, 10**12 + 3])
    got = {r["doc_id"]: r["text"] for r in t.to_pylist()}
    assert got == {5: docs[5], 17: docs[17]}
    # keyword meta columns are stored too
    langs = {r["doc_id"]: r["lang"] for r in t.to_pylist()}
    assert langs == {5: "go", 17: "go"}


def test_fetch_docs_column_projection(src_index):
    s, docs, _, _ = src_index
    t = s.fetch_docs([7], columns=["text"])
    assert t.column_names == ["text"]
    assert t.column("text")[0].as_py() == docs[7]


def test_fetch_docs_all_missing(src_index):
    s, _, _, _ = src_index
    assert s.fetch_docs([10**12]) is None


def test_mlt_doc_id_matches_like_text_path(src_index):
    s, docs, _, _ = src_index
    got = s.more_like_this(doc_id=7, k=10, min_doc_freq=1)
    full = s.more_like_this(like_text=docs[7], k=11, min_doc_freq=1)
    exp = [(sc, d) for sc, d in full if d != 7][:10]
    assert got == exp
    assert all(d != 7 for _, d in got)
    assert got, "a real doc must have neighbors in a 12-word vocab corpus"


def test_mlt_doc_id_missing_doc(src_index):
    s, _, _, _ = src_index
    assert s.more_like_this(doc_id=10**12 + 9, k=5) == []


def test_mlt_requires_some_like(src_index):
    s, _, _, _ = src_index
    with pytest.raises(ValueError):
        s.more_like_this()


def test_reindex_new_config_preserves_results(src_index, tmp_path):
    s, docs, idx, _ = src_index
    out = str(tmp_path / "re_idx")
    # new config: different partitioning + positions on (phrase queries
    # become possible post-reindex, the canonical _reindex use case)
    man = reindex(idx, out, _cfg(num_partitions=3, store_positions=True,
                                 store_source=False))
    assert man["stats"]["n_docs"] == N_DOCS
    s2 = Searcher(out, use_actors=False)
    try:
        for q in ("spark", "shuffle sort", "query index table"):
            assert s2.search(q, k=20) == s.search(q, k=20)
        # positions exist now: phrase search runs on the reindexed copy
        two = next(d for d in docs if len(d.split()) >= 2).split()[:2]
        hits = s2.phrase_search_scored(" ".join(two), k=5)
        assert hits
    finally:
        s2.close()


def test_reindex_refuses_without_stored_source(ray_session, tmp_path):
    docs = _corpus(30, seed=3)
    src = _write(tmp_path, docs)
    idx = str(tmp_path / "nosrc")
    build_index([src], idx, _cfg(store_source=False))
    with pytest.raises(ValueError, match="store_source"):
        reindex(idx, str(tmp_path / "out"), _cfg())


def test_reindex_drops_tombstoned_docs(ray_session, tmp_path):
    docs = _corpus(40, seed=5)
    src = _write(tmp_path, docs)
    idx = str(tmp_path / "tomb")
    build_index([src], idx, _cfg())
    delete_docs(idx, [3, 11])
    out = str(tmp_path / "tomb_re")
    man = reindex(idx, out, _cfg())
    assert man["stats"]["n_docs"] == 38
    s2 = Searcher(out, use_actors=False)
    try:
        assert s2.fetch_docs([3, 11]) is None
        for q in VOCAB:
            assert all(d not in (3, 11) for _, d in s2.search(q, k=40))
    finally:
        s2.close()


def test_tombstoned_doc_excluded_from_fetch(ray_session, tmp_path):
    docs = _corpus(20, seed=9)
    src = _write(tmp_path, docs)
    idx = str(tmp_path / "fdel")
    build_index([src], idx, _cfg())
    delete_docs(idx, [4])
    s = Searcher(idx, use_actors=False)
    try:
        t = s.fetch_docs([4, 5])
        assert {r["doc_id"] for r in t.to_pylist()} == {5}
    finally:
        s.close()


# --- the _reindex API form (query-filtered slice copy, dsl.execute_reindex) --


def test_execute_reindex_filtered_copy(src_index, tmp_path):
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_count, execute_reindex)
    _, docs, idx, _ = src_index
    dest = str(tmp_path / "ri_dest")
    res = execute_reindex(idx, dest,
                          {"source": {"query": {"term": {"lang": "py"}}}})
    assert res["total"] == res["created"] == N_DOCS // 2
    s2 = Searcher(dest, use_actors=False)
    try:
        assert execute_count(s2, {})["count"] == N_DOCS // 2
        # only even (lang=py) ids landed
        t = s2.fetch_docs(list(range(N_DOCS)))
        got = sorted(r["doc_id"] for r in t.select(["doc_id"]).to_pylist())
        assert got == [i for i in range(N_DOCS) if i % 2 == 0]
    finally:
        s2.close()


def test_execute_reindex_replay_converges(src_index, tmp_path):
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_count, execute_reindex)
    _, _, idx, _ = src_index
    dest = str(tmp_path / "ri_replay")
    body = {"source": {"query": {"match": {"content": "spark"}}}}
    r1 = execute_reindex(idx, dest, body)
    r2 = execute_reindex(idx, dest, body)  # identical generation: no-op
    assert r1["dest_fingerprint"] == r2["dest_fingerprint"]
    s2 = Searcher(dest, use_actors=False)
    try:
        assert execute_count(s2, {})["count"] == r1["total"]
    finally:
        s2.close()


def test_execute_reindex_match_all_extends_existing(src_index, tmp_path):
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_count, execute_reindex)
    _, _, idx, _ = src_index
    dest = str(tmp_path / "ri_grow")
    execute_reindex(idx, dest,
                    {"source": {"query": {"term": {"lang": "go"}}}})
    # second, wider reindex into the EXISTING dest: extend path; the
    # overlap (go docs) upserts to identical content, py docs are new
    res = execute_reindex(idx, dest, {"source": {"query": {"match_all": {}}}})
    assert res["total"] == N_DOCS
    assert res["updated"] == N_DOCS // 2  # the go docs were overwritten
    assert res["created"] == N_DOCS // 2
    s2 = Searcher(dest, use_actors=False)
    try:
        assert execute_count(s2, {})["count"] == N_DOCS
    finally:
        s2.close()


def test_execute_reindex_excludes_tombstones(ray_session, tmp_path):
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_reindex)
    docs = _corpus(30, seed=7)
    src = _write(tmp_path, docs)
    idx = str(tmp_path / "ri_tomb")
    build_index([src], idx, _cfg())
    delete_docs(idx, [2, 8])
    res = execute_reindex(idx, str(tmp_path / "ri_tomb_dest"))
    assert res["total"] == 28
    s2 = Searcher(str(tmp_path / "ri_tomb_dest"), use_actors=False)
    try:
        assert s2.fetch_docs([2, 8]) is None
    finally:
        s2.close()


def test_execute_reindex_refusals(src_index, tmp_path):
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_reindex)
    _, _, idx, root = src_index
    with pytest.raises(ValueError, match="script"):
        execute_reindex(idx, str(tmp_path / "x"),
                        {"script": {"source": "noop"}})
    # a source without stored _source cannot be sliced
    docs = _corpus(10, seed=2)
    src = _write(tmp_path, docs, name="nosrc.parquet")
    bare = str(tmp_path / "ri_bare")
    build_index([src], bare, _cfg(store_source=False))
    with pytest.raises(ValueError, match="store_source"):
        execute_reindex(bare, str(tmp_path / "y"))
    # a dest with derived (content-addressed) ids would lose identities
    noid = str(tmp_path / "ri_noid")
    build_index([src], noid, _cfg(doc_id_col=None, id_cols=("text",),
                                  sha_col="text"))
    with pytest.raises(ValueError, match="doc_id_col"):
        execute_reindex(idx, noid)


def test_execute_reindex_empty_match(src_index, tmp_path):
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_reindex)
    _, _, idx, _ = src_index
    res = execute_reindex(idx, str(tmp_path / "ri_none"),
                          {"source": {"query": {"term": {"lang": "zz"}}}})
    assert res == {"total": 0, "created": 0, "dest_fingerprint": None}


def test_split_shrink_identity(src_index):
    """_split / _shrink: re-sharding via the docstore preserves doc
    identities and search results EXACTLY (partition count is layout,
    not semantics); factor rules enforced."""
    from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
        shrink_index, split_index)
    s, docs, idx, root = src_index
    base = s.search("spark join", k=60)
    basef = s.search("spark", filter_field="lang", filter_value="py",
                     k=60)
    out8 = str(root / "split8")
    man8 = split_index(idx, out8, 8)
    assert man8["config"]["num_partitions"] == 8
    s8 = Searcher(out8, use_actors=False)
    assert s8.search("spark join", k=60) == base
    assert s8.search("spark", filter_field="lang", filter_value="py",
                     k=60) == basef
    out2 = str(root / "shrink2")
    man2 = shrink_index(idx, out2, 2)
    assert man2["config"]["num_partitions"] == 2
    s2 = Searcher(out2, use_actors=False)
    assert s2.search("spark join", k=60) == base
    with pytest.raises(ValueError, match="multiple"):
        split_index(idx, str(root / "bad"), 6)
    with pytest.raises(ValueError, match="multiple"):
        split_index(idx, str(root / "bad"), 4)
    with pytest.raises(ValueError, match="factor"):
        shrink_index(idx, str(root / "bad"), 3)
    with pytest.raises(ValueError, match="factor"):
        shrink_index(idx, str(root / "bad"), 4)


def test_snapshot_create_restore(src_index):
    """_snapshot: create copies the full queryable state with a file
    census; restore verifies byte-for-byte and the restored index
    answers queries identically; collisions and live-dest refuse."""
    from siem_on_amazon_opensearch_service_ray.pipelines.lifecycle import (
        snapshot_create, snapshot_restore, snapshot_status)
    s, docs, idx, root = src_index
    repo = str(root / "snaprepo")
    meta = snapshot_create(idx, repo, "snap1")
    assert meta["state"] == "SUCCESS" and meta["n_docs"] == N_DOCS
    assert meta["n_files"] > 0 and meta["total_bytes"] > 0
    with pytest.raises(ValueError, match="already exists"):
        snapshot_create(idx, repo, "snap1")
    dest = str(root / "restored")
    r = snapshot_restore(repo, "snap1", dest)
    assert r["state"] == "RESTORED" and r["n_files"] == meta["n_files"]
    s2 = Searcher(dest, use_actors=False)
    assert s2.search("spark join", k=40) == s.search("spark join", k=40)
    assert s2.search("spark", filter_field="lang", filter_value="py",
                     k=40) == s.search("spark", filter_field="lang",
                                       filter_value="py", k=40)
    rows = snapshot_status(repo)
    assert [x["snapshot"] for x in rows] == ["snap1"]
    assert rows[0]["fingerprint"] == meta["fingerprint"]
    with pytest.raises(KeyError, match="unknown snapshot"):
        snapshot_restore(repo, "nope", str(root / "never"))
    with pytest.raises(ValueError, match="destination exists"):
        snapshot_restore(repo, "snap1", dest)


def test_mtermvectors(src_index):
    """_mtermvectors: many docs in ONE batched docstore read, entries
    in request order, per-doc parity with single-doc _termvectors,
    missing ids flagged not-found."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_mtermvectors)
    s, docs, idx, root = src_index
    r = execute_mtermvectors(s, {"ids": [0, 7, 999999],
                                 "fields": ["content"]})
    assert [d["_id"] for d in r["docs"]] == [0, 7, 999999]
    assert r["docs"][2]["found"] is False
    assert "term_vectors" not in r["docs"][2]
    for pos, did in ((0, 0), (1, 7)):
        tv = s.term_vectors(did, field="content")
        got = r["docs"][pos]["term_vectors"]["content"]["terms"]
        assert got == {t: {"term_freq": tf, "positions": [p]}
                       for t, tf, p in tv}
    r2 = execute_mtermvectors(s, {"docs": [{"_id": 3}]})
    assert r2["docs"][0]["found"] is True
    with pytest.raises(ValueError, match="one field"):
        execute_mtermvectors(s, {"ids": [0], "fields": ["a", "b"]})


def test_clone_index(src_index):
    """_clone: verified copy answers queries identically; existing
    destination and non-index source refuse."""
    from siem_on_amazon_opensearch_service_ray.pipelines.lifecycle import (
        clone_index)
    s, docs, idx, root = src_index
    dest = str(root / "cloned")
    r = clone_index(idx, dest)
    assert r["acknowledged"] and r["n_files"] > 0
    s2 = Searcher(dest, use_actors=False)
    assert s2.search("spark join", k=30) == s.search("spark join", k=30)
    with pytest.raises(ValueError, match="destination exists"):
        clone_index(idx, dest)
    with pytest.raises(KeyError, match="not an index"):
        clone_index(str(root / "nothing"), str(root / "x"))
