"""MultiSearcher (index-pattern federation): pattern-wide search must
be BIT-IDENTICAL to a single flat index over the union corpus — the
cross-index dfs/stats round is what makes that hold.  Aggregations
federate by partial merge."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index)
from siem_on_amazon_opensearch_service_ray.state.multisearch import (
    MultiSearcher, resolve_pattern)
from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

VOCAB = ["spark", "join", "shuffle", "sql", "table", "query", "merge",
         "sort", "scan", "filter", "index", "batch"]
N = 300


def _cfg(parts=2):
    return IndexConfig(num_partitions=parts,
                       fields=(("content", "text", "base"),),
                       keyword_fields=("lang",),
                       range_fields=("msm",),
                       doc_id_col="doc_id", sha_col="text")


@pytest.fixture(scope="module")
def split_indexes(ray_session, tmp_path_factory):
    rng = np.random.default_rng(4242)
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB),
                                           int(rng.integers(4, 30))))
            for _ in range(N)]
    t = pa.table({
        "doc_id": pa.array(range(N), pa.int64()),
        "text": docs,
        "lang": [["en", "de", "fr"][i % 3] for i in range(N)],
        "msm": pa.array([float(i % 6) for i in range(N)], pa.float64()),
    })
    root = tmp_path_factory.mktemp("msearch")
    flat_src = str(root / "all.parquet")
    pq.write_table(t, flat_src)
    # uneven split (different df/avgdl per half -> the stats round
    # actually matters)
    a = t.filter(pa.compute.less(t.column("doc_id"), 100))
    b = t.filter(pa.compute.greater_equal(t.column("doc_id"), 100))
    pq.write_table(a, str(root / "a.parquet"))
    pq.write_table(b, str(root / "b.parquet"))
    flat_idx = str(root / "flat")
    build_index([flat_src], flat_idx, _cfg(4))
    ia = str(root / "log-2024-01")
    ib = str(root / "log-2024-02")
    build_index([str(root / "a.parquet")], ia, _cfg(2))
    build_index([str(root / "b.parquet")], ib, _cfg(2))
    return str(root), flat_idx, ia, ib


@pytest.mark.parametrize("use_actors", [False, True])
def test_pattern_search_identical_to_flat(split_indexes, use_actors):
    root, flat_idx, ia, ib = split_indexes
    flat = Searcher(flat_idx, use_actors=use_actors)
    ms = MultiSearcher([ia, ib], use_actors=use_actors)
    try:
        for q in ["spark join", "shuffle", "sql merge sort", "batch"]:
            want = flat.search(q, k=15)
            got = ms.search(q, k=15)
            assert [(round(s, 9), d) for s, d in want] == \
                [(round(s, 9), d) for s, _, d in got], q
            # hits route to the right index
            for _, name, d in got:
                assert (d < 100) == (name == "log-2024-01")
            assert ms.match_count(q) == len(flat.search(q, k=10 ** 6))
    finally:
        flat.close()
        ms.close()


def test_pattern_aggs_and_resolve(split_indexes):
    root, flat_idx, ia, ib = split_indexes
    assert resolve_pattern(root, "log-2024-*") == [ia, ib]
    assert resolve_pattern(root, "log-*-01") == [ia]
    assert resolve_pattern(root, "nope-*") == []
    flat = Searcher(flat_idx, use_actors=False)
    ms = MultiSearcher([ia, ib], use_actors=False)
    try:
        assert ms.terms_aggregation("spark", "lang") == \
            flat.terms_aggregation("spark", "lang")
        assert ms.histogram_aggregation("spark", "msm", 2.0) == \
            flat.histogram_aggregation("spark", "msm", 2.0)
    finally:
        flat.close()
        ms.close()
    with pytest.raises(ValueError, match="at least one"):
        MultiSearcher([])
    with pytest.raises(ValueError, match="duplicate"):
        MultiSearcher([ia, ia])


def test_aliases_and_cli_pattern(split_indexes, capsys):
    """_aliases add/remove (wildcard add snapshots at add time),
    resolve_alias fallbacks, and the CLI federated search path."""
    import json

    from siem_on_amazon_opensearch_service_ray.__main__ import main
    from siem_on_amazon_opensearch_service_ray.state.multisearch import (
        execute_aliases, get_aliases, resolve_alias)
    root, flat_idx, ia, ib = split_indexes
    res = execute_aliases(root, {"actions": [
        {"add": {"index": "log-2024-*", "alias": "logs"}}]})
    assert res["aliases"]["logs"] == ["log-2024-01", "log-2024-02"]
    assert get_aliases(root)["logs"] == ["log-2024-01", "log-2024-02"]
    assert resolve_alias(root, "logs") == [ia, ib]
    assert resolve_alias(root, "log-2024-0?") == [ia, ib]
    assert resolve_alias(root, "log-2024-02") == [ib]
    assert resolve_alias(root, "missing") == []
    execute_aliases(root, {"actions": [
        {"remove": {"index": "log-2024-01", "alias": "logs"}}]})
    assert get_aliases(root)["logs"] == ["log-2024-02"]
    with pytest.raises(ValueError, match="not in alias"):
        execute_aliases(root, {"actions": [
            {"remove": {"index": "log-2024-01", "alias": "logs"}}]})
    with pytest.raises(ValueError, match="matches no index"):
        execute_aliases(root, {"actions": [
            {"add": {"index": "zz-*", "alias": "x"}}]})
    # restore both members, then drive the CLI federated search
    execute_aliases(root, {"actions": [
        {"add": {"index": "log-2024-01", "alias": "logs"}}]})
    assert main(["search", root, "spark join", "--pattern", "logs",
                 "--k", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["indices"]) == {"log-2024-01", "log-2024-02"}
    flat = Searcher(flat_idx, use_actors=False)
    try:
        want = flat.search("spark join", k=5)
    finally:
        flat.close()
    assert [(h["_id"], round(h["_score"], 6)) for h in out["hits"]] == \
        [(d, round(s, 6)) for s, d in want]


def test_cat_indices(split_indexes, capsys):
    """_cat/indices: per-index live counts, sizes, partitions and
    alias membership from metadata only; CLI prints it."""
    import json

    from siem_on_amazon_opensearch_service_ray.__main__ import main
    from siem_on_amazon_opensearch_service_ray.state.multisearch import (
        cat_indices)
    root, flat_idx, ia, ib = split_indexes
    rows = cat_indices(root, "log-2024-*")
    assert [r["index"] for r in rows] == ["log-2024-01", "log-2024-02"]
    assert rows[0]["docs.count"] == 100
    assert rows[1]["docs.count"] == 200
    assert all(r["docs.deleted"] == 0 for r in rows)
    assert all(r["store.size"] > 0 and r["pri"] == 2 for r in rows)
    assert "logs" in rows[0]["aliases"]  # added by the aliases test
    assert main(["cat-indices", root]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {r["index"] for r in out} >= {"log-2024-01", "log-2024-02"}


def test_panels_over_pattern(split_indexes):
    """Dashboard panels execute against a MultiSearcher identically
    to the flat index (the reference's panels always target an index
    PATTERN)."""
    from siem_on_amazon_opensearch_service_ray.pipelines.dashboards import (
        PanelSpec, execute_panel)
    root, flat_idx, ia, ib = split_indexes
    flat = Searcher(flat_idx, use_actors=False)
    ms = MultiSearcher([ia, ib], use_actors=False)
    specs = [
        PanelSpec(title="by-lang", vis_type="pie",
                  metric={"type": "count"},
                  buckets=[{"type": "terms", "field": "lang",
                            "size": 5}], query="spark"),
        PanelSpec(title="match-all", vis_type="pie",
                  metric={"type": "count"},
                  buckets=[{"type": "terms", "field": "lang",
                            "size": 5}]),
        PanelSpec(title="sum", vis_type="table",
                  metric={"type": "sum", "field": "msm"},
                  buckets=[{"type": "terms", "field": "lang",
                            "size": 5}], query="spark"),
        PanelSpec(title="filters", vis_type="pie",
                  metric={"type": "count"},
                  buckets=[{"type": "filters",
                            "filters": ["spark", "shuffle"]}]),
        PanelSpec(title="kuery", vis_type="pie",
                  metric={"type": "count"},
                  buckets=[{"type": "terms", "field": "lang",
                            "size": 5}],
                  filter_field="lang", filter_value="en"),
        PanelSpec(title="cardinality", vis_type="metric",
                  metric={"type": "cardinality", "field": "lang"}),
    ]
    try:
        for spec in specs:
            want = execute_panel(flat, spec)
            got = execute_panel(ms, spec)
            assert got == want, spec.title
    finally:
        flat.close()
        ms.close()


def test_pattern_dsl(split_indexes):
    """execute_pattern_dsl: the dashboard _search slice over a
    pattern — hits carry _index, aggs (terms + metric subs,
    histogram + pipeline subs, filters) merge exactly to the flat
    index's execute_dsl output."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_dsl, execute_pattern_dsl)
    root, flat_idx, ia, ib = split_indexes
    flat = Searcher(flat_idx, use_actors=False)
    ms = MultiSearcher([ia, ib], use_actors=False)
    body = {
        "query": {"match": {"content": "spark join"}}, "size": 8,
        "track_total_hits": True,
        "aggs": {
            "by_lang": {"terms": {"field": "lang", "size": 5},
                        "aggs": {"mu": {"avg": {"field": "msm"}}}},
            "h": {"histogram": {"field": "msm", "interval": 2.0},
                  "aggs": {"cum": {"cumulative_sum": {}},
                           "s": {"sum": {"field": "msm"}}}},
            "f": {"filters": {"filters": {
                "a": {"match": {"content": "spark"}},
                "b": {"match": {"content": "shuffle"}}},
                "other_bucket": True}},
            "g": {"global": {}, "aggs": {
                "all_lang": {"terms": {"field": "lang", "size": 5}}}},
        }}
    try:
        want = execute_dsl(flat, body)
        got = execute_pattern_dsl(ms, body)
        assert [(h["_id"], round(h["_score"], 9))
                for h in got["hits"]["hits"]] == \
            [(h["_id"], round(h["_score"], 9))
             for h in want["hits"]["hits"]]
        assert all("_index" in h for h in got["hits"]["hits"])
        assert got["hits"]["total"] == want["hits"]["total"]
        assert got["aggregations"] == want["aggregations"]
        with pytest.raises(ValueError, match="not supported"):
            execute_pattern_dsl(ms, {"query": {"prefix": {
                "content": "spa"}}})
    finally:
        flat.close()
        ms.close()


def test_discover_saved_search_over_pattern(split_indexes):
    """A Discover saved search executes against the pattern with the
    same rows as the flat index (field sort merges exactly; docstore
    fetch concatenates per-index reads)."""
    from siem_on_amazon_opensearch_service_ray.pipelines.dashboards import (
        execute_search)
    root, flat_idx, ia, ib = split_indexes
    flat = Searcher(flat_idx, use_actors=False)
    ms = MultiSearcher([ia, ib], use_actors=False)
    saved = {"title": "s", "columns": ["lang"],
             "sort": [["msm", "desc"]],
             "query": "spark", "language": "kuery"}
    try:
        want = execute_search(flat, saved, k=25,
                              time_field="msm").to_pandas()
        got = execute_search(ms, saved, k=25,
                             time_field="msm").to_pandas()
        assert want.equals(got)
        saved2 = {"title": "s2", "columns": ["msm"],
                  "sort": ["msm", "asc"],
                  "query": 'lang:"en"', "language": "kuery"}
        want2 = execute_search(flat, saved2, k=25,
                               time_field="msm").to_pandas()
        got2 = execute_search(ms, saved2, k=25,
                              time_field="msm").to_pandas()
        assert want2.equals(got2)
    finally:
        flat.close()
        ms.close()


def test_pattern_filtered_aggs(split_indexes):
    """Bool-filtered (and pure-filter) agg contexts federate over an
    index pattern: the ambient context installs once (driver global
    covers every member searcher; each member's actor pool gets the
    broadcast) and the per-index partials merge identically to the
    flat union index."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_dsl, execute_pattern_dsl)
    from siem_on_amazon_opensearch_service_ray.state.multisearch import (
        MultiSearcher)
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        Searcher)
    root, flat_idx, ia, ib = split_indexes
    body = {"query": {"bool": {
                "must": [{"match": {"content": "spark"}}],
                "filter": [{"terms": {"lang": ["en", "de"]}},
                           {"range": {"msm": {"gte": 1.0,
                                              "lte": 4.0}}}]}},
            "size": 0,
            "aggs": {"by_lang": {"terms": {"field": "lang",
                                           "size": 10}},
                     "st": {"stats": {"field": "msm"}}}}
    ms = MultiSearcher([ia, ib])
    flat = Searcher(flat_idx, use_actors=False)
    try:
        got = execute_pattern_dsl(ms, body)["aggregations"]
        exp = execute_dsl(flat, body)["aggregations"]
        assert got["by_lang"] == exp["by_lang"]
        assert got["st"]["count"] == exp["st"]["count"]
        assert got["st"]["sum"] == exp["st"]["sum"]
        # pure filter context over the pattern
        pure = {"query": {"bool": {"filter": [
                    {"term": {"lang": "fr"}}]}},
                "size": 0,
                "aggs": {"vc": {"value_count": {"field": "msm"}}}}
        g2 = execute_pattern_dsl(ms, pure)["aggregations"]
        e2 = execute_dsl(flat, pure)["aggregations"]
        assert g2 == e2
    finally:
        ms.close()
        flat.close()


def test_pattern_scored_bool_identical_to_flat(split_indexes):
    """Scored bool over a pattern (must/should/must_not + filter
    specs): rank AND score identical to one flat union index."""
    from siem_on_amazon_opensearch_service_ray.state.dsl import (
        execute_dsl, execute_pattern_dsl)
    from siem_on_amazon_opensearch_service_ray.state.multisearch import (
        MultiSearcher)
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        Searcher)
    root, flat_idx, ia, ib = split_indexes
    body = {"query": {"bool": {
                "must": [{"match": {"content": "spark"}}],
                "should": [{"match": {"content": "join"}}],
                "must_not": [{"match": {"content": "shuffle"}}],
                "filter": [{"terms": {"lang": ["en", "de"]}},
                           {"range": {"msm": {"gte": 1.0,
                                              "lte": 5.0}}}]}},
            "size": 25}
    ms = MultiSearcher([ia, ib])
    flat = Searcher(flat_idx, use_actors=False)
    try:
        got = execute_pattern_dsl(ms, body)["hits"]["hits"]
        exp = execute_dsl(flat, body)["hits"]["hits"]
        assert [(h["_id"], round(h["_score"], 9)) for h in got] \
            == [(h["_id"], round(h["_score"], 9)) for h in exp]
        assert all(h["_index"] in ("log-2024-01", "log-2024-02")
                   for h in got)
    finally:
        ms.close()
        flat.close()


def test_cat_aliases_count_mapping_settings(split_indexes, capsys):
    """_cat/aliases (flat alias->index rows), _cat/count (live total
    across a pattern), GET _mapping / _settings (config exported back
    in OpenSearch shape); each also through the CLI."""
    import json

    from siem_on_amazon_opensearch_service_ray.__main__ import main
    from siem_on_amazon_opensearch_service_ray.state.multisearch import (
        cat_aliases, cat_count, get_aliases)
    from siem_on_amazon_opensearch_service_ray.state.stats import (
        get_mapping, get_settings)
    root, flat_idx, ia, ib = split_indexes
    rows = cat_aliases(root)
    reg = get_aliases(root)
    assert rows == [{"alias": a, "index": i}
                    for a in sorted(reg) for i in sorted(reg[a])]
    assert cat_count(root, "log-2024-*") == {"count": 300}
    m = get_mapping(ia)
    props = m["log-2024-01"]["mappings"]["properties"]
    assert props["content"] == {"type": "text", "analyzer": "base"}
    assert props["lang"] == {"type": "keyword"}
    assert props["msm"] == {"type": "double"}
    st = get_settings(ia)["log-2024-01"]["settings"]["index"]
    assert st["number_of_shards"] == 2
    assert st["number_of_replicas"] == 0 and st["uuid"]
    assert main(["cat-aliases", root]) == 0
    assert json.loads(capsys.readouterr().out) == rows
    assert main(["cat-count", root, "--pattern", "log-2024-*"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 300}
    assert main(["mapping", ia]) == 0
    assert json.loads(capsys.readouterr().out) == m
    assert main(["mapping", ia, "--settings"]) == 0
    assert json.loads(capsys.readouterr().out) == get_settings(ia)


def test_resolve_index_shards_health(split_indexes, capsys):
    """_resolve/index (pattern -> indexes + aliases), _cat/shards
    (per-partition doc/byte rows from build manifests), and
    _cluster/health (always-green census); CLI round-trips."""
    import json

    from siem_on_amazon_opensearch_service_ray.__main__ import main
    from siem_on_amazon_opensearch_service_ray.state.multisearch import (
        cat_shards, cluster_health, resolve_index)
    root, flat_idx, ia, ib = split_indexes
    r = resolve_index(root, "log-2024-*")
    assert [i["name"] for i in r["indices"]] == ["log-2024-01",
                                                 "log-2024-02"]
    assert r["data_streams"] == []
    r2 = resolve_index(root, "logs")
    assert any(a["name"] == "logs" for a in r2["aliases"])
    sh = cat_shards(root, "log-2024-01")
    assert [s["shard"] for s in sh] == [0, 1]
    assert sum(s["docs"] for s in sh) == 100
    assert all(s["prirep"] == "p" and s["state"] == "STARTED"
               and s["store"] > 0 for s in sh)
    h = cluster_health(root)
    assert h["status"] == "green" and h["unassigned_shards"] == 0
    assert h["active_shards"] == len(cat_shards(root))
    assert main(["cat-shards", root, "--pattern", "log-2024-01"]) == 0
    assert json.loads(capsys.readouterr().out) == sh
    assert main(["resolve-index", root, "log-2024-*"]) == 0
    assert json.loads(capsys.readouterr().out) == r
    assert main(["cluster-health", root]) == 0
    assert json.loads(capsys.readouterr().out) == h
