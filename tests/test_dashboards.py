"""Saved-object ingestion (pipelines/dashboards.py): parse ndjson
exports in the reference's saved-object format (hand-written fixtures
under tests/fixtures/saved_objects; the full reference corpus, when
present, adds the whole-corpus coverage check), then execute
supported panel shapes against a small fixture index."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index)
from siem_on_amazon_opensearch_service_ray.pipelines.dashboards import (
    PanelSpec, execute_panel, parse_saved_objects)
from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

SAVED_OBJECTS = os.path.join(os.path.dirname(__file__), "fixtures",
                             "saved_objects")
REF_SEARCHES = os.path.join(SAVED_OBJECTS, "each-indexpattern-search",
                            "cloudtrail.ndjson")
REF_DASHBOARDS = glob.glob(
    "/root/reference/source/saved_objects/each-dashboard/*.ndjson")


def test_parse_reference_search_export():
    so = parse_saved_objects(open(REF_SEARCHES).read())
    assert so.index_patterns == ["log-aws-cloudtrail-*"]
    assert so.searches and so.searches[0]["title"].startswith("search")
    assert "cloud.region" in so.searches[0]["columns"]


@pytest.mark.skipif(not REF_DASHBOARDS, reason="no reference dashboards")
def test_parse_reference_dashboards_supported_majority():
    """Across the reference's real dashboard exports, the engine's agg
    vocabulary must cover the majority of data panels — the measured
    shapes are count/cardinality/sum x terms/filters/date_histogram."""
    total = supported = 0
    for f in REF_DASHBOARDS:
        so = parse_saved_objects(open(f).read())
        for p in so.panels:
            total += 1
            supported += bool(p.supported)
    assert total > 100
    assert supported / total > 0.9, f"{supported}/{total}"
    # every unsupported remainder must be a non-data panel type
    # (markdown / controls / timelion) or a raw-DSL "custom" filter
    # pill (2 panels in the reference carry one; refusing beats
    # silently ignoring the pill) — the agg vocabulary itself is
    # fully covered
    data_unsupported = [
        p.reason for f in REF_DASHBOARDS
        for p in parse_saved_objects(open(f).read()).panels
        if not p.supported and not p.reason.startswith("non-data")]
    assert all(r == "unsupported filter pill shape"
               for r in data_unsupported), data_unsupported
    assert len(data_unsupported) <= 2, data_unsupported
    # the pills themselves parse into executable context specs on the
    # majority of filtered panels
    with_pills = [
        p for f in REF_DASHBOARDS
        for p in parse_saved_objects(open(f).read()).panels
        if p.pill_filters]
    assert len(with_pills) >= 60
    kinds = {s[0] for p in with_pills for s in p.pill_filters}
    assert kinds >= {"kw", "kw_not"}


def test_parse_tolerates_garbage():
    so = parse_saved_objects('not-json\n{"type": "x"}\n\n'
                             '{"type": "dashboard", "attributes": '
                             '{"title": "d"}}')
    assert so.dashboards == ["d"]
    assert so.panels == []


@pytest.fixture(scope="module")
def panel_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("panels")
    n = 120
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": [f"event {'login' if i % 3 else 'launch'} record"
                 for i in range(n)],
        "event_name": [["ConsoleLogin", "RunInstances", "PutObject"][i % 3]
                       for i in range(n)],
        "region": [["us-east-1", "eu-west-1"][i % 2] for i in range(n)],
        "n_chars": pa.array([20 + i for i in range(n)], pa.int64()),
    })
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    build_index([src], idx, IndexConfig(
        num_partitions=2, fields=(("content", "text", "base"),),
        keyword_fields=("event_name", "region"),
        range_fields=("n_chars",), doc_id_col="doc_id", sha_col="text"))
    s = Searcher(idx, use_actors=False)
    yield s
    s.close()


def _vis(vis_type, aggs, query=""):
    attrs = {
        "title": "t",
        "visState": json.dumps({"type": vis_type, "aggs": aggs}),
        "kibanaSavedObjectMeta": {"searchSourceJSON": json.dumps(
            {"query": {"query": query, "language": "kuery"}})},
    }
    line = json.dumps({"type": "visualization", "attributes": attrs})
    return parse_saved_objects(line).panels[0]


def test_execute_terms_count_match_all(panel_index):
    p = _vis("pie", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "event_name", "size": 5}},
    ])
    assert p.supported
    rows = execute_panel(panel_index, p)
    assert dict(rows) == {"ConsoleLogin": 40, "RunInstances": 40,
                          "PutObject": 40}


def test_execute_terms_count_with_query(panel_index):
    p = _vis("table", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "event_name", "size": 5}},
    ], query="launch")
    rows = dict(execute_panel(panel_index, p))
    # 'launch' docs are the i % 3 == 0 rows -> all PutObject? no:
    # i%3==0 -> 'launch' and event ConsoleLogin cycle — just assert
    # the filtered total matches the corpus
    assert sum(rows.values()) == 40


def test_execute_cardinality_and_filters(panel_index):
    card = _vis("metric", [
        {"schema": "metric", "type": "cardinality",
         "params": {"field": "region"}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "region", "size": 10}},
    ])
    assert execute_panel(panel_index, card) == [("region", 2)]
    filt = _vis("metric", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "group", "type": "filters",
         "params": {"filters": [{"input": {"query": "login"}},
                                {"input": {"query": "launch"}}]}},
    ])
    rows = dict(execute_panel(panel_index, filt))
    assert rows == {"login": 80, "launch": 40}


def test_execute_kuery_field_filter(panel_index):
    p = _vis("pie", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "event_name", "size": 5}},
    ], query='region:"us-east-1"')
    assert p.supported and p.filter_field == "region"
    rows = dict(execute_panel(panel_index, p))
    assert sum(rows.values()) == 60          # the us-east-1 half
    assert rows == {"ConsoleLogin": 20, "RunInstances": 20,
                    "PutObject": 20}


def test_execute_stats_and_bucket_pipeline(panel_index):
    mx = _vis("table", [
        {"schema": "metric", "type": "max",
         "params": {"field": "n_chars"}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "event_name", "size": 5}},
    ], query="event")
    rows = dict(execute_panel(panel_index, mx))
    assert set(rows) == {"ConsoleLogin", "RunInstances", "PutObject"}
    assert rows["ConsoleLogin"] == 20 + 117   # doc_ids 0,3,...,117
    mb = _vis("metric", [
        {"schema": "metric", "type": "max_bucket", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "event_name", "size": 5}},
    ])
    assert execute_panel(panel_index, mb) == [("max_bucket", 40)]


def test_execute_date_histogram_fixed_interval(panel_index):
    # n_chars stands in for an epoch-micros range field: interval '50s'
    # = 50_000_000 micro-units... use a tiny custom unit via '1s'
    p = _vis("line", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "date_histogram",
         "params": {"field": "n_chars", "interval": "1s"}},
    ], query="event")
    rows = execute_panel(panel_index, p)
    # n_chars = 20..139 -> all in bucket 0 at 1e6-micro interval
    assert rows == [(0, 120)]
    cal = _vis("line", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "date_histogram",
         "params": {"field": "n_chars", "interval": "1M"}},
    ], query="event")
    with pytest.raises(ValueError):
        execute_panel(panel_index, cal)


def test_execute_terms_x_date_histogram(panel_index):
    # the area-chart split-series shape: terms(event_name) x
    # date_histogram(n_chars as micros, '1s' = 1e6 units)
    p = _vis("area", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "group", "type": "terms",
         "params": {"field": "event_name", "size": 5}},
        {"schema": "segment", "type": "date_histogram",
         "params": {"field": "n_chars", "interval": "1s"}},
    ], query="event")
    assert p.supported
    rows = dict(execute_panel(panel_index, p))
    # all 120 docs, n_chars 20..139 -> bucket 0; 3 series x 40 docs
    assert rows == {("ConsoleLogin", 0): 40, ("RunInstances", 0): 40,
                    ("PutObject", 0): 40}


def test_execute_calendar_month_panel(ray_session):
    """A monthly calendar panel (the reference dashboards' 'by month'
    shape) routes to the Dataset-side calendar kernel: month buckets
    honor real month lengths, the kuery field filter applies, and a
    sum metric works."""
    import datetime

    import ray.data as rd
    ts = [datetime.datetime(2024, 1, 15), datetime.datetime(2024, 1, 31),
          datetime.datetime(2024, 2, 1), datetime.datetime(2024, 3, 5)]
    t = pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "kind": ["a", "a", "b", "a"],
        "v": pa.array([1, 10, 100, 1000], pa.int64()),
    })
    ds = rd.from_arrow(t)
    jan = int(datetime.datetime(2024, 1, 1,
                                tzinfo=datetime.timezone.utc).timestamp())
    feb = int(datetime.datetime(2024, 2, 1,
                                tzinfo=datetime.timezone.utc).timestamp())
    mar = int(datetime.datetime(2024, 3, 1,
                                tzinfo=datetime.timezone.utc).timestamp())
    p = _vis("line", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "date_histogram",
         "params": {"field": "ts", "interval": "1M"}},
    ])
    assert execute_panel(None, p, dataset=ds) == \
        [(jan, 2), (feb, 1), (mar, 1)]
    # kuery field filter + sum metric
    p2 = _vis("line", [
        {"schema": "metric", "type": "sum", "params": {"field": "v"}},
        {"schema": "segment", "type": "date_histogram",
         "params": {"field": "ts", "interval": "1M"}},
    ], query='kind:"a"')
    assert execute_panel(None, p2, dataset=ds) == \
        [(jan, 11), (mar, 1000)]
    # terms split series
    p3 = _vis("area", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "group", "type": "terms",
         "params": {"field": "kind", "size": 5}},
        {"schema": "segment", "type": "date_histogram",
         "params": {"field": "ts", "interval": "month"}},
    ])
    assert execute_panel(None, p3, dataset=ds) == \
        [(("a", jan), 2), (("a", mar), 1), (("b", feb), 1)]
    # without a dataset the calendar panel refuses loudly
    with pytest.raises(ValueError, match="dataset"):
        execute_panel(None, p)


def test_cli_dashboard_summary(capsys):
    from siem_on_amazon_opensearch_service_ray.__main__ import main
    rc = main(["dashboard", REF_SEARCHES])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["index_patterns"] == ["log-aws-cloudtrail-*"]
    assert out["searches"]


def test_unsupported_panels_flagged():
    p = _vis("timelion", [])
    assert not p.supported
    with pytest.raises(ValueError):
        execute_panel(None, p)
    # conjunctive compound kuery lowers to pills now; disjunctive
    # stays refused
    kql = _vis("pie", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "x", "size": 5}},
    ], query='a:"1" AND b:"2"')
    assert kql.supported and kql.pill_filters == (("kw", "a", "1"),
                                                  ("kw", "b", "2"))
    kql2 = _vis("pie", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "x", "size": 5}},
    ], query='a:"1" OR b:"2"')
    assert not kql2.supported and "kuery" in kql2.reason


@pytest.fixture(scope="module")
def discover_index(ray_session, tmp_path_factory):
    """ECS-shaped fixture for Discover saved searches: @timestamp
    epoch-micros range field + the threat_hunting columns' keyword
    subset."""
    root = tmp_path_factory.mktemp("discover")
    n = 200
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": [f"event {'deny' if i % 5 else 'allow'} flow"
                 for i in range(n)],
        "@timestamp": pa.array(
            [1_700_000_000_000_000 + (i * 7919) % 1_000_000_000
             for i in range(n)], pa.int64()),
        "user.name": [f"user{i % 7}" for i in range(n)],
        "source.ip": [f"10.0.{i % 4}.{i % 250}" for i in range(n)],
        "@log_type": [["vpcflowlogs", "cloudtrail"][i % 2]
                      for i in range(n)],
    })
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    idx = str(root / "idx")
    build_index([src], idx, IndexConfig(
        num_partitions=2, fields=(("content", "text", "base"),),
        keyword_fields=("user.name", "@log_type"),
        range_fields=("@timestamp",), doc_id_col="doc_id",
        sha_col="text"))
    s = Searcher(idx, use_actors=False)
    yield s, t
    s.close()


REF_THREAT_HUNTING = os.path.join(SAVED_OBJECTS, "each-dashboard",
                                  "threat_hunting.ndjson")


def test_execute_reference_saved_search_verbatim(discover_index):
    """A VERBATIM reference saved search (threat_hunting's '_ECS
    Fields': sort [['@timestamp','desc']], ECS column list, empty
    kuery) executes end-to-end: kuery filter + @timestamp desc +
    docstore column fetch."""
    from siem_on_amazon_opensearch_service_ray.pipelines.dashboards import (
        execute_search)
    s, t = discover_index
    so = parse_saved_objects(open(REF_THREAT_HUNTING).read())
    saved = next(x for x in so.searches
                 if x["sort"] == [["@timestamp", "desc"]])
    out = execute_search(s, saved, k=50)
    assert out.num_rows == 50
    ts = out.column("@timestamp").to_pylist()
    assert ts == sorted(ts, reverse=True)
    # the saved columns that exist in the docstore ride along
    assert {"user.name", "@log_type"} <= set(out.column_names)
    # parity with a pandas reference over the source table
    df = t.to_pandas().sort_values(
        ["@timestamp", "doc_id"], ascending=[False, True]).head(50)
    assert out.column("doc_id").to_pylist() == df["doc_id"].tolist()
    assert out.column("user.name").to_pylist() == df["user.name"].tolist()


def test_execute_saved_search_kuery_and_asc(discover_index):
    from siem_on_amazon_opensearch_service_ray.pipelines.dashboards import (
        execute_search)
    s, t = discover_index
    saved = {"title": "s", "columns": ["source.ip"],
             "sort": [["@timestamp", "asc"]],
             "query": '@log_type:"cloudtrail"', "language": "kuery"}
    out = execute_search(s, saved, k=20)
    df = t.to_pandas()
    df = df[df["@log_type"] == "cloudtrail"].sort_values(
        ["@timestamp", "doc_id"]).head(20)
    assert out.column("doc_id").to_pylist() == df["doc_id"].tolist()
    assert out.column("source.ip").to_pylist() == df["source.ip"].tolist()
    # bare-term fulltext query path
    saved = {"title": "s", "columns": [], "sort": [],
             "query": "allow", "language": "kuery"}
    out = execute_search(s, saved, k=10)
    allow = df0 = t.to_pandas()
    allow = allow[allow["text"].str.contains("allow")]
    want = allow.sort_values(["@timestamp", "doc_id"],
                             ascending=[False, True]).head(10)
    assert out.column("doc_id").to_pylist() == want["doc_id"].tolist()


def test_execute_saved_search_unsupported_kuery(discover_index):
    from siem_on_amazon_opensearch_service_ray.pipelines.dashboards import (
        execute_search)
    s, _ = discover_index
    # conjunctive compound kuery now lowers to pills; disjunctive
    # (top-level or) stays refused
    with pytest.raises(ValueError, match="kuery"):
        execute_search(s, {"query": 'a:"1" or b:"2"', "columns": [],
                           "sort": []})


def _vis_pills(vis_type, aggs, pills, query=""):
    attrs = {
        "title": "t",
        "visState": json.dumps({"type": vis_type, "aggs": aggs}),
        "kibanaSavedObjectMeta": {"searchSourceJSON": json.dumps(
            {"query": {"query": query, "language": "kuery"},
             "filter": pills})},
    }
    line = json.dumps({"type": "visualization", "attributes": attrs})
    return parse_saved_objects(line).panels[0]


def test_execute_panel_with_phrase_pill(panel_index):
    """Reference-shaped phrase pill (meta.type=phrase, params.query)
    narrowing a terms/count panel — the dominant dashboard filter."""
    p = _vis_pills("pie", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "event_name", "size": 5}}],
        [{"meta": {"type": "phrase", "key": "region",
                   "params": {"query": "us-east-1"}, "negate": False}}])
    assert p.supported and p.pill_filters == (("kw", "region",
                                               "us-east-1"),)
    rows = execute_panel(panel_index, p)
    # region us-east-1 = even doc ids; event_name cycles mod 3
    assert dict(rows) == {"ConsoleLogin": 20, "RunInstances": 20,
                          "PutObject": 20}


def test_execute_panel_with_negated_and_phrases_pills(panel_index):
    p = _vis_pills("table", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "region", "size": 5}}],
        [{"meta": {"type": "phrases", "key": "event_name",
                   "params": ["ConsoleLogin", "RunInstances"],
                   "negate": False}},
         {"meta": {"type": "phrase", "key": "region",
                   "params": {"query": "eu-west-1"}, "negate": True}}])
    assert p.supported
    rows = execute_panel(panel_index, p)
    # ConsoleLogin/RunInstances docs (i%3 in {0,1}) in us-east-1 (even)
    assert dict(rows) == {"us-east-1": 40}


def test_execute_pill_with_query_and_metric(panel_index):
    """Pills compose with a fulltext panel query and a sum metric —
    the reference's 'Accept Src Bytes'-style panel."""
    p = _vis_pills("table", [
        {"schema": "metric", "type": "sum",
         "params": {"field": "n_chars"}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "event_name", "size": 5}}],
        [{"meta": {"type": "phrase", "key": "region",
                   "params": {"query": "us-east-1"}, "negate": False}}],
        query="login")
    assert p.supported
    rows = dict(execute_panel(panel_index, p))
    # login docs = i%3 != 0; us-east-1 = even i -> i%6 in {2,4};
    # event_name cycles [ConsoleLogin, RunInstances, PutObject][i%3]
    exp_ri = sum(20 + i for i in range(120) if i % 6 == 4)   # i%3==1 even
    exp_po = sum(20 + i for i in range(120) if i % 6 == 2)   # i%3==2 even
    assert rows == {"RunInstances": exp_ri, "PutObject": exp_po}


def test_execute_metric_only_count_with_pill(panel_index):
    p = _vis_pills("metric", [
        {"schema": "metric", "type": "count", "params": {}}],
        [{"meta": {"type": "phrase", "key": "region",
                   "params": {"query": "eu-west-1"}, "negate": False}}])
    assert p.supported
    rows = execute_panel(panel_index, p)
    assert rows == [("t", 60)]


def test_disabled_and_custom_pills(panel_index):
    base = [{"schema": "metric", "type": "count", "params": {}},
            {"schema": "segment", "type": "terms",
             "params": {"field": "event_name", "size": 5}}]
    # a disabled pill is skipped entirely
    p = _vis_pills("pie", base,
                   [{"meta": {"type": "phrase", "key": "region",
                              "params": {"query": "us-east-1"},
                              "negate": False, "disabled": True}}])
    assert p.supported and p.pill_filters == ()
    # a raw-DSL custom pill marks the panel unsupported (refuse, not
    # silently ignore)
    p2 = _vis_pills("pie", base,
                    [{"meta": {"type": "custom", "key": "query"}}])
    assert not p2.supported and "pill" in p2.reason


def test_execute_saved_search_with_pills(discover_index):
    """Saved search carrying reference-shaped filter pills (phrase +
    negated phrase), no text query: pure filter context + @timestamp
    desc sort + docstore fetch."""
    from siem_on_amazon_opensearch_service_ray.pipelines.dashboards import (
        execute_search)
    s, t = discover_index
    saved = {"title": "s", "columns": ["user.name"],
             "sort": [["@timestamp", "desc"]], "query": "",
             "language": "kuery",
             "filters": (("kw", "@log_type", "vpcflowlogs"),
                         ("kw_not", "user.name", "user3"))}
    out = execute_search(s, saved, k=500)
    ids = out.column("doc_id").to_pylist()
    # expected: even ids (vpcflowlogs) with i%7 != 3
    exp = [i for i in range(200) if i % 2 == 0 and i % 7 != 3]
    assert sorted(ids) == exp
    # @timestamp desc order
    ts = out.column("@timestamp").to_pylist()
    assert ts == sorted(ts, reverse=True)
    # pills compose with a text query too
    saved2 = {"title": "s2", "columns": [], "sort": [["@timestamp",
                                                      "asc"]],
              "query": "allow", "language": "kuery",
              "filters": (("kw", "@log_type", "vpcflowlogs"),)}
    out2 = execute_search(s, saved2, k=500)
    # allow docs = i%5==0; vpcflowlogs = even
    exp2 = [i for i in range(200) if i % 5 == 0 and i % 2 == 0]
    assert sorted(out2.column("doc_id").to_pylist()) == exp2
    # an unlowerable pill set refuses
    with pytest.raises(ValueError, match="pill"):
        execute_search(s, {"title": "x", "columns": [], "sort": [],
                           "query": "", "filters": None})


def test_parse_reference_search_pills():
    """Saved searches with pills parse into context specs (e.g. the
    OCSF/Security-Lake searches filter on phrase pills)."""
    n_with = 0
    for f in glob.glob(os.path.join(SAVED_OBJECTS, "*", "*.ndjson")):
        so = parse_saved_objects(open(f).read())
        for srch in so.searches:
            if srch.get("filters"):
                n_with += 1
                assert all(p[0] in ("kw", "kw_not", "exists",
                                    "exists_not", "range")
                           for p in srch["filters"])
    assert n_with >= 5


def test_compound_kuery_panel(panel_index):
    """Conjunctive compound kuery — `region:"us-east-1" and not
    event_name:PutObject and n_chars >= 80` — lowers to pills and
    executes."""
    p = _vis("pie", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "event_name", "size": 5}},
    ], query='region:"us-east-1" and not event_name:PutObject '
             'and n_chars >= 80')
    assert p.supported
    rows = dict(execute_panel(panel_index, p))
    # even ids (us-east-1), i%3 != 2 (not PutObject), 20+i >= 80
    exp = {}
    for i in range(120):
        if i % 2 == 0 and i % 3 != 2 and 20 + i >= 80:
            name = ["ConsoleLogin", "RunInstances", "PutObject"][i % 3]
            exp[name] = exp.get(name, 0) + 1
    assert rows == exp


def test_compound_kuery_multivalue_group(panel_index):
    p = _vis("pie", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "region", "size": 5}},
    ], query='event_name:(ConsoleLogin or RunInstances)')
    assert p.supported
    rows = dict(execute_panel(panel_index, p))
    assert rows == {"us-east-1": 40, "eu-west-1": 40}


def test_compound_kuery_saved_search(discover_index):
    from siem_on_amazon_opensearch_service_ray.pipelines.dashboards import (
        execute_search)
    s, _ = discover_index
    out = execute_search(
        s, {"query": '@log_type:vpcflowlogs and not user.name:user3',
            "columns": ["user.name"], "sort": [["@timestamp", "desc"]],
            "language": "kuery"}, k=500)
    ids = sorted(out.column("doc_id").to_pylist())
    assert ids == [i for i in range(200) if i % 2 == 0 and i % 7 != 3]


def test_calendar_panel_with_pills(ray_session):
    """Calendar (monthly) panel with filter pills: the pills apply
    Dataset-side as vectorized Arrow masks (negation keeps
    missing-field rows — must_not semantics)."""
    import ray.data as rd
    n = 180
    t = pa.table({
        "ts": pa.array([1_700_000_000_000_000 + i * 86_400_000_000
                        for i in range(n)], pa.int64()),
        "event_type": [["click", "view", "buy"][i % 3]
                       for i in range(n)],
        "region": [["us", "eu", None][i % 3] for i in range(n)],
        "amount": pa.array([float(i) for i in range(n)], pa.float64()),
    })
    ds = rd.from_arrow(t)
    p = _vis_pills("line", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "date_histogram",
         "params": {"field": "ts", "interval": "1M"}}],
        [{"meta": {"type": "phrases", "key": "event_type",
                   "params": ["click", "view"], "negate": False}},
         {"meta": {"type": "phrase", "key": "region",
                   "params": {"query": "eu"}, "negate": True}}])
    assert p.supported
    rows = execute_panel(None, p, dataset=ds)
    # reference: pandas over the same predicate (not-eu keeps nulls)
    import pandas as pd
    df = t.to_pandas()
    keep = df.event_type.isin(["click", "view"]) & (
        df.region.isna() | (df.region != "eu"))
    ref = df[keep]
    months = pd.to_datetime(ref.ts, unit="us").dt.to_period("M")
    exp = months.value_counts().sort_index()
    got_total = sum(v for _, v in rows)
    assert got_total == len(ref)
    assert len(rows) == len(exp)


def test_kuery_wildcard_value(panel_index):
    p = _vis("pie", [
        {"schema": "metric", "type": "count", "params": {}},
        {"schema": "segment", "type": "terms",
         "params": {"field": "region", "size": 5}},
    ], query='event_name:Console*')
    assert p.supported and p.pill_filters == (("kw_like", "event_name",
                                               "Console*"),)
    rows = dict(execute_panel(panel_index, p))
    assert rows == {"us-east-1": 20, "eu-west-1": 20}
