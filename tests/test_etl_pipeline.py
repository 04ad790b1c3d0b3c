"""Flagship ETL pipeline (LogParser-order) + routing + registry."""

import datetime as dt

import pyarrow as pa
import pytest

import ray.data as rd

from siem_on_amazon_opensearch_service_ray.pipelines import etl
from siem_on_amazon_opensearch_service_ray.stages.exclude import ExclusionRule


def _log_table():
    return pa.table({
        "ts": ["2024-05-01T12:00:00Z", "2024-06-01T01:00:00+02:00",
               "2023-12-31T23:59:59Z"],
        "src": ["10.0.0.1", "-", "203.0.113.9"],
        "error_code": [None, "AccessDenied", None],
        "user": ["alice", "svc-backup", "bob"],
    })


def test_prepare_batch_order_and_routing():
    cfg = etl.EtlConfig(logtype="cloudtrail_like", timestamp_col="ts",
                        renames={"src": "source_ip"},
                        static_fields={"event_kind": "event"},
                        index_name="log-aws", index_rotation="monthly")
    out = etl.prepare_batch(_log_table(), cfg)
    assert "source_ip" in out.column_names          # M2 rename
    assert out.column("source_ip").to_pylist()[1] is None  # M12 cleanup of '-'
    assert out.column("event_kind").to_pylist() == ["event"] * 3  # M6 static
    assert out.column("event_outcome").to_pylist() == \
        ["success", "failure", "success"]            # M8 sf transform
    assert out.column("__index").to_pylist() == \
        ["log-aws-2024-05", "log-aws-2024-05", "log-aws-2023-12"]  # M11 + tz


def test_rotation_kinds():
    batch = pa.table({"ts": ["2024-05-01T12:00:00Z"]})
    cfg = etl.EtlConfig(logtype="x", timestamp_col="ts")
    b = etl.prepare_batch(batch, cfg)
    # aoss = fixed '-001' (reference siem/__init__.py:626-633),
    # auto = the bare name (:635)
    for rot, expect in [("daily", "log-2024-05-01"), ("yearly", "log-2024"),
                        ("aoss", "log-001"), ("auto", "log")]:
        out = etl.route_index(b.drop_columns(["__index"]), "log", rot)
        assert out.column("__index").to_pylist() == [expect]


def test_rotation_suffix_tz_and_dt_override():
    import datetime
    batch = pa.table({"ts": ["2024-05-01T01:00:00Z"]})
    cfg = etl.EtlConfig(logtype="x", timestamp_col="ts")
    b = etl.prepare_batch(batch, cfg).drop_columns(["__index"])
    # index_suffix rides before the date; aoss uses it verbatim
    out = etl.route_index(b, "log", "monthly", index_suffix="prod")
    assert out.column("__index").to_pylist() == ["log-prod-2024-05"]
    out = etl.route_index(b, "log", "aoss", index_suffix="prod")
    assert out.column("__index").to_pylist() == ["log-prod"]
    # index_tz: -9h pulls 01:00 UTC May 1 into April (aws.ini index_tz)
    out = etl.route_index(b, "log", "monthly", index_tz_hours=-9.0)
    assert out.column("__index").to_pylist() == ["log-2024-04"]
    # __index_dt per-row override (sf scripts), consumed by the router
    b2 = b.append_column("__index_dt", pa.array(
        [datetime.datetime(2020, 1, 2)], pa.timestamp("us")))
    out = etl.route_index(b2, "log", "daily")
    assert out.column("__index").to_pylist() == ["log-2020-01-02"]
    assert "__index_dt" not in out.column_names


def test_index_time_event_ingested():
    """aws.ini index_time=event_ingested: routing uses the ingestion
    timestamp column, not the event's own time."""
    import datetime
    batch = pa.table({
        "ts": ["2020-03-03T12:00:00Z"],
        "event_ingested": pa.array([datetime.datetime(2024, 7, 1)],
                                   pa.timestamp("us")),
    })
    cfg = etl.EtlConfig(logtype="x", timestamp_col="ts",
                        index_rotation="monthly",
                        index_time="event_ingested")
    out = etl.prepare_batch(batch, cfg)
    assert out.column("__index").to_pylist() == ["log-2024-07"]
    # default stays event time
    out2 = etl.prepare_batch(batch, etl.EtlConfig(
        logtype="x", timestamp_col="ts", index_rotation="monthly"))
    assert out2.column("__index").to_pylist() == ["log-2020-03"]
    # ingestion-time routing must also work with NO parseable event
    # time at all (the exact use case: unparseable timestamps)
    batch2 = pa.table({
        "raw": ["x"],
        "event_ingested": pa.array([datetime.datetime(2024, 7, 1)],
                                   pa.timestamp("us")),
    })
    out3 = etl.prepare_batch(batch2, etl.EtlConfig(
        logtype="x", index_rotation="monthly",
        index_time="event_ingested"))
    assert out3.column("__index").to_pylist() == ["log-2024-07"]


def test_protocol_transform():
    out = etl.get_transform("vpcflow_like")(pa.table({"protocol": [6, 17, 999]}))
    assert out.column("network_transport").to_pylist() == ["tcp", "udp", None]


def test_run_etl_with_exclusion_and_partitioned_write(ray_session, tmp_path):
    ds = rd.from_arrow(_log_table())
    cfg = etl.EtlConfig(logtype="cloudtrail_like", timestamp_col="ts",
                        exclusion_rules=[ExclusionRule("user", "svc-.*")],
                        index_name="log-aws")
    out_dir = str(tmp_path / "etl_out")
    out = etl.run_etl(ds, cfg, out_dir=out_dir)
    df = out.to_pandas()
    assert set(df["user"]) == {"alice", "bob"}       # exclusion applied
    import os
    # sink renames the routing key to 'index': '_'-prefixed partition
    # dirs are hidden to parquet dataset discovery and read back empty
    parts = [d for d in os.listdir(out_dir) if d.startswith("index=")]
    assert len(parts) == 2                           # monthly partition dirs
    reread = rd.read_parquet(out_dir)
    assert reread.count() == len(df)                 # discoverable output


def test_fetch_docs_roundtrip(ray_session, small_corpus, tmp_path):
    from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
        IndexConfig, build_index)
    from siem_on_amazon_opensearch_service_ray.state.docstore import fetch_docs
    from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher
    idx = str(tmp_path / "idx")
    cfg = IndexConfig(num_partitions=4)
    build_index(small_corpus, idx, cfg)
    s = Searcher(idx, use_actors=False)
    hits = s.search("needle_137", k=3)
    ids = [d for _, d in hits]
    docs = fetch_docs(idx, ids)
    assert docs.num_rows == len(ids)
    assert set(docs.column("doc_id").to_pylist()) == set(ids)
    assert all(len(s_) == 64 for s_ in docs.column("content_sha256").to_pylist())


def test_url_full_and_ocsf_routing():
    out = etl.get_transform("alb_like")(pa.table({
        "scheme": ["https", None], "host": ["x.io", "y.io"],
        "url_path": ["/a", "/b"]}))
    assert out.column("url_full").to_pylist() == ["https://x.io/a", None]
    cfg = etl.EtlConfig(logtype="securitylake_like", timestamp_col="ts",
                        index_name="log-base")
    batch = pa.table({"ts": ["2024-05-01T00:00:00Z"] * 2,
                      "category_uid": [4, 99]})
    out2 = etl.prepare_batch(batch, cfg)
    # sf transform overrides the routing key (reference __index_name)
    assert out2.column("__index").to_pylist() == \
        ["log-ocsf-network", "log-ocsf-other"]
    assert "__index_override" not in out2.column_names


def test_broadcast_enrich_through_ray(ray_session):
    """T1/T2 analogue exercised the real way: interval table broadcast
    via ray.put once, looked up inside an actor-pool map_batches."""
    import ray

    from siem_on_amazon_opensearch_service_ray.stages.enrich import (
        IntervalEnrich, build_interval_table)
    table = build_interval_table([
        ("10.0.0.0/8", "private"), ("203.0.113.0/24", "testnet")])
    ref = ray.put(table)
    ds = rd.from_arrow(pa.table({
        "ip": ["10.1.2.3", "8.8.8.8", "203.0.113.9", "10.9.9.9"] * 50}))
    out = ds.map_batches(IntervalEnrich,
                         fn_constructor_kwargs={"table_ref": ref,
                                                "ip_column": "ip",
                                                "out_column": "net"},
                         batch_format="pyarrow", batch_size=32,
                         concurrency=2).to_pandas()
    got = dict(zip(out["ip"], out["net"]))
    assert got == {"10.1.2.3": "private", "8.8.8.8": None,
                   "203.0.113.9": "testnet", "10.9.9.9": "private"}
