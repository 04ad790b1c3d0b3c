"""Envelope readers (S2/S6/S9/S14) + user-agent parse (T4) + stats (A3)."""

import bz2
import gzip
import io
import zipfile

import pyarrow as pa

from siem_on_amazon_opensearch_service_ray.sources import envelopes
from siem_on_amazon_opensearch_service_ray.stages.useragent import (
    UserAgentEnrich, parse_user_agent)


def test_sniff_and_decompress_roundtrip():
    payload = b"line one\nline two\n" + b"x" * 50
    assert envelopes.sniff_mime(gzip.compress(payload)[:8]) == "gzip"
    assert envelopes.decompress(gzip.compress(payload)) == payload
    assert envelopes.decompress(bz2.compress(payload)) == payload
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("a.log", payload)
    assert envelopes.decompress(buf.getvalue()) == payload
    # double archive: gzip inside zip
    buf2 = io.BytesIO()
    with zipfile.ZipFile(buf2, "w") as z:
        z.writestr("a.log.gz", gzip.compress(payload))
    assert envelopes.decompress(buf2.getvalue()) == payload


def test_decompress_lines_stage():
    payload = b"header\nA\nB\n"
    batch = pa.table({"bytes": [gzip.compress(payload), b"tiny"],
                      "path": ["a.gz", "b"]})
    out = envelopes.DecompressLines(header_lines=1)(batch)
    # second file < 20 bytes -> skipped (reference size guard)
    assert out.column("line").to_pylist() == ["A", "B"]
    assert out.column("path").to_pylist() == ["a.gz", "a.gz"]


def test_csv_header_sanitize():
    assert envelopes.sanitize_csv_headers(["a-b", " c-d ", "e"]) == \
        ["a_b", "c_d", "e"]


WIN_XML = (b"junk<Event xmlns='http://schemas.microsoft.com/win/2004/08/"
           b"events/event'><System><EventID Qualifiers='16384'>4624"
           b"</EventID><Computer>host1</Computer>"
           b"<TimeCreated SystemTime='2024-05-01T00:00:00Z'/></System>"
           b"<EventData><Data Name='TargetUserName'>alice</Data>"
           b"</EventData></Event>trailing")


def test_win_event_parse():
    events = envelopes.split_win_events(WIN_XML)
    assert len(events) == 1
    d = envelopes.parse_win_event(events[0])
    assert d["event_id"] == "4624"
    assert d["computer"] == "host1"
    assert d["time_created"] == "2024-05-01T00:00:00Z"
    assert d["data_TargetUserName"] == "alice"


def test_eventbridge_strip():
    obj = {"id": "1", "account": "123", "detail-type": "X",
           "detail": {"action": "login", "user": "bob"}}
    out = envelopes.strip_eventbridge(obj)
    assert out["action"] == "login" and out["cwe_account"] == "123"


def test_user_agent_parse():
    chrome = ("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
              "(KHTML, like Gecko) Chrome/120.0.0.0 Safari/537.36")
    d = parse_user_agent(chrome)
    assert d["ua_name"] == "Chrome" and d["ua_version"] == "120"
    assert d["ua_os"] == "Windows" and d["ua_device"] == "Desktop"
    assert parse_user_agent("curl/8.1.2")["ua_name"] == "curl"
    bot = parse_user_agent("Mozilla/5.0 (compatible; Googlebot/2.1)")
    assert bot["ua_device"] == "Bot"
    assert parse_user_agent("")["ua_name"] == "Other"


def test_user_agent_stage_and_cache():
    st = UserAgentEnrich("ua")
    out = st(pa.table({"ua": ["curl/8.1.2", "curl/8.1.2", None]}))
    assert out.column("ua_name").to_pylist() == ["curl", "curl", "Other"]
    assert len(st._cache) == 2


def test_index_stats(ray_session, small_corpus, tmp_path):
    from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
        IndexConfig, build_index)
    from siem_on_amazon_opensearch_service_ray.state.stats import (
        build_summary, docstore_stats, index_stats)
    idx = str(tmp_path / "idx")
    build_index(small_corpus, idx, IndexConfig(num_partitions=4))
    st = index_stats(idx)
    assert len(st) == 4 and st["n_postings"].sum() > 0
    ds = docstore_stats(idx)
    assert ds["rows"].sum() > 1000
    summary = build_summary(idx)
    assert summary["n_docs"] == ds["rows"].sum()
    assert summary["n_postings"] == st["n_postings"].sum()


# --- S8 generic XML reader -------------------------------------------------

def test_xml_to_dict_shapes():
    from siem_on_amazon_opensearch_service_ray.sources.readers import xml_to_dict
    d = xml_to_dict(
        '<Event xmlns="http://x"><System><EventID Qualifiers="0">4624'
        '</EventID><Level>0</Level></System></Event>')
    assert d["Event"]["System"]["EventID"]["#text"] == "4624"
    assert d["Event"]["System"]["EventID"]["@Qualifiers"] == "0"
    assert d["Event"]["System"]["Level"] == "0"


def test_xml_multiline_reader():
    import json as _json
    import pyarrow as pa
    from siem_on_amazon_opensearch_service_ray.sources.readers import XmlMultilineReader
    raw = ("<Event xmlns='http://x'>\n  <A>1</A>\n</Event>\n"
           "<Event xmlns='http://x'>\n  <A>2</A>\n</Event>\n"
           "<Event xmlns='http://x'>\n  <A>broken\n").encode()
    batch = pa.table({"bytes": pa.array([raw], pa.large_binary()),
                      "path": ["f.xml"]})
    out = XmlMultilineReader()(batch)
    assert out.num_rows == 3
    parsed = out.column("record_json").to_pylist()
    assert _json.loads(parsed[0])["Event"]["A"] == "1"
    assert _json.loads(parsed[1])["Event"]["A"] == "2"
    assert parsed[2] is None
    assert out.column("parse_error").to_pylist()[2].startswith("parse_error")


# --- S13 Firelens + M7 cloud context ---------------------------------------

def test_firelens_reader_meta_and_stderr():
    import json as _json
    import pyarrow as pa
    from siem_on_amazon_opensearch_service_ray.sources.readers import FirelensReader
    lines = [
        _json.dumps({"container_id": "c1", "container_name": "app",
                     "source": "stdout", "ecs_cluster": "prod",
                     "ecs_task_arn":
                         "arn:aws:ecs:us-east-1:111122223333:task/prod/t1",
                     "ecs_task_definition": "app:3",
                     "log": '{"msg": "hello"}'}),
        _json.dumps({"container_id": "c2", "container_name": "app",
                     "source": "stderr", "log": "panic!"}),
        "not json at all",
    ]
    batch = pa.table({"text": pa.array(lines, pa.string())})
    out = FirelensReader(ignore_stderr=True)(batch).to_pylist()
    r0 = out[0]
    assert r0["cloud.region"] == "us-east-1"
    assert r0["cloud.account.id"] == "111122223333"
    assert r0["container.id"] == "c1" and r0["container.name"] == "app"
    assert r0["log"] == '{"msg": "hello"}'
    r1 = out[1]
    assert r1["is_ignored"] and "stderr" in r1["ignored_reason"]
    r2 = out[2]
    assert r2["__skip_normalization"] and r2["log"] == "not json at all"
