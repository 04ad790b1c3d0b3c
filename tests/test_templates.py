"""Template-driven field classification (pipelines/templates.py):
parse a console file in the reference's command_index.txt format
(tests/fixtures/command_index.txt, hand-written), resolve an index
name through composed_of the way OpenSearch does, classify columns,
and build+query an index from the derived IndexConfig."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    build_index)
from siem_on_amazon_opensearch_service_ray.pipelines.templates import (
    TemplateStore, classify_columns, coerce_batch,
    index_config_from_template, parse_console_commands)
from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher

FIXTURE_TEMPLATES = os.path.join(os.path.dirname(__file__), "fixtures",
                                 "command_index.txt")
# the full reference file, when present, adds the whole-corpus checks
REF_TEMPLATES = "/root/reference/source/lambda/deploy_es/command_index.txt"


@pytest.fixture(scope="module")
def store():
    return TemplateStore.from_console(open(FIXTURE_TEMPLATES).read())


def test_parse_reference_console_file(store):
    # every PUT block in the console file parses
    text = open(FIXTURE_TEMPLATES).read()
    cmds = parse_console_commands(text)
    assert len(cmds) == sum(1 for line in text.splitlines()
                            if line.startswith("PUT "))
    assert "component_template_log" in store.components
    assert "log-aws-cloudtrail_aws" in store.index_templates
    # repeated PUT of component_template_log-aws: last write wins
    props = store.components["component_template_log-aws"][
        "template"]["mappings"]["properties"]
    assert props["cloud.region"] == {"type": "keyword"}


@pytest.mark.skipif(not os.path.exists(REF_TEMPLATES),
                    reason="full reference command_index.txt absent")
def test_parse_full_reference_console_file():
    cmds = parse_console_commands(open(REF_TEMPLATES).read())
    assert len(cmds) > 50
    store = TemplateStore.from_console(open(REF_TEMPLATES).read())
    assert "component_template_log" in store.components
    assert "log-aws-cloudtrail_aws" in store.index_templates


def test_template_selection_by_priority(store):
    # cloudtrail index matches log-*, log-aws-* AND the cloudtrail
    # template — highest priority wins (OpenSearch's rule)
    assert store.template_for("log-aws-cloudtrail-2026-01") == \
        "log-aws-cloudtrail_aws"
    assert store.template_for("log-linux-secure-2026-01") == \
        "log-linux_aws"
    assert store.template_for("no-such-index") is None


def test_resolution_and_classification_verbatim(store):
    """Classify an ECS-ish column set under the VERBATIM cloudtrail
    resolution: curated text fields, explicit keywords, numeric ->
    range, geo_point structural, dynamic string -> keyword
    (command_index.txt:12-17), ignore_malformed on (:7)."""
    resolved = store.resolve("log-aws-cloudtrail-2026-01")
    props = resolved["mappings"]["properties"]
    assert props["@message"]["type"] == "text"
    cl = classify_columns(resolved, {
        "@message": "string",            # curated text :23
        "event.outcome": "string",       # explicit keyword
        "destination.bytes": "int64",    # explicit long -> range
        "destination.geo.location": "string",   # geo_point -> skipped
        "eventName": "string",           # NOT in properties -> dynamic
        "my.custom.metric": "float64",   # dynamic numeric -> range
        "user_agent.original": "string",  # keyword + fields.text
    })
    assert "@message" in cl.text_fields
    assert "event.outcome" in cl.keyword_fields
    assert "destination.bytes" in cl.range_fields
    assert cl.skipped["destination.geo.location"] == "geo_point"
    # the dynamic string->keyword rule is the reference's ONE dynamic
    # template — an unmapped string column becomes a keyword
    assert "eventName" in cl.keyword_fields
    assert "my.custom.metric" in cl.range_fields
    # multi-field: keyword AND analyzed text
    assert "user_agent.original" in cl.keyword_fields
    assert "user_agent.original" in cl.text_fields
    assert cl.ignore_malformed is True


def test_build_and_query_from_template(store, ray_session,
                                       tmp_path_factory):
    """An index built from the template-derived IndexConfig answers
    text search on the curated text field and keyword filters on a
    dynamically-classified string column."""
    root = tmp_path_factory.mktemp("tmpl")
    n = 60
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "@message": [f"user {'alice' if i % 3 else 'bob'} logged in"
                     for i in range(n)],
        "event.outcome": [["success", "failure"][i % 2]
                          for i in range(n)],
        "eventName": [f"ev{i % 4}" for i in range(n)],
        "destination.bytes": pa.array([i * 10 for i in range(n)],
                                      pa.int64()),
    })
    src = str(root / "d.parquet")
    pq.write_table(t, src)
    cfg, cl = index_config_from_template(
        store, "log-aws-cloudtrail-2026-01",
        {c: str(t.schema.field(c).type) for c in t.column_names
         if c != "doc_id"},
        doc_id_col="doc_id", num_partitions=2)
    assert cfg.sha_col == "@message"
    idx = str(root / "idx")
    build_index([src], idx, cfg)
    s = Searcher(idx, use_actors=False)
    try:
        hits = s.search("bob", field="@message", k=50)
        assert {d for _, d in hits} == {i for i in range(n) if i % 3 == 0}
        hits = s.search("logged", field="@message", k=100,
                        filter_field="event.outcome",
                        filter_value="failure")
        assert {d for _, d in hits} == {i for i in range(n) if i % 2}
        # dynamically-classified keyword + template range field
        hits = s.search("logged", field="@message", k=100,
                        filter_field="eventName", filter_value="ev1",
                        range_field="destination.bytes",
                        range_lo=100, range_hi=300)
        assert {d for _, d in hits} == \
            {i for i in range(n) if i % 4 == 1 and 100 <= i * 10 <= 300}
    finally:
        s.close()


def test_coerce_batch_ignore_malformed(store):
    resolved = store.resolve("log-aws-cloudtrail-2026-01")
    cl = classify_columns(resolved, {"destination.bytes": "string",
                                     "@message": "string"})
    b = pa.table({"destination.bytes": ["10", "x,y", " 3.5 ", None],
                  "@message": ["a", "b", "c", "d"]})
    out = coerce_batch(b, cl)
    assert out.column("destination.bytes").to_pylist() == \
        [10.0, None, 3.5, None]
    # without the flag, malformed raises
    cl.ignore_malformed = False
    with pytest.raises(Exception):
        coerce_batch(b, cl)


def test_index_template_requires_text_field(store):
    with pytest.raises(ValueError, match="no text field"):
        index_config_from_template(store, "log-aws-cloudtrail-2026-01",
                                   {"event.outcome": "string"})
