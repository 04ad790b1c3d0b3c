"""Index statistics export (SURVEY.md A3).

The reference ships an index_metrics_exporter Lambda that polls
``_cat/indices``-style per-index docs/bytes metrics into a metrics
index (reference: source/lambda/index_metrics_exporter/index.py:52-180).
Our equivalent reads the per-partition build manifests + segment
parquet metadata — no cluster API needed; the numbers were recorded at
build time (lineage requirement of the north_rule).
"""

from __future__ import annotations

import json
import os

import pandas as pd


def index_stats(index_dir: str) -> pd.DataFrame:
    """Per-partition stats table: part, n_segments, n_terms,
    n_postings, bytes — the engine's ``_cat/indices``."""
    mdir = os.path.join(index_dir, "manifest")
    rows: dict[int, dict] = {}
    for fn in sorted(os.listdir(mdir)):
        if not fn.startswith("seg-") or not fn.endswith(".json"):
            continue
        with open(os.path.join(mdir, fn)) as f:
            m = json.load(f)
        r = rows.setdefault(m["part"], {
            "part": m["part"], "n_segments": 0, "n_terms": 0,
            "n_postings": 0, "bytes": 0})
        r["n_segments"] += 1
        r["n_terms"] += m["n_terms"]
        r["n_postings"] += m["n_postings"]
        r["bytes"] += m["bytes"]
    return pd.DataFrame(sorted(rows.values(), key=lambda r: r["part"]))


def docstore_stats(index_dir: str) -> pd.DataFrame:
    mdir = os.path.join(index_dir, "manifest")
    rows = []
    for fn in sorted(os.listdir(mdir)):
        if fn.startswith("docstore-") and fn.endswith(".json"):
            with open(os.path.join(mdir, fn)) as f:
                m = json.load(f)
            rows.append({"path": m["path"], "rows": m["rows"],
                         "bytes": m.get("bytes", 0),
                         "sha_xor_hi64": m["sha_xor_hi64"]})
    return pd.DataFrame(rows)


def build_summary(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "INDEX_MANIFEST.json")) as f:
        man = json.load(f)
    seg = index_stats(index_dir)
    return {
        "n_docs": man["stats"]["n_docs"],
        "avgdl": man["stats"]["avgdl"],
        "n_partitions": int(len(seg)),
        "n_segments": int(seg["n_segments"].sum()) if len(seg) else 0,
        "n_terms": int(seg["n_terms"].sum()) if len(seg) else 0,
        "n_postings": int(seg["n_postings"].sum()) if len(seg) else 0,
        "index_bytes": int(seg["bytes"].sum()) if len(seg) else 0,
        "build_wall_sec": man["metrics"].get("build_wall_sec"),
        "fingerprint": man["fingerprint"],
    }


def get_mapping(index_dir: str) -> dict:
    """``GET /<index>/_mapping`` — the OpenSearch mapping document
    derived from the build config: analyzed fields map to ``text``
    (with their analyzer), keyword_fields to ``keyword``, range_fields
    to ``double`` (the engine's numeric range-table encoding),
    vector_fields to ``knn_vector`` with their dimension.  The
    reference declares the same split in its component templates
    (deploy_es/command_index.txt: dynamic string->keyword, curated
    text list); here the mapping IS the config, exported back in
    OpenSearch shape."""
    with open(os.path.join(index_dir, "INDEX_MANIFEST.json")) as f:
        man = json.load(f)
    cfg = man["config"]
    props: dict = {}
    for fname, _src, analyzer in cfg.get("fields", ()):
        props[fname] = {"type": "text", "analyzer": analyzer}
    for kf in cfg.get("keyword_fields", ()):
        props[kf] = {"type": "keyword"}
    for rf in cfg.get("range_fields", ()):
        props[rf] = {"type": "double"}
    for spec in cfg.get("vector_fields", ()) or ():
        vname, dim = (spec[0], spec[1]) if isinstance(
            spec, (list, tuple)) else (spec, None)
        props[vname] = {"type": "knn_vector",
                        **({"dimension": int(dim)}
                           if dim is not None else {})}
    name = os.path.basename(os.path.normpath(index_dir))
    return {name: {"mappings": {"properties": props}}}


def get_settings(index_dir: str) -> dict:
    """``GET /<index>/_settings`` — number_of_shards = the partition
    count, plus the engine-level build knobs OpenSearch would keep in
    index settings (positions/doclens/source storage)."""
    with open(os.path.join(index_dir, "INDEX_MANIFEST.json")) as f:
        man = json.load(f)
    cfg = man["config"]
    name = os.path.basename(os.path.normpath(index_dir))
    return {name: {"settings": {"index": {
        "number_of_shards": int(cfg["num_partitions"]),
        "number_of_replicas": 0,
        "store_positions": bool(cfg.get("store_positions", False)),
        "store_doclens": bool(cfg.get("store_doclens", False)),
        "store_source": bool(cfg.get("store_source", False)),
        "uuid": man["fingerprint"],
    }}}}
