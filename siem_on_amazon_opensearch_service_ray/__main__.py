"""CLI: the engine's local batch entry point (reference parity:
``python index.py -b bucket -l list`` local backfill,
reference index.py:756-795 — embarrassingly parallel over files with
file-granularity retry; here Ray Data supplies the parallelism and the
per-partition manifests supply the resume).

Usage:
  python -m siem_on_amazon_opensearch_service_ray build  <corpus_dir> <index_dir> [--partitions P] [--no-resume]
  python -m siem_on_amazon_opensearch_service_ray search <index_dir> <query> [--k K] [--mode or|and] [--field F] [--fetch]
      [--type term|bool|phrase|phrase-prefix|prefix|wildcard|fuzzy|span|span-expr]
      (span-expr: <query> is a JSON span expression — span_term/span_near/
       span_or/span_first/span_not, arbitrarily nested)
      [--must C]... [--should C]... [--must-not C]... [--msm N]
      [--slop N] [--fuzziness N] [--max-expansions N]
      [--filter FIELD=VALUE] [--range FIELD:LO:HI]
      [--search-after SCORE,DOC_ID]
  python -m siem_on_amazon_opensearch_service_ray agg    <index_dir> <query> --agg terms|cardinality|histogram|stats|sigterms
      --agg-field F [--interval N] [--quantiles 0.5,0.9] [--tdigest]
  python -m siem_on_amazon_opensearch_service_ray stats  <index_dir>
  python -m siem_on_amazon_opensearch_service_ray extend  <corpus_dir> <index_dir>
  python -m siem_on_amazon_opensearch_service_ray compact <index_dir>
  python -m siem_on_amazon_opensearch_service_ray delete  <index_dir> <doc_id> [...]
  python -m siem_on_amazon_opensearch_service_ray decontam <corpus> <benchmark> <out> [--ngram N]
  python -m siem_on_amazon_opensearch_service_ray pack     <corpus> <out> [--budget N]
  python -m siem_on_amazon_opensearch_service_ray sample   <corpus> <out> --rates '{"en":60,...}'
  python -m siem_on_amazon_opensearch_service_ray query    <index_dir> '<json body>'|@file.json [--scroll [--max-pages N]]
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="siem_on_amazon_opensearch_service_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("corpus_dir")
    b.add_argument("index_dir")
    b.add_argument("--partitions", type=int, default=16)
    b.add_argument("--positions", action="store_true",
                   help="store term positions (phrase/span queries)")
    b.add_argument("--store-source", action="store_true",
                   help="keep the source text in the docstore "
                        "(enables reindex / update-by-query)")
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--num-cpus", type=int, default=None)
    b.add_argument("--text-field", action="append", default=[],
                   metavar="NAME:COLUMN[:ANALYZER]",
                   help="indexed text field (repeatable; replaces the "
                        "code-corpus defaults)")
    b.add_argument("--keyword-field", action="append", default=[],
                   metavar="COLUMN",
                   help="keyword filter field (repeatable; replaces "
                        "defaults when any --text-field is given)")
    b.add_argument("--range-field", action="append", default=[],
                   metavar="COLUMN",
                   help="numeric range field (repeatable)")
    b.add_argument("--doc-id-col", default=None,
                   help="explicit int64 doc-id column")
    b.add_argument("--sha-col", default=None,
                   help="column whose sha256 is the e2e invariant "
                        "(defaults to the first text field's column)")

    s = sub.add_parser("search")
    s.add_argument("index_dir")
    s.add_argument("--pattern", default=None,
                   help="treat index_dir as a ROOT of indexes and "
                        "search federated across the alias / glob "
                        "pattern / index named here (term queries)")
    s.add_argument("query", nargs="?", default=None,
                   help="query string (omit for --type bool)")
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--mode", default="or", choices=["or", "and"])
    s.add_argument("--field", default="content")
    s.add_argument("--type", dest="qtype", default="term",
                   choices=["term", "bool", "phrase", "phrase-prefix",
                            "bool-prefix",
                            "prefix", "wildcard", "fuzzy", "span",
                            "span-expr", "qs", "constant-score",
                            "boosting", "function-score", "collapse",
                            "terms-set", "script-score",
                            "distance-feature", "rank-feature",
                            "exists", "ids", "pinned", "simple-qs"])
    s.add_argument("--default-operator", default="or",
                   choices=["or", "and"],
                   help="simple-qs: occurrence of bare terms")
    s.add_argument("--feature-fn", default="saturation",
                   choices=["saturation", "log", "sigmoid"],
                   help="rank-feature curve")
    s.add_argument("--ids", default="",
                   help="comma-separated doc ids (ids / pinned)")
    s.add_argument("--script-expr", default=None,
                   help="script-score: arithmetic expression over "
                        "_score and --script-field names")
    s.add_argument("--script-field", action="append", default=[],
                   help="script-score: numeric field(s) the expression "
                        "reads (repeatable)")
    s.add_argument("--feature-field", default=None,
                   help="distance-feature: the numeric field")
    s.add_argument("--origin-value", type=float, default=0.0)
    s.add_argument("--pivot", type=float, default=1.0)
    s.add_argument("--must", action="append", default=[])
    s.add_argument("--should", action="append", default=[])
    s.add_argument("--must-not", action="append", default=[])
    s.add_argument("--msm", type=int, default=None,
                   help="minimum_should_match (bool queries)")
    s.add_argument("--msm-field", default=None,
                   help="terms-set: numeric field holding each doc's "
                        "own minimum_should_match")
    s.add_argument("--slop", type=int, default=0,
                   help="phrase/span slop")
    s.add_argument("--fuzziness", type=int, default=1)
    s.add_argument("--transpositions", action="store_true",
                   help="fuzzy: adjacent swap counts as one edit "
                        "(unrestricted Damerau, OpenSearch's default)")
    s.add_argument("--max-expansions", type=int, default=50)
    s.add_argument("--filter", default=None, metavar="FIELD=VALUE")
    s.add_argument("--range", dest="range_", default=None,
                   metavar="FIELD:LO:HI")
    s.add_argument("--search-after", default=None, metavar="SCORE,DOC_ID",
                   help="previous page's last hit (deep paging)")
    s.add_argument("--boost", type=float, default=1.0,
                   help="constant-score: the fixed score per hit")
    s.add_argument("--negative", default=None,
                   help="boosting: the demotion clause text")
    s.add_argument("--negative-boost", type=float, default=0.5)
    s.add_argument("--value-field", default=None,
                   help="function-score: numeric field for "
                        "field_value_factor")
    s.add_argument("--factor", type=float, default=1.0)
    s.add_argument("--modifier", default="none",
                   choices=["none", "log1p", "sqrt"])
    s.add_argument("--boost-mode", default="multiply",
                   choices=["multiply", "sum", "avg", "min", "max",
                            "replace"])
    s.add_argument("--collapse-field", default=None,
                   help="collapse: keep the best hit per value of this "
                        "keyword field")
    s.add_argument("--fetch", action="store_true",
                   help="fetch docstore metadata for the hits")
    s.add_argument("--num-cpus", type=int, default=None)

    ag = sub.add_parser("agg")
    ag.add_argument("index_dir")
    ag.add_argument("query")
    ag.add_argument("--agg", required=True,
                    choices=["terms", "rare", "cardinality", "histogram",
                             "stats", "sigterms", "sig_text", "ranks",
                             "ip_range", "ip_prefix", "date_range",
                             "weighted_avg",
                             "matrix_stats", "multi_terms",
                             "geo_distance", "sampler", "geotile",
                             "geo_bounds", "boxplot", "string_stats",
                             "t_test", "geohash", "scripted"])
    ag.add_argument("--map-expr", default=None,
                    help="scripted: arithmetic map expression over "
                         "--metric-field names")
    ag.add_argument("--reduce-expr", default="state",
                    help="scripted: reduce over state/count")
    ag.add_argument("--metric-field", action="append", default=[],
                    help="scripted: numeric field(s) the map "
                         "expression reads (repeatable)")
    ag.add_argument("--t-test-type", default="paired",
                    choices=["paired", "heteroscedastic"])
    ag.add_argument("--prefix-length", type=int, default=24,
                    help="ip_prefix: network prefix bits (default 24)")
    ag.add_argument("--precision", type=int, default=7,
                    help="geotile zoom level (tiles are z/x/y keys)")
    ag.add_argument("--origin", default="0,0", metavar="LAT,LON",
                    help="geo_distance ring origin")
    ag.add_argument("--shard-size", type=int, default=100,
                    help="sampler: best-scoring docs kept per shard")
    ag.add_argument("--diversify-field", default=None,
                    help="diversified_sampler: keyword field to "
                         "de-duplicate the sample on")
    ag.add_argument("--max-per-value", type=int, default=1,
                    help="diversified_sampler: sample docs allowed per "
                         "diversify-field value")
    ag.add_argument("--values", default="",
                    help="comma-separated probes (--agg ranks)")
    ag.add_argument("--ranges", default="",
                    help="comma-separated lo|hi buckets ('*' = open end; "
                         "bare CIDR allowed for --agg ip_range)")
    ag.add_argument("--max-doc-count", type=int, default=1,
                    help="rare_terms threshold (--agg rare)")
    ag.add_argument("--agg-field", default=None,
                    help="bucket/metric field (required for every "
                         "--agg except scripted)")
    ag.add_argument("--agg-field2", default=None,
                    help="second field: the weight (--agg "
                         "weighted_avg) or matrix partner (--agg "
                         "matrix_stats)")
    ag.add_argument("--mode", default="or", choices=["or", "and"])
    ag.add_argument("--field", default="content")
    ag.add_argument("--interval", type=float, default=100.0)
    ag.add_argument("--quantiles", default="",
                    help="comma-separated, e.g. 0.5,0.9,0.99")
    ag.add_argument("--tdigest", action="store_true",
                    help="approximate quantiles via t-digest partials")
    ag.add_argument("--k", type=int, default=10)
    ag.add_argument("--num-cpus", type=int, default=None)

    dq = sub.add_parser("query", help="execute an OpenSearch JSON "
                                      "_search request body")
    dq.add_argument("index_dir")
    dq.add_argument("body", help="JSON request body, or @file.json")
    dq.add_argument("--scroll", action="store_true",
                    help="open a scroll and drain it: one JSON line "
                         "per page (stateless search_after cursor)")
    dq.add_argument("--max-pages", type=int, default=0,
                    help="with --scroll: stop after N pages (0 = all)")
    dq.add_argument("--params", default=None,
                    help="JSON params: treat body as a mustache "
                         "_search/template source and render first")
    dq.add_argument("--validate", action="store_true",
                    help="_validate/query: probe the body instead of "
                         "returning hits")
    dq.add_argument("--num-cpus", type=int, default=None)

    fc = sub.add_parser("field-caps", help="_field_caps: per-field "
                        "type/searchable/aggregatable from the "
                        "manifest")
    fc.add_argument("index_dir")
    fc.add_argument("fields", nargs="*",
                    help="optional field name patterns (* wildcards)")

    sg = sub.add_parser("suggest", help="term suggester (did-you-mean)")
    sg.add_argument("index_dir")
    sg.add_argument("text")
    sg.add_argument("--field", default="content")
    sg.add_argument("--size", type=int, default=5)
    sg.add_argument("--max-edits", type=int, default=2)
    sg.add_argument("--mode", default="missing",
                    choices=["missing", "always"])
    sg.add_argument("--distance", default="levenshtein",
                    choices=["levenshtein", "damerau_levenshtein"])
    sg.add_argument("--phrase", action="store_true",
                    help="collate per-token suggestions into corrected "
                         "phrases")
    sg.add_argument("--completion", action="store_true",
                    help="prefix autocomplete: top completions by doc "
                         "frequency")
    sg.add_argument("--fuzziness", type=int, default=0,
                    help="completion: allow this many edits in the "
                         "typed prefix (fuzzy completion)")
    sg.add_argument("--prefix-length", type=int, default=1,
                    help="completion: literal prefix chars kept exact "
                         "under --fuzziness")
    sg.add_argument("--context", default=None, metavar="FIELD=VALUE",
                    help="completion: rank by doc frequency within "
                         "this keyword context (context suggester)")
    sg.add_argument("--num-cpus", type=int, default=None)

    ex = sub.add_parser("explain",
                        help="per-term BM25 score breakdown for one doc")
    ex.add_argument("index_dir")
    ex.add_argument("query")
    ex.add_argument("doc_id", type=int)
    ex.add_argument("--field", default="content")
    ex.add_argument("--num-cpus", type=int, default=None)

    st = sub.add_parser("stats")
    st.add_argument("index_dir")

    e = sub.add_parser("extend")
    e.add_argument("corpus_dir")
    e.add_argument("index_dir")
    e.add_argument("--num-cpus", type=int, default=None)

    c = sub.add_parser("compact")
    c.add_argument("index_dir")
    c.add_argument("--num-cpus", type=int, default=None)

    d = sub.add_parser("delete")
    d.add_argument("index_dir")
    d.add_argument("doc_ids", nargs="+", type=int)

    bk = sub.add_parser("bulk", help="OpenSearch _bulk NDJSON: "
                                     "index/create/delete actions")
    bk.add_argument("index_dir")
    bk.add_argument("ndjson", help="NDJSON file of action/source "
                                   "lines, or - for stdin")
    bk.add_argument("--num-cpus", type=int, default=None)

    dbq = sub.add_parser("delete-by-query",
                         help="tombstone every live doc matching a "
                              "match/term/range query body")
    dbq.add_argument("index_dir")
    dbq.add_argument("body", help="JSON query body, or @file.json")
    dbq.add_argument("--num-cpus", type=int, default=None)

    ci = sub.add_parser("cat-indices",
                        help="_cat/indices over a root of indexes: "
                             "live counts, sizes, aliases (metadata "
                             "only)")
    ci.add_argument("root")
    ci.add_argument("--pattern", default="*")

    ca = sub.add_parser("cat-aliases", help="_cat/aliases: one row "
                        "per (alias, index) pair")
    ca.add_argument("root")

    cc = sub.add_parser("cat-count", help="_cat/count: total live "
                        "docs across the pattern's indexes")
    cc.add_argument("root")
    cc.add_argument("--pattern", default="*")

    mp = sub.add_parser("mapping", help="GET _mapping (default) or "
                        "--settings for an index")
    mp.add_argument("index_dir")
    mp.add_argument("--settings", action="store_true")

    cs = sub.add_parser("cat-shards", help="_cat/shards: one row per "
                        "(index, partition) from build manifests")
    cs.add_argument("root")
    cs.add_argument("--pattern", default="*")

    rx = sub.add_parser("resolve-index", help="_resolve/index: which "
                        "indexes + aliases an expression names")
    rx.add_argument("root")
    rx.add_argument("expression", nargs="?", default="*")

    ch = sub.add_parser("cluster-health", help="_cluster/health over "
                        "a root of indexes")
    ch.add_argument("root")

    cl = sub.add_parser("clone", help="_clone: verified copy of an "
                        "index to a new directory")
    cl.add_argument("index_dir")
    cl.add_argument("dest_dir")

    sn = sub.add_parser("snapshot", help="_snapshot: create/restore/"
                        "status over a repository directory")
    sn.add_argument("action", choices=["create", "restore", "status"])
    sn.add_argument("repo_dir")
    sn.add_argument("name", nargs="?")
    sn.add_argument("path", nargs="?",
                    help="create: the index dir; restore: the "
                         "destination dir")

    al = sub.add_parser("aliases",
                        help="OpenSearch _aliases: GET the registry "
                             "or POST add/remove actions over a root "
                             "directory of indexes")
    al.add_argument("root")
    al.add_argument("body", nargs="?", default=None,
                    help="JSON {actions:[...]} or @file.json; omit "
                         "to print the registry")

    pt = sub.add_parser("pit", help="point-in-time contexts: 'open' "
                        "prints the id; pass {'pit': {'id': …}} in a "
                        "query body to search under it; 'close' frees")
    pt.add_argument("action", choices=["open", "close"])
    pt.add_argument("index_dir")
    pt.add_argument("pit_id", nargs="?")

    ubq = sub.add_parser("update-by-query",
                         help="rewrite a scripted field on every doc "
                              "matching a query (delete -> compact -> "
                              "extend upsert flow)")
    ubq.add_argument("index_dir")
    ubq.add_argument("body", help="JSON {query, script} body, or "
                                  "@file.json")
    ubq.add_argument("--num-cpus", type=int, default=None)

    ri = sub.add_parser("reindex",
                        help="_reindex: copy the docs matching a "
                             "query from a store_source index into a "
                             "destination index (op_type:index "
                             "overwrite; replay-convergent)")
    ri.add_argument("src_index_dir")
    ri.add_argument("dest_index_dir")
    ri.add_argument("--body", default=None,
                    help="JSON {source: {query: ...}} body, or "
                         "@file.json (default: match_all)")
    ri.add_argument("--num-cpus", type=int, default=None)

    for _nm, _hp in (("split", "_split: re-shard to MORE partitions "
                               "(a multiple of the source's)"),
                     ("shrink", "_shrink: re-shard to FEWER "
                                "partitions (a factor of the "
                                "source's)")):
        sp = sub.add_parser(_nm, help=_hp)
        sp.add_argument("index_dir")
        sp.add_argument("out_dir")
        sp.add_argument("shards", type=int)

    dc = sub.add_parser("decontam",
                        help="flag docs sharing n-grams with a benchmark")
    dc.add_argument("corpus", help="parquet file/dir with text docs")
    dc.add_argument("benchmark", help="parquet file/dir (the eval set)")
    dc.add_argument("out", help="output parquet path")
    dc.add_argument("--text-col", default="text")
    dc.add_argument("--id-col", default="doc_id")
    dc.add_argument("--ngram", type=int, default=5)
    dc.add_argument("--num-cpus", type=int, default=None)

    cu = sub.add_parser("curate",
                        help="end-to-end curation chain: exact dedup "
                             "-> quality/repetition gate -> duplicated-"
                             "n-gram exposure filter")
    cu.add_argument("corpus", help="parquet file/dir with text docs")
    cu.add_argument("out", help="output parquet path (survivors + "
                                "signal columns)")
    cu.add_argument("--text-col", default="text")
    cu.add_argument("--id-col", default="doc_id")
    cu.add_argument("--min-tokens", type=int, default=20)
    cu.add_argument("--max-top2-e6", type=int, default=90000)
    cu.add_argument("--max-dup3-e6", type=int, default=200000)
    cu.add_argument("--max-dup-cover", default="1/5",
                    help="duplicated-5-gram position coverage bound "
                         "as NUM/DEN (strictly below survives)")
    cu.add_argument("--ngram", type=int, default=5)
    cu.add_argument("--num-cpus", type=int, default=None)

    pk = sub.add_parser("pack",
                        help="pack docs into fixed token-budget sequences")
    pk.add_argument("corpus")
    pk.add_argument("out")
    pk.add_argument("--budget", type=int, default=2048)
    pk.add_argument("--text-col", default="text")
    pk.add_argument("--id-col", default="doc_id")
    pk.add_argument("--num-cpus", type=int, default=None)

    sm = sub.add_parser("sample",
                        help="deterministic mixture sampling by key rates")
    sm.add_argument("corpus")
    sm.add_argument("out")
    sm.add_argument("--rates", required=True,
                    help='JSON dict of key -> integer percent, e.g. '
                         '\'{"en": 60, "de": 250}\'')
    sm.add_argument("--key-col", default="lang")
    sm.add_argument("--id-col", default="doc_id")
    sm.add_argument("--default", type=int, default=100)
    sm.add_argument("--hash-mod", action="store_true")
    sm.add_argument("--num-cpus", type=int, default=None)

    sh = sub.add_parser("shards", help="training-prep terminal write: "
                        "deterministic split + shard assignment -> "
                        "split=…/shard=… hive parquet (resumable)")
    sh.add_argument("source", help="parquet file/dir with an id column")
    sh.add_argument("out_dir")
    sh.add_argument("--id-col", default="doc_id")
    sh.add_argument("--fractions", default="train=0.9,val=0.05,test=0.05")
    sh.add_argument("--shards", type=int, default=4)
    sh.add_argument("--seed", type=int, default=0)
    sh.add_argument("--num-cpus", type=int, default=None)

    rt = sub.add_parser("retention",
                        help="delete routed partitions older than the "
                             "newest N periods per index family (ISM "
                             "delete-state parity)")
    rt.add_argument("out_dir")
    rt.add_argument("--keep", type=int, required=True)
    rt.add_argument("--family", default=None)
    rt.add_argument("--dry-run", action="store_true")

    ro = sub.add_parser("rollover",
                        help="split routed partitions larger than "
                             "--max-bytes into -rNNNN siblings "
                             "(rollover100gb ISM parity; renames only)")
    ro.add_argument("out_dir")
    ro.add_argument("--max-bytes", type=int, required=True)
    ro.add_argument("--dry-run", action="store_true")

    db = sub.add_parser("dashboard",
                        help="parse an OpenSearch-Dashboards ndjson "
                             "export and run its supported panels "
                             "against an index")
    db.add_argument("ndjson")
    db.add_argument("--index-dir", default=None,
                    help="execute panels against this index (omit to "
                         "only report the parse/support summary)")
    db.add_argument("--text-field", default="content")
    db.add_argument("--num-cpus", type=int, default=None)

    args = ap.parse_args(argv)

    if args.cmd == "dashboard":
        from .pipelines.dashboards import execute_panel, parse_saved_objects
        so = parse_saved_objects(open(args.ndjson).read())
        out = {"index_patterns": so.index_patterns,
               "dashboards": so.dashboards,
               "searches": [s["title"] for s in so.searches],
               "panels": []}
        searcher = None
        if args.index_dir:
            from .state.searcher import Searcher
            searcher = Searcher(args.index_dir, use_actors=False)
        try:
            for p in so.panels:
                row = {"title": p.title, "type": p.vis_type,
                       "supported": p.supported}
                if not p.supported:
                    row["reason"] = p.reason
                elif searcher is not None:
                    try:
                        row["rows"] = execute_panel(
                            searcher, p, text_field=args.text_field)[:20]
                    except ValueError as exc:
                        row["skipped"] = str(exc)
                out["panels"].append(row)
        finally:
            if searcher is not None:
                searcher.close()
        print(json.dumps(out, indent=2, default=str))
        return 0

    if args.cmd == "retention":
        from .pipelines.lifecycle import apply_retention
        print(json.dumps(apply_retention(
            args.out_dir, args.keep, family=args.family,
            dry_run=args.dry_run), indent=2))
        return 0

    if args.cmd == "rollover":
        from .pipelines.lifecycle import rollover_partitions
        print(json.dumps(rollover_partitions(
            args.out_dir, args.max_bytes, dry_run=args.dry_run), indent=2))
        return 0

    if args.cmd == "stats":
        from .state.stats import build_summary
        print(json.dumps(build_summary(args.index_dir), indent=2))
        return 0

    if args.cmd == "delete":
        from .pipelines.build_index import delete_docs
        n = delete_docs(args.index_dir, args.doc_ids)
        print(json.dumps({"tombstones": n}))
        return 0

    import ray
    if not ray.is_initialized():
        ncpu = getattr(args, "num_cpus", None)
        kw = {"num_cpus": ncpu} if ncpu else {}
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR", **kw)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    try:
        if args.cmd == "build":
            from .pipelines.build_index import IndexConfig, build_index
            overrides = {}
            if args.text_field:
                fields = []
                for spec in args.text_field:
                    parts = spec.split(":")
                    if len(parts) == 1:
                        parts = [parts[0], parts[0]]
                    name, column = parts[0], parts[1]
                    analyzer = parts[2] if len(parts) > 2 else "base"
                    fields.append((name, column, analyzer))
                overrides["fields"] = tuple(fields)
                overrides["keyword_fields"] = tuple(args.keyword_field)
                overrides["sha_col"] = args.sha_col or fields[0][1]
            elif args.keyword_field:
                overrides["keyword_fields"] = tuple(args.keyword_field)
            if args.range_field:
                overrides["range_fields"] = tuple(args.range_field)
            if args.doc_id_col:
                overrides["doc_id_col"] = args.doc_id_col
            if args.sha_col:
                overrides["sha_col"] = args.sha_col
            if args.store_source:
                overrides["store_source"] = True
            cfg = IndexConfig(num_partitions=args.partitions,
                              store_positions=args.positions, **overrides)
            man = build_index(args.corpus_dir, args.index_dir, cfg,
                              resume=not args.no_resume)
            print(json.dumps({"n_docs": man["stats"]["n_docs"],
                              "metrics": man["metrics"],
                              "fingerprint": man["fingerprint"]}, indent=2))
        elif args.cmd == "extend":
            from .pipelines.build_index import extend_index
            man = extend_index(args.corpus_dir, args.index_dir)
            print(json.dumps({"n_docs": man["stats"]["n_docs"],
                              "generations": list(man.get("generations", {}))},
                             indent=2))
        elif args.cmd == "bulk":
            import sys as _sys
            from .state.dsl import execute_bulk
            fh = _sys.stdin if args.ndjson == "-" else open(args.ndjson)
            try:
                lines = [json.loads(ln) for ln in fh if ln.strip()]
            finally:
                if fh is not _sys.stdin:
                    fh.close()
            print(json.dumps(execute_bulk(args.index_dir, lines),
                             indent=2))
        elif args.cmd == "delete-by-query":
            from .state.dsl import execute_delete_by_query
            from .state.searcher import Searcher
            raw = args.body
            if raw.startswith("@"):
                with open(raw[1:]) as f:
                    raw = f.read()
            searcher = Searcher(args.index_dir, use_actors=True)
            try:
                print(json.dumps(execute_delete_by_query(
                    searcher, json.loads(raw))))
            finally:
                searcher.close()
        elif args.cmd == "cat-indices":
            from .state.multisearch import cat_indices
            print(json.dumps(cat_indices(args.root, args.pattern),
                             indent=2))
        elif args.cmd == "cat-aliases":
            from .state.multisearch import cat_aliases
            print(json.dumps(cat_aliases(args.root), indent=2))
        elif args.cmd == "cat-count":
            from .state.multisearch import cat_count
            print(json.dumps(cat_count(args.root, args.pattern)))
        elif args.cmd == "mapping":
            from .state.stats import get_mapping, get_settings
            fn = get_settings if args.settings else get_mapping
            print(json.dumps(fn(args.index_dir), indent=2))
        elif args.cmd == "cat-shards":
            from .state.multisearch import cat_shards
            print(json.dumps(cat_shards(args.root, args.pattern),
                             indent=2))
        elif args.cmd == "resolve-index":
            from .state.multisearch import resolve_index
            print(json.dumps(resolve_index(args.root, args.expression),
                             indent=2))
        elif args.cmd == "cluster-health":
            from .state.multisearch import cluster_health
            print(json.dumps(cluster_health(args.root), indent=2))
        elif args.cmd == "clone":
            from .pipelines.lifecycle import clone_index
            print(json.dumps(clone_index(args.index_dir,
                                         args.dest_dir)))
        elif args.cmd == "snapshot":
            from .pipelines.lifecycle import (snapshot_create,
                                              snapshot_restore,
                                              snapshot_status)
            if args.action == "status":
                print(json.dumps(snapshot_status(args.repo_dir),
                                 indent=2))
            elif args.action == "create":
                if not (args.name and args.path):
                    raise SystemExit("snapshot create <repo> <name> "
                                     "<index_dir>")
                print(json.dumps(snapshot_create(args.path,
                                                 args.repo_dir,
                                                 args.name)))
            else:
                if not (args.name and args.path):
                    raise SystemExit("snapshot restore <repo> <name> "
                                     "<dest_dir>")
                print(json.dumps(snapshot_restore(args.repo_dir,
                                                  args.name,
                                                  args.path)))
        elif args.cmd == "aliases":
            from .state.multisearch import execute_aliases, get_aliases
            if args.body is None:
                print(json.dumps(get_aliases(args.root), indent=2,
                                 sort_keys=True))
            else:
                raw = args.body
                if raw.startswith("@"):
                    with open(raw[1:]) as f:
                        raw = f.read()
                print(json.dumps(execute_aliases(args.root,
                                                 json.loads(raw)),
                                 indent=2))
        elif args.cmd == "pit":
            from .state.pit import close_pit, open_pit
            if args.action == "open":
                print(json.dumps({"pit_id": open_pit(args.index_dir)}))
            else:
                if not args.pit_id:
                    raise SystemExit("pit close needs a pit id")
                print(json.dumps({
                    "succeeded": True,
                    "num_freed": int(close_pit(args.index_dir,
                                               args.pit_id))}))
        elif args.cmd == "update-by-query":
            from .state.dsl import execute_update_by_query
            raw = args.body
            if raw.startswith("@"):
                with open(raw[1:]) as f:
                    raw = f.read()
            print(json.dumps(execute_update_by_query(
                args.index_dir, json.loads(raw))))
        elif args.cmd == "reindex":
            from .state.dsl import execute_reindex
            raw = args.body
            if raw and raw.startswith("@"):
                with open(raw[1:]) as f:
                    raw = f.read()
            print(json.dumps(execute_reindex(
                args.src_index_dir, args.dest_index_dir,
                json.loads(raw) if raw else None)))
        elif args.cmd in ("split", "shrink"):
            from .pipelines.build_index import shrink_index, split_index
            fn = split_index if args.cmd == "split" else shrink_index
            man = fn(args.index_dir, args.out_dir, args.shards)
            print(json.dumps({"acknowledged": True,
                              "shards_acknowledged": True,
                              "n_docs": man["stats"]["n_docs"],
                              "num_partitions":
                                  man["config"]["num_partitions"]}))
        elif args.cmd == "compact":
            from .pipelines.build_index import compact_index
            man = compact_index(args.index_dir)
            print(json.dumps({"n_docs": man["stats"]["n_docs"],
                              "fingerprint": man["fingerprint"]}, indent=2))
        elif args.cmd == "agg":
            from .state.searcher import Searcher
            if args.agg != "scripted" and not args.agg_field:
                raise SystemExit(f"--agg {args.agg} needs --agg-field")
            searcher = Searcher(args.index_dir, use_actors=True)
            try:
                if args.agg == "terms":
                    res = searcher.terms_aggregation(
                        args.query, args.agg_field, args.field, args.mode)
                    res = [{"value": v, "count": n} for v, n in res]
                elif args.agg == "rare":
                    res = [{"value": v, "count": n} for v, n in
                           searcher.rare_terms_aggregation(
                               args.query, args.agg_field,
                               args.max_doc_count, args.field, args.mode)]
                elif args.agg == "cardinality":
                    res = {"n_values": searcher.cardinality_aggregation(
                        args.query, args.agg_field, args.field, args.mode)}
                elif args.agg == "histogram":
                    res = [{"bucket": b_, "count": n} for b_, n in
                           searcher.histogram_aggregation(
                               args.query, args.agg_field, args.interval,
                               args.field, args.mode)]
                elif args.agg == "sigterms":
                    res = [{"value": v, "fg_count": n, "score": round(sc, 6)}
                           for v, n, sc in searcher.significant_terms(
                               args.query, args.agg_field, args.field,
                               args.mode, args.k)]
                elif args.agg == "sig_text":
                    res = [{"term": t, "fg_count": n, "score": round(sc, 6)}
                           for t, n, sc in searcher.significant_text(
                               args.query, args.field,
                               text_field=args.agg_field, mode=args.mode,
                               k=args.k)]
                elif args.agg == "scripted":
                    if not args.map_expr or not args.metric_field:
                        raise SystemExit("--agg scripted needs "
                                         "--map-expr and --metric-field")
                    res = searcher.scripted_metric(
                        args.query, tuple(args.metric_field),
                        args.map_expr, args.reduce_expr,
                        args.field, args.mode)
                elif args.agg == "string_stats":
                    res = searcher.string_stats(
                        args.query, args.agg_field, args.field, args.mode)
                elif args.agg == "t_test":
                    if not args.agg_field2:
                        raise SystemExit("--agg t_test needs "
                                         "--agg-field2 (the b field)")
                    res = searcher.t_test(
                        args.query, args.agg_field, args.agg_field2,
                        args.field, args.mode,
                        test_type=args.t_test_type)
                elif args.agg == "geo_bounds":
                    if not args.agg_field2:
                        raise SystemExit("--agg geo_bounds needs "
                                         "--agg-field2 (the lon field)")
                    res = searcher.geo_bounds_aggregation(
                        args.query, args.agg_field, args.agg_field2,
                        args.field, args.mode)
                elif args.agg == "boxplot":
                    res = searcher.boxplot_aggregation(
                        args.query, args.agg_field, args.field, args.mode)
                elif args.agg in ("geotile", "geohash"):
                    if not args.agg_field2:
                        raise SystemExit(f"--agg {args.agg} needs "
                                         "--agg-field2 (the lon field)")
                    res = [{"tile": t, "count": n} for t, n in
                           searcher.geotile_grid_aggregation(
                               args.query, args.agg_field,
                               args.agg_field2,
                               precision=args.precision,
                               field=args.field, mode=args.mode,
                               size=args.k, scheme=args.agg)]
                elif args.agg == "sampler":
                    res = [{"value": v, "count": n} for v, n in
                           searcher.sampler_aggregation(
                               args.query, args.agg_field,
                               shard_size=args.shard_size,
                               field=args.field,
                               diversify_field=args.diversify_field,
                               max_docs_per_value=args.max_per_value)]
                elif args.agg == "multi_terms":
                    if not args.agg_field2:
                        raise SystemExit("--agg multi_terms needs "
                                         "--agg-field2")
                    res = [{"value_a": a_, "value_b": b_, "count": n}
                           for a_, b_, n in searcher.multi_terms_aggregation(
                               args.query, (args.agg_field, args.agg_field2),
                               args.field, args.mode)]
                elif args.agg == "geo_distance":
                    if not args.agg_field2:
                        raise SystemExit("--agg geo_distance needs "
                                         "--agg-field2 (the lon field)")
                    olat, _, olon = args.origin.partition(",")
                    rngs = []
                    for part in args.ranges.split(","):
                        part = part.strip()
                        if not part:
                            continue
                        lo, hi = part.split("|", 1)
                        rngs.append((None if lo == "*" else float(lo),
                                     None if hi == "*" else float(hi)))
                    res = [{"bucket": b_, "count": n} for b_, n in
                           searcher.geo_distance_aggregation(
                               args.query, args.agg_field, args.agg_field2,
                               (float(olat), float(olon or 0)), rngs,
                               args.field, args.mode)]
                elif args.agg in ("weighted_avg", "matrix_stats"):
                    if not args.agg_field2:
                        raise SystemExit(f"--agg {args.agg} needs "
                                         "--agg-field2")
                    if args.agg == "weighted_avg":
                        res = searcher.weighted_avg(
                            args.query, args.agg_field, args.agg_field2,
                            args.field, args.mode)
                    else:
                        res = searcher.matrix_stats(
                            args.query, (args.agg_field, args.agg_field2),
                            args.field, args.mode)
                elif args.agg == "ip_prefix":
                    res = [{"bucket": b_, "count": n} for b_, n in
                           searcher.ip_prefix_aggregation(
                               args.query, args.agg_field,
                               args.prefix_length, args.field,
                               args.mode)]
                elif args.agg in ("ip_range", "date_range"):
                    ranges: list = []
                    for part in args.ranges.split(","):
                        part = part.strip()
                        if not part:
                            continue
                        if "|" not in part:  # bare CIDR (ip_range)
                            ranges.append(part)
                            continue
                        lo, hi = part.split("|", 1)
                        ranges.append((None if lo == "*" else lo,
                                       None if hi == "*" else hi))
                    fn = (searcher.ip_range_aggregation
                          if args.agg == "ip_range"
                          else searcher.date_range_aggregation)
                    res = [{"bucket": b_, "count": n} for b_, n in
                           fn(args.query, args.agg_field, ranges,
                              args.field, args.mode)]
                elif args.agg == "ranks":
                    vals = [float(x) for x in args.values.split(",") if x]
                    res = [{"value": v, "rank_pct": round(p, 6)}
                           for v, p in searcher.percentile_ranks(
                               args.query, args.agg_field, vals,
                               args.field, args.mode)]
                else:
                    qs = tuple(float(x) for x in args.quantiles.split(",")
                               if x)
                    res = searcher.stats_aggregation(
                        args.query, args.agg_field, args.field, args.mode,
                        quantiles=qs,
                        quantile_method="tdigest" if args.tdigest
                        else "exact")
                print(json.dumps(res, indent=2))
            finally:
                searcher.close()
        elif args.cmd == "query":
            from .state.dsl import execute_dsl
            from .state.searcher import Searcher
            raw = args.body
            if raw.startswith("@"):
                with open(raw[1:]) as f:
                    raw = f.read()
            searcher = Searcher(args.index_dir, use_actors=True)
            try:
                if args.params is not None:
                    from .state.dsl import render_search_template
                    body = render_search_template(
                        raw, json.loads(args.params))
                else:
                    body = json.loads(raw)
                if args.validate:
                    from .state.dsl import execute_validate
                    print(json.dumps(execute_validate(
                        searcher, dict(body, explain=True))))
                elif args.scroll:
                    from .state.dsl import (execute_scroll,
                                            execute_scroll_search)
                    r = execute_scroll_search(searcher, body)
                    page = 0
                    while r["hits"]["hits"] and (
                            not args.max_pages
                            or page < args.max_pages):
                        print(json.dumps(r, default=float))
                        page += 1
                        r = execute_scroll(
                            searcher, {"scroll_id": r["_scroll_id"]})
                else:
                    print(json.dumps(execute_dsl(searcher, body),
                                     indent=2, default=float))
            finally:
                searcher.close()
        elif args.cmd == "field-caps":
            from .state.dsl import execute_field_caps
            from .state.searcher import Searcher
            searcher = Searcher(args.index_dir, use_actors=False)
            try:
                print(json.dumps(execute_field_caps(
                    searcher, args.fields or None), indent=2))
            finally:
                searcher.close()
        elif args.cmd == "suggest":
            from .state.searcher import Searcher
            searcher = Searcher(args.index_dir, use_actors=True)
            try:
                if args.completion:
                    cf = cv = None
                    if args.context:
                        cf, _, cv = args.context.partition("=")
                    out = [{"term": t, "df": n}
                           for t, n in searcher.suggest_completion(
                               args.text, field=args.field,
                               size=args.size,
                               fuzziness=args.fuzziness,
                               prefix_length=args.prefix_length,
                               context_field=cf, context_value=cv)]
                elif args.phrase:
                    out = [{"phrase": p, "score": round(sc, 6)}
                           for p, sc in searcher.suggest_phrase(
                               args.text, field=args.field,
                               size=args.size, max_edits=args.max_edits,
                               string_distance=args.distance)]
                else:
                    res = searcher.suggest(args.text, field=args.field,
                                           size=args.size,
                                           max_edits=args.max_edits,
                                           suggest_mode=args.mode,
                                           string_distance=args.distance)
                    out = [{"token": t, "suggestions": [
                                {"term": c, "distance": d, "df": n}
                                for c, d, n in cands]}
                           for t, cands in res]
                print(json.dumps(out, indent=2))
            finally:
                searcher.close()
        elif args.cmd == "explain":
            from .state.searcher import Searcher
            searcher = Searcher(args.index_dir, use_actors=True)
            try:
                print(json.dumps(searcher.explain(
                    args.query, args.doc_id, field=args.field), indent=2))
            finally:
                searcher.close()
        elif args.cmd == "search" and args.pattern is not None:
            from .state.multisearch import MultiSearcher, resolve_alias
            if args.qtype != "term":
                raise SystemExit("--pattern supports term queries")
            dirs = resolve_alias(args.index_dir, args.pattern)
            if not dirs:
                raise SystemExit(f"--pattern {args.pattern!r}: no "
                                 "matching index/alias under "
                                 f"{args.index_dir}")
            ms = MultiSearcher(dirs, use_actors=True)
            try:
                rows = ms.search(args.query, field=args.field,
                                 k=args.k, mode=args.mode)
            finally:
                ms.close()
            print(json.dumps({"indices": [os.path.basename(d)
                                          for d in dirs],
                              "hits": [{"_index": ix, "_id": d,
                                        "_score": round(sc, 6)}
                                       for sc, ix, d in rows]},
                             indent=2))
        elif args.cmd == "search":
            from .state.searcher import Searcher
            searcher = Searcher(args.index_dir, use_actors=True)
            try:
                ff = fv = None
                if args.filter:
                    ff, fv = args.filter.split("=", 1)
                rf = rlo = rhi = None
                if args.range_:
                    rf, lo_s, hi_s = args.range_.split(":")
                    rlo = float(lo_s) if lo_s else None
                    rhi = float(hi_s) if hi_s else None
                after = None
                if args.search_after:
                    sc_s, d_s = args.search_after.split(",")
                    after = (float(sc_s), int(d_s))
                qt = args.qtype
                if qt == "bool":
                    hits = searcher.search_bool(
                        must=args.must, should=args.should,
                        must_not=args.must_not, field=args.field, k=args.k,
                        minimum_should_match=args.msm, filter_field=ff,
                        filter_value=fv, range_field=rf, range_lo=rlo,
                        range_hi=rhi)
                elif qt == "phrase":
                    hits = [(float(tf), d) for tf, d in
                            searcher.phrase_search(args.query, args.field,
                                                   args.k, slop=args.slop)]
                elif qt == "phrase-prefix":
                    hits = [(float(tf), d) for tf, d in
                            searcher.match_phrase_prefix(
                                args.query, args.field, args.k,
                                args.max_expansions)]
                elif qt == "bool-prefix":
                    hits = searcher.match_bool_prefix(
                        args.query, args.field, args.k, args.max_expansions)
                elif qt == "prefix":
                    hits = searcher.prefix_search(
                        args.query, args.field, args.k, args.max_expansions)
                elif qt == "wildcard":
                    hits = searcher.wildcard_search(
                        args.query, args.field, args.k, args.max_expansions)
                elif qt == "fuzzy":
                    hits = searcher.fuzzy_search(
                        args.query, args.field, args.fuzziness, args.k,
                        args.max_expansions,
                        transpositions=args.transpositions)
                elif qt == "qs":
                    hits = searcher.query_string(args.query, args.field,
                                                 args.k)
                elif qt == "span":
                    hits = [(float(n), d) for n, d in
                            searcher.span_near(args.query.split(),
                                               args.field, args.slop,
                                               args.k)]
                elif qt == "span-expr":
                    hits = [(float(n), d) for n, d in
                            searcher.span_query(json.loads(args.query),
                                                args.field, args.k)]
                elif qt == "simple-qs":
                    fn = searcher.simple_query_string
                    hits = fn(args.query, field=args.field, k=args.k,
                              default_operator=args.default_operator)
                elif qt == "rank-feature":
                    if not args.feature_field:
                        raise SystemExit("--type rank-feature needs "
                                         "--feature-field")
                    fn = searcher.rank_feature_search
                    hits = fn(args.query, args.feature_field,
                              function=args.feature_fn,
                              pivot=args.pivot, boost=args.boost,
                              field=args.field, k=args.k)
                elif qt == "exists":
                    hits = searcher.exists_search(args.query, k=args.k)
                elif qt == "ids":
                    ids_ = [int(x) for x in args.ids.split(",") if x]
                    hits = searcher.ids_search(ids_, k=args.k)
                elif qt == "pinned":
                    ids_ = [int(x) for x in args.ids.split(",") if x]
                    hits = searcher.pinned_search(args.query, ids_,
                                                  field=args.field,
                                                  k=args.k)
                elif qt == "script-score":
                    if not args.script_expr:
                        raise SystemExit("--type script-score needs "
                                         "--script-expr")
                    fn = searcher.script_score_search
                    hits = fn(args.query, args.script_expr,
                              tuple(args.script_field),
                              field=args.field, k=args.k)
                elif qt == "distance-feature":
                    if not args.feature_field:
                        raise SystemExit("--type distance-feature needs "
                                         "--feature-field")
                    fn = searcher.distance_feature_search
                    hits = fn(args.query, args.feature_field,
                              args.origin_value, args.pivot,
                              boost=args.boost, field=args.field,
                              k=args.k)
                elif qt == "terms-set":
                    terms = args.should or (args.query or "").split()
                    fn = searcher.terms_set_search
                    hits = fn(terms, field=args.field,
                              msm_field=args.msm_field,
                              minimum_should_match=args.msm, k=args.k)
                elif qt in ("constant-score", "boosting",
                            "function-score", "collapse"):
                    # with actors these run per doc shard
                    if qt == "constant-score":
                        fn = searcher.constant_score
                        hits = fn(args.query, field=args.field,
                                  mode=args.mode, boost=args.boost,
                                  k=args.k)
                    elif qt == "boosting":
                        if not args.negative:
                            raise SystemExit(
                                "--type boosting needs --negative")
                        fn = searcher.boosting_search
                        hits = fn(args.query, args.negative,
                                  negative_boost=args.negative_boost,
                                  field=args.field, k=args.k)
                    elif qt == "function-score":
                        if not args.value_field:
                            raise SystemExit(
                                "--type function-score needs "
                                "--value-field")
                        fn = searcher.function_score
                        hits = fn(args.query, field=args.field,
                                  value_field=args.value_field,
                                  factor=args.factor,
                                  modifier=args.modifier,
                                  boost_mode=args.boost_mode, k=args.k)
                    else:
                        if not args.collapse_field:
                            raise SystemExit(
                                "--type collapse needs --collapse-field")
                        fn = searcher.collapse_search
                        rows = fn(args.query, args.collapse_field,
                                  field=args.field, k=args.k)
                        out = [{"rank": i, "doc_id": d,
                                "score": round(sc, 4),
                                args.collapse_field: v}
                               for i, (sc, d, v) in enumerate(rows)]
                        print(json.dumps(out, indent=2))
                        return 0
                else:
                    hits = searcher.search(
                        args.query, field=args.field, k=args.k,
                        mode=args.mode, filter_field=ff, filter_value=fv,
                        range_field=rf, range_lo=rlo, range_hi=rhi,
                        search_after=after)
                out = [{"rank": i, "doc_id": d, "score": round(sc, 4)}
                       for i, (sc, d) in enumerate(hits)]
                if args.fetch and hits:
                    from .state.docstore import fetch_docs
                    meta = fetch_docs(args.index_dir,
                                      [d for _, d in hits]).to_pylist()
                    by_id = {m["doc_id"]: m for m in meta}
                    for o in out:
                        o["doc"] = {k: v for k, v in
                                    by_id.get(o["doc_id"], {}).items()
                                    if k != "doc_id"}
                print(json.dumps(out, indent=2))
            finally:
                searcher.close()
        elif args.cmd == "decontam":
            import ray.data as rd
            from .stages.decontam import decontaminate
            ds = rd.read_parquet(args.corpus)
            bench = rd.read_parquet(args.benchmark)
            res = decontaminate(ds, bench, text_col=args.text_col,
                                id_col=args.id_col, k=args.ngram)
            res = res.materialize()
            n = res.count()
            n_bad = int(res.sum("contaminated"))
            res.write_parquet(args.out)
            print(json.dumps({"docs": n, "contaminated": n_bad,
                              "out": args.out}))
        elif args.cmd == "curate":
            import ray.data as rd
            from .stages.curate import curate
            num, den = (int(x) for x in args.max_dup_cover.split("/"))
            ds = rd.read_parquet(args.corpus)
            n_in = ds.count()
            res = curate(ds, text_col=args.text_col, id_col=args.id_col,
                         min_tokens=args.min_tokens,
                         max_top2_e6=args.max_top2_e6,
                         max_dup3_e6=args.max_dup3_e6,
                         dup_cover_num=num, dup_cover_den=den,
                         n=args.ngram).materialize()
            n_out = res.count()
            res.write_parquet(args.out)
            print(json.dumps({"docs_in": n_in, "docs_out": n_out,
                              "dropped": n_in - n_out, "out": args.out}))
        elif args.cmd == "pack":
            import ray.data as rd
            from .stages.packing import pack_sequences
            ds = rd.read_parquet(args.corpus)
            res = pack_sequences(ds, args.budget, text_col=args.text_col,
                                 id_col=args.id_col).materialize()
            n_seq = res.count()
            n_docs = int(res.sum("n_docs"))
            fill = res.mean("fill_e4") / 10000.0
            res.write_parquet(args.out)
            print(json.dumps({"sequences": n_seq, "docs": n_docs,
                              "mean_fill": round(fill, 4),
                              "out": args.out}))
        elif args.cmd == "sample":
            import ray.data as rd
            from .stages.sampling import mixture_sample
            rates = {k: int(v) for k, v in json.loads(args.rates).items()}
            ds = rd.read_parquet(args.corpus)
            res = mixture_sample(ds, rates, key_col=args.key_col,
                                 id_col=args.id_col,
                                 default=args.default,
                                 hash_mod=args.hash_mod).materialize()
            n_in = ds.count()
            n_out = res.count()
            res.write_parquet(args.out)
            print(json.dumps({"rows_in": n_in, "rows_out": n_out,
                              "out": args.out}))
        elif args.cmd == "shards":
            import ray.data as rd
            from .stages.ordering import write_training_shards
            fracs = {}
            for pairstr in args.fractions.split(","):
                nm, _, val = pairstr.partition("=")
                fracs[nm.strip()] = float(val)
            meta = write_training_shards(
                rd.read_parquet(args.source), args.out_dir,
                id_col=args.id_col, fractions=fracs,
                shards_per_split=args.shards, seed=args.seed)
            print(json.dumps({"splits": meta["splits"],
                              "out": args.out_dir}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
