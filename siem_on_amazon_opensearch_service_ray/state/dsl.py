"""OpenSearch JSON request-body execution: the `_search` API surface
(reference users write this JSON against OpenSearch — dashboards,
curl, SDKs; e.g. the reference's saved objects embed these bodies).
``execute_dsl(searcher, body)`` translates a request body onto the
engine's query/aggregation methods and returns an OpenSearch-shaped
response dict: ``{"hits": {"total": {"value": N}, "hits": [{"_id",
"_score"}]}, "aggregations": {...}}``.

Supported query nodes: match_all, match, match_phrase,
match_phrase_prefix, match_bool_prefix, multi_match, dis_max
(arbitrary sub-queries, tie_breaker), combined_fields
(BM25F — needs store_doclens), term/terms (keyword filter-context via
bool), range, prefix, wildcard, regexp, fuzzy, bool
(must/should/must_not/filter, minimum_should_match), query_string,
simple_query_string, terms_set, constant_score, boosting,
function_score, script_score, distance_feature, rank_feature, exists,
ids, pinned, span_* (the span algebra), intervals (match / any_of /
all_of lowered onto the span algebra), more_like_this.

Supported aggregations: terms (with avg/sum/min/max/stats/value_count
metric sub-aggs — the dashboard split-series shape), multi_terms,
rare_terms,
significant_terms, significant_text, sampler/diversified_sampler,
cardinality, value_count, avg/sum/min/max (single-metric, riding the
stats partials), missing, filter (singular — carries its own context,
the supported way to aggregate under match_all), histogram,
date_histogram
(fixed_interval), range, date_range, ip_range, ip_prefix, filters,
composite,
adjacency_matrix, auto_date_histogram, stats, extended_stats,
percentiles, percentile_ranks, median_absolute_deviation, boxplot,
string_stats, t_test, weighted_avg, matrix_stats, top_hits,
top_metrics, geo_distance, geotile_grid, geohash_grid, geo_bounds,
geo_centroid, scripted_metric — plus sibling/pipeline aggs over a
histogram parent (cumulative_sum, derivative, moving_avg,
serial_diff, rate, percentiles_bucket, moving_percentiles,
bucket_selector, bucket_sort and the *_bucket family) expressed as
sub-entries of the parent's spec.

A ``highlight`` body key (match queries) returns per-hit fragments
from the stored ``_source`` via ``Searcher.highlight``.

Pagination / fetch body keys: ``from`` (offset paging), ``sort`` (ONE
field, asc/desc — Discover's saved-search shape, executed as per-shard
boundary bisects over the value-sorted range tables), ``search_after``
(cursor paging on the score order ``[last_score, last_doc_id]`` or on
a field sort ``[last_sort_value, last_doc_id]`` — deep pages cost the
same as page 1), and
``_source`` (``true`` or a field list — ONE bulk docstore fetch for
the whole page, row-group pruned), and ``track_total_hits: true``
(exact match-set total via the ``_count`` path — one int per shard);
also ``fields`` (docvalue-style list retrieval from the docstore),
``script_fields`` (per-hit whitelisted-arithmetic values computed
from stored columns — ONE pruned docstore fetch per page),
``explain: true`` (per-hit ``_explanation``, one cached gather per
page) and ``min_score`` (exact post-rank cutoff — docs below it form
a suffix of the descending ranking, so a top-k filter loses nothing).

``post_filter`` narrows the returned hits to (query AND filter)
while aggregations and track_total_hits keep the unfiltered query —
the faceted-navigation contract.  ``suggest`` runs named term /
phrase / completion suggesters alongside (or instead of) the hits,
OpenSearch response shape.

Scroll: ``execute_scroll_search`` opens a scroll (first page +
``_scroll_id``) and ``execute_scroll`` continues one.  The id is a
STATELESS base64 cursor over the ``search_after`` machinery — every
page costs the same as page 1, nothing is pinned server-side, any
coordinator can serve any page.

Sibling API surfaces in this module: ``execute_count`` (`_count`),
``execute_msearch`` (`_msearch`), ``execute_explain`` (`_explain/<id>`),
``execute_analyze`` (`_analyze`), ``execute_mget`` (`_mget`),
``execute_delete_by_query`` (`_delete_by_query` — tombstone + live
refresh; the retention op), ``execute_update_by_query``
(`_update_by_query` — scripted field rewrite of the match set through
the delete → compact → extend upsert flow), ``execute_rank_eval``
(`_rank_eval` — precision/recall@k, MRR, DCG/NDCG over rated docs), ``execute_bulk`` (`_bulk`
— the reference's write path: index actions become one incremental
generation via extend_index, deletes tombstone).

Unsupported constructs raise ``ValueError`` naming the node — never a
silent wrong answer.  Aggregations run in the QUERY's context when
the query is a ``match``/``match_all``/term-ish node (the engine's
match-set aggs take analyzed terms + or/and mode); aggs under other
query shapes raise.

Execution is the engine's: with an actor pool every query and agg
method runs per doc shard (per-shard partials, dfs round for scored
nodes); in process the same methods run over every part.  Cites: reference
`deploy_es` console bodies (command_index.txt) and the dashboards'
panel queries are exactly this JSON shape.
"""

from __future__ import annotations

import re

from typing import Any

__all__ = ["execute_dsl", "execute_count", "execute_msearch",
           "execute_explain", "execute_analyze", "execute_mget",
           "execute_delete_by_query", "execute_update_by_query",
           "execute_bulk", "execute_rank_eval", "execute_pattern_dsl",
           "execute_scroll_search", "execute_scroll",
           "execute_field_caps", "execute_validate",
           "execute_search_template", "render_search_template",
           "put_script", "get_script"]


def _one(node: dict, what: str) -> tuple[str, Any]:
    if not isinstance(node, dict) or len(node) != 1:
        raise ValueError(f"{what}: expected a single-key object, got "
                         f"{node!r}")
    return next(iter(node.items()))


def _match_text(spec) -> tuple[str, str, str]:
    """(field, text, operator) from a match node — accepts either the
    full ``{"match": {field: ...}}`` wrapper or the inner
    ``{field: ...}`` body (callers hold both shapes)."""
    field, body = _one(spec, "match")
    if field == "match" and isinstance(body, dict):
        field, body = _one(body, "match")
    elif field != "match" and field in ("match_all",):
        raise ValueError("expected a match query")
    if isinstance(body, dict):
        return field, str(body.get("query", "")), \
            str(body.get("operator", "or")).lower()
    return field, str(body), "or"


def _filter_clause(c: dict, neg: bool, who: str) -> tuple:
    """Lower ONE bool filter/must_not clause to a context filter spec
    (("kw"/"kw_not", f, v|vs), ("range", f, lo, hi),
    ("exists"/"exists_not", f)) — shared by the agg-context and
    scored-bool lowerings."""
    suf = "_not" if neg else ""
    ck, cs = _one(c, "bool filter")
    if ck == "term":
        ff, v = _one(cs, "term")
        if isinstance(v, dict):
            v = v["value"]
        return ("kw" + suf, ff, str(v))
    if ck == "terms":
        ff, vs = _one(cs, "terms")
        return ("kw" + suf, ff, tuple(str(v) for v in vs))
    if ck == "exists":
        return ("exists" + suf, cs["field"])
    if ck == "wildcard":
        ff, v = _one(cs, "wildcard")
        if isinstance(v, dict):
            v = v.get("value", v.get("wildcard"))
        return ("kw_like" + suf, ff, str(v))
    if ck == "range" and not neg:
        ff, b = _one(cs, "range")
        if not set(b) <= {"gte", "lte"}:
            raise ValueError(f"{who} range filter: only gte/lte "
                             f"bounds are supported, got {sorted(b)}")
        return ("range", ff, b.get("gte"), b.get("lte"))
    raise ValueError(
        f"{who} {'must_not' if neg else 'filter'} {ck!r} unsupported "
        f"({'term/terms/exists' if neg else 'term/terms/range/exists'})")


def _agg_context(query: dict | None) -> tuple[str, str, str, tuple]:
    """(query_text, field, mode, filters) for match-set aggregations.
    The engine's aggs take analyzed terms + or/and, optionally
    narrowed by context filters: a ``bool`` with exactly one `match`
    must and any number of term/terms/range filter clauses lowers to
    the match context plus hashable filter specs (("kw", field,
    value|values-tuple) / ("range", field, lo, hi)) that every shard
    intersects against its own filter parts.  Raise for the rest."""
    if query is None or "match_all" in query:
        raise ValueError(
            "aggregations need a match/bool query context (the "
            "engine's match-set aggs take analyzed terms); match_all "
            "aggs: use a singular filter agg, a global agg, or the "
            "corpus stats pipelines")
    kind, spec = _one(query, "query")
    if kind == "match":
        f, text, op = _match_text(query)
        return text, f, "and" if op == "and" else "or", ()
    if kind == "bool":
        musts = spec.get("must")
        musts = [musts] if isinstance(musts, dict) else musts or []
        if len(musts) > 1 or (musts and "match" not in musts[0]) \
                or spec.get("should"):
            raise ValueError(
                "bool aggregation context needs exactly one match "
                "must — or none, with filters only — "
                "(+ term/terms/range/exists filters, must_not "
                "term/terms/exists) and no should")
        if musts:
            f, text, op = _match_text(musts[0])
        else:
            # PURE filter context (the time-window / keyword-only
            # dashboard shape): the filters define the match set;
            # text=None signals _run_aggs to install pure mode
            f = text = None
            op = "or"

        filters = [_filter_clause(c, False, "bool agg-context") for c in
                   ([spec["filter"]]
                    if isinstance(spec.get("filter"), dict)
                    else spec.get("filter") or [])]
        negs = [_filter_clause(c, True, "bool agg-context") for c in
                ([spec["must_not"]]
                 if isinstance(spec.get("must_not"), dict)
                 else spec.get("must_not") or [])]
        # positives first: the pure path bases the match set on the
        # first spec, which must be a real id list, not a subtraction
        filters = sorted(filters + negs,
                         key=lambda s_: s_[0].endswith("_not"))
        if text is None and not filters:
            raise ValueError("bool aggregation context needs a match "
                             "must or at least one filter")
        if text is None and filters and filters[0][0].endswith("_not"):
            raise ValueError("pure filter context needs at least one "
                             "POSITIVE filter (must_not alone has no "
                             "base set)")
        return text, f, "and" if op == "and" else "or", tuple(filters)
    raise ValueError(f"aggregation context query {kind!r} is not "
                     "supported (use match or bool)")


def _default_text_field(s) -> str:
    """The index's first text field — the analyzer carrier for
    pure-filter contexts (the match set never consults it)."""
    sub = (next(iter(s.searchers.values())) if hasattr(s, "searchers")
           else s)
    return sub.manifest["config"]["fields"][0][0]


def _resolve_pure(s, ctx: tuple) -> tuple[tuple, bool]:
    """(qctx, pure): substitute the sentinel text/field for a pure
    filter context (text=None) so agg entry methods analyze a benign
    token; the chokepoints ignore it in pure mode."""
    if ctx[0] is not None:
        return ctx, False
    return ("ctxpure", _default_text_field(s), ctx[2], ctx[3]), True


# Agg kinds verified to honor the bool-filtered context (their match
# sets flow through the _candidate_ids/_match_ids chokepoints where
# the ambient filters intersect).  The rest raise rather than risk
# silently aggregating the unfiltered set.
_CTX_FILTER_OK = frozenset({
    "terms", "multi_terms", "rare_terms", "cardinality", "value_count",
    "missing", "histogram", "date_histogram", "range", "date_range",
    "stats", "extended_stats", "avg", "sum", "min", "max",
    "percentiles", "percentile_ranks", "median_absolute_deviation",
    "boxplot", "string_stats", "weighted_avg",
    # rides the same matched-values machinery as stats/percentiles
    # (the count_le/sum_le memo keys carry the ambient filters)
    "variable_width_histogram",
    # foreground = the filtered match set (chokepoint-honoring),
    # background stays the whole corpus — OpenSearch sig-terms
    # semantics ("what is anomalous WITHIN this window")
    "significant_terms",
    # composite's per-part tuple censuses compute over the
    # chokepoint-provided candidate set (the pure sentinel supplies
    # the query context filters-only bodies need)
    "composite"})


def _run_aggs(s, aggs: dict, query: dict | None) -> dict:
    """Execute a request's aggregations.  A singular ``filter`` agg
    carries its own context (and is the supported way to aggregate
    under ``match_all`` — OpenSearch users narrow a global query this
    way constantly); everything else runs in the query's context.  A
    ``bool`` context's term/range filters are installed ONCE for the
    whole request (one broadcast round to the shard actors) and every
    agg's match set intersects them shard-locally."""
    from contextlib import ExitStack

    from .searcher import ctx_filters
    out: dict = {}
    qctx: tuple[str, str, str, tuple] | None = None
    with ExitStack() as stack:
        for name, spec in aggs.items():
            kind, _ = _one({k: v for k, v in spec.items()
                            if k not in ("aggs", "aggregations")},
                           f"agg {name}")
            if kind == "filter":
                out[name] = _exec_filter_agg(s, name, spec, query)
                continue
            if kind == "global":
                out[name] = _exec_global_agg(s, name, spec)
                continue
            if kind == "filters" and (query is None
                                      or "match_all" in query):
                # like the singular filter agg, the named buckets carry
                # their own match contexts — a match_all outer query is
                # the natural request shape
                out[name] = _exec_agg(
                    s, name, spec,
                    (None, _default_text_field(s), "or", ()))
                continue
            if qctx is None:
                qctx, pure = _resolve_pure(s, _agg_context(query))
                if qctx[3]:
                    stack.enter_context(ctx_filters(s, qctx[3], pure))
            out[name] = _exec_agg(s, name, spec, qctx)
    return out


def _exec_global_agg(s, name: str, spec: dict) -> dict:
    """``global`` bucket agg: ignores the surrounding query entirely
    (OpenSearch semantics — the "compare my narrowed window against
    the whole index" dashboard shape).  ``doc_count`` is every live
    doc; sub-aggs execute over the full corpus via the ``("all",)``
    pure context, whose base set is each shard's OWN docstore doc-id
    census (``shard.load_all_doc_ids`` — column-pruned ``doc_id``
    scan; ids never leave their shard on doc layouts, exactly like
    every other context filter).  Reference parity: OpenSearch global
    aggregation (the reference's dashboards delegate it to
    OpenSearch)."""
    body = spec["global"]
    if body:
        raise ValueError("global agg takes an empty body ({}); put "
                         "sub-aggregations under 'aggs'")
    from .searcher import ctx_filters
    gctx = ("ctxpure", _default_text_field(s), "or", (("all",),))
    with ctx_filters(s, gctx[3], True):
        out: dict = {"doc_count": int(s.match_count(
            gctx[0], field=gctx[1], mode=gctx[2]))}
        for sname, sspec in (spec.get("aggs",
                                      spec.get("aggregations"))
                             or {}).items():
            out[sname] = _exec_agg(s, sname, sspec, gctx)
    return out


def _exec_filter_agg(s, name: str, spec: dict, query: dict | None
                     ) -> dict:
    """Singular ``filter`` bucket agg: ``doc_count`` of the filter's
    match set (one int per shard via ``match_count`` — ids never
    travel) plus sub-aggs executed in the NARROWED context.  Outer
    query must be match_all/absent: the engine's match-set aggs take
    one term context, so a filter-within-match intersection is not
    expressible — raising beats silently aggregating the wrong set."""
    if query is not None and "match_all" not in query:
        kind, _ = _one(query, "query")
        raise ValueError(
            "filter agg: outer query must be match_all/absent (got "
            f"{kind!r}); put the narrowing query in the filter itself")
    from .searcher import ctx_filters
    fctx, pure = _resolve_pure(s, _agg_context(spec["filter"]))
    text, f, mode, ctxf = fctx
    with ctx_filters(s, ctxf, pure):
        out: dict = {"doc_count": int(s.match_count(text, field=f,
                                                    mode=mode))}
        for sname, sspec in (spec.get("aggs",
                                      spec.get("aggregations"))
                             or {}).items():
            out[sname] = _exec_agg(s, sname, sspec, fctx)
    return out


def _exec_query(s, query: dict, size: int,
                collapse: dict | None = None) -> list[tuple]:
    kind, spec = _one(query, "query")
    if collapse is not None and kind not in ("match", "wrapper"):
        raise ValueError(f"collapse: query {kind!r} is not supported "
                         "(use match)")
    if kind == "match_all":
        raise ValueError("match_all scoring: use exists/ids or an agg "
                         "pipeline; the engine scores term queries")
    if kind == "match":
        field, text, op = _match_text(query)
        if collapse is not None:
            cf = collapse["field"]
            return s.collapse_search(text, cf, field=field, k=size)
        return s.search(text, field=field, k=size, mode=op)
    if kind == "match_phrase":
        field, body = _one(spec, "match_phrase")
        text = body["query"] if isinstance(body, dict) else str(body)
        slop = body.get("slop", 0) if isinstance(body, dict) else 0
        if slop:
            # sloppy phrases rank by phrase_tf (the engine's slop path)
            return [(float(tf), d) for tf, d in
                    s.phrase_search(text, field=field,
                                    k=size, slop=slop)]
        return s.phrase_search_scored(text, field=field,
                                      k=size)
    if kind == "knn":
        field, body = _one(spec, "knn")
        return s.knn_search(field, body["vector"],
                            k=int(body.get("k", size)))
    if kind == "wrapper":
        import base64
        import json as _json
        b64 = spec["query"] if isinstance(spec, dict) else spec
        inner = _json.loads(base64.b64decode(b64))
        return _exec_query(s, inner, size, collapse)
    if kind == "intervals":
        field, rule = _one(spec, "intervals")
        return [(float(n), d) for n, d in
                s.intervals_query(field, rule, k=size)]
    if kind == "match_bool_prefix":
        field, body = _one(spec, "match_bool_prefix")
        text = body["query"] if isinstance(body, dict) else str(body)
        return s.match_bool_prefix(text, field=field, k=size)
    if kind == "match_phrase_prefix":
        field, body = _one(spec, "match_phrase_prefix")
        text = body["query"] if isinstance(body, dict) else str(body)
        return [(float(tf), d) for tf, d in
                s.match_phrase_prefix(text, field=field,
                                      k=size)]
    if kind == "multi_match":
        return s.multi_match(spec["query"], list(spec["fields"]), k=size,
                             match_type=spec.get("type", "best_fields"),
                             tie_breaker=float(spec.get("tie_breaker", 0.0)))
    if kind == "dis_max":
        # Lucene DisjunctionMaxQuery over ARBITRARY sub-queries (each
        # with its own text/field — the same-text special case is
        # multi_match best_fields, which keeps sets on shards; this
        # general node combines full per-clause score maps on the
        # driver, the exactness multi_match's docstring argues for)
        clauses = spec.get("queries")
        if not clauses:
            raise ValueError("dis_max: 'queries' is required")
        tb = float(spec.get("tie_breaker", 0.0))
        per_doc: dict[int, list[float]] = {}
        for c in clauses:
            for h in _exec_query(s, c, 1 << 31):
                per_doc.setdefault(int(h[1]), []).append(float(h[0]))
        scored = [(max(v) + tb * (sum(v) - max(v)), d)
                  for d, v in per_doc.items()]
        scored.sort(key=lambda t: (-t[0], t[1]))
        return scored[:size]
    if kind == "combined_fields":
        return s.combined_fields(spec["query"], list(spec["fields"]), k=size)
    if kind == "bool":
        def _texts(clauses):
            out = []
            for c in ([clauses] if isinstance(clauses, dict)
                      else clauses or []):
                ck, cs = _one(c, "bool clause")
                if ck != "match":
                    raise ValueError(
                        f"bool sub-query {ck!r} unsupported (match "
                        "clauses only; compose filters via filter)")
                _f, text, _op = _match_text(c)
                out.append(text)
            return out
        fspecs: list[tuple] = []
        for c in ([spec["filter"]] if isinstance(spec.get("filter"), dict)
                  else spec.get("filter") or []):
            ck, cs = _one(c, "bool filter")
            if ck in ("term", "terms", "range", "exists"):
                # any number of term/terms/range/exists filters lower
                # to filter specs (positives intersect per shard)
                fspecs.append(_filter_clause(c, False, "bool"))
            elif ck in ("geo_bounding_box", "geo_distance",
                        "geo_polygon"):
                # geo filters pair with a single match must — route to
                # the dedicated geo query methods
                musts = spec.get("must")
                musts = [musts] if isinstance(musts, dict) else musts or []
                if len(musts) != 1 or "match" not in musts[0] \
                        or spec.get("should") or spec.get("must_not"):
                    raise ValueError(f"bool {ck} filter needs exactly "
                                     "one match must and no other "
                                     "clauses")
                _f, text, _op = _match_text(musts[0])
                lat_f = cs.get("lat_field", "lat")
                lon_f = cs.get("lon_field", "lon")
                if ck == "geo_bounding_box":
                    return s.geo_bounding_box_search(
                        text, lat_f, lon_f, tuple(cs["top_left"]),
                        tuple(cs["bottom_right"]), field=_f, k=size)
                if ck == "geo_polygon":
                    return s.geo_polygon_search(
                        text, lat_f, lon_f,
                        [tuple(p) for p in cs["points"]], field=_f, k=size)
                return s.geo_distance_search(
                    text, lat_f, lon_f, tuple(cs["origin"]),
                    float(cs["distance_km"]), field=_f, k=size)
            else:
                raise ValueError(f"bool filter {ck!r} unsupported "
                                 "(term/range/geo_bounding_box/"
                                 "geo_distance/geo_polygon)")
        return s.search_bool(
            must=_texts(spec.get("must")),
            should=_texts(spec.get("should")),
            must_not=_texts(spec.get("must_not")),
            minimum_should_match=spec.get("minimum_should_match"),
            filters=tuple(fspecs) or None, k=size)
    if kind in ("term", "terms"):
        raise ValueError(
            f"{kind!r} at top level is filter-context; wrap it in "
            "bool.filter with a match must, or use exists/ids")
    if kind == "range":
        field, b = _one(spec, "range")
        return _range_only(s, field, b, size)
    if kind == "prefix":
        field, val = _one(spec, "prefix")
        if isinstance(val, dict):
            val = val["value"]
        return s.prefix_search(val, field, size)
    if kind == "wildcard":
        field, val = _one(spec, "wildcard")
        if isinstance(val, dict):
            val = val["value"]
        return s.wildcard_search(val, field, size)
    if kind == "regexp":
        field, val = _one(spec, "regexp")
        if isinstance(val, dict):
            val = val["value"]
        return s.regexp_search(val, field, size)
    if kind == "fuzzy":
        field, val = _one(spec, "fuzzy")
        fz = 1
        if isinstance(val, dict):
            fz = int(val.get("fuzziness", 1))
            val = val["value"]
        return s.fuzzy_search(val, field, fz, size)
    if kind == "query_string":
        return s.query_string(spec["query"],
                              spec.get("default_field", "content"), size)
    if kind == "simple_query_string":
        return s.simple_query_string(
            spec["query"], spec.get("default_field", "content"), size,
            default_operator=spec.get("default_operator", "or"))
    if kind == "terms_set":
        field, b = _one(spec, "terms_set")
        return s.terms_set_search(
            list(b["terms"]), field=field,
            msm_field=b.get("minimum_should_match_field"),
            minimum_should_match=b.get("minimum_should_match"),
            k=size)
    if kind == "constant_score":
        inner = spec.get("filter", spec.get("query"))
        _f, text, op = _match_text(inner)
        return s.constant_score(
            text, field=_f, mode=op,
            boost=float(spec.get("boost", 1.0)), k=size)
    if kind == "boosting":
        _pf, ptext, _ = _match_text(spec["positive"])
        _nf, ntext, _ = _match_text(spec["negative"])
        return s.boosting_search(
            ptext, ntext,
            negative_boost=float(spec.get("negative_boost", 0.5)),
            field=_pf, k=size)
    if kind == "function_score":
        _f, text, _op = _match_text(spec["query"])
        functions = []
        for fs in spec.get("functions", []):
            fs = dict(fs)
            for deck in ("gauss", "exp", "linear"):
                if deck in fs:
                    dfield, db = _one(fs[deck], deck)
                    functions.append({"type": deck, "field": dfield,
                                      **db,
                                      "weight": fs.get("weight", 1.0)})
                    break
            else:
                if "field_value_factor" in fs:
                    fvf = fs["field_value_factor"]
                    functions.append({
                        "type": "field_value_factor",
                        "field": fvf["field"],
                        "factor": fvf.get("factor", 1.0),
                        "modifier": fvf.get("modifier", "none"),
                        "weight": fs.get("weight", 1.0)})
                elif "random_score" in fs:
                    rs = fs["random_score"] or {}
                    functions.append({
                        "type": "random_score",
                        "seed": rs.get("seed", 0),
                        "weight": fs.get("weight", 1.0)})
                elif "weight" in fs:
                    functions.append({"type": "weight",
                                      "weight": fs["weight"]})
                else:
                    raise ValueError(f"function_score function {fs!r} "
                                     "unsupported")
        return s.function_score(
            text, field=_f, functions=functions or None,
            value_field=(None if functions else
                         spec.get("field_value_factor", {}).get("field")),
            score_mode=spec.get("score_mode", "multiply"),
            boost_mode=spec.get("boost_mode", "multiply"), k=size)
    if kind == "script_score":
        _f, text, _op = _match_text(spec["query"])
        script = spec["script"]
        src = script["source"] if isinstance(script, dict) else script
        fields = tuple(spec.get("fields", ()))
        return s.script_score_search(text, src, fields,
                                     field=_f, k=size)
    if kind == "distance_feature":
        return s.distance_feature_search(
            spec["query_text"] if "query_text" in spec else
            _match_text(spec["query"])[1],
            spec["field"], float(spec["origin"]),
            float(spec["pivot"]), boost=float(spec.get("boost", 1.0)),
            k=size)
    if kind == "rank_feature":
        _f, text, _op = _match_text(spec["query"])
        for fn_name in ("saturation", "log", "sigmoid"):
            if fn_name in spec:
                b = spec[fn_name] or {}
                return s.rank_feature_search(
                    text, spec["field"], function=fn_name,
                    pivot=float(b.get("pivot", 1.0)),
                    scaling=float(b.get("scaling_factor", 1.0)),
                    exponent=float(b.get("exponent", 1.0)),
                    boost=float(spec.get("boost", 1.0)), k=size)
        return s.rank_feature_search(
            text, spec["field"], boost=float(spec.get("boost", 1.0)),
            k=size)
    if kind == "exists":
        return s.exists_search(spec["field"], k=size)
    if kind == "ids":
        return s.ids_search(list(spec["values"]), k=size)
    if kind == "pinned":
        _f, text, _op = _match_text(spec["organic"])
        return s.pinned_search(text, list(spec["ids"]), field=_f,
                               k=size)
    if kind == "more_like_this":
        return s.more_like_this(like_text=spec.get("like"), k=size)
    if kind.startswith("span_"):
        return [(float(n), d) for n, d in s.span_query(query, k=size)]
    raise ValueError(f"unsupported query node {kind!r}")


def _range_only(s, field: str, b: dict, size: int) -> list[tuple]:
    from .shard import load_range_ids
    lo = b.get("gte", b.get("gt"))
    hi = b.get("lte", b.get("lt"))
    ids = load_range_ids(s.index_dir, field, lo, hi)
    if s.tombstones.size and ids.size:
        from .searcher import _excl_mask
        ids = ids[_excl_mask(ids, s.tombstones)]
    import numpy as np
    return [(1.0, int(d)) for d in np.sort(ids)[:size]]


_PIPELINE_KEYS = {"cumulative_sum", "derivative", "moving_avg",
                  "serial_diff", "rate", "percentiles_bucket",
                  "moving_percentiles", "bucket_selector",
                  "bucket_sort", "stats_bucket", "avg_bucket",
                  "sum_bucket", "min_bucket", "max_bucket",
                  "bucket_script", "moving_fn",
                  "cumulative_cardinality", "normalize",
                  "extended_stats_bucket"}


def _exec_agg(s, name: str, spec: dict, qctx: tuple[str, str, str]
              ) -> Any:
    from .searcher import (bucket_metrics, moving_percentiles_buckets,
                           normalize_buckets, percentiles_bucket,
                           pipeline_aggregations, rate_buckets,
                           serial_diff_buckets)
    text, qfield, mode, _ctxf = qctx
    kind, body = _one({k: v for k, v in spec.items()
                       if k not in ("aggs", "aggregations")},
                      f"agg {name}")
    if _ctxf and kind not in _CTX_FILTER_OK:
        raise ValueError(
            f"agg {name!r}: {kind!r} does not support a bool-filtered "
            "context (its match set bypasses the filter chokepoints); "
            f"supported: {sorted(_CTX_FILTER_OK)}")
    sub = spec.get("aggs", spec.get("aggregations", {}))
    if kind == "terms":
        rows = s.terms_aggregation(text, body["field"], qfield, mode)
        inc, exc = body.get("include"), body.get("exclude")
        if inc is not None or exc is not None:
            # OpenSearch terms include/exclude: exact-value lists or
            # ANCHORED regex (Lucene full-match semantics) applied to
            # the census values BEFORE size truncation — coordinator
            # work over the reduced buckets, size |values|
            import re as _re

            def _keep(v: str) -> bool:
                if isinstance(inc, list):
                    if v not in inc:
                        return False
                elif inc is not None and _re.fullmatch(inc, v) is None:
                    return False
                if isinstance(exc, list):
                    return v not in exc
                return exc is None or _re.fullmatch(exc, v) is None

            rows = [(v, n) for v, n in rows if _keep(v)]
        if "missing" in body:
            # OpenSearch terms `missing` param: docs in the match set
            # LACKING the field bucket under the given key — the
            # count is the presence partial's second int (no extra
            # pass), merged into the census order
            _w, miss = s.value_count_aggregation(text, body["field"],
                                                 qfield, mode)
            if miss:
                rows = sorted(rows + [(str(body["missing"]), int(miss))],
                              key=lambda t: (-t[1], t[0]))
        size = body.get("size", 10)
        order = body.get("order")
        okey, odir = (next(iter(order.items())) if order
                      else ("_count", "desc"))
        if okey == "_count" and odir == "desc":
            # the census arrives count-desc/key-asc already; truncate
            # BEFORE attaching metrics (one stats pass over the kept
            # values only)
            rows = rows[:size]
        buckets = [{"key": v, "doc_count": n} for v, n in rows]
        if sub:
            # metric sub-aggs (the dashboard split-series shape):
            # one terms_stats pass per distinct numeric field — each
            # shard ships only per-bucket mergeable moments
            metrics: dict[str, tuple[str, str]] = {}
            for sname, sspec in sub.items():
                sk, sb = _one(sspec, f"terms sub-agg {sname}")
                if sk in ("histogram", "date_histogram"):
                    # terms x date_histogram (the split-series
                    # area/line chart): per-(value, bin) counts
                    iv = float(sb.get("interval",
                                      sb.get("fixed_interval_sec", 0))
                               or sb["interval"])
                    rows3 = s.terms_histogram_aggregation(
                        text, body["field"], sb["field"], iv, qfield,
                        mode)
                    per_v: dict[str, list[dict]] = {}
                    for v, bk, n in rows3:
                        per_v.setdefault(v, []).append(
                            {"key": bk, "doc_count": n})
                    for b in buckets:
                        b[sname] = {"buckets": per_v.get(b["key"], [])}
                    continue
                if sk == "terms":
                    # terms -> terms (two keyword levels): the pair
                    # census IS multi_terms, regrouped under the
                    # parent buckets; sub-buckets keep the terms
                    # order (count desc, value asc), truncated to the
                    # sub-agg's size
                    ssize = sb.get("size", 10)
                    pairs = s.multi_terms_aggregation(
                        text, (body["field"], sb["field"]), qfield,
                        mode)
                    per_p: dict[str, list[dict]] = {}
                    for a, b2, n in pairs:
                        per_p.setdefault(a, []).append(
                            {"key": b2, "doc_count": n})
                    for b in buckets:
                        subs = sorted(per_p.get(b["key"], []),
                                      key=lambda x: (-x["doc_count"],
                                                     x["key"]))
                        b[sname] = {"buckets": subs[:ssize]}
                    continue
                if sk == "cardinality":
                    # per-bucket distinct keyword values (the "unique
                    # count by category" dashboard metric): the
                    # multi_terms pair census — only distinct
                    # (bucket, value) pairs travel — reduced to
                    # per-bucket set sizes; exact where OpenSearch
                    # merges per-bucket HLL sketches
                    pairs = s.multi_terms_aggregation(
                        text, (body["field"], sb["field"]), qfield,
                        mode)
                    per_a: dict[str, int] = {}
                    for a2, _b2, _n in pairs:
                        per_a[a2] = per_a.get(a2, 0) + 1
                    for b in buckets:
                        b[sname] = {"value": per_a.get(b["key"], 0)}
                    continue
                if sk not in ("avg", "sum", "min", "max", "stats",
                              "value_count"):
                    raise ValueError(
                        f"terms sub-agg {sname!r}: {sk!r} unsupported "
                        "(avg/sum/min/max/stats/value_count/"
                        "cardinality/histogram/date_histogram)")
                metrics[sname] = (sk, sb["field"])
            by_field = {
                rf: {v: (n, su, lo, hi)
                     for v, n, su, lo, hi, _ in
                     s.terms_stats_aggregation(text, body["field"], rf,
                                               qfield, mode)}
                for rf in {rf for _, rf in metrics.values()}}
            for b in buckets:
                for sname, (sk, rf) in metrics.items():
                    st = by_field[rf].get(b["key"])
                    n, su, lo, hi = st if st else (0, 0.0, None, None)
                    if sk == "value_count":
                        b[sname] = {"value": int(n)}
                    elif sk == "sum":
                        b[sname] = {"value": float(su)}
                    elif sk == "min":
                        b[sname] = {"value": lo}
                    elif sk == "max":
                        b[sname] = {"value": hi}
                    elif sk == "avg":
                        b[sname] = {"value": float(su) / n if n
                                    else None}
                    else:
                        b[sname] = {
                            "count": int(n), "sum": float(su),
                            "min": lo, "max": hi,
                            "avg": float(su) / n if n else None}
        if okey == "_key":
            buckets.sort(key=lambda b: b["key"],
                         reverse=(odir == "desc"))
        elif okey != "_count":
            # order by a metric sub-agg ("m1" or "m1.avg"): exact —
            # the full per-value census reduced driver-side before
            # the truncate (OpenSearch's shard_size approximation
            # doesn't apply; only distinct values travelled)
            mname, _, stat = okey.partition(".")

            def _mv(b: dict):
                node = b.get(mname)
                if not isinstance(node, dict):
                    raise ValueError(
                        f"terms order {okey!r}: no metric sub-agg "
                        f"named {mname!r}")
                return node.get(stat or "value")
            have = [b for b in buckets if _mv(b) is not None]
            rest = [b for b in buckets if _mv(b) is None]
            have.sort(key=lambda b: b["key"])
            have.sort(key=_mv, reverse=(odir == "desc"))
            buckets = have + rest
        elif odir == "asc":
            buckets.sort(key=lambda b: (b["doc_count"], b["key"]))
        return {"buckets": buckets[:size]}
    if kind == "multi_terms":
        pair = tuple(t["field"] for t in body["terms"])
        rows = s.multi_terms_aggregation(text, pair, qfield, mode)
        return {"buckets": [{"key": [a, b], "doc_count": n}
                            for a, b, n in rows[:body.get("size", 10)]]}
    if kind == "rare_terms":
        rows = s.rare_terms_aggregation(
            text, body["field"], body.get("max_doc_count", 1),
            qfield, mode)
        return {"buckets": [{"key": v, "doc_count": n}
                            for v, n in rows]}
    if kind == "significant_terms":
        rows = s.significant_terms(text, body["field"], qfield, mode,
                                   body.get("size", 10))
        return {"buckets": [{"key": v, "doc_count": n, "score": sc}
                            for v, n, sc in rows]}
    if kind == "significant_text":
        rows = s.significant_text(text, qfield,
                                  text_field=body.get("field"),
                                  mode=mode, k=body.get("size", 10))
        return {"buckets": [{"key": t, "doc_count": n, "score": sc}
                            for t, n, sc in rows]}
    if kind in ("sampler", "diversified_sampler"):
        sk, sb = _one(sub, "sampler sub-agg") if sub else (None, None)
        if sk != "terms":
            raise ValueError("sampler: exactly one terms sub-agg "
                             "supported")
        rows = s.sampler_aggregation(
            text, sb["field"], shard_size=body.get("shard_size", 100),
            field=qfield,
            diversify_field=body.get("field"),
            max_docs_per_value=body.get("max_docs_per_value", 1)
            ) if kind == "diversified_sampler" else \
            s.sampler_aggregation(
                text, sb["field"],
                shard_size=body.get("shard_size", 100), field=qfield)
        return {sk: {"buckets": [{"key": v, "doc_count": n}
                                 for v, n in rows]}}
    if kind == "cardinality":
        return {"value": s.cardinality_aggregation(text, body["field"],
                                                   qfield, mode)}
    if kind == "value_count":
        w, miss = s.value_count_aggregation(text, body["field"], qfield,
                                            mode)
        return {"value": w, "missing": miss}
    if kind in ("histogram", "date_histogram"):
        interval = float(body.get("interval",
                                  body.get("fixed_interval_sec", 0))
                         or body["interval"])
        _eb = body.get("extended_bounds")
        buckets = s.histogram_aggregation(
            text, body["field"], interval, qfield, mode,
            min_doc_count=body.get("min_doc_count", 1),
            offset=float(body.get("offset", 0.0)),
            extended_bounds=((float(_eb["min"]), float(_eb["max"]))
                             if _eb else None))
        out = {"buckets": [{"key": b, "doc_count": n}
                           for b, n in buckets]}
        _METRIC_KEYS = ("avg", "sum", "min", "max", "stats",
                        "value_count")
        hist_stats: dict[str, dict] = {}   # metric field -> bin moments
        kw_census: dict[str, list] = {}    # keyword field -> (v, bin, n)
        pipeline_specs: list[tuple[str, str, dict]] = []
        # two passes: metric sub-aggs attach to the buckets FIRST so a
        # pipeline agg's buckets_path ("m1", "m1.avg", "_count") can
        # resolve regardless of body key order (OpenSearch resolves
        # sibling paths after the reduce, not in declaration order)
        for pname, pspec in sub.items():
            pk, pb = _one(pspec, f"pipeline agg {pname}")
            if pk == "cardinality":
                # per-bin distinct keyword values: the terms×histogram
                # census (only distinct (value, bin) pairs travel)
                # reduced to per-bin set sizes — exact where
                # OpenSearch's per-bucket HLL is approximate
                rf = pb["field"]
                if rf not in kw_census:
                    kw_census[rf] = s.terms_histogram_aggregation(
                        text, rf, body["field"], interval, qfield, mode)
                per_bin: dict = {}
                for _v, bk, _n in kw_census[rf]:
                    per_bin[bk] = per_bin.get(bk, 0) + 1
                for b in out["buckets"]:
                    b[pname] = {"value": int(per_bin.get(b["key"], 0))}
                continue
            if pk not in _METRIC_KEYS:
                pipeline_specs.append((pname, pk, pb))
                continue
            if pk in _METRIC_KEYS:
                # per-bin metric sub-agg (the avg-over-time panel):
                # per-shard mergeable moments, one pass per field
                rf = pb["field"]
                if rf not in hist_stats:
                    hist_stats[rf] = {
                        k: (n, su, lo, hi)
                        for k, n, su, lo, hi, _ in
                        s.histogram_stats_aggregation(
                            text, body["field"], interval, rf,
                            qfield, mode)}
                for b in out["buckets"]:
                    st = hist_stats[rf].get(b["key"])
                    n, su, lo, hi = st if st else (0, 0.0, None, None)
                    if pk == "value_count":
                        b[pname] = {"value": int(n)}
                    elif pk == "sum":
                        b[pname] = {"value": float(su)}
                    elif pk == "min":
                        b[pname] = {"value": lo}
                    elif pk == "max":
                        b[pname] = {"value": hi}
                    elif pk == "avg":
                        b[pname] = {"value": float(su) / n if n
                                    else None}
                    else:
                        b[pname] = {
                            "count": int(n), "sum": float(su),
                            "min": lo, "max": hi,
                            "avg": float(su) / n if n else None}
        def _bpath_values(path: str) -> list:
            """Resolve an OpenSearch buckets_path ("_count", "m1",
            "m1.avg") to one value per parent bucket, in key order."""
            if path == "_count":
                return [float(n) for _, n in buckets]
            mname, _, stat = path.partition(".")
            vals = []
            for b in out["buckets"]:
                node = b.get(mname)
                if not isinstance(node, dict):
                    raise ValueError(
                        f"buckets_path {path!r}: no metric sub-agg "
                        f"named {mname!r} on the histogram parent")
                vals.append(node.get(stat or "value"))
            return vals

        for pname, pk, pb in pipeline_specs:
            if pk not in _PIPELINE_KEYS:
                raise ValueError(f"histogram sub-agg {pk!r} unsupported")
            if pk == "bucket_script":
                from .searcher import bucket_script_buckets
                paths = pb["buckets_path"]
                if not isinstance(paths, dict):
                    raise ValueError("bucket_script: buckets_path must "
                                     "be a {name: path} object")
                named = {k: _bpath_values(p) for k, p in paths.items()}
                out[pname] = bucket_script_buckets(named, pb["script"])
                continue
            if pk == "moving_fn":
                from .searcher import moving_fn_buckets
                script = pb.get("script", "")
                m = re.search(r"MovingFunctions\.(\w+)\s*\(", script)
                if not m:
                    raise ValueError(
                        "moving_fn: script must call a MovingFunctions."
                        "{max,min,sum,unweightedAvg,stdDev,"
                        "linearWeightedAvg,ewma} builtin")
                mvals = _bpath_values(pb.get("buckets_path", "_count"))
                mb = [(b["key"], v) for b, v in zip(out["buckets"],
                                                    mvals)]
                out[pname] = [v for _, v in moving_fn_buckets(
                    mb, int(pb["window"]), m.group(1),
                    shift=int(pb.get("shift", 0)),
                    alpha=float(pb.get("alpha", 0.3)))]
                continue
            if pk == "cumulative_cardinality":
                from .searcher import cumulative_cardinality_buckets
                # buckets_path names a sibling cardinality sub-agg;
                # its field drives the (value, bin) census
                ref = sub.get(pb["buckets_path"], {})
                rk, rb = _one(ref, "cumulative_cardinality target") \
                    if ref else (None, None)
                if rk != "cardinality":
                    raise ValueError(
                        "cumulative_cardinality: buckets_path must "
                        "name a sibling cardinality sub-agg")
                rf = rb["field"]
                if rf not in kw_census:
                    kw_census[rf] = s.terms_histogram_aggregation(
                        text, rf, body["field"], interval, qfield, mode)
                cum = dict(cumulative_cardinality_buckets(kw_census[rf]))
                run = 0
                vals = []
                for b in out["buckets"]:
                    run = cum.get(b["key"], run)
                    vals.append(int(run))
                out[pname] = vals
                continue
            if pk == "normalize":
                out[pname] = [v for _, v in normalize_buckets(
                    buckets, pb.get("method", "percent_of_sum"))]
                continue
            if pk == "cumulative_sum":
                rows = pipeline_aggregations(buckets)
                out[pname] = [r["cumulative_sum"] for r in rows]
            elif pk == "derivative":
                rows = pipeline_aggregations(buckets)
                out[pname] = [r["derivative"] for r in rows]
            elif pk == "moving_avg":
                rows = pipeline_aggregations(
                    buckets, window=pb.get("window", 5))
                out[pname] = [r["moving_avg"] for r in rows]
            elif pk == "serial_diff":
                out[pname] = [v for _, v in serial_diff_buckets(
                    buckets, pb.get("lag", 1))]
            elif pk == "rate":
                out[pname] = [v for _, v in rate_buckets(
                    buckets, interval, pb.get("unit", "day"))]
            elif pk == "percentiles_bucket":
                out[pname] = dict(percentiles_bucket(
                    buckets, list(pb.get("percents", [25., 50., 75.]))))
            elif pk == "moving_percentiles":
                out[pname] = [v for _, v in moving_percentiles_buckets(
                    buckets, pb.get("percent", 50.0),
                    pb.get("window", 5))]
            elif pk == "bucket_selector":
                from .searcher import bucket_selector
                out[pname] = [list(b) for b in bucket_selector(
                    buckets, pb["op"], pb["threshold"])]
            elif pk == "bucket_sort":
                from .searcher import bucket_sort
                out[pname] = [list(b) for b in bucket_sort(
                    buckets, desc=pb.get("order", "desc") == "desc",
                    size=pb.get("size"), frm=pb.get("from", 0))]
            elif pk == "extended_stats_bucket":
                from .searcher import extended_bucket_metrics
                out[pname] = extended_bucket_metrics(
                    buckets, float(pb.get("sigma", 2.0)))
            else:   # stats_bucket family
                out[pname] = bucket_metrics(buckets)
        return out
    if kind == "variable_width_histogram":
        rows = s.variable_width_histogram(
            text, body["field"], int(body.get("buckets", 10)),
            qfield, mode)
        return {"buckets": rows}
    if kind == "range":
        rngs = [(r.get("from"), r.get("to")) for r in body["ranges"]]
        rows = s.range_aggregation(text, body["field"], rngs, qfield,
                                   mode)
        return {"buckets": [{"key": k, "doc_count": n}
                            for k, n in rows]}
    if kind == "date_range":
        rngs = [(r.get("from"), r.get("to")) for r in body["ranges"]]
        rows = s.date_range_aggregation(text, body["field"], rngs,
                                        qfield, mode)
        return {"buckets": [{"key": k, "doc_count": n}
                            for k, n in rows]}
    if kind == "ip_range":
        rngs = [r["mask"] if "mask" in r else (r.get("from"), r.get("to"))
                for r in body["ranges"]]
        rows = s.ip_range_aggregation(text, body["field"], rngs,
                                      qfield, mode)
        return {"buckets": [{"key": k, "doc_count": n}
                            for k, n in rows]}
    if kind == "ip_prefix":
        rows = s.ip_prefix_aggregation(
            text, body["field"], int(body["prefix_length"]), qfield, mode,
            is_ipv6=bool(body.get("is_ipv6", False)),
            min_doc_count=int(body.get("min_doc_count", 1)))
        return {"buckets": [{"key": k, "doc_count": n}
                            for k, n in rows]}
    if kind == "filters":
        from .searcher import ctx_filters
        specs = {}
        bools = {}
        for fname, fq in body["filters"].items():
            fk, fs = _one(fq, "filters entry")
            if fk == "match":
                _f, ftext, fop = _match_text(fq)
                specs[fname] = (ftext, fop)
            elif fk == "bool" and not _ctxf:
                # named bool bucket: its own filter context, counted
                # by per-shard set algebra (one int per shard)
                bools[fname] = fq
            else:
                raise ValueError("filters agg: match (or bool, under "
                                 "an unfiltered outer query) filters "
                                 "only")
        obk = None
        if body.get("other_bucket") or "other_bucket_key" in body:
            obk = str(body.get("other_bucket_key", "_other_"))
            if bools or not specs:
                raise ValueError(
                    "filters agg: other_bucket needs match-filter "
                    "entries only (bool buckets carry their own "
                    "contexts; their union is not expressible)")
        rows = dict(s.filters_aggregation(
            specs, qfield, other_bucket_key=obk)) if specs else {}
        for fname, fq in bools.items():
            fctx, pure = _resolve_pure(s, _agg_context(fq))
            t2, f2, m2, cf = fctx
            with ctx_filters(s, cf, pure):
                rows[fname] = int(s.match_count(t2, field=f2, mode=m2))
        return {"buckets": {k: {"doc_count": n}
                            for k, n in rows.items()}}
    if kind == "composite":
        srcs = [_one(src, "composite source")[0] for src in
                body["sources"]]
        fields = [list(src.values())[0]["terms"]["field"]
                  for src in body["sources"]]
        buckets, after = s.composite_aggregation(
            fields, query=text, field=qfield, mode=mode,
            size=body.get("size", 10),
            after=tuple(body["after"]) if "after" in body else None)
        return {"buckets": [{"key": dict(zip(srcs, key)),
                             "doc_count": n} for key, n in buckets],
                "after_key": after}
    if kind in ("avg", "sum", "min", "max"):
        # single-metric aggs ride the stats partials (per-shard
        # count/min/max/sum — no values travel on the doc layout)
        st = s.stats_aggregation(text, body["field"], qfield, mode)
        return {"value": (float(st[kind]) if st.get("count") else None)}
    if kind == "missing":
        # docs in the match set lacking the field — the second half of
        # the two-int value_count/missing presence partial
        _have, miss = s.value_count_aggregation(text, body["field"],
                                                qfield, mode)
        return {"doc_count": int(miss)}
    if kind == "stats":
        return s.stats_aggregation(text, body["field"], qfield, mode)
    if kind == "extended_stats":
        # variance/std_dev/sum_sq ride along on every stats path
        return s.stats_aggregation(text, body["field"], qfield, mode)
    if kind == "percentiles":
        # exact quantiles by per-shard count probes on both paths: no
        # matched value leaves its shard
        qs = tuple(p / 100.0 for p in body.get("percents",
                                               [25., 50., 75.]))
        st = s.stats_aggregation(
            text, body["field"], qfield, mode, quantiles=qs,
            quantile_method="exact_distributed")
        # stats_aggregation keys each quantile q as p{round(100q):02d}
        return {"values": {f"{p * 100:g}": st[f"p{round(p * 100):02d}"]
                           for p in qs}}
    if kind == "percentile_ranks":
        rows = s.percentile_ranks(text, body["field"],
                                  [float(v) for v in body["values"]],
                                  qfield, mode)
        return {"values": {f"{v:g}": r for v, r in rows}}
    if kind == "median_absolute_deviation":
        return {"value": s.mad_aggregation(text, body["field"], qfield,
                                           mode)}
    if kind == "boxplot":
        return s.boxplot_aggregation(text, body["field"], qfield, mode)
    if kind == "string_stats":
        return s.string_stats(text, body["field"], qfield, mode)
    if kind == "t_test":
        return s.t_test(text, body["a"]["field"], body["b"]["field"],
                        qfield, mode,
                        test_type=body.get("type", "paired"))
    if kind == "weighted_avg":
        return s.weighted_avg(text, body["value"]["field"],
                              body["weight"]["field"], qfield, mode)
    if kind == "matrix_stats":
        return s.matrix_stats(text, tuple(body["fields"]), qfield, mode)
    if kind == "top_hits":
        rows = s.top_hits_aggregation(
            text, body["field"], qfield, mode,
            hits_per_bucket=body.get("size", 3))
        return rows
    if kind == "top_metrics":
        srt, order = _one(body["sort"], "top_metrics sort")
        return s.top_metrics(
            srt, [m["field"] for m in body["metrics"]],
            desc=(order == "desc" if isinstance(order, str)
                  else order.get("order", "desc") == "desc"),
            size=body.get("size", 1), query=text, field=qfield,
            mode=mode)
    if kind == "adjacency_matrix":
        specs = {}
        for fname, fq in body["filters"].items():
            _f, ftext, fop = _match_text(fq)
            specs[fname] = (ftext, fop)
        rows = s.adjacency_matrix(specs, qfield)
        return {"buckets": [{"key": k, "doc_count": n}
                            for k, n in rows.items()]}
    if kind == "auto_date_histogram":
        interval, buckets = s.auto_date_histogram(
            text, body["field"], body.get("buckets", 10), qfield, mode)
        return {"interval_sec": interval,
                "buckets": [{"key": b, "doc_count": n}
                            for b, n in buckets]}
    if kind == "geo_distance":
        rngs = [(r.get("from"), r.get("to")) for r in body["ranges"]]
        origin = body["origin"]
        rows = s.geo_distance_aggregation(
            text, body["lat_field"], body["lon_field"],
            (origin["lat"], origin["lon"]), rngs, qfield, mode)
        return {"buckets": [{"key": k, "doc_count": n}
                            for k, n in rows]}
    if kind in ("geotile_grid", "geohash_grid"):
        rows = s.geotile_grid_aggregation(
            text, body["lat_field"], body["lon_field"],
            body.get("precision", 7 if kind == "geotile_grid" else 5),
            qfield, mode, size=body.get("size"),
            scheme="geotile" if kind == "geotile_grid" else "geohash")
        return {"buckets": [{"key": k, "doc_count": n}
                            for k, n in rows]}
    if kind in ("geo_bounds", "geo_centroid"):
        gb = s.geo_bounds_aggregation(text, body["lat_field"],
                                      body["lon_field"], qfield, mode)
        if kind == "geo_centroid":
            return ({"location": {"lat": gb["centroid"][0],
                                  "lon": gb["centroid"][1]},
                     "count": gb["count"]} if gb.get("count")
                    else {"count": 0})
        if not gb.get("count"):
            return {"count": 0}
        return {"bounds": {
            "top_left": {"lat": gb["top_left"][0],
                         "lon": gb["top_left"][1]},
            "bottom_right": {"lat": gb["bottom_right"][0],
                             "lon": gb["bottom_right"][1]}},
            "count": gb["count"]}
    if kind == "scripted_metric":
        return s.scripted_metric(
            text, tuple(body.get("fields", ())), body["map_script"],
            body.get("reduce_script", "state"), qfield, mode)
    raise ValueError(f"unsupported aggregation {kind!r}")


def execute_count(searcher, body: dict) -> dict:
    """OpenSearch ``_count`` API: ``{"query": {...}}`` ->
    ``{"count": N}``.  Match queries count per shard (one int per
    shard travels — see Searcher.match_count); every other supported
    node counts its executed match set."""
    query = body.get("query")
    if query is None or "match_all" in query:
        return {"count": int(searcher.stats["n_docs"])
                - int(searcher.tombstones.size)}
    if "match" in query:
        f, text, op = _match_text(query)
        return {"count": int(searcher.match_count(
            text, field=f, mode="and" if op == "and" else "or"))}
    if "term" in query or "range" in query:
        # keyword/range filter counts: live ids collected per shard
        # from the filter / range tables, no postings walked
        return {"count": int(_dbq_ids(searcher, query).size)}
    if "bool" in query:
        # bool counts ride the agg-context machinery when the shape
        # lowers (match must + term/range filters, or filters only):
        # per-shard set algebra, one int per shard — no scoring
        try:
            ctx, pure = _resolve_pure(searcher, _agg_context(query))
        except ValueError:
            return {"count": len(_exec_query(searcher, query, 1 << 31))}
        from .searcher import ctx_filters
        text, f, mode, filters = ctx
        with ctx_filters(searcher, filters, pure):
            return {"count": int(searcher.match_count(text, field=f,
                                                      mode=mode))}
    return {"count": len(_exec_query(searcher, query, 1 << 31))}


def execute_msearch(searcher, lines: list[dict]) -> dict:
    """OpenSearch ``_msearch``: a list of request bodies (NDJSON-style
    header lines — ``{}`` or ``{"index": ...}`` — are accepted and
    skipped) -> ``{"responses": [...]}`` in request order.  A failing
    body becomes ``{"error": ...}`` in its slot instead of failing the
    batch (OpenSearch per-item error parity)."""
    bodies = [ln for ln in lines
              if isinstance(ln, dict)
              and not set(ln) <= {"index", "preference", "routing"}]
    out = []
    for b in bodies:
        try:
            out.append(execute_dsl(searcher, b))
        except ValueError as exc:
            out.append({"error": {"type": "illegal_argument_exception",
                                  "reason": str(exc)}})
    return {"responses": out}


def _sort_spec(srt) -> tuple[str, bool]:
    """Normalize a ``sort`` body key: ONE field + order (asc default).
    Accepts "field", {"field": "desc"}, {"field": {"order": ...}} and
    a one- or two-element list of those — a trailing ``_doc`` /
    ``_id`` tiebreak key (what Discover actually sends:
    ``[{"@timestamp": "desc"}, {"_doc": "asc"}]``) is accepted and
    folded away, because the engine's field sort ALREADY tiebreaks by
    ascending doc id.  Two arbitrary field keys raise."""
    if isinstance(srt, list):
        if len(srt) == 2:
            tie = srt[1]
            tf = tie if isinstance(tie, str) else _one(tie, "sort")[0]
            if tf not in ("_doc", "_id", "doc_id"):
                raise ValueError(
                    "sort: a second sort key must be the _doc/_id "
                    f"tiebreak (got {tf!r}); the field sort already "
                    "orders ties by ascending doc id")
            srt = [srt[0]]
        if len(srt) != 1:
            raise ValueError("sort: exactly one field sort key is "
                             "supported (plus an optional _doc "
                             "tiebreak)")
        srt = srt[0]
    if isinstance(srt, str):
        return srt, False
    fld, spec = _one(srt, "sort")
    if isinstance(spec, str):
        return fld, spec == "desc"
    return fld, str(spec.get("order", "asc")) == "desc"


def _py(v):
    return v.item() if hasattr(v, "item") else v


def _attach_source(searcher, hits: list[dict], spec) -> None:
    """OpenSearch ``_source`` fetch: ``true`` = every stored docstore
    column, a list = that subset, ``{"includes": [...], "excludes":
    [...]}`` = the filtered object form (excludes-only projects every
    stored column minus those); ids the docstore doesn't hold get
    ``_source: None``.  ONE bulk ``fetch_docs`` covers all hit ids
    (parquet row-group pruned) — never a per-hit read."""
    if not hits or spec in (None, False):
        return
    excludes: list[str] = []
    if isinstance(spec, dict):
        if not set(spec) <= {"includes", "excludes"}:
            raise ValueError("_source: object form takes includes/"
                             f"excludes, got {sorted(spec)!r}")
        excludes = list(spec.get("excludes") or [])
        spec = spec.get("includes") or True
    cols = None
    if spec is not True:
        if isinstance(spec, str):
            spec = [spec]
        if not isinstance(spec, list):
            raise ValueError("_source: expected true or a list of "
                             f"fields, got {spec!r}")
        spec = [c for c in spec if c not in excludes]
        cols = list(dict.fromkeys(["doc_id", *spec]))
    t = searcher.fetch_docs([h["_id"] for h in hits], columns=cols)
    by_id: dict[int, dict] = {}
    if t is not None:
        for r in t.to_pylist():
            by_id[int(r["doc_id"])] = r
    for h in hits:
        row = by_id.get(int(h["_id"]))
        h["_source"] = None if row is None else {
            k: v for k, v in row.items()
            if (spec is True or k in spec) and k not in excludes}


def _apply_tth(searcher, resp: dict, query, tth) -> None:
    """``track_total_hits: true`` — replace the page-derived total
    with the EXACT match-set size via the ``_count`` path (match
    queries: one int per shard travels, never ids)."""
    if tth in (None, False):
        return
    if tth is not True:
        raise ValueError("track_total_hits: expected true/false, got "
                         f"{tth!r}")
    n = execute_count(searcher, {} if query is None
                      else {"query": query})["count"]
    resp["hits"]["total"] = {"value": int(n), "relation": "eq"}


def _attach_fields(searcher, hits: list[dict], names) -> None:
    """``fields`` body key (docvalue-style retrieval): each hit gains
    ``fields: {name: [value]}`` from the stored docstore columns —
    ONE bulk fetch for the page, like ``_source``.  Null/missing
    columns are omitted per hit (OpenSearch fields semantics)."""
    if not hits or not names:
        return
    if isinstance(names, str):
        names = [names]
    cols = list(dict.fromkeys(["doc_id", *names]))
    t = searcher.fetch_docs([h["_id"] for h in hits], columns=cols)
    by_id: dict[int, dict] = {}
    if t is not None:
        for r in t.to_pylist():
            by_id[int(r["doc_id"])] = r
    for h in hits:
        row = by_id.get(int(h["_id"])) or {}
        vals = {n: [row[n]] for n in names
                if n in row and row[n] is not None}
        if vals:
            h.setdefault("fields", {}).update(vals)


def _expr_fields(expr: str) -> tuple[str, ...]:
    """Field names a whitelisted-arithmetic script reads (every bare
    identifier that isn't a whitelisted function) — OpenSearch
    scripts name fields as ``doc['f'].value``; this engine's painless
    subset names them directly, so the referenced-column set is
    statically known and the docstore fetch can prune to it."""
    import ast

    from .searcher import _EXPR_FUNCS
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as ex:
        raise ValueError(f"script {expr!r}: invalid syntax "
                         f"({ex.msg})") from None
    names = tuple(dict.fromkeys(
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id not in _EXPR_FUNCS))
    bad = [n for n in names if n.startswith("_")]
    if bad:
        raise ValueError(f"script {expr!r}: {bad[0]!r} is not a "
                         "stored field (underscore names are "
                         "reserved)")
    return names


def _attach_script_fields(searcher, hits: list[dict], spec) -> None:
    """``script_fields`` body key: per-hit computed values from the
    stored docstore columns through the whitelisted-arithmetic script
    compiler (the same painless subset ``script_score`` uses).  The
    page costs ONE bulk docstore fetch pruned to the union of every
    script's referenced columns.  Hits missing any referenced field
    omit that script field (painless ``doc[...]`` raises on missing
    — OpenSearch drops the field from the hit)."""
    if not hits or not spec:
        return
    from .searcher import compile_metric_expr
    scripts: list[tuple[str, tuple[str, ...], Any]] = []
    for name, b in spec.items():
        sc = (b or {}).get("script")
        if isinstance(sc, str):
            src = sc
        elif isinstance(sc, dict):
            src = sc.get("source")
        else:
            src = None
        if not src:
            raise ValueError(f"script_fields {name!r}: needs "
                             "script.source")
        flds = _expr_fields(src)
        scripts.append((name, flds, compile_metric_expr(src, flds)))
    cols = list(dict.fromkeys(
        ["doc_id", *(f for _, flds, _ in scripts for f in flds)]))
    t = searcher.fetch_docs([h["_id"] for h in hits], columns=cols)
    by_id: dict[int, dict] = {}
    if t is not None:
        for r in t.to_pylist():
            by_id[int(r["doc_id"])] = r
    for h in hits:
        row = by_id.get(int(h["_id"])) or {}
        for name, flds, fn in scripts:
            if any(row.get(f) is None for f in flds):
                continue
            val = fn({f: float(row[f]) for f in flds})
            h.setdefault("fields", {})[name] = [float(val)]


def _attach_explanations(searcher, hits: list[dict], query) -> None:
    """``explain: true`` body key: every hit gains ``_explanation``
    (the `_explain` API's breakdown).  Per-hit calls reuse the
    searcher's postings-row cache, so the page costs ONE gather."""
    if not hits or query is None:
        return
    if "match" not in query:
        kind, _ = _one(query, "query")
        raise ValueError(f"explain: query {kind!r} is not supported "
                         "(use match)")
    for h in hits:
        h["_explanation"] = execute_explain(
            searcher, int(h["_id"]), {"query": query})["explanation"]


def _with_post_filter(query, pf: dict) -> dict:
    """Compose the hits-side query for ``post_filter``: the returned
    page is the top-k of (query AND post_filter) while aggregations
    and track_total_hits keep seeing the UNFILTERED query — the
    faceted-navigation contract (reference dashboards' filter pills:
    the terms agg shows every bucket, the hit list narrows).
    Rewrites into the bool machinery, so the filter executes as
    packed doc-list intersection per shard — never a rescan."""
    ck, _ = _one(pf, "post_filter")
    if ck not in ("term", "terms", "range"):
        raise ValueError(f"post_filter: {ck!r} unsupported "
                         "(term/terms/range)")
    if query is not None and "bool" in query:
        spec = dict(query["bool"])
        filt = spec.get("filter") or []
        spec["filter"] = ([filt] if isinstance(filt, dict)
                          else list(filt)) + [pf]
        return {"bool": spec}
    if query is not None and "match" in query:
        return {"bool": {"must": [query], "filter": [pf]}}
    kind = "match_all" if query is None or "match_all" in query \
        else _one(query, "query")[0]
    raise ValueError(f"post_filter: query {kind!r} is not supported "
                     "(needs a scoring match/bool query)")


def _run_suggest(s, sg: dict) -> dict:
    """``suggest`` body key: named term / phrase / completion
    suggesters, OpenSearch response shape (one entry per analyzed
    token for term, one per input for phrase/completion, each with an
    ``options`` list).  All three ride the layout-aware suggester
    methods — the dictionary probes run where each part lives, only
    candidate strings and dfs travel.  Term-option ``score`` is the
    normalized edit similarity ``1 - distance/max(len)`` (the
    OpenSearch term-suggester scoring shape)."""
    if not isinstance(sg, dict):
        raise ValueError("suggest: expected an object of named "
                         "suggesters")
    g_text = sg.get("text")
    out: dict[str, list[dict]] = {}
    for name, spec in sg.items():
        if name == "text":
            continue
        if not isinstance(spec, dict):
            raise ValueError(f"suggest {name!r}: expected an object")
        kinds = [k for k in ("term", "phrase", "completion")
                 if k in spec]
        if len(kinds) != 1:
            raise ValueError(f"suggest {name!r}: exactly one of "
                             "term/phrase/completion required, got "
                             f"{sorted(set(spec) - {'text', 'prefix'})!r}")
        kind = kinds[0]
        b = spec[kind] or {}
        field = b.get("field", "content")
        size = int(b.get("size", 5))
        if kind == "term":
            text = spec.get("text", g_text)
            if text is None:
                raise ValueError(f"suggest {name!r}: missing text")
            rows = s.suggest(
                text, field=field, size=size,
                max_edits=int(b.get("max_edits", 2)),
                prefix_length=int(b.get("prefix_length", 1)),
                suggest_mode=b.get("suggest_mode", "missing"),
                string_distance=b.get("string_distance",
                                      "levenshtein"))
            entries, pos, low = [], 0, text.lower()
            for tok, opts in rows:
                off = low.find(tok, pos)
                if off < 0:
                    off = max(low.find(tok), 0)
                pos = off + len(tok)
                entries.append({
                    "text": tok, "offset": off, "length": len(tok),
                    "options": [
                        {"text": c,
                         "score": round(
                             1.0 - d / max(len(tok), len(c)), 6),
                         "freq": int(df)} for c, d, df in opts]})
            out[name] = entries
        elif kind == "completion":
            prefix = spec.get("prefix", g_text)
            if prefix is None:
                raise ValueError(f"suggest {name!r}: missing prefix")
            kw: dict = {}
            fz = b.get("fuzzy")
            if fz:
                if fz is True:
                    fz = {}
                kw.update(
                    fuzziness=int(fz.get("fuzziness", 1)),
                    prefix_length=int(fz.get("prefix_length", 1)),
                    transpositions=bool(fz.get("transpositions",
                                               True)))
            ctx = b.get("contexts")
            if ctx:
                (cf, cv), = ctx.items()
                if isinstance(cv, list):
                    if len(cv) != 1:
                        raise ValueError("suggest contexts: exactly "
                                         "one value per context")
                    cv = cv[0]
                kw.update(context_field=cf, context_value=cv)
            rows = s.suggest_completion(prefix, field=field,
                                        size=size, **kw)
            out[name] = [{
                "text": prefix, "offset": 0, "length": len(prefix),
                "options": [{"text": t, "score": float(df)}
                            for t, df in rows]}]
        else:
            text = spec.get("text", g_text)
            if text is None:
                raise ValueError(f"suggest {name!r}: missing text")
            rows = s.suggest_phrase(
                text, field=field, size=size,
                max_edits=int(b.get("max_edits", 2)),
                prefix_length=int(b.get("prefix_length", 1)),
                string_distance=b.get("string_distance",
                                      "levenshtein"))
            out[name] = [{
                "text": text, "offset": 0, "length": len(text),
                "options": [{"text": p, "score": float(sc)}
                            for p, sc in rows]}]
    return out


def execute_dsl(searcher, body: dict) -> dict:
    """Execute an OpenSearch `_search` request body against the
    engine.  See the module docstring for the supported surface;
    anything else raises ValueError naming the node."""
    pit = body.get("pit")
    if pit is not None:
        # "pit": {"id": …} — run the whole request under the pinned
        # point-in-time view (state/pit.py): docs ingested after the
        # PIT opened are invisible, docs deleted after it are still
        # returned.  The swap is one broadcast in, one out.
        from .pit import pit_view
        inner = {k: v for k, v in body.items() if k != "pit"}
        with pit_view(searcher, pit["id"]):
            resp = execute_dsl(searcher, inner)
        resp["pit_id"] = pit["id"]
        return resp
    size = int(body.get("size", 10))
    frm = int(body.get("from", 0))
    if frm < 0:
        raise ValueError("from: must be >= 0")
    query = body.get("query")
    resp: dict = {"hits": {"total": {"value": 0, "relation": "eq"},
                           "hits": []}}
    resc = body.get("rescore")
    srt = body.get("sort")
    if srt in ("_score", ["_score"]):
        srt = None
    sa = body.get("search_after")
    if (frm or srt is not None or sa is not None) and (
            resc is not None or body.get("highlight") is not None):
        raise ValueError("from/sort/search_after cannot be combined "
                         "with rescore or highlight")
    ms = body.get("min_score")
    if ms is not None and (srt is not None or resc is not None
                           or body.get("track_total_hits")):
        raise ValueError("min_score cannot be combined with sort, "
                         "rescore or track_total_hits")
    sg = body.get("suggest")

    def _finish(r: dict) -> dict:
        if sg:
            r["suggest"] = _run_suggest(searcher, sg)
        return r

    pf = body.get("post_filter")
    hit_query = query
    if pf is not None:
        if (srt is not None or resc is not None or sa is not None
                or body.get("highlight") is not None
                or ms is not None or body.get("explain")):
            raise ValueError("post_filter cannot be combined with "
                             "sort, rescore, search_after, highlight, "
                             "min_score or explain")
        hit_query = _with_post_filter(query, pf)
    if srt is not None and size > 0:
        # field sort (the Discover execution shape): per-shard
        # boundary bisect over value-sorted range tables
        after = None
        if sa is not None:
            # cursor paging on the field sort: each shard bisects to
            # the cursor — deep pages cost the same as page 1
            if frm:
                raise ValueError("search_after: 'from' must be 0")
            if not (isinstance(sa, (list, tuple)) and len(sa) == 2):
                raise ValueError("search_after: expected "
                                 "[last_sort_value, last_doc_id], "
                                 f"got {sa!r}")
            after = (sa[0], int(sa[1]))
        sfld, desc = _sort_spec(srt)
        text, f, mode = "", "content", "or"
        if query is not None and "match" in query:
            f, text, op = _match_text(query)
            mode = "and" if op == "and" else "or"
        elif query is not None and "match_all" not in query:
            kind, _ = _one(query, "query")
            raise ValueError(f"sort: query {kind!r} is not supported "
                             "(use match / match_all)")
        rows = searcher.field_sorted_search(
            sfld, k=frm + size, desc=desc, query=text, field=f,
            mode=mode, after=after)
        hits = [{"_id": int(d), "_score": None, "sort": [_py(v), int(d)]}
                for v, d in rows[frm:frm + size]]
        resp["hits"]["hits"] = hits
        resp["hits"]["total"]["value"] = len(hits)
        resp["hits"]["total"]["relation"] = \
            "gte" if len(hits) == size else "eq"
        _attach_source(searcher, hits, body.get("_source"))
        _attach_fields(searcher, hits, body.get("fields"))
        _attach_script_fields(searcher, hits, body.get("script_fields"))
        _apply_tth(searcher, resp, query, body.get("track_total_hits"))
        aggs0 = body.get("aggs", body.get("aggregations"))
        if aggs0:
            resp["aggregations"] = _run_aggs(searcher, aggs0, query)
        return _finish(resp)
    if resc is not None and query is not None and size > 0:
        if "match" not in query:
            raise ValueError("rescore: only match primary queries are "
                             "supported")
        rq = (resc.get("query") or {})
        rnode = rq.get("rescore_query") or {}
        if "match" not in rnode:
            raise ValueError("rescore_query: only match is supported")
        f, text, op = _match_text(query)
        _f2, rtext, _op2 = _match_text(rnode)
        hits = searcher.rescore_search(
            text, rtext, k=size,
            window_size=int(resc.get("window_size", 10)),
            query_weight=float(rq.get("query_weight", 1.0)),
            rescore_query_weight=float(
                rq.get("rescore_query_weight", 1.0)),
            field=f, mode="and" if op == "and" else "or")
        resp["hits"]["hits"] = [{"_id": int(d), "_score": float(s)}
                                for s, d in hits]
        resp["hits"]["total"]["value"] = len(hits)
        resp["hits"]["total"]["relation"] = \
            "gte" if len(hits) == size else "eq"
        _attach_source(searcher, resp["hits"]["hits"],
                       body.get("_source"))
        _attach_fields(searcher, resp["hits"]["hits"],
                       body.get("fields"))
        _attach_script_fields(searcher, resp["hits"]["hits"],
                              body.get("script_fields"))
        _apply_tth(searcher, resp, query, body.get("track_total_hits"))
        aggs0 = body.get("aggs", body.get("aggregations"))
        if aggs0:
            resp["aggregations"] = _run_aggs(searcher, aggs0, query)
        return _finish(resp)
    hl = body.get("highlight")
    if hl is not None and query is not None and size > 0:
        # highlight executes the ranked fetch itself (one search, one
        # docstore fetch) — supported for match queries, whose field
        # the fragments come from
        if "match" not in query:
            kind, _ = _one(query, "query")
            raise ValueError(f"highlight under query {kind!r} is not "
                             "supported (use match)")
        f, text, op = _match_text(query)
        want = list((hl.get("fields") or {f: {}}).keys())
        if want != [f]:
            raise ValueError("highlight: only the match query's field "
                             f"({f!r}) is supported, got {want!r}")
        pre = (hl.get("pre_tags") or ["<em>"])[0]
        post = (hl.get("post_tags") or ["</em>"])[0]
        nf = int(hl.get("number_of_fragments", 1))
        if nf > 1:
            frows = searcher.highlight_fragments(
                text, field=f, k=size,
                mode="and" if op == "and" else "or",
                pre_tag=pre, post_tag=post, num_fragments=nf)
            resp["hits"]["hits"] = [
                {"_id": int(d), "_score": float(s),
                 "highlight": {f: frs}}
                for s, d, frs in frows]
        else:
            rows = searcher.highlight(
                text, field=f, k=size,
                mode="and" if op == "and" else "or",
                pre_tag=pre, post_tag=post)
            resp["hits"]["hits"] = [
                {"_id": int(d), "_score": float(s),
                 "highlight": {f: [fr]}}
                for s, d, fr in rows]
        n_hl = len(resp["hits"]["hits"])
        resp["hits"]["total"]["value"] = n_hl
        resp["hits"]["total"]["relation"] = \
            "gte" if n_hl == size else "eq"
    if hl is None and hit_query is not None and size > 0:
        if sa is not None:
            # score-sorted cursor paging: resume strictly after the
            # previous page's (score, doc_id) — no offset cost
            if "match" not in query:
                kind, _ = _one(query, "query")
                raise ValueError(f"search_after: query {kind!r} is not "
                                 "supported (use match)")
            if body.get("collapse") is not None:
                raise ValueError("search_after: not supported with "
                                 "collapse")
            if not (isinstance(sa, (list, tuple)) and len(sa) == 2):
                raise ValueError("search_after: expected "
                                 "[last_score, last_doc_id], got "
                                 f"{sa!r}")
            f, text, op = _match_text(query)
            hits = searcher.search(
                text, field=f, k=size, mode="and" if op == "and"
                else "or", search_after=(float(sa[0]), int(sa[1])))
            out_hits = [{"_id": int(d), "_score": float(s),
                         "sort": [float(s), int(d)]}
                        for s, d in hits]
        else:
            hits = _exec_query(searcher, hit_query, frm + size,
                               collapse=body.get("collapse"))
            out_hits = []
            for h in hits[frm:frm + size]:
                if len(h) == 3:              # collapse: (score, doc, val)
                    out_hits.append({"_id": int(h[1]),
                                     "_score": float(h[0]),
                                     "fields": {body["collapse"]["field"]:
                                                [h[2]]}})
                else:
                    out_hits.append({"_id": int(h[1]),
                                     "_score": float(h[0])})
            cl = body.get("collapse")
            if cl and cl.get("inner_hits") and out_hits:
                # inner_hits: top-N docs per collapsed value (the
                # grouped-results UI).  ONE top_hits pass scores the
                # match set once per value; values on this page pick
                # their group out of it.
                ih = cl["inner_hits"]
                if "match" not in hit_query:
                    raise ValueError("collapse inner_hits: match "
                                     "queries only")
                name = ih.get("name", "inner")
                per = int(ih.get("size", 3))
                f, text, op = _match_text(hit_query)
                groups = dict(searcher.top_hits_aggregation(
                    text, cl["field"], field=f,
                    mode="and" if op == "and" else "or",
                    hits_per_bucket=per))
                for h in out_hits:
                    val = h["fields"][cl["field"]][0]
                    h["inner_hits"] = {name: {"hits": {"hits": [
                        {"_id": int(d), "_score": float(sc)}
                        for sc, d in groups.get(val, [])]}}}
        resp["hits"]["hits"] = out_hits
        resp["hits"]["total"]["value"] = len(out_hits)
        resp["hits"]["total"]["relation"] = \
            "gte" if len(out_hits) == size else "eq"
    if ms is not None:
        # exact on a score-ranked page: docs below min_score form a
        # SUFFIX of the descending ranking, so slice-then-filter ==
        # filter-then-slice
        kept = [h for h in resp["hits"]["hits"]
                if h["_score"] is not None
                and float(h["_score"]) >= float(ms)]
        resp["hits"]["hits"] = kept
        resp["hits"]["total"]["value"] = len(kept)
        # a full page may hide more qualifying hits below rank k; any
        # truncation proves the remainder is below min_score
        resp["hits"]["total"]["relation"] = \
            "gte" if len(kept) == size else "eq"
    _attach_source(searcher, resp["hits"]["hits"], body.get("_source"))
    _attach_fields(searcher, resp["hits"]["hits"], body.get("fields"))
    _attach_script_fields(searcher, resp["hits"]["hits"],
                          body.get("script_fields"))
    if body.get("explain"):
        _attach_explanations(searcher, resp["hits"]["hits"], query)
    _apply_tth(searcher, resp, query, body.get("track_total_hits"))
    aggs = body.get("aggs", body.get("aggregations"))
    if aggs:
        resp["aggregations"] = _run_aggs(searcher, aggs, query)
    return _finish(resp)


def execute_explain(searcher, doc_id: int, body: dict) -> dict:
    """OpenSearch ``GET <index>/_explain/<id>`` parity: the per-term
    BM25 breakdown for ONE document under a match query, shaped like
    the REST response (``matched`` + a nested ``explanation`` whose
    value sums exactly to what ``_search`` would score — pinned by
    :meth:`Searcher.explain`'s tests).  Reference users read this to
    debug detection-rule rankings."""
    query = body.get("query")
    if query is None or "match" not in query:
        raise ValueError("_explain: a match query is required")
    f, text, _op = _match_text(query)
    ex = searcher.explain(text, int(doc_id), field=f)
    details = [
        {"value": float(d.get("score", 0.0)),
         "description": (f"weight({f}:{d['term']}) "
                         f"[df={d['df']}, idf={d['idf']:.6g}"
                         + (f", tf={d['tf']}, dl={d['dl']}]"
                            if d["matched"] else ", no match]")),
         "details": []}
        for d in ex["details"]]
    return {"_id": int(doc_id),
            "matched": ex["matched_terms"] > 0,
            "explanation": {
                "value": float(ex["score"]),
                "description": f"sum of BM25 term scores on {f!r} "
                               f"(n_docs={ex['n_docs']}, "
                               f"avgdl={ex['avgdl']:.6g})",
                "details": details}}


def execute_analyze(body: dict, searcher=None) -> dict:
    """OpenSearch ``POST _analyze`` parity: run one of the engine's
    analyzers over ``text`` (a string or a list of strings) and return
    ``{"tokens": [{"token", "position", "start_offset"?}]}``.  With a
    ``field`` key and a searcher, the field's configured analyzer is
    used (GET <index>/_analyze semantics); otherwise ``analyzer``
    names one of base/code/path/unicode (default code).  Pure driver
    work — nothing distributed moves."""
    from ..analysis import ANALYZERS, POSITIONAL_ANALYZERS
    texts = body.get("text")
    if texts is None:
        raise ValueError("_analyze: 'text' is required")
    if isinstance(texts, str):
        texts = [texts]
    if "field" in body:
        if searcher is None:
            raise ValueError("_analyze: 'field' needs an index "
                             "(searcher) to resolve the analyzer")
        an = searcher._analyzer_for(str(body["field"]),
                                    body.get("analyzer"))
    else:
        an = str(body.get("analyzer", "code"))
    if an not in ANALYZERS:
        raise ValueError(f"_analyze: unknown analyzer {an!r} "
                         f"(have {sorted(ANALYZERS)})")
    out, base = [], 0
    pos_an = POSITIONAL_ANALYZERS.get(an)
    for chunk in texts:
        if pos_an is not None:
            toks, poss = pos_an(str(chunk))
        else:
            toks = ANALYZERS[an](str(chunk))
            poss = list(range(len(toks)))
        for t, p in zip(toks, poss):
            out.append({"token": t, "position": base + int(p)})
        # OpenSearch's position_increment_gap between array elements
        base += (max((int(p) for p in poss), default=-1) + 1 + 100)
    return {"tokens": out}


def execute_mget(searcher, body: dict) -> dict:
    """OpenSearch ``_mget`` parity: bulk stored-document fetch.
    Accepts ``{"ids": [...]}`` or ``{"docs": [{"_id": ...,
    "_source"?: true|[fields]}]}`` and returns ``{"docs": [{"_id",
    "found", "_source"}]}`` in request order (duplicates allowed,
    like OpenSearch).  ONE ``fetch_docs`` round trip covers every id
    — parquet row-group pruned, tombstones excluded — never a
    per-document read."""
    if "ids" in body:
        ids = [int(i) for i in body["ids"]]
        per_doc_cols: list[Any] = [True] * len(ids)
    elif "docs" in body:
        ids, per_doc_cols = [], []
        for d in body["docs"]:
            ids.append(int(d["_id"]))
            per_doc_cols.append(d.get("_source", True))
    else:
        raise ValueError("_mget: expected 'ids' or 'docs'")
    # fetch the union of requested columns once; project per doc
    cols = None
    if all(isinstance(c, list) for c in per_doc_cols) and per_doc_cols:
        union: list[str] = ["doc_id"]
        for c in per_doc_cols:
            union.extend(x for x in c if x not in union)
        cols = union
    t = searcher.fetch_docs(ids, columns=cols) if ids else None
    by_id: dict[int, dict] = {}
    if t is not None:
        for r in t.to_pylist():
            by_id[int(r["doc_id"])] = r
    docs = []
    for i, spec in zip(ids, per_doc_cols):
        row = by_id.get(i)
        src = None
        if row is not None and spec is not False:
            src = {k: v for k, v in row.items()
                   if spec is True or k in spec}
        docs.append({"_id": i, "found": row is not None,
                     "_source": src})
    return {"docs": docs}


def _dbq_ids(searcher, query: dict):
    """LIVE doc ids matching a delete-by-query body.  match / term /
    range nodes collect ids per shard (each shard walks only its own
    postings / filter / range tables); any other supported node falls
    back to the scored executor.  Returns a sorted unique uint64
    array with already-tombstoned ids excluded."""
    import numpy as np

    def _per_shard(method: str, kw: dict) -> list:
        from .searcher import _run_method
        return [int(x) for p in searcher._scatter(_run_method, method, kw)
                for x in p]

    kind, spec = _one(query, "query")
    if kind == "match":
        from ..analysis import ANALYZERS
        f, text, op = _match_text(query)
        an = ANALYZERS[searcher._analyzer_for(f, None)]
        q_terms = an(text)
        ids = [] if not q_terms else _per_shard(
            "_match_ids", dict(field=f, q_terms=q_terms,
                               mode="and" if op == "and" else "or"))
    elif kind == "term":
        f, v = _one(spec, "term")
        if isinstance(v, dict):
            v = v["value"]
        ids = _per_shard("_filter_ids", dict(field=f, value=str(v)))
    elif kind == "range":
        f, bounds = _one(spec, "range")
        if not set(bounds) <= {"gte", "lte"}:
            raise ValueError("_delete_by_query range: only gte/lte "
                             f"bounds are supported, got {bounds!r}")
        ids = _per_shard("_range_ids", dict(field=f,
                                            lo=bounds.get("gte"),
                                            hi=bounds.get("lte")))
    else:
        ids = [int(d) for h in [_exec_query(searcher, query, 1 << 31)]
               for _s, d, *_rest in h]
    arr = np.unique(np.asarray(ids, np.uint64)) if ids else \
        np.zeros(0, np.uint64)
    if arr.size and searcher.tombstones.size:
        arr = arr[~np.isin(arr, searcher.tombstones)]
    return arr


def execute_delete_by_query(searcher, body: dict) -> dict:
    """OpenSearch ``_delete_by_query`` parity — THE retention
    operation (the reference expires old log indexes on a schedule;
    here a range delete on the time field is the same act).  Matching
    LIVE docs are tombstoned (Lucene deleted-doc semantics: excluded
    from every query/fetch immediately, physically removed at the
    next ``compact_index``, df/N keep counting them until then), and
    the live Searcher — driver and every shard actor — refreshes in
    one broadcast round.  Returns ``{"deleted": N, "total": N,
    "tombstones": M}``.  ``match_all`` refuses: dropping the whole
    index is directory removal, not a query."""
    from ..pipelines.build_index import delete_docs
    query = body.get("query")
    if query is None or "match_all" in query:
        raise ValueError("_delete_by_query: match_all would drop the "
                         "whole index — remove the index directory "
                         "instead")
    ids = _dbq_ids(searcher, query)
    before = int(searcher.tombstones.size)
    if ids.size:
        after = delete_docs(searcher.index_dir, ids.tolist())
    else:
        after = before
    searcher.refresh_tombstones()
    return {"deleted": int(after - before), "total": int(ids.size),
            "tombstones": int(after)}


def execute_pattern_dsl(ms, body: dict) -> dict:
    """`_search` against an INDEX PATTERN (a
    :class:`~..state.multisearch.MultiSearcher`): the dashboard slice
    of the request surface — ``match`` / ``match_all`` queries,
    ``size``, ``track_total_hits``, and the aggregation family the
    federation layer merges exactly (terms with metric /
    date_histogram sub-aggs, histogram/date_histogram with metric and
    pipeline sub-aggs, filters).  Hits carry ``_index`` (which
    rotated index each doc lives in).  Anything the pattern layer
    cannot merge exactly raises naming the node — never a silent
    wrong answer."""
    size = int(body.get("size", 10))
    query = body.get("query")
    resp: dict = {"hits": {"total": {"value": 0, "relation": "eq"},
                           "hits": []}}
    ib = body.get("indices_boost")
    if ib is not None:
        # modern list-of-single-pair form or the legacy dict form
        if isinstance(ib, list):
            boosts: dict[str, float] = {}
            for ent in ib:
                (name, factor), = ent.items()
                boosts[name] = float(factor)
        else:
            boosts = {k_: float(v_) for k_, v_ in ib.items()}
    else:
        boosts = None
    if query is not None and "match" in query and size > 0:
        f, text, op = _match_text(query)
        rows = ms.search(text, field=f, k=size,
                         mode="and" if op == "and" else "or",
                         indices_boost=boosts)
        resp["hits"]["hits"] = [
            {"_index": ix, "_id": int(d), "_score": float(sc)}
            for sc, ix, d in rows]
        resp["hits"]["total"]["value"] = len(rows)
        resp["hits"]["total"]["relation"] = \
            "gte" if len(rows) == size else "eq"
    elif query is not None and "bool" in query and size > 0:
        # scored pattern bool: pattern-global dfs round + per-index
        # scoring; filter clauses lower to specs applied inside each
        # index (bit-identical to the flat union index)
        spec = query["bool"]

        def _texts(clauses):
            out = []
            for c in ([clauses] if isinstance(clauses, dict)
                      else clauses or []):
                ck, _cs = _one(c, "bool clause")
                if ck != "match":
                    raise ValueError(f"pattern bool sub-query {ck!r} "
                                     "unsupported (match only)")
                _f, t2, _op = _match_text(c)
                out.append(t2)
            return out
        fspecs = tuple(_filter_clause(c, False, "pattern bool") for c in
                       ([spec["filter"]]
                        if isinstance(spec.get("filter"), dict)
                        else spec.get("filter") or []))
        rows = ms.search_bool(
            must=_texts(spec.get("must")),
            should=_texts(spec.get("should")),
            must_not=_texts(spec.get("must_not")),
            minimum_should_match=spec.get("minimum_should_match"),
            filters=fspecs or None, k=size, indices_boost=boosts)
        resp["hits"]["hits"] = [
            {"_index": ix, "_id": int(d), "_score": float(sc)}
            for sc, ix, d in rows]
        resp["hits"]["total"]["value"] = len(rows)
        resp["hits"]["total"]["relation"] = \
            "gte" if len(rows) == size else "eq"
    elif query is not None and "match" not in query \
            and "match_all" not in query \
            and not ("bool" in query and size == 0):
        kind, _ = _one(query, "query")
        raise ValueError(f"pattern search: query {kind!r} is not "
                         "supported (match / match_all / bool)")
    if body.get("track_total_hits") and query is not None \
            and "match" in query:
        f, text, op = _match_text(query)
        resp["hits"]["total"] = {
            "value": int(ms.match_count(
                text, field=f, mode="and" if op == "and" else "or")),
            "relation": "eq"}
    aggs = body.get("aggs", body.get("aggregations"))
    if aggs:
        try:
            resp["aggregations"] = _run_aggs(ms, aggs, query)
        except AttributeError as exc:
            raise ValueError(
                "pattern search: aggregation not supported by the "
                f"federation layer ({exc})") from None
    return resp


def execute_rank_eval(searcher, body: dict) -> dict:
    """OpenSearch ``_rank_eval`` parity: score ranked requests against
    human ratings.  ``requests`` each carry a `_search` request and a
    ``ratings`` list (``{"_id": doc, "rating": int}``); ``metric`` is
    ONE of ``precision`` / ``recall`` (@k with
    ``relevant_rating_threshold``), ``mean_reciprocal_rank``, or
    ``dcg`` (``normalize: true`` = NDCG against the ideal ordering of
    the RATED docs — the OpenSearch definition).  Each request
    executes through the normal `_search` path (per-shard scoring on
    the doc layout); the evaluation itself is O(k) driver arithmetic.
    Returns ``{"metric_score": mean, "details": {id: {"metric_score",
    "unrated_docs"}}}``."""
    import math
    reqs = body.get("requests") or []
    if not reqs:
        raise ValueError("_rank_eval: needs requests")
    metric = body.get("metric") or {"precision": {}}
    mk, mb = _one(metric, "_rank_eval metric")
    if mk not in ("precision", "recall", "mean_reciprocal_rank",
                  "dcg"):
        raise ValueError(f"_rank_eval: unknown metric {mk!r}")
    k = int(mb.get("k", 10))
    thr = int(mb.get("relevant_rating_threshold", 1))
    details: dict[str, dict] = {}
    scores: list[float] = []
    for req in reqs:
        rid = req.get("id")
        if not rid:
            raise ValueError("_rank_eval: every request needs an id")
        ratings = {int(r["_id"]): int(r["rating"])
                   for r in req.get("ratings", [])}
        resp = execute_dsl(searcher, {**req["request"], "size": k})
        ranked = [int(h["_id"]) for h in resp["hits"]["hits"]]
        unrated = [d for d in ranked if d not in ratings]
        if mk == "precision":
            rel = sum(1 for d in ranked if ratings.get(d, 0) >= thr)
            sc = rel / len(ranked) if ranked else 0.0
        elif mk == "recall":
            rel = sum(1 for d in ranked if ratings.get(d, 0) >= thr)
            total = sum(1 for v in ratings.values() if v >= thr)
            sc = rel / total if total else 0.0
        elif mk == "mean_reciprocal_rank":
            sc = 0.0
            for i, d in enumerate(ranked, start=1):
                if ratings.get(d, 0) >= thr:
                    sc = 1.0 / i
                    break
        else:
            dcg = sum((2 ** ratings.get(d, 0) - 1)
                      / math.log2(i + 1)
                      for i, d in enumerate(ranked, start=1))
            if mb.get("normalize"):
                ideal = sorted(ratings.values(), reverse=True)[:k]
                idcg = sum((2 ** r - 1) / math.log2(i + 1)
                           for i, r in enumerate(ideal, start=1))
                sc = dcg / idcg if idcg else 0.0
            else:
                sc = dcg
        scores.append(sc)
        details[rid] = {"metric_score": sc, "unrated_docs": unrated}
    return {"metric_score": sum(scores) / len(scores),
            "details": details}


def execute_update_by_query(index_dir: str, body: dict) -> dict:
    """OpenSearch ``_update_by_query`` parity — the bulk-mutation API
    (reference operators run it to backfill/correct fields on already
    indexed logs).  ``{"query": ..., "script": {"source": "field =
    <arithmetic>"}}``: matching LIVE docs get ``field`` recomputed by
    the whitelisted-arithmetic compiler over their stored numeric
    columns, then the matched docs are rewritten through the
    documented upsert flow — ``delete_docs`` → ``compact_index`` →
    ``extend_index`` with the updated rows as ONE content-addressed
    generation (exactly what OpenSearch does per doc: delete + fresh
    version; here it's batched, distributed, and replay-convergent).

    Requirements mirror :func:`~..pipelines.build_index.reindex`:
    the index must be built with ``store_source=True`` (the docstore
    is the rebuild source) and an explicit ``doc_id_col``; the target
    must be an existing stored column and never the id/source column.
    Docs where a referenced field is NULL keep their old value and
    count as ``noops`` (painless raises per doc; OpenSearch reports
    them).  Open Searchers are STALE afterwards — reopen.

    Scale note: compact + extend fan out one Ray task per partition;
    cost is proportional to index size, which is intrinsic to the
    operation (every updated doc is a new immutable version), not to
    the match-set size alone."""
    import hashlib
    import json as _json
    import os as _os
    import re as _re

    import numpy as np
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    from ..pipelines.build_index import (compact_index, delete_docs,
                                         extend_index)
    from .searcher import Searcher, compile_metric_expr
    sc = body.get("script")
    src = sc if isinstance(sc, str) else (sc or {}).get("source")
    if not src:
        raise ValueError("_update_by_query: needs script.source")
    m = _re.match(r"^\s*([A-Za-z]\w*)\s*=(?!=)\s*(.+)$", src)
    if not m:
        raise ValueError("_update_by_query: script must be ONE "
                         "assignment 'field = <arithmetic>', got "
                         f"{src!r}")
    target, expr = m.group(1), m.group(2)
    flds = _expr_fields(expr)
    query = body.get("query")
    if query is None or "match_all" in query:
        raise ValueError("_update_by_query: match_all would rewrite "
                         "the whole index — use reindex")

    with open(_os.path.join(index_dir, "INDEX_MANIFEST.json")) as f:
        man = _json.load(f)
    cfg_d = man["config"]
    if not cfg_d.get("store_source"):
        raise ValueError("_update_by_query needs the index built with "
                         "store_source=True (the docstore is the "
                         "rebuild source)")
    id_col = cfg_d.get("doc_id_col")
    if id_col is None:
        raise ValueError("_update_by_query needs an explicit "
                         "doc_id_col index (content-addressed ids "
                         "would change under mutation)")
    protected = {id_col, "doc_id", cfg_d["sha_col"], "content_sha256"}
    if target in protected:
        raise ValueError(f"_update_by_query: target {target!r} is an "
                         "identity/source column")

    s = Searcher(index_dir, use_actors=False)
    try:
        ids = _dbq_ids(s, query)
        if ids.size == 0:
            return {"updated": 0, "noops": 0, "total": 0}
        t = s.fetch_docs(ids.tolist())
    finally:
        s.close()
    if t is None or target not in t.schema.names:
        raise ValueError(f"_update_by_query: target {target!r} is not "
                         "a stored docstore column")
    missing = [f for f in flds if f not in t.schema.names]
    if missing:
        raise ValueError("_update_by_query: script references "
                         f"unstored columns {missing}")

    n = t.num_rows
    have = np.ones(n, dtype=bool)
    bindings: dict = {}
    for f in flds:
        col = t.column(f).to_numpy(zero_copy_only=False).astype(
            np.float64, copy=True)
        have &= ~np.isnan(col)
        bindings[f] = col
    fn = compile_metric_expr(expr, flds)
    new_vals = np.asarray(fn(bindings), dtype=np.float64)
    if new_vals.shape == ():
        new_vals = np.full(n, float(new_vals))
    old = t.column(target).to_numpy(zero_copy_only=False).astype(
        np.float64, copy=True)
    out_vals = np.where(have, new_vals, old)
    # preserve the stored dtype (an int column stays int)
    tgt_type = t.schema.field(target).type
    if _pa.types.is_integer(tgt_type):
        upd = _pa.array(np.round(out_vals).astype(np.int64), tgt_type)
    else:
        upd = _pa.array(out_vals, tgt_type)
    t = t.set_column(t.schema.get_field_index(target), target, upd)
    if id_col not in t.schema.names:
        t = t.append_column(id_col, t.column("doc_id"))

    delete_docs(index_dir, ids.tolist())
    man2 = compact_index(index_dir)
    # the tag folds in the POST-compact lineage hash: a replayed
    # update deletes first, so its (content-identical) generation must
    # re-ingest rather than hit the compacted_from no-op dedup
    payload = hashlib.sha256(
        b"ubq|" + man2["fingerprint"].encode() + _json.dumps(
            {"ids": ids.tolist(), "script": src},
            sort_keys=True).encode()).hexdigest()[:16]
    gdir = _os.path.join(index_dir, "bulk_staging")
    _os.makedirs(gdir, exist_ok=True)
    path = _os.path.join(gdir, f"ubq-{payload}.parquet")
    if not _os.path.exists(path):
        _pq.write_table(t, path)
    extend_index([path], index_dir)
    noops = int(n - int(have.sum()))
    return {"updated": int(n - noops), "noops": noops, "total": int(n)}


def execute_reindex(src_index_dir: str, dest_index_dir: str,
                    body: dict | None = None) -> dict:
    """OpenSearch ``_reindex`` parity — the query-filtered SLICE copy
    (``{"source": {"query": ...}, "dest": {...}}``, the
    copy-an-incident's-docs-to-a-case-index op): matching LIVE docs
    are fetched from the source docstore (one bulk row-group-pruned
    read) and land in the destination as ONE content-addressed
    generation via ``extend_index`` — or, when the destination does
    not exist yet, as a fresh ``build_index`` under the source's own
    config (``doc_id_col`` forced to ``"doc_id"`` so identities
    survive, exactly like :func:`~..pipelines.build_index.reindex`).
    Replay converges: the staging parquet is content-hash named and
    an identical generation re-ingest is a no-op, so OpenSearch's
    ``conflicts: proceed`` semantics hold by construction.

    The FULL-corpus remap-under-a-new-mapping form stays
    ``pipelines.build_index.reindex`` — it streams the docstore
    parquet files as build input and never materializes ids
    driver-side; this API form materializes the match set's ids (and
    only ids + the k result rows), sized for the bounded slice copies
    dashboards and ops runbooks actually issue.  ``script`` is
    refused — mutation is ``_update_by_query``'s job.

    Destination collisions follow OpenSearch's default ``op_type:
    index`` (overwrite): already-live incoming ids are upserted
    through the documented delete -> compact -> extend flow and
    reported as ``updated``.

    Requires the source index built with ``store_source=True`` (the
    docstore is the rebuild source).  Returns ``{"total", "created",
    "updated", "dest_fingerprint"}``."""
    import hashlib
    import json as _json
    import os as _os

    import numpy as np
    import pyarrow.parquet as _pq

    from ..pipelines.build_index import (IndexConfig, build_index,
                                         extend_index)
    from .searcher import Searcher
    body = body or {}
    if "script" in body:
        raise ValueError("_reindex: script is not supported — "
                         "mutation is _update_by_query's job")
    with open(_os.path.join(src_index_dir, "INDEX_MANIFEST.json")) as f:
        man = _json.load(f)
    cfg_d = man["config"]
    if not cfg_d.get("store_source"):
        raise ValueError("_reindex needs the source index built with "
                         "store_source=True (the docstore keeps only "
                         "content_sha256 otherwise)")
    query = (body.get("source") or {}).get("query")
    s = Searcher(src_index_dir, use_actors=False)
    try:
        if query is None or "match_all" in (query or {}):
            # full live-id listing: ONE pruned doc_id column read per
            # docstore file, tombstones excluded (ids only — the
            # streaming full-remap path is pipelines.reindex)
            import glob as _glob
            parts = [_pq.read_table(p, columns=["doc_id"])
                     .column("doc_id").to_numpy(zero_copy_only=False)
                     for p in sorted(_glob.glob(_os.path.join(
                         src_index_dir, "docstore", "*.parquet")))]
            ids = np.unique(np.concatenate(parts).astype(np.uint64)) \
                if parts else np.zeros(0, np.uint64)
            if ids.size and s.tombstones.size:
                ids = ids[~np.isin(ids, s.tombstones)]
        else:
            ids = _dbq_ids(s, query)
        if ids.size == 0:
            return {"total": 0, "created": 0, "dest_fingerprint": None}
        t = s.fetch_docs(ids.tolist())
    finally:
        s.close()

    payload = hashlib.sha256(
        b"reindex|" + man["fingerprint"].encode() +
        _json.dumps(sorted(int(i) for i in ids)).encode()
    ).hexdigest()[:16]
    gdir = _os.path.join(src_index_dir, "reindex_staging")
    _os.makedirs(gdir, exist_ok=True)
    path = _os.path.join(gdir, f"ri-{payload}.parquet")
    if not _os.path.exists(path):
        _pq.write_table(t, path)

    updated = 0
    if _os.path.exists(_os.path.join(dest_index_dir,
                                     "INDEX_MANIFEST.json")):
        with open(_os.path.join(dest_index_dir,
                                "INDEX_MANIFEST.json")) as f:
            dman = _json.load(f)
        if dman["config"].get("doc_id_col") is None:
            raise ValueError("_reindex: destination derives "
                             "content-addressed ids — identities "
                             "would not survive; reindex into an "
                             "explicit-id (doc_id_col) index")
        # OpenSearch _reindex default op_type is "index" (overwrite):
        # incoming ids that are already live (or tombstoned) in the
        # destination go through the documented upsert flow —
        # delete colliders -> compact (physical removal, clears
        # tombstones) -> extend.  Skipped entirely when the staging
        # generation was already ingested (replay no-op).
        from ..pipelines.build_index import (compact_index, delete_docs,
                                             input_fingerprint)
        dcfg = IndexConfig(**{k: (tuple(tuple(x) if isinstance(x, list)
                                        else x for x in v)
                                  if isinstance(v, list) else v)
                              for k, v in dman["config"].items()})
        genfp = input_fingerprint([path], dcfg)
        seen = ({dman["fingerprint"]} | set(dman.get("generations", {}))
                | set(dman.get("compacted_from", [])))
        if genfp not in seen:
            d = Searcher(dest_index_dir, use_actors=False)
            try:
                live = d.fetch_docs([int(i) for i in ids],
                                    columns=["doc_id"])
                collide = [] if live is None else \
                    [int(x) for x in live.column("doc_id").to_pylist()]
                had_tombs = bool(d.tombstones.size and np.isin(
                    ids, d.tombstones).any())
            finally:
                d.close()
            if collide:
                delete_docs(dest_index_dir, collide)
            if collide or had_tombs:
                compact_index(dest_index_dir)
            updated = len(collide)
        dest_man = extend_index([path], dest_index_dir)
    else:
        import dataclasses
        cfg = IndexConfig(**{k: (tuple(tuple(x) if isinstance(x, list)
                                       else x for x in v)
                                 if isinstance(v, list) else v)
                             for k, v in cfg_d.items()})
        cfg = dataclasses.replace(cfg, doc_id_col="doc_id")
        dest_man = build_index([path], dest_index_dir, cfg,
                               resume=True)
    n = int(ids.size)
    return {"total": n, "created": n - updated, "updated": updated,
            "dest_fingerprint": dest_man.get("fingerprint")}


def execute_bulk(index_dir: str, lines: list[dict]) -> dict:
    """OpenSearch ``_bulk`` parity — THE reference write path (its
    es-loader ships every parsed log batch as one `_bulk` request,
    reference siem/index.py bulk loop).  ``lines`` is the parsed
    NDJSON stream: ``{"index"|"create": {"_id": N}}`` followed by the
    document source object, or a standalone ``{"delete": {"_id": N}}``.

    Index actions become ONE new content-addressed GENERATION
    (``extend_index``: postings built by the distributed Ray Data
    passes, read back through the existing multi-run merge — query
    paths unchanged), so a 10k-doc bulk costs one incremental build,
    never 10k point writes.  The staging parquet is named by content
    hash and never rewritten, so replaying the same bulk is a no-op
    (``result: "noop"``).  Delete actions tombstone (Lucene
    deleted-doc semantics).  Same-id index+delete in one request
    raises — the engine's upsert flow is explicit (delete ->
    compact -> extend), there is no last-writer-wins.  A live
    Searcher sees the new generation on reopen (the OpenSearch
    refresh analogue); deletes alone can be re-armed in place with
    ``Searcher.refresh_tombstones``.

    Ids follow the INDEX's identity scheme: an explicit-id index
    (``doc_id_col``) requires ``_id`` on every index/create action; a
    content-addressed index (``doc_id_col=None``) REFUSES ``_id`` and
    derives the id from the doc's ``id_cols`` exactly as the build
    does (the M10 invariant), reporting the derived ``_id`` back.

    Returns ``{"errors": bool, "items": [...]}`` in request order."""
    import hashlib
    import json as _json
    import os as _os

    import numpy as np
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    from ..pipelines.build_index import delete_docs, extend_index
    with open(_os.path.join(index_dir, "INDEX_MANIFEST.json")) as f:
        man = _json.load(f)
    cfg_d = man["config"]
    id_col = cfg_d["doc_id_col"]
    id_cols = tuple(cfg_d.get("id_cols") or ())

    docs: list[tuple[int, dict]] = []
    dels: list[int] = []
    order: list[tuple[str, int]] = []      # (kind, id) per action
    i = 0
    while i < len(lines):
        ln = lines[i]
        kind, meta = _one(ln, "_bulk action")
        if kind in ("index", "create"):
            if i + 1 >= len(lines) or not isinstance(lines[i + 1], dict):
                raise ValueError(f"_bulk: {kind} action at line {i} "
                                 "has no source line")
            src = dict(lines[i + 1])
            if id_col is not None:
                if "_id" not in meta:
                    raise ValueError("_bulk: this index uses an "
                                     f"explicit id column ({id_col!r})"
                                     " — index/create need an _id")
                did = int(meta["_id"])
            else:
                if "_id" in meta:
                    raise ValueError("_bulk: this index derives "
                                     "content-addressed ids from "
                                     f"id_cols {id_cols} — omit _id")
                missing = [c for c in id_cols if c not in src]
                if missing:
                    raise ValueError("_bulk: source is missing id_cols "
                                     f"{missing}")
                from ..stages.docprep import _doc_id_from_key
                did = _doc_id_from_key(tuple(str(src[c])
                                             for c in id_cols))
            docs.append((did, src))
            order.append(("index", did))
            i += 2
        elif kind == "delete":
            did = int(meta["_id"])
            dels.append(did)
            order.append(("delete", did))
            i += 1
        else:
            raise ValueError(f"_bulk: unsupported action {kind!r} "
                             "(index/create/delete)")
    both = {d for d, _ in docs} & set(dels)
    if both:
        raise ValueError(f"_bulk: ids {sorted(both)} appear in both "
                         "index and delete actions — upsert is the "
                         "explicit delete -> compact_index -> "
                         "extend_index flow")

    noop = False
    if docs:
        rows = [({id_col: did, **src} if id_col is not None else src)
                for did, src in docs]
        cols = sorted({k for r in rows for k in r})
        tbl = _pa.table({c: [r.get(c) for r in rows] for c in cols})
        payload = _json.dumps(rows, sort_keys=True).encode()
        tag = hashlib.sha256(payload).hexdigest()[:16]
        gdir = _os.path.join(index_dir, "bulk_staging")
        _os.makedirs(gdir, exist_ok=True)
        path = _os.path.join(gdir, f"bulk-{tag}.parquet")
        if not _os.path.exists(path):
            # content-addressed: never rewritten, so the mtime-keyed
            # generation fingerprint stays stable across replays
            _pq.write_table(tbl, path)
        else:
            noop = True
        gens_before = set(man.get("generations", {}))
        man2 = extend_index([path], index_dir)
        noop = noop and set(man2.get("generations", {})) == gens_before

    found: set[int] = set()
    if dels:
        from .shard import load_tombstones
        tombs = load_tombstones(index_dir)
        live = [d for d in sorted(set(dels))
                if not (tombs.size
                        and np.isin(np.uint64(d), tombs))]
        if live:
            dsdir = _os.path.join(index_dir, "docstore")
            for fn in sorted(_os.listdir(dsdir)):
                if not fn.endswith(".parquet"):
                    continue
                t = _pq.read_table(
                    _os.path.join(dsdir, fn), columns=["doc_id"],
                    filters=[("doc_id", "in", live)])
                found.update(int(x) for x in t.column("doc_id").to_pylist())
        if found:
            delete_docs(index_dir, sorted(found))

    items = []
    for kind, did in order:
        if kind == "index":
            items.append({"index": {"_id": did,
                                    "result": "noop" if noop
                                    else "created"}})
        else:
            items.append({"delete": {"_id": did,
                                     "result": "deleted" if did in found
                                     else "not_found"}})
    return {"errors": False, "items": items}


def _scroll_token(state: dict) -> str:
    import base64
    import json
    return base64.urlsafe_b64encode(
        json.dumps(state, separators=(",", ":")).encode()).decode()


def _scroll_state(token: str) -> dict:
    import base64
    import json
    try:
        st = json.loads(base64.urlsafe_b64decode(token.encode()))
    except Exception as exc:
        raise ValueError(f"invalid scroll_id: {exc}") from None
    if not isinstance(st, dict) or "b" not in st:
        raise ValueError("invalid scroll_id: not a scroll state")
    return st


def execute_scroll_search(searcher, body: dict) -> dict:
    """Open a scroll (`_search?scroll=...`): the first page plus a
    ``_scroll_id``.  The id is a STATELESS cursor — a base64 token
    carrying the original body and the last hit's sort key — so a
    continuation lowers onto the ``search_after`` machinery: every
    page costs the same as page 1 (per-shard bisect / strictly-after
    resume), nothing is pinned server-side, and any coordinator can
    serve any page (the multi-node property OpenSearch's stateful
    scroll contexts famously lack; OpenSearch itself now recommends
    exactly this search_after shape for deep paging).

    Supported openings: a ``match`` query (score-ordered scroll) or
    any ``sort``-carrying body the `_search` path accepts (match /
    match_all + ONE field sort).  ``aggs``/``from``/``search_after``
    in the opening body raise — OpenSearch ignores them on
    continuations, which is a silent-wrong-answer shape."""
    if body.get("from") or body.get("search_after") is not None \
            or body.get("aggs") or body.get("aggregations"):
        raise ValueError("scroll: from/search_after/aggs are not "
                         "supported in a scroll body")
    srt = body.get("sort")
    if srt in ("_score", ["_score"]):
        srt = None
    query = body.get("query")
    if srt is None and (query is None or "match" not in query):
        kind = "match_all" if query is None else _one(query, "query")[0]
        raise ValueError(
            f"scroll: score-ordered scroll needs a match query (got "
            f"{kind!r}); scroll match_all with an explicit sort")
    resp = execute_dsl(searcher, body)
    return _scroll_attach(resp, {"b": body})


def execute_scroll(searcher, body: dict) -> dict:
    """Continue a scroll (`_search/scroll`):
    ``{"scroll_id": token}`` -> the next page + a fresh token.  A page
    past the end returns empty hits with a terminal token (the client
    stop condition, as in OpenSearch)."""
    token = body["scroll_id"] if isinstance(body, dict) else body
    st = _scroll_state(token)
    if "after" not in st:            # terminal: previous page ended
        resp = {"hits": {"total": {"value": 0, "relation": "eq"},
                         "hits": []}}
        resp["_scroll_id"] = token
        return resp
    nxt = dict(st["b"])
    nxt["search_after"] = st["after"]
    resp = execute_dsl(searcher, nxt)
    return _scroll_attach(resp, {"b": st["b"]})


def _scroll_attach(resp: dict, state: dict) -> dict:
    hits = resp["hits"]["hits"]
    if hits:
        last = hits[-1]
        state["after"] = (last["sort"] if "sort" in last
                          else [last["_score"], last["_id"]])
    resp["_scroll_id"] = _scroll_token(state)
    return resp


def execute_mtermvectors(searcher, body: dict) -> dict:
    """OpenSearch ``_mtermvectors``: ``{"ids": […]}`` or
    ``{"docs": [{"_id": …}, …]}`` (+ optional ``"fields": [one]``) —
    term vectors for many docs via ONE batched docstore read."""
    if "ids" in body:
        ids = [int(x) for x in body["ids"]]
    else:
        ids = [int(d["_id"]) for d in body.get("docs", [])]
    fields = body.get("fields") or ["content"]
    if len(fields) != 1:
        raise ValueError("_mtermvectors: exactly one field supported")
    field = fields[0]
    vecs = searcher.multi_term_vectors(ids, field=field)
    docs = []
    for i in ids:
        rows = vecs.get(i)
        entry: dict = {"_id": i, "found": rows is not None}
        if rows is not None:
            entry["term_vectors"] = {field: {"terms": {
                t: {"term_freq": tf, "positions": [first]}
                for t, tf, first in rows}}}
        docs.append(entry)
    return {"docs": docs}


def execute_open_pit(searcher) -> dict:
    """``POST /<index>/_search/point_in_time`` — open a PIT over the
    searcher's index and return its id (server-side state under
    ``<index>/pits/``; see `state/pit.py`)."""
    from .pit import open_pit
    return {"pit_id": open_pit(searcher.index_dir)}


def execute_close_pit(searcher, body: dict) -> dict:
    """``DELETE /_search/point_in_time`` — body ``{"pit_id": id}`` or
    ``{"pit_id": [ids…]}``; reports how many were actually freed."""
    from .pit import close_pit
    ids = body.get("pit_id")
    ids = [ids] if isinstance(ids, str) else list(ids or [])
    freed = sum(close_pit(searcher.index_dir, p) for p in ids)
    return {"succeeded": True, "num_freed": int(freed)}


def execute_field_caps(searcher, fields: list[str] | None = None
                       ) -> dict:
    """The ``_field_caps`` API: per-field type / searchable /
    aggregatable from the index manifest — one metadata read, never
    touches postings.  Types mirror the engine's storage classes:
    text fields carry postings (searchable, not aggregatable),
    keyword fields carry packed filter postings (both), range fields
    are value-sorted numeric tables (both; reported ``double``),
    vector fields are the exact-kNN sidecar.  ``fields`` filters with
    ``*`` wildcards like OpenSearch."""
    cfg = searcher.manifest["config"]
    caps: dict[str, dict] = {}

    def put(name: str, typ: str, agg: bool) -> None:
        caps.setdefault(name, {})[typ] = {
            "type": typ, "searchable": True, "aggregatable": agg}
    for name, _col, _an in (cfg.get("fields") or ()):
        put(name, "text", False)
    for name in (cfg.get("keyword_fields") or ()):
        put(name, "keyword", True)
    for name in (cfg.get("range_fields") or ()):
        put(name, "double", True)
    for name in (cfg.get("vector_fields") or ()):
        put(name, "knn_vector", False)
    if fields:
        import fnmatch
        keep = sorted(f for f in caps
                      if any(fnmatch.fnmatchcase(f, pat)
                             for pat in fields))
        caps = {f: caps[f] for f in keep}
    return {"fields": caps}


def execute_validate(searcher, body: dict) -> dict:
    """The ``_validate/query`` API.  The engine interleaves query
    translation with execution, so validation probes the body at
    ``size: 1`` — every unsupported or malformed construct surfaces
    as the same ValueError the real request would raise (the
    never-a-silent-wrong-answer contract doubles as the validator).
    ``explain: true`` carries the error text back."""
    query = body.get("query")
    if query is None:
        return {"valid": True}
    try:
        execute_dsl(searcher, {"query": query, "size": 1})
        return {"valid": True}
    except (ValueError, KeyError, TypeError) as exc:
        out: dict = {"valid": False}
        if body.get("explain"):
            out["error"] = f"{type(exc).__name__}: {exc}"
        return out


def render_search_template(source, params: dict | None) -> dict:
    """Mustache-subset render for `_search/template`:
    ``{{var}}`` substitutes a scalar (strings JSON-escaped, numbers /
    bools bare — so ``"size": {{n}}`` works in a raw-string template)
    and ``{{#toJson}}var{{/toJson}}`` substitutes any JSON value.
    Missing variables render empty — the mustache contract OpenSearch
    inherits.  ``source`` may be a raw template string or an object
    (serialized first, as OpenSearch does)."""
    import json as _json
    import re as _re
    raw = source if isinstance(source, str) else _json.dumps(source)
    p = params or {}

    def _tojson(m):
        return _json.dumps(p.get(m.group(1)))

    def _scalar(m):
        v = p.get(m.group(1))
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, float)):
            return _json.dumps(v)
        return _json.dumps(str(v))[1:-1]
    raw = _re.sub(r"\{\{#toJson\}\}\s*([\w.]+)\s*\{\{/toJson\}\}",
                  _tojson, raw)
    raw = _re.sub(r"\{\{([\w.]+)\}\}", _scalar, raw)
    try:
        return _json.loads(raw)
    except Exception as exc:
        raise ValueError(
            f"search template did not render to JSON: {exc}") from None


def _scripts_path(index_dir: str) -> str:
    import os
    return os.path.join(index_dir, "scripts.json")


def put_script(index_dir: str, script_id: str, source: str) -> dict:
    """``PUT _scripts/<id>`` parity: store a mustache search template
    next to the index (atomic JSON registry write — O(1) metadata).
    The stored source is validated by rendering it with empty
    params-tolerant parsing at read time, not here (OpenSearch also
    stores templates unrendered)."""
    import json
    import os
    path = _scripts_path(index_dir)
    scripts: dict[str, str] = {}
    if os.path.exists(path):
        with open(path) as f:
            scripts = json.load(f)
    scripts[script_id] = source
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(scripts, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return {"acknowledged": True}


def get_script(index_dir: str, script_id: str) -> str:
    """``GET _scripts/<id>``: the stored template source; missing ids
    raise (OpenSearch 404s)."""
    import json
    import os
    path = _scripts_path(index_dir)
    if os.path.exists(path):
        with open(path) as f:
            scripts = json.load(f)
        if script_id in scripts:
            return scripts[script_id]
    raise ValueError(f"stored script {script_id!r} not found")


def execute_search_template(searcher, body: dict) -> dict:
    """The ``_search/template`` API: render the mustache template —
    inline ``source`` or a stored-script ``id`` (PUT via
    :func:`put_script`, registry next to the index) — with
    ``params``, then execute the rendered body as a normal `_search`
    request."""
    if "id" in body:
        if "source" in body:
            raise ValueError("search template: give source OR id")
        src = get_script(searcher.index_dir, body["id"])
    else:
        src = body["source"]
    return execute_dsl(searcher,
                       render_search_template(src, body.get("params")))
