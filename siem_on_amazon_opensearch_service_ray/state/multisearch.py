"""Federated search over SEVERAL index directories — OpenSearch
index-pattern parity (the reference's dashboards all query patterns
like ``log-aws-*`` that span daily/monthly rotated indexes; every
saved object names an index-pattern, not an index:
source/saved_objects/*/each-indexpattern-*.ndjson).

``MultiSearcher([dirA, dirB, ...])`` is exactly the engine's
doc-shard contract lifted one level: each index scores only its own
documents, but with PATTERN-GLOBAL statistics — one dfs round sums
per-term df and n_docs over every index, and avgdl blends from the
summed total_tf, so scores are bit-identical to a single flat index
over the union corpus (asserted by the ``search_index_pattern``
oracle against the flat SQL twin).  Only each index's top-k rows
travel to the coordinator; an index's own doc-sharded actor pool
keeps working underneath (stats/idf ride the ``_exec_doc_sharded``
override channel), so the execution tree is pattern → index → shard with
partial results merging at each level — the OpenSearch
coordinator/data-node shape.

Aggregations federate by partial-merge (counts and histogram bins
sum; no statistics round needed).  ``resolve_pattern`` expands a
glob like ``log-2024-*`` against a root directory, accepting only
directories that carry an ``INDEX_MANIFEST.json``.
"""

from __future__ import annotations

import fnmatch
import os

__all__ = ["MultiSearcher", "resolve_pattern", "execute_aliases",
           "get_aliases", "resolve_alias", "cat_indices"]


def cat_indices(root: str, pattern: str = "*") -> list[dict]:
    """OpenSearch ``_cat/indices`` over a root of indexes: one row
    per index with docs.count (live = n_docs - tombstones),
    docs.deleted, store.size bytes, pri (partition count) and the
    aliases pointing at it — pure manifest/metadata reads, no data
    touched."""
    import json
    rows = []
    aliases = get_aliases(root)
    for p in resolve_pattern(root, pattern):
        name = os.path.basename(p)
        with open(os.path.join(p, "INDEX_MANIFEST.json")) as f:
            man = json.load(f)
        tomb = os.path.join(p, "tombstones.parquet")
        deleted = 0
        if os.path.exists(tomb):
            import pyarrow.parquet as pq
            deleted = pq.read_metadata(tomb).num_rows
        size = 0
        for sub in ("segments", "docstore", "filters"):
            d = os.path.join(p, sub)
            if os.path.isdir(d):
                size += sum(os.path.getsize(os.path.join(d, fn))
                            for fn in os.listdir(d)
                            if os.path.isfile(os.path.join(d, fn)))
        rows.append({
            "index": name,
            "docs.count": int(man["stats"]["n_docs"]) - deleted,
            "docs.deleted": int(deleted),
            "store.size": int(size),
            "pri": int(man["config"]["num_partitions"]),
            "aliases": sorted(a for a, ixs in aliases.items()
                              if name in ixs),
        })
    return rows


def resolve_pattern(root: str, pattern: str) -> list[str]:
    """Expand an index pattern against ``root``: sorted directories
    whose basename matches ``pattern`` (fnmatch: ``*``/``?``) and
    that contain an ``INDEX_MANIFEST.json`` (i.e. are indexes)."""
    out = []
    for name in sorted(os.listdir(root)):
        p = os.path.join(root, name)
        if fnmatch.fnmatch(name, pattern) and os.path.isfile(
                os.path.join(p, "INDEX_MANIFEST.json")):
            out.append(p)
    return out


_ALIASES_FILE = "aliases.json"


def get_aliases(root: str) -> dict[str, list[str]]:
    """The alias registry of ``root`` (a directory of indexes):
    ``{alias: [index_basename, ...]}``.  Stored as ``aliases.json``
    next to the indexes — O(1) metadata, the OpenSearch `_aliases`
    GET shape."""
    import json
    path = os.path.join(root, _ALIASES_FILE)
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def cat_aliases(root: str) -> list[dict]:
    """OpenSearch ``_cat/aliases``: one flat row per (alias, index)
    pair, alias-then-index sorted — the tabular view of the registry
    ``get_aliases`` returns nested."""
    return [{"alias": a, "index": i}
            for a in sorted(get_aliases(root))
            for i in sorted(get_aliases(root)[a])]


def cat_count(root: str, pattern: str = "*") -> dict:
    """OpenSearch ``_cat/count`` / ``GET <pattern>/_count`` without a
    query: total LIVE docs (n_docs - tombstones) across every index
    the pattern resolves to — pure manifest/metadata reads."""
    total = 0
    for row in cat_indices(root, pattern):
        total += int(row["docs.count"])
    return {"count": int(total)}


def resolve_index(root: str, expression: str = "*") -> dict:
    """OpenSearch ``GET _resolve/index/<expression>``: which concrete
    indexes and aliases the expression names — metadata only."""
    import fnmatch
    names = sorted(os.path.basename(p)
                   for p in resolve_pattern(root, expression))
    aliases = get_aliases(root)
    return {
        "indices": [{"name": n, "attributes": ["open"]} for n in names],
        "aliases": [{"name": a, "indices": sorted(ixs)}
                    for a, ixs in sorted(aliases.items())
                    if fnmatch.fnmatch(a, expression)],
        "data_streams": [],
    }


def cat_shards(root: str, pattern: str = "*") -> list[dict]:
    """OpenSearch ``_cat/shards``: one row per (index, partition) with
    its doc count and store bytes — read from the per-partition build
    manifests (`state/stats`), no data touched.  Every shard reports
    ``prirep='p'`` / ``state='STARTED'`` (the engine has no replicas;
    durability is the object store's job at scale)."""
    from .stats import docstore_stats, index_stats
    rows: list[dict] = []
    for p in resolve_pattern(root, pattern):
        name = os.path.basename(p)
        seg = index_stats(p).set_index("part")
        docs_by_part: dict[int, int] = {}
        store = docstore_stats(p)
        if len(store):
            for path, nrows in zip(store["path"], store["rows"]):
                base = os.path.basename(str(path))
                try:
                    part = int(base.split("-")[1].split(".")[0].
                               split("-")[0])
                except (IndexError, ValueError):
                    continue
                docs_by_part[part] = docs_by_part.get(part, 0) \
                    + int(nrows)
        for part in sorted(set(seg.index) | set(docs_by_part)):
            b = int(seg.loc[part, "bytes"]) if part in seg.index else 0
            rows.append({"index": name, "shard": int(part),
                         "prirep": "p", "state": "STARTED",
                         "docs": int(docs_by_part.get(part, 0)),
                         "store": b})
    return rows


def cluster_health(root: str) -> dict:
    """OpenSearch ``_cluster/health`` over a root of indexes: always
    green (every shard of every index is a readable parquet layout or
    the build would have failed), with the active-shard census."""
    idx = resolve_pattern(root, "*")
    shards = cat_shards(root, "*")
    return {
        "status": "green",
        "number_of_indices": len(idx),
        "active_primary_shards": len(shards),
        "active_shards": len(shards),
        "unassigned_shards": 0,
        "relocating_shards": 0,
        "initializing_shards": 0,
    }


def execute_aliases(root: str, body: dict) -> dict:
    """OpenSearch ``POST _aliases`` parity: atomic add/remove actions
    over the registry.  ``add`` accepts an exact index basename or a
    pattern (expanded against the live indexes AT ADD TIME, the
    OpenSearch wildcard-add snapshot semantics); ``remove`` drops the
    named index from the alias (missing pair raises — OpenSearch
    404s).  The rollover pattern is exactly this: add the new index,
    remove the old, one atomic action list."""
    import json
    aliases = get_aliases(root)
    for act in body.get("actions", []):
        if len(act) != 1:
            raise ValueError("_aliases: each action is one "
                             "add/remove object")
        kind, spec = next(iter(act.items()))
        alias = spec["alias"]
        idx = spec["index"]
        if kind == "add":
            if any(ch in idx for ch in "*?"):
                names = [os.path.basename(p) for p in
                         resolve_pattern(root, idx)]
                if not names:
                    raise ValueError(f"_aliases add: pattern {idx!r} "
                                     "matches no index")
            else:
                if not os.path.isfile(os.path.join(
                        root, idx, "INDEX_MANIFEST.json")):
                    raise ValueError(f"_aliases add: no index {idx!r} "
                                     f"under {root}")
                names = [idx]
            cur = aliases.setdefault(alias, [])
            cur.extend(n for n in names if n not in cur)
        elif kind == "remove":
            if alias not in aliases or idx not in aliases[alias]:
                raise ValueError(f"_aliases remove: {idx!r} is not in "
                                 f"alias {alias!r}")
            aliases[alias].remove(idx)
            if not aliases[alias]:
                del aliases[alias]
        else:
            raise ValueError(f"_aliases: unknown action {kind!r}")
    tmp = os.path.join(root, _ALIASES_FILE + ".tmp")
    with open(tmp, "w") as f:
        json.dump(aliases, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(root, _ALIASES_FILE))
    return {"acknowledged": True, "aliases": aliases}


def resolve_alias(root: str, name: str) -> list[str]:
    """Index directories behind ``name``: an alias from the registry,
    else a pattern, else the bare index directory."""
    aliases = get_aliases(root)
    if name in aliases:
        return [os.path.join(root, n) for n in aliases[name]]
    if any(ch in name for ch in "*?"):
        return resolve_pattern(root, name)
    p = os.path.join(root, name)
    if os.path.isfile(os.path.join(p, "INDEX_MANIFEST.json")):
        return [p]
    return []


class MultiSearcher:
    """See module docstring.  ``use_actors`` passes through to each
    per-index Searcher (doc-partitioned indexes then keep their shard
    actor pools; the federation only adds one merge level)."""

    # duck-compat with the DSL layer's routing probe: the federation
    # coordinator itself is never doc-sharded (each member index is)
    use_actors = False

    def __init__(self, index_dirs: list[str], use_actors: bool = False):
        from .searcher import Searcher
        if not index_dirs:
            raise ValueError("MultiSearcher needs at least one index")
        self.searchers: dict[str, "Searcher"] = {}
        for d in index_dirs:
            name = os.path.basename(d.rstrip("/"))
            if name in self.searchers:
                raise ValueError(f"duplicate index basename {name!r}")
            self.searchers[name] = Searcher(d, use_actors=use_actors)

    def close(self) -> None:
        for s in self.searchers.values():
            s.close()

    # -- pattern-global statistics (the cross-index dfs round) -------

    def _global(self, field: str, terms: list[str]
                ) -> tuple[int, float, dict[str, float]]:
        """(n_docs, avgdl, idf-by-term) over the WHOLE pattern: df and
        n_docs sum across indexes, avgdl = summed total_tf / summed
        n_docs — one metadata round, no postings move."""
        from .searcher import idf_fn
        uniq = list(dict.fromkeys(terms))
        n = 0
        tf = 0.0
        dfs: dict[str, int] = {t: 0 for t in uniq}
        for s in self.searchers.values():
            n += int(s.stats["n_docs"])
            tf += float(s.stats["total_tf"].get(field, 0.0))
            if uniq:
                for t, df in s._term_dfs(field, uniq).items():
                    dfs[t] += int(df)
        avgdl = tf / n if n else 0.0
        idf = {t: float(idf_fn(dfs[t], n)) for t in uniq}
        return n, avgdl, idf

    def _scored(self, method: str, kwargs: dict, k: int, field: str,
                terms: list[str],
                boosts: dict[str, float] | None = None
                ) -> list[tuple[float, str, int]]:
        """Run a scoring method per index under pattern-global stats
        and merge: returns [(score, index_name, doc_id)] sorted
        (score desc, doc_id asc, index asc) top-k.  ``boosts``
        (OpenSearch ``indices_boost``) multiplies each index's scores
        before the merge — a per-index monotone transform, so merging
        the per-index (unboosted-rank) top-k stays exact."""
        n, avgdl, idf = self._global(field, terms)
        rows: list[tuple[float, str, int]] = []
        for name, s in self.searchers.items():
            ov = {"n_docs": n,
                  "avgdl": {**s.stats["avgdl"], field: avgdl}}
            hits = s._exec_doc_sharded(method, kwargs, k, idf=idf,
                                       stats_override=ov, field=field)
            bf = float(boosts.get(name, 1.0)) if boosts else 1.0
            rows.extend((float(sc) * bf, name, int(d))
                        for sc, d in hits)
        rows.sort(key=lambda t: (-t[0], t[2], t[1]))
        return rows[:k]

    # -- query surface ------------------------------------------------

    def search(self, query: str, field: str = "content", k: int = 10,
               mode: str = "or",
               indices_boost: dict[str, float] | None = None
               ) -> list[tuple[float, str, int]]:
        """Pattern-wide BM25 top-k: [(score, index, doc_id)] — scores
        bit-identical to one flat index over the union corpus (then
        per-index ``indices_boost`` multipliers, when given)."""
        from ..analysis import ANALYZERS
        s0 = next(iter(self.searchers.values()))
        terms = ANALYZERS[s0._analyzer_for(field, None)](query)
        if not terms:
            return []
        if indices_boost:
            unknown = set(indices_boost) - set(self.searchers)
            if unknown:
                raise ValueError(f"indices_boost names unknown "
                                 f"indexes: {sorted(unknown)}")
        return self._scored(
            "search", dict(query=query, field=field, k=k, mode=mode),
            k, field, terms, boosts=indices_boost)

    def search_bool(self, must=None, should=None, must_not=None,
                    field: str = "content", k: int = 10,
                    minimum_should_match: int | None = None,
                    filters=None,
                    indices_boost: dict[str, float] | None = None
                    ) -> list[tuple[float, str, int]]:
        """Pattern-wide scored bool (+ optional filter specs): each
        index scores under pattern-global stats (one dfs round over
        the must/should terms), filters/must_not apply inside each
        index against its own filter tables — [(score, index,
        doc_id)], bit-identical to one flat union index."""
        from ..analysis import ANALYZERS
        s0 = next(iter(self.searchers.values()))
        an = ANALYZERS[s0._analyzer_for(field, None)]
        terms = [t for s_ in (must or []) + (should or [])
                 for t in an(s_)]
        if not terms:
            raise ValueError("bool query needs at least one scoring "
                             "(must/should) clause")
        if indices_boost:
            unknown = set(indices_boost) - set(self.searchers)
            if unknown:
                raise ValueError(f"indices_boost names unknown "
                                 f"indexes: {sorted(unknown)}")
        return self._scored(
            "search_bool",
            dict(must=must, should=should, must_not=must_not,
                 field=field, k=k,
                 minimum_should_match=minimum_should_match,
                 filters=filters),
            k, field, terms, boosts=indices_boost)

    def match_count(self, query: str, field: str = "content",
                    mode: str = "or") -> int:
        """Exact pattern-wide match count — one int per index."""
        return sum(int(s.match_count(query, field=field, mode=mode))
                   for s in self.searchers.values())

    def terms_aggregation(self, query: str, agg_field: str,
                          field: str = "content", mode: str = "or"
                          ) -> list[tuple[str, int]]:
        """Pattern-wide terms agg: per-index bucket counts sum (counts
        need no statistics round), sorted (count desc, value asc)."""
        merged: dict[str, int] = {}
        for s in self.searchers.values():
            for v, c in s.terms_aggregation(query, agg_field, field,
                                            mode):
                merged[v] = merged.get(v, 0) + int(c)
        return sorted(merged.items(), key=lambda t: (-t[1], t[0]))

    def terms_stats_aggregation(self, query: str, agg_field: str,
                                range_field: str,
                                field: str = "content",
                                mode: str = "or"
                                ) -> list[tuple[str, int, float, float,
                                                float, float]]:
        """Pattern-wide terms+stats: per-index mergeable moments sum
        (count/sum add, min/max fold), avg recomputed at the end."""
        merged: dict[str, tuple[int, float, float, float]] = {}
        for s in self.searchers.values():
            for v, n, su, lo, hi, _ in s.terms_stats_aggregation(
                    query, agg_field, range_field, field, mode):
                prev = merged.get(v)
                merged[v] = (n, su, lo, hi) if prev is None else (
                    prev[0] + n, prev[1] + su, min(prev[2], lo),
                    max(prev[3], hi))
        out = [(v, n, s_, lo, hi, s_ / n)
               for v, (n, s_, lo, hi) in merged.items()]
        out.sort(key=lambda r: (-r[1], r[0]))
        return out

    def stats_aggregation(self, query: str, range_field: str,
                          field: str = "content", mode: str = "or",
                          quantiles: tuple = (),
                          quantile_method: str = "exact") -> dict:
        """Pattern-wide stats: per-index mergeable moments
        (count/sum/sum_sq add, min/max fold), avg/variance re-derived
        at the end.  Quantiles are refused — a cross-index exact
        selection would need the value pull the per-index protocols
        deliberately avoid."""
        if quantiles:
            raise ValueError("pattern stats: quantiles do not "
                             "federate exactly; query one index")
        from .searcher import _extend_stats
        live = [d for d in (s.stats_aggregation(query, range_field,
                                                field, mode)
                            for s in self.searchers.values())
                if d.get("count")]
        if not live:
            return {"count": 0}
        out = {"count": sum(d["count"] for d in live),
               "min": min(d["min"] for d in live),
               "max": max(d["max"] for d in live),
               "sum": float(sum(d["sum"] for d in live)),
               "sum_sq": float(sum(d["sum_sq"] for d in live))}
        out["avg"] = out["sum"] / out["count"]
        _extend_stats(out)
        return out

    def value_count_aggregation(self, query: str, agg_field: str,
                                field: str = "content",
                                mode: str = "or") -> tuple[int, int]:
        """Pattern-wide value_count/missing: the two ints add."""
        w = m = 0
        for s in self.searchers.values():
            wi, mi = s.value_count_aggregation(query, agg_field,
                                               field, mode)
            w += int(wi)
            m += int(mi)
        return w, m

    def cardinality_aggregation(self, query: str, agg_field: str,
                                field: str = "content",
                                mode: str = "or") -> int:
        """Pattern-wide distinct count: the union of the per-index
        value CENSUSES (only distinct values travel — exact where
        OpenSearch merges HLL across indexes)."""
        vals: set[str] = set()
        for s in self.searchers.values():
            vals.update(v for v, _ in s.terms_aggregation(
                query, agg_field, field, mode))
        return len(vals)

    def terms_histogram_aggregation(self, query: str, agg_field: str,
                                    range_field: str, interval: float,
                                    field: str = "content",
                                    mode: str = "or"
                                    ) -> list[tuple[str, float, int]]:
        """Pattern-wide terms x histogram: (value, bin, count)
        triples sum across indexes."""
        merged: dict[tuple[str, float], int] = {}
        for s in self.searchers.values():
            for v, b, n in s.terms_histogram_aggregation(
                    query, agg_field, range_field, interval, field,
                    mode):
                merged[(v, b)] = merged.get((v, b), 0) + int(n)
        return [(v, b, n)
                for (v, b), n in sorted(merged.items())]

    def histogram_stats_aggregation(self, query: str,
                                    bucket_field: str, interval: float,
                                    metric_field: str,
                                    field: str = "content",
                                    mode: str = "or"
                                    ) -> list[tuple[float, int, float,
                                                    float, float,
                                                    float]]:
        """Pattern-wide histogram+metric: per-bin moments merge."""
        merged: dict[float, tuple[int, float, float, float]] = {}
        for s in self.searchers.values():
            for k, n, su, lo, hi, _ in s.histogram_stats_aggregation(
                    query, bucket_field, interval, metric_field,
                    field, mode):
                prev = merged.get(k)
                merged[k] = (n, su, lo, hi) if prev is None else (
                    prev[0] + n, prev[1] + su, min(prev[2], lo),
                    max(prev[3], hi))
        return [(k, n, s_, lo, hi, s_ / n)
                for k, (n, s_, lo, hi) in sorted(merged.items())]

    def filters_aggregation(self, filters: dict[str, tuple[str, str]],
                            field: str = "content",
                            other_bucket_key: str | None = None
                            ) -> dict[str, int]:
        """Pattern-wide filters agg: named-bucket counts sum.  The
        other bucket (docs matching none of the named filters) sums
        too — indexes partition the doc space, so per-index
        live-minus-union counts add exactly."""
        merged: dict[str, int] = {}
        for s in self.searchers.values():
            for name, n in s.filters_aggregation(
                    filters, field=field,
                    other_bucket_key=other_bucket_key).items():
                merged[name] = merged.get(name, 0) + int(n)
        return merged

    def filter_value_counts(self, field: str) -> dict[str, int]:
        """Pattern-wide match-all per-value counts (doc ids are
        disjoint across indexes, so counts add)."""
        merged: dict[str, int] = {}
        for s in self.searchers.values():
            for v, n in s.filter_value_counts(field).items():
                merged[v] = merged.get(v, 0) + int(n)
        return merged

    def filtered_value_counts(self, filter_field: str,
                              filter_value: str, agg_field: str
                              ) -> dict[str, int]:
        """Pattern-wide kuery-filtered per-value counts."""
        merged: dict[str, int] = {}
        for s in self.searchers.values():
            for v, n in s.filtered_value_counts(
                    filter_field, filter_value, agg_field).items():
                merged[v] = merged.get(v, 0) + int(n)
        return merged

    def field_sorted_search(self, sort_field: str, k: int = 500,
                            desc: bool = True, query: str = "",
                            field: str = "content", mode: str = "or",
                            filter_field: str | None = None,
                            filter_value: str | None = None,
                            after=None) -> list[tuple]:
        """Pattern-wide field sort (the Discover shape): each index
        ships its own top-k (value, doc_id) rows via per-shard
        boundary bisects; the coordinator merges — exact because
        indexes partition the docs.  No statistics round (sorting
        never scores)."""
        rows: list[tuple] = []
        for s in self.searchers.values():
            rows.extend(s.field_sorted_search(
                sort_field, k=k, desc=desc, query=query, field=field,
                mode=mode, filter_field=filter_field,
                filter_value=filter_value, after=after))
        rows.sort(key=(lambda t: (-t[0], t[1])) if desc
                  else (lambda t: (t[0], t[1])))
        return rows[:k]

    def fetch_docs(self, doc_ids, columns: list[str] | None = None):
        """Pattern-wide docstore fetch: each index reads only its own
        ids (parquet row-group pruned; foreign ids simply miss), the
        coordinator concatenates."""
        import pyarrow as pa
        parts = []
        for s in self.searchers.values():
            t = s.fetch_docs(doc_ids, columns=columns)
            if t is not None and t.num_rows:
                parts.append(t)
        if not parts:
            return None
        return pa.concat_tables(parts, promote_options="default")

    def histogram_aggregation(self, query: str, range_field: str,
                              interval: float, field: str = "content",
                              mode: str = "or",
                              min_doc_count: int = 1,
                              offset: float = 0.0,
                              extended_bounds: tuple[float, float]
                              | None = None
                              ) -> list[tuple[float, int]]:
        """Pattern-wide histogram: per-index bins sum (every index
        buckets on the same ``offset``-shifted grid, so keys align);
        gap fill / ``extended_bounds`` widening runs ONCE over the
        merged buckets, not per index."""
        from .searcher import _hist_fill
        merged: dict[float, int] = {}
        for s in self.searchers.values():
            for b, c in s.histogram_aggregation(
                    query, range_field, interval, field, mode,
                    min_doc_count=1, offset=offset):
                merged[b] = merged.get(b, 0) + int(c)
        return _hist_fill(sorted(merged.items()), interval,
                          min_doc_count, offset=offset,
                          extended_bounds=extended_bounds)
