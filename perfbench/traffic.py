"""Request traffic and the reference answers it is checked against.

The traffic is OpenSearch ``_search`` bodies for ``execute_dsl``, in
shuffled blocks of 80 (``MIX``):

- 68 scored requests (85%) returning ``_source`` for a page of 10, in
  equal shares of four kinds: ``match`` OR, ``match`` AND, ``bool``
  (should + a ``lang`` term filter), and ``match`` on ``path``;
- 12 size-0 dashboard panels (15%): terms aggregations on ``lang`` and
  ``repo`` over the match set of one of the ``PANELS`` terms of highest
  document frequency.

The 85/15 split and the request kinds are the benchmark's
specification.  The rest has no published query-log source behind it
and is an assumption, kept to as few free choices as possible: equal
shares among the scored kinds, ``QUERY_TERMS`` terms per scored
request, and terms drawn uniformly from the field's vocabulary.  A
uniform draw over distinct terms makes a query term's document
frequency follow the corpus's own df distribution, which is a long
tail (most terms occur in one document).  AND requests draw their
first term that way and the others from one document that holds it,
so the conjunction matches something; ``bool`` filters on the ``lang``
of a uniformly drawn document.

The searcher's postings cache (``Searcher._rows_cache``) keeps the
first ``CACHE_ENTRIES`` (field, term) pairs it sees and then stops
inserting.  ``warmup`` yields requests over a seeded permutation of the
whole vocabulary; the workload sends them until the cache is full, the
way a long-running reader's is.  Measured requests then hit on cached
terms and miss on the others, and warm-up plus measured requests see
more distinct terms than the cache holds (``distinct_terms``).  The
panels repeat six terms, a working set that fits.

References: ``FlatOracle`` scores by a full scan with the same BM25
arithmetic as ``pipelines/search.flat_bm25_topk`` (no postings), and
``panel_counts`` counts panel buckets with DuckDB over the raw rows.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

import duckdb
import numpy as np
import pyarrow as pa

from siem_on_amazon_opensearch_service_ray import B, K1
from siem_on_amazon_opensearch_service_ray.analysis import ANALYZERS
from siem_on_amazon_opensearch_service_ray.norms import (
    effective_length, idf, tf_norm)
from siem_on_amazon_opensearch_service_ray.stages.docprep import (
    compute_doc_ids)

from corpus import ID_COLS

PAGE = 10
SCORED = ("or", "and", "bool", "path")
# One block of the request mix, shuffled per block.  Exact shares per
# block keep a run's latency percentiles from drifting with the draw.
MIX = SCORED * 17 + ("panel",) * 12
QUERY_TERMS = 3
PANELS = 6
CACHE_ENTRIES = 4096        # Searcher._rows_cache capacity
WARMUP_CHUNK = 400          # terms per warm-up request


@dataclass
class Request:
    kind: str          # or | and | bool | path | panel | needle
    body: dict
    field: str = "content"
    text: str = ""
    mode: str = "or"
    lang: str | None = None
    expect_id: int | None = None    # needle: the one doc it must return
    panel_index: int = -1           # panel: position in Traffic.panels


@dataclass
class Docs:
    """Distinct documents (one per id) with their analyzed fields."""
    ids: list[int]
    lang: list[str]
    rows: pa.Table
    tf: dict[str, list[Counter]] = field(default_factory=dict)

    @classmethod
    def from_rows(cls, rows: pa.Table) -> "Docs":
        ids = compute_doc_ids(rows, ID_COLS).tolist()
        keep, seen = [], set()
        for i, d in enumerate(ids):
            if d not in seen:
                seen.add(d)
                keep.append(i)
        t = rows.take(keep)
        docs = cls([ids[i] for i in keep], t.column("lang").to_pylist(), t)
        docs.tf["content"] = [Counter(ANALYZERS["code"](x))
                              for x in t.column("content").to_pylist()]
        docs.tf["path"] = [Counter(ANALYZERS["path"](x))
                           for x in t.column("path").to_pylist()]
        return docs

    def extend(self, other: "Docs") -> "Docs":
        return Docs(self.ids + other.ids, self.lang + other.lang,
                    pa.concat_tables([self.rows, other.rows]),
                    {f: self.tf[f] + other.tf[f] for f in self.tf})


class FlatOracle:
    """Exact BM25 top-k by scanning every document: N, avgdl and df
    come from the documents themselves, lengths use the Lucene
    SmallFloat policy, ties break on doc id — the contract
    ``flat_bm25_topk`` implements with Ray Data."""

    def __init__(self, docs: Docs):
        self.docs = docs
        self.n = len(docs.ids)
        self.avgdl, self.eff, self.df = {}, {}, {}
        for f, tfs in docs.tf.items():
            dl = np.array([sum(c.values()) for c in tfs], np.int64)
            self.avgdl[f] = float(dl.sum()) / self.n
            self.eff[f] = effective_length(dl, "lucene")
            df = Counter()
            for c in tfs:
                df.update(c.keys())
            self.df[f] = df

    def topk(self, req: Request, k: int = PAGE) -> list[tuple[int, float]]:
        analyzer = "path" if req.field == "path" else "code"
        q = ANALYZERS[analyzer](req.text)
        weights = Counter(q)
        terms = list(dict.fromkeys(q))
        df = self.df[req.field]
        w_idf = {t: weights[t] * float(idf(df[t], self.n))
                 for t in terms if df[t]}
        required = len(terms) if req.mode == "and" else 1
        hits = []
        for i, c in enumerate(self.docs.tf[req.field]):
            if req.lang is not None and self.docs.lang[i] != req.lang:
                continue
            matched = [t for t in terms if c.get(t) and t in w_idf]
            if len(matched) < required or not matched:
                continue
            score = 0.0
            for t in matched:
                score += w_idf[t] * float(tf_norm(
                    np.array([c[t]]), np.array([self.eff[req.field][i]]),
                    self.avgdl[req.field], K1, B)[0])
            if score > 0.0:
                hits.append((self.docs.ids[i], score))
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:k]


def panel_counts(rows: pa.Table, panels: list[Request]
                 ) -> list[dict[str, dict[str, int]]]:
    """Per panel, {agg field: {bucket key: distinct doc count}} by
    DuckDB over the raw rows (duplicates included, counted once per
    (repo, path, commit)).  A row is in a panel's match set when the
    code analyzer emits the panel's term for its content."""
    code = ANALYZERS["code"]
    # one chunk per column: DuckDB misreads a table whose columns are
    # chunked differently (the flag columns below are single arrays)
    rows = rows.combine_chunks()
    toks = [set(code(x)) for x in rows.column("content").to_pylist()]
    cols = {c: rows.column(c) for c in ("repo", "path", "commit", "lang")}
    for j, p in enumerate(panels):
        cols[f"m{j}"] = pa.array([p.text in t for t in toks])
    con = duckdb.connect()
    try:
        con.register("docs", pa.table(cols))
        out = []
        for j, p in enumerate(panels):
            res = {}
            for f in ("lang", "repo"):
                q = (f"SELECT {f}, COUNT(DISTINCT (repo, path, commit)) "
                     f"FROM docs WHERE m{j} GROUP BY {f}")
                res[f] = {k: int(n) for k, n in con.execute(q).fetchall()}
            out.append(res)
        return out
    finally:
        con.close()


def engine_buckets(resp: dict) -> dict[str, dict[str, int]]:
    aggs = resp.get("aggregations", {})
    return {f: {b["key"]: int(b["doc_count"])
                for b in aggs.get(f"by_{f}", {}).get("buckets", [])}
            for f in ("lang", "repo")}


class Traffic:
    """Seeded request stream over one document set."""

    def __init__(self, docs: Docs, seed: int, needles: dict[str, int],
                 stream: int = 0):
        # panels depend on the documents only, so every stream of a run
        # repeats the same panels; the rest depends on seed and stream
        self.seed = seed
        self.rng = random.Random(seed * 31337 + 5 + 7919 * stream)
        self.distinct_terms: set[tuple[str, str]] = set()
        self._block: list[str] = []
        # needles are answered by their own requests, never drawn as
        # ordinary terms (their df is 1 by construction)
        skip = set(needles)
        self.doc_terms = [sorted(t for t in c if t not in skip)
                          for c in docs.tf["content"]]
        holders: dict[str, list[int]] = {}
        for i, terms in enumerate(self.doc_terms):
            for t in terms:
                holders.setdefault(t, []).append(i)
        self.holders = holders
        self.vocab = {"content": sorted(holders),
                      "path": sorted({t for c in docs.tf["path"]
                                      for t in c})}
        self.lang = docs.lang
        self.needles = needles
        self.needle_ids = {tok: docs.ids[i] for tok, i in needles.items()}
        top = sorted(holders, key=lambda t: (-len(holders[t]), t))[:PANELS]
        self.panels = [self._panel(j, t) for j, t in enumerate(top)]
        for p in self.panels:
            self.note("content", p.text)

    def _panel(self, j: int, term: str) -> Request:
        body = {"size": 0, "query": {"match": {"content": term}},
                "aggs": {"by_lang": {"terms": {"field": "lang",
                                               "size": 50}},
                         "by_repo": {"terms": {"field": "repo",
                                               "size": 50}}}}
        return Request("panel", body, text=term, panel_index=j)

    def warmup(self) -> list[Request]:
        """Size-1 requests over a seeded permutation of the whole
        vocabulary, at most ``WARMUP_CHUNK`` terms of one field each,
        that bring the distinct (field, term) pairs in
        ``distinct_terms`` up to ``CACHE_ENTRIES``.  Sent on a searcher
        that has seen exactly the requests noted so far, they fill its
        postings cache."""
        rng = random.Random(self.seed * 65537 + 3)
        pairs = [(f, t) for f in sorted(self.vocab) for t in self.vocab[f]]
        rng.shuffle(pairs)
        pairs = [p for p in pairs if p not in self.distinct_terms]
        out, at = [], 0
        while len(self.distinct_terms) < CACHE_ENTRIES and at < len(pairs):
            n = min(WARMUP_CHUNK, CACHE_ENTRIES - len(self.distinct_terms))
            chunk, at = pairs[at:at + n], at + n
            for f in sorted({f for f, _ in chunk}):
                text = " ".join(t for g, t in chunk if g == f)
                self.note(f, text)
                out.append(Request("warmup", {"query": {"match": {f: text}},
                                              "size": 1}, field=f, text=text))
        return out

    def note(self, fieldname: str, text: str) -> None:
        an = "path" if fieldname == "path" else "code"
        for t in ANALYZERS[an](text):
            self.distinct_terms.add((fieldname, t))

    def needle(self, tok: str) -> Request:
        body = {"query": {"match": {"content": tok}}, "size": PAGE,
                "_source": True}
        return Request("needle", body, text=tok,
                       expect_id=self.needle_ids[tok])

    def _terms(self, fieldname: str) -> str:
        return " ".join(self.rng.choice(self.vocab[fieldname])
                        for _ in range(QUERY_TERMS))

    def next(self) -> Request:
        if not self._block:
            self._block = list(MIX)
            self.rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "panel":
            return self.rng.choice(self.panels)
        if kind == "or":
            text = self._terms("content")
            req = Request("or", {"query": {"match": {"content": text}}},
                          text=text)
        elif kind == "and":
            first = self.rng.choice(self.vocab["content"])
            doc = self.doc_terms[self.rng.choice(self.holders[first])]
            text = " ".join([first] + [self.rng.choice(doc)
                                       for _ in range(QUERY_TERMS - 1)])
            body = {"query": {"match": {"content": {
                "query": text, "operator": "and"}}}}
            req = Request("and", body, text=text, mode="and")
        elif kind == "bool":
            text = self._terms("content")
            lang = self.lang[self.rng.randrange(len(self.lang))]
            body = {"query": {"bool": {
                "should": [{"match": {"content": text}}],
                "filter": [{"term": {"lang": lang}}]}}}
            req = Request("bool", body, text=text, lang=lang)
        else:
            text = self._terms("path")
            req = Request("path", {"query": {"match": {"path": text}}},
                          field="path", text=text)
        req.body.update(size=PAGE, _source=True)
        self.note(req.field, req.text)
        return req
