"""URL extraction, canonicalization, and canonical-URL dedup — the
web-curation triplet every crawl-derived training-data pipeline runs
before content-level dedup (CCNet / RefinedWeb drop exact-URL
re-crawls first; it is the cheapest dedup signal available).

Ray-Data-first and fully vectorized: extraction and canonicalization
are chains of RE2 kernels (``pc.extract_regex`` +
``pc.replace_substring_regex``) inside ONE streaming ``map_batches``
— no Python row loops, no shuffle.  Dedup reuses the exact-dedup
hash-partition groupby keyed on the canonical string
(`stages/dedup.exact_dedup`), so only (canon, doc_id) rows enter the
exchange, never text.

Both pyarrow and DuckDB run RE2-compatible regex engines, so the
whole canonicalization chain restates exactly in SQL
(``pipelines/queries.py url_canon_docs``).

Canonical steps (documented, in order):
  1. first ``http(s)://`` URL per doc (case-insensitive scheme,
     space-delimited);
  2. scheme and host lowercased; leading ``www.`` labels dropped
     (all of them, so the step is idempotent);
  3. default ports dropped (``http:80`` / ``https:443``; any other
     port kept);
  4. fragment stripped;
  5. ``utm_*`` tracking parameters removed (with their separator) —
     only whole parameter names, i.e. right after ``?`` or ``&``;
  6. a bare root path ``/`` normalized to the empty path.
Query-parameter SORTING is deliberately out of scope (it would need
per-row list ops; order-insensitive keys can be layered on the canon
column downstream).

Reference parity note: the SIEM reference normalizes URLs per ECS
``url.*`` in its request-line splitter (es_loader siem/sf_*.py,
SURVEY.md M9); this stage is the corpus-side generalization.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from . import dedup as dedup_ops

_URL_RE = r"(?i)(?P<url>https?://[^ ]+)"
_PARTS_RE = (r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://"
             r"(?P<host>[^/:?#]+)"
             r"(?P<port>(?::[0-9]+)?)"
             r"(?P<rest>.*)$")


def extract_first_url(batch: pa.Table, text_col: str = "text",
                      url_col: str = "url") -> pa.Table:
    """Append the first ``http(s)://…`` URL of each doc (null when the
    doc has none) — one vectorized RE2 probe per batch."""
    m = pc.extract_regex(batch.column(text_col), _URL_RE)
    return batch.append_column(url_col, pc.struct_field(m, "url"))


def canonicalize(url: pa.Array | pa.ChunkedArray) -> pa.Array:
    """The six-step canonical form of a URL column (nulls propagate).
    Every step is an Arrow RE2 kernel; the SQL twin applies the same
    chain with DuckDB's RE2 ``regexp_replace(…, 'g')``."""
    parts = pc.extract_regex(url, _PARTS_RE)
    scheme = pc.utf8_lower(pc.struct_field(parts, "scheme"))
    host = pc.replace_substring_regex(
        pc.utf8_lower(pc.struct_field(parts, "host")), r"^(?:www\.)+", "")
    port = pc.struct_field(parts, "port")
    default_port = pc.or_(
        pc.and_(pc.equal(scheme, "http"), pc.equal(port, ":80")),
        pc.and_(pc.equal(scheme, "https"), pc.equal(port, ":443")))
    port = pc.if_else(default_port, "", port)
    rest = pc.struct_field(parts, "rest")
    rest = pc.replace_substring_regex(rest, r"#.*$", "")
    # a run of utm_* params, each anchored to its own separator
    # (``?xutm_a=1`` is not a tracking param), keeps the separator
    # that opened the run
    rest = pc.replace_substring_regex(rest, r"([?&])(?:utm_[^&#]*&)+",
                                      r"\1")
    rest = pc.replace_substring_regex(rest, r"[?&]utm_[^&#]*$", "")
    rest = pc.replace_substring_regex(rest, r"^/$", "")
    return pc.binary_join_element_wise(scheme, "://", host, port, rest,
                                       "")


def canonicalize_urls(ds: rd.Dataset, text_col: str = "text",
                      url_col: str = "url", canon_col: str = "canon"
                      ) -> rd.Dataset:
    """extract + canonicalize as one streaming map stage: appends
    ``url_col`` (raw first URL) and ``canon_col`` (canonical form);
    docs without a URL carry nulls through both."""

    def stage(batch: pa.Table) -> pa.Table:
        batch = extract_first_url(batch, text_col, url_col)
        return batch.append_column(
            canon_col, canonicalize(batch.column(url_col)))

    return ds.map_batches(stage, batch_format="pyarrow")


def url_dedup(ds: rd.Dataset, text_col: str = "text",
              canon_col: str = "canon") -> rd.Dataset:
    """Canonical-URL dedup: keep the min-ordered row per canonical
    URL (hash-partition groupby — only (canon, …) rows shuffle).
    Docs WITHOUT a URL are all kept (they pass through the exchange
    under the null key as one group is wrong — so they bypass it)."""
    ds = canonicalize_urls(ds, text_col=text_col, canon_col=canon_col)
    with_url, without = split_by_null(ds, canon_col)
    kept = dedup_ops.exact_dedup(with_url, key_col=canon_col)
    return kept.union(without)


def split_by_null(ds: rd.Dataset, col: str
                  ) -> tuple[rd.Dataset, rd.Dataset]:
    """(rows where ``col`` is non-null, rows where it is null) as two
    streaming Arrow-mask filters (Ray's filter(expr=…) grammar has no
    null predicate)."""

    def _valid(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch.column(col)))

    def _null(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_null(batch.column(col)))

    return (ds.map_batches(_valid, batch_format="pyarrow"),
            ds.map_batches(_null, batch_format="pyarrow"))
