"""Inverted-index build: the engine's flagship pipeline.

Replaces the reference's Lambda -> OpenSearch ``_bulk`` indexing hop
(reference: source/lambda/es_loader/index.py:320-397) with a from-scratch
Ray-Data-native build (BASELINE.json north_rule):

  corpus parquet (repo, path, commit, lang, content)
    │ ray.data.read_parquet
    ▼
  PASS A  docstore: prepare_docs (doc_id + content_sha256, map_batches)
          -> drop content -> groupby(doc-range) -> canonical sort +
          exact dedup (first-wins on min content_sha256; reference
          parity: AOSS docid_set, index.py:332-336) -> one parquet per
          doc range, atomic + manifested
    ▼
  PASS B  postings: tokenize (task pool, code-aware analyzer)
          -> combine per block into (part, field, term) runs with
             packed doc/tf/norm blobs (mapper-side combiner: the
             exchange moves ~vocab x blocks rows, never row-per-posting)
          -> SHUFFLE groupby(part)  [doc_id % P: one group per doc shard]
          -> encode segments: canonical (field, term, doc_id) sort,
             delta-varint 128-blocks + skip/block-max metadata
          -> parts/part-PPPP/seg-00.parquet, atomic + manifested
    ▼
  PASS C  keyword filter postings (lang/repo) from the docstore
    ▼
  PASS D  stats reduce (N from docstore, avgdl per field from segment
          total_tf sums) -> INDEX_MANIFEST.json (lineage + metrics)

Scale notes (100 TB / multi-node):
- only PASS B moves token-granular data; the shuffle payload is
  (int, str, str, int64, int32, uint8) rows — content never enters
  a shuffle (PASS A drops it before its groupby).
- ``num_partitions`` is fixed in config, independent of cluster size,
  so N-node and 4N-node builds produce byte-identical shards (SURVEY.md
  §4 "deterministic shards under varying parallelism").
- postings are partitioned by ``doc_id % P``: every part is a complete
  mini-index over its doc range (OpenSearch doc-shard parity, SURVEY.md
  §7.1; reference deploy: 3 doc shards, command_index.txt:8), so a hot
  term (``def`` in code) splits across every part by construction.
- every segment write is atomic (tmp + rename) and guarded by a
  manifest keyed on the input fingerprint: a resumed build skips
  already-finalized segments (reference parity: the batch CLI's
  finish-log checkpoint, index.py:710-742).
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..analysis import ANALYZERS, POSITIONAL_ANALYZERS
from ..norms import encode_norm
from ..postings import (_varint_encode_arr, _varint_lengths, encode_positions,
                        encode_postings_runs, varint_encode)
from ..stages.docprep import compute_doc_ids, content_shas

# bump whenever the on-disk segment representation changes — resume
# fingerprints include this, so stale-format segments can never be
# silently reused (v5: sentinel-row doc LUT; v6: typed docstore + null sentinel)
FORMAT_VERSION = 6

# LUT-vs-raw probe budget of _encode_segment: at most this many encoded
# bytes per doc-id representation are materialized and snappy-measured
_PROBE_SAMPLE = 1 << 19


@dataclass(frozen=True)
class IndexConfig:
    num_partitions: int = 8          # P: fixed, cluster-size independent
    fields: tuple = (("content", "content", "code"), ("path", "path", "path"))
    keyword_fields: tuple = ("lang", "repo")
    id_cols: tuple = ("repo", "path", "commit")
    doc_id_col: str | None = None    # explicit int64 id column (else hash of id_cols)
    sha_col: str = "content"         # column whose sha256 is the e2e invariant
    # None = one batch per block (enables read->tokenize fusion and
    # fewer Python batch boundaries; block size already bounds memory).
    # Set a row count only for corpora with multi-MB rows where even one
    # block is too wide for the 3x tokenize expansion.
    tokenize_batch_size: int | None = None
    tokenize_concurrency: int | None = None
    # store term positions (enables phrase queries; ~2x postings bytes)
    store_positions: bool = False
    # keep the raw source column in the docstore (OpenSearch _source
    # parity): enables reindex() under a new config and
    # more_like_this(doc_id=...).  Costs the content riding the build
    # shuffle to the docstore sentinel parts and docstore bytes ~ the
    # corpus size — off by default.
    store_source: bool = False
    # keep per-doc RAW token counts per text field in the docstore
    # (columns __dl_<field>, int64) — the per-doc norms surface
    # Lucene keeps natively.  Enables combined_fields (BM25F), whose
    # combined length needs every field's dl even where tf = 0.
    # Costs 8 B/doc/field riding the existing docstore exchange.
    store_doclens: bool = False
    # source columns holding list<float> embeddings: packed to
    # float32-LE bytes per doc and stored in the docstore
    # (``vec_<name>`` large_binary column, riding the same single-read
    # exchange) — the exact-kNN surface (Searcher.knn_search scores
    # per doc shard against its own slice).
    vector_fields: tuple = ()
    # numeric docstore columns to index for range queries: per doc-range
    # part, a value-sorted (value, doc_id) table — a query binary-searches
    # the bounds per part (OpenSearch range-query parity)
    range_fields: tuple = ()

    def fingerprint_dict(self) -> dict:
        """Representation-affecting fields only: execution-mode knobs
        (batch sizing, pool size) produce byte-identical indexes and
        must not invalidate resume or extend-config equality."""
        d = asdict(self)
        for k in ("tokenize_batch_size", "tokenize_concurrency"):
            d.pop(k, None)
        return d


# manifest config keys of the retired term layout and build-exchange
# modes: an older doc-layout manifest still carries them
_RETIRED_CONFIG_KEYS = ("partition_by", "salting", "sample_mod",
                        "hot_df_threshold", "salt_unit", "max_salts",
                        "shuffle_mode", "tokenize_mode")


def config_from_dict(config: dict) -> IndexConfig:
    """The IndexConfig a manifest's ``config`` dict describes (lists
    re-tupled — JSON round-trip loses tuple-ness).  Raises ValueError
    for a term-layout index."""
    from ..state.shard import check_layout
    check_layout(config)
    return IndexConfig(**{k: (tuple(tuple(x) if isinstance(x, list)
                                    else x for x in v)
                              if isinstance(v, list) else v)
                          for k, v in config.items()
                          if k not in _RETIRED_CONFIG_KEYS})


def tokenize_concurrency(cfg: "IndexConfig") -> int:
    """Actor-pool size for tokenize stages: a FIXED pool of half the
    CPUs.  A pool of ~all CPUs reserves them for the pipeline's whole
    lifetime and starves the shuffle + encode stages (measured:
    identical build walls at 8 and 32 CPUs until capped); an
    autoscaling (1, n) pool measured 2x slower than fixed n on the same
    input (repeated cold actor starts)."""
    if cfg.tokenize_concurrency:
        return cfg.tokenize_concurrency
    import ray
    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return max(2, cpus // 2)


def _atomic_write_table(tbl: pa.Table, path: str) -> None:
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)


def _atomic_write_json(obj: dict, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True)
    os.replace(tmp, path)


def input_fingerprint(source, cfg: IndexConfig) -> str:
    """sha-stable fingerprint of (input files + build config) — the
    lineage key every per-partition manifest carries."""
    import hashlib
    h = hashlib.sha256()
    h.update(json.dumps(cfg.fingerprint_dict(), sort_keys=True).encode())
    h.update(str(FORMAT_VERSION).encode())
    if isinstance(source, (list, tuple)):
        for p in sorted(source):
            st = os.stat(p)
            # mtime_ns guards against same-size content edits silently
            # reusing stale segments under resume=True.
            h.update(f"{p}:{st.st_size}:{st.st_mtime_ns}".encode())
    elif isinstance(source, str):
        for root, _, files in os.walk(source):
            for fn in sorted(files):
                if fn.endswith(".parquet"):
                    p = os.path.join(root, fn)
                    st = os.stat(p)
                    h.update(f"{p}:{st.st_size}:{st.st_mtime_ns}".encode())
    else:  # in-memory Dataset (tests): no stable file identity
        h.update(b"ephemeral")
    return h.hexdigest()[:16]


def _tuned_data_context(fn):
    """Decorator: disable per-operator resource reservation for the
    build pipelines, RESTORING the previous value on exit.  The
    streaming executor's default reservation holds back ~50-60% of the
    CPU budget for the downstream Sort/AllToAll while the tokenize map
    runs, capping the map at ~1/3 of the host (measured: 800k-doc
    build at 8 cpus 79 s -> 35 s, at 32 cpus 21 s -> 17 s with
    reservation off).  Our pipelines are shallow (map -> groupby ->
    map) with small resident blocks, so the deadlock-avoidance
    reservation only costs throughput — but deeper user pipelines in
    the same process may rely on it, hence the restore."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        from ray.data import DataContext
        ctx = DataContext.get_current()
        prev = ctx.op_resource_reservation_enabled
        ctx.op_resource_reservation_enabled = False
        try:
            return fn(*args, **kwargs)
        finally:
            ctx.op_resource_reservation_enabled = prev
    return wrapper


def _read_source(source) -> rd.Dataset:
    if isinstance(source, rd.Dataset):
        return source
    if isinstance(source, str):
        paths = sorted(
            os.path.join(root, fn)
            for root, _, files in os.walk(source) for fn in files
            if fn.endswith(".parquet"))
    else:
        paths = sorted(source)
    return _read_paths(paths)


def _read_paths(paths: list[str]) -> rd.Dataset:
    # Block-count control: Ray's default splits small files into many
    # tiny blocks, and every extra block multiplies sort-shuffle
    # intermediate objects (measured 2x slower at 200 blocks vs 50).
    # Target ~4 blocks per CPU, coalescing many-small-file sources and
    # splitting few-file ones (sources are written with 256-row groups
    # so splits stay row-group-aligned — corpus.py).
    import ray
    import pyarrow.parquet as pq
    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    blocks = min(max(len(paths), cpus), 4 * cpus)
    # metadata-free schema: pandas metadata makes pa.Schema unhashable,
    # defeating Ray's block-schema dedup (+ a per-read-task warning)
    schema = pq.read_schema(paths[0]).remove_metadata()
    return rd.read_parquet(paths, schema=schema, override_num_blocks=blocks)


# ---------------------------------------------------------------------------
# PASS B — postings + docstore (single corpus read)


DOC_SENTINEL = "\x00doc"
# segment row carrying the per-segment doc-id LUT (never a real field
# name — analyzers cannot emit NUL bytes)
LUT_SENTINEL = "\x00lut"


class TokenizeFlatten:
    """Tokenize stage (run per worker by :func:`_tokenize_task`):
    analyzers compiled once per worker process; per batch,
    tokenize every configured field and flatten to posting rows.
    Mirrors the reference LogParser per-record pipeline position
    (reference: siem/__init__.py:519-574) but columnar + code-aware.

    Single-read design: the stage ALSO emits one docstore row per input
    row (field = DOC_SENTINEL, term = packed meta + content sha256,
    part = P + doc_id % P), so the document store rides the same
    groupby exchange and the corpus is read exactly once — at 100 TB
    the second full read a separate docstore pass would cost is the
    single biggest avoidable I/O."""

    def __init__(self, cfg: IndexConfig, docstore_cols: list[str]):
        self.cfg = cfg
        self.docstore_cols = docstore_cols
        self.analyzers = {f: ANALYZERS[a] for f, _, a in cfg.fields}
        # per-field term interning: term -> tid, grown as vocabulary
        # appears.  The emit loop then touches Python once per *token*
        # (a dict get) and everything per-posting is numpy.
        self._vocab: dict[str, dict[str, int]] = {f: {} for f, _, _ in cfg.fields}
        self._terms: dict[str, list[str]] = {f: [] for f, _, _ in cfg.fields}
        if cfg.store_positions:
            self.pos_analyzers = {f: POSITIONAL_ANALYZERS[a]
                                  for f, _, a in cfg.fields}

    def _field_postings(self, fname: str, texts: list, ids: np.ndarray
                        ) -> tuple:
        an = self.analyzers[fname]
        vocab = self._vocab[fname]
        terms_l = self._terms[fname]
        get = vocab.get
        with_pos = self.cfg.store_positions
        pos_an = self.pos_analyzers[fname] if with_pos else None
        pos_pack = None   # (uint8 stream, per-posting start, len)
        dls = np.zeros(len(texts), dtype=np.int64)

        def intern(toks: list) -> list:
            # bulk dict.get (C loop) with a rare-miss patch pass: after
            # the first few batches the vocabulary is warm and the
            # per-token Python loop disappears
            tl = list(map(get, toks))
            if None in tl:
                for j, v in enumerate(tl):
                    if v is None:
                        t = toks[j]
                        tid = get(t)
                        if tid is None:
                            tid = len(terms_l)
                            vocab[t] = tid
                            terms_l.append(t)
                        tl[j] = tid
            return tl

        if not with_pos:
            # batched counting: ONE lexsort over (doc_row, tid) per
            # batch replaces a per-doc np.unique (measured ~25% of the
            # tokenize stage at 5k-doc batches: per-doc allocations)
            per_doc: list[np.ndarray] = []
            rows_live: list[int] = []
            for i, text in enumerate(texts):
                toks = an(text)
                if not toks:
                    continue
                dls[i] = len(toks)
                per_doc.append(np.asarray(intern(toks), dtype=np.int64))
                rows_live.append(i)
            if not per_doc:
                z = np.zeros(0, dtype=np.int64)
                return z, z, z, z, [], dls
            lens = np.asarray([a.size for a in per_doc], dtype=np.int64)
            rows_cat = np.repeat(np.asarray(rows_live, dtype=np.int64),
                                 lens)
            tids_cat = np.concatenate(per_doc)
            order = np.lexsort((tids_cat, rows_cat))
            r_s, t_s = rows_cat[order], tids_cat[order]
            boundary = np.ones(t_s.size, dtype=bool)
            boundary[1:] = (t_s[1:] != t_s[:-1]) | (r_s[1:] != r_s[:-1])
            starts = np.flatnonzero(boundary)
            tids = t_s[starts]
            cnts = np.diff(np.append(starts, t_s.size))
            rows_u = r_s[starts]
            dids = ids[rows_u].astype(np.int64)
            nrm = encode_norm(dls).astype(np.int64)[rows_u]
        else:
            # batched positional path: like the non-positional branch,
            # ONE lexsort per batch over (doc_row, tid) — stable, so
            # positions stay ascending within each (doc, term) — then
            # one GLOBAL delta-varint encode of every position (LEB128
            # is per-value, so the concatenated global stream is
            # byte-identical to per-posting encode_positions calls,
            # which used to cost ~26x the non-positional tokenize)
            per_doc: list[np.ndarray] = []
            per_pos: list[np.ndarray] = []
            rows_live: list[int] = []
            for i, text in enumerate(texts):
                toks, poss = pos_an(text)
                if not toks:
                    continue
                dls[i] = len(toks)
                per_doc.append(np.asarray(intern(toks), dtype=np.int64))
                per_pos.append(np.asarray(poss, dtype=np.uint64))
                rows_live.append(i)
            if not per_doc:
                z = np.zeros(0, dtype=np.int64)
                return z, z, z, z, None, dls
            lens_d = np.asarray([a.size for a in per_doc], dtype=np.int64)
            rows_cat = np.repeat(np.asarray(rows_live, dtype=np.int64),
                                 lens_d)
            tids_cat = np.concatenate(per_doc)
            pos_cat = np.concatenate(per_pos)
            order = np.lexsort((tids_cat, rows_cat))
            r_s, t_s = rows_cat[order], tids_cat[order]
            pos_s = pos_cat[order]
            boundary = np.ones(t_s.size, dtype=bool)
            boundary[1:] = (t_s[1:] != t_s[:-1]) | (r_s[1:] != r_s[:-1])
            p_starts = np.flatnonzero(boundary)     # posting boundaries
            tids = t_s[p_starts]
            cnts = np.diff(np.append(p_starts, t_s.size))
            rows_u = r_s[p_starts]
            dids = ids[rows_u].astype(np.int64)
            nrm = encode_norm(dls).astype(np.int64)[rows_u]
            # global delta stream: delta vs previous position, reset to
            # the absolute position at every posting start
            d = np.empty_like(pos_s)
            if d.size:
                d[0] = pos_s[0]
                np.subtract(pos_s[1:], pos_s[:-1], out=d[1:])
                d[p_starts] = pos_s[p_starts]
            vlens = _varint_lengths(d)
            stream = _varint_encode_arr(d, vlens)
            # per-posting byte (start, len) into the stream
            blen = np.add.reduceat(vlens, p_starts) if p_starts.size \
                else np.zeros(0, dtype=np.int64)
            bstart = np.concatenate(([0], np.cumsum(blen[:-1]))) \
                if blen.size else np.zeros(0, dtype=np.int64)
            pos_pack = (stream, bstart, blen)
        return tids, cnts, dids, nrm, pos_pack, dls

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Emit COMBINED posting runs, not row-per-posting: one output
        row per (part, field, term) seen in this block, carrying
        the run's doc ids / tfs / norms as packed little-endian blobs
        (the classic mapper-side combiner).  The exchange then moves
        ~vocab x blocks rows instead of one row per posting — measured
        at 3.2M docs the row-level exchange put 178M string-keyed rows
        through the sort, whose CPU grew superlinearly (1,228 s vs
        30 s at 800k) and capped N->4N scaling at ~0.46 regardless of
        engine quality.  Docstore rows stay one-per-doc (nothing to
        combine) with the doc id packed into the same ``docs`` blob."""
        cfg = self.cfg
        p = cfg.num_partitions
        ids = compute_doc_ids(batch, cfg.id_cols, cfg.doc_id_col)
        with_pos = cfg.store_positions
        r_part: list[int] = []
        r_field: list[str] = []
        r_term: list[str] = []
        r_docs: list[bytes] = []
        r_tfs: list[bytes] = []
        r_norms: list[bytes] = []
        r_np: list[int] = []
        r_pos: list[bytes] = []
        r_plens: list[bytes] = []
        dl_by_field: dict[str, np.ndarray] = {}
        for fname, col, _ in cfg.fields:
            texts = batch.column(col).to_pylist()
            tids, cnts, dids, nrm, pos_pack, dls = \
                self._field_postings(fname, texts, ids)
            dl_by_field[fname] = dls
            if tids.size == 0:
                continue
            parts = dids % p
            order = np.lexsort((tids, parts))
            t_s, p_s = tids[order], parts[order]
            d_s = dids[order]
            c_s = cnts[order].astype(np.int32)
            n_s = nrm[order].astype(np.uint8)
            boundary = np.ones(t_s.size, dtype=bool)
            boundary[1:] = (t_s[1:] != t_s[:-1]) | (p_s[1:] != p_s[:-1])
            starts = np.flatnonzero(boundary)
            ends = np.append(starts[1:], t_s.size)
            if with_pos:
                # reorder the global position-byte stream to the run
                # order with one vectorized gather, then slice per run
                stream, bstart, blen = pos_pack
                l_o = blen[order]
                s_o = bstart[order]
                ends_b = np.cumsum(l_o)
                begins_b = ends_b - l_o
                gather = (np.arange(int(l_o.sum()), dtype=np.int64)
                          - np.repeat(begins_b, l_o)
                          + np.repeat(s_o, l_o))
                stream_o = stream[gather]
                l32 = l_o.astype(np.uint32)
            terms_lut = self._terms[fname]
            for s, e in zip(starts, ends):
                r_part.append(int(p_s[s]))
                r_field.append(fname)
                r_term.append(terms_lut[int(t_s[s])])
                r_docs.append(d_s[s:e].tobytes())
                r_tfs.append(c_s[s:e].tobytes())
                r_norms.append(n_s[s:e].tobytes())
                r_np.append(int(e - s))
                if with_pos:
                    r_pos.append(
                        stream_o[int(begins_b[s]):int(ends_b[e - 1])]
                        .tobytes() if e > s else b"")
                    r_plens.append(l32[s:e].tobytes())
        n_runs = len(r_part)
        # docstore rows: one per input row, routed to sentinel parts
        # P..2P-1 by doc range (content sha256 invariant computed here,
        # on the only pass that touches content)
        shas = content_shas(batch, cfg.sha_col)
        # __dl_<field> sidecar columns are synthesized here (per-doc
        # raw token counts from this pass's tokenization), everything
        # else comes from the source batch
        meta_cols = [dl_by_field[c[5:]].tolist() if c.startswith("__dl_")
                     else batch.column(c).to_pylist()
                     for c in self.docstore_cols]
        ids64 = ids.astype(np.int64)
        r_part.extend((p + ids % p).tolist())
        r_field.extend([DOC_SENTINEL] * batch.num_rows)
        r_term.extend(
            "\x1f".join([("\x00N" if mc[i] is None else str(mc[i]))
                         for mc in meta_cols] + [shas[i]])
            for i in range(batch.num_rows))
        r_docs.extend(ids64[i:i + 1].tobytes()
                      for i in range(batch.num_rows))
        r_tfs.extend([b""] * batch.num_rows)
        r_norms.extend([b""] * batch.num_rows)
        r_np.extend([1] * batch.num_rows)
        cols = {
            "part": pa.array(np.asarray(r_part, dtype=np.int32)),
            "field": pa.array(r_field, pa.string()),
            "term": pa.array(r_term, pa.string()),
            "docs": pa.array(r_docs, pa.large_binary()),
            "tfs": pa.array(r_tfs, pa.large_binary()),
            "norms": pa.array(r_norms, pa.large_binary()),
            "npost": pa.array(np.asarray(r_np, dtype=np.int32)),
        }
        if with_pos:
            r_pos.extend([b""] * batch.num_rows)
            r_plens.extend([b""] * batch.num_rows)
            cols["pos"] = pa.array(r_pos, pa.large_binary())
            cols["plens"] = pa.array(r_plens, pa.large_binary())
        if cfg.store_source:
            # _source rides the same single-read exchange to the
            # docstore sentinel parts (posting runs carry "")
            srcs = batch.column(cfg.sha_col).to_pylist()
            cols["src"] = pa.array(
                [""] * n_runs + [("\x00N" if s is None else s)
                                 for s in srcs], pa.large_string())
        for vf in cfg.vector_fields:
            # embeddings pack to float32-LE bytes (None -> b"")
            vecs = batch.column(vf).to_pylist()
            cols[f"vec_{vf}"] = pa.array(
                [b""] * n_runs
                + [b"" if v is None else
                   np.asarray(v, np.float32).tobytes() for v in vecs],
                pa.large_binary())
        return pa.table(cols)


# worker-global tokenizer state for the "tasks" execution mode: the
# module (hence this dict) lives for the worker process's lifetime, so
# interned vocab/route caches amortize across tasks exactly like actor
# state — without reserving CPUs for a pool.
_TOKENIZER_STATE: dict[str, "TokenizeFlatten"] = {}


def _tokenize_task(batch: pa.Table, cfg: IndexConfig,
                   docstore_cols: list[str], key: str) -> pa.Table:
    st = _TOKENIZER_STATE.get(key)
    if st is None:
        _TOKENIZER_STATE.clear()
        st = _TOKENIZER_STATE[key] = TokenizeFlatten(cfg, docstore_cols)
    return st(batch)


def _metrics_row(part: int, n_terms: int, n_postings: int,
                 nbytes: int, n_docs: int, skipped: bool,
                 field_tf: dict | None = None) -> pa.Table:
    return pa.table({"part": [part], "n_terms": [n_terms],
                     "n_postings": [n_postings], "bytes": [nbytes],
                     "n_docs": [n_docs], "skipped": [skipped],
                     "field_tf": [json.dumps(field_tf or {}, sort_keys=True)]})


def _resolve_type_alias(typ_s: str):
    """``str(pa.DataType)`` -> DataType for the docstore restore.
    Handles the tz-aware timestamp spelling (``timestamp[us,
    tz=UTC]``) that ``pa.compute.cast``'s alias lookup can't resolve —
    common for SIEM ``@timestamp`` columns; everything else passes
    through as the alias string."""
    m = re.fullmatch(r"timestamp\[(s|ms|us|ns), tz=(.+)\]", typ_s)
    if m:
        return pa.timestamp(m.group(1), tz=m.group(2))
    return typ_s


def _write_docstore_group(group: pa.Table, index_dir: str, fp: str,
                          cfg: IndexConfig, docstore_cols: list[str],
                          gen: str = "",
                          docstore_types: dict | None = None) -> pa.Table:
    """Sentinel-part group -> docstore parquet: unpack the meta string,
    canonical (doc_id, sha) sort, exact first-wins dedup (reference
    parity: AOSS docid_set, index.py:332-336).  Meta columns are stored
    as strings (they ride the packed shuffle row)."""
    part = int(group.column("part")[0].as_py())
    dpart = part - cfg.num_partitions
    os.makedirs(os.path.join(index_dir, "docstore"), exist_ok=True)
    os.makedirs(os.path.join(index_dir, "manifest"), exist_ok=True)
    out = os.path.join(index_dir, "docstore",
                       f"part-{dpart:04d}{gen}.parquet")
    man = os.path.join(index_dir, "manifest",
                       f"docstore-{dpart:04d}{gen}.json")
    if os.path.exists(man):
        with open(man) as f:
            m = json.load(f)
        if m.get("fingerprint") == fp:
            return _metrics_row(part, 0, 0, m.get("bytes", 0),
                                m["rows"], True)
    ids = np.frombuffer(b"".join(group.column("docs").to_pylist()),
                        dtype=np.int64)
    metas = group.column("term").to_pylist()
    cols = docstore_cols + ["content_sha256"]
    unpacked = [m.split("\x1f") for m in metas]
    # restore the ORIGINAL column types after the packed-string ride
    # through the shuffle (round-1 documented gap: docstore meta was
    # stringly-typed); the null sentinel survives any value space
    arrays = {}
    fallback_cols = []
    for j, c in enumerate(cols):
        vals = [None if u[j] == "\x00N" else u[j] for u in unpacked]
        typ_s = (docstore_types or {}).get(c)
        arr = pa.array(vals, pa.string())
        if typ_s and typ_s != "string":
            try:
                arr = pa.compute.cast(arr, _resolve_type_alias(typ_s))
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError,
                    ValueError, KeyError):
                # unparseable values OR a type-alias str(type) that
                # pa.compute.cast cannot resolve (list/struct/decimal)
                # -> keep strings, and RECORD the downgrade in the
                # part manifest so it is observable (ADVICE r2)
                fallback_cols.append(c)
        arrays[c] = arr
    if cfg.store_source:
        arrays[cfg.sha_col] = pa.array(
            [None if s == "\x00N" else s
             for s in group.column("src").to_pylist()], pa.large_string())
    for vf in cfg.vector_fields:
        arrays[f"vec_{vf}"] = pa.array(
            group.column(f"vec_{vf}").to_pylist(), pa.large_binary())
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), **arrays})
    idx = pa.compute.sort_indices(tbl, sort_keys=[
        ("doc_id", "ascending"), ("content_sha256", "ascending")])
    tbl = tbl.take(idx)
    sorted_ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    _, first = np.unique(sorted_ids, return_index=True)
    tbl = tbl.take(np.sort(first))
    _atomic_write_table(tbl, out)
    sha_xor = 0
    for s in tbl.column("content_sha256").to_pylist():
        sha_xor ^= int(s[:16], 16)
    nbytes = os.stat(out).st_size
    man_doc = {"fingerprint": fp, "rows": tbl.num_rows,
               "sha_xor_hi64": sha_xor, "bytes": nbytes, "path": out}
    if fallback_cols:
        man_doc["string_fallback_cols"] = fallback_cols
    _atomic_write_json(man_doc, man)
    return _metrics_row(part, 0, 0, nbytes, tbl.num_rows, False)


def _docs_stream_costs(dids: np.ndarray, ords: np.ndarray,
                       df: np.ndarray) -> tuple[float, float]:
    """-> snappy cost of a segment's docs stream written as raw ids and
    as LUT ordinals.  ``dids``/``ords`` hold every run's postings end to
    end (run k holds ``df[k]``, doc-ascending).

    Each representation is one delta stream over every run, reset to
    the absolute value at each run start, so its LEB128 bytes are the
    per-run encodes laid end to end; one varint-length pass gives every
    run's running byte total.  The probe budget bounds what is
    materialized: the sampled prefix is every run whose running total
    stays within _PROBE_SAMPLE in either stream (a prefix of runs,
    since both totals only grow), only that prefix is encoded and
    compressed, and the exact length of the rest scales the sampled
    ratio up.  A GB-scale segment therefore pays O(sample) to decide,
    not a second full encode+compress of its doc stream."""
    ends = np.cumsum(df)
    heads = (ends - df)[df > 0]
    last = ends[df > 0] - 1
    streams = []
    for v in (dids, ords):
        d = np.empty(v.size, dtype=np.uint64)
        d[1:] = v[1:] - v[:-1]
        d[heads] = v[heads]
        vl = _varint_lengths(d)
        streams.append((d, vl, np.cumsum(vl)))
    in_probe = ((streams[0][2][last] <= _PROBE_SAMPLE)
                | (streams[1][2][last] <= _PROBE_SAMPLE))
    n_in = int(np.count_nonzero(in_probe))
    probe = int(last[n_in - 1]) + 1 if n_in else 0
    costs = []
    for d, vl, running in streams:
        if not probe:
            costs.append(0.0)
            continue
        blob = _varint_encode_arr(d[:probe], vl[:probe]).tobytes()
        comp = len(pa.compress(blob, codec="snappy", asbytes=True))
        total = int(running[-1])
        costs.append(comp * (total / len(blob)) if total > len(blob)
                     else comp)
    return costs[0], costs[1]


def _encode_segment(group: pa.Table, index_dir: str, fp: str,
                    cfg: IndexConfig, docstore_cols: list[str],
                    gen: str = "",
                    docstore_types: dict | None = None) -> pa.Table:
    part = int(group.column("part")[0].as_py())
    if part >= cfg.num_partitions:          # sentinel range: docstore
        return _write_docstore_group(group, index_dir, fp, cfg,
                                     docstore_cols, gen, docstore_types)
    part_dir = os.path.join(index_dir, "parts", f"part-{part:04d}")
    os.makedirs(part_dir, exist_ok=True)
    os.makedirs(os.path.join(index_dir, "manifest"), exist_ok=True)
    out = os.path.join(part_dir, f"seg-00{gen}.parquet")
    man = os.path.join(index_dir, "manifest", f"seg-{part:04d}-00{gen}.json")
    if os.path.exists(man):
        with open(man) as f:
            m = json.load(f)
        if m.get("fingerprint") == fp:
            return _metrics_row(part, m["n_terms"], m["n_postings"],
                                m["bytes"], 0, True, m.get("field_tf"))
    t0 = time.monotonic()
    # rows are packed runs (one per block x term — TokenizeFlatten's
    # combiner), so this sort touches ~vocab x blocks string rows, not
    # one row per posting; postings themselves sort NUMERICALLY below.
    # Canonical output is untouched: same doc-ascending, first-wins-
    # dedup posting order as the row-level format produced.
    idx = pa.compute.sort_indices(group, sort_keys=[
        ("field", "ascending"), ("term", "ascending")])
    group = group.take(idx)
    f_col = group.column("field").combine_chunks()
    t_col = group.column("term").combine_chunks()
    npost = group.column("npost").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    d_cat = np.frombuffer(b"".join(group.column("docs").to_pylist()),
                          dtype=np.int64).astype(np.uint64)
    tf_cat = np.frombuffer(b"".join(group.column("tfs").to_pylist()),
                           dtype=np.int32).astype(np.uint32)
    nm_cat = np.frombuffer(b"".join(group.column("norms").to_pylist()),
                           dtype=np.uint8)
    nrows = len(group)
    boundary = np.ones(nrows, dtype=bool)
    if nrows > 1:
        neq = pa.compute.or_(
            pa.compute.not_equal(f_col.slice(1), f_col.slice(0, nrows - 1)),
            pa.compute.not_equal(t_col.slice(1), t_col.slice(0, nrows - 1)))
        boundary[1:] = neq.to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(boundary)
    n = int(d_cat.size)
    # ONE stable (run, doc) sort over every posting of the segment: runs
    # follow the (field, term) row order above and a doc's duplicate
    # postings keep arrival order, so the boundary mask keeps the FIRST
    # of them (duplicate (term, doc) postings only come from duplicate
    # input rows with identical content)
    run_id = np.repeat(np.cumsum(boundary) - 1, npost)
    order = np.lexsort((d_cat, run_id))
    run_id, dids = run_id[order], d_cat[order]
    keep = np.ones(n, dtype=bool)
    if n > 1:
        keep[1:] = (run_id[1:] != run_id[:-1]) | (dids[1:] != dids[:-1])
    order, run_id, dids = order[keep], run_id[keep], dids[keep]
    tfs, nms = tf_cat[order], nm_cat[order]
    df = np.bincount(run_id, minlength=starts.size)
    p_end = np.cumsum(df)
    p_start = p_end - df
    tf_cum = np.concatenate(([0], np.cumsum(tfs, dtype=np.int64)))
    ttf = tf_cum[p_end] - tf_cum[p_start]
    # Per-segment doc LUT (adaptive): the sorted unique doc ids across
    # ALL the segment's terms, delta-varint encoded ONCE in the file
    # footer, with every term's posting list storing dense ordinals
    # into it.  Doc ids are sparse 63-bit hashes whose raw gaps average
    # ~63-log2(df) bits; ordinals' gaps average log2(n_seg_docs/df)
    # bits, so the sparse ids are paid for once per segment instead of
    # once per term.  The LUT only wins when terms SHARE docs — a
    # many-parts-few-docs segment would duplicate nearly the whole id
    # set per part — AND the arbiter is the on-disk (snappy-compressed
    # parquet page) size, not raw blob length: sparse high-byte deltas
    # compress well under snappy while the footer LUT is stored
    # uncompressed.  Both docs streams are therefore snappy-measured
    # and the smaller representation is written.  ShardReader remaps
    # ordinals back to ids at load, so query paths are untouched
    # either way.
    seg_lut = np.unique(d_cat)
    lut_deltas = np.empty(seg_lut.size, dtype=np.uint64)
    if seg_lut.size:
        lut_deltas[0] = seg_lut[0]
        np.subtract(seg_lut[1:], seg_lut[:-1], out=lut_deltas[1:])
    lut_blob = varint_encode(lut_deltas)

    # cheap gate: the LUT stores every unique doc id once (~5-6 B
    # snappy'd); ordinal postings save ~5 B/posting post-compression,
    # so below ~1 posting per unique doc the LUT can never win — skip
    # the ordinal encode + snappy probe entirely (recovers the build
    # throughput cost of measuring both representations on
    # low-overlap segments)
    consider_lut = n >= seg_lut.size + 64
    use_lut = False
    if consider_lut:
        ords = np.searchsorted(seg_lut, dids).astype(np.uint64)
        raw_cost, ord_cost = _docs_stream_costs(dids, ords, df)
        # the LUT rides as a sentinel ROW (field="\x00lut") so it gets
        # the same page compression as the posting blobs — parquet
        # footer metadata would be stored base64-inflated ~2.3x
        # (measured)
        lut_cost = len(pa.compress(lut_blob, codec="snappy", asbytes=True))
        use_lut = ord_cost + lut_cost < raw_cost

    # ONE vectorized encode across every run (byte-identical to a
    # per-run encode_postings loop)
    o_docs, o_tfs, o_norms, o_skip = encode_postings_runs(
        ords if use_lut else dids, tfs, nms, df)
    o_field = f_col.take(pa.array(starts)).to_pylist()
    o_term = t_col.take(pa.array(starts)).to_pylist()
    o_df = df.tolist()
    o_ttf = ttf.tolist()
    n_postings = int(df.sum())
    with_pos = bool(cfg.store_positions) and "pos" in group.column_names
    if with_pos:
        # gather every kept posting's position bytes in output order
        # with one vectorized index, then slice per run
        pos_cat = np.frombuffer(b"".join(group.column("pos").to_pylist()),
                                dtype=np.uint8)
        pl_cat = np.frombuffer(
            b"".join(group.column("plens").to_pylist()),
            dtype=np.uint32).astype(np.int64)
        pos_off = np.concatenate(([0], np.cumsum(pl_cat)))
        lens = pl_cat[order]
        b_cum = np.concatenate(([0], np.cumsum(lens)))
        gather = (np.arange(int(b_cum[-1]), dtype=np.int64)
                  + np.repeat(pos_off[order] - b_cum[:-1], lens))
        pos_blob = pos_cat[gather].tobytes()
        o_pos = [pos_blob[a:b] for a, b in
                 zip(b_cum[p_start].tolist(), b_cum[p_end].tolist())]
    n_terms = len(o_field)
    if use_lut:
        o_field.append(LUT_SENTINEL)
        o_term.append("")
        o_df.append(int(seg_lut.size))
        o_ttf.append(0)
        o_docs.append(lut_blob)
        o_tfs.append(b"")
        o_norms.append(b"")
        o_skip.append(b"")
        if with_pos:
            o_pos.append(b"")
    seg = pa.table({
        "field": pa.array(o_field, pa.string()),
        "term": pa.array(o_term, pa.string()),
        "df": pa.array(o_df, pa.int64()),
        "total_tf": pa.array(o_ttf, pa.int64()),
        "docs": pa.array(o_docs, pa.large_binary()),
        "tfs": pa.array(o_tfs, pa.large_binary()),
        "norms": pa.array(o_norms, pa.large_binary()),
        "skip": pa.array(o_skip, pa.large_binary()),
        "pos": pa.array(o_pos if with_pos else [b""] * len(o_field),
                        pa.large_binary()),
    })
    _atomic_write_table(seg, out)
    nbytes = os.stat(out).st_size
    field_tf = {}
    for f, t in zip(o_field[:n_terms], o_ttf[:n_terms]):
        field_tf[f] = field_tf.get(f, 0) + t
    _atomic_write_json({
        "fingerprint": fp, "part": part,
        "n_terms": n_terms, "n_postings": n_postings, "bytes": nbytes,
        "field_tf": field_tf,
        "encode_sec": round(time.monotonic() - t0, 3), "path": out,
    }, man)
    return _metrics_row(part, n_terms, n_postings, nbytes, 0,
                        False, field_tf)


def build_postings(source, index_dir: str, cfg: IndexConfig, fp: str,
                   gen: str = "") -> tuple[dict, int]:
    """Single-read pass: tokenize + flatten -> groupby(part) -> per-group
    encode (postings segments for parts < P, docstore files for the
    sentinel range).  Returns (metrics, n_docs)."""
    ds = _read_source(source)
    # the docstore keeps every identity/metadata column — including
    # small indexed-field sources like ``path`` — and drops only the
    # wide content column (cfg.sha_col)
    schema = ds.schema()
    # "content_sha256" excluded: a reindex() input IS a docstore, and
    # the new build recomputes the sha — carrying the old column would
    # collide with it
    docstore_cols = [c for c in schema.names
                     if c not in (cfg.sha_col, "doc_id", "content_sha256")
                     and c not in cfg.vector_fields]
    docstore_types = {n: str(t) for n, t in zip(schema.names, schema.types)
                      if n in docstore_cols}
    if cfg.store_doclens:
        for fname, _, _ in cfg.fields:
            docstore_cols.append(f"__dl_{fname}")
            docstore_types[f"__dl_{fname}"] = "int64"
    # a stateless task pool with worker-global analyzer state: Ray
    # reuses worker processes, so caches amortize like an actor's, but
    # no CPUs are reserved and the scheduler interleaves tokenize with
    # shuffle work (measured: a fixed actor pool either starves the
    # shuffle or idles half the cluster)
    import functools
    task = functools.partial(_tokenize_task, cfg=cfg,
                             docstore_cols=docstore_cols, key=fp)
    flat = ds.map_batches(task, batch_format="pyarrow",
                          batch_size=cfg.tokenize_batch_size)
    res = flat.groupby("part").map_groups(
        lambda g: _encode_segment(g, index_dir, fp, cfg, docstore_cols, gen,
                                  docstore_types),
        batch_format="pyarrow")
    return _reduce_metrics(res.iter_batches(batch_format="pyarrow"), cfg)


def _reduce_metrics(batches, cfg: IndexConfig) -> tuple[dict, int]:
    metrics = {"n_segments": 0, "n_terms": 0, "n_postings": 0, "bytes": 0,
               "skipped_segments": 0}
    n_docs = 0
    field_tf: dict[str, int] = {}
    for b in batches:
        if b.num_rows == 0:
            continue
        parts_a = b.column("part").to_numpy(zero_copy_only=False)
        seg_mask = parts_a < cfg.num_partitions
        metrics["n_segments"] += int(seg_mask.sum())
        metrics["n_terms"] += int(np.sum(b.column("n_terms").to_numpy(zero_copy_only=False)))
        metrics["n_postings"] += int(np.sum(b.column("n_postings").to_numpy(zero_copy_only=False)))
        metrics["bytes"] += int(np.sum(b.column("bytes").to_numpy(zero_copy_only=False)))
        skipped = b.column("skipped").to_numpy(zero_copy_only=False)
        metrics["skipped_segments"] += int(skipped[seg_mask].sum())
        n_docs += int(np.sum(b.column("n_docs").to_numpy(zero_copy_only=False)))
        for ft in b.column("field_tf").to_pylist():
            for f, t in json.loads(ft).items():
                field_tf[f] = field_tf.get(f, 0) + int(t)
    metrics["field_tf"] = field_tf
    return metrics, n_docs


# ---------------------------------------------------------------------------
# PASS C — keyword filter postings (from the docstore, content untouched)


def _file_fp(path: str) -> str:
    st = os.stat(path)
    return f"{st.st_size}:{st.st_mtime_ns}"


def _build_filter_part(row_batch: pa.Table, index_dir: str,
                       fields: list[str],
                       range_fields: list[str] = ()) -> pa.Table:
    """One task per docstore part file: local per-value doc lists for
    every keyword field, written as filters/<field>/part-XXXX.parquet.
    No shuffle — the docstore is already doc-range partitioned, so the
    filter postings inherit that partitioning for free, and no
    per-value doc list ever exceeds one part's doc count (verdict
    round 1, item 3: the old layout concat'ed every (value, full doc
    list) row on the driver)."""
    out_rows = {"field": [], "part": [], "bytes": [], "skipped": []}
    for i in range(row_batch.num_rows):
        path = row_batch.column("path")[i].as_py()
        dpart = int(row_batch.column("dpart")[i].as_py())
        stem = os.path.splitext(os.path.basename(path))[0]
        # keyed on the source docstore file's size+mtime, not the build
        # fingerprint — generation files added by extend_index get their
        # own filter parts and untouched parts never rebuild
        fp = _file_fp(path)
        tbl = None
        for fname in range_fields:
            rdir = os.path.join(index_dir, "filters_range", fname)
            os.makedirs(rdir, exist_ok=True)
            rout = os.path.join(rdir, f"{stem}.parquet")
            rman = os.path.join(index_dir, "manifest",
                                f"rangef-{fname}-{stem}.json")
            if os.path.exists(rman):
                with open(rman) as f:
                    m = json.load(f)
                if m.get("fingerprint") == fp:
                    continue
            rt = pq.read_table(path, columns=["doc_id", fname])
            # value-sorted (nulls dropped): range probes binary-search
            # the bounds and slice the aligned doc ids
            mask = pa.compute.is_valid(rt.column(fname))
            rt = rt.filter(mask)
            idx2 = pa.compute.sort_indices(rt, sort_keys=[
                (fname, "ascending"), ("doc_id", "ascending")])
            rt = rt.take(idx2).select([fname, "doc_id"])                 .rename_columns(["value", "doc_id"])
            _atomic_write_table(rt, rout)
            _atomic_write_json({"fingerprint": fp, "rows": rt.num_rows,
                                "path": rout, "src": path}, rman)
        for fname in fields:
            fdir = os.path.join(index_dir, "filters", fname)
            os.makedirs(fdir, exist_ok=True)
            out = os.path.join(fdir, f"{stem}.parquet")
            man = os.path.join(index_dir, "manifest",
                               f"filter-{fname}-{stem}.json")
            if os.path.exists(man):
                with open(man) as f:
                    m = json.load(f)
                if m.get("fingerprint") == fp:
                    out_rows["field"].append(fname)
                    out_rows["part"].append(dpart)
                    out_rows["bytes"].append(m.get("bytes", 0))
                    out_rows["skipped"].append(True)
                    continue
            if tbl is None:
                tbl = pq.read_table(path, columns=["doc_id"] + fields)
                ids = tbl.column("doc_id").to_numpy(
                    zero_copy_only=False).astype(np.uint64)
            # null keyword values are NOT indexed (OpenSearch: a null
            # field does not exist — exists queries, value_count and
            # collapse all skip the doc), so drop them before coding
            col_list = tbl.column(fname).to_pylist()
            keep = np.fromiter((v is not None for v in col_list),
                               dtype=bool, count=len(col_list))
            vals = np.asarray([str(v) for v in col_list if v is not None],
                              dtype=object)
            f_ids = ids[keep]
            uniq, codes = np.unique(vals, return_inverse=True) \
                if vals.size else (np.empty(0, object),
                                   np.empty(0, np.intp))
            order = np.lexsort((f_ids, codes))
            sc, si = codes[order], f_ids[order]
            boundary = np.ones(sc.size, dtype=bool)
            boundary[1:] = sc[1:] != sc[:-1]
            starts = np.flatnonzero(boundary)
            ends = np.append(starts[1:], sc.size)
            o_val, o_df, o_docs = [], [], []
            for s, e in zip(starts, ends):
                o_val.append(str(uniq[sc[s]]))
                o_df.append(int(e - s))
                o_docs.append(si[s:e].astype("<u8").tobytes())
            ftbl = pa.table({
                "value": pa.array(o_val, pa.string()),
                "df": pa.array(o_df, pa.int64()),
                "docs": pa.array(o_docs, pa.large_binary()),
            })
            _atomic_write_table(ftbl, out)
            nbytes = os.stat(out).st_size
            _atomic_write_json({"fingerprint": fp, "rows": ftbl.num_rows,
                                "bytes": nbytes, "path": out,
                                "src": path}, man)
            out_rows["field"].append(fname)
            out_rows["part"].append(dpart)
            out_rows["bytes"].append(nbytes)
            out_rows["skipped"].append(False)
    return pa.table({
        "field": pa.array(out_rows["field"], pa.string()),
        "part": pa.array(out_rows["part"], pa.int32()),
        "bytes": pa.array(out_rows["bytes"], pa.int64()),
        "skipped": pa.array(out_rows["skipped"], pa.bool_()),
    })


def build_filters(index_dir: str, cfg: IndexConfig) -> None:
    """PASS C: keyword-filter postings, doc-range partitioned exactly
    like the docstore (filters/<field>/part-XXXX.parquet).  One task
    per docstore part, fanned out as a Dataset over the part file list;
    query-time filter intersection is per-part."""
    if not cfg.keyword_fields and not cfg.range_fields:
        return
    # remove the pre-v4 single-file layout if present
    for fname in cfg.keyword_fields:
        legacy = os.path.join(index_dir, f"filter-{fname}.parquet")
        if os.path.exists(legacy):
            os.unlink(legacy)
    store_dir = os.path.join(index_dir, "docstore")
    files = sorted(f for f in os.listdir(store_dir) if f.endswith(".parquet"))
    if files:
        # fail fast with the config knob named — a missing column would
        # otherwise surface as an opaque pyarrow error deep in a Ray task
        have = set(pq.read_schema(os.path.join(store_dir, files[0])).names)
        missing = [(f, "keyword_fields") for f in cfg.keyword_fields
                   if f not in have]
        missing += [(f, "range_fields") for f in cfg.range_fields
                    if f not in have]
        if missing:
            raise ValueError(
                "configured filter column(s) absent from the docstore: "
                + ", ".join(f"{f!r} ({knob})" for f, knob in missing)
                + f"; docstore columns: {sorted(have)}")
    items = [{"path": os.path.join(store_dir, f),
              "dpart": int(f.split("-")[1].split(".")[0])} for f in files]
    fields = list(cfg.keyword_fields)
    import functools
    task = functools.partial(_build_filter_part, index_dir=index_dir,
                             fields=fields,
                             range_fields=list(cfg.range_fields))
    # consume for effect; tiny metrics rows come back
    rd.from_items(items).map_batches(
        task, batch_format="pyarrow", batch_size=1).materialize()


# ---------------------------------------------------------------------------
# PASS D — stats + manifest


def finalize(index_dir: str, cfg: IndexConfig, fp: str, n_docs: int,
             pass_metrics: dict, wall_sec: float) -> dict:
    # per-field total_tf was accumulated from the encode metrics rows —
    # no driver-side re-read of segment files
    total_tf: dict[str, int] = {f: 0 for f, _, _ in cfg.fields}
    total_tf.update(pass_metrics.pop("field_tf", {}))
    stats = {
        "n_docs": n_docs,
        "avgdl": {f: (total_tf[f] / n_docs if n_docs else 0.0) for f in total_tf},
        "total_tf": total_tf,
    }
    manifest = {
        "format_version": FORMAT_VERSION,
        "fingerprint": fp,
        "config": cfg.fingerprint_dict(),
        "stats": stats,
        "metrics": dict(pass_metrics, build_wall_sec=round(wall_sec, 3)),
    }
    _atomic_write_json(manifest, os.path.join(index_dir, "INDEX_MANIFEST.json"))
    return manifest


def _purge_stale_outputs(index_dir: str, fp: str,
                         extra_fps: tuple = ()) -> None:
    """Remove every segment/docstore output whose manifest is missing or
    carries a different input fingerprint, plus orphan parquet files
    with no manifest at all.  Rebuilding into an existing directory
    with a changed config/corpus could otherwise leave orphan segments
    that a ShardReader would happily serve (wrong results).  Current-
    fingerprint artifacts survive, which is exactly the resume set."""
    mdir = os.path.join(index_dir, "manifest")
    live_fps = {fp, *extra_fps}
    manifested: set[str] = set()
    for fn in list(os.listdir(mdir)) if os.path.isdir(mdir) else []:
        path = os.path.join(mdir, fn)
        try:
            with open(path) as f:
                m = json.load(f)
        except (ValueError, OSError):
            os.unlink(path)
            continue
        if fn.startswith(("filter-", "rangef-")):
            # filter parts are keyed on their source docstore file, not
            # the build fingerprint — stale iff the source vanished or
            # changed (covers rebuilds AND extend_index generations)
            src_ok = (m.get("src") and os.path.exists(m["src"])
                      and m.get("fingerprint") == _file_fp(m["src"]))
            if not src_ok:
                target = m.get("path")
                if target and os.path.exists(target):
                    os.unlink(target)
                os.unlink(path)
            elif m.get("path"):
                manifested.add(os.path.abspath(m["path"]))
        elif m.get("fingerprint") not in live_fps:
            target = m.get("path")
            if target and os.path.exists(target):
                os.unlink(target)
            os.unlink(path)
        elif m.get("path"):
            manifested.add(os.path.abspath(m["path"]))
    for sub in ("parts", "docstore", "filters", "filters_range"):
        root_dir = os.path.join(index_dir, sub)
        for root, _, files in os.walk(root_dir):
            for fn in files:
                p = os.path.abspath(os.path.join(root, fn))
                if fn.endswith(".parquet") and p not in manifested:
                    os.unlink(p)
                elif fn.endswith(".tmp"):
                    os.unlink(p)


@_tuned_data_context
def build_index(source, index_dir: str, cfg: IndexConfig | None = None,
                resume: bool = True) -> dict:
    """Full build. Returns the index manifest dict."""
    cfg = cfg or IndexConfig()
    t0 = time.monotonic()
    os.makedirs(os.path.join(index_dir, "manifest"), exist_ok=True)
    os.makedirs(os.path.join(index_dir, "parts"), exist_ok=True)
    fp = input_fingerprint(source, cfg)
    man_path = os.path.join(index_dir, "INDEX_MANIFEST.json")
    if resume and os.path.exists(man_path):
        with open(man_path) as f:
            m = json.load(f)
        if m.get("fingerprint") == fp:
            return m
    if not resume:
        # invalidate stale segment manifests so every group re-encodes
        mdir = os.path.join(index_dir, "manifest")
        for f in os.listdir(mdir):
            os.unlink(os.path.join(mdir, f))
    _purge_stale_outputs(index_dir, fp)
    metrics, n_docs = build_postings(source, index_dir, cfg, fp)
    build_filters(index_dir, cfg)
    return finalize(index_dir, cfg, fp, n_docs, metrics,
                    time.monotonic() - t0)


@_tuned_data_context
def extend_index(new_source, index_dir: str,
                 cfg: IndexConfig | None = None) -> dict:
    """Incremental ingestion: append a new GENERATION of documents to an
    existing index without rebuilding it — the reference's continuous
    operating mode (es-loader ingests forever; OpenSearch merges
    segments, reference index.py:320-397).

    New postings/docstore rows land in generation-suffixed files
    (``seg-00-g<fp8>.parquet`` / ``part-DDDD-g<fp8>.parquet``) next to
    the base build's; ``ShardReader`` merges a term's runs across
    segments, so queries see old+new docs with no read-path changes.
    Stats (n_docs, per-field total_tf, avgdl) are combined in the
    manifest; keyword-filter parts for the new docstore files are added
    by the per-file-fingerprinted PASS C.

    Chronology guarantee: generations are UNORDERED and query results
    are independent of ingestion order.  This is safe by construction,
    not convention — the upsert guard below rejects any generation
    whose doc ids collide with live docs (double-count) or tombstones
    (revival), so no two runs of one term can ever disagree about a
    doc and merge order cannot matter.  Corollary: "latest version
    wins" semantics require the explicit upsert flow (``delete_docs``
    -> ``compact_index`` -> ``extend_index``); there is no implicit
    last-writer-wins across generations.  Order-independence is
    regression-tested (extend A,B == extend B,A, rank+score).

    Assumes the new generation's doc_ids are disjoint from existing
    ones (true for content-derived ids over newly arrived objects);
    re-ingesting an identical generation is a no-op (fingerprint
    check).  Config must equal the base build's.  A subsequent
    ``build_index`` over a *different* base source purges generations
    (full-rebuild semantics).
    """
    man_path = os.path.join(index_dir, "INDEX_MANIFEST.json")
    with open(man_path) as f:
        manifest = json.load(f)
    base_cfg = config_from_dict(manifest["config"])
    cfg = cfg or base_cfg
    if cfg.fingerprint_dict() != base_cfg.fingerprint_dict():
        raise ValueError("extend_index requires the base build's config")
    if isinstance(new_source, rd.Dataset):
        raise TypeError(
            "extend_index needs a fingerprintable source (files/dir): "
            "in-memory Datasets have no stable identity for the "
            "generation ledger")
    t0 = time.monotonic()
    genfp = input_fingerprint(new_source, cfg)
    gens = manifest.setdefault("generations", {})
    if (genfp == manifest["fingerprint"] or genfp in gens
            or genfp in manifest.get("compacted_from", [])):
        # already ingested (possibly folded in by a past compaction)
        return manifest
    _scrub_orphan_generations(index_dir, manifest)
    gen_tag = f"-g{genfp[:8]}"
    metrics, n_docs = build_postings(new_source, index_dir, cfg, genfp,
                                     gen=gen_tag)
    # Upsert guard: re-ingesting a currently tombstoned id would revive
    # the OLD postings alongside the new ones (tombstones are not
    # generation-scoped), and re-ingesting a LIVE id would double-count
    # it in df/tf/docstore (generations carry no chronology — runs
    # merge unordered, so neither copy would win).  The supported
    # upsert flow is delete -> compact (physical removal) -> extend;
    # refuse BEFORE the ledger/stats update and scrub the rejected
    # generation's outputs.  The live-id check is per docstore part
    # (ids are doc_id%P-partitioned, so a new part-DDDD-g file can only
    # collide with its own part's base/other-gen files) and reads the
    # id column only.
    from ..state.shard import load_tombstones
    tombs = load_tombstones(index_dir)
    store = os.path.join(index_dir, "docstore")
    gen_suffix = f"{gen_tag}.parquet"
    for fn in sorted(os.listdir(store)):
        if not fn.endswith(gen_suffix):
            continue
        new_ids = pq.read_table(os.path.join(store, fn),
                                columns=["doc_id"]) \
            .column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        if tombs.size:
            clash = np.intersect1d(new_ids, tombs)
            if clash.size:
                _scrub_generation(index_dir, gen_tag)
                raise ValueError(
                    f"{clash.size} ingested doc id(s) are tombstoned; "
                    "run compact_index() before re-ingesting deleted "
                    "ids (upsert = delete -> compact -> extend)")
        part_prefix = fn[:9]                      # part-DDDD
        for other in sorted(os.listdir(store)):
            if (other == fn or not other.startswith(part_prefix)
                    or other[9] not in ".-"
                    or not other.endswith(".parquet")
                    or other.endswith(gen_suffix)):
                continue
            old_ids = pq.read_table(os.path.join(store, other),
                                    columns=["doc_id"]) \
                .column("doc_id").to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            dup = np.intersect1d(new_ids, old_ids)
            if dup.size:
                _scrub_generation(index_dir, gen_tag)
                raise ValueError(
                    f"{dup.size} ingested doc id(s) already live in "
                    "the index (generations are unordered — re-ingest "
                    "would double-count); upsert = delete_docs -> "
                    "compact_index -> extend_index")
    build_filters(index_dir, cfg)
    # combine stats: totals add; avgdl recomputed from the sums
    stats = manifest["stats"]
    field_tf = metrics.pop("field_tf", {})
    for fname, t in field_tf.items():
        stats["total_tf"][fname] = stats["total_tf"].get(fname, 0) + int(t)
    stats["n_docs"] = int(stats["n_docs"]) + int(n_docs)
    nd = stats["n_docs"]
    stats["avgdl"] = {fname: (tf / nd if nd else 0.0)
                      for fname, tf in stats["total_tf"].items()}
    gens[genfp] = {"n_docs": int(n_docs),
                   "metrics": dict(metrics,
                                   extend_wall_sec=round(
                                       time.monotonic() - t0, 3))}
    _atomic_write_json(manifest, man_path)
    return manifest


class _CompactPart:
    """One task per partition: merge the part's base + generation
    segments into a single canonical seg-00, via the
    existing encode path (adaptive LUT and all).  The merge is the
    read-time run merge made durable — OpenSearch segment-merge parity
    (the reference delegates merging to OpenSearch entirely)."""

    def __init__(self, index_dir: str, fp: str, cfg_dict: dict):
        from ..state.shard import load_tombstones
        self.index_dir = index_dir
        self.fp = fp
        self.cfg = IndexConfig(**cfg_dict)
        # compaction applies tombstones physically
        self.tombstones = load_tombstones(index_dir)

    def _compact_postings_part(self, part: int) -> None:
        from ..postings import decode_positions, decode_postings
        from ..state.shard import ShardReader
        rdr = ShardReader(self.index_dir, part)
        if not rdr.terms:
            return
        # compaction walks every term: batch the whole part's
        # ordinal->id remap up front instead of per-term lazy remaps
        rdr.materialize_all()
        with_pos = bool(self.cfg.store_positions)
        cols: dict[str, list] = {k: [] for k in
                                 ("field", "term", "docs", "tfs",
                                  "norms", "npost")}
        pos_rows: list[bytes] = []
        plen_rows: list[bytes] = []
        for (field, term), rows in rdr.terms.items():
            docs_l, tfs_l, nms_l, pos_l = [], [], [], []
            for row in rows:
                tp = decode_postings(row[1], row[2], row[3], row[0])
                docs_l.append(tp.doc_ids)
                tfs_l.append(tp.tfs)
                nms_l.append(tp.norms)
                if with_pos:
                    pos_l.extend(decode_positions(row[5], tp.tfs))
            docs = np.concatenate(docs_l)
            order = np.argsort(docs, kind="stable")
            if self.tombstones.size:
                live = ~np.isin(docs[order], self.tombstones)
                order = order[live]
            docs = np.concatenate(docs_l)[order]
            tfs = np.concatenate(tfs_l)[order]
            nms = np.concatenate(nms_l)[order]
            n = docs.size
            if n == 0:
                continue
            # packed-run exchange rows (the combiner format the encode
            # pass consumes — one row per term)
            cols["field"].append(field)
            cols["term"].append(term)
            cols["docs"].append(docs.astype(np.int64).tobytes())
            cols["tfs"].append(tfs.astype(np.int32).tobytes())
            cols["norms"].append(nms.astype(np.uint8).tobytes())
            cols["npost"].append(int(n))
            if with_pos:
                blobs = [encode_positions([pos_l[int(i)]]) for i in order]
                pos_rows.append(b"".join(blobs))
                plen_rows.append(np.asarray([len(b) for b in blobs],
                                            dtype=np.uint32).tobytes())
        if not cols["field"]:
            # every posting in this part was tombstoned: the part has
            # no live terms — drop its segment files entirely
            mdir0 = os.path.join(self.index_dir, "manifest")
            for fn in list(os.listdir(mdir0)):
                if fn.startswith(f"seg-{part:04d}-"):
                    os.unlink(os.path.join(mdir0, fn))
            part_dir0 = os.path.join(self.index_dir, "parts",
                                     f"part-{part:04d}")
            for fn in list(os.listdir(part_dir0)):
                if fn.endswith(".parquet"):
                    os.unlink(os.path.join(part_dir0, fn))
            return
        group = {
            "part": pa.array(np.full(len(cols["field"]), part, np.int32)),
            "field": pa.array(cols["field"], pa.string()),
            "term": pa.array(cols["term"], pa.string()),
            "docs": pa.array(cols["docs"], pa.large_binary()),
            "tfs": pa.array(cols["tfs"], pa.large_binary()),
            "norms": pa.array(cols["norms"], pa.large_binary()),
            "npost": pa.array(cols["npost"], pa.int32()),
        }
        if with_pos:
            group["pos"] = pa.array(pos_rows, pa.large_binary())
            group["plens"] = pa.array(plen_rows, pa.large_binary())
        # remove superseded manifests FIRST so the encode below cannot
        # skip on a stale fingerprint, then the files after the write
        mdir = os.path.join(self.index_dir, "manifest")
        old_mans = [fn for fn in os.listdir(mdir)
                    if fn.startswith(f"seg-{part:04d}-")]
        for fn in old_mans:
            os.unlink(os.path.join(mdir, fn))
        _encode_segment(pa.table(group), self.index_dir, self.fp,
                        self.cfg, docstore_cols=[])
        part_dir = os.path.join(self.index_dir, "parts", f"part-{part:04d}")
        for fn in os.listdir(part_dir):
            if fn.endswith(".parquet") and fn != "seg-00.parquet":
                os.unlink(os.path.join(part_dir, fn))

    def _compact_docstore_part(self, dpart: int) -> None:
        store = os.path.join(self.index_dir, "docstore")
        prefix = f"part-{dpart:04d}"
        names = [fn for fn in sorted(os.listdir(store))
                 if fn.endswith(".parquet") and fn.startswith(prefix)
                 and fn[len(prefix)] in ".-"]
        if not names:
            return
        tbl = pa.concat_tables(
            [pq.read_table(os.path.join(store, fn)) for fn in names],
            promote_options="default")
        idx = pa.compute.sort_indices(tbl, sort_keys=[
            ("doc_id", "ascending"), ("content_sha256", "ascending")])
        tbl = tbl.take(idx)
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        _, first = np.unique(ids, return_index=True)
        tbl = tbl.take(np.sort(first))
        if self.tombstones.size:
            ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
            tbl = tbl.filter(pa.array(
                ~np.isin(ids.astype(np.uint64), self.tombstones)))
        out = os.path.join(store, f"{prefix}.parquet")
        _atomic_write_table(tbl, out)
        mdir = os.path.join(self.index_dir, "manifest")
        for fn in os.listdir(mdir):
            if fn.startswith(f"docstore-{dpart:04d}"):
                os.unlink(os.path.join(mdir, fn))
        sha_xor = 0
        for s in tbl.column("content_sha256").to_pylist():
            sha_xor ^= int(s[:16], 16)
        _atomic_write_json({"fingerprint": self.fp, "rows": tbl.num_rows,
                            "sha_xor_hi64": sha_xor,
                            "bytes": os.stat(out).st_size, "path": out},
                           os.path.join(mdir, f"docstore-{dpart:04d}.json"))
        for fn in names:
            if fn != f"{prefix}.parquet":
                os.unlink(os.path.join(store, fn))

    def __call__(self, batch: pa.Table) -> pa.Table:
        for p in batch.column("part").to_pylist():
            self._compact_postings_part(int(p))
            self._compact_docstore_part(int(p))
        return pa.table({"part": batch.column("part")})


@_tuned_data_context
def compact_index(index_dir: str) -> dict:
    """Fold every generation added by :func:`extend_index` back into
    one canonical segment per part (and one docstore file per doc
    range), fanned out as one Ray task per partition.  Search results
    are identical before and after (the run merge that happened at
    read time is simply made durable); subsequent reads skip the
    multi-run merge cost.  Filter parts regenerate from the rewritten
    docstore files (per-file fingerprints).  The manifest's
    fingerprint becomes a combined lineage hash; ``generations``
    empties; ``extend_index`` keeps working afterwards."""
    import functools
    import hashlib

    man_path = os.path.join(index_dir, "INDEX_MANIFEST.json")
    with open(man_path) as f:
        manifest = json.load(f)
    from ..state.shard import load_tombstones
    cfg = config_from_dict(manifest["config"])
    gens = manifest.get("generations", {})
    tombs = load_tombstones(index_dir)
    if not gens and tombs.size == 0:
        return manifest
    _scrub_orphan_generations(index_dir, manifest)
    combined = hashlib.sha256(
        ("|".join([manifest["fingerprint"]] + sorted(gens) +
                  [f"tomb:{tombs.size}:{int(tombs.sum())}"])).encode()
    ).hexdigest()[:16]
    items = [{"part": p} for p in range(cfg.num_partitions)]
    rd.from_items(items).map_batches(
        _CompactPart,
        fn_constructor_kwargs=dict(index_dir=index_dir, fp=combined,
                                   cfg_dict=cfg.fingerprint_dict()),
        batch_format="pyarrow", batch_size=1,
        concurrency=min(cfg.num_partitions, 8)).materialize()
    build_filters(index_dir, cfg)
    manifest["compacted_from"] = sorted(
        set(manifest.get("compacted_from", []))
        | {manifest["fingerprint"]} | set(gens))
    manifest["fingerprint"] = combined
    manifest["generations"] = {}
    if tombs.size:
        # stats shrink to the live docs: recount from the docstore
        # manifests (tiny driver-side JSON reads) and drop the
        # tombstone file — deletes are now physical
        store = os.path.join(index_dir, "docstore")
        n_docs = 0
        for fn in os.listdir(store):
            if fn.endswith(".parquet"):
                n_docs += pq.read_metadata(
                    os.path.join(store, fn)).num_rows
        removed = int(manifest["stats"]["n_docs"]) - n_docs
        manifest["stats"]["n_docs"] = n_docs
        # per-field total_tf: recompute from the fresh segment
        # manifests; every configured field stays present (0) so
        # stats["avgdl"][field] lookups never KeyError on an
        # empty/field-less index
        total_tf: dict[str, int] = {f: 0 for f, _, _ in cfg.fields}
        mdir = os.path.join(index_dir, "manifest")
        for fn in os.listdir(mdir):
            if fn.startswith("seg-"):
                with open(os.path.join(mdir, fn)) as f:
                    for fname2, t in json.load(f).get(
                            "field_tf", {}).items():
                        total_tf[fname2] = total_tf.get(fname2, 0) + int(t)
        manifest["stats"]["total_tf"] = total_tf
        manifest["stats"]["avgdl"] = {
            fname2: (t / n_docs if n_docs else 0.0)
            for fname2, t in total_tf.items()}
        manifest["compaction_removed_docs"] = removed
        tpath = os.path.join(index_dir, "tombstones.parquet")
        if os.path.exists(tpath):
            os.unlink(tpath)
    _atomic_write_json(manifest, man_path)
    _purge_stale_outputs(index_dir, combined)
    return manifest


def _scrub_orphan_generations(index_dir: str, manifest: dict) -> None:
    """Remove generation outputs whose fingerprint is not in the
    manifest's ledger — the debris of an extend_index that crashed
    between writing segments and updating the manifest.  Without this,
    ShardReader (which loads every seg-*.parquet in a part dir) would
    serve phantom docs scored with stale global stats."""
    import re as _re
    valid = {fp[:8] for fp in manifest.get("generations", {})}
    mdir = os.path.join(index_dir, "manifest")
    tags: set[str] = set()
    if os.path.isdir(mdir):
        for fn in os.listdir(mdir):
            m = _re.search(r"-g([0-9a-f]{8})\.json$", fn)
            if m:
                tags.add(m.group(1))
    for tag in tags - valid:
        _scrub_generation(index_dir, f"-g{tag}")


def _scrub_generation(index_dir: str, gen_tag: str) -> None:
    """Remove every file/manifest a (rejected) generation wrote."""
    suffix = f"{gen_tag}.parquet"
    for root, _, files in os.walk(index_dir):
        for fn in files:
            if fn.endswith(suffix):
                os.unlink(os.path.join(root, fn))
    mdir = os.path.join(index_dir, "manifest")
    mtag = gen_tag + ".json"
    for fn in list(os.listdir(mdir)):
        if fn.endswith(mtag):
            os.unlink(os.path.join(mdir, fn))


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone documents: excluded from every query/fetch immediately,
    removed physically at the next :func:`compact_index` (Lucene
    deleted-doc semantics — df/N keep counting them until merge, which
    is also the reference's OpenSearch behavior).  Returns the total
    tombstone count.  Upsert = ``delete_docs`` -> ``compact_index`` ->
    ``extend_index`` with the new version; extend REFUSES ids that are
    still tombstoned (re-ingesting one would revive its old postings
    next to the new ones)."""
    from ..state.shard import load_tombstones
    new = np.asarray(sorted(int(d) for d in doc_ids), dtype=np.uint64)
    cur = load_tombstones(index_dir)
    merged = np.union1d(cur, new)
    _atomic_write_table(
        pa.table({"doc_id": pa.array(merged.astype(np.int64), pa.int64())}),
        os.path.join(index_dir, "tombstones.parquet"))
    return int(merged.size)


def reindex(index_dir: str, out_dir: str, new_cfg: IndexConfig,
            resume: bool = True) -> dict:
    """Rebuild an index under a NEW config from its stored ``_source``
    (OpenSearch ``_reindex`` parity — the reference re-drives the
    loader when mappings change; here the docstore IS the source).
    Requires the source index built with ``store_source=True``; its
    docstore parquet files (already doc-range partitioned, one
    ``doc_id`` per row) become the build input, so per-file lineage
    and ``resume`` work exactly like a fresh :func:`build_index`.
    Tombstoned docs are dropped (reindex copies live docs only) — a
    filtered read replaces the file-path input when tombstones exist.

    ``new_cfg`` must read the stored source column (the old
    ``sha_col``); ``doc_id_col`` is forced to ``"doc_id"`` so
    identities survive the round trip."""
    import dataclasses
    import glob as _glob
    with open(os.path.join(index_dir, "INDEX_MANIFEST.json")) as f:
        old_man = json.load(f)
    old_cfg = old_man["config"]
    if not old_cfg.get("store_source"):
        raise ValueError("reindex needs the source index built with "
                         "store_source=True (the docstore keeps only "
                         "content_sha256 otherwise)")
    src_col = old_cfg["sha_col"]
    missing = [col for _, col, _ in new_cfg.fields if col != src_col
               and col not in _docstore_schema_names(index_dir)]
    if missing:
        raise ValueError(f"new_cfg fields reference columns {missing} "
                         f"not present in the docstore")
    if new_cfg.sha_col != src_col:
        raise ValueError(f"new_cfg.sha_col must be {src_col!r} (the "
                         "stored source column) to preserve the "
                         "content-sha256 invariant")
    new_cfg = dataclasses.replace(new_cfg, doc_id_col="doc_id")
    files = sorted(_glob.glob(os.path.join(index_dir, "docstore",
                                           "*.parquet")))
    from ..state.shard import load_tombstones
    tombs = load_tombstones(index_dir)
    if tombs.size == 0:
        return build_index(files, out_dir, new_cfg, resume=resume)
    dead = tombs.astype(np.int64)

    def drop_tombstoned(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(dead, ids),
                         max(dead.size - 1, 0))
        return batch.filter(pa.array(dead[pos] != ids))

    # an in-memory Dataset fingerprints as "ephemeral" — resume could
    # wrongly match a prior reindex run with DIFFERENT tombstones, so
    # the filtered path always rebuilds from scratch
    ds = _read_source(files).map_batches(drop_tombstoned,
                                         batch_format="pyarrow")
    return build_index(ds, out_dir, new_cfg, resume=False)


def _docstore_schema_names(index_dir: str) -> list[str]:
    import glob as _glob
    files = sorted(_glob.glob(os.path.join(index_dir, "docstore",
                                           "*.parquet")))
    if not files:
        return []
    return pq.read_schema(files[0]).names



def config_from_manifest(index_dir: str) -> IndexConfig:
    """The IndexConfig an index was built with, read from its manifest."""
    with open(os.path.join(index_dir, "INDEX_MANIFEST.json")) as f:
        return config_from_dict(json.load(f)["config"])


def split_index(index_dir: str, out_dir: str, num_partitions: int,
                resume: bool = True) -> dict:
    """OpenSearch ``_split``: re-shard an index to MORE partitions.
    The target count must be a multiple of the source's (the
    OpenSearch split-factor rule); everything else about the config is
    preserved, doc identities survive (reindex from the docstore), and
    search results are identical — partition count is a layout
    property, not a semantic one (regression-tested)."""
    old = config_from_manifest(index_dir)
    if num_partitions <= old.num_partitions \
            or num_partitions % old.num_partitions:
        raise ValueError(
            f"_split target shards ({num_partitions}) must be a "
            f"multiple of and greater than the source's "
            f"({old.num_partitions})")
    import dataclasses
    return reindex(index_dir, out_dir,
                   dataclasses.replace(old,
                                       num_partitions=num_partitions),
                   resume=resume)


def shrink_index(index_dir: str, out_dir: str, num_partitions: int,
                 resume: bool = True) -> dict:
    """OpenSearch ``_shrink``: re-shard an index to FEWER partitions.
    The target count must be a factor of the source's (the OpenSearch
    shrink rule); same preservation guarantees as :func:`split_index`."""
    old = config_from_manifest(index_dir)
    if num_partitions >= old.num_partitions or num_partitions < 1 \
            or old.num_partitions % num_partitions:
        raise ValueError(
            f"_shrink target shards ({num_partitions}) must be a "
            f"factor of and smaller than the source's "
            f"({old.num_partitions})")
    import dataclasses
    return reindex(index_dir, out_dir,
                   dataclasses.replace(old,
                                       num_partitions=num_partitions),
                   resume=resume)
