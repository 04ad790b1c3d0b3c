"""Posting-list codec: delta + LEB128 varint in blocks of 128 with
skip / block-max metadata.

Replaces the Lucene segment postings format the reference delegates to
OpenSearch (reference: source/lambda/deploy_es/command_index.txt — index
templates only; no in-repo postings code).  Layout per term:

- ``docs`` blob:  sorted doc ids, delta-encoded (first delta from 0,
  block-initial delta from the previous block's last id) then LEB128
  varint — a full decode is a vectorized varint-decode + cumsum.
- ``tfs`` blob:   term frequencies, LEB128 varint, same block split.
- ``norms`` blob: 1 byte per posting (Lucene SmallFloat byte4 of the
  doc length — ``norms.encode_norm``).
- ``skip`` blob:  per 128-posting block, fixed-width arrays:
  last_doc_id (u64), doc-blob end offset (u32), tf-blob end offset
  (u32), max_tf (u32), min_norm (u8).  ``last_doc_id`` is the skip
  pointer; ``(max_tf, min_norm)`` gives the block-max score bound for
  WAND (see ``norms.tf_norm_upper_bound``).

Doc ids are the engine's stable 63-bit content-derived ids (sparse).
Deltas within a posting list scale with 2^63/df, so exactly the long
(hot-term) lists compress well; the documented upgrade path is dense
per-range ordinals.  All codecs are numpy-vectorized — no per-posting
Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK = 128

_SKIP_DTYPE = np.dtype([
    ("last_doc", "<u8"),
    ("doc_end", "<u4"),
    ("tf_end", "<u4"),
    ("max_tf", "<u4"),
    ("min_norm", "u1"),
])


# ---------------------------------------------------------------------------
# LEB128 varint, vectorized


def _varint_lengths(a: np.ndarray) -> np.ndarray:
    """Per-value LEB128 byte counts (vectorized)."""
    lengths = np.ones(a.size, dtype=np.int64)
    t = a >> np.uint64(7)
    while t.any():
        lengths += (t > 0)
        t >>= np.uint64(7)
    return lengths


def _varint_encode_arr(a: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    starts = np.zeros(a.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    out = np.zeros(int(lengths.sum()), dtype=np.uint8)
    rem = a.copy()
    g = 0
    mask = lengths > g
    while mask.any():
        byte = (rem[mask] & np.uint64(0x7F)).astype(np.uint8)
        cont = (lengths[mask] > g + 1).astype(np.uint8) << 7
        out[starts[mask] + g] = byte | cont
        rem >>= np.uint64(7)
        g += 1
        mask = lengths > g
    return out


def varint_encode(values: np.ndarray) -> bytes:
    """Vectorized LEB128 encode of a uint64 array."""
    a = np.ascontiguousarray(values, dtype=np.uint64)
    if a.size == 0:
        return b""
    return _varint_encode_arr(a, _varint_lengths(a)).tobytes()


def varint_decode(blob: bytes, count: int | None = None) -> np.ndarray:
    """Vectorized LEB128 decode -> uint64 array."""
    raw = np.frombuffer(blob, dtype=np.uint8)
    if raw.size == 0:
        return np.zeros(0, dtype=np.uint64)
    ends = np.flatnonzero((raw & 0x80) == 0)  # terminator byte per value
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    vals = np.zeros(ends.size, dtype=np.uint64)
    g = 0
    mask = lengths > g
    while mask.any():
        vals[mask] |= (raw[starts[mask] + g] & np.uint64(0x7F)).astype(np.uint64) << np.uint64(7 * g)
        g += 1
        mask = lengths > g
    if count is not None and vals.size != count:
        raise ValueError(f"varint stream held {vals.size} values, expected {count}")
    return vals


# ---------------------------------------------------------------------------
# Term postings


@dataclass
class TermPostings:
    doc_ids: np.ndarray   # uint64, sorted ascending, unique
    tfs: np.ndarray       # uint32
    norms: np.ndarray     # uint8 (SmallFloat byte4 of doc length)

    @property
    def df(self) -> int:
        return int(self.doc_ids.size)


def _block_reduce(a: np.ndarray, n_blocks: int, pad_val, op) -> np.ndarray:
    pad = n_blocks * BLOCK - a.size
    if pad:
        a = np.concatenate([a, np.full(pad, pad_val, dtype=a.dtype)])
    return op(a.reshape(n_blocks, BLOCK), axis=1)


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray, norms: np.ndarray
                    ) -> tuple[bytes, bytes, bytes, bytes]:
    """-> (docs_blob, tfs_blob, norms_blob, skip_blob).

    ``doc_ids`` must be sorted ascending and unique (canonical order;
    enforced by the shard builder).  Fully vectorized: the delta stream
    is encoded in one shot (a block's first delta is the gap from the
    previous block's last id, so the concatenation of per-block streams
    equals the global delta stream) and per-block byte offsets come
    from a cumsum of the per-value varint lengths."""
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint32)
    norms = np.ascontiguousarray(norms, dtype=np.uint8)
    n = doc_ids.size
    if n == 0:
        return b"", b"", b"", b""
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    n_blocks = (n + BLOCK - 1) // BLOCK
    d_len = _varint_lengths(deltas)
    docs_blob = _varint_encode_arr(deltas, d_len)
    tfs64 = tfs.astype(np.uint64)
    t_len = _varint_lengths(tfs64)
    tfs_blob = _varint_encode_arr(tfs64, t_len)
    block_last_idx = np.minimum(np.arange(1, n_blocks + 1) * BLOCK, n) - 1
    skip = np.zeros(n_blocks, dtype=_SKIP_DTYPE)
    skip["last_doc"] = doc_ids[block_last_idx]
    skip["doc_end"] = np.cumsum(d_len)[block_last_idx]
    skip["tf_end"] = np.cumsum(t_len)[block_last_idx]
    skip["max_tf"] = _block_reduce(tfs, n_blocks, 0, np.max)
    skip["min_norm"] = _block_reduce(norms, n_blocks, 255, np.min)
    return (docs_blob.tobytes(), tfs_blob.tobytes(), norms.tobytes(),
            skip.tobytes())


def encode_postings_batch(ids_list: list[np.ndarray],
                          tfs_list: list[np.ndarray],
                          nms_list: list[np.ndarray]
                          ) -> list[tuple[bytes, bytes, bytes, bytes]]:
    """Encode MANY posting lists with one vectorized pass — byte-for-
    byte identical to ``[encode_postings(*run) for run in runs]``
    (regression-tested): the runs are laid end to end and handed to
    ``encode_postings_runs``."""
    K = len(ids_list)
    if K == 0:
        return []
    ns = np.fromiter((a.size for a in ids_list), dtype=np.int64, count=K)
    return list(zip(*encode_postings_runs(
        np.concatenate(ids_list), np.concatenate(tfs_list),
        np.concatenate(nms_list), ns)))


def encode_postings_runs(ids: np.ndarray, tfs: np.ndarray, nms: np.ndarray,
                         ns: np.ndarray) -> tuple[list[bytes], list[bytes],
                                                  list[bytes], list[bytes]]:
    """Encode the posting lists laid end to end in ``ids``/``tfs``/
    ``nms`` (run k holds ``ns[k]`` postings) -> per-run (docs, tfs,
    norms, skip) blob lists, each blob equal to ``encode_postings``'s.

    The trick mirrors the positional stream: a run's first delta is
    its absolute first id, so per-run delta streams concatenate into
    one global stream whose LEB128 bytes slice apart on the varint
    -length cumsum.  Skip blocks vectorize across every run at once
    via ``reduceat`` over global block starts."""
    ids = np.asarray(ids).astype(np.uint64, copy=False)
    tfs32 = np.asarray(tfs).astype(np.uint32, copy=False)
    nms = np.asarray(nms).astype(np.uint8, copy=False)
    ns = np.asarray(ns, dtype=np.int64)
    K = ns.size
    starts = np.zeros(K, dtype=np.int64)
    np.cumsum(ns[:-1], out=starts[1:])
    total = int(ns.sum())
    deltas = np.empty(total, dtype=np.uint64)
    if total:
        deltas[1:] = ids[1:] - ids[:-1]
        nonempty = ns > 0
        deltas[starts[nonempty]] = ids[starts[nonempty]]
    d_len = _varint_lengths(deltas)
    d_blob = _varint_encode_arr(deltas, d_len).tobytes()
    d_cum = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(d_len, out=d_cum[1:])
    t_len = _varint_lengths(tfs32.astype(np.uint64))
    t_blob = _varint_encode_arr(tfs32.astype(np.uint64), t_len).tobytes()
    t_cum = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(t_len, out=t_cum[1:])
    nb = (ns + BLOCK - 1) // BLOCK
    nb_cum = np.zeros(K + 1, dtype=np.int64)
    np.cumsum(nb, out=nb_cum[1:])
    tb = int(nb_cum[-1])
    block_run = np.repeat(np.arange(K), nb)
    within = np.arange(tb) - nb_cum[block_run]
    bstart = starts[block_run] + within * BLOCK
    bend = np.minimum(bstart + BLOCK, starts[block_run] + ns[block_run])
    skip = np.zeros(tb, dtype=_SKIP_DTYPE)
    if tb:
        skip["last_doc"] = ids[bend - 1]
        skip["doc_end"] = d_cum[bend] - d_cum[starts[block_run]]
        skip["tf_end"] = t_cum[bend] - t_cum[starts[block_run]]
        skip["max_tf"] = np.maximum.reduceat(tfs32, bstart)
        skip["min_norm"] = np.minimum.reduceat(nms, bstart)
    skip_raw = skip.tobytes()
    nms_raw = nms.tobytes()
    ssz = _SKIP_DTYPE.itemsize
    ends = starts + ns

    def split(blob: bytes, lo: np.ndarray, hi: np.ndarray) -> list[bytes]:
        return [blob[a:b] for a, b in zip(lo.tolist(), hi.tolist())]

    return (split(d_blob, d_cum[starts], d_cum[ends]),
            split(t_blob, t_cum[starts], t_cum[ends]),
            split(nms_raw, starts, ends),
            split(skip_raw, nb_cum[:-1] * ssz, nb_cum[1:] * ssz))


def decode_postings(docs_blob: bytes, tfs_blob: bytes, norms_blob: bytes,
                    df: int) -> TermPostings:
    """Full vectorized decode (term-at-a-time scoring path)."""
    deltas = varint_decode(docs_blob, df)
    doc_ids = np.cumsum(deltas, dtype=np.uint64)
    tfs = varint_decode(tfs_blob, df).astype(np.uint32)
    norms = np.frombuffer(norms_blob, dtype=np.uint8)
    return TermPostings(doc_ids, tfs, norms)


def decode_skip(skip_blob: bytes) -> np.ndarray:
    return np.frombuffer(skip_blob, dtype=_SKIP_DTYPE)


def decode_block(docs_blob: bytes, tfs_blob: bytes, norms_blob: bytes,
                 skip: np.ndarray, j: int, df: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a single 128-posting block (WAND skipping path)."""
    doc_lo = int(skip[j - 1]["doc_end"]) if j else 0
    tf_lo = int(skip[j - 1]["tf_end"]) if j else 0
    base = np.uint64(skip[j - 1]["last_doc"]) if j else np.uint64(0)
    lo, hi = j * BLOCK, min((j + 1) * BLOCK, df)
    deltas = varint_decode(docs_blob[doc_lo:int(skip[j]["doc_end"])], hi - lo)
    doc_ids = base + np.cumsum(deltas, dtype=np.uint64)
    tfs = varint_decode(tfs_blob[tf_lo:int(skip[j]["tf_end"])], hi - lo).astype(np.uint32)
    norms = np.frombuffer(norms_blob, dtype=np.uint8)[lo:hi]
    return doc_ids, tfs, norms


def encode_positions(pos_lists: list[np.ndarray]) -> bytes:
    """Per-posting ascending position arrays -> one delta-varint stream
    (counts are the tf values, so no length prefix is stored)."""
    if not pos_lists:
        return b""
    deltas = []
    for p in pos_lists:
        p = np.asarray(p, dtype=np.uint64)
        d = np.empty(p.size, dtype=np.uint64)
        if p.size:
            d[0] = p[0]
            np.subtract(p[1:], p[:-1], out=d[1:])
        deltas.append(d)
    return varint_encode(np.concatenate(deltas))


def decode_positions(blob: bytes, tfs: np.ndarray) -> list[np.ndarray]:
    """-> per-posting position arrays (len(out[i]) == tfs[i])."""
    total = int(np.sum(tfs))
    vals = varint_decode(blob, total)
    out: list[np.ndarray] = []
    ends = np.cumsum(np.asarray(tfs, dtype=np.int64))
    lo = 0
    for hi in ends:
        out.append(np.cumsum(vals[lo:int(hi)], dtype=np.uint64))
        lo = int(hi)
    return out


class LazyPositions:
    """Per-run lazy position access: the varint stream decodes once
    (vectorized) on FIRST access, and per-posting arrays materialize
    only for requested postings — the phrase path's surviving
    candidates, not every posting (round-1 documented gap: eager
    decode built Python lists for the whole posting list)."""

    __slots__ = ("blob", "ends", "_vals")

    def __init__(self, blob: bytes, tfs: np.ndarray):
        self.blob = blob
        self.ends = np.cumsum(np.asarray(tfs, dtype=np.int64))
        self._vals: np.ndarray | None = None

    def for_posting(self, i: int) -> np.ndarray:
        if self._vals is None:
            total = int(self.ends[-1]) if self.ends.size else 0
            self._vals = varint_decode(self.blob, total)
        lo = 0 if i == 0 else int(self.ends[i - 1])
        return np.cumsum(self._vals[lo:int(self.ends[i])], dtype=np.uint64)


def merge_postings(runs: list[TermPostings]) -> TermPostings:
    """Merge runs of one term (disjoint doc sets, each sorted) into one
    canonical sorted posting list — a term's postings span every doc
    part and every extend_index generation segment."""
    if len(runs) == 1:
        return runs[0]
    doc_ids = np.concatenate([r.doc_ids for r in runs])
    tfs = np.concatenate([r.tfs for r in runs])
    norms = np.concatenate([r.norms for r in runs])
    order = np.argsort(doc_ids, kind="stable")
    return TermPostings(doc_ids[order], tfs[order], norms[order])
