"""Query execution: BM25 top-k over the doc-partitioned index.

The index is doc-partitioned (``doc_id % P``, SURVEY.md §7.1): every
part is a complete mini-index over its doc range, so a query term's
postings are sliced across every part.  Execution
(dfs_query_then_fetch):

1. stateful ``PartActor``s (a range of parts each, ShardReaders loaded
   once in ``__init__`` — the actor-pool equivalent of a warm
   OpenSearch shard, SURVEY.md §7.3) return per-part df for the
   analyzed query terms; the driver sums them into global idf,
2. each actor runs the same query method with that idf over its own
   parts through a shard-local ``Searcher`` and returns only its
   local top-k,
3. the driver merges the per-shard top-k.  The scorer is vectorized
   term-at-a-time (OR) or vectorized intersection (AND); block-max
   WAND (Ding & Suel, SIGIR'11) is kept as an explicit
   ``method='wand'`` and is rank-identical (tested).

One scatter path serves every query and aggregation.  A *shard group*
is a Searcher over a set of parts — an actor's shard-local Searcher,
or the in-process ``Searcher(use_actors=False)`` itself over every
part.  Each per-shard partial is one module function
``fn(group, *args)``; ``Searcher._scatter`` runs it once per group
and the calling method merges the results.  Scored methods route
themselves (``_routed``): with actors they name their dfs terms and
merge, and run through ``_exec_doc_sharded``; in process their body
runs as written.

Ranking contract (reference: Lucene defaults, BASELINE.md): BM25
k1=1.2 b=0.75, idf = ln(1+(N-df+0.5)/(df+0.5)), doc length quantized
through the SmallFloat byte4 norm, ties broken (score desc, doc_id
asc).  Keyword filters (lang/repo) intersect sorted filter posting
lists before ranking.

Scale notes: only df counts and top-k rows travel between actors and
the driver; postings never leave their shard on the default path.  A
term's runs across segments (base build + ``extend_index``
generations) are merged (sorted) and re-blocked in memory.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import inspect
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

import ray

from .. import B, K1
from ..analysis import ANALYZERS, POSITIONAL_ANALYZERS
from ..norms import decode_norm, idf as idf_fn, tf_norm
from ..postings import (BLOCK, LazyPositions, decode_postings,
                        merge_postings)
from .shard import ShardReader, match_part_files


@dataclass
class TermData:
    qidx: int              # position in the (deduped, ordered) query term list
    weight: float          # query-term multiplicity
    idf: float
    doc_ids: np.ndarray    # uint64 sorted
    tfs: np.ndarray
    lens: np.ndarray       # effective (norm-decoded) doc lengths
    blk_last: np.ndarray   # per-128-block last doc id
    blk_ub: np.ndarray     # per-block upper bound of idf*tfn (excl. weight)
    df: int = 0            # PRE-tombstone-exclusion df (the one idf used);
                           # doc_ids.size is the live (post-exclusion) count


def _blocks_from_arrays(doc_ids: np.ndarray, tfs: np.ndarray,
                        lens: np.ndarray, idf: float, avgdl: float,
                        k1: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    n = doc_ids.size
    n_blocks = (n + BLOCK - 1) // BLOCK
    pad = n_blocks * BLOCK - n
    if pad:
        tfs_p = np.concatenate([tfs, np.zeros(pad, tfs.dtype)])
        lens_p = np.concatenate([lens, np.full(pad, lens.max() if n else 1)])
    else:
        tfs_p, lens_p = tfs, lens
    max_tf = tfs_p.reshape(n_blocks, BLOCK).max(axis=1)
    min_len = lens_p.reshape(n_blocks, BLOCK).min(axis=1)
    blk_last = doc_ids[np.minimum(np.arange(1, n_blocks + 1) * BLOCK - 1, n - 1)]
    blk_ub = idf * tf_norm(max_tf, min_len, avgdl, k1, b)
    return blk_last, blk_ub


def _excl_mask(doc_ids: np.ndarray, excl: np.ndarray) -> np.ndarray:
    """Boolean keep-mask: True where doc_id is NOT tombstoned."""
    if excl.size == 0 or doc_ids.size == 0:
        return np.ones(doc_ids.size, dtype=bool)
    pos = np.minimum(np.searchsorted(excl, doc_ids), excl.size - 1)
    return excl[pos] != doc_ids


def prepare_terms(query_terms: list[str], rows_by_term: dict[str, list[tuple]],
                  n_docs: int, avgdl: float, k1: float = K1, b: float = B,
                  idf_by_term: dict[str, float] | None = None,
                  exclude_ids: np.ndarray | None = None
                  ) -> list[TermData]:
    """Dedup query terms (keeping first-seen order; multiplicity becomes
    the clause weight, Lucene boolean-clause parity), decode + merge
    the term's runs (one per part and segment), attach block-max
    metadata.  ``idf_by_term`` injects
    externally computed (global) idf — the doc-sharded path's
    dfs_query_then_fetch round, where local df must not drive idf."""
    counts = Counter(query_terms)
    ordered = list(dict.fromkeys(query_terms))
    out: list[TermData] = []
    for qidx, term in enumerate(ordered):
        rows = rows_by_term.get(term) or []
        runs = [decode_postings(docs, tfs, norms, df)
                for df, docs, tfs, norms, *_rest in rows]
        if not runs:
            out.append(TermData(qidx, float(counts[term]), 0.0,
                                np.zeros(0, np.uint64), np.zeros(0, np.uint32),
                                np.zeros(0, np.int64), np.zeros(0, np.uint64),
                                np.zeros(0, np.float64)))
            continue
        tp = merge_postings(runs)
        # tombstones: excluded from matching, but df/idf keep counting
        # them until compaction (Lucene deleted-doc semantics) — capture
        # the pre-exclusion df so explain() can report the df that the
        # idf was actually computed from
        raw_df = int(tp.df)
        _ov = idf_by_term.get(term) if idf_by_term is not None else None
        t_idf = (float(_ov) if _ov is not None
                 else float(idf_fn(raw_df, n_docs)))
        if exclude_ids is not None and exclude_ids.size:
            keep = _excl_mask(tp.doc_ids, exclude_ids)
            if not keep.all():
                from ..postings import TermPostings
                tp = TermPostings(tp.doc_ids[keep], tp.tfs[keep],
                                  tp.norms[keep])
        if tp.doc_ids.size == 0:
            out.append(TermData(qidx, float(counts[term]), 0.0,
                                np.zeros(0, np.uint64), np.zeros(0, np.uint32),
                                np.zeros(0, np.int64), np.zeros(0, np.uint64),
                                np.zeros(0, np.float64), df=raw_df))
            continue
        lens = decode_norm(tp.norms)
        w = float(counts[term])
        blk_last, blk_ub = _blocks_from_arrays(tp.doc_ids, tp.tfs, lens,
                                               t_idf, avgdl, k1, b)
        out.append(TermData(qidx, w, t_idf, tp.doc_ids, tp.tfs, lens.astype(np.int64),
                            blk_last, blk_ub, df=raw_df))
    return out


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique uint64 arrays (membership
    probes — no np.intersect1d re-sort)."""
    if a.size == 0 or b.size == 0:
        return a[:0]
    pos = np.minimum(np.searchsorted(b, a), b.size - 1)
    return a[b[pos] == a]


def _apply_filter(doc_ids: np.ndarray, filter_ids: np.ndarray | None) -> np.ndarray:
    """Boolean mask of doc_ids present in the sorted filter list."""
    if filter_ids is None:
        return np.ones(doc_ids.size, dtype=bool)
    if filter_ids.size == 0:
        return np.zeros(doc_ids.size, dtype=bool)
    pos = np.minimum(np.searchsorted(filter_ids, doc_ids), filter_ids.size - 1)
    return filter_ids[pos] == doc_ids


def _after_mask(doc_ids: np.ndarray, scores: np.ndarray,
                after: tuple[float, int]) -> np.ndarray:
    """Keep-mask for search_after pagination: docs strictly AFTER the
    cursor in (score desc, doc_id asc) order.  The cursor is the last
    hit of the previous page, so float equality is exact (same
    computation, same bytes)."""
    cs, cd = float(after[0]), np.uint64(after[1])
    return (scores < cs) | ((scores == cs) & (doc_ids > cd))


def score_taat(terms: list[TermData], k: int, mode: str, avgdl: float,
               filter_ids: np.ndarray | None = None,
               k1: float = K1, b: float = B,
               search_after: tuple[float, int] | None = None
               ) -> list[tuple[float, int]]:
    """Vectorized term-at-a-time scoring (exact; also the in-memory
    oracle for WAND).  Returns [(score, doc_id)] sorted (score desc,
    doc_id asc), length <= k.  ``search_after=(score, doc_id)``
    resumes strictly after a previous page's last hit (OpenSearch
    search_after deep-paging parity — no offset cost accumulates)."""
    live = [t for t in terms if t.doc_ids.size]
    n_required = len(terms)
    if not live or (mode == "and" and len(live) < n_required):
        return []
    all_docs = np.concatenate([t.doc_ids for t in live])
    contribs = np.concatenate([
        t.weight * t.idf * tf_norm(t.tfs, t.lens, avgdl, k1, b) for t in live])
    uniq, inv = np.unique(all_docs, return_inverse=True)
    scores = np.bincount(inv, weights=contribs, minlength=uniq.size)
    mask = np.ones(uniq.size, dtype=bool)
    if mode == "and":
        hits = np.bincount(inv, minlength=uniq.size)
        mask &= hits == n_required
    mask &= _apply_filter(uniq, filter_ids)
    uniq, scores = uniq[mask], scores[mask]
    if search_after is not None and uniq.size:
        keep = _after_mask(uniq, scores, search_after)
        uniq, scores = uniq[keep], scores[keep]
    if uniq.size == 0:
        return []
    kk = min(k, uniq.size)
    if uniq.size > 4096:
        # candidate pruning: everything scoring >= the kth score stays
        # eligible so (score desc, doc_id asc) ties resolve exactly
        thresh = np.partition(scores, uniq.size - kk)[uniq.size - kk]
        cand = np.flatnonzero(scores >= thresh)
    else:
        cand = np.arange(uniq.size)
    order = cand[np.lexsort((uniq[cand], -scores[cand]))][:kk]
    return [(float(scores[i]), int(uniq[i])) for i in order]


def score_and(terms: list[TermData], k: int, avgdl: float,
              filter_ids: np.ndarray | None = None,
              k1: float = K1, b: float = B,
              search_after: tuple[float, int] | None = None
              ) -> list[tuple[float, int]]:
    """Vectorized conjunction: intersect sorted posting lists smallest-
    first (numpy membership probes), then score only the surviving docs.
    Exact-equal to score_taat(mode='and') — the fast path for AND
    queries whatever the df sizes."""
    if not terms or any(t.doc_ids.size == 0 for t in terms):
        return []
    order = sorted(terms, key=lambda t: t.doc_ids.size)
    base = order[0].doc_ids
    for t in order[1:]:
        if base.size == 0:
            return []
        pos = np.minimum(np.searchsorted(t.doc_ids, base), t.doc_ids.size - 1)
        base = base[t.doc_ids[pos] == base]
    if filter_ids is not None:
        base = base[_apply_filter(base, filter_ids)]
    if base.size == 0:
        return []
    scores = np.zeros(base.size, dtype=np.float64)
    for t in sorted(terms, key=lambda t: t.qidx):  # fp-order pinned
        pos = np.searchsorted(t.doc_ids, base)
        scores += t.weight * t.idf * tf_norm(t.tfs[pos], t.lens[pos],
                                             avgdl, k1, b)
    if search_after is not None:
        keep = _after_mask(base, scores, search_after)
        base, scores = base[keep], scores[keep]
        if base.size == 0:
            return []
    kk = min(k, base.size)
    cand = np.arange(base.size)
    if base.size > 4096:
        thresh = np.partition(scores, base.size - kk)[base.size - kk]
        cand = np.flatnonzero(scores >= thresh)
    sel = cand[np.lexsort((base[cand], -scores[cand]))][:kk]
    return [(float(scores[i]), int(base[i])) for i in sel]


def score_bool(must: list[TermData], should: list[TermData], k: int,
               avgdl: float, minimum_should_match: int = 0,
               must_not_ids: np.ndarray | None = None,
               filter_ids: np.ndarray | None = None,
               k1: float = K1, b: float = B) -> list[tuple[float, int]]:
    """Boolean-query scoring (Lucene BooleanQuery semantics): a doc is
    eligible when it contains EVERY must clause, at least
    ``minimum_should_match`` should clauses, and NO must_not clause;
    its score is the sum of the matching must+should clauses' BM25
    contributions (must_not never scores).  Vectorized: the candidate
    base is the must intersection (or the should union when no musts),
    then membership probes accumulate per-clause contributions."""
    if must:
        if any(t.doc_ids.size == 0 for t in must):
            return []
        order = sorted(must, key=lambda t: t.doc_ids.size)
        base = order[0].doc_ids
        for t in order[1:]:
            pos = np.minimum(np.searchsorted(t.doc_ids, base),
                             t.doc_ids.size - 1)
            base = base[t.doc_ids[pos] == base]
            if base.size == 0:
                return []
    else:
        live = [t.doc_ids for t in should if t.doc_ids.size]
        if not live:
            return []
        base = np.unique(np.concatenate(live))
    if must_not_ids is not None and must_not_ids.size and base.size:
        base = base[_excl_mask(base, must_not_ids)]
    if filter_ids is not None:
        base = base[_apply_filter(base, filter_ids)]
    if base.size == 0:
        return []
    scores = np.zeros(base.size, dtype=np.float64)
    n_should = np.zeros(base.size, dtype=np.int64)
    for t in sorted(must, key=lambda t: t.qidx):    # fp-order pinned
        pos = np.searchsorted(t.doc_ids, base)
        scores += t.weight * t.idf * tf_norm(t.tfs[pos], t.lens[pos],
                                             avgdl, k1, b)
    for t in sorted(should, key=lambda t: t.qidx):
        if t.doc_ids.size == 0:
            continue
        pos = np.minimum(np.searchsorted(t.doc_ids, base),
                         t.doc_ids.size - 1)
        hit = t.doc_ids[pos] == base
        if hit.any():
            idx = pos[hit]
            scores[hit] += t.weight * t.idf * tf_norm(
                t.tfs[idx], t.lens[idx], avgdl, k1, b)
            n_should[hit] += 1
    if should and minimum_should_match > 0:
        keep = n_should >= minimum_should_match
        base, scores = base[keep], scores[keep]
    if base.size == 0:
        return []
    kk = min(k, base.size)
    cand = np.arange(base.size)
    if base.size > 4096:
        thresh = np.partition(scores, base.size - kk)[base.size - kk]
        cand = np.flatnonzero(scores >= thresh)
    sel = cand[np.lexsort((base[cand], -scores[cand]))][:kk]
    return [(float(scores[i]), int(base[i])) for i in sel]


# WAND's per-evaluated-doc cost is Python-level (~50us) while TAAT is
# numpy-vectorized (~0.5us/posting), so measured head-to-head TAAT wins
# at EVERY posting count in this interpreted engine (18x at 200
# postings, 90x at 5k — block-max skips cannot amortize the cursor
# loop).  In a compiled engine the crossover favors WAND on long
# lists; the block-max machinery and its exactness tests carry that
# design, `method="wand"` exercises it explicitly, and `auto` picks
# the practical winner.  The old 5,000-posting budget was tuned when
# only the driver scored; per-shard dfs on the doc-partitioned layout
# landed inside it and cost ~50ms/shard — hence the unconditional pick.


def choose_method(terms: list[TermData], mode: str) -> str:
    if mode == "and":
        return "and"
    return "taat"


class _Cursor:
    __slots__ = ("t", "pos", "n")

    def __init__(self, t: TermData):
        self.t = t
        self.pos = 0
        self.n = t.doc_ids.size

    @property
    def doc(self) -> int:
        return int(self.t.doc_ids[self.pos]) if self.pos < self.n else 1 << 63

    def advance_to(self, target: int) -> None:
        # np.uint64() keeps the compare integral — a Python-int target
        # would promote the uint64 ids to float64 and lose 63-bit precision
        target = min(target, (1 << 64) - 1)
        self.pos += int(np.searchsorted(self.t.doc_ids[self.pos:],
                                        np.uint64(target), side="left"))

    def bound_for(self, target: int) -> tuple[int, float]:
        """BMW shallow advance: (last doc, ub) of the block that contains
        ``target`` — the true per-block upper bound for scoring target.
        (inf, 0) when the posting list ends before target."""
        j = int(np.searchsorted(self.t.blk_last, np.uint64(target), side="left"))
        if j >= self.t.blk_last.size:
            return 1 << 63, 0.0
        return int(self.t.blk_last[j]), float(self.t.blk_ub[j]) * self.t.weight

    def max_ub(self) -> float:
        return float(self.t.blk_ub.max()) * self.t.weight if self.n else 0.0

    def contrib(self, avgdl: float, k1: float, b: float) -> float:
        i = self.pos
        return self.t.weight * self.t.idf * float(
            tf_norm(self.t.tfs[i:i + 1], self.t.lens[i:i + 1], avgdl, k1, b)[0])


def score_wand(terms: list[TermData], k: int, mode: str, avgdl: float,
               filter_ids: np.ndarray | None = None,
               k1: float = K1, b: float = B) -> list[tuple[float, int]]:
    """Document-at-a-time block-max WAND top-k.

    Maintains a (score, -doc_id) min-heap of size k; a pivot is the
    first cursor (sorted by current doc) where the prefix sum of term
    upper bounds reaches the heap threshold; block-max metadata then
    either certifies a deep skip past the shortest covered block or the
    pivot doc is fully evaluated.  ``mode='and'`` sets the required
    match count to all terms (conjunction iterator parity — SURVEY.md
    §2.5).  Exactness vs score_taat is pytest-asserted.
    """
    live = [t for t in terms if t.doc_ids.size]
    n_required = len(terms) if mode == "and" else 1
    if not live or len(live) < n_required:
        return []
    cursors = [_Cursor(t) for t in live]
    ubs = {id(c): c.max_ub() for c in cursors}
    heap: list[tuple[float, int]] = []  # (score, -doc_id); weakest first
    theta = -np.inf

    while True:
        cursors.sort(key=lambda c: c.doc)
        if cursors[0].doc == 1 << 63:
            break
        # pivot: first index where prefix ub sum could beat theta AND
        # at least n_required terms can align
        acc = 0.0
        pivot = None
        for i, c in enumerate(cursors):
            if c.doc == 1 << 63:
                break
            acc += ubs[id(c)]
            if i + 1 >= n_required and (acc >= theta or len(heap) < k):
                pivot = i
                break
        if pivot is None:
            break
        pivot_doc = cursors[pivot].doc
        # widen the pivot to every cursor already sitting on pivot_doc so
        # the block-max sum is a true upper bound for that doc
        while pivot + 1 < len(cursors) and cursors[pivot + 1].doc == pivot_doc:
            pivot += 1
        # block-max refinement over cursors[0..pivot]
        blocksum = 0.0
        min_blk_last = 1 << 63
        for c in cursors[:pivot + 1]:
            bl, bub = c.bound_for(pivot_doc)
            blocksum += bub
            min_blk_last = min(min_blk_last, bl)
        if len(heap) >= k and blocksum < theta:
            nxt = min_blk_last + 1
            if pivot + 1 < len(cursors):
                nxt = min(nxt, cursors[pivot + 1].doc)
            nxt = max(nxt, pivot_doc + 1)
            for c in cursors[:pivot + 1]:
                c.advance_to(nxt)
            continue
        if cursors[0].doc == pivot_doc:
            # fully evaluate pivot_doc
            matched = [c for c in cursors if c.doc == pivot_doc]
            ok = len(matched) >= n_required and (
                mode != "and" or len(matched) == len(terms))
            if ok and filter_ids is not None:
                ok = bool(_apply_filter(np.array([pivot_doc], np.uint64),
                                        filter_ids)[0])
            if ok:
                # fp determinism: accumulate in query-term order
                matched.sort(key=lambda c: c.t.qidx)
                score = 0.0
                for c in matched:
                    score += c.contrib(avgdl, k1, b)
                item = (score, -pivot_doc)
                if len(heap) < k:
                    heapq.heappush(heap, item)
                else:
                    heapq.heappushpop(heap, item)
                if len(heap) == k:
                    theta = heap[0][0]
            for c in matched:
                c.advance_to(pivot_doc + 1)
        else:
            for c in cursors[:pivot]:
                c.advance_to(pivot_doc)
    out = sorted(heap, key=lambda x: (-x[0], -x[1]))
    return [(s, -nd) for s, nd in out]


class _PhraseTerm:
    """One query token's postings with LAZY positions: doc ids / tfs /
    norms decode vectorized up front (cheap); position streams decode
    per RUN only when a surviving candidate doc needs them, and
    per-posting arrays materialize per candidate (SURVEY §2.7 round-1
    gap: the eager path built every posting's position list before
    intersection)."""

    def __init__(self, offset: int, rows: list[tuple]):
        self.offset = offset
        self.run_docs: list[np.ndarray] = []
        self.run_tfs: list[np.ndarray] = []
        self.run_norms: list[np.ndarray] = []
        self.run_pos: list[LazyPositions] = []
        for row in rows:
            df, docs_b, tfs_b, norms_b = row[0], row[1], row[2], row[3]
            pos_b = row[5] if len(row) > 5 else b""
            tp = decode_postings(docs_b, tfs_b, norms_b, df)
            self.run_docs.append(tp.doc_ids)
            self.run_tfs.append(tp.tfs)
            self.run_norms.append(tp.norms)
            self.run_pos.append(LazyPositions(pos_b, tp.tfs))
        self.df = int(sum(d.size for d in self.run_docs))

    def all_docs(self) -> np.ndarray:
        if not self.run_docs:
            return np.zeros(0, np.uint64)
        return np.sort(np.concatenate(self.run_docs)) \
            if len(self.run_docs) > 1 else self.run_docs[0]

    def _locate(self, d: np.uint64) -> tuple[int, int] | None:
        for r, docs in enumerate(self.run_docs):
            i = int(np.searchsorted(docs, d))
            if i < docs.size and docs[i] == d:
                return r, i
        return None

    def positions_for(self, d: np.uint64) -> np.ndarray | None:
        loc = self._locate(d)
        if loc is None:
            return None
        r, i = loc
        return self.run_pos[r].for_posting(i)

    def norm_for(self, d: np.uint64) -> int | None:
        loc = self._locate(d)
        if loc is None:
            return None
        r, i = loc
        return int(self.run_norms[r][i])


def _dispatch(method: str, terms: list[TermData], k: int, mode: str,
              avgdl: float, filt, k1: float, b: float,
              search_after: tuple[float, int] | None = None
              ) -> list[tuple[float, int]]:
    if method == "auto":
        method = choose_method(terms, mode)
    if search_after is not None and method == "wand":
        # WAND's heap threshold has no after-cursor notion — the exact
        # vectorized paths page identically (all strategies are
        # rank-identical; tested)
        method = "and" if mode == "and" else "taat"
    if method == "and":
        if mode != "and":
            raise ValueError("method='and' requires mode='and'")
        return score_and(terms, k, avgdl, filt, k1, b, search_after)
    if method == "wand":
        return score_wand(terms, k, mode, avgdl, filt, k1, b)
    return score_taat(terms, k, mode, avgdl, filt, k1, b, search_after)


# --- aggregation-context filters (the `bool` filtered agg context) ---
# Per-PROCESS ambient state, set for the duration of one aggregation
# request (the DSL's `bool {must: match, filter: [term/range...]}`
# shape) and mirrored into every shard actor's process before the agg
# dispatch — the same broadcast discipline as refresh_tombstones.
# Chosen over threading a parameter through ~30 agg entry points: the
# ONLY interpreters are the two match-set chokepoints below
# (_candidate_ids for shard-side sets, Searcher._match_ids for the
# driver-gathered set), so filters compose with every agg whose
# match set flows through them.  Filter specs are hashable tuples —
# ("kw", field, value | (values...)) or ("range", field, lo, hi) —
# so they can ride memo keys (_grp_count_le) unchanged.
_CTX_FILTERS: tuple = ()
_CTX_PURE = False            # True: the filters ARE the match set
_CTX_ID_CACHE: dict = {}     # (index_dir, spec, dparts) -> sorted ids
_CTX_PURE_SENTINEL = "\x00ctxpure"   # placeholder query text for pure
#                                      contexts (never hits a term)


def _set_ctx_filters(filters, pure: bool = False) -> tuple:
    """Install the ambient context filters in THIS process; returns
    the previous (filters, pure) value (restore discipline).  Shard
    actors receive it via PartActor.set_ctx_filters.  ``pure=True``
    means the query carries NO match clause: the base match set is
    the first filter's ids (term lookups are skipped entirely) — the
    time-window/keyword-only dashboard context."""
    global _CTX_FILTERS, _CTX_PURE
    prev = (_CTX_FILTERS, _CTX_PURE)
    _CTX_FILTERS = tuple(tuple(f) for f in (filters or ()))
    _CTX_PURE = bool(pure) and bool(_CTX_FILTERS)
    _CTX_ID_CACHE.clear()
    return prev


@contextlib.contextmanager
def ctx_filters(s, filters, pure: bool = False):
    """Install aggregation-context filters on a Searcher (or every
    member of a MultiSearcher) for the duration of one agg request:
    the driver-process global plus ONE broadcast round to each
    doc-shard actor pool (postings never move; each shard intersects
    its own match set with its own filter parts).  ``pure=True``
    drops the match clause entirely — the filters define the set."""
    if not filters:
        yield
        return
    subs = (list(s.searchers.values()) if hasattr(s, "searchers")
            else [s])
    pools = [x.actors for x in subs if getattr(x, "actors", None)]
    prev = _set_ctx_filters(filters, pure)
    try:
        for pool in pools:
            ray.get([a.set_ctx_filters.remote(_CTX_FILTERS, _CTX_PURE)
                     for a in pool])
        yield
    finally:
        _set_ctx_filters(*prev)
        for pool in pools:
            ray.get([a.set_ctx_filters.remote(prev[0] or None, prev[1])
                     for a in pool])


def _ctx_filter_ids(index_dir: str, spec: tuple,
                    dparts: list[int] | None) -> np.ndarray:
    """Sorted live-or-not doc ids for ONE context filter spec within
    the given doc parts (None = all).  Cached per process — per-term
    probe loops inside an agg re-intersect against the same filter."""
    from .shard import (load_all_doc_ids, load_filter_ids,
                        load_range_ids)
    key = (index_dir, spec, tuple(dparts) if dparts is not None else None)
    ids = _CTX_ID_CACHE.get(key)
    if ids is None:
        if spec[0] == "all":
            # the global agg's match-everything base set: the docstore
            # doc-id census of THESE parts (shard-side callers pass
            # their own part, so ids never leave their shard)
            ids = load_all_doc_ids(index_dir, dparts=dparts)
        elif spec[0] in ("kw", "kw_not"):
            vals = spec[2] if isinstance(spec[2], tuple) else (spec[2],)
            parts = [load_filter_ids(index_dir, spec[1], str(v),
                                     dparts=dparts) for v in vals]
            live = [p for p in parts if p.size]
            ids = (np.unique(np.concatenate(live)) if live
                   else np.zeros(0, np.uint64))
        elif spec[0] == "range":
            ids = load_range_ids(index_dir, spec[1], spec[2], spec[3],
                                 dparts=dparts)
        elif spec[0] in ("exists", "exists_not"):
            ids = _exists_ctx_ids(index_dir, spec[1], dparts)
        elif spec[0] in ("kw_like", "kw_like_not"):
            ids = _like_ctx_ids(index_dir, spec[1], spec[2], dparts)
        else:
            raise ValueError(f"unknown context filter kind {spec[0]!r}")
        if len(_CTX_ID_CACHE) >= 64:
            _CTX_ID_CACHE.clear()
        _CTX_ID_CACHE[key] = ids
    return ids


def _ctx_intersect(cand: np.ndarray, index_dir: str,
                   dparts: list[int] | None,
                   specs: tuple | None = None) -> np.ndarray:
    """Intersect a sorted candidate-id array with every ambient
    context filter; ``*_not`` specs subtract instead (the negated
    filter pill / bool must_not clause)."""
    for spec in (_CTX_FILTERS if specs is None else specs):
        if cand.size == 0:
            return cand
        ids = _ctx_filter_ids(index_dir, spec, dparts)
        if spec[0].endswith("_not"):
            if not ids.size:
                continue
            pos = np.minimum(np.searchsorted(ids, cand), ids.size - 1)
            cand = cand[ids[pos] != cand]
            continue
        if not ids.size:
            return cand[:0]
        pos = np.minimum(np.searchsorted(ids, cand), ids.size - 1)
        cand = cand[ids[pos] == cand]
    return cand


def _like_ctx_ids(index_dir: str, field: str, pattern: str,
                  dparts: list[int] | None) -> np.ndarray:
    """Sorted doc ids whose keyword ``field`` matches the wildcard
    ``pattern`` (``*``/``?`` — Kibana's `field:val*`) within the
    given doc parts: the VALUE dictionary is matched driver/shard
    -side (values only), then the matching values' packed doc lists
    union — no per-doc work."""
    import fnmatch
    chunks = [ids for v, ids in
              _iter_filter_postings(index_dir, field, dparts)
              if fnmatch.fnmatchcase(v, pattern)]
    return (np.unique(np.concatenate(chunks)) if chunks
            else np.zeros(0, np.uint64))


def _exists_ctx_ids(index_dir: str, field: str,
                    dparts: list[int] | None) -> np.ndarray:
    """Sorted doc ids carrying ``field`` within the given doc parts:
    keyword fields are the union of their packed filter postings,
    numeric fields the full id list of their value-sorted range
    tables.  Presence semantics match OpenSearch `exists` (a doc
    missing the column — or NULL — was never written to either
    table)."""
    import os as _os

    from .shard import load_range_ids
    if _os.path.isdir(_os.path.join(index_dir, "filters", field)):
        chunks = [ids for _v, ids in
                  _iter_filter_postings(index_dir, field, dparts)]
        return (np.unique(np.concatenate(chunks)) if chunks
                else np.zeros(0, np.uint64))
    return load_range_ids(index_dir, field, None, None, dparts=dparts)


def _ctx_intersect_rest(cand: np.ndarray, index_dir: str,
                        dparts: list[int] | None) -> np.ndarray:
    """Pure-context second step: intersect the first filter's base
    set with the remaining filters."""
    return _ctx_intersect(cand, index_dir, dparts,
                          specs=_CTX_FILTERS[1:])


def _filters_union_size(reader: ShardReader, field: str,
                        specs: list[tuple[list[str], str]],
                        tombstones: np.ndarray) -> int:
    """Size of the union of the named filters' live match sets in
    one shard (the other_bucket partial)."""
    u: np.ndarray | None = None
    for q_terms, mode in specs:
        cand = _candidate_ids(reader, field, q_terms, mode)
        u = cand if u is None else np.union1d(u, cand)
    if u is None:
        return 0
    if u.size and tombstones.size:
        u = u[_excl_mask(u, tombstones)]
    return int(u.size)


def _candidate_ids(reader: ShardReader, field: str, q_terms: list[str],
                   mode: str) -> np.ndarray:
    """Sorted unique doc ids matching the query terms in one shard
    (union for ``or``, intersection for ``and``), intersected with
    the ambient aggregation-context filters when installed (real
    ShardReaders only — the _RowsReader adapter inside
    Searcher._match_ids has no part identity; _match_ids applies the
    filters itself over its own parts)."""
    if _CTX_PURE and _CTX_FILTERS and isinstance(reader, ShardReader):
        # pure filter context: the first filter's ids ARE the base
        # set (no match clause to look up), the rest intersect
        cand = _ctx_filter_ids(reader.index_dir, _CTX_FILTERS[0],
                               [reader.part])
        return _ctx_intersect_rest(cand, reader.index_dir,
                                   [reader.part])
    doc_sets = []
    for t in dict.fromkeys(q_terms):
        rows = reader.raw_rows(field, t)
        if not rows:
            if mode == "and":
                return np.zeros(0, np.uint64)
            continue
        runs = [decode_postings(docs, tfs, norms, df).doc_ids
                for df, docs, tfs, norms, *_ in rows]
        doc_sets.append(np.sort(np.concatenate(runs))
                        if len(runs) > 1 else runs[0])
    if not doc_sets:
        return np.zeros(0, np.uint64)
    if mode == "and":
        cand = doc_sets[0]
        for ds_ in doc_sets[1:]:
            pos = np.minimum(np.searchsorted(ds_, cand),
                             max(ds_.size - 1, 0))
            cand = cand[ds_[pos] == cand] if ds_.size else cand[:0]
    else:
        cand = np.unique(np.concatenate(doc_sets))
    if _CTX_FILTERS and isinstance(reader, ShardReader):
        cand = _ctx_intersect(cand, reader.index_dir, [reader.part])
    return cand


def _shard_range_values(r: ShardReader, p: int, tombstones: np.ndarray,
                        field: str, q_terms: list[str], mode: str,
                        range_field: str) -> np.ndarray:
    """Matched docs' numeric values within ONE doc shard — the shared
    partial behind doc-sharded histogram/stats (doc ids never leave
    the shard; only values or bucket counts do)."""
    from .shard import load_range_pairs
    cand = _candidate_ids(r, field, q_terms, mode)
    if cand.size and tombstones.size:
        cand = cand[_excl_mask(cand, tombstones)]
    if cand.size == 0:
        return np.zeros(0)
    out: list[np.ndarray] = []
    for vals, ids in load_range_pairs(r.index_dir, range_field, dparts=[p]):
        pos = np.minimum(np.searchsorted(cand, ids), cand.size - 1)
        hit = cand[pos] == ids
        if hit.any():
            out.append(vals[hit])
    return np.concatenate(out) if out else np.zeros(0)


def _aligned_field_values(index_dir: str, cand: np.ndarray,
                          fields: tuple[str, ...],
                          dparts: list[int] | None
                          ) -> tuple[np.ndarray, ...]:
    """Doc-aligned numeric values for several range fields over a
    sorted candidate-id array: per field, (values, have) of length
    ``cand.size`` — the alignment behind co-moment partials
    (matrix_stats / weighted_avg need the SAME doc's values for two
    fields, which per-field value streams don't give)."""
    from .shard import load_range_pairs
    out: list[np.ndarray] = []
    for fname in fields:
        vals = np.zeros(cand.size, dtype=np.float64)
        have = np.zeros(cand.size, dtype=bool)
        for rvals, rids in load_range_pairs(index_dir, fname,
                                            dparts=dparts):
            pos = np.minimum(np.searchsorted(cand, rids),
                             max(cand.size - 1, 0))
            hit = (cand[pos] == rids) if cand.size else \
                np.zeros(rids.size, dtype=bool)
            if hit.any():
                vals[pos[hit]] = rvals[hit]
                have[pos[hit]] = True
        out.append(vals)
        out.append(have)
    return tuple(out)


def _comoments(x: np.ndarray, y: np.ndarray) -> dict:
    """Mergeable co-moments over docs having BOTH fields (OpenSearch
    matrix_stats skips docs missing any requested field)."""
    return {"n": int(x.size),
            "sx": float(x.sum()), "sy": float(y.sum()),
            "sxx": float((x * x).sum()), "syy": float((y * y).sum()),
            "sxy": float((x * y).sum())}


def _shard_comoments(r: ShardReader, p: int, tombstones: np.ndarray,
                     field: str, q_terms: list[str], mode: str,
                     f1: str, f2: str) -> dict:
    """One doc shard's co-moment partial — six numbers travel, never
    a value or a doc id."""
    cand = _candidate_ids(r, field, q_terms, mode)
    if cand.size and tombstones.size:
        cand = cand[_excl_mask(cand, tombstones)]
    if cand.size == 0:
        return {"n": 0, "sx": 0.0, "sy": 0.0,
                "sxx": 0.0, "syy": 0.0, "sxy": 0.0}
    v1, h1, v2, h2 = _aligned_field_values(r.index_dir, cand, (f1, f2),
                                           dparts=[p])
    m = h1 & h2
    return _comoments(v1[m], v2[m])


def _field_sort_partials(index_dir: str, sort_field: str, k: int,
                         desc: bool, cand: np.ndarray | None,
                         tombstones: np.ndarray,
                         dparts: list[int] | None,
                         after: tuple | None = None) -> list[tuple]:
    """Per range part, the top ``k`` (value, doc_id) pairs of the
    (optionally candidate-restricted) live rows under (value desc|asc,
    doc_id asc) — the shard-local half of a field-sorted search
    (Discover's sort).  The range tables are value-sorted with doc_id
    asc within ties, so selection is a boundary bisect + two slices,
    never a sort: rows strictly past the k-th value all qualify
    (< k of them), and the boundary-value run is already doc-asc so
    its prefix fills the remainder.  Docs missing the sort field are
    omitted (OpenSearch sorts them last; Discover never pages that
    far).

    ``after=(value, doc_id)`` — the previous page's last sort key —
    restricts each part to rows STRICTLY after the cursor under the
    output order (search_after deep paging: per-part it is two
    bisects + a slice, so page 1000 costs the same as page 1 — no
    offset accumulates and still only k rows leave the part)."""
    from .shard import load_range_pairs
    out: list[tuple] = []
    for vals, ids in load_range_pairs(index_dir, sort_field,
                                      dparts=dparts):
        if after is not None and vals.size:
            av, ad = after
            lo = int(np.searchsorted(vals, av, side="left"))
            hi_t = int(np.searchsorted(vals, av, side="right"))
            # ties are doc-asc within the value run: the >cursor part
            # of the run is its suffix
            j = lo + int(np.searchsorted(ids[lo:hi_t], ad,
                                         side="right"))
            if desc:
                # keep values < av (ASC prefix) + the tie-run suffix
                vals = np.concatenate((vals[:lo], vals[j:hi_t]))
                ids = np.concatenate((ids[:lo], ids[j:hi_t]))
            else:
                # keep the tie-run suffix + values > av — contiguous
                vals, ids = vals[j:], ids[j:]
        keep = None
        if tombstones.size:
            keep = _excl_mask(ids, tombstones)
        if cand is not None:
            pos = np.minimum(np.searchsorted(cand, ids),
                             max(cand.size - 1, 0))
            m = (cand[pos] == ids) if cand.size else \
                np.zeros(ids.size, dtype=bool)
            keep = m if keep is None else (keep & m)
        if keep is not None:
            vals, ids = vals[keep], ids[keep]
        n = vals.size
        if n == 0:
            continue
        if n <= k:
            out.extend(zip(vals.tolist(), ids.tolist()))
            continue
        if desc:
            boundary = vals[n - k]
            hi = int(np.searchsorted(vals, boundary, side="right"))
            lo = int(np.searchsorted(vals, boundary, side="left"))
            need = k - (n - hi)
            out.extend(zip(vals[hi:].tolist(), ids[hi:].tolist()))
            out.extend(zip(vals[lo:lo + need].tolist(),
                           ids[lo:lo + need].tolist()))
        else:
            boundary = vals[k - 1]
            lo = int(np.searchsorted(vals, boundary, side="left"))
            out.extend(zip(vals[:lo].tolist(), ids[:lo].tolist()))
            out.extend(zip(vals[lo:k].tolist(), ids[lo:k].tolist()))
    return out


def _bisect_ranks(count_le, ranks: list[int], lo_ord: int, hi_ord: int
                  ) -> dict[int, float]:
    """Distributed-selection backbone shared by the exact percentile
    and MAD paths: for each rank k, the minimal float (as ordinal)
    whose cumulative count reaches k+1 — counts jump only at data
    values, so the result IS the k-th order statistic.  ``count_le``
    maps a list of float probes to their cumulative counts; <= 64
    probe rounds, all ranks advanced per round."""
    state = {k: (lo_ord, hi_ord) for k in ranks}
    found: dict[int, float] = {}
    for k, (lo, hi) in list(state.items()):
        if lo >= hi:
            found[k] = _ord_to_f64(lo)
            del state[k]
    while state:
        mids = sorted({(lo + hi) // 2 for lo, hi in state.values()})
        counts = dict(zip(mids, count_le([_ord_to_f64(m)
                                          for m in mids])))
        for k, (lo, hi) in list(state.items()):
            m = (lo + hi) // 2
            if counts[m] >= k + 1:
                hi = m
            else:
                lo = m + 1
            if lo >= hi:
                found[k] = _ord_to_f64(lo)
                del state[k]
            else:
                state[k] = (lo, hi)
    return found


def _f64_to_ord(x: float) -> int:
    """Monotone map of a float64 onto a uint64 ordinal (sign bit
    flipped for non-negatives, full complement for negatives), so the
    k-th order statistic can be found by integer bisection that
    converges EXACTLY in <= 64 rounds — the distributed-selection
    backbone of ``quantile_method='exact_distributed'``."""
    i = int(np.float64(x).view(np.uint64))
    if i >> 63:
        return i ^ 0xFFFFFFFFFFFFFFFF
    return i ^ 0x8000000000000000


def _ord_to_f64(o: int) -> float:
    """Inverse of :func:`_f64_to_ord`."""
    i = o ^ (0x8000000000000000 if o >> 63 else 0xFFFFFFFFFFFFFFFF)
    return float(np.uint64(i).view(np.float64))


def _iter_filter_postings(index_dir: str, agg_field: str,
                          dparts: list[int] | None = None):
    """Yield (value, sorted doc-id array) over the (optionally
    part-restricted) packed filter postings of one keyword field."""
    import os as _os
    import pyarrow.parquet as _pq
    fdir = _os.path.join(index_dir, "filters", agg_field)
    if not _os.path.isdir(fdir):
        return
    names = sorted(f for f in _os.listdir(fdir) if f.endswith(".parquet"))
    if dparts is not None:
        names = match_part_files(names, dparts)
    for fn in names:
        t = _pq.read_table(_os.path.join(fdir, fn),
                           columns=["value", "docs"])
        for v, blob in zip(t.column("value").to_pylist(),
                           t.column("docs").to_pylist()):
            yield v, np.frombuffer(blob, dtype="<u8")


def _filter_value_rows(index_dir: str, agg_field: str) -> int:
    """Upper bound on a keyword field's distinct-value census size:
    total (value, part) rows across its packed filter postings, read
    from parquet footers only (no data pages).  Each part stores one
    row per distinct value it saw, so the sum over-counts values that
    span parts — conservative in the safe direction for a guard."""
    import os as _os
    import pyarrow.parquet as _pq
    fdir = _os.path.join(index_dir, "filters", agg_field)
    if not _os.path.isdir(fdir):
        return 0
    return sum(_pq.ParquetFile(_os.path.join(fdir, fn)).metadata.num_rows
               for fn in _os.listdir(fdir) if fn.endswith(".parquet"))


def _filter_distinct_values(index_dir: str, agg_field: str,
                            stop_above: int | None = None) -> int:
    """EXACT distinct-value count of a keyword field: reads only the
    ``value`` column of its filter parts (no posting blobs).  The slow
    half of the rare_terms guard — only consulted when the footer
    bound trips, because the bound counts a value once PER PART it
    appears in (a modest-cardinality field on a many-part
    doc-partitioned index over-counts ~num_parts x).  ``stop_above``
    short-circuits a genuinely high-cardinality field: once the
    distinct set exceeds it, the answer is already 'too many' — no
    need to materialize millions of strings just to raise."""
    import os as _os
    import pyarrow.parquet as _pq
    fdir = _os.path.join(index_dir, "filters", agg_field)
    if not _os.path.isdir(fdir):
        return 0
    seen: set = set()
    for fn in _os.listdir(fdir):
        if fn.endswith(".parquet"):
            col = _pq.read_table(_os.path.join(fdir, fn),
                                 columns=["value"]).column("value")
            seen.update(col.to_pylist())
            if stop_above is not None and len(seen) > stop_above:
                return len(seen)
    return len(seen)


def _count_filter_values(index_dir: str, agg_field: str, cand: np.ndarray,
                         dparts: list[int] | None = None
                         ) -> list[tuple[str, int]]:
    """Per keyword value, |cand ∩ value's doc list| over the
    (optionally part-restricted) filter postings."""
    counts: dict[str, int] = {}
    for v, ids in _iter_filter_postings(index_dir, agg_field, dparts):
        pos = np.minimum(np.searchsorted(cand, ids), cand.size - 1)
        n = int(np.count_nonzero(cand[pos] == ids))
        if n:
            counts[v] = counts.get(v, 0) + n
    return list(counts.items())


def _count_presence(index_dir: str, agg_field: str, cand: np.ndarray,
                    dparts: list[int] | None = None,
                    is_range: bool = False) -> int:
    """|cand ∩ docs carrying agg_field| — keyword fields read the
    packed filter postings (their doc lists ARE the exists bitmap);
    range fields read the value-sorted range-table ids (nulls never
    enter either structure, so value_count/missing work on numerics
    exactly like OpenSearch's)."""
    if is_range:
        from .shard import load_range_pairs
        n = 0
        for _vals, ids in load_range_pairs(index_dir, agg_field,
                                           dparts=dparts):
            pos = np.minimum(np.searchsorted(cand, ids), cand.size - 1)
            n += int(np.count_nonzero(cand[pos] == ids))
        return n
    return sum(c for _, c in _count_filter_values(index_dir, agg_field,
                                                  cand, dparts=dparts))


def _group_stats_partial(index_dir: str, agg_field: str, range_field: str,
                         cand: np.ndarray,
                         dparts: list[int] | None = None
                         ) -> dict[str, tuple[int, float, float, float]]:
    """Terms-bucket + stats-sub-agg partial: per keyword value of
    ``agg_field``, (count, sum, min, max) of ``range_field`` over
    cand ∩ the value's doc list.  Mergeable moments only — the
    shard-local half of a ``terms`` agg with a ``stats`` sub-agg."""
    from .shard import load_range_pairs
    if cand.size == 0:
        return {}
    ids_all, vals_all = [], []
    for vals, ids in load_range_pairs(index_dir, range_field,
                                      dparts=dparts):
        ids_all.append(ids)
        vals_all.append(vals)
    if not ids_all:
        return {}
    ids_cat = np.concatenate(ids_all)
    order = np.argsort(ids_cat)
    ids_sorted = ids_cat[order]
    vals_sorted = np.concatenate(vals_all)[order]
    out: dict[str, tuple[int, float, float, float]] = {}
    for v, g_ids in _iter_filter_postings(index_dir, agg_field, dparts):
        pos = np.minimum(np.searchsorted(cand, g_ids), cand.size - 1)
        hit = g_ids[cand[pos] == g_ids]
        if hit.size == 0:
            continue
        vp = np.minimum(np.searchsorted(ids_sorted, hit),
                        ids_sorted.size - 1)
        ok = ids_sorted[vp] == hit
        vv = vals_sorted[vp[ok]]
        if vv.size == 0:
            continue
        prev = out.get(v)
        cur = (int(hit.size), float(vv.sum()), float(vv.min()),
               float(vv.max()))
        out[v] = cur if prev is None else (
            prev[0] + cur[0], prev[1] + cur[1], min(prev[2], cur[2]),
            max(prev[3], cur[3]))
    return out


def _hist_stats_partial(index_dir: str, bucket_field: str,
                        interval: float, metric_field: str,
                        cand: np.ndarray,
                        dparts: list[int] | None = None
                        ) -> dict[float, tuple[int, float, float, float]]:
    """Histogram-bucket + stats-sub-agg partial: per
    ``floor(bucket_field/interval)*interval`` bin, mergeable
    (count, sum, min, max) of ``metric_field`` over the candidate
    docs carrying BOTH fields — the shard-local half of a
    date_histogram with a metric sub-agg (the avg-over-time panel).
    Vectorized: one searchsorted alignment per field, np.bincount /
    ufunc.at grouping; only the tiny per-bin moment dict travels."""
    from .shard import load_range_pairs
    if cand.size == 0:
        return {}

    def _cat(fname):
        ids_all, vals_all = [], []
        for vals, ids in load_range_pairs(index_dir, fname,
                                          dparts=dparts):
            ids_all.append(ids)
            vals_all.append(vals)
        if not ids_all:
            return None, None
        ids = np.concatenate(ids_all)
        order = np.argsort(ids)
        return ids[order], np.concatenate(vals_all)[order]

    b_ids, b_vals = _cat(bucket_field)
    if b_ids is None or b_ids.size == 0:
        return {}
    pos = np.minimum(np.searchsorted(cand, b_ids), cand.size - 1)
    sel = cand[pos] == b_ids
    doc = b_ids[sel]
    keys = np.floor(b_vals[sel] / interval) * interval
    m_ids, m_vals = _cat(metric_field)
    if m_ids is None or m_ids.size == 0 or doc.size == 0:
        return {}
    mp = np.minimum(np.searchsorted(m_ids, doc), m_ids.size - 1)
    ok = m_ids[mp] == doc
    keys = keys[ok]
    mv = m_vals[mp[ok]]
    if keys.size == 0:
        return {}
    u, inv = np.unique(keys, return_inverse=True)
    n = np.bincount(inv)
    s = np.bincount(inv, weights=mv)
    mn = np.full(u.size, np.inf)
    mx = np.full(u.size, -np.inf)
    np.minimum.at(mn, inv, mv)
    np.maximum.at(mx, inv, mv)
    return {float(k): (int(n[i]), float(s[i]), float(mn[i]),
                       float(mx[i])) for i, k in enumerate(u)}


def _hist_fill(buckets: list[tuple[float, int]], interval: float,
               min_doc_count: int, offset: float = 0.0,
               extended_bounds: tuple[float, float] | None = None
               ) -> list[tuple[float, int]]:
    """min_doc_count=0: insert zero-count buckets between the first
    and last non-empty one (OpenSearch date_histogram gap fill —
    coordinator-side, bounded by the data's own extent), widened to
    ``extended_bounds`` (the dashboard axis-pinning parameter) when
    given.  ``offset`` shifts the bucket grid (keys are
    floor((v-offset)/interval)*interval + offset)."""
    if min_doc_count > 0 or (len(buckets) < 2
                             and extended_bounds is None):
        return buckets

    def align(x: float) -> float:
        return float(np.floor((x - offset) / interval) * interval
                     + offset)

    if not buckets and extended_bounds is None:
        return buckets
    lo = buckets[0][0] if buckets else align(extended_bounds[0])
    hi = buckets[-1][0] if buckets else align(extended_bounds[1])
    if extended_bounds is not None:
        lo = min(lo, align(extended_bounds[0]))
        hi = max(hi, align(extended_bounds[1]))
    out: list[tuple[float, int]] = []
    have = dict(buckets)
    # integer stepping avoids float accumulation drift
    steps = int(round((hi - lo) / interval))
    for i in range(steps + 1):
        key = lo + i * interval
        # snap to an existing bucket key when float rounding is close
        n = have.get(key)
        if n is None:
            # always emit the snapped canonical key (round((k-off)/i)*
            # i + off) for gap buckets — the accumulated float key can
            # drift at the ulp level from the floor convention
            # non-empty buckets use, breaking exact-match consumers on
            # fractional intervals
            kr = round((key - offset) / interval) * interval + offset
            n = have.get(kr, 0)
            key = kr
        out.append((key, n))
    return out


def _terms_hist_partial(index_dir: str, agg_field: str, range_field: str,
                        interval: float, cand: np.ndarray,
                        dparts: list[int] | None = None
                        ) -> dict[tuple[str, float], int]:
    """Terms-bucket + histogram-sub-agg partial: per (keyword value,
    floor(range_field/interval)*interval) bucket, the count of cand ∩
    the value's doc list — the dashboard area-chart shape (terms split
    series x date_histogram).  Same probe pattern as
    _group_stats_partial; only the tiny bucket dict travels."""
    from .shard import load_range_pairs
    if cand.size == 0:
        return {}
    ids_all, vals_all = [], []
    for vals, ids in load_range_pairs(index_dir, range_field,
                                      dparts=dparts):
        ids_all.append(ids)
        vals_all.append(vals)
    if not ids_all:
        return {}
    ids_cat = np.concatenate(ids_all)
    order = np.argsort(ids_cat)
    ids_sorted = ids_cat[order]
    vals_sorted = np.concatenate(vals_all)[order]
    out: dict[tuple[str, float], int] = {}
    for v, g_ids in _iter_filter_postings(index_dir, agg_field, dparts):
        pos = np.minimum(np.searchsorted(cand, g_ids), cand.size - 1)
        hit = g_ids[cand[pos] == g_ids]
        if hit.size == 0:
            continue
        vp = np.minimum(np.searchsorted(ids_sorted, hit),
                        ids_sorted.size - 1)
        ok = ids_sorted[vp] == hit
        vv = vals_sorted[vp[ok]]
        if vv.size == 0:
            continue
        b = np.floor(vv / interval) * interval
        u, c = np.unique(b, return_counts=True)
        for bv, n in zip(u, c):
            key = (v, float(bv))
            out[key] = out.get(key, 0) + int(n)
    return out


def _range_bucket_counts(v: np.ndarray,
                         ranges: list[tuple[float | None, float | None]]
                         ) -> list[int]:
    """Counts of ``v`` per (from-inclusive, to-exclusive) range —
    OpenSearch ``range`` agg edge semantics; open ends via None."""
    out = []
    for lo, hi in ranges:
        m = np.ones(v.size, bool)
        if lo is not None:
            m &= v >= lo
        if hi is not None:
            m &= v < hi
        out.append(int(np.count_nonzero(m)))
    return out


def _value_code_map(index_dir: str, agg_field: str, cand: np.ndarray,
                    dparts: list[int] | None
                    ) -> tuple[np.ndarray, list[str]]:
    """Per candidate doc, the integer code of its ``agg_field`` keyword
    value (-1 = field missing), probed from the packed filter postings
    — the doc→value alignment behind multi-field bucket aggs.  One code
    per distinct VALUE (a value spanning parts keeps one code)."""
    code_of = np.full(cand.size, -1, dtype=np.int64)
    values: list[str] = []
    by_value: dict[str, int] = {}
    if cand.size == 0:
        return code_of, values
    for v, vids in _iter_filter_postings(index_dir, agg_field, dparts):
        pos = np.minimum(np.searchsorted(cand, vids), cand.size - 1)
        hit = cand[pos] == vids
        if hit.any():
            c = by_value.get(v)
            if c is None:
                c = by_value[v] = len(values)
                values.append(v)
            code_of[pos[hit]] = c
    return code_of, values


def _multi_terms_partial(index_dir: str, fa: str, fb: str,
                         cand: np.ndarray,
                         dparts: list[int] | None
                         ) -> dict[tuple[str, str], int]:
    """multi_terms-agg partial: per (fa value, fb value) pair, the
    count of candidate docs carrying BOTH keyword fields (OpenSearch
    ``multi_terms`` skips docs missing any source field).  Doc→value
    maps align via one searchsorted probe per (value, part) row; the
    pair census is a single np.unique over combined codes — no
    per-doc Python."""
    if cand.size == 0:
        return {}
    ca, va = _value_code_map(index_dir, fa, cand, dparts)
    cb, vb = _value_code_map(index_dir, fb, cand, dparts)
    m = (ca >= 0) & (cb >= 0)
    if not m.any() or not vb:
        return {}
    comb = ca[m] * len(vb) + cb[m]
    u, c = np.unique(comb, return_counts=True)
    nb = len(vb)
    return {(va[int(x) // nb], vb[int(x) % nb]): int(n)
            for x, n in zip(u, c)}


def _haversine_km(lat: np.ndarray, lon: np.ndarray,
                  olat: float, olon: float) -> np.ndarray:
    """Great-circle distance (km, R=6371.0) from (olat, olon) —
    the OpenSearch geo_distance agg's ``arc`` distance.  The operation
    order mirrors the SQL oracle expression exactly (sin²(Δφ/2) +
    cosφ₀·cosφ·sin²(Δλ/2)) so both sides evaluate the same IEEE-754
    kernel sequence."""
    a = (np.sin(np.radians(lat - olat) / 2) ** 2
         + np.cos(np.radians(olat)) * np.cos(np.radians(lat))
         * np.sin(np.radians(lon - olon) / 2) ** 2)
    return 2 * 6371.0 * np.arcsin(np.sqrt(a))


def _geo_distance_partial(index_dir: str, cand: np.ndarray,
                          lat_field: str, lon_field: str,
                          olat: float, olon: float,
                          ranges: list[tuple[float | None, float | None]],
                          dparts: list[int] | None) -> list[int]:
    """geo_distance-agg partial: per (from-incl, to-excl) km ring, the
    count of candidate docs whose haversine distance from the origin
    falls inside — docs missing either coordinate are skipped
    (OpenSearch ignores docs without the geo field).  Only
    len(ranges) ints travel."""
    if cand.size == 0:
        return [0] * len(ranges)
    la, ha, lo_, hb = _aligned_field_values(index_dir, cand,
                                            (lat_field, lon_field), dparts)
    m = ha & hb
    if not m.any():
        return [0] * len(ranges)
    dist = _haversine_km(la[m], lo_[m], olat, olon)
    return _range_bucket_counts(dist, ranges)


def _greedy_diversified(hits: list[tuple[float, int]],
                        codes: np.ndarray, max_per_value: int,
                        shard_size: int) -> np.ndarray:
    """The diversified_sampler collection rule over a ranked hit list:
    walk (score desc, doc asc), keep a doc unless its diversify-value
    already has ``max_per_value`` keepers, stop at ``shard_size``.
    Equivalent to rank-within-value <= max then top shard_size (every
    better-ranked same-value doc precedes in the global order), which
    is what the vectorized groupwise cumcount below computes — and
    what a SQL twin expresses as two QUALIFY row_number() stages.
    Docs missing the field (code -1) diversify as themselves (always
    eligible — OpenSearch dedups only on present values).  Returns the
    kept doc ids sorted."""
    n = len(hits)
    pos = np.arange(n)
    o = np.lexsort((pos, codes))
    sc = codes[o]
    grp_new = np.ones(n, dtype=bool)
    grp_new[1:] = sc[1:] != sc[:-1]
    # cumcount within each code group (lexsort is stable, so group
    # members stay in global rank order)
    starts = np.flatnonzero(grp_new)
    lens = np.diff(np.r_[starts, n])
    cum = np.concatenate([np.arange(m) for m in lens]) if n else \
        np.zeros(0, np.int64)
    rank_in_value = np.empty(n, dtype=np.int64)
    rank_in_value[o] = cum
    eligible = (codes < 0) | (rank_in_value < max_per_value)
    kept_idx = np.flatnonzero(eligible)[:shard_size]
    return np.sort(np.fromiter((hits[i][1] for i in kept_idx),
                               np.uint64, count=kept_idx.size))


def _sampler_partial(r: "ShardReader", p: int, tombstones: np.ndarray,
                     field: str, q_terms: list[str], shard_size: int,
                     agg_field: str, diversify_field: str | None,
                     max_per_value: int, idf: dict[str, float],
                     n_docs: int, avgdl: float, k1: float, b: float
                     ) -> dict[str, int]:
    """sampler / diversified_sampler partial over ONE doc shard: the
    shard's best-scoring ``shard_size`` docs (global idf, local
    tf/norms — the dfs round), optionally capped per diversify-field
    value, then the sub-agg's per-value counts over only the sample.
    Only the tiny count dict travels."""
    rows = {t: r.raw_rows(field, t) for t in q_terms}
    td = prepare_terms(q_terms, rows, n_docs, avgdl, k1, b,
                       idf_by_term=idf, exclude_ids=tombstones)
    need = shard_size if diversify_field is None else (1 << 31)
    hits = score_taat(td, need, "or", avgdl, None, k1, b)
    if not hits:
        return {}
    if diversify_field is None:
        sample = np.sort(np.fromiter((d for _, d in hits), np.uint64,
                                     count=len(hits)))
    else:
        ids = np.fromiter((d for _, d in hits), np.uint64,
                          count=len(hits))
        order = np.argsort(ids)
        sid = ids[order]
        code_sorted, _vals = _value_code_map(r.index_dir, diversify_field,
                                             sid, dparts=[p])
        codes = np.empty(len(hits), dtype=np.int64)
        codes[order] = code_sorted
        sample = _greedy_diversified(hits, codes, max_per_value,
                                     shard_size)
    return dict(_count_filter_values(r.index_dir, agg_field, sample,
                                     dparts=[p]))


def _geotile_xy(lat: np.ndarray, lon: np.ndarray, precision: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Slippy-map tile coordinates at zoom ``precision`` (the
    OpenSearch geotile_grid key scheme).  Expression order mirrors the
    SQL oracle (Web-Mercator y via ln(tan φ + sec φ)) so both sides
    run the same IEEE-754 sequence."""
    n = float(1 << precision)
    x = np.floor((lon + 180.0) / 360.0 * n)
    rl = np.radians(lat)
    y = np.floor((1.0 - np.log(np.tan(rl) + 1.0 / np.cos(rl)) / np.pi)
                 / 2.0 * n)
    # clamp the poles like OpenSearch (tiles exist only in [0, 2^z))
    x = np.clip(x, 0, n - 1)
    y = np.clip(y, 0, n - 1)
    return x.astype(np.int64), y.astype(np.int64)


_GEOHASH_B32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def _geohash_cells(lat: np.ndarray, lon: np.ndarray, precision: int
                   ) -> list[str]:
    """Standard geohash encode (base32, lon bit first) at ``precision``
    chars.  The cell indices floor((lon+180)/360 * 2^lon_bits) /
    ((lat+90)/180 * 2^lat_bits) mirror the SQL oracle expression; the
    bit interleave runs vectorized over the whole array."""
    nbits = 5 * precision
    lon_bits = (nbits + 1) // 2
    lat_bits = nbits // 2
    ix = np.floor((lon + 180.0) / 360.0 * (1 << lon_bits)).astype(np.int64)
    iy = np.floor((lat + 90.0) / 180.0 * (1 << lat_bits)).astype(np.int64)
    ix = np.clip(ix, 0, (1 << lon_bits) - 1)
    iy = np.clip(iy, 0, (1 << lat_bits) - 1)
    val = np.zeros(lat.size, dtype=np.int64)
    # MSB-first interleave: even output positions take lon bits
    for k in range(lon_bits):
        val |= ((ix >> (lon_bits - 1 - k)) & 1) << (nbits - 1 - 2 * k)
    for k in range(lat_bits):
        val |= ((iy >> (lat_bits - 1 - k)) & 1) << (nbits - 2 - 2 * k)
    out = []
    for v in val.tolist():
        out.append("".join(_GEOHASH_B32[(v >> (5 * (precision - 1 - c)))
                                        & 31] for c in range(precision)))
    return out


def _geohash_partial(index_dir: str, cand: np.ndarray,
                     lat_field: str, lon_field: str, precision: int,
                     dparts: list[int] | None) -> dict[str, int]:
    """geohash_grid partial: per base32 cell, the count of candidate
    docs whose point encodes into it."""
    if cand.size == 0:
        return {}
    la, ha, lo_, hb = _aligned_field_values(index_dir, cand,
                                            (lat_field, lon_field), dparts)
    m = ha & hb
    if not m.any():
        return {}
    cells = _geohash_cells(la[m], lo_[m], precision)
    out: dict[str, int] = {}
    for c in cells:
        out[c] = out.get(c, 0) + 1
    return out


def _geotile_partial(index_dir: str, cand: np.ndarray,
                     lat_field: str, lon_field: str, precision: int,
                     dparts: list[int] | None) -> dict[str, int]:
    """geotile_grid partial: per "z/x/y" tile, the count of candidate
    docs whose (lat, lon) projects into it — docs missing either
    coordinate are skipped.  Only the tiny tile dict travels."""
    if cand.size == 0:
        return {}
    la, ha, lo_, hb = _aligned_field_values(index_dir, cand,
                                            (lat_field, lon_field), dparts)
    m = ha & hb
    if not m.any():
        return {}
    x, y = _geotile_xy(la[m], lo_[m], precision)
    comb = x * (1 << precision) + y
    u, c = np.unique(comb, return_counts=True)
    z = 1 << precision
    return {f"{precision}/{int(v) // z}/{int(v) % z}": int(n)
            for v, n in zip(u, c)}


def _geo_bounds_partial(index_dir: str, cand: np.ndarray,
                        lat_field: str, lon_field: str,
                        dparts: list[int] | None) -> dict:
    """geo_bounds + geo_centroid partial over one doc shard: seven
    mergeable numbers (count, sum/min/max of each coordinate over
    docs carrying BOTH) — never a coordinate list."""
    zero = {"n": 0}
    if cand.size == 0:
        return zero
    la, ha, lo_, hb = _aligned_field_values(index_dir, cand,
                                            (lat_field, lon_field), dparts)
    m = ha & hb
    if not m.any():
        return zero
    la, lo_ = la[m], lo_[m]
    return {"n": int(la.size),
            "sum_lat": float(la.sum()), "sum_lon": float(lo_.sum()),
            "min_lat": float(la.min()), "max_lat": float(la.max()),
            "min_lon": float(lo_.min()), "max_lon": float(lo_.max())}


_EXPR_FUNCS = {"abs": np.abs, "sqrt": np.sqrt, "log": np.log,
               "log1p": np.log1p, "exp": np.exp,
               "min": np.minimum, "max": np.maximum}


def compile_metric_expr(expr: str, allowed_names: tuple[str, ...]):
    """Compile a script expression to a callable over numpy arrays /
    floats.  The AST is whitelisted to pure arithmetic (+ - * / % **
    and unary signs) over numeric literals, the ``allowed_names``,
    and a small elementwise math-function whitelist (abs / sqrt /
    log / log1p / exp and two-arg min / max) — no other calls,
    attributes, subscripts or comparisons, so a script can compute
    but never reach out (the painless-script surface the reference's
    dashboards actually use is exactly this arithmetic shape)."""
    import ast
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as ex:
        raise ValueError(
            f"script expression {expr!r}: invalid syntax ({ex.msg})"
        ) from None
    ok = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
          ast.Name, ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div,
          ast.Pow, ast.Mod, ast.USub, ast.UAdd, ast.Call)
    func_names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ok):
            raise ValueError(
                f"script expression {expr!r}: disallowed "
                f"construct {type(node).__name__} (pure arithmetic "
                "over fields only)")
        if isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _EXPR_FUNCS
                    or node.keywords):
                raise ValueError(
                    f"script expression {expr!r}: only "
                    f"{sorted(_EXPR_FUNCS)} calls allowed")
            want = 2 if node.func.id in ("min", "max") else 1
            if len(node.args) != want:
                raise ValueError(
                    f"script expression {expr!r}: {node.func.id} takes "
                    f"{want} argument(s)")
            func_names.add(node.func.id)
        elif isinstance(node, ast.Name) and node.id not in allowed_names \
                and node.id not in _EXPR_FUNCS:
            raise ValueError(
                f"script expression {expr!r}: unknown name "
                f"{node.id!r}; allowed: {sorted(allowed_names)}")
        elif isinstance(node, ast.Constant) and \
                not isinstance(node.value, (int, float)):
            raise ValueError(
                f"script expression {expr!r}: only numeric "
                "literals allowed")
    code = compile(tree, "<script>", "eval")
    funcs = {n: _EXPR_FUNCS[n] for n in func_names}

    def run(bindings: dict):
        return eval(code, {"__builtins__": {}}, {**funcs, **bindings})
    return run


def _scripted_partial(index_dir: str, cand: np.ndarray,
                      fields: tuple[str, ...], map_expr: str,
                      dparts: list[int] | None) -> tuple[int, float]:
    """scripted_metric map+combine over one doc shard: evaluate the
    (whitelisted-arithmetic) map expression vectorized over the
    candidate docs carrying ALL named fields, combine = the shard-
    local sum — two numbers travel, never a value vector."""
    if cand.size == 0:
        return 0, 0.0
    aligned = _aligned_field_values(index_dir, cand, fields, dparts)
    have = np.ones(cand.size, dtype=bool)
    for j in range(len(fields)):
        have &= aligned[2 * j + 1]
    if not have.any():
        return 0, 0.0
    bindings = {f: aligned[2 * j][have] for j, f in enumerate(fields)}
    vec = compile_metric_expr(map_expr, tuple(fields))(bindings)
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape == ():             # constant expression
        arr = np.full(int(have.sum()), float(arr))
    return int(have.sum()), float(arr.sum())


def _string_stats_partial(index_dir: str, agg_field: str,
                          cand: np.ndarray,
                          dparts: list[int] | None) -> dict:
    """string_stats partial over one doc shard: per keyword value of
    ``agg_field``, the match count weights its length into the
    min/max/sum stats and its characters into the shard's character
    Counter — the packed filter postings are the only thing read, so
    cost is O(values), not O(docs).  Mergeable: counts, length sums
    and char counters all add."""
    n = 0
    sum_len = 0
    mn: int | None = None
    mx: int | None = None
    chars: Counter = Counter()
    if cand.size:
        for v, ids in _iter_filter_postings(index_dir, agg_field, dparts):
            pos = np.minimum(np.searchsorted(cand, ids), cand.size - 1)
            c = int(np.count_nonzero(cand[pos] == ids))
            if not c:
                continue
            ln = len(v)
            n += c
            sum_len += ln * c
            mn = ln if mn is None else min(mn, ln)
            mx = ln if mx is None else max(mx, ln)
            for ch in v:
                chars[ch] += c
    return {"n": n, "sum_len": sum_len, "min_len": mn, "max_len": mx,
            "chars": dict(chars)}


def _exists_ids(index_dir: str, field_name: str, k: int | None,
                dparts: list[int] | None,
                tombstones: np.ndarray) -> np.ndarray:
    """Sorted live doc ids carrying ``field_name``, memory-bounded:
    each (value, part) presence list merges into a rolling array
    truncated to the smallest ``k`` after every part — O(k) resident
    regardless of field density (k=None keeps everything)."""
    from .shard import load_range_pairs
    best: np.ndarray | None = None
    cap = None if k is None else int(k)

    def _fold(ids: np.ndarray):
        nonlocal best
        if ids.size == 0:
            return
        if tombstones.size:
            ids = ids[_excl_mask(np.asarray(ids, np.uint64), tombstones)]
        merged = ids if best is None else np.concatenate([best, ids])
        merged = np.unique(merged)
        best = merged if cap is None else merged[:cap]

    for _v, ids in _iter_filter_postings(index_dir, field_name, dparts):
        _fold(ids)
    for _vals, ids in load_range_pairs(index_dir, field_name, dparts):
        _fold(ids.astype(np.uint64))
    return best if best is not None else np.zeros(0, np.uint64)


def _merge_string_stats(parts: list[dict]) -> dict:
    tot = {"n": 0, "sum_len": 0, "min_len": None, "max_len": None,
           "chars": {}}
    for d in parts:
        if not d["n"]:
            continue
        tot["n"] += d["n"]
        tot["sum_len"] += d["sum_len"]
        tot["min_len"] = (d["min_len"] if tot["min_len"] is None
                          else min(tot["min_len"], d["min_len"]))
        tot["max_len"] = (d["max_len"] if tot["max_len"] is None
                          else max(tot["max_len"], d["max_len"]))
        for ch, c in d["chars"].items():
            tot["chars"][ch] = tot["chars"].get(ch, 0) + c
    return tot


def _merge_geo_bounds(parts: list[dict]) -> dict:
    tot = {"n": 0}
    for d in parts:
        if not d.get("n"):
            continue
        if not tot["n"]:
            tot = dict(d)
            continue
        tot["n"] += d["n"]
        tot["sum_lat"] += d["sum_lat"]
        tot["sum_lon"] += d["sum_lon"]
        tot["min_lat"] = min(tot["min_lat"], d["min_lat"])
        tot["max_lat"] = max(tot["max_lat"], d["max_lat"])
        tot["min_lon"] = min(tot["min_lon"], d["min_lon"])
        tot["max_lon"] = max(tot["max_lon"], d["max_lon"])
    return tot


def percentiles_bucket(buckets: list[tuple], percents: list[float],
                       value_index: int = 1) -> list[tuple[float, float]]:
    """OpenSearch ``percentiles_bucket`` pipeline agg: linear-
    interpolation percentiles of a parent aggregation's bucket values
    — pure coordinator-side post-processing over the (already
    reduced) bucket list, like cumulative_sum/derivative.  Returns
    [(percent, value)] in the given percent order."""
    vals = np.sort(np.asarray([b[value_index] for b in buckets],
                              dtype=np.float64))
    if vals.size == 0:
        return [(float(p), float("nan")) for p in percents]
    out = []
    for p in percents:
        # numpy 'linear' == DuckDB quantile_cont == OpenSearch's
        # interpolated percentiles_bucket
        q = float(np.percentile(vals, float(p), method="linear"))
        out.append((float(p), q))
    return out


def _sig_text_partial(r: "ShardReader", p: int, tombstones: np.ndarray,
                      field: str, q_terms: list[str], mode: str,
                      text_field: str, max_terms: int
                      ) -> tuple[dict[str, int], dict[str, int], int]:
    """significant_text partial over ONE doc shard: per term of the
    analyzed ``text_field``, (foreground doc count, live doc freq),
    plus the shard's foreground size.  This is a full-vocabulary scan
    of the shard's own dictionary — the expensive shape OpenSearch
    documents for significant_text (it recommends a sampler);
    ``max_terms`` refuses a vocabulary that would materialize an
    unbounded census.  Doc ids never leave the shard."""
    vocab = r._sorted_terms(text_field)
    if len(vocab) > max_terms:
        raise ValueError(
            f"significant_text on {text_field!r}: shard {p} has "
            f"{len(vocab)} terms > max_terms={max_terms}; wrap the "
            "query in a sampler/filter or raise max_terms explicitly")
    cand = _candidate_ids(r, field, q_terms, mode)
    if cand.size and tombstones.size:
        cand = cand[_excl_mask(cand, tombstones)]
    fg: dict[str, int] = {}
    df: dict[str, int] = {}
    for t in vocab:
        ids = _candidate_ids(r, text_field, [t], "or")
        if ids.size and tombstones.size:
            ids = ids[_excl_mask(ids, tombstones)]
        if ids.size == 0:
            continue
        df[t] = int(ids.size)
        if cand.size:
            pos = np.minimum(np.searchsorted(cand, ids), cand.size - 1)
            n = int(np.count_nonzero(cand[pos] == ids))
            if n:
                fg[t] = n
    return fg, df, int(cand.size)


def _composite_partial(index_dir: str, sources: list[str],
                       cand: np.ndarray | None, tombstones: np.ndarray,
                       dparts: list[int] | None = None
                       ) -> dict[tuple, int]:
    """Composite-agg partial: per tuple of keyword values of the
    ``sources`` fields, the count of (live, optionally query-matching)
    docs carrying ALL of them — built by an id-sorted join across the
    fields' doc-range-partitioned filter postings.  Only the tiny
    tuple→count dict leaves the shard."""
    per: list[tuple[list[str], np.ndarray, np.ndarray]] = []
    for f in sources:
        code_by_val: dict[str, int] = {}
        ids_l: list[np.ndarray] = []
        code_l: list[np.ndarray] = []
        for v, g in _iter_filter_postings(index_dir, f, dparts):
            c = code_by_val.setdefault(v, len(code_by_val))
            ids_l.append(g)
            code_l.append(np.full(g.size, c, np.int64))
        if not ids_l:
            return {}
        ids = np.concatenate(ids_l)
        codes = np.concatenate(code_l)
        o = np.argsort(ids, kind="stable")
        vals = [v for v, _ in sorted(code_by_val.items(),
                                     key=lambda kv: kv[1])]
        per.append((vals, ids[o], codes[o]))
    # join on doc id across fields (docs missing any source field drop
    # out — OpenSearch composite semantics without missing_bucket)
    all_vals = [p[0] for p in per]
    ids = per[0][1]
    code_mat = [per[0][2]]
    for valsf, idsf, codesf in per[1:]:
        if idsf.size == 0 or ids.size == 0:
            return {}
        pos = np.minimum(np.searchsorted(idsf, ids), idsf.size - 1)
        ok = idsf[pos] == ids
        ids = ids[ok]
        code_mat = [c[ok] for c in code_mat]
        code_mat.append(codesf[pos[ok]])
    if cand is not None and ids.size:
        pos = np.minimum(np.searchsorted(cand, ids),
                         max(cand.size - 1, 0))
        ok = (cand[pos] == ids) if cand.size else np.zeros(ids.size, bool)
        ids = ids[ok]
        code_mat = [c[ok] for c in code_mat]
    if tombstones.size and ids.size:
        ok = _excl_mask(ids, tombstones)
        ids = ids[ok]
        code_mat = [c[ok] for c in code_mat]
    if ids.size == 0:
        return {}
    key = np.zeros(ids.size, np.int64)
    for c, vals in zip(code_mat, all_vals):
        key = key * len(vals) + c
    out: dict[tuple, int] = {}
    for k, cnt in zip(*np.unique(key, return_counts=True)):
        t: list[str] = []
        k = int(k)
        for vals in reversed(all_vals):
            t.append(vals[k % len(vals)])
            k //= len(vals)
        out[tuple(reversed(t))] = int(cnt)
    return out


# ---------------------------------------------------------------------------
# shard groups: the per-shard partials, one function each
#
# A shard group is a Searcher over a set of doc parts: the shard-local
# Searcher a PartActor owns, or the in-process Searcher itself (every
# part).  Its readers, tombstones and match-set memos are what the
# partials below read; ``Searcher._scatter(fn, *args)`` runs
# ``fn(group, *args)`` once per group and returns the results in
# group order.  Doc shards partition the corpus, so partials merge by
# summing (counts) or by (score desc, doc_id asc) (top-k).


def _add_counts(dst: dict, src: dict) -> dict:
    for key, n in src.items():
        dst[key] = dst.get(key, 0) + n
    return dst


def _add_moments(dst: dict, src: dict) -> dict:
    """Merge per-bucket (count, sum, min, max) moment dicts."""
    for key, cur in src.items():
        prev = dst.get(key)
        dst[key] = cur if prev is None else (
            prev[0] + cur[0], prev[1] + cur[1],
            min(prev[2], cur[2]), max(prev[3], cur[3]))
    return dst


def _merge_topk(lists, k: int) -> list[tuple]:
    merged = [h for hs in lists for h in hs]
    merged.sort(key=lambda t: (-t[0], t[1]))
    return merged[:k]


def _live_cands(g, field: str, q_terms: list[str], mode: str):
    """(part, reader, live match ids) for every part of group ``g``."""
    for p, r in g.readers.items():
        cand = _candidate_ids(r, field, q_terms, mode)
        if cand.size and g.tombstones.size:
            cand = cand[_excl_mask(cand, g.tombstones)]
        yield p, r, cand


def _range_values(g, field: str, q_terms: list[str], mode: str,
                  range_field: str) -> np.ndarray:
    """Matched live ``range_field`` values over the group's parts."""
    vs = [_shard_range_values(r, p, g.tombstones, field, q_terms, mode,
                              range_field)
          for p, r in g.readers.items()]
    live = [x for x in vs if x.size]
    return np.concatenate(live) if live else np.zeros(0)


def _run_method(g, method: str, kwargs: dict,
                idf: dict[str, float] | None = None,
                stats_override: dict | None = None):
    """Run a Searcher method over ONLY the group's doc shards: global
    n_docs/avgdl come from the shared manifest, globally-summed idf
    arrives as ``idf`` (dfs_query_then_fetch round 2) and
    ``stats_override`` replaces n_docs/avgdl for the call — the
    cross-INDEX federation channel (MultiSearcher blends stats over
    every index of a pattern).  Postings never leave the group; only
    the method's (local top-k) result returns."""
    g._idf_overrides = idf
    old_stats = g.stats
    if stats_override:
        g.stats = {**old_stats, **stats_override}
    try:
        return getattr(g, method)(**kwargs)
    finally:
        g._idf_overrides = None
        g.stats = old_stats


def _grp_dfs(g, field: str, terms: list[str]) -> dict[str, int]:
    """dfs round 1: local df per term, summed over the group's parts."""
    out: dict[str, int] = {}
    for r in g.readers.values():
        for t in terms:
            d = r.df(field, t)
            if d:
                out[t] = out.get(t, 0) + d
    return out


def _grp_rows(g, field: str, terms: list[str]) -> dict[str, list[tuple]]:
    """Raw postings rows of ``terms`` from every part of the group (a
    term's postings are sliced across all doc shards)."""
    out: dict[str, list[tuple]] = {}
    for r in g.readers.values():
        for t in terms:
            rows = r.raw_rows(field, t)
            if rows:
                out.setdefault(t, []).extend(rows)
    return out


def _grp_match_terms(g, field: str, pattern: str, kind: str,
                     fuzziness: int, transpositions: bool,
                     prefix: str) -> set[str]:
    """Term-dictionary probe (prefix / wildcard / fuzzy expansion runs
    where the dictionaries live; only matching term strings travel)."""
    out: set[str] = set()
    for r in g.readers.values():
        out.update(r.match_terms(field, pattern, kind, fuzziness,
                                 transpositions, prefix))
    return out


def _grp_terms(g, field: str, q_terms: list[str], mode: str,
               agg_field: str) -> dict[str, int]:
    """terms-agg partial: per-part match set against the part's OWN
    filter postings; no doc id leaves its shard."""
    out: dict[str, int] = {}
    for p, _r, cand in _live_cands(g, field, q_terms, mode):
        if cand.size:
            _add_counts(out, dict(_count_filter_values(
                g.index_dir, agg_field, cand, dparts=[p])))
    return out


def _grp_multi_terms(g, field: str, q_terms: list[str], mode: str,
                     fa: str, fb: str) -> dict[tuple[str, str], int]:
    out: dict[tuple[str, str], int] = {}
    for p, _r, cand in _live_cands(g, field, q_terms, mode):
        _add_counts(out, _multi_terms_partial(g.index_dir, fa, fb, cand,
                                              dparts=[p]))
    return out


def _grp_geo_distance(g, field: str, q_terms: list[str], mode: str,
                      lat_field: str, lon_field: str, olat: float,
                      olon: float,
                      ranges: list[tuple[float | None, float | None]]
                      ) -> list[int]:
    out = [0] * len(ranges)
    for p, _r, cand in _live_cands(g, field, q_terms, mode):
        for i, n in enumerate(_geo_distance_partial(
                g.index_dir, cand, lat_field, lon_field, olat, olon,
                ranges, dparts=[p])):
            out[i] += n
    return out


def _grp_geotile(g, field: str, q_terms: list[str], mode: str,
                 lat_field: str, lon_field: str, precision: int,
                 scheme: str) -> dict[str, int]:
    part_fn = _geotile_partial if scheme == "geotile" else _geohash_partial
    out: dict[str, int] = {}
    for p, _r, cand in _live_cands(g, field, q_terms, mode):
        _add_counts(out, part_fn(g.index_dir, cand, lat_field, lon_field,
                                 precision, dparts=[p]))
    return out


def _grp_scripted(g, field: str, q_terms: list[str], mode: str,
                  fields: tuple[str, ...], map_expr: str
                  ) -> tuple[int, float]:
    n_tot, s_tot = 0, 0.0
    for p, _r, cand in _live_cands(g, field, q_terms, mode):
        n, s = _scripted_partial(g.index_dir, cand, fields, map_expr,
                                 dparts=[p])
        n_tot += n
        s_tot += s
    return n_tot, s_tot


def _grp_string_stats(g, field: str, q_terms: list[str], mode: str,
                      agg_field: str) -> dict:
    return _merge_string_stats([
        _string_stats_partial(g.index_dir, agg_field, cand, dparts=[p])
        for p, _r, cand in _live_cands(g, field, q_terms, mode)])


def _grp_geo_bounds(g, field: str, q_terms: list[str], mode: str,
                    lat_field: str, lon_field: str) -> dict:
    return _merge_geo_bounds([
        _geo_bounds_partial(g.index_dir, cand, lat_field, lon_field,
                            dparts=[p])
        for p, _r, cand in _live_cands(g, field, q_terms, mode)])


def _grp_exists(g, field_name: str, k: int | None) -> np.ndarray:
    """The group's first-k live presence ids (doc ranges are disjoint
    across groups, so a sort-merge of the partials is the exact global
    first-k)."""
    return _exists_ids(g.index_dir, field_name, k, sorted(g.readers),
                       g.tombstones)


def _grp_sampler(g, field: str, q_terms: list[str], shard_size: int,
                 agg_field: str, diversify_field: str | None,
                 max_per_value: int, idf: dict[str, float], n_docs: int,
                 avgdl: float, k1: float, b: float) -> dict[str, int]:
    """sampler partial: per PART (the sample is a property of the
    shard, stable under pool size), best-shard_size docs -> sub-agg
    counts."""
    out: dict[str, int] = {}
    for p, r in g.readers.items():
        _add_counts(out, _sampler_partial(
            r, p, g.tombstones, field, q_terms, shard_size, agg_field,
            diversify_field, max_per_value, idf, n_docs, avgdl, k1, b))
    return out


def _grp_sig_text(g, field: str, q_terms: list[str], mode: str,
                  text_field: str, max_terms: int
                  ) -> tuple[dict[str, int], dict[str, int], int]:
    """significant_text partial: (fg, df, fg_size) summed over the
    group's parts (each doc shard holds the full postings of its own
    docs, so per-shard term scans sum exactly)."""
    fg: dict[str, int] = {}
    df: dict[str, int] = {}
    n_cand = 0
    for p, r in g.readers.items():
        f, d, n = _sig_text_partial(r, p, g.tombstones, field, q_terms,
                                    mode, text_field, max_terms)
        n_cand += n
        _add_counts(fg, f)
        _add_counts(df, d)
    return fg, df, n_cand


def _grp_comoments(g, field: str, q_terms: list[str], mode: str,
                   f1: str, f2: str) -> dict:
    tot = {"n": 0, "sx": 0.0, "sy": 0.0, "sxx": 0.0, "syy": 0.0,
           "sxy": 0.0}
    for p, r in g.readers.items():
        _add_counts(tot, _shard_comoments(r, p, g.tombstones, field,
                                          q_terms, mode, f1, f2))
    return tot


def _grp_hist(g, field: str, q_terms: list[str], mode: str,
              range_field: str, interval: float, offset: float
              ) -> dict[float, int]:
    out: dict[float, int] = {}
    for p, r in g.readers.items():
        v = _shard_range_values(r, p, g.tombstones, field, q_terms, mode,
                                range_field)
        if v.size:
            bv = np.floor((v - offset) / interval) * interval + offset
            u, c = np.unique(bv, return_counts=True)
            _add_counts(out, {float(x): int(n) for x, n in zip(u, c)})
    return out


def _grp_range(g, field: str, q_terms: list[str], mode: str,
               range_field: str,
               ranges: list[tuple[float | None, float | None]]
               ) -> list[int]:
    out = [0] * len(ranges)
    for p, r in g.readers.items():
        v = _shard_range_values(r, p, g.tombstones, field, q_terms, mode,
                                range_field)
        if v.size:
            for i, n in enumerate(_range_bucket_counts(v, ranges)):
                out[i] += n
    return out


def _grp_count(g, field: str, q_terms: list[str], mode: str) -> int:
    return sum(int(cand.size)
               for _p, _r, cand in _live_cands(g, field, q_terms, mode))


def _grp_filters_union(g, field: str,
                       specs: list[tuple[list[str], str]]) -> int:
    """other_bucket partial: size of the UNION of the named filters'
    live match sets within the group's parts."""
    return sum(_filters_union_size(r, field, specs, g.tombstones)
               for r in g.readers.values())


def _grp_adjacency(g, field: str, specs: list[tuple[str, list[str], str]]
                   ) -> dict[str, int]:
    """adjacency_matrix partial: singles and pairwise intersection
    counts of the named filters' match sets, per part."""
    out: dict[str, int] = {}
    for r in g.readers.values():
        cands = []
        for name, q_terms, mode in specs:
            cand = _candidate_ids(r, field, q_terms, mode)
            if cand.size and g.tombstones.size:
                cand = cand[_excl_mask(cand, g.tombstones)]
            cands.append((name, cand))
        for i, (a, ca) in enumerate(cands):
            if ca.size:
                out[a] = out.get(a, 0) + int(ca.size)
            for b, cb in cands[i + 1:]:
                n = int(np.intersect1d(ca, cb, assume_unique=True).size)
                if n:
                    out[f"{a}&{b}"] = out.get(f"{a}&{b}", 0) + n
    return out


def _grp_presence(g, field: str, q_terms: list[str], mode: str,
                  agg_field: str, is_range: bool) -> tuple[int, int]:
    """value_count/missing partial: (matched docs carrying
    ``agg_field``, matched docs total)."""
    w = n = 0
    for p, _r, cand in _live_cands(g, field, q_terms, mode):
        if cand.size:
            n += int(cand.size)
            w += _count_presence(g.index_dir, agg_field, cand,
                                 dparts=[p], is_range=is_range)
    return w, n


def _grp_context_dfs(g, field: str, terms: list[str], context_field: str,
                     context_value: str) -> dict[str, int]:
    """Context-suggester partial: per candidate term, the group's live
    doc count within the keyword context."""
    out: dict[str, int] = {}
    for p, r in g.readers.items():
        filt = r.filter_docs(context_field, context_value, dparts=[p])
        if filt.size == 0:
            continue
        for t in terms:
            cand = _candidate_ids(r, field, [t], "or")
            if cand.size and g.tombstones.size:
                cand = cand[_excl_mask(cand, g.tombstones)]
            if cand.size == 0:
                continue
            pos = np.minimum(np.searchsorted(filt, cand), filt.size - 1)
            n = int(np.count_nonzero(filt[pos] == cand))
            if n:
                out[t] = out.get(t, 0) + n
    return out


def _grp_sort(g, sort_field: str, k: int, desc: bool, field: str,
              q_terms: list[str] | None, mode: str,
              filter_field: str | None, filter_value: str | None,
              after: tuple | None) -> list[tuple]:
    """Field-sorted search partial: each part's local top-k
    (value, doc_id) under the (optionally filtered) match set,
    selected by boundary bisect on the value-sorted range tables."""
    out: list[tuple] = []
    for p, r in g.readers.items():
        cand = None
        if q_terms is not None:
            cand = _candidate_ids(r, field, q_terms, mode)
            if cand.size == 0:
                continue
        if filter_field is not None:
            f = r.filter_docs(filter_field, filter_value, dparts=[p])
            cand = f if cand is None else \
                cand[np.isin(cand, f, assume_unique=True)]
            if cand.size == 0:
                continue
        out.extend(_field_sort_partials(
            g.index_dir, sort_field, k, desc, cand, g.tombstones,
            dparts=[p], after=after))
    out.sort(key=(lambda t: (-t[0], t[1])) if desc
             else (lambda t: (t[0], t[1])))
    return out[:k]


def _grp_composite(g, sources: list[str], field: str,
                   q_terms: list[str] | None, mode: str
                   ) -> dict[tuple, int]:
    """composite partial (q_terms None = every live doc carrying all
    source fields)."""
    out: dict[tuple, int] = {}
    for p, r in g.readers.items():
        cand = (None if q_terms is None
                else _candidate_ids(r, field, q_terms, mode))
        _add_counts(out, _composite_partial(g.index_dir, sources, cand,
                                            g.tombstones, dparts=[p]))
    return out


def _grp_terms_hist(g, field: str, q_terms: list[str], mode: str,
                    agg_field: str, range_field: str, interval: float
                    ) -> dict[tuple[str, float], int]:
    out: dict[tuple[str, float], int] = {}
    for p, _r, cand in _live_cands(g, field, q_terms, mode):
        _add_counts(out, _terms_hist_partial(g.index_dir, agg_field,
                                             range_field, interval, cand,
                                             dparts=[p]))
    return out


def _grp_group_stats(g, field: str, q_terms: list[str], mode: str,
                     agg_field: str, range_field: str
                     ) -> dict[str, tuple[int, float, float, float]]:
    out: dict[str, tuple[int, float, float, float]] = {}
    for p, _r, cand in _live_cands(g, field, q_terms, mode):
        _add_moments(out, _group_stats_partial(
            g.index_dir, agg_field, range_field, cand, dparts=[p]))
    return out


def _grp_hist_stats(g, field: str, q_terms: list[str], mode: str,
                    bucket_field: str, interval: float, metric_field: str
                    ) -> dict[float, tuple[int, float, float, float]]:
    out: dict[float, tuple[int, float, float, float]] = {}
    for p, _r, cand in _live_cands(g, field, q_terms, mode):
        _add_moments(out, _hist_stats_partial(
            g.index_dir, bucket_field, interval, metric_field, cand,
            dparts=[p]))
    return out


def _grp_stats(g, field: str, q_terms: list[str], mode: str,
               range_field: str, quantile_mode: str = "none") -> dict:
    """stats partial: exact mergeable moments; for quantiles,
    ``exact`` ships the raw matched values while ``tdigest`` ships an
    O(delta) centroid partial (OpenSearch percentiles parity: t-digest
    per shard)."""
    v = _range_values(g, field, q_terms, mode, range_field)
    if v.size == 0:
        return {"count": 0}
    # sum_sq rides along for extended_stats (variance/std_dev are
    # driver-derivable from the same mergeable moments)
    out = {"count": int(v.size), "min": float(v.min()),
           "max": float(v.max()), "sum": float(v.sum()),
           "sum_sq": float(np.square(v).sum())}
    if quantile_mode == "exact":
        out["values"] = v
    elif quantile_mode == "tdigest":
        from ..stages.sketches import TDigest
        td = TDigest()
        td.add(v)
        out["digest"] = td.to_arrays()
    return out


def _memo(memo: dict, key: tuple, make):
    v = memo.get(key)
    if v is None:
        if len(memo) >= 32:
            memo.clear()
        v = memo[key] = make()
    return v


def _matched_sorted(g, field: str, q_terms: list[str], mode: str,
                    range_field: str) -> np.ndarray:
    """Sorted matched values of ``range_field`` over the group's parts,
    memoized per (field, terms, mode, range_field, ambient filters):
    one match-set computation serves every probe round of a
    distributed selection."""
    key = (field, tuple(q_terms), mode, range_field, _CTX_FILTERS,
           _CTX_PURE)
    return _memo(g.cle_memo, key, lambda: np.sort(
        _range_values(g, field, q_terms, mode, range_field)))


def _grp_count_le(g, field: str, q_terms: list[str], mode: str,
                  range_field: str, probes: list[float]) -> list[int]:
    """Distributed-exact percentile partial: count of the group's
    MATCHED values <= each probe — only len(probes) ints travel, no
    matched value ever leaves the shard."""
    v = _matched_sorted(g, field, q_terms, mode, range_field)
    return np.searchsorted(v, np.asarray(probes, dtype=np.float64),
                           side="right").tolist()


def _grp_sum_le(g, field: str, q_terms: list[str], mode: str,
                range_field: str, probes: list[float]) -> list[float]:
    """Companion partial for range-sum selections (the
    variable_width_histogram cluster sums): SUM of the group's matched
    values <= each probe, off the same memoized sorted array."""
    v = _matched_sorted(g, field, q_terms, mode, range_field)
    key = (field, tuple(q_terms), mode, range_field, _CTX_FILTERS,
           _CTX_PURE)
    cs = _memo(g.sle_memo, key,
               lambda: np.concatenate(([0.0], np.cumsum(v))))
    idx = np.searchsorted(v, np.asarray(probes, dtype=np.float64),
                          side="right")
    return cs[idx].tolist()


def _grp_count_dev_le(g, field: str, q_terms: list[str], mode: str,
                      range_field: str, center: float,
                      probes: list[float]) -> list[int]:
    """MAD partial: count of the group's matched DEVIATIONS
    ``fl(|x - center|)`` <= each probe — the transform happens
    shard-side in the SAME float arithmetic the reference
    (np.median of np.abs(v - med)) uses, so the deviation-median
    bisection is exact by construction (probing
    ``count(x <= fl(center+d))`` instead would quantize the answer at
    ulp(center), wrong whenever |center| >> spread)."""
    key = (field, tuple(q_terms), mode, range_field, float(center),
           _CTX_FILTERS, _CTX_PURE)
    v = _memo(g.cle_memo, key, lambda: np.sort(np.abs(
        _range_values(g, field, q_terms, mode, range_field) - center)))
    return np.searchsorted(v, np.asarray(probes, dtype=np.float64),
                           side="right").tolist()


# ---------------------------------------------------------------------------
# actors + driver


@ray.remote
class PartActor:
    """A warm shard-group actor: owns a RANGE of doc partitions, each
    loaded once in __init__ (SURVEY §7.3), behind one shard-local
    Searcher — its shard group.  Every query and agg partial reaches
    the group through :meth:`run`; the other methods are lifecycle.
    On a multi-node cluster the pool spreads part ranges across
    nodes; locally the pool size is min(P, cpus) so P can be large
    (shard granularity) without P actors."""

    def __init__(self, index_dir: str, parts: list[int]):
        self.group = Searcher(index_dir, _readers={
            p: ShardReader(index_dir, p) for p in parts})

    def ping(self) -> bool:
        return True

    def refresh_tombstones(self) -> int:
        """Reload tombstones from disk after a delete (the
        delete-by-query refresh): the warm readers stay, only the
        exclusion set and the match-set memos reset."""
        return self.group.refresh_tombstones()

    def set_tombstones(self, ids: np.ndarray) -> int:
        """Install an explicit exclusion set (the Searcher-side PIT
        broadcast); same cache hygiene as a disk refresh."""
        return self.group.set_tombstones_override(ids)

    def set_ctx_filters(self, filters, pure: bool = False) -> bool:
        """Install (or clear, with None) the aggregation-context
        filters in this actor's process — broadcast by the driver
        around one filtered-agg request (same discipline as
        refresh_tombstones).  Memo keys carry the filters, so no memo
        invalidation is needed."""
        _set_ctx_filters(filters, pure)
        return True

    def run(self, fn, *args):
        """``fn(group, *args)`` on this actor's shard group."""
        return fn(self.group, *args)


# ---------------------------------------------------------------------------
# scored-query routing (dfs_query_then_fetch; SURVEY §7.1)
#
# On an actor-pool Searcher a scored node runs per doc shard, the way
# OpenSearch executes queries (3 doc shards, command_index.txt:8):
# round 1 sums per-shard df into global idf, round 2 runs the SAME
# method body on every shard group over only its doc slice, and the
# driver merges the groups' results.  Doc shards are disjoint, so the
# merged top-k is exact.  In process — and on every shard-local
# Searcher — the body runs as written.


def _routed(plan, merge=None):
    """Route a scored Searcher method through
    :meth:`Searcher._exec_doc_sharded` when the Searcher has actors.
    ``plan(searcher, kw)`` gets the call's bound arguments and returns
    ``(shard_kwargs, dfs_terms)`` — the terms whose global idf the dfs
    round computes over ``kw['field']`` (None: no dfs round) — or
    None to run the body on the driver (nothing to scatter, or a body
    that composes other routed methods).  ``merge(results, kw)``
    reduces the per-group results; the default is the top ``kw['k']``
    by (score desc, doc_id asc)."""
    def deco(body):
        sig = inspect.signature(body)

        @functools.wraps(body)
        def method(self, *args, **kwargs):
            if not self.use_actors:
                return body(self, *args, **kwargs)
            bound = sig.bind(self, *args, **kwargs)
            bound.apply_defaults()
            kw = dict(bound.arguments)
            del kw["self"]
            planned = plan(self, kw)
            if planned is None:
                return body(self, *args, **kwargs)
            shard_kw, terms = planned
            return self._exec_doc_sharded(
                body.__name__, shard_kw, kw["k"], idf_terms=terms,
                field=kw.get("field", "content"),
                merge=None if merge is None else (lambda rs: merge(rs, kw)))
        return method
    return deco


def _dfs_on(arg: str):
    """Plan: global idf for the field analyzer's tokens of ``kw[arg]``
    (empty analysis runs the body on the driver, which returns early)."""
    def plan(s, kw):
        toks = ANALYZERS[s._analyzer_for(kw["field"], kw.get("analyzer"))](
            kw[arg])
        return (kw, toks) if toks else None
    return plan


def _no_dfs(s, kw):
    """Plan: per-doc quantities only (positions, constant scores,
    vectors) — no dfs round."""
    return kw, None


def _plan_bool(s, kw):
    an = ANALYZERS[s._analyzer_for(kw["field"], kw["analyzer"])]
    toks = [t for x in (kw["must"] or []) + (kw["should"] or [])
            for t in an(x)]
    return (kw, toks) if toks else None


def _plan_phrase_scored(s, kw):
    toks, _ = POSITIONAL_ANALYZERS[
        s._analyzer_for(kw["field"], kw["analyzer"])](kw["query"])
    return kw, toks


def _plan_terms(s, kw):
    """Plan: global idf for the already-analyzed ``kw['terms']``."""
    return (kw, list(kw["terms"])) if kw["terms"] else None


def _plan_function_score(s, kw):
    # spec errors surface driver-side before any scatter
    if kw["boost_mode"] not in ("multiply", "sum", "avg", "min", "max",
                                "replace"):
        raise ValueError(f"unsupported boost_mode {kw['boost_mode']!r}")
    if kw["score_mode"] not in ("multiply", "sum", "avg", "min", "max"):
        raise ValueError(f"unsupported score_mode {kw['score_mode']!r}")
    if kw["functions"] is None and kw["value_field"] is None:
        raise ValueError("function_score field_value_factor needs "
                         "value_field")
    if kw["functions"] is not None and not kw["functions"]:
        raise ValueError("function_score needs at least one function")
    return _dfs_on("query")(s, kw)


def _plan_collapse(s, kw):
    """Best-per-value is an associative max under (score desc, doc_id
    asc): every shard ships its OWN best (score, doc) per collapse
    value and :func:`_merge_collapse` max-merges per value."""
    planned = _dfs_on("query")(s, kw)
    return None if planned is None else ({**kw, "k": 1 << 31}, planned[1])


def _merge_collapse(results, kw) -> list[tuple[float, int, str]]:
    best: dict[str, tuple[float, int]] = {}
    for rows in results:
        for sc, d, v in rows:
            cur = best.get(v)
            if cur is None or (sc, -d) > (cur[0], -cur[1]):
                best[v] = (sc, d)
    out = sorted(((sc, d, v) for v, (sc, d) in best.items()),
                 key=lambda t: (-t[0], t[1]))
    return out[:kw["k"]]


def _plan_multi_match(s, kw):
    """idf must be global PER FIELD (a term carries different dfs in
    different fields), so the dfs round builds one idf dict per field
    and ships the bundle as ``_idf_by_field``; cross_fields ships the
    blended (max-df) idf for every field.  Phrase types compose the
    routed phrase methods on the driver."""
    mt = kw["match_type"]
    if mt not in ("best_fields", "most_fields", "cross_fields") \
            or kw["_idf_by_field"] is not None:
        return None
    n_docs = int(s.stats["n_docs"])
    names = [f.partition("^")[0] for f in kw["fields"]]
    idf_by_field: dict[str, dict[str, float]] = {}
    if mt == "cross_fields" and names:
        toks = list(dict.fromkeys(ANALYZERS[s._analyzer_for(
            names[0], kw["analyzer"])](kw["query"])))
        per_field = {n: s._term_dfs(n, toks) for n in set(names)}
        blended = {t: float(idf_fn(max(d.get(t, 0)
                                       for d in per_field.values()),
                                   n_docs)) for t in toks}
        idf_by_field = {n: blended for n in set(names)}
    else:
        for name in names:
            toks = list(dict.fromkeys(ANALYZERS[s._analyzer_for(
                name, kw["analyzer"])](kw["query"])))
            if toks:
                dfs = s._term_dfs(name, toks)
                idf_by_field[name] = {
                    t: float(idf_fn(dfs.get(t, 0), n_docs)) for t in toks}
    return {**kw, "_idf_by_field": idf_by_field}, None


def _plan_combined(s, kw):
    """The dfs round ships per-group UNION df partials (exact, since
    doc shards partition the corpus) and sums them into the global
    idf every shard scores with."""
    specs = s._cf_specs(kw["fields"])
    if not specs:
        return None
    uniq = list(dict.fromkeys(ANALYZERS[s._analyzer_for(
        specs[0][0], kw["analyzer"])](kw["query"])))
    if not uniq:
        return None
    dfs: dict[str, int] = {}
    for d in s._scatter(_run_method, "combined_union_df",
                        dict(terms=uniq, fields=kw["fields"])):
        _add_counts(dfs, d)
    n_docs = int(s.stats["n_docs"])
    idf = {t: float(idf_fn(dfs.get(t, 0), n_docs)) for t in uniq}
    return {**kw, "_idf_override": idf}, None


def _plan_query_string(s, kw):
    """Pattern clauses pre-expand against the GLOBAL dictionary so
    every scoring token gets its global idf; phrase clauses are
    filter-context (no idf) and evaluate on local positions."""
    from .querystring import parse_query_string, parse_simple_query_string
    parser = kw["parser"]
    if parser == "qs":
        parsed = parse_query_string(kw["qs"])
    else:
        parsed = parse_simple_query_string(
            kw["qs"], "and" if parser == "simple_and" else "or")
        if not parsed.clauses:
            return None
    field, mx = kw["field"], kw["max_expansions"]
    an = ANALYZERS[s._analyzer_for(field, kw["analyzer"])]
    toks: list[str] = []
    for c in parsed.clauses:
        if c.kind == "term":
            toks += an(c.text)
        elif c.kind in ("prefix", "wildcard"):
            toks += s.expand_terms(c.text.lower(), field, c.kind, mx)
        elif c.kind == "fuzzy":
            toks += s.expand_terms(c.text.lower(), field, "fuzzy", mx,
                                   fuzziness=c.fuzziness)
    return kw, toks


class Searcher:
    """Driver-side coordinator and shard group.  With actors (the
    default) every partial scatters to the part actors' shard groups
    (:meth:`_scatter`) and scored queries run per doc shard under
    global idf (:meth:`_exec_doc_sharded`), merged by (score desc,
    doc_id asc).  In process the Searcher is itself the one shard
    group over every part: the same partials run on it directly and
    scored queries gather postings and score them here with TAAT (OR)
    or vectorized AND.  A PartActor's shard-local Searcher is the
    in-process kind over only its own parts."""

    def __init__(self, index_dir: str, use_actors: bool = True,
                 num_actors: int | None = None,
                 _readers: dict[int, "ShardReader"] | None = None):
        import json as _json
        import os as _os
        from .shard import check_layout, load_tombstones
        with open(_os.path.join(index_dir, "INDEX_MANIFEST.json")) as f:
            self.manifest = _json.load(f)
        check_layout(self.manifest["config"])
        self.index_dir = index_dir
        self.P = int(self.manifest["config"]["num_partitions"])
        self.stats = self.manifest["stats"]
        # per-query global-idf injection for doc-sharded execution
        # (dfs_query_then_fetch round 2 — see _exec_doc_sharded)
        self._idf_overrides: dict[str, float] | None = None
        # per-field (sorted doc_ids, raw dl) from the __dl sidecar
        # (store_doclens=True builds) — loaded lazily, once
        self._doclen_cache: dict[str, tuple] = {}
        self._filter_cache: dict[tuple[str, str], np.ndarray] = {}
        self._rows_cache: dict[tuple[str, str], list[tuple]] = {}
        self._df_cache: dict[tuple[str, str], int] = {}
        # sorted matched-values memos of the distributed-exact
        # percentile protocol: one match-set computation serves every
        # count_le probe round of a selection (+ prefix sums for the
        # sum_le companion)
        self.cle_memo: dict[tuple, np.ndarray] = {}
        self.sle_memo: dict[tuple, np.ndarray] = {}
        self.actors: list = []
        self.use_actors = (_readers is None and use_actors
                           and ray.is_initialized())
        self._local_parts: list[int] | None = None
        if _readers is not None:
            # shard-LOCAL searcher living inside a PartActor: adopts the
            # actor's warm readers and executes the full query DSL over
            # ONLY its doc shards (global stats come from the shared
            # manifest; global idf arrives via _idf_overrides)
            self.readers = dict(_readers)
            self._local_parts = sorted(_readers)
        elif self.use_actors:
            if num_actors is None:
                cpus = int(ray.cluster_resources().get("CPU", 4))
                num_actors = max(1, min(self.P, cpus))
            self.num_actors = num_actors
            ranges: list[list[int]] = [[] for _ in range(num_actors)]
            for p in range(self.P):
                ranges[p % num_actors].append(p)
            self.actors = [PartActor.remote(index_dir, parts)
                           for parts in ranges]
            # actors construct lazily on first call — force-warm the
            # pool so query latency never includes shard loading
            ray.get([a.ping.remote() for a in self.actors])
        else:
            self.readers = {p: ShardReader(index_dir, p) for p in range(self.P)}
        self.tombstones = load_tombstones(index_dir)

    def close(self) -> None:
        for a in self.actors:
            ray.kill(a)

    def refresh_tombstones(self) -> int:
        """Reload the tombstone set from disk on the driver AND every
        shard actor (one broadcast round) — call after
        ``delete_docs`` / ``execute_delete_by_query`` so a live
        Searcher stops matching the deleted docs.  The warm readers
        and postings caches survive; only the exclusion set moves."""
        from .shard import load_tombstones
        self._install_tombstones(load_tombstones(self.index_dir))
        if self.actors:
            ray.get([a.refresh_tombstones.remote() for a in self.actors])
        return int(self.tombstones.size)

    def set_tombstones_override(self, ids: np.ndarray) -> int:
        """Swap an explicit exclusion set in place of the on-disk
        tombstones (driver + one actor broadcast round) — the PIT
        view mechanism (`state/pit.pit_view`).  Restore with
        :meth:`refresh_tombstones`."""
        ids = np.sort(np.asarray(ids, dtype=np.uint64))
        self._install_tombstones(ids)
        if self.actors:
            ray.get([a.set_tombstones.remote(ids) for a in self.actors])
        return int(ids.size)

    def _install_tombstones(self, ids: np.ndarray) -> None:
        self.tombstones = ids
        self._filter_cache.clear()
        self.cle_memo.clear()
        self.sle_memo.clear()

    def _scatter(self, fn, *args) -> list:
        """``fn(group, *args)`` on every shard group, results in group
        order: one ``PartActor.run`` per actor, or this Searcher itself
        in process."""
        if self.use_actors:
            return ray.get([a.run.remote(fn, *args) for a in self.actors])
        return [fn(self, *args)]

    def _probe_sum(self, fn, *args, dtype=np.int64) -> np.ndarray:
        """Element-wise sum of the groups' per-probe partials (the
        count_le / sum_le rounds of a distributed selection)."""
        return np.sum(np.asarray(self._scatter(fn, *args), dtype=dtype),
                      axis=0)

    def _gather(self, field: str, terms: list[str]) -> dict[str, list[tuple]]:
        """Fetch raw postings rows for terms; a bounded per-searcher
        cache keeps hot terms' (large) blobs from re-shipping on every
        query (reference parity: warm OpenSearch shard request cache).
        A term's postings are sliced across EVERY doc shard — every
        group ships its rows and the run lists merge (merge_postings/
        _PhraseTerm re-sort, so run order across shards doesn't
        matter).  Scored queries run per doc shard with actors; this
        gather serves in-process and shard-local execution."""
        cache = self._rows_cache
        missing = [t for t in dict.fromkeys(terms) if (field, t) not in cache]
        rows: dict[str, list[tuple]] = {}
        if missing:
            for d in self._scatter(_grp_rows, field, missing):
                for t, r in d.items():
                    rows.setdefault(t, []).extend(r)
        for t in missing:
            if len(cache) < 4096:
                cache[(field, t)] = rows.get(t, [])
        for t in dict.fromkeys(terms):
            hit = cache.get((field, t))
            if hit:
                rows[t] = hit
        return rows

    def _filter_ids(self, field: str, value) -> np.ndarray:
        """Live doc ids carrying ``value`` in keyword ``field``.  A
        list/tuple value is the OpenSearch ``terms`` filter: the union
        of each value's packed doc list (each list read once, cached
        individually so single-value filters share the cache)."""
        if isinstance(value, (list, tuple)):
            parts = [self._filter_ids(field, v) for v in value]
            live = [p for p in parts if p.size]
            if not live:
                return np.zeros(0, np.int64)
            return np.unique(np.concatenate(live))
        key = (field, value)
        if key not in self._filter_cache:
            from .shard import load_filter_ids
            # a shard-local searcher reads only its own doc parts'
            # filter files (they're doc-range partitioned)
            self._filter_cache[key] = load_filter_ids(
                self.index_dir, field, value, dparts=self._local_parts)
        return self._filter_cache[key]

    def _range_ids(self, field: str, lo, hi) -> np.ndarray:
        from .shard import load_range_ids
        return load_range_ids(self.index_dir, field, lo, hi,
                              dparts=self._local_parts)

    @_routed(_dfs_on("query"))
    def search(self, query: str, field: str = "content", k: int = 10,
               mode: str = "or", method: str = "auto",
               filter_field: str | None = None, filter_value: str | None = None,
               range_field: str | None = None, range_lo=None, range_hi=None,
               analyzer: str | None = None,
               search_after: tuple[float, int] | None = None,
               k1: float = K1, b: float = B) -> list[tuple[float, int]]:
        """``method='auto'`` picks the execution strategy per query:
        vectorized intersection for AND, vectorized TAAT for OR.
        ``method='wand'`` (block-max WAND) stays available as an
        explicit choice; all three are exact-identical (tested).
        With actors the query scatters to the doc shards under
        global idf (:meth:`_exec_doc_sharded`); in process the
        driver gathers postings and scores them.
        ``search_after=(score, doc_id)`` — the previous page's last
        hit — resumes the ranking strictly after the cursor (OpenSearch
        search_after parity: deep paging without accumulating offset
        cost)."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        if not q_terms:
            return []
        rows = self._gather(field, q_terms)
        avgdl = float(self.stats["avgdl"][field])
        n_docs = int(self.stats["n_docs"])
        terms = prepare_terms(q_terms, rows, n_docs, avgdl, k1, b,
                              idf_by_term=self._idf_overrides,
                              exclude_ids=self.tombstones)
        filt = None
        if filter_field is not None:
            filt = self._filter_ids(filter_field, filter_value)
        if range_field is not None:
            rids = self._range_ids(range_field, range_lo, range_hi)
            filt = rids if filt is None else                 np.intersect1d(filt, rids, assume_unique=True)
        return _dispatch(method, terms, k, mode, avgdl, filt, k1, b,
                         search_after)

    def _filters_to_sets(self, filters):
        """(inclusion ids | None, exclusion ids | None) from context
        filter specs (("kw"/"kw_not", f, v|vs), ("range", f, lo, hi),
        ("exists"/"exists_not", f)) over this searcher's own parts —
        the scored-query twin of the ambient agg-context machinery:
        positives intersect into one inclusion set, negatives union
        into one exclusion set (score never sees either)."""
        filt = excl = None
        for spec in filters or ():
            kind = spec[0]
            if kind in ("kw", "kw_not"):
                v = (list(spec[2]) if isinstance(spec[2], (tuple, list))
                     else spec[2])
                ids = self._filter_ids(spec[1], v)
            elif kind == "range":
                ids = self._range_ids(spec[1], spec[2], spec[3])
            elif kind in ("exists", "exists_not"):
                ids = _exists_ctx_ids(self.index_dir, spec[1],
                                      self._local_parts)
            elif kind in ("kw_like", "kw_like_not"):
                ids = _like_ctx_ids(self.index_dir, spec[1], spec[2],
                                    self._local_parts)
            else:
                raise ValueError(f"unknown filter spec kind {kind!r}")
            if kind.endswith("_not"):
                excl = ids if excl is None else np.union1d(excl, ids)
            else:
                filt = ids if filt is None else \
                    np.intersect1d(filt, ids, assume_unique=True)
        return filt, excl

    @_routed(_plan_bool)
    def search_bool(self, must: list[str] | None = None,
                    should: list[str] | None = None,
                    must_not: list[str] | None = None,
                    field: str = "content", k: int = 10,
                    minimum_should_match: int | None = None,
                    filter_field: str | None = None,
                    filter_value: str | None = None,
                    range_field: str | None = None,
                    range_lo=None, range_hi=None,
                    filters=None,
                    analyzer: str | None = None,
                    k1: float = K1, b: float = B) -> list[tuple[float, int]]:
        """Boolean query (OpenSearch ``bool`` DSL parity — the
        reference's saved dashboard searches compose must/should/
        must_not term clauses): each list element is analyzed and every
        resulting token becomes one term clause of that occurrence
        type (BooleanQuery-of-TermQuery).  ``minimum_should_match``
        defaults to 0 when must clauses exist, else 1 (OpenSearch
        default).  must_not clauses exclude but never score."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        an = ANALYZERS[analyzer]
        must_t = [tok for s in (must or []) for tok in an(s)]
        should_t = [tok for s in (should or []) for tok in an(s)]
        mnot_t = [tok for s in (must_not or []) for tok in an(s)]
        if not must_t and not should_t:
            raise ValueError("bool query needs at least one scoring "
                             "(must/should) clause")
        msm = (minimum_should_match if minimum_should_match is not None
               else (0 if must_t else 1))
        rows = self._gather(field, must_t + should_t + mnot_t)
        avgdl = float(self.stats["avgdl"][field])
        n_docs = int(self.stats["n_docs"])
        must_td = (prepare_terms(must_t, rows, n_docs, avgdl, k1, b,
                                 idf_by_term=self._idf_overrides,
                                 exclude_ids=self.tombstones)
                   if must_t else [])
        should_td = (prepare_terms(should_t, rows, n_docs, avgdl, k1, b,
                                   idf_by_term=self._idf_overrides,
                                   exclude_ids=self.tombstones)
                     if should_t else [])
        mn_ids = None
        if mnot_t:
            mn_td = prepare_terms(mnot_t, rows, n_docs, avgdl, k1, b)
            live = [t.doc_ids for t in mn_td if t.doc_ids.size]
            if live:
                mn_ids = np.unique(np.concatenate(live))
        filt = None
        if filter_field is not None:
            filt = self._filter_ids(filter_field, filter_value)
        if range_field is not None:
            rids = self._range_ids(range_field, range_lo, range_hi)
            filt = rids if filt is None else \
                np.intersect1d(filt, rids, assume_unique=True)
        if filters:
            # full filter-spec list (multiple term/terms/range/exists,
            # each negatable) — the DSL bool's filter clauses
            f2, excl = self._filters_to_sets(filters)
            if f2 is not None:
                filt = f2 if filt is None else \
                    np.intersect1d(filt, f2, assume_unique=True)
            if excl is not None and excl.size:
                mn_ids = excl if mn_ids is None else \
                    np.union1d(mn_ids, excl)
        return score_bool(must_td, should_td, k, avgdl, msm, mn_ids,
                          filt, k1, b)

    @_routed(_plan_multi_match)
    def multi_match(self, query: str, fields: list[str], k: int = 10,
                    match_type: str = "best_fields",
                    tie_breaker: float = 0.0,
                    analyzer: str | None = None,
                    k1: float = K1, b: float = B,
                    _idf_by_field: dict | None = None
                    ) -> list[tuple[float, int]]:
        """OpenSearch ``multi_match``: the query text analyzed and
        scored independently per field, combined ``best_fields``
        (Lucene DisjunctionMaxQuery: max + tie_breaker * sum-of-rest)
        or ``most_fields`` (sum; :meth:`search_multi` is the older
        top-k-optimized most_fields path — this one trades its heap
        merge for exact full-set combination, which best_fields with
        tie_breaker requires).  Field boosts ride the OpenSearch
        ``"name^2.5"`` syntax.  Exactness needs the FULL per-field
        match sets (a doc outside one field's top-k can win combined),
        so each field is TAAT-scored completely and combined here —
        per doc shard with actors.  ``_idf_by_field`` injects global
        per-field idf on shard-local executions (the dfs round of
        dfs_query_then_fetch)."""
        if match_type not in ("best_fields", "most_fields",
                              "cross_fields", "phrase", "phrase_prefix"):
            raise ValueError(f"unsupported multi_match type: {match_type!r}")
        if match_type in ("phrase", "phrase_prefix"):
            # per-field phrase matching combined dis-max (max +
            # tie_breaker * rest — the multi_match phrase combine).
            # phrase: BM25-weighted (phrase_search_scored's Lucene
            # PhraseQuery shape); phrase_prefix ranks by phrase_tf
            # (the engine's match_phrase_prefix contract).  Exactness
            # needs FULL per-field phrase sets, which the phrase
            # machinery gathers and decodes itself.
            per_doc: dict[int, list[float]] = {}
            for spec in fields:
                name, _, boost_s = spec.partition("^")
                boost = float(boost_s) if boost_s else 1.0
                if match_type == "phrase":
                    hits = self.phrase_search_scored(
                        query, field=name, k=1 << 31,
                        analyzer=analyzer, k1=k1, b=b)
                else:
                    hits = self.match_phrase_prefix(
                        query, field=name, k=1 << 31, analyzer=analyzer)
                for sc, d in hits:
                    per_doc.setdefault(int(d), []).append(
                        boost * float(sc))
            combined = []
            for d, ss in per_doc.items():
                mx = max(ss)
                combined.append(
                    (float(mx + tie_breaker * (sum(ss) - mx)), d))
            combined.sort(key=lambda t: (-t[0], t[1]))
            return combined[:k]
        if match_type == "cross_fields":
            return self._multi_match_cross(query, fields, k, tie_breaker,
                                           analyzer, k1, b, _idf_by_field)
        n_docs = int(self.stats["n_docs"])
        per_doc: dict[int, list[float]] = {}
        for spec in fields:
            name, _, boost_s = spec.partition("^")
            boost = float(boost_s) if boost_s else 1.0
            an = self._analyzer_for(name, analyzer)
            q_terms = ANALYZERS[an](query)
            if not q_terms:
                continue
            rows = self._gather(name, q_terms)
            avgdl = float(self.stats["avgdl"][name])
            idf = (_idf_by_field or {}).get(name, self._idf_overrides)
            terms = prepare_terms(q_terms, rows, n_docs, avgdl, k1, b,
                                  idf_by_term=idf,
                                  exclude_ids=self.tombstones)
            for s, d in score_taat(terms, 1 << 31, "or", avgdl, None,
                                   k1, b):
                per_doc.setdefault(d, []).append(boost * s)
        combined: list[tuple[float, int]] = []
        for d, ss in per_doc.items():
            if match_type == "most_fields":
                sc = float(sum(ss))
            else:
                mx = max(ss)
                sc = float(mx + tie_breaker * (sum(ss) - mx))
            combined.append((sc, d))
        combined.sort(key=lambda t: (-t[0], t[1]))
        return combined[:k]

    def _multi_match_cross(self, query: str, fields: list[str], k: int,
                           tie_breaker: float, analyzer: str | None,
                           k1: float, b: float,
                           _idf_by_field: dict | None = None
                           ) -> list[tuple[float, int]]:
        """``multi_match`` type ``cross_fields`` — TERM-centric (Lucene
        BlendedTermQuery): each query term's occurrences across the
        fields behave as ONE pseudo-term with a BLENDED df (the max
        across fields, so a term common in any field is cheap in all),
        per-term score = best field's contribution + tie_breaker x the
        rest, doc score = sum over terms.  Contrast best/most_fields,
        which combine per-FIELD totals.  OpenSearch groups cross_fields
        by analyzer; here the first field's analyzer tokenizes (the
        fixture fields share one, the common case).  On shard-local
        executions ``_idf_by_field`` carries the driver-blended idf."""
        if not fields:
            return []
        n_docs = int(self.stats["n_docs"])
        specs = []
        for spec in fields:
            name, _, boost_s = spec.partition("^")
            specs.append((name, float(boost_s) if boost_s else 1.0))
        an0 = self._analyzer_for(specs[0][0], analyzer)
        q_terms = ANALYZERS[an0](query)
        uniq_terms = list(dict.fromkeys(q_terms))
        if not uniq_terms:
            return []
        if _idf_by_field is not None:
            # the driver already blended; every field carries the same dict
            idf_t = next(iter(_idf_by_field.values()))
        else:
            per_field = {n: self._term_dfs(n, uniq_terms)
                         for n in {n for n, _ in specs}}
            idf_t = {t: float(idf_fn(
                max(d.get(t, 0) for d in per_field.values()), n_docs))
                for t in uniq_terms}
        field_terms = []
        for name, boost in specs:
            rows = self._gather(name, q_terms)
            avgdl = float(self.stats["avgdl"][name])
            terms = prepare_terms(q_terms, rows, n_docs, avgdl, k1, b,
                                  idf_by_term=idf_t,
                                  exclude_ids=self.tombstones)
            field_terms.append((terms, avgdl, boost))
        totals: dict[int, float] = {}
        for j in range(len(uniq_terms)):
            ids_l, sc_l = [], []
            for terms, avgdl, boost in field_terms:
                td = terms[j]
                if td.doc_ids.size == 0:
                    continue
                contrib = boost * td.weight * td.idf * \
                    tf_norm(td.tfs, td.lens, avgdl, k1, b)
                ids_l.append(td.doc_ids)
                sc_l.append(contrib)
            if not ids_l:
                continue
            ids = np.concatenate(ids_l)
            sc = np.concatenate(sc_l)
            uniq, inv = np.unique(ids, return_inverse=True)
            ssum = np.zeros(uniq.size)
            np.add.at(ssum, inv, sc)
            smax = np.zeros(uniq.size)
            np.maximum.at(smax, inv, sc)
            cross = smax + tie_breaker * (ssum - smax)
            for d, s in zip(uniq.tolist(), cross.tolist()):
                totals[d] = totals.get(d, 0.0) + s
        combined = sorted(((s, int(d)) for d, s in totals.items()),
                          key=lambda t: (-t[0], t[1]))
        return combined[:k]

    @staticmethod
    def _cf_specs(fields: list[str]) -> list[tuple[str, float]]:
        specs = []
        for spec in fields:
            name, _, boost_s = spec.partition("^")
            w = float(boost_s) if boost_s else 1.0
            if w < 1.0:
                raise ValueError("combined_fields field weights must be "
                                 ">= 1 (OpenSearch contract)")
            specs.append((name, w))
        return specs

    @_routed(_plan_combined)
    def combined_fields(self, query: str, fields: list[str], k: int = 10,
                        analyzer: str | None = None,
                        k1: float = K1, b: float = B,
                        _idf_override: dict[str, float] | None = None
                        ) -> list[tuple[float, int]]:
        """OpenSearch ``combined_fields`` (Lucene CombinedFieldQuery —
        BM25F): the fields behave as ONE combined field.  Per term,
        tf' = sum_f w_f*tf_f; per doc, dl' = sum_f w_f*dl_quant_f
        using EVERY field's quantized length whether or not the term
        occurs there (the ``__dl`` sidecar — requires an index built
        with ``store_doclens=True``); avgdl' = sum_f w_f*avgdl_f;
        df' = the term's UNION doc frequency across fields over live
        docs (exact — Lucene blends per-field stats instead, a
        documented deviation); score = sum over distinct terms of
        idf(df') * BM25(tf', dl', avgdl').  Field weights (``"f^w"``)
        must be >= 1; duplicate query terms dedup (the q-CTE oracle
        convention).  ``_idf_override`` carries the globally-summed
        union-df idf on shard-local executions."""
        from ..norms import decode_norm, encode_norm
        specs = self._cf_specs(fields)
        if not specs:
            return []
        an0 = self._analyzer_for(specs[0][0], analyzer)
        uniq = list(dict.fromkeys(ANALYZERS[an0](query)))
        if not uniq:
            return []
        n_docs = int(self.stats["n_docs"])
        avgdl_c = float(sum(w * float(self.stats["avgdl"][n])
                            for n, w in specs))
        ones = {t: 1.0 for t in uniq}
        field_terms = {}
        for name, _w in specs:
            rows = self._gather(name, uniq)
            field_terms[name] = prepare_terms(
                uniq, rows, n_docs, avgdl_c, k1, b, idf_by_term=ones,
                exclude_ids=self.tombstones)
        # weighted quantized per-doc lengths per field (same SmallFloat
        # round-trip the posting norms carry)
        dl_tab = []
        for name, w in specs:
            ids_s, raw = self._doclens(name)
            dl_tab.append((ids_s,
                           decode_norm(encode_norm(raw)).astype(
                               np.float64) * w))
        score_ids: list[np.ndarray] = []
        score_vals: list[np.ndarray] = []
        for j, t in enumerate(uniq):
            ids_l, tf_l = [], []
            for name, w in specs:
                td = field_terms[name][j]
                if td.doc_ids.size:
                    ids_l.append(td.doc_ids.astype(np.int64))
                    tf_l.append(td.tfs.astype(np.float64) * w)
            if not ids_l:
                continue
            ids = np.concatenate(ids_l)
            tfv = np.concatenate(tf_l)
            u, inv = np.unique(ids, return_inverse=True)
            tfc = np.zeros(u.size)
            np.add.at(tfc, inv, tfv)
            idf = (float(_idf_override[t]) if _idf_override is not None
                   else float(idf_fn(int(u.size), n_docs)))
            dlc = np.zeros(u.size)
            for ids_s, qw in dl_tab:
                pos = np.searchsorted(ids_s, u)
                pos_c = np.minimum(pos, max(ids_s.size - 1, 0))
                ok = (pos < ids_s.size) & (ids_s[pos_c] == u) \
                    if ids_s.size else np.zeros(u.size, bool)
                dlc[ok] += qw[pos_c[ok]]
            score_ids.append(u)
            score_vals.append(
                idf * tfc * (k1 + 1.0)
                / (tfc + k1 * (1.0 - b + b * dlc / avgdl_c)))
        if not score_ids:
            return []
        ids = np.concatenate(score_ids)
        vals = np.concatenate(score_vals)
        u, inv = np.unique(ids, return_inverse=True)
        tot = np.zeros(u.size)
        np.add.at(tot, inv, vals)
        order = np.lexsort((u, -tot))[:k]
        return [(float(tot[i]), int(u[i])) for i in order]

    def combined_union_df(self, terms: list[str], fields: list[str]
                          ) -> dict[str, int]:
        """Per-term UNION doc frequency across ``fields`` over this
        searcher's live doc slice — additive across doc shards (they
        partition the corpus), so shard partials sum exactly."""
        names = list(dict.fromkeys(s.partition("^")[0] for s in fields))
        uniq = list(dict.fromkeys(terms))
        ones = {t: 1.0 for t in uniq}
        per = {n: prepare_terms(uniq, self._gather(n, uniq), 1, 1.0,
                                idf_by_term=ones,
                                exclude_ids=self.tombstones)
               for n in names}
        out: dict[str, int] = {}
        for j, t in enumerate(uniq):
            sets = [per[n][j].doc_ids for n in names
                    if per[n][j].doc_ids.size]
            out[t] = (int(np.unique(np.concatenate(sets)).size)
                      if sets else 0)
        return out

    def _term_dfs(self, field: str, terms: list[str]) -> dict[str, int]:
        """Global df per term (sums across parts — every doc shard
        holds a slice of the term's postings).  Only (term, count)
        pairs travel, and a bounded per-searcher cache makes repeat
        terms free (df is immutable for a given index state — the same
        staleness
        contract as _rows_cache; OpenSearch likewise caches per-shard
        term statistics), so a warm doc-sharded query pays ONE scatter
        round, not two."""
        cache = self._df_cache
        missing = [t for t in dict.fromkeys(terms)
                   if (field, t) not in cache]
        if missing:
            got: dict[str, int] = {}
            for d in self._scatter(_grp_dfs, field, missing):
                _add_counts(got, d)
            for t in missing:
                if len(cache) < 65536:
                    cache[(field, t)] = got.get(t, 0)
        else:
            got = {}
        out: dict[str, int] = {}
        for t in dict.fromkeys(terms):
            n = cache.get((field, t))
            if n is None:                 # cache full: serve this call
                n = got.get(t, 0)
            if n:
                out[t] = n
        return out

    def fetch_docs(self, doc_ids, columns: list[str] | None = None):
        """Stored-document lookup from the doc-range-partitioned
        docstore (OpenSearch GET _doc / mget): returns a pyarrow
        Table with one row per found LIVE id.  Parquet row-group
        filters prune parts; tombstoned ids are excluded."""
        import os as _os
        import pyarrow as _pa
        import pyarrow.parquet as _pq
        ids = sorted({int(i) for i in doc_ids})
        if self.tombstones.size:
            keep = ~np.isin(np.asarray(ids, np.uint64), self.tombstones)
            ids = [i for i, k_ in zip(ids, keep) if k_]
        if not ids:
            return None
        dsdir = _os.path.join(self.index_dir, "docstore")
        tables = []
        for fn in sorted(_os.listdir(dsdir)):
            if not fn.endswith(".parquet"):
                continue
            t = _pq.read_table(_os.path.join(dsdir, fn), columns=columns,
                               filters=[("doc_id", "in", ids)])
            if t.num_rows:
                tables.append(t)
        if not tables:
            return None
        return _pa.concat_tables(tables)

    def term_vectors(self, doc_id: int, field: str = "content",
                     analyzer: str | None = None
                     ) -> list[tuple[str, int, int]]:
        """OpenSearch ``_termvectors`` (realtime semantics: computed
        from ``_source`` at request time — requires an index built
        with ``store_source=True``): fetch the doc, re-analyze with
        the field's positional analyzer, return
        ``[(term, term_freq, first_position)]`` sorted by term.
        One docstore point-read; nothing else moves."""
        if not self.manifest["config"].get("store_source"):
            raise ValueError("term_vectors requires an index built with "
                             "store_source=True (no _source stored)")
        src_col = self.manifest["config"].get("sha_col", "content")
        tbl = self.fetch_docs([int(doc_id)], columns=["doc_id", src_col])
        if tbl is None or tbl.num_rows == 0:
            return []
        text = tbl.column(src_col)[0].as_py() or ""
        an = POSITIONAL_ANALYZERS[self._analyzer_for(field, analyzer)]
        toks, poss = an(text)
        stats: dict[str, tuple[int, int]] = {}
        for t, p in zip(toks, poss):
            tf, first = stats.get(t, (0, int(p)))
            stats[t] = (tf + 1, min(first, int(p)))
        return [(t, tf, first) for t, (tf, first) in sorted(stats.items())]

    def multi_term_vectors(self, doc_ids: list[int],
                           field: str = "content",
                           analyzer: str | None = None
                           ) -> dict[int, list[tuple[str, int, int]]]:
        """OpenSearch ``_mtermvectors``: term vectors for MANY docs
        with ONE batched docstore read (the point of the API —
        _termvectors in a loop pays one point-read per id).  Missing
        ids are absent from the result dict."""
        if not self.manifest["config"].get("store_source"):
            raise ValueError("term_vectors requires an index built with "
                             "store_source=True (no _source stored)")
        src_col = self.manifest["config"].get("sha_col", "content")
        tbl = self.fetch_docs([int(d) for d in doc_ids],
                              columns=["doc_id", src_col])
        if tbl is None or tbl.num_rows == 0:
            return {}
        an = POSITIONAL_ANALYZERS[self._analyzer_for(field, analyzer)]
        out: dict[int, list[tuple[str, int, int]]] = {}
        for did, text in zip(tbl.column("doc_id").to_pylist(),
                             tbl.column(src_col).to_pylist()):
            toks, poss = an(text or "")
            stats: dict[str, tuple[int, int]] = {}
            for t, pp in zip(toks, poss):
                tf, first = stats.get(t, (0, int(pp)))
                stats[t] = (tf + 1, min(first, int(pp)))
            out[int(did)] = [(t, tf, first)
                             for t, (tf, first) in sorted(stats.items())]
        return out

    def match_count(self, query: str, field: str = "content",
                    mode: str = "or", analyzer: str | None = None) -> int:
        """OpenSearch ``_count`` for a match query: the match-set size,
        never the matches.  With actors: per-shard local
        counts (one int per shard) summed here — match ids never leave
        their shard; otherwise one driver-side set-algebra pass."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return 0
        return sum(self._scatter(_grp_count, field, q_terms, mode))

    def _doclens(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted doc_ids int64, raw dl int64) for ``field`` from the
        ``__dl_<field>`` docstore sidecar (store_doclens=True builds),
        restricted to this searcher's local doc parts — the Lucene
        norms-in-RAM equivalent (8 B/doc/field per shard), loaded once
        and cached.  First-wins on duplicate ids (generations)."""
        cached = self._doclen_cache.get(field)
        if cached is not None:
            return cached
        import os as _os
        import pyarrow.parquet as _pq
        from .shard import match_part_files
        col = f"__dl_{field}"
        dsdir = _os.path.join(self.index_dir, "docstore")
        names = sorted(f for f in _os.listdir(dsdir)
                       if f.endswith(".parquet"))
        if self._local_parts is not None:
            names = match_part_files(names, self._local_parts)
        ids_l, dl_l = [], []
        for fn in names:
            path = _os.path.join(dsdir, fn)
            if col not in _pq.read_schema(path).names:
                raise ValueError(
                    f"no per-doc length sidecar for field {field!r} — "
                    "build the index with store_doclens=True")
            t = _pq.read_table(path, columns=["doc_id", col])
            ids_l.append(t.column("doc_id").to_numpy(zero_copy_only=False))
            dl_l.append(t.column(col).to_numpy(zero_copy_only=False))
        ids = (np.concatenate(ids_l) if ids_l
               else np.zeros(0, np.int64)).astype(np.int64)
        dls = (np.concatenate(dl_l) if dl_l
               else np.zeros(0, np.int64)).astype(np.int64)
        o = np.argsort(ids, kind="stable")
        ids, dls = ids[o], dls[o]
        if ids.size:
            keep = np.ones(ids.size, dtype=bool)
            keep[1:] = ids[1:] != ids[:-1]
            ids, dls = ids[keep], dls[keep]
        self._doclen_cache[field] = (ids, dls)
        return ids, dls

    def _rescore_local(self, doc_ids: list[int], query: str,
                       field: str, idf: dict,
                       k1: float = K1, b: float = B
                       ) -> list[tuple[int, float]]:
        """Secondary-query BM25 contributions for exactly ``doc_ids``
        over this searcher's postings slice — global idf arrives in
        ``idf``.  Only (doc_id, score) pairs for window docs return."""
        an = ANALYZERS[self._analyzer_for(field, None)]
        q_terms = an(query)
        if not q_terms or not doc_ids:
            return []
        want = np.asarray(sorted({int(d) for d in doc_ids}), np.uint64)
        rows = self._gather(field, q_terms)
        avgdl = float(self.stats["avgdl"][field])
        n_docs = int(self.stats["n_docs"])
        terms = prepare_terms(q_terms, rows, n_docs, avgdl, k1, b,
                              idf_by_term=idf,
                              exclude_ids=self.tombstones)
        out: dict[int, float] = {}
        for td in terms:
            if td.doc_ids.size == 0:
                continue
            pos = np.minimum(np.searchsorted(want, td.doc_ids),
                             max(want.size - 1, 0))
            hit = (want[pos] == td.doc_ids) if want.size else \
                np.zeros(td.doc_ids.size, dtype=bool)
            if not hit.any():
                continue
            contrib = td.weight * td.idf * tf_norm(
                td.tfs[hit], td.lens[hit], avgdl, k1, b)
            for d, c in zip(td.doc_ids[hit].tolist(), contrib.tolist()):
                out[int(d)] = out.get(int(d), 0.0) + float(c)
        return list(out.items())

    def rescore_search(self, query: str, rescore_query: str,
                       k: int = 10, window_size: int = 50,
                       query_weight: float = 1.0,
                       rescore_query_weight: float = 1.0,
                       field: str = "content", mode: str = "or",
                       analyzer: str | None = None,
                       k1: float = K1, b: float = B
                       ) -> list[tuple[float, int]]:
        """OpenSearch ``rescore`` (score_mode=total): the primary
        query's GLOBAL top ``window_size`` hits are re-ranked by
        ``query_weight * primary + rescore_query_weight * secondary``,
        where the secondary BM25 runs ONLY on the window docs.  With
        actors each shard scores the secondary for the window ids
        against its own postings (global idf from one (term, df)
        round) — window ids travel, postings never do."""
        primary = self.search(query, field=field, k=window_size,
                              mode=mode, analyzer=analyzer, k1=k1, b=b)
        if not primary:
            return []
        win = [d for _, d in primary]
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        sec_terms = list(dict.fromkeys(an(rescore_query)))
        n_docs = int(self.stats["n_docs"])
        dfs = self._term_dfs(field, sec_terms) if sec_terms else {}
        idf = {t: float(idf_fn(dfs.get(t, 0), n_docs)) for t in sec_terms}
        parts = self._scatter(
            _run_method, "_rescore_local",
            dict(doc_ids=win, query=rescore_query, field=field, idf=idf,
                 k1=k1, b=b))
        sec = {d: c for p in parts for d, c in p}
        combined = [(query_weight * sc
                     + rescore_query_weight * sec.get(int(d), 0.0),
                     int(d)) for sc, d in primary]
        combined.sort(key=lambda t: (-t[0], t[1]))
        return combined[:int(k)]

    def _vectors(self, field: str
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids int64, float64 matrix, row L2 norms) from the
        ``vec_<field>`` docstore sidecar (vector_fields builds),
        restricted to this searcher's local doc parts — loaded once
        per shard and cached (the vector analogue of Lucene's
        doc-values-in-RAM).  Docs with empty/missing vectors are
        skipped; float32 storage upcasts to float64 once so the
        cosine kernel matches the SQL oracle's DOUBLE math."""
        cached = self._doclen_cache.get(("__vec__", field))
        if cached is not None:
            return cached
        import os as _os
        import pyarrow.parquet as _pq
        from .shard import match_part_files
        col = f"vec_{field}"
        dsdir = _os.path.join(self.index_dir, "docstore")
        names = sorted(f for f in _os.listdir(dsdir)
                       if f.endswith(".parquet"))
        if self._local_parts is not None:
            names = match_part_files(names, self._local_parts)
        ids_l, vec_l = [], []
        for fn in names:
            path = _os.path.join(dsdir, fn)
            if col not in _pq.read_schema(path).names:
                raise ValueError(
                    f"no vector sidecar for field {field!r} — build the "
                    "index with vector_fields=(...)")
            t = _pq.read_table(path, columns=["doc_id", col])
            for i, b in zip(t.column("doc_id").to_pylist(),
                            t.column(col).to_pylist()):
                if b:
                    ids_l.append(int(i))
                    vec_l.append(np.frombuffer(b, np.float32))
        if not ids_l:
            out = (np.zeros(0, np.int64), np.zeros((0, 0)),
                   np.zeros(0))
        else:
            ids = np.asarray(ids_l, np.int64)
            mat = np.stack(vec_l).astype(np.float64)
            o = np.argsort(ids, kind="stable")
            ids, mat = ids[o], mat[o]
            keep = np.ones(ids.size, dtype=bool)
            keep[1:] = ids[1:] != ids[:-1]
            ids, mat = ids[keep], mat[keep]
            out = (ids, mat, np.linalg.norm(mat, axis=1))
        self._doclen_cache[("__vec__", field)] = out
        return out

    @_routed(_no_dfs)
    def knn_search(self, field: str, query_vec, k: int = 10
                   ) -> list[tuple[float, int]]:
        """Exact kNN over the index's vector sidecar (the OpenSearch
        knn plugin's exact mode): per doc shard, one matvec over the
        shard's own cached vectors and a local top-k; the driver
        merges P*k (cosine, doc_id) rows.  Bucketed/ANN variants live
        in stages/knn.py (LSH, IVF) — this is the in-index exact
        path.  Requires an index built with vector_fields."""
        ids, mat, norms = self._vectors(field)
        if ids.size == 0:
            return []
        if self.tombstones.size:
            keep = _excl_mask(ids.astype(np.uint64), self.tombstones)
            ids, mat, norms = ids[keep], mat[keep], norms[keep]
            if ids.size == 0:
                return []
        q = np.asarray(query_vec, np.float64)
        qn = float(np.linalg.norm(q))
        denom = norms * qn
        denom[denom == 0.0] = np.inf
        sims = (mat @ q) / denom
        kk = min(int(k), ids.size)
        sel = np.lexsort((ids, -sims))[:kk]
        return [(float(sims[i]), int(ids[i])) for i in sel]

    def highlight(self, query: str, field: str = "content", k: int = 10,
                  window: int = 8, pre_tag: str = "<em>",
                  post_tag: str = "</em>", mode: str = "or",
                  method: str = "auto", analyzer: str | None = None
                  ) -> list[tuple[float, int, str]]:
        """OpenSearch ``highlight`` (plain highlighter) over a match
        query: run the ranked query, fetch each hit's stored
        ``_source`` from the docstore (requires an index built with
        ``store_source=True``), re-analyze it with the field's
        analyzer — the plain highlighter's own strategy (it re-runs
        the analyzer over _source text) — and emit ONE fragment per
        hit: the ``window``-token neighbourhood each side of the
        FIRST query-term occurrence, every matched token wrapped in
        ``pre_tag``/``post_tag``.  Fragments are normalized token
        text joined by single spaces (the analyzer does not preserve
        original offsets; documented deviation from char-offset
        fragments; ``pipelines/search.highlight`` is the
        char-offset sibling that fetches from the source-of-record
        parquet instead of the docstore).  Per-hit work is O(k) docs —
        highlighting is inherently a per-hit presentation step
        (OpenSearch does the same on the fetch phase), so the only
        distributed cost is the docstore fetch, which prunes parts by
        doc_id row-group filters.  Returns ``[(score, doc_id, fragment)]`` in rank
        order; an empty fragment means no query term survived
        re-analysis (cannot happen for OR/AND matches of the same
        field).  Cites: reference users read highlights in Discover /
        dashboards; es_loader stores ``_source`` for every doc
        (reference source/lambda/es_loader/index.py bulk body)."""
        hits = self.search(query, field=field, k=k, mode=mode,
                           method=method, analyzer=analyzer)
        if not hits:
            return []
        if not self.manifest["config"].get("store_source"):
            raise ValueError("highlight requires an index built with "
                             "store_source=True (no _source stored)")
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        qset = set(an(query))
        src_col = self.manifest["config"].get("sha_col", "content")
        tbl = self.fetch_docs([d for _, d in hits],
                              columns=["doc_id", src_col])
        texts: dict[int, str] = {}
        if tbl is not None:
            for i, t in zip(tbl.column("doc_id").to_pylist(),
                            tbl.column(src_col).to_pylist()):
                texts[int(i)] = t or ""
        out: list[tuple[float, int, str]] = []
        for score, d, frags in self._fragments(hits, texts, an, qset,
                                               window, pre_tag,
                                               post_tag, 1):
            out.append((score, d, frags[0] if frags else ""))
        return out

    @staticmethod
    def _fragments(hits, texts, an, qset, window, pre_tag, post_tag,
                   num_fragments):
        """Up to ``num_fragments`` NON-OVERLAPPING window-token
        fragments per hit, one around each successive query-term
        occurrence past the previous fragment's end (the plain
        highlighter's multi-fragment behavior)."""
        out = []
        for score, d in hits:
            toks = an(texts.get(int(d), ""))
            frags: list[str] = []
            i = 0
            while len(frags) < num_fragments and i < len(toks):
                fp = next((j for j in range(i, len(toks))
                           if toks[j] in qset), None)
                if fp is None:
                    break
                lo, hi = max(0, fp - window), fp + window + 1
                frags.append(" ".join(
                    pre_tag + t + post_tag if t in qset else t
                    for t in toks[lo:hi]))
                i = hi
            out.append((score, int(d), frags))
        return out

    def highlight_fragments(self, query: str, field: str = "content",
                            k: int = 10, window: int = 8,
                            pre_tag: str = "<em>",
                            post_tag: str = "</em>", mode: str = "or",
                            num_fragments: int = 3,
                            analyzer: str | None = None
                            ) -> list[tuple[float, int, list[str]]]:
        """:meth:`highlight` returning up to ``num_fragments``
        non-overlapping fragments per hit (OpenSearch
        ``number_of_fragments``) — [(score, doc_id, [fragment, ...])]
        in rank order."""
        hits = self.search(query, field=field, k=k, mode=mode,
                           analyzer=analyzer)
        if not hits:
            return []
        if not self.manifest["config"].get("store_source"):
            raise ValueError("highlight requires an index built with "
                             "store_source=True (no _source stored)")
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        qset = set(an(query))
        src_col = self.manifest["config"].get("sha_col", "content")
        tbl = self.fetch_docs([d for _, d in hits],
                              columns=["doc_id", src_col])
        texts: dict[int, str] = {}
        if tbl is not None:
            for i, t in zip(tbl.column("doc_id").to_pylist(),
                            tbl.column(src_col).to_pylist()):
                texts[int(i)] = t or ""
        return self._fragments(hits, texts, an, qset, window, pre_tag,
                               post_tag, num_fragments)

    def field_sorted_search(self, sort_field: str, k: int = 500,
                            desc: bool = True, query: str = "",
                            field: str = "content", mode: str = "or",
                            filter_field: str | None = None,
                            filter_value: str | None = None,
                            analyzer: str | None = None,
                            after: tuple | None = None
                            ) -> list[tuple]:
        """Field-sorted top-k over the (optionally filtered) match set
        — Discover's execution shape (saved searches: kuery filter +
        ``@timestamp`` desc + page fetch; the reference ships one such
        saved search with every dashboard,
        source/saved_objects/each-dashboard/*.ndjson).  Returns
        [(sort_value, doc_id)] under (value desc|asc, doc_id asc).

        The sort values come from the doc-range-partitioned range
        tables, which are value-sorted per part — so each part's local
        top-k is a boundary bisect + two slices (no sort), and with
        actors each shard ships exactly k rows (``_grp_sort``).
        Match-all (empty query, no filter) walks no postings at all.
        Docs missing the sort field are omitted.

        ``after=(last_value, last_doc_id)`` resumes STRICTLY after the
        cursor (OpenSearch search_after on a field sort): each shard
        bisects to the cursor position in its value-sorted range
        tables, so deep pages cost the same as page 1 and still only
        k rows travel per shard."""
        q_terms: list[str] | None = None
        if query:
            an = ANALYZERS[self._analyzer_for(field, analyzer)]
            q_terms = an(query)
            if not q_terms:
                return []
        cands = [t for loc in self._scatter(
            _grp_sort, sort_field, k, desc, field, q_terms, mode,
            filter_field, filter_value, after) for t in loc]
        cands.sort(key=(lambda t: (-t[0], t[1])) if desc
                   else (lambda t: (t[0], t[1])))
        return cands[:k]

    def more_like_this(self, like_text: str | None = None,
                       doc_id: int | None = None, field: str = "content",
                       k: int = 10, max_query_terms: int = 25,
                       min_term_freq: int = 1, min_doc_freq: int = 2,
                       max_doc_freq: int | None = None,
                       minimum_should_match: float | int = 0.3,
                       analyzer: str | None = None,
                       k1: float = K1, b: float = B
                       ) -> list[tuple[float, int]]:
        """OpenSearch ``more_like_this``: ``like`` may be free text
        (``like_text``) and/or a stored document (``doc_id`` — needs
        the index built with ``store_source=True`` for the content
        field, or the field's column kept in the docstore; the input
        doc itself is excluded from the hits, OpenSearch
        ``include: false`` default).  Analyze the input, keep terms
        with tf >= min_term_freq and df within
        [min_doc_freq, max_doc_freq], rank by interest = tf * idf
        (the Lucene MLT term-selection heuristic with our BM25 idf),
        keep the top ``max_query_terms`` by (interest desc, term asc),
        then run the disjunction as a bool/should query.  A fractional
        ``minimum_should_match`` means that share of the SELECTED
        terms, floored (Lucene percentage msm), minimum 1.

        Scale note: term selection costs one (term, df) exchange with
        the shard actors — postings only travel for the final scored
        disjunction."""
        chosen, msm, exclude = self._mlt_select(
            like_text, doc_id, field, max_query_terms, min_term_freq,
            min_doc_freq, max_doc_freq, minimum_should_match, analyzer)
        if not chosen:
            return []
        hits = self.search_bool(should=chosen, field=field,
                                k=k + (1 if exclude is not None else 0),
                                minimum_should_match=max(msm, 1),
                                analyzer=analyzer, k1=k1, b=b)
        if exclude is not None:
            hits = [(s, d) for s, d in hits if d != exclude][:k]
        return hits

    def _mlt_select(self, like_text, doc_id, field, max_query_terms,
                    min_term_freq, min_doc_freq, max_doc_freq,
                    minimum_should_match, analyzer
                    ) -> tuple[list[str], int, int | None]:
        """MLT term selection (shared by the driver and doc-sharded
        execution paths): analyze the liked input, rank
        candidate terms by tf * GLOBAL idf, keep the top
        max_query_terms -> (chosen terms, resolved msm, excluded id)."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        exclude: int | None = None
        if doc_id is not None:
            col = next((c for f, c, _ in self.manifest["config"]["fields"]
                        if f == field), None)
            if col is None:
                raise ValueError(f"field {field!r} is not indexed")
            tbl = self.fetch_docs([int(doc_id)], columns=[col])
            if tbl is None or tbl.num_rows == 0:
                return [], 0, None
            v = tbl.column(col)[0].as_py()
            if not v:
                return [], 0, None
            like_text = v if like_text is None else f"{like_text} {v}"
            exclude = int(doc_id)
        elif like_text is None:
            raise ValueError("more_like_this needs like_text or doc_id")
        toks = ANALYZERS[analyzer](like_text)
        if not toks:
            return [], 0, None
        tfs = Counter(toks)
        cand = sorted(t for t, n in tfs.items() if n >= min_term_freq)
        if not cand:
            return [], 0, None
        dfs = self._term_dfs(field, cand)
        n_docs = int(self.stats["n_docs"])
        sel: list[tuple[float, str]] = []
        for t in cand:
            df = dfs.get(t, 0)
            if df < min_doc_freq:
                continue
            if max_doc_freq is not None and df > max_doc_freq:
                continue
            sel.append((tfs[t] * float(idf_fn(df, n_docs)), t))
        if not sel:
            return [], 0, None
        sel.sort(key=lambda it: (-it[0], it[1]))
        chosen = [t for _, t in sel[:max_query_terms]]
        if isinstance(minimum_should_match, float) \
                and 0 < minimum_should_match < 1:
            msm = int(minimum_should_match * len(chosen))
        else:
            msm = int(minimum_should_match)
        return chosen, msm, exclude

    def _group_arrays(self, tds: list[TermData], avgdl: float,
                      k1: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """(sorted doc ids, aligned summed BM25 contributions) for a
        clause GROUP — a doc matches the group when any member term
        matches; matched members' scores sum (Lucene sub-boolean with
        default OR)."""
        live = [t for t in tds if t.doc_ids.size]
        if not live:
            return np.zeros(0, np.uint64), np.zeros(0)
        docs = np.concatenate([t.doc_ids for t in live])
        contribs = np.concatenate([
            t.weight * t.idf * tf_norm(t.tfs, t.lens, avgdl, k1, b)
            for t in live])
        uniq, inv = np.unique(docs, return_inverse=True)
        return uniq, np.bincount(inv, weights=contribs, minlength=uniq.size)

    @_routed(_plan_query_string)
    def query_string(self, qs: str, field: str = "content", k: int = 10,
                     max_expansions: int = 1024,
                     analyzer: str | None = None,
                     k1: float = K1, b: float = B,
                     parser: str = "qs"
                     ) -> list[tuple[float, int]]:
        """Execute a query-string expression (OpenSearch query_string /
        KQL subset — the reference's dashboard search box; grammar and
        semantics in ``state.querystring``): term / prefix / wildcard /
        fuzzy clauses score, quoted phrases and ``field:value`` /
        ``field:[lo TO hi]`` constrain.  AND/NOT/+/- set occurrence;
        with no MUST clause at least one SHOULD clause must match.
        ``parser="simple_or"/"simple_and"`` swaps in the TOLERANT
        simple_query_string grammar (never raises; the suffix names
        the default_operator)."""
        from .querystring import (MUST, MUST_NOT, SHOULD,
                                  parse_query_string,
                                  parse_simple_query_string)
        if parser == "qs":
            parsed = parse_query_string(qs)
        else:
            parsed = parse_simple_query_string(
                qs, "and" if parser == "simple_and" else "or")
            if not parsed.clauses:
                return []
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        an = ANALYZERS[analyzer]
        avgdl = float(self.stats["avgdl"][field])
        n_docs = int(self.stats["n_docs"])

        def clause_terms(c) -> list[str]:
            if c.kind == "term":
                return an(c.text)
            if c.kind == "prefix":
                return self.expand_terms(c.text.lower(), field, "prefix",
                                         max_expansions)
            if c.kind == "wildcard":
                return self.expand_terms(c.text.lower(), field, "wildcard",
                                         max_expansions)
            if c.kind == "fuzzy":
                return self.expand_terms(c.text.lower(), field, "fuzzy",
                                         max_expansions,
                                         fuzziness=c.fuzziness)
            raise AssertionError(c.kind)

        scoring = [c for c in parsed.clauses if c.kind != "phrase"]
        phrases = [c for c in parsed.clauses if c.kind == "phrase"]
        terms_by_clause = [clause_terms(c) for c in scoring]
        all_terms = [t for ts in terms_by_clause for t in ts]
        rows = self._gather(field, all_terms) if all_terms else {}
        groups: list[tuple[str, np.ndarray, np.ndarray]] = []
        for c, ts in zip(scoring, terms_by_clause):
            if not ts:
                ids, sc = np.zeros(0, np.uint64), np.zeros(0)
            else:
                tds = prepare_terms(ts, rows, n_docs, avgdl, k1, b,
                                    idf_by_term=self._idf_overrides,
                                    exclude_ids=self.tombstones)
                ids, sc = self._group_arrays(tds, avgdl, k1, b)
            groups.append((c.occur, ids, sc))
        # phrase clauses: filter-context doc-id sets
        must_sets: list[np.ndarray] = []
        mn_sets: list[np.ndarray] = []
        for c in phrases:
            _, _, matches = self._phrase_candidates(c.text, field, analyzer,
                                                 c.slop)
            ids = np.sort(np.array(list(matches), dtype=np.uint64))
            (mn_sets if c.occur == MUST_NOT else must_sets).append(ids)
        # candidate base
        must_groups = [(ids, sc) for o, ids, sc in groups if o == MUST]
        should_groups = [(ids, sc) for o, ids, sc in groups if o == SHOULD]
        for o, ids, _ in groups:
            if o == MUST_NOT:
                mn_sets.append(ids)
        base: np.ndarray | None = None
        for ids, _ in must_groups:
            base = ids if base is None else _intersect_sorted(base, ids)
        for ids in must_sets:
            base = ids if base is None else _intersect_sorted(base, ids)
        has_required = base is not None or bool(parsed.filters) \
            or bool(parsed.ranges)
        if base is None:
            live = [ids for ids, _ in should_groups if ids.size]
            if not live:
                if not has_required:
                    if parser != "qs":
                        return []   # simple grammar: degrade, never raise
                    raise ValueError(
                        "query_string: no scoring or filter clause")
                base = None     # filters-only query: base from filters
            else:
                base = np.unique(np.concatenate(live))
        # keyword/range filters
        filt: np.ndarray | None = None
        for f, v in parsed.filters:
            ids = self._filter_ids(f, v)
            filt = ids if filt is None else \
                np.intersect1d(filt, ids, assume_unique=True)
        for f, lo, hi in parsed.ranges:
            ids = self._range_ids(f,
                                  None if lo == float("-inf") else lo,
                                  None if hi == float("inf") else hi)
            filt = ids if filt is None else \
                np.intersect1d(filt, ids, assume_unique=True)
        if base is None:
            if filt is None:
                return []
            base = filt
            if self.tombstones.size and base.size:
                base = base[_excl_mask(base, self.tombstones)]
        elif filt is not None:
            base = base[_apply_filter(base, filt)]
        for ids in mn_sets:
            if ids.size and base.size:
                base = base[_excl_mask(base, ids)]
        if base.size == 0:
            return []
        scores = np.zeros(base.size)
        n_should = np.zeros(base.size, dtype=np.int64)
        for ids, sc in must_groups:
            pos = np.searchsorted(ids, base)
            scores += sc[pos]
        for ids, sc in should_groups:
            if ids.size == 0:
                continue
            pos = np.minimum(np.searchsorted(ids, base), ids.size - 1)
            hit = ids[pos] == base
            if hit.any():
                scores[hit] += sc[pos[hit]]
                n_should[hit] += 1
        if should_groups and not must_groups and not must_sets \
                and not parsed.filters and not parsed.ranges:
            keep = n_should >= 1
            base, scores = base[keep], scores[keep]
        if base.size == 0:
            return []
        kk = min(k, base.size)
        cand = np.arange(base.size)
        if base.size > 4096:
            thresh = np.partition(scores, base.size - kk)[base.size - kk]
            cand = np.flatnonzero(scores >= thresh)
        sel = cand[np.lexsort((base[cand], -scores[cand]))][:kk]
        return [(float(scores[i]), int(base[i])) for i in sel]

    # --- multi-term query rewrite (prefix / wildcard) ---

    def expand_terms(self, pattern: str, field: str = "content",
                     kind: str = "prefix", max_expansions: int = 1024,
                     fuzziness: int = 0,
                     transpositions: bool = False,
                     prefix: str = "") -> list[str]:
        """Expand a prefix/wildcard/fuzzy pattern against the term
        dictionary.  Every part's dictionary is probed where it lives
        (actor-side); only matching term strings return.  Raises when
        the expansion exceeds ``max_expansions`` (Lucene
        BooleanQuery.TooManyClauses parity).  ``prefix`` restricts a
        fuzzy expansion to candidates sharing that literal prefix
        (suggester prefix_length, applied at the probe, not after)."""
        terms = sorted(set().union(*self._scatter(
            _grp_match_terms, field, pattern, kind, fuzziness,
            transpositions, prefix)))
        if len(terms) > max_expansions:
            raise ValueError(
                f"{kind} '{pattern}' expands to {len(terms)} terms "
                f"(> max_expansions={max_expansions})")
        return terms

    def suggest(self, text: str, field: str = "content", size: int = 5,
                max_edits: int = 2, prefix_length: int = 1,
                suggest_mode: str = "missing",
                string_distance: str = "levenshtein",
                analyzer: str | None = None
                ) -> list[tuple[str, list[tuple[str, int, int]]]]:
        """OpenSearch term suggester (did-you-mean): per analyzed
        token, dictionary candidates within ``max_edits`` edits,
        sharing the first ``prefix_length`` chars, ranked (distance
        asc, df desc, term asc), top ``size``.
        ``string_distance='levenshtein'`` (the default — exact DuckDB
        ``levenshtein()`` oracle parity) or ``'damerau_levenshtein'``
        (adjacent swap = one edit; OpenSearch's own default metric,
        oracle-matched by DuckDB ``damerau_levenshtein``).
        ``suggest_mode='missing'`` (the OpenSearch default) returns no
        suggestions for tokens already in the dictionary; ``'always'``
        suggests regardless.  The dictionary probe runs where each
        part lives (actor-side match_terms); only candidate strings
        and dfs travel.
        Returns [(token, [(candidate, distance, df), ...])]."""
        if suggest_mode not in ("missing", "always"):
            raise ValueError(f"unknown suggest_mode {suggest_mode!r}")
        if string_distance not in ("levenshtein", "damerau_levenshtein"):
            raise ValueError(f"unknown string_distance {string_distance!r}")
        damerau = string_distance == "damerau_levenshtein"
        from .shard import _damerau
        dist = _damerau if damerau else _levenshtein
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        out: list[tuple[str, list[tuple[str, int, int]]]] = []
        for tok in dict.fromkeys(an(text)):
            if suggest_mode == "missing" and \
                    self._term_dfs(field, [tok]).get(tok, 0) > 0:
                out.append((tok, []))
                continue
            cands = [c for c in self.expand_terms(
                         tok, field, "fuzzy", max_expansions=1 << 20,
                         fuzziness=max_edits, transpositions=damerau,
                         prefix=tok[:prefix_length])
                     if c != tok]
            dfs = self._term_dfs(field, cands)
            scored = [(c, dist(tok, c), dfs[c])
                      for c in cands if dfs.get(c, 0) > 0]
            scored.sort(key=lambda s: (s[1], -s[2], s[0]))
            out.append((tok, scored[:size]))
        return out

    def suggest_completion(self, prefix: str, field: str = "content",
                           size: int = 5,
                           max_expansions: int = 1 << 20,
                           fuzziness: int = 0, prefix_length: int = 1,
                           transpositions: bool = True,
                           context_field: str | None = None,
                           context_value: str | None = None
                           ) -> list[tuple[str, int]]:
        """OpenSearch completion suggester (search-as-you-type
        autocomplete): dictionary terms extending ``prefix``, ranked
        by doc frequency desc then term asc, top ``size``.
        OpenSearch backs this with a dedicated FST completion field
        and indexed weights; here the per-part SORTED dictionary is
        the FST analogue — each part bisects its own dictionary
        (O(log vocab + matches)) and only term strings + dfs travel —
        and df is the default weight (reference dashboards use the
        suggester unweighted).

        ``fuzziness`` > 0 enables FUZZY completion (Lucene
        FuzzyCompletionQuery): terms some prefix of which is within
        ``fuzziness`` edits of the typed input (OSA transpositions
        count one edit by default, Lucene's fuzzy-automaton rule);
        candidates keep the first ``prefix_length`` chars literal
        (the suggester default 1), so the dictionary probe stays a
        bisected slice.

        ``context_field``/``context_value`` is the category CONTEXT:
        suggestions ranked by df WITHIN docs carrying that keyword
        value (OpenSearch context suggester).  With actors each
        shard intersects its own candidates' postings with its own
        filter part and ships (term, partial-count) pairs."""
        p = prefix.lower()
        if fuzziness > 0:
            terms = self.expand_terms(
                p, field, "completion_fuzzy", max_expansions,
                fuzziness, transpositions, p[:prefix_length])
        else:
            terms = self.expand_terms(p, field, "prefix", max_expansions)
        if context_field is None:
            dfs = self._term_dfs(field, terms)
        else:
            dfs = self._context_dfs(field, terms, context_field,
                                    context_value)
        ranked = sorted(((t, int(dfs.get(t, 0))) for t in terms
                         if dfs.get(t, 0) > 0),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked[:size]

    def _context_dfs(self, field: str, terms: list[str],
                     context_field: str, context_value: str
                     ) -> dict[str, int]:
        """Per-term live doc count WITHIN a keyword context — the
        context suggester's ranking weight: shard-local postings ∩
        the context filter ids, (term, count) pairs travel."""
        if not terms:
            return {}
        out: dict[str, int] = {}
        for d in self._scatter(_grp_context_dfs, field, terms,
                               context_field, context_value):
            _add_counts(out, d)
        return out

    def explain(self, query: str, doc_id: int, field: str = "content",
                analyzer: str | None = None,
                k1: float = K1, b: float = B) -> dict:
        """OpenSearch ``_explain`` parity: the per-term score
        breakdown for ONE document — df, idf, tf, the norm-decoded
        (quantized) doc length, and each clause's BM25 contribution,
        summing exactly to what :meth:`search` scores (pytest-pinned).
        The terms gather through the same path as search, so the
        explanation reflects the real index state (runs merged,
        tombstones excluded, idf counting deletes until compaction)."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        d = np.uint64(doc_id)
        avgdl = float(self.stats["avgdl"][field])
        n_docs = int(self.stats["n_docs"])
        rows = self._gather(field, q_terms)
        terms = prepare_terms(q_terms, rows, n_docs, avgdl, k1, b,
                              idf_by_term=self._idf_overrides,
                              exclude_ids=self.tombstones)
        details = []
        total = 0.0
        matched = 0
        for t, term in zip(terms, list(dict.fromkeys(q_terms))):
            i = int(np.searchsorted(t.doc_ids, d))
            hit = i < t.doc_ids.size and t.doc_ids[i] == d
            # df = pre-tombstone-exclusion count (the input the reported
            # idf was computed from, so the breakdown is reproducible);
            # live_docs = matchable postings after exclusion
            det = {"term": term, "df": int(t.df),
                   "live_docs": int(t.doc_ids.size),
                   "idf": float(t.idf), "weight": float(t.weight),
                   "matched": bool(hit)}
            if hit:
                tfn = float(tf_norm(t.tfs[i:i + 1], t.lens[i:i + 1],
                                    avgdl, k1, b)[0])
                contrib = t.weight * t.idf * tfn
                det.update({"tf": int(t.tfs[i]), "dl": int(t.lens[i]),
                            "tf_norm": tfn, "score": float(contrib)})
                total += contrib
                matched += 1
            details.append(det)
        return {"doc_id": int(doc_id), "matched_terms": matched,
                "score": float(total), "avgdl": avgdl, "n_docs": n_docs,
                "details": details}

    def suggest_phrase(self, text: str, field: str = "content",
                       size: int = 3, max_edits: int = 2,
                       prefix_length: int = 1, per_token: int = 3,
                       string_distance: str = "levenshtein",
                       analyzer: str | None = None
                       ) -> list[tuple[str, float]]:
        """Phrase suggester: whole-input corrections assembled from
        per-token term suggestions.  In-dictionary tokens keep
        themselves (distance 0); misspelled tokens contribute their
        top ``per_token`` term-suggester candidates; candidate phrases
        are the bounded cross product scored
        ``sum(ln(1+df_i)) - sum(edit_distance_i)`` and ranked (score
        desc, phrase asc).  OpenSearch's phrase suggester scores with
        an n-gram language model over a shingle field; this
        frequency+edit scoring is the documented simplification — it
        keeps the whole ranking recomputable by the SQL oracle while
        preserving the API shape (text in, corrected phrases out)."""
        import math
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        toks = an(text)
        if not toks or len(toks) > 8:
            return []
        cand_lists: list[list[tuple[str, int, int]]] = []
        for tok in toks:
            df_self = self._term_dfs(field, [tok]).get(tok, 0)
            if df_self > 0:
                cand_lists.append([(tok, 0, df_self)])
                continue
            sugg = dict(self.suggest(tok, field=field, size=per_token,
                                     max_edits=max_edits,
                                     prefix_length=prefix_length,
                                     suggest_mode="always",
                                     string_distance=string_distance)
                        )[tok]
            cand_lists.append(sugg or [(tok, 0, 0)])
        from itertools import product
        out: list[tuple[str, float]] = []
        for combo in product(*cand_lists):
            phrase = " ".join(c for c, _, _ in combo)
            score = sum(math.log1p(df) - d for _, d, df in combo)
            out.append((phrase, float(score)))
        out.sort(key=lambda p: (-p[1], p[0]))
        return out[:size]

    def prefix_search(self, prefix: str, field: str = "content",
                      k: int = 10, max_expansions: int = 1024,
                      k1: float = K1, b: float = B
                      ) -> list[tuple[float, int]]:
        """Prefix query with scoring-boolean rewrite: the pattern
        expands to every dictionary term starting with ``prefix``, and
        the expanded terms score as an OR query (each clause keeps its
        own idf — Lucene ``rewrite=scoring_boolean``)."""
        terms = self.expand_terms(prefix.lower(), field, "prefix",
                                  max_expansions)
        return self._expanded_or(terms, field, k, k1, b)

    def match_bool_prefix(self, query: str, field: str = "content",
                          k: int = 10, max_expansions: int = 1024,
                          analyzer: str | None = None,
                          k1: float = K1, b: float = B
                          ) -> list[tuple[float, int]]:
        """OpenSearch ``match_bool_prefix``: analyze the query; every
        token but the LAST becomes a term clause and the last a
        prefix clause, combined as a bool should (type-ahead "as you
        type" search — the user is mid-word on the final token).
        The prefix clause expands with the engine's scoring-boolean
        rewrite (each expansion keeps its own idf, consistent with
        :meth:`prefix_search`; OpenSearch wraps the inner prefix in a
        constant-score rewrite — documented deviation, same match
        set).  The last token's own literal term is covered by its
        expansion (a prefix matches itself)."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        toks = an(query)
        if not toks:
            return []
        terms = list(dict.fromkeys(toks[:-1]))
        seen = set(terms)
        terms += [t for t in self.expand_terms(toks[-1], field, "prefix",
                                               max_expansions)
                  if t not in seen]
        return self._expanded_or(terms, field, k, k1, b)

    def wildcard_search(self, pattern: str, field: str = "content",
                        k: int = 10, max_expansions: int = 1024,
                        k1: float = K1, b: float = B
                        ) -> list[tuple[float, int]]:
        """Wildcard query (``*`` any run, ``?`` one char), scoring-
        boolean rewrite like :meth:`prefix_search`."""
        terms = self.expand_terms(pattern.lower(), field, "wildcard",
                                  max_expansions)
        return self._expanded_or(terms, field, k, k1, b)

    def regexp_search(self, pattern: str, field: str = "content",
                      k: int = 10, max_expansions: int = 1024,
                      k1: float = K1, b: float = B
                      ) -> list[tuple[float, int]]:
        """Regexp query (OpenSearch ``regexp``): the pattern is
        implicitly anchored and expands to every whole-term dictionary
        match, scoring-boolean rewrite like :meth:`prefix_search`.
        (Lucene compiles the regexp to an automaton intersected with
        the FST term index; the per-part fullmatch scan is this
        repo's loaded-dict equivalent — see ShardReader.match_terms.)"""
        terms = self.expand_terms(pattern.lower(), field, "regexp",
                                  max_expansions)
        return self._expanded_or(terms, field, k, k1, b)

    def fuzzy_search(self, term: str, field: str = "content",
                     fuzziness: int = 1, k: int = 10,
                     max_expansions: int = 50,
                     transpositions: bool = False,
                     k1: float = K1, b: float = B
                     ) -> list[tuple[float, int]]:
        """Fuzzy term query: expand to every dictionary term within
        ``fuzziness`` edits, then score as an OR with each expansion
        keeping its own idf (scoring-boolean rewrite; OpenSearch
        ``fuzzy`` defaults to ``max_expansions: 50``).
        ``transpositions=True`` counts an adjacent swap as ONE edit
        (unrestricted Damerau — OpenSearch's own default, oracle-
        matched by DuckDB ``damerau_levenshtein``); the default False
        keeps plain Levenshtein for ``levenshtein()`` oracle parity
        with the older entries."""
        terms = self.expand_terms(term.lower(), field, "fuzzy",
                                  max_expansions, fuzziness=fuzziness,
                                  transpositions=transpositions)
        return self._expanded_or(terms, field, k, k1, b)

    def significant_terms(self, query: str, agg_field: str,
                          field: str = "content", mode: str = "or",
                          k: int = 10, analyzer: str | None = None
                          ) -> list[tuple[str, int, float]]:
        """Significant-terms aggregation over a keyword field
        (OpenSearch ``significant_terms`` with the JLH heuristic):
        foreground = the query's match set, background = all live
        docs; score = (fgPct - bgPct) * (fgPct / bgPct), only values
        over-represented in the foreground (fgPct > bgPct) qualify.
        Foreground counts come from terms_aggregation (per-shard
        partials on doc-partitioned indexes); background counts read
        only the packed filter postings sizes.  Returns
        [(value, fg_count, score)] sorted (score desc, value asc),
        top ``k``."""
        fg = dict(self.terms_aggregation(query, agg_field, field, mode,
                                         analyzer))
        if not fg:
            return []
        from .shard import load_filter_value_counts
        bg = load_filter_value_counts(self.index_dir, agg_field,
                                      exclude=self.tombstones)
        fg_total = float(sum(fg.values()))
        bg_total = float(sum(bg.values()))
        out: list[tuple[str, int, float]] = []
        for v, n in fg.items():
            bgn = bg.get(v, 0)
            if not bgn:
                continue
            fg_pct = n / fg_total
            bg_pct = bgn / bg_total
            if fg_pct <= bg_pct:
                continue
            out.append((v, n, (fg_pct - bg_pct) * (fg_pct / bg_pct)))
        out.sort(key=lambda t: (-t[2], t[0]))
        return out[:k]

    @_routed(_plan_terms)
    def _expanded_or(self, terms: list[str], field: str, k: int,
                     k1: float, b: float) -> list[tuple[float, int]]:
        if not terms:
            return []
        rows = self._gather(field, terms)
        avgdl = float(self.stats["avgdl"][field])
        n_docs = int(self.stats["n_docs"])
        td = prepare_terms(terms, rows, n_docs, avgdl, k1, b,
                           idf_by_term=self._idf_overrides,
                           exclude_ids=self.tombstones)
        return score_taat(td, k, "or", avgdl, None, k1, b)

    @_routed(_no_dfs)
    def constant_score(self, query: str, field: str = "content",
                       mode: str = "or", boost: float = 1.0, k: int = 10,
                       analyzer: str | None = None
                       ) -> list[tuple[float, int]]:
        """OpenSearch ``constant_score``: filter-context match set,
        every hit scores exactly ``boost`` (no BM25 evaluated — the
        filter-cache shape); equal scores tie-break doc_id asc."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        cand = self._match_ids(field, q_terms, mode)
        return [(float(boost), int(d)) for d in cand[:k]]

    @_routed(_dfs_on("positive"))
    def boosting_search(self, positive: str, negative: str,
                        negative_boost: float = 0.5,
                        field: str = "content", k: int = 10,
                        analyzer: str | None = None,
                        k1: float = K1, b: float = B
                        ) -> list[tuple[float, int]]:
        """OpenSearch ``boosting`` query: docs score the positive
        clause's BM25; docs ALSO matching the negative clause keep
        their rank candidacy but at ``negative_boost`` x the score
        (demotion, not exclusion — contrast must_not).  Needs the full
        positive match set (a demoted top doc may still out-rank the
        tail), so the positive clause TAAT-scores completely and the
        negative match set probes it as a sorted id array."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        pos_terms = an(positive)
        if not pos_terms:
            return []
        hits = self._expanded_or(pos_terms, field, 1 << 31, k1, b)
        neg_terms = an(negative)
        neg = (self._match_ids(field, neg_terms, "or") if neg_terms
               else np.zeros(0, np.uint64))
        if neg.size and hits:
            ids = np.fromiter((d for _, d in hits), np.uint64,
                              count=len(hits))
            pos_i = np.minimum(np.searchsorted(neg, ids), neg.size - 1)
            demote = neg[pos_i] == ids
            hits = [(s * negative_boost, d) if dm else (s, d)
                    for (s, d), dm in zip(hits, demote.tolist())]
        hits.sort(key=lambda t: (-t[0], t[1]))
        return hits[:k]

    @_routed(_plan_collapse, _merge_collapse)
    def collapse_search(self, query: str, collapse_field: str,
                        field: str = "content", k: int = 10,
                        analyzer: str | None = None,
                        k1: float = K1, b: float = B
                        ) -> list[tuple[float, int, str]]:
        """OpenSearch field collapsing (``collapse`` on a keyword
        field): the ranked result keeps only the BEST-scoring doc per
        collapse-field value (score desc, doc_id asc tie-break), then
        the top ``k`` of those representatives.  Needs the full match
        set (a value's best doc may sit beyond any per-shard top-k) —
        TAAT over the match set, values probed from the packed filter
        postings.  The per-value combine is a single lexsort +
        first-per-group mask (no per-hit Python), so match-set size
        only costs O(n log n) numpy.  Docs missing the collapse field
        are omitted (OpenSearch collapses them into their own null
        group).  Returns [(score, doc_id, value)]."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        hits = self._expanded_or(q_terms, field, 1 << 31, k1, b)
        if not hits:
            return []
        ids = np.fromiter((d for _, d in hits), np.uint64,
                          count=len(hits))
        order = np.argsort(ids)
        sorted_ids = ids[order]
        # value code per hit: -1 = field missing; codes index `values`
        # (a value spans parts on multi-part indexes — one code per
        # distinct value, not per (value, part) row)
        code_of = np.full(len(hits), -1, dtype=np.int64)
        values: list[str] = []
        code_by_value: dict[str, int] = {}
        for v, vids in _iter_filter_postings(self.index_dir,
                                             collapse_field,
                                             dparts=self._local_parts):
            pos = np.minimum(np.searchsorted(sorted_ids, vids),
                             sorted_ids.size - 1)
            hit = sorted_ids[pos] == vids
            if hit.any():
                c = code_by_value.get(v)
                if c is None:
                    c = code_by_value[v] = len(values)
                    values.append(v)
                code_of[order[pos[hit]]] = c
        valid = code_of >= 0
        if not valid.any():
            return []
        scores = np.fromiter((s for s, _ in hits), np.float64,
                             count=len(hits))[valid]
        dids = ids[valid]
        codes = code_of[valid]
        # group by value code, best (score desc, doc asc) first in group
        o = np.lexsort((dids, -scores, codes))
        lead = np.ones(o.size, dtype=bool)
        lead[1:] = codes[o][1:] != codes[o][:-1]
        reps = o[lead]
        out = sorted(((float(scores[i]), int(dids[i]), values[codes[i]])
                      for i in reps), key=lambda t: (-t[0], t[1]))
        return out[:k]

    def _doc_values(self, value_field: str, sorted_ids: np.ndarray,
                    order: np.ndarray, n: int, default: float
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-hit numeric ``value_field`` values (hit order) from the
        packed range tables, plus a has-field mask; absent docs get
        ``default``.  Shard-local searchers read only their own doc
        parts' range files."""
        from .shard import load_range_pairs
        vals = np.full(n, default, dtype=np.float64)
        have = np.zeros(n, dtype=bool)
        for rvals, rids in load_range_pairs(self.index_dir, value_field,
                                            dparts=self._local_parts):
            pos = np.minimum(np.searchsorted(sorted_ids, rids),
                             sorted_ids.size - 1)
            hit = sorted_ids[pos] == rids
            if hit.any():
                at = order[pos[hit]]
                vals[at] = rvals[hit]
                have[at] = True
        return vals, have

    def _eval_score_function(self, fn: dict, sorted_ids: np.ndarray,
                             order: np.ndarray, n: int
                             ) -> tuple[np.ndarray, float]:
        """One function_score function -> (per-hit unweighted values,
        weight).  Shapes: ``weight`` (constant), ``field_value_factor``
        (modifier(value * factor); missing docs take the spec's
        ``missing``, default 0), and the numeric decay trio
        ``gauss`` / ``exp`` / ``linear`` (OpenSearch's curves; docs
        missing the field decay to 1.0, the OpenSearch rule)."""
        typ = fn.get("type", "field_value_factor")
        w = float(fn.get("weight", 1.0))
        if typ == "weight":
            return np.ones(n, dtype=np.float64), w
        if typ == "random_score":
            # deterministic per-doc "random" in [0, 1): two modular
            # multiplies over the 32-bit id —
            #   x = (doc_id % 2^32) * 100003 % 2^32       (pre-scale)
            #   m = 69069 + 2*((seed * 10007) % 2^20)     (odd, seeded)
            #   v = (x * m % 2^32) / 2^32
            # The pre-scale pushes x*m past 2^32 even for tiny ids
            # (one unwrapped multiply is monotone in id — not random),
            # and the seed enters MULTIPLICATIVELY with a 10007 spread
            # so adjacent seeds genuinely reorder (any affine seed mix
            # shifts every doc by a near-constant and preserves
            # order).  Every product is < 2^54 (x < 2^32, m < 2^22),
            # so it is exact in uint64 here and in the DuckDB twin's
            # int64 (BIGINT); only the final h < 2^32 becomes a float,
            # exactly.  OpenSearch's
            # random_score is likewise hash-deterministic given
            # (seed, field).
            seed = int(fn.get("seed", 0)) & 0xFFFFFFFF
            mult = np.uint64(69069 + 2 * ((seed * 10007) % 1048576))
            mask = np.uint64(0xFFFFFFFF)
            x = ((sorted_ids.astype(np.uint64) & mask)
                 * np.uint64(100003)) & mask
            h = (x * mult) & mask
            vals = np.empty(n, dtype=np.float64)
            vals[order] = h.astype(np.float64) / 4294967296.0
            return vals, w
        if typ == "field_value_factor":
            factor = float(fn.get("factor", 1.0))
            modifier = fn.get("modifier", "none")
            if modifier not in ("none", "log1p", "sqrt"):
                raise ValueError(f"unsupported modifier {modifier!r}")
            value_field = fn.get("field")
            if value_field is None:
                raise ValueError("function_score field_value_factor "
                                 "needs value_field")
            vals, _ = self._doc_values(value_field, sorted_ids, order, n,
                                       float(fn.get("missing", 0.0)))
            fv = vals * factor
            if modifier in ("log1p", "sqrt"):
                if (fv < 0).any():
                    # OpenSearch rejects negative field_value_factor
                    # inputs for these modifiers ("Must be a
                    # non-negative number") rather than zeroing docs
                    raise ValueError(
                        f"{modifier} modifier requires non-negative "
                        f"{value_field} * factor values")
                fv = np.log1p(fv) if modifier == "log1p" else np.sqrt(fv)
            return fv, w
        if typ in ("gauss", "exp", "linear"):
            origin = float(fn["origin"])
            scale = float(fn["scale"])
            offset = float(fn.get("offset", 0.0))
            decay = float(fn.get("decay", 0.5))
            if scale <= 0:
                raise ValueError("decay scale must be positive")
            if not 0.0 < decay < 1.0:
                raise ValueError("decay must be in (0, 1)")
            value_field = fn.get("field")
            if value_field is None:
                raise ValueError(f"{typ} decay needs a numeric field")
            vals, have = self._doc_values(value_field, sorted_ids, order,
                                          n, 0.0)
            dist = np.maximum(np.abs(vals - origin) - offset, 0.0)
            if typ == "gauss":
                sigma2 = -(scale * scale) / (2.0 * math.log(decay))
                out = np.exp(-(dist * dist) / (2.0 * sigma2))
            elif typ == "exp":
                out = np.exp((math.log(decay) / scale) * dist)
            else:
                s = scale / (1.0 - decay)
                out = np.maximum((s - dist) / s, 0.0)
            out[~have] = 1.0
            return out, w
        raise ValueError(f"unsupported function type {typ!r}")

    @_routed(_plan_function_score)
    def function_score(self, query: str, field: str = "content",
                       value_field: str | None = None,
                       factor: float = 1.0, modifier: str = "none",
                       boost_mode: str = "multiply", k: int = 10,
                       analyzer: str | None = None,
                       k1: float = K1, b: float = B,
                       functions: list[dict] | None = None,
                       score_mode: str = "multiply"
                       ) -> list[tuple[float, int]]:
        """OpenSearch ``function_score``.  ``functions`` is a list of
        function specs (dicts): ``field_value_factor``
        (modifier(value_field * factor), modifiers none/log1p/sqrt),
        the numeric decay trio ``gauss``/``exp``/``linear``
        (origin/scale/offset/decay — OpenSearch's curves: gauss
        exp(-d'^2 / 2sigma^2) with sigma^2 = -scale^2/(2 ln decay),
        exp exp(d' ln(decay)/scale), linear max((s-d')/s, 0) with
        s = scale/(1-decay), d' = max(0, |x-origin|-offset)), and
        bare ``weight``; every spec takes an optional ``weight``
        multiplier.  ``score_mode`` combines the function values
        (multiply / sum / avg [weighted, OpenSearch's rule] / min /
        max over the WEIGHTED outputs), ``boost_mode`` combines that
        with the query's BM25 (multiply / sum / avg / min / max /
        replace).  The legacy single-function signature
        (value_field/factor/modifier) still works and maps to one
        field_value_factor spec.  Per-doc values come from the packed
        range tables — no stored-field fetch; rescoring is per-doc
        local, so this method doc-shards exactly."""
        if boost_mode not in ("multiply", "sum", "avg", "min", "max",
                              "replace"):
            raise ValueError(f"unsupported boost_mode {boost_mode!r}")
        if score_mode not in ("multiply", "sum", "avg", "min", "max"):
            raise ValueError(f"unsupported score_mode {score_mode!r}")
        if functions is None:
            if modifier not in ("none", "log1p", "sqrt"):
                raise ValueError(f"unsupported modifier {modifier!r}")
            if value_field is None:
                raise ValueError("function_score field_value_factor "
                                 "needs value_field")
            functions = [{"type": "field_value_factor",
                          "field": value_field, "factor": factor,
                          "modifier": modifier}]
        if not functions:
            raise ValueError("function_score needs at least one function")
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        hits = self._expanded_or(q_terms, field, 1 << 31, k1, b)
        if not hits:
            return []
        n = len(hits)
        ids = np.fromiter((d for _, d in hits), np.uint64, count=n)
        order = np.argsort(ids)
        sorted_ids = ids[order]
        evaluated = [self._eval_score_function(fn, sorted_ids, order, n)
                     for fn in functions]
        weighted = [v * w for v, w in evaluated]
        if score_mode == "multiply":
            fv = weighted[0].copy()
            for x in weighted[1:]:
                fv *= x
        elif score_mode == "sum":
            fv = np.sum(weighted, axis=0)
        elif score_mode == "avg":
            wsum = sum(w for _, w in evaluated)
            fv = (np.sum(weighted, axis=0) / wsum if wsum
                  else np.zeros(n, dtype=np.float64))
        elif score_mode == "min":
            fv = np.min(weighted, axis=0)
        else:
            fv = np.max(weighted, axis=0)
        scores = np.fromiter((s for s, _ in hits), np.float64, count=n)
        if boost_mode == "multiply":
            out_s = scores * fv
        elif boost_mode == "sum":
            out_s = scores + fv
        elif boost_mode == "avg":
            out_s = (scores + fv) / 2.0
        elif boost_mode == "min":
            out_s = np.minimum(scores, fv)
        elif boost_mode == "max":
            out_s = np.maximum(scores, fv)
        else:
            out_s = fv
        rescored = sorted(((float(s), int(d))
                           for s, d in zip(out_s, ids)),
                          key=lambda t: (-t[0], t[1]))
        return rescored[:k]

    @_routed(_dfs_on("query"))
    def script_score_search(self, query: str, expr: str,
                            fields: tuple[str, ...] = (),
                            field: str = "content", k: int = 10,
                            analyzer: str | None = None,
                            k1: float = K1, b: float = B
                            ) -> list[tuple[float, int]]:
        """OpenSearch ``script_score``: replace each hit's score with
        a script over ``_score`` (the BM25 value) and the doc's
        numeric fields — the whitelisted-arithmetic expression
        compiler (:func:`compile_metric_expr`, + abs/sqrt/log/log1p/
        exp/min/max), evaluated VECTORIZED over the whole match set.
        Docs missing any named field are dropped (painless
        ``doc['f'].value`` raises on missing).  Rescoring is
        per-doc-local, so the method doc-shards exactly."""
        fn = compile_metric_expr(expr, ("_score",) + tuple(fields))
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        hits = self._expanded_or(q_terms, field, 1 << 31, k1, b)
        if not hits:
            return []
        n = len(hits)
        ids = np.fromiter((d for _, d in hits), np.uint64, count=n)
        scores = np.fromiter((s for s, _ in hits), np.float64, count=n)
        keep = np.ones(n, dtype=bool)
        bindings: dict = {"_score": scores}
        if fields:
            order = np.argsort(ids)
            aligned = _aligned_field_values(self.index_dir, ids[order],
                                            tuple(fields),
                                            dparts=self._local_parts)
            for j, f in enumerate(fields):
                vals = np.empty(n, dtype=np.float64)
                have = np.empty(n, dtype=bool)
                vals[order] = aligned[2 * j]
                have[order] = aligned[2 * j + 1]
                bindings[f] = vals
                keep &= have
        out_s = np.asarray(fn(bindings), dtype=np.float64)
        if out_s.shape == ():
            out_s = np.full(n, float(out_s))
        rescored = sorted(((float(s), int(d))
                           for s, d, kp in zip(out_s, ids, keep) if kp),
                          key=lambda t: (-t[0], t[1]))
        return rescored[:k]

    @_routed(_dfs_on("query"))
    def distance_feature_search(self, query: str, feature_field: str,
                                origin: float, pivot: float,
                                boost: float = 1.0,
                                field: str = "content", k: int = 10,
                                analyzer: str | None = None,
                                k1: float = K1, b: float = B
                                ) -> list[tuple[float, int]]:
        """OpenSearch ``distance_feature`` (numeric/date form): add
        ``boost * pivot / (pivot + |value - origin|)`` to each hit's
        BM25 score — docs missing the feature field keep their plain
        score (the query only BOOSTS docs carrying the field; it
        never filters).  Per-doc-local, so the method doc-shards
        exactly."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        hits = self._expanded_or(q_terms, field, 1 << 31, k1, b)
        if not hits:
            return []
        n = len(hits)
        ids = np.fromiter((d for _, d in hits), np.uint64, count=n)
        scores = np.fromiter((s for s, _ in hits), np.float64, count=n)
        order = np.argsort(ids)
        vals_s, have_s = _aligned_field_values(
            self.index_dir, ids[order], (feature_field,),
            dparts=self._local_parts)
        vals = np.empty(n, dtype=np.float64)
        have = np.empty(n, dtype=bool)
        vals[order] = vals_s
        have[order] = have_s
        feat = np.where(
            have, boost * pivot / (pivot + np.abs(vals - origin)), 0.0)
        out_s = scores + feat
        rescored = sorted(((float(s), int(d))
                           for s, d in zip(out_s, ids)),
                          key=lambda t: (-t[0], t[1]))
        return rescored[:k]

    @_routed(_dfs_on("query"))
    def rank_feature_search(self, query: str, feature_field: str,
                            function: str = "saturation",
                            pivot: float = 1.0, scaling: float = 1.0,
                            exponent: float = 1.0, boost: float = 1.0,
                            field: str = "content", k: int = 10,
                            analyzer: str | None = None,
                            k1: float = K1, b: float = B
                            ) -> list[tuple[float, int]]:
        """OpenSearch ``rank_feature``: add ``boost * S(x)`` to each
        hit's BM25, with S the ``saturation`` (x/(x+pivot)), ``log``
        (ln(scaling·x + 1)) or ``sigmoid`` (x^e/(x^e+pivot^e))
        curve over the positive feature field.  Missing-field docs
        keep their plain score (boost-only, like distance_feature).
        Per-doc-local, so the method doc-shards exactly."""
        if function not in ("saturation", "log", "sigmoid"):
            raise ValueError(f"unsupported rank_feature function "
                             f"{function!r}")
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        hits = self._expanded_or(q_terms, field, 1 << 31, k1, b)
        if not hits:
            return []
        n = len(hits)
        ids = np.fromiter((d for _, d in hits), np.uint64, count=n)
        scores = np.fromiter((s for s, _ in hits), np.float64, count=n)
        order = np.argsort(ids)
        vals_s, have_s = _aligned_field_values(
            self.index_dir, ids[order], (feature_field,),
            dparts=self._local_parts)
        vals = np.empty(n, dtype=np.float64)
        have = np.empty(n, dtype=bool)
        vals[order] = vals_s
        have[order] = have_s
        if function == "saturation":
            s_of = vals / (vals + pivot)
        elif function == "log":
            s_of = np.log(scaling * vals + 1.0)
        else:
            xe = vals ** exponent
            s_of = xe / (xe + pivot ** exponent)
        out_s = scores + np.where(have, boost * s_of, 0.0)
        rescored = sorted(((float(s), int(d))
                           for s, d in zip(out_s, ids)),
                          key=lambda t: (-t[0], t[1]))
        return rescored[:k]

    def exists_search(self, field_name: str, k: int | None = None
                      ) -> list[tuple[float, int]]:
        """OpenSearch ``exists`` query: live docs carrying
        ``field_name`` (an indexed keyword OR numeric range field —
        nulls are never indexed, build-side), constant score 1.0,
        doc_id ascending.  Reads only the presence lists (packed
        filter postings / range tables) — never postings or the
        docstore — and, with ``k`` set, keeps a rolling merge
        truncated to the k smallest ids per part, so driver memory is
        O(k) no matter how dense the field (the scan itself is
        O(field docs), the same doc-values walk OpenSearch does; with
        an actor pool each shard ships only its own first-k via
        ``_grp_exists``)."""
        parts = self._scatter(_grp_exists, field_name, k)
        ids = np.sort(np.concatenate(
            [p for p in parts if p.size] or [np.zeros(0, np.uint64)]))[:k]
        return [(1.0, int(d)) for d in ids]

    def ids_search(self, doc_ids: list[int], k: int | None = None
                   ) -> list[tuple[float, int]]:
        """OpenSearch ``ids`` query: the given docs that exist and are
        live, constant score 1.0, doc_id ascending — one docstore
        point-fetch per part, no postings."""
        from .docstore import fetch_docs
        found = fetch_docs(self.index_dir,
                           list(dict.fromkeys(int(d) for d in doc_ids)))
        ids = sorted(found.column("doc_id").to_pylist())
        return [(1.0, int(d)) for d in ids[:k]]

    def pinned_search(self, query: str, pinned_ids: list[int],
                      field: str = "content", k: int = 10,
                      analyzer: str | None = None,
                      k1: float = K1, b: float = B
                      ) -> list[tuple[float, int]]:
        """OpenSearch ``pinned`` query: the pinned ids first, in the
        GIVEN order (only those that exist and are live), then the
        organic ranking with pinned docs removed.  Scores are
        OpenSearch-shaped: pinned docs get large synthetic scores
        decreasing with pin position (Lucene pins via
        Float.MAX_VALUE-derived constants); organic hits keep BM25.
        The organic ranking auto-routes to the doc-sharded path with
        actors."""
        from .docstore import fetch_docs
        uniq = list(dict.fromkeys(int(d) for d in pinned_ids))
        alive = set(fetch_docs(self.index_dir, uniq)
                    .column("doc_id").to_pylist())
        pinned = [d for d in uniq if d in alive][:k]
        out: list[tuple[float, int]] = [
            (float(2 ** 31 - i), d) for i, d in enumerate(pinned)]
        need = k - len(pinned)
        if need > 0:
            organic = self.search(query, field=field,
                                  k=k + len(uniq), analyzer=analyzer,
                                  k1=k1, b=b)
            pinned_set = set(uniq)
            out.extend((s, d) for s, d in organic
                       if d not in pinned_set)
        return out[:k]

    # --- match-set aggregations (dashboard parity beyond terms-agg) ---

    def _match_ids(self, field: str, q_terms: list[str],
                   mode: str) -> np.ndarray:
        """Sorted unique live doc ids matching the analyzed query terms
        (union for ``or``, intersection for ``and``), gathered from
        every part to this searcher — the candidate set behind the
        driver-side scored aggregations."""
        if _CTX_PURE and _CTX_FILTERS:
            # pure filter context — filters only (no term gather),
            # over this searcher's own parts (None = whole index)
            cand = _ctx_filter_ids(self.index_dir, _CTX_FILTERS[0],
                                   self._local_parts)
            cand = _ctx_intersect_rest(cand, self.index_dir,
                                       self._local_parts)
            if self.tombstones.size and cand.size:
                cand = cand[_excl_mask(cand, self.tombstones)]
            return cand
        rows = self._gather(field, q_terms)

        class _RowsReader:              # adapt gathered rows to the helper
            def raw_rows(self, _f, t):
                return rows.get(t, [])
        cand = _candidate_ids(_RowsReader(), field, q_terms, mode)
        if self.tombstones.size and cand.size:
            cand = cand[_excl_mask(cand, self.tombstones)]
        if _CTX_FILTERS and cand.size:
            # the adapter has no part identity; apply the ambient
            # context filters here over this searcher's own parts
            # (None = the whole index on the driver)
            cand = _ctx_intersect(cand, self.index_dir, self._local_parts)
        return cand

    def multi_terms_aggregation(self, query: str,
                                agg_fields: tuple[str, str],
                                field: str = "content", mode: str = "or",
                                analyzer: str | None = None
                                ) -> list[tuple[str, str, int]]:
        """OpenSearch ``multi_terms`` aggregation: bucket the match set
        by the PAIR of two keyword fields' values (docs missing either
        field are skipped — multi_terms semantics, unlike a nested
        terms agg which would emit a bucket per present field).  Each
        shard ships only its per-pair partial
        counts; the driver sums — doc ids never centralize.  Returns
        [(v_a, v_b, count)] sorted (count desc, v_a asc, v_b asc)."""
        fa, fb = agg_fields
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        merged: dict[tuple[str, str], int] = {}
        for d in self._scatter(_grp_multi_terms, field, q_terms, mode,
                               fa, fb):
            _add_counts(merged, d)
        out = [(a_, b_, n) for (a_, b_), n in merged.items()]
        out.sort(key=lambda t: (-t[2], t[0], t[1]))
        return out

    def _filtered_match(self, query: str, field: str, k: int, mode: str,
                        filt: np.ndarray, analyzer: str | None,
                        k1: float, b: float) -> list[tuple[float, int]]:
        """BM25 over the match set restricted to ``filt`` doc ids —
        the shared tail of the geo filter queries (filters never touch
        stats, like search()'s range/keyword filters)."""
        an = self._analyzer_for(field, analyzer)
        q_terms = ANALYZERS[an](query)
        if not q_terms or filt.size == 0:
            return []
        rows = self._gather(field, q_terms)
        avgdl = float(self.stats["avgdl"][field])
        n_docs = int(self.stats["n_docs"])
        terms = prepare_terms(q_terms, rows, n_docs, avgdl, k1, b,
                              idf_by_term=self._idf_overrides,
                              exclude_ids=self.tombstones)
        return _dispatch("auto", terms, k, mode, avgdl, filt, k1, b, None)

    @_routed(_dfs_on("query"))
    def geo_bounding_box_search(self, query: str, lat_field: str,
                                lon_field: str,
                                top_left: tuple[float, float],
                                bottom_right: tuple[float, float],
                                field: str = "content", k: int = 10,
                                mode: str = "or",
                                analyzer: str | None = None,
                                k1: float = K1, b: float = B
                                ) -> list[tuple[float, int]]:
        """OpenSearch ``geo_bounding_box`` query in filter context
        around a match query: BM25-score only docs whose (lat, lon)
        point lies inside the box.  The box probes the value-sorted
        range tables by binary search (two probes) — no distance math,
        no stats perturbation (filters never touch idf/avgdl)."""
        tl_lat, tl_lon = float(top_left[0]), float(top_left[1])
        br_lat, br_lon = float(bottom_right[0]), float(bottom_right[1])
        rl = self._range_ids(lat_field, br_lat, tl_lat)
        rg = self._range_ids(lon_field, tl_lon, br_lon)
        filt = np.intersect1d(rl, rg, assume_unique=True)
        return self._filtered_match(query, field, k, mode, filt,
                                    analyzer, k1, b)

    @_routed(_dfs_on("query"))
    def geo_distance_search(self, query: str, lat_field: str,
                            lon_field: str, origin: tuple[float, float],
                            distance_km: float, field: str = "content",
                            k: int = 10, mode: str = "or",
                            analyzer: str | None = None,
                            k1: float = K1, b: float = B
                            ) -> list[tuple[float, int]]:
        """OpenSearch ``geo_distance`` query in filter context: BM25
        over docs within ``distance_km`` (haversine arc, R=6371) of
        ``origin``.  A latitude-band range probe prefilters (|Δφ| <=
        d/111.195 km-per-degree), then the exact haversine runs on the
        band's aligned values only — the same kernel order as the
        geo_distance aggregation so engine and SQL agree bitwise."""
        olat, olon = float(origin[0]), float(origin[1])
        dlat = float(distance_km) / 111.195
        band = self._range_ids(lat_field, olat - dlat, olat + dlat)
        if band.size == 0:
            return []
        cand = np.sort(band.astype(np.uint64))
        la, ha, lo_, hb = _aligned_field_values(
            self.index_dir, cand, (lat_field, lon_field),
            self._local_parts)
        m = ha & hb
        if m.any():
            dist = _haversine_km(la[m], lo_[m], olat, olon)
            filt = cand[m][dist <= float(distance_km)]
        else:
            filt = np.zeros(0, np.uint64)
        return self._filtered_match(query, field, k, mode, filt,
                                    analyzer, k1, b)

    @_routed(_dfs_on("query"))
    def geo_polygon_search(self, query: str, lat_field: str,
                           lon_field: str,
                           points: list[tuple[float, float]],
                           field: str = "content", k: int = 10,
                           mode: str = "or",
                           analyzer: str | None = None,
                           k1: float = K1, b: float = B
                           ) -> list[tuple[float, int]]:
        """OpenSearch ``geo_polygon`` query in filter context: BM25
        over docs whose (lat, lon) point lies strictly inside a CONVEX
        polygon given as ``[(lat, lon), ...]`` vertices (the engine
        validates convexity and orientation; CW rings are reversed to
        CCW).  The polygon's bounding box prefilters via two
        range-table probes — the half-plane cross-product tests then
        run only on the box band's aligned values.  Convex-only is a
        documented restriction (OpenSearch accepts arbitrary rings);
        it keeps the membership test a short AND of sign tests that an
        SQL oracle reproduces bitwise.  Reference: es_loader stores
        geo_point as lat/lon pairs (siem/sf_*.py GeoIP enrichment);
        the polygon filter itself is OpenSearch Query-DSL surface."""
        if len(points) < 3:
            raise ValueError("geo_polygon needs >= 3 vertices")
        # vertices arrive (lat, lon); work in the (x=lon, y=lat) plane
        vx = np.asarray([float(p[1]) for p in points], np.float64)
        vy = np.asarray([float(p[0]) for p in points], np.float64)
        # signed area > 0 means CCW; reverse CW input
        area2 = float(np.sum(vx * np.roll(vy, -1) - np.roll(vx, -1) * vy))
        if area2 < 0:
            vx, vy = vx[::-1], vy[::-1]
        ex, ey = np.roll(vx, -1), np.roll(vy, -1)
        # convexity: every consecutive edge pair turns left
        tx, ty = np.roll(ex, -1) - ex, np.roll(ey, -1) - ey
        if not np.all((ex - vx) * ty - (ey - vy) * tx > 0):
            raise ValueError("geo_polygon: ring is not strictly convex "
                             "(convex rings only — documented "
                             "restriction)")
        band = self._range_ids(lat_field, float(vy.min()), float(vy.max()))
        if band.size == 0:
            return []
        cand = np.sort(band.astype(np.uint64))
        la, ha, lo_, hb = _aligned_field_values(
            self.index_dir, cand, (lat_field, lon_field),
            self._local_parts)
        m = ha & hb
        if m.any():
            px, py = lo_[m], la[m]
            inside = np.ones(px.size, bool)
            for i in range(vx.size):
                cross = ((ex[i] - vx[i]) * (py - vy[i])
                         - (ey[i] - vy[i]) * (px - vx[i]))
                inside &= cross > 0.0
            filt = cand[m][inside]
        else:
            filt = np.zeros(0, np.uint64)
        return self._filtered_match(query, field, k, mode, filt,
                                    analyzer, k1, b)

    def geo_distance_aggregation(self, query: str,
                                 lat_field: str, lon_field: str,
                                 origin: tuple[float, float],
                                 ranges: list[tuple[float | None,
                                                    float | None]],
                                 field: str = "content", mode: str = "or",
                                 analyzer: str | None = None
                                 ) -> list[tuple[str, int]]:
        """OpenSearch ``geo_distance`` aggregation: concentric
        (from-inclusive, to-exclusive) km rings around ``origin``,
        counting matching docs by haversine (arc) distance.  Geo points
        index as two numeric range fields (lat, lon) — the engine's
        geo_point encoding; docs missing either coordinate are skipped.
        Each shard ships len(ranges) ints.  Returns [(label, count)] in the
        given ring order with OpenSearch's ``*-to`` / ``from-to`` /
        ``from-*`` key labels."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        olat, olon = float(origin[0]), float(origin[1])
        totals = [0] * len(ranges)
        parts = self._scatter(_grp_geo_distance, field, q_terms, mode,
                              lat_field, lon_field, olat, olon, ranges)
        for row in parts:
            for i, n in enumerate(row):
                totals[i] += n
        labels = [f"{'*' if lo is None else lo}-"
                  f"{'*' if hi is None else hi}" for lo, hi in ranges]
        return list(zip(labels, totals))

    def geotile_grid_aggregation(self, query: str,
                                 lat_field: str, lon_field: str,
                                 precision: int = 7,
                                 field: str = "content", mode: str = "or",
                                 size: int | None = None,
                                 analyzer: str | None = None,
                                 scheme: str = "geotile"
                                 ) -> list[tuple[str, int]]:
        """OpenSearch ``geotile_grid`` (scheme="geotile": slippy-map
        "z/x/y" keys via Web-Mercator) or ``geohash_grid``
        (scheme="geohash": base32 cells, ``precision`` = chars):
        bucket matching docs into grid cells, counts per cell.  Geo
        points are the engine's two-numeric-field encoding; docs
        missing either coordinate are skipped.  Per-shard cell-count
        partials (a cell dict per shard travels, never coordinates).
        Returns [(key, count)] sorted (count desc, key
        asc), top ``size`` (None = all)."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        merged: dict[str, int] = {}
        for d in self._scatter(_grp_geotile, field, q_terms, mode,
                               lat_field, lon_field, precision, scheme):
            _add_counts(merged, d)
        out = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
        return out if size is None else out[:size]

    def geohash_grid_aggregation(self, query: str,
                                 lat_field: str, lon_field: str,
                                 precision: int = 5,
                                 field: str = "content", mode: str = "or",
                                 size: int | None = None,
                                 analyzer: str | None = None
                                 ) -> list[tuple[str, int]]:
        """OpenSearch ``geohash_grid``: :meth:`geotile_grid_aggregation`
        with the base32 geohash cell scheme (standard lon-bit-first
        interleave, ``precision`` characters)."""
        return self.geotile_grid_aggregation(
            query, lat_field, lon_field, precision, field, mode, size,
            analyzer, scheme="geohash")

    def scripted_metric(self, query: str, fields: tuple[str, ...],
                        map_expr: str, reduce_expr: str = "state",
                        field: str = "content", mode: str = "or",
                        analyzer: str | None = None) -> dict:
        """OpenSearch ``scripted_metric`` restricted to the shape the
        reference's dashboards actually use: ``map`` is an arithmetic
        expression over the doc's numeric fields (whitelisted AST —
        no calls/attributes, so scripts compute but never escape),
        ``combine`` is the shard-local SUM (the associative combine
        every distributed painless script must provide anyway), and
        ``reduce`` is an arithmetic expression over ``state`` (the
        summed map values) and ``count`` (docs mapped).  Per shard
        only (count, sum) travel.  Docs missing any named field are
        skipped.  Returns {count, state, value}."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        # validate both scripts up front (driver-side, before scatter)
        compile_metric_expr(map_expr, tuple(fields))
        reduce_fn = compile_metric_expr(reduce_expr, ("state", "count"))
        if not q_terms:
            return {"count": 0, "state": 0.0, "value": None}
        n_tot, s_tot = 0, 0.0
        parts = self._scatter(_grp_scripted, field, q_terms, mode,
                              tuple(fields), map_expr)
        for n, s in parts:
            n_tot += n
            s_tot += s
        if n_tot == 0:
            return {"count": 0, "state": 0.0, "value": None}
        value = float(reduce_fn({"state": s_tot, "count": float(n_tot)}))
        return {"count": n_tot, "state": s_tot, "value": value}

    def string_stats(self, query: str, agg_field: str,
                     field: str = "content", mode: str = "or",
                     analyzer: str | None = None) -> dict:
        """OpenSearch ``string_stats`` over a keyword field: count,
        min/max/avg length and Shannon entropy (log2) of the character
        distribution across all matching docs' values.  Per-shard
        partials read only the packed filter postings (O(values), not
        O(docs)) and ship length sums + a character Counter; entropy
        reduces driver-side over the merged distribution in sorted
        char order (deterministic float sum).  Returns {count,
        min_length, max_length, avg_length, entropy}."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return {"count": 0}
        parts = self._scatter(_grp_string_stats, field, q_terms, mode,
                              agg_field)
        tot = _merge_string_stats(parts)
        if not tot["n"]:
            return {"count": 0}
        counts = np.array([tot["chars"][ch]
                           for ch in sorted(tot["chars"])], np.float64)
        p = counts / counts.sum()
        entropy = float(-(p * np.log2(p)).sum())
        return {"count": tot["n"], "min_length": tot["min_len"],
                "max_length": tot["max_len"],
                "avg_length": tot["sum_len"] / tot["n"],
                "entropy": entropy}

    def geo_bounds_aggregation(self, query: str,
                               lat_field: str, lon_field: str,
                               field: str = "content", mode: str = "or",
                               analyzer: str | None = None) -> dict:
        """OpenSearch ``geo_bounds`` + ``geo_centroid`` in one pass:
        the smallest lat/lon box containing every matching doc's point
        and the arithmetic-mean centroid (OpenSearch computes the
        centroid as the coordinate mean).  Seven mergeable numbers per
        shard — count, coordinate sums, mins, maxes — never a
        coordinate list.  Docs missing either coordinate are skipped.
        Returns {count, top_left: (lat, lon), bottom_right: (lat,
        lon), centroid: (lat, lon)} or {count: 0}."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return {"count": 0}
        parts = self._scatter(_grp_geo_bounds, field, q_terms, mode,
                              lat_field, lon_field)
        tot = _merge_geo_bounds(parts)
        if not tot.get("n"):
            return {"count": 0}
        return {"count": tot["n"],
                "top_left": (tot["max_lat"], tot["min_lon"]),
                "bottom_right": (tot["min_lat"], tot["max_lon"]),
                "centroid": (tot["sum_lat"] / tot["n"],
                             tot["sum_lon"] / tot["n"])}

    def boxplot_aggregation(self, query: str, range_field: str,
                            field: str = "content", mode: str = "or",
                            analyzer: str | None = None) -> dict:
        """OpenSearch ``boxplot``: min / q1 / q2 / q3 / max of a
        numeric field over the match set.  Lowered onto the exact
        stats machinery — the quantiles run ``exact_distributed``
        (count-probe bisection; no value leaves its shard), which is
        EXACT where OpenSearch's TDigest boxplot is approximate.
        Returns {count, min, max, q1, q2, q3}."""
        st = self.stats_aggregation(query, range_field, field, mode,
                                    quantiles=(0.25, 0.5, 0.75),
                                    quantile_method="exact_distributed",
                                    analyzer=analyzer)
        if not st.get("count"):
            return {"count": 0}
        return {"count": st["count"], "min": st["min"], "max": st["max"],
                "q1": st["p25"], "q2": st["p50"], "q3": st["p75"]}

    def variable_width_histogram(self, query: str, range_field: str,
                                 buckets: int = 10,
                                 field: str = "content", mode: str = "or",
                                 analyzer: str | None = None
                                 ) -> list[dict]:
        """OpenSearch ``variable_width_histogram``, DETERMINISTIC-
        exact variant: where OpenSearch clusters the values
        approximately (streaming nearest-centroid with a shard-level
        cache), this engine defines the ``buckets`` clusters as the
        EQUAL-FREQUENCY (ntile) partition of the sorted matched
        values — reproducible across runs and shard counts, SQL-twinnable,
        and distribution-adaptive like the original's intent (narrow
        buckets where values crowd, wide where they spread).  Per
        cluster: ``key`` (centroid = sum/count, OpenSearch's bucket
        key), ``min``, ``max``, ``doc_count``, ``sum``.

        Execution is the distributed-selection protocol: boundary
        ranks resolve via count-probe bisection (``_bisect_ranks``),
        then ONE extra probe round of count_le + sum_le at the
        boundary values yields every cluster sum through the tie
        correction ``T(r) = S(v_r) - (C(v_r) - r - 1)·v_r`` (the
        values above rank r that equal v_r are interchangeable with
        the ones below, so rank-range sums are well-defined even when
        ties straddle a boundary).  No matched value ever leaves its
        shard."""
        if buckets < 1:
            raise ValueError("variable_width_histogram: buckets >= 1")
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        count_le = functools.partial(self._probe_sum, _grp_count_le, field,
                                     list(q_terms), mode, range_field)
        sum_le = functools.partial(self._probe_sum, _grp_sum_le, field,
                                   list(q_terms), mode, range_field,
                                   dtype=np.float64)
        st = self.stats_aggregation(query, range_field, field, mode,
                                    analyzer=analyzer)
        n = int(st.get("count") or 0)
        if n == 0:
            return []
        b = min(int(buckets), n)
        base, extra = divmod(n, b)
        sizes = [base + (1 if k < extra else 0) for k in range(b)]
        ends = np.cumsum(sizes)                       # 1-based end ranks
        starts = ends - np.asarray(sizes)             # 0-based start ranks
        ranks = sorted({int(r) for r in ends - 1} |
                       {int(r) for r in starts})
        found = _bisect_ranks(count_le, ranks, _f64_to_ord(st["min"]),
                              _f64_to_ord(st["max"]))
        bvals = sorted({found[int(e) - 1] for e in ends})
        cnts = dict(zip(bvals, count_le(bvals).tolist()))
        sums = dict(zip(bvals, sum_le(bvals).tolist()))

        def T(r: int) -> float:          # sum of values at ranks [0, r]
            v = found[r]
            return sums[v] - (cnts[v] - r - 1) * v

        out: list[dict] = []
        prev_t = 0.0
        for k in range(b):
            t = T(int(ends[k]) - 1)
            s = t - prev_t
            prev_t = t
            out.append({"key": s / sizes[k],
                        "min": found[int(starts[k])],
                        "max": found[int(ends[k]) - 1],
                        "doc_count": int(sizes[k]),
                        "sum": float(s)})
        return out

    def significant_text(self, query: str, field: str = "content",
                         text_field: str | None = None, mode: str = "or",
                         k: int = 10, analyzer: str | None = None,
                         max_terms: int = 65536
                         ) -> list[tuple[str, int, float]]:
        """OpenSearch ``significant_text`` (JLH): significant_terms
        over the ANALYZED terms of a text field instead of a keyword
        field — foreground = the query's match-set docs, background =
        all live docs, score = (fgPct - bgPct) * (fgPct / bgPct) with
        doc-count percentages.  This is a full-vocabulary scan (the
        expensive shape OpenSearch itself documents and recommends
        wrapping in a sampler); ``max_terms`` refuses unbounded
        censuses.  Each shard scans only its own dictionary and ships
        (term → fg, df) partials.  Returns [(term, fg_count, score)]
        sorted (score desc, term asc), top ``k``."""
        tf_field = text_field or field
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return []
        fg: dict[str, int] = {}
        df: dict[str, int] = {}
        fg_total = 0
        for f, d, n in self._scatter(_grp_sig_text, field, q_terms, mode,
                                     tf_field, max_terms):
            fg_total += n
            _add_counts(fg, f)
            _add_counts(df, d)
        if not fg or fg_total == 0:
            return []
        bg_total = float(int(self.stats["n_docs"]) - self.tombstones.size)
        out: list[tuple[str, int, float]] = []
        for t, n in fg.items():
            bgn = df.get(t, 0)
            if not bgn:
                continue
            fg_pct = n / float(fg_total)
            bg_pct = bgn / bg_total
            if fg_pct <= bg_pct:
                continue
            out.append((t, n, (fg_pct - bg_pct) * (fg_pct / bg_pct)))
        out.sort(key=lambda r: (-r[2], r[0]))
        return out[:k]

    def sampler_aggregation(self, query: str, agg_field: str,
                            shard_size: int = 100,
                            field: str = "content",
                            diversify_field: str | None = None,
                            max_docs_per_value: int = 1,
                            analyzer: str | None = None,
                            k1: float = K1, b: float = B
                            ) -> list[tuple[str, int]]:
        """OpenSearch ``sampler`` / ``diversified_sampler``: run the
        sub-aggregation (a terms agg over ``agg_field``) over only
        each shard's best-scoring ``shard_size`` docs — the
        cost-bounding foreground OpenSearch recommends wrapping
        significant/expensive aggs in.  ``diversify_field`` +
        ``max_docs_per_value`` cap same-value docs in the sample
        (diversified_sampler), collected in (score desc, doc asc)
        order.  Like OpenSearch, the sample is per SHARD: a
        doc-partitioned index samples each doc shard independently
        (partial count dicts travel, never doc ids), a term-routed
        index is one logical shard and samples globally.  Scoring uses
        global idf (the dfs round) so the sample is stable across
        shard counts of the same layout.  Returns [(value, count)]
        sorted (count desc, value asc)."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = [t for t in dict.fromkeys(an(query)) if t]
        if not q_terms:
            return []
        n_docs = int(self.stats["n_docs"])
        avgdl = float(self.stats["avgdl"][field])
        dfs = self._term_dfs(field, q_terms)
        idf = {t: float(idf_fn(dfs.get(t, 0), n_docs)) for t in q_terms}
        merged: dict[str, int] = {}
        for d in self._scatter(_grp_sampler, field, q_terms, shard_size,
                               agg_field, diversify_field,
                               max_docs_per_value, idf, n_docs, avgdl,
                               k1, b):
            _add_counts(merged, d)
        return sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))

    @_routed(_plan_terms)
    def terms_set_search(self, terms: list[str], field: str = "content",
                         msm_field: str | None = None,
                         minimum_should_match: int | None = None,
                         k: int = 10, k1: float = K1, b: float = B
                         ) -> list[tuple[float, int]]:
        """OpenSearch ``terms_set`` query: docs matching at least a
        minimum number of the given (pre-analyzed) terms, where the
        minimum is read PER DOC from a numeric field
        (``minimum_should_match_field``) or given as a constant; the
        score is the BM25 sum over the doc's matching terms (a bool
        should under Lucene's MinShouldMatchSumScorer).  Docs missing
        ``msm_field`` never match (no minimum to satisfy).  Needs the
        full match set (TAAT); per-doc match counts and field minima
        are shard-local, so with actors each doc shard runs it over its
        own slice.  Returns [(score, doc_id)]
        sorted (score desc, doc_id asc), top ``k``."""
        uniq = [t for t in dict.fromkeys(terms) if t]
        if not uniq or (msm_field is None and minimum_should_match is None):
            return []
        rows = self._gather(field, uniq)
        avgdl = float(self.stats["avgdl"][field])
        n_docs = int(self.stats["n_docs"])
        td = prepare_terms(uniq, rows, n_docs, avgdl, k1, b,
                           idf_by_term=self._idf_overrides,
                           exclude_ids=self.tombstones)
        hits = score_taat(td, 1 << 31, "or", avgdl, None, k1, b)
        if not hits:
            return []
        ids = np.fromiter((d for _, d in hits), np.uint64, count=len(hits))
        order = np.argsort(ids)
        sid = ids[order]
        nmatch = np.zeros(len(hits), dtype=np.int64)
        for t in uniq:
            trows = rows.get(t) or []
            if not trows:
                continue
            runs = [decode_postings(docs, tfs, norms, df).doc_ids
                    for df, docs, tfs, norms, *_ in trows]
            tids = (np.unique(np.concatenate(runs)) if len(runs) > 1
                    else runs[0])
            pos = np.minimum(np.searchsorted(sid, tids), sid.size - 1)
            m = sid[pos] == tids
            if m.any():
                nmatch[order[pos[m]]] += 1
        if msm_field is not None:
            from .shard import load_range_pairs
            req = np.zeros(len(hits), dtype=np.float64)
            have = np.zeros(len(hits), dtype=bool)
            for rvals, rids in load_range_pairs(self.index_dir, msm_field,
                                                dparts=self._local_parts):
                pos = np.minimum(np.searchsorted(sid, rids),
                                 max(sid.size - 1, 0))
                m = sid[pos] == rids
                if m.any():
                    req[order[pos[m]]] = rvals[m]
                    have[order[pos[m]]] = True
            keep = have & (nmatch >= req)
        else:
            keep = nmatch >= int(minimum_should_match)
        out = [(float(s), int(d))
               for (s, d), kp in zip(hits, keep) if kp]
        out.sort(key=lambda t: (-t[0], t[1]))
        return out[:k]

    def cardinality_aggregation(self, query: str, agg_field: str,
                                field: str = "content", mode: str = "or",
                                analyzer: str | None = None) -> int:
        """Distinct count of ``agg_field`` keyword values over ALL
        matching docs (OpenSearch cardinality agg; exact — the
        streaming-sketch variant for un-indexed columns is
        ``stages.sketches.hll_cardinality``).  Distributes per shard on
        doc-partitioned indexes exactly like terms_aggregation."""
        return len(self.terms_aggregation(query, agg_field, field, mode,
                                          analyzer))

    def histogram_aggregation(self, query: str, range_field: str,
                              interval: float, field: str = "content",
                              mode: str = "or",
                              analyzer: str | None = None,
                              min_doc_count: int = 1,
                              offset: float = 0.0,
                              extended_bounds: tuple[float, float]
                              | None = None
                              ) -> list[tuple[float, int]]:
        """Numeric histogram over the full match set (OpenSearch
        ``histogram`` agg): bucket =
        floor((value-offset)/interval)*interval + offset,
        counted via the doc-range-partitioned range tables — per part,
        one membership probe of the part's doc ids against the sorted
        candidate set.  ``min_doc_count=0`` fills the gaps between the
        first and last non-empty bucket with zero-count buckets — the
        OpenSearch date_histogram default that keeps dashboard line
        charts continuous (the fill happens on the coordinator over
        the reduced buckets, so the shard exchange is unchanged).
        Returns [(bucket_lo, count)] sorted by bucket."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        if not q_terms:
            return []
        counts: dict[float, int] = {}
        # per-shard bucket partials, summed here — values and doc
        # ids never leave their shard
        for d in self._scatter(_grp_hist, field, q_terms, mode,
                               range_field, interval, offset):
            _add_counts(counts, d)
        return _hist_fill(sorted(counts.items()), interval,
                          min_doc_count, offset, extended_bounds)

    def stats_aggregation(self, query: str, range_field: str,
                          field: str = "content", mode: str = "or",
                          quantiles: tuple[float, ...] = (),
                          quantile_method: str = "exact",
                          analyzer: str | None = None) -> dict:
        """stats / percentiles aggregation over the full match set
        (OpenSearch ``stats`` + ``percentiles`` aggs): count/min/max/
        avg/sum of the numeric field over matching docs, plus
        quantiles.  ``quantile_method='exact'`` gathers matched values
        and interpolates linearly (== DuckDB quantile_cont — the
        oracle-checkable path); ``'tdigest'`` merges O(delta) centroid
        partials instead (the 100-TB path, and what the reference's
        OpenSearch percentiles agg actually does per shard);
        ``'exact_distributed'`` returns the same bits as ``'exact'``
        via count-probes — no value ever leaves its shard."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        if not q_terms:
            return {"count": 0}
        qmode = ("none" if not quantiles else quantile_method)
        if qmode not in ("none", "exact", "tdigest", "exact_distributed"):
            raise ValueError(f"unknown quantile_method {quantile_method!r}")
        if qmode == "exact_distributed":
            return self._stats_exact_distributed(
                field, q_terms, mode, range_field, quantiles)
        # per-shard partials; values/digests ship only for quantiles
        parts = self._scatter(_grp_stats, field, q_terms, mode,
                              range_field, qmode)
        live = [d for d in parts if d["count"]]
        if not live:
            return {"count": 0}
        out = {"count": sum(d["count"] for d in live),
               "min": min(d["min"] for d in live),
               "max": max(d["max"] for d in live),
               "sum": float(sum(d["sum"] for d in live)),
               "sum_sq": float(sum(d["sum_sq"] for d in live))}
        out["avg"] = out["sum"] / out["count"]
        _extend_stats(out)
        if qmode == "exact":
            v = np.concatenate([np.asarray(d["values"]) for d in live])
            for q in quantiles:
                out[f"p{round(q * 100):02d}"] = float(np.quantile(v, q))
        elif qmode == "tdigest":
            from ..stages.sketches import TDigest
            td = TDigest()
            for d in live:
                td.merge(TDigest.from_arrays(*d["digest"]))
            for q in quantiles:
                out[f"p{round(q * 100):02d}"] = td.quantile(q)
        return out

    def percentile_ranks(self, query: str, range_field: str,
                         values: list[float], field: str = "content",
                         mode: str = "or", analyzer: str | None = None
                         ) -> list[tuple[float, float]]:
        """OpenSearch ``percentile_ranks`` (exact): for each probe
        value, the percent of the match set's ``range_field`` values
        <= it.  Runs on the distributed-exact machinery — each shard
        answers count-<=-probe over its OWN matched values
        (``_grp_count_le``, match set memoized shard-side); only
        len(values)+1 ints per shard travel, never a data value.
        Returns [(value, rank_pct)] in input order."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms or not values:
            return []
        probes = [float(v) for v in values] + [math.inf]
        pr = np.asarray(probes, dtype=np.float64)
        # per-shard count-<= partials sum correctly: each doc's
        # whole match decision is local to exactly one shard
        tot = self._probe_sum(_grp_count_le, field, list(q_terms), mode,
                              range_field, probes)
        n = int(tot[-1])
        if n == 0:
            return []
        return [(float(v), 100.0 * int(c) / n)
                for v, c in zip(values, tot[:-1])]

    def _stats_exact_distributed(self, field: str, q_terms: list[str],
                                 mode: str, range_field: str,
                                 quantiles: tuple[float, ...]) -> dict:
        """EXACT percentiles without shipping any matched value off
        its shard (contrast ``quantile_method='exact'``, which gathers
        the full matched value set on the driver — fine at bench
        scale, a corpus-sized pull at 100 TB).

        Protocol (classic distributed selection): round 1 collects the
        mergeable moments (count/min/max/sum) per shard; then each
        needed order statistic is located by bisection over the
        ordered-bits encoding of float64 (:func:`_f64_to_ord`), where
        every round asks each shard only "how many of YOUR matched
        values are <= these probes?" (``_grp_count_le``,
        match set memoized shard-side).  <= 64 tiny rounds, O(#ranks)
        floats per round per shard; the only data values the driver
        ever sees are the final order statistics themselves.  Output
        is bit-identical to ``quantile_method='exact'`` (same linear
        interpolation as np.quantile / DuckDB quantile_cont)."""
        parts = self._scatter(_grp_stats, field, q_terms, mode,
                              range_field, "none")
        count_le = functools.partial(self._probe_sum, _grp_count_le, field,
                                     list(q_terms), mode, range_field)
        live = [d for d in parts if d["count"]]
        if not live:
            return {"count": 0}
        n = sum(d["count"] for d in live)
        out = {"count": n, "min": min(d["min"] for d in live),
               "max": max(d["max"] for d in live),
               "sum": float(sum(d["sum"] for d in live)),
               "sum_sq": float(sum(d["sum_sq"] for d in live))}
        out["avg"] = out["sum"] / n
        _extend_stats(out)
        ranks = sorted({math.floor(q * (n - 1)) for q in quantiles} |
                       {math.ceil(q * (n - 1)) for q in quantiles})
        # per rank k: minimal ordinal m with count_le(f(m)) >= k+1;
        # counts jump only at data values, so f(m*) IS the k-th value
        found = _bisect_ranks(count_le, ranks, _f64_to_ord(out["min"]),
                              _f64_to_ord(out["max"]))
        for q in quantiles:
            h = q * (n - 1)
            k0, k1 = math.floor(h), math.ceil(h)
            v0, v1 = found[k0], found[k1]
            out[f"p{round(q * 100):02d}"] = float(v0 + (h - k0) * (v1 - v0))
        return out

    def value_count_aggregation(self, query: str, agg_field: str,
                                field: str = "content", mode: str = "or",
                                analyzer: str | None = None
                                ) -> tuple[int, int]:
        """OpenSearch ``value_count`` + ``missing`` aggs in one pass:
        (docs in the match set carrying ``agg_field``, docs missing
        it).  Presence comes from the packed filter postings for
        keyword fields (their doc lists ARE the field-exists index)
        and from the range-table ids for numeric fields (nulls never
        enter either structure).  Both counts are additive per shard
        (``_grp_presence`` — two ints travel per shard group; no
        value census, no posting gather)."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        if not q_terms:
            return (0, 0)
        is_range = agg_field in tuple(
            self.manifest["config"].get("range_fields") or ())
        pairs = self._scatter(_grp_presence, field, q_terms, mode,
                              agg_field, is_range)
        with_field = sum(w for w, _ in pairs)
        total = sum(n for _, n in pairs)
        return (int(with_field), int(total) - int(with_field))

    def mad_aggregation(self, query: str, range_field: str,
                        field: str = "content", mode: str = "or",
                        analyzer: str | None = None) -> float | None:
        """EXACT median absolute deviation of the match set's
        ``range_field`` values (OpenSearch ships an approximate
        ``median_absolute_deviation``; this one is exact — DuckDB
        ``mad()`` parity: median(|x - median(x)|), both medians
        linearly interpolated).

        Fully distributed: the median comes from the count-probe
        bisection (:meth:`_stats_exact_distributed`), then the
        deviation median bisects over shard-side TRANSFORMED values
        (``_grp_count_dev_le`` counts ``fl(|x - med|) <= d`` — the
        same float arithmetic as the reference np.median(np.abs(v -
        med)), so the result is exact by construction; probing
        ``x <= fl(med+d)`` instead would quantize at ulp(med)).  No
        matched value ever leaves its shard."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        q_terms = an(query)
        if not q_terms:
            return None
        st = self._stats_exact_distributed(field, q_terms, mode,
                                           range_field, (0.5,))
        if not st.get("count"):
            return None
        n = int(st["count"])
        med = float(st["p50"])
        dev_count_le = functools.partial(
            self._probe_sum, _grp_count_dev_le, field, list(q_terms),
            mode, range_field, med)

        # fl(|x-med|) <= max(|min-med|, |max-med|) holds for every x
        # (abs/sub round toward the true value, whose max is attained
        # at an endpoint) — bisect deviations in [0, that bound]
        max_dev = float(np.maximum(np.abs(float(st["min"]) - med),
                                   np.abs(float(st["max"]) - med)))
        ranks = sorted({math.floor(0.5 * (n - 1)),
                        math.ceil(0.5 * (n - 1))})
        # +4 ordinals of slack: an interior fl(|x-med|) can exceed the
        # endpoint-derived bound by an ulp or two of rounding
        found = _bisect_ranks(dev_count_le, ranks, _f64_to_ord(0.0),
                              _f64_to_ord(max_dev) + 4)
        h = 0.5 * (n - 1)
        k0, k1 = math.floor(h), math.ceil(h)
        return float(found[k0] + (h - k0) * (found[k1] - found[k0]))

    def range_aggregation(self, query: str, range_field: str,
                          ranges: list[tuple[float | None, float | None]],
                          field: str = "content", mode: str = "or",
                          analyzer: str | None = None
                          ) -> list[tuple[tuple[float | None, float | None],
                                          int]]:
        """OpenSearch ``range`` aggregation over the full match set:
        per (from-inclusive, to-exclusive) bucket, the count of
        matching docs' ``range_field`` values (open ends via None;
        every requested bucket is returned, zeros included — range-agg
        parity, unlike histogram's sparse buckets).  Per-shard bucket
        partials are summed here."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        if not q_terms:
            return [(rg, 0) for rg in ranges]
        totals = [0] * len(ranges)
        parts = self._scatter(_grp_range, field, q_terms, mode,
                              range_field, ranges)
        for row in parts:
            for i, n in enumerate(row):
                totals[i] += n
        return list(zip(ranges, totals))

    def date_range_aggregation(self, query: str, date_field: str,
                               ranges: list[tuple], field: str = "content",
                               mode: str = "or",
                               analyzer: str | None = None
                               ) -> list[tuple[str, int]]:
        """OpenSearch ``date_range`` aggregation: each (from, to) bucket
        counts matching docs whose epoch-valued ``date_field`` falls in
        [from, to) — from inclusive, to exclusive, open ends via None,
        every requested bucket returned (zeros included).  Bounds are
        ISO-8601 date/datetime strings (interpreted UTC, OpenSearch's
        default) or epoch-second floats.  Pure lowering onto
        ``range_aggregation``, so it inherits its layout-awareness
        (per-shard bucket partials on doc indexes)."""
        def to_epoch(v):
            if v is None or isinstance(v, (int, float)):
                return None if v is None else float(v)
            from datetime import datetime, timezone
            s = str(v)
            for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S",
                        "%Y-%m-%d"):
                try:
                    return datetime.strptime(s, fmt).replace(
                        tzinfo=timezone.utc).timestamp()
                except ValueError:
                    continue
            raise ValueError(f"unparseable date bound {v!r}")

        edges = [(to_epoch(lo), to_epoch(hi)) for lo, hi in ranges]
        counted = self.range_aggregation(query, date_field, edges,
                                         field=field, mode=mode,
                                         analyzer=analyzer)

        def lab(lo, hi):
            return (f"{'*' if lo is None else lo}"
                    f"-{'*' if hi is None else hi}")
        return [(lab(lo, hi), n)
                for (lo, hi), (_, n) in zip(ranges, counted)]

    def ip_range_aggregation(self, query: str, ip_field: str,
                             ranges: list, field: str = "content",
                             mode: str = "or",
                             analyzer: str | None = None
                             ) -> list[tuple[str, int]]:
        """OpenSearch ``ip_range`` aggregation over a keyword ip field:
        buckets are (from, to) ip-string pairs — from inclusive, to
        exclusive, open ends via None — or CIDR mask strings
        (``"10.0.0.0/9"``).  Buckets may overlap; every requested
        bucket is returned, zeros included.

        Execution reuses the terms-aggregation census (per-shard
        (value, count) partials on doc indexes — the distinct-ip
        census ships, never doc ids), then buckets the distinct values
        numerically driver-side.  IPv4 and IPv6 compare in one
        128-bit space, like the engine's interval enrich tables."""
        import ipaddress

        def ip_int(v) -> int | None:
            try:
                return int(ipaddress.ip_address(v))
            except ValueError:
                return None

        spec = []  # (label, lo_int|None, hi_int|None)
        for rg in ranges:
            if isinstance(rg, str):  # CIDR mask
                net = ipaddress.ip_network(rg, strict=False)
                spec.append((rg, int(net.network_address),
                             int(net.broadcast_address) + 1))
                continue
            lo, hi = rg
            lo_i = None if lo is None else ip_int(lo)
            hi_i = None if hi is None else ip_int(hi)
            if (lo is not None and lo_i is None) or \
               (hi is not None and hi_i is None):
                raise ValueError(f"unparseable ip bound in {rg!r}")
            spec.append((f"{'*' if lo is None else lo}"
                         f"-{'*' if hi is None else hi}", lo_i, hi_i))

        census = self.terms_aggregation(query, ip_field, field=field,
                                        mode=mode, analyzer=analyzer)
        vals = np.array([ip_int(v) for v, _ in census], dtype=object)
        cnts = np.array([n for _, n in census], dtype=np.int64)
        out: list[tuple[str, int]] = []
        for label, lo_i, hi_i in spec:
            total = 0
            for v, n in zip(vals, cnts):
                if v is None:
                    continue
                if lo_i is not None and v < lo_i:
                    continue
                if hi_i is not None and v >= hi_i:
                    continue
                total += int(n)
            out.append((label, total))
        return out

    def ip_prefix_aggregation(self, query: str, ip_field: str,
                              prefix_length: int, field: str = "content",
                              mode: str = "or",
                              analyzer: str | None = None,
                              is_ipv6: bool = False,
                              min_doc_count: int = 1
                              ) -> list[tuple[str, int]]:
        """OpenSearch ``ip_prefix`` aggregation over a keyword ip
        field: bucket the match set by the ``prefix_length``-bit
        network prefix; bucket key = the masked network address
        string, buckets ordered by key ascending, buckets under
        ``min_doc_count`` omitted (OpenSearch default 1).  Mixed
        families are filtered by ``is_ipv6`` (the OpenSearch
        parameter).  Execution reuses the terms-aggregation census
        (per-shard (value, count) partials — the
        distinct-ip census ships, never doc ids); masking and the
        bucket sum are a driver-side pass over distinct values."""
        import ipaddress
        bits = 128 if is_ipv6 else 32
        if not 0 <= int(prefix_length) <= bits:
            raise ValueError(f"prefix_length must be in [0, {bits}]")
        shift = bits - int(prefix_length)
        census = self.terms_aggregation(query, ip_field, field=field,
                                        mode=mode, analyzer=analyzer)
        agg: dict[int, int] = {}
        for v, n in census:
            try:
                a = ipaddress.ip_address(v)
            except ValueError:
                continue
            if (a.version == 6) != bool(is_ipv6):
                continue
            key = (int(a) >> shift) << shift
            agg[key] = agg.get(key, 0) + int(n)
        return [(str(ipaddress.ip_address(ki)
                     if not is_ipv6 else ipaddress.IPv6Address(ki)), n)
                for ki, n in sorted(agg.items()) if n >= min_doc_count]

    def _comoments_all(self, query: str, f1: str, f2: str, field: str,
                       mode: str, analyzer: str | None) -> dict:
        """Merged co-moments over the match set's docs having BOTH
        numeric fields: per-shard six-number partials summed here."""
        if analyzer is None:
            analyzer = next((a for f, _, a in
                             self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        zero = {"n": 0, "sx": 0.0, "sy": 0.0,
                "sxx": 0.0, "syy": 0.0, "sxy": 0.0}
        if not q_terms:
            return zero
        for part in self._scatter(_grp_comoments, field, list(q_terms),
                                  mode, f1, f2):
            _add_counts(zero, part)
        return zero

    def matrix_stats(self, query: str, fields: tuple[str, str],
                     field: str = "content", mode: str = "or",
                     analyzer: str | None = None) -> dict:
        """OpenSearch ``matrix_stats`` for a two-field matrix: doc
        count, per-field mean/variance (population), covariance
        (population) and Pearson correlation, over matching docs that
        carry BOTH fields (OpenSearch skips docs missing any requested
        field).  Exact-distributed: each shard ships six mergeable
        sums; the driver derives the matrix — no value or doc id
        centralizes, the OpenSearch shard-reduce shape."""
        f1, f2 = fields
        c = self._comoments_all(query, f1, f2, field, mode, analyzer)
        n = c["n"]
        if n == 0:
            return {"count": 0}
        mean_x, mean_y = c["sx"] / n, c["sy"] / n
        var_x = (c["sxx"] - c["sx"] * c["sx"] / n) / n
        var_y = (c["syy"] - c["sy"] * c["sy"] / n) / n
        cov = (c["sxy"] - c["sx"] * c["sy"] / n) / n
        denom = math.sqrt(var_x * var_y)
        corr = cov / denom if denom > 0 else None
        return {"count": n, "mean": {f1: mean_x, f2: mean_y},
                "variance": {f1: var_x, f2: var_y},
                "covariance": cov, "correlation": corr,
                "sums": {"sx": c["sx"], "sy": c["sy"], "sxx": c["sxx"],
                         "syy": c["syy"], "sxy": c["sxy"]}}

    def weighted_avg(self, query: str, value_field: str,
                     weight_field: str, field: str = "content",
                     mode: str = "or",
                     analyzer: str | None = None) -> dict:
        """OpenSearch ``weighted_avg``: sum(value*weight)/sum(weight)
        over matching docs carrying both fields (the OpenSearch
        default skips docs missing either when no ``missing`` is
        configured).  Rides the same six-sum co-moment partial as
        matrix_stats — sxy IS sum(value*weight) and sy IS
        sum(weight)."""
        c = self._comoments_all(query, value_field, weight_field,
                                field, mode, analyzer)
        if c["n"] == 0 or c["sy"] == 0:
            return {"count": c["n"], "value": None}
        return {"count": c["n"], "value": c["sxy"] / c["sy"],
                "sum_vw": c["sxy"], "sum_w": c["sy"]}

    def t_test(self, query: str, field_a: str, field_b: str,
               field: str = "content", mode: str = "or",
               test_type: str = "paired",
               analyzer: str | None = None) -> dict:
        """OpenSearch ``t_test``: Student's t-value for the difference
        between two numeric fields over matching docs carrying both.
        ``paired`` (the a/b-fields form): t = mean(d) / (sd(d)/sqrt(n))
        with d = a - b and the n-1 sample variance — derived ENTIRELY
        from the same six mergeable co-moment sums matrix_stats ships
        (var(d) sums sxx - 2sxy + syy), so no per-doc value travels.
        ``heteroscedastic`` (Welch) treats the two fields as
        independent samples over the same match set.  Returns {count,
        t_value} (t_value None when n < 2 or the variance is 0)."""
        c = self._comoments_all(query, field_a, field_b, field, mode,
                                analyzer)
        n = c["n"]
        if n < 2:
            return {"count": n, "t_value": None}
        if test_type == "paired":
            mean_d = (c["sx"] - c["sy"]) / n
            # sum((a-b)^2) = sxx - 2 sxy + syy
            ss_d = c["sxx"] - 2 * c["sxy"] + c["syy"]
            var_d = (ss_d - n * mean_d * mean_d) / (n - 1)
            if var_d <= 0:
                return {"count": n, "t_value": None}
            return {"count": n,
                    "t_value": mean_d / math.sqrt(var_d / n)}
        if test_type == "heteroscedastic":
            ma, mb = c["sx"] / n, c["sy"] / n
            va = (c["sxx"] - n * ma * ma) / (n - 1)
            vb = (c["syy"] - n * mb * mb) / (n - 1)
            denom = math.sqrt(va / n + vb / n)
            if denom == 0:
                return {"count": n, "t_value": None}
            return {"count": n, "t_value": (ma - mb) / denom}
        raise ValueError(f"unknown t_test type {test_type!r}")

    def top_metrics(self, sort_field: str, metrics: list[str],
                    desc: bool = True, size: int = 1, query: str = "",
                    field: str = "content", mode: str = "or",
                    analyzer: str | None = None) -> list[dict]:
        """OpenSearch ``top_metrics``: the requested numeric fields'
        values at the top ``size`` docs under (sort_field desc|asc,
        doc_id asc).  The sorted selection is Discover's
        boundary-bisect shard partial (``field_sorted_search`` — each
        shard ships ``size`` rows); only the winners' metric values
        are then aligned from the range tables (``size`` docs, not the
        match set).  Docs missing a metric field report None
        (OpenSearch: null)."""
        hits = self.field_sorted_search(sort_field, k=size, desc=desc,
                                        query=query, field=field,
                                        mode=mode, analyzer=analyzer)
        if not hits:
            return []
        ids = np.array(sorted(d for _, d in hits), dtype=np.uint64)
        aligned = _aligned_field_values(self.index_dir, ids,
                                        tuple(metrics), dparts=None)
        by_id = {}
        for i, d in enumerate(ids):
            row = {}
            for j, m in enumerate(metrics):
                vals, have = aligned[2 * j], aligned[2 * j + 1]
                row[m] = float(vals[i]) if have[i] else None
            by_id[int(d)] = row
        return [{"sort": float(v), "doc_id": int(d),
                 "metrics": by_id[int(d)]} for v, d in hits]

    def filters_aggregation(self, filters: dict[str, tuple[str, str]],
                            field: str = "content",
                            analyzer: str | None = None,
                            other_bucket_key: str | None = None
                            ) -> dict[str, int]:
        """OpenSearch ``filters`` aggregation: named sub-queries, each
        counted over its own full match set — ``filters`` maps bucket
        name → (query, mode).  Doc-sharded indexes sum per-shard
        count partials (doc ids never centralize).

        ``other_bucket_key`` adds OpenSearch's ``other_bucket``: live
        docs matching NONE of the named filters, computed as
        global-live minus the union of the match sets — per shard
        (doc ranges are disjoint, so shard-local unions sum exactly;
        one int per shard travels)."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        out: dict[str, int] = {}
        specs = {name: ANALYZERS[analyzer](query)
                 for name, (query, _mode) in filters.items()}
        for name, (query, mode) in filters.items():
            q_terms = specs[name]
            if not q_terms:
                out[name] = 0
                continue
            out[name] = sum(self._scatter(_grp_count, field, q_terms,
                                          mode))
        if other_bucket_key is not None:
            live = [(list(specs[name]), mode)
                    for name, (_q, mode) in filters.items() if specs[name]]
            n_live = int(self.stats["n_docs"]) - int(self.tombstones.size)
            union = sum(self._scatter(_grp_filters_union, field, live))
            out[other_bucket_key] = n_live - union
        return out

    def adjacency_matrix(self, filters: dict[str, tuple[str, str]],
                         field: str = "content",
                         analyzer: str | None = None) -> dict[str, int]:
        """OpenSearch ``adjacency_matrix``: one bucket per named filter
        plus one per pair intersection keyed ``"a&b"`` (names in given
        order), zero buckets omitted.  Per-shard singles+pairs partials
        are summed here (doc ranges are disjoint, so shard-local
        intersections are exact)."""
        if analyzer is None:
            analyzer = next((a for f, _, a in
                             self.manifest["config"]["fields"]
                             if f == field), "code")
        specs = [(name, ANALYZERS[analyzer](query), mode)
                 for name, (query, mode) in filters.items()]
        specs = [(n, t, m) for n, t, m in specs if t]
        out: dict[str, int] = {}
        for d in self._scatter(_grp_adjacency, field,
                               [(n, list(t), m) for n, t, m in specs]):
            _add_counts(out, d)
        return out

    # auto_date_histogram interval ladder, in seconds — the OpenSearch
    # rounding units (1s 5s 10s 30s 1m 5m 10m 30m 1h 3h 12h 1d 7d ~1M
    # ~3M ~1y as fixed-width steps), extended by decimal multiples of a
    # year for arbitrarily wide spans (documented divergence: OpenSearch
    # uses calendar-aware months/years; fixed widths keep the oracle
    # exact)
    AUTO_HIST_LADDER = (1, 5, 10, 30, 60, 300, 600, 1800, 3600, 10800,
                        43200, 86400, 604800, 2592000, 7776000,
                        31536000, 315360000, 3153600000)

    def auto_date_histogram(self, query: str, date_field: str,
                            target_buckets: int = 10,
                            field: str = "content", mode: str = "or",
                            analyzer: str | None = None
                            ) -> tuple[float, list[tuple[float, int]]]:
        """OpenSearch ``auto_date_histogram``: picks the smallest
        ladder interval whose aligned bucket count fits
        ``target_buckets``, then runs the histogram at that interval.
        Returns (interval_seconds, buckets).  The min/max round is the
        exact-distributed stats partial (no value ships)."""
        st = self.stats_aggregation(query, date_field, field=field,
                                    mode=mode, quantiles=(),
                                    quantile_method="exact_distributed")
        if st.get("count", 0) == 0:
            return float(self.AUTO_HIST_LADDER[0]), []
        lo, hi = st["min"], st["max"]
        interval = float(self.AUTO_HIST_LADDER[-1])
        for step in self.AUTO_HIST_LADDER:
            n = math.floor(hi / step) - math.floor(lo / step) + 1
            if n <= target_buckets:
                interval = float(step)
                break
        return interval, self.histogram_aggregation(
            query, date_field, interval, field=field, mode=mode)

    def composite_aggregation(self, sources: list[str],
                              query: str | None = None,
                              field: str = "content", mode: str = "or",
                              size: int = 10,
                              after: tuple | None = None,
                              analyzer: str | None = None
                              ) -> tuple[list[tuple[tuple, int]],
                                         tuple | None]:
        """OpenSearch ``composite`` aggregation: buckets keyed by the
        TUPLE of the ``sources`` keyword fields' values, ordered by
        key ascending, paged ``size`` at a time via the ``after`` key
        (resume strictly after it).  ``query=None`` matches all live
        docs carrying every source field (no missing_bucket).
        Returns (buckets, after_key) — feed after_key back to get the
        next page; after_key is None when the page is not full (last
        page, OpenSearch's stop condition).

        Scale note: partials are per-(shard-)part tuple→count dicts
        whose size is bounded by the key-tuple cardinality, not the
        doc count; the page cut happens once, at the driver."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms: list[str] | None = None
        if query is not None:
            q_terms = ANALYZERS[analyzer](query)
            if not q_terms:
                return [], None
        counts: dict[tuple, int] = {}
        for d in self._scatter(_grp_composite, sources, field, q_terms,
                               mode):
            _add_counts(counts, d)
        keys = sorted(counts)
        if after is not None:
            keys = [k for k in keys if k > tuple(after)]
        page = [(k, counts[k]) for k in keys[:size]]
        after_key = page[-1][0] if len(page) == size else None
        return page, after_key

    # --- span queries ---

    @staticmethod
    def _ordered_tuple_count(plists: list[np.ndarray], slop: int) -> int:
        """Number of strictly-increasing position tuples (one position
        per term, in term order) whose span (last-first+1) is at most
        len(terms)+slop.  DP per anchor: chains counted with cumulative
        sums over each term's in-window positions."""
        k = len(plists)
        if k == 1:
            return int(plists[0].size)
        total = 0
        reach = k - 1 + slop
        for p1 in plists[0]:
            hi = int(p1) + reach
            prev_pos = np.array([int(p1)], dtype=np.int64)
            prev_cnt = np.array([1], dtype=np.int64)
            ok = True
            for i in range(1, k):
                pi = plists[i]
                cand = pi[(pi > int(p1)) & (pi <= hi)].astype(np.int64)
                if cand.size == 0:
                    ok = False
                    break
                cum = np.cumsum(prev_cnt)
                idx = np.searchsorted(prev_pos, cand, side="left")
                cnt = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0)
                keep = cnt > 0
                cand, cnt = cand[keep], cnt[keep]
                if cand.size == 0:
                    ok = False
                    break
                prev_pos, prev_cnt = cand, cnt
            if ok:
                total += int(prev_cnt.sum())
        return total

    @staticmethod
    def _unordered_tuple_count(plists: list[np.ndarray], slop: int) -> int:
        """Number of position tuples (one per term, ANY order, all
        positions distinct) whose span (max-min+1) is at most
        len(terms)+slop — the ``in_order: false`` counting rule.
        k=2 is fully vectorized (searchsorted window counts); k>2
        recurses over window-pruned candidates (position lists are
        per-doc and bounded by doc length, so the enumeration is
        local and small)."""
        k = len(plists)
        reach = k - 1 + slop
        if k == 1:
            return int(plists[0].size)
        if k == 2:
            a, b = plists
            lo = np.searchsorted(b, a - reach, side="left")
            hi = np.searchsorted(b, a + reach, side="right")
            in_win = (hi - lo).sum()
            # distinctness: drop pairs landing on the same position
            eq = np.searchsorted(b, a, side="right") \
                - np.searchsorted(b, a, side="left")
            return int(in_win - eq.sum())

        def rec(i: int, chosen: list[int], lo: int, hi: int) -> int:
            if i == k:
                return 1
            p = plists[i]
            cand = p[(p >= hi - reach) & (p <= lo + reach)]
            total = 0
            for v in cand:
                v = int(v)
                if v in chosen:
                    continue
                total += rec(i + 1, chosen + [v], min(lo, v), max(hi, v))
            return total

        total = 0
        for p0 in plists[0]:
            total += rec(1, [int(p0)], int(p0), int(p0))
        return total

    @_routed(_no_dfs)
    def span_near(self, terms: list[str], field: str = "content",
                  slop: int = 0, k: int = 10,
                  analyzer: str | None = None,
                  in_order: bool = True) -> list[tuple[int, int]]:
        """Span-near query (OpenSearch ``span_near``): a doc matches
        when its positions admit a tuple, one position per term, with
        span <= len(terms)+slop.  ``in_order=True`` requires the tuple
        strictly increasing in term order (slop=0 over adjacent terms
        degenerates to the exact phrase); ``in_order=False`` accepts
        any order with distinct positions.  The reported count is the
        number of such tuples.  Requires a positional index.  Returns
        [(span_count, doc_id)] sorted (count desc, doc_id asc)."""
        if not self.manifest["config"].get("store_positions"):
            raise ValueError(
                "index was built without positions (IndexConfig."
                "store_positions=True required for span queries)")
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        an = ANALYZERS[analyzer]
        toks: list[str] = []
        for s in terms:
            t = an(s)
            if len(t) != 1:
                raise ValueError(
                    f"span clause {s!r} analyzes to {len(t)} tokens; "
                    "each span clause must be a single term")
            toks.append(t[0])
        rows = self._gather(field, toks)
        pterms: list[_PhraseTerm] = []
        for tok in toks:
            r = rows.get(tok)
            if not r:
                return []
            pterms.append(_PhraseTerm(0, r))
        ordered = sorted(pterms, key=lambda t: t.df)
        base = ordered[0].all_docs()
        for t in ordered[1:]:
            if base.size == 0:
                return []
            docs = t.all_docs()
            pos = np.minimum(np.searchsorted(docs, base),
                             max(docs.size - 1, 0))
            base = base[docs[pos] == base] if docs.size else base[:0]
        if self.tombstones.size and base.size:
            base = base[_excl_mask(base, self.tombstones)]
        out: list[tuple[int, int]] = []
        for d in base:
            plists = []
            ok = True
            for t in pterms:
                p = t.positions_for(d)
                if p is None:
                    ok = False
                    break
                plists.append(np.sort(p.astype(np.int64)))
            if not ok:
                continue
            n = (self._ordered_tuple_count(plists, slop) if in_order
                 else self._unordered_tuple_count(plists, slop))
            if n:
                out.append((n, int(d)))
        out.sort(key=lambda cd: (-cd[0], cd[1]))
        return out[:k]

    # --- span algebra (span_term / span_near / span_or / span_first /
    #     span_not), reference: OpenSearch span query family ---

    def _span_normalize(self, expr, an, field: str = "content") -> tuple:
        """Normalize a nested span expression into tuple nodes,
        analyzing each leaf to exactly one token.  Accepted input:
        a bare string, {"span_term": s}, {"span_near": {"clauses":
        [...], "slop": n, "in_order": b}}, {"span_or": {"clauses":
        [...]}}, {"span_first": {"match": e, "end": n}},
        {"span_not": {"include": e, "exclude": e}},
        {"span_containing": {"big": e, "little": e}},
        {"span_within": {"little": e, "big": e}},
        {"field_masking_span": {"query": e, "field": f}} (Lucene
        SpanFieldMaskingQuery — the inner span evaluates against
        field ``f``'s postings/positions and composes here.
        Deviation: ``field`` names the SOURCE field the inner span
        reads, the inverse of OpenSearch, where ``field`` is the
        masked-as (outer) field and the inner query names its own
        source; the engine's bare-string leaves carry no field, so
        a ported query that sets ``field`` to the outer field is a
        no-op here),
        {"span_multi": {"match": {"prefix"|"wildcard"|"regexp"|
        "fuzzy": {field: pattern}}}} (Lucene SpanMultiTermQuery-
        Wrapper — the pattern expands against the term dictionary
        into a span_or of term leaves, same sublinear probes as the
        flat multi-term queries)."""
        if isinstance(expr, str):
            t = an(expr)
            if len(t) != 1:
                raise ValueError(
                    f"span clause {expr!r} analyzes to {len(t)} tokens; "
                    "each span leaf must be a single term")
            return ("term", t[0])
        if not isinstance(expr, dict) or len(expr) != 1:
            raise ValueError(f"bad span expression: {expr!r}")
        kind, body = next(iter(expr.items()))
        if kind == "span_term":
            return self._span_normalize(body, an, field)
        if kind == "span_near":
            cl = [self._span_normalize(c, an, field)
                  for c in body["clauses"]]
            if not cl:
                raise ValueError("span_near requires clauses")
            return ("near", cl, int(body.get("slop", 0)),
                    bool(body.get("in_order", True)))
        if kind == "span_or":
            cl = [self._span_normalize(c, an, field)
                  for c in body["clauses"]]
            if not cl:
                raise ValueError("span_or requires clauses")
            return ("or", cl)
        if kind == "span_first":
            return ("first", self._span_normalize(body["match"], an, field),
                    int(body["end"]))
        if kind == "span_not":
            return ("not",
                    self._span_normalize(body["include"], an, field),
                    self._span_normalize(body["exclude"], an, field))
        if kind == "span_containing":
            return ("containing",
                    self._span_normalize(body["big"], an, field),
                    self._span_normalize(body["little"], an, field))
        if kind == "span_within":
            return ("within",
                    self._span_normalize(body["little"], an, field),
                    self._span_normalize(body["big"], an, field))
        if kind == "field_masking_span":
            # Lucene SpanFieldMaskingQuery: evaluate the inner span
            # against ANOTHER field's postings/positions while letting
            # it compose with this field's spans (the classic use:
            # one text analyzed into sibling fields with aligned
            # positions).  Term leaves remap to masked tokens carrying
            # their field, so the gather step pulls each leaf from the
            # right field and the position algebra composes unchanged
            # — Lucene's exact semantics (positions compare raw).
            alt = body["field"]
            an2 = ANALYZERS[self._analyzer_for(alt, None)]
            inner = self._span_normalize(body["query"], an2, alt)
            return self._mask_span_node(inner, alt)
        if kind == "span_multi":
            mk, mb = next(iter(body["match"].items()))
            if mk not in ("prefix", "wildcard", "regexp", "fuzzy"):
                raise ValueError(f"span_multi: {mk!r} unsupported "
                                 "(prefix/wildcard/regexp/fuzzy)")
            mf, v = next(iter(mb.items()))
            if mf != field:
                raise ValueError(
                    f"span_multi field {mf!r} != span query field "
                    f"{field!r} (span queries are single-field)")
            fz = 0
            if isinstance(v, dict):
                fz = int(v.get("fuzziness", 2)) if mk == "fuzzy" else 0
                v = v.get("value", v.get(mk))
            elif mk == "fuzzy":
                fz = 2
            terms = self.expand_terms(str(v), field, mk, fuzziness=fz)
            if not terms:
                # a dictionary miss matches nothing; the sentinel term
                # can never exist (terms are lowercase-analyzed)
                return ("term", "\x00span_multi_no_match")
            return ("or", [("term", t) for t in terms])
        raise ValueError(f"unknown span clause kind {kind!r}")

    _MASK_PREFIX = "\x00mask\x1f"

    @classmethod
    def _mask_span_node(cls, node: tuple, alt: str) -> tuple:
        """Rewrite every term leaf of a normalized span node to the
        masked token ``\\x00mask\\x1f<field>\\x1f<term>`` (the gather
        step decodes it back to (field, term))."""
        if node[0] == "term":
            return ("term", f"{cls._MASK_PREFIX}{alt}\x1f{node[1]}")
        if node[0] == "near":
            return ("near", [cls._mask_span_node(c, alt)
                             for c in node[1]], node[2], node[3])
        if node[0] == "or":
            return ("or", [cls._mask_span_node(c, alt)
                           for c in node[1]])
        if node[0] == "first":
            return ("first", cls._mask_span_node(node[1], alt), node[2])
        return (node[0], cls._mask_span_node(node[1], alt),
                cls._mask_span_node(node[2], alt))

    @staticmethod
    def _span_tokens(node: tuple) -> list[str]:
        if node[0] == "term":
            return [node[1]]
        if node[0] in ("near", "or"):
            return [t for c in node[1] for t in Searcher._span_tokens(c)]
        if node[0] == "first":
            return Searcher._span_tokens(node[1])
        return (Searcher._span_tokens(node[1])
                + Searcher._span_tokens(node[2]))

    @staticmethod
    def _span_docs(node: tuple, pterms: dict) -> np.ndarray:
        """Candidate doc ids for a span node — set algebra over the
        terms' sorted posting doc arrays (ids only; no positions are
        decoded until per-doc evaluation).  span_not keeps the include
        side's docs: the exclude side only prunes spans."""
        if node[0] == "term":
            t = pterms.get(node[1])
            return t.all_docs() if t is not None else np.zeros(0, np.uint64)
        if node[0] == "near":
            base = Searcher._span_docs(node[1][0], pterms)
            for c in node[1][1:]:
                if base.size == 0:
                    return base
                docs = Searcher._span_docs(c, pterms)
                pos = np.minimum(np.searchsorted(docs, base),
                                 max(docs.size - 1, 0))
                base = base[docs[pos] == base] if docs.size else base[:0]
            return base
        if node[0] == "or":
            sets = [Searcher._span_docs(c, pterms) for c in node[1]]
            if len(sets) == 1:
                return sets[0]
            # union1d is binary; a span_or fans out arbitrarily wide
            # (span_multi expansions especially)
            return np.unique(np.concatenate(sets))
        if node[0] == "first":
            return Searcher._span_docs(node[1], pterms)
        if node[0] in ("containing", "within"):
            # both sides must produce spans in the doc — intersect
            base = Searcher._span_docs(node[1], pterms)
            docs = Searcher._span_docs(node[2], pterms)
            if base.size == 0 or docs.size == 0:
                return base[:0]
            pos = np.minimum(np.searchsorted(docs, base), docs.size - 1)
            return base[docs[pos] == base]
        return Searcher._span_docs(node[1], pterms)

    @staticmethod
    def _span_eval(node: tuple, d, pterms: dict) -> list[tuple[int, int]]:
        """All matching spans of ``node`` in doc ``d`` as (start,
        end-exclusive) pairs — one entry PER MATCH (near combinations
        sharing an interval are counted separately, matching
        span_near's tuple-count semantics)."""
        if node[0] == "term":
            t = pterms.get(node[1])
            p = t.positions_for(d) if t is not None else None
            if p is None:
                return []
            return [(int(x), int(x) + 1) for x in np.sort(p)]
        if node[0] == "or":
            out = []
            for c in node[1]:
                out.extend(Searcher._span_eval(c, d, pterms))
            out.sort()
            return out
        if node[0] == "first":
            return [(s, e) for s, e in
                    Searcher._span_eval(node[1], d, pterms)
                    if e <= node[2]]
        if node[0] == "not":
            inc = Searcher._span_eval(node[1], d, pterms)
            if not inc:
                return []
            exc = Searcher._span_eval(node[2], d, pterms)
            return [(s, e) for s, e in inc
                    if not any(s < xe and xs < e for xs, xe in exc)]
        if node[0] == "containing":
            # big spans that ENCLOSE at least one little span
            big = Searcher._span_eval(node[1], d, pterms)
            if not big:
                return []
            little = Searcher._span_eval(node[2], d, pterms)
            return [(s, e) for s, e in big
                    if any(s <= ls and le <= e for ls, le in little)]
        if node[0] == "within":
            # little spans enclosed by at least one big span
            little = Searcher._span_eval(node[1], d, pterms)
            if not little:
                return []
            big = Searcher._span_eval(node[2], d, pterms)
            return [(ls, le) for ls, le in little
                    if any(s <= ls and le <= e for s, e in big)]
        # near: one span per clause; in_order chains each clause's
        # span strictly after the previous (start >= prev end), else
        # any arrangement with pairwise-disjoint spans; Lucene slack
        # rule: total width minus sum of clause widths <= slop
        _, clauses, slop, in_order = node
        child = [Searcher._span_eval(c, d, pterms) for c in clauses]
        if any(not cs for cs in child):
            return []
        out: list[tuple[int, int]] = []
        k = len(child)

        def rec(i: int, chosen: list[tuple[int, int]],
                ss: int, ee: int, tot: int) -> None:
            # the slack bound prunes mid-chain only for in_order
            # (slack is monotone there); an unordered clause can land
            # inside a gap and REDUCE slack, so it checks at the end
            if (ee - ss) - tot > slop and (in_order or i == k):
                return
            if i == k:
                out.append((ss, ee))
                return
            for sp in child[i]:
                if in_order:
                    if chosen and sp[0] < chosen[-1][1]:
                        continue
                elif any(sp[0] < e and s < sp[1] for s, e in chosen):
                    continue
                rec(i + 1, chosen + [sp], min(ss, sp[0]), max(ee, sp[1]),
                    tot + (sp[1] - sp[0]))

        for sp in child[0]:
            rec(1, [sp], sp[0], sp[1], sp[1] - sp[0])
        return out

    @_routed(_no_dfs)
    def span_query(self, expr, field: str = "content", k: int = 10,
                   analyzer: str | None = None) -> list[tuple[int, int]]:
        """Composable span query (OpenSearch span family): evaluate a
        nested span expression — see :meth:`_span_normalize` for the
        accepted shapes — and return [(match_count, doc_id)] sorted
        (count desc, doc_id asc).  A top-level span_near of plain
        terms counts exactly like :meth:`span_near`.  Requires a
        positional index; candidate docs come from posting-list set
        algebra, positions decode lazily per surviving candidate."""
        if not self.manifest["config"].get("store_positions"):
            raise ValueError(
                "index was built without positions (IndexConfig."
                "store_positions=True required for span queries)")
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        node = self._span_normalize(expr, ANALYZERS[analyzer], field)
        toks = list(dict.fromkeys(self._span_tokens(node)))
        plain = [t for t in toks if not t.startswith(self._MASK_PREFIX)]
        rows = self._gather(field, plain)
        pterms = {t: _PhraseTerm(0, rows[t]) for t in plain
                  if rows.get(t)}
        for t in toks:
            if t.startswith(self._MASK_PREFIX):
                _, alt, term = t.split("\x1f", 2)
                r2 = self._gather(alt, [term]).get(term)
                if r2:
                    pterms[t] = _PhraseTerm(0, r2)
        docs = self._span_docs(node, pterms)
        if self.tombstones.size and docs.size:
            docs = docs[_excl_mask(docs, self.tombstones)]
        out: list[tuple[int, int]] = []
        for d in docs:
            n = len(self._span_eval(node, d, pterms))
            if n:
                out.append((n, int(d)))
        out.sort(key=lambda cd: (-cd[0], cd[1]))
        return out[:k]

    _INTERVALS_UNBOUNDED = 1 << 30

    @classmethod
    def _intervals_to_span(cls, rule: dict, an) -> dict:
        """Translate an OpenSearch ``intervals`` rule onto the span
        algebra.  ``match`` (query / max_gaps, default -1 = unbounded /
        ordered, default False) becomes span_term or span_near;
        ``any_of`` becomes span_or; ``all_of`` becomes span_near over
        its translated sub-intervals.  Unsupported rule kinds (prefix,
        wildcard, fuzzy, regexp sources; filters) raise ValueError."""
        if not isinstance(rule, dict) or len(rule) != 1:
            raise ValueError(f"intervals: expected a single-rule object, "
                             f"got {rule!r}")
        kind, spec = next(iter(rule.items()))
        if kind == "match":
            toks = an(str(spec.get("query", "")))
            if not toks:
                raise ValueError("intervals.match: empty query after "
                                 "analysis")
            if len(toks) == 1:
                return {"span_term": toks[0]}
            g = int(spec.get("max_gaps", -1))
            return {"span_near": {
                "clauses": [{"span_term": t} for t in toks],
                "slop": cls._INTERVALS_UNBOUNDED if g < 0 else g,
                "in_order": bool(spec.get("ordered", False))}}
        if kind == "any_of":
            subs = spec.get("intervals") or []
            if not subs:
                raise ValueError("intervals.any_of requires intervals")
            return {"span_or": {"clauses": [
                cls._intervals_to_span(r, an) for r in subs]}}
        if kind == "all_of":
            subs = spec.get("intervals") or []
            if not subs:
                raise ValueError("intervals.all_of requires intervals")
            g = int(spec.get("max_gaps", -1))
            return {"span_near": {
                "clauses": [cls._intervals_to_span(r, an) for r in subs],
                "slop": cls._INTERVALS_UNBOUNDED if g < 0 else g,
                "in_order": bool(spec.get("ordered", False))}}
        raise ValueError(f"intervals rule {kind!r} is not supported "
                         "(match / any_of / all_of)")

    def intervals_query(self, field: str, rule: dict, k: int = 10,
                        analyzer: str | None = None
                        ) -> list[tuple[int, int]]:
        """OpenSearch ``intervals`` query (match / any_of / all_of with
        max_gaps + ordered) lowered onto the composable span algebra —
        returns [(interval_count, doc_id)] sorted (count desc, doc_id
        asc).  Counts enumerate matching position tuples (the span
        evaluator's semantics) rather than Lucene's minimal-interval
        algebra — the matched DOC SET coincides for these rule shapes
        (documented deviation).  Requires a positional index."""
        an = ANALYZERS[self._analyzer_for(field, analyzer)]
        node = self._intervals_to_span(rule, an)
        return self.span_query(node, field=field, k=k, analyzer=analyzer)

    @staticmethod
    def _sloppy_count(shifted: list[np.ndarray], slop: int) -> int:
        """Number of windows where one position per term fits in a
        range <= ``slop`` after subtracting each term's phrase offset
        (slop=0 degenerates to exact anchor equality).  Minimal-range
        k-pointer sweep over the sorted shifted-position lists —
        Lucene's sloppy-phrase semantics simplified to the max-min
        displacement bound (documented divergence: no per-move edit
        cost, so reordered terms within the window match)."""
        k = len(shifted)
        idx = [0] * k
        sizes = [s.size for s in shifted]
        count = 0
        while all(idx[i] < sizes[i] for i in range(k)):
            vals = [int(shifted[i][idx[i]]) for i in range(k)]
            lo = min(vals)
            if max(vals) - lo <= slop:
                count += 1
            idx[vals.index(lo)] += 1
        return count

    def _phrase_candidates(self, query: str, field: str,
                           analyzer: str | None, slop: int = 0
                           ) -> tuple[list[str], list[_PhraseTerm],
                                      dict[int, int]]:
        """Shared phrase machinery: analyze, gather, intersect doc sets
        (ids only — no position bytes touched), then lazily decode
        positions for surviving candidates and anchor-match.
        -> (tokens, per-token terms, {doc_id: phrase_tf})."""
        if not self.manifest["config"].get("store_positions"):
            raise ValueError(
                "index was built without positions (IndexConfig."
                "store_positions=True required for phrase queries)")
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        toks, poss = POSITIONAL_ANALYZERS[analyzer](query)
        if not toks:
            return [], [], {}
        rows = self._gather(field, toks)
        terms: list[_PhraseTerm] = []
        for tok, off in zip(toks, poss):
            r = rows.get(tok)
            if not r:
                return toks, [], {}  # a missing token can never phrase-match
            terms.append(_PhraseTerm(off, r))
        # intersect candidate docs smallest-first — ids only
        ordered = sorted(terms, key=lambda t: t.df)
        base = ordered[0].all_docs()
        for t in ordered[1:]:
            if base.size == 0:
                return toks, terms, {}
            docs = t.all_docs()
            pos = np.minimum(np.searchsorted(docs, base),
                             max(docs.size - 1, 0))
            base = base[docs[pos] == base] if docs.size else base[:0]
        if self.tombstones.size and base.size:
            base = base[_excl_mask(base, self.tombstones)]
        matches: dict[int, int] = {}
        for d in base:
            if slop == 0:
                anchors: np.ndarray | None = None
                for t in terms:
                    p = t.positions_for(d)
                    if p is None:
                        anchors = np.zeros(0, np.int64)
                        break
                    cand = p.astype(np.int64) - t.offset
                    anchors = cand if anchors is None else \
                        np.intersect1d(anchors, cand, assume_unique=False)
                    if anchors.size == 0:
                        break
                if anchors is not None and anchors.size:
                    matches[int(d)] = int(anchors.size)
                continue
            shifted = []
            ok = True
            for t in terms:
                p = t.positions_for(d)
                if p is None:
                    ok = False
                    break
                shifted.append(np.sort(p.astype(np.int64) - t.offset))
            if ok:
                n = self._sloppy_count(shifted, slop)
                if n:
                    matches[int(d)] = n
        return toks, terms, matches

    @_routed(_no_dfs)
    def match_phrase_prefix(self, query: str, field: str = "content",
                            k: int = 10, max_expansions: int = 50,
                            analyzer: str | None = None
                            ) -> list[tuple[int, int]]:
        """Phrase query whose LAST term is a prefix (OpenSearch
        ``match_phrase_prefix`` — the search-as-you-type shape): the
        leading tokens must match exactly at their phrase offsets and
        the final position must hold ANY dictionary expansion of the
        prefix.  phrase_tf counts anchors where at least one expansion
        matches.  Returns [(phrase_tf, doc_id)] sorted (tf desc,
        doc_id asc)."""
        if not self.manifest["config"].get("store_positions"):
            raise ValueError(
                "index was built without positions (IndexConfig."
                "store_positions=True required for phrase queries)")
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        toks, poss = POSITIONAL_ANALYZERS[analyzer](query)
        if not toks:
            return []
        lead, lead_offs = toks[:-1], poss[:-1]
        prefix, last_off = toks[-1], poss[-1]
        expansions = self.expand_terms(prefix, field, "prefix",
                                       max_expansions)
        if not expansions:
            return []
        rows = self._gather(field, lead + expansions)
        lead_terms: list[_PhraseTerm] = []
        for tok, off in zip(lead, lead_offs):
            r = rows.get(tok)
            if not r:
                return []
            lead_terms.append(_PhraseTerm(off, r))
        exp_terms = [_PhraseTerm(last_off, rows[t]) for t in expansions
                     if rows.get(t)]
        if not exp_terms:
            return []
        # candidates: docs with every lead token AND any expansion
        exp_docs = np.unique(np.concatenate(
            [t.all_docs() for t in exp_terms]))
        base = exp_docs
        for t in sorted(lead_terms, key=lambda t: t.df):
            docs = t.all_docs()
            if base.size == 0 or docs.size == 0:
                return []
            pos = np.minimum(np.searchsorted(docs, base), docs.size - 1)
            base = base[docs[pos] == base]
        if self.tombstones.size and base.size:
            base = base[_excl_mask(base, self.tombstones)]
        out: list[tuple[int, int]] = []
        for d in base:
            anchors: np.ndarray | None = None
            ok = True
            for t in lead_terms:
                p = t.positions_for(d)
                if p is None:
                    ok = False
                    break
                cand = p.astype(np.int64) - t.offset
                anchors = cand if anchors is None else \
                    np.intersect1d(anchors, cand, assume_unique=False)
                if anchors.size == 0:
                    ok = False
                    break
            if not ok:
                continue
            exp_pos = [t.positions_for(d) for t in exp_terms]
            exp_pos = [p for p in exp_pos if p is not None]
            if not exp_pos:
                continue
            last_anchors = np.unique(np.concatenate(
                [p.astype(np.int64) - last_off for p in exp_pos]))
            final = last_anchors if anchors is None else \
                np.intersect1d(anchors, last_anchors, assume_unique=False)
            if final.size:
                out.append((int(final.size), int(d)))
        out.sort(key=lambda td: (-td[0], td[1]))
        return out[:k]

    @_routed(_no_dfs)
    def phrase_search(self, query: str, field: str = "content",
                      k: int = 10, analyzer: str | None = None,
                      slop: int = 0) -> list[tuple[int, int]]:
        """Phrase top-k: [(phrase_tf, doc_id)] sorted (phrase_tf desc,
        doc_id asc).  Requires an index built with
        ``store_positions=True``.  Positions decode lazily — only for
        docs surviving the doc-set intersection.  ``slop`` allows
        displaced terms: a window matches when one position per term
        fits within ``slop`` after phrase-offset subtraction (slop=0 is
        the exact adjacency phrase)."""
        _, _, matches = self._phrase_candidates(query, field, analyzer, slop)
        ranked = sorted(matches.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        return [(tf, d) for d, tf in ranked]

    @_routed(_plan_phrase_scored)
    def phrase_search_scored(self, query: str, field: str = "content",
                             k: int = 10, analyzer: str | None = None,
                             k1: float = K1, b: float = B
                             ) -> list[tuple[float, int]]:
        """BM25-weighted phrase top-k: [(score, doc_id)] with
        score = (sum of the phrase tokens' idf) * tf_norm(phrase_tf,
        dl, avgdl) — Lucene PhraseQuery scoring shape (phraseFreq
        through the term-frequency saturation, idf summed over the
        phrase's terms), ties (score desc, doc_id asc)."""
        toks, terms, matches = self._phrase_candidates(query, field, analyzer)
        if not matches:
            return []
        n_docs = int(self.stats["n_docs"])
        avgdl = float(self.stats["avgdl"][field])
        ov = self._idf_overrides
        idf_sum = float(sum(
            (ov[tok] if ov is not None and tok in ov
             else idf_fn(t.df, n_docs))
            for tok, t in zip(toks, terms)))
        out: list[tuple[float, int]] = []
        for d, ptf in matches.items():
            nrm = terms[0].norm_for(np.uint64(d))
            dl = float(decode_norm(np.array([nrm], np.uint8))[0])
            s = idf_sum * float(tf_norm(np.array([ptf], np.uint32),
                                        np.array([dl]), avgdl, k1, b)[0])
            out.append((s, d))
        out.sort(key=lambda sd: (-sd[0], sd[1]))
        return out[:k]

    def _analyzer_for(self, field: str, analyzer: str | None) -> str:
        if analyzer is not None:
            return analyzer
        return next((a for f, _, a in self.manifest["config"]["fields"]
                     if f == field), "code")

    def _exec_doc_sharded(self, method: str, kwargs: dict, k: int,
                          idf_terms: list[str] | None = None,
                          field: str = "content",
                          idf: dict[str, float] | None = None,
                          stats_override: dict | None = None,
                          merge=None) -> list[tuple]:
        """Run ``method(**kwargs)`` on every shard group and merge the
        results — by ``merge(results)`` when given, else the local
        top-k lists by (rank-key desc, doc_id asc), exact because doc
        shards partition the corpus.  ``idf_terms`` adds the dfs
        round: global df -> idf, injected into each shard's
        prepare_terms/phrase scoring via _idf_overrides.  A preset
        ``idf`` / ``stats_override`` skips the dfs round — the
        cross-index federation channel (MultiSearcher computes them
        over the whole pattern)."""
        if idf is None and idf_terms:
            uniq = list(dict.fromkeys(idf_terms))
            n_docs = int(self.stats["n_docs"])
            dfs = self._term_dfs(field, uniq)
            idf = {t: float(idf_fn(dfs.get(t, 0), n_docs)) for t in uniq}
        results = self._scatter(_run_method, method, kwargs, idf,
                                stats_override)
        if merge is not None:
            return merge(results)
        return _merge_topk(results, k)

    def simple_query_string(self, qs: str, field: str = "content",
                            k: int = 10,
                            default_operator: str = "or",
                            max_expansions: int = 1024,
                            analyzer: str | None = None,
                            k1: float = K1, b: float = B
                            ) -> list[tuple[float, int]]:
        """OpenSearch ``simple_query_string``: the tolerant grammar
        (``+ | - "" * ~N``; everything else literal, NEVER raises —
        end-user search boxes feed it unvalidated input).  Executes
        through the query_string machinery with the simple parser."""
        return self.query_string(
            qs, field, k, max_expansions, analyzer, k1, b,
            parser=f"simple_{default_operator.lower()}")

    def search_multi(self, query: str,
                     fields: list[tuple[str, float]] | None = None,
                     k: int = 10, method: str = "auto",
                     analyzer: str | None = None,
                     k1: float = K1, b: float = B
                     ) -> list[tuple[float, int]]:
        """Multi-field disjunction scoring (OpenSearch ``multi_match``
        with ``type: most_fields`` parity): each (field, boost) clause
        scores independently with its own analyzer/avgdl/df, and a
        doc's total is the boosted SUM of its per-field BM25 scores.
        Ties (score desc, doc_id asc)."""
        if fields is None:
            fields = [(f, 1.0) for f, _, _ in
                      self.manifest["config"]["fields"]]
        n_docs = int(self.stats["n_docs"])
        per_field_terms: list[tuple[float, list[TermData], float]] = []
        for fname, boost in fields:
            fan = (analyzer or next(
                (a for f, _, a in self.manifest["config"]["fields"]
                 if f == fname), "code"))
            q_terms = ANALYZERS[fan](query)
            if not q_terms:
                continue
            rows = self._gather(fname, q_terms)
            avgdl = float(self.stats["avgdl"][fname])
            terms = prepare_terms(q_terms, rows, n_docs, avgdl, k1, b,
                                  exclude_ids=self.tombstones)
            per_field_terms.append((float(boost), terms, avgdl))
        # one TAAT accumulation across every field's live term lists
        all_docs, contribs = [], []
        for boost, terms, avgdl in per_field_terms:
            for t in terms:
                if t.doc_ids.size:
                    all_docs.append(t.doc_ids)
                    contribs.append(boost * t.weight * t.idf *
                                    tf_norm(t.tfs, t.lens, avgdl, k1, b))
        if not all_docs:
            return []
        docs = np.concatenate(all_docs)
        vals = np.concatenate(contribs)
        uniq, inv = np.unique(docs, return_inverse=True)
        scores = np.bincount(inv, weights=vals, minlength=uniq.size)
        kk = min(k, uniq.size)
        cand = np.arange(uniq.size)
        if uniq.size > 4096:
            thresh = np.partition(scores, uniq.size - kk)[uniq.size - kk]
            cand = np.flatnonzero(scores >= thresh)
        sel = cand[np.lexsort((uniq[cand], -scores[cand]))][:kk]
        return [(float(scores[i]), int(uniq[i])) for i in sel]

    def terms_aggregation(self, query: str, agg_field: str,
                          field: str = "content", mode: str = "or",
                          analyzer: str | None = None
                          ) -> list[tuple[str, int]]:
        """Dashboard-style terms aggregation over ALL matching docs
        (OpenSearch terms-agg parity — the reference's dashboard
        panels aggregate the full match set, not top-k): the match
        set is the union (``or``) / intersection (``and``) of the
        query terms' posting doc ids, counted per keyword value via
        sorted intersection with the doc-range-partitioned filter
        postings.  Returns [(value, count)] sorted (count desc, value
        asc), zero-count values omitted.

        Scale note: the computation distributes as per-shard partial
        counts + a driver sum (the filter parts are already per doc
        range)."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        if not q_terms:
            return []
        # doc-sharded: per-shard partial counts, summed here —
        # doc ids never leave their shard
        counts: dict[str, int] = {}
        for d in self._scatter(_grp_terms, field, q_terms, mode,
                               agg_field):
            _add_counts(counts, d)
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def terms_histogram_aggregation(self, query: str, agg_field: str,
                                    range_field: str, interval: float,
                                    field: str = "content",
                                    mode: str = "or",
                                    analyzer: str | None = None
                                    ) -> list[tuple[str, float, int]]:
        """Terms bucket with a histogram SUB-aggregation — the
        dashboard area/line chart's split-series shape (OpenSearch:
        ``terms`` x ``date_histogram``, the reference's most common
        two-bucket panel).  Per (keyword value, bucket) count over the
        full match set; per-shard bucket dicts merge here.  Returns
        [(value, bucket, count)] sorted (value, bucket)."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        if not q_terms:
            return []
        merged: dict[tuple[str, float], int] = {}
        for d in self._scatter(_grp_terms_hist, field, q_terms, mode,
                               agg_field, range_field, interval):
            _add_counts(merged, d)
        out = [(v, b, n) for (v, b), n in merged.items()]
        out.sort(key=lambda r: (r[0], r[1]))
        return out

    def rare_terms_aggregation(self, query: str, agg_field: str,
                               max_doc_count: int = 1,
                               field: str = "content", mode: str = "or",
                               analyzer: str | None = None,
                               max_buckets: int = 65536
                               ) -> list[tuple[str, int]]:
        """OpenSearch ``rare_terms``: the long-tail complement of
        terms-agg — keyword values whose match-set doc count is <=
        ``max_doc_count``, sorted ASCENDING by count then value (the
        agg's fixed order; it exists because a terms-agg ordered asc
        is unbounded-error under sharding, while counting everything
        and filtering small is exact).  Shares the full-match-set
        machinery (per-shard partials on doc-partitioned indexes).

        ``max_buckets`` guards the exact census: the field's
        distinct-value upper bound (filter-posting footer row counts,
        no data read) must stay under it, else this raises rather than
        silently materializing a high-cardinality census — use
        ``cardinality_aggregation`` (HLL) or a terms-agg over a
        filtered match set for such fields."""
        bound = _filter_value_rows(self.index_dir, agg_field)
        if bound > max_buckets and \
                _filter_distinct_values(self.index_dir, agg_field,
                                        stop_above=max_buckets
                                        ) > max_buckets:
            raise ValueError(
                f"rare_terms on {agg_field!r}: distinct-value count "
                f"exceeds max_buckets={max_buckets}; the exact census "
                "would materialize every value — raise max_buckets "
                "explicitly or use cardinality_aggregation (HLL) instead")
        rows = self.terms_aggregation(query, agg_field, field, mode,
                                      analyzer)
        out = [(v, n) for v, n in rows if n <= max_doc_count]
        out.sort(key=lambda kv: (kv[1], kv[0]))
        return out

    def terms_stats_aggregation(self, query: str, agg_field: str,
                                range_field: str, field: str = "content",
                                mode: str = "or",
                                analyzer: str | None = None
                                ) -> list[tuple[str, int, float, float,
                                                float, float]]:
        """Terms aggregation with a stats SUB-aggregation (the
        OpenSearch dashboard's split-series shape: bucket the match
        set by a keyword field, then count/min/max/sum/avg a numeric
        field per bucket).  Each shard ships only its per-bucket
        mergeable moments.  Returns
        [(value, count, sum, min, max, avg)] sorted (count desc,
        value asc)."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        if not q_terms:
            return []
        merged: dict[str, tuple[int, float, float, float]] = {}
        for d in self._scatter(_grp_group_stats, field, q_terms, mode,
                               agg_field, range_field):
            _add_moments(merged, d)
        out = [(v, n, s, lo, hi, s / n)
               for v, (n, s, lo, hi) in merged.items()]
        out.sort(key=lambda r: (-r[1], r[0]))
        return out

    def filter_value_counts(self, field: str) -> dict[str, int]:
        """Live per-value doc counts of a keyword field over the WHOLE
        index (the dashboards' match-all terms shape) — packed filter
        postings only, tombstones excluded."""
        from .shard import load_filter_value_counts
        return load_filter_value_counts(self.index_dir, field,
                                        exclude=self.tombstones)

    def filtered_value_counts(self, filter_field: str,
                              filter_value: str, agg_field: str
                              ) -> dict[str, int]:
        """Per-value counts of ``agg_field`` over the docs where
        ``filter_field == filter_value`` (the kuery-filtered terms
        panel): packed doc-list intersection, no postings walked."""
        from .shard import load_filter_ids
        cand = load_filter_ids(self.index_dir, filter_field,
                               filter_value)
        if cand.size and self.tombstones.size:
            cand = cand[_excl_mask(cand, self.tombstones)]
        return dict(_count_filter_values(self.index_dir, agg_field,
                                         cand))

    def histogram_stats_aggregation(self, query: str,
                                    bucket_field: str, interval: float,
                                    metric_field: str,
                                    field: str = "content",
                                    mode: str = "or",
                                    analyzer: str | None = None
                                    ) -> list[tuple[float, int, float,
                                                    float, float,
                                                    float]]:
        """histogram / date_histogram with a metric SUB-aggregation
        (the avg-over-time dashboard panel: bin the match set by one
        numeric field, then count/sum/min/max/avg a second numeric
        field per bin).  Each shard ships only per-bin mergeable
        moments.  Returns [(bin_lo, count, sum, min,
        max, avg)] sorted by bin."""
        if analyzer is None:
            analyzer = next((a for f, _, a in
                             self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        if not q_terms:
            return []
        merged: dict[float, tuple[int, float, float, float]] = {}
        for d in self._scatter(_grp_hist_stats, field, q_terms, mode,
                               bucket_field, interval, metric_field):
            _add_moments(merged, d)
        return [(k, n, s, lo, hi, s / n)
                for k, (n, s, lo, hi) in sorted(merged.items())]

    def top_hits_aggregation(self, query: str, agg_field: str,
                             field: str = "content", mode: str = "or",
                             hits_per_bucket: int = 3,
                             analyzer: str | None = None,
                             k1: float = K1, b: float = B
                             ) -> list[tuple[str, list[tuple[float, int]]]]:
        """terms-agg + top_hits sub-aggregation (the reference's
        dashboard panels show per-value top documents): every matching
        doc is scored once (vectorized TAAT over the full match set),
        then each keyword value keeps its top ``hits_per_bucket`` by
        (score desc, doc_id asc).  Returns [(value, [(score, doc_id)])]
        sorted by bucket doc count desc, value asc.

        Scale note: the match set's postings gather to the driver
        and score there; per-shard (value, local top-k) partials
        merged at the driver — the shape of terms_aggregation — would
        distribute it."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        q_terms = ANALYZERS[analyzer](query)
        if not q_terms:
            return []
        rows = self._gather(field, q_terms)
        avgdl = float(self.stats["avgdl"][field])
        n_docs = int(self.stats["n_docs"])
        terms = prepare_terms(q_terms, rows, n_docs, avgdl, k1, b,
                              exclude_ids=self.tombstones)
        all_hits = _dispatch("taat", terms, 1 << 31, mode, avgdl, None,
                             k1, b)
        if not all_hits:
            return []
        docs = np.array([d for _, d in all_hits], dtype=np.uint64)
        scores = np.array([s for s, _ in all_hits])
        order = np.argsort(docs)
        docs, scores = docs[order], scores[order]
        from .shard import load_filter_value_counts  # noqa: F401 (doc link)
        import os as _os
        import pyarrow.parquet as _pq
        fdir = _os.path.join(self.index_dir, "filters", agg_field)
        if not _os.path.isdir(fdir):
            return []
        per_value: dict[str, list[tuple[float, int]]] = {}
        counts: dict[str, int] = {}
        for fn in sorted(_os.listdir(fdir)):
            if not fn.endswith(".parquet"):
                continue
            t = _pq.read_table(_os.path.join(fdir, fn),
                               columns=["value", "docs"])
            for v, blob in zip(t.column("value").to_pylist(),
                               t.column("docs").to_pylist()):
                ids = np.frombuffer(blob, dtype="<u8")
                pos = np.minimum(np.searchsorted(docs, ids), docs.size - 1)
                hit = docs[pos] == ids
                if not hit.any():
                    continue
                counts[v] = counts.get(v, 0) + int(hit.sum())
                sel = pos[hit]
                per_value.setdefault(v, []).extend(
                    (float(scores[i]), int(docs[i])) for i in sel)
        out = []
        for v in sorted(counts, key=lambda v: (-counts[v], v)):
            hits = sorted(per_value[v], key=lambda sd: (-sd[0], sd[1]))
            out.append((v, hits[:hits_per_bucket]))
        return out

    def search_many(self, queries: list[str], field: str = "content",
                    k: int = 10, mode: str = "or", method: str = "auto",
                    analyzer: str | None = None,
                    k1: float = K1, b: float = B
                    ) -> list[list[tuple[float, int]]]:
        """Batched execution: one postings-gather round for the UNION of
        all queries' terms, then local scoring per query — amortizes the
        actor round-trip that dominates single-query latency."""
        if analyzer is None:
            analyzer = next((a for f, _, a in self.manifest["config"]["fields"]
                             if f == field), "code")
        per_q = [ANALYZERS[analyzer](q) for q in queries]
        all_terms = [t for ts in per_q for t in ts]
        rows = self._gather(field, all_terms) if all_terms else {}
        avgdl = float(self.stats["avgdl"][field])
        n_docs = int(self.stats["n_docs"])
        out = []
        for q_terms in per_q:
            if not q_terms:
                out.append([])
                continue
            terms = prepare_terms(q_terms, rows, n_docs, avgdl, k1, b,
                                  exclude_ids=self.tombstones)
            out.append(_dispatch(method, terms, k, mode, avgdl, None, k1, b))
        return out


# ---------------------------------------------------------------------------
# pipeline aggregations (OpenSearch cumulative_sum / derivative /
# moving_fn): pure post-processing over a parent aggregation's reduced
# buckets.  OpenSearch runs these on the COORDINATOR after the shard
# reduce — bucket counts are small by design — so a driver-side numpy
# pass over [(bucket, value)] is the faithful scale shape, not a
# distributed stage.  The reference's dashboards consume them through
# saved visualizations (e.g. cumulative event counts per period).


def pipeline_aggregations(buckets: list[tuple[float, int]],
                          window: int = 3) -> list[dict]:
    """[(bucket_key, value)] (sorted by key, as every *_aggregation
    here returns) -> per-bucket dict with the three core pipeline
    metrics:

    - ``cumulative_sum``: running total including the current bucket.
    - ``derivative``: value - previous bucket's value; None for the
      first bucket (OpenSearch emits no derivative there).
    - ``moving_avg``: unweighted mean over the TRAILING ``window``
      buckets EXCLUDING the current one (OpenSearch ``moving_fn``
      default window semantics: [i-window, i)); None for the first
      bucket whose trailing window is empty.
    """
    if not buckets:
        return []
    keys = [b for b, _ in buckets]
    vals = np.asarray([v for _, v in buckets], dtype=np.float64)
    cum = np.cumsum(vals)
    out: list[dict] = []
    for i, k in enumerate(keys):
        deriv = None if i == 0 else float(vals[i] - vals[i - 1])
        lo = max(0, i - window)
        win = vals[lo:i]
        mov = float(win.mean()) if win.size else None
        out.append({"bucket": k, "value": float(vals[i]),
                    "cumulative_sum": float(cum[i]),
                    "derivative": deriv, "moving_avg": mov})
    return out


def bucket_selector(buckets: list[tuple], op: str, threshold: float
                    ) -> list[tuple]:
    """OpenSearch ``bucket_selector``: drop parent buckets whose
    metric fails the predicate (the common
    ``params.v > N``-script shape — ops gt/gte/lt/lte/eq/ne).
    Coordinator-side over reduced buckets, like every pipeline agg."""
    import operator as _op
    fn = {"gt": _op.gt, "gte": _op.ge, "lt": _op.lt,
          "lte": _op.le, "eq": _op.eq, "ne": _op.ne}[op]
    return [(b, v) for b, v in buckets if fn(v, threshold)]


def bucket_sort(buckets: list[tuple], desc: bool = True,
                size: int | None = None, frm: int = 0) -> list[tuple]:
    """OpenSearch ``bucket_sort``: order parent buckets by their
    metric (ties broken by bucket key ascending, the stable
    OpenSearch order) and apply from/size paging."""
    ordered = sorted(buckets, key=lambda bv: ((-bv[1] if desc else bv[1]),
                                              bv[0]))
    end = None if size is None else frm + size
    return ordered[frm:end]


def moving_percentiles_buckets(buckets: list[tuple], percent: float,
                               window: int = 5, value_index: int = 1
                               ) -> list[tuple[float, float | None]]:
    """OpenSearch ``moving_percentiles``: the given percentile of the
    TRAILING ``window`` bucket values EXCLUDING the current bucket
    (the same frame convention as this engine's moving_avg /
    OpenSearch ``moving_fn`` with shift=0) — None for the first
    bucket, linear interpolation (== DuckDB quantile_cont OVER a
    ``ROWS BETWEEN window PRECEDING AND 1 PRECEDING`` frame).  Pure
    coordinator-side post-processing over reduced buckets."""
    vals = [float(b[value_index]) for b in buckets]
    out: list[tuple[float, float | None]] = []
    for i, b in enumerate(buckets):
        lo = max(0, i - window)
        win = vals[lo:i]
        out.append((b[0], None if not win else
                    float(np.percentile(np.asarray(win), percent,
                                        method="linear"))))
    return out


_RATE_UNIT_SEC = {"second": 1.0, "minute": 60.0, "hour": 3600.0,
                  "day": 86400.0, "week": 604800.0}


def rate_buckets(buckets: list[tuple], interval_sec: float,
                 unit: str = "day", value_index: int = 1
                 ) -> list[tuple[float, float]]:
    """OpenSearch ``rate`` aggregation inside a date_histogram: each
    bucket's value (doc count, or a sum sub-agg) rescaled to a
    per-``unit`` rate — value * unit_sec / bucket_interval_sec.  Pure
    coordinator-side post-processing over the reduced buckets, like
    cumulative_sum/derivative (fixed-width units only; calendar
    months follow the auto_date_histogram fixed-ladder divergence
    documented in SURVEY §2.15).  Returns [(bucket_key, rate)]."""
    u = _RATE_UNIT_SEC.get(unit)
    if u is None:
        raise ValueError(f"unsupported rate unit {unit!r}; "
                         f"one of {sorted(_RATE_UNIT_SEC)}")
    scale = u / float(interval_sec)
    return [(b[0], b[value_index] * scale) for b in buckets]


def serial_diff_buckets(buckets: list[tuple], lag: int = 1
                        ) -> list[tuple]:
    """OpenSearch ``serial_diff``: value minus the value ``lag``
    buckets earlier; the first ``lag`` buckets emit None (OpenSearch
    emits no value there).  Coordinator-side over reduced buckets."""
    if lag < 1:
        raise ValueError("serial_diff lag must be >= 1")
    out = []
    for i, (b, v) in enumerate(buckets):
        prev = buckets[i - lag][1] if i >= lag else None
        out.append((b, None if prev is None else float(v - prev)))
    return out


def normalize_buckets(buckets: list[tuple],
                      method: str = "percent_of_sum") -> list[tuple]:
    """OpenSearch ``normalize`` pipeline agg: rescale the parent's
    metric values — ``percent_of_sum`` (v/sum), ``rescale_0_1``
    ((v-min)/(max-min); all-equal buckets -> 0.0, the OpenSearch
    degenerate case), ``z-score`` ((v-mean)/std_pop)."""
    if not buckets:
        return []
    vals = np.asarray([v for _, v in buckets], dtype=np.float64)
    if method == "percent_of_sum":
        tot = vals.sum()
        out = vals / tot if tot != 0 else np.zeros_like(vals)
    elif method == "rescale_0_1":
        span = vals.max() - vals.min()
        out = (vals - vals.min()) / span if span != 0 \
            else np.zeros_like(vals)
    elif method == "z-score":
        std = vals.std()
        out = (vals - vals.mean()) / std if std != 0 \
            else np.zeros_like(vals)
    else:
        raise ValueError(f"unsupported normalize method {method!r}")
    return [(b, float(x)) for (b, _), x in zip(buckets, out)]


def bucket_metrics(buckets: list[tuple]) -> dict:
    """OpenSearch sibling pipeline aggregations over a multi-bucket
    parent's metric values — ``avg_bucket`` / ``sum_bucket`` /
    ``min_bucket`` / ``max_bucket`` / ``stats_bucket`` are all
    projections of this one reduce (min/max carry the keys of the
    extreme buckets, OpenSearch's ``keys`` list; ties keep every
    tied key in bucket order)."""
    if not buckets:
        return {"count": 0, "sum": 0.0, "avg": None,
                "min": None, "max": None,
                "min_keys": [], "max_keys": []}
    vals = np.asarray([v for _, v in buckets], dtype=np.float64)
    vmin, vmax = float(vals.min()), float(vals.max())
    return {"count": int(vals.size), "sum": float(vals.sum()),
            "avg": float(vals.mean()), "min": vmin, "max": vmax,
            "min_keys": [b for b, v in buckets if float(v) == vmin],
            "max_keys": [b for b, v in buckets if float(v) == vmax]}



def extended_bucket_metrics(buckets: list[tuple],
                            sigma: float = 2.0) -> dict:
    """OpenSearch ``extended_stats_bucket``: the ``extended_stats``
    shape over a multi-bucket parent's metric values —
    ``bucket_metrics``'s count/sum/avg/min/max plus sum_of_squares,
    POPULATION variance/std_deviation and the ±``sigma``
    std_deviation_bounds.  Same coordinator-side reduce as the rest
    of the sibling pipeline family (the parent's buckets are already
    reduced; nothing extra travels)."""
    if not buckets:
        return {"count": 0, "sum": 0.0, "avg": None, "min": None,
                "max": None, "sum_of_squares": 0.0, "variance": None,
                "std_deviation": None,
                "std_deviation_bounds": {"upper": None, "lower": None}}
    vals = np.asarray([float(v) for _, v in buckets], dtype=np.float64)
    avg = float(vals.mean())
    var = float(vals.var())
    std = float(np.sqrt(var))
    return {"count": int(vals.size), "sum": float(vals.sum()),
            "avg": avg, "min": float(vals.min()),
            "max": float(vals.max()),
            "sum_of_squares": float(np.dot(vals, vals)),
            "variance": var, "std_deviation": std,
            "std_deviation_bounds": {"upper": avg + sigma * std,
                                     "lower": avg - sigma * std}}


_MOVING_FNS = ("max", "min", "sum", "unweightedAvg", "stdDev",
               "linearWeightedAvg", "ewma")


def moving_fn_buckets(buckets: list[tuple], window: int, fn: str,
                      shift: int = 0, alpha: float = 0.3
                      ) -> list[tuple[float, float | None]]:
    """OpenSearch ``moving_fn`` with the built-in ``MovingFunctions.*``
    library: for each parent bucket, apply ``fn`` to the window of
    ``window`` values ENDING JUST BEFORE the current bucket
    (``shift=0``, OpenSearch's default frame [i-window+shift,
    i+shift)); an empty window emits None.  Functions: max / min /
    sum / unweightedAvg / stdDev (population) / linearWeightedAvg
    (weights 1..n, newest heaviest) / ewma (factor ``alpha``, applied
    oldest→newest).  Pure coordinator-side post-processing over
    reduced buckets, like cumulative_sum / moving_avg
    (``pipeline_aggregations`` above)."""
    if fn not in _MOVING_FNS:
        raise ValueError(f"moving_fn: unsupported function {fn!r}; "
                         f"one of {list(_MOVING_FNS)}")
    vals = np.asarray([float(v) for _, v in buckets], dtype=np.float64)
    out: list[tuple[float, float | None]] = []
    for i, (b, _) in enumerate(buckets):
        lo = max(0, i - window + shift)
        hi = max(lo, i + shift)
        win = vals[lo:min(hi, len(vals))]
        if win.size == 0:
            out.append((b, None))
            continue
        if fn == "max":
            r = win.max()
        elif fn == "min":
            r = win.min()
        elif fn == "sum":
            r = win.sum()
        elif fn == "unweightedAvg":
            r = win.mean()
        elif fn == "stdDev":
            r = win.std()
        elif fn == "linearWeightedAvg":
            w = np.arange(1, win.size + 1, dtype=np.float64)
            r = float((win * w).sum() / w.sum())
        else:   # ewma
            r = win[0]
            for v in win[1:]:
                r = alpha * v + (1.0 - alpha) * r
        out.append((b, float(r)))
    return out


def bucket_script_buckets(named: dict[str, list], expr: str
                          ) -> list[float | None]:
    """OpenSearch ``bucket_script``: evaluate a whitelisted-arithmetic
    script over ALIGNED sibling-metric value lists (one value per
    parent bucket; ``buckets_path`` resolution happens in the DSL
    layer).  ``params.x`` painless references are rewritten to bare
    names before compilation; a bucket where ANY referenced metric is
    None (empty bucket / no values) emits None, OpenSearch's
    skip-gap behaviour.  Division by zero emits None rather than
    raising (OpenSearch skips the bucket).  Coordinator-side over
    reduced buckets — the metric values already travelled as
    mergeable per-shard moments."""
    import re as _re
    expr = _re.sub(r"\bparams\.([A-Za-z_]\w*)", r"\1", expr)
    names = tuple(named)
    run = compile_metric_expr(expr, names)
    if not named:
        return []
    n = len(next(iter(named.values())))
    for k, v in named.items():
        if len(v) != n:
            raise ValueError(
                f"bucket_script: metric {k!r} has {len(v)} values, "
                f"expected {n} (misaligned parent buckets)")
    out: list[float | None] = []
    for i in range(n):
        row = {k: named[k][i] for k in names}
        if any(v is None for v in row.values()):
            out.append(None)
            continue
        try:
            out.append(float(run(row)))
        except ZeroDivisionError:
            out.append(None)
    return out


def cumulative_cardinality_buckets(pairs: list[tuple]
                                   ) -> list[tuple[float, int]]:
    """OpenSearch ``cumulative_cardinality``: the running count of
    DISTINCT keyword values seen in bucket order.  Input is the
    (value, bucket_key, count) census the terms×histogram partial
    already ships (only distinct (value, bin) pairs travel — never
    doc ids), so the cumulative union reduces driver-side exactly,
    where OpenSearch merges HLL sketches approximately.  Returns
    [(bucket_key, cumulative_distinct)] over every bucket present in
    the census, key-ascending."""
    per_bucket: dict[float, set] = {}
    for v, bk, _n in pairs:
        per_bucket.setdefault(bk, set()).add(v)
    seen: set = set()
    out: list[tuple[float, int]] = []
    for bk in sorted(per_bucket):
        seen |= per_bucket[bk]
        out.append((bk, len(seen)))
    return out


def _extend_stats(out: dict) -> None:
    """extended_stats fields from the mergeable moments (OpenSearch
    ``extended_stats``: population variance/std, sum_of_squares) —
    derived on the coordinator, so every stats path (per-shard
    partials, driver-gathered, count-probe) gets them for free."""
    n = out["count"]
    mean = out["sum"] / n
    out["variance"] = max(0.0, out["sum_sq"] / n - mean * mean)
    out["std_dev"] = math.sqrt(out["variance"])


def _levenshtein(a: str, b: str) -> int:
    """Plain Levenshtein distance (suggest ranking; the bounded
    predicate lives in shard._levenshtein_leq)."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]
