"""Shard reader: loads one doc partition's segments and serves merged
posting lists.

A *part* owns the postings of every document with ``doc_id % P ==
part`` — a complete mini-index over its doc range.  Its directory holds
the base build's ``seg-00.parquet`` plus one ``seg-00-g<fp8>.parquet``
per ``extend_index`` generation (pipelines.build_index).  The reader
merges a term's runs across those segments into one canonical
doc_id-sorted posting list at access time (score-identical by
construction; tested).

This is the warm-shard state the reference holds inside OpenSearch data
nodes — here it is the ``__init__``-loaded state of a Ray actor
(SURVEY.md §7.3).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow.parquet as pq

from ..postings import (TermPostings, decode_postings, decode_skip,
                        merge_postings)
from ..postings import encode_postings as _enc_postings
from ..postings import varint_decode as _vdec


def check_layout(config: dict) -> None:
    """Refuse an index built with the retired term-partitioned layout
    (postings routed by ``crc32(field:term) % P``): every reader and
    writer here assumes doc partitions.  Rebuild such an index from
    its source."""
    if config.get("partition_by", "doc") != "doc":
        raise ValueError(
            "index was built with the term-partitioned layout, which is "
            "no longer supported; rebuild it with build_index")


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted uint64 doc ids deleted since the last compaction (empty
    array when none).  Tombstoned docs are EXCLUDED from every match
    set but still count in df/N until compaction — Lucene's deleted-doc
    semantics, which the reference inherits from OpenSearch."""
    path = os.path.join(index_dir, "tombstones.parquet")
    if not os.path.exists(path):
        return np.zeros(0, dtype=np.uint64)
    t = pq.read_table(path, columns=["doc_id"])
    return np.sort(t.column("doc_id").to_numpy(
        zero_copy_only=False).astype(np.uint64))


def match_part_files(names: list[str], dparts) -> list[str]:
    """Width-agnostic doc-part filename filter.  Base files are
    ``part-XXXX.parquet``; extend_index generations are
    ``part-XXXX-g<fp8>.parquet``.  ``{p:04d}`` grows past 4 digits for
    p > 9999, so match on the formatted prefix length rather than a
    fixed ``f[:9]`` slice (which silently dropped wide parts)."""
    want = {f"part-{p:04d}" for p in dparts}
    lens = sorted({len(w) for w in want})
    out = []
    for f in names:
        for n in lens:
            if f[:n] in want and len(f) > n and f[n] in ".-":
                out.append(f)
                break
    return out


def load_all_doc_ids(index_dir: str,
                     dparts: list[int] | None = None) -> np.ndarray:
    """Sorted doc ids of EVERY document (live or tombstoned) in the
    given docstore parts (None = the whole index) — the census behind
    the ``global`` aggregation's ``("all",)`` context spec.  Reads the
    ``doc_id`` column only (column-pruned parquet scan of the
    doc-range-partitioned docstore, build_index PASS A); extend_index
    generation files for the part are included, matching fetch_docs.
    Tombstones are NOT subtracted here — the chokepoints that consume
    context match sets exclude them, same as every other filter
    loader."""
    store = os.path.join(index_dir, "docstore")
    if not os.path.isdir(store):
        return np.zeros(0, dtype=np.uint64)
    names = sorted(f for f in os.listdir(store) if f.endswith(".parquet"))
    if dparts is not None:
        names = match_part_files(names, dparts)
    chunks = [pq.read_table(os.path.join(store, fn), columns=["doc_id"])
              .column("doc_id").to_numpy(zero_copy_only=False)
              .astype(np.uint64)
              for fn in names]
    if not chunks:
        return np.zeros(0, dtype=np.uint64)
    # parts are doc_id % P buckets, not contiguous ranges — re-sort
    return np.sort(np.concatenate(chunks))


def load_filter_ids(index_dir: str, field: str, value: str,
                    dparts: list[int] | None = None) -> np.ndarray:
    """Sorted doc ids with keyword ``field == value`` from the
    doc-range-partitioned filter layout (filters/<field>/part-XXXX
    .parquet, one file per docstore part — build_index PASS C).
    ``dparts`` restricts to specific doc partitions (the per-shard
    intersection path); None reads every part."""
    fdir = os.path.join(index_dir, "filters", field)
    if not os.path.isdir(fdir):
        return np.zeros(0, dtype=np.uint64)
    names = sorted(f for f in os.listdir(fdir) if f.endswith(".parquet"))
    if dparts is not None:
        # base files are part-XXXX.parquet; extend_index generations are
        # part-XXXX-g<fp8>.parquet — match on the part prefix
        names = match_part_files(names, dparts)
    chunks: list[np.ndarray] = []
    for fn in names:
        t = pq.read_table(os.path.join(fdir, fn), columns=["value", "docs"])
        vals = t.column("value").to_pylist()
        if value in vals:
            chunks.append(np.frombuffer(
                t.column("docs")[vals.index(value)].as_py(), dtype="<u8"))
    if not chunks:
        return np.zeros(0, dtype=np.uint64)
    # parts are doc_id % P buckets, not contiguous ranges — re-sort
    return np.sort(np.concatenate(chunks))


class ShardReader:
    def __init__(self, index_dir: str, part: int):
        self.index_dir = index_dir
        self.part = part
        part_dir = os.path.join(index_dir, "parts", f"part-{part:04d}")
        # (field, term) -> list of rows.  Materialized rows are
        # 6-tuples (df, docs, tfs, norms, skip, pos) with doc ids in
        # real-id space; rows from a LUT segment load as 7-tuples with
        # the segment's LUT appended and ordinal-space blobs, and are
        # remapped LAZILY on first access (_rows): the ordinal->id
        # re-encode is paid per *queried* term (cached in place), not
        # for every term at actor boot.  Start-up is NOT a term-
        # dictionary scan, though: it reads every segment whole and
        # copies every column of every row into Python objects, the
        # postings, skip and position blobs included, so open cost and
        # reader memory grow with the postings, not the vocabulary.
        # Full-vocabulary consumers (compaction) call materialize_all,
        # which batches the re-encode exactly like the old eager load.
        self.terms: dict[tuple[str, str], list[tuple]] = {}
        if os.path.isdir(part_dir):
            for seg in sorted(os.listdir(part_dir)):
                if not seg.endswith(".parquet"):
                    continue
                t = pq.read_table(os.path.join(part_dir, seg))
                lut = self._segment_lut(t)
                has_pos = "pos" in t.column_names
                cols = [t.column(c) for c in
                        ("field", "term", "df", "docs", "tfs", "norms", "skip")]
                pos_c = t.column("pos") if has_pos else None
                for i in range(t.num_rows):
                    key = (cols[0][i].as_py(), cols[1][i].as_py())
                    if key[0] == "\x00lut":
                        continue
                    row = (cols[2][i].as_py(), cols[3][i].as_py(),
                           cols[4][i].as_py(), cols[5][i].as_py(),
                           cols[6][i].as_py(),
                           pos_c[i].as_py() if has_pos else b"")
                    if lut is not None:
                        row = row + (lut,)
                    self.terms.setdefault(key, []).append(row)
        with open(os.path.join(index_dir, "INDEX_MANIFEST.json")) as f:
            self.manifest = json.load(f)
        self.stats = self.manifest["stats"]
        self._filters: dict[str, dict[str, np.ndarray]] = {}
        # per-field probe structures for multi-term rewrite, built
        # lazily on the first match_terms call: (sorted term list,
        # int32 lengths, uint64 char-class masks)
        self._sorted: dict[str, list[str]] = {}
        self._dicts: dict[str, tuple[list[str], np.ndarray,
                                     np.ndarray]] = {}

    @staticmethod
    def _decode_deferred(rows: list[tuple], idxs: list[int]
                         ) -> tuple[list, list, list]:
        """Decode the ordinal-space blobs of the deferred rows at
        ``idxs`` into (real ids, tfs, norms) arrays ready for the
        batched re-encode."""
        ids_l, tfs_l, nms_l = [], [], []
        for i in idxs:
            df_i, docs_b, tfs_b, norms_b = rows[i][:4]
            lut = rows[i][6]
            ords = np.cumsum(_vdec(docs_b, df_i), dtype=np.uint64)
            ids_l.append(lut[ords.astype(np.int64)])
            tfs_l.append(_vdec(tfs_b, df_i).astype(np.uint32))
            nms_l.append(np.frombuffer(norms_b, dtype=np.uint8))
        return ids_l, tfs_l, nms_l

    def _rows(self, key: tuple[str, str]) -> list[tuple] | None:
        """Rows for ``key`` in real-id space, remapping any deferred
        LUT rows in place (one batched re-encode per term; byte-
        identical to the eager per-segment load, which the posting
        round-trip tests pin)."""
        rows = self.terms.get(key)
        if rows is None:
            return None
        idxs = [i for i, r in enumerate(rows) if len(r) == 7]
        if not idxs:
            return rows
        from ..postings import encode_postings_batch
        packed = encode_postings_batch(*self._decode_deferred(rows, idxs))
        for i, blobs in zip(idxs, packed):
            rows[i] = (rows[i][0], *blobs, rows[i][5])
        return rows

    def materialize_all(self) -> None:
        """Remap every deferred LUT row to real-id space with ONE
        batched re-encode across the whole part — the entry point for
        full-vocabulary consumers (compaction walks every term, so
        per-term lazy remap would just add call overhead)."""
        sites: list[tuple[list[tuple], int]] = []
        ids_l: list = []
        tfs_l: list = []
        nms_l: list = []
        for rows in self.terms.values():
            idxs = [i for i, r in enumerate(rows) if len(r) == 7]
            if not idxs:
                continue
            a, b, c = self._decode_deferred(rows, idxs)
            ids_l += a
            tfs_l += b
            nms_l += c
            sites += [(rows, i) for i in idxs]
        if not sites:
            return
        from ..postings import encode_postings_batch
        packed = encode_postings_batch(ids_l, tfs_l, nms_l)
        for (rows, i), blobs in zip(sites, packed):
            rows[i] = (rows[i][0], *blobs, rows[i][5])

    @staticmethod
    def _segment_lut(t) -> np.ndarray | None:
        """Decode the segment's doc-id LUT from its sentinel row
        (field == "\\x00lut", docs = delta-varint ids, df = count);
        None when the segment was written raw (adaptive encoder chose
        sparse ids)."""
        fields = t.column("field").to_pylist()
        try:
            i = fields.index("\x00lut")
        except ValueError:
            return None
        n = int(t.column("df")[i].as_py())
        blob = t.column("docs")[i].as_py()
        return np.cumsum(_vdec(blob, n), dtype=np.uint64)

    def df(self, field: str, term: str) -> int:
        rows = self.terms.get((field, term))
        return sum(r[0] for r in rows) if rows else 0

    def _sorted_terms(self, field: str) -> list[str]:
        """One field's SORTED term list (binary-searchable), built
        once per reader on the first multi-term rewrite — all a
        prefix/completion probe needs."""
        cached = self._sorted.get(field)
        if cached is None:
            cached = sorted(t for f, t in self.terms if f == field)
            self._sorted[field] = cached
        return cached

    def _field_dict(self, field: str
                    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Fuzzy-probe structures for one field, built lazily on the
        FIRST fuzzy probe (prefix-only workloads never pay this pass):
        the sorted term list plus int32 lengths and uint64 char-class
        masks (one bit per hashed character bucket) — the loaded-dict
        analogue of Lucene's FST term index + automaton
        intersection."""
        cached = self._dicts.get(field)
        if cached is None:
            terms = self._sorted_terms(field)
            n = len(terms)
            lens = np.fromiter((len(t) for t in terms), np.int32, count=n)
            masks = np.fromiter((_char_mask(t) for t in terms),
                                np.uint64, count=n)
            cached = (terms, lens, masks)
            self._dicts[field] = cached
        return cached

    def _prefix_matches(self, field: str, prefix: str) -> list[str]:
        """O(log vocab + |result|): bisect to the prefix's sorted
        position, walk while the prefix holds."""
        terms = self._sorted_terms(field)
        import bisect
        i = bisect.bisect_left(terms, prefix)
        out = []
        while i < len(terms) and terms[i].startswith(prefix):
            out.append(terms[i])
            i += 1
        return out

    def match_terms(self, field: str, pattern: str,
                    kind: str = "prefix", fuzziness: int = 0,
                    transpositions: bool = False,
                    prefix: str = "") -> list[str]:
        """Terms of ``field`` in this part matching a prefix, a
        wildcard pattern (``*`` = any run, ``?`` = one char), or a
        fuzzy probe (plain Levenshtein <= ``fuzziness``; Lucene's
        fuzzy default additionally counts transpositions as one edit —
        documented divergence, chosen for exact SQL-oracle parity with
        ``levenshtein()``) — the term-dictionary probe behind
        multi-term query rewrite.  Sublinear in vocabulary size
        (VERDICT r3 'What's wrong' #2): prefix and any
        literal-prefixed wildcard/regexp binary-search the sorted
        dictionary; fuzzy runs the DP only on the length-band ∩
        char-mask survivors (each distinct query char class missing
        from a term costs >= 1 edit, so popcount(pattern_mask &
        ~term_mask) > fuzziness rejects vectorized, with hash
        collisions erring toward keeping — never dropping — a
        candidate).  Only a prefixless wildcard/regexp still walks
        the field's full dictionary (Lucene pays an automaton
        intersection over every FST arc there too)."""
        if kind == "prefix":
            return self._prefix_matches(field, pattern)
        if kind == "wildcard":
            import fnmatch
            import re
            rx = re.compile(fnmatch.translate(pattern))
            lit = re.match(r"[^*?\[]*", pattern).group(0)
            cand = (self._prefix_matches(field, lit) if lit
                    else self._sorted_terms(field))
            return [t for t in cand if rx.match(t)]
        if kind == "fuzzy":
            if fuzziness <= 0:
                return [pattern] if (field, pattern) in self.terms else []
            pred = (_damerau_leq if transpositions else _levenshtein_leq)
            if prefix:
                # suggester prefix_length: candidates must share this
                # literal prefix, so bisect the slice first (typically
                # |vocab|/alphabet) and band-filter inside it
                return [t for t in self._prefix_matches(field, prefix)
                        if abs(len(t) - len(pattern)) <= fuzziness
                        and pred(pattern, t, fuzziness)]
            terms, lens, masks = self._field_dict(field)
            if not terms:
                return []
            sel = np.abs(lens - np.int32(len(pattern))) <= fuzziness
            missing = _popcount64(
                np.uint64(_char_mask(pattern)) & ~masks)
            sel &= missing <= fuzziness
            return [terms[i] for i in np.nonzero(sel)[0]
                    if pred(pattern, terms[i], fuzziness)]
        if kind == "completion_fuzzy":
            # fuzzy completion (Lucene FuzzyCompletionQuery): terms
            # whose SOME prefix is within `fuzziness` edits of the
            # typed input; candidates restricted to the literal
            # `prefix` (suggester prefix_length, default 1) so the
            # probe bisects the dictionary slice first
            cand = (self._prefix_matches(field, prefix) if prefix
                    else self._sorted_terms(field))
            return [t for t in cand
                    if _prefix_edit_leq(pattern, t, fuzziness,
                                        transpositions)]
        if kind == "regexp":
            # Lucene RegexpQuery semantics: the pattern is implicitly
            # anchored (must match the WHOLE term), hence fullmatch.
            import re
            rx = re.compile(pattern)
            lit = _regex_literal_prefix(pattern)
            cand = (self._prefix_matches(field, lit) if lit
                    else self._sorted_terms(field))
            return [t for t in cand if rx.fullmatch(t)]
        raise ValueError(f"unknown match kind: {kind!r}")

    def postings(self, field: str, term: str) -> TermPostings | None:
        rows = self._rows((field, term))
        if not rows:
            return None
        runs = [decode_postings(docs, tfs, norms, df)
                for df, docs, tfs, norms, *_rest in rows]
        return merge_postings(runs)

    def raw_rows(self, field: str, term: str) -> list[tuple]:
        """Raw (df, docs, tfs, norms, skip) rows — the WAND path decodes
        per-block via the skip metadata instead of fully."""
        return self._rows((field, term)) or []

    def skip_for(self, row: tuple) -> np.ndarray:
        return decode_skip(row[4])

    def filter_docs(self, field: str, value: str,
                    dparts: list[int] | None = None) -> np.ndarray:
        """Sorted doc ids matching keyword field == value (loaded lazily,
        cached per reader).  ``dparts`` restricts to specific doc-range
        filter parts."""
        cache = self._filters.setdefault(field, {})
        key = value if dparts is None else (value, tuple(dparts))
        if key not in cache:
            cache[key] = load_filter_ids(self.index_dir, field, value, dparts)
        return cache[key]


def _damerau_leq(a: str, b: str, d: int) -> bool:
    """True when UNRESTRICTED Damerau-Levenshtein(a, b) <= d — the
    Lowrance-Wagner distance (a transposed adjacent pair costs one
    edit and the substrings between a transposed pair cost their
    length), exactly the metric DuckDB's ``damerau_levenshtein()``
    computes, so the ``transpositions=True`` fuzzy path keeps an
    exact SQL oracle.  Lucene's fuzzy automaton with transpositions
    is the same family; the length/char-mask band filters applied
    before this DP remain valid (transpositions never change length
    or the character multiset)."""
    if abs(len(a) - len(b)) > d:
        return False
    if d == 0:
        return a == b
    return _damerau(a, b) <= d


def _damerau(a: str, b: str) -> int:
    """Exact unrestricted Damerau-Levenshtein distance
    (Lowrance-Wagner; == DuckDB ``damerau_levenshtein``)."""
    la, lb = len(a), len(b)
    inf = la + lb
    # (la+2) x (lb+2) matrix with the -1 sentinel row/col
    h = [[inf] * (lb + 2) for _ in range(la + 2)]
    h[1][1] = 0
    for i in range(1, la + 1):
        h[i + 1][1] = i
    for j in range(1, lb + 1):
        h[1][j + 1] = j
    da: dict[str, int] = {}
    for i in range(1, la + 1):
        db = 0
        for j in range(1, lb + 1):
            k = da.get(b[j - 1], 0)
            l = db
            if a[i - 1] == b[j - 1]:
                cost = 0
                db = j
            else:
                cost = 1
            h[i + 1][j + 1] = min(
                h[i][j] + cost,                       # substitute/match
                h[i + 1][j] + 1,                      # insert
                h[i][j + 1] + 1,                      # delete
                h[k][l] + (i - k - 1) + 1 + (j - l - 1))  # transpose
        da[a[i - 1]] = i
    return h[la + 1][lb + 1]


def _char_mask(s: str) -> int:
    """64-bit char-class bitmask: one bit per hashed character bucket.
    Deterministic (ord-based, not str.__hash__, so actor and driver
    agree across processes)."""
    m = 0
    for c in set(s):
        m |= 1 << ((ord(c) * 2654435761) & 63)
    return m


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR; numpy 1.x has no
    bitwise_count)."""
    x = x.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)) \
        .astype(np.int64)


_RX_STOP = set(".^$*+?{}[]|()\\")


def _regex_literal_prefix(pattern: str) -> str:
    """Longest prefix every match must literally start with —
    conservative: any top-level alternation kills the prefix, and a
    quantifier that can zero-out its target ('*', '?', '{') also
    drops the character it quantifies.

    >>> _regex_literal_prefix("abc[0-9]+")
    'abc'
    >>> _regex_literal_prefix("ab*c")
    'a'
    >>> _regex_literal_prefix("abc|xyz")
    ''
    """
    if "|" in pattern:
        return ""
    lit = []
    for ch in pattern:
        if ch in _RX_STOP:
            if ch in "*?{" and lit:
                lit.pop()      # the quantified char may repeat 0 times
            break
        lit.append(ch)
    return "".join(lit)


def _levenshtein_leq(a: str, b: str, d: int) -> bool:
    """True when plain Levenshtein(a, b) <= d — row DP with an
    early exit when a whole row exceeds the budget."""
    if abs(len(a) - len(b)) > d:
        return False
    if d == 0:
        return a == b
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        row_min = i
        for j, cb in enumerate(b, 1):
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            cur.append(v)
            if v < row_min:
                row_min = v
        if row_min > d:
            return False
        prev = cur
    return prev[-1] <= d


def _prefix_edit_leq(q: str, t: str, d: int,
                     transpositions: bool = True) -> bool:
    """True when the edit distance from ``q`` to SOME PREFIX of ``t``
    is <= ``d`` — the fuzzy-completion predicate (Lucene
    FuzzyCompletionQuery: the typed input may contain up to d edits
    and the suggestion still completes it).  min over the DP's last
    row = distance to the best prefix; columns stop at len(q)+d
    (distance >= |j - len(q)| beyond).  ``transpositions`` uses the
    OSA recurrence (adjacent swap = 1 edit, Lucene's fuzzy-automaton
    default)."""
    if d == 0:
        return t.startswith(q)
    jmax = min(len(t), len(q) + d)
    prev2: list[int] | None = None
    prev = list(range(jmax + 1))     # D[0][j] = j
    for i, cq in enumerate(q, 1):
        cur = [i]
        for j in range(1, jmax + 1):
            ct = t[j - 1]
            v = min(prev[j] + 1, cur[j - 1] + 1,
                    prev[j - 1] + (cq != ct))
            if (transpositions and prev2 is not None and i > 1 and
                    j > 1 and cq == t[j - 2] and q[i - 2] == ct):
                v = min(v, prev2[j - 2] + 1)
            cur.append(v)
        if min(cur) > d:
            # row minima are non-decreasing (every recurrence term
            # references an earlier row's cell), so no later row
            # can come back under the budget
            return False
        prev2, prev = prev, cur
    return min(prev) <= d


def load_filter_value_counts(index_dir: str, field: str,
                             exclude: np.ndarray | None = None
                             ) -> dict[str, int]:
    """Total live doc count per keyword value of ``field`` — the
    background frequencies for significant-terms scoring.  Reads only
    the per-part filter postings; ``exclude`` (sorted tombstone ids)
    is probed out of each value's packed list."""
    fdir = os.path.join(index_dir, "filters", field)
    if not os.path.isdir(fdir):
        return {}
    counts: dict[str, int] = {}
    for fn in sorted(os.listdir(fdir)):
        if not fn.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(fdir, fn), columns=["value", "docs"])
        for v, blob in zip(t.column("value").to_pylist(),
                           t.column("docs").to_pylist()):
            ids = np.frombuffer(blob, dtype="<u8")
            n = ids.size
            if exclude is not None and exclude.size and n:
                pos = np.minimum(np.searchsorted(exclude, ids),
                                 exclude.size - 1)
                n = int(np.count_nonzero(exclude[pos] != ids))
            if n:
                counts[v] = counts.get(v, 0) + n
    return counts


def load_range_pairs(index_dir: str, field: str,
                     dparts: list[int] | None = None
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per range part, the full (values, doc_ids) pair arrays — the
    access path for match-set numeric aggregations (histogram / stats),
    which probe each part's doc ids against a candidate set instead of
    binary-searching a value bound."""
    import os as _os
    rdir = _os.path.join(index_dir, "filters_range", field)
    if not _os.path.isdir(rdir):
        return []
    names = sorted(f for f in _os.listdir(rdir) if f.endswith(".parquet"))
    if dparts is not None:
        names = match_part_files(names, dparts)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for fn in names:
        t = pq.read_table(_os.path.join(rdir, fn))
        vals = t.column("value").to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.uint64)
        out.append((vals, ids))
    return out


def load_range_ids(index_dir: str, field: str, lo=None, hi=None,
                   dparts: list[int] | None = None) -> np.ndarray:
    """Sorted doc ids whose numeric ``field`` value is in [lo, hi]
    (either bound may be None = unbounded) — binary search over the
    value-sorted per-part range tables (filters_range/<field>/,
    build_index PASS C).  ``dparts`` restricts to specific doc
    partitions."""
    rdir = os.path.join(index_dir, "filters_range", field)
    if not os.path.isdir(rdir):
        return np.zeros(0, dtype=np.uint64)
    names = sorted(f for f in os.listdir(rdir) if f.endswith(".parquet"))
    if dparts is not None:
        names = match_part_files(names, dparts)
    chunks: list[np.ndarray] = []
    for fn in names:
        t = pq.read_table(os.path.join(rdir, fn))
        vals = t.column("value").to_numpy(zero_copy_only=False)
        a = 0 if lo is None else int(np.searchsorted(vals, lo, side="left"))
        b = vals.size if hi is None else \
            int(np.searchsorted(vals, hi, side="right"))
        if b > a:
            chunks.append(t.column("doc_id").to_numpy(
                zero_copy_only=False)[a:b].astype(np.uint64))
    if not chunks:
        return np.zeros(0, dtype=np.uint64)
    return np.sort(np.concatenate(chunks))
