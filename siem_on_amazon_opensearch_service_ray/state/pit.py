"""Point-in-time (PIT) search contexts — OpenSearch's
``POST /<index>/_search/point_in_time`` / ``"pit": {"id": …}`` /
``DELETE /_search/point_in_time`` surface (the consistent-pagination
primitive Dashboards uses for deep scrolling).

A PIT pins VISIBILITY: searches under it see exactly the docs that
were live when it was opened — docs ingested later (new
``extend_index`` / ``_bulk`` generations) are invisible, and docs
deleted later (new tombstones) are still returned.  State is
server-side like OpenSearch's (a small JSON under ``<index>/pits/``
naming the open-time generation set and tombstone ids), so any
Searcher over the index — including one opened later — can execute
against it; a full ``build_index`` rebuild changes the base
fingerprint and invalidates open PITs.

Mechanics: the pinned view is an EXCLUSION SET — the open-time
tombstones plus every doc id of generations ingested after the open
(ids come from a column-pruned ``doc_id`` scan of the generation's
own ``part-*-g<fp>.parquet`` docstore files; a generation knows its
docs by filename, so nothing else is read).  The set swaps in through
the same tombstone machinery deletes use (driver + one actor
broadcast round) and swaps back out with ``refresh_tombstones``.

Documented deviation: corpus statistics (df / N / avgdl) are NOT
pinned — like Lucene's deleted-doc semantics (tombstoned docs keep
counting in df until compaction), a PIT freezes the match set, not
the scoring environment.  Match sets under a PIT are exact;
scores drift with later ingests exactly as they do for tombstones.

Reference: the SIEM reference delegates PITs to OpenSearch itself;
this module re-expresses the API over the engine's generation ledger
(`pipelines/build_index.extend_index`) and tombstone files.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager

import numpy as np
import pyarrow.parquet as pq

_PITS_DIR = "pits"
_ORDINAL_FILE = "next_ordinal"


def _pits_path(index_dir: str) -> str:
    return os.path.join(index_dir, _PITS_DIR)


def _manifest(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "INDEX_MANIFEST.json")) as f:
        return json.load(f)


def _next_ordinal(pits: str) -> int:
    """Reserve the next PIT ordinal from a counter persisted beside the
    PIT states.  Ordinals never repeat, even after closes — a count of
    the open PITs would hand a new PIT the ordinal (and so the id) of
    a live one."""
    path = os.path.join(pits, _ORDINAL_FILE)
    try:
        with open(path) as f:
            n = int(f.read())
    except FileNotFoundError:
        n = 0
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(str(n + 1))
    os.replace(tmp, path)
    return n


def open_pit(index_dir: str) -> str:
    """Open a PIT over the index's CURRENT state; returns the pit id.
    Repeated opens return distinct ids (each carries a fresh ordinal),
    so independent consumers can close theirs without interference."""
    from .shard import load_tombstones
    man = _manifest(index_dir)
    gens = sorted(man.get("generations", {}))
    tombs = load_tombstones(index_dir)
    pits = _pits_path(index_dir)
    os.makedirs(pits, exist_ok=True)
    while True:
        ordinal = _next_ordinal(pits)
        raw = json.dumps([man["fingerprint"], gens, tombs.tolist(),
                          ordinal]).encode()
        pid = hashlib.blake2b(raw, digest_size=12).hexdigest()
        state = {"base": man["fingerprint"], "generations": gens,
                 "tombstones": [int(x) for x in tombs.tolist()],
                 "ordinal": ordinal}
        try:
            # exclusive create: a concurrent opener that drew the
            # same ordinal makes this one draw again
            with open(os.path.join(pits, f"{pid}.json"), "x") as f:
                json.dump(state, f)
        except FileExistsError:
            continue
        return pid


def close_pit(index_dir: str, pit_id: str) -> bool:
    """Delete a PIT's server-side state; True if it existed."""
    p = os.path.join(_pits_path(index_dir), f"{pit_id}.json")
    if not os.path.exists(p):
        return False
    os.remove(p)
    return True


def _gen_doc_ids(index_dir: str, gen_fp: str) -> np.ndarray:
    """All doc ids of one generation — a column-pruned scan of its
    ``part-*-g<fp8>.parquet`` docstore files (the generation suffix is
    part of the filename, so no other file is touched)."""
    store = os.path.join(index_dir, "docstore")
    suffix = f"-g{gen_fp[:8]}.parquet"
    out: list[np.ndarray] = []
    for fn in sorted(os.listdir(store)):
        if fn.endswith(suffix):
            out.append(pq.read_table(os.path.join(store, fn),
                                     columns=["doc_id"])
                       .column("doc_id").to_numpy(zero_copy_only=False)
                       .astype(np.uint64))
    return (np.concatenate(out) if out
            else np.zeros(0, dtype=np.uint64))


def pit_exclusions(index_dir: str, pit_id: str) -> np.ndarray:
    """The sorted uint64 exclusion set realizing a PIT's view today:
    open-time tombstones ∪ every doc of each post-open generation.
    Raises KeyError for an unknown/closed pit id and ValueError when
    the index was rebuilt since the open."""
    p = os.path.join(_pits_path(index_dir), f"{pit_id}.json")
    if not os.path.exists(p):
        raise KeyError(f"unknown or closed pit id {pit_id!r}")
    with open(p) as f:
        st = json.load(f)
    man = _manifest(index_dir)
    if man["fingerprint"] != st["base"]:
        raise ValueError(
            "pit is invalid: the index was rebuilt since the PIT was "
            "opened (full rebuilds change the base fingerprint)")
    parts = [np.asarray(st["tombstones"], dtype=np.uint64)]
    for g in sorted(set(man.get("generations", {}))
                    - set(st["generations"])):
        parts.append(_gen_doc_ids(index_dir, g))
    return np.unique(np.concatenate(parts)) if parts else \
        np.zeros(0, dtype=np.uint64)


@contextmanager
def pit_view(searcher, pit_id: str):
    """Run queries under a PIT: swaps the pinned exclusion set into
    the searcher (driver + one actor broadcast), restores the live
    tombstones on exit.  Usage::

        with pit_view(s, pid):
            s.search("spark join", k=10)
    """
    excl = pit_exclusions(searcher.index_dir, pit_id)
    searcher.set_tombstones_override(excl)
    try:
        yield searcher
    finally:
        searcher.refresh_tombstones()
