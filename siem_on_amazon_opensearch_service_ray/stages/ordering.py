"""Deterministic data ordering for training pipelines: seeded global
shuffle and train/val/test split assignment.

Both ride ONE hash — the engine's seed-deterministic two-multiply mix
over the 32-bit id (the same formula `state/searcher.py`'s
``random_score`` scores with, kept in sync by test):

    x = (id mod 2^32) * 100003 mod 2^32          (pre-scale)
    m = 69069 + 2*((seed * 10007) mod 2^20)      (odd, seeded)
    h = x * m mod 2^32

Every product stays below 2^54 (x < 2^32 and m < 2^22; the
pre-scale product is below 2^49), so it is exact in the uint64 numpy
arithmetic here and in DuckDB's signed 64-bit BIGINT, which restates
the hash bit-identically.  (It is NOT below 2^53: x * m can pass it,
so no step may go through float64.)  The shuffle ORDER and the split
assignment both have exact SQL oracles.

Why not ``ds.random_shuffle()``: it is nondeterministic across runs
and cluster shapes, which breaks training reproducibility and makes
resumable runs impossible.  A hash ORDER is a plain ``Dataset.sort``
— one all-to-all exchange, exactly the shuffle a training-data prep
job pays before sharding to data-loader files — and re-running with
the same seed yields the same order on any cluster size.

Split assignment is pure row-local map work (no shuffle): a doc's
split follows its hash bucket against integer thresholds
``floor(cum_fraction * 2^32)``, so membership is exact, stable under
re-runs, and independent of row order or partitioning.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

_M32 = np.uint64(0xFFFFFFFF)


def order_hash(ids: np.ndarray, seed: int = 0) -> np.ndarray:
    """The shared deterministic mix: uint64 ids -> uint32-range hash
    (as uint64).  Vectorized; same bits as the SQL restatement."""
    seed = int(seed) & 0xFFFFFFFF
    mult = np.uint64(69069 + 2 * ((seed * 10007) % 1048576))
    x = ((np.asarray(ids, np.uint64) & _M32)
         * np.uint64(100003)) & _M32
    return (x * mult) & _M32


def order_hash_sql(col: str, seed: int = 0) -> str:
    """The identical hash as a DuckDB SQL expression over ``col``."""
    seed = int(seed) & 0xFFFFFFFF
    mult = 69069 + 2 * ((seed * 10007) % 1048576)
    return (f"((({col} % 4294967296) * 100003 % 4294967296)"
            f" * {mult} % 4294967296)")


def deterministic_shuffle(ds: rd.Dataset, id_col: str = "doc_id",
                          seed: int = 0,
                          hash_col: str = "_shuffle_key"
                          ) -> rd.Dataset:
    """Seeded global shuffle: append the hash column (streaming map)
    and sort by (hash, id) — ties (hash collisions) break by id so the
    order is total and reproducible.  ONE all-to-all exchange; the
    hash column is left on the rows so a downstream writer can range-
    partition output files by it (resumable sharded writes)."""

    def add_key(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        h = order_hash(ids.astype(np.uint64), seed)
        return batch.append_column(hash_col,
                                   pa.array(h.astype(np.int64),
                                            pa.int64()))

    return ds.map_batches(add_key, batch_format="pyarrow") \
             .sort([hash_col, id_col])


def assign_splits(ds: rd.Dataset, id_col: str = "doc_id",
                  fractions: dict[str, float] | None = None,
                  seed: int = 0, split_col: str = "split"
                  ) -> rd.Dataset:
    """Deterministic train/val/test assignment: each row's split is
    the hash's bucket against integer thresholds
    ``floor(cumulative_fraction * 2^32)`` — row-local, no shuffle,
    stable under re-runs and re-partitioning.  ``fractions`` must sum
    to 1 (±1e-9); the LAST split absorbs the rounding remainder."""
    fractions = fractions or {"train": 0.9, "val": 0.05, "test": 0.05}
    if abs(sum(fractions.values()) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got "
                         f"{sum(fractions.values())}")
    names = list(fractions)
    cum = 0.0
    bounds: list[int] = []
    for n in names[:-1]:
        cum += float(fractions[n])
        bounds.append(int(cum * 4294967296))
    thresholds = np.asarray(bounds, np.uint64)
    names_arr = np.asarray(names, dtype=object)

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        h = order_hash(ids.astype(np.uint64), seed)
        idx = np.searchsorted(thresholds, h, side="right")
        return batch.append_column(
            split_col, pa.array(names_arr[idx], pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def split_sql_case(col: str, fractions: dict[str, float],
                   seed: int = 0) -> str:
    """The identical split assignment as a DuckDB CASE expression."""
    names = list(fractions)
    cum = 0.0
    h = order_hash_sql(col, seed)
    arms = []
    for n in names[:-1]:
        cum += float(fractions[n])
        arms.append(f"WHEN {h} < {int(cum * 4294967296)} THEN '{n}'")
    return f"CASE {' '.join(arms)} ELSE '{names[-1]}' END"


def write_training_shards(ds: rd.Dataset, out_dir: str,
                          id_col: str = "doc_id",
                          fractions: dict[str, float] | None = None,
                          shards_per_split: int = 4, seed: int = 0
                          ) -> dict:
    """The terminal training-prep stage: assign splits, shuffle-key
    every row, and write partitioned parquet
    ``out_dir/split=<name>/shard=<k>/…`` — one directory per
    (split, shard) so a data loader reads one shard directory per
    worker.

    Publication is atomic: the run writes into ``<out_dir>.partial``
    (next to ``out_dir``), records the spec and counts in its marker
    file, then renames the whole tree to ``out_dir``.  A crashed run
    leaves only the ``.partial`` debris, which the rerun clears before
    writing afresh — so a rerun never appends beside partial files.
    A finished ``out_dir`` (marker present) with the same spec is a
    no-op; a different spec, or an ``out_dir`` that holds files but
    no marker, is refused.  One writer per ``out_dir`` at a time.

    Shard assignment rides a SECOND seed of the same hash (seed+1),
    so shard membership is independent of the split hash; within a
    shard, rows carry their shuffle key for the loader to order by —
    a global sorted-by-hash write would serialize on one writer, so
    ordering is delegated to the (small) per-shard read side.
    Returns {"marker": path, "splits": {...}} counts."""
    import json
    import os
    import shutil
    fractions = fractions or {"train": 0.9, "val": 0.05, "test": 0.05}
    out_dir = os.path.normpath(out_dir)
    marker = os.path.join(out_dir, "_TRAINING_SHARDS.json")
    spec = {"fractions": fractions, "seed": seed,
            "shards_per_split": shards_per_split, "id_col": id_col}
    if os.path.exists(marker):
        with open(marker) as f:
            prev = json.load(f)
        if prev.get("spec") == spec:
            return prev        # finished run — resume is a no-op
        raise ValueError("out_dir holds shards written under a "
                         "DIFFERENT spec — refusing to mix")
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise ValueError(f"{out_dir} holds files but no training-shards "
                         "marker — refusing to write into it")
    tmp = out_dir + ".partial"
    shutil.rmtree(tmp, ignore_errors=True)   # a crashed run's debris
    ds = assign_splits(ds, id_col=id_col, fractions=fractions,
                       seed=seed)

    def add_shard(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        h = order_hash(ids.astype(np.uint64), seed + 1)
        shard = (h % np.uint64(shards_per_split)).astype(np.int64)
        key = order_hash(ids.astype(np.uint64), seed)
        batch = batch.append_column("shard",
                                    pa.array(shard, pa.int64()))
        return batch.append_column("_shuffle_key",
                                   pa.array(key.astype(np.int64),
                                            pa.int64()))

    ds = ds.map_batches(add_shard, batch_format="pyarrow")
    ds.write_parquet(tmp, partition_cols=["split", "shard"])
    counts: dict[str, int] = {}
    import pyarrow.dataset as pads
    dset = pads.dataset(tmp, partitioning="hive")
    for name in fractions:
        counts[name] = dset.count_rows(
            filter=pads.field("split") == name)
    meta = {"spec": spec, "splits": counts, "marker": marker}
    with open(os.path.join(tmp, os.path.basename(marker)), "w") as f:
        json.dump(meta, f)
    if os.path.isdir(out_dir):
        os.rmdir(out_dir)                    # empty (checked above)
    os.rename(tmp, out_dir)
    return meta
