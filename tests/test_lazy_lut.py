"""Lazy ordinal->id remap of LUT segments (state/shard.py).

A high-overlap corpus (many terms sharing the same docs) makes the
adaptive encoder pick the per-segment doc LUT; the reader must then
(a) load WITHOUT re-encoding the vocabulary, (b) remap a term's rows
on first access, byte-identically to materialize_all()'s batched
remap, and (c) serve search results identical to the flat scorer.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig, build_index)
from siem_on_amazon_opensearch_service_ray.state.shard import ShardReader


@pytest.fixture(scope="module")
def lut_index(ray_session, tmp_path_factory):
    """400 docs over a tiny shared vocabulary -> every part's segment
    has many postings per unique doc id, so the LUT always wins."""
    root = tmp_path_factory.mktemp("lutidx")
    corpus = str(root / "corpus")
    os.makedirs(corpus)
    rng = np.random.default_rng(9)
    vocab = [f"tok{i:02d}" for i in range(40)]
    rows = [" ".join(rng.choice(vocab, size=60)) for _ in range(400)]
    pq.write_table(pa.table({
        "repo": pa.array(["r0"] * 400),
        "path": pa.array([f"f{i}.py" for i in range(400)]),
        "commit": pa.array(["c0"] * 400),
        "lang": pa.array(["py"] * 400),
        "content": pa.array(rows, pa.large_string()),
    }), os.path.join(corpus, "chunk-00000.parquet"), row_group_size=128)
    index_dir = str(root / "idx")
    cfg = IndexConfig(num_partitions=2)
    build_index(corpus, index_dir, cfg)
    return index_dir


def _segment_has_lut(index_dir: str, part: int) -> bool:
    pdir = os.path.join(index_dir, "parts", f"part-{part:04d}")
    for seg in os.listdir(pdir):
        if not seg.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(pdir, seg), columns=["field"])
        if "\x00lut" in t.column("field").to_pylist():
            return True
    return False


def test_lut_chosen_and_rows_deferred(lut_index):
    assert any(_segment_has_lut(lut_index, p) for p in (0, 1)), \
        "fixture failed to trigger the adaptive LUT encoder"
    for p in (0, 1):
        if not _segment_has_lut(lut_index, p):
            continue
        rdr = ShardReader(lut_index, p)
        n_def = sum(1 for rows in rdr.terms.values()
                    for r in rows if len(r) == 7)
        assert n_def > 0, "load eagerly re-encoded the LUT segment"


def test_lazy_remap_matches_materialize_all(lut_index):
    for p in (0, 1):
        lazy = ShardReader(lut_index, p)
        eager = ShardReader(lut_index, p)
        eager.materialize_all()
        assert not any(len(r) == 7 for rows in eager.terms.values()
                       for r in rows)
        for key in sorted(eager.terms):
            field, term = key
            # per-term lazy remap must produce the same bytes as the
            # whole-part batched remap
            assert lazy.raw_rows(field, term) == eager.terms[key], key
        # df never needs materialization
        fresh = ShardReader(lut_index, p)
        for key in sorted(eager.terms):
            assert fresh.df(*key) == eager.df(*key)
            assert all(len(r) == 7 or len(r) == 6
                       for r in fresh.terms[key])


def test_lazy_reader_postings_sorted_and_complete(lut_index):
    rdr = ShardReader(lut_index, 0)
    hits = 0
    for key in list(rdr.terms):
        tp = rdr.postings(*key)
        assert tp is not None
        ids = tp.doc_ids
        assert np.all(ids[:-1] < ids[1:])          # sorted unique
        assert ids.size == rdr.df(*key)
        hits += 1
    assert hits > 0
