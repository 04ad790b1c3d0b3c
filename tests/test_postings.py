"""Delta-varint block codec roundtrips + block-max metadata."""

import numpy as np

from siem_on_amazon_opensearch_service_ray.postings import (
    BLOCK, TermPostings, decode_block, decode_postings, decode_skip,
    encode_postings, merge_postings, varint_decode, varint_encode)


def test_varint_roundtrip_small_and_large():
    rng = np.random.RandomState(7)
    vals = np.concatenate([
        np.arange(300, dtype=np.uint64),
        rng.randint(0, 2**31, 1000).astype(np.uint64),
        (rng.randint(0, 2**62, 1000).astype(np.uint64)),
        np.array([0, 1, 127, 128, 2**63 - 1, 2**64 - 1], dtype=np.uint64),
    ])
    out = varint_decode(varint_encode(vals), len(vals))
    assert np.array_equal(out, vals)


def test_varint_empty():
    assert varint_decode(varint_encode(np.zeros(0, np.uint64))).size == 0


def _random_postings(n, seed=3):
    rng = np.random.RandomState(seed)
    raw = rng.randint(0, 2**62, 4 * n + 16).astype(np.uint64)
    doc_ids = np.unique(raw)[:n]
    assert doc_ids.size == n
    tfs = rng.randint(1, 50, n).astype(np.uint32)
    norms = rng.randint(0, 255, n).astype(np.uint8)
    return doc_ids, tfs, norms


def test_postings_roundtrip():
    for n in (1, 5, BLOCK, BLOCK + 1, 5 * BLOCK + 17):
        doc_ids, tfs, norms = _random_postings(n, seed=n)
        docs_b, tfs_b, norms_b, skip_b = encode_postings(doc_ids, tfs, norms)
        tp = decode_postings(docs_b, tfs_b, norms_b, n)
        assert np.array_equal(tp.doc_ids, doc_ids)
        assert np.array_equal(tp.tfs, tfs)
        assert np.array_equal(tp.norms, norms)


def test_skip_blockmax_metadata():
    n = 5 * BLOCK + 17
    doc_ids, tfs, norms = _random_postings(n)
    _, _, _, skip_b = encode_postings(doc_ids, tfs, norms)
    skip = decode_skip(skip_b)
    assert skip.shape[0] == (n + BLOCK - 1) // BLOCK
    for j in range(skip.shape[0]):
        lo, hi = j * BLOCK, min((j + 1) * BLOCK, n)
        assert skip[j]["last_doc"] == doc_ids[hi - 1]
        assert skip[j]["max_tf"] == tfs[lo:hi].max()
        assert skip[j]["min_norm"] == norms[lo:hi].min()


def test_block_decode_matches_full_decode():
    n = 7 * BLOCK + 3
    doc_ids, tfs, norms = _random_postings(n, seed=11)
    docs_b, tfs_b, norms_b, skip_b = encode_postings(doc_ids, tfs, norms)
    skip = decode_skip(skip_b)
    for j in range(skip.shape[0]):
        d, t, m = decode_block(docs_b, tfs_b, norms_b, skip, j, n)
        lo, hi = j * BLOCK, min((j + 1) * BLOCK, n)
        assert np.array_equal(d, doc_ids[lo:hi])
        assert np.array_equal(t, tfs[lo:hi])
        assert np.array_equal(m, norms[lo:hi])


def test_merge_salted_runs():
    doc_ids, tfs, norms = _random_postings(500, seed=5)
    # a term's runs across 3 doc parts (doc_id % 3)
    runs = []
    for s in range(3):
        m = (doc_ids % 3) == s
        runs.append(TermPostings(doc_ids[m], tfs[m], norms[m]))
    merged = merge_postings(runs)
    assert np.array_equal(merged.doc_ids, doc_ids)
    assert np.array_equal(merged.tfs, tfs)
    assert np.array_equal(merged.norms, norms)


def test_positions_roundtrip():
    from siem_on_amazon_opensearch_service_ray.postings import (
        decode_positions, encode_positions)
    pls = [np.array([0, 3, 3, 7], dtype=np.uint64),
           np.array([2], dtype=np.uint64),
           np.array([1, 1, 1], dtype=np.uint64)]
    tfs = np.array([4, 1, 3], dtype=np.uint32)
    blob = encode_positions(pls)
    out = decode_positions(blob, tfs)
    for a, b in zip(out, pls):
        assert np.array_equal(a, b)


def test_match_part_files_width_agnostic():
    from siem_on_amazon_opensearch_service_ray.state.shard import \
        match_part_files
    names = ["part-0001.parquet", "part-0001-gabcdef12.parquet",
             "part-0012.parquet", "part-12345.parquet",
             "part-12345-gdeadbeef.parquet"]
    assert match_part_files(names, [1]) == names[:2]
    # >4-digit parts must not be silently dropped (ADVICE r2)
    assert match_part_files(names, [12345]) == names[3:]
    assert match_part_files(names, [12]) == ["part-0012.parquet"]
    assert match_part_files(names, [2]) == []


def test_encode_postings_batch_byte_identity():
    """encode_postings_batch must equal the per-run encoder byte for
    byte on every run-size shape (incl. empty runs, 1-posting runs,
    multi-block runs crossing the 128 boundary)."""
    import numpy as np
    from siem_on_amazon_opensearch_service_ray.postings import (
        encode_postings, encode_postings_batch)
    rng = np.random.default_rng(3)
    runs = []
    for n in (0, 1, 2, 127, 128, 129, 1000, 5000):
        ids = np.unique(rng.integers(0, 2**63, n + 8, dtype=np.uint64))[:n]
        tfs = rng.integers(1, 300, ids.size).astype(np.uint32)
        nms = rng.integers(0, 255, ids.size).astype(np.uint8)
        runs.append((ids, tfs, nms))
    want = [encode_postings(*r) for r in runs]
    got = encode_postings_batch([r[0] for r in runs],
                                [r[1] for r in runs],
                                [r[2] for r in runs])
    assert got == want
    assert encode_postings_batch([], [], []) == []
