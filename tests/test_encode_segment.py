"""The one-pass segment encoder against the per-run loop it replaced.

``_reference_segment`` below is that loop, kept as the oracle: one
argsort / unique / searchsorted per (field, term) run, and a per-run
varint probe for the raw-id vs doc-LUT decision.  Every case writes a
segment with ``_encode_segment`` and the reference table with the same
parquet writer, and requires the same file bytes and the same LUT/raw
decision.  Each case also asserts which arm it exercises, so a change
of the synthetic data cannot quietly drop an arm."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.pipelines import build_index as bi
from siem_on_amazon_opensearch_service_ray.postings import (
    _varint_lengths, encode_postings, varint_encode)


def _reference_segment(group: pa.Table, cfg: bi.IndexConfig) -> dict:
    idx = pa.compute.sort_indices(group, sort_keys=[
        ("field", "ascending"), ("term", "ascending")])
    group = group.take(idx)
    f_col = group.column("field").combine_chunks()
    t_col = group.column("term").combine_chunks()
    npost = group.column("npost").to_numpy().astype(np.int64)
    d_cat = np.frombuffer(b"".join(group.column("docs").to_pylist()),
                          dtype=np.int64).astype(np.uint64)
    tf_cat = np.frombuffer(b"".join(group.column("tfs").to_pylist()),
                           dtype=np.int32).astype(np.uint32)
    nm_cat = np.frombuffer(b"".join(group.column("norms").to_pylist()),
                           dtype=np.uint8)
    cum = np.concatenate(([0], np.cumsum(npost)))
    keys = list(zip(f_col.to_pylist(), t_col.to_pylist()))
    starts = [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]]
    ends = starts[1:] + [len(keys)]
    n = int(d_cat.size)
    with_pos = cfg.store_positions and "pos" in group.column_names
    if with_pos:
        pos_cat = b"".join(group.column("pos").to_pylist())
        pl_cat = np.frombuffer(b"".join(group.column("plens").to_pylist()),
                               dtype=np.uint32).astype(np.int64)
        pos_off = np.concatenate(([0], np.cumsum(pl_cat)))
    seg_lut = np.unique(d_cat)
    lut_deltas = np.diff(seg_lut, prepend=np.uint64(0)).astype(np.uint64)
    lut_blob = varint_encode(lut_deltas)
    consider_lut = n >= seg_lut.size + 64
    runs, raw_parts, ord_parts, ord_running = [], [], [], []
    raw_total = ord_total = 0
    for s, e in zip(starts, ends):
        ps, pe = int(cum[s]), int(cum[e])
        dids, tfs, nms = d_cat[ps:pe], tf_cat[ps:pe], nm_cat[ps:pe]
        order = np.argsort(dids, kind="stable")
        dids, tfs, nms = dids[order], tfs[order], nms[order]
        pidx = np.arange(ps, pe)[order]
        uniq, first = np.unique(dids, return_index=True)
        dids, tfs, nms, pidx = uniq, tfs[first], nms[first], pidx[first]
        if consider_lut and dids.size:
            d = np.diff(dids, prepend=np.uint64(0)).astype(np.uint64)
            ords = np.searchsorted(seg_lut, dids).astype(np.uint64)
            od = np.diff(ords, prepend=np.uint64(0)).astype(np.uint64)
            raw_total += int(_varint_lengths(d).sum())
            ord_total += int(_varint_lengths(od).sum())
            ord_running.append(ord_total)
            if raw_total <= bi._PROBE_SAMPLE or ord_total <= bi._PROBE_SAMPLE:
                raw_parts.append(varint_encode(d))
                ord_parts.append(varint_encode(od))
        runs.append((s, dids, tfs, nms, pidx))

    def disk_cost(parts, total):
        if not parts:
            return 0.0
        blob = b"".join(parts)
        comp = len(pa.compress(blob, codec="snappy", asbytes=True))
        return comp * (total / len(blob)) if total > len(blob) else comp

    costs = (disk_cost(raw_parts, raw_total), disk_cost(ord_parts, ord_total))
    use_lut = consider_lut and \
        (costs[1] + disk_cost([lut_blob], 0)) < costs[0]
    cols = {c: [] for c in ("field", "term", "df", "total_tf", "docs",
                            "tfs", "norms", "skip", "pos")}
    for s, dids, tfs, nms, pidx in runs:
        ids = np.searchsorted(seg_lut, dids).astype(np.uint64) \
            if use_lut else dids
        blobs = encode_postings(ids, tfs, nms)
        cols["field"].append(keys[s][0])
        cols["term"].append(keys[s][1])
        cols["df"].append(int(dids.size))
        cols["total_tf"].append(int(tfs.sum()))
        for c, b in zip(("docs", "tfs", "norms", "skip"), blobs):
            cols[c].append(b)
        cols["pos"].append(b"".join(
            pos_cat[int(pos_off[k]):int(pos_off[k + 1])] for k in pidx)
            if with_pos else b"")
    if use_lut:
        for c, v in (("field", bi.LUT_SENTINEL), ("term", ""),
                     ("df", int(seg_lut.size)), ("total_tf", 0),
                     ("docs", lut_blob), ("tfs", b""), ("norms", b""),
                     ("skip", b""), ("pos", b"")):
            cols[c].append(v)
    types = {"field": pa.string(), "term": pa.string(), "df": pa.int64(),
             "total_tf": pa.int64()}
    return {"table": pa.table({c: pa.array(v, types.get(c, pa.large_binary()))
                               for c, v in cols.items()}),
            "use_lut": use_lut, "gate": consider_lut, "costs": costs,
            "ord_running": ord_running,
            # what the one-pass cost function takes: every run's
            # sorted, deduplicated postings end to end
            "dids": np.concatenate([r[1] for r in runs]),
            "ords": np.searchsorted(seg_lut, np.concatenate(
                [r[1] for r in runs])).astype(np.uint64),
            "df": np.array([r[1].size for r in runs], dtype=np.int64)}


def _group(rng, n_docs, n_terms, per_term, rows_per_term=3,
           with_pos=False, dup_docs=0, part=3) -> pa.Table:
    """A tokenizer-shaped posting group: each (field, term) run split
    over ``rows_per_term`` rows (blocks), doc ids unsorted within and
    across rows, sparse 63-bit ids like the engine's hashes.  The first
    ``dup_docs`` docs of every run reappear in another of its rows with
    a different tf (duplicate input rows)."""
    docs = np.unique(rng.integers(1, 2**63, n_docs + 32, dtype=np.uint64))
    docs = rng.permutation(docs)[:n_docs]
    rows = {c: [] for c in ("field", "term", "docs", "tfs", "norms",
                            "npost", "pos", "plens")}
    for t in range(n_terms):
        k = int(rng.integers(1, per_term + 1))
        d = rng.choice(docs, size=min(k, n_docs), replace=False)
        d = np.concatenate([d, d[:dup_docs]])
        for chunk in np.array_split(d, rows_per_term):
            if not chunk.size:
                continue
            tf = rng.integers(1, 40, chunk.size).astype(np.int32)
            plens = rng.integers(1, 7, chunk.size).astype(np.uint32)
            rows["field"].append("content" if t % 5 else "path")
            rows["term"].append(f"t{t:05d}")
            rows["docs"].append(chunk.astype(np.int64).tobytes())
            rows["tfs"].append(tf.tobytes())
            rows["norms"].append(
                rng.integers(0, 256, chunk.size).astype(np.uint8).tobytes())
            rows["npost"].append(int(chunk.size))
            rows["pos"].append(rng.integers(0, 256, int(plens.sum()))
                               .astype(np.uint8).tobytes())
            rows["plens"].append(plens.tobytes())
    perm = rng.permutation(len(rows["term"]))
    tbl = {"part": pa.array([part] * perm.size, pa.int32())}
    for c, v in rows.items():
        if c in ("pos", "plens") and not with_pos:
            continue
        typ = {"field": pa.string(), "term": pa.string(),
               "npost": pa.int32()}.get(c, pa.large_binary())
        tbl[c] = pa.array([v[i] for i in perm], typ)
    return pa.table(tbl)


# case -> (group shape, LUT gate open, LUT chosen)
CASES = {
    # many terms over few docs: ordinal gaps are tiny, the LUT wins
    "lut_wins": (dict(n_docs=300, n_terms=600, per_term=120), True, True),
    # many short runs over many docs: the gate opens, but nearly every
    # id would be paid for twice under the LUT
    "raw_wins": (dict(n_docs=20000, n_terms=1500, per_term=3), True, False),
    # fewer than 64 postings beyond one per unique doc: no probe at all
    "below_gate": (dict(n_docs=500, n_terms=40, per_term=12), False, False),
    # the same doc twice in a run with different tfs: first one wins
    "duplicates": (dict(n_docs=200, n_terms=300, per_term=60,
                        dup_docs=3), True, True),
    "positions": (dict(n_docs=200, n_terms=300, per_term=60,
                       with_pos=True, dup_docs=2), True, True),
}


def _check_against_reference(tmp_path, group, cfg) -> dict:
    """Encode ``group`` both ways; require equal segment bytes, the
    same LUT/raw decision and, when the gate opened, the same probe
    costs (a probe fault need not flip the decision on a given input).
    -> the reference's record."""
    ref = _reference_segment(group, cfg)
    out = tmp_path / "new"
    bi._encode_segment(group, str(out), "fp", cfg, [])
    part = group.column("part")[0].as_py()
    seg = out / "parts" / f"part-{part:04d}" / "seg-00.parquet"
    ref_path = str(tmp_path / "ref.parquet")
    bi._atomic_write_table(ref["table"], ref_path)
    new_lut = bi.LUT_SENTINEL in pq.read_table(
        str(seg), columns=["field"]).column("field").to_pylist()
    assert new_lut is ref["use_lut"]
    with open(seg, "rb") as a, open(ref_path, "rb") as b:
        assert a.read() == b.read()
    if ref["gate"]:
        assert bi._docs_stream_costs(ref["dids"], ref["ords"],
                                     ref["df"]) == ref["costs"]
    return ref


@pytest.mark.parametrize("case", sorted(CASES))
def test_encoder_matches_per_run_reference(tmp_path, case):
    kw, want_gate, want_lut = CASES[case]
    cfg = bi.IndexConfig(store_positions=kw.get("with_pos", False))
    group = _group(np.random.default_rng(sorted(CASES).index(case)), **kw)
    ref = _check_against_reference(tmp_path, group, cfg)
    # the case exercises its arm
    assert (ref["gate"], ref["use_lut"]) == (want_gate, want_lut)


@pytest.mark.parametrize("budget", [0, 64, 700, 4096, "at_run_end"])
def test_sampled_probe_prefix_matches_reference(tmp_path, monkeypatch,
                                                budget):
    """A probe budget below the stream size: only a prefix of runs is
    encoded and snappy-measured, and the rest is extrapolated from the
    exact varint lengths.  Budget 0 samples nothing (both costs 0.0);
    ``at_run_end`` sets the budget to a run's exact running byte total,
    so that run must be in the sample."""
    group = _group(np.random.default_rng(11), n_docs=300, n_terms=600,
                   per_term=120)
    if budget == "at_run_end":
        running = _reference_segment(group, bi.IndexConfig())["ord_running"]
        budget = running[len(running) // 3]
    monkeypatch.setattr(bi, "_PROBE_SAMPLE", budget)
    n_raw = sum(len(b) for b in group.column("docs").to_pylist())
    assert budget < n_raw // 8          # the stream is really sampled
    ref = _check_against_reference(tmp_path, group, bi.IndexConfig())
    assert ref["gate"]


def test_duplicate_posting_keeps_first_tf(tmp_path):
    """Decoded check of first-wins dedup, independent of the oracle."""
    from siem_on_amazon_opensearch_service_ray.postings import (
        decode_postings)
    ids = np.array([9, 5, 9, 7], dtype=np.int64)
    group = pa.table({
        "part": pa.array([0, 0], pa.int32()),
        "field": ["content", "content"], "term": ["x", "x"],
        "docs": pa.array([ids[:2].tobytes(), ids[2:].tobytes()],
                         pa.large_binary()),
        "tfs": pa.array([np.array([3, 1], np.int32).tobytes(),
                         np.array([8, 2], np.int32).tobytes()],
                        pa.large_binary()),
        "norms": pa.array([bytes([1, 2]), bytes([3, 4])], pa.large_binary()),
        "npost": pa.array([2, 2], pa.int32()),
    })
    bi._encode_segment(group, str(tmp_path), "fp", bi.IndexConfig(), [])
    t = pq.read_table(os.path.join(tmp_path, "parts", "part-0000",
                                   "seg-00.parquet")).to_pylist()
    assert [r["field"] for r in t] == ["content"]
    r = t[0]
    tp = decode_postings(r["docs"], r["tfs"], r["norms"], r["df"])
    assert tp.doc_ids.tolist() == [5, 7, 9]
    assert tp.tfs.tolist() == [1, 2, 3]
    assert tp.norms.tolist() == [2, 4, 1]
    assert r["total_tf"] == 6
