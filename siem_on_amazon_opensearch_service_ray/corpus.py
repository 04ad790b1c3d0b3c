"""Deterministic synthetic source-code corpus (FIXTURES.md F1).

Schema is exactly BASELINE.json ``input_hint``:
``repo:string, path:string, commit:string, lang:string,
content:large_string``.

Generation is chunked and seeded per chunk index, so any parallelism
level produces identical rows; content plants:
- one very hot term (``def``) in most docs (skew tests),
- rare marker terms ``needle_<i>`` in a handful of docs (top-k tests),
- camelCase / snake_case identifiers (sub-token analyzer tests),
- a few multi-megabyte rows (wide-record tests),
- exact duplicate (repo, path, commit) rows (dedup tests).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LANGS = ["python", "java", "go", "js", "rust", "c"]
EXT = {"python": "py", "java": "java", "go": "go", "js": "js", "rust": "rs", "c": "c"}

_KEYWORDS = ("def return import class for while if else try except fn func "
             "static void int let const var struct impl match map filter "
             "reduce async await yield lambda print error value result").split()
_CAMEL = ("getHttpResponse parseJsonBody buildIndexShard tokenStreamFactory "
          "maxScoreBound deltaVarintBlock readParquetBatch mergeSortedRuns "
          "computeTermFreq scoreTopKDocs").split()
_SNAKE = ("doc_id content_sha256 term_freq block_max_wand posting_list "
          "shard_builder avg_doc_len num_partitions salt_factor skip_pointer").split()

CHUNK = 2000


def _gen_chunk(chunk_idx: int, n: int, seed: int) -> pa.Table:
    rng = np.random.RandomState((seed * 1_000_003 + chunk_idx) % (2**31 - 1))
    base = chunk_idx * CHUNK
    rows_repo, rows_path, rows_commit, rows_lang, rows_content = [], [], [], [], []
    for i in range(n):
        gid = base + i
        # zipf-ish repo sizes
        org = int(rng.zipf(1.6)) % 20
        proj = int(rng.zipf(1.4)) % 10
        repo = f"org{org}/proj{proj}"
        lang = LANGS[int(rng.randint(0, len(LANGS)))]
        path = f"src/pkg_{int(rng.randint(0, 40))}/mod_{int(rng.randint(0, 100))}.{EXT[lang]}"
        commit = f"{gid:08d}" + "".join(rng.choice(list("0123456789abcdef"), 32))
        n_words = int(rng.randint(30, 300))
        words = list(rng.choice(_KEYWORDS, n_words))
        # hot term for skew tests
        if rng.rand() < 0.8:
            words += ["def"] * int(rng.randint(1, 6))
        words += list(rng.choice(_CAMEL, int(rng.randint(0, 6))))
        words += list(rng.choice(_SNAKE, int(rng.randint(0, 6))))
        # rare planted terms: ~1 doc in 500
        if gid % 500 == 137:
            words += [f"needle_{gid % 5000}"]
        rng.shuffle(words)
        content = " ".join(words)
        # a few wide rows (~2 MB) for wide-record tests
        if gid % 2500 == 1234:
            content = content + (" padToken" * 250_000)
        rows_repo.append(repo)
        rows_path.append(path)
        rows_commit.append(commit)
        rows_lang.append(lang)
        rows_content.append(content)
        # exact duplicate (repo, path, commit) row ~1/400
        if gid % 400 == 23:
            rows_repo.append(repo)
            rows_path.append(path)
            rows_commit.append(commit)
            rows_lang.append(lang)
            rows_content.append(content)
    return pa.table({
        "repo": pa.array(rows_repo, pa.string()),
        "path": pa.array(rows_path, pa.string()),
        "commit": pa.array(rows_commit, pa.string()),
        "lang": pa.array(rows_lang, pa.string()),
        "content": pa.array(rows_content, pa.large_string()),
    })


def generate_corpus(out_dir: str, n_docs: int, seed: int = 42) -> str:
    """Write the corpus as one parquet file per chunk (resumable,
    deterministic, parallel-read-friendly).  Idempotent: skips if the
    directory already holds the expected files."""
    os.makedirs(out_dir, exist_ok=True)
    n_chunks = (n_docs + CHUNK - 1) // CHUNK
    done_marker = os.path.join(out_dir, f".done-v2-{n_docs}-{seed}")
    if os.path.exists(done_marker):
        return out_dir

    def _write_chunk(c: int, n: int) -> None:
        tbl = _gen_chunk(c, n, seed)
        tmp = os.path.join(out_dir, f".tmp-chunk-{c:05d}.parquet")
        # small row groups so ray.data can split file reads for
        # parallelism (one block per row group)
        pq.write_table(tbl, tmp, row_group_size=256)
        os.replace(tmp, os.path.join(out_dir, f"chunk-{c:05d}.parquet"))

    chunks = [(c, min(CHUNK, n_docs - c * CHUNK)) for c in range(n_chunks)]
    # chunk seeds are index-derived, so parallel generation is
    # deterministic; use Ray when a session is live and the corpus is big
    try:
        import ray
        use_ray = ray.is_initialized() and n_chunks >= 16
    except ImportError:
        use_ray = False
    if use_ray:
        import ray
        fn = ray.remote(lambda c, n: _write_chunk(c, n))
        ray.get([fn.remote(c, n) for c, n in chunks])
    else:
        for c, n in chunks:
            _write_chunk(c, n)
    with open(done_marker, "w") as f:
        f.write("ok")
    return out_dir


def corpus_paths(out_dir: str) -> list[str]:
    return sorted(
        os.path.join(out_dir, f) for f in os.listdir(out_dir)
        if f.startswith("chunk-") and f.endswith(".parquet")
    )
