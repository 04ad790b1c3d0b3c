"""Seeded code-text corpus for the benchmark.

Rows follow the engine's input schema ``(repo, path, commit, lang,
content)``.  Content is real source text: Python files from the running
interpreter's standard library.  Why real text and not the synthetic
generator in ``siem_on_amazon_opensearch_service_ray/corpus.py``: that
generator draws from about a hundred words, so every build encodes a
tiny dictionary and every query hits the same few postings.  Real code
has a Zipf vocabulary (rank-frequency slope close to -1, checked below)
with a long tail of identifiers that occur once, and the build's
per-term cost and the searcher's postings cache both depend on that
tail.

What the seed decides, and why:

- The file sample.  The pool is every stdlib ``.py`` file of 4-40 KiB
  outside test directories.  The sample takes one file per size
  stratum, and among a few seeded candidates per stratum the one that
  keeps the sample's distinct-term count on a fixed trajectory.  Build
  cost grows with distinct terms, so this keeps the work per build
  about the same for every seed while the files themselves change.
- ``repo``: Zipf over a handful of repositories, ``lang``: a skewed
  choice (most rows "python"), ``commit``: 40 hex digits.  The
  dashboard panels aggregate these keyword fields; skew gives them a
  head and a tail.
- The ``commit`` draw is repeated until the row's doc id falls in the
  index partition its position calls for (``doc_id % P`` in the
  default doc layout, round robin over rows).  A request does work in
  every non-empty partition, and two dozen hashed ids leave one or two
  of the eight partitions empty for some seeds: panels then ran 20%
  faster on six segments than on eight, a spread that came from the
  draw and not from the engine.  A corpus of thousands of files fills
  every partition evenly; this keeps the small one that way.
- Needles: unique lowercase tokens (one analyzer term each) planted
  in some rows; a query for one must return exactly that row.
- Duplicates: a few rows repeated verbatim.  The index deduplicates
  on ``(repo, path, commit)``, so its ``n_docs`` must equal the number
  of distinct keys, not of rows.

The pool itself is pinned by ``POOL_SHA256``.  A host whose standard
library differs would otherwise measure a different input under the
same seed; ``load_pool`` refuses to run instead.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import sysconfig
from collections import Counter
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from siem_on_amazon_opensearch_service_ray.analysis import ANALYZERS
from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
    IndexConfig)
from siem_on_amazon_opensearch_service_ray.stages.docprep import (
    compute_doc_ids)

# Fingerprint of the eligible stdlib files (path + content), and their
# count.  Recompute with ``python3 perfbench/corpus.py`` when the
# interpreter changes on purpose.
POOL_SHA256 = "e8a32d96e451a0bf"
POOL_FILES = 400

_SKIP_DIRS = {"site-packages", "dist-packages", "test", "tests",
              "idle_test", "__pycache__"}
_MIN_BYTES, _MAX_BYTES = 4096, 40960

LANG_WEIGHTS = (("python", 55), ("go", 15), ("java", 12), ("js", 9),
                ("rust", 6), ("c", 3))
REPOS = tuple(f"org{i % 3}/proj{i}" for i in range(8))
SCHEMA = pa.schema([("repo", pa.string()), ("path", pa.string()),
                    ("commit", pa.string()), ("lang", pa.string()),
                    ("content", pa.large_string())])

LINES_PER_DOC = 40          # ingest docs are windows of this many lines

# Real code's rank-frequency slope over the top 1000 terms sits near -1
# (measured -0.95..-1.01 on this pool); outside this band the corpus is
# not the long-tail text the benchmark claims to measure.
ZIPF_SLOPE_BAND = (-1.3, -0.7)


class PoolMismatch(RuntimeError):
    """The standard library on this host is not the pinned pool."""


def load_pool() -> list[tuple[str, str]]:
    """(relative path, text) of every eligible stdlib file, sorted;
    raises PoolMismatch unless it matches the pinned fingerprint."""
    root = sysconfig.get_paths()["stdlib"]
    pool: list[tuple[str, str]] = []
    for d, sub, files in os.walk(root):
        sub[:] = sorted(s for s in sub if s not in _SKIP_DIRS)
        for fn in sorted(files):
            if not fn.endswith(".py"):
                continue
            p = os.path.join(d, fn)
            raw = open(p, "rb").read()
            if not _MIN_BYTES <= len(raw) <= _MAX_BYTES:
                continue
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                continue
            pool.append((os.path.relpath(p, root), text))
    pool.sort()
    fp = pool_fingerprint(pool)
    if fp != POOL_SHA256 or len(pool) != POOL_FILES:
        raise PoolMismatch(
            f"stdlib pool under {root} has {len(pool)} files, fingerprint "
            f"{fp}; the benchmark is pinned to {POOL_FILES} files, "
            f"{POOL_SHA256}")
    return pool


def pool_fingerprint(pool: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for rel, text in pool:
        h.update(rel.encode() + b"\0"
                 + hashlib.sha256(text.encode()).digest())
    return h.hexdigest()[:16]


def _b26(n: int) -> str:
    s = ""
    while True:
        n, r = divmod(n, 26)
        s = chr(97 + r) + s
        if n == 0:
            return s


def needle_token(seed: int, i: int) -> str:
    """A lowercase-letters-only token: the code analyzer emits it as
    exactly one term, and no stdlib identifier starts with 'zqv'."""
    return f"zqv{_b26(seed)}q{_b26(i)}"


def _weighted(rng: random.Random, pairs) -> str:
    vals = [v for v, _ in pairs]
    return rng.choices(vals, weights=[w for _, w in pairs])[0]


def _zipf_repo(rng: random.Random) -> str:
    return rng.choices(REPOS, weights=[1 / (r + 1) for r in
                                       range(len(REPOS))])[0]


def _commit(rng: random.Random) -> str:
    return "%040x" % rng.getrandbits(160)


PARTITIONS = IndexConfig().num_partitions
ID_COLS = ("repo", "path", "commit")


def _commit_in_part(rng: random.Random, repo: str, path: str,
                    part: int) -> str:
    """A commit that puts the doc ``(repo, path, commit)`` in index
    partition ``part``."""
    while True:
        commit = _commit(rng)
        key = pa.table({"repo": [repo], "path": [path], "commit": [commit]})
        if int(compute_doc_ids(key, ID_COLS)[0]) % PARTITIONS == part:
            return commit


def zipf_slope(counts: Counter, top: int = 1000) -> float:
    """Least-squares slope of log(frequency) against log(rank)."""
    freqs = sorted(counts.values(), reverse=True)[:top]
    xs = [math.log(r + 1) for r in range(len(freqs))]
    ys = [math.log(f) for f in freqs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _steered_sample(pool, rng: random.Random, n: int, vocab_target: int,
                    candidates: int = 8) -> list[tuple[str, str]]:
    code = ANALYZERS["code"]
    by_size = sorted(pool, key=lambda x: (len(x[1]), x[0]))
    strata = [by_size[i * len(by_size) // n:(i + 1) * len(by_size) // n]
              for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    union: set[str] = set()
    out = []
    for k, i in enumerate(order):
        goal = vocab_target * (k + 1) / n
        best = None
        for rel, text in rng.sample(strata[i], min(candidates,
                                                   len(strata[i]))):
            toks = set(code(text))
            key = (abs(len(union | toks) - goal), rel)
            if best is None or key < best[0]:
                best = (key, rel, text, toks)
        union |= best[3]
        out.append((best[1], best[2]))
    return out


@dataclass
class Corpus:
    rows: pa.Table              # as written, duplicates included
    needles: dict[str, int]     # needle token -> row index in ``rows``
    zipf_slope: float
    fingerprint: str


def _table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=SCHEMA)


def fingerprint(tbl: pa.Table) -> str:
    h = hashlib.sha256()
    for row in tbl.to_pylist():
        for c in SCHEMA.names:
            h.update(row[c].encode() + b"\x1f")
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def make_corpus(pool, seed: int, n_files: int, vocab_target: int,
                needle_every: int = 4, n_dups: int = 2) -> Corpus:
    """The seeded sample as rows: every ``needle_every``-th row carries
    a needle, and ``n_dups`` rows are repeated verbatim at the end."""
    rng = random.Random(seed * 7919 + n_files)
    files = _steered_sample(pool, rng, n_files, vocab_target)
    rows, needles = [], {}
    for i, (rel, text) in enumerate(files):
        if i % needle_every == 0:
            tok = needle_token(seed, len(needles))
            needles[tok] = i
            text = f"{text}\n# {tok}\n"
        repo = _zipf_repo(rng)
        rows.append({"repo": repo, "path": rel,
                     "commit": _commit_in_part(rng, repo, rel,
                                               i % PARTITIONS),
                     "lang": _weighted(rng, LANG_WEIGHTS),
                     "content": text})
    for i in rng.sample(range(len(rows)), n_dups):
        rows.append(dict(rows[i]))
    tbl = _table(rows)
    counts = Counter()
    code = ANALYZERS["code"]
    for text in tbl.column("content").to_pylist():
        counts.update(code(text))
    slope = zipf_slope(counts)
    if not ZIPF_SLOPE_BAND[0] <= slope <= ZIPF_SLOPE_BAND[1]:
        raise ValueError(f"corpus rank-frequency slope {slope:.3f} is "
                         f"outside {ZIPF_SLOPE_BAND}")
    return Corpus(tbl, needles, slope, fingerprint(tbl))


def make_generations(pool, seed: int, exclude: set[str], n_gens: int,
                     docs_per_gen: int) -> list[Corpus]:
    """Small ingest batches ("one object of tens of docs" each): docs
    are consecutive line windows of stdlib files outside ``exclude``,
    and one doc per batch carries the batch's needle."""
    rng = random.Random(seed * 104729 + 17)
    files = [(rel, text) for rel, text in pool if rel not in exclude]
    rng.shuffle(files)
    gens = []
    fi = 0
    for g in range(n_gens):
        rows = []
        commit = _commit(rng)
        while len(rows) < docs_per_gen:
            rel, text = files[fi % len(files)]
            fi += 1
            lines = text.splitlines()
            for start in range(0, len(lines), LINES_PER_DOC):
                if len(rows) == docs_per_gen:
                    break
                rows.append({"repo": f"stream/{g % 4}",
                             "path": f"{rel}#L{start + 1}",
                             "commit": commit,
                             "lang": _weighted(rng, LANG_WEIGHTS),
                             "content": "\n".join(
                                 lines[start:start + LINES_PER_DOC])})
        tok = needle_token(seed, 1000 + g)
        at = rng.randrange(len(rows))
        rows[at]["content"] += f"\n# {tok}\n"
        tbl = _table(rows)
        gens.append(Corpus(tbl, {tok: at}, float("nan"), fingerprint(tbl)))
    return gens


def write(corpus: Corpus, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(corpus.rows, os.path.join(out_dir, "part-0.parquet"),
                   row_group_size=64)
    return out_dir


if __name__ == "__main__":
    # prints the pool fingerprint to pin after an intended change
    try:
        print(f"pool ok: {len(load_pool())} files, {POOL_SHA256}")
    except PoolMismatch as e:
        raise SystemExit(str(e))
