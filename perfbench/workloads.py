"""The three workloads.  Each is one closed-loop client in one process:
the next operation starts when the previous one returned.

Every workload runs the same cycle — write documents, (re)open a
``Searcher``, serve requests — and differs in batch size and read mix,
so each reports every end-to-end metric from its own operations:

- ``bulk_build``: the indexer.  A fixed number of full builds of the
  whole corpus into fresh index directories; the first build's searcher
  is verified with a short burst of the request mix, sent in parts
  between the builds.
- ``search_longtail``: the reader.  One base build in set-up, then a
  fixed number of blocks of the request mix against the warm searcher,
  with a timed build between their two halves.
- ``ingest_refresh``: writes beside reads.  Small ``extend_index``
  generations, each followed by a reopen, a needle lookup and a burst
  of requests, for the measured seconds; then ``compact_index``.

A workload's ``measure`` may run twice in one process (the traced run
repeats it with the timing wrappers on), so it takes its own fresh
index directory and searcher each time.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from siem_on_amazon_opensearch_service_ray.pipelines import build_index as bi
from siem_on_amazon_opensearch_service_ray.state import searcher as sm
from siem_on_amazon_opensearch_service_ray.state.dsl import execute_dsl

import corpus as cp
from bench import index_content_hash
from traffic import (CACHE_ENTRIES, MIX, Docs, FlatOracle, Request,
                     Traffic, engine_buckets, panel_counts)

# Corpus sizes, chosen so one build stays near 6 s on one CPU (build
# cost grows with distinct terms: about 0.5 ms per term there) while
# the search vocabulary still exceeds the 4,096-entry postings cache.
BULK_FILES, BULK_VOCAB = 24, 5400
INGEST_FILES, INGEST_VOCAB = 6, 1800
GEN_DOCS = 24               # docs per ingest generation ("one object")
MAX_GENS = 24
# Measured work is a fixed amount that --seconds sets through the
# nominal rates of the reference machine (one core of a shared 4-vCPU
# VM), not a deadline: every run of a seed does the same operations
# whatever the machine's speed at the time.
NOMINAL_BUILD_S = 6.0
NOMINAL_REQUESTS_PER_S = 48
MIN_SCORED = 1000           # search_p99_ms: at least ten samples above it
BULK_BURST = 560            # verification requests, between the builds
SEARCH_CYCLES = 1           # timed cycles of search_longtail
TRACE_BLOCKS = 5            # search_longtail request blocks when traced
INGEST_BURST = 24           # requests after each ingest refresh
ORACLE_SAMPLE = 8           # scored requests re-scored by FlatOracle
SCORE_TOL = 1e-4


@dataclass
class Ledger:
    """Operations attempted and failed; a failed check counts as a
    failed operation."""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def rss_mb() -> float:
    """Sum of peak resident sets of this process and its Ray workers."""
    total = _vm_hwm_kb(os.getpid())
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if not f.read().startswith(b"ray::"):
                    continue
        except OSError:
            continue
        total += _vm_hwm_kb(pid)
    return total / 1024


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs)


def pct(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, min(len(v) - 1, int(np.ceil(p * len(v))) - 1))]


def _hits(resp: dict) -> list[tuple[int, float]]:
    return [(int(h["_id"]), float(h["_score"]))
            for h in resp["hits"]["hits"]]


def same_ranking(a, b, tol: float) -> bool:
    return (len(a) == len(b)
            and all(x[0] == y[0] and abs(x[1] - y[1]) <= tol
                    for x, y in zip(a, b)))


@dataclass
class Reads:
    """Latencies of one stretch of serving."""
    scored: list[float] = field(default_factory=list)
    panel: list[float] = field(default_factory=list)
    wall: float = 0.0
    executed: list[Request] = field(default_factory=list)
    answers: dict[int, list] = field(default_factory=dict)

    def merge(self, other: "Reads") -> None:
        self.scored += other.scored
        self.panel += other.panel
        self.wall += other.wall
        self.executed += other.executed


def serve(s, stream, ledger: Ledger, expect_panels: list, count: int,
          tracer=None, keep_answers: int = 0) -> Reads:
    """Send ``count`` requests from ``stream``; check every panel
    against its expected buckets and keep the first ``keep_answers``
    scored answers for the oracle."""
    out = Reads()
    t_begin = time.perf_counter()
    for _ in range(count):
        req = stream()
        if tracer is not None:
            tracer.request += 1
        t0 = time.perf_counter()
        try:
            resp = execute_dsl(s, req.body)
            err = None
        except Exception as e:  # a failed request is a counted failure
            resp, err = None, repr(e)
        dt = time.perf_counter() - t0
        out.executed.append(req)
        if resp is None:
            ledger.op(False, f"{req.kind} {req.text!r}: {err}")
            continue
        if req.kind == "panel":
            out.panel.append(dt)
            want, got = expect_panels[req.panel_index], engine_buckets(resp)
            ledger.op(got == want, f"panel {req.text!r}: engine {got} "
                      f"!= DuckDB {want}")
        else:
            out.scored.append(dt)
            ledger.op(True, f"{req.kind} {req.text!r}")
            if len(out.answers) < keep_answers:
                out.answers[len(out.executed) - 1] = _hits(resp)
    out.wall = time.perf_counter() - t_begin
    return out


def oracle_check(oracle: FlatOracle, reads: Reads, ledger: Ledger,
                 seed: int) -> None:
    """Re-score a seeded sample of the kept answers by full scan."""
    rng = random.Random(seed)
    by_kind: dict[str, list[int]] = {}
    for i in sorted(reads.answers):
        by_kind.setdefault(reads.executed[i].kind, []).append(i)
    picks = []
    for kind in sorted(by_kind):
        picks += rng.sample(by_kind[kind], min(2, len(by_kind[kind])))
    for i in picks[:ORACLE_SAMPLE]:
        req = reads.executed[i]
        ledger.op(same_ranking(oracle.topk(req), reads.answers[i],
                               SCORE_TOL),
                  f"{req.kind} {req.text!r} differs from flat BM25")


class Workload:
    """Set-up once, then ``measure`` (possibly twice), then report."""

    name = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.ledger = Ledger()
        self.peak_rss = 0.0
        self.record: dict = {}
        self.passes = 0
        self.last: dict = {}

    def sample_rss(self) -> None:
        self.peak_rss = max(self.peak_rss, rss_mb())

    def fresh_dir(self, tag: str) -> str:
        d = os.path.join(self.ctx.work, tag)
        shutil.rmtree(d, ignore_errors=True)
        return d

    def warm(self) -> None:
        """Untraced start-up work before set-up; none by default."""

    def close_pass(self) -> None:
        self.last["searcher"].close()

    def find_needles(self, s, traffic: Traffic, toks) -> float:
        """Look up each needle, which must return exactly its one doc;
        return the perf_counter time of the first answer."""
        first = None
        for tok in toks:
            req = traffic.needle(tok)
            try:
                hits = _hits(execute_dsl(s, req.body))
            except Exception as e:  # counted, the run goes on
                hits = [(-1, 0.0)]
                self.ledger.op(False, f"needle {tok}: {e!r}")
            first = first or time.perf_counter()
            self.ledger.op([d for d, _ in hits] == [req.expect_id],
                           f"needle {tok} not found alone")
        return first


@dataclass
class Cycle:
    """One write-read cycle: a build, the open of a searcher on it and
    the needle lookups; walls in seconds."""
    idx: str
    man: dict
    searcher: object
    build: float
    open: float
    visible: float              # build start -> first needle answered


class _StaticCorpus(Workload):
    """Corpus, reference answers and traffic of bulk and search."""

    def warm(self) -> None:
        """Write the corpus and build it once, untimed: a session's first
        build runs about 1.6 times slower than the next ones (worker
        start-up, imports, first allocations)."""
        self.prepare()
        idx = self.fresh_dir("warm-idx")
        bi.build_index(self.corpus_dir, idx, bi.IndexConfig(), resume=False)
        shutil.rmtree(idx, ignore_errors=True)

    def prepare(self) -> None:
        c = cp.make_corpus(self.ctx.pool, self.ctx.seed, BULK_FILES,
                           BULK_VOCAB)
        self.corpus = c
        self.corpus_dir = cp.write(c, os.path.join(self.ctx.work, "corpus"))
        self.docs = Docs.from_rows(c.rows)
        self.source_bytes = sum(len(x.encode()) for x in
                                self.docs.rows.column("content").to_pylist())
        self.oracle = FlatOracle(self.docs)
        self.panel_expect = panel_counts(
            c.rows, self.traffic().panels)
        self.record.update(corpus_fingerprint=c.fingerprint,
                           corpus_rows=c.rows.num_rows,
                           corpus_docs=len(self.docs.ids),
                           corpus_source_bytes=self.source_bytes,
                           zipf_slope=round(c.zipf_slope, 4))

    def traffic(self, salt: int = 0) -> Traffic:
        return Traffic(self.docs, self.ctx.seed, self.corpus.needles, salt)

    def cycle(self, tag: str, traffic: Traffic, toks) -> Cycle:
        """Build the corpus into a fresh directory, open a ``Searcher``
        on it and look up the needles ``toks``."""
        idx = self.fresh_dir(tag)
        t0 = time.perf_counter()
        man = bi.build_index(self.corpus_dir, idx, bi.IndexConfig(),
                             resume=False)
        t1 = time.perf_counter()
        s = sm.Searcher(idx)
        t2 = time.perf_counter()
        found = self.find_needles(s, traffic, toks)
        self.ledger.op(man["stats"]["n_docs"] == len(self.docs.ids),
                       f"build n_docs {man['stats']['n_docs']} vs "
                       f"{len(self.docs.ids)} distinct")
        return Cycle(idx, man, s, t1 - t0, t2 - t1, found - t0)

    def close(self, c: Cycle) -> None:
        self.sample_rss()
        c.searcher.close()

    def warm_reads(self, s, traffic: Traffic,
                   fill_cache: bool) -> list[Request]:
        """Ten first-call requests (set-up inside the actor), then, with
        ``fill_cache``, the postings cache filled as a long-running
        reader's is (traffic.py); returns every request sent."""
        first = self.traffic(salt=1)
        warm = serve(s, first.next, self.ledger, self.panel_expect,
                     10).executed
        traffic.distinct_terms |= first.distinct_terms
        if not fill_cache:
            return warm
        fill = traffic.warmup()
        serve(s, iter(fill).__next__, self.ledger, self.panel_expect,
              len(fill))
        return warm + fill

    def texts(self) -> dict:
        return dict(texts=self.docs.rows.column("content").to_pylist(),
                    paths=self.docs.rows.column("path").to_pylist())

    def cycle_metrics(self, cycles: list[Cycle]) -> dict:
        self.record.update(build_walls_s=[round(c.build, 4) for c in cycles],
                           open_walls_s=[round(c.open, 4) for c in cycles],
                           visible_s=[round(c.visible, 4) for c in cycles])
        return dict(
            build_docs_per_s=statistics.median(len(self.docs.ids) / c.build
                                               for c in cycles),
            open_s=statistics.median(c.open for c in cycles),
            ingest_visible_p50_s=statistics.median(c.visible
                                                   for c in cycles))


class BulkBuild(_StaticCorpus):
    name = "bulk_build"

    def setup(self) -> None:
        self.hashes: set[str] = set()

    def check_hash(self, c: Cycle) -> None:
        self.hashes.add(index_content_hash(c.idx))
        self.ledger.op(len(self.hashes) == 1,
                       f"builds differ in content: {sorted(self.hashes)}")

    def measure(self) -> dict:
        self.passes += 1
        ctx, led = self.ctx, self.ledger
        traffic = self.traffic()
        toks = sorted(traffic.needles)
        n_builds = max(2, round(ctx.seconds / NOMINAL_BUILD_S))
        ctx.setup_done()
        first = self.cycle(f"idx-{self.passes}-0", traffic, toks)
        self.check_hash(first)
        s = first.searcher
        # no cache fill: a fresh index's reader, whose reads look up
        # fewer distinct terms than the postings cache holds, most of
        # them once (search_longtail's reads overflow a full cache)
        warm = self.warm_reads(s, traffic, fill_cache=False)
        # the verification reads go to the first build's searcher in
        # n_builds parts, one before each later build and one after the
        # last: spread over the run, they sample the shared machine's
        # drifting speed as the builds do
        cut = [BULK_BURST * k // n_builds for k in range(n_builds + 1)]
        reads = serve(s, traffic.next, led, self.panel_expect, cut[1],
                      ctx.tracer, keep_answers=cut[1])
        cycles = [first]
        for b in range(1, n_builds):
            c = self.cycle(f"idx-{self.passes}-{b}", traffic, toks)
            self.check_hash(c)
            self.close(c)
            shutil.rmtree(c.idx, ignore_errors=True)
            cycles.append(c)
            reads.merge(serve(s, traffic.next, led, self.panel_expect,
                              cut[b + 1] - cut[b], ctx.tracer))
        ctx.mark("builds")
        oracle_check(self.oracle, reads, led, ctx.seed)
        distinct = len(traffic.distinct_terms)
        led.op(distinct <= CACHE_ENTRIES,
               f"{distinct} distinct query terms overflow the "
               f"{CACHE_ENTRIES}-entry postings cache")
        ctx.mark("verify")
        self.sample_rss()
        self.last = dict(searcher=s, index=first.idx, reads=reads,
                         warmup=warm, index_counts=first.man["metrics"],
                         **self.texts())
        self.record.update(builds=len(cycles),
                           index_content_hash=sorted(self.hashes),
                           distinct_query_terms=distinct)
        return dict(**self.cycle_metrics(cycles),
                    index_bytes_per_source_byte=(dir_bytes(first.idx)
                                                 / self.source_bytes),
                    **read_metrics(reads),
                    primary_ms=1e3 * statistics.median(c.build
                                                       for c in cycles))


class SearchLongtail(_StaticCorpus):
    name = "search_longtail"

    def warm(self) -> None:
        self.prepare()

    def setup(self) -> None:
        # the base index, untimed: its build also absorbs the session's
        # first-build cost, so no separate warm build is needed
        self.idx = self.fresh_dir("idx-0")
        man = bi.build_index(self.corpus_dir, self.idx, bi.IndexConfig(),
                             resume=False)
        self.ledger.op(man["stats"]["n_docs"] == len(self.docs.ids),
                       f"base build n_docs {man['stats']['n_docs']} vs "
                       f"{len(self.docs.ids)} distinct")

    def measure(self) -> dict:
        self.passes += 1
        ctx, led = self.ctx, self.ledger
        traffic = self.traffic()
        per_block = sum(k != "panel" for k in MIX)
        blocks = max(-(-MIN_SCORED // per_block),
                     round(ctx.seconds * NOMINAL_REQUESTS_PER_S / len(MIX)))
        if ctx.tracer is not None:
            # per-layer figures are means per request and need no p99:
            # fewer reads keep a traced run (two passes, a replay and the
            # flat_bm25_topk check) within its time limit
            blocks = TRACE_BLOCKS
        ctx.setup_done()
        t0 = time.perf_counter()
        s = sm.Searcher(self.idx)
        reader_open = time.perf_counter() - t0
        ctx.mark("open")
        warm = self.warm_reads(s, traffic, fill_cache=True)
        ctx.mark("warmup")
        # timed cycles between parts of the reads (one cycle, two
        # halves, at SEARCH_CYCLES 1): the shared machine's speed drifts
        # over seconds to minutes, so both kinds of samples are spread
        # over the run
        parts = SEARCH_CYCLES + 1
        cut = [blocks * k // parts * len(MIX) for k in range(parts + 1)]
        reads = serve(s, traffic.next, led, self.panel_expect, cut[1],
                      ctx.tracer, keep_answers=400)
        cycles = []
        for k in range(1, parts):
            # its own stream, so the reads' request sequence is the same
            # whatever the cycles look up
            own = self.traffic()
            c = self.cycle(f"idx-{self.passes}-{k}", own,
                           sorted(own.needles)[:1])
            self.close(c)
            shutil.rmtree(c.idx, ignore_errors=True)
            cycles.append(c)
            reads.merge(serve(s, traffic.next, led, self.panel_expect,
                              cut[k + 1] - cut[k], ctx.tracer))
        ctx.mark("serve")
        self.find_needles(s, traffic, sorted(traffic.needles))
        oracle_check(self.oracle, reads, led, ctx.seed)
        distinct = len(traffic.distinct_terms)
        led.op(distinct > CACHE_ENTRIES,
               f"{distinct} distinct query terms do not overflow the "
               f"{CACHE_ENTRIES}-entry postings cache")
        if ctx.tracer is None:
            led.op(len(reads.scored) >= MIN_SCORED,
                   f"{len(reads.scored)} scored requests < {MIN_SCORED}")
        ctx.mark("checks")
        self.sample_rss()
        self.last = dict(searcher=s, index=self.idx, reads=reads,
                         warmup=warm,
                         index_counts=cycles[-1].man["metrics"],
                         **self.texts())
        self.record.update(distinct_query_terms=distinct,
                           warmup_requests=len(warm),
                           requests=len(reads.executed),
                           scored_requests=len(reads.scored))
        m = self.cycle_metrics(cycles)
        # the reader's own open is one more sample of the same operation
        m["open_s"] = statistics.median([reader_open]
                                        + [c.open for c in cycles])
        self.record.update(reader_open_s=round(reader_open, 4))
        return dict(**m,
                    index_bytes_per_source_byte=(dir_bytes(self.idx)
                                                 / self.source_bytes),
                    **read_metrics(reads),
                    primary_ms=1e3 * statistics.median(reads.scored))


class IngestRefresh(Workload):
    name = "ingest_refresh"

    def setup(self) -> None:
        ctx = self.ctx
        base = cp.make_corpus(ctx.pool, ctx.seed, INGEST_FILES,
                              INGEST_VOCAB, needle_every=2)
        used = set(base.rows.column("path").to_pylist())
        self.gens = cp.make_generations(ctx.pool, ctx.seed, used, MAX_GENS,
                                        GEN_DOCS)
        self.base_dir = cp.write(base, os.path.join(ctx.work, "base"))
        self.gen_dirs = [cp.write(g, os.path.join(ctx.work, f"gen-{i:02d}"))
                         for i, g in enumerate(self.gens)]
        self.base_docs = Docs.from_rows(base.rows)
        docs, needles = self.base_docs, dict(base.needles)
        for g in self.gens:
            for tok, i in g.needles.items():
                needles[tok] = len(docs.ids) + i
            docs = docs.extend(Docs.from_rows(g.rows))
        self.all_docs, self.needles = docs, needles
        self.record.update(
            corpus_fingerprint=base.fingerprint,
            generation_fingerprints=[g.fingerprint for g in self.gens],
            corpus_docs=len(self.base_docs.ids),
            zipf_slope=round(base.zipf_slope, 4))
        self.build_base(1)

    def build_base(self, pass_no: int) -> str:
        # a fresh build per pass: index manifests hold absolute paths,
        # so a copied index directory is not a valid index
        idx = self.fresh_dir(f"idx-{pass_no}")
        man = bi.build_index(self.base_dir, idx, bi.IndexConfig(),
                             resume=False)
        self.ledger.op(man["stats"]["n_docs"] == len(self.base_docs.ids),
                       "base build n_docs")
        return idx

    def traffic(self, salt: int = 0) -> Traffic:
        return Traffic(self.all_docs, self.ctx.seed, self.needles, salt)

    def measure(self) -> dict:
        self.passes += 1
        ctx, led = self.ctx, self.ledger
        idx = (os.path.join(ctx.work, "idx-1") if self.passes == 1
               else self.build_base(self.passes))
        traffic = self.traffic()
        rows = [self.base_docs.rows]
        expect = panel_counts(rows[0], traffic.panels)
        s = sm.Searcher(idx)
        serve(s, self.traffic(salt=1).next, led, expect, 10)
        ctx.setup_done()
        ext, opens, visible, reads = [], [], [], Reads()
        t_end = time.perf_counter() + ctx.seconds
        g, cycles = 0, []
        while g < len(self.gens) and (g < 2 or time.perf_counter()
                                      + statistics.median(cycles) <= t_end):
            t0 = time.perf_counter()
            bi.extend_index(self.gen_dirs[g], idx)
            ext.append(time.perf_counter() - t0)
            self.sample_rss()
            s.close()
            t1 = time.perf_counter()
            s = sm.Searcher(idx)
            opens.append(time.perf_counter() - t1)
            visible.append(self.find_needles(
                s, traffic, list(self.gens[g].needles)) - t0)
            rows.append(self.gens[g].rows)
            expect = panel_counts(pa.concat_tables(rows), traffic.panels)
            reads.merge(serve(s, traffic.next, led, expect, INGEST_BURST,
                              ctx.tracer))
            cycles.append(time.perf_counter() - t0)
            g += 1
        # rank identity across compaction: every applied needle plus
        # scored requests from a separate stream
        check = [traffic.needle(t) for gen in self.gens[:g]
                 for t in gen.needles]
        cstream = self.traffic(salt=2)
        check += [r for r in (cstream.next() for _ in range(40))
                  if r.kind != "panel"][:12]
        ctx.mark("generations")
        before = [_hits(execute_dsl(s, r.body)) for r in check]
        with open(os.path.join(idx, "INDEX_MANIFEST.json")) as f:
            pre = json.load(f)
        counts = {k: pre["metrics"][k] + sum(
            gm["metrics"][k] for gm in pre["generations"].values())
            for k in ("n_terms", "n_postings", "n_segments", "bytes")}
        self.sample_rss()
        s.close()
        t0 = time.perf_counter()
        bi.compact_index(idx)
        compact_s = time.perf_counter() - t0
        ctx.mark("compact")
        s = sm.Searcher(idx)
        after = [_hits(execute_dsl(s, r.body)) for r in check]
        for r, a, b in zip(check, before, after):
            led.op(same_ranking(a, b, 1e-9),
                   f"{r.kind} {r.text!r} changed across compaction")
        with open(os.path.join(idx, "INDEX_MANIFEST.json")) as f:
            man = json.load(f)
        n_want = len(self.base_docs.ids) + GEN_DOCS * g
        led.op(man["stats"]["n_docs"] == n_want,
               f"compacted n_docs {man['stats']['n_docs']} vs {n_want}")
        source = sum(len(x.encode()) for t in rows
                     for x in t.column("content").to_pylist())
        indexed = pa.concat_tables(rows)
        self.last = dict(searcher=s, index=idx, reads=reads,
                         index_counts=counts,
                         texts=indexed.column("content").to_pylist(),
                         paths=indexed.column("path").to_pylist())
        self.record.update(generations=g, compact_s=compact_s,
                           extend_s=statistics.median(ext),
                           extend_walls_s=[round(x, 4) for x in ext],
                           ingest_search_p95_ms=1e3 * pct(reads.scored,
                                                          0.95),
                           distinct_query_terms=len(traffic.distinct_terms))
        return dict(
            build_docs_per_s=statistics.median(GEN_DOCS / x for x in ext),
            index_bytes_per_source_byte=dir_bytes(idx) / source,
            open_s=statistics.median(opens),
            ingest_visible_p50_s=statistics.median(visible),
            **read_metrics(reads),
            primary_ms=1e3 * statistics.median(visible))


def read_metrics(reads: Reads) -> dict:
    """Scored and panel latencies; search_qps counts scored requests
    over the whole serving wall, panels included."""
    return dict(search_p50_ms=1e3 * statistics.median(reads.scored),
                search_p99_ms=1e3 * pct(reads.scored, 0.99),
                search_qps=len(reads.scored) / reads.wall,
                agg_p50_ms=1e3 * statistics.median(reads.panel),
                agg_p90_ms=1e3 * pct(reads.panel, 0.90))


WORKLOADS = {w.name: w for w in (BulkBuild, SearchLongtail, IngestRefresh)}
