"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload search_longtail --seed 1 \\
        --seconds 20 --trace 0

Workloads: bulk_build, search_longtail, ingest_refresh (see
workloads.py).  ``--trace 0`` measures the end-to-end metrics listed in
BENCHMARK.json; ``--trace 1`` runs the workload's measured phase twice,
untraced then with the timing wrappers of tracing.py installed, replays
the traced requests in-process, and reports the per-layer metrics plus
the tracing overhead.

Standard output ends with two JSON lines: a record of the run (host,
versions, load, seed, corpus fingerprint, phase marks, failed checks,
workload detail) and then the result object
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go
under ``.bw/`` in the working directory; the span file of a traced run
stays there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

T_START = time.perf_counter()
PKG = "siem_on_amazon_opensearch_service_ray"
# The in-process replay of a traced run re-sends at most this many of
# the traced requests: enough for per-request means, and it keeps a
# traced run well inside three minutes.
REPLAY_MAX = 200
# Ray puts unix sockets under its temp dir: <dir>/session_<date>_<pid>/
# sockets/plasma_store must stay within the 107-byte socket path limit.
RAY_TMP_MAX = 43
# Ray's object store: the largest object a run puts there is a few MB,
# and a small store fits a container's /dev/shm more often.
OBJECT_STORE_BYTES = 512 * 1024 * 1024


class Ctx:
    def __init__(self, root: str, work: str, seed: int, seconds: float,
                 pool, session_dir: str):
        self.root, self.work, self.seed = root, work, seed
        self.seconds, self.pool = seconds, pool
        self.session_dir = session_dir
        self.tracer = None
        self.setup_s = None
        self.marks: dict[str, float] = {}

    def setup_done(self) -> None:
        """Mark the start of the first timed operation."""
        if self.setup_s is None:
            self.setup_s = time.perf_counter() - T_START

    def mark(self, name: str) -> None:
        """Note when a phase ended (seconds since start), for the
        record: where a run's wall goes besides the measured phase."""
        self.marks[name] = round(time.perf_counter() - T_START, 3)


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie; collects it when
    it is an exited child of this process."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _reap(pids: list[int], timeout: float = 20.0) -> None:
    """Wait for processes Ray started to exit; kill stragglers."""
    deadline = time.monotonic() + timeout
    alive = pids
    while alive and time.monotonic() < deadline:
        alive = [p for p in alive if _running(p)]
        time.sleep(0.1)
    for p in alive:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while any(_running(p) for p in alive):
        time.sleep(0.05)


def _per_layer(ctx, wl, tracer, win, replay) -> dict:
    """Per-layer metrics of a traced run; ``win`` holds span-index and
    epoch-time windows of set-up and of the traced pass."""
    from tracing import dataset_op_walls
    from siem_on_amazon_opensearch_service_ray.analysis import ANALYZERS

    def tot(*ranges):
        out: dict[str, list] = {}
        for a, b in ranges:
            for k, (n, s) in tracer.totals(a, b).items():
                out.setdefault(k, [0, 0.0])
                out[k][0] += n
                out[k][1] += s
        return out

    build = tot(win["setup_spans"], win["pass_spans"])
    pas = tot(win["pass_spans"])
    rep = tot(replay["spans"])

    def mean(d, name):
        n, s = d.get(name, (0, 0.0))
        return s / n if n else 0.0

    walls = dataset_op_walls(ctx.session_dir,
                             [win["setup_time"], win["pass_time"]])

    def op_mean(key):
        v = [w for d in walls for op, w in d.items() if key in op]
        return statistics.mean(v) if v else 0.0

    reads = wl.last["reads"]
    n_req = max(1, len(reads.executed))
    n_scored = max(1, len(reads.scored))
    scored_idx = [i for i, r in enumerate(reads.executed[:REPLAY_MAX])
                  if r.kind != "panel"]
    r_scored = max(1, len(scored_idx))
    score_s = sum(v[1] for k, v in rep.items()
                  if k == "searcher.prepare_terms"
                  or k.startswith("searcher.method."))
    # per scored request: actor-path latency (untraced pass) minus the
    # in-process replay of the same request
    pairs = []
    u_reads = win["untraced_reads"]
    u_scored = [i for i, r in enumerate(u_reads.executed)
                if r.kind != "panel"]
    u_lat = dict(zip(u_scored, u_reads.scored))
    for i in scored_idx:
        if i in u_lat and i in replay["latency"]:
            pairs.append(u_lat[i] - replay["latency"][i])
    counts = wl.last["index_counts"]
    texts, paths = wl.last["texts"], wl.last["paths"]
    t0 = time.perf_counter()
    n_tok = sum(len(ANALYZERS["code"](x)) for x in texts)
    n_tok += sum(len(ANALYZERS["path"](x)) for x in paths)
    busy = time.perf_counter() - t0
    lookups = max(1, tracer.cache_lookups)
    return {
        "build_index.tokenize_s": op_mean("_tokenize_task"),
        "build_index.exchange_s": op_mean("Sort"),
        "build_index.encode_s": op_mean("MapBatches(<lambda>)"),
        "build_index.build_postings_s": mean(build,
                                             "build_index.build_postings"),
        "build_index.build_filters_s": mean(build,
                                            "build_index.build_filters"),
        "build_index.finalize_s": mean(build, "build_index.finalize"),
        "build_index.write_ops": build.get("build_index.build_postings",
                                           (0, 0))[0],
        "build_index.terms": counts["n_terms"],
        "build_index.postings": counts["n_postings"],
        "build_index.segments": counts["n_segments"],
        "build_index.index_bytes": counts["bytes"],
        "analysis.tokens": n_tok,
        "analysis.busy_s": busy,
        "shard.open_s": mean(tot(replay["open_spans"]), "shard.open"),
        "shard.terms_loaded": (statistics.mean(tracer.terms_loaded)
                               if tracer.terms_loaded else 0),
        "searcher.open_s": mean(pas, "searcher.open"),
        "searcher.dfs_round_s": pas.get("searcher.dfs_round",
                                        (0, 0.0))[1] / n_scored,
        "searcher.scatter_s": pas.get("searcher.scatter",
                                      (0, 0.0))[1] / n_scored,
        "searcher.gather_s": rep.get("shard.raw_rows",
                                     (0, 0.0))[1] / r_scored,
        "searcher.score_s": score_s / r_scored,
        "searcher.rpc_s": statistics.mean(pairs) if pairs else 0.0,
        "searcher.postings_cache_hit_ratio":
            1 - tracer.cache_misses / lookups,
        "searcher.postings_cache_lookups": tracer.cache_lookups,
        "searcher.method.taat": rep.get("searcher.method.taat", (0,))[0],
        "searcher.method.and": rep.get("searcher.method.and", (0,))[0],
        "searcher.method.wand": rep.get("searcher.method.wand", (0,))[0],
        "searcher.actor_calls_per_request": win["actor_calls"] / n_req,
        "searcher.requests": len(reads.executed),
        "dsl.fetch_s": pas.get("dsl.fetch", (0, 0.0))[1] / n_req,
    }


def _replay(wl, tracer) -> dict:
    """Re-run the traced pass's first REPLAY_MAX requests on an
    in-process searcher over the same index: the shard work without
    actors."""
    from siem_on_amazon_opensearch_service_ray.analysis import ANALYZERS
    from siem_on_amazon_opensearch_service_ray.state import searcher as sm
    from siem_on_amazon_opensearch_service_ray.state.dsl import execute_dsl
    tracer.terms_loaded = []
    a = len(tracer.spans)
    rs = sm.Searcher(wl.last["index"], use_actors=False)
    opened = (a, len(tracer.spans))
    # the same postings-cache fill as the traced pass's first-call and
    # warm-up requests, without scoring them
    for req in wl.last.get("warmup", []):
        an = "path" if req.field == "path" else "code"
        rs._gather(req.field, ANALYZERS[an](req.text))
    tracer.cache_lookups = tracer.cache_misses = 0
    a = len(tracer.spans)
    latency = {}
    for i, req in enumerate(wl.last["reads"].executed[:REPLAY_MAX]):
        tracer.request += 1
        t0 = time.perf_counter()
        try:
            execute_dsl(rs, req.body)
        except Exception:  # the traced pass already counted it
            continue
        latency[i] = time.perf_counter() - t0
    return {"open_spans": opened, "spans": (a, len(tracer.spans)),
            "latency": latency}


def _flat_cross_check(wl, ledger) -> None:
    """One request through pipelines/search.flat_bm25_topk itself, to
    show the in-process reference (traffic.FlatOracle) agrees with it."""
    import ray
    from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
        IndexConfig)
    from siem_on_amazon_opensearch_service_ray.pipelines.search import (
        flat_bm25_topk)
    from workloads import same_ranking
    req = next(r for r in wl.last["reads"].executed if r.kind == "or")
    # one tokenize actor: the default pool of two never fits one CPU
    got = flat_bm25_topk(ray.data.from_arrow(wl.docs.rows), req.text,
                         cfg=IndexConfig(tokenize_concurrency=1),
                         k=10).take_all()
    ledger.op(same_ranking([(int(r["doc_id"]), float(r["score"]))
                            for r in got], wl.oracle.topk(req), 1e-9),
              f"FlatOracle disagrees with flat_bm25_topk on {req.text!r}")


def run(ctx, wl, trace: bool) -> tuple[dict, dict]:
    wl.warm()
    if not trace:
        wl.setup()
        m = wl.measure()
        wl.close_pass()
        m.pop("primary_ms")
        m["setup_s"] = ctx.setup_s
        m["peak_rss_mb"] = wl.peak_rss
        return m, {}
    from tracing import Tracer, actor_calls
    tracer = ctx.tracer = Tracer()
    win = {}
    tracer.install()
    t0, s0 = time.time(), len(tracer.spans)
    wl.setup()
    win["setup_time"] = (t0, time.time())
    win["setup_spans"] = (s0, len(tracer.spans))
    tracer.uninstall()
    untraced = wl.measure()
    win["untraced_reads"] = wl.last["reads"]
    wl.close_pass()
    tracer.install()
    t0, s0 = time.time(), len(tracer.spans)
    traced = wl.measure()
    t1 = time.time()
    win["pass_time"] = (t0, t1)
    win["pass_spans"] = (s0, len(tracer.spans))
    win["actor_calls"] = actor_calls(t0, t1)
    ctx.mark("timeline")
    wl.close_pass()
    replay = _replay(wl, tracer)
    tracer.uninstall()
    ctx.mark("replay")
    if wl.name == "search_longtail":
        # once per benchmark, on the reader's workload: one call costs
        # about 10 s on one CPU, twice that when the host is slow
        _flat_cross_check(wl, wl.ledger)
        ctx.mark("flat_check")
    layers = _per_layer(ctx, wl, tracer, win, replay)
    ctx.mark("per_layer")
    layers["trace.overhead_ms"] = traced["primary_ms"] - untraced["primary_ms"]
    layers["trace.untraced_ms"] = untraced["primary_ms"]
    span_file = os.path.join(ctx.root, ".bw",
                             f"trace-{wl.name}-{ctx.seed}.json")
    tracer.write(span_file)
    return layers, {"span_file": os.path.relpath(span_file, ctx.root),
                    "traced_e2e": traced, "untraced_e2e": untraced}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_json = os.path.join(root, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(root, PKG)) or \
            not os.path.isfile(bench_json):
        print(f"run from the repository root: {PKG}/ and BENCHMARK.json "
              "must be in the working directory", file=sys.stderr)
        return 2
    with open(bench_json) as f:
        bench = json.load(f)
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

    import corpus as cp
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        pool = cp.load_pool()
    except cp.PoolMismatch as e:
        print(f"corpus fingerprint mismatch: {e}", file=sys.stderr)
        return 3

    import duckdb
    import pyarrow
    import ray
    from ray.data import DataContext

    load_before = os.getloadavg()
    nproc = _nproc()
    # Confine this process, and every Ray process it starts, to nproc
    # cores, so the run really has the CPUs Ray's num_cpus says it has.
    # Unpinned, with four cores visible, runs of one seed came out up to
    # 40% apart.
    visible = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, visible[-nproc:])
    speed_before = _cpu_probe_ms()
    scratch = os.path.join(root, ".bw")
    work = os.path.join(scratch, f"w{os.getpid()}")
    ray_tmp = os.path.join(scratch, f"r{os.getpid()}")
    if len(ray_tmp) > RAY_TMP_MAX:
        print(f"working directory path too long for Ray's socket paths "
              f"({len(ray_tmp)} > {RAY_TMP_MAX} characters for {ray_tmp})",
              file=sys.stderr)
        return 4
    # Temp files of this process and of Ray's workers go under .bw/, and
    # so does Ray's object store when /dev/shm cannot hold it: Ray then
    # falls back to RAY_TMPDIR (else /tmp, which a sandboxed run may
    # not write: Ray start failed that way).
    tmp = os.path.join(scratch, f"t{os.getpid()}")
    for d in (work, tmp):
        os.makedirs(d, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["RAY_TMPDIR"] = tmp
    # Ray's memory monitor kills workers when the host, which other
    # tenants share, is nearly full; a killed task is not the engine's
    # failure, so the monitor is off (the run peaks near 1-2 GB).
    os.environ["RAY_memory_monitor_refresh_ms"] = "0"
    ctx = Ctx(root, work, args.seed, args.seconds, pool,
              os.path.join(ray_tmp, "session_latest"))
    before: set[int] = set()
    try:
        ray.init(address="local", num_cpus=nproc, include_dashboard=False,
                 logging_level="ERROR", _temp_dir=ray_tmp,
                 object_store_memory=OBJECT_STORE_BYTES)
        before = set(_pids_below())
        dctx = DataContext.get_current()
        dctx.enable_progress_bars = False
        ctx.mark("ray_init")
        wl = WORKLOADS[args.workload](ctx)
        metrics, extra = run(ctx, wl, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        ctx.mark("workload")
        pids = _pids_below()
        ray.shutdown()
        _reap(sorted(set(pids) | before))
        for d in (work, ray_tmp, tmp):
            shutil.rmtree(d, ignore_errors=True)
        ctx.mark("shutdown")

    want = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in want if m["name"] not in metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    led = wl.ledger
    listed = {m["name"] for m in want}
    if args.trace:
        # counts that are bases of the listed ratios or follow from the
        # input, with no better direction: reported here, not as metrics
        extra["per_layer_counts"] = {k: v for k, v in metrics.items()
                                     if k not in listed}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "ray_num_cpus": nproc,
        "cpus_visible": len(visible), "pinned_cpus": visible[-nproc:],
        "python": platform.python_version(), "ray": ray.__version__,
        "pyarrow": pyarrow.__version__, "duckdb": duckdb.__version__,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "cpu_probe_ms_before": speed_before,
        "cpu_probe_ms_after": _cpu_probe_ms(),
        "pool_fingerprint": cp.POOL_SHA256,
        "attempted": led.attempted, "failed": led.failed,
        "failed_op_ratio": led.failed / max(1, led.attempted),
        "problems": led.problems, "marks_s": ctx.marks,
        **wl.record, **extra,
    }
    print(json.dumps({"perfbench_record": record}, default=float))
    print(json.dumps({
        "correct": led.failed == 0, "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in want}}))
    return 0


def _cpu_probe_ms() -> float:
    """Median wall of a fixed pure-Python loop on the pinned core: the
    host's speed at the time, which swings about twofold over minutes
    on a shared VM; for reading a run's timings, not part of them."""
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        walls.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(walls)


def _nproc() -> int:
    """What ``nproc`` prints: usable CPUs, capped by OMP_NUM_THREADS /
    OMP_THREAD_LIMIT when set."""
    out = subprocess.run(["nproc"], capture_output=True, text=True,
                         check=True).stdout
    return int(out.strip())


def _pids_below() -> list[int]:
    from workloads import _descendants
    return _descendants(os.getpid())


if __name__ == "__main__":
    sys.exit(main())
