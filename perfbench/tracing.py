"""Spans recorded from outside the engine, for the traced run.

``Tracer.install`` wraps public functions and methods of the layers in
this process (module attributes and class methods), so every call records
a span: name, start, end, parent span and the request it served.
Spans stay in memory; ``write`` dumps them once, at the end of the run.
``uninstall`` puts every original back.

Two other sources complete the picture: the Ray Data dataset logs give
per-operator walls of each build (``dataset_op_walls``), and
``ray.timeline()`` gives the actor calls a request fanned out to
(``actor_calls``).
"""

from __future__ import annotations

import glob
import json
import os
import re
import time
from collections import defaultdict

from siem_on_amazon_opensearch_service_ray.pipelines import build_index as bi
from siem_on_amazon_opensearch_service_ray.state import searcher as sm
from siem_on_amazon_opensearch_service_ray.state import shard as shm

# (owner, attribute, span name)
TARGETS = (
    (bi, "build_postings", "build_index.build_postings"),
    (bi, "build_filters", "build_index.build_filters"),
    (bi, "finalize", "build_index.finalize"),
    (sm, "prepare_terms", "searcher.prepare_terms"),
    (sm, "score_taat", "searcher.method.taat"),
    (sm, "score_and", "searcher.method.and"),
    (sm, "score_wand", "searcher.method.wand"),
    (sm, "score_bool", "searcher.method.bool"),
    (sm.Searcher, "__init__", "searcher.open"),
    (sm.Searcher, "_term_dfs", "searcher.dfs_round"),
    (sm.Searcher, "_exec_doc_sharded", "searcher.scatter"),
    (sm.Searcher, "fetch_docs", "dsl.fetch"),
    (shm.ShardReader, "__init__", "shard.open"),
    (shm.ShardReader, "raw_rows", "shard.raw_rows"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, request, name, t0, t1)
        self._stack: list[int] = []
        self.request = -1
        self.cache_lookups = 0
        self.cache_misses = 0
        self.terms_loaded: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.request, name,
                                     t0, t1)
        traced.__wrapped__ = fn
        return traced

    def _wrap_gather(self, fn):
        tracer = self

        def gather(s, field, terms):
            uniq = list(dict.fromkeys(terms))
            tracer.cache_lookups += len(uniq)
            tracer.cache_misses += sum(1 for t in uniq
                                       if (field, t) not in s._rows_cache)
            return fn(s, field, terms)
        gather.__wrapped__ = fn
        return gather

    def _wrap_reader_init(self, fn):
        traced = self._wrap(fn, "shard.open")
        tracer = self

        def init(reader, *args, **kwargs):
            traced(reader, *args, **kwargs)
            tracer.terms_loaded.append(len(reader.terms))
        init.__wrapped__ = fn
        return init

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            if owner is shm.ShardReader and attr == "__init__":
                setattr(owner, attr, self._wrap_reader_init(fn))
            else:
                setattr(owner, attr, self._wrap(fn, name))
        fn = sm.Searcher.__dict__["_gather"]
        self._saved.append((sm.Searcher, "_gather", fn))
        sm.Searcher._gather = self._wrap_gather(fn)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def totals(self, since: int = 0, until: int | None = None
               ) -> dict[str, tuple[int, float]]:
        """name -> (calls, seconds) over spans[since:until]."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sp in self.spans[since:until]:
            if sp is None:
                continue
            out[sp[3]][0] += 1
            out[sp[3]][1] += sp[5] - sp[4]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["id", "parent", "request", "name",
                                  "start_s", "end_s"],
                       "spans": [list(s) for s in self.spans if s]}, f)


_TS = re.compile(r"^(\d{4}-\d\d-\d\d \d\d:\d\d:\d\d),(\d{3})\s")
_PLAN = re.compile(r"Execution plan of Dataset \S+: (.*)$")
_DONE = re.compile(r"Operator (\S+?)\[(.+)\] completed")


def _ts(line: str) -> float | None:
    m = _TS.match(line)
    if not m:
        return None
    # Ray's log timestamps are local time
    return time.mktime(time.strptime(m.group(1), "%Y-%m-%d %H:%M:%S")) \
        + int(m.group(2)) / 1000


def dataset_op_walls(session_dir: str, windows: list[tuple[float, float]]
                     ) -> list[dict[str, float]]:
    """Per build dataset started inside one of ``windows`` (epoch
    seconds): {operator: wall}.  An operator's wall runs from the
    previous operator's completion (or the start of execution) to its
    own completion, so the walls of one dataset add up to its
    execution time."""
    out = []
    for path in sorted(glob.glob(os.path.join(
            session_dir, "logs", "ray-data", "ray-data-dataset_*.log"))):
        start, plan, done = None, "", []
        with open(path, errors="replace") as f:
            for line in f:
                if "Starting execution of Dataset" in line:
                    start = _ts(line)
                m = _PLAN.search(line)
                if m:
                    plan = m.group(1)
                m = _DONE.search(line)
                if m and m.group(1) != "InputDataBuffer":
                    done.append((m.group(2), _ts(line)))
        if start is None or "_tokenize_task" not in plan:
            continue
        if not any(a <= start <= b for a, b in windows):
            continue
        walls, prev = {}, start
        for op, t in done:
            walls[op] = t - prev
            prev = t
        out.append(walls)
    return out


def actor_calls(t0: float, t1: float) -> int:
    """PartActor method executions between epoch seconds t0 and t1."""
    import ray
    n = 0
    for ev in ray.timeline():
        cat = ev.get("cat", "")
        if (cat.startswith("task::PartActor.")
                and not cat.endswith(".__init__")
                and t0 * 1e6 <= ev.get("ts", 0) <= t1 * 1e6):
            n += 1
    return n
