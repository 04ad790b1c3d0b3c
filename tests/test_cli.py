"""CLI smoke tests: drive ``__main__.main()`` in-process.  The
session-scoped Ray fixture owns the session; the CLI's
``ray.is_initialized()`` guard makes it attach instead of re-init."""

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from siem_on_amazon_opensearch_service_ray.__main__ import main

VOCAB = ["spark", "join", "shuffle", "sql", "table", "query"]
N = 120


@pytest.fixture(scope="module")
def cli_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(3)
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB),
                                           int(rng.integers(5, 30))))
            for _ in range(N)]
    t = pa.table({
        "content": docs,
        "path": [f"src/m_{i % 7}.py" for i in range(N)],
        "lang": [["py", "go"][i % 2] for i in range(N)],
        "repo": [f"r{i % 3}" for i in range(N)],
        "commit": [f"{i:08x}" for i in range(N)],
    })
    corpus = root / "corpus"
    corpus.mkdir()
    pq.write_table(t, str(corpus / "chunk-0.parquet"))
    idx = str(root / "idx")
    rc = main(["build", str(corpus), idx, "--partitions", "4",
               "--positions"])
    assert rc == 0
    return idx, docs


def _run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_build_and_stats(cli_index, capsys):
    idx, _ = cli_index
    out = _run_json(capsys, ["stats", idx])
    assert out["n_docs"] == N


def test_cli_search_term(cli_index, capsys):
    idx, docs = cli_index
    out = _run_json(capsys, ["search", idx, "spark", "--k", "5"])
    assert out and all({"rank", "doc_id", "score"} <= set(r) for r in out)


def test_cli_search_span_expr(cli_index, capsys):
    idx, docs = cli_index
    expr = {"span_near": {"clauses": [
        {"span_or": {"clauses": ["spark", "table"]}}, "sql"], "slop": 2}}
    out = _run_json(capsys, ["search", idx, json.dumps(expr),
                             "--type", "span-expr", "--k", "1000"])
    # independent check: any doc listed must contain sql and spark|table
    toks = [d.split() for d in docs]
    ids = {r["doc_id"] for r in out}
    assert ids
    # doc ids are hashes of (repo, path, commit); count docs that could
    # match and require the CLI to find no more than that
    n_possible = sum(1 for tl in toks
                     if "sql" in tl and ("spark" in tl or "table" in tl))
    assert 0 < len(ids) <= n_possible


def test_cli_agg_stats(cli_index, capsys):
    idx, _ = cli_index
    out = _run_json(capsys, ["agg", idx, "spark", "--agg", "stats",
                             "--agg-field", "lang"])
    # lang is a keyword, not a range field -> count 0 is acceptable;
    # just assert the command runs and emits a stats dict
    assert "count" in out


def test_cli_agg_terms(cli_index, capsys):
    idx, _ = cli_index
    out = _run_json(capsys, ["agg", idx, "spark", "--agg", "terms",
                             "--agg-field", "lang"])
    assert {r["value"] for r in out} <= {"py", "go"}
    assert sum(r["count"] for r in out) > 0


def test_cli_training_ops(ray_session, tmp_path, capsys):
    """pack / sample / decontam subcommands: run over a small doc
    table with an int64 id column, write partitioned parquet out."""
    rng = np.random.default_rng(5)
    n = 80
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": [" ".join(VOCAB[int(j)]
                          for j in rng.integers(0, len(VOCAB), 20))
                 for _ in range(n)],
        "lang": pa.array([["py", "go"][i % 2] for i in range(n)]),
    })
    corpus = tmp_path / "docs"
    corpus.mkdir()
    pq.write_table(t, str(corpus / "d.parquet"))
    out = _run_json(capsys, ["pack", str(corpus), str(tmp_path / "packed"),
                             "--budget", "64"])
    assert out["docs"] == n and out["sequences"] >= 1
    out = _run_json(capsys, ["sample", str(corpus), str(tmp_path / "mix"),
                             "--rates", '{"py": 200, "go": 50}'])
    assert out["rows_in"] == n
    # py docs doubled, go docs halved (deterministic doc_id % 100)
    exp = 2 * (n // 2) + sum(1 for i in range(1, n, 2) if i % 100 < 50)
    assert out["rows_out"] == exp
    out = _run_json(capsys, ["decontam", str(corpus), str(corpus),
                             str(tmp_path / "dc"), "--ngram", "3"])
    assert out["docs"] == n and out["contaminated"] == n  # self-overlap
    assert (tmp_path / "packed").is_dir() and (tmp_path / "dc").is_dir()
    # curate: with the default 20-token minimum every 20-token doc
    # stays unless its duplicated-5-gram coverage crosses 1/5
    out = _run_json(capsys, ["curate", str(corpus),
                             str(tmp_path / "cur")])
    assert out["docs_in"] == n
    assert out["docs_in"] == out["docs_out"] + out["dropped"]
    assert (tmp_path / "cur").is_dir()


def test_cli_scoring_query_types(cli_index, capsys):
    idx, docs = cli_index
    out = _run_json(capsys, ["search", idx, "spark", "--type",
                             "constant-score", "--boost", "2.5",
                             "--k", "5"])
    assert out and all(r["score"] == 2.5 for r in out)
    out = _run_json(capsys, ["search", idx, "spark join", "--type",
                             "boosting", "--negative", "sql",
                             "--negative-boost", "0.4", "--k", "5"])
    assert out
    out = _run_json(capsys, ["search", idx, "spark join", "--type",
                             "collapse", "--collapse-field", "lang",
                             "--k", "5"])
    assert out and all("lang" in r for r in out)
    assert len({r["lang"] for r in out}) == len(out)
    # no range fields in this index: every doc's value defaults to 0,
    # boost_mode=sum keeps the BM25 ranking -> plain smoke
    out = _run_json(capsys, ["search", idx, "spark", "--type",
                             "function-score", "--value-field", "nope",
                             "--boost-mode", "sum", "--k", "3"])
    assert out


def test_cli_completion_fuzzy_and_context(cli_index, capsys):
    idx, _ = cli_index
    out = _run_json(capsys, ["suggest", idx, "sp", "--completion"])
    assert [r["term"] for r in out][:1] == ["spark"]
    # fuzzy completion: 'sprk' (missing a) still completes to spark
    out = _run_json(capsys, ["suggest", idx, "sprk", "--completion",
                             "--fuzziness", "1"])
    assert "spark" in [r["term"] for r in out]
    # context: df counted within lang=py docs only
    out = _run_json(capsys, ["suggest", idx, "sp", "--completion",
                             "--context", "lang=py"])
    assert out and out[0]["term"] == "spark"


def test_cli_agg_ip_and_date_range(ray_session, tmp_path, capsys):
    """--agg ip_range / date_range over an index with an ip keyword
    and an epoch range field; the ip buckets include a CIDR mask."""
    root = tmp_path / "iprange"
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    n = 60
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": [["click", "view"][i % 2] for i in range(n)],
        "ip": [f"10.{(i * 7) % 200}.0.1" for i in range(n)],
        "ts_epoch": pa.array([1704067200.0 + i * 86400 for i in range(n)],
                             pa.float64()),
        "val": pa.array([float((i * 13) % 100) for i in range(n)],
                        pa.float64()),
        "wt": pa.array([float(i % 4 + 1) for i in range(n)],
                       pa.float64()),
    })
    pq.write_table(t, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    rc = main(["build", str(corpus), idx, "--partitions", "2",
               "--doc-id-col", "doc_id", "--sha-col", "content",
               "--text-field", "content:content:base",
               "--keyword-field", "ip", "--range-field", "ts_epoch",
               "--range-field", "val", "--range-field", "wt"])
    assert rc == 0
    capsys.readouterr()  # drain the build summary
    out = _run_json(capsys, [
        "agg", idx, "click", "--agg", "ip_range", "--agg-field", "ip",
        "--ranges", "*|10.50.0.0,10.50.0.0|10.100.0.0,10.128.0.0/9"])
    got = {r["bucket"]: r["count"] for r in out}
    clicks = [f"10.{(i * 7) % 200}.0.1" for i in range(0, n, 2)]
    exp_lo = sum(1 for ip in clicks if int(ip.split(".")[1]) < 50)
    exp_mid = sum(1 for ip in clicks if 50 <= int(ip.split(".")[1]) < 100)
    exp_cidr = sum(1 for ip in clicks if int(ip.split(".")[1]) >= 128)
    assert got == {"*-10.50.0.0": exp_lo,
                   "10.50.0.0-10.100.0.0": exp_mid,
                   "10.128.0.0/9": exp_cidr}
    out = _run_json(capsys, [
        "agg", idx, "click", "--agg", "date_range", "--agg-field",
        "ts_epoch", "--ranges", "*|2024-01-11,2024-01-11|*"])
    got = {r["bucket"]: r["count"] for r in out}
    # clicks are even i; ts = 2024-01-01 + i days; 2024-01-11 = i 10
    assert got == {"*-2024-01-11": 5, "2024-01-11-*": 25}
    # weighted_avg / matrix_stats share the co-moment partial
    out = _run_json(capsys, [
        "agg", idx, "click", "--agg", "weighted_avg",
        "--agg-field", "val", "--agg-field2", "wt"])
    vals = [float((i * 13) % 100) for i in range(0, n, 2)]
    wts = [float(i % 4 + 1) for i in range(0, n, 2)]
    exp = sum(v * w for v, w in zip(vals, wts)) / sum(wts)
    assert out["count"] == 30 and abs(out["value"] - exp) < 1e-9
    out = _run_json(capsys, [
        "agg", idx, "click", "--agg", "matrix_stats",
        "--agg-field", "val", "--agg-field2", "wt"])
    assert out["count"] == 30
    assert out["sums"]["sxy"] == sum(v * w for v, w in zip(vals, wts))


def test_cli_multi_terms_sig_text_terms_set_geo(ray_session, tmp_path,
                                                capsys):
    """--agg multi_terms / sig_text / geo_distance and --type terms-set
    over one index carrying two keyword fields and msm/lat/lon range
    fields."""
    root = tmp_path / "s5cli"
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    n = 48
    texts = [("spark join" if i % 2 else "sql table scan")
             + (" shuffle" if i % 3 == 0 else "")
             for i in range(n)]
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": texts,
        "lang": [["py", "go"][i % 2] for i in range(n)],
        "repo": [f"r{i % 3}" for i in range(n)],
        "msm": pa.array([(i % 2) + 1.0 for i in range(n)], pa.float64()),
        "lat": pa.array([float(i % 20) for i in range(n)], pa.float64()),
        "lon": pa.array([float((i % 20) * 2) for i in range(n)],
                        pa.float64()),
    })
    pq.write_table(t, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    rc = main(["build", str(corpus), idx, "--partitions", "2",
               "--doc-id-col", "doc_id", "--sha-col", "content",
               "--text-field", "content:content:base",
               "--keyword-field", "lang", "--keyword-field", "repo",
               "--range-field", "msm", "--range-field", "lat",
               "--range-field", "lon"])
    assert rc == 0
    capsys.readouterr()  # drain the build summary
    out = _run_json(capsys, [
        "agg", idx, "spark", "--agg", "multi_terms",
        "--agg-field", "lang", "--agg-field2", "repo"])
    # spark docs are the odd i -> lang always 'go'
    assert all(r["value_a"] == "go" for r in out)
    assert sum(r["count"] for r in out) == n // 2
    out = _run_json(capsys, [
        "agg", idx, "spark", "--agg", "sig_text",
        "--agg-field", "content", "--k", "3"])
    assert [r["term"] for r in out][:2] == ["join", "spark"] or \
        [r["term"] for r in out][:2] == ["spark", "join"]
    out = _run_json(capsys, [
        "agg", idx, "spark", "--agg", "geo_distance",
        "--agg-field", "lat", "--agg-field2", "lon",
        "--origin", "0,0", "--ranges", "*|2000,2000|*"])
    got = {r["bucket"]: r["count"] for r in out}
    assert sum(got.values()) == n // 2
    # terms-set: per-doc minimum from the msm field (odd i -> msm 2)
    out = _run_json(capsys, [
        "search", idx, "--type", "terms-set",
        "--should", "spark", "--should", "join", "--should", "shuffle",
        "--msm-field", "msm", "--k", "48"])
    # every returned doc is odd (spark+join >= msm=2); even docs
    # (msm=1) never contain any of the three terms except shuffle
    ids = [r["doc_id"] for r in out]
    assert ids and all(
        (i % 2 == 1) or (i % 3 == 0 and i % 2 == 0) for i in ids)
    # constant minimum via --msm
    out = _run_json(capsys, [
        "search", idx, "--type", "terms-set",
        "--should", "spark", "--should", "join", "--should", "shuffle",
        "--msm", "3", "--k", "48"])
    assert all(r["doc_id"] % 6 == 3 for r in out) and out


def test_cli_sampler(cli_index, capsys):
    """--agg sampler: the sub-agg runs over only the per-shard
    best-scoring sample; diversified cap shrinks it further."""
    idx, _ = cli_index
    out = _run_json(capsys, [
        "agg", idx, "spark join", "--agg", "sampler",
        "--agg-field", "lang", "--shard-size", "5"])
    assert sum(r["count"] for r in out) <= 5 * 4  # <= shard_size * P
    out2 = _run_json(capsys, [
        "agg", idx, "spark join", "--agg", "sampler",
        "--agg-field", "lang", "--shard-size", "5",
        "--diversify-field", "repo", "--max-per-value", "1"])
    # at most 1 doc per repo value per shard; 3 repos -> <= 3 * P docs
    assert sum(r["count"] for r in out2) <= 3 * 4


def test_cli_geotile(ray_session, tmp_path, capsys):
    root = tmp_path / "geot"
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    n = 24
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": ["click"] * n,
        "lat": pa.array([10.0 if i % 2 else -10.0 for i in range(n)],
                        pa.float64()),
        "lon": pa.array([100.0 if i % 3 else -100.0 for i in range(n)],
                        pa.float64()),
    })
    pq.write_table(t, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    assert main(["build", str(corpus), idx, "--partitions", "2",
                 "--doc-id-col", "doc_id", "--sha-col", "content",
                 "--text-field", "content:content:base",
                 "--range-field", "lat", "--range-field", "lon"]) == 0
    capsys.readouterr()
    out = _run_json(capsys, [
        "agg", idx, "click", "--agg", "geotile",
        "--agg-field", "lat", "--agg-field2", "lon", "--precision", "1"])
    # z=1: 2x2 tiles; four (lat,lon) combos -> four distinct tiles
    got = {r["tile"]: r["count"] for r in out}
    assert sum(got.values()) == n and len(got) == 4
    assert all(k.startswith("1/") for k in got)


def test_cli_geo_bounds_and_boxplot(ray_session, tmp_path, capsys):
    root = tmp_path / "gb"
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    n = 20
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": ["click"] * n,
        "lat": pa.array([float(i) for i in range(n)], pa.float64()),
        "lon": pa.array([float(2 * i) for i in range(n)], pa.float64()),
        "v": pa.array([float(i * 10) for i in range(n)], pa.float64()),
    })
    pq.write_table(t, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    assert main(["build", str(corpus), idx, "--partitions", "2",
                 "--doc-id-col", "doc_id", "--sha-col", "content",
                 "--text-field", "content:content:base",
                 "--range-field", "lat", "--range-field", "lon",
                 "--range-field", "v"]) == 0
    capsys.readouterr()
    out = _run_json(capsys, [
        "agg", idx, "click", "--agg", "geo_bounds",
        "--agg-field", "lat", "--agg-field2", "lon"])
    assert out["count"] == n
    assert out["top_left"] == [19.0, 0.0]
    assert out["bottom_right"] == [0.0, 38.0]
    assert out["centroid"] == [9.5, 19.0]
    out = _run_json(capsys, [
        "agg", idx, "click", "--agg", "boxplot", "--agg-field", "v"])
    assert out == {"count": n, "min": 0.0, "max": 190.0,
                   "q1": 47.5, "q2": 95.0, "q3": 142.5}


def test_cli_string_stats_and_t_test(ray_session, tmp_path, capsys):
    root = tmp_path / "ss"
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    n = 30
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": ["click"] * n,
        "src": [f"s{i % 5}" for i in range(n)],
        "a": pa.array([float(i) for i in range(n)], pa.float64()),
        "b": pa.array([float(i % 7) for i in range(n)], pa.float64()),
    })
    pq.write_table(t, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    assert main(["build", str(corpus), idx, "--partitions", "2",
                 "--doc-id-col", "doc_id", "--sha-col", "content",
                 "--text-field", "content:content:base",
                 "--keyword-field", "src",
                 "--range-field", "a", "--range-field", "b"]) == 0
    capsys.readouterr()
    out = _run_json(capsys, [
        "agg", idx, "click", "--agg", "string_stats",
        "--agg-field", "src"])
    assert out["count"] == n and out["min_length"] == 2 \
        and out["max_length"] == 2
    # uniform 5-char distribution over s,0..4 weighted 6 each:
    # chars: 's' 30x, digits 6x each -> entropy known
    import collections
    chars = collections.Counter("".join(f"s{i % 5}" for i in range(n)))
    tot = sum(chars.values())
    p = np.array(sorted(chars.values()), float) / tot
    assert abs(out["entropy"] - float(-(p * np.log2(p)).sum())) < 1e-9
    out = _run_json(capsys, [
        "agg", idx, "click", "--agg", "t_test",
        "--agg-field", "a", "--agg-field2", "b"])
    import math as _m
    x = np.arange(n, dtype=float)
    y = np.array([i % 7 for i in range(n)], float)
    d = x - y
    want = d.mean() / _m.sqrt(d.var(ddof=1) / n)
    assert abs(out["t_value"] - want) < 1e-9 and out["count"] == n


def test_cli_scripted_metric(ray_session, tmp_path, capsys):
    root = tmp_path / "sm"
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    n = 20
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": ["click"] * n,
        "a": pa.array([float(i) for i in range(n)], pa.float64()),
        "b": pa.array([2.0] * n, pa.float64()),
    })
    pq.write_table(t, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    assert main(["build", str(corpus), idx, "--partitions", "2",
                 "--doc-id-col", "doc_id", "--sha-col", "content",
                 "--text-field", "content:content:base",
                 "--range-field", "a", "--range-field", "b"]) == 0
    capsys.readouterr()
    out = _run_json(capsys, [
        "agg", idx, "click", "--agg", "scripted",
        "--metric-field", "a", "--metric-field", "b",
        "--map-expr", "a * b", "--reduce-expr", "state / count"])
    # sum(2i) = n*(n-1); mean = n-1
    assert out == {"count": n, "state": float(n * (n - 1)),
                   "value": float(n - 1)}


def test_cli_script_score_and_distance_feature(ray_session, tmp_path,
                                               capsys):
    root = tmp_path / "scsc"
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    n = 24
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": ["spark join"] * n,
        "w": pa.array([float(i % 6) for i in range(n)], pa.float64()),
    })
    pq.write_table(t, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    assert main(["build", str(corpus), idx, "--partitions", "2",
                 "--doc-id-col", "doc_id", "--sha-col", "content",
                 "--text-field", "content:content:base",
                 "--range-field", "w"]) == 0
    capsys.readouterr()
    out = _run_json(capsys, [
        "search", idx, "spark", "--type", "script-score",
        "--script-expr", "_score + w", "--script-field", "w",
        "--k", "6"])
    # identical BM25 everywhere -> ranking dominated by w desc
    assert [r["doc_id"] % 6 for r in out] == [5] * 4 + [4, 4]
    out = _run_json(capsys, [
        "search", idx, "spark", "--type", "distance-feature",
        "--feature-field", "w", "--origin-value", "2", "--pivot", "1",
        "--boost", "5", "--k", "4"])
    # docs with w == 2 get the full boost
    assert all(r["doc_id"] % 6 == 2 for r in out)


def test_cli_rank_feature_exists_ids_pinned(ray_session, tmp_path,
                                            capsys):
    root = tmp_path / "rfq"
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    n = 18
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": ["spark join"] * n,
        "pop": pa.array([float(i) if i % 3 else None for i in range(n)],
                        pa.float64()),
    })
    pq.write_table(t, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    assert main(["build", str(corpus), idx, "--partitions", "2",
                 "--doc-id-col", "doc_id", "--sha-col", "content",
                 "--text-field", "content:content:base",
                 "--range-field", "pop"]) == 0
    capsys.readouterr()
    out = _run_json(capsys, [
        "search", idx, "spark", "--type", "rank-feature",
        "--feature-field", "pop", "--feature-fn", "saturation",
        "--pivot", "2", "--boost", "4", "--k", "3"])
    # identical BM25 -> highest pop wins (missing-pop docs unboosted)
    assert [r["doc_id"] for r in out] == [17, 16, 14]
    out = _run_json(capsys, [
        "search", idx, "pop", "--type", "exists", "--k", "50"])
    assert [r["doc_id"] for r in out] == [i for i in range(n) if i % 3]
    out = _run_json(capsys, [
        "search", idx, "--type", "ids", "--ids", "5,99,2"])
    assert [r["doc_id"] for r in out] == [2, 5]
    out = _run_json(capsys, [
        "search", idx, "spark", "--type", "pinned", "--ids", "7,3",
        "--k", "4"])
    assert [r["doc_id"] for r in out][:2] == [7, 3]


def test_cli_query_json_body(cli_index, capsys):
    """The query subcommand executes a raw OpenSearch JSON request
    body (hits + aggs) — what a reference user's saved request is."""
    idx, _ = cli_index
    body = {"query": {"match": {"content": "spark join"}}, "size": 3,
            "aggs": {"by_lang": {"terms": {"field": "lang"}}}}
    out = _run_json(capsys, ["query", idx, json.dumps(body)])
    assert len(out["hits"]["hits"]) == 3
    assert all({"_id", "_score"} <= set(h) for h in out["hits"]["hits"])
    bl = out["aggregations"]["by_lang"]["buckets"]
    assert {b["key"] for b in bl} <= {"py", "go"}
    assert sum(b["doc_count"] for b in bl) > 0


def test_cli_bulk_and_delete_by_query(ray_session, tmp_path, capsys):
    """`bulk` (NDJSON index/delete actions) and `delete-by-query`
    subcommands end-to-end on a private index."""
    rng = np.random.default_rng(5)
    docs = [" ".join(VOCAB[int(j)]
                     for j in rng.integers(0, len(VOCAB), 10))
            for _ in range(80)]
    t = pa.table({
        "content": docs,
        "path": [f"src/m_{i % 7}.py" for i in range(80)],
        "lang": [["py", "go"][i % 2] for i in range(80)],
        "repo": [f"r{i % 3}" for i in range(80)],
        "commit": [f"{i:08x}" for i in range(80)],
    })
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(t, str(corpus / "chunk-0.parquet"))
    idx = str(tmp_path / "idx")
    assert main(["build", str(corpus), idx, "--partitions", "4"]) == 0
    capsys.readouterr()
    # this index derives content-addressed ids from (repo, path,
    # commit) — the bulk response reports the derived _id back
    nd = tmp_path / "req.ndjson"
    nd.write_text("\n".join(json.dumps(x) for x in [
        {"index": {}},
        {"content": "qwertyzx spark", "path": "new/a.py", "lang": "py",
         "repo": "r9", "commit": "ffffffff"},
        {"index": {}},
        {"content": "qwertyzx join", "path": "new/b.py", "lang": "go",
         "repo": "r9", "commit": "fffffffe"},
    ]))
    out = _run_json(capsys, ["bulk", idx, str(nd)])
    assert [it["index"]["result"] for it in out["items"]] == \
        ["created", "created"]
    new_ids = {it["index"]["_id"] for it in out["items"]}
    from siem_on_amazon_opensearch_service_ray.stages.docprep import (
        doc_ids_for)
    want = set(doc_ids_for(["r9", "r9"], ["new/a.py", "new/b.py"],
                           ["ffffffff", "fffffffe"]).tolist())
    assert new_ids == want
    hits = _run_json(capsys, ["search", idx, "qwertyzx", "--k", "5"])
    assert {h["doc_id"] for h in hits} == new_ids
    out2 = _run_json(capsys, ["delete-by-query", idx,
                              '{"query": {"term": {"repo": "r9"}}}'])
    assert out2["deleted"] == 2
    hits2 = _run_json(capsys, ["search", idx, "qwertyzx", "--k", "5"])
    assert hits2 == []


def test_cli_query_scroll(cli_index, capsys):
    """`query --scroll` drains the stateless cursor: one JSON line per
    page, pages concatenate to the single-big-page ranking."""
    idx, _ = cli_index
    body = {"query": {"match": {"content": "spark join"}}, "size": 4}
    assert main(["query", idx, json.dumps(body), "--scroll"]) == 0
    lines = [json.loads(ln) for ln in
             capsys.readouterr().out.strip().splitlines()]
    assert all(ln["_scroll_id"] for ln in lines)
    drained = [h["_id"] for ln in lines for h in ln["hits"]["hits"]]
    out = _run_json(capsys, ["query", idx, json.dumps(
        {"query": {"match": {"content": "spark join"}}, "size": 1000})])
    assert drained == [h["_id"] for h in out["hits"]["hits"]]
    # --max-pages caps the drain
    assert main(["query", idx, json.dumps(body), "--scroll",
                 "--max-pages", "2"]) == 0
    lines2 = capsys.readouterr().out.strip().splitlines()
    assert len(lines2) == 2


def test_cli_field_caps_validate_template(cli_index, capsys):
    """field-caps, query --validate and query --params (mustache
    template render) CLI surfaces."""
    idx, _ = cli_index
    out = _run_json(capsys, ["field-caps", idx])
    assert out["fields"]["content"]["text"]["searchable"]
    out2 = _run_json(capsys, ["field-caps", idx, "la*"])
    assert "lang" in out2["fields"] and "content" not in out2["fields"]
    ok = _run_json(capsys, ["query", idx,
                            '{"query": {"match": {"content": "x"}}}',
                            "--validate"])
    assert ok == {"valid": True}
    bad = _run_json(capsys, ["query", idx, '{"query": {"nope": {}}}',
                             "--validate"])
    assert not bad["valid"] and "nope" in bad["error"]
    tpl = '{"query": {"match": {"content": "{{q}}"}}, "size": {{n}}}'
    out3 = _run_json(capsys, ["query", idx, tpl, "--params",
                              '{"q": "spark join", "n": 2}'])
    assert len(out3["hits"]["hits"]) == 2


def test_cli_update_by_query(ray_session, tmp_path, capsys):
    """build --store-source + update-by-query: the scripted rewrite
    lands and is visible to a subsequent agg CLI call."""
    root = tmp_path / "ubq"
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    n = 40
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": [["alpha beta", "gamma delta"][i % 2]
                    for i in range(n)],
        "val": pa.array([float(i) for i in range(n)], pa.float64()),
    })
    pq.write_table(t, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    rc = main(["build", str(corpus), idx, "--partitions", "2",
               "--doc-id-col", "doc_id", "--sha-col", "content",
               "--text-field", "content:content:base",
               "--range-field", "val",
               "--store-source"])
    assert rc == 0
    capsys.readouterr()
    body = json.dumps({"query": {"match": {"content": "alpha"}},
                       "script": {"source": "val = doc_id % 3 + 50"}})
    out = _run_json(capsys, ["update-by-query", idx, body])
    assert out == {"updated": 20, "noops": 0, "total": 20}
    agg = _run_json(capsys, ["agg", idx, "alpha", "--agg", "stats",
                             "--agg-field", "val"])
    stats = agg["stats"] if "stats" in agg else agg
    assert float(stats["min"]) == 50.0 and float(stats["max"]) == 52.0


def test_cli_reindex(ray_session, tmp_path, capsys):
    """build --store-source + reindex: the query-filtered slice copy
    lands in the destination and is searchable via the CLI."""
    root = tmp_path / "ri"
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    n = 30
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "content": [["alpha beta", "gamma delta"][i % 2]
                    for i in range(n)],
        "val": pa.array([float(i) for i in range(n)], pa.float64()),
    })
    pq.write_table(t, str(corpus / "part-0.parquet"))
    idx = str(root / "idx")
    assert main(["build", str(corpus), idx, "--partitions", "2",
                 "--doc-id-col", "doc_id", "--sha-col", "content",
                 "--text-field", "content:content:base",
                 "--range-field", "val",
                 "--store-source"]) == 0
    capsys.readouterr()
    body = json.dumps({"source": {"query": {"match":
                                            {"content": "alpha"}}}})
    dest = str(root / "dest")
    out = _run_json(capsys, ["reindex", idx, dest, "--body", body])
    assert out["total"] == out["created"] == 15
    st = _run_json(capsys, ["stats", dest])
    n_docs = st.get("n_docs") or st.get("stats", {}).get("n_docs")
    assert int(n_docs) == 15
