"""Property-based tests (hypothesis) for the codec + analyzer layers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from siem_on_amazon_opensearch_service_ray.analysis import (
    code_tokens, code_tokens_with_positions)
from siem_on_amazon_opensearch_service_ray.norms import (
    decode_norm, encode_norm)
from siem_on_amazon_opensearch_service_ray.postings import (
    decode_positions, decode_postings, encode_positions, encode_postings,
    varint_decode, varint_encode)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=400))
def test_varint_roundtrip_any(values):
    arr = np.array(values, dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(arr), arr.size), arr)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**62), min_size=1,
               max_size=500),
       st.data())
def test_postings_roundtrip_any(doc_set, data):
    doc_ids = np.array(sorted(doc_set), dtype=np.uint64)
    n = doc_ids.size
    tfs = np.array(data.draw(st.lists(st.integers(1, 10_000), min_size=n,
                                      max_size=n)), dtype=np.uint32)
    norms = np.array(data.draw(st.lists(st.integers(0, 255), min_size=n,
                                        max_size=n)), dtype=np.uint8)
    blobs = encode_postings(doc_ids, tfs, norms)
    tp = decode_postings(blobs[0], blobs[1], blobs[2], n)
    assert np.array_equal(tp.doc_ids, doc_ids)
    assert np.array_equal(tp.tfs, tfs)
    assert np.array_equal(tp.norms, norms)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 100_000), min_size=1, max_size=50),
                min_size=1, max_size=30))
def test_positions_roundtrip_any(pos_lists):
    arrs = [np.sort(np.array(p, dtype=np.uint64)) for p in pos_lists]
    tfs = np.array([a.size for a in arrs], dtype=np.uint32)
    out = decode_positions(encode_positions(arrs), tfs)
    for a, b in zip(out, arrs):
        assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_norm_quantization_properties_any(length):
    arr = np.array([length], dtype=np.int64)
    q = int(decode_norm(encode_norm(arr))[0])
    assert q <= length               # truncating
    # idempotent: quantized values are fixed points
    assert int(decode_norm(encode_norm(np.array([q])))[0]) == q


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=300))
def test_analyzer_total_and_consistent(text):
    toks = code_tokens(text)
    toks2, poss = code_tokens_with_positions(text)
    assert toks == toks2                       # same emission
    assert len(poss) == len(toks2)
    if poss:
        assert all(b >= a for a, b in zip(poss, poss[1:]))  # non-decreasing
    assert all(t == t.lower() for t in toks)   # lowercased
    assert all(len(t.encode()) <= 32766 for t in toks)

@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_simple_query_string_parser_total(qs):
    """The simple grammar's defining contract: ANY input parses —
    unbalanced quotes, stray operators, parens, control chars —
    and every produced clause is well-formed."""
    from siem_on_amazon_opensearch_service_ray.state.querystring import (
        MUST, MUST_NOT, SHOULD, parse_simple_query_string)
    for op in ("or", "and"):
        p = parse_simple_query_string(qs, op)
        assert not p.filters and not p.ranges   # SQS has no field syntax
        for c in p.clauses:
            assert c.occur in (MUST, SHOULD, MUST_NOT)
            assert c.kind in ("term", "prefix", "fuzzy", "phrase")
            if c.kind != "phrase":
                assert c.text != ""


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_metric_expr_compiler_total(expr):
    """compile_metric_expr either raises ValueError (never any other
    exception type) or returns a callable whose evaluation over
    benign bindings is a plain number/array — no escape hatch."""
    import numpy as np
    from siem_on_amazon_opensearch_service_ray.state.searcher import (
        compile_metric_expr)
    try:
        fn = compile_metric_expr(expr, ("x", "y"))
    except ValueError:
        return
    try:
        out = fn({"x": np.array([1.0, 2.0]), "y": np.array([3.0, 4.0])})
    except (ZeroDivisionError, OverflowError, FloatingPointError):
        return                                   # arithmetic, not escape
    assert isinstance(out, (int, float, complex, np.ndarray,
                            np.floating, np.integer, np.complexfloating))


@given(st.text(alphabet=st.characters(min_codepoint=33,
                                      max_codepoint=126),
               min_size=0, max_size=40),
       st.sampled_from(["http", "HTTP", "https", "HtTpS"]),
       st.sampled_from(["", ":80", ":443", ":8080"]),
       st.lists(st.sampled_from(["www", "WWW", "wWw", "ww", "www1"]),
                max_size=3))
@settings(max_examples=200, deadline=None)
def test_url_canonicalize_idempotent(tail, scheme, port, labels):
    """canonicalize(canonicalize(u)) == canonicalize(u): every step
    (case fold, www strip, default-port drop, fragment strip, utm
    removal, root normalize) is a projection, so the chain must be
    idempotent for any URL the extractor accepts — including hosts
    with several leading ``www.`` labels."""
    import pyarrow as pa

    from siem_on_amazon_opensearch_service_ray.stages.urls import (
        canonicalize)
    host = "".join(f"{x}." for x in labels) + "Ex-Ample.COM"
    url = f"{scheme}://{host}{port}/{tail}"
    c1 = canonicalize(pa.array([url], pa.string()))[0].as_py()
    if c1 is None:
        return        # extractor-rejected shape — nothing to check
    c2 = canonicalize(pa.array([c1], pa.string()))[0].as_py()
    assert c2 == c1, (url, c1, c2)
