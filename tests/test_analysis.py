"""Analyzer determinism + golden behaviour (SURVEY.md §7.5.2)."""

from siem_on_amazon_opensearch_service_ray.analysis import (
    base_tokens, code_tokens, path_tokens, subtokens, term_freqs)


def test_base_tokens_snake_is_single_token():
    # UAX#29 ExtendNumLet: '_' joins words in Lucene's standard analyzer
    assert base_tokens("doc_id = foo(bar)") == ["doc_id", "foo", "bar"]


def test_base_tokens_lowercase():
    assert base_tokens("FooBar BAZ") == ["foobar", "baz"]


def test_subtokens_camel_and_digits():
    assert subtokens("getHTTPResponse2") == ["get", "HTTP", "Response", "2"]
    assert subtokens("snake_case_id") == ["snake", "case", "id"]
    assert subtokens("mod7") == ["mod", "7"]


def test_code_tokens_emit_base_plus_subs():
    assert code_tokens("getHttpResponse") == [
        "gethttpresponse", "get", "http", "response"]
    assert code_tokens("doc_id") == ["doc_id", "doc", "id"]
    # plain lowercase words contribute exactly one token (SQL-oracle parity)
    assert code_tokens("the fast join") == ["the", "fast", "join"]


def test_path_tokens():
    assert path_tokens("src/pkg_3/mod_7.py") == [
        "src", "pkg_3", "pkg", "3", "mod_7", "mod", "7", "py"]


def test_term_freqs_doclen():
    tf = term_freqs("def def foo_bar", analyzer="code")
    assert tf["def"] == 2 and tf["foo_bar"] == 1 and tf["foo"] == 1
    assert sum(tf.values()) == 5


def test_truncation_long_token():
    from siem_on_amazon_opensearch_service_ray import MAX_TERM_BYTES
    tok = "a" * 40_000
    out = base_tokens(tok)
    assert len(out) == 1 and len(out[0].encode()) == MAX_TERM_BYTES


def test_truncation_multibyte_safe():
    # multibyte char straddling the cut must not produce invalid utf-8
    from siem_on_amazon_opensearch_service_ray.analysis import _truncate_term
    s = "é" * 20_000  # 2 bytes each -> 40,000 bytes
    t = _truncate_term(s)
    assert len(t.encode()) <= 32766
    t.encode().decode()  # round-trips


def test_determinism():
    text = "Spark getHttpResponse doc_id mod7 needle_42 x" * 10
    assert code_tokens(text) == code_tokens(text)


def test_unicode_analyzer():
    from siem_on_amazon_opensearch_service_ray.analysis import unicode_tokens
    assert unicode_tokens("Café Straße работает") == \
        ["café", "straße", "работает"]
    # CJK ideographs one per character; kana runs stay together
    assert unicode_tokens("日本語のドキュメント") == \
        ["日", "本", "語", "の", "ドキュメント"]
    # ascii identifiers stay single tokens (no code splitting)
    assert unicode_tokens("snake_case getHttp") == ["snake_case", "gethttp"]
    assert unicode_tokens("") == []


def test_unicode_analyzer_indexable(ray_session, tmp_path):
    """End-to-end: a unicode-field index finds non-ASCII terms."""
    import pyarrow as pa
    import ray.data as rd
    from siem_on_amazon_opensearch_service_ray.pipelines.build_index import (
        IndexConfig, build_index)
    from siem_on_amazon_opensearch_service_ray.state.searcher import Searcher
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["Die schnelle Straße", "日本語のテキストです",
                 "plain english words"],
    })
    cfg = IndexConfig(num_partitions=2, fields=(("text", "text", "unicode"),),
                      keyword_fields=(), doc_id_col="doc_id", sha_col="text")
    idx = str(tmp_path / "uidx")
    build_index(rd.from_arrow(docs), idx, cfg)
    s = Searcher(idx, use_actors=False)
    assert [d for _, d in s.search("straße", field="text")] == [1]
    assert [d for _, d in s.search("日本", field="text")] == [2]
