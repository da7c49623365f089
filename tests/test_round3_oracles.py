"""Round-3 oracle additions, pinned as pytest (sf0.001): the md5
SQL-replayable hash family (rolling fingerprint, SimHash), the
all-integer aHash replays (phash dedup, scene change), the BPE-ish
piece counter, and block-mean image resize."""
import pytest

from conftest import assert_frames_equivalent

ROUND3_ORACLE_QUERIES = [
    "ta_fingerprint_rolling",
    "dedup_simhash",
    "mm_phash_dups",
    "mm_scene_change",
    "ta_token_bpe",
    "mm_image_resize",
    "ta_split",
    "web_url_canon",
    "web_dedup_canon",
    "kg_kcore",
    "rel_rolling_max",
    "rel_conversion_lag",
]


@pytest.mark.parametrize("name", ROUND3_ORACLE_QUERIES)
def test_round3_oracle(name, sf_dir, duck, ray_session):
    import __ray_entry__ as em

    got = em.queries()[name](sf_dir)
    expected = duck.execute(em.oracle_sql()[name]).df()
    assert len(expected) > 0
    assert_frames_equivalent(got, expected)


def test_collocations_paths_bit_identical(sf_dir, ray_session):
    """The broadcast-vocab fast path and the tag-union scale path must
    produce identical rows (broadcast_vocab_limit=0 forces tag-union)."""
    import os

    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import collocations

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    cols = ["w1", "w2", "n_pair", "lift_micro"]
    a = (collocations(docs).to_pandas()[cols]
         .sort_values(cols).reset_index(drop=True))
    b = (collocations(docs, broadcast_vocab_limit=0).to_pandas()[cols]
         .sort_values(cols).reset_index(drop=True))
    assert a.equals(b)


def test_url_canonicalization_edges(ray_session):
    """Rules beyond the oracle corpus: non-http passthrough, wrong-scheme
    port preserved, root path, all-utm query drops the '?'."""
    import pyarrow as pa
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import canonicalize_urls

    urls = [
        "ftp://ex.org/x",                      # not http(s): unchanged
        "HTTP://Ex.Org:80",                    # default port + no path
        "https://ex.org:80/a",                 # :80 is NOT https default
        "http://ex.org/a///",                  # trailing slashes
        "https://ex.org/?utm_a=1&utm_b=2",     # only tracking params
        "https://ex.org/p?b=2&a=10&a=1",       # duplicate keys sorted
    ]
    t = pa.table({"doc_id": pa.array(range(len(urls)), pa.int64()),
                  "url": pa.array(urls, pa.string())})
    out = (canonicalize_urls(rd.from_arrow(t)).to_pandas()
           .sort_values("doc_id"))
    assert out["url_canon"].tolist() == [
        "ftp://ex.org/x",
        "http://ex.org/",
        "https://ex.org:80/a",
        "http://ex.org/a",
        "https://ex.org/",
        "https://ex.org/p?a=1&a=10&b=2",
    ]
    assert out["parse_ok"].tolist() == [False, True, True, True, True, True]
