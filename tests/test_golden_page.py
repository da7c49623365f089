"""Single-page golden test — the ``ObjectProcessorTest.simpleObject``
analog (ObjectProcessorTest.java:62-83): run the full per-page extractor
against one synthesized page and assert the EXACT expected quad set,
literal by literal (set comparison, order- and duplicate-insensitive,
per SidoraExamplesIT.java:105)."""

import pyarrow as pa

from fcrepo3_rdf_extractor_ray.sources.pages import _page_html
from fcrepo3_rdf_extractor_ray.stages.extract import extract_quads_batch

DOC_ID = 26  # 26%3=2 (ENTITY- variant, basedIn), 26%41=26, (7*26+3)%41=21,
             # (26//3)%3=2, 26%13=0 (newline keyword), not %11/%17/%19/%97


def _batch():
    import datetime as dt

    return pa.table({
        "url": pa.array(["https://ex6.org/p/26"], pa.string()),
        "warc_ts": pa.array([dt.datetime(2023, 12, 10, 22, 13, 20)],
                            pa.timestamp("us")),
        "html": pa.array([_page_html(DOC_ID, "hello golden world")],
                         pa.binary()),
        "lang": pa.array(["de"], pa.string()),
    })


EXPECTED = {
    # (subj, pred, obj, is_literal, datatype)
    ("https://ex6.org/p/26", "rdf:type", "kg:WebPage", False, ""),
    ("https://ex6.org/p/26", "kg:fetchedAt", "2023-12-10T22:13:20Z", True,
     "xsd:dateTime"),
    ("https://ex6.org/p/26", "kg:lang", "de", True, ""),
    ("https://ex6.org/p/26", "kg:domain", "https://ex6.org/", False, ""),
    ("https://ex6.org/p/26", "kg:title", "Doc 26", True, ""),
    ("https://ex6.org/p/26", "kg:description", "About hello", True, ""),
    ("https://ex6.org/p/26", "kg:keywords", "kw1,\nalpha", True, ""),
    ("https://ex6.org/p/26", "kg:state", "kg:Active", False, ""),
    # fact: ENTITY-26 is based in ENTITY-21 → raw surf: markers
    ("surf:entity26", "kg:basedIn", "surf:entity21", False, ""),
}


def test_single_page_golden_quads():
    out = extract_quads_batch(_batch())
    got = {(r["subj"], r["pred"], r["obj"], r["obj_is_literal"],
            r["obj_datatype"]) for r in out.to_pylist()}
    assert got == EXPECTED
    assert all(r["graph"] == "kg:web" for r in out.to_pylist())
    assert all(r["src_url"] == "https://ex6.org/p/26" for r in out.to_pylist())


def test_synthesized_pages_carry_no_pandas_metadata(sf_dir, tmp_path):
    """Every pages shard is written without schema metadata: pyarrow
    cannot hash a schema that carries it, and Ray Data then logs "Failed
    to hash the schemas" on every read of the pages."""
    import os

    import pyarrow.parquet as pq

    from fcrepo3_rdf_extractor_ray.sources.pages import synthesize_pages

    d = synthesize_pages(sf_dir, out_dir=str(tmp_path / "pages"))
    shards = [os.path.join(d, f) for f in os.listdir(d)
              if f.endswith(".parquet")]
    assert shards
    for f in shards:
        meta = pq.read_schema(f).metadata or {}
        assert b"pandas" not in meta, f
