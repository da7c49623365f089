"""Parser unit tests (the DublinCoreContentHandlerTest /
ObjectProcessorTest micro-fixture layer, SURVEY.md §5.1)."""

import pytest
from hypothesis import given, strategies as st

from fcrepo3_rdf_extractor_ray.functions.normalize import norm_surface
from fcrepo3_rdf_extractor_ray.functions.textextract import (
    PageParseError,
    parse_page,
)
from fcrepo3_rdf_extractor_ray.schema import iso_date_us, robots_state

HTML = b"""<html><head><title>T &amp; Co</title>
<meta name="description" content="About cats">
<meta name="keywords" content="a,&#10;b">
<meta name="x-internal" content="nope">
</head><body>
<nav>Home | About</nav>
<script>var x = "<p>fake</p>";</script>
<p>first para</p>
<p class="fact">Entity1 works with Entity 2.</p>
<p>second &lt;para&gt;</p>
<footer>chrome</footer>
</body></html>"""


def test_parse_page_full():
    page = parse_page(HTML)
    assert page.title == "T & Co"
    assert ("description", "About cats") in page.metas
    # newline-in-literal preserved (DublinCoreContentHandlerTest.java:94-97)
    assert ("keywords", "a,\nb") in page.metas
    # non-whitelist metas are *parsed* (whitelisting happens in the quad
    # stage), boilerplate/script content never leaks into text
    assert page.text == "first para\nsecond <para>"
    assert page.fact_sentences == ["Entity1 works with Entity 2."]


def test_parse_page_malformed_raises():
    with pytest.raises(PageParseError):
        parse_page(HTML[:40])
    with pytest.raises(PageParseError):
        parse_page(b"\xff\xfe not utf8 \x80<html></html>")


def test_parse_roundtrip_escaping():
    import html as h

    text = 'quotes " and <tags> & amps'
    doc = f"<html><head></head><body><p>{h.escape(text)}</p></body></html>"
    assert parse_page(doc.encode()).text == text


def test_norm_surface_variants_converge():
    assert norm_surface("Entity7") == "entity7"
    assert norm_surface("Entity 7") == "entity7"
    assert norm_surface("ENTITY-7") == "entity7"
    assert norm_surface("Widget-12") == "widget12"


@given(st.text(max_size=50))
def test_norm_surface_idempotent(s):
    assert norm_surface(norm_surface(s)) == norm_surface(s)


def test_iso_date_drops_subseconds():
    # 2004-12-10T00:21:58.000Z → "…58Z" (ObjectProcessor.java:272-274
    # bit-stability, visible in the reference golden file simple.nt:24)
    ts_us = 1102638118_000000 + 123456  # sub-second µs present
    assert iso_date_us(ts_us).endswith("58Z")
    assert "." not in iso_date_us(ts_us)


def test_robots_state_total_mapping():
    assert robots_state("noindex") == "kg:Inactive"
    assert robots_state("index") == "kg:Active"
    with pytest.raises(ValueError):
        robots_state("bogus")  # throws on unknown (RdfVocabulary.java:92-93)


def test_main_text_is_derived_only_on_access(monkeypatch):
    """The quads kernel never pays for the main-text pass: with the
    text regex made to fail, extraction still runs without a contained
    error, and ``text`` is derived (byte-identical) on first access."""
    import datetime as dt

    import pyarrow as pa

    from fcrepo3_rdf_extractor_ray.functions import textextract
    from fcrepo3_rdf_extractor_ray.stages.extract import extract_quads_kernel

    class Exploding:
        def findall(self, doc):
            raise AssertionError("main text derived")

    page = parse_page(HTML)
    monkeypatch.setattr(textextract, "_RE_BARE_P", Exploding())
    batch = pa.table({
        "url": ["https://ex.org/p/1"],
        "warc_ts": pa.array([dt.datetime(2024, 1, 1)], pa.timestamp("us")),
        "html": pa.array([HTML], pa.binary()), "lang": ["en"]})
    quads, errors = extract_quads_kernel(batch)
    assert errors == 0 and "kg:title" in quads["pred"].to_pylist()
    monkeypatch.undo()
    assert page.text == "first para\nsecond <para>"
    assert page.text is page.text  # computed once
