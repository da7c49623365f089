"""Boilerplate-stripped text + metadata extraction from HTML bytes.

The per-page analog of the reference's FOXML/StAX parse + Dublin-Core SAX
extraction (``ObjectProcessor.java:148-166``,
``DublinCoreContentHandler.java:47-101``): one deterministic parse per
page yields (a) the main text (byte-identical per url — the BASELINE.json
per-row invariant), (b) whitelisted metadata fields (newlines in values
preserved, exactly as the DC handler preserves embedded newlines,
DublinCoreContentHandlerTest.java:94-97), and (c) candidate fact
sentences for the OpenIE stage.

Parsing is regex-based over a constrained HTML subset — deliberately
simple and bit-stable (the reference pins Woodstox for the same
determinism reason, ObjectProcessor.java:117-129). Malformed HTML raises
``PageParseError``; callers contain it per row
(``ObjectProcessor.java:172-176`` error-containment semantics).
"""

from __future__ import annotations

import html as _html
import re
from dataclasses import dataclass, field
from functools import cached_property

_RE_DROP = re.compile(
    r"<(script|style|nav|header|footer|aside)\b[^>]*>.*?</\1>", re.S | re.I
)
_RE_TITLE = re.compile(r"<title>(.*?)</title>", re.S)
_RE_META = re.compile(r'<meta\s+name="([^"]*)"\s+content="([^"]*)"\s*/?>', re.S)
_RE_BARE_P = re.compile(r"<p>(.*?)</p>", re.S)  # only attribute-free <p>
_RE_CLASSED_P = re.compile(r'<p class="([^"]*)">(.*?)</p>', re.S)
_RE_BR = re.compile(r"<br\s*/?>", re.I)
_RE_TAG = re.compile(r"<[^>]+>")


class PageParseError(ValueError):
    """Raised for malformed page bytes; contained per row by callers."""


@dataclass
class ParsedPage:
    title: str | None = None
    metas: list[tuple[str, str]] = field(default_factory=list)  # (name, content)
    fact_sentences: list[str] = field(default_factory=list)
    doc: str = field(default="", repr=False)  # boilerplate blocks dropped

    @cached_property
    def text(self) -> str:
        """Boilerplate-stripped main text, derived from ``doc`` on first
        access: the concatenation of attribute-free <p> blocks, <br>
        folded to newlines, residual inline tags stripped, entities
        unescaped, blocks newline-joined. Classed <p> (fact/boilerplate)
        excluded. A quads-only caller never pays for it."""
        paras = []
        for p in _RE_BARE_P.findall(self.doc):
            p = _RE_BR.sub("\n", p)
            p = _RE_TAG.sub("", p)
            paras.append(_html.unescape(p))
        return "\n".join(paras)


def parse_page(html_bytes: bytes) -> ParsedPage:
    """Parse one page. Raises PageParseError on malformed input."""
    try:
        doc = html_bytes.decode("utf-8")
    except UnicodeDecodeError as e:
        raise PageParseError(f"undecodable bytes: {e}") from e
    if "</html>" not in doc:
        raise PageParseError("truncated document (no </html>)")

    doc = _RE_DROP.sub("", doc)

    page = ParsedPage(doc=doc)
    m = _RE_TITLE.search(doc)
    if m:
        page.title = _html.unescape(m.group(1))
    for name, content in _RE_META.findall(doc):
        page.metas.append((name, _html.unescape(content)))
    for cls, body in _RE_CLASSED_P.findall(doc):
        if cls == "fact":
            page.fact_sentences.append(_html.unescape(body))
    return page


# --- lenient mode -----------------------------------------------------
# Real-crawl HTML robustness (the round-4 VERDICT's "trafilatura-class"
# forward-looking gap): a best-effort parser that NEVER raises — any
# byte sequence yields a ParsedPage. The strict `parse_page` above stays
# the oracle/byte-identical contract surface; this is the mode a real
# Common-Crawl ingest runs with. Deterministic (pure regex, no
# heuristics that depend on environment), handles: arbitrary attribute
# order/quoting in <meta>, uppercase/unclosed tags, missing </html>,
# HTML comments, CDATA, non-UTF-8 bytes (errors="replace").

_RE_COMMENT = re.compile(r"<!--.*?-->", re.S)
_RE_CDATA = re.compile(r"<!\[CDATA\[.*?\]\]>", re.S)
_RE_DROP_L = re.compile(
    r"<(script|style|nav|header|footer|aside|noscript|template|svg)\b"
    r"[^>]*>.*?</\1\s*>", re.S | re.I)
_RE_TITLE_L = re.compile(r"<title[^>]*>(.*?)</title\s*>", re.S | re.I)
_RE_META_TAG = re.compile(r"<meta\b([^>]*)>", re.S | re.I)
_RE_ATTR = re.compile(
    r"""([a-zA-Z-]+)\s*=\s*("([^"]*)"|'([^']*)'|([^\s"'>]+))""", re.S)
_RE_BLOCK_SPLIT = re.compile(
    r"</?(?:p|div|br|li|ul|ol|h[1-6]|tr|td|th|table|section|article|"
    r"blockquote|pre)\b[^>]*/?>", re.I)
_RE_WS = re.compile(r"[ \t\r\f\v]+")


def parse_page_lenient(html_bytes: bytes) -> ParsedPage:
    """Best-effort parse of arbitrary (possibly broken) HTML bytes.
    Never raises; returns an empty ParsedPage at worst. Main text =
    block-level-split, tag-stripped, entity-unescaped, whitespace-
    collapsed non-empty lines (boilerplate containers dropped)."""
    doc = html_bytes.decode("utf-8", errors="replace")
    doc = _RE_COMMENT.sub("", doc)
    doc = _RE_CDATA.sub("", doc)
    doc = _RE_DROP_L.sub("", doc)

    page = ParsedPage()
    m = _RE_TITLE_L.search(doc)
    if m:
        page.title = _html.unescape(_RE_TAG.sub("", m.group(1))).strip()
    for attrs in _RE_META_TAG.findall(doc):
        kv = {}
        for k, _q, v1, v2, v3 in _RE_ATTR.findall(attrs):
            kv[k.lower()] = v1 or v2 or v3 or ""
        name = kv.get("name") or kv.get("property")
        if name and "content" in kv:
            page.metas.append((name, _html.unescape(kv["content"])))
    # body text: split on block-level boundaries, strip residual tags
    body = doc
    bm = re.search(r"<body\b[^>]*>", doc, re.I)
    if bm:
        body = doc[bm.end():]
        be = re.search(r"</body\s*>", body, re.I)
        if be:
            body = body[:be.start()]
    lines = []
    for chunk in _RE_BLOCK_SPLIT.split(body):
        txt = _html.unescape(_RE_TAG.sub("", chunk))
        txt = _RE_WS.sub(" ", txt).strip()
        if txt:
            lines.append(txt)
    page.text = "\n".join(lines)
    for cls, body_p in _RE_CLASSED_P.findall(doc):
        if cls == "fact":
            page.fact_sentences.append(_html.unescape(body_p))
    return page
