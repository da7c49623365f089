"""Per-page extraction stages (the map core, SURVEY.md §2.2).

``extract_quads_kernel`` is the fused single-pass analog of the
reference's ``ObjectProcessor.accept`` (ObjectProcessor.java:142-177):
one HTML parse per page emits constant page quads (M2), metadata quads
(M4), and raw fact quads (M5) together, with per-row error containment
(P4, ObjectProcessor.java:172-176) — a data error never fails the task,
it is counted and the page still contributes its constant quads.

The engine runs the kernel in two task-form wrappers: ``extract_quads_batch``
(``run_kg``) and the resumable run's checkpoint waves (which record the
error count as lineage). ``ExtractQuadsStage`` is its actor form, a
callable class for ``map_batches(..., concurrency=N)`` that keeps a
per-actor error counter (the W1 pattern — one long-lived
ObjectProcessor per worker, ObjectProcessor.java:96-139); only the
benchmark's traced twin still drives it.

The unfused building blocks (``extract_text_batch``, ``page_quads_batch``)
exist for composition and unit testing; every quad path uses the fused
kernel, so the expensive parse happens exactly once per page.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.normalize import norm_surface
from ..functions.textextract import PageParseError, ParsedPage, parse_page
from ..schema import (
    GRAPH_IRI,
    ISO_FMT,
    KG_ACTIVE,
    KG_DOMAIN,
    KG_FETCHED_AT,
    KG_LANG,
    KG_STATE,
    KG_TITLE,
    KG_WEBPAGE,
    META_WHITELIST,
    RDF_TYPE,
    VERB_PRED,
    XSD_DATETIME,
    quads_table,
    robots_state,
)

SURF_PREFIX = "surf:"  # marks an unresolved entity (normalized surface form)


# ---------------------------------------------------------------------------
# Vectorized constant-quad projection (M2 analog: pure column ops, no loop)

def page_quads_batch(batch: pa.Table) -> pa.Table:
    """4 constant quads per page from (url, warc_ts, lang) columns only —
    emitted even for malformed pages, like the reference's constant object
    triples (ObjectProcessor.java:235-246)."""
    n = batch.num_rows
    url = batch["url"]
    # cast to second resolution first: Arrow's %S emits fractional digits,
    # and the contract is ISO_INSTANT with no sub-second zeros (isoDate,
    # ObjectProcessor.java:272-274)
    iso = pc.strftime(pc.cast(batch["warc_ts"], pa.timestamp("s")), format=ISO_FMT)
    domain = pc.replace_substring_regex(url, pattern=r"^(https://[^/]+/).*$", replacement=r"\1")
    empty = pa.nulls(n, pa.string()).fill_null("")

    def const(s):
        return pa.array([s] * n, pa.string())

    parts = [
        quads_table(const(GRAPH_IRI), url, const(RDF_TYPE), const(KG_WEBPAGE),
                    pa.array([False] * n), empty, url),
        quads_table(const(GRAPH_IRI), url, const(KG_FETCHED_AT), iso,
                    pa.array([True] * n), const(XSD_DATETIME), url),
        quads_table(const(GRAPH_IRI), url, const(KG_LANG), batch["lang"],
                    pa.array([True] * n), empty, url),
        quads_table(const(GRAPH_IRI), url, const(KG_DOMAIN), domain,
                    pa.array([False] * n), empty, url),
    ]
    return pa.concat_tables(parts)


# ---------------------------------------------------------------------------
# Row-wise parsed extractions (the kernel's per-page steps)

def meta_quad_rows(url: str, page: ParsedPage) -> list[tuple]:
    """(graph, subj, pred, obj, is_lit, dt, src) rows for title/meta/state.
    Non-whitelisted meta names are dropped (F3 analog); newline-bearing
    values preserved verbatim (DublinCoreContentHandlerTest.java:94-97)."""
    rows = []
    if page.title is not None:
        rows.append((GRAPH_IRI, url, KG_TITLE, page.title, True, "", url))
    state = KG_ACTIVE
    for name, content in page.metas:
        if name == "robots":
            state = robots_state(content)
        elif name in META_WHITELIST:
            rows.append((GRAPH_IRI, url, META_WHITELIST[name], content, True, "", url))
    rows.append((GRAPH_IRI, url, KG_STATE, state, False, "", url))
    return rows


_FACT_RE = None


def _fact_regex():
    global _FACT_RE
    if _FACT_RE is None:
        import re

        verbs = "|".join(sorted(VERB_PRED, key=len, reverse=True))
        _FACT_RE = re.compile(rf"^(.+?) ({verbs}) (.+?)\.$")
    return _FACT_RE


def fact_rows_for_page(url: str, page: ParsedPage) -> list[tuple]:
    """OpenIE-style (src_url, subj_surface, verb, obj_surface) rows from the
    page's candidate fact sentences (M5 analog — arbitrary body triples)."""
    rx = _fact_regex()
    out = []
    for sent in page.fact_sentences:
        m = rx.match(sent)
        if m:
            out.append((url, m.group(1), m.group(2), m.group(3)))
    return out


def fact_quad_rows(fact_rows: list[tuple]) -> list[tuple]:
    """Raw fact quads: entities carried as ``surf:<normalized>`` until the
    canonicalization shuffle resolves them."""
    rows = []
    for url, s, verb, o in fact_rows:
        rows.append(
            (GRAPH_IRI, SURF_PREFIX + norm_surface(s), VERB_PRED[verb],
             SURF_PREFIX + norm_surface(o), False, "", url)
        )
    return rows


def _rows_to_quads(rows: list[tuple]) -> pa.Table:
    if not rows:
        from ..schema import empty_quads_table

        return empty_quads_table()
    cols = list(zip(*rows))
    return quads_table(*cols)


# ---------------------------------------------------------------------------
# Fused stage

def extract_quads_kernel(batch: pa.Table, skip_empty_literals: bool = True
                         ) -> tuple[pa.Table, int]:
    """The fused extraction of one pages batch: (quads, contained error
    count). The one copy of the per-page containment loop, shared by
    ``extract_quads_batch``, ``ExtractQuadsStage`` and the resumable
    run's checkpoint waves."""
    const_quads = page_quads_batch(batch)
    rows: list[tuple] = []
    errors = 0
    for url, html in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
        try:
            # Whole per-page derivation is inside the containment boundary:
            # a malformed page (parse failure, unexpected enum value in
            # robots/meta, bad date) must never fail the task — mirrors the
            # reference's per-object catch-all (ObjectProcessor.java:172-176).
            page = parse_page(html)
            page_rows = list(meta_quad_rows(url, page))
            page_rows.extend(fact_quad_rows(fact_rows_for_page(url, page)))
        except Exception:
            errors += 1  # contained: constant quads already emitted
            continue
        rows.extend(page_rows)
    out = pa.concat_tables([const_quads, _rows_to_quads(rows)])
    if skip_empty_literals:
        from .filters import skip_empty_literals_table

        out = skip_empty_literals_table(out)
    return out, errors


def extract_quads_batch(batch: pa.Table,
                        skip_empty_literals: bool = True) -> pa.Table:
    """Stateless fused extraction (task form): the only per-worker state
    is module-level compiled regexes, so the default pipeline runs this
    as ordinary tasks on the long-lived warm workers — no actor-pool
    spawn/ramp cost per run."""
    return extract_quads_kernel(batch, skip_empty_literals)[0]


class ExtractQuadsStage:
    """pages batch → quads batch (constant + meta + raw-fact), one parse
    per page, errors contained per row and counted in ``errors``. The
    actor form of ``extract_quads_batch``; use via::

        ds.map_batches(ExtractQuadsStage, batch_format="pyarrow",
                       concurrency=N, batch_size=B)
    """

    def __init__(self, skip_empty_literals: bool = True,
                 collector=None, shard_label: str = "-"):
        self.skip_empty_literals = skip_empty_literals
        self.errors = 0  # per-actor data-error counter (W3 analog)
        # collector/shard_label: benchmark-twin only, see the block at the
        # end of state/lineage.py
        self._collector, self.shard_label = collector, shard_label
        _fact_regex()  # compile once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        import time

        t0 = time.perf_counter()
        out, errors = extract_quads_kernel(batch, self.skip_empty_literals)
        self.errors += errors
        if self._collector is not None:
            from ..state.lineage import report_batch

            report_batch(self._collector, self.shard_label, batch.num_rows,
                         out.num_rows, errors, t0)
        return out


def extract_text_batch(batch: pa.Table, lenient: bool = False) -> pa.Table:
    """pages batch → (url, text) with the boilerplate-stripped main text —
    the byte-identical-per-url invariant surface (BASELINE.json
    input_hint). Task form: the parse has no per-worker state beyond
    module-level compiled regexes. Malformed pages are dropped (errors
    contained per row).

    ``lenient=True`` swaps in ``parse_page_lenient`` (best-effort
    real-crawl HTML: arbitrary attribute order, unclosed/uppercase
    tags, broken bytes — never raises, every row yields text). The
    strict default remains the byte-identical oracle contract."""
    from ..functions.textextract import parse_page_lenient

    parse = parse_page_lenient if lenient else parse_page
    urls, texts = [], []
    for url, html in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
        try:
            page = parse(html)
        except PageParseError:
            continue
        urls.append(url)
        texts.append(page.text)
    return pa.table({"url": pa.array(urls, pa.string()),
                     "text": pa.array(texts, pa.string())})
