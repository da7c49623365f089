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
kernel, so the expensive parse happens exactly once per page. The kernel
never derives a page's main text (``ParsedPage.text`` is computed on
first access, and only ``extract_text_batch`` asks for it).
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
    # plain arrays, not a Table's chunked columns: quads_table's pa.array
    # takes an Array as is but converts a ChunkedArray value by value
    url = batch["url"].combine_chunks()
    # cast to second resolution first: Arrow's %S emits fractional digits,
    # and the contract is ISO_INSTANT with no sub-second zeros (isoDate,
    # ObjectProcessor.java:272-274)
    iso = pc.strftime(pc.cast(batch["warc_ts"].combine_chunks(),
                              pa.timestamp("s")), format=ISO_FMT)
    domain = pc.replace_substring_regex(url, pattern=r"^(https://[^/]+/).*$", replacement=r"\1")
    empty = pa.nulls(n, pa.string()).fill_null("")

    def const(s):
        return pa.array([s] * n, pa.string())

    parts = [
        quads_table(const(GRAPH_IRI), url, const(RDF_TYPE), const(KG_WEBPAGE),
                    pa.array([False] * n), empty, url),
        quads_table(const(GRAPH_IRI), url, const(KG_FETCHED_AT), iso,
                    pa.array([True] * n), const(XSD_DATETIME), url),
        quads_table(const(GRAPH_IRI), url, const(KG_LANG),
                    batch["lang"].combine_chunks(),
                    pa.array([True] * n), empty, url),
        quads_table(const(GRAPH_IRI), url, const(KG_DOMAIN), domain,
                    pa.array([False] * n), empty, url),
    ]
    return pa.concat_tables(parts)


# ---------------------------------------------------------------------------
# Per-page quads, appended to column lists (graph and obj_datatype are
# the constants GRAPH_IRI and "" for every meta and fact quad)

_FACT_RE = None


def _fact_regex():
    global _FACT_RE
    if _FACT_RE is None:
        import re

        verbs = "|".join(sorted(VERB_PRED, key=len, reverse=True))
        _FACT_RE = re.compile(rf"^(.+?) ({verbs}) (.+?)\.$")
    return _FACT_RE


# surface → norm_surface(surface) on this worker; cleared past the cap,
# the cap-and-clear rule of dedup._worker_memo
_NORM_MEMO: dict[str, str] = {}


def _norm_memo(cap: int = 1_000_000) -> dict:
    if len(_NORM_MEMO) > cap:
        _NORM_MEMO.clear()
    return _NORM_MEMO


def append_page_quads(cols: tuple[list, list, list, list, list], url: str,
                      page: ParsedPage, facts: bool = True) -> None:
    """Append one parsed page's quads to ``cols`` = (subj, pred, obj,
    obj_is_literal, src_url) lists: title, whitelisted metas and the
    robots state (M4 analog; non-whitelisted names dropped, F3;
    newline-bearing values kept verbatim,
    DublinCoreContentHandlerTest.java:94-97), then with ``facts`` the
    OpenIE-style raw fact quads (M5 analog), entities carried as
    ``surf:<normalized>`` until ``resolve_quads`` links them.

    A page contributes all its quads or none: on an error (e.g. an
    unmapped robots value) the lists are cut back before it re-raises."""
    subj, pred, obj, lit, src = cols
    n0 = len(subj)
    try:
        if page.title is not None:
            pred.append(KG_TITLE)
            obj.append(page.title)
            lit.append(True)
        state = KG_ACTIVE
        for name, content in page.metas:
            if name == "robots":
                state = robots_state(content)
            elif name in META_WHITELIST:
                pred.append(META_WHITELIST[name])
                obj.append(content)
                lit.append(True)
        pred.append(KG_STATE)
        obj.append(state)
        lit.append(False)
        subj.extend([url] * (len(pred) - n0))
        if facts:
            rx, memo = _fact_regex(), _norm_memo()
            for sent in page.fact_sentences:
                m = rx.match(sent)
                if m:
                    for surface, col in ((m.group(1), subj),
                                         (m.group(3), obj)):
                        norm = memo.get(surface)
                        if norm is None:
                            norm = memo[surface] = norm_surface(surface)
                        col.append(SURF_PREFIX + norm)
                    pred.append(VERB_PRED[m.group(2)])
                    lit.append(False)
        src.extend([url] * (len(pred) - n0))
    except Exception:
        for col in cols:
            del col[n0:]
        raise


def quads_from_columns(cols: tuple[list, list, list, list, list]
                       ) -> pa.Table:
    """The quads table of ``append_page_quads``' column lists."""
    subj, pred, obj, lit, src = cols
    n = len(subj)
    return quads_table([GRAPH_IRI] * n, subj, pred, obj, lit, [""] * n, src)


# ---------------------------------------------------------------------------
# Fused stage

def extract_quads_kernel(batch: pa.Table, skip_empty_literals: bool = True
                         ) -> tuple[pa.Table, int]:
    """The fused extraction of one pages batch: (quads, contained error
    count). The one copy of the per-page containment loop, shared by
    ``extract_quads_batch``, ``ExtractQuadsStage`` and the resumable
    run's checkpoint waves. It reads no main text (``ParsedPage.text``
    is derived only on access)."""
    const_quads = page_quads_batch(batch)
    cols: tuple[list, list, list, list, list] = ([], [], [], [], [])
    errors = 0
    for url, html in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
        try:
            # Whole per-page derivation is inside the containment boundary:
            # a malformed page (parse failure, unexpected enum value in
            # robots/meta, bad date) must never fail the task — mirrors the
            # reference's per-object catch-all (ObjectProcessor.java:172-176).
            append_page_quads(cols, url, parse_page(html))
        except Exception:
            errors += 1  # contained: constant quads already emitted
    out = pa.concat_tables([const_quads, quads_from_columns(cols)])
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
