"""Frozen multi-page golden conformance test — the
``SidoraExamplesIT.java:70-107`` analog: a checked-in input corpus
(``golden/pages_fixture.parquet``) and a checked-in expected N-Quads
answer file (``golden/expected_multi.nq``), compared by set-diff in BOTH
directions. Unlike the DuckDB oracles (which mirror the same synthesis
spec and would pass a shared spec bug silently), these files are frozen
artifacts: any drift in parser, extraction, canonicalization, dedup or
N-Quads serialization shows up as a named missing/extra line.

The 10 fixture pages cover the spec's edge cases: doc 0 malformed html
(containment → constant quads only), 11 empty description, 13/26
newline-in-literal keywords, 17/34 unlinked→skolem objects, 19 robots
tombstone (kg:Inactive), and the 7/48 alias-variant pair ('Entity 7' /
'Entity7') that must merge to one canonical entity."""

import os

import pytest

GOLD = os.path.join(os.path.dirname(__file__), "golden")


def _engine_lines(tmp_path) -> set[str]:
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import materialize_sorted
    from fcrepo3_rdf_extractor_ray.sources.pages import build_alias_table
    from fcrepo3_rdf_extractor_ray.stages.canonicalize import resolve_quads
    from fcrepo3_rdf_extractor_ray.stages.dedup import dedup_quads
    from fcrepo3_rdf_extractor_ray.stages.extract import extract_quads_batch

    pages = rd.read_parquet(
        os.path.join(GOLD, "pages_fixture.parquet")).repartition(3)
    raw = pages.map_batches(
        extract_quads_batch, batch_format="pyarrow").materialize()
    quads = dedup_quads(resolve_quads(raw, build_alias_table()))
    out = str(tmp_path / "golden_out")
    materialize_sorted(quads, out, write_nquads=True,
                       partition_by_subject_hash=False)
    lines: set[str] = set()
    nq_dir = os.path.join(out, "nquads")
    for f in sorted(os.listdir(nq_dir)):
        if f.endswith(".nq"):
            with open(os.path.join(nq_dir, f)) as fh:
                lines.update(l for l in fh.read().splitlines() if l)
    return lines


def test_frozen_corpus_set_diff_both_directions(tmp_path):
    got = _engine_lines(tmp_path)
    with open(os.path.join(GOLD, "expected_multi.nq")) as fh:
        want = {l for l in fh.read().splitlines() if l}
    missing = want - got
    extra = got - want
    assert not missing and not extra, (
        f"missing ({len(missing)}): {sorted(missing)[:5]}\n"
        f"extra ({len(extra)}): {sorted(extra)[:5]}")


def test_frozen_corpus_edge_cases_present():
    """Sanity on the fixture itself (guards against regenerating it from
    a broken engine): the hand-verified edge-case lines must be there."""
    with open(os.path.join(GOLD, "expected_multi.nq")) as fh:
        want = fh.read()
    # malformed doc 0 → constant quads only, no title/state
    assert "<https://ex0.org/p/0> <rdf:type> <kg:WebPage> <kg:web> ." in want
    assert "<https://ex0.org/p/0> <kg:title>" not in want
    # robots tombstone
    assert ("<https://ex19.org/p/19> <kg:state> <kg:Inactive> <kg:web> ."
            in want)
    # newline-in-literal escaping
    assert '"kw3,\\nalpha"' in want
    # alias-variant merge: docs 7 and 48 both canonicalize to ent:e7
    assert "<ent:e7> <kg:acquired> <ent:e11> <kg:web> ." in want
    assert "<ent:e7> <kg:worksWith> <ent:e11> <kg:web> ." in want
    # unlinked surface → skolem
    assert "<ent:sk:widget17>" in want
    # empty description dropped (doc 11), description present for doc 1
    assert "<https://ex11.org/p/11> <kg:description>" not in want
    assert ('<https://ex1.org/p/1> <kg:description> "About plain" <kg:web> .'
            in want)


def test_frozen_graph_operators(ray_session):
    """Graph operators vs the frozen, INDEPENDENTLY computed expectation
    (pure-Python union-find / brute-force triangles / set-intersection
    jaccard over the fixture's mention rows, checked in as
    ``golden/expected_graph.json``) — guards engine+oracle co-drift the
    same way the N-Quads golden file does for extraction."""
    import json

    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import (
        connected_components, neighborhood_jaccard, triangle_count)
    from fcrepo3_rdf_extractor_ray.stages.ner import (detect_mentions,
                                                      mention_cooccurrence)

    with open(os.path.join(GOLD, "expected_graph.json")) as fh:
        want = json.load(fh)

    pages = rd.read_parquet(
        os.path.join(GOLD, "pages_fixture.parquet")).repartition(3)
    co = mention_cooccurrence(detect_mentions(pages)).materialize()

    got_edges = sorted([r["norm_a"], r["norm_b"], r["n_pages"]]
                       for r in co.take_all())
    assert got_edges == sorted(want["edges"])

    comp = {r["node"]: r["component"]
            for r in connected_components(co).take_all()}
    assert comp == want["components"]

    tri = triangle_count(co)
    assert tri["n_triangles"].tolist() == [want["n_triangles"]]

    lj = {f'{r["norm_a"]}|{r["norm_b"]}': [r["common_neighbors"],
                                           r["jaccard_micro"]]
          for r in neighborhood_jaccard(co).take_all()}
    assert lj == want["link_jaccard"]


def _reference_kernel(batch):
    """The per-page row path the column-list kernel replaced: every meta
    and fact quad as a 7-tuple, a page's rows kept only if its whole
    derivation succeeds, then ``zip(*rows)`` into one table."""
    from fcrepo3_rdf_extractor_ray.functions.normalize import norm_surface
    from fcrepo3_rdf_extractor_ray.functions.textextract import parse_page
    from fcrepo3_rdf_extractor_ray.schema import (
        GRAPH_IRI, KG_ACTIVE, KG_STATE, KG_TITLE, META_WHITELIST, VERB_PRED,
        quads_table, robots_state)
    from fcrepo3_rdf_extractor_ray.stages.extract import (_fact_regex,
                                                          page_quads_batch)
    from fcrepo3_rdf_extractor_ray.stages.filters import (
        skip_empty_literals_table)
    import pyarrow as pa

    rows, errors = [], 0
    for url, html in zip(batch["url"].to_pylist(),
                         batch["html"].to_pylist()):
        try:
            page = parse_page(html)
            page_rows = []
            if page.title is not None:
                page_rows.append((GRAPH_IRI, url, KG_TITLE, page.title,
                                  True, "", url))
            state = KG_ACTIVE
            for name, content in page.metas:
                if name == "robots":
                    state = robots_state(content)
                elif name in META_WHITELIST:
                    page_rows.append((GRAPH_IRI, url, META_WHITELIST[name],
                                      content, True, "", url))
            page_rows.append((GRAPH_IRI, url, KG_STATE, state, False, "",
                              url))
            for sent in page.fact_sentences:
                m = _fact_regex().match(sent)
                if m:
                    page_rows.append((
                        GRAPH_IRI, "surf:" + norm_surface(m.group(1)),
                        VERB_PRED[m.group(2)],
                        "surf:" + norm_surface(m.group(3)), False, "", url))
        except Exception:
            errors += 1
            continue
        rows.extend(page_rows)
    out = pa.concat_tables([page_quads_batch(batch),
                            quads_table(*zip(*rows))])
    return skip_empty_literals_table(out), errors


def test_kernel_matches_reference_row_path():
    """``extract_quads_kernel`` (column lists, no main-text pass) gives
    the reference row path's quads and contained-error count on the
    frozen fixture plus a page whose unmapped robots value fails after
    its title quad was appended."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from fcrepo3_rdf_extractor_ray.sources.pages import _page_html
    from fcrepo3_rdf_extractor_ray.stages.extract import extract_quads_kernel

    fixture = pq.read_table(os.path.join(GOLD, "pages_fixture.parquet"))
    bad = _page_html(19, "bad robots page").replace(
        b'content="noindex"', b'content="noindex, nofollow"')
    extra = pa.table({
        "url": ["https://ex.org/p/19"],
        "warc_ts": pa.array([dt.datetime(2024, 1, 1)], pa.timestamp("us")),
        "html": pa.array([bad], pa.binary()), "lang": ["en"]})
    batch = pa.concat_tables([fixture.select(extra.schema.names), extra])
    got, got_errors = extract_quads_kernel(batch)
    want, want_errors = _reference_kernel(batch)
    assert got.schema == want.schema
    assert got_errors == want_errors == 2  # malformed doc 0, bad robots
    key = lambda t: sorted(tuple(r.values()) for r in t.to_pylist())
    assert key(got) == key(want)
    # the failed page keeps only its four constant quads
    assert got.filter(pc.equal(got["src_url"], "https://ex.org/p/19")
                      ).num_rows == 4
