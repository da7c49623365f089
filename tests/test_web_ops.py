"""Unit properties of the round-4 web operators: anchor extraction,
the host link graph, and the crawl snapshot diff."""

import pyarrow as pa
import ray.data as rd


def test_extract_links_order_and_empty_pages(ray_session):
    from fcrepo3_rdf_extractor_ray.stages.web import extract_links

    t = pa.table({
        "doc_id": [1, 2, 3],
        "html": [
            '<html><a class="a" href="https://a.org/1">x</a>'
            '<p>mid</p><a href="https://b.org/2">y</a></html>',
            "<html><p>no links at all</p></html>",
            '<a rel="next" href="/relative">r</a>',
        ],
    })
    rows = sorted(
        extract_links(rd.from_arrow(t)).take_all(),
        key=lambda r: (r["doc_id"], r["link_no"]))
    assert [(r["doc_id"], r["link_no"], r["href"]) for r in rows] == [
        (1, 0, "https://a.org/1"),
        (1, 1, "https://b.org/2"),
        (3, 0, "/relative"),
    ]


def test_anchor_host_graph_counts_and_drops_relative(ray_session):
    from fcrepo3_rdf_extractor_ray.stages.web import anchor_host_graph

    t = pa.table({
        "doc_id": [1, 2],
        "url": ["https://src1.org/p/1", "https://src2.org/p/2"],
        "html": [
            # two links to the same host (one messy) + one relative
            '<a class="x" href="HTTPS://DST.ORG/a#f">1</a>'
            '<a class="x" href="https://dst.org/a">2</a>'
            '<a class="x" href="/nav">3</a>',
            '<a class="x" href="https://dst.org:443/b/">4</a>',
        ],
    })
    got = {(r["src_host"], r["dst_host"]): r["n_links"]
           for r in anchor_host_graph(rd.from_arrow(t)).take_all()}
    assert got == {("src1.org", "dst.org"): 2, ("src2.org", "dst.org"): 1}


def test_redirect_resolve_chains_and_loops(ray_session):
    from fcrepo3_rdf_extractor_ray.stages.web import redirect_resolve

    reds = rd.from_arrow(pa.table({
        "url": ["a", "b", "c",          # chain a->b->c->T
                "x", "y",               # 2-cycle
                "p", "q", "r",          # 3-cycle
                "s"],                   # self-redirect
        "target": ["b", "c", "T",
                   "y", "x",
                   "q", "r", "p",
                   "s"],
    }))
    want = {
        "a": ("T", "ok"), "b": ("T", "ok"), "c": ("T", "ok"),
        "x": ("x", "loop"), "y": ("y", "loop"),
        "p": ("p", "loop"), "q": ("q", "loop"), "r": ("r", "loop"),
        "s": ("s", "loop"),
    }
    got = {r_["url"]: (r_["final_url"], r_["status"])
           for r_ in redirect_resolve(reds).take_all()}
    assert got == want


def test_redirect_resolve_distributed_doubling(ray_session, monkeypatch):
    """Force the pointer-doubling path (short-circuit off): chains
    into a loop and odd cycles must classify identically."""
    from fcrepo3_rdf_extractor_ray import runtime
    from fcrepo3_rdf_extractor_ray.stages.web import redirect_resolve

    monkeypatch.setattr(runtime, "cluster_cpus", lambda: 4)
    reds = rd.from_arrow(pa.table({
        "url": ["a", "b", "c", "f", "p", "q", "r"],
        "target": ["b", "c", "T", "p", "q", "r", "p"],
    }))
    got = {r_["url"]: (r_["final_url"], r_["status"])
           for r_ in redirect_resolve(reds, small_map_rows=0,
                                      max_doublings=4).take_all()}
    assert got == {
        "a": ("T", "ok"), "b": ("T", "ok"), "c": ("T", "ok"),
        "f": ("f", "loop"),            # chain feeding a loop
        "p": ("p", "loop"), "q": ("q", "loop"), "r": ("r", "loop"),
    }


def test_crawl_diff_all_four_statuses(ray_session):
    from fcrepo3_rdf_extractor_ray.stages.web import crawl_diff

    old = rd.from_arrow(pa.table({
        "url": ["u1", "u2", "u3"],
        "content_hash": ["h1", "h2", "h3"],
    }))
    new = rd.from_arrow(pa.table({
        "url": ["u2", "u3", "u4"],
        "content_hash": ["h2", "hX", "h4"],
    }))
    got = {r["url"]: r["status"] for r in crawl_diff(old, new).take_all()}
    assert got == {"u1": "removed", "u2": "unchanged",
                   "u3": "changed", "u4": "added"}


def test_anchor_text_agg_tiebreak_and_counts(ray_session):
    """Dominant anchor text per canonical target: counts aggregate
    across pages/variants, ties break to the lexicographically
    smallest text, unparseable hrefs drop."""
    import pyarrow as pa
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import anchor_text_agg

    t = "https://ex1.org/p/7"
    html = [
        f'<p><a href="{t}">beta</a><a href="{t}#frag">alpha</a>'
        f'<a href="/rel">Home</a></p>',
        f'<a class="z" href="HTTPS://EX1.ORG/p/7">alpha</a>'
        f'<a href="https://ex2.org/q">only</a>',
    ]
    pages = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "html": pa.array(html, pa.string())}))
    got = {r["url"]: r for r in anchor_text_agg(pages).take_all()}
    assert set(got) == {t, "https://ex2.org/q"}
    r = got[t]
    assert r["n_refs"] == 3 and r["n_texts"] == 2
    # alpha and beta both... alpha has 2 refs -> top by count
    assert r["top_text"] == "alpha" and r["top_text_n"] == 2
    assert got["https://ex2.org/q"]["top_text"] == "only"


def test_anchor_text_agg_tie_lexicographic(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import anchor_text_agg

    t = "https://ex3.org/x"
    html = [f'<a href="{t}">zz</a><a href="{t}">aa</a>']
    pages = rd.from_arrow(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "html": pa.array(html, pa.string())}))
    r = anchor_text_agg(pages).take_all()[0]
    assert (r["top_text"], r["top_text_n"], r["n_refs"]) == ("aa", 1, 2)


def test_link_reciprocity_mixed_and_self_loops(ray_session):
    from fcrepo3_rdf_extractor_ray.stages.web import link_reciprocity

    edges = rd.from_arrow(pa.table({
        # a<->b reciprocal; a->c one-way; c->d one-way; d->a one-way;
        # b->b self-loop ignored; duplicate a->b rows collapse
        "src_host": ["a", "b", "a", "c", "d", "b", "a"],
        "dst_host": ["b", "a", "c", "d", "a", "b", "b"],
        "n_links": [5, 1, 2, 9, 1, 7, 3],
    }))
    got = {r["host"]: (r["n_out_hosts"], r["n_reciprocal"],
                       r["recip_micro"])
           for r in link_reciprocity(edges).take_all()}
    assert got == {
        "a": (2, 1, 500000),   # out: b (recip), c
        "b": (1, 1, 1000000),  # out: a (recip); self-loop dropped
        "c": (1, 0, 0),        # out: d, no edge back
        "d": (1, 0, 0),        # out: a, a does not link d
    }


def test_dup_cluster_profile_mixed_sizes(ray_session):
    from fcrepo3_rdf_extractor_ray.stages.web import dup_cluster_profile

    ds = rd.from_arrow(pa.table({
        "doc_id": list(range(1, 8)),
        "url": [
            "https://a.org/x",            # cluster of 3 (messy variants)
            "https://A.org/x#frag",
            "https://a.org:443/x/",
            "https://b.org/y",            # pair
            "https://b.org/y?utm_s=1",
            "https://c.org/z",            # singleton
            "not a url at all",           # unparseable -> raw singleton
        ]}))
    got = {r["cluster_size"]: (r["n_clusters"], r["n_docs"])
           for r in dup_cluster_profile(ds).take_all()}
    assert got == {1: (2, 2), 2: (1, 2), 3: (1, 3)}
