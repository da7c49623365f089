"""Web-corpus URL operators.

URL canonicalization is the first dedup key of any crawl pipeline
(conceptual ancestor: the reference's deterministic id→path mapping,
HashPathIdMapper.java:145-160 — one canonical address per object).
Rules implemented here are the standard crawl-frontier set, chosen so
BOTH sides replay exactly: every step is RE2 + lexicographic list
sort, mirrored 1:1 in the DuckDB oracle.

Canonical form of ``scheme://host[:port]path[?query][#frag]``:

- scheme and host lowercased
- default ports stripped (``:80`` for http, ``:443`` for https)
- fragment dropped
- empty path → ``/``; trailing slashes stripped from non-root paths
- query: ``utm_*`` tracking params dropped, the rest sorted
  lexicographically (byte order); empty result drops the ``?``
- urls that do not parse as http(s) pass through unchanged (flagged)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

URL_RE = r"^(?i)(?P<scheme>https?)://(?P<host>[^/?#]+)(?P<path>[^?#]*)" \
         r"(?P<query>\?[^#]*)?(?P<frag>#.*)?$"


def canonicalize_urls(ds, url_col: str = "url", id_col: str = "doc_id",
                      batch_size: int = 8192):
    """(id, url) → (id, url_canon, parse_ok). One vectorized RE2 parse
    (``pc.extract_regex``), Arrow kernels for case/port/path, and a
    split→explode→sort→re-join pandas pass for query params (C paths,
    no per-row Python). Stateless map_batches, no shuffle."""

    def fn(t: pa.Table) -> pa.Table:
        s = pc.cast(t[url_col], pa.string())
        parts = pc.extract_regex(s, URL_RE)
        ok = pc.is_valid(parts)
        scheme = pc.utf8_lower(pc.coalesce(
            pc.struct_field(parts, "scheme"), ""))
        host = pc.utf8_lower(pc.coalesce(pc.struct_field(parts, "host"), ""))
        # strip the scheme's default port only
        host = pc.if_else(
            pc.equal(scheme, "http"),
            pc.replace_substring_regex(host, r":80$", ""),
            pc.replace_substring_regex(host, r":443$", ""))
        path = pc.coalesce(pc.struct_field(parts, "path"), "")
        path = pc.replace_substring_regex(path, r"/+$", "")
        path = pc.if_else(pc.equal(path, ""), "/", path)
        query = pc.coalesce(pc.struct_field(parts, "query"), "")

        # query params: split, drop utm_*, sort, re-join — via ONE
        # explode + sort + groupby join (no per-row Python)
        q = pd.Series(query.to_pandas()).str.lstrip("?")
        parts_df = q.str.split("&").explode().reset_index()
        parts_df.columns = ["row", "param"]
        parts_df = parts_df[(parts_df["param"].notna())
                            & (parts_df["param"] != "")
                            & ~parts_df["param"].str.startswith("utm_")]
        parts_df = parts_df.sort_values(["row", "param"])
        joined = parts_df.groupby("row")["param"].agg("&".join)
        qs = pd.Series("", index=q.index, dtype=object)
        qs.loc[joined.index] = "?" + joined
        canon = pc.binary_join_element_wise(
            scheme, pa.array(["://"] * t.num_rows), host, path,
            pa.array(qs.to_numpy(dtype=object), pa.string()), "")
        out_url = pc.if_else(ok, canon, s)  # non-http(s): pass through
        return pa.table({
            id_col: t[id_col],
            "url_canon": out_url,
            "parse_ok": ok,
        })

    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=batch_size)


def dedup_by_canonical_url(ds, url_col: str = "url", id_col: str = "doc_id",
                           n_parts: int | None = None):
    """CRAWL DEDUP: canonicalize urls, then keep the minimum-id row per
    canonical url — the address-level first stage every crawl pipeline
    runs before content-level dedup. Shape: canonicalize (stateless
    map) → per-batch min-id combiner → ONE canon-url-hash exchange →
    vectorized per-partition min. Returns (url_canon, doc_id)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    from ..functions.hashing import fast_part_hash

    canon = canonicalize_urls(ds, url_col=url_col, id_col=id_col)

    def combine(t: pa.Table) -> pa.Table:
        g = (pa.table({"url_canon": t["url_canon"], id_col: t[id_col]})
             .group_by("url_canon").aggregate([(id_col, "min")]))
        g = g.rename_columns(["url_canon", id_col])
        return g.append_column(
            "part", pa.array(fast_part_hash(g["url_canon"], n_parts)))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("url_canon", as_index=False)[id_col].min()
        out[id_col] = out[id_col].astype("int64")
        return out

    return (canon.map_batches(combine, batch_format="pyarrow")
            .groupby("part").map_groups(finish, batch_format="pandas"))


def _html_as_utf8(t: pa.Table, html_col: str) -> pa.Table:
    """Containment shim for the input_hint's ``html:binary`` column:
    cast to string for the vectorized regex paths, DROPPING rows whose
    bytes are not valid UTF-8 (per-row data-error containment, the
    ObjectProcessor.java:172-176 analog — a fuzzed/mojibake page
    contributes no anchors rather than failing the task). The happy
    path is one zero-copy-validating Arrow cast; the per-row decode
    fallback runs only when the batch actually contains bad bytes."""
    col = t[html_col]
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return t
    try:
        cast = pc.cast(col, pa.string())
    except pa.ArrowInvalid:
        vals = col.to_pylist()
        keep = np.zeros(len(vals), bool)
        dec = [None] * len(vals)
        for i, v in enumerate(vals):
            if v is None:
                continue
            try:
                dec[i] = v.decode("utf-8")
                keep[i] = True
            except UnicodeDecodeError:
                pass
        t = t.filter(pa.array(keep))
        cast = pa.array([d for d in dec if d is not None], pa.string())
    idx = t.schema.get_field_index(html_col)
    return t.set_column(idx, html_col, cast)


def extract_links(ds, html_col: str = "html", id_col: str = "doc_id",
                  batch_size: int = 4096):
    """ANCHOR EXTRACTION: (id, html) → one row per ``<a href>`` target,
    ``(id, href, link_no)``. The findall is polars ``str.extract_all``
    (vectorized Rust regex over zero-copy Arrow — pyarrow 16 has no
    extract_regex_all kernel) followed by one explode; no per-row
    Python. Pages with no anchors emit nothing. Conceptual ancestor:
    the reference walks RELS-EXT to emit one triple per outbound
    relation (ObjectProcessor.java:256-270); here the outbound
    relations of a web page are its anchors."""
    import polars as pl

    pat = r'<a\s[^>]*href="([^"]*)"'

    def fn(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(_html_as_utf8(t.select([id_col, html_col]),
                                         html_col))
        out = (df.with_columns(
                   pl.col(html_col).str.extract_all(pat).alias("m"))
               .drop(html_col)
               .explode("m")
               .drop_nulls("m")
               .with_columns(
                   pl.col("m").str.extract(pat, 1).alias("href"),
                   pl.col("m").cum_count().over(id_col).alias("link_no"))
               .drop("m")
               .with_columns(pl.col("link_no").cast(pl.Int64) - 1))
        return out.to_arrow().cast(pa.schema([
            (id_col, t.schema.field(id_col).type),
            ("href", pa.string()), ("link_no", pa.int64())]))

    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=batch_size)


def anchor_host_graph(ds, html_col: str = "html", url_col: str = "url",
                      id_col: str = "doc_id", n_parts: int | None = None):
    """HOST-LEVEL WEB LINK GRAPH: extract anchors, canonicalize the
    href targets, and aggregate to (src_host, dst_host, n_links) —
    the input every host-rank / crawl-prioritization stage consumes.

    Shape: stateless anchor explode (``extract_links``) carrying the
    page's own host along → stateless canonicalize → per-batch
    (src_host, dst_host) combiner → ONE host-pair exchange →
    vectorized sum. Unparseable hrefs are dropped (parse_ok=false)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    from ..functions.hashing import fast_part_hash

    host_re = r"^(?i)https?://(?P<h>[^/?#]+)"

    import polars as pl
    pat = r'<a\s[^>]*href="([^"]*)"'

    def explode_with_host(t: pa.Table) -> pa.Table:
        h = pc.utf8_lower(pc.coalesce(pc.struct_field(
            pc.extract_regex(pc.cast(t[url_col], pa.string()), host_re),
            "h"), ""))
        df = pl.from_arrow(_html_as_utf8(
            pa.table({id_col: t[id_col], "src_host": h,
                      html_col: t[html_col]}), html_col))
        out = (df.with_columns(
                   pl.col(html_col).str.extract_all(pat).alias("m"))
               .drop(html_col)
               .explode("m").drop_nulls("m")
               .with_columns(pl.col("m").str.extract(pat, 1).alias("href"))
               .drop("m"))
        return out.to_arrow().cast(pa.schema([
            (id_col, pa.int64()), ("src_host", pa.string()),
            ("href", pa.string())]))

    exploded = ds.map_batches(explode_with_host, batch_format="pyarrow")
    canon = canonicalize_urls(exploded.map_batches(
        lambda t: pa.table({"src_host": t["src_host"], "url": t["href"]}),
        batch_format="pyarrow"), url_col="url", id_col="src_host")

    def combine(t: pa.Table) -> pa.Table:
        t = t.filter(t["parse_ok"])
        dst = pc.struct_field(
            pc.extract_regex(t["url_canon"], r"^https?://(?P<h>[^/?#]+)"),
            "h")
        g = (pa.table({"src_host": t["src_host"], "dst_host": dst,
                       "n": pa.array(np.ones(t.num_rows, np.int64))})
             .group_by(["src_host", "dst_host"]).aggregate([("n", "sum")]))
        g = g.rename_columns(["src_host", "dst_host", "n"])
        return g.append_column(
            "part", pa.array(fast_part_hash(g["src_host"], n_parts)))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["src_host", "dst_host"], as_index=False)["n"]
             .sum())
        g["n"] = g["n"].astype("int64")
        return g.rename(columns={"n": "n_links"})

    return (canon.map_batches(combine, batch_format="pyarrow")
            .groupby("part").map_groups(finish, batch_format="pandas"))


def host_rank(pages_ds, html_col: str = "html", url_col: str = "url",
              id_col: str = "doc_id", iters: int = 5,
              n_parts: int | None = None):
    """HOST-LEVEL PAGERANK: anchor extraction → host link graph →
    integer PageRank (stages/graph.pagerank fixed-point contract) —
    the crawl-prioritization score every frontier scheduler wants.
    Returns (host, rank_micro)."""
    from .graph import pagerank

    edges = anchor_host_graph(pages_ds, html_col=html_col,
                              url_col=url_col, id_col=id_col,
                              n_parts=n_parts)

    def to_subj_obj(t: pa.Table) -> pa.Table:
        return pa.table({"subj": t["src_host"], "obj": t["dst_host"]})

    ranks = pagerank(edges.map_batches(to_subj_obj,
                                       batch_format="pyarrow"),
                     iters=iters)
    return ranks.map_batches(
        lambda t: t.rename_columns(["host", "rank_micro"]),
        batch_format="pyarrow")


def host_quality_profile(ds, url_col: str = "url", text_col: str = "text",
                         low_ttr_micro: int = 500_000,
                         n_parts: int | None = None):
    """PER-HOST QUALITY PROFILE: the domain-level aggregate of per-doc
    quality signals (type-token ratio, token counts) that drives
    crawl prioritization and domain filtering in training-data
    pipelines. All-integer: mean ttr is floor(sum // n_docs).

    Shape: one stateless map computes host + per-doc metrics together
    (no join — both derive from the same row) with a per-batch host
    combiner → ONE host exchange → vectorized final. Returns
    (host, n_docs, sum_tokens, mean_ttr_micro, n_low_ttr)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    from ..functions.hashing import fast_part_hash
    from .text_analysis import quality_frame

    host_re = r"^(?i)https?://(?P<h>[^/?#]+)"

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        q = quality_frame(df[text_col])
        host = pc.utf8_lower(pc.coalesce(pc.struct_field(
            pc.extract_regex(pa.array(df[url_col].astype(str)), host_re),
            "h"), ""))
        q["host"] = host.to_pandas()
        q["low"] = (q["ttr_micro"] < low_ttr_micro).astype("int64")
        g = q.groupby("host", as_index=False).agg(
            n_docs=("n_tokens", "size"), sum_tokens=("n_tokens", "sum"),
            sum_ttr=("ttr_micro", "sum"), n_low_ttr=("low", "sum"))
        g["part"] = fast_part_hash(pa.array(g["host"].astype(str)),
                                   n_parts)
        return g

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("host", as_index=False).agg(
            n_docs=("n_docs", "sum"), sum_tokens=("sum_tokens", "sum"),
            sum_ttr=("sum_ttr", "sum"), n_low_ttr=("n_low_ttr", "sum"))
        g["mean_ttr_micro"] = (g["sum_ttr"] // g["n_docs"]).astype("int64")
        for c in ("n_docs", "sum_tokens", "n_low_ttr"):
            g[c] = g[c].astype("int64")
        return g[["host", "n_docs", "sum_tokens", "mean_ttr_micro",
                  "n_low_ttr"]]

    return (ds.map_batches(combine, batch_format="pandas")
            .groupby("part").map_groups(finish, batch_format="pandas"))


def _resolve_local(df: pd.DataFrame) -> pd.DataFrame:
    """Exact single-task redirect resolution: memoized pointer walk
    with on-path cycle detection (any chain length, any cycle length).
    Loop sources normalize final_url to themselves."""
    f = dict(zip(df["url"], df["ptr"]))
    memo: dict = {}  # node -> (terminal, is_loop_member_or_feeds_loop)
    for u0 in f:
        if u0 in memo:
            continue
        path = []
        on_path = {}
        cur = u0
        while True:
            if cur in memo:
                res = memo[cur]
                break
            if cur not in f:           # terminal
                res = (cur, False)
                break
            if cur in on_path:         # new cycle found
                res = (None, True)
                break
            on_path[cur] = len(path)
            path.append(cur)
            cur = f[cur]
        for p in path:
            memo[p] = res
    urls = df["url"].to_numpy()
    fin = np.array([memo[u][0] if not memo[u][1] else u for u in urls],
                   dtype=object)
    status = np.where([memo[u][1] for u in urls], "loop", "ok")
    return pd.DataFrame({"url": urls, "final_url": fin,
                         "status": status})


def outlink_stats(ds, html_col: str = "html", id_col: str = "doc_id",
                  n_parts: int | None = None):
    """PER-PAGE OUTLINK PROFILE: total anchors, parseable anchors, and
    distinct target hosts — the page-level fan-out features a link-spam
    / quality classifier consumes. Shape: anchor explode → canonicalize
    → ONE doc-keyed exchange → vectorized per-doc aggregates. Returns
    (doc_id, n_links, n_ok, n_hosts)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    from ..functions.hashing import fast_part_hash

    links = extract_links(ds, html_col=html_col, id_col=id_col)
    canon = canonicalize_urls(
        links.map_batches(
            lambda t: pa.table({id_col: t[id_col], "url": t["href"]}),
            batch_format="pyarrow"),
        url_col="url", id_col=id_col)

    def tag(t: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(t["url_canon"], r"^https?://(?P<h>[^/?#]+)"),
            "h")
        out = pa.table({id_col: t[id_col], "host": host,
                        "ok": pc.cast(t["parse_ok"], pa.int64())})
        return out.append_column(
            "part", pa.array(fast_part_hash(
                pc.cast(t[id_col], pa.string()), n_parts)))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col).agg(
            n_links=("ok", "size"), n_ok=("ok", "sum"),
            n_hosts=("host", "nunique")).reset_index()
        for c in ("n_links", "n_ok", "n_hosts"):
            g[c] = g[c].astype("int64")
        return g

    return (canon.map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(finish, batch_format="pandas"))


def redirect_resolve(redirects_ds, url_col: str = "url",
                     target_col: str = "target",
                     max_doublings: int = 8,
                     small_map_rows: int = 2_000_000):
    """REDIRECT-CHAIN RESOLUTION: resolve every source url of a
    (url → target) redirect map to its terminal target; chains that
    enter a cycle are flagged ``loop`` (final_url normalized to the
    source). Returns (url, final_url, status ∈ ok/loop).

    Maps at or below ``small_map_rows`` short-circuit to one exact
    single-task memoized walk (the kcore/components small-input rule).
    The at-scale path is POINTER DOUBLING — per round ONE
    hash-exchange attach (the current pointer's pointer) + a changed
    count, so rounds ≈ log2(longest chain), capped at
    ``max_doublings`` (chains ≤ 2^max_doublings resolve exactly;
    browsers cap redirect chains at ~20 hops, so the default bound of
    256 is generous; cycle pointers never leave the domain, so the cap
    also bounds odd-cycle oscillation)."""
    from .graph import _attach_val, _distinct, _in_one_task

    def to_uv(t: pa.Table) -> pa.Table:
        return pa.table({"url": pc.cast(t[url_col], pa.string()),
                         "ptr": pc.cast(t[target_col], pa.string())})

    r = _distinct(redirects_ds.map_batches(to_uv, batch_format="pyarrow"),
                  ["url", "ptr"]).materialize()

    if r.count() <= small_map_rows:
        return _in_one_task(r, _resolve_local, "pandas")

    for _ in range(max_doublings):
        # nxt = r[ptr] (null when ptr is terminal / outside the domain)
        stepped = _attach_val(
            r, r.map_batches(
                lambda t: pa.table({"node": t["url"], "val": t["ptr"]}),
                batch_format="pyarrow"),
            "ptr", "nxt")
        r = stepped.map_batches(
            lambda t: pa.table({
                "url": t["url"],
                "ptr": pc.coalesce(t["nxt"], t["ptr"]),
                "chg": pc.cast(
                    pc.and_(pc.is_valid(t["nxt"]),
                            pc.not_equal(pc.coalesce(t["nxt"], t["ptr"]),
                                         t["ptr"])),
                    pa.int64())}),
            batch_format="pyarrow").materialize()
        if (r.sum("chg") or 0) == 0:
            break

    final = _attach_val(
        r, r.map_batches(
            lambda t: pa.table({"node": t["url"], "val": t["ptr"]}),
            batch_format="pyarrow"),
        "ptr", "nxt")
    return final.map_batches(
        lambda t: pa.table({
            "url": t["url"],
            "final_url": pc.if_else(pc.is_valid(t["nxt"]),
                                    t["url"], t["ptr"]),
            "status": pc.if_else(pc.is_valid(t["nxt"]), "loop", "ok")}),
        batch_format="pyarrow")


def crawl_diff(old_ds, new_ds, url_col: str = "url",
               hash_col: str = "content_hash",
               n_parts: int | None = None):
    """CRAWL SNAPSHOT DIFF: compare two crawls by url, classifying each
    url as ``added`` (new only), ``removed`` (old only), ``changed``
    (both, content hash differs) or ``unchanged`` — the incremental
    re-crawl planner's input. Assumes each snapshot has at most one row
    per url (crawls are url-keyed; run ``dedup_by_canonical_url``
    first otherwise).

    Shape: tag side (old=0 / new=1) → union (NO join — the outer join
    is expressed as one url-hash exchange + vectorized per-partition
    pivot). Returns (url, status)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    from ..functions.hashing import fast_part_hash

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            out = pa.table({
                "url": pc.cast(t[url_col], pa.string()),
                "h": pc.cast(t[hash_col], pa.string()),
                "side": pa.array(np.full(t.num_rows, side, np.int8)),
            })
            return out.append_column(
                "part", pa.array(fast_part_hash(out["url"], n_parts)))
        return fn

    both = (old_ds.map_batches(tag(0), batch_format="pyarrow")
            .union(new_ds.map_batches(tag(1), batch_format="pyarrow")))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        old = df[df["side"] == 0].set_index("url")["h"]
        new = df[df["side"] == 1].set_index("url")["h"]
        urls = old.index.union(new.index)
        o = old.reindex(urls)
        n = new.reindex(urls)
        status = np.where(
            o.isna(), "added",
            np.where(n.isna(), "removed",
                     np.where(o.to_numpy() == n.to_numpy(),
                              "unchanged", "changed")))
        return pd.DataFrame({"url": urls.to_numpy(), "status": status})

    return both.groupby("part").map_groups(finish, batch_format="pandas")


def host_stats(ds, url_col: str = "url", id_col: str = "doc_id",
               n_parts: int | None = None):
    """PER-HOST crawl aggregates over CANONICAL urls — the frontier /
    politeness planning table: page count, distinct path count, max
    path depth per host. All-integer and RE2-only, so the DuckDB oracle
    replays it on top of the url_canon replay.

    Shape: canonicalize (stateless) → per-batch (host, path) combiner →
    ONE host-hash exchange → vectorized per-partition final (sum,
    nunique, max). Returns (host, n_pages, n_paths, max_depth)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    from ..functions.hashing import fast_part_hash

    canon = canonicalize_urls(ds, url_col=url_col, id_col=id_col)

    def combine(t: pa.Table) -> pa.Table:
        t = t.filter(t["parse_ok"])
        u = t["url_canon"]
        host = pc.struct_field(
            pc.extract_regex(u, r"^https?://(?P<h>[^/?#]+)"), "h")
        path = pc.coalesce(pc.struct_field(
            pc.extract_regex(u, r"^https?://[^/?#]+(?P<p>[^?#]*)"), "p"),
            "/")
        depth = pc.if_else(pc.equal(path, "/"),
                           pa.scalar(0, pa.int64()),
                           pc.cast(pc.count_substring(path, "/"),
                                   pa.int64()))
        g = (pa.table({"host": host, "path": path, "depth": depth,
                       "n": pa.array(np.ones(t.num_rows, np.int64))})
             .group_by(["host", "path"])
             .aggregate([("depth", "max"), ("n", "sum")]))
        g = g.rename_columns(["host", "path", "depth", "n"])
        return g.append_column(
            "part", pa.array(fast_part_hash(g["host"], n_parts)))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("host").agg(
            n_pages=("n", "sum"),
            n_paths=("path", "nunique"),
            max_depth=("depth", "max")).reset_index()
        for c in ("n_pages", "n_paths", "max_depth"):
            g[c] = g[c].astype("int64")
        return g

    return (canon.map_batches(combine, batch_format="pyarrow")
            .groupby("part").map_groups(finish, batch_format="pandas"))


def anchor_text_agg(ds, html_col: str = "html", id_col: str = "doc_id",
                    n_parts: int | None = None):
    """ANCHOR-TEXT AGGREGATION per canonical link target — the IR /
    retrieval-training primitive: the text of the anchors pointing AT a
    page is the best independent description of it (classic web-search
    signal; anchor-text corpora train retrievers the same way). Per
    canonical target url: total referring anchors, distinct anchor
    texts, and the dominant text with its count (ties broken by
    lexicographically smallest text, so the result is deterministic).

    Shape: stateless anchor explode (polars extract_all of the full
    ``<a href="H">TEXT</a>`` element, groups 1+2 — same vectorized Rust
    regex as `extract_links`) → stateless `canonicalize_urls` with the
    anchor text riding as the id column → per-batch (url, text)
    combiner → ONE url-hash exchange → per-partition vectorized
    totals + top-text pick (hash partitioning colocates every
    reference to a url, so per-partition answers are GLOBAL). Returns
    (url, n_refs, n_texts, top_text, top_text_n).
    """
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    import polars as pl

    from ..functions.hashing import fast_part_hash

    pat = r'<a\s[^>]*href="([^"]*)"[^>]*>([^<]*)</a>'

    def explode(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(_html_as_utf8(t.select([html_col]), html_col))
        out = (df.with_columns(
                   pl.col(html_col).str.extract_all(pat).alias("m"))
               .drop(html_col)
               .explode("m").drop_nulls("m")
               .with_columns(
                   pl.col("m").str.extract(pat, 1).alias("url"),
                   pl.col("m").str.extract(pat, 2).alias("txt"))
               .drop("m"))
        return out.to_arrow().cast(pa.schema([
            ("url", pa.string()), ("txt", pa.string())]))

    canon = canonicalize_urls(
        ds.map_batches(explode, batch_format="pyarrow"),
        url_col="url", id_col="txt")

    def combine(t: pa.Table) -> pa.Table:
        t = t.filter(t["parse_ok"])
        g = (pa.table({"url": t["url_canon"], "txt": t["txt"],
                       "n": pa.array(np.ones(t.num_rows, np.int64))})
             .group_by(["url", "txt"]).aggregate([("n", "sum")]))
        g = g.rename_columns(["url", "txt", "n"])
        return g.append_column(
            "part", pa.array(fast_part_hash(g["url"], n_parts)))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["url", "txt"], as_index=False)["n"].sum()
             .sort_values(["url", "n", "txt"],
                          ascending=[True, False, True]))
        tot = (g.groupby("url", as_index=False)
               .agg(n_refs=("n", "sum"), n_texts=("txt", "size")))
        top = g.drop_duplicates("url")[["url", "txt", "n"]].rename(
            columns={"txt": "top_text", "n": "top_text_n"})
        out = tot.merge(top, on="url")
        for c in ("n_refs", "n_texts", "top_text_n"):
            out[c] = out[c].astype("int64")
        return out

    return (canon.map_batches(combine, batch_format="pyarrow")
            .groupby("part").map_groups(finish, batch_format="pandas"))


def host_cap_sample(ds, k: int = 5, host_col: str = "host",
                    id_col: str = "doc_id", n_parts: int | None = None):
    """DOMAIN-BALANCED SAMPLING CAP: keep at most ``k`` documents per
    host, chosen by a deterministic content-free hash order — the
    data-mixing step that stops a handful of mega-hosts from dominating
    a training corpus (the per-domain cap in every web-corpus recipe).

    The order key is the Knuth multiplicative hash
    ``(id mod 2^32) · 2654435761 mod 2^32`` (ties → id), fully
    vectorized in numpy uint64 (the natural-wrap product mod 2^32
    equals the exact product mod 2^32, since 2^32 | 2^64) and replayed
    exactly in SQL with HUGEINT arithmetic — same
    published-hash-family contract as the md5 sketch oracles.

    Shape: stateless hash map → ONE host-hash exchange → per-partition
    vectorized sort + cumcount head-k (hash partitioning colocates a
    host's docs, so the cap is GLOBAL per host). Returns the kept rows
    (id, host, smp_rank) with ``smp_rank`` in 1..k.
    """
    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    def with_hash(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        oh = ((ids % np.uint64(2**32)) * np.uint64(2654435761)) \
            % np.uint64(2**32)
        return pa.table({
            id_col: t[id_col], host_col: t[host_col],
            "oh": pa.array(oh.astype(np.int64)),
            "part": pa.array(fast_part_hash(t[host_col], n_parts))})

    def head_k(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([host_col, "oh", id_col])
        rk = df.groupby(host_col).cumcount() + 1
        out = df[rk <= k].assign(smp_rank=rk[rk <= k].astype("int64"))
        return out[[id_col, host_col, "smp_rank"]]

    return (ds.map_batches(with_hash, batch_format="pyarrow")
            .groupby("part").map_groups(head_k, batch_format="pandas"))


def template_shingles(ds, text_col: str = "text", id_col: str = "doc_id",
                      host_col: str = "host", w: int = 3, pct: int = 8,
                      n_parts: int | None = None):
    """PER-HOST TEMPLATE (BOILERPLATE) DETECTION: a ``w``-token shingle
    that recurs across at least ``pct``% of a host's documents (and in
    ≥2 of them) is site template — navigation, footers, cookie
    banners — not content. Reports per doc how much of its DISTINCT
    shingle set is template: the measurement pass behind
    trafilatura-style boilerplate stripping (the north-star extraction
    contract), run corpus-side so the cleaner's threshold is data-driven.

    Shape: per-host doc counts are a combiner aggregate broadcast ONCE
    via ``ray.put`` — collected as Arrow block refs straight into one
    Arrow table (no driver pandas round-trip; driver holds the host
    table's Arrow bytes exactly once, ~tens of bytes/host, and the
    object store serves every reader zero-copy). The bound is the
    host-table SIZE, not the corpus: at 1e8 hosts ≈ 3-4 GB, the
    documented ceiling of this broadcast design (beyond it, attach
    counts on a salted host-key exchange instead); the shingle stream
    is exploded vectorized (Arrow regex split → flat token array →
    three numpy slice-concats, no per-shingle Python), deduped per doc
    IN-BATCH (a document is one input row, so its shingles never span
    batches), then crosses the wire ONCE hash-partitioned by shingle —
    each (host, shingle) group marks itself template against the
    broadcast host counts and emits per-doc partials; a final doc-hash
    exchange sums them. Returns (doc_id, n_shingles, n_template,
    template_permille) over docs with ≥``w`` tokens.
    """
    import ray
    from ray.data.aggregate import Sum

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)

    def host_count(t: pa.Table) -> pa.Table:
        g = pa.table({host_col: t[host_col],
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        return (g.group_by(host_col).aggregate([("n", "sum")])
                .rename_columns([host_col, "n"]))

    from .graph import _collect_table

    hc_ds = (ds.map_batches(host_count, batch_format="pyarrow")
             .groupby(host_col).aggregate(Sum("n"))
             .map_batches(
                 lambda t: pa.table({
                     "host": pc.cast(t[host_col], pa.string()),
                     "n_docs": pc.cast(t["sum(n)"], pa.int64())}),
                 batch_format="pyarrow"))
    hc_tbl = _collect_table(hc_ds, pa.schema([("host", pa.string()),
                                              ("n_docs", pa.int64())]))
    hc_ref = ray.put(hc_tbl)

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        arr = pc.split_pattern_regex(
            pc.cast(t[text_col], pa.string()), r"\s+")
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        lens0 = pc.list_value_length(arr).to_numpy().astype(np.int64)
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n), lens0)
        keep = flat != ""
        flat, doc_idx = flat[keep], doc_idx[keep]
        if len(flat) < w:
            return pa.table({id_col: pa.array([], pa.int64()),
                             host_col: pa.array([], pa.string()),
                             "sh": pa.array([], pa.string()),
                             "part": pa.array([], pa.int32())})
        # shingle i spans tokens [i, i+w); valid iff same doc end-to-end
        valid = doc_idx[:len(doc_idx) - w + 1] == doc_idx[w - 1:]
        sh = flat[:len(flat) - w + 1].astype("U")
        for j in range(1, w):  # columnar concat, not per-shingle join
            sh = np.char.add(np.char.add(sh, " "),
                             flat[j:len(flat) - w + 1 + j].astype("U"))
        sh, own = sh[valid], doc_idx[:len(doc_idx) - w + 1][valid]
        ids = t[id_col].to_numpy(zero_copy_only=False)
        hosts = t[host_col].to_numpy(zero_copy_only=False)
        out = pd.DataFrame({id_col: ids[own], host_col: hosts[own],
                            "sh": sh}).drop_duplicates()
        return pa.table({
            id_col: pa.array(out[id_col].to_numpy().astype(np.int64)),
            host_col: pa.array(out[host_col].to_numpy(dtype=object),
                               pa.string()),
            "sh": pa.array(out["sh"].to_numpy(dtype=object), pa.string()),
            "part": pa.array(fast_part_hash(list(out["sh"]), n_parts))})

    shingles = ds.map_batches(explode, batch_format="pyarrow")

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        hcv = ray.get(hc_ref)  # zero-copy object-store read
        df_counts = df.groupby([host_col, "sh"])[id_col].transform("size")
        # every host here exists in hcv (same source ds) -> no nulls
        idx = pc.index_in(pa.array(df[host_col]), value_set=hcv["host"])
        host_docs = pc.take(hcv["n_docs"], idx).to_numpy(
            zero_copy_only=False).astype(np.int64)
        tmpl = ((df_counts.to_numpy() * 100 >= pct * host_docs)
                & (df_counts.to_numpy() >= 2))
        out = pd.DataFrame({id_col: df[id_col].to_numpy(),
                            "n_shingles": np.ones(len(df), np.int64),
                            "n_template": tmpl.astype(np.int64)})
        g = out.groupby(id_col, as_index=False).sum()
        g["p2"] = fast_part_hash(g[id_col], n_parts)
        return g

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, as_index=False)[
            ["n_shingles", "n_template"]].sum()
        g["template_permille"] = (
            1000 * g["n_template"]) // g["n_shingles"]
        for c in ("n_shingles", "n_template", "template_permille"):
            g[c] = g[c].astype("int64")
        return g

    return (shingles.groupby("part").map_groups(mark,
                                                batch_format="pandas")
            .groupby("p2").map_groups(finish, batch_format="pandas"))


def link_reciprocity(edges_ds, n_parts: int | None = None):
    """HOST LINK RECIPROCITY: for every host, how many of its distinct
    out-neighbor hosts link back — the classic link-farm / collusion
    signal (organic cross-host links are mostly one-way; reciprocal
    clusters near 1.0 flag link exchanges). Consumes the
    (src_host, dst_host, n_links) table from `anchor_host_graph`;
    self-loops are ignored. The reference has no graph analytics at
    all (SURVEY §2.7) — this is crawl-side KG hygiene on top of it.

    Shape: per-batch distinct-pair combiner on an UNORDERED pair key
    with a direction bit (1 = lo→hi, 2 = hi→lo) → ONE pair-hash
    exchange where the bit-union over a pair marks it reciprocal →
    each pair explodes back into composable (host, n_out, n_recip)
    partials → ONE host-hash exchange summing them. Both exchanges
    carry host-pair-level rows only (never per-link rows), so the
    volume is the distinct-edge count of the HOST graph. Returns
    (host, n_out_hosts, n_reciprocal, recip_micro) with
    recip_micro = n_reciprocal * 1_000_000 // n_out_hosts.
    """
    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    def pair_combine(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["src_host"], t["dst_host"]))
        s, d = t["src_host"], t["dst_host"]
        fwd = pc.less(s, d)
        lo = pc.if_else(fwd, s, d)
        hi = pc.if_else(fwd, d, s)
        mask = pc.if_else(fwd, pa.scalar(1, pa.int64()),
                          pa.scalar(2, pa.int64()))
        g = (pa.table({"lo": lo, "hi": hi, "mask": mask})
             .group_by(["lo", "hi", "mask"]).aggregate([]))
        key = pc.binary_join_element_wise(g["lo"], g["hi"], "\x1f")
        return g.append_column("part",
                               pa.array(fast_part_hash(key, n_parts)))

    def pair_finish(df: pd.DataFrame) -> pd.DataFrame:
        # all directions of a pair are colocated: bit-union the masks
        g = (df.drop_duplicates(["lo", "hi", "mask"])
             .groupby(["lo", "hi"], as_index=False)["mask"].sum())
        m = g["mask"].to_numpy()
        rec = (m == 3).astype(np.int64)
        out_lo = (m & 1).astype(bool)
        out_hi = (m & 2).astype(bool)
        host = np.concatenate([g["lo"].to_numpy()[out_lo],
                               g["hi"].to_numpy()[out_hi]])
        recs = np.concatenate([rec[out_lo], rec[out_hi]])
        part = pd.DataFrame({"host": host,
                             "n_out": np.ones(len(host), np.int64),
                             "n_rec": recs})
        p = part.groupby("host", as_index=False).sum()
        p["p2"] = fast_part_hash(p["host"], n_parts)
        return p

    def host_finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("host", as_index=False)[["n_out", "n_rec"]].sum()
        out = pd.DataFrame({
            "host": g["host"],
            "n_out_hosts": g["n_out"].astype("int64"),
            "n_reciprocal": g["n_rec"].astype("int64")})
        out["recip_micro"] = (
            out["n_reciprocal"] * 1_000_000) // out["n_out_hosts"]
        out["recip_micro"] = out["recip_micro"].astype("int64")
        return out

    return (edges_ds.map_batches(pair_combine, batch_format="pyarrow")
            .groupby("part").map_groups(pair_finish,
                                        batch_format="pandas")
            .groupby("p2").map_groups(host_finish,
                                      batch_format="pandas"))


def frontier_scores(pages_ds, ranks_ds, k: int = 3,
                    url_col: str = "url", ts_col: str = "warc_ts",
                    n_parts: int | None = None):
    """CRAWL FRONTIER PRIORITIZATION: rank every known url by
    ``host_rank × staleness`` and keep the top-k per host — the
    recrawl-scheduling table a frontier emits each cycle (important
    hosts first, stalest pages first, a politeness budget of k urls
    per host per cycle). Staleness is whole hours behind the corpus's
    newest fetch, so the score is all-integer and SQL-replayable.

    Shape: DRIVER-FREE — the host-rank table is never collected; rank
    rows ride the SAME host-hash exchange as the page rows (tag-union,
    the engine's broadcast-free merge), so driver-side state is O(1)
    regardless of host cardinality (~1e8 hosts at web scale per
    `host_rank`'s own docstring). The corpus max fetch time is ONE tiny
    scalar aggregate; then a stateless vectorized age map → ONE
    host-hash exchange where each partition resolves its hosts' ranks
    (``pc.index_in`` + take), scores, and head-k cuts — Arrow-native
    end-to-end (no pandas finisher). Returns
    (url, host, age_hours, score, frontier_rank).
    """
    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    host_re = r"^https?://(?P<h>[^/?#]+)"

    def ts_max(t: pa.Table) -> pa.Table:
        v = pc.max(pc.cast(pc.cast(t[ts_col], pa.timestamp("us")),
                           pa.int64()))
        return pa.table({"m": pa.array([v.as_py()], pa.int64())})

    mx = pages_ds.map_batches(ts_max, batch_format="pyarrow").max("m")

    def tag_page(t: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(pc.cast(t[url_col], pa.string()), host_re),
            "h")
        ts_us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")),
                        pa.int64())
        age = pc.divide(pc.subtract(pa.scalar(mx, pa.int64()), ts_us),
                        pa.scalar(3_600_000_000, pa.int64()))
        out = pa.table({
            "url": pc.cast(t[url_col], pa.string()), "host": host,
            "age_hours": pc.cast(age, pa.int64()),
            "rank_micro": pa.nulls(t.num_rows, pa.int64())})
        return out.append_column(
            "part", pa.array(fast_part_hash(out["host"], n_parts)))

    def tag_rank(t: pa.Table) -> pa.Table:
        out = pa.table({
            "url": pa.nulls(t.num_rows, pa.string()),
            "host": pc.cast(t["host"], pa.string()),
            "age_hours": pa.nulls(t.num_rows, pa.int64()),
            "rank_micro": pc.cast(t["rank_micro"], pa.int64())})
        return out.append_column(
            "part", pa.array(fast_part_hash(out["host"], n_parts)))

    tagged = (pages_ds.map_batches(tag_page, batch_format="pyarrow")
              .union(ranks_ds.map_batches(tag_rank,
                                          batch_format="pyarrow")))

    def head_k(t: pa.Table) -> pa.Table:
        is_rank = pc.is_valid(t["rank_micro"])
        rt = t.filter(is_rank)
        rows = t.filter(pc.invert(is_rank))
        # resolve this partition's host ranks (unranked hosts -> 0)
        idx = pc.index_in(rows["host"], value_set=rt["host"])
        rank = pc.fill_null(pc.take(rt["rank_micro"], idx), 0)
        scored = pa.table({
            "url": rows["url"], "host": rows["host"],
            "age_hours": rows["age_hours"],
            "score": pc.multiply(rank, rows["age_hours"])})
        order = pc.sort_indices(scored, sort_keys=[
            ("host", "ascending"), ("score", "descending"),
            ("url", "ascending")])
        scored = scored.take(order)
        # cumcount within host over the sorted table: i - first_i(host)
        starts = np.flatnonzero(np.r_[
            True, scored["host"].to_numpy(zero_copy_only=False)[1:]
            != scored["host"].to_numpy(zero_copy_only=False)[:-1]])
        n = scored.num_rows
        grp_of = np.cumsum(np.bincount(starts, minlength=n))[:n] - 1 \
            if n else np.array([], np.int64)
        rk = np.arange(n, dtype=np.int64) - starts[grp_of] + 1 \
            if n else np.array([], np.int64)
        keep = rk <= k
        return (scored.filter(pa.array(keep))
                .append_column("frontier_rank", pa.array(rk[keep])))

    return tagged.groupby("part").map_groups(head_k,
                                             batch_format="pyarrow")


def dup_cluster_profile(ds, url_col: str = "url", id_col: str = "doc_id",
                        n_parts: int | None = None):
    """DUP-CLUSTER SIZE HISTOGRAM over canonical-url groups — the
    curation report behind every crawl-dedup decision (how much of the
    corpus is singleton vs 2-dup vs mega-cluster; the long tail decides
    whether address-level dedup is worth running before content-level).
    Per cluster size k: how many canonical urls have exactly k crawled
    variants and how many documents that covers. Returns
    (cluster_size, n_clusters, n_docs).

    Shape: canonicalize (stateless) → per-batch (canon, n) combiner →
    ONE canon-hash exchange (global count per canonical url) → each
    partition folds its counts into a SIZE-histogram partial (sizes are
    few) → one tiny size-keyed fold. Unparseable urls count as their
    own singleton clusters (parse_ok=false keeps the raw url as key,
    matching `canonicalize_urls`)."""
    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    canon = canonicalize_urls(ds, url_col=url_col, id_col=id_col)

    def combine(t: pa.Table) -> pa.Table:
        g = (pa.table({"url_canon": t["url_canon"],
                       "n": pa.array(np.ones(t.num_rows, np.int64))})
             .group_by("url_canon").aggregate([("n", "sum")]))
        g = g.rename_columns(["url_canon", "n"])
        return g.append_column(
            "part", pa.array(fast_part_hash(g["url_canon"], n_parts)))

    def histo(df: pd.DataFrame) -> pd.DataFrame:
        sizes = df.groupby("url_canon")["n"].sum()
        g = (sizes.value_counts().rename_axis("cluster_size")
             .reset_index(name="n_clusters"))
        g["cluster_size"] = g["cluster_size"].astype("int64")
        g["n_clusters"] = g["n_clusters"].astype("int64")
        g["n_docs"] = (g["cluster_size"] * g["n_clusters"]).astype("int64")
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cluster_size", as_index=False)[
            ["n_clusters", "n_docs"]].sum()
        for c in ("cluster_size", "n_clusters", "n_docs"):
            g[c] = g[c].astype("int64")
        return g

    return (canon.map_batches(combine, batch_format="pyarrow")
            .groupby("part").map_groups(histo, batch_format="pandas")
            .repartition(4)
            .groupby("cluster_size").map_groups(fold,
                                                batch_format="pandas"))


# ---------------------------------------------------------------------------
# robots.txt politeness: synth → REAL parse → longest-prefix-rule match

def _robots_text(host: str) -> str:
    """Deterministic per-host robots.txt body — the sandbox stand-in
    for the per-host fetch a crawler does (no network here; at scale
    this is a batched range-read stage exactly like `stages/fetch.py`).
    The TEMPLATE is the oracle contract (`oracle_sql()["web_robots"]`
    replays it as CASE rules); the ENGINE never evaluates the template
    directly — it renders this text and runs the real parser below, so
    the parse step is genuinely exercised. Shapes covered: comments,
    blank lines, a non-* agent group that must NOT apply, mixed-case
    directive names, crawl-delay, and allow-overrides-disallow on the
    longest-prefix rule."""
    m = int("".join(ch for ch in host if ch.isdigit()) or 0)
    lines = [
        f"# robots for {host}",
        "User-agent: googlebot",
        "Disallow: /nobots",
        "",
        "User-agent: *",
        f"Crawl-delay: {1 + m % 5}",
        "DISALLOW: /tmp" if m % 2 else "Disallow: /tmp",
    ]
    if m % 3 == 0:
        lines += ["Disallow: /p/1", "Allow: /p/12"]
    elif m % 3 == 1:
        lines += ["disallow: /p/", "allow: /p/7"]
    return "\n".join(lines) + "\n"


def parse_robots(text: str, agent: str = "*"):
    """Minimal-but-real robots.txt parser (RFC 9309 shapes): directive
    names case-insensitive, inline ``#`` comments stripped, rules
    grouped under the most recent ``User-agent`` line(s), only groups
    naming ``agent`` apply. Returns ``(rules, crawl_delay)`` where
    rules is ``[(kind, prefix)]`` with kind in {"allow", "disallow"}
    and empty-prefix rules dropped (an empty Disallow means
    allow-all)."""
    rules: list[tuple[str, str]] = []
    delay = 0
    active = False      # current group names `agent`
    in_group_header = False  # consecutive User-agent lines stack
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        val = val.strip()
        if key == "user-agent":
            if not in_group_header:
                active = False
            in_group_header = True
            if val == agent:
                active = True
            continue
        in_group_header = False
        if not active:
            continue
        if key in ("allow", "disallow") and val:
            rules.append((key, val))
        elif key == "crawl-delay":
            try:
                delay = int(val)
            except ValueError:
                pass
    return rules, delay


class RobotsStage:
    """Actor-pool politeness evaluator: per-host robots rules are
    parsed ONCE per actor and cached (hosts ≪ pages and Zipf-headed,
    so the cache hit rate approaches 1 at crawl scale — the state is
    the reason this is a callable class, the W1 pattern). Input is the
    canonical-url stream; output one row per page with the
    longest-prefix-match verdict: Google semantics — longest matching
    rule wins, ties go to allow, no match means allowed."""

    def __init__(self, url_col: str = "url_canon",
                 id_col: str = "doc_id"):
        self.url_col, self.id_col = url_col, id_col
        self._cache: dict[str, tuple[list[tuple[str, str]], int]] = {}

    def _rules(self, host: str):
        got = self._cache.get(host)
        if got is None:
            got = self._cache[host] = parse_robots(_robots_text(host))
        return got

    def __call__(self, t: pa.Table) -> pa.Table:
        u = t[self.url_col]
        host = pc.struct_field(
            pc.extract_regex(u, r"^https?://(?P<h>[^/?#]+)"), "h")
        path = pc.coalesce(pc.struct_field(
            pc.extract_regex(u, r"^https?://[^/?#]+(?P<p>[^?#]*)"), "p"),
            "/")
        hs = host.to_pandas().to_numpy(dtype=object)
        ps = path.to_pandas().to_numpy(dtype=object)
        n = len(hs)
        allowed = np.ones(n, dtype=bool)
        rule = np.full(n, "default", dtype=object)
        delay = np.zeros(n, dtype=np.int64)
        for h in pd.unique(hs):
            sel = hs == h
            rules, d = self._rules(h)
            delay[sel] = d
            if not rules:
                continue
            sub = ps[sel].astype("U")
            best_len = np.zeros(sel.sum(), dtype=np.int64)
            best_allow = np.ones(sel.sum(), dtype=bool)
            best_rule = np.full(sel.sum(), "default", dtype=object)
            for kind, prefix in rules:
                m = np.char.startswith(sub, prefix)
                ln = len(prefix)
                is_allow = kind == "allow"
                # longest wins; tie -> allow wins
                take = m & ((ln > best_len)
                            | ((ln == best_len) & is_allow & ~best_allow))
                best_len[take] = ln
                best_allow[take] = is_allow
                best_rule[take] = f"{kind}:{prefix}"
            allowed[sel] = best_allow
            rule[sel] = best_rule
        return pa.table({
            self.id_col: t[self.id_col],
            "host": host,
            "path": path,
            "allowed": pa.array(allowed),
            "rule": pa.array(rule.tolist(), pa.string()),
            "crawl_delay": pa.array(delay),
        })


def robots_filter(ds, url_col: str = "url", id_col: str = "doc_id"):
    """robots.txt politeness verdict per page: canonicalize →
    actor-pool longest-prefix rule match (`RobotsStage`). Returns
    ``(id, host, path, allowed, rule, crawl_delay)`` — the mask a
    frontier/crawl scheduler consumes next to `frontier_scores`.

    Shape: two stateless/stateful map stages, zero shuffle; robots
    state is per-actor, host-cardinality-bounded, and cached."""
    from ..runtime import pool

    cmin, cmax = pool(0.5)
    canon = canonicalize_urls(ds, url_col=url_col, id_col=id_col)
    canon = canon.map_batches(
        lambda t: t.filter(t["parse_ok"]), batch_format="pyarrow")
    return canon.map_batches(
        RobotsStage,
        fn_constructor_kwargs={"url_col": "url_canon", "id_col": id_col},
        batch_format="pyarrow", concurrency=(cmin, cmax))


# ---------------------------------------------------------------------------
# sitemap coverage: render → REAL parse-back → crawl diff, one exchange

def _sitemap_text(host: str, id_url_pairs) -> str:
    """Deterministic per-host sitemap.xml — the sandbox stand-in for
    the fetched file (template = the oracle contract, as with
    `_robots_text`). Lists two thirds of the host's crawled canonical
    urls (``(doc_id // 20) % 3 != 0``) plus one un-crawled extra url,
    so all three coverage classes occur."""
    m = int("".join(ch for ch in host if ch.isdigit()) or 0)
    locs = [u for d, u in sorted(id_url_pairs)
            if (d // 20) % 3 != 0]
    locs.append(f"https://{host}/extra/{m}")
    # proper XML: escape & (query-param urls) — the parser's
    # entity-decode path is exercised on every multi-param url
    body = "\n".join(
        "  <url>\n    <loc>{}</loc>\n    <lastmod>2026-01-01</lastmod>"
        "\n  </url>".format(u.replace("&", "&amp;")) for u in locs)
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">\n'
            f"{body}\n</urlset>\n")


def parse_sitemap(text: str) -> list[str]:
    """Extract ``<loc>`` values from a sitemap.xml body (whitespace
    tolerated inside the element; entity-decoded for the five XML
    predefineds). The engine only ever sees the rendered text — the
    template stays on the oracle side."""
    import re

    out = []
    for raw in re.findall(r"<loc>\s*([^<]*?)\s*</loc>", text):
        for ent, ch in (("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
                        ("&apos;", "'"), ("&amp;", "&")):
            raw = raw.replace(ent, ch)
        out.append(raw)
    return out


def sitemap_coverage(ds, url_col: str = "url", id_col: str = "doc_id",
                     n_parts: int | None = None):
    """SITEMAP COVERAGE — the crawl-completeness report: per url,
    whether it appears in the crawl, in the host's sitemap, or both
    (``status ∈ {both, crawled_only, sitemap_only}``).

    Shape: canonicalize (stateless) → ONE host-hash exchange → per-host
    render + REAL parse-back + set diff inside the same partition (the
    sitemap is host-local data, so co-partitioning by host makes the
    whole comparison exchange-free past the first hop). Returns
    ``(url, host, status)``."""
    from ..runtime import default_parts

    n_parts = n_parts or default_parts(1.0)
    from ..functions.hashing import fast_part_hash

    canon = canonicalize_urls(ds, url_col=url_col, id_col=id_col)

    def tag(t: pa.Table) -> pa.Table:
        t = t.filter(t["parse_ok"])
        u = t["url_canon"]
        host = pc.struct_field(
            pc.extract_regex(u, r"^https?://(?P<h>[^/?#]+)"), "h")
        return pa.table({
            id_col: t[id_col],
            "url": u,
            "host": host,
            "part": pa.array(fast_part_hash(host, n_parts)),
        })

    def cover(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for host, g in df.groupby("host"):
            text = _sitemap_text(host,
                                 list(zip(g[id_col], g["url"])))
            locs = set(parse_sitemap(text))
            crawled = dict(zip(g["url"], g[id_col]))
            for u in sorted(set(crawled) | locs):
                status = ("both" if u in crawled and u in locs
                          else "crawled_only" if u in crawled
                          else "sitemap_only")
                rows.append((u, host, status))
        return pd.DataFrame(rows, columns=["url", "host", "status"])

    return (canon.map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(cover, batch_format="pandas"))


def host_cocitation(pages_ds, html_col: str = "html",
                    url_col: str = "url", id_col: str = "doc_id",
                    n_parts: int | None = None):
    """HOST CO-CITATION coupling: for every unordered host pair
    (h1 < h2), how many DISTINCT source hosts link to both — the
    classic bibliographic-coupling signal for topical host clustering
    and mirror/link-farm detection (two hosts nobody co-cites are
    unrelated; two hosts every directory page co-cites are siblings).

    Shape: the `anchor_host_graph` edge set (already distinct
    (src, dst), host-pair cardinality — far below page cardinality) →
    self-loops dropped → `wedge_pairs` on block = the source host,
    item = the destination host (ONE src-hash exchange with the
    per-src cross merge, ONE pair-hash sum). Cost is Σ d_out² over
    source hosts — the same wedge bound as `two_hop_scores`; cap
    directory-page out-degree upstream if a true hub dominates.

    Returns (h1, h2, n_cociting)."""
    from .graph import wedge_pairs

    edges = anchor_host_graph(pages_ds, html_col=html_col,
                              url_col=url_col, id_col=id_col,
                              n_parts=n_parts)

    def tag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.equal(t["src_host"], t["dst_host"])))
        return pa.table({"s": t["src_host"], "d": t["dst_host"]})

    return wedge_pairs(edges.map_batches(tag, batch_format="pyarrow"),
                       block_cols=["s"], item_col="d",
                       out_cols=("h1", "h2", "n_cociting"))


def revisit_classify(cdx_ds, key_col: str = "urlkey",
                     ts_col: str = "ts", digest_col: str = "digest",
                     len_col: str = "payload_len",
                     n_parts: int | None = None):
    """WARC REVISIT classification — the web-archive storage dedup the
    CDX index exists to drive (ISO 28500 §6.7 revisit records): per
    urlkey in capture order, the first capture is the ORIGINAL;
    each later capture whose digest equals the immediately preceding
    capture's is a REVISIT (stored as a pointer, its payload bytes
    saved), anything else is CHANGED. A crawler writing revisit
    records instead of duplicate payloads is the single biggest
    storage win on recrawl-heavy archives.

    Shape: ONE urlkey-hash exchange co-locates each url's capture
    history; the per-partition classify is pure vectorized pandas
    (sort → groupwise shift → compare) and emits one row per capture —
    no second exchange (verdicts are partition-local facts). Returns
    (urlkey, ts, verdict, saved_bytes) with saved_bytes = payload_len
    for revisits, else 0."""
    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    def tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "urlkey": t[key_col], "ts": t[ts_col],
            "digest": t[digest_col], "plen": t[len_col],
            "part": pa.array(fast_part_hash(t[key_col], n_parts))})

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["urlkey", "ts", "digest"],
                            kind="mergesort").reset_index(drop=True)
        same_key = df["urlkey"] == df["urlkey"].shift()
        same_digest = df["digest"] == df["digest"].shift()
        verdict = np.where(~same_key, "original",
                           np.where(same_digest, "revisit", "changed"))
        saved = np.where(verdict == "revisit",
                         df["plen"].to_numpy(), 0).astype(np.int64)
        return pd.DataFrame({
            "urlkey": df["urlkey"], "ts": df["ts"],
            "verdict": verdict, "saved_bytes": saved})

    return (cdx_ds.map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(classify, batch_format="pandas"))


def url_param_stats(ds, url_col: str = "url",
                    n_parts: int | None = None):
    """QUERY-PARAMETER PROFILE: per parameter key across the crawl —
    occurrence count, distinct hosts, distinct values, and the
    tracking flag (``utm_*``, the family `canonicalize_urls` strips).
    The audit a crawl operator runs to decide WHICH params belong on
    the strip list: a key on many hosts with near-unique values
    (session ids) is a dedup killer; a key with few values is
    content-bearing pagination.

    Shape: stateless vectorized findall (polars ``extract_all``, the
    `extract_links` idiom) explodes urls to (key, value, host) rows,
    deduped per (url, key, value) in-batch (a combiner — cross-batch
    repeats of a recrawled url are handled by the distinct counts) →
    ONE key-hash exchange where counts and distincts are exact (all
    rows of a key co-locate). A url repeating a key (``?a=1&a=2``)
    counts once in ``n_urls`` and contributes every value to
    ``n_values``, as the ``web_params`` oracle does.
    Returns (param, n_urls, n_hosts, n_values, is_tracking)."""
    import polars as pl

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    pat = r"[?&][^=&#]+=[^&#]*"

    def explode(t: pa.Table) -> pa.Table:
        host = pc.utf8_lower(pc.coalesce(pc.struct_field(
            pc.extract_regex(pc.cast(t[url_col], pa.string()),
                             r"^(?i)https?://(?P<h>[^/?#]+)"), "h"), ""))
        df = pl.from_arrow(pa.table({
            "url": pc.cast(t[url_col], pa.string()), "host": host}))
        out = (df.with_columns(
                   pl.col("url").str.extract_all(pat).alias("m"))
               .explode("m").drop_nulls("m")
               .with_columns(
                   pl.col("m").str.extract(r"[?&]([^=&#]+)=", 1)
                   .alias("param"),
                   pl.col("m").str.extract(r"=([^&#]*)$", 1)
                   .alias("value"))
               .drop("m")
               .unique(subset=["url", "param", "value"],
                       maintain_order=True))
        at = out.to_arrow().cast(pa.schema([
            ("url", pa.string()), ("host", pa.string()),
            ("param", pa.string()), ("value", pa.string())]))
        return at.append_column(
            "part", pa.array(fast_part_hash(at["param"], n_parts)))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        # n_urls = DISTINCT urls: the per-batch (url, param, value)
        # dedup is only a combiner — a recrawled url appearing in
        # several input rows may land in different batches, and a size
        # count would make the result batch-boundary-dependent
        g = (df.groupby("param")
             .agg(n_urls=("url", "nunique"),
                  n_hosts=("host", "nunique"),
                  n_values=("value", "nunique"))
             .reset_index())
        for c in ("n_urls", "n_hosts", "n_values"):
            g[c] = g[c].astype("int64")
        g["is_tracking"] = g["param"].str.startswith("utm_")
        return g

    return (ds.map_batches(explode, batch_format="pyarrow")
            .groupby("part").map_groups(fold, batch_format="pandas"))
