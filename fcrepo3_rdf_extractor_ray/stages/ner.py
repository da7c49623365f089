"""NER mention detection.

The analog of the reference's arbitrary body-triple extraction feeding
entity-bearing nodes into the sink (M5, ObjectProcessor.java:167-169) —
here a standalone stage so linking/canonicalization can run over
mentions independently of fact assembly. Deterministic pattern-based
recognizer. ``detect_mentions`` runs it in task form by default; its
actor form is the one stage fork kept on purpose, because ``NerStage``
holds real per-actor state: the model slot that loads weights once in
``__init__``.
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..functions.normalize import norm_surface
from ..functions.textextract import PageParseError, parse_page

# closed surface patterns of the synthetic corpus (alias variants +
# unlinked widgets) — a model checkpoint would replace this table
_MENTION_RE = re.compile(r"\b(?:ENTITY-\d+|Entity ?\d+|Widget-\d+)\b")


class NerStage:
    """pages batch → (src_url, surface, norm) mention rows, one row per
    mention occurrence in the page's candidate sentences. Regex (or
    model) bound once per actor; per-row error containment as in the
    extraction stage.

    ``weights_ref`` is the REAL model slot: a ``ray.put`` object ref to
    a checkpoint artifact (here a pickled vocabulary dict + embedding
    matrix; a torch/sklearn checkpoint slots in identically). It is
    fetched from the object store ONCE per actor in ``__init__`` — the
    W1 pattern (ObjectProcessor.java:96-139) — never per batch; when
    provided, mentions whose norm is outside the vocabulary are
    dropped (the model's gazetteer behavior). ``load_counter`` names a
    Ray counter actor used by tests to assert one load per actor."""

    def __init__(self, weights_ref=None, load_counter: str | None = None):
        self.vocab = None
        if weights_ref is not None:
            import ray

            vocab, emb = ray.get(weights_ref)  # once per ACTOR
            self.vocab = vocab
            self.emb = emb
        if load_counter is not None:
            import ray

            ray.get(ray.get_actor(load_counter).incr_load.remote())
        self._load_counter = load_counter
        self.pattern = _MENTION_RE
        self.errors = 0

    def __call__(self, t: pa.Table) -> pa.Table:
        if self._load_counter is not None:
            import ray

            ray.get(ray.get_actor(self._load_counter).incr_batch.remote())
        urls, surfaces, norms = [], [], []
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            try:
                page = parse_page(html)
            except PageParseError:
                self.errors += 1
                continue
            for sent in page.fact_sentences:
                for m in self.pattern.findall(sent):
                    n = norm_surface(m)
                    if self.vocab is not None and n not in self.vocab:
                        continue
                    urls.append(url)
                    surfaces.append(m)
                    norms.append(n)
        return pa.table({
            "src_url": pa.array(urls, pa.string()),
            "surface": pa.array(surfaces, pa.string()),
            "norm": pa.array(norms, pa.string()),
        })


def detect_mentions(pages_ds, concurrency=None, batch_size: int = 4096,
                    weights_ref=None, load_counter: str | None = None):
    """Default is task form on warm workers (the regex "model" is a
    module-level compiled pattern — no per-actor setup worth a pool
    ramp); pass ``concurrency`` for the actor-pool form, the right shape
    once a real NER model loads per actor (``weights_ref`` = ray.put
    checkpoint ref, fetched once per actor in ``__init__``)."""
    if concurrency is not None:
        return pages_ds.map_batches(
            NerStage,
            fn_constructor_kwargs={"weights_ref": weights_ref,
                                   "load_counter": load_counter},
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )

    def ner_batch(t):
        return NerStage()(t)

    return pages_ds.map_batches(ner_batch, batch_format="pyarrow",
                                batch_size=batch_size)


def mention_cooccurrence(mentions_ds, n_parts: int | None = None):
    """Entity CO-OCCURRENCE edges: for every unordered pair of distinct
    entities mentioned on the same page, the number of pages where they
    co-occur — the standard relatedness-edge weighting step between
    mention detection and graph materialization.

    Scale shape (same as the Jaccard inverted index): per-batch distinct
    (src_url, norm) combiner → url-hash partition (co-locates each
    page's mentions) → per-partition vectorized self-merge on the url →
    pair-count combiner → one global pair aggregate. The big mention
    stream crosses the wire once, already deduped; pairs are bounded by
    mentions-per-page², not corpus size."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash

    def distinct_batch(t: pa.Table) -> pa.Table:
        g = (t.select(["src_url", "norm"])
             .group_by(["src_url", "norm"]).aggregate([]))
        return g.append_column(
            "part", pa.array(fast_part_hash(g["src_url"], n_parts)))

    ds = mentions_ds.map_batches(distinct_batch, batch_format="pyarrow")

    def page_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["src_url", "norm"])
        side = df[["src_url", "norm"]]
        m = side.merge(side, on="src_url", suffixes=("_a", "_b"))
        m = m[m["norm_a"] < m["norm_b"]]
        out = m.groupby(["norm_a", "norm_b"], as_index=False).agg(
            n_pages=("src_url", "size"))
        return out.astype({"n_pages": "int64"})

    pairs = ds.groupby("part").map_groups(page_pairs, batch_format="pandas")

    from ray.data.aggregate import Sum

    g = pairs.groupby(["norm_a", "norm_b"]).aggregate(Sum("n_pages"))
    return g.map_batches(
        lambda t: t.rename_columns(["norm_a", "norm_b", "n_pages"]),
        batch_format="pyarrow")


def entity_timeline(pages_ds, n_parts: int | None = None):
    """Per-entity TIMELINE: first and last time each entity was seen and
    on how many distinct pages — the temporal facet a KG consumer needs
    for freshness filtering and burst detection.

    One url-keyed co-partitioned tag-union merge attaches each page's
    fetch timestamp to its (deduped) mentions — the page table streams,
    it is never broadcast — then a min/max/count combiner and one
    entity-keyed exchange finish. All timestamps stay microsecond
    integers end-to-end (bit-stable vs the SQL oracle)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash

    mentions = detect_mentions(pages_ds)

    def tag_m(t: pa.Table) -> pa.Table:
        g = (t.select(["src_url", "norm"])
             .group_by(["src_url", "norm"]).aggregate([]))
        g = g.rename_columns(["src_url", "norm"])
        return pa.table({
            "url": g["src_url"], "norm": g["norm"],
            "ts_us": pa.nulls(g.num_rows, pa.int64()),
            "part": pa.array(fast_part_hash(g["src_url"], n_parts))})

    def tag_p(t: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(t["warc_ts"], pa.timestamp("us")), pa.int64())
        return pa.table({
            "url": t["url"], "norm": pa.nulls(t.num_rows, pa.string()),
            "ts_us": ts,
            "part": pa.array(fast_part_hash(t["url"], n_parts))})

    tagged = (mentions.map_batches(tag_m, batch_format="pyarrow")
              .union(pages_ds.map_batches(tag_p, batch_format="pyarrow")))

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        # aggregate the page side PER URL first (min/max ts, row count):
        # a url fetched twice with different warc_ts must contribute both
        # timestamps and both rows, exactly as the oracle's d JOIN uts
        # (drop_duplicates kept one arbitrary timestamp)
        agg = (df.loc[df["ts_us"].notna(), ["url", "ts_us"]]
               .groupby("url")["ts_us"].agg(["min", "max", "count"]))
        rows = df[df["norm"].notna()].merge(
            agg, left_on="url", right_index=True, how="left")
        # per-partition combiner: one row per norm per partition
        out = pd.DataFrame({"norm": rows["norm"].to_numpy(),
                            "first_us": rows["min"].astype("int64").to_numpy(),
                            "last_us": rows["max"].astype("int64").to_numpy(),
                            "n_pages": rows["count"].astype("int64").to_numpy()})
        g = out.groupby("norm", as_index=False).agg(
            first_us=("first_us", "min"), last_us=("last_us", "max"),
            n_pages=("n_pages", "sum"))
        g["p2"] = fast_part_hash(g["norm"], n_parts)
        return g

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("norm", as_index=False).agg(
            first_us=("first_us", "min"), last_us=("last_us", "max"),
            n_pages=("n_pages", "sum"))
        return g

    g = (tagged.groupby("part").map_groups(attach, batch_format="pandas")
         .groupby("p2").map_groups(finish, batch_format="pandas"))

    def to_ts(t: pa.Table) -> pa.Table:
        return pa.table({
            "norm": t["norm"],
            "first_seen": pc.cast(t["first_us"], pa.timestamp("us")),
            "last_seen": pc.cast(t["last_us"], pa.timestamp("us")),
            "n_pages": pc.cast(t["n_pages"], pa.int64())})

    return g.map_batches(to_ts, batch_format="pyarrow")


def mention_lift(mentions_ds, n_parts: int | None = None):
    """Entity CO-MENTION LIFT: for each unordered entity pair, how much
    more often the two co-occur on a page than independence predicts —
    ``lift = P(a,b) / (P(a)·P(b))``, the integer-exact PMI analog every
    KG relatedness ranker starts from (raw co-occurrence counts favor
    head entities; lift surfaces genuinely associated pairs). Kept as
    ``lift_micro = 10^6 · n_pages(a,b) · N // (n(a) · n(b))`` so the
    DuckDB oracle replays bit-for-bit.

    Shape: per-batch distinct (page, entity) combiner → ONE url-hash
    exchange where each partition emits TAGGED partials (pair counts,
    per-entity page counts, distinct-page count — all three from the
    same co-located group, no second scan of the mention stream) →
    one (kind, pair)-keyed aggregate. The pair stream stays
    distributed; only the entity-frequency side (entity-vocabulary
    sized — object-store broadcast, not a shuffle join) is collected
    as Arrow block refs into one Arrow table (never through driver
    pandas) and ``ray.put`` once for the final stateless lift map.
    """
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    from ..functions.hashing import fast_part_hash

    def distinct_batch(t: pa.Table) -> pa.Table:
        g = (t.select(["src_url", "norm"])
             .group_by(["src_url", "norm"]).aggregate([]))
        return g.append_column(
            "part", pa.array(fast_part_hash(g["src_url"], n_parts)))

    ds = mentions_ds.map_batches(distinct_batch, batch_format="pyarrow")

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["src_url", "norm"])
        side = df[["src_url", "norm"]]
        m = side.merge(side, on="src_url", suffixes=("_a", "_b"))
        m = m[m["norm_a"] < m["norm_b"]]
        pairs = m.groupby(["norm_a", "norm_b"], as_index=False).agg(
            n=("src_url", "size"))
        pairs["kind"] = 0
        nf = df.groupby("norm", as_index=False).agg(
            n=("src_url", "nunique")).rename(columns={"norm": "norm_a"})
        nf["norm_b"] = ""
        nf["kind"] = 1
        tot = pd.DataFrame({"norm_a": [""], "norm_b": [""],
                            "n": [df["src_url"].nunique()], "kind": [2]})
        out = pd.concat([pairs, nf, tot], ignore_index=True)
        out["n"] = out["n"].astype("int64")
        out["kind"] = out["kind"].astype("int8")
        return out[["kind", "norm_a", "norm_b", "n"]]

    agg = (ds.groupby("part").map_groups(partials, batch_format="pandas")
           .groupby(["kind", "norm_a", "norm_b"]).aggregate(Sum("n"))
           .materialize())

    # entity-frequency side: collected as Arrow block refs straight
    # into ONE Arrow table (no driver pandas round-trip) and ray.put
    # once. Driver-memory bound = the entity vocabulary's Arrow bytes,
    # held exactly once (~tens of bytes/entity; ~GBs at 1e8 entities —
    # the documented ceiling of broadcast mode; beyond it, attach
    # frequencies on the pair exchange instead).
    from .graph import _collect_table

    small = _collect_table(
        agg.map_batches(
            lambda t: t.filter(pc.not_equal(t["kind"], 0)).select(
                ["kind", "norm_a", "sum(n)"]),
            batch_format="pyarrow"),
        pa.schema([("kind", pa.int8()), ("norm_a", pa.string()),
                   ("sum(n)", pa.int64())]))
    n_total = int(pc.sum(
        small.filter(pc.equal(small["kind"], 2))["sum(n)"]).as_py() or 0)
    nf = small.filter(pc.equal(small["kind"], 1))
    nf_tbl = pa.table({
        "norm": pc.cast(nf["norm_a"], pa.string()),
        "n": pc.cast(nf["sum(n)"], pa.int64())}).combine_chunks()
    nf_ref = ray.put(nf_tbl)

    def lift(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["kind"], 0))
        v = ray.get(nf_ref)  # zero-copy object-store read
        fa = pc.take(v["n"], pc.index_in(
            t["norm_a"], value_set=v["norm"].combine_chunks())).to_numpy()
        fb = pc.take(v["n"], pc.index_in(
            t["norm_b"], value_set=v["norm"].combine_chunks())).to_numpy()
        n_ab = t["sum(n)"].to_numpy().astype(np.int64)
        # int64-exact while 10^6·n_ab·N < 2^63 (n_ab·N < 9.2e12); at
        # full web scale switch the scale factor down or go int128 —
        # the oracle's BIGINT arithmetic has the same range
        lm = (1_000_000 * n_ab * np.int64(n_total)) // (
            fa.astype(np.int64) * fb.astype(np.int64))
        return pa.table({
            "norm_a": t["norm_a"], "norm_b": t["norm_b"],
            "n_pages": pa.array(n_ab),
            "lift_micro": pa.array(lm.astype(np.int64))})

    return agg.map_batches(lift, batch_format="pyarrow")
