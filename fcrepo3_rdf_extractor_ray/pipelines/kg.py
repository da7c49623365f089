"""Flagship pipeline: pages → deduplicated canonical quads.

The Ray-Data re-expression of the reference's whole job
(``Extract.run`` → per-object ``ObjectProcessor.accept`` → decorator
sink chain → per-thread N-Quads shards; Extract.java:237-256) plus the
wide stages the north rule adds (entity canonicalization, exact dedup,
sorted materialization):

    read_parquet(pages, columns pruned — never the golden `text` column)
      → map_batches(extract_quads_batch)                # parse once/page
        (task form; the resumable run's waves run the same kernel as
        write tasks that checkpoint the quads and return lineage rows)
      → [checkpoint boundary: raw quads, materialized]  # html long gone
      → build_entity_map: per-block distinct norms folded on the
        driver (no exchange) → alias link + min-ID union-find → a
        driver dict; past the norm threshold the fold stops and a
        sip64 exchange, actor-pool link and distributed union-find
        build a (norm, label) Dataset instead
      → resolve_quads (broadcast the dict, or join the Dataset)
      → dedup_quads: per-batch combiner → coalesce to a range count
        sized by CPUs and the raw quads' bytes → sort(subj,pred,obj),
        the one exchange → per-block dedup finish in full sink order
      → materialize_sorted, one sink pass: per sorted block, a
        Parquet shard + a same-stem N-Quads shard

``run_kg`` keeps the raw quads in the object store between extraction
and canonicalization (raw quads are a small fraction of the html-bearing
input); ``run_kg_resumable`` writes them, and then the entity map, to
atomic Parquet checkpoints with lineage manifests (state/lineage.py),
and reads the raw checkpoint back into the object store once for the
fold and the resolve.
Each of its waves is one ``write_datasink`` pass of plain tasks
(``WaveCheckpointSink``): no actor pool, and the per-block lineage rows
travel back as the write tasks' return values.

Both run the one extraction kernel, ``extract_quads_kernel``. A caller
that also wants entity mentions runs ``stages.ner.detect_mentions``,
which parses the pages again: a shared parse feeding both outputs was
no faster at sf0.1 (BASELINE.md, "One form per stage").
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
from ray.data.datasource import Datasink

from ..sources.pages import build_alias_table, read_pages, synthesize_pages
from ..stages.canonicalize import build_entity_map, resolve_quads
from ..stages.dedup import dedup_quads

PAGE_COLUMNS = ["url", "warc_ts", "html", "lang"]  # `text` (golden) pruned


def pages_for_sf(sf_dir: str, repeat: int = 1):
    """Synthesize (cached) + read the pages corpus for a testdata sf dir."""
    pages_dir = synthesize_pages(sf_dir, repeat=repeat)
    return read_pages(pages_dir, columns=PAGE_COLUMNS)


def extract_raw_quads(pages_ds, batch_size: int = 4096,
                      skip_empty_literals: bool = True):
    """Stage 1: one parse per page → constant + meta + raw-fact quads.

    ``batch_size`` trades per-batch overhead against batch memory: the
    html column dominates row width (SURVEY.md §7.4 wide-rows note), so
    size it to payload — 4096 suits ~KB pages; drop to ~256 for MB-scale
    pages. The html column never leaves this stage, and each batch is one
    output block (too-small batches flood the driver with block
    metadata). A stateless task form: it reuses warm worker processes
    and scales with the task scheduler instead of actor-pool ramp-up."""
    from ..stages.extract import extract_quads_batch

    return pages_ds.map_batches(
        extract_quads_batch,
        fn_kwargs={"skip_empty_literals": skip_empty_literals},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def canonical_quads(raw, driver_link_threshold: int | None = None):
    """Raw quads → entity map → resolved, deduplicated quads in sink
    order: the tail of ``run_kg`` (``run_kg_resumable`` runs the same
    two steps and checkpoints the map between them). ``raw`` is
    materialized: the map and the resolve both read it, and its size
    sets the dedup range count."""
    mapping = build_entity_map(raw, build_alias_table(),
                               driver_link_threshold)
    return dedup_quads(resolve_quads(raw, mapping),
                       input_bytes=raw.size_bytes())


def run_kg(sf_dir: str, repeat: int = 1, skip_empty_literals: bool = True,
           pages_ds=None, n_salts: int = 1):
    """pages(sf_dir) → deduplicated canonical quads Dataset.

    The result is deduplicated and already in sink order (see
    ``dedup_quads``): ``materialize_sorted`` writes it without another
    exchange.

    ``pages_ds``: run over an explicit pages Dataset instead of the
    sf-dir parquet (e.g. a WARC-ingested corpus, sources/warc.py).
    ``n_salts`` is accepted and ignored (the benchmark still passes it)."""
    pages = (pages_ds if pages_ds is not None
             else pages_for_sf(sf_dir, repeat=repeat))
    # in-memory checkpoint: raw quads are consumed twice (entity-map
    # build + resolve) — materialize so pages are parsed exactly once
    raw = extract_raw_quads(
        pages, skip_empty_literals=skip_empty_literals).materialize()
    return canonical_quads(raw)


def _read_entity_map(checkpoint_dir: str):
    """The committed (norm, label) checkpoint in the form
    ``build_entity_map`` returns for its size: a driver dict at or below
    ``DRIVER_LINK_THRESHOLD`` rows (the manifest's count), else the
    Dataset read lazily."""
    import json

    import pyarrow.parquet as pq

    from ..stages import canonicalize
    from ..state.lineage import _ckpt_dir, read_checkpoint

    d = _ckpt_dir(checkpoint_dir, "entitymap")
    with open(os.path.join(d, "_MANIFEST.json")) as f:
        rows = json.load(f)["rows"]
    if rows > canonicalize.DRIVER_LINK_THRESHOLD:
        return read_checkpoint(checkpoint_dir, "entitymap")
    t = pq.read_table(d)  # skips the _-prefixed manifest
    return dict(zip(t["norm"].to_pylist(), t["label"].to_pylist()))


def run_kg_resumable(sf_dir: str, checkpoint_dir: str,
                     wave_size: int = 4,
                     max_waves: int | None = None,
                     skip_empty_literals: bool = True, repeat: int = 1,
                     crash_after_entitymap: bool = False):
    """Resumable flagship run: the pages shards are processed in waves of
    ``wave_size`` files; each wave is one streaming task-form write
    (``WaveCheckpointSink`` over ``extract_quads_kernel``) that commits
    an atomic per-group checkpoint with lineage. A crashed run
    re-executes only uncommitted waves (``max_waves`` exists so tests can
    simulate the crash; ``crash_after_entitymap`` simulates the OTHER
    crash boundary — right after the entity-map checkpoint commits,
    before resolve). After extraction, canonicalize/dedup run over
    the union of committed groups, on the same entity-map route as
    ``run_kg``.
    Returns the final quads Dataset, or None if the run "crashed" at
    either boundary. ``repeat`` scales the synthesized corpus (×N
    copies) for stress runs."""
    import functools

    import ray.data as rd

    from ..stages.extract import extract_quads_kernel
    from ..state.lineage import (WaveCheckpointSink, checkpoint_exists,
                                 checkpoint_quads, checkpoint_table,
                                 committed_groups, merge_lineage,
                                 read_all_groups)
    # imported per call, not bound at module import: a caller may
    # re-point the pages cache by patching sources.pages.synthesize_pages
    from ..sources.pages import synthesize_pages

    pages_dir = synthesize_pages(sf_dir, repeat=repeat)
    shard_files = sorted(os.path.join(pages_dir, f)
                         for f in os.listdir(pages_dir)
                         if f.endswith(".parquet"))
    # Resume keys off the committed manifests' ``input_files``, NOT wave
    # index alignment: a resume invoked with a different ``wave_size``
    # would otherwise see group 0000 committed and skip shards the
    # crashed run never extracted (silent data loss). Remaining files =
    # everything no committed group covers; new groups number upward
    # from the highest committed id.
    committed = committed_groups(checkpoint_dir, "extract")
    committed_files = {f for _, m in committed
                       for f in m.get("input_files", [])}
    stale = committed_files - set(shard_files)
    if stale:
        raise ValueError(
            f"checkpoint {checkpoint_dir} was built from different input "
            f"shards (different corpus/repeat?): {sorted(stale)[:3]}")
    remaining = [f for f in shard_files if f not in committed_files]
    next_k = 1 + max((int(g) for g, _ in committed), default=-1)
    waves = [remaining[i:i + wave_size]
             for i in range(0, len(remaining), wave_size)]
    extract = functools.partial(extract_quads_kernel,
                                skip_empty_literals=skip_empty_literals)
    done = len(committed)
    for j, files in enumerate(waves):
        if max_waves is not None and done >= max_waves:
            return None  # simulated crash: remaining waves not run
        # lineage rows commit atomically WITH the wave's data (inside the
        # same rename) — a crash+resume across invocations keeps every
        # committed wave's lineage; merge_lineage below rebuilds the
        # merged file from the per-group records.
        rd.read_parquet(files, columns=PAGE_COLUMNS).write_datasink(
            WaveCheckpointSink(checkpoint_dir, "extract", f"{next_k + j:04d}",
                               extract, {"input_files": files}))
        done += 1
    merge_lineage(checkpoint_dir, stage="extract")
    # read once: the entity-map fold and the resolve both consume it
    raw = read_all_groups(checkpoint_dir, "extract").materialize()
    # mid-pipeline resume continues PAST extraction: the entity map (the
    # second expensive phase) is itself an atomic checkpoint of
    # (norm, label) rows, whichever form build_entity_map returned — a
    # crash between map-build and resolve re-reads it instead of
    # re-linking. A dict is written by the driver itself: no Ray write
    # execution for a map that is already in hand.
    if not checkpoint_exists(checkpoint_dir, "entitymap"):
        mapping = build_entity_map(raw, build_alias_table())
        if isinstance(mapping, dict):
            checkpoint_table(pa.table(
                {"norm": pa.array(list(mapping), pa.string()),
                 "label": pa.array(list(mapping.values()), pa.string())}),
                checkpoint_dir, stage="entitymap")
        else:
            checkpoint_quads(mapping, checkpoint_dir, stage="entitymap")
        if crash_after_entitymap:
            return None  # simulated crash between map build and resolve
    mapping = _read_entity_map(checkpoint_dir)
    return dedup_quads(resolve_quads(raw, mapping),
                       input_bytes=raw.size_bytes())


def adjacency_table(quads_ds, n_parts: int | None = None):
    """Graph adjacency-list layout (north-star materialization): one row
    per subject with its (pred, obj) edges as a list sorted by
    (pred, obj), plus edge count. Partition by subject hash → vectorized
    per-partition assembly (same bounded-partition pattern as dedup)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash

    def add_part(t: pa.Table) -> pa.Table:
        part = pa.array(fast_part_hash(t["subj"], n_parts))
        return t.select(["subj", "pred", "obj"]).append_column("part", part)

    ds = quads_ds.map_batches(add_part, batch_format="pyarrow")
    ds = ds.repartition(n_parts)

    def assemble(df):
        import pandas as pd

        df = df.sort_values(["subj", "pred", "obj"])
        g = df.groupby("subj", as_index=False).agg(
            n_edges=("pred", "size"),
            preds=("pred", list),
            objs=("obj", list),
        )
        g["edges"] = [list(zip(p, o)) for p, o in zip(g["preds"], g["objs"])]
        return g[["subj", "n_edges", "edges"]]

    return ds.groupby("part").map_groups(assemble, batch_format="pandas")


def _nquad_lines(t: pa.Table) -> pa.ChunkedArray:
    """One newline-terminated N-Quads line per quad row: vectorized
    literal escaping (\\ " newline) + term assembly; bare strings
    broadcast as scalars in the join kernel."""
    import pyarrow.compute as pc

    lex = pc.replace_substring(t["obj"], "\\", "\\\\")
    lex = pc.replace_substring(lex, '"', '\\"')
    lex = pc.replace_substring(lex, "\n", "\\n")
    lit = pc.binary_join_element_wise('"', lex, '"', "")
    dt_tail = pc.binary_join_element_wise(
        "^^<", t["obj_datatype"], ">", "")
    lit = pc.if_else(
        pc.not_equal(t["obj_datatype"], ""),
        pc.binary_join_element_wise(lit, dt_tail, ""), lit)
    iri = pc.binary_join_element_wise("<", t["obj"], ">", "")
    obj = pc.if_else(t["obj_is_literal"], lit, iri)
    lines = pc.binary_join_element_wise(
        "<", t["subj"], "> <", t["pred"], "> ", obj,
        " <", t["graph"], "> .\n", "")
    if lines.null_count:
        raise ValueError("null term in a quad row: no N-Quads line for it")
    return lines


def _subject_hash_part(t: pa.Table) -> pa.Array:
    """MD5 subject-hash prefix per row (the Hive partition key)."""
    import pandas as pd

    from ..functions.iri import hash_prefix

    # subjects repeat heavily (input is subj-sorted): factorize, md5 only
    # the uniques, gather back — no per-row Python hash
    codes, uniques = pd.factorize(t["subj"].to_pandas(), sort=False)
    up = np.asarray([hash_prefix(s, depth=1) for s in uniques], dtype=object)
    return pa.array(up[codes], pa.string())


def _check_sorted(t: pa.Table) -> None:
    """Raise unless the rows are non-decreasing on (subj, pred, obj): one
    vectorized comparison of each row with the next."""
    import pyarrow.compute as pc

    a, b = t.slice(0, t.num_rows - 1), t.slice(1)
    ok = pc.less_equal(a["obj"], b["obj"])
    for c in ("pred", "subj"):
        ok = pc.or_(pc.less(a[c], b[c]), pc.and_(pc.equal(a[c], b[c]), ok))
    if not pc.all(ok, min_count=0).as_py():
        raise ValueError("materialize_sorted got a block that is not sorted "
                         "by (subj, pred, obj): pass it what dedup_quads or "
                         "run_kg returns")


def _string_bytes(arr: pa.Array) -> pa.Buffer:
    """A non-empty string array's values back to back: one slice of its
    data buffer, with no per-value Python string."""
    _, offsets, data = arr.buffers()
    offsets = np.frombuffer(offsets, np.int64 if pa.types.is_large_string(
        arr.type) else np.int32)
    return data[int(offsets[arr.offset]):int(offsets[arr.offset + len(arr)])]


class SortedQuadsDatasink(Datasink):
    """Writes each sorted block once (an unsorted one raises
    ``ValueError``): a Parquet shard and, with
    ``write_nquads``, an ``nquads/<stem>.nq`` text shard of the same
    rows (the reference's quads{i}.nq per-worker sharding,
    Extract.java:217-219, TripleDump.java:63-69).

    A shard's stem is ``<write id>_<task idx>_<block idx>``. The write id
    is fixed on the driver and the indices by the task's arguments, so a
    retried write task overwrites its own files and adds no rows."""

    def __init__(self, out_dir: str, write_nquads: bool = True,
                 partition_by_subject_hash: bool = False):
        import uuid

        self.out_dir = out_dir
        self.nq_dir = (os.path.join(out_dir, "nquads") if write_nquads
                       else None)
        self.partition_by_subject_hash = partition_by_subject_hash
        self.write_id = uuid.uuid4().hex[:16]

    def on_write_start(self) -> None:
        os.makedirs(self.nq_dir or self.out_dir, exist_ok=True)

    def write(self, blocks, ctx) -> None:
        import pyarrow.parquet as pq
        from ray.data.block import BlockAccessor

        for i, block in enumerate(blocks):
            t = BlockAccessor.for_block(block).to_arrow()
            if t.num_rows == 0:
                continue
            _check_sorted(t)
            stem = f"{self.write_id}_{ctx.task_idx:06d}_{i:06d}"
            if self.partition_by_subject_hash:
                pq.write_to_dataset(
                    t.append_column("subj_part", _subject_hash_part(t)),
                    self.out_dir, partition_cols=["subj_part"],
                    basename_template=stem + "-{i}.parquet")
            else:
                pq.write_table(t, os.path.join(self.out_dir,
                                               stem + ".parquet"))
            if self.nq_dir is not None:
                with open(os.path.join(self.nq_dir, stem + ".nq"),
                          "wb") as f:
                    for chunk in _nquad_lines(t).chunks:
                        if len(chunk):
                            f.write(_string_bytes(chunk))


def materialize_sorted(quads_ds, out_dir: str, write_nquads: bool = True,
                       partition_by_subject_hash: bool = False):
    """Final materialization (K1 analog): one streaming pass through
    ``SortedQuadsDatasink`` writes every block as a Parquet shard plus,
    with ``write_nquads``, a mirrored N-Quads shard under
    ``<out_dir>/nquads``. The plan upstream runs once.

    ``quads_ds`` must already be in sink order — what ``dedup_quads`` and
    ``run_kg`` return: range-partitioned on (subj, pred, obj), each block
    sorted. This function does not sort; a block out of (subj, pred, obj)
    order raises ``ValueError`` instead of becoming an unsorted shard.

    ``partition_by_subject_hash`` writes Hive-partitioned Parquet keyed by
    an MD5 subject-hash prefix (the HashPathIdMapper layout analog,
    HashPathIdMapper.java:145-160) — one directory per key range, so a
    failed downstream consumer can skip finished partitions."""
    quads_ds.write_datasink(
        SortedQuadsDatasink(out_dir, write_nquads, partition_by_subject_hash))
    return out_dir


def entity_profile(pages_ds, n_parts: int | None = None):
    """Per-entity PROFILE — the composite consumers build dashboards
    from: for every mentioned entity, (a) how many pages mention it,
    (b) its co-occurrence degree (distinct neighbors), (c) its
    connected-component label (min entity id; itself when isolated).

    Composes three derived datasets — distinct mention pairs, the
    co-occurrence edge list, and the contraction-union-find component
    labels — and assembles them with ONE norm-keyed co-partitioned
    tag-union merge (kinds 0/1/2), zero joins. Every exchanged table is
    #entities-scale."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash
    from ..stages.graph import connected_components
    from ..stages.ner import detect_mentions, mention_cooccurrence

    # materialized: mentions feed BOTH the page-count branch and the
    # co-occurrence branch — without the pin, each branch re-executes
    # detect_mentions and the pages are parsed twice per run
    mentions = detect_mentions(pages_ds).materialize()

    # distinct (url, norm) pairs are per-batch distinct only — the final
    # per-norm page count dedupes ACROSS batches inside the merge via a
    # (url, norm)-keyed exchange first
    def pair_rows(t: pa.Table) -> pa.Table:
        g = (t.select(["src_url", "norm"])
             .group_by(["src_url", "norm"]).aggregate([]))
        g = g.rename_columns(["src_url", "norm"])
        key = pc.binary_join_element_wise(g["src_url"], g["norm"], "\x1f")
        return g.append_column(
            "part", pa.array(fast_part_hash(key, n_parts)))

    def pair_count(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["src_url", "norm"])
        g = d.groupby("norm", as_index=False).size().rename(
            columns={"size": "n_pages"})
        g["n_pages"] = g["n_pages"].astype("int64")
        return g

    n_pages = (mentions.map_batches(pair_rows, batch_format="pyarrow")
               .groupby("part").map_groups(pair_count,
                                           batch_format="pandas"))

    co = mention_cooccurrence(mentions, n_parts=n_parts).materialize()

    def deg_rows(t: pa.Table) -> pa.Table:
        src = pa.concat_arrays([t["norm_a"].combine_chunks(),
                                t["norm_b"].combine_chunks()])
        out = pa.table({"norm": src,
                        "degree": pa.array(np.ones(len(src), np.int64))}
                       ).group_by("norm").aggregate([("degree", "sum")])
        return out.rename_columns(["norm", "degree"])

    degree = co.map_batches(deg_rows, batch_format="pyarrow")
    comp = connected_components(co, n_parts=n_parts)

    def tag(ds, kind, val_col, val_type=pa.int64()):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "norm": t["norm" if "norm" in t.schema.names else "node"],
                "n_pages": (pc.cast(t[val_col], pa.int64()) if kind == 0
                            else pa.nulls(t.num_rows, pa.int64())),
                "degree": (pc.cast(t[val_col], pa.int64()) if kind == 1
                           else pa.nulls(t.num_rows, pa.int64())),
                "component": (t[val_col] if kind == 2
                              else pa.nulls(t.num_rows, pa.string())),
            })

        tagged = ds.map_batches(fn, batch_format="pyarrow")
        return tagged.map_batches(
            lambda t: t.append_column(
                "part", pa.array(fast_part_hash(t["norm"], n_parts))),
            batch_format="pyarrow")

    union = (tag(n_pages, 0, "n_pages")
             .union(tag(degree, 1, "degree"))
             .union(tag(comp, 2, "component")))

    def assemble(df: pd.DataFrame) -> pd.DataFrame:
        np_ = df.dropna(subset=["n_pages"]).groupby("norm")["n_pages"].sum()
        dg = df.dropna(subset=["degree"]).groupby("norm")["degree"].sum()
        cp = (df.dropna(subset=["component"])
              .drop_duplicates("norm").set_index("norm")["component"])
        norms = np_.index  # every mentioned entity has a page count
        return pd.DataFrame({
            "norm": norms.to_numpy(),
            "n_pages": np_.astype("int64").to_numpy(),
            "degree": dg.reindex(norms).fillna(0).astype("int64").to_numpy(),
            "component": cp.reindex(norms).fillna(
                pd.Series(norms, index=norms)).to_numpy()})

    return union.groupby("part").map_groups(assemble, batch_format="pandas")


def fact_support(facts_ds, n_parts: int | None = None):
    """KNOWLEDGE FUSION support aggregation: per distinct fact
    (subj, pred, obj), how strongly the corpus supports it — total
    assertions, distinct supporting pages, and the lexicographic
    first/last source url. The confidence input every KB-construction
    triage step consumes (single-page facts are extraction-noise
    candidates; multi-page facts promote into the KB). The reference
    emits each assertion independently (one triple per relation,
    ObjectProcessor.java:256-270) — fusing them is the step after.

    Shape: per-batch combiner collapses repeated (fact, src_url)
    assertions before the wire → ONE fact-hash exchange → per-partition
    vectorized groupby (hash partitioning colocates every assertion of
    a fact, so counts/min/max are GLOBAL). Returns (subj, pred, obj,
    n_assertions, n_pages, first_src, last_src).
    """
    import numpy as np
    import pandas as pd

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    def combine(t: pa.Table) -> pa.Table:
        g = (pa.table({"subj": t["subj"], "pred": t["pred"],
                       "obj": t["obj"], "src_url": t["src_url"],
                       "n": pa.array(np.ones(t.num_rows, dtype=np.int64))})
             .group_by(["subj", "pred", "obj", "src_url"])
             .aggregate([("n", "sum")]))
        g = g.rename_columns(["subj", "pred", "obj", "src_url", "n"])
        import pyarrow.compute as pc

        key = pc.binary_join_element_wise(g["subj"], g["pred"], g["obj"],
                                          "\x1f")
        return g.append_column("part", pa.array(fast_part_hash(key,
                                                               n_parts)))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby(["subj", "pred", "obj"], as_index=False)
               .agg(n_assertions=("n", "sum"),
                    n_pages=("src_url", "nunique"),
                    first_src=("src_url", "min"),
                    last_src=("src_url", "max")))
        for c in ("n_assertions", "n_pages"):
            out[c] = out[c].astype("int64")
        return out

    return (facts_ds.map_batches(combine, batch_format="pyarrow")
            .groupby("part").map_groups(finish, batch_format="pandas"))


def _attach_page_ts(facts_ds, pages_ds, n_parts: int, post):
    """Shared temporal-attach exchange for `current_facts` /
    `fact_intervals`: ONE url-hash co-partition tag union joins each
    page's max ``warc_ts`` onto its fact assertions (the page table
    streams, never broadcast); facts whose src_url has no pages row
    are DROPPED (pageless facts are unknowable-as-of, not infinitely
    old — both consumers share this contract and the oracle's inner
    join). ``post(df)`` runs inside the same map_groups on the
    attached frame (subj, pred, obj, url, ts_us) — the hook where
    each consumer fuses its per-partition combiner before its own
    second exchange."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash

    def tag_f(t: pa.Table) -> pa.Table:
        return pa.table({
            "url": t["src_url"], "subj": t["subj"], "pred": t["pred"],
            "obj": t["obj"], "ts_us": pa.nulls(t.num_rows, pa.int64()),
            "part": pa.array(fast_part_hash(t["src_url"], n_parts))})

    def tag_p(t: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(t["warc_ts"], pa.timestamp("us")), pa.int64())
        return pa.table({
            "url": t["url"], "subj": pa.nulls(t.num_rows, pa.string()),
            "pred": pa.nulls(t.num_rows, pa.string()),
            "obj": pa.nulls(t.num_rows, pa.string()),
            "ts_us": ts,
            "part": pa.array(fast_part_hash(t["url"], n_parts))})

    tagged = (facts_ds.map_batches(tag_f, batch_format="pyarrow")
              .union(pages_ds.map_batches(tag_p, batch_format="pyarrow")))

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        # max warc_ts per url (a url refetched in the same corpus
        # contributes its LATEST fetch to every fact it asserts)
        ts = (df.loc[df["ts_us"].notna(), ["url", "ts_us"]]
              .groupby("url")["ts_us"].max())
        rows = df[df["subj"].notna()].merge(
            ts, left_on="url", right_index=True, how="inner",
            suffixes=("", "_p"))
        out = rows[["subj", "pred", "obj", "url"]].copy()
        out["ts_us"] = rows["ts_us_p"].astype("int64")
        return post(out)

    return (tagged.repartition(n_parts)
            .groupby("part").map_groups(attach, batch_format="pandas"))


def current_facts(facts_ds, pages_ds, n_parts: int | None = None):
    """TEMPORAL KG SNAPSHOT: the CURRENT assertion per (subject,
    predicate) — for every functional-property slot, the fact from the
    most recently fetched page, with its fetch time and source. A KG
    built from recrawls must supersede stale assertions (the page that
    said ``basedIn X`` in 2023 loses to the 2025 recrawl saying
    ``basedIn Y``); the reference emits every assertion with no
    temporal resolution (one triple per relation), so this is the
    as-of step a consumer runs after it.

    Shape: the shared `_attach_page_ts` url-hash exchange (pageless
    facts dropped there — the shared contract), with the per-partition
    combiner fused into it (keep the local max-(ts, src_url) row per
    slot), then ONE (subj, pred)-hash exchange keeps the global max
    via vectorized sort + drop_duplicates. Returns (subj, pred, obj,
    last_ts, src_url); ``last_ts`` stays a microsecond timestamp
    end-to-end."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    def slot_max(out: pd.DataFrame) -> pd.DataFrame:
        out = out.sort_values(["subj", "pred", "ts_us", "url", "obj"],
                              ascending=[True, True, False, False, False])
        out = out.drop_duplicates(["subj", "pred"], keep="first")
        out["p2"] = fast_part_hash(out["subj"], n_parts)
        return out

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["subj", "pred", "ts_us", "url", "obj"],
                            ascending=[True, True, False, False, False])
        return df.drop_duplicates(["subj", "pred"], keep="first")

    g = (_attach_page_ts(facts_ds, pages_ds, n_parts, post=slot_max)
         .groupby("p2").map_groups(finish, batch_format="pandas"))

    def to_out(t: pa.Table) -> pa.Table:
        return pa.table({
            "subj": t["subj"], "pred": t["pred"], "obj": t["obj"],
            "last_ts": pc.cast(t["ts_us"], pa.timestamp("us")),
            "src_url": t["url"]})

    return g.map_batches(to_out, batch_format="pyarrow")


def fact_intervals(facts_ds, pages_ds, n_parts: int | None = None):
    """TEMPORAL VALIDITY EPISODES: for every (subject, predicate) slot,
    the maximal runs of consecutive equal object values in fetch-time
    order — the history `current_facts` truncates to its last row. A
    slot asserted ``basedIn X`` by the 2023 crawls and ``basedIn Y``
    by the 2025 recrawls yields two episodes with their [from, to]
    fetch-time spans; a value that flips back opens a NEW episode
    (validity is temporal, not set-semantic). This is the
    SCD-2-dimension analog over extracted facts (the reference has no
    temporal axis at all — every assertion is eternal,
    ObjectProcessor.java:235-246).

    Shape: the shared `_attach_page_ts` url-hash exchange (pageless
    facts dropped there — the `current_facts` contract), then ONE
    (subj, pred)-hash exchange where the run-collapse is pure
    vectorized pandas (sort → shift → cumsum → groupby). Total order
    inside a slot is (ts, src_url, obj), the same deterministic
    tiebreak `current_facts` uses. Returns (subj, pred, obj, from_ts,
    to_ts, n_assertions, episode_no) with episode_no 1-based per slot
    in time order."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    def to_p2(out: pd.DataFrame) -> pd.DataFrame:
        out["p2"] = fast_part_hash(out["subj"], n_parts)
        return out

    def collapse(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["subj", "pred", "ts_us", "url", "obj"],
                            kind="mergesort").reset_index(drop=True)
        new_run = ((df["subj"] != df["subj"].shift())
                   | (df["pred"] != df["pred"].shift())
                   | (df["obj"] != df["obj"].shift()))
        ep = new_run.cumsum()
        g = (df.assign(ep=ep).groupby("ep", sort=True)
             .agg(subj=("subj", "first"), pred=("pred", "first"),
                  obj=("obj", "first"), from_us=("ts_us", "min"),
                  to_us=("ts_us", "max"),
                  n_assertions=("ts_us", "size"))
             .reset_index(drop=True))
        g["n_assertions"] = g["n_assertions"].astype("int64")
        g["episode_no"] = (g.groupby(["subj", "pred"], sort=False)
                           .cumcount() + 1).astype("int64")
        return g

    g = (_attach_page_ts(facts_ds, pages_ds, n_parts, post=to_p2)
         .groupby("p2").map_groups(collapse, batch_format="pandas"))

    def to_out(t: pa.Table) -> pa.Table:
        return pa.table({
            "subj": t["subj"], "pred": t["pred"], "obj": t["obj"],
            "from_ts": pc.cast(t["from_us"], pa.timestamp("us")),
            "to_ts": pc.cast(t["to_us"], pa.timestamp("us")),
            "n_assertions": t["n_assertions"],
            "episode_no": t["episode_no"]})

    return g.map_batches(to_out, batch_format="pyarrow")


def pred_stats(facts_ds, n_parts: int | None = None):
    """ONTOLOGY PROFILE per predicate: assertion volume, distinct-triple
    count, subject/object cardinalities, and the max objects asserted
    per subject — the functional-property detector (max == 1) that
    drives schema inference and the `current_facts` supersede step.
    The reference hard-codes its predicate list (constant triples per
    object, ObjectProcessor.java:256-270); at web scale the predicate
    inventory is DATA and must be profiled from the corpus.

    Shape: two independent pair-keyed exchanges over per-batch distinct
    combiners — hash(pred, subj) colocates every (subj → objs) slot, so
    per-pred partials (assertion sums, distinct-subj counts, distinct
    triples, max objects per subject) are exact and composable;
    hash(pred, obj) does the same for distinct objects. Both emit
    per-pred PARTIAL rows only (vocabulary-sized), unioned and folded
    by a final tiny pred groupby. No full-table shuffle anywhere.
    Returns (pred, n_assertions, n_triples, n_subj, n_obj,
    max_obj_per_subj, is_functional).
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    def combine_ps(t: pa.Table) -> pa.Table:
        g = (pa.table({"pred": t["pred"], "subj": t["subj"],
                       "obj": t["obj"],
                       "n": pa.array(np.ones(t.num_rows, np.int64))})
             .group_by(["pred", "subj", "obj"]).aggregate([("n", "sum")]))
        g = g.rename_columns(["pred", "subj", "obj", "n"])
        key = pc.binary_join_element_wise(g["pred"], g["subj"], "\x1f")
        return g.append_column("part", pa.array(fast_part_hash(key,
                                                               n_parts)))

    def finish_ps(df: pd.DataFrame) -> pd.DataFrame:
        # every (pred, subj) slot is fully colocated here
        tri = df.drop_duplicates(["pred", "subj", "obj"])
        slot = tri.groupby(["pred", "subj"], as_index=False).agg(
            nobj=("obj", "count"))
        agg = slot.groupby("pred", as_index=False).agg(
            n_subj=("subj", "count"), max_ops=("nobj", "max"))
        agg = agg.merge(
            tri.groupby("pred", as_index=False).agg(n_tri=("obj", "count")),
            on="pred")
        agg = agg.merge(
            df.groupby("pred", as_index=False).agg(n_asrt=("n", "sum")),
            on="pred")
        return pd.DataFrame({
            "pred": agg["pred"],
            "n_asrt": agg["n_asrt"].astype("int64"),
            "n_tri": agg["n_tri"].astype("int64"),
            "n_subj": agg["n_subj"].astype("int64"),
            "n_obj": np.zeros(len(agg), np.int64),
            "max_ops": agg["max_ops"].astype("int64")})

    def combine_po(t: pa.Table) -> pa.Table:
        g = (pa.table({"pred": t["pred"], "obj": t["obj"]})
             .group_by(["pred", "obj"]).aggregate([]))
        key = pc.binary_join_element_wise(g["pred"], g["obj"], "\x1f")
        return g.append_column("part", pa.array(fast_part_hash(key,
                                                               n_parts)))

    def finish_po(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.drop_duplicates(["pred", "obj"])
             .groupby("pred", as_index=False).agg(n_obj=("obj", "count")))
        z = np.zeros(len(g), np.int64)
        return pd.DataFrame({
            "pred": g["pred"], "n_asrt": z, "n_tri": z,
            "n_subj": z, "n_obj": g["n_obj"].astype("int64"),
            "max_ops": z})

    ps = (facts_ds.map_batches(combine_ps, batch_format="pyarrow")
          .groupby("part").map_groups(finish_ps, batch_format="pandas"))
    po = (facts_ds.map_batches(combine_po, batch_format="pyarrow")
          .groupby("part").map_groups(finish_po, batch_format="pandas"))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("pred", as_index=False).agg(
            n_assertions=("n_asrt", "sum"), n_triples=("n_tri", "sum"),
            n_subj=("n_subj", "sum"), n_obj=("n_obj", "sum"),
            max_obj_per_subj=("max_ops", "max"))
        for c in ("n_assertions", "n_triples", "n_subj", "n_obj",
                  "max_obj_per_subj"):
            g[c] = g[c].astype("int64")
        g["is_functional"] = g["max_obj_per_subj"] == 1
        return g

    # per-pred partial rows are vocabulary-sized: coalesce the tagged
    # union before the final exchange (the mix_report block-count fix)
    return (ps.union(po).repartition(8)
            .groupby("pred").map_groups(fold, batch_format="pandas"))


def entity_cards(facts_ds, mentions_ds, pages_ds, mapping,
                 n_parts: int | None = None):
    """KNOWLEDGE-PANEL MATERIALIZATION: one card per canonical entity —
    mention volume, distinct mentioning pages, first/last fetch time,
    fact in/out degree and the dominant outgoing predicate. This is
    the consumer-facing end product a KG build publishes (the entity
    page of every knowledge-panel UI); the reference stops at the raw
    triple stream, so the card assembly is the step after it.

    Shape: mention norms resolve through the broadcast canonical map
    (``ray.put`` once, misses skolemize — the lookup `resolve_quads`
    broadcasts with). A (norm, label) mapping Dataset, which
    `build_entity_map` returns only above ``DRIVER_LINK_THRESHOLD``
    norms, is collected onto the driver into that dict first: the map
    this stage broadcasts is driver-sized whatever route built it, so
    above the threshold it gives up the Dataset route's no-``take_all``
    bound (there is no join form of this stage yet). Page fetch
    times attach via ONE url-hash tag-union exchange (the pages table STREAMS, never broadcast);
    fact in/out degrees and per-predicate counts ride per-batch
    combiners. Everything then meets in ONE entity-hash tag-union
    exchange whose per-partition assemble is exact (colocation makes
    counts, distincts, min/max and the top-predicate pick global).
    Entities with no mentions carry zero time bounds; entities with no
    outgoing facts carry an empty ``top_pred``. Returns (entity,
    n_mentions, n_pages, first_us, last_us, n_facts_out, n_facts_in,
    top_pred, top_pred_n).
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    from ..stages.canonicalize import canonical_ids
    n_parts = n_parts or default_parts(1.0)
    if not isinstance(mapping, dict):
        mapping = {r["norm"]: r["label"] for r in mapping.take_all()}
    map_ref = ray.put(mapping)

    def tag_m(t: pa.Table) -> pa.Table:
        ent = canonical_ids(t["norm"], ray.get(map_ref), prefix="")
        g = (pa.table({"url": t["src_url"], "entity": ent,
                       "n": pa.array(np.ones(t.num_rows, np.int64))})
             .group_by(["url", "entity"]).aggregate([("n", "sum")]))
        g = g.rename_columns(["url", "entity", "n"])
        return pa.table({
            "url": g["url"], "entity": g["entity"], "n": g["n"],
            "ts_us": pa.nulls(g.num_rows, pa.int64()),
            "part": pa.array(fast_part_hash(g["url"], n_parts))})

    def tag_p(t: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(t["warc_ts"], pa.timestamp("us")), pa.int64())
        return pa.table({
            "url": t["url"],
            "entity": pa.nulls(t.num_rows, pa.string()),
            "n": pa.nulls(t.num_rows, pa.int64()), "ts_us": ts,
            "part": pa.array(fast_part_hash(t["url"], n_parts))})

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        ts = (df[df["entity"].isna()]
              .drop_duplicates("url").set_index("url")["ts_us"])
        m = (df[df["entity"].notna()]
             .groupby(["url", "entity"], as_index=False)["n"].sum())
        m["ts_us"] = m["url"].map(ts).fillna(0).astype("int64")
        # (url, entity) is globally unique here: urls are colocated
        return pd.DataFrame({
            "entity": m["entity"], "kind": np.zeros(len(m), np.int64),
            "pred": np.full(len(m), "", object),
            "n": m["n"].astype("int64"), "ts_us": m["ts_us"]})

    mention_part = (mentions_ds.map_batches(tag_m, batch_format="pyarrow")
                    .union(pages_ds.map_batches(tag_p,
                                                batch_format="pyarrow"))
                    .repartition(n_parts)
                    .groupby("part").map_groups(attach,
                                                batch_format="pandas"))

    def facts_out(t: pa.Table) -> pa.Table:
        g = (pa.table({"entity": t["subj"], "pred": t["pred"],
                       "n": pa.array(np.ones(t.num_rows, np.int64))})
             .group_by(["entity", "pred"]).aggregate([("n", "sum")]))
        g = g.rename_columns(["entity", "pred", "n"])
        return pa.table({
            "entity": g["entity"],
            "kind": pa.array(np.ones(g.num_rows, np.int64)),
            "pred": g["pred"], "n": g["n"],
            "ts_us": pa.array(np.zeros(g.num_rows, np.int64))})

    def facts_in(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.cast(t["obj_is_literal"], pa.bool_())))
        g = (pa.table({"entity": t["obj"],
                       "n": pa.array(np.ones(t.num_rows, np.int64))})
             .group_by("entity").aggregate([("n", "sum")]))
        g = g.rename_columns(["entity", "n"])
        return pa.table({
            "entity": g["entity"],
            "kind": pa.array(np.full(g.num_rows, 2, np.int64)),
            "pred": pa.array(np.full(g.num_rows, "", object), pa.string()),
            "n": g["n"],
            "ts_us": pa.array(np.zeros(g.num_rows, np.int64))})

    def part_col(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", pa.array(fast_part_hash(t["entity"], n_parts)))

    tagged = (mention_part.map_batches(part_col, batch_format="pyarrow")
              .union(facts_ds.map_batches(facts_out,
                                          batch_format="pyarrow")
                     .map_batches(part_col, batch_format="pyarrow"))
              .union(facts_ds.map_batches(facts_in,
                                          batch_format="pyarrow")
                     .map_batches(part_col, batch_format="pyarrow"))
              .repartition(n_parts))

    def assemble(df: pd.DataFrame) -> pd.DataFrame:
        men = df[df["kind"] == 0]
        a = men.groupby("entity").agg(
            n_mentions=("n", "sum"), n_pages=("n", "count"),
            first_us=("ts_us", "min"), last_us=("ts_us", "max"))
        out_rows = df[df["kind"] == 1]
        per_pred = (out_rows.groupby(["entity", "pred"], as_index=False)
                    ["n"].sum())
        fo = per_pred.groupby("entity")["n"].sum()
        top = (per_pred.sort_values(["entity", "n", "pred"],
                                    ascending=[True, False, True])
               .drop_duplicates("entity").set_index("entity"))
        fi = df[df["kind"] == 2].groupby("entity")["n"].sum()
        ents = pd.Index(sorted(set(df["entity"])))
        return pd.DataFrame({
            "entity": ents.to_numpy(),
            "n_mentions": a["n_mentions"].reindex(ents).fillna(0)
                .astype("int64").to_numpy(),
            "n_pages": a["n_pages"].reindex(ents).fillna(0)
                .astype("int64").to_numpy(),
            "first_us": a["first_us"].reindex(ents).fillna(0)
                .astype("int64").to_numpy(),
            "last_us": a["last_us"].reindex(ents).fillna(0)
                .astype("int64").to_numpy(),
            "n_facts_out": fo.reindex(ents).fillna(0)
                .astype("int64").to_numpy(),
            "n_facts_in": fi.reindex(ents).fillna(0)
                .astype("int64").to_numpy(),
            "top_pred": top["pred"].reindex(ents).fillna("").to_numpy(),
            "top_pred_n": top["n"].reindex(ents).fillna(0)
                .astype("int64").to_numpy()})

    return tagged.groupby("part").map_groups(assemble,
                                             batch_format="pandas")


def functional_violations(facts_ds, preds: list[str],
                          n_parts: int | None = None):
    """KG SCHEMA QA: for predicates DECLARED functional (one object per
    subject — the `pred_stats` detector or an ontology supplies the
    list), every violating (subject, predicate) slot with its distinct
    object count and the full conflicting object set — the triage
    table a KG curator works through before `current_facts` supersedes
    by recency. Objects are emitted lexicographically sorted and
    '|'-joined so the row is deterministic and SQL-replayable.

    Shape: stateless predicate filter → per-batch distinct combiner →
    ONE (pred, subj)-hash exchange (a slot's objects fully colocate) →
    vectorized per-partition groupby keeping only n_obj ≥ 2 slots.
    Returns (subj, pred, n_obj, objs).
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    pred_set = pa.array(sorted(preds), pa.string())

    def combine(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["pred"], value_set=pred_set))
        g = (pa.table({"subj": t["subj"], "pred": t["pred"],
                       "obj": t["obj"]})
             .group_by(["subj", "pred", "obj"]).aggregate([]))
        key = pc.binary_join_element_wise(g["pred"], g["subj"], "\x1f")
        return g.append_column(
            "part", pa.array(fast_part_hash(key, n_parts)))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        d = (df.drop_duplicates(["subj", "pred", "obj"])
             .sort_values(["subj", "pred", "obj"]))
        # vectorized slot sizes first; the per-group string join only
        # ever touches the (small) violating subset
        sizes = d.groupby(["subj", "pred"])["obj"].transform("size")
        v = d[sizes >= 2]
        g = v.groupby(["subj", "pred"], as_index=False).agg(
            n_obj=("obj", "count"),
            objs=("obj", "|".join))
        g["n_obj"] = g["n_obj"].astype("int64")
        return g[["subj", "pred", "n_obj", "objs"]]

    return (facts_ds.map_batches(combine, batch_format="pyarrow")
            .groupby("part").map_groups(finish, batch_format="pandas"))


def rdfs_type_closure(facts_ds, n_classes: int = 7,
                      n_parts: int | None = None):
    """RDFS entailment materialization: every entity's full type set
    under a subclass hierarchy — the forward-chaining step a triple
    store runs at load time (rdfs9: ``(x type C), (C subClassOf D) ->
    (x type D)``).

    The ontology here is the deterministic sandbox stand-in: entity
    ``ent:e{n}`` is asserted class ``cls:c{n % n_classes}``, and the
    class tree is the binary heap layout ``parent(c_k) = c_{(k-1)//2}``
    rooted at ``c0`` (ontologies are small and static — broadcasting
    the precomputed reflexive-transitive ancestor closure is the
    at-scale design, exactly like the alias dictionary in
    canonicalization; the corpus-sized side streams).

    Shape: per-batch DISTINCT entity combiner over subj ∪ obj → one
    entity-hash exchange for global distinct → stateless ancestor
    explode (closure captured; ≤ log2(n_classes)+1 types per entity).
    Output: ``(subj, type)``, distinct by construction."""
    import re

    import pandas as pd

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts

    n_parts = n_parts or default_parts(1.0)

    # reflexive-transitive ancestor closure of the class tree (tiny)
    anc: dict[int, list[int]] = {}
    for k in range(n_classes):
        chain, cur = [k], k
        while cur > 0:
            cur = (cur - 1) // 2
            chain.append(cur)
        anc[k] = chain

    ent_re = r"^ent:e[0-9]+$"

    def distinct_entities(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        nodes = pa.chunked_array([t["subj"], t["obj"]])
        m = pc.match_substring_regex(nodes, ent_re)
        ents = pc.unique(nodes.filter(m))
        return pa.table({
            "e": ents,
            "part": pa.array(fast_part_hash(ents, n_parts)),
        })

    def explode_types(df: pd.DataFrame) -> pd.DataFrame:
        ents = df["e"].drop_duplicates()
        k = (ents.str.extract(r"^ent:e([0-9]+)$", expand=False)
             .astype("int64") % n_classes)
        chains = k.map(anc)
        out = pd.DataFrame({"subj": ents, "a": chains}).explode("a")
        return pd.DataFrame({
            "subj": out["subj"],
            "type": "cls:c" + out["a"].astype("int64").astype(str),
        })

    return (facts_ds.map_batches(distinct_entities, batch_format="pyarrow")
            .groupby("part").map_groups(explode_types,
                                        batch_format="pandas"))


def term_dictionary(quads_ds, n_buckets: int | None = None):
    """Dictionary encoding of the KG — the triple-store load step that
    assigns every distinct term (graph ∪ subj ∪ pred ∪ obj) a dense
    int64 id equal to its 1-based rank in lexicographic order (so the
    oracle is ``row_number() OVER (ORDER BY term)``). Returns
    ``(tid, term)``.

    Shape (the TeraSort/global-rank range-partition pattern of
    ``relational.global_rank_orders``): per-batch DISTINCT-term
    combiner → one term-hash exchange for global distinct → order-
    preserving 8-byte integer key (UTF-8 byte order == codepoint order,
    and suffix-\\x00 padding preserves prefix order) → key-range
    bucketing from one min/max pass → per-bucket counts (n_buckets-
    sized driver state, bounded by configuration) → per-bucket sort +
    prefix offset. Equal-key terms (same first 8 bytes) land in one
    bucket by construction, so the within-bucket full-string sort makes
    the global order exact. No task ever holds more than ~1/n_buckets
    of the vocabulary."""
    import numpy as np
    import pandas as pd
    import ray
    from ray.data.aggregate import Max, Min, Sum

    from ..functions.hashing import fast_part_hash
    from ..runtime import cluster_cpus, default_parts

    n_parts = default_parts(1.0)
    if n_buckets is None:
        n_buckets = max(8, 2 * cluster_cpus())

    def distinct_terms(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols = [t[c] for c in ("graph", "subj", "pred", "obj")
                if c in t.column_names]
        terms = pc.unique(pa.chunked_array(cols))
        return pa.table({
            "term": terms,
            "part": pa.array(fast_part_hash(terms, n_parts)),
        })

    def part_distinct(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        terms = pc.unique(t["term"])
        # order-preserving int63 key: first 8 UTF-8 bytes, \x00-padded,
        # big-endian, halved to stay in int64 (>>1 is monotonic)
        keys = [int.from_bytes(s.encode("utf-8")[:8].ljust(8, b"\x00"),
                               "big") >> 1
                for s in terms.to_pylist()]
        return pa.table({"term": terms,
                         "key": pa.array(keys, pa.int64())})

    dterms = (quads_ds.map_batches(distinct_terms, batch_format="pyarrow")
              .groupby("part").map_groups(part_distinct,
                                          batch_format="pyarrow")
              .materialize())
    mm = dterms.aggregate(Min("key"), Max("key"))
    if not mm or mm.get("min(key)") is None:
        return dterms.map_batches(
            lambda t: pa.table({"tid": pa.array([], pa.int64()),
                                "term": pa.array([], pa.string())}),
            batch_format="pyarrow")
    lo, hi = int(mm["min(key)"]), int(mm["max(key)"])
    span = hi - lo + 1

    def bucketize(t: pa.Table) -> pa.Table:
        # Python-int arithmetic: (key-lo)*n_buckets overflows int64 on
        # the full 63-bit key span
        b = [((k - lo) * n_buckets) // span for k in t["key"].to_pylist()]
        return t.append_column("bucket", pa.array(b, pa.int64()))

    bucketed = dterms.map_batches(bucketize,
                                  batch_format="pyarrow").materialize()

    def count_part(t: pa.Table) -> pa.Table:
        g = pa.table({"bucket": t["bucket"],
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        return (g.group_by("bucket").aggregate([("n", "sum")])
                .rename_columns(["bucket", "n"]))

    counts = (bucketed.map_batches(count_part, batch_format="pyarrow")
              .groupby("bucket").aggregate(Sum("n")).take_all())
    counts.sort(key=lambda r: r["bucket"])
    offsets, acc = {}, 0
    for r in counts:
        offsets[r["bucket"]] = acc
        acc += r["sum(n)"]
    off_ref = ray.put(offsets)

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)[int(g["bucket"].iloc[0])]
        g = g.sort_values("term")
        return pd.DataFrame({
            "tid": off + 1 + np.arange(len(g), dtype=np.int64),
            "term": g["term"].to_numpy(),
        })

    return bucketed.groupby("bucket").map_groups(rank_bucket,
                                                 batch_format="pandas")


def encode_quads(quads_ds, dict_ds=None, n_parts: int | None = None,
                 broadcast_max_terms: int = 5_000_000):
    """Dictionary-encoded quads — the other half of the triple-store
    load: every (graph, subj, pred, obj) string is replaced by its
    dense ``term_dictionary`` id, yielding the integer quad table a
    store actually indexes. Returns ``(g_id, s_id, p_id, o_id)``.

    Auto-routed like the entity map / minhash clustering: a dictionary
    ≤ ``broadcast_max_terms`` rows is collected as ONE Arrow table
    (Arrow-refs, no driver pandas) and broadcast via ``ray.put`` —
    encoding is then a single stateless pass with four ``pc.index_in``
    lookups per batch, zero exchanges (measured 110 s → ~2 s at ×50 /
    747k terms). Above the threshold each column resolves via the
    broadcast-free co-partitioned tag-union merge (`graph._attach_val`
    — ONE exchange per column, no join operator, no driver dict): the
    4-way hash-join plan of a store's bulk loader, for dictionaries
    that outgrow the object-store broadcast (~100s of MB of terms).
    Both paths are equivalence-tested."""
    from ..runtime import default_parts
    from ..stages.graph import _attach_val, _collect_table

    n_parts = n_parts or default_parts(1.0)
    if dict_ds is None:
        dict_ds = term_dictionary(quads_ds)
    dict_ds = dict_ds.materialize()

    if dict_ds.count() <= broadcast_max_terms:
        import pyarrow.compute as pc
        import ray

        vocab = _collect_table(dict_ds, pa.schema([
            ("tid", pa.int64()), ("term", pa.string())]))
        terms_ref = ray.put(vocab["term"].combine_chunks())
        tids_ref = ray.put(vocab["tid"].combine_chunks())

        def lookup(t: pa.Table) -> pa.Table:
            terms, tids = ray.get(terms_ref), ray.get(tids_ref)
            out = {}
            for col, name in (("graph", "g_id"), ("subj", "s_id"),
                              ("pred", "p_id"), ("obj", "o_id")):
                idx = pc.index_in(t[col], value_set=terms)
                out[name] = pc.take(tids, idx)
            return pa.table(out)

        return quads_ds.map_batches(lookup, batch_format="pyarrow")

    # _attach_val carries the attached value as a string column; tids
    # ride as strings through the exchanges and cast back at the end
    vals = dict_ds.map_batches(
        lambda t: pa.table({"node": t["term"],
                            "val": t["tid"].cast(pa.string())}),
        batch_format="pyarrow")

    ds = quads_ds.map_batches(
        lambda t: t.select(["graph", "subj", "pred", "obj"]),
        batch_format="pyarrow")
    for col, out in (("graph", "g_id"), ("subj", "s_id"),
                     ("pred", "p_id"), ("obj", "o_id")):
        ds = _attach_val(ds, vals, key_col=col, out_col=out,
                         n_parts=n_parts)

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            c: pc.cast(t[c], pa.int64())
            for c in ("g_id", "s_id", "p_id", "o_id")})

    return ds.map_batches(finish, batch_format="pyarrow")


def kg_delta(quads_a, quads_b, n_parts: int | None = None):
    """Incremental-KG maintenance delta: classify every canonical quad
    of two KG builds as ``kept`` (in both), ``removed`` (only in A) or
    ``added`` (only in B). The interesting semantics come free from
    canonicalization+dedup upstream: a quad asserted by several pages
    survives a partial crawl retraction — it is ``removed`` only when
    its LAST source page goes.

    Shape: both quad streams ride ONE exchange hash-partitioned on the
    full 6-column quad identity (tag union — side bit, no join
    operator); the per-partition finisher groups by identity and maps
    the side set to the status. Returns the 6 identity columns +
    ``status``."""
    import numpy as np
    import pandas as pd

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts

    n_parts = n_parts or default_parts(1.0)
    key = ["graph", "subj", "pred", "obj", "obj_is_literal",
           "obj_datatype"]

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            t = t.select(key)
            k = t[key[0]]
            for c in key[1:4]:
                k = pc.binary_join_element_wise(k, t[c], "\x1f")
            out = t.append_column(
                "side", pa.array(np.full(t.num_rows, side, np.int8)))
            return out.append_column(
                "part", pa.array(fast_part_hash(k, n_parts)))
        return fn

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key, sort=False)["side"].agg(["min", "max"])
        status = np.where(g["min"] != g["max"], "kept",
                          np.where(g["min"] == 0, "removed", "added"))
        out = g.reset_index()[key]
        out["status"] = status
        return out

    return (quads_a.map_batches(tag(0), batch_format="pyarrow")
            .union(quads_b.map_batches(tag(1), batch_format="pyarrow"))
            .groupby("part").map_groups(finish, batch_format="pandas"))


def negative_samples(facts_ds, k: int = 4, n_parts: int | None = None,
                     broadcast_max_terms: int = 5_000_000):
    """FILTERED NEGATIVE SAMPLING — the KG-embedding training-prep step
    (TransE-family corruption, Bordes et al. 2013): for every distinct
    true triple and slot j < k, corrupt the object to a deterministic
    pseudo-random entity and keep only corruptions that are NOT true
    triples (the standard "filtered setting").

    Deterministic and SQL-replayable: the candidate is the entity whose
    dense lexicographic id (``term_dictionary`` over the fact stream's
    subject∪object set) equals ``md5_60("neg:<s>|<p>|<o>|<j>") mod
    n_entities``. Shape:
      1. distinct triples (one combiner exchange, reused for the
         filter side),
      2. entity dictionary via the TeraSort-rank ``term_dictionary``
         (bounded driver state),
      3. candidate generation: stateless map, k rows per triple,
      4. id→entity resolution auto-routed like ``encode_quads``
         (object-store broadcast + ``pc.take`` under
         ``broadcast_max_terms``, co-partitioned ``_attach_val`` merge
         above it),
      5. the filter: ONE tag-union exchange hash-partitioned on
         (subj, pred) — every true (s,p,o) co-locates with every
         candidate (s,p,neg), so the anti-join is a per-partition
         vectorized merge, no all-pairs stage.

    Returns (subj, pred, obj, slot, neg_obj)."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    from ..stages.graph import _attach_val, _collect_table, _distinct

    n_parts = n_parts or default_parts(1.0)
    tr = _distinct(facts_ds, ["subj", "pred", "obj"]).materialize()
    ents = term_dictionary(
        tr.map_batches(lambda t: t.select(["subj", "obj"]),
                       batch_format="pyarrow")).materialize()
    n_ents = ents.count()
    if n_ents == 0:
        return tr.map_batches(
            lambda t: pa.table({"subj": pa.array([], pa.string()),
                                "pred": pa.array([], pa.string()),
                                "obj": pa.array([], pa.string()),
                                "slot": pa.array([], pa.int64()),
                                "neg_obj": pa.array([], pa.string())}),
            batch_format="pyarrow")

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        s = np.repeat(df["subj"].to_numpy(object), k)
        p = np.repeat(df["pred"].to_numpy(object), k)
        o = np.repeat(df["obj"].to_numpy(object), k)
        j = np.tile(np.arange(k, dtype=np.int64), len(df))
        cidx = np.fromiter(
            (int(hashlib.md5(f"neg:{s_}|{p_}|{o_}|{j_}".encode())
                 .hexdigest()[:15], 16) % n_ents
             for s_, p_, o_, j_ in zip(s, p, o, j)),
            dtype=np.int64, count=len(s))
        return pd.DataFrame({"subj": s, "pred": p, "obj": o, "slot": j,
                             "tid": cidx + 1})  # dict ids are 1-based

    cands = tr.map_batches(gen, batch_format="pandas")

    if n_ents <= broadcast_max_terms:
        vocab = _collect_table(ents, pa.schema([
            ("tid", pa.int64()), ("term", pa.string())]))
        vocab = vocab.sort_by("tid")
        terms_ref = ray.put(vocab["term"].combine_chunks())

        def lookup(t: pa.Table) -> pa.Table:
            terms = ray.get(terms_ref)
            neg = pc.take(terms, pc.subtract(t["tid"],
                                             pa.scalar(1, pa.int64())))
            return pa.table({"subj": t["subj"], "pred": t["pred"],
                             "obj": t["obj"], "slot": t["slot"],
                             "neg_obj": neg})

        resolved = cands.map_batches(lookup, batch_format="pyarrow")
    else:
        vals = ents.map_batches(
            lambda t: pa.table({"node": t["tid"].cast(pa.string()),
                                "val": t["term"]}),
            batch_format="pyarrow")
        keyed = cands.map_batches(
            lambda t: t.append_column("tid_s", t["tid"].cast(pa.string())),
            batch_format="pyarrow")
        resolved = _attach_val(keyed, vals, key_col="tid_s",
                               out_col="neg_obj", n_parts=n_parts)
        resolved = resolved.map_batches(
            lambda t: t.select(["subj", "pred", "obj", "slot", "neg_obj"]),
            batch_format="pyarrow")

    def tag(is_true: int):
        def fn(t: pa.Table) -> pa.Table:
            key = pc.binary_join_element_wise(t["subj"], t["pred"], "\x1f")
            out = pa.table({
                "subj": t["subj"], "pred": t["pred"], "obj": t["obj"],
                "slot": (t["slot"] if "slot" in t.column_names
                         else pa.array(np.full(t.num_rows, -1, np.int64))),
                "neg_obj": (t["neg_obj"] if "neg_obj" in t.column_names
                            else t["obj"]),
                "is_true": pa.array(
                    np.full(t.num_rows, is_true, np.int8)),
            })
            return out.append_column(
                "part", pa.array(fast_part_hash(key, n_parts)))
        return fn

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        truth = df[df["is_true"] == 1]
        cand = df[df["is_true"] == 0]
        m = cand.merge(
            truth[["subj", "pred", "neg_obj"]].drop_duplicates(),
            on=["subj", "pred", "neg_obj"], how="left", indicator=True)
        out = m[m["_merge"] == "left_only"]
        return out[["subj", "pred", "obj", "slot", "neg_obj"]]

    return (resolved.map_batches(tag(0), batch_format="pyarrow")
            .union(tr.map_batches(tag(1), batch_format="pyarrow"))
            .groupby("part").map_groups(anti, batch_format="pandas"))


SHACL_REQUIRED = ("kg:fetchedAt", "kg:lang", "kg:domain", "kg:title",
                  "kg:state")


def shacl_report(quads_ds, target_class: str = "kg:WebPage",
                 required=SHACL_REQUIRED, n_parts: int | None = None):
    """SHACL-style SHAPE VALIDATION: for every subject typed
    ``target_class`` (rdf:type), report each REQUIRED predicate it
    fails to assert — the sh:minCount 1 property-shape check a KG
    publisher runs before release (the malformed-page contract makes
    violations a deterministic part of this corpus: P4-contained pages
    emit constant quads but no meta quads, so they lack kg:title /
    kg:state). Complements `functional_violations` (max-cardinality)
    with the min-cardinality half.

    Shape: per-batch distinct (subj, pred) combiner (+ the rdf:type
    target rows tagged along) → ONE subject-hash exchange → per-subject
    vectorized set difference against the constant required tuple
    (closure broadcast — vocabulary-sized). Returns (subj,
    missing_pred), one row per violation."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    req = list(required)

    def combine(t: pa.Table) -> pa.Table:
        is_type = pc.and_(pc.equal(t["pred"], "rdf:type"),
                          pc.equal(t["obj"], target_class))
        keep = pc.or_(is_type, pc.is_in(
            t["pred"], value_set=pa.array(req, pa.string())))
        t = t.filter(keep)
        g = (pa.table({"subj": t["subj"], "pred": t["pred"]})
             .group_by(["subj", "pred"]).aggregate([]))
        return g.append_column(
            "part", pa.array(fast_part_hash(g["subj"], n_parts)))

    def check(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["subj", "pred"])
        typed = df.loc[df["pred"] == "rdf:type", "subj"].unique()
        have = df[df["pred"] != "rdf:type"]
        full = pd.MultiIndex.from_product(
            [typed, req], names=["subj", "missing_pred"]).to_frame(
            index=False)
        m = full.merge(have.rename(columns={"pred": "missing_pred"}),
                       on=["subj", "missing_pred"], how="left",
                       indicator=True)
        out = m[m["_merge"] == "left_only"]
        # typed Arrow output: an empty object-dtype frame makes Ray's
        # block-size estimate log an error per empty partition
        return pa.table({c: pa.array(out[c].to_numpy(dtype=object),
                                     pa.string())
                         for c in ("subj", "missing_pred")})

    return (quads_ds.map_batches(combine, batch_format="pyarrow")
            .groupby("part").map_groups(check, batch_format="pandas"))


INVERSE_PREDS = (("kg:acquired", "kg:acquiredBy"),
                 ("kg:basedIn", "kg:hosts"))


def inverse_closure(facts_ds, pairs=INVERSE_PREDS,
                    n_parts: int | None = None):
    """owl:inverseOf ENTAILMENT materialization: for each declared
    inverse pair (p, p⁻), every asserted ``s p o`` entails ``o p⁻ s``
    — the OWL companion of `rdfs_type_closure`'s rdfs9 chaining, and
    the step that makes a store answer ``?x kg:acquiredBy ?y`` without
    query-time rewriting. Returns the DISTINCT entailed triples only
    (consumers union them with the asserted stream).

    Shape: one stateless flip map (constant pred dictionary in the
    closure) + one (subj, pred, obj)-hash distinct exchange."""
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    fwd = {p: i for p, i in pairs}

    def flip(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t["pred"],
                        value_set=pa.array(list(fwd), pa.string()))
        t = t.filter(mask)
        import numpy as np
        import pandas as pd
        inv = pd.Series(t["pred"].to_pandas()).map(fwd).to_numpy(
            dtype=object)
        out = pa.table({
            "subj": t["obj"], "pred": pa.array(inv, pa.string()),
            "obj": t["subj"]})
        key = pc.binary_join_element_wise(
            out["subj"], out["pred"], out["obj"], "\x1f")
        return out.append_column(
            "part", pa.array(fast_part_hash(key, n_parts)))

    def distinct(df):
        return df.drop_duplicates(["subj", "pred", "obj"])[
            ["subj", "pred", "obj"]]

    return (facts_ds.map_batches(flip, batch_format="pyarrow")
            .groupby("part").map_groups(distinct,
                                        batch_format="pandas"))


def facts_as_of(facts_ds, pages_ds, as_of_us: int,
                n_parts: int | None = None):
    """POINT-IN-TIME (time-travel) KG query: the value each (subject,
    predicate) slot held AS OF a given instant — the episode of
    `fact_intervals` most recently OPENED at or before the cutoff (a
    value persists until superseded, so an episode whose last
    assertion predates the cutoff still holds). Slots first asserted
    after the cutoff are absent. `current_facts` is the special case
    ``as_of = +inf``.

    Shape: the episode stream (slot-cardinality, far below the fact
    stream) filtered to ``from_ts <= as_of`` → ONE (subj, pred)-hash
    exchange keeping the max-episode row per slot. Returns (subj,
    pred, obj, as_of_from)."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    eps = fact_intervals(facts_ds, pages_ds, n_parts=n_parts)

    def pick(t: pa.Table) -> pa.Table:
        from_us = pc.cast(t["from_ts"], pa.int64())
        t = t.filter(pc.less_equal(from_us, as_of_us))
        out = pa.table({"subj": t["subj"], "pred": t["pred"],
                        "obj": t["obj"], "from_ts": t["from_ts"],
                        "episode_no": t["episode_no"]})
        return out.append_column(
            "part", pa.array(fast_part_hash(out["subj"], n_parts)))

    def keep_last(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["subj", "pred", "episode_no"])
        df = df.drop_duplicates(["subj", "pred"], keep="last")
        return pd.DataFrame({
            "subj": df["subj"], "pred": df["pred"], "obj": df["obj"],
            "as_of_from": df["from_ts"]})

    return (eps.map_batches(pick, batch_format="pyarrow")
            .groupby("part").map_groups(keep_last,
                                        batch_format="pandas"))


def literal_stats(quads_ds, n_parts: int | None = None):
    """LITERAL QA PROFILE per predicate — the data-quality scan a
    publisher runs before loading a store: over literal objects only,
    assertion volume, distinct lexical forms, datatyped share, exact
    min/max lexical length, and how many literals embed a newline
    (the serialization hazard the reference's DC extractor explicitly
    preserves, DublinCoreContentHandler.java:93-94 — M4's
    newline-in-literal contract made measurable).

    Shape: per-batch vectorized partials (Arrow string kernels; one
    row per predicate per batch) → ONE pred-hash exchange folding
    sums/mins/maxes — distinct lexical forms ride the same exchange
    as per-batch DISTINCT (pred, obj) tag rows, exact because a
    predicate's rows co-locate. Returns (pred, n_literals, n_forms,
    n_typed, min_len, max_len, n_newline)."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    def combine(t: pa.Table) -> pa.Table:
        t = t.filter(pc.cast(t["obj_is_literal"], pa.bool_()))
        lens = pc.utf8_length(t["obj"])
        typed = pc.cast(pc.not_equal(
            pc.coalesce(t["obj_datatype"], ""), ""), pa.int64())
        nl = pc.cast(pc.greater(
            pc.count_substring(t["obj"], "\n"), 0), pa.int64())
        base = pa.table({
            "pred": t["pred"], "obj": t["obj"],
            "len": pc.cast(lens, pa.int64()),
            "typed": typed, "nl": nl})
        # per-(pred, obj) partials: assertion count + typed/newline
        # ASSERTION sums (exact — a form asserted with and without a
        # datatype contributes each assertion individually); len is
        # constant within the group (min is just the fold op)
        g = (base.group_by(["pred", "obj"])
             .aggregate([("len", "min"), ("len", "count"),
                         ("typed", "sum"), ("nl", "sum")]))
        out = pa.table({
            "pred": g["pred"], "obj": g["obj"],
            "len": g["len_min"], "n": g["len_count"],
            "tn": g["typed_sum"], "nn": g["nl_sum"]})
        return out.append_column(
            "part", pa.array(fast_part_hash(out["pred"], n_parts)))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = (df.groupby(["pred", "obj"], as_index=False)
              .agg(len=("len", "min"), n=("n", "sum"),
                   tn=("tn", "sum"), nn=("nn", "sum")))
        g = (df.groupby("pred")
             .agg(n_literals=("n", "sum"), n_forms=("obj", "nunique"),
                  n_typed=("tn", "sum"), min_len=("len", "min"),
                  max_len=("len", "max"), n_newline=("nn", "sum"))
             .reset_index())
        for c in ("n_literals", "n_forms", "n_typed", "min_len",
                  "max_len", "n_newline"):
            g[c] = g[c].astype("int64")
        return g[["pred", "n_literals", "n_forms", "n_typed",
                  "min_len", "max_len", "n_newline"]]

    return (quads_ds.map_batches(combine, batch_format="pyarrow")
            .groupby("part").map_groups(fold, batch_format="pandas"))
