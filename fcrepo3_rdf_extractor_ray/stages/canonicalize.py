"""Entity canonicalization — the wide shuffle stage (north rule).

Flow (SURVEY.md §7.1 step 5):

1. per-batch combiner: unique normalized surfaces → (norm, sip64) —
   bounds every shuffle key to ≤ #blocks rows before the exchange;
2. salted groupby on the SipHash-64 key (explicit skew handling for head
   entities: ``salt = sip64(src-dependent) % n_salts``, two-phase
   aggregate — min-ID is associative so partial→final is exact);
3. alias-dictionary + embedding linking (broadcast small side via
   ``ray.put`` once, read per actor in ``__init__`` — never re-shipped
   per batch);
4. min-ID union-find cluster resolution across keys (two surfaces linked
   to one entity merge; cluster id = lexicographic min candidate IRI).
   Cluster edges are (norm, candidate) pairs — #unique-entities scale,
   tiny next to the corpus — resolved driver-side; the iterate-to-
   fixpoint Dataset variant is the stated 100TB path (SURVEY.md §7.4).
5. resolution map applied back to quads either as a broadcast lookup
   (default; mapping ≈ #entities) or a Ray-native hash join
   (``resolve_quads_join`` — the at-scale path when the map outgrows a
   worker's heap).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..runtime import pool as _pool
from ..functions.hashing import siphash64_batch
from ..functions.normalize import skolem_iri
from .extract import SURF_PREFIX


def _batch_unique_norms(t: pa.Table) -> pa.Table:
    """Combiner: extract unresolved surfaces from a quads batch, unique
    them within the batch, attach the SipHash-64 shuffle key."""
    chunks = []
    for col in ("subj", "obj"):
        c = t[col]
        if isinstance(c, pa.Array):
            c = pa.chunked_array([c])
        filtered = c.filter(pc.starts_with(c, SURF_PREFIX))
        chunks.extend(filtered.chunks)
    arr = pa.chunked_array(chunks or [pa.array([], pa.string())])
    uniq = pc.unique(arr)
    norms = pc.utf8_slice_codeunits(uniq, len(SURF_PREFIX), 2**31 - 1)
    h = siphash64_batch(norms.to_pylist())
    return pa.table({
        "norm": norms,
        "sip64": pa.array(h.astype(np.int64), pa.int64()),  # int64 for stable groupby
    })


def unique_norms(quads_ds, n_salts: int = 1, n_parts: int | None = None):
    """Distinct (norm, sip64) via salted partition-grouped distinct.

    Shuffle key = ``sip64 mod n_parts`` (same key must co-locate); the
    per-partition distinct is a vectorized Arrow group_by — one Python
    call per partition, never per key. With ``n_salts > 1`` a first
    exchange on (part, salt) splits a head key's duplicate rows across
    salts (distinct is idempotent, so two-phase is exact); the combiner
    in ``_batch_unique_norms`` already bounds duplicates to ≤ #blocks."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(0.5)
    ds = quads_ds.map_batches(_batch_unique_norms, batch_format="pyarrow")

    def add_part_salt(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["sip64"], n_parts - 1), pa.int32())
        t = t.append_column("part", part)
        salt = np.arange(t.num_rows, dtype=np.int64) % n_salts
        return t.append_column("salt", pa.array(salt.astype(np.int32)))

    def distinct(keys):
        def fn(t: pa.Table) -> pa.Table:
            g = t.group_by(keys + ["sip64", "norm"]).aggregate([])
            return g.rename_columns(keys + ["sip64", "norm"])

        return fn

    ds = ds.map_batches(add_part_salt, batch_format="pyarrow")
    ds = ds.repartition(n_parts)
    if n_salts > 1:
        ds = ds.groupby(["part", "salt"]).map_groups(
            distinct(["part", "salt"]), batch_format="pyarrow"
        ).drop_columns(["salt"])
    else:
        ds = ds.drop_columns(["salt"])
    ds = ds.groupby(["part"]).map_groups(distinct(["part"]),
                                         batch_format="pyarrow")
    return ds.select_columns(["norm", "sip64"])


class AliasLinkStage:
    """Actor stage: (norm, sip64) → (norm, candidate_id).

    The alias dictionary (+ embedding matrix) is fetched from the object
    store once per actor (``ray.get`` in ``__init__``), mirroring the
    reference's per-worker interned vocabulary (RdfVocabulary.java:45-81).
    Surfaces missing from the dictionary fall back to embedding-cosine
    match against alias embeddings when close enough, else a skolem IRI.
    """

    def __init__(self, alias_ref, emb_threshold: float = 0.99):
        alias_tbl: pa.Table = ray.get(alias_ref)
        surfaces = alias_tbl["surface"].to_pylist()
        ids = alias_tbl["entity_id"].to_pylist()
        # duplicate surfaces: last wins (dict semantics of the original
        # per-row path); the dedup'd arrays feed the vectorized index_in
        import pandas as pd

        s = pd.Series(ids, index=surfaces)
        s = s[~s.index.duplicated(keep="last")]
        self.surface_arr = pa.array(s.index.to_numpy(dtype=object),
                                    pa.string())
        self.id_arr = pa.array(s.to_numpy(dtype=object), pa.string())
        emb = np.asarray(alias_tbl["embedding"].to_pylist(), dtype=np.float64)
        if emb.size:
            self.emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        else:
            self.emb = emb
        self.emb_ids = alias_tbl["entity_id"].to_pylist()
        self.emb_threshold = emb_threshold

    @staticmethod
    def _surface_embedding(norm: str) -> np.ndarray:
        """Deterministic 16-dim char-ngram hash embedding of a surface."""
        from ..functions.hashing import siphash64_str

        v = np.zeros(16, dtype=np.float64)
        for i in range(len(norm) - 2):
            v[siphash64_str(norm[i : i + 3]) % 16] += 1.0
        n = np.linalg.norm(v)
        return v / n if n else v

    def __call__(self, t: pa.Table) -> pa.Table:
        # dict hits resolved in ONE Arrow pass (index_in + take); only
        # the misses pay Python — their embeddings batch into a single
        # (n_miss × 16) @ (16 × n_alias) matmul instead of a per-norm
        # probe + matmul (this sits on the flagship path)
        import pyarrow.compute as pc

        norm_col = t["norm"].combine_chunks() if isinstance(
            t["norm"], pa.ChunkedArray) else t["norm"]
        idx = pc.index_in(norm_col, value_set=self.surface_arr)
        cands = pc.take(self.id_arr, idx).to_numpy(zero_copy_only=False)
        miss = pc.is_null(idx).to_numpy(zero_copy_only=False)
        if miss.any():
            miss_norms = np.asarray(norm_col.to_pylist(),
                                    dtype=object)[miss]
            if len(self.emb):
                M = np.stack([self._surface_embedding(n)
                              for n in miss_norms])
                sims = M @ self.emb.T
                j = sims.argmax(axis=1)
                best = sims[np.arange(len(j)), j]
                resolved = np.array(
                    [self.emb_ids[jj] if bb >= self.emb_threshold
                     else skolem_iri(n)
                     for n, jj, bb in zip(miss_norms, j, best)],
                    dtype=object)
            else:
                resolved = np.array([skolem_iri(n) for n in miss_norms],
                                    dtype=object)
            cands[miss] = resolved
        return pa.table({
            "norm": t["norm"],
            "candidate_id": pa.array(cands, pa.string()),
        })


def union_find_min_id(pairs: list[tuple[str, str]]) -> dict[str, str]:
    """Min-ID cluster resolution over bipartite (norm, candidate) edges.
    Two norms merge when they share a candidate id; the cluster's
    canonical IRI is the lexicographic min candidate. Driver-side —
    edges are #entities-scale (SURVEY.md §7.4 documents the Dataset
    iterate-to-fixpoint variant for when they are not)."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(a: str, b: str):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for norm, cand in pairs:
        union("n\x00" + norm, "c\x00" + cand)

    # canonical candidate per cluster root = min candidate id
    best: dict[str, str] = {}
    for _, cand in pairs:
        r = find("c\x00" + cand)
        if r not in best or cand < best[r]:
            best[r] = cand
    out: dict[str, str] = {}
    for norm, _ in pairs:
        out[norm] = best[find("n\x00" + norm)]
    return out


def _safe_join_partitions(small_side_count: int, cap: int = 64) -> int:
    """Join partition count sized so every hash partition of the smaller
    side stays non-empty with overwhelming probability — Ray 2.49's hash
    join materializes empty partitions as schema-less blocks and the
    pyarrow join then fails ("No match for key field on right side").
    ≥64 uniformly-hashed keys per partition keeps P(empty) ≪ 1e-20.

    Also capped at 2× the session's CPUs: the hash-join operator spawns
    an aggregator actor per partition, and a partition count far above
    the CPU count over-subscribes the node (observed: 64 partitions on
    an 8-CPU session thrash 100+ worker processes and stall)."""
    from ..runtime import cluster_cpus

    return max(1, min(cap, 2 * cluster_cpus(), small_side_count // 64))


def union_find_labels_ds(edges_ds, max_iters: int = 16,
                         num_partitions: int | None = None):
    """Distributed min-ID cluster resolution over the bipartite
    (norm, candidate) edge Dataset — the at-scale path promised in
    SURVEY.md §7.4 for when the edge list outgrows the driver.

    Rides the engine's contraction union-find
    (``stages.graph.connected_components`` — O(levels) shuffles,
    independent of graph diameter) with a PREFIX TRICK: norms are tagged
    ``n:``, candidates ``c:``; since ``"c:" < "n:"`` lexicographically
    and every component of the bipartite graph contains at least one
    candidate, the component's min tagged name is always
    ``c:<min candidate id>`` — exactly the min-ID label the driver-side
    ``union_find_min_id`` computes (equivalence-tested).

    Returns the (norm, label) Dataset — fully driver-free; feed it to
    ``resolve_quads_join_ds`` to keep the whole resolve path streaming.

    ``max_iters`` is accepted for API compatibility but unused — the
    contraction scheme's exactness does not depend on iteration count."""
    del max_iters  # contraction UF is exact in a fixed number of passes
    from .graph import connected_components

    def tag(t: pa.Table) -> pa.Table:
        n = pc.binary_join_element_wise(
            pa.array(["n:"] * t.num_rows, pa.string()), t["norm"], "")
        c = pc.binary_join_element_wise(
            pa.array(["c:"] * t.num_rows, pa.string()),
            t["candidate_id"], "")
        return pa.table({"a": n, "b": c})

    cc = connected_components(
        edges_ds.map_batches(tag, batch_format="pyarrow"),
        a_col="a", b_col="b",
        n_parts=num_partitions)  # None → connected_components derives
                                 # the count from the cluster size

    def out(t: pa.Table) -> pa.Table:
        mask = pc.starts_with(t["node"], "n:")
        node = t["node"].filter(mask)
        comp = t["component"].filter(mask)
        big = 2**31 - 1
        return pa.table({"norm": pc.utf8_slice_codeunits(node, 2, big),
                         "label": pc.utf8_slice_codeunits(comp, 2, big)})

    return cc.map_batches(out, batch_format="pyarrow")


def union_find_min_id_dataset(edges_ds, max_iters: int = 16,
                              num_partitions: int | None = None
                              ) -> dict[str, str]:
    """Dict-returning wrapper over ``union_find_labels_ds`` for callers
    that broadcast the map (small-scale fast path)."""
    rows = union_find_labels_ds(edges_ds, max_iters=max_iters,
                                num_partitions=num_partitions).take_all()
    return {r["norm"]: r["label"] for r in rows}


def build_entity_map(quads_ds, alias_table: pa.Table, n_salts: int = 1,
                     driver_link_threshold: int = 100_000) -> dict[str, str]:
    """norm → canonical IRI for every unresolved surface in ``quads_ds``.

    The distinct-norms set is #unique-entities scale. At or below
    ``driver_link_threshold`` norms, alias linking AND union-find run on
    the driver (no actor pool spin-up for a dictionary lookup); above
    it, linking runs as a distributed actor-pool stage and the min-ID
    resolution as the distributed contraction union-find
    (``union_find_labels_ds``) — the driver only receives the FINAL
    (norm → label) map, which a dict return inherently requires. Callers
    that can consume a mapping Dataset should use
    ``build_entity_map_auto`` instead: above the threshold it never
    collects anything."""
    norms_ds = unique_norms(quads_ds, n_salts=n_salts).materialize()
    alias_ref = ray.put(alias_table)
    if norms_ds.count() <= driver_link_threshold:
        norm_rows = norms_ds.take_all()
        stage = AliasLinkStage(alias_ref)
        tbl = pa.table({"norm": pa.array([r["norm"] for r in norm_rows],
                                         pa.string())})
        linked_tbl = stage(tbl)
        pairs = list(zip(linked_tbl["norm"].to_pylist(),
                         linked_tbl["candidate_id"].to_pylist()))
        # The edge list is small; driver-side union-find is the
        # documented design (SURVEY.md §7.4).
        return union_find_min_id(pairs)
    linked = norms_ds.map_batches(
        AliasLinkStage,
        fn_constructor_kwargs={"alias_ref": alias_ref},
        batch_format="pyarrow",
        concurrency=_pool(0.5),
    )
    return {r["norm"]: r["label"]
            for r in union_find_labels_ds(linked).take_all()}


def build_entity_map_auto(quads_ds, alias_table: pa.Table,
                          n_salts: int = 1,
                          driver_link_threshold: int = 100_000):
    """AUTO-ROUTED entity map (the ``minhash_clusters`` switch pattern):
    count the distinct norms once; at or below
    ``driver_link_threshold`` return the driver dict (pair it with the
    ``resolve_quads`` broadcast — lowest latency at entity scale),
    above it return the (norm, label) mapping DATASET built fully
    distributed (actor-pool linking → contraction union-find) with NO
    ``take_all`` anywhere — pair it with ``resolve_quads_join_ds``.
    ``resolve_quads_auto`` dispatches on the return type."""
    norms_ds = unique_norms(quads_ds, n_salts=n_salts).materialize()
    alias_ref = ray.put(alias_table)
    if norms_ds.count() <= driver_link_threshold:
        norm_rows = norms_ds.take_all()
        stage = AliasLinkStage(alias_ref)
        tbl = pa.table({"norm": pa.array([r["norm"] for r in norm_rows],
                                         pa.string())})
        linked_tbl = stage(tbl)
        pairs = list(zip(linked_tbl["norm"].to_pylist(),
                         linked_tbl["candidate_id"].to_pylist()))
        return union_find_min_id(pairs)
    linked = norms_ds.map_batches(
        AliasLinkStage,
        fn_constructor_kwargs={"alias_ref": alias_ref},
        batch_format="pyarrow",
        concurrency=_pool(0.5),
    )
    return union_find_labels_ds(linked)


def resolve_quads_auto(quads_ds, mapping):
    """Dispatch on ``build_entity_map_auto``'s return type: driver dict
    → broadcast ``resolve_quads``; mapping Dataset →
    ``resolve_quads_join_ds`` (co-partitioned tag-union merges)."""
    if isinstance(mapping, dict):
        return resolve_quads(quads_ds, mapping)
    return resolve_quads_join_ds(quads_ds, mapping)


def build_entity_map_ds(quads_ds, alias_table: pa.Table, n_salts: int = 1):
    """Dataset form of ``build_entity_map`` — the 100-TB path: unique
    norms → alias/embedding linking (actor pool, broadcast dictionary) →
    distributed min-ID fixpoint, all as Datasets with NO driver-side
    collection anywhere. Returns the (norm, label) mapping Dataset; feed
    it to ``resolve_quads_join_ds``."""
    norms_ds = unique_norms(quads_ds, n_salts=n_salts)
    alias_ref = ray.put(alias_table)
    linked = norms_ds.map_batches(
        AliasLinkStage,
        fn_constructor_kwargs={"alias_ref": alias_ref},
        batch_format="pyarrow",
        concurrency=_pool(0.5),
    )
    return union_find_labels_ds(linked)


def _resolve_col(col: pa.ChunkedArray, mapping: dict[str, str]) -> pa.Array:
    """Rewrite surf:-prefixed values through the canonical map. Works on
    the factorized uniques (entity surfaces repeat heavily per batch) —
    the per-row path is a vectorized take."""
    import pandas as pd

    codes, uniques = pd.factorize(col.to_pandas())
    plen = len(SURF_PREFIX)
    resolved = np.array(
        [mapping.get(u[plen:], skolem_iri(u[plen:]))
         if u.startswith(SURF_PREFIX) else u
         for u in uniques],
        dtype=object,
    )
    if len(resolved) == 0:
        return pa.array([], pa.string())
    return pa.array(resolved[codes], pa.string())


def resolve_quads(quads_ds, mapping: dict[str, str]):
    """Broadcast-apply the canonical map: ``ray.put`` once, each task
    reads the object-store ref zero-copy (never re-shipped per batch).
    A stateless task closure, not an actor pool — a dict lookup has no
    per-worker setup worth paying actor spin-up for, and tasks reuse the
    already-warm worker processes."""
    map_ref = ray.put(mapping)

    def resolver(t: pa.Table) -> pa.Table:
        m = ray.get(map_ref)
        t = t.set_column(t.schema.get_field_index("subj"), "subj",
                         _resolve_col(t["subj"], m))
        t = t.set_column(t.schema.get_field_index("obj"), "obj",
                         _resolve_col(t["obj"], m))
        return t

    return quads_ds.map_batches(resolver, batch_format="pyarrow")


def resolve_quads_join_ds(quads_ds, mapping_ds, num_partitions: int | None = None):
    """At-scale path: resolve against the (norm, label) mapping DATASET —
    no driver dict anywhere, so the whole unique-norms → link →
    union-find → resolve chain streams end-to-end. Semantically
    identical to ``resolve_quads`` when every surface has a mapping
    entry (always true when the mapping was built from the same quads —
    tested for equivalence).

    Two co-partitioned TAG-UNION merges (key = surf-prefixed subj, then
    obj): both sides hash-partition on the key and each partition
    resolves with pure Arrow kernels (index_in + take + coalesce — the
    quad stream never converts to pandas objects). Equal wall time to
    the earlier Ray hash joins at sf0.1, but drops their sentinel-pad
    workaround for the 2.49 empty-mapping-partition crash and their
    per-partition aggregator actors; exchange count is the same (the
    quads stream moves twice either way)."""
    from ..functions.hashing import fast_part_hash
    from ..runtime import cluster_cpus

    if num_partitions is None:
        num_partitions = max(16, min(64, 2 * cluster_cpus()))
    P = num_partitions
    mapping_ds = mapping_ds.select_columns(["norm", "label"]).materialize()

    quad_cols = ("graph", "subj", "pred", "obj", "obj_is_literal",
                 "obj_datatype", "src_url")

    def resolve_on(ds, key: str):
        def tag_q(t: pa.Table) -> pa.Table:
            cols = {c: t[c] for c in t.schema.names}
            cols["lab"] = pa.nulls(t.num_rows, pa.string())
            cols["part"] = pa.array(fast_part_hash(t[key], P))
            return pa.table(cols)

        def tag_m(t: pa.Table) -> pa.Table:
            k = pc.binary_join_element_wise(
                pa.array([SURF_PREFIX] * t.num_rows, pa.string()),
                t["norm"], "")
            cols = {c: pa.nulls(t.num_rows, pa.bool_()
                                if c == "obj_is_literal" else pa.string())
                    for c in quad_cols}
            cols[key] = k
            cols["lab"] = t["label"]
            cols["part"] = pa.array(fast_part_hash(k, P))
            return pa.table(cols)

        def merge(t: pa.Table) -> pa.Table:
            # pure Arrow per-partition resolve: index_in + take — no
            # pandas object conversion of the 7-column quad stream
            lab_mask = pc.is_valid(t["lab"])
            lut = t.filter(lab_mask)
            rows = t.filter(pc.invert(lab_mask))
            idx = pc.index_in(rows[key], value_set=lut[key].combine_chunks())
            got = pc.take(lut["lab"].combine_chunks(), idx)
            rows = rows.set_column(rows.schema.get_field_index(key), key,
                                   pc.coalesce(got, rows[key]))
            return rows.drop_columns(["lab", "part"])

        tagged = (ds.map_batches(tag_q, batch_format="pyarrow")
                  .union(mapping_ds.map_batches(tag_m,
                                                batch_format="pyarrow")))
        return tagged.groupby("part").map_groups(merge,
                                                 batch_format="pyarrow")

    return resolve_on(resolve_on(quads_ds, "subj"), "obj")


def resolve_quads_join(quads_ds, mapping: dict[str, str],
                       num_partitions: int | None = None):
    """Dict-input wrapper over ``resolve_quads_join_ds`` (kept for callers
    holding a driver-side map; the Dataset form is the at-scale path)."""
    import ray.data as rd

    items = sorted(mapping.items())
    mapping_ds = rd.from_arrow(pa.table({
        "norm": pa.array([k for k, _ in items], pa.string()),
        "label": pa.array([v for _, v in items], pa.string()),
    }))
    return resolve_quads_join_ds(quads_ds, mapping_ds,
                                 num_partitions=num_partitions)
