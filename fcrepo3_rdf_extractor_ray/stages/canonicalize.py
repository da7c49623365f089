"""Entity canonicalization — the wide shuffle stage (north rule).

One route (SURVEY.md §7.1 step 5), ``build_entity_map`` then
``resolve_quads``:

1. per-block combiner: unique normalized surfaces (``norm``) of a quads
   block — bounds every norm to ≤ #blocks rows before anything wide;
2. the driver folds the combiner's output, block by block, into one
   Arrow distinct array and stops as soon as it passes
   ``DRIVER_LINK_THRESHOLD`` — no exchange while the map is small, and
   never more than threshold + one block's norms on the driver. Past the
   threshold (or at a threshold ≤ 0, which skips the fold) the distinct
   runs as one ``hash_exchange`` on a SipHash-64 key (``unique_norms``,
   per-partition Arrow distinct);
3. alias-dictionary + embedding linking (broadcast small side via
   ``ray.put`` once, read per actor in ``__init__`` — never re-shipped
   per batch);
4. min-ID union-find cluster resolution across keys (two surfaces linked
   to one entity merge; cluster id = lexicographic min candidate IRI).
   When the fold finished at or below the threshold, linking and
   union-find run on the driver and the map is a dict; above it they run
   distributed (actor-pool link, contraction union-find) and the map is
   a (norm, label) Dataset that never reaches the driver (SURVEY.md §7.4);
5. ``resolve_quads`` applies either form back to the quads: a dict as a
   broadcast lookup, a Dataset as two tag-union merges through
   ``hash_exchange`` (on subj, then on obj).
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
from .exchange import hash_exchange
from .extract import SURF_PREFIX

# Distinct-norm count at or below which build_entity_map links on the
# driver and returns a dict; read at call time, so one assignment moves
# every entry point.
DRIVER_LINK_THRESHOLD = 100_000


def _batch_unique_norms(t: pa.Table) -> pa.Table:
    """Combiner: the distinct unresolved surfaces of a quads batch, as
    bare norms (surface prefix stripped)."""
    chunks = []
    for col in ("subj", "obj"):
        c = t[col]
        if isinstance(c, pa.Array):
            c = pa.chunked_array([c])
        filtered = c.filter(pc.starts_with(c, SURF_PREFIX))
        chunks.extend(filtered.chunks)
    arr = pa.chunked_array(chunks or [pa.array([], pa.string())])
    uniq = pc.unique(arr)
    return pa.table({
        "norm": pc.utf8_slice_codeunits(uniq, len(SURF_PREFIX), 2**31 - 1)})


def unique_norms(quads_ds):
    """Distinct (norm, sip64) via one hash exchange on ``sip64``.

    The SipHash runs after the combiner, so only distinct-per-block
    norms pay the Python SipHash; the per-partition distinct is a
    vectorized Arrow group_by — one Python call per partition, never per
    key. The combiner in ``_batch_unique_norms`` already bounds a head
    norm's duplicates to ≤ #blocks rows."""
    def add_key(t: pa.Table) -> pa.Table:
        h = pa.array(siphash64_batch(t["norm"].to_pylist()).astype(np.int64),
                     pa.int64())  # int64 for stable groupby
        return t.append_column("sip64", h)

    def distinct(t: pa.Table) -> pa.Table:
        return t.group_by(["norm", "sip64"]).aggregate([])

    ds = (quads_ds.map_batches(_batch_unique_norms, batch_format="pyarrow")
          .map_batches(add_key, batch_format="pyarrow"))
    return hash_exchange(ds, "sip64", distinct, batch_format="pyarrow")


def _fold_norms(quads_ds, threshold: int) -> pa.Array | None:
    """The distinct norms of ``quads_ds`` folded on the driver, one
    combined block at a time, or None once they pass ``threshold`` (the
    fold stops there: the driver never holds more than threshold + one
    block's distinct norms)."""
    acc = pa.array([], pa.string())
    blocks = quads_ds.map_batches(_batch_unique_norms, batch_format="pyarrow")
    for batch in blocks.iter_batches(batch_size=None, batch_format="pyarrow"):
        acc = pc.unique(pa.chunked_array([acc, batch["norm"]],
                                         pa.string()))
        if len(acc) > threshold:
            return None
    return acc


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


def union_find_labels_ds(edges_ds):
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

    Returns the (norm, label) Dataset — fully driver-free."""
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
        a_col="a", b_col="b")

    def out(t: pa.Table) -> pa.Table:
        mask = pc.starts_with(t["node"], "n:")
        node = t["node"].filter(mask)
        comp = t["component"].filter(mask)
        big = 2**31 - 1
        return pa.table({"norm": pc.utf8_slice_codeunits(node, 2, big),
                         "label": pc.utf8_slice_codeunits(comp, 2, big)})

    return cc.map_batches(out, batch_format="pyarrow")


def build_entity_map(quads_ds, alias_table: pa.Table,
                     driver_link_threshold: int | None = None):
    """norm → canonical IRI for every unresolved surface in ``quads_ds``.

    The driver folds the per-block distinct norms (``_fold_norms``). If
    the fold ends at or below ``driver_link_threshold`` (default
    ``DRIVER_LINK_THRESHOLD``) alias linking and union-find run on the
    driver (no exchange, no actor pool spin-up for a dictionary lookup)
    and the result is a dict. Once it passes the threshold the fold
    stops; the distinct runs as an exchange (``unique_norms``), linking
    as an actor-pool stage and min-ID resolution as the contraction
    union-find (``union_find_labels_ds``); the result is the lazy
    (norm, label) Dataset, with no ``take_all`` anywhere.
    ``driver_link_threshold=0`` sends any non-empty map down the Dataset
    route, ``-1`` every map; both skip the fold and start with the
    exchange. ``resolve_quads`` accepts either form."""
    if driver_link_threshold is None:
        driver_link_threshold = DRIVER_LINK_THRESHOLD
    alias_ref = ray.put(alias_table)
    if driver_link_threshold > 0:
        norms = _fold_norms(quads_ds, driver_link_threshold)
        if norms is not None:
            linked = AliasLinkStage(alias_ref)(pa.table({"norm": norms}))
            return union_find_min_id(list(zip(
                linked["norm"].to_pylist(),
                linked["candidate_id"].to_pylist())))
    distinct = unique_norms(quads_ds).materialize()
    if driver_link_threshold == 0 and distinct.count() == 0:
        return {}
    linked = distinct.map_batches(
        AliasLinkStage,
        fn_constructor_kwargs={"alias_ref": alias_ref},
        batch_format="pyarrow",
        concurrency=_pool(0.5),
    )
    return union_find_labels_ds(linked)


def canonical_ids(col, mapping: dict[str, str],
                  prefix: str = SURF_PREFIX) -> pa.Array:
    """Rewrite ``prefix``-led values through the canonical map (a miss
    skolemizes the norm); other values pass through. With ``prefix=""``
    every value is a bare norm. Works on the factorized uniques (entity
    surfaces repeat heavily per batch) — the per-row path is a
    vectorized take."""
    codes, uniques = pd.factorize(col.to_pandas())
    plen = len(prefix)
    resolved = np.array(
        [mapping.get(u[plen:], skolem_iri(u[plen:]))
         if u.startswith(prefix) else u
         for u in uniques],
        dtype=object,
    )
    if len(resolved) == 0:
        return pa.array([], pa.string())
    return pa.array(resolved[codes], pa.string())


def resolve_quads(quads_ds, mapping):
    """Apply what ``build_entity_map`` returned to the quads' subj/obj.

    A driver dict is broadcast: ``ray.put`` once, each task reads the
    object-store ref zero-copy (never re-shipped per batch). A stateless
    task closure, not an actor pool — a dict lookup has no per-worker
    setup worth paying actor spin-up for, and tasks reuse the
    already-warm worker processes.

    A (norm, label) Dataset is joined instead (``_resolve_join``), so
    the map never reaches the driver. Both give the same quads when the
    mapping was built from the same quads (tested for equivalence)."""
    if not isinstance(mapping, dict):
        return _resolve_join(quads_ds, mapping)
    map_ref = ray.put(mapping)

    def resolver(t: pa.Table) -> pa.Table:
        m = ray.get(map_ref)
        t = t.set_column(t.schema.get_field_index("subj"), "subj",
                         canonical_ids(t["subj"], m))
        t = t.set_column(t.schema.get_field_index("obj"), "obj",
                         canonical_ids(t["obj"], m))
        return t

    return quads_ds.map_batches(resolver, batch_format="pyarrow")


def _resolve_join(quads_ds, mapping_ds):
    """Resolve against the (norm, label) mapping DATASET: two TAG-UNION
    hash exchanges (key = surf-prefixed subj, then obj). Both sides meet
    per partition, which resolves with pure Arrow kernels (index_in +
    take + coalesce — the quad stream never converts to pandas
    objects). Equal wall time to Ray hash joins at sf0.1, without their
    sentinel-pad workaround for the 2.49 empty-mapping-partition crash
    or their per-partition aggregator actors; the quads stream moves
    twice either way."""
    mapping_ds = mapping_ds.select_columns(["norm", "label"]).materialize()

    quad_cols = ("graph", "subj", "pred", "obj", "obj_is_literal",
                 "obj_datatype", "src_url")

    def resolve_on(ds, key: str):
        def tag_q(t: pa.Table) -> pa.Table:
            return t.append_column("lab", pa.nulls(t.num_rows, pa.string()))

        def tag_m(t: pa.Table) -> pa.Table:
            k = pc.binary_join_element_wise(
                pa.array([SURF_PREFIX] * t.num_rows, pa.string()),
                t["norm"], "")
            cols = {c: pa.nulls(t.num_rows, pa.bool_()
                                if c == "obj_is_literal" else pa.string())
                    for c in quad_cols}
            cols[key] = k
            cols["lab"] = t["label"]
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
            return rows.drop_columns(["lab"])

        return hash_exchange(
            [ds.map_batches(tag_q, batch_format="pyarrow"),
             mapping_ds.map_batches(tag_m, batch_format="pyarrow")],
            key, merge, batch_format="pyarrow")

    return resolve_on(resolve_on(quads_ds, "subj"), "obj")


# ---------------------------------------------------------------------------
# Benchmark compatibility: kgbench/jobs.py imports these four names and
# passes n_salts=1, which is ignored. Delete this block in the next change
# to the benchmark.

def build_entity_map_auto(quads_ds, alias_table, n_salts=1,
                          driver_link_threshold=None):
    return build_entity_map(quads_ds, alias_table, driver_link_threshold)


def build_entity_map_ds(quads_ds, alias_table, n_salts=1):
    return build_entity_map(quads_ds, alias_table, driver_link_threshold=-1)


resolve_quads_auto = resolve_quads_join_ds = resolve_quads
