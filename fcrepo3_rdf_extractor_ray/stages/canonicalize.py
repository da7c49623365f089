"""Entity canonicalization: every unresolved surface linked to its IRI
inside the task that reads its block.

Extraction carries each entity as ``surf:<norm>``. ``resolve_quads``
rewrites subj/obj block by block in one ``map_batches`` task (on the
flagship it fuses into dedup's per-batch combiner), with no global
entity map:

    raw quads block
      → pd.factorize(subj), pd.factorize(obj): the block's distinct values
      → the ``surf:`` norms this worker has not linked yet (norm → IRI
        memo, bounded)
      → AliasLinkStage: alias-dictionary hit (one Arrow index_in + take),
        else the nearest alias embedding at cosine ≥ 0.99, else a skolem
        IRI
      → take back to the block's rows

Why no map: the linker gives each norm exactly ONE candidate, so the
bipartite (norm, candidate) graph a min-ID union-find would resolve is a
star forest — each component holds one candidate, and every norm's
label is its own candidate (``tests/test_canonicalize.py`` pins this
against a reference union-find). Linking is a per-norm function, and a
norm gets the same IRI whatever block, worker or retry it arrives in:
the dictionary lookup is exact, and a miss's embedding similarities are
computed with elementwise IEEE operations in a fixed order, so they do
not depend on which other norms share its batch.

The alias table ships once per call (``ray.put``); each worker builds
the alias index once per table ref (the reference's per-worker interned
vocabulary, RdfVocabulary.java:45-81).

``union_find_labels_ds`` is the distributed min-ID union-find over a
bipartite edge Dataset; ``stages.dedup`` runs it on graphs whose
components hold many candidates.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.normalize import skolem_iri
from .extract import SURF_PREFIX

# norm → IRI entries a worker keeps before it starts over (the cap-and-
# clear rule of dedup._worker_memo)
LINK_MEMO_CAP = 1_000_000


def _cosines(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``m @ e.T`` for unit rows, summed term by term: every element is
    the same sequence of IEEE multiplies and adds whatever the shape of
    ``m``, so row i depends on ``m[i]`` alone (a BLAS matmul may pick
    its kernel, and with it the rounding, by shape)."""
    sims = m[:, :1] * e[:, 0]
    for k in range(1, m.shape[1]):
        sims += m[:, k:k + 1] * e[:, k]
    return sims


class AliasLinkStage:
    """The linker: norms in, canonical IRIs out.

    A dictionary hit takes the alias's entity id (duplicate surfaces:
    last wins). A miss falls back to the nearest alias embedding when
    its cosine reaches ``emb_threshold``, else to a skolem IRI. Linked
    norms are memoized, up to ``LINK_MEMO_CAP`` entries; past that the
    memo starts over."""

    def __init__(self, alias_tbl: pa.Table, emb_threshold: float = 0.99):
        s = pd.Series(alias_tbl["entity_id"].to_pylist(),
                      index=alias_tbl["surface"].to_pylist())
        s = s[~s.index.duplicated(keep="last")]
        self.surface_arr = pa.array(s.index.to_numpy(dtype=object),
                                    pa.string())
        self.id_arr = pa.array(s.to_numpy(dtype=object), pa.string())
        emb = np.asarray(alias_tbl["embedding"].to_pylist(), dtype=np.float64)
        self.emb = (emb / np.linalg.norm(emb, axis=1, keepdims=True)
                    if emb.size else emb)
        self.emb_ids = alias_tbl["entity_id"].to_pylist()
        self.emb_threshold = emb_threshold
        self.memo: dict[str, str] = {}

    @staticmethod
    def _surface_embedding(norm: str) -> np.ndarray:
        """Deterministic 16-dim char-ngram hash embedding of a surface."""
        from ..functions.hashing import siphash64_str

        v = np.zeros(16, dtype=np.float64)
        for i in range(len(norm) - 2):
            v[siphash64_str(norm[i : i + 3]) % 16] += 1.0
        n = np.linalg.norm(v)
        return v / n if n else v

    def _link(self, norms: list[str]) -> np.ndarray:
        # dict hits in ONE Arrow pass (index_in + take); only the misses
        # pay Python, their embeddings stacked into one similarity pass
        idx = pc.index_in(pa.array(norms, pa.string()),
                          value_set=self.surface_arr)
        cands = pc.take(self.id_arr, idx).to_numpy(zero_copy_only=False)
        miss = np.flatnonzero(pc.is_null(idx).to_numpy(zero_copy_only=False))
        if not len(miss):
            return cands
        miss_norms = [norms[i] for i in miss]
        if len(self.emb):
            sims = _cosines(np.stack([self._surface_embedding(n)
                                      for n in miss_norms]), self.emb)
            j = sims.argmax(axis=1)
            best = sims[np.arange(len(j)), j]
            linked = [self.emb_ids[jj] if bb >= self.emb_threshold
                      else skolem_iri(n)
                      for n, jj, bb in zip(miss_norms, j, best)]
        else:
            linked = [skolem_iri(n) for n in miss_norms]
        cands[miss] = np.array(linked, dtype=object)
        return cands

    def __call__(self, norms: list[str]) -> np.ndarray:
        """Distinct norms → their IRIs (object array, same order)."""
        memo = self.memo
        out = np.array([memo.get(n) for n in norms], dtype=object)
        new = [i for i, v in enumerate(out) if v is None]
        if new:
            fresh = [norms[i] for i in new]
            iris = self._link(fresh)
            out[new] = iris
            if len(memo) + len(fresh) > LINK_MEMO_CAP:
                memo.clear()
            if len(fresh) <= LINK_MEMO_CAP:
                memo.update(zip(fresh, iris))
        return out


# this worker's linker: (alias ref hex, AliasLinkStage) — one alias
# table at a time, so a long-lived worker never holds an old job's index
_WORKER_LINKER: list = [None, None]


def worker_linker(alias_ref) -> AliasLinkStage:
    """The linker for the ``ray.put`` alias table ``alias_ref``, built
    once per worker and reused by every block it resolves."""
    key = alias_ref.hex()
    if _WORKER_LINKER[0] != key:
        _WORKER_LINKER[:] = [key, AliasLinkStage(ray.get(alias_ref))]
    return _WORKER_LINKER[1]


def canonical_ids(col, link: AliasLinkStage,
                  prefix: str = SURF_PREFIX) -> pa.Array:
    """Rewrite ``prefix``-led values through ``link`` (the prefix
    stripped); other values pass through. With ``prefix=""`` every value
    is a bare norm. Only the distinct prefixed values reach Python
    (entity surfaces repeat heavily per batch): they are dictionary-
    encoded, linked, and taken back to their rows, all in Arrow."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    mask = pc.fill_null(pc.starts_with(col, prefix), False)
    surf = col.filter(mask).dictionary_encode()
    if not len(surf):
        return col
    norms = pc.utf8_slice_codeunits(surf.dictionary, len(prefix), 2**31 - 1)
    iris = pa.array(link(norms.to_pylist()), pa.string())
    return pc.replace_with_mask(col, mask, iris.take(surf.indices))


def resolve_quads(quads_ds, alias_table: pa.Table):
    """Link every ``surf:`` subj/obj of ``quads_ds`` to its canonical
    IRI, block by block. ``alias_table`` (surface, entity_id, embedding)
    is ``ray.put`` once; each task reads it through ``worker_linker``.
    A stateless task closure, not an actor pool: the per-worker state
    is a module-level cache, and tasks reuse the already-warm workers."""
    alias_ref = ray.put(alias_table)

    def resolver(t: pa.Table) -> pa.Table:
        link = worker_linker(alias_ref)
        for col in ("subj", "obj"):
            t = t.set_column(t.schema.get_field_index(col), col,
                             canonical_ids(t[col], link))
        return t

    return quads_ds.map_batches(resolver, batch_format="pyarrow")


def union_find_labels_ds(edges_ds):
    """Distributed min-ID cluster resolution over a bipartite
    (norm, candidate_id) edge Dataset: two norms merge when they share a
    candidate, and a cluster's label is its lexicographically least
    candidate.

    Rides the engine's contraction union-find
    (``stages.graph.connected_components`` — O(levels) shuffles,
    independent of graph diameter) with a PREFIX TRICK: norms are tagged
    ``n:``, candidates ``c:``; since ``"c:" < "n:"`` lexicographically
    and every component of the bipartite graph contains at least one
    candidate, the component's min tagged name is always
    ``c:<min candidate id>`` — the min-ID label (tested against a
    driver-side reference union-find).

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


# ---------------------------------------------------------------------------
# Benchmark compatibility: kgbench/jobs.py calls these four names; its "map"
# is the alias table as a Dataset. Delete with the next benchmark change.

def build_entity_map_auto(quads_ds, alias_table, n_salts=1):
    return ray.data.from_arrow(alias_table)


def resolve_quads_auto(quads_ds, alias_ds):
    tables = ray.get(alias_ds.to_arrow_refs())
    return resolve_quads(quads_ds, pa.concat_tables(tables))


build_entity_map_ds = build_entity_map_auto
resolve_quads_join_ds = resolve_quads_auto
