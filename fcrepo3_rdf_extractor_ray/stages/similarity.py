"""Similarity search over an embedding column (list<float>).

- ``knn_bruteforce`` — exact cosine top-k: the query matrix is broadcast
  once via ``ray.put`` (read once per worker, never re-shipped per
  batch); each batch computes a float64 matmul against it and emits
  its local top-k per query; a final tiny merge (candidates are
  #blocks × #queries × k) picks the global top-k. Scores are emitted in
  micro-units (floor ×1e6, int64) so the DuckDB oracle compares exactly.
- ``knn_ivf`` — the scale path: a deterministic coarse quantizer
  (seeded k-means on a sample) buckets vectors; queries probe the
  ``n_probe`` nearest centroids only. The probed-bucket search runs
  DISTRIBUTED inside ``map_batches`` (each task scans only its block's
  probed rows and emits local top-k candidates); nothing but the
  bounded candidate set (#blocks × #queries × (k+1) rows) ever reaches
  the driver. Approximate; recall vs brute force is asserted in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


# Per-worker stage cache: tasks run on Ray's long-lived warm worker
# processes, so module state persists across batches — actor-pool-style
# once-per-worker setup without paying the pool spawn/ramp. Bounded.
_STAGE_CACHE: dict = {}


def _cached(key, factory):
    st = _STAGE_CACHE.get(key)
    if st is None:
        if len(_STAGE_CACHE) >= 8:
            _STAGE_CACHE.clear()
        st = _STAGE_CACHE[key] = factory()
    return st


def _unit(M: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(M, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return M / n


def _list_col_to_matrix(t: pa.Table, col: str) -> np.ndarray:
    """list<float> column → (n, dim) float64 matrix without a Python-object
    round-trip: flatten the Arrow list values buffer and reshape (all
    embeddings share one dim, asserted by the reshape)."""
    arr = t[col].combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64,
                                                               copy=False)
    n = len(arr)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


class BruteForceTopKStage:
    """embeddings batch → local top-k candidates per query."""

    def __init__(self, queries_ref, k: int, id_col="vec_id", vec_col="embedding"):
        q = ray.get(queries_ref)  # dict: query_id -> vector
        self.qids = list(q.keys())
        self.Q = np.asarray([q[i] for i in self.qids], dtype=np.float64)
        self.qn = np.sqrt((self.Q * self.Q).sum(axis=1))
        self.qn[self.qn == 0] = 1.0
        self.k = k
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t[self.id_col].combine_chunks().to_numpy(zero_copy_only=False)
        V = _list_col_to_matrix(t, self.vec_col)
        vn = np.sqrt((V * V).sum(axis=1))
        vn[vn == 0] = 1.0
        # dot / (|q|·|v|) — the same formula shape as the SQL oracle so
        # floor(×1e6) agrees bit-for-bit in practice
        sims = (self.Q @ V.T) / (self.qn[:, None] * vn[None, :])
        k = min(self.k + 1, sims.shape[1])  # +1 to survive self-match removal
        out_q, out_n, out_s = [], [], []
        for qi, qid in enumerate(self.qids):
            idx = np.argpartition(-sims[qi], k - 1)[:k]
            out_q.append(np.full(len(idx), qid, dtype=np.int64))
            out_n.append(ids[idx].astype(np.int64))
            out_s.append(np.floor(sims[qi, idx] * 1e6).astype(np.int64))
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q) if out_q else [],
                                 pa.int64()),
            "neighbor_id": pa.array(np.concatenate(out_n) if out_n else [],
                                    pa.int64()),
            "cos_micro": pa.array(np.concatenate(out_s) if out_s else [],
                                  pa.int64()),
        })


def _merge_topk(cands: pd.DataFrame, k: int, exclude_self: bool) -> pd.DataFrame:
    if exclude_self:
        cands = cands[cands["query_id"] != cands["neighbor_id"]]
    cands = cands.sort_values(
        ["query_id", "cos_micro", "neighbor_id"],
        ascending=[True, False, True],
    )
    return cands.groupby("query_id", as_index=False).head(k).reset_index(drop=True)


def knn_bruteforce(emb_ds, query_vectors: dict[int, np.ndarray], k: int = 5,
                   id_col="vec_id", vec_col="embedding", exclude_self=True):
    """Exact cosine top-k. Returns (query_id, neighbor_id, cos_micro).
    Ties broken by neighbor_id ascending (deterministic, oracle-safe)."""

    q_ref = ray.put(query_vectors)

    def brute_batch(t: pa.Table) -> pa.Table:
        # task form: warm workers skip the actor ramp; the stage object
        # (broadcast query matrix + norms) is built once per WORKER via
        # the module cache
        stage = _cached(
            ("brute", q_ref.hex(), k, id_col, vec_col),
            lambda: BruteForceTopKStage(q_ref, k, id_col=id_col,
                                        vec_col=vec_col))
        return stage(t)

    cand_ds = emb_ds.map_batches(brute_batch, batch_format="pyarrow")
    # candidate set is #blocks × #queries × (k+1) — a small reduce; the
    # driver-side merge is the documented tree-reduce stand-in
    cands = cand_ds.to_pandas()
    return _merge_topk(cands, k, exclude_self)


# ---------------------------------------------------------------------------
# IVF (coarse-quantized) variant — the at-scale path

def _kmeans_lite(X: np.ndarray, n_clusters: int, n_iter: int = 10,
                 seed: int = 99) -> np.ndarray:
    rng = np.random.RandomState(seed)
    C = X[rng.choice(len(X), size=min(n_clusters, len(X)), replace=False)]
    for _ in range(n_iter):
        assign = np.argmax(_unit(X) @ _unit(C).T, axis=1)
        for c in range(len(C)):
            members = X[assign == c]
            if len(members):
                C[c] = members.mean(axis=0)
    return C


class IVFAssignStage:
    def __init__(self, centroids_ref, id_col="vec_id", vec_col="embedding"):
        self.C = _unit(ray.get(centroids_ref))
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t[self.id_col].combine_chunks().to_numpy(zero_copy_only=False)
        V = _unit(_list_col_to_matrix(t, self.vec_col))
        assign = np.argmax(V @ self.C.T, axis=1)
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64), pa.int64()),
            "bucket": pa.array(assign.astype(np.int64), pa.int64()),
            "unit_vec": pa.array(V.tolist(), pa.list_(pa.float64())),
        })


class IVFSearchStage:
    """(vec_id, bucket, unit_vec) batch → local top-k candidates per query,
    searching ONLY the rows whose bucket is probed by each query. The
    probe plan (query matrix + bucket→queries index) is broadcast once
    via ``ray.put`` and loaded once per worker — the block's
    vectors never leave the task, so the pipeline stays streaming and
    driver memory is bounded by the candidate count."""

    def __init__(self, plan_ref, k: int):
        qids, Q, probe = ray.get(plan_ref)
        self.qids = np.asarray(qids, dtype=np.int64)
        self.Q = Q  # unit-normalized (nq, dim)
        self.k = k
        self.bucket_to_q: dict[int, np.ndarray] = {}
        for qi, row in enumerate(probe):
            for b in row:
                self.bucket_to_q.setdefault(int(b), []).append(qi)
        self.bucket_to_q = {b: np.asarray(v, dtype=np.int64)
                            for b, v in self.bucket_to_q.items()}

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t["vec_id"].combine_chunks().to_numpy(zero_copy_only=False)
        buckets = t["bucket"].combine_chunks().to_numpy(zero_copy_only=False)
        V = _list_col_to_matrix(t, "unit_vec")
        out_q, out_n, out_s = [], [], []
        for b in np.unique(buckets):
            qidx = self.bucket_to_q.get(int(b))
            if qidx is None:
                continue
            rows = np.flatnonzero(buckets == b)
            sims = self.Q[qidx] @ V[rows].T  # (nq_b, n_rows_b)
            k = min(self.k + 1, sims.shape[1])
            for i, qi in enumerate(qidx):
                idx = np.argpartition(-sims[i], k - 1)[:k]
                out_q.append(np.full(len(idx), self.qids[qi], dtype=np.int64))
                out_n.append(ids[rows[idx]].astype(np.int64))
                out_s.append(np.floor(sims[i, idx] * 1e6).astype(np.int64))
        empty = np.array([], dtype=np.int64)
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q) if out_q else empty,
                                 pa.int64()),
            "neighbor_id": pa.array(np.concatenate(out_n) if out_n else empty,
                                    pa.int64()),
            "cos_micro": pa.array(np.concatenate(out_s) if out_s else empty,
                                  pa.int64()),
        })


def knn_ivf(emb_ds, query_vectors: dict[int, np.ndarray], k: int = 5,
            n_clusters: int = 16, n_probe: int = 4, sample_size: int = 2048,
            id_col="vec_id", vec_col="embedding", exclude_self=True):
    """IVF top-k: train a coarse quantizer on a limited sample (seeded,
    deterministic), bucket all vectors via a task-form assign stage,
    prune non-probed buckets with a vectorized filter, then run the
    probed-bucket search distributed inside ``map_batches``. Only the
    bounded candidate set (#blocks × #queries × (k+1)) is merged on the
    driver — the full vector corpus never leaves the tasks."""
    import pyarrow.compute as pc


    sample = emb_ds.limit(sample_size).to_pandas()
    X = np.asarray(sample[vec_col].tolist(), dtype=np.float64)
    C = _kmeans_lite(X, n_clusters)
    c_ref = ray.put(C)

    def assign_batch(t: pa.Table) -> pa.Table:
        stage = _cached(("ivf-assign", c_ref.hex(), id_col, vec_col),
                        lambda: IVFAssignStage(c_ref, id_col=id_col,
                                               vec_col=vec_col))
        return stage(t)

    assigned = emb_ds.map_batches(assign_batch, batch_format="pyarrow")
    qids = list(query_vectors.keys())
    Q = _unit(np.asarray([query_vectors[i] for i in qids], dtype=np.float64))
    Cn = _unit(C)
    probe = np.argsort(-(Q @ Cn.T), axis=1)[:, :n_probe]  # (nq, n_probe)
    wanted_buckets = sorted({int(b) for row in probe for b in row})
    plan_ref = ray.put((qids, Q, probe))

    def search_batch(t: pa.Table) -> pa.Table:
        stage = _cached(("ivf-search", plan_ref.hex(), k),
                        lambda: IVFSearchStage(plan_ref, k))
        return stage(t)

    cand_ds = assigned.map_batches(
        lambda t: t.filter(pc.is_in(t["bucket"],
                                    value_set=pa.array(wanted_buckets,
                                                       pa.int64()))),
        batch_format="pyarrow",
    ).map_batches(search_batch, batch_format="pyarrow")
    cands = cand_ds.to_pandas()
    if cands.empty:
        cands = pd.DataFrame(
            {"query_id": pd.Series([], dtype="int64"),
             "neighbor_id": pd.Series([], dtype="int64"),
             "cos_micro": pd.Series([], dtype="int64")})
    return _merge_topk(cands, k, exclude_self)


def kmeans_lloyd(emb_ds, k: int = 4, iters: int = 2,
                 id_col: str = "vec_id", vec_col: str = "embedding"):
    """Distributed Lloyd k-means over an embedding column — the
    clustering primitive behind IVF index builds, corpus topic bucketing
    and diversity-aware sampling. Deterministic init: the vectors with
    the ``k`` smallest ids. Output: ``(vec_id, cluster)`` — the
    assignment against the centroids after ``iters`` update rounds.

    Scale shape: NO shuffle at any point. Each round is one streaming
    ``map_batches`` pass emitting per-cluster partial (count, sum)
    rows — k rows × dim floats per block, merged on the driver (bounded
    by k × #blocks, never by corpus size) — with the current centroids
    broadcast via ``ray.put``. Init is the same bounded partial-top-k
    merge. An empty cluster keeps its previous centroid (cannot arise
    on the test corpora; the SQL oracle would drop it instead).

    Float contract with the oracle: assignments are integers; distances
    and means are float64 on both sides, so the only divergence risk is
    an exact argmin tie at ~1e-15 — not observable on real-valued
    embeddings."""
    import ray

    # --- deterministic init: k smallest ids (bounded partial merge) ---
    def init_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(k, id_col)[[id_col, vec_col]]

    seed = (emb_ds.map_batches(init_partial, batch_format="pandas")
            .to_pandas().nsmallest(k, id_col).sort_values(id_col))
    C = np.stack(seed[vec_col].to_numpy()).astype(np.float64)
    dim = C.shape[1]

    def make_partial(cref):
        def part(t: pa.Table) -> pd.DataFrame:
            Cc = ray.get(cref)
            X = _list_col_to_matrix(t, vec_col)
            if not len(X):
                return pd.DataFrame({"cluster": pd.array([], dtype="int64"),
                                     "n": pd.array([], dtype="int64"),
                                     **{f"s{j}": pd.array([], dtype="float64")
                                        for j in range(dim)}})
            d2 = ((X[:, None, :] - Cc[None, :, :]) ** 2).sum(axis=2)
            a = np.argmin(d2, axis=1)
            cnt = np.bincount(a, minlength=k)
            sums = np.zeros((k, dim))
            np.add.at(sums, a, X)
            out = {"cluster": np.arange(k, dtype=np.int64),
                   "n": cnt.astype(np.int64)}
            out.update({f"s{j}": sums[:, j] for j in range(dim)})
            return pd.DataFrame(out)
        return part

    for _ in range(iters):
        cref = ray.put(C)
        parts = (emb_ds.map_batches(make_partial(cref),
                                    batch_format="pyarrow").to_pandas())
        g = parts.groupby("cluster").sum()
        for c in range(k):
            if c in g.index and g.loc[c, "n"] > 0:
                C[c] = (g.loc[c, [f"s{j}" for j in range(dim)]]
                        .to_numpy(np.float64) / g.loc[c, "n"])

    cref = ray.put(C)

    def assign(t: pa.Table) -> pa.Table:
        Cc = ray.get(cref)
        X = _list_col_to_matrix(t, vec_col)
        if not len(X):
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64())})
        d2 = ((X[:, None, :] - Cc[None, :, :]) ** 2).sum(axis=2)
        return pa.table({id_col: t[id_col],
                         "cluster": pa.array(np.argmin(d2, axis=1)
                                             .astype(np.int64))})

    return emb_ds.map_batches(assign, batch_format="pyarrow")


def knn_classify(emb_ds, query_vectors, k: int = 5,
                 id_col="vec_id", vec_col="embedding", label_col="label"):
    """k-NN CLASSIFICATION: each query vector gets the majority label of
    its k nearest neighbors (exact cosine, self excluded), ties broken
    by the smallest label — the classic labeled-corpus propagation /
    data-labeling primitive.

    Scale shape: the neighbor search is the broadcast-query brute-force
    top-k (per-block partials, bounded merge). Labels for the ≤ k·|Q|
    winning neighbors come from ONE streaming filtered pass over the
    embedding table (`is_in` on the bounded neighbor-id set) — the full
    label column is never collected. The vote itself is k·|Q| rows on
    the driver. Returns (query_id, label, votes)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    nn = knn_bruteforce(emb_ds, query_vectors, k=k, id_col=id_col,
                        vec_col=vec_col)
    wanted = pa.array(sorted(set(nn["neighbor_id"].astype(int))),
                      pa.int64())

    def grab_labels(t: pa.Table) -> pa.Table:
        m = pc.is_in(t[id_col], value_set=wanted)
        t = t.filter(m)
        return pa.table({"neighbor_id": pc.cast(t[id_col], pa.int64()),
                         "label": pc.cast(t[label_col], pa.int64())})

    labels = emb_ds.map_batches(grab_labels,
                                batch_format="pyarrow").to_pandas()
    j = nn.merge(labels, on="neighbor_id")
    cnt = (j.groupby(["query_id", "label"], as_index=False)
           .size().rename(columns={"size": "votes"}))
    cnt = cnt.sort_values(["query_id", "votes", "label"],
                          ascending=[True, False, True])
    out = cnt.groupby("query_id", as_index=False).head(1)
    return pd.DataFrame({
        "query_id": out["query_id"].astype("int64").to_numpy(),
        "label": out["label"].astype("int64").to_numpy(),
        "votes": out["votes"].astype("int64").to_numpy()})
