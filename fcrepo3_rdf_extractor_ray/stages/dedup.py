"""Deduplication operators.

- ``dedup_quads`` — exact quad dedup (set semantics; the reference's
  correctness is duplicate-insensitive, SidoraExamplesIT.java:105, so
  dedup is the explicit operator the north rule adds). Per-batch Arrow
  ``Table.group_by`` combiner → coalesce to a range count sized by CPUs
  and input bytes → one range sort
  on (subj, pred, obj) → per-block ``group_by`` finish (min / sum are
  associative, so partial/final is exact); the output is already in
  sink order.
- ``dedup_exact_docs`` — exact document dedup by content hash.
- ``minhash_clusters`` — MinHash + LSH banding near-dup detection.
- ``simhash_pairs`` — SimHash hamming-distance near-dups via band-chunk
  bucketing.
- ``embedding_neardup_pairs`` — cosine near-dups over an embedding
  column via random-hyperplane LSH buckets + exact verify.
- ``ngram_jaccard_pairs`` — EXACT word-k-gram Jaccard near-dups via a
  distributed inverted index (intersection counts fall out of the
  index; oracle-checkable, unlike the LSH approximations).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import minhash_signature
from ..schema import QUAD_KEY_COLS, SINK_ORDER

_N_COL = "n_src"
_SRC_COL = "src_url"


def _group_quads(t: pa.Table) -> pa.Table:
    """Collapse duplicate quads of one table: min ``src_url``, summed
    ``n_src``. Vectorized Arrow ``group_by``, no per-key Python; one
    thread, since each Ray task holds one CPU."""
    g = t.group_by(QUAD_KEY_COLS, use_threads=False).aggregate(
        [(_SRC_COL, "min"), (_N_COL, "sum")])
    return g.rename_columns(QUAD_KEY_COLS + [_SRC_COL, _N_COL])


def _combine_quads(t: pa.Table) -> pa.Table:
    """Per-batch combiner: collapses duplicates before the exchange, so
    no key sends more rows into it than there are input blocks."""
    return _group_quads(t.append_column(
        _N_COL, pa.array(np.ones(t.num_rows, dtype=np.int64))))


def _finish_quads(t: pa.Table) -> pa.Table:
    """Per sorted block: final dedup, then the full six-column order, so
    rows tied on (subj, pred, obj) come out the same on every run."""
    return _group_quads(t).sort_by([(c, "ascending") for c in SINK_ORDER])


def _rename(ds, mapping: dict[str, str]):
    def fn(t: pa.Table) -> pa.Table:
        return t.rename_columns([mapping.get(c, c) for c in t.schema.names])

    return ds.map_batches(fn, batch_format="pyarrow")


# Raw-quad bytes per dedup range (= sorted output shard) past which the
# range count grows beyond one per CPU.
DEDUP_RANGE_BYTES = 64 << 20


def dedup_quads(quads_ds, n_salts: int = 1, input_bytes: int | None = None):
    """Exact dedup of a quads Dataset → one row per distinct quad with
    ``src_url`` = min source url and ``n_src`` = occurrence count, range
    partitioned and sorted by ``SINK_ORDER`` — what ``materialize_sorted``
    writes.

    Shape: per-batch Arrow combiner → coalesce to the range count →
    one ``sort(subj, pred, obj)`` → per sorted block, the same
    ``group_by`` again plus a sort by the full key. Every duplicate of a
    quad shares (subj, pred, obj), and the range sort sends equal sort
    keys to the same output block, so the per-block finish is exact
    (Ray's own ``GroupedData.map_groups`` rests on the same guarantee).
    One sort exchange, and no hash key.

    Range count = ``default_parts(1.0, input_bytes=input_bytes,
    per_part_bytes=DEDUP_RANGE_BYTES, lo=1)``: one range per CPU, more
    once ``input_bytes`` (the caller's size of the quads before
    resolve, e.g. a materialized Dataset's ``size_bytes()``) exceeds
    cpus × 64 MiB, so a range stays bounded as the corpus grows. Ray's
    sort makes one range per input block and its cost grows with
    blocks × ranges, so the coalesce also keeps the count off the
    resolved block count: 256 resolved blocks of 250 quads took 43–53 s
    uncoalesced and 5–8 s coalesced (2-CPU Ray session on a 1-vCPU host).

    ``n_salts`` is accepted and ignored: the combiner already bounds any
    head key to ≤ #blocks rows entering the sort."""
    from ..runtime import default_parts

    n_ranges = default_parts(1.0, input_bytes=input_bytes,
                             per_part_bytes=DEDUP_RANGE_BYTES, lo=1)
    return (quads_ds.map_batches(_combine_quads, batch_format="pyarrow")
            .repartition(n_ranges)
            .sort(SINK_ORDER[:3])
            .map_batches(_finish_quads, batch_format="pyarrow",
                         batch_size=None))


def dedup_exact_docs(docs_ds, text_col: str = "text", id_col: str = "doc_id",
                     n_parts: int | None = None):
    """Exact document dedup: group by content hash, keep the min id (the
    min-ID rule), count duplicates. Per-batch combiner → hash-partition
    shuffle → vectorized Arrow group_by per partition (shuffling a
    16-byte hash + part id instead of sorting multi-KB text keys)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    import hashlib

    def _hash_cols(col: pa.ChunkedArray):
        texts = col.to_pylist()
        h1 = np.empty(len(texts), dtype=np.int64)
        part = np.empty(len(texts), dtype=np.int32)
        for i, s in enumerate(texts):
            d = hashlib.md5(s.encode("utf-8")).digest()
            h1[i] = int.from_bytes(d[:8], "little", signed=True)
            part[i] = h1[i] & (n_parts - 1)
        return pa.array(h1), pa.array(part)

    def combine(t: pa.Table) -> pa.Table:
        t = t.select([text_col, id_col])
        th, part = _hash_cols(t[text_col])
        t = (t.append_column("th", th).append_column("part", part)
             .append_column("n_dups",
                            pa.array(np.ones(t.num_rows, dtype=np.int64))))
        g = t.group_by(["th", "part"]).aggregate(
            [(text_col, "min"), (id_col, "min"), ("n_dups", "sum")])
        return g.rename_columns(["th", "part", text_col, "keep_id", "n_dups"])

    ds = docs_ds.map_batches(combine, batch_format="pyarrow")
    # coalesce the (already batch-deduped, much smaller) stream before the
    # exchange: the sort-shuffle's scheduling cost grows with INPUT block
    # count, and the combiner emits one small block per read batch, so an
    # uncoalesced exchange is latency-bound
    # (measured: 208 blocks → the Sort op was 7.7s wall on 2.3s compute)
    ds = ds.repartition(n_parts)

    def dedup_part(t: pa.Table) -> pa.Table:
        g = t.group_by(["th", "part"]).aggregate(
            [(text_col, "min"), ("keep_id", "min"), ("n_dups", "sum")])
        return g.rename_columns(["th", "part", text_col, "keep_id", "n_dups"])

    out = ds.groupby(["part"]).map_groups(dedup_part, batch_format="pyarrow")
    return out.drop_columns(["th", "part"])


# ---------------------------------------------------------------------------
# MinHash + LSH

# Module-level token-hash memo: tasks run on Ray's long-lived warm worker
# processes, so module state persists across batches WITHOUT paying an
# actor-pool spawn/ramp — the W1 stateful-stage benefit in task form.
# Capped so a long-lived worker can't grow it unboundedly.
_TOKEN_MEMO: dict[str, int] = {}
# Separate memo for the md5-prefix family (dedup_simhash's SQL-replayable
# hashes) — must NEVER share a dict with the SipHash memo, or whichever
# stage runs first poisons the other's cache.
_MD5_TOKEN_MEMO: dict[str, int] = {}


def _worker_memo(cap: int = 1_000_000) -> dict:
    if len(_TOKEN_MEMO) > cap:
        _TOKEN_MEMO.clear()
    return _TOKEN_MEMO


def _md5_worker_memo(cap: int = 1_000_000) -> dict:
    if len(_MD5_TOKEN_MEMO) > cap:
        _MD5_TOKEN_MEMO.clear()
    return _MD5_TOKEN_MEMO


def minhash_sig_batch(t: pa.Table, text_col="text", id_col="doc_id",
                      num_perm=64) -> pa.Table:
    """docs batch → ONE row per doc: (doc_id, sig). The signature is
    emitted exactly once per doc; the LSH band rows derived for the
    shuffle carry only (doc_id, band, band_hash) — 3 ints — so the
    banding exchange ships ~bands× less data than duplicating the
    signature into every row."""
    from ..functions.hashing import shingle_hashes_fast

    memo = _worker_memo()
    ids = t[id_col].to_pylist()
    sigs = []
    for txt in t[text_col].to_pylist():
        sig = minhash_signature(
            shingle_hashes_fast(txt.split(), memo=memo), num_perm)
        sigs.append(sig.astype(np.int64).tolist())
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "sig": pa.array(sigs, pa.list_(pa.int64())),
    })


_MD5_SHINGLE_MEMO: dict[str, int] = {}


def _md5_shingle_memo(cap: int = 1_000_000) -> dict:
    if len(_MD5_SHINGLE_MEMO) > cap:
        _MD5_SHINGLE_MEMO.clear()
    return _MD5_SHINGLE_MEMO


def minhash_md5_sig_batch(t: pa.Table, text_col="text", id_col="doc_id",
                          num_perm=64, k=3) -> pa.Table:
    """``minhash_sig_batch`` in the SQL-replayable md5-31 family
    (``functions.hashing.md5_minhash_signature``): base hash = first 8
    md5 hex chars of each DISTINCT word k-shingle mod 2^31-1, perms =
    (a_j*h+b_j) mod 2^31-1 with published md5-derived constants. Every
    value replays bit-for-bit in DuckDB (the dedup_minhash oracle)."""
    from ..functions.hashing import md5_minhash_signature, word_shingles

    memo = _md5_shingle_memo()
    ids = t[id_col].to_pylist()
    sigs = []
    for txt in t[text_col].to_pylist():
        sig = md5_minhash_signature(word_shingles(txt.split(), k=k),
                                    num_perm, memo=memo)
        sigs.append(sig.astype(np.int64).tolist())
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "sig": pa.array(sigs, pa.list_(pa.int64())),
    })


def _sig_matrix(t: pa.Table) -> np.ndarray:
    arr = t["sig"].combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(arr), -1) if len(arr) else flat.reshape(0, 0)


def minhash_candidate_pairs(docs_ds, text_col="text", id_col="doc_id",
                            num_perm=64, bands=16, max_bucket=64,
                            n_parts=None, hash_family="siphash"):
    """LSH banding: groupby (band, band_hash) buckets → candidate pairs
    with estimated Jaccard (signature agreement). Buckets larger than
    ``max_bucket`` are truncated (logged via the `truncated` column) —
    no silent caps.

    Shuffle diet: the banding exchange moves only (doc_id, band,
    band_hash) rows; full signatures stay in the one-row-per-doc
    ``sig_ds`` and are fetched ONLY for candidate docs in the verify
    pass. The candidate-doc set is near-dup scale (bounded by 2× the
    pair count — the same boundedness assumption ``minhash_clusters``
    already makes for its driver-side union-find), so the verify lookup
    is broadcast once via ``ray.put`` and read per task.

    ``hash_family="md5"`` switches signatures to the SQL-replayable
    md5-31 family (``minhash_md5_sig_batch``) and buckets on the band's
    VALUE STRING instead of a folded hash — byte-identical to the
    DuckDB replay in ``oracle_sql()['dedup_minhash']`` (grouping on the
    values themselves also removes the fold's collision term). The
    band exchange then ships a ~40-char key instead of 8 bytes —
    immaterial next to the signature savings."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    assert num_perm % bands == 0
    rows_per_band = num_perm // bands
    key_col = "band_key" if hash_family == "md5" else "band_hash"

    sig_ds = docs_ds.map_batches(
        minhash_md5_sig_batch if hash_family == "md5" else minhash_sig_batch,
        fn_kwargs={"text_col": text_col, "id_col": id_col,
                   "num_perm": num_perm},
        batch_format="pyarrow",
    ).materialize()  # consumed twice: band derivation + candidate verify

    def explode_bands(t: pa.Table) -> pa.Table:
        M = _sig_matrix(t).astype(np.uint64)
        n = M.shape[0]
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        # fold each band's rows to one 63-bit hash, fully vectorized
        X = M * np.uint64(0x9E3779B97F4A7C15)
        bh = np.bitwise_xor.reduce(
            X.reshape(n, bands, rows_per_band), axis=2
        ).astype(np.int64) & 0x7FFFFFFFFFFFFFFF
        band_idx = np.tile(np.arange(bands, dtype=np.int32), n)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, bands), pa.int64()),
            "band": pa.array(band_idx, pa.int32()),
            "band_hash": pa.array(bh.reshape(-1), pa.int64()),
            "part": pa.array((bh.reshape(-1) & (n_parts - 1)).astype(np.int32),
                             pa.int32()),
        })

    def explode_bands_md5(t: pa.Table) -> pa.Table:
        from ..functions.hashing import fast_part_hash

        M = _sig_matrix(t)
        n = M.shape[0]
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        # band key = ','-joined signature values (vectorized numpy
        # string ops over the whole batch) — the exact string
        # string_agg(sig, ',' ORDER BY j) produces in the SQL replay
        S = M.astype("U10")
        keys = []
        for bnd in range(bands):
            kb = S[:, bnd * rows_per_band]
            for j in range(1, rows_per_band):
                kb = np.char.add(np.char.add(kb, ","),
                                 S[:, bnd * rows_per_band + j])
            keys.append(kb)
        band_key = (np.stack(keys, axis=1).reshape(-1) if n
                    else np.empty(0, dtype="U1"))
        band_idx = np.tile(np.arange(bands, dtype=np.int32), n)
        key_arr = pa.array(band_key, pa.string())
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, bands), pa.int64()),
            "band": pa.array(band_idx, pa.int32()),
            "band_key": key_arr,
            "part": pa.array(fast_part_hash(key_arr, n_parts)),
        })

    band_ds = sig_ds.map_batches(
        explode_bands_md5 if hash_family == "md5" else explode_bands,
        batch_format="pyarrow")

    # Shuffle key = band_hash % n_parts: bounded group count (n_parts map_groups
    # invocations), and each invocation handles ALL its (band, band_hash)
    # buckets with one vectorized pandas pass — never one Python call per
    # bucket. Rows of one bucket always share a part (part = f(band_hash)).
    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df[~df.duplicated(subset=["band", key_col, "doc_id"],
                               keep="first")]
        sizes = df.groupby(["band", key_col])["doc_id"].transform("size")
        df = df[sizes >= 2].sort_values(["band", key_col, "doc_id"])
        chunks, trunc_chunks = [], []
        for _, sub in df.groupby(["band", key_col]):
            ids = sub["doc_id"].to_numpy()
            truncated = len(ids) > max_bucket
            if truncated:
                ids = ids[:max_bucket]
            ia, ja = np.triu_indices(len(ids), k=1)
            chunks.append(np.stack([ids[ia], ids[ja]], axis=1))
            trunc_chunks.append(np.full(len(ia), truncated))
        P = (np.concatenate(chunks) if chunks
             else np.empty((0, 2), dtype=np.int64))
        T = (np.concatenate(trunc_chunks) if trunc_chunks
             else np.empty(0, dtype=bool))
        return pd.DataFrame({"doc_a": P[:, 0].astype("int64"),
                             "doc_b": P[:, 1].astype("int64"),
                             "truncated": T})

    raw_pairs = band_ds.groupby("part").map_groups(
        bucket_pairs, batch_format="pandas"
    )

    # A near-dup pair collides in MANY bands (all 16 for identical docs).
    # The cross-band dedup + candidate-id collection happen in ONE driver
    # pass over the (near-dup-scale, bounded) raw pair stream — the same
    # boundedness assumption ``minhash_clusters`` makes for its union-find
    # — saving the extra groupby shuffle a distributed dedup would cost.
    import ray.data as rd

    pair_trunc: dict[tuple[int, int], bool] = {}
    for b in raw_pairs.iter_batches(batch_format="pyarrow"):
        for a_, b_, tr in zip(b["doc_a"].to_pylist(), b["doc_b"].to_pylist(),
                              b["truncated"].to_pylist()):
            k = (a_, b_)
            pair_trunc[k] = pair_trunc.get(k, False) or tr
    if not pair_trunc:
        return rd.from_arrow(pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "est_jaccard": pa.array([], pa.float64()),
            "truncated": pa.array([], pa.bool_()),
        }))
    keys = sorted(pair_trunc)
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([k[0] for k in keys], pa.int64()),
        "doc_b": pa.array([k[1] for k in keys], pa.int64()),
        "truncated": pa.array([pair_trunc[k] for k in keys], pa.bool_()),
    }))
    cand_ids = {k[0] for k in keys} | {k[1] for k in keys}
    idset = pa.array(sorted(cand_ids), pa.int64())
    cand_sig = sig_ds.map_batches(
        lambda t: t.filter(pc.is_in(t["doc_id"], value_set=idset)),
        batch_format="pyarrow",
    )
    lookup: dict[int, np.ndarray] = {}
    for b in cand_sig.iter_batches(batch_format="pyarrow"):
        M = _sig_matrix(b)
        for j, d in enumerate(b["doc_id"].to_pylist()):
            lookup[d] = M[j]
    import ray as _ray

    sig_ref = _ray.put(lookup)

    def verify(t: pa.Table, ref=sig_ref) -> pa.Table:
        # task form (no actor ramp): ray.get of the broadcast lookup is a
        # node-local zero-copy object-store read per task
        lk = _ray.get(ref)
        da = t["doc_a"].to_pylist()
        db = t["doc_b"].to_pylist()
        if da:
            A = np.stack([lk[d] for d in da])
            B = np.stack([lk[d] for d in db])
            est = (A == B).mean(axis=1)
        else:
            est = np.array([], dtype=np.float64)
        return pa.table({
            "doc_a": t["doc_a"],
            "doc_b": t["doc_b"],
            "est_jaccard": pa.array(est, pa.float64()),
            "truncated": t["truncated"],
        })

    return pairs.map_batches(verify, batch_format="pyarrow")


def _pairs_to_clusters_ds(pairs, threshold):
    """Thresholded candidate pairs → (doc_id, cluster_id) Dataset via the
    distributed min-label fixpoint (``union_find_labels_ds``) — NO
    driver-side pair collection.

    Encoding: each undirected pair (a, b) becomes the bipartite edges
    (norm=a, cand=b) and (norm=b, cand=b) plus a self-edge per member,
    so pair connectivity is exactly bipartite connectivity; doc ids are
    zero-padded to 20 digits (Arrow lpad — vectorized, no per-pair
    Python) so the string min-label IS the numeric min-ID rule."""
    from .canonicalize import union_find_labels_ds

    def to_edges(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t["est_jaccard"], threshold)
        t = t.filter(keep)
        ka = pc.utf8_lpad(pc.cast(t["doc_a"], pa.string()), 20, "0")
        ka = ka.combine_chunks() if isinstance(ka, pa.ChunkedArray) else ka
        kb = pc.utf8_lpad(pc.cast(t["doc_b"], pa.string()), 20, "0")
        kb = kb.combine_chunks() if isinstance(kb, pa.ChunkedArray) else kb
        # pair edge (a→b) + self-edges — same edge multiset as the old
        # per-pair loop: norms (ka,kb,ka,kb) × cands (kb,kb,ka,kb)
        norm = pa.concat_arrays([ka, kb, ka, kb])
        cand = pa.concat_arrays([kb, kb, ka, kb])
        return pa.table({"norm": norm, "candidate_id": cand})

    edges = pairs.map_batches(to_edges,
                              batch_format="pyarrow").materialize()
    if edges.count() == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "cluster_id": pa.array([], pa.int64())}))
    labels = union_find_labels_ds(edges)

    def decode(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["norm"], pa.int64()),
            "cluster_id": pc.cast(t["label"], pa.int64()),
        })

    return labels.map_batches(decode, batch_format="pyarrow")


def _pairs_to_clusters(pairs, threshold, max_driver_pairs):
    """Shared pair→cluster resolution with AUTOMATIC routing (the
    `minhash_clusters` contract, also consumed by
    `winnowing_clusters`): a MATERIALIZED candidate-pair Dataset
    (doc_a, doc_b, est_jaccard) resolves to (doc_id, cluster_id =
    min member id) — driver union-find below ``max_driver_pairs``
    pairs, the Dataset min-label fixpoint above, so no caller can
    accidentally ``take_all()`` a huge pair list."""
    if pairs.count() > max_driver_pairs:
        clusters = _pairs_to_clusters_ds(pairs, threshold)
        return clusters.sort(["doc_id"]).to_pandas()
    rows = pairs.take_all()
    parent: dict[int, int] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    seen_pairs = set()
    members = set()
    for r in rows:
        if r["est_jaccard"] < threshold:
            continue
        a, b = int(r["doc_a"]), int(r["doc_b"])
        if (a, b) in seen_pairs:
            continue
        seen_pairs.add((a, b))
        members.update((a, b))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return pd.DataFrame(
        sorted((m, find(m)) for m in members),
        columns=["doc_id", "cluster_id"])


def minhash_clusters_ds(docs_ds, threshold=0.7, **kw):
    """Dataset-native near-dup clustering — the 100-TB path: thresholded
    candidate pairs feed the distributed min-label fixpoint with NO
    driver-side pair collection. Returns a (doc_id, cluster_id) Dataset
    — equivalence with the driver path is pytest-asserted."""
    return _pairs_to_clusters_ds(minhash_candidate_pairs(docs_ds, **kw),
                                 threshold)


def minhash_clusters(docs_ds, threshold=0.7,
                     max_driver_pairs: int = 500_000, **kw):
    """Near-dup clusters: candidate pairs ≥ threshold (estimated Jaccard)
    → connected components (min-ID representative). Pair set is usually
    near-dup scale (small) and resolved driver-side, as with entity
    canonicalization (SURVEY.md §7.4) — but the routing is AUTOMATIC:
    above ``max_driver_pairs`` candidate pairs the clustering switches
    to the driver-free Dataset path (``_pairs_to_clusters_ds``), so no
    caller can accidentally ``take_all()`` a huge pair list. The pairs
    Dataset is materialized ONCE (count + consume — no double
    execution); equivalence of the two paths is pytest-asserted."""
    pairs = minhash_candidate_pairs(docs_ds, **kw).materialize()
    return _pairs_to_clusters(pairs, threshold, max_driver_pairs)


# ---------------------------------------------------------------------------
# SimHash

def _sim_candidate_pairs(idx, sigs, unmatched_bits, max_bucket, max_hamming):
    """Lossless candidate enumeration for one SimHash bucket.

    Returns a list of (ia, ja) position-pair arrays (positions into ``sigs``,
    ia < ja) whose union is a SUPERSET of every pair with hamming ≤
    ``max_hamming`` over the full signature. Buckets at or under
    ``max_bucket`` brute-force all pairs. Larger buckets recurse by
    pigeonhole on the still-unmatched bits: split them into
    ``max_hamming + 1`` spans — a qualifying pair has ≤ max_hamming
    differing bits total, so at least one span is bit-identical — and
    group by each span's value. Recursion strictly shrinks the unmatched
    bit set, so identical-signature mega-groups terminate at the
    no-unmatched-bits brute force (those pairs are genuine hamming-0
    output, not a cap casualty). Callers must np.unique the union —
    a pair can surface under several spans.

    Bits CONSTANT within the group are dropped before splitting: they
    can never separate a pair and always "match", so keeping them would
    let a group that some span fails to split recurse intact into every
    span — exponential in the number of levels (an identical-signature
    run of > max_bucket clones spins for hours). After the drop, every
    span holds >=1 varying bit, so every span splits every group into
    >=2 strictly smaller subgroups: total work is O(n log n · spans)
    per bucket, and all-identical groups go straight to the brute-force
    emit (their C(n,2) hamming-0 pairs ARE the output).

    The split is taken ONLY while > max_hamming varying bits remain:
    the pigeonhole needs max_hamming+1 NON-EMPTY spans, so a varying
    set of <= max_hamming bits cannot be split soundly (a pair may
    differ on every span) — but then every pair in the group differs
    on <= max_hamming bits, i.e. the whole group is mutually near:
    brute-force emit is both safe and output-bound."""
    n = len(idx)
    if n < 2:
        return []
    sub = sigs[idx]
    if n > max_bucket and unmatched_bits:
        diff_mask = np.bitwise_or.reduce(sub ^ sub[0])
        unmatched_bits = [b for b in unmatched_bits
                          if (diff_mask >> np.uint64(b)) & np.uint64(1)]
    if n <= max_bucket or len(unmatched_bits) <= max_hamming:
        pos = np.sort(idx)
        ia, ja = np.triu_indices(n, k=1)
        return [(pos[ia], pos[ja])]
    out = []
    spans = [s for s in np.array_split(np.asarray(unmatched_bits,
                                                  dtype=np.uint64),
                                       max_hamming + 1) if len(s)]
    for span in spans:
        key = np.zeros(n, dtype=np.uint64)
        for j, b in enumerate(span):
            key |= ((sub >> b) & np.uint64(1)) << np.uint64(j)
        remaining = [b for b in unmatched_bits if b not in set(span.tolist())]
        order = np.argsort(key, kind="stable")
        sk = key[order]
        bounds = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1], True])
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s >= 2:
                out.extend(_sim_candidate_pairs(idx[order[s:e]], sigs,
                                                remaining, max_bucket,
                                                max_hamming))
    return out


def simhash_pairs(docs_ds, max_hamming=3, text_col="text", id_col="doc_id",
                  max_bucket=256):
    """SimHash near-dup pairs: bucket by 16-bit signature chunks (pigeonhole:
    hamming ≤ 3 over 64 bits ⇒ at least one of 4 chunks identical), verify
    hamming distance exactly within buckets, global pair dedup. Buckets
    larger than ``max_bucket`` are NOT truncated — they recurse via
    :func:`_sim_candidate_pairs` on the unmatched bits, so recall stays
    exact while per-bucket pair work stays near O(n · max_bucket)."""
    def sim_sigs(t: pa.Table) -> pa.Table:
        from ..functions.hashing import md5_token_hashes, simhash64_batch

        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        # md5-prefix token hashes: the SQL-replayable family, so the
        # dedup_simhash oracle recomputes signatures exactly in DuckDB
        sigs = simhash64_batch([txt.split()
                                for txt in t[text_col].to_pylist()],
                               memo=_md5_worker_memo(),
                               hash_fn=md5_token_hashes)
        # explode each doc into its 4×16-bit chunks, vectorized
        # (pigeonhole: hamming ≤ 3 over 64 bits ⇒ ≥1 chunk identical)
        c = np.arange(4, dtype=np.uint64)
        keys = ((sigs[:, None] >> (np.uint64(16) * c)[None, :])
                & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, 4).astype(np.int64),
                                   pa.int64()),
                "chunk": pa.array(np.tile(c.astype(np.int32), len(ids)),
                                  pa.int32()),
                "chunk_key": pa.array(keys.reshape(-1), pa.int64()),
                "sig": pa.array(np.repeat(sigs.view(np.int64), 4), pa.int64()),
            }
        )

    sig_ds = docs_ds.map_batches(sim_sigs, batch_format="pyarrow")

    n_parts = 16

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["chunk_key"], n_parts - 1), pa.int32())
        return t.append_column("part", part)

    sig_ds = sig_ds.map_batches(add_part, batch_format="pyarrow")

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        chunks = []
        df = df.drop_duplicates(subset=["chunk", "chunk_key", "doc_id"])
        sizes = df.groupby(["chunk", "chunk_key"])["doc_id"].transform("size")
        df = df[sizes >= 2].sort_values(["chunk", "chunk_key", "doc_id"])
        for (c, _), sub in df.groupby(["chunk", "chunk_key"]):
            ids = sub["doc_id"].to_numpy()
            sigs = sub["sig"].to_numpy().astype(np.int64).view(np.uint64)
            unmatched = [b for b in range(64)
                         if not (16 * int(c) <= b < 16 * int(c) + 16)]
            cand = _sim_candidate_pairs(np.arange(len(ids)), sigs, unmatched,
                                        max_bucket, max_hamming)
            if not cand:
                continue
            ia = np.concatenate([p[0] for p in cand])
            ja = np.concatenate([p[1] for p in cand])
            if len(cand) > 1:
                uniq = np.unique(np.stack([ia, ja], axis=1), axis=0)
                ia, ja = uniq[:, 0], uniq[:, 1]
            x = sigs[ia] ^ sigs[ja]
            # vectorized 64-bit popcount: 8 bytes per value → unpackbits
            d = np.unpackbits(x.view(np.uint8).reshape(len(x), 8),
                              axis=1).sum(axis=1).astype(np.int64)
            keep = d <= max_hamming
            # global pair dedup WITHOUT a second shuffle: a pair matching
            # in several chunks is emitted only by its SMALLEST matching
            # chunk — decidable locally because the full sig travels with
            # the row (the xor's low 16c bits reveal lower-chunk matches)
            for cp in range(int(c)):
                keep &= ((x >> np.uint64(16 * cp)) & np.uint64(0xFFFF)) != 0
            chunks.append(np.stack([ids[ia][keep], ids[ja][keep],
                                    d[keep]], axis=1))
        P = (np.concatenate(chunks) if chunks
             else np.empty((0, 3), dtype=np.int64))
        return pd.DataFrame({"doc_a": P[:, 0].astype("int64"),
                             "doc_b": P[:, 1].astype("int64"),
                             "hamming": P[:, 2].astype("int64")})

    return sig_ds.groupby("part").map_groups(bucket, batch_format="pandas")


# ---------------------------------------------------------------------------
# Embedding near-dup (cosine) via random-hyperplane LSH

class HyperplaneBucketStage:
    """embeddings batch → (vec_id, bucket, vec) rows; bucket = sign bits of
    ``n_planes`` fixed random hyperplanes (seeded — identical across
    actors/nodes)."""

    def __init__(self, dim: int, n_planes: int = 8, n_tables: int = 4,
                 id_col="vec_id", vec_col="embedding"):
        rng = np.random.RandomState(123)
        self.planes = [rng.randn(dim, n_planes) for _ in range(n_tables)]
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = np.asarray(t[self.id_col].to_pylist(), dtype=np.int64)
        vecs = np.asarray(t[self.vec_col].to_pylist(), dtype=np.float64)
        if vecs.ndim == 1:
            vecs = vecs.reshape(0, self.planes[0].shape[0])
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = vecs / norms
        out_id, out_table, out_bucket, out_vec = [], [], [], []
        for ti, P in enumerate(self.planes):
            bits = (unit @ P) > 0
            codes = (bits * (1 << np.arange(P.shape[1]))).sum(axis=1)
            out_id.extend(ids.tolist())
            out_table.extend([ti] * len(ids))
            out_bucket.extend(codes.astype(np.int64).tolist())
            out_vec.extend(unit.tolist())
        return pa.table(
            {
                "vec_id": pa.array(out_id, pa.int64()),
                "lsh_table": pa.array(out_table, pa.int32()),
                "bucket": pa.array(out_bucket, pa.int64()),
                "unit_vec": pa.array(out_vec, pa.list_(pa.float64())),
            }
        )


_PLANE_CACHE: dict = {}


def _hyperplane_stage(dim, n_planes, n_tables, id_col, vec_col):
    """Per-worker cached HyperplaneBucketStage (module-level function →
    pickled by reference, so the cache dict resolves to each WORKER's
    module instance and persists across that worker's tasks)."""
    key = (dim, n_planes, n_tables, id_col, vec_col)
    st = _PLANE_CACHE.get(key)
    if st is None:
        st = _PLANE_CACHE[key] = HyperplaneBucketStage(
            dim=dim, n_planes=n_planes, n_tables=n_tables,
            id_col=id_col, vec_col=vec_col)
    return st


def embedding_neardup_pairs(emb_ds, dim: int, threshold: float = 0.99,
                            n_planes=8, n_tables=4, max_bucket=512,
                            id_col="vec_id", vec_col="embedding"):
    """Cosine near-dup pairs ≥ threshold via hyperplane-LSH buckets + exact
    verification inside each bucket; global pair dedup. Approximate by
    construction (recall < 1 is possible; n_tables trades recall for
    shuffle volume) — the brute-force exact path lives in
    stages/similarity.py."""

    # task form on warm workers: the hyperplanes are a seeded-RNG pure
    # function (identical on every worker), built once per worker via the
    # module-level cache helper — no actor-pool ramp
    def bucket_sigs(t: pa.Table) -> pa.Table:
        return _hyperplane_stage(dim, n_planes, n_tables, id_col, vec_col)(t)

    sig = emb_ds.map_batches(bucket_sigs, batch_format="pyarrow")

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        df = df.drop_duplicates(subset=["bucket", "vec_id"])
        counts = df["bucket"].value_counts()
        df = df[df["bucket"].isin(counts[counts >= 2].index)]
        for _, sub in df.groupby("bucket"):
            sub = sub.sort_values("vec_id").head(max_bucket)
            ids = sub["vec_id"].to_numpy()
            V = np.array(sub["unit_vec"].tolist(), dtype=np.float64)
            sims = V @ V.T
            ia, ja = np.triu_indices(len(ids), k=1)
            keep = sims[ia, ja] >= threshold
            frames.append(pd.DataFrame(
                {
                    "vec_a": ids[ia[keep]].astype("int64"),
                    "vec_b": ids[ja[keep]].astype("int64"),
                    "cos_micro": np.floor(sims[ia, ja][keep] * 1e6).astype("int64"),
                }
            ))
        if not frames:
            return pd.DataFrame({"vec_a": pd.Series([], dtype="int64"),
                                 "vec_b": pd.Series([], dtype="int64"),
                                 "cos_micro": pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    pairs = sig.groupby(["lsh_table"]).map_groups(bucket, batch_format="pandas")
    from ray.data.aggregate import Max

    g = pairs.groupby(["vec_a", "vec_b"]).aggregate(Max("cos_micro"))
    return _rename(g, {"max(cos_micro)": "cos_micro"})


# ---------------------------------------------------------------------------
# n-gram Jaccard near-dup (exact similarity, inverted-index candidates)

def _ngram_pair_counts(docs_ds, k: int, text_col: str, id_col: str,
                       max_df: int, n_parts: int):
    """Shared plumbing for the EXACT k-gram pair family
    (``ngram_jaccard_pairs``, ``ngram_containment_pairs``): per ordered
    doc pair (a < b), the distinct-k-gram intersection count c plus both
    set sizes, via a distributed inverted index — each shared k-gram
    contributes one (a, b) co-occurrence, so c falls out of the index
    itself, with no approximation (unlike MinHash).

    Plan: per-doc distinct k-gram hashes (+ the doc's set size carried
    on every row — 8 bytes beats a separate size join) → hash-partition
    the index on the k-gram → per-partition vectorized pair generation
    with PARTIAL (a, b) counts → one global pair aggregate
    (Sum / Max-of-constant) → threshold filter. Two exchanges total,
    both combiner-bounded.

    ``max_df``: k-grams appearing in more than this many docs are
    dropped as stop-grams (a df-cap, the standard inverted-index guard
    against O(df²) pair blowup). NOT silent: dropped k-gram counts are
    emitted on stderr per partition. The DuckDB oracle matches exactly
    whenever no k-gram exceeds the cap (true for the test corpora).

    Mirrors (for the oracle): tokens = whitespace-split, k-grams only
    for docs with ≥ k tokens, sets are distinct, J compared pre-floor in
    float64, reported as ``jaccard_micro`` (floor ×1e6)."""
    from ..functions.hashing import shingle_hashes_fast

    def doc_ngrams(t: pa.Table) -> pa.Table:
        memo = _worker_memo()
        ids, ngs, ns = [], [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = txt.split()
            if len(toks) < k:
                continue  # oracle semantics: no k-grams for short docs
            hs = shingle_hashes_fast(toks, k=k, memo=memo)  # distinct
            ids.append(np.full(len(hs), i, dtype=np.int64))
            ngs.append(hs.view(np.int64))
            ns.append(np.full(len(hs), len(hs), dtype=np.int64))
        if not ids:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "ng": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "part": pa.array([], pa.int32())})
        ng = np.concatenate(ngs)
        return pa.table({
            "doc_id": pa.array(np.concatenate(ids), pa.int64()),
            "ng": pa.array(ng, pa.int64()),
            "n": pa.array(np.concatenate(ns), pa.int64()),
            "part": pa.array((ng & (n_parts - 1)).astype(np.int32),
                             pa.int32()),
        })

    grams = docs_ds.map_batches(doc_ngrams, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        sizes = df.groupby("ng")["doc_id"].transform("size")
        hot = sizes > max_df
        if hot.any():
            import sys

            print(f"ngram_jaccard: dropped "
                  f"{df.loc[hot, 'ng'].nunique()} stop-grams (df>{max_df})",
                  file=sys.stderr)
            df = df[~hot]
        df = df[df.groupby("ng")["doc_id"].transform("size") >= 2]
        if not len(df):
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "c": pd.Series([], dtype="int64"),
                                 "na": pd.Series([], dtype="int64"),
                                 "nb": pd.Series([], dtype="int64")})
        # vectorized intra-gram pair generation: self-merge on the k-gram
        # (C-speed hash join; output bounded by the df-cap above), keep
        # the ordered half a < b — no Python loop over gram groups
        side = df[["ng", "doc_id", "n"]]
        m = side.merge(side, on="ng", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        out = pd.DataFrame({
            "doc_a": m["doc_id_a"].to_numpy(),
            "doc_b": m["doc_id_b"].to_numpy(),
            "na": m["n_a"].to_numpy(),
            "nb": m["n_b"].to_numpy(),
        })
        # partial combiner: co-occurrence count within this partition
        g = out.groupby(["doc_a", "doc_b"], as_index=False).agg(
            c=("na", "size"), na=("na", "first"), nb=("nb", "first"))
        return g[["doc_a", "doc_b", "c", "na", "nb"]].astype("int64")

    pairs_part = grams.groupby("part").map_groups(
        bucket_pairs, batch_format="pandas")

    # global pair aggregate via hash-partition + ONE vectorized Arrow
    # group_by per partition — Ray's builtin aggregate costs ~µs of
    # Python per group per agg, which dominates at the millions of
    # candidate pairs a templated web corpus produces
    def add_pair_part(df: pd.DataFrame) -> pd.DataFrame:
        h = (df["doc_a"].to_numpy(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             ^ df["doc_b"].to_numpy(np.uint64))
        df["pp"] = (h & np.uint64(n_parts - 1)).astype(np.int32)
        return df

    def combine_pairs(t: pa.Table) -> pa.Table:
        g = t.group_by(["pp", "doc_a", "doc_b"]).aggregate(
            [("c", "sum"), ("na", "min"), ("nb", "min")])
        return g.rename_columns(["pp", "doc_a", "doc_b", "sum(c)",
                                 "max(na)", "max(nb)"])

    g = (pairs_part.map_batches(add_pair_part, batch_format="pandas")
         .groupby("pp")
         .map_groups(combine_pairs, batch_format="pyarrow"))

    return g


def ngram_jaccard_pairs(docs_ds, threshold: float = 0.5, k: int = 3,
                        text_col="text", id_col="doc_id",
                        max_df: int = 4096, n_parts: int | None = None):
    """EXACT word-k-gram Jaccard near-dup pairs — see
    ``_ngram_pair_counts`` for the two-exchange inverted-index plan and
    the df-cap caveat; this wrapper applies the symmetric
    ``J = c / (na + nb - c)`` threshold with the float64 expression
    shape mirrored by the SQL oracle."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    g = _ngram_pair_counts(docs_ds, k, text_col, id_col, max_df, n_parts)

    def finish(t: pa.Table) -> pa.Table:
        c = t["sum(c)"].to_numpy(zero_copy_only=False).astype(np.float64)
        na = t["max(na)"].to_numpy(zero_copy_only=False).astype(np.float64)
        nb = t["max(nb)"].to_numpy(zero_copy_only=False).astype(np.float64)
        # same float64 expression shape as the SQL oracle so the floor
        # and the threshold comparison agree bit-for-bit
        jm = 1000000.0 * c / (na + nb - c)
        keep = pa.array(jm >= threshold * 1000000.0)
        return pa.table({
            "doc_a": t["doc_a"].filter(keep),
            "doc_b": t["doc_b"].filter(keep),
            "jaccard_micro": pa.array(
                np.floor(jm[np.asarray(keep)]).astype(np.int64), pa.int64()),
        })

    return g.map_batches(finish, batch_format="pyarrow")


def ngram_containment_pairs(docs_ds, threshold: float = 0.5, k: int = 3,
                            text_col="text", id_col="doc_id",
                            max_df: int = 4096, n_parts: int | None = None):
    """ASYMMETRIC shingle CONTAINMENT pairs — |A∩B| / |A| ≥ threshold,
    emitted DIRECTED (doc_a contained-in doc_b and vice versa as
    separate rows): the subset-duplicate detector (a short page quoted
    wholesale inside a longer one never reaches a symmetric Jaccard
    threshold, but its containment is ~1). Same two-exchange
    inverted-index plan as ``ngram_jaccard_pairs``; integer
    ``containment_micro = (1_000_000 · c) // |A|`` so the oracle replays
    bit-exactly."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    g = _ngram_pair_counts(docs_ds, k, text_col, id_col, max_df, n_parts)
    thr = int(threshold * 1_000_000)

    def finish(t: pa.Table) -> pa.Table:
        c = t["sum(c)"].to_numpy(zero_copy_only=False).astype(np.int64)
        na = t["max(na)"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = t["max(nb)"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = t["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        ca = (1_000_000 * c) // na  # a contained in b
        cb = (1_000_000 * c) // nb  # b contained in a
        src = np.concatenate([a[ca >= thr], b[cb >= thr]])
        dst = np.concatenate([b[ca >= thr], a[cb >= thr]])
        cm = np.concatenate([ca[ca >= thr], cb[cb >= thr]])
        return pa.table({"doc_a": pa.array(src, pa.int64()),
                         "doc_b": pa.array(dst, pa.int64()),
                         "containment_micro": pa.array(cm, pa.int64())})

    return g.map_batches(finish, batch_format="pyarrow")


def duplicated_spans(docs_ds, n: int = 4, id_col: str = "doc_id",
                     text_col: str = "text", n_parts: int | None = None):
    """Duplicated-PASSAGE detection (the span-level dedup signal from the
    public "Deduplicating Training Data Makes Language Models Better"
    line of work): per document, count the DISTINCT n-token shingles
    that also occur in at least one OTHER document. Documents full of
    boilerplate / mirrored passages light up even when no whole-document
    near-dup fires. Output: ``(doc_id, n_dup)``; documents with no
    shared span emit nothing.

    Scale shape: per-batch distinct (doc, shingle-hash64) pairs — a
    document is one row, so per-doc dedupe is in-batch and the pairs are
    globally unique without an exchange. Then ONE wide groupby on a
    small partition key derived from the shingle hash (bounded group
    count — the per-group pass is vectorized pandas, never per-group
    Python): inside each partition every occurrence of a hash is
    co-located, so a transform('size') marks shared shingles exactly.
    The trailing per-doc sum is a bounded exchange (≤ #docs × #parts
    partial rows). Shingle identity is the 64-bit hash — string-level
    parity with the SQL oracle modulo ~2^-64 collisions, same contract
    as ``decontaminate``."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    from .text_analysis import _shingle_hashes

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        dpos, sh = _shingle_hashes(df[text_col], n)
        ids = df[id_col].to_numpy(np.int64)
        out = pd.DataFrame({id_col: ids[dpos], "h": sh.view(np.int64)})
        out = out.drop_duplicates()
        out["part"] = (out["h"].to_numpy(np.uint64)
                       % np.uint64(n_parts)).astype(np.int32)
        return out

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        shared = df.groupby("h")["h"].transform("size") >= 2
        hit = df.loc[shared]
        cnt = hit.groupby(id_col).size()
        out = pd.DataFrame({id_col: cnt.index.to_numpy(),
                            "n_dup": cnt.to_numpy().astype("int64")})
        out["p2"] = (out[id_col].to_numpy()
                     % np.int64(n_parts)).astype(np.int32)
        return out

    def final_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, as_index=False)["n_dup"].sum()
        g["n_dup"] = g["n_dup"].astype("int64")
        return g

    # both exchanges ride the bounded-partition map_groups shape — the
    # generic Sum-aggregate exchange measured 3× slower on the tiny
    # per-doc partial rows (fixed sort-shuffle latency dominates)
    return (docs_ds.map_batches(pairs, batch_format="pandas")
            .groupby("part").map_groups(mark, batch_format="pandas")
            .groupby("p2").map_groups(final_sum, batch_format="pandas"))


def _ed_le1(a: str, b: str) -> bool:
    """Exact edit-distance ≤ 1 check, O(len) single pass."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) <= 1
    if la > lb:
        a, b, la = b, a, lb
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def editdist_pairs(ds, col: str = "surface", n_parts: int | None = None):
    """EDIT-DISTANCE ≤ 1 similarity self-join — surface-variant
    detection ('Entity7' vs 'Entity 7') feeding fuzzy entity linking and
    typo-dedup, without the O(n²) all-pairs scan.

    Deletion-neighborhood blocking (complete for ed ≤ 1: two strings
    within one edit always share a member of {identity} ∪ {single-char
    deletions} — substitution pairs share the deletion at the differing
    index, insertion pairs share the shorter string itself):

    1. distinct values (per-batch combiner → hash-partition distinct);
    2. signature explode: each string emits itself + its len(s)
       single-deletion variants — shuffle volume Σ(len+1) over DISTINCT
       strings, corpus-independent;
    3. per signature bucket, candidate pairs verify with the exact
       one-pass ed ≤ 1 check (never trusting the block);
    4. one final pair-keyed distinct (a pair can share two signatures).

    Bucket size is bounded by variant fan-in per signature (alphabet ×
    positions), not corpus size; pathological key-collision corpora
    should length-bucket first."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    import pandas as pd

    from ..functions.hashing import fast_part_hash

    def batch_distinct(t: pa.Table) -> pa.Table:
        u = pc.unique(t[col].combine_chunks())
        return pa.table({"s": u,
                         "part": pa.array(fast_part_hash(u, n_parts))})

    def part_distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df[["s"]].drop_duplicates()

    distinct = (ds.map_batches(batch_distinct, batch_format="pyarrow")
                .groupby("part").map_groups(part_distinct,
                                            batch_format="pandas"))

    def explode(t: pa.Table) -> pa.Table:
        sigs, vals = [], []
        for s in t["s"].to_pylist():
            sigs.append(s)
            vals.append(s)
            for i in range(len(s)):
                sigs.append(s[:i] + s[i + 1:])
                vals.append(s)
        return pa.table({"sig": pa.array(sigs, pa.string()),
                         "s": pa.array(vals, pa.string()),
                         "part": pa.array(fast_part_hash(sigs, n_parts))})

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs_a, outs_b = [], []
        for _, grp in df.groupby("sig"):
            vals = sorted(set(grp["s"]))
            if len(vals) < 2:
                continue
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    if _ed_le1(vals[i], vals[j]):
                        outs_a.append(vals[i])
                        outs_b.append(vals[j])
        return pd.DataFrame({"surface_a": pd.array(outs_a, dtype=object),
                             "surface_b": pd.array(outs_b, dtype=object)})

    pairs = (distinct.map_batches(explode, batch_format="pyarrow")
             .groupby("part").map_groups(bucket_pairs,
                                         batch_format="pandas"))

    def tag_pair(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(t["surface_a"], t["surface_b"],
                                          "\x1f")
        return t.append_column("part",
                               pa.array(fast_part_hash(key, n_parts)))

    def pair_distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df[["surface_a", "surface_b"]].drop_duplicates()

    return (pairs.map_batches(tag_pair, batch_format="pyarrow")
            .groupby("part").map_groups(pair_distinct,
                                        batch_format="pandas"))


def dedup_incremental(committed_ds, incoming_ds, text_col: str = "text",
                      id_col: str = "doc_id", n_parts: int | None = None):
    """INCREMENTAL exact dedup — the streaming-ingest primitive: a new
    wave of documents dedupes against the already-committed corpus
    WITHOUT rereading committed text. Both sides reduce to 64-bit
    content hashes; one co-partitioned tag-union exchange marks each
    incoming hash as seen/unseen; unseen hashes keep their minimum
    incoming doc id (in-wave dedup included). Survivors =
    (doc_id, text) of the kept incoming rows — recovered via a
    bounded broadcast of the kept-id set, never a second shuffle of
    the text column.

    At 100 TB the committed side would be the persisted hash manifest a
    previous run checkpointed (16 bytes/doc), which is exactly what this
    consumes — the text of committed docs is never touched."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    import hashlib

    def _hash_cols(col: pa.ChunkedArray):
        texts = col.to_pylist()
        h1 = np.empty(len(texts), dtype=np.int64)
        part = np.empty(len(texts), dtype=np.int32)
        for i, s in enumerate(texts):
            d = hashlib.md5(s.encode("utf-8")).digest()
            h1[i] = int.from_bytes(d[:8], "little", signed=True)
            part[i] = h1[i] & (n_parts - 1)
        return pa.array(h1), pa.array(part)

    def committed_rows(t: pa.Table) -> pa.Table:
        th, part = _hash_cols(t[text_col])
        g = (pa.table({"th": th, "part": part})
             .group_by(["th", "part"]).aggregate([]))
        g = g.rename_columns(["th", "part"])
        return pa.table({
            "th": g["th"],
            "doc_id": pa.nulls(g.num_rows, pa.int64()),
            "part": g["part"]})

    def incoming_rows(t: pa.Table) -> pa.Table:
        th, part = _hash_cols(t[text_col])
        g = (pa.table({"th": th, "doc_id": t[id_col], "part": part})
             .group_by(["th", "part"]).aggregate([("doc_id", "min")]))
        return g.rename_columns(["th", "part", "doc_id"]).select(
            ["th", "doc_id", "part"])

    tagged = (committed_ds.map_batches(committed_rows,
                                       batch_format="pyarrow")
              .union(incoming_ds.map_batches(incoming_rows,
                                             batch_format="pyarrow")))

    def keep_new(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        seen = set(df.loc[df["doc_id"].isna(), "th"])
        new = df[df["doc_id"].notna() & ~df["th"].isin(seen)]
        kept = new.groupby("th", as_index=False)["doc_id"].min()
        return pa.table({"doc_id": pa.array(
            kept["doc_id"].astype("int64").to_numpy(), pa.int64())})

    kept_ids_ds = tagged.groupby("part").map_groups(keep_new,
                                                    batch_format="pyarrow")
    # kept-id set is ≤ |incoming wave| — broadcast once to recover text
    import ray

    from .graph import _collect_table

    kept_ref = ray.put(_collect_table(kept_ids_ds, pa.schema(
        [("doc_id", pa.int64())]))["doc_id"].combine_chunks())

    def survivors(t: pa.Table) -> pa.Table:
        ids = ray.get(kept_ref)
        return t.filter(pc.is_in(t[id_col], value_set=ids)).select(
            [id_col, text_col])

    return incoming_ds.map_batches(survivors, batch_format="pyarrow")


def _char_window_hashes(texts: pd.Series, L: int):
    """Vectorized L-CHAR sliding-window hashing over a batch of texts.

    Returns ``(doc_pos, start, window_hash)`` for every length-L
    character window that stays inside one document: the document's
    position within the batch, the 0-based character offset of the
    window, and a 64-bit polynomial hash of the window's code points.
    Character (not byte) semantics — parity with SQL ``substring``.
    No per-row Python: code points come from one utf-32 reinterpret of
    the concatenated batch, the polynomial is L vectorized passes."""
    empty = (np.array([], dtype=np.int64), np.array([], dtype=np.int64),
             np.array([], dtype=np.uint64))
    if not len(texts):
        return empty
    lens = texts.str.len().to_numpy(np.int64)
    flat = "".join(texts.tolist())
    m = len(flat)
    if m < L:
        return empty
    codes = np.frombuffer(flat.encode("utf-32-le"),
                          dtype=np.uint32).astype(np.uint64)
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    starts = np.arange(m - L + 1)
    valid = doc_idx[starts] == doc_idx[starts + L - 1]
    P = np.uint64(1099511628211)  # FNV prime; uint64 wraparound intended
    sh = np.zeros(m - L + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(L):
            sh = sh * P + codes[starts + j]
    doc_off = np.concatenate(([0], np.cumsum(lens)[:-1]))
    s = starts[valid]
    d = doc_idx[s]
    return d, s - doc_off[d], sh[valid]


def _merge_windows(ids: np.ndarray, st: np.ndarray, L: int) -> pd.DataFrame:
    """Merge equal-length duplicated windows into per-doc coverage.
    ``ids``/``st`` must be ordered by (doc, start) — the natural order
    both producers emit. Coverage of a union of length-L intervals with
    sorted starts is L for the first plus min(gap, L) per successor; a
    new maximal span begins exactly when gap > L. Output one row per
    doc: ``(doc_id, dup_chars, n_spans)``, both int64."""
    if not len(ids):
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "dup_chars": pd.Series([], dtype="int64"),
                             "n_spans": pd.Series([], dtype="int64")})
    same = ids[1:] == ids[:-1]
    gap = st[1:] - st[:-1]
    contrib = np.full(len(ids), L, dtype=np.int64)
    contrib[1:][same] = np.minimum(gap[same], L)
    new_span = np.ones(len(ids), dtype=np.int64)
    new_span[1:][same] = (gap[same] > L).astype(np.int64)
    df = pd.DataFrame({"doc_id": ids, "c": contrib, "s": new_span})
    g = df.groupby("doc_id", as_index=False).agg(
        dup_chars=("c", "sum"), n_spans=("s", "sum"))
    g["dup_chars"] = g["dup_chars"].astype("int64")
    g["n_spans"] = g["n_spans"].astype("int64")
    return g


def duplicated_substrings(docs_ds, L: int = 20, id_col: str = "doc_id",
                          text_col: str = "text",
                          n_parts: int | None = None,
                          max_broadcast_grams: int = 5_000_000,
                          force_path: str | None = None):
    """EXACT character-level duplicated-substring detection — the
    ExactSubstr signal from the public "Deduplicating Training Data
    Makes Language Models Better" line of work (there via a corpus
    suffix array): a character position is duplicated when it is
    covered by a length-L window whose exact L-char substring occurs
    ≥ 2 times ANYWHERE in the corpus (another doc or another offset of
    the same doc). Distinct from ``duplicated_spans`` (word-shingle,
    per-doc counts): this is char-exact and reports merged removal
    coverage — ``(doc_id, dup_chars, n_spans)``; clean docs emit
    nothing. Window identity is the 64-bit polynomial hash —
    string-level parity with the SQL oracle modulo ~2^-64 collisions,
    the same contract as ``duplicated_spans`` / ``decontaminate``.

    Scale shape (a corpus-wide suffix array is the one structure that
    does NOT distribute): pass 1 emits per-batch PARTIAL gram counts
    clipped at 2 (≤ distinct-grams-per-batch rows, never positions),
    one bounded hash exchange filters to grams with global multiplicity
    ≥ 2. Probe auto-routes: below ``max_broadcast_grams`` the dup-gram
    hash set broadcasts once (``ray.put``, sorted-array membership) and
    coverage merges IN BATCH — zero further exchange, driver state
    O(dup grams). Above it, positions ship ONCE co-partitioned by gram
    hash (tag-union with the dup set, the ``dedup_incremental`` shape),
    then regroup by doc to merge — two position-cardinality exchanges,
    no broadcast ceiling. ``force_path`` ∈ {"broadcast", "join"} pins a
    path for parity tests."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        _, _, h = _char_window_hashes(df[text_col], L)
        u, c = np.unique(h, return_counts=True)
        out = pd.DataFrame({"h": u.view(np.int64),
                            "cnt": np.minimum(c, 2).astype(np.int64)})
        out["part"] = (u % np.uint64(n_parts)).astype(np.int32)
        return out

    def dup_only(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("h", as_index=False)["cnt"].sum()
        g = g.loc[g["cnt"] >= 2, ["h"]]
        g["part"] = (g["h"].to_numpy().view(np.uint64)
                     % np.uint64(n_parts)).astype(np.int32)
        return g

    dup_ds = (docs_ds.map_batches(partial_counts, batch_format="pandas")
              .groupby("part").map_groups(dup_only, batch_format="pandas")
              .materialize())
    n_dup = dup_ds.count()
    path = force_path or ("broadcast" if n_dup <= max_broadcast_grams
                          else "join")

    import ray

    from .graph import _collect_table

    if path == "broadcast":
        dup_tbl = _collect_table(dup_ds, pa.schema([("h", pa.int64()),
                                                    ("part", pa.int32())]))
        dup_sorted = np.sort(dup_tbl["h"].to_numpy(zero_copy_only=False)
                             .view(np.uint64))
        dup_ref = ray.put(dup_sorted)

        def probe(df: pd.DataFrame) -> pd.DataFrame:
            dup = ray.get(dup_ref)
            d, s, h = _char_window_hashes(df[text_col], L)
            idx = np.searchsorted(dup, h)
            idx[idx == len(dup)] = 0
            hit = len(dup) > 0 and dup[idx] == h
            hit = np.zeros(len(h), bool) if isinstance(hit, bool) else hit
            ids = df[id_col].to_numpy(np.int64)[d[hit]]
            return _merge_windows(ids, s[hit], L)

        return docs_ds.map_batches(probe, batch_format="pandas")

    # join path: positions co-partitioned with the dup-gram set
    def position_rows(df: pd.DataFrame) -> pd.DataFrame:
        d, s, h = _char_window_hashes(df[text_col], L)
        out = pd.DataFrame({"h": h.view(np.int64),
                            "doc_id": df[id_col].to_numpy(np.int64)[d],
                            "st": s})
        out["part"] = (h % np.uint64(n_parts)).astype(np.int32)
        return out

    def dup_tag(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["h", "part"]].copy()
        out["doc_id"] = np.int64(-1)
        out["st"] = np.int64(-1)
        return out[["h", "doc_id", "st", "part"]]

    tagged = (dup_ds.map_batches(dup_tag, batch_format="pandas")
              .union(docs_ds.map_batches(position_rows,
                                         batch_format="pandas")))

    def keep_dup(df: pd.DataFrame) -> pd.DataFrame:
        dup = df.loc[df["doc_id"] < 0, "h"]
        hit = df.loc[(df["doc_id"] >= 0) & df["h"].isin(set(dup)),
                     ["doc_id", "st"]]
        hit = hit.astype({"doc_id": "int64", "st": "int64"})
        hit["p2"] = (hit["doc_id"].to_numpy()
                     % np.int64(n_parts)).astype(np.int32)
        return hit

    def merge_doc(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "st"])
        return _merge_windows(df["doc_id"].to_numpy(np.int64),
                              df["st"].to_numpy(np.int64), L)

    return (tagged.groupby("part").map_groups(keep_dup,
                                              batch_format="pandas")
            .groupby("p2").map_groups(merge_doc, batch_format="pandas"))


def winnowing_fingerprints(docs_ds, k: int = 3, w: int = 4,
                           text_col="text", id_col="doc_id"):
    """WINNOWING document fingerprints (Schleimer/Wilkerson/Aiken 2003,
    the MOSS algorithm): hash every token ``k``-gram, slide a window of
    ``w`` consecutive hashes, and select each window's minimum —
    rightmost on ties — giving a position-robust fingerprint set whose
    density is guaranteed (at least one selection per window) without
    the fragility of `fingerprints`' whole-doc hash or the fixed stride
    of `segment_dedup_profile`. Shared selected fingerprints across
    docs localize plagiarized/duplicated passages.

    Exactness contract: gram hash = md5-prefix 40-bit
    (``CAST('0x' || substring(md5(gram), 1, 10) AS BIGINT)``, the
    SQL-replayable md5 family); the rightmost-min tiebreak is encoded
    order-theoretically as ``key = h·2^20 − pos`` (minimizing key ⇒
    min h, then max pos), so engine and oracle share ONE total order.
    Bound: gram index < 2^20 per doc (~1M tokens) keeps the key exact
    in int64 — a longer doc raises ``ValueError``; split it upstream
    (`chunk_documents`).

    Shape: per-doc work only — ONE stateless map, no exchange. md5 is
    computed once per DISTINCT gram per batch; the sliding min is a
    numpy stride view (int64-exact — pandas rolling would round trip
    through float64 and corrupt keys above 2^53). Docs with fewer than
    ``k`` tokens have no grams and are absent; docs with fewer than
    ``w`` grams contribute their single whole-sequence window.
    Returns distinct (doc_id, pos, fp) selections."""
    import hashlib

    P = 1 << 20

    def select(df: pd.DataFrame) -> pd.DataFrame:
        arr = pc.split_pattern_regex(
            pa.array(df[text_col].to_numpy(dtype=object), pa.string()),
            r"\s+")
        lens = pc.list_value_length(arr).to_numpy().astype(np.int64)
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(df)), lens)
        keep = flat != ""
        flat, doc_idx = flat[keep], doc_idx[keep]
        empty = pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                              "pos": pd.Series([], dtype="int64"),
                              "fp": pd.Series([], dtype="int64")})
        if len(flat) < k:
            return empty
        # k-grams within doc boundaries (vectorized shift-concat)
        gram_ok = np.ones(len(flat) - k + 1, bool)
        parts = flat[: len(flat) - k + 1].astype(object)
        for j in range(1, k):
            sl = flat[j: len(flat) - k + 1 + j]
            parts = parts + " "
            parts = parts + sl.astype(object)
            gram_ok &= doc_idx[j: len(flat) - k + 1 + j] \
                == doc_idx[: len(flat) - k + 1]
        grams, gdoc = parts[gram_ok], doc_idx[: len(flat) - k + 1][gram_ok]
        if len(grams) == 0:
            return empty
        # positions within doc (0-based gram index)
        ng = np.bincount(gdoc, minlength=len(df)).astype(np.int64)
        off = np.zeros(len(df) + 1, np.int64)
        np.cumsum(ng, out=off[1:])
        pos = np.arange(len(grams), dtype=np.int64) - off[gdoc]
        if pos.max() >= P:
            raise ValueError(
                f"winnowing_fingerprints: a document has {pos.max() + 1} "
                f"{k}-grams, but the tiebreak key holds gram indices "
                f"below 2^20; split long documents with chunk_documents "
                f"first")
        # md5 once per distinct gram
        uniq, inv = np.unique(grams.astype("U"), return_inverse=True)
        hv = np.fromiter(
            (int(hashlib.md5(g.encode("utf-8")).hexdigest()[:10], 16)
             for g in uniq), dtype=np.int64, count=len(uniq))[inv]
        key = hv * P - pos
        # full windows: ends with pos >= w-1 (window stays in-doc)
        sel_keys = []
        sel_docs = []
        if len(key) >= w:
            swv = np.lib.stride_tricks.sliding_window_view(key, w)
            full = pos[w - 1:] >= w - 1
            sel_keys.append(swv.min(axis=1)[full])
            sel_docs.append(gdoc[w - 1:][full])
        # short docs (n_grams < w): one whole-sequence window
        short = ng[gdoc] < w
        if short.any():
            s = pd.DataFrame({"d": gdoc[short], "key": key[short]})
            m = s.groupby("d", as_index=False)["key"].min()
            sel_keys.append(m["key"].to_numpy())
            sel_docs.append(m["d"].to_numpy())
        mn = np.concatenate(sel_keys)
        md = np.concatenate(sel_docs)
        h = (mn + P - 1) // P
        p = h * P - mn
        out = pd.DataFrame({
            id_col: df[id_col].to_numpy()[md],
            "pos": p, "fp": h}).drop_duplicates([id_col, "pos"])
        return out.reset_index(drop=True)

    return docs_ds.map_batches(select, batch_format="pandas")


def winnowing_pairs(docs_ds, k: int = 3, w: int = 4,
                    min_shared: int = 2, max_df: int = 32,
                    text_col="text", id_col="doc_id"):
    """Near-dup CANDIDATE PAIRS from shared winnowing fingerprints —
    the MOSS match step over `winnowing_fingerprints`' selections: doc
    pairs sharing at least ``min_shared`` distinct selected
    fingerprints. Winnowing's density guarantee makes the overlap
    count a passage-level similarity signal (contiguous shared text of
    t tokens shares ~t/w selections) where MinHash only sees whole-doc
    Jaccard.

    Shape: selection is per-doc (no exchange), then `wedge_pairs` on
    block = the fingerprint, item = the doc — ONE fp-hash exchange
    where fingerprints wider than ``max_df`` docs are DROPPED
    (boilerplate shingles; the same df cap `ngram_pairs` applies) and
    ONE pair-hash threshold sum. Returns (d1, d2, n_shared), d1 < d2."""
    from .graph import wedge_pairs

    fps = winnowing_fingerprints(docs_ds, k=k, w=w, text_col=text_col,
                                 id_col=id_col)
    flat = fps.map_batches(
        lambda t: pa.table({"d": t[id_col], "fp": t["fp"]}),
        batch_format="pyarrow")
    return wedge_pairs(flat, block_cols=["fp"], item_col="d",
                       min_count=min_shared, max_df=max_df,
                       out_cols=("d1", "d2", "n_shared"))


def winnowing_clusters(docs_ds, k: int = 3, w: int = 4,
                       min_shared: int = 2, max_df: int = 32,
                       max_driver_pairs: int = 500_000,
                       text_col="text", id_col="doc_id"):
    """MOSS end-to-end: winnowing selection → shared-fingerprint pairs
    → connected components with the min-ID representative — the same
    pair-to-clusters contract as `minhash_clusters`, INCLUDING the
    automatic routing (driver union-find below ``max_driver_pairs``
    candidate pairs, the Dataset min-label fixpoint above — no caller
    can accidentally ``take_all()`` a huge pair list). Returns a
    (doc_id, cluster_id) DataFrame, cluster_id = min member id."""
    raw = winnowing_pairs(docs_ds, k=k, w=w, min_shared=min_shared,
                          max_df=max_df, text_col=text_col,
                          id_col=id_col)
    pairs = raw.map_batches(
        lambda t: pa.table({
            "doc_a": t["d1"], "doc_b": t["d2"],
            "est_jaccard": pa.array(
                np.ones(t.num_rows, np.float64))}),
        batch_format="pyarrow").materialize()
    return _pairs_to_clusters(pairs, 0.5, max_driver_pairs)
