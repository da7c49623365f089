"""Property-based dedup verification: on random quad tables, the Ray
dedup operator must agree with a DuckDB GROUP BY, for any input block
layout (hypothesis drives the shapes; the Ray round-trip runs on a small
deterministic subset of examples to keep session cost sane)."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from fcrepo3_rdf_extractor_ray.schema import quads_table
from fcrepo3_rdf_extractor_ray.stages.dedup import dedup_quads


def _random_quads(seed: int, n: int) -> pa.Table:
    rng = np.random.RandomState(seed)
    subs = [f"s{rng.randint(5)}" for _ in range(n)]
    preds = [f"p{rng.randint(3)}" for _ in range(n)]
    objs = [f"o{rng.randint(4)}" for _ in range(n)]
    lits = [bool(rng.randint(2)) for _ in range(n)]
    dts = ["" if rng.randint(2) else "xsd:string" for _ in range(n)]
    srcs = [f"u{rng.randint(7)}" for _ in range(n)]
    return quads_table(["g"] * n, subs, preds, objs, lits, dts, srcs)


# n_copies: the table is fed that many times over, so every quad's
# duplicates sit in several input blocks; n_blocks is the input block
# count (more blocks than rows leaves some blocks empty)
@pytest.mark.parametrize("seed,n,n_copies,n_blocks", [
    (0, 50, 1, 4), (1, 200, 4, 8), (2, 333, 2, 16), (3, 10, 4, 64),
])
def test_dedup_matches_duckdb(seed, n, n_copies, n_blocks):
    import ray.data as rd

    t = pa.concat_tables([_random_quads(seed, n)] * n_copies)
    ds = rd.from_arrow(t).repartition(n_blocks)
    got = dedup_quads(ds).to_pandas()

    con = duckdb.connect()
    con.register("q", t)
    want = con.execute("""
        SELECT graph, subj, pred, obj, obj_is_literal, obj_datatype,
               min(src_url) AS src_url, count(*) AS n_src
        FROM q GROUP BY 1,2,3,4,5,6
    """).df()
    cols = sorted(got.columns)
    assert sorted(want.columns) == cols
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    assert g.astype(str).equals(w.astype(str)), (seed, n, n_copies, n_blocks)


def test_no_key_spans_two_sort_blocks(ray_session, monkeypatch):
    """dedup_quads finishes each sorted block on its own, which is exact
    only if all rows of a key land in one sort block. With tiny target
    blocks and a head quad in each of 16 input blocks: rows equal DuckDB's
    GROUP BY (n_src and src_url too), and no (subj, pred, obj) reaches two
    finish calls. The finish tags its rows with a per-call id: Ray splits
    the finish's OUTPUT into target-size blocks after it has run, so the
    sorted blocks it consumes, not the Dataset's output blocks, are where
    a split key would do harm."""
    import uuid

    import ray
    import ray.data as rd
    from ray.data import DataContext

    from fcrepo3_rdf_extractor_ray.stages import dedup

    finish = dedup._finish_quads

    def tagged_finish(t: pa.Table) -> pa.Table:
        out = finish(t)
        call = pa.array([uuid.uuid4().hex] * out.num_rows, pa.string())
        return out.append_column("finish_call", call)

    monkeypatch.setattr(dedup, "_finish_quads", tagged_finish)
    blocks = [pa.concat_tables([
        quads_table(["g"], ["s_head"], ["p0"], ["o0"], [False], [""],
                    [f"u{(7 * i) % 16}"]),
        _random_quads(100 + i, 40)]) for i in range(16)]
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 1024
    try:
        tagged = pa.concat_tables(ray.get(
            dedup_quads(rd.from_arrow(blocks)).to_arrow_refs()))
    finally:
        ctx.target_max_block_size = old

    con = duckdb.connect()
    con.register("q", pa.concat_tables(blocks))
    want = con.execute("""
        SELECT graph, subj, pred, obj, obj_is_literal, obj_datatype,
               min(src_url) AS src_url, count(*) AS n_src
        FROM q GROUP BY ALL ORDER BY ALL
    """).arrow()
    got = tagged.drop_columns(["finish_call"]).sort_by(
        [(c, "ascending") for c in want.column_names])
    assert got.to_pylist() == want.to_pylist()
    assert ("s_head", 16) in zip(got["subj"].to_pylist(),
                                 got["n_src"].to_pylist())
    seen: dict[tuple, str] = {}
    for k, call in zip(zip(tagged["subj"].to_pylist(),
                           tagged["pred"].to_pylist(),
                           tagged["obj"].to_pylist()),
                       tagged["finish_call"].to_pylist()):
        assert seen.setdefault(k, call) == call, k
    assert len(set(seen.values())) > 1


def test_ngram_jaccard_matches_bruteforce_reference():
    """Property: the distributed inverted-index Jaccard equals a naive
    all-pairs set computation on a random small corpus."""
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.dedup import ngram_jaccard_pairs

    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(12)]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(3, 15)))
             for _ in range(30)]
    t = pa.table({"doc_id": pa.array(range(30), pa.int64()),
                  "text": pa.array(texts)})
    thr = 0.3
    got = ngram_jaccard_pairs(rd.from_arrow(t).repartition(3),
                              threshold=thr).to_pandas()
    got_set = {(r.doc_a, r.doc_b): r.jaccard_micro
               for r in got.itertuples()}

    def grams(s):
        toks = s.split()
        return {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}

    want = {}
    for a, b in itertools.combinations(range(30), 2):
        A, B = grams(texts[a]), grams(texts[b])
        if not A or not B:
            continue
        inter = len(A & B)
        if inter == 0:
            continue
        j = 1000000.0 * inter / (len(A) + len(B) - inter)
        if j >= thr * 1000000.0:
            want[(a, b)] = int(np.floor(j))
    assert got_set == want


def test_vocab_top_terms_matches_counter():
    """Property: distributed word count equals collections.Counter."""
    from collections import Counter

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import vocab_top_terms

    rng = np.random.RandomState(11)
    vocab = [f"t{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 30)))
             for _ in range(50)]
    t = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                  "text": pa.array(texts)})
    got = vocab_top_terms(rd.from_arrow(t).repartition(4),
                          k=15).to_pandas()
    c = Counter(w for s in texts for w in s.split())
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:15]
    assert list(zip(got["token"], got["n"])) == want
