"""Temperature resampling and interval-union coverage — oracle tests
plus hand-computed edge cases (nested / adjacent / disjoint intervals,
sqrt-law keep rates) the sf tables can't pin down precisely."""

import numpy as np
import pandas as pd
import pyarrow as pa

from conftest import assert_frames_equivalent, to_pandas


def test_ta_resample_oracle(sf_dir, duck):
    import __ray_entry__ as em

    got = em.queries()["ta_resample"](sf_dir)
    expected = duck.execute(em.oracle_sql()["ta_resample"]).df()
    assert len(expected) > 0
    assert_frames_equivalent(got, expected)


def test_ta_resample_flattens_mix(sf_dir):
    """The dominant language must be down-sampled at ≈ sqrt(n_min/n)
    while the smallest language keeps every document (rate 1)."""
    from fcrepo3_rdf_extractor_ray.pipelines.relational import (
        temperature_resample)

    before = pd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["lang"])["lang"].value_counts()
    after = to_pandas(temperature_resample(sf_dir))["lang"].value_counts()
    n_min = before.min()
    assert after[before.idxmin()] == n_min  # rate-1 stratum untouched
    big = before.idxmax()
    expect = np.sqrt(n_min / before[big])
    # md5 is uniform; 4 sigma of a binomial around the target rate
    sd = np.sqrt(expect * (1 - expect) / before[big])
    assert abs(after[big] / before[big] - expect) < 4 * sd + 1e-9


def test_rel_intervals_oracle(sf_dir, duck):
    import __ray_entry__ as em

    got = em.queries()["rel_intervals"](sf_dir)
    expected = duck.execute(em.oracle_sql()["rel_intervals"]).df()
    assert len(expected) > 0
    assert_frames_equivalent(got, expected)


def test_interval_coverage_merge_semantics(ray_session, tmp_path):
    """Hand-built stream: overlapping, nested, exactly-adjacent and
    disjoint 5-minute spans; union lengths computed by hand."""
    base = pd.Timestamp("2024-01-01 00:00:00")
    m = pd.Timedelta(minutes=1)
    rows = [
        # user 1: [0,5) ∪ [3,8) ∪ [5,10) → [0,10) = 10 min
        (1, base), (1, base + 3 * m), (1, base + 5 * m),
        # user 2: [0,5) with [1,6)?? no — nested [0,5) ∪ [2,7) ∪ [2,7)
        # (duplicate event) → [0,7) = 7 min
        (2, base), (2, base + 2 * m), (2, base + 2 * m),
        # user 3: disjoint [0,5) and [20,25) → 10 min
        (3, base), (3, base + 20 * m),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    path = tmp_path / "events.parquet"
    df.to_parquet(path)

    import pyarrow.parquet  # noqa: F401  (parquet written above)
    from fcrepo3_rdf_extractor_ray.pipelines.relational import (
        interval_coverage)

    out = to_pandas(interval_coverage(str(tmp_path))).set_index("user_id")[
        "covered_us"]
    MIN_US = 60_000_000
    assert out[1] == 10 * MIN_US
    assert out[2] == 7 * MIN_US
    assert out[3] == 10 * MIN_US


def test_dedup_spans_oracle(sf_dir, duck):
    import __ray_entry__ as em

    got = em.queries()["dedup_spans"](sf_dir)
    expected = duck.execute(em.oracle_sql()["dedup_spans"]).df()
    assert len(expected) > 0
    assert_frames_equivalent(got, expected)


def test_dedup_spans_planted_passage(ray_session):
    """Three docs share one exact 6-token passage (= three 4-token
    shingles); a fourth is disjoint. Per-doc counts are exact and the
    clean doc emits nothing — internal repeats count once (DISTINCT)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.dedup import duplicated_spans

    passage = "alpha beta gamma delta epsilon zeta"
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            f"one two {passage} three",
            f"{passage} unrelated tail here",
            # doc 3 contains the passage TWICE — still 3 distinct shingles
            f"{passage} mid {passage}",
            "totally different words with no overlap at all",
        ],
    })
    out = to_pandas(duplicated_spans(rd.from_pandas(docs).repartition(3))
                    ).set_index("doc_id")["n_dup"]
    assert out[1] == 3 and out[2] == 3 and out[3] == 3
    assert 4 not in out.index


def test_ml_kmeans_oracle(sf_dir, duck):
    import __ray_entry__ as em

    got = em.queries()["ml_kmeans"](sf_dir)
    expected = duck.execute(em.oracle_sql()["ml_kmeans"]).df()
    assert len(expected) > 0
    assert_frames_equivalent(got, expected)


def test_ml_kmeans_partition_invariant_and_separates(ray_session):
    """Three tight, well-separated blobs: the assignment must recover
    the blobs exactly (k=3) and be identical across block layouts
    (1 block vs 7 blocks) — partial-sum merging must not change the
    result beyond ulps."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.similarity import kmeans_lloyd

    rng = np.random.RandomState(3)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    X = np.concatenate([c + 0.1 * rng.randn(40, 2) for c in centers])
    # interleave the blobs so the deterministic id-order init (3
    # smallest vec_ids) seeds one centroid per blob; blob of row i is
    # then i % 3
    X = X.reshape(3, 40, 2).transpose(1, 0, 2).reshape(120, 2)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(120, dtype=np.int64)),
        "embedding": pa.array([r.astype(np.float32).tolist() for r in X],
                              pa.list_(pa.float32())),
    })

    outs = []
    for parts in (1, 7):
        ds = rd.from_arrow(tbl).repartition(parts)
        out = to_pandas(kmeans_lloyd(ds, k=3, iters=3)).sort_values(
            "vec_id").reset_index(drop=True)
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    lab = outs[0]["cluster"].to_numpy()
    # each blob is one pure cluster, and the three are distinct
    for b in range(3):
        assert len(np.unique(lab[b::3])) == 1
    assert len(np.unique(lab[:3])) == 3


def test_kg_reach_oracle(sf_dir, duck):
    import __ray_entry__ as em

    got = em.queries()["kg_reach"](sf_dir)
    expected = duck.execute(em.oracle_sql()["kg_reach"]).df()
    assert len(expected) > 0
    assert_frames_equivalent(got, expected)


def test_bfs_reach_hop_bound_and_min_distance(ray_session):
    """Chain a→b→c→d→e plus a shortcut a→c: with max_hops=3 node d is
    reached (hop 3 via the shortcut would be hop 2+1... the MIN distance
    must win: c is 1 via the shortcut, d is 2, e is 3), and nothing
    beyond the bound appears."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import bfs_reachability

    rows = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "c"),
            ("e", "zz")]  # zz is 4 hops from a -> must NOT appear
    facts = pa.table({
        "subj": pa.array([r[0] for r in rows]),
        "obj": pa.array([r[1] for r in rows]),
        "pred": pa.array(["kg:acquired"] + ["kg:worksWith"] * 5),
    })
    out = to_pandas(bfs_reachability(rd.from_arrow(facts).repartition(3),
                                     max_hops=3)).set_index("node")["hops"]
    assert out.to_dict() == {"a": 0, "b": 1, "c": 1, "d": 2, "e": 3}


def test_ta_bm25_oracle(sf_dir, duck):
    import __ray_entry__ as em

    got = em.queries()["ta_bm25"](sf_dir)
    expected = duck.execute(em.oracle_sql()["ta_bm25"]).df()
    assert len(expected) > 0
    assert_frames_equivalent(got, expected)


def test_bm25_ranking_semantics(ray_session):
    """Hand-built corpus: a doc stuffed with the query term outranks a
    doc with one mention; longer documents are length-penalized; docs
    without any query term emit nothing; rarer terms score higher."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import bm25_scores

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "hash hash hash hash",                     # dense, short
            "hash " + "filler " * 40 + "end",          # one hit, long
            "no relevant words here",                  # no hit
            "vector vector",                           # rarer term
        ],
    })
    out = to_pandas(bm25_scores(rd.from_pandas(docs).repartition(2),
                                query_terms=("hash", "vector"))
                    ).set_index("doc_id")["score_micro"]
    assert 3 not in out.index
    assert out[1] > out[2] > 0
    # 'vector' has df=1 of N=4 vs 'hash' df=2 -> higher idf for doc 4
    assert out[4] > out[2]


def test_kg_components_oracle(sf_dir, duck):
    import __ray_entry__ as em

    got = em.queries()["kg_components"](sf_dir)
    expected = duck.execute(em.oracle_sql()["kg_components"]).df()
    assert len(expected) > 0
    assert_frames_equivalent(got, expected)


def test_connected_components_long_chain(ray_session, monkeypatch):
    """A 30-node path graph (diameter 29 — far past the old 16-round
    default) plus a disjoint triangle: min-label flooding must fully
    propagate, the two components must not merge, and node ids sharing
    prefixes must not collide (regression: NUL-joined edge ids were
    truncation-merged by the pandas hashtable, scattering a single
    edge's rows across partitions)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages import graph
    from fcrepo3_rdf_extractor_ray.stages.graph import connected_components

    monkeypatch.setattr(graph, "SMALL_GRAPH_EDGES", 0)
    chain = [(f"v{i:02d}", f"v{i+1:02d}") for i in range(29)]
    tri = [("z1", "z2"), ("z2", "z3"), ("z1", "z3")]
    edges = pa.table({
        "norm_a": pa.array([a for a, _ in chain + tri]),
        "norm_b": pa.array([b for _, b in chain + tri]),
    })
    out = to_pandas(connected_components(rd.from_arrow(edges)
                                         .repartition(4)))
    comp = out.set_index("node")["component"]
    assert (comp[[f"v{i:02d}" for i in range(30)]] == "v00").all()
    assert (comp[["z1", "z2", "z3"]] == "z1").all()
