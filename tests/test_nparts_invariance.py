"""Partition-count invariance for the hot exchanges (the round-4
cluster-size-aware partitioning contract): deriving ``n_parts`` from the
cluster MUST NOT change any result, so every hot exchange with an
``n_parts`` knob is asserted oracle-identical at n_parts ∈ {8, 64, 256}
— below, at, and far above the sandbox CPU count — and ``dedup_quads``,
whose range count is set by the cluster and the input bytes, at input
block counts {2, 8, 64, 256} and at a byte size that forces more ranges;
plus unit properties of ``default_parts``."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from fcrepo3_rdf_extractor_ray import runtime
from fcrepo3_rdf_extractor_ray.schema import quads_table
from fcrepo3_rdf_extractor_ray.stages.dedup import dedup_quads
from fcrepo3_rdf_extractor_ray.stages.ner import mention_cooccurrence

PARTS = [8, 64, 256]


def test_default_parts_properties():
    # power of two (several exchanges route with hash & (n_parts-1))
    for mult in (0.25, 0.5, 1.0, 2.0, 7.3):
        p = runtime.default_parts(mult)
        assert p & (p - 1) == 0 and p >= 8
    # monotone in mult and clamped
    assert runtime.default_parts(0.5) <= runtime.default_parts(2.0)
    assert runtime.default_parts(10_000.0) <= 4096
    # input-bytes floor: 10 GiB at 256 MiB/part needs >= 40 parts
    assert runtime.default_parts(0.1, input_bytes=10 << 30) >= 40
    # on this 4-cpu test session the old fixed defaults are superseded
    # by the lo clamp — just assert the mapping shape at a known size
    import unittest.mock as mock

    with mock.patch.object(runtime, "cluster_cpus", return_value=32):
        assert runtime.default_parts(0.5) == 16
        assert runtime.default_parts(1.0) == 32
        assert runtime.default_parts(2.0) == 64
    with mock.patch.object(runtime, "cluster_cpus", return_value=2048):
        assert runtime.default_parts(0.5) == 1024
        assert runtime.default_parts(2.0) == 4096


def _random_quads(seed: int, n: int) -> pa.Table:
    rng = np.random.RandomState(seed)
    return quads_table(
        ["g"] * n,
        [f"s{rng.randint(40)}" for _ in range(n)],
        [f"p{rng.randint(5)}" for _ in range(n)],
        [f"o{rng.randint(30)}" for _ in range(n)],
        [bool(rng.randint(2)) for _ in range(n)],
        ["" if rng.randint(2) else "xsd:string" for _ in range(n)],
        [f"u{rng.randint(9)}" for _ in range(n)],
    )


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return (df[cols].astype(str).sort_values(cols)
            .reset_index(drop=True))


def _dedup_ranges(input_bytes=None) -> int:
    from fcrepo3_rdf_extractor_ray.stages.dedup import DEDUP_RANGE_BYTES

    return runtime.default_parts(1.0, input_bytes=input_bytes,
                                 per_part_bytes=DEDUP_RANGE_BYTES, lo=1)


def test_dedup_quads_nparts_invariant(ray_session):
    """dedup_quads has no partition knob, so the input block count is the
    axis. Ray's sort makes one range per input block; dedup_quads
    coalesces first, so every layout, 2 blocks to 256, comes out in the
    same number of sorted blocks (the shard count of materialize_sorted):
    one per CPU while the input stays under cpus × DEDUP_RANGE_BYTES."""
    import ray.data as rd

    t = _random_quads(5, 400)
    outs = []
    for k in [2] + PARTS:
        out = dedup_quads(rd.from_arrow(t).repartition(k),
                          input_bytes=t.nbytes).materialize()
        assert out.num_blocks() == _dedup_ranges(), k
        outs.append(_norm(out.to_pandas()))
    assert all(o.equals(outs[0]) for o in outs[1:])
    assert len(outs[0]) > 0


def test_dedup_quads_ranges_grow_with_input_bytes(ray_session):
    """Past cpus × DEDUP_RANGE_BYTES the range count follows the input
    bytes the caller passes (ten ranges' worth → the next power of two),
    and the rows stay the same."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.dedup import DEDUP_RANGE_BYTES

    t = _random_quads(5, 400)
    big = 10 * DEDUP_RANGE_BYTES
    assert _dedup_ranges(big) == 16 > _dedup_ranges()
    want = _norm(dedup_quads(rd.from_arrow(t).repartition(8)).to_pandas())
    out = dedup_quads(rd.from_arrow(t).repartition(8),
                      input_bytes=big).materialize()
    assert out.num_blocks() == 16
    assert _norm(out.to_pandas()).equals(want)


def test_cooccurrence_nparts_invariant(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(3)
    urls = [f"u{rng.randint(25)}" for _ in range(300)]
    norms = [f"e{rng.randint(15)}" for _ in range(300)]
    ds_t = pa.table({
        "src_url": pa.array(urls),
        "surface": pa.array([n.upper() for n in norms]),
        "norm": pa.array(norms),
    })
    outs = [_norm(mention_cooccurrence(
                rd.from_arrow(ds_t).repartition(4), n_parts=p).to_pandas())
            for p in PARTS]
    assert outs[0].equals(outs[1]) and outs[0].equals(outs[2])
    assert len(outs[0]) > 0


def test_global_rank_nbuckets_invariant(ray_session, sf_dir):
    from fcrepo3_rdf_extractor_ray.pipelines.relational import (
        global_rank_orders)

    outs = [_norm(global_rank_orders(sf_dir, n_buckets=p).to_pandas())
            for p in PARTS]
    assert outs[0].equals(outs[1]) and outs[0].equals(outs[2])
    assert len(outs[0]) > 0


@pytest.mark.parametrize("fn_name", ["kg_quads_all", "kg_mentions"])
def test_derived_defaults_flagship_unchanged(fn_name, sf_dir, ray_session):
    """The flagship surfaces still run green with the DERIVED defaults
    (no explicit n_parts anywhere) — guards the rewrite itself."""
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as em

    res = em.queries()[fn_name](sf_dir)
    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    assert len(df) > 0


def test_round4f_ops_nparts_invariant(ray_session):
    """The round-4f exchanges are partition-count independent: link
    reciprocity, pred stats, modularity, the five neighbour-pair
    algorithms and the weighted / seeded rankers return identical rows
    at n_parts ∈ {3, 16, 64} on a random graph / fact stream."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import pred_stats
    from fcrepo3_rdf_extractor_ray.stages.graph import (
        clustering_coefficients, modularity_profile, neighborhood_jaccard,
        pagerank_weighted, resource_alloc_scores, triangle_count,
        trust_rank, two_hop_scores)
    from fcrepo3_rdf_extractor_ray.stages.web import link_reciprocity

    rng = np.random.RandomState(7)
    nodes = [f"n{i:02d}" for i in range(30)]
    pairs = sorted({tuple(sorted(rng.choice(nodes, 2, replace=False)))
                    for _ in range(120)})
    edges_t = pa.table({"norm_a": [p[0] for p in pairs],
                        "norm_b": [p[1] for p in pairs]})
    host_t = pa.table({
        "src_host": [p[rng.randint(2)] for p in pairs],
        "dst_host": [p[1 - rng.randint(2)] for p in pairs],
        "n_links": [int(rng.randint(1, 9)) for _ in pairs]})
    facts_t = pa.table({
        "subj": [f"e{rng.randint(12)}" for _ in range(400)],
        "pred": [f"p{rng.randint(4)}" for _ in range(400)],
        "obj": [f"e{rng.randint(15)}" for _ in range(400)]})
    weighted_t = edges_t.append_column(
        "n_pages", pa.array([int(rng.randint(1, 5)) for _ in pairs]))
    directed_t = edges_t.rename_columns(["subj", "obj"])
    labels_t = pa.table({"node": nodes,
                         "community": [f"c{i % 4}" for i in
                                       range(len(nodes))]})

    def frame(res):
        df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
        return (df[sorted(df.columns)]
                .sort_values(sorted(df.columns)).reset_index(drop=True))

    for build in (
        lambda np_: link_reciprocity(
            rd.from_arrow(host_t).repartition(5), n_parts=np_),
        lambda np_: pred_stats(
            rd.from_arrow(facts_t).repartition(5), n_parts=np_),
        lambda np_: modularity_profile(
            rd.from_arrow(edges_t).repartition(5),
            rd.from_arrow(labels_t), n_parts=np_),
        lambda np_: clustering_coefficients(
            rd.from_arrow(edges_t).repartition(5), n_parts=np_),
        lambda np_: triangle_count(
            rd.from_arrow(edges_t).repartition(5), n_parts=np_),
        lambda np_: neighborhood_jaccard(
            rd.from_arrow(edges_t).repartition(5), n_parts=np_),
        lambda np_: two_hop_scores(
            rd.from_arrow(edges_t).repartition(5), n_parts=np_),
        lambda np_: resource_alloc_scores(
            rd.from_arrow(edges_t).repartition(5), n_parts=np_),
        lambda np_: pagerank_weighted(
            rd.from_arrow(weighted_t).repartition(5), n_parts=np_),
        lambda np_: trust_rank(
            rd.from_arrow(directed_t).repartition(5), seeds=nodes[:3],
            n_parts=np_),
    ):
        ref = frame(build(3))
        assert len(ref) > 0
        for np_ in (16, 64):
            got = frame(build(np_))
            pd.testing.assert_frame_equal(got, ref)
