"""The one hash-exchange primitive (``stages/exchange.hash_exchange``):
key locality per finish call, tag-union co-location, empty input,
partition-count invariance of migrated queries, quiet testdata reads,
the stale pages cache, and a guard against hand-written exchanges
growing back in the modules that were migrated."""

import os
import re
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import to_pandas
from fcrepo3_rdf_extractor_ray import runtime
from fcrepo3_rdf_extractor_ray.stages.exchange import hash_exchange

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "fcrepo3_rdf_extractor_ray")


def _tag_call():
    """A finish that stamps every row of one call with that call's id
    (built in the test, so workers get it by value)."""
    def tag(batch):
        return batch.assign(call=uuid.uuid4().hex)

    return tag


def test_no_key_reaches_two_finish_calls(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(7)
    t = pa.table({"k": pa.array(rng.randint(0, 300, 2000), pa.int64()),
                  "v": pa.array(np.arange(2000), pa.int64())})
    out = to_pandas(hash_exchange(rd.from_arrow(t).repartition(9), "k",
                                  _tag_call(), batch_format="pandas"))
    assert "part" not in out.columns
    assert sorted(out["v"]) == list(range(2000))
    assert out.groupby("k")["call"].nunique().max() == 1
    assert out["call"].nunique() > 1


def test_union_puts_equal_keys_from_both_sides_in_one_call(ray_session):
    import ray.data as rd

    keys = [f"key{i}" for i in range(200)]
    left = pa.table({"k": keys, "side": ["a"] * 200})
    right = pa.table({"k": keys[::-1], "side": ["b"] * 200})
    out = to_pandas(hash_exchange(
        [rd.from_arrow(left).repartition(3),
         rd.from_arrow(right).repartition(4)],
        "k", _tag_call(), batch_format="pandas"))
    assert len(out) == 400
    per_key = out.groupby("k").agg(calls=("call", "nunique"),
                                   sides=("side", "nunique"))
    assert (per_key["calls"] == 1).all() and (per_key["sides"] == 2).all()


def test_input_with_a_part_column_passes_through(ray_session):
    """The routing column has a reserved name: an input column called
    ``part`` reaches ``finish`` as it was and stays in the output."""
    import ray.data as rd

    t = pa.table({"k": pa.array(np.arange(50) % 7, pa.int64()),
                  "part": pa.array([f"p{i}" for i in range(50)])})
    out = to_pandas(hash_exchange(rd.from_arrow(t).repartition(3), "k",
                                  _tag_call(), batch_format="pandas"))
    assert sorted(out["part"]) == sorted(f"p{i}" for i in range(50))
    assert out.groupby("k")["call"].nunique().max() == 1
    assert not [c for c in out.columns if c not in ("k", "part", "call")]


def test_empty_input_gives_no_rows(ray_session):
    import ray.data as rd

    t = pa.table({"k": pa.array([], pa.int64()),
                  "v": pa.array([], pa.string())})
    for fmt, fin in (("pyarrow", lambda b: b), ("pandas", lambda b: b)):
        out = hash_exchange(rd.from_arrow(t), "k", fin, batch_format=fmt)
        assert out.count() == 0


@pytest.mark.parametrize("cpus", [1, 64, 256])
def test_migrated_queries_invariant_to_partition_count(
        cpus, sf_dir, monkeypatch):
    """A window op, tag-union merges, merge_upsert, the KG's
    composite-key, two-exchange and three-sided sites and the graph
    kernels (SCC fixpoints, label rounds, the pair table, BGP and
    property-path merges) give the same rows whatever partition count
    the session's CPU count implies (one partition on one CPU)."""
    import __ray_entry__ as em

    names = ["rel_rolling", "rel_outer_join", "rel_merge",
             "kg_fact_current", "kg_delta", "kg_pred_stats",
             "kg_entity_cards", "kg_scc", "kg_label_prop", "kg_triangles",
             "kg_bgp", "kg_prop_path"]

    def rows(name):
        df = to_pandas(em.queries()[name](sf_dir))
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    want = {n: rows(n) for n in names}
    monkeypatch.setattr(runtime, "cluster_cpus", lambda: cpus)
    for n in names:
        got = rows(n)
        assert len(got) > 0, n
        pd.testing.assert_frame_equal(got, want[n], check_dtype=False)


def test_read_blocks_carry_no_pandas_metadata(sf_dir, ray_session):
    from fcrepo3_rdf_extractor_ray.pipelines.relational import _read

    assert b"pandas" in pq.read_schema(
        os.path.join(sf_dir, "events.parquet")).metadata
    for cols in (None, ["ts", "user_id"]):
        blocks = list(_read(sf_dir, "events", cols).iter_batches(
            batch_size=None, batch_format="pyarrow"))
        assert blocks
        for b in blocks:
            assert b"pandas" not in (b.schema.metadata or {})


def test_stale_pages_cache_is_synthesized_again(sf_dir, tmp_path,
                                                 ray_session):
    """A cached pages dir from an older writer (pandas metadata, with a
    _SUCCESS marker) is written again, so no shard keeps metadata."""
    from fcrepo3_rdf_extractor_ray.sources.pages import synthesize_pages

    d = tmp_path / "pages"
    d.mkdir()
    stale = pa.Table.from_pandas(pd.DataFrame({"doc_id": [1],
                                               "url": ["u"],
                                               "html": [b"<p>x</p>"]}))
    assert b"pandas" in stale.schema.metadata
    pq.write_table(stale, str(d / "old.parquet"))
    (d / "_SUCCESS").write_text("ok")

    out = synthesize_pages(sf_dir, out_dir=str(d))
    shards = [os.path.join(out, f) for f in os.listdir(out)
              if f.endswith(".parquet")]
    assert shards and "old.parquet" not in os.listdir(out)
    for f in shards:
        assert not pq.read_schema(f).metadata, f
    assert os.path.exists(os.path.join(out, "_SUCCESS"))


# Hand-written `groupby("part")` exchanges left on purpose, per module:
# - relational.py, 1: `late_events` routes event-id RANGE buckets into
#   "part"; the bucket boundaries depend on the count, so it is a range
#   exchange, not a hash exchange.
# - canonicalize.py, 0.
# - kg.py, 0 (term_dictionary's rank groups by "bucket", a range).
# - graph.py, 0 (its small-graph exact paths run in one task via
#   `_in_one_task`, not a one-partition exchange).
ALLOWED_PART_GROUPBYS = {"pipelines/relational.py": 1,
                         "stages/canonicalize.py": 0,
                         "pipelines/kg.py": 0,
                         "stages/graph.py": 0}


def test_no_hand_written_hash_exchange_grows_back():
    pat = re.compile(r"""groupby\(\s*\[?\s*["']part["']""")
    for rel, allowed in ALLOWED_PART_GROUPBYS.items():
        with open(os.path.join(PKG, rel)) as f:
            src = f.read()
        assert len(pat.findall(src)) == allowed, rel
