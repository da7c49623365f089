"""The flagship sink (``pipelines/kg.materialize_sorted``): one streaming
pass over the sorted quads writes each block as a Parquet shard plus a
same-stem N-Quads shard, a retried write task overwrites its own files,
and an unsorted block raises instead of becoming an unsorted shard."""

import glob
import os
import random
from types import SimpleNamespace

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SORT_KEYS = [(c, "ascending") for c in ("subj", "pred", "obj")]


def _quads(n: int, seed: int) -> pa.Table:
    """``n`` distinct quad rows (distinct across seeds too): IRI objects,
    plain literals that need escaping and typed literals, with repeated
    subjects."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        kind = rng.randrange(3)
        rows.append({
            "graph": "kg:web",
            "subj": f"ent:e{rng.randrange(n // 3 + 1)}",
            "pred": rng.choice(["kg:title", "kg:worksWith", "kg:fetchedAt"]),
            "obj": (f"ent:o{seed}_{i}" if kind == 0
                    else f'lit {seed}_{i} "q"\nback\\slash' if kind == 1
                    else f"{1000 + i}-01-{1 + seed % 28:02d}T00:00:00Z"),
            "obj_is_literal": kind != 0,
            "obj_datatype": ("http://www.w3.org/2001/XMLSchema#dateTime"
                             if kind == 2 else ""),
            "src_url": f"http://example.org/{seed}/{i}",
        })
    return pa.Table.from_pylist(rows)


def _nq_keys(path: str) -> list[tuple[str, str, str]]:
    import pandas as pd

    from fcrepo3_rdf_extractor_ray.sources.nquads import parse_nquads_lines

    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    df = parse_nquads_lines(pd.Series(lines, dtype=object))
    return list(zip(df["subj"], df["pred"], df["obj"]))


def _rows(pattern: str) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in glob.glob(pattern, recursive=True))


def test_materialize_sorted_runs_plan_once(ray_session, tmp_path):
    """Every input batch of the plan upstream of the sink runs exactly
    once, although both Parquet and N-Quads shards are written."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import materialize_sorted
    from fcrepo3_rdf_extractor_ray.stages.dedup import dedup_quads

    calls = str(tmp_path / "calls.log")

    def count_calls(t: pa.Table) -> pa.Table:
        with open(calls, "a") as f:
            f.write("call\n")
        return t

    blocks = [_quads(300, seed) for seed in range(4)]
    ds = rd.from_arrow(blocks).map_batches(
        count_calls, batch_format="pyarrow", batch_size=None)
    out = str(tmp_path / "out")
    materialize_sorted(dedup_quads(ds), out, write_nquads=True)
    with open(calls) as f:
        assert len(f.readlines()) == len(blocks)
    assert _rows(os.path.join(out, "*.parquet")) == 1200


def test_parquet_and_nquads_shards_pair_up(ray_session, tmp_path):
    """Each Parquet shard has an N-Quads shard with the same stem, the
    same row count and the same (subj, pred, obj) sequence, sorted."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import materialize_sorted
    from fcrepo3_rdf_extractor_ray.stages.dedup import dedup_quads

    out = str(tmp_path / "out")
    materialize_sorted(
        dedup_quads(rd.from_arrow([_quads(250, s) for s in range(4)])),
        out, write_nquads=True)

    def stems(pattern: str) -> set[str]:
        return {os.path.basename(f).rsplit(".", 1)[0]
                for f in glob.glob(pattern)}

    pq_stems = stems(os.path.join(out, "*.parquet"))
    assert len(pq_stems) > 1
    assert pq_stems == stems(os.path.join(out, "nquads", "*.nq"))
    total = 0
    for stem in pq_stems:
        t = pq.read_table(os.path.join(out, stem + ".parquet"))
        keys = list(zip(*(t[c].to_pylist()
                          for c in ("subj", "pred", "obj"))))
        assert keys == sorted(keys)
        assert _nq_keys(os.path.join(out, "nquads", stem + ".nq")) == keys
        total += t.num_rows
    assert total == 1000


@pytest.mark.parametrize("hive", [False, True])
def test_retried_write_overwrites_its_own_shards(tmp_path, hive):
    """Calling the sink's ``write`` again with the same blocks and task
    index (what a Ray task retry does) leaves the same files and rows."""
    from fcrepo3_rdf_extractor_ray.pipelines.kg import SortedQuadsDatasink

    out = str(tmp_path / "out")
    sink = SortedQuadsDatasink(out, write_nquads=True,
                               partition_by_subject_hash=hive)
    sink.on_write_start()
    blocks = [_quads(120, 1).sort_by(SORT_KEYS),
              _quads(80, 2).sort_by(SORT_KEYS)]
    ctx = SimpleNamespace(task_idx=3)

    def listing() -> list[str]:
        return sorted(os.path.relpath(f, out) for f in
                      glob.glob(os.path.join(out, "**", "*"), recursive=True)
                      if os.path.isfile(f))

    sink.write(blocks, ctx)
    first = listing()
    sink.write(blocks, ctx)
    assert listing() == first
    assert _rows(os.path.join(out, "**", "*.parquet")) == 200
    nq = glob.glob(os.path.join(out, "nquads", "*.nq"))
    assert len(nq) == len(blocks)
    assert sum(len(_nq_keys(f)) for f in nq) == 200
    if hive:
        assert any(d.startswith("subj_part=") for d in os.listdir(out))


def test_nquads_bytes_independent_of_input_blocks(ray_session, tmp_path):
    """The same quads split into 2 or into 5 input blocks give the same
    N-Quads bytes once the shards are concatenated in key order: rows
    tied on (subj, pred, obj) come out in full-key order, not arrival
    order."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import materialize_sorted
    from fcrepo3_rdf_extractor_ray.stages.dedup import dedup_quads

    t = _quads(400, 7)
    # the same (subj, pred, obj) in other graphs and as a literal: ties
    # that only the last three key columns order
    t = pa.concat_tables([
        t, t.set_column(0, "graph", pa.array(["kg:aux"] * t.num_rows)),
        t.set_column(4, "obj_is_literal",
                     pa.array([True] * t.num_rows))]).take(
        random.Random(3).sample(range(3 * t.num_rows), 3 * t.num_rows))

    def nq_bytes(n_blocks: int) -> bytes:
        out = str(tmp_path / f"out{n_blocks}")
        materialize_sorted(
            dedup_quads(rd.from_arrow(t).repartition(n_blocks)), out)
        shards = []
        for f in glob.glob(os.path.join(out, "nquads", "*.nq")):
            # order shards by the first (subj, pred, obj) of their Parquet
            # twin: raw lines sort "<ent:e49>" before "<ent:e4>" ('9' < '>')
            stem = os.path.basename(f)[:-len(".nq")]
            first = pq.read_table(os.path.join(out, stem + ".parquet"),
                                  columns=["subj", "pred", "obj"]).slice(0, 1)
            with open(f, "rb") as fh:
                shards.append((tuple(first.to_pylist()[0].values()),
                               fh.read()))
        return b"".join(b for _, b in sorted(shards))

    two = nq_bytes(2)
    assert two.count(b"\n") == len(set(zip(*t.columns[:6])))
    assert two == nq_bytes(5)


def test_unsorted_block_raises(ray_session, tmp_path):
    """``materialize_sorted`` does not sort: a block out of
    (subj, pred, obj) order raises and leaves no shard behind."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import materialize_sorted

    t = _quads(50, 4).sort_by(SORT_KEYS)
    unsorted = pa.concat_tables([t.slice(25), t.slice(0, 25)])
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="not sorted"):
        materialize_sorted(rd.from_arrow(unsorted), out)
    assert not glob.glob(os.path.join(out, "nquads", "*.nq"))
