"""Checkpoint manifests + lineage records + resume.

The reference has NO checkpointing (a crash loses the run — SURVEY.md
§3.1 state-placement note); the north rule adds it. Design:

- A checkpoint is a directory ``<root>/stage=<name>[/group=<k>]`` written
  atomically (``commit_checkpoint``): data, then ``_LINEAGE.parquet``,
  then ``_MANIFEST.json`` land in a ``.tmp`` sibling that is
  ``os.replace``d into place — manifest-commit-last, so a half-written
  checkpoint is never observable (SURVEY.md §7.4 resume-atomicity).
- Lineage rows (LINEAGE_SCHEMA: stage, input_shard, row range, triple
  count, error count, wall-ms) are data: each write task of a
  ``WaveCheckpointSink`` returns one row per block it wrote, and the
  driver commits them with the group's data (the W3 progress/error
  accounting analog, Extract.java:224-235 — a final tiny sum replaces
  ``summingInt``). ``merge_lineage`` unions the committed groups' rows.
- Resume = set-difference of input shard groups vs committed manifests
  (anti-join on the completed set); ``run_kg_resumable`` processes shard
  groups as independent streaming waves, each committing its own
  checkpoint — the unit of resume is the wave.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pyarrow as pa
import ray
from ray.data.datasource import Datasink

from ..schema import LINEAGE_SCHEMA


def _lineage_row(stage: str, shard: str, row_start: int, row_end: int,
                 triple_count: int, error_count: int, t0: float) -> dict:
    return dict(stage=stage, input_shard=shard, row_start=row_start,
                row_end=row_end, triple_count=triple_count,
                error_count=error_count,
                wall_ms=(time.perf_counter() - t0) * 1000)


# ---------------------------------------------------------------------------
# Atomic checkpoint dirs

def _ckpt_dir(root: str, stage: str, group: str | None = None) -> str:
    p = os.path.join(root, f"stage={stage}")
    if group is not None:
        p = os.path.join(p, f"group={group}")
    return p


def _data_files(d: str) -> list[str]:
    """A checkpoint dir's data shards (``_``-prefixed files are not)."""
    return sorted(f for f in os.listdir(d)
                  if f.endswith(".parquet") and not f.startswith("_"))


def checkpoint_exists(root: str, stage: str, group: str | None = None) -> bool:
    return os.path.exists(os.path.join(_ckpt_dir(root, stage, group),
                                       "_MANIFEST.json"))


def commit_checkpoint(tmp: str, final: str, manifest: dict,
                      lineage: pa.Table | None = None) -> str:
    """Commit a filled ``.tmp`` checkpoint dir: write ``lineage`` as
    ``_LINEAGE.parquet``, then ``_MANIFEST.json`` (``manifest`` plus the
    data shards and their total ``rows``), then rename the dir to
    ``final`` — so data and lineage commit together or not at all."""
    import pyarrow.parquet as pq

    if lineage is not None:
        pq.write_table(lineage, os.path.join(tmp, "_LINEAGE.parquet"))
    shards = [{"file": f,
               "rows": pq.ParquetFile(os.path.join(tmp, f)).metadata.num_rows}
              for f in _data_files(tmp)]
    manifest = dict(manifest, rows=sum(s["rows"] for s in shards),
                    shards=shards)
    with open(os.path.join(tmp, "_MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    shutil.rmtree(final, ignore_errors=True)
    os.makedirs(os.path.dirname(final), exist_ok=True)
    os.replace(tmp, final)
    return final


def checkpoint_quads(ds, root: str, stage: str, group: str | None = None,
                     extra_manifest: dict | None = None,
                     collector=None) -> str:
    """Write a Dataset to an atomic checkpoint. Skips (resume) if already
    committed. Returns the checkpoint path. ``collector`` is for the
    benchmark twin only (see the block at the end of this module)."""
    final = _ckpt_dir(root, stage, group)
    if checkpoint_exists(root, stage, group):
        return final
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    ds.write_parquet(tmp)
    manifest = {"stage": stage, "group": group,
                "wall_ms": (time.perf_counter() - t0) * 1000}
    lineage = None if collector is None else _drain(collector)
    return commit_checkpoint(tmp, final,
                             dict(manifest, **(extra_manifest or {})), lineage)


class WaveCheckpointSink(Datasink):
    """Maps a Dataset through ``fn`` straight into one atomic group
    checkpoint ``<root>/stage=<stage>/group=<group>``, lineage included.

    ``fn(table) -> (table, error_count)`` runs once per input block (Ray's
    read bounds a block's bytes). Each write task writes every output as
    ``<group>_<task idx>_<block idx>.parquet`` into the ``.tmp`` dir — the
    indices are fixed by the task's input, so a retried task overwrites
    its own files — and returns one lineage row per block. The driver
    gets those rows in ``on_write_complete`` and commits them with the
    data (``commit_checkpoint``)."""

    def __init__(self, root: str, stage: str, group: str, fn,
                 extra_manifest: dict | None = None):
        self.final = _ckpt_dir(root, stage, group)
        self.tmp = self.final + ".tmp"
        self.stage, self.group, self.fn = stage, group, fn
        self.extra_manifest = extra_manifest or {}

    def on_write_start(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(self.tmp)
        self.t0 = time.perf_counter()

    def write(self, blocks, ctx) -> list[dict]:
        import pyarrow.parquet as pq
        from ray.data.block import BlockAccessor

        rows: list[dict] = []
        start = 0
        for i, block in enumerate(blocks):
            t0 = time.perf_counter()
            pages = BlockAccessor.for_block(block).to_arrow()
            out, errors = self.fn(pages)
            pq.write_table(out, os.path.join(
                self.tmp, f"{self.group}_{ctx.task_idx:06d}_{i:06d}.parquet"))
            rows.append(_lineage_row(self.stage, self.group, start,
                                     start + pages.num_rows, out.num_rows,
                                     errors, t0))
            start += pages.num_rows
        return rows

    def on_write_complete(self, write_result) -> None:
        rows = [r for task_rows in write_result.write_returns
                for r in task_rows]
        manifest = {"stage": self.stage, "group": self.group,
                    "wall_ms": (time.perf_counter() - self.t0) * 1000}
        commit_checkpoint(self.tmp, self.final,
                          dict(manifest, **self.extra_manifest),
                          pa.Table.from_pylist(rows, schema=LINEAGE_SCHEMA))


def read_checkpoint(root: str, stage: str, group: str | None = None):
    import ray.data as rd

    d = _ckpt_dir(root, stage, group)
    return rd.read_parquet([os.path.join(d, f) for f in _data_files(d)])


def committed_groups(root: str, stage: str) -> list[tuple[str, dict]]:
    """(group_id, manifest) for every committed group of a stage."""
    base = _ckpt_dir(root, stage)
    out = []
    if not os.path.isdir(base):
        return out
    for g in sorted(os.listdir(base)):
        mp = os.path.join(base, g, "_MANIFEST.json")
        if g.startswith("group=") and os.path.exists(mp):
            with open(mp) as f:
                out.append((g[len("group="):], json.load(f)))
    return out


def read_all_groups(root: str, stage: str):
    """Read every committed group checkpoint of a stage as one Dataset."""
    import ray.data as rd

    dirs = [_ckpt_dir(root, stage, g)
            for g, _ in committed_groups(root, stage)]
    return rd.read_parquet([os.path.join(d, f) for d in dirs
                            for f in _data_files(d)])


def merge_lineage(root: str, stage: str) -> int:
    """Merge the per-group ``_LINEAGE.parquet`` files of every committed
    checkpoint into ``<root>/_lineage/<stage>.parquet``. Because each
    wave's lineage commits atomically with its data (commit_checkpoint),
    this reconstructs the FULL lineage even after crash+resume across
    multiple invocations — the final merged file is derived state, safe
    to rebuild at any time. Returns the merged row count."""
    import pyarrow.parquet as pq

    files = [os.path.join(_ckpt_dir(root, stage, g), "_LINEAGE.parquet")
             for g, _ in committed_groups(root, stage)]
    tables = [pq.read_table(f) for f in files if os.path.exists(f)]
    merged = (pa.concat_tables(tables) if tables
              else LINEAGE_SCHEMA.empty_table())
    os.makedirs(os.path.join(root, "_lineage"), exist_ok=True)
    pq.write_table(merged, os.path.join(root, "_lineage", f"{stage}.parquet"))
    return merged.num_rows


# ---------------------------------------------------------------------------
# Benchmark twin only — delete at the next benchmark change.
# kgbench/jobs.py:_extract_waves still extracts waves with the old actor
# route: an ExtractQuadsStage pool reporting to a LineageCollector actor,
# drained by checkpoint_quads(collector=). The engine uses none of this.

@ray.remote(num_cpus=0)
class LineageCollector:
    """Driver-owned actor accumulating per-batch lineage rows."""

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, row: dict):
        self.rows.append(row)

    def drain(self) -> list[dict]:
        rows, self.rows = self.rows, []
        return rows


def new_collector():
    """Create a driver-owned lineage collector; pass the handle to stages."""
    return LineageCollector.remote()  # type: ignore[attr-defined]


def report_batch(collector, shard_label: str, n_in: int, n_out: int,
                 errors: int, t0: float) -> None:
    """One synchronous lineage row per ``ExtractQuadsStage`` batch."""
    ray.get(collector.add.remote(_lineage_row(
        "extract", shard_label, 0, n_in, n_out, errors, t0)))


def _drain(collector) -> pa.Table:
    return pa.Table.from_pylist(ray.get(collector.drain.remote()),
                                schema=LINEAGE_SCHEMA)
