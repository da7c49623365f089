"""One benchmark job, and its traced twin.

A job is what ``cli.py`` does for one corpus: pages → ``run_kg`` (or a
crashed then resumed ``run_kg_resumable``) → ``materialize_sorted``,
which writes sorted Parquet plus N-Quads shards.

The twin does the same work by calling each layer's public function
itself, one layer at a time, each inside a span. Ray Data is lazy, so
every layer's output is materialized before the next span opens; the
job itself streams, and the difference between the two is reported as
``trace.gap_s`` rather than hidden.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import os
import time

import pyarrow.parquet as pq

from fcrepo3_rdf_extractor_ray.pipelines.kg import (
    PAGE_COLUMNS, extract_raw_quads, materialize_sorted, run_kg,
    run_kg_resumable)
from fcrepo3_rdf_extractor_ray.sources.pages import (build_alias_table,
                                                     read_pages)

# run_kg_resumable's own defaults: the crashed first invocation commits
# one wave of WAVE_SIZE page shards before it stops.
WAVE_SIZE = 4
N_SALTS = 1


@dataclasses.dataclass
class JobResult:
    job_s: float
    resume_s: float   # from the final invocation to the sorted output
    out_dir: str
    ck_dir: str | None = None


def run_job(corpus, out_dir: str, ck_dir: str | None) -> JobResult:
    """The untraced job. ``ck_dir`` set → the crash_resume form."""
    t0 = time.perf_counter()
    if ck_dir is None:
        quads = run_kg(corpus.sf_dir, n_salts=N_SALTS,
                       pages_ds=read_pages(corpus.pages_dir,
                                           columns=PAGE_COLUMNS))
        t_resume = t0
    else:
        if run_kg_resumable(corpus.sf_dir, ck_dir, max_waves=1) is not None:
            raise RuntimeError("max_waves=1 run did not stop after one wave")
        t_resume = time.perf_counter()
        quads = run_kg_resumable(corpus.sf_dir, ck_dir)
        if quads is None:
            raise RuntimeError("resumed run did not complete")
    materialize_sorted(quads, out_dir)
    t1 = time.perf_counter()
    return JobResult(job_s=t1 - t0, resume_s=t1 - t_resume, out_dir=out_dir,
                     ck_dir=ck_dir)


def warm_job(corpus, out_dir: str) -> None:
    """The set-up's warm job: run_kg over the corpus's first page shard,
    which starts the worker processes and their imports."""
    import ray.data as rd

    first = sorted(glob.glob(os.path.join(corpus.pages_dir, "*.parquet")))[0]
    pages = rd.read_parquet([first], columns=PAGE_COLUMNS)
    materialize_sorted(run_kg(corpus.sf_dir, n_salts=N_SALTS,
                              pages_ds=pages), out_dir)


# ---------------------------------------------------------------------------
# Spans

@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory spans with parent ids, plus counts taken at the same
    layer boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self._open[-1] if self._open else None,
                 name, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children
        cover (children never overlap: the twin runs one layer at a time)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.end - s.start - child[s.id]
        return out


def _mb(pattern: str) -> float:
    """Total size in MB of the files matching a recursive glob."""
    return sum(os.path.getsize(f) for f in glob.glob(pattern, recursive=True)
               if os.path.isfile(f)) / 1e6


def _canonicalize(tr: Tracer, raw, resumable: bool, ck_dir: str | None):
    """Entity map + resolve, on the route the job itself takes."""
    from fcrepo3_rdf_extractor_ray.stages import canonicalize as cz

    alias = build_alias_table()
    with tr.span("canonicalize"):
        if resumable:
            from fcrepo3_rdf_extractor_ray.state.lineage import (
                checkpoint_quads, read_checkpoint)

            with tr.span("canonicalize.entity_map"):
                mapping = cz.build_entity_map_ds(
                    raw, alias, n_salts=N_SALTS).materialize()
            with tr.span("lineage.checkpoint"):
                checkpoint_quads(mapping, ck_dir, stage="entitymap")
                mapping = read_checkpoint(ck_dir, "entitymap").materialize()
            tr.count("canonicalize.norms", mapping.count())
            tr.count("canonicalize.driver_rows", 0)
            with tr.span("canonicalize.resolve"):
                resolved = cz.resolve_quads_join_ds(raw, mapping).materialize()
        else:
            with tr.span("canonicalize.entity_map"):
                mapping = cz.build_entity_map_auto(raw, alias,
                                                   n_salts=N_SALTS)
                if not isinstance(mapping, dict):
                    mapping = mapping.materialize()
            if isinstance(mapping, dict):
                # the norms came to the driver as rows, one per entry
                tr.count("canonicalize.norms", len(mapping))
                tr.count("canonicalize.driver_rows", len(mapping))
            else:
                tr.count("canonicalize.norms", mapping.count())
                tr.count("canonicalize.driver_rows", 0)
            with tr.span("canonicalize.resolve"):
                resolved = cz.resolve_quads_auto(raw, mapping).materialize()
    return resolved


def _extract_waves(tr: Tracer, ck_dir: str, waves: list[list[str]],
                   first_group: int) -> None:
    """Extract and checkpoint waves the way run_kg_resumable does."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.runtime import pool
    from fcrepo3_rdf_extractor_ray.stages.extract import ExtractQuadsStage
    from fcrepo3_rdf_extractor_ray.state.lineage import (checkpoint_quads,
                                                         new_collector)

    collector = new_collector()
    for k, files in enumerate(waves):
        group = f"{first_group + k:04d}"
        with tr.span("extract"):
            raw = rd.read_parquet(files, columns=PAGE_COLUMNS).map_batches(
                ExtractQuadsStage,
                fn_constructor_kwargs={"collector": collector,
                                       "shard_label": group},
                batch_format="pyarrow", batch_size=4096,
                concurrency=pool(0.75)).materialize()
        tr.count("extract.quads_out", raw.count())
        tr.count("extract.blocks_out", raw.num_blocks())
        with tr.span("lineage.checkpoint"):
            checkpoint_quads(raw, ck_dir, stage="extract", group=group,
                             extra_manifest={"input_files": files},
                             collector=collector)


def run_twin(corpus, out_dir: str, ck_dir: str | None) -> Tracer:
    """The traced twin of ``run_job``: same layers, same arguments."""
    from fcrepo3_rdf_extractor_ray.stages.dedup import dedup_quads

    tr = Tracer()
    resumable = ck_dir is not None
    with tr.span("job"):
        if resumable:
            from fcrepo3_rdf_extractor_ray.state.lineage import (
                merge_lineage, read_all_groups)

            shards = sorted(glob.glob(os.path.join(corpus.pages_dir,
                                                   "*.parquet")))
            waves = [shards[i:i + WAVE_SIZE]
                     for i in range(0, len(shards), WAVE_SIZE)]
            _extract_waves(tr, ck_dir, waves[:1], 0)   # the crashed call
            _extract_waves(tr, ck_dir, waves[1:], 1)   # the resume
            with tr.span("lineage.checkpoint"):
                merge_lineage(ck_dir, stage="extract")
                raw = read_all_groups(ck_dir, "extract").materialize()
        else:
            with tr.span("extract"):
                raw = extract_raw_quads(
                    read_pages(corpus.pages_dir, columns=PAGE_COLUMNS)
                ).materialize()
            tr.count("extract.quads_out", raw.count())
            tr.count("extract.blocks_out", raw.num_blocks())
        resolved = _canonicalize(tr, raw, resumable, ck_dir)
        tr.count("dedup.quads_in", resolved.count())
        tr.count("dedup.blocks_in", resolved.num_blocks())
        with tr.span("dedup"):
            quads = dedup_quads(resolved, n_salts=N_SALTS).materialize()
        part_rows = sorted(b.num_rows for bundle in
                           quads.iter_internal_ref_bundles()
                           for b in bundle.metadata)
        tr.count("dedup.quads_out", quads.count())
        tr.count("dedup.part_rows_max", part_rows[-1])
        tr.count("dedup.part_rows_median", part_rows[len(part_rows) // 2])
        with tr.span("sink"):
            materialize_sorted(quads, out_dir)
    nq = os.path.join(out_dir, "nquads", "*.nq")
    parquet = os.path.join(out_dir, "*.parquet")
    tr.count("sink.nq_mb", _mb(nq))
    tr.count("sink.parquet_mb", _mb(parquet))
    tr.count("sink.files", len(glob.glob(nq)) + len(glob.glob(parquet)))
    return tr


def lineage_counts(result: JobResult, n_shards: int) -> dict[str, float]:
    """What the program's own checkpoints say about a crash_resume job:
    committed groups, the share of uncommitted shards the resume
    re-extracted, contained extraction errors and checkpoint size."""
    from fcrepo3_rdf_extractor_ray.state.lineage import committed_groups

    groups = committed_groups(result.ck_dir, "extract")
    crashed = set(groups[0][1]["input_files"])
    resumed = [f for _, m in groups[1:] for f in m["input_files"]]
    lineage = pq.read_table(os.path.join(result.ck_dir, "_lineage",
                                         "extract.parquet"))
    return {
        "lineage.groups": len(groups),
        "lineage.redo_ratio": len(resumed) / (n_shards - len(crashed)),
        "lineage.error_count": sum(lineage["error_count"].to_pylist()),
        "lineage.checkpoint_mb": _mb(os.path.join(result.ck_dir, "**")),
    }
