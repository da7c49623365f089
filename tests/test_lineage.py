"""Checkpoint/resume + lineage (the capability gap the north rule closes
— the reference loses the whole run on a crash, SURVEY.md §3.1)."""

import json
import os
import shutil

import pytest

from fcrepo3_rdf_extractor_ray.pipelines.kg import run_kg, run_kg_resumable


@pytest.fixture()
def ckpt_dir(tmp_path):
    d = str(tmp_path / "ckpt")
    yield d
    shutil.rmtree(d, ignore_errors=True)


def test_resume_after_simulated_crash(sf_dir, ckpt_dir):
    # first run "crashes" after 1 of the waves
    out = run_kg_resumable(sf_dir, ckpt_dir, wave_size=2, max_waves=1)
    assert out is None  # incomplete
    committed = os.listdir(os.path.join(ckpt_dir, "stage=extract"))
    committed = [d for d in committed if d.startswith("group=")]
    assert len(committed) == 1

    # resumed run completes the remaining waves only
    ds = run_kg_resumable(sf_dir, ckpt_dir, wave_size=2)
    rows = ds.take_all()

    # result equals the non-resumable pipeline (set semantics)
    want = run_kg(sf_dir).take_all()
    key = lambda r: tuple(sorted(r.items()))
    assert sorted(map(key, rows)) == sorted(map(key, want))

    # manifests committed atomically, with lineage side-output
    groups = sorted(os.listdir(os.path.join(ckpt_dir, "stage=extract")))
    groups = [g for g in groups if g.startswith("group=")]
    assert len(groups) == 4  # 8 shards / wave_size 2
    man = json.load(open(os.path.join(ckpt_dir, "stage=extract", groups[0],
                                      "_MANIFEST.json")))
    assert man["rows"] > 0 and man["shards"]
    lineage = os.path.join(ckpt_dir, "_lineage", "extract.parquet")
    assert os.path.exists(lineage)
    import pyarrow.parquet as pq

    lt = pq.read_table(lineage)
    assert lt.num_rows > 0
    assert set(lt.schema.names) >= {"stage", "input_shard", "triple_count",
                                    "error_count", "wall_ms"}
    # the synthetic corpus plants malformed pages → error_count surfaces them
    import pyarrow.compute as pc

    assert pc.sum(lt["error_count"]).as_py() > 0
    # lineage survives the crash: the wave committed by the FIRST (crashed)
    # invocation must still be present in the merged file, because each
    # wave's lineage commits atomically inside its group checkpoint
    assert set(lt["input_shard"].to_pylist()) == {"0000", "0001", "0002",
                                                  "0003"}
    for g in groups:
        assert os.path.exists(os.path.join(ckpt_dir, "stage=extract", g,
                                           "_LINEAGE.parquet"))


def test_checkpoint_skip_is_idempotent(sf_dir, ckpt_dir):
    ds1 = run_kg_resumable(sf_dir, ckpt_dir, wave_size=8)
    n1 = ds1.count()
    # second call must skip all extraction work and return the same result
    ds2 = run_kg_resumable(sf_dir, ckpt_dir, wave_size=8)
    assert ds2.count() == n1


def test_parent_entitymap_checkpoint_resumes(sf_dir, ckpt_dir):
    """A checkpoint dir from a version that also committed a
    ``stage=entitymap`` (norm, label) checkpoint after extraction: the
    extract groups are the only resume boundary now, so a resume over it
    reuses the committed waves, ignores the map and returns run_kg's
    rows."""
    import pyarrow as pa
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.state.lineage import checkpoint_quads

    assert run_kg_resumable(sf_dir, ckpt_dir, wave_size=2,
                            max_waves=1) is None
    # the older layout: a committed (norm, label) map — with a label no
    # run produces, so a resume that read it would change the rows
    norms = [f"entity{i}" for i in range(200)]
    checkpoint_quads(rd.from_arrow(pa.table({
        "norm": norms, "label": ["ent:stale"] * len(norms)})),
        ckpt_dir, stage="entitymap")
    ex_root = os.path.join(ckpt_dir, "stage=extract")
    (g0,) = [g for g in os.listdir(ex_root) if g.startswith("group=")]
    mtime = os.path.getmtime(os.path.join(ex_root, g0, "_MANIFEST.json"))

    rows = run_kg_resumable(sf_dir, ckpt_dir, wave_size=2).take_all()
    want = run_kg(sf_dir).take_all()
    key = lambda r: tuple(sorted(r.items()))
    assert sorted(map(key, rows)) == sorted(map(key, want))
    assert not any("ent:stale" in (r["subj"], r["obj"]) for r in rows)
    assert os.path.getmtime(os.path.join(ex_root, g0,
                                         "_MANIFEST.json")) == mtime


def test_resume_with_different_wave_size(sf_dir, ckpt_dir):
    """Resume must be exact even when ``wave_size`` differs between the
    crashed and the resuming invocation: group numbering is per-wave, so
    an index-aligned skip would silently drop shards the crashed run
    never extracted (caught live: 8-shard corpus, crash at wave_size=3,
    resume at the default 4 lost one shard). The fix keys resume off the
    committed manifests' input_files."""
    out = run_kg_resumable(sf_dir, ckpt_dir, wave_size=3, max_waves=1)
    assert out is None  # crashed after one wave of 3 shards
    ds = run_kg_resumable(sf_dir, ckpt_dir)  # default wave_size=4
    rows = ds.take_all()
    want = run_kg(sf_dir).take_all()
    key = lambda r: tuple(sorted(r.items()))
    assert sorted(map(key, rows)) == sorted(map(key, want))
    # every input shard is covered by exactly one committed group
    import json as _json

    ex_root = os.path.join(ckpt_dir, "stage=extract")
    covered = []
    for g in sorted(os.listdir(ex_root)):
        if g.startswith("group="):
            man = _json.load(open(os.path.join(ex_root, g,
                                               "_MANIFEST.json")))
            covered.extend(man["input_files"])
    assert len(covered) == len(set(covered)) == 8


def test_resume_rejects_foreign_checkpoint(sf_dir, ckpt_dir, tmp_path):
    """A checkpoint built from different input shards (e.g. another
    corpus/repeat) must be refused, not silently unioned into the run."""
    run_kg_resumable(sf_dir, ckpt_dir, wave_size=8).count()
    # forge a committed group pointing at a file outside the corpus
    import json as _json

    ex_root = os.path.join(ckpt_dir, "stage=extract")
    g = sorted(g for g in os.listdir(ex_root) if g.startswith("group="))[0]
    mp = os.path.join(ex_root, g, "_MANIFEST.json")
    man = _json.load(open(mp))
    man["input_files"] = [str(tmp_path / "not-a-shard.parquet")]
    with open(mp, "w") as f:
        _json.dump(man, f)
    with pytest.raises(ValueError, match="different input shards"):
        run_kg_resumable(sf_dir, ckpt_dir, wave_size=8)


def _page_shards(sf_dir):
    from fcrepo3_rdf_extractor_ray.sources.pages import synthesize_pages

    d = synthesize_pages(sf_dir)
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


def test_retried_wave_write_overwrites_its_own_shards(sf_dir, tmp_path):
    """Calling the wave sink's ``write`` again with the same blocks and
    task index (what a Ray task retry does) leaves the same files and
    rows in the group checkpoint, and the same lineage rows."""
    from types import SimpleNamespace

    import pyarrow.parquet as pq
    from ray.data.datasource import WriteResult

    from fcrepo3_rdf_extractor_ray.pipelines.kg import PAGE_COLUMNS
    from fcrepo3_rdf_extractor_ray.stages.extract import extract_quads_kernel
    from fcrepo3_rdf_extractor_ray.state.lineage import (WaveCheckpointSink,
                                                         committed_groups)

    root = str(tmp_path / "ckpt")
    pages = pq.read_table(_page_shards(sf_dir)[0], columns=PAGE_COLUMNS)
    blocks = [pages.slice(0, 40), pages.slice(40)]
    sink = WaveCheckpointSink(root, "extract", "0000", extract_quads_kernel,
                              {"input_files": ["shard"]})
    ctx = SimpleNamespace(task_idx=3)

    def listing():
        return {f: pq.read_table(os.path.join(sink.tmp, f)).num_rows
                for f in sorted(os.listdir(sink.tmp))}

    sink.on_write_start()
    first_rows = sink.write(blocks, ctx)
    first = listing()
    again = sink.write(blocks, ctx)
    assert listing() == first
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"}
                          for r in rows]
    assert strip(again) == strip(first_rows)
    assert len(first) == len(again) == len(blocks)
    assert sum(first.values()) == sum(r["triple_count"] for r in again)

    sink.on_write_complete(WriteResult(pages.num_rows, 0, [again]))
    [(group, man)] = committed_groups(root, "extract")
    assert group == "0000" and man["input_files"] == ["shard"]
    assert {s["file"]: s["rows"] for s in man["shards"]} == first
    assert man["rows"] == sum(first.values())
    lt = pq.read_table(os.path.join(sink.final, "_LINEAGE.parquet"))
    assert lt.num_rows == len(first)
    assert lt["row_end"].to_pylist()[-1] == pages.num_rows
    assert not os.path.exists(sink.tmp)


def test_lineage_counts_match_pages_and_manifests(sf_dir, ckpt_dir):
    """After a crash and resume, the merged lineage's ``error_count`` sum
    is the number of pages ``parse_page`` rejects (counted here directly),
    and its ``triple_count`` sum is the committed manifests' ``rows``."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from fcrepo3_rdf_extractor_ray.functions.textextract import parse_page
    from fcrepo3_rdf_extractor_ray.state.lineage import committed_groups

    bad = 0
    for f in _page_shards(sf_dir):
        for html in pq.read_table(f, columns=["html"])["html"].to_pylist():
            try:
                parse_page(html)
            except Exception:
                bad += 1
    assert bad > 0

    assert run_kg_resumable(sf_dir, ckpt_dir, wave_size=3,
                            max_waves=1) is None
    run_kg_resumable(sf_dir, ckpt_dir, wave_size=3).count()
    lt = pq.read_table(os.path.join(ckpt_dir, "_lineage", "extract.parquet"))
    assert pc.sum(lt["error_count"]).as_py() == bad
    manifests = [m for _, m in committed_groups(ckpt_dir, "extract")]
    assert len(manifests) == 3
    assert pc.sum(lt["triple_count"]).as_py() == sum(m["rows"]
                                                     for m in manifests)


def test_resumable_run_needs_no_actor(sf_dir, ckpt_dir, monkeypatch):
    """The resumable run creates no lineage collector actor and no
    ExtractQuadsStage actor pool: with both made to raise it still
    completes, with the run_kg result."""
    from fcrepo3_rdf_extractor_ray.pipelines import kg
    from fcrepo3_rdf_extractor_ray.stages import extract
    from fcrepo3_rdf_extractor_ray.state import lineage

    def forbidden(*args, **kwargs):
        raise AssertionError("the resumable run must not use this")

    monkeypatch.setattr(lineage, "new_collector", forbidden)
    monkeypatch.setattr(extract, "ExtractQuadsStage", forbidden)
    monkeypatch.setattr(kg, "ExtractQuadsStage", forbidden, raising=False)
    assert run_kg_resumable(sf_dir, ckpt_dir, wave_size=4,
                            max_waves=1) is None
    rows = run_kg_resumable(sf_dir, ckpt_dir, wave_size=4).take_all()
    want = run_kg(sf_dir).take_all()
    key = lambda r: tuple(sorted(r.items()))
    assert sorted(map(key, rows)) == sorted(map(key, want))
