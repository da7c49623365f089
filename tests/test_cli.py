"""CLI end-to-end (the Extract-CLI analog) — runs in a subprocess with
its own Ray session, like a real invocation."""

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_cli_end_to_end(tmp_path):
    out = str(tmp_path / "out")
    env = {**os.environ, "PYTHONPATH": REPO}
    r = subprocess.run(
        [sys.executable, "-m", "fcrepo3_rdf_extractor_ray.cli",
         "--sf-dir", "/root/testdata/sf0.001",
         "--output-dir", out,
         "--skip-empty-literals",  # F1 on → the golden flagship count
         "--partition-by-subject-hash"],
        capture_output=True, text=True, timeout=420, env=env, cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    line = [l for l in r.stdout.strip().splitlines() if l.startswith("{")][-1]
    payload = json.loads(line)
    assert payload["quads"] == 4083  # the golden flagship count at sf0.001
    # hash-partitioned layout + N-Quads mirror exist
    parts = [d for d in os.listdir(out) if d.startswith("subj_part=")]
    assert parts, os.listdir(out)
    nq = [f for f in os.listdir(os.path.join(out, "nquads"))
          if f.endswith(".nq")]
    assert nq


@pytest.mark.slow
def test_cli_subset_urls(tmp_path):
    out = str(tmp_path / "out")
    env = {**os.environ, "PYTHONPATH": REPO}
    r = subprocess.run(
        [sys.executable, "-m", "fcrepo3_rdf_extractor_ray.cli",
         "--sf-dir", "/root/testdata/sf0.001",
         "--output-dir", out, "--no-nquads",
         "--urls", "https://ex1.org/p/1", "https://ex2.org/p/2"],
        capture_output=True, text=True, timeout=420, env=env, cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    payload = json.loads([l for l in r.stdout.strip().splitlines()
                          if l.startswith("{")][-1])
    # 2 pages: 4 constant + 4 meta (title/desc/kw/state) + 1 fact each
    assert 14 <= payload["quads"] <= 18


@pytest.mark.slow
def test_cli_default_keeps_empty_literals(tmp_path):
    """Reference CLI parity (Extract.java:122-124): empty literals are
    KEPT unless --skip-empty-literals is passed — the opt-in polarity."""
    out = str(tmp_path / "out")
    env = {**os.environ, "PYTHONPATH": REPO}
    r = subprocess.run(
        [sys.executable, "-m", "fcrepo3_rdf_extractor_ray.cli",
         "--sf-dir", "/root/testdata/sf0.001",
         "--output-dir", out, "--no-nquads"],
        capture_output=True, text=True, timeout=420, env=env, cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    payload = json.loads([l for l in r.stdout.strip().splitlines()
                          if l.startswith("{")][-1])
    # empty-description quads (doc_id % 11 pages) survive → more than the
    # skip-filtered golden count
    assert payload["quads"] > 4083


@pytest.mark.slow
def test_cli_graph_name_rehomes_every_row(tmp_path, sf_dir):
    """``--graph-name`` re-homes every quad of the single-graph pages
    input: the same row count as the run without it, every row in the
    named graph."""
    import pyarrow.parquet as pq

    from fcrepo3_rdf_extractor_ray.pipelines.kg import run_kg

    out = str(tmp_path / "out")
    env = {**os.environ, "PYTHONPATH": REPO}
    r = subprocess.run(
        [sys.executable, "-m", "fcrepo3_rdf_extractor_ray.cli",
         "--sf-dir", sf_dir,
         "--output-dir", out, "--no-nquads", "--skip-empty-literals",
         "--graph-name", "urn:graph:test"],
        capture_output=True, text=True, timeout=420, env=env, cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    payload = json.loads([l for l in r.stdout.strip().splitlines()
                          if l.startswith("{")][-1])
    without = run_kg(sf_dir, skip_empty_literals=True).count()
    assert payload["quads"] == without
    graphs = pq.read_table(out, columns=["graph"])["graph"]
    assert len(graphs) == without
    assert set(graphs.to_pylist()) == {"urn:graph:test"}
