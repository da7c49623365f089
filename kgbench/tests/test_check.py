"""A corrupted job output is counted in ``failed``."""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from kgbench import check, corpus, jobs, session
from kgbench.run import count_failed


@pytest.fixture(scope="module")
def job_output(tmp_path_factory):
    """One real job's output over a tiny corpus, plus its oracle answer."""
    from fcrepo3_rdf_extractor_ray.sources.pages import synthesize_pages

    work = str(tmp_path_factory.mktemp("kgb"))
    c = corpus.write_corpus(work, "short_pages", seed=5, scale=0.02)
    temp_dir, own = session.ray_temp_dir(work)
    session.start_ray(temp_dir)
    try:
        synthesize_pages(c.sf_dir, out_dir=c.pages_dir)
        out = os.path.join(work, "out")
        jobs.run_job(c, out, None)
    finally:
        session.stop_ray()
        if own:
            shutil.rmtree(temp_dir, ignore_errors=True)
    return out, check.oracle_table(os.path.join(c.sf_dir,
                                                "documents.parquet"))


def _copy(src: str, dst: str) -> str:
    shutil.copytree(src, dst)
    return dst


def _bump_n_src(out: str) -> None:
    f = sorted(glob.glob(os.path.join(out, "*.parquet")))[0]
    t = pq.read_table(f)
    i = t.schema.get_field_index("n_src")
    pq.write_table(t.set_column(i, "n_src", pc.add(t["n_src"], 1)), f)


def _nq_lines(out: str) -> tuple[str, list[str]]:
    f = max(glob.glob(os.path.join(out, "nquads", "*.nq")),
            key=os.path.getsize)
    with open(f) as fh:
        return f, fh.read().splitlines(keepends=True)


def _drop_line(out: str) -> None:
    f, lines = _nq_lines(out)
    with open(f, "w") as fh:
        fh.writelines(lines[1:])


def _swap_lines(out: str) -> None:
    f, lines = _nq_lines(out)
    lines[0], lines[-1] = lines[-1], lines[0]
    with open(f, "w") as fh:
        fh.writelines(lines)


def test_good_output_passes(job_output, tmp_path):
    out, expected = job_output
    assert check.output_problems(out, expected) == []
    assert count_failed([(_copy(out, str(tmp_path / "a")), True)],
                        expected) == 0


def test_corrupted_outputs_are_counted_failed(job_output, tmp_path):
    out, expected = job_output
    outputs = [(_copy(out, str(tmp_path / "good")), True)]
    for name, corrupt in (("n_src", _bump_n_src), ("drop", _drop_line),
                          ("order", _swap_lines)):
        d = _copy(out, str(tmp_path / name))
        corrupt(d)
        assert check.output_problems(d, expected), name
        outputs.append((d, True))
    # a correct output whose lineage check failed also counts
    outputs.append((_copy(out, str(tmp_path / "lineage")), False))
    assert count_failed(outputs, expected) == 4


def test_oracle_mismatch_on_src_url(job_output, tmp_path):
    out, expected = job_output
    d = _copy(out, str(tmp_path / "src"))
    f = sorted(glob.glob(os.path.join(d, "*.parquet")))[0]
    t = pq.read_table(f)
    i = t.schema.get_field_index("src_url")
    wrong = pa.array(["https://elsewhere.org/"] * t.num_rows, pa.string())
    pq.write_table(t.set_column(i, "src_url", wrong), f)
    assert any("Parquet rows differ" in p
               for p in check.output_problems(d, expected))
