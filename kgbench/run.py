"""KG-build benchmark: oracle-checked jobs in a closed loop, one client.

    python3 kgbench/run.py --workload short_pages --seed 1 --seconds 10 \\
        --trace 0

One driver process owns a local 2-CPU Ray session and runs one job at a
time (see jobs.py) over a corpus generated from ``--seed``. After the
timed loop every job's output is checked against the DuckDB
``kg_quads_all`` oracle. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; all other output
goes to stderr. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from traced twins of the job.

Everything the run writes (corpus, pages, checkpoints, outputs, Ray's
temp dir) lives in ``.kgbench_work/`` at the repo root and is removed
before exit.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

_T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

SESSIONS = 2
DEADLINE_S = 170

END_TO_END = {"job_s": "s", "quads_per_s": "1/s", "resume_s": "s",
              "setup_s": "s", "driver_peak_rss_mb": "MB",
              "worker_peak_rss_mb": "MB"}
PER_LAYER = {
    "extract.s": "s", "extract.pages_in": "count", "extract.html_mb_in": "MB",
    "extract.quads_out": "count", "extract.blocks_out": "count",
    "canonicalize.entity_map.s": "s", "canonicalize.resolve.s": "s",
    "canonicalize.norms": "count", "canonicalize.driver_rows": "count",
    "dedup.s": "s", "dedup.quads_in": "count", "dedup.quads_out": "count",
    "dedup.kept_ratio": "ratio", "dedup.blocks_in": "count",
    "dedup.part_rows_max": "count", "dedup.part_rows_median": "count",
    "sink.s": "s", "sink.parquet_mb": "MB", "sink.nq_mb": "MB",
    "sink.files": "count",
    "lineage.checkpoint.s": "s", "lineage.checkpoint_mb": "MB",
    "lineage.groups": "count", "lineage.redo_ratio": "ratio",
    "lineage.error_count": "count",
    "trace.gap_s": "s",
}
# span self times reported as <span>.s
_SPAN_METRICS = ("extract", "canonicalize.entity_map", "canonicalize.resolve",
                 "dedup", "sink", "lineage.checkpoint")


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S} s")


def log(msg: str) -> None:
    print(f"[kgbench {time.perf_counter() - _T_START:7.2f}] {msg}",
          file=sys.stderr, flush=True)


def parse_args(argv=None):
    from kgbench.corpus import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus size multiplier (tests use a tiny corpus)")
    return ap.parse_args(argv)


def route_page_cache(pages_dir: str) -> None:
    """run_kg_resumable takes no pages dir: its synthesize_pages call
    caches under /tmp/kg_pages/<basename of sf_dir>. Default that call's
    out_dir to the corpus's own pages dir, so the run writes only inside
    its work directory."""
    from fcrepo3_rdf_extractor_ray.sources import pages

    original = pages.synthesize_pages

    @functools.wraps(original)
    def synthesize_here(sf_dir, out_dir=None, **kw):
        return original(sf_dir, out_dir=out_dir or pages_dir, **kw)

    pages.synthesize_pages = synthesize_here


class Run:
    """One benchmark run: its work dir, corpus, jobs and their checks."""

    def __init__(self, args, work: str, import_s: float):
        from kgbench import corpus, session

        self.args = args
        self.import_s = import_s
        self.work = work
        self.workload = corpus.WORKLOADS[args.workload]
        self.corpus = corpus.write_corpus(work, args.workload, args.seed,
                                          args.scale)
        self.temp_dir, self.own_temp_dir = session.ray_temp_dir(work)
        self.n_dirs = 0
        self.outputs: list[tuple[str, bool]] = []  # (out dir, lineage ok)
        self.n_shards = 0
        self.html_mb = None

    def new_dir(self, kind: str) -> str:
        self.n_dirs += 1
        return os.path.join(self.work, f"{kind}{self.n_dirs}")

    def ck_dir(self) -> str | None:
        return self.new_dir("ck") if self.workload.resumable else None

    def make_pages(self) -> None:
        """Synthesize the corpus's pages in a session of their own, so
        every set-up below starts from the same cold workers."""
        from fcrepo3_rdf_extractor_ray.sources.pages import synthesize_pages
        from kgbench import session

        session.start_ray(self.temp_dir)
        synthesize_pages(self.corpus.sf_dir, out_dir=self.corpus.pages_dir)
        session.stop_ray()
        self.n_shards = sum(f.endswith(".parquet")
                            for f in os.listdir(self.corpus.pages_dir))

    def setup(self) -> float:
        """ray.init + the warm job."""
        from kgbench import jobs, session

        t = time.perf_counter()
        session.start_ray(self.temp_dir)
        out = self.new_dir("warm")
        jobs.warm_job(self.corpus, out)
        elapsed = time.perf_counter() - t
        shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def job(self):
        from kgbench import jobs

        res = jobs.run_job(self.corpus, self.new_dir("out"), self.ck_dir())
        lineage = None
        ok = True
        if res.ck_dir is not None:
            lineage = jobs.lineage_counts(res, self.n_shards)
            ok = (lineage["lineage.redo_ratio"] == 1.0
                  and lineage["lineage.error_count"]
                  == self.corpus.n_malformed)
            if not ok:
                log(f"lineage check failed: {lineage}; expected "
                    f"{self.corpus.n_malformed} contained errors")
            shutil.rmtree(res.ck_dir, ignore_errors=True)
        self.outputs.append((res.out_dir, ok))
        return res, lineage

    def twin(self, lineage: dict | None) -> dict:
        """Per-layer metrics of one traced twin of the job."""
        from kgbench import corpus, jobs

        out, ck = self.new_dir("out"), self.ck_dir()
        tr = jobs.run_twin(self.corpus, out, ck)
        self.outputs.append((out, True))
        if ck is not None:
            shutil.rmtree(ck, ignore_errors=True)
        selft = tr.self_times()
        m = {f"{n}.s": selft.get(n, 0.0) for n in _SPAN_METRICS}
        m["_layers_s"] = sum(m.values())
        m["extract.pages_in"] = self.corpus.n_docs
        if self.html_mb is None:
            self.html_mb = corpus.pages_html_mb(self.corpus.pages_dir)
        m["extract.html_mb_in"] = self.html_mb
        m.update(tr.counts)
        m["dedup.kept_ratio"] = m["dedup.quads_out"] / m["dedup.quads_in"]
        m.update(lineage or {})
        return m

    def check_outputs(self) -> int:
        """Oracle-check every job's output; returns the failed count."""
        from kgbench import check

        expected = check.oracle_table(
            os.path.join(self.corpus.sf_dir, "documents.parquet"))
        self.n_quads = expected.num_rows
        return count_failed(self.outputs, expected)


def count_failed(outputs: list[tuple[str, bool]], expected) -> int:
    """Jobs whose output differs from ``expected`` or whose lineage
    failed its check; each output dir is removed once checked."""
    from kgbench import check

    failed = 0
    for out, lineage_ok in outputs:
        problems = check.output_problems(out, expected)
        if problems or not lineage_ok:
            failed += 1
            log(f"FAILED {out}: {problems[:3]}")
        shutil.rmtree(out, ignore_errors=True)
    return failed


def bench(run: Run) -> dict:
    from kgbench import session

    args = run.args
    log(f"corpus {run.corpus.name}: {run.corpus.n_docs} documents")
    t = time.perf_counter()
    run.make_pages()
    log(f"pages synthesized in {time.perf_counter() - t:.3f} s")
    # Each session: ray.init + warm job (the set-up), then its share of
    # the timed loop. Spreading the jobs over fresh sessions averages out
    # how fast a given session happens to be.
    n_sessions = 1 if args.trace else SESSIONS
    rss = session.PeakRss()
    setups, job_s, resume_s, layers = [], [], [], []
    errors = 0
    for _ in range(n_sessions):
        setups.append(run.import_s + run.setup())
        log(f"set-up {setups[-1]:.3f} s")
        t_loop, n_here = time.perf_counter(), 0
        with rss:
            while (not n_here or time.perf_counter() - t_loop
                   < args.seconds / n_sessions):
                try:
                    res, lineage = run.job()
                    if args.trace:
                        layers.append(run.twin(lineage))
                        log(f"twin {len(layers)}: layers "
                            f"{layers[-1]['_layers_s']:.3f} s")
                except Exception:  # a failed job is counted, not fatal
                    log(traceback.format_exc())
                    errors += 1
                    break
                n_here += 1
                job_s.append(res.job_s)
                resume_s.append(res.resume_s)
                log(f"job {len(job_s)}: {res.job_s:.3f} s")
        session.stop_ray()
        if errors:
            break
    if not job_s or (args.trace and not layers):
        raise RuntimeError("no job completed")
    failed = errors + run.check_outputs()

    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.gap_s":
                v = (statistics.median(job_s)
                     - statistics.median(m["_layers_s"] for m in layers))
            else:
                v = statistics.median(m.get(name, 0.0) for m in layers)
            metrics[name] = {"value": v, "unit": unit}
    else:
        med = statistics.median(job_s)
        values = {"job_s": med, "quads_per_s": run.n_quads / med,
                  "resume_s": statistics.median(resume_s),
                  "setup_s": statistics.median(setups),
                  "driver_peak_rss_mb": rss.driver_mb,
                  "worker_peak_rss_mb": rss.worker_mb}
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    attempted = len(run.outputs) + errors
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def cleanup(work: str, run: Run | None) -> None:
    """Stop Ray if it is still up, then remove every file the run made."""
    import ray

    from kgbench import session

    if ray.is_initialized():
        session.stop_ray()
    if run is not None:
        if run.own_temp_dir:
            shutil.rmtree(run.temp_dir, ignore_errors=True)
        # the program's default page cache, should anything have used it
        shutil.rmtree(os.path.join("/tmp/kg_pages", run.corpus.name),
                      ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work))
    except OSError:
        pass  # another run's work dir is still there


def main(argv=None) -> int:
    args = parse_args(argv)
    # the result line is the only thing on stdout: point fd 1 (and every
    # child process that inherits it) at stderr until then
    sys.stdout.flush()
    result_fd = os.dup(1)
    os.dup2(2, 1)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # Ray workers import the program by module path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    work = os.path.join(ROOT, ".kgbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    run = None
    try:
        import ray  # noqa: F401  (import cost is part of set-up)

        from kgbench import check, jobs, session  # noqa: F401

        run = Run(args, work, import_s=time.perf_counter() - _T_START)
        route_page_cache(run.corpus.pages_dir)
        result = bench(run)
    finally:
        signal.alarm(0)
        cleanup(work, run)
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    os.close(result_fd)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
