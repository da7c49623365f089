"""Command-line entry point — the ``Extract`` CLI analog.

Mirrors the reference's option surface (Extract.java:89-139):

    reference                      | here
    -------------------------------+----------------------------------
    -g/--graphName                 | --graph-name (single-graph rewrite)
    -n/--numExtractorThreads       | --parallelism (ray num_cpus)
    -q/--queueSize                 | (streaming backpressure — built in)
    -o/--outputLocation            | --output-dir
    --skipEmptyLiterals            | --skip-empty-literals (same opt-in
                                   |   polarity as the reference: empty
                                   |   literals are KEPT by default)
    positional URIs (subset run)   | --urls (explicit page subset)
    (none — no resume in reference)| --checkpoint-dir / wave resume

Owns its Ray session (guarded init) — library code never does.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="fcrepo3-rdf-extractor-ray",
        description="pages parquet → canonical deduplicated RDF quads",
    )
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.001",
                    help="testdata dir whose documents table seeds the corpus")
    ap.add_argument("--output-dir", required=True)
    ap.add_argument("--graph-name", default=None,
                    help="re-home all quads into this graph (F4 rewrite)")
    ap.add_argument("--parallelism", type=int, default=None,
                    help="ray num_cpus (default: all cores)")
    ap.add_argument("--skip-empty-literals", action="store_true",
                    help="drop empty-string literals (F1; opt-in, matching "
                         "the reference's --skipEmptyLiterals default)")
    ap.add_argument("--urls", nargs="*", default=None,
                    help="restrict to these page urls (subset run)")
    ap.add_argument("--checkpoint-dir", default=None,
                    help="enable resumable wave extraction + lineage")
    ap.add_argument("--no-nquads", action="store_true")
    ap.add_argument("--partition-by-subject-hash", action="store_true")
    ap.add_argument("--use-join-resolve", action="store_true")
    ap.add_argument("--n-salts", type=int, default=1)
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if args.parallelism:
            kwargs["num_cpus"] = args.parallelism
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .pipelines.kg import (materialize_sorted, pages_for_sf,
                               run_kg, run_kg_resumable)

    if args.checkpoint_dir and not args.urls:
        quads = run_kg_resumable(
            args.sf_dir, args.checkpoint_dir, n_salts=args.n_salts,
            skip_empty_literals=args.skip_empty_literals)
        if quads is None:
            print("extraction incomplete (crashed run); re-invoke to resume",
                  file=sys.stderr)
            return 2
    else:
        pages = None
        if args.urls:
            # explicit-URI mode (Extract.java:138-139): filter the pages
            # read, then the same pipeline
            import pyarrow as pa
            import pyarrow.compute as pc

            urlset = pa.array(args.urls, pa.string())
            pages = pages_for_sf(args.sf_dir).map_batches(
                lambda t: t.filter(pc.is_in(t["url"], value_set=urlset)),
                batch_format="pyarrow",
            )
        quads = run_kg(args.sf_dir, use_join_resolve=args.use_join_resolve,
                       n_salts=args.n_salts,
                       skip_empty_literals=args.skip_empty_literals,
                       pages_ds=pages)

    if args.graph_name:
        from .stages.filters import tag_graph

        quads = tag_graph(quads, args.graph_name)

    materialize_sorted(
        quads, args.output_dir,
        write_nquads=not args.no_nquads,
        partition_by_subject_hash=args.partition_by_subject_hash,
    )
    import glob
    import os

    import pyarrow.parquet as pq

    files = glob.glob(os.path.join(args.output_dir, "**", "*.parquet"),
                      recursive=True)
    n = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    print(json.dumps({"quads": n, "output": args.output_dir}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
