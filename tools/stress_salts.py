"""Salted-skew evidence for the flagship's entity-map build: run the
full KG pipeline over the ×N amplified corpus (Zipf-skewed entity
mentions — the head entities are exactly what n_salts targets) at
n_salts=1 and n_salts=4, assert the outputs are IDENTICAL via an
order-invariant checksum, and report both walls. Only the entity map
(``unique_norms``) salts; ``dedup_quads`` ignores ``n_salts`` — its
per-batch combiner already bounds a head quad to ≤ #blocks rows.

Usage: python tools/stress_salts.py [sf_dir] [repeat] [num_cpus]
"""
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
import numpy as np
import pyarrow as pa
import ray

SF = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
REPEAT = int(sys.argv[2]) if len(sys.argv) > 2 else 100
NCPU = int(sys.argv[3]) if len(sys.argv) > 3 else 32
ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
from fcrepo3_rdf_extractor_ray.pipelines.kg import run_kg
from fcrepo3_rdf_extractor_ray.sources.pages import synthesize_pages

synthesize_pages(SF, repeat=REPEAT)  # warm the cached corpus (untimed)


def checksum(ds) -> tuple[int, int, int]:
    """Order-invariant content signature: (row count, sum of 64-bit row
    digests mod 2^64, xor of the same) over the quad identity columns."""
    def part(t: pa.Table) -> pa.Table:
        cols = [t[c].to_pandas().astype(str)
                for c in ("graph", "subj", "pred", "obj",
                          "obj_datatype")]
        joined = cols[0]
        for c in cols[1:]:
            joined = joined + "\x1f" + c
        h = np.array([int.from_bytes(
            hashlib.md5(s.encode()).digest()[:8], "little")
            for s in joined], dtype=np.uint64)
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "s": pa.array([int(np.sum(h, dtype=np.uint64))], pa.uint64()),
            "x": pa.array([int(np.bitwise_xor.reduce(h))
                           if len(h) else 0], pa.uint64())})

    agg = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    return (int(agg["n"].sum()),
            int(np.sum(agg["s"].to_numpy(np.uint64), dtype=np.uint64)),
            int(np.bitwise_xor.reduce(agg["x"].to_numpy(np.uint64))))


out = {}
sigs = {}
for n_salts in (1, 4):
    run_kg(SF, repeat=REPEAT, n_salts=n_salts).count()  # warm (untimed)
    t0 = time.time()
    ds = run_kg(SF, repeat=REPEAT, n_salts=n_salts)
    sig = checksum(ds)
    out[f"n_salts={n_salts}"] = round(time.time() - t0, 2)
    sigs[n_salts] = sig
    print(f"n_salts={n_salts}: wall {out[f'n_salts={n_salts}']} s, "
          f"(rows, sum64, xor64) = {sig}", flush=True)

assert sigs[1] == sigs[4], (sigs[1], sigs[4])
print(json.dumps({"sf": SF, "repeat": REPEAT, "num_cpus": NCPU,
                  "equal_output": True, "walls_sec": out,
                  "quads": sigs[1][0]}), flush=True)
ray.shutdown()
