"""SCC at-scale stress: the round-4b planted graph (30k source
4-cycles -> 30k sink 4-cycles + 760k cross edges = 1M edges, 60k SCCs
of size 4) that cost 281 s on the live FB-Trim path. Round 5 adds
per-partition Tarjan condensation, which collapses every local cycle
before any FB round — this script is the reproducible measurement.

Usage: python tools/stress_scc.py [n_cycles] [num_cpus]
"""
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
import numpy as np
import pyarrow as pa
import ray

N_CYC = int(sys.argv[1]) if len(sys.argv) > 1 else 30_000
NCPU = int(sys.argv[2]) if len(sys.argv) > 2 else 32
ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
import ray.data as rd

from fcrepo3_rdf_extractor_ray.stages import graph
from fcrepo3_rdf_extractor_ray.stages.graph import scc_labels

# 4-cycles: src_i: s{i}_0 -> s{i}_1 -> s{i}_2 -> s{i}_3 -> s{i}_0
# sink cycles t{i}_* likewise; cross edges s{i}_0 -> t{j}_0 with
# j = (i * 7 + k) % N for k < CROSS_PER (deterministic, no RNG)
CROSS_PER = max(1, (1_000_000 - 8 * N_CYC) // N_CYC) \
    if N_CYC == 30_000 else 2
a, b = [], []
for side in ("s", "t"):
    for j in range(4):
        i = np.arange(N_CYC)
        a.append(np.char.add(np.char.add(f"{side}%", i.astype("U")),
                             f"_{j}"))
        b.append(np.char.add(np.char.add(f"{side}%", i.astype("U")),
                             f"_{(j + 1) % 4}"))
i = np.arange(N_CYC)
for k in range(CROSS_PER):
    jj = (i * 7 + k) % N_CYC
    a.append(np.char.add(np.char.add("s%", i.astype("U")), "_0"))
    b.append(np.char.add(np.char.add("t%", jj.astype("U")), "_0"))
tbl = pa.table({"subj": pa.array(np.concatenate(a)),
                "obj": pa.array(np.concatenate(b))})
print(f"edges: {tbl.num_rows}", flush=True)

ds = rd.from_arrow(tbl).repartition(32).materialize()
t0 = time.time()
graph.SMALL_GRAPH_EDGES = min(200_000, tbl.num_rows - 1)
out = scc_labels(ds)
df = out.to_pandas()
wall = time.time() - t0
sizes = df.groupby("scc_id").size().value_counts().sort_index()
print(f"wall: {wall:.1f} s; nodes: {len(df)}; "
      f"scc size histogram: {sizes.to_dict()}", flush=True)
assert sizes.get(4, 0) == 2 * N_CYC, sizes.to_dict()
assert len(df) == 8 * N_CYC
ray.shutdown()
