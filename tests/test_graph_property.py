"""Property-style verification of the iterative/window operators on
random inputs: PageRank vs the sequential integer reference on random
graphs (both execution modes), rolling sums vs a naive O(n·w) window."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from fcrepo3_rdf_extractor_ray import runtime
from test_graph import _edges_ds, _seq_pagerank


@pytest.mark.parametrize("seed,n_nodes,n_edges,iters,mode", [
    (0, 8, 20, 3, "broadcast"),
    (1, 30, 60, 5, "broadcast"),
    (2, 12, 40, 4, "join"),
    (3, 5, 5, 2, "join"),
])
def test_pagerank_random_graphs(ray_session, monkeypatch, seed, n_nodes,
                                n_edges, iters, mode):
    from fcrepo3_rdf_extractor_ray.stages import graph

    if mode == "join":
        monkeypatch.setattr(graph, "PAGERANK_BROADCAST_MAX_NODES", 0)
    rng = np.random.RandomState(seed)
    edges = [(f"n{rng.randint(n_nodes)}", f"n{rng.randint(n_nodes)}")
             for _ in range(n_edges)]
    got = {r["node"]: r["rank_micro"]
           for r in __import__(
               "fcrepo3_rdf_extractor_ray.stages.graph",
               fromlist=["pagerank"]).pagerank(
                   _edges_ds(edges), iters=iters).take_all()}
    assert got == _seq_pagerank(edges, iters=iters)


@pytest.mark.parametrize("seed,n_users,n_events,window", [
    (0, 3, 40, 4), (1, 1, 25, 1), (2, 7, 120, 10)])
def test_rolling_matches_naive_window(ray_session, tmp_path, seed,
                                      n_users, n_events, window):
    import datetime as dt

    import pandas as pd

    from fcrepo3_rdf_extractor_ray.pipelines.relational import (
        rolling_user_spend)

    rng = np.random.RandomState(seed)
    base = dt.datetime(2024, 1, 1)
    df = pd.DataFrame({
        "event_id": np.arange(n_events, dtype="int64"),
        "user_id": rng.randint(n_users, size=n_events).astype("int64"),
        # duplicate timestamps on purpose — the (ts, event_id) tie-break
        # must keep the result deterministic
        "ts": [base + dt.timedelta(minutes=int(m))
               for m in rng.randint(n_events // 2 + 1, size=n_events)],
        "event_type": ["view"] * n_events,
        "value": np.round(rng.uniform(0, 50, n_events), 2),
        "props": ["{}"] * n_events,
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))

    got = rolling_user_spend(str(tmp_path), window=window).to_pandas()
    got = got.set_index("event_id")["roll_cents"]

    # naive O(n·w) reference
    df = df.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    cents = (df["value"] * 100).round().astype("int64")
    want = {}
    for uid, sub in df.groupby("user_id"):
        vals = cents[sub.index].tolist()
        ids = sub["event_id"].tolist()
        for i, eid in enumerate(ids):
            want[eid] = sum(vals[max(0, i - window + 1):i + 1])
    for eid, expected in want.items():
        assert got[eid] == expected, (eid, got[eid], expected)


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(1, 60, 40), (2, 200, 150),
                                                  (3, 80, 300)])
def test_connected_components_random_vs_reference(ray_session, monkeypatch,
                                                  seed, n_nodes, n_edges):
    """Random graphs (sparse → many components, dense → one giant):
    distributed contraction union-find must match a driver-side
    union-find exactly, node for node."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages import graph
    from fcrepo3_rdf_extractor_ray.stages.graph import connected_components

    rng = np.random.RandomState(seed)
    a = rng.randint(n_nodes, size=n_edges)
    b = rng.randint(n_nodes, size=n_edges)
    m = a != b
    names_a = [f"v{x:04d}" for x in a[m]]
    names_b = [f"v{x:04d}" for x in b[m]]

    parent = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for x, y in zip(names_a, names_b):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    # min-name union keeps the root = min name of its component
    want = {x: find(x) for x in set(names_a) | set(names_b)}

    t = pa.table({"norm_a": pa.array(names_a), "norm_b": pa.array(names_b)})
    # SMALL_GRAPH_EDGES = 0 forces the full contraction pipeline — the
    # fast path is a trivial single-task UF and is covered elsewhere
    monkeypatch.setattr(graph, "SMALL_GRAPH_EDGES", 0)
    # 7 CPUs: eight exchange partitions
    monkeypatch.setattr(runtime, "cluster_cpus", lambda: 7)
    got = (connected_components(rd.from_arrow(t).repartition(5))
           .to_pandas().set_index("node")["component"].to_dict())
    assert got == want
