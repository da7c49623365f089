"""Integer PageRank — distributed result must be bit-identical to a
sequential dict-based reference (integer arithmetic is order-free)."""

import numpy as np
import pyarrow as pa
import ray.data as rd


def _seq_pagerank(edges, iters=5, damping_pct=85, scale=1_000_000):
    """Obviously-correct sequential reference (same integer semantics)."""
    edges = sorted(set(edges))
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    deg = {}
    for u, _ in edges:
        deg[u] = deg.get(u, 0) + 1
    base = (scale * (100 - damping_pct)) // 100
    r = {n: scale for n in nodes}
    for _ in range(iters):
        inc = {n: 0 for n in nodes}
        for u, v in edges:
            inc[v] += r[u] // deg[u]
        r = {n: base + (damping_pct * inc[n]) // 100 for n in nodes}
    return r


def _edges_ds(edges):
    return rd.from_arrow(pa.table({
        "subj": pa.array([u for u, _ in edges], pa.string()),
        "obj": pa.array([v for _, v in edges], pa.string()),
    }))


def test_pagerank_matches_sequential_reference(ray_session):
    from fcrepo3_rdf_extractor_ray.stages.graph import pagerank

    # cycle + chain + a sink and a dangling source, with duplicate edges
    # that the distinct stage must collapse
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"),
             ("d", "e"), ("x", "a"), ("a", "b")]
    got = {r["node"]: r["rank_micro"]
           for r in pagerank(_edges_ds(edges), iters=5).take_all()}
    want = _seq_pagerank(edges, iters=5)
    assert got == want


def test_pagerank_modes_equivalent(ray_session, monkeypatch):
    """Broadcast-rank and join modes must be bit-identical (integer
    arithmetic is order-free; the modes differ only in data movement)."""
    from fcrepo3_rdf_extractor_ray.stages import graph
    from fcrepo3_rdf_extractor_ray.stages.graph import pagerank

    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"),
             ("d", "e"), ("x", "a")]
    bc = {r["node"]: r["rank_micro"]
          for r in pagerank(_edges_ds(edges), iters=4).take_all()}
    monkeypatch.setattr(graph, "PAGERANK_BROADCAST_MAX_NODES", 0)
    jn = {r["node"]: r["rank_micro"]
          for r in pagerank(_edges_ds(edges), iters=4).take_all()}
    assert bc == jn == _seq_pagerank(edges, iters=4)


def test_pagerank_sink_gets_base_only(ray_session):
    from fcrepo3_rdf_extractor_ray.stages.graph import pagerank

    # u -> v : v has in-links, u has none (rank = base + damped share)
    got = {r["node"]: r["rank_micro"]
           for r in pagerank(_edges_ds([("u", "v")]), iters=1).take_all()}
    assert got["u"] == 150_000
    assert got["v"] == 150_000 + (85 * 1_000_000) // 100


def test_pagerank_iteration_count_changes_result(ray_session):
    from fcrepo3_rdf_extractor_ray.stages.graph import pagerank

    # asymmetric: a splits rank between b and c, so ranks keep moving
    edges = [("a", "b"), ("a", "c"), ("b", "a")]
    one = {r["node"]: r["rank_micro"]
           for r in pagerank(_edges_ds(edges), iters=1).take_all()}
    five = {r["node"]: r["rank_micro"]
            for r in pagerank(_edges_ds(edges), iters=5).take_all()}
    assert one != five
    assert five == _seq_pagerank(edges, iters=5)


def test_kcore_planted_and_distributed_parity(ray_session, monkeypatch):
    """2-core of triangle+tail = the triangle; 3-core of that graph is
    empty (engine yields 0 rows without error). The distributed peel
    (SMALL_GRAPH_EDGES = 0) must equal the single-task peel."""
    import pyarrow as pa
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages import graph
    from fcrepo3_rdf_extractor_ray.stages.graph import kcore_nodes

    # triangle a-b-c plus tail c-d-e, plus isolated pair f-g
    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e"),
             ("f", "g")]
    t = pa.table({"norm_a": pa.array([e[0] for e in edges], pa.string()),
                  "norm_b": pa.array([e[1] for e in edges], pa.string())})
    ds = rd.from_arrow(t)
    got = sorted(kcore_nodes(ds, k=2).to_pandas()["node"])
    assert got == ["a", "b", "c"]
    assert len(kcore_nodes(ds, k=3).to_pandas()) == 0
    monkeypatch.setattr(graph, "SMALL_GRAPH_EDGES", 0)
    dist = sorted(kcore_nodes(ds, k=2).to_pandas()["node"])
    assert dist == got


def _seq_hits(edges, iters=5, scale=1_000_000):
    """Obviously-correct sequential HITS reference (same integer
    max-normalized semantics as stages/graph.hits_scores)."""
    edges = sorted(set(edges))
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    hub = {n: scale for n in nodes}
    auth = {n: 0 for n in nodes}
    for _ in range(iters):
        raw = {n: 0 for n in nodes}
        for u, v in edges:
            raw[v] += hub[u]
        mx = max(raw.values(), default=0)
        auth = ({n: (raw[n] * scale) // mx for n in nodes} if mx > 0
                else dict(raw))
        raw = {n: 0 for n in nodes}
        for u, v in edges:
            raw[u] += auth[v]
        mx = max(raw.values(), default=0)
        hub = ({n: (raw[n] * scale) // mx for n in nodes} if mx > 0
               else dict(raw))
    return {n: (hub[n], auth[n]) for n in nodes}


def test_hits_matches_sequential_reference(ray_session):
    from fcrepo3_rdf_extractor_ray.stages.graph import hits_scores

    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"),
             ("d", "e"), ("x", "a"), ("a", "b")]  # dup must collapse
    got = {r["node"]: (r["hub_scaled"], r["auth_scaled"])
           for r in hits_scores(_edges_ds(edges), iters=5).take_all()}
    assert got == _seq_hits(edges, iters=5)


def test_hits_distributed_path_parity(ray_session, monkeypatch):
    """The broadcast half-step path (SMALL_GRAPH_EDGES = 0) must be
    bit-identical to the single-task short-circuit and the sequential
    reference, including endpoint-only nodes (pure hub x, pure sink e)."""
    from fcrepo3_rdf_extractor_ray.stages import graph
    from fcrepo3_rdf_extractor_ray.stages.graph import hits_scores

    monkeypatch.setattr(graph, "SMALL_GRAPH_EDGES", 0)
    rng = np.random.default_rng(7)
    es = [(f"n{int(a)}", f"n{int(b)}")
          for a, b in rng.integers(0, 40, size=(300, 2)) if a != b]
    es += [("x", "n0"), ("n1", "e")]
    want = _seq_hits(es, iters=4)
    got = {r["node"]: (r["hub_scaled"], r["auth_scaled"])
           for r in hits_scores(_edges_ds(es).repartition(4),
                                iters=4).take_all()}
    assert got == want


def test_trustrank_matches_sequential_reference(ray_session):
    """Seed-masked teleport: integer TrustRank vs a dict reference;
    nodes unreachable from the seeds stay exactly 0."""
    from fcrepo3_rdf_extractor_ray.stages.graph import trust_rank

    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"),
             ("d", "e"), ("x", "a"), ("q", "z"), ("a", "b")]
    seeds = ["a"]
    scale, damping, iters = 1_000_000, 85, 5
    es = sorted(set(edges))
    nodes = sorted({u for u, _ in es} | {v for _, v in es})
    deg: dict = {}
    for u, _ in es:
        deg[u] = deg.get(u, 0) + 1
    base = (scale * (100 - damping)) // 100
    r = {n: (scale if n in seeds else 0) for n in nodes}
    for _ in range(iters):
        inc = {n: 0 for n in nodes}
        for u, v in es:
            inc[v] += r[u] // deg[u]
        r = {n: (base if n in seeds else 0) + (damping * inc[n]) // 100
             for n in nodes}
    got = {row["node"]: row["trust_micro"]
           for row in trust_rank(_edges_ds(edges), seeds=seeds,
                                 iters=iters).take_all()}
    assert got == r
    # q/z are unreachable from the seed -> exactly zero trust
    assert got["q"] == got["z"] == 0 and got["a"] > 0


def _seq_walks(edges, length=4):
    from fcrepo3_rdf_extractor_ray.functions.hashing import md5_hash60

    es = sorted(set(edges))
    adj: dict = {}
    for u, v in es:
        adj.setdefault(u, []).append(v)
    nodes = sorted({u for u, _ in es} | {v for _, v in es})
    rows = set()
    for s in nodes:
        cur = s
        rows.add((s, 0, s))
        for i in range(length):
            ns = adj.get(cur)
            if not ns:
                break
            cur = sorted(ns)[md5_hash60(f"{s}|{i}") % len(ns)]
            rows.add((s, i + 1, cur))
    return rows


def test_deterministic_walks_both_modes(ray_session, monkeypatch):
    """Broadcast-CSR and co-partitioned modes both equal the sequential
    md5-next-hop reference, including early stops at sinks."""
    from fcrepo3_rdf_extractor_ray.stages import graph
    from fcrepo3_rdf_extractor_ray.stages.graph import deterministic_walks

    rng = np.random.default_rng(9)
    es = [(f"n{int(a)}", f"n{int(b)}")
          for a, b in rng.integers(0, 25, size=(60, 2)) if a != b]
    es += [("n0", "sink"), ("iso_src", "n1")]
    want = _seq_walks(es, length=4)
    from fcrepo3_rdf_extractor_ray import runtime

    for limit, cpus in ((10_000, 4), (0, 3)):
        monkeypatch.setattr(graph, "WALKS_BROADCAST_MAX_EDGES", limit)
        monkeypatch.setattr(runtime, "cluster_cpus", lambda c=cpus: c)
        got = {(r["start"], r["step"], r["node"])
               for r in deterministic_walks(_edges_ds(es).repartition(4),
                                            length=4).take_all()}
        assert got == want, limit


def test_collect_table_runs_its_input_once(ray_session, tmp_path):
    """``_collect_table`` executes a lazy plan once: one UDF call per
    input block, and no second execution (a schema probe) whose
    shutdown cancels tasks still running."""
    import os
    import uuid

    from fcrepo3_rdf_extractor_ray.stages.graph import _collect_table

    calls = str(tmp_path)

    def udf(t: pa.Table) -> pa.Table:
        open(os.path.join(calls, uuid.uuid4().hex), "w").close()
        return t

    ds = rd.range(8, override_num_blocks=8).map_batches(
        udf, batch_size=None, batch_format="pyarrow")
    got = _collect_table(ds, pa.schema([("id", pa.int64())]))
    assert sorted(got["id"].to_pylist()) == list(range(8))
    assert len(os.listdir(calls)) == 8
