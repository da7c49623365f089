"""Property checks for the round-3 operators on random inputs:
URL canonicalization idempotence, k-core invariants on random graphs
against a sequential reference peel."""
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fcrepo3_rdf_extractor_ray import runtime


def _canon_list(urls):
    from fcrepo3_rdf_extractor_ray.stages.web import canonicalize_urls

    t = pa.table({"doc_id": pa.array(range(len(urls)), pa.int64()),
                  "url": pa.array(urls, pa.string())})
    out = (canonicalize_urls(rd.from_arrow(t)).to_pandas()
           .sort_values("doc_id"))
    return out["url_canon"].tolist()


def test_url_canonicalization_idempotent(ray_session):
    """canon(canon(u)) == canon(u) over a messy generated corpus —
    the defining property of a dedup key."""
    rng = np.random.RandomState(7)
    schemes = ["http", "HTTP", "https", "HTTPS"]
    hosts = ["Ex.Org", "ex.org:443", "a.b.ex.org:80", "EX.ORG"]
    paths = ["", "/", "/p/1", "/p/1/", "/p//x///"]
    queries = ["", "?b=2&a=1", "?utm_s=1", "?utm_s=1&z=9&a=1&a=0", "?"]
    frags = ["", "#x", "#a?b=1"]
    urls = []
    for _ in range(200):
        urls.append(schemes[rng.randint(4)] + "://" + hosts[rng.randint(4)]
                    + paths[rng.randint(5)] + queries[rng.randint(5)]
                    + frags[rng.randint(3)])
    once = _canon_list(urls)
    twice = _canon_list(once)
    assert once == twice


def _seq_kcore(edges, k, max_rounds=20):
    """Sequential reference: bounded simultaneous peel."""
    es = set(edges)
    for _ in range(max_rounds):
        deg = {}
        for a, b in es:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        bad = {n for n, d in deg.items() if d < k}
        if not bad:
            break
        es = {(a, b) for a, b in es if a not in bad and b not in bad}
    return sorted({n for e in es for n in e})


@pytest.mark.parametrize("seed,n_nodes,n_edges,k", [
    (0, 10, 18, 2), (1, 30, 50, 2), (2, 25, 90, 3),
    (3, 40, 60, 3), (4, 15, 15, 2),
])
def test_kcore_random_graphs(ray_session, monkeypatch, seed, n_nodes,
                            n_edges, k):
    """Both execution paths equal the sequential bounded peel, and
    every surviving node has degree >= k in the induced subgraph."""
    from fcrepo3_rdf_extractor_ray.stages import graph
    from fcrepo3_rdf_extractor_ray.stages.graph import kcore_nodes

    rng = np.random.RandomState(seed)
    es = set()
    while len(es) < n_edges:
        a, b = rng.randint(n_nodes), rng.randint(n_nodes)
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        es.add((f"n{a}", f"n{b}"))
    edges = sorted(es)
    t = pa.table({"norm_a": pa.array([e[0] for e in edges], pa.string()),
                  "norm_b": pa.array([e[1] for e in edges], pa.string())})
    def nodes_of(ds):
        # Ray's to_pandas drops columns on 0-row datasets (the dataset
        # schema itself is correct — see ds.schema()); treat as empty
        df = ds.to_pandas()
        return sorted(df["node"]) if len(df) else []

    expected = _seq_kcore(edges, k)
    got_small = nodes_of(kcore_nodes(rd.from_arrow(t), k=k))
    assert got_small == expected
    monkeypatch.setattr(graph, "SMALL_GRAPH_EDGES", 0)
    monkeypatch.setattr(runtime, "cluster_cpus", lambda: 4)
    got_dist = nodes_of(kcore_nodes(rd.from_arrow(t), k=k))
    assert got_dist == expected
    # invariant: induced-subgraph degrees all >= k (when non-empty)
    keep = set(expected)
    deg = {}
    for a, b in edges:
        if a in keep and b in keep:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
    assert all(d >= k for d in deg.values())
    assert set(deg) == keep
