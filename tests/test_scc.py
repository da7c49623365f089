"""Strongly-connected-components operator: exact Tarjan short-circuit
path, the distributed FB-Trim coloring path, and their agreement with
a brute-force ground truth."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
import pytest

from fcrepo3_rdf_extractor_ray import runtime
from fcrepo3_rdf_extractor_ray.stages import graph
from fcrepo3_rdf_extractor_ray.stages.graph import _tarjan_scc, scc_labels

EDGES = [("a0", "a1"), ("a1", "a2"), ("a2", "a0"),   # 3-cycle
         ("b0", "b1"), ("b1", "b0"),                  # 2-cycle
         ("c0", "c1"), ("c1", "c2"),                  # chain
         ("a0", "b0"), ("b1", "c0"),                  # cross edges
         ("d0", "a0"),                                # source
         ("e0", "e0")]                                # self-loop
WANT = {"a0": "a0", "a1": "a0", "a2": "a0", "b0": "b0", "b1": "b0",
        "c0": "c0", "c1": "c1", "c2": "c2", "d0": "d0", "e0": "e0"}


def _edges_table(edges):
    return pa.table({"subj": [e[0] for e in edges],
                     "obj": [e[1] for e in edges]})


def test_scc_tarjan_short_circuit(ray_session):
    got = {r["node"]: r["scc_id"]
           for r in scc_labels(rd.from_arrow(_edges_table(EDGES))
                               .repartition(3)).take_all()}
    assert got == WANT


def test_scc_distributed_fb_trim(ray_session, monkeypatch):
    """Force the FB-Trim path (cutoff 0): trim peels the chain and the
    source, two FB rounds resolve the nested cycles."""
    monkeypatch.setattr(graph, "SMALL_GRAPH_EDGES", 0)
    monkeypatch.setattr(runtime, "cluster_cpus", lambda: 4)
    got = {r["node"]: r["scc_id"]
           for r in scc_labels(rd.from_arrow(_edges_table(EDGES))
                               .repartition(3)).take_all()}
    assert got == WANT


def test_scc_random_graph_matches_tarjan(ray_session, monkeypatch):
    rng = np.random.RandomState(3)
    nodes = [f"n{i:02d}" for i in range(30)]
    es = sorted({(nodes[rng.randint(30)], nodes[rng.randint(30)])
                 for _ in range(60)})
    es = [e for e in es if e[0] != e[1]]
    truth = _tarjan_scc(pd.DataFrame({"a": [e[0] for e in es],
                                      "b": [e[1] for e in es]}))
    want = dict(zip(truth["node"], truth["scc_id"]))
    monkeypatch.setattr(graph, "SMALL_GRAPH_EDGES", 0)
    monkeypatch.setattr(runtime, "cluster_cpus", lambda: 4)
    got = {r["node"]: r["scc_id"]
           for r in scc_labels(rd.from_arrow(_edges_table(es))
                               .repartition(4)).take_all()}
    assert got == want


def test_bowtie_regions(ray_session):
    """Hand-built bow-tie: IN chain -> 3-node CORE cycle -> OUT chain,
    a disconnected 2-cycle (smaller than core -> OTHER), a tendril."""
    from fcrepo3_rdf_extractor_ray.stages.graph import bowtie_regions

    edges = [("k0", "k1"), ("k1", "k2"), ("k2", "k0"),   # CORE (3 nodes)
             ("i0", "i1"), ("i1", "k0"),                  # IN chain
             ("k1", "o0"), ("o0", "o1"),                  # OUT chain
             ("x0", "x1"), ("x1", "x0"),                  # OTHER 2-cycle
             ("t0", "t1")]                                # OTHER tendril
    t = pa.table({"subj": [e[0] for e in edges],
                  "obj": [e[1] for e in edges]})
    got = {r["node"]: r["region"]
           for r in bowtie_regions(rd.from_arrow(t).repartition(3))
           .take_all()}
    assert got == {"k0": "CORE", "k1": "CORE", "k2": "CORE",
                   "i0": "IN", "i1": "IN", "o0": "OUT", "o1": "OUT",
                   "x0": "OTHER", "x1": "OTHER",
                   "t0": "OTHER", "t1": "OTHER"}


def test_bowtie_regions_distributed(ray_session, monkeypatch):
    """Force the composed distributed path (SCC FB-Trim + two
    reachability fixpoints) and require identical regions."""
    from fcrepo3_rdf_extractor_ray.stages.graph import bowtie_regions

    edges = [("k0", "k1"), ("k1", "k2"), ("k2", "k0"),
             ("i0", "i1"), ("i1", "k0"),
             ("k1", "o0"), ("o0", "o1"),
             ("x0", "x1"), ("x1", "x0")]
    t = pa.table({"subj": [e[0] for e in edges],
                  "obj": [e[1] for e in edges]})
    monkeypatch.setattr(graph, "SMALL_GRAPH_EDGES", 0)
    monkeypatch.setattr(runtime, "cluster_cpus", lambda: 4)
    got = {r["node"]: r["region"]
           for r in bowtie_regions(rd.from_arrow(t).repartition(3)).take_all()}
    assert got == {"k0": "CORE", "k1": "CORE", "k2": "CORE",
                   "i0": "IN", "i1": "IN", "o0": "OUT", "o1": "OUT",
                   "x0": "OTHER", "x1": "OTHER"}


@pytest.mark.parametrize("perm_mult,perm_add,n", [(7, 3, 41)])
def test_tarjan_affine_permutation_cycles(perm_mult, perm_add, n):
    """The fact-quad entity graph is the affine permutation
    x -> 7x+3 (mod 41): one fixed point (20) and one 40-cycle."""
    es = [(f"e{x}", f"e{(perm_mult * x + perm_add) % n}")
          for x in range(n)]
    got = _tarjan_scc(pd.DataFrame({"a": [e[0] for e in es],
                                    "b": [e[1] for e in es]}))
    sizes = got.groupby("scc_id").size().sort_values()
    assert list(sizes) == [1, 40]
    assert "e20" in set(got[got["scc_id"] == got["node"]]["node"])
