"""The five neighbour-pair algorithms (`triangle_count`,
`neighborhood_jaccard`, `two_hop_scores`, `resource_alloc_scores`,
`clustering_coefficients`) share one wedge pass; each must equal a
pure-Python neighbour-set reference on seeded random oriented graphs
with a planted K4, a duplicate edge and an isolated edge, and on the
empty edge set."""

from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

SCALE = 1_000_000_000


def _graph(seed: int) -> list[tuple[str, str]]:
    rng = np.random.RandomState(seed)
    nodes = [f"n{i:02d}" for i in range(26)]
    es = {tuple(sorted(map(str, rng.choice(nodes, 2, replace=False))))
          for _ in range(55)}
    es |= set(combinations(["k0", "k1", "k2", "k3"], 2))  # planted K4
    es.add(("iso_a", "iso_b"))  # isolated edge
    es = sorted(es)
    return es + [es[seed]]  # one duplicate edge


def _reference(edges):
    es = sorted(set(edges))
    eset = set(es)
    nb: dict = {}
    for a, b in es:
        nb.setdefault(a, set()).add(b)
        nb.setdefault(b, set()).add(a)
    tri_of = {x: sum(1 for y, z in combinations(sorted(nb[x]), 2)
                     if (y, z) in eset) for x in nb}
    n_tri = sum(1 for a, b in es for c in nb
                if b < c and (a, c) in eset and (b, c) in eset)
    jac = set()
    for a, b in es:
        cn = len(nb[a] & nb[b])
        den = len(nb[a]) + len(nb[b]) - cn
        jac.add((a, b, cn, (1_000_000 * cn) // den if den > 0 else 0))
    two_hop, ra = set(), set()
    for v, w in combinations(sorted(nb), 2):
        common = nb[v] & nb[w]
        if (v, w) in eset or not common:
            continue
        two_hop.add((v, w, len(common)))
        ra.add((v, w, len(common),
                sum(SCALE // len(nb[z]) for z in common)))
    cc = set()
    for x in nb:
        d, t = len(nb[x]), tri_of[x]
        cc.add((x, d, t, (2_000_000 * t) // (d * (d - 1)) if d > 1 else 0))
    return n_tri, jac, two_hop, ra, cc


def _rows(res, cols):
    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    if not len(df):
        return set()
    return set(df[cols].itertuples(index=False, name=None))


@pytest.mark.parametrize("seed", [0, 1, 2, None])
def test_pair_family_matches_neighbour_sets(ray_session, seed):
    from fcrepo3_rdf_extractor_ray.stages.graph import (
        clustering_coefficients, neighborhood_jaccard, resource_alloc_scores,
        triangle_count, two_hop_scores)

    edges = [] if seed is None else _graph(seed)
    n_tri, jac, two_hop, ra, cc = _reference(edges)
    if edges:
        assert n_tri >= 4 and ("iso_a", "iso_b", 0, 0) in jac

    def ds():
        t = pa.table({"norm_a": pa.array([a for a, _ in edges], pa.string()),
                      "norm_b": pa.array([b for _, b in edges], pa.string())})
        return rd.from_arrow(t).repartition(3)

    got = triangle_count(ds())
    assert list(got.columns) == ["n_triangles"]
    assert int(got["n_triangles"].iloc[0]) == n_tri
    assert _rows(neighborhood_jaccard(ds()), [
        "norm_a", "norm_b", "common_neighbors", "jaccard_micro"]) == jac
    assert _rows(two_hop_scores(ds()),
                 ["norm_a", "norm_b", "n_common"]) == two_hop
    assert _rows(resource_alloc_scores(ds(), weight_scale=SCALE), [
        "norm_a", "norm_b", "n_common", "ra_score"]) == ra
    assert _rows(clustering_coefficients(ds()),
                 ["node", "degree", "n_tri", "cc_micro"]) == cc
