"""Canonicalization shuffle: union-find min-ID semantics, broadcast vs
join resolution equivalence, salt-split associativity (FIXTURES.md
'salt-split min-ID associativity')."""

import pyarrow as pa

from fcrepo3_rdf_extractor_ray.schema import quads_table
from fcrepo3_rdf_extractor_ray.sources.pages import build_alias_table
from fcrepo3_rdf_extractor_ray.stages.canonicalize import (
    build_entity_map,
    resolve_quads,
    resolve_quads_join,
    union_find_min_id,
)


def test_union_find_min_id_merges_shared_candidates():
    pairs = [
        ("entity7", "ent:e7"),
        ("theentity7", "ent:e7"),     # distinct norm, same candidate → merge
        ("widget3", "ent:sk:widget3"),
        ("acme", "ent:e2"),
        ("acmecorp", "ent:e2"),
        ("acmecorp", "ent:e1"),       # ambiguous alias → min-ID wins for cluster
    ]
    out = union_find_min_id(pairs)
    assert out["entity7"] == "ent:e7"
    assert out["theentity7"] == "ent:e7"
    assert out["widget3"] == "ent:sk:widget3"
    # acme ~ acmecorp share ent:e2; acmecorp also linked to ent:e1 →
    # whole cluster resolves to the min id ent:e1
    assert out["acme"] == "ent:e1"
    assert out["acmecorp"] == "ent:e1"


def _raw_quads():
    rows = [
        ("g", "surf:entity7", "kg:worksWith", "surf:theentity7", False, "", "u1"),
        ("g", "surf:widget3", "kg:acquired", "surf:entity7", False, "", "u2"),
        ("g", "iri:s", "kg:basedIn", "lit", True, "", "u3"),  # untouched
    ] * 5  # duplicates across batches exercise the distinct path
    return quads_table(*zip(*rows))


def test_build_map_and_resolve_broadcast_vs_join():
    import ray.data as rd

    ds = rd.from_arrow(_raw_quads()).repartition(3)
    mapping = build_entity_map(ds, build_alias_table(), n_salts=2)
    assert mapping["entity7"] == "ent:e7"
    assert mapping["theentity7"] == "ent:e7"  # cross-key union-find merge
    assert mapping["widget3"] == "ent:sk:widget3"

    a = resolve_quads(ds, mapping).take_all()
    b = resolve_quads_join(ds, mapping, num_partitions=2).take_all()
    key = lambda r: tuple(sorted(r.items()))
    assert sorted(map(key, a)) == sorted(map(key, b))
    subs = {r["subj"] for r in a}
    assert subs == {"ent:e7", "ent:sk:widget3", "iri:s"}
    # untouched rows pass through unchanged
    assert any(r["obj"] == "lit" and r["obj_is_literal"] for r in a)


def test_alias_link_embedding_fallback():
    """Unlisted surfaces fall back to embedding-cosine match when within
    threshold, else skolemize (the alias-dict + embedding entity-linking
    contract)."""
    import ray

    from fcrepo3_rdf_extractor_ray.stages.canonicalize import AliasLinkStage

    alias_ref = ray.put(build_alias_table())
    # threshold -1: nearest alias always wins → deterministic non-skolem
    stage = AliasLinkStage(alias_ref, emb_threshold=-1.0)
    t = pa.table({"norm": pa.array(["zzzunknownsurface"], pa.string())})
    out = stage(t)["candidate_id"].to_pylist()
    assert out[0].startswith("ent:e")  # linked via embedding, not skolem
    # threshold 2.0 (unreachable): always skolemize
    stage2 = AliasLinkStage(alias_ref, emb_threshold=2.0)
    out2 = stage2(t)["candidate_id"].to_pylist()
    assert out2[0] == "ent:sk:zzzunknownsurface"
    # exact dictionary hit beats both
    t3 = pa.table({"norm": pa.array(["entity7"], pa.string())})
    assert stage2(t3)["candidate_id"].to_pylist() == ["ent:e7"]


def test_union_find_dataset_matches_driver():
    """The distributed iterate-to-fixpoint min-label propagation must
    agree with the driver-side union-find on multi-hop clusters."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.canonicalize import (
        union_find_min_id_dataset)

    pairs = [
        ("entity7", "ent:e7"),
        ("theentity7", "ent:e7"),
        ("widget3", "ent:sk:widget3"),
        ("acme", "ent:e2"),
        ("acmecorp", "ent:e2"),
        ("acmecorp", "ent:e1"),
        # 3-hop chain: x~c9, y~c9, y~c8, z~c8 → all resolve to ent:c8
        ("x", "ent:c9"), ("y", "ent:c9"), ("y", "ent:c8"), ("z", "ent:c8"),
    ]
    want = union_find_min_id(pairs)
    edges = rd.from_items(
        [{"norm": n, "candidate_id": c} for n, c in pairs]).repartition(3)
    got = union_find_min_id_dataset(edges)
    assert got == want
    assert got["x"] == "ent:c8" and got["z"] == "ent:c8"


def test_salt_split_invariance():
    """Result must not depend on how the input is split into blocks (the
    per-block combiner's min/sum are associative)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.dedup import dedup_quads

    outs = []
    for n_blocks in (1, 4):
        ds = rd.from_arrow(_raw_quads()).repartition(n_blocks)
        rows = dedup_quads(ds).take_all()
        outs.append(sorted(tuple(sorted(r.items())) for r in rows))
    assert outs[0] == outs[1]
    # 3 distinct quads, each repeated 5× → n_src == 5
    assert len(outs[0]) == 3
    assert all(dict(r)["n_src"] == 5 for r in outs[0])


def test_dataset_entity_map_path_matches_driver_dict(sf_dir):
    """The fully-driver-free path (build_entity_map_ds →
    resolve_quads_join_ds, no take_all anywhere) must produce the same
    quad set as the broadcast-dict path."""
    from fcrepo3_rdf_extractor_ray.pipelines.kg import pages_for_sf
    from fcrepo3_rdf_extractor_ray.sources.pages import build_alias_table
    from fcrepo3_rdf_extractor_ray.stages.canonicalize import (
        build_entity_map, build_entity_map_ds, resolve_quads,
        resolve_quads_join_ds)
    from fcrepo3_rdf_extractor_ray.stages.extract import extract_quads_batch

    raw = pages_for_sf(sf_dir).map_batches(
        extract_quads_batch, batch_format="pyarrow").materialize()
    alias = build_alias_table()

    mapping = build_entity_map(raw, alias)
    want = resolve_quads(raw, mapping).take_all()

    mapping_ds = build_entity_map_ds(raw, alias)
    got = resolve_quads_join_ds(raw, mapping_ds).take_all()

    key = lambda r: tuple(sorted(r.items()))
    assert sorted(map(key, got)) == sorted(map(key, want))
