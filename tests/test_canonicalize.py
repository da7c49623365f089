"""Canonicalization shuffle: union-find min-ID semantics, equivalence of
the driver-dict (broadcast) and Dataset (join) routes of the one
entity-map build, and block-split invariance of the per-block combiner
(FIXTURES.md 'block-split min-ID associativity')."""

import pyarrow as pa

from fcrepo3_rdf_extractor_ray.schema import quads_table
from fcrepo3_rdf_extractor_ray.sources.pages import build_alias_table
from fcrepo3_rdf_extractor_ray.stages.canonicalize import (
    build_entity_map,
    resolve_quads,
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
    mapping = build_entity_map(ds, build_alias_table())
    assert isinstance(mapping, dict)
    assert mapping["entity7"] == "ent:e7"
    assert mapping["theentity7"] == "ent:e7"  # cross-key union-find merge
    assert mapping["widget3"] == "ent:sk:widget3"

    a = resolve_quads(ds, mapping).take_all()
    # threshold 0: the same build takes its Dataset route, resolved by join
    mapping_ds = build_entity_map(ds, build_alias_table(),
                                  driver_link_threshold=0)
    assert not isinstance(mapping_ds, dict)
    b = resolve_quads(ds, mapping_ds).take_all()
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
        union_find_labels_ds)

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
    got = {r["norm"]: r["label"]
           for r in union_find_labels_ds(edges).take_all()}
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
    """The fully-driver-free route (build_entity_map above its threshold
    → join resolve, no take_all anywhere) must produce the same quad set
    as the broadcast-dict route."""
    from fcrepo3_rdf_extractor_ray.pipelines.kg import pages_for_sf
    from fcrepo3_rdf_extractor_ray.sources.pages import build_alias_table
    from fcrepo3_rdf_extractor_ray.stages.extract import extract_quads_batch

    raw = pages_for_sf(sf_dir).map_batches(
        extract_quads_batch, batch_format="pyarrow").materialize()
    alias = build_alias_table()

    mapping = build_entity_map(raw, alias)
    want = resolve_quads(raw, mapping).take_all()

    mapping_ds = build_entity_map(raw, alias, driver_link_threshold=0)
    assert not isinstance(mapping_ds, dict)
    got = resolve_quads(raw, mapping_ds).take_all()

    key = lambda r: tuple(sorted(r.items()))
    assert sorted(map(key, got)) == sorted(map(key, want))


def _norm_quads(seed: int, n_blocks: int, per_block: int,
                vocab: list[str]) -> "pa.Table":
    """Seeded raw quads whose subj/obj are surfaces drawn from ``vocab``
    (alias hits, second aliases and misses), in ``n_blocks`` blocks."""
    import random

    rng = random.Random(seed)
    n = n_blocks * per_block
    subj = [f"surf:{rng.choice(vocab)}" for _ in range(n)]
    obj = [f"surf:{rng.choice(vocab)}" if rng.random() < 0.7 else "lit"
           for _ in range(n)]
    return quads_table(["g"] * n, subj, ["kg:p"] * n, obj,
                       [o == "lit" for o in obj], [""] * n,
                       [f"u{i}" for i in range(n)])


def _blocks(t, n_blocks):
    import ray.data as rd

    per = t.num_rows // n_blocks
    return rd.from_arrow([t.slice(i * per, per) for i in range(n_blocks)])


def test_fold_map_equals_dataset_route():
    """The driver fold's dict and the exchange route's (norm, label)
    Dataset agree entry for entry on a seeded multi-block input."""
    vocab = ([f"entity{i}" for i in range(30)]
             + [f"theentity{i}" for i in range(0, 30, 3)]
             + [f"widget{i}" for i in range(25)])
    ds = _blocks(_norm_quads(11, 12, 40, vocab), 12)
    alias = build_alias_table()
    got = build_entity_map(ds, alias)
    assert isinstance(got, dict) and len(got) > 40
    mapping_ds = build_entity_map(ds, alias, driver_link_threshold=0)
    assert not isinstance(mapping_ds, dict)
    want = {r["norm"]: r["label"] for r in mapping_ds.take_all()}
    assert got == want


def test_driver_route_never_calls_unique_norms(monkeypatch):
    from fcrepo3_rdf_extractor_ray.stages import canonicalize

    def forbidden(*args, **kwargs):
        raise AssertionError("the driver route must not run the exchange")

    monkeypatch.setattr(canonicalize, "unique_norms", forbidden)
    mapping = build_entity_map(_blocks(_raw_quads(), 3), build_alias_table())
    assert mapping["theentity7"] == "ent:e7"


def test_fold_exits_early_with_bounded_driver_rows(monkeypatch):
    """More distinct norms than the threshold, spread over many blocks:
    the fold stops once it passes the threshold, having pulled no more
    than threshold + one block's distinct norms to the driver, and the
    map takes the Dataset route."""
    from ray.data import Dataset

    from fcrepo3_rdf_extractor_ray.stages import canonicalize

    n_blocks, per_block, threshold = 20, 10, 25
    # block i holds norms n{i}_0 .. n{i}_9 only: 200 distinct in all
    vocab = [f"n{i}_{j}" for i in range(n_blocks) for j in range(per_block)]
    t = quads_table(["g"] * len(vocab), [f"surf:{v}" for v in vocab],
                    ["kg:p"] * len(vocab), ["lit"] * len(vocab),
                    [True] * len(vocab), [""] * len(vocab),
                    ["u"] * len(vocab))
    ds = _blocks(t, n_blocks)
    pulled = []
    iter_batches = Dataset.iter_batches

    def counting(self, *args, **kwargs):
        for b in iter_batches(self, *args, **kwargs):
            pulled.append(b.num_rows)
            yield b

    monkeypatch.setattr(Dataset, "iter_batches", counting)
    assert canonicalize._fold_norms(ds, threshold) is None
    assert sum(pulled) <= threshold + max(pulled)
    assert sum(pulled) < len(vocab)  # stopped early
    monkeypatch.undo()
    mapping = build_entity_map(ds, build_alias_table(),
                               driver_link_threshold=threshold)
    assert not isinstance(mapping, dict)
    assert mapping.count() == len(vocab)


def test_threshold_edge_cases_keep_routing():
    """-1: Dataset route even on empty input; 0: Dataset route on any
    non-empty input (an empty one gives an empty dict); exactly at the
    threshold: dict; one below: Dataset."""
    import ray.data as rd

    alias = build_alias_table()
    empty = rd.from_arrow(_raw_quads().slice(0, 0))
    assert not isinstance(build_entity_map(empty, alias, -1), dict)
    assert build_entity_map(empty, alias, 0) == {}
    ds = _blocks(_raw_quads(), 3)
    assert not isinstance(build_entity_map(ds, alias, 0), dict)
    n = len(build_entity_map(ds, alias))
    assert n == 3  # entity7, theentity7, widget3
    at = build_entity_map(ds, alias, n)
    assert isinstance(at, dict) and len(at) == n
    assert not isinstance(build_entity_map(ds, alias, n - 1), dict)
