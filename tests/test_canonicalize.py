"""Canonicalization: per-block linking of unresolved surfaces, its
independence from block and batch composition, the star-forest identity
that lets it skip a global union-find, the linker's bounded memo, and
block-split invariance of the dedup combiner (FIXTURES.md 'block-split
min-ID associativity')."""

import random

import numpy as np
import pyarrow as pa

from fcrepo3_rdf_extractor_ray.schema import quads_table
from fcrepo3_rdf_extractor_ray.sources.pages import build_alias_table
from fcrepo3_rdf_extractor_ray.stages.canonicalize import (
    AliasLinkStage,
    resolve_quads,
)


def union_find_min_id(pairs: list[tuple[str, str]]) -> dict[str, str]:
    """Reference min-ID cluster resolution over bipartite (norm,
    candidate) edges: two norms merge when they share a candidate id, and
    a cluster's label is its lexicographically least candidate."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for norm, cand in pairs:
        ra, rb = find("n\x00" + norm), find("c\x00" + cand)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    best: dict[str, str] = {}
    for _, cand in pairs:
        r = find("c\x00" + cand)
        best[r] = min(best.get(r, cand), cand)
    return {norm: best[find("n\x00" + norm)] for norm, _ in pairs}


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


# a repetitive surface: one more character barely moves its trigram
# embedding, so NEAR_MISS is a dictionary miss with cosine ≥ 0.99
NEAR = "xyz" * 6
NEAR_MISS = NEAR + "x"


def _alias_with_near():
    """The engine's alias table plus NEAR → ent:xyz, whose embedding is
    NEAR's own surface embedding."""
    alias = build_alias_table()
    emb = AliasLinkStage._surface_embedding(NEAR).astype(np.float32)
    extra = pa.table({"surface": [NEAR], "entity_id": ["ent:xyz"],
                      "embedding": pa.array([emb.tolist()],
                                            alias.schema.field("embedding")
                                            .type)})
    return pa.concat_tables([alias, extra])


VOCAB = ([f"entity{i}" for i in range(30)]             # alias hits
         + [f"theentity{i}" for i in range(0, 30, 3)]  # second aliases
         + [f"widget{i}" for i in range(25)]           # skolem misses
         + [NEAR_MISS])                                # embedding match


def test_alias_link_embedding_fallback():
    """Unlisted surfaces fall back to embedding-cosine match when within
    threshold, else skolemize (the alias-dict + embedding entity-linking
    contract)."""
    alias = build_alias_table()
    # threshold -1: nearest alias always wins → deterministic non-skolem
    out = AliasLinkStage(alias, emb_threshold=-1.0)(["zzzunknownsurface"])
    assert out[0].startswith("ent:e")  # linked via embedding, not skolem
    # threshold 2.0 (unreachable): always skolemize
    stage2 = AliasLinkStage(alias, emb_threshold=2.0)
    assert list(stage2(["zzzunknownsurface"])) == ["ent:sk:zzzunknownsurface"]
    # exact dictionary hit beats both
    assert list(stage2(["entity7"])) == ["ent:e7"]
    # the default threshold: the near miss links, an unrelated miss does not
    link = AliasLinkStage(_alias_with_near())
    assert list(link([NEAR_MISS, "widget3"])) == ["ent:xyz",
                                                  "ent:sk:widget3"]
    # an empty alias table skolemizes everything
    empty = AliasLinkStage(build_alias_table().slice(0, 0))
    assert list(empty(["alpha"])) == ["ent:sk:alpha"]


def test_norm_links_alike_alone_mixed_and_across_blocks():
    """A norm's IRI does not depend on the batch it is linked in: alone
    (fresh linker each), in one mixed batch, and spread over shuffled
    blocks through one memoizing linker — and resolve_quads gives every
    row that IRI whether the quads come in 1 block or 7."""
    import ray.data as rd

    alias = _alias_with_near()
    alone = {n: AliasLinkStage(alias)([n])[0] for n in VOCAB}
    assert alone["theentity3"] == alone["entity3"] == "ent:e3"
    assert alone["widget4"] == "ent:sk:widget4"
    assert alone[NEAR_MISS] == "ent:xyz"
    mixed = AliasLinkStage(alias)(VOCAB)
    assert dict(zip(VOCAB, mixed)) == alone
    rng = random.Random(5)
    link = AliasLinkStage(alias)
    for _ in range(3):
        order = VOCAB[:]
        rng.shuffle(order)
        for i in range(0, len(order), 9):
            block = order[i:i + 9]
            assert dict(zip(block, link(block))) == {n: alone[n]
                                                     for n in block}

    n = 400
    subj = [f"surf:{rng.choice(VOCAB)}" for _ in range(n)]
    obj = [f"surf:{rng.choice(VOCAB)}" if rng.random() < 0.7 else "lit"
           for _ in range(n)]
    t = quads_table(["g"] * n, subj, ["kg:p"] * n, obj,
                    [o == "lit" for o in obj], [""] * n,
                    [f"u{i}" for i in range(n)])
    want = [(alone[s[5:]], alone[o[5:]] if o != "lit" else "lit", u)
            for s, o, u in zip(subj, obj, t["src_url"].to_pylist())]
    for blocks in (1, 7):
        cuts = [i * n // blocks for i in range(blocks + 1)]
        ds = rd.from_arrow([t.slice(a, b - a)
                            for a, b in zip(cuts, cuts[1:])])
        got = sorted((r["subj"], r["obj"], r["src_url"])
                     for r in resolve_quads(ds, alias).take_all())
        assert got == sorted(want)


def test_linker_labels_are_the_union_find_labels(sf_dir):
    """Each norm gets exactly one candidate, so the (norm, candidate)
    graph is a star forest and min-ID union-find over the linker's own
    pairs returns the linker's labels: per-block linking needs no global
    map. Checked on the real corpus's norms plus the seeded vocabulary."""
    import pyarrow.compute as pc

    from fcrepo3_rdf_extractor_ray.pipelines.kg import pages_for_sf
    from fcrepo3_rdf_extractor_ray.stages.extract import extract_quads_batch

    raw = pages_for_sf(sf_dir).map_batches(extract_quads_batch,
                                           batch_format="pyarrow")
    norms = set(VOCAB)
    for t in raw.iter_batches(batch_format="pyarrow", batch_size=None):
        for col in ("subj", "obj"):
            c = t[col].filter(pc.starts_with(t[col], "surf:"))
            norms.update(v[5:] for v in c.to_pylist())
    norms = sorted(norms)
    assert len(norms) > len(VOCAB)
    labels = AliasLinkStage(_alias_with_near())(norms)
    pairs = list(zip(norms, labels))
    assert union_find_min_id(pairs) == dict(pairs)


def test_norm_memo_stays_under_cap(monkeypatch):
    """The per-worker norm → IRI memo never holds more than its cap,
    whether new norms arrive a few at a time or more than the cap at
    once, and a cleared memo still links correctly."""
    from fcrepo3_rdf_extractor_ray.stages import canonicalize

    alias = build_alias_table()
    want = dict(zip(VOCAB, AliasLinkStage(alias)(VOCAB)))
    monkeypatch.setattr(canonicalize, "LINK_MEMO_CAP", 10)
    link = AliasLinkStage(alias)
    for i in range(0, len(VOCAB), 4):
        block = VOCAB[i:i + 4]
        assert list(link(block)) == [want[n] for n in block]
        assert 0 < len(link.memo) <= 10
    assert list(link(VOCAB)) == [want[n] for n in VOCAB]  # 66 new > cap
    assert len(link.memo) <= 10


def test_worker_linker_builds_once_per_alias_ref():
    import ray

    from fcrepo3_rdf_extractor_ray.stages.canonicalize import worker_linker

    ref = ray.put(build_alias_table())
    first = worker_linker(ref)
    assert worker_linker(ref) is first
    other = worker_linker(ray.put(build_alias_table()))
    assert other is not first and worker_linker(ref) is not first


def _raw_quads():
    rows = [
        ("g", "surf:entity7", "kg:worksWith", "surf:theentity7", False, "", "u1"),
        ("g", "surf:widget3", "kg:acquired", "surf:entity7", False, "", "u2"),
        ("g", "iri:s", "kg:basedIn", "lit", True, "", "u3"),  # untouched
    ] * 5  # duplicates across batches exercise the distinct path
    return quads_table(*zip(*rows))


def test_resolve_links_surfaces_per_block():
    import ray.data as rd

    ds = rd.from_arrow(_raw_quads()).repartition(3)
    a = resolve_quads(ds, build_alias_table()).take_all()
    assert {(r["subj"], r["obj"]) for r in a} == {
        ("ent:e7", "ent:e7"),          # second alias → the same entity
        ("ent:sk:widget3", "ent:e7"),
        ("iri:s", "lit")}
    # untouched rows pass through unchanged
    assert sum(r["obj"] == "lit" and r["obj_is_literal"] for r in a) == 5


def test_union_find_dataset_matches_driver():
    """The distributed iterate-to-fixpoint min-label propagation must
    agree with the reference union-find on multi-hop clusters."""
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
