"""Round-4 additions: exact SQL replays for the two formerly rows-only
sketches (md5-family MinHash clustering, md5-family HyperLogLog) plus
unit properties of the new md5-31 MinHash primitives."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _compare(result, duck, sql, sort_cols):
    got = result if isinstance(result, pd.DataFrame) else result.to_pandas()
    want = duck.execute(sql).df()
    g = got.sort_values(sort_cols).reset_index(drop=True)
    w = want.sort_values(sort_cols).reset_index(drop=True)
    assert list(g.columns) == list(w.columns)
    assert len(g) == len(w) and len(g) > 0
    for c in g.columns:
        assert g[c].astype(str).equals(w[c].astype(str)), c


@pytest.fixture(scope="module")
def entry():
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as em

    return em


@pytest.mark.parametrize("name,sort_cols", [
    ("web_host_stats", ["host"]),
    ("kg_two_hop", ["norm_a", "norm_b"]),
    ("kg_label_prop", ["node"]),
    ("mm_audio_zcr", ["item_id", "window_no"]),
    ("web_anchor_links", ["src_host", "dst_host"]),
    ("web_crawl_diff", ["url"]),
    ("kg_resource_alloc", ["norm_a", "norm_b"]),
    ("web_host_rank", ["host"]),
    ("web_host_quality", ["host"]),
    ("kg_scc", ["node"]),
    ("kg_bowtie", ["node"]),
    ("web_redirect_resolve", ["url"]),
    ("web_outlink_stats", ["doc_id"]),
    ("kg_hits", ["node"]),
    ("ta_lm_score", ["doc_id"]),
    ("ta_segment_dedup", ["doc_id"]),
    ("kg_trustrank", ["node"]),
    ("web_anchor_texts", ["url"]),
    ("ta_gopher", ["doc_id"]),
    ("kg_fact_support", ["subj", "pred", "obj"]),
    ("web_host_cap", ["doc_id"]),
    ("ta_lm_buckets", ["doc_id"]),
    ("kg_walks", ["start", "step"]),
    ("prep_mix_report", ["host", "tile"]),
])
def test_round4_new_ops_oracle_exact(entry, sf_dir, duck, ray_session,
                                     name, sort_cols):
    _compare(entry.queries()[name](sf_dir), duck,
             entry.oracle_sql()[name], sort_cols)


def test_two_hop_pairs_are_non_edges(ray_session):
    """Property: two_hop pairs are exactly the non-adjacent pairs with a
    common neighbor (checked against brute force on a random graph)."""
    import itertools

    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import two_hop_scores

    rng = np.random.RandomState(5)
    nodes = [f"n{i:02d}" for i in range(20)]
    edges = sorted({tuple(sorted(rng.choice(nodes, 2, replace=False)))
                    for _ in range(40)})
    t = pa.table({"norm_a": [e[0] for e in edges],
                  "norm_b": [e[1] for e in edges]})
    got = {(r.norm_a, r.norm_b): r.n_common
           for r in two_hop_scores(rd.from_arrow(t).repartition(3))
           .to_pandas().itertuples()}
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {}
    for a, b in itertools.combinations(sorted(adj), 2):
        if b in adj[a]:
            continue
        cn = len(adj[a] & adj[b])
        if cn:
            want[(a, b)] = cn
    assert got == want


def test_resource_alloc_matches_brute_force(ray_session):
    """Property: RA scores equal the brute-force Σ 1e9//deg(z) over
    common neighbors of non-adjacent pairs on a random graph."""
    import itertools

    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import resource_alloc_scores

    rng = np.random.RandomState(11)
    nodes = [f"n{i:02d}" for i in range(20)]
    edges = sorted({tuple(sorted(rng.choice(nodes, 2, replace=False)))
                    for _ in range(45)})
    t = pa.table({"norm_a": [e[0] for e in edges],
                  "norm_b": [e[1] for e in edges]})
    got = {(r.norm_a, r.norm_b): (r.n_common, r.ra_score)
           for r in resource_alloc_scores(rd.from_arrow(t).repartition(3))
           .to_pandas().itertuples()}
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {}
    for a, b in itertools.combinations(sorted(adj), 2):
        if b in adj[a]:
            continue
        common = adj[a] & adj[b]
        if common:
            want[(a, b)] = (len(common),
                            sum(1_000_000_000 // len(adj[z])
                                for z in common))
    assert got == want


def test_label_prop_converges_to_components(ray_session):
    """Property: with rounds ≥ diameter, min-label propagation labels a
    path graph entirely with its minimum node."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import (
        label_prop_communities)

    path = [(f"p{i:02d}", f"p{i + 1:02d}") for i in range(6)]
    t = pa.table({"norm_a": [e[0] for e in path],
                  "norm_b": [e[1] for e in path]})
    out = label_prop_communities(rd.from_arrow(t), rounds=6).to_pandas()
    assert set(out["community"]) == {"p00"}
    # bounded rounds: after 1 round an endpoint 3 hops away keeps a
    # larger label (Jacobi semantics, not fixpoint)
    out1 = label_prop_communities(rd.from_arrow(t), rounds=1).to_pandas()
    lbl = dict(zip(out1["node"], out1["community"]))
    assert lbl["p06"] == "p05" and lbl["p01"] == "p00"


def test_dedup_minhash_oracle_exact(entry, sf_dir, duck, ray_session):
    _compare(entry.queries()["dedup_minhash"](sf_dir), duck,
             entry.oracle_sql()["dedup_minhash"], ["doc_id"])


def test_rel_approx_distinct_oracle_exact(entry, sf_dir, duck, ray_session):
    _compare(entry.queries()["rel_approx_distinct"](sf_dir), duck,
             entry.oracle_sql()["rel_approx_distinct"], ["event_type"])


def test_hll_md5_accuracy(sf_dir, duck, ray_session):
    """The md5-family HLL stays within the p=12 error bound of the
    exact distinct counts."""
    from fcrepo3_rdf_extractor_ray.pipelines.relational import (
        approx_distinct_users)

    got = approx_distinct_users(sf_dir).to_pandas().set_index("event_type")
    exact = duck.execute(
        "SELECT event_type, count(DISTINCT user_id) AS n "
        "FROM events GROUP BY 1").df().set_index("event_type")
    for ty, n in exact["n"].items():
        est = got.loc[ty, "n_users_approx"]
        assert abs(est - n) <= max(3, 0.05 * n), (ty, est, n)


def test_md5_minhash_signature_properties():
    from fcrepo3_rdf_extractor_ray.functions.hashing import (
        _M31, md5_minhash_signature, word_shingles)

    toks = "the quick brown fox jumps over the lazy dog".split()
    sh = word_shingles(toks)
    assert len(sh) == len(set(sh)) == len(toks) - 2
    sig = md5_minhash_signature(sh, 64)
    assert sig.shape == (64,) and (sig < _M31).all()
    # deterministic + memo-independent
    memo = {}
    sig2 = md5_minhash_signature(sh, 64, memo=memo)
    assert (sig == sig2).all() and len(memo) == len(sh)
    # identical docs → identical signatures; empty doc → sentinel
    assert (md5_minhash_signature(word_shingles(toks), 64) == sig).all()
    assert (md5_minhash_signature([], 64) == _M31).all()
    # short docs: one full-join shingle
    assert word_shingles(["a", "b"]) == ["a b"]
    assert word_shingles([]) == []


def test_minhash_md5_planted_dups(ray_session):
    """Planted near-dups cluster together under the md5 family; both
    routing paths (driver union-find and the Dataset-native min-label)
    agree."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.dedup import (
        minhash_clusters, minhash_clusters_ds)

    rng = np.random.RandomState(13)
    vocab = [f"w{i}" for i in range(500)]
    base = [" ".join(rng.choice(vocab, size=60)) for _ in range(20)]
    texts, ids = [], []
    for i, b in enumerate(base):
        texts.append(b)
        ids.append(2 * i)
        toks = b.split()
        toks[5] = "changed"  # near-dup: one token differs
        texts.append(" ".join(toks))
        ids.append(2 * i + 1)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    ds = rd.from_arrow(t).repartition(3)
    cl = minhash_clusters(ds, threshold=0.5, hash_family="md5")
    got = dict(zip(cl["doc_id"], cl["cluster_id"]))
    # every planted pair lands in one cluster
    paired = sum(1 for i in range(20)
                 if got.get(2 * i) is not None
                 and got.get(2 * i) == got.get(2 * i + 1))
    assert paired >= 18  # LSH recall: allow <=2 misses at 16 bands
    ds_cl = (minhash_clusters_ds(ds, threshold=0.5, hash_family="md5")
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    drv = cl.sort_values("doc_id").reset_index(drop=True)
    assert ds_cl.astype("int64").equals(drv.astype("int64"))


def test_segment_dedup_window_tail(ray_session):
    """25 tokens -> segments of 10/10/5; the repeated first segment is
    flagged corpus-wide, the unique tail is not."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import (
        segment_dedup_profile)

    seg = " ".join(f"t{i}" for i in range(10))
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            seg + " " + seg + " u0 u1 u2 u3 u4",  # 25 tokens, segs dup
            seg,                                   # exact dup of seg
            "lone words only here",                # unique, 1 segment
        ], pa.string())}))
    got = {r["doc_id"]: r for r in
           segment_dedup_profile(docs, window=10).take_all()}
    assert got[1]["n_segments"] == 3 and got[1]["dup_segments"] == 2
    assert got[1]["dup_permille"] == 666
    assert got[2]["n_segments"] == 1 and got[2]["dup_segments"] == 1
    assert got[3]["dup_segments"] == 0


def test_unigram_lm_floor_mean(ray_session):
    """corpus freq: 'a'x3, 'b'x2, 'c'x1 -> doc1 (a b) sum 5 avg 2;
    zero-token doc absent."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import (
        unigram_lm_scores)

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["a b", "a a b c", "  "], pa.string())}))
    got = {r["doc_id"]: r for r in unigram_lm_scores(docs).take_all()}
    assert set(got) == {1, 2}
    assert got[1]["n_tokens"] == 2 and got[1]["sum_freq"] == 5
    assert got[1]["avg_freq"] == 2
    assert got[2]["sum_freq"] == 3 + 3 + 2 + 1 and got[2]["avg_freq"] == 2


def test_gopher_filter_bits(ray_session):
    """Each rule trips its own bit on a crafted doc."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import gopher_filter

    good = "the quick brown fox and a dog of note " + " ".join(
        f"w{i}" for i in range(30))
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(5)), pa.int64()),
        "text": pa.array([
            good,                                # keeps
            "the and of a",                      # too short (bit 1)
            "the " + " ".join(f"t{i}" for i in range(95)),  # too long
            "the the the the the " * 5,          # low ttr + repetitive
            " ".join(f"u{i}" for i in range(25)),  # no stopwords
        ], pa.string())}))
    got = {r["doc_id"]: r for r in gopher_filter(docs).take_all()}
    assert got[0]["keep"] == 1 and got[0]["reject_mask"] == 0
    assert got[1]["reject_mask"] & 1
    assert got[2]["reject_mask"] & 2
    assert got[3]["reject_mask"] & 4 and got[3]["reject_mask"] & 16
    assert got[4]["reject_mask"] & 8 and got[4]["keep"] == 0


def test_fact_support_fusion(ray_session):
    """Repeated assertions collapse correctly: per-fact assertion count,
    distinct supporting pages, lexicographic first/last source."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import fact_support

    rows = [
        ("e1", "kg:knows", "e2", "u://a"),
        ("e1", "kg:knows", "e2", "u://a"),   # same page asserts twice
        ("e1", "kg:knows", "e2", "u://c"),
        ("e1", "kg:knows", "e2", "u://b"),
        ("e3", "kg:knows", "e4", "u://z"),
    ]
    t = pa.table({
        "subj": pa.array([r[0] for r in rows]),
        "pred": pa.array([r[1] for r in rows]),
        "obj": pa.array([r[2] for r in rows]),
        "src_url": pa.array([r[3] for r in rows])})
    got = {(r["subj"], r["obj"]): r for r in
           fact_support(rd.from_arrow(t).repartition(3)).take_all()}
    f = got[("e1", "e2")]
    assert f["n_assertions"] == 4 and f["n_pages"] == 3
    assert f["first_src"] == "u://a" and f["last_src"] == "u://c"
    g = got[("e3", "e4")]
    assert g["n_assertions"] == g["n_pages"] == 1


def test_host_cap_sample_cap_and_determinism(ray_session):
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import host_cap_sample

    ids = list(range(100))
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "host": pa.array([f"h{i % 3}" for i in ids], pa.string())})
    ds = rd.from_arrow(t).repartition(4)
    a = sorted((r["host"], r["doc_id"], r["smp_rank"])
               for r in host_cap_sample(ds, k=5).take_all())
    b = sorted((r["host"], r["doc_id"], r["smp_rank"])
               for r in host_cap_sample(ds, k=5).take_all())
    assert a == b and len(a) == 15  # 3 hosts x cap 5, deterministic
    per_host: dict = {}
    for h, _, rk in a:
        per_host.setdefault(h, []).append(rk)
    assert all(sorted(v) == [1, 2, 3, 4, 5] for v in per_host.values())
    # the kept set matches the published hash order exactly
    want = sorted(ids, key=lambda i: ((i * 2654435761) % 2**32, i))
    kept_h0 = {i for h, i, _ in a if h == "h0"}
    assert kept_h0 == set([i for i in want if i % 3 == 0][:5])


def test_lm_buckets_matches_sql_ntile(sf_dir, duck, ray_session):
    """Engine NTILE over LM scores == DuckDB NTILE on the same scores
    (order: avg_freq ASC, doc_id ASC)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import lm_buckets

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    got = (lm_buckets(docs, k=4).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    want = duck.execute(r"""
WITH tk AS (
  SELECT doc_id, list_filter(regexp_split_to_array(text, '\s+'),
                             x -> x <> '') AS ts FROM documents),
tok AS (SELECT doc_id, unnest(ts) AS tok FROM tk),
v AS (SELECT tok, count(*)::BIGINT AS n FROM tok GROUP BY tok),
s AS (SELECT t.doc_id, (sum(v.n)::BIGINT // count(*)::BIGINT) AS avg_freq
      FROM tok t JOIN v USING (tok) GROUP BY t.doc_id)
SELECT doc_id, avg_freq,
       ntile(4) OVER (ORDER BY avg_freq, doc_id)::BIGINT AS tile
FROM s ORDER BY doc_id
""").df()
    assert got[["doc_id", "avg_freq", "tile"]].astype("int64").equals(
        want.astype("int64"))


def test_web_corpus_prep_oracle_exact(entry, sf_dir, duck, ray_session):
    """End-to-end prep composite (canon dedup → Gopher gate → host cap)
    vs the chained SQL replays."""
    _compare(entry.queries()["web_corpus_prep"](sf_dir), duck,
             entry.oracle_sql()["web_corpus_prep"], ["doc_id"])


def test_web_corpus_prep_is_subset_of_stages(entry, sf_dir, ray_session):
    """Composite survivors ⊆ dedup winners ∩ gopher keeps, with ≤5 docs
    per host."""
    kept = entry.queries()["web_corpus_prep"](sf_dir).to_pandas()
    winners = set(entry.queries()["web_dedup_canon"](sf_dir)
                  .to_pandas()["doc_id"])
    keeps = entry.queries()["ta_gopher"](sf_dir).to_pandas()
    keep_ids = set(keeps.loc[keeps["keep"] == 1, "doc_id"])
    assert set(kept["doc_id"]) <= (winners & keep_ids)
    assert kept.groupby("host").size().max() <= 5


@pytest.mark.parametrize("name,sort_cols", [
    ("kg_entity_lift", ["norm_a", "norm_b"]),
    ("kg_fact_current", ["subj", "pred"]),
    ("web_template", ["doc_id"]),
    ("web_link_recip", ["host"]),
    ("kg_pred_stats", ["pred"]),
    ("web_frontier", ["host", "frontier_rank"]),
    ("kg_entity_cards", ["entity"]),
    ("kg_modularity", ["community"]),
    ("prep_dataset_card", ["n_docs"]),
    ("mm_audio_pitch", ["item_id", "window_no"]),
    ("kg_clustering", ["node"]),
    ("web_dup_profile", ["cluster_size"]),
    ("kg_assortativity", ["m"]),
    ("kg_violations", ["subj", "pred"]),
])
def test_round4d_oracles_exact(entry, sf_dir, duck, ray_session,
                               name, sort_cols):
    """Late-round-4 operators (co-mention lift, temporal fact snapshot,
    per-host template shingles) vs their exact SQL replays."""
    _compare(entry.queries()[name](sf_dir), duck,
             entry.oracle_sql()[name], sort_cols)


def test_fact_current_is_latest(entry, sf_dir, ray_session):
    """Every current fact carries the max fetch time among the slot's
    assertions (cross-check against the full fact stream joined to the
    page fetch times — not just slot count/uniqueness)."""
    from fcrepo3_rdf_extractor_ray.pipelines.kg import pages_for_sf

    cur = entry.queries()["kg_fact_current"](sf_dir).to_pandas()
    facts = entry.queries()["kg_fact_quads"](sf_dir).to_pandas()
    assert len(cur) == len(facts.groupby(["subj", "pred"]))
    assert cur.groupby(["subj", "pred"]).size().max() == 1
    # recency: join each slot to the max page fetch time among its
    # assertions' source urls and demand last_ts equals it
    pages = pages_for_sf(sf_dir).to_pandas()
    url_ts = pages.groupby("url")["warc_ts"].max()
    facts = facts.assign(page_ts=facts["src_url"].map(url_ts))
    assert facts["page_ts"].notna().all()  # sf corpus: no pageless facts
    slot_max = (facts.groupby(["subj", "pred"])["page_ts"].max()
                .rename("want_ts"))
    chk = cur.merge(slot_max, left_on=["subj", "pred"], right_index=True)
    assert len(chk) == len(cur)
    assert (chk["last_ts"] == chk["want_ts"]).all()


def test_fact_current_drops_pageless_facts(ray_session):
    """CONTRACT (ADVICE r04): a fact whose src_url has no pages row is
    dropped — it cannot win a slot, and a slot asserted ONLY by
    pageless facts is absent from the snapshot (matches the oracle's
    inner join; previously this raised IntCastingNaNError)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import current_facts

    facts = rd.from_arrow(pa.table({
        "subj": ["a", "a", "b"],
        "pred": ["p", "p", "p"],
        "obj": ["old", "new", "orphan"],
        "src_url": ["u1", "u9", "u9"]}))  # u9 has no page row
    pages = rd.from_pandas(pd.DataFrame({
        "url": ["u1"],
        "warc_ts": pd.to_datetime([1_000_000], unit="us")}))
    out = current_facts(facts, pages, n_parts=2).to_pandas()
    # slot (a, p): only the paged assertion u1/"old" survives; slot
    # (b, p) is asserted solely from the pageless u9 and is absent
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["subj"], r["pred"], r["obj"], r["src_url"]) == (
        "a", "p", "old", "u1")


def test_entity_lift_bounds(entry, sf_dir, ray_session):
    """Lift is positive and pairs match the co-occurrence edge list."""
    lift = entry.queries()["kg_entity_lift"](sf_dir).to_pandas()
    co = entry.queries()["kg_cooccurrence"](sf_dir).to_pandas()
    assert (lift["lift_micro"] > 0).all()
    a = set(map(tuple, lift[["norm_a", "norm_b"]].to_numpy()))
    b = set(map(tuple, co[["norm_a", "norm_b"]].to_numpy()))
    assert a == b


def test_pred_stats_functional_and_cardinalities(ray_session):
    """Hand-built fact stream: duplicate assertions collapse into one
    triple; a predicate is functional iff no subject asserts two
    distinct objects."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import pred_stats

    t = pa.table({
        "subj": ["a", "a", "b", "a", "a", "b", "c"],
        "pred": ["p:one", "p:one", "p:one",
                 "p:multi", "p:multi", "p:multi", "p:multi"],
        "obj": ["x", "x", "x", "x", "y", "x", "x"],
    })
    got = {r["pred"]: r for r in
           pred_stats(rd.from_arrow(t).repartition(3)).take_all()}
    one, multi = got["p:one"], got["p:multi"]
    # p:one: 3 assertions, 2 triples (a-x dup), subjects {a,b}, objs {x}
    assert (one["n_assertions"], one["n_triples"], one["n_subj"],
            one["n_obj"], one["max_obj_per_subj"],
            one["is_functional"]) == (3, 2, 2, 1, 1, True)
    # p:multi: subject a asserts two objects -> not functional
    assert (multi["n_assertions"], multi["n_triples"], multi["n_subj"],
            multi["n_obj"], multi["max_obj_per_subj"],
            multi["is_functional"]) == (4, 4, 3, 2, 2, False)


def test_frontier_scores_staleness_and_cap(ray_session):
    """Stalest pages of high-rank hosts come first; a host absent from
    the rank table scores 0 but still appears; top-k is per host."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import frontier_scores

    ts = pd.to_datetime([0, 3_600_000_000 * 5, 3_600_000_000 * 10,
                         0, 3_600_000_000 * 10], unit="us")
    pages = rd.from_pandas(pd.DataFrame({
        "url": ["https://a.org/1", "https://a.org/2", "https://a.org/3",
                "https://z.org/1", "https://z.org/2"],
        "warc_ts": ts}))
    ranks = rd.from_arrow(pa.table({"host": ["a.org"],
                                    "rank_micro": [2]}))
    out = frontier_scores(pages, ranks, k=2).to_pandas()
    a = out[out["host"] == "a.org"].sort_values("frontier_rank")
    # newest fetch is hour 10; ages are 10, 5, 0 -> scores 20, 10, 0
    assert list(a["url"]) == ["https://a.org/1", "https://a.org/2"]
    assert list(a["score"]) == [20, 10]
    assert list(a["age_hours"]) == [10, 5]
    z = out[out["host"] == "z.org"].sort_values("frontier_rank")
    # unranked host: score 0, ties broken by url, still capped at k
    assert list(z["url"]) == ["https://z.org/1", "https://z.org/2"]
    assert list(z["score"]) == [0, 0]
    assert len(out) == 4


def test_entity_cards_fusion_semantics(ray_session):
    """Hand-built corpus: mention linking (alias hit + skolem miss),
    time bounds from mentioning pages only, fact in/out fusion on the
    SAME card, top-pred tie broken lexicographically, and zero-fill
    for entities missing a side."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import entity_cards

    mentions = rd.from_arrow(pa.table({
        "src_url": ["u1", "u1", "u2", "u2", "u9"],
        "surface": ["Alpha", "Alpha", "alpha", "Mystery", "Ghost"],
        "norm": ["alpha", "alpha", "alpha", "mystery", "ghost"]}))
    pages = rd.from_pandas(pd.DataFrame({
        "url": ["u1", "u2", "u3"],
        "warc_ts": pd.to_datetime([1_000_000, 2_000_000, 3_000_000],
                                  unit="us")}))
    facts = rd.from_arrow(pa.table({
        "subj": ["ent:a", "ent:a", "ent:a", "ent:b"],
        "pred": ["p:x", "p:y", "p:y", "p:x"],
        "obj": ["ent:b", "ent:sk:mystery", "lit", "ent:a"],
        "obj_is_literal": [False, False, True, False]}))
    got = {r["entity"]: r for r in entity_cards(
        facts, mentions, pages, {"alpha": "ent:a"}).take_all()}
    a = got["ent:a"]
    # 3 mentions over 2 pages; ts span [1s, 2s]; out: p:x 1, p:y 2 ->
    # top p:y; in: one entity-valued (ent:b -> ent:a)
    assert (a["n_mentions"], a["n_pages"]) == (3, 2)
    assert (a["first_us"], a["last_us"]) == (1_000_000, 2_000_000)
    assert (a["n_facts_out"], a["n_facts_in"]) == (3, 1)
    assert (a["top_pred"], a["top_pred_n"]) == ("p:y", 2)
    # skolemized mention merges with the skolem fact object
    sk = got["ent:sk:mystery"]
    assert (sk["n_mentions"], sk["n_facts_in"], sk["n_facts_out"],
            sk["top_pred"]) == (1, 1, 0, "")
    # fact-only entity: zero mention stats, zero time bounds;
    # top-pred tie (p:x 1) vs none
    b = got["ent:b"]
    assert (b["n_mentions"], b["n_pages"], b["first_us"],
            b["last_us"]) == (0, 0, 0, 0)
    assert (b["n_facts_out"], b["n_facts_in"],
            b["top_pred"], b["top_pred_n"]) == (1, 1, "p:x", 1)
    # a mention on a url with no page row keeps zero time bounds
    gh = got["ent:sk:ghost"]
    assert (gh["n_mentions"], gh["n_pages"], gh["first_us"],
            gh["last_us"]) == (1, 1, 0, 0)
    # literal objects never become cards
    assert "lit" not in got and len(got) == 4
    # the (norm, label) Dataset that build_entity_map returns above its
    # threshold gives the same cards as the dict
    mapping_ds = rd.from_items([{"norm": "alpha", "label": "ent:a"}])
    assert {r["entity"]: r for r in entity_cards(
        facts, mentions, pages, mapping_ds).take_all()} == got


def test_modularity_two_cliques(ray_session):
    """Two 3-cliques joined by one bridge edge, perfectly partitioned:
    m=7; each community has e_in=3, deg_sum=7 (the bridge endpoint has
    degree 3) -> q_num = 4*7*3 - 49 = 35, total Q = 70/196 ≈ 0.357."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import modularity_profile

    edges = rd.from_arrow(pa.table({
        "norm_a": ["a1", "a1", "a2", "b1", "b1", "b2", "a1"],
        "norm_b": ["a2", "a3", "a3", "b2", "b3", "b3", "b1"]}))
    labels = rd.from_arrow(pa.table({
        "node": ["a1", "a2", "a3", "b1", "b2", "b3"],
        "community": ["A", "A", "A", "B", "B", "B"]}))
    got = {r["community"]: r for r in
           modularity_profile(edges, labels).take_all()}
    for c in ("A", "B"):
        assert (got[c]["n_nodes"], got[c]["e_in"], got[c]["deg_sum"],
                got[c]["q_num"]) == (3, 3, 7, 35)
    # everyone in ONE community: e_in=m, deg_sum=2m -> q_num = 0
    one = rd.from_arrow(pa.table({
        "node": ["a1", "a2", "a3", "b1", "b2", "b3"],
        "community": ["A"] * 6}))
    row = modularity_profile(edges, one).take_all()[0]
    assert (row["e_in"], row["deg_sum"], row["q_num"]) == (7, 14, 0)


def test_dataset_card_small_corpus(ray_session):
    """Hand-built corpus: exact token totals, lang mode with
    lexicographic tie-break, distinct canon urls/hosts (messy variants
    collapse), and the no-url path zero-fills coverage columns."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.prep import dataset_card

    docs = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": ["one two three", "four five", "six", "seven eight"],
        "lang": ["en", "de", "de", "en"]}))
    urls = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4],
        "url": ["https://A.org/x#frag", "https://a.org/x",
                "https://b.org:443/y/", "https://b.org/y"]}))
    card = dataset_card(docs, urls)
    row = card.iloc[0]
    assert (row["n_docs"], row["n_tokens"]) == (4, 8)
    # every doc is under min_tokens=20 -> gate keeps none
    assert row["n_gate_keep"] == 0
    # messy variants collapse: 2 canon urls over 2 hosts
    assert (row["n_canon_unique"], row["n_hosts"]) == (2, 2)
    # en/de tie at 2 -> lexicographically smaller lang wins
    assert (row["top_lang"], row["top_lang_n"]) == ("de", 2)
    # url-less card zero-fills the coverage columns
    bare = dataset_card(docs).iloc[0]
    assert (bare["n_canon_unique"], bare["n_hosts"]) == (0, 0)
    assert bare["n_tokens"] == 8


def test_audio_pitch_square_wave_and_padding(ray_session):
    """A period-8 square wave: R(8) = (256-8)·amp² beats every other
    lag (lag multiples of 8 tie lower, ties broken by smallest lag);
    the zero-padded tail window stays exact; malformed payloads are
    contained per item."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.multimodal import (audio_pitch,
                                                             encode_wav)

    amp = 1000
    period = np.array([amp] * 4 + [-amp] * 4, dtype=np.int16)
    full = np.tile(period, 64)          # 512 samples = 2 full windows
    short = np.tile(period, 38)[:300]   # window 1 has 44 samples + pad
    items = rd.from_arrow(pa.table({
        "item_id": [1, 2, 3],
        "payload": [encode_wav(full), encode_wav(short), b"not a wav"]}))
    out = audio_pitch(items, window=256).to_pandas()
    assert set(out["item_id"]) == {1, 2}  # item 3 contained
    one = out[out["item_id"] == 1].sort_values("window_no")
    assert list(one["best_lag"]) == [8, 8]
    assert list(one["r_best"]) == [(256 - 8) * amp * amp] * 2
    two = out[out["item_id"] == 2].sort_values("window_no")
    assert list(two["best_lag"]) == [8, 8]
    # tail window: only the 44 real samples contribute products
    assert two.iloc[1]["r_best"] == (44 - 8) * amp * amp


def test_clustering_coefficients_known_graph(ray_session):
    """K4 minus one edge: the two degree-3 nodes sit on both triangles
    (cc = 2/3), the two degree-2 nodes on one each (cc = 1); an
    isolated-edge pair has degree 1 and cc 0."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import (
        clustering_coefficients)

    edges = rd.from_arrow(pa.table({
        "norm_a": ["a", "a", "a", "b", "b", "x"],
        "norm_b": ["b", "c", "d", "c", "d", "y"]}))
    got = {r["node"]: (r["degree"], r["n_tri"], r["cc_micro"])
           for r in clustering_coefficients(edges).take_all()}
    assert got["a"] == (3, 2, 666666)
    assert got["b"] == (3, 2, 666666)
    assert got["c"] == (2, 1, 1000000)
    assert got["d"] == (2, 1, 1000000)
    assert got["x"] == (1, 0, 0) and got["y"] == (1, 0, 0)


def test_degree_mixing_matches_brute_force(ray_session):
    """The integer sufficient statistics equal the brute-force sums on
    a random graph, and the derived assortativity matches the direct
    Pearson computation."""
    import itertools

    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import degree_mixing_stats

    rng = np.random.RandomState(3)
    nodes = [f"n{i:02d}" for i in range(18)]
    edges = sorted({tuple(sorted(rng.choice(nodes, 2, replace=False)))
                    for _ in range(40)})
    deg: dict = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    m = len(edges)
    sjk = sum(deg[a] * deg[b] for a, b in edges)
    sjpk = sum(deg[a] + deg[b] for a, b in edges)
    sjjkk = sum(deg[a] ** 2 + deg[b] ** 2 for a, b in edges)
    t = pa.table({"norm_a": [e[0] for e in edges],
                  "norm_b": [e[1] for e in edges]})
    row = degree_mixing_stats(rd.from_arrow(t).repartition(3)).iloc[0]
    assert (row["m"], row["sum_jk"], row["sum_j_plus_k"],
            row["sum_jj_plus_kk"]) == (m, sjk, sjpk, sjjkk)
    # derived r equals the direct Pearson over the edge-endpoint pairs
    mu = sjpk / (2 * m)
    r = (sjk / m - mu * mu) / (sjjkk / (2 * m) - mu * mu)
    js = np.array([deg[a] for a, b in edges] + [deg[b] for a, b in edges])
    ks = np.array([deg[b] for a, b in edges] + [deg[a] for a, b in edges])
    assert abs(r - np.corrcoef(js, ks)[0, 1]) < 1e-9


def test_functional_violations_semantics(ray_session):
    """Duplicate assertions collapse; only ≥2-distinct-object slots
    surface; objects come back sorted and joined; non-listed
    predicates are ignored."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import (
        functional_violations)

    facts = rd.from_arrow(pa.table({
        "subj": ["a", "a", "a", "b", "b", "c"],
        "pred": ["p:f", "p:f", "p:f", "p:f", "p:other", "p:f"],
        "obj": ["y", "x", "x", "z", "w", "q"]}))
    rows = functional_violations(facts, preds=["p:f"]).take_all()
    assert len(rows) == 1
    r = rows[0]
    assert (r["subj"], r["pred"], r["n_obj"], r["objs"]) == (
        "a", "p:f", 2, "x|y")
