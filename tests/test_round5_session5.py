"""Round-5 session-5 operator tests: SPARQL OPTIONAL and temporal
fact-validity episodes."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _facts(rows):
    """rows: (subj, pred, obj, src_url)"""
    s, p, o, u = zip(*rows)
    return pa.table({
        "graph": pa.array(["kg:web"] * len(rows)),
        "subj": pa.array(list(s)), "pred": pa.array(list(p)),
        "obj": pa.array(list(o)),
        "obj_is_literal": pa.array([False] * len(rows)),
        "obj_datatype": pa.array([""] * len(rows)),
        "src_url": pa.array(list(u))})


def _pages(url_ts):
    urls, ts = zip(*url_ts)
    return pa.table({
        "url": pa.array(list(urls)),
        "warc_ts": pa.array(list(ts), pa.timestamp("us"))})


def test_bgp_optional_left_semantics(ray_session):
    """Required bindings without an optional match survive with c='';
    matched ones fan out to every c binding; non-p1 rows never bind."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import bgp_optional

    facts = _facts([
        ("a1", "kg:acquired", "b1", "u1"),
        ("a2", "kg:acquired", "b2", "u2"),   # b2 has no basedIn
        ("b1", "kg:basedIn", "c1", "u3"),
        ("b1", "kg:basedIn", "c2", "u4"),    # fan-out
        ("a9", "kg:worksWith", "b9", "u5"),  # wrong predicate
        ("a1", "kg:acquired", "b1", "u6"),   # duplicate assertion
    ])
    out = (bgp_optional(rd.from_arrow(facts).repartition(3))
           .to_pandas().sort_values(["a", "b", "c"])
           .reset_index(drop=True))
    want = pd.DataFrame({
        "a": ["a1", "a1", "a2"],
        "b": ["b1", "b1", "b2"],
        "c": ["c1", "c2", ""]})
    pd.testing.assert_frame_equal(out, want)


def test_bgp_optional_partition_invariance(ray_session, monkeypatch):
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import bgp_optional

    rng = np.random.default_rng(5)
    n = 300
    preds = np.array(["kg:acquired", "kg:basedIn", "kg:worksWith"])
    rows = [(f"e{int(rng.integers(0, 25))}",
             str(preds[int(rng.integers(0, 3))]),
             f"e{int(rng.integers(0, 25))}", f"u{i}")
            for i in range(n)]
    t = _facts(rows)
    from fcrepo3_rdf_extractor_ray import runtime

    monkeypatch.setattr(runtime, "cluster_cpus", lambda: 2)
    a = (bgp_optional(rd.from_arrow(t).repartition(1))
         .to_pandas().sort_values(["a", "b", "c"]).reset_index(drop=True))
    monkeypatch.setattr(runtime, "cluster_cpus", lambda: 9)
    b = (bgp_optional(rd.from_arrow(t).repartition(7))
         .to_pandas().sort_values(["a", "b", "c"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_fact_intervals_flip_and_flip_back(ray_session):
    """A slot asserting X, X, Y, X in time order yields THREE episodes
    (validity is temporal — the return to X opens a new episode), each
    with exact [from, to] spans and assertion counts."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import fact_intervals

    ts = [pd.Timestamp(f"2024-01-0{i}T00:00:00") for i in range(1, 6)]
    facts = _facts([
        ("s", "kg:basedIn", "X", "u1"),
        ("s", "kg:basedIn", "X", "u2"),
        ("s", "kg:basedIn", "Y", "u3"),
        ("s", "kg:basedIn", "X", "u4"),
        ("s", "kg:worksWith", "Z", "u1"),   # second slot, one episode
    ])
    pages = _pages([("u1", ts[0]), ("u2", ts[1]), ("u3", ts[2]),
                    ("u4", ts[3]), ("u5", ts[4])])
    out = (fact_intervals(rd.from_arrow(facts).repartition(2),
                          rd.from_arrow(pages))
           .to_pandas().sort_values(["subj", "pred", "episode_no"])
           .reset_index(drop=True))
    slot = out[out["pred"] == "kg:basedIn"]
    assert slot["obj"].tolist() == ["X", "Y", "X"]
    assert slot["episode_no"].tolist() == [1, 2, 3]
    assert slot["n_assertions"].tolist() == [2, 1, 1]
    assert slot["from_ts"].tolist() == [ts[0], ts[2], ts[3]]
    assert slot["to_ts"].tolist() == [ts[1], ts[2], ts[3]]
    other = out[out["pred"] == "kg:worksWith"]
    assert other["episode_no"].tolist() == [1]
    assert other["n_assertions"].tolist() == [1]


def test_fact_intervals_drops_pageless_and_matches_current(ray_session):
    """Pageless facts are dropped (the kg_fact_current contract), and
    the LAST episode per slot agrees with current_facts' snapshot."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import (current_facts,
                                                        fact_intervals)

    ts1 = pd.Timestamp("2024-03-01T00:00:00")
    ts2 = pd.Timestamp("2024-03-02T00:00:00")
    facts = _facts([
        ("s", "kg:basedIn", "X", "u1"),
        ("s", "kg:basedIn", "Y", "u2"),
        ("t", "kg:basedIn", "Q", "nowhere"),  # pageless -> dropped
    ])
    pages = _pages([("u1", ts1), ("u2", ts2)])
    fi = fact_intervals(rd.from_arrow(facts), rd.from_arrow(pages)) \
        .to_pandas()
    assert "t" not in set(fi["subj"])
    last = (fi.sort_values("episode_no").groupby(["subj", "pred"])
            .last().reset_index())
    cur = current_facts(rd.from_arrow(facts),
                        rd.from_arrow(pages)).to_pandas()
    m = last.merge(cur, on=["subj", "pred"], suffixes=("_i", "_c"))
    assert len(m) == len(cur) == len(last)
    assert (m["obj_i"] == m["obj_c"]).all()
    assert (m["to_ts"] == m["last_ts"]).all()


def test_bigram_lm_hand_computed(ray_session):
    """3-doc corpus, hand-computed smoothed conditionals."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import (
        bigram_lm_scores)

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["a b", "a b", "a c"]})
    out = (bigram_lm_scores(rd.from_arrow(docs).repartition(2))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # unigrams: a=3, b=2, c=1 -> V=3; bigrams: (a,b)=2, (a,c)=1
    # score(a,b) = 1e6*3 // (3+3) = 500000
    # score(a,c) = 1e6*2 // (3+3) = 333333
    assert out["doc_id"].tolist() == [1, 2, 3]
    assert out["n_bigrams"].tolist() == [1, 1, 1]
    assert out["sum_score"].tolist() == [500000, 500000, 333333]
    assert out["avg_score"].tolist() == [500000, 500000, 333333]


def test_bigram_lm_short_docs_absent_and_invariant(ray_session):
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import (
        bigram_lm_scores)

    rng = np.random.default_rng(7)
    words = np.array(["red", "blue", "green", "fox", "owl"])
    texts = [" ".join(words[rng.integers(0, 5, int(rng.integers(0, 6)))])
             for _ in range(80)]
    docs = pa.table({"doc_id": pa.array(range(80), pa.int64()),
                     "text": texts})
    a = (bigram_lm_scores(rd.from_arrow(docs).repartition(1), n_parts=2)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (bigram_lm_scores(rd.from_arrow(docs).repartition(9), n_parts=5)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    n_tok = np.array([len(t.split()) for t in texts])
    assert set(a["doc_id"]) == set(np.nonzero(n_tok >= 2)[0])


def test_readability_hand_computed(ray_session):
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import (
        readability_scores)

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": ["The cat sat. It ran!",   # 5 words, 2 sentences
                 "xyz zzz",                # vowel-less words -> 1 each
                 "no terminator here",     # 0 runs -> 1 sentence
                 "   "]})                  # word-less -> absent
    out = (readability_scores(rd.from_arrow(docs))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [1, 2, 3]
    r1 = out.iloc[0]
    # "the cat sat. it ran!": vowel groups e,a,a,i,a = 5 syllables
    assert (r1["n_words"], r1["n_sentences"], r1["n_syllables"]) \
        == (5, 2, 5)
    assert r1["wps_milli"] == 2500 and r1["spw_milli"] == 1000
    assert r1["flesch_milli"] == 206835 - (1015 * 2500) // 1000 - 84600
    r2 = out.iloc[1]
    assert (r2["n_words"], r2["n_syllables"]) == (2, 2)
    assert out.iloc[2]["n_sentences"] == 1


def test_winnowing_window_guarantee_and_shift(ray_session):
    """Winnowing guarantees >=1 selection per w-window, selects only
    real gram positions, and identical docs get identical (pos, fp)
    sets (position-robust within the shared prefix)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.dedup import (
        winnowing_fingerprints)

    text = "one two three four five six seven eight nine ten"
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [text, text, "a b", "p q r"]})
    out = winnowing_fingerprints(rd.from_arrow(docs), k=3, w=4) \
        .to_pandas()
    d1 = out[out.doc_id == 1].sort_values("pos")
    d2 = out[out.doc_id == 2].sort_values("pos")
    assert d1[["pos", "fp"]].values.tolist() \
        == d2[["pos", "fp"]].values.tolist()
    # 8 grams, windows end at pos 3..7; gaps between consecutive
    # selections can never exceed w
    poss = d1["pos"].to_numpy()
    assert poss.min() >= 0 and poss.max() <= 7
    assert (np.diff(np.sort(poss)) <= 4).all()
    assert 3 not in set(out.doc_id)            # < k tokens: no grams
    assert (out.doc_id == 4).sum() == 1        # single short window


def test_winnowing_batch_invariance(ray_session):
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.dedup import (
        winnowing_fingerprints)

    rng = np.random.default_rng(3)
    words = np.array(["ga", "bu", "zo", "meu"])
    texts = [" ".join(words[rng.integers(0, 4, int(rng.integers(0, 12)))])
             for _ in range(60)]
    docs = pa.table({"doc_id": pa.array(range(60), pa.int64()),
                     "text": texts})
    a = (winnowing_fingerprints(rd.from_arrow(docs).repartition(1))
         .to_pandas().sort_values(["doc_id", "pos"])
         .reset_index(drop=True))
    b = (winnowing_fingerprints(rd.from_arrow(docs).repartition(13))
         .to_pandas().sort_values(["doc_id", "pos"])
         .reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_winnowing_gram_index_bound_raises(ray_session):
    """The tiebreak key ``h·2^20 − pos`` needs every gram index below
    2^20: a document with exactly 2^20 grams is fingerprinted, one with
    a single gram more raises instead of mixing up positions."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.dedup import (
        winnowing_fingerprints)

    def doc(n_tokens):
        words = np.array(["ga", "bu", "zo", "meu"])
        text = " ".join(words[np.arange(n_tokens) % 4])
        return rd.from_arrow(pa.table({"doc_id": pa.array([1], pa.int64()),
                                       "text": [text]}))

    k = 3
    out = winnowing_fingerprints(doc((1 << 20) + k - 1), k=k).to_pandas()
    assert out["pos"].max() == (1 << 20) - 1
    with pytest.raises(Exception, match="chunk_documents"):
        winnowing_fingerprints(doc((1 << 20) + k), k=k).materialize()


def test_host_cocitation_planted(ray_session):
    """s1 links {a,b,c}, s2 links {b,c}, s3 links {c} -> pair counts
    ab=1 ac=1 bc=2; self-loops and duplicate links never count."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import host_cocitation

    def page(i, src, dsts):
        html = "".join(f'<a href="https://{d}/x">l</a>' for d in dsts)
        return {"doc_id": i, "url": f"https://{src}/p/{i}",
                "html": html.encode()}

    rows = [page(1, "s1.org", ["a.org", "b.org", "c.org"]),
            page(2, "s2.org", ["b.org", "c.org", "c.org"]),  # dup link
            page(3, "s3.org", ["c.org", "s3.org"])]          # self-loop
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = (host_cocitation(ds).to_pandas()
           .sort_values(["h1", "h2"]).reset_index(drop=True))
    got = {(r.h1, r.h2): r.n_cociting for r in out.itertuples()}
    assert got == {("a.org", "b.org"): 1, ("a.org", "c.org"): 1,
                   ("b.org", "c.org"): 2}


def test_phrase_hits_planted(ray_session):
    """Overlapping repeats, repeated-word phrases, and cross-doc
    isolation all counted exactly."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import phrase_hits

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["a b a b a",        # 'a b' x2, 'b a' x2, 'a b a' x2
                 "c c c c",          # 'c c' x3 (overlapping starts)
                 "a x b"]})          # no adjacency
    out = phrase_hits(rd.from_arrow(docs).repartition(2),
                      ["a b", "b a", "a b a", "c c", "zz yy"]) \
        .to_pandas()
    got = {(r.query, r.doc_id): r.n_hits for r in out.itertuples()}
    assert got == {("a b", 1): 2, ("b a", 1): 2, ("a b a", 1): 2,
                   ("c c", 2): 3}


def test_phrase_hits_partition_invariance(ray_session):
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import phrase_hits

    rng = np.random.default_rng(21)
    words = np.array(["t", "u", "v"])
    texts = [" ".join(words[rng.integers(0, 3, 15)]) for _ in range(50)]
    docs = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                     "text": texts})
    ph = ["t u", "u u v", "v t"]
    a = (phrase_hits(rd.from_arrow(docs).repartition(1), ph, n_parts=2)
         .to_pandas().sort_values(["query", "doc_id"])
         .reset_index(drop=True))
    b = (phrase_hits(rd.from_arrow(docs).repartition(11), ph, n_parts=7)
         .to_pandas().sort_values(["query", "doc_id"])
         .reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_sameas_candidates_planted(ray_session):
    """x and y share 2 slots; x and z share 1 (below threshold);
    duplicate assertions never inflate counts."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import sameas_candidates

    facts = _facts([
        ("x", "p1", "o1", "u1"),
        ("x", "p1", "o1", "u9"),   # duplicate assertion
        ("y", "p1", "o1", "u2"),
        ("x", "p2", "o2", "u3"),
        ("y", "p2", "o2", "u4"),
        ("z", "p1", "o1", "u5"),   # z shares 1 slot with x, y
        ("z", "p9", "o9", "u6"),
    ])
    out = sameas_candidates(rd.from_arrow(facts).repartition(3),
                            min_shared=2).to_pandas()
    got = {(r.e1, r.e2): r.n_shared for r in out.itertuples()}
    assert got == {("x", "y"): 2}


def test_property_path_shortest_lengths(ray_session):
    """Chain a->b->c->d plus shortcut a->c: lengths are SHORTEST
    (a,c)=1 not 2; depth capped at 3 so a->e (4 hops) is absent."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import property_path

    facts = _facts([
        ("a", "kg:acquired", "b", "u1"),
        ("b", "kg:acquired", "c", "u2"),
        ("c", "kg:acquired", "d", "u3"),
        ("d", "kg:acquired", "e", "u4"),
        ("a", "kg:acquired", "c", "u5"),     # shortcut
        ("a", "kg:worksWith", "z", "u6"),    # other predicate ignored
    ])
    out = property_path(rd.from_arrow(facts).repartition(2),
                        pred="kg:acquired", max_len=3).to_pandas()
    got = {(r.a, r.d): r.length for r in out.itertuples()}
    assert got == {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1,
                   ("d", "e"): 1, ("a", "c"): 1, ("a", "d"): 2,
                   ("b", "d"): 2, ("c", "e"): 2, ("a", "e"): 3,
                   ("b", "e"): 3}
    assert ("a", "z") not in got


def test_image_hist_hand_computed(ray_session):
    """Uniform image concentrates in one bin; error containment skips
    malformed payloads and counts them."""
    import pyarrow as pa

    from fcrepo3_rdf_extractor_ray.stages.multimodal import (
        PpmHistStage, encode_ppm)

    flat = np.full((4, 4, 3), 200, np.uint8)       # gray 200 -> bin 12
    ramp = np.zeros((1, 16, 3), np.uint8)
    ramp[0, :, 0] = ramp[0, :, 1] = ramp[0, :, 2] = \
        np.arange(0, 256, 16, dtype=np.uint8)      # one px per bin
    t = pa.table({
        "item_id": pa.array([1, 2, 3], pa.int64()),
        "payload": pa.array([encode_ppm(flat), encode_ppm(ramp),
                             b"not a ppm"], pa.binary())})
    stage = PpmHistStage(on_error="skip")
    out = stage(t).to_pandas().sort_values("item_id")
    assert stage.error_count == 1
    r1 = out.iloc[0]
    assert (r1["n_pixels"], r1["n_levels"], r1["top_bin"],
            r1["top_count"], r1["concentration"]) == (16, 1, 12, 16, 256)
    r2 = out.iloc[1]
    assert (r2["n_pixels"], r2["n_levels"], r2["top_count"],
            r2["concentration"]) == (16, 16, 1, 16)


def test_late_events_watermark_semantics(ray_session):
    """Hand-built arrival stream: the watermark is the strictly
    preceding running max minus lateness; the first event can never be
    late; carry-in across range buckets is exact (forced with
    n_parts=4 over 8 events)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.relational import late_events

    H = 3_600_000_000
    base = (1_700_000_000_000_000 // H) * H  # hour-aligned
    # arrival order; times in hours relative to base
    hours = [0.0, 1.0, 2.0, 0.5, 3.0, 0.2, 3.5, 2.9]
    # wm (prev running max - 1h): e3 at 0.5 vs wm 2.0-1.0=1.0 -> late;
    # e5 at 0.2 vs wm 3.0-1.0=2.0 -> late; e7 at 2.9 vs 3.5-1=2.5 -> ok
    ts = [base + int(h * H) for h in hours]
    ev = pa.table({
        "event_id": pa.array(range(8), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us"))})
    out = (late_events(rd.from_arrow(ev).repartition(3), late_hours=1,
                       n_parts=4)
           .to_pandas().sort_values("window_start")
           .reset_index(drop=True))
    assert out["n_events"].sum() == 8
    assert out["n_late"].sum() == 2
    per_hour = {int((r.window_start.value // 1000 - base) // H):
                (r.n_events, r.n_late) for r in out.itertuples()}
    assert per_hour[0] == (3, 2)   # hours 0.0, 0.5(late), 0.2(late)
    assert per_hour[2] == (2, 0)   # hours 2.0, 2.9


def test_winnowing_pairs_planted_and_df_cap(ray_session):
    """Two near-identical docs pair up; a fingerprint shared by MANY
    docs (boilerplate) is df-capped out and creates no pairs."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.dedup import winnowing_pairs

    shared = "alpha beta gamma delta epsilon zeta eta theta iota"
    boiler = "one two three four five six"
    docs = [{"doc_id": 1, "text": shared + " tailone"},
            {"doc_id": 2, "text": shared + " tailtwo"}]
    docs += [{"doc_id": 10 + i, "text": boiler} for i in range(6)]
    ds = rd.from_arrow(pa.Table.from_pylist(docs))
    out = winnowing_pairs(ds, k=3, w=4, min_shared=2, max_df=4) \
        .to_pandas()
    got = {(r.d1, r.d2) for r in out.itertuples()}
    assert (1, 2) in got
    assert all(d1 < 10 for d1, _ in got)  # boilerplate capped out
    n12 = out[(out.d1 == 1) & (out.d2 == 2)]["n_shared"].iloc[0]
    assert n12 >= 2


def test_bigram_lm_separator_tokens_dont_collide(ray_session):
    """Tokens may contain any non-whitespace byte: ('a\\x1fb','c') and
    ('a','b\\x1fc') are DIFFERENT bigrams (the count key is
    length-prefixed, not separator-joined)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import (
        bigram_lm_scores)

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["a\x1fb c", "a b\x1fc", "a\x1fb c"]})
    out = (bigram_lm_scores(rd.from_arrow(docs))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # unigrams: a\x1fb=2, c=2, a=1, b\x1fc=1 -> V=4
    # bigram (a\x1fb, c)=2 ; (a, b\x1fc)=1 — MUST stay separate
    # doc1/doc3: 1e6*3 // (2+4) = 500000 ; doc2: 1e6*2 // (1+4) = 400000
    assert out["sum_score"].tolist() == [500000, 400000, 500000]


def test_revisit_classify_verdict_sequence(ray_session):
    """original -> changed -> revisit sequence, saved_bytes only on
    revisits, urls isolated from each other."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import revisit_classify

    cdx = pa.table({
        "urlkey": ["a", "a", "a", "b", "b"],
        "ts": ["20240101000000", "20240201000000", "20240301000000",
               "20240101000000", "20240601000000"],
        "digest": ["d1", "d2", "d2", "dX", "dX"],
        "payload_len": pa.array([10, 20, 20, 7, 7], pa.int64())})
    out = (revisit_classify(rd.from_arrow(cdx).repartition(2))
           .to_pandas().sort_values(["urlkey", "ts"])
           .reset_index(drop=True))
    assert out["verdict"].tolist() == \
        ["original", "changed", "revisit", "original", "revisit"]
    assert out["saved_bytes"].tolist() == [0, 0, 20, 0, 7]


def test_star_join_planted(ray_session):
    """Subjects with both predicates bind |a|x|b|; single-sided
    subjects never appear."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import star_join

    facts = _facts([
        ("s1", "kg:worksWith", "a1", "u1"),
        ("s1", "kg:worksWith", "a2", "u2"),
        ("s1", "kg:acquired", "b1", "u3"),
        ("s2", "kg:worksWith", "a9", "u4"),  # no acquired
        ("s3", "kg:acquired", "b9", "u5"),   # no worksWith
    ])
    out = (star_join(rd.from_arrow(facts).repartition(2))
           .to_pandas().sort_values(["s", "a", "b"])
           .reset_index(drop=True))
    assert out.values.tolist() == [["s1", "a1", "b1"],
                                   ["s1", "a2", "b1"]]


def test_merge_upsert_semantics(ray_session):
    """U updates in place, D removes, I appends; untouched rows kept."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.relational import (
        merge_upsert)

    base = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                     "cents": pa.array([100, 200, 300, 400], pa.int64())})
    upd = pa.table({"k": pa.array([2, 3, 9], pa.int64()),
                    "cents": pa.array([777, 0, 950], pa.int64()),
                    "op": ["U", "D", "I"]})
    out = (merge_upsert(rd.from_arrow(base).repartition(2),
                        rd.from_arrow(upd))
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["k"].tolist() == [1, 2, 4, 9]
    assert out["cents"].tolist() == [100, 777, 400, 950]
    assert out["action"].tolist() == ["kept", "updated", "kept",
                                      "inserted"]


def test_merge_upsert_unmatched_update_matches_oracle(ray_session):
    """A U on a key absent from the base upserts it as 'updated', and a
    D on an absent key is a no-op — the rel_merge oracle's FULL OUTER
    JOIN, replayed in DuckDB on the same rows."""
    import duckdb
    import ray.data as rd

    import __ray_entry__ as em
    from fcrepo3_rdf_extractor_ray.pipelines.relational import (
        merge_upsert)

    base = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                     "cents": pa.array([100, 200, 300], pa.int64())})
    upd = pa.table({"k": pa.array([2, 3, 7, 8, 9], pa.int64()),
                    "cents": pa.array([222, 0, 777, 0, 999], pa.int64()),
                    "op": ["U", "D", "U", "D", "I"]})
    got = (merge_upsert(rd.from_arrow(base).repartition(2),
                        rd.from_arrow(upd))
           .to_pandas().sort_values("k").reset_index(drop=True))
    con = duckdb.connect()
    con.register("base_rows", base)
    con.register("upd_rows", upd)
    want = con.execute(
        "WITH b AS (SELECT k, cents FROM base_rows), "
        "u AS (SELECT k, cents, op FROM upd_rows)" + em._MERGE_TAIL_SQL
    ).df().sort_values("k").reset_index(drop=True)
    assert want.values.tolist() == [[1, 100, "kept"], [2, 222, "updated"],
                                    [7, 777, "updated"],
                                    [9, 999, "inserted"]]
    assert got[["k", "cents", "action"]].values.tolist() == \
        want.values.tolist()


def test_shacl_report_min_count(ray_session):
    """A typed subject missing required preds yields one row per gap;
    untyped subjects are never checked."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import shacl_report

    quads = _facts([
        ("p1", "rdf:type", "kg:WebPage", "u"),
        ("p1", "kg:fetchedAt", "t", "u"),
        ("p1", "kg:lang", "en", "u"),
        ("p1", "kg:domain", "d", "u"),
        ("p1", "kg:title", "T", "u"),
        ("p1", "kg:state", "kg:Active", "u"),   # complete
        ("p2", "rdf:type", "kg:WebPage", "u"),
        ("p2", "kg:fetchedAt", "t", "u"),
        ("p2", "kg:lang", "en", "u"),
        ("p2", "kg:domain", "d", "u"),          # missing title+state
        ("x9", "kg:title", "loose", "u"),       # untyped
    ])
    out = (shacl_report(rd.from_arrow(quads).repartition(3))
           .to_pandas().sort_values(["subj", "missing_pred"])
           .reset_index(drop=True))
    assert out.values.tolist() == [["p2", "kg:state"],
                                   ["p2", "kg:title"]]


def test_inverse_closure_flips_distinct(ray_session):
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import inverse_closure

    facts = _facts([
        ("a", "kg:acquired", "b", "u1"),
        ("a", "kg:acquired", "b", "u2"),   # duplicate assertion
        ("c", "kg:basedIn", "d", "u3"),
        ("e", "kg:worksWith", "f", "u4"),  # no declared inverse
    ])
    out = (inverse_closure(rd.from_arrow(facts).repartition(2))
           .to_pandas().sort_values(["subj", "pred", "obj"])
           .reset_index(drop=True))
    assert out.values.tolist() == [["b", "kg:acquiredBy", "a"],
                                   ["d", "kg:hosts", "c"]]


def test_audio_gain_hand_computed(ray_session):
    """Half-range audio gets ~2x gain; clipping counted under the
    integer gain; malformed payloads contained."""
    import pyarrow as pa

    from fcrepo3_rdf_extractor_ray.stages.multimodal import (
        AudioGainStage, encode_wav)

    half = np.array([0, 16384, -16384, 8192], np.int16)
    full = np.array([32767, -32768], np.int16)
    t = pa.table({
        "item_id": pa.array([1, 2, 3], pa.int64()),
        "payload": pa.array([encode_wav(half), encode_wav(full),
                             b"junk"], pa.binary())})
    stage = AudioGainStage(on_error="skip")
    out = stage(t).to_pandas().sort_values("item_id")
    assert stage.error_count == 1
    r1 = out.iloc[0]
    gain = -(-32767000 // 16384)  # ceil -> 2000
    assert (r1["peak"], r1["gain_milli"]) == (16384, 2000)
    assert r1["sum_abs_norm"] == sum(
        abs(int(s)) * gain // 1000 for s in half)
    # both +/-peak samples round past the rail under the ceil gain
    assert r1["n_clipped"] == 2
    r2 = out.iloc[1]
    # peak 32768 (the negative rail): ceil gain is exactly 1000, the
    # rail itself clips, the positive rail (32767) does not
    assert (r2["peak"], r2["gain_milli"]) == (32768, 1000)
    assert r2["n_clipped"] == 1


def test_url_param_stats_planted(ray_session):
    """Repeated keys per url count once; session-style keys show high
    value cardinality; utmX (no underscore) is NOT tracking."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import url_param_stats

    urls = ["https://a.org/x?page=1&page=2",       # dup key: 1 url
            "https://b.org/y?page=1&utm_ref=z",
            "https://c.org/z?sid=abc#frag",        # frag excluded
            "https://c.org/w?sid=def",
            "https://d.org/v?utmx=1"]               # not tracking
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(5), pa.int64()), "url": urls}))
    out = url_param_stats(ds).to_pandas().set_index("param")
    assert out.loc["page", "n_urls"] == 2
    assert out.loc["page", "n_values"] == 2      # every value: '1', '2'
    assert out.loc["sid", "n_urls"] == 2
    assert out.loc["sid", "n_hosts"] == 1
    assert out.loc["sid", "n_values"] == 2
    assert bool(out.loc["utm_ref", "is_tracking"]) is True
    assert bool(out.loc["utmx", "is_tracking"]) is False


def test_url_param_stats_repeated_key_matches_oracle(ray_session):
    """A url repeating a key with different values (?a=1&a=2) counts
    once in n_urls and gives every value to n_values — the web_params
    oracle's aggregation, replayed in DuckDB on the same urls."""
    import duckdb
    import ray.data as rd

    import __ray_entry__ as em
    from fcrepo3_rdf_extractor_ray.stages.web import url_param_stats

    urls = ["https://a.org/x?a=1&a=2",
            "https://a.org/y?a=1&b=5",
            "https://b.org/x?a=3&a=3&b=5"]
    rows = pa.table({"doc_id": pa.array(range(3), pa.int64()),
                     "url": urls})
    cols = ["param", "n_urls", "n_hosts", "n_values", "is_tracking"]
    got = (url_param_stats(rd.from_arrow(rows)).to_pandas()[cols]
           .sort_values("param").reset_index(drop=True))
    con = duckdb.connect()
    con.register("url_rows", rows)
    want = con.execute(
        "WITH u AS (SELECT url, "
        "regexp_extract(url, '^https?://([^/?#]+)', 1) AS host, "
        "regexp_extract(url, '\\?(.*)$', 1) AS qs FROM url_rows)"
        + em._PARAM_STATS_TAIL_SQL).df()[cols]
    want = want.sort_values("param").reset_index(drop=True)
    assert want.values.tolist() == [["a", 3, 2, 3, False],
                                    ["b", 2, 2, 1, False]]
    assert got.values.tolist() == want.values.tolist()


def test_winnowing_clusters_min_id_and_routing(ray_session):
    """Planted 3-doc near-dup family collapses to the min id; the
    Dataset path (forced with max_driver_pairs=0) agrees with the
    driver union-find."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.dedup import winnowing_clusters

    body = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = pa.table({
        "doc_id": pa.array([3, 7, 9, 20], pa.int64()),
        "text": [body + " one", body + " two", body + " three",
                 "completely different unrelated tokens here now ok"]})
    ds = rd.from_arrow(docs)
    a = winnowing_clusters(ds, k=3, w=4, min_shared=2)
    b = winnowing_clusters(ds, k=3, w=4, min_shared=2,
                           max_driver_pairs=0)
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    assert a["doc_id"].tolist() == [3, 7, 9]
    assert a["cluster_id"].tolist() == [3, 3, 3]
    assert a.values.tolist() == b.values.tolist()


def test_facts_as_of_holds_last_opened_value(ray_session):
    """As-of mid-history: a slot holds its last value opened at or
    before the cutoff even if asserted earlier; slots first asserted
    after the cutoff are absent; as_of=+inf matches current_facts."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import (current_facts,
                                                        facts_as_of)

    def us(s):
        return int(pd.Timestamp(s).value // 1000)

    facts = _facts([
        ("s", "kg:basedIn", "X", "u1"),
        ("s", "kg:basedIn", "Y", "u3"),
        ("late", "kg:basedIn", "Z", "u4"),
    ])
    pages = _pages([("u1", pd.Timestamp("2024-01-01")),
                    ("u3", pd.Timestamp("2024-03-01")),
                    ("u4", pd.Timestamp("2024-04-01"))])
    cut = us("2024-02-01")
    out = facts_as_of(rd.from_arrow(facts), rd.from_arrow(pages),
                      cut).to_pandas()
    assert out["subj"].tolist() == ["s"]
    assert out["obj"].tolist() == ["X"]       # Y opens after the cut
    far = facts_as_of(rd.from_arrow(facts), rd.from_arrow(pages),
                      us("2030-01-01")).to_pandas()
    cur = current_facts(rd.from_arrow(facts),
                        rd.from_arrow(pages)).to_pandas()
    m = far.merge(cur, on=["subj", "pred"])
    assert len(m) == len(cur) == 2
    assert (m["obj_x"] == m["obj_y"]).all()


def test_zipf_profile_rank_and_coverage(ray_session):
    """Exact ranks under (count DESC, token ASC), cumulative coverage
    hits 1000 at the last rank, monotone in rank."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import (
        zipf_profile)

    docs = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": ["a a a b b c", "a b z"]})
    out = (zipf_profile(rd.from_arrow(docs), n_buckets=3)
           .to_pandas().sort_values("rank").reset_index(drop=True))
    assert out["token"].tolist() == ["a", "b", "c", "z"]
    assert out["n"].tolist() == [4, 3, 1, 1]
    assert out["rank"].tolist() == [1, 2, 3, 4]
    assert out["cum_permille"].tolist() == [
        4000 // 9, 7000 // 9, 8000 // 9, 1000]


def test_schema_graph_output_names_never_collide(ray_session):
    """wedge_pairs callers may name outputs anything — including the
    helper's own internal routing names (regression: 'p2' used to be
    clobbered by the pair-hash column)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import wedge_pairs

    t = pa.table({"s": ["x", "x", "y"], "p": ["p1", "p2", "p1"]})
    out = wedge_pairs(rd.from_arrow(t), block_cols=["s"],
                      item_col="p", out_cols=("p1", "p2", "n")) \
        .to_pandas()
    assert out.values.tolist() == [["p1", "p2", 1]]
    assert out["p2"].dtype == object


def test_literal_stats_mixed_typing_and_newlines(ray_session):
    """Typed/newline counts are per ASSERTION (a form asserted with
    and without a datatype counts each assertion); IRIs never
    counted; length bounds exact."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import literal_stats

    rows = [
        ("s1", "kg:t", "ab", True, "xsd:string", "u1"),
        ("s2", "kg:t", "ab", True, "", "u2"),       # same form untyped
        ("s3", "kg:t", "line1\nline2", True, "", "u3"),
        ("s4", "kg:t", "iri:x", False, "", "u4"),   # IRI ignored
        ("s5", "kg:u", "zzzz", True, "", "u5"),
    ]
    t = pa.table({
        "graph": ["kg:web"] * 5,
        "subj": [r[0] for r in rows], "pred": [r[1] for r in rows],
        "obj": [r[2] for r in rows],
        "obj_is_literal": [r[3] for r in rows],
        "obj_datatype": [r[4] for r in rows],
        "src_url": [r[5] for r in rows]})
    out = (literal_stats(rd.from_arrow(t).repartition(3))
           .to_pandas().set_index("pred"))
    kt = out.loc["kg:t"]
    assert (kt["n_literals"], kt["n_forms"], kt["n_typed"],
            kt["n_newline"]) == (3, 2, 1, 1)
    assert (kt["min_len"], kt["max_len"]) == (2, 11)
    ku = out.loc["kg:u"]
    assert (ku["n_literals"], ku["n_forms"]) == (1, 1)
