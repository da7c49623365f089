"""Round-5 scale-path tests: Dataset-native BFS frontier, SCC
condensation parity, driver-free entity-map routing, frontier/template
driver-state fixes (VERDICT r04 asks #2-#4, #8)."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _star_burst_facts(n: int = 2000):
    """Seed s -> n hop-1 hubs -> n hop-2 leaves (one fact per edge);
    the kg:acquired fact marks s as the BFS seed."""
    subj, pred, obj = ["s"], ["kg:acquired"], ["h000000"]
    for i in range(n):
        subj.append("s")
        pred.append("p")
        obj.append(f"h{i:06d}")
        subj.append(f"h{i:06d}")
        pred.append("p")
        obj.append(f"g{i:06d}")
    return pa.table({"subj": subj, "pred": pred, "obj": obj})


def test_bfs_ds_equals_driver_wide_frontier(ray_session):
    """Planted star-burst: the hop-1 frontier (2000 nodes) is far above
    the forced driver-comfort bound; the Dataset-native frontier path
    (auto-routed) labels exactly like the driver path."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import bfs_reachability

    facts = rd.from_arrow(_star_burst_facts()).repartition(4)
    drv = (bfs_reachability(facts, max_hops=2, mode="driver")
           .sort_values("node").reset_index(drop=True))
    # auto mode with a tiny driver bound must take the ds path and
    # return a Dataset, not pandas
    got = bfs_reachability(facts, max_hops=2, mode="auto",
                           max_driver_frontier=10)
    assert not isinstance(got, pd.DataFrame)
    ds = got.to_pandas().sort_values("node").reset_index(drop=True)
    assert len(ds) == len(drv) == 4001
    assert (ds["node"] == drv["node"]).all()
    assert (ds["hops"].to_numpy() == drv["hops"].to_numpy()).all()
    # hop histogram: seed, 2000 hubs, 2000 leaves
    assert ds["hops"].value_counts().sort_index().tolist() == [
        1, 2000, 2000]


def test_bfs_ds_min_hop_on_shortcut(ray_session):
    """A node reachable at hops 1 and 2 gets the MINIMUM label on the
    ds path (the visited anti-join must not relabel)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import bfs_reachability

    facts = rd.from_arrow(pa.table({
        "subj": ["s", "s", "x", "s"],
        "pred": ["kg:acquired", "p", "p", "p"],
        "obj": ["x", "x", "y", "y"]}))
    out = (bfs_reachability(facts, max_hops=3, mode="ds")
           .to_pandas().set_index("node")["hops"])
    assert out.to_dict() == {"s": 0, "x": 1, "y": 1}


def _planted_quads():
    from fcrepo3_rdf_extractor_ray.schema import quads_table
    rows = [
        ("g", "surf:entity7", "kg:worksWith", "surf:theentity7",
         False, "", "u1"),
        ("g", "surf:widget3", "kg:acquired", "surf:entity7",
         False, "", "u2"),
        ("g", "surf:acme", "kg:partnerOf", "surf:acmecorp",
         False, "", "u3"),
        ("g", "iri:s", "kg:basedIn", "lit", True, "", "u4"),
    ] * 5
    return quads_table(*zip(*rows))


def test_entity_map_auto_routes_above_threshold(ray_session):
    """Above the norm threshold, build_entity_map returns a mapping
    DATASET (no take_all anywhere) and resolve_quads produces the same
    quad set from it as from the driver dict (VERDICT r04 ask #8)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.sources.pages import build_alias_table
    from fcrepo3_rdf_extractor_ray.stages.canonicalize import (
        build_entity_map, resolve_quads)

    ds = rd.from_arrow(_planted_quads()).repartition(3)
    alias = build_alias_table()

    mapping = build_entity_map(ds, alias)
    assert isinstance(mapping, dict) and len(mapping) == 5
    want = resolve_quads(ds, mapping).take_all()

    # 5 distinct norms > threshold 2 -> the Dataset route
    auto = build_entity_map(ds, alias, driver_link_threshold=2)
    assert not isinstance(auto, dict)
    got = resolve_quads(ds, auto).take_all()

    key = lambda r: tuple(sorted(r.items()))
    assert sorted(map(key, got)) == sorted(map(key, want))

    # at/below threshold the dict route engages and matches too
    auto_small = build_entity_map(ds, alias, driver_link_threshold=5)
    assert auto_small == mapping


def test_entity_map_dict_above_threshold_uses_distributed_uf(ray_session):
    """build_entity_map's above-threshold branch routes linking +
    union-find through the distributed path; its (norm, label) rows
    match the driver union-find's dict."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.sources.pages import build_alias_table
    from fcrepo3_rdf_extractor_ray.stages.canonicalize import (
        build_entity_map)

    ds = rd.from_arrow(_planted_quads()).repartition(3)
    alias = build_alias_table()
    want = build_entity_map(ds, alias)
    got = build_entity_map(ds, alias, driver_link_threshold=2)
    assert {r["norm"]: r["label"] for r in got.take_all()} == want


def test_parse_boundary_fuzz(ray_session, sf_dir):
    """P4 hardening (VERDICT r04 ask #7): random byte mutations of real
    page html never escape the per-row containment boundary — the
    extraction stage never raises, its error counter accounts exactly
    for the rows whose parse failed, constant quads still appear for
    EVERY page (malformed included, the ObjectProcessor.java:172-176
    analog), and anchor extraction survives the same corpus."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.functions.textextract import (
        PageParseError, parse_page)
    from fcrepo3_rdf_extractor_ray.sources.pages import synthesize_pages
    from fcrepo3_rdf_extractor_ray.stages.extract import ExtractQuadsStage
    from fcrepo3_rdf_extractor_ray.stages.web import extract_links

    import glob
    import os
    pages_dir = synthesize_pages(sf_dir)
    f = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))[0]
    tbl = pq.read_table(f, columns=["url", "warc_ts", "html", "lang"])
    tbl = tbl.slice(0, 64)
    rng = np.random.RandomState(99)
    htmls = tbl["html"].to_pylist()
    mutated = []
    for i, h in enumerate(htmls):
        b = bytearray(h)
        kind = i % 4
        if kind == 1 and len(b) > 10:      # random byte flips
            for _ in range(5):
                b[rng.randint(len(b))] = rng.randint(256)
        elif kind == 2:                     # truncation
            b = b[:rng.randint(max(1, len(b)))]
        elif kind == 3 and len(b) > 20:     # splice a chunk elsewhere
            j, k = sorted(rng.randint(len(b), size=2))
            b = b[:j] + b[k:] + b[j:k]
        mutated.append(bytes(b))

    # (a) parse_page itself: only ParsedPage or a contained error type
    n_bad = 0
    for m in mutated:
        try:
            parse_page(m)
        except Exception as e:
            assert isinstance(e, PageParseError), type(e)
            n_bad += 1
    assert n_bad > 0  # the mutations really do break pages

    fuzz = pa.table({
        "url": tbl["url"], "warc_ts": tbl["warc_ts"],
        "html": pa.array(mutated, pa.binary()), "lang": tbl["lang"]})

    # (b) the extraction stage: never raises, counts exactly, constant
    # quads present for every page including the broken ones
    stage = ExtractQuadsStage(skip_empty_literals=False)
    out = stage(fuzz)
    assert stage.errors == n_bad
    by_src = out.to_pandas().groupby("src_url").size()
    assert set(by_src.index) == set(tbl["url"].to_pylist())
    assert (by_src >= 4).all()  # 4 constant quads per page minimum

    # (c) anchor extraction over the same fuzzed corpus (binary html,
    # invalid-UTF-8 rows included) + one planted anchored page: never
    # raises, bad rows contained, the good anchor still comes through
    planted = (b'<html><p>hi</p><a href="https://x.org/1">x</a>'
               b"</html>")
    links = extract_links(
        rd.from_arrow(pa.table({
            "doc_id": pa.array(np.arange(len(mutated) + 1,
                                         dtype=np.int64)),
            "html": pa.array(mutated + [planted], pa.binary())}))
        .repartition(3))
    got = links.to_pandas()
    assert set(got.columns) >= {"doc_id", "href", "link_no"}
    assert "https://x.org/1" in set(got["href"])


def test_warc_round_trip(ray_session, sf_dir, tmp_path):
    """WARC ingestion (the round-4 VERDICT's named gap): pages -> WARC
    shards (multi-member gzip) -> read_warc recovers the exact table;
    plain .warc round-trips too; corrupt bytes are contained."""
    from fcrepo3_rdf_extractor_ray.pipelines.kg import pages_for_sf
    from fcrepo3_rdf_extractor_ray.sources.warc import (read_warc,
                                                        write_warc_shards)

    pages = pages_for_sf(sf_dir)
    want = (pages.to_pandas()
            .sort_values("url").reset_index(drop=True))

    out_gz = str(tmp_path / "warc_gz")
    res = write_warc_shards(pages, out_gz, gzipped=True).to_pandas()
    assert res["n_records"].sum() == len(want)

    got = (read_warc(sorted(str(p) for p in
                            (tmp_path / "warc_gz").iterdir()))
           .to_pandas().sort_values("url").reset_index(drop=True))
    assert len(got) == len(want)
    assert (got["url"] == want["url"]).all()
    assert (got["warc_ts"] == want["warc_ts"]).all()
    assert (got["lang"] == want["lang"]).all()
    assert all(a == b for a, b in zip(got["html"], want["html"]))

    # plain (uncompressed) round-trip
    out_plain = str(tmp_path / "warc_plain")
    write_warc_shards(pages, out_plain, gzipped=False).to_pandas()
    got2 = (read_warc(sorted(str(p) for p in
                             (tmp_path / "warc_plain").iterdir()))
            .to_pandas())
    assert len(got2) == len(want)

    # containment: truncate one gz shard mid-stream -> reader yields a
    # prefix of its records and never raises
    import glob
    import os
    f = sorted(glob.glob(os.path.join(out_gz, "*.warc.gz")))[0]
    blob = open(f, "rb").read()
    bad = str(tmp_path / "bad.warc.gz")
    open(bad, "wb").write(blob[:len(blob) // 2])
    broken = read_warc([bad]).to_pandas()  # must not raise
    n_full = int(res.loc[res["path"] == f, "n_records"].iloc[0])
    assert len(broken) < n_full  # prefix of records, nothing invented


def test_warc_parse_byte_fuzz_contained():
    """P4 at the WARC boundary: seeded byte flips / truncations /
    splices over a valid multi-member-gzip shard never raise in
    ``_parse_warc_bytes`` and never invent records — yields are
    well-typed and no more numerous than the originals (a corrupted
    member degrades to a skip or a prefix, the same contract the
    page-parse fuzz pins for HTML)."""
    import gzip
    import random

    from fcrepo3_rdf_extractor_ray.sources.warc import (_parse_warc_bytes,
                                                        _warc_record)

    recs = [_warc_record(f"https://ex{i}.org/p/{i}", 1_700_000_000_000_000
                         + i * 1_000_000, f"<html>{i:04d}</html>".encode(),
                         "en") for i in range(8)]
    blob = b"".join(gzip.compress(r) for r in recs)
    n_orig = len(list(_parse_warc_bytes(blob)))
    assert n_orig == 8

    rng = random.Random(0x57A2C)
    for trial in range(200):
        data = bytearray(blob)
        kind = trial % 3
        if kind == 0:  # flip 1-8 bytes anywhere
            for _ in range(rng.randint(1, 8)):
                data[rng.randrange(len(data))] = rng.randrange(256)
        elif kind == 1:  # truncate anywhere
            data = data[:rng.randrange(1, len(data))]
        else:  # splice random garbage into the middle
            at = rng.randrange(len(data))
            data = (data[:at]
                    + bytes(rng.randrange(256) for _ in range(16))
                    + data[at:])
        out = list(_parse_warc_bytes(bytes(data)))  # must not raise
        assert len(out) <= n_orig + 1  # never invents a record stream
        for url, ts_us, html, lang in out:
            assert isinstance(url, str) and isinstance(ts_us, int)
            assert isinstance(html, (bytes, bytearray))


def test_warc_read_parallelism_survives_batched_consumer(
        ray_session, sf_dir, tmp_path):
    """REGRESSION: read_warc must be a true READ operator (one
    ReadTask per shard). Its first form — a ``map_batches`` over a
    path-list Dataset — legally FUSED with a downstream
    ``map_batches(batch_size=4096)`` (MapBatches reports
    ``can_modify_num_rows() == False``), so Ray bundled the *path*
    rows up to 4096 per task and the whole 176-shard x50 corpus parsed
    in ONE serial task (22 s instead of 1.7 s). Assert the read keeps
    one task per shard under exactly that consumer shape."""
    import glob
    import os
    import re

    from fcrepo3_rdf_extractor_ray.pipelines.kg import pages_for_sf
    from fcrepo3_rdf_extractor_ray.sources.warc import (read_warc,
                                                        write_warc_shards)

    out = str(tmp_path / "warc_par")
    write_warc_shards(pages_for_sf(sf_dir), out).to_pandas()
    paths = sorted(glob.glob(os.path.join(out, "*.warc.gz")))
    assert len(paths) > 1  # one shard per input block

    ds = (read_warc(paths)
          .map_batches(lambda t: t, batch_format="pyarrow",
                       batch_size=4096)
          .materialize())
    m = re.search(r"ReadWARC[^:]*: (\d+) tasks executed", ds.stats())
    assert m, ds.stats()[:500]
    assert int(m.group(1)) == len(paths)


def test_lenient_parser_real_world_html():
    """The lenient mode (trafilatura-class robustness gap): arbitrary
    attribute order/quoting, uppercase and unclosed tags, comments,
    missing </html>, broken bytes — never raises, still extracts."""
    from fcrepo3_rdf_extractor_ray.functions.textextract import (
        parse_page, parse_page_lenient)

    messy = (b"<HTML><head><!-- c --><META content='d1' NAME=keywords>"
             b'<meta property="og:title" content="OG">'
             b"<title>A <b>B</b></title></head>"
             b"<BODY class=x><NAV>skip me</NAV>"
             b"<DIV>Hello&amp;<br>world</DIV><p>tail")
    p = parse_page_lenient(messy)
    assert p.title == "A B"
    assert ("keywords", "d1") in p.metas and ("og:title", "OG") in p.metas
    assert p.text == "Hello&\nworld\ntail"
    # the strict parser rejects the same bytes (no </html>)
    import pytest as _pytest

    from fcrepo3_rdf_extractor_ray.functions.textextract import (
        PageParseError)
    with _pytest.raises(PageParseError):
        parse_page(messy)
    # totality: random bytes, empty, non-UTF8 — never raises
    for blob in (b"", bytes(range(256)), b"\xff\xfe<p>x</p>", b"<<<>>>"):
        parse_page_lenient(blob)


def test_lenient_stage_covers_every_row(ray_session, sf_dir):
    """extract_text_batch(lenient=True) yields one text row for EVERY
    page, including those the strict parser drops (the planted
    doc_id % 97 malformed pages)."""
    import glob
    import os

    import pyarrow.parquet as pq

    from fcrepo3_rdf_extractor_ray.sources.pages import synthesize_pages
    from fcrepo3_rdf_extractor_ray.stages.extract import extract_text_batch

    pages_dir = synthesize_pages(sf_dir)
    f = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))[0]
    tbl = pq.read_table(f, columns=["url", "html"]).slice(0, 128)
    strict = extract_text_batch(tbl)
    lenient = extract_text_batch(tbl, lenient=True)
    assert lenient.num_rows == tbl.num_rows > strict.num_rows
    # on well-formed pages the strict <p>-block main text is a PREFIX
    # of the lenient text (lenient keeps ALL block text, e.g. the
    # fact-classed paragraphs the strict contract excludes)
    s = dict(zip(strict["url"].to_pylist(), strict["text"].to_pylist()))
    l = dict(zip(lenient["url"].to_pylist(), lenient["text"].to_pylist()))
    agree = sum(1 for u in s if l[u].startswith(s[u]))
    assert agree >= 0.9 * len(s)


# ---------------------------------------------------------------- #
# duplicated_substrings — char-level ExactSubstr coverage           #
# ---------------------------------------------------------------- #

def _subs_ds(texts):
    import ray.data as rd

    return rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)])


def test_duplicated_substrings_planted(ray_session):
    """A 45-char passage shared by two docs at different offsets is
    reported in BOTH, as ONE merged span covering exactly the shared
    chars; a unique doc emits nothing; an internal repeat within a
    single doc fires too."""
    from fcrepo3_rdf_extractor_ray.stages.dedup import (
        duplicated_substrings)

    shared = "the quick brown fox jumps over the lazy dogge"  # 45 chars
    internal = "a" * 30  # 30-char run repeats internally -> self-dup
    # boundary chars around the shared passage DIFFER between the two
    # docs (":" / "_" / end-of-doc) so no duplicated window can extend
    # coverage past the passage itself
    texts = [
        "PREFIXONE:" + shared + ":SUFFIXONE",
        "longer other prefix_" + shared,
        "completely unique text with no repeats at all here",
        internal + " zzz unique middle part qqq " + internal,
    ]
    for path in ("broadcast", "join"):
        got = (duplicated_substrings(_subs_ds(texts), L=20,
                                     force_path=path)
               .to_pandas().set_index("doc_id").sort_index())
        # docs 0 and 1 each report one span of exactly len(shared)
        assert got.loc[0, "dup_chars"] == len(shared)
        assert got.loc[0, "n_spans"] == 1
        assert got.loc[1, "dup_chars"] == len(shared)
        assert got.loc[1, "n_spans"] == 1
        # unique doc absent
        assert 2 not in got.index
        # internal repeat: both 30-char runs covered, two spans
        assert got.loc[3, "n_spans"] == 2
        assert got.loc[3, "dup_chars"] == 60


def test_duplicated_substrings_paths_agree_and_short_docs(ray_session):
    """Forced broadcast and join paths are byte-equal on a corpus with
    short (< L) docs, empty docs, and adjacent-window merges."""
    import pandas as pd

    from fcrepo3_rdf_extractor_ray.stages.dedup import (
        duplicated_substrings)

    base = "x" * 19  # just below the window length -> never fires
    texts = [
        "", base, base,
        ("abcdefghijklmnopqrst" * 3) + " tail one",   # 60-char block
        "head two " + ("abcdefghijklmnopqrst" * 3),   # same block
    ]
    outs = {}
    for path in ("broadcast", "join"):
        outs[path] = (duplicated_substrings(_subs_ds(texts), L=20,
                                            force_path=path)
                      .to_pandas()
                      .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs["broadcast"], outs["join"])
    got = outs["broadcast"].set_index("doc_id")
    assert list(got.index) == [3, 4]  # short/empty docs never fire
    # the 60-char repeated block merges to one span in each doc
    assert (got["n_spans"] == 1).all()
    assert (got["dup_chars"] == 60).all()


# ---------------------------------------------------------------- #
# cdx_index — CDX companion index over WARC shards                  #
# ---------------------------------------------------------------- #

def test_cdx_range_read_round_trip(ray_session, sf_dir, tmp_path):
    """Every CDX (offset, length, filename) coordinate supports a true
    range read: slice exactly those bytes out of the shard, gunzip the
    member (or parse the raw record), and the payload's md5 equals the
    indexed digest — for BOTH the gzip and plain layouts. Plus the
    identity columns match the source pages."""
    import gzip
    import hashlib
    import os

    from fcrepo3_rdf_extractor_ray.pipelines.kg import pages_for_sf
    from fcrepo3_rdf_extractor_ray.sources.warc import (
        _next_record, _response_tuple, cdx_index, write_warc_shards)

    pages = pages_for_sf(sf_dir)
    want = pages.to_pandas().sort_values("url").reset_index(drop=True)

    for gzipped, sub in ((True, "gz"), (False, "plain")):
        out = str(tmp_path / f"cdx_{sub}")
        write_warc_shards(pages, out, gzipped=gzipped).materialize()
        paths = sorted(os.path.join(out, p) for p in os.listdir(out))
        cdx = (cdx_index(paths).to_pandas()
               .sort_values("url").reset_index(drop=True))
        assert len(cdx) == len(want)
        assert (cdx["url"] == want["url"]).all()
        assert (cdx["status"] == 200).all()
        assert (cdx["mime"] == "text/html").all()
        assert (cdx["payload_len"]
                == want["html"].map(len).to_numpy()).all()
        # urlkey is the SURT of the url
        assert (cdx["urlkey"]
                == "org,ex" + cdx["url"].str.extract(
                    r"ex(\d+)\.org/p/(\d+)")[0]
                + ")/p/" + cdx["url"].str.extract(
                    r"ex(\d+)\.org/p/(\d+)")[1]).all()
        # range-read every record on a sample of rows
        blobs = {p: open(p, "rb").read() for p in set(
            os.path.join(out, f) for f in cdx["filename"])}
        for _, r in cdx.iloc[:: max(1, len(cdx) // 64)].iterrows():
            raw = blobs[os.path.join(out, r["filename"])][
                r["offset"]:r["offset"] + r["length"]]
            rec_bytes = gzip.decompress(raw) if gzipped else raw
            rec = _next_record(rec_bytes, 0)
            assert rec is not None
            resp = _response_tuple(rec[2], rec[3])
            assert resp is not None and resp[0] == r["url"]
            assert hashlib.md5(resp[2]).hexdigest() == r["digest"]


def test_cdx_containment(ray_session, tmp_path):
    """A truncated shard degrades to an index prefix; a non-response
    record contributes no CDX row; a corrupt file yields an empty
    (schema-stable) block."""
    from fcrepo3_rdf_extractor_ray.sources.warc import (_cdx_file,
                                                        _warc_record)

    rec1 = _warc_record("https://a.org/x", 1_700_000_000_000_000,
                        b"<html>one</html>", "en")
    rec2 = _warc_record("https://b.org/y", 1_700_000_001_000_000,
                        b"<html>two</html>", "en")
    meta = (b"WARC/1.0\r\nWARC-Type: metadata\r\n"
            b"Content-Length: 5\r\n\r\nhello\r\n\r\n")
    f = str(tmp_path / "mix.warc")
    open(f, "wb").write(rec1 + meta + rec2)
    t = _cdx_file(f)
    assert t.num_rows == 2
    assert t["urlkey"].to_pylist() == ["org,a)/x", "org,b)/y"]
    # offsets really locate the records in the plain layout
    blob = open(f, "rb").read()
    o, ln = t["offset"].to_pylist(), t["length"].to_pylist()
    assert blob[o[0]:o[0] + ln[0]] == rec1
    assert blob[o[1]:o[1] + ln[1]] == rec2

    bad = str(tmp_path / "bad.warc")
    open(bad, "wb").write(rec1[: len(rec1) // 3])
    t2 = _cdx_file(bad)
    assert t2.num_rows == 0 and t2.schema.names == t.schema.names


# ---------------------------------------------------------------- #
# WET — extracted-text conversion records (.warc.wet)               #
# ---------------------------------------------------------------- #

def test_wet_round_trip_matches_extract(ray_session, sf_dir, tmp_path):
    """pages → write_wet_shards → read_wet reproduces exactly the
    (url, text) stream of extract_text_batch (malformed pages dropped
    by the writer, text byte-exact through the UTF-8 payload), and
    warc_ts survives at second granularity — for both layouts."""
    from fcrepo3_rdf_extractor_ray.pipelines.kg import pages_for_sf
    from fcrepo3_rdf_extractor_ray.sources.warc import (read_wet,
                                                        write_wet_shards)
    from fcrepo3_rdf_extractor_ray.stages.extract import extract_text_batch

    pages = pages_for_sf(sf_dir)
    want = (pages.map_batches(extract_text_batch, batch_format="pyarrow")
            .to_pandas().sort_values("url").reset_index(drop=True))
    ts_want = (pages.select_columns(["url", "warc_ts"]).to_pandas()
               .set_index("url")["warc_ts"])

    import os
    for gzipped, sub in ((True, "gz"), (False, "plain")):
        out = str(tmp_path / f"wet_{sub}")
        write_wet_shards(pages, out, gzipped=gzipped).materialize()
        paths = sorted(os.path.join(out, p) for p in os.listdir(out))
        assert all(p.endswith(".warc.wet.gz" if gzipped else ".warc.wet")
                   for p in paths)
        got = (read_wet(paths).to_pandas()
               .sort_values("url").reset_index(drop=True))
        assert (got["url"] == want["url"]).all()
        assert (got["text"] == want["text"]).all()
        # synthetic fetch times are whole seconds → lossless round trip
        assert (got.set_index("url")["warc_ts"]
                == ts_want.loc[got["url"]].values).all()


def test_wet_containment_and_cross_format(ray_session, tmp_path):
    """A WET reader skips response records mixed into the same file
    (and vice versa: read_warc skips conversion records); a truncated
    shard degrades to a prefix; a corrupt file yields an empty
    schema-stable block."""
    from fcrepo3_rdf_extractor_ray.sources.warc import (
        _parse_warc_file, _parse_wet_file, _warc_record, _wet_record)

    wet1 = _wet_record("https://a.org/x", 1_700_000_000_000_000, b"one")
    resp = _warc_record("https://b.org/y", 1_700_000_001_000_000,
                        b"<html>two</html>", "en")
    wet2 = _wet_record("https://c.org/z", 1_700_000_002_000_000, b"three")
    f = str(tmp_path / "mix.warc.wet")
    open(f, "wb").write(wet1 + resp + wet2)

    t = _parse_wet_file(f)
    assert t["url"].to_pylist() == ["https://a.org/x", "https://c.org/z"]
    assert t["text"].to_pylist() == ["one", "three"]
    w = _parse_warc_file(f)  # the mirror filter
    assert w["url"].to_pylist() == ["https://b.org/y"]

    trunc = str(tmp_path / "trunc.warc.wet")
    open(trunc, "wb").write(wet1 + wet2[: len(wet2) // 2])
    t2 = _parse_wet_file(trunc)
    assert t2["url"].to_pylist() == ["https://a.org/x"]

    bad = str(tmp_path / "bad.warc.wet")
    open(bad, "wb").write(b"\x00garbage\xff" * 10)
    t3 = _parse_wet_file(bad)
    assert t3.num_rows == 0 and t3.schema.names == t.schema.names


def test_jsonl_round_trip_adversarial(ray_session, tmp_path):
    """documents-shaped rows with adversarial content (newlines, quotes,
    unicode, control chars, 2^53+ ids) survive write_jsonl_shards →
    read_jsonl byte-exactly, for both gzip and plain layouts."""
    import os

    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.sources.jsonl import (read_jsonl,
                                                         write_jsonl_shards)

    texts = ['line\nbreak and "quotes"', "tab\there\\backslash",
             "émoji 🎉 中文", "ctrl\x01\x1f chars", "", "plain"]
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 9007199254740999, 5, 6], pa.int64()),
        "text": pa.array(texts),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    for gzipped, sub in ((True, "gz"), (False, "plain")):
        out = str(tmp_path / f"jl_{sub}")
        write_jsonl_shards(rd.from_arrow(t).repartition(3), out,
                           gzipped=gzipped).materialize()
        paths = sorted(os.path.join(out, p) for p in os.listdir(out))
        assert all(p.endswith(".jsonl.gz" if gzipped else ".jsonl")
                   for p in paths)
        assert len(paths) >= 2  # one file per block, no shared writer
        got = (read_jsonl(paths).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        want = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
        for c in ("doc_id", "text", "n_chars"):
            assert (got[c] == want[c]).all(), c


def test_jsonl_deterministic_and_empty_block(ray_session, tmp_path):
    """Shard bytes are deterministic for a given block (sorted keys,
    compact separators, ensure_ascii=False) and an empty block writes
    no file instead of an unparseable empty shard."""
    import glob
    import json

    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.sources.jsonl import write_jsonl_shards

    t = pa.table({"b_key": pa.array([2, 1]), "a_key": pa.array(["y", "x"])})
    out = str(tmp_path / "det")
    write_jsonl_shards(rd.from_arrow(t), out, gzipped=False).materialize()
    [path] = glob.glob(out + "/*.jsonl")
    lines = open(path, "rb").read().decode("utf-8").splitlines()
    assert lines == ['{"a_key":"y","b_key":2}', '{"a_key":"x","b_key":1}']
    assert all(list(json.loads(l)) == ["a_key", "b_key"] for l in lines)

    empty = rd.from_arrow(t.slice(0, 0))
    out2 = str(tmp_path / "empty")
    res = write_jsonl_shards(empty, out2, gzipped=False).materialize()
    assert res.count() == 0
    assert glob.glob(out2 + "/*.jsonl") == []


def _canonical_bpe(texts, n_merges):
    """Hand-rolled canonical BPE on the word vocabulary: explicit
    left-to-right non-overlapping pair merging over symbol LISTS (no
    string-replace encoding tricks) — the independent reference the
    engine and the SQL oracle must both match."""
    import collections
    import re

    words = collections.Counter(
        w for t in texts for w in re.findall(r"[a-z0-9]+", t.lower()))
    seqs = {w: list(w) for w in words}
    merges = []
    for _ in range(n_merges):
        counts = collections.Counter()
        for w, f in words.items():
            s = seqs[w]
            for i in range(len(s) - 1):
                counts[(s[i], s[i + 1])] += f
        if not counts:
            break
        (l, r), c = sorted(counts.items(),
                           key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))[0]
        merges.append((l, r, c))
        for w, s in seqs.items():
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == l and s[i + 1] == r:
                    out.append(l + r)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            seqs[w] = out
    return merges


def test_bpe_learn_matches_canonical(ray_session):
    """bpe_learn == canonical list-based BPE on a corpus planted with
    the adversarial shapes: same-symbol runs (aaaa -> aa aa, odd run
    aaa -> aa a), merged-symbol reuse (c+at after a+t), boundary-
    ambiguous neighbors (banana/bandana), and punctuation/case noise
    that the [a-z0-9]+ word rule must strip identically."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import bpe_learn

    texts = [
        "The cat sat on the mat!",
        "a cattle cat hat that mat",
        "banana bandana aaaa aaa the",
        "zzz zz zzzz abab ababab",
    ]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    got = bpe_learn(ds, n_merges=8)
    want = _canonical_bpe(texts, 8)
    assert list(got["rank"]) == list(range(1, len(want) + 1))
    assert [tuple(r) for r in got[
        ["left_sym", "right_sym", "pair_count"]].itertuples(index=False)
    ] == want


def test_bpe_learn_exhausted_pairs_stops_early(ray_session):
    """A corpus of single-character words has no adjacent pairs after
    zero merges: the learner returns an empty merge table instead of
    looping."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import bpe_learn

    ds = rd.from_items([{"doc_id": 0, "text": "a b c a b"}])
    got = bpe_learn(ds, n_merges=4)
    assert len(got) == 0
    assert list(got.columns) == ["rank", "left_sym", "right_sym",
                                 "pair_count"]


def test_parse_robots_grouping_and_shapes():
    """Real-parser shapes: non-* groups excluded, stacked User-agent
    headers, inline comments, case-insensitive directive names, empty
    Disallow dropped (allow-all), bad crawl-delay ignored."""
    from fcrepo3_rdf_extractor_ray.stages.web import parse_robots

    text = "\n".join([
        "# header comment",
        "User-agent: googlebot",
        "Disallow: /nobots",
        "",
        "User-agent: bingbot",
        "User-agent: *",          # stacked header: both name the group
        "CRAWL-DELAY: 3",
        "DisAllow: /a  # inline comment",
        "allow: /a/b",
        "Disallow:",              # empty -> allow-all, dropped
        "Crawl-delay: soon",      # later bad value ignored
        "",
        "User-agent: duckbot",
        "Disallow: /c",
    ])
    rules, delay = parse_robots(text)
    assert rules == [("disallow", "/a"), ("allow", "/a/b")]
    assert delay == 3
    rules_g, _ = parse_robots(text, agent="googlebot")
    assert rules_g == [("disallow", "/nobots")]


def test_robots_longest_match_and_tie(ray_session):
    """Longest-prefix rule wins; an equal-length allow beats disallow;
    no match defaults to allowed; rules from a foreign agent group
    never apply."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import RobotsStage

    stage = RobotsStage()
    stage._cache["h.org"] = ([("disallow", "/a"), ("allow", "/a/b"),
                              ("disallow", "/t"), ("allow", "/t")], 7)
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "url_canon": pa.array([
            "https://h.org/a/x",    # disallow:/a
            "https://h.org/a/b/x",  # allow:/a/b (longer)
            "https://h.org/t/x",    # tie at len 2 -> allow wins
            "https://h.org/z",      # no match -> default
        ]),
    })
    out = stage(t).to_pandas().set_index("doc_id")
    assert list(out["allowed"]) == [False, True, True, True]
    assert list(out["rule"]) == ["disallow:/a", "allow:/a/b",
                                 "allow:/t", "default"]
    assert set(out["crawl_delay"]) == {7}


def test_robots_filter_end_to_end(ray_session):
    """robots_filter over a tiny messy-url corpus: canonicalization
    feeds the stage (ports/fragments stripped), and the per-host
    template verdicts land exactly."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import robots_filter

    ds = rd.from_items([
        # host ex0.org (m=0): Disallow /p/1, Allow /p/12
        {"doc_id": 1, "url": "https://ex0.org:443/p/1/"},
        {"doc_id": 12, "url": "HTTPS://EX0.ORG/p/12#sec"},
        {"doc_id": 2, "url": "https://ex0.org/p/2"},
        # host ex1.org (m=1): Disallow /p/, Allow /p/7
        {"doc_id": 7, "url": "https://ex1.org/p/7"},
        {"doc_id": 8, "url": "https://ex1.org/p/8"},
        # host ex2.org (m=2): no page rules
        {"doc_id": 9, "url": "https://ex2.org/p/9"},
    ])
    out = robots_filter(ds).to_pandas().set_index("doc_id")
    assert out.loc[1, "allowed"] == False          # noqa: E712
    assert out.loc[12, "allowed"] == True          # noqa: E712
    assert out.loc[12, "rule"] == "allow:/p/12"
    assert out.loc[2, "allowed"] == True           # noqa: E712
    assert out.loc[2, "rule"] == "default"
    assert out.loc[7, "allowed"] == True           # noqa: E712
    assert out.loc[8, "allowed"] == False          # noqa: E712
    assert out.loc[8, "rule"] == "disallow:/p/"
    assert out.loc[9, "rule"] == "default"
    assert out.loc[1, "crawl_delay"] == 1 and out.loc[7, "crawl_delay"] == 2


def test_search_topk_matches_bruteforce_across_blocks(ray_session):
    """Per-block partial top-k never loses a global winner (any global
    top-k doc is in its own block's top-k): force many tiny blocks and
    compare against a single-process brute-force ranking, including
    deterministic tie-break on equal scores."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import search_topk

    rows = []
    for i in range(60):
        # identical text per residue class -> massed score ties; the
        # tie-break (score DESC, doc_id ASC) must pick the lowest ids
        rows.append({"doc_id": i,
                     "text": ["hash join", "vector scan scan",
                              "sort merge window the data"][i % 3]})
    ds = rd.from_items(rows).repartition(20)  # ~3 rows per block
    got = (search_topk(ds, k=5).to_pandas()
           .sort_values(["qid", "rank"]).reset_index(drop=True))

    # brute force with the same formula, one process
    import collections

    import numpy as np
    from fcrepo3_rdf_extractor_ray.stages.text_analysis import \
        SEARCH_QUERIES

    texts = {r["doc_id"]: r["text"].split(" ") for r in rows}
    N = len(rows)
    dl = {d: len(t) for d, t in texts.items()}
    avgdl = sum(dl.values()) / N
    terms = sorted({t for _, ts in SEARCH_QUERIES for t in ts})
    df = {t: sum(1 for x in texts.values() if t in x) for t in terms}
    want = []
    for qid, ts in SEARCH_QUERIES:
        scores = []
        for d, toks in texts.items():
            c = collections.Counter(toks)
            if not any(c[t] for t in ts):
                continue
            s = 0
            for t in ts:
                tf = float(c[t])
                idf = (N - df[t] + 0.5) / (df[t] + 0.5)
                tfn = (tf * 2.2) / (tf + 1.2 * ((1 - 0.75)
                                                + (0.75 * dl[d]) / avgdl))
                s += int(np.floor((1000000.0 * idf) * tfn))
            scores.append((d, s))
        scores.sort(key=lambda x: (-x[1], x[0]))
        for rank, (d, s) in enumerate(scores[:5], 1):
            want.append((qid, rank, d, s))
    got_t = [tuple(r) for r in got[["qid", "rank", "doc_id",
                                    "score_micro"]].itertuples(index=False)]
    assert got_t == want


def test_bgp_join_distinct_and_cross_block(ray_session):
    """BGP ?a p1 ?b . ?b p2 ?c: duplicate assertions collapse, bindings
    for one b meet across blocks (repartitioned so the two sides of a b
    land in different input blocks), cross-product bindings per b are
    complete, non-matching predicates ignored."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.graph import bgp_join

    rows = []
    # b1: two acquirers x two locations -> 4 bindings
    for a in ("a1", "a2"):
        rows += [{"subj": a, "pred": "kg:acquired", "obj": "b1"}] * 3
    for c in ("c1", "c2"):
        rows.append({"subj": "b1", "pred": "kg:basedIn", "obj": c})
    # b2: acquired but no location -> no binding
    rows.append({"subj": "a3", "pred": "kg:acquired", "obj": "b2"})
    # b3: located but never acquired -> no binding
    rows.append({"subj": "b3", "pred": "kg:basedIn", "obj": "c3"})
    # noise predicate sharing entities
    rows.append({"subj": "a1", "pred": "kg:worksWith", "obj": "b1"})
    got = (bgp_join(rd.from_items(rows).repartition(8)).to_pandas()
           .sort_values(["a", "b", "c"]).reset_index(drop=True))
    want = [("a1", "b1", "c1"), ("a1", "b1", "c2"),
            ("a2", "b1", "c1"), ("a2", "b1", "c2")]
    assert [tuple(r) for r in got.itertuples(index=False)] == want


def test_rdfs_type_closure_ancestors(ray_session):
    """Every entity carries its asserted class plus the full ancestor
    chain of the binary-heap tree (c5 -> c2 -> c0); skolem/non-entity
    nodes are excluded; duplicates across facts collapse."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import rdfs_type_closure

    rows = [
        {"subj": "ent:e5", "pred": "kg:acquired", "obj": "ent:e12"},
        {"subj": "ent:e5", "pred": "kg:worksWith", "obj": "ent:e12"},
        {"subj": "ent:e0", "pred": "kg:basedIn", "obj": "ent:sk:widget3"},
    ]
    got = (rdfs_type_closure(rd.from_items(rows)).to_pandas()
           .sort_values(["subj", "type"]).reset_index(drop=True))
    want = [
        ("ent:e0", "cls:c0"),                                # e0 -> c0
        ("ent:e12", "cls:c0"), ("ent:e12", "cls:c2"),
        ("ent:e12", "cls:c5"),                               # 12%7=5
        ("ent:e5", "cls:c0"), ("ent:e5", "cls:c2"),
        ("ent:e5", "cls:c5"),                                # 5%7=5
    ]
    assert [tuple(r) for r in got.itertuples(index=False)] == want


def test_term_dictionary_dense_lexicographic(ray_session):
    """Dense 1-based ids in exact lexicographic order across many
    buckets, duplicate terms across columns and rows collapse, and
    same-8-byte-prefix terms (which share a range bucket) still order
    by the full string."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import term_dictionary

    rows = []
    for i in range(40):
        rows.append({"graph": "kg:web",
                     "subj": f"ent:e{i % 7}",
                     "pred": "kg:worksWith",
                     # shared 8-byte prefix, differs after byte 8:
                     "obj": f"longprefix{i:03d}"})
    got = (term_dictionary(rd.from_items(rows).repartition(6),
                           n_buckets=16).to_pandas()
           .sort_values("tid").reset_index(drop=True))
    terms = sorted({"kg:web", "kg:worksWith"}
                   | {f"ent:e{i % 7}" for i in range(40)}
                   | {f"longprefix{i:03d}" for i in range(40)})
    assert list(got["term"]) == terms
    assert list(got["tid"]) == list(range(1, len(terms) + 1))


def test_encode_quads_roundtrip(ray_session):
    """Encoding then decoding through the dictionary reproduces the
    original quads exactly (ids are consistent across all four columns
    and across blocks)."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import (encode_quads,
                                                        term_dictionary)

    rows = [{"graph": "kg:web", "subj": f"ent:e{i % 5}",
             "pred": ["kg:worksWith", "kg:acquired"][i % 2],
             "obj": f"ent:e{(i * 3) % 7}"} for i in range(30)]
    quads = rd.from_items(rows).repartition(5).materialize()
    dict_df = term_dictionary(quads).to_pandas()
    enc = encode_quads(quads).to_pandas()
    assert len(enc) == 30
    inv = dict_df.set_index("tid")["term"]
    dec = pd.DataFrame({
        "graph": enc["g_id"].map(inv), "subj": enc["s_id"].map(inv),
        "pred": enc["p_id"].map(inv), "obj": enc["o_id"].map(inv)})
    key = ["graph", "subj", "pred", "obj"]
    got = dec.sort_values(key).reset_index(drop=True)
    want = (pd.DataFrame(rows)[key].sort_values(key)
            .reset_index(drop=True))
    assert got.equals(want)


def test_nquads_parse_escapes_and_shapes():
    """Single-pass unescaping: '\\\\n' decodes to backslash+n (chained
    global replaces get this wrong), '\\n' to newline; literals may
    contain '> <' and fake graph tails; IRIs and typed literals split
    correctly; malformed lines raise or skip per on_error."""
    import pandas as pd
    import pytest as _pytest

    from fcrepo3_rdf_extractor_ray.sources.nquads import \
        parse_nquads_lines

    lines = pd.Series([
        '<s1> <p> <o1> <g> .',
        '<s2> <p> "plain" <g> .',
        '<s3> <p> "a\\nb" <g> .',            # newline
        '<s4> <p> "a\\\\nb" <g> .',          # backslash + n
        '<s5> <p> "say \\"hi\\"" <g> .',
        '<s6> <p> "evil > <g2> . tail" <g> .',
        '<s7> <p> "2024"^^<xsd:gYear> <g> .',
    ])
    out = parse_nquads_lines(lines).set_index("subj")
    assert out.loc["s1", "obj"] == "o1" and not out.loc[
        "s1", "obj_is_literal"]
    assert out.loc["s3", "obj"] == "a\nb"
    assert out.loc["s4", "obj"] == "a\\nb"
    assert out.loc["s5", "obj"] == 'say "hi"'
    assert out.loc["s6", "obj"] == "evil > <g2> . tail"
    assert out.loc["s6", "graph"] == "g"
    assert out.loc["s7", "obj_datatype"] == "xsd:gYear"
    assert out["obj_is_literal"].sum() == 6

    bad = pd.Series(["not a quad line"])
    with _pytest.raises(ValueError):
        parse_nquads_lines(bad)
    assert len(parse_nquads_lines(bad, on_error="skip")) == 0


def test_nquads_sink_source_roundtrip(ray_session, tmp_path):
    """Write nasty literals through the real K1 sink, read them back
    with read_nquads: byte-exact round-trip including the three escape
    classes and typed literals."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import materialize_sorted
    from fcrepo3_rdf_extractor_ray.sources.nquads import read_nquads

    rows = [
        {"graph": "kg:web", "subj": "ent:a", "pred": "kg:title",
         "obj": 'line1\nline2 "q" back\\slash \\n literal',
         "obj_is_literal": True, "obj_datatype": ""},
        {"graph": "kg:web", "subj": "ent:b", "pred": "kg:fetchedAt",
         "obj": "2026-01-01T00:00:00Z", "obj_is_literal": True,
         "obj_datatype": "http://www.w3.org/2001/XMLSchema#dateTime"},
        {"graph": "kg:web", "subj": "ent:c", "pred": "kg:worksWith",
         "obj": "ent:d", "obj_is_literal": False, "obj_datatype": ""},
    ]
    out = str(tmp_path / "nq")
    materialize_sorted(rd.from_items(rows), out, write_nquads=True)
    got = (read_nquads(out + "/nquads").to_pandas()
           .sort_values("subj").reset_index(drop=True))
    want = (pd.DataFrame(rows)[got.columns.tolist()]
            .sort_values("subj").reset_index(drop=True))
    assert got.equals(want)


def test_encode_quads_paths_equivalent(ray_session):
    """Broadcast lookup (default at test scale) and the 4x
    co-partitioned join path produce identical encodings."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import (encode_quads,
                                                        term_dictionary)

    rows = [{"graph": "kg:web", "subj": f"ent:e{i % 5}",
             "pred": ["kg:worksWith", "kg:acquired"][i % 2],
             "obj": f"ent:e{(i * 3) % 7}"} for i in range(40)]
    quads = rd.from_items(rows).repartition(4).materialize()
    d = term_dictionary(quads).materialize()
    key = ["g_id", "s_id", "p_id", "o_id"]
    a = (encode_quads(quads, dict_ds=d).to_pandas()
         .sort_values(key).reset_index(drop=True))
    b = (encode_quads(quads, dict_ds=d, broadcast_max_terms=0)
         .to_pandas().sort_values(key).reset_index(drop=True))
    assert a.equals(b)


def test_bpe_segment_counts(ray_session):
    """Piece counts match a per-word canonical BPE application: 'aaaa'
    with merge (a,a) is 2 pieces, a word repeated in a doc is counted
    per occurrence, empty-word docs drop."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.text_analysis import (
        bpe_learn, bpe_segment)

    texts = ["aaaa aaaa aa b", "aaaa!", "..."]
    ds = rd.from_items([{"doc_id": i, "text": t}
                        for i, t in enumerate(texts)])
    merges = bpe_learn(ds, n_merges=1)
    assert [tuple(r) for r in merges[["left_sym", "right_sym"]]
            .itertuples(index=False)] == [("a", "a")]
    got = (bpe_segment(ds, merges=merges).to_pandas()
           .set_index("doc_id"))
    # doc0: aaaa->2 pieces x2, aa->1, b->1 => 4 words, 6 pieces
    assert tuple(got.loc[0]) == (4, 6)
    assert tuple(got.loc[1]) == (1, 2)
    assert 2 not in got.index  # no [a-z0-9] words -> dropped


def test_sitemap_parse_and_coverage(ray_session):
    """parse_sitemap entity-decodes locs; sitemap_coverage classifies
    both/crawled_only/sitemap_only per host, query-param urls round-trip
    through the XML escaping."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.stages.web import (parse_sitemap,
                                                      sitemap_coverage)

    assert parse_sitemap(
        "<urlset><url><loc>\n  https://h/p?a=1&amp;b=2 \n</loc></url>"
        "<url><loc>https://h/&lt;x&gt;</loc></url></urlset>"
    ) == ["https://h/p?a=1&b=2", "https://h/<x>"]

    # doc ids on host ex0.org: 0,20,40,60 -> listed iff (d//20)%3 != 0
    rows = [{"doc_id": d, "url": f"https://ex0.org/p/{d}?b=2&a=1"}
            for d in (0, 20, 40, 60)]
    out = (sitemap_coverage(rd.from_items(rows)).to_pandas()
           .set_index("url")["status"])
    assert out["https://ex0.org/p/0?a=1&b=2"] == "crawled_only"  # 0//20=0
    assert out["https://ex0.org/p/20?a=1&b=2"] == "both"
    assert out["https://ex0.org/p/40?a=1&b=2"] == "both"
    assert out["https://ex0.org/p/60?a=1&b=2"] == "crawled_only"  # 3%3=0
    assert out["https://ex0.org/extra/0"] == "sitemap_only"
    assert len(out) == 5


def test_kg_delta_multi_source_survival(ray_session):
    """A quad asserted by several pages survives a partial retraction
    (kept); it is removed only when its last source goes; B-only quads
    classify as added."""
    import ray.data as rd

    from fcrepo3_rdf_extractor_ray.pipelines.kg import kg_delta

    def q(s, p, o):
        return {"graph": "kg:web", "subj": s, "pred": p, "obj": o,
                "obj_is_literal": False, "obj_datatype": ""}

    a = rd.from_items([q("e1", "p", "x"), q("e1", "p", "x"),  # dup in A
                       q("e2", "p", "y"), q("e3", "p", "z")])
    b = rd.from_items([q("e1", "p", "x"),                     # survives
                       q("e3", "p", "z"), q("e4", "p", "w")])  # new
    got = (kg_delta(a, b).to_pandas()
           .set_index("subj")["status"].to_dict())
    assert got == {"e1": "kept", "e2": "removed", "e3": "kept",
                   "e4": "added"}


from hypothesis import given, settings
from hypothesis import strategies as st

_lit = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
        st.sampled_from('\\"\n[]<>&^ .')),
    min_size=0, max_size=60)


@settings(max_examples=150, deadline=None)
@given(_lit)
def test_nquads_literal_escape_roundtrip_property(lex):
    """PROPERTY: any literal (sans bare carriage returns, which the
    line-oriented sink does not escape) survives the sink's escape →
    the reader's single-pass unescape byte-exactly — including
    adversarial mixes of backslashes, quotes, newlines, angle brackets
    and fake datatype tails."""
    import pandas as pd

    esc = (lex.replace("\\", "\\\\").replace('"', '\\"')
           .replace("\n", "\\n"))
    line = f'<s> <p> "{esc}" <g> .'
    out = __import__(
        "fcrepo3_rdf_extractor_ray.sources.nquads",
        fromlist=["parse_nquads_lines"]).parse_nquads_lines(
        pd.Series([line]))
    assert len(out) == 1
    assert out["obj"].iloc[0] == lex
    assert bool(out["obj_is_literal"].iloc[0])


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_robots_parser_total_property(text):
    """PROPERTY: parse_robots never raises on arbitrary text and always
    returns well-formed ((kind, nonempty-prefix) rules, int delay)."""
    from fcrepo3_rdf_extractor_ray.stages.web import parse_robots

    rules, delay = parse_robots(text)
    assert isinstance(delay, int)
    for kind, prefix in rules:
        assert kind in ("allow", "disallow") and prefix


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_nquads_skip_mode_total_property(noise):
    """PROPERTY: on_error='skip' never raises on arbitrary single-line
    noise (multi-line text is what read_text would have split)."""
    import pandas as pd

    from fcrepo3_rdf_extractor_ray.sources.nquads import \
        parse_nquads_lines

    for line in noise.splitlines() or [noise]:
        out = parse_nquads_lines(pd.Series([line], dtype=object),
                                 on_error="skip")
        assert len(out) <= 1
