"""Text-analysis operators over a documents table (training-data ops).

All are vectorized ``map_batches`` stages; heuristics are deliberately
simple, deterministic, and SQL-mirrorable so the driver's DuckDB oracle
can verify them exactly (the oracles live in __ray_entry__.py).

- ``token_counts`` — whitespace token counting.
- ``quality_scores`` — length / punctuation-ratio / stopword-ratio /
  type-token-ratio quality signals.
- ``lang_id`` — marker-word n-gram heuristic (argmax over per-language
  stopword hit counts; deterministic tie-break by language code).
- ``fingerprints`` — md5 content fingerprint (exact, SQL-mirrorable) +
  Karp-Rabin rolling token-stream hash (order-sensitive; rows-only
  check since SQL cannot express it).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.hashing import rolling_fingerprint

# marker words per language, for the lang-id heuristic (tiny closed sets
# so the DuckDB oracle can mirror with regexp counts)
LANG_MARKERS = {
    "en": ("the", "and", "of"),
    "de": ("der", "und", "das"),
    "fr": ("le", "et", "les"),
    "es": ("el", "y", "los"),
}
LANG_FALLBACK = "unk"


def _tokens(s: str) -> list[str]:
    return s.split()


def _split_flat(texts) -> tuple[np.ndarray, np.ndarray]:
    """``split(" ")`` in Arrow: (per-doc token counts int64, flattened
    token object array). Replaces the ``Series.str.split`` +
    ``Series.map(len)`` + ``np.concatenate`` idiom — the split, the
    lengths and the flatten all stay in C, and no per-row Python list
    is ever materialized. Exact ``str.split(" ")`` parity (empties
    kept: '' → [''])."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = pc.split_pattern(pa.array(texts, pa.string()), " ")
    lens = pc.list_value_length(arr).to_numpy().astype(np.int64)
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return lens, flat


def token_counts(docs_ds, text_col="text", id_col="doc_id"):
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].str.split()
        return pd.DataFrame({
            id_col: df[id_col],
            "n_tokens": toks.str.len().fillna(0).astype("int64"),
        })

    return docs_ds.map_batches(fn, batch_format="pandas")


# GPT-2-style pre-tokenizer, restricted to RE2-portable ASCII classes so
# the Arrow kernel (RE2) and the DuckDB oracle (RE2) match byte-for-byte:
# a piece is an optional-leading-space letter run, digit run, or
# punctuation run, or a bare space run — the BPE *pre*-split (merges
# happen inside pieces, so piece counts bound BPE token counts).
BPE_PIECE_RE = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 ]+| +"


def token_counts_bpe(docs_ds, text_col="text", id_col="doc_id"):
    """BPE-ish token counting: whitespace tokens AND pre-tokenizer piece
    counts per doc, both as pure Arrow kernels (count_substring_regex is
    RE2 — zero Python per row, no shuffle)."""
    ws_re = r"[^ ]+"

    def fn(t: pa.Table) -> pa.Table:
        s = pc.cast(t[text_col], pa.string())
        return pa.table({
            id_col: t[id_col],
            "n_ws": pc.cast(pc.count_substring_regex(s, ws_re), pa.int64()),
            "n_pieces": pc.cast(pc.count_substring_regex(s, BPE_PIECE_RE),
                                pa.int64()),
        })

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def quality_frame(text: pd.Series) -> pd.DataFrame:
    """Per-doc quality signals for a RangeIndex'd text Series; ratios
    in micro-units (×1e6, floored to int64) so engine/oracle compare
    exactly without float-hash drift. Shared by ``quality_scores`` and
    the per-host quality profile (stages/web.host_quality_profile)."""
    n_chars = text.str.len().astype("int64")
    toks = text.str.split()
    n_tokens = toks.str.len().fillna(0).astype("int64")
    # distinct/stopword counts via one explode + C-level groupbys
    # (was a per-row Python set/loop lambda)
    ex = toks.explode().dropna()
    n_distinct = (ex.groupby(level=0).nunique()
                  .reindex(text.index).fillna(0).astype("int64"))
    stop = (ex.isin(("the", "a", "and", "of")).groupby(level=0).sum()
            .reindex(text.index).fillna(0).astype("int64"))
    ttr = np.floor(1e6 * n_distinct / n_tokens.clip(lower=1)).astype("int64")
    stop_ratio = np.floor(1e6 * stop / n_tokens.clip(lower=1)).astype("int64")
    return pd.DataFrame({
        "n_chars_m": n_chars,
        "n_tokens": n_tokens,
        "ttr_micro": ttr,
        "stopword_micro": stop_ratio,
    })


def quality_scores(docs_ds, text_col="text", id_col="doc_id"):
    """Quality signals per document (see ``quality_frame``)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        out = quality_frame(df[text_col])
        out.insert(0, id_col, df[id_col])
        return out

    return docs_ds.map_batches(fn, batch_format="pandas")


def lang_id(docs_ds, text_col="text", id_col="doc_id"):
    """Deterministic language-ID: argmax of marker-word counts; ties and
    zero-hit rows → 'unk'. Strict-majority rule keeps the SQL mirror
    simple (greatest-of over counts)."""

    langs = sorted(LANG_MARKERS)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        ex = df[text_col].str.split().explode().dropna()
        scores = {}
        for lang in langs:
            # marker hits with multiplicity, one isin + groupby per lang
            scores[lang] = (ex.isin(LANG_MARKERS[lang])
                            .groupby(level=0).sum()
                            .reindex(df.index).fillna(0).astype("int64"))
        S = pd.DataFrame(scores)
        best = S.max(axis=1)
        # unique argmax required; ties → unk (deterministic)
        is_unique = (S.eq(best, axis=0).sum(axis=1) == 1) & (best > 0)
        pred = S.idxmax(axis=1).where(is_unique, LANG_FALLBACK)
        return pd.DataFrame({id_col: df[id_col], "lang_pred": pred})

    return docs_ds.map_batches(fn, batch_format="pandas")


_ROLL_MEMO: dict = {}  # per-worker-process token-hash memo


def _roll_memo(cap: int = 1_000_000) -> dict:
    # same cap-and-clear guard as dedup._worker_memo: long-lived Ray
    # workers over high-vocabulary corpora must not grow this unbounded
    if len(_ROLL_MEMO) > cap:
        _ROLL_MEMO.clear()
    return _ROLL_MEMO


def fingerprints(docs_ds, text_col="text", id_col="doc_id"):
    """md5 hex fingerprint (SQL-exact) + rolling Karp-Rabin token hash over
    md5-prefix token hashes — BOTH columns now replay exactly in DuckDB
    (``oracle_sql()['ta_fingerprint_rolling']`` is a recursive-CTE fold).

    HASH-FAMILY NOTE: ``fp_rolling`` switched from the SipHash Karp-Rabin
    family to the md5-prefix family when the exact oracle landed (round 3);
    fingerprints persisted by pre-round-3 runs do not compare equal. The
    SipHash family remains available via
    ``functions.hashing.rolling_fingerprint`` for callers pinned to the
    old values (break recorded in BASELINE.md)."""
    import hashlib

    from ..functions.hashing import md5_rolling_fingerprint

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        memo = _roll_memo()
        return pd.DataFrame({
            id_col: df[id_col],
            "fp_md5": [hashlib.md5(t.encode("utf-8")).hexdigest()
                       for t in df[text_col]],
            # mod 2^61-1 < int64 max, fits signed directly
            "fp_rolling": [np.int64(md5_rolling_fingerprint(_tokens(t),
                                                            memo))
                           for t in df[text_col]],
        })

    return docs_ds.map_batches(fn, batch_format="pandas")


def train_val_test_split(docs_ds, val_pct: int = 2, test_pct: int = 2,
                         text_col="text", id_col="doc_id"):
    """Deterministic CONTENT-ADDRESSED train/val/test assignment — the
    dataset-split primitive of a training pipeline. Bucket = first 8
    md5 hex chars of the text mod 100 (stable under re-ingestion,
    re-sharding and doc-id reassignment, and exactly replayable in
    DuckDB, the same hash idiom as ``ta_resample``); the top
    ``test_pct`` buckets are test, the next ``val_pct`` are val.
    Stateless map_batches, no shuffle; texts are factorized first so
    md5 (the published contract) runs once per DISTINCT text — on
    dup-heavy corpora the hash cost collapses to the unique count."""
    import hashlib

    train_hi = 100 - val_pct - test_pct
    val_hi = 100 - test_pct

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        codes, uniques = pd.factorize(df[text_col], sort=False)
        ub = np.fromiter(
            (int(hashlib.md5(t.encode("utf-8")).hexdigest()[:8], 16) % 100
             for t in uniques), dtype=np.int64, count=len(uniques))
        b = ub[codes]
        split = np.where(b < train_hi, "train",
                         np.where(b < val_hi, "val", "test"))
        return pd.DataFrame({id_col: df[id_col],
                             "bucket": b,
                             "split": split})

    return docs_ds.map_batches(fn, batch_format="pandas")


def normalize_texts(docs_ds, text_col="text", id_col="doc_id"):
    """Text CLEANING / canonicalization: Unicode NFC + lowercase +
    ASCII-whitespace collapse + trim — the standard pre-tokenization
    normalizer of a training-data pipeline. Stateless map_batches; the
    ASCII ``\\s`` class (``re.ASCII``) mirrors DuckDB/RE2 semantics so
    the SQL oracle (nfc_normalize + lower + regexp_replace) compares
    byte-for-byte."""
    import re
    import unicodedata

    ws = re.compile(r"\s+", re.ASCII)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col],
            "text_norm": [
                ws.sub(" ", unicodedata.normalize("NFC", t).lower()).strip()
                for t in df[text_col]],
        })

    return docs_ds.map_batches(fn, batch_format="pandas")


def regex_extract_stats(docs_ds, text_col="text", id_col="doc_id",
                        extract_pat: str = r"(?P<m>s[a-z]+)",
                        count_pat: str = "table"):
    """Vectorized REGEX extraction over the corpus — the
    pattern-mining / PII-scrub / structured-field-pull primitive.
    Pure Arrow kernels (`pc.extract_regex` + `pc.count_substring_regex`,
    both RE2) — zero Python per row; no shuffle at all. Null (no match)
    is canonicalized to '' to mirror DuckDB's regexp_extract."""
    import pyarrow.compute as pc

    group = extract_pat.split("?P<", 1)[1].split(">", 1)[0]

    def fn(t: pa.Table) -> pa.Table:
        s = pc.cast(t[text_col], pa.string())
        first = pc.struct_field(pc.extract_regex(s, extract_pat), group)
        return pa.table({
            id_col: t[id_col],
            "first_match": pc.fill_null(first, ""),
            "n_count": pc.cast(pc.count_substring_regex(s, count_pat),
                               pa.int64()),
        })

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def chunk_documents(docs_ds, chunk_tokens: int = 32, stride: int = 24,
                    text_col="text", id_col="doc_id"):
    """Sliding-window document CHUNKING — the context-window splitter of
    an LLM training pipeline: each doc explodes into overlapping chunks
    of ≤ ``chunk_tokens`` whitespace tokens, windows starting every
    ``stride`` tokens (overlap = chunk_tokens − stride). Deterministic
    boundaries (token index arithmetic, no model), so the chunk text is
    SQL-reconstructable. Stateless explode; chunk rows carry their token
    count so downstream packing can bin-pack without re-tokenizing."""
    assert 0 < stride <= chunk_tokens

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ids, nos, texts, ntok = [], [], [], []
        for i, text in zip(df[id_col], df[text_col]):
            toks = text.split()
            m = len(toks)
            for c, s in enumerate(range(0, max(m, 1), stride)):
                window = toks[s:s + chunk_tokens]
                ids.append(i)
                nos.append(c)
                texts.append(" ".join(window))
                ntok.append(len(window))
        return pd.DataFrame({
            id_col: pd.array(ids, dtype="int64"),
            "chunk_no": pd.array(nos, dtype="int64"),
            "chunk_text": texts,
            "n_tokens": pd.array(ntok, dtype="int64"),
        })

    return docs_ds.map_batches(fn, batch_format="pandas")


def vocab_top_terms(docs_ds, k: int = 100, text_col="text",
                    n_parts: int | None = None):
    """Distributed word count → global top-k terms: the vocabulary /
    term-frequency builder every corpus pipeline needs.

    Shape: per-batch vectorized explode + PARTIAL counts (the combiner —
    the shuffle moves one row per distinct token per batch, never one
    per occurrence) → token-hash partition → one vectorized Arrow
    group_by per partition → tiny global sort+limit over the vocabulary.
    Ties at the k-boundary break (count DESC, token ASC), matching the
    SQL oracle."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].str.split().explode().dropna()
        counts = toks.value_counts()
        tokens = counts.index.to_numpy(dtype=object)
        part = fast_part_hash(list(tokens), n_parts)
        return pd.DataFrame({
            "token": tokens,
            "n": counts.to_numpy().astype("int64"),
            "part": part,
        })

    ds = docs_ds.map_batches(combine, batch_format="pandas")

    def part_sum(t: pa.Table) -> pa.Table:
        g = t.group_by(["part", "token"]).aggregate([("n", "sum")])
        return g.rename_columns(["part", "token", "n"])

    g = ds.groupby("part").map_groups(part_sum, batch_format="pyarrow")
    g = g.map_batches(lambda t: t.drop_columns(["part"]),
                      batch_format="pyarrow")
    return g.sort(["n", "token"], descending=[True, False]).limit(k)


def tf_df_stats(docs_ds, text_col="text", id_col="doc_id",
                n_parts: int | None = None):
    """Per-(doc, token) term frequency joined with corpus document
    frequency — the integer core of TF-IDF (the log-weighting is a
    trivial map over these columns; kept integer here so the oracle
    compares exactly with no float drift).

    Shape: one pass computes per-batch (doc, token, tf) AND partial
    (token, doc-count) rows; df aggregates token-hash-partitioned
    (vocabulary-sized result), is broadcast once via ``ray.put``, and
    joins map-side — the big (doc, token) stream never shuffles."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    import pyarrow.compute as pc
    import ray

    from ..functions.hashing import fast_part_hash

    def tf_batch(df: pd.DataFrame) -> pd.DataFrame:
        toks = df.set_index(id_col)[text_col].str.split().explode().dropna()
        g = toks.groupby([toks.index, toks]).size()
        g.index.names = [id_col, "token"]
        out = g.reset_index(name="tf")
        out["tf"] = out["tf"].astype("int64")
        return out

    tf = docs_ds.map_batches(tf_batch, batch_format="pandas").materialize()

    # df: distinct doc count per token — each (doc, token) row counts one
    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        part = fast_part_hash(df["token"], n_parts)
        return pd.DataFrame({"token": df["token"], "one": np.int64(1),
                             "part": part})

    def df_sum(t: pa.Table) -> pa.Table:
        g = t.group_by(["part", "token"]).aggregate([("one", "sum")])
        return g.rename_columns(["part", "token", "df"])

    df_ds = (tf.map_batches(df_partial, batch_format="pandas")
               .groupby("part").map_groups(df_sum, batch_format="pyarrow")
               .map_batches(lambda t: t.drop_columns(["part"]),
                            batch_format="pyarrow"))
    # vocabulary-bounded broadcast, collected as Arrow block refs
    # (no driver pandas round-trip — the mention_lift/_collect_table
    # idiom); driver holds the df table's Arrow bytes exactly once
    from .graph import _collect_table

    vocab_df = _collect_table(df_ds, pa.schema([
        ("token", pa.string()), ("df", pa.int64())]))
    df_ref = ray.put(vocab_df)

    def join_df(t: pa.Table) -> pa.Table:
        v = ray.get(df_ref)
        idx = pc.index_in(t["token"], value_set=v["token"].combine_chunks())
        return pa.table({
            id_col: t[id_col],
            "token": t["token"],
            "tf": t["tf"],
            "df": pc.take(v["df"].combine_chunks(), idx),
        })

    return tf.map_batches(join_df, batch_format="pyarrow")


def repetition_stats(docs_ds, text_col="text", id_col="doc_id"):
    """Gopher-style REPETITION quality signals: per document the total
    token count, distinct token count, and the frequency of the most
    repeated token — the inputs to duplicate-fraction filters
    (n_tokens - n_distinct)/n_tokens and top-token-fraction gates.

    Tokenization is str.split(' ') — byte-identical to the oracle's
    str_split(text, ' ') on ANY input (empty tokens preserved), so the
    engine and SQL can never drift on pathological whitespace. Fully
    vectorized: one repeat+concat explode per batch, one two-level
    groupby; no shuffle (per-doc stats stay in their block)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        lens, flat = _split_flat(df[text_col])
        ids = np.repeat(df[id_col].to_numpy(np.int64), lens)
        vc = (pd.DataFrame({"d": ids, "t": flat})
              .groupby(["d", "t"], sort=False).size())
        g = vc.groupby(level=0, sort=False).agg(["sum", "size", "max"])
        g.columns = ["n_tokens", "n_distinct", "top_count"]
        g = g.reset_index().rename(columns={"d": id_col})
        return g.astype({c: "int64" for c in
                         ("n_tokens", "n_distinct", "top_count")})

    return docs_ds.map_batches(fn, batch_format="pandas")


def bigram_top(docs_ds, k: int = 20, text_col="text"):
    """Corpus-wide top-k BIGRAMS: the n-gram language-model / collocation
    statistic. Same shape as ``vocab_top_terms``: per-batch combiner
    counts bigrams vectorized (one flat token array per batch; document
    boundaries masked out of the adjacent-pair join, so no
    cross-document bigrams) → bigram-hash partition → one vectorized
    Arrow group_by per partition (hash partitioning colocates every
    copy of a bigram, so per-partition sums are GLOBAL) → per-partition
    top-k prune → tiny global sort+limit. The shuffle moves one row per
    distinct bigram per batch — never one per occurrence — and only k
    rows per partition reach the final sort."""
    from ..functions.hashing import fast_part_hash

    n_parts = 32

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        lens, flat = _split_flat(df[text_col])
        n = len(flat)
        if n < 2:
            return pd.DataFrame({"bigram": pd.array([], dtype=object),
                                 "n": pd.array([], dtype="int64"),
                                 "part": pd.array([], dtype="int32")})
        valid = np.ones(n - 1, dtype=bool)
        # last token of each doc does not pair with the next doc's first
        ends = np.cumsum(lens)[:-1] - 1
        valid[ends[ends < n - 1]] = False
        big = np.char.add(np.char.add(
            flat[:-1][valid].astype("U"), " "), flat[1:][valid].astype("U"))
        vc = pd.Series(big).value_counts()
        bigrams = vc.index.to_numpy(dtype=object)
        part = fast_part_hash(list(bigrams), n_parts)
        return pd.DataFrame({"bigram": bigrams,
                             "n": vc.to_numpy().astype("int64"),
                             "part": part})

    ds = docs_ds.map_batches(combine, batch_format="pandas")

    def part_topk(t: pa.Table) -> pa.Table:
        g = t.group_by("bigram").aggregate([("n", "sum")])
        g = g.rename_columns(["bigram", "n"])
        order = pc.sort_indices(
            g, sort_keys=[("n", "descending"), ("bigram", "ascending")])
        return g.take(order[:k])

    g = ds.groupby("part").map_groups(part_topk, batch_format="pyarrow")
    return g.sort(["n", "bigram"], descending=[True, False]).limit(k)


def redact_column(ds, col="props", id_col="event_id",
                  pattern=r"[0-9]+", repl="#"):
    """PII-style REDACTION: regex-replace every match in a column with a
    placeholder (digit runs → '#' by default — the phone/ID-number
    scrub). Pure Arrow RE2 kernel (`replace_substring_regex`) — zero
    Python per row, no shuffle, byte-exact vs the SQL regexp_replace
    oracle (both are RE2 dialects)."""

    def fn(t: pa.Table) -> pa.Table:
        red = pc.replace_substring_regex(t[col], pattern=pattern,
                                         replacement=repl)
        return pa.table({id_col: t[id_col], "redacted": red})

    return ds.map_batches(fn, batch_format="pyarrow")


def source_stats(docs_ds):
    """Per-source corpus composition: document count, total characters,
    and DISTINCT language count — the mix report a crawl pipeline emits
    per ingest feed. Distinct-per-group without a distinct operator:
    per-batch combiner to (source, lang) partials → groupby sum → the
    (source, lang) grid is tiny, so the per-source rollup (count rows =
    distinct langs) is a second cheap groupby."""
    from ray.data.aggregate import Count, Sum

    def combine(t: pa.Table) -> pa.Table:
        g = pa.table({
            "source": t["source"],
            "lang": t["lang"],
            "n_docs": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "total_chars": t["n_chars"],
        }).group_by(["source", "lang"]).aggregate(
            [("n_docs", "sum"), ("total_chars", "sum")])
        return g.rename_columns(["source", "lang", "n_docs", "total_chars"])

    grid = docs_ds.map_batches(combine, batch_format="pyarrow").groupby(
        ["source", "lang"]).aggregate(Sum("n_docs"), Sum("total_chars"))

    def rn(t: pa.Table) -> pa.Table:
        return t.rename_columns(["source", "lang", "n_docs", "total_chars"])

    g = (grid.map_batches(rn, batch_format="pyarrow")
         .groupby("source").aggregate(Sum("n_docs"), Sum("total_chars"),
                                      Count()))

    def rn2(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["source", "n_docs", "total_chars", "n_langs"])
        i = t.schema.get_field_index("n_langs")
        return t.set_column(i, "n_langs", pc.cast(t["n_langs"], pa.int64()))

    return g.map_batches(rn2, batch_format="pyarrow")


def inverted_index(docs_ds, k: int = 8, text_col="text", id_col="doc_id",
                   n_parts: int | None = None):
    """INVERTED-INDEX construction: per token, the sorted posting list of
    the first ``k`` documents containing it plus the capped list length —
    the retrieval-index build of a search/RAG pipeline.

    Unbounded per-token collects are the classic scale trap, so the
    per-batch combiner dedupes (token, doc) pairs and keeps only the k
    smallest doc ids per token BEFORE the exchange; the token-hash
    partition then colocates every partial list and the per-partition
    final re-sorts ≤ k × n_blocks ids per token. The posting string is
    bounded by construction."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    from ..functions.hashing import fast_part_hash

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lens, flat = _split_flat(df[text_col])
        pairs = pd.DataFrame({
            id_col: np.repeat(df[id_col].to_numpy(np.int64), lens),
            "token": flat,
        }).drop_duplicates()
        pairs = (pairs.sort_values(id_col).groupby("token", sort=False)
                 .head(k).reset_index(drop=True))
        part = fast_part_hash(pairs["token"], n_parts)
        return pairs.assign(part=part)

    ds = docs_ds.map_batches(partial, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["token", id_col]).sort_values(
            ["token", id_col])
        df = df.groupby("token", sort=False).head(k)
        g = df.groupby("token", sort=False)[id_col].agg(
            postings=lambda s: ",".join(map(str, s)), n_docs_in_list="size")
        g = g.reset_index()
        g["n_docs_in_list"] = g["n_docs_in_list"].astype("int64")
        return g[["token", "postings", "n_docs_in_list"]]

    return ds.groupby("part").map_groups(final, batch_format="pandas")


def feature_hash(docs_ds, n_buckets: int = 64, text_col="text",
                 id_col="doc_id"):
    """HASHING-TRICK feature vectors: every token maps to
    ``md5(token) % n_buckets`` and each document emits its sparse
    (bucket, count) rows — the fixed-width featurizer that needs no
    vocabulary build, no global pass, no shuffle at all.

    The bucket is the first md5 byte mod n_buckets (n_buckets ≤ 256),
    chosen so the SQL oracle can recompute it from md5's hex digits —
    engine and oracle agree byte-for-byte on any input. Per batch the
    md5 runs once per DISTINCT token (memoized via unique + take)."""
    import hashlib

    if not 1 <= n_buckets <= 256:
        raise ValueError(f"n_buckets must be in [1, 256], got {n_buckets}")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        lens, flat = _split_flat(df[text_col])
        uniq, inv = np.unique(flat.astype("U"), return_inverse=True)
        ub = np.fromiter(
            (hashlib.md5(t.encode("utf-8")).digest()[0] % n_buckets
             for t in uniq), dtype=np.int64, count=len(uniq))
        out = pd.DataFrame({
            id_col: np.repeat(df[id_col].to_numpy(np.int64), lens),
            "bucket": ub[inv] if len(flat) else np.array([], np.int64),
        })
        g = out.groupby([id_col, "bucket"], sort=False).size()
        g = g.reset_index(name="n")
        g["n"] = g["n"].astype("int64")
        return g

    return docs_ds.map_batches(fn, batch_format="pandas")


def _shingle_hashes(texts: pd.Series, n: int):
    """Vectorized n-gram shingle hashing over a batch of texts.

    Returns ``(doc_pos, shingle_hash)``: for every n-token window that
    stays inside one document, the document's position within the batch
    and a 64-bit polynomial hash of the window's token-hash sequence.
    Tokenization is ``split(" ")`` — byte-parity with SQL
    ``str_split(text, ' ')`` on any input (empties kept), matching the
    convention of every other token op in this module. Token hashes run
    once per DISTINCT token per batch (factorize), and the window
    polynomial is n vectorized passes — no per-row Python."""
    from ..functions.hashing import siphash64_batch

    empty = (np.array([], dtype=np.int64), np.array([], dtype=np.uint64))
    if not len(texts):
        return empty
    lens, flat = _split_flat(texts)
    m = len(flat)
    if m < n:
        return empty
    codes, uniques = pd.factorize(flat)
    H = siphash64_batch(list(uniques)).astype(np.uint64)[codes]
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    starts = np.arange(m - n + 1)
    valid = doc_idx[starts] == doc_idx[starts + n - 1]
    P = np.uint64(1099511628211)  # FNV prime; uint64 wraparound intended
    sh = np.zeros(m - n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(n):
            sh = sh * P + H[starts + j]
    return doc_idx[starts[valid]], sh[valid]


def decontaminate(docs_ds, bench_ds, n: int = 4, id_col="doc_id",
                  text_col="text"):
    """Benchmark DECONTAMINATION: flag corpus documents sharing any
    n-token shingle with an evaluation/benchmark set — the train-set
    hygiene pass every LLM data pipeline runs before training
    (n-gram-overlap family, as popularized by public web-corpus
    pipelines). Output: ``(doc_id, n_hits)`` with the count of DISTINCT
    contaminated shingles per flagged document; clean docs emit nothing.

    Scale shape: the benchmark side is by definition small and fixed
    (eval suites, not corpus-sized), so its distinct shingle-hash set
    builds distributed (per-batch dedupe, vectorized) and broadcasts
    once via ``ray.put`` — driver memory is bounded by the benchmark's
    distinct-shingle count, never the corpus. The corpus pass is a
    single streaming ``map_batches`` with a binary-search membership
    probe per batch; no shuffle at all. If the benchmark side ever
    outgrew broadcast, the fallback is a shingle-hash-partition
    semi-join (the ``semi_join_orders_bloom`` shape)."""

    def bench_partial(df: pd.DataFrame) -> pd.DataFrame:
        _, sh = _shingle_hashes(df[text_col], n)
        return pd.DataFrame({"h": np.unique(sh).view(np.int64)})

    # to_pandas, not take_all: the row-dict conversion is ~15× slower
    # than the columnar fetch for tens of thousands of rows
    part_df = bench_ds.map_batches(bench_partial,
                                   batch_format="pandas").to_pandas()
    hcol = (part_df["h"].to_numpy(np.int64) if "h" in part_df.columns
            else np.array([], dtype=np.int64))
    bench = np.unique(hcol.view(np.uint64))
    bench_ref = ray.put(bench)

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(bench_ref)
        dpos, sh = _shingle_hashes(df[text_col], n)
        out_schema = {id_col: pd.array([], dtype="int64"),
                      "n_hits": pd.array([], dtype="int64")}
        if not len(sh) or not len(b):
            return pd.DataFrame(out_schema)
        idx = np.searchsorted(b, sh).clip(max=len(b) - 1)
        member = b[idx] == sh
        if not member.any():
            return pd.DataFrame(out_schema)
        hits = pd.DataFrame({"d": dpos[member],
                             "h": sh[member].view(np.int64)})
        cnt = hits.drop_duplicates().groupby("d").size()
        ids = df[id_col].to_numpy(np.int64)
        return pd.DataFrame({id_col: ids[cnt.index.to_numpy()],
                             "n_hits": cnt.to_numpy().astype("int64")})

    return docs_ds.map_batches(probe, batch_format="pandas")


def pack_documents(docs_ds, budget: int = 256, group_col="source",
                   id_col="doc_id", text_col="text"):
    """SEQUENCE PACKING: greedily pack documents into fixed token-budget
    context windows — the batch-construction step of an LLM training
    pipeline. Within each group (the shard key — packing is inherently
    sequential, so groups ARE the parallelism unit), documents in
    ``id_col`` order fill a pack until adding the next one would exceed
    ``budget``; that document starts the next pack. A document larger
    than the whole budget gets a singleton pack. Output:
    ``(doc_id, group, n_tokens, pack_id)``.

    One groupby exchange; the per-group fill runs in O(#packs · log n)
    vectorized passes (binary search for each pack boundary on the
    token-count prefix sum), never a per-document Python loop.
    Tokenization is ``split(" ")`` — ``str_split`` parity, as
    everywhere in this module."""

    def pack_group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(id_col).reset_index(drop=True)
        tok = _split_flat(df[text_col])[0]
        cum = np.cumsum(tok)
        packs = np.zeros(len(df), dtype=np.int64)
        start, base, p = 0, 0, 0
        while start < len(df):
            j = int(np.searchsorted(cum, base + budget, side="right"))
            j = max(j, start + 1)  # oversized doc -> singleton pack
            packs[start:j] = p
            base, p, start = int(cum[j - 1]), p + 1, j
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            group_col: df[group_col],
            "n_tokens": tok,
            "pack_id": packs,
        })

    return docs_ds.groupby(group_col).map_groups(pack_group,
                                                 batch_format="pandas")


def classifier_scores(docs_ds, n_buckets: int = 64, text_col="text",
                      id_col="doc_id"):
    """MODEL-SCORED quality filtering: a linear classifier over
    hashing-trick features scores every document and thresholds it —
    the fasttext/logreg web-text filter shape (CCNet-family pipelines).
    No learned-model libraries exist in this container, so the weights
    are a deterministic stand-in (``w_b = (b*2654435761) % 97 - 48``,
    exact integers so the SQL oracle replays them bit-for-bit); the
    Ray-side plumbing — per-batch distinct-token hashing, vectorized
    per-doc reduce, zero shuffle, streaming end-to-end — is the real
    path a learned weight vector would ride (swap the formula for a
    broadcast ``ray.put`` weight array).

    Output: ``(doc_id, score, keep)`` with keep = score > 0."""
    import hashlib

    if not 1 <= n_buckets <= 256:
        raise ValueError(f"n_buckets must be in [1, 256], got {n_buckets}")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        lens, flat = _split_flat(df[text_col])
        uniq, inv = np.unique(flat.astype("U"), return_inverse=True)
        ub = np.fromiter(
            (hashlib.md5(t.encode("utf-8")).digest()[0] % n_buckets
             for t in uniq), dtype=np.int64, count=len(uniq))
        w = (ub * 2654435761) % 97 - 48
        doc_idx = np.repeat(np.arange(len(df), dtype=np.int64), lens)
        score = np.bincount(
            doc_idx, weights=(w[inv] if len(flat) else None),
            minlength=len(df)).astype(np.int64)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            "score": score,
            "keep": (score > 0).astype("int64"),
        })

    return docs_ds.map_batches(fn, batch_format="pandas")


def bm25_scores(docs_ds, query_terms=("hash", "join", "vector"),
                k1: float = 1.2, b: float = 0.75,
                id_col: str = "doc_id", text_col: str = "text"):
    """BM25 retrieval scoring of the whole corpus against a fixed query
    — the lexical-search ranking primitive (rational-IDF variant:
    ``(N - df + 0.5) / (df + 0.5)`` without the log, so every float op
    is IEEE correctly-rounded and the SQL oracle reproduces scores
    bit-for-bit). Per-term scores are floored to integer micro-units
    BEFORE the per-document sum, making the total order-independent
    (integer addition) under any distributed reduce order. Output:
    ``(doc_id, score_micro)`` for documents containing ≥1 query term.

    Scale shape: pass 1 streams per-batch (N, Σdl, df-per-term)
    summary rows — one row per block, merged on the driver (bounded by
    #blocks) — then the few corpus constants broadcast by closure and
    pass 2 is an embarrassingly parallel scoring map. No shuffle at
    all; tokenization is split(' ') (str_split parity), term counting
    is one flat numpy pass per term."""
    terms = list(query_terms)

    def _flat(texts: pd.Series):
        lens, flat = _split_flat(texts)
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        return flat, doc_idx, lens

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, doc_idx, lens = _flat(df[text_col])
        row = {"n": np.int64(len(df)), "sdl": lens.sum()}
        for j, term in enumerate(terms):
            m = flat == term
            row[f"df{j}"] = np.int64(
                len(np.unique(doc_idx[m])) if m.any() else 0)
        return pd.DataFrame([row])

    st = docs_ds.map_batches(stats_partial, batch_format="pandas"
                             ).to_pandas().sum()
    N = float(st["n"])
    avgdl = float(st["sdl"]) / N
    idf = [(N - float(st[f"df{j}"]) + 0.5) / (float(st[f"df{j}"]) + 0.5)
           for j in range(len(terms))]

    def score(df: pd.DataFrame) -> pd.DataFrame:
        flat, doc_idx, lens = _flat(df[text_col])
        dl = lens.astype(np.float64)
        total = np.zeros(len(df), dtype=np.int64)
        hit = np.zeros(len(df), dtype=bool)
        for j, term in enumerate(terms):
            m = flat == term
            tf = np.bincount(doc_idx[m], minlength=len(df)
                             ).astype(np.float64)
            hit |= tf > 0
            # parse-tree mirror of the SQL expression — do not refactor
            tfn = (tf * (k1 + 1)) / (tf + k1 * ((1 - b) + (b * dl) / avgdl))
            total += np.floor((1000000.0 * idf[j]) * tfn).astype(np.int64)
        ids = df[id_col].to_numpy(np.int64)
        return pd.DataFrame({id_col: ids[hit],
                             "score_micro": total[hit]})

    return docs_ds.map_batches(score, batch_format="pandas")


def collocations(docs_ds, min_count: int = 5, text_col="text",
                 n_parts: int | None = None, broadcast_vocab_limit: int = 2_000_000):
    """COLLOCATION scoring: bigrams ranked by integer LIFT —
    ``lift_micro = (1_000_000 · N_bigrams · c_xy) // (c_x · c_y)`` (the
    exp(PMI) numerator/denominator, micro-floored; log-free so the
    distributed result is bit-identical to the SQL oracle). Bigrams with
    global count < ``min_count`` are dropped before scoring.

    Shape: two streaming combiner passes (unigram counts, bigram counts)
    each followed by ONE bounded hash exchange for the global sums;
    totals are scalar aggregates; unigram counts attach to the filtered
    bigram table via two co-partitioned tag-union merges (key = the
    word), never a join operator. int64 bound: requires
    ``1e6 · N_bigrams · max_count < 2^63`` (~9e18) — fine below ~10^5
    occurrences of a bigram in a 10^7-bigram corpus; shift to a
    per-partition float fallback beyond.

    Small-vocab fast path: when the unigram table fits a broadcast
    (≤ ``broadcast_vocab_limit`` rows) both count-attach exchanges are
    replaced by one ``ray.put`` + per-batch ``index_in`` lookups. The
    tag-union exchanges
    remain the web-scale path (vocabularies grow with the corpus)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    from ray.data.aggregate import Sum

    from ..functions.hashing import fast_part_hash

    def uni_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat = _split_flat(df[text_col])[1]
        vc = pd.Series(flat).value_counts()
        w = vc.index.to_numpy(dtype=object)
        return pd.DataFrame({
            "w": w, "c": vc.to_numpy().astype("int64"),
            "part": fast_part_hash(list(w), n_parts)})

    def uni_final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("w", as_index=False)["c"].sum()

    uni = (docs_ds.map_batches(uni_partial, batch_format="pandas")
           .groupby("part").map_groups(uni_final, batch_format="pandas")
           .materialize())

    def big_partial(df: pd.DataFrame) -> pd.DataFrame:
        lens, flat = _split_flat(df[text_col])
        n = len(flat)
        empty = pd.DataFrame({"w1": pd.array([], dtype=object),
                              "w2": pd.array([], dtype=object),
                              "n": pd.array([], dtype="int64"),
                              "part": pd.array([], dtype="int32")})
        if n < 2:
            return empty
        valid = np.ones(n - 1, dtype=bool)
        ends = np.cumsum(lens)[:-1] - 1
        valid[ends[ends < n - 1]] = False
        w1 = flat[:-1][valid]
        w2 = flat[1:][valid]
        if not len(w1):
            return empty
        g = (pd.DataFrame({"w1": w1, "w2": w2})
             .groupby(["w1", "w2"], as_index=False).size()
             .rename(columns={"size": "n"}))
        key = (g["w1"] + "\x1f" + g["w2"]).to_list()
        g["n"] = g["n"].astype("int64")
        g["part"] = fast_part_hash(key, n_parts)
        return g

    def big_final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["w1", "w2"], as_index=False)["n"].sum()

    big = (docs_ds.map_batches(big_partial, batch_format="pandas")
           .groupby("part").map_groups(big_final, batch_format="pandas")
           .materialize())

    nb = big.aggregate(Sum("n"))["sum(n)"] or 0

    flt = big.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n"], min_count)),
        batch_format="pyarrow")

    def attach(pairs_ds, key: str, out: str, carry: dict):
        def tag_p(t: pa.Table) -> pa.Table:
            cols = {c: t[c] for c in t.schema.names}
            cols["k"] = pc.cast(t[key], pa.string())
            cols["cc"] = pa.nulls(t.num_rows, pa.int64())
            cols["part"] = pa.array(fast_part_hash(t[key], n_parts))
            return pa.table(cols)

        def tag_u(t: pa.Table) -> pa.Table:
            cols = {c: pa.nulls(t.num_rows, typ)
                    for c, typ in carry.items()}
            cols["k"] = t["w"]
            cols["cc"] = pc.cast(t["c"], pa.int64())
            cols["part"] = pa.array(fast_part_hash(t["w"], n_parts))
            return pa.table(cols)

        def merge(df: pd.DataFrame) -> pd.DataFrame:
            lut = (df.loc[df["cc"].notna(), ["k", "cc"]]
                   .drop_duplicates("k").set_index("k")["cc"])
            rows = df[df["cc"].isna()].drop(columns=["cc", "part"])
            got = rows["k"].map(lut).astype("int64")
            rows = rows.drop(columns=["k"])
            rows[out] = got.to_numpy()
            return rows

        u = (pairs_ds.map_batches(tag_p, batch_format="pyarrow")
             .union(uni.map_batches(tag_u, batch_format="pyarrow")))
        return u.groupby("part").map_groups(merge, batch_format="pandas")

    def _lift(n, c1, c2):
        return (1_000_000 * nb * n) // (c1 * c2)

    if uni.count() <= broadcast_vocab_limit:
        import ray

        from .graph import _collect_table

        utab = _collect_table(uni, pa.schema([("w", pa.string()),
                                              ("c", pa.int64())]))
        uref = ray.put((utab["w"].combine_chunks(),
                        utab["c"].combine_chunks()))

        def finish_bcast(t: pa.Table) -> pa.Table:
            words, counts = ray.get(uref)
            n = pc.cast(t["n"], pa.int64()).to_numpy()
            c1 = pc.take(counts, pc.index_in(t["w1"], value_set=words)
                         ).to_numpy(zero_copy_only=False).astype(np.int64)
            c2 = pc.take(counts, pc.index_in(t["w2"], value_set=words)
                         ).to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"w1": t["w1"], "w2": t["w2"],
                             "n_pair": pa.array(n.astype(np.int64)),
                             "lift_micro": pa.array(
                                 _lift(n, c1, c2).astype(np.int64))})

        return flt.map_batches(finish_bcast, batch_format="pyarrow")

    step1 = attach(flt, "w1", "c1",
                   {"w1": pa.string(), "w2": pa.string(), "n": pa.int64()})
    step2 = attach(step1, "w2", "c2",
                   {"w1": pa.string(), "w2": pa.string(), "n": pa.int64(),
                    "c1": pa.int64()})

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        c1 = t["c1"].to_numpy(zero_copy_only=False).astype(np.int64)
        c2 = t["c2"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"w1": t["w1"], "w2": t["w2"],
                         "n_pair": pa.array(n),
                         "lift_micro": pa.array(
                             _lift(n, c1, c2).astype(np.int64))})

    return step2.map_batches(finish, batch_format="pyarrow")


def keyword_extract(docs_ds, k: int = 3, text_col="text",
                    id_col="doc_id", n_parts: int | None = None):
    """Per-document KEYWORD extraction: top-``k`` terms by rational
    TF-IDF — ``score = tf · ((1_000_000 · N) // df)`` (log-free integer
    IDF so the distributed result replays bit-exactly in SQL), ties
    broken by term ascending.

    Shape: TWO exchanges total. The tf partials are keyed on the TERM
    hash, so the partition that finalizes per-(doc,term) tf sums
    already colocates every row of a term — document frequency and the
    score fuse into that same per-partition pass (no separate df
    exchange, no broadcast); then one doc-keyed exchange runs the
    vectorized per-partition sort + head(k). The corpus streams once;
    every exchange carries (doc, term)-bounded rows, never raw text."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    from ..functions.hashing import fast_part_hash

    def tf_partial(df: pd.DataFrame) -> pd.DataFrame:
        n_tok, flat = _split_flat(df[text_col])
        ids = np.repeat(df[id_col].to_numpy(), n_tok)
        g = (pd.DataFrame({"doc_id": ids, "term": flat})
             .groupby(["doc_id", "term"], as_index=False).size()
             .rename(columns={"size": "tf"}))
        g["tf"] = g["tf"].astype("int64")
        g["part"] = fast_part_hash(g["term"].to_list(), n_parts)
        return g

    n_docs = docs_ds.count()

    def tf_df_score(df: pd.DataFrame) -> pd.DataFrame:
        # finalize tf, derive df and score in ONE term-partition pass
        # (all rows of a term are colocated by tf_partial's part key)
        g = df.groupby(["doc_id", "term"], as_index=False)["tf"].sum()
        dfreq = g.groupby("term")["doc_id"].transform("size")
        idf = (1_000_000 * n_docs) // dfreq.to_numpy()
        out = pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64").to_numpy(),
            "term": g["term"].to_numpy(),
            "score": (g["tf"].to_numpy() * idf).astype("int64")})
        out["part"] = (out["doc_id"] % n_parts).astype("int32")
        return out

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "score", "term"],
                            ascending=[True, False, True])
        g = df.groupby("doc_id", as_index=False).head(k)
        return g[["doc_id", "term", "score"]]

    return (docs_ds.map_batches(tf_partial, batch_format="pandas")
            .groupby("part").map_groups(tf_df_score, batch_format="pandas")
            .groupby("part").map_groups(topk, batch_format="pandas"))


def unigram_lm_scores(docs_ds, text_col="text", id_col="doc_id",
                      n_parts: int | None = None):
    """Unigram-LM commonness scoring — the integer-exact analog of the
    CCNet/Gopher LM-perplexity quality filter (a doc full of rare
    tokens is "surprising"; a doc of stock tokens is boilerplate).
    Each doc is scored by the floor-mean corpus frequency of its
    tokens: ``avg_freq = (Σ freq(tok)) // n_tokens``. Kept integer so
    the DuckDB oracle replays bit-for-bit (the log-prob version is a
    trivial float map over sum_freq/n_tokens downstream).

    Shape: pass 1 builds the corpus unigram table with the
    `vocab_top_terms` combiner (per-batch value_counts → ONE token-hash
    exchange → vectorized sum); the vocabulary-sized result is
    broadcast ONCE via ``ray.put`` (natural-language vocabularies are
    ~1e6-1e8 rows at 100 TB — object-store scale, not driver-loop
    scale); pass 2 is a stateless scoring map (Arrow ``index_in`` +
    ``take`` against the broadcast table, per-doc sums in one pandas
    groupby — no shuffle). Returns (doc_id, n_tokens, sum_freq,
    avg_freq); zero-token docs are absent (no tokens to score).
    """
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    import pyarrow.compute as pc
    import ray

    from ..functions.hashing import fast_part_hash

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].str.split().explode().dropna()
        counts = toks.value_counts()
        tokens = counts.index.to_numpy(dtype=object)
        return pd.DataFrame({
            "token": tokens,
            "n": counts.to_numpy().astype("int64"),
            "part": fast_part_hash(list(tokens), n_parts),
        })

    def part_sum(t: pa.Table) -> pa.Table:
        g = t.group_by(["token"]).aggregate([("n", "sum")])
        return g.rename_columns(["token", "n"])

    vocab_ds = (docs_ds.map_batches(combine, batch_format="pandas")
                .repartition(n_parts)  # coalesce before the exchange
                .groupby("part").map_groups(part_sum,
                                            batch_format="pyarrow"))
    from .graph import _collect_table

    vocab = _collect_table(vocab_ds, pa.schema([
        ("token", pa.string()), ("n", pa.int64())]))
    vocab_ref = ray.put(vocab)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        v = ray.get(vocab_ref)  # zero-copy object-store read
        toks = df.set_index(df[id_col].to_numpy())[text_col] \
            .str.split().explode().dropna()
        idx = pc.index_in(pa.array(toks.to_numpy(dtype=object),
                                   pa.string()),
                          value_set=v["token"].combine_chunks())
        freq = pc.take(v["n"].combine_chunks(), idx).to_numpy()
        g = pd.DataFrame({id_col: toks.index.to_numpy(), "f": freq}) \
            .groupby(id_col, as_index=False) \
            .agg(n_tokens=("f", "size"), sum_freq=("f", "sum"))
        g["n_tokens"] = g["n_tokens"].astype("int64")
        g["sum_freq"] = g["sum_freq"].astype("int64")
        g["avg_freq"] = g["sum_freq"] // g["n_tokens"]
        return g

    return docs_ds.map_batches(score, batch_format="pandas")


def segment_dedup_profile(docs_ds, window: int = 10, min_count: int = 2,
                          text_col="text", id_col="doc_id",
                          n_parts: int | None = None):
    """CCNet-style segment-level corpus dedup profile: split each doc
    into non-overlapping ``window``-token segments (the "line" analog
    for newline-free text; the tail keeps its partial segment), count
    identical segments corpus-wide, and report per doc how much of it
    is duplicated boilerplate. A downstream cleaner drops the flagged
    segments; this operator is the measurement pass (CCNet dedups
    paragraph hashes the same way before LM filtering).

    Shape: vectorized explode (Arrow regex split → padded token matrix
    → ``window-1`` columnar concats, no per-segment Python join) →
    ONE segment-hash exchange where the per-segment corpus count AND
    the per-doc partial flags are computed together (all copies of a
    segment co-locate) → ONE doc-hash exchange summing the partials.
    Returns (doc_id, n_segments, dup_segments, dup_permille) with
    ``dup_permille = dup_segments·1000 // n_segments``; token-less
    docs are absent.
    """
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    import pyarrow.compute as pc

    from ..functions.hashing import fast_part_hash

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        arr = pc.split_pattern_regex(
            pa.array(df[text_col].to_numpy(dtype=object), pa.string()),
            r"\s+")
        lens0 = pc.list_value_length(arr).to_numpy().astype(np.int64)
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n), lens0)
        keep = flat != ""
        flat, doc_idx = flat[keep], doc_idx[keep]
        lens = np.bincount(doc_idx, minlength=n).astype(np.int64)
        off = np.zeros(n + 1, np.int64)
        np.cumsum(lens, out=off[1:])
        tok_pos = np.arange(len(flat), dtype=np.int64) - off[doc_idx]
        nseg = (lens + window - 1) // window
        seg_base = np.cumsum(nseg) - nseg
        slot = seg_base[doc_idx] * window + tok_pos
        total = int(nseg.sum())
        padded = np.full(total * window, "", dtype=object)
        padded[slot] = flat
        mat = padded.reshape(total, window)
        segs = mat[:, 0]
        for j in range(1, window):  # columnar concat, not per-segment
            col = mat[:, j]
            segs = segs + np.where(col == "", "", " ") + col
        return pd.DataFrame({
            id_col: np.repeat(df[id_col].to_numpy(), nseg),
            "seg": segs,
            "part": fast_part_hash(segs, n_parts),
        })

    def part_flags(df: pd.DataFrame) -> pd.DataFrame:
        # hash partition on seg ⇒ within-partition counts are GLOBAL
        c = df.groupby("seg")["seg"].transform("size")
        out = (df.assign(dup=(c >= min_count).astype("int64"))
               .groupby(id_col, as_index=False)
               .agg(n_segments=("seg", "size"), dup_segments=("dup", "sum")))
        out["n_segments"] = out["n_segments"].astype("int64")
        out["part"] = fast_part_hash(out[id_col], n_parts)
        return out

    def doc_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(id_col, as_index=False)
             [["n_segments", "dup_segments"]].sum())
        g["dup_permille"] = g["dup_segments"] * 1000 // g["n_segments"]
        return g

    return (docs_ds.map_batches(explode, batch_format="pandas")
            .groupby("part").map_groups(part_flags, batch_format="pandas")
            .groupby("part").map_groups(doc_sum, batch_format="pandas"))


def gopher_filter(docs_ds, text_col="text", id_col="doc_id",
                  min_tokens: int = 20, max_tokens: int = 90,
                  min_ttr_micro: int = 350_000,
                  max_top_frac_micro: int = 150_000):
    """Gopher-style composite quality GATE — the keep/drop decision a
    training-data pipeline actually applies, fusing the published rule
    family (length bounds, lexical diversity, stopword presence,
    dominant-token repetition) into one per-doc verdict with a reason
    bitmask, so downstream can both filter and audit WHY:

      bit 1  too_short      n_tokens < min_tokens
      bit 2  too_long       n_tokens > max_tokens
      bit 4  low_ttr        ttr_micro < min_ttr_micro
      bit 8  no_stopwords   stopword_micro == 0
      bit 16 repetitive     top_count·1e6 // n_tokens_sp > max_top_frac_micro

    ``keep = (reject_mask == 0)`` as int64. Bits 1-8 use the
    `quality_frame` signals (whitespace-run tokenizer); bit 16 uses the
    `repetition_stats` signals (single-space tokenizer) — each signal
    keeps its own exact-oracle tokenizer contract rather than inventing
    a third. All-integer; zero shuffle (one fused stateless map — both
    signal kernels run on the same in-memory batch, no join).
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        q = quality_frame(df[text_col])
        # repetition signals on the ' '-split contract (vectorized)
        lens, flat = _split_flat(df[text_col])
        ids = np.repeat(np.arange(len(df)), lens)
        vc = (pd.DataFrame({"d": ids, "t": flat})
              .groupby(["d", "t"], sort=False).size())
        g = vc.groupby(level=0, sort=False).agg(["sum", "max"])
        n_sp = g["sum"].reindex(range(len(df))).fillna(0).astype("int64")
        top = g["max"].reindex(range(len(df))).fillna(0).astype("int64")
        top_frac = (top * 1_000_000 // n_sp.clip(lower=1)).astype("int64")
        mask = ((q["n_tokens"] < min_tokens).astype("int64")
                + 2 * (q["n_tokens"] > max_tokens).astype("int64")
                + 4 * (q["ttr_micro"] < min_ttr_micro).astype("int64")
                + 8 * (q["stopword_micro"] == 0).astype("int64")
                + 16 * (top_frac > max_top_frac_micro).astype("int64"))
        return pd.DataFrame({
            id_col: df[id_col],
            "keep": (mask == 0).astype("int64"),
            "reject_mask": mask,
        })

    return docs_ds.map_batches(fn, batch_format="pandas")


def lm_buckets(docs_ds, k: int = 4, text_col="text", id_col="doc_id",
               n_buckets: int | None = None):
    """PERPLEXITY-BUCKETED MIXING: NTILE(k) quantile buckets over the
    unigram-LM commonness score — the CCNet "head/middle/tail" split
    that downstream mixing weights by data quality (tile 1 = rarest
    vocabulary, tile k = stock boilerplate).

    Shape: `unigram_lm_scores` (one token-hash exchange + broadcast
    score pass), then the TeraSort range-partition rank the engine uses
    for global order (pipelines/relational.global_rank_orders): one
    min/max pass → value-range bucketing → an n_buckets-sized count
    exchange whose prefix-sum offsets (AND total — no extra count pass)
    are the only driver state → per-bucket vectorized sort + local
    rank → the SQL NTILE formula per row (first n mod k tiles get one
    extra row). Order is (avg_freq ASC, doc_id ASC), unique hence
    deterministic. Returns (doc_id, avg_freq, tile).
    """
    from ray.data.aggregate import Max, Min, Sum

    import ray

    from ..runtime import cluster_cpus
    if n_buckets is None:
        n_buckets = max(8, 2 * cluster_cpus())

    scores = unigram_lm_scores(docs_ds, text_col=text_col,
                               id_col=id_col).materialize()
    mm = scores.aggregate(Min("avg_freq"), Max("avg_freq"))
    if not mm or mm.get("min(avg_freq)") is None:  # empty corpus
        return scores.map_batches(
            lambda t: pa.table({id_col: t[id_col],
                                "avg_freq": t["avg_freq"],
                                "tile": pa.array([], pa.int64())}),
            batch_format="pyarrow")
    lo, hi = int(mm["min(avg_freq)"]), int(mm["max(avg_freq)"])
    span = hi - lo + 1

    def bucketize(t: pa.Table) -> pa.Table:
        b = ((t["avg_freq"].to_numpy() - lo) * n_buckets) // span
        return pa.table({id_col: t[id_col], "avg_freq": t["avg_freq"],
                         "bucket": pa.array(b.astype(np.int64))})

    # NOT materialized: bucketize is a stateless numpy map over the
    # already-materialized scores — recomputing it for the count pass
    # and the rank pass is cheaper than a third materialize round.
    bucketed = scores.map_batches(bucketize, batch_format="pyarrow")

    def count_part(t: pa.Table) -> pa.Table:
        g = pa.table({"bucket": t["bucket"],
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        return (g.group_by("bucket").aggregate([("n", "sum")])
                .rename_columns(["bucket", "n"]))

    counts = (bucketed.map_batches(count_part, batch_format="pyarrow")
              .groupby("bucket").aggregate(Sum("n")).take_all())
    counts.sort(key=lambda r: r["bucket"])
    offsets, acc = {}, 0
    for r in counts:
        offsets[r["bucket"]] = acc
        acc += r["sum(n)"]
    total = acc
    size, rem = divmod(total, k)
    boundary = rem * (size + 1)
    off_ref = ray.put(offsets)

    def rank_tile(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)[int(g["bucket"].iloc[0])]
        g = g.sort_values(["avg_freq", id_col])
        r = off + np.arange(len(g), dtype=np.int64)  # 0-based global
        in_head = r < boundary  # when size == 0 the head covers all rows
        tile = np.where(in_head, r // (size + 1) + 1,
                        (r - boundary) // max(size, 1) + rem + 1)
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             "avg_freq": g["avg_freq"].to_numpy(),
                             "tile": tile.astype(np.int64)})

    return bucketed.groupby("bucket").map_groups(rank_tile,
                                                 batch_format="pandas")


def bpe_learn(docs_ds, n_merges: int = 6, text_col: str = "text",
              n_parts: int | None = None):
    """Distributed byte-pair-encoding merge learning — the tokenizer-
    training pipeline (Sennrich-style BPE) over a corpus.

    Semantics (the exact oracle contract, replayed unrolled in
    ``oracle_sql()["ta_bpe_learn"]``): words are ``[a-z0-9]+`` runs of
    the lowercased text; every word starts as its character sequence;
    each round merges the globally most frequent ADJACENT symbol pair
    — pair counts weighted by corpus word frequency, ties broken
    (count DESC, left ASC, right ASC) — left-to-right non-overlapping
    inside every word, for ``n_merges`` rounds.  Merging is applied on
    a fully bracket-delimited encoding (``[s][y][m]``), so one plain
    string ``replace('[l][r]' -> '[lr]')`` is EXACTLY canonical
    left-to-right BPE (each match consumes whole delimited symbols;
    adjacent matches share no characters, so runs like ``aaaa``
    collapse to ``aa aa``) and DuckDB ``replace`` replays it verbatim.

    Returns one row per learned merge:
    ``(rank int64, left_sym, right_sym, pair_count int64)``.

    Shape (the fast-BPE vocabulary trick): ONE corpus pass builds the
    word-frequency table (per-batch ``value_counts`` combiner →
    word-hash exchange), materialized once; after that every round
    touches only the vocabulary Dataset — broadcast the (≤ rank-sized)
    merge list, per-batch re-derive sequences + PARTIAL pair counts
    (the combiner: the exchange moves one row per distinct pair per
    batch, never one per occurrence), pair-hash exchange, global
    argmax via ``sort().limit(1)``.  Driver state is O(n_merges) rows.
    At 100 TB the corpus is read exactly once; each round costs one
    vocabulary pass + one vocabulary-bounded exchange."""
    from ..runtime import default_parts

    n_parts = n_parts or default_parts(2.0)

    from ..functions.hashing import fast_part_hash

    word_re = r"[a-z0-9]+"

    def word_counts(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df[text_col].str.lower().str.findall(word_re)
                .explode().dropna())
        counts = toks.value_counts()
        words = counts.index.to_numpy(dtype=object)
        return pd.DataFrame({
            "word": words,
            "freq": counts.to_numpy().astype("int64"),
            "part": fast_part_hash(list(words), n_parts),
        })

    def word_sum(t: pa.Table) -> pa.Table:
        g = t.group_by(["part", "word"]).aggregate([("freq", "sum")])
        return g.rename_columns(["part", "word", "freq"])

    vocab = (docs_ds.map_batches(word_counts, batch_format="pandas")
             .groupby("part").map_groups(word_sum, batch_format="pyarrow")
             .map_batches(lambda t: t.drop_columns(["part"]),
                          batch_format="pyarrow")
             .materialize())

    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        done = [(left, right) for left, right, _ in merges]  # tiny

        def pair_partials(df: pd.DataFrame,
                          done=done) -> pd.DataFrame:
            seqs = ("[" + df["word"].str.replace("", "][", regex=False)
                    .str.slice(2, -2) + "]")
            # the bracketed encoding: '[a][b][c]' per word
            for left, right in done:
                seqs = seqs.str.replace(f"[{left}][{right}]",
                                        f"[{left}{right}]", regex=False)
            arrs = seqs.str.findall(r"\[([^\]]*)\]")
            tmp = pd.DataFrame({
                "l": arrs.map(lambda a: a[:-1]),
                "r": arrs.map(lambda a: a[1:]),
                "freq": df["freq"].to_numpy(),
            }).explode(["l", "r"]).dropna(subset=["l"])
            if not len(tmp):
                return pd.DataFrame({"l": pd.array([], dtype=object),
                                     "r": pd.array([], dtype=object),
                                     "cnt": pd.array([], dtype="int64"),
                                     "part": pd.array([], dtype="int64")})
            g = tmp.groupby(["l", "r"])["freq"].sum().reset_index(name="cnt")
            g["cnt"] = g["cnt"].astype("int64")
            g["part"] = fast_part_hash(
                (g["l"] + "\x1f" + g["r"]).tolist(), n_parts)
            return g

        def pair_best(t: pa.Table) -> pa.Table:
            # per-partition argmax: partitions hold DISJOINT pair sets,
            # so the global argmax over the ≤ n_parts partition winners
            # is exact — one row leaves each partition, no global sort
            g = (t.group_by(["l", "r"]).aggregate([("cnt", "sum")])
                 .rename_columns(["l", "r", "cnt"]).to_pandas()
                 .sort_values(["cnt", "l", "r"],
                              ascending=[False, True, True]))
            return pa.Table.from_pandas(g.head(1),
                                        preserve_index=False)

        winners = (vocab.map_batches(pair_partials, batch_format="pandas")
                   .groupby("part").map_groups(pair_best,
                                               batch_format="pyarrow")
                   .take_all())
        if not winners:
            break
        b = sorted(winners,
                   key=lambda r: (-r["cnt"], r["l"], r["r"]))[0]
        merges.append((b["l"], b["r"], int(b["cnt"])))

    return pd.DataFrame({
        "rank": pd.array(range(1, len(merges) + 1), dtype="int64"),
        "left_sym": [m[0] for m in merges],
        "right_sym": [m[1] for m in merges],
        "pair_count": pd.array([m[2] for m in merges], dtype="int64"),
    })


SEARCH_QUERIES = (
    ("q0", ("hash", "join")),
    ("q1", ("vector", "scan")),
    ("q2", ("sort", "merge", "window")),
    ("q3", ("the", "data")),
)


def search_topk(docs_ds, queries=SEARCH_QUERIES, k: int = 10,
                k1: float = 1.2, b: float = 0.75,
                id_col: str = "doc_id", text_col: str = "text"):
    """Multi-query BM25 top-k retrieval — serving a query WORKLOAD
    against the corpus (the batch-retrieval sibling of the single-query
    ``bm25_scores``; same rational-IDF integer-micro formula, so the
    oracle replays scores bit-for-bit).

    Output: ``(qid, rank, doc_id, score_micro)`` — the top ``k`` docs
    per query, ranked (score DESC, doc_id ASC; rank is 1-based and
    deterministic).

    Scale shape: pass 1 streams per-batch (N, Σdl, df-per-distinct-term)
    summary rows (one per block, merged on the driver — bounded by
    #blocks); the corpus constants broadcast by closure. Pass 2 scores
    every query against the batch — tf is computed ONCE per DISTINCT
    term, then summed per query — and emits a per-batch PARTIAL top-k
    per query (the combiner): the exchange moves ≤ #queries·k rows per
    block, never one per (query, doc). The final per-query merge is a
    tiny ``groupby(qid).map_groups`` re-rank. No corpus-sized shuffle
    anywhere; #queries and k bound every exchanged row count."""
    queries = [(qid, tuple(ts)) for qid, ts in queries]
    terms = sorted({t for _, ts in queries for t in ts})

    def _flat(texts: pd.Series):
        lens, flat = _split_flat(texts)
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        return flat, doc_idx, lens

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, doc_idx, lens = _flat(df[text_col])
        row = {"n": np.int64(len(df)), "sdl": lens.sum()}
        for j, term in enumerate(terms):
            m = flat == term
            row[f"df{j}"] = np.int64(
                len(np.unique(doc_idx[m])) if m.any() else 0)
        return pd.DataFrame([row])

    st = docs_ds.map_batches(stats_partial, batch_format="pandas"
                             ).to_pandas().sum()
    N = float(st["n"])
    avgdl = float(st["sdl"]) / N
    idf = {t: (N - float(st[f"df{j}"]) + 0.5) / (float(st[f"df{j}"]) + 0.5)
           for j, t in enumerate(terms)}

    def score(df: pd.DataFrame) -> pd.DataFrame:
        flat, doc_idx, lens = _flat(df[text_col])
        dl = lens.astype(np.float64)
        ids = df[id_col].to_numpy(np.int64)
        per_term: dict[str, np.ndarray] = {}
        hit_term: dict[str, np.ndarray] = {}
        for term in terms:
            m = flat == term
            tf = np.bincount(doc_idx[m], minlength=len(df)
                             ).astype(np.float64)
            hit_term[term] = tf > 0
            # parse-tree mirror of the SQL expression — do not refactor
            tfn = (tf * (k1 + 1)) / (tf + k1 * ((1 - b) + (b * dl) / avgdl))
            per_term[term] = np.floor(
                (1000000.0 * idf[term]) * tfn).astype(np.int64)
        out = []
        for qid, ts in queries:
            total = np.zeros(len(df), dtype=np.int64)
            hit = np.zeros(len(df), dtype=bool)
            for t_ in ts:
                total += per_term[t_]
                hit |= hit_term[t_]
            if not hit.any():
                continue
            sid, ss = ids[hit], total[hit]
            order = np.lexsort((sid, -ss))[:k]  # partial top-k combiner
            out.append(pd.DataFrame({
                "qid": qid,
                id_col: sid[order],
                "score_micro": ss[order],
            }))
        if not out:
            return pd.DataFrame({
                "qid": pd.array([], dtype=object),
                id_col: pd.array([], dtype="int64"),
                "score_micro": pd.array([], dtype="int64")})
        return pd.concat(out, ignore_index=True)

    partial = docs_ds.map_batches(score, batch_format="pandas")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["score_micro", id_col],
                           ascending=[False, True]).head(k)
             .reset_index(drop=True))
        g.insert(1, "rank", np.arange(1, len(g) + 1, dtype=np.int64))
        return g

    return partial.groupby("qid").map_groups(final, batch_format="pandas")


def bpe_segment(docs_ds, merges=None, n_merges: int = 6,
                text_col: str = "text", id_col: str = "doc_id"):
    """Apply learned BPE merges to the corpus — the tokenizer-training
    APPLY half (``bpe_learn`` is the learn half): per document, the
    whitespace/[a-z0-9] word count and the total piece count after all
    merges. Returns ``(doc_id, n_words, n_pieces)``.

    ``merges``: the ``bpe_learn`` result frame (or None to learn
    ``n_merges`` rounds first). The merge table is rank-bounded and
    broadcast by closure; application is one stateless pass — pieces
    are computed once per DISTINCT word per batch (``value_counts``
    dedup), then summed back per document. Same bracket-delimited
    replace procedure as the learner, so the SQL oracle replays the
    merged sequences verbatim."""
    if merges is None:
        merges = bpe_learn(docs_ds, n_merges=n_merges, text_col=text_col)
    pairs = list(zip(merges["left_sym"], merges["right_sym"]))

    word_re = r"[a-z0-9]+"

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df[text_col].str.lower().str.findall(word_re))
        ids = np.repeat(df[id_col].to_numpy(np.int64),
                        toks.str.len().to_numpy(np.int64))
        flat = pd.Series(np.concatenate(
            [np.asarray(x, dtype=object) for x in toks])
            if len(df) else [], dtype=object)
        # pieces once per DISTINCT word in the batch
        uniq = pd.Series(flat.unique(), dtype=object)
        seqs = ("[" + uniq.str.replace("", "][", regex=False)
                .str.slice(2, -2) + "]")
        for left, right in pairs:
            seqs = seqs.str.replace(f"[{left}][{right}]",
                                    f"[{left}{right}]", regex=False)
        np_per_word = pd.Series(seqs.str.count(r"\[").to_numpy(np.int64),
                                index=uniq)
        g = pd.DataFrame({id_col: ids,
                          "np": flat.map(np_per_word).to_numpy(np.int64)})
        out = g.groupby(id_col).agg(n_words=("np", "size"),
                                    n_pieces=("np", "sum")).reset_index()
        out["n_words"] = out["n_words"].astype("int64")
        out["n_pieces"] = out["n_pieces"].astype("int64")
        return out

    return docs_ds.map_batches(fn, batch_format="pandas")


def dsir_select(docs_ds, n_buckets: int = 64, target_lang: str = "en",
                scale: int = 1_000_000, top_pct: int = 20,
                id_col: str = "doc_id", text_col: str = "text",
                lang_col: str = "lang", n_range_buckets: int | None = None):
    """DSIR-style data selection (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): score every document by
    hashed-n-gram importance toward a target distribution (here: the
    ``target_lang`` slice of the corpus itself), then keep the global
    top ``top_pct`` percent.

    Integer-exact analog for oracle parity: DSIR's log-ratio feature
    weights are replaced by scaled smoothed ratios
    ``ratio_f = (t_f + 1) * scale // (s_f + 1)`` (t = target bucket
    count, s = source bucket count) and a document's importance is
    ``Σ_tokens ratio_{bucket(token)}`` — same ordering intent, fully
    replayable in int64 SQL. Buckets are the ``feature_hash`` family
    (first md5 byte mod n_buckets ≤ 256).

    Shape (all vectorized, no per-row Python):
      1. ONE pass over docs → per-batch dense (s, t) bucket-count
         partials → an n_buckets-row exchange. Driver state is the
         2×n_buckets ratio table — O(1) in corpus size, broadcast via
         ``ray.put``.
      2. ONE pass over docs → per-doc weight by cumsum-segment sums of
         the broadcast ratio array (int64 throughout; no float
         accumulation).
      3. Global top-k flag via the TeraSort range-partition rank the
         engine uses for every total order (lm_buckets / NTILE): one
         min/max pass, value-range bucketing on weight, an
         n_range_buckets-sized count exchange whose prefix sums are the
         only other driver state, per-bucket vectorized sort + global
         rank on (weight DESC, id ASC); ``selected = rank < k`` with
         ``k = total * top_pct // 100``.

    Returns (doc_id, weight, selected)."""
    import hashlib

    from ray.data.aggregate import Max, Min, Sum

    from ..runtime import cluster_cpus

    if not 1 <= n_buckets <= 256:
        raise ValueError(f"n_buckets must be in [1, 256], got {n_buckets}")
    if n_range_buckets is None:
        n_range_buckets = max(8, 2 * cluster_cpus())

    src = docs_ds.select_columns([id_col, text_col, lang_col])

    def _bucket_tokens(df: pd.DataFrame):
        """(doc_idx int64[], bucket int64[]) for a batch — md5 runs once
        per DISTINCT token (np.unique memoization, the feature_hash
        idiom)."""
        lens, flat = _split_flat(df[text_col])
        uniq, inv = np.unique(flat.astype("U"), return_inverse=True)
        ub = np.fromiter(
            (hashlib.md5(t.encode("utf-8")).digest()[0] % n_buckets
             for t in uniq), dtype=np.int64, count=len(uniq))
        bpt = ub[inv] if len(flat) else np.array([], np.int64)
        doc_idx = np.repeat(np.arange(len(df), dtype=np.int64), lens)
        return doc_idx, bpt, lens

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        doc_idx, bpt, _ = _bucket_tokens(df)
        is_tgt = (df[lang_col].to_numpy() == target_lang)[doc_idx]
        s = np.bincount(bpt, minlength=n_buckets).astype(np.int64)
        t = np.bincount(bpt[is_tgt], minlength=n_buckets).astype(np.int64)
        return pd.DataFrame({"bucket": np.arange(n_buckets, dtype=np.int64),
                             "s": s, "t": t})

    stats = (src.map_batches(stats_partial, batch_format="pandas")
             .groupby("bucket").aggregate(Sum("s"), Sum("t")).take_all())
    ratio = np.zeros(n_buckets, dtype=np.int64)  # unseen buckets: (0+1)//(0+1)
    ratio[:] = scale
    for r in stats:
        ratio[r["bucket"]] = ((r["sum(t)"] + 1) * scale) // (r["sum(s)"] + 1)
    ratio_ref = ray.put(ratio)

    def weigh(df: pd.DataFrame) -> pd.DataFrame:
        rt = ray.get(ratio_ref)
        doc_idx, bpt, lens = _bucket_tokens(df)
        cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(rt[bpt])])
        ends = np.cumsum(lens)
        w = cs[ends] - cs[ends - lens]
        return pd.DataFrame({id_col: df[id_col].to_numpy(np.int64),
                             "weight": w.astype(np.int64)})

    weights = src.map_batches(weigh, batch_format="pandas").materialize()

    mm = weights.aggregate(Min("weight"), Max("weight"))
    if not mm or mm.get("min(weight)") is None:  # empty corpus
        return weights.map_batches(
            lambda t: t.append_column("selected", pa.array([], pa.bool_())),
            batch_format="pyarrow")
    lo, hi = int(mm["min(weight)"]), int(mm["max(weight)"])
    span = hi - lo + 1

    def bucketize(t: pa.Table) -> pa.Table:
        # DESC order: high weights land in LOW range-buckets
        b = ((np.int64(hi) - t["weight"].to_numpy()) * n_range_buckets
             ) // span
        return t.append_column("rb", pa.array(b.astype(np.int64)))

    bucketed = weights.map_batches(bucketize, batch_format="pyarrow")

    def count_part(t: pa.Table) -> pa.Table:
        g = pa.table({"rb": t["rb"],
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        return (g.group_by("rb").aggregate([("n", "sum")])
                .rename_columns(["rb", "n"]))

    counts = (bucketed.map_batches(count_part, batch_format="pyarrow")
              .groupby("rb").aggregate(Sum("n")).take_all())
    counts.sort(key=lambda r: r["rb"])
    offsets, acc = {}, 0
    for r in counts:
        offsets[r["rb"]] = acc
        acc += r["sum(n)"]
    k = (acc * top_pct) // 100
    off_ref = ray.put(offsets)

    def rank_sel(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)[int(g["rb"].iloc[0])]
        g = g.sort_values(["weight", id_col], ascending=[False, True])
        r = off + np.arange(len(g), dtype=np.int64)  # 0-based global rank
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             "weight": g["weight"].to_numpy(),
                             "selected": r < k})

    return bucketed.groupby("rb").map_groups(rank_sel, batch_format="pandas")


def bigram_lm_scores(docs_ds, text_col="text", id_col="doc_id",
                     n_parts: int | None = None):
    """Bigram-LM commonness scoring — the KenLM-perplexity analog one
    order up from `unigram_lm_scores`, kept integer-exact: every
    adjacent token pair is scored by its add-one-smoothed conditional
    commonness ``score(w1,w2) = 1e6·(c(w1 w2)+1) // (c(w1)+V)`` (V =
    distinct-unigram count), and each doc by the floor-mean over its
    transitions. A doc of stock word SEQUENCES scores high even when a
    unigram model can't tell it from shuffled text — this is the
    filter CCNet's 5-gram KenLM actually provides.

    Shape: pass 1 builds BOTH corpus tables with per-batch
    ``value_counts`` combiners — unigrams and bigrams ride one shared
    token-hash exchange (tagged union; a bigram row's key is its left
    word so related rows co-locate) — and the vocabulary-sized results
    are broadcast ONCE as Arrow refs via ``ray.put``; pass 2 is a
    stateless scoring map (two ``index_in`` lookups per batch, per-doc
    sums in one groupby — no shuffle). Returns (doc_id, n_bigrams,
    sum_score, avg_score); docs with <2 tokens are absent (no
    transition to score)."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(2.0)
    import pyarrow.compute as pc
    import ray

    from ..functions.hashing import fast_part_hash

    def bikey(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        # INJECTIVE pair encoding: a separator char can occur inside a
        # token (tokens are \s+-split), so a joined string would merge
        # distinct bigrams ('a\x1fb','c') vs ('a','b\x1fc'); the
        # length prefix makes the split point part of the key
        u1, u2 = w1.astype("U"), w2.astype("U")
        lens = np.char.str_len(u1).astype("U")
        return np.char.add(np.char.add(lens, ","),
                           np.char.add(u1, u2))

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        arr = pc.split_pattern_regex(
            pa.array(df[text_col].to_numpy(dtype=object), pa.string()),
            r"\s+")
        lens = pc.list_value_length(arr).to_numpy().astype(np.int64)
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(df)), lens)
        keep = flat != ""
        flat, doc_idx = flat[keep], doc_idx[keep]
        uni = pd.Series(flat).value_counts()
        if len(flat) > 1:
            same = doc_idx[1:] == doc_idx[:-1]
            w1, w2 = flat[:-1][same], flat[1:][same]
            bi = (pd.DataFrame({"k": bikey(w1, w2), "left": w1})
                  .groupby(["k", "left"], as_index=False).size())
        else:
            bi = pd.DataFrame({"k": [], "left": [], "size": []})
        keys = np.concatenate([uni.index.to_numpy(dtype=object),
                               bi["k"].to_numpy(dtype=object)])
        ns = np.concatenate([uni.to_numpy(),
                             bi["size"].to_numpy()]).astype("int64")
        tag = np.concatenate([np.zeros(len(uni), np.int8),
                              np.ones(len(bi), np.int8)])
        # bigram rows hash on their LEFT word: related rows co-locate
        left = np.concatenate([uni.index.to_numpy(dtype=object),
                               bi["left"].to_numpy(dtype=object)])
        return pd.DataFrame({
            "key": keys, "n": ns, "tag": tag,
            "part": fast_part_hash(list(left), n_parts)})

    def part_sum(t: pa.Table) -> pa.Table:
        g = t.group_by(["key", "tag"]).aggregate([("n", "sum")])
        return g.rename_columns(["key", "tag", "n"])

    counts_ds = (docs_ds.map_batches(combine, batch_format="pandas")
                 .repartition(n_parts)
                 .groupby("part").map_groups(part_sum,
                                             batch_format="pyarrow"))
    from .graph import _collect_table

    counts = _collect_table(counts_ds, pa.schema([
        ("key", pa.string()), ("tag", pa.int8()), ("n", pa.int64())]))
    uni_t = counts.filter(pc.equal(counts["tag"], 0))
    bi_t = counts.filter(pc.equal(counts["tag"], 1))
    v_size = uni_t.num_rows
    uni_ref = ray.put(pa.table({"key": uni_t["key"], "n": uni_t["n"]}))
    bi_ref = ray.put(pa.table({"key": bi_t["key"], "n": bi_t["n"]}))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        uni = ray.get(uni_ref)
        bi = ray.get(bi_ref)
        arr = pc.split_pattern_regex(
            pa.array(df[text_col].to_numpy(dtype=object), pa.string()),
            r"\s+")
        lens = pc.list_value_length(arr).to_numpy().astype(np.int64)
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(df)), lens)
        keep = flat != ""
        flat, doc_idx = flat[keep], doc_idx[keep]
        if len(flat) < 2:
            return pd.DataFrame({id_col: [], "n_bigrams": [],
                                 "sum_score": [], "avg_score": []}) \
                .astype("int64")
        same = doc_idx[1:] == doc_idx[:-1]
        w1, w2 = flat[:-1][same], flat[1:][same]
        bdoc = doc_idx[:-1][same]
        if len(w1) == 0:
            return pd.DataFrame({id_col: [], "n_bigrams": [],
                                 "sum_score": [], "avg_score": []}) \
                .astype("int64")
        bkey = bikey(w1, w2)
        i1 = pc.index_in(pa.array(w1, pa.string()),
                         value_set=uni["key"].combine_chunks())
        c1 = pc.take(uni["n"].combine_chunks(), i1).to_numpy()
        i12 = pc.index_in(pa.array(bkey.astype(object), pa.string()),
                          value_set=bi["key"].combine_chunks())
        c12 = pc.take(bi["n"].combine_chunks(), i12) \
            .to_numpy(zero_copy_only=False)
        c12 = np.nan_to_num(c12, nan=0.0).astype(np.int64)
        s = (1_000_000 * (c12 + 1)) // (c1 + v_size)
        ids = df[id_col].to_numpy()[bdoc]
        g = (pd.DataFrame({id_col: ids, "s": s})
             .groupby(id_col, as_index=False)
             .agg(n_bigrams=("s", "size"), sum_score=("s", "sum")))
        g["n_bigrams"] = g["n_bigrams"].astype("int64")
        g["sum_score"] = g["sum_score"].astype("int64")
        g["avg_score"] = g["sum_score"] // g["n_bigrams"]
        return g

    return docs_ds.map_batches(score, batch_format="pandas")


def readability_scores(docs_ds, text_col="text", id_col="doc_id"):
    """Integer readability profile — the Flesch-reading-ease analog
    over deterministic proxies, ×1000 so the DuckDB oracle replays
    bit-for-bit: sentences = ``[.!?]+`` runs (min 1), words = non-space
    runs, syllables = vowel groups of the lowered text plus one per
    vowel-less word (every word counts ≥1). ``flesch_milli = 206835 −
    1015·wps_milli//1000 − 84600·spw_milli//1000`` with the two rate
    terms floor-scaled ×1000 first. Prose scores high; keyword-stuffed
    or run-on boilerplate goes negative — a cheap quality-gate feature
    beside `gopher_filter`'s rules.

    Shape: one stateless fused map, all counting in Arrow RE2 kernels
    (``count_substring_regex`` ≡ DuckDB ``regexp_extract_all`` lengths
    — both RE2); no exchange, no Python loop. Word-less docs are
    absent (nothing to rate)."""
    import pyarrow.compute as pc

    def score(t: pa.Table) -> pa.Table:
        txt = pc.cast(t[text_col], pa.string())
        low = pc.utf8_lower(txt)
        n_words = pc.count_substring_regex(txt, r"\S+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n_sent = pc.count_substring_regex(txt, r"[.!?]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n_sent = np.maximum(n_sent, 1)
        vgroups = pc.count_substring_regex(low, r"[aeiou]+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        w_vowel = pc.count_substring_regex(
            low, r"[^\s]*[aeiou][^\s]*") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keep = n_words > 0
        n_words, n_sent = n_words[keep], n_sent[keep]
        vgroups, w_vowel = vgroups[keep], w_vowel[keep]
        n_syll = vgroups + (n_words - w_vowel)
        wps = 1000 * n_words // n_sent
        spw = 1000 * n_syll // n_words
        flesch = 206835 - (1015 * wps) // 1000 - (84600 * spw) // 1000
        ids = t[id_col].filter(pa.array(keep))
        return pa.table({
            id_col: ids,
            "n_words": pa.array(n_words),
            "n_sentences": pa.array(n_sent),
            "n_syllables": pa.array(n_syll),
            "wps_milli": pa.array(wps),
            "spw_milli": pa.array(spw),
            "flesch_milli": pa.array(flesch)})

    return docs_ds.map_batches(score, batch_format="pyarrow")


def phrase_hits(docs_ds, phrases, text_col="text", id_col="doc_id",
                n_parts: int | None = None):
    """POSITIONAL PHRASE SEARCH: exact occurrence counts of multi-word
    phrases via positional-postings adjacency — the operator behind
    quoted queries in `search_topk`'s retrieval stack (BM25 scores
    bags; phrases need positions). Each phrase word's postings are
    aligned to the phrase START (``pos − role``); a start position
    where every role is present is a hit.

    Shape: ONE stateless map emits (query, doc, start, role) rows
    PRUNED to the query vocabulary (postings of non-query terms never
    leave the scan — the index-lookup analog), then ONE
    (query, doc)-hash exchange where completion is a vectorized
    size-count per start (a token occupies one position, so role rows
    per start are distinct and complete ⇔ count == phrase length).
    Exchange volume is bounded by the query terms' posting lists, not
    the corpus. Returns (query, doc_id, n_hits), hits ≥ 1 only."""
    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    import pyarrow.compute as pc

    words_per = [tuple(p.split()) for p in phrases]
    if any(len(w) < 1 for w in words_per):
        raise ValueError("empty phrase")
    plen = {i: len(w) for i, w in enumerate(words_per)}
    names = {i: p for i, p in enumerate(phrases)}

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        arr = pc.split_pattern_regex(
            pa.array(df[text_col].to_numpy(dtype=object), pa.string()),
            r"\s+")
        lens = pc.list_value_length(arr).to_numpy().astype(np.int64)
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(df)), lens)
        keep = flat != ""
        flat, doc_idx = flat[keep], doc_idx[keep]
        nn = np.bincount(doc_idx, minlength=len(df)).astype(np.int64)
        off = np.zeros(len(df) + 1, np.int64)
        np.cumsum(nn, out=off[1:])
        pos = np.arange(len(flat), dtype=np.int64) - off[doc_idx]
        ids = df[id_col].to_numpy()
        qs, ds_, ss, rs = [], [], [], []
        for qi, words in enumerate(words_per):
            for role, wrd in enumerate(words):
                m = flat == wrd
                if not m.any():
                    continue
                start = pos[m] - role
                ok = start >= 0
                qs.append(np.full(ok.sum(), qi, np.int64))
                ds_.append(ids[doc_idx[m][ok]])
                ss.append(start[ok])
                rs.append(np.full(ok.sum(), role, np.int64))
        if not qs:
            return pd.DataFrame({"qi": pd.Series([], dtype="int64"),
                                 id_col: pd.Series([], dtype="int64"),
                                 "start": pd.Series([], dtype="int64"),
                                 "role": pd.Series([], dtype="int64"),
                                 "part": pd.Series([], dtype="int64")})
        out = pd.DataFrame({
            "qi": np.concatenate(qs), id_col: np.concatenate(ds_),
            "start": np.concatenate(ss), "role": np.concatenate(rs)})
        key = out["qi"].astype(str) + "\x1f" + out[id_col].astype(str)
        out["part"] = fast_part_hash(list(key), n_parts)
        return out

    def complete(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["qi", id_col, "start"], as_index=False)
             .size())
        g["need"] = g["qi"].map(plen)
        g = g[g["size"] == g["need"]]
        h = (g.groupby(["qi", id_col], as_index=False).size()
             .rename(columns={"size": "n_hits"}))
        h["n_hits"] = h["n_hits"].astype("int64")
        h["query"] = h["qi"].map(names)
        return h[["query", id_col, "n_hits"]]

    return (docs_ds.map_batches(emit, batch_format="pandas")
            .groupby("part").map_groups(complete, batch_format="pandas"))


def zipf_profile(docs_ds, text_col="text", id_col="doc_id",
                 n_buckets: int | None = None,
                 n_parts: int | None = None):
    """VOCABULARY COVERAGE CURVE (Zipf profile): every corpus token
    with its exact frequency rank (count DESC, token ASC) and the
    cumulative corpus coverage of the top-rank prefix in permille —
    the table a tokenizer-sizing decision reads ("the top 32k tokens
    cover 97.4% of the stream"). Frequencies are Zipf-skewed, so the
    rank CANNOT be a hash exchange: this is the TeraSort
    range-partition global-rank shape (`global_rank_orders`,
    `term_dictionary`) keyed on the COUNT value — one Min/Max pass,
    LOG-SCALE (bit-length) count classes — order-compatible, unlike
    uniform count widths which dump the Zipf tail into one bucket —
    with the hapax tie group additionally range-split by token,
    per-bucket sort + local rank/cumsum, driver state = two
    O(classes × n_buckets) offset vectors built from per-block
    combiner rows (never the vocabulary), bounded by configuration.
    Returns (token, n, rank, cum_permille)."""
    from ray.data.aggregate import Max, Min, Sum

    from ..functions.hashing import fast_part_hash
    from ..runtime import cluster_cpus, default_parts
    n_parts = n_parts or default_parts(2.0)
    if n_buckets is None:
        n_buckets = max(8, 2 * cluster_cpus())

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].str.split().explode().dropna()
        toks = toks[toks != ""]
        counts = toks.value_counts()
        tokens = counts.index.to_numpy(dtype=object)
        return pd.DataFrame({
            "token": tokens,
            "n": counts.to_numpy().astype("int64"),
            "part": fast_part_hash(list(tokens), n_parts)})

    def part_sum(t: pa.Table) -> pa.Table:
        g = t.group_by(["token"]).aggregate([("n", "sum")])
        return g.rename_columns(["token", "n"])

    vocab = (docs_ds.map_batches(combine, batch_format="pandas")
             .repartition(n_parts)
             .groupby("part").map_groups(part_sum,
                                         batch_format="pyarrow")
             ).materialize()
    mm = vocab.aggregate(Min("n"), Max("n"), Sum("n"))
    if not mm or mm.get("max(n)") is None:  # empty vocabulary
        return vocab.map_batches(
            lambda t: pa.table({
                "token": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                "cum_permille": pa.array([], pa.int64())}),
            batch_format="pyarrow")
    hi = int(mm["max(n)"])
    total = int(mm["sum(n)"])
    # LOG-SCALE buckets: uniform count-width puts nearly the whole
    # Zipf-tailed vocabulary into one bucket. Bit-length classes are
    # order-compatible (every count in class c exceeds every count in
    # class c+1); the hapax class (count == 1, inherently the largest
    # AND a single tie group whose internal order is token-only) is
    # additionally range-split by the token's first codepoint — valid
    # exactly because it holds one count value. frexp is int-exact for
    # counts < 2^53. Driver state: O(classes × H) ints, config-bounded.
    hi_bl = int(hi).bit_length()
    H = max(8, n_buckets)
    n_groups = hi_bl * H + H

    def bucketize(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False)
        bl = np.frexp(n.astype(np.float64))[1]  # == bit_length, n<2^53
        cls = (hi_bl - bl).astype(np.int64)
        first = np.array(t["token"].to_numpy(zero_copy_only=False)
                         .astype("U1"), dtype="U1")
        cp = first.view(np.int32).astype(np.int64)
        sub = np.where(n == 1, cp * H // 0x110000, 0)
        return t.append_column(
            "part", pa.array(cls * H + sub))

    parts = (vocab.map_batches(bucketize, batch_format="pyarrow")
             .materialize())

    # per-block (bucket, count, mass) combiner: the driver receives at
    # most n_groups rows per block, never the vocabulary
    def part_counts(t: pa.Table) -> pa.Table:
        g = (pa.table({"b": t["part"],
                       "c": pa.array(np.ones(t.num_rows, np.int64)),
                       "m": t["n"]})
             .group_by("b").aggregate([("c", "sum"), ("m", "sum")]))
        return g.rename_columns(["b", "c", "m"])

    agg = (parts.map_batches(part_counts, batch_format="pyarrow")
           .to_pandas().groupby("b")[["c", "m"]].sum())
    rank_off = np.zeros(n_groups, np.int64)
    mass_off = np.zeros(n_groups, np.int64)
    rc = mc = 0
    for b in range(n_groups):
        rank_off[b], mass_off[b] = rc, mc
        if b in agg.index:
            rc += int(agg.loc[b, "c"])
            mc += int(agg.loc[b, "m"])

    def rank_bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = int(df["part"].iloc[0])
        df = df.sort_values(["n", "token"],
                            ascending=[False, True]).reset_index(drop=True)
        rank = np.arange(1, len(df) + 1, dtype=np.int64) + rank_off[b]
        cum = df["n"].to_numpy().cumsum() + mass_off[b]
        return pd.DataFrame({
            "token": df["token"], "n": df["n"].astype("int64"),
            "rank": rank,
            "cum_permille": (1000 * cum // total).astype("int64")})

    return parts.groupby("part").map_groups(rank_bucket,
                                            batch_format="pandas")
