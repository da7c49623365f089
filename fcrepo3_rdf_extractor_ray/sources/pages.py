"""Deterministic synthetic `pages` corpus (the T1 input table).

BASELINE.json's ``input_hint`` table — ``(url, warc_ts, html, text,
lang)`` — synthesized *deterministically* from the driver-provided
``documents`` table (doc_id, text, lang, source, n_chars). Every derived
value is a pure function of ``doc_id`` and ``text``, chosen so a DuckDB
oracle can regenerate the expected triples with plain SQL (the role the
golden ``answers/*.nt`` files play for the reference,
SidoraExamplesIT.java:97-105).

Synthesis spec (THE single source of truth — `__ray_entry__.oracle_sql`
mirrors it expression-for-expression):

    domain    = doc_id % 20
    url       = 'https://ex{domain}.org/p/{doc_id}'
    warc_ts   = epoch_us(1_700_000_000 * 1e6 + doc_id * 86_400 * 1e6)
    lang      = documents.lang ;  text = documents.text
    title     = 'Doc {doc_id}'
    desc      = ''                         if doc_id % 11 == 0
                'About {first_token}'      otherwise
    keywords  = 'kw{doc_id%5},\nalpha'     if doc_id % 13 == 0  (newline-in-literal)
                'kw{doc_id%5},alpha'       otherwise
    robots    = 'noindex' meta present     iff doc_id % 19 == 0 (tombstone)
    e1 = doc_id % 41 ; e2 = (7*doc_id+3) % 41 ; v = doc_id % 3
    s_surface = SURF[doc_id % 3](e1)
    o_surface = 'Widget-{doc_id % 29}'     if doc_id % 17 == 0  (unlinked → skolem)
                SURF[(doc_id // 3) % 3](e2) otherwise
    SURF      = 0:'Entity{n}'  1:'Entity {n}'  2:'ENTITY-{n}'   (alias variants)
    VERB      = 0:'works with' 1:'acquired'    2:'is based in'
    malformed = doc_id % 97 == 0  → html truncated to 40 bytes
                (extraction error contained per row; constant quads still emit)

Entity ids are Zipf-ish skewed via the mod-41 residue over skewed doc_id
streams at scale; residue 0..2 act as head entities for salt-split tests.
"""

from __future__ import annotations

import html as _html
import os

import pandas as pd
import pyarrow as pa

PAGES_EPOCH_US = 1_700_000_000 * 1_000_000
DAY_US = 86_400 * 1_000_000
N_ENTITIES = 41
SURF = ("Entity{n}", "Entity {n}", "ENTITY-{n}")
VERBS = ("works with", "acquired", "is based in")


def _surface(variant: int, n: int) -> str:
    return SURF[variant].format(n=n)


def _page_html(doc_id: int, text: str) -> bytes:
    first_tok = text.split(" ", 1)[0] if text else ""
    desc = "" if doc_id % 11 == 0 else f"About {first_tok}"
    kw_sep = ",\n" if doc_id % 13 == 0 else ","
    keywords = f"kw{doc_id % 5}{kw_sep}alpha"
    robots = '\n<meta name="robots" content="noindex">' if doc_id % 19 == 0 else ""
    e1 = doc_id % N_ENTITIES
    e2 = (7 * doc_id + 3) % N_ENTITIES
    s_surface = _surface(doc_id % 3, e1)
    if doc_id % 17 == 0:
        o_surface = f"Widget-{doc_id % 29}"
    else:
        o_surface = _surface((doc_id // 3) % 3, e2)
    verb = VERBS[doc_id % 3]
    html = (
        "<html><head>"
        f"<title>Doc {doc_id}</title>\n"
        f'<meta name="description" content="{_html.escape(desc, quote=True)}">\n'
        f'<meta name="keywords" content="{_html.escape(keywords, quote=True)}">\n'
        f'<meta name="x-internal" content="crawler-7">'
        f"{robots}\n"
        "</head><body>\n"
        "<nav>Home | About | Contact</nav>\n"
        f"<p>{_html.escape(text)}</p>\n"
        f'<p class="fact">{_html.escape(s_surface)} {verb} {_html.escape(o_surface)}.</p>\n'
        "<footer>(c) example.org</footer>\n"
        "</body></html>"
    )
    data = html.encode("utf-8")
    if doc_id % 97 == 0:
        data = data[:40]  # malformed/truncated page (CRAZYDS analog)
    return data


def _synthesize_batch(df: pd.DataFrame, repeat: int = 1) -> pd.DataFrame:
    """One output page per (document, copy). ``repeat`` > 1 amplifies the
    corpus for scaling benchmarks: copy k shifts doc_id by 1e6·k, keeping
    every derived value a pure function of the effective id (urls unique,
    entity residues re-skewed — head entities get hotter, which is the
    point for the dedup/canonicalization shuffles)."""
    frames = []
    for k in range(repeat):
        base_id = df["doc_id"].to_numpy().astype("int64")
        doc_id = base_id + 1_000_000 * k
        frames.append(pd.DataFrame(
            {
                "url": [
                    f"https://ex{d % 20}.org/p/{d}" for d in doc_id
                ],
                # timestamp stays bounded: base id in days + copy in seconds
                "warc_ts": pd.to_datetime(
                    PAGES_EPOCH_US + base_id * DAY_US + k * 1_000_000,
                    unit="us"
                ),
                "html": [
                    _page_html(int(d), t) for d, t in zip(doc_id, df["text"])
                ],
                "text": df["text"].to_numpy(),
                "lang": df["lang"].to_numpy(),
            }
        ))
    return pd.concat(frames, ignore_index=True)


def synthesize_pages(sf_dir: str, out_dir: str | None = None,
                     num_shards: int = 8, repeat: int = 1) -> str:
    """Generate (or reuse a cached) pages parquet directory for ``sf_dir``.

    Runs as a Ray Data pipeline (read documents → map_batches → sharded
    parquet write); deterministic, so the /tmp cache is reusable across
    processes. Returns the pages directory path.
    """
    import ray.data as rd

    tag = os.path.basename(os.path.normpath(sf_dir))
    if repeat > 1:
        # fewer, larger files (driver metadata cost is per file) with
        # small row groups (Ray splits read tasks at row-group bounds, so
        # in-file parallelism survives)
        tag = f"{tag}_x{repeat}"
        num_shards = 16
    out_dir = out_dir or f"/tmp/kg_pages/{tag}"
    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        return out_dir

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "lang"],
                         override_num_blocks=8)
    ds = ds.map_batches(_synthesize_batch, batch_format="pandas",
                        fn_kwargs={"repeat": repeat})
    tmp_dir = out_dir + ".tmp"
    import shutil

    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    # shards carry no pandas schema metadata: pyarrow cannot hash a
    # schema with metadata, and Ray Data logs "Failed to hash the schemas"
    # whenever it unifies such schemas (every read of the pages)
    ds = ds.repartition(num_shards).map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow")
    ds.write_parquet(tmp_dir, row_group_size=8192)
    os.replace(tmp_dir, out_dir)
    with open(marker, "w") as f:
        f.write("ok")
    return out_dir


def read_pages(pages_dir: str, columns: list[str] | None = None):
    """Read the pages table, pruning columns at the read."""
    import ray.data as rd

    files = sorted(
        os.path.join(pages_dir, f)
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )
    return rd.read_parquet(files, columns=columns)


def build_alias_table() -> pa.Table:
    """The entity-linking alias dictionary (T3): normalized surface →
    canonical IRI, plus a tiny deterministic embedding. Includes a second
    alias per entity ('the entityN') so distinct SipHash keys map to one
    entity — exercising cross-key union-find merges."""
    import numpy as np

    surfaces, entity_ids, embeddings = [], [], []
    for n in range(N_ENTITIES):
        for surf in (f"entity{n}", f"theentity{n}"):
            surfaces.append(surf)
            entity_ids.append(f"ent:e{n}")
            rng = np.random.RandomState(1000 + n)
            embeddings.append(rng.rand(16).astype(np.float32))
    return pa.table(
        {
            "surface": pa.array(surfaces, pa.string()),
            "entity_id": pa.array(entity_ids, pa.string()),
            "embedding": pa.array(
                [e.tolist() for e in embeddings], pa.list_(pa.float32(), 16)
            ),
        }
    )
