"""Seeded inputs for the KG-build benchmark.

A corpus is a ``documents`` table generated from ``(workload, seed)``
alone. The program never sees the generator: it receives the pages that
its own ``synthesize_pages`` builds from those rows, and the DuckDB
``kg_quads_all`` oracle answers over the same rows.

Every corpus lives in a directory whose basename carries a hash of the
generated rows, so a page cache keyed by that basename can never hand
one corpus's pages to another.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from fcrepo3_rdf_extractor_ray.sources.pages import DAY_US, PAGES_EPOCH_US

# Synthesis stamps each page at epoch + doc_id days; pandas' ns
# timestamps end at 2262-04-11, so larger ids overflow the page writer.
DOC_ID_BOUND = (pd.Timestamp.max.value // 1000 - PAGES_EPOCH_US) // DAY_US + 1

# the synthesis spec truncates every page whose doc_id % 97 == 0
MALFORMED_MODULUS = 97

VOCAB = ("the a and of data key row join sort merge hash table stream "
         "batch group filter value window order query part line column "
         "vector spark fast slow big small customer agg scan der und le "
         "et el y los").split()
LANGS = ("en", "de", "fr", "es", "zh")


@dataclasses.dataclass(frozen=True)
class Workload:
    """How a workload's corpus is shaped and which job runs over it."""

    docs: int          # pages in the corpus
    body_repeat: int   # body length multiplier over 8-90 words
    resumable: bool    # run_kg_resumable with a simulated crash


WORKLOADS = {
    # short bodies, many quads: exchange, dedup and sink bound
    "short_pages": Workload(docs=8000, body_repeat=1, resumable=False),
    # short_pages-style corpus through the checkpointed, resumable path
    "crash_resume": Workload(docs=4000, body_repeat=1, resumable=True),
}


def make_documents(workload: Workload, seed: int,
                   scale: float = 1.0) -> pa.Table:
    """The seeded ``documents`` table: same (workload, seed, scale) →
    identical rows. doc ids are drawn without replacement below
    ``DOC_ID_BOUND``."""
    rng = np.random.default_rng(seed)
    n = max(1, int(round(workload.docs * scale)))
    ids = np.sort(rng.choice(DOC_ID_BOUND, size=n, replace=False))
    check_doc_ids(ids)
    words = rng.integers(8, 91, size=n) * workload.body_repeat
    vocab = np.asarray(VOCAB, dtype=object)
    tokens = vocab[rng.integers(0, len(VOCAB), size=int(words.sum()))]
    ends = np.cumsum(words)
    texts = [" ".join(tokens[e - w:e]) for e, w in zip(ends, words)]
    langs = np.asarray(LANGS, dtype=object)[rng.integers(0, len(LANGS), n)]
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array([f"src{i % 20}" for i in ids], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def check_doc_ids(ids: np.ndarray) -> None:
    """Raise if any id is outside [0, DOC_ID_BOUND)."""
    if len(ids) and (ids.min() < 0 or ids.max() >= DOC_ID_BOUND):
        raise ValueError(
            f"doc ids must lie in [0, {DOC_ID_BOUND}): page timestamps "
            f"overflow beyond; got [{ids.min()}, {ids.max()}]")


def content_hash(docs: pa.Table) -> str:
    """sha256 over the rows' values (independent of the Parquet encoder)."""
    h = hashlib.sha256()
    for name in docs.schema.names:
        h.update(name.encode())
        for value in docs[name].to_pylist():
            h.update(str(value).encode("utf-8"))
            h.update(b"\x1f")
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class Corpus:
    name: str        # <workload>-s<seed>-<content hash prefix>
    sf_dir: str      # holds documents.parquet, the program's sf-dir input
    pages_dir: str   # where the pages synthesized from it are cached
    n_docs: int
    n_malformed: int


def write_corpus(root: str, workload_name: str, seed: int,
                 scale: float = 1.0) -> Corpus:
    """Generate the corpus and write its documents table under ``root``."""
    docs = make_documents(WORKLOADS[workload_name], seed, scale)
    name = f"{workload_name}-s{seed}-{content_hash(docs)[:16]}"
    sf_dir = os.path.join(root, "corpus", name)
    os.makedirs(sf_dir, exist_ok=True)
    pq.write_table(docs, os.path.join(sf_dir, "documents.parquet"))
    ids = docs["doc_id"].to_numpy()
    return Corpus(name=name, sf_dir=sf_dir,
                  pages_dir=os.path.join(root, "pages", name),
                  n_docs=docs.num_rows,
                  n_malformed=int((ids % MALFORMED_MODULUS == 0).sum()))


def pages_html_mb(pages_dir: str) -> float:
    """Total html bytes of the synthesized pages, in MB."""
    import pyarrow.compute as pc

    total = 0
    for f in sorted(os.listdir(pages_dir)):
        if f.endswith(".parquet"):
            html = pq.read_table(os.path.join(pages_dir, f),
                                 columns=["html"])["html"]
            total += pc.sum(pc.binary_length(html)).as_py() or 0
    return total / 1e6
