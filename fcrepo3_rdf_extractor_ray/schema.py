"""Canonical Arrow schemas and the RDF vocabulary.

Mirrors the *shape* of the reference's interned vocabulary
(``RdfVocabulary.java:45-107``): a module of constant IRIs, total
enum→IRI mappings, and bit-stable literal formatting
(``ObjectProcessor.java:272-274`` — ``isoDate`` drops sub-second zeros).

The engine's two fundamental tables:

- ``pages``: one row per web page (the analog of one FedoraObject /
  FOXML blob, ``ObjectProcessor.java:148-151``).
- ``quads``: one row per (graph, subj, pred, obj) statement (the analog
  of a Jena Quad promoted into a single named graph,
  ``SingleGraphStreamRDF.java:55-58``).
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Schemas

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),  # golden boilerplate-stripped text (oracle)
        ("lang", pa.string()),
    ]
)

# obj_datatype uses "" (not null) for plain literals / IRIs so the column
# can serve as a groupby/dedup key without null-key special cases.
QUADS_SCHEMA = pa.schema(
    [
        ("graph", pa.string()),
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_is_literal", pa.bool_()),
        ("obj_datatype", pa.string()),
        ("src_url", pa.string()),
    ]
)

QUAD_KEY_COLS = ["graph", "subj", "pred", "obj", "obj_is_literal", "obj_datatype"]
# Row order of the written shards: range-partitioned on the first three
# columns, each block sorted on all six (one row per key after dedup).
SINK_ORDER = ["subj", "pred", "obj", "graph", "obj_is_literal", "obj_datatype"]

ALIAS_SCHEMA = pa.schema(
    [
        ("surface", pa.string()),  # normalized surface form
        ("entity_id", pa.string()),  # canonical IRI
        ("embedding", pa.list_(pa.float32(), 16)),
    ]
)

LINEAGE_SCHEMA = pa.schema(
    [
        ("stage", pa.string()),
        ("input_shard", pa.string()),
        ("row_start", pa.int64()),
        ("row_end", pa.int64()),
        ("triple_count", pa.int64()),
        ("error_count", pa.int64()),
        ("wall_ms", pa.float64()),
    ]
)

# ---------------------------------------------------------------------------
# Vocabulary (RdfVocabulary.java:45-81 analog; CURIE-style short IRIs keep
# shuffle payloads small — the reference used full info:fedora/... IRIs).

GRAPH_IRI = "kg:web"  # the single target graph (Extract.java:96-100 analog)

RDF_TYPE = "rdf:type"
KG_WEBPAGE = "kg:WebPage"
KG_FETCHED_AT = "kg:fetchedAt"
KG_LANG = "kg:lang"
KG_DOMAIN = "kg:domain"
KG_TITLE = "kg:title"
KG_DESCRIPTION = "kg:description"
KG_KEYWORDS = "kg:keywords"
KG_STATE = "kg:state"
KG_ACTIVE = "kg:Active"
KG_INACTIVE = "kg:Inactive"

XSD_DATETIME = "xsd:dateTime"

# Total enum→IRI mapping (RdfVocabulary.state(), :83-94 — throws on unknown)
ROBOTS_STATE = {
    "noindex": KG_INACTIVE,
    "index": KG_ACTIVE,
}


def robots_state(value: str) -> str:
    """Total mapping robots-directive → state IRI; raises on unmapped value
    (mirrors the IllegalArgumentException of ``RdfVocabulary.java:92-93``)."""
    try:
        return ROBOTS_STATE[value]
    except KeyError:
        raise ValueError(f"unmapped robots state: {value!r}") from None


# Verb-phrase → predicate IRI mapping used by the OpenIE stage.
VERB_PRED = {
    "works with": "kg:worksWith",
    "acquired": "kg:acquired",
    "is based in": "kg:basedIn",
}

# Metadata whitelist: only these meta names produce triples (the analog of
# the DC-namespace whitelist, DublinCoreContentHandler.java:79-83).
META_WHITELIST = {
    "description": KG_DESCRIPTION,
    "keywords": KG_KEYWORDS,
}

ISO_FMT = "%Y-%m-%dT%H:%M:%SZ"  # ISO_INSTANT, no sub-second zeros


def iso_date_us(ts_us: int) -> str:
    """Epoch-microseconds → ISO-8601 UTC instant, bit-stable
    (``isoDate``, ObjectProcessor.java:272-274: ``...58.000Z`` → ``...58Z``).
    Sub-second digits are dropped entirely, matching the golden-file
    behavior in the reference (simple.nt:24)."""
    import datetime as _dt

    return _dt.datetime.fromtimestamp(ts_us // 1_000_000, tz=_dt.timezone.utc).strftime(ISO_FMT)


def quads_table(
    graph, subj, pred, obj, obj_is_literal, obj_datatype, src_url
) -> pa.Table:
    """Assemble a quads Arrow table from columns (lists or pa arrays)."""
    return pa.table(
        {
            "graph": pa.array(graph, pa.string()),
            "subj": pa.array(subj, pa.string()),
            "pred": pa.array(pred, pa.string()),
            "obj": pa.array(obj, pa.string()),
            "obj_is_literal": pa.array(obj_is_literal, pa.bool_()),
            "obj_datatype": pa.array(obj_datatype, pa.string()),
            "src_url": pa.array(src_url, pa.string()),
        }
    )


def empty_quads_table() -> pa.Table:
    return QUADS_SCHEMA.empty_table()
