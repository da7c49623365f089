"""Filter / rewrite operators (decorator analogs, SURVEY.md §2.3).

- ``skip_empty_literals`` — F1 (SkipEmptyLiteralsStreamRDF.java:53-68):
  drop quads whose object is a literal with empty lexical form; IRIs and
  non-empty literals pass. Opt-in, like the reference's
  ``--skipEmptyLiterals`` flag (Extract.java:122-124).
- ``tag_graph`` — F4 (SingleGraphStreamRDF.java:55-64): force every quad
  into one named graph (re-homing foreign graphs), a constant-column
  projection.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def skip_empty_literals_table(t: pa.Table) -> pa.Table:
    """Vectorized F1 predicate on one Arrow batch."""
    drop = pc.and_(t["obj_is_literal"], pc.equal(t["obj"], ""))
    return t.filter(pc.invert(drop))


def skip_empty_literals(ds):
    """Dataset-level F1 (mask inside map_batches — cheaper than ds.filter
    with a row predicate)."""
    return ds.map_batches(skip_empty_literals_table, batch_format="pyarrow")


def tag_graph_table(t: pa.Table, graph: str) -> pa.Table:
    gcol = pa.array([graph] * t.num_rows, pa.string())
    i = t.schema.get_field_index("graph")
    return t.set_column(i, "graph", gcol)


def tag_graph(ds, graph: str):
    """Re-home every quad of ``ds`` into ``graph``.

    Input contract: ``ds`` holds quads of ONE source graph, as every
    pages source here emits. The CLI applies this after ``dedup_quads``,
    so quads that differed only in their graph would come out as
    duplicate rows; a multi-graph input must be tagged before dedup
    instead."""
    return ds.map_batches(
        lambda t: tag_graph_table(t, graph), batch_format="pyarrow"
    )
