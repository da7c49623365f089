"""The key-local hash exchange — one place for the partitioning decision.

Every operator that needs all rows of a key in one task (window ops,
per-key argmax/argmin, tag-union merges, distincts, graph message
rounds) goes through ``hash_exchange``. It owns the partition count,
the routing hash, the shuffle backend and the bookkeeping column, so a
change of backend (e.g. Ray's hash shuffle) or of the count rule is a
change here only. Range or bucket exchanges whose meaning depends on the
count (``late_events``, ``global_rank_orders``) and groupbys on a
natural low-cardinality key are not hash exchanges and do not use it.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.hashing import fast_part_hash
from ..runtime import default_parts

# The routing column: reserved, so an input column of any other name
# (``part`` included) passes through the exchange untouched.
ROUTE_COL = "__exchange_part"


def exchange_parts() -> int:
    """The partition count of every hash exchange: one per CPU of the
    session, rounded up to a power of two (1 on one CPU). More
    partitions than CPUs only add finish tasks: at sf0.1 on 2 CPUs a
    floor of 8 made small queries 26–45% slower than one per CPU."""
    return default_parts(1.0, lo=1)


def hash_exchange(sides, key: str, finish, *, batch_format: str):
    """Co-locate all rows with equal ``key`` and run ``finish`` once per
    partition.

    ``sides`` is a Dataset or a list of Datasets with one schema (a
    tag-union merge passes one per side); equal keys from every side
    meet in the same ``finish`` call. A composite key routes on the one
    column that decides the group (a (v, w) pair fold on ``v``). Rows
    are routed by ``fast_part_hash(key) mod exchange_parts()`` with
    schema metadata stripped, and exchanged by Ray's sort shuffle on the
    routing column with one fixed range per partition (boundaries
    1 … n−1): no sampling pass, no range left empty or holding two
    partitions by a sampled boundary, map tasks × n pieces whatever the
    input's block count, and at most n output blocks, so iterative
    loops need no coalesce. ``finish`` receives each non-empty partition
    whole, in ``batch_format`` and without the routing column (every
    input column, ``part`` included, arrives as it was), and returns
    its output rows (a pandas frame or an Arrow table)."""
    if not isinstance(sides, (list, tuple)):
        sides = [sides]
    n = exchange_parts()

    def route(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return t.append_column(ROUTE_COL,
                               pa.array(fast_part_hash(t[key], n)))

    routed = [s.map_batches(route, batch_format="pyarrow") for s in sides]
    ds = routed[0].union(*routed[1:]) if len(routed) > 1 else routed[0]

    def run(batch):
        if len(batch):
            if isinstance(batch, pd.DataFrame):
                yield finish(batch.drop(columns=[ROUTE_COL]))
            else:
                yield finish(batch.drop_columns([ROUTE_COL]))

    run.__name__ = getattr(finish, "__name__", "finish")
    # one CPU: boundary [1] keeps the fixed-range sort (an empty list
    # would make Ray sample boundaries); the second range stays empty
    return (ds.sort(ROUTE_COL, boundaries=list(range(1, n)) or [1])
            .map_batches(run, batch_size=None, batch_format=batch_format))
