"""Generic relational operators over the TPC-H-ish testdata tables.

These demonstrate the engine's general data-processing surface
(groupby/aggregate with per-batch combiners, broadcast hash join, Ray
hash join, sort+limit, tumbling-window aggregation, distinct). Money /
value sums are emitted in integer cents/micro units so the DuckDB
oracles compare exactly (no float-sum hash drift).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd


def _read(sf_dir: str, table: str, columns=None):
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                           columns=columns)


def _rename(ds, mapping: dict[str, str]):
    def fn(t: pa.Table) -> pa.Table:
        return t.rename_columns([mapping.get(c, c) for c in t.schema.names])

    return ds.map_batches(fn, batch_format="pyarrow")


def pricing_summary(sf_dir: str, ship_before: str = "1998-09-01"):
    """TPC-H Q1-shaped aggregate: per (returnflag, linestatus) totals.
    Per-batch Arrow combiner → small global groupby (the partial/final
    pattern — the shuffle moves one row per group per block)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate"])

    import datetime as _dt

    cutoff = _dt.datetime.fromisoformat(ship_before)

    def combine(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["l_shipdate"], pa.scalar(cutoff)))
        qty_c = pc.cast(pc.round(pc.multiply(t["l_quantity"], 100)), pa.int64())
        price_c = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                          pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)), pa.int64())
        # revenue in cent·percent units: price_cents × (100 - disc_pct_cents/1)
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()),
                                               disc_c))
        g = pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty_c": qty_c,
            "sum_base_c": price_c,
            "sum_disc_rev": rev,
            "n_rows": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }).group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("sum_qty_c", "sum"), ("sum_base_c", "sum"),
             ("sum_disc_rev", "sum"), ("n_rows", "sum")])
        return g.rename_columns(["l_returnflag", "l_linestatus", "sum_qty_c",
                                 "sum_base_c", "sum_disc_rev", "n_rows"])

    ds = ds.map_batches(combine, batch_format="pyarrow")
    g = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty_c"), Sum("sum_base_c"), Sum("sum_disc_rev"), Sum("n_rows"))
    return _rename(g, {"sum(sum_qty_c)": "sum_qty_c",
                       "sum(sum_base_c)": "sum_base_c",
                       "sum(sum_disc_rev)": "sum_disc_rev",
                       "sum(n_rows)": "n_rows"})


def top_customers(sf_dir: str, limit: int = 10):
    """Broadcast hash join (orders ⋈ customer) + groupby + sort + limit.
    The customer table is the small side: ``ray.put`` once, dict lookup
    inside map_batches — no shuffle join for a dimension table."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]).to_pandas()
    cust_ref = ray.put(pa.table({
        "c_custkey": pa.array(cust["c_custkey"], pa.int64()),
        "c_name": pa.array(cust["c_name"], pa.string()),
    }))

    def join_name(t: pa.Table) -> pa.Table:
        # stateless task reading the broadcast table zero-copy per task;
        # the lookup is a vectorized index_in + take, no per-row Python
        names = ray.get(cust_ref)
        idx = pc.index_in(t["o_custkey"], value_set=names["c_custkey"])
        joined = pc.take(names["c_name"], idx)
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                        pa.int64())
        return pa.table({
            "c_custkey": t["o_custkey"],
            "c_name": joined,
            "total_cents": cents,
        })

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = orders.map_batches(join_name, batch_format="pyarrow")

    # per-customer sum via per-batch combiner → custkey-hash partition →
    # one vectorized Arrow group_by per partition (Ray's builtin
    # aggregate pays ~µs of Python per group — too slow at 10k+ keys)
    n_parts = 16

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(["c_custkey", "c_name"]).aggregate(
            [("total_cents", "sum")])
        g = g.rename_columns(["c_custkey", "c_name", "total_cents"])
        part = pc.cast(pc.bit_wise_and(g["c_custkey"], n_parts - 1),
                       pa.int32())
        return g.append_column("part", part)

    def part_sum(t: pa.Table) -> pa.Table:
        g = t.group_by(["part", "c_custkey", "c_name"]).aggregate(
            [("total_cents", "sum")])
        g = g.rename_columns(["part", "c_custkey", "c_name", "total_cents"])
        # partial top-k: each partition holds every row of its customers
        # (sums are final here), so the global top-k is a subset of the
        # union of per-partition top-k — the final sort sees ≤
        # n_parts × limit rows instead of the whole customer table
        idx = pc.sort_indices(g, sort_keys=[("total_cents", "descending"),
                                            ("c_custkey", "ascending")])
        return g.take(idx[:limit])

    g = (joined.map_batches(combine, batch_format="pyarrow")
         .groupby("part").map_groups(part_sum, batch_format="pyarrow")
         .map_batches(lambda t: t.drop_columns(["part"]),
                      batch_format="pyarrow"))
    return g.sort(["total_cents", "c_custkey"], descending=[True, False]).limit(limit)


def revenue_by_nation(sf_dir: str):
    """Ray-native hash join path (customer ⋈ nation — both distributed)
    + aggregate: demonstrates Dataset.join for when neither side fits a
    broadcast."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_nationkey": t["c_nationkey"],
            "acctbal_cents": pc.cast(pc.round(pc.multiply(t["c_acctbal"], 100)),
                                     pa.int64()),
        })

    cust = cust.map_batches(cents, batch_format="pyarrow")
    # num_partitions bounded by the SMALL side (nation: 25 keys, fixed by
    # schema): Ray 2.49 materializes schema-less blocks for empty
    # small-side join partitions, so ≥~6 keys/partition is required —
    # this constant is key-count-derived, not a cluster-size default
    joined = cust.join(nation, join_type="inner", num_partitions=4,
                       on=("c_nationkey",), right_on=("n_nationkey",))
    g = joined.groupby("n_name").aggregate(Sum("acctbal_cents"))
    return _rename(g, {"sum(acctbal_cents)": "acctbal_cents"})


def orders_topk(sf_dir: str, k: int = 10):
    """Global sort + limit (ties broken by orderkey for determinism)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "total_cents": pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                                   pa.int64()),
            "o_orderdate": t["o_orderdate"],
        })

    return (ds.map_batches(cents, batch_format="pyarrow")
            .sort(["total_cents", "o_orderkey"], descending=[True, False])
            .limit(k))


def events_hourly(sf_dir: str):
    """Tumbling-window aggregate: events bucketed to the hour, per
    (event_type, hour): count + sum(value) in cents. Window assignment is
    a vectorized projection; the shuffle is an ordinary groupby."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        return pa.table({
            "event_type": t["event_type"],
            "hour": pc.cast(hour, pa.timestamp("us")),
            "value_cents": pc.cast(pc.round(pc.multiply(t["value"], 100)),
                                   pa.int64()),
            "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        })

    ds = ds.map_batches(bucket, batch_format="pyarrow")
    g = ds.groupby(["event_type", "hour"]).aggregate(Sum("value_cents"), Sum("n"))
    g = _rename(g, {"sum(value_cents)": "value_cents", "sum(n)": "n_events"})

    # Ray's sort-shuffle groupby round-trips blocks through pandas, which can
    # coarsen the timestamp unit; re-assert timestamp[us] AFTER the aggregate
    # so the output schema matches the DuckDB oracle exactly.
    def fix_unit(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("hour")
        return t.set_column(i, "hour", pc.cast(t["hour"], pa.timestamp("us")))

    return g.map_batches(fix_unit, batch_format="pyarrow")


def sessionize_events(sf_dir: str, gap_minutes: int = 30):
    """Stateful windowed operator: per-user sessionization (a new session
    starts when the gap to the previous event exceeds ``gap_minutes``).

    Partition by user hash (bounded partition count), then a vectorized
    pandas pass inside each partition: sort by (user, ts), flag gaps,
    cumulative-sum session ids, aggregate per session. The per-user
    ordering requirement only ever needs user-locality — one exchange."""
    n_parts = 32
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1), pa.int32())
        return t.append_column("part", part)

    ds = ds.map_batches(add_part, batch_format="pyarrow").repartition(n_parts)

    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts"])
        new_user = df["user_id"].ne(df["user_id"].shift())
        gap_break = df["ts"].diff() > gap
        df["session_seq"] = (new_user | gap_break).cumsum()
        g = df.groupby(["user_id", "session_seq"], as_index=False).agg(
            n_events=("event_id", "size"),
            start_ts=("ts", "min"),
            end_ts=("ts", "max"),
            value_cents=("value", lambda v: int(round(v.sum() * 100))),
        )
        # session_id = rank of session within user (1-based, by start time)
        g["session_id"] = g.groupby("user_id")["start_ts"].rank(
            method="first").astype("int64")
        return g[["user_id", "session_id", "n_events", "start_ts", "end_ts",
                  "value_cents"]]

    return ds.groupby("part").map_groups(sessions, batch_format="pandas")


def semi_join_orders(sf_dir: str, min_acctbal: float = 5000.0):
    """Semi-join: orders whose customer has acctbal > threshold. The
    filter set is broadcast (ray.put once) — an IN-subquery without a
    shuffle."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).to_pandas()
    keep = cust.loc[cust["c_acctbal"] > min_acctbal, "c_custkey"]
    keep_ref = ray.put(pa.array(keep, pa.int64()))

    def fil(t: pa.Table) -> pa.Table:
        ks = ray.get(keep_ref)
        t = t.filter(pc.is_in(t["o_custkey"], value_set=ks))
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_custkey": t["o_custkey"],
            "total_cents": pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                                   pa.int64()),
        })

    return _read(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_totalprice"]).map_batches(
        fil, batch_format="pyarrow")


def props_value_sum(sf_dir: str):
    """Semi-structured extraction: parse the JSON ``props`` column, sum
    the ``k`` field per event type (vectorized json parse per batch)."""
    import json

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        ks = [json.loads(p).get("k", 0) for p in t["props"].to_pylist()]
        return pa.table({
            "event_type": t["event_type"],
            "k": pa.array(ks, pa.int64()),
        })

    g = ds.map_batches(extract, batch_format="pyarrow")
    g = g.groupby("event_type").aggregate(Sum("k"))
    return _rename(g, {"sum(k)": "k_sum"})


def deterministic_sample(sf_dir: str, pct_bucket: int = 32):
    """Deterministic content-hash sampling over documents: keep rows whose
    md5(text) first byte < ``pct_bucket`` (≈ pct_bucket/256 of the data,
    stable across runs/cluster sizes — the reproducible-training-subset
    op). SQL mirror: substring(md5(text),1,2) comparison."""
    import hashlib

    import ray.data as rd
    import os

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])

    def fil(t: pa.Table) -> pa.Table:
        keep = [hashlib.md5(s.encode("utf-8")).digest()[0] < pct_bucket
                for s in t["text"].to_pylist()]
        return t.filter(pa.array(keep)).select(["doc_id"])

    return ds.map_batches(fil, batch_format="pyarrow")


def stratified_sample(sf_dir: str, rates: dict[str, int] | None = None,
                      default_bucket: int = 16):
    """STRATIFIED deterministic sampling: per-stratum (language) keep
    rates, content-hash stable — the "rebalance the training mix"
    op (e.g. keep more high-resource-language docs). Same cluster-size-
    invariant md5 predicate as ``deterministic_sample``, with the
    threshold looked up per row from the stratum map (tiny dict captured
    by closure — effectively broadcast)."""
    import hashlib

    rates = rates if rates is not None else {"en": 64, "de": 32}
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def fil(t: pa.Table) -> pa.Table:
        keep = [hashlib.md5(s.encode("utf-8")).digest()[0]
                < rates.get(lang, default_bucket)
                for s, lang in zip(t["text"].to_pylist(),
                                   t["lang"].to_pylist())]
        return t.filter(pa.array(keep)).select(["doc_id", "lang"])

    return ds.map_batches(fil, batch_format="pyarrow")


def chars_quantiles(sf_dir: str):
    """Exact discrete quantiles of a bounded-cardinality int column via a
    distributed value histogram (groupby count) + tiny driver cumsum —
    no global sort."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["n_chars"])
    hist = ds.groupby("n_chars").aggregate(Count()).to_pandas()
    hist = hist.sort_values("n_chars").reset_index(drop=True)
    total = hist["count()"].sum()
    cum = hist["count()"].cumsum()
    out = {}
    for name, q in (("p25", 0.25), ("p50", 0.5), ("p75", 0.75)):
        # DuckDB quantile_disc semantics: element at ceil(q·n)-1, 0-based
        import math

        idx = max(0, math.ceil(q * total) - 1)
        out[name] = int(hist.loc[cum >= idx + 1, "n_chars"].iloc[0])
    return pd.DataFrame([out])


def grouped_quantiles(sf_dir: str, q: float = 0.5):
    """Exact per-group discrete quantile (median chars per source) via a
    distributed per-(group, value) histogram — the grouped form of
    ``chars_quantiles``: the first groupby bounds the exchange to
    #groups × #distinct-values rows, the second co-locates each group's
    histogram for a tiny vectorized cumsum. No global sort, no per-row
    shuffle."""
    import math

    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    hist = ds.groupby(["source", "n_chars"]).aggregate(Count())

    col = f"p{int(round(q * 100))}"

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("n_chars").reset_index(drop=True)
        total = df["count()"].sum()
        cum = df["count()"].cumsum()
        # DuckDB quantile_disc: element at ceil(q·n)-1, 0-based (equals
        # floor(q·(n-1)) at the quartiles but not at general q)
        idx = max(0, math.ceil(q * total) - 1)
        val = int(df.loc[cum >= idx + 1, "n_chars"].iloc[0])
        return pd.DataFrame({"source": [df["source"].iloc[0]],
                             col: np.array([val], dtype="int64")})

    return hist.groupby("source").map_groups(pick, batch_format="pandas")


def grouped_quantiles_cont(sf_dir: str, qs=(0.25, 0.5, 0.75)):
    """CONTINUOUS (interpolated) per-group quantiles — SQL
    ``quantile_cont`` / ``percentile_cont`` semantics: rank position
    h = (n-1)·q with linear interpolation between the bracketing
    values. Same scale shape as ``grouped_quantiles``: a
    per-(group, value) histogram bounds the exchange, and the per-group
    finish is two searchsorted probes into the cumulative counts — no
    global sort, no per-row shuffle. Emitted in micro-units: at
    quartile q the interpolation fraction is an exact binary float, so
    float64 arithmetic is bit-exact vs the SQL oracle."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    hist = ds.groupby(["lang", "n_chars"]).aggregate(Count())

    def interp(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("n_chars").reset_index(drop=True)
        c = df["count()"].cumsum().values
        n = int(c[-1])
        vals = df["n_chars"].values.astype(np.float64)
        out = {"lang": [df["lang"].iloc[0]]}
        for q in qs:
            h = (n - 1) * q
            lo, hi = int(np.floor(h)), int(np.ceil(h))
            # 0-based rank r lives in the value-bucket j with
            # c[j-1] <= r < c[j]
            vlo = vals[np.searchsorted(c, lo, side="right")]
            vhi = vals[np.searchsorted(c, hi, side="right")]
            val = vlo + (vhi - vlo) * (h - lo)
            out[f"p{int(round(q * 100))}_micro"] = np.array(
                [np.floor(val * 1e6)], dtype="int64")
        return pd.DataFrame(out)

    return hist.groupby("lang").map_groups(interp, batch_format="pandas")


def urgent_or_large_orders(sf_dir: str, min_cents: int = 30_000_00):
    """Set operation: (urgent orders) ∪ (large orders), distinct — two
    filtered streams united with ``Dataset.union`` and deduplicated by
    key (an order can satisfy both predicates)."""
    from ray.data.aggregate import Min

    base = _read(sf_dir, "orders",
                 ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_orderpriority": t["o_orderpriority"],
            "total_cents": pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                                   pa.int64()),
        })

    base = base.map_batches(to_cents, batch_format="pyarrow")
    urgent = base.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")),
        batch_format="pyarrow")
    large = base.map_batches(
        lambda t: t.filter(pc.greater(t["total_cents"], min_cents)),
        batch_format="pyarrow")
    u = urgent.union(large)
    g = u.groupby("o_orderkey").aggregate(Min("o_orderpriority"),
                                          Min("total_cents"))
    return _rename(g, {"min(o_orderpriority)": "o_orderpriority",
                       "min(total_cents)": "total_cents"})


def distinct_users_by_type(sf_dir: str):
    """Distinct aggregation: unique users per event type (two-phase:
    distinct pairs, then count — both shuffles carry pre-deduped rows)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(["event_type", "user_id"]).aggregate([])
        return g

    ds = ds.map_batches(combine, batch_format="pyarrow")
    pairs = ds.groupby(["event_type", "user_id"]).aggregate(Count())
    pairs = pairs.select_columns(["event_type", "user_id"])
    g = pairs.groupby("event_type").aggregate(Count())
    return _rename(g, {"count()": "n_users"})


def asof_last_purchase(sf_dir: str, n_parts: int | None = None):
    """AS-OF JOIN (time-series feature op): each event gains the
    timestamp of the SAME user's most recent strictly-earlier 'purchase'
    event and the gap in epoch-microseconds — the "time since last X"
    feature a training pipeline derives per example.

    Ray shape: one exchange (user-hash partition co-locates each user's
    events with their purchases), then a vectorized ``pandas.merge_asof``
    per partition — as-of needs only per-key time-locality, never a
    global sort. Gap is exact integer microseconds so the DuckDB ASOF
    JOIN oracle compares bit-for-bit."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1), pa.int32())
        return t.append_column("part", part)

    ds = ds.map_batches(add_part, batch_format="pyarrow").repartition(n_parts)

    def asof(df: pd.DataFrame) -> pd.DataFrame:
        left = df.sort_values("ts", kind="mergesort")
        right = (df[df["event_type"] == "purchase"][["user_id", "ts"]]
                 .sort_values("ts", kind="mergesort")
                 .rename(columns={"ts": "last_purchase_ts"}))
        out = pd.merge_asof(left, right, left_on="ts",
                            right_on="last_purchase_ts", by="user_id",
                            direction="backward", allow_exact_matches=False)
        gap = (out["ts"].astype("int64")
               - out["last_purchase_ts"].astype("int64"))
        # -1 sentinel for "no earlier purchase" keeps the column a plain
        # int64 (a nullable int would round-trip unstably through the
        # pandas block format and the DuckDB fetch)
        out["gap_us"] = gap.where(out["last_purchase_ts"].notna(),
                                  -1).astype("int64")
        return out[["event_id", "user_id", "ts", "gap_us"]]

    return ds.groupby("part").map_groups(asof, batch_format="pandas")


def range_join_attribution(sf_dir: str, window_minutes: int = 10,
                           n_parts: int | None = None):
    """RANGE (interval) JOIN: for every 'purchase' event, count the same
    user's 'click' events in the half-open window (ts - w, ts) — the
    classic attribution join a feature pipeline runs at scale.

    Ray shape: one user-hash exchange, then per-partition vectorized
    counting — clicks sorted once per (partition, user) and windows
    resolved by binary search (``np.searchsorted``), never an O(n²)
    nested loop. The partition key bounds group count, the per-user
    work is two sorted arrays."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1), pa.int32())
        return t.append_column("part", part)

    ds = ds.map_batches(add_part, batch_format="pyarrow").repartition(n_parts)
    w_us = np.int64(window_minutes * 60 * 1_000_000)

    def attribute(df: pd.DataFrame) -> pd.DataFrame:
        out_id, out_n = [], []
        purchases = df[df["event_type"] == "purchase"]
        clicks = df[df["event_type"] == "click"]
        for uid, p in purchases.groupby("user_id"):
            c = clicks[clicks["user_id"] == uid]["ts"].astype("int64")
            c = np.sort(c.to_numpy())
            pts = p["ts"].astype("int64").to_numpy()
            lo = np.searchsorted(c, pts - w_us, side="right")  # ts > p-w
            hi = np.searchsorted(c, pts, side="left")          # ts < p
            out_id.append(p["event_id"].to_numpy())
            out_n.append(hi - lo)
        if not out_id:
            return pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                                 "n_clicks": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "event_id": np.concatenate(out_id).astype("int64"),
            "n_clicks": np.concatenate(out_n).astype("int64"),
        })

    return ds.groupby("part").map_groups(attribute, batch_format="pandas")


def rolling_user_spend(sf_dir: str, window: int = 4, n_parts: int | None = None):
    """ROLLING-WINDOW aggregate (the per-example trailing feature):
    each event gains the sum of the same user's last ``window`` event
    values (current row included), ordered by (ts, event_id).

    Ray shape: one user-hash exchange, then a vectorized per-partition
    pass — grouped cumulative sums on integer cents (cum minus
    cum.shift(w) within user), so the result is exact and
    order-independent and the DuckDB window-function oracle compares
    bit-for-bit. Rolling windows only ever need per-key time-locality,
    never a global sort."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1), pa.int32())
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)), pa.int64())
        return pa.table({
            "event_id": t["event_id"], "ts": t["ts"],
            "user_id": t["user_id"], "cents": cents, "part": part,
        })

    ds = ds.map_batches(add_part, batch_format="pyarrow").repartition(n_parts)

    def roll(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        cum = df.groupby("user_id")["cents"].cumsum()
        lag = cum.groupby(df["user_id"]).shift(window).fillna(0).astype("int64")
        df["roll_cents"] = (cum - lag).astype("int64")
        return df[["event_id", "user_id", "ts", "roll_cents"]]

    return ds.groupby("part").map_groups(roll, batch_format="pandas")


def rolling_user_max(sf_dir: str, window: int = 4, n_parts: int | None = None):
    """Sliding-window MAX — the monotonic-deque primitive (running sums
    don't telescope for max, so this is a genuinely different kernel
    from ``rolling_user_spend``): each event gains the max of the same
    user's last ``window`` event values ordered by (ts, event_id).

    Same one-exchange shape; the per-partition pass is pandas'
    C-implemented ``groupby(...).rolling(window).max()`` over integer
    cents — exact, so the SQL window oracle compares bit-for-bit."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1), pa.int32())
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)), pa.int64())
        return pa.table({
            "event_id": t["event_id"], "ts": t["ts"],
            "user_id": t["user_id"], "cents": cents, "part": part,
        })

    ds = ds.map_batches(add_part, batch_format="pyarrow").repartition(n_parts)

    def roll(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        mx = (df.groupby("user_id")["cents"]
              .rolling(window, min_periods=1).max()
              .reset_index(level=0, drop=True))
        df["max_cents"] = mx.astype("int64")
        return df[["event_id", "user_id", "ts", "max_cents"]]

    return ds.groupby("part").map_groups(roll, batch_format="pandas")


def conversion_lag(sf_dir: str, from_type: str = "view",
                   to_type: str = "purchase", n_parts: int | None = None):
    """TIME-TO-CONVERSION (first-touch attribution): per user,
    microseconds between their FIRST ``from_type`` and FIRST
    ``to_type`` events; users lacking either leg, or whose first
    ``to_type`` precedes their first ``from_type``, are absent (the
    min-vs-min rule — deliberately NOT "first purchase after the
    view", which would need the full event stream instead of two
    associative argmins). Per-batch combiner keeps ≤ 2 rows per user
    per block; ONE user-keyed exchange finishes."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "events", ["ts", "user_id", "event_type"])

    def legs(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array([from_type, to_type]))
        t = t.filter(keep)
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        g = (pa.table({"user_id": t["user_id"],
                       "event_type": t["event_type"], "us": us})
             .group_by(["user_id", "event_type"])
             .aggregate([("us", "min")]))
        g = g.rename_columns(["user_id", "event_type", "us"])
        part = pc.cast(pc.bit_wise_and(g["user_id"], n_parts - 1),
                       pa.int32())
        return g.append_column("part", part)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["user_id", "event_type"], as_index=False)["us"]
             .min())
        p = g.pivot(index="user_id", columns="event_type", values="us")
        for c in (from_type, to_type):
            if c not in p.columns:
                p[c] = np.nan
        p = p.dropna(subset=[from_type, to_type])
        # first to_type AT OR AFTER the first from_type: with only the
        # two firsts retained, that is simply first_to >= first_from
        p = p[p[to_type] >= p[from_type]]
        return pd.DataFrame({
            "user_id": p.index.to_numpy().astype("int64"),
            "lag_us": (p[to_type] - p[from_type]).to_numpy()
            .astype("int64")})

    return (ds.map_batches(legs, batch_format="pyarrow")
            .groupby("part").map_groups(finish, batch_format="pandas"))


def _range_window_sums(tsv: np.ndarray, gid: np.ndarray,
                       cents: np.ndarray, delta: int) -> np.ndarray:
    """Trailing-range window sums per segment: for each row i, the sum of
    ``cents`` over rows j in the same gid segment with
    ``tsv[i]-delta <= tsv[j] <= tsv[i]`` (peers included). Rows must
    arrive sorted by (gid, tsv).

    Fast path packs (gid, rebased ts) into one int64 key so both range
    probes are single global ``searchsorted`` calls; each segment is
    rebased to its own min, so the stride scales with the max PER-USER
    span, and the int64 bound is CHECKED — on overflow (users/partition
    × per-user span beyond ~9.2e18) it falls back to exact per-segment
    probes instead of silently wrapping."""
    n = len(tsv)
    if not n:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(cents)
    seg_first = np.unique(gid, return_index=True)[1]
    seg_len = np.diff(np.append(seg_first, n))
    rebased = tsv - np.repeat(tsv[seg_first], seg_len)
    span = int(rebased.max())
    stride = span + delta + 1
    if int(gid[-1]) * stride + span < np.iinfo(np.int64).max:
        # prev segment's max key = g*stride - delta - 1 < any query key
        # g*stride + rebased - delta, so probes can't cross segments
        key = rebased + gid * stride
        lo = np.searchsorted(key, key - delta, side="left")
        hi = np.searchsorted(key, key, side="right")
        s = cum[hi - 1] - np.where(lo > 0, cum[lo - 1], 0)
    else:
        s = np.empty(n, dtype=np.int64)
        bounds = np.append(seg_first, n)
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg = tsv[a:b]
            lo = a + np.searchsorted(seg, seg - delta, side="left")
            hi = a + np.searchsorted(seg, seg, side="right")
            s[a:b] = cum[hi - 1] - np.where(lo > 0, cum[lo - 1], 0)
    return s.astype(np.int64)


def time_window_spend(sf_dir: str, minutes: int = 60, n_parts: int | None = None):
    """TIME-RANGE windowed aggregate (RANGE frame, not row frame): each
    event gains the sum of the same user's event values inside the
    trailing ``minutes`` interval — SQL's ``RANGE BETWEEN INTERVAL ...
    PRECEDING AND CURRENT ROW``, peers (equal timestamps) included.

    Ray shape: one user-hash exchange, then a fully vectorized
    per-partition pass — a global cumsum plus two ``searchsorted`` calls
    on timestamps offset by a per-user stride (the stride exceeds any
    real time span, so range probes can never cross a user boundary).
    Exact integer cents; no per-user Python loop."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1), pa.int32())
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)), pa.int64())
        return pa.table({
            "event_id": t["event_id"], "ts": t["ts"],
            "user_id": t["user_id"], "cents": cents, "part": part,
        })

    ds = ds.map_batches(add_part, batch_format="pyarrow").repartition(n_parts)
    delta = np.int64(minutes) * 60 * 1_000_000  # µs

    def win(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"]).reset_index(
            drop=True)
        tsv = df["ts"].values.astype("datetime64[us]").astype(np.int64)
        gid = df.groupby("user_id", sort=False).ngroup().values
        s = _range_window_sums(tsv, gid, df["cents"].values, int(delta))
        df["win_cents"] = s
        return df[["event_id", "user_id", "ts", "win_cents"]]

    return ds.groupby("part").map_groups(win, batch_format="pandas")


def customers_without_orders(sf_dir: str, priority: str = "1-URGENT"):
    """ANTI-JOIN: customers that placed no ``priority`` order. Scale
    shape: filter + distinct order custkeys via a per-batch combiner
    (bounds the shuffle to one row per key per block), then a Ray-native
    left-outer hash join against customer and a null-marker filter — no
    driver-side key set, both sides stream."""
    from ray.data.aggregate import Count
    from ..stages.canonicalize import _safe_join_partitions

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def distinct_batch(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], priority))
        return t.select(["o_custkey"]).group_by(["o_custkey"]).aggregate([])

    okeys = (orders.map_batches(distinct_batch, batch_format="pyarrow")
             .groupby("o_custkey").aggregate(Count()))
    okeys = _rename(okeys, {"count()": "seen"}).materialize()

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    if okeys.count() == 0:
        # no order matches the priority → every customer qualifies; the
        # join would crash on the schema-less blocks of an empty Dataset
        return cust
    n_parts = _safe_join_partitions(okeys.count())
    joined = cust.join(okeys, join_type="left_outer",
                       num_partitions=n_parts,
                       on=("c_custkey",), right_on=("o_custkey",))

    def keep_missing(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_null(t["seen"]))
        return t.select(["c_custkey", "c_name"])

    return joined.map_batches(keep_missing, batch_format="pyarrow")


def top_orders_per_priority(sf_dir: str, k: int = 3):
    """GROUPED TOP-K (top-N per group): the k largest orders within each
    order priority, with a dense 1-based rank. Per-batch partial top-k
    per group (sort inside the Arrow batch, take k per group) bounds the
    exchange to ≤ k×groups rows per block; the final per-group pass
    re-ranks the union — the global answer is always a subset of the
    partials, so the shuffle never carries the fact table."""
    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def partial_topk(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                        pa.int64())
        t = pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "o_orderkey": t["o_orderkey"],
            "total_cents": cents,
        })
        idx = pc.sort_indices(t, sort_keys=[
            ("o_orderpriority", "ascending"),
            ("total_cents", "descending"),
            ("o_orderkey", "ascending")])
        t = t.take(idx)
        df = t.to_pandas()
        return pa.Table.from_pandas(
            df.groupby("o_orderpriority", sort=False).head(k),
            preserve_index=False)

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_orderpriority", "total_cents", "o_orderkey"],
                            ascending=[True, False, True])
        df = df.groupby("o_orderpriority", sort=False).head(k).copy()
        df["rnk"] = df.groupby("o_orderpriority").cumcount() + 1
        return df[["o_orderpriority", "rnk", "o_orderkey", "total_cents"]]

    return (ds.map_batches(partial_topk, batch_format="pyarrow")
            .groupby("o_orderpriority")
            .map_groups(final_topk, batch_format="pandas"))


def event_type_pivot(sf_dir: str):
    """PIVOT / conditional aggregation: one row per user with per-type
    event counts as wide columns plus total spend in cents. The pivot is
    a vectorized per-batch projection to indicator ints + the standard
    combiner → small-groupby pattern (shuffle carries ≤ one row per user
    per block, 7 ints wide); the final reduce is one vectorized Arrow
    group_by per hash partition, not a per-group Python aggregate."""
    types = ("click", "error", "purchase", "signup", "view")
    val_cols = [f"n_{ty}" for ty in types] + ["value_cents"]
    n_parts = 16
    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def widen(t: pa.Table) -> pa.Table:
        cols = {"user_id": t["user_id"]}
        for ty in types:
            ind = pc.cast(pc.equal(t["event_type"], ty), pa.int64())
            cols[f"n_{ty}"] = ind
        cols["value_cents"] = pc.cast(
            pc.round(pc.multiply(t["value"], 100)), pa.int64())
        w = pa.table(cols)
        g = w.group_by(["user_id"]).aggregate(
            [(c, "sum") for c in val_cols])
        g = g.rename_columns(["user_id"] + val_cols)
        part = pc.cast(pc.bit_wise_and(g["user_id"], n_parts - 1), pa.int32())
        return g.append_column("part", part)

    def part_sum(t: pa.Table) -> pa.Table:
        g = t.group_by(["part", "user_id"]).aggregate(
            [(c, "sum") for c in val_cols])
        g = g.rename_columns(["part", "user_id"] + val_cols)
        return g.drop_columns(["part"])

    return (ds.map_batches(widen, batch_format="pyarrow")
            .groupby("part").map_groups(part_sum, batch_format="pyarrow"))


def group_concat_docs(sf_dir: str, k: int = 8):
    """Grouped ordered string-agg, BOUNDED: the first k doc_ids per
    language concatenated in order — the "collect sample rows per
    group" inspection op. Unbounded per-group collects are an
    anti-pattern at scale, so the per-batch combiner keeps only the
    k smallest ids per group before the exchange (≤ k rows per group
    per block shuffle) and the final per-group task re-sorts ≤
    k × n_blocks ids."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values("doc_id").groupby("lang", sort=False)
                .head(k).reset_index(drop=True))

    def concat(df: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(df["doc_id"].tolist())[:k]
        return pd.DataFrame({
            "lang": [df["lang"].iloc[0]],
            "first_ids": [",".join(str(i) for i in ids)],
        })

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("lang").map_groups(concat, batch_format="pandas"))


def full_outer_customer_orders(sf_dir: str, min_acctbal: float = 5000.0,
                               num_partitions: int | None = None):
    """FULL OUTER join: per-customer order stats ⟗ the high-balance
    customer roster. Both null directions occur (orders whose customer
    is below the balance cutoff; rich customers with no orders) and are
    canonicalized with sentinel fills so the oracle compares exactly.

    Shape: TAG-UNION co-partitioned merge — each side contributes rows
    to one union stream (orders pre-combined per batch, so the exchange
    moves aggregate-sized rows), the custkey-hash ``groupby(part)``
    colocates both sides in ONE exchange, and a vectorized pandas outer
    merge finishes per partition. No join-actor pools, no second
    aggregation exchange: the per-partition step both completes the
    order counts and performs the outer merge. (Ray's native ``join``
    API is exercised by the kg_quads_join_resolve path.)"""
    from ..runtime import cluster_cpus

    if num_partitions is None:
        num_partitions = max(8, cluster_cpus() // 2)
    n_parts = num_partitions

    orders = _read(sf_dir, "orders", ["o_custkey"])

    def combine(t: pa.Table) -> pa.Table:
        g = pa.table({
            "custkey": t["o_custkey"],
            "n_orders": pa.array(np.ones(t.num_rows, np.int64)),
        }).group_by("custkey").aggregate([("n_orders", "sum")])
        g = g.rename_columns(["custkey", "n_orders"])
        return pa.table({
            "custkey": g["custkey"],
            "n_orders": g["n_orders"],
            "acctbal_c": pa.nulls(g.num_rows, pa.int64()),
            "part": pc.cast(pc.bit_wise_and(g["custkey"], n_parts - 1),
                            pa.int32()),
        })

    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def rich(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["c_acctbal"], min_acctbal))
        return pa.table({
            "custkey": t["c_custkey"],
            "n_orders": pa.nulls(t.num_rows, pa.int64()),
            "acctbal_c": pc.cast(pc.round(pc.multiply(t["c_acctbal"], 100)),
                                 pa.int64()),
            "part": pc.cast(pc.bit_wise_and(t["c_custkey"], n_parts - 1),
                            pa.int32()),
        })

    both = (orders.map_batches(combine, batch_format="pyarrow")
            .union(cust.map_batches(rich, batch_format="pyarrow")))

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        a = (df[df["acctbal_c"].isna()]
             .groupby("custkey", as_index=False)["n_orders"].sum())
        b = df.loc[df["acctbal_c"].notna(), ["custkey", "acctbal_c"]]
        m = a.merge(b, how="outer", on="custkey")
        return pd.DataFrame({
            "custkey": m["custkey"].astype("int64"),
            "n_orders": m["n_orders"].fillna(0).astype("int64"),
            "acctbal_c": m["acctbal_c"].fillna(-1).astype("int64"),
        })

    return both.groupby("part").map_groups(merge, batch_format="pandas")


def global_rank_orders(sf_dir: str, n_buckets: int | None = None):
    """TeraSort-style distributed total-order rank: every order gets its
    exact global row number under (price DESC, orderkey ASC).

    A global sort that must also EMIT positions can't be a plain
    ``ds.sort`` (blocks don't know their global offset), so this uses
    the classic range-partition shape: key-range bucketing from one
    min/max pass, per-bucket sort + local rank inside ``map_groups``
    (one task per bucket — no task ever holds more than ~1/n_buckets of
    the data), then a per-bucket offset add. The only driver-side state
    is the n_buckets-sized count vector — bounded by configuration, not
    by data, so the shape holds at 100 TB with n_buckets scaled to the
    cluster. Prices are ranked in integer cents (exact; ties broken by
    orderkey, so the total order is unique and deterministic)."""
    from ray.data.aggregate import Max, Min

    from ..runtime import cluster_cpus

    if n_buckets is None:
        n_buckets = max(8, 2 * cluster_cpus())

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "price_c": pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                               pa.int64()),
        })

    ds = ds.map_batches(to_cents, batch_format="pyarrow").materialize()
    mm = ds.aggregate(Min("price_c"), Max("price_c"))
    if not mm or mm.get("min(price_c)") is None:  # empty input
        return ds.map_batches(
            lambda t: pa.table({"o_orderkey": t["o_orderkey"],
                                "rnk": pa.array([], pa.int64())}),
            batch_format="pyarrow")
    lo, hi = int(mm["min(price_c)"]), int(mm["max(price_c)"])
    span = hi - lo + 1

    def bucketize(t: pa.Table) -> pa.Table:
        # DESC rank order → bucket 0 holds the highest prices
        b = ((hi - t["price_c"].to_numpy()) * n_buckets) // span
        return t.append_column("bucket", pa.array(b.astype(np.int64)))

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow").materialize()

    # per-bucket counts: a combiner per block, then an n_buckets-sized
    # exchange — the prefix-sum offsets are the bounded driver state
    def count_part(t: pa.Table) -> pa.Table:
        g = pa.table({"bucket": t["bucket"],
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        return g.group_by("bucket").aggregate([("n", "sum")]).rename_columns(
            ["bucket", "n"])

    from ray.data.aggregate import Sum
    counts = (bucketed.map_batches(count_part, batch_format="pyarrow")
              .groupby("bucket").aggregate(Sum("n")).take_all())
    counts.sort(key=lambda r: r["bucket"])
    offsets, acc = {}, 0
    for r in counts:
        offsets[r["bucket"]] = acc
        acc += r["sum(n)"]
    off_ref = ray.put(offsets)

    def rank_bucket(g: pa.Table) -> pa.Table:
        off = ray.get(off_ref)[g["bucket"][0].as_py()]
        pr = g["price_c"].to_numpy()
        ok = g["o_orderkey"].to_numpy()
        order = np.lexsort((ok, -pr))  # price DESC, orderkey ASC
        rnk = np.empty(len(order), np.int64)
        rnk[order] = off + 1 + np.arange(len(order))
        return pa.table({"o_orderkey": g["o_orderkey"],
                         "rnk": pa.array(rnk)})

    return bucketed.groupby("bucket").map_groups(
        rank_bucket, batch_format="pyarrow")


def approx_distinct_users(sf_dir: str, p: int = 12):
    """HYPERLOGLOG sketch: approximate distinct users per event type.

    The scale story exact-distinct can't tell: per-batch 2^p-byte
    register vectors (vectorized numpy — hash, bucket, leading-zero rank
    via exact float exponent extraction), merged by ELEMENTWISE MAX in a
    tiny per-type groupby. The shuffle carries one 4 KiB sketch per type
    per block regardless of cardinality — at 10^12 rows the exact
    version's (type, user) exchange is billions of rows, this is
    kilobytes. Deterministic, and since round 4 EXACTLY SQL-replayable:
    the hash is the md5-prefix family (first 16 hex chars of
    md5(str(user_id))), the register-sum is computed as the exact
    integer Σ 2^(53-ρ), and the estimator expression mirrors the DuckDB
    oracle term-for-term (same literals, same op order, libm ln on both
    sides) — so ``oracle_sql()['rel_approx_distinct']`` recomputes the
    whole sketch bit-for-bit. Accuracy ~1.04/√2^p ≈ 1.6 % at p=12,
    still asserted against the exact counts in pytest. md5 runs once
    per DISTINCT user per batch (factorize first)."""
    if not 12 <= p <= 18:
        # below p=12 the (64-p)-bit suffix exceeds float64's 53-bit
        # mantissa and the exponent-based rank silently corrupts
        raise ValueError(f"p must be in [12, 18], got {p}")
    import hashlib
    import math

    m = 1 << p
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def sketch(df: pd.DataFrame) -> pd.DataFrame:
        out_ty, out_reg = [], []
        for ty, sub in df.groupby("event_type"):
            codes, uniq = pd.factorize(sub["user_id"], sort=False)
            hu = np.fromiter(
                (int.from_bytes(
                    hashlib.md5(str(int(u)).encode()).digest()[:8], "big")
                 for u in uniq), dtype=np.uint64, count=len(uniq))
            h = hu[codes]
            idx = (h >> np.uint64(64 - p)).astype(np.int64)
            suffix = h & np.uint64((1 << (64 - p)) - 1)
            # rank = leading zeros of the (64-p)-bit suffix + 1
            #      = (64-p) - bit_length(suffix) + 1; bit_length via the
            # float64 exponent (exact: suffix < 2^52 < 2^53)
            _, exp = np.frexp(suffix.astype(np.float64))
            rho = ((64 - p) - exp + 1).astype(np.int8)  # suffix=0 → 64-p+1
            regs = np.zeros(m, dtype=np.int8)
            np.maximum.at(regs, idx, rho)
            out_ty.append(ty)
            out_reg.append(regs)
        return pd.DataFrame({"event_type": out_ty, "regs": out_reg})

    partials = ds.map_batches(sketch, batch_format="pandas")

    B = 64 - p + 1  # max rank; 2^(B-rho) terms are exact integers

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        regs = np.maximum.reduce(
            [np.asarray(r, dtype=np.int8) for r in df["regs"]])
        # exact-integer register sum: Σ 2^-ρ = S / 2^B with S a Python
        # int — removes float-accumulation order from the contract, so
        # the SQL SUM (any order) lands on the same integer
        S = int(sum(1 << (B - int(r)) for r in regs))
        # literals written as integer ratios so DuckDB parses the
        # identical doubles (alpha = 0.7213 / (1 + 1.079/m))
        alpha = (7213.0 / 10000.0) / (1.0 + (1079.0 / 1000.0) / m)
        est = alpha * float(m * m << B) / float(S)
        zeros = int(np.count_nonzero(regs == 0))
        if est <= 2.5 * m and zeros:
            # linear-counting small-range correction (libm log, same
            # implementation DuckDB's ln binds to on this platform)
            est = m * math.log(m / zeros)
        # floor(x+0.5) rounding: identical semantics in Python and SQL
        # (Python round() is banker's; DuckDB round() is half-away)
        return pd.DataFrame({"event_type": [df["event_type"].iloc[0]],
                             "n_users_approx": [int(math.floor(est + 0.5))]})

    return partials.groupby("event_type").map_groups(
        merge, batch_format="pandas")


def funnel_steps(sf_dir: str, window_hours: int = 24, n_parts: int | None = None):
    """CONVERSION-FUNNEL sequential pattern: per user, first signup →
    first click within ``window_hours`` of it → first purchase within
    ``window_hours`` of that click. The classic ordered-sequence /
    funnel-analysis operator (no single relational primitive expresses
    it; SQL needs a chain of correlated min-aggregates).

    Shape: filter to the three step types at the read, user-hash
    partition (ONE exchange), then a fully vectorized pandas pass per
    partition — three filtered groupby-mins stitched with merges. Scales
    with users/partition, never materializes on the driver."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "events", ["ts", "user_id", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array(["signup", "click", "purchase"]))
        t = t.filter(keep)
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1), pa.int32())
        return t.append_column("part", part)

    ds = ds.map_batches(prep, batch_format="pyarrow").repartition(n_parts)
    win = pd.Timedelta(hours=window_hours)

    def funnel(df: pd.DataFrame) -> pd.DataFrame:
        s1 = (df[df["event_type"] == "signup"]
              .groupby("user_id", as_index=False)["ts"].min()
              .rename(columns={"ts": "t1"}))
        c = df[df["event_type"] == "click"].merge(s1, on="user_id")
        c = c[(c["ts"] >= c["t1"]) & (c["ts"] <= c["t1"] + win)]
        s2 = (c.groupby("user_id", as_index=False)["ts"].min()
              .rename(columns={"ts": "t2"}))
        p = df[df["event_type"] == "purchase"].merge(s2, on="user_id")
        p = p[(p["ts"] >= p["t2"]) & (p["ts"] <= p["t2"] + win)]
        s3 = (p.groupby("user_id", as_index=False)["ts"].min()
              .rename(columns={"ts": "t3"}))
        out = (s1.merge(s2, how="left", on="user_id")
               .merge(s3, how="left", on="user_id"))
        out["step"] = (1 + out["t2"].notna().astype("int64")
                       + out["t3"].notna().astype("int64"))
        return out[["user_id", "t1", "t2", "t3", "step"]]

    g = ds.groupby("part").map_groups(funnel, batch_format="pandas")

    # pandas widens timestamps to [ns]; re-assert [us] to match the oracle
    def fix_unit(t: pa.Table) -> pa.Table:
        for col in ("t1", "t2", "t3"):
            i = t.schema.get_field_index(col)
            t = t.set_column(i, col, pc.cast(t[col], pa.timestamp("us")))
        return t

    return g.map_batches(fix_unit, batch_format="pyarrow")


def rollup_order_stats(sf_dir: str):
    """ROLLUP / grouping-sets aggregate: order totals at three levels —
    (priority, status), (priority, ALL), (ALL, ALL) — with 'ALL'
    sentinels standing in for SQL's NULL subtotal markers.

    Two-phase: per-batch combiner → one small groupby to the leaf grid,
    then the (tiny) leaf table expands each row into its three rollup
    levels and a second groupby merges the partials. The wide input is
    exchanged once; the rollup expansion runs on ≤ |grid| rows."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                        pa.int64())
        g = pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "o_orderstatus": t["o_orderstatus"],
            "total_cents": cents,
            "n_orders": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }).group_by(["o_orderpriority", "o_orderstatus"]).aggregate(
            [("total_cents", "sum"), ("n_orders", "sum")])
        return g.rename_columns(["o_orderpriority", "o_orderstatus",
                                 "total_cents", "n_orders"])

    leaf = ds.map_batches(combine, batch_format="pyarrow").groupby(
        ["o_orderpriority", "o_orderstatus"]).aggregate(
        Sum("total_cents"), Sum("n_orders"))
    leaf = _rename(leaf, {"sum(total_cents)": "total_cents",
                          "sum(n_orders)": "n_orders"})

    def expand(t: pa.Table) -> pa.Table:
        alls = pa.array(["ALL"] * t.num_rows, pa.string())
        i_s = t.schema.get_field_index("o_orderstatus")
        i_p = t.schema.get_field_index("o_orderpriority")
        lvl1 = t.set_column(i_s, "o_orderstatus", alls)
        lvl2 = lvl1.set_column(i_p, "o_orderpriority", alls)
        return pa.concat_tables([t, lvl1, lvl2])

    rolled = leaf.map_batches(expand, batch_format="pyarrow").groupby(
        ["o_orderpriority", "o_orderstatus"]).aggregate(
        Sum("total_cents"), Sum("n_orders"))
    return _rename(rolled, {"sum(total_cents)": "total_cents",
                            "sum(n_orders)": "n_orders"})


def except_custkeys(sf_dir: str, keep_priority: str = "1-URGENT",
                    drop_priority: str = "5-LOW"):
    """Distinct set EXCEPT: customers with an order in ``keep_priority``
    minus those with any order in ``drop_priority``.

    Tag-and-aggregate shape — each side contributes (key, in_a, in_b)
    indicator partials, combined per batch, then ONE groupby with max()
    merges the tags and a mask keeps (in_a AND NOT in_b). No broadcast
    of either side, no join: a set difference as a single exchange."""
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def tag(t: pa.Table) -> pa.Table:
        pr = t["o_orderpriority"]
        keep = pc.or_(pc.equal(pr, keep_priority), pc.equal(pr, drop_priority))
        t = t.filter(keep)
        g = pa.table({
            "o_custkey": t["o_custkey"],
            "in_a": pc.cast(pc.equal(t["o_orderpriority"], keep_priority),
                            pa.int64()),
            "in_b": pc.cast(pc.equal(t["o_orderpriority"], drop_priority),
                            pa.int64()),
        }).group_by("o_custkey").aggregate([("in_a", "max"), ("in_b", "max")])
        return g.rename_columns(["o_custkey", "in_a", "in_b"])

    g = ds.map_batches(tag, batch_format="pyarrow").groupby(
        "o_custkey").aggregate(Max("in_a"), Max("in_b"))

    def fil(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.equal(t["max(in_a)"], 1), pc.equal(t["max(in_b)"], 0))
        return t.filter(mask).select(["o_custkey"])

    return g.map_batches(fil, batch_format="pyarrow")


def user_gap_stats(sf_dir: str, n_parts: int | None = None):
    """LAG-window analytics: per-user inter-event gap statistics
    (count / max / sum of the gap to the previous event, microseconds).

    User-hash partition then a vectorized sort + diff per partition —
    the lag() window needs only user-locality, one exchange. Gaps are
    integer microseconds end-to-end (exact vs the SQL epoch_us oracle);
    users with a single event report NULL max/sum exactly like SQL
    aggregates over an empty window."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1), pa.int32())
        return pa.table({"user_id": t["user_id"], "event_id": t["event_id"],
                         "ts_us": us, "part": part})

    ds = ds.map_batches(prep, batch_format="pyarrow").repartition(n_parts)

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts_us", "event_id"])
        same = df["user_id"].eq(df["user_id"].shift())
        gap = df["ts_us"].diff().where(same)
        g = df.assign(gap_us=gap).groupby("user_id", as_index=False).agg(
            n_events=("event_id", "size"),
            n_gaps=("gap_us", "count"),
            max_gap_us=("gap_us", "max"),
            sum_gap_us=("gap_us", lambda s: s.sum(min_count=1)),
        )
        g["max_gap_us"] = g["max_gap_us"].astype("Int64")
        g["sum_gap_us"] = g["sum_gap_us"].astype("Int64")
        g["n_gaps"] = g["n_gaps"].astype("int64")
        return g

    return ds.groupby("part").map_groups(gaps, batch_format="pandas")


def corr_sufficient_stats(sf_dir: str):
    """Distributed correlation/covariance kernel: per return-flag the
    EXACT integer sufficient statistics (n, Σx, Σy, Σx², Σxy, Σy²) of
    (quantity, discount) in cent units. Any moment-based statistic
    (corr, covar, OLS slope) is a driver-side O(groups) formula over
    these — the classic one-pass parallel pattern; sums are associative
    so the per-batch combiner → small groupby is exact."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_discount"])

    def combine(t: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(pc.multiply(t["l_quantity"], 100)), pa.int64())
        y = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)), pa.int64())
        g = pa.table({
            "l_returnflag": t["l_returnflag"],
            "n_rows": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "sum_x": x,
            "sum_y": y,
            "sum_xx": pc.multiply(x, x),
            "sum_xy": pc.multiply(x, y),
            "sum_yy": pc.multiply(y, y),
        }).group_by("l_returnflag").aggregate(
            [("n_rows", "sum"), ("sum_x", "sum"), ("sum_y", "sum"),
             ("sum_xx", "sum"), ("sum_xy", "sum"), ("sum_yy", "sum")])
        return g.rename_columns(["l_returnflag", "n_rows", "sum_x", "sum_y",
                                 "sum_xx", "sum_xy", "sum_yy"])

    g = ds.map_batches(combine, batch_format="pyarrow").groupby(
        "l_returnflag").aggregate(
        Sum("n_rows"), Sum("sum_x"), Sum("sum_y"), Sum("sum_xx"),
        Sum("sum_xy"), Sum("sum_yy"))
    return _rename(g, {"sum(n_rows)": "n_rows", "sum(sum_x)": "sum_x",
                       "sum(sum_y)": "sum_y", "sum(sum_xx)": "sum_xx",
                       "sum(sum_xy)": "sum_xy", "sum(sum_yy)": "sum_yy"})


def orders_histogram(sf_dir: str, bin_cents: int = 5_000_000):
    """Fixed-width HISTOGRAM / binning: order totals bucketed into
    $50k-wide bins (integer floor-division on cents — exact), count and
    mass per bin. Per-batch combiner → tiny groupby: the exchange
    carries one row per (bin, block)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                        pa.int64())
        bucket = pc.divide(cents, pa.scalar(bin_cents, pa.int64()))
        g = pa.table({
            "bucket": bucket,
            "n_orders": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "total_cents": cents,
        }).group_by("bucket").aggregate(
            [("n_orders", "sum"), ("total_cents", "sum")])
        return g.rename_columns(["bucket", "n_orders", "total_cents"])

    g = ds.map_batches(combine, batch_format="pyarrow").groupby(
        "bucket").aggregate(Sum("n_orders"), Sum("total_cents"))
    return _rename(g, {"sum(n_orders)": "n_orders",
                       "sum(total_cents)": "total_cents"})


def ntile_orders(sf_dir: str, k: int = 4, n_buckets: int | None = None):
    """NTILE(k) quantile-bucket assignment under a global total order
    (price DESC, orderkey ASC) — the "split the corpus into quality
    quartiles" operator.

    Rides on the TeraSort-shape ``global_rank_orders`` (range-partition
    rank, no task holds more than ~1/n_buckets of the data); the tile is
    then a pure per-row formula from (rank, total): SQL ntile semantics
    — the first n % k tiles get one extra row. The total row count comes
    from Parquet metadata (no extra data pass)."""
    import pyarrow.dataset as pads

    total = pads.dataset(
        os.path.join(sf_dir, "orders.parquet")).count_rows()
    ranked = global_rank_orders(sf_dir, n_buckets=n_buckets)
    if total == 0:
        return ranked.map_batches(
            lambda t: t.append_column("tile", pa.array([], pa.int64())),
            batch_format="pyarrow")
    size, rem = divmod(total, k)
    boundary = rem * (size + 1)

    def tile(t: pa.Table) -> pa.Table:
        r = pc.subtract(t["rnk"], 1)
        in_head = pc.less(r, boundary)
        head_tile = pc.add(pc.divide(r, size + 1), 1)
        tail_tile = (pc.add(pc.divide(pc.subtract(r, boundary),
                                      max(size, 1)), rem + 1)
                     if size else head_tile)
        return t.append_column(
            "tile", pc.cast(pc.if_else(in_head, head_tile, tail_tile),
                            pa.int64()))

    return ranked.map_batches(tile, batch_format="pyarrow")


def semi_join_orders_bloom(sf_dir: str, min_acctbal: float = 5000.0,
                           m_bits: int = 1 << 20, n_hashes: int = 4,
                           n_parts: int | None = None):
    """Semi-join at the scale where the key set is too big to broadcast
    EXACTLY: a BLOOM-FILTER pre-filter plus a co-partitioned exact
    verify. Result is identical to ``semi_join_orders`` (same oracle).

    Pass 1 builds the filter distributed: each customer batch sets its
    bits in a local bitmap (vectorized splitmix64 double-hashing) and the
    fixed-size partials (m_bits/8 bytes each, independent of key
    cardinality — the HLL trick) OR-merge on the driver. Driver memory is
    bounded by #partials × m/8 bytes (one partial per 8192-row batch,
    not per row); at cluster scale the same commutative merge nests into
    a tree reduce. The broadcast is the bitmap, not the keys. Pass 2
    drops every order that cannot match
    (bloom has no false negatives), then the survivors — already a small
    fraction — co-partition with the true keys for the exact check that
    removes bloom's false positives."""

    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    def _hash2(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = keys.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        h = h ^ (h >> np.uint64(31))
        return h & np.uint64(0xFFFFFFFF), h >> np.uint64(32)

    def _bloom_positions(keys: np.ndarray) -> np.ndarray:
        h1, h2 = _hash2(keys)
        ks = np.arange(n_hashes, dtype=np.uint64)[:, None]
        return ((h1[None, :] + ks * h2[None, :]) % np.uint64(m_bits))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def bitmap_partial(t: pa.Table) -> pa.Table:
        keep = t.filter(
            pc.greater(t["c_acctbal"], min_acctbal))["c_custkey"].to_numpy()
        bits = np.zeros(m_bits // 8, dtype=np.uint8)
        if len(keep):
            pos = _bloom_positions(keep.astype(np.int64)).ravel()
            np.bitwise_or.at(bits, (pos // 8).astype(np.int64),
                             np.uint8(1) << (pos % 8).astype(np.uint8))
        # one Arrow binary cell per batch — no per-element list conversion
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    partials = cust.map_batches(bitmap_partial, batch_format="pyarrow",
                                batch_size=8192).take_all()
    merged = np.bitwise_or.reduce(
        [np.frombuffer(p["bits"], dtype=np.uint8) for p in partials])
    bits_ref = ray.put(merged)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])

    def prefilter(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        keys = t["o_custkey"].to_numpy()
        pos = _bloom_positions(keys)
        hit = np.ones(len(keys), dtype=bool)
        for k in range(n_hashes):
            p = pos[k]
            hit &= (bits[(p // 8).astype(np.int64)]
                    >> (p % 8).astype(np.uint8)) & 1 == 1
        t = t.filter(pa.array(hit))
        part = pc.cast(pc.bit_wise_and(t["o_custkey"], n_parts - 1),
                       pa.int32())
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_custkey": t["o_custkey"],
            "total_cents": pc.cast(pc.round(pc.multiply(t["o_totalprice"],
                                                        100)), pa.int64()),
            "is_key": pa.nulls(t.num_rows, pa.bool_()),
            "part": part,
        })

    def keyrows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["c_acctbal"], min_acctbal))
        part = pc.cast(pc.bit_wise_and(t["c_custkey"], n_parts - 1),
                       pa.int32())
        return pa.table({
            "o_orderkey": pa.nulls(t.num_rows, pa.int64()),
            "o_custkey": t["c_custkey"],
            "total_cents": pa.nulls(t.num_rows, pa.int64()),
            "is_key": pa.array(np.ones(t.num_rows, dtype=bool)),
            "part": part,
        })

    both = (orders.map_batches(prefilter, batch_format="pyarrow")
            .union(cust.map_batches(keyrows, batch_format="pyarrow")))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        true_keys = df.loc[df["is_key"].notna(), "o_custkey"].unique()
        o = df[df["is_key"].isna()]
        o = o[o["o_custkey"].isin(true_keys)]
        return pd.DataFrame({
            "o_orderkey": o["o_orderkey"].astype("int64"),
            "o_custkey": o["o_custkey"].astype("int64"),
            "total_cents": o["total_cents"].astype("int64"),
        })

    return both.groupby("part").map_groups(verify, batch_format="pandas")


def heavy_hitters(sf_dir: str, key: str = "event_type", k: int = 5,
                  ds=None):
    """EXACT heavy hitters (keys with > n/k of all events) by the
    two-pass sketch-then-verify pattern — the skew diagnostic that
    decides which keys need salting before a wide shuffle.

    Pass 1: a Misra-Gries summary per batch (at most k counters). The
    UNION of per-batch survivors provably contains every true heavy
    hitter (a key with global count c has Σ_b residual_b ≥ c − n/k, so
    c > n/k forces a positive residual in some batch) — so no merge
    exchange is needed at all; the driver unions ≤ k×blocks candidate
    ids columnar.
    Pass 2: the candidate set broadcasts, each batch pre-aggregates
    exact counts for candidates only (≤ |cands| rows per block), and
    the driver sums the ≤ |cands|×blocks partials — bounded by
    configuration, never by key cardinality or row count. Zero shuffle
    end to end; the output is exact — sketch error never reaches it.

    ``ds`` lets tests inject a synthetic dataset (must carry ``key``);
    the default reads the events table."""
    if ds is None:
        ds = _read(sf_dir, "events", [key])
    total = ds.count()
    threshold = total // k

    def mg_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[key].value_counts()
        if len(vc) > k:
            # Misra-Gries decrement: subtract the (k+1)-th largest count
            # from everyone and drop the non-positive — a summary with
            # ≤ k survivors whose counts are within n_batch/k of truth
            cut = vc.iloc[k]
            vc = (vc - cut)[lambda s: s > 0]
        return pd.DataFrame({key: vc.index.to_numpy(),
                             "mg": vc.to_numpy().astype("int64")})

    cand_df = ds.map_batches(mg_partial, batch_format="pandas").to_pandas()
    cand_ids = (pa.array(pd.unique(cand_df[key])) if len(cand_df)
                else pa.array([], type=pa.string()))
    cand_ref = ray.put(cand_ids)

    def exact_partial(t: pa.Table) -> pa.Table:
        ids = ray.get(cand_ref)
        t = t.filter(pc.is_in(t[key], value_set=ids))
        g = pa.table({
            key: t[key],
            "n_events": pa.array(np.ones(t.num_rows, np.int64)),
        }).group_by(key).aggregate([("n_events", "sum")])
        return g.rename_columns([key, "n_events"])

    parts = (ds.map_batches(exact_partial, batch_format="pyarrow")
             .to_pandas())
    if not len(parts):
        return pd.DataFrame({key: pd.array([], dtype=object),
                             "n_events": pd.array([], dtype="int64")})
    g = parts.groupby(key, as_index=False)["n_events"].sum()
    g["n_events"] = g["n_events"].astype("int64")
    return g[g["n_events"] > threshold].reset_index(drop=True)


def latest_event_per_user(sf_dir: str):
    """LAST-VALUE-WINS compaction (the CDC / upsert / SCD-1 snapshot):
    per user, the value and type of their most recent event, ties broken
    by highest event_id — deterministic total order.

    Argmax is associative, so a per-batch combiner keeps one candidate
    row per user per block and the exchange moves candidates, not
    events; the final per-group pick runs on ≤ one row per block."""

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])

    def pick_latest(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"])
        g = df.groupby("user_id", as_index=False).tail(1)
        return pd.DataFrame({
            "user_id": g["user_id"].astype("int64"),
            "ts": g["ts"],
            "event_id": g["event_id"].astype("int64"),
            "event_type": g["event_type"],
            "value_cents": (g["value"] * 100).round().astype("int64"),
        })

    # final pick mirrors first_order_per_customer: bounded hash partition
    # + vectorized per-partition tail(1), not a per-key map_groups
    n_parts = 32

    def tag(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1),
                       pa.int32())
        return t.append_column("part", part)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"])
        out = df.groupby("user_id", as_index=False, sort=False).tail(1)
        return out.drop(columns=["part"])

    combined = ds.map_batches(
        lambda df: pick_latest(df), batch_format="pandas")
    g = (combined.map_batches(tag, batch_format="pyarrow")
         .groupby("part").map_groups(finish, batch_format="pandas"))

    def fix_unit(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("ts")
        return t.set_column(i, "ts", pc.cast(t["ts"], pa.timestamp("us")))

    return g.map_batches(fix_unit, batch_format="pyarrow")


def hopping_window_counts(sf_dir: str, size_hours: int = 2,
                          stride_hours: int = 1):
    """HOPPING (sliding) window aggregate: event counts + cent sums per
    (event_type, 2h window starting every 1h) — each event belongs to
    size/stride overlapping windows and is EXPLODED into them by pure
    column arithmetic (no per-row Python), then an ordinary combiner →
    groupby finishes. The tumbling window is the stride==size special
    case of this operator."""
    from ray.data.aggregate import Sum

    assert size_hours % stride_hours == 0
    fan = size_hours // stride_hours
    stride_us = stride_hours * 3_600_000_000
    size_us = size_hours * 3_600_000_000

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def explode(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")),
                     pa.int64()).to_numpy()
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)),
                        pa.int64()).to_numpy()
        ty = t["event_type"].to_numpy(zero_copy_only=False)
        # window starts: the fan strides ending at the event's stride slot
        last = (us // stride_us) * stride_us
        starts = last[None, :] - (np.arange(fan, dtype=np.int64)[:, None]
                                  * stride_us)
        keep = (us[None, :] - starts) < size_us  # guard partial first slots
        g = pa.table({
            "event_type": pa.array(np.tile(ty, fan)[keep.ravel()]),
            "win_start_us": pa.array(starts.ravel()[keep.ravel()]),
            "n": pa.array(np.ones(int(keep.sum()), np.int64)),
            "value_cents": pa.array(np.tile(cents, fan)[keep.ravel()]),
        }).group_by(["event_type", "win_start_us"]).aggregate(
            [("n", "sum"), ("value_cents", "sum")])
        return g.rename_columns(["event_type", "win_start_us", "n",
                                 "value_cents"])

    g = (ds.map_batches(explode, batch_format="pyarrow")
         .groupby(["event_type", "win_start_us"]).aggregate(
             Sum("n"), Sum("value_cents")))

    def finish(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["event_type", "win_start_us", "n_events",
                              "value_cents"])
        i = t.schema.get_field_index("win_start_us")
        win = pc.cast(t["win_start_us"], pa.timestamp("us"))
        t = t.remove_column(i)
        return t.add_column(1, "win_start", win)

    return g.map_batches(finish, batch_format="pyarrow")


def temperature_resample(sf_dir: str):
    """Temperature-flattened domain mix (alpha = 0.5): per-language keep
    probability sqrt(n_min / n_lang), so the over-represented language are
    down-sampled toward the square-root of their skew — the standard
    multi-corpus rebalancing step before LLM pre-training.

    Two phases, both scale-safe: a tiny per-language count groupby (one
    row per language crosses the exchange after per-batch combining —
    Ray's groupby pre-aggregates Count partials), then an embarrassingly
    parallel deterministic filter. The keep decision hashes CONTENT
    (md5), not position, so the sample is stable across cluster sizes
    and re-runs; the per-language thresholds are a handful of ints shipped
    by closure (broadcast).

    Float exactness contract with the SQL oracle: the rate formula uses
    only IEEE-754 correctly-rounded ops (divide, sqrt, multiply by a
    power of two, floor), so Python and DuckDB produce bit-identical
    thresholds."""
    import hashlib
    import math

    from ray.data.aggregate import Count

    counts = (_read(sf_dir, "documents", ["lang"])
              .groupby("lang").aggregate(Count()).to_pandas())
    counts.columns = ["lang", "n"]
    n_min = float(counts["n"].min())
    thr = {s: int(math.floor(math.sqrt(n_min / float(n)) * 4294967296.0))
           for s, n in zip(counts["lang"], counts["n"])}

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def fil(t: pa.Table) -> pa.Table:
        keep = [int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:4],
                               "big") < thr[src]
                for s, src in zip(t["text"].to_pylist(),
                                  t["lang"].to_pylist())]
        return t.filter(pa.array(keep)).select(["doc_id", "lang"])

    return ds.map_batches(fil, batch_format="pyarrow")


def interval_coverage(sf_dir: str, span_minutes: int = 5):
    """Interval-union coverage (the gaps-and-islands merge): each event
    covers [ts, ts + span); report the total UNION length per user in
    microseconds, overlaps merged.

    Same single-exchange shape as ``sessionize_events``: partition by
    user hash, then one vectorized pandas pass per partition — sort by
    (user, ts, end), running cummax of interval end, each row
    contributes max(0, end - max(start, prev_cummax)). Per-user ordering
    only needs user-locality, never a global sort."""
    n_parts = 32
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def add_part(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1), pa.int32())
        return t.append_column("part", part)

    ds = ds.map_batches(add_part, batch_format="pyarrow").repartition(n_parts)
    span = pd.Timedelta(minutes=span_minutes)

    def cover(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts"])
        start_us = df["ts"].astype("int64")
        end_us = start_us + int(span / pd.Timedelta(microseconds=1))
        cmax_us = end_us.groupby(df["user_id"]).cummax()
        # previous row's running max end; epoch-us values are < 2^53 so
        # the float64 NaN round-trip from shift() is exact
        prev_us = (cmax_us.groupby(df["user_id"]).shift()
                   .fillna(start_us).astype("int64"))
        contrib = (end_us - np.maximum(start_us, prev_us)).clip(lower=0)
        out = contrib.groupby(df["user_id"]).sum().astype("int64")
        return pd.DataFrame({"user_id": out.index.to_numpy(),
                             "covered_us": out.to_numpy()})

    return ds.groupby("part").map_groups(cover, batch_format="pandas")


def cube_order_stats(sf_dir: str):
    """GROUP BY CUBE over (priority, status): all four grouping sets,
    with 'ALL' sentinels for SQL's NULL subtotal markers. Same two-phase
    shape as ``rollup_order_stats`` — the wide input crosses the wire
    once as leaf-grid partials; the cube expansion (4 rows per leaf)
    runs on the tiny grid only."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                        pa.int64())
        g = pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "o_orderstatus": t["o_orderstatus"],
            "total_cents": cents,
            "n_orders": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }).group_by(["o_orderpriority", "o_orderstatus"]).aggregate(
            [("total_cents", "sum"), ("n_orders", "sum")])
        return g.rename_columns(["o_orderpriority", "o_orderstatus",
                                 "total_cents", "n_orders"])

    leaf = ds.map_batches(combine, batch_format="pyarrow").groupby(
        ["o_orderpriority", "o_orderstatus"]).aggregate(
        Sum("total_cents"), Sum("n_orders"))
    leaf = _rename(leaf, {"sum(total_cents)": "total_cents",
                          "sum(n_orders)": "n_orders"})

    def expand(t: pa.Table) -> pa.Table:
        alls = pa.array(["ALL"] * t.num_rows, pa.string())
        i_s = t.schema.get_field_index("o_orderstatus")
        i_p = t.schema.get_field_index("o_orderpriority")
        no_s = t.set_column(i_s, "o_orderstatus", alls)
        no_p = t.set_column(i_p, "o_orderpriority", alls)
        no_both = no_s.set_column(i_p, "o_orderpriority", alls)
        return pa.concat_tables([t, no_s, no_p, no_both])

    cubed = leaf.map_batches(expand, batch_format="pyarrow").groupby(
        ["o_orderpriority", "o_orderstatus"]).aggregate(
        Sum("total_cents"), Sum("n_orders"))
    return _rename(cubed, {"sum(total_cents)": "total_cents",
                           "sum(n_orders)": "n_orders"})


def mode_priority_by_status(sf_dir: str):
    """Grouped MODE with deterministic tie-break: per order status, the
    most frequent order priority (ties → lexicographic min priority).

    Count-combiner per batch → one grid-sized groupby sum → per-status
    argmax on the tiny grid (single vectorized pass). The wide input is
    exchanged only as (status, priority, n) partials."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"])

    def combine(t: pa.Table) -> pa.Table:
        g = pa.table({
            "o_orderstatus": t["o_orderstatus"],
            "o_orderpriority": t["o_orderpriority"],
            "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }).group_by(["o_orderstatus", "o_orderpriority"]).aggregate(
            [("n", "sum")])
        return g.rename_columns(["o_orderstatus", "o_orderpriority", "n"])

    grid = (ds.map_batches(combine, batch_format="pyarrow")
            .groupby(["o_orderstatus", "o_orderpriority"])
            .aggregate(Sum("n")))
    grid = _rename(grid, {"sum(n)": "n"})

    def argmax(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_orderstatus", "n", "o_orderpriority"],
                            ascending=[True, False, True])
        g = df.groupby("o_orderstatus", as_index=False).head(1)
        return pd.DataFrame({
            "o_orderstatus": g["o_orderstatus"].to_numpy(),
            "mode_priority": g["o_orderpriority"].to_numpy(),
            "n_rows": g["n"].astype("int64").to_numpy()})

    # the grid is |status|×|priority| — one group-keyed pass finishes it
    return grid.groupby("o_orderstatus").map_groups(
        argmax, batch_format="pandas")


def cumulative_spend(sf_dir: str, n_parts: int | None = None):
    """Per-customer RUNNING TOTAL (SUM ... ROWS UNBOUNDED PRECEDING):
    each order annotated with the customer's cumulative spend up to and
    including it, ordered by (o_orderdate, o_orderkey) — the classic
    prefix-sum window.

    One customer-hash exchange; each partition sorts its customers'
    orders once and takes a vectorized grouped cumsum — no global sort,
    no per-row Python."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def tag(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["o_custkey"], n_parts - 1),
                       pa.int32())
        return t.append_column("part", part)

    def cumsum(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        cents = (df["o_totalprice"] * 100).round().astype("int64")
        cum = cents.groupby(df["o_custkey"]).cumsum()
        return pd.DataFrame({
            "o_orderkey": df["o_orderkey"].astype("int64").to_numpy(),
            "o_custkey": df["o_custkey"].astype("int64").to_numpy(),
            "cum_cents": cum.astype("int64").to_numpy()})

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(cumsum, batch_format="pandas"))


def skew_join_events_nation(sf_dir: str, hot_k: int | None = None,
                            n_parts: int | None = None):
    """SKEW-AWARE left enrichment join: every event annotated with its
    user's nation key (``user_id = c_custkey``; unmatched → -1).

    The skew pattern the north rule asks for, demonstrated end to end:

    1. HOT-KEY DETECTION — the exact heavy-hitters pass (Misra-Gries
       partials, bounded driver merge) finds probe keys with count >
       n/hot_k: exactly the keys that would overload one partition of a
       plain hash exchange.
    2. HOT PATH — the dimension rows for hot keys (≤ hot_k rows) are
       broadcast via ``ray.put``; hot probe rows resolve with a
       vectorized in-task lookup and NEVER enter the shuffle.
    3. COLD PATH — remaining probe rows co-partition with the dimension
       side on the key (tag-union merge, no join operator) — now skew-
       free by construction, since every surviving key is below n/hot_k.

    Semantically identical to a plain left join (equivalence is the
    oracle); the routing only changes WHERE each row is resolved.

    ``hot_k`` defaults to ``2 · n_parts``: a key is hot when its count
    exceeds n/(2·n_parts) — half a partition's fair share — which is
    exactly the point where one key starts dominating one shuffle
    partition. On a uniform key distribution the hot set is (correctly)
    empty and the whole stream takes the cold path; the hot passes are
    then skipped entirely."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    import ray

    if hot_k is None:
        hot_k = 2 * n_parts
    # the probe stream is consumed by the detection pass AND the routed
    # join — materialize once instead of re-reading the parquet 3-4x
    ev = _read(sf_dir, "events", ["event_id", "user_id"]).materialize()
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    hot = heavy_hitters(sf_dir, key="user_id", k=hot_k, ds=ev)
    hot_keys = set(int(k) for k in hot["user_id"])

    # dimension rows for hot keys: ≤ hot_k rows — broadcast once
    hot_arr = pa.array(sorted(hot_keys), pa.int64())
    if hot_keys:
        hot_dim = (cust.map_batches(
            lambda t: t.filter(pc.is_in(t["c_custkey"], value_set=hot_arr)),
            batch_format="pyarrow").to_pandas())
        hot_map = dict(zip(hot_dim["c_custkey"].astype(int),
                           hot_dim["c_nationkey"].astype(int)))
    else:  # no hot keys at all — the cold path carries everything
        hot_map = {}
    hot_map_ref = ray.put(hot_map)
    hot_ref = ray.put(hot_arr)

    def resolve_hot(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t["user_id"], value_set=ray.get(hot_ref))
        t = t.filter(mask)
        m = ray.get(hot_map_ref)
        ids = t["user_id"].to_numpy(zero_copy_only=False)
        nk = np.array([m.get(int(u), -1) for u in ids], dtype=np.int64)
        return pa.table({"event_id": pc.cast(t["event_id"], pa.int64()),
                         "user_id": pc.cast(t["user_id"], pa.int64()),
                         "nationkey": pa.array(nk)})

    def tag_probe(t: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(t["user_id"],
                                  value_set=ray.get(hot_ref)))
        t = t.filter(mask)
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1),
                       pa.int32())
        return pa.table({"key": pc.cast(t["user_id"], pa.int64()),
                         "event_id": pc.cast(t["event_id"], pa.int64()),
                         "nk": pa.nulls(t.num_rows, pa.int64()),
                         "part": part})

    def tag_dim(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["c_custkey"], n_parts - 1),
                       pa.int32())
        return pa.table({"key": pc.cast(t["c_custkey"], pa.int64()),
                         "event_id": pa.nulls(t.num_rows, pa.int64()),
                         "nk": pc.cast(t["c_nationkey"], pa.int64()),
                         "part": part})

    tagged = (ev.map_batches(tag_probe, batch_format="pyarrow")
              .union(cust.map_batches(tag_dim, batch_format="pyarrow")))

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        dim = (df.loc[df["nk"].notna(), ["key", "nk"]]
               .drop_duplicates("key").set_index("key")["nk"])
        rows = df.loc[df["event_id"].notna(), ["key", "event_id"]]
        got = rows["key"].map(dim).fillna(-1)
        return pd.DataFrame({
            "event_id": rows["event_id"].astype("int64").to_numpy(),
            "user_id": rows["key"].astype("int64").to_numpy(),
            "nationkey": got.astype("int64").to_numpy()})

    cold = tagged.groupby("part").map_groups(merge, batch_format="pandas")
    if not hot_keys:  # nothing routed hot — skip the extra probe pass
        return cold
    return cold.union(ev.map_batches(resolve_hot, batch_format="pyarrow"))


def cohort_retention(sf_dir: str, n_parts: int | None = None):
    """COHORT RETENTION matrix: users grouped by their first-seen day
    (the cohort); for each (cohort, day-offset) cell, how many of that
    cohort's users were active that many days later — the standard
    product-analytics / data-freshness diagnostic.

    Shape: (1) per-user first day via a min-combiner and one bounded
    user-keyed exchange; (2) distinct (user, day) activity pairs through
    the same exchange, merged with the cohort map per partition (tag
    union, vectorized map); (3) one grid-sized groupby count — rows are
    already distinct per (user, day), so the count IS distinct users."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def combine(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        g = (pa.table({"user_id": t["user_id"], "day": day})
             .group_by(["user_id", "day"]).aggregate([]))
        g = g.rename_columns(["user_id", "day"])
        part = pc.cast(pc.bit_wise_and(g["user_id"], n_parts - 1),
                       pa.int32())
        return g.append_column("part", part)

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["user_id", "day"])
        cohort = df.groupby("user_id")["day"].transform("min")
        off = ((df["day"] - cohort).dt.days).astype("int64")
        out = pd.DataFrame({"cohort": cohort, "day_offset": off})
        return out

    grid = (ds.map_batches(combine, batch_format="pyarrow")
            .groupby("part").map_groups(per_user, batch_format="pandas"))

    from ray.data.aggregate import Count

    g = grid.groupby(["cohort", "day_offset"]).aggregate(Count())

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "cohort": pc.cast(t["cohort"], pa.timestamp("us")),
            "day_offset": pc.cast(t["day_offset"], pa.int64()),
            "n_users": pc.cast(t.column(2), pa.int64())})

    return g.map_batches(finish, batch_format="pyarrow")


def event_type_history(sf_dir: str, n_parts: int | None = None):
    """SCD-2 style HISTORY build (gaps-and-islands): per user, compact
    the event stream into maximal runs of the same event_type ordered by
    (ts, event_id) — each run becomes one row with its validity interval
    and event count. The CDC-history analog of ``latest_event_per_user``
    (which keeps only the last state).

    One user-hash exchange; each partition sorts its users' events once
    and derives run boundaries with a vectorized shift-compare + cumsum
    — no per-row Python anywhere."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "ts"])

    def tag(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["user_id"], n_parts - 1),
                       pa.int32())
        return t.append_column("part", part)

    def runs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        brk = ((df["user_id"].ne(df["user_id"].shift()))
               | (df["event_type"].ne(df["event_type"].shift())))
        grp = brk.cumsum()
        g = df.groupby(grp, sort=False)
        out = pd.DataFrame({
            "user_id": g["user_id"].first().astype("int64"),
            "event_type": g["event_type"].first(),
            "valid_from": g["ts"].min(),
            "valid_to": g["ts"].max(),
            "n_events": g.size().astype("int64"),
        })
        return out.reset_index(drop=True)

    g = (ds.map_batches(tag, batch_format="pyarrow")
         .groupby("part").map_groups(runs, batch_format="pandas"))

    def fix_units(t: pa.Table) -> pa.Table:
        for c in ("valid_from", "valid_to"):
            i = t.schema.get_field_index(c)
            t = t.set_column(i, c, pc.cast(t[c], pa.timestamp("us")))
        return t

    return g.map_batches(fix_units, batch_format="pyarrow")


def hopping_window_distinct_users(sf_dir: str, size_hours: int = 2,
                                  stride_hours: int = 1, n_parts: int | None = None):
    """Hopping-window COUNT DISTINCT: unique active users per 2h window
    starting every 1h — the dedup-under-a-window variant of
    ``hopping_window_counts`` (a count is combiner-friendly; a distinct
    count needs the (window, user) pairs deduped globally first).

    Per-batch distinct (window, user) combiner → window-hash exchange
    (every copy of a pair co-locates because the WINDOW key routes it) →
    per-partition dedup + nunique. Partition width is bounded by
    users-per-window; salt the window key if a single window's user set
    outgrows a task."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    assert size_hours % stride_hours == 0
    fan = size_hours // stride_hours
    stride_us = stride_hours * 3_600_000_000

    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def explode(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")),
                     pa.int64()).to_numpy()
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        last = (us // stride_us) * stride_us
        starts = last[None, :] - (np.arange(fan, dtype=np.int64)[:, None]
                                  * stride_us)
        g = (pa.table({"win_start_us": pa.array(starts.ravel()),
                       "user_id": pa.array(np.tile(uid, fan))})
             .group_by(["win_start_us", "user_id"]).aggregate([]))
        g = g.rename_columns(["win_start_us", "user_id"])
        slot = pc.divide(g["win_start_us"], stride_us)
        part = pc.cast(pc.subtract(slot, pc.multiply(
            pc.divide(slot, n_parts), n_parts)), pa.int32())
        return g.append_column("part", part)

    def count_distinct(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["win_start_us", "user_id"])
        g = d.groupby("win_start_us", as_index=False)["user_id"].nunique()
        return g.rename(columns={"user_id": "n_users"}).astype(
            {"n_users": "int64"})

    g = (ds.map_batches(explode, batch_format="pyarrow")
         .groupby("part").map_groups(count_distinct, batch_format="pandas"))

    def finish(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["win_start_us"], pa.timestamp("us"))
        return pa.table({"win_start": ts,
                         "n_users": pc.cast(t["n_users"], pa.int64())})

    return g.map_batches(finish, batch_format="pyarrow")


def cume_dist_orders(sf_dir: str, n_parts: int | None = None):
    """Per-customer CUME_DIST (integer micro): each order's position in
    the customer's (o_orderdate, o_orderkey) sequence divided by the
    customer's order count — ``cd_micro = (1_000_000 · seq) // n``.

    One customer-hash exchange; per partition a vectorized sort +
    grouped cumcount/size — the same shape as ``cumulative_spend``."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate"])

    def tag(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["o_custkey"], n_parts - 1),
                       pa.int32())
        return t.append_column("part", part)

    def cd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        seq = df.groupby("o_custkey").cumcount().to_numpy() + 1
        n = df.groupby("o_custkey")["o_orderkey"].transform(
            "size").to_numpy()
        return pd.DataFrame({
            "o_orderkey": df["o_orderkey"].astype("int64").to_numpy(),
            "o_custkey": df["o_custkey"].astype("int64").to_numpy(),
            "cd_micro": ((1_000_000 * seq) // n).astype("int64")})

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(cd, batch_format="pandas"))


def unpivot_lineitem_metrics(sf_dir: str):
    """UNPIVOT / melt (the dual of ``pivot``): each lineitem's three
    numeric measures become three (metric, value_cents) rows — the
    wide→long reshape that feeds metric-generic downstream consumers.
    Pure per-batch column surgery (concat of three projected views);
    zero shuffle, zero per-row Python."""
    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity",
                "l_extendedprice", "l_discount"])

    metrics = (("quantity", "l_quantity"), ("extendedprice",
                                            "l_extendedprice"),
               ("discount", "l_discount"))

    def melt(t: pa.Table) -> pa.Table:
        parts = []
        for name, col in metrics:
            cents = pc.cast(pc.round(pc.multiply(t[col], 100)), pa.int64())
            parts.append(pa.table({
                "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                "l_linenumber": pc.cast(t["l_linenumber"], pa.int64()),
                "metric": pa.array([name] * t.num_rows, pa.string()),
                "value_cents": cents}))
        return pa.concat_tables(parts)

    return ds.map_batches(melt, batch_format="pyarrow")


def first_order_per_customer(sf_dir: str):
    """Grouped ARGMIN: each customer's FIRST order (by o_orderdate,
    tie-break lowest o_orderkey) with its priority and value — the
    acquisition-cohort seed record, and the mirror of
    ``latest_event_per_user``'s argmax. Argmin is associative, so a
    per-batch combiner keeps one candidate row per customer per block
    and the exchange moves candidates only."""
    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate",
                "o_orderpriority", "o_totalprice"])

    def pick_first(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_orderdate", "o_orderkey"])
        g = df.groupby("o_custkey", as_index=False).head(1)
        return pd.DataFrame({
            "o_custkey": g["o_custkey"].astype("int64"),
            "o_orderkey": g["o_orderkey"].astype("int64"),
            "o_orderdate": g["o_orderdate"],
            "o_orderpriority": g["o_orderpriority"],
            "first_cents": (g["o_totalprice"] * 100).round().astype("int64"),
        })

    combined = ds.map_batches(pick_first, batch_format="pandas")

    # final pick: ONE exchange keyed on a bounded hash partition, then a
    # vectorized sort + per-customer head(1) PER PARTITION — not per key
    # (groupby(<raw key>).map_groups invokes the UDF once per key: ~15k
    # pandas calls at sf0.1, millions at scale; the event_type_history
    # pattern does the same work in n_parts vectorized calls).
    n_parts = 32

    def tag(t: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(t["o_custkey"], n_parts - 1),
                       pa.int32())
        return t.append_column("part", part)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_orderdate", "o_orderkey"])
        out = df.groupby("o_custkey", as_index=False, sort=False).head(1)
        return out.drop(columns=["part"])

    g = (combined.map_batches(tag, batch_format="pyarrow")
         .groupby("part").map_groups(finish, batch_format="pandas"))

    def fix_unit(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("o_orderdate")
        return t.set_column(i, "o_orderdate",
                            pc.cast(t["o_orderdate"], pa.timestamp("us")))

    return g.map_batches(fix_unit, batch_format="pyarrow")


def bucketed_join_orders_customer(sf_dir: str, n_buckets: int = 16,
                                  bucket_root: str | None = None):
    """BUCKETED STORAGE JOIN — the 'pick one partitioning key and reuse
    it across stages' technique: both tables are written ONCE to
    hash-bucketed Parquet (bucket = key mod n_buckets, one directory per
    bucket), and the join then runs bucket-by-bucket with NO shuffle —
    each task reads the two co-located bucket files and merges locally.
    At 100 TB this is the layout that turns every subsequent key-joined
    pipeline into a narrow map; the bucketed write is also the resumable
    layout (a failed run re-reads only unfinished buckets).

    Output: (o_orderkey, o_custkey, c_nationkey, total_cents) — exactly
    a plain inner join (the oracle).

    ``bucket_root`` defaults to a fresh per-run directory (tempfile):
    a fixed default raced two concurrent runs over the same corpus —
    each rmtree'd the other's bucket files mid-read. With the default
    root the join is materialized and the tempdir removed before
    returning (no leaked parquet per run). Pass an explicit root to
    REUSE a previously-written layout across pipelines (the actual
    point of bucketing); the caller then owns its lifecycle and the
    returned Dataset stays lazy over it."""
    import os
    import shutil
    import tempfile

    import ray
    import ray.data as rd

    owns_root = bucket_root is None
    root = bucket_root or tempfile.mkdtemp(
        prefix=f"bucketed_{os.path.basename(os.path.normpath(sf_dir))}_")

    def write_bucketed(table: str, cols, key: str):
        out = os.path.join(root, table)
        if os.path.isdir(out):
            shutil.rmtree(out)

        def add_bucket(t: pa.Table) -> pa.Table:
            b = pc.cast(pc.bit_wise_and(t[key], n_buckets - 1), pa.int32())
            return t.append_column("bucket", b)

        (_read(sf_dir, table, cols)
         .map_batches(add_bucket, batch_format="pyarrow")
         .write_parquet(out, partition_cols=["bucket"]))
        return out

    o_dir = write_bucketed("orders",
                           ["o_orderkey", "o_custkey", "o_totalprice"],
                           "o_custkey")
    c_dir = write_bucketed("customer", ["c_custkey", "c_nationkey"],
                           "c_custkey")

    def join_buckets(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        outs = []
        for b in t["bucket"].to_pylist():  # ≤ n_buckets ids, not a hot loop
            o = pq.read_table(os.path.join(o_dir, f"bucket={int(b)}"))
            c = pq.read_table(os.path.join(c_dir, f"bucket={int(b)}"))
            j = o.join(c, keys=["o_custkey"], right_keys=["c_custkey"])
            cents = pc.cast(pc.round(pc.multiply(j["o_totalprice"], 100)),
                            pa.int64())
            outs.append(pa.table({
                "o_orderkey": pc.cast(j["o_orderkey"], pa.int64()),
                "o_custkey": pc.cast(j["o_custkey"], pa.int64()),
                "c_nationkey": pc.cast(j["c_nationkey"], pa.int64()),
                "total_cents": cents}))
        return pa.concat_tables(outs)

    buckets = rd.from_items([{"bucket": b} for b in range(n_buckets)],
                            override_num_blocks=n_buckets)
    # row-exploding map over a tiny driving table: do NOT compose the
    # result with a map_batches(batch_size=B) — fusion would bundle up
    # to B *bucket* rows per task and serialize the join (the read_warc
    # lesson, sources/warc.py:_WARCDatasource); direct consumers only
    joined = buckets.map_batches(join_buckets, batch_format="pyarrow",
                                 batch_size=1)
    if not owns_root:
        return joined
    try:
        return joined.materialize()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def zorder_orders(sf_dir: str, bits: int = 16):
    """Z-ORDER (Morton) layout keys — the lakehouse multi-column
    clustering primitive: interleave the bits of (o_custkey,
    o_orderdate-day) so rows close in BOTH dimensions get close z
    values; writing data sorted by z keeps any custkey-range ∧
    date-range scan touching few files. Emits (o_orderkey, zvalue) —
    fully vectorized numpy bit arithmetic, no shuffle (the downstream
    range-partitioned sort is ``global_rank``'s machinery)."""
    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate"])

    def zval(t: pa.Table) -> pa.Table:
        x = pc.cast(t["o_custkey"], pa.int64()).to_numpy().astype(np.uint64)
        days = pc.cast(
            pc.divide(pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("s")),
                              pa.int64()), 86400), pa.int64()
        ).to_numpy().astype(np.uint64)
        x &= np.uint64((1 << bits) - 1)
        y = days & np.uint64((1 << bits) - 1)
        z = np.zeros(len(x), dtype=np.uint64)
        for b in range(bits):
            z |= ((x >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b)
            z |= ((y >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b + 1)
        return pa.table({
            "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
            "zvalue": pa.array(z.astype(np.int64), pa.int64())})

    return ds.map_batches(zval, batch_format="pyarrow")


def linreg_by_flag(sf_dir: str):
    """Grouped simple LINEAR REGRESSION (OLS, y = quantity on
    x = discount, per return flag) — the distributed model-fitting
    kernel: the exact integer sufficient statistics stream through the
    `corr_sufficient_stats` combiner, and slope/intercept come from ONE
    float division each per group, micro-floored. Both engine and
    oracle divide the same two exact int64 values, so the IEEE result
    (and its floor) is bit-identical — no accumulation-order drift."""
    stats = corr_sufficient_stats(sf_dir)

    def fit(t: pa.Table) -> pa.Table:
        import numpy as np

        # corr_sufficient_stats carries x = quantity, y = discount; the
        # regression here is quantity ON discount, so the regressor is
        # the y-moments and the response the x-moments
        n = t["n_rows"].to_numpy(zero_copy_only=False).astype(np.int64)
        s_resp = t["sum_x"].to_numpy(zero_copy_only=False).astype(np.int64)
        s_reg = t["sum_y"].to_numpy(zero_copy_only=False).astype(np.int64)
        s_regsq = t["sum_yy"].to_numpy(zero_copy_only=False).astype(np.int64)
        s_cross = t["sum_xy"].to_numpy(zero_copy_only=False).astype(np.int64)
        num = n * s_cross - s_reg * s_resp
        den = n * s_regsq - s_reg * s_reg
        slope = num.astype(np.float64) / den.astype(np.float64)
        intercept = (s_resp.astype(np.float64)
                     - slope * s_reg.astype(np.float64)) / n.astype(np.float64)
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "n_rows": pa.array(n),
            "slope_micro": pa.array(np.floor(1e6 * slope).astype(np.int64)),
            "intercept_micro": pa.array(
                np.floor(1e6 * intercept).astype(np.int64)),
        })

    return stats.map_batches(fit, batch_format="pyarrow")


def late_events(ev_ds, late_hours: int = 1, n_parts: int | None = None):
    """STREAMING WATERMARK / LATE-DATA classification: events arrive in
    ``event_id`` order; the watermark before arrival i is
    ``max(event time of arrivals < i) − allowed lateness``, and an
    event whose time falls behind it is LATE — the Beam/Flink
    allowed-lateness contract, evaluated exactly in batch (the audit a
    streaming deployment runs to size its lateness budget). Returns
    per event-time hour (window_start, n_events, n_late).

    Shape: the global arrival-order running max is the TeraSort
    range-partition pattern (`term_dictionary`'s): event_id range
    buckets → per-batch (bucket, max_ts) partials whose driver fold is
    the O(n_parts) carry-in prefix — never row data — then ONE bucket
    exchange where each partition seeds its in-bucket exclusive
    prefix-max with its carry-in, classifies vectorized, and emits
    per-hour PARTIAL counts; a final hour-hash exchange over
    hour-cardinality rows sums. No global sort, no driver rows."""
    from ray.data.aggregate import Max, Min

    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    late_us = int(late_hours) * 3_600_000_000
    HOUR = 3_600_000_000
    SENT = np.iinfo(np.int64).min

    # the stream is consumed by three passes (bounds, carry partials,
    # classify) — materialize once instead of re-running the upstream
    ev_ds = ev_ds.materialize()
    bounds = ev_ds.aggregate(Min("event_id"), Max("event_id"))
    lo = int(bounds["min(event_id)"])
    span = max(int(bounds["max(event_id)"]) - lo + 1, 1)
    # overflow-free monotone bucketing: width = ceil(span / n_parts)
    # ((eid-lo)*n_parts can exceed int64 for snowflake-style id spans)
    width = -(-span // n_parts)

    def bucket_of(eids: np.ndarray) -> np.ndarray:
        return (eids - lo) // width

    def part_max(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ts = pc.cast(pc.cast(t["ts"], pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        b = bucket_of(eid)
        g = pd.DataFrame({"b": b, "ts": ts}).groupby(
            "b", as_index=False)["ts"].max()
        return pa.table({"b": pa.array(g["b"].to_numpy(), pa.int64()),
                         "mx": pa.array(g["ts"].to_numpy(), pa.int64())})

    partials = ev_ds.map_batches(part_max, batch_format="pyarrow") \
        .to_pandas()  # ≤ n_parts rows per input block — metadata-sized
    bmax = np.full(n_parts, SENT, np.int64)
    agg = partials.groupby("b")["mx"].max()
    bmax[agg.index.to_numpy()] = agg.to_numpy()
    carry = np.full(n_parts, SENT, np.int64)
    run = SENT
    for b in range(n_parts):
        carry[b] = run
        run = max(run, int(bmax[b]))

    def tag(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ts = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        return pa.table({"event_id": pa.array(eid),
                         "ts_us": ts,
                         "part": pa.array(bucket_of(eid))})

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("event_id")
        ts = df["ts_us"].to_numpy()
        b = int(bucket_of(df["event_id"].to_numpy()[:1])[0])
        pm = np.maximum.accumulate(ts)
        wm = np.concatenate([[carry[b]], pm[:-1]])
        wm = np.maximum(wm, carry[b])
        late = (wm != SENT) & (ts < wm - late_us)
        hour = (ts // HOUR) * HOUR
        g = (pd.DataFrame({"h": hour, "late": late.astype(np.int64)})
             .groupby("h", as_index=False)
             .agg(n_events=("late", "size"), n_late=("late", "sum")))
        g["p2"] = fast_part_hash(list(g["h"].astype(str)), n_parts)
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("h", as_index=False)[["n_events", "n_late"]]
             .sum())
        return g

    out = (ev_ds.map_batches(tag, batch_format="pyarrow")
           .groupby("part").map_groups(classify, batch_format="pandas")
           .groupby("p2").map_groups(fold, batch_format="pandas"))

    def to_out(t: pa.Table) -> pa.Table:
        return pa.table({
            "window_start": pc.cast(t["h"], pa.timestamp("us")),
            "n_events": pc.cast(t["n_events"], pa.int64()),
            "n_late": pc.cast(t["n_late"], pa.int64())})

    return out.map_batches(to_out, batch_format="pyarrow")


def merge_upsert(base_ds, updates_ds, key_col: str = "k",
                 val_col: str = "cents", op_col: str = "op",
                 n_parts: int | None = None):
    """CDC MERGE (the lakehouse ``MERGE INTO``): apply a key-unique,
    compacted change stream — ``U`` (update value), ``D`` (delete),
    ``I`` (insert new key) — to a base table in ONE key-hash tag-union
    exchange; the per-partition resolve is vectorized masks, no join
    operator. Returns the merged table with its action audit column
    (kept / updated / inserted; deleted keys are absent).

    Semantics are the ``rel_merge`` oracle's FULL OUTER JOIN of base
    and stream: every U or I row is emitted with the stream's value
    (action ``updated`` / ``inserted``), whether or not its key is in
    the base — a U on an absent key upserts it; a base row whose key
    the stream touches is replaced (U, I) or dropped (D); every other
    base row is ``kept``. A D on an absent key is a no-op.

    Contract: the change stream is COMPACTED (at most one op per key —
    what a CDC reader emits per checkpoint) and its ops are U, D or I.
    Neither is checked per row here — compaction is the producer's
    invariant."""
    from ..functions.hashing import fast_part_hash
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)

    def tag_b(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "k": pa.array(keys),
            "v": pc.cast(t[val_col], pa.int64()),
            "op": pa.array(np.full(len(keys), "", object), pa.string()),
            "is_base": pa.array(np.ones(len(keys), bool)),
            "part": pa.array(fast_part_hash(keys, n_parts))})

    def tag_u(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "k": pa.array(keys),
            "v": pc.cast(t[val_col], pa.int64()),
            "op": pc.cast(t[op_col], pa.string()),
            "is_base": pa.array(np.zeros(len(keys), bool)),
            "part": pa.array(fast_part_hash(keys, n_parts))})

    tagged = (base_ds.map_batches(tag_b, batch_format="pyarrow")
              .union(updates_ds.map_batches(tag_u,
                                            batch_format="pyarrow")))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        u = df[~df["is_base"]]
        b = df[df["is_base"] & ~df["k"].isin(u["k"])]
        u = u[u["op"] != "D"]
        # both sides are int64 slices of one frame: no float64 round-trip
        # that would corrupt values above 2^53
        out = pd.concat([
            pd.DataFrame({"k": b["k"], "v": b["v"], "action": "kept"}),
            pd.DataFrame({"k": u["k"], "v": u["v"],
                          "action": np.where(u["op"] == "U", "updated",
                                             "inserted")})],
            ignore_index=True)
        return out.rename(columns={"k": key_col, "v": val_col})

    return tagged.groupby("part").map_groups(resolve,
                                             batch_format="pandas")
