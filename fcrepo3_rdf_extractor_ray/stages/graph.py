"""Graph algorithms over the KG adjacency (entity→entity edges).

PageRank is the canonical "wide iterative" workload a KG engine owes its
users (the reference stops at materializing the graph; ranking its nodes
is the first thing a consumer does with it). Two shared kernels carry
the families that used to repeat their own exchanges:

- `_rank_sums` — one broadcast rank round for `pagerank`,
  `pagerank_weighted`, `trust_rank` and `hits_scores`: the rank table
  (#nodes ≈ #entities scale, orders of magnitude below the corpus) is
  ``ray.put`` once per round and every edge task reads it zero-copy
  (``pc.index_in`` + take — a vectorized broadcast join), then one
  combiner-bounded ``hash_exchange`` sums contributions. One exchange
  per round; the edge list never re-shuffles. Measured 6× faster than a
  hash-join round at 500k edges (Ray 2.49's hash join costs ~14 s a
  round at that size), so `pagerank` switches to its Dataset-native join rounds
  (`_pagerank_join`, no driver-side rank table) only past
  ``PAGERANK_BROADCAST_MAX_NODES`` nodes — same arithmetic,
  bit-identical output (equivalence-tested).
- `_pair_table` — one wedge pass for `triangle_count`,
  `neighborhood_jaccard`, `two_hop_scores`, `resource_alloc_scores` and
  `clustering_coefficients`: per unordered node pair, the common
  neighbour count, the resource-allocation weight and the edge flag.

Every key-local exchange goes through ``stages.exchange.hash_exchange``,
which owns the partition count; no function takes a partition option.
Routes that depend on input size read the module constants below at
call time (set them, e.g. with ``monkeypatch``, to force a route); no
function takes a per-call routing option.

All arithmetic is INTEGER (micro-units, floor division): integer sums
are order-independent, so the distributed result is bit-identical to the
sequential reference and to the unrolled DuckDB oracle — float PageRank
would hash-drift under Ray's nondeterministic reduce order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..runtime import safe_join_partitions
from .exchange import hash_exchange

# Broadcast rank rounds while the node set fits a worker; `pagerank`
# takes its join rounds above this.
PAGERANK_BROADCAST_MAX_NODES = 5_000_000
# `bfs_reachability` keeps the frontier on the driver up to this many
# edges (the frontier is bounded by the node count, itself edge-bounded).
BFS_DRIVER_MAX_EDGES = 200_000
# `connected_components`, `kcore_nodes`, `scc_labels`, `bowtie_regions`
# and `hits_scores` run one exact single task up to this many edges.
SMALL_GRAPH_EDGES = 200_000
# `deterministic_walks` broadcasts the CSR adjacency up to this many
# edges, and walks by hash exchange above it.
WALKS_BROADCAST_MAX_EDGES = 2_000_000


def _distinct(ds, cols: list[str]):
    """Distinct rows via per-batch combiner → one hash exchange on
    ``cols[0]`` → one vectorized Arrow group_by per partition (never one
    Python call per key)."""
    def distinct(t: pa.Table) -> pa.Table:
        return t.select(cols).group_by(cols).aggregate([])

    return hash_exchange(ds.map_batches(distinct, batch_format="pyarrow"),
                         cols[0], distinct, batch_format="pyarrow")


def _in_one_task(ds, fn, batch_format: str):
    """Run ``fn`` once over every row of ``ds`` — the exact single-task
    route of the small-graph paths (not a hash exchange)."""
    return ds.repartition(1).map_batches(fn, batch_size=None,
                                         batch_format=batch_format)


def _prepare(edges_ds):
    """Distinct edges, node set, and the ranker edge table (subj, obj,
    num = 1, den = out-degree of subj; see `_rank_sums`), the degree
    joined ONCE — every iteration reuses it."""
    from ray.data.aggregate import Count

    edges = _distinct(edges_ds, ["subj", "obj"]).materialize()
    nodes = _node_set(edges).materialize()
    n_join = safe_join_partitions(nodes.count())
    deg = edges.groupby("subj").aggregate(Count())
    deg = deg.map_batches(
        lambda t: pa.table({"dsubj": t.column(0),
                            "num": pa.array(np.ones(t.num_rows, np.int64)),
                            "den": pc.cast(t.column(1), pa.int64())}),
        batch_format="pyarrow")
    e3 = edges.join(deg, join_type="inner", num_partitions=n_join,
                    on=("subj",), right_on=("dsubj",)).materialize()
    return e3, nodes, n_join


def _node_set(edges, a: str = "subj", b: str = "obj"):
    """Distinct (node) Dataset over both endpoints of (a, b), lazy."""
    def both_ends(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays(
            [t[a].combine_chunks(), t[b].combine_chunks()])})

    return _distinct(edges.map_batches(both_ends, batch_format="pyarrow"),
                     ["node"])


def _node_column(nodes) -> pa.ChunkedArray:
    """A broadcast ranker's node set, collected to the driver (#nodes ≤
    ``PAGERANK_BROADCAST_MAX_NODES``)."""
    return _collect_table(nodes, pa.schema([("node", pa.string())]))["node"]


def _rank_sums(edges, scores: pa.Table, node_col,
               src: str = "subj", dst: str = "obj") -> pa.Table:
    """ONE BROADCAST RANK ROUND, shared by `pagerank`, `pagerank_weighted`,
    `trust_rank` and `hits_scores`: the per-node raw sums

        raw(v) = Σ_{u→v} (s(u) · num) // den

    over a ranker edge table (subj, obj, num, den), for every node of
    ``node_col`` (0 for a node without in-edges). The (node, s) score
    table (#nodes scale, ≤ ``PAGERANK_BROADCAST_MAX_NODES``) ships ONCE
    via ``ray.put``; every edge task reads it zero-copy (``pc.index_in``
    + take — a vectorized broadcast join) and pre-sums per batch; one
    node ``hash_exchange`` with a vectorized per-partition sum; the
    (node, raw) table returns to the driver, which fills the nodes
    nothing reached. The edge table never re-shuffles. Per-edge floor
    division keeps the sums order-independent integers."""
    ref = ray.put(scores)

    def contrib(t: pa.Table) -> pa.Table:
        st = ray.get(ref)  # zero-copy object-store read
        idx = pc.index_in(t[src], value_set=st["node"])
        inc = pc.divide(pc.multiply(pc.take(st["s"], idx), t["num"]),
                        t["den"])  # int64 floor division
        return (pa.table({"node": t[dst], "inc": inc})
                .group_by("node").aggregate([("inc", "sum")])
                .rename_columns(["node", "inc"]))

    def psum(t: pa.Table) -> pa.Table:
        return (t.group_by("node").aggregate([("inc", "sum")])
                .rename_columns(["node", "raw"]))

    raw = _collect_table(
        hash_exchange(edges.map_batches(contrib, batch_format="pyarrow",
                                        batch_size=None),
                      "node", psum, batch_format="pyarrow"),
        pa.schema([("node", pa.string()), ("raw", pa.int64())]))
    got = pc.take(raw["raw"], pc.index_in(node_col, value_set=raw["node"]))
    return pa.table({"node": node_col,
                     "raw": pc.fill_null(got, pa.scalar(0, pa.int64()))})


def _damped(raw: pa.Table, base, damping_pct: int) -> pa.Table:
    """PageRank update: ``base + (damping_pct · raw) // 100`` per node."""
    r = pc.add(base, pc.divide(pc.multiply(
        pa.scalar(damping_pct, pa.int64()), raw["raw"]),
        pa.scalar(100, pa.int64())))
    return pa.table({"node": raw["node"], "s": pc.cast(r, pa.int64())})


def _pagerank_rounds(e3, nodes, iters: int, damping_pct: int,
                     rank_scale: int, seeds=None) -> pa.Table:
    """``iters`` broadcast PageRank rounds (`pagerank`,
    `pagerank_weighted`, `trust_rank`) over a ranker edge table:
    ``r0(v) = rank_scale·[v ∈ S]``, ``r'(v) = base·[v ∈ S] +
    (damping_pct · raw(v)) // 100`` with ``base = (rank_scale ·
    (100 - damping_pct)) // 100`` and S = every node unless ``seeds``
    masks the teleport (TrustRank). Returns the (node, s) table."""
    seed_arr = (None if seeds is None
                else pa.array(sorted(set(seeds)), pa.string()))

    def teleport(node, amount: int):
        if seed_arr is None:
            return pa.array(np.full(len(node), amount, np.int64))
        return pc.if_else(pc.is_in(node, value_set=seed_arr),
                          pa.scalar(amount, pa.int64()),
                          pa.scalar(0, pa.int64()))

    node_col = _node_column(nodes)
    base = (rank_scale * (100 - damping_pct)) // 100
    r = pa.table({"node": node_col, "s": teleport(node_col, rank_scale)})
    for _ in range(iters):
        raw = _rank_sums(e3, r, node_col)
        r = _damped(raw, teleport(raw["node"], base), damping_pct)
    return r


def pagerank(edges_ds, iters: int = 5, damping_pct: int = 85,
             rank_scale: int = 1_000_000):
    """Integer PageRank over a (subj, obj) edge Dataset.

    Per iteration: ``r'(v) = base + (damping_pct · Σ_{u→v} r(u)//d(u)) // 100``
    with ``base = (rank_scale · (100 - damping_pct)) // 100``; dangling
    mass is dropped (the standard simplification). Returns the
    (node, rank_micro) Dataset after ``iters`` fixed iterations.

    Routed by node count: up to ``PAGERANK_BROADCAST_MAX_NODES`` every
    round is one `_rank_sums` broadcast round; above it `_pagerank_join`
    keeps the rank table off the driver.
    """
    import ray.data as rd

    e3, nodes, n_join = _prepare(edges_ds)
    if nodes.count() > PAGERANK_BROADCAST_MAX_NODES:
        ranks = _pagerank_join(e3, nodes, n_join, iters, damping_pct,
                               rank_scale)
    else:
        ranks = rd.from_arrow(_pagerank_rounds(
            e3, nodes, iters, damping_pct, rank_scale))
    return ranks.map_batches(
        lambda t: t.rename_columns(["node", "rank_micro"]),
        batch_format="pyarrow")


def _collect_table(ds, schema: pa.Schema) -> pa.Table:
    """Concatenate a small Dataset's blocks into one Arrow table,
    skipping the zero-row blocks Ray emits for empty partitions (pandas
    map stages emit them without columns). Every block is cast to
    ``schema`` so mixed-lineage blocks concat.

    The plan runs once: Ray 2.49's ``to_arrow_refs`` on a lazy Dataset
    starts a second execution (its schema probe) and shuts it down with
    tasks still running; ``iter_batches`` streams the one execution's
    blocks to the end."""
    tabs = []
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        if not b.num_rows or not b.num_columns:
            continue
        tabs.append(b.select(schema.names).cast(schema))
    if not tabs:
        return schema.empty_table()
    return pa.concat_tables(tabs).combine_chunks()


def _pagerank_join(e3, nodes, n_join, iters, damping_pct, rank_scale):
    """Join-mode rounds: ranks stay a Dataset end-to-end (no driver-side
    rank table) — one hash join + one combiner groupby per iteration.
    The only route for graphs past ``PAGERANK_BROADCAST_MAX_NODES``;
    same arithmetic, bit-identical output (equivalence-tested)."""
    from ray.data.aggregate import Sum

    base = pa.scalar((rank_scale * (100 - damping_pct)) // 100, pa.int64())
    ranks = nodes.map_batches(
        lambda t: t.append_column(
            "s", pa.array(np.full(t.num_rows, rank_scale, dtype=np.int64))),
        batch_format="pyarrow").materialize()

    zero_rows = nodes.map_batches(
        lambda t: pa.table({
            "node": t["node"],
            "inc": pa.array(np.zeros(t.num_rows, dtype=np.int64))}),
        batch_format="pyarrow").materialize()

    def contrib(t: pa.Table) -> pa.Table:
        inc = pc.divide(pc.multiply(t["s"], t["num"]), t["den"])
        g = pa.table({"node": t["obj"], "inc": inc}).group_by(
            ["node"]).aggregate([("inc", "sum")])
        return g.rename_columns(["node", "inc"])

    for _ in range(iters):
        side = e3.join(ranks, join_type="inner", num_partitions=n_join,
                       on=("subj",), right_on=("node",))
        inc = (side.map_batches(contrib, batch_format="pyarrow",
                                batch_size=None)
               .union(zero_rows)
               .groupby("node").aggregate(Sum("inc")))
        ranks = inc.map_batches(
            lambda t: _damped(t.rename_columns(["node", "raw"]), base,
                              damping_pct),
            batch_format="pyarrow").materialize()
    return ranks


def degree_distribution(edges_ds, node_col: str = "subj"):
    """Graph DEGREE DISTRIBUTION: out-degree per node, then the
    histogram of degrees — the first profiling query over any extracted
    knowledge graph (power-law check, supernode detection for salt
    planning). Two chained partial/final aggregations: the edge stream
    is combined per batch before each exchange, and the second exchange
    carries at most one row per distinct degree per block — bytes, not
    edges, regardless of graph size."""
    from ray.data.aggregate import Sum

    import numpy as np

    def count_part(t: pa.Table) -> pa.Table:
        g = pa.table({
            node_col: t[node_col],
            "deg": pa.array(np.ones(t.num_rows, np.int64)),
        }).group_by(node_col).aggregate([("deg", "sum")])
        return g.rename_columns([node_col, "deg"])

    degrees = (edges_ds.map_batches(count_part, batch_format="pyarrow")
               .groupby(node_col).aggregate(Sum("deg")))

    def hist_part(t: pa.Table) -> pa.Table:
        g = pa.table({
            "degree": t["sum(deg)"],
            "n_nodes": pa.array(np.ones(t.num_rows, np.int64)),
        }).group_by("degree").aggregate([("n_nodes", "sum")])
        return g.rename_columns(["degree", "n_nodes"])

    g = (degrees.map_batches(hist_part, batch_format="pyarrow")
         .groupby("degree").aggregate(Sum("n_nodes")))
    return g.map_batches(
        lambda t: t.rename_columns(["degree", "n_nodes"]),
        batch_format="pyarrow")


def bfs_reachability(facts_ds, seed_pred: str = "kg:acquired",
                     max_hops: int = 3):
    """Bounded multi-hop BFS over the entity graph: every node reachable
    within ``max_hops`` edges from the seed set (subjects of
    ``seed_pred`` facts), labeled with its MINIMUM hop distance — the
    "expand a seed list through the graph" primitive behind KG
    enrichment and taint/influence propagation.

    Routed by edge count: up to ``BFS_DRIVER_MAX_EDGES`` the driver keeps
    the frontier (one ``ray.put`` broadcast + ``pc.is_in``
    semi-join per hop — lowest latency, right for seeded-entity
    queries whose frontier is entity-scale); above it the ds route keeps
    frontier AND visited set as Datasets end-to-end — per hop one
    co-partitioned tag-union semi-join (frontier rows ride the edge
    exchange, the ``_attach_val`` idiom) expands, and one node-hash
    anti-join exchange subtracts the visited set, so driver traffic is
    a per-hop COUNT scalar no matter how wide the frontier gets (a
    hop-2 web-graph frontier is not driver-sized). The frontier is
    bounded by the distinct-node count, itself edge-bounded.
    Output: ``(node, hops)`` with hops 0 for the seeds themselves;
    the driver route returns pandas, the ds route a Dataset."""
    import pandas as pd

    edges = facts_ds.map_batches(
        lambda t: pa.table({"a": t["subj"], "b": t["obj"]}),
        batch_format="pyarrow").materialize()

    def seed_partial(t: pa.Table) -> pa.Table:
        m = t.filter(pc.equal(t["pred"], seed_pred))
        return pa.table({"node": pc.unique(m["subj"])})

    if edges.count() > BFS_DRIVER_MAX_EDGES:
        return _bfs_ds(edges,
                       facts_ds.map_batches(seed_partial,
                                            batch_format="pyarrow"),
                       max_hops)

    seed_df = (facts_ds.map_batches(seed_partial, batch_format="pyarrow")
               .to_pandas())
    seeds = seed_df["node"] if "node" in seed_df.columns else []
    visited: dict[str, int] = {s: 0 for s in seeds}
    frontier = list(visited)

    for hop in range(1, max_hops + 1):
        if not frontier:
            break
        fr_ref = ray.put(pa.array(frontier, pa.string()))

        def nxt(t: pa.Table) -> pa.Table:
            fr = ray.get(fr_ref)
            m = t.filter(pc.is_in(t["a"], value_set=fr))
            return pa.table({"node": pc.unique(m["b"])})

        cand = edges.map_batches(nxt, batch_format="pyarrow").to_pandas()
        found = (cand["node"].unique() if "node" in cand.columns else [])
        frontier = [n for n in found if n not in visited]
        for n in frontier:
            visited[n] = hop

    return pd.DataFrame({"node": list(visited),
                         "hops": pd.array(list(visited.values()),
                                          dtype="int64")})


def _bfs_ds(edges, seeds_ds, max_hops: int):
    """Dataset-native bounded BFS: frontier and visited set never touch
    the driver. Per hop: (1) frontier rows tag-union onto the edges in
    one source ``hash_exchange``; each partition expands its local
    frontier members' out-edges to candidate nodes (distinct per
    partition); (2) candidates anti-join the visited set in one node
    ``hash_exchange`` (max-flag fold: a node seen with a visited row is
    dropped)."""
    visited = _distinct(seeds_ds, ["node"]).map_batches(
        lambda t: pa.table({
            "node": t["node"],
            "hops": pa.array(np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow").materialize()
    frontier = visited
    edge_rows = edges.map_batches(
        lambda t: pa.table({"k": t["a"], "pay": t["b"]}),
        batch_format="pyarrow").materialize()

    def tag_fr(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["node"],
                         "pay": pa.nulls(t.num_rows, pa.string())})

    def expand(t: pa.Table) -> pa.Table:
        is_fr = pc.is_null(t["pay"])
        fr = pc.unique(t.filter(is_fr)["k"])
        e = t.filter(pc.invert(is_fr))
        got = pc.unique(e.filter(pc.is_in(e["k"], value_set=fr))["pay"])
        return pa.table({"node": got,
                         "vis": pa.array(np.zeros(len(got), np.int8))})

    def tag_vis(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"],
                         "vis": pa.array(np.ones(t.num_rows, np.int8))})

    def unseen(t: pa.Table) -> pa.Table:
        g = t.group_by("node").aggregate([("vis", "max")])
        return pa.table(
            {"node": g.filter(pc.equal(g["vis_max"], 0))["node"]})

    for hop in range(1, max_hops + 1):
        cand = hash_exchange(
            [edge_rows, frontier.map_batches(tag_fr, batch_format="pyarrow")],
            "k", expand, batch_format="pyarrow")
        new = hash_exchange(
            [cand, visited.map_batches(tag_vis, batch_format="pyarrow")],
            "node", unseen, batch_format="pyarrow").materialize()
        if new.count() == 0:
            break
        new_lab = new.map_batches(
            lambda t, h=hop: pa.table({
                "node": t["node"],
                "hops": pa.array(np.full(t.num_rows, h, np.int64))}),
            batch_format="pyarrow")
        visited = visited.union(new_lab).materialize()
        frontier = new_lab

    return visited


def connected_components(edges_ds, a_col: str = "norm_a",
                         b_col: str = "norm_b", levels: int = 3):
    """CONNECTED COMPONENTS of an undirected graph — the clustering
    closure behind near-dup group labeling and entity-graph community
    seeding. Component label = the MINIMUM node id in the component.

    Geometric-contraction distributed union-find (the classic
    contract-and-relabel scheme — cf. Kiveris et al., "Connected
    Components in MapReduce and Beyond", SoCC'14):

    1. hash-exchange the edges (one partition per CPU); each group runs
       a LOCAL union-find (int-rank parent array over factorized names —
       O(E·α) per task) and emits its (node → local min-root) star map;
    2. CONTRACT: group the star map by node; a node seen with k > 1
       distinct roots emits k-1 (min-root, other-root) boundary edges —
       nodes whose roots already agree exit the loop here, so the edge
       set shrinks to boundary scale each level;
    3. the FINAL level runs one single-partition union-find over the
       fully-contracted boundary edges (exactness does not depend on
       how many contraction levels ran — whatever survives is glued
       here), then labels RELABEL back down through the saved per-level
       star maps via co-partitioned tag-union merges (key = root).

    Everything is lazy Datasets; total exchanges = ``levels`` exchanges
    up + ``levels - 1`` merges down, independent of graph diameter (the
    old min-label-flooding path needed O(diameter) rounds of shuffles —
    53 s on a 30-node path; this runs the same graph in ~8 s).

    SCALE ASSUMPTION (documented per the custom-operator rule): the
    final level funnels the twice-contracted boundary-edge set through
    one task — ~#cross-partition component links after two contractions,
    which for entity graphs is far below the corpus scale (same
    #entities-bound as SURVEY.md §7.4). Raise ``levels``
    if a pathological graph (giant matching spread across partitions)
    keeps the contracted set large."""
    import pandas as pd

    def to_ab(t: pa.Table) -> pa.Table:
        return pa.table({"a": pc.cast(t[a_col], pa.string()),
                         "b": pc.cast(t[b_col], pa.string())})

    def local_uf(df: pd.DataFrame) -> pd.DataFrame:
        """Union-find over one partition's edges → (node, root) for every
        distinct name; root = lexicographic-min name of the local
        component. Names are factorized to ints and compared by RANK
        (argsort of the uniques) so the hot loop never touches strings."""
        codes, uniques = pd.factorize(
            pd.concat([df["a"], df["b"]], ignore_index=True))
        names = np.asarray(uniques, dtype=object)
        order = np.argsort(names)
        rank_of_code = np.empty(len(names), dtype=np.int64)
        rank_of_code[order] = np.arange(len(names))
        n = len(df)
        ea = rank_of_code[codes[:n]]
        eb = rank_of_code[codes[n:]]
        parent = np.arange(len(names), dtype=np.int64)

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != x:
                parent[x], x = root, parent[x]
            return root

        for x, y in zip(ea.tolist(), eb.tolist()):
            rx, ry = find(x), find(y)
            if rx != ry:
                if ry < rx:
                    rx, ry = ry, rx
                parent[ry] = rx  # min-rank = min-name root

        roots = np.array([find(r) for r in range(len(names))],
                         dtype=np.int64)
        name_by_rank = names[order]
        return pd.DataFrame({"node": name_by_rank,
                             "root": name_by_rank[roots]})

    def boundary(df: pd.DataFrame) -> pd.DataFrame:
        """Contract, fused with the star-map dedup (both need the same
        node-keyed exchange): per node, anchor = min of its partition-
        local roots. Emits kind=1 (anchor, other-root) boundary edges
        for disagreeing roots — agreeing nodes exit the loop — AND
        kind=0 deduped (node, anchor) star rows, one per node, so the
        relabel pass later needs no final distinct."""
        anchor = df.groupby("node")["root"].transform("min")
        mask = (df["root"] != anchor).to_numpy()
        eout = pd.DataFrame({"node": anchor.to_numpy()[mask],
                             "root": df["root"].to_numpy()[mask]
                             }).drop_duplicates()
        eout["kind"] = np.ones(len(eout), dtype=np.int8)
        sout = df.assign(root=anchor).drop_duplicates("node")[
            ["node", "root"]]
        sout["kind"] = np.zeros(len(sout), dtype=np.int8)
        return pd.concat([sout, eout], ignore_index=True)

    def contract(star_ds):
        both = hash_exchange(star_ds, "node", boundary,
                             batch_format="pandas").materialize()
        stars = both.map_batches(
            lambda t: (t.filter(pc.equal(t["kind"], 0))
                       .select(["node", "root"])),
            batch_format="pyarrow")
        edges = both.map_batches(
            lambda t: pa.table({
                "a": t.filter(pc.equal(t["kind"], 1))["node"],
                "b": t.filter(pc.equal(t["kind"], 1))["root"]}),
            batch_format="pyarrow")
        return stars, edges

    def relabel(star_ds, lab_ds):
        """node's final label = lab[root] (fallback: root itself — a root
        absent from the upper level had no cross-partition merge left).
        Co-partitioned tag-union merge keyed on root; no joins."""

        def tag_m(t: pa.Table) -> pa.Table:
            return pa.table({
                "k": t["root"], "node": t["node"],
                "lab": pa.nulls(t.num_rows, pa.string())})

        def tag_l(t: pa.Table) -> pa.Table:
            return pa.table({
                "k": t["node"], "node": pa.nulls(t.num_rows, pa.string()),
                "lab": t["root"]})

        def merge(df: pd.DataFrame) -> pd.DataFrame:
            lab = (df.loc[df["lab"].notna(), ["k", "lab"]]
                   .drop_duplicates("k").set_index("k")["lab"])
            rows = df.loc[df["node"].notna(), ["k", "node"]]
            got = rows["k"].map(lab).fillna(rows["k"])
            return pd.DataFrame({"node": rows["node"].to_numpy(),
                                 "root": got.to_numpy()})

        return hash_exchange(
            [star_ds.map_batches(tag_m, batch_format="pyarrow"),
             lab_ds.map_batches(tag_l, batch_format="pyarrow")],
            "k", merge, batch_format="pandas")

    edges = edges_ds.map_batches(to_ab,
                                 batch_format="pyarrow").materialize()
    if edges.count() <= SMALL_GRAPH_EDGES:
        # SMALL-GRAPH FAST PATH: below ~10 MB of edges the contraction
        # pipeline's 2·levels exchange latencies dominate; one exact
        # single-task union-find (the same final-level primitive) does
        # the whole job in ONE task. Entity-scale graphs (alias
        # maps, per-corpus co-occurrence) all take this path; the
        # contraction path engages for web-scale edge lists.
        return _in_one_task(edges, local_uf, "pandas").map_batches(
            lambda t: t.rename_columns(["node", "component"]),
            batch_format="pyarrow")

    star_maps = []
    for lvl in range(max(1, levels) - 1):
        raw_stars = hash_exchange(edges, "a", local_uf,
                                  batch_format="pandas")
        stars, edges = contract(raw_stars)  # stars: one row per node
        star_maps.append(stars)
    # exact: all surviving edges in one task
    labels = _in_one_task(edges, local_uf, "pandas")
    for stars in reversed(star_maps):
        labels = relabel(stars, labels)
    # star maps are node-unique (deduped inside contract), so relabel
    # output is already one row per node — rename and done
    return labels.map_batches(
        lambda t: t.rename_columns(["node", "component"]),
        batch_format="pyarrow")


PAIR_SCHEMA = pa.schema([
    ("v", pa.string()), ("w", pa.string()), ("n_common", pa.int64()),
    ("ra", pa.int64()), ("is_edge", pa.int64()), ("deg_v", pa.int64()),
    ("deg_w", pa.int64())])
_PAIR_SUMS = [("n_common", "sum"), ("ra", "sum"), ("is_edge", "max"),
              ("deg_v", "sum"), ("deg_w", "sum")]


def _pair_table(edges_ds, a_col: str, b_col: str, weight_scale: int = 0):
    """The NEIGHBOUR-PAIR TABLE behind the five wedge algorithms
    (`triangle_count`, `neighborhood_jaccard`, `two_hop_scores`,
    `resource_alloc_scores`, `clustering_coefficients`): one row per
    unordered node pair v < w that is an edge or shares a neighbour,

      n_common = |N(v) ∩ N(w)|
      ra       = Σ_{z ∈ N(v) ∩ N(w)} weight_scale // deg(z)
      is_edge  = 1 if (v, w) is an edge, else 0
      deg_v, deg_w = the endpoint degrees on edge rows (0 elsewhere)

    (``PAIR_SCHEMA``). Input rows are ORIENTED pairs a < b, e.g. the
    co-occurrence edges: duplicates collapse here, but a pair given in
    both orientations would count twice. Every caller feeds oriented
    pairs, and the consumers' identities (Σ_edges n_common = 3 ·
    triangles, n_tri(x) = ½ Σ_{x's edges} n_common) hold for them.

    Shape: two ``hash_exchange`` passes. (1) The undirected adjacency
    routes on the hub, so each hub's whole neighbour list co-locates: the hub
    dedups it, emits every neighbour pair as a wedge (``triu_indices``
    once per distinct degree, vectorized over the hubs of that degree)
    plus one edge row per neighbour carrying its own degree, and sums
    the rows per pair inside the partition. (2) An exchange on the
    pair's first node ``v`` (it decides the pair's group) folds the
    partials with one Arrow group_by.

    SKEW NOTE: a hub of degree d emits d(d−1)/2 wedges, so Σ d² over
    hubs bounds the traffic and one hot entity inflates one partition.
    For corpora with power-law hubs, split hot neighbour lists (salt
    the emit per neighbour-chunk pair) or cap / degree-sample hubs
    before this stage; on the test corpora the co-occurrence degree is
    bounded by mentions-per-page fan-in and needs neither (sf0.1: 331
    edges, max degree 11, 2,814 wedges)."""
    def undirect(t: pa.Table) -> pa.Table:
        a = pc.cast(t[a_col], pa.string()).combine_chunks()
        b = pc.cast(t[b_col], pa.string()).combine_chunks()
        return pa.table({"u": pa.concat_arrays([a, b]),
                         "x": pa.concat_arrays([b, a])})

    def hub_pass(t: pa.Table) -> pa.Table:
        t = (t.group_by(["u", "x"]).aggregate([])
             .sort_by([("u", "ascending"), ("x", "ascending")]))
        n = t.num_rows
        u, x = t["u"].combine_chunks(), t["x"].combine_chunks()
        hub = pc.dictionary_encode(u).indices
        starts = np.flatnonzero(np.diff(hub.to_numpy(), prepend=-1))
        deg = np.diff(np.append(starts, n))
        idx = [(np.zeros(0, np.int64),) * 3]
        for d in np.unique(deg[deg > 1]):
            i, j = np.triu_indices(d, k=1)
            s = starts[deg == d][:, None]
            idx.append(((s + i).ravel(), (s + j).ravel(),
                        np.full(s.size * i.size, weight_scale // d,
                                np.int64)))
        vi, wi, rw = (np.concatenate(c) for c in zip(*idx))
        zw = pa.array(np.zeros(len(vi), np.int64))
        wedges = pa.table([x.take(pa.array(vi)), x.take(pa.array(wi)),
                           pa.array(np.ones(len(vi), np.int64)),
                           pa.array(rw), zw, zw, zw], schema=PAIR_SCHEMA)
        low = pc.less(u, x)
        hub_deg = pa.array(np.repeat(deg, deg))
        ze = pa.array(np.zeros(n, np.int64))
        edges = pa.table([
            pc.if_else(low, u, x), pc.if_else(low, x, u), ze, ze,
            pa.array(np.ones(n, np.int64)),
            pc.if_else(low, hub_deg, ze), pc.if_else(low, ze, hub_deg)],
            schema=PAIR_SCHEMA)
        return _fold_pairs(pa.concat_tables([wedges, edges]))

    hubs = hash_exchange(edges_ds.map_batches(undirect,
                                              batch_format="pyarrow"),
                         "u", hub_pass, batch_format="pyarrow")
    return hash_exchange(hubs, "v", _fold_pairs, batch_format="pyarrow")


def _fold_pairs(t: pa.Table) -> pa.Table:
    g = t.group_by(["v", "w"]).aggregate(_PAIR_SUMS)
    return g.select(["v", "w"] + [f"{c}_{f}" for c, f in _PAIR_SUMS]
                    ).rename_columns(PAIR_SCHEMA.names).cast(PAIR_SCHEMA)


def _edge_rows(t: pa.Table) -> pa.Table:
    return t.filter(pc.equal(t["is_edge"], 1))


def _open_rows(t: pa.Table) -> pa.Table:
    return t.filter(pc.equal(t["is_edge"], 0))


def triangle_count(edges_ds, a_col: str = "norm_a", b_col: str = "norm_b"):
    """Global TRIANGLE COUNT over an oriented (a < b) undirected edge
    set — the standard graph-quality / community-density metric over the
    entity co-occurrence graph. Each triangle closes three edges, each
    of which counts its third corner as a common neighbour, so the count
    is Σ_edges n_common // 3 over `_pair_table`, summed by one scalar
    aggregate. Returns a 1-row pandas frame ``(n_triangles)``."""
    import pandas as pd

    pairs = _pair_table(edges_ds, a_col, b_col)
    total = pairs.map_batches(
        lambda t: pa.table({"n": [pc.sum(_edge_rows(t)["n_common"])
                                  .as_py() or 0]}),
        batch_format="pyarrow").sum("n") or 0
    return pd.DataFrame({"n_triangles":
                         pd.array([total // 3], dtype="int64")})


def neighborhood_jaccard(edges_ds, a_col: str = "norm_a",
                         b_col: str = "norm_b"):
    """LINK-PREDICTION neighborhood overlap: for every existing edge
    (a, b), the number of common neighbors and the Jaccard similarity of
    the two endpoints' neighbor sets — the classic structural-relatedness
    score layered on the co-occurrence graph.

    All-integer contract: ``jaccard_micro = (1_000_000 · cn) // (deg(a)
    + deg(b) - cn)`` (common neighbors never include a or b themselves;
    the denominator is |N(a) ∪ N(b)| with both endpoints counted, as in
    the standard formulation over adjacency sets).

    Shape: the edge rows of `_pair_table`, which already carry both
    endpoint degrees (zero common neighbours included) — no exchange
    beyond the kernel's two."""
    def finish(t: pa.Table) -> pa.Table:
        t = _edge_rows(t)
        cn = t["n_common"].to_numpy()
        denom = t["deg_v"].to_numpy() + t["deg_w"].to_numpy() - cn
        jm = np.where(denom > 0, (1_000_000 * cn) // np.maximum(denom, 1),
                      0).astype(np.int64)
        return pa.table({"norm_a": t["v"], "norm_b": t["w"],
                         "common_neighbors": t["n_common"],
                         "jaccard_micro": pa.array(jm)})

    return _pair_table(edges_ds, a_col, b_col).map_batches(
        finish, batch_format="pyarrow")


def pagerank_weighted(edges_ds, a_col: str = "norm_a",
                      b_col: str = "norm_b", weight_col: str = "n_pages",
                      iters: int = 5, damping_pct: int = 85,
                      rank_scale: int = 1_000_000):
    """EDGE-WEIGHTED integer PageRank over an UNDIRECTED weighted edge
    Dataset (e.g. the co-occurrence graph, weight = co-mention count) —
    the relatedness-ranking variant: a neighbor reached through many
    shared pages receives proportionally more rank mass.

    Per iteration: ``r'(v) = base + (d · Σ_{u→v} (r(u)·w(u,v)) // W(u))
    // 100`` with ``W(u) = Σ_x w(u,x)`` — per-edge floor division, so
    the distributed sum replays bit-exactly in the unrolled SQL oracle.

    Shape: the out-weight W attaches to the undirected edges once (one
    source ``hash_exchange`` of a tag union); every round is one
    `_rank_sums` broadcast round with num = w, den = W."""
    import ray.data as rd

    def undirect(t: pa.Table) -> pa.Table:
        a = pc.cast(t[a_col], pa.string())
        b = pc.cast(t[b_col], pa.string())
        w = pc.cast(t[weight_col], pa.int64())
        return pa.table({
            "src": pa.concat_arrays([a.combine_chunks(),
                                     b.combine_chunks()]),
            "dst": pa.concat_arrays([b.combine_chunks(),
                                     a.combine_chunks()]),
            "w": pa.concat_arrays([w.combine_chunks(),
                                   w.combine_chunks()])})

    und = (edges_ds.map_batches(undirect, batch_format="pyarrow")
           .materialize())

    # out-weight partials per src (W set, dst/w null), tag-unioned with
    # the edges (W null) on src
    def wdeg_partial(t: pa.Table) -> pa.Table:
        g = (pa.table({"src": t["src"], "W": t["w"]})
             .group_by("src").aggregate([("W", "sum")]))
        return pa.table({"src": g["src"],
                         "dst": pa.nulls(g.num_rows, pa.string()),
                         "w": pa.nulls(g.num_rows, pa.int64()),
                         "W": g["W_sum"]})

    def tag_edges(t: pa.Table) -> pa.Table:
        return t.append_column("W", pa.nulls(t.num_rows, pa.int64()))

    def wdeg_final(t: pa.Table) -> pa.Table:
        mask = pc.is_valid(t["W"])
        lut = t.filter(mask)
        # sum the per-batch partials per src, then attach
        lsum = (pa.table({"src": lut["src"], "W": lut["W"]})
                .group_by("src").aggregate([("W", "sum")])
                .rename_columns(["src", "W"]))
        rows = t.filter(pc.invert(mask))
        idx = pc.index_in(rows["src"], value_set=lsum["src"].combine_chunks())
        return pa.table({"subj": rows["src"], "obj": rows["dst"],
                         "num": rows["w"],
                         "den": pc.take(lsum["W"].combine_chunks(), idx)})

    e3 = hash_exchange(
        [und.map_batches(tag_edges, batch_format="pyarrow"),
         und.map_batches(wdeg_partial, batch_format="pyarrow")],
        "src", wdeg_final, batch_format="pyarrow").materialize()

    nodes = _distinct(und.map_batches(lambda t: pa.table({"node": t["src"]}),
                                      batch_format="pyarrow"),
                      ["node"]).materialize()
    r = _pagerank_rounds(e3, nodes, iters, damping_pct, rank_scale)
    return rd.from_arrow(r.rename_columns(["node", "rank_micro"]))


def kcore_nodes(edges_ds, k: int = 3, a_col: str = "norm_a",
                b_col: str = "norm_b", max_rounds: int = 20):
    """k-CORE decomposition by BOUNDED SIMULTANEOUS PEEL: nodes of the
    maximal subgraph where every node keeps degree ≥ k, computed as
    ``max_rounds`` Jacobi peel iterations (each round computes ALL
    degrees, then drops every node below k at once). Input must be
    distinct undirected pairs (a < b), e.g. the co-occurrence edges.

    The SQL oracle runs the IDENTICAL bounded peel (a recursive CTE
    carrying a round counter), so engine and oracle agree even on a
    pathological graph that has not converged at the bound; real
    graphs converge in a handful of rounds and both sides early-stay
    at the fixpoint.

    Distributed shape per round: per-batch degree combiner over both
    endpoint columns → ONE node ``hash_exchange`` → the DROPPED node set
    (bounded by that round's drops) broadcasts back to filter edges.
    Graphs at or below ``SMALL_GRAPH_EDGES`` short-circuit to one
    exact single-task peel — the same small-graph rule as
    ``connected_components``."""
    import pandas as pd

    def to_ab(t: pa.Table) -> pa.Table:
        return pa.table({"a": pc.cast(t[a_col], pa.string()),
                         "b": pc.cast(t[b_col], pa.string())})

    def peel_local(df: pd.DataFrame) -> pa.Table:
        df = df[["a", "b"]]
        for _ in range(max_rounds):
            if not len(df):
                break
            deg = pd.concat([df["a"], df["b"]],
                            ignore_index=True).value_counts()
            bad = deg[deg < k].index
            if not len(bad):
                break
            bad = set(bad)
            keep = ~(df["a"].isin(bad) | df["b"].isin(bad))
            df = df[keep]
        nodes = pd.unique(pd.concat([df["a"], df["b"]],
                                    ignore_index=True))
        # explicit Arrow schema so an EMPTY k-core still carries the
        # 'node' column (empty pandas blocks lose their schema)
        return pa.table({"node": pa.array(
            np.sort(nodes.astype(object)), pa.string())})

    edges = edges_ds.map_batches(to_ab,
                                 batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({"node": pa.array([], pa.string())}))
    if n_edges <= SMALL_GRAPH_EDGES:
        return _in_one_task(edges, peel_local, "pandas")

    # distributed bounded peel
    def deg_partial(t: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays([t["a"].combine_chunks(),
                                  t["b"].combine_chunks()])
        return (pa.table({"node": nodes,
                          "deg": pa.array(np.ones(len(nodes), np.int64))})
                .group_by("node").aggregate([("deg", "sum")])
                .rename_columns(["node", "deg"]))

    def dropped_nodes(t: pa.Table) -> pa.Table:
        g = t.group_by("node").aggregate([("deg", "sum")])
        return g.filter(pc.less(g["deg_sum"], k)).select(["node"])

    for _ in range(max_rounds):
        dropped_ds = hash_exchange(
            edges.map_batches(deg_partial, batch_format="pyarrow"), "node",
            dropped_nodes, batch_format="pyarrow")
        dropped = _collect_table(
            dropped_ds, pa.schema([("node", pa.string())]))["node"]
        if not len(dropped):
            break
        dref = ray.put(dropped.combine_chunks())

        def drop_edges(t: pa.Table) -> pa.Table:
            bad = ray.get(dref)
            keep = pc.and_(
                pc.is_null(pc.index_in(t["a"], value_set=bad)),
                pc.is_null(pc.index_in(t["b"], value_set=bad)))
            return t.filter(keep)

        edges = edges.map_batches(drop_edges,
                                  batch_format="pyarrow").materialize()

    return _node_set(edges, "a", "b")


def two_hop_scores(edges_ds, a_col: str = "norm_a", b_col: str = "norm_b"):
    """LINK-PREDICTION candidate generation: every NON-adjacent node
    pair with ≥1 common neighbor, scored by common-neighbor count over
    the undirected graph — the 2-hop complement of
    ``neighborhood_jaccard`` (which scores EXISTING edges): the non-edge
    rows of `_pair_table`. Returns (norm_a, norm_b, n_common) with
    norm_a < norm_b."""
    def finish(t: pa.Table) -> pa.Table:
        t = _open_rows(t)
        return pa.table({"norm_a": t["v"], "norm_b": t["w"],
                         "n_common": t["n_common"]})

    return _pair_table(edges_ds, a_col, b_col).map_batches(
        finish, batch_format="pyarrow")


def _tarjan_scc(df) -> "pd.DataFrame":
    """Exact SCC labels for a small edge list (iterative Tarjan);
    scc_id = the minimum node id of each component (the same
    convention the distributed FB path and the SQL oracle use)."""
    import pandas as pd

    adj: dict = {}
    nodes: set = set()
    for a, b in zip(df["a"].to_numpy(), df["b"].to_numpy()):
        adj.setdefault(a, []).append(b)
        nodes.add(a)
        nodes.add(b)
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    comp: dict = {}
    counter = 0
    for root in nodes:
        if root in index:
            continue
        # iterative DFS: work stack of (node, child iterator position)
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            children = adj.get(v, ())
            for i in range(pi, len(children)):
                w = children[i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    members.append(w)
                    if w == v:
                        break
                cid = min(members)
                for w in members:
                    comp[w] = cid
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    keys = sorted(comp)
    return pd.DataFrame({"node": keys, "scc_id": [comp[k] for k in keys]})


def _directed_fixpoint(edges, labels0, reduce: str = "min",
                       backward: bool = False, local_rounds: int = 64):
    """Run a directed message-passing fixpoint: each exchange sends
    every node's value along the (a, b) ``edges`` (b → a when
    ``backward``) and folds incoming values into the current one with
    ``reduce`` (min or max — MONOTONE folds only).

    Inside each send partition the propagation runs a LOCAL multi-hop
    fixpoint over that partition's edges first (monotonicity makes
    transitively-derived values safe — they are folded with the true
    current value at the receiver), so the number of distributed
    exchanges is the cross-partition hop count of the longest
    propagation path, not the graph diameter. Convergence is detected
    with one sum over the labels-sized Dataset per exchange. Returns
    the converged (node, val) Dataset."""
    import pandas as pd

    m, n = ("b", "a") if backward else ("a", "b")
    adj = edges.map_batches(
        lambda t: pa.table({"m": t[m], "n": t[n],
                            "val": pa.nulls(t.num_rows, pa.string())}),
        batch_format="pyarrow").materialize()

    def tag_label_for_send(t: pa.Table) -> pa.Table:
        return pa.table({
            "m": t["node"], "n": pa.nulls(t.num_rows, pa.string()),
            "val": t["val"]})

    def send(df: pd.DataFrame) -> pd.DataFrame:
        lbl = df.loc[df["val"].notna(), ["m", "val"]].drop_duplicates("m")
        vals = dict(zip(lbl["m"], lbl["val"]))
        adjr = df.loc[df["val"].isna(), ["m", "n"]]
        # local multi-hop: propagate through THIS partition's edges to
        # a local fixpoint before emitting (safe: fold is monotone)
        for _ in range(local_rounds):
            mv = adjr["m"].map(vals)
            cand = pd.DataFrame({"n": adjr["n"], "v": mv}).dropna()
            if not len(cand):
                break
            agg = cand.groupby("n")["v"]
            new = agg.min() if reduce == "min" else agg.max()
            improved = False
            for k, v in new.items():
                c = vals.get(k)
                if c is None or (v < c if reduce == "min" else v > c):
                    vals[k] = v
                    improved = True
            if not improved:
                break
        mv = adjr["m"].map(vals)
        out = pd.DataFrame({"n": adjr["n"], "val": mv}).dropna()
        agg = out.groupby("n", as_index=False)["val"]
        return agg.min() if reduce == "min" else agg.max()

    def tag_msg(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["n"], "val": t["val"],
            "is_cur": pa.array(np.zeros(t.num_rows, np.int8))})

    def tag_cur(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"], "val": t["val"],
            "is_cur": pa.array(np.ones(t.num_rows, np.int8))})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        cur = df[df["is_cur"] == 1].set_index("node")["val"]
        agg = df.groupby("node")["val"]
        new = agg.min() if reduce == "min" else agg.max()
        chg = (new != cur.reindex(new.index)).astype("int64")
        return pd.DataFrame({"node": new.index.to_numpy(),
                             "val": new.to_numpy(),
                             "chg": chg.to_numpy()})

    labels = labels0.materialize()
    while True:
        msgs = hash_exchange(
            [labels.map_batches(tag_label_for_send, batch_format="pyarrow"),
             adj], "m", send, batch_format="pandas")
        labels = hash_exchange(
            [msgs.map_batches(tag_msg, batch_format="pyarrow"),
             labels.map_batches(tag_cur, batch_format="pyarrow")],
            "node", merge, batch_format="pandas").materialize()
        if (labels.sum("chg") or 0) == 0:
            return labels.map_batches(
                lambda t: t.select(["node", "val"]),
                batch_format="pyarrow")


def _attach_val(edges, vals, key_col: str, out_col: str):
    """Attach ``vals`` (node, val) onto ``edges`` rows by
    ``edges[key_col]`` — the broadcast-free merge: both sides meet in
    one ``hash_exchange`` on the key, vectorized map inside."""
    import pandas as pd

    schema = edges.schema()
    edge_cols = list(schema.names)
    base = getattr(schema, "base_schema", None)
    arrow_base = base if isinstance(base, pa.Schema) else None
    edge_types = {c: (arrow_base.field(c).type if arrow_base is not None
                      else None)
                  for c in edge_cols}

    def tag_edge(t: pa.Table) -> pa.Table:
        t = t.select(edge_cols)
        return t.append_column("__v", pa.nulls(t.num_rows, pa.string()))

    def tag_val(t: pa.Table) -> pa.Table:
        # null filler columns must carry the EDGE side's types, or the
        # union's schema unification fails on non-string edge columns
        cols = {c: pa.nulls(t.num_rows, edge_types.get(c)
                            or pa.string()) for c in edge_cols}
        cols[key_col] = t["node"]
        cols["__v"] = t["val"]
        return pa.table(cols)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        vmap = (df.loc[df["__v"].notna(), [key_col, "__v"]]
                .drop_duplicates(key_col).set_index(key_col)["__v"])
        rows = df[df["__v"].isna()][edge_cols].copy()
        rows[out_col] = rows[key_col].map(vmap).to_numpy()
        return rows

    return hash_exchange(
        [edges.map_batches(tag_edge, batch_format="pyarrow"),
         vals.map_batches(tag_val, batch_format="pyarrow")],
        key_col, merge, batch_format="pandas")


def scc_labels(edges_ds, a_col: str = "subj", b_col: str = "obj",
               max_rounds: int = 30):
    """STRONGLY CONNECTED COMPONENTS of a directed edge Dataset, by
    forward-backward coloring (Orzan-style FB decomposition, the
    standard Pregel-model SCC): per round (1) a TRIM fixpoint peels
    nodes with no in-edges or no out-edges (they sit on no cycle →
    singleton SCCs; web graphs are mostly DAG tail, so this removes
    the bulk without label propagation), (2) forward min-label
    fixpoint gives every surviving node the min id among its
    ancestors-and-self (its *color*; SCCs never span colors), (3) a
    backward mark fixpoint inside each color finds the nodes that
    reach their color root — exactly the root's SCC — which are
    emitted and removed, with cross-color edges dropped. Each round
    removes at least one SCC per color class, so rounds ≤ #SCC-levels;
    exchanges per fixpoint are bounded by the cross-partition hop
    count (see ``_directed_fixpoint``'s local acceleration).

    Above the Tarjan cutoff a PER-PARTITION TARJAN CONDENSATION runs
    first (the directed mirror of ``connected_components``' local-UF
    contraction): any cycle living inside one a-hash edge partition is
    already part of a global SCC, and same-SCC is an equivalence
    relation, so the per-partition (node → local scc root) star maps
    glue across partitions with one UNDIRECTED components closure
    (``connected_components`` over the star pairs — boundary-scale,
    not edge-scale). Local SCCs collapse to min-id supernodes and
    self-loops drop BEFORE any FB-Trim round, so the live fixpoints
    run on the condensation skeleton — diameter-independent local
    discovery, exactly the trick that made CC contraction fast
    (round-4 kg_scc stress: 281 s for 1M edges of 4-cycles; the
    condensation removes every such local cycle up front).

    scc_id = min node id of the component (Tarjan short-circuit at or
    below ``SMALL_GRAPH_EDGES`` edges and the SQL closure oracle use
    the same convention). Returns (node, scc_id) covering every node
    incident to an edge; isolated original nodes are their own
    singleton SCCs by construction."""
    import ray.data as rd
    import pandas as pd

    def to_ab(t: pa.Table) -> pa.Table:
        return pa.table({"a": pc.cast(t[a_col], pa.string()),
                         "b": pc.cast(t[b_col], pa.string())})

    edges = _distinct(edges_ds.map_batches(to_ab, batch_format="pyarrow"),
                      ["a", "b"]).materialize()
    nodes0 = _node_set(edges, "a", "b").materialize()

    import os
    dbg = os.environ.get("GRAFT_SCC_DEBUG")

    member_map = None  # (node, rep) for condensed-away members
    if edges.count() > SMALL_GRAPH_EDGES:
        # per-partition Tarjan condensation (see docstring). RANGE
        # partitioning, not hash: a hash of `a` scatters every cycle's
        # edges across partitions (a k-cycle lands whole with
        # probability P^-(k-1) — local Tarjan would find nothing), but
        # sorted source order co-locates them whenever ids share
        # locality — same-prefix synthetic ids, same-host urls, and
        # real web-graph links are overwhelmingly intra-host. Cycles
        # straddling a range boundary are simply not condensed and
        # fall through to the FB rounds (boundary scale, not
        # edge scale).
        def local_scc(df: pd.DataFrame) -> pa.Table:
            comp = _tarjan_scc(df)
            nz = comp[comp["node"] != comp["scc_id"]]
            return pa.table({
                "node": pa.array(nz["node"].to_numpy(dtype=object),
                                 pa.string()),
                "root": pa.array(nz["scc_id"].to_numpy(dtype=object),
                                 pa.string())})

        pairs = (edges.sort("a")
                 .map_batches(local_scc, batch_format="pandas",
                              batch_size=None)
                 .materialize())
        if pairs.count() > 0:
            # same-SCC is transitive: glue the per-partition star maps
            # with an undirected components closure (min-id labels)
            reps = connected_components(
                pairs, a_col="node", b_col="root").materialize()
            member_map = reps.map_batches(
                lambda t: pa.table({
                    "node": t.filter(pc.not_equal(
                        t["node"], t["component"]))["node"],
                    "rep": t.filter(pc.not_equal(
                        t["node"], t["component"]))["component"]}),
                batch_format="pyarrow").materialize()
            rep_vals = reps.map_batches(
                lambda t: pa.table({"node": t["node"],
                                    "val": t["component"]}),
                batch_format="pyarrow")
            e2 = _attach_val(edges, rep_vals, "a", "ra")
            e2 = _attach_val(e2, rep_vals, "b", "rb")

            def contract(t: pa.Table) -> pa.Table:
                # rep map is SPARSE: a partition where no edge endpoint
                # sits in a local SCC yields an all-null (null-typed)
                # attach column — cast before coalesce (no
                # (null, string) kernel)
                a = pc.coalesce(pc.cast(t["ra"], pa.string()), t["a"])
                b = pc.coalesce(pc.cast(t["rb"], pa.string()), t["b"])
                out_t = pa.table({"a": a, "b": b})
                return out_t.filter(pc.not_equal(out_t["a"],
                                                 out_t["b"]))

            edges = _distinct(
                e2.map_batches(contract, batch_format="pyarrow"),
                ["a", "b"]).materialize()
            if dbg:
                import sys
                print(f"[scc] condensed to {edges.count()} edges",
                      file=sys.stderr, flush=True)

    empty = pa.table({"node": pa.array([], pa.string()),
                      "scc_id": pa.array([], pa.string())})
    out = rd.from_arrow(empty)

    def end_partial(t: pa.Table) -> pa.Table:
        ns = pa.concat_arrays([t["a"].combine_chunks(),
                               t["b"].combine_chunks()])
        n_a = t.num_rows
        ho = np.zeros(len(ns), np.int8)
        ho[:n_a] = 1
        hi = np.zeros(len(ns), np.int8)
        hi[n_a:] = 1
        return (pa.table({"node": ns, "ho": pa.array(ho),
                          "hi": pa.array(hi)})
                .group_by("node").aggregate([("ho", "max"), ("hi", "max")])
                .rename_columns(["node", "ho", "hi"]))

    def end_final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False)[["ho", "hi"]].max()
        return pd.DataFrame({
            "node": g["node"].to_numpy(),
            "val": np.where((g["ho"] > 0) & (g["hi"] > 0),
                            "1", "0")})

    for rnd in range(max_rounds):
        n_edges = edges.count()
        if dbg:
            import sys
            print(f"[scc] round {rnd}: {n_edges} edges",
                  file=sys.stderr, flush=True)
        if n_edges == 0:
            break
        if n_edges <= SMALL_GRAPH_EDGES:
            out = out.union(_in_one_task(edges, _tarjan_scc, "pandas"))
            break

        # (1) TRIM: peel no-in/no-out nodes (singleton SCCs) to a
        # fixpoint — alive flags attached per endpoint, no broadcast
        trimmed = False
        for _t in range(max_rounds):
            flags = hash_exchange(
                edges.map_batches(end_partial, batch_format="pyarrow"),
                "node", end_final, batch_format="pandas").materialize()
            dead = flags.map_batches(
                lambda t: pa.table({
                    "node": t.filter(pc.equal(t["val"], "0"))["node"],
                    "scc_id": t.filter(pc.equal(t["val"], "0"))["node"]}),
                batch_format="pyarrow").materialize()
            n_dead = dead.count()
            if dbg:
                import sys
                print(f"[scc]  trim {_t}: {n_dead} dead",
                      file=sys.stderr, flush=True)
            if n_dead == 0:
                break
            trimmed = True
            out = out.union(dead)
            ef = _attach_val(edges, flags, "a", "fa")
            ef = _attach_val(ef, flags, "b", "fb")
            edges = ef.map_batches(
                lambda t: t.filter(pc.and_(pc.equal(t["fa"], "1"),
                                           pc.equal(t["fb"], "1")))
                           .select(["a", "b"]),
                batch_format="pyarrow").materialize()
            if edges.count() == 0:
                break
        if trimmed:
            continue  # recount: the remainder may now short-circuit

        # (2) forward colors: min over ancestors-and-self
        init = _node_set(edges, "a", "b").map_batches(
            lambda t: pa.table({"node": t["node"], "val": t["node"]}),
            batch_format="pyarrow")
        colors = _directed_fixpoint(edges, init, reduce="min")
        if dbg:
            import sys
            print("[scc]  colors done", file=sys.stderr, flush=True)

        # (3) same-color edges; backward mark from the color roots
        ec = _attach_val(edges, colors, "a", "ca")
        ec = _attach_val(ec, colors, "b", "cb")
        ecc = ec.map_batches(
            lambda t: t.filter(pc.equal(t["ca"], t["cb"])),
            batch_format="pyarrow").materialize()
        if dbg:
            import sys
            print(f"[scc]  ecc done: {ecc.count()} edges",
                  file=sys.stderr, flush=True)

        mark0 = colors.map_batches(
            lambda t: pa.table({
                "node": t["node"],
                "val": pc.if_else(pc.equal(t["node"], t["val"]),
                                  pa.array(["1"] * t.num_rows),
                                  pa.array(["0"] * t.num_rows))}),
            batch_format="pyarrow")
        marks = _directed_fixpoint(ecc, mark0, reduce="max", backward=True)
        if dbg:
            import sys
            print("[scc]  marks done", file=sys.stderr, flush=True)

        # (4) emit the marked SCCs; keep only unmarked same-color edges
        with_mark = _attach_val(
            colors.map_batches(
                lambda t: pa.table({"node": t["node"], "color": t["val"]}),
                batch_format="pyarrow"),
            marks, "node", "mk")
        emitted = with_mark.map_batches(
            lambda t: pa.table({
                "node": t.filter(pc.equal(t["mk"], "1"))["node"],
                "scc_id": t.filter(pc.equal(t["mk"], "1"))["color"]}),
            batch_format="pyarrow")
        out = out.union(emitted)

        em = _attach_val(ecc.map_batches(
            lambda t: t.select(["a", "b"]), batch_format="pyarrow"),
            marks, "a", "ma")
        em = _attach_val(em, marks, "b", "mb")
        edges = em.map_batches(
            lambda t: t.filter(pc.and_(pc.equal(t["ma"], "0"),
                                       pc.equal(t["mb"], "0")))
                       .select(["a", "b"]),
            batch_format="pyarrow").materialize()

    # expand condensation: each condensed-away member takes its
    # supernode rep's label; a rep the loop never labeled (its whole
    # component was one local SCC with no external edges) defaults to
    # the rep itself — `singles` below then labels the rep identically
    if member_map is not None and member_map.count() > 0:
        # Arrow-native tag-union attach (not the pandas _attach_val:
        # its empty-partition merges emit schema-less pandas blocks
        # that poison the downstream exchange — the modularity_profile
        # lesson). Key = rep; fallback label = the rep itself.
        def tag_mm(t: pa.Table) -> pa.Table:
            return pa.table({
                "k": t["rep"], "node": t["node"],
                "lab": pa.nulls(t.num_rows, pa.string())})

        def tag_lab(t: pa.Table) -> pa.Table:
            return pa.table({
                "k": t["node"], "node": pa.nulls(t.num_rows, pa.string()),
                "lab": t["scc_id"]})

        def expand(t: pa.Table) -> pa.Table:
            lab_mask = pc.is_valid(t["lab"])
            lut = t.filter(lab_mask)
            rows = t.filter(pc.invert(lab_mask))
            idx = pc.index_in(rows["k"], value_set=lut["k"]
                              .combine_chunks())
            got = pc.take(lut["lab"].combine_chunks(), idx)
            return pa.table({"node": rows["node"],
                             "scc_id": pc.coalesce(got, rows["k"])})

        member_out = hash_exchange(
            [member_map.map_batches(tag_mm, batch_format="pyarrow"),
             out.map_batches(tag_lab, batch_format="pyarrow")],
            "k", expand, batch_format="pyarrow")
        out = out.union(member_out)

    # singletons: original nodes never emitted (their edges were
    # cross-color or their component was a single node)
    out = out.materialize()

    def singles(df: pd.DataFrame) -> pa.Table:
        got = df[df["scc_id"].notna()]
        missing = df.loc[~df["node"].isin(set(got["node"])), "node"]
        # typed Arrow output: no empty object-dtype pandas blocks
        uniq = pa.array(pd.unique(missing).astype(object), pa.string())
        return pa.table({"node": uniq, "scc_id": uniq})

    node_side = nodes0.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "scc_id": pa.nulls(t.num_rows, pa.string())}),
        batch_format="pyarrow")
    singles_ds = hash_exchange([out, node_side], "node", singles,
                               batch_format="pandas")

    def to_out(t: pa.Table) -> pa.Table:
        # normalize EVERY block to typed Arrow: the union mixes arrow
        # blocks with pandas finisher blocks (including schema-less
        # empties), and a downstream sort/groupby asserts on mixed
        # block types (Ray 2.49 delegating_block_builder)
        if t.num_rows == 0 or "node" not in t.schema.names:
            return pa.table({"node": pa.array([], pa.string()),
                             "scc_id": pa.array([], pa.string())})
        return pa.table({"node": pc.cast(t["node"], pa.string()),
                         "scc_id": pc.cast(t["scc_id"], pa.string())})

    return out.union(singles_ds).map_batches(to_out,
                                             batch_format="pyarrow")


def bowtie_regions(edges_ds, a_col: str = "subj", b_col: str = "obj"):
    """BOW-TIE DECOMPOSITION of a directed graph (Broder et al. 2000,
    the canonical web-graph macro-structure): CORE = the largest SCC
    (ties → min scc_id), IN = nodes that reach the core but are not in
    it, OUT = nodes the core reaches, OTHER = tendrils/disconnected.

    Shape: ``scc_labels`` → single-row top-1 component pick (per-block
    partial top-1, bounded driver data) → TWO monotone reachability
    fixpoints over the full edge set (backward for IN, forward for
    OUT, seeds = core members) → one attach pass per flag. Returns
    (node, region)."""
    import pandas as pd

    def to_ab(t: pa.Table) -> pa.Table:
        return pa.table({"a": pc.cast(t[a_col], pa.string()),
                         "b": pc.cast(t[b_col], pa.string())})

    edges = _distinct(edges_ds.map_batches(to_ab, batch_format="pyarrow"),
                      ["a", "b"]).materialize()

    if edges.count() <= SMALL_GRAPH_EDGES:
        # single exact task: Tarjan + BFS both ways from the core
        def local(df: pd.DataFrame) -> pd.DataFrame:
            comp = _tarjan_scc(df)
            sizes = comp.groupby("scc_id").size()
            core = sizes.sort_index().sort_values(
                kind="stable", ascending=False).index[0]
            members = dict(zip(comp["node"], comp["scc_id"]))
            fwd: dict = {}
            bwd: dict = {}
            for a, b in zip(df["a"], df["b"]):
                fwd.setdefault(a, []).append(b)
                bwd.setdefault(b, []).append(a)
            seeds = [n for n, c in members.items() if c == core]

            def reach(adj):
                seen = set(seeds)
                stack = list(seeds)
                while stack:
                    for w in adj.get(stack.pop(), ()):
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                return seen

            des, anc = reach(fwd), reach(bwd)
            region = [
                "CORE" if members[n] == core
                else "IN" if n in anc
                else "OUT" if n in des
                else "OTHER"
                for n in comp["node"]]
            return pd.DataFrame({"node": comp["node"],
                                 "region": region})

        return _in_one_task(edges, local, "pandas")

    sccs = scc_labels(edges, a_col="a", b_col="b").materialize()

    # core = largest SCC, ties -> min scc_id; per-block partial top-1
    # keeps driver data bounded
    from ray.data.aggregate import Count

    counts = sccs.groupby("scc_id").aggregate(Count())
    counts = counts.map_batches(
        lambda t: t.rename_columns(["scc_id", "c"]),
        batch_format="pyarrow")

    def top1(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return (df.sort_values(["c", "scc_id"],
                               ascending=[False, True]).head(1))

    head = (counts.map_batches(top1, batch_format="pandas")
            .repartition(1)
            .map_batches(top1, batch_format="pandas")).take(1)
    core_id = head[0]["scc_id"]

    def seed_marks(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"],
            "val": pc.if_else(pc.equal(t["scc_id"], core_id),
                              pa.array(["1"] * t.num_rows),
                              pa.array(["0"] * t.num_rows))})

    seeds = sccs.map_batches(seed_marks, batch_format="pyarrow")
    reaches_core = _directed_fixpoint(edges, seeds, reduce="max",
                                      backward=True)
    core_reaches = _directed_fixpoint(edges, seeds, reduce="max")

    tagged = _attach_val(sccs, reaches_core, "node", "ra")
    tagged = _attach_val(tagged, core_reaches, "node", "rd")

    def classify(t: pa.Table) -> pa.Table:
        is_core = pc.equal(t["scc_id"], core_id)
        region = pc.if_else(
            is_core, "CORE",
            pc.if_else(pc.equal(t["ra"], "1"), "IN",
                       pc.if_else(pc.equal(t["rd"], "1"), "OUT",
                                  "OTHER")))
        return pa.table({"node": t["node"], "region": region})

    return tagged.map_batches(classify, batch_format="pyarrow")


def resource_alloc_scores(edges_ds, a_col: str = "norm_a",
                          b_col: str = "norm_b",
                          weight_scale: int = 1_000_000_000):
    """LINK PREDICTION by the resource-allocation index (Zhou, Lü &
    Zhang 2009): for every NON-adjacent pair (a, b), RA(a, b) =
    Σ_{z ∈ N(a) ∩ N(b)} 1/deg(z) — common neighbors weighted inversely
    by their degree, so promiscuous hubs contribute less than selective
    bridges. Integer contract: each common neighbor z contributes
    ``weight_scale // deg(z)``, summed as int64, so the DuckDB oracle
    replays bit-for-bit (the kg_pagerank fixed-point trick).

    Shape is ``two_hop_scores``' with the kernel's ``ra`` column kept
    (deg(hub) is free inside `_pair_table`'s hub pass: the length of the
    co-located neighbour list). Returns (norm_a, norm_b, n_common,
    ra_score)."""
    def finish(t: pa.Table) -> pa.Table:
        t = _open_rows(t)
        return pa.table({"norm_a": t["v"], "norm_b": t["w"],
                         "n_common": t["n_common"], "ra_score": t["ra"]})

    return _pair_table(edges_ds, a_col, b_col,
                       weight_scale=weight_scale).map_batches(
        finish, batch_format="pyarrow")


def label_prop_communities(edges_ds, a_col: str = "norm_a",
                           b_col: str = "norm_b", rounds: int = 4):
    """BOUNDED min-label propagation (synchronous, ``rounds`` Jacobi
    iterations): label_0(v) = v; label_{r+1}(v) = min over N(v) ∪ {v}
    of label_r — the diffusion/community primitive. Bounding BOTH sides
    to the same round count makes the fixpoint-free prefix exactly
    SQL-replayable (the same bounded-iteration-oracle trick as k-core);
    with enough rounds it converges to connected components, for which
    the exact O(levels) path is ``connected_components``.

    Per round: one label-by-neighbor ``hash_exchange`` on the sender
    (labels tag-union onto the undirected+self-loop adjacency, built
    once) + one receiver ``hash_exchange`` folding the partial mins —
    2 bounded exchanges/round, labels-sized traffic only."""
    import pandas as pd

    def to_ab(t: pa.Table) -> pa.Table:
        return pa.table({"a": pc.cast(t[a_col], pa.string()),
                         "b": pc.cast(t[b_col], pa.string())})

    edges = _distinct(edges_ds.map_batches(to_ab, batch_format="pyarrow"),
                      ["a", "b"]).materialize()

    def und_self(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks()
        b = t["b"].combine_chunks()
        return pa.table({
            "m": pa.concat_arrays([a, b, a, b]),
            "n": pa.concat_arrays([b, a, a, b]),  # + self-loops both ends
            "lbl": pa.nulls(4 * t.num_rows, pa.string())})

    adj = edges.map_batches(und_self, batch_format="pyarrow").materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        g = t.select(["m"]).group_by("m").aggregate([])
        return pa.table({"node": g["m"], "label": g["m"]})

    labels = adj.map_batches(init_labels, batch_format="pyarrow")

    def tag_label(t: pa.Table) -> pa.Table:
        return pa.table({
            "m": t["node"], "n": pa.nulls(t.num_rows, pa.string()),
            "lbl": t["label"]})

    def send_min(df: pd.DataFrame) -> pd.DataFrame:
        lbl = (df.loc[df["lbl"].notna(), ["m", "lbl"]]
               .groupby("m")["lbl"].min())  # dedup (labels arrive once)
        rows = df[df["lbl"].isna()]
        out = pd.DataFrame({"n": rows["n"].to_numpy(),
                            "lbl": rows["m"].map(lbl).to_numpy()})
        # partial min inside the partition before the node exchange
        return out.groupby("n", as_index=False)["lbl"].min()

    def final_min(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n", as_index=False)["lbl"].min()
        return pd.DataFrame({"node": g["n"].to_numpy(),
                             "label": g["lbl"].to_numpy()})

    for _ in range(rounds):
        msgs = hash_exchange(
            [labels.map_batches(tag_label, batch_format="pyarrow"), adj],
            "m", send_min, batch_format="pandas")
        labels = hash_exchange(msgs, "n", final_min,
                               batch_format="pandas").materialize()

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"], "community": t["label"]})

    return labels.map_batches(rename, batch_format="pyarrow")


def hits_scores(edges_ds, iters: int = 5, scale: int = 1_000_000):
    """Integer HITS (Kleinberg hubs & authorities) over a directed
    (subj, obj) edge Dataset — the classic web-graph ranking pair next
    to `pagerank` (the reference emits the static link graph these run
    over: relationship triples, ObjectProcessor.java:262-268).

    Per round, all-integer so the DuckDB oracle replays bit-for-bit:

      auth_raw(v) = Σ_{u→v} hub(u);  auth = auth_raw·scale // max(auth_raw)
      hub_raw(u)  = Σ_{u→v} auth(v); hub  = hub_raw·scale // max(hub_raw)

    starting from hub = ``scale`` everywhere; max-normalization keeps
    the fixed point in integers (an all-zero side collapses to 0).
    Overflow bound: raw·scale must fit int64, i.e. max in-degree ·
    scale² < 2^63 (≈9.2e6 at the default scale — lower ``scale`` for
    hotter authorities).

    Shape: distinct edges once; graphs at or below ``SMALL_GRAPH_EDGES``
    short-circuit into ONE exact single-task vectorized run (the
    `kcore_nodes`/`scc_labels` small-graph rule — 2·iters np.add.at
    passes, identical arithmetic). Above it, each half-step is one
    `_rank_sums` broadcast round (num = den = 1) over the edges, the
    backward half with src and dst swapped. The score table ships to
    the workers every half-step, so HITS is bounded by the same
    broadcast regime as `pagerank`'s default route; only `pagerank` has
    a join route for larger node sets. Returns (node, hub_scaled,
    auth_scaled).
    """
    import ray.data as rd

    edges = _distinct(edges_ds, ["subj", "obj"]).materialize()

    def hits_local(df):
        import pandas as pd

        codes, uniq = pd.factorize(
            pd.concat([df["subj"], df["obj"]], ignore_index=True))
        m = len(df)
        si, oi = codes[:m], codes[m:]
        n = len(uniq)
        hub = np.full(n, scale, dtype=np.int64)
        auth = np.zeros(n, dtype=np.int64)
        for _ in range(iters):
            raw = np.zeros(n, dtype=np.int64)
            np.add.at(raw, oi, hub[si])
            mx = raw.max() if n else 0
            auth = (raw * scale) // mx if mx > 0 else raw
            raw = np.zeros(n, dtype=np.int64)
            np.add.at(raw, si, auth[oi])
            mx = raw.max() if n else 0
            hub = (raw * scale) // mx if mx > 0 else raw
        return pd.DataFrame({"node": uniq, "hub_scaled": hub,
                             "auth_scaled": auth})

    if edges.count() <= SMALL_GRAPH_EDGES:
        return _in_one_task(edges, hits_local, "pandas")

    node_col = _node_column(_node_set(edges))

    def unit_weights(t: pa.Table) -> pa.Table:
        ones = pa.array(np.ones(t.num_rows, np.int64))
        return t.append_column("num", ones).append_column("den", ones)

    unit = edges.map_batches(unit_weights,
                             batch_format="pyarrow").materialize()

    def normalized(raw: pa.Table) -> pa.Table:
        mx = pc.max(raw["raw"]).as_py() or 0
        s = (pc.divide(pc.multiply(raw["raw"], pa.scalar(scale, pa.int64())),
                       pa.scalar(mx, pa.int64())) if mx > 0 else raw["raw"])
        return pa.table({"node": raw["node"], "s": pc.cast(s, pa.int64())})

    hub = pa.table({"node": node_col, "s": pa.array(
        np.full(len(node_col), scale, dtype=np.int64))})
    auth = None
    for _ in range(iters):
        auth = normalized(_rank_sums(unit, hub, node_col))
        hub = normalized(_rank_sums(unit, auth, node_col,
                                    src="obj", dst="subj"))

    idx = pc.index_in(hub["node"], value_set=auth["node"].combine_chunks())
    return rd.from_arrow(pa.table({
        "node": hub["node"],
        "hub_scaled": hub["s"],
        "auth_scaled": pc.take(auth["s"].combine_chunks(), idx)}))


def trust_rank(edges_ds, seeds, iters: int = 5, damping_pct: int = 85,
               rank_scale: int = 1_000_000):
    """Seeded integer PageRank (TrustRank): the crawl-frontier /
    spam-demotion ranking where teleport mass lands ONLY on a curated
    seed set S, so trust decays with link distance from the seeds.
    All-integer so the DuckDB oracle replays bit-for-bit:

      r0(v) = rank_scale · [v ∈ S]
      r'(v) = base·[v ∈ S] + (damping_pct · Σ_{u→v} r(u)//d(u)) // 100

    with ``base = (rank_scale · (100 - damping_pct)) // 100`` — the
    `pagerank` arithmetic with the uniform teleport term masked to S.
    Nodes unreachable from S stay at exactly 0.

    Shape: `pagerank`'s broadcast route — one `_rank_sums` round per
    iteration. The seed set rides in the driver-side update — curated
    trust seeds are small by construction. Returns (node, trust_micro).
    """
    import ray.data as rd

    e3, nodes, _ = _prepare(edges_ds)
    r = _pagerank_rounds(e3, nodes, iters, damping_pct, rank_scale,
                         seeds=seeds)
    return rd.from_arrow(r.rename_columns(["node", "trust_micro"]))


def deterministic_walks(edges_ds, length: int = 4):
    """GRAPH-WALK CORPUS generation (the node2vec/DeepWalk ingest:
    random walks become training sentences for graph embeddings) with a
    DETERMINISTIC next-hop rule so the DuckDB oracle replays exactly:
    at step i, a walk started at ``s`` standing on ``u`` moves to

        ns(u)[ md5_60(s + '|' + str(i)) % d(u) ]

    where ``ns(u)`` is u's SORTED out-neighbor list and ``d(u)`` its
    out-degree (functions/hashing.md5_hash60 — the engine's published
    SQL-replayable hash family). One walk starts at every node; walks
    stop early at sinks. Returns (start, step, node), step 0..length.

    Shape: ``length`` rounds. At or below ``WALKS_BROADCAST_MAX_EDGES`` the
    adjacency (CSR-style numpy triple: sorted subj array, offsets, flat
    sorted neighbors) ships ONCE via ``ray.put`` and every round is a
    stateless map over the walk Dataset (#nodes rows, materialized per
    round — no loop-carried lineage). Above it, each round is ONE
    ``hash_exchange`` of a tag union: walks keyed by cur meet the edge
    set keyed by subj, with the nth-smallest-neighbor selection done
    vectorized per partition (sort + prefix offsets). The md5 runs once
    per (walk, step) — not per edge. Per-walk-step md5 is the same
    published-contract loop as ta_split's content addressing.
    """
    from ..functions.hashing import md5_hash60

    edges = _distinct(edges_ds, ["subj", "obj"]).materialize()
    nodes = _node_set(edges).materialize()

    outs = [nodes.map_batches(
        lambda t: pa.table({
            "start": t["node"],
            "step": pa.array(np.zeros(t.num_rows, np.int64)),
            "node": t["node"]}),
        batch_format="pyarrow")]

    def pick_next(starts, curs, step, subj_sorted, offsets, flat_obj):
        """Vectorized next-hop for walk rows (md5 once per row)."""
        if not len(subj_sorted) or not len(curs):
            empty = np.array([], dtype=object)
            return empty, empty
        idx = np.searchsorted(subj_sorted, curs)
        idx = np.clip(idx, 0, len(subj_sorted) - 1)
        alive = subj_sorted[idx] == curs  # cur has out-edges
        starts, idx = starts[alive], idx[alive]
        d = offsets[idx + 1] - offsets[idx]
        h = np.fromiter((md5_hash60(f"{s}|{step}") for s in starts),
                        dtype=np.int64, count=len(starts))
        nxt = flat_obj[offsets[idx] + (h % d)]
        return starts, nxt

    if edges.count() <= WALKS_BROADCAST_MAX_EDGES:
        et = _collect_table(edges, pa.schema([("subj", pa.string()),
                                              ("obj", pa.string())]))
        subj = et["subj"].to_numpy(zero_copy_only=False)
        obj = et["obj"].to_numpy(zero_copy_only=False)
        order = np.lexsort((obj, subj))
        subj, obj = subj[order], obj[order]
        subj_sorted, starts_idx = np.unique(subj, return_index=True)
        offsets = np.append(starts_idx, len(subj))
        adj_ref = ray.put((subj_sorted, offsets, obj))

        state = nodes.map_batches(
            lambda t: pa.table({"start": t["node"], "cur": t["node"]}),
            batch_format="pyarrow").materialize()
        for i in range(length):
            def step_fn(t: pa.Table, _i=i) -> pa.Table:
                ss, oo, ff = ray.get(adj_ref)
                starts = t["start"].to_numpy(zero_copy_only=False)
                curs = t["cur"].to_numpy(zero_copy_only=False)
                s2, nxt = pick_next(starts, curs, _i, ss, oo, ff)
                return pa.table({"start": pa.array(s2.tolist(),
                                                   pa.string()),
                                 "cur": pa.array(nxt.tolist(),
                                                 pa.string())})

            state = state.map_batches(step_fn,
                                      batch_format="pyarrow").materialize()
            outs.append(state.map_batches(
                lambda t, _i=i: pa.table({
                    "start": t["start"],
                    "step": pa.array(np.full(t.num_rows, _i + 1,
                                             np.int64)),
                    "node": t["cur"]}),
                batch_format="pyarrow"))
        res = outs[0]
        for o in outs[1:]:
            res = res.union(o)
        return res

    # exchange mode: each round tag-unions the walk frontier (subj =
    # cur) with the edge set and resolves next hops inside the partition
    adj = edges.map_batches(
        lambda t: pa.table({
            "subj": t["subj"], "obj": t["obj"],
            "start": pa.nulls(t.num_rows, pa.string())}),
        batch_format="pyarrow").materialize()

    state = nodes.map_batches(
        lambda t: pa.table({"start": t["node"], "cur": t["node"]}),
        batch_format="pyarrow").materialize()
    for i in range(length):
        frontier = state.map_batches(
            lambda t: pa.table({
                "subj": t["cur"],
                "obj": pa.nulls(t.num_rows, pa.string()),
                "start": t["start"]}),
            batch_format="pyarrow")

        def local_step(df, _i=i):
            import pandas as pd

            e = df[df["obj"].notna()].sort_values(["subj", "obj"])
            w = df[df["obj"].isna()]
            if not len(e) or not len(w):
                return pd.DataFrame({"start": [], "cur": []})
            subj_sorted, starts_idx = np.unique(
                e["subj"].to_numpy(), return_index=True)
            offsets = np.append(starts_idx, len(e))
            s2, nxt = pick_next(w["start"].to_numpy(),
                                w["subj"].to_numpy(), _i,
                                subj_sorted, offsets,
                                e["obj"].to_numpy())
            return pd.DataFrame({"start": s2, "cur": nxt})

        state = hash_exchange([frontier, adj], "subj", local_step,
                              batch_format="pandas").materialize()
        outs.append(state.map_batches(
            lambda t, _i=i: pa.table({
                "start": t["start"],
                "step": pa.array(np.full(t.num_rows, _i + 1, np.int64)),
                "node": t["cur"]}),
            batch_format="pyarrow"))
    res = outs[0]
    for o in outs[1:]:
        res = res.union(o)
    return res


def modularity_profile(edges_ds, labels_ds, a_col: str = "norm_a",
                       b_col: str = "norm_b"):
    """NEWMAN MODULARITY profile of a community partition — the
    quality metric every community-detection run is judged by. Per
    community: node count, intra-community edge count, degree mass,
    and the EXACT integer numerator of its modularity contribution,
    ``q_num = 4·m·e_in − deg_sum²`` over the common denominator
    ``4·m²`` (total Q = Σ q_num / (4 m²)) — no division anywhere, so
    the result is bit-exact and SQL-replayable with BIGINT arithmetic.

    Shape: the undirected distinct-pair edge table is materialized
    once and reused three ways — ONE tiny count aggregate for ``m``,
    then community labels attach to each endpoint via two
    tag-union merges (`_attach_val`; labels move, never broadcast).
    The doubly-labeled edges emit composable (community, e_in, deg)
    partials per batch, unioned with label-side node counts into ONE
    community ``hash_exchange``.
    Returns (community, n_nodes, e_in, deg_sum, q_num).
    """
    import pandas as pd

    # endpoint columns only: the weight column would ride through two
    # pandas-block merges (whose null fillers are typed off the FIRST
    # attach's lost Arrow schema) and is not part of modularity anyway
    edges = edges_ds.map_batches(
        lambda t: t.select([a_col, b_col]),
        batch_format="pyarrow").materialize()
    m = edges.count()

    vals = labels_ds.map_batches(
        lambda t: pa.table({"node": t["node"], "val": t["community"]}),
        batch_format="pyarrow")
    labeled = _attach_val(
        _attach_val(edges, vals, a_col, "ca"), vals, b_col, "cb")

    def edge_partials(df: pd.DataFrame) -> pd.DataFrame:
        ein = (df["ca"].to_numpy() == df["cb"].to_numpy()).astype(np.int64)
        part = pd.DataFrame({
            "community": np.concatenate([df["ca"].to_numpy(),
                                         df["cb"].to_numpy()]),
            "n_nodes": np.zeros(2 * len(df), np.int64),
            "e_in": np.concatenate([ein, np.zeros(len(df), np.int64)]),
            "deg": np.ones(2 * len(df), np.int64)})
        return part.groupby("community", as_index=False).sum()

    def node_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("community", as_index=False)
             .agg(n_nodes=("node", "count")))
        g["n_nodes"] = g["n_nodes"].astype("int64")
        g["e_in"] = np.zeros(len(g), np.int64)
        g["deg"] = np.zeros(len(g), np.int64)
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("community", as_index=False)[
            ["n_nodes", "e_in", "deg"]].sum()
        out = pd.DataFrame({
            "community": g["community"],
            "n_nodes": g["n_nodes"].astype("int64"),
            "e_in": g["e_in"].astype("int64"),
            "deg_sum": g["deg"].astype("int64")})
        out["q_num"] = (4 * m * out["e_in"]
                        - out["deg_sum"] * out["deg_sum"]).astype("int64")
        return out

    return hash_exchange(
        [labeled.map_batches(edge_partials, batch_format="pandas"),
         labels_ds.map_batches(node_partials, batch_format="pandas")],
        "community", fold, batch_format="pandas")


def clustering_coefficients(edges_ds, a_col: str = "norm_a",
                            b_col: str = "norm_b"):
    """PER-NODE local clustering coefficient — the triangle-density
    profile behind every "is this neighborhood a community or a hub
    spray" judgment: for each node, its degree, the number of triangles
    through it, and ``cc_micro = ⌊10⁶ · tri / C(deg, 2)⌋`` (0 when
    deg < 2), all-integer via ``(2·10⁶·tri) // (deg·(deg−1))``.

    Shape: the edge rows of `_pair_table`; each credits both endpoints
    with (1 edge, n_common) per-batch partials, which fold in ONE
    node ``hash_exchange``: degree = Σ edges, n_tri = ½ Σ n_common (a
    triangle through x closes two of x's edges). Returns (node, degree,
    n_tri, cc_micro)."""
    def corners(t: pa.Table) -> pa.Table:
        t = _edge_rows(t)
        cn = t["n_common"].combine_chunks()
        return (pa.table({
            "node": pa.concat_arrays([t["v"].combine_chunks(),
                                      t["w"].combine_chunks()]),
            "deg": pa.array(np.ones(2 * t.num_rows, np.int64)),
            "tri": pa.concat_arrays([cn, cn])})
            .group_by("node").aggregate([("deg", "sum"), ("tri", "sum")])
            .rename_columns(["node", "deg", "tri"]))

    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by("node").aggregate([("deg", "sum"), ("tri", "sum")])
        deg = g["deg_sum"].to_numpy()
        tri = g["tri_sum"].to_numpy() // 2
        denom = deg * (deg - 1)
        cc = np.where(denom > 0, (2_000_000 * tri) // np.maximum(denom, 1),
                      0)
        return pa.table({"node": g["node"], "degree": pa.array(deg),
                         "n_tri": pa.array(tri),
                         "cc_micro": pa.array(cc.astype(np.int64))})

    return hash_exchange(
        _pair_table(edges_ds, a_col, b_col).map_batches(
            corners, batch_format="pyarrow"),
        "node", fold, batch_format="pyarrow")


def degree_mixing_stats(edges_ds, a_col: str = "norm_a",
                        b_col: str = "norm_b"):
    """DEGREE-MIXING sufficient statistics — the exact-integer inputs
    to Newman's degree assortativity: over the distinct undirected
    edges, the edge count ``m`` and the sums Σ j·k, Σ (j+k) and
    Σ (j²+k²) of endpoint degrees. The float coefficient
    ``r = (Σjk/m − (Σ(j+k)/2m)²) / (Σ(j²+k²)/2m − (Σ(j+k)/2m)²)``
    is one driver-side division away — publishing the integer sums
    keeps the distributed result bit-exact and SQL-replayable (the
    same numerator-contract idea as `modularity_profile`).

    Shape: distinct oriented edges → per-node degree partials → the
    degree table attaches to both endpoints via two tag-union merges
    (degrees move, never broadcast) → per-batch
    partial sums → ONE scalar fold. Returns a one-row frame
    (m, sum_jk, sum_j_plus_k, sum_jj_plus_kk)."""
    import pandas as pd

    def to_ab(t: pa.Table) -> pa.Table:
        return pa.table({"a": pc.cast(t[a_col], pa.string()),
                         "b": pc.cast(t[b_col], pa.string())})

    edges = _distinct(edges_ds.map_batches(to_ab, batch_format="pyarrow"),
                      ["a", "b"]).materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        node = pa.concat_arrays([t["a"].combine_chunks(),
                                 t["b"].combine_chunks()])
        return (pa.table({"node": node,
                          "d": pa.array(np.ones(len(node), np.int64))})
                .group_by("node").aggregate([("d", "sum")])
                .rename_columns(["node", "d"]))

    def deg_fold(t: pa.Table) -> pa.Table:
        g = t.group_by("node").aggregate([("d", "sum")])
        # _attach_val carries the value as a string column
        return pa.table({"node": g["node"],
                         "val": pc.cast(g["d_sum"], pa.string())})

    degs = hash_exchange(edges.map_batches(deg_partial,
                                           batch_format="pyarrow"),
                         "node", deg_fold, batch_format="pyarrow")

    labeled = _attach_val(_attach_val(edges, degs, "a", "dj"),
                          degs, "b", "dk")

    def sums(df: pd.DataFrame) -> pd.DataFrame:
        j = df["dj"].astype("int64").to_numpy()
        k = df["dk"].astype("int64").to_numpy()
        return pd.DataFrame({
            "m": pd.array([len(df)], dtype="int64"),
            "sum_jk": pd.array([int((j * k).sum())], dtype="int64"),
            "sum_j_plus_k": pd.array([int((j + k).sum())], dtype="int64"),
            "sum_jj_plus_kk": pd.array([int((j * j + k * k).sum())],
                                       dtype="int64")})

    from ray.data.aggregate import Sum

    parts = labeled.map_batches(sums, batch_format="pandas")
    agg = parts.aggregate(Sum("m"), Sum("sum_jk"), Sum("sum_j_plus_k"),
                          Sum("sum_jj_plus_kk"))
    return pd.DataFrame({
        "m": pd.array([agg["sum(m)"] or 0], dtype="int64"),
        "sum_jk": pd.array([agg["sum(sum_jk)"] or 0], dtype="int64"),
        "sum_j_plus_k": pd.array([agg["sum(sum_j_plus_k)"] or 0],
                                 dtype="int64"),
        "sum_jj_plus_kk": pd.array([agg["sum(sum_jj_plus_kk)"] or 0],
                                   dtype="int64")})


def _merge_sides(df, how: str = "inner"):
    """The per-partition merge of a two-sided (key, val, tag) union:
    distinct tag-0 values × tag-1 values per key, as (key, val_l,
    val_r). All rows of a key co-locate, so distinctness is global."""
    lv = df[df["tag"] == 0][["key", "val"]].drop_duplicates()
    rv = df[df["tag"] == 1][["key", "val"]].drop_duplicates()
    return lv.merge(rv, on="key", how=how, suffixes=("_l", "_r"))


def _bgp(facts_ds, left, right, pred_col: str, finish):
    """Two triple patterns ``left``/``right`` = (pred, key_col, val_col)
    joined on their shared variable: each side is per-batch DISTINCT
    (key, val, tag) rows (duplicate assertions from many pages collapse
    before the exchange), both meet in ONE ``hash_exchange`` on ``key``
    (tag union, no join operator), ``finish`` over each partition."""
    def side(pred: str, key_col: str, val_col: str, tag: int):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t[pred_col], pred))
            g = (pa.table({"key": t[key_col], "val": t[val_col]})
                 .group_by(["key", "val"]).aggregate([]))
            return g.append_column(
                "tag", pa.array(np.full(g.num_rows, tag, np.int8)))

        return facts_ds.map_batches(fn, batch_format="pyarrow")

    return hash_exchange([side(*left, 0), side(*right, 1)], "key", finish,
                         batch_format="pandas")


def bgp_join(facts_ds, p1: str = "kg:acquired", p2: str = "kg:basedIn",
             subj_col: str = "subj", pred_col: str = "pred",
             obj_col: str = "obj"):
    """Basic-graph-pattern join — the 2-pattern SPARQL-style BGP
    ``?a p1 ?b . ?b p2 ?c`` evaluated over the constructed KG's fact
    stream; returns the DISTINCT binding set ``(a, b, c)``. This is the
    query-side counterpart of the extraction pipeline (the reference's
    output feeds a Jena resource index the same way —
    Extract.java:96-100's ``#ri`` graph).

    Shape (`_bgp`): each pattern side filters its predicate and emits
    per-batch DISTINCT (key, val) pairs, both sides ride ONE
    ``hash_exchange`` on the shared variable ``b``, and the
    per-partition merge emits a-values × c-values per b. Skew note: a
    head entity with many a- and c-bindings produces |a|·|c| rows —
    that is the query RESULT size, not a plan artifact; cap upstream
    if a bounded preview is wanted."""
    import pandas as pd

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        m = _merge_sides(df)
        return pd.DataFrame({"a": m["val_l"], "b": m["key"],
                             "c": m["val_r"]})

    return _bgp(facts_ds, (p1, obj_col, subj_col), (p2, subj_col, obj_col),
                pred_col, merge)


def bgp_optional(facts_ds, p1: str = "kg:acquired",
                 p2: str = "kg:basedIn", subj_col: str = "subj",
                 pred_col: str = "pred", obj_col: str = "obj"):
    """SPARQL OPTIONAL — the left-join BGP ``?a p1 ?b . OPTIONAL { ?b
    p2 ?c }``: every DISTINCT (a, b) binding of the required pattern
    survives; where the optional pattern matches b it fans out to its
    c-bindings, otherwise c is the empty string (the engine's
    no-binding marker — '' is never a term, and it keeps the oracle's
    ``coalesce`` exact without a NULL-representation contract).

    Same physical shape as `bgp_join` (`_bgp`); only the per-partition
    merge differs (left merge instead of inner)."""
    import pandas as pd

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        m = _merge_sides(df, how="left")
        return pd.DataFrame({"a": m["val_l"], "b": m["key"],
                             "c": m["val_r"].fillna("")})

    return _bgp(facts_ds, (p1, obj_col, subj_col), (p2, subj_col, obj_col),
                pred_col, merge)


def harmonic_2hop(edges_ds, a_col: str = "subj", b_col: str = "obj"):
    """Bounded-radius HARMONIC CENTRALITY (Boldi & Vigna 2014) at ≤2
    hops over the DIRECTED graph, integer-scaled ×2 so both distance
    weights stay exact: ``harmonic_x2(v) = 2·|{u: d(u→v)=1}| +
    |{u: d(u→v)=2}|`` (the 1/1 and 1/2 terms of Σ 1/d truncated at
    radius 2).

    Shape (every stage a combiner + ONE ``hash_exchange``):
      1. distinct edges, distinct nodes,
      2. distance-2 candidates: in-rows and out-rows meet on the MID
         node, per-mid vectorized cross merge — the directed analog of
         ``two_hop_scores``' wedge emit, same Σ(d_in·d_out) hub bound,
      3. pairs tag-unioned with the distance-1 edge set on the pair's
         source u — pairs that close a direct edge are distance 1,
         not 2,
      4. per-node counts for both rings and a final tag-union sum on
         the node, zero-filled from the node set.

    Returns (node, harmonic_x2), one row per graph node."""
    import pandas as pd

    def to_ab(t: pa.Table) -> pa.Table:
        return pa.table({"u": pc.cast(t[a_col], pa.string()),
                         "v": pc.cast(t[b_col], pa.string())})

    edges = _distinct(edges_ds.map_batches(to_ab, batch_format="pyarrow"),
                      ["u", "v"]).materialize()
    nodes = _node_set(edges, "u", "v")

    # --- distance-2 candidate pairs, co-located on the mid node
    def in_rows(t: pa.Table) -> pa.Table:  # u -> mid
        return pa.table({"mid": t["v"], "node": t["u"],
                         "role": pa.array(np.zeros(t.num_rows, np.int8))})

    def out_rows(t: pa.Table) -> pa.Table:  # mid -> v
        return pa.table({"mid": t["u"], "node": t["v"],
                         "role": pa.array(np.ones(t.num_rows, np.int8))})

    def cross(df: pd.DataFrame) -> pd.DataFrame:
        ins = df[df["role"] == 0][["mid", "node"]].rename(
            columns={"node": "u"})
        outs = df[df["role"] == 1][["mid", "node"]].rename(
            columns={"node": "v"})
        m = ins.merge(outs, on="mid")[["u", "v"]]
        m = m[m["u"] != m["v"]].drop_duplicates()
        return m

    pairs = hash_exchange(
        [edges.map_batches(in_rows, batch_format="pyarrow"),
         edges.map_batches(out_rows, batch_format="pyarrow")],
        "mid", cross, batch_format="pandas")

    # --- drop pairs that are direct edges (distance 1 wins)
    def tag_pair(kind: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"u": t["u"], "v": t["v"],
                             "kind": pa.array(np.full(t.num_rows, kind,
                                                      np.int64))})
        return fn

    def open_only(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], as_index=False)["kind"].min()
        g = g[g["kind"] > 0]  # no edge row ⇒ genuine distance-2
        return g[["u", "v"]]

    loop_free = edges.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t["u"], t["v"]))),
        batch_format="pyarrow").materialize()
    d2 = hash_exchange(
        [pairs.map_batches(tag_pair(1), batch_format="pyarrow"),
         loop_free.map_batches(tag_pair(-1), batch_format="pyarrow")],
        "u", open_only, batch_format="pandas")

    # --- per-node ring counts -> one zero-filled tag-union sum
    def ring(weight: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"node": t["v"], "inc": pa.array(
                np.full(t.num_rows, weight, np.int64))})
        return fn

    def final_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False)["inc"].sum()
        return pd.DataFrame({"node": g["node"].to_numpy(),
                             "harmonic_x2": g["inc"].astype("int64")
                                             .to_numpy()})

    zeros = nodes.map_batches(
        lambda t: pa.table({"node": t["node"], "inc": pa.array(
            np.zeros(t.num_rows, np.int64))}), batch_format="pyarrow")
    return hash_exchange(
        [zeros, loop_free.map_batches(ring(2), batch_format="pyarrow"),
         d2.map_batches(ring(1), batch_format="pyarrow")],
        "node", final_sum, batch_format="pandas")


def wedge_pairs(ds, block_cols, item_col, min_count: int = 1,
                max_df: int | None = None,
                out_cols=("d1", "d2", "n")):
    """Shared BLOCKING-KEY PAIR COUNTER — the wedge shape
    `sameas_candidates`, `winnowing_pairs` and `host_cocitation` all
    instantiate: count, for every unordered pair of ITEMS, the number
    of distinct BLOCKS containing both.

    Shape: per-batch DISTINCT (item, block) combiner → ONE
    ``hash_exchange`` on ``block_cols[0]`` co-locating each block's item
    list (every row of a block shares that column; put the most
    selective block column first) — blocks wider than ``max_df`` items
    are DROPPED there, the quadratic-wedge guard → per-block vectorized
    cross merge emits C(n, 2) pair PARTIALS (a block lives in exactly
    one partition, so partials are disjoint) → ONE ``hash_exchange`` on
    the pair's first item sums and thresholds at ``min_count``. Cost
    is Σ n_items² over blocks — `two_hop_scores`' bound. Input batches
    must carry ``block_cols`` + ``item_col``; items must be mutually
    orderable (the pair is emitted as (min, max))."""
    import pandas as pd

    block_cols = list(block_cols)
    c1, c2, cn = out_cols

    def combine(t: pa.Table) -> pa.Table:
        return (t.select([item_col] + block_cols)
                .group_by([item_col] + block_cols).aggregate([]))

    def cross(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates([item_col] + block_cols)
        if max_df is not None:
            sz = df.groupby(block_cols)[item_col].transform("size")
            df = df[sz <= max_df]
        m = df[[item_col] + block_cols].merge(
            df[[item_col] + block_cols], on=block_cols)
        a, b = item_col + "_x", item_col + "_y"
        m = m[m[a] < m[b]]
        g = (m.groupby([a, b], as_index=False).size()
             .rename(columns={a: c1, b: c2, "size": "n"}))
        g["n"] = g["n"].astype("int64")
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby([c1, c2], as_index=False)["n"].sum()
        if min_count > 1:
            g = g[g["n"] >= min_count]
        g["n"] = g["n"].astype("int64")
        return g.rename(columns={"n": cn})

    pairs = hash_exchange(ds.map_batches(combine, batch_format="pyarrow"),
                          block_cols[0], cross, batch_format="pandas")
    return hash_exchange(pairs, c1, fold, batch_format="pandas")


def sameas_candidates(facts_ds, min_shared: int = 2,
                      subj_col: str = "subj", pred_col: str = "pred",
                      obj_col: str = "obj"):
    """ENTITY-RESOLUTION CANDIDATES by shared assertions: subject pairs
    (e1 < e2) asserting at least ``min_shared`` identical (pred, obj)
    slots are owl:sameAs candidates — the structural step AFTER
    string canonicalization (`resolve_quads` merges surface forms;
    this surfaces aliases with DIFFERENT surfaces that behave
    identically in the graph). Classic blocking-key ER: the block key
    is the (pred, obj) slot itself.

    Shape: `wedge_pairs` on block = the (obj, pred) slot (routed on
    the object: predicates are few), item = the subject — per-batch
    distinct combiner, ONE slot exchange with the per-slot cross
    merge, ONE pair exchange with the threshold sum. Cost is
    Σ n_subj² over slots; a slot shared by a true hub
    ('rdf:type kg:WebPage'-class predicates) must be excluded upstream
    or df-capped, exactly as `ngram_pairs` caps df.

    Returns (e1, e2, n_shared) with n_shared ≥ min_shared."""

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"s": t[subj_col], "p": t[pred_col],
                         "o": t[obj_col]})

    return wedge_pairs(
        facts_ds.map_batches(project, batch_format="pyarrow"),
        block_cols=["o", "p"], item_col="s", min_count=min_shared,
        out_cols=("e1", "e2", "n_shared"))


def property_path(facts_ds, pred: str = "kg:acquired", max_len: int = 3,
                  subj_col: str = "subj", pred_col: str = "pred",
                  obj_col: str = "obj"):
    """SPARQL property-path reachability ``a (p)+ d`` bounded at
    ``max_len`` hops: all DISTINCT ordered pairs connected by a chain
    of ``pred`` edges of length 1..max_len, each with its SHORTEST
    chain length — the acquisition-chain / ownership-chain query a KG
    consumer runs ("what does a transitively own, and how directly").

    Shape: the distinct ``pred`` edge set is materialized once; then
    ``max_len − 1`` rounds, each ONE tag-union ``hash_exchange``
    joining the frontier's tail to edge heads (the `bgp_join` merge),
    with per-round DISTINCT merges. Pairs carry their first
    (= shortest, by BFS order) length; the final exchange on the
    path's head keeps the min. Diameter-bounded by construction —
    max_len is a query parameter, not an iteration guess."""
    import pandas as pd

    def edge_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t[pred_col], pred))
        return (pa.table({"a": t[subj_col], "b": t[obj_col]})
                .group_by(["a", "b"]).aggregate([]))

    # GLOBAL distinct before materializing: the same edge is asserted
    # by many docs across many batches, and this table rides every
    # round's exchange — shuffle volume must scale with distinct
    # edges, not assertion count
    edges = _distinct(
        facts_ds.map_batches(edge_rows, batch_format="pyarrow"),
        ["a", "b"]).materialize()

    def side(ds, key: str, val: str, tag: int):
        return ds.map_batches(
            lambda t: pa.table({"key": t[key], "val": t[val], "tag": pa.array(
                np.full(t.num_rows, tag, np.int8))}),
            batch_format="pyarrow")

    def extend(df: pd.DataFrame) -> pd.DataFrame:
        m = _merge_sides(df)
        return pd.DataFrame({"a": m["val_l"],
                             "d": m["val_r"]}).drop_duplicates()

    # paths: (a, d, length); frontier starts as the edges themselves
    frontier = edges.map_batches(
        lambda t: pa.table({"a": t["a"], "d": t["b"],
                            "length": pa.array(
                                np.ones(t.num_rows, np.int64))}),
        batch_format="pyarrow").materialize()
    all_paths = [frontier]
    heads = side(edges, "a", "b", 1)

    for k in range(2, max_len + 1):
        nxt = hash_exchange([side(frontier, "d", "a", 0), heads], "key",
                            extend, batch_format="pandas")
        frontier = nxt.map_batches(
            lambda t, _k=k: t.append_column(
                "length", pa.array(np.full(t.num_rows, _k, np.int64))),
            batch_format="pyarrow").materialize()
        all_paths.append(frontier)

    def min_len(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "d"], as_index=False)["length"].min()
        g["length"] = g["length"].astype("int64")
        return g

    return hash_exchange(all_paths, "a", min_len, batch_format="pandas")


def star_join(facts_ds, p1: str = "kg:worksWith",
              p2: str = "kg:acquired", subj_col: str = "subj",
              pred_col: str = "pred", obj_col: str = "obj"):
    """STAR-shaped BGP ``?s p1 ?a . ?s p2 ?b`` — the subject-join
    companion of `bgp_join`'s chain: DISTINCT bindings (s, a, b) for
    subjects asserting BOTH predicates. Star queries are the entity-
    card shape (all properties of one subject at once); the chain is
    the path shape.

    Same physical plan as `bgp_join` (`_bgp`) with the shared variable
    being the SUBJECT on both sides. Result size per subject is
    |a|·|b| — the query's own output, as with the chain."""
    import pandas as pd

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        m = _merge_sides(df)
        return pd.DataFrame({"s": m["key"], "a": m["val_l"],
                             "b": m["val_r"]})

    return _bgp(facts_ds, (p1, subj_col, obj_col), (p2, subj_col, obj_col),
                pred_col, merge)
