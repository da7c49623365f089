"""Cluster-aware stage sizing.

A fixed actor-pool size equal to the session's CPU count starves the
upstream read tasks (observed livelock at num_cpus=4 with
concurrency=4). Every actor-pool stage therefore uses an *autoscaling*
pool ``(1, cap)``: Ray reserves one actor's worth of resources and
scales up only while CPUs are free, so no stage can starve the others
(the sizing concern called out in SURVEY.md §4 row 1)."""

from __future__ import annotations

import os


def cluster_cpus() -> int:
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 0)) or (os.cpu_count() or 4)
    except Exception:
        pass
    return os.cpu_count() or 4


def pool(frac: float = 0.75, cap: int | None = None) -> tuple[int, int]:
    """Autoscaling actor-pool bounds: (1, max(2, cpus*frac)), optionally
    capped."""
    hi = max(2, int(cluster_cpus() * frac))
    if cap is not None:
        hi = min(hi, cap)
    return (1, hi)


def safe_join_partitions(small_side_count: int, cap: int = 64) -> int:
    """Join partition count sized so every hash partition of the smaller
    side stays non-empty with overwhelming probability — Ray 2.49's hash
    join materializes empty partitions as schema-less blocks and the
    pyarrow join then fails ("No match for key field on right side").
    ≥64 uniformly-hashed keys per partition keeps P(empty) ≪ 1e-20.

    Also capped at 2× the session's CPUs: the hash-join operator spawns
    an aggregator actor per partition, and a partition count far above
    the CPU count over-subscribes the node (observed: 64 partitions on
    an 8-CPU session thrash 100+ worker processes and stall)."""
    return max(1, min(cap, 2 * cluster_cpus(), small_side_count // 64))


def default_parts(mult: float = 1.0, *, input_bytes: int | None = None,
                  per_part_bytes: int = 256 << 20,
                  lo: int = 8, hi: int = 4096) -> int:
    """Hash-exchange partition count scaled to the CLUSTER, not a
    constant: cpus × mult rounded up to a power of two (several
    exchanges route with ``hash & (n_parts - 1)`` masks), clamped to
    [lo, hi]. When ``input_bytes`` is known the count also grows to
    keep per-partition data under ``per_part_bytes`` so one partition
    always fits a worker heap.

    The old fixed defaults 16/32/64 map to mult 0.5/1.0/2.0 — identical
    values on the 32-CPU sandbox, but scaling with the cluster the way
    the reference's cores-derived ``-n`` knob does
    (Extract.java:102-106)."""
    parts = int(cluster_cpus() * mult)
    if input_bytes:
        parts = max(parts, -(-int(input_bytes) // per_part_bytes))
    parts = max(lo, min(hi, parts))
    return min(hi, 1 << (parts - 1).bit_length())
