"""Secondary content fetch — the lazy/external datastream resolution
stage (S3's third branch). The reference resolves REDIRECT/EXTERNAL
datastreams by opening the remote content URL per object, catching every
failure per object so one dead link never kills the run
(ObjectProcessor.java:209-226 + the per-object catch-all at :172-176).

Web-corpus analog: rows whose payload lives OUTSIDE the parquet row —
e.g. a WARC range pointer ``container:offset:length`` — fetched by an
actor-pool stage that

- groups a batch's pointers by container and opens each container ONCE
  per batch (batched range reads — the dominant cost at scale is opens,
  not bytes);
- contains fetch failures per ROW: the row survives with a null payload
  and ``fetch_ok=false`` (the caller emits metadata-only triples for it,
  exactly the reference's failure behavior), counted in the per-actor
  ``errors`` counter (W3);
- takes a pluggable ``opener`` so the same stage body serves local
  shard files (tested here), an object store, or an HTTP range client —
  the Ray-side shape (actor pool, batch grouping, containment) is the
  part that matters at 100 TB.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def parse_ref(ref: str) -> tuple[str, int, int]:
    """``container:offset:length`` → parts. Raises ValueError on junk
    (contained per row by the stage)."""
    container, off, ln = ref.rsplit(":", 2)
    off_i, ln_i = int(off), int(ln)
    if not container or off_i < 0 or ln_i < 0:
        raise ValueError(f"bad content ref: {ref!r}")
    return container, off_i, ln_i


def local_opener(container: str):
    """Default opener: local file (the sandbox stand-in for an object
    store / HTTP range client)."""
    return open(container, "rb")


class SecondaryFetchStage:
    """(ref_col) batch → + ``payload`` (binary, null on failure) +
    ``fetch_ok`` (bool). Use via::

        ds.map_batches(SecondaryFetchStage,
                       fn_constructor_kwargs={"opener": my_opener},
                       batch_format="pyarrow", concurrency=pool(0.5),
                       batch_size=256)

    Keep ``batch_size`` modest: payloads are large binaries and a batch
    must fit the worker heap (memory-aware batch sizing)."""

    def __init__(self, opener=None, ref_col: str = "content_ref"):
        self.opener = opener if opener is not None else local_opener
        self.ref_col = ref_col
        self.errors = 0  # per-actor contained-failure counter (W3)

    def __call__(self, t: pa.Table) -> pa.Table:
        refs = t[self.ref_col].to_pylist()
        payloads: list[bytes | None] = [None] * len(refs)
        ok = np.zeros(len(refs), dtype=bool)
        # group by container: one open per container per batch
        by_container: dict[str, list[int]] = {}
        for i, ref in enumerate(refs):
            try:
                container, _, _ = parse_ref(ref)
            except Exception:
                self.errors += 1  # contained: malformed pointer
                continue
            by_container.setdefault(container, []).append(i)
        for container, idxs in by_container.items():
            try:
                fh = self.opener(container)
            except Exception:
                self.errors += len(idxs)  # contained: container unreachable
                continue
            try:
                # ascending offsets → sequential-friendly range reads
                for i in sorted(idxs,
                                key=lambda j: parse_ref(refs[j])[1]):
                    _, off, ln = parse_ref(refs[i])
                    try:
                        fh.seek(off)
                        data = fh.read(ln)
                        if len(data) != ln:
                            raise EOFError(
                                f"short read {len(data)}/{ln} at {off}")
                        payloads[i] = data
                        ok[i] = True
                    except Exception:
                        self.errors += 1  # contained: one bad range
            finally:
                try:
                    fh.close()
                except Exception:
                    pass
        out = t.append_column("payload", pa.array(payloads, pa.binary()))
        out = out.append_column("fetch_ok", pa.array(ok))
        return out
