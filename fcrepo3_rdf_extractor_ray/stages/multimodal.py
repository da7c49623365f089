"""Multimodal column plumbing (image/audio as opaque binary + metadata).

COMPRESSED-format decode kernels (JPEG/PNG/video codecs) are STUBBED —
those libraries are not in this environment — but uncompressed P6 PPM
decode is REAL: `decode_ppm` parses the binary header and pixel plane
with numpy (no external libs), and `PpmStatsStage` turns payloads into
exact integer channel statistics (an oracle-checkable surface — the
generator formula is re-computable in SQL while the engine only ever
sees the encoded bytes). The Ray-side plumbing is shared by both paths:
schema handling for binary payload columns, small-batch task-form
stages (binary rows are wide — the same sizing concern as the html
column, SURVEY.md §7.4), and a typed output layout.

``DecodeImageStage(real_decode=True)`` uses the real PPM decode;
compressed payloads raise ValueError (contained or fatal per
``on_error``), marking exactly where a PIL/libvips decode would slot in.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import siphash24

IMAGE_FEATURES_SCHEMA = pa.schema([
    ("item_id", pa.int64()),
    ("n_bytes", pa.int64()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("feature", pa.list_(pa.float32(), 8)),
])


# ---------------------------------------------------------------------------
# Real P6 PPM codec (pure numpy — uncompressed RGB, the netpbm format)

_PIXEL_MULT = 2654435761  # Knuth multiplicative constant (public)


def encode_ppm(pixels: np.ndarray) -> bytes:
    """H×W×3 uint8 array → binary P6 PPM bytes."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("expected an HxWx3 pixel array")
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + \
        np.ascontiguousarray(pixels, dtype=np.uint8).tobytes()


def _ppm_header(payload: bytes) -> tuple[int, int, int]:
    """Parse a P6 header → (width, height, pixel_plane_offset). The
    offset is authoritative for frame framing — container splitters must
    use it rather than searching for a header substring (a literal like
    b'255\\n' also matches a 255-valued dimension token)."""
    if not payload.startswith(b"P6"):
        raise ValueError("not a P6 PPM payload")
    pos, tokens = 2, []
    while len(tokens) < 3:
        while pos < len(payload) and payload[pos:pos + 1].isspace():
            pos += 1
        if payload[pos:pos + 1] == b"#":  # comment runs to end of line
            while pos < len(payload) and payload[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise ValueError("truncated PPM header")
        try:
            tokens.append(int(payload[start:pos]))
        except ValueError:
            raise ValueError("non-numeric PPM header token") from None
    pos += 1  # exactly one whitespace byte separates maxval from pixels
    width, height, maxval = tokens
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval}")
    if width <= 0 or height <= 0:
        raise ValueError("non-positive PPM dimensions")
    return width, height, pos


def decode_ppm(payload: bytes) -> tuple[int, int, np.ndarray]:
    """Binary P6 PPM → (width, height, H×W×3 uint8).

    A real decode: header tokenizer (handles ``#`` comments per the
    netpbm spec), then a zero-copy ``np.frombuffer`` view of the pixel
    plane. Raises ValueError on anything malformed (wrong magic, bad
    dims, truncated plane) so callers can contain per-row."""
    width, height, pos = _ppm_header(payload)
    n = width * height * 3
    pix = np.frombuffer(payload, dtype=np.uint8, count=-1, offset=pos)
    if pix.size < n:
        raise ValueError("truncated PPM pixel plane")
    return width, height, pix[:n].reshape(height, width, 3)


def synthetic_ppm(seed: int, width: int = 16, height: int = 16) -> bytes:
    """Deterministic PPM image for tests/oracles: pixel byte i is
    ``(seed*_PIXEL_MULT + i) mod 256`` — trivially re-computable in SQL
    with a generate_series, while the engine only sees encoded bytes."""
    n = width * height * 3
    base = (seed * _PIXEL_MULT) % 256
    vals = ((base + np.arange(n)) % 256).astype(np.uint8)
    return encode_ppm(vals.reshape(height, width, 3))


# ---------------------------------------------------------------------------
# Real WAV (RIFF / PCM16 mono) codec — pure struct+numpy


def encode_wav(samples: np.ndarray, sample_rate: int = 8000) -> bytes:
    """int16 mono samples → canonical RIFF/WAVE bytes (PCM16)."""
    data = np.ascontiguousarray(samples, dtype="<i2").tobytes()
    import struct
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, 1, sample_rate, sample_rate * 2, 2, 16,
        b"data", len(data))
    return hdr + data


def decode_wav(payload: bytes) -> tuple[int, np.ndarray]:
    """RIFF/WAVE bytes → (sample_rate, int16 mono samples).

    A real parse: walks the chunk list (skipping unknown chunks, as the
    RIFF spec requires — metadata chunks like LIST are common), reads the
    fmt chunk, and views the data chunk as little-endian int16 with
    ``np.frombuffer``. Only PCM16 mono is supported; anything else (or a
    truncated/malformed file) raises ValueError for per-row containment."""
    import struct
    if len(payload) < 12 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, rate, samples = 12, None, None
    while pos + 8 <= len(payload):
        cid, size = payload[pos:pos + 4], struct.unpack(
            "<I", payload[pos + 4:pos + 8])[0]
        body = payload[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"truncated {cid!r} chunk")
        if cid == b"fmt ":
            if size < 16:
                raise ValueError("short fmt chunk")
            fmt, ch, rate, _, _, bits = struct.unpack("<HHIIHH", body[:16])
            if fmt != 1 or ch != 1 or bits != 16:
                raise ValueError(
                    f"unsupported WAV encoding (fmt={fmt} ch={ch} bits={bits})")
        elif cid == b"data":
            samples = np.frombuffer(body, dtype="<i2")
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if rate is None or samples is None:
        raise ValueError("missing fmt or data chunk")
    return rate, samples


def synthetic_wav(seed: int, n_samples: int = 2048,
                  sample_rate: int = 8000) -> bytes:
    """Deterministic PCM16 audio for tests/oracles: sample i is
    ``((seed*_PIXEL_MULT + i) mod 65536) - 32768`` — SQL-recomputable
    while the engine only sees RIFF bytes."""
    base = (seed * _PIXEL_MULT) % 65536
    vals = ((base + np.arange(n_samples)) % 65536 - 32768).astype(np.int16)
    return encode_wav(vals, sample_rate)


AUDIO_WINDOW_SCHEMA = pa.schema([
    ("item_id", pa.int64()),
    ("window_no", pa.int32()),
    ("n_samples", pa.int64()),
    ("sum_abs", pa.int64()),
    ("peak", pa.int64()),
])


class AudioWindowStage:
    """REAL audio decode → per-window integer loudness stats (explode:
    1 item → n windows). Parses each RIFF/PCM16 payload, splits the
    sample stream into fixed windows, and emits exact int64 sum-of-|s|
    and peak per window — an oracle-recomputable surface. Same per-row
    containment contract as ``PpmStatsStage``."""

    def __init__(self, window: int = 256, id_col="item_id",
                 payload_col="payload", on_error: str = "raise"):
        assert on_error in ("raise", "skip")
        self.window = window
        self.id_col, self.payload_col = id_col, payload_col
        self.on_error = on_error
        self.error_count = 0

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, wins, ns, sums, peaks = [], [], [], [], []
        for i, payload in zip(t[self.id_col].to_pylist(),
                              t[self.payload_col].to_pylist()):
            try:
                _, samples = decode_wav(payload)
            except ValueError:
                if self.on_error == "raise":
                    raise
                self.error_count += 1
                continue
            # int16 abs overflows at -32768 — widen BEFORE abs
            a = np.abs(samples.astype(np.int64))
            for w0 in range(0, max(len(a), 1), self.window):
                seg = a[w0:w0 + self.window]
                ids.append(i)
                wins.append(w0 // self.window)
                ns.append(len(seg))
                sums.append(int(seg.sum()) if len(seg) else 0)
                peaks.append(int(seg.max()) if len(seg) else 0)
        return pa.table({
            "item_id": pa.array(ids, pa.int64()),
            "window_no": pa.array(wins, pa.int32()),
            "n_samples": pa.array(ns, pa.int64()),
            "sum_abs": pa.array(sums, pa.int64()),
            "peak": pa.array(peaks, pa.int64()),
        })


def _fake_decode(payload: bytes) -> tuple[int, int, np.ndarray]:
    """Deterministic stand-in for an image decode: dimensions and an
    8-dim feature derived from the payload's SipHash (bit-stable across
    processes/nodes)."""
    h = siphash24(payload)
    width = 16 + (h & 0xFF)
    height = 16 + ((h >> 8) & 0xFF)
    rng = np.random.RandomState(h % (2**32))
    return int(width), int(height), rng.rand(8).astype(np.float32)


def _real_features(payload: bytes) -> tuple[int, int, np.ndarray]:
    """REAL decode → 8-dim feature: per-channel means, gray mean, and a
    4-bin gray histogram (fractions). Built from integer sums, so the
    float32 result is bit-stable across processes/nodes."""
    w, h, pix = decode_ppm(payload)
    p = pix.reshape(-1, 3).astype(np.int64)
    n = p.shape[0]
    means = p.sum(axis=0) / n
    gray = p.sum(axis=1) // 3  # integer gray, 0..255
    hist = np.bincount(gray // 64, minlength=4)[:4] / n
    feat = np.concatenate([means / 255.0, [gray.sum() / n / 255.0], hist])
    return w, h, feat.astype(np.float32)


class DecodeImageStage:
    """binary-payload batch → typed image-feature rows.

    Callable stage (``image_features`` runs it per batch in task form).
    ``real_decode=True`` parses binary P6 PPM payloads with the numpy
    codec above (compressed formats — JPEG/PNG — would slot a
    PIL/libvips call into `_real_features`; those libs are absent here,
    and such payloads raise ValueError). ``real_decode=False`` is
    the deterministic fake used when payloads aren't images at all (the
    plumbing demos over text bytes). Keep ``batch_size`` small for large
    payloads (binary rows dominate batch memory)."""

    def __init__(self, id_col="item_id", payload_col="payload",
                 real_decode: bool = False):
        self.id_col, self.payload_col = id_col, payload_col
        self._decode = _real_features if real_decode else _fake_decode

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, nb, ws, hs, feats = [], [], [], [], []
        for i, payload in zip(t[self.id_col].to_pylist(),
                              t[self.payload_col].to_pylist()):
            w, h, f = self._decode(payload)
            ids.append(i)
            nb.append(len(payload))
            ws.append(w)
            hs.append(h)
            feats.append(f.tolist())
        return pa.table({
            "item_id": pa.array(ids, pa.int64()),
            "n_bytes": pa.array(nb, pa.int64()),
            "width": pa.array(ws, pa.int32()),
            "height": pa.array(hs, pa.int32()),
            "feature": pa.array(feats, pa.list_(pa.float32(), 8)),
        })


PPM_STATS_SCHEMA = pa.schema([
    ("item_id", pa.int64()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("sum_r", pa.int64()),
    ("sum_g", pa.int64()),
    ("sum_b", pa.int64()),
])


class PpmStatsStage:
    """REAL image decode → exact integer channel sums (oracle surface).

    Parses each binary P6 PPM payload and emits int64 per-channel pixel
    sums — values a SQL oracle can recompute from the generator formula
    without ever seeing the bytes, so the decode itself is what's under
    test. ``on_error="skip"`` drops malformed payloads (counted per-row
    containment, the reference's ObjectProcessor catch-all semantics);
    ``"raise"`` makes them task-fatal."""

    def __init__(self, id_col="item_id", payload_col="payload",
                 on_error: str = "raise"):
        assert on_error in ("raise", "skip")
        self.id_col, self.payload_col = id_col, payload_col
        self.on_error = on_error
        self.error_count = 0

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, ws, hs = [], [], []
        sums: list[list[int]] = []
        for i, payload in zip(t[self.id_col].to_pylist(),
                              t[self.payload_col].to_pylist()):
            try:
                w, h, pix = decode_ppm(payload)
            except ValueError:
                if self.on_error == "raise":
                    raise
                self.error_count += 1
                continue
            ids.append(i)
            ws.append(w)
            hs.append(h)
            sums.append(pix.reshape(-1, 3).sum(axis=0,
                                               dtype=np.int64).tolist())
        s = np.asarray(sums, dtype=np.int64).reshape(-1, 3)
        return pa.table({
            "item_id": pa.array(ids, pa.int64()),
            "width": pa.array(ws, pa.int32()),
            "height": pa.array(hs, pa.int32()),
            "sum_r": pa.array(s[:, 0]),
            "sum_g": pa.array(s[:, 1]),
            "sum_b": pa.array(s[:, 2]),
        })


class FrameSampleStage:
    """'video' (binary) → k deterministic frame offsets per item: the
    frame-sampling plumbing (explode: 1 row → k rows) with the decode
    stubbed to byte-slices."""

    def __init__(self, k: int = 4, id_col="item_id", payload_col="payload"):
        self.k, self.id_col, self.payload_col = k, id_col, payload_col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, frame_no, offsets, chunks = [], [], [], []
        for i, payload in zip(t[self.id_col].to_pylist(),
                              t[self.payload_col].to_pylist()):
            n = max(1, len(payload))
            for f in range(self.k):
                off = (f * n) // self.k
                ids.append(i)
                frame_no.append(f)
                offsets.append(off)
                chunks.append(payload[off:off + 16])
        return pa.table({
            "item_id": pa.array(ids, pa.int64()),
            "frame_no": pa.array(frame_no, pa.int32()),
            "byte_offset": pa.array(offsets, pa.int64()),
            "frame_bytes": pa.array(chunks, pa.binary()),
        })


def image_features(items_ds, id_col="item_id", payload_col="payload",
                   batch_size: int = 64):
    """Decode stage, task form on warm workers: the stubbed codec has no
    per-actor setup worth a pool ramp. ``batch_size`` stays small because
    the binary payloads are the wide part."""
    def decode_batch(t: pa.Table) -> pa.Table:
        return DecodeImageStage(id_col=id_col, payload_col=payload_col)(t)

    return items_ds.map_batches(decode_batch, batch_format="pyarrow",
                                batch_size=batch_size)


def resize_block_mean(payload: bytes, out_w: int = 8,
                      out_h: int = 8) -> np.ndarray:
    """REAL decode → per-channel block-mean RESIZE to (out_h, out_w):
    integer floor means over the same uneven block partition the aHash
    grid uses ((i*h)//out_h boundaries), so the result is bit-stable
    across platforms and replays exactly in SQL. Returns
    (out_h, out_w, 3) int64."""
    w, h, px = decode_ppm(payload)
    p = px.astype(np.int64)
    ys = (np.arange(out_h + 1, dtype=np.int64) * h) // out_h
    xs = (np.arange(out_w + 1, dtype=np.int64) * w) // out_w
    # 2-D integral image: block sum = four corner lookups, one vectorized
    # pass over the whole out_h×out_w grid (same floor-mean integers as
    # the per-block loop it replaced)
    S = np.zeros((h + 1, w + 1, 3), np.int64)
    np.cumsum(p, axis=0, out=S[1:, 1:])
    np.cumsum(S[1:, 1:], axis=1, out=S[1:, 1:])
    y0, y1 = ys[:-1], np.maximum(ys[1:], ys[:-1] + 1)
    x0, x1 = xs[:-1], np.maximum(xs[1:], xs[:-1] + 1)
    blk = (S[y1[:, None], x1[None, :]] - S[y0[:, None], x1[None, :]]
           - S[y1[:, None], x0[None, :]] + S[y0[:, None], x0[None, :]])
    cnt = ((y1 - y0)[:, None] * (x1 - x0)[None, :])[:, :, None]
    return blk // cnt


def resize_images(items_ds, out_w: int = 8, out_h: int = 8,
                  id_col="item_id", payload_col="payload",
                  batch_size: int = 64):
    """Image RESIZE stage (the thumbnail / model-input-normalization
    step): binary P6 payloads → long-format resized pixels
    (item_id, y, x, r, g, b). Task form (stateless numpy codec);
    per-item error containment — a malformed payload drops its rows,
    never the batch."""
    def fn(t: pa.Table) -> pa.Table:
        ids, ys_, xs_, rs, gs, bs = [], [], [], [], [], []
        yy, xx = np.meshgrid(np.arange(out_h, dtype=np.int64),
                             np.arange(out_w, dtype=np.int64),
                             indexing="ij")
        for i, payload in zip(t[id_col].to_pylist(),
                              t[payload_col].to_pylist()):
            try:
                grid = resize_block_mean(payload, out_w=out_w, out_h=out_h)
            except ValueError:
                continue  # contained per item
            n = out_h * out_w
            ids.append(np.full(n, i, dtype=np.int64))
            ys_.append(yy.reshape(-1))
            xs_.append(xx.reshape(-1))
            rs.append(grid[:, :, 0].reshape(-1))
            gs.append(grid[:, :, 1].reshape(-1))
            bs.append(grid[:, :, 2].reshape(-1))

        def cat(parts):
            return pa.array(np.concatenate(parts) if parts
                            else np.array([], dtype=np.int64), pa.int64())

        return pa.table({"item_id": cat(ids), "y": cat(ys_), "x": cat(xs_),
                         "r": cat(rs), "g": cat(gs), "b": cat(bs)})

    return items_ds.map_batches(fn, batch_format="pyarrow",
                                batch_size=batch_size)


# ---------------------------------------------------------------------------
# Perceptual hash (aHash) + hamming near-dup over decoded images


def phash64(payload: bytes) -> int:
    """64-bit average-hash (aHash) of a P6 PPM payload: REAL decode →
    integer grayscale → 8×8 block-mean downsample → bit = cell > global
    mean. All-integer arithmetic, so the hash is exactly reproducible
    across platforms; robust to small pixel noise and to resizing (the
    block means absorb both)."""
    w, h, px = decode_ppm(payload)
    gray = px.astype(np.int64).sum(axis=2) // 3  # h×w integer luma
    ys = (np.arange(9, dtype=np.int64) * h) // 8
    xs = (np.arange(9, dtype=np.int64) * w) // 8
    grid = np.empty((8, 8), dtype=np.int64)
    for i in range(8):
        y0, y1 = ys[i], max(ys[i + 1], ys[i] + 1)
        for j in range(8):
            x0, x1 = xs[j], max(xs[j + 1], xs[j] + 1)
            blk = gray[y0:y1, x0:x1]
            grid[i, j] = int(blk.sum()) // blk.size
    mean = int(grid.sum()) // 64
    bits = (grid.reshape(-1) > mean).astype(np.uint8)
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


class PhashStage:
    """Actor stage: (item_id, payload) → (item_id, phash int64). Decode
    is per-item Python (headers vary) but bounded by the small-batch
    convention for binary payloads."""

    def __init__(self, id_col="item_id", payload_col="payload"):
        self.id_col, self.payload_col = id_col, payload_col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t[self.id_col].to_pylist()
        hashes = [phash64(p) for p in t[self.payload_col].to_pylist()]
        # store as int64 (two's complement of the uint64 bit pattern)
        arr = np.array(hashes, dtype=np.uint64).astype(np.int64)
        return pa.table({"item_id": pa.array(ids, pa.int64()),
                         "phash": pa.array(arr)})


def phash_neardup_pairs(items_ds, max_hamming: int = 6,
                        id_col="item_id", payload_col="payload",
                        n_parts: int | None = None):
    """Image NEAR-DUP pairs by perceptual hash: aHash per image (task
    form, small binary batches), then the same pigeonhole bucketing the
    simhash path uses — 4 disjoint 16-bit bands; candidates share at
    least one exact band, then an XOR-popcount verify keeps pairs with
    hamming ≤ ``max_hamming``. By pigeonhole the blocking is COMPLETE
    for hamming ≤ 3 (4 bands, so ≤ 3 bit errors leave one band clean);
    at 4-6 it is high-recall best-effort — raise the band count for a
    stricter guarantee. Precision is exact (every emitted pair is
    verified). Returns (item_a, item_b, hamming).

    HOT-BUCKET NOTE (web scale): near-uniform images (black frames,
    blank thumbnails) all share the same aHash and pile into one band
    bucket, making its verify O(b²). The verify is vectorized
    (triu_indices + XOR-popcount, ~10⁸ pairs/s/core), but at 100 TB
    pre-salt such buckets: split any bucket above ~10⁴ members by a
    secondary key (e.g. phash's other bands, or item_id ranges) and
    accept the recall loss only within the degenerate bucket — exact
    dups inside it are better handled by the exact-hash pass anyway."""
    from ..runtime import default_parts
    n_parts = n_parts or default_parts(1.0)
    import pandas as pd

    # task form on warm workers: phash64 is stateless (the aHash grid
    # needs no loaded model), so the signature stage scales with the
    # task scheduler and pays no actor-pool ramp; the sig stream feeds
    # one consumer, so no materialize barrier either.
    def sig_batch(t: pa.Table) -> pa.Table:
        return PhashStage(id_col=id_col, payload_col=payload_col)(t)

    sigs = items_ds.map_batches(sig_batch, batch_format="pyarrow",
                                batch_size=64)

    def explode_bands(t: pa.Table) -> pa.Table:
        h = t["phash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = t["item_id"].to_numpy(zero_copy_only=False)
        bands, band_vals, out_ids, hs = [], [], [], []
        for b in range(4):
            bands.append(np.full(len(h), b, dtype=np.int32))
            band_vals.append(((h >> np.uint64(16 * b))
                              & np.uint64(0xFFFF)).astype(np.int64))
            out_ids.append(ids)
            hs.append(h.astype(np.int64))
        return pa.table({
            "band": pa.array(np.concatenate(bands)),
            "band_val": pa.array(np.concatenate(band_vals)),
            "item_id": pa.array(np.concatenate(out_ids).astype(np.int64)),
            "phash": pa.array(np.concatenate(hs)),
        })

    def tag(t: pa.Table) -> pa.Table:
        key = (t["band"].to_numpy(zero_copy_only=False).astype(np.int64)
               * 65536 + t["band_val"].to_numpy(zero_copy_only=False))
        return t.append_column(
            "part", pa.array((key % n_parts).astype(np.int32)))

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized wedge emission + XOR-popcount (the triangle_count
        # pattern) — no interpreted per-pair loop, so a degenerate
        # bucket of near-identical images costs numpy time, not Python
        chunks = []
        for _, grp in df.groupby(["band", "band_val"]):
            if len(grp) < 2:
                continue
            ids = grp["item_id"].to_numpy()
            hs = grp["phash"].to_numpy().astype(np.uint64)
            order = np.argsort(ids)
            ids, hs = ids[order], hs[order]
            ia, ja = np.triu_indices(len(ids), k=1)
            x = hs[ia] ^ hs[ja]
            d = np.unpackbits(x.view(np.uint8).reshape(len(x), 8),
                              axis=1).sum(axis=1).astype(np.int64)
            keep = (d <= max_hamming) & (ids[ia] != ids[ja])
            chunks.append(np.stack([ids[ia][keep], ids[ja][keep],
                                    d[keep]], axis=1))
        P = (np.concatenate(chunks) if chunks
             else np.empty((0, 3), dtype=np.int64))
        return pd.DataFrame({
            "item_a": P[:, 0].astype("int64"),
            "item_b": P[:, 1].astype("int64"),
            "hamming": P[:, 2].astype("int64")})

    pairs = (sigs.map_batches(explode_bands, batch_format="pyarrow")
             .map_batches(tag, batch_format="pyarrow")
             .groupby("part").map_groups(bucket_pairs,
                                         batch_format="pandas"))

    # a pair can match in up to 4 bands — one bounded pair-keyed distinct
    def tag_pair(t: pa.Table) -> pa.Table:
        key = (t["item_a"].to_numpy(zero_copy_only=False) * 1_000_003
               + t["item_b"].to_numpy(zero_copy_only=False))
        return t.append_column(
            "part", pa.array((key % n_parts).astype(np.int32)))

    def pair_distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df[["item_a", "item_b", "hamming"]].drop_duplicates(
            ["item_a", "item_b"])

    return (pairs.map_batches(tag_pair, batch_format="pyarrow")
            .groupby("part").map_groups(pair_distinct,
                                        batch_format="pandas"))


def split_ppm_stream(payload: bytes) -> list[bytes]:
    """Split a concatenated-P6-PPM 'video' payload into its frames —
    a REAL sequential container parse: each frame's length is derived
    from its own header (dims → pixel-plane size), so variable-sized
    frames are fine. Raises ValueError on a malformed frame so callers
    can contain per-item."""
    frames, pos = [], 0
    while pos < len(payload):
        # frame end = this frame's own header length + pixel-plane size;
        # NEVER search for a header substring (b"255\n" also matches a
        # 255-valued dimension token and would mis-split the stream)
        w, h, hdr_len = _ppm_header(payload[pos:])
        end = pos + hdr_len + w * h * 3
        if end > len(payload):
            raise ValueError("truncated PPM frame in stream")
        frames.append(payload[pos:end])
        pos = end
    return frames


class SceneChangeStage:
    """'video' (concatenated PPM frames) → per-frame rows with the
    perceptual-hash distance to the previous frame and a cut flag —
    the shot-boundary / scene-change detector, built on the REAL frame
    container parse + the all-integer aHash. Frame 0 has distance 0 and
    is never a cut. Errors (malformed container) are contained per item
    and counted, never failing the batch."""

    def __init__(self, cut_hamming: int = 12, id_col="item_id",
                 payload_col="payload"):
        self.cut_hamming = cut_hamming
        self.id_col, self.payload_col = id_col, payload_col
        self.errors = 0

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, frame_no, dist, cut = [], [], [], []
        for i, payload in zip(t[self.id_col].to_pylist(),
                              t[self.payload_col].to_pylist()):
            try:
                hashes = [phash64(f) for f in split_ppm_stream(payload)]
            except ValueError:
                self.errors += 1
                continue
            prev = None
            for f, hsh in enumerate(hashes):
                d = 0 if prev is None else int(bin(prev ^ hsh).count("1"))
                ids.append(i)
                frame_no.append(f)
                dist.append(d)
                cut.append(f > 0 and d >= self.cut_hamming)
                prev = hsh
        return pa.table({
            "item_id": pa.array(ids, pa.int64()),
            "frame_no": pa.array(frame_no, pa.int64()),
            "hamming_prev": pa.array(dist, pa.int64()),
            "is_cut": pa.array(cut, pa.bool_()),
        })


def scene_changes(items_ds, cut_hamming: int = 12, id_col="item_id",
                  payload_col="payload"):
    """Scene-change detection over a binary 'video' column (small
    batches — payloads are the wide part). TASK form on warm workers:
    the decode+aHash walk is stateless, so it scales with the task
    scheduler and pays no actor ramp (a hardcoded concurrency=2 starved
    this stage at 32 CPUs; a full-width pool over-provisioned it at toy
    scale)."""
    kwargs = {"cut_hamming": cut_hamming, "id_col": id_col,
              "payload_col": payload_col}

    def scene_batch(t: pa.Table) -> pa.Table:
        return SceneChangeStage(**kwargs)(t)

    return items_ds.map_batches(scene_batch, batch_format="pyarrow",
                                batch_size=32)


def audio_zcr(items_ds, window: int = 256, id_col="item_id",
              payload_col="payload", batch_size: int = 64):
    """REAL audio decode → per-window ZERO-CROSSING COUNT (the classic
    integer voicing/noisiness feature): within each fixed window, the
    number of consecutive-sample sign changes ((s[i-1] < 0) ≠ (s[i] <
    0); pairs never span windows). All-integer — the oracle recomputes
    it from the synthetic generator formula alone while the engine only
    sees RIFF bytes. Task form (stateless numpy codec); per-item error
    containment."""
    def fn(t: pa.Table) -> pa.Table:
        ids, wins, zcs = [], [], []
        for i, payload in zip(t[id_col].to_pylist(),
                              t[payload_col].to_pylist()):
            try:
                _, samples = decode_wav(payload)
            except ValueError:
                continue  # contained per item
            if len(samples) == 0:
                continue
            n_win = -(-len(samples) // window)
            neg = samples < 0
            idx = np.arange(1, len(samples), dtype=np.int64)
            chg = (neg[1:] != neg[:-1]) & ((idx % window) != 0)
            counts = np.bincount((idx // window)[chg], minlength=n_win)
            ids.append(np.full(n_win, i, dtype=np.int64))
            wins.append(np.arange(n_win, dtype=np.int32))
            zcs.append(counts.astype(np.int64))

        def cat(parts, dt):
            return pa.array(
                np.concatenate(parts) if parts else np.array([], dtype=dt))

        return pa.table({
            "item_id": cat(ids, np.int64),
            "window_no": cat(wins, np.int32),
            "n_zc": cat(zcs, np.int64),
        })

    return items_ds.map_batches(fn, batch_format="pyarrow",
                                batch_size=batch_size)


def audio_pitch(items_ds, window: int = 256, min_lag: int = 2,
                max_lag: int = 32, id_col="item_id",
                payload_col="payload", batch_size: int = 64):
    """REAL audio decode → per-window integer AUTOCORRELATION pitch:
    the lag in [min_lag, max_lag] maximizing ``R(lag) = Σ s[i]·s[i−lag]``
    (pairs confined to the window, ties → smallest lag), plus the
    winning correlation value — the classic pitch/periodicity detector,
    kept all-integer (int16 products summed in int64) so the oracle
    recomputes it from the synthetic generator formula alone while the
    engine only sees RIFF bytes. Task form (stateless numpy codec);
    per-item error containment like `audio_zcr`.

    Vectorized across windows: samples reshape to (n_win, window) with
    zero padding (padding contributes zero products, so tail windows
    stay exact); each lag is one einsum over the window matrix.
    Returns (item_id, window_no, best_lag, r_best)."""
    lags = np.arange(min_lag, max_lag + 1, dtype=np.int64)

    def fn(t: pa.Table) -> pa.Table:
        ids, wins, bests, rs = [], [], [], []
        for i, payload in zip(t[id_col].to_pylist(),
                              t[payload_col].to_pylist()):
            try:
                _, samples = decode_wav(payload)
            except ValueError:
                continue  # contained per item
            if len(samples) == 0:
                continue
            n_win = -(-len(samples) // window)
            w = np.zeros(n_win * window, dtype=np.int64)
            w[:len(samples)] = samples.astype(np.int64)
            w = w.reshape(n_win, window)
            r = np.empty((n_win, len(lags)), dtype=np.int64)
            for k, lag in enumerate(lags):
                r[:, k] = np.einsum("ij,ij->i", w[:, lag:], w[:, :-lag])
            k_best = r.argmax(axis=1)  # first max → smallest lag wins
            ids.append(np.full(n_win, i, dtype=np.int64))
            wins.append(np.arange(n_win, dtype=np.int32))
            bests.append(lags[k_best])
            rs.append(r[np.arange(n_win), k_best])

        def cat(parts, dt):
            return pa.array(
                np.concatenate(parts) if parts else np.array([], dtype=dt))

        return pa.table({
            "item_id": cat(ids, np.int64),
            "window_no": cat(wins, np.int32),
            "best_lag": cat(bests, np.int64),
            "r_best": cat(rs, np.int64),
        })

    return items_ds.map_batches(fn, batch_format="pyarrow",
                                batch_size=batch_size)


class PpmHistStage:
    """REAL image decode → 16-bin grayscale histogram profile (oracle
    surface): per image, gray = (r+g+b)//3 per pixel, bin = gray//16,
    and the exposure/contrast stats a curation gate thresholds on —
    distinct gray levels (flat synthetic renders have few), the
    dominant bin and its count (blown-out/black frames concentrate),
    and the integer concentration Σ count² (the Gini/collision proxy;
    entropy needs logs, collision probability doesn't). Same per-item
    containment contract as `PpmStatsStage`."""

    def __init__(self, id_col="item_id", payload_col="payload",
                 on_error: str = "raise"):
        assert on_error in ("raise", "skip")
        self.id_col, self.payload_col = id_col, payload_col
        self.on_error = on_error
        self.error_count = 0

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, npx, nlev, tb, tc, conc = [], [], [], [], [], []
        for i, payload in zip(t[self.id_col].to_pylist(),
                              t[self.payload_col].to_pylist()):
            try:
                w, h, pix = decode_ppm(payload)
            except ValueError:
                if self.on_error == "raise":
                    raise
                self.error_count += 1
                continue
            gray = pix.astype(np.int64).sum(axis=2) // 3
            cnt = np.bincount((gray // 16).ravel(), minlength=16)
            ids.append(i)
            npx.append(w * h)
            nlev.append(len(np.unique(gray)))
            tb.append(int(cnt.argmax()))          # first max = min bin
            tc.append(int(cnt.max()))
            conc.append(int((cnt.astype(np.int64) ** 2).sum()))
        return pa.table({
            self.id_col: pa.array(ids, pa.int64()),
            "n_pixels": pa.array(npx, pa.int64()),
            "n_levels": pa.array(nlev, pa.int64()),
            "top_bin": pa.array(tb, pa.int64()),
            "top_count": pa.array(tc, pa.int64()),
            "concentration": pa.array(conc, pa.int64())})


class AudioGainStage:
    """REAL audio decode → integer PEAK-NORMALIZATION profile: the
    loudness-normalize step an audio-training pipeline runs before
    featurization, kept integer-exact — per item, the peak |sample|,
    the ×1000 gain that scales it to at least full range (CEIL:
    ``ceil(32767·1000 / max(peak, 1))``), the normalized magnitude sum,
    and how many samples would clip under that gain (all divisions on
    non-negative operands, so both sides floor identically). Same
    per-item containment contract as `PpmStatsStage`."""

    def __init__(self, id_col="item_id", payload_col="payload",
                 on_error: str = "raise"):
        assert on_error in ("raise", "skip")
        self.id_col, self.payload_col = id_col, payload_col
        self.on_error = on_error
        self.error_count = 0

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, ns, pk, gn, sm, cl = [], [], [], [], [], []
        for i, payload in zip(t[self.id_col].to_pylist(),
                              t[self.payload_col].to_pylist()):
            try:
                rate, samples = decode_wav(payload)
            except ValueError:
                if self.on_error == "raise":
                    raise
                self.error_count += 1
                continue
            a = np.abs(samples.astype(np.int64))
            peak = int(a.max()) if len(a) else 0
            # CEIL gain (round up to full range): floor gain can never
            # clip by construction (peak*floor <= 32767000 for every
            # input), which made the clip column vacuous; under ceil,
            # near-peak samples may round past the rail — the real
            # normalize-then-clip tradeoff the column measures
            gain = -(-32767_000 // max(peak, 1))
            norm = a * gain // 1000
            ids.append(i)
            ns.append(len(a))
            pk.append(peak)
            gn.append(gain)
            sm.append(int(norm.sum()))
            cl.append(int((norm > 32767).sum()))
        return pa.table({
            self.id_col: pa.array(ids, pa.int64()),
            "n_samples": pa.array(ns, pa.int64()),
            "peak": pa.array(pk, pa.int64()),
            "gain_milli": pa.array(gn, pa.int64()),
            "sum_abs_norm": pa.array(sm, pa.int64()),
            "n_clipped": pa.array(cl, pa.int64())})
