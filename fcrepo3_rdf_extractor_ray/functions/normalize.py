"""Surface-form normalization for entity canonicalization.

The analog of the reference's deterministic key encoding
(``ObjectProcessor.getBlobId``, ObjectProcessor.java:293-341: idempotent,
reversible, percent-encoded ids). Here: NFKC → casefold (lang-fold) →
strip non-alphanumerics. Idempotent by construction (tested).
"""

from __future__ import annotations

import re
import unicodedata

_NON_ALNUM = re.compile(r"[^0-9a-zÀ-ɏ一-鿿]+")


def norm_surface(s: str) -> str:
    """Normalize one entity surface form. Idempotent.

    Surfaces written entirely in scripts outside the strip class
    (Cyrillic, Greek, Hangul, Arabic, ...) would otherwise all normalize
    to "" and spuriously merge into one skolem entity; such surfaces fall
    back to a stable hash of the folded form instead (prefix ``zx`` +
    hex = pure [0-9a-z], so the fallback is itself a fixed point)."""
    folded = unicodedata.normalize("NFKC", s).casefold()
    out = _NON_ALNUM.sub("", folded)
    if not out and folded:
        import hashlib

        out = "zx" + hashlib.blake2b(
            folded.encode("utf-8"), digest_size=8).hexdigest()
    return out


def skolem_iri(norm: str) -> str:
    """Skolem IRI for an entity surface with no alias-dictionary entry.
    Derived from the normalized surface (reversible, like the reference's
    percent-encoded external ids, HashPathIdMapper.java:162-195)."""
    return f"ent:sk:{norm}"
