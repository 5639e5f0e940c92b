"""Content-addressed incremental stage cache (``repro.cache``).

Every flow stage boundary (build_tile → floorplan → global_place →
legalize → global_route → layer_assign → cts → extract → sta → verify,
plus the pseudo/partition stages of S2D and C2D) is a cacheable unit:
its key hashes the canonical inputs — netlist content, tech preset,
flow name, the stage's own knobs, and the upstream stage key — and its
value is the cumulative flow state checkpoint at that boundary.

A repeat run becomes a chain of cache hits that collapses to one
unpickle of the deepest checkpoint; a partially-edited request (say,
new ``sizing_iterations`` with the same placement knobs) reuses every
stage upstream of the edit.  Hits/misses/stores surface as ``cache_*``
obs counters and ``cache="hit"|"miss"`` span tags, and each hit
replays the stage's metric journal so warm artifacts are QoR
byte-identical to cold ones.

Three layers:

- :mod:`repro.cache.keys` — canonical fingerprints (byte-stable across
  processes and ``PYTHONHASHSEED``, order-insensitive, type-tagged);
- :mod:`repro.cache.store` — the ``~/.cache/repro`` filesystem store
  with atomic writes, sidecar journals, and ambient activation;
- :mod:`repro.cache.chain` — the :class:`StageChain` protocol the
  flows speak.
"""

from repro.cache.keys import (
    UnhashableInputError,
    canonical_fingerprint,
    chain_key,
    netlist_fingerprint,
    stage_key,
)
from repro.cache.store import (
    CACHE_SCHEMA,
    CacheError,
    CacheStats,
    DEFAULT_CACHE_DIR,
    StageCache,
    active_cache,
    caching,
    get_cache,
    resolve_cache_dir,
)
from repro.cache.chain import StageChain

__all__ = [
    "CACHE_SCHEMA",
    "CacheError",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "StageCache",
    "StageChain",
    "UnhashableInputError",
    "active_cache",
    "caching",
    "canonical_fingerprint",
    "chain_key",
    "get_cache",
    "netlist_fingerprint",
    "resolve_cache_dir",
    "stage_key",
]
