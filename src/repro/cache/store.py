"""Content-addressed stage store on the filesystem.

Layout (under ``~/.cache/repro`` by default, overridable with
``--cache-dir`` or ``$REPRO_CACHE_DIR``)::

    <root>/v1/<key[:2]>/<key>.pkl    # pickled cumulative flow state
    <root>/v1/<key[:2]>/<key>.json   # sidecar: stage identity, metric journal, span names

Each entry is one flow stage's **cumulative checkpoint**: the complete
state dict a flow has built up to that stage boundary, pickled as a
single object graph.  Cumulative (rather than per-stage output)
checkpoints are what make rehydration safe here: the flows mutate
shared netlist objects across stages (sizing swaps instance masters,
S2D shrinks and restores cells), so separately-pickled stage outputs
would rehydrate *disjoint* copies of the netlist whose mutations
diverge.  One pickle → one graph → downstream stages see exactly the
references a cold run would have.

The JSON sidecar is intentionally separate from the pickle: a cache
*hit* only needs the sidecar (stage identity, the metric journal and
top-level span names to replay, key facts) — the pickle is loaded
lazily, and a fully-warm run unpickles exactly one checkpoint, the
deepest.

Each file is written atomically (tmp + ``os.replace``), the pickle
before its sidecar, so a reader that finds a sidecar also finds a whole
pickle.  Concurrent writers of one key race benignly: the pickle loads
as exactly one writer's state, though the sidecar may be the other
writer's.  That pairing is safe because the key covers the stage's
inputs and the package source, so both writers computed the same state.

Loads and stores run inside a flow, where the cyclic collector is
paused (:data:`repro.flows.base.collector_paused`): unpickling or
pickling a checkpoint allocates millions of containers, and with the
collector on each such burst sets off full collections that re-scan
the live design graph.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

CACHE_SCHEMA = "repro.cache/v1"

#: Subdirectory under the cache root; bump with the schema.
_SCHEMA_DIR = "v1"

#: Default cache root (expanded at resolve time).
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro")


class CacheError(RuntimeError):
    """A cache entry exists but cannot be rehydrated (corrupt pickle,
    files removed mid-run).  ``repro cache clear`` recovers."""


#: Pickling netlist connectivity recurses instance → net → instance to
#: the design's logic depth, which blows the default interpreter stack
#: well below bench scales.  dumps() therefore runs on a dedicated
#: thread with a large stack; loads() is opcode-driven (iterative) and
#: needs neither, keeping the warm path free of this machinery.
_DUMP_STACK_BYTES = 512 * 1024 * 1024
_DUMP_RECURSION_LIMIT = 2_000_000

#: The recursion limit and the thread stack size are process-wide, so
#: concurrent dumps must not interleave their save/raise/restore: one
#: thread's restore would cut another's dump short (RecursionError) or
#: leave the raised values behind.
_DUMP_LOCK = threading.Lock()


def _deep_dumps(obj: Any) -> bytes:
    """``pickle.dumps`` that tolerates design-depth object graphs."""
    out: Dict[str, Any] = {}

    def work() -> None:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_DUMP_RECURSION_LIMIT)
        try:
            out["blob"] = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # surfaced on the calling thread
            out["error"] = exc
        finally:
            sys.setrecursionlimit(limit)

    with _DUMP_LOCK:
        previous = threading.stack_size(_DUMP_STACK_BYTES)
        try:
            worker = threading.Thread(target=work, name="repro-cache-pickle")
            worker.start()
        finally:
            threading.stack_size(previous)
        worker.join()
    if "error" in out:
        raise out["error"]
    return out["blob"]


def resolve_cache_dir(cache_dir: Optional[str] = None) -> str:
    """--cache-dir > $REPRO_CACHE_DIR > ~/.cache/repro, absolutized."""
    path = cache_dir or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
    return os.path.abspath(os.path.expanduser(path))


@dataclass
class CacheStats:
    """Aggregate footprint of one cache root."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    by_stage: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": CACHE_SCHEMA,
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "by_stage": dict(sorted(self.by_stage.items())),
        }


class StageCache:
    """One cache root: lookup / store / stats over stage checkpoints.

    Sidecar metadata is memoized in-process (``_index``), so a warm
    worker that runs the same scenario repeatedly touches the sidecar
    files once and answers subsequent lookups from memory — the "cache
    index stays hot" half of the serve story.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self.root = resolve_cache_dir(cache_dir)
        self._index: Dict[str, Dict[str, Any]] = {}

    # -- paths ---------------------------------------------------------------------

    def _dir(self, key: str) -> str:
        return os.path.join(self.root, _SCHEMA_DIR, key[:2])

    def state_path(self, key: str) -> str:
        return os.path.join(self._dir(key), f"{key}.pkl")

    def meta_path(self, key: str) -> str:
        return os.path.join(self._dir(key), f"{key}.json")

    # -- lookup / load / store -----------------------------------------------------

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry's sidecar metadata, or None on a miss.

        Never touches the pickle — hits stay cheap until (unless) the
        state is actually needed.
        """
        meta = self._index.get(key)
        if meta is not None:
            return meta
        path = self.meta_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(meta, dict)
            or meta.get("schema") != CACHE_SCHEMA
            or not os.path.exists(self.state_path(key))
        ):
            return None
        self._index[key] = meta
        return meta

    def load_state(self, key: str) -> Dict[str, Any]:
        """Unpickle one checkpoint (raises :class:`CacheError` if torn)."""
        path = self.state_path(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ValueError, ImportError) as exc:
            raise CacheError(
                f"cache entry {key[:12]}… unreadable ({exc}); "
                "run `repro cache clear` to reset the store"
            ) from exc

    def store(
        self,
        key: str,
        state: Dict[str, Any],
        journal: List[Any],
        stage: str,
        flow: str = "",
        facts: Optional[Dict[str, Any]] = None,
        wall_s: float = 0.0,
        spans: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """Persist one checkpoint atomically; returns the sidecar meta."""
        directory = self._dir(key)
        os.makedirs(directory, exist_ok=True)
        blob = _deep_dumps(state)
        self._write_atomic(self.state_path(key), blob)
        meta = {
            "schema": CACHE_SCHEMA,
            "stage": stage,
            "flow": flow,
            "facts": facts or {},
            "journal": [list(entry) for entry in journal],
            "spans": list(spans or []),
            "state_bytes": len(blob),
            "wall_s": round(float(wall_s), 6),
            "created_unix": round(time.time(), 3),
        }
        self._write_atomic(
            self.meta_path(key),
            json.dumps(meta, sort_keys=True).encode("utf-8"),
        )
        self._index[key] = meta
        return meta

    def _write_atomic(self, path: str, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance ---------------------------------------------------------------

    def stats(self) -> CacheStats:
        """Walk the store: entry count, bytes, entries per stage."""
        stats = CacheStats(root=self.root)
        base = os.path.join(self.root, _SCHEMA_DIR)
        if not os.path.isdir(base):
            return stats
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in filenames:
                full = os.path.join(dirpath, name)
                try:
                    size = os.path.getsize(full)
                except OSError:
                    continue
                stats.total_bytes += size
                if name.endswith(".json"):
                    stats.entries += 1
                    try:
                        with open(full, "r", encoding="utf-8") as handle:
                            stage = json.load(handle).get("stage", "?")
                    except (OSError, json.JSONDecodeError):
                        stage = "?"
                    stats.by_stage[stage] = stats.by_stage.get(stage, 0) + 1
        return stats

    def clear(self) -> int:
        """Delete every entry under this root; returns entries removed."""
        removed = 0
        base = os.path.join(self.root, _SCHEMA_DIR)
        if not os.path.isdir(base):
            return 0
        for dirpath, _dirnames, filenames in os.walk(base, topdown=False):
            for name in filenames:
                try:
                    os.unlink(os.path.join(dirpath, name))
                except OSError:
                    continue
                if name.endswith(".json"):
                    removed += 1
            try:
                os.rmdir(dirpath)
            except OSError:
                pass
        self._index.clear()
        return removed


# -- ambient activation ----------------------------------------------------------------
#
# Flows pick the cache up from a process-global slot (mirroring the obs
# recorder design): no slot set → StageChain.begin() degrades to plain
# sequential compute with zero hashing or I/O.

_ACTIVE_CACHE: Optional[StageCache] = None
_CACHES: Dict[str, StageCache] = {}


def get_cache(cache_dir: Optional[str] = None) -> StageCache:
    """The per-process singleton :class:`StageCache` for a root.

    Singleton-per-root keeps the in-memory sidecar index warm across
    jobs inside a long-lived serve worker.
    """
    root = resolve_cache_dir(cache_dir)
    cache = _CACHES.get(root)
    if cache is None:
        cache = StageCache(root)
        _CACHES[root] = cache
    return cache


def active_cache() -> Optional[StageCache]:
    """The ambient cache flows should consult (None → caching off)."""
    return _ACTIVE_CACHE


@contextmanager
def caching(cache: Optional[StageCache]) -> Iterator[Optional[StageCache]]:
    """Scoped ambient-cache activation (None → no-op block)."""
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    try:
        yield cache
    finally:
        _ACTIVE_CACHE = previous
