"""StageChain: the flow-side protocol of the stage cache.

A flow run is a linear sequence of stage boundaries.  The chain walks
them in order, maintaining two things:

- the **running key** — each ``run()`` chains the stage name + knobs
  onto the previous key (:func:`~repro.cache.keys.stage_key`), so the
  key of stage N transitively covers every input of stages 1..N;
- the **state dict** — the cumulative flow state (tile, floorplan,
  placement, routed grid, ...) that stage computes mutate in place and
  checkpoints snapshot.

**One checkpoint per knob boundary.**  A stage with no inputs of its
own has a key that is a pure function of the key before it, so its
checkpoint could never be the point a run resumes from.  ``run()``
therefore rejects such a stage after the first (cache on or off); its
work belongs in the compute of the stage before it.

On a **hit** the chain does *not* unpickle anything: it replays the
stage's metric journal (so counters/gauges/histograms in the trace are
byte-identical to a cold run), re-emits the spans the compute opened
at its top level, tagged ``cache="hit"``, and remembers the checkpoint
key.  The pickle is materialized lazily — on the first miss that
actually needs upstream state, or when the flow reads :attr:`state` at
the end.  A fully-warm run therefore costs one unpickle (the deepest
checkpoint) plus journal replays.  A miss tags the compute's top-level
spans ``cache="miss"`` as they open (so the live event stream carries
the tag too) and adds none, so a cached trace has the span tree of an
uncached one.

With no ambient cache (:func:`~repro.cache.store.active_cache` is
None) every ``run()`` degrades to a plain function call: no hashing,
no I/O — the flows behave exactly as before this subsystem existed.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache.keys import canonical_fingerprint, chain_key, stage_key
from repro.cache.store import StageCache, active_cache
from repro.obs import count, journaling, opened_spans, replay_journal, span

#: A stage compute: mutates the state dict in place; optionally returns
#: a small JSON-safe "facts" dict folded into downstream keys (e.g. the
#: netlist fingerprint discovered by build_tile).
StageCompute = Callable[[Dict[str, Any]], Optional[Dict[str, Any]]]


class StageChain:
    """One flow run's ordered walk over cacheable stage boundaries."""

    def __init__(self, flow: str, cache: Optional[StageCache], key: str):
        self.flow = flow
        self._cache = cache
        self._key = key
        self._state: Dict[str, Any] = {}
        #: Key of the deepest hit checkpoint not yet unpickled.
        self._pending: Optional[str] = None
        self.hits = 0
        self.misses = 0
        #: ``(stage, "hit"|"miss"|"computed")`` in execution order.
        self.stages: List[Tuple[str, str]] = []

    # -- construction --------------------------------------------------------------

    @staticmethod
    def begin(flow: str, **inputs: Any) -> "StageChain":
        """Open a chain against the ambient cache (or a null chain).

        ``inputs`` are the run-level facts every stage depends on:
        tile config, scale, technology presets, floorplan options.
        They are only fingerprinted when a cache is actually active.
        """
        cache = active_cache()
        if cache is None:
            return StageChain(flow, None, "")
        return StageChain(flow, cache, chain_key(flow, inputs))

    @property
    def enabled(self) -> bool:
        return self._cache is not None

    @property
    def key(self) -> str:
        """The current running key ("" when caching is off)."""
        return self._key

    # -- state access --------------------------------------------------------------

    @property
    def state(self) -> Dict[str, Any]:
        """The live flow state (materializes a pending checkpoint)."""
        self._materialize()
        return self._state

    def put(self, **objs: Any) -> None:
        """Seed state carried in from the caller (e.g. a prebuilt tile)."""
        self._materialize()
        self._state.update(objs)

    def extend(self, **facts: Any) -> None:
        """Fold caller-known facts into the running key (no-op when off)."""
        if self._cache is not None:
            self._key = canonical_fingerprint((self._key, facts))

    def _materialize(self) -> None:
        if self._pending is not None:
            key, self._pending = self._pending, None
            self._state = self._cache.load_state(key)

    # -- the stage protocol --------------------------------------------------------

    def run(
        self,
        name: str,
        compute: StageCompute,
        **inputs: Any,
    ) -> Optional[Dict[str, Any]]:
        """Execute (or skip) one stage.

        ``inputs`` are the stage's own knobs — and *only* its own: keys
        must not over-approximate, or edits reuse less than they could
        (changing ``sizing_iterations`` should hit everything upstream
        of signoff).  Upstream coupling comes from the chained key.
        Only the chain's first stage may have none.
        """
        if not inputs and self.stages:
            raise ValueError(
                f"stage {name!r} has no inputs of its own: its checkpoint "
                "could never be resumed from, so fold its compute into "
                "the stage before it"
            )
        if self._cache is None:
            compute(self._state)
            self.stages.append((name, "computed"))
            return None
        self._key = stage_key(name, self._key, inputs)
        tag = self._key[:12]
        entry = self._cache.lookup(self._key)
        if entry is not None and entry.get("stage") == name:
            self.hits += 1
            facts = entry.get("facts") or {}
            count("cache_hit", 1)
            replay_journal(entry.get("journal") or [])
            # Empty spans: the work was done when the entry was stored.
            for span_name in entry.get("spans") or [name]:
                with span(span_name, cache="hit", key=tag):
                    pass
            self._pending = self._key
            self.stages.append((name, "hit"))
            if facts:
                self._key = canonical_fingerprint((self._key, facts))
            return facts
        # Miss: the compute needs real upstream state.
        self._materialize()
        self.misses += 1
        started = time.perf_counter()
        count("cache_miss", 1)
        with journaling() as journal, \
                opened_spans(cache="miss", key=tag) as spans:
            facts = compute(self._state) or {}
        self._cache.store(
            self._key,
            self._state,
            journal,
            stage=name,
            flow=self.flow,
            facts=facts,
            wall_s=time.perf_counter() - started,
            spans=[record.name for record in spans],
        )
        count("cache_store", 1)
        self.stages.append((name, "miss"))
        if facts:
            self._key = canonical_fingerprint((self._key, facts))
        return facts
