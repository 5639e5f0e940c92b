"""Deterministic cache keys for flow stages.

A stage's cache key must be a pure function of *what the stage
computes from*: the netlist content, the technology preset, the flow
name, the stage's own knobs, and the key of the upstream stage it
consumes.  Two properties are load-bearing (and property-tested in
``tests/test_cache.py``):

- **byte-stability** — the same logical inputs hash identically across
  processes, interpreter restarts, and ``PYTHONHASHSEED`` values.  We
  therefore never hash ``pickle`` output (memo ids and protocol details
  leak into it) or rely on dict/set iteration order; every container is
  canonicalized (dicts and sets sort) before hashing.
- **sensitivity** — changing any knob, any netlist bit, or any upstream
  stage key changes the key.  Type tags keep ``1``, ``1.0``, ``"1"``
  and ``True`` distinct.

Keys also cover the implementation: every chain key folds in
:func:`source_digest` of the ``repro`` package, so any edit to any
``.py`` file under it invalidates every entry.  Nothing has to be
bumped by hand, and no checkpoint is served to code other than the
code that wrote it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import os
from typing import Any, Dict, Mapping, Optional

import numpy as np

class UnhashableInputError(TypeError):
    """An object that cannot be canonically fingerprinted was used as a
    cache-key input (functions, open files, arbitrary class instances
    with reference cycles, ...)."""


def _canonical(obj: Any, depth: int = 0) -> str:
    """Render ``obj`` as a canonical, type-tagged token string."""
    if depth > 32:
        raise UnhashableInputError("cache-key input nests deeper than 32")
    if obj is None:
        return "N"
    if obj is True:
        return "T"
    if obj is False:
        return "F"
    if isinstance(obj, enum.Enum):
        return f"E:{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, int):
        return f"i:{obj}"
    if isinstance(obj, float):
        # repr() is the shortest round-tripping decimal form: exact,
        # stable across platforms, and distinguishes -0.0 from 0.0.
        return f"f:{obj!r}"
    if isinstance(obj, str):
        return f"s:{len(obj)}:{obj}"
    if isinstance(obj, (bytes, bytearray)):
        return f"b:{hashlib.sha256(bytes(obj)).hexdigest()}"
    if isinstance(obj, np.ndarray):
        buf = np.ascontiguousarray(obj)
        return (
            f"a:{buf.dtype.str}:{buf.shape}:"
            f"{hashlib.sha256(buf.tobytes()).hexdigest()}"
        )
    if isinstance(obj, np.generic):
        return _canonical(obj.item(), depth + 1)
    if isinstance(obj, (list, tuple)):
        inner = ",".join(_canonical(item, depth + 1) for item in obj)
        return f"L[{inner}]"
    if isinstance(obj, Mapping):
        items = sorted(
            (_canonical(k, depth + 1), _canonical(v, depth + 1))
            for k, v in obj.items()
        )
        inner = ",".join(f"{k}={v}" for k, v in items)
        return f"D{{{inner}}}"
    if isinstance(obj, (set, frozenset)):
        inner = ",".join(sorted(_canonical(item, depth + 1) for item in obj))
        return f"S{{{inner}}}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(obj, f.name), depth + 1)}"
            for f in dataclasses.fields(obj)
        )
        return f"C:{type(obj).__qualname__}({fields})"
    # Plain value objects (tech presets, layer stacks): hash their
    # attribute state under a class tag.  Anything cleverer than that
    # (closures, handles) is rejected.
    state = getattr(obj, "__dict__", None)
    if state is not None and not callable(obj):
        return f"O:{type(obj).__qualname__}:{_canonical(state, depth + 1)}"
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None and not callable(obj):
        values = {
            name: getattr(obj, name)
            for name in slots
            if hasattr(obj, name)
        }
        return f"O:{type(obj).__qualname__}:{_canonical(values, depth + 1)}"
    raise UnhashableInputError(
        f"cannot use {type(obj).__qualname__!r} as a cache-key input"
    )


def canonical_fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of an object's canonical form.

    Stable across processes and hash seeds; insensitive to dict/set
    insertion order; sensitive to every value and its type.
    """
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


def source_digest(root: str) -> str:
    """SHA-256 over every ``.py`` file under ``root``.

    Files are fed in sorted order of their ``/``-separated relative
    paths, each as ``path, length, bytes``, so the digest depends only
    on the file tree's names and contents.
    """
    paths = sorted(
        os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/")
        for dirpath, _dirnames, filenames in os.walk(root)
        for name in filenames
        if name.endswith(".py")
    )
    digest = hashlib.sha256()
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as handle:
            data = handle.read()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """:func:`source_digest` of the running ``repro`` package, computed
    once per process."""
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return source_digest(package)


def chain_key(flow: str, inputs: Optional[Dict[str, Any]] = None) -> str:
    """The root key a flow's stage chain grows from.

    Folds the package's source digest, the flow name, and the run-level
    inputs (tile config, scale, tech presets, floorplan options) —
    everything upstream of the first stage.
    """
    return canonical_fingerprint(("chain", code_digest(), flow, inputs or {}))


def stage_key(
    stage: str, upstream_key: str, inputs: Optional[Dict[str, Any]] = None
) -> str:
    """One stage's key: its name + knobs chained onto the upstream key.

    The chaining means *any* upstream change (different netlist,
    different placer options, different upstream stage result facts)
    invalidates every downstream stage automatically.
    """
    return canonical_fingerprint(("stage", stage, upstream_key, inputs or {}))


def netlist_fingerprint(netlist) -> str:
    """Content hash of a :class:`~repro.netlist.core.Netlist`.

    Covers names, masters (identity + dimensions), connectivity with
    driver direction, clock marking, and port constraints — everything
    the flows read.  Iterates instances/nets in dense-id order and sorts
    ports by name, so the digest is independent of construction-dict
    ordering and of ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")

    feed(f"netlist:{netlist.name}")
    for port in sorted(netlist.ports, key=lambda p: p.name):
        constraint = port.constraint
        feed(
            f"P:{port.name}:{port.direction.value}:{port.capacitance!r}:"
            + (
                f"{constraint.edge}:{constraint.position!r}:"
                f"{constraint.io_delay_fraction!r}:"
                f"{constraint.aligned_with}:{constraint.layer}"
                if constraint is not None
                else "-"
            )
        )
    for inst in netlist.instances:
        master = inst.master
        feed(
            f"I:{inst.name}:{type(master).__name__}:{master.name}:"
            f"{master.width!r}:{master.height!r}:{int(inst.fixed)}"
        )
    for net in netlist.nets:
        feed(f"n:{net.name}:{int(net.is_clock)}")
        for obj, pin in net.terms:
            # Terms reference Instances or Ports; tag by which.
            if hasattr(obj, "master"):
                feed(f"t:I:{obj.name}:{pin}")
            else:
                feed(f"t:P:{obj.name}")
        driver = net.driver
        if driver is None:
            feed("d:-")
        elif hasattr(driver[0], "master"):
            feed(f"d:I:{driver[0].name}:{driver[1]}")
        else:
            feed(f"d:P:{driver[0].name}")
    return digest.hexdigest()
