"""Flat net-geometry index: CSR-style terminal arrays for hot kernels.

The placer, router, and metrics all walk ``net.terms`` and resolve each
terminal to a physical point through ``Placement.term_position`` — a
per-term cascade of isinstance checks, dict lookups, and ``Point``
construction that dominates the flow profile.  This module flattens that
walk once per (netlist, floorplan, port map) into numpy arrays:

- ``term_start`` — CSR offsets: net ``n`` owns terms
  ``term_start[n]:term_start[n + 1]`` in netlist term order;
- ``term_inst`` — instance id per term, ``-1`` for constant terms
  (ports, floorplanned macro pins) whose coordinates never move;
- ``term_fx``/``term_fy`` — the precomputed constant coordinates;
- movability masks and per-net degree/clock metadata.

Everything downstream is a gather: ``term_xy`` turns the per-instance
``x``/``y`` arrays into per-term coordinates, ``total_hpwl`` reduces
them per net.  All kernels are bit-exact re-expressions of the scalar
reference walks — the committed benchmark baselines gate QoR at byte
identity, so the index must never change a single ULP.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cells.macro import Macro
from repro.geom import Point, Rect
from repro.netlist.core import Instance, Netlist, Port
from repro.obs import count, span


class NetGeometryIndex:
    """Flat terminal geometry of one netlist under one floorplan.

    Built once (``build``) and shared by every placement copy of the
    same design; only the per-instance ``x``/``y`` arrays vary between
    calls.  Terminal kinds:

    - *constant*: ports and macro pins with a floorplan rect — their
      coordinates are baked into ``term_fx``/``term_fy``;
    - *center*: standard-cell pins — the position IS ``x[inst]`` (no
      arithmetic, preserving even the sign of zero);
    - *offset*: pins of unplaced macros — ``(x[inst] + c2o) + off``
      with the exact association of the scalar reference.
    """

    def __init__(
        self,
        num_nets: int,
        term_start: np.ndarray,
        term_net: np.ndarray,
        term_inst: np.ndarray,
        term_fx: np.ndarray,
        term_fy: np.ndarray,
        net_is_clock: np.ndarray,
        offset_terms: np.ndarray,
        offset_c2o: np.ndarray,
        offset_pin: np.ndarray,
    ):
        self.num_nets = num_nets
        self.term_start = term_start
        self.term_net = term_net
        self.term_inst = term_inst
        self.term_fx = term_fx
        self.term_fy = term_fy
        self.net_is_clock = net_is_clock
        self.net_degree = np.diff(term_start)
        #: term indices of instance-bound terms (``term_inst >= 0``).
        self.inst_terms = np.flatnonzero(term_inst >= 0)
        #: of those, the ones needing the macro-pin offset arithmetic.
        self._offset_terms = offset_terms
        self._offset_c2o = offset_c2o
        self._offset_pin = offset_pin
        self._inst_ids = term_inst[self.inst_terms]
        # Position of each offset term within ``inst_terms``.
        self._offset_rank = np.searchsorted(self.inst_terms, offset_terms)
        self._hpwl_cache: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}
        self._terms_py: Optional[List[List[Tuple[int, float, float, float, float]]]] = None

    # -- pickling --------------------------------------------------------------------

    def __getstate__(self):
        # The Python-list term mirror and the hpwl gather cache are
        # derived, rebuild deterministically, and dominate the pickled
        # size of a stage checkpoint — drop both.
        state = self.__dict__.copy()
        state["_hpwl_cache"] = {}
        state["_terms_py"] = None
        return state

    # -- construction ----------------------------------------------------------------

    @staticmethod
    def build(
        netlist: Netlist,
        macro_placements: Dict[str, Rect],
        port_locations: Dict[str, Point],
    ) -> "NetGeometryIndex":
        with span("index_build", nets=len(netlist.nets)):
            return NetGeometryIndex._build(
                netlist, macro_placements, port_locations
            )

    @staticmethod
    def _build(
        netlist: Netlist,
        macro_placements: Dict[str, Rect],
        port_locations: Dict[str, Point],
    ) -> "NetGeometryIndex":
        nets = netlist.nets
        num_nets = len(nets)
        term_start = np.zeros(num_nets + 1, dtype=np.int64)
        for k, net in enumerate(nets):
            term_start[k + 1] = term_start[k] + len(net.terms)
        total = int(term_start[-1])
        term_net = np.empty(total, dtype=np.int64)
        term_inst = np.full(total, -1, dtype=np.int64)
        term_fx = np.zeros(total)
        term_fy = np.zeros(total)
        net_is_clock = np.zeros(num_nets, dtype=bool)
        offset_terms: List[int] = []
        offset_vals: List[Tuple[float, float, float, float]] = []
        t = 0
        for k, net in enumerate(nets):
            net_is_clock[k] = net.is_clock
            for obj, pin in net.terms:
                term_net[t] = k
                if isinstance(obj, Instance):
                    rect = macro_placements.get(obj.name)
                    if obj.is_macro:
                        master = obj.master
                        assert isinstance(master, Macro)
                        offset = master.pin(pin).offset
                        if rect is not None:
                            # Floorplanned macro pin: a constant, computed
                            # with the scalar walk's exact arithmetic.
                            term_fx[t] = rect.xlo + offset.x
                            term_fy[t] = rect.ylo + offset.y
                        else:
                            term_inst[t] = obj.id
                            offset_terms.append(t)
                            offset_vals.append((
                                -master.width / 2.0,
                                -master.height / 2.0,
                                offset.x,
                                offset.y,
                            ))
                    else:
                        # Standard cell (placed-by-rect or movable): the
                        # pin is the cell center, i.e. x[id] verbatim.
                        term_inst[t] = obj.id
                else:
                    assert isinstance(obj, Port)
                    point = port_locations[obj.name]
                    term_fx[t] = point.x
                    term_fy[t] = point.y
                t += 1
        off_terms = np.array(offset_terms, dtype=np.int64)
        off_vals = (
            np.array(offset_vals)
            if offset_vals
            else np.zeros((0, 4))
        )
        return NetGeometryIndex(
            num_nets=num_nets,
            term_start=term_start,
            term_net=term_net,
            term_inst=term_inst,
            term_fx=term_fx,
            term_fy=term_fy,
            net_is_clock=net_is_clock,
            offset_terms=off_terms,
            offset_c2o=off_vals[:, 0:2],
            offset_pin=off_vals[:, 2:4],
        )

    # -- gathers ---------------------------------------------------------------------

    def term_xy(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-term coordinates under the given instance centers.

        Bit-exact versus the scalar ``term_position`` walk: constant
        terms copy their precomputed values, center terms gather
        ``x``/``y`` untouched, offset terms replay the scalar
        ``(x + c2o) + off`` association.
        """
        px = self.term_fx.copy()
        py = self.term_fy.copy()
        xg = x[self._inst_ids]
        yg = y[self._inst_ids]
        if self._offset_terms.size:
            r = self._offset_rank
            xg[r] = (xg[r] + self._offset_c2o[:, 0]) + self._offset_pin[:, 0]
            yg[r] = (yg[r] + self._offset_c2o[:, 1]) + self._offset_pin[:, 1]
        px[self.inst_terms] = xg
        py[self.inst_terms] = yg
        return px, py

    def _hpwl_stream(self, include_clock: bool) -> Tuple[np.ndarray, np.ndarray]:
        """(term indices, CSR offsets) of the nets HPWL sums over."""
        cached = self._hpwl_cache.get(include_clock)
        if cached is not None:
            return cached
        net_sel = self.net_degree >= 2
        if not include_clock:
            net_sel = net_sel & ~self.net_is_clock
        terms = np.flatnonzero(net_sel[self.term_net])
        degrees = self.net_degree[net_sel]
        offsets = np.zeros(degrees.size, dtype=np.int64)
        if degrees.size:
            np.cumsum(degrees[:-1], out=offsets[1:])
        self._hpwl_cache[include_clock] = (terms, offsets)
        return terms, offsets

    def total_hpwl(
        self, x: np.ndarray, y: np.ndarray, include_clock: bool = False
    ) -> float:
        """Sum of per-net half-perimeter wirelengths.

        Per-net max/min run as segmented reductions (order-free, hence
        exact); the cross-net sum runs left-to-right over Python floats
        to match the scalar reference bit-for-bit — ``np.sum`` pairwise
        accumulation would drift in the last ULPs.
        """
        terms, offsets = self._hpwl_stream(include_clock)
        count("hpwl_evals", 1)
        if terms.size == 0:
            return 0.0
        px, py = self.term_xy(x, y)
        sx = px[terms]
        sy = py[terms]
        hx = np.maximum.reduceat(sx, offsets) - np.minimum.reduceat(sx, offsets)
        hy = np.maximum.reduceat(sy, offsets) - np.minimum.reduceat(sy, offsets)
        total = 0.0
        for value in (hx + hy).tolist():
            total += value
        return total

    # -- per-net Python views ----------------------------------------------------------

    def net_terms_py(self) -> List[List[Tuple[int, float, float, float, float]]]:
        """Per-net term tuples ``(iid, ax, ay, bx, by)`` for hot Python loops.

        ``iid < 0`` marks a constant term at ``(ax, ay)``; otherwise the
        position is ``x[iid]`` when ``ax == 0.0`` (standard cell) or the
        offset form ``(x[iid] + ax) + bx`` (macro pin, ``ax = -w/2 != 0``).
        """
        if self._terms_py is not None:
            return self._terms_py
        iids = self.term_inst.tolist()
        fxs = self.term_fx.tolist()
        fys = self.term_fy.tolist()
        ax = [0.0] * len(iids)
        ay = [0.0] * len(iids)
        bx = [0.0] * len(iids)
        by = [0.0] * len(iids)
        for r, t in enumerate(self._offset_terms.tolist()):
            ax[t], ay[t] = self._offset_c2o[r, 0], self._offset_c2o[r, 1]
            bx[t], by[t] = self._offset_pin[r, 0], self._offset_pin[r, 1]
        starts = self.term_start.tolist()
        out: List[List[Tuple[int, float, float, float, float]]] = []
        for k in range(self.num_nets):
            lo, hi = starts[k], starts[k + 1]
            out.append([
                (iids[t], fxs[t] if iids[t] < 0 else ax[t],
                 fys[t] if iids[t] < 0 else ay[t], bx[t], by[t])
                for t in range(lo, hi)
            ])
        self._terms_py = out
        return out

    def net_points(
        self, x: np.ndarray, y: np.ndarray, net_ids: List[int]
    ) -> List[List[Point]]:
        """Terminal points of the requested nets, batched.

        One pair of vectorized gathers replaces per-term scalar walks;
        the resulting Python floats are the same doubles the scalar path
        wraps into ``Point``s.
        """
        px, py = self.term_xy(x, y)
        pxl = px.tolist()
        pyl = py.tolist()
        starts = self.term_start.tolist()
        return [
            [Point(pxl[t], pyl[t]) for t in range(starts[k], starts[k + 1])]
            for k in net_ids
        ]


# -- cross-stage sharing -----------------------------------------------------------------


def _geometry_key(
    netlist: Netlist,
    macro_placements: Dict[str, Rect],
    port_locations: Dict[str, Point],
) -> Tuple:
    """A value key over everything :meth:`NetGeometryIndex.build` reads.

    The index content depends on the netlist's term structure (covered
    by keying the memo *on the netlist object*), the placed-macro
    rects, the port map, and — for macros the floorplan does not place —
    the master dimensions that feed the offset arithmetic.  Standard
    cell masters never enter the index (center terms), which is why a
    shrunk-pseudo S2D index is bit-identical to the final one.
    """
    macro_items = tuple(sorted(
        (name, rect.xlo, rect.ylo, rect.xhi, rect.yhi)
        for name, rect in macro_placements.items()
    ))
    port_items = tuple(sorted(
        (name, point.x, point.y) for name, point in port_locations.items()
    ))
    unplaced = tuple(
        (inst.name, inst.master.width, inst.master.height)
        for inst in netlist.macros()
        if inst.name not in macro_placements
    )
    return (macro_items, port_items, unplaced)


def shared_geometry(
    netlist: Netlist,
    macro_placements: Dict[str, Rect],
    port_locations: Dict[str, Point],
) -> NetGeometryIndex:
    """Build-or-reuse one :class:`NetGeometryIndex` per design geometry.

    A flow run used to rebuild the index for every fresh ``Placement``
    over the same geometry — most visibly the S2D tail, whose final
    placement has value-identical macro rects and ports to the pseudo
    one.  The memo lives on the netlist (``_geom_memo``), so it travels
    with the netlist through stage-cache checkpoints and dies with it.

    Reuses count an ``index_reuse`` obs counter; rebuilds still run
    under the existing ``index_build`` span, so avoided rebuilds are
    visible as a drop in that span's occurrences.
    """
    memo: Optional[Dict[Tuple, NetGeometryIndex]]
    memo = getattr(netlist, "_geom_memo", None)
    if memo is None:
        memo = {}
        netlist._geom_memo = memo
    key = _geometry_key(netlist, macro_placements, port_locations)
    index = memo.get(key)
    if index is not None:
        count("index_reuse", 1)
        return index
    index = NetGeometryIndex.build(netlist, macro_placements, port_locations)
    memo[key] = index
    return index
