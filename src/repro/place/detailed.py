"""Detailed placement: swap-based wirelength refinement.

Capacity-driven spreading occasionally banishes a weakly-anchored cell
into a distant free pocket (the only capacity left in its bisection
region), stretching its nets across the die.  Commercial flows clean
such outliers up during detailed placement; this pass does the same:

1. rank movable cells by *stretch* — distance from the cell to the
   centroid of its connected pins;
2. for the most-stretched cells, look for a swap partner of similar
   width near that centroid;
3. accept the swap when the summed HPWL of all affected nets decreases.

Swapping (rather than moving) preserves row legality wherever widths
match; the small width mismatches allowed are within the abstraction of
global placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.core import Instance, Net
from repro.place.global_place import Placement


@dataclass
class RefineResult:
    """Outcome of the refinement pass."""

    swaps: int
    hpwl_before: float
    hpwl_after: float

    @property
    def improvement(self) -> float:
        if self.hpwl_before <= 0:
            return 0.0
        return (self.hpwl_before - self.hpwl_after) / self.hpwl_before


def _cell_nets(inst: Instance, max_degree: int) -> List[Net]:
    return [
        net
        for net in inst.connections.values()
        if not net.is_clock and 2 <= net.degree <= max_degree
    ]


def _nets_hpwl(placement: Placement, nets: Sequence[Net]) -> float:
    return sum(placement.net_hpwl(net) for net in nets)


class _FastHpwl:
    """Per-net HPWL over the flat geometry index's Python term tuples.

    Swap evaluation reads a handful of nets thousands of times while the
    coordinates mutate in place — a vector gather per probe would cost
    more than it saves.  ``x``/``y`` are Python-float mirrors of the
    placement arrays, so each read is a plain list index rather than a
    boxed numpy scalar.  These loops produce the same doubles as the
    scalar ``net_hpwl`` walk (same gathers, same max/min/sum order)
    without the per-term isinstance/dict/Point overhead.
    """

    def __init__(self, x: List[float], y: List[float], placement: Placement):
        self.x = x
        self.y = y
        self.terms = placement.geometry().net_terms_py()

    def net_hpwl(self, net_id: int) -> float:
        terms = self.terms[net_id]
        if len(terms) < 2:
            return 0.0
        x = self.x
        y = self.y
        xlo = xhi = ylo = yhi = None
        for iid, ax, ay, bx, by in terms:
            if iid < 0:
                px, py = ax, ay
            elif ax != 0.0:
                px = (x[iid] + ax) + bx
                py = (y[iid] + ay) + by
            else:
                px = x[iid]
                py = y[iid]
            if xlo is None:
                xlo = xhi = px
                ylo = yhi = py
            else:
                if px < xlo:
                    xlo = px
                elif px > xhi:
                    xhi = px
                if py < ylo:
                    ylo = py
                elif py > yhi:
                    yhi = py
        return (xhi - xlo) + (yhi - ylo)

    def nets_hpwl(self, net_ids: Sequence[int]) -> float:
        total = 0.0
        for net_id in net_ids:
            total += self.net_hpwl(net_id)
        return total

    def centroid_sums(
        self, net_ids: Sequence[int], skip_iid: int
    ) -> Tuple[float, float, int]:
        """Sequential sums of all term positions except ``skip_iid``'s.

        Mirrors the stretch-ranking walk of the scalar reference: terms
        in net order, positions accumulated left to right.
        """
        x = self.x
        y = self.y
        sx = sy = 0.0
        n = 0
        for net_id in net_ids:
            for iid, ax, ay, bx, by in self.terms[net_id]:
                if iid == skip_iid:
                    continue
                if iid < 0:
                    sx += ax
                    sy += ay
                elif ax != 0.0:
                    sx += (x[iid] + ax) + bx
                    sy += (y[iid] + ay) + by
                else:
                    sx += x[iid]
                    sy += y[iid]
                n += 1
        return sx, sy, n


def refine_placement(
    placement: Placement,
    passes: int = 4,
    stretch_fraction: float = 0.15,
    width_tolerance: float = 0.3,
    max_degree: int = 32,
) -> RefineResult:
    """Swap-refine the most-stretched cells of a placement, in place."""
    netlist = placement.netlist
    movable = [
        inst for inst in netlist.instances if placement.movable[inst.id]
    ]
    if not movable:
        return RefineResult(0, 0.0, 0.0)

    hpwl_before = placement.total_hpwl()
    swaps = 0
    # The swap loop runs on Python-float mirrors of the coordinates:
    # the same doubles through the same operations, without boxing a
    # numpy scalar on every read.  Written back once at the end.
    X = placement.x.tolist()
    Y = placement.y.tolist()
    fast = _FastHpwl(X, Y, placement)
    # Per-cell eligible net ids, computed once — connectivity is static.
    cell_net_ids: Dict[int, List[int]] = {
        inst.id: [net.id for net in _cell_nets(inst, max_degree)]
        for inst in movable
    }
    width = {inst.id: inst.master.width for inst in movable}
    movable_ids = [inst.id for inst in movable]

    for _sweep in range(passes):
        # Spatial buckets for partner lookup.
        outline = placement.floorplan.outline
        bucket = max(outline.width, outline.height) / 32.0
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for iid in movable_ids:
            key = (
                int((X[iid] - outline.xlo) / bucket),
                int((Y[iid] - outline.ylo) / bucket),
            )
            buckets.setdefault(key, []).append(iid)

        # Stretch ranking.
        stretched: List[Tuple[float, int, float, float]] = []
        for iid in movable_ids:
            net_ids = cell_net_ids[iid]
            if not net_ids:
                continue
            sx, sy, count = fast.centroid_sums(net_ids, iid)
            if count == 0:
                continue
            cx, cy = sx / count, sy / count
            stretch = abs(X[iid] - cx) + abs(Y[iid] - cy)
            stretched.append((stretch, iid, cx, cy))
        stretched.sort(key=lambda item: -item[0])
        worst = stretched[: max(1, int(len(stretched) * stretch_fraction))]

        moved_this_pass = 0
        for stretch, iid, cx, cy in worst:
            if stretch < bucket:
                continue
            key = (
                int((cx - outline.xlo) / bucket),
                int((cy - outline.ylo) / bucket),
            )
            w = width[iid]
            limit = width_tolerance * w
            candidates: List[Tuple[float, int]] = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for cid in buckets.get((key[0] + dx, key[1] + dy), []):
                        if cid == iid:
                            continue
                        if abs(width[cid] - w) > limit:
                            continue
                        d = abs(X[cid] - cx) + abs(Y[cid] - cy)
                        candidates.append((d, cid))
            candidates.sort(key=lambda item: item[0])
            for _d, pid in candidates[:8]:
                # Union of both cells' nets, first-seen order (dict-keyed
                # by name in the reference — ids are equivalent keys).
                net_ids = list(dict.fromkeys(
                    cell_net_ids[iid] + cell_net_ids[pid]
                ))
                before = fast.nets_hpwl(net_ids)
                ix, iy = X[iid], Y[iid]
                px, py = X[pid], Y[pid]
                X[iid], Y[iid] = px, py
                X[pid], Y[pid] = ix, iy
                after = fast.nets_hpwl(net_ids)
                if after < before - 1e-9:
                    swaps += 1
                    moved_this_pass += 1
                    break
                X[iid], Y[iid] = ix, iy
                X[pid], Y[pid] = px, py
        if moved_this_pass == 0:
            break

    placement.x[:] = X
    placement.y[:] = Y
    return RefineResult(swaps, hpwl_before, placement.total_hpwl())
