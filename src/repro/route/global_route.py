"""Congestion-negotiated global routing (pattern + maze).

Every signal net is decomposed into two-pin MST edges and routed on the
2D GCell grid with L/Z pattern candidates scored by negotiated congestion
cost; overflowed regions trigger PathFinder-style rip-up-and-reroute, with
an A* maze fallback for the stubborn remainder.  Layer assignment happens
afterwards in :mod:`repro.route.layer_assign`.

Pattern costs are evaluated against prefix sums of the per-edge cost
fields, refreshed in batches — the standard engineering trade that makes
congestion-aware pattern routing linear-time in practice.  Between two
refreshes (one cost epoch) the fields are frozen, so the epoch's maze
searches are solved up front as one batch, spread over the usable CPUs,
with the same answers as searching them one by one.

Clock nets are excluded — clock distribution is synthesised separately by
:mod:`repro.timing.clock_tree`.
"""

from __future__ import annotations

import functools
import gc
import heapq
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geom import Point
from repro.netlist.core import Instance, Net, Netlist
from repro.obs import count, span
from repro.place.global_place import Placement
from repro.route.grid import RoutingGrid
from repro.route.steiner import decompose_net, manhattan

GCell = Tuple[int, int]


@functools.lru_cache(maxsize=8)
def _cell_tables(nx: int, ny: int) -> Tuple[List[int], List[int]]:
    """Row-major cell id -> x and -> y lookup lists of an nx*ny grid."""
    ids = range(nx * ny)
    return [i // ny for i in ids], [i % ny for i in ids]


def maze_search(
    cost_h: Sequence[float],
    cost_v: Sequence[float],
    nx: int,
    ny: int,
    limit: int,
    a: GCell,
    b: GCell,
) -> Tuple[Optional[List[GCell]], int]:
    """A* from a to b over flat edge costs: (path or None, expansions).

    ``cost_h``/``cost_v`` are the row-major (``x*ny + y``) per-edge cost
    fields as Python lists; the search gives up after ``limit`` node
    expansions.  A pure function of its arguments, so one cost epoch's
    queries can be solved in any order, in any process.
    """
    # Hot loop: pure Python over flat lists.  Cells travel as row-
    # major ids (x*ny + y); because y < ny, id order equals (x, y)
    # tuple order, so heap tie-breaking — and therefore expansion
    # order and the returned path — is identical to the tuple/dict
    # implementation, at a fraction of its hashing cost.
    bx_, by_ = b
    b_id = bx_ * ny + by_
    a_id = a[0] * ny + a[1]
    # Manhattan distance to b, split per axis: h(x, y) = hx[x] + hy[y].
    hx = [x - bx_ if x >= bx_ else bx_ - x for x in range(nx)]
    hy = [y - by_ if y >= by_ else by_ - y for y in range(ny)]
    xs, ys = _cell_tables(nx, ny)
    last_x, last_y = nx - 1, ny - 1
    expansions = 0
    best = [math.inf] * (nx * ny)
    best[a_id] = 0.0
    parent = [0] * (nx * ny)
    frontier: List[Tuple[float, float, int]] = [(0.0, 0.0, a_id)]
    heappop = heapq.heappop
    heappush = heapq.heappush
    while frontier:
        _f, g, cell = heappop(frontier)
        if cell == b_id:
            ids = [cell]
            while cell != a_id:
                cell = parent[cell]
                ids.append(cell)
            ids.reverse()
            return [(xs[i], ys[i]) for i in ids], expansions
        if g > best[cell]:
            continue
        expansions += 1
        if expansions > limit:
            return None, expansions
        cx = xs[cell]
        cy = ys[cell]
        if cx < last_x:
            g2 = g + cost_h[cell]
            n_id = cell + ny
            if g2 < best[n_id]:
                best[n_id] = g2
                parent[n_id] = cell
                heappush(frontier, (g2 + (hx[cx + 1] + hy[cy]), g2, n_id))
        if cx > 0:
            n_id = cell - ny
            g2 = g + cost_h[n_id]
            if g2 < best[n_id]:
                best[n_id] = g2
                parent[n_id] = cell
                heappush(frontier, (g2 + (hx[cx - 1] + hy[cy]), g2, n_id))
        if cy < last_y:
            g2 = g + cost_v[cell]
            n_id = cell + 1
            if g2 < best[n_id]:
                best[n_id] = g2
                parent[n_id] = cell
                heappush(frontier, (g2 + (hx[cx] + hy[cy + 1]), g2, n_id))
        if cy > 0:
            n_id = cell - 1
            g2 = g + cost_v[n_id]
            if g2 < best[n_id]:
                best[n_id] = g2
                parent[n_id] = cell
                heappush(frontier, (g2 + (hx[cx] + hy[cy - 1]), g2, n_id))
    return None, expansions


def _solve_share(
    cost_h: Sequence[float],
    cost_v: Sequence[float],
    nx: int,
    ny: int,
    limit: int,
    queries: Sequence[Tuple[GCell, GCell]],
) -> List[Tuple[Optional[List[GCell]], int]]:
    """Answers to one share of an epoch's maze queries, in query order."""
    return [
        maze_search(cost_h, cost_v, nx, ny, limit, a, b) for a, b in queries
    ]


def _solver_count() -> int:
    """Processes that solve a maze batch: every usable CPU, or 1.

    Only a top-level process forks solvers.  A flow-service or
    ``bench run --jobs`` worker already shares the CPUs with its
    siblings, so it solves in-process instead of oversubscribing them.
    """
    import multiprocessing

    from repro.forking import fork_context

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without affinity masks
        cpus = os.cpu_count() or 1
    if (
        cpus > 1
        and fork_context() is not None
        and multiprocessing.parent_process() is None
    ):
        return cpus
    return 1


def _init_solver() -> None:
    """Pool initializer.  A forked solver inherits the parent's heap:
    freeze it so collections never scan (and copy) it, and drop any
    profiler hook it came with."""
    gc.freeze()
    sys.setprofile(None)


class MazeBatchError(RuntimeError):
    """A maze batch could not be solved (e.g. a solver process died)."""


@dataclass
class RoutedEdge:
    """One routed two-pin connection of a net."""

    source_index: int
    target_index: int
    #: GCell path from source to target, inclusive.
    path: List[GCell]
    #: Routed length in um.
    length: float
    #: Fraction of the path over macro substrate (no repeater sites).
    blocked_fraction: float = 0.0
    #: Router-internal cache: flat ids of the horizontal and vertical
    #: grid edges the path crosses (row-major ``x*ny + y``).  Derived
    #: from ``path``; never serialized.
    seg_ids: Optional[Tuple[List[int], List[int]]] = field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self):
        # Enforce the "never serialized" contract on seg_ids: stage
        # checkpoints pickle routed nets, and every consumer rebuilds
        # from ``path`` when the cache is absent.
        state = self.__dict__.copy()
        state["seg_ids"] = None
        return state


@dataclass
class RoutedNet:
    """A net's terminals, topology and routed paths."""

    net: Net
    points: List[Point]
    driver_index: int
    edges: List[RoutedEdge] = field(default_factory=list)

    @property
    def wirelength(self) -> float:
        return sum(edge.length for edge in self.edges)


@dataclass(frozen=True)
class RouterOptions:
    """Knobs of the global router."""

    #: Number of intermediate Z-pattern candidates per orientation.
    z_candidates: int = 2
    #: Rip-up-and-reroute rounds after the initial pass.
    negotiation_rounds: int = 5
    #: Maximum nets sent to the maze router per round.
    maze_budget: int = 600
    #: Maze router gives up beyond this many node expansions per edge.
    maze_expansion_limit: int = 12000
    #: Nets routed between cost-field refreshes.
    cost_batch: int = 400


class GlobalRouter:
    """Routes all signal nets of a placed design over a grid."""

    def __init__(
        self,
        netlist: Netlist,
        placement: Placement,
        grid: RoutingGrid,
        options: RouterOptions = RouterOptions(),
    ):
        self.netlist = netlist
        self.placement = placement
        self.grid = grid
        self.options = options
        self.routed: Dict[str, RoutedNet] = {}
        # Flat row-major views over the usage planes (allocated once by
        # the grid and only ever mutated in place, so the views stay
        # valid for the router's lifetime).
        self._use_h_flat = grid.use_h.ravel()
        self._use_v_flat = grid.use_v.ravel()
        self._since_refresh = 0
        # Maze solvers of the current run(): the process count, and the
        # fork pool that is opened at the first batch that needs it.
        self._solvers = 1
        self._pool: Optional[Any] = None
        # Delta-tracked segment index for overflow detection.  The index
        # is append-only: each negotiation round adds one chunk holding
        # only the nets rerouted since the last round (the dirty set),
        # stamped with the net's route generation.  Entries from older
        # chunks whose generation no longer matches are masked out
        # vectorially at query time, so per-round work scales with the
        # dirty set, not the whole design.
        self._seg_dirty: set = set()
        self._seg_chunks: List[Tuple[np.ndarray, ...]] = []
        self._gen: Dict[str, int] = {}
        self._ordinals: Dict[str, int] = {}
        self._refresh_costs()

    # -- cost fields ----------------------------------------------------------------

    def _edge_cost_field(self, cap: np.ndarray, use: np.ndarray,
                         hist: np.ndarray) -> np.ndarray:
        safe_cap = np.where(cap > 0, cap, 1.0)
        ratio = (use + 1.0) / safe_cap
        over = np.clip(4.0 * (ratio - 0.8), 0.0, 8.0)
        cost = 1.0 + hist + np.where(ratio > 0.8, np.exp(over), 0.0)
        cost = np.where(cap > 0, cost, 64.0 + hist)
        return cost

    def _refresh_costs(self) -> None:
        grid = self.grid
        self._cost_h = self._edge_cost_field(grid.cap_h, grid.use_h, grid.history_h)
        self._cost_v = self._edge_cost_field(grid.cap_v, grid.use_v, grid.history_v)
        # Prefix sums for O(1) straight-run costs: psum[i+1] - psum[j].
        self._psum_h = np.concatenate(
            [np.zeros((1, grid.ny)), np.cumsum(self._cost_h, axis=0)], axis=0
        )
        self._psum_v = np.concatenate(
            [np.zeros((grid.nx, 1)), np.cumsum(self._cost_v, axis=1)], axis=1
        )
        # Nested-list mirrors: the pattern scorer and the maze inner loop
        # read single elements millions of times, where Python list
        # indexing beats numpy scalar indexing several-fold.  The lists
        # hold the same doubles, so all costs come out bit-identical.
        self._cost_h_l = self._cost_h.tolist()
        self._cost_v_l = self._cost_v.tolist()
        self._psum_h_l = self._psum_h.tolist()
        self._psum_v_l = self._psum_v.tolist()
        # Flat row-major mirrors for the maze: cell (x, y) is id x*ny+y,
        # edge (ex, ey) is id ex*ny+ey.
        self._cost_h_flat = self._cost_h.ravel().tolist()
        self._cost_v_flat = self._cost_v.ravel().tolist()
        # Maze answers are functions of (a, b) and the cost fields only,
        # so they are memoized per cost epoch: (a, b) -> (path, expansions).
        self._maze_memo: Dict[
            Tuple[GCell, GCell], Tuple[Optional[List[GCell]], int]
        ] = {}
        self._since_refresh = 0

    def _hcost(self, y: int, x0: int, x1: int) -> float:
        """Cost of the horizontal run between columns x0 < x1 at row y."""
        psum = self._psum_h_l
        return psum[x1][y] - psum[x0][y]

    def _vcost(self, x: int, y0: int, y1: int) -> float:
        psum = self._psum_v_l[x]
        return psum[y1] - psum[y0]

    # -- usage bookkeeping -------------------------------------------------------

    def _edge_segments(self, path: Sequence[GCell]) -> Tuple[List[int], List[int]]:
        """Flat ids of the h/v grid edges a path crosses (``x*ny + y``)."""
        ny = self.grid.ny
        h_ids: List[int] = []
        v_ids: List[int] = []
        for (ax, ay), (bx, by) in zip(path, path[1:]):
            if ax != bx:
                h_ids.append((ax if ax < bx else bx) * ny + ay)
            else:
                v_ids.append(ax * ny + (ay if ay < by else by))
        return h_ids, v_ids

    def _apply_segments(
        self, segs: Tuple[List[int], List[int]], sign: float
    ) -> None:
        # np.add.at is unbuffered (sequential-add semantics), so usage
        # lands exactly as the old per-segment scalar loop did.
        h_ids, v_ids = segs
        if h_ids:
            np.add.at(self._use_h_flat, h_ids, sign)
        if v_ids:
            np.add.at(self._use_v_flat, v_ids, sign)

    def _apply_path(self, path: Sequence[GCell], sign: float) -> None:
        self._apply_segments(self._edge_segments(path), sign)

    # -- pattern routing ------------------------------------------------------------

    @staticmethod
    def _straight(a: GCell, b: GCell) -> List[GCell]:
        """GCells from a to b along one axis, inclusive."""
        ax, ay = a
        bx, by = b
        cells = [a]
        if ax == bx:
            step = 1 if by > ay else -1
            cells += [(ax, yy) for yy in range(ay + step, by + step, step)]
        elif ay == by:
            step = 1 if bx > ax else -1
            cells += [(xx, ay) for xx in range(ax + step, bx + step, step)]
        else:
            raise ValueError("not a straight segment")
        return cells

    def _route_edge_pattern(self, a: GCell, b: GCell) -> List[GCell]:
        """Cheapest L/Z pattern between two GCells under the cost fields."""
        ax, ay = a
        bx, by = b
        if a == b:
            return [a]
        xlo, xhi = min(ax, bx), max(ax, bx)
        ylo, yhi = min(ay, by), max(ay, by)
        if ay == by:
            return self._straight(a, b)
        if ax == bx:
            return self._straight(a, b)

        best_kind: Tuple = ()
        best_cost = math.inf

        def consider(kind: Tuple, cost: float) -> None:
            nonlocal best_kind, best_cost
            if cost < best_cost:
                best_cost = cost
                best_kind = kind

        # L shapes: corner at (bx, ay) or (ax, by).
        consider(("hv", bx), self._hcost(ay, xlo, xhi) + self._vcost(bx, ylo, yhi))
        consider(("vh", ax), self._vcost(ax, ylo, yhi) + self._hcost(by, xlo, xhi))
        # Z shapes via intermediate columns and rows.
        n = self.options.z_candidates
        for k in range(1, n + 1):
            mx = ax + (bx - ax) * k // (n + 1)
            if mx != ax and mx != bx:
                cost = (
                    self._hcost(ay, min(ax, mx), max(ax, mx))
                    + self._vcost(mx, ylo, yhi)
                    + self._hcost(by, min(mx, bx), max(mx, bx))
                )
                consider(("hvh", mx), cost)
            my = ay + (by - ay) * k // (n + 1)
            if my != ay and my != by:
                cost = (
                    self._vcost(ax, min(ay, my), max(ay, my))
                    + self._hcost(my, xlo, xhi)
                    + self._vcost(bx, min(my, by), max(my, by))
                )
                consider(("vhv", my), cost)

        kind = best_kind[0]
        if kind == "hv":
            return self._straight(a, (bx, ay)) + self._straight((bx, ay), b)[1:]
        if kind == "vh":
            return self._straight(a, (ax, by)) + self._straight((ax, by), b)[1:]
        if kind == "hvh":
            mx = best_kind[1]
            return (
                self._straight(a, (mx, ay))
                + self._straight((mx, ay), (mx, by))[1:]
                + self._straight((mx, by), b)[1:]
            )
        my = best_kind[1]
        return (
            self._straight(a, (ax, my))
            + self._straight((ax, my), (bx, my))[1:]
            + self._straight((bx, my), b)[1:]
        )

    # -- maze routing -----------------------------------------------------------------

    def _route_edge_maze(self, a: GCell, b: GCell) -> Optional[List[GCell]]:
        if a == b:
            return [a]
        # A repeated query within one cost epoch replays the memoized
        # search, its expansion count included.
        key = (a, b)
        found = self._maze_memo.get(key)
        if found is None:
            found = self._maze_memo[key] = maze_search(
                self._cost_h_flat, self._cost_v_flat, self.grid.nx,
                self.grid.ny, self.options.maze_expansion_limit, a, b,
            )
        path, expansions = found
        count("maze_expansions", expansions)
        return None if path is None else list(path)

    # -- net-level routing ---------------------------------------------------------------

    def _two_pin_edges(
        self, routed: RoutedNet
    ) -> List[Tuple[int, int, GCell, GCell]]:
        """The net's two-pin edges: (src, dst, src GCell, dst GCell)."""
        cells = [self.grid.gcell_of(p.x, p.y) for p in routed.points]
        if any(
            isinstance(obj, Instance) and obj.is_macro
            for obj, _pin in routed.net.terms
        ):
            # Macro-pin nets route as driver-rooted stars: every data/
            # address bit leaves the trunk once, like the per-bit nets of
            # the real bus — MST chaining between adjacent pins would
            # fabricate pin-to-pin routes that do not exist in the RTL.
            pairs = [
                (routed.driver_index, k)
                for k in range(len(routed.points))
                if k != routed.driver_index
            ]
        else:
            pairs = decompose_net(routed.points, routed.driver_index)
        return [(src, dst, cells[src], cells[dst]) for src, dst in pairs]

    def _route_net(self, routed: RoutedNet, use_maze: bool = False) -> None:
        routed.edges = []
        for src, dst, a, b in self._two_pin_edges(routed):
            path: Optional[List[GCell]] = None
            if use_maze:
                path = self._route_edge_maze(a, b)
            if path is None:
                path = self._route_edge_pattern(a, b)
                count("pattern_routes", 1)
            else:
                count("maze_routes", 1)
            segs = self._edge_segments(path)
            self._apply_segments(segs, +1.0)
            direct = manhattan(routed.points[src], routed.points[dst])
            detour = max(0, len(path) - 1) * self.grid.gcell
            routed.edges.append(
                RoutedEdge(
                    src,
                    dst,
                    path,
                    max(direct, detour * 0.999),
                    self.grid.path_blocked_fraction(path),
                    seg_ids=segs,
                )
            )
        self._since_refresh += 1
        self._mark_route_changed(routed)
        if self._since_refresh >= self.options.cost_batch:
            self._refresh_costs()

    def _rip_up(self, routed: RoutedNet) -> None:
        for edge in routed.edges:
            segs = edge.seg_ids
            if segs is None:
                segs = self._edge_segments(edge.path)
            self._apply_segments(segs, -1.0)
        routed.edges = []
        self._mark_route_changed(routed)

    def _mark_route_changed(self, routed: RoutedNet) -> None:
        name = routed.net.name
        self._seg_dirty.add(name)
        self._gen[name] = self._gen.get(name, 0) + 1

    def _flush_seg_chunks(self) -> None:
        """Append one index chunk covering the dirty (rerouted) nets.

        A chunk holds flat seg ids, the owning net's ordinal and the
        net's route generation at gather time, for both edge planes.
        The assembly is counts-driven (``np.fromiter`` for the ids, one
        ``np.repeat`` for ordinals and generations) — deliberately not
        a per-net ``np.concatenate``, whose per-array overhead dwarfs
        the element copies at tens of thousands of short nets.
        """
        if not self._seg_dirty:
            return
        if len(self._ordinals) != len(self.routed):
            self._ordinals = {
                name: k for k, name in enumerate(self.routed)
            }
        dirty: List[RoutedNet] = []
        h_flat: List[int] = []
        v_flat: List[int] = []
        h_counts: List[int] = []
        v_counts: List[int] = []
        for name in self._seg_dirty:
            routed = self.routed.get(name)
            if routed is None:
                continue
            h0, v0 = len(h_flat), len(v_flat)
            for edge in routed.edges:
                segs = edge.seg_ids
                if segs is None:
                    segs = edge.seg_ids = self._edge_segments(edge.path)
                h_flat.extend(segs[0])
                v_flat.extend(segs[1])
            dirty.append(routed)
            h_counts.append(len(h_flat) - h0)
            v_counts.append(len(v_flat) - v0)
        self._seg_dirty.clear()
        if not dirty:
            return
        n = len(dirty)
        ordinals = np.fromiter(
            (self._ordinals[r.net.name] for r in dirty), np.int64, count=n
        )
        gens = np.fromiter(
            (self._gen[r.net.name] for r in dirty), np.int64, count=n
        )
        h_counts_arr = np.array(h_counts, dtype=np.int64)
        v_counts_arr = np.array(v_counts, dtype=np.int64)
        self._seg_chunks.append((
            np.array(h_flat, dtype=np.int64),
            np.repeat(ordinals, h_counts_arr),
            np.repeat(gens, h_counts_arr),
            np.array(v_flat, dtype=np.int64),
            np.repeat(ordinals, v_counts_arr),
            np.repeat(gens, v_counts_arr),
        ))

    def _nets_on_overflow(self) -> List[RoutedNet]:
        """Nets crossing any overflowed grid edge, in routing order.

        Vectorized equivalent of a per-net scalar scan (the oracle
        ``tests/oracles/route.py``): boolean gathers over the
        delta-maintained chunked segment index instead of a Python walk
        over every net's segments each round.  Entries whose stamped
        generation trails the net's current one belong to a ripped-up
        route and are masked out.
        """
        grid = self.grid
        over_h = (grid.use_h > grid.cap_h).ravel()
        over_v = (grid.use_v > grid.cap_v).ravel()
        if not over_h.any() and not over_v.any():
            return []
        self._flush_seg_chunks()
        names = list(self.routed)
        cur_gen = np.fromiter(
            (self._gen.get(name, 0) for name in names),
            np.int64,
            count=len(names),
        )
        hit = np.zeros(len(names), dtype=bool)
        for idx_h, net_h, gen_h, idx_v, net_v, gen_v in self._seg_chunks:
            if len(idx_h):
                live = cur_gen[net_h] == gen_h
                hit[net_h[live & over_h[idx_h]]] = True
            if len(idx_v):
                live = cur_gen[net_v] == gen_v
                hit[net_v[live & over_v[idx_v]]] = True
        return [
            routed
            for k, routed in enumerate(self.routed.values())
            if hit[k]
        ]

    # -- public API --------------------------------------------------------------------------

    def run(self) -> Dict[str, RoutedNet]:
        """Route all non-clock signal nets; returns them by net name."""
        self._solvers = _solver_count()
        try:
            self._route_all()
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
        return self.routed

    def _route_all(self) -> None:
        nets = [
            net
            for net in self.netlist.nets
            if not net.is_clock and net.degree >= 2
        ]
        # One batched gather resolves every terminal; the Points hold the
        # same doubles as per-term ``term_position`` walks.
        geo = self.placement.geometry()
        points_all = geo.net_points(
            self.placement.x, self.placement.y, [net.id for net in nets]
        )
        with span("route_initial"):
            for net, points in zip(nets, points_all):
                driver_index = (
                    net.terms.index(net.driver)
                    if net.driver in net.terms else 0
                )
                routed = RoutedNet(net, points, driver_index)
                self._route_net(routed)
                self.routed[net.name] = routed

        budget = self.options.maze_budget
        # The round's cost refresh restarts the epoch count, so slices of
        # ``cost_batch`` offenders are exactly the cost epochs.
        epoch = max(1, self.options.cost_batch)
        for round_no in range(1, self.options.negotiation_rounds + 1):
            offenders = self._nets_on_overflow()
            if not offenders:
                break
            count("negotiation_rounds", 1)
            count("ripup_nets", len(offenders))
            with span("route_round", round=round_no, offenders=len(offenders)):
                self.grid.add_history()
                self._refresh_costs()
                # Longest nets first get maze treatment within the budget.
                offenders.sort(key=lambda r: -r.wirelength)
                for start in range(0, len(offenders), epoch):
                    chunk = offenders[start:start + epoch]
                    if start < budget:
                        self._solve_epoch(
                            chunk[:budget - start], round_no, start
                        )
                    for k, routed in enumerate(chunk, start):
                        self._rip_up(routed)
                        self._route_net(routed, use_maze=k < budget)

    # -- maze batches ------------------------------------------------------------------

    def _solve_epoch(
        self, nets: List[RoutedNet], round_no: int, start: int
    ) -> None:
        """Fill the epoch's maze memo with every query ``nets`` will ask.

        The cost fields are frozen until the epoch's last net is routed,
        so each answer is a pure function of its (a, b) query: solving
        them all up front, split across processes, changes no route.
        """
        from concurrent.futures import BrokenExecutor

        queries: Dict[Tuple[GCell, GCell], None] = {}
        for routed in nets:
            for _src, _dst, a, b in self._two_pin_edges(routed):
                if a != b:
                    queries[(a, b)] = None
        if not queries:
            return
        todo = list(queries)
        with span("route_maze", queries=len(todo)):
            args = (
                self._cost_h_flat, self._cost_v_flat, self.grid.nx,
                self.grid.ny, self.options.maze_expansion_limit,
            )
            # Round-robin shares even out long and short searches; the
            # pool solves all but the last, which this process solves.
            shares = [todo[i::self._solvers] for i in range(self._solvers)]
            pending = [
                (share, self._solver_pool().submit(_solve_share, *args, share))
                for share in shares[:-1]
                if share
            ]
            answers = dict(zip(shares[-1], _solve_share(*args, shares[-1])))
            for share, future in pending:
                try:
                    found = future.result()
                except BrokenExecutor as exc:
                    raise MazeBatchError(
                        f"maze batch of negotiation round {round_no}, slice "
                        f"from offender {start}, {len(todo)} queries: "
                        f"{exc!r}"
                    ) from exc
                answers.update(zip(share, found))
            # Merged by query key: the memo is the same for any split.
            for key in todo:
                self._maze_memo[key] = answers[key]

    def _solver_pool(self) -> Any:
        """The run's fork pool of ``solvers - 1`` maze solvers."""
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            from repro.forking import fork_context

            self._pool = ProcessPoolExecutor(
                self._solvers - 1,
                mp_context=fork_context(),
                initializer=_init_solver,
            )
        return self._pool

    # -- metrics --------------------------------------------------------------------------------

    def total_wirelength(self) -> float:
        return sum(r.wirelength for r in self.routed.values())

    def detour_factor(self) -> float:
        """Routed length over direct Manhattan length (>= 1)."""
        direct = 0.0
        routed_len = 0.0
        for routed in self.routed.values():
            for edge in routed.edges:
                direct += manhattan(
                    routed.points[edge.source_index],
                    routed.points[edge.target_index],
                )
                routed_len += edge.length
        return routed_len / direct if direct > 0 else 1.0
