"""Quadratic global placement with capacity-aware spreading.

The algorithm is the SimPL family used by commercial engines:

1. Solve the quadratic (clique/star) wirelength model with fixed macro
   pins and IO ports as boundary conditions (conjugate gradient on a
   sparse Laplacian, one solve per axis).
2. Spread the clumped solution into the free capacity of the floorplan by
   capacity-weighted recursive bisection over a
   :class:`~repro.place.capacity.CapacityGrid`.
3. Anchor every cell to its spread target with a weight that grows each
   iteration and re-solve, pulling connectivity and density into balance.

Partial blockages (S2D/C2D) enter through the capacity grid, at finite
bin resolution — the same mechanism that produces post-partitioning
overlaps in the paper's experiments with commercial tools.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.cells.macro import Macro
from repro.floorplan.floorplan import Floorplan
from repro.geom import Point, Rect
from repro.netlist.core import Instance, Net, Netlist, Port
from repro.netlist.index import NetGeometryIndex, shared_geometry
from repro.obs import active_recorder, count, gauge, span
from repro.place.capacity import CapacityGrid

# scipy renamed ``cg``'s convergence keyword from ``tol`` to ``rtol`` in
# 1.12 and dropped the old spelling in 1.14; resolve the supported name
# once so the placer runs across that range.
_CG_TOL_KW = (
    "rtol" if "rtol" in inspect.signature(spla.cg).parameters else "tol"
)


def _cg(
    mat: sp.csr_matrix,
    rhs: np.ndarray,
    x0: np.ndarray,
    tol: float,
    maxiter: int,
    callback,
) -> Tuple[np.ndarray, int]:
    return spla.cg(
        mat, rhs, x0=x0, maxiter=maxiter, callback=callback,
        **{_CG_TOL_KW: tol},
    )


@dataclass(frozen=True)
class GlobalPlacerOptions:
    """Knobs of the global placer."""

    #: Outer solve/spread iterations.
    iterations: int = 7
    #: Initial anchor weight relative to net weights; doubles per iteration.
    anchor_weight: float = 0.02
    #: Nets up to this degree use a clique model; larger nets use a star
    #: to their running centroid.
    clique_max_degree: int = 8
    #: Nets above this degree are ignored for attraction (resets/scan).
    ignore_degree: int = 64
    #: Optional explicit grid resolution; derived from cell count if None.
    grid_bins: Optional[int] = None
    #: Weight (relative to the mean net weight) pulling every cell toward
    #: its module's centroid.  Hierarchical designs are floorplanned with
    #: module guides — the paper's floorplans are hand-optimized per
    #: module — and this cohesion term keeps modules from interleaving
    #: and stops spreading from teleporting stragglers across the die.
    module_cohesion: float = 0.15
    seed: int = 7


class Placement:
    """A placement of every instance of a netlist inside a floorplan.

    ``x``/``y`` hold the *center* of each instance, indexed by
    ``instance.id``.  Macro positions come from the floorplan and are
    immutable; standard cells move.
    """

    def __init__(
        self,
        netlist: Netlist,
        floorplan: Floorplan,
        port_locations: Dict[str, Point],
    ):
        self.netlist = netlist
        self.floorplan = floorplan
        self.port_locations = dict(port_locations)
        n = netlist.num_instances
        self.x = np.zeros(n)
        self.y = np.zeros(n)
        self.movable = np.ones(n, dtype=bool)
        center = floorplan.outline.center
        self.x[:] = center.x
        self.y[:] = center.y
        for inst in netlist.instances:
            rect = floorplan.macro_placements.get(inst.name)
            if rect is not None:
                self.x[inst.id] = rect.center.x
                self.y[inst.id] = rect.center.y
                self.movable[inst.id] = False
            elif inst.fixed and inst.is_macro:
                raise ValueError(f"macro {inst.name} has no floorplan location")
        self._geometry: Optional[NetGeometryIndex] = None

    def geometry(self) -> NetGeometryIndex:
        """The flat net-geometry index of this design, built lazily.

        Shared by :meth:`copy` clones — the index depends only on the
        netlist, the floorplan's macro rects, and the port map, all of
        which the clones share.
        """
        if self._geometry is None:
            self._geometry = shared_geometry(
                self.netlist,
                self.floorplan.macro_placements,
                self.port_locations,
            )
        return self._geometry

    # -- pin positions --------------------------------------------------------------

    def instance_origin(self, inst: Instance) -> Point:
        rect = self.floorplan.macro_placements.get(inst.name)
        if rect is not None:
            return Point(rect.xlo, rect.ylo)
        master = inst.master
        return Point(
            self.x[inst.id] - master.width / 2.0,
            self.y[inst.id] - master.height / 2.0,
        )

    def pin_position(self, inst: Instance, pin_name: str) -> Point:
        """Physical location of an instance pin.

        Standard-cell pins are approximated by the cell center (cells are
        a few sites wide); macro pins use their exact LEF offset.
        """
        if inst.is_macro:
            master = inst.master
            assert isinstance(master, Macro)
            origin = self.instance_origin(inst)
            offset = master.pin(pin_name).offset
            return Point(origin.x + offset.x, origin.y + offset.y)
        return Point(self.x[inst.id], self.y[inst.id])

    def term_position(self, term: Tuple[object, str]) -> Point:
        obj, pin = term
        if isinstance(obj, Instance):
            return self.pin_position(obj, pin)
        assert isinstance(obj, Port)
        return self.port_locations[obj.name]

    def net_points(self, net: Net) -> List[Point]:
        return [self.term_position(term) for term in net.terms]

    def net_hpwl(self, net: Net) -> float:
        points = self.net_points(net)
        if len(points) < 2:
            return 0.0
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def total_hpwl(self, include_clock: bool = False) -> float:
        return self.geometry().total_hpwl(self.x, self.y, include_clock)

    def total_hpwl_reference(self, include_clock: bool = False) -> float:
        """Scalar per-net walk; the bit-exact oracle for the index kernel."""
        total = 0.0
        for net in self.netlist.nets:
            if net.is_clock and not include_clock:
                continue
            total += self.net_hpwl(net)
        return total

    def copy(self) -> "Placement":
        clone = Placement.__new__(Placement)
        clone.netlist = self.netlist
        clone.floorplan = self.floorplan
        clone.port_locations = dict(self.port_locations)
        clone.x = self.x.copy()
        clone.y = self.y.copy()
        clone.movable = self.movable.copy()
        clone._geometry = self._geometry
        return clone


# -- connectivity extraction ---------------------------------------------------------


class _Connectivity:
    """Sparse quadratic model: movable-movable edges and movable-fixed pulls.

    The off-diagonal COO triplets are immutable after construction, so
    :meth:`matrix` builds their CSR form once and reuses it across the
    solve loop — only the diagonal varies per iteration.
    """

    def __init__(self, num_movable: int):
        self.n = num_movable
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.vals: List[float] = []
        self.diag = np.zeros(num_movable)
        self.bx = np.zeros(num_movable)
        self.by = np.zeros(num_movable)
        self._offdiag: Optional[sp.csr_matrix] = None

    def add_pair(self, i: int, j: int, w: float) -> None:
        self.rows.append(i)
        self.cols.append(j)
        self.vals.append(-w)
        self.rows.append(j)
        self.cols.append(i)
        self.vals.append(-w)
        self.diag[i] += w
        self.diag[j] += w

    def add_fixed(self, i: int, fx: float, fy: float, w: float) -> None:
        self.diag[i] += w
        self.bx[i] += w * fx
        self.by[i] += w * fy

    def matrix(self, extra_diag: np.ndarray) -> sp.csr_matrix:
        if self._offdiag is None:
            self._offdiag = sp.coo_matrix(
                (self.vals, (self.rows, self.cols)), shape=(self.n, self.n)
            ).tocsr()
        return self._offdiag + sp.diags(self.diag + extra_diag)


#: A star net: (movable pin indices in term order, weight).
StarNet = Tuple[np.ndarray, float]


def _build_connectivity_reference(
    netlist: Netlist,
    placement: Placement,
    movable_index: Dict[int, int],
    options: GlobalPlacerOptions,
) -> Tuple[_Connectivity, List[StarNet]]:
    """Scalar quadratic-model builder: the bit-exact oracle for tests."""
    conn = _Connectivity(len(movable_index))
    star_nets: List[StarNet] = []
    for net in netlist.nets:
        if net.is_clock or net.degree < 2 or net.degree > options.ignore_degree:
            continue
        movers: List[int] = []
        fixed: List[Point] = []
        for term in net.terms:
            obj, _pin = term
            if isinstance(obj, Instance) and placement.movable[obj.id]:
                movers.append(movable_index[obj.id])
            else:
                fixed.append(placement.term_position(term))
        if not movers:
            continue
        degree = net.degree
        if degree <= options.clique_max_degree:
            w = 2.0 / degree
            for a in range(len(movers)):
                for b in range(a + 1, len(movers)):
                    conn.add_pair(movers[a], movers[b], w)
                for point in fixed:
                    conn.add_fixed(movers[a], point.x, point.y, w)
        else:
            w = 4.0 / degree
            if fixed:
                fx = sum(p.x for p in fixed) / len(fixed)
                fy = sum(p.y for p in fixed) / len(fixed)
                for i in movers:
                    conn.add_fixed(i, fx, fy, w)
            star_nets.append((np.array(movers, dtype=np.int64), w))
    return conn, star_nets


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _build_connectivity(
    netlist: Netlist,
    placement: Placement,
    movable_index: Dict[int, int],
    options: GlobalPlacerOptions,
) -> Tuple[_Connectivity, List[StarNet]]:
    """Build the quadratic model from the flat net-geometry index.

    Returns the connectivity plus the list of star nets as (movable pin
    indices, weight); their centroid pulls are refreshed every iteration.

    This is an array re-expression of :func:`_build_connectivity_reference`
    that must match it bit-for-bit: COO triplets are emitted in the exact
    append order of the scalar pair loops (so the duplicate-summing
    ``tocsr`` sees the same sequence), and the diagonal/rhs accumulators
    are filled with ``np.add.at`` streams ordered net-by-net — floating-
    point accumulation order is part of the QoR baseline contract.
    """
    conn = _Connectivity(len(movable_index))
    geo = placement.geometry()
    num_nets = geo.num_nets
    if num_nets == 0:
        return conn, []

    n_inst = placement.movable.size
    mov_rank = np.full(n_inst, -1, dtype=np.int64)
    for inst_id, k in movable_index.items():
        mov_rank[inst_id] = k

    ti = geo.term_inst
    safe = np.where(ti >= 0, ti, 0)
    movable_term = (ti >= 0) & placement.movable[safe]
    t_net = geo.term_net
    deg = geo.net_degree
    nm = np.bincount(t_net[movable_term], minlength=num_nets)

    eligible = (
        (~geo.net_is_clock)
        & (deg >= 2)
        & (deg <= options.ignore_degree)
        & (nm > 0)
    )
    if not eligible.any():
        return conn, []

    px, py = geo.term_xy(placement.x, placement.y)

    # Streams over the eligible nets, in net order.
    e_ids = np.flatnonzero(eligible)
    e_clique = (deg[e_ids] <= options.clique_max_degree)
    e_nm = nm[e_ids]
    e_nf = (deg - nm)[e_ids]
    e_w = np.where(e_clique, 2.0 / deg[e_ids], 4.0 / deg[e_ids])

    elig_term = eligible[t_net]
    mterm = np.flatnonzero(movable_term & elig_term)
    mrank = mov_rank[ti[mterm]]
    moff = _exclusive_cumsum(e_nm)
    fterm = np.flatnonzero((~movable_term) & elig_term)
    fpx = px[fterm]
    fpy = py[fterm]
    foff = _exclusive_cumsum(e_nf)

    # Per-net entry counts -> destination offsets restoring net order.
    pair_cnt = np.where(e_clique, e_nm * (e_nm - 1), 0)
    star_fix = (~e_clique) & (e_nf > 0)
    diag_cnt = np.where(
        e_clique, e_nm * (e_nm - 1) + e_nm * e_nf, np.where(star_fix, e_nm, 0)
    )
    b_cnt = np.where(e_clique, e_nm * e_nf, np.where(star_fix, e_nm, 0))
    pair_off = _exclusive_cumsum(pair_cnt)
    diag_off = _exclusive_cumsum(diag_cnt)
    b_off = _exclusive_cumsum(b_cnt)

    rows = np.empty(int(pair_off[-1]), dtype=np.int64)
    cols = np.empty(int(pair_off[-1]), dtype=np.int64)
    vals = np.empty(int(pair_off[-1]))
    diag_idx = np.empty(int(diag_off[-1]), dtype=np.int64)
    diag_val = np.empty(int(diag_off[-1]))
    b_idx = np.empty(int(b_off[-1]), dtype=np.int64)
    bvx = np.empty(int(b_off[-1]))
    bvy = np.empty(int(b_off[-1]))

    # Star fixed-pin centroids: sequential Python sums in term order, the
    # scalar reference's exact accumulation (numpy's pairwise/unrolled
    # reductions differ in the last ULPs for > 8 addends).
    star_cx = np.zeros(e_ids.size)
    star_cy = np.zeros(e_ids.size)
    if star_fix.any():
        fpx_l = fpx.tolist()
        fpy_l = fpy.tolist()
        foff_l = foff.tolist()
        for r in np.flatnonzero(star_fix).tolist():
            lo, hi = foff_l[r], foff_l[r + 1]
            sx = 0.0
            sy = 0.0
            for t in range(lo, hi):
                sx += fpx_l[t]
                sy += fpy_l[t]
            star_cx[r] = sx / (hi - lo)
            star_cy[r] = sy / (hi - lo)

    # Size classes: nets sharing (model, movers, fixed) counts batch into
    # one 2D gather; destination offsets scatter every block back into
    # net order.
    cls = np.stack(
        [e_clique.astype(np.int64), e_nm.astype(np.int64),
         e_nf.astype(np.int64)], axis=1
    )
    uniq, inv = np.unique(cls, axis=0, return_inverse=True)
    for u in range(uniq.shape[0]):
        is_cl, s, f = (int(v) for v in uniq[u])
        sel = np.flatnonzero(inv == u)
        w_c = e_w[sel]
        M = mrank[moff[sel][:, None] + np.arange(s)]
        if is_cl:
            diag_blocks = []
            if s >= 2:
                pa, pb = np.triu_indices(s, 1)
                # Interleaved (a, b), (b, a) per pair — the scalar
                # add_pair append order.
                rt = np.stack([pa, pb], axis=1).ravel()
                ct = np.stack([pb, pa], axis=1).ravel()
                pdest = (
                    pair_off[sel][:, None] + np.arange(rt.size)
                ).ravel()
                rows[pdest] = M[:, rt].ravel()
                cols[pdest] = M[:, ct].ravel()
                vals[pdest] = np.repeat(-w_c, rt.size)
                diag_blocks.append(M[:, rt])
            if f > 0:
                diag_blocks.append(np.repeat(M, f, axis=1))
                fx_g = fpx[foff[sel][:, None] + np.arange(f)]
                fy_g = fpy[foff[sel][:, None] + np.arange(f)]
                bdest = (b_off[sel][:, None] + np.arange(s * f)).ravel()
                b_idx[bdest] = np.repeat(M, f, axis=1).ravel()
                bvx[bdest] = (w_c[:, None] * np.tile(fx_g, (1, s))).ravel()
                bvy[bdest] = (w_c[:, None] * np.tile(fy_g, (1, s))).ravel()
            if diag_blocks:
                block = (
                    np.concatenate(diag_blocks, axis=1)
                    if len(diag_blocks) > 1
                    else diag_blocks[0]
                )
                ddest = (
                    diag_off[sel][:, None] + np.arange(block.shape[1])
                ).ravel()
                diag_idx[ddest] = block.ravel()
                diag_val[ddest] = np.repeat(w_c, block.shape[1])
        elif f > 0:
            ddest = (diag_off[sel][:, None] + np.arange(s)).ravel()
            diag_idx[ddest] = M.ravel()
            diag_val[ddest] = np.repeat(w_c, s)
            bdest = (b_off[sel][:, None] + np.arange(s)).ravel()
            b_idx[bdest] = M.ravel()
            bvx[bdest] = np.repeat(w_c * star_cx[sel], s)
            bvy[bdest] = np.repeat(w_c * star_cy[sel], s)

    conn.rows = rows
    conn.cols = cols
    conn.vals = vals
    np.add.at(conn.diag, diag_idx, diag_val)
    np.add.at(conn.bx, b_idx, bvx)
    np.add.at(conn.by, b_idx, bvy)

    star_nets: List[StarNet] = [
        (mrank[moff[r]:moff[r + 1]].copy(), float(e_w[r]))
        for r in np.flatnonzero(~e_clique).tolist()
    ]
    return conn, star_nets


class _CentroidBatch:
    """Batched per-group centroid pulls for the solve loop.

    Groups of equal size share one 2D gather: ``base[M].sum(axis=1) / s``
    is bitwise-identical to each row's ``base[group].mean()`` (same
    pairwise reduction over the same elements), which plain
    ``np.add.reduceat`` over a concatenated stream would NOT be — its
    sequential segment sums diverge from numpy's pairwise ``mean`` in the
    last ULPs, breaking the byte-identical QoR gate.

    Scatter-accumulation replays the scalar loop's semantics: fancy
    ``dst[group] += v`` collapses duplicate indices (hence ``dedupe``),
    and groups are laid out in their original order so elements shared
    between groups accumulate in the reference sequence.
    """

    def __init__(self, groups: Sequence[np.ndarray], dedupe: bool):
        self._classes: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        by_size: Dict[int, List[int]] = {}
        for g, members in enumerate(groups):
            by_size.setdefault(len(members), []).append(g)
        for size, positions in by_size.items():
            pos = np.array(positions, dtype=np.int64)
            mat = np.stack([groups[g] for g in positions])
            self._classes[size] = (pos, mat)
        scatter = [np.unique(g) if dedupe else g for g in groups]
        self.n_groups = len(groups)
        self._scatter = (
            np.concatenate(scatter)
            if scatter
            else np.empty(0, dtype=np.int64)
        )
        self._rep = np.array([s.size for s in scatter], dtype=np.int64)

    def means(self, base: np.ndarray) -> np.ndarray:
        out = np.empty(self.n_groups)
        for size, (pos, mat) in self._classes.items():
            out[pos] = base[mat].sum(axis=1) / size
        return out

    def accumulate(self, dst: np.ndarray, per_group) -> None:
        """``dst[group] += value`` for every group, in group order."""
        if self._scatter.size == 0:
            return
        values = np.asarray(per_group)
        if values.ndim == 0:
            values = np.full(self.n_groups, values)
        np.add.at(dst, self._scatter, np.repeat(values, self._rep))


# -- spreading -----------------------------------------------------------------------


def _spread_targets(
    x: np.ndarray,
    y: np.ndarray,
    areas: np.ndarray,
    grid: CapacityGrid,
) -> Tuple[np.ndarray, np.ndarray]:
    """Capacity-weighted recursive bisection; returns per-cell targets."""
    tx = np.empty_like(x)
    ty = np.empty_like(y)
    cap_x = grid.capacity  # indexed [ix, iy]

    def recurse(ix0: int, ix1: int, iy0: int, iy1: int, cells: np.ndarray) -> None:
        if cells.size == 0:
            return
        if ix1 - ix0 == 1 and iy1 - iy0 == 1:
            cx, cy = grid.bin_center(ix0, iy0)
            # Deterministic low-discrepancy jitter inside the bin keeps
            # same-bin cells distinguishable for legalization.
            k = np.arange(cells.size)
            tx[cells] = cx + (((k * 0.754) % 1.0) - 0.5) * grid.bin_w * 0.8
            ty[cells] = cy + (((k * 0.569) % 1.0) - 0.5) * grid.bin_h * 0.8
            return
        split_vertical = (ix1 - ix0) >= (iy1 - iy0)
        if split_vertical:
            caps = cap_x[ix0:ix1, iy0:iy1].sum(axis=1)
            coords = x[cells]
        else:
            caps = cap_x[ix0:ix1, iy0:iy1].sum(axis=0)
            coords = y[cells]
        total_cap = caps.sum()
        order = cells[np.argsort(coords, kind="stable")]
        cell_areas = areas[order]
        total_area = cell_areas.sum()
        # Candidate split points are bin boundaries; pick the one closest
        # to halving the capacity, then split cell area in proportion.
        cum = np.cumsum(caps)
        if total_cap <= 0.0:
            half = len(caps) // 2
        else:
            half = int(np.argmin(np.abs(cum - total_cap / 2.0))) + 1
        half = min(max(half, 1), len(caps) - 1)
        cap_left = cum[half - 1]
        frac = 0.5 if total_cap <= 0 else cap_left / total_cap
        if total_area <= 0:
            count_left = order.size // 2
        else:
            cum_area = np.cumsum(cell_areas)
            count_left = int(np.searchsorted(cum_area, frac * total_area))
        count_left = min(max(count_left, 0), order.size)
        left, right = order[:count_left], order[count_left:]
        if split_vertical:
            recurse(ix0, ix0 + half, iy0, iy1, left)
            recurse(ix0 + half, ix1, iy0, iy1, right)
        else:
            recurse(ix0, ix1, iy0, iy0 + half, left)
            recurse(ix0, ix1, iy0 + half, iy1, right)

    recurse(0, grid.nx, 0, grid.ny, np.arange(x.size))
    return tx, ty


# -- main entry ------------------------------------------------------------------------


def global_place(
    netlist: Netlist,
    floorplan: Floorplan,
    port_locations: Dict[str, Point],
    options: GlobalPlacerOptions = GlobalPlacerOptions(),
    module_anchors: Optional[Dict[str, Point]] = None,
) -> Placement:
    """Globally place the movable standard cells of ``netlist``.

    ``module_anchors`` (module name -> point) turns the cohesion term
    into fixed placement guides — see :mod:`repro.place.regions`.
    """
    placement = Placement(netlist, floorplan, port_locations)
    instances = netlist.instances
    movable_ids = [inst.id for inst in instances if placement.movable[inst.id]]
    if not movable_ids:
        return placement
    movable_index = {inst_id: k for k, inst_id in enumerate(movable_ids)}
    n = len(movable_ids)
    areas = np.array([instances[i].area for i in movable_ids])

    grid = (
        CapacityGrid(floorplan, options.grid_bins, options.grid_bins)
        if options.grid_bins
        else CapacityGrid.for_cell_count(floorplan, n)
    )

    with span("place_connectivity"):
        conn, star_nets = _build_connectivity(
            netlist, placement, movable_index, options
        )
    center = floorplan.outline.center
    # Tiny pull to the center keeps the system positive definite even for
    # cells with no fixed connection.
    regularisation = 1e-6

    x = np.full(n, center.x)
    y = np.full(n, center.y)
    rng = np.random.default_rng(options.seed)
    x += rng.normal(0.0, floorplan.outline.width * 0.01, n)
    y += rng.normal(0.0, floorplan.outline.height * 0.01, n)

    mean_weight = conn.diag.mean() if conn.diag.size else 1.0
    anchor_w = options.anchor_weight * max(mean_weight, 1e-9)
    targets: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # Module cohesion groups: instance-name prefix up to the first "/".
    module_groups: List[Tuple[np.ndarray, Optional[Point]]] = []
    if options.module_cohesion > 0.0:
        by_module: Dict[str, List[int]] = {}
        for inst_id in movable_ids:
            name = instances[inst_id].name
            module = name.split("/", 1)[0]
            by_module.setdefault(module, []).append(movable_index[inst_id])
        for module, members in by_module.items():
            if len(members) <= 8:
                continue
            anchor = module_anchors.get(module) if module_anchors else None
            module_groups.append((np.array(members), anchor))
    cohesion_w = options.module_cohesion * max(mean_weight, 1e-9)

    star_batch = _CentroidBatch(
        [movers for movers, _w in star_nets],
        dedupe=True,
    )
    star_w = np.array([w for _m, w in star_nets])
    coh_batch = _CentroidBatch(
        [members for members, _a in module_groups],
        dedupe=False,
    )
    coh_anchor_x = np.array(
        [0.0 if a is None else a.x for _m, a in module_groups]
    )
    coh_anchor_y = np.array(
        [0.0 if a is None else a.y for _m, a in module_groups]
    )
    coh_anchored = np.array(
        [a is not None for _m, a in module_groups], dtype=bool
    )

    gauge("movable_cells", float(n))
    # CG iteration counting runs through a callback, which scipy invokes
    # per iteration — attach it only when a recorder is installed so the
    # untraced path stays callback-free.
    cg_callback = None
    if active_recorder() is not None:
        def cg_callback(_xk: np.ndarray) -> None:
            count("cg_iterations", 1)

    for iteration in range(options.iterations):
        count("placer_iterations", 1)
        extra = np.full(n, regularisation)
        bx = conn.bx + regularisation * center.x
        by = conn.by + regularisation * center.y
        # Star nets pull their movable pins to the running centroid.
        if star_w.size:
            cx = star_batch.means(x)
            cy = star_batch.means(y)
            star_batch.accumulate(extra, star_w)
            star_batch.accumulate(bx, star_w * cx)
            star_batch.accumulate(by, star_w * cy)
        if coh_anchored.size:
            ax = np.where(coh_anchored, coh_anchor_x, coh_batch.means(x))
            ay = np.where(coh_anchored, coh_anchor_y, coh_batch.means(y))
            coh_batch.accumulate(extra, cohesion_w)
            coh_batch.accumulate(bx, cohesion_w * ax)
            coh_batch.accumulate(by, cohesion_w * ay)
        if targets is not None:
            weight = anchor_w * (2.0 ** iteration)
            extra += weight
            bx = bx + weight * targets[0]
            by = by + weight * targets[1]
        mat = conn.matrix(extra)
        with span("place_solve", iteration=iteration):
            x_new, _ = _cg(mat, bx, x0=x, tol=1e-6, maxiter=300,
                           callback=cg_callback)
            y_new, _ = _cg(mat, by, x0=y, tol=1e-6, maxiter=300,
                           callback=cg_callback)
        count("cg_solves", 2)
        x, y = x_new, y_new
        with span("place_spread"):
            targets = _spread_targets(x, y, areas, grid)

    # Final positions: the spread targets, clamped into the outline.
    assert targets is not None
    outline = floorplan.outline
    placement.x[movable_ids] = np.clip(targets[0], outline.xlo, outline.xhi)
    placement.y[movable_ids] = np.clip(targets[1], outline.ylo, outline.yhi)
    return placement
