"""Oracles for :mod:`repro.route.global_route`."""

from typing import List

from repro.route.global_route import GlobalRouter, RoutedNet


def nets_on_overflow_reference(router: GlobalRouter) -> List[RoutedNet]:
    """Scalar oracle for ``GlobalRouter._nets_on_overflow``: a per-net
    walk over every routed segment, in routing order."""
    grid = router.grid
    over_h = grid.use_h > grid.cap_h
    over_v = grid.use_v > grid.cap_v
    if not over_h.any() and not over_v.any():
        return []
    oh = over_h.ravel().tolist()
    ov = over_v.ravel().tolist()
    offenders = []
    for routed in router.routed.values():
        hit = False
        for edge in routed.edges:
            segs = edge.seg_ids
            if segs is None:
                segs = edge.seg_ids = router._edge_segments(edge.path)
            h_ids, v_ids = segs
            for i in h_ids:
                if oh[i]:
                    hit = True
                    break
            if not hit:
                for i in v_ids:
                    if ov[i]:
                        hit = True
                        break
            if hit:
                break
        if hit:
            offenders.append(routed)
    return offenders
