"""Legendre duality between pressure and the entropy of directions.

The attainable direction set is the closure of the cycle ratios
class / length, which is the convex hull of those of period <= the vertex
count (see ``direction_hull``); its interior is exactly the image of the
pressure gradient.  For a direction rho in that interior, the dual
parameter u(rho) minimizes e(u) = flow_pressure(u) - <u, rho>, the
entropy of the direction is the minimum value, and the entropy Hessian
is minus the inverse pressure Hessian at u(rho).

scipy is imported lazily, for Qhull only: its hull of points of affine
dimension >= 2, taken in their affine frame, gives ``direction_hull`` its
vertices and the containment tests their facet inequalities.  The import
costs more CPU than most commands spend working.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateModel, DimensionMismatch, EmptySelection, NonConvergence,
                     OutsideCone, SingularHessian)
from .graphs import DirectedGraph, require_valid, scan_cycles
from .weights import WeightSystem, require_dimension
from .thermo import edge_arrays, pair_jet, pressure_jet


class Membership(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class DirectionHull:
    """Cycle ratio points with their convex hull."""

    points: tuple[tuple[float, ...], ...]
    vertices: tuple[tuple[float, ...], ...]
    dim: int  # affine dimension of the point set

    def contains(self, rho, tol: float = 1e-9) -> bool:
        return hull_contains(self.points, rho, tol)


@dataclass(frozen=True)
class DirectionData:
    """A direction with its dual parameter and entropy data."""

    rho: tuple[float, ...]
    u: tuple[float, ...]
    entropy: float
    pressure_at_u: float
    hessian_h: np.ndarray  # d x d, negative definite


_COLLINEARITY_TOL = 1e-12
_TOL = 1e-8            # solve_u: sup-norm of grad e at the solution, and 1e-10 of its Newton step
_MAX_ITER = 200        # solve_u: Newton steps before giving up
_DIVERGE_NORM = 1e3    # solve_u: |u| beyond which rho is outside
_FLAT_TOL = 1e-13      # solve_u: predicted decrease below e's resolution


def _affine_frame(points):
    """Centre of a nonempty point set, an orthonormal basis (rows) of its
    affine hull, and the points' coordinates in that basis."""
    pts = np.asarray(points, dtype=float)
    if not pts.size:
        raise EmptySelection("no points to take the hull of")
    centre = pts.mean(axis=0)
    centered = pts - centre
    _, sv, basis = np.linalg.svd(centered, full_matrices=False)
    basis = basis[: int((sv > _COLLINEARITY_TOL * max(1.0, float(sv[0]))).sum())]
    return centre, basis, centered @ basis.T


def _qhull(coords: np.ndarray):
    from scipy.spatial import ConvexHull  # the one scipy import

    return ConvexHull(coords)


def _ratio_points(g: DirectedGraph, w: WeightSystem, n: int) -> np.ndarray:
    """Distinct class/length ratios over prime cycles of period <= n, in
    the (period, vertex sequence) order of their first cycle."""
    scan = scan_cycles(g, w.roof, w.classes, n)
    if not len(scan.period):
        raise EmptySelection(f"no prime cycle of period <= {n}")
    ratios = scan.classes / scan.length[:, None]
    return ratios[np.sort(np.unique(ratios, axis=0, return_index=True)[1])]


def direction_hull(g: DirectedGraph, w: WeightSystem, n: int) -> DirectionHull:
    """Hull of class/length ratios over prime cycles of period <= n, each
    distinct ratio once, in the (period, vertex sequence) order of its
    first cycle; the vertices keep that order.  On a strongly connected
    graph n >= the vertex count gives the exact direction set: a closed
    walk splits into simple cycles of period at most the vertex count, so
    its ratio is a convex combination of theirs (Marcus & Tuncel, ETDS 11,
    1991; Ziemian, Fund. Math. 146, 1995)."""
    arr = _ratio_points(g, w, n)
    pts = tuple(map(tuple, arr.tolist()))
    _, basis, coords = _affine_frame(arr)
    dim = len(basis)
    if dim == 0:
        index = [0]
    elif dim == 1:
        index = [int(np.argmin(coords[:, 0])), int(np.argmax(coords[:, 0]))]
    else:
        index = _qhull(coords).vertices
    return DirectionHull(pts, tuple(pts[i] for i in sorted(index)), dim)


def _overshoot(points, rho) -> tuple[int, float, float]:
    """Affine dimension of the points; rho's sup-norm distance to their
    affine hull; and, in its orthonormal frame, rho's largest Euclidean
    overshoot past an end point (dimension <= 1) or a Qhull facet plane
    (dimension >= 2), negative inside and -inf for a single point."""
    centre, basis, coords = _affine_frame(points)
    rho = np.asarray(rho, dtype=float).reshape(-1)
    if rho.shape != centre.shape:
        raise DimensionMismatch(f"rho has length {len(rho)}, points have dimension {len(centre)}")
    y = basis @ (rho - centre)
    off = float(np.abs(rho - centre - y @ basis).max())
    if len(basis) <= 1:
        over = np.concatenate([coords.min(axis=0) - y, y - coords.max(axis=0)])
    else:
        eq = _qhull(coords).equations
        over = eq[:, :-1] @ y + eq[:, -1]
    return len(basis), off, float(over.max(initial=-np.inf))


def hull_contains(points, rho, tol: float = 1e-9) -> bool:
    """Is rho in the convex hull of the points, within tol?  tol bounds the
    sup-norm distance to their affine hull and, in its orthonormal frame,
    the Euclidean overshoot past an end point (dimension <= 1) or a Qhull
    facet plane (dimension >= 2)."""
    _, off, over = _overshoot(points, rho)
    return off <= tol and over <= tol


def solve_u(g: DirectedGraph, w: WeightSystem, rho) -> DirectionData:
    """Dual parameter u(rho) by Newton descent on e(u) = pressure - <u, rho>.

    Starts from u = 0 with Armijo backtracking.  A trial point u + t step
    takes one Perron pair at its second-order predicted pressure, and more
    only while |log lambda| > 1e-6; its corrected pressure gives e (see
    ``pair_jet``).  Once the predicted decrease is below e's float
    resolution, a step that lowers the gradient residual is accepted.  The
    solve stops at a residual <= _TOL and a Newton step <= 1e-10 (or a
    residual at float noise), the pressure polished to |log lambda| <= 1e-13.
    Raises OutsideCone when |u| passes _DIVERGE_NORM, a Newton step is not
    finite or the line search stalls with a gradient bounded away from
    zero, and DegenerateModel when the pressure Hessian is singular at the
    origin (empty interior).
    """
    rho = np.asarray(rho, dtype=float).reshape(-1)
    d = w.dimension
    require_dimension("rho", len(rho), d)
    r, c = edge_arrays(g, w)

    u = np.zeros(d)
    jet = pressure_jet(r, c, u)
    eigs = np.linalg.eigvalsh(jet.hessian)
    if eigs.min() <= 1e-10 * max(1.0, eigs.max()):
        raise DegenerateModel("pressure Hessian singular at 0; direction set has empty interior")
    noise = 16 * np.finfo(float).eps * max(1.0, float(np.abs(rho).max()))
    for _ in range(_MAX_ITER):
        if abs(jet.log_lambda) > 1e-13 and float(np.abs(jet.gradient - rho).max()) <= _TOL:
            jet = pressure_jet(r, c, u)  # polish the pressure
        e_val, grad = jet.pressure - float(u @ rho), jet.gradient - rho
        residual = float(np.abs(grad).max())
        if residual <= _TOL:
            # a genuine interior minimum has a nondegenerate Hessian; a
            # vanishing one means the iterate ran off toward the boundary
            # and the gradient decayed along the way
            if float(np.linalg.eigvalsh(jet.hessian).min()) <= 10.0 * _TOL:
                raise OutsideCone(
                    "dual Hessian degenerate at the solution; direction "
                    "numerically indistinguishable from the boundary"
                )
            try:
                hess_h = -np.linalg.inv(jet.hessian)
            except np.linalg.LinAlgError as exc:
                raise SingularHessian(str(exc)) from exc
            if float(np.abs(hess_h @ grad).max()) <= 1e-10 or residual <= noise:
                return DirectionData(tuple(map(float, rho)), tuple(map(float, u)),
                                     float(e_val), float(jet.pressure), hess_h)
        try:
            step = np.linalg.solve(jet.hessian, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(jet.hessian + 1e-10 * np.eye(d), -grad)
        if not np.isfinite(step).all():
            raise OutsideCone("Newton step is not finite; direction outside the attainable set")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge rho stalls below
            slope = float(grad @ step)
            if slope >= 0.0:  # not a descent direction; regularize
                step = np.linalg.solve(jet.hessian + 1e-10 * np.eye(d), -grad)
                slope = float(grad @ step)
            dp, d2p = float(jet.gradient @ step), float(step @ jet.hessian @ step)
        flat = -slope <= _FLAT_TOL * max(1.0, abs(e_val))
        t = 1.0
        while t >= 1e-12:
            u_new = u + t * step
            try:
                jet_new = pair_jet(r, c, u_new, jet.pressure + t * dp + 0.5 * t * t * d2p)
                while abs(jet_new.log_lambda) > 1e-6:
                    jet_new = pair_jet(r, c, u_new, jet_new.pressure)
            except NonConvergence:
                # transfer matrix under/overflowed: step far too long
                t *= 0.5
                continue
            e_new = jet_new.pressure - float(u_new @ rho)
            grad_new = jet_new.gradient - rho
            if e_new <= e_val + 1e-4 * t * slope or (
                flat and float(np.abs(grad_new).max()) < residual
            ):
                break
            t *= 0.5
        else:
            raise OutsideCone(f"line search stalled with gradient norm {residual:.3g}")
        u, jet = u_new, jet_new
        if float(np.linalg.norm(u)) > _DIVERGE_NORM:
            raise OutsideCone(f"dual parameter diverged (|u| > {_DIVERGE_NORM:g}); "
                              "direction outside the attainable set")
    raise OutsideCone(f"no convergence in {_MAX_ITER} Newton steps")


def entropy_hessian(dd: DirectionData) -> np.ndarray:
    """Hessian of the entropy function at dd.rho: minus the inverse
    pressure Hessian at the dual parameter."""
    h = dd.hessian_h
    if not np.isfinite(h).all():
        raise SingularHessian("entropy Hessian is not finite")
    eigs = np.linalg.eigvalsh(h)
    if eigs.max() >= 0.0:
        raise SingularHessian(f"entropy Hessian not negative definite "
                              f"(max eigenvalue {eigs.max():.3g})")
    return h


def membership(g: DirectedGraph, w: WeightSystem, rho) -> Membership:
    """Classify rho against the interior of the direction set, decided
    from the exact hull: the cycle ratios of period <= the vertex count
    (see ``direction_hull``).

    Outside when rho is more than 1e-9 off that hull (as ``hull_contains``
    measures it); Inside when the hull has full dimension and rho is more
    than 1e-9 inside every facet; Indeterminate in the remainder: within
    1e-9 of the boundary, or in a hull with empty interior."""
    require_valid(g)
    dim, off, over = _overshoot(_ratio_points(g, w, g.vertex_count), rho)
    if off > 1e-9 or over > 1e-9:
        return Membership.OUTSIDE
    if dim == w.dimension and over < -1e-9:
        return Membership.INSIDE
    return Membership.INDETERMINATE
