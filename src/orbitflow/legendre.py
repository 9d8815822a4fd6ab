"""Legendre duality between pressure and the entropy of directions.

The attainable direction set is the closure of the cycle ratios
class / length; its interior is exactly the image of the pressure
gradient.  For a direction rho in that interior, the dual parameter
u(rho) minimizes e(u) = flow_pressure(u) - <u, rho>, the entropy of the
direction is the minimum value, and the entropy Hessian is minus the
inverse pressure Hessian at u(rho).  Divergence of the Newton iteration
is the signal that rho left the interior.

scipy is imported lazily, where used: ``ConvexHull`` (Qhull) in
``direction_hull`` for points of affine dimension >= 2 and ``linprog``
(HiGHS) in ``hull_contains``.  Its import costs more CPU than most
commands spend working, and only hull and membership queries need it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateModel,
    DimensionMismatch,
    EmptySelection,
    NonConvergence,
    OutsideCone,
    SingularHessian,
)
from .graphs import DirectedGraph
from .weights import WeightSystem, cycle_sums
from .thermo import edge_arrays, pressure_jet


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
_TOL = 1e-8            # solve_u: sup-norm of grad e at the solution
_MAX_ITER = 200        # solve_u: Newton steps before giving up
_DIVERGE_NORM = 1e3    # solve_u: |u| beyond which rho is outside
_FLAT_TOL = 1e-13      # solve_u: predicted decrease below e's resolution


def direction_hull(g: DirectedGraph, w: WeightSystem, n: int) -> DirectionHull:
    """Hull of class/length ratios over prime cycles of period <= n, each
    distinct ratio once, in the (period, vertex sequence) order of its
    first cycle."""
    scan = cycle_sums(g, w, n)
    if not len(scan.period):
        raise EmptySelection(f"no prime cycle of period <= {n}")
    ratios = scan.classes / scan.length[:, None]
    arr = ratios[np.sort(np.unique(ratios, axis=0, return_index=True)[1])]
    pts = tuple(map(tuple, arr.tolist()))
    centered = arr - arr.mean(axis=0)
    _, sv, basis = np.linalg.svd(centered, full_matrices=False)
    dim = int((sv > _COLLINEARITY_TOL * max(1.0, float(sv[0]))).sum())
    if dim == 0:
        vertices = (pts[0],)
    elif dim == 1:
        along = centered @ basis[0]
        vertices = (pts[int(np.argmin(along))], pts[int(np.argmax(along))])
    else:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(centered @ basis[:dim].T)
        vertices = tuple(pts[i] for i in sorted(hull.vertices))
    return DirectionHull(tuple(pts), vertices, dim)


def hull_contains(points, rho, tol: float = 1e-9) -> bool:
    """Is rho in the convex hull of the points (within tol)?

    Solved as a small LP: minimize the sup-norm slack of a convex
    combination hitting rho.
    """
    from scipy.optimize import linprog

    pts = np.asarray(points, dtype=float)
    rho = np.asarray(rho, dtype=float).reshape(-1)
    n, d = pts.shape
    # variables: weights w (n) and slack t (1); minimize t
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    a_ub = np.zeros((2 * d, n + 1))
    b_ub = np.zeros(2 * d)
    for i in range(d):
        a_ub[i, :n] = pts[:, i]
        a_ub[i, -1] = -1.0
        b_ub[i] = rho[i]
        a_ub[d + i, :n] = -pts[:, i]
        a_ub[d + i, -1] = -1.0
        b_ub[d + i] = -rho[i]
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(0, None)],
        method="highs",
    )
    return bool(res.success) and float(res.fun) <= tol


def solve_u(g: DirectedGraph, w: WeightSystem, rho) -> DirectionData:
    """Dual parameter u(rho) by Newton descent on e(u) = pressure - <u, rho>.

    Starts from u = 0 with Armijo backtracking; each trial point is one
    ``pressure_jet`` solve, which also gives the next Newton step.  Once the
    predicted decrease is below e's float resolution, a step that lowers
    the gradient residual is accepted.  Raises OutsideCone when |u| passes
    _DIVERGE_NORM or the line search stalls with a gradient bounded away
    from zero, and DegenerateModel when the pressure Hessian is singular
    at the origin (empty interior).
    """
    rho = np.asarray(rho, dtype=float).reshape(-1)
    d = w.dimension
    if rho.shape != (d,):
        raise DimensionMismatch(f"rho has length {rho.shape[0]}, class dimension is {d}")
    r, c = edge_arrays(g, w)

    u = np.zeros(d)
    jet = pressure_jet(r, c, u)
    eigs = np.linalg.eigvalsh(jet.hessian)
    if eigs.min() <= 1e-10 * max(1.0, eigs.max()):
        raise DegenerateModel(
            "pressure Hessian singular at 0; direction set has empty interior"
        )
    e_val = jet.pressure  # <u, rho> = 0 at the start
    grad = jet.gradient - rho
    for _ in range(_MAX_ITER):
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
            return DirectionData(
                rho=tuple(float(x) for x in rho),
                u=tuple(float(x) for x in u),
                entropy=float(e_val),
                pressure_at_u=float(jet.pressure),
                hessian_h=hess_h,
            )
        try:
            step = np.linalg.solve(jet.hessian, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(jet.hessian + 1e-10 * np.eye(d), -grad)
        slope = float(grad @ step)
        if slope >= 0.0:  # not a descent direction; regularize
            step = np.linalg.solve(jet.hessian + 1e-10 * np.eye(d), -grad)
            slope = float(grad @ step)
        flat = -slope <= _FLAT_TOL * max(1.0, abs(e_val))
        t = 1.0
        while t >= 1e-12:
            u_new = u + t * step
            try:
                jet_new = pressure_jet(r, c, u_new)
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
            raise OutsideCone(
                f"line search stalled with gradient norm {residual:.3g}"
            )
        u, jet, e_val, grad = u_new, jet_new, e_new, grad_new
        if float(np.linalg.norm(u)) > _DIVERGE_NORM:
            raise OutsideCone(
                f"dual parameter diverged (|u| > {_DIVERGE_NORM:g}); "
                "direction outside the attainable set"
            )
    raise OutsideCone(f"no convergence in {_MAX_ITER} Newton steps")


def entropy_hessian(dd: DirectionData) -> np.ndarray:
    """Hessian of the entropy function at dd.rho: minus the inverse
    pressure Hessian at the dual parameter."""
    h = dd.hessian_h
    if not np.isfinite(h).all():
        raise SingularHessian("entropy Hessian is not finite")
    eigs = np.linalg.eigvalsh(h)
    if eigs.max() >= 0.0:
        raise SingularHessian(
            f"entropy Hessian not negative definite (max eigenvalue {eigs.max():.3g})"
        )
    return h


def membership(
    g: DirectedGraph,
    w: WeightSystem,
    rho,
    *,
    n_probe: int = 8,
) -> Membership:
    """Classify rho against the interior of the direction set.

    Inside when the dual solve converges; Outside when it diverges and
    rho also falls outside the probed cycle-ratio hull; Indeterminate in
    the near-boundary remainder (including degenerate models where the
    interior is empty)."""
    try:
        solve_u(g, w, rho)
        return Membership.INSIDE
    except (OutsideCone, DegenerateModel):
        hull = direction_hull(g, w, n_probe)
        if not hull.contains(rho):
            return Membership.OUTSIDE
        return Membership.INDETERMINATE
