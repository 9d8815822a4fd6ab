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
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateModel, DimensionMismatch, EmptySelection, NonConvergence,
                     OutsideCone, SingularHessian)
from .graphs import DirectedGraph, require_valid, scan_cycles
from .weights import WeightSystem, require_dimension
from .thermo import edge_arrays, edge_stack, pair_jet, pressure_jet


class Membership(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    INDETERMINATE = "indeterminate"


class DirectionHull(NamedTuple):
    """Cycle ratio points with their convex hull."""

    points: tuple[tuple[float, ...], ...]
    vertices: tuple[tuple[float, ...], ...]
    dim: int  # affine dimension of the point set

    def contains(self, rho, tol: float = 1e-9) -> bool:
        return hull_contains(self.points, rho, tol)


class DirectionData(NamedTuple):
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


def _certified_outside(r: np.ndarray, c: np.ndarray, v: np.ndarray, rho: np.ndarray) -> bool:
    """Is <v, class> - (<v, rho> - 1e-9 |v|) length < 0 on every simple cycle,
    so that rho lies 1e-9 beyond a supporting line of the direction set?  As
    in ``direction_hull``, it tests every max-plus closed walk of <= k steps."""
    a = np.where(r > 0, c @ v - (v @ rho - 1e-9 * np.linalg.norm(v)) * r, -np.inf)
    walks = a
    for _ in range(len(r)):
        if not (np.diagonal(walks) < 0.0).all():
            return False
        walks = (walks[:, :, None] + a[None, :, :]).max(axis=1)
    return True


def solve_u(g: DirectedGraph, w: WeightSystem, rho) -> DirectionData:
    """Dual parameter u(rho), with s = P(u), by Newton on F(x) = (log
    lambda(M(x)), [I | rho] E_mu[A]) in x = (u, s) from (0, P(0)), A = (c, -r):
    Jacobian [[E_mu[A]^T], [I | rho] Sigma], Sigma the covariance of A of
    one ``pair_jet`` (Parry & Pollicott, Asterisque 187-188), the step
    t halved until the sup-norm of F falls, one Perron pair a trial, while
    t >= 1e-12 and the fall Newton predicts, t |F|, is at least one rounding
    unit of F, eps max(1, |rho|): a smaller fall is rounding, not progress.
    Stops at |log lambda| <= 1e-13, |grad P - rho| <= _TOL and a u-step
    <= 1e-10, or at |grad P - rho| <= 16 units a u-step <= 16 units / (10
    _TOL), as far as that noise moves u at the least Hessian accepted; takes
    that last step.  The entropy is h_mu / E_mu[r] (Abramov) plus <u, grad
    P - rho>.  Raises OutsideCone when ``_certified_outside`` holds along u
    or rho - grad P after a damped step, the halving stalls (at an |F| of
    <= 16 units, naming rho numerically on the boundary), |u| passes
    _DIVERGE_NORM or a Newton step is not finite; DegenerateModel when the
    pressure Hessian is singular at 0."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    d = w.dimension
    require_dimension("rho", len(rho), d)
    r, c = edge_arrays(g, w)

    jet = pressure_jet(r, c, np.zeros(d))
    eigs = np.linalg.eigvalsh(jet.hessian)
    if eigs.min() <= 1e-10 * max(1.0, eigs.max()):
        raise DegenerateModel("pressure Hessian singular at 0; direction set has empty interior")
    ulp = np.finfo(float).eps * max(1.0, float(np.abs(rho).max()))
    a, b = edge_stack(r, c), np.hstack([np.eye(d), rho[:, None]])
    residual = lambda jet: np.concatenate(([jet.log_lambda], b @ jet.mean))
    x, f, jac = np.append(np.zeros(d), jet.pressure), residual(jet), np.empty((d + 1, d + 1))
    norm = float(np.abs(f).max())
    with np.errstate(all="ignore"):  # a huge rho makes F non-finite; the halving stalls
        for _ in range(_MAX_ITER):
            jac[0], jac[1:] = jet.mean, b @ jet.covariance
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:  # singular: refused below as not finite
                step = np.full(d + 1, np.nan)
            if not np.isfinite(step).all():
                raise OutsideCone("Newton step is not finite; direction outside the attainable set")
            grad_res, step_u = (float(np.abs(v).max()) for v in (jet.gradient - rho, step[:d]))
            if abs(jet.log_lambda) <= 1e-13 and grad_res <= _TOL and (step_u <= 1e-10 or (
                    grad_res <= 16 * ulp and step_u <= 16 * ulp / (10 * _TOL))):
                break
            t = 1.0
            least = max(1e-12, ulp / norm)   # norm > 0: F = 0 meets the stop test
            while t >= least:
                try:  # a transfer matrix that under/overflows shortens the step too
                    x_trial = x + t * step
                    trial = pair_jet(a, x_trial)
                    f_trial = residual(trial)
                    norm_trial = float(np.abs(f_trial).max())
                    if norm_trial < norm:
                        break
                except NonConvergence:
                    pass
                t *= 0.5
            # after a damped step, or none: u and rho - grad P as separating normals
            if t < 1.0 and any(_certified_outside(r, c, v, rho)
                               for v in (x[:d] + t * step[:d], rho - jet.gradient)):
                raise OutsideCone("certified outside: every cycle ratio lies more than 1e-9 "
                                  "behind a line through rho")
            if t < least:
                raise OutsideCone(f"line search stalled with |F| = {norm:.3g}" + (
                    "; that is float noise, so rho is numerically on the boundary of the "
                    "attainable set"
                    if norm <= 16 * ulp else ""))
            x, jet, f, norm = x_trial, trial, f_trial, norm_trial
            if float(x[:d] @ x[:d]) > _DIVERGE_NORM ** 2:
                raise OutsideCone(f"dual parameter diverged (|u| > {_DIVERGE_NORM:g}); "
                                  "direction outside the attainable set")
        else:
            raise OutsideCone(f"no convergence in {_MAX_ITER} Newton steps")
        # a genuine interior minimum has a nondegenerate Hessian; a vanishing one
        # means the iterate ran off toward the boundary as the gradient decayed
        if float(np.linalg.eigvalsh(jet.hessian).min()) <= 10.0 * _TOL:
            raise OutsideCone("dual Hessian degenerate at the solution; direction "
                              "numerically indistinguishable from the boundary")
        try:
            hess_h = -np.linalg.inv(jet.hessian)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian(str(exc)) from exc
        u, p = x[:d] + step[:d], jet.transition
        h_mu = -float((jet.stationary[:, None] * np.where(p > 0, p * np.log(p), 0.0)).sum())
        entropy = h_mu / jet.mean_roof + float(u @ (jet.gradient - rho))
    return DirectionData(tuple(map(float, rho)), tuple(map(float, u)),
                         entropy, entropy + float(u @ rho), hess_h)


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
