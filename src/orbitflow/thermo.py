"""Transfer matrices, Perron eigendata, pressure, and Markov equilibrium
measures.

For an edge-locally-constant potential <u, class> - s * roof the pressure
of the vertex shift is the log of the Perron eigenvalue of the weighted
adjacency matrix M(x) = exp(A . x) on the edges, A = (class, -roof) and x =
(u, s); the pressure of the suspension flow at u is the unique root s* of
log lambda(M(u, s)) = 0 (the roof is positive, so log lambda falls in s),
where the Perron eigendata give the equilibrium measure as a Markov chain.
One Perron pair, one eigensolve and one inverse at any x, gives the chain,
log lambda, the gradient, the covariance of A and the Hessian (when read),
and the pressure corrected by one Newton step in s: a root solve and
``legendre.solve_u`` are Newton over such pairs, and ``pressure_jet`` keeps
its last roots by content."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, NonConvergence, NotPrimitive
from .graphs import (DirectedGraph, Edge, edge_table, is_primitive_pattern, require_roofs,
                     require_valid, require_values)
from .weights import WeightSystem, require_dimension

class PerronData(NamedTuple):
    """Dominant eigen-triple of a primitive nonnegative matrix M and its chain:
    right has max-entry 1, left . right = 1, stationary = left * right,
    transition = M r_j / (eigenvalue r_i), fundamental = (I - transition + 1 1^T)^-1."""

    eigenvalue: float
    right: np.ndarray
    left: np.ndarray
    stationary: np.ndarray
    transition: np.ndarray
    fundamental: np.ndarray


class MarkovMeasure(NamedTuple):
    """Stationary Markov chain supported on the edges.

    stationary[i-1] is the vertex weight of vertex i, transition[i-1, j-1]
    the step probability of edge i -> j, and edge_measure their product.
    """

    stationary: np.ndarray
    transition: np.ndarray
    edge_measure: dict[Edge, float]


def edge_arrays(g: DirectedGraph, w: WeightSystem) -> tuple[np.ndarray, np.ndarray]:
    """Roof R[i-1, j-1] and class C[i-1, j-1, :] of each edge i -> j of a
    valid graph, 0 off the edges; R > 0 is the adjacency pattern, as every
    roof, which can be edited in place, is checked positive here."""
    require_valid(g)
    require_values(g.edge_set, w.roof)
    require_roofs(w.roof)
    # copies: einsum rounds a sum over a strided view differently
    return edge_table(g, w.roof)[1:, 1:].copy(), edge_table(g, w.classes)[1:, 1:].copy()


def _as_u(c: np.ndarray, u) -> np.ndarray:
    u = np.asarray(u, dtype=float).reshape(-1)
    require_dimension("u", len(u), c.shape[2])
    return u


def edge_stack(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A = (class, -roof) of each edge, k x k x (d + 1), 0 off the edges."""
    return np.concatenate([c, -r[:, :, None]], axis=2)


def transfer_matrix(g: DirectedGraph, w: WeightSystem, u, s: float) -> np.ndarray:
    """M[i-1, j-1] = exp(<u, class(i->j)> - s * roof(i->j)) on edges, 0 off."""
    r, c = edge_arrays(g, w)
    with np.errstate(over="ignore", under="ignore"):
        return np.where(r > 0, np.exp(edge_stack(r, c) @ np.append(_as_u(c, u), s)), 0.0)


def _collatz_wielandt(m: np.ndarray):
    """Power iteration from the all-ones vector until the Collatz-Wielandt
    bounds min_i, max_i of (M x)_i / x_i on the Perron root agree to a few
    ulps: the root and x.  Callers ignore floating-point errors: a lost
    entry fails the bounds test."""
    x = np.ones(len(m))
    for _ in range(64):
        y = m @ x
        lo, hi = float((y / x).min()), float((y / x).max())
        if math.isfinite(hi) and hi - lo <= 4.0 * np.finfo(float).eps * hi:
            return hi, x
        x = y / y.max()
    raise NonConvergence("Perron vector not positive, nor settled by 64 power steps")


def _perron_data(m: np.ndarray) -> PerronData:
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolve failed: {exc}") from None
    top = int(np.argmax(vals.real))
    lam, right, left = float(vals[top].real), np.abs(vecs[:, top]), None
    for polished in (False, True):
        right = right / right.max()
        p = m * right / (lam * right[:, None])
        try:
            z = np.linalg.inv(np.eye(len(m)) - p + 1.0)
        except np.linalg.LinAlgError:  # the chain splits in double precision
            z = np.full_like(p, np.nan)
        # 1^T Z, then two steps of the chain, which keep its sum and shrink
        # the inverse's rounding along P's other left eigenvectors
        pi = z.sum(axis=0) @ p @ p if left is None else left * right / float(left @ right)
        left = pi / right
        if 0.0 < lam < math.inf and 0.0 < left.min() <= left.max() < math.inf:  # so right > 0
            return PerronData(lam, right, left, pi, p, z)
        repeated = (np.abs(vals - lam) <= 4.0 * np.finfo(float).eps * lam).sum() >= 2
        if polished or not (repeated or right.min() > 0.0):
            raise NonConvergence("Perron data lost finiteness or positivity")
        # power iteration, free of differences, polishes a vector like (1, 0)
        # left by a root repeated in double precision, and weights lost below
        # 1^T Z's rounding; a right vector underflowed far out in u is refused
        (lam, right), (_, left) = _collatz_wielandt(m), _collatz_wielandt(m.T)


def perron(m) -> PerronData:
    """Dominant eigen-triple and chain from one dense eigensolve of M and one
    inverse: with r the right vector, P = M r_j / (lambda r_i) is stochastic,
    so its stationary vector solves pi^T (I - P + 1 1^T) = 1^T (Kemeny & Snell,
    Finite Markov Chains): pi^T = 1^T Z for Z = (I - P + 1 1^T)^-1, and left =
    pi / r; power iteration polishes the vectors where rounding loses a weight.

    Requires a nonnegative matrix whose support pattern is primitive
    (strongly connected and aperiodic); otherwise the Perron root need not
    be simple and NotPrimitive is raised.  Non-finite entries (an
    over/underflowed transfer matrix) and eigendata that are not finite and
    strictly positive raise NonConvergence.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgument(f"expected a square matrix, got shape {m.shape}")
    if (m < 0).any():
        raise InvalidArgument("matrix must be nonnegative")
    if not np.isfinite(m).all():
        raise NonConvergence("matrix has non-finite entries (over/underflow)")
    if not is_primitive_pattern(m > 0):
        raise NotPrimitive("support pattern is periodic or not strongly connected")
    with np.errstate(all="ignore"):  # lost finiteness or positivity refuses
        return _perron_data(m)


def shift_pressure(g: DirectedGraph, w: WeightSystem, u, s: float) -> float:
    """log of the Perron eigenvalue of M(u, s)."""
    return math.log(perron(transfer_matrix(g, w, u, s)).eigenvalue)


@dataclass(frozen=True)
class PressureJet:
    """Flow pressure at u with its gradient, Hessian and chain (see ``perron``),
    from one Perron pair at x = (u, s): log_lambda = log lambda(M(x)), mean =
    E_mu[A], mean_roof = E_mu[r], centred = A - mean.  Its arrays are read-only;
    the covariance and the Hessian, exactly symmetric, are taken on first read."""

    pressure: float
    gradient: np.ndarray
    stationary: np.ndarray
    transition: np.ndarray
    fundamental: np.ndarray
    log_lambda: float
    mean: np.ndarray
    mean_roof: float
    centred: np.ndarray

    @cached_property
    def covariance(self) -> np.ndarray:
        """Sigma = Hess_x log lambda(M(x)), the asymptotic covariance of f =
        centred: cross + cross^T, cross = E_mu[f (f / 2 + (Z h)(head))^T] with
        h(a) = sum_b P[a,b] f(a,b) (Parry & Pollicott, Asterisque 187-188).  Any
        fundamental matrix Z gives it: pi^T h = E_mu[f] = 0, so Z h solves (I -
        P) g = h up to a constant vector, which E_mu[f] = 0 multiplies by 0."""
        pi, p, f = self.stationary, self.transition, self.centred
        with np.errstate(all="ignore"):
            zh = self.fundamental @ (p[:, :, None] * f).sum(axis=1)
            cross = np.einsum("abi,abj->ij", (pi[:, None] * p)[:, :, None] * f, 0.5 * f + zh)
            cov = cross + cross.T
        cov.flags.writeable = False
        return cov

    @cached_property
    def hessian(self) -> np.ndarray:
        """B Sigma B^T / E_mu[r], B = [I | gradient], by implicit differentiation."""
        b = np.hstack([np.eye(len(self.gradient)), self.gradient[:, None]])
        hess = b @ self.covariance @ b.T
        hess = (hess + hess.T) / (2.0 * self.mean_roof)
        hess.flags.writeable = False
        return hess


def pair_jet(a: np.ndarray, x: np.ndarray) -> PressureJet:
    """The jet from one Perron pair of M(x), A as ``edge_stack`` lays it out, at
    any s, with the corrected pressure s + log_lambda / E_mu[r], off the root by
    O(log_lambda^2).  E_mu[A] is the gradient of log lambda in x, E_mu[c] /
    E_mu[r] the pressure gradient.  An edge entry of M that under/overflows, or
    a chain that is not finite and positive, raises NonConvergence."""
    with np.errstate(all="ignore"):  # lost finiteness or positivity refuses
        edge = a[:, :, -1] < 0.0
        m = np.where(edge, np.exp(a @ x), 0.0)
        on_edges = m[edge]
        if not 0.0 < on_edges.min() <= on_edges.max() < math.inf:
            raise NonConvergence(f"transfer matrix entries under/overflow at s = {x[-1]:.6g}")
        pd = _perron_data(m)
        pi, p, z = pd.stationary, pd.transition, pd.fundamental
        if not (p[edge].min() > 0.0 and p.max() < math.inf):  # pi > 0, as left and right are
            raise NonConvergence("eigen-chain lost finiteness or positivity")
        mean = np.einsum("ab,abd->d", pi[:, None] * p, a)
        f = a - mean
    mean_roof = -float(mean[-1])
    grad = mean[:-1] / mean_roof
    for arr in (grad, pi, p, z, mean, f):
        arr.flags.writeable = False
    log_lam = math.log(pd.eigenvalue)
    return PressureJet(float(x[-1]) + log_lam / mean_roof, grad, pi, p, z, log_lam, mean, mean_roof, f)


def pressure_jet(r: np.ndarray, c: np.ndarray, u) -> PressureJet:
    """The jet at the root s* of log lambda(M(u, s)) = 0 on the edge arrays
    of ``edge_arrays``: Newton in s, one ``pair_jet`` a step, from the
    midpoint of a closed-form bracket whose bisection guards every step.
    The pressure is s* itself, as the correction is float noise there; a
    periodic pattern R > 0 raises NotPrimitive.  The last four roots are
    kept, read-only, keyed on the bytes and shapes of r, c and u.
    """
    r, c = np.asarray(r, dtype=float), np.asarray(c, dtype=float)
    return _root(r.shape, r.tobytes(), c.shape, c.tobytes(), _as_u(c, u).tobytes())


@lru_cache(maxsize=4)  # an orbit_counts op reads three: bench3 at 0 and at u, full2 at 0
def _root(r_shape, r, c_shape, c, u) -> PressureJet:
    r, c, u = np.frombuffer(r).reshape(r_shape), np.frombuffer(c).reshape(c_shape), np.frombuffer(u)
    edge = r > 0
    if not is_primitive_pattern(edge):
        raise NotPrimitive("graph is periodic (cycle lengths have gcd > 1)")
    # Row-sum bounds give the bracket in closed form: at lo every row has
    # a term >= 1, so lambda >= 1; at hi every term is <= 1/k, so
    # lambda <= 1.
    a, cu, roof = edge_stack(r, c), c @ u, np.where(edge, r, 1.0)
    lo = float(np.where(edge, cu / roof, -np.inf).max(axis=1).min())
    hi = float(np.where(edge, (cu + math.log(len(r))) / roof, -np.inf).max())
    s = 0.5 * (lo + hi)
    for _ in range(200):
        jet = pair_jet(a, np.append(u, s))
        lo, hi = (s, hi) if jet.log_lambda > 0.0 else (lo, s)
        if abs(jet.log_lambda) <= 1e-14 * max(1.0, jet.mean_roof):
            return replace(jet, pressure=s)
        s_new = jet.pressure if lo < jet.pressure < hi else 0.5 * (lo + hi)
        if abs(s_new - s) <= 1e-14 * max(1.0, abs(s)):
            return replace(pair_jet(a, np.append(u, s_new)), pressure=s_new)
        s = s_new
    raise NonConvergence("pressure root iteration did not converge")


def flow_pressure(g: DirectedGraph, w: WeightSystem, u) -> float:
    """Suspension pressure at u: the s with shift_pressure(u, s) = 0."""
    return pressure_jet(*edge_arrays(g, w), u).pressure


def equilibrium_measure(g: DirectedGraph, w: WeightSystem, u) -> MarkovMeasure:
    """Markov measure realizing the equilibrium state at u: the chain of
    the Perron data (see ``perron``) at s* = flow_pressure(u)."""
    jet = pressure_jet(*edge_arrays(g, w), u)
    pi, p = jet.stationary.copy(), jet.transition.copy()
    edge_measure = {
        (i, j): float(pi[i - 1] * p[i - 1, j - 1]) for (i, j) in g.edge_set
    }
    return MarkovMeasure(pi, p, edge_measure)


def pressure_gradient(g: DirectedGraph, w: WeightSystem, u) -> np.ndarray:
    """Mean class per unit length under the equilibrium measure at u."""
    return pressure_jet(*edge_arrays(g, w), u).gradient.copy()


def pressure_hessian(g: DirectedGraph, w: WeightSystem, u) -> np.ndarray:
    """Closed-form pressure Hessian at u, exactly symmetric: the asymptotic
    covariance of class - gradient * roof per unit length (see ``PressureJet``)."""
    return pressure_jet(*edge_arrays(g, w), u).hessian.copy()


def integrate_observable(mm: MarkovMeasure, w: WeightSystem, phi: dict) -> float:
    """Time average of a per-edge observable under the suspension of the
    Markov measure: (sum m(e) phi(e)) / (sum m(e) roof(e)); one that
    overflows a float raises NonConvergence."""
    require_values(mm.edge_measure, phi, observable=True)
    require_roofs(w.roof)
    num = 0.0
    den = 0.0
    for e, weight in mm.edge_measure.items():
        num += weight * float(phi[e])
        den += weight * w.roof[e]
    average = num / den
    if not math.isfinite(average):
        raise NonConvergence("the average of the observable overflows a float")
    return average
