"""Transfer matrices, Perron eigendata, pressure, and Markov equilibrium
measures.

For an edge-locally-constant potential <u, class> - s * roof the pressure
of the vertex shift is the log of the Perron eigenvalue of the weighted
adjacency matrix M(u, s), and the pressure of the suspension flow at u is
the unique root s* of log lambda(M(u, s)) = 0 (the roof is strictly
positive, so s -> log lambda is strictly decreasing).  The equilibrium
measure is the Markov chain built from the Perron eigendata at s*.  One
Perron pair at any s gives the chain, log lambda, the gradient and the
closed-form Hessian (when read), and the pressure corrected by one Newton
step in s: a root solve is Newton over such pairs.  As the scan entry
keeps its last scan, ``pressure_jet`` keeps its last roots, by content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidArgument, NonConvergence, NotPrimitive
from .graphs import (DirectedGraph, Edge, edge_table, is_primitive_pattern, require_roofs,
                     require_valid, require_values)
from .weights import WeightSystem, require_dimension

@dataclass(frozen=True)
class PerronData:
    """Dominant eigen-triple of a primitive nonnegative matrix.

    right is scaled to max-entry 1 and left so that left . right = 1.
    """

    eigenvalue: float
    right: np.ndarray
    left: np.ndarray


@dataclass(frozen=True)
class MarkovMeasure:
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


def _transfer(r: np.ndarray, cu: np.ndarray, s: float) -> np.ndarray:
    return np.where(r > 0, np.exp(cu - s * r), 0.0)


def transfer_matrix(g: DirectedGraph, w: WeightSystem, u, s: float) -> np.ndarray:
    """M[i-1, j-1] = exp(<u, class(i->j)> - s * roof(i->j)) on edges, 0 off."""
    r, c = edge_arrays(g, w)
    with np.errstate(over="ignore", under="ignore"):
        return _transfer(r, c @ _as_u(c, u), s)


def _dominant_pair(m: np.ndarray):
    """Eigenvalue of largest real part, the modulus of its eigenvector, and
    all the eigenvalues.

    For a primitive nonnegative matrix that eigenvalue is the Perron root
    (it strictly dominates every other in modulus) and its eigenvector is
    a complex multiple of a strictly positive one.
    """
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolve failed: {exc}") from None
    top = int(np.argmax(vals.real))
    return float(vals[top].real), np.abs(vecs[:, top]), vals


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
    lam, right, vals = _dominant_pair(m)
    _, left, _ = _dominant_pair(m.T)
    for polished in (False, True):
        right = right / right.max()
        left = left / float(left @ right)
        if (math.isfinite(lam) and lam > 0.0 and np.isfinite(left).all()
                and (right > 0.0).all() and (left > 0.0).all()):
            return PerronData(lam, right, left)
        if polished or (np.abs(vals - lam) <= 4.0 * np.finfo(float).eps * lam).sum() < 2:
            raise NonConvergence("Perron data lost finiteness or positivity")
        # a dominant eigenvalue repeated in double precision (a nearly
        # reducible matrix) can come back with a vector such as (1, 0);
        # polish that case only.  A vector that lost entries to underflow,
        # far out in u, stays a refusal: solve_u's line search relies on it
        (lam, right), (_, left) = _collatz_wielandt(m), _collatz_wielandt(m.T)


def perron(m) -> PerronData:
    """Dominant eigen-triple via dense eigensolves of M and its transpose,
    polished by power iteration when a dominant eigenvalue repeated in
    double precision leaves an eigenvector that is not positive.

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
    """Flow pressure at u with its gradient and Hessian, and the eigen-chain
    (stationary vector, transition matrix) of the equilibrium state, from
    one Perron pair at s: log_lambda = log lambda(M(u, s)), mean_roof = E_mu[r],
    centred = c - gradient * r on the edges.  Its arrays are read-only."""

    pressure: float
    gradient: np.ndarray
    stationary: np.ndarray
    transition: np.ndarray
    log_lambda: float
    mean_roof: float
    centred: np.ndarray

    @cached_property
    def hessian(self) -> np.ndarray:
        """Sigma(g) / E_mu[r], Sigma the asymptotic covariance of g = centred
        along the chain: E_mu[g g^T] + E_mu[g (Z h)(head)^T] + transpose, Z =
        (I - P + 1 pi)^-1, h(a) = sum_b P[a,b] g(a,b) (Parry & Pollicott,
        Asterisque 187-188), symmetrised exactly; computed on first read."""
        pi, p, g = self.stationary, self.transition, self.centred
        with np.errstate(all="ignore"):
            mu = pi[:, None] * p
            zh = np.linalg.solve(np.eye(len(pi)) - p + pi[None, :],
                                 np.einsum("ab,abd->ad", p, g))
            cross = np.einsum("ab,abi,bj->ij", mu, g, zh)
            hess = (np.einsum("ab,abi,abj->ij", mu, g, g) + cross + cross.T) / self.mean_roof
        hess = 0.5 * (hess + hess.T)
        hess.flags.writeable = False
        return hess


def pair_jet(r: np.ndarray, c: np.ndarray, u: np.ndarray, s: float) -> PressureJet:
    """The jet from one Perron pair of M(u, s), at any s, with the corrected
    pressure s + log_lambda / E_mu[r], off the root by O(log_lambda^2).

    With mu the edge measure of the eigen-chain, the gradient is E_mu[c] /
    E_mu[r]; the Hessian is computed from the chain when first read (see
    ``PressureJet.hessian``).  An edge entry of M that under/overflows, or
    an eigen-chain that is not finite and positive, raises NonConvergence.
    """
    with np.errstate(all="ignore"):  # lost finiteness or positivity refuses
        m = _transfer(r, c @ u, s)
        on_edges = m[r > 0]
        if not (np.isfinite(on_edges).all() and (on_edges > 0.0).all()):
            raise NonConvergence(f"transfer matrix entries under/overflow at s = {s:.6g}")
        pd = _perron_data(m)
        p = m * pd.right[None, :] / (pd.eigenvalue * pd.right[:, None])
        pi = pd.left * pd.right  # l . r = 1 by normalization
        if not (np.isfinite(p).all() and (p[r > 0] > 0.0).all() and (pi > 0.0).all()):
            raise NonConvergence("eigen-chain lost finiteness or positivity")
        mu = pi[:, None] * p
        mean_roof = float((mu * r).sum())
        grad = np.einsum("ab,abd->d", mu, c) / mean_roof
        g = c - grad * r[:, :, None]  # 0 off the edges, where c and r are
    for a in (grad, pi, p, g):
        a.flags.writeable = False
    log_lam = math.log(pd.eigenvalue)
    return PressureJet(s + log_lam / mean_roof, grad, pi, p, log_lam, mean_roof, g)


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
    cu, roof = c @ u, np.where(edge, r, 1.0)
    lo = float(np.where(edge, cu / roof, -np.inf).max(axis=1).min())
    hi = float(np.where(edge, (cu + math.log(len(r))) / roof, -np.inf).max())
    s = 0.5 * (lo + hi)
    for _ in range(200):
        jet = pair_jet(r, c, u, s)
        lo, hi = (s, hi) if jet.log_lambda > 0.0 else (lo, s)
        if abs(jet.log_lambda) <= 1e-14 * max(1.0, jet.mean_roof):
            return replace(jet, pressure=s)
        s_new = jet.pressure if lo < jet.pressure < hi else 0.5 * (lo + hi)
        if abs(s_new - s) <= 1e-14 * max(1.0, abs(s)):
            return replace(pair_jet(r, c, u, s_new), pressure=s_new)
        s = s_new
    raise NonConvergence("pressure root iteration did not converge")


def flow_pressure(g: DirectedGraph, w: WeightSystem, u) -> float:
    """Suspension pressure at u: the s with shift_pressure(u, s) = 0."""
    return pressure_jet(*edge_arrays(g, w), u).pressure


def equilibrium_measure(g: DirectedGraph, w: WeightSystem, u) -> MarkovMeasure:
    """Markov measure realizing the equilibrium state at u.

    Built at s* = flow_pressure(u) from the eigendata: P[i,j] =
    M[i,j] r[j] / (lambda r[i]), pi[i] = l[i] r[i] / (l . r).
    """
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
    """Closed-form pressure Hessian at u: the asymptotic covariance of the
    centred class per unit length (see ``PressureJet.hessian``), exactly
    symmetric."""
    return pressure_jet(*edge_arrays(g, w), u).hessian.copy()


def integrate_observable(mm: MarkovMeasure, w: WeightSystem, phi: dict) -> float:
    """Time average of a per-edge observable under the suspension of the
    Markov measure: (sum m(e) phi(e)) / (sum m(e) roof(e))."""
    require_values(mm.edge_measure, phi, observable=True)
    require_roofs(w.roof)
    num = 0.0
    den = 0.0
    for e, weight in mm.edge_measure.items():
        num += weight * float(phi[e])
        den += weight * w.roof[e]
    return num / den
