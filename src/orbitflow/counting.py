"""Periodic-orbit counting by length window and class.

Exact counts are numpy reductions over one canonical-cycle scan
(``graphs.scan_cycles``), pruned by the length bound; the admissible
symbolic depth floor(T / r_min) is capped, and counts beyond the cap are
refused rather than estimated.  An independent oracle for unit roofs
counts closed walks with class tracked through matrix powers over
exponent maps and recovers prime-cycle counts by Mobius inversion over
simultaneous divisors of (period, class).

The asymptotic predictor evaluates the window-count growth law for a
direction rho inside the attainable set: a Gaussian prefactor from the
entropy Hessian, a window factor, and the exponential of entropy * T
corrected by the dual parameter paired with the fractional part of
T * rho and the class offset.

Finite quotients (integer lattices or explicit finite groups with
per-edge labels) support a density check: class frequencies of prime
cycles approach |C| / |G|.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptySelection,
    InfiniteQuotient,
    InvalidArgument,
    MissingEdgeValue,
    MissingEdgeWeight,
    RoofNotUnit,
)
from .graphs import CycleScan, DirectedGraph, PrimeCycle, scan_cycles
from .legendre import DirectionData, entropy_hessian
from .thermo import equilibrium_measure, flow_pressure, integrate_observable
from .weights import WeightSystem, birkhoff, smith_decomposition


@dataclass(frozen=True)
class CountQuery:
    """Window (T - delta, T] with target class floor(T rho) + alpha."""

    T: float
    delta: float
    rho: tuple[float, ...]
    alpha: tuple[int, ...]
    removed: tuple[PrimeCycle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(float(x) for x in self.rho))
        object.__setattr__(self, "alpha", tuple(int(x) for x in self.alpha))
        object.__setattr__(self, "removed", tuple(self.removed))
        if not (0.0 < self.delta <= self.T):
            raise InvalidArgument(f"need 0 < delta <= T, got delta={self.delta}, T={self.T}")
        if len(self.rho) != len(self.alpha):
            raise DimensionMismatch("rho and alpha must have the same length")


@dataclass(frozen=True)
class CountResult:
    exact: int
    predicted: float
    ratio: float
    target_class: tuple[int, ...]


@dataclass(frozen=True)
class SweepRow:
    T: float
    delta: float
    target_class: tuple[int, ...]
    exact: int
    predicted: float
    ratio: float


@dataclass(frozen=True)
class MargulisCount:
    exact: int
    reference: float


@dataclass(frozen=True)
class EquidistributionResult:
    empirical: float
    expected: float
    n_orbits: int


def floor_class(rho, T: float) -> tuple[int, ...]:
    """Componentwise floor of T * rho (fundamental domain [0,1)^d)."""
    return tuple(int(math.floor(T * float(x))) for x in rho)


def target_class(w: WeightSystem, q: CountQuery) -> tuple[int, ...]:
    """The class q counts, floor(T rho) + alpha; rho must have the class
    dimension of w."""
    if len(q.rho) != w.dimension:
        raise DimensionMismatch(
            f"rho has length {len(q.rho)}, class dimension is {w.dimension}"
        )
    return tuple(f + a for f, a in zip(floor_class(q.rho, q.T), q.alpha))


def _check_weights_cover(g: DirectedGraph, w: WeightSystem) -> None:
    missing = g.edge_set - set(w.roof)
    if missing:
        raise MissingEdgeWeight(f"edges without weights: {sorted(missing)}")


def _depth_cap(w: WeightSystem, max_len: float, budget_cap: int) -> int:
    depth = int(math.floor(max_len / w.r_min))
    if depth > budget_cap:
        raise BudgetExceeded(
            f"symbolic depth {depth} exceeds the cap {budget_cap} "
            f"(max length {max_len:g}, minimal roof {w.r_min:g})"
        )
    return max(depth, 1)


def _scan(
    g: DirectedGraph, w: WeightSystem, max_len: float, removed, budget_cap: int,
    *, classes: bool = True, phi: dict | None = None, words: bool = False,
) -> CycleScan:
    """Prime cycles of length <= max_len, removed ones excluded."""
    _check_weights_cover(g, w)
    return scan_cycles(
        g, n_max=_depth_cap(w, max_len, budget_cap), edge_length=w.roof, max_len=max_len,
        edge_vector=w.classes if classes else None, edge_value=phi,
        exclude=[c.vertices for c in removed], words=words,
    )


def _in_window(lengths, classes, T, delta, target) -> np.ndarray:
    """Mask of the cycles with length in (T - delta, T] and class target."""
    target = np.asarray(target, dtype=np.int64)
    if target.shape != classes.shape[1:]:
        raise DimensionMismatch(
            f"target has length {target.size}, class dimension is {classes.shape[1]}"
        )
    return (lengths > T - delta) & (lengths <= T) & (classes == target).all(axis=1)


def exact_window_count(
    g: DirectedGraph, w: WeightSystem, q: CountQuery, *, budget_cap: int = 32
) -> int:
    """Number of prime cycles (not in q.removed) with length in
    (T - delta, T] and class floor(T rho) + alpha."""
    target = target_class(w, q)
    scan = _scan(g, w, q.T, q.removed, budget_cap)
    return window_count_from_table(scan.length, scan.classes, q.T, q.delta, target)


def cycle_table(
    g: DirectedGraph,
    w: WeightSystem,
    max_len: float,
    *,
    min_len: float = 0.0,
    removed=(),
    budget_cap: int = 32,
):
    """Lengths and class vectors of all prime cycles with
    min_len < length <= max_len, removed ones excluded.

    Returns (lengths, classes) as numpy arrays; one enumeration pass can
    then serve many window/class queries.
    """
    scan = _scan(g, w, max_len, removed, budget_cap)
    keep = scan.length > min_len
    return scan.length[keep], scan.classes[keep]


def window_count_from_table(lengths, classes, T, delta, target) -> int:
    """Number of table rows with length in (T - delta, T] and class target."""
    return int(_in_window(lengths, classes, T, delta, target).sum())


def margulis_total(
    g: DirectedGraph, w: WeightSystem, removed, T: float, *, budget_cap: int = 32
) -> MargulisCount:
    """Exact number of prime cycles of length <= T (removed excluded) and
    the growth-law reference e^(hT) / (hT) with h = flow_pressure(0).

    The reference is the non-lattice (weak-mixing) law, which holds when
    the lengths are not all in one coset of eps * Z.  On a spectrum of
    step eps the ratio exact / reference, taken at T in eps * Z, tends to
    h eps / (1 - e^(-h eps)) instead: 2 log 2 for full2.
    """
    count = len(_scan(g, w, T, removed, budget_cap, classes=False).period)
    h = flow_pressure(g, w, np.zeros(w.dimension))
    return MargulisCount(count, math.exp(h * T) / (h * T))


# ---------------------------------------------------------------------------
# closed-walk oracle (unit roof)

def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _dictmat_mul(a, b, combine):
    k = len(a)
    out = [[{} for _ in range(k)] for _ in range(k)]
    for i in range(k):
        arow = a[i]
        for l in range(k):
            ail = arow[l]
            if not ail:
                continue
            brow = b[l]
            for j in range(k):
                blj = brow[j]
                if not blj:
                    continue
                oij = out[i][j]
                for x, cx in ail.items():
                    for y, cy in blj.items():
                        key = combine(x, y)
                        oij[key] = oij.get(key, 0) + cx * cy
    return out


def _label_matrix(g: DirectedGraph, label_of_edge):
    k = g.vertex_count
    mat = [[{} for _ in range(k)] for _ in range(k)]
    for (i, j) in g.edge_set:
        mat[i - 1][j - 1] = {label_of_edge((i, j)): 1}
    return mat


def _closed_walk_counts(g: DirectedGraph, label_of_edge, combine, n_max: int):
    """walks[m][label] = number of closed m-step walks with that label."""
    base = _label_matrix(g, label_of_edge)
    walks = {}
    power = base
    for m in range(1, n_max + 1):
        if m > 1:
            power = _dictmat_mul(power, base, combine)
        trace: dict = {}
        for i in range(g.vertex_count):
            for key, cnt in power[i][i].items():
                trace[key] = trace.get(key, 0) + cnt
        walks[m] = trace
    return walks


def _prime_counts_from_walks(walks, n_max: int, power_key):
    """Invert walk counts to prime-cycle counts per class, exactly."""
    prime = {}
    for m in range(1, n_max + 1):
        acc = dict(walks[m])
        for q in _divisors(m):
            if q == 1:
                continue
            sub = prime[m // q]
            for key, cnt in sub.items():
                pk = power_key(key, q)
                acc[pk] = acc.get(pk, 0) - (m // q) * cnt
        table = {}
        for key, total in acc.items():
            if total == 0:
                continue
            if total % m != 0 or total < 0:
                raise AssertionError(
                    f"inconsistent walk counts at period {m}: residue {total} for {key}"
                )
            table[key] = total // m
        prime[m] = table
    return prime


def _require_unit_roof(w: WeightSystem) -> None:
    if any(r != 1.0 for r in w.roof.values()):
        raise RoofNotUnit("this oracle requires roof identically 1")


def trace_prime_counts_table(g: DirectedGraph, w: WeightSystem, n_max: int):
    """prime[m][beta] for all m <= n_max, by walk traces and inversion."""
    _check_weights_cover(g, w)
    _require_unit_roof(w)
    walks = _closed_walk_counts(
        g,
        lambda e: w.classes[e],
        lambda x, y: tuple(a + b for a, b in zip(x, y)),
        n_max,
    )
    return _prime_counts_from_walks(
        walks, n_max, lambda key, q: tuple(q * x for x in key)
    )


def trace_prime_count(g: DirectedGraph, w: WeightSystem, n: int, beta) -> int:
    """Prime cycles of period n with class beta, via Mobius inversion over
    the simultaneous divisors of (n, beta).  Requires roof identically 1."""
    _check_weights_cover(g, w)
    _require_unit_roof(w)
    beta = tuple(int(x) for x in beta)
    if len(beta) != w.dimension:
        raise DimensionMismatch(
            f"beta has length {len(beta)}, class dimension is {w.dimension}"
        )
    walks = _closed_walk_counts(
        g,
        lambda e: w.classes[e],
        lambda x, y: tuple(a + b for a, b in zip(x, y)),
        n,
    )
    g0 = n
    for b in beta:
        g0 = math.gcd(g0, abs(b))
    total = 0
    for j in _divisors(g0):
        total += _mobius(j) * walks[n // j].get(tuple(b // j for b in beta), 0)
    if total % n != 0 or total < 0:
        raise AssertionError(f"inconsistent walk counts for (n={n}, beta={beta})")
    return total // n


# ---------------------------------------------------------------------------
# asymptotic predictor

def predict_count(
    g: DirectedGraph, w: WeightSystem, dd: DirectionData, q: CountQuery
) -> float:
    """Predicted window count for q at the direction dd.rho.

    sqrt|det H_h| / (2 pi)^(d/2) * window factor * exp(-<u, alpha>)
    * exp(entropy * T + <u, T rho - floor(T rho)>) / T^(1 + d/2),
    where the window factor is (1 - e^(-p delta)) / p at p = pressure at
    u(rho), continuously extended to delta at p = 0.
    """
    floor = np.subtract(target_class(w, q), q.alpha)
    if tuple(round(x, 12) for x in dd.rho) != tuple(round(float(x), 12) for x in q.rho):
        raise InvalidArgument("q.rho does not match dd.rho")
    d = w.dimension
    hess = entropy_hessian(dd)
    det = abs(float(np.linalg.det(hess)))
    p = dd.pressure_at_u
    if abs(p) > 1e-12:
        window = (1.0 - math.exp(-p * q.delta)) / p
    else:
        window = q.delta
    u = np.asarray(dd.u, dtype=float)
    rho = np.asarray(q.rho, dtype=float)
    frac = q.T * rho - floor.astype(float)
    exponent = dd.entropy * q.T + float(u @ frac) - float(u @ np.asarray(q.alpha, dtype=float))
    return (
        math.sqrt(det)
        / (2.0 * math.pi) ** (d / 2.0)
        * window
        * math.exp(exponent)
        / q.T ** (1.0 + d / 2.0)
    )


def evaluate_query(
    g: DirectedGraph,
    w: WeightSystem,
    dd: DirectionData,
    q: CountQuery,
    *,
    budget_cap: int = 32,
) -> CountResult:
    """Exact window count and its prediction, bundled with the ratio."""
    exact = exact_window_count(g, w, q, budget_cap=budget_cap)
    predicted = predict_count(g, w, dd, q)
    ratio = exact / predicted if predicted > 0 else float("nan")
    return CountResult(exact, predicted, ratio, target_class(w, q))


def sweep(
    g: DirectedGraph,
    w: WeightSystem,
    rho,
    alpha,
    delta: float,
    T_list,
    *,
    removed=(),
    budget_cap: int = 32,
) -> list[SweepRow]:
    """Exact and predicted window counts for each T, one dual solve."""
    from .legendre import solve_u

    rho = tuple(float(x) for x in rho)
    alpha = tuple(int(x) for x in alpha)
    dd = solve_u(g, w, rho)
    rows = []
    for T in T_list:
        q = CountQuery(T=float(T), delta=float(delta), rho=rho, alpha=alpha, removed=tuple(removed))
        res = evaluate_query(g, w, dd, q, budget_cap=budget_cap)
        rows.append(
            SweepRow(
                float(T), float(delta), res.target_class,
                res.exact, res.predicted, res.ratio,
            )
        )
    return rows


def jitter_averaged_ratio(
    g: DirectedGraph,
    w: WeightSystem,
    dd: DirectionData,
    alpha,
    delta: float,
    T: float,
    *,
    removed=(),
    n_eval: int = 5,
    budget_cap: int = 32,
    table=None,
) -> float:
    """Mean of exact/predicted over n_eval windows at T + j delta / n_eval.

    Damps the oscillation of a single window; a measurement convention,
    not a change to the counted quantity.  ``table`` may carry a
    precomputed (lengths, classes) pair covering T + delta.
    """
    alpha = tuple(int(x) for x in alpha)
    ts = [T + j * delta / n_eval for j in range(n_eval)]
    if table is None:
        table = cycle_table(g, w, max(ts), removed=removed, budget_cap=budget_cap)
    ratios = []
    for tj in ts:
        q = CountQuery(T=tj, delta=delta, rho=dd.rho, alpha=alpha, removed=tuple(removed))
        exact = window_count_from_table(*table, tj, delta, target_class(w, q))
        ratios.append(exact / predict_count(g, w, dd, q))
    return float(np.mean(ratios))


# ---------------------------------------------------------------------------
# finite quotients and the density check

class FiniteQuotient:
    """Finite quotient receiving cycle classes.

    Either a lattice quotient Z^d / L Z^d (conjugacy classes are single
    labels) or an explicit finite group with per-edge labels and classes
    computed by brute force.
    """

    def __init__(self, *, lattice=None, group=None):
        if (lattice is None) == (group is None):
            raise InvalidArgument("specify exactly one of lattice/group data")
        self._lattice = lattice
        self._group = group

    # -- constructors

    @classmethod
    def from_lattice(cls, matrix) -> "FiniteQuotient":
        """Quotient of Z^d by the columns span of an integer d x d matrix."""
        mat = [[int(x) for x in row] for row in matrix]
        d = len(mat)
        if any(len(row) != d for row in mat):
            raise InvalidArgument("lattice matrix must be square")
        u, diag, _ = smith_decomposition(mat)
        diag = [abs(x) for x in diag] + [0] * (d - len(diag))
        if any(x == 0 for x in diag):
            raise InfiniteQuotient(
                f"lattice matrix is rank-deficient (divisors {tuple(diag)})"
            )
        order = 1
        for x in diag:
            order *= x
        return cls(lattice={"dim": d, "transform": u, "diag": tuple(diag), "order": order})

    @classmethod
    def from_modulus(cls, modulus: int, dim: int) -> "FiniteQuotient":
        m = int(modulus)
        if m < 1:
            raise InvalidArgument(f"modulus must be >= 1, got {m}")
        return cls.from_lattice([[m if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_group(cls, elements, table, edge_labels) -> "FiniteQuotient":
        """Explicit finite group: elements, multiplication table (dict
        keyed by pairs), and a label per edge."""
        elems = list(elements)
        mult = {(a, b): table[(a, b)] for a in elems for b in elems}
        identity = None
        for e in elems:
            if all(mult[(e, x)] == x and mult[(x, e)] == x for x in elems):
                identity = e
                break
        if identity is None:
            raise InvalidArgument("multiplication table has no identity element")
        inverse = {}
        for a in elems:
            for b in elems:
                if mult[(a, b)] == identity:
                    inverse[a] = b
        if len(inverse) != len(elems):
            raise InvalidArgument("multiplication table has non-invertible elements")
        class_of = {}
        classes = []
        for a in elems:
            if a in class_of:
                continue
            orbit = {mult[(mult[(h, a)], inverse[h])] for h in elems}
            key = tuple(sorted(orbit, key=repr))
            classes.append(key)
            for x in orbit:
                class_of[x] = key
        labels = {(int(e[0]), int(e[1])): v for e, v in edge_labels.items()}
        return cls(
            group={
                "elements": tuple(elems),
                "mult": mult,
                "identity": identity,
                "class_of": class_of,
                "classes": tuple(classes),
                "edge_labels": labels,
            }
        )

    # -- shared interface

    @property
    def is_lattice(self) -> bool:
        return self._lattice is not None

    @property
    def order(self) -> int:
        if self.is_lattice:
            return self._lattice["order"]
        return len(self._group["elements"])

    def reduce(self, vec) -> tuple[int, ...]:
        """Lattice label of an integer class vector."""
        lat = self._lattice
        u, diag = lat["transform"], lat["diag"]
        vec = [int(x) for x in vec]
        if len(vec) != lat["dim"]:
            raise DimensionMismatch(
                f"class vector has length {len(vec)}, lattice dimension {lat['dim']}"
            )
        return tuple(
            sum(u[i][j] * vec[j] for j in range(lat["dim"])) % diag[i]
            for i in range(lat["dim"])
        )

    def edge_label(self, w: WeightSystem, edge):
        if self.is_lattice:
            return self.reduce(w.classes[edge])
        labels = self._group["edge_labels"]
        if edge not in labels:
            raise MissingEdgeValue(f"no group label on edge {edge}")
        return labels[edge]

    def combine(self, x, y):
        if self.is_lattice:
            diag = self._lattice["diag"]
            return tuple((a + b) % m for a, b, m in zip(x, y, diag))
        return self._group["mult"][(x, y)]

    def class_key(self, label):
        if self.is_lattice:
            return label
        return self._group["class_of"][label]

    def power_class(self, key, q: int):
        """Class of the q-th power; well defined on conjugacy classes."""
        if self.is_lattice:
            diag = self._lattice["diag"]
            return tuple((q * a) % m for a, m in zip(key, diag))
        rep = key[0]
        mult = self._group["mult"]
        out = self._group["identity"]
        for _ in range(q):
            out = mult[(out, rep)]
        return self._group["class_of"][out]

    def all_class_keys(self) -> list:
        if self.is_lattice:
            diag = self._lattice["diag"]
            if self.order > 100_000:
                raise InvalidArgument(f"quotient order {self.order} too large to tabulate")
            return [tuple(t) for t in itertools.product(*(range(m) for m in diag))]
        return list(self._group["classes"])

    def class_size(self, key) -> int:
        if self.is_lattice:
            return 1
        return len(key)

    def cycle_class(self, w: WeightSystem, cycle: PrimeCycle):
        """Class key of a cycle: lattice label of its class vector, or the
        conjugacy class of its ordered edge-label product."""
        if self.is_lattice:
            return self.reduce(birkhoff(cycle, w).class_vector)
        out = None
        for e in cycle.edges():
            lab = self.edge_label(w, e)
            out = lab if out is None else self._group["mult"][(out, lab)]
        return self._group["class_of"][out]


@dataclass(frozen=True)
class ChebotarevResult:
    counts: dict = field(compare=False)
    frequencies: dict = field(compare=False)
    reference: dict = field(compare=False)
    total: int = 0


def chebotarev_distribution(
    g: DirectedGraph,
    w: WeightSystem,
    removed,
    quot: FiniteQuotient,
    n_max: int,
) -> ChebotarevResult:
    """Empirical class distribution of prime cycles of period <= n_max
    (removed excluded) against the uniform reference |C| / |G|.

    Counts are exact: closed-walk traces in the quotient's group algebra,
    inverted to prime-cycle counts class by class.
    """
    _check_weights_cover(g, w)
    walks = _closed_walk_counts(
        g, lambda e: quot.edge_label(w, e), quot.combine, n_max
    )
    # aggregate element labels into class keys before inverting
    class_walks = {}
    for m, table in walks.items():
        agg: dict = {}
        for label, cnt in table.items():
            key = quot.class_key(label)
            agg[key] = agg.get(key, 0) + cnt
        class_walks[m] = agg
    prime = _prime_counts_from_walks(class_walks, n_max, quot.power_class)

    counts = {key: 0 for key in quot.all_class_keys()}
    for m in range(1, n_max + 1):
        for key, cnt in prime[m].items():
            counts[key] = counts.get(key, 0) + cnt
    for c in removed:
        if c.period <= n_max:
            key = quot.cycle_class(w, c)
            counts[key] -= 1
    total = sum(counts.values())
    if total <= 0:
        raise EmptySelection("no prime cycles within the probed period")
    frequencies = {key: cnt / total for key, cnt in counts.items()}
    reference = {key: quot.class_size(key) / quot.order for key in counts}
    empty = sum(cnt == 0 for cnt in counts.values())
    if empty:
        warnings.warn(
            f"{empty} of {len(counts)} quotient classes receive no orbit of "
            f"period <= {n_max}: the period bound may be too small for the "
            "quotient, or the cycle classes may fail to generate it",
            stacklevel=2,
        )
    return ChebotarevResult(counts, frequencies, reference, total)


def equidistribution_test(
    g: DirectedGraph,
    w: WeightSystem,
    dd: DirectionData,
    q: CountQuery,
    phi: dict,
    *,
    budget_cap: int = 32,
) -> EquidistributionResult:
    """Average of the per-orbit time averages of phi over the window/class
    selection, against the equilibrium-state expectation at dd.u."""
    missing = g.edge_set - set(phi)
    if missing:
        raise MissingEdgeValue(f"observable undefined on edges: {sorted(missing)}")
    target = target_class(w, q)
    phi_vals = {e: float(v) for e, v in phi.items()}
    scan = _scan(g, w, q.T, q.removed, budget_cap, phi=phi_vals, words=True)
    sel = np.flatnonzero(_in_window(scan.length, scan.classes, q.T, q.delta, target))
    if len(sel) == 0:
        raise EmptySelection("no orbit matches the window and class constraints")
    # summed in lexicographic word order, so the float result does not
    # depend on the order in which the scan emits cycles
    sel = sel[np.lexsort(scan.words[sel].T[::-1])]
    total = 0.0
    for s, length in zip(scan.value[sel].tolist(), scan.length[sel].tolist()):
        total += s / length
    expected = integrate_observable(equilibrium_measure(g, w, dd.u), w, phi_vals)
    return EquidistributionResult(total / len(sel), expected, len(sel))
