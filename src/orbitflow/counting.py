"""Periodic-orbit counting by length window and class.

Exact counts and observable averages are numpy reductions over the
canonical-cycle scan (``graphs.scan_cycles``, the one memoised scan entry),
pruned by the length bound; the admissible symbolic depth floor(T / r_min)
is capped, and counts beyond the cap are refused rather than estimated.
The equilibrium state that ``equidistribution_test`` integrates against
is likewise solved once per (graph, roof and class of every edge, u), and
its window selection made once per (scan, window, class).
Window counts, sweeps and totals read one row source, ``_rows``: when
every roof is one integer-valued constant (``full2``, ``goldenmean``)
its rows come from the walk engine below instead, and equal the scan's:
sums of integer-valued floats below 2^53 are exact.

The asymptotic predictor evaluates the window-count growth law for a
direction rho inside the attainable set: a Gaussian prefactor from the
entropy Hessian, a window factor, and the exponential of entropy * T
corrected by the dual parameter paired with the fractional part of
T * rho and the class offset.  ``evaluate_query``, ``sweep`` and
``jitter_averaged_ratio`` set every window against it in one loop over one scan.

One graded walk-count engine checks the class counts independently of
the scan.  It counts closed walks by the element of a finite group
(numbered 0..N-1) that their ordered edge labels multiply to, in a
(k, k, N) array W[j, i, x], end vertex first so that a step gathers from one
contiguous block per end vertex, an identity-labelled edge adding its
block as it is: int64 while the entries and trace of A^m stay under 2^62,
Python ints from then on.  It inverts them per conjugacy class to
prime-cycle counts by one Mobius recursion, its shorter orbits summed in
int64 under the same exact bound and its power maps composed, behind one
entry, ``_walk_primes``, which serves the unit-roof oracle on a box
Z^d / diag(S) that no class of a walk of at most n steps wraps around,
the integer-roof rows, and the density check over a ``FiniteQuotient`` (integer lattice
or explicit finite group), whose class frequencies approach |C| / |G|.
"""

from __future__ import annotations

import itertools
import math
import warnings
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# thermo and legendre are read through the package, which imports each on
# first use, so a count loads neither
import orbitflow
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptySelection,
    InfiniteQuotient,
    InvalidArgument,
    MissingEdgeValue,
    NonConvergence,
    RoofNotUnit,
)
from .graphs import (CycleScan, DirectedGraph, PrimeCycle, edge_table, require_period,
                     require_roofs, require_valid, require_values, scan_cycles)
from .weights import WeightSystem, require_dimension, smith_decomposition


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
        if not all(map(math.isfinite, (self.T, self.delta) + self.rho)):
            raise InvalidArgument(f"need finite T, delta and rho, got T={self.T}, "
                                  f"delta={self.delta}, rho={self.rho}")
        if not (0.0 < self.delta <= self.T):
            raise InvalidArgument(f"need 0 < delta <= T, got delta={self.delta}, T={self.T}")
        if len(self.rho) != len(self.alpha):
            raise DimensionMismatch("rho and alpha must have the same length")


class CountResult(NamedTuple):
    exact: int
    predicted: float
    ratio: float
    target_class: tuple[int, ...]


class SweepRow(NamedTuple):
    T: float
    delta: float
    target_class: tuple[int, ...]
    exact: int
    predicted: float
    ratio: float


class MargulisCount(NamedTuple):
    exact: int
    reference: float


class EquidistributionResult(NamedTuple):
    empirical: float
    expected: float
    n_orbits: int


def floor_class(rho, T: float) -> tuple[int, ...]:
    """Componentwise floor of T * rho (fundamental domain [0,1)^d)."""
    scaled = [T * float(x) for x in rho]
    if not all(map(math.isfinite, scaled)):
        raise InvalidArgument(f"T * rho passes the float range at T = {T:g}")
    return tuple(math.floor(x) for x in scaled)


def target_class(w: WeightSystem, q: CountQuery) -> tuple[int, ...]:
    """The class q counts, floor(T rho) + alpha; rho must have the class
    dimension of w."""
    require_dimension("rho", len(q.rho), w.dimension)
    return tuple(f + a for f, a in zip(floor_class(q.rho, q.T), q.alpha))


def _depth_cap(w: WeightSystem, max_len: float, budget_cap: int) -> int:
    if not math.isfinite(max_len):
        raise InvalidArgument(f"need a finite length bound, got {max_len}")
    require_roofs(w.roof)
    depth = int(math.floor(max_len / w.r_min))
    if depth > budget_cap:
        raise BudgetExceeded(
            f"symbolic depth {depth:g} exceeds the cap {budget_cap} "
            f"(max length {max_len:g}, minimal roof {w.r_min:g})"
        )
    return max(depth, 1)


def _scan(
    g: DirectedGraph, w: WeightSystem, max_len: float, removed, budget_cap: int
) -> CycleScan:
    """Prime cycles of length <= max_len, removed ones excluded, from the
    memoised ``scan_cycles`` entry, at the depth the budget allows."""
    n_max = _depth_cap(w, max_len, budget_cap)
    return scan_cycles(g, w.roof, w.classes, n_max, max_len=max_len,
                       exclude=tuple(c.vertices for c in removed))


def _rows(g: DirectedGraph, w: WeightSystem, max_len: float, removed, budget_cap: int, total=False):
    """(lengths, classes, multiplicity) of the prime cycles of length <= max_len,
    removed ones excluded.  On one integer roof eps a row is (n eps, class,
    Python-int prime count of period n) from the walk engine on the class box,
    or for a total on the trivial group, its keys as classes; otherwise a
    scanned cycle, multiplicity 1."""
    eps = w.r_min
    if eps.is_integer() and max_len < 2**53 and all(r == eps for r in w.roof.values()):
        n_max = _depth_cap(w, max_len, budget_cap)
        quot = FiniteQuotient.from_modulus(1, w.dimension) if total else None
        try:
            keys, prime = _walk_primes(g, w, n_max, quot, removed)
        except InvalidArgument:   # the class box passes the quotient limit
            pass
        else:
            lengths = np.repeat(np.arange(1, n_max + 1) * eps, len(keys))
            mult = np.concatenate(prime)
            keep = np.flatnonzero((lengths <= max_len) & (mult != 0))
            classes = np.array(keys, dtype=np.int64)[keep % len(keys)]
            return lengths[keep], classes, mult[keep].astype(object)
    scan = _scan(g, w, max_len, removed, budget_cap)
    return scan.length, scan.classes, np.ones(len(scan.length), dtype=np.int64)


def _edge_index(g: DirectedGraph, words, period) -> np.ndarray:
    """Each word's flat ``edge_table`` indices (k + 1) tail + head, in word
    order with the closing edge last; the padding reads row 0, all 0s."""
    words = words.astype(np.intp)
    heads = np.roll(words, -1, axis=1)
    heads[np.arange(len(words)), period - 1] = words[:, 0]
    return (g.vertex_count + 1) * words + heads


def _in_window(lengths, classes, T, delta, target) -> np.ndarray:
    """Mask of the cycles with length in (T - delta, T] and class target,
    ANDed in place one class column at a time: numpy's reduction over a
    short axis costs more than the compares."""
    if not all(-2**63 <= int(x) < 2**63 for x in target):
        raise InvalidArgument("the target class passes the int64 range")
    if np.shape(classes)[1:] != (len(target),):
        raise DimensionMismatch(
            f"class vector has length {len(target)}, class dimension is {np.shape(classes)[-1]}")
    mask = (lengths > T - delta) & (lengths <= T)
    for i, x in enumerate(target):
        mask &= classes[:, i] == int(x)
    return mask


def exact_window_count(
    g: DirectedGraph, w: WeightSystem, q: CountQuery, *, budget_cap: int = 32
) -> int:
    """Number of prime cycles (not in q.removed) with length in
    (T - delta, T] and class floor(T rho) + alpha."""
    target = target_class(w, q)
    lengths, classes, mult = _rows(g, w, q.T, q.removed, budget_cap)
    return int(mult[_in_window(lengths, classes, q.T, q.delta, target)].sum())


def cycle_table(
    g: DirectedGraph,
    w: WeightSystem,
    max_len: float,
    *,
    removed=(),
    budget_cap: int = 32,
):
    """(lengths, classes) of all prime cycles of length <= max_len, removed
    ones excluded, in (period, vertex sequence) order: the caller's own
    copies of the memoised scan's arrays, one enumeration pass that can
    serve many window/class queries."""
    scan = _scan(g, w, max_len, removed, budget_cap)
    return scan.length.copy(), scan.classes.copy()


def window_count_from_table(lengths, classes, T, delta, target) -> int:
    """Number of table rows with length in (T - delta, T] and class target."""
    return int(_in_window(lengths, classes, T, delta, target).sum())


def margulis_total(
    g: DirectedGraph, w: WeightSystem, removed, T: float, *, budget_cap: int = 32
) -> MargulisCount:
    """Exact number of prime cycles of length <= T (removed excluded) and
    the growth-law reference e^(hT) / (hT) with h = flow_pressure(0).
    The count sums the rows' multiplicities, on the trivial group if walked.

    The reference is the non-lattice (weak-mixing) law, which holds when
    the lengths are not all in one coset of eps * Z.  On a spectrum of
    step eps the ratio exact / reference, taken at T in eps * Z, tends to
    h eps / (1 - e^(-h eps)) instead: 2 log 2 for full2 (Parry &
    Pollicott, Asterisque 187-188, 1990).  A reference past the float
    range, because e^(hT) overflows or hT underflows, raises NonConvergence.
    """
    if not (math.isfinite(T) and T > 0):
        raise InvalidArgument(f"need finite T > 0, got T={T}")
    count = int(_rows(g, w, T, removed, budget_cap, total=True)[2].sum())
    h = orbitflow.thermo.flow_pressure(g, w, np.zeros(w.dimension))
    try:
        reference = math.exp(h * T) / (h * T)
    except (OverflowError, ZeroDivisionError):
        reference = math.inf
    if not math.isfinite(reference):
        edge = "overflows" if h * T >= np.finfo(float).tiny else "divides by hT, which underflows"
        raise NonConvergence(f"the reference e^(hT)/(hT) {edge} a float at T = {T:g}")
    return MargulisCount(count, reference)


# ---------------------------------------------------------------------------
# graded closed walks: the trace oracle, the lattice total, the density check

def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


_INT64_LIMIT = 2.0**62   # float A^m under it proves the walk counts fit int64, 2x to spare


def _closed_walks(g: DirectedGraph, w: WeightSystem, quot: "FiniteQuotient", n_max: int):
    """walks[m - 1][c] = closed m-step walks whose ordered edge-label product
    lies in class c of quot, m = 1..n_max: int64 under the bound, then Python ints.

    W[j, i, x] counts the walks i -> j with product x.  End-major, the walks
    ending at t are one contiguous (k, N) block W[t], so the step along the
    edge (t, h) labelled a takes W[t] at x a^-1 into W[h, :, x], several times
    faster than a fancy index into the strided W[:, t]; an edge labelled by
    the identity adds W[t] as it is.  W[j, i] sums to (A^m)_ij:
    max A^m bounds W and trace A^m each class sum, both at most k r^m for the
    largest out-degree r, so no power is taken while k r^n_max is under 2^62.
    """
    every, diag = np.arange(quot.order), np.arange(g.vertex_count)
    steps = []
    for t, h in g.edges:
        a = quot._edge_element(w, (t, h))
        steps.append((t - 1, h - 1, None if a == quot._identity else np.argsort(quot._mul(every, a))))
    adjacency, paths = g.adjacency().astype(float), np.eye(len(diag))
    wide = len(diag) * int(adjacency.sum(axis=1).max()) ** n_max >= _INT64_LIMIT
    W = np.zeros((len(diag), len(diag), quot.order), dtype=np.int64)
    W[diag, diag, quot._identity] = 1
    walks = []
    for _ in range(n_max):
        if wide and W.dtype != object and (paths := paths @ adjacency).max() >= _INT64_LIMIT:
            W = W.astype(object)
        step = np.zeros_like(W)
        for t, h, inverse in steps:
            step[h] += W[t] if inverse is None else W[t].take(inverse, axis=1)
        W = step
        closed = W[diag, diag]
        if wide and np.trace(paths) >= _INT64_LIMIT:   # W may still be int64
            closed = closed.astype(object)
        by_class = np.zeros(len(quot._class_keys), dtype=closed.dtype)
        np.add.at(by_class, quot._class_of, closed.sum(axis=0))
        walks.append(by_class)
    return walks


def _prime_counts(walks, quot: "FiniteQuotient"):
    """prime[m - 1][c] = prime cycles of period m in class c, exactly.

    A prime cycle of period p in class c, run q times, closes p walks of
    length p q in the class of its q-th power (well defined on conjugacy
    classes).  The power maps x -> x^q compose, x^(p r) = (x^r)^p for p
    the least prime factor of q, so only a prime q takes a group product.
    Period m's shorter orbits number sum_{q | m, q > 1} (m / q) P_{m / q},
    P_p the exact total of row p: they are summed in int64 while that
    number is under _INT64_LIMIT, as it is wherever row m is int64 (it is
    at most trace A^m), else in Python ints, and subtracted once before
    dividing by m, so each row keeps its walk counts' dtype.
    """
    n, every = len(walks), np.arange(quot.order)
    maps, prime, totals = {1: every}, [], []   # maps[q][x] = x^q, kept while a later period reads it
    for m, walk in enumerate(walks, 1):
        divisors = _divisors(m)[1:]
        if m > 1:
            p = divisors[0]   # the least prime factor
            maps[m] = quot._mul(maps[m - 1], every) if p == m else maps[p][maps[m // p]]
        bound = sum((m // q) * totals[m // q - 1] for q in divisors)
        sub = np.zeros(len(walk), dtype=np.int64 if bound < _INT64_LIMIT else object)
        for q in divisors:
            np.add.at(sub, quot._class_of[maps[q][quot._reps]], (m // q) * prime[m // q - 1])
        acc = walk - sub
        if ((acc % m != 0) | (acc < 0)).any():
            raise AssertionError(f"inconsistent walk counts at period {m}")
        prime.append(acc // m)
        totals.append(int(prime[-1].sum()))
        if 2 * (m - 1) > n:   # a map past n / 2 is read by the next period alone
            del maps[m - 1]
    return prime


def _walk_primes(g: DirectedGraph, w: WeightSystem, n_max: int, quot=None, removed=()):
    """The walk engine's one entry: (keys, prime), prime[m - 1][c] the prime
    cycles of period m in the class keyed keys[c], each distinct removed
    cycle of g subtracted once in its own row.  Without quot it counts on
    the box Z^d / diag(S), S_i = n_max (max(0, max c_i) - min(0, min c_i))
    + 1, which holds every class of a walk of at most n_max steps once and
    keys each by its class vector, or raises InvalidArgument past the
    quotient limit.  Roof values are not read."""
    require_values(g.edge_set, w.roof)
    require_valid(g)
    n_max = require_period(n_max)
    if quot is None:   # the box sides in Python ints, which cannot wrap
        columns = list(zip(*(w.classes[e] for e in g.edges)))
        lo = [n_max * min(0, *x) for x in columns]
        sides = tuple(n_max * max(0, *x) - m + 1 for x, m in zip(columns, lo))
        quot = FiniteQuotient._mixed_radix(sides, lambda vec: tuple(x % s for x, s in zip(vec, sides)))
        vectors = (np.stack(np.unravel_index(np.arange(quot.order), sides), axis=1) - lo) % sides + lo
        keys = list(map(tuple, vectors.tolist()))
    else:
        keys = quot.all_class_keys()
    prime = _prime_counts(_closed_walks(g, w, quot, n_max), quot)
    for c in {c for c in removed if c.period <= n_max and g.edge_set.issuperset(c.edges())}:
        prime[c.period - 1][quot._class_keys.index(quot.cycle_class(w, c))] -= 1
    return keys, prime


def trace_prime_counts_table(g: DirectedGraph, w: WeightSystem, n_max: int):
    """prime[m][beta] for all m <= n_max, by walk traces on the class box and
    inversion; each row holds its nonzero classes.  Roof must be 1."""
    if any(r != 1.0 for r in w.roof.values()):
        raise RoofNotUnit("this oracle requires roof identically 1")
    keys, prime = _walk_primes(g, w, n_max)
    keys = np.fromiter(keys, dtype=object, count=len(keys))
    return {m: dict(zip(keys[nz].tolist(), row[nz].tolist()))
            for m, row in enumerate(prime, 1) for nz in [row.nonzero()[0]]}


def trace_prime_count(g: DirectedGraph, w: WeightSystem, n: int, beta) -> int:
    """Prime cycles of period n with class beta: row n of
    ``trace_prime_counts_table`` read at beta, 0 for a class it does not hold."""
    beta = tuple(int(x) for x in beta)
    require_dimension("class vector", len(beta), w.dimension)
    return trace_prime_counts_table(g, w, n)[n].get(beta, 0)


# ---------------------------------------------------------------------------
# asymptotic predictor

def predict_count(
    g: DirectedGraph, w: WeightSystem, dd: DirectionData, q: CountQuery
) -> float:
    """Predicted window count for q at the direction dd.rho.

    sqrt|det H_h| / (2 pi)^(d/2) * window factor * exp(-<u, alpha>)
    * exp(entropy * T + <u, T rho - floor(T rho)>) / T^(1 + d/2),
    where the window factor is (1 - e^(-p delta)) / p at p = pressure at
    u(rho), continuously extended to delta at p = 0.  A prediction past
    the float range, or with T^(1 + d/2) at 0, raises NonConvergence.
    """
    floor = np.subtract(target_class(w, q), q.alpha)
    if tuple(round(x, 12) for x in dd.rho) != tuple(round(float(x), 12) for x in q.rho):
        raise InvalidArgument("q.rho does not match dd.rho")
    d = w.dimension
    det = abs(float(np.linalg.det(orbitflow.legendre.entropy_hessian(dd))))
    p = dd.pressure_at_u
    u = np.asarray(dd.u, dtype=float)
    frac = q.T * np.asarray(q.rho, dtype=float) - floor.astype(float)
    exponent = dd.entropy * q.T + float(u @ frac) - float(u @ np.asarray(q.alpha, dtype=float))
    try:
        window = (1.0 - math.exp(-p * q.delta)) / p if abs(p) > 1e-12 else q.delta
        predicted = (math.sqrt(det) / (2.0 * math.pi) ** (d / 2.0) * window
                     * math.exp(exponent) / q.T ** (1.0 + d / 2.0))
    except (OverflowError, ZeroDivisionError):
        predicted = math.inf
    if not math.isfinite(predicted):
        edge = ("overflows" if (1.0 + d / 2.0) * math.log(q.T) >= math.log(np.finfo(float).tiny)
                else "divides by T^(1 + d/2), which underflows")
        raise NonConvergence(f"the predicted count {edge} a float at T = {q.T:g}")
    return predicted


def _evaluate(g: DirectedGraph, w: WeightSystem, dd: DirectionData, queries, budget_cap: int):
    """Each query's CountResult, every window counted in place from the rows
    at the largest T (queries share removed); ratio nan at a prediction of 0.
    Lazy: nothing is counted until the first result is asked for."""
    lengths, classes, mult = _rows(g, w, max(q.T for q in queries), queries[0].removed, budget_cap)
    for q in queries:
        target = target_class(w, q)
        exact = int(mult[_in_window(lengths, classes, q.T, q.delta, target)].sum())
        predicted = predict_count(g, w, dd, q)
        ratio = exact / predicted if predicted > 0 else float("nan")
        yield CountResult(exact, predicted, ratio, target)


def evaluate_query(
    g: DirectedGraph,
    w: WeightSystem,
    dd: DirectionData,
    q: CountQuery,
    *,
    budget_cap: int = 32,
) -> CountResult:
    """Exact window count and its prediction, bundled with the ratio (nan at a 0 prediction)."""
    return next(_evaluate(g, w, dd, [q], budget_cap))


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
    """Exact and predicted window counts for each T, one dual solve and
    one cycle table at the largest T."""
    dd = orbitflow.legendre.solve_u(g, w, rho)
    queries = [CountQuery(T=float(T), delta=float(delta), rho=dd.rho, alpha=alpha, removed=removed)
               for T in T_list]
    return [SweepRow(q.T, q.delta, res.target_class, res.exact, res.predicted, res.ratio)
            for q, res in zip(queries, _evaluate(g, w, dd, queries, budget_cap))]


def jitter_averaged_ratio(
    g: DirectedGraph,
    w: WeightSystem,
    dd: DirectionData,
    alpha,
    delta: float,
    T: float,
    *,
    removed=(),
    budget_cap: int = 32,
) -> float:
    """Mean of exact/predicted over the 5 windows at T + j delta / 5,
    j = 0..4, all counted from one scan at T + 4 delta / 5.

    Damps the oscillation of a single window; a measurement convention,
    not a change to the counted quantity.
    """
    queries = [CountQuery(T=T + j * delta / 5, delta=delta, rho=dd.rho, alpha=alpha,
                          removed=removed) for j in range(5)]
    return float(np.mean([res.ratio for res in _evaluate(g, w, dd, queries, budget_cap)]))


# ---------------------------------------------------------------------------
# finite quotients and the density check

def _check_order(order: int) -> None:
    if order > 10**12:   # a long order is named by its digit count
        digits = round(math.log10(order))
        digits += order >= 10**digits
        raise InvalidArgument(f"quotient order of {digits} digits too large to tabulate, limit 100000")
    if order > 100_000:
        raise InvalidArgument(f"quotient order {order} too large to tabulate")


class FiniteQuotient:
    """Finite quotient receiving cycle classes, its elements numbered
    0..|G|-1, with the product ``_mul(x, a)``: the index of x a, for
    indices or index arrays x and a, given by each constructor.

    A lattice quotient Z^d / L numbers the element with Smith coordinates
    x (0 <= x_i < s_i, s the Smith diagonal of L) by its mixed-radix index
    and labels it x.  Its product adds digits, with no |G|^2 table; each
    conjugacy class is one element, and an edge carries the label of its
    class vector.  An explicit group keeps the order given and multiplies
    by the |G| x |G| array of its products, built once; each class is keyed
    by its members sorted by repr, and an edge carries its own label.
    Orders above 100,000 are refused before any array is built.
    """

    def __init__(self, class_of, class_keys, edge_element, mul, *, identity=0, reduce=None):
        self.order = len(class_of)
        self._class_of = class_of
        self._class_keys = tuple(class_keys)
        self._sizes = dict(zip(self._class_keys, np.bincount(class_of).tolist()))
        self._reps = np.unique(class_of, return_index=True)[1]
        self._edge_element = edge_element
        self._mul = mul
        self._identity = identity
        self._reduce = reduce

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

        def reduce(vec):
            vec = [int(x) for x in vec]
            require_dimension("class vector", len(vec), d)
            return tuple(sum(a * b for a, b in zip(row, vec)) % s for row, s in zip(u, diag))

        return cls._mixed_radix(tuple(diag), reduce)

    @classmethod
    def from_modulus(cls, modulus: int, dim: int) -> "FiniteQuotient":
        m = int(modulus)
        if m < 1:
            raise InvalidArgument(f"modulus must be >= 1, got {m}")
        return cls.from_lattice([[m if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def _mixed_radix(cls, radix: tuple, reduce) -> "FiniteQuotient":
        """Z^d / diag(radix); reduce maps an integer class vector to its
        coordinates."""
        order = math.prod(radix)
        _check_order(order)

        def mul(x, a):
            digits = zip(np.unravel_index(x, radix), np.unravel_index(a, radix))
            return np.ravel_multi_index([i + j for i, j in digits], radix, mode="wrap")

        return cls(
            np.arange(order), itertools.product(*map(range, radix)),
            lambda w, e: np.ravel_multi_index(reduce(w.classes[e]), radix), mul, reduce=reduce,
        )

    @classmethod
    def from_group(cls, elements, table, edge_labels) -> "FiniteQuotient":
        """Explicit finite group: elements, a multiplication table indexable
        by pairs (a, b), and a label per edge."""
        elems = tuple(elements)
        n = len(elems)
        _check_order(n)
        index = {x: i for i, x in enumerate(elems)}
        def find(x):  # the index of x, -1 for a value outside elems (unhashable too)
            try:
                return index.get(x, -1)
            except TypeError:
                return -1
        try:
            mult = np.array([[index.get(table[a, b], -1) for b in elems] for a in elems])
            outside = np.argwhere(mult < 0)[:1]   # the first product outside elems, if any
        except KeyError as exc:
            raise InvalidArgument(f"multiplication table has no entry {exc}") from None
        except TypeError:   # an unhashable product: the pairs up to it, read again
            outside = [next((i, j) for i, a in enumerate(elems) for j, b in enumerate(elems)
                            if find(table[a, b]) < 0)]
        for a, b in outside:
            raise InvalidArgument(f"table entry {(elems[a], elems[b])!r} is outside the elements")
        for e, v in edge_labels.items():
            if find(v) < 0:
                raise InvalidArgument(f"the label {v!r} on edge {e} is outside the elements")
        every = np.arange(n)
        unit = np.flatnonzero((mult == every).all(axis=1) & (mult.T == every).all(axis=1))
        if len(unit) == 0:
            raise InvalidArgument("multiplication table has no identity element")
        solves = mult == unit[0]
        if not solves.any(axis=1).all():
            raise InvalidArgument("multiplication table has non-invertible elements")
        conjugates = mult[mult.T, solves.argmax(axis=1)]   # [a, h] -> h a h^-1
        class_of = np.full(n, -1)
        keys = []
        for a in every:
            if class_of[a] < 0:
                class_of[conjugates[a]] = len(keys)
                keys.append(tuple(sorted({elems[x] for x in conjugates[a]}, key=repr)))
        labels = {(int(e[0]), int(e[1])): index[v] for e, v in edge_labels.items()}

        def edge_element(w, edge):
            if edge not in labels:
                raise MissingEdgeValue(f"no group label on edge {edge}")
            return labels[edge]

        return cls(class_of, keys, edge_element, lambda x, a: mult[x, a], identity=int(unit[0]))

    # -- shared interface

    def reduce(self, vec) -> tuple[int, ...]:
        """Lattice label of an integer class vector."""
        if self._reduce is None:
            raise InvalidArgument("an explicit group quotient has no lattice labels")
        return self._reduce(vec)

    def all_class_keys(self) -> list:
        return list(self._class_keys)

    def class_size(self, key) -> int:
        return self._sizes[key]

    def cycle_class(self, w: WeightSystem, cycle: PrimeCycle):
        """Class key of a cycle: the class of its ordered edge-label
        product (for a lattice, the label of its class vector)."""
        x = self._identity
        for e in cycle.edges():
            x = self._mul(x, self._edge_element(w, e))
        return self._class_keys[self._class_of[x]]


class ChebotarevResult(NamedTuple):
    counts: dict
    frequencies: dict
    reference: dict
    total: int


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
    keys, prime = _walk_primes(g, w, n_max, quot, removed)
    total = sum(int(p.sum()) for p in prime)   # each row's sum is exact in its dtype
    dtype = np.int64 if total < 2**63 else object   # and every class's sum in this one
    counts = dict(zip(keys, sum(p.astype(dtype) for p in prime).tolist()))
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


# the last window selection, under its scan: the scan memo keys on content,
# so other inputs give another scan, and the entry goes with its scan
_selection: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _window_selection(g: DirectedGraph, scan: CycleScan, T, delta, target):
    """The cycles of ``scan`` with length in (T - delta, T] and class
    target: their ``_edge_index`` rows and their lengths, kept for the next
    call with the same scan and window."""
    key, memo = (T, delta, target), _selection.get(scan)
    if memo is not None and memo[0] == key:
        return memo[1]
    sel = np.flatnonzero(_in_window(scan.length, scan.classes, T, delta, target))
    if len(sel) == 0:
        raise EmptySelection("no orbit matches the window and class constraints")
    picked = _edge_index(g, scan.words[sel], scan.period[sel]), scan.length[sel]
    _selection.clear()
    _selection[scan] = key, picked
    return picked


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
    selection, against the equilibrium-state expectation at dd.u, whose
    root ``pressure_jet`` keeps for the next call at the same direction.
    The selection is made once per (scan, window, class) and shared by every
    phi.  Each orbit's phi is summed in word order, closing edge last, as
    ``birkhoff`` sums its length; the average is the exact sum of the
    per-orbit ratios (``math.fsum``), rounded once and divided by the orbit
    count, so no listing order moves it.  An average that overflows a float
    raises NonConvergence."""
    require_values(g.edge_set, phi, observable=True)
    target = target_class(w, q)
    scan = _scan(g, w, q.T, q.removed, budget_cap)
    index, lengths = _window_selection(g, scan, q.T, q.delta, target)
    phi_vals = {e: float(v) for e, v in phi.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.cumsum(edge_table(g, phi_vals).ravel().take(index), axis=1)[:, -1] / lengths
    try:
        empirical = math.fsum(ratios.tolist()) / len(lengths)
    except (OverflowError, ValueError):   # an exact sum past the float range, or inf - inf
        empirical = math.nan
    if not math.isfinite(empirical):
        raise NonConvergence("the average of the observable overflows a float")
    thermo = orbitflow.thermo
    expected = thermo.integrate_observable(thermo.equilibrium_measure(g, w, dd.u), w, phi_vals)
    return EquidistributionResult(empirical, expected, len(lengths))
