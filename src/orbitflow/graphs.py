"""Directed coding graphs and canonical enumeration of prime cycles.

Vertices are the integers 1..k throughout; ``edge_table`` is the one layout
of per-edge data, indexed by vertex label.  A prime cycle is a primitive
periodic vertex sequence stored as the lexicographically minimal rotation,
so every periodic orbit of the edge shift has exactly one representative.

``scan_cycles`` is the package's one cycle scan: counters, observable
averages, hull points, lattice diagnostics and the checks all reduce its
arrays, and it keeps the last scan, read-only, for the next caller with
the same inputs.  It grows words level by level as numpy arrays, by the
necklace rule of Cattell, Ruskey, Sawada, Serra & Miers (J. Algorithms 37,
2000): appending x to a word of length t and period p keeps it a canonical
prefix iff x >= word[t-p], the period staying p on equality and becoming
t + 1 otherwise; the word is a prime cycle when p = t and its last vertex
has an edge back to its first.  Each prime cycle comes once, with no
deduplication, in (period, vertex sequence) order: each level is expanded
first in, first out, so its words stay in order, and the cycles are joined
period by period.  The frontier is expanded in blocks of at most _BLOCK
rows, which bounds memory only, not the order or the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, InvalidArgument, InvalidGraph, MissingEdge,
                     MissingEdgeValue, MissingEdgeWeight, NotPrimitive)

Edge = tuple[int, int]


def _min_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    best = seq
    for r in range(1, len(seq)):
        rot = seq[r:] + seq[:r]
        if rot < best:
            best = rot
    return best


def _is_primitive(seq: tuple[int, ...]) -> bool:
    n = len(seq)
    for m in range(1, n):
        if n % m == 0 and seq == seq[:m] * (n // m):
            return False
    return True


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on vertices 1..vertex_count.

    At most one edge per ordered pair is meaningful; duplicates in the
    input are kept verbatim so that ``validate_graph`` can report them.
    Edge order is preserved (model files round-trip through it).
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertex_count", int(self.vertex_count))
        object.__setattr__(
            self, "edges", tuple((int(a), int(b)) for a, b in self.edges)
        )

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edge_set

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix, entry [i-1, j-1] for the edge i -> j."""
        return edge_table(self, dict.fromkeys(self.edge_set, 1), np.int64)[1:, 1:]


def edge_table(g: DirectedGraph, values, dtype=float) -> np.ndarray:
    """The (k + 1, k + 1, *value shape) array with values[(a, b)] at [a, b]
    on each edge a -> b of g and 0 elsewhere.  A value whose shape is not
    the first edge's, in sorted order, raises DimensionMismatch."""
    edges = sorted(g.edge_set)
    try:
        vals = np.array([values[e] for e in edges], dtype=dtype)
    except ValueError:   # values of unequal shapes, or not numbers
        shape = np.shape(values[edges[0]])
        for e in edges:
            if (other := np.shape(values[e])) != shape:
                raise DimensionMismatch(f"value on edge {e} has shape {other}, not {shape}") from None
        raise
    out = np.zeros((g.vertex_count + 1,) * 2 + vals.shape[1:], dtype=dtype)
    out[[a for a, _ in edges], [b for _, b in edges]] = vals
    return out


@dataclass(frozen=True)
class PrimeCycle:
    """Primitive cycle stored as its lexicographically minimal rotation.

    The constructor canonicalizes the rotation and rejects proper powers.
    Whether consecutive pairs are actual edges of some graph is checked by
    ``canonical_form``, not here.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        seq = tuple(int(v) for v in self.vertices)
        if not seq:
            raise InvalidArgument("empty vertex sequence")
        if not _is_primitive(seq):
            raise NotPrimitive(f"{seq} is a repetition of a shorter cycle")
        object.__setattr__(self, "vertices", _min_rotation(seq))

    @property
    def period(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[Edge]:
        vs = self.vertices
        n = len(vs)
        return [(vs[m], vs[(m + 1) % n]) for m in range(n)]


def validate_graph(g: DirectedGraph) -> list[str]:
    """Diagnostics; empty list means the graph is valid.  It is strongly
    connected iff its adjacency matrix A is irreducible, iff A + I is
    primitive: (A + I)^m sums positive multiples of A^0..A^m, so its entry
    (i, j) is positive iff a walk of at most m steps leads from i to j."""
    problems = []
    k = g.vertex_count
    if k < 2:
        problems.append(f"vertex_count must be >= 2, got {k}")
        return problems
    seen = set()
    for (a, b) in g.edges:
        if not (1 <= a <= k and 1 <= b <= k):
            problems.append(f"edge ({a},{b}) references a vertex outside 1..{k}")
        elif (a, b) in seen:
            problems.append(f"duplicate edge ({a},{b})")
        seen.add((a, b))
    inside = [(a, b) for (a, b) in seen if 1 <= a <= k and 1 <= b <= k]
    for kind, ends in (("out", {a for a, _ in inside}), ("in", {b for _, b in inside})):
        if len(ends) < k:  # one bounded line, found in O(edges)
            first = min(set(range(1, len(ends) + 2)) - ends)
            problems.append(f"{k - len(ends)} of {k} vertices have {kind}-degree 0, "
                            f"the first is vertex {first}")
    if not problems and not is_primitive_pattern(g.adjacency() + np.eye(k)):
        problems.append("graph is not strongly connected")
    return problems


def require_valid(g: DirectedGraph) -> None:
    problems = validate_graph(g)
    if problems:
        raise InvalidGraph("; ".join(problems))


def require_values(edges, values, *, observable=False) -> None:
    """Refuse, naming every one in one line, the edges that ``values`` (a
    dict or set of edges) has no weight for, or no observable value."""
    missing = frozenset(edges).difference(values)
    if missing and observable:
        raise MissingEdgeValue(f"observable undefined on edges: {sorted(missing)}")
    if missing:
        raise MissingEdgeWeight(f"edges without weights: {sorted(missing)}")


def require_roofs(roof: dict) -> None:
    """Refuse a roof that is not positive and finite on every edge of the
    dict; callers check where they read it, as it can be edited in place."""
    for e, r in roof.items():
        if not 0.0 < r < math.inf:
            raise InvalidArgument(f"roof must be positive and finite, got {r} on edge {e}")


def is_primitive_pattern(pattern) -> bool:
    """True iff some power of the square 0/1 pattern is entrywise positive;
    by Wielandt's bound (k-1)^2 + 1, repeated squaring up to it decides.
    Squared in float64, so by BLAS, and clipped to 0/1: entries <= k are exact."""
    power = (np.asarray(pattern) != 0).astype(np.float64)
    k = power.shape[0]
    exponent = 1
    while exponent < (k - 1) * (k - 1) + 1:
        power = np.minimum(power @ power, 1.0)
        exponent *= 2
    return bool(power.all())


def is_aperiodic(g: DirectedGraph) -> bool:
    """True iff the gcd of cycle lengths is 1 (the pattern is primitive)."""
    require_valid(g)
    return is_primitive_pattern(g.adjacency())


def canonical_form(g: DirectedGraph, vertex_sequence) -> PrimeCycle:
    """Canonical representative of a cyclic vertex sequence on g.

    Raises MissingEdge if a (cyclic) transition is absent; ``PrimeCycle``
    refuses an empty sequence and a proper power of a shorter one.
    """
    seq = tuple(int(v) for v in vertex_sequence)
    n = len(seq)
    for m in range(n):
        a, b = seq[m], seq[(m + 1) % n]
        if not g.has_edge(a, b):
            raise MissingEdge(f"transition {a} -> {b} is not an edge")
    return PrimeCycle(seq)


# rows of the live frontier expanded per numpy step; bounds peak memory
_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class CycleScan:
    """One entry per prime cycle found by ``scan_cycles``, in (period,
    vertex sequence) order: ``length`` is the roof sum in word order with
    the closing edge last, as ``birkhoff`` takes it, ``classes`` the n x d
    class sums, ``words`` the canonical vertex sequences padded with 0;
    read-only arrays, held by the memo.
    """

    period: np.ndarray
    length: np.ndarray
    classes: np.ndarray
    words: np.ndarray


# the last scan, as (key, scan); replaced whole
_memo: tuple | None = None


def scan_cycles(
    g: DirectedGraph, roof: dict, classes: dict, n_max: int, *,
    max_len: float = math.inf, exclude=(),
) -> CycleScan:
    """All prime cycles of period <= n_max and length <= max_len, less the
    canonical words in ``exclude``, in (period, vertex sequence) order
    whatever _BLOCK is: periods, lengths (``roof`` summed), classes
    (``classes`` summed) and words, pruning branches that cannot close
    within max_len.  The last scan is kept and returned again while
    its key matches: the graph, the roof and class of every edge (content,
    not identity, as weights can be edited in place), n_max, max_len and
    exclude.
    """
    global _memo
    require_values(g.edge_set, roof.keys() & classes.keys())
    edges = sorted(g.edge_set)
    exclude = tuple(exclude)
    key = g, [(roof[e], classes[e]) for e in edges], n_max, float(max_len), exclude
    if _memo is not None and _memo[0] == key:
        return _memo[1]
    _memo = None  # frees the old scan before the new one is built
    require_valid(g)
    require_roofs(roof)
    if n_max < 1:
        raise InvalidArgument(f"n_max must be >= 1, got {n_max}")
    top = max((abs(int(x)) for e in edges for x in classes[e]), default=0)
    if n_max * top >= 2**63:  # a class sum could wrap in int64
        raise InvalidArgument(f"class entries up to {top} summed over {n_max} "
                              f"edges can pass the int64 range")
    k = g.vertex_count
    # the edge sums carried along each word, its length then its class, in
    # edge tables flattened to the index (k + 1) * tail + head
    tables = [t.reshape((k + 1) ** 2, *t.shape[2:])
              for t in (edge_table(g, roof), edge_table(g, classes, np.int64))]
    lengths, has_edge = tables[0], tables[0] > 0
    r_min = lengths[has_edge].min()
    vtype = np.min_scalar_type(k)
    ptype = np.min_scalar_type(n_max)
    # successors in ascending order, then k + 1, which is 0 mod k + 1 and fails x >= word[t-p]
    succ = np.sort(np.where(has_edge.reshape(k + 1, k + 1), np.arange(k + 1), k + 1)) % (k + 1)
    succ = succ[:, :np.count_nonzero(succ, axis=1).max()].astype(vtype)
    drop: dict[int, list] = {}
    for word in exclude:
        drop.setdefault(len(word), []).append(word)
    found: list[list] = [[] for _ in range(n_max + 1)]   # emitted blocks per period

    def step(t, w, p, *acc):
        """Emit the prime cycles among the words of length t (rows of w,
        zero-padded to n_max); return their children, of length t + 1."""
        base = (k + 1) * w[:, t - 1].astype(np.intp)
        closing = base + w[:, 0]
        close = (p == t) & has_edge.take(closing)
        close &= acc[0] + lengths.take(closing) <= max_len
        if t in drop:
            close[close] = ~(w[close, None, :t] == np.array(drop[t])).all(axis=2).any(axis=1)
        sel = np.flatnonzero(close)
        e = closing.take(sel)
        found[t].append([np.full(len(sel), t, dtype=ptype)] + [
            a.take(sel, axis=0) + tab.take(e, axis=0) for a, tab in zip(acc, tables)
        ] + [w.take(sel, axis=0)])
        if t == n_max:
            return None
        wtp = w.ravel().take(np.arange(len(p)) * n_max + (t - p))
        cand = succ.take(w[:, t - 1], axis=0)
        ok = cand >= wtp[:, None]
        ok &= acc[0][:, None] + lengths.take(base[:, None] + cand) + r_min <= max_len
        idx = np.flatnonzero(ok)
        rows = idx // cand.shape[1]
        x = cand.ravel().take(idx)
        e = base.take(rows) + x
        child = w.take(rows, axis=0)
        child[:, t] = x
        return [child, np.where(x == wtp.take(rows), p.take(rows), t + 1)] + [
            a.take(rows, axis=0) + tab.take(e, axis=0) for a, tab in zip(acc, tables)
        ]

    root = [np.zeros((k, n_max), dtype=vtype), np.ones(k, dtype=ptype)]
    root += [np.zeros((k,) + tab.shape[1:], dtype=tab.dtype) for tab in tables]
    root[0][:, 0] = np.arange(1, k + 1)
    # pending[t]: words of length t not yet expanded.  Expand the deepest
    # level holding a full block, else all of the shallowest one; every
    # level then stays below a few blocks.
    pending = [[] for _ in range(n_max + 1)]
    pending[1] = [root]
    size = [0] * (n_max + 1)
    size[1] = k
    while any(size):
        full = [t for t in range(1, n_max + 1) if size[t] >= _BLOCK]
        t = full[-1] if full else next(t for t in range(1, n_max + 1) if size[t])
        state = pending[t][0] if len(pending[t]) == 1 else [
            np.concatenate(a) for a in zip(*pending[t])]
        # a copy, so the expanded rows are freed with the block
        pending[t] = [[a[_BLOCK:].copy() for a in state]] if size[t] > _BLOCK else []
        size[t] = max(size[t] - _BLOCK, 0)
        children = step(t, *(a[:_BLOCK] for a in state))
        if children is not None and len(children[1]):
            pending[t + 1].append(children)
            size[t + 1] += len(children[1])
    scan = CycleScan(*(np.concatenate(a) for a in zip(*sum(found, []))))
    for a in vars(scan).values():
        a.flags.writeable = False
    _memo = key, scan
    return scan


def enumerate_prime_cycles(g: DirectedGraph, n_max: int) -> list[PrimeCycle]:
    """All prime cycles of period <= n_max, canonical, in the scan's
    (period, vertex sequence) order."""
    scan = scan_cycles(g, dict.fromkeys(g.edge_set, 1.0), dict.fromkeys(g.edge_set, ()), n_max)
    return [PrimeCycle(w[:t]) for w, t in zip(scan.words.tolist(), scan.period.tolist())]
