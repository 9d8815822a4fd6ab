"""Directed coding graphs and canonical enumeration of prime cycles.

Vertices are the integers 1..k throughout.  A prime cycle is a primitive
periodic vertex sequence stored as the lexicographically minimal rotation,
so every periodic orbit of the edge shift has exactly one representative.

``scan_cycles`` grows words level by level as numpy arrays, by the
necklace rule of Cattell, Ruskey, Sawada, Serra & Miers (J. Algorithms 37,
2000): appending x to a word of length t and period p keeps it a canonical
prefix iff x >= word[t-p], the period staying p on equality and becoming
t + 1 otherwise; the word is a prime cycle when p = t and its last vertex
has an edge back to its first.  Each prime cycle comes once, with no
deduplication, and the frontier is expanded in blocks of at most _BLOCK
rows, so memory stays flat however many cycles a scan yields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgument, InvalidGraph, MissingEdge, NotPrimitive

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

    @cached_property
    def _succ(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.vertex_count + 1)]
        for (a, b) in self.edge_set:
            if 1 <= a <= self.vertex_count and 1 <= b <= self.vertex_count:
                out[a].append(b)
        return tuple(tuple(sorted(s)) for s in out)

    def successors(self, i: int) -> tuple[int, ...]:
        return self._succ[i]

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix, entry [i-1, j-1] for the edge i -> j."""
        k = self.vertex_count
        a = np.zeros((k, k), dtype=np.int64)
        for (i, j) in self.edge_set:
            a[i - 1, j - 1] = 1
        return a


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
    """Diagnostics; empty list means the graph is valid."""
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
    out_deg = {v: 0 for v in range(1, k + 1)}
    in_deg = {v: 0 for v in range(1, k + 1)}
    for (a, b) in g.edge_set:
        if 1 <= a <= k and 1 <= b <= k:
            out_deg[a] += 1
            in_deg[b] += 1
    for v in range(1, k + 1):
        if out_deg[v] == 0:
            problems.append(f"vertex {v} has out-degree 0")
        if in_deg[v] == 0:
            problems.append(f"vertex {v} has in-degree 0")
    if not problems and not _strongly_connected(g):
        problems.append("graph is not strongly connected")
    return problems


def _strongly_connected(g: DirectedGraph) -> bool:
    k = g.vertex_count
    fwd = {v: set() for v in range(1, k + 1)}
    bwd = {v: set() for v in range(1, k + 1)}
    for (a, b) in g.edge_set:
        fwd[a].add(b)
        bwd[b].add(a)

    def reach(adj):
        seen = {1}
        stack = [1]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == k

    return reach(fwd) and reach(bwd)


def require_valid(g: DirectedGraph) -> None:
    problems = validate_graph(g)
    if problems:
        raise InvalidGraph("; ".join(problems))


def is_primitive_pattern(pattern) -> bool:
    """True iff some power of the square 0/1 pattern is entrywise positive;
    by Wielandt's bound (k-1)^2 + 1, repeated squaring up to it decides."""
    power = np.asarray(pattern) != 0
    k = power.shape[0]
    exponent = 1
    while exponent < (k - 1) * (k - 1) + 1:
        power = (power.astype(np.int64) @ power.astype(np.int64)) > 0
        exponent *= 2
    return bool(power.all())


def is_aperiodic(g: DirectedGraph) -> bool:
    """True iff the gcd of cycle lengths is 1 (the pattern is primitive)."""
    require_valid(g)
    return is_primitive_pattern(g.adjacency())


def canonical_form(g: DirectedGraph, vertex_sequence) -> PrimeCycle:
    """Canonical representative of a cyclic vertex sequence on g.

    Raises MissingEdge if a (cyclic) transition is absent and NotPrimitive
    if the sequence is a proper power of a shorter one.
    """
    seq = tuple(int(v) for v in vertex_sequence)
    if not seq:
        raise InvalidArgument("empty vertex sequence")
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
    """One entry per prime cycle found by ``scan_cycles``: ``length`` and
    ``value`` are edge sums in word order with the closing edge last, as
    ``birkhoff`` takes them, ``classes`` the n x d class sums, ``words``
    the canonical vertex sequences padded with 0; None when not asked for.
    """

    period: np.ndarray
    length: np.ndarray | None = None
    classes: np.ndarray | None = None
    value: np.ndarray | None = None
    words: np.ndarray | None = None


def scan_cycles(
    g: DirectedGraph,
    *,
    n_max: int,
    edge_length: dict | None = None,
    max_len: float | None = None,
    edge_vector: dict | None = None,
    edge_value: dict | None = None,
    exclude=(),
    words: bool = False,
) -> CycleScan:
    """All prime cycles of period <= n_max, as per-cycle arrays.

    Sums ``edge_length`` (the cycle length), ``edge_vector`` (the class)
    and ``edge_value`` (an observable) when given.  With ``max_len``
    (requires edge_length), branches that cannot close within the bound
    are pruned and only cycles of length <= max_len are kept.  Canonical
    words listed in ``exclude`` are left out.
    """
    require_valid(g)
    if n_max < 1:
        raise InvalidArgument(f"n_max must be >= 1, got {n_max}")
    if max_len is not None and edge_length is None:
        raise InvalidArgument("max_len requires edge_length")
    k = g.vertex_count
    edges = sorted(g.edge_set)
    # edge tables indexed by (k + 1) * tail + head
    flat = [(k + 1) * a + b for a, b in edges]

    def table(values, dtype=float):
        out = np.zeros(((k + 1) ** 2,) + np.shape(values[edges[0]]), dtype=dtype)
        out[flat] = [values[e] for e in edges]
        return out

    has_edge = table(dict.fromkeys(edges, True), bool)
    # the edge sums to carry; the length, when asked for, comes first
    sums = {
        name: table(values, dtype)
        for name, values, dtype in (("length", edge_length, float),
                                    ("classes", edge_vector, np.int64),
                                    ("value", edge_value, float))
        if values is not None
    }
    tables = list(sums.values())
    if max_len is not None:
        roof, r_min = tables[0], min(float(v) for v in edge_length.values())
    vtype = np.min_scalar_type(k)
    ptype = np.min_scalar_type(n_max)
    # successors of each vertex, padded with 0, which fails x >= word[t-p]
    succ = np.zeros((k + 1, max(len(s) for s in g._succ)), dtype=vtype)
    for a in range(1, k + 1):
        succ[a, : len(g._succ[a])] = g._succ[a]
    drop: dict[int, list] = {}
    for word in exclude:
        drop.setdefault(len(word), []).append(word)
    found: list[list] = []

    def step(t, w, p, *acc):
        """Emit the prime cycles among the words of length t (rows of w,
        zero-padded to n_max); return their children, of length t + 1."""
        base = (k + 1) * w[:, t - 1].astype(np.intp)
        closing = base + w[:, 0]
        close = (p == t) & has_edge.take(closing)
        if max_len is not None:
            close &= acc[0] + roof.take(closing) <= max_len
        if t in drop:
            close[close] = ~(w[close, None, :t] == np.array(drop[t])).all(axis=2).any(axis=1)
        sel = np.flatnonzero(close)
        e = closing.take(sel)
        found.append([np.full(len(sel), t, dtype=ptype)] + [
            a.take(sel, axis=0) + tab.take(e, axis=0) for a, tab in zip(acc, tables)
        ] + ([w.take(sel, axis=0)] if words else []))
        if t == n_max:
            return None
        wtp = w.ravel().take(np.arange(len(p)) * n_max + (t - p))
        cand = succ.take(w[:, t - 1], axis=0)
        ok = cand >= wtp[:, None]
        if max_len is not None:
            ok &= acc[0][:, None] + roof.take(base[:, None] + cand) + r_min <= max_len
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
    out = [np.concatenate(a) for a in zip(*found)]
    return CycleScan(out[0], words=out[-1] if words else None, **dict(zip(sums, out[1:])))


def enumerate_prime_cycles(g: DirectedGraph, n_max: int) -> list[PrimeCycle]:
    """All prime cycles of period <= n_max, canonical, sorted by
    (period, vertex sequence)."""
    scan = scan_cycles(g, n_max=n_max, words=True)
    found = [tuple(w[:t]) for w, t in zip(scan.words.tolist(), scan.period.tolist())]
    found.sort(key=lambda w: (len(w), w))
    return [PrimeCycle(w) for w in found]
