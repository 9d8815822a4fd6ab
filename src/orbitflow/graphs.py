"""Directed coding graphs and canonical enumeration of prime cycles.

Vertices are the integers 1..k throughout.  A prime cycle is a primitive
periodic vertex sequence stored as the lexicographically minimal rotation,
so every periodic orbit of the edge shift has exactly one representative.

The enumerator is a depth-first search over words in the style of the
necklace-generation algorithms: a word is grown only while it remains a
prefix of some canonical representative, and it is emitted exactly when it
is aperiodic and minimal among its rotations.  This produces each prime
cycle once, with no post-hoc deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidGraph, MissingEdge, NotPrimitive

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
            raise ValueError("empty vertex sequence")
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
        raise ValueError("empty vertex sequence")
    n = len(seq)
    for m in range(n):
        a, b = seq[m], seq[(m + 1) % n]
        if not g.has_edge(a, b):
            raise MissingEdge(f"transition {a} -> {b} is not an edge")
    return PrimeCycle(seq)


def scan_prime_cycles(
    g: DirectedGraph,
    visit,
    *,
    n_max: int,
    edge_length: dict | None = None,
    max_len: float | None = None,
    edge_vector: dict | None = None,
):
    """Run ``visit(word, period, length, cls)`` once per prime cycle.

    ``word`` is a shared list whose first ``period`` entries hold the
    canonical vertex sequence; copy it before keeping a reference.
    ``length`` is the accumulated edge_length around the cycle (None when
    edge_length is None) and ``cls`` the accumulated edge_vector tuple
    (None when edge_vector is None).

    When ``max_len`` is given (requires edge_length), branches that cannot
    close within the bound are pruned, and only cycles with total length
    <= max_len are visited.  Word growth follows the standard necklace
    recursion: appending x to a word of period p keeps it a canonical
    prefix iff x >= word[t-p], the period staying p on equality and
    resetting to the full length otherwise; a word is a prime cycle
    representative exactly when its period equals its length.
    """
    require_valid(g)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    k = g.vertex_count
    succ = g._succ

    track_len = edge_length is not None
    track_vec = edge_vector is not None
    if max_len is not None and not track_len:
        raise ValueError("max_len requires edge_length")

    # dense lookup tables, index [i][j]; None marks a missing edge
    len_of = None
    if track_len:
        len_of = [[None] * (k + 1) for _ in range(k + 1)]
        for (i, j) in g.edge_set:
            len_of[i][j] = float(edge_length[(i, j)])
        r_min = min(float(v) for v in edge_length.values())
    vec_of = None
    dim = 0
    if track_vec:
        vec_of = [[None] * (k + 1) for _ in range(k + 1)]
        for (i, j) in g.edge_set:
            vec_of[i][j] = tuple(int(x) for x in edge_vector[(i, j)])
        dim = len(next(iter(edge_vector.values())))

    word = [0] * (n_max + 1)
    acc = [0] * dim

    for start in range(1, k + 1):
        word[0] = start

        def grow(last: int, t: int, p: int, length: float):
            if p == t and g.has_edge(last, start):
                if track_len:
                    total = length + len_of[last][start]
                    if max_len is None or total <= max_len:
                        if track_vec:
                            cv = vec_of[last][start]
                            visit(word, t, total,
                                  tuple(acc[i] + cv[i] for i in range(dim)))
                        else:
                            visit(word, t, total, None)
                else:
                    if track_vec:
                        cv = vec_of[last][start]
                        visit(word, t, None,
                              tuple(acc[i] + cv[i] for i in range(dim)))
                    else:
                        visit(word, t, None, None)
            if t == n_max:
                return
            wtp = word[t - p]
            for x in succ[last]:
                if x < wtp:
                    continue
                if track_len:
                    new_len = length + len_of[last][x]
                    if max_len is not None and new_len + r_min > max_len:
                        continue
                else:
                    new_len = length
                word[t] = x
                if track_vec:
                    xv = vec_of[last][x]
                    for i in range(dim):
                        acc[i] += xv[i]
                    grow(x, t + 1, p if x == wtp else t + 1, new_len)
                    for i in range(dim):
                        acc[i] -= xv[i]
                else:
                    grow(x, t + 1, p if x == wtp else t + 1, new_len)

        grow(start, 1, 1, 0.0)


def enumerate_prime_cycles(g: DirectedGraph, n_max: int) -> list[PrimeCycle]:
    """All prime cycles of period <= n_max, canonical, sorted by
    (period, vertex sequence)."""
    found: list[tuple[int, ...]] = []

    def keep(word, t, _length, _cls):
        found.append(tuple(word[:t]))

    scan_prime_cycles(g, keep, n_max=n_max)
    found.sort(key=lambda w: (len(w), w))
    return [PrimeCycle(w) for w in found]
