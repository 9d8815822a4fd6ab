"""Roof functions and integer class vectors on edges.

A weight system assigns every edge a strictly positive return time (roof)
and an integer vector of length d = b + meridians.  Class vectors can be
given directly per edge, or generated from a spanning tree of the
undirected edge graph: tree edges get the zero vector and every chord gets
a chosen generator value, traversal in the edge's direction counting +1.

Cycle data (total length and summed class vector) are plain Birkhoff sums
over the traversed edges; ``cycle_sums`` gives them for every prime cycle
up to a period, ordered, from the memoised ``scan_cycles`` entry that
every counter shares.  Lattice diagnostics reduce stacked cycle class
vectors with an exact integer Smith normal form: one reduction, whose
transforms U and V, when asked for, are identity blocks set beside and
below the matrix and carried along by the same row and column operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    InvalidTree,
    MissingChordValue,
    MissingEdgeWeight,
    NoMeridians,
)
from .graphs import CycleScan, DirectedGraph, Edge, PrimeCycle, is_primitive_pattern, scan_cycles


@dataclass(frozen=True)
class WeightSystem:
    """Per-edge roof values and class vectors.

    b counts base homology coordinates, meridians the trailing linking
    coordinates; the class dimension is their sum.
    """

    b: int
    meridians: int
    roof: dict[Edge, float]
    classes: dict[Edge, tuple[int, ...]]

    def __post_init__(self):
        b = int(self.b)
        n = int(self.meridians)
        if b < 0 or n < 0 or b + n < 1:
            raise InvalidArgument(f"need b >= 0, meridians >= 0, b + meridians >= 1, got ({b}, {n})")
        d = b + n
        roof = {}
        for e, r in self.roof.items():
            r = float(r)
            if not 0.0 < r < math.inf:
                raise InvalidArgument(f"roof must be positive and finite, got {r} on edge {e}")
            roof[(int(e[0]), int(e[1]))] = r
        classes = {}
        for e, vec in self.classes.items():
            vec = tuple(int(x) for x in vec)
            if len(vec) != d:
                raise DimensionMismatch(
                    f"class vector on edge {e} has length {len(vec)}, expected {d}"
                )
            classes[(int(e[0]), int(e[1]))] = vec
        if set(roof) != set(classes):
            raise InvalidArgument("roof and classes must cover the same edges")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "meridians", n)
        object.__setattr__(self, "roof", roof)
        object.__setattr__(self, "classes", classes)

    @property
    def dimension(self) -> int:
        return self.b + self.meridians

    @property
    def r_min(self) -> float:
        return min(self.roof.values())


@dataclass(frozen=True)
class ChordAssignment:
    """Spanning tree of the undirected edge graph plus generator values on
    the chords (the non-tree edges).  Loops are never tree edges."""

    dimension: int
    tree_edges: tuple[Edge, ...]
    chord_values: dict[Edge, tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(
            self, "tree_edges", tuple((int(a), int(b)) for a, b in self.tree_edges)
        )
        vals = {}
        for e, vec in self.chord_values.items():
            vec = tuple(int(x) for x in vec)
            if len(vec) != self.dimension:
                raise DimensionMismatch(
                    f"chord value on edge {e} has length {len(vec)}, expected {self.dimension}"
                )
            vals[(int(e[0]), int(e[1]))] = vec
        object.__setattr__(self, "chord_values", vals)


@dataclass(frozen=True)
class BirkhoffData:
    length: float
    class_vector: tuple[int, ...]


@dataclass(frozen=True)
class GenerationCheck:
    generates: bool
    lattice_invariants: tuple[int, ...]
    rank: int


def weights_from_chords(g: DirectedGraph, ca: ChordAssignment) -> dict[Edge, tuple[int, ...]]:
    """Class map induced by a chord assignment: zero on tree edges, the
    assigned generator value on each chord."""
    k = g.vertex_count
    tree = list(ca.tree_edges)
    if len(tree) != k - 1:
        raise InvalidTree(f"spanning tree needs {k - 1} edges, got {len(tree)}")
    undirected = set()
    for (a, b) in tree:
        if (a, b) not in g.edge_set:
            raise InvalidTree(f"tree edge ({a},{b}) is not an edge of the graph")
        if not (1 <= a <= k and 1 <= b <= k):   # an index below 1 would wrap in the pattern
            raise InvalidTree(f"tree edge ({a},{b}) references a vertex outside 1..{k}")
        if a == b:
            raise InvalidTree(f"loop ({a},{b}) cannot be a tree edge")
        key = (min(a, b), max(a, b))
        if key in undirected:
            raise InvalidTree(f"tree edges ({a},{b}) duplicate the undirected edge {key}")
        undirected.add(key)
    # connected iff the symmetric tree pattern plus I is primitive
    pattern = np.eye(k)
    for (a, b) in undirected:
        pattern[a - 1, b - 1] = pattern[b - 1, a - 1] = 1
    if not is_primitive_pattern(pattern):
        raise InvalidTree("tree edges do not connect all vertices")

    tree_set = set(tree)
    missing = g.edge_set - tree_set - set(ca.chord_values)
    if missing:
        raise MissingChordValue(f"no generator value for chord {min(missing)}")
    zero = (0,) * ca.dimension
    class_map = {e: zero if e in tree_set else ca.chord_values[e] for e in g.edge_set}
    for e in ca.chord_values:
        if e in tree_set or e not in g.edge_set:
            raise InvalidTree(f"chord value given for non-chord edge {e}")
    return class_map


def birkhoff(c: PrimeCycle, w: WeightSystem) -> BirkhoffData:
    """Total roof and summed class vector around the cycle."""
    d = w.dimension
    total = 0.0
    vec = [0] * d
    for e in c.edges():
        if e not in w.roof:
            raise MissingEdgeWeight(f"edge {e} carries no weight")
        total += w.roof[e]
        cv = w.classes[e]
        for i in range(d):
            vec[i] += cv[i]
    return BirkhoffData(total, tuple(vec))


def linking_numbers(c: PrimeCycle, w: WeightSystem) -> tuple[int, ...]:
    """Trailing meridian coordinates of the cycle's class vector."""
    if w.meridians == 0:
        raise NoMeridians("weight system has no meridian coordinates")
    return birkhoff(c, w).class_vector[-w.meridians:]


def smith_normal_form(mat) -> list[int]:
    """Nonzero elementary divisors d1 | d2 | ... of an integer matrix."""
    m = [[int(x) for x in row] for row in mat]
    return [x for x in _smith(m, len(m), len(m[0]) if m else 0) if x != 0]


def smith_decomposition(mat):
    """Exact Smith decomposition of an integer matrix.

    Returns (U, diag, V) with U (rows x rows) and V (cols x cols)
    unimodular and U @ mat @ V diagonal with entries ``diag`` (length
    min(rows, cols), zeros trailing), each dividing the next nonzero one.
    """
    a = [[int(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    # [[A, I_rows], [I_cols, 0]]: row operations on A carry U along in the
    # right block, column operations carry V along in the lower one
    m = [row + [0] * i + [1] + [0] * (rows - i - 1) for i, row in enumerate(a)]
    m += [[0] * i + [1] + [0] * (cols + rows - i - 1) for i in range(cols)]
    diag = _smith(m, rows, cols)
    return [row[cols:] for row in m[:rows]], diag, [row[:cols] for row in m[rows:]]


def _smith(m, rows, cols):
    """Reduce the top-left rows x cols block of m (a list of integer row
    lists) to Smith form in place and return its diagonal.  Row operations
    act on whole rows of m and column operations on whole columns, so
    blocks beside and below the reduced one record the transforms."""

    def row_op(i, j, q):  # row i -= q * row j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in m:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        m[i] = [-x for x in m[i]]

    def settle(t):
        """One pass at the pivot (t, t); False when it brought a smaller
        remainder into the pivot or repaired divisibility, so another pass
        is due.  Floor-division remainders of a positive pivot are
        positive, so the pivot stays positive once its sign is fixed."""
        p = m[t][t]
        # clear the pivot column, then the pivot row
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                row_op(i, t, m[i][t] // p)
                if m[i][t] != 0:
                    swap_rows(t, i)
                    return False
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                col_op(j, t, m[t][j] // p)
                if m[t][j] != 0:
                    swap_cols(t, j)
                    return False
        # divisibility: the pivot must divide every remaining entry
        for i in range(t + 1, rows):
            if any(x % p != 0 for x in m[i][t + 1:cols]):
                row_op(t, i, -1)  # add row i to row t
                return False
        return True

    for t in range(min(rows, cols)):
        # smallest nonzero pivot in the trailing block, first in row order
        nonzero = [(abs(m[i][j]), i, j)
                   for i in range(t, rows) for j in range(t, cols) if m[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        swap_rows(t, i)
        swap_cols(t, j)
        if m[t][t] < 0:
            negate_row(t)
        while not settle(t):
            pass
    return [m[i][i] for i in range(min(rows, cols))]


def check_weights_cover(g: DirectedGraph, w: WeightSystem) -> None:
    missing = g.edge_set - set(w.roof)
    if missing:
        raise MissingEdgeWeight(f"edges without weights: {sorted(missing)}")


def cycle_sums(g: DirectedGraph, w: WeightSystem, n_max: int) -> CycleScan:
    """Length and class of every prime cycle of period <= n_max, summed as
    ``birkhoff`` sums them, in (period, vertex sequence) order."""
    return scan_cycles(g, w.roof, w.classes, n_max).ordered()


def generation_check(g: DirectedGraph, w: WeightSystem, n_probe: int) -> GenerationCheck:
    """Do the class vectors of cycles up to period n_probe generate the
    full integer lattice?  True iff the stacked class matrix has full rank
    and all elementary divisors equal 1.  Repeated rows span nothing new,
    so each distinct nonzero class enters the Smith form once.  On a
    strongly connected graph n_probe >= the vertex count gives the exact
    group: every closed walk splits into simple cycles of at most that
    period, so its class is a sum of theirs."""
    classes = cycle_sums(g, w, n_probe).classes
    rows = np.unique(classes[classes.any(axis=1)], axis=0).tolist()
    if not rows:
        return GenerationCheck(False, (), 0)
    divisors = smith_normal_form(rows)
    rank = len(divisors)
    generates = rank == w.dimension and all(x == 1 for x in divisors)
    return GenerationCheck(generates, tuple(divisors), rank)


def lattice_length_heuristic(
    g: DirectedGraph,
    w: WeightSystem,
    n_probe: int,
    eps_grid,
    *,
    tol: float = 1e-9,
) -> list[float]:
    """Scales eps such that every probed cycle length lies within tol of
    eps * Z, a sign of arithmetic structure in the length spectrum.  With
    n_probe >= the vertex count the probed lengths generate the whole
    length group (see ``generation_check``); with no cycle probed nothing
    is flagged."""
    grid = [float(eps) for eps in eps_grid]
    if not all(0.0 < eps < np.inf for eps in grid):
        raise InvalidArgument(f"scales must be positive and finite, got {grid}")
    lengths = cycle_sums(g, w, n_probe).length
    if not len(lengths):
        return []
    return [eps for eps in grid
            if (np.abs(lengths / eps - np.round(lengths / eps)) * eps <= tol).all()]
