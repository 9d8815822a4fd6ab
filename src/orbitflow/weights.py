"""Roof functions and integer class vectors on edges.

A weight system assigns every edge a strictly positive return time (roof)
and an integer vector of length d = b + meridians.  Class vectors can be
given directly per edge, or generated from a spanning tree of the
undirected edge graph: tree edges get the zero vector and every chord gets
a chosen generator value, traversal in the edge's direction counting +1.

Cycle data (total length and summed class vector) are plain Birkhoff sums
over the traversed edges.  Lattice diagnostics reduce stacked cycle class
vectors with an exact integer Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    InvalidTree,
    MissingChordValue,
    MissingEdgeWeight,
    NoMeridians,
)
from .graphs import DirectedGraph, Edge, PrimeCycle, enumerate_prime_cycles


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
            if not r > 0.0:
                raise InvalidArgument(f"roof must be positive, got {r} on edge {e}")
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

    def covers(self, g: DirectedGraph) -> bool:
        return g.edge_set <= set(self.roof)


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
        if a == b:
            raise InvalidTree(f"loop ({a},{b}) cannot be a tree edge")
        key = (min(a, b), max(a, b))
        if key in undirected:
            raise InvalidTree(f"tree edges ({a},{b}) duplicate the undirected edge {key}")
        undirected.add(key)
    # connectivity of the undirected tree
    comp = {v: v for v in range(1, k + 1)}

    def find(v):
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for (a, b) in undirected:
        comp[find(a)] = find(b)
    if len({find(v) for v in range(1, k + 1)}) != 1:
        raise InvalidTree("tree edges do not connect all vertices")

    tree_set = set(tree)
    zero = (0,) * ca.dimension
    class_map: dict[Edge, tuple[int, ...]] = {}
    for e in g.edge_set:
        if e in tree_set:
            class_map[e] = zero
        elif e in ca.chord_values:
            class_map[e] = ca.chord_values[e]
        else:
            raise MissingChordValue(f"no generator value for chord {e}")
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
    _, diag, _ = smith_decomposition(mat)
    return [x for x in diag if x != 0]


def smith_decomposition(mat):
    """Exact Smith decomposition of an integer matrix.

    Returns (U, diag, V) with U (rows x rows) and V (cols x cols)
    unimodular and U @ mat @ V diagonal with entries ``diag`` (length
    min(rows, cols), zeros trailing), each dividing the next nonzero one.
    """
    a = [[int(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row i -= q * row j
        ai, aj = a[i], a[j]
        for c in range(cols):
            ai[c] -= q * aj[c]
        ui, uj = u[i], u[j]
        for c in range(rows):
            ui[c] -= q * uj[c]

    def col_op(i, j, q):  # col i -= q * col j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def negate_row(i):
        for c in range(cols):
            a[i][c] = -a[i][c]
        for c in range(rows):
            u[i][c] = -u[i][c]

    t = 0
    while t < rows and t < cols:
        # smallest nonzero pivot in the trailing block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        if a[t][t] < 0:
            negate_row(t)

        while True:
            # clear the pivot column, then the pivot row; a smaller
            # remainder anywhere restarts with it as the new pivot
            restart = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        if a[t][t] < 0:
                            negate_row(t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # divisibility: pivot must divide every remaining entry
            fixed = True
            p = a[t][t]
            for i in range(t + 1, rows):
                row = a[i]
                for j in range(t + 1, cols):
                    if row[j] % p != 0:
                        row_op(t, i, -1)  # add row i to row t
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        t += 1

    diag = [a[i][i] for i in range(min(rows, cols))]
    return u, diag, v


def generation_check(g: DirectedGraph, w: WeightSystem, n_probe: int) -> GenerationCheck:
    """Do the class vectors of cycles up to period n_probe generate the
    full integer lattice?  True iff the stacked class matrix has full rank
    and all elementary divisors equal 1."""
    rows = [list(birkhoff(c, w).class_vector) for c in enumerate_prime_cycles(g, n_probe)]
    rows = [r for r in rows if any(r)]
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
    """Scales eps at which all probed cycle lengths sit in one coset of
    eps * Z (within tol).

    Flagged scales indicate arithmetic structure in the length spectrum.
    Fewer than two distinct lengths cannot pin down a scale, so nothing is
    flagged then.  An empty result means no lattice structure was detected
    at the probed scales.
    """
    lengths = [birkhoff(c, w).length for c in enumerate_prime_cycles(g, n_probe)]
    if not lengths:
        return []
    base = lengths[0]
    diffs = [x - base for x in lengths]
    if not any(abs(dx) > tol for dx in diffs):
        return []
    flagged = []
    for eps in eps_grid:
        eps = float(eps)
        ok = True
        for dx in diffs:
            q = dx / eps
            if abs(q - round(q)) * eps > tol:
                ok = False
                break
        if ok:
            flagged.append(eps)
    return flagged
