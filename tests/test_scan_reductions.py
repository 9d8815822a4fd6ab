"""The hull, generation and lattice diagnostics are reductions over one
cycle scan; each must equal the route that builds every PrimeCycle and
re-sums it with birkhoff, kept here as the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from orbitflow import (
    DirectedGraph,
    EmptySelection,
    GenerationCheck,
    WeightSystem,
    birkhoff,
    builtin_model,
    direction_hull,
    enumerate_prime_cycles,
    generation_check,
    graphs,
    lattice_length_heuristic,
    smith_normal_form,
)

from conftest import random_strong_graph, random_weights

EPS_GRID = (0.1, 0.25, 0.3, 0.5, 1.0, 1.5, 2.0)
# with blocks this small the scan emits cycles out of (period, word) order,
# as it does with the default block on bench3 from period 11 on
SMALL_BLOCK = 7


def cycles(g, n):
    """Prime cycles of period <= n in (period, vertex sequence) order."""
    return sorted(enumerate_prime_cycles(g, n), key=lambda c: (c.period, c.vertices))


def reference_hull(g, w, n):
    """(points, vertices, dim) by birkhoff over the sorted cycles."""
    pts, seen = [], set()
    for c in cycles(g, n):
        data = birkhoff(c, w)
        ratio = tuple(x / data.length for x in data.class_vector)
        if ratio not in seen:
            seen.add(ratio)
            pts.append(ratio)
    arr = np.asarray(pts, dtype=float)
    centered = arr - arr.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False) if len(pts) > 1 else np.array([])
    cutoff = 1e-12 * max(1.0, float(sv[0])) if sv.size else 0.0
    dim = int((sv > cutoff).sum())
    basis = np.linalg.svd(centered, full_matrices=False)[2]
    if dim == 0:
        vertices = (pts[0],)
    elif dim == 1:
        along = centered @ basis[0]
        vertices = tuple(pts[i] for i in sorted({int(np.argmin(along)), int(np.argmax(along))}))
    else:
        hull = ConvexHull(centered @ basis[:dim].T)
        vertices = tuple(pts[i] for i in sorted(hull.vertices))
    return tuple(pts), vertices, dim


def reference_generation(g, w, n):
    rows = [list(birkhoff(c, w).class_vector) for c in cycles(g, n)]
    rows = [r for r in rows if any(r)]
    if not rows:
        return GenerationCheck(False, (), 0)
    divisors = smith_normal_form(rows)
    generates = len(divisors) == w.dimension and all(x == 1 for x in divisors)
    return GenerationCheck(generates, tuple(divisors), len(divisors))


def reference_lattice(g, w, n, eps_grid, tol=1e-9):
    lengths = [birkhoff(c, w).length for c in cycles(g, n)]
    return [
        float(eps) for eps in eps_grid
        if lengths and all(abs(x / eps - round(x / eps)) * eps <= tol for x in lengths)
    ]


def cold(call, *args):
    """call(*args) on an empty scan memo, so that it scans under the block
    in force: the memo key leaves the block out."""
    graphs._memo = None
    return call(*args)


def assert_same(g, w, n):
    hull = cold(direction_hull, g, w, n)
    assert (hull.points, hull.vertices, hull.dim) == reference_hull(g, w, n)
    assert cold(generation_check, g, w, n) == reference_generation(g, w, n)
    assert cold(lattice_length_heuristic, g, w, n, EPS_GRID) == reference_lattice(g, w, n, EPS_GRID)


@pytest.mark.parametrize("block", [graphs._BLOCK, SMALL_BLOCK])
@pytest.mark.parametrize("name", ["bench3", "full2", "goldenmean"])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_builtins_match_birkhoff_route(monkeypatch, block, name, n):
    monkeypatch.setattr(graphs, "_BLOCK", block)
    m = builtin_model(name)
    assert_same(m.graph, m.weights, n)


@pytest.mark.parametrize("name,n", [("full2", 10), ("goldenmean", 10), ("bench3", 8)])
def test_builtin_hull_at_depth(name, n):
    m = builtin_model(name)
    hull = direction_hull(m.graph, m.weights, n)
    assert (hull.points, hull.vertices, hull.dim) == reference_hull(m.graph, m.weights, n)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), d=st.integers(1, 2),
       n=st.integers(1, 5), unit_roof=st.booleans(), small_block=st.booleans())
def test_random_models_match_birkhoff_route(seed, k, d, n, unit_roof, small_block):
    rng = np.random.default_rng(seed)
    g = random_strong_graph(rng, k, ensure_aperiodic=True)
    w = random_weights(rng, g, d, unit_roof=unit_roof)
    with pytest.MonkeyPatch.context() as mp:
        if small_block:
            mp.setattr(graphs, "_BLOCK", SMALL_BLOCK)
        assert_same(g, w, n)


def test_lattice_scales_must_be_positive():
    m = builtin_model("full2")
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            lattice_length_heuristic(m.graph, m.weights, 4, [1.0, bad])


def test_hull_without_cycles_is_an_empty_selection():
    g = DirectedGraph(3, ((1, 2), (2, 3), (3, 1)))  # one prime cycle, period 3
    w = WeightSystem(b=1, meridians=0, roof={e: 1.0 for e in g.edges},
                     classes={e: (1,) for e in g.edges})
    with pytest.raises(EmptySelection):
        direction_hull(g, w, 2)
    assert direction_hull(g, w, 3).points == ((1.0,),)
