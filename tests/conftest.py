import itertools
import os
from pathlib import Path

import numpy as np
import pytest

import orbitflow
from orbitflow import DirectedGraph, WeightSystem, builtin_model

# CLI subprocesses import the same package as the tests, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(orbitflow.__file__).parents[1]), os.environ.get("PYTHONPATH")))
)


@pytest.fixture(scope="session")
def full2():
    return builtin_model("full2")


@pytest.fixture(scope="session")
def goldenmean():
    return builtin_model("goldenmean")


@pytest.fixture(scope="session")
def bench3():
    return builtin_model("bench3")


@pytest.fixture
def root_solves(monkeypatch):
    """(class array shape, u) of every root ``thermo.pressure_jet`` solves
    rather than serves from its memo, which starts cold."""
    from orbitflow import thermo

    solved = []
    real = thermo._root
    real.cache_clear()

    def counted(r_shape, r, c_shape, c, u):
        misses = real.cache_info().misses
        jet = real(r_shape, r, c_shape, c, u)
        if real.cache_info().misses > misses:
            solved.append((c_shape, tuple(np.frombuffer(u).tolist())))
        return jet

    counted.cache_clear = real.cache_clear
    monkeypatch.setattr(thermo, "_root", counted)
    return solved


def brute_force_prime_cycles(g: DirectedGraph, n_max: int):
    """Independent enumeration oracle: all words, explicit rotation
    minimality and primitivity checks."""
    def min_rotation(word):
        return min(word[r:] + word[:r] for r in range(len(word)))

    def primitive(word):
        n = len(word)
        return not any(
            n % m == 0 and word == word[:m] * (n // m) for m in range(1, n)
        )

    out = []
    for n in range(1, n_max + 1):
        for word in itertools.product(range(1, g.vertex_count + 1), repeat=n):
            if not all(
                g.has_edge(word[i], word[(i + 1) % n]) for i in range(n)
            ):
                continue
            if primitive(word) and word == min_rotation(word):
                out.append(word)
    out.sort(key=lambda w: (len(w), w))
    return out


def random_strong_graph(
    rng: np.random.Generator, k: int, *, ensure_aperiodic: bool = False
) -> DirectedGraph:
    """Random strongly connected graph: a Hamiltonian cycle plus extras.

    With ensure_aperiodic a loop is added, making the cycle-length gcd 1.
    """
    perm = [int(v) + 1 for v in rng.permutation(k)]
    edges = {(perm[i], perm[(i + 1) % k]) for i in range(k)}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if (i, j) not in edges and rng.random() < 0.4:
                edges.add((i, j))
    if ensure_aperiodic:
        edges.add((perm[0], perm[0]))
    return DirectedGraph(k, tuple(sorted(edges)))


def random_weights(rng: np.random.Generator, g: DirectedGraph, d: int,
                   *, unit_roof: bool = False, value_range: int = 2) -> WeightSystem:
    roof = {
        e: 1.0 if unit_roof else float(rng.uniform(0.5, 1.5)) for e in g.edges
    }
    classes = {
        e: tuple(int(rng.integers(-value_range, value_range + 1)) for _ in range(d))
        for e in g.edges
    }
    return WeightSystem(b=d, meridians=0, roof=roof, classes=classes)
