"""Tests of the oracles against brute-force enumeration at small sizes.

    python3 perfbench/selftest.py

Needs neither the program nor pytest; prints one line per test and exits
1 if any fails.  (Not named test_*.py, so the repository's pytest run does
not collect it.)
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from collections import Counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as o  # noqa: E402


def brute_prime_words(k, n_max):
    """All words over 1..k that are primitive and minimal among their
    rotations: one per prime cycle of the full k-shift."""
    out = []
    for n in range(1, n_max + 1):
        for w in itertools.product(range(1, k + 1), repeat=n):
            primitive = not any(n % d == 0 and w == w[:d] * (n // d) for d in range(1, n))
            if primitive and w == min(w[r:] + w[:r] for r in range(n)):
                out.append(w)
    return out


def edges_of(word):
    t = len(word)
    return [(word[i], word[(i + 1) % t]) for i in range(t)]


def test_lyndon_and_necklaces():
    for k, n in ((2, 9), (3, 6)):
        assert sorted(o.lyndon_words(k, n)) == sorted(brute_prime_words(k, n))
        for m in range(1, n + 1):
            assert o.necklaces(k, m) == sum(1 for w in o.lyndon_words(k, n) if len(w) == m)


def test_best_closed_walks():
    for n in range(1, 7):
        seen = Counter()
        for w in itertools.product((1, 2, 3), repeat=n):
            seen[frozenset(Counter(edges_of(w)).items())] += 1
        for key, count in seen.items():
            assert o.closed_walks_best(dict(key)) == count, (dict(key), count)


def test_bench3_orbits():
    T = 7.5
    want = Counter()
    for w in brute_prime_words(3, int(T / math.log(2))):
        if w in o.BENCH3_REMOVED:
            continue
        es = edges_of(w)
        if math.fsum(o.BENCH3_ROOF[e] for e in es) > T:
            continue
        n_int = math.prod(o.BENCH3_PRIMES[o.BENCH3_EDGES.index(e)] for e in es)
        cls = tuple(sum(o.BENCH3_CLASSES[e][j] for e in es) for j in (0, 1))
        want[(n_int, cls)] += 1
    got = Counter()
    for x in o.bench3_orbits(T):
        got[(x["N"], x["class"])] += x["count"]
        assert o.length_to_integer(x["length"]) == x["N"]
    assert got == want


def test_abelian_quotient():
    n, moduli = 7, (2, 3)
    walks, exact = o.abelian_closed_walks(3, o.BENCH3_CLASSES, moduli, n)
    assert all(exact.values())
    prime = o.abelian_prime_counts(walks, moduli, n)
    for m in range(1, n + 1):
        want = np.zeros(moduli, dtype=object)
        for w in brute_prime_words(3, m):
            if len(w) == m:
                cls = [sum(o.BENCH3_CLASSES[e][j] for e in edges_of(w)) for j in (0, 1)]
                want[cls[0] % 2, cls[1] % 3] += 1
        assert (prime[m] == want).all(), m


def test_z2_prime_counts():
    n = 8
    prime, exact = o.z2_prime_counts(o.BENCH3_CLASSES, 3, n, n + 1)
    for m in range(1, n + 1):
        want = Counter()
        for w in brute_prime_words(3, m):
            if len(w) == m:
                want[tuple(sum(o.BENCH3_CLASSES[e][j] for e in edges_of(w)) for j in (0, 1))] += 1
        assert exact[m] and prime[m] == dict(want), m


def test_dihedral_products():
    n_dih, n = 5, 6
    rng = np.random.default_rng(3)
    labels = {e: (int(rng.integers(n_dih)), int(rng.integers(2))) for e in o.BENCH3_EDGES}
    want = Counter()
    for w in brute_prime_words(3, n):
        if w in o.BENCH3_REMOVED:
            continue
        x = (0, 0)
        for e in edges_of(w):
            x = o.dihedral_mul(n_dih, x, labels[e])
        want[o.dihedral_class(n_dih, x)] += 1
    assert o.dihedral_class_counts(n_dih, labels, 3, n, o.BENCH3_REMOVED) == dict(want)
    # conjugacy classes partition the group
    elems = [(r, f) for r in range(n_dih) for f in (0, 1)]
    classes = {o.dihedral_class(n_dih, x) for x in elems}
    assert sum(len(c) for c in classes) == len(elems)


def test_full2_closed_forms():
    th = o.full2_thermo()
    for u in (-2.0, 0.0, 1.5):
        assert abs(th.pressure([u]) - o.full2_pressure(u)) < 1e-12
        rho = th.gradient([u])[0]
        assert abs(o.full2_dual(rho) - u) < 1e-9
        assert abs(th.hessian([u])[0, 0] - rho * (1 - rho)) < 1e-7
    for n in range(1, 11):
        for ones in range(n + 1):
            brute = sum(1 for w in brute_prime_words(2, n) if len(w) == n and w.count(2) == ones)
            assert o.full2_class_count(n, ones) == brute
    assert o.full2_total(12) == 746


def test_thermo_bench3():
    th = o.bench3_thermo()
    u = np.array([0.3, -0.2])
    g = th.gradient(u)
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1e-5
        fd = (th.pressure(u + e) - th.pressure(u - e)) / 2e-5
        assert abs(fd - g[i]) < 1e-8
    assert np.abs(th.solve_u(g) - u).max() < 1e-9
    hess = th.hessian(u)
    assert np.allclose(hess, hess.T) and np.linalg.eigvalsh(hess).min() > 0


def test_hull():
    hull = o.bench3_edge_ratio_hull()
    assert len(hull) == 3   # (0,0), (1/log 2, 0), (0, 1/log 11)
    assert o.outside_distance(hull, (0.1, 0.1)) < 0
    assert o.outside_distance(hull, (-0.1, 0.1)) > 0


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
