"""Graph validation, aperiodicity, canonical cycles, and enumeration."""

import re

import numpy as np
import pytest

from orbitflow import (
    DirectedGraph,
    InvalidArgument,
    InvalidGraph,
    MissingEdge,
    MissingEdgeWeight,
    NotPrimitive,
    PrimeCycle,
    birkhoff,
    canonical_form,
    enumerate_prime_cycles,
    graphs,
    is_aperiodic,
    scan_cycles,
    validate_graph,
)
from orbitflow.counting import _edge_sums

from conftest import brute_force_prime_cycles, random_strong_graph, random_weights

FULL2 = DirectedGraph(2, ((1, 1), (1, 2), (2, 1), (2, 2)))
GOLDEN = DirectedGraph(2, ((1, 1), (1, 2), (2, 1)))
CYCLE3 = DirectedGraph(3, ((1, 2), (2, 3), (3, 1)))


class TestValidate:
    def test_full_shift_valid(self):
        assert validate_graph(FULL2) == []

    def test_missing_out_degree(self):
        g = DirectedGraph(2, ((1, 2),))
        problems = validate_graph(g)
        assert any("out-degree 0" in p for p in problems)

    def test_three_cycle_valid(self):
        assert validate_graph(CYCLE3) == []

    def test_duplicate_edge_reported(self):
        g = DirectedGraph(2, ((1, 2), (1, 2), (2, 1), (1, 1)))
        assert any("duplicate" in p for p in validate_graph(g))

    def test_not_strongly_connected(self):
        g = DirectedGraph(3, ((1, 2), (2, 1), (2, 3), (3, 3)))
        assert any("strongly connected" in p for p in validate_graph(g))

    def test_vertex_out_of_range(self):
        g = DirectedGraph(2, ((1, 2), (2, 1), (1, 3)))
        assert any("outside" in p for p in validate_graph(g))

    def test_strong_connectivity_matches_a_search(self):
        # a random permutation gives every vertex in- and out-degree 1 (a
        # union of disjoint cycles), so only strong connectivity can fail;
        # a few random extra edges join some of the cycles
        rng = np.random.default_rng(18)
        verdicts = set()
        for k in range(2, 9):
            for _ in range(40):
                edges = {(i, int(j)) for i, j in enumerate(rng.permutation(k) + 1, 1)}
                edges |= set(map(tuple, rng.integers(1, k + 1, (int(rng.integers(k)), 2)).tolist()))
                g = DirectedGraph(k, tuple(sorted(edges)))
                want = _reaches_all(k, edges) and _reaches_all(k, {(b, a) for a, b in edges})
                assert validate_graph(g) == ([] if want else ["graph is not strongly connected"])
                verdicts.add(want)
        assert verdicts == {True, False}


def _reaches_all(k, edges):
    """Breadth-first search from vertex 1: does it reach all of 1..k?"""
    seen, queue = {1}, [1]
    for v in queue:
        for a, b in sorted(edges):
            if a == v and b not in seen:
                seen.add(b)
                queue.append(b)
    return len(seen) == k


class TestAperiodic:
    def test_two_cycle_periodic(self):
        g = DirectedGraph(2, ((1, 2), (2, 1)))
        assert is_aperiodic(g) is False

    def test_full_shift_aperiodic(self):
        assert is_aperiodic(FULL2) is True

    def test_golden_mean_aperiodic(self):
        # cycle lengths {1, 2}, gcd 1
        assert is_aperiodic(GOLDEN) is True

    def test_three_cycle_periodic(self):
        assert is_aperiodic(CYCLE3) is False

    def test_invalid_graph_raises(self):
        with pytest.raises(InvalidGraph):
            is_aperiodic(DirectedGraph(2, ((1, 2),)))

    def test_matches_positive_power_characterization(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_strong_graph(rng, int(rng.integers(2, 6)))
            a = g.adjacency()
            k = g.vertex_count
            power = np.eye(k, dtype=np.int64)
            positive = False
            for _ in range(k * k):
                power = np.minimum(power @ a, 1)
                if power.min() > 0:
                    positive = True
                    break
            assert is_aperiodic(g) == positive

    def test_pattern_matches_the_definition(self):
        # periodic, reducible and primitive patterns, and Wielandt's
        # pattern, whose first positive power is the bound (k-1)^2 + 1
        def by_definition(a):
            k = len(a)
            power = np.eye(k, dtype=np.int64)
            for _ in range((k - 1) ** 2 + 1):
                power = np.minimum(power @ a, 1)
                if power.min() > 0:
                    return True
            return False

        rng = np.random.default_rng(2026)
        for k in range(1, 9):
            wielandt = np.eye(k, k, 1, dtype=np.int64)
            wielandt[-1, 0] = wielandt[-1, min(1, k - 1)] = 1
            cases = [(wielandt, True)]
            for _ in range(10):
                perm = rng.permutation(k)
                p = int(rng.choice([q for q in range(2, k + 1) if k % q == 0] or [1]))
                layer = np.empty(k, dtype=np.int64)
                layer[perm] = np.arange(k) % p
                step = (layer[None, :] - layer[:, None]) % p == 1 % p
                periodic = step & (rng.random((k, k)) < 0.6)
                periodic[perm, np.roll(perm, -1)] = True
                reducible = rng.random((k, k)) < 0.7
                cut = int(rng.integers(1, k)) if k > 1 else 1
                reducible[np.ix_(perm[cut:], perm[:cut])] = False
                primitive = rng.random((k, k)) < 0.3
                primitive[perm, np.roll(perm, -1)] = primitive[perm[0], perm[0]] = True
                cases += [(periodic, p == 1), (reducible, k == 1 and reducible[0, 0]),
                          (primitive, True)]
            for a, want in cases:
                assert graphs.is_primitive_pattern(a) == by_definition(a.astype(np.int64)) == want


class TestCanonicalForm:
    def test_rotates_to_minimum(self):
        assert canonical_form(FULL2, (2, 1)).vertices == (1, 2)

    def test_rejects_repetition(self):
        with pytest.raises(NotPrimitive):
            canonical_form(FULL2, (1, 2, 1, 2))

    def test_three_letter_rotation(self):
        assert canonical_form(FULL2, (2, 1, 1)).vertices == (1, 1, 2)

    def test_identity_on_canonical(self):
        assert canonical_form(FULL2, (1, 1, 2)).vertices == (1, 1, 2)

    def test_missing_edge(self):
        with pytest.raises(MissingEdge):
            canonical_form(GOLDEN, (2, 2))

    def test_missing_closing_edge(self):
        # path edges exist but the wrap-around 2 -> 2 does not
        with pytest.raises(MissingEdge):
            canonical_form(GOLDEN, (2, 1, 2, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonical_form(FULL2, ())

    def test_primecycle_constructor_canonicalizes(self):
        assert PrimeCycle((3, 1, 2)).vertices == (1, 2, 3)


class TestEnumerate:
    def test_full2_up_to_2(self):
        got = [c.vertices for c in enumerate_prime_cycles(FULL2, 2)]
        assert got == [(1,), (2,), (1, 2)]

    def test_full2_counts_by_period(self):
        cycles = enumerate_prime_cycles(FULL2, 4)
        assert len(cycles) == 8
        by_period = {}
        for c in cycles:
            by_period[c.period] = by_period.get(c.period, 0) + 1
        assert by_period == {1: 2, 2: 1, 3: 2, 4: 3}

    def test_golden_mean_up_to_3(self):
        got = [c.vertices for c in enumerate_prime_cycles(GOLDEN, 3)]
        assert got == [(1,), (1, 2), (1, 1, 2)]

    def test_sorted_and_deterministic(self):
        a = enumerate_prime_cycles(FULL2, 6)
        b = enumerate_prime_cycles(FULL2, 6)
        assert a == b
        keys = [(c.period, c.vertices) for c in a]
        assert keys == sorted(keys)

    def test_sorted_when_blocks_reorder_the_scan(self, monkeypatch):
        monkeypatch.setattr(graphs, "_BLOCK", 3)
        monkeypatch.setattr(graphs, "_memo", None)   # a memo hit would not rescan
        got = [c.vertices for c in enumerate_prime_cycles(FULL2, 8)]
        assert got == brute_force_prime_cycles(FULL2, 8)

    def test_no_two_rotations(self):
        for g in (FULL2, GOLDEN, CYCLE3):
            seen = set()
            for c in enumerate_prime_cycles(g, 7):
                for r in range(c.period):
                    rot = c.vertices[r:] + c.vertices[:r]
                    assert rot not in seen or rot == c.vertices
                    seen.add(rot)

    def test_matches_brute_force(self, monkeypatch):
        # in (period, vertex sequence) order as scanned, whatever the block size
        rng = np.random.default_rng(11)
        models = [FULL2, GOLDEN, CYCLE3] + [
            random_strong_graph(rng, int(rng.integers(2, 5))) for _ in range(8)
        ]
        for g in models:
            want = brute_force_prime_cycles(g, 6)
            for block in (4096, 7, 3):
                monkeypatch.setattr(graphs, "_BLOCK", block)
                monkeypatch.setattr(graphs, "_memo", None)   # a memo hit would not rescan
                assert [c.vertices for c in enumerate_prime_cycles(g, 6)] == want

    def test_words_and_sums_match_birkhoff(self, bench3):
        g, w = bench3.graph, bench3.weights
        phi = {e: 0.1 * i + 0.3 for i, e in enumerate(sorted(g.edges))}
        scan = scan_cycles(g, w.roof, w.classes, 17, max_len=12.0)
        assert len(scan.period) > 100
        values = _edge_sums(g, scan.words, scan.period, phi)
        for word, t, length, cls, value in zip(
            scan.words.tolist(), scan.period.tolist(), scan.length.tolist(),
            scan.classes.tolist(), values.tolist(),
        ):
            assert word[t:] == [0] * (17 - t)
            c = PrimeCycle(tuple(word[:t]))
            assert c.vertices == tuple(word[:t])
            assert (length, tuple(cls)) == (birkhoff(c, w).length, birkhoff(c, w).class_vector)
            s = 0.0
            for e in c.edges():
                s += phi[e]
            assert value == s

    def test_block_size_changes_nothing(self, bench3, monkeypatch):
        # the raw arrays, unsorted, are the same at every block size, and
        # already in (period, vertex sequence) order
        rng = np.random.default_rng(5)
        cases = [(bench3.graph, bench3.weights, 14, 9.0)] + [
            (g, random_weights(rng, g, 2), 7, 5.0)
            for g in (random_strong_graph(rng, int(rng.integers(2, 6))) for _ in range(12))
        ]
        for g, w, n_max, max_len in cases:
            words = scan_cycles(g, w.roof, w.classes, n_max, max_len=max_len).words
            exclude = [tuple(x for x in word if x) for word in words[::5].tolist()]
            scans = []
            for block in (4096, 7, 3):
                monkeypatch.setattr(graphs, "_BLOCK", block)
                monkeypatch.setattr(graphs, "_memo", None)   # a memo hit would not rescan
                scans.append(scan_cycles(g, w.roof, w.classes, n_max, max_len=max_len,
                                         exclude=exclude))
            for scan in scans[1:]:
                for a, b in zip(vars(scan).values(), vars(scans[0]).values()):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
            scan = scans[0]
            assert len(scan.period) == len(words) - len(exclude)
            order = np.lexsort([*scan.words.T[::-1], scan.period])
            assert np.array_equal(order, np.arange(len(order)))

    def test_exclude_and_n_max_checks(self):
        unit, empty = dict.fromkeys(FULL2.edges, 1.0), dict.fromkeys(FULL2.edges, ())
        scan = scan_cycles(FULL2, unit, empty, 3, exclude=[(2,), (1, 1, 2)])
        assert sorted(scan.period.tolist()) == [1, 2, 3]
        with pytest.raises(InvalidArgument):
            scan_cycles(FULL2, unit, empty, 0)

    @pytest.mark.parametrize("roof,classes", [({(1, 1): 1.0}, {(1, 1): (0,)}),
                                              (dict.fromkeys(FULL2.edges, 1.0), {(1, 1): (0,)})])
    def test_uncovered_edges_raise_missing_weight(self, full2, roof, classes):
        want = "edges without weights: [(1, 2), (2, 1), (2, 2)]"
        with pytest.raises(MissingEdgeWeight, match=f"^{re.escape(want)}$"):
            scan_cycles(full2.graph, roof, classes, 3)

    def test_scan_is_memoised_and_read_only(self, bench3):
        g, w = bench3.graph, bench3.weights
        scan = scan_cycles(g, w.roof, w.classes, 6)
        assert scan_cycles(g, dict(w.roof), dict(w.classes), 6) is scan
        for a in vars(scan).values():
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0
        assert scan_cycles(g, w.roof, w.classes, 6, max_len=5.0) is not scan

    def test_closed_walk_identity(self):
        # sum over m | n of m * (#prime cycles of period m) = trace(A^n)
        for g in (FULL2, GOLDEN, CYCLE3):
            counts = {}
            for c in enumerate_prime_cycles(g, 10):
                counts[c.period] = counts.get(c.period, 0) + 1
            a = g.adjacency()
            power = np.eye(g.vertex_count, dtype=np.int64)
            for n in range(1, 11):
                power = power @ a
                lhs = sum(
                    m * counts.get(m, 0) for m in range(1, n + 1) if n % m == 0
                )
                assert lhs == int(np.trace(power))

    def test_full2_trace_is_power_of_two(self):
        counts = {}
        for c in enumerate_prime_cycles(FULL2, 12):
            counts[c.period] = counts.get(c.period, 0) + 1
        for n in range(1, 13):
            total = sum(m * counts.get(m, 0) for m in range(1, n + 1) if n % m == 0)
            assert total == 2**n


def test_many_vertices_few_edges_bounded_problems():
    # one line per degree, whatever the vertex count
    problems = validate_graph(DirectedGraph(200_000, ((1, 2),)))
    assert problems == [
        "199999 of 200000 vertices have out-degree 0, the first is vertex 2",
        "199999 of 200000 vertices have in-degree 0, the first is vertex 1",
    ]


def test_too_few_edges_names_first_sink():
    problems = validate_graph(DirectedGraph(5, ((1, 2), (2, 1), (2, 1), (4, 9))))
    assert problems == [
        "duplicate edge (2,1)",
        "edge (4,9) references a vertex outside 1..5",
        "3 of 5 vertices have out-degree 0, the first is vertex 3",
        "3 of 5 vertices have in-degree 0, the first is vertex 3",
    ]
