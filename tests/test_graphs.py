"""Graph validation, aperiodicity, canonical cycles, and enumeration."""

import numpy as np
import pytest

from orbitflow import (
    DirectedGraph,
    InvalidArgument,
    InvalidGraph,
    MissingEdge,
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

from conftest import brute_force_prime_cycles, random_strong_graph

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

    def test_no_two_rotations(self):
        for g in (FULL2, GOLDEN, CYCLE3):
            seen = set()
            for c in enumerate_prime_cycles(g, 7):
                for r in range(c.period):
                    rot = c.vertices[r:] + c.vertices[:r]
                    assert rot not in seen or rot == c.vertices
                    seen.add(rot)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        graphs = [FULL2, GOLDEN, CYCLE3] + [
            random_strong_graph(rng, int(rng.integers(2, 5))) for _ in range(8)
        ]
        for g in graphs:
            got = [c.vertices for c in enumerate_prime_cycles(g, 6)]
            assert got == brute_force_prime_cycles(g, 6)

    def test_words_and_sums_match_birkhoff(self, bench3):
        g, w = bench3.graph, bench3.weights
        phi = {e: 0.1 * i + 0.3 for i, e in enumerate(sorted(g.edges))}
        scan = scan_cycles(g, n_max=17, edge_length=w.roof, max_len=12.0,
                           edge_vector=w.classes, edge_value=phi, words=True)
        assert len(scan.period) > 100
        for word, t, length, cls, value in zip(
            scan.words.tolist(), scan.period.tolist(), scan.length.tolist(),
            scan.classes.tolist(), scan.value.tolist(),
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
        g, w = bench3.graph, bench3.weights

        def rows():
            scan = scan_cycles(g, n_max=14, edge_length=w.roof, max_len=9.0,
                               edge_vector=w.classes, words=True)
            return sorted(zip(map(tuple, scan.words.tolist()), scan.length.tolist(),
                              map(tuple, scan.classes.tolist())))

        whole = rows()
        monkeypatch.setattr(graphs, "_BLOCK", 7)
        assert rows() == whole

    def test_exclude_and_n_max_checks(self):
        scan = scan_cycles(FULL2, n_max=3, exclude=[(2,), (1, 1, 2)])
        assert sorted(scan.period.tolist()) == [1, 2, 3]
        with pytest.raises(InvalidArgument):
            scan_cycles(FULL2, n_max=0)

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
