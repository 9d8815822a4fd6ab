"""Weight systems, chord-generated classes, Birkhoff sums, and integer
lattice diagnostics."""

import itertools
import math
import re

import numpy as np
import pytest

from orbitflow import (
    ChordAssignment,
    DirectedGraph,
    InvalidArgument,
    InvalidTree,
    MissingChordValue,
    MissingEdgeWeight,
    NoMeridians,
    PrimeCycle,
    WeightSystem,
    birkhoff,
    canonical_form,
    enumerate_prime_cycles,
    generation_check,
    lattice_length_heuristic,
    linking_numbers,
    scan_cycles,
    smith_decomposition,
    smith_normal_form,
    weights_from_chords,
)

from conftest import random_strong_graph, random_weights

FULL2 = DirectedGraph(2, ((1, 1), (1, 2), (2, 1), (2, 2)))
CYCLE3 = DirectedGraph(3, ((1, 2), (2, 3), (3, 1)))


def into2_weights(roof=1.0):
    return WeightSystem(
        b=0,
        meridians=1,
        roof={e: roof for e in FULL2.edges},
        classes={(1, 1): (0,), (1, 2): (1,), (2, 1): (0,), (2, 2): (1,)},
    )


class TestWeightSystem:
    def test_rejects_nonpositive_roof(self):
        with pytest.raises(ValueError):
            WeightSystem(b=0, meridians=1, roof={(1, 1): 0.0}, classes={(1, 1): (0,)})

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            WeightSystem(b=0, meridians=0, roof={(1, 1): 1.0}, classes={(1, 1): ()})

    def test_r_min(self):
        w = WeightSystem(
            b=1,
            meridians=0,
            roof={(1, 2): 2.0, (2, 1): 0.25},
            classes={(1, 2): (1,), (2, 1): (0,)},
        )
        assert w.r_min == 0.25


class TestChords:
    def test_full2_chord_classes(self):
        ca = ChordAssignment(
            1, ((1, 2),), {(1, 1): (0,), (2, 2): (1,), (2, 1): (0,)}
        )
        cm = weights_from_chords(FULL2, ca)
        assert cm == {(1, 2): (0,), (2, 1): (0,), (1, 1): (0,), (2, 2): (1,)}

    def test_all_zero_chords(self):
        ca = ChordAssignment(
            1, ((1, 2),), {(1, 1): (0,), (2, 2): (0,), (2, 1): (0,)}
        )
        cm = weights_from_chords(FULL2, ca)
        assert all(v == (0,) for v in cm.values())

    def test_three_cycle_winding(self):
        ca = ChordAssignment(1, ((1, 2), (2, 3)), {(3, 1): (1,)})
        cm = weights_from_chords(CYCLE3, ca)
        assert cm == {(1, 2): (0,), (2, 3): (0,), (3, 1): (1,)}
        w = WeightSystem(b=1, meridians=0, roof={e: 1.0 for e in CYCLE3.edges}, classes=cm)
        c = canonical_form(CYCLE3, (1, 2, 3))
        assert birkhoff(c, w).class_vector == (1,)

    def test_wrong_edge_count(self):
        with pytest.raises(InvalidTree):
            weights_from_chords(FULL2, ChordAssignment(1, (), {}))

    def test_loop_not_tree_edge(self):
        ca = ChordAssignment(1, ((1, 1),), {})
        with pytest.raises(InvalidTree):
            weights_from_chords(FULL2, ca)

    def test_missing_chord_value(self):
        ca = ChordAssignment(1, ((1, 2),), {(1, 1): (0,), (2, 2): (1,)})
        with pytest.raises(MissingChordValue):
            weights_from_chords(FULL2, ca)

    def test_value_on_tree_edge_rejected(self):
        ca = ChordAssignment(
            1, ((1, 2),), {(1, 2): (1,), (1, 1): (0,), (2, 2): (0,), (2, 1): (0,)}
        )
        with pytest.raises(InvalidTree):
            weights_from_chords(FULL2, ca)

    def test_duplicate_undirected_edge_rejected(self):
        g = DirectedGraph(2, ((1, 2), (2, 1)))
        ca = ChordAssignment(1, ((1, 2), (2, 1)), {})
        with pytest.raises(InvalidTree):
            weights_from_chords(g, ca)

    def test_disconnected_tree_rejected(self):
        # three tree edges, as four vertices need, closing a triangle that
        # leaves vertex 4 out
        g = DirectedGraph(4, ((1, 2), (2, 3), (3, 1), (3, 4), (4, 1)))
        ca = ChordAssignment(1, ((1, 2), (2, 3), (3, 1)), {(3, 4): (1,), (4, 1): (0,)})
        with pytest.raises(InvalidTree, match="^tree edges do not connect all vertices$"):
            weights_from_chords(g, ca)

    @pytest.mark.parametrize("tree_edge", [(0, 1), (1, 3)])
    def test_tree_vertex_outside_the_graph_rejected(self, tree_edge):
        g = DirectedGraph(2, FULL2.edges + (tree_edge,))
        ca = ChordAssignment(1, (tree_edge,), dict.fromkeys(FULL2.edges, (1,)))
        want = f"tree edge ({tree_edge[0]},{tree_edge[1]}) references a vertex outside 1..2"
        with pytest.raises(InvalidTree, match=f"^{re.escape(want)}$"):
            weights_from_chords(g, ca)

    def test_chord_crossing_count(self):
        # birkhoff class equals the net chord-crossing count vector
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_strong_graph(rng, int(rng.integers(3, 5)))
            # spanning tree of the undirected graph, greedily
            tree = []
            reached = {1}
            while len(reached) < g.vertex_count:
                for (a, b) in sorted(g.edges):
                    if a == b:
                        continue
                    if (a in reached) != (b in reached):
                        tree.append((a, b))
                        reached |= {a, b}
                        break
            chords = [e for e in g.edges if e not in set(tree)]
            values = {e: (int(rng.integers(-2, 3)),) for e in chords}
            cm = weights_from_chords(g, ChordAssignment(1, tuple(tree), values))
            w = WeightSystem(
                b=1, meridians=0, roof={e: 1.0 for e in g.edges}, classes=cm
            )
            for c in enumerate_prime_cycles(g, 8):
                crossing = sum(
                    values.get(e, (0,))[0] for e in c.edges()
                )
                assert birkhoff(c, w).class_vector == (crossing,)


class TestBirkhoff:
    def test_fixed_point(self):
        w = into2_weights()
        assert birkhoff(PrimeCycle((1,)), w) == birkhoff(PrimeCycle((1,)), w)
        data = birkhoff(PrimeCycle((1,)), w)
        assert data.length == 1.0 and data.class_vector == (0,)

    def test_two_cycle(self):
        data = birkhoff(PrimeCycle((1, 2)), into2_weights())
        assert data.length == 2.0 and data.class_vector == (1,)

    def test_three_cycle(self):
        data = birkhoff(PrimeCycle((1, 1, 2)), into2_weights())
        assert data.length == 3.0 and data.class_vector == (1,)

    def test_missing_weight(self):
        w = WeightSystem(b=1, meridians=0, roof={(1, 1): 1.0}, classes={(1, 1): (0,)})
        with pytest.raises(MissingEdgeWeight):
            birkhoff(PrimeCycle((1, 2)), w)

    def test_rotation_invariance(self):
        w = into2_weights()
        for seq in ((1, 1, 2), (1, 2, 2), (1, 2)):
            base = birkhoff(canonical_form(FULL2, seq), w)
            for r in range(len(seq)):
                rot = seq[r:] + seq[:r]
                assert birkhoff(canonical_form(FULL2, rot), w) == base

    def test_length_bounded_below(self):
        rng = np.random.default_rng(5)
        g = random_strong_graph(rng, 4)
        w = random_weights(rng, g, 2)
        for c in enumerate_prime_cycles(g, 6):
            assert birkhoff(c, w).length >= c.period * w.r_min - 1e-12


class TestLinking:
    def test_zero_class(self):
        w = WeightSystem(
            b=0, meridians=1,
            roof={e: 1.0 for e in FULL2.edges},
            classes={e: (0,) for e in FULL2.edges},
        )
        assert linking_numbers(PrimeCycle((1, 2)), w) == (0,)

    def test_full2_meridian(self):
        assert linking_numbers(PrimeCycle((1, 2)), into2_weights()) == (1,)

    def test_projection(self):
        w = WeightSystem(
            b=1, meridians=1,
            roof={e: 1.0 for e in FULL2.edges},
            classes={(1, 1): (0, 0), (1, 2): (3, -2), (2, 1): (0, 0), (2, 2): (0, 0)},
        )
        assert linking_numbers(PrimeCycle((1, 2)), w) == (-2,)

    def test_no_meridians(self):
        w = WeightSystem(
            b=1, meridians=0,
            roof={e: 1.0 for e in FULL2.edges},
            classes={e: (0,) for e in FULL2.edges},
        )
        with pytest.raises(NoMeridians):
            linking_numbers(PrimeCycle((1,)), w)


def _minor_gcd_divisors(mat):
    """Oracle: elementary divisors from gcds of k x k minors."""
    mat = [list(map(int, row)) for row in mat]
    rows, cols = len(mat), len(mat[0])

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    gcds = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ris in itertools.combinations(range(rows), k):
            for cis in itertools.combinations(range(cols), k):
                sub = [[mat[r][c] for c in cis] for r in ris]
                g = math.gcd(g, abs(det(sub)))
        if g == 0:
            break
        gcds.append(g)
    return [gcds[k] // gcds[k - 1] for k in range(1, len(gcds))]


class TestSmith:
    def test_known_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_single_entry(self):
        assert smith_normal_form([[4]]) == [4]

    def test_rank_deficient(self):
        assert smith_normal_form([[1, 2], [2, 4]]) == [1]

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == []

    def test_against_minor_gcds(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 4))
            mat = rng.integers(-6, 7, size=(rows, cols)).tolist()
            assert smith_normal_form(mat) == _minor_gcd_divisors(mat)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            mat = rng.integers(-9, 10, size=(rows, cols)).tolist()
            u, diag, v = smith_decomposition(mat)
            prod = np.array(u) @ np.array(mat) @ np.array(v)
            want = np.zeros((rows, cols), dtype=np.int64)
            for i, d in enumerate(diag):
                want[i, i] = d
            assert (prod == want).all()
            assert abs(round(np.linalg.det(np.array(u, dtype=float)))) == 1
            assert abs(round(np.linalg.det(np.array(v, dtype=float)))) == 1

    def test_divisibility_chain(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            mat = rng.integers(-8, 9, size=(4, 3)).tolist()
            divisors = smith_normal_form(mat)
            for a, b in zip(divisors, divisors[1:]):
                assert b % a == 0


class TestGeneration:
    def test_full2_generates(self):
        res = generation_check(FULL2, into2_weights(), 3)
        assert res.generates and res.lattice_invariants == (1,)

    def test_doubled_classes(self):
        w = WeightSystem(
            b=0, meridians=1,
            roof={e: 1.0 for e in FULL2.edges},
            classes={(1, 1): (0,), (1, 2): (2,), (2, 1): (0,), (2, 2): (2,)},
        )
        res = generation_check(FULL2, w, 3)
        assert not res.generates and res.lattice_invariants == (2,)

    def test_zero_classes(self):
        w = WeightSystem(
            b=0, meridians=1,
            roof={e: 1.0 for e in FULL2.edges},
            classes={e: (0,) for e in FULL2.edges},
        )
        res = generation_check(FULL2, w, 3)
        assert not res.generates and res.rank == 0

    def test_monotone_in_probe_depth(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            g = random_strong_graph(rng, 3)
            w = random_weights(rng, g, 2, unit_roof=True)
            seen_true = False
            for n in range(1, 8):
                res = generation_check(g, w, n)
                if seen_true:
                    assert res.generates
                seen_true = seen_true or res.generates


class TestLatticeHeuristic:
    def test_unit_roof_flags_one(self):
        assert lattice_length_heuristic(FULL2, into2_weights(), 4, [1.0]) == [1.0]

    def test_half_roof_flags_half(self):
        assert lattice_length_heuristic(FULL2, into2_weights(0.5), 4, [0.5]) == [0.5]

    def test_log_prime_roofs_unflagged(self):
        w = WeightSystem(
            b=1, meridians=0,
            roof={(1, 2): math.log(2), (2, 3): math.log(3), (3, 1): math.log(5)},
            classes={e: (0,) for e in CYCLE3.edges},
        )
        grid = [0.1 * i for i in range(1, 11)]
        assert lattice_length_heuristic(CYCLE3, w, 6, grid) == []

    def test_unit_roof_flags_divisors(self):
        flags = lattice_length_heuristic(FULL2, into2_weights(), 4, [0.25, 0.4, 0.5, 1.0])
        assert flags == [0.25, 0.5, 1.0]

    def test_lengths_lie_in_eps_z_not_a_coset(self):
        # lengths 1 and 3 at n = 3 lie in one coset of 2Z, but not in 2Z;
        # the orbit 1 -> 1 -> 2 -> 3 of length 4 shows up only at n = 4
        g = DirectedGraph(3, ((1, 1), (1, 2), (2, 3), (3, 1)))
        w = WeightSystem(b=1, meridians=0, roof={e: 1.0 for e in g.edges},
                         classes={e: (0,) for e in g.edges})
        for n in (3, 4):
            assert lattice_length_heuristic(g, w, n, (0.5, 1.0, 2.0, 3.0)) == [0.5, 1.0]


class TestCohomologyInvariance:
    def test_coboundary_leaves_lengths_unchanged(self):
        rng = np.random.default_rng(29)
        g = random_strong_graph(rng, 4)
        w = random_weights(rng, g, 1)
        # potential shifted roof: roof'(i -> j) = roof + phi(j) - phi(i)
        phi = {v: float(rng.uniform(-0.1, 0.1)) for v in range(1, 5)}
        shifted = {e: w.roof[e] + phi[e[1]] - phi[e[0]] for e in g.edges}
        w2 = WeightSystem(b=1, meridians=0, roof=shifted, classes=w.classes)
        for c in enumerate_prime_cycles(g, 6):
            assert birkhoff(c, w2).length == pytest.approx(
                birkhoff(c, w).length, abs=1e-12
            )


@pytest.mark.parametrize("roof", [math.inf, -math.inf, math.nan])
def test_non_finite_roof_rejected(roof):
    with pytest.raises(InvalidArgument, match="finite"):
        into2_weights(roof)


def _wide_classes(top):
    """full2 weights whose cycle (1,2,2) sums to (3 top, -3 top)."""
    return WeightSystem(
        b=0, meridians=2,
        roof={e: 1.0 for e in FULL2.edges},
        classes={(1, 1): (0, 0), (1, 2): (top, -top), (2, 1): (top, -top), (2, 2): (top, -top)},
    )


def test_class_sums_just_inside_int64_match_birkhoff():
    w = _wide_classes((2**63 - 1) // 3)
    scan = scan_cycles(FULL2, w.roof, w.classes, 3)
    want = [list(birkhoff(c, w).class_vector) for c in enumerate_prime_cycles(FULL2, 3)]
    assert scan.classes.tolist() == want
    assert max(map(max, want)) == 3 * ((2**63 - 1) // 3)


@pytest.mark.parametrize("top", [(2**63 - 1) // 3 + 1, 2**62, 10**20])
def test_class_sums_past_int64_refused(top):
    w = _wide_classes(top)
    with pytest.raises(InvalidArgument, match="int64"):
        scan_cycles(FULL2, w.roof, w.classes, 3)
    with pytest.raises(InvalidArgument, match="int64"):
        generation_check(FULL2, w, 3)
