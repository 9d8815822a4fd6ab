"""Transfer matrices, Perron data, pressure, and equilibrium measures."""

import math

import numpy as np
import pytest

from orbitflow import (
    DimensionMismatch,
    DirectedGraph,
    MissingEdgeValue,
    MissingEdgeWeight,
    NonConvergence,
    NotPrimitive,
    WeightSystem,
    equilibrium_measure,
    flow_pressure,
    integrate_observable,
    perron,
    pressure_gradient,
    pressure_hessian,
    shift_pressure,
    solve_u,
    thermo,
    transfer_matrix,
)

from conftest import random_strong_graph, random_weights

GOLDEN = (1 + math.sqrt(5)) / 2
FULL2 = DirectedGraph(2, ((1, 1), (1, 2), (2, 1), (2, 2)))
GM_GRAPH = DirectedGraph(2, ((1, 1), (1, 2), (2, 1)))


def into2(roof=1.0):
    return WeightSystem(
        b=0,
        meridians=1,
        roof={e: roof for e in FULL2.edges},
        classes={(1, 1): (0,), (1, 2): (1,), (2, 1): (0,), (2, 2): (1,)},
    )


def gm_weights():
    return WeightSystem(
        b=1,
        meridians=0,
        roof={e: 1.0 for e in GM_GRAPH.edges},
        classes={(1, 1): (0,), (1, 2): (1,), (2, 1): (0,)},
    )


class TestTransferMatrix:
    def test_all_ones(self):
        m = transfer_matrix(FULL2, into2(), [0.0], 0.0)
        assert np.allclose(m, np.ones((2, 2)))

    def test_entry_formula(self):
        m = transfer_matrix(FULL2, into2(), [1.0], 0.0)
        assert np.allclose(m, [[1.0, math.e], [1.0, math.e]])

    def test_roof_scaling(self):
        m = transfer_matrix(FULL2, into2(), [0.0], math.log(2))
        assert np.allclose(m, 0.5 * np.ones((2, 2)))

    def test_missing_edges_are_zero(self):
        m = transfer_matrix(GM_GRAPH, gm_weights(), [0.0], 0.0)
        assert m[1, 1] == 0.0 and m[0, 0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            transfer_matrix(FULL2, into2(), [0.0, 1.0], 0.0)


class TestMissingEdgeWeight:
    """Weights that skip an edge of the graph are refused by name, not
    with a KeyError."""

    @staticmethod
    def partial():
        w = into2()
        return WeightSystem(
            b=0, meridians=1,
            roof={e: r for e, r in w.roof.items() if e != (2, 2)},
            classes={e: c for e, c in w.classes.items() if e != (2, 2)},
        )

    def test_flow_pressure(self):
        with pytest.raises(MissingEdgeWeight):
            flow_pressure(FULL2, self.partial(), [0.0])

    def test_transfer_matrix(self):
        with pytest.raises(MissingEdgeWeight):
            transfer_matrix(FULL2, self.partial(), [0.0], 1.0)

    def test_solve_u(self):
        with pytest.raises(MissingEdgeWeight):
            solve_u(FULL2, self.partial(), [0.5])


class TestPerron:
    def test_all_ones_2x2(self):
        assert perron(np.ones((2, 2))).eigenvalue == pytest.approx(2.0, abs=1e-12)

    def test_golden_mean_matrix(self):
        pd = perron([[1.0, 1.0], [1.0, 0.0]])
        assert pd.eigenvalue == pytest.approx(GOLDEN, abs=1e-10)

    def test_periodic_pattern_rejected(self):
        with pytest.raises(NotPrimitive):
            perron([[0.0, 1.0], [1.0, 0.0]])

    def test_not_strongly_connected_rejected(self):
        with pytest.raises(NotPrimitive):
            perron([[1.0, 1.0], [0.0, 1.0]])

    def test_repeated_dominant_eigenvalue(self):
        # the two eigenvalues 1 +- 1e-200 are equal in double precision and
        # the eigensolver returns (1, 0); power iteration recovers (1, 1)
        pd = perron([[1.0, 1e-200], [1e-200, 1.0]])
        assert pd.eigenvalue == 1.0
        assert pd.right.tolist() == [1.0, 1.0]
        assert pd.left.tolist() == [0.5, 0.5]

    def test_non_finite_entries_do_not_converge(self):
        with pytest.raises(NonConvergence):
            perron([[1.0, math.inf], [1.0, 1.0]])

    def test_failed_eigensolve_does_not_converge(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", fail)
        with pytest.raises(NonConvergence):
            perron(np.ones((2, 2)))

    def test_normalization_and_residuals(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            m = rng.uniform(0.1, 2.0, size=(k, k))
            pd = perron(m)
            assert pd.right.max() == pytest.approx(1.0, abs=1e-14)
            assert float(pd.left @ pd.right) == pytest.approx(1.0, abs=1e-12)
            resid = np.abs(m @ pd.right - pd.eigenvalue * pd.right).max()
            assert resid <= 1e-10 * pd.eigenvalue * np.abs(pd.right).max()
            resid_l = np.abs(pd.left @ m - pd.eigenvalue * pd.left).max()
            assert resid_l <= 1e-10 * pd.eigenvalue * np.abs(pd.left).max()

    def test_against_numpy_eig(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            m = rng.uniform(0.05, 3.0, size=(k, k))
            lam = perron(m).eigenvalue
            assert lam == pytest.approx(
                max(abs(np.linalg.eigvals(m))), rel=1e-10
            )


def _dense_left(m):
    """The left Perron vector from a dense eigensolve of M^T."""
    vals, vecs = np.linalg.eig(m.T)
    return np.abs(vecs[:, np.argmax(vals.real)])


def _chain_cases():
    """Positive matrices with k = 2..6 and transfer matrices of random
    models at random (u, s): (M, edge arrays or None, x)."""
    rng = np.random.default_rng(79)
    cases = [(rng.uniform(0.05, 3.0, size=(k, k)), None, None) for k in range(2, 7) for _ in range(4)]
    for _ in range(20):
        d = int(rng.integers(1, 4))
        g = random_strong_graph(rng, int(rng.integers(2, 7)), ensure_aperiodic=True)
        w = random_weights(rng, g, d)
        u, s = rng.uniform(-1.5, 1.5, size=d), float(rng.uniform(-1.0, 2.0))
        cases.append((transfer_matrix(g, w, u, s), thermo.edge_arrays(g, w), np.append(u, s)))
    return cases


class TestPerronChain:
    """One eigensolve of M and one inverse Z = (I - P + 1 1^T)^-1 give the
    stationary vector pi^T = 1^T Z and the covariance."""

    def test_stationary_vector_matches_the_dense_left_vector(self):
        for m, _, _ in _chain_cases():
            pd = perron(m)
            left = _dense_left(m)
            want = left * pd.right / float(left @ pd.right)
            assert np.abs(pd.stationary - want).max() <= 1e-12 * want.max()

    def test_covariance_matches_the_bordered_solve(self):
        # Sigma = E[f f^T] + cross + cross^T with Z h solved against
        # I - P + 1 pi^T, as the covariance was computed before
        for _, arrays, x in _chain_cases():
            if arrays is None:
                continue
            jet = thermo.pair_jet(thermo.edge_stack(*arrays), x)
            pi, p, f = jet.stationary, jet.transition, jet.centred
            mu = pi[:, None] * p
            zh = np.linalg.solve(np.eye(len(pi)) - p + pi[None, :], np.einsum("ab,abd->ad", p, f))
            cross = np.einsum("ab,abi,bj->ij", mu, f, zh)
            want = np.einsum("ab,abi,abj->ij", mu, f, f) + cross + cross.T
            cov = jet.covariance
            assert np.abs(cov - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            assert np.array_equal(cov, cov.T)
            assert not (jet.fundamental.flags.writeable or jet.mean.flags.writeable)

    def test_flow_pressure_matches_a_dense_eigen_bisection(self):
        def log_lambda(g, w, u, s):
            return math.log(max(np.linalg.eigvals(transfer_matrix(g, w, u, s)).real))

        rng = np.random.default_rng(83)
        for _ in range(12):
            d = int(rng.integers(1, 3))
            g = random_strong_graph(rng, int(rng.integers(2, 6)), ensure_aperiodic=True)
            w = random_weights(rng, g, d)
            u = rng.uniform(-1.5, 1.5, size=d)
            lo, hi = -50.0, 50.0
            assert log_lambda(g, w, u, lo) > 0.0 > log_lambda(g, w, u, hi)
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if log_lambda(g, w, u, mid) > 0.0 else (lo, mid)
            assert flow_pressure(g, w, u) == pytest.approx(0.5 * (lo + hi), abs=1e-10)


class TestShiftPressure:
    def test_full_shift(self):
        assert shift_pressure(FULL2, into2(), [0.0], 0.0) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_golden_mean(self):
        assert shift_pressure(GM_GRAPH, gm_weights(), [0.0], 0.0) == pytest.approx(
            math.log(GOLDEN), abs=1e-10
        )

    def test_rank_one_closed_form(self):
        for t in (-2.0, -0.5, 0.0, 0.7, 2.0):
            assert shift_pressure(FULL2, into2(), [t], 0.0) == pytest.approx(
                math.log(1 + math.exp(t)), abs=1e-10
            )


class TestFlowPressure:
    def test_full2_closed_form(self):
        for u in (-3.0, -1.0, 0.0, 1.0, 3.0):
            assert flow_pressure(FULL2, into2(), [u]) == pytest.approx(
                math.log(1 + math.exp(u)), abs=1e-10
            )

    def test_golden_mean(self):
        assert flow_pressure(GM_GRAPH, gm_weights(), [0.0]) == pytest.approx(
            math.log(GOLDEN), abs=1e-10
        )

    def test_roof_one_reduces_to_shift_entropy(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            g = random_strong_graph(rng, int(rng.integers(2, 5)), ensure_aperiodic=True)
            w = random_weights(rng, g, 1, unit_roof=True)
            lam = perron(g.adjacency().astype(float)).eigenvalue
            assert flow_pressure(g, w, [0.0]) == pytest.approx(
                math.log(lam), abs=1e-9
            )

    def test_root_property(self):
        rng = np.random.default_rng(43)
        g = random_strong_graph(rng, 4, ensure_aperiodic=True)
        w = random_weights(rng, g, 2)
        u = [0.3, -0.4]
        s = flow_pressure(g, w, u)
        assert shift_pressure(g, w, u, s) == pytest.approx(0.0, abs=1e-11)

    def test_periodic_graph_rejected(self):
        cycle2 = DirectedGraph(2, ((1, 2), (2, 1)))
        w = WeightSystem(b=1, meridians=0, roof={e: 1.0 for e in cycle2.edges},
                         classes={(1, 2): (1,), (2, 1): (0,)})
        with pytest.raises(NotPrimitive):
            flow_pressure(cycle2, w, [0.0])

    def test_underflowed_entries_do_not_converge(self):
        with pytest.raises(NonConvergence):
            flow_pressure(FULL2, into2(), [800.0])


class TestGradient:
    def test_symmetry_at_zero(self):
        assert pressure_gradient(FULL2, into2(), [0.0])[0] == pytest.approx(
            0.5, abs=1e-12
        )

    def test_logistic_closed_form(self):
        got = pressure_gradient(FULL2, into2(), [math.log(1 / 3)])[0]
        assert got == pytest.approx(0.25, abs=1e-11)

    def test_zero_classes(self):
        w = WeightSystem(
            b=1, meridians=0,
            roof={e: 1.0 for e in FULL2.edges},
            classes={e: (0,) for e in FULL2.edges},
        )
        for u in (-1.0, 0.0, 2.0):
            assert pressure_gradient(FULL2, w, [u])[0] == 0.0

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(47)
        g = random_strong_graph(rng, 3, ensure_aperiodic=True)
        w = random_weights(rng, g, 2)
        for _ in range(5):
            u = rng.uniform(-2, 2, size=2)
            grad = pressure_gradient(g, w, u)
            for i in range(2):
                h = 1e-4
                e = np.zeros(2)
                e[i] = h
                fd = (flow_pressure(g, w, u + e) - flow_pressure(g, w, u - e)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=2e-7, abs=2e-8)


class TestHessian:
    def test_full2_at_zero(self):
        h = pressure_hessian(FULL2, into2(), [0.0])
        assert h[0, 0] == pytest.approx(0.25, abs=1e-6)

    def test_zero_classes_zero_matrix(self):
        w = WeightSystem(
            b=1, meridians=0,
            roof={e: 1.0 for e in FULL2.edges},
            classes={e: (0,) for e in FULL2.edges},
        )
        assert np.abs(pressure_hessian(FULL2, w, [0.0])).max() <= 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(53)
        g = random_strong_graph(rng, 3, ensure_aperiodic=True)
        w = random_weights(rng, g, 2)
        h = pressure_hessian(g, w, [0.2, -0.1])
        assert np.abs(h - h.T).max() == 0.0

    @staticmethod
    def central_differences(g, w, u, h=1e-5):
        u = np.asarray(u, dtype=float)
        d = u.size
        cols = np.empty((d, d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h * max(1.0, abs(u[i]))
            cols[:, i] = (pressure_gradient(g, w, u + e)
                          - pressure_gradient(g, w, u - e)) / (2 * e[i])
        return cols

    def test_closed_form_matches_gradient_differences(self, bench3):
        cases = [(bench3.graph, bench3.weights, u)
                 for u in ([0.0, 0.0], [1.5, -2.0], [-0.25, 0.0], [0.4, 0.7])]
        rng = np.random.default_rng(73)
        for _ in range(8):
            d = int(rng.integers(1, 4))
            g = random_strong_graph(rng, int(rng.integers(2, 6)), ensure_aperiodic=True)
            cases.append((g, random_weights(rng, g, d), rng.uniform(-1, 1, size=d)))
        for g, w, u in cases:
            fd = self.central_differences(g, w, u)
            h = pressure_hessian(g, w, u)
            assert np.abs(h - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-12)

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(59)
        g = random_strong_graph(rng, 3, ensure_aperiodic=True)
        w = random_weights(rng, g, 2)
        for _ in range(10):
            u1 = rng.uniform(-2, 2, size=2)
            u2 = rng.uniform(-2, 2, size=2)
            t = float(rng.uniform(0.1, 0.9))
            lhs = flow_pressure(g, w, t * u1 + (1 - t) * u2)
            rhs = t * flow_pressure(g, w, u1) + (1 - t) * flow_pressure(g, w, u2)
            assert lhs <= rhs + 1e-10


class TestEquilibrium:
    def test_full2_uniform(self):
        mm = equilibrium_measure(FULL2, into2(), [0.0])
        assert np.allclose(mm.stationary, [0.5, 0.5], atol=1e-12)
        assert np.allclose(mm.transition, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_golden_mean_values(self):
        mm = equilibrium_measure(GM_GRAPH, gm_weights(), [0.0])
        assert mm.transition[0, 0] == pytest.approx(1 / GOLDEN, abs=1e-10)
        assert mm.transition[0, 1] == pytest.approx(1 / GOLDEN**2, abs=1e-10)
        assert mm.transition[1, 0] == pytest.approx(1.0, abs=1e-10)
        assert mm.stationary[0] == pytest.approx(0.723606797749979, abs=1e-10)

    def test_concentrates_for_large_u(self):
        pi_small = equilibrium_measure(FULL2, into2(), [0.0]).stationary[1]
        pi_large = equilibrium_measure(FULL2, into2(), [4.0]).stationary[1]
        assert pi_large > 0.9 > pi_small

    def test_stationarity_and_total_mass(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            g = random_strong_graph(rng, int(rng.integers(2, 5)), ensure_aperiodic=True)
            w = random_weights(rng, g, 1)
            mm = equilibrium_measure(g, w, [rng.uniform(-1, 1)])
            assert np.abs(mm.stationary @ mm.transition - mm.stationary).max() <= 1e-12
            assert sum(mm.edge_measure.values()) == pytest.approx(1.0, abs=1e-10)
            assert all(v > 0 for v in mm.edge_measure.values())

    def test_variational_equality(self):
        # for the eigen-Markov chain m at (u, s*):
        # entropy rate + integral of the potential = log eigenvalue = 0
        rng = np.random.default_rng(67)
        g = random_strong_graph(rng, 4, ensure_aperiodic=True)
        w = random_weights(rng, g, 2)
        u = np.array([0.4, -0.2])
        s = flow_pressure(g, w, u)
        mm = equilibrium_measure(g, w, u)
        entropy_rate = 0.0
        integral = 0.0
        for (i, j), mass in mm.edge_measure.items():
            p = mm.transition[i - 1, j - 1]
            entropy_rate -= mass * math.log(p)
            integral += mass * (
                float(np.dot(u, w.classes[(i, j)])) - s * w.roof[(i, j)]
            )
        assert entropy_rate + integral == pytest.approx(0.0, abs=1e-9)


class TestRootMemo:
    """``pressure_jet`` keeps its last roots; the public wrappers hand back
    arrays the caller owns, and the memo's arrays are read-only."""

    def test_mutating_returned_arrays_leaves_the_next_call_unchanged(self, bench3):
        g, w, u = bench3.graph, bench3.weights, [0.3, -0.2]
        reads = (
            lambda: pressure_gradient(g, w, u),
            lambda: pressure_hessian(g, w, u),
            lambda: equilibrium_measure(g, w, u).stationary,
            lambda: equilibrium_measure(g, w, u).transition,
        )
        for read in reads:
            first = read()
            before = first.copy()
            first[...] = np.nan
            assert read().tobytes() == before.tobytes()

    def test_memo_arrays_are_read_only(self, bench3):
        jet = thermo.pressure_jet(*thermo.edge_arrays(bench3.graph, bench3.weights), [0.3, -0.2])
        for a in (jet.gradient, jet.hessian, jet.stationary, jet.transition, jet.centred):
            assert not a.flags.writeable

    def test_content_keyed_and_bit_identical_to_a_cold_root(self, root_solves, bench3):
        g, w = bench3.graph, bench3.weights
        r, c = thermo.edge_arrays(g, w)
        cold = thermo.pressure_jet(r, c, [0.3, -0.2])
        assert thermo.pressure_jet(r.copy(), c.copy(), (0.3, -0.2)) is cold
        assert len(root_solves) == 1
        thermo._root.cache_clear()
        again = thermo.pressure_jet(r, c, [0.3, -0.2])
        assert again is not cold and len(root_solves) == 2
        for name in ("gradient", "hessian", "stationary", "transition"):
            assert getattr(again, name).tobytes() == getattr(cold, name).tobytes()
        assert (again.pressure, again.log_lambda) == (cold.pressure, cold.log_lambda)


class TestIntegrateObservable:
    def test_multiple_of_roof(self):
        w = into2()
        mm = equilibrium_measure(FULL2, w, [0.3])
        phi = {e: 2.5 * w.roof[e] for e in FULL2.edges}
        assert integrate_observable(mm, w, phi) == pytest.approx(2.5, abs=1e-12)

    def test_roof_itself(self):
        w = into2(0.7)
        mm = equilibrium_measure(FULL2, w, [-0.2])
        assert integrate_observable(mm, w, dict(w.roof)) == pytest.approx(1.0, abs=1e-12)

    def test_class_coordinate_is_gradient(self):
        w = into2()
        u = [0.6]
        mm = equilibrium_measure(FULL2, w, u)
        phi = {e: float(w.classes[e][0]) for e in FULL2.edges}
        assert integrate_observable(mm, w, phi) == pytest.approx(
            float(pressure_gradient(FULL2, w, u)[0]), abs=1e-9
        )

    def test_missing_value(self):
        w = into2()
        mm = equilibrium_measure(FULL2, w, [0.0])
        with pytest.raises(MissingEdgeValue):
            integrate_observable(mm, w, {(1, 1): 1.0})
