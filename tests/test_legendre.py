"""Direction hulls, dual parameters, entropy, and membership."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from orbitflow import (
    DegenerateModel,
    DimensionMismatch,
    DirectedGraph,
    EmptySelection,
    Membership,
    OutsideCone,
    WeightSystem,
    direction_hull,
    entropy_hessian,
    enumerate_prime_cycles,
    flow_pressure,
    generation_check,
    hull_contains,
    legendre,
    membership,
    pressure_gradient,
    pressure_hessian,
    solve_u,
    thermo,
)

from conftest import random_strong_graph, random_weights

FULL2 = DirectedGraph(2, ((1, 1), (1, 2), (2, 1), (2, 2)))
GM_GRAPH = DirectedGraph(2, ((1, 1), (1, 2), (2, 1)))


def into2():
    return WeightSystem(
        b=0,
        meridians=1,
        roof={e: 1.0 for e in FULL2.edges},
        classes={(1, 1): (0,), (1, 2): (1,), (2, 1): (0,), (2, 2): (1,)},
    )


def zero_weights(g):
    return WeightSystem(
        b=1, meridians=0,
        roof={e: 1.0 for e in g.edges},
        classes={e: (0,) for e in g.edges},
    )


def binary_entropy(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


class TestDirectionHull:
    def test_full2_interval(self):
        hull = direction_hull(FULL2, into2(), 2)
        assert set(hull.points) == {(0.0,), (1.0,), (0.5,)}
        assert set(hull.vertices) == {(0.0,), (1.0,)}
        assert hull.dim == 1

    def test_zero_classes_single_point(self):
        hull = direction_hull(FULL2, zero_weights(FULL2), 4)
        assert hull.points == ((0.0,),)
        assert hull.dim == 0

    def test_golden_mean_hull(self):
        w = WeightSystem(
            b=1, meridians=0,
            roof={e: 1.0 for e in GM_GRAPH.edges},
            classes={(1, 1): (0,), (1, 2): (1,), (2, 1): (0,)},
        )
        hull = direction_hull(GM_GRAPH, w, 3)
        assert set(hull.points) == {(0.0,), (0.5,), (1 / 3,)}
        assert set(hull.vertices) == {(0.0,), (0.5,)}

    def test_two_dimensional_hull(self, bench3):
        hull = direction_hull(bench3.graph, bench3.weights, 4)
        assert hull.dim == 2
        for p in hull.points:
            assert hull.contains(p, tol=1e-7)

    def test_segment_end_points_in_point_order(self):
        # a segment whose SVD basis has one sign at n = 2 and the other at 3
        rng = np.random.default_rng(306949992)
        g = random_strong_graph(rng, 2, ensure_aperiodic=True)
        w = random_weights(rng, g, 2)
        hulls = [direction_hull(g, w, n) for n in range(2, 7)]
        assert {h.dim for h in hulls} == {1}
        assert {h.vertices for h in hulls} == {hulls[0].points[:2]}

    def test_containment(self):
        hull = direction_hull(FULL2, into2(), 3)
        assert hull.contains((0.4,))
        assert not hull.contains((1.1,))
        assert hull.contains((1.0,))  # closed hull includes the endpoint


class TestSolveU:
    def test_symmetric_direction(self):
        dd = solve_u(FULL2, into2(), [0.5])
        assert abs(dd.u[0]) <= 1e-9
        assert dd.entropy == pytest.approx(math.log(2), abs=1e-9)

    def test_quarter_direction(self):
        dd = solve_u(FULL2, into2(), [0.25])
        assert dd.u[0] == pytest.approx(math.log(1 / 3), abs=1e-7)
        assert dd.entropy == pytest.approx(binary_entropy(0.25), abs=1e-9)

    def test_outside_raises(self):
        with pytest.raises(OutsideCone):
            solve_u(FULL2, into2(), [1.2])

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateModel):
            solve_u(FULL2, zero_weights(FULL2), [0.0])

    def test_non_finite_newton_step_refused_without_warning(self, bench3):
        # u runs off along a line that does not separate rho, where |F|
        # barely decreases; the normal rho - grad P certifies rho outside,
        # and no floating-point warning escapes on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutsideCone, match="certified outside"):
                solve_u(bench3.graph, bench3.weights,
                        (-0.3775701322221332, 0.7787958640083494))

    def test_roundtrip_grid(self):
        w = into2()
        for rho in np.arange(0.05, 0.96, 0.05):
            dd = solve_u(FULL2, w, [rho])
            back = pressure_gradient(FULL2, w, dd.u)
            assert abs(back[0] - rho) <= 1e-8

    def test_two_dimensional_roundtrip(self, bench3):
        g, w = bench3.graph, bench3.weights
        for u in ([0.0, 0.0], [0.3, -0.2], [-0.5, 0.4]):
            rho = pressure_gradient(g, w, u)
            dd = solve_u(g, w, rho)
            assert np.abs(np.array(dd.u) - np.array(u)).max() <= 1e-6

    def test_roundtrip_where_armijo_sees_only_float_noise(self, bench3):
        # the last Newton steps land on u* and change |F| by float noise
        # alone; the solve must stop there, not stall
        g, w = bench3.graph, bench3.weights
        for rho, u in (
            ((0.14356098992698427, 0.09085056902525078),
             (-0.38384415040922704, 0.32453489211577413)),
            ((1.2721180194170565, 0.0019624854338949355),
             (0.856066350855182, 0.1306884008177518)),
        ):
            dd = solve_u(g, w, rho)
            assert np.abs(np.array(dd.u) - np.array(u)).max() <= 1e-6

    def test_u_recovered_where_the_hessian_is_nearly_singular(self):
        # lambda_min(Hess P(u)) = 3.5e-5 here, so a stop on the gradient
        # residual alone (1e-8) leaves u off by up to residual / lambda_min;
        # the Newton-step test pins it
        rng = np.random.default_rng(1277069130)
        g = random_strong_graph(rng, 3, ensure_aperiodic=True)
        w = random_weights(rng, g, 2)
        u = np.array([-0.9854186, 0.80096871])
        assert np.linalg.eigvalsh(pressure_hessian(g, w, u)).min() < 1e-4
        dd = solve_u(g, w, pressure_gradient(g, w, u))
        assert np.abs(np.array(dd.u) - u).max() <= 1e-8

    def test_stops_once_the_gradient_is_float_noise(self):
        # lambda_min(Hess P(u)) = 2e-7: the residual reaches float noise
        # while noise / lambda_min keeps the Newton step above 1e-10
        rng = np.random.default_rng(2067327111)
        g = random_strong_graph(rng, 3, ensure_aperiodic=True)
        w = random_weights(rng, g, 2)
        u = np.array([0.4221629483849616, 0.8317028109445541])
        assert np.linalg.eigvalsh(pressure_hessian(g, w, u)).min() < 1e-6
        dd = solve_u(g, w, pressure_gradient(g, w, u))
        assert np.abs(np.array(dd.u) - u).max() <= 1e-8

    @pytest.mark.parametrize("seed,calls", [(198, 78), (898, 96)])
    def test_halving_stops_at_a_residual_of_float_noise(self, monkeypatch, seed, calls):
        # u near the boundary: |F| sits at 1.1 and 4 times float noise, the
        # Newton steps grow past 1e4, and no trial shows a fall above the
        # rounding of F; halving on to t = 1e-12 took `calls` pairs in all
        rng = np.random.default_rng(seed)
        k, d = rng.integers(2, 5), rng.integers(1, 3)
        g = random_strong_graph(rng, k, ensure_aperiodic=True)
        w = random_weights(rng, g, d)
        rho = pressure_gradient(g, w, rng.uniform(-4, 4, d))
        pairs = []
        pair_jet = legendre.pair_jet
        monkeypatch.setattr(legendre, "pair_jet", lambda *a: pairs.append(1) or pair_jet(*a))
        with pytest.raises(OutsideCone, match="line search stalled"):
            solve_u(g, w, rho)
        assert len(pairs) <= calls - 30

    def test_stall_at_float_noise_names_the_boundary(self):
        # seed 198's model of the test above: the halving stalls at |F| = 2e-15,
        # within the 16 units (6.2e-15) of the noise stop, so rho is on the boundary
        rng = np.random.default_rng(198)
        k, d = rng.integers(2, 5), rng.integers(1, 3)
        g = random_strong_graph(rng, k, ensure_aperiodic=True)
        w = random_weights(rng, g, d)
        rho = pressure_gradient(g, w, rng.uniform(-4, 4, d))
        with pytest.raises(OutsideCone, match=r"^line search stalled with \|F\| = 2e-15; that is "
                           "float noise, so rho is numerically on the boundary of the attainable set$"):
            solve_u(g, w, rho)

    def test_halving_stops_once_the_predicted_fall_is_rounding(self, monkeypatch, bench3):
        # rho 1e-9 off grad P(0) and a stand-in pair_jet that hands back the
        # start jet, so that no trial falls: the halving runs while t |F| is
        # at least a rounding unit of F, about 22 trials, not down to 1e-12
        g, w = bench3.graph, bench3.weights
        start = thermo.pressure_jet(*thermo.edge_arrays(g, w), [0.0, 0.0])
        pairs = []
        monkeypatch.setattr(legendre, "pair_jet", lambda *a: pairs.append(1) or start)
        with pytest.raises(OutsideCone, match="line search stalled"):
            solve_u(g, w, start.gradient + 1e-9)
        assert 15 <= len(pairs) <= 30

    def test_perron_pair_budget(self, monkeypatch, bench3):
        # a trial point of the joint (u, s) Newton costs one Perron pair:
        # 5.0 pairs a solve over these directions, 12.8 with a line search
        # in u alone over pairs at predicted pressures, 29.6 when every
        # trial point ran a bracketed root solve
        g, w = bench3.graph, bench3.weights
        rhos = [pressure_gradient(g, w, u) for u in ([0.0, 0.0], [0.3, -0.2], [-0.5, 0.4])]
        rhos += [(0.14356098992698427, 0.09085056902525078),
                 (1.2721180194170565, 0.0019624854338949355)]
        pairs = []
        perron_data = thermo._perron_data
        monkeypatch.setattr(thermo, "_perron_data", lambda m: pairs.append(1) or perron_data(m))
        for rho in rhos:
            solve_u(g, w, rho)
        assert len(pairs) / len(rhos) < 6.5

    def test_one_eigensolve_per_perron_pair(self, monkeypatch, bench3):
        # the stationary vector and the fundamental matrix come from one
        # inverse after the eigensolve of M: no eigensolve of M^T, none
        # for the covariance, in the root solves at 0 and in the Newton
        g, w = bench3.graph, bench3.weights
        rho = pressure_gradient(g, w, [0.3, -0.2])
        pairs, eigs = [], []
        perron_data, eig = thermo._perron_data, np.linalg.eig
        monkeypatch.setattr(thermo, "_perron_data", lambda m: pairs.append(1) or perron_data(m))
        monkeypatch.setattr(np.linalg, "eig", lambda m: eigs.append(1) or eig(m))
        thermo._root.cache_clear()
        solve_u(g, w, rho)
        assert len(pairs) >= 5 and len(eigs) == len(pairs)

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4),
           d=st.integers(1, 2), data=st.data())
    def test_roundtrip_on_random_models(self, seed, k, d, data):
        rng = np.random.default_rng(seed)
        g = random_strong_graph(rng, k, ensure_aperiodic=True)
        w = random_weights(rng, g, d)
        assume(np.linalg.eigvalsh(pressure_hessian(g, w, np.zeros(d))).min() > 1e-2)
        u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        h = pressure_hessian(g, w, u)
        assert np.abs(h - h.T).max() == 0.0
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= -1e-12
        # the solve stops at a gradient residual of 1e-8, which pins u to
        # 1e-6 only where the Hessian at u is that well conditioned
        assume(eigs.min() > 1e-2)
        dd = solve_u(g, w, pressure_gradient(g, w, u))
        assert np.abs(np.array(dd.u) - u).max() <= 1e-6

    def test_duality_inequality(self):
        w = into2()
        rng = np.random.default_rng(71)
        rhos = rng.uniform(0.1, 0.9, size=6)
        us = rng.uniform(-2, 2, size=6)
        for rho in rhos:
            dd = solve_u(FULL2, w, [rho])
            for u in us:
                p = flow_pressure(FULL2, w, [u])
                assert p >= dd.entropy + u * rho - 1e-9
            # equality at the dual parameter
            p_star = flow_pressure(FULL2, w, dd.u)
            assert abs(p_star - (dd.entropy + dd.u[0] * rho)) <= 1e-8

    def test_entropy_bounds_and_extremum(self):
        w = into2()
        top = flow_pressure(FULL2, w, [0.0])
        rho_star = float(pressure_gradient(FULL2, w, [0.0])[0])
        for rho in np.arange(0.05, 0.96, 0.05):
            h = solve_u(FULL2, w, [rho]).entropy
            assert -1e-12 <= h <= top + 1e-12
        assert solve_u(FULL2, w, [rho_star]).entropy == pytest.approx(top, abs=1e-10)


class TestOutsideCertificate:
    """``legendre._certified_outside``: the max-plus closed-walk test that
    ``solve_u`` runs after a damped step."""

    @staticmethod
    def brute_force(g, w, v, rho):
        # every prime cycle of period <= k, not only the simple ones: a
        # closed walk is negative when each simple cycle in it is
        beta = float(v @ rho) - 1e-9 * float(np.linalg.norm(v))
        sums = [float(sum(float(v @ np.asarray(w.classes[e], dtype=float)) - beta * w.roof[e]
                          for e in cycle.edges()))
                for cycle in enumerate_prime_cycles(g, g.vertex_count)]
        return max(sums)

    @settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), d=st.integers(1, 2),
           data=st.data())
    def test_max_plus_test_matches_the_cycles(self, seed, k, d, data):
        rng = np.random.default_rng(seed)
        g = random_strong_graph(rng, k, ensure_aperiodic=True)
        w = random_weights(rng, g, d)
        r, c = thermo.edge_arrays(g, w)
        v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        rho = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d)))
        assume(np.linalg.norm(v) > 1e-3)
        top = self.brute_force(g, w, v, rho)
        assume(abs(top) > 1e-9)  # the two sum a cycle in different orders
        assert legendre._certified_outside(r, c, v, rho) == (top < 0.0)

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), d=st.integers(1, 2),
           data=st.data())
    def test_never_fires_at_a_gradient(self, seed, k, d, data):
        rng = np.random.default_rng(seed)
        g = random_strong_graph(rng, k, ensure_aperiodic=True)
        w = random_weights(rng, g, d)
        assume(np.linalg.eigvalsh(pressure_hessian(g, w, np.zeros(d))).min() > 1e-2)
        r, c = thermo.edge_arrays(g, w)
        u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        rho = pressure_gradient(g, w, u)
        for direction in (u, v, -v):
            if np.linalg.norm(direction) > 1e-3:
                assert not legendre._certified_outside(r, c, direction, rho)

    def test_bench3_outside_directions_are_certified(self, bench3):
        # rho drawn in a box around the direction set, kept when it lies more
        # than 0.02 outside the exact hull (cycle ratios of period <= 3)
        g, w = bench3.graph, bench3.weights
        hull = direction_hull(g, w, g.vertex_count)
        rng = np.random.default_rng(20261020)
        rhos = [rho for rho in rng.uniform((-0.5, -0.5), (2.0, 1.0), size=(200, 2))
                if not hull.contains(rho, tol=0.02)][:64]
        assert len(rhos) == 64
        messages = []
        for rho in rhos:
            with pytest.raises(OutsideCone) as info:
                solve_u(g, w, rho)
            messages.append(str(info.value))
        certified = sum(m.startswith("certified outside") for m in messages)
        assert certified >= 0.9 * len(rhos)


class TestRootMemo:
    """``solve_u`` over the thermo root memo and the lazy Hessian."""

    @staticmethod
    def fields(dd):
        return dd.rho, dd.u, dd.entropy, dd.pressure_at_u, dd.hessian_h.tobytes()

    def test_warm_solve_takes_no_root_at_zero(self, root_solves, bench3):
        g, w = bench3.graph, bench3.weights
        rho, other = (pressure_gradient(g, w, u) for u in ([0.3, -0.2], [-0.5, 0.4]))
        thermo._root.cache_clear()
        cold = solve_u(g, w, rho)
        assert ((3, 3, 2), (0.0, 0.0)) in root_solves
        solve_u(g, w, other)
        root_solves.clear()
        warm = solve_u(g, w, rho)
        assert ((3, 3, 2), (0.0, 0.0)) not in root_solves
        assert self.fields(warm) == self.fields(cold)

    @pytest.mark.parametrize("u_seed, outside", [((-1.5, 1.5), None), (None, (0.0, 0.9))])
    def test_rejected_trial_pair_computes_no_hessian(self, monkeypatch, bench3, u_seed, outside):
        # a trial pair the step halving rejects is followed at once by
        # another pair; an accepted one has its covariance read first (or
        # certifies rho outside).  The Hessian is read from the covariance.
        # Both directions take damped steps: 4 and 8 rejected pairs
        g, w = bench3.graph, bench3.weights
        rho = outside or pressure_gradient(g, w, u_seed)
        events = []
        pair_jet, covariance = legendre.pair_jet, thermo.PressureJet.__dict__["covariance"]
        read = covariance.func

        def paired(*args):
            events.append(("pair", pair_jet(*args)))
            return events[-1][1]

        def covariance_read(jet):
            events.append(("cov", jet))
            return read(jet)

        monkeypatch.setattr(legendre, "pair_jet", paired)
        monkeypatch.setattr(covariance, "func", covariance_read)
        if outside:
            with pytest.raises(OutsideCone, match="certified outside"):
                solve_u(g, w, rho)
        else:
            solve_u(g, w, rho)
        replaced = [jet for (kind, jet), (next_kind, _) in zip(events, events[1:])
                    if kind == next_kind == "pair"]
        assert len(replaced) >= 3
        assert not any({"covariance", "hessian"} & set(vars(jet)) for jet in replaced)


class TestEntropyHessian:
    def test_symmetric_point(self):
        dd = solve_u(FULL2, into2(), [0.5])
        assert entropy_hessian(dd)[0, 0] == pytest.approx(-4.0, abs=1e-5)

    def test_quarter_point(self):
        dd = solve_u(FULL2, into2(), [0.25])
        assert entropy_hessian(dd)[0, 0] == pytest.approx(-16 / 3, abs=1e-4)

    def test_negative_definite(self, bench3):
        dd = solve_u(bench3.graph, bench3.weights,
                     pressure_gradient(bench3.graph, bench3.weights, [0.1, -0.1]))
        eigs = np.linalg.eigvalsh(entropy_hessian(dd))
        assert eigs.max() < 0.0

    def test_inverse_relation(self):
        w = into2()
        for rho in (0.3, 0.5, 0.7):
            dd = solve_u(FULL2, w, [rho])
            hp = pressure_hessian(FULL2, w, dd.u)
            prod = entropy_hessian(dd) @ hp
            assert np.abs(prod + np.eye(1)).max() <= 1e-6


class TestMembership:
    def test_interior(self):
        assert membership(FULL2, into2(), [0.5]) is Membership.INSIDE

    def test_far_outside(self):
        assert membership(FULL2, into2(), [2.0]) is Membership.OUTSIDE

    def test_hull_endpoint(self):
        assert membership(FULL2, into2(), [1.0]) is Membership.INDETERMINATE

    def test_degenerate_model(self):
        w = zero_weights(FULL2)
        assert membership(FULL2, w, [0.0]) is Membership.INDETERMINATE
        assert membership(FULL2, w, [1.0]) is Membership.OUTSIDE

    def test_one_qhull_per_call(self, monkeypatch, bench3):
        calls = []
        qhull = legendre._qhull
        monkeypatch.setattr(legendre, "_qhull", lambda coords: calls.append(1) or qhull(coords))
        rhos = [(2.0, 1.0), (-0.5, -0.5), (0.3, 0.05),
                pressure_gradient(bench3.graph, bench3.weights, [0.1, -0.1])]
        for i, rho in enumerate(rhos, 1):
            membership(bench3.graph, bench3.weights, rho)
            assert len(calls) == i

    def test_low_dimensional_membership_loads_no_scipy(self):
        code = (
            "import sys\n"
            "import orbitflow as of\n"
            "m = of.builtin_model('full2')\n"
            "assert of.membership(m.graph, m.weights, [2.0]) is of.Membership.OUTSIDE\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def classify(points, rho, tol=1e-9):
    """Membership of rho against the hull of points in dimension 1 or 2,
    written out case by case: an interval, a polygon from Qhull's facet
    planes, a segment or a point."""
    pts, rho = np.asarray(points), np.asarray(rho, dtype=float)
    if pts.shape[1] == 1:
        lo, hi = pts.min(), pts.max()
        if not lo - tol <= rho[0] <= hi + tol:
            return Membership.OUTSIDE
        return Membership.INSIDE if lo + tol < rho[0] < hi - tol else Membership.INDETERMINATE
    if np.linalg.matrix_rank(pts - pts.mean(axis=0), tol=1e-9) == 2:
        eq = ConvexHull(pts).equations
        over = float((eq[:, :2] @ rho + eq[:, 2]).max())
        if over > tol:
            return Membership.OUTSIDE
        return Membership.INSIDE if over < -tol else Membership.INDETERMINATE
    a = pts[0]
    b = pts[int(np.argmax(np.linalg.norm(pts - a, axis=1)))]
    if np.linalg.norm(b - a) == 0.0:  # a single point
        inside = np.abs(rho - a).max() <= tol
    else:  # a segment
        e = (b - a) / np.linalg.norm(b - a)
        along = (pts - a) @ e
        t = float((rho - a) @ e)
        inside = (abs(float((rho - a) @ (-e[1], e[0]))) <= tol
                  and along.min() - tol <= t <= along.max() + tol)
    return Membership.INDETERMINATE if inside else Membership.OUTSIDE


class TestExactAtVertexCount:
    """A closed walk splits into simple cycles, of period at most the
    vertex count k: the ratios and classes of period <= k already give the
    whole direction set and class group."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), d=st.integers(1, 2))
    def test_depth_k_is_exact(self, seed, k, d):
        rng = np.random.default_rng(seed)
        g = random_strong_graph(rng, k, ensure_aperiodic=True)
        w = random_weights(rng, g, d)
        hull, deeper = direction_hull(g, w, k), direction_hull(g, w, k + 3)
        assert (hull.vertices, hull.dim) == (deeper.vertices, deeper.dim)
        assert generation_check(g, w, k) == generation_check(g, w, k + 4)
        pts = np.asarray(deeper.points)
        vertex = np.asarray(hull.vertices[0])
        outward = vertex - pts.mean(axis=0)
        rhos = [rng.uniform(-2.5, 2.5, size=d) for _ in range(4)]
        rhos += [pts.mean(axis=0), vertex]
        if outward.any():  # past the vertex, away from the centroid
            rhos.append(vertex + 1e-3 * outward / np.linalg.norm(outward))
        for rho in rhos:
            assert membership(g, w, rho) is classify(pts, rho)


class TestStrictConvexityWitness:
    """Hull dimension equals the class dimension iff the pressure Hessian
    at 0 is nonsingular."""

    def test_nondegenerate_case(self):
        w = into2()
        hull = direction_hull(FULL2, w, 6)
        eigs = np.linalg.eigvalsh(pressure_hessian(FULL2, w, [0.0]))
        assert hull.dim == 1 and eigs.min() > 1e-6

    def test_degenerate_zero_classes(self):
        w = zero_weights(FULL2)
        hull = direction_hull(FULL2, w, 6)
        h = pressure_hessian(FULL2, w, [0.0])
        assert hull.dim == 0 and np.abs(h).max() <= 1e-9

    def test_collinear_two_dimensional(self):
        # classes confined to a line: hull dim 1 < 2, singular Hessian
        w = WeightSystem(
            b=2, meridians=0,
            roof={e: 1.0 for e in FULL2.edges},
            classes={
                (1, 1): (0, 0),
                (1, 2): (1, 2),
                (2, 1): (0, 0),
                (2, 2): (1, 2),
            },
        )
        hull = direction_hull(FULL2, w, 6)
        eigs = np.linalg.eigvalsh(pressure_hessian(FULL2, w, [0.0, 0.0]))
        assert hull.dim == 1
        assert eigs.min() <= 1e-8 < eigs.max()

    def test_full_dimensional_bench3(self, bench3):
        hull = direction_hull(bench3.graph, bench3.weights, 5)
        eigs = np.linalg.eigvalsh(
            pressure_hessian(bench3.graph, bench3.weights, [0.0, 0.0])
        )
        assert hull.dim == 2 and eigs.min() > 1e-6


class TestHullContains:
    def test_simplex_membership(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        assert hull_contains(pts, (0.2, 0.2))
        assert hull_contains(pts, (0.5, 0.5))  # boundary edge
        assert not hull_contains(pts, (0.6, 0.6))
        assert not hull_contains(pts, (-0.01, 0.0))

    def test_rho_of_wrong_length_raises(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        for rho in ((0.2, 0.2, 5.0), (0.2,)):
            with pytest.raises(DimensionMismatch):
                hull_contains(pts, rho)

    def test_empty_point_set_raises(self):
        with pytest.raises(EmptySelection):
            hull_contains([], (0.0,))
        with pytest.raises(EmptySelection):
            hull_contains(np.zeros((0, 2)), (0.0, 0.0))

    def test_low_dimensional_containment_loads_no_scipy(self):
        code = (
            "import sys\n"
            "from orbitflow import hull_contains\n"
            "assert hull_contains([(0.0,), (1.0,)], (0.5,))\n"
            "assert not hull_contains([(0.0, 0.0), (1.0, 1.0)], (0.5, 0.6))\n"
            "assert hull_contains([(1.0, 2.0, 3.0)] * 2, (1.0, 2.0, 3.0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @settings(derandomize=True, deadline=None, database=None, max_examples=120)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), data=st.data())
    def test_containment_properties(self, seed, d, data):
        """Points of affine rank 0..d in R^d: the inputs and their convex
        combinations are inside; a point past the support of a direction,
        or off a lower-rank affine hull, by a margin is outside."""
        rank = data.draw(st.integers(0, d))
        rng = np.random.default_rng(seed)
        frame = np.linalg.qr(rng.normal(size=(d, d)))[0]
        span, normals = frame[:, :rank], frame[:, rank:]
        m = rank + 1 + int(rng.integers(0, 6))
        pts = rng.normal(size=d) + rng.normal(size=(m, rank)) @ span.T
        margin = 1e-3
        for p in pts:
            assert hull_contains(pts, p, tol=1e-7)
        inner = rng.dirichlet(np.ones(m)) @ pts
        assert hull_contains(pts, inner)
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        assert not hull_contains(pts, pts[np.argmax(pts @ v)] + margin * v)
        if rank < d:
            off = normals @ rng.normal(size=d - rank)
            assert not hull_contains(pts, inner + margin * off / np.linalg.norm(off))
