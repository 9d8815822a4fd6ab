"""Window counts, the walk-trace oracle, the asymptotic predictor,
quotient densities, and equidistribution."""

import itertools
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitflow import (
    BudgetExceeded,
    CountQuery,
    DimensionMismatch,
    DirectedGraph,
    DirectionData,
    EmptySelection,
    FiniteQuotient,
    InfiniteQuotient,
    InvalidArgument,
    InvalidGraph,
    MissingEdgeValue,
    MissingEdgeWeight,
    PrimeCycle,
    RoofNotUnit,
    WeightSystem,
    birkhoff,
    chebotarev_distribution,
    checks,
    counting,
    cycle_table,
    direction_hull,
    enumerate_prime_cycles,
    equidistribution_test,
    equilibrium_measure,
    evaluate_query,
    exact_window_count,
    floor_class,
    generation_check,
    graphs,
    integrate_observable,
    jitter_averaged_ratio,
    lattice_length_heuristic,
    legendre,
    margulis_total,
    membership,
    predict_count,
    pressure_gradient,
    solve_u,
    sweep,
    target_class,
    trace_prime_count,
    trace_prime_counts_table,
    weights,
    window_count_from_table,
)

from conftest import brute_force_prime_cycles, random_strong_graph, random_weights

FULL2 = DirectedGraph(2, ((1, 1), (1, 2), (2, 1), (2, 2)))


S3 = list(itertools.permutations(range(3)))
S3_TABLE = {(p, q): tuple(q[p[i]] for i in range(3)) for p in S3 for q in S3}   # p then q


PAIRS = [(a, b) for a in (0, 1) for b in (0, 1)]
# (call, error, exact message) for each refusal of a quotient
QUOTIENT_REFUSALS = {
    "non-square lattice": (lambda: FiniteQuotient.from_lattice([[1, 0]]),
                           InvalidArgument, "lattice matrix must be square"),
    "no identity": (lambda: FiniteQuotient.from_group((0, 1), dict.fromkeys(PAIRS, 0), {}),
                    InvalidArgument, "multiplication table has no identity element"),
    "non-invertible": (lambda: FiniteQuotient.from_group((0, 1), {p: max(p) for p in PAIRS}, {}),
                       InvalidArgument, "multiplication table has non-invertible elements"),
    "unlabelled edge": (lambda: chebotarev_distribution(FULL2, into2(), (), _unlabelled(), 3),
                        MissingEdgeValue, "no group label on edge (2, 2)"),
}


def _unlabelled():
    """S3 with every edge of FULL2 but (2, 2) labelled."""
    return FiniteQuotient.from_group(S3, S3_TABLE, dict.fromkeys(FULL2.edges[:3], S3[1]))


def into2():
    return WeightSystem(
        b=0,
        meridians=1,
        roof={e: 1.0 for e in FULL2.edges},
        classes={(1, 1): (0,), (1, 2): (1,), (2, 1): (0,), (2, 2): (1,)},
    )


def character_sum_walks(g, classes, moduli, n_max):
    """walks[m][x] for m <= n_max: closed m-step walks whose class sum is
    x in Z^d / diag(moduli), from the character sum

        #walks in class x = (1/|G|) sum_chi chi(x)^-1 tr(A_chi^m),

    A_chi[i, j] = sum of chi(c_e) over the edges e = (i, j).  On a product
    of cyclic groups the sum over characters is an n-dimensional DFT.  The
    floats are trusted only where they are provably exact: every rounding
    residue at most 0.05 and the walk total k^m below 2^52."""
    k = g.vertex_count
    grids = np.meshgrid(*(np.arange(n) for n in moduli), indexing="ij")
    freqs = np.stack([x.ravel() / n for x, n in zip(grids, moduli)], axis=1)
    a = np.zeros((len(freqs), k, k), dtype=complex)
    for (i, j) in g.edges:
        a[:, i - 1, j - 1] += np.exp(2j * math.pi * (freqs @ np.asarray(classes[(i, j)])))
    power = np.broadcast_to(np.eye(k, dtype=complex), a.shape).copy()
    walks = {}
    for m in range(1, n_max + 1):
        power = power @ a
        tr = np.trace(power, axis1=1, axis2=2).reshape(moduli)
        w = np.fft.fftn(tr).real / len(freqs)
        rounded = np.rint(w)
        assert np.abs(w - rounded).max() <= 0.05 and k ** m < 2 ** 52
        walks[m] = {x: int(v) for x, v in np.ndenumerate(rounded) if v}
    return walks


def abelian_prime_counts(walks, moduli, n_max):
    """Prime cycles per (period, residue), solved period by period from
    W(m, x) = sum over q | m and y with q y = x of (m / q) P(m / q, y)."""
    prime = {}
    for m in range(1, n_max + 1):
        acc = Counter(walks[m])
        for q in range(2, m + 1):
            if m % q == 0:
                for y, cnt in prime[m // q].items():
                    acc[tuple(q * t % n for t, n in zip(y, moduli))] -= (m // q) * cnt
        assert all(v % m == 0 and v >= 0 for v in acc.values())
        prime[m] = {x: v // m for x, v in acc.items() if v}
    return prime


def necklaces(k, n_max):
    """a[m] for m <= n_max: the aperiodic k-ary necklaces of length m, the
    prime cycles of period m of the full k-shift, from k^m = sum over
    d | m of d a(d)."""
    a = {}
    for m in range(1, n_max + 1):
        a[m] = (k**m - sum(d * a[d] for d in range(1, m) if m % d == 0)) // m
    return a


class TestFloorClass:
    def test_scalar(self):
        assert floor_class((0.3,), 10) == (3,)

    def test_zero(self):
        assert floor_class((0.0,), 123.4) == (0,)

    def test_negative_component(self):
        assert floor_class((0.25, -0.4), 7) == (1, -3)


class TestTargetClass:
    def test_floor_plus_alpha(self):
        q = CountQuery(T=10.0, delta=1.0, rho=(0.31,), alpha=(2,))
        assert target_class(into2(), q) == (5,)

    def test_dimension_checked_by_every_consumer(self, bench3):
        g, w = bench3.graph, bench3.weights
        q = CountQuery(T=10.0, delta=1.0, rho=(0.5,), alpha=(0,))
        dd = DirectionData(rho=(0.5,), u=(0.0,), entropy=0.5, pressure_at_u=0.0,
                           hessian_h=-np.eye(1))
        phi = {e: 1.0 for e in g.edges}
        for call in (
            lambda: target_class(w, q),
            lambda: exact_window_count(g, w, q),
            lambda: predict_count(g, w, dd, q),
            lambda: equidistribution_test(g, w, dd, q, phi),
            lambda: window_count_from_table(np.ones(1), np.zeros((1, 2)), 1.0, 1.0, (0,)),
            lambda: trace_prime_count(FULL2, into2(), 3, (0, 0)),
        ):
            with pytest.raises(DimensionMismatch):
                call()


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(st.integers(1, 3), st.integers(0, 40), st.integers(0, 2**32 - 1))
@example(d=2, rows=0, seed=0)
def test_in_window_equals_the_row_reduction(d, rows, seed):
    # lengths on a half-step grid hit both window ends exactly
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 9, rows) * 0.5
    classes = rng.integers(-1, 2, (rows, d))
    T, delta = float(rng.integers(1, 9) * 0.5), float(rng.integers(1, 5) * 0.5)
    for target in [tuple(rng.integers(-1, 2, d).tolist()) for _ in range(3)] + [
            tuple(classes[i].tolist()) for i in range(min(rows, 3))]:
        want = (lengths > T - delta) & (lengths <= T) & (classes == target).all(axis=1)
        got = counting._in_window(lengths, classes, T, delta, target)
        assert got.dtype == bool and got.tolist() == want.tolist()
    for target in ((0,) * (d + 1), (0,) * (d - 1)):
        with pytest.raises(DimensionMismatch):
            counting._in_window(lengths, classes, T, delta, target)


def _brute_mean(selected, phi):
    """Per-orbit time average of phi, summed in lexicographic word order."""
    total = 0.0
    for word, length in sorted(selected):
        s = 0.0
        for m in range(len(word)):
            s += phi[(word[m], word[(m + 1) % len(word)])]
        total += s / length
    return total / len(selected)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), d=st.integers(1, 2),
       data=st.data())
def test_counters_match_brute_force_on_random_models(seed, k, d, data):
    rng = np.random.default_rng(seed)
    g = random_strong_graph(rng, k, ensure_aperiodic=True)
    w = random_weights(rng, g, d)
    T = data.draw(st.floats(3.0, 6.0))
    depth = max(int(math.floor(T / w.r_min)), 1)
    assume(k**depth <= 50_000)  # keeps the brute force small
    brute = {c: birkhoff(PrimeCycle(c), w) for c in brute_force_prime_cycles(g, depth)}
    removed = data.draw(st.lists(st.sampled_from(sorted(brute)), max_size=3, unique=True))
    kept = {c: b for c, b in brute.items() if b.length <= T and c not in removed}
    removed = tuple(PrimeCycle(c) for c in removed)

    # a window reaching down to one kept cycle, and its class as target
    some = data.draw(st.sampled_from(sorted(kept))) if kept else None
    delta = data.draw(st.floats(T - kept[some].length if kept else 0.1, T))
    beta = kept[some].class_vector if kept else (0,) * d
    rho = tuple(data.draw(st.floats(-1.0, 1.0)) for _ in range(d))
    alpha = tuple(b - f for b, f in zip(beta, floor_class(rho, T)))
    q = CountQuery(T=T, delta=delta, rho=rho, alpha=alpha, removed=removed)
    selected = [
        (c, b.length) for c, b in kept.items()
        if b.length > T - delta and b.class_vector == beta
    ]
    phi = {e: float(rng.normal()) for e in g.edges}
    dd = DirectionData(rho=rho, u=(0.0,) * d, entropy=0.0, pressure_at_u=0.0,
                       hessian_h=-np.eye(d))

    def table():
        lengths, classes = cycle_table(g, w, T, removed=removed)
        return sorted(zip(lengths.tolist(), map(tuple, classes.tolist())))

    def equi():
        try:
            res = equidistribution_test(g, w, dd, q, phi)
        except EmptySelection:
            return None
        return res.n_orbits, res.empirical

    counters = {
        "total": lambda: margulis_total(g, w, removed, T).exact,
        "table": table,
        "window": lambda: exact_window_count(g, w, q),
        "equi": equi,
    }
    graphs._memo = None
    cold = {name: run() for name, run in counters.items()}
    warm = {name: counters[name]() for name in reversed(counters)}
    assert warm == cold

    assert cold["table"] == sorted((b.length, b.class_vector) for b in kept.values())
    assert cold["total"] == len(kept)
    assert cold["window"] == len(selected)
    assert cold["equi"] == ((len(selected), _brute_mean(selected, phi)) if selected else None)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), data=st.data())
def test_lattice_total_matches_scan_and_brute_force(seed, k, data):
    """Roofs in {1, 2, 3}, half the time one value on every edge: the
    total comes from the walk engine exactly when every roof is the same,
    and equals both the scan called directly and the brute-force
    enumeration."""
    rng = np.random.default_rng(seed)
    g = random_strong_graph(rng, k, ensure_aperiodic=True)
    w = random_weights(rng, g, 1)
    one = data.draw(st.booleans(), label="one roof") and rng.integers(1, 4)
    roof = {e: float(one or rng.integers(1, 4)) for e in g.edges}
    w = WeightSystem(w.b, w.meridians, roof, w.classes)
    T = data.draw(st.floats(1.0, 9.0))
    depth = max(int(math.floor(T / w.r_min)), 1)
    assume(k**depth <= 20_000)  # keeps the brute force small
    brute = {c: birkhoff(PrimeCycle(c), w).length for c in brute_force_prime_cycles(g, depth)}
    drawn = data.draw(st.lists(st.sampled_from(sorted(brute)), max_size=3))
    absent = sorted(set(itertools.product(range(1, k + 2), repeat=2)) - g.edge_set)[0]
    not_a_cycle = PrimeCycle(absent[:1] if absent[0] == absent[1] else absent)
    removed = tuple(PrimeCycle(c) for c in drawn + drawn[:1]) + (not_a_cycle,)
    kept = [c for c, length in brute.items() if length <= T and c not in drawn]

    lattice = len(set(roof.values())) == 1
    scans = []
    real = counting.scan_cycles
    counting.scan_cycles = lambda *a, **kw: scans.append(a) or real(*a, **kw)
    try:
        total = margulis_total(g, w, removed, T).exact
        below = margulis_total(g, w, removed, 0.5 * w.r_min).exact
    finally:
        counting.scan_cycles = real
    assert (scans == []) is lattice
    assert total == len(kept) == len(counting._scan(g, w, T, removed, 32).period)
    assert below == 0


def test_lattice_total_refuses_what_the_scan_refuses():
    outside = DirectedGraph(2, FULL2.edges + ((2, 3),))
    cases = [
        (DirectedGraph(2, ((1, 1), (1, 2), (2, 2))), (), InvalidGraph),  # not strongly connected
        (DirectedGraph(3, FULL2.edges), (), InvalidGraph),              # vertex 3 has no edge
        (outside, (), InvalidGraph),                                    # edge to vertex 3 of 2
        (outside, ((2, 3),), MissingEdgeWeight),
    ]
    # the other walk-engine consumers, on unit roofs, refuse as the total does
    for g, unweighted, error in cases:
        edges = g.edge_set - set(unweighted)
        w = WeightSystem(0, 1, dict.fromkeys(edges, 2.0), dict.fromkeys(edges, (0,)))
        unit = WeightSystem(0, 1, dict.fromkeys(edges, 1.0), dict.fromkeys(edges, (0,)))
        quot = FiniteQuotient.from_modulus(2, 1)
        for count in (lambda: margulis_total(g, w, (), 6.0),
                      lambda: counting._scan(g, w, 6.0, (), 32),
                      lambda: chebotarev_distribution(g, unit, (), quot, 6),
                      lambda: trace_prime_counts_table(g, unit, 6)):
            with pytest.raises(error):
                count()
    with pytest.raises(BudgetExceeded):
        margulis_total(FULL2, into2(), (), 33.0)
    assert margulis_total(FULL2, into2(), (), 32.0).exact == sum(necklaces(2, 32).values())


def test_total_refuses_class_overflow_only_on_the_scan():
    # the scan carries every cycle's class and refuses when a class sum
    # could pass int64; the walk engine's trivial group ignores classes
    big = dict.fromkeys(FULL2.edges, (2**62,))
    unit = WeightSystem(0, 1, dict.fromkeys(FULL2.edges, 1.0), big)
    assert margulis_total(FULL2, unit, (), 6.0).exact == sum(necklaces(2, 6).values())
    with pytest.raises(InvalidArgument, match="int64"):
        margulis_total(FULL2, WeightSystem(0, 1, dict.fromkeys(FULL2.edges, 1.5), big), (), 6.0)


class TestScanMemo:
    """One scan per (graph, weights content, T, removed), shared by every
    counter; results always equal those of a cold memo."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """The distinct scans that every caller of the entry got, from a
        cold memo: one per scan built, however many calls it served."""
        built = []
        real = graphs.scan_cycles

        def counted(*args, **kwargs):
            scan = real(*args, **kwargs)
            if not any(scan is b for b in built):
                built.append(scan)
            return scan

        for module in (graphs, counting, weights, checks, legendre):
            monkeypatch.setattr(module, "scan_cycles", counted)
        monkeypatch.setattr(graphs, "_memo", None)
        return built

    @staticmethod
    def results(g, w, T, removed):
        """Every scan-fed counter at T, in a comparable form."""
        rho = tuple(pressure_gradient(g, w, np.zeros(w.dimension)))
        dd = DirectionData(rho=rho, u=(0.0,) * w.dimension, entropy=0.0,
                           pressure_at_u=0.0, hessian_h=-np.eye(w.dimension))
        q = CountQuery(T=T, delta=1.0, rho=rho, alpha=(0,) * w.dimension, removed=removed)
        lengths, classes = cycle_table(g, w, T, removed=removed)
        equi = equidistribution_test(g, w, dd, q, {e: 0.1 * i for i, e in enumerate(g.edges)})
        return (lengths.tolist(), classes.tolist(), exact_window_count(g, w, q),
                margulis_total(g, w, removed, T).exact, equi.empirical, equi.n_orbits)

    def cold(self, *args):
        graphs._memo = None
        return self.results(*args)

    def test_multi_window_counters_scan_once(self, scans, bench3):
        g, w, removed = bench3.graph, bench3.weights, bench3.removed
        rho = tuple(pressure_gradient(g, w, np.zeros(2)))
        dd = solve_u(g, w, rho)
        sweep(g, w, rho, (0, 0), 1.0, [14.0, 10.0, 12.0], removed=removed)
        assert len(scans) == 1
        jitter_averaged_ratio(g, w, dd, (0, 0), 1.0, 12.0, removed=removed)
        assert len(scans) == 2

    def test_orbit_counts_op_scans_bench3_once(self, scans, bench3, full2):
        g, w, removed = bench3.graph, bench3.weights, bench3.removed
        rho = tuple(pressure_gradient(g, w, np.zeros(2)))
        dd = solve_u(g, w, rho)
        q = CountQuery(T=20.0, delta=1.0, rho=rho, alpha=(0, 0), removed=removed)
        cycle_table(g, w, 20.0, removed=removed)
        exact_window_count(g, w, q)
        margulis_total(g, w, removed, 20.0)
        for hot in sorted(g.edges):
            equidistribution_test(g, w, dd, q, {e: float(e == hot) for e in g.edges})
        margulis_total(full2.graph, full2.weights, full2.removed, 20.0)
        exact_window_count(g, w, q)
        assert len(scans) == 1 and scans[0] is counting._scan(g, w, 20.0, removed, 32)

    def test_depth_k_diagnostics_share_one_scan(self, scans, bench3):
        g, w = bench3.graph, bench3.weights
        k = g.vertex_count
        direction_hull(g, w, k)
        generation_check(g, w, k)
        lattice_length_heuristic(g, w, k, [0.5, 1.0])
        membership(g, w, (0.1, 0.1))
        assert len(scans) == 1

    def test_counters_after_membership_match_a_cold_memo(self, scans, bench3):
        g, w, removed = bench3.graph, bench3.weights, bench3.removed
        base = self.cold(g, w, 12.0, removed)
        before = len(scans)
        membership(g, w, (0.1, 0.1))   # a depth-k scan takes the memo's one entry
        assert self.results(g, w, 12.0, removed) == base
        assert len(scans) == before + 2

    def test_orbit_counts_op_solves_one_measure(self, root_solves, bench3, full2):
        # the thermo root memo holds all three roots an op reads: bench3 at
        # u = 0 (the growth-law reference), bench3 at dd.u, full2 at u = 0
        g, w, removed = bench3.graph, bench3.weights, bench3.removed
        rho = tuple(pressure_gradient(g, w, np.zeros(2)))
        dd = solve_u(g, w, rho)
        q = CountQuery(T=20.0, delta=1.0, rho=rho, alpha=(0, 0), removed=removed)
        for _ in range(2):
            root_solves.clear()
            margulis_total(g, w, removed, 20.0)
            for hot in sorted(g.edges):
                equidistribution_test(g, w, dd, q, {e: float(e == hot) for e in g.edges})
            margulis_total(full2.graph, full2.weights, full2.removed, 20.0)
            assert root_solves.count(((3, 3, 2), tuple(dd.u))) <= 1
        assert root_solves == []

    def test_changed_inputs_resolve_the_measure(self, root_solves, bench3):
        def expected(g, w, u, T=12.0):
            rho = tuple(pressure_gradient(g, w, np.zeros(w.dimension)))
            dd = DirectionData(rho=rho, u=u, entropy=0.0, pressure_at_u=0.0,
                               hessian_h=-np.eye(w.dimension))
            q = CountQuery(T=T, delta=1.0, rho=rho, alpha=(0,) * w.dimension)
            phi = {e: 0.1 * i for i, e in enumerate(sorted(g.edges))}
            got = equidistribution_test(g, w, dd, q, phi).expected
            assert got == integrate_observable(equilibrium_measure(g, w, u), w, phi)
            return got

        g = bench3.graph
        w = WeightSystem(bench3.weights.b, bench3.weights.meridians,
                         dict(bench3.weights.roof), dict(bench3.weights.classes))
        base = expected(g, w, (0.0, 0.0))   # one root at u = 0 serves rho and the measure
        assert expected(g, w, (0.0, 0.0)) == base and len(root_solves) == 1
        assert expected(g, w, (0.1, -0.2)) != base and len(root_solves) == 2
        golden = DirectedGraph(2, ((1, 1), (1, 2), (2, 1)))
        assert expected(golden, into2(), (0.0,)) != expected(FULL2, into2(), (0.0,))
        assert len(root_solves) == 4
        expected(g, w, (0.0, 0.0))
        assert len(root_solves) == 4
        w.roof[sorted(g.edges)[4]] += 0.25  # edited in place: same object, new content
        assert expected(g, w, (0.0, 0.0)) != base and len(root_solves) == 5

    def test_changed_inputs_rescan(self, scans, bench3):
        g, removed = bench3.graph, bench3.removed
        w = WeightSystem(bench3.weights.b, bench3.weights.meridians,
                         dict(bench3.weights.roof), dict(bench3.weights.classes))
        base = self.results(g, w, 12.0, removed)
        assert len(scans) == 1
        assert self.results(g, w, 12.0, removed) == base
        assert len(scans) == 1

        edge = sorted(g.edges)[4]
        other = WeightSystem(w.b, w.meridians, {**w.roof, edge: w.roof[edge] + 0.25}, w.classes)
        cases = [
            (g, w, 12.5, removed),
            (g, w, 12.0, removed[:1]),
            (g, other, 12.0, removed),
        ]
        for args in cases:
            before = len(scans)
            got = self.results(*args)
            assert len(scans) == before + 1
            assert got == self.cold(*args) != base

        self.results(g, w, 12.0, removed)
        before = len(scans)
        w.roof[edge] += 0.25            # edited in place: same object, new content
        got = self.results(g, w, 12.0, removed)
        assert len(scans) == before + 1
        assert got == self.cold(g, w, 12.0, removed) == self.cold(g, other, 12.0, removed)

    def test_returned_arrays_do_not_alias_the_memo(self, bench3):
        g, w, removed = bench3.graph, bench3.weights, bench3.removed
        base = self.cold(g, w, 12.0, removed)
        lengths, classes = cycle_table(g, w, 12.0, removed=removed)
        lengths[:] = 0.0
        classes[:] = 0
        assert self.results(g, w, 12.0, removed) == base
        scan = counting._scan(g, w, 12.0, removed, 32)
        for a in vars(scan).values():
            assert not a.flags.writeable


class TestExactWindowCount:
    def test_first_three_periods(self):
        # classes of cycles up to length 3: (1)->0, (2)->1, (12)->1, (112)->1, (122)->2
        q = CountQuery(T=3.0, delta=3.0, rho=(1 / 3,), alpha=(0,))
        assert exact_window_count(FULL2, into2(), q) == 3

    def test_fixed_point(self):
        q = CountQuery(T=1.0, delta=1.0, rho=(0.0,), alpha=(0,))
        assert exact_window_count(FULL2, into2(), q) == 1

    def test_removed_excluded(self):
        q = CountQuery(
            T=1.0, delta=1.0, rho=(0.0,), alpha=(1,), removed=(PrimeCycle((2,)),)
        )
        assert exact_window_count(FULL2, into2(), q) == 0

    def test_budget_refusal(self):
        q = CountQuery(T=40.0, delta=1.0, rho=(0.0,), alpha=(0,))
        with pytest.raises(BudgetExceeded):
            exact_window_count(FULL2, into2(), q)

    def test_budget_override(self):
        # a sparse graph keeps symbolic depth 35 cheap: the cap refuses by
        # default and a raised cap really enumerates
        g = DirectedGraph(3, ((1, 1), (1, 2), (2, 3), (3, 1)))
        w = WeightSystem(
            b=1, meridians=0,
            roof={e: 1.0 for e in g.edges},
            classes={(1, 1): (1,), (1, 2): (0,), (2, 3): (0,), (3, 1): (0,)},
        )
        # period 35 = 32 loops plus one 1->2->3->1 detour, unique up to
        # rotation, hence exactly one prime cycle with class 32
        q = CountQuery(T=35.0, delta=1.0, rho=(0.0,), alpha=(32,))
        with pytest.raises(BudgetExceeded):
            exact_window_count(g, w, q)
        assert exact_window_count(g, w, q, budget_cap=35) == 1

    def test_class_decomposition(self):
        # summing over all classes recovers the unconstrained window count
        w = into2()
        T, delta = 6.0, 2.0
        unconstrained = sum(
            1
            for c in enumerate_prime_cycles(FULL2, 6)
            if T - delta < birkhoff(c, w).length <= T
        )
        total = 0
        for beta in range(0, 8):
            q = CountQuery(T=T, delta=delta, rho=(0.0,), alpha=(beta,))
            total += exact_window_count(FULL2, w, q)
        assert total == unconstrained

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_rho_refused(self, x):
        want = f"need finite T, delta and rho, got T=10, delta=1, rho=({x},)"
        with pytest.raises(InvalidArgument, match=f"^{re.escape(want)}$"):
            CountQuery(T=10, delta=1, rho=(x,), alpha=(0,))

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_non_finite_length_bound_refused(self, full2, bound):
        with pytest.raises(InvalidArgument, match=f"^need a finite length bound, got {bound}$"):
            cycle_table(full2.graph, full2.weights, bound)
        with pytest.raises(InvalidArgument, match=f"^need finite T > 0, got T={bound}$"):
            margulis_total(full2.graph, full2.weights, (), bound)

    def test_agrees_with_cycle_table(self):
        w = into2()
        lengths, classes = cycle_table(FULL2, w, 8.0)
        for T in (3.0, 5.5, 8.0):
            for beta in (0, 1, 2, 3):
                q = CountQuery(T=T, delta=1.5, rho=(0.0,), alpha=(beta,))
                want = exact_window_count(FULL2, w, q)
                got = window_count_from_table(lengths, classes, T, 1.5, (beta,))
                assert got == want


class TestTraceOracle:
    def test_requires_unit_roof(self):
        w = WeightSystem(
            b=0, meridians=1,
            roof={e: 1.0 if e != (1, 1) else 0.5 for e in FULL2.edges},
            classes={e: (0,) for e in FULL2.edges},
        )
        with pytest.raises(RoofNotUnit):
            trace_prime_count(FULL2, w, 3, (0,))

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_period_rejected(self, n):
        with pytest.raises(InvalidArgument):
            trace_prime_count(FULL2, into2(), n, (0,))

    def test_spec_values(self):
        w = into2()
        assert trace_prime_count(FULL2, w, 4, (2,)) == 1
        assert trace_prime_count(FULL2, w, 1, (0,)) == 1
        assert trace_prime_count(FULL2, w, 2, (1,)) == 1

    def test_single_equals_table(self):
        w = into2()
        table = trace_prime_counts_table(FULL2, w, 10)
        for n in range(1, 11):
            for beta in range(-1, n + 2):
                assert trace_prime_count(FULL2, w, n, (beta,)) == table[n].get(
                    (beta,), 0
                )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(4):
            g = random_strong_graph(rng, int(rng.integers(2, 5)))
            w = random_weights(rng, g, 2, unit_roof=True, value_range=1)
            counts = Counter()
            for c in enumerate_prime_cycles(g, 8):
                counts[(c.period, birkhoff(c, w).class_vector)] += 1
            table = trace_prime_counts_table(g, w, 8)
            from_table = Counter()
            for n, row in table.items():
                for beta, cnt in row.items():
                    from_table[(n, beta)] += cnt
            assert counts == from_table

    def test_totals_past_int64_are_necklace_counts(self, bench3):
        # unit roof on bench3 (the full 3-vertex graph): the prime cycles of
        # period m are the aperiodic 3-ary necklaces.  The m-step walks
        # i -> j number 3^(m - 1), past 2^63 from m = 41, so the walk counts
        # leave int64 there and the totals pin exact integers beyond it
        g = bench3.graph
        classes = {e: (0, 0) for e in g.edges}
        classes.update({(1, 1): (1, 0), (2, 2): (0, 1), (3, 3): (1, 1)})
        w = WeightSystem(b=0, meridians=2, roof={e: 1.0 for e in g.edges}, classes=classes)
        table = trace_prime_counts_table(g, w, 45)
        want = necklaces(3, 45)
        assert 3 ** 39 < 2 ** 63 < 3 ** 40
        for m in range(1, 46):
            assert sum(table[m].values()) == want[m]
            assert all(type(v) is int and v > 0 for v in table[m].values())

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_nonpositive_period_bound_rejected(self, n):
        with pytest.raises(InvalidArgument, match=f"^period bound must be >= 1, got {n}$"):
            trace_prime_counts_table(FULL2, into2(), n)

    def test_class_walks_box_past_int64_against_the_necklace_formula(self, bench3):
        # the trace table as the class_walks benchmark builds it: loop
        # classes (1,0), (0,1), (1,1) on unit-roof bench3, a 41 x 41 box to
        # n = 40, where 3^40 closed walks per period pass 2^63.  Each row
        # sums to the aperiodic 3-ary necklaces (1/n) sum_{d | n} mu(n/d) 3^d
        def mu(n):
            factors = [p for p in range(2, n + 1) if n % p == 0
                       and all(p % q for q in range(2, p))]
            square_free = all(n % (p * p) for p in factors)
            return (-1) ** len(factors) if square_free else 0

        g = bench3.graph
        classes = dict.fromkeys(g.edges, (0, 0))
        classes.update({(1, 1): (1, 0), (2, 2): (0, 1), (3, 3): (1, 1)})
        w = WeightSystem(b=0, meridians=2, roof=dict.fromkeys(g.edges, 1.0), classes=classes)
        table = trace_prime_counts_table(g, w, 40)
        assert 3 ** 40 > 2 ** 63 and sorted(table) == list(range(1, 41))
        for n, row in table.items():
            want = sum(mu(n // d) * 3 ** d for d in range(1, n + 1) if n % d == 0) // n
            assert sum(row.values()) == want
            assert all(type(v) is int for v in row.values())
            assert all(0 <= x <= 40 for beta in row for x in beta)

    def test_one_class_count_past_int64(self, bench3):
        # all-zero classes: a one-element box holding every closed walk, so
        # its count 3^m passes 2^63 at m = 40 while each walk entry, at
        # most 3^39, still fits int64
        g = bench3.graph
        w = WeightSystem(b=0, meridians=2, roof=dict.fromkeys(g.edges, 1.0),
                         classes=dict.fromkeys(g.edges, (0, 0)))
        want = necklaces(3, 45)
        assert trace_prime_counts_table(g, w, 45) == {m: {(0, 0): want[m]} for m in want}
        for m in (39, 40, 41, 45):
            assert trace_prime_count(g, w, m, (0, 0)) == want[m]
        keys, prime = counting._walk_primes(g, w, 45)
        assert keys == [(0, 0)]
        assert [row.dtype for row in prime] == [np.dtype(np.int64)] * 39 + [np.dtype(object)] * 6


class TestPredict:
    def test_full2_symmetric_value(self):
        # assembled independently: h = log 2, u = 0, p = log 2,
        # det = 4, window = (1 - 1/2)/log 2, envelope = 2^T / T^1.5
        w = into2()
        dd = solve_u(FULL2, w, [0.5])
        q = CountQuery(T=10.0, delta=1.0, rho=(0.5,), alpha=(0,))
        got = predict_count(FULL2, w, dd, q)
        want = (
            (2.0 / math.sqrt(2 * math.pi))
            * ((1 - 0.5) / math.log(2))
            * 2.0**10
            / 10.0**1.5
        )
        assert got == pytest.approx(want, rel=1e-6)

    def test_alpha_invariance_at_zero_dual(self):
        w = into2()
        dd = solve_u(FULL2, w, [0.5])
        qs = [
            CountQuery(T=9.0, delta=1.0, rho=(0.5,), alpha=(a,)) for a in (-2, 0, 3)
        ]
        values = {predict_count(FULL2, w, dd, q) for q in qs}
        assert max(values) == pytest.approx(min(values), rel=1e-9)

    def test_window_factor_continuous_at_zero_pressure(self):
        # synthetic direction data with pressure exactly zero: the window
        # factor must degrade continuously to delta
        hess = np.array([[-4.0]])
        dd0 = DirectionData(rho=(0.5,), u=(0.0,), entropy=0.3, pressure_at_u=0.0, hessian_h=hess)
        dd_eps = DirectionData(rho=(0.5,), u=(0.0,), entropy=0.3, pressure_at_u=1e-13, hessian_h=hess)
        q = CountQuery(T=5.0, delta=0.7, rho=(0.5,), alpha=(0,))
        w = into2()
        v0 = predict_count(FULL2, w, dd0, q)
        v_eps = predict_count(FULL2, w, dd_eps, q)
        assert v0 == pytest.approx(v_eps, rel=1e-9)
        # and the delta branch is really delta
        base = (2.0 / math.sqrt(2 * math.pi)) * math.exp(0.3 * 5.0) / 5.0**1.5
        assert v0 == pytest.approx(base * 0.7, rel=1e-12)

    def test_rho_mismatch_rejected(self):
        w = into2()
        dd = solve_u(FULL2, w, [0.5])
        q = CountQuery(T=5.0, delta=1.0, rho=(0.25,), alpha=(0,))
        with pytest.raises(ValueError):
            predict_count(FULL2, w, dd, q)


class TestSweep:
    def test_evaluate_query_bundles_ratio(self):
        w = into2()
        dd = solve_u(FULL2, w, [0.5])
        q = CountQuery(T=10.0, delta=1.0, rho=(0.5,), alpha=(0,))
        res = evaluate_query(FULL2, w, dd, q)
        assert res.exact == exact_window_count(FULL2, w, q)
        assert res.predicted == pytest.approx(predict_count(FULL2, w, dd, q))
        assert res.ratio == pytest.approx(res.exact / res.predicted)
        assert res.target_class == (5,)

    def test_rows_and_determinism(self):
        w = into2()
        rows = sweep(FULL2, w, (0.5,), (0,), 1.0, [8.0, 10.0, 12.0])
        assert [r.T for r in rows] == [8.0, 10.0, 12.0]
        for r in rows:
            assert r.exact >= 0 and r.predicted > 0
            assert r.ratio == pytest.approx(r.exact / r.predicted)
        again = sweep(FULL2, w, (0.5,), (0,), 1.0, [8.0, 10.0, 12.0])
        assert rows == again

    def test_empty(self):
        assert sweep(FULL2, into2(), (0.5,), (0,), 1.0, []) == []

    def test_alpha_shift_stays_bounded(self):
        w = into2()
        rows0 = sweep(FULL2, w, (0.5,), (0,), 1.0, [10.0, 12.0, 14.0])
        rows1 = sweep(FULL2, w, (0.5,), (1,), 1.0, [10.0, 12.0, 14.0])
        for r in rows0 + rows1:
            assert 0.2 <= r.ratio <= 5.0

    def test_unsorted_rows_match_single_queries(self, bench3):
        g, w, removed = bench3.graph, bench3.weights, bench3.removed
        rho = tuple(pressure_gradient(g, w, [0.0, 0.0]))
        dd = solve_u(g, w, rho)
        rows = sweep(g, w, rho, (0, 0), 1.0, [14.0, 10.0, 12.0], removed=removed)
        assert [r.T for r in rows] == [14.0, 10.0, 12.0]
        for r in rows:
            q = CountQuery(T=r.T, delta=1.0, rho=rho, alpha=(0, 0), removed=removed)
            assert r.target_class == target_class(w, q)
            assert r.exact == exact_window_count(g, w, q)
            assert r.predicted == predict_count(g, w, dd, q)
            assert r.ratio == r.exact / r.predicted

    def test_benchmark_model_rows(self, bench3):
        from orbitflow import pressure_gradient

        rho = tuple(pressure_gradient(bench3.graph, bench3.weights, [0.0, 0.0]))
        rows = sweep(
            bench3.graph, bench3.weights, rho, (0, 0), 1.0,
            [10.0, 12.0, 14.0], removed=bench3.removed, budget_cap=32,
        )
        assert len(rows) == 3
        for r in rows:
            assert r.predicted > 0
            assert math.isfinite(r.ratio) and r.ratio > 0


class TestMargulis:
    def test_small_totals(self):
        w = into2()
        res = margulis_total(FULL2, w, (), 4.0)
        assert res.exact == 8
        assert res.reference == pytest.approx(16 / (4 * math.log(2)), rel=1e-12)

    def test_unit_time(self):
        res = margulis_total(FULL2, into2(), (), 1.0)
        assert res.exact == 2
        assert res.reference == pytest.approx(2 / math.log(2), rel=1e-12)

    def test_removed_all_fixed_points(self):
        removed = (PrimeCycle((1,)), PrimeCycle((2,)))
        res = margulis_total(FULL2, into2(), removed, 1.0)
        assert res.exact == 0

    def test_removal_is_order_one(self):
        w = into2()
        removed = (PrimeCycle((2,)),)
        for T in (3.0, 6.0, 9.0, 12.0):
            full = margulis_total(FULL2, w, (), T).exact
            excl = margulis_total(FULL2, w, removed, T).exact
            assert 0 <= full - excl <= len(removed)

    def test_full2_total_past_int64(self, full2):
        # the binary necklaces of period <= 70 less the removed fixed point
        res = margulis_total(full2.graph, full2.weights, full2.removed, 70.0, budget_cap=70)
        assert res.exact == sum(necklaces(2, 70).values()) - 1 == 34235111282896557688

    def test_full2_necklace_total_at_20(self, full2):
        # sum over n <= 20 of the binary Lyndon word counts, minus the
        # removed orbit; full2 has unit roofs, so the walk engine counts it
        res = margulis_total(full2.graph, full2.weights, full2.removed, 20.0)
        assert res.exact == 111_012

    def test_mixing_model_trend(self, bench3):
        # on the incommensurable-roof model the growth law ratio
        # approaches 1 from either side
        g, w = bench3.graph, bench3.weights
        r7 = margulis_total(g, w, bench3.removed, 7.0, budget_cap=40)
        r14 = margulis_total(g, w, bench3.removed, 14.0, budget_cap=40)
        assert 0.8 <= r14.exact / r14.reference <= 1.3
        assert abs(r14.exact / r14.reference - 1) < abs(r7.exact / r7.reference - 1) + 0.15


class TestFiniteQuotient:
    def test_modulus_labels(self):
        quot = FiniteQuotient.from_modulus(2, 1)
        assert quot.order == 2
        assert quot.reduce((5,)) == (1,)
        assert quot.reduce((-4,)) == (0,)

    def test_lattice_canonicalization(self):
        # Z^2 / (2Z x 3Z) is cyclic of order 6 in Smith coordinates
        quot = FiniteQuotient.from_lattice(((2, 0), (0, 3)))
        assert quot.order == 6
        labels = {quot.reduce((a, b)) for a in range(2) for b in range(3)}
        assert len(labels) == 6

    def test_lattice_kernel(self):
        quot = FiniteQuotient.from_lattice(((2, 1), (0, 3)))
        rng = np.random.default_rng(5)
        zero = quot.reduce((0, 0))
        for _ in range(20):
            k1, k2 = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            vec = (2 * k1 + 1 * k2, 3 * k2)
            assert quot.reduce(vec) == zero

    def test_rank_deficient_rejected(self):
        with pytest.raises(InfiniteQuotient):
            FiniteQuotient.from_lattice(((1, 2), (2, 4)))

    def test_group_classes(self):
        labels = {e: S3[0] for e in FULL2.edges}
        quot = FiniteQuotient.from_group(S3, S3_TABLE, labels)
        sizes = sorted(quot.class_size(k) for k in quot.all_class_keys())
        assert sizes == [1, 2, 3] and quot.order == 6

    @pytest.mark.parametrize("case", ["label outside", "product outside", "missing pair",
                                      "unhashable label", "unhashable product"])
    def test_group_misuse_names_the_label_or_pair(self, case):
        table, label, pair = dict(S3_TABLE), S3[0], (S3[3], S3[4])
        if case == "label outside":
            label, want = 7, "the label 7 on edge (1, 1) is outside the elements"
        elif case == "unhashable label":
            label, want = [0], "the label [0] on edge (1, 1) is outside the elements"
        elif case == "product outside":
            table[pair], want = "x", f"table entry {pair!r} is outside the elements"
        elif case == "unhashable product":
            table[pair], want = [0], f"table entry {pair!r} is outside the elements"
        else:
            del table[pair]
            want = f"multiplication table has no entry {pair!r}"
        with pytest.raises(InvalidArgument, match=f"^{re.escape(want)}$"):
            FiniteQuotient.from_group(S3, table, dict.fromkeys(FULL2.edges, label))

    @pytest.mark.parametrize("case", QUOTIENT_REFUSALS)
    def test_quotient_refusal_message(self, case):
        make, error, want = QUOTIENT_REFUSALS[case]
        with pytest.raises(error, match=f"^{re.escape(want)}$"):
            make()

    def test_group_has_no_lattice_reduce(self):
        table = {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}
        quot = FiniteQuotient.from_group((0, 1), table, {e: 0 for e in FULL2.edges})
        with pytest.raises(InvalidArgument):
            quot.reduce((1,))


def _power_bound_dtypes(g, n):
    """The dtype each period's class counts should have at the int64 limit
    2^8: object once some max A^j, j <= m, or trace A^m reaches it."""
    a = np.array(g.adjacency().tolist(), dtype=object)
    power, wide, out = np.identity(g.vertex_count, dtype=object), False, []
    for _ in range(n):
        power = power.dot(a)
        wide = wide or max(power.flat) >= 2**8
        out.append(np.dtype(object if wide or np.trace(power) >= 2**8 else np.int64))
    return out


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), past=st.integers(0, 2),
       group=st.booleans())
def test_walk_engine_switches_dtype_exactly(seed, k, past, group):
    """With the int64 limit lowered to 2^8, counted up to `past` periods
    after the first count that may reach it: int64, the switch and Python
    ints all run, and the counts per period and class still equal the
    brute-force enumeration's, over a lattice and over S3."""
    rng = np.random.default_rng(seed)
    g = random_strong_graph(rng, k, ensure_aperiodic=True)   # so the counts grow
    n = _power_bound_dtypes(g, 40).index(np.dtype(object)) + 1 + past
    assume(k**n <= 20_000)  # keeps the brute force small
    w = random_weights(rng, g, 2, unit_roof=True, value_range=1)
    if group:
        quot = FiniteQuotient.from_group(S3, S3_TABLE, {e: S3[rng.integers(6)] for e in g.edges})
    else:
        quot = FiniteQuotient.from_lattice(((2, 1), (0, 3)))
    brute, by_vector = Counter(), Counter()
    for word in brute_force_prime_cycles(g, n):
        c = PrimeCycle(word)
        brute[len(word), quot.cycle_class(w, c)] += 1
        by_vector[len(word), birkhoff(c, w).class_vector] += 1
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # classes no short cycle reaches
        patch.setattr(counting, "_INT64_LIMIT", 2.0**8)
        walks = counting._closed_walks(g, w, quot, n)
        prime = counting._prime_counts(walks, quot)
        table = trace_prime_counts_table(g, w, n)
        res = chebotarev_distribution(g, w, (), quot, n)
    assert [row.dtype for row in walks] == _power_bound_dtypes(g, n)
    keys = quot.all_class_keys()
    got = Counter({(m, key): v for m, row in enumerate(prime, 1)
                   for key, v in zip(keys, row.tolist()) if v})
    assert got == brute
    assert Counter({(m, b): v for m, row in table.items() for b, v in row.items()}) == by_vector
    assert res.counts == {key: sum(brute[m, key] for m in range(1, n + 1)) for key in keys}
    assert all(type(v) is int for v in [*res.counts.values(), *got.values()])


class TestChebotarev:
    def test_full2_small_depth(self):
        quot = FiniteQuotient.from_modulus(2, 1)
        res = chebotarev_distribution(FULL2, into2(), (), quot, 4)
        assert res.counts == {(0,): 3, (1,): 5}
        assert res.frequencies[(1,)] == pytest.approx(5 / 8)
        assert res.reference == {(0,): 0.5, (1,): 0.5}

    def test_zero_classes_warns(self):
        w = WeightSystem(
            b=0, meridians=1,
            roof={e: 1.0 for e in FULL2.edges},
            classes={e: (0,) for e in FULL2.edges},
        )
        quot = FiniteQuotient.from_modulus(2, 1)
        with pytest.warns(UserWarning):
            res = chebotarev_distribution(FULL2, w, (), quot, 5)
        assert res.frequencies[(0,)] == 1.0

    def test_empty_class_warning_names_the_period_bound(self, bench3):
        # the cycle classes generate Z^2, but period <= 18 bounds every
        # class coordinate, so most classes of Z^2 / diag(31, 37) stay empty
        quot = FiniteQuotient.from_lattice(((31, 0), (0, 37)))
        with pytest.warns(
            UserWarning, match=r"^858 of 1147 quotient classes .* period <= 18: the period bound"
        ):
            chebotarev_distribution(bench3.graph, bench3.weights, bench3.removed, quot, 18)

    def test_matches_enumeration_lattice(self, bench3):
        quot = FiniteQuotient.from_lattice(((2, 0), (0, 3)))
        res = chebotarev_distribution(
            bench3.graph, bench3.weights, bench3.removed, quot, 7
        )
        brute = Counter()
        rem = set(bench3.removed)
        for c in enumerate_prime_cycles(bench3.graph, 7):
            if c in rem:
                continue
            brute[quot.cycle_class(bench3.weights, c)] += 1
        assert res.counts == dict(brute) | {
            k: 0 for k in res.counts if k not in brute
        }

    def test_matches_character_sums(self, bench3):
        # Z^2 / diag(31, 37) is abelian, so the walk counts per class come
        # from characters alone, independently of the walk-count engine
        moduli, n = (31, 37), 18
        walks = character_sum_walks(bench3.graph, bench3.weights.classes, moduli, n)
        prime = abelian_prime_counts(walks, moduli, n)
        want = Counter()
        for m in range(1, n + 1):
            want.update(prime[m])
        for c in bench3.removed:
            vec = birkhoff(c, bench3.weights).class_vector
            want[tuple(x % q for x, q in zip(vec, moduli))] -= 1
        quot = FiniteQuotient.from_lattice(((31, 0), (0, 37)))
        with pytest.warns(UserWarning):
            res = chebotarev_distribution(
                bench3.graph, bench3.weights, bench3.removed, quot, n
            )
        got = {x: res.counts[quot.reduce(x)] for x in itertools.product(*map(range, moduli))}
        assert got == {x: want[x] for x in got}
        assert sum(want.values()) == res.total

    def test_matches_enumeration_group(self):
        labels = {
            (1, 1): (0, 1, 2),
            (1, 2): (1, 2, 0),   # 3-cycle
            (2, 1): (1, 0, 2),   # transposition
            (2, 2): (0, 2, 1),
        }
        quot = FiniteQuotient.from_group(S3, S3_TABLE, labels)
        res = chebotarev_distribution(FULL2, into2(), (), quot, 8)
        brute = Counter()
        for c in enumerate_prime_cycles(FULL2, 8):
            brute[quot.cycle_class(into2(), c)] += 1
        for key, cnt in res.counts.items():
            assert cnt == brute.get(key, 0)
        assert sum(res.counts.values()) == sum(brute.values())

    def test_deviation_shrinks_with_depth(self):
        quot = FiniteQuotient.from_modulus(2, 1)
        w = into2()

        def deviation(n):
            res = chebotarev_distribution(FULL2, w, (), quot, n)
            return max(
                abs(res.frequencies[k] - res.reference[k]) for k in res.counts
            )

        assert deviation(16) <= deviation(8) <= deviation(4)

    def test_removed_subtracted(self):
        quot = FiniteQuotient.from_modulus(2, 1)
        w = into2()
        with_rem = chebotarev_distribution(FULL2, w, (PrimeCycle((2,)),), quot, 4)
        without = chebotarev_distribution(FULL2, w, (), quot, 4)
        assert without.counts[(1,)] - with_rem.counts[(1,)] == 1
        assert without.counts[(0,)] == with_rem.counts[(0,)]

    def test_removed_cycles_drop_once_and_only_if_cycles_of_g(self, goldenmean):
        # like the scan and margulis_total: a cycle listed twice drops once,
        # and (2,), whose loop is not an edge of goldenmean, drops nothing
        g, w = goldenmean.graph, goldenmean.weights
        quot = FiniteQuotient.from_modulus(2, 1)
        kept = chebotarev_distribution(g, w, (), quot, 6)
        twice = (PrimeCycle((1,)),) * 2
        res = chebotarev_distribution(g, w, twice, quot, 6)
        assert res.total == kept.total - 1 == margulis_total(g, w, twice, 6.0).exact == 7
        absent = (PrimeCycle((2,)), PrimeCycle((1, 1, 2, 2)))
        assert chebotarev_distribution(g, w, absent, quot, 6).counts == kept.counts

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_period_bound_rejected(self, n):
        with pytest.raises(InvalidArgument, match=f"^period bound must be >= 1, got {n}$"):
            chebotarev_distribution(FULL2, into2(), (), FiniteQuotient.from_modulus(2, 1), n)


def test_counts_are_python_ints_on_both_sides_of_int64(bench3, full2):
    g = bench3.graph
    zero = WeightSystem(b=0, meridians=2, roof=dict.fromkeys(g.edges, 1.0),
                        classes=dict.fromkeys(g.edges, (0, 0)))
    values = [v for row in trace_prime_counts_table(g, zero, 45).values() for v in row.values()]
    values += [trace_prime_count(g, zero, n, (0, 0)) for n in (5, 45)]
    quot = FiniteQuotient.from_modulus(2, 1)
    for n in (6, 70):
        res = chebotarev_distribution(full2.graph, full2.weights, full2.removed, quot, n)
        values += [*res.counts.values(), res.total]
    for T in (20.0, 70.0):
        values.append(margulis_total(full2.graph, full2.weights, full2.removed, T,
                                     budget_cap=70).exact)
    assert min(values) < 2**63 < max(values)
    assert all(type(v) is int for v in values)


class TestEquidistribution:
    def test_roof_observable_is_exactly_one(self):
        w = into2()
        dd = solve_u(FULL2, w, [0.5])
        q = CountQuery(T=8.0, delta=2.0, rho=(0.5,), alpha=(0,))
        res = equidistribution_test(FULL2, w, dd, q, dict(w.roof))
        assert res.empirical == pytest.approx(1.0, abs=1e-12)
        assert res.expected == pytest.approx(1.0, abs=1e-12)

    def test_class_coordinate_expectation_is_rho(self):
        w = into2()
        dd = solve_u(FULL2, w, [0.25])
        q = CountQuery(T=12.0, delta=2.0, rho=(0.25,), alpha=(0,))
        phi = {e: float(w.classes[e][0]) for e in FULL2.edges}
        res = equidistribution_test(FULL2, w, dd, q, phi)
        assert res.expected == pytest.approx(0.25, abs=1e-8)
        assert res.empirical == pytest.approx(0.25, abs=0.05)

    def test_edge_indicator_uniform(self):
        w = into2()
        dd = solve_u(FULL2, w, [0.5])
        q = CountQuery(T=12.0, delta=2.0, rho=(0.5,), alpha=(0,))
        phi = {e: (1.0 if e == (1, 2) else 0.0) for e in FULL2.edges}
        res = equidistribution_test(FULL2, w, dd, q, phi)
        assert res.expected == pytest.approx(0.25, abs=1e-10)
        assert res.empirical == pytest.approx(0.25, abs=0.05)

    def test_empty_selection(self):
        w = into2()
        dd = solve_u(FULL2, w, [0.5])
        q = CountQuery(T=2.0, delta=0.5, rho=(0.5,), alpha=(5,))
        with pytest.raises(EmptySelection):
            equidistribution_test(FULL2, w, dd, q, dict(w.roof))


class TestJitterAverage:
    def test_matches_manual_mean(self):
        w = into2()
        dd = solve_u(FULL2, w, [0.5])
        T, delta = 9.0, 1.0
        manual = []
        for j in range(5):
            tj = T + j * delta / 5
            q = CountQuery(T=tj, delta=delta, rho=(0.5,), alpha=(0,))
            manual.append(
                exact_window_count(FULL2, w, q) / predict_count(FULL2, w, dd, q)
            )
        got = jitter_averaged_ratio(FULL2, w, dd, (0,), delta, T)
        assert got == pytest.approx(float(np.mean(manual)), rel=1e-12)

    def test_zero_prediction_gives_nan(self, full2):
        # exp(-<u, alpha>) underflows: the prediction is 0.0 in every window
        g, w = full2.graph, full2.weights
        dd = solve_u(g, w, [0.3])
        q = CountQuery(T=10.0, delta=1.0, rho=(0.3,), alpha=(-1000,))
        assert predict_count(g, w, dd, q) == 0.0
        assert math.isnan(jitter_averaged_ratio(g, w, dd, (-1000,), 1.0, 10.0))
        assert math.isnan(evaluate_query(g, w, dd, q).ratio)
        assert math.isnan(sweep(g, w, (0.3,), (-1000,), 1.0, [10.0])[0].ratio)
