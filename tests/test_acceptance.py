"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion with the measured values.  Criteria 1-6 are the fast
closed-form and oracle gates (also reachable through the command line as
`orbitflow check`).  Criteria 7-11 exercise the counting stack at desk
scale; criterion 12 is the command line contract.

The fixed documented dual parameter for criteria 7 and 10 is
U_DOC = (-0.25, 0.0); the tested direction is the pressure gradient
there, which is interior by construction.
"""

import itertools
import math
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from orbitflow import (
    CountQuery,
    FiniteQuotient,
    PrimeCycle,
    birkhoff,
    builtin_model,
    chebotarev_distribution,
    enumerate_prime_cycles,
    equidistribution_test,
    exact_window_count,
    generation_check,
    jitter_averaged_ratio,
    lattice_length_heuristic,
    margulis_total,
    parse_model,
    pressure_gradient,
    serialize_model,
    solve_u,
)
from orbitflow.checks import (
    check_entropy_extremum,
    check_gradient_consistency,
    check_legendre_roundtrip,
    check_oracle_equivalence,
    check_perron_exactness,
    check_pressure_closed_forms,
)

from conftest import random_strong_graph, random_weights

U_DOC = (-0.25, 0.0)

T_GRID = (15.0, 17.5, 20.0, 22.5, 25.0)
DELTA = 1.0
BUDGET = 40


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def bench3_setup():
    """The model and the dual solve shared by the heavy bench3 criteria."""
    m = builtin_model("bench3")
    return m, solve_u(m.graph, m.weights, pressure_gradient(m.graph, m.weights, U_DOC))


def test_criterion_01_perron_exactness():
    ok, detail = check_perron_exactness()
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_02_pressure_closed_forms():
    ok, detail = check_pressure_closed_forms()
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_03_gradient_hessian_consistency():
    ok, detail = check_gradient_consistency()
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_04_legendre_roundtrip():
    ok, detail = check_legendre_roundtrip()
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_05_entropy_extremum():
    ok, detail = check_entropy_extremum()
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_06_oracle_equivalence():
    t0 = time.perf_counter()
    ok, detail = check_oracle_equivalence(n_top=12)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    detail = f"{detail} ({elapsed:.1f}s)"
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_07_counting_ratio_band(bench3_setup):
    m, dd = bench3_setup
    t0 = time.perf_counter()
    ratios = [
        jitter_averaged_ratio(
            m.graph, m.weights, dd, (0, 0), DELTA, T,
            removed=m.removed, budget_cap=BUDGET,
        )
        for T in T_GRID
    ]
    elapsed = time.perf_counter() - t0
    in_band = all(0.4 <= r <= 2.5 for r in ratios)
    first3 = max(ratios[:3]) - min(ratios[:3])
    last3 = max(ratios[2:]) - min(ratios[2:])
    narrowing = last3 <= first3
    ok = in_band and narrowing and elapsed < 300.0
    detail = (
        f"ratios {[round(r, 3) for r in ratios]} at u = {U_DOC}; "
        f"range first3 {first3:.3f} vs last3 {last3:.3f} ({elapsed:.1f}s)"
    )
    _report(7, ok, detail)
    assert ok, detail


def _necklace_total(n_max: int) -> int:
    """Prime cycles of the full 2-shift with period <= n_max: the primitive
    necklaces a(n), from 2^n = sum over d | n of d a(d) (the Mobius
    inversion a(n) = (1/n) sum over d | n of mu(n/d) 2^d)."""
    a = {}
    for n in range(1, n_max + 1):
        a[n] = (2**n - sum(d * a[d] for d in range(1, n) if n % d == 0)) // n
    return sum(a.values())


def test_criterion_08_margulis_trend():
    """Total-count growth law on full2, T = 14 against T = 7.

    full2 has unit roof, so every orbit length is an integer; the length
    spectrum sits on eps * Z with eps = 1, which lattice_length_heuristic
    flags.  On such a spectrum the prime orbit count is a sum over lattice
    points, N(T) ~ e^(hL)/(hL) * h eps / (1 - e^(-h eps)) with
    L = eps * floor(T / eps) (Parry & Pollicott, Asterisque 187-188, 1990),
    so the raw ratio against the non-lattice law e^(hT)/(hT) tends to
    2 log 2 ~ 1.386 along integer T (1.50 at T = 14) and can never enter
    the band.  The exact count is pinned to the necklace closed form
    (40 at T = 7, 2537 at T = 14, the removed fixed point excluded) and
    MargulisCount.reference to e^(hT)/(hT); the band and the trend are
    asserted on exact / (reference corrected for the lattice), which is
    1.0938 at T = 7, 1.0839 at T = 14 and falls to 1.048 by T = 24.
    """
    m = builtin_model("full2")
    h = math.log(2.0)
    t0 = time.perf_counter()
    r14 = margulis_total(m.graph, m.weights, m.removed, 14.0)
    r7 = margulis_total(m.graph, m.weights, m.removed, 7.0)
    elapsed = time.perf_counter() - t0
    flags = lattice_length_heuristic(m.graph, m.weights, 6, (0.25, 0.5, 1.0, 1.5, 2.0))
    assert 1.0 in flags, f"lattice scales flagged on full2: {flags}"
    eps = max(flags)

    for r, T in ((r7, 7.0), (r14, 14.0)):
        assert r.reference == pytest.approx(math.exp(h * T) / (h * T), rel=1e-12)
        assert r.exact == _necklace_total(math.floor(T)) - len(m.removed)
    assert (r7.exact, r14.exact) == (40, 2537)

    def lattice_law(T):
        L = eps * math.floor(T / eps)
        return math.exp(h * L) / (h * L) * h * eps / (1.0 - math.exp(-h * eps))

    ratio14 = r14.exact / lattice_law(14.0)
    ratio7 = r7.exact / lattice_law(7.0)
    in_band = 0.8 <= ratio14 <= 1.3
    closer = abs(ratio14 - 1.0) < abs(ratio7 - 1.0)
    ok = in_band and closer and elapsed < 10.0
    detail = (
        f"lattice-corrected ratio(T=14) {ratio14:.4f} (band [0.8, 1.3]: {in_band}), "
        f"ratio(T=7) {ratio7:.4f} (closer-to-1: {closer}) at eps = {eps}; "
        f"exact {r7.exact}, {r14.exact}; raw ratio(T=14) "
        f"{r14.exact / r14.reference:.4f} ({elapsed:.1f}s)"
    )
    _report(8, ok, detail)
    assert ok, detail


def test_criterion_09_chebotarev():
    t0 = time.perf_counter()
    full2 = builtin_model("full2")
    res2 = chebotarev_distribution(
        full2.graph, full2.weights, full2.removed,
        FiniteQuotient.from_modulus(2, 1), 18,
    )
    dev2 = max(abs(res2.frequencies[k] - res2.reference[k]) for k in res2.counts)
    bench = builtin_model("bench3")
    res6 = chebotarev_distribution(
        bench.graph, bench.weights, bench.removed,
        FiniteQuotient.from_lattice(((2, 0), (0, 3))), 18,
    )
    dev6 = max(abs(res6.frequencies[k] - res6.reference[k]) for k in res6.counts)
    elapsed = time.perf_counter() - t0
    ok = dev2 <= 0.05 and dev6 <= 0.05 and elapsed < 60.0
    detail = (
        f"full2 mod 2 deviation {dev2:.5f}, bench3 mod (2,3) deviation "
        f"{dev6:.5f} at n_max = 18 ({elapsed:.1f}s)"
    )
    _report(9, ok, detail)
    assert ok, detail


def test_criterion_10_equidistribution(bench3_setup):
    m, dd = bench3_setup
    q = CountQuery(T=25.0, delta=DELTA, rho=dd.rho, alpha=(0, 0), removed=m.removed)
    worst = 0.0
    worst_edge = None
    for e in sorted(m.graph.edges):
        phi = {edge: (1.0 if edge == e else 0.0) for edge in m.graph.edges}
        res = equidistribution_test(m.graph, m.weights, dd, q, phi, budget_cap=BUDGET)
        gap = abs(res.empirical - res.expected)
        if gap > worst:
            worst, worst_edge = gap, e
    ok = worst <= 0.05
    detail = f"worst |empirical - expected| {worst:.4f} on edge {worst_edge} over {res.n_orbits} orbits"
    _report(10, ok, detail)
    assert ok, detail


def _det(sub):
    n = len(sub)
    if n == 1:
        return sub[0][0]
    if n == 2:
        return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in sub[1:]]
        total += (-1) ** j * sub[0][j] * _det(minor)
    return total


def _minor_gcd_invariants(rows, d):
    """Brute-force lattice invariants from gcds of k x k minors."""
    uniq = sorted(set(tuple(r) for r in rows if any(r)))
    if not uniq:
        return (), 0
    gcds = [1]
    for k in range(1, d + 1):
        g = 0
        for ris in itertools.combinations(range(len(uniq)), k):
            for cis in itertools.combinations(range(d), k):
                g = math.gcd(g, abs(_det([[uniq[r][c] for c in cis] for r in ris])))
        if g == 0:
            break
        gcds.append(g)
    invariants = tuple(gcds[k] // gcds[k - 1] for k in range(1, len(gcds)))
    return invariants, len(invariants)


def test_criterion_11_generation_and_exclusion():
    rng = np.random.default_rng(1105)
    all_ok = True
    notes = []
    for trial in range(5):
        g = random_strong_graph(rng, int(rng.integers(3, 5)), ensure_aperiodic=True)
        d = 1 if trial < 3 else 2
        w = random_weights(rng, g, d, unit_roof=True, value_range=1)
        got = generation_check(g, w, 10)
        rows = [birkhoff(c, w).class_vector for c in enumerate_prime_cycles(g, 10)]
        invariants, rank = _minor_gcd_invariants(rows, d)
        match = got.lattice_invariants == invariants and got.rank == rank
        expected_generates = rank == d and all(x == 1 for x in invariants)
        match = match and got.generates == expected_generates
        all_ok = all_ok and match
        notes.append(f"g{trial}:{'ok' if match else 'MISMATCH'}")
        # removal is an O(1) perturbation of every total count
        removed = tuple(enumerate_prime_cycles(g, 2))[:2]
        for T in (4.0, 6.0, 8.0, 10.0):
            full = margulis_total(g, w, (), T).exact
            excl = margulis_total(g, w, removed, T).exact
            if not 0 <= full - excl <= len(removed):
                all_ok = False
                notes.append(f"g{trial}: removal not O(1) at T={T}")
    # the same O(1) property on the builtin window counts
    full2 = builtin_model("full2")
    for T in (6.0, 9.0, 12.0):
        q_with = CountQuery(T=T, delta=T, rho=(0.0,), alpha=(1,), removed=full2.removed)
        q_without = CountQuery(T=T, delta=T, rho=(0.0,), alpha=(1,))
        diff = exact_window_count(full2.graph, full2.weights, q_without) - exact_window_count(
            full2.graph, full2.weights, q_with
        )
        if not 0 <= diff <= len(full2.removed):
            all_ok = False
            notes.append(f"full2 window removal at T={T}: diff {diff}")
    detail = "; ".join(notes)
    _report(11, all_ok, detail)
    assert all_ok, detail


def test_criterion_12_cli_contract():
    ok = True
    notes = []
    for name in ("full2", "goldenmean", "bench3"):
        m = builtin_model(name)
        if parse_model(serialize_model(m)) != m:
            ok = False
            notes.append(f"{name}: roundtrip mismatch")
    proc = subprocess.run(
        [sys.executable, "-m", "orbitflow.cli", "check"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        ok = False
        notes.append(f"check exited {proc.returncode}")
    pass_lines = [line for line in proc.stdout.splitlines() if "PASS" in line]
    if len(pass_lines) != 6:
        ok = False
        notes.append(f"expected 6 PASS lines, saw {len(pass_lines)}")
    detail = "; ".join(notes) if notes else "roundtrips ok, check exited 0 with 6 PASS lines"
    _report(12, ok, detail)
    assert ok, detail
