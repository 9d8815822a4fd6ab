"""Closed-form and oracle checks runnable from the command line.

Each check returns (ok, detail).  These are the fast library-level
gates: eigenvalue exactness, pressure closed forms, derivative
consistency, duality round trips, the entropy maximum, and agreement of
the two independent counting routes.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np

from .counting import trace_prime_counts_table
from .graphs import scan_cycles
from .legendre import entropy_hessian, solve_u
from .models import builtin_model
from .thermo import flow_pressure, perron, pressure_gradient, pressure_hessian

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _time_call(fn) -> float:
    """Best wall time of five calls."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def check_perron_exactness():
    """Perron data on the golden-mean and all-ones matrices."""
    golden_mat = [[1.0, 1.0], [1.0, 0.0]]
    ones3 = np.ones((3, 3))
    pd_golden = perron(golden_mat)
    pd_ones = perron(ones3)
    err_golden = abs(pd_golden.eigenvalue - GOLDEN)
    err_ones = abs(pd_ones.eigenvalue - 3.0)
    t_golden = _time_call(lambda: perron(golden_mat))
    t_ones = _time_call(lambda: perron(ones3))
    ok = err_golden <= 1e-10 and err_ones <= 1e-12 and t_golden < 1e-3 and t_ones < 1e-3
    return ok, (
        f"golden-mean err {err_golden:.2e} ({t_golden * 1e6:.0f} us), "
        f"all-ones err {err_ones:.2e} ({t_ones * 1e6:.0f} us)"
    )


def check_pressure_closed_forms():
    """flow_pressure matches log(1+e^u) on full2 and log(golden) on
    goldenmean."""
    full2 = builtin_model("full2")
    gm = builtin_model("goldenmean")
    worst = 0.0
    for u in (-3.0, -1.0, 0.0, 1.0, 3.0):
        got = flow_pressure(full2.graph, full2.weights, [u])
        worst = max(worst, abs(got - math.log1p(math.exp(u))))
    gm_err = abs(flow_pressure(gm.graph, gm.weights, [0.0]) - math.log(GOLDEN))
    ok = worst <= 1e-9 and gm_err <= 1e-9
    return ok, f"full2 worst err {worst:.2e}, goldenmean err {gm_err:.2e}"


def check_gradient_consistency():
    """pressure_gradient vs central differences of flow_pressure at 20
    random u per model, and Hessian symmetry / positive semidefiniteness
    at 3 more, all drawn from seed 2301."""
    rng = np.random.default_rng(2301)
    worst_rel = 0.0
    worst_eig = math.inf
    for model_name in ("full2", "bench3"):
        m = builtin_model(model_name)
        d = m.weights.dimension
        for _ in range(20):
            u = rng.uniform(-2.0, 2.0, size=d)
            grad = pressure_gradient(m.graph, m.weights, u)
            fd = np.empty(d)
            for i in range(d):
                h = 1e-4 * max(1.0, abs(u[i]))
                e = np.zeros(d)
                e[i] = h
                fd[i] = (
                    flow_pressure(m.graph, m.weights, u + e)
                    - flow_pressure(m.graph, m.weights, u - e)
                ) / (2.0 * h)
            rel = float(np.abs(grad - fd).max() / max(np.abs(grad).max(), 1e-9))
            worst_rel = max(worst_rel, rel)
        for _ in range(3):
            u = rng.uniform(-2.0, 2.0, size=d)
            hess = pressure_hessian(m.graph, m.weights, u)
            if np.abs(hess - hess.T).max() != 0.0:
                return False, "Hessian not symmetric after symmetrization"
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(hess).min()))
    ok = worst_rel <= 1e-6 and worst_eig >= -1e-8
    return ok, f"worst rel grad err {worst_rel:.2e}, min Hessian eig {worst_eig:.2e}"


def _binary_entropy(p: float) -> float:
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def check_legendre_roundtrip():
    """Dual solve on full2: gradient round trip, binary entropy, and the
    entropy Hessian value -4 at rho = 1/2."""
    m = builtin_model("full2")
    worst_rt = 0.0
    worst_ent = 0.0
    for i in range(1, 20):
        rho = 0.05 * i
        dd = solve_u(m.graph, m.weights, [rho])
        rt = abs(float(pressure_gradient(m.graph, m.weights, dd.u)[0]) - rho)
        ent = abs(dd.entropy - _binary_entropy(rho))
        worst_rt = max(worst_rt, rt)
        worst_ent = max(worst_ent, ent)
    dd_half = solve_u(m.graph, m.weights, [0.5])
    hess_err = abs(float(entropy_hessian(dd_half)[0, 0]) + 4.0)
    ok = worst_rt <= 1e-8 and worst_ent <= 1e-8 and hess_err <= 1e-5
    return ok, (
        f"worst roundtrip {worst_rt:.2e}, worst entropy err {worst_ent:.2e}, "
        f"entropy Hessian err at 1/2 {hess_err:.2e}"
    )


def check_entropy_extremum():
    """The entropy maximum over the rho grid equals flow_pressure(0),
    attained at the gradient of the pressure at 0."""
    m = builtin_model("full2")
    h_top = flow_pressure(m.graph, m.weights, [0.0])
    rho_star = float(pressure_gradient(m.graph, m.weights, [0.0])[0])
    best = (-math.inf, None)
    for i in range(1, 20):
        rho = 0.05 * i
        dd = solve_u(m.graph, m.weights, [rho])
        if dd.entropy > best[0]:
            best = (dd.entropy, rho)
    gap = abs(best[0] - h_top)
    arg_gap = abs(best[1] - rho_star)
    ok = gap <= 1e-6 and arg_gap <= 1e-6
    return ok, (
        f"max entropy {best[0]:.9f} at rho {best[1]:.3f}; "
        f"pressure(0) {h_top:.9f}, gradient(0) {rho_star:.6f}"
    )


def check_oracle_equivalence(n_top: int = 12):
    """The scanned prime cycles, counted by (period, class), agree with the
    walk-trace oracle for all periods <= n_top, on full2 and goldenmean."""
    for model_name in ("full2", "goldenmean"):
        m = builtin_model(model_name)
        table = trace_prime_counts_table(m.graph, m.weights, n_top)
        oracle = Counter({(n, beta): c for n, row in table.items() for beta, c in row.items()})
        scan = scan_cycles(m.graph, m.weights.roof, m.weights.classes, n_top)
        found = Counter(zip(scan.period.tolist(), map(tuple, scan.classes.tolist())))
        for n, beta in sorted(oracle.keys() | found.keys()):
            if found[n, beta] != oracle[n, beta]:
                return False, (f"{model_name}: period {n} class {beta}: "
                               f"enumeration {found[n, beta]}, oracle {oracle[n, beta]}")
    return True, f"all periods <= {n_top}, all classes, both models"


ALL_CHECKS = (
    ("perron exactness", check_perron_exactness),
    ("pressure closed forms", check_pressure_closed_forms),
    ("gradient/Hessian consistency", check_gradient_consistency),
    ("Legendre roundtrip and entropy", check_legendre_roundtrip),
    ("entropy extremum", check_entropy_extremum),
    ("oracle equivalence", check_oracle_equivalence),
)


def run_all_checks() -> bool:
    """Run every check, printing one PASS/FAIL line each."""
    all_ok = True
    for idx, (label, fn) in enumerate(ALL_CHECKS, 1):
        ok, detail = fn()
        all_ok = all_ok and ok
        print(f"[{idx}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    return all_ok
