"""Seeded inputs for each workload.

Inputs depend on the seed alone and are made without the program: interior
directions are oracle gradients at a seeded u, outside directions are
seeded points beyond the hull of the edge ratios c_e / r_e, and window
ends are re-drawn when a cycle length sits within 1e-9 of them.  Each list
holds more ops than a run can reach; a run that gets further starts the
list again.
"""

from __future__ import annotations

import random

import oracles

N_OPS = 64          # composite ops drawn per run (orbit_counts, class_walks)
ROUND_DUAL = 40     # dual_solves ops per round: 32 interior, 8 outside
N_DUAL_ROUNDS = 8

T_CENTRE = 20.0     # bench3 scans: about 20k cycles per scan
T_JITTER = 0.02     # window ends within +-0.02 of T_CENTRE: e^0.02, 2% work
FULL2_T = 20.0      # integer, so full2's lattice spectrum is counted whole
WARM_T = 14.0       # the warm-up op: the same calls on a small window
DELTA = 1.0
EDGE_TOL = 1e-9

CHEB_N = 26                 # lattice quotient period bound
LATTICES = ((31, 37), (29, 37), (31, 41), (29, 41))   # orders 1073-1271
GROUP_N = 12                # dihedral quotient period bound
DIHEDRAL = range(280, 301)  # D_N, order 2N
TRACE_N = 40                # 3^40 closed walks per period pass 2^63
LOOP_CLASSES = ((1, 0), (0, 1), (1, 1))

CLI_README = (
    "validate bench3",
    "show bench3",
    "pressure bench3 --u 0.25,-0.5",
    "entropy full2 --rho 0.3",
    "hull bench3 --n 6",
    "count full2 --T 10 --delta 1 --rho 0.5 --alpha 0",
    "predict full2 --T 10 --delta 1 --rho 0.5 --alpha 0",
    "sweep bench3 --Tmin 10 --Tmax 20 --step 2.5 --delta 1 --rho 0.31,0.05 --alpha 0,0",
    "margulis full2 --T 12",
    "chebotarev bench3 --quotient mod2x3 --n 18",
    "chebotarev full2 --mod 2 --n 18",
    "equidist full2 --T 10 --delta 2 --rho 0.5 --alpha 0 --obs 1>2=1",
    "check",
)
# inputs with a stated contract the program does not meet yet:
# (argv, exit code the contract asks for)
CLI_CONTRACT = (
    ("pressure bench3 --u abc", 2),
    ("count full2 --T 5 --delta 9 --rho 0.5 --alpha 0", 2),
    ("equidist full2 --T 10 --delta 2 --rho 0.5 --alpha 0 --obs junk", 2),
    ("chebotarev full2 --mod 0 --n 5", 2),
    ("hull full2 --n 0", 2),
    ("pressure full2 --u 800", 3),
    ("count bench3 --T 10 --delta 1 --rho 0.5 --alpha 0", 2),
)


POOL_SEED = 20261018
POOL_INTERIOR = 1024
POOL_OUTSIDE = 256
U_BOX = 0.6


def _interior(rng: random.Random, th, box: float):
    u = (rng.uniform(-box, box), rng.uniform(-box, box))
    return u, tuple(float(x) for x in th.gradient(u))


def dual_pool():
    """The fixed pool of dual_solves directions: u_seed of the interior
    ones (rho = grad P(u_seed)) and outside rho."""
    rng = random.Random(POOL_SEED)
    interior = [(rng.uniform(-U_BOX, U_BOX), rng.uniform(-U_BOX, U_BOX))
                for _ in range(POOL_INTERIOR)]
    hull = oracles.bench3_edge_ratio_hull()
    outside = []
    while len(outside) < POOL_OUTSIDE:
        rho = (rng.uniform(-0.5, 2.0), rng.uniform(-0.5, 1.0))
        if oracles.outside_distance(hull, rho) >= 0.02:
            outside.append(rho)
    return interior, outside


def orbit_counts(seed: int) -> dict:
    rng = random.Random(seed)
    th = oracles.bench3_thermo()
    orbits = oracles.bench3_orbits(T_CENTRE + T_JITTER)
    lengths = sorted(o["length"] for o in orbits)

    def clear(t):
        return all(abs(x - t) > EDGE_TOL and abs(x - (t - DELTA)) > EDGE_TOL for x in lengths)

    # a direction whose floor class is populated in every window drawn
    # below, and in the smaller warm-up window
    while True:
        u, rho = _interior(rng, th, 0.3)
        ts = []
        while len(ts) < N_OPS:
            t = T_CENTRE + rng.uniform(-T_JITTER, T_JITTER)
            if clear(t):
                ts.append(t)
        warm = WARM_T + rng.uniform(-T_JITTER, T_JITTER)
        if clear(warm) and all(_window(orbits, t, rho) > 0 for t in ts + [warm]):
            break
    return {"u_seed": u, "rho": rho, "alpha": (0, 0), "delta": DELTA,
            "T": ts, "warm_T": warm, "full2_T": FULL2_T}


def _window(orbits, t, rho) -> int:
    target = tuple(int(t * r // 1) for r in rho)
    return sum(o["count"] for o in orbits
               if t - DELTA < o["length"] <= t and o["class"] == target)


def _strata(items, key, n):
    items = sorted(items, key=key)
    return [items[k * len(items) // n:(k + 1) * len(items) // n] for k in range(n)]


def dual_solves(seed: int) -> dict:
    """Every round draws one direction from each stratum of the pool: the
    interior ones by |u_seed| (Newton steps grow with it), the outside ones
    by their distance beyond the hull, so each round has the same mix of
    op sizes whatever the seed."""
    rng = random.Random(seed)
    th = oracles.bench3_thermo()
    hull = oracles.bench3_edge_ratio_hull()
    interior, outside = dual_pool()
    n_out = ROUND_DUAL // 5
    inner = _strata(interior, lambda u: u[0] ** 2 + u[1] ** 2, ROUND_DUAL - n_out)
    outer = _strata(outside, lambda r: oracles.outside_distance(hull, r), n_out)
    ops = []
    for _ in range(N_DUAL_ROUNDS):
        us = [rng.choice(s) for s in inner]
        rhos = [rng.choice(s) for s in outer]
        rng.shuffle(us)
        rng.shuffle(rhos)
        for i in range(ROUND_DUAL):
            if i % 5 == 4:
                ops.append({"kind": "outside", "rho": rhos.pop()})
            else:
                u = us.pop()
                rho = tuple(float(x) for x in th.gradient(u))
                ops.append({"kind": "interior", "u_seed": u, "rho": rho,
                            "T": T_CENTRE, "delta": DELTA, "alpha": (0, 0)})
    return {"ops": ops, "round": ROUND_DUAL}


def class_walks(seed: int) -> dict:
    rng = random.Random(seed)
    ops = []
    for _ in range(N_OPS):
        loops = list(LOOP_CLASSES)
        rng.shuffle(loops)
        n_dih = rng.choice(DIHEDRAL)
        labels = {f"{i}>{j}": (rng.randrange(n_dih), rng.randrange(2))
                  for i in (1, 2, 3) for j in (1, 2, 3)}
        ops.append({"loop_classes": loops, "lattice": rng.choice(LATTICES),
                    "dihedral": n_dih, "labels": labels})
    return {"ops": ops, "trace_n": TRACE_N, "cheb_n": CHEB_N, "group_n": GROUP_N}


def cli_cold(seed: int) -> dict:
    rng = random.Random(seed)
    cases = [{"argv": _argv(c), "expect": 0} for c in CLI_README]
    cases += [{"argv": _argv(c), "expect": code} for c, code in CLI_CONTRACT]
    rng.shuffle(cases)
    return {"ops": cases}


def _argv(command: str) -> list[str]:
    return command.split(" ")


MAKE = {
    "orbit_counts": orbit_counts,
    "dual_solves": dual_solves,
    "class_walks": class_walks,
    "cli_cold": cli_cold,
}
