"""Checks every op output of a run against the oracles.

check(workload, inputs, ops) returns (n_failed, problems): an op fails when
the program raised or, for a CLI case, exited otherwise than its contract
says; problems lists each output of an op that did not fail and
disagrees with the independent computation.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

import oracles as o

REL = 1e-9


def _close(a, b, tol=REL):
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------

def orbit_counts(inp, ops):
    t_max = max(op["out"]["T"] for op in ops)
    orbits = o.bench3_orbits(t_max)
    th = o.bench3_thermo()
    h = th.pressure((0.0, 0.0))
    rho = np.asarray(inp["rho"])
    edges = sorted(o.BENCH3_EDGES)
    problems = []
    full2 = (o.full2_total(inp["full2_T"]),
             2.0 ** inp["full2_T"] / (inp["full2_T"] * math.log(2.0)))
    for op in ops:
        out, t = op["out"], op["out"]["T"]
        sel = [x for x in orbits if x["length"] <= t]
        want = Counter()
        for x in sel:
            want[(x["N"], x["class"])] += x["count"]
        got = Counter((o.length_to_integer(L), tuple(c))
                      for L, c in zip(out["lengths"], out["classes"]))
        if got != want:
            problems.append(f"T={t}: cycle_table differs from the BEST count "
                            f"({sum(got.values())} vs {sum(want.values())} cycles)")
        exact_len = {x["N"]: x["length"] for x in sel}
        if any(abs(L - exact_len.get(o.length_to_integer(L), math.inf)) > 1e-9
               for L in out["lengths"]):
            problems.append(f"T={t}: a cycle length is off its log-integer by > 1e-9")
        target = tuple(int(math.floor(t * r)) + a for r, a in zip(inp["rho"], inp["alpha"]))
        window = [x for x in sel if x["length"] > t - inp["delta"] and x["class"] == target]
        n_win = sum(x["count"] for x in window)
        if out["window"] != n_win:
            problems.append(f"T={t}: exact_window_count {out['window']} != {n_win}")
        total = sum(x["count"] for x in sel)
        if out["total"][0] != total or not _close(out["total"][1], math.exp(h * t) / (h * t)):
            problems.append(f"T={t}: margulis_total {out['total']} != {total}")
        u = np.asarray(out["u"])
        if np.abs(th.gradient(u) - rho).max() > 1e-6:
            problems.append("solve_u: gradient at u is not rho")
        for e, (emp, exp_, n) in zip(edges, out["equi"]):
            i = o.BENCH3_EDGES.index(e)
            phi = np.zeros(len(o.BENCH3_EDGES))
            phi[i] = 1.0
            want_emp = math.fsum(x["count"] * x["m"].get(e, 0) / x["length"]
                                 for x in window) / n_win
            if n != n_win or not _close(emp, want_emp) or not _close(exp_, th.expectation(u, phi), 1e-8):
                problems.append(f"T={t}: equidistribution on {e}: "
                                f"{(emp, exp_, n)} vs {(want_emp, n_win)}")
        if out["full2"][0] != full2[0] or not _close(out["full2"][1], full2[1]):
            problems.append(f"full2 total {out['full2']} != {full2}")
    return problems


def dual_solves(inp, ops):
    th = o.bench3_thermo()
    problems = []
    for op in ops:
        spec = inp["ops"][op["index"]]
        out = op["out"]
        if spec["kind"] == "outside":
            if out["membership"] != "outside":
                problems.append(f"rho={spec['rho']}: membership {out['membership']}, "
                                "but rho is outside the edge-ratio hull")
            continue
        u0, rho = np.asarray(spec["u_seed"]), np.asarray(spec["rho"])
        p = th.pressure(u0)
        want_pred = o.predicted_count(th, u0, rho, spec["T"], spec["delta"], spec["alpha"])
        if np.abs(np.asarray(out["u"]) - u0).max() > 1e-5:
            problems.append(f"solve_u(grad P({u0.tolist()})) returned {out['u']}")
        elif (not _close(out["entropy"], p - float(u0 @ rho), 1e-8)
              or not _close(out["pressure"], th.pressure(out["u"]))
              or not _close(out["predicted"], want_pred, 1e-5)):
            problems.append(f"u={u0.tolist()}: entropy/pressure/predicted "
                            f"{out['entropy'], out['pressure'], out['predicted']} vs "
                            f"{p - float(u0 @ rho), p, want_pred}")
    return problems


_z2_cache = {}


def _z2(loops, n):
    key = (tuple(map(tuple, loops)), n)
    if key not in _z2_cache:
        classes = {e: (0, 0) for e in o.BENCH3_EDGES}
        classes.update({(1, 1): tuple(loops[0]), (2, 2): tuple(loops[1]),
                        (3, 3): tuple(loops[2])})
        _z2_cache[key] = o.z2_prime_counts(classes, 3, n, n + 1)
    return _z2_cache[key]


def class_walks(inp, ops):
    problems = []
    n, n_cheb, n_group = inp["trace_n"], inp["cheb_n"], inp["group_n"]
    for op in ops:
        spec = inp["ops"][op["index"]]
        out = op["out"]
        # unit-roof trace table: necklace totals at every period, and every
        # class where the character sum is provably exact
        prime, exact = _z2(spec["loop_classes"], n)
        for m in range(1, n + 1):
            row = {tuple(k): v for k, v in out["trace"].get(str(m), [])}
            if sum(row.values()) != o.necklaces(3, m):
                problems.append(f"trace table period {m}: total {sum(row.values())} "
                                f"!= {o.necklaces(3, m)}")
            if exact[m] and row != prime[m]:
                problems.append(f"trace table period {m}: classes differ from the character sum")
        # lattice quotient by character sums, labels mapped through reduce()
        p, r = spec["lattice"]
        walks, ok = o.abelian_closed_walks(
            3, {e: o.BENCH3_CLASSES[e] for e in o.BENCH3_EDGES}, (p, r), n_cheb)
        if not all(ok.values()):
            problems.append("lattice character sum not exact")
        pc = o.abelian_prime_counts(walks, (p, r), n_cheb)
        want = sum(pc[m] for m in range(1, n_cheb + 1))
        want[1, 0] -= 1   # removed orbit (1): class (1, 0)
        want[0, 1] -= 1   # removed orbit (2): class (0, 1)
        label_of = {tuple(map(int, k.split(","))): tuple(v)
                    for k, v in out["lattice_label_of"].items()}
        got = {tuple(k): v for k, v in out["lattice"]}
        if len(set(label_of.values())) != p * r or set(label_of.values()) != set(got):
            problems.append(f"lattice {p}x{r}: labels are not one per class")
        elif any(got[label_of[(a, b)]] != want[a, b] for a in range(p) for b in range(r)):
            problems.append(f"lattice {p}x{r}: class counts differ from the character sum")
        # dihedral group by direct label products over Lyndon words
        labels = {tuple(int(v) for v in k.split(">")): tuple(v)
                  for k, v in spec["labels"].items()}
        want_g = o.dihedral_class_counts(spec["dihedral"], labels, 3, n_group,
                                         o.BENCH3_REMOVED)
        got_g = {frozenset(tuple(x) for x in k): v for k, v in out["group"] if v}
        if got_g != want_g:
            problems.append(f"D_{spec['dihedral']}: class counts differ from label products")
    return problems


# ---------------------------------------------------------------------------
# cli_cold

def _rows(stdout):
    lines = stdout.strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _vec(text):
    return [float(x) for x in text.split(";")]


def _cli_validate(argv, out):
    want = f"ok: bench3 (3 vertices, {len(o.BENCH3_EDGES)} edges, d=2)"
    return out.strip() == want


def _cli_show(argv, out):
    """The serialized model parses back to bench3 as published."""
    edges, chords, removed, quotients, head = [], {}, [], {}, {}
    tree = None
    for line in out.splitlines():
        if line.startswith("[edge]"):
            kv = dict(t.split("=") for t in line.split()[1:])
            edges.append(((int(kv["from"]), int(kv["to"])), kv["roof"]))
        elif line.startswith("[chords]"):
            tree = tuple(tuple(int(v) for v in t.split(">"))
                         for t in line.split("=", 1)[1].split(","))
        elif line.startswith("chord ="):
            e, vec = line.split("=", 1)[1].strip().split(":")
            chords[tuple(int(v) for v in e.split(">"))] = tuple(int(v) for v in vec.split(","))
        elif line.startswith("[removed]"):
            removed.append(tuple(int(v) for v in line.split("=", 1)[1].split(",")))
        elif line.startswith("[quotient]"):
            kv = dict(t.split("=") for t in line.split()[1:])
            quotients[kv["name"]] = kv["lattice"]
        elif " = " in line:
            k, v = line.split(" = ")
            head[k] = v
    return (head == {"name": "bench3", "b": "0", "n_removed": "2", "vertices": "3"}
            and edges == [(e, f"log({p})") for e, p in zip(o.BENCH3_EDGES, o.BENCH3_PRIMES)]
            and tree == o.BENCH3_TREE and chords == o.BENCH3_CHORDS
            and tuple(removed) == o.BENCH3_REMOVED
            and quotients == {"mod2x3": "2,0;0,3"})


def _cli_pressure(argv, out):
    head, rows = _rows(out)
    u = [float(x) for x in argv[argv.index("--u") + 1].split(",")]
    th = o.bench3_thermo()
    return (head == "u,pressure,gradient" and _vec(rows[0][0]) == u
            and _close(float(rows[0][1]), th.pressure(u))
            and np.abs(np.asarray(_vec(rows[0][2])) - th.gradient(u)).max() <= 1e-8)


def _cli_entropy(argv, out):
    head, rows = _rows(out)
    rho = float(argv[argv.index("--rho") + 1])
    r = rows[0]
    return (head == "rho,u,entropy,det_hessian"
            and _close(float(r[1]), o.full2_dual(rho), 1e-7)
            and _close(float(r[2]), o.binary_entropy(rho))
            and _close(float(r[3]), o.full2_entropy_det(rho), 1e-5))


def _cli_hull(argv, out):
    n = int(argv[argv.index("--n") + 1])
    pts = set()
    for word in o.lyndon_words(3, n):
        t = len(word)
        es = [(word[i], word[(i + 1) % t]) for i in range(t)]
        length = sum(o.BENCH3_ROOF[e] for e in es)
        cls = [sum(o.BENCH3_CLASSES[e][j] for e in es) for j in (0, 1)]
        pts.add((round(cls[0] / length, 9), round(cls[1] / length, 9)))
    hull = set(o.convex_hull(sorted(pts)))
    head, rows = _rows(out)
    got_pts = {tuple(round(x, 9) for x in _vec(r[1])) for r in rows if r[0] == "point"}
    got_hull = {tuple(round(x, 9) for x in _vec(r[1])) for r in rows if r[0] == "vertex"}
    return head == "role,coords" and rows[0] == ["dim", "2"] and got_pts == pts and got_hull == hull


def _full2_query(argv):
    get = lambda k: argv[argv.index(k) + 1]  # noqa: E731
    return float(get("--T")), float(get("--delta")), float(get("--rho")), int(get("--alpha"))


def _cli_count(argv, out):
    T, delta, rho, alpha = _full2_query(argv)
    target = math.floor(T * rho) + alpha
    want = sum(o.full2_class_count(n, target) for n in range(1, int(T) + 1)
               if T - delta < n <= T and 0 <= target <= n)
    head, rows = _rows(out)
    return (head == "T,delta,target_class,exact"
            and rows[0] == [repr(T), repr(delta), str(target), str(want)] and want == 25)


def _full2_predicted(T, delta, rho, alpha):
    u = o.full2_dual(rho)
    p = o.full2_pressure(u)
    det = abs(o.full2_entropy_det(rho))
    window = (1.0 - math.exp(-p * delta)) / p
    frac = T * rho - math.floor(T * rho)
    expo = o.binary_entropy(rho) * T + u * frac - u * alpha
    return math.sqrt(det) / math.sqrt(2 * math.pi) * window * math.exp(expo) / T ** 1.5


def _cli_predict(argv, out):
    T, delta, rho, alpha = _full2_query(argv)
    head, rows = _rows(out)
    return (head == "T,delta,target_class,predicted"
            and _close(float(rows[0][3]), _full2_predicted(T, delta, rho, alpha), 1e-6))


def _cli_sweep(argv, out):
    get = lambda k: argv[argv.index(k) + 1]  # noqa: E731
    rho = _vec(get("--rho").replace(",", ";"))
    delta = float(get("--delta"))
    t_min, t_max, step = float(get("--Tmin")), float(get("--Tmax")), float(get("--step"))
    orbits = o.bench3_orbits(t_max)
    th = o.bench3_thermo()
    u = th.solve_u(rho)
    head, rows = _rows(out)
    if head != "T,delta,target_class,exact,predicted,ratio":
        return False
    ts = []
    t = t_min
    while t <= t_max + 1e-12:
        ts.append(t)
        t += step
    if len(rows) != len(ts):
        return False
    for t, r in zip(ts, rows):
        target = tuple(int(math.floor(t * x)) for x in rho)
        exact = sum(x["count"] for x in orbits
                    if t - delta < x["length"] <= t and x["class"] == target)
        pred = o.predicted_count(th, u, rho, t, delta, (0, 0))
        if (float(r[0]) != t or tuple(int(v) for v in r[2].split(";")) != target
                or int(r[3]) != exact or not _close(float(r[4]), pred, 1e-5)
                or not _close(float(r[5]), exact / pred, 1e-5)):
            return False
    return True


def _cli_margulis(argv, out):
    T = float(argv[argv.index("--T") + 1])
    ref = 2.0 ** T / (T * math.log(2.0))
    head, rows = _rows(out)
    r = rows[0]
    return (head == "T,exact,reference,ratio" and int(r[1]) == o.full2_total(T) == 746
            and _close(float(r[2]), ref) and _close(float(r[3]), int(r[1]) / ref))


def _cli_chebotarev(argv, out):
    n = int(argv[argv.index("--n") + 1])
    if argv[1] == "bench3":
        moduli, k = (2, 3), 3
        classes = o.BENCH3_CLASSES
        removed = [(1, 0), (0, 1)]
    else:
        moduli, k = (2,), 2
        classes = o.FULL2_CLASSES
        removed = [(1,)]
    walks, ok = o.abelian_closed_walks(k, classes, moduli, n)
    pc = o.abelian_prime_counts(walks, moduli, n)
    want = sum(pc[m] for m in range(1, n + 1))
    for cls in removed:
        want[tuple(c % q for c, q in zip(cls, moduli))] -= 1
    head, rows = _rows(out)
    counts = [int(r[1]) for r in rows]
    total = sum(counts)
    order = int(np.prod(moduli))
    return (head == "class,count,frequency,reference" and all(ok.values())
            and sorted(counts) == sorted(int(x) for x in want.flat)
            and all(_close(float(r[2]), int(r[1]) / total) for r in rows)
            and all(_close(float(r[3]), 1.0 / order) for r in rows))


def _cli_equidist(argv, out):
    T, delta, rho, alpha = _full2_query(argv)
    target = math.floor(T * rho) + alpha
    obs = argv[argv.index("--obs") + 1]
    edge, value = obs.split("=")
    e = tuple(int(v) for v in edge.split(">"))
    avgs = []
    for word in o.lyndon_words(2, int(T)):
        t = len(word)
        if not (T - delta < t <= T) or word.count(2) != target or word in o.FULL2_REMOVED:
            continue
        hits = sum(1 for i in range(t) if (word[i], word[(i + 1) % t]) == e)
        avgs.append(float(value) * hits / t)
    phi = np.array([float(value) if x == e else 0.0 for x in o.FULL2_EDGES])
    expected = o.full2_thermo().expectation([o.full2_dual(rho)], phi)
    head, rows = _rows(out)
    r = rows[0]
    return (head == "empirical,expected,n_orbits" and int(r[2]) == len(avgs)
            and _close(float(r[0]), math.fsum(avgs) / len(avgs))
            and _close(float(r[1]), expected, 1e-8))


def _cli_check(argv, out):
    lines = out.strip().splitlines()
    return len(lines) == 6 and all(line.startswith(f"[{i}] PASS") for i, line in enumerate(lines, 1))


CLI = {
    "validate": _cli_validate, "show": _cli_show, "pressure": _cli_pressure,
    "entropy": _cli_entropy, "hull": _cli_hull, "count": _cli_count,
    "predict": _cli_predict, "sweep": _cli_sweep, "margulis": _cli_margulis,
    "chebotarev": _cli_chebotarev, "equidist": _cli_equidist, "check": _cli_check,
}


def cli_cold(inp, ops):
    problems = []
    for op in ops:
        out = op["out"]
        try:
            ok = CLI[out["argv"][0]](out["argv"], out["stdout"])
        except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
            ok = False
            problems.append(f"{' '.join(out['argv'])}: unreadable output ({exc!r})")
            continue
        if not ok:
            problems.append(f"{' '.join(out['argv'])}: output differs from the oracle")
    return problems


def failed(workload, op) -> bool:
    """Did the op fail: the program raised, or a CLI case broke its exit
    contract (the code it names; never a traceback)."""
    out = op["out"]
    if "error" in out:
        return True
    if workload == "cli_cold":
        return out["code"] != out["expect"] or "Traceback" in out["stderr"]
    return False


CHECKS = {
    "orbit_counts": orbit_counts,
    "dual_solves": dual_solves,
    "class_walks": class_walks,
    "cli_cold": cli_cold,
}


def check(workload, inp, ops):
    bad = [op for op in ops if failed(workload, op)]
    good = [op for op in ops if not failed(workload, op)]
    # a contract case that meets its contract has no output to compare
    if workload == "cli_cold":
        good = [op for op in good if op["out"]["expect"] == 0]
    problems = CHECKS[workload](inp, good) if good else []
    return len(bad), problems
