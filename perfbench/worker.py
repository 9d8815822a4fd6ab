"""Benchmark worker: sets up one workload, runs its ops for a given time and
writes each op's CPU time and outputs, one JSON object per line.

Run by run.py with BLAS threads pinned to 1 and src/ on PYTHONPATH.  Set-up
time starts after the worker's own standard-library imports and covers
`import orbitflow`, building the models and inputs and one warm-up op; the
worker imports nothing else (numpy only once the program has).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

# The reference kernel: pure-Python recursion, 3x3 eig calls and dict
# updates with tuple keys, the three kinds of work the program does.  Of
# the candidates tried, their sum tracked the CPU time of scans, walk
# counts and dual solves best from moment to moment.
KERNEL_SRC = """
def walk(depth):
    return 1 if depth == 0 else walk(depth - 1) + walk(depth - 1) + walk(depth - 1)

def kernel():
    import numpy as np

    walk(9)
    m = np.array([[0.5, 1.25, 0.75], [1.0, 0.25, 2.0], [0.125, 1.5, 0.5]])
    for i in range(150):
        np.linalg.eig(m + i * 1e-3)
    d = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        d[key] = d.get(key, 0) + i
"""
K_REF = 0.010        # nominal kernel CPU seconds: the unit's reference speed
REF_CHILD = [sys.executable, "-c", KERNEL_SRC + "kernel()\n"]
K_CHILD = 0.375      # nominal CPU seconds of the reference child
PY_DEPTH = 10        # set-up kernel: 3^10 leaves of the recursion, no numpy
PY_REF = 0.0065      # its nominal CPU seconds
_KERNEL = {}
exec(KERNEL_SRC, _KERNEL)


def py_kernel_cpu() -> float:
    """The recursion alone, which runs before numpy is imported: it scales
    set-up time, which is mostly interpreter work."""
    c = time.process_time()
    _KERNEL["walk"](PY_DEPTH)
    return time.process_time() - c


_BEFORE = [py_kernel_cpu() for _ in range(3)]
_START_CPU = time.process_time()


def kernel_cpu() -> float:
    """CPU time of the reference kernel: the host's speed right now."""
    c = time.process_time()
    _KERNEL["kernel"]()
    return time.process_time() - c


class Meter:
    """CPU time of an op, segment by segment.  The kernel runs just before
    and just after each segment; the segment's CPU time times K_REF / (mean
    kernel time) is its time at the reference host speed (the host's speed
    drifts by up to 2x between and within runs, and the kernel tracks it)."""

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0

    def _add(self, cpu, kernel, ref):
        self.raw += cpu
        self.scaled += cpu * ref / kernel

    def call(self, fn, *args, **kwargs):
        before = kernel_cpu()
        c = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu = time.process_time() - c
            self._add(cpu, 0.5 * (before + kernel_cpu()), K_REF)

    def child(self, argv, scratch):
        """A child process is scaled by a reference child run just before
        it: a fresh interpreter that imports numpy and runs the kernel, so
        process start and import are in the reference too."""
        k = run_child(REF_CHILD, scratch)["cpu"]
        res = run_child(argv, scratch)
        self._add(res["cpu"], k, K_CHILD)
        return res


def write(fh, **record):
    fh.write(json.dumps(record) + "\n")
    fh.flush()


# ---------------------------------------------------------------------------
# workloads: __init__(of, inputs) builds the models and inputs; run(i, meter)
# runs op i, timing each call into the program with the meter, and returns
# its outputs; a round is round_size() ops

class OrbitCounts:
    """One op: every bench3 counter at one T near 20, plus the full2 total."""

    def __init__(self, of, inp):
        self.of = of
        self.inp = inp
        self.bench = of.builtin_model("bench3")
        self.full2 = of.builtin_model("full2")
        g, w = self.bench.graph, self.bench.weights
        self.dd = of.solve_u(g, w, inp["rho"])
        self.phis = [{e: float(e == hot) for e in g.edges} for hot in sorted(g.edges)]

    def n_ops(self):
        return len(self.inp["T"])

    def round_size(self):
        return 1

    def run(self, i, meter, t=None):
        of, inp, m, f2 = self.of, self.inp, self.bench, self.full2
        g, w = m.graph, m.weights
        t = inp["T"][i] if t is None else t
        q = of.CountQuery(T=t, delta=inp["delta"], rho=inp["rho"],
                          alpha=inp["alpha"], removed=m.removed)
        table = meter.call(of.cycle_table, g, w, t, removed=m.removed)
        window = meter.call(of.exact_window_count, g, w, q)
        total = meter.call(of.margulis_total, g, w, m.removed, t)
        equi = [meter.call(of.equidistribution_test, g, w, self.dd, q, phi)
                for phi in self.phis]
        f2_total = meter.call(of.margulis_total, f2.graph, f2.weights, f2.removed,
                              inp["full2_T"])
        return {
            "T": t,
            "lengths": table[0].tolist(),
            "classes": table[1].tolist(),
            "window": window,
            "total": [total.exact, total.reference],
            "equi": [[r.empirical, r.expected, r.n_orbits] for r in equi],
            "u": list(self.dd.u),
            "full2": [f2_total.exact, f2_total.reference],
        }

    def warm_up(self):
        self.run(0, Meter(), t=self.inp["warm_T"])


class DualSolves:
    """Interior ops: solve_u then predict_count; outside ops: membership."""

    def __init__(self, of, inp):
        self.of = of
        self.inp = inp
        self.bench = of.builtin_model("bench3")

    def n_ops(self):
        return len(self.inp["ops"])

    def round_size(self):
        return self.inp["round"]

    def run(self, i, meter):
        of, m = self.of, self.bench
        g, w = m.graph, m.weights
        op = self.inp["ops"][i]
        if op["kind"] == "outside":
            res = meter.call(of.membership, g, w, op["rho"])
            return {"kind": "outside", "membership": res.value}
        q = of.CountQuery(T=op["T"], delta=op["delta"], rho=op["rho"], alpha=op["alpha"])

        def solve_and_predict():
            dd = of.solve_u(g, w, op["rho"])
            return dd, of.predict_count(g, w, dd, q)

        dd, predicted = meter.call(solve_and_predict)
        return {"kind": "interior", "u": list(dd.u), "entropy": dd.entropy,
                     "pressure": dd.pressure_at_u, "predicted": predicted}

    def warm_up(self):
        self.run(0, Meter())
        self.run(4, Meter())


class DihedralTable:
    """The multiplication table of D_n, indexed by pairs like a dict:
    (r, f) . (s, h) with rotations r, s and reflection flags f, h."""

    def __init__(self, n):
        self.n = n

    def __getitem__(self, pair):
        (r, f), (s, h) = pair
        return ((r + (s if f == 0 else -s)) % self.n, f ^ h)


class ClassWalks:
    """One op: the unit-roof trace table, a lattice Chebotarev and a
    dihedral-group Chebotarev."""

    def __init__(self, of, inp):
        self.of = of
        self.inp = inp
        self.bench = of.builtin_model("bench3")
        g = self.bench.graph
        self.unit = []
        self.lattice = []
        for op in inp["ops"]:
            classes = {e: (0, 0) for e in g.edges}
            for loop, cls in zip(((1, 1), (2, 2), (3, 3)), op["loop_classes"]):
                classes[loop] = tuple(cls)
            self.unit.append(of.WeightSystem(b=0, meridians=2,
                                             roof={e: 1.0 for e in g.edges},
                                             classes=classes))
            p, r = op["lattice"]
            self.lattice.append(of.FiniteQuotient.from_lattice([[p, 0], [0, r]]))

    def _dihedral(self, i):
        """The op's group quotient, built before its timing starts: the
        from_group tables are O(|G|^2) set-up, not walk counting.  The
        multiplication table is computed on lookup, which halves that."""
        n, labels = self.inp["ops"][i]["dihedral"], self.inp["ops"][i]["labels"]
        elems = [(r, f) for r in range(n) for f in (0, 1)]
        edge_labels = {tuple(int(v) for v in k.split(">")): tuple(v)
                       for k, v in labels.items()}
        return self.of.FiniteQuotient.from_group(elems, DihedralTable(n), edge_labels)

    def n_ops(self):
        return len(self.inp["ops"])

    def round_size(self):
        return 1

    def run(self, i, meter, sizes=None):
        of, m, inp = self.of, self.bench, self.inp
        n_trace, n_cheb, n_group = sizes or (inp["trace_n"], inp["cheb_n"], inp["group_n"])
        group_quotient = self._dihedral(i)
        table = meter.call(of.trace_prime_counts_table, m.graph, self.unit[i], n_trace)
        lattice = meter.call(of.chebotarev_distribution, m.graph, m.weights, m.removed,
                             self.lattice[i], n_cheb)
        group = meter.call(of.chebotarev_distribution, m.graph, m.weights, m.removed,
                           group_quotient, n_group)
        p, r = inp["ops"][i]["lattice"]
        label_of = {f"{a},{b}": list(self.lattice[i].reduce((a, b)))
                    for a in range(p) for b in range(r)}
        return {
            "trace": {str(n): [[list(k), v] for k, v in row.items()]
                      for n, row in table.items()},
            "lattice": [[list(k), v] for k, v in lattice.counts.items()],
            "lattice_label_of": label_of,
            "group": [[[list(x) for x in k], v] for k, v in group.counts.items()],
        }

    def warm_up(self):
        self.run(0, Meter(), sizes=(12, 8, 6))


class CliCold:
    """One op: one command as a fresh `python -m orbitflow.cli` process."""

    def __init__(self, of, inp, scratch):
        self.of = of
        self.inp = inp
        self.scratch = scratch
        # what the commands load, so set-up includes model building here too
        self.models = [of.builtin_model(n) for n in ("full2", "bench3")]

    def n_ops(self):
        return len(self.inp["ops"])

    def round_size(self):
        return len(self.inp["ops"])

    def run(self, i, meter):
        op = self.inp["ops"][i]
        res = meter.child([sys.executable, "-m", "orbitflow.cli", *op["argv"]], self.scratch)
        return {"argv": op["argv"], "expect": op["expect"], **res}

    def in_process(self, i):
        """orbitflow.cli.main without the import, for the traced run."""
        argv = self.inp["ops"][i]["argv"]
        out, err = io.StringIO(), io.StringIO()
        c = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.of.cli.main(argv)
            except Exception:  # the contract cases raise; only the time matters here
                pass
        return time.process_time() - c

    def warm_up(self):
        run_child([sys.executable, "-m", "orbitflow.cli", "validate", "full2"], self.scratch)


def run_child(argv, scratch):
    """Run a child to completion; CPU and peak RSS come from its own
    rusage (wait4), so nothing else the benchmark runs is counted."""
    out_path = os.path.join(scratch, f"child-{os.getpid()}.out")
    err_path = os.path.join(scratch, f"child-{os.getpid()}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        w = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - w
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return {"cpu": ru.ru_utime + ru.ru_stime, "wall": wall,
            "rss_mb": ru.ru_maxrss / 1024.0, "code": proc.returncode,
            "stdout": stdout, "stderr": stderr}


def import_figures(scratch, repeats=3):
    """CPU time of `import orbitflow` in a fresh interpreter (median), and
    the scipy share of it from -X importtime (self times, seconds)."""
    argv = [sys.executable, "-c", "import orbitflow"]
    cpu = statistics.median(run_child(argv, scratch)["cpu"] for _ in range(repeats))
    res = run_child([sys.executable, "-X", "importtime", "-c", "import orbitflow"], scratch)
    scipy_us = 0
    for line in res["stderr"].splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().split(".")[0] == "scipy":
            scipy_us += int(parts[0].split(":")[1])
    return cpu, scipy_us / 1e6


def src_lines(src):
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    scratch = os.path.dirname(os.path.abspath(args.out))
    with open(args.inputs, encoding="utf-8") as fh:
        inp = json.load(fh)
    warnings.simplefilter("ignore")  # the program's advisory warnings

    # ---- set-up: import, models, inputs, one warm-up op
    import orbitflow as of

    tracer = None
    if args.trace:
        import orbitflow.cli  # noqa: F401  (a layer the tracer wraps)

        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    wl = workload(of, inp, scratch) if workload is CliCold else workload(of, inp)
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    wl.warm_up()
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    setup_cpu = (time.process_time() - _START_CPU
                 + (child1.ru_utime + child1.ru_stime) - (child0.ru_utime + child0.ru_stime))
    out = open(args.out, "w", encoding="utf-8")
    py_kernels = _BEFORE + [py_kernel_cpu() for _ in range(3)]
    setup = {"setup_cpu": setup_cpu * PY_REF / statistics.median(py_kernels),
             "setup_raw": setup_cpu, "py_kernels": py_kernels}
    if args.setup_only:
        write(out, kind="setup", **setup)
        out.close()
        return 0
    if tracer is not None:
        tracer.uninstall()
        tracer.reset()

    # ---- measured ops: whole rounds until the time is up; a traced run
    # alternates untraced and traced rounds
    round_size = wl.round_size()
    n_total = wl.n_ops()
    rounds = []
    in_process = []   # (untraced, traced) CPU of cli.main, traced cli_cold runs
    i = 0
    t_end = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        cpu_round = scaled_round = 0.0
        wall0 = time.perf_counter()
        if traced and isinstance(wl, CliCold):
            for _ in range(round_size):
                # which of the two goes first alternates: the first call of a
                # command in a process pays one-time costs
                times = {}
                for with_tracer in ((False, True) if i % 2 else (True, False)):
                    if with_tracer:
                        tracer.install()
                    times[with_tracer] = wl.in_process(i % n_total)
                    tracer.uninstall()
                in_process.append((times[False], times[True]))
                i += 1
        else:
            if traced:
                tracer.install()
            for _ in range(round_size):
                meter = Meter()
                try:
                    result = wl.run(i % n_total, meter)
                except Exception as exc:  # an op that fails is counted, not fatal
                    result = {"error": repr(exc)}
                cpu_round += meter.raw
                scaled_round += meter.scaled
                write(out, kind="op", index=i % n_total, cpu=meter.scaled, raw=meter.raw,
                          round=len(rounds), traced=traced, out=result)
                i += 1
            if traced:
                tracer.uninstall()
        rounds.append({"cpu": cpu_round, "scaled": scaled_round,
                       "wall": time.perf_counter() - wall0, "traced": traced})
        if time.perf_counter() >= t_end and (tracer is None or len(rounds) >= 2):
            break

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = {"kind": "summary", **setup,
               "rss_mb": rss, "rounds": rounds}
    if tracer is not None:
        plain = [r for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        if in_process:
            n_traced = len(in_process)
            overhead = sum(t for _, t in in_process) / sum(p for p, _ in in_process)
        else:
            n_traced = len(traced) * round_size
            overhead = (statistics.mean(r["scaled"] for r in traced)
                        / statistics.mean(r["scaled"] for r in plain))
        layers = tracer.metrics(n_traced)
        layers["cli.import_s"], layers["cli.import_scipy_s"] = import_figures(scratch)
        layers["cli.main_ms"] = (statistics.median(p for p, _ in in_process) * 1e3
                                 if in_process else 0.0)
        layers["run.cpu_s"] = statistics.median(r["cpu"] for r in plain)
        layers["run.wall_s"] = statistics.median(r["wall"] for r in plain)
        layers["run.trace_overhead"] = overhead
        layers["src.lines"] = src_lines(os.path.dirname(of.__file__))
        summary["layers"] = layers
    write(out, **summary)
    out.close()
    return 0


WORKLOADS = {
    "orbit_counts": OrbitCounts,
    "dual_solves": DualSolves,
    "class_walks": ClassWalks,
    "cli_cold": CliCold,
}


if __name__ == "__main__":
    sys.exit(main())
