"""Per-layer spans recorded from outside the program.

The tracer wraps every public function of the orbitflow layers and
rebinds each wrapper wherever the original is bound: the defining module,
the package namespace, and every module that imported it by name (counting
imports scan_prime_cycles, legendre/counting/checks/cli import thermo and
legendre functions).  A span's self time is its duration minus the spans
of wrapped functions it called.  Durations are CPU time of the process.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("graphs", "weights", "thermo", "legendre", "counting", "models", "cli")
ROOTS = ("thermo.flow_pressure", "thermo.pressure_gradient", "thermo.equilibrium_measure")
WALKS = ("counting.trace_prime_counts_table", "counting.trace_prime_count",
         "counting.chebotarev_distribution")
HULL = ("legendre.direction_hull", "legendre.hull_contains")

# cycles a counter keeps, read from its result
KEPT = {
    "counting.cycle_table": lambda r: len(r[0]),
    "counting.exact_window_count": lambda r: r,
    "counting.margulis_total": lambda r: r.exact,
    "counting.equidistribution_test": lambda r: r.n_orbits,
    "graphs.enumerate_prime_cycles": len,
}
# (period, class) entries a walk-count call produces
LABELS = {
    "counting.trace_prime_counts_table": lambda r: sum(len(v) for v in r.values()),
    "counting.trace_prime_count": lambda r: 1,
    "counting.chebotarev_distribution": lambda r: len(r.counts),
}


class Tracer:
    def __init__(self):
        self.clock = time.process_time_ns
        self.stats: dict[str, list[int]] = {}   # name -> [calls, incl_ns, self_ns]
        self.stack: list[list[int]] = []       # [start_ns, child_ns]
        self.visited = 0
        self.kept = 0
        self.labels = 0
        self.solve_depth = 0
        self.roots_in_solve = 0
        self.model_depth = 0
        self.model_calls = 0
        self.model_ns = 0
        self.bindings = []
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"orbitflow.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "orbitflow" and not name.startswith("orbitflow."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self.bindings.append((mod, attr, obj, originals[id(obj)][1]))

    def reset(self):
        """Forget the spans so far; model loads are kept (they happen in
        set-up)."""
        for st in self.stats.values():
            st[:] = [0, 0, 0]
        self.visited = self.kept = self.labels = self.roots_in_solve = 0

    def install(self):
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self.bindings:
            setattr(mod, attr, original)

    def _wrap(self, name, fn):
        self.stats[name] = [0, 0, 0]
        st = self.stats[name]
        stack = self.stack
        clock = self.clock
        kept = KEPT.get(name)
        labels = LABELS.get(name)
        is_scan = name == "graphs.scan_prime_cycles"
        is_root = name in ROOTS
        is_solve = name == "legendre.solve_u"
        is_model = name.startswith("models.")

        def wrapper(*args, **kwargs):
            if is_scan:
                args, kwargs = self._count_visits(args, kwargs)
            if is_root and self.solve_depth:
                self.roots_in_solve += 1
            self.solve_depth += is_solve
            self.model_depth += is_model
            frame = [clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                self.solve_depth -= is_solve
                self.model_depth -= is_model
                if is_model and not self.model_depth:
                    self.model_calls += 1
                    self.model_ns += elapsed
            if kept is not None:
                self.kept += int(kept(result))
            if labels is not None:
                self.labels += int(labels(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_visits(self, args, kwargs):
        args = list(args)
        visit = args[1] if len(args) > 1 else kwargs["visit"]

        def counted(word, t, length, cls):
            self.visited += 1
            return visit(word, t, length, cls)

        if len(args) > 1:
            args[1] = counted
        else:
            kwargs["visit"] = counted
        return tuple(args), kwargs

    def _sum(self, names, field):
        return sum(self.stats[n][field] for n in names if n in self.stats)

    def _layer(self, layer, field):
        return sum(v[field] for k, v in self.stats.items() if k.startswith(layer + "."))

    def metrics(self, n_ops: int) -> dict:
        """Per-layer figures per traced op (counts and seconds), plus ratios."""
        s = 1e-9 / n_ops
        calls = lambda n: self.stats[n][0] if n in self.stats else 0  # noqa: E731
        scan_ns = self._sum(["graphs.scan_prime_cycles"], 1)
        perron_n = calls("thermo.perron")
        tm_n = calls("thermo.transfer_matrix")
        roots = self._sum(ROOTS, 0)
        solves = calls("legendre.solve_u")
        walks_ns = self._sum(WALKS, 1)
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        return {
            "graphs.scan_calls": calls("graphs.scan_prime_cycles") / n_ops,
            "graphs.cycles_visited": self.visited / n_ops,
            "graphs.scan_s": scan_ns * s,
            "graphs.ns_per_cycle": ratio(scan_ns, self.visited),
            "counting.match_ratio": ratio(self.kept, self.visited),
            "counting.walks_s": walks_ns * s,
            "counting.walk_labels": self.labels / n_ops,
            "counting.walks_ns_per_label": ratio(walks_ns, self.labels),
            "counting.predict_s": self._sum(["counting.predict_count"], 1) * s,
            "thermo.perron_calls": perron_n / n_ops,
            "thermo.perron_us": ratio(self._sum(["thermo.perron"], 2), perron_n) / 1e3,
            "thermo.transfer_matrix_us": ratio(self._sum(["thermo.transfer_matrix"], 2), tm_n) / 1e3,
            "thermo.root_calls": roots / n_ops,
            "thermo.perron_per_root": ratio(perron_n, roots),
            "thermo.hessian_calls": calls("thermo.pressure_hessian") / n_ops,
            "thermo.hessian_s": self._sum(["thermo.pressure_hessian"], 1) * s,
            "thermo.self_s": self._layer("thermo", 2) * s,
            "legendre.solve_u_calls": solves / n_ops,
            "legendre.roots_per_solve": ratio(self.roots_in_solve, solves),
            "legendre.solve_u_self_s": self._sum(["legendre.solve_u"], 2) * s,
            "legendre.hull_s": self._sum(HULL, 1) * s,
            "weights.self_s": self._layer("weights", 2) * s,
            "models.load_ms": ratio(self.model_ns, self.model_calls) / 1e6,
        }
