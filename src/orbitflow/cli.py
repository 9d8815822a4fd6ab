"""Command line front end.

Every command takes a model source (builtin name or file path) and emits
deterministic CSV on stdout: header row, ``.`` decimal separator, reals
in shortest round-trip form, vectors semicolon-joined.  Exit codes:
0 success, 2 validation failure, 3 numerical non-convergence or refused
computation.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

# every command but check reads a model; each imports the rest of what it runs
from .errors import InvalidArgument, MissingEdge, OrbitflowError
from .models import load_model, serialize_model

_MAX_SWEEP_T = 10_000  # T values one sweep may evaluate
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _fmt_vec(vec) -> str:
    return ";".join(_fmt(x) for x in vec)


def _parse_vec(text: str, kind=float) -> tuple:
    try:
        vec = tuple(kind(x) for x in text.split(","))
        if kind is float and not all(map(math.isfinite, vec)):
            raise ValueError
        return vec
    except ValueError:
        what = "finite reals" if kind is float else "integers"
        raise InvalidArgument(f"expected comma-separated {what}, got {text!r}") from None


def _parse_obs(text: str) -> dict:
    out = {}
    for token in text.split(","):
        try:
            edge_part, value = token.split("=", 1)
            a, b = edge_part.split(">", 1)
            value = float(value)
            if not math.isfinite(value):
                raise ValueError
            out[(int(a), int(b))] = value
        except ValueError:
            raise InvalidArgument(
                f"expected finite edge values like 1>2=1.0, got {token!r}"
            ) from None
    return out


def _emit(header: str, rows) -> None:
    print(header)
    for row in rows:
        print(",".join(row))


def cmd_validate(args) -> int:
    model = load_model(args.model)
    print(f"ok: {model.name} ({model.graph.vertex_count} vertices, "
          f"{len(model.graph.edges)} edges, d={model.weights.dimension})")
    return 0


def cmd_pressure(args) -> int:
    from .thermo import edge_arrays, pressure_jet
    m = load_model(args.model)
    u = _parse_vec(args.u)
    jet = pressure_jet(*edge_arrays(m.graph, m.weights), u)
    _emit("u,pressure,gradient",
          [[_fmt_vec(u), _fmt(jet.pressure), _fmt_vec(jet.gradient)]])
    return 0


def cmd_entropy(args) -> int:
    from .legendre import entropy_hessian, solve_u
    m = load_model(args.model)
    rho = _parse_vec(args.rho)
    dd = solve_u(m.graph, m.weights, rho)
    det = float(np.linalg.det(entropy_hessian(dd)))
    _emit(
        "rho,u,entropy,det_hessian",
        [[_fmt_vec(rho), _fmt_vec(dd.u), _fmt(dd.entropy), _fmt(det)]],
    )
    return 0


def cmd_hull(args) -> int:
    from .legendre import direction_hull
    m = load_model(args.model)
    hull = direction_hull(m.graph, m.weights, args.n)
    rows = [["dim", str(hull.dim)]]
    for p in sorted(hull.points):
        rows.append(["point", _fmt_vec(p)])
    for v in sorted(hull.vertices):
        rows.append(["vertex", _fmt_vec(v)])
    _emit("role,coords", rows)
    return 0


def _query_from(args, m) -> CountQuery:
    from .counting import CountQuery
    return CountQuery(
        T=args.T,
        delta=args.delta,
        rho=_parse_vec(args.rho),
        alpha=_parse_vec(args.alpha, int),
        removed=m.removed,
    )


def cmd_count(args) -> int:
    from .counting import exact_window_count, target_class
    m = load_model(args.model)
    q = _query_from(args, m)
    exact = exact_window_count(m.graph, m.weights, q, budget_cap=args.budget)
    target = target_class(m.weights, q)
    _emit(
        "T,delta,target_class,exact",
        [[_fmt(q.T), _fmt(q.delta), _fmt_vec(target), str(exact)]],
    )
    return 0


def cmd_predict(args) -> int:
    from .counting import predict_count, target_class
    from .legendre import solve_u
    m = load_model(args.model)
    q = _query_from(args, m)
    dd = solve_u(m.graph, m.weights, q.rho)
    predicted = predict_count(m.graph, m.weights, dd, q)
    target = target_class(m.weights, q)
    _emit(
        "T,delta,target_class,predicted",
        [[_fmt(q.T), _fmt(q.delta), _fmt_vec(target), _fmt(predicted)]],
    )
    return 0


def cmd_sweep(args) -> int:
    from .counting import sweep
    m = load_model(args.model)
    if not (args.step > 0 and math.isfinite(args.Tmin) and math.isfinite(args.Tmax)):
        raise InvalidArgument(
            f"need step > 0 and finite Tmin, Tmax, got step={args.step}, "
            f"Tmin={args.Tmin}, Tmax={args.Tmax}"
        )
    T_list, t = [], args.Tmin
    while t <= args.Tmax + 1e-12:
        if len(T_list) == _MAX_SWEEP_T:  # the step is too small for the range, or to move T
            raise InvalidArgument(f"step={args.step} gives more than {_MAX_SWEEP_T} T values")
        T_list.append(t)
        t += args.step
    rows = sweep(
        m.graph,
        m.weights,
        _parse_vec(args.rho),
        _parse_vec(args.alpha, int),
        args.delta,
        T_list,
        removed=m.removed,
        budget_cap=args.budget,
    )
    _emit(
        "T,delta,target_class,exact,predicted,ratio",
        [
            [
                _fmt(r.T),
                _fmt(r.delta),
                _fmt_vec(r.target_class),
                str(r.exact),
                _fmt(r.predicted),
                _fmt(r.ratio),
            ]
            for r in rows
        ],
    )
    return 0


def cmd_margulis(args) -> int:
    from .counting import margulis_total
    m = load_model(args.model)
    res = margulis_total(m.graph, m.weights, m.removed, args.T, budget_cap=args.budget)
    _emit(
        "T,exact,reference,ratio",
        [[_fmt(args.T), str(res.exact), _fmt(res.reference), _fmt(res.exact / res.reference)]],
    )
    return 0


def cmd_chebotarev(args) -> int:
    from .counting import FiniteQuotient, chebotarev_distribution
    m = load_model(args.model)
    if (args.mod is None) == (args.quotient is None):
        raise InvalidArgument("exactly one of --mod / --quotient is required")
    if args.mod is not None:
        quot = FiniteQuotient.from_modulus(args.mod, m.weights.dimension)
    else:
        quot = m.quotient(args.quotient)
    res = chebotarev_distribution(m.graph, m.weights, m.removed, quot, args.n)
    _emit("class,count,frequency,reference",
          [[_fmt_vec(key), str(res.counts[key]), _fmt(res.frequencies[key]), _fmt(res.reference[key])]
           for key in sorted(res.counts, key=repr)])
    return 0


def cmd_equidist(args) -> int:
    from .counting import equidistribution_test
    from .legendre import solve_u
    m = load_model(args.model)
    q = _query_from(args, m)
    dd = solve_u(m.graph, m.weights, q.rho)
    obs = _parse_obs(args.obs)
    unknown = set(obs) - m.graph.edge_set
    if unknown:
        raise MissingEdge(f"observable given on non-edges {sorted(unknown)}")
    phi = {e: 0.0 for e in m.graph.edges}
    phi.update(obs)
    res = equidistribution_test(m.graph, m.weights, dd, q, phi, budget_cap=args.budget)
    _emit(
        "empirical,expected,n_orbits",
        [[_fmt(res.empirical), _fmt(res.expected), str(res.n_orbits)]],
    )
    return 0


def cmd_check(args) -> int:
    from . import checks
    return 0 if checks.run_all_checks() else 2


def cmd_show(args) -> int:
    model = load_model(args.model)
    sys.stdout.write(serialize_model(model))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitflow",
        description="Periodic-orbit statistics of suspension flows over directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, model=True, budget=False):
        p = sub.add_parser(name)
        if model:
            p.add_argument("model", help="builtin name (full2, goldenmean, bench3) or model file path")
        if budget:   # the exact counters' symbolic depth cap
            p.add_argument("--budget", type=int, default=32)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)
    add("show", cmd_show)

    p = add("pressure", cmd_pressure)
    p.add_argument("--u", required=True, help="comma-separated reals")

    p = add("entropy", cmd_entropy)
    p.add_argument("--rho", required=True, help="comma-separated reals")

    p = add("hull", cmd_hull)
    p.add_argument("--n", type=int, required=True)

    def window(name, fn, *, grid=False, budget=True):
        """A command over the window (T - delta, T] and the class
        floor(T rho) + alpha; grid takes a T range in place of one T."""
        p = add(name, fn, budget=budget)
        if grid:
            p.add_argument("--Tmin", type=float, required=True)
            p.add_argument("--Tmax", type=float, required=True)
            p.add_argument("--step", type=float, required=True)
            p.add_argument("--delta", type=float, default=1.0)
        else:
            p.add_argument("--T", type=float, required=True)
            p.add_argument("--delta", type=float, required=True)
        p.add_argument("--rho", required=True)
        p.add_argument("--alpha", required=True)
        return p

    window("count", cmd_count)
    window("predict", cmd_predict, budget=False)
    window("sweep", cmd_sweep, grid=True)

    p = add("margulis", cmd_margulis, budget=True)
    p.add_argument("--T", type=float, required=True)

    p = add("chebotarev", cmd_chebotarev)
    p.add_argument("--mod", type=int)
    p.add_argument("--quotient")
    p.add_argument("--n", type=int, required=True)

    p = window("equidist", cmd_equidist)
    p.add_argument("--obs", required=True, help="edge values, e.g. 1>2=1.0,2>1=0.5")

    add("check", cmd_check, model=False)

    # argparse reads a value like -0.25,0.5 or -inf as a flag: bind it to its option
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in reversed(range(1, len(argv))):
        if argv[i - 1].startswith("--") and "=" not in argv[i - 1] and _NEGATIVE_VALUE.match(argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OrbitflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
