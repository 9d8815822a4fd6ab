"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload orbit_counts --seed 1 --seconds 12 --trace 0

Run from the root of a checkout (the directory holding src/orbitflow).  The
inputs come from --seed alone.  A worker process sets the workload up and
runs whole rounds of ops for --seconds; two more workers only set up, so
that set-up time is a median.  Every process runs with BLAS threads pinned
to 1.  After the workers have exited, this process checks every output
against the oracles, so checking moves neither the times nor the memory
figures.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
ones.  Details and reference figures: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402

N_SETUPS = 2          # set-up-only workers, besides the measuring one
WORKER_TIMEOUT = 150  # seconds; a run must end within 180
MIN_TAIL_OPS = 40     # fewer ops than this: no tail beyond the median
PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def worker(args, inputs_path, out_path, env, setup_only=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--inputs", inputs_path, "--out", out_path,
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    # its own session, so that a timeout stops the worker and its children
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {stderr[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    os.remove(out_path)
    return records


def tail(values):
    """The highest percentile with at least 10 samples beyond it; with
    fewer than MIN_TAIL_OPS samples that would be no tail, so the median."""
    values = sorted(values)
    if len(values) < MIN_TAIL_OPS:
        return statistics.median(values)
    return values[len(values) - 11]


def end_to_end(workload, ops, summary, setups):
    cpu = [op["cpu"] for op in ops]
    rounds = {}
    for op in ops:
        rounds[op["round"]] = rounds.get(op["round"], 0.0) + op["cpu"]
    if workload == "cli_cold":
        rss = max(op["out"]["rss_mb"] for op in ops)
    else:
        rss = summary["rss_mb"]
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "batch_s": (statistics.mean(rounds.values()), "s"),
        "op_p50_ms": (statistics.median(cpu) * 1e3, "ms"),
        "op_tail_ms": (tail(cpu) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(summary):
    units = load_units()
    return {k: {"value": v, "unit": units[k]} for k, v in summary["layers"].items()}


def load_units():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.MAKE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "orbitflow", "__init__.py")):
        print("error: run from the root of an orbitflow checkout (no src/orbitflow here)",
              file=sys.stderr)
        return 2
    results = os.path.join(HERE, "results",
                           f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, **PIN)
    env.pop("PYTHONSTARTUP", None)

    inp = inputs.MAKE[args.workload](args.seed)
    inputs_path = os.path.join(results, "inputs.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inp, fh)
    out_path = os.path.join(results, "worker.jsonl")
    try:
        setups = [] if args.trace else [
            worker(args, inputs_path, out_path, env, setup_only=True)[0]
            for _ in range(N_SETUPS)]
        records = worker(args, inputs_path, out_path, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ops = [r for r in records if r["kind"] == "op"]
    summary = records[-1]
    n_failed, problems = check.check(args.workload, inp, ops)
    if args.trace:
        metrics = per_layer(summary)
    else:
        metrics = end_to_end(args.workload, ops, summary,
                             [r["setup_cpu"] for r in setups] + [summary["setup_cpu"]])
    result = {"correct": not problems, "attempted": len(ops), "failed": n_failed,
              "metrics": metrics}
    with open(os.path.join(results, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, problems=problems, seed=args.seed,
                       op_raw=[op["raw"] for op in ops], op_scaled=[op["cpu"] for op in ops],
                       setup_raw=[r["setup_raw"] for r in setups + [summary]]), fh)
    os.remove(inputs_path)
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
