"""Two sets of benchmark runs of one commit, alternating, and their agreement.

    python3 perfbench/compare.py --workload dual_solves --runs 10

Run from the root of a checkout.  Run i of set A uses seed 1 + i and run i
of set B seed 1001 + i; the set that goes first alternates.  For each
end-to-end metric it prints both sets' median and quartiles, each set's
spread (quartile distance over median), the change of B's median against
A's, and whether both stay within the metric's bound in BENCHMARK.json.
It also compares the share of failed ops.  Exit code 1 when the sets do
not agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = {"A": 1, "B": 1001}   # run i of a set uses its base seed + i


def run_once(workload, seed, seconds):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for side in ("AB" if i % 2 == 0 else "BA"):
            seed = SEEDS[side] + i
            res, wall = run_once(args.workload, seed, seconds)
            sets[side].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{side} seed {seed} ({wall:.0f} s): correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    agree = True
    print(f"\n{args.workload}: {args.runs} runs per set, {seconds} s each")
    print(f"{'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'bound':>7}")
    for name, bound in bounds.items():
        meds = {}
        for side in "AB":
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in sets[side]])
            meds[side] = med
            ok = sp <= bound
            agree &= ok
            print(f"{name:<14}{side:>4}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{sp:>9.3f}"
                  f"{bound:>7.2f}{'' if ok else '  SPREAD > BOUND'}")
        change = (meds["B"] - meds["A"]) / meds["A"]
        ok = abs(change) <= bound
        agree &= ok
        print(f"{'':<14}{'B/A':>4}{change:>+12.3%}{'' if ok else '  CHANGE > BOUND':>40}")
    shares = {side: (sum(r["failed"] for r in sets[side]),
                     sum(r["attempted"] for r in sets[side])) for side in "AB"}
    print("failed/attempted: " + ", ".join(f"{s} {f}/{a}" for s, (f, a) in shares.items()))
    correct = all(r["correct"] for side in "AB" for r in sets[side])
    print(f"all outputs correct: {correct}")
    (fa, aa), (fb, ab) = shares["A"], shares["B"]
    agree &= fa * ab == fb * aa
    agree &= correct
    print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
