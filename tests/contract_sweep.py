"""A wider sweep of the command line contract than the tier-1 fuzz.

Draws seeded cases from the tier-1 fuzz grammar (``GRAMMAR`` in
``test_cli.py``: every command on every builtin and on ``roof2``, each
option an ordinary value or, one time in three, an extreme one) and runs
each in-process through ``orbitflow.cli.main``, under a 2 GB address-space
limit on this process.  A case breaks the contract when it exits with a
code outside {0, 2, 3}, lets an exception escape (a RuntimeWarning counts
as one, as in the tier-1 run), or refuses with anything but one
``error:`` line on stderr and nothing on stdout.  Prints each broken case,
then one summary line over all seeds; exits 1 if any case broke.

    PYTHONPATH=src python tests/contract_sweep.py --seeds 1 2 --cases 2000
"""

import argparse
import contextlib
import io
import random
import resource
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

from test_cli import GRAMMAR, VECTORS

from orbitflow import builtin_model, serialize_model
from orbitflow.cli import main

MODELS = ("full2", "goldenmean", "bench3", "roof2")
LIMIT = 2 << 30   # bytes of address space


def draw_argv(rng: random.Random) -> list[str]:
    """One case, drawn as the tier-1 fuzz draws it."""
    command = rng.choice(sorted(GRAMMAR))
    model = rng.choice(MODELS)
    d = 2 if model == "bench3" else 1   # the class dimension
    argv = [command, model]
    for option, ordinary, extreme in GRAMMAR[command]:
        size = rng.choice([d, d, 3 - d]) if option in VECTORS else 1
        argv += [option, ",".join(rng.choice(extreme if rng.choice([0, 0, 1]) else ordinary)
                                  for _ in range(size))]
    return argv


def run_case(argv) -> tuple[str, str | None]:
    """("exit <code>" or "escaped", what broke the contract or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:   # an argparse exit escapes main too
        return "escaped", "".join(traceback.format_exception_only(exc)).strip()
    out, err = out.getvalue(), err.getvalue()
    if code not in (0, 2, 3):
        return f"exit {code}", f"exit code {code}"
    if code and not (out == "" and err.startswith("error: ") and err.count("\n") == 1):
        return f"exit {code}", f"refusal is not one error line: stdout {out!r}, stderr {err!r}"
    return f"exit {code}", None


def main_sweep(seeds, cases: int) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))
    warnings.simplefilter("always")
    warnings.filterwarnings("error", category=RuntimeWarning)
    warnings.filterwarnings("ignore", ".*quotient classes receive no orbit", UserWarning)
    codes, broken = Counter(), 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        roof2 = Path(tmp) / "roof2.model"
        roof2.write_text(serialize_model(builtin_model("full2")).replace("roof=1.0", "roof=2.0"))
        for rng in map(random.Random, seeds):
            for argv in (draw_argv(rng) for _ in range(cases)):
                outcome, problem = run_case([str(roof2) if a == "roof2" else a for a in argv])
                codes[outcome] += 1
                if problem:
                    broken += 1
                    print(f"broken: {' '.join(argv)}: {problem}")
    tally = ", ".join(f"{outcome}: {n}" for outcome, n in sorted(codes.items()))
    print(f"contract sweep, seeds {' '.join(map(str, seeds))}: {cases} cases each ({tally}), "
          f"{broken} broken, {time.perf_counter() - start:.1f} s")
    return 1 if broken else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--cases", type=int, default=2000, help="cases per seed")
    args = ap.parse_args()
    sys.exit(main_sweep(args.seeds, args.cases))
