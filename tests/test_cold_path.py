"""The cold command line: which modules a fresh process loads, and the
README commands' stdout pinned byte for byte.

scipy is imported only for Qhull, by the hull of a point set of dimension
>= 2, so ``import orbitflow`` and every other command must leave it
unloaded.  Each README command loads only the orbitflow modules its call
path runs.  ``readme_stdout.txt`` holds the stdout of each command in the
README's command-line block, one ``$ <command>`` line before each; only
``check``'s microsecond timings may differ from it.
"""

import functools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from orbitflow.cli import main

ROOT = Path(__file__).resolve().parents[1]

# runs orbitflow.cli.main(argv) with stdout discarded, then reports its
# exit code, the scipy modules it left loaded and the orbitflow ones
PROBE = """
import contextlib, io, json, sys
import orbitflow, orbitflow.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = orbitflow.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
                  sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("orbitflow."))]))
"""


def readme_commands() -> list[str]:
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    return [re.sub(r"\s+#.*$", "", line).strip()
            for line in block.splitlines() if line.startswith("orbitflow ")]


@functools.lru_cache(maxsize=None)   # one process per command serves both probes
def _probe(argv: tuple) -> tuple:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def probe(argv):
    """[exit code, scipy modules loaded]"""
    return list(_probe(tuple(argv))[:2])


def loaded_modules(argv) -> set[str]:
    """The orbitflow submodules loaded by the command, without the package prefix."""
    return set(_probe(tuple(argv))[2])


COLD = [c for c in readme_commands() if not c.startswith("orbitflow hull ")]


def test_import_loads_no_scipy():
    assert probe([]) == [0, []]


@pytest.mark.parametrize("command", COLD + ["orbitflow hull full2 --n 4"])
def test_command_loads_no_scipy(command):
    assert probe(shlex.split(command)[1:]) == [0, []]


def test_planar_hull_loads_qhull():
    # keeps the check above honest: the probe does see a lazy import
    code, loaded = probe(["hull", "bench3", "--n", "6"])
    assert code == 0 and "scipy.spatial" in loaded


# the orbitflow submodules each README command loads: only what its call path runs
BASE = {"cli", "errors", "graphs", "weights", "models"}
EVERY = BASE | {"thermo", "legendre", "counting", "checks"}
MODULE_SETS = {
    "validate": BASE,
    "show": BASE,
    "pressure": BASE | {"thermo"},
    "entropy": BASE | {"thermo", "legendre"},
    "hull": BASE | {"thermo", "legendre"},
    "count": BASE | {"counting"},
    "chebotarev": BASE | {"counting"},
    "margulis": BASE | {"counting", "thermo"},
    "predict": EVERY - {"checks"},
    "sweep": EVERY - {"checks"},
    "equidist": EVERY - {"checks"},
    "check": EVERY,
}


def test_module_sets_cover_the_readme():
    assert {shlex.split(c)[1] for c in readme_commands()} == set(MODULE_SETS)


@pytest.mark.parametrize("command", readme_commands())
def test_command_loads_only_its_modules(command):
    argv = shlex.split(command)[1:]
    assert loaded_modules(argv) == MODULE_SETS[argv[0]]


def _mask_timings(text: str) -> str:
    return re.sub(r"\(\d+ us\)", "(_ us)", text)


def _pinned_stdout() -> dict[str, str]:
    text = (ROOT / "tests" / "readme_stdout.txt").read_text(encoding="utf-8")
    parts = re.split(r"^\$ (.*)\n", text, flags=re.M)[1:]
    return dict(zip(parts[::2], parts[1::2]))


def test_pinned_stdout_covers_the_readme():
    assert list(_pinned_stdout()) == readme_commands()


@pytest.mark.parametrize("command", readme_commands())
def test_readme_stdout_unchanged(capsys, command):
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    assert _mask_timings(out) == _mask_timings(_pinned_stdout()[command])
