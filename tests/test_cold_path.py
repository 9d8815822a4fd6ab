"""The cold command line: which modules a fresh process loads, and the
README commands' stdout pinned byte for byte.

scipy is imported only by the hull of a point set of dimension >= 2 and by
the hull membership LP, so ``import orbitflow`` and every other command
must leave it unloaded.  ``readme_stdout.txt`` holds the stdout of each
command in the README's command-line block, one ``$ <command>`` line
before each; only ``check``'s microsecond timings may differ from it.
"""

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
# exit code and the scipy modules it left loaded
PROBE = """
import contextlib, io, json, sys
import orbitflow, orbitflow.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = orbitflow.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def readme_commands() -> list[str]:
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    return [re.sub(r"\s+#.*$", "", line).strip()
            for line in block.splitlines() if line.startswith("orbitflow ")]


def probe(argv):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


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
