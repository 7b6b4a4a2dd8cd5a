"""The README sha256 table, run command by command.

Each table command runs in its own process and directory with one BLAS
thread, and the sha256 of the file it writes must start with the README's
prefix.  The table was taken with the BLAS build named in the README, so on
any other build the test is skipped: a different build may round the
Lanczos norms and the propagation products differently.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

# the file each subcommand writes by default
OUTPUT = {
    "cost-sweep": "cost_sweep.csv",
    "cauchy-verify": "cauchy_verify.csv",
    "synth": "synthesis.json",
    "simulate": "trajectory.csv",
    "null-control": "null_control_trajectory.csv",
}

ROW = re.compile(r"^\| `([^`]+)`(?:, trajectory)? \| `([0-9a-f]{8})…` \|$", re.M)


def _table():
    return ROW.findall((ROOT / "README.md").read_text(encoding="utf-8"))


def _readme_blas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    return re.search(r"\bOpenBLAS 0\.3\.31\b", config) is not None and "Haswell" in config


def test_table_lists_every_command():
    assert len(_table()) == 14


@pytest.mark.skipif(not _readme_blas(),
                    reason="the README table was taken with OpenBLAS 0.3.31 (Haswell build)")
def test_readme_table_hashes(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    wrong = []
    for i, (command, prefix) in enumerate(_table()):
        args = command.split()
        cwd = tmp_path / str(i)
        cwd.mkdir()
        run = subprocess.run([sys.executable, "-m", "backstep.cli", *args], cwd=cwd, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, (command, run.stderr)
        digest = hashlib.sha256((cwd / OUTPUT[args[0]]).read_bytes()).hexdigest()
        if not digest.startswith(prefix):
            wrong.append(f"{command}: {digest[:8]}, README {prefix}")
    assert not wrong
