"""The three benchmark workloads: their operations, warm-up and output checks.

A workload turns the seed into one round, a fixed list of operations of about
the same size; a run repeats whole rounds.  Every operation returns its
output, and repeats of one operation (same `key`) must return identical
output.  `check(key, output)` compares the first output of each key with
computations made apart from the program (see checks.py).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from backstep import cli, make_spectrum, spectrum   # attributes looked up per call, so tracing patches apply

import checks


class ExitCodeError(RuntimeError):
    """The CLI returned a non-zero exit code."""


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]


def run_cli(argv: list[str]) -> None:
    """cli.main in-process, its progress line swallowed; non-zero exit raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise ExitCodeError(f"backstep {' '.join(argv)} exited {rc}")


class Sweep:
    """The README cost sweep: certified damping, synthesis and norms for N = 1..25."""
    bases = list(range(1, 26))
    trunc = 300

    def __init__(self, seed: int, workdir: Path):
        # the README config is fixed; the seed does not change this workload's input
        self.out = workdir / "cost_sweep.csv"

    def _sweep(self, n_range: str, out: Path) -> bytes:
        run_cli(["cost-sweep", "--n-range", n_range, "--trunc", str(self.trunc),
                 "--out", str(out)])
        return out.read_bytes()

    def warm_up(self) -> None:
        self._sweep("1:2", self.out)

    def round(self) -> list[Op]:
        return [Op("1:25", lambda: self._sweep("1:25", self.out))]

    def check(self, key: str, output: bytes) -> list[str]:
        return checks.check_sweep(output.decode("utf-8"), self.bases, self.trunc, 2.0, 1.0)


class Schedule:
    """One self-adjoint and one skew-adjoint null-control run at scale 32."""
    params = dict(scale=32.0, alpha=2.0, gamma=3.0, sigma=2.5, horizon=1.0, stages=10, trunc=48)
    kinds = ("self_adjoint", "skew_adjoint")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed % 2 ** 32
        self.workdir = workdir

    def _pair(self, stages: int) -> tuple[bytes, ...]:
        p, out = self.params, []
        for kind in self.kinds:
            prefix = self.workdir / kind
            run_cli(["null-control", "--kind", kind, "--scale", f"{p['scale']:g}",
                     "--stages", str(stages), "--trunc", str(p["trunc"]),
                     "--y0-random", "--seed", str(self.seed), "--out-prefix", str(prefix)])
            out += [Path(f"{prefix}_trajectory.csv").read_bytes(),
                    Path(f"{prefix}_manifest.json").read_bytes()]
        return tuple(out)

    def warm_up(self) -> None:
        self._pair(2)

    def round(self) -> list[Op]:
        return [Op(f"seed={self.seed}", lambda: self._pair(self.params["stages"]))]

    def check(self, key: str, output: tuple[bytes, ...]) -> list[str]:
        errs = []
        for i, kind in enumerate(self.kinds):
            errs += checks.check_schedule(kind, output[2 * i].decode("utf-8"),
                                          json.loads(output[2 * i + 1]), **self.params)
        return errs


class Certify:
    """select_mu on the unit-scale alpha = 2 self-adjoint law, N drawn near 300."""
    band = (296, 304)      # inclusive; select_mu costs ~N^2, so +-1.4% in N is +-3% in time
    per_round = 8

    def __init__(self, seed: int, workdir: Path):
        self.model = make_spectrum("self_adjoint", 2.0, 1.0)
        rng = np.random.default_rng(seed)
        self.Ns = [int(n) for n in rng.integers(self.band[0], self.band[1] + 1, self.per_round)]

    def _select(self, N: int) -> tuple:
        mu, cert = spectrum.select_mu(self.model, N)
        return mu, cert.dist, cert.witness_pair, cert.floor

    def warm_up(self) -> None:
        self._select(20)

    def round(self) -> list[Op]:
        return [Op(str(N), lambda N=N: self._select(N)) for N in self.Ns]

    def check(self, key: str, output: tuple) -> list[str]:
        return checks.check_certify(int(key), output, 2.0, 1.0)


WORKLOADS = {"sweep": Sweep, "schedule": Schedule, "certify": Certify}
