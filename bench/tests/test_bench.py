"""Tests of the benchmark itself: metric names, output checks, failure counting.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import backstep
import checks
import run
import tracing
import worker
from backstep import Kind, make_spectrum, make_tabulated, select_mu
from workloads import WORKLOADS, ExitCodeError, Op, run_cli

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == ["sweep", "schedule"]
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_run_prints_every_end_to_end_metric(tmp_path):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "5",
                           "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 8
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# workload checks reject corrupted outputs


def test_certify_check():
    model = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0)
    mu, cert = select_mu(model, 40)
    good = (mu, cert.dist, cert.witness_pair, cert.floor)
    assert checks.check_certify(40, good, 2.0, 1.0) == []

    grid, _ = checks.candidate_grid(40, 2.0, 1.0)
    worst = float(min(grid, key=lambda g: checks.brute_dist(float(g), 2.0, 1.0)))
    for bad in ((mu, cert.dist * (1 + 1e-6), cert.witness_pair, cert.floor),
                (worst, checks.brute_dist(worst, 2.0, 1.0), cert.witness_pair, cert.floor),
                (mu + 1e-3, cert.dist, cert.witness_pair, cert.floor),
                (mu, cert.dist, cert.witness_pair, 2 * cert.floor)):
        assert checks.check_certify(40, bad, 2.0, 1.0)


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "s.csv"
    run_cli(["cost-sweep", "--n-range", "1:6", "--trunc", "48", "--out", str(out)])
    return out.read_text()


def _edit_cell(text, row, col, fn):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_check(small_sweep):
    bases = list(range(1, 7))
    assert checks.check_sweep(small_sweep, bases, 48, 2.0, 1.0) == []
    lines = small_sweep.splitlines()
    for bad in (_edit_cell(small_sweep, 3, 3, lambda v: v * 1.001),      # scaled norm_T
                _edit_cell(small_sweep, 3, 4, lambda v: v * 1.001),      # scaled norm_Tinv
                _edit_cell(small_sweep, 2, 2, lambda v: v + 1e-6),       # perturbed dist
                _edit_cell(small_sweep, 2, 6, lambda v: v * 1.001),      # k_inf
                "\n".join(lines[:3] + lines[4:]) + "\n",                 # a point dropped
                small_sweep.replace("r2=", "r2=1")):                     # footer not the refit
        assert checks.check_sweep(bad, bases, 48, 2.0, 1.0)


@pytest.fixture(scope="module")
def small_schedule(tmp_path_factory):
    d = tmp_path_factory.mktemp("schedule")
    out = {}
    for kind in ("self_adjoint", "skew_adjoint"):
        run_cli(["null-control", "--kind", kind, "--scale", "32", "--stages", "3", "--trunc", "48",
                 "--y0-random", "--seed", "7", "--out-prefix", str(d / kind)])
        out[kind] = ((d / f"{kind}_trajectory.csv").read_text(),
                     json.loads((d / f"{kind}_manifest.json").read_text()))
    return out


SCHEDULE = dict(scale=32.0, alpha=2.0, gamma=3.0, sigma=2.5, horizon=1.0, stages=3, trunc=48)


@pytest.mark.parametrize("kind", ["self_adjoint", "skew_adjoint"])
def test_schedule_check(small_schedule, kind):
    traj, manifest = small_schedule[kind]
    assert checks.check_schedule(kind, traj, manifest, **SCHEDULE) == []

    def with_stage(key, fn):
        m = json.loads(json.dumps(manifest))
        m["stages"][1][key] = fn(m["stages"][1][key])
        return m

    for bad_manifest in (with_stage("lambda", lambda v: v + 1.0),
                         with_stage("delta", lambda v: v * (1 + 1e-9)),
                         with_stage("t_start", lambda v: v + 1e-9)):
        assert checks.check_schedule(kind, traj, bad_manifest, **SCHEDULE)
    grown = _edit_cell(traj, 1 + 16, 1, lambda v: v * 1e6)      # stage 1 ends far above its bound
    assert any("changed the norm" in e for e in checks.check_schedule(kind, grown, manifest, **SCHEDULE))


# ---------------------------------------------------------------------------
# failed operations


class _Fixed:
    def check(self, key, output):
        return [] if output == "ok" else ["wrong output"]


def test_math_guard_inside_an_operation_counts_as_failed():
    degenerate = make_tabulated(Kind.SELF_ADJOINT, 2.0, [-1.0, -1.0, -4.0])
    ops = [Op("guard", lambda: select_mu(degenerate, 3)),
           Op("exit3", lambda: run_cli(["synth", "--lambda", "3.0", "--trunc", "8",
                                        "--out", "unused.json"])),
           Op("fine", lambda: "ok")]
    records, firsts, _ = worker.time_rounds(ops, 0.0, None)
    assert [r[3].split(":")[0] for r in records[:2]] == ["CertificationError", "ExitCodeError"]
    failed, wrong = worker.evaluate(_Fixed(), records, firsts)
    assert (len(records), failed, wrong) == (3, 2, [])


def test_wrong_or_unrepeatable_output_fails():
    ops = [Op("a", lambda: "ok"), Op("b", lambda: "bad"), Op("a", lambda: "drift")]
    records, firsts, _ = worker.time_rounds(ops, 0.0, None)
    failed, wrong = worker.evaluate(_Fixed(), records, firsts)
    assert failed == 2 and len(wrong) == 2


def test_exit_code_error_on_usage_error():
    with pytest.raises(ExitCodeError):
        run_cli(["cost-sweep", "--n-range", "5:4"])


# ---------------------------------------------------------------------------
# tracing


def test_tracer_counts_layers_and_restores_functions(tmp_path):
    orig = backstep.cauchy.csum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert backstep.transform.csum is not orig and backstep.csum is not orig
        run_cli(["cost-sweep", "--n-range", "1:2", "--trunc", "16", "--out", str(tmp_path / "s.csv")])
    finally:
        tracer.uninstall()
    assert backstep.transform.csum is orig and backstep.csum is orig

    m = tracer.layer_metrics(1)
    assert set(m) == set(tracing.metric_names())
    assert m["cli.main.calls"] == 1 and m["transform.assemble.calls"] == 2
    assert m["cauchy.lagrange_products.per_assemble"] == 4
    assert m["cauchy.csum.calls"] == 2 * 2 * 16          # row-sum gains and TB residuals
    assert all(m[f"{s}.self_ms"] >= 0 for s in tracing.SPAN_NAMES)
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(m[f"{s}.self_ms"] for s in tracing.SPAN_NAMES) == pytest.approx(1e3 * total)
