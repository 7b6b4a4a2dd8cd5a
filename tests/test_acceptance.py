"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings.  The two 25-point sweeps (self-adjoint and
skew-adjoint, truncation 300) are shared module fixtures, and so are the
TB = B residual and gain cross-check of each of their 50 points.
"""

import json
import math
import time

import numpy as np
import pytest

from backstep.cauchy import CauchySystem, build_cauchy, explicit_inverse
from backstep.cli import main as cli_main
from backstep.oracles import (all_J, condition_number, gain_cross_check, measure_decay,
                              operator_identity_residual, oracle_inverse,
                              verify_closed_loop_eigen)
from backstep.quantitative import cost_sweep, linear_fit
from backstep.simulate import build_schedule, run_null_control, stage_synthesis
from backstep.spectrum import Kind, dist_alpha, make_spectrum, mu_candidates, select_mu
from backstep.transform import assemble


def _report(num, text, t0):
    print(f"[PASS] criterion {num}: {text} ({time.monotonic() - t0:.1f}s)")


def certified_points(model, want=20, max_base=30):
    """Grid candidates whose exact Dist clears the pigeonhole floor."""
    pts = []
    for base in range(1, max_base + 1):
        grid, _, floor = mu_candidates(model, base)
        for mu in grid:
            cert = dist_alpha(model, float(mu))
            if cert.dist >= floor:
                pts.append((float(mu), cert))
                if len(pts) >= want:
                    return pts
    raise AssertionError("could not collect enough certified points")


SWEEP_BASES, SWEEP_TRUNC = range(1, 26), 300


@pytest.fixture(scope="module")
def heat_model():
    return make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 320)


@pytest.fixture(scope="module")
def skew_model():
    return make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 320)


@pytest.fixture(scope="module")
def heat_sweep(heat_model):
    return cost_sweep(heat_model, SWEEP_BASES, SWEEP_TRUNC)


@pytest.fixture(scope="module")
def skew_sweep(skew_model):
    return cost_sweep(skew_model, SWEEP_BASES, SWEEP_TRUNC)


@pytest.fixture(scope="module")
def sweep_checks(heat_model, skew_model):
    """(kind, base, TB=B residual max, gain cross-check ratio) at each of the
    50 sweep points, each point assembled once."""
    checks = []
    for model in (heat_model, skew_model):
        for base in SWEEP_BASES:
            mu, cert = select_mu(model, base)
            tb = assemble(model, mu, SWEEP_TRUNC, cert).tb_residual_max
            checks.append((model.kind, base, tb, gain_cross_check(model, mu, SWEEP_TRUNC, cert)))
    return checks


@pytest.fixture(scope="module")
def null_schedule():
    # alpha = 2 self-adjoint law at scale 32: the criterion pins (alpha, gamma,
    # sigma, horizon, stages) but not the scale; at unit scale the 6-stage
    # prefix of the schedule is pre-asymptotic (the closed-loop transient
    # e^{c lambda^(1/alpha)} with c ~ pi dominates sum lambda(k) delta_k ~ 12),
    # so the desk-scale run uses a scale where 6 stages already contract.
    model = make_spectrum(Kind.SELF_ADJOINT, 2.0, 32.0, 300)
    return build_schedule(model, horizon=1.0, gamma=3.0, sigma=2.5, n_stages=6, trunc=48)


def test_c01_cauchy_inverse_oracle_equivalence():
    t0 = time.monotonic()
    worst_id = worst_rel = 0.0
    for alpha in (1.5, 2.0, 3.0):
        model = make_spectrum(Kind.SELF_ADJOINT, alpha, 1.0, 80)
        points = certified_points(model, want=20)
        for N in (2, 4, 8, 16, 32, 64):
            for lam, cert in points:
                sysm = CauchySystem.from_model(model, lam, N, cert)
                C = build_cauchy(sysm)
                E = explicit_inverse(sysm)
                O = oracle_inverse(C)
                rid = float(np.max(np.abs(E @ C - np.eye(N))))
                scale = float(np.max(np.abs(O)))
                rrel = float(np.max(np.abs(E - O))) / scale
                big = np.abs(O) >= 1e-2 * scale
                strict = float(np.max(np.abs(E - O)[big] / np.abs(O)[big]))
                assert rid <= 1e-8, (alpha, N, lam, rid)
                assert rrel <= 1e-7 and strict <= 1e-7, (alpha, N, lam, rrel, strict)
                worst_id, worst_rel = max(worst_id, rid), max(worst_rel, rrel, strict)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(1, f"inverse identity <= {worst_id:.2e} (tol 1e-8), "
               f"oracle agreement <= {worst_rel:.2e} (tol 1e-7), 360 systems", t0)


def test_c02_J_identically_one():
    t0 = time.monotonic()
    lams = [0.07 + 0.25 * q for q in range(100)]
    worst = 0.0
    for kind in (Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT):
        model = make_spectrum(kind, 2.0, 1.0, 64)
        for N in range(1, 51):
            for lam in lams:
                J = all_J(model, lam, N)
                worst = max(worst, float(np.max(np.abs(J - 1.0))))
    assert worst <= 1e-9
    _report(2, f"|J_n - 1| <= {worst:.2e} (tol 1e-9) over n<=N<=50, 100 lambdas, both kinds", t0)


def test_c03_gain_cross_route(heat_sweep, skew_sweep, sweep_checks):
    t0 = time.monotonic()
    assert not heat_sweep.skipped and not skew_sweep.skipped
    assert len(sweep_checks) == 50
    for kind, base, _, ratio in sweep_checks:
        assert ratio <= 1.0, (kind, base, ratio)
    worst = max(ratio for *_, ratio in sweep_checks)
    _report(3, f"row-sum vs product gains within their bars, row by row, at all 50 sweep points "
               f"(worst gap/bar {worst:.2g})", t0)


def test_c04_tb_condition(sweep_checks, null_schedule):
    t0 = time.monotonic()
    worst = max(tb for _, _, tb, _ in sweep_checks)
    for st in null_schedule.stages:
        worst = max(worst, stage_synthesis(null_schedule, st).tb_residual_max)
    for kind in (Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT):
        model = make_spectrum(kind, 2.0, 1.0, 256)
        for base, N in ((1, 16), (5, 64), (12, 256)):
            mu, cert = select_mu(model, base)
            worst = max(worst, assemble(model, mu, N, cert).tb_residual_max)
    assert worst <= 1e-9
    _report(4, f"max TB=B residual {worst:.2e} (tol 1e-9) over every synthesis", t0)


def test_c05_closed_loop_eigenstructure():
    t0 = time.monotonic()
    wk = wc = we = 0.0
    for kind in (Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT):
        model = make_spectrum(kind, 2.0, 1.0, 80)
        for base in (1, 5):
            mu, cert = select_mu(model, base)
            for N in (1, 2, 3, 4, 8, 16, 32, 64):
                synth = assemble(model, mu, N, cert)
                for n in range(1, N + 1):
                    chk = verify_closed_loop_eigen(synth, n)
                    wk = max(wk, abs(chk.k_on_chi + 1.0))
                    wc = max(wc, chk.collinearity_defect)
                    we = max(we, chk.eigen_defect)
    assert wk <= 1e-9 and wc <= 1e-8 and we <= 1e-8
    _report(5, f"<K,chi_n>+1 <= {wk:.2e} (tol 1e-9), collinearity <= {wc:.2e}, "
               f"eigen defect <= {we:.2e} (tol 1e-8), n <= N <= 64", t0)


def test_c06_operator_identity():
    t0 = time.monotonic()
    worst = 0.0
    for kind in (Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT):
        model = make_spectrum(kind, 2.0, 1.0, 256)
        for base in (1, 5, 12):
            mu, cert = select_mu(model, base)
            for N in (1, 2, 16, 64, 128, 256):
                synth = assemble(model, mu, N, cert)
                worst = max(worst, operator_identity_residual(synth))
    assert worst <= 1e-8
    _report(6, f"T(A+BK)=(A-lambda)T relative residual <= {worst:.2e} (tol 1e-8), N <= 256", t0)


def test_c07_cost_law(heat_sweep):
    t0 = time.monotonic()
    assert len(heat_sweep.points) == 25
    assert heat_sweep.r2 >= 0.9 and heat_sweep.slope > 0
    seq = [math.log(p.cost) / p.lam for p in heat_sweep.points]
    for i in range(2, len(seq) - 1):
        assert seq[i + 1] < seq[i] + 1e-12, (i, seq)
    assert seq[-1] < 0.5 * seq[0]
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(7, f"log cost ~ {heat_sweep.slope:.3f} lambda^(1/2), R2={heat_sweep.r2:.4f} "
               f"(>=0.9); log-cost/lambda decreasing {seq[0]:.3f} -> {seq[-1]:.3f}", t0)


def test_c08_gain_floor(heat_model, skew_model, heat_sweep, skew_sweep):
    t0 = time.monotonic()
    # b = 1, so the sweep's k_inf is inf |k_n b_n|
    assert np.all(heat_model.b == 1.0) and np.all(skew_model.b == 1.0)
    xs = np.array([p.lam ** 0.5 for p in heat_sweep.points])
    lo = np.array([math.log(p.k_inf) for p in heat_sweep.points])
    hi = np.array([math.log(p.k_sup / p.lam) for p in heat_sweep.points])

    def envelope(sel, ys, side):
        slope, intercept, _ = linear_fit(xs[sel], ys[sel])
        resid = ys[sel] - (slope * xs[sel] + intercept)
        shift = float(np.min(resid)) if side == "lower" else float(np.max(resid))
        return slope, intercept + shift

    s_even, b_even = envelope(slice(0, None, 2), lo, "lower")
    s_odd, b_odd = envelope(slice(1, None, 2), lo, "lower")
    assert abs(s_even - s_odd) <= 0.5, "lower-envelope exponent unstable across N"
    c_hat, log_C = -s_even, -b_even
    # every point (fitted and held out) above exp(-c lam^(1/2)) / C with margin e
    assert np.all(lo >= -c_hat * xs - log_C - 1.0)

    su, bu = envelope(slice(0, None, 2), hi, "upper")
    assert np.all(hi <= su * xs + bu + 1.0)    # k_sup <= C lam e^(c lam^(1/2))

    worst = min(p.k_inf / p.lam for p in skew_sweep.points)
    assert worst >= 1.0 - 1e-12               # exact law |k_n b_n| >= lambda
    _report(8, f"inf|k b| >= e^(-{c_hat:.2f} sqrt(lam))/{math.exp(log_C):.2f} "
               f"(stable constants); skew |k b| >= lambda pointwise (min ratio {worst:.6f})", t0)


def test_c09_dist_certification():
    t0 = time.monotonic()
    model = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 128)
    worst_margin = math.inf
    for N in range(1, 101):
        mu, cert = select_mu(model, N)
        assert cert.dist >= cert.floor, (N, mu, cert)
        worst_margin = min(worst_margin, cert.dist / cert.floor)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(9, f"Dist(mu_N) >= c/(2 M_N) for N=1..100, exact enumeration "
               f"(worst margin x{worst_margin:.1f})", t0)


def test_c10_stability():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 10.0, 41)
    heat = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 80)
    cubic = make_spectrum(Kind.SELF_ADJOINT, 3.0, 2.0, 80)
    worst_rate = -math.inf
    worst_chat = 0.0
    for model, base, N in ((heat, 1, 32), (heat, 5, 64), (cubic, 2, 48)):
        mu, cert = select_mu(model, base)
        synth = assemble(model, mu, N, cert)
        cond = condition_number(synth)
        for _ in range(20):
            y = rng.standard_normal(N)
            d = measure_decay(synth, y / np.linalg.norm(y), grid)
            assert d.rate_hat <= -mu + 1e-6, (model.alpha, mu, d.rate_hat)
            assert d.C_hat <= cond * (1.0 + 1e-9)
            worst_rate = max(worst_rate, d.rate_hat + mu)
            worst_chat = max(worst_chat, d.C_hat / cond)
    # skew: the transient bound C_hat <= cond(T) holds exactly as well
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 64)
    mu, cert = select_mu(sk, 3)
    synth = assemble(sk, mu, 32, cert)
    cond = condition_number(synth)
    for _ in range(20):
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        d = measure_decay(synth, y / np.linalg.norm(y), grid)
        assert d.C_hat <= cond * (1.0 + 1e-9)
        worst_chat = max(worst_chat, d.C_hat / cond)
    _report(10, f"rate_hat <= -lambda + 1e-6 (worst slack {worst_rate:.2e}) and "
                f"C_hat <= cond(T) (worst ratio {worst_chat:.3f}), 20 states/synthesis", t0)


def test_c11_null_control(null_schedule):
    t0 = time.monotonic()
    n = null_schedule.trunc
    y0 = np.zeros(n)
    y0[:2] = 1.0
    rep = run_null_control(null_schedule, y0 / math.sqrt(2.0),
                           growth_c_hat=1.0, growth_C_hat=10.0)
    assert rep.final_ratio <= 1e-6, rep.final_ratio
    exps = [r.contraction_log for r in rep.records]
    for i in range(2, len(exps) - 1):
        assert exps[i + 1] < exps[i], exps
    us = [r.max_u for r in rep.records]
    assert us[-1] < us[-2] < us[-3], us

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        y = rng.standard_normal(n)
        r = run_null_control(null_schedule, y / np.linalg.norm(y))
        worst = max(worst, r.final_ratio)
    assert worst <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(11, f"6-stage schedule: ||y(t_6)||/||y0|| = {rep.final_ratio:.2e} "
                f"(phi_1+phi_2), <= {worst:.2e} over 10 random states (tol 1e-6); "
                f"stage exponents decreasing, max|u| decreasing", t0)


def test_c12_cli_determinism(tmp_path):
    t0 = time.monotonic()
    import os
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        for out in ("a.csv", "b.csv"):
            assert cli_main(["cost-sweep", "--n-range", "1:4", "--trunc", "48",
                             "--out", out]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for prefix in ("p", "q"):
            assert cli_main(["null-control", "--scale", "32", "--stages", "4",
                             "--trunc", "48", "--y0-random", "--seed", "11",
                             "--out-prefix", prefix]) == 0
        assert ((tmp_path / "p_trajectory.csv").read_bytes()
                == (tmp_path / "q_trajectory.csv").read_bytes())
        assert ((tmp_path / "p_manifest.json").read_bytes()
                == (tmp_path / "q_manifest.json").read_bytes())
        manifest = json.loads((tmp_path / "p_manifest.json").read_text())
        assert len(manifest["stages"]) == 4
    finally:
        os.chdir(old)
    _report(12, "identical config + seed give byte-identical CSV/JSON outputs", t0)
