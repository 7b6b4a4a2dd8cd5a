import json
import math
import tracemalloc

import numpy as np
import pytest

from backstep.cauchy import csum
from backstep.cli import main as cli_main
from backstep.errors import CertificationError, DivergenceError
from backstep.oracles import chi, condition_number, measure_decay
from backstep.simulate import (build_schedule, propagate, run_null_control,
                               s_weights, schedule_manifest_json, stage_synthesis,
                               stage_truncation, trajectory, write_trajectory_csv)
from backstep.spectrum import Kind, make_spectrum
from backstep.transform import assemble


def heat(n_max=64, scale=1.0):
    return make_spectrum(Kind.SELF_ADJOINT, 2.0, scale, n_max)


@pytest.fixture(scope="module")
def synth32():
    return assemble(heat(), 0.5, 32)


def test_propagate_identity_at_zero(synth32):
    y0 = np.eye(32)[0]
    assert np.allclose(propagate(synth32, y0, 0.0), y0, atol=1e-14)


def test_propagate_semigroup(synth32):
    rng = np.random.default_rng(11)
    y = rng.standard_normal(32)
    once = propagate(synth32, y, 1.1)
    twice = propagate(synth32, propagate(synth32, y, 0.7), 0.4)
    rel = np.linalg.norm(once - twice) / np.linalg.norm(once)
    assert rel <= 1e-10


def test_propagate_eigen_trajectory(synth32):
    c1 = chi(heat(), 0.5, 1, 32)
    y = propagate(synth32, c1, 0.8)
    expect = math.exp(-1.5 * 0.8) * c1
    assert np.linalg.norm(y - expect) <= 1e-9 * np.linalg.norm(expect)


def test_propagate_guards(synth32):
    with pytest.raises(ValueError):
        propagate(synth32, np.zeros(5), 1.0)
    with pytest.raises(ValueError):
        propagate(synth32, np.zeros(32), -1.0)


def test_slowest_mode_scaling(synth32):
    # slowest closed-loop mode is lambda_1 - lambda = -1.5
    y0 = np.eye(32)[0]
    vals = [np.linalg.norm(propagate(synth32, y0, t)) * math.exp(1.5 * t) for t in (4.0, 8.0, 12.0)]
    assert vals[1] == pytest.approx(vals[2], rel=1e-9)


def control_signal(synth, y, t):
    """u(t) = sum_n k_n <y(t), phi_n>, as the CLI and the schedule compute it."""
    return csum(synth.k * propagate(synth, y, t))


def test_control_signal(synth32):
    c1 = chi(heat(), 0.5, 1, 32)
    u = control_signal(synth32, c1, 0.8)
    assert u == pytest.approx(-math.exp(-1.5 * 0.8), rel=1e-10)
    assert control_signal(synth32, np.zeros(32), 1.0) == 0.0
    s2 = assemble(heat(), 0.5, 2)
    assert control_signal(s2, np.eye(2)[0], 0.0) == pytest.approx(-7 / 12, rel=1e-12)


def test_measure_decay(synth32):
    grid = np.linspace(0.0, 10.0, 21)
    d = measure_decay(synth32, np.eye(32)[0], grid)
    assert d.rate_hat == pytest.approx(-1.5, abs=1e-3)
    assert d.rate_hat <= -0.5 + 1e-6
    rng = np.random.default_rng(2)
    cond = condition_number(synth32)
    for _ in range(5):
        y = rng.standard_normal(32)
        d = measure_decay(synth32, y / np.linalg.norm(y), grid)
        assert d.C_hat <= cond * (1.0 + 1e-9)
        assert d.rate_hat <= -0.5 + 1e-6
    z = measure_decay(synth32, np.zeros(32), grid)
    assert z.C_hat == 0.0 and z.rate_hat is None
    with pytest.raises(ValueError):
        measure_decay(synth32, np.zeros(32), [1.0, 0.5])


def test_norms():
    m = heat(8)
    y = np.array([3.0, 4.0, 0, 0, 0, 0, 0, 0])
    assert np.linalg.norm(y) == 5.0
    # sqrt(|l_1| * 9 + |l_2| * 16) = sqrt(9 + 64)
    assert np.linalg.norm(s_weights(m, 8, 0.5) * y) == pytest.approx(math.sqrt(73.0))
    assert np.linalg.norm(s_weights(m, 8, 0.0) * y) == 5.0


def test_schedule_preconditions():
    m = heat(64, scale=32.0)
    with pytest.raises(ValueError, match="sigma"):
        build_schedule(m, 1.0, 3.0, 2.0, 3)
    with pytest.raises(ValueError, match="gamma"):
        build_schedule(m, 1.0, 2.2, 2.5, 3)
    with pytest.raises(ValueError):
        build_schedule(m, 1.0, 3.0, 2.5, 0)
    with pytest.raises(ValueError):
        build_schedule(m, -1.0, 3.0, 2.5, 3)
    with pytest.raises(ValueError, match="materializes"):
        build_schedule(heat(8, scale=32.0), 1.0, 3.0, 2.5, 3)


def test_schedule_formulas():
    m = heat(128, scale=32.0)
    sch = build_schedule(m, 1.0, 3.0, 2.5, 5, trunc=48)
    # delta_N = (T / L_sigma) lambda^{-1/sigma}
    for st in sch.stages:
        assert st.delta == pytest.approx((1.0 / sch.L_sigma) * st.lam ** -0.4, rel=1e-12)
        assert st.lam >= st.index ** 3.0
        assert st.lam <= st.index ** 3.0 + m.gap_c + 1.0
    ts = [st.t_start for st in sch.stages]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert sch.t_end + sch.tail_gap == pytest.approx(1.0)
    assert sch.t_end < 1.0
    # L_sigma dominates the true series, so the scheduled horizon stays short
    partial = sum(st.lam ** -0.4 for st in sch.stages)
    assert sch.L_sigma > partial
    assert sch.trunc == stage_truncation(48, sch.stages[-1].lam, 2.0)


def test_null_control_run():
    m = heat(128, scale=32.0)
    sch = build_schedule(m, 1.0, 3.0, 2.5, 4, trunc=48)
    y0 = np.zeros(sch.trunc)
    y0[:2] = 1.0
    rep = run_null_control(sch, y0 / np.linalg.norm(y0))
    assert rep.final_ratio <= 1e-4
    assert all(r.contraction_log < 0 for r in rep.records)
    zero = run_null_control(sch, np.zeros(sch.trunc))
    assert zero.final_ratio == 0.0
    assert all(r.norm_out == 0.0 for r in zero.records)
    with pytest.raises(ValueError):
        run_null_control(sch, np.zeros(3))


def test_null_control_divergence_alarm():
    m = heat(128, scale=32.0)
    sch = build_schedule(m, 1.0, 3.0, 2.5, 2, trunc=48)
    y0 = np.zeros(sch.trunc)
    y0[0] = 1.0
    # any real run violates a zero-growth certificate with a tiny prefactor
    with pytest.raises(DivergenceError):
        run_null_control(sch, y0, growth_c_hat=0.0, growth_C_hat=1e-9)
    rep = run_null_control(sch, y0, growth_c_hat=1.0, growth_C_hat=10.0)
    assert rep.final_ratio < 1.0


def test_schedule_rejects_stage_past_tb_bound():
    # 10 stages peak at TB=B 1.6e-10; stage 11 of 12 reaches 1.5e-9 > 1e-9
    m = heat(200, scale=32.0)
    sch = build_schedule(m, 1.0, 3.0, 2.5, 10, trunc=48)
    assert max(stage_synthesis(sch, st).tb_residual_max for st in sch.stages) <= 1e-9
    sch = build_schedule(m, 1.0, 3.0, 2.5, 12, trunc=48)
    with pytest.raises(CertificationError, match=r"stage 11 \(lambda 1343\.7.*TB=B residual 1\.5"):
        run_null_control(sch, np.eye(sch.trunc)[0])


def test_trajectory_csv_and_manifest(tmp_path):
    m = heat(128, scale=32.0)
    sch = build_schedule(m, 1.0, 3.0, 2.5, 2, trunc=48)
    y0 = np.zeros(sch.trunc)
    y0[0] = 1.0
    rep = run_null_control(sch, y0, s_weight=0.25, samples_per_stage=4)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rep.samples, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,norm_H,norm_s,u"
    assert len(lines) == 1 + 2 * 4 + 1
    doc = json.loads(schedule_manifest_json(sch))
    assert set(doc) == {"gamma", "sigma", "horizon", "stages"}
    assert [st["N"] for st in doc["stages"]] == [1, 2]
    assert set(doc["stages"][0]) == {"N", "lambda", "delta", "t_start"}


def test_propagator_operator_norm_bound(synth32):
    # || e^{t(A+BK)} || <= ||T^-1|| e^{-lambda t} ||T|| exactly at truncation
    from backstep.transform import spectral_norm
    cond = condition_number(synth32)
    for t in (0.3, 1.0, 2.5):
        P = synth32.Tinv_mat @ (np.exp((synth32.eigenvalues - synth32.lam) * t)[:, None]
                                * synth32.T_mat)
        assert spectral_norm(P) <= cond * math.exp(-synth32.lam * t) * (1.0 + 1e-9)


def test_self_adjoint_propagation_is_real(synth32):
    assert chi(heat(), 0.5, 3, 32).dtype == np.float64
    assert (synth32.eigenvalues - synth32.lam).dtype == np.float64
    y = np.random.default_rng(3).standard_normal(32)
    assert propagate(synth32, y, 0.7).dtype == np.float64
    sk = assemble(make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 64), 1.5, 32)
    assert propagate(sk, y, 0.7).dtype == np.complex128


def test_null_control_per_stage_certified_bound():
    # ||y(t_N)|| <= cond(T_N) e^{-lambda_N delta_N} ||y(t_{N-1})||, stage by stage
    m = heat(128, scale=32.0)
    sch = build_schedule(m, 1.0, 3.0, 2.5, 5, trunc=48)
    y0 = np.zeros(sch.trunc)
    y0[:2] = 1.0
    rep = run_null_control(sch, y0 / np.linalg.norm(y0))
    for st, rec in zip(sch.stages, rep.records):
        limit = condition_number(stage_synthesis(sch, st)) * math.exp(-st.lam * st.delta)
        assert rec.norm_out <= limit * rec.norm_in * (1.0 + 1e-9)


def _per_time_state(synth, y, t):
    """T^-1 (e^{(lambda_n - lambda) t} T y), one matrix-vector product per time."""
    return synth.Tinv_mat @ (np.exp((synth.eigenvalues - synth.lam) * t) * (synth.T_mat @ y))


def _reference_samples(sch, y, s, per=16):
    # the stage loop with every state formed from scratch by the per-time formula
    ws = sch.model.levels[:sch.trunc] ** s
    rows = []
    for st in sch.stages:
        synth = stage_synthesis(sch, st)
        for q in range(per):
            tau = st.delta * q / per
            y_t = _per_time_state(synth, y, tau)
            rows.append((st.t_start + tau, float(np.linalg.norm(y_t)),
                         float(np.linalg.norm(ws * y_t)), complex(csum(synth.k * y_t))))
        y = _per_time_state(synth, y, st.delta)
    rows.append((sch.t_end, float(np.linalg.norm(y)), float(np.linalg.norm(ws * y)), 0j))
    return rows


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("s", [0.0, 0.25])
def test_trajectory_bits_match_per_time_formula(kind, s, tmp_path):
    # forming T y once must not change a bit: every state, norm and control
    # equals the one-time formula's, in the schedule and in `simulate`
    lam = 0.5 if kind is Kind.SELF_ADJOINT else 1.5
    synth = assemble(make_spectrum(kind, 2.0, 1.0, 64), lam, 48)
    y = np.random.default_rng(5).standard_normal(48)
    ts = [0.0, 0.01, 0.3, 0.3, 1.7, 6.0]
    for t, got in zip(ts, trajectory(synth, y, ts)):
        assert got.tobytes() == _per_time_state(synth, y, t).tobytes()
    assert propagate(synth, y, 1.7).tobytes() == _per_time_state(synth, y, 1.7).tobytes()

    sch = build_schedule(make_spectrum(kind, 2.0, 32.0, 128), 1.0, 3.0, 2.5, 4, trunc=48)
    y0 = np.random.default_rng(6).standard_normal(sch.trunc)
    rep = run_null_control(sch, y0 / np.linalg.norm(y0), s_weight=s)
    assert list(rep.samples) == _reference_samples(sch, y0 / np.linalg.norm(y0), s)

    out = tmp_path / "traj.csv"
    assert cli_main(["simulate", "--kind", kind.value, "--lambda", str(lam), "--trunc", "32",
                     "--y0-modes", "1,3", "--t-max", "4", "--t-steps", "20",
                     "--s-weight", str(s), "--out", str(out)]) == 0
    s32 = assemble(make_spectrum(kind, 2.0, 1.0, 32), lam, 32)
    e = np.zeros(32)
    e[[0, 2]] = 1.0
    e /= np.linalg.norm(e)
    ws = s32.model.levels[:32] ** s
    rows = []
    for t in np.linspace(0.0, 4.0, 21):
        y_t = _per_time_state(s32, e, float(t))
        rows.append((float(t), float(np.linalg.norm(y_t)), float(np.linalg.norm(ws * y_t)),
                     csum(s32.k * y_t)))
    write_trajectory_csv(rows, tmp_path / "ref.csv")
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_trajectory_checks_inputs_first(synth32):
    with pytest.raises(ValueError, match="nonnegative"):
        trajectory(synth32, np.zeros(32), [0.0, 1.0, -0.5])
    with pytest.raises(ValueError, match="state length 5"):
        trajectory(synth32, np.zeros(5), [1.0])


def _schedule_peak_bytes(model, n_stages):
    tracemalloc.start()
    try:
        sch = build_schedule(model, 1.0, 3.0, 2.5, n_stages, trunc=128)
        y0 = np.zeros(sch.trunc)
        y0[:2] = 1.0
        run_null_control(sch, y0 / np.linalg.norm(y0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_null_control_holds_one_stage_at_a_time():
    # both schedules run at 128 modes; a run that kept every stage's T, T^-1
    # and C would peak at about 2.7x the 3-stage peak with 10 stages
    model = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 32.0, 128)
    assert build_schedule(model, 1.0, 3.0, 2.5, 3, trunc=128).trunc == 128
    assert build_schedule(model, 1.0, 3.0, 2.5, 10, trunc=128).trunc == 128
    three, ten = _schedule_peak_bytes(model, 3), _schedule_peak_bytes(model, 10)
    assert ten <= 1.25 * three, (ten, three)
