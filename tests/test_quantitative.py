import math

import numpy as np
import pytest

from backstep.cauchy import CauchySystem, lagrange_products
from backstep.errors import ResonanceError
from backstep.oracles import (all_J, bound_check_products, bound_check_sums, eval_J,
                              gain_cross_check, lower_bound_check_F)
from backstep.quantitative import cost_sweep, linear_fit, probe_depth, sweep_to_csv
from backstep.spectrum import Kind, make_spectrum, select_mu
from backstep.transform import assemble, feedback_gains_product, feedback_gains_rowsum


def heat(n_max=64):
    return make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, n_max)


def skew(n_max=64):
    return make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, n_max)


def gain_products(model, lam, N):
    """F_n for n <= N, read from the row products of the Lagrange kernel."""
    log_f, sgn_f, _, _ = lagrange_products(CauchySystem.from_model(model, lam, N))
    return sgn_f * np.exp(log_f)


def test_eval_F_examples():
    F = gain_products(heat(), 0.5, 2)
    assert F[0] == pytest.approx(7 / 6, rel=1e-14)
    assert F[1] == pytest.approx(5 / 6, rel=1e-14)
    assert np.all(gain_products(heat(), 0.0, 50) == 1.0)
    assert np.all(np.abs(gain_products(skew(), 1.0, 50)) >= 1.0)


def test_eval_F_guards():
    with pytest.raises(ValueError):
        gain_products(heat(), 0.5, 65)       # truncation past the model
    with pytest.raises(ResonanceError):
        gain_products(heat(), 3.0, 4)     # factor 1 + 3/(lambda_1 - lambda_2) vanishes


def test_eval_J_examples():
    assert eval_J(heat(), 1, 0.5, 2) == pytest.approx(1.0, abs=1e-14)
    assert eval_J(heat(), 3, 7.3, 20) == pytest.approx(1.0, abs=1e-9)
    assert eval_J(heat(), 2, 0.0, 10) == pytest.approx(1.0, abs=0)
    # resonant lambda: the direct form has no singular denominator
    assert eval_J(heat(), 1, 3.0, 12) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("kind", [Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT])
@pytest.mark.parametrize("N", [1, 2, 17, 50])
def test_all_J_grid(kind, N):
    m = make_spectrum(kind, 2.0, 1.0, 64)
    for lam in (0.32, 4.07, 18.83):
        J = all_J(m, lam, N)
        assert np.max(np.abs(J - 1.0)) <= 1e-9


def test_all_J_matches_eval_J():
    m = heat()
    J = all_J(m, 2.7, 9)
    for n in range(1, 10):
        assert J[n - 1] == pytest.approx(eval_J(m, n, 2.7, 9), abs=1e-12)


def test_linear_fit():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    s, i, r2 = linear_fit(x, 2.0 * x + 1.0)
    assert (s, i, r2) == (pytest.approx(2.0), pytest.approx(1.0), pytest.approx(1.0))
    assert linear_fit([1.0], [2.0]) is None
    assert linear_fit([1.0, 1.0], [2.0, 3.0]) is None


def test_bound_check_products():
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 220)
    mus = [select_mu(m, n)[0] for n in range(1, 11)]
    rep = bound_check_products(m, mus, 200)
    assert rep.passed and rep.slope > 0 and rep.r2 >= 0.95
    assert bound_check_products(m, [2.5], 50).passed is None   # declines to fit
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 220)
    rep2 = bound_check_products(sk, [n + 0.5 for n in range(1, 11)], 200)
    assert rep2.passed


def test_bound_check_sums_stability():
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 220)
    ratios = [bound_check_sums(m, 1.375, N).max_row_ratio for N in (50, 100, 200)]
    assert max(ratios) / min(ratios) < 2.0
    assert bound_check_sums(m, 1.375, 1).max_row_ratio <= 1.0
    # near-resonance: ratio stays bounded while the raw sum grows like 1/dist
    near = bound_check_sums(m, 3.0 + 1e-3, 100)
    assert near.dist == pytest.approx(1e-3, rel=1e-6)
    assert near.max_row_ratio < 2.0


def test_lower_bound_check_F():
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 220)
    mus = [select_mu(m, n)[0] for n in range(1, 11)]
    rep = lower_bound_check_F(m, mus, 200)
    assert rep.passed and rep.c_hat is not None and rep.c_hat >= 0
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 220)
    rep2 = lower_bound_check_F(sk, [n + 0.5 for n in range(1, 8)], 150)
    assert rep2.passed                         # |F_n| >= 1 pointwise


def test_probe_depth():
    assert probe_depth(0.5, 2.0, 100) == 12
    assert probe_depth(100.0, 2.0, 100) == 30
    assert probe_depth(1e6, 2.0, 40) == 40


def test_cost_sweep_small():
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 96)
    res = cost_sweep(m, range(1, 7), 80)
    assert len(res.points) == 6 and not res.skipped
    assert res.r2 >= 0.9 and res.slope > 0
    for p in res.points:
        assert p.norm_T * p.norm_Tinv >= 1.0
        assert p.k_inf > 0
        mu, cert = select_mu(m, p.base)
        assert gain_cross_check(m, mu, 80, cert) <= 1.0
        assert assemble(m, mu, 80, cert).tb_residual_max <= 1e-9
        assert p.fitted_exponent == res.slope
    with pytest.raises(ValueError):
        cost_sweep(m, [], 80)


def test_cost_sweep_single_point_no_fit():
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 64)
    res = cost_sweep(m, [2], 48)
    assert res.slope is None and res.points[0].fitted_exponent is None


def test_cost_sweep_skips_failed_point(monkeypatch):
    import backstep.quantitative as q
    real = q._sweep_point

    def flaky(model, base, trunc):
        if base == 3:
            raise ResonanceError("forced for test")
        return real(model, base, trunc)

    monkeypatch.setattr(q, "_sweep_point", flaky)
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 64)
    res = cost_sweep(m, range(1, 6), 48)
    assert len(res.points) == 4
    assert res.skipped and res.skipped[0][0] == 3


def test_skew_sweep_gain_law():
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 64)
    assert np.all(sk.b == 1.0)          # so k_inf is inf |k_n b_n|
    res = cost_sweep(sk, range(1, 5), 48)
    for p in res.points:
        assert p.k_inf >= p.lam * (1.0 - 1e-12)
        assert p.F_inf >= 1.0 - 1e-12


def test_sweep_csv(tmp_path):
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 64)
    res = cost_sweep(m, range(1, 4), 48)
    out = tmp_path / "sweep.csv"
    sweep_to_csv(res, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "N,lambda,dist,norm_T,norm_Tinv,k_sup,k_inf,F_inf,fit_exponent"
    assert len([l for l in lines if not l.startswith("#")]) == 4
    assert lines[-1].startswith("# fit:")


def test_rearrangement_identity_routes():
    # k_n b_n = -lambda F_n J_n with J_n = 1, against the row-sum route
    m = heat()
    lam, N = 4.0714285714285716, 24
    rows = feedback_gains_rowsum(m, lam, N)
    prod = feedback_gains_product(m, lam, N)
    J = all_J(m, lam, N)
    F = gain_products(m, lam, N)
    for n in range(N):
        lhs = rows.values[n] * m.b[n]
        rhs = -lam * F[n] * J[n]
        assert abs(lhs - rhs) <= rows.roundoff[n] * m.b[n] + prod.roundoff[n] * m.b[n] + 1e-13


def test_inverse_row_sums_scale():
    # row/column l1 mass of the explicit inverse: bounded by
    # C e^(c sqrt(lam)) (lam^2 + lam^2/dist), with C stable across N
    from backstep.cauchy import CauchySystem, explicit_inverse
    from backstep.spectrum import dist_alpha
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 128)
    mus = [select_mu(m, n)[0] for n in range(1, 9)]
    ratios = {}
    for N in (60, 120):
        for mu in mus:
            cert = dist_alpha(m, mu)
            E = explicit_inverse(CauchySystem.from_model(m, mu, N, cert))
            mass = max(float(np.max(np.sum(np.abs(E), axis=1))),
                       float(np.max(np.sum(np.abs(E), axis=0))))
            ratios[(N, mu)] = mass / (mu ** 2 + mu ** 2 / cert.dist)
    for mu in mus:
        assert ratios[(120, mu)] / ratios[(60, mu)] < 2.0
    xs = [mu ** 0.5 for mu in mus]
    ys = [math.log(ratios[(120, mu)]) for mu in mus]
    slope, intercept, _ = linear_fit(xs, ys)
    shift = max(y - (slope * x + intercept) for x, y in zip(xs, ys))
    assert 0.0 <= slope < 10.0
    for x, y in zip(xs, ys):
        assert y <= slope * x + intercept + shift + 1e-12


def test_one_product_evaluation_per_synthesis(monkeypatch):
    # one Lagrange kernel per synthesis, no truncation tail bound that nothing
    # reads, and one damping grid per sweep point
    import backstep.cauchy as c
    import backstep.quantitative as q
    import backstep.spectrum as sp
    import backstep.transform as t
    calls = []
    for home, name in ((c, "lagrange_products"), (c, "tail_log_bound"), (sp, "mu_candidates")):
        real = getattr(home, name)

        def counted(*args, _name=name, _real=real):
            calls.append((_name, args))
            return _real(*args)

        for mod in (c, t, q, sp):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)

    def sizes(name):
        return [args[0].n for n, args in calls if n == name]

    assemble(heat(), 0.5, 16)
    assert [n for n, _ in calls] == ["lagrange_products"] and sizes("lagrange_products") == [16]
    calls.clear()
    res = cost_sweep(heat(), range(1, 5), 48)
    assert len(res.points) == 4 and sizes("lagrange_products") == [48] * 4
    assert [args[1] for n, args in calls if n == "mu_candidates"] == [1, 2, 3, 4]
    assert not [n for n, _ in calls if n == "tail_log_bound"]


@pytest.mark.parametrize("kind", [Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT])
def test_gain_cross_check_bits(kind):
    # the cross-check, written out from the Cauchy matrix and column products
    # that build the synthesis's T^-1; and the row-sum route over the explicit
    # inverse stays within its bar at every row
    from backstep.cauchy import build_cauchy, csum
    from backstep.transform import _term_relerr
    m = make_spectrum(kind, 2.0, 1.0, 128)
    for base, N in ((2, 32), (6, 100)):
        mu, cert = select_mu(m, base)
        s = assemble(m, mu, N, cert)
        sysm = CauchySystem.from_model(m, mu, N, cert)
        C = build_cauchy(sysm)
        _, _, log_q, sgn_q = lagrange_products(sysm)
        q = sgn_q * np.exp(log_q)
        assert np.array_equal(s.Tinv_mat, (-mu * s.b)[:, None] * C.T * (q * (1.0 / s.b))[None, :])
        terms = C.T * q[None, :]
        gap = np.abs(mu * csum(terms) + 1.0)
        bar = _term_relerr(N) * (1.0 + mu * np.sum(np.abs(terms), axis=1))
        ratio = gain_cross_check(m, mu, N, cert)
        assert ratio == float(np.max(gap / bar)) and ratio <= 1.0
        rows = feedback_gains_rowsum(m, mu, N, cert)
        assert np.all(np.abs(rows.values - s.k) <= rows.roundoff + _term_relerr(N) * np.abs(s.k))


def test_synthesis_log_f_matches_all_F():
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 64)
    for model, lam in ((heat(), 4.0714285714285716), (sk, 9.5)):
        log_f = lagrange_products(CauchySystem.from_model(model, lam, 48))[0]
        assert np.array_equal(assemble(model, lam, 48).log_f, log_f)
