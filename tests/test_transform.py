import functools
import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backstep import transform
from backstep.cauchy import (NodeTable, build_cauchy, explicit_inverse, lagrange_products,
                             node_table)
from backstep.errors import CertificationError, GainFloorError, MathGuardError, ResonanceError
from backstep.oracles import (chi, condition_number, factorization_residual,
                              gain_cross_check, operator_identity_residual,
                              verify_closed_loop_eigen)
from backstep.spectrum import (DistCertificate, Kind, dist_alpha, make_spectrum,
                               make_tabulated, select_mu)
from backstep.transform import (assemble, feedback_gains_product, feedback_gains_rowsum,
                                inverse_residual, spectral_norm, synthesis_to_json,
                                weighted_norm)


def heat(n_max=64):
    return make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, n_max)


def column_products(table, lam):
    """The Lagrange column products Q_n, as `assemble` forms them."""
    _, _, log_q, sgn_q = lagrange_products(table, lam)
    return sgn_q * np.exp(log_q)


def test_gains_rowsum_examples():
    g = feedback_gains_rowsum(heat(), 0.5, 2)
    assert np.allclose(g.values, [-7 / 12, -5 / 12], rtol=1e-13)
    assert np.allclose(feedback_gains_rowsum(heat(), 0.5, 1).values, [-0.5])
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 4)
    assert np.allclose(feedback_gains_rowsum(sk, 1.0, 1).values, [-1.0])


def test_gains_product_examples():
    g = feedback_gains_product(heat(), 0.5, 2)
    assert g.values[0] == pytest.approx(-0.5 * 7 / 6, rel=1e-14)
    assert g.values[1] == pytest.approx(-0.5 * 5 / 6, rel=1e-14)


@pytest.mark.parametrize("kind", [Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT])
@pytest.mark.parametrize("lam,N", [(0.5, 2), (0.5, 16), (1.375, 48), (8.5, 48)])
def test_cross_route_agreement(kind, lam, N):
    m = make_spectrum(kind, 2.0, 1.0, 64)
    a = feedback_gains_rowsum(m, lam, N)
    b = feedback_gains_product(m, lam, N)
    gap = np.abs(a.values - b.values)
    assert np.all(gap <= a.roundoff + b.roundoff)


def test_gains_vanish_linearly_at_zero():
    m = heat()
    for lam in (1e-6, 1e-8):
        k = feedback_gains_product(m, lam, 16).values
        assert np.allclose(k / lam, -np.ones(16), atol=1e-5)


def test_gains_scaled_by_b():
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 8, b_law=lambda n: 2.0)
    g = feedback_gains_product(m, 0.5, 2)
    assert np.allclose(g.values, np.array([-0.5 * 7 / 6, -0.5 * 5 / 6]) / 2.0)


def test_tb_residual_examples():
    s = assemble(heat(), 0.5, 2)
    # hand arithmetic: (-7/12)/(-0.5) + (-5/12)/2.5 = 7/6 - 1/6 = 1
    assert s.tb_residuals.tolist() == [0.0, 0.0]
    assert assemble(heat(), 0.5, 1).tb_residuals.tolist() == [0.0]


@pytest.mark.parametrize("lam,N", [(0.5, 32), (1.375, 64), (5.9375, 64)])
def test_tb_residual_grid(lam, N):
    s = assemble(heat(128), lam, N)
    assert s.tb_residual_max <= 1e-9


def test_assemble_refuses_tb_residual_past_bound():
    # the certified damping near N = 64 at truncation 48 leaves TB=B at 3.90e-8
    assert transform._TB_TOL == 1e-9
    m = heat()
    mu, cert = select_mu(m, 64)
    with pytest.raises(CertificationError,
                       match=r"^TB=B residual 3\.89\d*e-08 exceeds the acceptance bound 1e-09$"):
        assemble(m, mu, 48, cert)


def test_assemble_2x2():
    s = assemble(heat(), 0.5, 2)
    # entrywise table k_n b_p / (lambda_p - lambda_n - lambda)
    assert s.T_mat[0, 0] == pytest.approx(7 / 6, rel=1e-13)
    assert s.T_mat[0, 1] == pytest.approx((-5 / 12) / 2.5, rel=1e-13)
    assert s.T_mat[1, 0] == pytest.approx((-7 / 12) / -3.5, rel=1e-13)
    assert factorization_residual(s) == 0.0
    assert inverse_residual(s) <= 1e-14
    s1 = assemble(heat(), 0.5, 1)
    assert np.allclose(s1.T_mat, [[1.0]])     # TB = B forces T = [1]


@pytest.mark.parametrize("kind", [Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT])
@pytest.mark.parametrize("N", [4, 32, 64])
def test_assemble_inverse_identity(kind, N):
    m = make_spectrum(kind, 2.0, 1.0, 64)
    mu, cert = select_mu(m, 2)
    s = assemble(m, mu, N, cert)
    assert inverse_residual(s) <= 1e-8
    assert float(np.max(np.abs(s.Tinv_mat @ s.T_mat - np.eye(N)))) <= 1e-8
    assert factorization_residual(s) <= 1e-12


@pytest.mark.parametrize("kind", [Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT])
def test_assemble_returns_fresh_arrays_and_keeps_the_model(kind):
    """`assemble` works in place on its own buffers only: each call returns
    arrays of its own, the model's arrays keep their values, and T is
    C-ordered and T^-1 F-ordered (the Lanczos norms' bits depend on it)."""
    m = make_spectrum(kind, 2.0, 1.0, 64)
    eig, b = m.eigenvalues.copy(), m.b.copy()
    mu, cert = select_mu(m, 3)
    s1 = assemble(m, mu, 48, cert)
    kept = {f: getattr(s1, f).copy() for f in ("k", "T_mat", "Tinv_mat", "tb_residuals", "log_f")}
    s2 = assemble(m, mu, 48, cert)
    for f, v in kept.items():
        a1, a2 = getattr(s1, f), getattr(s2, f)
        assert not np.shares_memory(a1, a2), f
        assert np.array_equal(a1, v) and np.array_equal(a2, v), f
    assert s1.T_mat.flags.c_contiguous and s1.Tinv_mat.flags.f_contiguous
    assert np.array_equal(m.eigenvalues, eig) and np.array_equal(m.b, b)


def test_assemble_guards():
    with pytest.raises(ResonanceError):
        assemble(heat(), 3.0, 8)


def test_vanished_gain_raises_gain_floor_error():
    from backstep.transform import _check_nonzero
    _check_nonzero(np.array([5e-324, -1.0]), "product")      # tiny is not zero
    with pytest.raises(GainFloorError, match=r"gain k_2 b_2 vanished \(product route\)"):
        _check_nonzero(np.array([1.0, -0.0, 0.0]), "product")


def test_assemble_overflow_guard():
    # exp of the product logs overflows float64: a math guard that names the
    # entry, raised before any sum runs on an inf and without numpy warnings
    m = heat(300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CertificationError, match=r"T \. T\^-1 residual inf: float64 overflow"):
            assemble(m, 50000.5, 150)
        with pytest.raises(CertificationError, match=r"gain k\[1\] = -inf"):
            assemble(m, 300000.5, 300)


def test_assemble_column_product_overflow_guard():
    # heat's level gaps mirrored, so the column products Q outgrow the gains:
    # Q overflows while every k is finite, and the guard names the entry
    N, lam = 300, 150000.5
    levels = np.cumsum(2.0 * np.arange(N, 0, -1) + 1.0)
    m = make_tabulated(Kind.SELF_ADJOINT, 2.0, -levels)
    dist = float(np.min(np.abs(levels[None, :] - levels[:, None] - lam)))
    cert = DistCertificate(lam=lam, dist=dist, witness_pair=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CertificationError, match=r"Lagrange product Q\[173\] = -inf"):
            assemble(m, lam, N, cert)


def test_chi_examples():
    m = heat()
    assert np.allclose(chi(m, 0.5, 1, 2), [2.0, -0.4])
    assert chi(m, 0.5, 2, 4)[1] == pytest.approx(2.0)
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 4)
    assert np.allclose(chi(sk, 1.0, 1, 1), [1.0])
    with pytest.raises(ResonanceError):
        chi(m, 3.0, 1, 4)


def test_chi_index_range():
    # a truncation past the model's 8 modes used to return 8 entries, not N
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 8)
    assert chi(m, 0.5, 8, 8).shape == (8,)
    for n, N in ((0, 4), (5, 4), (1, 12), (9, 9)):
        with pytest.raises(ValueError, match="1 <= n <= N <= 8"):
            chi(m, 0.5, n, N)


def test_closed_loop_2x2_exact():
    s = assemble(heat(), 0.5, 2)
    c1 = verify_closed_loop_eigen(s, 1)
    assert c1.k_on_chi == pytest.approx(-1.0, abs=1e-15)
    assert c1.collinearity_defect <= 1e-15
    assert c1.eigen_defect <= 1e-15
    assert verify_closed_loop_eigen(s, 2).k_on_chi == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.parametrize("kind", [Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT])
def test_closed_loop_grid(kind):
    m = make_spectrum(kind, 2.0, 1.0, 64)
    mu, cert = select_mu(m, 3)
    s = assemble(m, mu, 32, cert)
    for n in range(1, 33):
        chk = verify_closed_loop_eigen(s, n)
        assert abs(chk.k_on_chi + 1.0) <= 1e-9
        assert chk.collinearity_defect <= 1e-8
        assert chk.eigen_defect <= 1e-8


def test_operator_identity():
    assert operator_identity_residual(assemble(heat(), 0.5, 2)) <= 1e-12
    assert operator_identity_residual(assemble(heat(), 0.5, 1)) == 0.0
    assert operator_identity_residual(assemble(heat(), 0.5, 32)) <= 1e-9


_NORM_RTOL = 8.0 * np.finfo(float).eps


def _norm_cases():
    rng = np.random.default_rng(5)
    yield "gaussian 40x40", rng.normal(size=(40, 40))
    # T^-1 at 600 modes: sigma1/sigma2 is about 1.001
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 640)
    mu, cert = select_mu(m, 1)
    yield "T^-1 at 600 modes", assemble(m, mu, 600, cert).Tinv_mat
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 320)
    mu, cert = select_mu(sk, 10)
    s = assemble(sk, mu, 300, cert)
    yield "skew-adjoint T", s.T_mat
    yield "skew-adjoint T^-1", s.Tinv_mat
    yield "rank 1", np.outer(rng.normal(size=30), rng.normal(size=30))
    yield "1x1", np.array([[-3.7]])
    yield "complex 1x1", np.array([[3.0 - 4.1j]])
    # a top pair 1e-9 apart, which a gap-based stop would take as one value
    u, _ = np.linalg.qr(rng.normal(size=(300, 300)))
    v, _ = np.linalg.qr(rng.normal(size=(300, 300)))
    sv = np.concatenate([[1.0, 1.0 - 1e-9], rng.uniform(0.0, 0.5, 298)])
    yield "near-tied top pair", (u * sv) @ v.T


def test_spectral_norm_against_svd():
    """Lanczos against the dense SVD as oracle, at 8 eps relative.

    The stop rule resolves sigma_1 to 2 eps before rounding; sqrt(theta)
    and the SVD's own sigma_1 each carry a few eps of rounding (at most
    3.4 eps apart on these matrices, 4.4 eps on the README cost sweep's).
    """
    for name, a in _norm_cases():
        ref = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(spectral_norm(a) - ref) <= _NORM_RTOL * ref, name
    assert spectral_norm(np.zeros((5, 5))) == 0.0


def test_spectral_norm_is_deterministic():
    for name, a in _norm_cases():
        first = spectral_norm(a)
        assert all(spectral_norm(a) == first for _ in range(3)), name


def test_spectral_norm_rejects_non_finite():
    for bad in (np.nan, np.inf):
        a = np.eye(4)
        a[2, 1] = bad
        with pytest.raises(CertificationError):
            spectral_norm(a)
        with pytest.raises(CertificationError):
            spectral_norm(a.astype(complex))


def _every_step_lanczos(mat):
    """Reference: the Lanczos norm with the stop rule tested at every step.
    Returns (sigma_1, steps taken)."""
    a = np.asarray(mat)
    scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(a))))[1])
    n = a.shape[1]
    q = np.empty((n, n), dtype=np.result_type(a.dtype, float))
    alpha, beta = np.zeros(n), np.zeros(n)
    rng = random.Random(0)
    start = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
    q[0] = start / np.linalg.norm(start)
    for k in range(n):
        basis = q[:k + 1]
        u = (((a @ q[k]) * scale).conj() @ a).conj() * scale
        c = (basis @ u.conj()).conj()
        alpha[k] = c[k].real
        u -= c @ basis
        u -= (basis @ u.conj()).conj() @ basis
        beta[k] = np.linalg.norm(u)
        theta, s = np.linalg.eigh(np.diag(alpha[:k + 1]) + np.diag(beta[:k], -1))
        if beta[k] * abs(s[k, -1]) <= 4.0 * np.finfo(float).eps * theta[-1]:
            return math.sqrt(theta[-1]) / scale, k + 1
        if k + 1 < n:
            q[k + 1] = u / beta[k]
    raise AssertionError("reference Lanczos did not converge")


@functools.lru_cache(maxsize=1)
def _readme_sweep_matrices():
    """T and T^-1 at the 25 points of `cost-sweep --n-range 1:25 --trunc 300`."""
    model = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 300)
    mats = []
    for base in range(1, 26):
        mu, cert = select_mu(model, base)
        s = assemble(model, mu, 300, cert)
        mats += [(f"T at base {base}", s.T_mat), (f"T^-1 at base {base}", s.Tinv_mat)]
    return tuple(mats)


def _eigh_sizes(monkeypatch):
    """Record the matrix size of every np.linalg.eigh call from here on."""
    sizes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda t: sizes.append(t.shape[0]) or eigh(t))
    return sizes


def test_spectral_norm_steps_against_every_step_test(monkeypatch):
    # the stop test runs on a schedule that only adds steps: at least the
    # every-step count s, at most 1.25 s + 1, and still inside the SVD oracle
    cases = list(_norm_cases()) + list(_readme_sweep_matrices())
    refs = [_every_step_lanczos(a) for _, a in cases]
    sizes = _eigh_sizes(monkeypatch)
    for (name, a), (ref_value, ref_steps) in zip(cases, refs):
        value = spectral_norm(a)
        steps = sizes[-1]
        assert ref_steps <= steps <= 1.25 * ref_steps + 1, (name, ref_steps, steps)
        sigma = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(value - sigma) <= _NORM_RTOL * sigma, name
        assert abs(ref_value - sigma) <= _NORM_RTOL * sigma, name


def test_spectral_norm_eigh_calls_on_readme_sweep(monkeypatch):
    # every-step testing made 1,112 tridiagonal eigendecompositions here
    mats = _readme_sweep_matrices()
    sizes = _eigh_sizes(monkeypatch)
    for _, a in mats:
        spectral_norm(a)
    assert len(sizes) <= 450


def test_lanczos_start_vector_is_cached_and_read_only():
    for n in (1, 7, 300):
        v = transform._start_vector(n)
        assert v is transform._start_vector(n) and not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0
        # the plain random.Random(0) formula, whose bytes the README sweep
        # CSV's sha256 rests on
        rng = random.Random(0)
        fresh = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        assert v.tobytes() == (fresh / np.linalg.norm(fresh)).tobytes()
        assert v.tobytes() == transform.unit_gaussian(n, transform._LANCZOS_SEED).tobytes()


def test_inverse_residual_matches_identity_subtraction():
    # the product is formed in two row halves, the first one row longer at
    # odd N, and in one block at N = 1; a half's last bits can differ from
    # those of the same rows of one N x N product
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 64)
    for model, lam, N in ((heat(), 4.0714285714285716, 48), (sk, 9.5, 48), (heat(), 0.5, 48),
                          (heat(), 4.0714285714285716, 47), (sk, 9.5, 1)):
        synth = assemble(model, lam, N)
        half = (N + 1) // 2
        halves = [synth.T_mat[rows] @ synth.Tinv_mat - np.eye(N)[rows]
                  for rows in (slice(0, half), slice(half, N))]
        ref = float(np.max(np.abs(np.concatenate(halves))))
        assert inverse_residual(synth) == ref


def test_weighted_norm_and_condition():
    s = assemble(heat(), 0.5, 16)
    n0 = weighted_norm(s, s.T_mat, 0.0)
    assert n0 == pytest.approx(spectral_norm(s.T_mat))
    assert weighted_norm(s, s.T_mat, 0.45) > 0
    assert condition_number(s) >= 1.0


def test_synthesis_json_schema():
    import json
    s = assemble(heat(), 0.5, 4)
    doc = json.loads(synthesis_to_json(s))
    assert set(doc) == {"lambda", "N", "dist", "k", "tb_residual_max", "norms"}
    assert doc["N"] == 4 and len(doc["k"]) == 4
    assert set(doc["norms"]) == {"T", "Tinv"}
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 4)
    doc2 = json.loads(synthesis_to_json(assemble(sk, 1.5, 4)))
    assert all(isinstance(v, list) and len(v) == 2 for v in doc2["k"])


def test_assemble_inverse_matches_explicit_inverse():
    # T^-1 is T's own Cauchy matrix, transposed: -lambda diag(b) C^T diag(Q/b),
    # which is diag(1/k) E diag(1/b) for the explicit inverse E of C
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 64)
    two = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 64, b_law=lambda n: 2.0)
    for model, lam in ((heat(), 4.0714285714285716), (sk, 9.5), (two, 4.0714285714285716)):
        synth = assemble(model, lam, 48)
        table = node_table(model, 48)
        C = build_cauchy(table, lam, synth.cert.dist)
        assert synth.T_mat.dtype == synth.Tinv_mat.dtype == C.dtype
        assert np.array_equal(synth.T_mat, synth.b[:, None] * C * synth.k[None, :])
        b, q = synth.b, column_products(table, lam)
        assert np.array_equal(synth.Tinv_mat, (-lam * b)[:, None] * C.T * (q * (1.0 / b))[None, :])
        E = explicit_inverse(table, lam, synth.cert.dist)
        ref = (1.0 / synth.k)[:, None] * E * (1.0 / b)[None, :]
        assert np.max(np.abs(synth.Tinv_mat - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_real_synthesis_matches_complex_nodes(monkeypatch):
    # assemble on real nodes must reproduce a synthesis whose Cauchy kernel ran
    # on complex-typed nodes with zero imaginary parts: log_f bit for bit, and
    # k, T, T^-1 to a few ulps with the same signs (the real kernel's signs
    # are exact, the complex kernel's drift; see cauchy.lagrange_products).
    # Past the certified frontier both must refuse with the same guard, whose
    # message differs at most in the digits of its number.
    rng = np.random.default_rng(5)
    levels = np.cumsum(rng.uniform(1.0, 9.0, 64)) + 0.25
    models = [make_spectrum(Kind.SELF_ADJOINT, a, 1.0, 64) for a in (1.5, 2.0, 3.0)]
    models.append(make_tabulated(Kind.SELF_ADJOINT, 2.0, -levels))
    eps = np.finfo(float).eps

    def complex_node_table(model, N):
        return NodeTable.of(node_table(model, N).x.astype(complex))

    def outcome(model, lam, cert):
        try:
            return assemble(model, lam, 64, cert)
        except MathGuardError as exc:
            return exc

    def digits_masked(exc):
        return re.sub(r"\d\.\d+e[+-]\d+|\d+\.\d+", "#", str(exc))

    compared = assembled = 0
    for model in models:
        for lam in (0.7, 13.3, 57.1, 99.7):
            if model.tabulated:      # a certificate for the 64 tabulated modes only
                dist = float(np.min(np.abs(levels[None, :] - levels[:, None] - lam)))
                cert = DistCertificate(lam=lam, dist=dist, witness_pair=None)
            else:
                cert = dist_alpha(model, lam)
            real = outcome(model, lam, cert)
            with monkeypatch.context() as mp:
                mp.setattr(transform, "node_table", complex_node_table)
                cplx = outcome(model, lam, cert)
            assert type(cplx) is type(real), (model.alpha, lam, real, cplx)
            if isinstance(real, MathGuardError):
                assert digits_masked(cplx) == digits_masked(real), (model.alpha, lam)
            else:
                for f in ("k", "T_mat", "Tinv_mat", "tb_residuals", "log_f"):
                    assert getattr(real, f).dtype == np.float64, (model.alpha, lam, f)
                assert np.array_equal(real.log_f, cplx.log_f.real), (model.alpha, lam)
                for f in ("k", "T_mat", "Tinv_mat"):
                    a, b = getattr(real, f), getattr(cplx, f)
                    assert np.array_equal(np.sign(a), np.sign(b.real)), (model.alpha, lam, f)
                    assert np.all(np.abs(a - b) <= 32 * eps * np.abs(a)), (model.alpha, lam, f)
                assembled += 1
            compared += 1
    assert compared == 16
    assert assembled >= 8         # 8 of the 16 (model, lambda) pairs assemble


def test_rowsum_bars_match_per_row_loop():
    from backstep.transform import _rowsum_gains, _term_relerr
    rng = np.random.default_rng(7)
    model = heat(301)
    for N in (1, 2, 7, 64, 129, 300, 301):
        inv = np.exp(rng.uniform(-30.0, 30.0, (N, N))) * rng.choice([-1.0, 1.0], (N, N))
        bars = _term_relerr(N) * np.array([np.sum(np.abs(row)) for row in inv])
        assert np.array_equal(_rowsum_gains(model.b[:N], inv).roundoff, bars / model.b[:N])


@pytest.mark.parametrize("kind", [Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT])
def test_row_sums_match_per_row_loop(kind):
    # one csum per matrix must give the bits of one csum per row, including
    # the complex modulus of the TB residuals (numpy's complex abs differs)
    from backstep.cauchy import csum
    from backstep.transform import _term_relerr
    m = make_spectrum(kind, 2.0, 1.0, 64)
    for base, N in ((2, 32), (5, 64)):
        mu, cert = select_mu(m, base)
        s = assemble(m, mu, N, cert)
        C = build_cauchy(node_table(m, N), mu, cert.dist)
        loop = np.array([abs(csum(row) - 1.0) for row in C * (s.k * s.b)[None, :]])
        assert s.tb_residuals.tobytes() == loop.tobytes()
        cols = C.T * column_products(node_table(m, N), mu)[None, :]
        sums = np.array([csum(row) for row in cols], dtype=cols.dtype)
        bars = _term_relerr(N) * (1.0 + mu * np.sum(np.abs(cols), axis=1))
        assert gain_cross_check(m, mu, N, cert) == float(np.max(np.abs(mu * sums + 1.0) / bars))


@pytest.mark.parametrize("kind", [Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT])
def test_tb_residuals_span_extraction_blocks(kind):
    # at N = 300 C diag(kb) is formed in three extraction blocks of rows;
    # the sums keep the bits of one csum over the whole product
    from backstep.cauchy import block_rows, csum
    from backstep.transform import _tb_residuals
    m = make_spectrum(kind, 2.0, 1.0, 300)
    mu, cert = select_mu(m, 25)
    s = assemble(m, mu, 300, cert)
    C = build_cauchy(node_table(m, 300), mu, cert.dist)
    assert block_rows(300) == 109
    d = csum(C * (s.k * s.b)[None, :]) - 1.0
    whole = np.abs(d) if kind is Kind.SELF_ADJOINT else np.hypot(d.real, d.imag)
    assert _tb_residuals(C, s.k * s.b).tobytes() == whole.tobytes() == s.tb_residuals.tobytes()


def test_assemble_peak_memory_at_the_readme_sweep_size():
    # the real Lagrange products take |f| and log|f| in place, the TB = B sums
    # form C diag(kb) one extraction block at a time and T . T^-1 - I is formed
    # in two row halves; with one N x N temporary for each, the peak was 4.14
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 300)
    mu, cert = select_mu(m, 25)
    node_table(m, 300)
    tracemalloc.start()
    try:
        assemble(m, mu, 300, cert)
        blocks = tracemalloc.get_traced_memory()[1] / (300 * 300 * 8)
    finally:
        tracemalloc.stop()
    assert blocks <= 2.7, blocks


_SYNTH_ARRAYS = ("b", "k", "T_mat", "Tinv_mat", "tb_residuals", "log_f", "eigenvalues")


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(list(Kind)), alpha=st.sampled_from([1.5, 2.0, 3.0]),
       beta=st.floats(-1.0, 2.0), base=st.integers(1, 10), N=st.sampled_from([8, 32, 64]))
def test_unbounded_control_operator(kind, alpha, beta, base, N):
    # b_n = n^beta: B may be unbounded (beta > 0) or decay (beta < 0)
    m = make_spectrum(kind, alpha, 1.0, 64, b_law=lambda n: float(n) ** beta)
    mu, cert = select_mu(m, base)
    s = assemble(m, mu, N, cert)
    assert s.tb_residual_max <= 1e-9
    assert inverse_residual(s) <= 1e-8
    assert gain_cross_check(m, mu, N, cert) <= 1.0
    if kind is Kind.SELF_ADJOINT:
        assert all(getattr(s, f).dtype == np.float64 for f in _SYNTH_ARRAYS)
