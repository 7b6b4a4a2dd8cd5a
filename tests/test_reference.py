"""The synthesis against a 60-digit `mpmath` reference at README sweep points.

The reference takes the float64 inputs (levels, b, lambda) as exact and
evaluates the Lagrange products and T^-1 = -lambda diag(b) C^T diag(Q/b) in
60-digit arithmetic, so its own error is far below one float64 ulp.
"""

import numpy as np
import pytest

from backstep.cauchy import CauchySystem, _separations
from backstep.spectrum import Kind, make_spectrum, select_mu
from backstep.transform import (_term_relerr, assemble, feedback_gains_rowsum,
                                spectral_norm)

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

N = 300                       # the README sweep: cost-sweep --n-range 1:25 --trunc 300


def _reference(model, lam):
    """(k b, T^-1) at 60 digits: k_i b_i = -lambda P_i and
    T^-1_ij = -lambda b_i Q_j / (b_j (x_j - x_i - lambda))."""
    with mp.workdps(60):
        x = [mp.mpf(-float(v)) for v in model.levels[:N]]
        b = [mp.mpf(float(v)) for v in model.b[:N]]
        lam = mp.mpf(lam)
        P, Q = [], []
        for i in range(N):
            p = q = mp.mpf(1)
            for m in range(N):
                if m != i:
                    r = lam / (x[i] - x[m])
                    p *= 1 + r
                    q *= 1 - r
            P.append(p)
            Q.append(q)
        kb = [-lam * p for p in P]
        tinv = mp.matrix(N, N)
        for i in range(N):
            for j in range(N):
                tinv[i, j] = -lam * b[i] * Q[j] / (b[j] * (x[j] - x[i] - lam))
    return kb, tinv


def _sigma1(mat, approx):
    """sigma_1 of the mp matrix `mat`, rounded to float64: the Rayleigh quotient
    |mat v| / |v| at 60 digits, with v the top right singular vector of the
    float64 `approx`.  Its error is quadratic in the angle between v and the
    exact vector, about eps / (1 - sigma_2/sigma_1) = 7e-14 at the README
    point (sigma_1/sigma_2 = 1.0034), so far below an ulp."""
    v = np.linalg.svd(approx)[2][0]
    with mp.workdps(60):
        w = mat * mp.matrix([mp.mpf(float(t)) for t in v])
        vv = mp.fsum(mp.mpf(float(t)) ** 2 for t in v)
        return float(mp.sqrt(mp.fsum(t ** 2 for t in w) / vv))


def test_gains_and_norm_Tinv_against_reference():
    heat = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 320)
    # base 2 (lambda 2.1): before the separations were exact, the row-sum route
    # missed its bar at row 300 by 2.5x and norm_Tinv was 12,787 ulps off
    mu, cert = select_mu(heat, 2)
    synth = assemble(heat, mu, N, cert)
    kb_ref, tinv_ref = _reference(heat, mu)
    ref = np.array([float(v) for v in kb_ref])
    # the product route, per row, within its constant bar
    assert np.all(np.abs(synth.kb - ref) <= _term_relerr(N) * np.abs(ref))
    # the row-sum route over the explicit inverse, per row, within its own bar
    rows = feedback_gains_rowsum(heat, mu, N, cert)
    assert np.all(np.abs(rows.values - ref / synth.b) <= rows.roundoff)
    # the printed norm: within 8 ulps of the reference sigma_1
    sigma = _sigma1(tinv_ref, synth.Tinv_mat)
    assert abs(spectral_norm(synth.Tinv_mat) - sigma) <= 8 * np.spacing(sigma)


@pytest.mark.parametrize("kind", [Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT])
def test_separations_meet_certificate_without_slack(kind):
    # the separations are dist_alpha's own float operations, so at every README
    # sweep point the smallest |(x_i - x_j) - lambda| is the certified distance
    model = make_spectrum(kind, 2.0, 1.0, 320)
    for base in range(1, 26):
        mu, cert = select_mu(model, base)
        sep = _separations(CauchySystem.from_model(model, mu, N, cert))
        assert float(np.min(np.abs(sep))) == cert.dist, base
