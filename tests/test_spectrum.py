import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backstep import spectrum
from backstep.errors import CertificationError
from backstep.spectrum import (Kind, dist_alpha, make_spectrum, make_tabulated,
                               model_from_json, model_to_json, mu_candidates,
                               select_mu, verify_gaps)


def heat(n_max=64, alpha=2.0, scale=1.0):
    return make_spectrum(Kind.SELF_ADJOINT, alpha, scale, n_max)


def brute_dist(model, lam, m_cap=300):
    """Independent oracle: enumerate |lambda_j - lambda_i + lam| over i, j <= m_cap."""
    lv = np.array([model.level(n) for n in range(1, m_cap + 1)])
    diffs = lv[:, None] - lv[None, :]          # ell_i - ell_j = lambda_j - lambda_i
    return float(np.min(np.abs(diffs + lam)))


def brute_cert(model, lam, K):
    """Independent oracle: the first minimal |(ell_j - ell_i) - lam| over
    1 <= i < j <= K in (i, j) order if it is below lam, else lam at (1, 1)."""
    lv = np.array([model.level(n) for n in range(1, K + 1)])
    d = np.abs((lv[None, :] - lv[:, None]) - lam)
    d[np.tril_indices(K)] = np.inf
    first = int(np.argmin(d))
    if d.flat[first] < lam:
        return float(d.flat[first]), (first // K + 1, first % K + 1)
    return lam, (1, 1)


def law_reach(model, lam):
    """Levels a power law needs enumerated: its gaps grow, so once
    ell_K - ell_{K-1} > 2 lam every pair with j >= K has |D - lam| > lam."""
    K = 2
    while model.level(K) - model.level(K - 1) <= 2.0 * lam:
        K += 1
    return K


def table(seed, size=120):
    return -np.cumsum(np.random.default_rng(seed).uniform(0.5, 9.0, size)) - 0.25


def test_default_eigenvalues():
    m = heat(4)
    assert m.eigenvalues.dtype == np.float64
    assert np.array_equal(m.eigenvalues, [-1.0, -4.0, -9.0, -16.0])
    sk = make_spectrum("skew_adjoint", 2.0, 1.0, 3)
    assert sk.eigenvalues.dtype == np.complex128
    assert np.array_equal(sk.eigenvalues, np.array([-1j, -4j, -9j]))


@pytest.mark.parametrize("kind", list(Kind))
def test_eigenvalue_modulus_is_the_level(kind):
    # the weighted norms read the levels for |lambda_n|: the bits must agree
    for alpha in (1.5, 2.0, 3.0):
        m = make_spectrum(kind, alpha, 0.37, 300)
        assert np.abs(m.eigenvalues).tobytes() == m.levels.tobytes()


def test_alpha_guard():
    with pytest.raises(ValueError, match="alpha must exceed 1"):
        make_spectrum(Kind.SELF_ADJOINT, 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        make_spectrum(Kind.SELF_ADJOINT, 0.5, 1.0, 4)


def test_law_levels_past_the_float_range_are_refused():
    # a stored level that overflows is refused when the model is built
    with pytest.raises(ValueError, match=r"level 3 of the law 1\.0 \* n\*\*1000\.0 overflows float64"):
        make_spectrum(Kind.SKEW_ADJOINT, 1000.0, 1.0, 4)
    # past n_max the law's level is refused where it is asked for: the power
    # rounds to inf, or the product with scale does
    with pytest.raises(ValueError, match="level 3 of the law"):
        make_spectrum(Kind.SELF_ADJOINT, 1000.0, 1.0, 2).level(3)
    with pytest.raises(ValueError, match="level 100000000 of the law"):
        make_spectrum(Kind.SELF_ADJOINT, 2.0, 1e300, 2).level(10 ** 8)


def test_b_law_validation():
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 5, b_law=lambda n: 1.0 + 0.5 / n)
    assert np.min(m.b) > 1.0 and np.max(m.b) == 1.5
    with pytest.raises(ValueError):
        make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 5, b_law=[1.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 5, b_law=[1.0, 1.0])


def test_gap_report_heat():
    rep = verify_gaps(heat(64), 50)
    assert rep.passed
    # |k^2 - n^2| = (k+n)|k-n| >= k|k-n|: the pairwise constant tends to 1 from above
    assert 1.0 <= rep.condition("pairwise").constant <= 1.05
    assert rep.condition("separation").constant >= 1.0
    assert rep.condition("control").constant == 1.0


def test_gap_report_skew_matches_heat():
    r1 = verify_gaps(heat(50), 50)
    r2 = verify_gaps(make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 50), 50)
    for c1, c2 in zip(r1.conditions, r2.conditions):
        assert c1.constant == pytest.approx(c2.constant, rel=0, abs=0)


def test_gap_report_degenerate_fails():
    deg = make_tabulated(Kind.SELF_ADJOINT, 2.0, [-1.0, -1.0, -4.0])
    rep = verify_gaps(deg)
    assert not rep.passed
    assert rep.condition("consecutive_lower").constant == 0.0
    assert deg.gap_c == 0.0
    assert rep.condition("consecutive_upper").constant == (4.0 - 1.0) / 2.0


@pytest.mark.parametrize("levels", [
    list(np.arange(1, 31) ** 2 + np.random.default_rng(3).uniform(-0.3, 0.3, 30)),
    list(np.cumsum(np.random.default_rng(4).uniform(0.5, 5.0, 25))),
])
def test_tabulated_gap_constants_match_verify_gaps(levels):
    t = make_tabulated(Kind.SELF_ADJOINT, 2.0, -np.asarray(levels))
    rep = verify_gaps(t)
    assert t.gap_c == min(rep.condition("consecutive_lower").constant,
                          rep.condition("pairwise").constant)
    # independent oracle: direct loops over consecutive and all pairs k > n
    n = len(levels)
    consec = [(levels[i + 1] - levels[i]) / (i + 1) for i in range(n - 1)]
    pair = [abs(levels[k - 1] - levels[m - 1]) / (k * (k - m))
            for k in range(2, n + 1) for m in range(1, k)]
    assert t.gap_c == pytest.approx(min(min(consec), min(pair)), rel=1e-15, abs=0)
    assert rep.condition("consecutive_upper").constant == pytest.approx(max(consec), rel=1e-15,
                                                                        abs=0)


def test_dist_examples():
    m = heat()
    c = dist_alpha(m, 0.5)
    assert c.dist == 0.5 and c.witness_pair == (1, 1)
    c = dist_alpha(m, 3.0)      # lambda_1 - lambda_2 = 3: resonant
    assert c.dist == 0.0 and c.witness_pair == (1, 2)
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 8)
    assert dist_alpha(sk, 0.5).dist == 0.5


@pytest.mark.parametrize("lam", [0.25, 1.375, 2.9999, 3.0001, 5.0, 7.3, 11.04, 16.5, 24.97])
def test_dist_against_bruteforce(lam):
    m = heat(64)
    assert dist_alpha(m, lam).dist == brute_dist(m, lam)


@pytest.mark.parametrize("alpha,scale", [(1.5, 1.0), (2.0, 1.0), (3.0, 0.5)])
def test_dist_bruteforce_other_laws(alpha, scale):
    m = make_spectrum(Kind.SELF_ADJOINT, alpha, scale, 64)
    for lam in (0.8, 2.45, 6.11):
        assert dist_alpha(m, lam).dist == brute_dist(m, lam)


@pytest.mark.parametrize("alpha,scale", [(1.5, 0.3), (2.0, 1.0), (3.0, 32.0)])
def test_dist_matches_enumeration_past_n_max(alpha, scale):
    m = make_spectrum(Kind.SELF_ADJOINT, alpha, scale, 4)      # most levels lie past n_max
    lv = [m.level(n) for n in range(1, 30)]
    lams = [lv[j] - lv[i] for i in range(6) for j in range(i + 1, 12)]          # resonant
    lams += list(np.random.default_rng(5).uniform(1e-3, 6.0 * scale, 60))
    for lam in lams:
        cert = dist_alpha(m, float(lam))
        assert (cert.dist, cert.witness_pair) == brute_cert(m, float(lam), law_reach(m, lam))


@pytest.mark.parametrize("alpha", [1.5, 1.75])
def test_levels_past_n_max_are_the_stored_levels_bits(alpha):
    # one array evaluation of the law: a level asked for past n_max has the
    # bits it has when stored (C pow differs in the last bit on ~5% of them)
    for scale in (1.0, 0.37):
        big = make_spectrum(Kind.SELF_ADJOINT, alpha, scale, 20000)
        small = make_spectrum(Kind.SELF_ADJOINT, alpha, scale, 2)
        assert [small.level(k) for k in range(1, 20001)] == big.levels.tolist()
        through = spectrum._levels_through(small, big.levels[-1])
        assert through[:20000].tobytes() == big.levels.tobytes()


@pytest.mark.parametrize("alpha", [1.5, 1.75])
def test_certificates_do_not_depend_on_n_max(alpha):
    # dist_alpha and select_mu read levels past a small model's n_max; they
    # certify what a model storing every level they read certifies
    small, big = heat(2, alpha), heat(4000, alpha)
    for lam in np.linspace(0.3, 60.0, 1000).tolist():
        assert dist_alpha(small, lam) == dist_alpha(big, lam), lam
    for N in range(1, 40):
        assert select_mu(small, N) == select_mu(big, N), N


def test_dist_matches_enumeration_tabulated():
    issued = 0
    for seed in range(20):
        m = make_tabulated(Kind.SELF_ADJOINT, 2.0, table(seed))
        for lam in np.random.default_rng(seed).uniform(0.0, 1.0, 20):
            try:
                cert = dist_alpha(m, float(lam))
            except CertificationError:
                continue
            issued += 1
            assert (cert.dist, cert.witness_pair) == brute_cert(m, float(lam), m.n_max)
    assert issued >= 50


def test_dist_tabulated_pair_past_the_old_bound():
    # the nearest pair (72, 73) lies past ((lam + 2c)/c)^(1/(alpha-1)) + 2 = 60,
    # which is too small an index bound once lam > 2c
    m = make_tabulated(Kind.SELF_ADJOINT, 2.0, table(14))
    cert = dist_alpha(m, 0.30246121477323656)
    assert cert.dist == 0.23912908410421535 and cert.witness_pair == (72, 73)


@settings(max_examples=150, deadline=None)
@given(alpha=st.floats(1.2, 3.0), scale=st.floats(0.1, 40.0), n_max=st.integers(2, 40),
       k_top=st.integers(2, 150), frac=st.floats(1e-6, 1.0))
def test_dist_law_property(alpha, scale, n_max, k_top, frac):
    m = make_spectrum(Kind.SELF_ADJOINT, alpha, scale, n_max)
    lam = frac * (m.level(k_top) - m.level(k_top - 1)) / 2.0
    cert = dist_alpha(m, lam)
    assert (cert.dist, cert.witness_pair) == brute_cert(m, lam, law_reach(m, lam))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), alpha=st.sampled_from([1.5, 2.0, 2.5]),
       size=st.integers(3, 120), lam=st.floats(0.0, 1.0, exclude_min=True))
def test_dist_table_property(seed, alpha, size, lam):
    m = make_tabulated(Kind.SELF_ADJOINT, alpha, table(seed, size))
    try:
        cert = dist_alpha(m, lam)
    except CertificationError as exc:
        assert "only the tabulated modes" in str(exc)
        return
    assert (cert.dist, cert.witness_pair) == brute_cert(m, lam, m.n_max)


def test_dist_lipschitz():
    m = heat()
    lams = np.linspace(0.11, 12.0, 40)
    dists = [dist_alpha(m, float(l)).dist for l in lams]
    for (l1, d1), (l2, d2) in zip(zip(lams, dists), zip(lams[1:], dists[1:])):
        assert abs(d1 - d2) <= abs(l1 - l2) + 1e-12


def test_dist_skew_exact():
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 16)
    for lam in (0.1, 1.0, 7.77, 123.0):
        assert dist_alpha(sk, lam).dist == lam


def test_dist_preconditions():
    m = heat()
    with pytest.raises(ValueError):
        dist_alpha(m, 0.0)
    with pytest.raises(ValueError, match="index limit"):
        dist_alpha(m, 3e6)      # needs ~3e6 level indices at alpha = 2, c = 1


def test_mu_candidates_examples():
    m = heat()
    grid, M, floor = mu_candidates(m, 1)
    assert M == 4 and floor == 0.125
    assert np.allclose(grid, [1.125, 1.375, 1.625, 1.875])
    grid, M, floor = mu_candidates(m, 8)
    assert M == 11 and floor == pytest.approx(1 / 22)
    # floor cross-check by enumeration: dist(1.125) to the integer difference set
    assert brute_dist(m, 1.125) >= 0.125
    with pytest.raises(ValueError):
        mu_candidates(m, 0)
    with pytest.raises(ValueError):
        mu_candidates(make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 8), 1)


@pytest.mark.parametrize("alpha", [1.05, 1.001])      # 6^20 points; 6^1000 overflows a float
def test_mu_candidates_index_limit(alpha):
    m = make_spectrum(Kind.SELF_ADJOINT, alpha, 1.0, 8)
    with pytest.raises(ValueError, match="candidate grid size .* exceeds index limit"):
        mu_candidates(m, 5)
    with pytest.raises(ValueError, match="enumeration bound .* exceeds index limit"):
        dist_alpha(m, 5.5)


def test_select_mu_examples():
    m = heat()
    mu, cert = select_mu(m, 1)
    assert mu in (1.375, 1.625)
    assert cert.dist >= 0.125 and cert.floor == 0.125
    mu, cert = select_mu(m, 4)
    assert 4.0 <= mu <= 5.0
    _, M4, _ = mu_candidates(m, 4)
    assert cert.dist >= 1 / (2 * M4)
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 8)
    mu, cert = select_mu(sk, 7)
    assert mu == 7.5 and cert.dist == 7.5


def test_select_mu_floor_sweep():
    m = heat(128)
    for N in range(1, 41):
        mu, cert = select_mu(m, N)
        assert N <= mu <= N + m.gap_c
        assert cert.dist >= cert.floor


def _loop_select_mu(model, N):
    """Reference: the per-point scan, one `dist_alpha` per grid point in grid
    order, the first maximum kept."""
    grid, M_N, floor = mu_candidates(model, N)
    best = None
    for mu in grid:
        cert = dist_alpha(model, float(mu))
        if best is None or cert.dist > best.dist:
            best = cert
    if best.dist < floor:
        raise CertificationError(
            f"no grid point near N={N} clears the certified floor {floor}: "
            f"best dist {best.dist} at mu={best.lam} (M_N={M_N})")
    return best.lam, replace(best, floor=floor)


def _outcome(select, model, N):
    try:
        mu, cert = select(model, N)
        return mu, cert.lam, cert.dist, cert.witness_pair, cert.floor
    except (ValueError, CertificationError) as exc:
        return type(exc), str(exc)


def test_whole_grid_select_mu_matches_per_point_scan():
    cases = [(2.0, 1.0, range(1, 200, 3)), (3.0, 1.0, range(1, 200)), (1.5, 1.0, range(1, 13)),
             (2.0, 32.0, [math.ceil(k ** 3 - 1e-9) for k in range(1, 13)])]
    for alpha, scale, bases in cases:
        model = heat(64, alpha, scale)
        for N in bases:
            got = _outcome(select_mu, model, N)
            assert got == _outcome(_loop_select_mu, model, N), (alpha, scale, N)
            assert isinstance(got[0], float) and all(type(i) is int for i in got[3])


def test_whole_grid_select_mu_raises_as_the_scan_does(monkeypatch):
    # a tabulated table too short from some grid point on, and an index limit
    # crossed part-way through the grid: the first failing point in grid
    # order raises, with the scan's exception and message
    rng = np.random.default_rng(3)
    failed = 0
    for n in (5, 10, 30):
        table = make_tabulated(Kind.SELF_ADJOINT, 2.0, -(np.cumsum(rng.uniform(1, 9, n)) + 0.25))
        for N in range(1, 40):
            got = _outcome(select_mu, table, N)
            assert got == _outcome(_loop_select_mu, table, N), (n, N)
            failed += got[0] is CertificationError
    assert failed > 0
    monkeypatch.setattr(spectrum, "DEFAULT_INDEX_LIMIT", 22)
    model = heat()             # at N = 10, n_cap = int(2 mu) + 2 is 22, then 23 from mu 10.5
    got = _outcome(select_mu, model, 10)
    assert got[0] is ValueError and got[1].startswith("enumeration bound 23 exceeds")
    assert got == _outcome(_loop_select_mu, model, 10)


def test_whole_grid_search_in_chunks(monkeypatch):
    # a chunk of a few grid points at a time gives the one-chunk certificates
    model = heat(64, 1.5)
    whole = [_outcome(select_mu, model, N) for N in range(1, 9)]
    monkeypatch.setattr(spectrum, "_GRID_ELEMENTS", 1000)
    assert [_outcome(select_mu, model, N) for N in range(1, 9)] == whole


def test_tabulated_without_positive_gap_refuses_certification():
    deg = make_tabulated(Kind.SELF_ADJOINT, 2.0, [-1.0, -1.0, -4.0])
    with pytest.raises(CertificationError):
        dist_alpha(deg, 0.5)


def test_json_roundtrip_law():
    m = heat(8)
    text = model_to_json(m)
    m2 = model_from_json(text)
    assert not m2.tabulated
    assert model_to_json(m2) == text
    assert np.array_equal(m2.eigenvalues, m.eigenvalues)


def test_json_roundtrip_tabulated():
    t = make_tabulated(Kind.SKEW_ADJOINT, 2.0, [-1.1j, -3.9j, -9.2j], [1.0, 1.2, 0.9])
    text = model_to_json(t)
    t2 = model_from_json(text)
    assert t2.tabulated
    assert model_to_json(t2) == text
