import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backstep.cauchy import (CauchySystem, build_cauchy, csum, explicit_inverse,
                             format_scalar, lagrange_products, tail_log_bound,
                             truncation_entry_bar)
from backstep.errors import CertificationError, ResonanceError, SingularMatrixError
from backstep.oracles import LogSignedProduct, oracle_inverse
from backstep.spectrum import Kind, dist_alpha, make_spectrum, make_tabulated


def heat(n_max=64):
    return make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, n_max)


def test_build_examples():
    sys2 = CauchySystem.from_model(heat(), 0.5, 2)
    assert np.array_equal(sys2.x, [-1.0, -4.0]) and np.array_equal(sys2.dx, [[0.0, 3.0], [-3.0, 0.0]])
    assert not sys2.dx.flags.writeable and sys2.dx is sys2.dx     # formed once, shared
    C = build_cauchy(sys2)
    assert np.allclose(C, [[-2.0, 0.4], [-1 / 3.5, -2.0]])
    assert np.allclose(build_cauchy(CauchySystem.from_model(heat(), 0.5, 1)), [[-2.0]])
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 4)
    C1 = build_cauchy(CauchySystem.from_model(sk, 1.0, 1))
    assert C1[0, 0] == pytest.approx(-1.0)


def test_explicit_inverse_2x2():
    sys2 = CauchySystem.from_model(heat(), 0.5, 2)
    E = explicit_inverse(sys2)
    # frozen from the 2x2 adjugate: det = 4 + 0.4/3.5 = 144/35
    det = 4.0 + 0.4 / 3.5
    assert det == pytest.approx(4.1142857142857, rel=1e-12)
    expect = np.array([[-2.0, -0.4], [1 / 3.5, -2.0]]) / det
    assert np.allclose(E, expect, rtol=1e-13)
    # hand evaluation of the product formula, entry (1,1)
    assert E[0, 0] == pytest.approx(0.25 / (-0.5) * (1 + 0.5 / 3) * (1 - 0.5 / 3), rel=1e-13)


def test_explicit_inverse_empty_products():
    s1 = CauchySystem.from_model(heat(), 0.5, 1)
    E = explicit_inverse(s1)
    assert np.allclose(E, [[-0.5]])           # lambda^2 / (-lambda) with empty products


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("N", [1, 2, 5, 16, 48])
def test_inverse_identity_and_oracle(alpha, N):
    m = make_spectrum(Kind.SELF_ADJOINT, alpha, 1.0, 64)
    lam = 1.3125
    cert = dist_alpha(m, lam)
    sysm = CauchySystem.from_model(m, lam, N, cert)
    C, E = build_cauchy(sysm), explicit_inverse(sysm)
    assert np.max(np.abs(E @ C - np.eye(N))) <= 1e-10
    O = oracle_inverse(C)
    assert np.max(np.abs(E - O)) <= 1e-10 * np.max(np.abs(O))


def test_oracle_examples():
    assert np.allclose(oracle_inverse(np.array([[-2.0]])), [[-0.5]])
    A = np.array([[-2.0, 0.4], [-1 / 3.5, -2.0]])
    det = 4.0 + 0.4 / 3.5
    expect = np.array([[-2.0, -0.4], [1 / 3.5, -2.0]]) / det
    assert np.allclose(oracle_inverse(A), expect, rtol=1e-14)
    assert np.allclose(oracle_inverse(np.eye(5)), np.eye(5))


def test_oracle_guards():
    with pytest.raises(SingularMatrixError):
        oracle_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError):
        oracle_inverse(np.ones((2, 3)))


def test_resonance_guards():
    m = heat()
    with pytest.raises(ResonanceError):
        build_cauchy(CauchySystem.from_model(m, 3.0, 4))   # lambda_1 - lambda_2 = 3
    with pytest.raises(ResonanceError):
        explicit_inverse(CauchySystem.from_model(m, 3.0, 4))
    # stale certificate: claim a larger separation than the nodes deliver
    fake = dist_alpha(m, 0.5)
    sysm = CauchySystem(x=m.eigenvalues[:4], lam=2.9, min_sep=fake.dist)
    with pytest.raises(ResonanceError, match="stale"):
        build_cauchy(sysm)


def test_logsigned_against_naive():
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = rng.normal(size=rng.integers(1, 60))
        p = LogSignedProduct.from_factors(f)
        naive = float(np.prod(f))
        assert p.value() == pytest.approx(naive, rel=1e-12)
    z = rng.normal(size=30) + 1j * rng.normal(size=30)
    p = LogSignedProduct.from_factors(z)
    assert abs(p.value() - np.prod(z)) <= 1e-12 * abs(np.prod(z))


def test_logsigned_zero_and_composition():
    p = LogSignedProduct.from_factors([2.0, 0.0, 5.0])
    assert p.is_zero and p.value() == 0.0
    a = LogSignedProduct.from_factors([3.0, -2.0])
    b = LogSignedProduct.from_factors([0.5])
    ab = LogSignedProduct.from_factors([3.0, -2.0, 0.5])
    assert ab.value() == pytest.approx(a.value() * b.value()) == pytest.approx(-3.0)
    assert LogSignedProduct.from_factors([3.0, -2.0, 0.0]).is_zero
    assert LogSignedProduct.from_factors([]).value() == 1.0
    # overflow-proof: 400 factors of 100 is far past float range
    big = LogSignedProduct.from_factors([100.0] * 400)
    assert big.log_magnitude == pytest.approx(400 * math.log(100.0))


def test_tail_bound_example():
    m = heat(128)
    b = tail_log_bound(m, 1, 1.0, 100)
    assert b <= 0.09
    # direct summation of the majorant series to convergence
    idx = np.arange(101, 400_001, dtype=float)
    direct = float(np.sum(2.0 * 1.0 / ((idx - 1) * idx)))
    assert direct <= b


def test_tail_bound_scaling_and_guards():
    m = heat(128)
    b1 = tail_log_bound(m, 1, 1e-3, 100)
    b2 = tail_log_bound(m, 1, 2e-3, 100)
    assert b2 == pytest.approx(2 * b1)        # linear in lambda
    assert tail_log_bound(m, 1, 0.0, 100) == 0.0
    with pytest.raises(ValueError, match="threshold"):
        tail_log_bound(m, 1, 1000.0, 5)
    with pytest.raises(ValueError):
        tail_log_bound(m, 101, 1.0, 100)
    assert truncation_entry_bar(m, 1.0, 100) >= math.expm1(2 * tail_log_bound(m, 100, 1.0, 100)) - 1e-15


def test_truncation_bar_certifies_deeper_truncations():
    # the N-truncated gain product must sit within the bar of the 2N one
    m = heat(256)
    lam = 1.375
    for N in (32, 64):
        a = explicit_inverse(CauchySystem.from_model(m, lam, N))
        b = explicit_inverse(CauchySystem.from_model(m, lam, 2 * N))
        bar = truncation_entry_bar(m, lam, N)
        rel = np.max(np.abs(a - b[:N, :N]) / np.abs(b[:N, :N]))
        assert rel <= bar


def test_csum_exact():
    vals = [1e16, 1.0, -1e16, 1.0]
    assert csum(vals) == 2.0
    assert csum([1 + 2j, 1e16j, -1e16j]) == 1 + 2j
    # exact rounding: any permutation of the terms gives the same bits
    rng = np.random.default_rng(11)
    re = rng.standard_normal(301) * 10.0 ** rng.integers(-12, 13, 301)
    cx = re + 1j * rng.permutation(re)
    for arr in (re, cx):
        for _ in range(5):
            assert csum(rng.permutation(arr)) == csum(arr)


def test_csum_rows_match_per_row_loop():
    # the row form sums each row of a 2-D array; it must give the per-row bits
    rng = np.random.default_rng(17)
    re = rng.standard_normal((40, 301)) * 10.0 ** rng.integers(-12, 13, (40, 301))
    cx = re + 1j * rng.permutation(re, axis=1)
    for mat in (re, cx, re[:, :0], re[:1]):
        rows = csum(mat)
        loop = np.array([csum(row) for row in mat], dtype=mat.dtype)
        assert rows.dtype == mat.dtype and rows.tobytes() == loop.tobytes()


def _fsum_rows(mat):
    """Reference for the 2-D `csum`: math.fsum of every row, with real and
    imaginary parts combined as complex(re, im) like the 1-D `csum`, or the
    first row's exception."""
    try:
        re = [math.fsum(row.tolist()) for row in mat.real]
        if not np.iscomplexobj(mat):
            return np.array(re).tobytes()
        im = [math.fsum(row.tolist()) for row in mat.imag]
        return np.array([complex(r, i) for r, i in zip(re, im)], dtype=complex).tobytes()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _csum_rows(mat):
    try:
        return csum(mat).tobytes()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


_SPREAD = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),                           # subnormal to 1e300
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 990)),   # exponent gaps: many passes
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))
_WILD = st.one_of(
    _SPREAD,
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(1000, 1023)),   # at and past 2^(1020 - M)
    st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def _matrices(draw, elements=_SPREAD):
    """1-4 rows of 0-10 terms; with `cancel`, each row also holds the
    negation of every term and one extra term, in a drawn order."""
    rows, cols, cancel = draw(st.integers(1, 4)), draw(st.integers(0, 10)), draw(st.booleans())
    out = []
    for _ in range(rows):
        row = draw(st.lists(elements, min_size=cols, max_size=cols))
        if cancel:
            row = draw(st.permutations(row + [-v for v in row] + [draw(elements)]))
        out.append(row)
    return np.array(out, dtype=float).reshape(rows, -1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrices(), _matrices(st.floats(1.0, 2.0))))   # same scale and sign: |sum q| near sigma
def test_csum_rows_are_fsum_bits(mat):
    assert _csum_rows(mat) == _fsum_rows(mat)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_csum_complex_rows_are_fsum_bits(data):
    re = data.draw(_matrices())
    im = data.draw(st.lists(st.lists(_SPREAD, min_size=re.shape[1], max_size=re.shape[1]),
                            min_size=re.shape[0], max_size=re.shape[0]))
    mat = np.empty(re.shape, dtype=complex)
    mat.real, mat.imag = re, np.array(im, dtype=float).reshape(re.shape)
    assert _csum_rows(mat) == _fsum_rows(mat)


@settings(max_examples=200, deadline=None)
@given(_matrices(_WILD))
def test_csum_rows_keep_fsum_specials(mat):
    # inf and NaN propagate, -inf + inf raises ValueError, and an intermediate
    # overflow raises OverflowError, row by row as fsum does
    assert _csum_rows(mat) == _fsum_rows(mat)


def test_csum_rows_shapes_passes_and_specials():
    rng = np.random.default_rng(23)
    deep = [1.0, 1e-20, 1e-40, 1e-60, -1.0]     # exact sum needs five extraction passes
    overflow = np.array([[1e308, 1e308, -1e308], [1.0, 2.0, 3.0]])
    invalid = np.array([[1.0, 2.0, 3.0], [math.inf, -math.inf, 0.0]])
    assert _csum_rows(overflow)[0] is OverflowError and _csum_rows(invalid)[0] is ValueError
    cases = [np.array([deep]), np.zeros((3, 0)), np.zeros((0, 4)), np.array([[-0.0], [0.0]]),
             rng.standard_normal((150, 7)) * 10.0 ** rng.integers(-300, 300, (150, 7)),
             rng.uniform(1.0, 2.0, (70, 300)), overflow, invalid,
             np.array([[math.nan, 1.0], [math.inf, 1.0], [-math.inf, 2.0**1020]]),
             np.array([[1.0, 2.0], [math.inf, 0.5]])]    # finite real part, infinite imaginary
    for mat in cases:
        assert _csum_rows(mat) == _fsum_rows(mat)
        cx = np.empty(mat.shape, dtype=complex)
        cx.real, cx.imag = mat, 0.5 * mat[::-1]     # 1j * inf would give a NaN real part
        assert _csum_rows(cx) == _fsum_rows(cx)
    # a row keeps its real part beside an infinite imaginary sum, as the 1-D form does
    z = complex(1.0, math.inf)
    assert csum(np.array([[z]])).tolist() == [csum(np.array([z]))] == [z]


def test_csum_rows_make_no_per_row_fsum_call(monkeypatch):
    # a finite, well-scaled matrix is summed with whole-array operations only
    mat = np.random.default_rng(5).uniform(-1.0, 1.0, (300, 300))
    expected = _fsum_rows(mat)
    fsum, calls = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    rows = csum(mat)
    assert calls == []
    assert rows.tobytes() == expected


def _parse_scalar(text):
    # inverse of format_scalar: "re", "re+imi" or "re-imi"
    if not text.endswith("i"):
        return complex(float(text), 0.0)
    body = text[:-1]
    k = max(k for k in range(1, len(body)) if body[k] in "+-" and body[k - 1] not in "eE")
    return complex(float(body[:k]), float(body[k:]))


def test_scalar_format_roundtrip():
    for z in (0.5, -1.0, 1 / 3, 2.5e-17, complex(1.5, -0.25), complex(0.0, 3.0), -7.25e-9 + 1e-17j):
        assert _parse_scalar(format_scalar(z)) == complex(z)


def test_realized_rejects_imaginary_residue():
    from backstep.cauchy import _IMAG_TOL, _realized
    sysm = CauchySystem.from_model(heat(), 0.5, 2)
    ok = np.array([[1.0 + 0.5 * _IMAG_TOL * 1j, 2.0]])
    assert np.array_equal(_realized(sysm, ok), [[1.0, 2.0]])
    with pytest.raises(CertificationError, match="imaginary residue"):
        _realized(sysm, np.array([[1.0 + 4.0 * _IMAG_TOL * 1j, 0.0]]))


def test_realized_guard_survives_optimize_flag():
    import os
    import subprocess
    import sys
    import backstep
    code = ("import numpy as np; from backstep.cauchy import CauchySystem, _realized; "
            "from backstep.spectrum import make_spectrum; "
            "s = CauchySystem.from_model(make_spectrum('self_adjoint', 2.0, 1.0, 4), 0.5, 2); "
            "_realized(s, np.array([[1.0 + 1e-6j]]))")
    src = os.path.dirname(os.path.dirname(backstep.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "CertificationError" in proc.stderr


def _node_models():
    rng = np.random.default_rng(5)
    table = -np.cumsum(rng.uniform(1.0, 9.0, 64)) - 0.25   # irregular, simple levels
    return [make_spectrum(Kind.SELF_ADJOINT, a, 1.0, 64) for a in (1.5, 2.0, 3.0)] + \
        [make_tabulated(Kind.SELF_ADJOINT, 2.0, table)]


def _complex_nodes(sysm):
    return CauchySystem(x=sysm.x.astype(complex), lam=sysm.lam, min_sep=sysm.min_sep)


@pytest.mark.parametrize("model", _node_models(),
                         ids=["alpha1.5", "alpha2", "alpha3", "tabulated"])
def test_real_nodes_round_like_complex_nodes(model):
    # the float64 kernel must give the bits of the complex kernel on the same nodes
    for lam in (0.7, 13.3, 57.1, 99.7):
        real = CauchySystem.from_model(model, lam, 64)
        cplx = _complex_nodes(real)
        assert np.array_equal(real.x, cplx.x.real) and np.array_equal(real.dx, cplx.dx.real)
        assert np.array_equal(build_cauchy(real), build_cauchy(cplx))
        for a, b in zip(lagrange_products(real), lagrange_products(cplx)):
            assert np.array_equal(a, b.real) and not np.any(np.imag(b))
        assert np.array_equal(explicit_inverse(real), explicit_inverse(cplx))


def test_self_adjoint_kernel_is_real():
    for model in _node_models():
        sysm = CauchySystem.from_model(model, 3.3, 48)
        assert sysm.x.dtype == np.float64 and sysm.dx.dtype == np.float64
        assert all(p.dtype == np.float64 for p in lagrange_products(sysm))
        assert build_cauchy(sysm).dtype == explicit_inverse(sysm).dtype == np.float64
    sk = CauchySystem.from_model(make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 8), 1.5, 8)
    assert sk.x.dtype == np.complex128


def test_repeated_eigenvalue_guard():
    deg = make_tabulated(Kind.SELF_ADJOINT, 2.0, [-1.0, -1.0, -4.0])
    real = CauchySystem.from_model(deg, 0.5, 3)
    for sysm in (real, _complex_nodes(real)):
        with pytest.raises(ResonanceError, match="repeated eigenvalue"):
            lagrange_products(sysm)
    for N in (1, 2):       # the guard needs an off-diagonal zero, not the diagonal ones
        lagrange_products(CauchySystem.from_model(heat(), 0.5, N))
