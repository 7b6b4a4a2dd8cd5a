import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backstep.cauchy import (NodeTable, block_rows, build_cauchy, csum, explicit_inverse,
                             format_scalar, lagrange_products, node_table)
from backstep.errors import ResonanceError, SingularMatrixError
from backstep.oracles import LogSignedProduct, oracle_inverse
from backstep.quantitative import cost_sweep
from backstep.simulate import build_schedule, run_null_control, stage_synthesis, trajectory
from backstep.spectrum import Kind, dist_alpha, make_spectrum, make_tabulated, select_mu
from backstep.transform import assemble, unit_gaussian


def heat(n_max=64):
    return make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, n_max)


def test_build_examples():
    model = heat()
    table = node_table(model, 2)
    dx = table.dx
    assert np.array_equal(table.x, [-1.0, -4.0]) and np.array_equal(dx, [[0.0, 3.0], [-3.0, 0.0]])
    assert not dx.flags.writeable and node_table(model, 2).dx is dx
    C = build_cauchy(table, 0.5)
    assert np.allclose(C, [[-2.0, 0.4], [-1 / 3.5, -2.0]])
    assert np.allclose(build_cauchy(node_table(heat(), 1), 0.5), [[-2.0]])
    sk = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 4)
    C1 = build_cauchy(node_table(sk, 1), 1.0)
    assert C1[0, 0] == pytest.approx(-1.0)


def test_explicit_inverse_2x2():
    E = explicit_inverse(node_table(heat(), 2), 0.5)
    # frozen from the 2x2 adjugate: det = 4 + 0.4/3.5 = 144/35
    det = 4.0 + 0.4 / 3.5
    assert det == pytest.approx(4.1142857142857, rel=1e-12)
    expect = np.array([[-2.0, -0.4], [1 / 3.5, -2.0]]) / det
    assert np.allclose(E, expect, rtol=1e-13)
    # hand evaluation of the product formula, entry (1,1)
    assert E[0, 0] == pytest.approx(0.25 / (-0.5) * (1 + 0.5 / 3) * (1 - 0.5 / 3), rel=1e-13)


def test_explicit_inverse_empty_products():
    E = explicit_inverse(node_table(heat(), 1), 0.5)
    assert np.allclose(E, [[-0.5]])           # lambda^2 / (-lambda) with empty products


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("N", [1, 2, 5, 16, 48])
def test_inverse_identity_and_oracle(alpha, N):
    m = make_spectrum(Kind.SELF_ADJOINT, alpha, 1.0, 64)
    lam = 1.3125
    cert = dist_alpha(m, lam)
    table = node_table(m, N)
    C, E = build_cauchy(table, lam, cert.dist), explicit_inverse(table, lam, cert.dist)
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
        build_cauchy(node_table(m, 4), 3.0)   # lambda_1 - lambda_2 = 3
    with pytest.raises(ResonanceError):
        explicit_inverse(node_table(m, 4), 3.0)
    # stale certificate: claim a larger separation than the nodes deliver
    fake = dist_alpha(m, 0.5)
    with pytest.raises(ResonanceError, match="stale"):
        build_cauchy(NodeTable.of(m.eigenvalues[:4]), 2.9, fake.dist)
    with pytest.raises(ResonanceError, match="stale"):
        explicit_inverse(node_table(m, 4), 2.9, fake.dist)


def test_node_table_refuses_truncations_outside_the_model():
    m = heat(8)
    for N in (0, 9):
        with pytest.raises(ValueError, match=rf"truncation N={N} outside \[1, 8\]"):
            node_table(m, N)
    assert m.node_tables == {}
    assert node_table(m, 8).x.size == 8


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
    # across extraction blocks the real rows still raise first, as in the reference
    tall = np.zeros((4 * block_rows(128), 64), dtype=complex)
    tall.imag[0, :2] = math.inf, -math.inf       # ValueError
    tall.real[-1, :2] = 1e308, 1e308             # OverflowError
    assert _csum_rows(tall) == _fsum_rows(tall) and _fsum_rows(tall)[0] is OverflowError


def _benchmark_sums():
    """The row sums of the benchmark's data: the README sweep's N = 300, base 25
    TB = B matrix C diag(kb), and the TB = B matrix and the controls k * y of
    the last stage of a 10-stage scale-32 skew-adjoint schedule."""
    heat300 = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 300)
    mu, cert = select_mu(heat300, 25)
    s = assemble(heat300, mu, 300, cert)
    yield "sweep TB, N = 300", build_cauchy(node_table(heat300, 300), mu) * (s.k * s.b)
    skew = make_spectrum(Kind.SKEW_ADJOINT, 2.0, 32.0, 128)
    sch = build_schedule(skew, 1.0, 3.0, 2.5, 10, trunc=48)
    st_ = sch.stages[-1]
    s = stage_synthesis(sch, st_)
    yield "skew stage 10 TB", build_cauchy(node_table(skew, sch.trunc), st_.lam) * (s.k * s.b)
    taus = [st_.delta * q / 16 for q in range(16)]
    ys = np.array(list(trajectory(s, unit_gaussian(sch.trunc, 7), taus)))
    yield "skew stage 10 controls", s.k * ys


def test_csum_rows_make_no_per_row_fsum_call(monkeypatch):
    # a finite, well-scaled matrix, and the benchmark's own sums, are summed
    # with whole-array operations only: no row reaches math.fsum
    cases = [("uniform", np.random.default_rng(5).uniform(-1.0, 1.0, (300, 300))),
             *_benchmark_sums()]
    expected = [_fsum_rows(mat) for _, mat in cases]
    fsum, calls = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    for (name, mat), want in zip(cases, expected):
        assert csum(mat).tobytes() == want and calls == [], name


def test_csum_rows_spanning_many_binades_are_fsum_bits():
    # one sigma per block: a row far below the block's largest term extracts
    # nothing in passes 1 and 2 and finishes with its own sigma from pass 3
    rng = np.random.default_rng(29)
    scales = np.ldexp(1.0, np.linspace(-600, 600, 41).astype(int))
    re = rng.standard_normal((41, 50)) * scales[:, None] * 10.0 ** rng.integers(-8, 9, (41, 50))
    re[::3, -1] = -re[::3, :-1].sum(axis=1)      # near-cancelling rows
    for mat in (re, re[rng.permutation(41)], re[::-1] + 1j * re):
        assert _csum_rows(mat) == _fsum_rows(mat)


@pytest.mark.parametrize("wild", [math.inf, -math.inf, math.nan, 2.0 ** 1020, -2.0 ** 1023,
                                  (math.inf, -math.inf), (1e308, 1e308)])
def test_csum_rows_with_one_wild_row_are_fsum_bits(wild):
    # one row past the block's limit goes to fsum itself, with its value,
    # NaN or error; the finite rows beside it keep the block's sigma
    rng = np.random.default_rng(31)
    mat = rng.standard_normal((30, 64)) * 10.0 ** rng.integers(-5, 6, (30, 64))
    mat[17, :len(np.atleast_1d(wild))] = wild
    cx = np.empty(mat.shape, dtype=complex)
    cx.real, cx.imag = mat, mat[::-1]       # 1j * inf would give a NaN real part
    for m in (mat, cx, cx.conj()[::-1]):
        assert _csum_rows(m) == _fsum_rows(m)


@settings(max_examples=25, deadline=None)
@given(pool=st.lists(_WILD, min_size=1, max_size=6), n=st.sampled_from([3, 129, 300]),
       seed=st.integers(0, 2**32 - 1), cplx=st.booleans())
def test_csum_rows_across_blocks_are_fsum_bits(pool, n, seed, cplx):
    # more rows than one block of _BLOCK_ELEMENTS terms holds, and a complex
    # matrix stacked twice as tall: every row keeps fsum's bits, including
    # its -0.0, inf, NaN and overflow behaviour
    from backstep.cauchy import _BLOCK_ELEMENTS
    rng = np.random.default_rng(seed)
    shape = (_BLOCK_ELEMENTS // n + 3, n)
    mat = np.array(pool)[rng.integers(0, len(pool), shape)] * rng.choice([1.0, -1.0], shape)
    if cplx:
        cx = np.empty(shape, dtype=complex)
        cx.real, cx.imag = mat, mat[rng.permutation(shape[0])]
        mat = cx
    assert _csum_rows(mat) == _fsum_rows(mat)


_DEEP = st.builds(lambda m, k: math.ldexp(m, 500 - 120 * k),     # 120 binades apart:
                  st.floats(-1.0, 1.0), st.integers(0, 6))        # three passes and more
_TINY = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, -960))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrices(_DEEP), _matrices(st.one_of(_DEEP, _SPREAD))))
def test_csum_rows_past_two_passes_are_fsum_bits(mat):
    # a term 120 binades below a row's largest is below the second pass's
    # sigma_2 = 2^(M - 53) sigma_1 bound, so it survives to pass 3, where
    # sigma comes from the remainders again
    assert _csum_rows(mat) == _fsum_rows(mat)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrices(_TINY), _matrices(st.one_of(_TINY, _SPREAD))))
def test_csum_rows_with_tiny_second_sigma_are_fsum_bits(mat):
    # rows whose largest term is below 2^-960 take a subnormal sigma_2, and
    # below about 2^-1030 one that underflows to 0
    assert _csum_rows(mat) == _fsum_rows(mat)


def test_csum_rows_take_data_sigma_from_pass_three():
    # passes 1 and 2 take one scalar sigma per block, from the block's largest
    # term and from that bound; np.frexp runs once per later pass, where sigma
    # comes from each row's largest remainder.  A subnormal sigma_2 keeps the
    # sum exact.
    deep = [1.0, 2.0 ** -120, 2.0 ** -240, 2.0 ** -360, -1.0]
    cases = [([[1.0, 2.0 ** -60, -1.0]], 0),               # pass 2 ends it
             ([deep], 3),                                  # passes 3, 4 and 5
             ([[1.0, 3.0, 0.0, 0.0, 0.0], deep], 3),
             ([[2.0 ** -1000, -2.0 ** -1010, 2.0 ** -1074]], 0),   # sigma_2 subnormal
             ([[2.0 ** -1040, 5e-324, 0.0], [1.0, 2.0 ** -60, -1.0]], 1)]   # row 1 sets sigma_1
    frexp = np.frexp
    for rows, data_passes in cases:
        mat = np.array(rows)
        calls = []
        with mock.patch.object(np, "frexp", lambda x: calls.append(1) or frexp(x)):
            got = _csum_rows(mat)
        assert got == _fsum_rows(mat) and len(calls) == data_passes, rows


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


def _node_models():
    rng = np.random.default_rng(5)
    table = -np.cumsum(rng.uniform(1.0, 9.0, 64)) - 0.25   # irregular, simple levels
    return [make_spectrum(Kind.SELF_ADJOINT, a, 1.0, 64) for a in (1.5, 2.0, 3.0)] + \
        [make_tabulated(Kind.SELF_ADJOINT, 2.0, table)]


def _complex_nodes(table):
    return NodeTable.of(table.x.astype(complex))


@pytest.mark.parametrize("model", _node_models(),
                         ids=["alpha1.5", "alpha2", "alpha3", "tabulated"])
def test_real_nodes_round_like_complex_nodes(model):
    # the float64 kernel gives the bits of the complex kernel on the same
    # nodes, except its signs: those are exact parities, +-1, where the
    # complex kernel's products of rounded units drift by a few ulps
    eps = np.finfo(float).eps
    for lam in (0.7, 13.3, 57.1, 99.7):
        real = node_table(model, 64)
        cplx = _complex_nodes(real)
        assert np.array_equal(real.x, cplx.x.real)
        assert np.array_equal(real.dx, cplx.dx.real)
        assert np.array_equal(build_cauchy(real, lam), build_cauchy(cplx, lam))
        log_p, sgn_p, log_q, sgn_q = lagrange_products(real, lam)
        c_log_p, c_sgn_p, c_log_q, c_sgn_q = lagrange_products(cplx, lam)
        for a, b in ((log_p, c_log_p), (log_q, c_log_q)):
            assert np.array_equal(a, b.real) and not np.any(b.imag)
        for a, b in ((sgn_p, c_sgn_p), (sgn_q, c_sgn_q)):
            assert np.array_equal(np.abs(a), np.ones(64)) and np.array_equal(a, np.sign(b.real))
            assert not np.any(b.imag) and np.max(np.abs(b - a)) <= 64 * eps
        e_real, e_cplx = explicit_inverse(real, lam), explicit_inverse(cplx, lam)
        assert np.array_equal(np.sign(e_real), np.sign(e_cplx.real))
        assert np.all(np.abs(e_real - e_cplx) <= 128 * eps * np.abs(e_real))


@pytest.mark.parametrize("alpha,scale", [(1.5, 1.0), (2.0, 1.0), (3.0, 1.0), (2.0, 32.0)])
def test_real_lagrange_signs_are_exact_parities(alpha, scale):
    # the factor 1 + lambda / (x_i - x_m) is negative exactly when
    # 0 < x_m - x_i < lambda, and a certified lambda keeps every difference
    # away from lambda; so sgn P_i and sgn Q_j are -1 to the number of such
    # m in row i and column j, exactly +-1
    model = make_spectrum(Kind.SELF_ADJOINT, alpha, scale, 300)
    for base in (2, 7, 25):
        lam = select_mu(model, base)[0]
        x = model.eigenvalues
        below = (x[None, :] - x[:, None] > 0.0) & (x[None, :] - x[:, None] < lam)
        _, sgn_p, _, sgn_q = lagrange_products(node_table(model, 300), lam)
        assert np.array_equal(sgn_p, (-1.0) ** np.count_nonzero(below, axis=1)), base
        assert np.array_equal(sgn_q, (-1.0) ** np.count_nonzero(below, axis=0)), base


def test_real_lagrange_signs_past_255_negative_factors():
    # nodes -1, -2, ..., -600 and lambda = 400.5: row i (from 0) has
    # min(i, 400) negative factors and column j min(599 - j, 400), so the
    # counts pass 255, where a uint8 count wraps
    model = make_tabulated(Kind.SELF_ADJOINT, 2.0, -np.arange(1.0, 601.0))
    _, sgn_p, _, sgn_q = lagrange_products(node_table(model, 600), 400.5)
    counts = np.minimum(np.arange(600), 400)
    assert np.array_equal(sgn_p, (-1.0) ** counts)
    assert np.array_equal(sgn_q, (-1.0) ** counts[::-1])


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("scale", [1.0, 32.0])
def test_skew_column_products_conjugate_row_products(alpha, scale):
    # purely imaginary nodes: 1 - q is the conjugate of 1 + q, so
    # log|Q| = log|P| and sgn Q = conj(sgn P) bit for bit, as the two-pass
    # form also gives
    model = make_spectrum(Kind.SKEW_ADJOINT, alpha, scale, 300)
    for N in (64, 128, 300):
        for base in (3, 40):
            table, lam = node_table(model, N), select_mu(model, base)[0]
            log_p, sgn_p, log_q, sgn_q = lagrange_products(table, lam)
            assert log_q.tobytes() == log_p.tobytes()
            assert sgn_q.tobytes() == sgn_p.conj().tobytes()
            ref = _two_pass_lagrange_products(table, lam)
            assert all(a.tobytes() == b.tobytes() for a, b in zip((log_p, sgn_p, log_q, sgn_q), ref))


def test_self_adjoint_kernel_is_real():
    for model in _node_models():
        table = node_table(model, 48)
        assert table.x.dtype == np.float64 and table.dx.dtype == np.float64
        assert all(p.dtype == np.float64 for p in lagrange_products(table, 3.3))
        assert build_cauchy(table, 3.3).dtype == explicit_inverse(table, 3.3).dtype == np.float64
    sk = node_table(make_spectrum(Kind.SKEW_ADJOINT, 2.0, 1.0, 8), 8)
    assert sk.x.dtype == np.complex128


def test_repeated_eigenvalue_guard():
    deg = make_tabulated(Kind.SELF_ADJOINT, 2.0, [-1.0, -1.0, -4.0])
    real = node_table(deg, 3)
    for table in (real, _complex_nodes(real)):
        with pytest.raises(ResonanceError, match="repeated eigenvalue"):
            lagrange_products(table, 0.5)
    for N in (1, 2):       # the guard needs an off-diagonal zero, not the diagonal ones
        lagrange_products(node_table(heat(), N), 0.5)


def _count_tables(monkeypatch):
    built = []
    of = NodeTable.of.__func__
    monkeypatch.setattr(NodeTable, "of", classmethod(lambda cls, x: built.append(len(x))
                                                     or of(cls, x)))
    return built


def test_one_node_table_per_model_and_truncation(monkeypatch):
    # every point of the README sweep and every stage of a schedule shares
    # the model's table of its truncation
    built = _count_tables(monkeypatch)
    model = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 300)
    result = cost_sweep(model, range(1, 26), 300)
    assert len(result.points) == 25 and built == [300]
    assert list(model.node_tables) == [300]
    built.clear()
    for kind in Kind:
        model = make_spectrum(kind, 2.0, 32.0, 160)
        sch = build_schedule(model, 1.0, 3.0, 2.5, 10, trunc=48)
        run_null_control(sch, np.eye(sch.trunc)[0])
        assert len(sch.stages) == 10 and list(model.node_tables) == [sch.trunc]
    assert built == [sch.trunc] * 2


def test_node_table_is_read_only_and_dies_with_its_model():
    model = heat()
    lagrange_products(node_table(model, 16), 0.5)
    table = node_table(model, 16)
    assert table is model.node_tables[16] is node_table(model, 16)
    assert all(not a.flags.writeable for a in (table.x, table.dx, table.inv_dx))
    assert table.simple and np.array_equal(table.x, model.eigenvalues[:16])
    ref = weakref.ref(table)
    del table, model
    gc.collect()
    assert ref() is None


def test_bare_nodes_build_their_own_table():
    model = heat()
    x = model.eigenvalues[:8]
    table = NodeTable.of(x)
    dx = x[:, None] - x[None, :]
    assert np.array_equal(table.x, x) and np.array_equal(table.dx, dx)
    inv = np.divide(1.0, dx, out=np.zeros_like(dx), where=dx != 0.0)
    assert table.inv_dx.tobytes() == inv.tobytes()
    assert model.node_tables == {}           # the model's own tables are untouched
    assert NodeTable.of(x) is not table
    for a, b in zip(lagrange_products(table, 0.5), lagrange_products(node_table(model, 8), 0.5)):
        assert a.tobytes() == b.tobytes()
    assert not NodeTable.of(np.array([-1.0, -1.0, -4.0])).simple


def _two_pass_lagrange_products(table, lam):
    """Reference: the products from two factor matrices, 1 + q and 1 - q,
    each reduced along its rows; a real row's sign is the parity of its
    negative factors, a complex row's the product of its units."""
    dx = table.x[:, None] - table.x[None, :]
    q = lam * np.divide(1.0, dx, out=np.zeros_like(dx), where=dx != 0.0)

    def rows(factors):
        if np.any(factors == 0.0):
            raise ResonanceError("a Lagrange factor vanished")
        mag = np.abs(factors)
        if np.iscomplexobj(factors):
            sgn = np.prod(factors * (1.0 / mag), axis=1)
        else:                     # real signs: the parity of the negative factors
            sgn = np.where(np.count_nonzero(factors < 0.0, axis=1) % 2 == 1, -1.0, 1.0)
        return np.sum(np.log(mag), axis=1), sgn
    return rows(1.0 + q) + rows(1.0 - q)


def _product_models():
    rng = np.random.default_rng(11)
    levels = np.cumsum(rng.uniform(1.0, 9.0, 64)) + 0.25
    return [make_spectrum(kind, a, 1.0, 64) for kind in (Kind.SELF_ADJOINT, Kind.SKEW_ADJOINT)
            for a in (1.5, 2.0, 3.0)] + \
        [make_tabulated(Kind.SELF_ADJOINT, 2.0, -levels),
         make_tabulated(Kind.SKEW_ADJOINT, 2.0, -1j * levels)]


@pytest.mark.parametrize("model", _product_models(),
                         ids=["self1.5", "self2", "self3", "skew1.5", "skew2", "skew3",
                              "tabulated-self", "tabulated-skew"])
def test_lagrange_products_match_two_pass_form(model):
    # 1 - q is (1 + q) transposed bit for bit, so one factor matrix gives
    # every product with the bits of the two-pass form
    for lam in (0.7, 13.3, 57.1, 99.7, 1234.5):
        for N in (1, 2, 17, 64):
            table = node_table(model, N)
            new, ref = lagrange_products(table, lam), _two_pass_lagrange_products(table, lam)
            for a, b in zip(new, ref):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (lam, N)


def test_vanished_lagrange_factor_guard():
    # lambda = x_1 - x_2 = 3 on heat levels: 1 + lambda / (x_2 - x_1) = 0 is a
    # factor of P_2, and 1 - lambda / (x_1 - x_2) = 0 the same factor of Q_1
    real = node_table(heat(), 4)
    for table, lam in ((real, 3.0), (_complex_nodes(real), 3.0), (real, -3.0)):
        with pytest.raises(ResonanceError, match="a Lagrange factor vanished"):
            lagrange_products(table, lam)
        with pytest.raises(ResonanceError, match="a Lagrange factor vanished"):
            _two_pass_lagrange_products(table, lam)
