"""Series algebra tests against brute-force oracles and frozen values."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoseq import series as ser
from holoseq.generator import _mul_matrix

import reference_kernels as refk

EXACT = 0.0
REL_TOL = 1e-12
EVAL_TOL = 1e-13
COMPOSE_TOL = 1e-10
FD_TOL = 1e-6


# --- independent oracles ------------------------------------------------------


def conv_oracle(u: ser.CoeffSeries, v: ser.CoeffSeries) -> ser.CoeffSeries:
    """Dict-based convolution with multinomial weights, no shared machinery."""
    idx, lookup = ser.index_table(u.dim, u.order)
    out = np.zeros(len(idx), dtype=np.complex128)
    for b, cb in zip(idx, u.coeffs):
        for g, cg in zip(idx, v.coeffs):
            a = tuple(x + y for x, y in zip(b, g))
            if sum(a) > u.order:
                continue
            w = 1.0
            for ai, bi, gi in zip(a, b, g):
                w *= math.factorial(ai) / (math.factorial(bi) * math.factorial(gi))
            out[lookup[a]] += w * cb * cg
    return ser.CoeffSeries(u.dim, u.order, out)


def random_series(rng, dim, order, integer=False, scale=1.0):
    n = len(ser.index_table(dim, order)[0])
    if integer:
        c = rng.integers(-3, 4, size=n).astype(np.complex128)
    else:
        c = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return ser.CoeffSeries(dim, order, c)


# --- basic shapes and frozen examples ----------------------------------------


def test_index_table_graded_lex():
    idx, lookup = ser.index_table(2, 2)
    assert idx == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert lookup[(1, 1)] == 4
    # count is C(N+d, d)
    idx3, _ = ser.index_table(3, 4)
    assert len(idx3) == math.comb(4 + 3, 3)


def test_unit_is_multiplicative_identity():
    rng = np.random.default_rng(0)
    u = random_series(rng, 2, 4)
    e = ser.unit(2, 4)
    assert np.allclose(ser.mul(e, u).coeffs, u.coeffs, rtol=0, atol=0)


def test_mul_all_ones_gives_powers_of_two():
    # h_u = e^z, u = (1,1,...,1): (u*u)_alpha = 2^alpha (binomial row sums)
    n = 9
    u = ser.CoeffSeries(1, n, np.ones(n + 1))
    sq = ser.mul(u, u)
    assert np.allclose(sq.coeffs, [2.0**k for k in range(n + 1)], rtol=0, atol=0)


@pytest.mark.parametrize("dim,order", [(1, 8), (2, 5), (3, 4)])
def test_mul_matches_bruteforce(dim, order):
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = random_series(rng, dim, order)
        v = random_series(rng, dim, order)
        got = ser.mul(u, v)
        want = conv_oracle(u, v)
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=REL_TOL, atol=1e-14)


def test_shift_matches_finite_differences():
    rng = np.random.default_rng(3)
    u = random_series(rng, 1, 10, scale=0.5)
    d2 = ser.shift(u, (2,))
    x = 0.3
    h = 1e-4
    fd = (
        -ser.evaluate(u, x + 2 * h)
        + 16 * ser.evaluate(u, x + h)
        - 30 * ser.evaluate(u, x)
        + 16 * ser.evaluate(u, x - h)
        - ser.evaluate(u, x - 2 * h)
    ) / (12 * h * h)
    assert abs(ser.evaluate(d2, x) - fd) < FD_TOL


def test_shift_multivariate_cross_derivative():
    rng = np.random.default_rng(4)
    u = random_series(rng, 2, 7, scale=0.5)
    d11 = ser.shift(u, (1, 1))
    h = 1e-4
    pt = np.array([0.2, -0.1])

    def f(x, y):
        return ser.evaluate(u, (x, y))

    fd = (
        f(pt[0] + h, pt[1] + h)
        - f(pt[0] + h, pt[1] - h)
        - f(pt[0] - h, pt[1] + h)
        + f(pt[0] - h, pt[1] - h)
    ) / (4 * h * h)
    assert abs(ser.evaluate(d11, pt) - fd) < FD_TOL


def test_evaluate_exponential_reference():
    n = 30
    u = ser.CoeffSeries(1, n, np.ones(n + 1))
    assert abs(ser.evaluate(u, 1.0) - math.e) < EVAL_TOL


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=1, max_value=12),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_evaluate_is_exactly_rounded(dim, order, cancel, draw_seed):
    # terms spread over sixteen decades with random signs; with ``cancel`` the
    # constant term also takes back their float sum, so the value is a small
    # remainder of much larger terms. Each part must be the exact sum of the
    # rounded terms, rounded once.
    rng = np.random.default_rng(draw_seed)
    n = len(ser.index_table(dim, order)[0])
    c = np.array([complex(*v) for v in rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-8, 8, (n, 2))])
    x = rng.uniform(-3.0, 3.0, dim)
    w = ser.taylor_weights(dim, order, x)
    if cancel:
        c[0] = -np.sum(c[1:] * w[1:])
    terms = c * w
    want = complex(float(sum(map(Fraction, terms.real))), float(sum(map(Fraction, terms.imag))))
    assert ser.evaluate(ser.CoeffSeries(dim, order, c), x) == want


def test_exp_star_of_linear_is_exponential():
    # exp*(tau z) has coefficients tau^k
    tau = 0.7
    u = ser.from_entries(1, 10, [((1,), tau)])
    e = ser.exp_star(u)
    np.testing.assert_allclose(e.coeffs, [tau**k for k in range(11)], rtol=REL_TOL)


def test_exp_star_constant_stays_constant():
    u = ser.from_entries(1, 6, [((0,), 0.4 + 0.2j)])
    e = ser.exp_star(u)
    assert abs(e.coeffs[0] - np.exp(0.4 + 0.2j)) < 1e-15
    assert np.all(e.coeffs[1:] == 0)


def test_exp_star_matches_scalar_exp_pointwise():
    rng = np.random.default_rng(5)
    u = random_series(rng, 2, 8, scale=0.2)
    e = ser.exp_star(u)
    for pt in ([0.1, 0.2], [-0.15, 0.05]):
        direct = np.exp(ser.evaluate(u, pt))
        assert abs(ser.evaluate(e, pt) - direct) < 1e-9 * abs(direct)


def test_log_star_round_trip_reciprocal_weight():
    rng = np.random.default_rng(6)
    u = random_series(rng, 1, 8, scale=0.4)
    back = ser.log_star(ser.exp_star(u))
    np.testing.assert_allclose(back.coeffs, u.coeffs, rtol=0, atol=1e-10)


def test_log_star_inverts_exp_of_identity():
    # exp*((0,1,0,...)) = (1,1,1,...), whose log* is zero in every degree >= 2:
    # each c_delta = 1 must cancel exactly against the lower degrees' terms
    u = ser.from_entries(1, 6, [((1,), 1.0)])
    c = ser.exp_star(u)
    back = ser.log_star(c)
    np.testing.assert_allclose(back.coeffs, u.coeffs, rtol=0, atol=1e-12)


def test_log_star_guards_vanishing_leading_coefficient():
    c = ser.from_entries(1, 4, [((1,), 1.0)])
    with pytest.raises(ser.LeadingCoefficientError):
        ser.log_star(c)


def test_compose_shift_matches_direct_evaluation():
    # polynomial u, v of degree <= 3 are exact at order >= 12
    rng = np.random.default_rng(8)
    for _ in range(10):
        u = ser.zero(1, 12)
        v = ser.zero(1, 12)
        cu = np.array(u.coeffs)
        cv = np.array(v.coeffs)
        cu[:4] = rng.standard_normal(4)
        cv[:4] = rng.standard_normal(4)
        u = ser.CoeffSeries(1, 12, cu)
        v = ser.CoeffSeries(1, 12, cv)
        comp = ser.compose_shift(u, (v,))
        for x in (-0.7, 0.0, 0.4, 1.1):
            want = ser.evaluate(u, x + ser.evaluate(v, x))
            got = ser.evaluate(comp, x)
            assert abs(got - want) <= COMPOSE_TOL * max(1.0, abs(want))


def test_compose_shift_with_constant_is_taylor_shift():
    # v = xi constant: h_u(z + xi); compare against evaluate at shifted point
    rng = np.random.default_rng(9)
    u = random_series(rng, 1, 20, scale=0.5)
    xi = 0.37
    v = ser.from_entries(1, 20, [((0,), xi)])
    comp = ser.compose_shift(u, (v,))
    for x in (-0.5, 0.25):
        want = ser.evaluate(u, x + xi)
        assert abs(ser.evaluate(comp, x) - want) < 1e-9 * max(1.0, abs(want))


def test_compose_shift_beyond_float_factorials():
    # order 171: 171! overflows a float, and 1/171! is below its normal range.
    # u = (1, ..., 1) is the truncated e^z, and a constant shift keeps the
    # truncation, so the composition is the order-171 series of e^(z + 0.1)
    u = ser.CoeffSeries(1, 171, np.ones(172))
    comp = ser.compose_shift(u, (ser.from_entries(1, 171, [((0,), 0.1)]),))
    for x in (-0.5, 0.0, 0.8):
        want = math.exp(x + 0.1)
        assert abs(ser.evaluate(comp, x) - want) < REL_TOL * want
    # coefficient a is sum_{k <= 171 - a} 0.1^k / k!
    want = np.cumsum(ser.taylor_weights(1, 171, 0.1))[::-1]
    np.testing.assert_allclose(comp.coeffs, want, rtol=1e-14, atol=0)


def test_exp_star_beyond_float_factorials():
    # exp*(c + tau z) has coefficients e^c tau^k
    c, tau = 0.3 - 0.2j, 0.95
    e = ser.exp_star(ser.from_entries(1, 171, [((0,), c), ((1,), tau)]))
    np.testing.assert_allclose(e.coeffs, np.exp(c) * tau ** np.arange(172), rtol=1e-12, atol=0)


def test_divide_by_coordinate():
    # h(z) = z + 3 z^2 => h/z = 1 + 3 z ; EGF: (0, 1, 6) -> (1, 3)
    u = ser.from_entries(1, 4, [((1,), 1.0), ((2,), 6.0)])
    q = ser._divide_coeffs(u.coeffs, 1, 4)
    np.testing.assert_array_equal(q, [1.0, 3.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(q, refk.divide_by_coordinate(u).coeffs)
    nz = ser.from_entries(1, 4, [((0,), 1.0)])
    with pytest.raises(ser.LeadingCoefficientError):
        ser._divide_coeffs(nz.coeffs, 1, 4)
    # the matrix form divides a compiled operator: its columns, each taken
    # as a series, divide as the per-index reference divides them
    dim, order = 2, 4
    idxm = np.array(ser.index_table(dim, order)[0])
    rng = np.random.default_rng(5)
    m = rng.standard_normal((len(idxm), 3)) + 1j * rng.standard_normal((len(idxm), 3))
    off = m.copy()
    m[idxm[:, 0] == 0] = 0.0  # vanish on z_0 = 0
    got = ser._divide_coeffs(m, dim, order)
    for k in range(m.shape[1]):
        col = refk.divide_by_coordinate(ser.CoeffSeries(dim, order, m[:, k]))
        np.testing.assert_array_equal(ser._divide_coeffs(m[:, k], dim, order), col.coeffs)
        np.testing.assert_array_equal(got[:, k], col.coeffs)
    # vanishing on z_1 = 0 only is not enough
    off[idxm[:, 1] == 0] = 0.0
    with pytest.raises(ser.LeadingCoefficientError):
        ser._divide_coeffs(off, dim, order)
    with pytest.raises(ser.LeadingCoefficientError):
        refk.divide_by_coordinate(ser.CoeffSeries(dim, order, off[:, 0]))


def test_degree_and_with_order():
    u = ser.from_entries(2, 5, [((0, 0), 1.0), ((2, 1), 3.0), ((1, 0), -2.0)])
    assert ser.degree(u) == 3
    assert ser.degree(ser.zero(2, 5)) == -1 and ser.degree(ser.unit(2, 5)) == 0
    low = ser.with_order(u, 3)
    assert low.order == 3 and ser.with_order(u, 5) is u
    # cutting to the degree and zero-filling back recovers u exactly
    np.testing.assert_array_equal(ser.with_order(low, 5).coeffs, u.coeffs)
    np.testing.assert_array_equal(ser.with_order(u, 1).coeffs, [1.0, 0.0, -2.0])  # (0, 1) before (1, 0)


def test_shape_mismatch_rejected():
    u = ser.unit(1, 4)
    v = ser.unit(1, 5)
    with pytest.raises(ValueError):
        ser.mul(u, v)
    with pytest.raises(ValueError):
        ser.from_entries(1, 3, [((4,), 1.0)])


# --- hypothesis property suite ------------------------------------------------

small_int_coeffs = st.integers(min_value=-3, max_value=3)


def series_strategy(dim, order):
    n = len(ser.index_table(dim, order)[0])
    return st.lists(small_int_coeffs, min_size=n, max_size=n).map(
        lambda cs: ser.CoeffSeries(dim, order, np.array(cs, dtype=np.complex128))
    )


@seed(20260814)
@settings(max_examples=60, deadline=None)
@given(series_strategy(2, 4), series_strategy(2, 4))
def test_mul_commutative_exact(u, v):
    assert np.array_equal(ser.mul(u, v).coeffs, ser.mul(v, u).coeffs)


@seed(20260814)
@settings(max_examples=60, deadline=None)
@given(series_strategy(1, 6), series_strategy(1, 6), series_strategy(1, 6))
def test_mul_associative_exact_on_integers(u, v, w):
    left = ser.mul(ser.mul(u, v), w)
    right = ser.mul(u, ser.mul(v, w))
    assert np.array_equal(left.coeffs, right.coeffs)


@seed(20260814)
@settings(max_examples=60, deadline=None)
@given(series_strategy(2, 5), series_strategy(2, 5))
def test_leibniz_rule(u, v):
    for i in range(2):
        e = tuple(1 if k == i else 0 for k in range(2))
        left = ser.shift(ser.mul(u, v), e)
        right = ser.mul(ser.shift(u, e), v) + ser.mul(u, ser.shift(v, e))
        # exact below the top degree, which the shift zero-fills
        degs = np.array([sum(a) for a in left.indices])
        keep = degs <= left.order - 1
        assert np.array_equal(left.coeffs[keep], right.coeffs[keep])


@seed(20260814)
@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=0, max_value=9),
    st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3),
    st.booleans(),
    st.floats(min_value=0.0, max_value=0.95),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mul_rows_are_shifted_product(dim, order, beta, no_shift, sparsity, draw_seed):
    # one row sum of the rows of u -> mul(shift(u, beta), b) is that product,
    # term for term: the rows only drop terms that are exactly zero
    rng = np.random.default_rng(draw_seed)
    n = len(ser.index_table(dim, order)[0])
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c[rng.random(n) < sparsity] = 0.0
    b = ser.CoeffSeries(dim, order, c)
    u = random_series(rng, dim, order)
    beta = None if no_shift else tuple(beta[:dim])
    out, left, right, w = ser._mul_rows(b, beta)
    assert np.all(b.coeffs[right] != 0) and np.all(np.diff(out) >= 0)
    want = ser.mul(ser.shift(u, beta or (0,) * dim), b).coeffs
    assert np.array_equal(ser._row_sum(out, w * u.coeffs[left] * b.coeffs[right], n), want)
    np.testing.assert_allclose(_mul_matrix(b, beta) @ u.coeffs, want, rtol=0, atol=1e-12 * (1 + np.abs(want).max()))


@seed(20260814)
@settings(max_examples=40, deadline=None)
@given(series_strategy(1, 7), series_strategy(1, 7))
def test_exp_star_homomorphism(u, v):
    u = 0.25 * u
    v = 0.25 * v
    left = ser.exp_star(u + v)
    right = ser.mul(ser.exp_star(u), ser.exp_star(v))
    np.testing.assert_allclose(left.coeffs, right.coeffs, rtol=1e-12, atol=1e-12)


@seed(20260814)
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=0, max_value=40),
    st.sampled_from(["random", "sparse", "zero", "constant"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_real_evaluator_matches_evaluate(dim, order, kind, draw_seed):
    # at real points Re h_u = sum Re(u_alpha) x^alpha / alpha!, so the compiled
    # evaluator agrees with the complex kernel up to rounding
    rng = np.random.default_rng(draw_seed)
    n = len(ser.index_table(dim, order)[0])
    c = np.zeros(n, dtype=np.complex128)
    if kind == "constant":
        c[0] = complex(*rng.standard_normal(2))
    elif kind != "zero":
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if kind == "sparse":
            c[rng.random(n) < 0.9] = 0.0
    u = ser.CoeffSeries(dim, order, c)
    pts = rng.uniform(-3.0, 3.0, size=(16, dim))
    want = np.array([ser.evaluate(u, p) for p in pts]).real
    got = ser.RealEvaluator(u)(pts)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@seed(20260814)
@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([1, 2, 3]).flatmap(
        # dims 1-2 reach |alpha| = 200; the dim-3 index table stops at 60
        lambda dim: st.lists(
            st.integers(min_value=0, max_value=(200, 100, 20)[dim - 1]),
            min_size=dim,
            max_size=dim,
        )
    ),
    st.sampled_from([1.0, 0.5, 2.0, -1.5]),
)
def test_taylor_weights_match_exact_arithmetic(alpha, z):
    dim = len(alpha)
    order = (200, 200, 60)[dim - 1]
    _, lookup = ser.index_table(dim, order)
    want = Fraction(z) ** sum(alpha)
    for a in alpha:
        want /= math.factorial(a)
    tables = [ser.taylor_weights(dim, order, [z] * dim)]
    if z == 1.0:
        tables.append(ser.taylor_weights(dim, order))  # the cached unit table
    for w in tables:
        assert np.all(np.isfinite(w)) and (z < 0 or np.all(w >= 0))
        got = w[lookup[tuple(alpha)]]
        if abs(want) >= sys.float_info.min:
            assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * abs(want)
        else:
            # below the normal range the weight underflows with the sign it should have
            assert abs(got) <= 2 * sys.float_info.min and got * want >= 0


# --- cached kernels against the per-index references --------------------------


def _jump_sizes(rng, dim, order, kind):
    """One jump-size vector: constant, affine, or vanishing at the origin."""
    vec = []
    for i in range(dim):
        entries = []
        if kind in ("constant", "affine"):
            entries.append(((0,) * dim, complex(*rng.uniform(-0.5, 0.5, 2))))
        if kind in ("affine", "origin") and order >= 1:
            for k in range(dim):
                e_k = tuple(1 if m == k else 0 for m in range(dim))
                entries.append((e_k, complex(*rng.uniform(-0.2, 0.2, 2))))
        if kind == "origin" and order >= 2:
            e_i2 = tuple(2 if m == i else 0 for m in range(dim))
            entries.append((e_i2, complex(*rng.uniform(-0.2, 0.2, 2))))
        vec.append(ser.from_entries(dim, order, entries))
    return tuple(vec)


def exact_compose_1d(u, v):
    """h_u(z + h_v(z)) in dimension one, truncated at the order, in exact arithmetic.

    Horner's rule on ordinary coefficients u_k / k!, over Gaussian rationals
    held as (re, im) pairs of Fractions; every float converts exactly.
    """
    n = u.order

    def ordinary(c):
        return [(Fraction(x.real) / math.factorial(k), Fraction(x.imag) / math.factorial(k)) for k, x in enumerate(c)]

    a, w = ordinary(u.coeffs), ordinary(v.coeffs)
    if n >= 1:
        w[1] = (w[1][0] + 1, w[1][1])
    r = [a[n]] + [(Fraction(0), Fraction(0))] * n
    for k in range(n - 1, -1, -1):
        nxt = [(Fraction(0), Fraction(0))] * (n + 1)
        for i, (pr, pi) in enumerate(r):
            for j in range(n + 1 - i):
                qr, qi = w[j]
                if (pr or pi) and (qr or qi):
                    sr, si = nxt[i + j]
                    nxt[i + j] = (sr + pr * qr - pi * qi, si + pr * qi + pi * qr)
        nxt[0] = (nxt[0][0] + a[k][0], nxt[0][1] + a[k][1])
        r = nxt
    return np.array([math.factorial(k) * complex(float(re), float(im)) for k, (re, im) in enumerate(r)])


def _close(got, want, scale=1.0):
    return np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.maximum(1.0, scale), np.abs(want)))


def _leading_away_from_zero(rng, dim, order):
    """A random series with 0.5 <= |c_0| <= 2, the input log_star divides by."""
    c = random_series(rng, dim, order, scale=0.5).coeffs.copy()
    c[0] = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    return ser.CoeffSeries(dim, order, c)


def _check_log_inverts_exp(u):
    # log* of exp*(u) is ill-conditioned once exp*(u) has large coefficients
    # (c_delta / c_0 of size 1e40 at order 60 for u of size 0.5), so u comes
    # back only up to that conditioning; exp* of the result is checked instead,
    # which is the input again to rounding
    c = ser.exp_star(u)
    back = ser.log_star(c)
    # the principal log: |Im u_0| < pi here, so it is u_0 to rounding
    assert _close(back.coeffs[:1], u.coeffs[:1])
    assert _close(ser.exp_star(back).coeffs, c.coeffs)


def exact_log_1d(c):
    """log h_c in dimension one without degree zero, in exact arithmetic.

    Solves c' = c psi' coefficientwise, k c_0 psi_k = k c_k - sum_{j=1}^{k-1}
    C(k, j) (k - j) c_j psi_{k-j}, over Gaussian rationals held as (re, im)
    pairs of Fractions.
    """
    cs = [(Fraction(float(z.real)), Fraction(float(z.imag))) for z in c.coeffs]
    norm = cs[0][0] ** 2 + cs[0][1] ** 2
    inv0 = (cs[0][0] / norm, -cs[0][1] / norm)
    psi = [(Fraction(0), Fraction(0))] * len(cs)
    for k in range(1, len(cs)):
        re, im = k * cs[k][0], k * cs[k][1]
        for j in range(1, k):
            (a, b), (p, q) = cs[j], psi[k - j]
            w = math.comb(k, j) * (k - j)
            re -= w * (a * p - b * q)
            im -= w * (a * q + b * p)
        re, im = re / k, im / k
        psi[k] = (re * inv0[0] - im * inv0[1], re * inv0[1] + im * inv0[0])
    return np.array([complex(float(a), float(b)) for a, b in psi])


def _gauss(z):
    """A complex float as an exact Gaussian rational (re, im)."""
    return (Fraction(float(z.real)), Fraction(float(z.imag)))


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def exact_euler(u, solve_log):
    """The exp_star (or, with ``solve_log``, log_star) recurrence in exact
    arithmetic over Gaussian rationals, plus its majorant.

    Same rows as the kernel: delta = beta + gamma with gamma != 0 and weight
    (binomial product) |gamma|/|delta|, here as exact Fractions. exp_star
    seeds E_0 with the float exp(u_0) the kernel uses; log_star needs no
    seed, as its rows never read psi_0. The majorant runs the same
    recurrence on |u| (all terms positive), so it bounds the size of every
    sum the kernel rounds.
    """
    dim, order = u.dim, u.order
    out, left, right, w = ser._conv_table(dim, order)
    degs = ser._degrees(dim, order)
    n = len(u.coeffs)
    c = [_gauss(z) for z in u.coeffs]
    mag = np.abs(u.coeffs)
    x = [(Fraction(0), Fraction(0))] * n
    maj = np.zeros(n)
    if solve_log:
        inv0 = _gmul((c[0][0], -c[0][1]), (1 / (c[0][0] ** 2 + c[0][1] ** 2), Fraction(0)))
    else:
        x[0] = _gauss(np.exp(u.coeffs[0]))
        maj[0] = abs(np.exp(u.coeffs[0]))
    rows = [[] for _ in range(n)]
    for o, b, g, wt in zip(out, left, right, w):
        if g != 0 and not (solve_log and b == 0):
            rows[o].append((b, g, Fraction(int(wt) * int(degs[g]), int(degs[o]))))
    for d in range(1, n):
        re, im, m = Fraction(0), Fraction(0), 0.0
        for b, g, wt in rows[d]:
            # exp: E_beta u_gamma; log: c_beta psi_gamma
            p = _gmul(c[b], x[g]) if solve_log else _gmul(x[b], c[g])
            re, im = re + wt * p[0], im + wt * p[1]
            m += float(wt) * (mag[b] * maj[g] if solve_log else maj[b] * mag[g])
        if solve_log:
            x[d] = _gmul((c[d][0] - re, c[d][1] - im), inv0)
            maj[d] = (mag[d] + m) / mag[0]
        else:
            x[d], maj[d] = (re, im), m
    return np.array([complex(float(a), float(b)) for a, b in x]), maj


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2, 3]).flatmap(
        lambda dim: st.tuples(st.just(dim), st.integers(0, (32, 12, 7)[dim - 1]))
    ),
    st.sampled_from([0.5, 1.5]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_euler_kernel_matches_exact_arithmetic(shape, scale, draw_seed):
    # the forward substitution against the same recurrence in exact
    # arithmetic, to 1e-13 of the majorant that bounds its rounding
    dim, order = shape
    rng = np.random.default_rng(draw_seed)
    u = random_series(rng, dim, order, scale=scale)
    want, maj = exact_euler(u, solve_log=False)
    got = ser.exp_star(u).coeffs
    assert got[0] == want[0]
    assert np.all(np.abs(got - want) <= 1e-13 * maj)
    c = _leading_away_from_zero(rng, dim, order)
    want, maj = exact_euler(c, solve_log=True)
    got = ser.log_star(c).coeffs
    assert np.all(np.abs(got[1:] - want[1:]) <= 1e-13 * maj[1:])


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3]).flatmap(
        # the per-index references are slow beyond order 10 in dimension three
        lambda dim: st.tuples(st.just(dim), st.integers(0, (24, 24, 10)[dim - 1]))
    ),
    st.sampled_from(["constant", "affine", "origin"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernels_match_per_index_references(shape, kind, draw_seed):
    dim, order = shape
    rng = np.random.default_rng(draw_seed)
    u = random_series(rng, dim, order, scale=0.5)
    vec = _jump_sizes(rng, dim, order, kind)
    assert _close(ser.compose_shift(u, vec).coeffs, refk.compose_shift(u, vec).coeffs)
    assert _close(ser.exp_star(u).coeffs, refk.exp_star(u).coeffs)
    # the reference's power sum cancels, so it is only as accurate as its terms are large
    for c in (ser.exp_star(u), _leading_away_from_zero(rng, dim, order)):
        assert _close(ser.log_star(c).coeffs, refk.log_star(c).coeffs, refk.log_star_term_scale(c))
    _check_log_inverts_exp(u)


@seed(20261018)
@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 60),
    st.sampled_from(["constant", "affine", "origin"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dim_one_kernels_to_order_60(order, kind, draw_seed):
    # in dimension one the composition and the logarithm are checked against
    # exact arithmetic: the references themselves drift at high order (up to
    # 7.5e-10 at order 60 with affine jump sizes of slope components up to
    # 0.3, and 9e-6 for the power-sum log on random series of order 40-49)
    rng = np.random.default_rng(draw_seed)
    u = random_series(rng, 1, order, scale=0.5)
    vec = _jump_sizes(rng, 1, order, kind)
    assert _close(ser.compose_shift(u, vec).coeffs, exact_compose_1d(u, vec[0]))
    assert _close(ser.exp_star(u).coeffs, refk.exp_star(u).coeffs)
    c = _leading_away_from_zero(rng, 1, order)
    assert _close(ser.log_star(c).coeffs[1:], exact_log_1d(c)[1:])
    _check_log_inverts_exp(u)


@pytest.mark.parametrize("dim,order", [(1, 16), (2, 9)])
def test_compose_shift_onto_origin_is_constant(dim, order):
    # the jump -z sends every state to the origin: h_u(z - z) = u_0, exactly
    rng = np.random.default_rng(21)
    u = random_series(rng, dim, order)
    vec = tuple(
        ser.from_entries(dim, order, [(tuple(1 if m == i else 0 for m in range(dim)), -1.0)])
        for i in range(dim)
    )
    comp = ser.compose_shift(u, vec)
    assert comp.coeffs[0] == u.coeffs[0]
    assert np.all(comp.coeffs[1:] == 0)


def test_compose_shift_builds_its_map_once(monkeypatch):
    # an equal jump size in new objects (as a rebuilt model has) reuses the map
    calls = []
    real_mul = ser.mul

    def counting_mul(u, v):
        calls.append(1)
        return real_mul(u, v)

    monkeypatch.setattr(ser, "mul", counting_mul)
    rng = np.random.default_rng(22)
    u = random_series(rng, 2, 7)
    sizes = rng.uniform(-0.4, 0.4, size=(2, 2))

    def jump():
        return tuple(ser.from_entries(2, 7, [((0, 0), a), ((1, 0), b)]) for a, b in sizes)

    first = ser.compose_shift(u, jump())
    calls.clear()
    second = ser.compose_shift(u, jump())
    assert calls == []
    assert np.array_equal(first.coeffs, second.coeffs)


def test_cached_tables_are_read_only():
    vec = (ser.from_entries(2, 4, [((0, 0), 0.25)]), ser.from_entries(2, 4, [((1, 0), -0.5)]))
    table = ser._compose_table(2, 4, tuple(v.coeffs.tobytes() for v in vec))
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    for arr in ser._euler_rows(2, 4):
        with pytest.raises(ValueError):
            arr[0] = arr[0]
