"""Generator action on coefficient sequences, checked against a pointwise
finite-difference oracle, hand-expanded worked cases, the moment form and the
per-call series assembly the compiled matrix replaced."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoseq import generator
from holoseq import series as ser
from holoseq.characteristics import Characteristics, JumpAtom, JumpKernel
from holoseq.generator import apply_l_composition, apply_r
from holoseq.montecarlo import generator_values

from moment_form import apply_l_moment
from oracles import pointwise_generator
from reference_kernels import apply_l_series, apply_r_composed, apply_r_series
from test_characteristics import bm_chars, compound_poisson_chars, const, unit_interval_chars

EXACT = 1e-12
# pointwise-oracle comparisons are limited by the FD stencils (~1e-8 relative)
PW_TOL = 1e-6


def affine_jump_chars(order=10):
    """b = 0.1 + 0.2 x, a = 0.3, unit-rate atoms of size +0.4 and -0.3."""
    b = ser.from_entries(1, order, [((0,), 0.1), ((1,), 0.2)])
    a = const(1, order, 0.3)
    atoms = (
        JumpAtom(1.0, (const(1, order, 0.4),)),
        JumpAtom(1.0, (const(1, order, -0.3),)),
    )
    kernel = JumpKernel(const(1, order, 1.0), atoms, 0)
    return Characteristics(1, (b,), ((a,),), kernel)


def two_dim_chars(order=10, jumps=False):
    """b = (0.1 + x2, -0.2 x1), constant full diffusion; with ``jumps``,
    intensity 0.8 + 0.1 x1 and atoms of size (0.2, -0.1 + 0.05 x2) and
    (-0.15, 0.09) with weights 0.6 and 0.4."""
    b1 = ser.from_entries(2, order, [((0, 0), 0.1), ((0, 1), 1.0)])
    b2 = ser.from_entries(2, order, [((1, 0), -0.2)])
    a11, a12, a22 = const(2, order, 1.0), const(2, order, 0.3), const(2, order, 0.8)
    kernel = None
    if jumps:
        atoms = (
            JumpAtom(0.6, (const(2, order, 0.2), ser.from_entries(2, order, [((0, 0), -0.1), ((0, 1), 0.05)]))),
            JumpAtom(0.4, (const(2, order, -0.15), const(2, order, 0.09))),
        )
        kernel = JumpKernel(ser.from_entries(2, order, [((0, 0), 0.8), ((1, 0), 0.1)]), atoms, 0)
    return Characteristics(2, (b1, b2), ((a11, a12), (a12, a22)), kernel)


def nd_affine_chars(dim, order):
    """Drift b0 + B x with a tridiagonal B, diffusion A0 + 0.04 x_k on the
    diagonal entry (k, k) with a tridiagonal A0, intensity 0.8 + 0.1 x_1 and
    two atoms of constant size: the affine models of the ``flow-nd``
    benchmark."""
    B = -0.4 * np.eye(dim) + 0.1 * np.eye(dim, k=1) + 0.05 * np.eye(dim, k=-1)
    A0 = 0.15 * np.eye(dim) + 0.03 * (np.eye(dim, k=1) + np.eye(dim, k=-1))
    e = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    zero = (0,) * dim

    def affine(c0, slopes):
        return ser.from_entries(dim, order, [(zero, c0)] + [(e[k], c) for k, c in slopes])

    drift = tuple(affine(0.05 * (i + 1), enumerate(B[i])) for i in range(dim))
    diffusion = tuple(
        tuple(affine(A0[i, j], [(i, 0.04)] if i == j else []) for j in range(dim)) for i in range(dim)
    )
    sign = np.arange(dim) % 2 == 0
    atoms = (
        JumpAtom(0.6, tuple(const(dim, order, x) for x in 0.2 * np.where(sign, 1.0, -0.5))),
        JumpAtom(0.4, tuple(const(dim, order, x) for x in -0.15 * np.where(sign, 1.0, -0.6))),
    )
    return Characteristics(dim, drift, diffusion, JumpKernel(affine(0.8, [(0, 0.1)]), atoms, 0))


unit_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def affine_models(draw, dim, order, floats=unit_floats):
    """Affine drift, symmetric diffusion and intensity; two atoms whose jump
    size per coordinate is constant or affine. Coefficients are drawn from
    ``floats``."""

    def affine(constant_only=False):
        c = draw(st.lists(floats, min_size=dim + 1, max_size=dim + 1))
        slopes = [] if constant_only else [(tuple(np.eye(dim, dtype=int)[k]), c[k + 1]) for k in range(dim)]
        return ser.from_entries(dim, order, [((0,) * dim, c[0])] + slopes)

    drift = tuple(affine() for _ in range(dim))
    upper = {(i, j): affine() for i in range(dim) for j in range(i, dim)}
    diffusion = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(dim)) for i in range(dim))
    atoms = tuple(
        JumpAtom(
            draw(st.floats(min_value=0.0, max_value=1.0)),
            tuple(affine(constant_only=draw(st.booleans())) for _ in range(dim)),
        )
        for _ in range(2)
    )
    return Characteristics(dim, drift, diffusion, JumpKernel(affine(), atoms, 0))


@st.composite
def polynomial_models(draw, dim, order, pole=False, floats=unit_floats):
    """Drift, symmetric diffusion, intensity and 1-2 atoms, each a random
    polynomial of degree <= 2 with coefficients from ``floats``. With
    ``pole`` (dim 1): intensity s(x)/x and one atom of jump size -x, which
    vanishes at the origin as the pole needs."""
    quadratic = [a for a in ser.index_table(dim, order)[0] if sum(a) <= 2]

    def poly():
        c = draw(st.lists(floats, min_size=len(quadratic), max_size=len(quadratic)))
        return ser.from_entries(dim, order, zip(quadratic, c))

    drift = tuple(poly() for _ in range(dim))
    upper = {(i, j): poly() for i in range(dim) for j in range(i, dim)}
    diffusion = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(dim)) for i in range(dim))
    if pole:
        atoms = (JumpAtom(draw(st.floats(0.1, 1.0)), (ser.from_entries(1, order, [((1,), -1.0)]),)),)
    else:
        atoms = tuple(
            JumpAtom(draw(st.floats(0.0, 1.0)), tuple(poly() for _ in range(dim)))
            for _ in range(draw(st.integers(1, 2)))
        )
    return Characteristics(dim, drift, diffusion, JumpKernel(poly(), atoms, int(pole)))


@st.composite
def dense_series(draw, dim, order):
    n = len(ser.index_table(dim, order)[0])
    return ser.CoeffSeries(dim, order, np.array(draw(st.lists(unit_floats, min_size=n, max_size=n))))


def random_poly(dim, order, degree, rng, scale=0.5):
    entries = []
    for alpha in ser.index_table(dim, order)[0]:
        if sum(alpha) <= degree:
            entries.append((alpha, scale * (2 * rng.random() - 1)))
    return ser.from_entries(dim, order, entries)


def series_fun(u):
    return lambda xs: np.array([ser.evaluate(u, p) for p in np.asarray(xs)])


class TestWorkedExamples:
    def test_bm_square(self):
        # h = z^2: A h = a = 1, constant
        u = ser.from_entries(1, 8, [((2,), 2.0)])
        out = apply_l_composition(u, bm_chars())
        want = np.zeros(9)
        want[0] = 1.0
        np.testing.assert_allclose(out.coeffs.real, want, atol=EXACT)

    def test_bm_quartic(self):
        # h = z^4: A h = 6 z^2, EGF 12 at degree two
        u = ser.from_entries(1, 8, [((4,), 24.0)])
        out = apply_l_composition(u, bm_chars())
        assert abs(out.coefficient((2,)) - 12.0) < EXACT
        assert abs(out.coefficient((0,))) < EXACT and abs(out.coefficient((4,))) < EXACT

    def test_bm_riccati_on_linear(self):
        # h = tau z: e^{-h} A e^h = tau^2 / 2, exactly constant
        tau = 0.7
        u = ser.from_entries(1, 8, [((1,), tau)])
        out = apply_r(u, bm_chars())
        want = np.zeros(9)
        want[0] = tau * tau / 2
        np.testing.assert_allclose(out.coeffs.real, want, atol=EXACT)

    def test_compound_poisson_riccati_on_linear(self):
        # tau = 1: a/2 + 2(cosh(1/2) - 1); jump atoms +-1/2 keep it constant
        u = ser.from_entries(1, 8, [((1,), 1.0)])
        out = apply_r(u, compound_poisson_chars())
        assert abs(out.coefficient((0,)) - 0.7552519304127614) < 1e-15
        assert np.all(np.abs(out.coeffs[1:]) < EXACT)

    def test_unit_interval_dual_basis_action(self):
        # f_k = (x/2)^k: A f_2 = f_1 + 2 f_3 - 3 f_2, i.e. x/2 - 3x^2/4 + x^3/4
        chars = unit_interval_chars()
        u = ser.from_entries(1, 10, [((2,), 0.5)])  # (x/2)^2 in EGF form
        out = apply_l_composition(u, chars)
        want = [0.0, 0.5, 2 * (-0.75), 6 * 0.25]
        np.testing.assert_allclose(out.coeffs.real[:4], want, atol=EXACT)
        assert np.all(np.abs(out.coeffs[4:]) < EXACT)
        x = 0.3
        val = ser.evaluate(out, x).real
        assert abs(val - (x / 2 - 0.75 * x**2 + 0.25 * x**3)) < EXACT
        assert abs(val - 0.08925) < EXACT


class TestFormAgreement:
    def test_moment_matches_composition_unit_interval(self):
        chars = unit_interval_chars(order=12)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = random_poly(1, 12, 5, rng)
            a = apply_l_moment(u, chars)
            b = apply_l_composition(u, chars)
            np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-10)

    def test_moment_matches_composition_with_state_dependent_jump(self):
        # j(x) = 0.2 + 0.1 x exercises genuinely mixed powers in both forms
        order = 12
        b = ser.from_entries(1, order, [((1,), -0.5)])
        a = const(1, order, 0.4)
        size = ser.from_entries(1, order, [((0,), 0.2), ((1,), 0.1)])
        kernel = JumpKernel(const(1, order, 1.0), (JumpAtom(1.0, (size,)),), 0)
        chars = Characteristics(1, (b,), ((a,),), kernel)
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = random_poly(1, order, 4, rng)
            got_m = apply_l_moment(u, chars)
            got_c = apply_l_composition(u, chars)
            # both exact for polynomial u with linear jump sizes
            np.testing.assert_allclose(got_m.coeffs, got_c.coeffs, atol=1e-10)

    @seed(20260814)
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(2, 6), (3, 5)]).flatmap(
            lambda shape: st.tuples(affine_models(*shape), dense_series(*shape))
        )
    )
    def test_moment_matches_composition_random_multivariate(self, case):
        # both forms are exact for u of degree <= order, whose derivatives
        # above the order vanish
        chars, u = case
        got_m = apply_l_moment(u, chars)
        got_c = apply_l_composition(u, chars)
        np.testing.assert_allclose(got_c.coeffs, got_m.coeffs, atol=1e-10)


class TestCompiledGenerator:
    """The compiled L and the R built on it against the per-call series assembly."""

    @staticmethod
    def assert_close(got, want):
        scale = max(1.0, np.abs(want.coeffs).max())
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-13 * scale

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(1, 10, False), (1, 10, True), (2, 6, False), (3, 4, False)]).flatmap(
            lambda shape: st.tuples(polynomial_models(*shape), dense_series(*shape[:2]))
        )
    )
    def test_matches_series_assembly(self, case):
        chars, u = case
        self.assert_close(apply_l_composition(u, chars), apply_l_series(u, chars))
        self.assert_close(apply_r(u, chars), apply_r_series(u, chars))

    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(1, 10, False), (1, 10, True), (2, 6, False), (3, 4, False)]).flatmap(
            lambda shape: st.tuples(polynomial_models(*shape), dense_series(*shape[:2]))
        )
    )
    def test_r_jump_part_matches_series_kernels_bitwise(self, case):
        # exp* on the raw array does the series kernel's arithmetic in its
        # order, so the bits agree
        chars, u = case
        np.testing.assert_array_equal(apply_r(u, chars).coeffs, apply_r_composed(u, chars).coeffs)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: nd_affine_chars(2, 12),
            lambda: nd_affine_chars(3, 7),
            lambda: unit_interval_chars(order=16),
            lambda: two_dim_chars(order=10),
            lambda: bm_chars(order=12),
        ],
        ids=["flow-nd-d2n12", "flow-nd-d3n7", "pole-d1n16", "no-kernel-d2n10", "no-kernel-d1n12"],
    )
    def test_r_matches_series_assembly_on_fixed_models(self, make):
        chars = make()
        rng = np.random.default_rng(27)
        n = len(ser.index_table(chars.dim, chars.order)[0])
        for scale in (0.1, 0.5):
            u = ser.CoeffSeries(chars.dim, chars.order, scale * rng.uniform(-1.0, 1.0, n))
            self.assert_close(apply_r(u, chars), apply_r_series(u, chars))
            np.testing.assert_array_equal(apply_r(u, chars).coeffs, apply_r_composed(u, chars).coeffs)

    def test_pole_with_jump_not_vanishing_at_origin_raises(self):
        # s(x) = 1 over a simple pole, constant jump 0.1: (lambda * jump part)
        # does not vanish at x = 0, so no series divides by x exactly
        order = 6
        kernel = JumpKernel(const(1, order, 1.0), (JumpAtom(1.0, (const(1, order, 0.1),)),), 1)
        chars = Characteristics(1, (ser.zero(1, order),), ((const(1, order, 1.0),),), kernel)
        u = ser.from_entries(1, order, [((2,), 2.0)])
        with pytest.raises(ser.LeadingCoefficientError):
            apply_l_composition(u, chars)
        with pytest.raises(ser.LeadingCoefficientError):
            apply_r(u, chars)

    def test_order_mismatch_raises(self):
        chars = bm_chars()
        u = ser.unit(1, chars.order + 1)
        with pytest.raises(ValueError, match="series shapes differ"):
            apply_l_composition(u, chars)
        with pytest.raises(ValueError, match="series shapes differ"):
            apply_r(u, chars)

    def test_matrix_is_compiled_once_and_read_only(self, monkeypatch):
        chars = two_dim_chars(order=8, jumps=True)
        u = random_poly(2, 8, 3, np.random.default_rng(41))
        first = apply_l_composition(u, chars)
        assert not chars._l_matrix.flags.writeable
        calls = []
        for name in ("mul", "compose_shift"):
            fn = getattr(ser, name)
            monkeypatch.setattr(ser, name, lambda *a, _fn=fn, _n=name: calls.append(_n) or _fn(*a))
        second = apply_l_composition(u, chars)
        assert calls == []
        np.testing.assert_array_equal(first.coeffs, second.coeffs)
        apply_r(u, chars)  # the counters do see the series kernels
        assert set(calls) == {"mul", "compose_shift"}

    def test_each_characteristics_holds_its_own_matrix(self):
        a = two_dim_chars(order=6, jumps=True)
        b = Characteristics(a.dim, a.drift, a.diffusion, a.kernel)
        assert a == b and a is not b
        u = ser.unit(2, 6)
        apply_l_composition(u, a)
        apply_l_composition(u, b)
        assert a._l_matrix is not b._l_matrix
        np.testing.assert_array_equal(a._l_matrix, b._l_matrix)
        # nothing outside the object keeps the matrix alive
        gone = weakref.ref(a._l_matrix)
        del a
        gc.collect()
        assert gone() is None


    def test_r_rows_are_compiled_once_and_read_only(self, monkeypatch):
        chars = nd_affine_chars(2, 8)
        u = random_poly(2, 8, 3, np.random.default_rng(42))
        first = apply_r(u, chars)
        rows = chars._r_rows
        assert rows is not None and len(rows[0]) > 0
        assert not any(t.flags.writeable for t in rows)
        monkeypatch.setattr(generator, "_compile_quadratic", _no_compile)
        second = apply_r(u, chars)
        assert chars._r_rows is rows
        np.testing.assert_array_equal(first.coeffs, second.coeffs)

    def test_each_characteristics_holds_its_own_r_rows(self):
        a = nd_affine_chars(2, 6)
        b = Characteristics(a.dim, a.drift, a.diffusion, a.kernel)
        assert a == b and a is not b
        u = ser.unit(2, 6)
        apply_r(u, a)
        apply_r(u, b)
        assert a._r_rows is not b._r_rows
        assert all(np.array_equal(x, y) for x, y in zip(a._r_rows, b._r_rows))
        # nothing outside the object keeps the rows alive
        gone = weakref.ref(a._r_rows[3])
        del a
        gc.collect()
        assert gone() is None


def _no_compile(chars):
    raise AssertionError("the quadratic rows were compiled twice")


class TestPointwise:
    """evaluate(L(u), x) must reproduce the FD generator applied to h_u."""

    def check_l(self, chars, u, points):
        lu = apply_l_composition(u, chars)
        f = series_fun(u)
        for x in points:
            got = ser.evaluate(lu, x).real
            want = pointwise_generator(chars, f, x).real
            assert abs(got - want) <= PW_TOL * (1 + abs(want)), (x, got, want)

    def check_r(self, chars, u, points):
        ru = apply_r(u, chars)
        f = series_fun(u)
        tilt = lambda xs: np.exp(f(xs))
        for x in points:
            got = ser.evaluate(ru, x).real
            hx = ser.evaluate(u, x)
            want = (pointwise_generator(chars, tilt, x) * np.exp(-hx)).real
            assert abs(got - want) <= PW_TOL * (1 + abs(want)), (x, got, want)

    def test_l_affine_jumps(self):
        chars = affine_jump_chars()
        rng = np.random.default_rng(21)
        for _ in range(3):
            u = random_poly(1, 10, 3, rng)
            self.check_l(chars, u, [-0.5, 0.0, 0.3, 0.7])

    def test_l_unit_interval(self):
        chars = unit_interval_chars(order=12)
        rng = np.random.default_rng(22)
        for _ in range(3):
            u = random_poly(1, 12, 4, rng)
            self.check_l(chars, u, [0.2, 0.5, 0.9])

    def test_r_affine_jumps(self):
        chars = affine_jump_chars(order=16)
        rng = np.random.default_rng(23)
        for _ in range(3):
            u = random_poly(1, 16, 2, rng, scale=0.3)
            self.check_r(chars, u, [-0.4, 0.0, 0.4])

    def test_r_unit_interval(self):
        chars = unit_interval_chars(order=16)
        rng = np.random.default_rng(24)
        u = random_poly(1, 16, 3, rng, scale=0.3)
        self.check_r(chars, u, [0.25, 0.5, 0.8])

    def test_l_and_r_two_dim(self):
        # full diffusion matrix: pins the unordered-pair quadratic convention
        chars = two_dim_chars(order=12)
        rng = np.random.default_rng(25)
        u = random_poly(2, 12, 2, rng, scale=0.4)
        pts = [(0.2, -0.4), (0.1, 0.3)]
        self.check_l(chars, u, pts)
        self.check_r(chars, u, pts)

    def test_l_and_r_two_dim_with_jumps(self):
        # state-dependent intensity and jump size in dimension two
        chars = two_dim_chars(order=12, jumps=True)
        rng = np.random.default_rng(26)
        u = random_poly(2, 12, 2, rng, scale=0.3)
        pts = [(0.2, -0.4), (-0.3, 0.1)]
        self.check_l(chars, u, pts)
        self.check_r(chars, u, pts)

    def test_generator_values_vectorised_matches_scalar(self):
        chars = affine_jump_chars()
        u = random_poly(1, 10, 3, np.random.default_rng(8))
        f = series_fun(u)
        pts = np.array([[-0.3], [0.1], [0.6]])
        vec = generator_values(chars, f, pts)
        for p, v in zip(pts, vec):
            assert abs(v - pointwise_generator(chars, f, p)) < 1e-13


class TestStructure:
    def test_l_is_linear(self):
        chars = affine_jump_chars()
        rng = np.random.default_rng(31)
        u = random_poly(1, 10, 3, rng)
        v = random_poly(1, 10, 3, rng)
        lhs = apply_l_composition(u + v, chars)
        rhs = apply_l_composition(u, chars) + apply_l_composition(v, chars)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)

    def test_r_of_zero_is_zero(self):
        for chars in (bm_chars(), compound_poisson_chars(), affine_jump_chars()):
            out = apply_r(ser.zero(1, chars.order), chars)
            assert np.all(np.abs(out.coeffs) < EXACT)

    def test_r_on_constant_is_zero(self):
        # A e^c = 0 for constant exponent
        out = apply_r(const(1, 8, 0.7), compound_poisson_chars())
        assert np.all(np.abs(out.coeffs) < EXACT)

    def test_moment_form_respects_cap(self):
        chars = compound_poisson_chars(order=8)
        u = ser.from_entries(1, 8, [((4,), 24.0)])  # z^4
        full = apply_l_moment(u, chars)
        capped = apply_l_moment(u, chars, b_max=2)
        # cap drops the beta = 3, 4 contributions: m4/4! * u^{(4)} = 24/24 * 0.125
        diff = full.coefficient((0,)) - capped.coefficient((0,))
        assert abs(diff - 0.125) < EXACT
