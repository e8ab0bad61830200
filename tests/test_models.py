"""Reference models: matrix exponential, chains, affine closed forms, and the
unit-interval dual. scipy appears here as a test-only oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoseq import models
from holoseq import series as ser
from holoseq.characteristics import Characteristics, validate_on_grid
from holoseq.generator import apply_r
from holoseq.models import (
    PRESET_INFO,
    PRESETS,
    EscapeMassError,
    FiniteChain,
    UnitIntervalModel,
    build_preset,
    chain_affine_flow,
    chain_expectation,
    chain_riccati_rhs,
    expm,
    two_state_closed_form,
)

from oracles import AFFINE_LINEAR_JUMPS, AffineSpec, _affine_f, affine_transform, dual_series
from reference_kernels import dual_steps
from test_characteristics import unit_interval_chars

# frozen anchors: the compensated exponent rate at tau = 1 for unit diffusion
# with +-1/2 jumps, and the unit-interval dual value at (T, x) = (1/2, 1/2)
EXPONENT_AT_ONE = 0.7552519304127614
DUAL_ANCHOR = 1.7512609273519553


class TestExpm:
    def test_zero_and_nilpotent(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(expm(n), [[1, 1], [0, 1]], atol=1e-15)

    def test_rotation(self):
        th = 0.7
        j = np.array([[0.0, -th], [th, 0.0]])
        want = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
        np.testing.assert_allclose(expm(j), want, atol=1e-14)

    def test_against_scipy_across_norms(self):
        rng = np.random.default_rng(42)
        for scale in (0.05, 1.0, 8.0, 40.0):
            a = scale * rng.standard_normal((6, 6))
            ref = scipy.linalg.expm(a)
            got = expm(a)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_complex_matrix(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_allclose(expm(a), scipy.linalg.expm(a), atol=1e-13)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))


class TestFiniteChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteChain([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteChain(np.zeros((2, 3)))

    def test_generator_rows_sum_to_zero(self):
        chain = FiniteChain([[5.0, 0.7], [0.9, -3.0]])  # diagonal input ignored
        q = chain.generator_matrix
        np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-15)
        assert q[0, 1] == 0.7 and q[0, 0] == -0.7

    def test_expectation_routes_agree(self):
        rng = np.random.default_rng(314)
        for _ in range(3):
            chain = FiniteChain(rng.uniform(0.0, 2.0, size=(4, 4)))
            h = rng.standard_normal(4)
            via_expm = chain_expectation(chain, h, 0.8, route="expm")
            via_ode = chain_expectation(chain, h, 0.8, route="ode")
            np.testing.assert_allclose(via_ode, via_expm, atol=1e-9)

    def test_two_state_closed_form(self):
        l12, l21, u1, u2 = 0.6, 0.9, 0.3, -0.2
        chain = FiniteChain([[0.0, l12], [l21, 0.0]])
        for t in (0.5, 1.0, 3.0):
            want = two_state_closed_form(l12, l21, u1, u2, t)
            got = chain_expectation(chain, np.exp([u1, u2]), t)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_affine_flow_routes_agree(self):
        chain = FiniteChain(np.random.default_rng(5).uniform(0.1, 1.5, (3, 3)))
        u0 = np.array([0.4, -0.3, 0.1])
        direct = chain_affine_flow(chain, u0, 1.2, route="riccati")
        via_log = chain_affine_flow(chain, u0, 1.2, route="log-linear")
        np.testing.assert_allclose(direct, via_log, atol=1e-9)

    def test_riccati_rhs_is_conjugated_generator(self):
        chain = FiniteChain(np.random.default_rng(6).uniform(0.0, 2.0, (5, 5)))
        psi = np.random.default_rng(7).standard_normal(5)
        q = chain.generator_matrix
        conj = np.exp(-psi) * (q @ np.exp(psi))
        np.testing.assert_allclose(chain_riccati_rhs(chain, psi), conj, atol=1e-13)


class TestLevySpec:
    # a Levy process is the affine spec with b1 = a1 = l1 = 0, and its exponent is F0
    def test_exponent_closed_form(self):
        spec = AffineSpec(a0=1.0, l0=1.0, atoms=((1.0, 0.5), (1.0, -0.5)))
        assert abs(_affine_f(spec, 1.0, lin=False) - EXPONENT_AT_ONE) < 5e-16
        # pure diffusion part
        assert abs(_affine_f(AffineSpec(b0=0.3, a0=2.0), 0.5, lin=False) - (0.15 + 0.25)) < 1e-15

    def test_to_characteristics(self):
        chars = AffineSpec(b0=0.2, a0=1.5).to_characteristics(6)
        assert chars.kernel is None
        assert AffineSpec(b0=0.2, a0=1.5).to_characteristics(0).order == 0
        assert chars.drift[0].coefficient((0,)) == 0.2
        assert chars.diffusion[0][0].coefficient((0,)) == 1.5
        with_jumps = AffineSpec(atoms=((2.0, 0.3),), l0=0.7).to_characteristics(6)
        assert with_jumps.kernel.intensity.coefficient((0,)) == 0.7


class TestAffineSpec:
    def test_psi_closed_form_when_jumps_are_constant_rate(self):
        # l1 = a1 = 0: psi' = b1 psi, so psi(T) = tau exp(b1 T) exactly
        spec = AFFINE_LINEAR_JUMPS
        tau, T = 0.6, 1.3
        phi, psi = affine_transform(spec, tau, T)
        assert abs(psi - tau * math.exp(spec.b1 * T)) < 1e-10

    def test_phi_against_quadrature(self):
        # independent oracle: phi(T) = int_0^T F0(psi(s)) ds on the closed-form
        # psi path, by adaptive quadrature
        spec = AFFINE_LINEAR_JUMPS
        tau, T = 0.6, 1.3
        phi, _ = affine_transform(spec, tau, T)

        def f0(s):
            u = tau * math.exp(spec.b1 * s)
            out = spec.b0 * u + 0.5 * spec.a0 * u * u
            for w, xi in spec.atoms:
                out += spec.l0 * w * (math.exp(u * xi) - 1 - u * xi)
            return out

        want, err = scipy.integrate.quad(f0, 0.0, T, epsabs=1e-13, epsrel=1e-13)
        assert abs(phi.real - want) < 1e-9
        assert abs(phi.imag) < 1e-12

    def test_positivity_check(self):
        unit = np.linspace(0.0, 1.0, 101)[:, None]
        bad = AffineSpec(a0=-0.1).to_characteristics(8)
        assert any(f.kind == "diffusion-not-psd" for f in validate_on_grid(bad, unit))
        wide = np.linspace(-5.0, 5.0, 101)[:, None]
        assert not validate_on_grid(AFFINE_LINEAR_JUMPS.to_characteristics(8), wide)
        decreasing = AffineSpec(l0=1.0, l1=-2.0, a0=1.0, atoms=((1.0, 0.1),)).to_characteristics(8)
        assert any(f.kind == "negative-intensity" for f in validate_on_grid(decreasing, unit))

    def test_to_characteristics_layout(self):
        chars = AFFINE_LINEAR_JUMPS.to_characteristics(8)
        assert chars.drift[0].coefficient((0,)) == 0.1
        assert chars.drift[0].coefficient((1,)) == 0.2
        assert chars.diffusion[0][0].coefficient((0,)) == 0.3
        assert len(chars.kernel.atoms) == 2
        assert chars.kernel.atoms[1].size[0].coefficient((0,)) == -0.3

    def test_quadratic_flow_preserves_affine_exponents(self):
        # R maps (0, v, 0, ...) to (F0(v), F1(v), 0, ...): the sequence flow
        # restricted to affine exponents IS the scalar transform
        chars = AFFINE_LINEAR_JUMPS.to_characteristics(10)
        v = 0.45
        u = ser.from_entries(1, 10, [((1,), v)])
        out = apply_r(u, chars)
        f0 = 0.1 * v + 0.15 * v * v
        for w, xi in AFFINE_LINEAR_JUMPS.atoms:
            f0 += w * (math.exp(v * xi) - 1 - v * xi)
        assert abs(out.coefficient((0,)) - f0) < 1e-14
        assert abs(out.coefficient((1,)) - 0.2 * v) < 1e-14
        assert np.all(np.abs(out.coeffs[2:]) < 1e-14)


class TestUnitInterval:
    def test_dual_rates_frozen_values(self):
        down, up = UnitIntervalModel(k_max=10).dual_rates()
        assert down[0] == down[1] == up[0] == up[1] == 0.0
        assert down[2] == 1.0 and up[2] == 2.0
        assert down[3] == 2.5 and up[3] == 5.0

    def test_dual_anchor_value(self):
        res = UnitIntervalModel(k_max=120).dual_expectation(0.5)
        assert abs(float(res.evaluate(0.5)) - DUAL_ANCHOR) < 1e-9
        assert res.outflow > 0  # the chain is explosive; escapes must show up
        assert res.impact_bound < 1e-20

    def test_absorbing_endpoints_are_exact(self):
        # x = 0 and x = 1 are absorbing, so E[e^{X_T}] there is e^0 and e^1
        res = UnitIntervalModel(k_max=120).dual_expectation(0.5)
        assert abs(float(res.evaluate(0.0)) - 1.0) < 1e-10
        assert abs(float(res.evaluate(1.0)) - math.e) < 1e-9

    def test_series_accessor_matches_evaluate(self):
        res = UnitIntervalModel(k_max=80).dual_expectation(0.5)
        u = dual_series(res, order=40)
        for x in (0.2, 0.5, 0.9):
            assert abs(ser.evaluate(u, x).real - float(res.evaluate(x))) < 1e-11

    def test_small_barrier_rejected(self):
        with pytest.raises(EscapeMassError, match="increase k_max"):
            UnitIntervalModel(k_max=8).dual_expectation(0.5)
        with pytest.raises(ValueError):
            UnitIntervalModel(k_max=3)

    def test_characteristics_layout(self):
        chars = build_preset("unit-interval", 10)
        np.testing.assert_allclose(
            chars.diffusion[0][0].coeffs.real[:4], [0, 1, -3, 3], atol=1e-15
        )
        assert chars.kernel.pole_order == 1
        assert chars.kernel.atoms[0].size[0].coefficient((1,)) == -1.0


class TestDualSum:
    """The blocked uniformization sum against the step-by-step one it
    replaced, in double and in long double."""

    @seed(20261020)
    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 80), st.floats(0.0, 1.0))
    def test_blocks_match_steps(self, k_max, T):
        model = UnitIntervalModel(k_max=k_max)
        want, outflow, _ = dual_steps(model, T)
        if outflow * 2.0 ** -(k_max + 1) > models._DUAL_TAIL_THRESHOLD:
            with pytest.raises(EscapeMassError):
                model.dual_expectation(T)
            return
        res = model.dual_expectation(T)
        assert len(res.coefficients) == k_max + 1
        assert np.all(np.abs(res.coefficients - want) <= 1e-12 * want)
        # the outflow is a difference of masses, so its rounding is relative to them
        mass = sum(2.0**k / math.factorial(k) for k in range(k_max + 1))
        assert abs(res.outflow - outflow) <= 1e-12 * mass

    # ``before``: the largest difference on [0, 1] to the long-double sum at
    # T = 0.5 of the step-by-step sum with the weights
    # exp(n log(lam T) - lam T - lgamma(n + 1)); the blocked sum is no worse
    @pytest.mark.parametrize("k_max,before", [(24, 2.4e-13), (60, 5.3e-13), (200, 3.29e-11)])
    def test_long_double_error_within_rounding_bound(self, k_max, before):
        model = UnitIntervalModel(k_max=k_max)
        want, _, _ = dual_steps(model, 0.5, np.longdouble)
        xs = np.linspace(0.0, 1.0, 101)
        half = xs.astype(np.longdouble) / 2
        exact = np.zeros_like(half)
        for c in want[::-1]:
            exact = exact * half + c
        res = model.dual_expectation(0.5)
        err = float(np.abs(res.evaluate(xs) - exact).max())
        assert err <= before
        assert err <= res.rounding

    @pytest.mark.parametrize("k_max,T", [(40, 0.001), (40, 0.01), (60, 0.05), (24, 0.001), (24, 0.5), (80, 0.3)])
    def test_outflow_is_the_leak_itself(self, k_max, T):
        # the escape is accumulated, not a difference of masses near e^2, so
        # it keeps its digits far below one ulp of the mass
        model = UnitIntervalModel(k_max=k_max)
        _, _, leak = dual_steps(model, T)
        res = model.dual_expectation(T)
        assert abs(res.outflow - leak) <= 1e-12 * leak
        if (k_max, T) == (40, 0.001):
            mass = sum(2.0**k / math.factorial(k) for k in range(k_max + 1))
            assert 0 < res.outflow < 1e-15 * np.spacing(mass)

    def test_rounding_bound_at_the_default_k_max(self):
        res = UnitIntervalModel().dual_expectation(0.5)
        assert 0 < res.rounding < 1e-9

    def test_zero_horizon_is_the_start_law(self):
        res = UnitIntervalModel(k_max=60).dual_expectation(0.0)
        mu = [Fraction(2**k, math.factorial(k)) for k in range(61)]
        assert all(abs(Fraction(c) - m) <= 1e-14 * m for c, m in zip(res.coefficients, mu, strict=True))
        assert res.outflow == res.impact_bound == 0.0
        for x in (0.0, 0.5, 1.0):
            assert abs(float(res.evaluate(x)) - math.exp(x)) <= 1e-15 * math.exp(x)

    @pytest.mark.parametrize("T", [-0.5, -1e-300, math.nan, math.inf])
    def test_horizon_must_be_finite_and_forward(self, T):
        with pytest.raises(ValueError, match="horizon"):
            UnitIntervalModel(k_max=24).dual_expectation(T)


def model_series(chars):
    """Every series of a model: drift, diffusion, then the kernel's
    intensity and atom sizes."""
    out = [*chars.drift, *(s for row in chars.diffusion for s in row)]
    if chars.kernel is not None:
        out += [chars.kernel.intensity, *(s for a in chars.kernel.atoms for s in a.size)]
    return out


class TestPresets:
    def test_registry_contents(self):
        assert set(PRESETS) == {
            "bm",
            "compound-poisson",
            "affine-linear-jumps",
            "unit-interval",
            "finite-chain",
            "two-state-affine",
        }
        assert set(PRESET_INFO) == set(PRESETS)

    def test_kinds_and_order_passthrough(self):
        assert isinstance(build_preset("bm", order=9), Characteristics)
        assert build_preset("bm", order=9).order == 9
        assert isinstance(build_preset("finite-chain"), FiniteChain)
        assert build_preset("two-state-affine").n_states == 2

    @pytest.mark.parametrize("order", [3, 8, 16, 34])
    @pytest.mark.parametrize(
        "name,construct",
        [
            ("bm", AffineSpec(a0=1.0).to_characteristics),
            ("compound-poisson", AffineSpec(a0=1.0, l0=1.0, atoms=((1.0, 0.5), (1.0, -0.5))).to_characteristics),
            ("affine-linear-jumps", AFFINE_LINEAR_JUMPS.to_characteristics),
            ("unit-interval", unit_interval_chars),
        ],
    )
    def test_spec_equals_direct_construction(self, name, construct, order):
        # the inline spec, read like a config's model section, builds the
        # same model as the direct construction, array for array
        got, want = build_preset(name, order), construct(order)
        assert (got.dim, got.order) == (want.dim, want.order)
        assert (got.kernel is None) == (want.kernel is None)
        if want.kernel is not None:
            assert got.kernel.pole_order == want.kernel.pole_order
            assert [a.weight for a in got.kernel.atoms] == [a.weight for a in want.kernel.atoms]
        for x, y in zip(model_series(got), model_series(want), strict=True):
            assert x.coeffs.dtype == y.coeffs.dtype
            np.testing.assert_array_equal(x.coeffs, y.coeffs)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            build_preset("geometric")
