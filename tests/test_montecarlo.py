"""Path simulator and generator cross-checks.

Statistical assertions run at fixed seeds with 3-sigma bands around closed
forms; the settings were sized so discretisation bias is well under the
Monte Carlo noise.
"""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoseq import series as ser
from holoseq.characteristics import Characteristics, JumpAtom, JumpKernel, validate_on_grid
from holoseq.models import UnitIntervalModel, build_preset
from holoseq.montecarlo import (
    _BATCH,
    IntensityBoundError,
    McConfig,
    McEstimate,
    _compensator,
    _simulate,
    generator_values,
    martingale_audit,
    simulate_expectation,
)
from holoseq.odeflow import solve_linear

from oracles import pointwise_generator
import reference_kernels
from reference_kernels import compensator, euler_paths
from test_characteristics import const


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(paths=0)
        with pytest.raises(ValueError):
            McConfig(dt=0.0)

    @pytest.mark.parametrize(
        "setting",
        [{"paths": 1.5}, {"paths": True}, {"seed": -1}, {"seed": 2.5}, {"seed": False}, {"dt": math.nan}, {"dt": math.inf},
         # a NaN threshold absorbs no path, since x < nan is always false
         {"absorb_delta": math.nan}, {"absorb_delta": math.inf}, {"absorb_delta": -1e-6}, {"absorb_delta": "1e-6"},
         {"absorb_delta": True}, {"dt": True}, {"state_box": (True, 2.0)}],
    )
    def test_rejects_values_no_simulation_can_use(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            McConfig(**setting)

    def test_accepts_numpy_integers(self):
        cfg = McConfig(paths=np.int64(10), seed=np.uint32(3))
        assert (cfg.paths, cfg.seed) == (10, 3)

    def test_within_helper(self):
        est = McEstimate(mean=1.0, stderr=0.1, paths=10)
        assert est.within(1.25) and not est.within(1.35)


class TestDeterminism:
    def test_same_config_bitwise_identical(self):
        bm = build_preset("bm")
        cfg = McConfig(paths=3000, dt=5e-3, seed=11)
        a = simulate_expectation(bm, lambda x: x**2, 0.0, 0.1, cfg)
        b = simulate_expectation(bm, lambda x: x**2, 0.0, 0.1, cfg)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_seed_changes_draws(self):
        bm = build_preset("bm")
        a = simulate_expectation(
            bm, lambda x: x**2, 0.0, 0.1, McConfig(paths=3000, dt=5e-3, seed=11)
        )
        c = simulate_expectation(
            bm, lambda x: x**2, 0.0, 0.1, McConfig(paths=3000, dt=5e-3, seed=12)
        )
        assert a.mean != c.mean

    def test_batches_do_not_depend_on_path_count(self):
        # each batch has its own stream, so extra paths spill into a new
        # batch without touching the draws of the full ones
        bm = build_preset("bm")
        full = _simulate(bm, 0.0, 2e-3, McConfig(paths=_BATCH, dt=1e-3, seed=9))[0]
        more = _simulate(bm, 0.0, 2e-3, McConfig(paths=_BATCH + 5, dt=1e-3, seed=9))[0]
        assert more.shape == (_BATCH + 5, 1)
        np.testing.assert_array_equal(more[:_BATCH], full)


class TestAgainstClosedForms:
    def test_bm_second_moment(self):
        est = simulate_expectation(
            build_preset("bm"), lambda x: x**2, 0.0, 0.25, McConfig(paths=10000, dt=2e-3, seed=0)
        )
        assert est.within(0.25)
        assert est.paths == 10000

    def test_compound_poisson_second_moment(self):
        # E[X_T^2] = T (a + rate * sum w xi^2) = 0.5 * 1.5
        est = simulate_expectation(
            build_preset("compound-poisson"),
            lambda x: x**2,
            0.0,
            0.5,
            McConfig(paths=8000, dt=2e-3, seed=1),
        )
        assert est.within(0.75)

    def test_affine_jump_mean_uses_compensated_drift(self):
        # A x = b(x) alone (the kernel is compensated), so m' = 0.1 + 0.2 m;
        # simulating without the compensator correction would land ~0.05 high
        est = simulate_expectation(
            build_preset("affine-linear-jumps"),
            lambda x: np.asarray(x),
            0.0,
            0.5,
            McConfig(paths=8000, dt=2e-3, seed=6),
        )
        target = 0.5 * (math.exp(0.1) - 1)
        assert est.within(target)
        assert abs(est.mean - target) < 0.02  # would be ~0.05 off uncompensated

    def test_unit_interval_against_dual(self):
        model = UnitIntervalModel(k_max=120)
        anchor = float(model.dual_expectation(0.5).evaluate(0.5))
        est = simulate_expectation(
            build_preset("unit-interval", 10),
            np.exp,
            0.5,
            0.5,
            McConfig(paths=2000, dt=2e-3, seed=4, absorb_delta=1e-6, state_box=(0.0, 1.0)),
        )
        assert est.within(anchor)
        assert est.absorbed > 0  # kill jumps must actually fire
        assert est.clamps > 0  # and reflection at the boundary engages


class TestErrors:
    def test_horizon_must_be_step_multiple(self):
        with pytest.raises(ValueError, match="whole number"):
            simulate_expectation(
                build_preset("bm"), lambda x: x, 0.0, 0.1003, McConfig(paths=10, dt=1e-3)
            )

    def test_horizon_must_be_positive(self):
        bm = build_preset("bm")
        with pytest.raises(ValueError, match="positive"):
            simulate_expectation(bm, lambda x: x**2, 0.3, -0.5, McConfig(paths=10, dt=1e-3))
        with pytest.raises(ValueError, match="positive"):
            martingale_audit(bm, lambda x: x**2, 0.3, 0.0, McConfig(paths=10, dt=1e-3))
        # a positive horizon that rounds to zero steps would run none
        with pytest.raises(ValueError, match="positive"):
            martingale_audit(bm, lambda x: x**2, 0.3, 1e-10, McConfig(paths=10, dt=1e-3))

    def test_negative_intensity_aborts(self):
        order = 6
        s = ser.from_entries(1, order, [((0,), 1.0), ((1,), -1.0)])  # 1 - x
        kernel = JumpKernel(s, (JumpAtom(1.0, (const(1, order, 0.1),)),), 0)
        chars = Characteristics(
            1, (ser.zero(1, order),), ((const(1, order, 1.0),),), kernel
        )
        with pytest.raises(IntensityBoundError, match="negative jump intensity"):
            simulate_expectation(chars, lambda x: x, 2.0, 0.1, McConfig(paths=50, dt=1e-3))

    def test_nan_intensity_aborts(self):
        # s(x) = x over a simple pole is 0/0 at the origin: not a rate at all
        order = 6
        s = ser.from_entries(1, order, [((1,), 1.0)])
        kernel = JumpKernel(s, (JumpAtom(1.0, (const(1, order, 0.1),)),), pole_order=1)
        chars = Characteristics(1, (ser.zero(1, order),), ((const(1, order, 1.0),),), kernel)
        with pytest.raises(IntensityBoundError, match="NaN jump intensity"):
            simulate_expectation(chars, lambda x: x, 0.0, 0.1, McConfig(paths=50, dt=1e-3))
        # s(x) = 1 puts +inf on the pole instead: a certain jump, not an error
        certain = JumpKernel(const(1, order, 1.0), kernel.atoms, pole_order=1)
        chars = Characteristics(1, chars.drift, chars.diffusion, certain)
        est = simulate_expectation(chars, lambda x: x, 0.0, 1e-3, McConfig(paths=50, dt=1e-3))
        assert est.mean == pytest.approx(0.1)

    def test_negative_diffusion_aborts(self):
        a = ser.from_entries(1, 6, [((1,), 1.0)])  # a(x) = x
        chars = Characteristics(1, (ser.zero(1, 6),), ((a,),))
        with pytest.raises(np.linalg.LinAlgError):
            simulate_expectation(chars, lambda x: x, -1.0, 0.1, McConfig(paths=50, dt=1e-3))

    def test_box_requires_dim_one(self):
        z = ser.zero(2, 4)
        u = ser.from_entries(2, 4, [((0, 0), 1.0)])
        chars = Characteristics(2, (z, z), ((u, z), (z, u)))
        with pytest.raises(ValueError, match="dimension one"):
            simulate_expectation(
                chars, lambda x: x[:, 0], (0.0, 0.0), 0.1,
                McConfig(paths=10, dt=1e-2, state_box=(0.0, 1.0)),
            )

    # a NaN or infinite x0 ran to a silent NaN or infinite mean, and an
    # infinite T overflowed in the step count
    @pytest.mark.parametrize("run", [simulate_expectation, martingale_audit])
    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_is_refused_by_name(self, run, x0):
        with pytest.raises(ValueError, match="x0=.* must be finite"):
            run(build_preset("bm"), lambda x: x, x0, 0.1, McConfig(paths=10, dt=1e-2))
        z = ser.zero(2, 4)
        u = const(2, 4, 1.0)
        chars = Characteristics(2, (z, z), ((u, z), (z, u)))
        with pytest.raises(ValueError, match="x0=.* must be finite"):
            run(chars, lambda p: p[:, 0], (0.0, x0), 0.1, McConfig(paths=10, dt=1e-2))

    @pytest.mark.parametrize("run", [simulate_expectation, martingale_audit])
    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_non_finite_horizon_is_refused_by_name(self, run, T):
        with pytest.raises(ValueError, match=f"horizon T={T!r} must be a finite number"):
            run(build_preset("bm"), lambda x: x, 0.0, T, McConfig(paths=10, dt=1e-2))

    @pytest.mark.parametrize("run", [simulate_expectation, martingale_audit])
    def test_complex_payoff_is_refused(self, run):
        bm, cfg = build_preset("bm"), McConfig(paths=50, dt=1e-2, seed=1)
        with pytest.raises(ValueError, match="nonzero imaginary part"):
            run(bm, lambda x: np.exp((0.5 + 1j) * x), 0.0, 0.1, cfg)
        # a complex type with zero imaginary parts is a real payoff
        typed = run(bm, lambda x: np.exp(0.5 * x).astype(complex), 0.0, 0.1, cfg)
        assert typed == run(bm, lambda x: np.exp(0.5 * x), 0.0, 0.1, cfg)


class TestPointwiseGenerator:
    def test_bm_sine(self):
        got = pointwise_generator(build_preset("bm"), np.sin, 0.3)
        assert abs(got.real + 0.5 * math.sin(0.3)) < 1e-8

    def test_affine_jumps_exponential_closed_form(self):
        chars = build_preset("affine-linear-jumps")
        jump_const = (math.exp(0.4) - 1.4) + (math.exp(-0.3) - 0.7)
        for x in (-0.5, 0.0, 0.8):
            got = pointwise_generator(chars, lambda z: np.exp(z), x).real
            want = math.exp(x) * ((0.1 + 0.2 * x) + 0.15 + jump_const)
            assert abs(got - want) <= 1e-7 * abs(want)

    def test_two_dim_quadratic(self):
        # f = x1 x2 under pure diffusion: A f = a_12
        z = ser.zero(2, 6)
        a11 = ser.from_entries(2, 6, [((0, 0), 1.0)])
        a12 = ser.from_entries(2, 6, [((0, 0), 0.3)])
        a22 = ser.from_entries(2, 6, [((0, 0), 0.8)])
        chars = Characteristics(2, (z, z), ((a11, a12), (a12, a22)))
        got = pointwise_generator(chars, lambda p: p[:, 0] * p[:, 1], (0.4, -0.2))
        assert abs(got.real - 0.3) < 1e-7


class TestMartingaleAudit:
    def test_bm_square(self):
        aud = martingale_audit(
            build_preset("bm"),
            lambda x: np.asarray(x) ** 2,
            0.0,
            0.25,
            McConfig(paths=4000, dt=5e-3, seed=2),
        )
        assert aud.within(0.0)
        assert aud.stderr > 0

    def test_compound_poisson_exponential(self):
        aud = martingale_audit(
            build_preset("compound-poisson"),
            lambda x: np.exp(0.5 * np.asarray(x)),
            0.0,
            0.25,
            McConfig(paths=4000, dt=5e-3, seed=3),
        )
        assert aud.within(0.0)

    def test_unit_interval_exponential(self):
        aud = martingale_audit(
            build_preset("unit-interval", 10),
            lambda x: np.exp(np.asarray(x)),
            0.5,
            0.25,
            McConfig(paths=2000, dt=2e-3, seed=5, absorb_delta=1e-6, state_box=(0.0, 1.0)),
        )
        assert aud.within(0.0)


def two_dim_jump_chars(order=6):
    """Dim 2: affine drift, correlated diffusion, affine intensity, two atoms."""
    c = lambda v: const(2, order, v)
    drift = (
        ser.from_entries(2, order, [((0, 0), 0.1), ((1, 0), -0.2)]),
        ser.from_entries(2, order, [((0, 1), -0.3)]),
    )
    diffusion = ((c(1.0), c(0.3)), (c(0.3), c(0.8)))
    intensity = ser.from_entries(2, order, [((0, 0), 1.0), ((1, 0), 0.1)])
    atoms = (
        JumpAtom(0.5, (c(0.2), c(-0.1))),
        JumpAtom(0.5, (c(-0.1), ser.from_entries(2, order, [((0, 1), 0.1)]))),
    )
    return Characteristics(2, drift, diffusion, JumpKernel(intensity, atoms))


class TestCompiledHotPath:
    def test_no_complex_kernel_on_state_evaluations(self, monkeypatch):
        # simulation, audit and grid checks evaluate the characteristics through
        # their compiled real evaluators only
        runs = [
            (build_preset("bm"), lambda x: x**2, 0.0, {}),
            (build_preset("compound-poisson"), lambda x: np.exp(0.5 * x), 0.0, {}),
            (build_preset("unit-interval", order=12), np.exp, 0.5,
             dict(absorb_delta=1e-6, state_box=(0.0, 1.0))),
            (two_dim_jump_chars(), lambda p: p[:, 0] * p[:, 1] + p[:, 0] ** 2, (0.1, -0.2), {}),
        ]
        affine = build_preset("affine-linear-jumps")

        def refuse(*args, **kwargs):
            raise AssertionError("series.evaluate called on a state-space evaluation")

        monkeypatch.setattr(ser, "evaluate", refuse)
        for chars, f, x0, extra in runs:
            cfg = McConfig(paths=500, dt=1e-2, seed=7, **extra)
            assert np.isfinite(simulate_expectation(chars, f, x0, 0.1, cfg).mean)
            assert np.isfinite(martingale_audit(chars, f, x0, 0.1, cfg).mean)
        report = validate_on_grid(affine, np.linspace(-1.0, 1.0, 11), box=([-1.0], [1.0]))
        assert any(f.kind == "jump-leaves-box" for f in report)


def _unit(dim, i, k=1):
    return tuple(k if j == i else 0 for j in range(dim))


@st.composite
def euler_models(draw, dim):
    """A model of dimension ``dim`` whose diffusion stays PSD and intensity
    nonnegative at every state, each characteristic constant or not."""
    order = 4
    zero = (0,) * dim
    real = lambda lo, hi: draw(st.floats(lo, hi, allow_nan=False))  # noqa: E731
    drift = tuple(
        ser.from_entries(dim, order, [(zero, real(-0.5, 0.5))]
                + ([(_unit(dim, i), real(-0.5, 0.5))] if draw(st.booleans()) else []))
        for i in range(dim)
    )
    # a = G G^T, plus c_i x_i^2 on the diagonal when state-dependent
    g = np.array([[real(-1.0, 1.0) for _ in range(dim)] for _ in range(dim)])
    a0 = g @ g.T
    quad = [real(0.0, 0.5) if draw(st.booleans()) else 0.0 for _ in range(dim)]
    diffusion = tuple(
        tuple(ser.from_entries(dim, order, [(zero, a0[i, j])] + ([(_unit(dim, i, 2), 2 * quad[i])] if i == j else []))
              for j in range(dim))
        for i in range(dim)
    )
    kernel = None
    if draw(st.booleans()):
        # lambda = l0 + l1 x_1^2 >= 0
        slope = real(0.0, 1.0) if draw(st.booleans()) else 0.0
        intensity = ser.from_entries(dim, order, [(zero, real(0.0, 3.0)), (_unit(dim, 0, 2), 2 * slope)])
        atoms = []
        for _ in range(draw(st.integers(1, 3))):
            weight = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
            size = tuple(
                ser.from_entries(dim, order, [(zero, real(-0.4, 0.4))]
                        + ([(_unit(dim, i), real(-0.3, 0.3))] if draw(st.booleans()) else []))
                for i in range(dim)
            )
            atoms.append(JumpAtom(weight, size))
        kernel = JumpKernel(intensity, tuple(atoms))
    return Characteristics(dim, drift, diffusion, kernel)


def _run_both(chars, f, x0, T, cfg):
    """(finals, clamps, absorbed, integrals) from ``_simulate`` with the
    audit's hook and from the reference loop with its own."""
    hook, integral = _compensator(chars, f, cfg.paths)
    finals, clamps, absorbed, _ = _simulate(chars, x0, T, cfg, step_hook=hook)
    ref_hook, ref_integral = compensator(chars, f)
    ref = euler_paths(chars, x0, T, cfg, step_hook=ref_hook)
    return (finals, clamps, absorbed, integral), (*ref, ref_integral())


def _assert_same(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


class TestMatchesReferenceLoop:
    """The step loop with per-run values against the loop that evaluates every
    characteristic on every step: the same draws give the same bits."""

    @seed(20261020)
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3]), st.integers(1, 300), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_random_models(self, data, dim, paths, steps, rng_seed):
        chars = data.draw(euler_models(dim))
        x0 = np.array([data.draw(st.floats(-0.5, 0.5)) for _ in range(dim)])
        cfg = McConfig(paths=paths, dt=0.01, seed=rng_seed)
        f = (lambda x: np.sin(x)) if dim == 1 else (lambda p: np.sin(p[:, 0]) + p[:, -1] ** 2)
        got, want = _run_both(chars, f, x0 if dim > 1 else x0[0], steps * cfg.dt, cfg)
        _assert_same(got, want)

    @seed(20261021)
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 0.95), st.integers(1, 300), st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([None, 1e-6, 0.05]))
    def test_unit_interval(self, x0, paths, steps, rng_seed, delta):
        # the truncated intensity goes negative outside [0, 1], so the box stays
        cfg = McConfig(paths=paths, dt=5e-3, seed=rng_seed, absorb_delta=delta, state_box=(0.0, 1.0))
        got, want = _run_both(build_preset("unit-interval", 12), np.exp, x0, steps * cfg.dt, cfg)
        _assert_same(got, want)

    def test_absorption_switches_to_masks(self):
        # most paths are absorbed part way, so the run covers both kinds of step
        cfg = McConfig(paths=400, dt=5e-3, seed=8, absorb_delta=0.05, state_box=(0.0, 1.0))
        got, want = _run_both(build_preset("unit-interval", 12), np.exp, 0.2, 0.5, cfg)
        _assert_same(got, want)
        assert 0 < got[2] < cfg.paths

    def test_pole_with_constant_numerator(self):
        # lambda = 0.5 / x has a constant series over the pole, and still
        # depends on the state
        order = 6
        a = ser.from_entries(1, order, [((1,), 1.0), ((2,), -2.0)])  # x (1 - x)
        kill = JumpAtom(1.0, (ser.from_entries(1, order, [((1,), -1.0)]),))
        kernel = JumpKernel(const(1, order, 0.5), (kill,), pole_order=1)
        chars = Characteristics(1, (ser.zero(1, order),), ((a,),), kernel)
        cfg = McConfig(paths=500, dt=5e-3, seed=2, absorb_delta=1e-6, state_box=(0.0, 1.0))
        got, want = _run_both(chars, np.exp, 0.4, 0.3, cfg)
        _assert_same(got, want)
        assert got[2] > 0

    def test_benchmark_shaped_runs(self):
        # the benchmark's Monte Carlo ops in small: constant-coefficient jumps,
        # the pole kernel in a box, a constant correlated 2x2 diffusion with
        # constant jumps, and audits of both kinds
        box = dict(absorb_delta=1e-6, state_box=(0.0, 1.0))
        m2 = constant_two_dim_chars()
        runs = [
            (build_preset("affine-linear-jumps", 8), lambda x: np.exp(0.5 * x), 0.1, 0.5, {}),
            (build_preset("unit-interval", 12), lambda x: np.exp(1.1 * x), 0.5, 0.5, box),
            (m2, lambda p: np.exp(p @ np.array([0.3, -0.4])), (0.1, -0.2), 0.5, {}),
            (build_preset("compound-poisson", 8), lambda x: np.exp(0.4 * x), 0.0, 0.3, {}),
        ]
        for chars, f, x0, T, extra in runs:
            cfg = McConfig(paths=1000, dt=5e-3, seed=3, **extra)
            got, want = _run_both(chars, f, x0, T, cfg)
            _assert_same(got, want)

    def test_second_batch(self):
        # the audit's integrals of a later batch land after the full ones
        cfg = McConfig(paths=_BATCH + 50, dt=5e-3, seed=3)
        got, want = _run_both(build_preset("compound-poisson", 8), lambda x: np.exp(0.4 * x), 0.0, 0.01, cfg)
        _assert_same(got, want)


def _payoffs(dim):
    """A real and a complex payoff of dimension ``dim``; both mix the
    coordinates when dim > 1, so the cross partials enter."""
    if dim == 1:
        return np.sin, lambda x: np.exp((0.4 + 0.7j) * x)
    return (
        lambda p: np.sin(p[:, 0]) * p[:, -1] + p[:, -1] ** 2,
        lambda p: np.exp((0.3 - 0.5j) * p[:, 0] + 0.6j * p[:, 0] * p[:, -1]),
    )


def _assert_matches_frozen(chars, pts):
    """``generator_values`` in f's type against the complex128 reference:
    a real f's values equal the reference's real part, a complex f's equal
    the reference."""
    real_f, complex_f = _payoffs(chars.dim)
    got = generator_values(chars, real_f, pts)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, reference_kernels.generator_values(chars, real_f, pts).real)
    got = generator_values(chars, complex_f, pts)
    assert got.dtype == np.complex128
    np.testing.assert_array_equal(got, reference_kernels.generator_values(chars, complex_f, pts))


class TestGeneratorValues:
    """The generator by differences in f's own type, with the state-free
    characteristics evaluated once per model, against the complex128 loop
    that evaluates every characteristic at every state."""

    @seed(20261025)
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3]), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_random_models(self, data, dim, n, rng_seed):
        chars = data.draw(euler_models(dim))
        rng = np.random.default_rng(rng_seed)
        pts = rng.uniform(-1.0, 1.0, (n, dim))
        pts[rng.random((n, dim)) < 0.2] = 0.0
        _assert_matches_frozen(chars, pts)
        # the second call reads the values kept on the model
        _assert_matches_frozen(chars, pts[::-1])

    def test_pole_kernel_at_the_origin(self):
        pts = np.concatenate([[0.0, 0.0], np.linspace(0.0, 1.0, 21), [1e-300, 0.0]])[:, None]
        for order in (6, 12):
            _assert_matches_frozen(build_preset("unit-interval", order), pts)
        # lambda = 0.5 / x with jumps of 0.3 + x: nonzero at the origin and
        # at the placeholder state, unlike the unit interval's
        order = 6
        size = ser.from_entries(1, order, [((0,), 0.3), ((1,), 1.0)])
        kernel = JumpKernel(const(1, order, 0.5), (JumpAtom(1.0, (size,)),), pole_order=1)
        chars = Characteristics(1, (const(1, order, 0.1),), ((const(1, order, 0.2),),), kernel)
        _assert_matches_frozen(chars, pts)

    def test_benchmark_shaped_models(self):
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, (200, 2))
        _assert_matches_frozen(constant_two_dim_chars(), pts)
        _assert_matches_frozen(state_dependent_two_dim_chars(), pts)
        for name in ("bm", "compound-poisson", "affine-linear-jumps"):
            _assert_matches_frozen(build_preset(name, 8), pts[:, 0])

    def test_state_free_characteristics_once_per_model(self, monkeypatch):
        counts = _count_evaluations(monkeypatch)
        seen = []
        for T in (0.05, 0.3):
            counts.clear()
            cfg = McConfig(paths=200, dt=5e-3, seed=1)
            martingale_audit(build_preset("compound-poisson"), np.exp, 0.0, T, cfg)
            seen.append(dict(counts))
        # once for the model, shared by the run and the audit's generator; two atoms
        want = {"drift_values": 1, "diffusion_values": 1, "intensity_value": 1, "size_values": 2}
        assert seen == [want, want]

    def test_audit_shares_the_steps_evaluation(self, monkeypatch):
        # the unit interval's drift is zero, so only it is state-free; the
        # generator reads the step's diffusion, intensity and sizes
        counts = _count_evaluations(monkeypatch)
        cfg = McConfig(paths=500, dt=5e-3, seed=2, absorb_delta=1e-6, state_box=(0.0, 1.0))
        steps = 60
        seen = []
        for run in (simulate_expectation, martingale_audit):
            counts.clear()
            est = run(build_preset("unit-interval", 12), np.exp, 0.5, steps * cfg.dt, cfg)
            assert est.absorbed < cfg.paths  # a live path at every step
            seen.append(dict(counts))
        want = {"drift_values": 1, "diffusion_values": steps, "intensity_value": steps, "size_values": steps}
        assert seen == [want, want]


def _count_evaluations(monkeypatch) -> Counter:
    """Counts the calls of each characteristic evaluator, by name."""
    counts = Counter()
    for cls, name in ((Characteristics, "drift_values"), (Characteristics, "diffusion_values"),
                      (JumpKernel, "intensity_value"), (JumpAtom, "size_values")):
        def counting(self, xs, method=getattr(cls, name), name=name):
            counts[name] += 1
            return method(self, xs)

        monkeypatch.setattr(cls, name, counting)
    return counts


class TestPoleStates:
    def test_paths_on_the_pole_raise_no_warning(self):
        # with no absorption, a path killed onto x = 0 steps on from the pole:
        # its jump is certain and its jump compensator zero, not inf * 0
        chars = build_preset("unit-interval", 12)
        cfg = McConfig(paths=500, dt=5e-3, seed=5, absorb_delta=None, state_box=(0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (simulate_expectation, martingale_audit):
                est = run(chars, np.exp, 0.02, 0.2, cfg)
                assert np.isfinite(est.mean) and est.jumps > 0


def constant_two_dim_chars(order=6):
    """Dim 2: affine drift, constant correlated diffusion, constant intensity,
    two atoms of constant size."""
    c = lambda v: const(2, order, v)  # noqa: E731
    drift = (
        ser.from_entries(2, order, [((0, 0), 0.05), ((1, 0), -0.4), ((0, 1), 0.1)]),
        ser.from_entries(2, order, [((0, 0), 0.1), ((1, 0), 0.05), ((0, 1), -0.3)]),
    )
    diffusion = ((c(0.2), c(0.06)), (c(0.06), c(0.15)))
    atoms = (JumpAtom(0.6, (c(0.2), c(-0.1))), JumpAtom(0.4, (c(-0.15), c(0.09))))
    return Characteristics(2, drift, diffusion, JumpKernel(c(0.8), atoms))


class TestDiffusionRoot:
    """The two routes to a dimension > 1 diffusion increment: one root per
    run for a constant diffusion, one per step for a state-dependent one."""

    def test_constant_non_psd_diffusion_raises(self):
        z = ser.zero(2, 4)
        one, two = const(2, 4, 1.0), const(2, 4, 2.0)
        chars = Characteristics(2, (z, z), ((one, two), (two, one)))
        for run in (simulate_expectation, martingale_audit):
            with pytest.raises(np.linalg.LinAlgError, match="not PSD"):
                run(chars, lambda p: p[:, 0], (0.0, 0.0), 0.1, McConfig(paths=20, dt=1e-2))

    def test_one_eigh_per_run_when_constant(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        cfg = McConfig(paths=300, dt=1e-2, seed=1)
        simulate_expectation(constant_two_dim_chars(), lambda p: p[:, 0], (0.0, 0.0), 0.2, cfg)
        assert calls == [(1, 2, 2)]
        calls.clear()
        simulate_expectation(state_dependent_two_dim_chars(), lambda p: p[:, 0], (0.0, 0.0), 0.2, cfg)
        # once per step over all paths
        assert calls == [(300, 2, 2)] * 20

    def test_state_dependent_cross_moment(self):
        # E[X_1 X_2] closes on polynomials of degree 2: the linear route is exact
        chars = state_dependent_two_dim_chars()
        x0, T = (0.3, -0.2), 0.5
        u0 = ser.from_entries(2, 6, [((1, 1), 1.0)])
        exact = ser.evaluate(solve_linear(chars, u0, T).final, x0).real
        est = simulate_expectation(chars, lambda p: p[:, 0] * p[:, 1], x0, T,
                                   McConfig(paths=6000, dt=1e-2, seed=12))
        assert est.within(exact, n_stderr=4.0)
        assert est.stderr < 0.01


def state_dependent_two_dim_chars(order=6):
    """Dim 2 without jumps: affine drift and a diffusion that moves with the
    state and stays PSD, a_11 = 1 + x_1^2, a_22 = 0.8 + x_2^2 and
    a_12 = 0.3 + 0.05 x_1."""
    drift = (
        ser.from_entries(2, order, [((0, 0), 0.1), ((1, 0), -0.2)]),
        ser.from_entries(2, order, [((0, 0), -0.1), ((0, 1), -0.3)]),
    )
    a11 = ser.from_entries(2, order, [((0, 0), 1.0), ((2, 0), 2.0)])
    a22 = ser.from_entries(2, order, [((0, 0), 0.8), ((0, 2), 2.0)])
    a12 = ser.from_entries(2, order, [((0, 0), 0.3), ((1, 0), 0.05)])
    return Characteristics(2, drift, ((a11, a12), (a12, a22)))


class TestJumpCount:
    def test_counts_accepted_jumps(self):
        # rate 2 (intensity 1, two atoms of weight 1) over 100 steps of 5e-3
        cfg = McConfig(paths=4000, dt=5e-3, seed=4)
        est = simulate_expectation(build_preset("compound-poisson"), lambda x: x, 0.0, 0.5, cfg)
        mean = cfg.paths * 100 * -math.expm1(-2 * cfg.dt)
        assert abs(est.jumps - mean) < 5 * math.sqrt(mean)
        assert simulate_expectation(build_preset("bm"), lambda x: x, 0.0, 0.5, cfg).jumps == 0

    def test_audit_counts_the_same_paths(self):
        cfg = McConfig(paths=500, dt=1e-2, seed=4)
        cp = build_preset("compound-poisson")
        sim = simulate_expectation(cp, lambda x: x, 0.0, 0.3, cfg)
        aud = martingale_audit(cp, lambda x: x, 0.0, 0.3, cfg)
        assert sim.jumps == aud.jumps > 0
