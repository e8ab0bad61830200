"""Path simulator and generator cross-checks.

Statistical assertions run at fixed seeds with 3-sigma bands around closed
forms; the settings were sized so discretisation bias is well under the
Monte Carlo noise.
"""

import math

import numpy as np
import pytest

from holoseq import series as ser
from holoseq.characteristics import Characteristics, JumpAtom, JumpKernel, validate_on_grid
from holoseq.models import UnitIntervalModel, build_preset
from holoseq.montecarlo import (
    _BATCH,
    IntensityBoundError,
    McConfig,
    McEstimate,
    _simulate,
    martingale_audit,
    simulate_expectation,
)

from oracles import pointwise_generator
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
        full, _, _ = _simulate(bm, 0.0, 2e-3, McConfig(paths=_BATCH, dt=1e-3, seed=9))
        more, _, _ = _simulate(bm, 0.0, 2e-3, McConfig(paths=_BATCH + 5, dt=1e-3, seed=9))
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
