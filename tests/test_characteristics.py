"""Model-data layer: kernels, moment series, grid validation, config parsing."""

import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoseq import series as ser
from holoseq.characteristics import (
    Characteristics,
    JumpAtom,
    JumpKernel,
    characteristics_from_config,
    series_from_config,
    validate_on_grid,
)

from moment_form import moment_series

COEFF_TOL = 1e-12


def const(dim, order, value):
    return ser.from_entries(dim, order, [((0,) * dim, value)])


def bm_chars(order=8):
    """Unit Brownian motion: b = 0, a = 1, no jumps."""
    return Characteristics(
        1, (ser.zero(1, order),), ((const(1, order, 1.0),),), None
    )


def compound_poisson_chars(order=8):
    """a = 1 plus unit-rate jumps of size +-1/2 (weight 1 each)."""
    atoms = (
        JumpAtom(1.0, (const(1, order, 0.5),)),
        JumpAtom(1.0, (const(1, order, -0.5),)),
    )
    kernel = JumpKernel(const(1, order, 1.0), atoms, 0)
    return Characteristics(1, (ser.zero(1, order),), ((const(1, order, 1.0),),), kernel)


def unit_interval_chars(order=10):
    """Kill-to-zero model on [0, 1]: a = x(1-x)(1-x/2), lambda = (1-x)(1-x/2)/x, j = -x."""
    a = ser.from_entries(1, order, [((1,), 1.0), ((2,), -3.0), ((3,), 3.0)])
    s = ser.from_entries(1, order, [((0,), 1.0), ((1,), -1.5), ((2,), 1.0)])
    atom = JumpAtom(1.0, (ser.from_entries(1, order, [((1,), -1.0)]),))
    kernel = JumpKernel(s, (atom,), pole_order=1)
    return Characteristics(1, (ser.zero(1, order),), ((a,),), kernel)


class TestValidation:
    def test_negative_atom_weight_rejected(self):
        with pytest.raises(ValueError):
            JumpAtom(-0.5, (const(1, 4, 1.0),))

    def test_pole_order_requires_dim_one(self):
        intensity = ser.unit(2, 4)
        with pytest.raises(ValueError):
            JumpKernel(intensity, (), pole_order=1)

    def test_drift_length_mismatch(self):
        with pytest.raises(ValueError):
            Characteristics(2, (ser.zero(2, 4),), ((ser.zero(2, 4),) * 2,) * 2)

    def test_asymmetric_diffusion_rejected(self):
        z = ser.zero(2, 4)
        a01 = ser.from_entries(2, 4, [((0, 0), 0.3)])
        a10 = ser.from_entries(2, 4, [((0, 0), 0.4)])
        with pytest.raises(ValueError):
            Characteristics(2, (z, z), ((z, a01), (a10, z)))

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            Characteristics(1, (ser.zero(1, 4),), ((ser.zero(1, 6),),))


class TestEvaluation:
    def test_drift_and_diffusion_values(self):
        order = 6
        b = ser.from_entries(1, order, [((0,), 0.1), ((1,), 0.2)])  # 0.1 + 0.2 x
        a = ser.from_entries(1, order, [((0,), 0.3)])
        chars = Characteristics(1, (b,), ((a,),))
        pts = np.array([[0.0], [1.0], [-2.0]])
        np.testing.assert_allclose(
            chars.drift_values(pts)[:, 0], [0.1, 0.3, -0.3], rtol=1e-14
        )
        np.testing.assert_allclose(chars.diffusion_values(pts)[:, 0, 0], [0.3] * 3)

    def test_pole_intensity_value(self):
        chars = unit_interval_chars()
        x = np.array([0.5, 0.25])
        want = (1 - x) * (1 - x / 2) / x
        np.testing.assert_allclose(chars.kernel.intensity_value(x), want, rtol=1e-13)

    @seed(20260814)
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=20))
    def test_pole_intensity_matches_closed_form(self, xs):
        x = np.array(xs)
        want = (1 - x) * (1 - x / 2) / x
        got = unit_interval_chars().kernel.intensity_value(x)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_one_dim_points_as_flat_array(self):
        # in dim 1 a 1-D array is n points, for every evaluator alike
        chars = unit_interval_chars()
        x = np.array([0.1, 0.2, 0.3])
        col = x[:, None]
        np.testing.assert_array_equal(chars.drift_values(x), chars.drift_values(col))
        np.testing.assert_array_equal(chars.diffusion_values(x), chars.diffusion_values(col))
        np.testing.assert_array_equal(
            chars.kernel.intensity_value(x), chars.kernel.intensity_value(col)
        )
        assert chars.diffusion_values(x).shape == (3, 1, 1)
        assert not validate_on_grid(chars, [0.1, 0.2, 0.3])

    def test_multi_dim_point_as_flat_array(self):
        # in dim > 1 a 1-D array is one point, for every evaluator alike
        order = 4
        lin = ser.from_entries(2, order, [((0, 0), 1.0), ((1, 0), 0.5), ((0, 1), -0.25)])
        atom = JumpAtom(1.0, (lin, const(2, order, 0.1)))
        kernel = JumpKernel(lin, (atom,))
        chars = Characteristics(
            2, (lin, lin), ((lin, const(2, order, 0.0)), (const(2, order, 0.0), lin)), kernel
        )
        p = np.array([0.3, 0.4])
        row = p[None, :]
        assert chars.drift_values(p).shape == (1, 2)
        np.testing.assert_array_equal(chars.drift_values(p), chars.drift_values(row))
        np.testing.assert_array_equal(chars.diffusion_values(p), chars.diffusion_values(row))
        np.testing.assert_array_equal(
            chars.kernel.intensity_value(p), chars.kernel.intensity_value(row)
        )
        np.testing.assert_allclose(atom.size_values(p), [[1.05, 0.1]], rtol=1e-15)
        assert not validate_on_grid(chars, p)


class TestMomentSeries:
    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            moment_series(compound_poisson_chars(), (1,))

    def test_symmetric_half_jumps(self):
        # atoms +-1/2: even moments 2 (1/2)^k, odd moments cancel
        chars = compound_poisson_chars()
        m2 = moment_series(chars, (2,))
        m3 = moment_series(chars, (3,))
        m4 = moment_series(chars, (4,))
        assert abs(m2.coefficient((0,)) - 0.5) < COEFF_TOL
        assert np.all(np.abs(m2.coeffs[1:]) < COEFF_TOL)
        assert np.all(np.abs(m3.coeffs) < COEFF_TOL)
        assert abs(m4.coefficient((0,)) - 0.125) < COEFF_TOL

    def test_unit_interval_pole_cancellation(self):
        # m^beta = (-1)^beta x^(beta-1) (1-x)(1-x/2); the pole divides out
        chars = unit_interval_chars()
        def egf(vals):
            import math
            return [math.factorial(k) * v for k, v in enumerate(vals)]

        m2 = moment_series(chars, (2,))
        np.testing.assert_allclose(
            m2.coeffs.real[:4], egf([0.0, 1.0, -1.5, 0.5]), atol=COEFF_TOL
        )
        m3 = moment_series(chars, (3,))
        np.testing.assert_allclose(
            m3.coeffs.real[:5], egf([0.0, 0.0, -1.0, 1.5, -0.5]), atol=COEFF_TOL
        )
        m4 = moment_series(chars, (4,))
        np.testing.assert_allclose(
            m4.coeffs.real[:6], egf([0.0, 0.0, 0.0, 1.0, -1.5, 0.5]), atol=COEFF_TOL
        )


class TestGridValidation:
    def test_clean_model_passes(self):
        assert not validate_on_grid(bm_chars(), np.linspace(-1, 1, 5)[:, None])

    def test_negative_diffusion_flagged(self):
        a = ser.from_entries(1, 4, [((1,), 1.0)])  # a(x) = x, negative left of 0
        chars = Characteristics(1, (ser.zero(1, 4),), ((a,),))
        report = validate_on_grid(chars, np.array([[-1.0], [1.0]]))
        assert report
        assert sum(f.kind == "diffusion-not-psd" for f in report) == 1

    def test_negative_intensity_flagged(self):
        s = ser.from_entries(1, 4, [((0,), 1.0), ((1,), -1.0)])  # 1 - x
        kernel = JumpKernel(s, (JumpAtom(1.0, (const(1, 4, 0.5),)),))
        chars = Characteristics(1, (ser.zero(1, 4),), ((const(1, 4, 1.0),),), kernel)
        report = validate_on_grid(chars, np.array([[2.0]]))
        assert sum(f.kind == "negative-intensity" for f in report) == 1

    def test_zero_jump_and_box_exit_flagged(self):
        # j(x) = x jumps by 0 at x = 0 while carrying weight
        j = ser.from_entries(1, 4, [((1,), 1.0)])
        kernel = JumpKernel(const(1, 4, 1.0), (JumpAtom(1.0, (j,)),))
        chars = Characteristics(1, (ser.zero(1, 4),), ((const(1, 4, 1.0),),), kernel)
        report = validate_on_grid(chars, np.array([[0.0], [0.5]]))
        assert sum(f.kind == "zero-jump-size" for f in report) == 1
        # the unit-interval origin absorbs: its zero jump is no finding
        report = validate_on_grid(
            unit_interval_chars(), np.array([[0.0], [0.5]]), box=([0.0], [1.0])
        )
        assert not report
        beyond = validate_on_grid(
            compound_poisson_chars(), np.array([[0.9]]), box=([0.0], [1.0])
        )
        assert sum(f.kind == "jump-leaves-box" for f in beyond) == 1

    def test_pole_origin_accepts_inf_but_not_nan(self):
        # unit-interval: lambda(0) = +inf is a certain jump into the absorbing origin
        assert not validate_on_grid(unit_interval_chars(), np.linspace(0.0, 1.0, 5))
        # s(x) = x over a simple pole: lambda(0) = 0/0 is no rate
        s = ser.from_entries(1, 4, [((1,), 1.0)])
        atom = JumpAtom(1.0, (ser.from_entries(1, 4, [((1,), -1.0)]),))
        kernel = JumpKernel(s, (atom,), pole_order=1)
        chars = Characteristics(1, (ser.zero(1, 4),), ((const(1, 4, 1.0),),), kernel)
        report = validate_on_grid(chars, np.array([[0.0], [0.5]]))
        assert [f.point for f in report if f.kind == "negative-intensity"] == [(0.0,)]

    def test_findings_name_points_as_floats(self):
        a = ser.from_entries(1, 4, [((1,), 1.0)])  # a(x) = x, negative left of 0
        chars = Characteristics(1, (ser.zero(1, 4),), ((a,),))
        (finding,) = validate_on_grid(chars, np.array([[-1.0]]))
        assert finding.point == (-1.0,) and type(finding.point[0]) is float
        beyond = validate_on_grid(
            compound_poisson_chars(), np.array([[0.9]]), box=([0.0], [1.0])
        )
        (finding,) = [f for f in beyond if f.kind == "jump-leaves-box"]
        assert finding.detail == "atom 0 lands at (1.4,)"
        assert "np." not in f"{finding.point} {finding.detail}"


class TestConfig:
    def test_series_entries(self):
        u = series_from_config([[0, 1.0], [2, -3.0, 0.5]], 1, 4)
        assert u.coefficient((0,)) == 1.0
        assert u.coefficient((2,)) == -3.0 + 0.5j

    def test_round_trip_dim_one(self):
        cfg = {
            "dim": 1,
            "drift": [[0, 0.1], [1, 0.2]],
            "diffusion": [[0, 0.3]],
            "kernel": {
                "intensity": [[0, 1.0]],
                "atoms": [
                    {"weight": 1.0, "size": [[0, 0.4]]},
                    {"weight": 0.5, "size": [[0, -0.3]]},
                ],
            },
        }
        chars = characteristics_from_config(cfg, order=6)
        assert chars.dim == 1 and chars.order == 6
        assert chars.drift[0].coefficient((1,)) == 0.2
        assert [a.weight for a in chars.kernel.atoms] == [1.0, 0.5]
        assert chars.kernel.atoms[1].size[0].coefficient((0,)) == -0.3

    def test_round_trip_dim_two(self):
        cfg = {
            "dim": 2,
            "drift": [[[ [0, 1], 1.0 ]], None],
            "diffusion": [
                [[[[0, 0], 1.0]], [[[0, 0], 0.25]]],
                [[[[0, 0], 0.25]], [[[0, 0], 2.0]]],
            ],
        }
        chars = characteristics_from_config(cfg, order=5)
        assert chars.dim == 2
        assert chars.drift[0].coefficient((0, 1)) == 1.0
        assert chars.diffusion[0][1].coefficient((0, 0)) == 0.25
        assert chars.kernel is None

    def test_default_intensity_is_one(self):
        cfg = {
            "dim": 1,
            "diffusion": [[0, 1.0]],
            "kernel": {"atoms": [{"weight": 2.0, "size": [[0, 0.1]]}]},
        }
        chars = characteristics_from_config(cfg, order=4)
        assert chars.kernel.intensity.coefficient((0,)) == 1.0

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda c: c.update(drfit=[[0, 0.1]]), "drfit"),
            (lambda c: c.update(dim=1.5), "model.dim"),
            (lambda c: c.update(dim=True), "model.dim"),
            (lambda c: c.update(dim=0), "model.dim"),
            (lambda c: c["kernel"].update(pole_ordr=1), "pole_ordr"),
            (lambda c: c["kernel"].update(pole_order=1.5), "pole_order"),
            (lambda c: c["kernel"].update(pole_order=True), "pole_order"),
            (lambda c: c.update(kernel=[1.0]), "model.kernel must be a mapping"),
            (lambda c: c["kernel"].update(atoms={"weight": 1.0, "size": [[0, 0.1]]}), "model.kernel.atoms"),
            (lambda c: c["kernel"]["atoms"].append([0.5]), "kernel atom 1 must be a mapping"),
            (lambda c: c["kernel"]["atoms"][0].update(wieght=2.0), "wieght"),
            (lambda c: c["kernel"]["atoms"][0].pop("weight"), "kernel atom 0 needs a 'weight'"),
            (lambda c: c["kernel"]["atoms"][0].pop("size"), "kernel atom 0 needs a 'size'"),
            (lambda c: c["kernel"]["atoms"][0].update(weight=float("nan")), "weight"),
            (lambda c: c["kernel"]["atoms"][0].update(weight=float("inf")), "weight"),
            (lambda c: c["kernel"]["atoms"][0].update(weight="1.0"), "kernel atom 0 weight"),
            (lambda c: c["kernel"]["atoms"][0].update(weight=True), "kernel atom 0 weight"),
            (lambda c: c.update(drift=[[[1.5], 0.1]]), "exponents"),
            (lambda c: c.update(drift=[[True, 0.1]]), "exponents"),
            (lambda c: c.update(drift=[[-1, 0.1]]), "exponents"),
            (lambda c: c.update(drift=[[1, "0.1"]]), "values"),
            (lambda c: c.update(drift=[0.5]), "series entry must be"),
        ],
    )
    def test_bad_keys_and_values_named(self, edit, key):
        cfg = {
            "drift": [[1, -0.5]],
            "diffusion": [[0, 0.3]],
            "kernel": {"intensity": [[0, 1.0]], "atoms": [{"weight": 1.0, "size": [[0, 0.4]]}]},
        }
        edit(cfg)
        with pytest.raises(ValueError, match=re.escape(key)):
            characteristics_from_config(cfg, order=4)
