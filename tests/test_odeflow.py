"""Sequence flows against closed forms: scalar IVPs for the integrators,
Gaussian/transport identities for the linear and quadratic flows."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoseq import series as ser
from holoseq.characteristics import Characteristics
from holoseq.models import build_preset
from holoseq.odeflow import (
    ExpectationResult,
    FlowBudgetError,
    LeadingCoefficientError,
    OdeConfig,
    StepSizeUnderflowError,
    affine_expectation,
    dopri5,
    flow_to_csv,
    holomorphic_expectation,
    riccati_from_linear,
    solve_linear,
    solve_riccati,
    tail_mass,
)

from test_characteristics import bm_chars, compound_poisson_chars, const

ODE_RTOL = 1e-9


def drift_chars(order):
    """Pure transport: b = 1, a = 0."""
    return Characteristics(1, (const(1, order, 1.0),), ((ser.zero(1, order),),), None)


class TestIntegrators:
    def test_dopri5_exponential_decay(self):
        ts, ys, stats = dopri5(lambda t, y: -y, 0.0, 1.0, np.array([1.0 + 0j]))
        assert abs(ys[-1][0] - math.exp(-1)) < 1e-9
        assert stats["accepted"] > 0 and stats["nfev"] > 6

    def test_dopri5_forced_oscillation(self):
        ts, ys, _ = dopri5(lambda t, y: np.array([math.cos(t)]), 0.0, 2.0, np.array([0.0]))
        assert abs(ys[-1][0] - math.sin(2.0)) < 1e-9

    def test_dopri5_returns_start_and_end(self):
        y0 = np.array([1.0])
        ts, ys, _ = dopri5(lambda t, y: -y, 0.25, 1.0, y0)
        np.testing.assert_array_equal(ts, [0.25, 1.0])
        assert len(ys) == 2
        np.testing.assert_array_equal(ys[0], y0)
        assert abs(ys[1][0] - math.exp(-0.75)) < 1e-9

    @pytest.mark.parametrize("t0,t1", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_dopri5_rejects_non_finite_times(self, t0, t1):
        # a non-finite time would leave the loop at once and return the start state
        with pytest.raises(ValueError, match="finite"):
            dopri5(lambda t, y: -y, t0, t1, np.array([1.0]))

    def test_dopri5_step_budget(self):
        with pytest.raises(FlowBudgetError):
            dopri5(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), rtol=1e-12, max_steps=2)

    def test_dopri5_underflow_at_blowup(self):
        # y' = y^2 from 1 explodes at t = 1; the controller must give up
        # before stepping past it, reporting where
        with pytest.raises(StepSizeUnderflowError) as exc:
            dopri5(lambda t, y: y * y, 0.0, 1.5, np.array([1.0]), max_steps=100_000)
        assert 0.9 < exc.value.time <= 1.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OdeConfig(rtol=0.0)
        with pytest.raises(ValueError):
            OdeConfig(first_step=-0.1)

    @pytest.mark.parametrize(
        "setting",
        [{"rtol": math.nan}, {"atol": math.inf}, {"first_step": math.nan}, {"max_steps": 2.5}, {"max_steps": True}],
    )
    def test_config_rejects_values_no_step_can_use(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            OdeConfig(**setting)


class TestLinearFlow:
    def test_bm_square_closed_form(self):
        # h = z^2 under unit BM: c(t) = (t, 0, 2, 0, ...)
        u0 = ser.from_entries(1, 8, [((2,), 2.0)])
        flow = solve_linear(bm_chars(), u0, 1.0)
        want = np.zeros(9)
        want[0], want[2] = 1.0, 2.0
        np.testing.assert_allclose(flow.final.coeffs.real, want, atol=1e-10)
        assert flow.times[0] == 0.0 and flow.times[-1] == 1.0

    def test_bm_quartic_moments(self):
        # E[(x + W_t)^4] = x^4 + 6 x^2 t + 3 t^2
        u0 = ser.from_entries(1, 8, [((4,), 24.0)])
        res = holomorphic_expectation(bm_chars(), u0, 1.0, 0.0)
        assert isinstance(res, ExpectationResult)
        assert abs(res.value.real - 3.0) < 1e-9
        at_x = holomorphic_expectation(bm_chars(), u0, 0.7, 0.5)
        want = 0.5**4 + 6 * 0.25 * 0.7 + 3 * 0.49
        assert abs(at_x.value.real - want) < 1e-9
        # polynomial payoff: flow stays polynomial, no mass in the top degrees
        assert at_x.tail < 1e-12


class TestSharedFlow:
    """The integration path the three solvers share: what it keeps, and
    where its step control lands on a fixed case."""

    @pytest.mark.parametrize("solve", [solve_linear, solve_riccati, riccati_from_linear])
    def test_flow_keeps_start_and_end_snapshot(self, solve):
        T = 0.7
        u0 = ser.from_entries(1, 6, [((0,), 0.3), ((1,), 0.4)])
        flow = solve(compound_poisson_chars(order=6), u0, T)
        np.testing.assert_array_equal(flow.times, [0.0, T])
        assert len(flow.series) == 2 and flow.final is flow.series[1]
        if solve is riccati_from_linear:
            # log* exp* u0 recovers u0 up to rounding
            np.testing.assert_allclose(flow.series[0].coeffs, u0.coeffs, atol=1e-13)
        else:
            np.testing.assert_array_equal(flow.series[0].coeffs, u0.coeffs)

    @pytest.mark.parametrize(
        "route,value,nfev",
        [
            ("linear", 0.35, 25),
            ("riccati", 1.7063862310814977, 25),
            ("log-linear", 1.7063862310169975, 37),
        ],
    )
    def test_compound_poisson_routes_pinned(self, route, value, nfev):
        # any change that moves the step control moves nfev
        chars = build_preset("compound-poisson", order=16)
        u0 = ser.from_entries(1, 16, [((1,), 0.7)])
        ode = OdeConfig(rtol=1e-10)
        if route == "linear":
            res = holomorphic_expectation(chars, u0, 0.5, 0.5, ode)
        else:
            res = affine_expectation(chars, u0, 0.5, 0.5, ode, route=route)
        assert res.value == pytest.approx(value, rel=1e-13, abs=0)
        assert res.flow.stats["nfev"] == nfev


class TestQuadraticFlow:
    def test_bm_linear_exponent_closed_form(self):
        # psi stays (tau^2 t / 2, tau, 0, ...); value is the lognormal mean
        tau, T, x0 = 0.8, 1.3, 0.4
        u0 = ser.from_entries(1, 10, [((1,), tau)])
        flow = solve_riccati(bm_chars(order=10), u0, T)
        want = np.zeros(11)
        want[0], want[1] = tau * tau * T / 2, tau
        np.testing.assert_allclose(flow.final.coeffs.real, want, atol=1e-10)
        res = affine_expectation(bm_chars(order=10), u0, T, x0)
        closed = math.exp(tau * x0 + tau * tau * T / 2)
        assert abs(res.value.real - closed) <= ODE_RTOL * closed

    def test_compound_poisson_linear_exponent(self):
        # exponent rate at tau = 1: 1/2 + 2 (cosh(1/2) - 1)
        u0 = ser.from_entries(1, 10, [((1,), 1.0)])
        flow = solve_riccati(compound_poisson_chars(order=10), u0, 1.0)
        rate = 0.7552519304127614
        assert abs(flow.final.coefficient((0,)) - rate) < 1e-12
        assert np.all(np.abs(flow.final.coeffs[2:]) < 1e-12)

    def test_bm_quadratic_exponent_closed_form(self):
        # h = theta x^2 + beta x under BM: the flow is exactly quadratic with
        # psi2 = theta/(1-2 theta t), psi1 = beta/(1-2 theta t),
        # psi0 = -log(1-2 theta t)/2 + beta^2 t/(2 (1-2 theta t))
        theta, beta, T = 0.1, 0.4, 0.5
        u0 = ser.from_entries(1, 12, [((1,), beta), ((2,), 2 * theta)])
        flow = solve_riccati(bm_chars(order=12), u0, T)
        s = 1 - 2 * theta * T
        want = np.zeros(13)
        want[0] = -0.5 * math.log(s) + beta * beta * T / (2 * s)
        want[1] = beta / s
        want[2] = 2 * theta / s
        np.testing.assert_allclose(flow.final.coeffs.real, want, atol=1e-9)
        # and the evaluated functional matches the Gaussian closed form
        for x0 in (-1.0, 0.0, 1.0):
            res = affine_expectation(bm_chars(order=12), u0, T, x0)
            p, q = theta * T, math.sqrt(T) * (2 * theta * x0 + beta)
            closed = math.exp(theta * x0**2 + beta * x0 + q * q / (2 * s)) / math.sqrt(s)
            assert abs(res.value.real - closed) <= 1e-8 * closed

    def test_log_linear_route_agrees(self):
        theta, beta, T = 0.1, 0.4, 0.5
        u0 = ser.from_entries(1, 24, [((1,), beta), ((2,), 2 * theta)])
        chars = bm_chars(order=24)
        direct = solve_riccati(chars, u0, T).final
        via_log = riccati_from_linear(chars, u0, T).final
        # truncation noise sits in raw top coefficients; the two routes agree
        # in the majorant metric (per-degree weight 1/alpha!) that evaluation sees
        weights = np.array([1 / math.factorial(k) for k in range(25)])
        np.testing.assert_allclose(
            via_log.coeffs * weights, direct.coeffs * weights, atol=1e-9
        )
        # exp(psi) evaluated == linear flow evaluated, both routes
        c_final = solve_linear(chars, ser.exp_star(u0), T).final
        for x0 in (-1.0, 0.0, 1.0):
            lhs = np.exp(ser.evaluate(via_log, x0))
            rhs = ser.evaluate(c_final, x0)
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_branch_tracking_beyond_principal_log(self):
        # transport with imaginary exponent: psi_0(T) = 2i T winds past pi;
        # the *-log route must unwrap it like the direct flow does
        T = 3.5
        u0 = ser.from_entries(1, 36, [((1,), 2.0j)])
        chars = drift_chars(order=36)
        direct = solve_riccati(chars, u0, T).final
        via_log = riccati_from_linear(chars, u0, T).final
        assert abs(direct.coefficient((0,)) - 7.0j) < 1e-8
        assert abs(via_log.coefficient((0,)) - 7.0j) < 1e-7
        wrapped = 7.0 - 2 * math.pi
        assert abs(via_log.coefficient((0,)).imag - wrapped) > 1.0

    def test_log_route_guards_vanishing_leading_coefficient(self):
        # rotate (c_0, c_1): c_0(t) = cos t - sin t hits 0 at pi/4, where the
        # branch ODE blows up; expect the guard or a step collapse, not junk
        def op(u):
            out = np.zeros_like(u.coeffs)
            out[0] = -u.coeffs[1]
            out[1] = u.coeffs[0]
            return ser.CoeffSeries(u.dim, u.order, out)

        u0 = ser.from_entries(1, 2, [((1,), 1.0), ((2,), -1.0)])
        with pytest.raises((LeadingCoefficientError, StepSizeUnderflowError)):
            riccati_from_linear(op, u0, 1.5)


class TestDiagnostics:
    def test_tail_mass_counts_top_degrees(self):
        u = ser.from_entries(1, 6, [((5,), 120.0), ((6,), 720.0), ((2,), 2.0)])
        # top two degrees at radius 1: 120/5! + 720/6! = 2
        assert abs(tail_mass(u, 1.0) - 2.0) < 1e-14
        assert abs(tail_mass(u, 0.5, top=1) - 720 * 0.5**6 / 720) < 1e-14

    @seed(20260814)
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.1, max_value=3.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_tail_mass_is_its_defining_sum(self, dim, order, top, radius, draw_seed):
        rng = np.random.default_rng(draw_seed)
        idx, _ = ser.index_table(dim, order)
        c = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        want = sum(
            abs(ck) * radius ** sum(a) / math.prod(math.factorial(k) for k in a)
            for a, ck in zip(idx, c)
            if sum(a) > order - top
        )
        got = tail_mass(ser.CoeffSeries(dim, order, c), radius, top)
        assert got == pytest.approx(want, rel=1e-12)

    def test_orders_beyond_float_factorials(self):
        # 171! overflows a float; the error weights and the tail never form it
        u0 = ser.from_entries(1, 171, [((2,), 2.0)])  # h(x) = x^2
        res = holomorphic_expectation(build_preset("compound-poisson", order=171), u0, 1.0, 0.0)
        assert abs(res.value - 1.5) < 1e-12

    def test_flow_csv_round_trip(self, tmp_path):
        u0 = ser.from_entries(1, 4, [((2,), 2.0)])
        flow = solve_linear(bm_chars(order=4), u0, 1.0)
        path = tmp_path / "flow.csv"
        flow_to_csv(flow, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t" and rows[0][1] == "re[0]" and rows[0][2] == "im[0]"
        # a header, then the rows for t = 0 and t = T
        assert len(rows) == 3
        got = np.array([[float(v) for v in row] for row in rows[1:]])
        np.testing.assert_array_equal(got[:, 0], [0.0, 1.0])
        # full-precision round trip of both snapshots
        np.testing.assert_array_equal(got[0, 1::2], u0.coeffs.real)
        np.testing.assert_array_equal(got[1, 1::2], flow.final.coeffs.real)
