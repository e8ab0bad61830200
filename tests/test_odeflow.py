"""Sequence flows against closed forms: scalar IVPs for the integrators,
Gaussian/transport identities for the linear and quadratic flows."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

from holoseq import models, odeflow
from holoseq import series as ser
from holoseq.characteristics import Characteristics, JumpAtom, JumpKernel
from holoseq.generator import apply_l_composition, apply_r, l_matrix, l_norm, linear_closes, riccati_closes
from holoseq.models import UnitIntervalModel, build_preset
from holoseq.odeflow import (
    ExpectationResult,
    FlowBudgetError,
    LeadingCoefficientError,
    OdeConfig,
    StepSizeUnderflowError,
    _taylor_action,
    _taylor_plan,
    affine_expectation,
    dopri5,
    expm,
    expm_action,
    flow_to_csv,
    holomorphic_expectation,
    riccati_from_linear,
    solve_linear,
    solve_riccati,
)

from oracles import AFFINE_LINEAR_JUMPS, AffineSpec, affine_mgf, ode_flow
from test_characteristics import bm_chars, compound_poisson_chars, const, unit_interval_chars
from test_generator import affine_models, dense_series, nd_affine_chars, polynomial_models

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
            dopri5(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), OdeConfig(rtol=1e-12, max_steps=2))

    def test_dopri5_underflow_at_blowup(self):
        # y' = y^2 from 1 explodes at t = 1; the controller must give up
        # before stepping past it, reporting where
        with pytest.raises(StepSizeUnderflowError) as exc:
            dopri5(lambda t, y: y * y, 0.0, 1.5, np.array([1.0]), OdeConfig(max_steps=100_000))
        assert 0.9 < exc.value.time <= 1.05

    def test_pair_matches_the_published_table(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        np.testing.assert_array_equal(odeflow._C, ref.C[: ref.N_STAGES])
        np.testing.assert_array_equal(odeflow._A, ref.A[: ref.N_STAGES, : ref.N_STAGES])
        np.testing.assert_array_equal(odeflow._B, ref.B)
        np.testing.assert_array_equal(odeflow._E, [ref.E5[:-1], ref.E3[:-1]])
        # f at the new point enters neither error estimate
        assert ref.E5[-1] == ref.E3[-1] == 0.0
        # each stage's weights sum to its node, and the solution's to one
        np.testing.assert_allclose(odeflow._A.sum(axis=1), odeflow._C, rtol=0, atol=1e-15)
        assert odeflow._B.sum() == pytest.approx(1.0, abs=1e-15)

    def test_fixed_steps_converge_at_order_eight(self):
        # the two-state chain's linear flow at 2, 4 and 8 fixed steps over
        # [0, 2]: each halving of h cuts the error by about 2^8
        q = models.build_preset("two-state-affine").generator_matrix
        u1, u2, T = 0.3, -0.4, 2.0
        want = models.two_state_closed_form(*models.TWO_STATE_RATES, u1, u2, T)
        errors = []
        for m in (2, 4, 8):
            y, h = np.exp([u1, u2]), T / m
            k = np.empty((12, 2))
            for i in range(m):
                k[0] = q @ y
                y = odeflow._step(lambda t, v: q @ v, i * h, y, h, k)
            errors.append(np.abs(y - want).max())
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert errors[-1] > 1e-13  # still far above rounding
        np.testing.assert_allclose(orders, 8.0, atol=0.3)

    def test_stiff_decay_does_not_grow_after_a_rejection(self, monkeypatch):
        # y' = -500 y is stable only for steps near 1/100: the controller
        # keeps hitting that edge, and after an accepted retry the next step
        # must not grow past the retry
        attempts = []
        step = odeflow._step

        def recorded(rhs, t, y, h, k):
            attempts.append((t, h))
            return step(rhs, t, y, h, k)

        monkeypatch.setattr(odeflow, "_step", recorded)
        _, ys, stats = dopri5(lambda t, y: -500.0 * y, 0.0, 1.0, np.array([1.0]))
        assert abs(ys[1][0] - math.exp(-500.0)) < 1e-12
        assert stats["rejected"] > 0 and len(attempts) == stats["accepted"] + stats["rejected"]
        # attempt i was rejected when attempt i + 1 starts at the same time
        retries = [
            i + 1 for i in range(len(attempts) - 2)
            if attempts[i + 1][0] == attempts[i][0] < attempts[i + 2][0]
        ]
        assert retries
        for i in retries:
            assert attempts[i + 1][1] <= attempts[i][1] <= attempts[i - 1][1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OdeConfig(rtol=0.0)
        with pytest.raises(ValueError):
            OdeConfig(first_step=-0.1)

    @pytest.mark.parametrize(
        "setting",
        [{"rtol": math.nan}, {"atol": math.inf}, {"first_step": math.nan}, {"max_steps": 2.5}, {"max_steps": True},
         {"rtol": True}, {"first_step": True}],
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


def exp_payoff(dim, order, tau):
    """exp(tau . x) truncated at ``order``: coefficient tau^alpha at alpha."""
    tau = np.asarray(tau, dtype=float)
    return ser.CoeffSeries(dim, order, np.array([np.prod(tau ** np.array(a)) for a in ser.index_table(dim, order)[0]]))


def callable_l(chars):
    """The same L as a callable operator, for the reference ``ode_flow``."""
    return lambda u: apply_l_composition(u, chars)


TIGHT = OdeConfig(rtol=1e-13, atol=1e-16)
REF = OdeConfig(rtol=1e-11, atol=1e-13)


class TestExponentialAction:
    """On Characteristics the linear flow is exp(T L) u0, by a Taylor action
    or the dense Pade exponential, whichever the cost rule picks."""

    SPECS = {
        "bm": AffineSpec(a0=1.0),
        "compound-poisson": AffineSpec(a0=1.0, l0=1.0, atoms=((1.0, 0.5), (1.0, -0.5))),
        "affine-linear-jumps": AFFINE_LINEAR_JUMPS,
    }

    @pytest.mark.parametrize("order", [24, 32])
    @pytest.mark.parametrize("preset", list(SPECS))
    def test_affine_closed_forms(self, preset, order):
        chars = build_preset(preset, order=order)
        u0 = exp_payoff(1, order, [0.6])
        for x0 in (-0.4, 0.3):
            res = holomorphic_expectation(chars, u0, 1.0, x0)
            want = affine_mgf(self.SPECS[preset], 0.6, 1.0, x0)
            assert abs(res.value - want) <= 1e-13 * want
        assert res.flow.stats["method"] == "taylor" and res.flow.stats["order"] == order

    @pytest.mark.parametrize(
        "dim,order,tau,matvecs",
        [(2, 10, (0.5, -0.4), 23), (2, 12, (-0.45, 0.35), 24), (3, 7, (0.7, -0.5, 0.4), 23)],
    )
    def test_flow_nd_against_tight_ode_and_scipy(self, dim, order, tau, matvecs):
        # the three models of the flow-nd benchmark, with its payoff and
        # horizon; one Taylor step, stopped early a few terms before its
        # degree m = 27, 29 and 25
        chars = nd_affine_chars(dim, order)
        u0 = exp_payoff(dim, order, tau)
        flow = solve_linear(chars, u0, 0.5)
        assert flow.stats == {"method": "taylor", "matvecs": matvecs, "s": 1, "order": order}
        ode = ode_flow(callable_l(chars), u0, 0.5, TIGHT).final.coeffs
        exact = expm_multiply(0.5 * l_matrix(chars), u0.coeffs)
        for want in (ode, exact):
            assert np.abs(flow.final.coeffs - want).max() <= 1e-12 * np.abs(want).max()

    def test_unit_interval_against_dual_chain(self):
        # E[e^(X_T)] with the truncated e^x: truncation sets the error, from
        # about 6e-5 at N = 8 down to the dual chain's own rounding (about
        # 5e-13 at k_max = 60) by N = 32; the action keeps the ODE's digits
        T, x0 = 0.5, 0.5
        want = UnitIntervalModel(k_max=60).dual_expectation(T).evaluate(x0)
        errs = []
        for order in range(8, 49, 8):
            chars = unit_interval_chars(order)
            u0 = exp_payoff(1, order, [1.0])
            res = holomorphic_expectation(chars, u0, T, x0)
            ode = ser.evaluate(ode_flow(callable_l(chars), u0, T, REF).final, x0)
            err, ode_err = (abs(v - want) / want for v in (res.value, ode))
            assert res.flow.stats["method"] == "pade"
            assert err <= ode_err + 5e-13, order
            errs.append(err)
        assert errs[0] > 1e-5 and max(errs[3:]) < 1e-12

    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_callable_ode_path(self, data):
        dim, order, kind = data.draw(
            st.sampled_from([(1, 8, "affine"), (1, 8, "polynomial"), (1, 8, "pole"), (2, 5, "affine"),
                             (2, 5, "polynomial"), (3, 4, "affine"), (3, 4, "polynomial")])
        )
        if kind == "affine":
            chars = data.draw(affine_models(dim, order))
        else:
            chars = data.draw(polynomial_models(dim, order, pole=kind == "pole"))
        u0 = data.draw(dense_series(dim, order))
        flow = solve_linear(chars, u0, 0.25)
        ode = ode_flow(callable_l(chars), u0, 0.25, REF).final.coeffs
        # compared as the flows' error norm weighs them: coefficient alpha by 1/alpha!
        w = ser.taylor_weights(dim, order)
        scale = max(1.0, float(np.abs(ode * w).max()))
        assert np.abs((flow.final.coeffs - ode) * w).max() <= 1e-8 * scale

    @pytest.mark.parametrize(
        "make,method",
        [(lambda: nd_affine_chars(3, 7), "taylor"), (lambda: unit_interval_chars(16), "pade")],
        ids=["flow-nd-d3", "unit-interval-16"],
    )
    def test_taylor_and_pade_kernels_agree_across_the_cost_rule(self, make, method):
        a, t = l_matrix(make()), 0.5
        v = np.random.default_rng(7).standard_normal(a.shape[0]) + 0j
        got, stats = expm_action(a, t, v)
        assert stats["method"] == method
        taylor, taylor_stats = _taylor_action(a, t, v, *_taylor_plan(t * np.linalg.norm(a, 1)))
        dense = expm(t * a) @ v
        want = expm_multiply(t * a, v)
        for c in (got, taylor, dense):
            assert np.abs(c - want).max() <= 1e-12 * np.abs(want).max()
        # the rule's side: the Taylor products against the dense estimate (4 + q) n
        squarings = odeflow._squarings(t * np.linalg.norm(a, 1))
        assert (taylor_stats["matvecs"] < (4 + squarings) * len(v)) == (method == "taylor")

    def test_norm_is_kept_with_the_matrix(self, monkeypatch):
        chars = nd_affine_chars(2, 6)
        u0 = exp_payoff(2, 6, (0.5, -0.4))
        first = solve_linear(chars, u0, 0.5)
        assert chars._l_norm == np.linalg.norm(chars._l_matrix, 1)
        a, v = l_matrix(chars), u0.coeffs
        got, want = expm_action(a, 0.5, v, l_norm(chars)), expm_action(a, 0.5, v)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        # a second flow on the model computes no norm
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *args, **kw: calls.append(args) or norm(*args, **kw))
        second = solve_linear(chars, u0, 0.5)
        assert calls == []
        np.testing.assert_array_equal(first.final.coeffs, second.final.coeffs)
        assert first.stats == second.stats

    def test_zero_horizon_is_the_identity(self):
        chars = nd_affine_chars(2, 6)
        u0 = exp_payoff(2, 6, (0.5, -0.4))
        flow = solve_linear(chars, u0, 0.0)
        np.testing.assert_array_equal(flow.final.coeffs, u0.coeffs)
        assert flow.stats == {"method": "taylor", "matvecs": 0, "s": 1, "order": 6}

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
    def test_horizon_must_be_finite_and_forward(self, t):
        with pytest.raises(ValueError, match="horizon"):
            expm_action(np.eye(2), t, np.ones(2))

    @pytest.mark.parametrize(
        "a,t,method",
        [
            (np.diag([0.0, 1.0]), 1000.0, "pade"),
            # n = 400 makes the Taylor action the cheaper estimate
            (2.4 * np.eye(400), 400.0, "taylor"),
        ],
        ids=["pade", "taylor"],
    )
    def test_non_finite_result_fails_loudly(self, a, t, method):
        with pytest.raises(FlowBudgetError, match=rf"\({method}\): \|\|T L\|\|_1 = "):
            expm_action(a, t, np.ones(len(a)))

    def test_non_finite_norm_fails_loudly(self):
        with pytest.raises(FlowBudgetError, match=r"\|\|T L\|\|_1 = inf"):
            expm_action(np.array([[10.0]]), 1e308, np.ones(1))

    def test_one_expm_for_engine_and_oracles(self):
        assert models.expm is odeflow.expm


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
        # the start snapshot is the payoff itself, on every route
        assert flow.series[0] is u0

    @pytest.mark.parametrize(
        "route,value,nfev",
        [
            ("riccati", 1.7063862310814977, 48),
            ("log-linear", 1.7063862310169975, 36),
        ],
    )
    def test_compound_poisson_routes_pinned(self, route, value, nfev):
        # any change that moves the step control moves nfev
        chars = build_preset("compound-poisson", order=16)
        u0 = ser.from_entries(1, 16, [((1,), 0.7)])
        res = affine_expectation(chars, u0, 0.5, 0.5, OdeConfig(rtol=1e-10), route=route)
        assert res.value == pytest.approx(value, rel=1e-13, abs=0)
        assert res.flow.stats["nfev"] == nfev
        # the payoff is linear and the model affine: riccati closes at degree
        # one, and log-linear flows the full series exp*(u0)
        assert res.flow.stats["order"] == (16 if route == "log-linear" else 1)

    def test_compound_poisson_linear_action_pinned(self):
        # the linear route closes at degree one, where the compensated
        # martingale's L is zero: the action is u0 itself, with no product
        chars = build_preset("compound-poisson", order=16)
        u0 = ser.from_entries(1, 16, [((1,), 0.7)])
        res = holomorphic_expectation(chars, u0, 0.5, 0.5, OdeConfig(rtol=1e-10))
        assert res.value == pytest.approx(0.35, rel=1e-13, abs=0)
        assert res.flow.stats == {"method": "taylor", "matvecs": 0, "s": 1, "order": 1}


ROUTES = [
    (solve_linear, apply_l_composition, lambda chars, d: linear_closes(chars)),
    (solve_riccati, apply_r, riccati_closes),
]


def run_flow(solve, chars, u0, T, ode):
    """``solve`` of u0 over [0, T], under ``ode`` where it integrates: the
    linear flow is an exponential action and takes no ODE settings."""
    return solve(chars, u0, T) if solve is solve_linear else solve(chars, u0, T, ode)


# coefficients and atom weights of at least 0.1, so that a term the rule
# wrongly lets through is large enough to show in the full-order flow
sizable = st.one_of(st.floats(-1.0, -0.1), st.floats(0.1, 1.0))


@st.composite
def closure_cases(draw, dim, order):
    """A model from ``affine_models`` or ``polynomial_models`` with its drift
    cut to degree one half the time, its diffusion and intensity cut to
    degree 0, 1 or 2, and its atoms kept, cut to constant sizes or dropped;
    and a payoff of degree one or two. The cuts reach both sides of each
    closure rule."""
    models = st.one_of(affine_models(dim, order, floats=sizable), polynomial_models(dim, order, floats=sizable))
    chars = draw(models)
    cut = lambda s, deg: ser.with_order(ser.with_order(s, deg), order)  # noqa: E731
    drift_deg, diffusion_deg = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    drift = tuple(cut(s, drift_deg) for s in chars.drift)
    diffusion = tuple(tuple(cut(s, diffusion_deg) for s in row) for row in chars.diffusion)
    k, jumps = chars.kernel, draw(st.sampled_from(["kept", "constant", "none"]))
    size_deg = 0 if jumps == "constant" else order
    atoms = tuple(JumpAtom(draw(st.floats(0.1, 1.0)), tuple(cut(s, size_deg) for s in a.size)) for a in k.atoms)
    k = JumpKernel(cut(k.intensity, draw(st.integers(0, 2))), atoms, k.pole_order)
    chars = Characteristics(dim, drift, diffusion, None if jumps == "none" else k)
    low = [a for a in ser.index_table(dim, order)[0] if sum(a) <= draw(st.integers(1, 2))]
    c = draw(st.lists(sizable, min_size=len(low), max_size=len(low)))
    return chars, ser.from_entries(dim, order, zip(low, c))


def check_closed_routes(chars, u0):
    """Run each route whose rule declares closure both at the closed order
    and as the full-order ``ode_flow`` of its operator, and compare; return
    which routes closed."""
    ode = OdeConfig(rtol=1e-10, atol=1e-12)
    d = max(ser.degree(u0), 1)
    above = ser._degrees(chars.dim, chars.order) > d
    closed = tuple(closes(chars, d) for _, _, closes in ROUTES)
    for (solve, apply, _), yes in zip(ROUTES, closed):
        if not yes:
            continue
        flow = run_flow(solve, chars, u0, 0.25, ode)
        full = ode_flow(lambda u, apply=apply: apply(u, chars), u0, 0.25, ode)
        assert flow.stats["order"] == d and full.stats["order"] == chars.order
        assert flow.final.order == chars.order and not flow.final.coeffs[above].any()
        # the full-order flow keeps what the rule declared
        assert np.abs(full.final.coeffs[above]).max() <= 1e-8
        scale = max(1.0, np.abs(full.final.coeffs).max())
        assert np.abs(flow.final.coeffs - full.final.coeffs).max() <= 1e-8 * scale
    return closed


def poly_chars(order, drift, diffusion, intensity, sizes):
    """A dimension-one model from coefficient lists: unit-weight atoms of the
    given sizes under ``intensity``, or no kernel when it is None."""
    poly = lambda c: ser.CoeffSeries(1, order, np.pad(c, (0, order + 1 - len(c))))  # noqa: E731
    kernel = None if intensity is None else JumpKernel(poly(intensity), tuple(JumpAtom(1.0, (poly(s),)) for s in sizes), 0)
    return Characteristics(1, (poly(drift),), ((poly(diffusion),),), kernel)


class TestClosure:
    """A flow runs at the degree its system closes at, and equals the
    full-order reference flow there."""

    @seed(20261019)
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(1, 8), (2, 5), (3, 4)]).flatmap(lambda shape: closure_cases(*shape)))
    def test_closed_flow_matches_full_order(self, case):
        check_closed_routes(*case)

    @pytest.mark.parametrize(
        "drift,diffusion,intensity,sizes,u0,closed",
        [
            # degree-2 diffusion: L closes, R does not
            ([0.2, -0.5], [0.3, 0.2, 0.4], None, (), [0.1, 0.3, 0.2], (True, False)),
            # constant jumps under a degree-2 intensity: L closes; R needs intensity <= 1
            ([0.0, -0.5], [0.4], [1.0, 0.3, 0.2], ([0.2],), [0.0, 0.7], (True, False)),
            ([0.0, -0.5], [0.4], [1.0, 0.3, 0.2], ([0.2],), [0.0, 0.3, 0.2], (True, False)),
            # an affine jump size under a constant intensity: L closes, R does not
            ([0.0, -0.5], [0.4], [1.0], ([0.2, 0.1],), [0.0, 0.7], (True, False)),
            # an affine jump size under an affine intensity: neither closes
            ([0.0, -0.5], [0.4], [1.0, 0.3], ([0.2, 0.1],), [0.0, 0.7], (False, False)),
            # constant diffusion, no jumps: R closes at degree two
            ([0.1, -0.5], [0.4], None, (), [0.1, 0.3, 0.2], (True, True)),
            # constant jumps under an affine intensity, affine diffusion: R closes
            # at degree one, and at degree two neither the jumps nor the diffusion allow it
            ([0.1, -0.5], [0.3, 0.2], [1.0, 0.3], ([0.2], [-0.1]), [0.0, 0.7], (True, True)),
            ([0.1, -0.5], [0.4], [1.0, 0.3], ([0.2], [-0.1]), [0.0, 0.3, 0.2], (True, False)),
        ],
        ids=[
            "quadratic-diffusion",
            "constant-jumps-quadratic-intensity-d1",
            "constant-jumps-quadratic-intensity-d2",
            "affine-size-constant-intensity",
            "affine-size-affine-intensity",
            "constant-diffusion-d2",
            "affine-jumps-d1",
            "affine-jumps-d2",
        ],
    )
    def test_rule_edges_match_full_order(self, drift, diffusion, intensity, sizes, u0, closed):
        chars = poly_chars(8, drift, diffusion, intensity, sizes)
        assert check_closed_routes(chars, ser.CoeffSeries(1, 8, np.pad(u0, (0, 9 - len(u0))))) == closed

    def test_flow_nd_riccati_runs_at_degree_one(self):
        chars = nd_affine_chars(2, 12)
        u0 = ser.from_entries(2, 12, [((1, 0), 0.5), ((0, 1), -0.4)])
        flow = solve_riccati(chars, u0, 0.5)
        assert flow.stats["order"] == 1 and flow.final.order == 12
        np.testing.assert_array_equal(flow.series[0].coeffs, u0.coeffs)
        assert not flow.final.coeffs[3:].any()
        # the truncated model is built and compiled once, on the parent
        again = solve_riccati(chars, u0, 0.5)
        assert chars.truncated(1) is chars._truncations[1] and chars._l_matrix is None
        np.testing.assert_array_equal(again.final.coeffs, flow.final.coeffs)

    @pytest.mark.parametrize(
        "make,solve,u0",
        [
            (lambda: unit_interval_chars(order=8), solve_linear, [((1,), 1.0)]),
            (lambda: unit_interval_chars(order=8), solve_riccati, [((1,), 1.0)]),
            # jump size 0.2 + 0.1 x under a constant intensity: L closes, R does not
            (lambda: state_dependent_jump_chars(8), solve_riccati, [((1,), 0.3)]),
            (lambda: compound_poisson_chars(order=8), solve_riccati, [((2,), 0.2)]),
            # diffusion 0.3 + 0.2 x: L closes, R does not at degree two
            (lambda: affine_diffusion_chars(8), solve_riccati, [((1,), 0.1), ((2,), 0.2)]),
        ],
        ids=["unit-interval-linear", "unit-interval-riccati", "state-jump-riccati", "quadratic-jumps-riccati", "quadratic-affine-diffusion-riccati"],
    )
    def test_never_closes(self, make, solve, u0):
        chars = make()
        flow = solve(chars, ser.from_entries(1, 8, u0), 0.1)
        assert flow.stats["order"] == 8

    def test_linear_closes_where_riccati_does_not(self):
        for chars in (state_dependent_jump_chars(8), affine_diffusion_chars(8), compound_poisson_chars(order=8)):
            assert linear_closes(chars) and not riccati_closes(chars, 2)
        assert not linear_closes(unit_interval_chars(order=8))


def state_dependent_jump_chars(order):
    """b = -0.5 x, a = 0.4, one unit-rate atom of size 0.2 + 0.1 x."""
    size = ser.from_entries(1, order, [((0,), 0.2), ((1,), 0.1)])
    kernel = JumpKernel(const(1, order, 1.0), (JumpAtom(1.0, (size,)),), 0)
    return Characteristics(1, (ser.from_entries(1, order, [((1,), -0.5)]),), ((const(1, order, 0.4),),), kernel)


def affine_diffusion_chars(order):
    """b = 0.1 - 0.3 x, a = 0.3 + 0.2 x, no jumps."""
    b = ser.from_entries(1, order, [((0,), 0.1), ((1,), -0.3)])
    a = ser.from_entries(1, order, [((0,), 0.3), ((1,), 0.2)])
    return Characteristics(1, (b,), ((a,),), None)


class TestModelOrder:
    """A flow cuts Characteristics of a higher order to its payoff's order:
    the result is the flow on the model built at that order."""

    @pytest.mark.parametrize("solve", [solve_linear, solve_riccati, riccati_from_linear])
    @pytest.mark.parametrize(
        "make,u0",
        [
            (compound_poisson_chars, [((1,), 0.4), ((2,), 0.3)]),
            (unit_interval_chars, [((1,), 0.5)]),
            (state_dependent_jump_chars, [((1,), 0.3)]),
            (lambda order: nd_affine_chars(2, order), [((1, 0), 0.5), ((0, 1), -0.4)]),
            (lambda order: nd_affine_chars(2, order), [((2, 0), 0.2), ((0, 1), -0.4)]),
        ],
        ids=["compound-poisson", "unit-interval-pole", "state-jump", "nd-affine-d1", "nd-affine-d2"],
    )
    def test_higher_order_model_equals_rebuilt(self, make, u0, solve):
        dim = len(u0[0][0])
        u = ser.from_entries(dim, 6, u0)
        ode = OdeConfig(rtol=1e-10)
        cut = run_flow(solve, make(11), u, 0.3, ode)
        rebuilt = run_flow(solve, make(6), u, 0.3, ode)
        np.testing.assert_array_equal(cut.final.coeffs, rebuilt.final.coeffs)
        assert cut.stats == rebuilt.stats

    @pytest.mark.parametrize("solve", [solve_linear, solve_riccati, riccati_from_linear])
    @pytest.mark.parametrize(
        "chars,shape",
        [(compound_poisson_chars(order=5), "dim=1 order=5"), (nd_affine_chars(2, 8), "dim=2 order=8")],
        ids=["lower-order", "other-dim"],
    )
    def test_lower_order_or_other_dim_raises(self, chars, shape, solve):
        u0 = ser.from_entries(1, 6, [((1,), 0.4)])
        with pytest.raises(ValueError, match=f"{shape}.*dim=1 order=6"):
            solve(chars, u0, 0.3)

    def test_each_order_built_and_compiled_once(self):
        chars = nd_affine_chars(2, 10)
        assert chars.truncated(7).truncated(1) is chars.truncated(1)
        assert chars.truncated(7).truncated(7) is chars.truncated(7)
        u0 = ser.from_entries(2, 7, [((1, 0), 0.5), ((0, 1), -0.4)])
        # the order-7 cut closes at degree one, which the root keeps
        flow = solve_riccati(chars, u0, 0.3)
        assert flow.stats["order"] == 1 and set(chars._truncations) == {1, 7}
        assert not chars._truncations[7]._truncations
        compiled = chars.truncated(1)._l_matrix
        assert compiled is not None
        solve_riccati(chars.truncated(7), u0, 0.3)
        assert chars.truncated(1)._l_matrix is compiled
        # the log-linear route never closes, so it runs on the order-7 cut itself
        riccati_from_linear(chars, u0, 0.3)
        assert chars.truncated(7)._l_matrix is not None and chars._l_matrix is None


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
        # transport at order one from exp*(-x) = (1, -1): c_0(t) = 1 - t hits
        # 0 at t = 1, where the branch ODE blows up; expect the guard, not junk
        u0 = ser.from_entries(1, 1, [((1,), -1.0)])
        with pytest.raises(LeadingCoefficientError):
            riccati_from_linear(drift_chars(order=1), u0, 1.5)


class TestDiagnostics:
    def test_orders_beyond_float_factorials(self):
        # 171! overflows a float; the error weights and the evaluation never form it
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
