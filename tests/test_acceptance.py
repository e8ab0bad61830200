"""Shipped-guarantee gate: one test per headline claim, one pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every test
asserts the stated tolerance and its runtime budget; Monte Carlo cases use
frozen seeds whose z-scores were checked to sit well inside three standard
errors.
"""

import math
import time

import numpy as np

from holoseq import series as ser
from holoseq.generator import apply_l_composition, apply_r
from holoseq.models import (
    TWO_STATE_RATES,
    FiniteChain,
    UnitIntervalModel,
    build_preset,
    chain_affine_flow,
    chain_expectation,
    chain_riccati_rhs,
    two_state_closed_form,
)
from holoseq.montecarlo import McConfig, martingale_audit, simulate_expectation
from holoseq.odeflow import (
    OdeConfig,
    affine_expectation,
    holomorphic_expectation,
    riccati_from_linear,
    solve_linear,
    solve_riccati,
)

from oracles import AFFINE_LINEAR_JUMPS, affine_transform, pointwise_generator

TIGHT = OdeConfig(rtol=1e-12, atol=1e-14)
REF = OdeConfig(rtol=1e-11, atol=1e-13)

# compensated exponent of unit diffusion plus rate-1 jumps of size +-1/2 at
# tau = 1: 1/2 + 2 (cosh(1/2) - 1)
LEVY_EXPONENT_AT_ONE = 0.7552519304127614


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def monomial(order: int, degree: int) -> ser.CoeffSeries:
    # z^k has derivative-convention coefficient k! at index k
    return ser.from_entries(1, order, [((degree,), float(math.factorial(degree)))])


def test_gaussian_moments():
    t0 = time.perf_counter()
    bm = build_preset("bm", order=8)
    errs = []
    for degree, exact in ((2, 1.0), (4, 3.0)):
        res = holomorphic_expectation(bm, monomial(8, degree), 1.0, 0.0, TIGHT)
        errs.append(abs(res.value - exact))
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 1e-9 and elapsed < 1.0
    report(
        "gaussian-moments",
        ok,
        f"|E[X^2]-1| = {errs[0]:.2e}, |E[X^4]-3| = {errs[1]:.2e} (tol 1e-9, {elapsed:.2f}s < 1s)",
    )


def test_levy_exponent_convergence():
    t0 = time.perf_counter()
    exact = math.exp(LEVY_EXPONENT_AT_ONE)
    errs = []
    for n in (10, 20, 30, 40):
        chars = build_preset("compound-poisson", order=n)
        u0 = ser.from_entries(1, n, [((1,), 1.0)])
        flow = riccati_from_linear(chars, u0, 1.0, REF)
        val = np.exp(ser.evaluate(flow.final, 0.0))
        errs.append(abs(val - exact) / exact)
    # same payoff through the direct quadratic flow; exact at any order here
    chars = build_preset("compound-poisson", order=40)
    u0 = ser.from_entries(1, 40, [((1,), 1.0)])
    direct = np.exp(ser.evaluate(solve_riccati(chars, u0, 1.0, REF).final, 0.0))
    direct_err = abs(direct - exact) / exact
    elapsed = time.perf_counter() - t0
    monotone = all(errs[i + 1] <= 1.1 * errs[i] + 1e-12 for i in range(3))
    ok = errs[-1] <= 1e-6 and direct_err <= 1e-6 and monotone and elapsed < 10.0
    report(
        "levy-exponent-convergence",
        ok,
        f"rel errs N=10..40 {['%.1e' % e for e in errs]} (tol 1e-6, monotone={monotone}), "
        f"direct route {direct_err:.1e}, {elapsed:.2f}s < 10s",
    )


def test_chain_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(3):
        chain = FiniteChain(rng.uniform(0.0, 2.0, (4, 4)))
        h = rng.uniform(-1.0, 1.0, 4)
        a = chain_expectation(chain, h, 1.0, route="ode")
        b = chain_expectation(chain, h, 1.0, route="expm")
        worst = max(worst, float(np.max(np.abs(a - b))))
    two = FiniteChain(np.array([[0.0, TWO_STATE_RATES[0]], [TWO_STATE_RATES[1], 0.0]]))
    u = np.array([0.3, -0.2])
    worst2 = 0.0
    for t in (0.5, 1.0):
        flow = np.exp(chain_affine_flow(two, u, t, route="riccati"))
        closed = two_state_closed_form(TWO_STATE_RATES[0], TWO_STATE_RATES[1], u[0], u[1], t)
        worst2 = max(worst2, float(np.max(np.abs(flow - closed))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and worst2 <= 1e-8 and elapsed < 1.0
    report(
        "chain-duality",
        ok,
        f"ode-vs-expm {worst:.2e}, two-state closed form {worst2:.2e} "
        f"(tol 1e-8, {elapsed:.2f}s < 1s)",
    )


def test_quadratic_route_equivalence():
    t0 = time.perf_counter()
    order, T = 28, 0.5
    weights = np.array([1.0 / math.factorial(k) for k in range(order + 1)])
    details = []
    ok = True
    for preset in ("bm", "compound-poisson"):
        chars = build_preset(preset, order=order)
        u0 = ser.from_entries(1, order, [((1,), 0.3), ((2,), 0.2)])
        psi_direct = solve_riccati(chars, u0, T, REF).final
        psi_log = riccati_from_linear(chars, u0, T, REF).final
        # compare as evaluable series on the unit disk: degree-k coefficient
        # noise only matters damped by 1/k!
        coeff_diff = float(np.max(np.abs(psi_direct.coeffs - psi_log.coeffs) * weights))
        c = solve_linear(chars, ser.exp_star(u0), T).final
        rel = 0.0
        for x in (-1.0, 0.0, 1.0):
            cv = ser.evaluate(c, x)
            rel = max(rel, abs(np.exp(ser.evaluate(psi_direct, x)) - cv) / abs(cv))
        ok = ok and coeff_diff <= 1e-6 and rel <= 1e-8
        details.append(f"{preset}: coeffs {coeff_diff:.1e}, eval {rel:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(
        "quadratic-route-equivalence",
        ok,
        "; ".join(details) + f" (tols 1e-6/1e-8, {elapsed:.2f}s < 10s)",
    )


def test_interval_dual_vs_monte_carlo():
    t0 = time.perf_counter()
    dual = UnitIntervalModel(k_max=200).dual_expectation(0.5)
    ref = float(dual.evaluate(0.5))
    chars = build_preset("unit-interval", order=12)
    est = simulate_expectation(
        chars,
        np.exp,
        0.5,
        0.5,
        McConfig(paths=100_000, dt=1e-3, seed=10, absorb_delta=1e-6, state_box=(0.0, 1.0)),
    )
    elapsed = time.perf_counter() - t0
    gap = abs(est.mean - ref)
    ok = est.within(ref, 3.0) and est.stderr <= 2e-3 and elapsed < 120.0
    report(
        "interval-dual-vs-monte-carlo",
        ok,
        f"dual {ref:.6f} vs mc {est.mean:.6f}, gap {gap:.2e} <= 3 x {est.stderr:.2e}, "
        f"absorbed {est.absorbed} ({elapsed:.1f}s < 120s)",
    )


def test_generator_pointwise_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    grids = {
        "bm": np.linspace(-0.6, 0.6, 5),
        "compound-poisson": np.linspace(-0.6, 0.6, 5),
        "affine-linear-jumps": np.linspace(-0.6, 0.6, 5),
        "unit-interval": np.array([0.15, 0.3, 0.5, 0.7, 0.85]),
    }
    worst = 0.0
    for preset, grid in grids.items():
        chars = build_preset(preset, order=12)
        for _ in range(20):
            deg = int(rng.integers(1, 4))
            u = ser.from_entries(1, 12, [((k,), rng.uniform(-0.3, 0.3)) for k in range(deg + 1)])
            lu, ru = apply_l_composition(u, chars), apply_r(u, chars)
            hu = lambda x: ser.evaluate(u, x)
            for x in grid:
                x = float(x)
                ax = pointwise_generator(chars, hu, x)
                worst = max(worst, abs(ser.evaluate(lu, x) - ax) / max(1.0, abs(ax)))
                tilted = pointwise_generator(chars, lambda y: np.exp(hu(y)), x) * np.exp(-hu(x))
                worst = max(worst, abs(ser.evaluate(ru, x) - tilted) / max(1.0, abs(tilted)))
    # chain presets: the same two identities in matrix form
    worst_chain = 0.0
    for preset in ("finite-chain", "two-state-affine"):
        chain = build_preset(preset)
        q = chain.generator_matrix
        for _ in range(20):
            h = rng.uniform(-1.0, 1.0, chain.n_states)
            direct = np.sum(chain.rates * (h[None, :] - h[:, None]), axis=1)
            worst_chain = max(worst_chain, float(np.max(np.abs(q @ h - direct))))
            tilted = np.exp(-h) * (q @ np.exp(h))
            worst_chain = max(
                worst_chain, float(np.max(np.abs(chain_riccati_rhs(chain, h) - tilted)))
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and worst_chain <= 1e-12 and elapsed < 5.0
    report(
        "generator-pointwise-identities",
        ok,
        f"series presets worst rel {worst:.2e} (tol 1e-6), chains {worst_chain:.2e} "
        f"(tol 1e-12), {elapsed:.2f}s < 5s",
    )


def _random_series(rng, dim, order, max_degree, scale=1.0):
    idx, _ = ser.index_table(dim, order)
    entries = []
    for alpha in idx:
        if sum(alpha) <= max_degree:
            entries.append((alpha, scale * complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))))
    return ser.from_entries(dim, order, entries)


def test_series_algebra_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    cases = 200
    worst = {k: 0.0 for k in ("comm", "assoc", "leibniz", "exp-hom", "roundtrip", "compose", "eval-mul")}
    for i in range(cases):
        dim, order = (1, 8) if i % 2 == 0 else (2, 5)
        u = _random_series(rng, dim, order, order)
        v = _random_series(rng, dim, order, order)
        w = _random_series(rng, dim, order, order)

        d = np.max(np.abs(ser.mul(u, v).coeffs - ser.mul(v, u).coeffs))
        worst["comm"] = max(worst["comm"], float(d))

        d = np.max(np.abs(ser.mul(ser.mul(u, v), w).coeffs - ser.mul(u, ser.mul(v, w)).coeffs))
        worst["assoc"] = max(worst["assoc"], float(d))

        # product rule for the index-shift derivative, on degrees the shift keeps
        e0 = tuple([1] + [0] * (dim - 1))
        lhs = ser.shift(ser.mul(u, v), e0)
        rhs = ser.lin_comb((1.0, ser.mul(ser.shift(u, e0), v)), (1.0, ser.mul(u, ser.shift(v, e0))))
        degs = np.array([sum(a) for a in lhs.indices])
        d = np.max(np.abs((lhs.coeffs - rhs.coeffs)[degs <= order - 1]))
        worst["leibniz"] = max(worst["leibniz"], float(d))

        d = np.max(
            np.abs(
                ser.exp_star(ser.lin_comb((1.0, u), (1.0, v))).coeffs
                - ser.mul(ser.exp_star(u), ser.exp_star(v)).coeffs
            )
        )
        worst["exp-hom"] = max(worst["exp-hom"], float(d))

        d = np.max(np.abs(ser.log_star(ser.exp_star(u)).coeffs - u.coeffs))
        worst["roundtrip"] = max(worst["roundtrip"], float(d))

        # low-degree data so composition and products stay inside the order
        dim_c, order_c = (1, 12) if i % 2 == 0 else (2, 8)
        uc = _random_series(rng, dim_c, order_c, 3, scale=0.4)
        vecc = tuple(_random_series(rng, dim_c, order_c, 2, scale=0.3) for _ in range(dim_c))
        comp = ser.compose_shift(uc, vecc)
        for _ in range(3):
            x = rng.uniform(-0.5, 0.5, dim_c)
            shifted = x + np.array([ser.evaluate(s, x) for s in vecc])
            direct = ser.evaluate(uc, shifted)
            d = abs(ser.evaluate(comp, x) - direct) / max(1.0, abs(direct))
            worst["compose"] = max(worst["compose"], float(d))

        ue = _random_series(rng, dim_c, order_c, 3)
        ve = _random_series(rng, dim_c, order_c, 3)
        x = rng.uniform(-0.5, 0.5, dim_c)
        d = abs(
            ser.evaluate(ser.mul(ue, ve), x) - ser.evaluate(ue, x) * ser.evaluate(ve, x)
        ) / max(1.0, abs(ser.evaluate(ue, x) * ser.evaluate(ve, x)))
        worst["eval-mul"] = max(worst["eval-mul"], float(d))

    elapsed = time.perf_counter() - t0
    tols = {
        "comm": 1e-13,
        "assoc": 1e-10,
        "leibniz": 1e-10,
        "exp-hom": 1e-9,
        "roundtrip": 1e-9,
        "compose": 1e-9,
        "eval-mul": 1e-10,
    }
    bad = {k: v for k, v in worst.items() if v > tols[k]}
    ok = not bad and elapsed < 10.0
    report(
        "series-algebra-properties",
        ok,
        f"{cases} cases each, worst " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        + f" ({elapsed:.2f}s < 10s)",
    )


def test_martingale_audits():
    t0 = time.perf_counter()
    runs = [
        ("bm", build_preset("bm", order=8), lambda x: x**2, 0.0, 20, {}),
        ("compound-poisson", build_preset("compound-poisson", order=8),
         lambda x: np.exp(0.5 * x), 0.0, 21, {}),
        ("unit-interval", build_preset("unit-interval", order=12), np.exp, 0.5, 22,
         dict(absorb_delta=1e-6, state_box=(0.0, 1.0))),
    ]
    details = []
    ok = True
    for name, chars, f, x0, seed, extra in runs:
        est = martingale_audit(
            chars, f, x0, 0.3, McConfig(paths=100_000, dt=2e-3, seed=seed, **extra)
        )
        z = est.mean / est.stderr
        ok = ok and est.within(0.0, 3.0)
        details.append(f"{name} z={z:+.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(
        "martingale-audits",
        ok,
        ", ".join(details) + f" (|z| <= 3 at 1e5 paths, {elapsed:.1f}s < 120s)",
    )


def test_affine_closure():
    t0 = time.perf_counter()
    chars = build_preset("affine-linear-jumps", order=12)
    tau, T, x0 = 0.8, 1.0, 0.3
    u0 = ser.from_entries(1, 12, [((1,), tau)])
    psi = solve_riccati(chars, u0, T, REF).final.coeffs
    high = float(np.max(np.abs(psi[2:])))
    phi_o, psi_o = affine_transform(AFFINE_LINEAR_JUMPS, tau, T)
    res = affine_expectation(chars, u0, T, x0, REF)
    oracle = np.exp(phi_o + psi_o * x0)
    rel = abs(res.value - oracle) / abs(oracle)
    lin_err = abs(psi[1] - psi_o)
    elapsed = time.perf_counter() - t0
    ok = high <= 1e-8 and rel <= 1e-7 and lin_err <= 1e-7 and elapsed < 10.0
    report(
        "affine-closure",
        ok,
        f"deg>=2 coeffs {high:.1e} (tol 1e-8), value rel {rel:.1e} and linear coeff "
        f"{lin_err:.1e} vs scalar Riccati (tol 1e-7), {elapsed:.2f}s < 10s",
    )
