"""The benchmark's three workloads as fixed lists of operations.

``build(workload, seed, smoke)`` is the set-up: it draws every input from the
seed, builds the models and payoffs, and returns the operations of one round.
Each operation knows how to run itself (``call``), how to warm up untimed
(``warm``), how to compute its references (``prepare``, untimed) and how to
check its output (``check``).  A round runs every operation once; rounds
differ only in the Monte Carlo streams, so every round does the same work.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import references as refs

# a Monte Carlo mean must lie within K_STDERR standard errors of its reference
K_STDERR = 6.0
# degree >= 2 coefficients of a riccati flow on an affine model must stay below
AFFINE_CLOSURE_TOL = 1e-8


@dataclass
class Check:
    ok: bool
    rel_err: float | None  # worst relative error of a flow or chain value, if any
    detail: str


@dataclass
class Op:
    name: str
    kind: str  # linear | riccati | loglinear | chain | dual | simulate | audit
    call: Callable[[int], object]  # round index -> output
    warm: Callable[[], object]
    check: Callable[[object], Check]
    prepare: Callable[[], None] = lambda: None
    flows: int = 1  # expectations computed by one call
    path_steps: int = 0  # Euler path-steps of one call (paths x steps)


def _stream_seed(seed: int, op_index: int, rnd: int) -> int:
    return int(np.random.SeedSequence([seed, op_index, rnd]).generate_state(1)[0] & 0x7FFFFFFF)


def _rel_check(pairs, tol: float, label: str) -> Check:
    """pairs of (value, reference); ok when every relative error is <= tol."""
    errs = [refs.rel_err(v, r) for v, r in pairs]
    worst = max(errs, default=math.inf)
    ok = bool(np.isfinite(worst)) and worst <= tol
    return Check(ok, worst, f"{label}: worst rel err {worst:.2e} (tol {tol:.0e}, {len(errs)} values)")


# --- Monte Carlo operations (shared by all workloads) ---------------------------


def _mc_ops(seed, index0, specs):
    """specs: (name, kind, chars, f, x0, T, McConfig kwargs, reference fn or None)."""
    from holoseq import montecarlo
    from holoseq.montecarlo import McConfig

    ops = []
    for k, (name, kind, chars, f, x0, T, kw, ref_fn) in enumerate(specs):
        # looked up at call time, so the traced run sees its wrapper
        fn = "simulate_expectation" if kind == "simulate" else "martingale_audit"
        steps = int(round(T / kw["dt"]))
        ref = functools.cache(ref_fn) if ref_fn is not None else (lambda: 0.0)

        def call(rnd, fn=fn, chars=chars, f=f, x0=x0, T=T, kw=kw, i=index0 + k):
            cfg = McConfig(seed=_stream_seed(seed, i, rnd), **kw)
            return getattr(montecarlo, fn)(chars, f, x0, T, cfg)

        def warm(fn=fn, chars=chars, f=f, x0=x0, T=T, kw=kw):
            cfg = McConfig(seed=0, **dict(kw, paths=max(1, kw["paths"] // 10)))
            return getattr(montecarlo, fn)(chars, f, x0, T, cfg)

        def check(est, ref=ref, name=name):
            gap = abs(est.mean - ref())
            ok = bool(np.isfinite(est.mean)) and est.stderr > 0 and gap <= K_STDERR * est.stderr
            return Check(ok, None, f"{name}: |mean - ref| = {gap:.2e}, {gap / max(est.stderr, 1e-300):.2f} stderr")

        ops.append(Op(name, kind, call, warm, check, prepare=ref, path_steps=kw["paths"] * steps))
    return ops


def _mc_companion(seed: int, index0: int, rng, smoke: bool, n: int = 3):
    """n small simulate and n small audit operations on dimension-one presets,
    for the flow workloads."""
    from holoseq.models import build_preset

    alj = build_preset("affine-linear-jumps", order=8)
    cp = build_preset("compound-poisson", order=8)
    paths = 300 if smoke else 2000
    specs = []
    for k in range(n):
        tau, x0, tau_a = float(rng.uniform(0.3, 0.7)), float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.3, 0.7))
        specs += [
            (f"mc-alj-{k}", "simulate", alj, lambda x, t=tau: np.exp(t * x), x0, 0.5,
             dict(paths=paths, dt=5e-3), lambda t=tau, x=x0: ALJ.mgf([t], 0.5, [x])),
            (f"audit-cp-{k}", "audit", cp, lambda x, t=tau_a: np.exp(t * x), 0.0, 0.3,
             dict(paths=paths, dt=5e-3), None),
        ]
    return _mc_ops(seed, index0, specs)


def _spread(ops: list[Op], extra: list[Op]) -> list[Op]:
    """Place ``extra`` at evenly spaced positions among ``ops``.

    A metric pools a round's operations of one kind, so spreading them over
    the round samples the machine at several points in time and averages out
    slow changes in its speed.
    """
    out = list(ops)
    for j in reversed(range(len(extra))):
        out.insert(round((j + 1) * len(ops) / (len(extra) + 1)), extra[j])
    return out


# the affine-linear-jumps preset in the reference's terms
ALJ = refs.AffineModel(
    b0=[0.1], B=[[0.2]], A0=[[0.3]], A=[[[0.0]]], l0=1.0, l=[0.0],
    atoms=[(1.0, [0.4]), (1.0, [-0.3])],
)
CP_ATOMS = ((1.0, 0.5), (1.0, -0.5))


# --- preset-runs: generated configs through the CLI entry ---------------------------


def _run_cli(cfg, sweep):
    from holoseq.cli import run_config

    args = argparse.Namespace(sweep_order=sweep, mc_paths=None, seed=None, out=None)
    with contextlib.redirect_stdout(io.StringIO()):
        return run_config(cfg, args)


def _short(cfg):
    """The same config over 1 % of the horizon in one loose step: a warm-up."""
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.items()}
    out["run"]["T"] = cfg["run"]["T"] * 0.01
    if "numerics" in out:
        out["numerics"]["ode"] = {"rtol": 1e-4, "atol": 1e-6, "first_step": out["run"]["T"]}
    return out


def _cli_op(name, kind, cfg, orders, ref_fn, tol, oracle_tol=None):
    sweep = ",".join(str(n) for n in orders) if len(orders) > 1 else None
    if sweep is None:
        cfg = dict(cfg, numerics=dict(cfg["numerics"], order=orders[0]))
    ref = functools.cache(ref_fn)

    def check(rows):
        engine = [r for r in rows if r.kind == "engine"]
        oracle = [r for r in rows if r.kind == "oracle"]
        if len(engine) != len(orders):
            return Check(False, None, f"{name}: {len(engine)} engine rows for {len(orders)} orders")
        c = _rel_check([(r.value, ref()) for r in engine], tol, name)
        if oracle_tol is not None:
            o = _rel_check([(r.value, ref()) for r in oracle], oracle_tol, name + " oracle")
            c = Check(c.ok and o.ok and len(oracle) == 1, max(c.rel_err, o.rel_err), c.detail + "; " + o.detail)
        return c

    return Op(
        name, kind,
        call=lambda rnd: _run_cli(cfg, sweep),
        warm=lambda: _run_cli(_short(cfg), sweep),
        check=check, prepare=ref, flows=len(orders),
    )


def _chain_payoffs(n_states: int, count: int) -> list[list[float]]:
    """Fixed per-state payoffs: the chain integrator's step count depends on them."""
    grid = np.linspace(-1.0, 1.0, n_states)
    return [[float(v) for v in np.roll(grid, k) * (0.5 + 0.1 * k)] for k in range(count)]


def _chain_cli_op(name, cfgs, tol):
    from holoseq.models import build_preset

    def reference(cfg):
        chain = build_preset(cfg["model"]["preset"])
        h = np.array(cfg["function"]["values"])
        T, i = cfg["run"]["T"], cfg["run"]["x0"]
        lin = refs.chain_expectation(chain.rates, h, T)[i]
        aff = refs.chain_expectation(chain.rates, np.exp(h), T)[i]
        return lin, aff

    ref = functools.cache(lambda: [reference(c) for c in cfgs])

    def check(all_rows):
        pairs = []
        for rows, (lin, aff) in zip(all_rows, ref()):
            for r in rows:
                pairs.append((r.value, lin if r.mode == "holomorphic" else aff))
        want = sum(5 if len(c["function"]["values"]) == 2 else 4 for c in cfgs)
        c = _rel_check(pairs, tol, name)
        return Check(c.ok and len(pairs) == want, c.rel_err, c.detail)

    return Op(
        name, "chain",
        call=lambda rnd: [_run_cli(c, None) for c in cfgs],
        warm=lambda: [_run_cli(_short(c), None) for c in cfgs[:2]],
        check=check, prepare=ref, flows=len(cfgs),
    )


def _preset_runs(seed: int, smoke: bool):
    rng = np.random.default_rng(seed)

    def cfg(preset, function, mode, T, x0, rtol, route=None, grid=None, oracles=None):
        c = {
            "model": {"preset": preset},
            "function": function,
            "run": {"mode": mode, "T": T, "x0": x0},
            "numerics": {"order": 16, "ode": {"rtol": rtol, "atol": rtol * 1e-2}},
        }
        if route:
            c["run"]["affine_route"] = route
        if grid:
            c["grid"] = grid
        if oracles:
            c["oracles"] = oracles
        return c

    def sweep(full):
        return full[:1] if smoke else full

    poly = lambda cs: {"family": "polynomial", "coefficients": [float(c) for c in cs]}  # noqa: E731
    expf = lambda s: {"family": "exp", "scale": s}  # noqa: E731
    grid = {"lo": -1.0, "hi": 1.0, "n": 9}
    ops = []

    # The seed draws each config's start point.  Payoff scales and horizons stay
    # fixed: the integrator's step count depends on them, and op times would
    # then depend on the seed.
    x = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731

    # bm: a Gaussian characteristic function and quadratic exponential, closed forms
    x0 = x(-0.5, 0.5)
    ops.append(_cli_op(
        "bm-linear", "linear",
        cfg("bm", {"family": "cos", "scale": 1.1}, "holomorphic", 1.0, x0, 1e-12, grid=grid),
        sweep(list(range(16, 33))),
        lambda x0=x0: math.cos(1.1 * x0) * math.exp(-0.5 * 1.1**2), 1e-6,
    ))
    x0 = x(-0.5, 0.5)
    ops.append(_cli_op(
        "bm-riccati", "riccati", cfg("bm", poly([0.0, 0.6, 0.15]), "affine", 1.0, x0, 1e-12, "riccati"),
        sweep(list(range(16, 33))),
        lambda x0=x0: refs.gaussian_quadratic_mgf(0.6, 0.15, x0, 1.0), 1e-8,
    ))
    x0 = x(-0.5, 0.5)
    ops.append(_cli_op(
        "bm-loglinear", "loglinear", cfg("bm", poly([0.0, -0.7]), "affine", 1.0, x0, 1e-12, "log-linear"),
        sweep(list(range(16, 33, 2))),
        lambda x0=x0: math.exp(-0.7 * x0 + 0.5 * 0.7**2), 1e-8,
    ))

    # compound Poisson: moments from the cumulants and the Levy exponent, in closed form
    def cp_ref(t, x0):
        return lambda: math.exp(t * x0 + refs.levy_exponent(t, 1.0, CP_ATOMS))

    def cp_moments_ref(cs, x0):
        return lambda: float(np.dot(cs, refs.levy_raw_moments(x0, 1.0, 1.0, CP_ATOMS, len(cs) - 1)))

    cp_orders = sweep([16, 24, 32])
    cs, x0 = [0.3, -0.5, 0.8, 0.2, -0.4, 0.1, 0.05], x(-0.5, 0.5)
    ops.append(_cli_op("cp-linear", "linear", cfg("compound-poisson", poly(cs), "holomorphic", 1.0, x0, 1e-10, grid=grid),
                       cp_orders, cp_moments_ref(cs, x0), 1e-7))
    x0 = x(-0.5, 0.5)
    ops.append(_cli_op("cp-riccati", "riccati", cfg("compound-poisson", poly([0.0, 1.2]), "affine", 1.0, x0, 1e-10, "riccati"),
                       cp_orders, cp_ref(1.2, x0), 1e-7))
    x0 = x(-0.5, 0.5)
    ops.append(_cli_op("cp-loglinear", "loglinear", cfg("compound-poisson", poly([0.0, 0.8]), "affine", 1.0, x0, 1e-10, "log-linear"),
                       cp_orders, cp_ref(0.8, x0), 1e-7))

    # affine-linear-jumps: the Riccati system solved by scipy
    def alj_ref(t, x0):
        return lambda: ALJ.mgf([t], 1.0, [x0])

    x0 = x(-0.3, 0.3)
    ops.append(_cli_op("alj-linear", "linear", cfg("affine-linear-jumps", expf(0.6), "holomorphic", 1.0, x0, 1e-10),
                       sweep([16, 24, 32]), alj_ref(0.6, x0), 1e-6))
    x0 = x(-0.3, 0.3)
    ops.append(_cli_op("alj-riccati", "riccati", cfg("affine-linear-jumps", poly([0.0, 0.7]), "affine", 1.0, x0, 1e-10, "riccati"),
                       sweep([16, 20, 24, 28, 32]), alj_ref(0.7, x0), 1e-7))
    x0 = x(-0.3, 0.3)
    ops.append(_cli_op("alj-loglinear", "loglinear", cfg("affine-linear-jumps", poly([0.0, 0.5]), "affine", 1.0, x0, 1e-10, "log-linear", grid=grid),
                       sweep([16, 24, 32]), alj_ref(0.5, x0), 1e-7))

    # unit-interval: the dual birth-death chain through scipy's expm.  The
    # riccati route is left out: it converges only like 1/N on this model.
    # The log-linear config keeps x0 = 0.5: its truncation error at N = 16 is
    # the workload's worst, so err_digits does not depend on the seed.
    ui_grid = {"lo": 0.05, "hi": 0.95, "n": 9, "box": [0.0, 1.0]}
    x0 = x(0.3, 0.7)
    ops.append(_cli_op("ui-linear", "linear", cfg("unit-interval", expf(1.0), "holomorphic", 0.5, x0, 1e-10, grid=ui_grid),
                       sweep([16, 20]), lambda x0=x0: float(refs.unit_interval_mgf(0.5, x0)[0]), 1e-6))
    ops.append(_cli_op("ui-loglinear", "loglinear",
                       cfg("unit-interval", poly([0.0, 1.0]), "affine", 0.5, 0.5, 1e-10, "log-linear",
                           oracles={"dual": {"k_max": 400}}),
                       sweep([16, 20]), lambda: float(refs.unit_interval_mgf(0.5, 0.5)[0]), 1e-4, oracle_tol=1e-10))

    # the two chain presets, every route, against scipy's expm
    # (payoff values are fixed for the same reason; the seed draws the start state)
    chain_cfgs = []
    for preset, n in (("finite-chain", 4), ("two-state-affine", 2)):
        for k, h in enumerate(_chain_payoffs(n, 2 if smoke else 8)):
            chain_cfgs.append({
                "model": {"preset": preset},
                "function": {"family": "values", "values": h},
                "run": {"mode": "both", "T": 0.5 + 0.125 * k, "x0": int(rng.integers(n))},
            })
    ops.append(_chain_cli_op("chains", chain_cfgs, 1e-8))
    return _spread(ops, _mc_companion(seed, len(ops), rng, smoke))


# --- flow-nd: the Python API on inline affine models of dimension 2 and 3 ----------


def _nd_model(dim: int):
    """State-affine drift and diffusion, intensity affine in x_1, two constant atoms."""
    B = -0.4 * np.eye(dim) + 0.1 * np.eye(dim, k=1) + 0.05 * np.eye(dim, k=-1)
    b0 = 0.05 * np.arange(1, dim + 1)
    A0 = 0.15 * np.eye(dim) + 0.03 * (np.eye(dim, k=1) + np.eye(dim, k=-1))
    A = np.zeros((dim, dim, dim))
    for k in range(dim):
        A[k, k, k] = 0.04
    l = np.zeros(dim)
    l[0] = 0.1
    atoms = [
        (0.6, 0.2 * np.where(np.arange(dim) % 2 == 0, 1.0, -0.5)),
        (0.4, -0.15 * np.where(np.arange(dim) % 2 == 0, 1.0, -0.6)),
    ]
    return refs.AffineModel(b0, B, A0, A, 0.8, l, atoms)


def _nd_characteristics(model: refs.AffineModel, order: int):
    """The same model as an inline spec, read by holoseq's characteristics_from_config."""
    from holoseq.characteristics import characteristics_from_config

    dim = model.dim
    zero = [0] * dim
    e = [[1 if i == k else 0 for i in range(dim)] for k in range(dim)]

    def affine(c0, c):
        return [[zero, float(c0)]] + [[e[k], float(c[k])] for k in range(dim) if c[k]]

    spec = {
        "dim": dim,
        "drift": [affine(model.b0[i], model.B[i]) for i in range(dim)],
        "diffusion": [[affine(model.A0[i, j], model.A[:, i, j]) for j in range(dim)] for i in range(dim)],
        "kernel": {
            "intensity": affine(model.l0, model.l),
            "atoms": [{"weight": w, "size": [[[zero, float(x)]] for x in xi]} for w, xi in model.atoms],
        },
    }
    return characteristics_from_config(spec, order)


def _flow_nd(seed: int, smoke: bool):
    from holoseq import odeflow
    from holoseq import series as ser
    from holoseq.odeflow import OdeConfig

    rng = np.random.default_rng(seed)
    T = 0.5
    ode = OdeConfig(rtol=1e-8, atol=1e-11)
    warm_ode = OdeConfig(rtol=1e-4, atol=1e-6, first_step=0.01 * T)
    # (dim, order, tau, linear-route tolerance).  The seed draws the start
    # points of the dimension-two classes; tau stays fixed, since the
    # integrator's step count depends on it.
    classes = [(2, 8, (0.5, -0.4), 1e-7), (3, 5, (0.7, -0.5, 0.4), 1e-3)] if smoke else [
        (2, 10, (0.5, -0.4), 1e-7),
        (2, 12, (-0.45, 0.35), 1e-7),
        # fixed inputs: the linear route's payoff truncation sets err_digits here
        (3, 7, (0.7, -0.5, 0.4), 1e-5),
    ]
    ops = []
    for dim, order, tau, tol in classes:
        model = _nd_model(dim)
        chars = _nd_characteristics(model, order)
        idx, _ = ser.index_table(dim, order)
        tau = np.array(tau)
        x0 = rng.uniform(-0.3, 0.3, dim) if dim == 2 else np.array([0.3, -0.2, 0.1])
        # exp(tau . x) truncated at the order, and the linear exponent tau . x
        u_exp = ser.CoeffSeries(dim, order, np.array([np.prod(tau ** np.array(a)) for a in idx]))
        u_lin = ser.from_entries(dim, order, [(tuple(e), tau[k]) for k, e in enumerate(np.eye(dim, dtype=int))])
        ref = functools.cache(lambda m=model, t=tau, x=x0: m.mgf(t, T, x))
        tag = f"d{dim}n{order}"

        def lin_check(res, ref=ref, tol=tol, tag=tag):
            return _rel_check([(res.value, ref())], tol, f"{tag}-linear")

        def ric_check(res, ref=ref, tag=tag, dim=dim):
            c = _rel_check([(res.value, ref())], 1e-7, f"{tag}-riccati")
            high = float(np.max(np.abs(res.flow.final.coeffs[dim + 1:])))
            ok = c.ok and high <= AFFINE_CLOSURE_TOL
            return Check(ok, c.rel_err, c.detail + f"; deg>=2 coeffs {high:.1e} (tol {AFFINE_CLOSURE_TOL:.0e})")

        def ll_check(res, ref=ref, tol=tol, tag=tag):
            return _rel_check([(res.value, ref())], tol, f"{tag}-loglinear")

        ops += [
            Op(f"{tag}-linear", "linear",
               call=lambda rnd, c=chars, u=u_exp, x=x0: odeflow.holomorphic_expectation(c, u, T, x, ode),
               warm=lambda c=chars, u=u_exp, x=x0: odeflow.holomorphic_expectation(c, u, 0.01 * T, x, warm_ode),
               check=lin_check, prepare=ref),
            Op(f"{tag}-riccati", "riccati",
               call=lambda rnd, c=chars, u=u_lin, x=x0: odeflow.affine_expectation(c, u, T, x, ode, route="riccati"),
               warm=lambda c=chars, u=u_lin, x=x0: odeflow.affine_expectation(c, u, 0.01 * T, x, warm_ode, route="riccati"),
               check=ric_check, prepare=ref),
            Op(f"{tag}-loglinear", "loglinear",
               call=lambda rnd, c=chars, u=u_lin, x=x0: odeflow.affine_expectation(c, u, T, x, ode, route="log-linear"),
               warm=lambda c=chars, u=u_lin, x=x0: odeflow.affine_expectation(c, u, 0.01 * T, x, warm_ode, route="log-linear"),
               check=ll_check, prepare=ref),
        ]
    return _spread(ops, _mc_companion(seed, len(ops), rng, smoke))


# --- mc-euler: the Euler simulator and the martingale audit -------------------------


def _chain_route_groups(smoke: bool, n_groups: int = 3):
    """Chain presets through each route (no generator, no series kernels).

    The cases are split into groups, one op per route and group, so that a
    round samples each route at several points of the round.
    """
    from holoseq import models
    from holoseq.models import build_preset

    cases = []
    for preset in ("finite-chain", "two-state-affine"):
        chain = build_preset(preset)
        for k, h in enumerate(_chain_payoffs(chain.n_states, 3 if smoke else 24)):
            cases.append((chain, np.array(h), 0.5 + 0.1 * (k % 11)))

    runs = {
        "linear": lambda c: models.chain_expectation(c[0], c[1], c[2], route="ode"),
        "riccati": lambda c: np.exp(models.chain_affine_flow(c[0], c[1], c[2], route="riccati")),
        "loglinear": lambda c: np.exp(models.chain_affine_flow(c[0], c[1], c[2], route="log-linear")),
    }
    # a linear case takes ~10 ms and a log-linear one is one expm: repeat them to time cleanly
    repeats = {"linear": 1 if smoke else 3, "riccati": 1, "loglinear": 1 if smoke else 40}
    groups = []
    for g in range(n_groups):
        mine = cases[g::n_groups]
        ops = []
        for route, run in runs.items():
            n = repeats[route]
            ref = functools.cache(lambda r=route, mine=mine: [
                refs.chain_expectation(chain.rates, h if r == "linear" else np.exp(h), T) for chain, h, T in mine
            ])

            def check(outs, ref=ref, route=route, n=n):
                pairs = [(v, r) for out, rv in zip(outs, ref() * n) for v, r in zip(out, rv)]
                return _rel_check(pairs, 1e-8, f"chain-{route}")

            ops.append(Op(
                f"chain-{route}-{g}", route,
                call=lambda rnd, run=run, n=n, mine=mine: [run(c) for c in mine * n],
                warm=lambda run=run, mine=mine: [run((c[0], c[1], 0.01)) for c in mine[:1]],
                check=check, prepare=ref, flows=len(mine) * n,
            ))
        groups.append(ops)
    return groups


def _mc_euler(seed: int, smoke: bool):
    from holoseq.models import UnitIntervalModel, build_preset

    rng = np.random.default_rng(seed)
    scale = 0.08 if smoke else 1.0
    paths = lambda n: max(200, int(n * scale))  # noqa: E731
    alj = build_preset("affine-linear-jumps", order=8)
    ui = build_preset("unit-interval", order=12)
    cp = build_preset("compound-poisson", order=8)
    box = dict(absorb_delta=1e-6, state_box=(0.0, 1.0))

    # dimension two: affine drift, constant correlated diffusion, two atoms
    m2 = refs.AffineModel(
        b0=[0.05, 0.1], B=[[-0.4, 0.1], [0.05, -0.3]], A0=[[0.2, 0.06], [0.06, 0.15]],
        A=np.zeros((2, 2, 2)), l0=0.8, l=[0.0, 0.0],
        atoms=[(0.6, [0.2, -0.1]), (0.4, [-0.15, 0.09])],
    )
    d2 = _nd_characteristics(m2, 6)

    t1, x1 = float(rng.uniform(0.3, 0.7)), float(rng.uniform(-0.3, 0.3))
    s2, x2 = float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.4, 0.6))
    t3, x3 = rng.uniform(-0.6, 0.6, 2), rng.uniform(-0.3, 0.3, 2)
    ta, sa, xa = float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.4, 0.6))
    mc = _mc_ops(seed, 0, [
        ("mc-alj", "simulate", alj, lambda x: np.exp(t1 * x), x1, 0.5, dict(paths=paths(8000), dt=5e-3),
         lambda: ALJ.mgf([t1], 0.5, [x1])),
        ("mc-ui", "simulate", ui, lambda x: np.exp(s2 * x), x2, 0.5, dict(paths=paths(6000), dt=5e-3, **box),
         lambda: float(refs.unit_interval_mgf(0.5, x2, s2)[0])),
        ("mc-d2", "simulate", d2, lambda x: np.exp(x @ t3), x3, 0.5, dict(paths=paths(2500), dt=5e-3),
         lambda: m2.mgf(t3, 0.5, x3)),
        ("audit-cp", "audit", cp, lambda x: np.exp(ta * x), 0.0, 0.3, dict(paths=paths(4000), dt=5e-3), None),
        ("audit-ui", "audit", ui, lambda x: np.exp(sa * x), xa, 0.3, dict(paths=paths(4000), dt=5e-3, **box), None),
    ])

    # the program's dual chain against scipy's, truncated low enough (k_max = 24)
    # that truncation, not rounding, sets its error
    horizons = np.linspace(0.1, 0.5, 3 if smoke else 12)
    xs = np.linspace(0.1, 0.9, 9)
    dual_ref = functools.cache(lambda: [refs.unit_interval_mgf(T, xs) for T in horizons])
    dual = UnitIntervalModel(k_max=24)

    def dual_check(vals):
        return _rel_check([(v, r) for vs, rs in zip(vals, dual_ref()) for v, r in zip(vs, rs)], 1e-7, "dual-ui")

    dual_op = Op(
        "dual-ui", "dual",
        call=lambda rnd: [dual.dual_expectation(T).evaluate(xs) for T in horizons],
        warm=lambda: dual.dual_expectation(0.01).evaluate(xs),
        check=dual_check, prepare=dual_ref, flows=len(horizons),
    )
    g = _chain_route_groups(smoke)
    return _spread([*mc, dual_op], [op for group in g for op in group])


WORKLOADS = {
    "preset-runs": _preset_runs,
    "flow-nd": _flow_nd,
    "mc-euler": _mc_euler,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    return WORKLOADS[workload](seed, smoke)
