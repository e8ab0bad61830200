"""Config-driven front end.

``holoseq run config.yaml`` loads a model (preset name or inline
characteristics), a payoff (named family or explicit series entries), and
runs the requested sequence flows plus whatever oracles the config enables.
Output is a provenance header echoing every resolved setting, one table row
per computed quantity (engine rows say how their flow ran, oracle rows carry
absolute/relative differences against the engine), and, with ``--out``,
CSV artifacts at full precision. No row carries a truncation estimate;
``--sweep-order`` diffs each order against the oracle instead. Sweep rows of
one route whose flows close at the same degree (``odeflow.working_order``)
run one flow: the first such row runs it, and each later row reuses its
result, bit for bit, with ``shared with N=<first>`` in its detail and the
lookup alone as its time.

Exit codes: 0 on success, 2 on config or model-validation problems, 3 on
numerical failure (step-size underflow, flow budget, an exponential action
that is not finite, vanishing leading coefficient, escaped dual mass,
negative or NaN jump intensity on a simulated path).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from . import series as ser
from .characteristics import (
    Characteristics,
    characteristics_from_config,
    series_from_config,
    validate_on_grid,
)
from .checks import check_keys, is_finite_real, is_integer
from .models import (
    PRESET_INFO,
    PRESETS,
    EscapeMassError,
    FiniteChain,
    UnitIntervalModel,
    build_preset,
    chain_affine_flow,
    chain_expectation,
    two_state_closed_form,
)
from .montecarlo import IntensityBoundError, McConfig, check_run, simulate_expectation
from .odeflow import (
    FlowBudgetError,
    OdeConfig,
    StepSizeUnderflowError,
    affine_expectation,
    flow_to_csv,
    holomorphic_expectation,
    working_order,
)
from .series import CoeffSeries, LeadingCoefficientError

NUMERICAL_ERRORS = (
    StepSizeUnderflowError,
    FlowBudgetError,
    LeadingCoefficientError,
    EscapeMassError,
    IntensityBoundError,
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    """Bad or inconsistent run configuration (exit code 2)."""


@dataclass
class Row:
    quantity: str
    mode: str
    value: complex
    kind: str  # "engine" or "oracle"
    detail: str = ""
    seconds: float = 0.0
    abs_diff: float | None = None
    rel_diff: float | None = None


def _int_setting(value, name: str) -> int:
    """An integer config value; a float or bool is an error, not truncated."""
    if not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _real_setting(value, name: str) -> float:
    """A finite number from the config; a bool, a string or an infinite or
    NaN value is an error, not coerced."""
    if not is_finite_real(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _section(cfg: dict, name: str, required: bool = True, keys=None) -> dict:
    """``cfg[name]`` as a mapping, {} when optional and absent; with ``keys``
    any other key is an error."""
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"missing config section {name!r}")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    if keys is not None:
        check_keys(sec, name, keys)
    return sec


# --- payoff families ------------------------------------------------------------

# derivatives of f at 0 cycle with period 4: f(s x) has coefficients cyc[k % 4] s^k
_TAYLOR = {
    "exp": ((1.0, 1.0, 1.0, 1.0), np.exp),
    "cos": ((1.0, 0.0, -1.0, 0.0), np.cos),
    "sin": ((0.0, 1.0, 0.0, -1.0), np.sin),
}
# the settings each payoff family reads besides ``family``
_FAMILY_KEYS = {"series": ("entries",), "polynomial": ("coefficients",)}
_FAMILY_KEYS.update(dict.fromkeys(_TAYLOR, ("scale", "amplitude")))


def _payoff(fn_cfg: dict, dim: int, order: int):
    """Payoff series at the working order plus the exact callable for oracles.

    ``polynomial`` coefficients are plain monomial coefficients (value
    convention); ``exp``/``cos``/``sin`` take amplitude * f(scale * x); raw
    ``series`` entries are [alpha, re(, im)] pairs in derivative convention.
    """
    family = fn_cfg.get("family", "series")
    if family in _FAMILY_KEYS:
        check_keys(fn_cfg, f"function ({family})", ("family",) + _FAMILY_KEYS[family])
    if family == "series":
        entries = fn_cfg.get("entries")
        if not entries:
            raise ConfigError("function.entries required for family 'series'")
        try:
            u0 = series_from_config(entries, dim, order)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"function.entries: {e}") from None
        return u0, ser.RealEvaluator(u0)
    if dim != 1:
        raise ConfigError(f"function family {family!r} needs a one-dimensional model")
    if family == "polynomial":
        coeffs = fn_cfg.get("coefficients")
        if not coeffs:
            raise ConfigError("function.coefficients required for family 'polynomial'")
        cs = [_real_setting(c, "function.coefficients") for c in coeffs]
        if len(cs) - 1 > order:
            raise ConfigError(f"polynomial degree {len(cs) - 1} exceeds order {order}")
        u0 = ser.from_entries(1, order, [((k,), c * math.factorial(k)) for k, c in enumerate(cs)])
        poly = np.polynomial.Polynomial(cs)
        return u0, (lambda xs: poly(np.asarray(xs, dtype=float)))
    if family in _TAYLOR:
        s, amp = (_real_setting(fn_cfg.get(key, 1.0), f"function.{key}") for key in ("scale", "amplitude"))
        cyc, f = _TAYLOR[family]
        entries = [((k,), amp * cyc[k % 4] * s**k) for k in range(order + 1)]
        return ser.from_entries(1, order, entries), lambda xs: amp * f(s * np.asarray(xs, dtype=float))
    raise ConfigError(f"unknown function family {family!r}")


def _is_identity_payoff(u0: CoeffSeries) -> bool:
    want = ser.from_entries(u0.dim, u0.order, [(tuple([1] + [0] * (u0.dim - 1)), 1.0)])
    return bool(np.array_equal(u0.coeffs, want.coeffs))


# --- config assembly ------------------------------------------------------------


def _ode_config(cfg: dict) -> OdeConfig:
    check_keys(cfg, "numerics.ode", [f.name for f in fields(OdeConfig)])
    try:
        return OdeConfig(**cfg)
    except ValueError as e:
        raise ConfigError(f"numerics.ode.{e}") from None


def _mc_config(cfg: dict, args) -> McConfig:
    check_keys(cfg, "oracles.mc", [f.name for f in fields(McConfig)])
    cfg = dict(cfg)
    if args.mc_paths is not None:
        cfg["paths"] = args.mc_paths
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        return McConfig(**cfg)
    except ValueError as e:
        raise ConfigError(f"oracles.mc.{e}") from None


def _horizon(run_cfg: dict) -> float:
    T = _real_setting(run_cfg.get("T", 1.0), "run.T")
    if T <= 0:
        raise ConfigError(f"run.T must be positive, got {T}")
    return T


def _parse_x0(run_cfg: dict, dim: int):
    x0 = run_cfg.get("x0", 0.0 if dim == 1 else [0.0] * dim)  # the origin by default
    if isinstance(x0, (list, tuple)):
        if len(x0) != dim:
            raise ConfigError(f"run.x0 has {len(x0)} components, model dimension is {dim}")
        vals = [_real_setting(v, "run.x0") for v in x0]
        # a dim-1 list is the same start point as its one value
        return vals[0] if dim == 1 else np.array(vals)
    if dim > 1:
        raise ConfigError(f"run.x0 is a scalar, model dimension is {dim}; give a list of {dim} values")
    return _real_setting(x0, "run.x0")


def _sweep_list(arg: str | None) -> list[int] | None:
    if arg is None:
        return None
    try:
        orders = [int(v) for v in arg.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--sweep-order expects comma-separated integers, got {arg!r}") from None
    if not orders or any(n < 2 for n in orders):
        raise ConfigError("--sweep-order entries must be integers >= 2")
    return orders


# --- run ------------------------------------------------------------------------


def _grid_check(chars: Characteristics, grid_cfg: dict) -> list[str]:
    # a NaN point passes every check of validate_on_grid
    lo, hi = (_real_setting(grid_cfg.get(k, v), f"grid.{k}") for k, v in (("lo", -1.0), ("hi", 1.0)))
    n = _int_setting(grid_cfg.get("n", 9), "grid.n")
    if n < 1:
        raise ConfigError(f"grid.n must be >= 1, got {n}")
    axes = [np.linspace(lo, hi, n)] * chars.dim
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=1)
    box = grid_cfg.get("box")
    if box is not None:
        box = _parse_box(box, chars.dim)
    return [f"{f.kind} at {f.point}: {f.detail}" for f in validate_on_grid(chars, pts, box)]


def _parse_box(box, dim: int) -> np.ndarray:
    """``grid.box`` as its rows (lower, upper): two values, or two lists of
    ``dim`` values."""
    try:
        corners = np.array(box, dtype=float)
    except (TypeError, ValueError):
        corners = None
    if corners is None or corners.shape not in ((2,), (2, dim)):
        raise ConfigError(f"grid.box must be two values or two lists of {dim} values, got {box!r}")
    return corners


_MODES = {"holomorphic": ("holomorphic",), "affine": ("affine",), "both": ("holomorphic", "affine")}


def _run_modes(run_cfg: dict) -> tuple[str, ...]:
    mode = run_cfg.get("mode", "holomorphic")
    if mode not in _MODES:
        raise ConfigError(f"run.mode must be holomorphic, affine or both, got {mode!r}")
    return _MODES[mode]


def _timed(rows: list[Row], quantity: str, mode: str, kind: str, call, describe=lambda v: (v, "")):
    """Run ``call`` once, append its timed row and return its result;
    ``describe`` maps the result to the row's (value, detail)."""
    t0 = time.perf_counter()
    res = call()
    seconds = time.perf_counter() - t0
    value, detail = describe(res)
    rows.append(Row(quantity, mode, complex(value), kind, detail, seconds))
    return res


def _mc_detail(est):
    detail = f"stderr {est.stderr:.2e}, paths {est.paths}"
    if est.clamps:
        detail += f", clamps {est.clamps}"
    if est.absorbed:
        detail += f", absorbed {est.absorbed}"
    if est.jumps:
        detail += f", jumps {est.jumps}"
    return est.mean, detail


def _diffusive_rows(model, name, cfg, args, out_dir, orders: list[int], buffer: int, ode: OdeConfig) -> list[Row]:
    run_cfg = _section(cfg, "run", keys=("mode", "T", "x0", "affine_route"))
    modes = _run_modes(run_cfg)
    T = _horizon(run_cfg)
    x0 = _parse_x0(run_cfg, model.dim)
    route = run_cfg.get("affine_route", "riccati")
    if route not in ("riccati", "log-linear", "both"):
        raise ConfigError(f"run.affine_route must be riccati, log-linear or both, got {route!r}")
    sweep = args.sweep_order is not None

    oracles = _section(cfg, "oracles", required=False, keys=("mc", "dual"))
    fn_cfg = _section(cfg, "function")
    # the payoff at the model's order, the largest working order; each row
    # restricts it to its own, and the flow cuts the model to match
    u_full, f_exact = _payoff(fn_cfg, model.dim, model.order)

    # oracle settings are checked here, so a config error costs no flow
    mc_cfg = oracles.get("mc")
    mc = _mc_config(mc_cfg, args) if mc_cfg is not None else None
    if mc is not None:
        check_run(model, x0, T, mc)
        # the oracle's payoff is Re h: it would estimate another quantity
        if np.any(u_full.coeffs.imag != 0):
            raise ConfigError("oracles.mc estimates real payoffs; function.entries has a nonzero imaginary coefficient")
    dual_cfg = oracles.get("dual")
    if dual_cfg is not None:
        check_keys(dual_cfg, "dual", ("k_max",))
        if name != "unit-interval":
            raise ConfigError("the dual-chain oracle only applies to the unit-interval preset")
        if "affine" not in modes:
            raise ConfigError("the dual-chain oracle computes E[exp X_T]; use an affine mode")
        if not _is_identity_payoff(u_full):
            raise ConfigError("the dual-chain oracle needs the identity payoff h(x) = x")
        # the bound the oracle reports on its value holds on [0, 1] only
        if not 0.0 <= x0 <= 1.0:
            raise ConfigError(f"the dual-chain oracle needs run.x0 in [0, 1], got {x0}")
        k_max = _int_setting(dual_cfg.get("k_max", UnitIntervalModel.k_max), "oracles.dual.k_max")
        try:
            dual = UnitIntervalModel(k_max=k_max)
        except ValueError as e:
            raise ConfigError(f"oracles.dual.{e}") from None

    # the module globals are looked up at call time, so tests can replace them
    routes = []
    if "holomorphic" in modes:
        routes.append(("linear", "holomorphic", lambda u: holomorphic_expectation(model, u, T, x0)))
    if "affine" in modes:
        for r in ("riccati", "log-linear"):
            if route in (r, "both"):
                routes.append((r, "affine", lambda u, r=r: affine_expectation(model, u, T, x0, ode, route=r)))

    rows: list[Row] = []
    # (route, working order) -> (N, result) of the row that ran that flow
    flows = {}
    for n in orders:
        u0 = ser.with_order(u_full, n + buffer)
        tag = f" N={n}" if sweep else ""
        for label, row_mode, call in routes:
            key = (label, working_order(model, u0, label))
            quantity = f"{label}-flow{tag}"
            if key in flows:
                _timed(rows, quantity, row_mode, "engine", lambda: flows[key], lambda s: _shared_detail(s, u0.order))
                continue
            res = _timed(rows, quantity, row_mode, "engine", lambda: call(u0), _flow_detail)
            flows[key] = (n, res)
            if out_dir is not None and not sweep:
                flow_to_csv(res.flow, out_dir / f"flow_{label.replace('-', '_')}.csv")

    if mc is not None:
        payoffs = {"holomorphic": f_exact, "affine": lambda xs: np.exp(f_exact(xs))}
        for m in modes:
            _timed(rows, "monte-carlo", m, "oracle", lambda: simulate_expectation(model, payoffs[m], x0, T, mc), _mc_detail)

    if dual_cfg is not None:
        _timed(
            rows, "dual-chain", "affine", "oracle",
            lambda: dual.dual_expectation(T),
            lambda res: (
                res.evaluate(float(x0)),
                f"outflow {res.outflow:.2e}, bound {res.impact_bound:.2e}, rounding {res.rounding:.2e}",
            ),
        )
    return rows


def _flow_detail(res, order=None):
    """(value, detail) of an engine row: how its flow ran, and the degree it
    closed at where that is below the row's ``order``, the flow's own when
    None."""
    stats = res.flow.stats
    if "nfev" in stats:
        detail = f"nfev {stats['nfev']}"
    else:  # an exponential action: its Taylor steps or its Pade squarings
        steps = "s" if stats["method"] == "taylor" else "squarings"
        detail = f"{stats['method']}, matvecs {stats['matvecs']}, {steps} {stats[steps]}"
    if stats["order"] < (order or res.flow.final.order):
        detail += f", closed at degree {stats['order']}"
    return res.value, detail


def _shared_detail(shared, order: int):
    """``_flow_detail`` of a row of working ``order`` that reuses the result
    of the row labelled N=n, where ``shared`` is (n, result)."""
    n, res = shared
    value, detail = _flow_detail(res, order)
    return value, f"{detail}, shared with N={n}"


def _chain_rows(chain: FiniteChain, cfg, args) -> list[Row]:
    if args.sweep_order is not None:
        raise ConfigError("--sweep-order applies to series models, not finite chains")
    check_keys(cfg, "finite-chain", ("model", "function", "run"))
    run_cfg = _section(cfg, "run", keys=("mode", "T", "x0"))
    fn_cfg = _section(cfg, "function")
    if fn_cfg.get("family", "values") != "values":
        raise ConfigError("chain models take function family 'values'")
    check_keys(fn_cfg, "function (values)", ("family", "values"))
    values = fn_cfg.get("values")
    if values is None or len(values) != chain.n_states:
        raise ConfigError(f"function.values must list {chain.n_states} per-state payoffs")
    h = np.array([_real_setting(v, "function.values") for v in values])
    T = _horizon(run_cfg)
    i = run_cfg.get("x0", 0)
    if not (is_integer(i) and 0 <= i < chain.n_states):
        raise ConfigError(f"run.x0 must be a start-state index in [0, {chain.n_states})")
    modes = _run_modes(run_cfg)

    start = lambda v: (v, f"start state {i}")  # noqa: E731
    rows: list[Row] = []
    if "holomorphic" in modes:
        _timed(rows, "chain-ode", "holomorphic", "engine", lambda: chain_expectation(chain, h, T, route="ode")[i], start)
        _timed(rows, "matrix-exponential", "holomorphic", "oracle", lambda: chain_expectation(chain, h, T, route="expm")[i])
    if "affine" in modes:
        _timed(rows, "riccati-flow", "affine", "engine", lambda: np.exp(chain_affine_flow(chain, h, T, route="riccati")[i]), start)
        _timed(rows, "log-linear-flow", "affine", "oracle", lambda: np.exp(chain_affine_flow(chain, h, T, route="log-linear")[i]))
        if chain.n_states == 2:
            q = chain.rates
            _timed(rows, "closed-form", "affine", "oracle", lambda: two_state_closed_form(q[0, 1], q[1, 0], h[0], h[1], T)[i])
    return rows


def _attach_diffs(rows: list[Row], sweep: bool) -> None:
    """Oracle rows diff against the engine; in a sweep the engine rows diff
    against the oracle instead (that is the convergence readout)."""
    for mode in ("holomorphic", "affine"):
        engines = [r for r in rows if r.mode == mode and r.kind == "engine"]
        oracles = [r for r in rows if r.mode == mode and r.kind == "oracle"]
        if not engines:
            continue
        if sweep:
            ref = oracles[0].value if oracles else engines[-1].value
            targets = engines if oracles else engines[:-1]
        else:
            ref, targets = engines[0].value, oracles
        for r in targets:
            r.abs_diff = abs(r.value - ref)
            # against a zero reference only the absolute difference means anything
            r.rel_diff = r.abs_diff / abs(ref) if ref != 0 else None


def _fmt_value(v: complex) -> str:
    if abs(v.imag) <= 1e-12 * (1.0 + abs(v.real)):
        return f"{v.real:.6g}"
    return f"{v.real:.6g}{v.imag:+.6g}j"


def _print_table(rows: list[Row]) -> None:
    head = ("quantity", "mode", "value", "abs diff", "rel diff", "time (s)", "detail")
    table = [head]
    for r in rows:
        table.append(
            (
                r.quantity,
                r.mode,
                _fmt_value(r.value),
                "" if r.abs_diff is None else f"{r.abs_diff:.2e}",
                "" if r.rel_diff is None else f"{r.rel_diff:.2e}",
                f"{r.seconds:.3f}",
                r.detail,
            )
        )
    widths = [max(len(row[c]) for row in table) for c in range(len(head))]
    for k, row in enumerate(table):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if k == 0:
            print("  ".join("-" * w for w in widths))


def _write_results_csv(rows: list[Row], path: Path) -> None:
    lines = ["quantity,mode,kind,value_re,value_im,abs_diff,rel_diff,seconds,detail"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.quantity,
                    r.mode,
                    r.kind,
                    f"{r.value.real:.17g}",
                    f"{r.value.imag:.17g}",
                    "" if r.abs_diff is None else f"{r.abs_diff:.17g}",
                    "" if r.rel_diff is None else f"{r.rel_diff:.17g}",
                    f"{r.seconds:.17g}",
                    '"' + r.detail + '"',
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _echo_header(cfg: dict, args, name: str, numerics: dict | None = None) -> None:
    """``numerics`` holds the resolved truncation settings of a series model."""
    resolved = {
        "model": name,
        "overrides": {
            "sweep_order": args.sweep_order,
            "mc_paths": args.mc_paths,
            "seed": args.seed,
        },
        "config": cfg,
    }
    if numerics is not None:
        resolved["numerics"] = numerics
    print(f"# holoseq {__version__}")
    # libyaml's C emitter where present: the same text, several times faster
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    for line in yaml.dump(resolved, Dumper=dumper, default_flow_style=None, sort_keys=True).splitlines():
        print(f"# {line}")


def run_config(cfg: dict, args) -> list[Row]:
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a mapping")
    check_keys(cfg, "top-level", ("model", "function", "run", "numerics", "grid", "oracles"))
    model_cfg = _section(cfg, "model")
    num_cfg = _section(cfg, "numerics", required=False, keys=("order", "buffer", "ode"))
    order = _int_setting(num_cfg.get("order", 12), "numerics.order")
    buffer = _int_setting(num_cfg.get("buffer", 2), "numerics.buffer")
    if order < 2:
        raise ConfigError(f"numerics.order must be >= 2, got {order}")
    if buffer < 0:
        raise ConfigError(f"numerics.buffer must be >= 0, got {buffer}")
    orders = _sweep_list(args.sweep_order) or [order]
    preset = "preset" in model_cfg
    if preset:
        check_keys(model_cfg, "model", ("preset",))
    name = str(model_cfg["preset"]) if preset else "inline"
    # the one model of the run, at the largest working order; each flow cuts
    # it to the order of its payoff
    top = max(orders) + buffer
    try:
        model = build_preset(name, order=top) if preset else characteristics_from_config(model_cfg, top)
    except KeyError as e:
        raise ConfigError(e.args[0]) from None
    except (ValueError, TypeError) as e:
        raise ConfigError(f"model: {e}") from None

    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    if isinstance(model, FiniteChain):
        _echo_header(cfg, args, name)
        rows = _chain_rows(model, cfg, args)
    else:
        ode = _ode_config(num_cfg.get("ode") or {})
        modes = _run_modes(_section(cfg, "run", keys=("mode", "T", "x0", "affine_route")))
        # engine rows are labelled by N and computed at order N + buffer; only
        # the affine routes integrate, so only they read ``ode``
        numerics = {
            "order": order,
            "buffer": buffer,
            "working_order": {n: n + buffer for n in orders},
            "ode": asdict(ode) if "affine" in modes else "not read",
        }
        _echo_header(cfg, args, name, numerics)
        if cfg.get("grid") is not None:
            problems = _grid_check(model, _section(cfg, "grid", keys=("lo", "hi", "n", "box")))
            if problems:
                raise ConfigError("model failed grid validation: " + "; ".join(problems))
        rows = _diffusive_rows(model, name, cfg, args, out_dir, orders, buffer, ode)

    _attach_diffs(rows, args.sweep_order is not None)
    _print_table(rows)
    if out_dir is not None:
        _write_results_csv(rows, out_dir / "results.csv")
        print(f"# artifacts in {out_dir}")
    return rows


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="holoseq", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a config file and print the results table")
    runp.add_argument("config", help="path to a YAML run config")
    runp.add_argument("--sweep-order", help="comma-separated truncation orders, one engine row each")
    runp.add_argument("--mc-paths", type=int, help="override Monte Carlo path count")
    runp.add_argument("--seed", type=int, help="override Monte Carlo seed")
    runp.add_argument("--out", help="directory for results.csv and flow CSVs")
    sub.add_parser("list-presets", help="print the preset registry")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-presets":
        for name in sorted(PRESETS):
            print(f"{name:22s}{PRESET_INFO[name]}")
        return 0
    try:
        with open(args.config) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except yaml.YAMLError as e:
        print(f"config error: invalid YAML: {e}", file=sys.stderr)
        return 2
    try:
        run_config(cfg, args)
    except NUMERICAL_ERRORS as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError) as e:  # ConfigError is a ValueError
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
