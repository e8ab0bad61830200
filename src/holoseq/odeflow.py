"""Flows of coefficient sequences.

Integrates the two sequence-valued initial value problems behind expectation
functionals: the linear flow c' = L(c) (whose evaluation at the start state
gives E[h(X_T)]) and the quadratic flow psi' = R(psi) (whose evaluated
exponential gives E[exp h(X_T)]). A third route recovers psi from the linear
flow by a *-logarithm, tracking the degree-zero branch with an auxiliary
scalar ODE so the two quadratic routes stay comparable.

The three solvers share one integration path around one integrator, which is
dimension-agnostic over flat complex state vectors and keeps the start and
end states only: a flow holds snapshots at t = 0 and t = T. The adaptive
error norm weights coefficient alpha by 1 / alpha! so tolerance is enforced
in the majorant metric at unit radius, matching how truncation tails are
measured.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from holoseq import series as ser
from holoseq.characteristics import Characteristics
from holoseq.checks import is_finite_real, is_integer
from holoseq.generator import apply_l_composition, apply_r, linear_closes, riccati_closes
from holoseq.series import CoeffSeries, LeadingCoefficientError

__all__ = [
    "OdeConfig",
    "FlowResult",
    "ExpectationResult",
    "StepSizeUnderflowError",
    "FlowBudgetError",
    "dopri5",
    "solve_linear",
    "solve_riccati",
    "riccati_from_linear",
    "holomorphic_expectation",
    "affine_expectation",
    "tail_mass",
    "flow_to_csv",
]


class StepSizeUnderflowError(RuntimeError):
    """Adaptive step fell below representable resolution at ``time``."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class FlowBudgetError(RuntimeError):
    """Step budget exhausted before reaching the horizon."""


@dataclass(frozen=True)
class OdeConfig:
    """Settings of the adaptive Dormand-Prince 5(4) integrator."""

    rtol: float = 1e-9
    atol: float = 1e-12
    # None: horizon / 100
    first_step: float | None = None
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("rtol", "atol", "first_step"):
            v = getattr(self, name)
            ok = is_finite_real(v) and v > 0
            if not (ok or (v is None and name == "first_step")):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        m = self.max_steps
        if not (is_integer(m) and m >= 1):
            raise ValueError(f"max_steps must be a positive integer, got {m!r}")


# Dormand-Prince 5(4) tableau, FSAL
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
# row s: the weights of stages 0..s-1 in the argument of stage s
_A = np.zeros((7, 7))
_A[1, :1] = [1 / 5]
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_B5 = _A[6]
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_ERR = _B5 - _B4


def _norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, rtol, atol, weights) -> float:
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1)) * weights
    return float(np.sqrt(np.mean((np.abs(err) * weights / scale) ** 2)))


def dopri5(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    y0: np.ndarray,
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    first_step: float | None = None,
    max_steps: int = 1_000_000,
    weights: np.ndarray | None = None,
):
    """Adaptive 5(4) pairs over a flat state from t0 to t1; returns the times
    (t0, t1), the start and end states and the step counts. The last step is
    clipped to land on t1 (no interpolation)."""
    y = np.array(y0)
    w = np.ones(y.size) if weights is None else np.asarray(weights, dtype=float)
    times = np.array([t0, t1], dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"flow times must be finite, got t0={t0}, t1={t1}")
    span = t1 - t0
    if span < 0:
        raise ValueError("flows run forward: need t1 >= t0")
    tiny = 1e-14 * max(1.0, abs(t1))
    if span <= tiny:
        return times, [y, y], {"nfev": 0, "accepted": 0, "rejected": 0}
    start = y
    h = first_step if first_step is not None else span / 100
    h = min(h, span)
    t = t0
    k1 = rhs(t, y)
    # the stages of one step, one row each
    k = np.empty((7, y.size), dtype=np.result_type(y, k1))
    k[0] = k1
    nfev, accepted, rejected = 1, 0, 0
    while t < t1 - tiny:
        if accepted + rejected >= max_steps:
            raise FlowBudgetError(f"exceeded {max_steps} steps at t={t:.6g}")
        h_step = min(h, t1 - t)
        if h_step < tiny:
            raise StepSizeUnderflowError(f"step size {h_step:.3e} underflow at t={t:.6g}", t)
        for s in range(1, 7):
            y1 = y + h_step * (_A[s, :s] @ k[:s])
            k[s] = rhs(t + _C[s] * h_step, y1)
        nfev += 6
        # the last stage argument is the 5th-order solution (FSAL pair)
        err = h_step * (_ERR @ k)
        en = _norm(err, y, y1, rtol, atol, w)
        if en <= 1.0:
            accepted += 1
            t = t + h_step
            y = y1
            k[0] = k[6]  # FSAL: last stage was evaluated at (t, y1)
            factor = 5.0 if en == 0.0 else min(5.0, max(0.2, 0.9 * en ** -0.2))
            h = h_step * factor
        else:
            rejected += 1
            h = h_step * max(0.2, 0.9 * en ** -0.2)
    return times, [start, y], {"nfev": nfev, "accepted": accepted, "rejected": rejected}


@dataclass(frozen=True)
class FlowResult:
    """Start and end snapshots of a sequence flow, at t = 0 and t = T."""

    times: np.ndarray
    series: tuple[CoeffSeries, ...]
    stats: dict

    @property
    def final(self) -> CoeffSeries:
        return self.series[-1]


@dataclass(frozen=True)
class ExpectationResult:
    value: complex
    tail: float
    flow: FlowResult

    def __float__(self) -> float:
        return float(self.value.real)


def tail_mass(u: CoeffSeries, radius: float, top: int = 2) -> float:
    """Majorant mass sitting in the top ``top`` degrees at ``radius``: the
    ``abs_norm`` of those degrees alone.

    A heuristic truncation diagnostic, not a bound: it sees only the top
    degrees at one radius, and a small tail can sit beside a much larger
    truncation error."""
    top_part = np.where(ser._degrees(u.dim, u.order) > u.order - top, u.coeffs, 0.0)
    return ser.abs_norm(CoeffSeries(u.dim, u.order, top_part), radius)


def _at_order(model, u0: CoeffSeries):
    """Characteristics of u0's dimension and any order >= u0's, truncated to
    u0's order; a callable passes through."""
    if not isinstance(model, Characteristics):
        return model
    if model.dim != u0.dim or model.order < u0.order:
        raise ValueError(
            f"a model of dim={model.dim} order={model.order} cannot flow "
            f"a series of dim={u0.dim} order={u0.order}"
        )
    return model.truncated(u0.order)


def _operator(model, apply) -> Callable[[CoeffSeries], CoeffSeries]:
    """Bind Characteristics to a generator assembly; a callable passes through."""
    if isinstance(model, Characteristics):
        return lambda u: apply(u, model)
    return model


def _flow(rhs, u0: CoeffSeries, y0: np.ndarray, T: float, config, snapshot) -> FlowResult:
    """The integration path of all three solvers: dopri5 from y0 over
    [0, T], with the leading series block of the state weighted like u0 and
    any trailing scalar by 1; ``snapshot`` turns the start and end states
    into series. The stats add u0's order as the working ``order``."""
    w = np.ones(y0.size)
    w[: u0.coeffs.size] = ser.taylor_weights(u0.dim, u0.order)
    times, states, stats = dopri5(rhs, 0.0, T, y0, weights=w, **asdict(config or OdeConfig()))
    return FlowResult(times, tuple(snapshot(y) for y in states), dict(stats, order=u0.order))


def _series_flow(apply, closes, model, u0: CoeffSeries, T: float, config) -> FlowResult:
    """The flow u' = apply(u, model) from u0. Characteristics are cut to
    u0's order first; where their system then ``closes`` at
    d = max(deg u0, 1) < u0.order, the flow runs on the characteristics
    truncated to order d, which is exact there, and its snapshots are
    zero-filled back to u0's order. A callable runs at u0's order."""
    u = u0
    model = _at_order(model, u0)
    if isinstance(model, Characteristics):
        d = max(ser.degree(u0), 1)
        if d < u0.order and closes(model, d):
            model, u = model.truncated(d), ser.with_order(u0, d)
    op = _operator(model, apply)
    dim, order = u.dim, u.order

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return op(CoeffSeries(dim, order, y)).coeffs

    return _flow(rhs, u, u.coeffs, T, config, lambda y: ser.with_order(CoeffSeries(dim, order, y), u0.order))


def solve_linear(model, u0: CoeffSeries, T: float, config: OdeConfig | None = None) -> FlowResult:
    """c(t) with c' = L(c), c(0) = u0; model is Characteristics of u0's
    dimension and any order >= u0's (it runs truncated to u0's order), or a
    callable series operator. On a polynomial model
    (``generator.linear_closes``) the flow runs at order max(deg u0, 1)."""
    return _series_flow(apply_l_composition, lambda chars, d: linear_closes(chars), model, u0, T, config)


def solve_riccati(model, u0: CoeffSeries, T: float, config: OdeConfig | None = None) -> FlowResult:
    """psi(t) with psi' = R(psi), psi(0) = u0. Where R keeps degree
    max(deg u0, 1) (``generator.riccati_closes``), the flow runs at that
    order."""
    return _series_flow(apply_r, riccati_closes, model, u0, T, config)


def riccati_from_linear(model, u0: CoeffSeries, T: float, config: OdeConfig | None = None) -> FlowResult:
    """psi(t) = log* c(t) where c flows linearly from exp*(u0).

    The degree-zero branch is not recoverable from c alone once Im log c_0
    wanders; an auxiliary scalar phi0' = (Lc)_0 / c_0 with phi0(0) = u0_0
    integrates the branch alongside and is handed to the *-logarithm.
    """
    op = _operator(_at_order(model, u0), apply_l_composition)
    dim, order = u0.dim, u0.order
    c0 = ser.exp_star(u0)
    n = c0.coeffs.size

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        lead = y[0]
        if abs(lead) <= ser.EPS_DIV:
            raise LeadingCoefficientError(
                f"linear flow leading coefficient |c_0| = {abs(lead):.3e} within "
                f"division guard at t = {t:.6g}; the *-log route breaks down here"
            )
        dc = op(CoeffSeries(dim, order, y[:n])).coeffs
        out = np.empty(n + 1, dtype=np.complex128)
        out[:n] = dc
        out[n] = dc[0] / lead
        return out

    def snapshot(y: np.ndarray) -> CoeffSeries:
        return ser.log_star(CoeffSeries(dim, order, y[:n]), phi0=complex(y[n]))

    y0 = np.concatenate([c0.coeffs, [complex(u0.coeffs[0])]])
    return _flow(rhs, u0, y0, T, config, snapshot)


def _radius_for(x0) -> float:
    r = float(np.max(np.abs(np.atleast_1d(np.asarray(x0, dtype=float)))))
    return r if r > 0 else 1.0


def holomorphic_expectation(
    model, u0: CoeffSeries, T: float, x0, config: OdeConfig | None = None
) -> ExpectationResult:
    """E[h(X_T) | X_0 = x0] for the payoff with coefficients u0."""
    flow = solve_linear(model, u0, T, config)
    return ExpectationResult(ser.evaluate(flow.final, x0), tail_mass(flow.final, _radius_for(x0)), flow)


def affine_expectation(
    model,
    u0: CoeffSeries,
    T: float,
    x0,
    config: OdeConfig | None = None,
    route: str = "riccati",
) -> ExpectationResult:
    """E[exp h(X_T) | X_0 = x0], via the quadratic flow or the *-log of the
    linear one (``route`` in {"riccati", "log-linear"})."""
    if route == "riccati":
        flow = solve_riccati(model, u0, T, config)
    elif route == "log-linear":
        flow = riccati_from_linear(model, u0, T, config)
    else:
        raise ValueError(f"unknown route {route!r}")
    psi = flow.final
    return ExpectationResult(np.exp(ser.evaluate(psi, x0)), tail_mass(psi, _radius_for(x0)), flow)


def flow_to_csv(flow: FlowResult, path) -> None:
    """Rows for t = 0 and t = T: t then re/im per multi-index, full precision."""
    idx = flow.series[0].indices
    cols = ["t"]
    for alpha in idx:
        tag = ",".join(str(a) for a in alpha)
        cols.extend([f"re[{tag}]", f"im[{tag}]"])
    lines = [",".join(cols)]
    for t, u in zip(flow.times, flow.series):
        row = [f"{t:.17g}"]
        for c in u.coeffs:
            row.extend([f"{c.real:.17g}", f"{c.imag:.17g}"])
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
