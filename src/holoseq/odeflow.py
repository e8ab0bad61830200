"""Flows of coefficient sequences.

Solves the two sequence-valued initial value problems behind expectation
functionals: the linear flow c' = L(c) (whose evaluation at the start state
gives E[h(X_T)]) and the quadratic flow psi' = R(psi) (whose evaluated
exponential gives E[exp h(X_T)]). A third route recovers psi from the linear
flow by a *-logarithm, tracking the degree-zero branch with an auxiliary
scalar ODE so the two quadratic routes stay comparable.

L is one constant matrix per model and order, so the linear flow is the
exponential action c(T) = exp(T L) u0, computed by ``expm_action``: a
truncated Taylor series in s steps (Al-Mohy and Higham, SIAM J. Sci. Comput.
33(2), 2011) or the dense matrix exponential ``expm`` times u0, whichever
costs fewer matrix-vector products. ``expm``, a [6/6] Pade approximant under
scaling and squaring, lives here; ``holoseq.models`` re-exports it for the
chain oracles.

The riccati and log-linear routes run through one integration path around
the adaptive Dormand-Prince 5(4) integrator ``dopri5``, which is
dimension-agnostic over flat complex state vectors and keeps the start and
end states only. A flow holds the payoff it was given, as its t = 0
snapshot, and its end state at t = T. The adaptive
error norm weights coefficient alpha by 1 / alpha! so tolerance is enforced
in the majorant metric at unit radius. ``OdeConfig`` governs these flows
only, and the chain oracles' ODE routes.

Every flow takes its model as ``Characteristics`` of the payoff's dimension
and any order at least the payoff's, and cuts it to the payoff's order.

An expectation is its flow's end state evaluated once at the start point,
by ``series.evaluate``, which is exactly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from holoseq import series as ser
from holoseq.characteristics import Characteristics
from holoseq.checks import is_finite_real, is_integer
from holoseq.generator import apply_l_composition, apply_r, l_matrix, l_norm, linear_closes, riccati_closes
from holoseq.series import CoeffSeries, LeadingCoefficientError

__all__ = [
    "OdeConfig",
    "FlowResult",
    "ExpectationResult",
    "StepSizeUnderflowError",
    "FlowBudgetError",
    "dopri5",
    "expm",
    "expm_action",
    "solve_linear",
    "solve_riccati",
    "riccati_from_linear",
    "holomorphic_expectation",
    "affine_expectation",
    "flow_to_csv",
]


class StepSizeUnderflowError(RuntimeError):
    """Adaptive step fell below representable resolution at ``time``."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class FlowBudgetError(RuntimeError):
    """A flow that cannot reach the horizon: the step budget ran out, or the
    exponential action left the floating-point range."""


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
    config: OdeConfig | None = None,
    weights: np.ndarray | None = None,
):
    """Adaptive 5(4) pairs over a flat state from t0 to t1 under ``config``
    (``OdeConfig()`` when None); returns the times (t0, t1), the start and
    end states and the step counts. The last step is clipped to land on t1
    (no interpolation)."""
    cfg = config or OdeConfig()
    rtol, atol, max_steps = cfg.rtol, cfg.atol, cfg.max_steps
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
    h = cfg.first_step if cfg.first_step is not None else span / 100
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


# [6/6] diagonal Pade coefficients for exp
_PADE6 = (1.0, 1 / 2, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280)
_PADE6_THETA = 0.5


def _squarings(norm: float) -> int:
    """The squarings that bring a matrix of 1-norm ``norm`` to _PADE6_THETA."""
    return 0 if norm <= _PADE6_THETA else max(0, int(math.ceil(math.log2(norm / _PADE6_THETA))))


def _pade(a: np.ndarray, squarings: int) -> np.ndarray:
    """exp(a): the [6/6] Pade approximant of a / 2^squarings, squared back."""
    b = a / (2.0**squarings)
    n = a.shape[0]
    eye = np.eye(n, dtype=b.dtype)
    b2 = b @ b
    b4 = b2 @ b2
    c = _PADE6
    odd = b @ (c[1] * eye + c[3] * b2 + c[5] * b4)
    even = c[0] * eye + c[2] * b2 + c[4] * b4 + c[6] * (b2 @ b4)
    f = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        f = f @ f
    return f


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a [6/6] Pade approximant."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got {a.shape}")
    return _pade(a, _squarings(float(np.linalg.norm(a, 1))))


# theta_m for double precision (Al-Mohy and Higham 2011, Table 3.1; Higham,
# Functions of Matrices, Table A.3): where ||A||_1 <= theta_m, the Taylor
# polynomial of degree m is exp(A + E) with ||E|| <= 2^-53 ||A||
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(m, s): the Taylor degree and step count minimising m * s with
    s = ceil(norm / theta_m), the smallest such m on a tie."""
    if norm == 0:
        return 0, 1
    return min(((m, math.ceil(norm / th)) for m, th in _THETA.items()), key=lambda p: p[0] * p[1])


def _taylor_action(a: np.ndarray, t: float, v: np.ndarray, m: int, s: int) -> tuple[np.ndarray, dict]:
    """exp(t a) v as s steps of exp(t a / s), each its Taylor polynomial of
    degree <= m, stopped once two successive terms fall below unit roundoff
    of the partial sum in the infinity norm (Al-Mohy and Higham's Algorithm
    3.2 without the trace shift)."""
    f = v.astype(np.result_type(a, v, 1.0))
    b, matvecs = v, 0
    for _ in range(s):
        # ``bound`` >= ||f||, so the stopping test needs ||f|| only once it
        # could pass
        c1 = bound = np.abs(b).max(initial=0.0)
        for j in range(1, m + 1):
            b = (a @ b) * (t / (s * j))
            matvecs += 1
            c2 = np.abs(b).max(initial=0.0)
            f += b
            bound += c2
            if c1 + c2 <= _UNIT_ROUNDOFF * bound:
                bound = np.abs(f).max(initial=0.0)
                if c1 + c2 <= _UNIT_ROUNDOFF * bound:
                    break
            c1 = c2
        b = f
    return f, {"method": "taylor", "matvecs": matvecs, "s": s}


def expm_action(a: np.ndarray, t: float, v: np.ndarray, a_norm: float | None = None) -> tuple[np.ndarray, dict]:
    """exp(t a) v for a square matrix ``a``, with how it was computed;
    ``a_norm`` is ||a||_1 where the caller keeps it, and None computes it.

    With nu = t ||a||_1 and n = len(v), the method estimated to cost fewer
    matrix-vector products runs:

    * ``taylor`` (``_taylor_action``), with (m, s) minimising
      m * ceil(nu / theta_m) over m <= 55: at most m * s products;
    * ``pade``: ``expm(t a)`` then one product, about (4 + q) n
      product-equivalents for q squarings.

    The stats hold the ``method``, the ``matvecs`` and the Taylor steps
    ``s`` or the Pade ``squarings``. A result that is not finite raises
    FlowBudgetError naming nu.
    """
    if not (is_finite_real(t) and t >= 0):
        raise ValueError(f"the horizon must be finite and >= 0, got {t}")
    norm = t * (float(np.linalg.norm(a, 1)) if a_norm is None else a_norm)
    if not math.isfinite(norm):
        raise FlowBudgetError(f"||T L||_1 = {norm} is not finite; the flow cannot be computed")
    m, s = _taylor_plan(norm)
    squarings = _squarings(norm)
    # an overflow is reported below, as an error
    with np.errstate(over="ignore", invalid="ignore"):
        if m * s <= (4 + squarings) * len(v):
            f, stats = _taylor_action(a, t, v, m, s)
        else:
            f, stats = _pade(t * a, squarings) @ v, {"method": "pade", "matvecs": 1, "squarings": squarings}
    if not np.all(np.isfinite(f)):
        raise FlowBudgetError(
            f"exp(T L) u0 is not finite ({stats['method']}): ||T L||_1 = {norm:.3e}; the flow blows up"
        )
    return f, stats


@dataclass(frozen=True)
class FlowResult:
    """Snapshots of a sequence flow at t = 0 and t = T: the payoff the flow
    was given, and its end state."""

    times: np.ndarray
    series: tuple[CoeffSeries, ...]
    stats: dict

    @property
    def final(self) -> CoeffSeries:
        return self.series[-1]


@dataclass(frozen=True)
class ExpectationResult:
    value: complex
    flow: FlowResult


def _flow(rhs, u0: CoeffSeries, u: CoeffSeries, y0: np.ndarray, T: float, config, snapshot) -> FlowResult:
    """The integration path of the dopri5 flows of the payoff u0, run as u:
    dopri5 from y0 over [0, T], with the leading series block of the state
    weighted like u and any trailing scalar by 1. The flow starts at u0, and
    ``snapshot`` turns the end state into a series. The stats add u's order
    as the working ``order``."""
    w = np.ones(y0.size)
    w[: u.coeffs.size] = ser.taylor_weights(u.dim, u.order)
    times, states, stats = dopri5(rhs, 0.0, T, y0, config, w)
    return FlowResult(times, (u0, snapshot(states[-1])), dict(stats, order=u.order))


def _working(model: Characteristics, u0: CoeffSeries, closes=None):
    """The model and payoff a flow from u0 runs on. The model, of u0's
    dimension and any order >= u0's, is cut to u0's order; where its system
    then ``closes`` at d = max(deg u0, 1) < u0.order, both are cut to order
    d, which is exact there."""
    if model.dim != u0.dim or model.order < u0.order:
        raise ValueError(
            f"a model of dim={model.dim} order={model.order} cannot flow "
            f"a series of dim={u0.dim} order={u0.order}"
        )
    model = model.truncated(u0.order)
    d = max(ser.degree(u0), 1)
    if closes is not None and d < u0.order and closes(model, d):
        return model.truncated(d), ser.with_order(u0, d)
    return model, u0


def _padded(u: CoeffSeries, order: int):
    """Coefficient arrays at u's shape -> series zero-filled to ``order``."""
    return lambda y: ser.with_order(CoeffSeries(u.dim, u.order, y), order)


def solve_linear(model: Characteristics, u0: CoeffSeries, T: float, config: OdeConfig | None = None) -> FlowResult:
    """c(T) with c' = L(c), c(0) = u0, as c(T) = exp(T L) u0 by
    ``expm_action`` on the compiled L. ``model`` has u0's dimension and any
    order >= u0's; it runs cut to u0's order, and on a polynomial model (see
    ``generator.linear_closes``) at order max(deg u0, 1). ``config`` is not
    read, and the stats are the action's."""
    model, u = _working(model, u0, lambda chars, d: linear_closes(chars))
    c, stats = expm_action(l_matrix(model), T, u.coeffs, l_norm(model))
    times = np.array([0.0, T], dtype=float)
    return FlowResult(times, (u0, _padded(u, u0.order)(c)), dict(stats, order=u.order))


def solve_riccati(model: Characteristics, u0: CoeffSeries, T: float, config: OdeConfig | None = None) -> FlowResult:
    """psi(t) with psi' = R(psi), psi(0) = u0, by dopri5 under ``config``.
    ``model`` is cut as in ``solve_linear``; where R keeps degree
    max(deg u0, 1) (``generator.riccati_closes``), the flow runs at that
    order."""
    model, u = _working(model, u0, riccati_closes)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return apply_r(CoeffSeries(u.dim, u.order, y), model).coeffs

    return _flow(rhs, u0, u, u.coeffs, T, config, _padded(u, u0.order))


def riccati_from_linear(model: Characteristics, u0: CoeffSeries, T: float, config: OdeConfig | None = None) -> FlowResult:
    """psi(t) = log* c(t) where c flows linearly from exp*(u0), by dopri5
    under ``config``, on ``model`` cut to u0's order.

    The degree-zero branch is not recoverable from c alone once Im log c_0
    wanders; an auxiliary scalar phi0' = (Lc)_0 / c_0 with phi0(0) = u0_0
    integrates the branch alongside and is handed to the *-logarithm.
    """
    model, _ = _working(model, u0)
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
        dc = apply_l_composition(CoeffSeries(dim, order, y[:n]), model).coeffs
        out = np.empty(n + 1, dtype=np.complex128)
        out[:n] = dc
        out[n] = dc[0] / lead
        return out

    def snapshot(y: np.ndarray) -> CoeffSeries:
        return ser.log_star(CoeffSeries(dim, order, y[:n]), phi0=complex(y[n]))

    y0 = np.concatenate([c0.coeffs, [complex(u0.coeffs[0])]])
    return _flow(rhs, u0, u0, y0, T, config, snapshot)


def holomorphic_expectation(
    model: Characteristics, u0: CoeffSeries, T: float, x0, config: OdeConfig | None = None
) -> ExpectationResult:
    """E[h(X_T) | X_0 = x0] for the payoff with coefficients u0: the flow of
    ``solve_linear`` evaluated at x0."""
    flow = solve_linear(model, u0, T, config)
    return ExpectationResult(ser.evaluate(flow.final, x0), flow)


def affine_expectation(
    model: Characteristics,
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
    return ExpectationResult(np.exp(ser.evaluate(flow.final, x0)), flow)


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
