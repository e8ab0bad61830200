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
``dopri5``, the adaptive Dormand-Prince 8(5,3) pair of Hairer, Norsett and
Wanner (their code DOP853), which is dimension-agnostic over flat complex
state vectors and keeps the start and end states only. At the sizes these
flows run, a step costs Python overhead rather than arithmetic, so the
order-8 pair's few long steps beat a low-order pair's many short ones. A
flow holds the payoff it was given, as its t = 0 snapshot, and its end
state at t = T. The adaptive
error norm weights coefficient alpha by 1 / alpha! so tolerance is enforced
in the majorant metric at unit radius. ``OdeConfig`` governs these flows
only, and the chain oracles' ODE routes.

Every flow takes its model as ``Characteristics`` of the payoff's dimension
and any order at least the payoff's, and cuts it to the payoff's order.
Where the route's system closes at the payoff's degree (the table
``_CLOSES``), it runs at that degree; ``working_order`` says which order.

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
    "working_order",
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
    """Settings of the adaptive Dormand-Prince 8(5,3) integrator ``dopri5``."""

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


# The Dormand-Prince 8(5,3) pair (Hairer, Norsett and Wanner, Solving
# Ordinary Differential Equations I, 2nd ed., section II.10, code DOP853):
# 12 stages, with f at the new point reused as the next step's first stage
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
# row s: the weights of stages 0..s-1 in the argument of stage s
_A = np.zeros((12, 12))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, [0, 1]] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1,
]
_A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1,
]
_A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2, -1.7578125e-2,
]
_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3,
]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209, 1.09143734899672957818500254654,
    -8.14978701074692612513997267357, -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022,
]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1,
]
# the 8th-order weights
_B = np.zeros(12)
_B[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
]
# the two error estimates: the 8th-order solution less the embedded 5th-
# and 3rd-order ones
_E = np.zeros((2, 12))
_E[0, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]
_E[1] = _B
_E[1, [0, 8, 11]] -= [
    0.244094488188976377952755905512, 0.733846688281611857341361741547, 0.220588235294117647058823529412e-1,
]


def _norm(e: np.ndarray, h: float, y0: np.ndarray, y1: np.ndarray, rtol, atol, weights) -> float:
    """Hairer's error of a DOP853 step from its two error rows e = (e5, e3)
    per unit h: |h| ||e5||^2 / sqrt((||e5||^2 + 0.01 ||e3||^2) n), with each
    component weighted by ``weights`` / scale."""
    scaled = np.abs(e) * (weights / (atol + rtol * np.maximum(np.abs(y0), np.abs(y1)) * weights))
    n5, n3 = (scaled * scaled).sum(axis=1).tolist()
    if n5 == 0.0:
        return 0.0
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * y0.size)


def _step(rhs, t: float, y: np.ndarray, h: float, k: np.ndarray) -> np.ndarray:
    """One step of the 8(5,3) pair from (t, y), with k[0] = f(t, y): fills
    the stages k[1:] and returns the 8th-order solution at t + h."""
    ts, ah = (t + h * _C).tolist(), h * _A
    for s in range(1, 12):
        k[s] = rhs(ts[s], y + ah[s, :s] @ k[:s])
    return y + (h * _B) @ k


# The name dates from the 5(4) pair; ``models`` and perfbench's tracing bind it.
def dopri5(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    y0: np.ndarray,
    config: OdeConfig | None = None,
    weights: np.ndarray | None = None,
):
    """Adaptive steps of the Dormand-Prince 8(5,3) pair over a flat state
    from t0 to t1 under ``config`` (``OdeConfig()`` when None); returns the
    times (t0, t1), the start and end states and the step counts. The last
    step is clipped to land on t1 (no interpolation).

    Each step makes 11 new stages and, once accepted short of t1, f at the
    new point, the next step's first stage. Its error is Hairer's blend of
    the 5th- and 3rd-order estimates; the step scales by 0.9 err^(-1/8)
    within [0.2, 10], and does not grow right after a rejection."""
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
    k = np.empty((12, y.size), dtype=np.result_type(y, k1))
    k[0] = k1
    nfev, accepted, rejected = 1, 0, 0
    retried = False
    while t < t1 - tiny:
        if accepted + rejected >= max_steps:
            raise FlowBudgetError(f"exceeded {max_steps} steps at t={t:.6g}")
        h_step = min(h, t1 - t)
        if h_step < tiny:
            raise StepSizeUnderflowError(f"step size {h_step:.3e} underflow at t={t:.6g}", t)
        y1 = _step(rhs, t, y, h_step, k)
        nfev += 11
        en = _norm(_E @ k, h_step, y, y1, rtol, atol, w)
        factor = 10.0 if en == 0.0 else min(10.0, max(0.2, 0.9 * en ** -0.125))
        if en <= 1.0:
            accepted += 1
            t = t + h_step
            y = y1
            h = h_step * (min(1.0, factor) if retried else factor)
            retried = False
            if t < t1 - tiny:
                k[0] = rhs(t, y)
                nfev += 1
        else:
            rejected += 1
            h = h_step * factor
            retried = True
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


# The closure test of each route's system at degree d (see ``_working``):
# the one rule of which flows run below the payoff's order. The log-linear
# route's augmented flow of exp*(u0) is a full series, and never closes.
_CLOSES = {
    "linear": lambda chars, d: linear_closes(chars),
    "riccati": riccati_closes,
    "log-linear": lambda chars, d: False,
}


def _working(model: Characteristics, u0: CoeffSeries, route: str):
    """The model and payoff a flow of ``route`` from u0 runs on. The model,
    of u0's dimension and any order >= u0's, is cut to u0's order; where the
    route's system then closes (``_CLOSES``) at d = max(deg u0, 1) <
    u0.order, both are cut to order d, which is exact there."""
    if model.dim != u0.dim or model.order < u0.order:
        raise ValueError(
            f"a model of dim={model.dim} order={model.order} cannot flow "
            f"a series of dim={u0.dim} order={u0.order}"
        )
    model = model.truncated(u0.order)
    d = max(ser.degree(u0), 1)
    if d < u0.order and _CLOSES[route](model, d):
        return model.truncated(d), ser.with_order(u0, d)
    return model, u0


def working_order(model: Characteristics, u0: CoeffSeries, route: str) -> int:
    """The order the flow of u0 on ``route`` ("linear", "riccati" or
    "log-linear") runs at: max(deg u0, 1) where the route's system closes
    there, else u0's order.

    Two payoffs of one model with the same working order run the same flow
    on the same working model and payoff, so their flows give the same bits
    and their values at one start point are equal, ``series.evaluate`` being
    exactly rounded. ``holoseq run --sweep-order`` keys its rows by (route,
    working order): the first row of a key runs the flow, and each later
    row reuses that result, says ``shared with N=<first>`` and times the
    lookup alone."""
    return _working(model, u0, route)[1].order


def _padded(u: CoeffSeries, order: int):
    """Coefficient arrays at u's shape -> series zero-filled to ``order``."""
    return lambda y: ser.with_order(CoeffSeries(u.dim, u.order, y), order)


def solve_linear(model: Characteristics, u0: CoeffSeries, T: float) -> FlowResult:
    """c(T) with c' = L(c), c(0) = u0, as c(T) = exp(T L) u0 by
    ``expm_action`` on the compiled L. ``model`` has u0's dimension and any
    order >= u0's; it runs cut to u0's order, and on a polynomial model (see
    ``generator.linear_closes``) at order max(deg u0, 1). The stats are the
    action's."""
    model, u = _working(model, u0, "linear")
    c, stats = expm_action(l_matrix(model), T, u.coeffs, l_norm(model))
    times = np.array([0.0, T], dtype=float)
    return FlowResult(times, (u0, _padded(u, u0.order)(c)), dict(stats, order=u.order))


def solve_riccati(model: Characteristics, u0: CoeffSeries, T: float, config: OdeConfig | None = None) -> FlowResult:
    """psi(t) with psi' = R(psi), psi(0) = u0, by dopri5 under ``config``.
    ``model`` is cut as in ``solve_linear``; where R keeps degree
    max(deg u0, 1) (``generator.riccati_closes``), the flow runs at that
    order."""
    model, u = _working(model, u0, "riccati")

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
    model, _ = _working(model, u0, "log-linear")
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
    ``solve_linear`` evaluated at x0. ``config`` is not read; it stays while
    callers pass it positionally."""
    flow = solve_linear(model, u0, T)
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
