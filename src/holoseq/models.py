"""Worked model families with closed-form or matrix oracles, and the presets.

* finite-state chains, where both expectation flows reduce to matrix
  exponentials (the linear one exactly, the quadratic one after a log), giving
  oracles for the sequence-flow machinery at zero truncation error;
* a unit-interval kill model whose generator maps the monomial basis
  (x/2)^k to a birth-death chain on the exponent, so E[e^{X_T}] is computable
  by uniformization of an explicit (explosive) dual chain.

Each diffusive preset in ``PRESETS`` is an inline model spec, read by
``characteristics_from_config`` exactly as a config's ``model:`` section is;
the chain presets are ``FiniteChain``s. The affine presets' closed forms live
in the tests' oracles.

The matrix exponential ``expm`` is a [6/6] diagonal Pade approximant under
scaling and squaring; plenty for the small well-conditioned generators used
here, and it keeps the runtime dependency surface at numpy. It lives in
``holoseq.odeflow``, whose linear flow uses it too, and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from holoseq.characteristics import characteristics_from_config
from holoseq.odeflow import OdeConfig, dopri5, expm

__all__ = [
    "expm",
    "EscapeMassError",
    "FiniteChain",
    "chain_expectation",
    "chain_riccati_rhs",
    "chain_affine_flow",
    "two_state_closed_form",
    "UnitIntervalModel",
    "DualResult",
    "PRESETS",
    "PRESET_INFO",
    "build_preset",
]


class EscapeMassError(RuntimeError):
    """Dual-chain mass escaped past the truncation boundary beyond the requested tolerance."""


@dataclass(frozen=True)
class FiniteChain:
    """Continuous-time chain given by off-diagonal jump rates.

    ``rates[i][j]`` is the rate i -> j; the diagonal is ignored and rebuilt
    so generator rows sum to zero.
    """

    rates: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.rates, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError(f"rates must be square, got {r.shape}")
        np.fill_diagonal(r, 0.0)
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise ValueError("off-diagonal rates must be finite and >= 0")
        r.setflags(write=False)
        object.__setattr__(self, "rates", r)

    @property
    def n_states(self) -> int:
        return self.rates.shape[0]

    @property
    def generator_matrix(self) -> np.ndarray:
        q = self.rates.copy()
        np.fill_diagonal(q, -q.sum(axis=1))
        return q


# the integrator settings of the chains' "ode" routes
_CHAIN_ODE = OdeConfig(rtol=1e-11, atol=1e-13)


def chain_expectation(chain: FiniteChain, h: np.ndarray, T: float, route: str = "expm"):
    """E_i[h(X_T)] for every start state: exp(T Q) h, directly or by ODE."""
    h = np.asarray(h)
    q = chain.generator_matrix
    if route == "expm":
        return expm(T * q) @ h
    if route == "ode":
        _, ys, _ = dopri5(lambda t, y: q @ y, 0.0, T, h.astype(np.complex128), _CHAIN_ODE)
        out = ys[-1]
        return out.real if np.isrealobj(h) else out
    raise ValueError(f"unknown route {route!r}")


def chain_riccati_rhs(chain: FiniteChain, psi: np.ndarray) -> np.ndarray:
    """Quadratic-flow right side on a chain: sum_j q_ij (e^(psi_j - psi_i) - 1)."""
    psi = np.asarray(psi)
    diff = np.exp(psi[None, :] - psi[:, None]) - 1.0
    return np.sum(chain.rates * diff, axis=1)


def chain_affine_flow(chain: FiniteChain, u0: np.ndarray, T: float, route: str = "riccati"):
    """psi(T) with e^(psi_i(T)) = E_i[exp u0(X_T)].

    The log-linear route exponentiates, flows linearly, and takes the
    principal log; valid for real exponents (the propagator is positive).
    """
    u0 = np.asarray(u0)
    if route == "riccati":
        rhs = lambda t, y: chain_riccati_rhs(chain, y).astype(y.dtype)
        _, ys, _ = dopri5(rhs, 0.0, T, u0.astype(np.complex128), _CHAIN_ODE)
        out = ys[-1]
        return out.real if np.isrealobj(u0) else out
    if route == "log-linear":
        c = chain_expectation(chain, np.exp(u0), T)
        return np.log(c)
    raise ValueError(f"unknown route {route!r}")


def two_state_closed_form(l12: float, l21: float, u1: float, u2: float, t: float):
    """c(t) = exp(t Q) (e^u1, e^u2) for the two-state chain, eigendecomposed
    by hand: the spectral gap is l12 + l21."""
    total = l12 + l21
    stat = (l21 * math.exp(u1) + l12 * math.exp(u2)) / total
    gap = (math.exp(u1) - math.exp(u2)) / total * math.exp(-total * t)
    return np.array([stat + l12 * gap, stat - l21 * gap])


@dataclass(frozen=True)
class DualResult:
    """E[e^{X_T} | X_0 = .] on [0, 1] in the basis f_k(x) = (x/2)^k.

    ``outflow`` is the basis mass that escaped past k_max through the dropped
    up-transition; ``impact_bound`` converts it into a bound on the evaluation
    error: escaped mass re-enters level i with probability <= (1/2)^(k_max+1-i)
    (the chain drifts up 2:1) and then weighs <= (x/2)^i <= 2^(-i), so each
    escaped unit moves any value on [0, 1] by at most 2^(-(k_max+1)).
    """

    coefficients: np.ndarray
    outflow: float
    impact_bound: float

    def evaluate(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        half = xs / 2.0
        out = np.zeros_like(half)
        for c in self.coefficients[::-1]:  # Horner in x/2
            out = out * half + c
        return out


# largest evaluation error bound from escaped dual mass before dual_expectation fails
_DUAL_TAIL_THRESHOLD = 1e-8


@dataclass(frozen=True)
class UnitIntervalModel:
    """Diffusion a(x) = x (1-x)(1-x/2) on [0, 1] with kill-to-origin jumps at
    rate (1-x)(1-x/2)/x (a simple pole; both endpoints and the origin are
    then absorbing).

    The generator sends f_k = (x/2)^k to
    (k+2)(k-1)/4 f_{k-1} - 3 (k+2)(k-1)/4 f_k + (k+2)(k-1)/2 f_{k+1},
    a birth-death chain on the exponent with up/down ratio 2. The chain is
    explosive, so the dual computation truncates at ``k_max`` and accounts for
    escaped mass explicitly (see DualResult).
    """

    k_max: int = 400

    def __post_init__(self) -> None:
        if self.k_max < 4:
            raise ValueError("k_max must be at least 4")

    def dual_rates(self) -> tuple[np.ndarray, np.ndarray]:
        """(down, up) rates on exponents 0..k_max; 0 and 1 are absorbing."""
        k = np.arange(self.k_max + 1, dtype=float)
        base = (k + 2) * (k - 1)
        base[:2] = 0.0
        return base / 4.0, base / 2.0

    def dual_expectation(self, T: float) -> DualResult:
        """nu(T) = mu exp(T B) by uniformization, mu_k = 2^k / k! (so that
        sum mu_k f_k = e^x); the up-edge out of k_max is dropped and tracked."""
        down, up = self.dual_rates()
        total = down + up
        lam = 1.05 * float(total.max())
        mu = np.exp(np.arange(self.k_max + 1) * math.log(2.0)
                    - np.array([math.lgamma(k + 1) for k in range(self.k_max + 1)]))
        mass_in = float(mu.sum())

        lt = lam * T
        width = 12.0 * math.sqrt(lt) + 30.0
        n_hi = int(math.ceil(lt + width))
        log_w = (np.arange(n_hi + 1) * math.log(lt) if lt > 0 else np.zeros(n_hi + 1))
        log_w = log_w - lt - np.array([math.lgamma(n + 1) for n in range(n_hi + 1)])
        w = np.exp(log_w)

        p_down = down / lam
        p_up = up / lam
        stay = 1.0 - total / lam
        nu = mu.copy()
        acc = w[0] * nu
        for n in range(1, n_hi + 1):
            nxt = nu * stay
            nxt[:-1] += nu[1:] * p_down[1:]
            nxt[1:] += nu[:-1] * p_up[:-1]
            # the up-move out of k_max has no target row: that mass leaks
            nu = nxt
            acc = acc + w[n] * nu
        outflow = mass_in * float(w.sum()) - float(acc.sum())
        outflow = max(outflow, 0.0)
        bound = outflow * 2.0 ** -(self.k_max + 1)
        if bound > _DUAL_TAIL_THRESHOLD:
            raise EscapeMassError(
                f"escaped dual mass {outflow:.3e} bounds the evaluation error by "
                f"{bound:.3e} > {_DUAL_TAIL_THRESHOLD:.1e}; increase k_max"
            )
        return DualResult(acc, outflow, bound)


# --- preset registry -----------------------------------------------------------

_CHAIN_RATES = np.array(
    [
        [0.0, 0.7, 0.3, 0.0],
        [0.2, 0.0, 0.5, 0.3],
        [0.4, 0.1, 0.0, 0.5],
        [0.6, 0.2, 0.2, 0.0],
    ]
)

TWO_STATE_RATES = (0.6, 0.9)


# a diffusive preset is an inline spec in a config's ``model:`` schema; its
# kernel takes the reader's default intensity 1 unless it names one
PRESETS = {
    "bm": {"diffusion": [[0, 1.0]]},
    "compound-poisson": {
        "diffusion": [[0, 1.0]],
        "kernel": {"atoms": [{"weight": 1.0, "size": [[0, 0.5]]}, {"weight": 1.0, "size": [[0, -0.5]]}]},
    },
    "affine-linear-jumps": {
        "drift": [[0, 0.1], [1, 0.2]],
        "diffusion": [[0, 0.3]],
        "kernel": {"atoms": [{"weight": 1.0, "size": [[0, 0.4]]}, {"weight": 1.0, "size": [[0, -0.3]]}]},
    },
    # a = x (1-x)(1-x/2), lambda = (1-x)(1-x/2) / x and j = -x (see
    # UnitIntervalModel), as derivatives at the origin like any config series
    "unit-interval": {
        "diffusion": [[1, 1.0], [2, -3.0], [3, 3.0]],
        "kernel": {
            "intensity": [[0, 1.0], [1, -1.5], [2, 1.0]],
            "pole_order": 1,
            "atoms": [{"weight": 1.0, "size": [[1, -1.0]]}],
        },
    },
    "finite-chain": FiniteChain(_CHAIN_RATES),
    "two-state-affine": FiniteChain(np.array([[0.0, TWO_STATE_RATES[0]], [TWO_STATE_RATES[1], 0.0]])),
}

PRESET_INFO = {
    "bm": "unit Brownian motion (b = 0, a = 1)",
    "compound-poisson": "unit diffusion plus rate-1 compensated jumps of size +-1/2",
    "affine-linear-jumps": "affine drift 0.1 + 0.2x, a = 0.3, constant-size jumps",
    "unit-interval": "kill-to-origin model on [0, 1] with pole intensity",
    "finite-chain": "four-state chain with fixed irreducible rates",
    "two-state-affine": "two-state chain (rates 0.6 / 0.9) with closed-form flows",
}


def build_preset(name: str, order: int = 12):
    """A chain preset's FiniteChain, or a diffusive preset's spec read by
    ``characteristics_from_config`` at ``order``."""
    try:
        spec = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return spec if isinstance(spec, FiniteChain) else characteristics_from_config(spec, order)
