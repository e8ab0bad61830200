"""Worked model families with closed-form or matrix oracles, and the presets.

* finite-state chains, where both expectation flows reduce to matrix
  exponentials (the linear one exactly, the quadratic one after a log), giving
  oracles for the sequence-flow machinery at zero truncation error;
* a unit-interval kill model whose generator maps the monomial basis
  (x/2)^k to a birth-death chain on the exponent, so E[e^{X_T}] is computable
  by uniformization of an explicit (explosive) dual chain: Fox and Glynn's
  Poisson weights over a window, summed in blocks of powers of the
  transition matrix with one Horner pass, and reported with its escaped
  mass and a first-order bound on its rounding.

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
from holoseq.checks import is_finite_real
from holoseq.odeflow import _UNIT_ROUNDOFF, OdeConfig, dopri5, expm

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
    up-transition, accumulated as the mass of an absorbing sink state, so it
    keeps its digits however small it is; ``impact_bound`` converts it into
    a bound on the evaluation error: escaped mass re-enters level i with
    probability <= (1/2)^(k_max+1-i) (the chain drifts up 2:1) and then
    weighs <= (x/2)^i <= 2^(-i), so each escaped unit moves any value on
    [0, 1] by at most 2^(-(k_max+1)).
    ``rounding`` is a first-order bound on the rounding error of ``evaluate``
    at any x in [0, 1] (see ``UnitIntervalModel.dual_expectation``).
    """

    coefficients: np.ndarray
    outflow: float
    impact_bound: float
    rounding: float

    def evaluate(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        half = xs / 2.0
        out = np.zeros_like(half)
        for c in self.coefficients[::-1]:  # Horner in x/2
            out = out * half + c
        return out


# largest evaluation error bound from escaped dual mass before dual_expectation fails
_DUAL_TAIL_THRESHOLD = 1e-8
# entries of P's powers below this are set to zero, so that no product of
# two kept entries is subnormal (arithmetic on subnormals is many times slower)
_FLUSH = 2.0**-500


def _poisson_window(lt: float) -> tuple[int, np.ndarray]:
    """(n_lo, w): Poisson(lt) weights on [n_lo, n_hi], cut at lt -+ (12 sqrt(lt)
    + 30), by the ratio recurrence from the mode and normalised (Fox and
    Glynn, Commun. ACM 31(4), 1988). At lt = 0 they are the single w_0 = 1."""
    width = 12.0 * math.sqrt(lt) + 30.0
    n_lo, mode, n_hi = max(0, math.floor(lt - width)), math.floor(lt), math.ceil(lt + width)
    right = np.cumprod(lt / np.arange(mode + 1, n_hi + 1))  # w_n / w_mode, n > mode
    left = np.cumprod(np.arange(mode, n_lo, -1) / lt)  # w_n / w_mode, n < mode, descending
    w = np.concatenate((left[::-1], [1.0], right))
    return n_lo, w / math.fsum(w)


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
        sum mu_k f_k = e^x); the up-edge out of k_max leads to an absorbing
        sink, whose mass is the ``outflow``.

        With P = I + B / lam and lam = 1.05 x the top rate, nu(T) is the sum
        of w_n mu P^n over the Poisson(lam T) window [n_lo, n_hi] of
        ``_poisson_window``, taken in blocks of s, the least power of two
        with s^2 > n_hi: Q = P^s by log2(s) squarings of the dense P, the
        block starts y_b = mu Q^b by one vector-matrix product each,
        z_i = sum_b w_(bs+i) y_b by one matrix product, and
        nu(T) = sum_i z_i P^i by Horner in s - 1 tridiagonal steps. Two
        (k_max+1)^2 float matrices are held at a time (1.3 MB each at
        k_max 400), and the s x (k_max+1) block sums. The sink's column of
        Q, the mass each state sinks within s steps, rides along the
        squarings, and its mass along the block starts, the block sums and
        the Horner steps, so the escape counts every leaked unit, not the
        difference of two masses near e^2; nu(T) itself does not read it.

        ``rounding`` bounds the rounding error to first order in the unit
        roundoff u. Every operand is nonnegative, so a computed entry is off
        by at most u times its count of roundings, relative, a dot product
        of p nonzero terms counting p. The counts summed are: mu's
        recurrence; P's entries over n_hi steps; the weight recurrence and
        the rounding of lam T; the squarings, level j summing 2^j + 1 terms
        and raised to the power s / 2^j in Q; the block products; the block
        sums; the Horner steps; and the Horner of ``evaluate``. Times the
        value at x = 1 that bounds the error at any x in [0, 1]. Entries of
        Q's squarings below 2^-500 are set to zero, which adds at most
        b_hi s (k_max+1) 2^-500 mu's mass; underflow elsewhere is left out.

        T = 0 returns mu exactly; a negative or non-finite T raises
        ValueError.
        """
        if not (is_finite_real(T) and T >= 0):
            raise ValueError(f"the horizon must be finite and >= 0, got {T}")
        down, up = self.dual_rates()
        total = down + up
        lam = 1.05 * float(total.max())
        n = self.k_max + 1
        # mu_k = mu_(k-1) * (2 / k)
        mu = np.cumprod(np.concatenate(([1.0], 2.0 / np.arange(1, n))))
        mass_in = float(mu.sum())

        n_lo, w = _poisson_window(lam * T)
        n_hi = n_lo + len(w) - 1
        stay = (lam - total) / lam
        p_down = down / lam
        p_up = up / lam
        levels = (n_hi.bit_length() + 1) // 2
        s = 1 << levels
        q = np.diag(stay)
        k = np.arange(1, n)
        q[k, k - 1] = p_down[1:]
        q[k - 1, k] = p_up[:-1]
        # the column of the absorbing sink past k_max, kept apart from q:
        # the up-move out of k_max leads there, and the sink keeps its mass
        sink = np.zeros(n)
        sink[-1] = p_up[-1]
        for _ in range(levels):
            sink = q @ sink + sink
            q = q @ q
            q[q < _FLUSH] = 0.0
            sink[sink < _FLUSH] = 0.0
        b_lo, b_hi = n_lo // s, n_hi // s
        # each block start with the mass it has sunk
        y, sunk = mu, 0.0
        for _ in range(b_lo):
            y, sunk = y @ q, sunk + float(y @ sink)
        starts, sunks = [y], [sunk]
        for _ in range(b_lo, b_hi):
            starts.append(starts[-1] @ q)
            sunks.append(sunks[-1] + float(starts[-2] @ sink))
        blocks = np.zeros((b_hi - b_lo + 1) * s)
        blocks[n_lo - b_lo * s : n_hi - b_lo * s + 1] = w
        weights = blocks.reshape(-1, s).T
        z, z_sunk = weights @ np.array(starts), (weights @ np.array(sunks)).tolist()
        acc, outflow = z[-1], z_sunk[-1]
        for zi, zi_sunk in zip(z[-2::-1], z_sunk[-2::-1]):
            nxt = acc * stay + zi
            nxt[:-1] += acc[1:] * p_down[1:]
            nxt[1:] += acc[:-1] * p_up[:-1]
            outflow = outflow + float(acc[-1] * p_up[-1]) + zi_sunk
            acc = nxt

        bound = outflow * 2.0 ** -(self.k_max + 1)
        if bound > _DUAL_TAIL_THRESHOLD:
            raise EscapeMassError(
                f"escaped dual mass {outflow:.3e} bounds the evaluation error by "
                f"{bound:.3e} > {_DUAL_TAIL_THRESHOLD:.1e}; increase k_max"
            )
        squarings = sum((s >> j) * min((1 << j) + 1, n) for j in range(1, levels + 1))
        roundings = (
            2 * self.k_max  # mu
            + 2 * n_hi  # P's entries
            + 3 * len(w)  # the weights and lam T
            + b_hi * (squarings + min(2 * s + 1, n))  # Q and the block products
            + (b_hi - b_lo + 1)  # the block sums
            + 4 * (s - 1)  # the Horner steps
            + 2 * self.k_max  # evaluate
        )
        value_at_one = float(acc @ 0.5 ** np.arange(n))
        flushed = b_hi * s * n * _FLUSH * mass_in
        return DualResult(acc, outflow, bound, roundings * _UNIT_ROUNDOFF * value_at_one + flushed)


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
