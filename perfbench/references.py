"""Independent reference values for the benchmark's correctness checks.

Nothing here imports holoseq: every value comes from a closed form, from
scipy's ODE solver or from scipy's matrix exponential, so a fault in the
program cannot also sit in the number it is checked against.  scipy is
imported inside the functions, after the benchmark's set-up has been timed.
"""

from __future__ import annotations

import math

import numpy as np


def levy_exponent(tau: float, a: float, atoms) -> float:
    """kappa(tau) with E[exp(tau (X_t - x0))] = exp(t kappa(tau)) for the
    driftless compensated Levy process with variance a and rate-1 atoms
    (weight, size)."""
    out = 0.5 * a * tau * tau
    for w, xi in atoms:
        out += w * (math.exp(tau * xi) - 1.0 - tau * xi)
    return out


def levy_raw_moments(x0: float, T: float, a: float, atoms, degree: int) -> np.ndarray:
    """E[X_T^k], k = 0..degree, from the cumulants of the same process.

    kappa_1 = x0, kappa_2 = (a + sum w xi^2) T and kappa_n = T sum w xi^n for
    n >= 3 (the compensator is linear, so it only enters kappa_1).  Moments
    follow from the recursion m_n = sum_k C(n-1, k-1) kappa_k m_{n-k}.
    """
    kappa = [0.0] * (degree + 1)
    if degree >= 1:
        kappa[1] = x0
    for n in range(2, degree + 1):
        kappa[n] = T * sum(w * xi**n for w, xi in atoms)
    if degree >= 2:
        kappa[2] += a * T
    m = [1.0] + [0.0] * degree
    for n in range(1, degree + 1):
        m[n] = sum(math.comb(n - 1, k - 1) * kappa[k] * m[n - k] for k in range(1, n + 1))
    return np.array(m)


def gaussian_quadratic_mgf(tau: float, gamma: float, mean: float, var: float) -> float:
    """E[exp(tau X + gamma X^2)] for X ~ N(mean, var), 2 gamma var < 1."""
    s = 1.0 - 2.0 * gamma * var
    if s <= 0:
        raise ValueError("E[exp(gamma X^2)] is infinite for 2 gamma var >= 1")
    return math.exp((gamma * mean * mean + tau * mean + 0.5 * tau * tau * var) / s) / math.sqrt(s)


class AffineModel:
    """State-affine jump-diffusion in dimension d, in plain arrays.

    b(x) = b0 + B x, a(x) = A0 + sum_k x_k A[k], intensity l0 + l . x, and
    atoms (w_m, xi_m) of constant jump size.  The kernel is compensated, as in
    the program: the generator's jump term is f(x + xi) - f(x) - grad f . xi.
    """

    def __init__(self, b0, B, A0, A, l0, l, atoms):
        self.b0 = np.asarray(b0, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.A0 = np.asarray(A0, dtype=float)
        self.A = np.asarray(A, dtype=float)
        self.l0 = float(l0)
        self.l = np.asarray(l, dtype=float)
        self.atoms = [(float(w), np.asarray(xi, dtype=float)) for w, xi in atoms]
        self.dim = self.b0.size

    def _jump(self, psi: np.ndarray) -> float:
        return sum(w * (math.exp(psi @ xi) - 1.0 - psi @ xi) for w, xi in self.atoms)

    def riccati_rhs(self, psi: np.ndarray) -> tuple[float, np.ndarray]:
        """(phi', psi') of E[exp(psi0 . X_t)] = exp(phi(t) + psi(t) . x)."""
        j = self._jump(psi)
        dphi = self.b0 @ psi + 0.5 * psi @ self.A0 @ psi + self.l0 * j
        dpsi = self.B.T @ psi + 0.5 * np.einsum("i,kij,j->k", psi, self.A, psi) + self.l * j
        return dphi, dpsi

    def mgf(self, tau, T: float, x0) -> float:
        """E[exp(tau . X_T) | X_0 = x0] from the Riccati system, solved with
        scipy's DOP853 at rtol 1e-13."""
        from scipy.integrate import solve_ivp

        def rhs(t, y):
            dphi, dpsi = self.riccati_rhs(y[1:])
            return np.concatenate([[dphi], dpsi])

        y0 = np.concatenate([[0.0], np.asarray(tau, dtype=float)])
        sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-13, atol=1e-15)
        if not sol.success:
            raise RuntimeError(f"reference Riccati solve failed: {sol.message}")
        y = sol.y[:, -1]
        return math.exp(y[0] + y[1:] @ np.asarray(x0, dtype=float))


def unit_interval_generator(k_max: int) -> np.ndarray:
    """Matrix M of the unit-interval generator on the basis f_k = (x/2)^k.

    With a(x) = x (1-x)(1-x/2), a kill-to-origin jump j(x) = -x at rate
    (1-x)(1-x/2)/x and no drift, A f_k = d_k f_{k-1} - 3 d_k f_k + 2 d_k f_{k+1}
    with d_k = (k+2)(k-1)/4; row k holds the image of f_k.  The image f_{k+1}
    of the last row falls outside the basis and is dropped.
    """
    k = np.arange(k_max + 1, dtype=float)
    d = (k + 2) * (k - 1) / 4.0
    d[:2] = 0.0
    m = np.diag(-3.0 * d)
    m[np.arange(1, k_max + 1), np.arange(k_max)] = d[1:]
    m[np.arange(k_max), np.arange(1, k_max + 1)] = 2.0 * d[:-1]
    return m


def unit_interval_mgf(T: float, x, scale: float = 1.0, k_max: int = 200) -> np.ndarray:
    """E[exp(scale X_T) | X_0 = x] on the unit-interval model: expand
    e^{scale x} = sum_k (2 scale)^k / k! f_k, propagate with scipy's expm of
    T M and evaluate at x."""
    from scipy.linalg import expm

    k = np.arange(k_max + 1)
    mu = np.exp(k * math.log(2.0 * scale) - np.array([math.lgamma(i + 1) for i in k]))
    coeffs = mu @ expm(T * unit_interval_generator(k_max))
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    basis = (xs[:, None] / 2.0) ** k[None, :]
    return basis @ coeffs


def chain_generator(rates) -> np.ndarray:
    q = np.array(rates, dtype=float)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def chain_expectation(rates, h, T: float) -> np.ndarray:
    """E_i[h(X_T)] for every start state i: scipy's expm(T Q) h."""
    from scipy.linalg import expm

    return expm(T * chain_generator(rates)) @ np.asarray(h, dtype=float)


def rel_err(value, ref) -> float:
    return abs(complex(value) - ref) / max(abs(ref), 1e-300)
