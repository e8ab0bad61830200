"""Closed-form and pointwise oracles that exist only to check the engine.

Each takes the model object it checks as its first argument: the scalar
affine transform of an ``AffineSpec``, the dual chain's coefficients in the
sequence convention, and the generator at one state by finite differences.
``_affine_f(spec, tau, lin=False)`` is the Lévy exponent of a spec with
b1 = a1 = l1 = 0.
"""

import math

import numpy as np

from holoseq.characteristics import Characteristics
from holoseq.models import AffineSpec, DualResult
from holoseq.montecarlo import generator_values
from holoseq.odeflow import dopri5
from holoseq.series import CoeffSeries


def _affine_f(spec: AffineSpec, u: complex, lin: bool) -> complex:
    """F1(u) when ``lin``, else F0(u) (see ``AffineSpec``)."""
    b, a, lam = (spec.b1, spec.a1, spec.l1) if lin else (spec.b0, spec.a0, spec.l0)
    out = b * u + 0.5 * a * u * u
    if lam:
        for w, xi in spec.atoms:
            out += lam * w * (np.exp(u * xi) - 1.0 - u * xi)
    return complex(out)


def affine_transform(spec: AffineSpec, tau: complex, T: float, rtol: float = 1e-11):
    """(phi(T), psi(T)) with E[exp(tau X_T) | x] = exp(phi + psi x)."""
    y0 = np.array([0.0, tau], dtype=np.complex128)

    def rhs(t, y):
        return np.array([_affine_f(spec, y[1], False), _affine_f(spec, y[1], True)])

    _, ys, _ = dopri5(rhs, 0.0, T, y0, rtol=rtol, atol=1e-14)
    return complex(ys[-1][0]), complex(ys[-1][1])


def dual_series(res: DualResult, order: int = 40) -> CoeffSeries:
    """Leading dual coefficients in the standard sequence convention
    (u_k = nu_k k! / 2^k); the factorial caps usable orders around 100."""
    m = min(order + 1, len(res.coefficients))
    logs = np.array([math.lgamma(k + 1) - k * math.log(2.0) for k in range(m)])
    c = np.zeros(order + 1, dtype=np.complex128)
    c[:m] = res.coefficients[:m] * np.exp(logs)
    return CoeffSeries(1, order, c)


def pointwise_generator(chars: Characteristics, f, x) -> complex:
    """Generator value at one state; the independent oracle for the series route."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    return complex(generator_values(chars, f, pt[None, :])[0])


def affine_mgf(spec: AffineSpec, tau: float, T: float, x: float) -> float:
    """E[exp(tau X_T) | X_0 = x] in closed form for a real spec with
    a1 = l1 = 0: psi(t) = tau e^(b1 t), and phi(T) integrates F0(psi)
    exactly, each atom's e^(psi xi) through the exponential integral Ei
    when b1 != 0."""
    if spec.a1 or spec.l1:
        raise ValueError("the closed form needs a1 = l1 = 0")
    b = spec.b1
    if b == 0:
        return math.exp(tau * x + T * _affine_f(spec, tau, False).real)
    from scipy.special import expi

    grow = math.expm1(b * T)  # e^(b T) - 1
    phi = spec.b0 * tau * grow / b + spec.a0 * tau * tau * math.expm1(2 * b * T) / (4 * b)
    for w, xi in spec.atoms:
        z = tau * xi
        phi += spec.l0 * w * ((expi(z * math.exp(b * T)) - expi(z)) / b - T - z * grow / b)
    return math.exp(phi + tau * math.exp(b * T) * x)
