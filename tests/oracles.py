"""Closed-form, pointwise and ODE oracles that exist only to check the engine.

Each takes the model object it checks as its first argument: the scalar
affine transform of an ``AffineSpec``, the dual chain's coefficients in the
sequence convention, the generator at one state by finite differences, and
``ode_flow``, the reference flow of any series operator by the package's
adaptive 8(5,3) integrator ``odeflow.dopri5``.
``_affine_f(spec, tau, lin=False)`` is the Lévy exponent of a spec with
b1 = a1 = l1 = 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from holoseq import series as ser
from holoseq.characteristics import Characteristics, JumpAtom, JumpKernel
from holoseq.models import DualResult
from holoseq.montecarlo import generator_values
from holoseq.odeflow import FlowResult, OdeConfig, dopri5
from holoseq.series import CoeffSeries


@dataclass(frozen=True)
class AffineSpec:
    """State-affine dynamics in dimension one:
    b(x) = b0 + b1 x, a(x) = a0 + a1 x, intensity l0 + l1 x, constant jump
    sizes. Exponential moments then close over affine exponents:
    psi' = F1(psi), phi' = F0(psi) with Fk(u) = bk u + ak u^2/2
    + lk sum_m w_m (e^(u xi_m) - 1 - u xi_m).
    With b1 = a1 = l1 = 0 this is a Levy process, whose exponent F0 is then
    constant along the flow: E[exp(tau X_T)] = exp(tau x + T F0(tau)).
    """

    b0: float = 0.0
    b1: float = 0.0
    a0: float = 0.0
    a1: float = 0.0
    l0: float = 0.0
    l1: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()

    def to_characteristics(self, order: int) -> Characteristics:
        def lin(c0, c1):
            # no slope entry when it is zero, so a constant spec runs at order 0
            return ser.from_entries(1, order, [((0,), c0)] + ([((1,), c1)] if c1 else []))

        kernel = None
        if self.atoms and (self.l0 or self.l1):
            kernel = JumpKernel(
                lin(self.l0, self.l1),
                tuple(JumpAtom(w, (lin(xi, 0.0),)) for w, xi in self.atoms),
                0,
            )
        return Characteristics(1, (lin(self.b0, self.b1),), ((lin(self.a0, self.a1),),), kernel)


# the ``affine-linear-jumps`` preset
AFFINE_LINEAR_JUMPS = AffineSpec(
    b0=0.1, b1=0.2, a0=0.3, a1=0.0, l0=1.0, l1=0.0, atoms=((1.0, 0.4), (1.0, -0.3))
)


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

    _, ys, _ = dopri5(rhs, 0.0, T, y0, OdeConfig(rtol=rtol, atol=1e-14))
    return complex(ys[-1][0]), complex(ys[-1][1])


def ode_flow(op, u0: CoeffSeries, T: float, config: OdeConfig | None = None) -> FlowResult:
    """u' = op(u) from u0 over [0, T] by dopri5 under ``config``, at u0's
    order, with the flows' error weights 1 / alpha!; the stats add that
    ``order``."""

    def rhs(t, y):
        return op(CoeffSeries(u0.dim, u0.order, y)).coeffs

    times, states, stats = dopri5(rhs, 0.0, T, u0.coeffs, config, ser.taylor_weights(u0.dim, u0.order))
    return FlowResult(times, tuple(CoeffSeries(u0.dim, u0.order, y) for y in states), dict(stats, order=u0.order))


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
