"""Moment form of the generator: the reference the composition form is checked against.

L(u) = sum_{|beta|=1} u^(beta) * b^beta
     + sum_{|beta|=2} (1/beta!) u^(beta) * (a^beta + m^beta)
     + sum_{3 <= |beta| <= b_max} (1/beta!) u^(beta) * m^beta

with jump moment series m^beta = lambda * sum_m w_m j_m^{*beta}. It contracts
shifted coefficients against jump moments instead of composing u with the
jump sizes. It shares no code with ``holoseq.generator``, whose compiled
matrix it checks: its drift and diffusion part is the per-call series
assembly of ``reference_kernels``.
"""

import math

from holoseq import series as ser
from holoseq.characteristics import Characteristics
from holoseq.series import CoeffSeries

from reference_kernels import divide_by_coordinate, drift_diffusion_series


def moment_series(chars: Characteristics, beta) -> CoeffSeries:
    """m^beta = lambda * sum_m w_m j_m^{*beta}, defined for |beta| >= 2.

    Degree-one moments are rejected: they are absorbed by the compensator and
    never appear in the generator.
    """
    b = tuple(int(x) for x in beta)
    if sum(b) < 2:
        raise ValueError(f"moment series requires |beta| >= 2, got {b}")
    if chars.kernel is None:
        raise ValueError("characteristics carry no jump kernel")
    k = chars.kernel
    acc = None
    for atom in k.atoms:
        power = ser.unit(chars.dim, chars.order)
        for v, e in zip(atom.size, b):
            for _ in range(e):
                power = ser.mul(power, v)
        term = atom.weight * power
        acc = term if acc is None else acc + term
    if acc is None:
        return ser.zero(chars.dim, chars.order)
    out = ser.mul(k.intensity, acc)
    for _ in range(k.pole_order):
        out = divide_by_coordinate(out, 0)
    return out


def apply_l_moment(u: CoeffSeries, chars: Characteristics, b_max: int | None = None) -> CoeffSeries:
    """L(u) with the jump part contracted against m^beta for 2 <= |beta| <= b_max
    (default: the series order)."""
    cap = u.order if b_max is None else b_max
    out = drift_diffusion_series(u, chars)
    if chars.kernel is None:
        return out
    for beta in ser.index_table(chars.dim, cap)[0]:
        if sum(beta) < 2:
            continue
        m = moment_series(chars, beta)
        if not m.coeffs.any():
            continue
        fact = math.prod(math.factorial(x) for x in beta)
        out = out + (1.0 / fact) * ser.mul(ser.shift(u, beta), m)
    return out
