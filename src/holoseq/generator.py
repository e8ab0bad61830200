"""Generator action on coefficient sequences.

Applies the extended generator of a jump-diffusion to the coefficients of a
holomorphic function: for h_u the series of degree <= N, L(u) collects the
coefficients of A h_u, and R(u) those of e^{-h_u} A e^{h_u} (the quadratic
form driving the exponential-moment flow).

L and R share one assembly. Drift and diffusion multiply shifted coefficients
by the characteristic series. Each jump atom contributes the shifted
composition g = u o j - u, compensated in degree one, weighted, multiplied by
the intensity and pole-divided; R replaces g by exp*(g) - 1.
"""

from __future__ import annotations

from typing import Callable

from holoseq import series as ser
from holoseq.characteristics import Characteristics
from holoseq.series import CoeffSeries

__all__ = [
    "apply_l_composition",
    "apply_r",
]


def _basis(dim: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(dim))


def _is_zero(s: CoeffSeries) -> bool:
    return not s.coeffs.any()


def _drift_diffusion_part(u: CoeffSeries, chars: Characteristics) -> CoeffSeries:
    # identically-zero characteristics are skipped: they contribute nothing
    dim = chars.dim
    out = ser.zero(dim, u.order)
    for i in range(dim):
        if not _is_zero(chars.drift[i]):
            out = out + ser.mul(ser.shift(u, _basis(dim, i)), chars.drift[i])
    for i in range(dim):
        for j in range(i, dim):
            if _is_zero(chars.diffusion[i][j]):
                continue
            beta = tuple(
                (2 if k == i else 0) if i == j else (1 if k in (i, j) else 0)
                for k in range(dim)
            )
            w = 0.5 if i == j else 1.0
            out = out + w * ser.mul(ser.shift(u, beta), chars.diffusion[i][j])
    return out


def _jump_part(
    u: CoeffSeries, chars: Characteristics, tilt: Callable[[CoeffSeries], CoeffSeries]
) -> CoeffSeries:
    """lambda * sum_m w_m (tilt(u o j_m - u) - sum_i u^(e_i) * j_m[i]), pole-divided."""
    dim = chars.dim
    k = chars.kernel
    acc = None
    for atom in k.atoms:
        term = tilt(ser.compose_shift(u, atom.size) - u)
        for i in range(dim):
            term = term - ser.mul(ser.shift(u, _basis(dim, i)), atom.size[i])
        term = atom.weight * term
        acc = term if acc is None else acc + term
    out = ser.mul(k.intensity, acc)
    for _ in range(k.pole_order):
        out = ser.divide_by_coordinate(out, 0)
    return out


def apply_l_composition(u: CoeffSeries, chars: Characteristics) -> CoeffSeries:
    """L(u) with the jump part as a compensated shifted composition.

    Per atom: u o j_m - u - sum_i u^(e_i) * j_m[i], then weighted, multiplied
    by the intensity and pole-divided. ``compose_shift`` is exact for the
    truncated polynomial h_u whatever the jump sizes, so the only
    approximation is the truncation of h_u itself.
    """
    out = _drift_diffusion_part(u, chars)
    if chars.kernel is not None and chars.kernel.atoms:
        out = out + _jump_part(u, chars, lambda g: g)
    return out


def apply_r(u: CoeffSeries, chars: Characteristics) -> CoeffSeries:
    """R(u): coefficients of e^{-h_u} A e^{h_u}.

    R(u) = L(u) + sum over unordered coordinate pairs (i, j) of
    a[i][j] * u^(e_i) * u^(e_j) / (e_i + e_j)!  plus, per atom,
    exp*(u o j - u) - 1 - u^(1) . j in place of the linear jump part.
    The unordered-pair weight reproduces (1/2) grad(h)^T a grad(h).
    """
    dim = chars.dim
    out = _drift_diffusion_part(u, chars)
    for i in range(dim):
        for j in range(i, dim):
            if _is_zero(chars.diffusion[i][j]):
                continue
            w = 0.5 if i == j else 1.0
            grad2 = ser.mul(ser.shift(u, _basis(dim, i)), ser.shift(u, _basis(dim, j)))
            out = out + w * ser.mul(chars.diffusion[i][j], grad2)
    if chars.kernel is not None and chars.kernel.atoms:
        one = ser.unit(dim, u.order)
        out = out + _jump_part(u, chars, lambda g: ser.exp_star(g) - one)
    return out
