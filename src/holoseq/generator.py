"""Generator action on coefficient sequences.

Applies the extended generator of a jump-diffusion to the coefficients of a
holomorphic function: for h_u the series of degree <= N, L(u) collects the
coefficients of A h_u, and R(u) those of e^{-h_u} A e^{h_u} (the quadratic
form driving the exponential-moment flow).

L is linear and fixed by the characteristics and the order, so it is compiled
once per ``Characteristics`` into a dense read-only n x n matrix, and each
linear right-hand side is one matrix-vector product. Drift and diffusion are
multiplication matrices with their columns placed by a coefficient shift.
Each jump atom is its composition map u -> u o (id + j) minus the identity,
compensated in degree one, weighted, multiplied by the intensity and
pole-divided. R is L plus the quadratic diffusion term plus, per atom,
exp*(g) - 1 - g for g = u o j - u, multiplied and pole-divided alike.
"""

from __future__ import annotations

import numpy as np

from holoseq import series as ser
from holoseq.characteristics import Characteristics
from holoseq.series import CoeffSeries

__all__ = [
    "apply_l_composition",
    "apply_r",
]


def _basis(dim: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(dim))


def _mul_matrix(b: CoeffSeries) -> np.ndarray:
    """Matrix of u -> mul(u, b): row out, column left, weight w * b[right]."""
    out, left, right, w = ser._conv_table(b.dim, b.order)
    n = len(b.coeffs)
    return ser._row_sum(out * n + left, w * b.coeffs[right], n * n).reshape(n, n)


def _mul_shift_matrix(b: CoeffSeries, beta: tuple[int, ...]) -> np.ndarray:
    """Matrix of u -> mul(shift(u, beta), b): the columns of mul by b, placed
    where the shift reads them."""
    m = _mul_matrix(b)
    dst, src = ser._shift_table(b.dim, b.order, beta)
    out = np.zeros_like(m)
    out[:, src] = m[:, dst]
    return out


def _compile_l(chars: Characteristics) -> np.ndarray:
    dim, order = chars.dim, chars.order
    n = len(ser.index_table(dim, order)[0])
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(dim):
        out += _mul_shift_matrix(chars.drift[i], _basis(dim, i))
    for i in range(dim):
        for j in range(i, dim):
            beta = tuple(a + b for a, b in zip(_basis(dim, i), _basis(dim, j)))
            w = 0.5 if i == j else 1.0
            out += w * _mul_shift_matrix(chars.diffusion[i][j], beta)
    k = chars.kernel
    if k is not None and k.atoms:
        jumps = np.zeros((n, n), dtype=np.complex128)
        for atom in k.atoms:
            term = ser._compose_map(atom.size) - np.eye(n)
            for i in range(dim):
                term -= _mul_shift_matrix(atom.size[i], _basis(dim, i))
            jumps += atom.weight * term
        jumps = _mul_matrix(k.intensity) @ jumps
        for _ in range(k.pole_order):
            jumps = ser._divide_coeffs(jumps, dim, order)
        out += jumps
    out.setflags(write=False)
    return out


def _linear(u: CoeffSeries, chars: Characteristics) -> np.ndarray:
    """L u against the matrix compiled on first use and kept on ``chars``."""
    ser._check_same_shape(u, chars.drift[0])
    if chars._l_matrix is None:
        object.__setattr__(chars, "_l_matrix", _compile_l(chars))
    return chars._l_matrix @ u.coeffs


def apply_l_composition(u: CoeffSeries, chars: Characteristics) -> CoeffSeries:
    """L(u) with the jump part as a compensated shifted composition.

    Per atom: u o j_m - u - sum_i u^(e_i) * j_m[i], then weighted, multiplied
    by the intensity and pole-divided. The composition map is exact for the
    truncated polynomial h_u whatever the jump sizes, so the only
    approximation is the truncation of h_u itself. Raises
    LeadingCoefficientError when a pole intensity meets a jump part that
    does not vanish at the origin.
    """
    return CoeffSeries(u.dim, u.order, _linear(u, chars))


def apply_r(u: CoeffSeries, chars: Characteristics) -> CoeffSeries:
    """R(u): coefficients of e^{-h_u} A e^{h_u}.

    R(u) = L(u) + sum over unordered coordinate pairs (i, j) of
    a[i][j] * u^(e_i) * u^(e_j) / (e_i + e_j)!  plus, per atom,
    exp*(g) - 1 - g for g = u o j - u, weighted, multiplied by the intensity
    and pole-divided: with L's compensated jump part that makes
    exp*(g) - 1 - u^(1) . j. The unordered-pair weight reproduces
    (1/2) grad(h)^T a grad(h).
    """
    dim = chars.dim
    out = _linear(u, chars)
    grads = [ser.shift(u, _basis(dim, i)) for i in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            a = chars.diffusion[i][j]
            if not a.coeffs.any():
                continue
            w = 0.5 if i == j else 1.0
            out = out + w * ser.mul(a, ser.mul(grads[i], grads[j])).coeffs
    k = chars.kernel
    if k is not None and k.atoms:
        one = ser.unit(dim, u.order)
        acc = ser.zero(dim, u.order)
        for atom in k.atoms:
            g = ser.compose_shift(u, atom.size) - u
            acc = acc + atom.weight * (ser.exp_star(g) - one - g)
        tilt = ser.mul(k.intensity, acc)
        for _ in range(k.pole_order):
            tilt = ser.divide_by_coordinate(tilt, 0)
        out = out + tilt.coeffs
    return CoeffSeries(dim, u.order, out)
