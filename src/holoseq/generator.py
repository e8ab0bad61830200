"""Generator action on coefficient sequences.

Applies the extended generator of a jump-diffusion to the coefficients of a
holomorphic function: for h_u the series of degree <= N, L(u) collects the
coefficients of A h_u, and R(u) those of e^{-h_u} A e^{h_u} (the quadratic
form driving the exponential-moment flow).

What depends only on the characteristics and the order is compiled once per
``Characteristics``, on first use, and kept read-only on it. L is linear, so
it is a dense n x n matrix: ``apply_l_composition`` is one matrix-vector
product, and the linear flow takes the matrix's exponential action
(``l_matrix``). Drift and diffusion are the matrices of the product rows of
``series._mul_rows``. Each jump atom is its composition map
u -> u o (id + j) minus the identity, compensated in degree one, weighted,
multiplied by the intensity and pole-divided. R is L plus the quadratic
diffusion term plus, per atom, exp*(g) - 1 - g for g = u o j - u,
multiplied and pole-divided alike. The quadratic term is compiled into rows
(out, left, right, weight), so it costs one gather and one row sum; the
atoms' tilt depends on u through exp*, so it runs per call.

``linear_closes`` and ``riccati_closes`` decide from the characteristics'
degrees whether L or R maps the exponents of degree <= d into themselves:
then the flow of a payoff of degree <= d stays there, and runs exactly at
order d.
"""

from __future__ import annotations

import numpy as np

from holoseq import series as ser
from holoseq.characteristics import Characteristics
from holoseq.series import CoeffSeries

__all__ = [
    "apply_l_composition",
    "apply_r",
    "l_matrix",
    "l_norm",
    "linear_closes",
    "riccati_closes",
]


def _basis(dim: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(dim))


def _mul_matrix(b: CoeffSeries, beta: tuple[int, ...] | None = None) -> np.ndarray:
    """Matrix of u -> mul(shift(u, beta), b): row out, column left, weight w * b[right]."""
    out, left, right, w = ser._mul_rows(b, beta)
    n = len(b.coeffs)
    return ser._row_sum(out * n + left, w * b.coeffs[right], n * n).reshape(n, n)


def _compile_l(chars: Characteristics) -> np.ndarray:
    dim, order = chars.dim, chars.order
    n = len(ser.index_table(dim, order)[0])
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(dim):
        out += _mul_matrix(chars.drift[i], _basis(dim, i))
    for i in range(dim):
        for j in range(i, dim):
            beta = tuple(a + b for a, b in zip(_basis(dim, i), _basis(dim, j)))
            w = 0.5 if i == j else 1.0
            out += w * _mul_matrix(chars.diffusion[i][j], beta)
    k = chars.kernel
    if k is not None and k.atoms:
        jumps = np.zeros((n, n), dtype=np.complex128)
        for atom in k.atoms:
            term = ser._compose_map(atom.size) - np.eye(n)
            for i in range(dim):
                term -= _mul_matrix(atom.size[i], _basis(dim, i))
            jumps += atom.weight * term
        jumps = _mul_matrix(k.intensity) @ jumps
        for _ in range(k.pole_order):
            jumps = ser._divide_coeffs(jumps, dim, order)
        out += jumps
    out.setflags(write=False)
    return out


def _compile_quadratic(chars: Characteristics) -> tuple[np.ndarray, ...]:
    """Rows (out, left, right, weight) of the quadratic diffusion term.

    sum over i <= j of w_ij a_ij * u^(e_i) * u^(e_j), with w_ii = 1/2 and
    w_ij = 1 otherwise, is sum_rows weight u[left] u[right] by output index.
    Each product of shifted coefficients is a row of ``_conv_table`` whose
    indices are moved to where the shifts read them (rows reading above the
    order vanish and are dropped). Multiplying by a_ij joins those rows with
    the rows of a_ij's support only. Rows with the same output and the same
    unordered pair of reads are merged, so the rows come sorted by output.
    """
    dim, order = chars.dim, chars.order
    out, left, right, w = ser._conv_table(dim, order)
    n = len(ser.index_table(dim, order)[0])
    at = [ser._shift_table(dim, order, _basis(dim, i)) for i in range(dim)]
    empty = np.zeros(0, dtype=np.int64)
    parts = [(empty, empty, empty, np.zeros(0, dtype=np.complex128))]
    for i in range(dim):
        for j in range(i, dim):
            a = chars.diffusion[i][j].coeffs
            if not a.any():
                continue
            # rows of u^(e_i) * u^(e_j), grouped by output gamma
            keep = (at[i][left] >= 0) & (at[j][right] >= 0)
            g_l, g_r, g_w = at[i][left[keep]], at[j][right[keep]], w[keep]
            count = np.bincount(out[keep], minlength=n)
            first = np.cumsum(count) - count
            # rows of a * (.) with a_beta != 0, each joined with every row of
            # its gamma: rows holds first[gamma] + 0, 1, ..., count[gamma] - 1
            # for each of them in turn
            o = np.flatnonzero(a[left] != 0)
            reps = count[right[o]]
            rows = np.arange(reps.sum()) + np.repeat(first[right[o]] - (np.cumsum(reps) - reps), reps)
            scale = (0.5 if i == j else 1.0) * w[o] * a[left[o]]
            parts.append((np.repeat(out[o], reps), g_l[rows], g_r[rows], np.repeat(scale, reps) * g_w[rows]))
    q_out, q_l, q_r, q_w = (np.concatenate(c) for c in zip(*parts))
    key = (q_out * n + np.minimum(q_l, q_r)) * n + np.maximum(q_l, q_r)
    key, inv = np.unique(key, return_inverse=True)
    table = (key // (n * n), key // n % n, key % n, ser._row_sum(inv, q_w, len(key)))
    for t in table:
        t.setflags(write=False)
    return table


def l_matrix(chars: Characteristics) -> np.ndarray:
    """The read-only matrix of L at ``chars``' order, compiled on first use
    and kept on ``chars`` with its 1-norm (``l_norm``)."""
    if chars._l_matrix is None:
        m = _compile_l(chars)
        object.__setattr__(chars, "_l_norm", float(np.linalg.norm(m, 1)))
        object.__setattr__(chars, "_l_matrix", m)
    return chars._l_matrix


def l_norm(chars: Characteristics) -> float:
    """||L||_1 of ``l_matrix(chars)``, computed once with it."""
    l_matrix(chars)
    return chars._l_norm


def _linear(u: CoeffSeries, chars: Characteristics) -> np.ndarray:
    """L u against the compiled matrix."""
    ser._check_same_shape(u, chars.drift[0])
    return l_matrix(chars) @ u.coeffs


def apply_l_composition(u: CoeffSeries, chars: Characteristics) -> CoeffSeries:
    """L(u) with the jump part as a compensated shifted composition.

    Per atom: u o j_m - u - sum_i u^(e_i) * j_m[i], then weighted, multiplied
    by the intensity and pole-divided. The composition map is exact for the
    truncated polynomial h_u whatever the jump sizes, so the only
    approximation is the truncation of h_u itself. A call is one product
    with ``l_matrix(chars)``, compiled on first use; the compile step raises
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

    L and the rows of the quadratic term are compiled on first use and kept
    on ``chars``; a call is one matrix-vector product, one gather and row
    sum, and per atom one ``compose_shift`` (a product with the atom's cached
    composition map) and one ``exp_star`` on the raw array, then one ``mul``
    by the intensity and the pole division. Raises LeadingCoefficientError
    as ``apply_l_composition`` does.
    """
    dim, order = u.dim, u.order
    c = u.coeffs
    out = _linear(u, chars)
    if chars._r_rows is None:
        object.__setattr__(chars, "_r_rows", _compile_quadratic(chars))
    q_out, q_left, q_right, q_weight = chars._r_rows
    out += ser._row_sum(q_out, q_weight * c[q_left] * c[q_right], len(out))
    k = chars.kernel
    if k is not None and k.atoms:
        acc = np.zeros_like(out)
        for atom in k.atoms:
            g = ser.compose_shift(u, atom.size).coeffs - c
            e = ser._exp_star(g, dim, order)
            term = e - g
            term[0] = e[0] - 1.0 - g[0]  # (e - 1) - g, the 1 in degree zero
            acc += atom.weight * term
        tilt = ser.mul(k.intensity, CoeffSeries(dim, order, acc)).coeffs
        for _ in range(k.pole_order):
            tilt = ser._divide_coeffs(tilt, dim, order)
        out += tilt
    return CoeffSeries(dim, order, out)


def linear_closes(chars: Characteristics) -> bool:
    """Whether L maps degree <= d into degree <= d, for every d.

    True for a polynomial model (Cuchiero, Keller-Ressel and Teichmann,
    Finance Stoch. 2012): no pole, drift of degree <= 1, diffusion of
    degree <= 2, and every atom of positive weight either of constant size
    with an intensity of degree <= 2, or of size degree <= 1 with a constant
    intensity. An atom of zero weight or zero size adds nothing.
    """
    deg = chars.degrees
    if chars.kernel is not None and chars.kernel.pole_order:
        return False
    return (
        deg.drift <= 1
        and deg.diffusion <= 2
        and all((s == 0 and deg.intensity <= 2) or (s <= 1 and deg.intensity <= 0) for s in deg.atoms)
    )


def riccati_closes(chars: Characteristics, d: int) -> bool:
    """Whether R maps degree <= d into degree <= d.

    R adds to L the quadratic term, of degree deg a + 2 (d - 1), and per
    atom exp*(u o j - u), a full series unless u o j - u is constant. So:
    no pole, drift of degree <= 1, diffusion of degree <= 2 - d (zero for
    d >= 3), and an atom of positive weight and nonzero size only for d = 1,
    with constant sizes and an intensity of degree <= 1. At d = 1 these are
    the affine models (Duffie, Filipovic and Schachermayer, Ann. Appl.
    Probab. 2003).
    """
    deg = chars.degrees
    if chars.kernel is not None and chars.kernel.pole_order:
        return False
    return (
        deg.drift <= 1
        and deg.diffusion <= max(2 - d, -1)
        and (not deg.atoms or (d == 1 and max(deg.atoms) == 0 and deg.intensity <= 1))
    )
