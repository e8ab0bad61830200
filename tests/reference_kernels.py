"""The per-index series kernels that ``holoseq.series`` replaced with tables.

``compose_shift`` sums (1/beta!) u^(beta) * v^{*beta} over every multi-index,
with one ``mul`` per index, and ``exp_star`` fills one coefficient per Python
iteration. ``holoseq.series`` now applies a cached composition map and steps
``exp_star`` by degree; the property tests check both against these.
"""

import numpy as np

from holoseq import series as ser
from holoseq.series import CoeffSeries


def compose_shift(u: CoeffSeries, vec) -> CoeffSeries:
    """h_u(z + v(z)) as sum_beta (1/beta!) u^(beta) * v^{*beta}, beta capped at the order."""
    dim, order = u.dim, u.order
    idx, _ = ser.index_table(dim, order)
    inv_fact = ser.taylor_weights(dim, order)
    # incremental vector powers in graded-lex order: pow[beta] = pow[beta - e_i] * v_i
    powers = {idx[0]: ser.unit(dim, order)}
    acc = np.array(u.coeffs, dtype=np.complex128)  # beta = 0 term
    for j, beta in enumerate(idx[1:], start=1):
        i = next(k for k, b in enumerate(beta) if b > 0)
        prev = tuple(b - 1 if k == i else b for k, b in enumerate(beta))
        powers[beta] = ser.mul(powers[prev], vec[i])
        acc += inv_fact[j] * ser.mul(ser.shift(u, beta), powers[beta]).coeffs
    return CoeffSeries(dim, order, acc)


def exp_star(u: CoeffSeries) -> CoeffSeries:
    """exp(h_u) by E_delta = (E * u^(e_i))_{delta - e_i}, one multi-index at a time."""
    dim, order = u.dim, u.order
    idx, lookup = ser.index_table(dim, order)
    out, left, right, w = ser._conv_table(dim, order)
    row_start = np.searchsorted(out, np.arange(len(idx) + 1))
    shifted = [
        ser.shift(u, tuple(1 if k == i else 0 for k in range(dim))).coeffs
        for i in range(dim)
    ]
    e = np.zeros(len(idx), dtype=np.complex128)
    e[0] = np.exp(u.coeffs[0])
    for j, delta in enumerate(idx):
        if j == 0:
            continue
        i = next(k for k, d in enumerate(delta) if d > 0)
        alpha = tuple(d - 1 if k == i else d for k, d in enumerate(delta))
        ia = lookup[alpha]
        rows = slice(row_start[ia], row_start[ia + 1])
        e[j] = np.sum(w[rows] * e[left[rows]] * shifted[i][right[rows]])
    return CoeffSeries(dim, order, e)
