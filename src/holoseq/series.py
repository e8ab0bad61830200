"""Truncated multivariate coefficient sequences and their convolution algebra.

A sequence u = (u_alpha) over multi-indices |alpha| <= N represents the
function h_u(z) = sum_alpha u_alpha z^alpha / alpha! (coefficients carry the
factorial normalisation, so polynomial data like z^2 is stored as u_2 = 2).
All operations are pure: they return new series and never mutate inputs.
Products and compositions drop every degree above N, and a shift by beta
zero-fills the top |beta| degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CoeffSeries",
    "SeriesVector",
    "SeriesMatrix",
    "LeadingCoefficientError",
    "EPS_DIV",
    "index_table",
    "from_entries",
    "unit",
    "zero",
    "degree",
    "with_order",
    "lin_comb",
    "mul",
    "shift",
    "exp_star",
    "log_star",
    "compose_shift",
    "taylor_weights",
    "evaluate",
    "real_points",
    "RealEvaluator",
]

# Division guard for the leading coefficient of log_star, which the
# log-linear route meets at T only (a c_0 that vanishes mid-flow is not
# seen), and for the pole division of _divide_coeffs.
EPS_DIV = 1e-12

MultiIndex = tuple[int, ...]


class LeadingCoefficientError(ValueError):
    """Raised when a degree-zero coefficient required for division vanishes."""


@lru_cache(maxsize=None)
def index_table(dim: int, order: int) -> tuple[tuple[MultiIndex, ...], dict[MultiIndex, int]]:
    """All multi-indices with |alpha| <= order in graded lexicographic order.

    Returns the ordered tuple of indices and the inverse lookup dict. The
    ordering (by total degree, then lexicographic) is the storage layout of
    every series of this shape, and the deterministic iteration order of all
    accumulations.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    indices: list[MultiIndex] = []
    for deg in range(order + 1):
        level = [a for a in product(range(deg + 1), repeat=dim) if sum(a) == deg]
        level.sort()
        indices.extend(level)
    lookup = {a: i for i, a in enumerate(indices)}
    return tuple(indices), lookup


@lru_cache(maxsize=None)
def _degrees(dim: int, order: int) -> np.ndarray:
    d = _index_matrix(dim, order).sum(axis=1)
    d.setflags(write=False)
    return d


@lru_cache(maxsize=None)
def _index_matrix(dim: int, order: int) -> np.ndarray:
    idx, _ = index_table(dim, order)
    m = np.array(idx, dtype=np.int64)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _conv_table(dim: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """COO tensor of the convolution product.

    (u * v)_alpha = sum_{beta + gamma = alpha} alpha!/(beta! gamma!) u_beta v_gamma.
    Rows are grouped by output index in graded-lex order, so accumulation
    order is deterministic. Weights are exact binomial integers in float.
    """
    idx, lookup = index_table(dim, order)
    out, left, right, weight = [], [], [], []
    for a in idx:
        ia = lookup[a]
        for b in product(*(range(k + 1) for k in a)):
            g = tuple(ak - bk for ak, bk in zip(a, b))
            w = 1.0
            for ak, bk in zip(a, b):
                w *= math.comb(ak, bk)
            out.append(ia)
            left.append(lookup[b])
            right.append(lookup[g])
            weight.append(w)
    arrs = (
        np.array(out, dtype=np.int64),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(weight, dtype=np.float64),
    )
    for a in arrs:
        a.setflags(write=False)
    return arrs


@lru_cache(maxsize=None)
def _shift_table(dim: int, order: int, beta: MultiIndex) -> np.ndarray:
    """Read-only index map of the shift by beta: at[alpha] is the index of
    alpha + beta, or -1 where |alpha + beta| is above the order."""
    idx, lookup = index_table(dim, order)
    at = np.array([lookup.get(tuple(a + b for a, b in zip(alpha, beta)), -1) for alpha in idx], dtype=np.int64)
    at.setflags(write=False)
    return at


@dataclass(frozen=True)
class CoeffSeries:
    """Dense truncated coefficient sequence over {|alpha| <= order}."""

    dim: int
    order: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        idx, _ = index_table(self.dim, self.order)
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (len(idx),):
            raise ValueError(
                f"coeffs shape {c.shape} does not match {len(idx)} indices "
                f"for dim={self.dim} order={self.order}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def indices(self) -> tuple[MultiIndex, ...]:
        return index_table(self.dim, self.order)[0]

    def coefficient(self, alpha: MultiIndex | int) -> complex:
        if isinstance(alpha, int):
            alpha = (alpha,)
        _, lookup = index_table(self.dim, self.order)
        return complex(self.coeffs[lookup[tuple(alpha)]])

    def __add__(self, other: "CoeffSeries") -> "CoeffSeries":
        return lin_comb((1.0, self), (1.0, other))

    def __sub__(self, other: "CoeffSeries") -> "CoeffSeries":
        return lin_comb((1.0, self), (-1.0, other))

    def __neg__(self) -> "CoeffSeries":
        return CoeffSeries(self.dim, self.order, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CoeffSeries):
            return mul(self, other)
        return CoeffSeries(self.dim, self.order, self.coeffs * complex(other))

    __rmul__ = __mul__

    def __repr__(self) -> str:  # short: full arrays are noisy in test output
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[: min(6, len(self.coeffs))])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"CoeffSeries(dim={self.dim}, order={self.order}, [{head}{tail}])"


SeriesVector = tuple[CoeffSeries, ...]
SeriesMatrix = tuple[tuple[CoeffSeries, ...], ...]


def _check_same_shape(*series: CoeffSeries) -> tuple[int, int]:
    dims = {u.dim for u in series}
    orders = {u.order for u in series}
    if len(dims) != 1 or len(orders) != 1:
        raise ValueError(
            f"series shapes differ: dims={sorted(dims)} orders={sorted(orders)}"
        )
    return series[0].dim, series[0].order


def from_entries(
    dim: int,
    order: int,
    entries: Iterable[tuple[Sequence[int], complex]],
) -> CoeffSeries:
    """Build a series from sparse (multi-index, value) pairs; rest is zero."""
    idx, lookup = index_table(dim, order)
    c = np.zeros(len(idx), dtype=np.complex128)
    for alpha, value in entries:
        key = tuple(int(a) for a in alpha)
        if key not in lookup:
            raise ValueError(f"multi-index {key} outside dim={dim} order={order}")
        c[lookup[key]] += complex(value)
    return CoeffSeries(dim, order, c)


def zero(dim: int, order: int) -> CoeffSeries:
    idx, _ = index_table(dim, order)
    return CoeffSeries(dim, order, np.zeros(len(idx), dtype=np.complex128))


def unit(dim: int, order: int) -> CoeffSeries:
    """Multiplicative unit (1, 0, 0, ...) of the convolution algebra."""
    idx, _ = index_table(dim, order)
    c = np.zeros(len(idx), dtype=np.complex128)
    c[0] = 1.0
    return CoeffSeries(dim, order, c)


def degree(u: CoeffSeries) -> int:
    """The highest total degree with a nonzero coefficient; -1 for the zero series."""
    return int(_degrees(u.dim, u.order)[np.flatnonzero(u.coeffs)].max(initial=-1))


def with_order(u: CoeffSeries, order: int) -> CoeffSeries:
    """u at another order: degrees above ``order`` dropped, or the new degrees
    zero-filled. The graded layout makes either a prefix of the longer array."""
    if order == u.order:
        return u
    n = len(index_table(u.dim, order)[0])
    c = np.zeros(n, dtype=np.complex128)
    m = min(n, len(u.coeffs))
    c[:m] = u.coeffs[:m]
    return CoeffSeries(u.dim, order, c)


def lin_comb(*terms: tuple[complex, CoeffSeries]) -> CoeffSeries:
    """sum_k c_k u_k over series of one shape."""
    if not terms:
        raise ValueError("lin_comb needs at least one term")
    series = [u for _, u in terms]
    dim, order = _check_same_shape(*series)
    acc = np.zeros(len(series[0].coeffs), dtype=np.complex128)
    for c, u in terms:
        acc += complex(c) * u.coeffs
    return CoeffSeries(dim, order, acc)


def mul(u: CoeffSeries, v: CoeffSeries) -> CoeffSeries:
    """Convolution product realising h_{u*v} = h_u h_v (degrees > order dropped)."""
    dim, order = _check_same_shape(u, v)
    out, left, right, w = _conv_table(dim, order)
    terms = w * u.coeffs[left] * v.coeffs[right]
    return CoeffSeries(dim, order, _row_sum(out, terms, len(u.coeffs)))


def _row_sum(dst: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """Complex sums of ``terms`` by destination index in [0, n), row order kept."""
    return np.bincount(dst, weights=terms.real, minlength=n) + 1j * np.bincount(
        dst, weights=terms.imag, minlength=n
    )


def shift(u: CoeffSeries, beta: Sequence[int] | int) -> CoeffSeries:
    """Coefficient shift u^(beta)_alpha = u_{alpha+beta} (the beta-th derivative).

    Coefficients above order - |beta| are zero-filled.
    """
    b = (int(beta),) if isinstance(beta, int) else tuple(int(x) for x in beta)
    if len(b) != u.dim or any(x < 0 for x in b):
        raise ValueError(f"bad shift index {b} for dim={u.dim}")
    at = _shift_table(u.dim, u.order, b)
    return CoeffSeries(u.dim, u.order, np.where(at >= 0, u.coeffs[at], 0))


def _mul_rows(b: CoeffSeries, beta: MultiIndex | None = None) -> tuple[np.ndarray, ...]:
    """Rows (out, left, right, w) of u -> mul(shift(u, beta), b): the rows of
    ``_conv_table`` over b's support, in table order, with left moved to where
    the shift reads (rows reading above the order dropped), so the product is
    the row sum by out of w * u[left] * b[right]."""
    out, left, right, w = _conv_table(b.dim, b.order)
    if beta is not None:
        left = _shift_table(b.dim, b.order, beta)[left]
    keep = (left >= 0) & (b.coeffs[right] != 0)
    return out[keep], left[keep], right[keep], w[keep]


def _divide_coeffs(c: np.ndarray, dim: int, order: int) -> np.ndarray:
    """h(z) / z_0 for h vanishing on {z_0 = 0}: out_alpha =
    c_(alpha + e_0) / (alpha_0 + 1), for a coefficient vector or each
    column of a matrix whose rows are indexed like a series (the form that
    divides a compiled operator), behind the EPS_DIV guard."""
    idxm = _index_matrix(dim, order)
    bad = np.abs(c[idxm[:, 0] == 0])
    if bad.size and bad.max() > EPS_DIV:
        raise LeadingCoefficientError(
            f"series does not vanish on z_0=0 (max |coeff| = {bad.max():.3e}); "
            "a pole intensity needs jump sizes vanishing at the origin"
        )
    at = _shift_table(dim, order, (1,) + (0,) * (dim - 1))
    dst = np.flatnonzero(at >= 0)
    denom = idxm[dst, 0] + 1.0
    out = np.zeros_like(c)
    out[dst] = c[at[dst]] / denom.reshape(denom.shape + (1,) * (c.ndim - 1))
    return out


def exp_star(u: CoeffSeries) -> CoeffSeries:
    """Coefficients of exp(h_u) up to the order.

    The Euler operator theta = sum_i z_i d_i scales coefficient delta by
    |delta|, and theta e^h = e^h theta h gives, for delta != 0,
    E_delta = sum_{beta + gamma = delta, gamma != 0} w |gamma|/|delta| E_beta u_gamma,
    seeded with E_0 = exp(u_0). The right side reads only degrees below
    |delta|, so E solves a strictly lower triangular system. One scatter
    builds its matrix (row delta, column beta, entry w |gamma|/|delta|
    u_gamma), and forward substitution fills each degree with one
    matrix-vector product over the degrees below it. Nothing pivots, so the
    recurrence runs in its own order. Avoids the cancellation-prone direct
    sum of powers of (u - u_0).
    """
    return CoeffSeries(u.dim, u.order, _exp_star(u.coeffs, u.dim, u.order))


def _exp_star(c: np.ndarray, dim: int, order: int) -> np.ndarray:
    """``exp_star`` on a coefficient vector."""
    deg_start, by_left, _, _, right, w = _euler_rows(dim, order)
    m = _euler_matrix(len(c), by_left, w * c[right])
    e = np.zeros(len(c), dtype=np.complex128)
    e[0] = np.exp(c[0])
    for d in range(1, order + 1):
        lo, hi = deg_start[d], deg_start[d + 1]
        e[lo:hi] = m[lo:hi, :lo] @ e[:lo]
    return e


def log_star(c: CoeffSeries) -> CoeffSeries:
    """Inverse of exp_star up to the degree-zero branch.

    The same Euler-operator recurrence as ``exp_star``, solved for the
    logarithm psi: for delta != 0,
    c_0 psi_delta = c_delta - sum w |gamma|/|delta| c_beta psi_gamma
    over beta + gamma = delta with beta, gamma != 0. Its matrix is
    ``exp_star``'s with the roles of beta and gamma swapped (row delta,
    column gamma, entry w |gamma|/|delta| c_beta). The beta = 0 entries land
    on the diagonal, which forward substitution does not read.

    The degree-zero coefficient is the principal log of c_0, so
    log_star(exp_star(u)) has u_0 only where |Im u_0| < pi. Raises
    LeadingCoefficientError where |c_0| <= EPS_DIV.
    """
    c0 = complex(c.coeffs[0])
    if abs(c0) <= EPS_DIV:
        raise LeadingCoefficientError(
            f"leading coefficient {c0!r} within division guard {EPS_DIV}"
        )
    deg_start, _, by_right, left, _, w = _euler_rows(c.dim, c.order)
    m = _euler_matrix(len(c.coeffs), by_right, w * c.coeffs[left])
    psi = np.zeros(len(c.coeffs), dtype=np.complex128)
    for d in range(1, c.order + 1):
        lo, hi = deg_start[d], deg_start[d + 1]
        psi[lo:hi] = (c.coeffs[lo:hi] - m[lo:hi, :lo] @ psi[:lo]) / c0
    psi[0] = np.log(c0)
    return CoeffSeries(c.dim, c.order, psi)


def _euler_matrix(n: int, flat: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The n x n matrix with ``entries`` at the row-major positions ``flat``."""
    m = np.zeros((n, n), dtype=np.complex128)
    m.flat[flat] = entries
    return m


@lru_cache(maxsize=None)
def _euler_rows(dim: int, order: int) -> tuple[np.ndarray, ...]:
    """Rows of the exp_star/log_star recurrence.

    The rows of ``_conv_table`` with gamma = right != 0, weighted by
    |gamma|/|delta| for their output delta. Returns (deg_start, by_left,
    by_right, left, right, w): the indices of degree d are
    deg_start[d]:deg_start[d+1], and by_left and by_right are each row's
    row-major position in an n x n matrix, row delta and column beta = left
    or gamma = right. Each position occurs once, since beta + gamma = delta
    fixes the other index.
    """
    out, left, right, w = _conv_table(dim, order)
    degs = _degrees(dim, order)
    keep = right != 0
    out, left, right = out[keep], left[keep], right[keep]
    n = len(degs)
    table = (
        np.searchsorted(degs, np.arange(order + 2)),
        out * n + left,
        out * n + right,
        left,
        right,
        w[keep] * degs[right] / degs[out],
    )
    for a in table:
        a.setflags(write=False)
    return table


def compose_shift(u: CoeffSeries, vec: Sequence[CoeffSeries]) -> CoeffSeries:
    """Coefficients of the shifted composition h_u(z + (h_v1(z), ..., h_vd(z))).

    h_u is the polynomial sum_gamma u_gamma z^gamma / gamma!, so the
    composition is sum_gamma u_gamma (z + v(z))^gamma / gamma!, truncated at
    the order: one product with the map of ``_compose_table``, which is built
    once per shape and jump size. The result is exact for the polynomial h_u,
    with or without a constant part in v; the only approximation is the
    truncation of h_u itself.
    """
    if len(vec) != u.dim:
        raise ValueError(f"need {u.dim} shift components, got {len(vec)}")
    dim, order = _check_same_shape(u, *vec)
    return CoeffSeries(dim, order, _compose_map(vec) @ u.coeffs)


def _compose_map(vec: Sequence[CoeffSeries]) -> np.ndarray:
    """The read-only map u -> h_u o (id + v) of ``compose_shift``."""
    return _compose_table(vec[0].dim, vec[0].order, tuple(v.coeffs.tobytes() for v in vec))


@lru_cache(maxsize=32)
def _compose_table(dim: int, order: int, sizes: tuple[bytes, ...]) -> np.ndarray:
    """Map u -> coefficients of h_u o (id + v), v given by its coefficient bytes.

    Column gamma holds q_gamma, the coefficients of (z + v(z))^gamma / gamma!,
    from the normalised powers q_gamma = q_{gamma - e_i} * (e_i + v_i) / gamma_i
    along the first coordinate i with gamma_i > 0: one row sum over the
    product rows of e_i + v_i, whose support is small. No factorial is
    formed, so any order runs. Keyed by value, so equal jump sizes of rebuilt
    models share one read-only table.
    """
    idx, lookup = index_table(dim, order)
    n = len(idx)
    lines = []
    for i, raw in enumerate(sizes):
        c = np.frombuffer(raw, dtype=np.complex128).copy()
        if order > 0:
            c[lookup[tuple(1 if k == i else 0 for k in range(dim))]] += 1.0
        lines.append(_mul_rows(CoeffSeries(dim, order, c)) + (c,))
    table = np.zeros((n, n), dtype=np.complex128)
    table[0, 0] = 1.0
    for col, gamma in enumerate(idx[1:], start=1):
        i = next(k for k, g in enumerate(gamma) if g > 0)
        prev = lookup[tuple(g - 1 if k == i else g for k, g in enumerate(gamma))]
        out, left, right, w, c = lines[i]
        table[:, col] = _row_sum(out, w * table[left, prev] * c[right], n) / gamma[i]
    table.setflags(write=False)
    return table


def taylor_weights(dim: int, order: int, z=None) -> np.ndarray:
    """Weights z^alpha / alpha! of every |alpha| <= order, in storage order.

    Every weighted sum over a series takes its weights from here, as
    products of per-coordinate tables z_i^k / k!. ``z`` is a point of shape
    (dim,), or a scalar in dimension one; its tables follow the recurrence
    z^k / k! = z^(k-1) / (k-1)! * z / k, so no float factorial is formed and
    any order runs (weights below the float range underflow towards zero).
    The weights are complex for a complex point and real otherwise. None
    stands for the unit point, whose 1/alpha! are products of correctly
    rounded 1/k!, cached read-only per shape.
    """
    if z is None:
        return _unit_weights(dim, order)
    zv = np.atleast_1d(np.asarray(z))
    zv = zv.astype(np.result_type(zv, np.float64))
    if zv.shape != (dim,):
        raise ValueError(f"point shape {zv.shape} does not match dim={dim}")
    table = np.ones((dim, order + 1), dtype=zv.dtype)
    for k in range(1, order + 1):
        table[:, k] = table[:, k - 1] * zv / k
    return _table_product(table)


@lru_cache(maxsize=None)
def _unit_weights(dim: int, order: int) -> np.ndarray:
    # 1/k! correctly rounded: exact integer division underflows to 0 and never
    # overflows, so each weight is as accurate as a float can hold it
    inv = np.array([1 / math.factorial(k) for k in range(order + 1)])
    w = _table_product(np.tile(inv, (dim, 1)))
    w.setflags(write=False)
    return w


def _table_product(table: np.ndarray) -> np.ndarray:
    """prod_i table[i, alpha_i] for every alpha, in storage order."""
    dim, order = table.shape[0], table.shape[1] - 1
    idxm = _index_matrix(dim, order)
    w = table[0, idxm[:, 0]]
    for i in range(1, dim):
        w = w * table[i, idxm[:, i]]
    return w


def evaluate(u: CoeffSeries, z: Sequence[complex] | complex) -> complex:
    """h_u(z) = sum_alpha u_alpha z^alpha / alpha!, exactly rounded.

    The real and imaginary parts of the terms u_alpha z^alpha / alpha! are
    each summed by ``math.fsum``: the result is the exact sum of the rounded
    terms, rounded once, whatever their order or cancellation.
    """
    terms = u.coeffs * taylor_weights(u.dim, u.order, z)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def real_points(xs, dim: int) -> np.ndarray:
    """Real state points as an (npoints, dim) float array.

    A scalar is one point in dimension one. A 1-D array is npoints points in
    dimension one and a single point in dimension > 1.
    """
    pts = np.asarray(xs, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None] if dim == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points shape {np.shape(xs)} does not match dim={dim}")
    return pts


class RealEvaluator:
    """Re h_u at real points, compiled once from a series.

    For real x, Re sum_alpha u_alpha x^alpha / alpha! equals
    sum_alpha Re(u_alpha) x^alpha / alpha!, so only the support of Re(u) is
    kept, with 1/alpha! folded into the weights, and each value is the sum of
    the support monomials built from per-coordinate power tables. The result
    equals ``evaluate(u, x).real`` at each point up to rounding: the terms
    are formed differently and summed plainly, not exactly rounded.
    """

    def __init__(self, u: CoeffSeries):
        keep = np.flatnonzero(u.coeffs.real)
        self.dim = u.dim
        self.exponents = _index_matrix(u.dim, u.order)[keep]
        self.weights = u.coeffs.real[keep] * taylor_weights(u.dim, u.order)[keep]

    def __call__(self, xs) -> np.ndarray:
        """Values at (npoints, dim) real points (see ``real_points``)."""
        pts = real_points(xs, self.dim)
        # powers[i][k] = x_i^k for the exponents the support uses
        powers = []
        for i in range(self.dim):
            col = [None, np.ascontiguousarray(pts[:, i])]
            for _ in range(2, int(self.exponents[:, i].max(initial=0)) + 1):
                col.append(col[-1] * col[1])
            powers.append(col)
        out = np.zeros(len(pts))
        for alpha, w in zip(self.exponents, self.weights):
            term = None
            for i, k in enumerate(alpha):
                if k:
                    term = powers[i][k] if term is None else term * powers[i][k]
            out += w if term is None else w * term
        return out

