"""The kernels that ``holoseq`` replaced with tables and compiled matrices.

``compose_shift`` sums (1/beta!) u^(beta) * v^{*beta} over every multi-index,
with one ``mul`` per index, ``exp_star`` fills one coefficient per Python
iteration, and ``log_star`` sums the power series of log(1 + d) with one
``mul`` per degree, and ``divide_by_coordinate`` divides one coefficient per
Python iteration. ``holoseq.series`` now applies a cached composition map,
runs ``exp_star`` and ``log_star`` as one degree-by-degree recurrence and
divides a coefficient vector or a compiled matrix through its shift map
(``_divide_coeffs``).

``apply_l_series`` and ``apply_r_series`` assemble the generator from series
operations on every call: drift and diffusion multiply shifted coefficients
by the characteristic series, and each jump atom contributes the shifted
composition g = u o j - u, compensated in degree one, weighted, multiplied
by the intensity and pole-divided, with R replacing g by exp*(g) - 1.
``holoseq.generator`` compiles L once into a matrix instead.
``apply_r_composed`` is R on the compiled L and quadratic rows with the jump
part through the series kernels, one ``compose_shift``, ``exp_star`` and
``mul`` per call; ``holoseq.generator.apply_r`` runs exp* on the raw array
instead, to the same bits.

``dual_steps`` sums the unit-interval dual chain's uniformization series one
tridiagonal step per Poisson term, in any float type;
``holoseq.models.UnitIntervalModel.dual_expectation`` sums the same series
in blocks of powers of P.

``euler_paths`` is the Euler loop that evaluates every characteristic at
every path on every step, and reads the live paths through boolean masks
from the first step on; ``compensator`` is the martingale audit's step hook
that goes with it, through ``generator_values``, the generator by
differences in complex128 with every characteristic evaluated at every
state. ``holoseq.montecarlo._simulate`` evaluates each characteristic once
per step and hands the values to the audit's generator, evaluates one that
does not depend on the state once per model, and works on the batch arrays
themselves until a path is absorbed; ``holoseq.montecarlo.generator_values``
works in f's own type.

The property tests check each replacement against these.
"""

import math
from typing import Callable

import numpy as np

from holoseq import generator
from holoseq import series as ser
from holoseq.characteristics import Characteristics
from holoseq.models import UnitIntervalModel
from holoseq.montecarlo import (
    _BATCH,
    IntensityBoundError,
    _batch_sizes,
    _jump_sizes,
    _stream,
    check_run,
)
from holoseq.series import CoeffSeries, real_points


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


def _unit_leading(c: CoeffSeries) -> CoeffSeries:
    """d with c = c_0 (1 + d), so d_0 = 0."""
    d = CoeffSeries(c.dim, c.order, c.coeffs / complex(c.coeffs[0]))
    return ser.lin_comb((1.0, d), (-1.0, ser.unit(c.dim, c.order)))


def log_star(c: CoeffSeries, phi0=None) -> CoeffSeries:
    """log(h_c) as log c_0 + sum_k (-1)^(k-1)/k d^{*k}, k = 1..order, where c = c_0 (1 + d)."""
    dim, order = c.dim, c.order
    d = _unit_leading(c)
    acc = np.zeros(len(c.coeffs), dtype=np.complex128)
    power = ser.unit(dim, order)
    for k in range(1, order + 1):
        power = ser.mul(power, d)
        acc += (-1.0) ** (k - 1) * (1.0 / k) * power.coeffs
    acc[0] = np.log(complex(c.coeffs[0])) if phi0 is None else complex(phi0)
    return CoeffSeries(dim, order, acc)


def log_star_term_scale(c: CoeffSeries) -> np.ndarray:
    """sum_k |d|^{*k} / k coefficientwise: the size of the terms ``log_star`` sums,
    which bounds the scale of its rounding error."""
    d = CoeffSeries(c.dim, c.order, np.abs(_unit_leading(c).coeffs))
    acc = np.zeros(len(c.coeffs))
    power = ser.unit(c.dim, c.order)
    for k in range(1, c.order + 1):
        power = ser.mul(power, d)
        acc += power.coeffs.real / k
    return acc


def divide_by_coordinate(u: CoeffSeries, coord: int = 0) -> CoeffSeries:
    """h_u(z) / z_coord for h_u vanishing on {z_coord = 0}: out_alpha =
    u_(alpha + e_coord) / (alpha_coord + 1), zero where alpha + e_coord is
    above the order. A coefficient with alpha_coord = 0 above EPS_DIV raises
    LeadingCoefficientError."""
    idx, lookup = ser.index_table(u.dim, u.order)
    out = np.zeros(len(idx), dtype=np.complex128)
    for k, alpha in enumerate(idx):
        if alpha[coord] == 0 and abs(u.coeffs[k]) > ser.EPS_DIV:
            raise ser.LeadingCoefficientError(f"coefficient {alpha} does not vanish on z_{coord} = 0")
        up = tuple(a + e for a, e in zip(alpha, _basis(u.dim, coord)))
        if up in lookup:
            out[k] = u.coeffs[lookup[up]] / (alpha[coord] + 1)
    return CoeffSeries(u.dim, u.order, out)


def _basis(dim: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(dim))


def _is_zero(s: CoeffSeries) -> bool:
    return not s.coeffs.any()


def drift_diffusion_series(u: CoeffSeries, chars: Characteristics) -> CoeffSeries:
    """sum_i u^(e_i) * b_i + sum_{|beta|=2} (1/beta!) u^(beta) * a^beta."""
    dim = chars.dim
    out = ser.zero(dim, u.order)
    for i in range(dim):
        if not _is_zero(chars.drift[i]):
            out = out + ser.mul(ser.shift(u, _basis(dim, i)), chars.drift[i])
    for i in range(dim):
        for j in range(i, dim):
            if _is_zero(chars.diffusion[i][j]):
                continue
            beta = tuple(a + b for a, b in zip(_basis(dim, i), _basis(dim, j)))
            w = 0.5 if i == j else 1.0
            out = out + w * ser.mul(ser.shift(u, beta), chars.diffusion[i][j])
    return out


def _jump_series(
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
        out = divide_by_coordinate(out, 0)
    return out


def apply_l_series(u: CoeffSeries, chars: Characteristics) -> CoeffSeries:
    """L(u) assembled from series operations on every call."""
    out = drift_diffusion_series(u, chars)
    if chars.kernel is not None and chars.kernel.atoms:
        out = out + _jump_series(u, chars, lambda g: g)
    return out


def apply_r_series(u: CoeffSeries, chars: Characteristics) -> CoeffSeries:
    """R(u) assembled from series operations on every call: the drift and
    diffusion part, the quadratic term and exp*(u o j - u) - 1 per atom."""
    dim = chars.dim
    out = drift_diffusion_series(u, chars)
    for i in range(dim):
        for j in range(i, dim):
            if _is_zero(chars.diffusion[i][j]):
                continue
            w = 0.5 if i == j else 1.0
            grad2 = ser.mul(ser.shift(u, _basis(dim, i)), ser.shift(u, _basis(dim, j)))
            out = out + w * ser.mul(chars.diffusion[i][j], grad2)
    if chars.kernel is not None and chars.kernel.atoms:
        one = ser.unit(dim, u.order)
        out = out + _jump_series(u, chars, lambda g: ser.exp_star(g) - one)
    return out


def apply_r_composed(u: CoeffSeries, chars: Characteristics) -> CoeffSeries:
    """R(u): L u and the compiled quadratic rows, then per atom
    exp*(g) - 1 - g for g = u o j - u through ``compose_shift`` and
    ``exp_star``, weighted, one ``mul`` by the intensity and the pole
    division."""
    dim, order = u.dim, u.order
    out = generator._linear(u, chars)
    q_out, q_left, q_right, q_weight = generator._compile_quadratic(chars)
    out += ser._row_sum(q_out, q_weight * u.coeffs[q_left] * u.coeffs[q_right], len(out))
    k = chars.kernel
    if k is not None and k.atoms:
        acc = np.zeros_like(out)
        for atom in k.atoms:
            g = ser.compose_shift(u, atom.size).coeffs - u.coeffs
            e = ser.exp_star(CoeffSeries(dim, order, g)).coeffs
            term = e - g
            term[0] = e[0] - 1.0 - g[0]
            acc += atom.weight * term
        tilt = ser.mul(k.intensity, CoeffSeries(dim, order, acc)).coeffs
        for _ in range(k.pole_order):
            tilt = ser._divide_coeffs(tilt, dim, order)
        out += tilt
    return CoeffSeries(dim, order, out)


def dual_steps(model: UnitIntervalModel, T: float, dtype=np.float64) -> tuple[np.ndarray, float]:
    """(coefficients, outflow) of ``model.dual_expectation(T)``, with every
    quantity in ``dtype``: the same lam, mu, P and Poisson window, the
    weights by the ratio recurrence from the mode, and then one tridiagonal
    step nu -> nu P per term, accumulating w_n nu."""
    down, up = model.dual_rates()
    lam = dtype(1.05 * float((down + up).max()))
    down, up = down.astype(dtype), up.astype(dtype)
    total = down + up
    n = model.k_max + 1
    mu = np.cumprod(np.concatenate(([dtype(1)], dtype(2) / np.arange(1, n).astype(dtype))))
    lt = lam * dtype(T)
    width = 12.0 * math.sqrt(float(lt)) + 30.0
    n_lo, mode, n_hi = max(0, math.floor(float(lt) - width)), math.floor(float(lt)), math.ceil(float(lt) + width)
    steps = np.arange(n_hi + 1).astype(dtype)
    w = np.zeros(n_hi + 1, dtype=dtype)
    w[mode] = 1
    w[mode + 1 :] = np.cumprod(lt / steps[mode + 1 :])
    w[n_lo:mode] = np.cumprod(steps[mode:n_lo:-1] / lt)[::-1]
    w /= w.sum()
    stay = (lam - total) / lam
    p_down = down / lam
    p_up = up / lam
    nu = mu.copy()
    acc = w[0] * nu
    for k in range(1, n_hi + 1):
        nxt = nu * stay
        nxt[:-1] += nu[1:] * p_down[1:]
        nxt[1:] += nu[:-1] * p_up[:-1]
        nu = nxt
        acc += w[k] * nu
    return acc, float(mu.sum() * w.sum() - acc.sum())


def euler_paths(chars: Characteristics, x0, T: float, cfg, step_hook=None):
    """(final states, clamps, absorbed) of ``holoseq.montecarlo._simulate``,
    every characteristic evaluated on every step."""
    dim = chars.dim
    x0v, nsteps = check_run(chars, x0, T, cfg)
    kernel = chars.kernel
    weights = np.array([a.weight for a in kernel.atoms]) if kernel else np.zeros(0)
    total_w = weights.sum()
    cum_w = np.cumsum(weights) / total_w if total_w > 0 else None

    finals = []
    clamps = 0
    absorbed_count = 0
    for b_idx, m in enumerate(_batch_sizes(cfg.paths, _BATCH)):
        rng = _stream(cfg.seed, b_idx)
        x = np.tile(x0v, (m, 1))
        frozen = np.zeros(m, dtype=bool)
        for k in range(nsteps):
            z = rng.standard_normal((m, dim))
            u_jump = rng.random(m)
            u_atom = rng.random(m)
            if step_hook is not None:
                step_hook(b_idx, x, frozen, cfg.dt)
            alive = ~frozen
            if not alive.any():
                continue
            xa = x[alive]
            b = chars.drift_values(xa)
            a = chars.diffusion_values(xa)
            jumped = np.zeros(alive.sum(), dtype=bool)
            if kernel is not None and total_w > 0:
                lam = kernel.intensity_value(xa)
                if np.isnan(lam).any():
                    raise IntensityBoundError(f"NaN jump intensity at t={k * cfg.dt:.6g}")
                if np.any(lam < -1e-12):
                    raise IntensityBoundError(
                        f"negative jump intensity {lam.min():.6g} at t={k * cfg.dt:.6g}"
                    )
                sizes = _jump_sizes(chars, xa)
                rate = np.clip(lam, 0.0, None) * total_w
                jumped = u_jump[alive] < -np.expm1(-rate * cfg.dt)
                mean_jump = sum(w * s for w, s in zip(weights, sizes))
                # NaN at a pole (inf * 0); the certain jump overwrites it
                with np.errstate(invalid="ignore"):
                    b = b - np.clip(lam, 0.0, None)[:, None] * mean_jump
            if dim == 1:
                av = a[:, 0, 0]
                if np.any(av < -1e-12):
                    raise np.linalg.LinAlgError(
                        f"diffusion a(x) negative ({av.min():.3e}) at t={k * cfg.dt:.6g}"
                    )
                inc = np.sqrt(np.clip(av, 0.0, None) * cfg.dt)[:, None] * z[alive]
            else:
                w_eig, vecs = np.linalg.eigh(a)
                if np.any(w_eig < -1e-10):
                    raise np.linalg.LinAlgError(
                        f"diffusion not PSD (eig {w_eig.min():.3e}) at t={k * cfg.dt:.6g}"
                    )
                root = vecs * np.sqrt(np.clip(w_eig, 0.0, None))[:, None, :]
                root = np.einsum("nik,njk->nij", root, vecs)
                inc = np.einsum("nij,nj->ni", root, z[alive]) * np.sqrt(cfg.dt)
            xn = xa + b * cfg.dt + inc
            if kernel is not None and total_w > 0 and jumped.any():
                jr = np.flatnonzero(jumped)
                atom_idx = np.searchsorted(cum_w, u_atom[alive][jumped])
                atom_idx = np.minimum(atom_idx, len(weights) - 1)
                all_sizes = np.stack(sizes, axis=0)
                xn[jr] = xa[jr] + all_sizes[atom_idx, jr, :]
            if cfg.state_box is not None:
                lo, hi = cfg.state_box
                col = xn[:, 0]
                out_of_box = (col < lo) | (col > hi)
                clamps += int(out_of_box.sum())
                col = lo + np.abs(col - lo)
                col = hi - np.abs(hi - col)
                xn[:, 0] = np.clip(col, lo, hi)
            x[alive] = xn
            if cfg.absorb_delta is not None:
                new_frozen = np.zeros(m, dtype=bool)
                new_frozen[alive] = x[alive][:, 0] < cfg.absorb_delta
                x[new_frozen] = 0.0
                frozen |= new_frozen
        absorbed_count += int(frozen.sum())
        finals.append(x)
    return np.concatenate(finals, axis=0), clamps, absorbed_count


def generator_values(chars: Characteristics, f, xs: np.ndarray) -> np.ndarray:
    """``holoseq.montecarlo.generator_values`` in complex128 arithmetic, with
    every characteristic evaluated at every state.

    ``f`` must be vectorised: it maps an (n, dim) array (or (n,) in dimension
    one) to n values. Gradients and pure second derivatives use fourth-order
    central stencils with step 1e-4 (1 + |x_i|); cross partials use the
    second-order four-point cross. States sitting exactly at the origin of a
    pole-order kernel get a zero jump term (the absorbed-state limit).
    """
    pts = real_points(xs, chars.dim)
    n, dim = pts.shape

    def call(q: np.ndarray) -> np.ndarray:
        arg = q[:, 0] if chars.dim == 1 else q
        return np.asarray(f(arg), dtype=np.complex128)

    f0 = call(pts)
    h = 1e-4 * (1.0 + np.abs(pts))  # (n, dim)
    grad = np.empty((n, dim), dtype=np.complex128)
    diag = np.empty((n, dim), dtype=np.complex128)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        fp1 = call(pts + h[:, [i]] * e)
        fm1 = call(pts - h[:, [i]] * e)
        fp2 = call(pts + 2 * h[:, [i]] * e)
        fm2 = call(pts - 2 * h[:, [i]] * e)
        hi = h[:, i]
        grad[:, i] = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * hi)
        diag[:, i] = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * hi * hi)

    b = chars.drift_values(pts)
    a = chars.diffusion_values(pts)
    out = np.sum(b * grad, axis=1) + 0.5 * np.sum(
        a[:, np.arange(dim), np.arange(dim)] * diag, axis=1
    )
    for i in range(dim):
        for j in range(i + 1, dim):
            ei = np.zeros(dim)
            ej = np.zeros(dim)
            ei[i] = 1.0
            ej[j] = 1.0
            hij = h[:, [i]] * ei + h[:, [j]] * ej
            hij_m = h[:, [i]] * ei - h[:, [j]] * ej
            cross = (call(pts + hij) - call(pts + hij_m) - call(pts - hij_m) + call(pts - hij)) / (
                4 * h[:, i] * h[:, j]
            )
            out = out + a[:, i, j] * cross

    if chars.kernel is not None and chars.kernel.atoms:
        at_pole = np.zeros(n, dtype=bool)
        if chars.kernel.pole_order:
            at_pole = pts[:, 0] == 0.0
        safe = pts.copy()
        safe[at_pole, 0] = 1.0  # placeholder, masked out below
        lam = chars.kernel.intensity_value(safe)
        jump_term = np.zeros(n, dtype=np.complex128)
        for atom, sizes in zip(chars.kernel.atoms, _jump_sizes(chars, pts)):
            fj = call(pts + sizes)
            jump_term += atom.weight * (fj - f0 - np.sum(grad * sizes, axis=1))
        out = out + np.where(at_pole, 0.0, lam * jump_term)
    return out


def compensator(chars: Characteristics, f):
    """A step hook for ``euler_paths`` and a function returning, once the run
    is over, the (paths,) compensator integrals it accumulated, batch by
    batch through boolean masks."""
    acc: dict[int, np.ndarray] = {}

    def hook(b_idx: int, x: np.ndarray, frozen: np.ndarray, dt: float) -> None:
        if b_idx not in acc:
            acc[b_idx] = np.zeros(len(x))
        alive = ~frozen
        if alive.any():
            acc[b_idx][alive] += generator_values(chars, f, x[alive]).real * dt

    return hook, lambda: np.concatenate([acc[i] for i in sorted(acc)])
