"""Monte Carlo cross-checks: Euler paths, generator by differences, martingale audit.

The simulator draws the uncompensated dynamics: since the kernel enters the
generator in compensated form, the effective Euler drift is
b(x) - lambda(x) sum_m w_m j_m(x). Dropping the correction simulates a
different process whenever the jump mean is nonzero.

Reproducibility: paths are processed in fixed-size batches, each with its own
stream keyed by (seed, batch index), and reduced in batch order; results are
bit-identical for a fixed config regardless of how batches would be scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from holoseq.characteristics import Characteristics
from holoseq.checks import is_finite_real, is_integer
from holoseq.series import real_points

__all__ = [
    "McConfig",
    "McEstimate",
    "IntensityBoundError",
    "check_run",
    "simulate_expectation",
    "martingale_audit",
]


class IntensityBoundError(RuntimeError):
    """Jump intensity went negative or NaN along a path."""


# paths per batch; each batch draws from its own stream, so this fixes the
# per-batch streams and with them every estimate at a given seed
_BATCH = 32_768


@dataclass(frozen=True)
class McConfig:
    paths: int = 10_000
    dt: float = 1e-3
    seed: int = 0
    # absorb paths at the origin once x_1 < absorb_delta (pole-type kernels)
    absorb_delta: float | None = None
    # reflect paths into [lo, hi] (dim 1); reflections are counted as clamps
    state_box: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for name, least in (("paths", 1), ("seed", 0)):
            v = getattr(self, name)
            if not (is_integer(v) and v >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
        if not (is_finite_real(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        d = self.absorb_delta
        # a NaN threshold would absorb no path: x < nan is always false
        if d is not None and not (is_finite_real(d) and d >= 0):
            raise ValueError(f"absorb_delta must be None or a finite number >= 0, got {d!r}")
        if self.state_box is not None:
            try:
                lo, hi = self.state_box
            except (TypeError, ValueError):
                lo = hi = None
            if not (is_finite_real(lo) and is_finite_real(hi) and lo < hi):
                raise ValueError(
                    f"state_box must be two finite values lo < hi, got {self.state_box!r}"
                )
            object.__setattr__(self, "state_box", (float(lo), float(hi)))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    paths: int
    clamps: int = 0
    absorbed: int = 0

    def within(self, reference: float, n_stderr: float = 3.0) -> bool:
        return abs(self.mean - reference) <= n_stderr * self.stderr


def _fd_steps(x: np.ndarray) -> np.ndarray:
    return 1e-4 * (1.0 + np.abs(x))


def _jump_sizes(chars: Characteristics, xs: np.ndarray) -> list[np.ndarray]:
    """Per atom: (npoints, dim) jump sizes."""
    return [atom.size_values(xs) for atom in chars.kernel.atoms]


def generator_values(chars: Characteristics, f, xs: np.ndarray) -> np.ndarray:
    """Extended generator applied to f at many states, derivatives by differences.

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
    h = _fd_steps(pts)  # (n, dim)
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


def _batch_sizes(paths: int, batch: int) -> list[int]:
    full, rem = divmod(paths, batch)
    return [batch] * full + ([rem] if rem else [])


def _stream(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(batch_index,)))


def check_run(chars: Characteristics, x0, T: float, cfg: McConfig) -> tuple[np.ndarray, int]:
    """The start point as a (dim,) array and the number of Euler steps of a
    run under ``cfg`` from x0 over [0, T] on ``chars``. Raises ValueError,
    before any path is drawn, for a run that cannot be simulated: a
    ``state_box`` outside dimension one, an x0 of another dimension, or a T
    that is not a positive whole number of dt steps."""
    dim = chars.dim
    if cfg.state_box is not None and dim != 1:
        raise ValueError("state_box reflection is supported in dimension one only")
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0v.shape != (dim,):
        raise ValueError(f"x0 shape {x0v.shape} does not match dim={dim}")
    nsteps = int(round(T / cfg.dt))
    if nsteps < 1:
        raise ValueError(f"horizon T={T} must be positive and span at least one dt={cfg.dt} step")
    if abs(nsteps * cfg.dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not a whole number of dt={cfg.dt} steps")
    return x0v, nsteps


def _simulate(chars: Characteristics, x0, T: float, cfg: McConfig, step_hook=None):
    """Run all batches; returns (final states (paths, dim), clamps, absorbed).

    ``step_hook(batch_index, x, frozen, dt)`` is called before each Euler step
    with the current states; used by the martingale audit to accumulate the
    compensator integral.
    """
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
            # fixed-shape draws keep every path's randomness independent of
            # the absorption pattern
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
                # +inf (a path sitting on a pole) is a certain jump; NaN is not a rate
                if np.isnan(lam).any():
                    raise IntensityBoundError(f"NaN jump intensity at t={k * cfg.dt:.6g}")
                if np.any(lam < -1e-12):
                    raise IntensityBoundError(
                        f"negative jump intensity {lam.min():.6g} at t={k * cfg.dt:.6g}"
                    )
                sizes = _jump_sizes(chars, xa)
                # exact per-step jump probability 1 - exp(-rate dt), which
                # stays valid as rates blow up
                rate = np.clip(lam, 0.0, None) * total_w
                jumped = u_jump[alive] < -np.expm1(-rate * cfg.dt)
                # compensated-kernel drift correction
                mean_jump = sum(w * s for w, s in zip(weights, sizes))
                b = b - np.clip(lam, 0.0, None)[:, None] * mean_jump
            # diffusion increment
            if dim == 1:
                av = a[:, 0, 0]
                if np.any(av < -1e-12):
                    raise np.linalg.LinAlgError(
                        f"diffusion a(x) negative ({av.min():.3e}) at t={k * cfg.dt:.6g}"
                    )
                inc = np.sqrt(np.clip(av, 0.0, None) * cfg.dt)[:, None] * z[alive]
            else:
                # symmetric square root: works for singular PSD matrices too
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
                all_sizes = np.stack(sizes, axis=0)  # (atoms, alive, dim)
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


def _estimate(values: np.ndarray, clamps: int, absorbed: int) -> McEstimate:
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return McEstimate(mean, stderr, len(values), clamps, absorbed)


def simulate_expectation(chars: Characteristics, f, x0, T: float, cfg: McConfig) -> McEstimate:
    """E[f(X_T)] by Euler paths; f vectorised over final states, real-valued."""
    finals, clamps, absorbed = _simulate(chars, x0, T, cfg)
    arg = finals[:, 0] if chars.dim == 1 else finals
    vals = np.asarray(f(arg), dtype=float)
    return _estimate(vals, clamps, absorbed)


def martingale_audit(chars: Characteristics, f, x0, T: float, cfg: McConfig) -> McEstimate:
    """Estimate E[f(X_T) - f(x_0) - int_0^T A f(X_s) ds]; should straddle zero.

    The compensator integral uses the pointwise generator on the visited
    states (left endpoints), so the audit exercises simulator and generator
    against each other with no series machinery involved.
    """
    acc: dict[int, np.ndarray] = {}

    def hook(b_idx: int, x: np.ndarray, frozen: np.ndarray, dt: float) -> None:
        if b_idx not in acc:
            acc[b_idx] = np.zeros(len(x))
        alive = ~frozen
        if alive.any():
            vals = generator_values(chars, f, x[alive]).real
            acc[b_idx][alive] += vals * dt

    finals, clamps, absorbed = _simulate(chars, x0, T, cfg, step_hook=hook)
    arg = finals[:, 0] if chars.dim == 1 else finals
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    f_end = np.asarray(f(arg), dtype=float)
    start_arg = x0v if chars.dim == 1 else x0v[None, :]
    f_start = float(np.asarray(f(start_arg), dtype=float).reshape(-1)[0])
    integral = np.concatenate([acc[i] for i in sorted(acc)])
    vals = f_end - f_start - integral
    return _estimate(vals, clamps, absorbed)
