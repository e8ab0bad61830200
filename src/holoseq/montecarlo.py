"""Monte Carlo cross-checks: Euler paths, generator by differences, martingale audit.

The simulator draws the uncompensated dynamics: since the kernel enters the
generator in compensated form, the effective Euler drift is
b(x) - lambda(x) sum_m w_m j_m(x). Dropping the correction simulates a
different process whenever the jump mean is nonzero.

Reproducibility: paths are processed in fixed-size batches, each with its own
stream keyed by (seed, batch index), and reduced in batch order; results are
bit-identical for a fixed config regardless of how batches would be scheduled.

Per-run values: a characteristic whose series has degree <= 0 does not
depend on the state, so a run evaluates and checks it once, at x0. That
covers the drift; the diffusion and its factor, sqrt(a dt) in dimension one
and otherwise the symmetric root from one ``eigh``; the jump sizes with
their atom table and weighted mean; and the intensity of a kernel without a
pole. The other characteristics are evaluated on the live paths at every
step. Until the first path is absorbed, a step reads and writes the batch
arrays through views; boolean masks come in only after that. Every estimate
is bit-identical to that of the loop which evaluated each characteristic on
every path at every step (kept in the tests as
``reference_kernels.euler_paths``).

The martingale audit's generator by differences, ``generator_values``,
follows the same rule: the characteristics that do not depend on the state
are evaluated once per model and kept on it, at shapes that broadcast over
the points. Its stencil works in f's own type, float64 for a real f, which
the audit's f is; the values equal the real parts of the complex128
stencil that evaluated every characteristic at every point (kept in the
tests as ``reference_kernels.generator_values``), so audit estimates are
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from holoseq.characteristics import Characteristics
from holoseq.checks import is_finite_real, is_integer
from holoseq.series import degree, real_points

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
    # accepted jumps over all paths and steps
    jumps: int = 0

    def within(self, reference: float, n_stderr: float = 3.0) -> bool:
        return abs(self.mean - reference) <= n_stderr * self.stderr


def _fd_steps(x: np.ndarray) -> np.ndarray:
    return 1e-4 * (1.0 + np.abs(x))


def _jump_sizes(chars: Characteristics, xs: np.ndarray) -> list[np.ndarray]:
    """Per atom: (npoints, dim) jump sizes."""
    return [atom.size_values(xs) for atom in chars.kernel.atoms]


class _StateFree(NamedTuple):
    """The characteristics that do not depend on the state, each evaluated
    once at a broadcastable shape, or None where it depends on the state."""

    drift: np.ndarray | None  # (1, dim)
    diffusion: np.ndarray | None  # (1, dim, dim)
    # the intensity of a kernel without a pole only
    intensity: np.ndarray | None  # (1,)
    # every atom's sizes or none: a zero-weight atom still enters the
    # weighted sums and the atom table
    sizes: list[np.ndarray] | None  # (1, dim) per atom


def _state_free(chars: Characteristics) -> _StateFree:
    """The values of ``chars`` whose series have degree <= 0 (``chars.degrees``),
    evaluated on first use and kept on the model."""
    if chars._state_free is None:
        origin = np.zeros((1, chars.dim))
        degrees, k = chars.degrees, chars.kernel
        fixed = _StateFree(
            chars.drift_values(origin) if degrees.drift <= 0 else None,
            chars.diffusion_values(origin) if degrees.diffusion <= 0 else None,
            k.intensity_value(origin) if k is not None and k.pole_order == 0 and degrees.intensity <= 0 else None,
            _jump_sizes(chars, origin)
            if k is not None and all(degree(s) <= 0 for atom in k.atoms for s in atom.size)
            else None,
        )
        object.__setattr__(chars, "_state_free", fixed)
    return chars._state_free


def generator_values(chars: Characteristics, f, xs: np.ndarray) -> np.ndarray:
    """Extended generator applied to f at many states, derivatives by differences.

    ``f`` must be vectorised: it maps an (n, dim) array (or (n,) in dimension
    one) to n values. The result has f's type: float64 when f returns real
    values, complex128 when it returns complex ones, and then equals the
    float64 result in its real part. Gradients and pure second derivatives
    use fourth-order central stencils with step 1e-4 (1 + |x_i|); cross
    partials use the second-order four-point cross. States sitting exactly
    at the origin of a pole-order kernel get a zero jump term (the
    absorbed-state limit). A characteristic that does not depend on the
    state is evaluated once per model, not at every state of every call.
    """
    pts = real_points(xs, chars.dim)
    n, dim = pts.shape
    fixed = _state_free(chars)

    def call(q: np.ndarray) -> np.ndarray:
        return np.asarray(f(q[:, 0] if chars.dim == 1 else q), dtype=dtype)

    dtype = None  # f's own type, read from f0
    f0 = call(pts)
    dtype = np.complex128 if np.iscomplexobj(f0) else np.float64
    f0 = f0.astype(dtype, copy=False)
    h = _fd_steps(pts)  # (n, dim)
    grad = np.empty((n, dim), dtype=dtype)
    diag = np.empty((n, dim), dtype=dtype)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        step, step2 = h[:, i : i + 1] * e, 2 * h[:, i : i + 1] * e
        fp1, fm1 = call(pts + step), call(pts - step)
        fp2, fm2 = call(pts + step2), call(pts - step2)
        hi = h[:, i]
        hi12, neg_fp2 = 12 * hi, -fp2
        # a product with the reciprocal is what dividing a complex value by
        # a real one computes, so both types round alike
        grad[:, i] = (neg_fp2 + 8 * fp1 - 8 * fm1 + fm2) * (1.0 / hi12)
        diag[:, i] = (neg_fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) * (1.0 / (hi12 * hi))

    b = chars.drift_values(pts) if fixed.drift is None else fixed.drift
    a = chars.diffusion_values(pts) if fixed.diffusion is None else fixed.diffusion
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
            cross = (call(pts + hij) - call(pts + hij_m) - call(pts - hij_m) + call(pts - hij)) * (
                1.0 / (4 * h[:, i] * h[:, j])
            )
            out += a[:, i, j] * cross

    k = chars.kernel
    if k is not None and k.atoms:
        # a state at the origin of a pole kernel reads lambda at a
        # placeholder state and gets no jump term
        at_pole = np.flatnonzero(pts[:, 0] == 0.0) if k.pole_order else []
        safe = pts
        if len(at_pole):
            safe = pts.copy()
            safe[at_pole, 0] = 1.0
        lam = k.intensity_value(safe) if fixed.intensity is None else fixed.intensity
        sizes = _jump_sizes(chars, pts) if fixed.sizes is None else fixed.sizes
        jump_term = np.zeros(n, dtype=dtype)
        for atom, size in zip(k.atoms, sizes):
            fj = call(pts + size)
            jump_term += atom.weight * (fj - f0 - np.sum(grad * size, axis=1))
        jump = lam * jump_term
        jump[at_pole] = 0.0
        out += jump
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
    ``state_box`` outside dimension one, an x0 of another dimension or with
    a NaN or infinite coordinate, or a T that is not a finite, positive
    whole number of dt steps."""
    dim = chars.dim
    if cfg.state_box is not None and dim != 1:
        raise ValueError("state_box reflection is supported in dimension one only")
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0v.shape != (dim,):
        raise ValueError(f"x0 shape {x0v.shape} does not match dim={dim}")
    if not np.isfinite(x0v).all():
        raise ValueError(f"x0={x0v.tolist()} must be finite")
    if not is_finite_real(T):
        raise ValueError(f"horizon T={T!r} must be a finite number")
    nsteps = int(round(T / cfg.dt))
    if nsteps < 1:
        raise ValueError(f"horizon T={T} must be positive and span at least one dt={cfg.dt} step")
    if abs(nsteps * cfg.dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not a whole number of dt={cfg.dt} steps")
    return x0v, nsteps


def _per_run(constant: bool, evaluate, x0v: np.ndarray):
    """The evaluator ``(states, step) -> value`` a run steps with.

    It is called once at x0 before the first step: every path starts there,
    so this is the first step's evaluation and raises what that step would.
    A characteristic that does not depend on the state keeps that value.
    """
    value = evaluate(x0v, 0)
    return (lambda xs, k: value) if constant else evaluate


def _simulate(chars: Characteristics, x0, T: float, cfg: McConfig, step_hook=None):
    """Run all batches; returns (final states (paths, dim), clamps, absorbed, jumps).

    ``step_hook(batch_index, x, frozen, dt)`` is called before each Euler step
    with the current states; used by the martingale audit to accumulate the
    compensator integral. Which values are computed once per run is in the
    module docstring.
    """
    dim, dt = chars.dim, cfg.dt
    x0v, nsteps = check_run(chars, x0, T, cfg)
    kernel = chars.kernel
    weights = np.array([a.weight for a in kernel.atoms]) if kernel else np.zeros(0)
    total_w = weights.sum()
    cum_w = np.cumsum(weights) / total_w if total_w > 0 else None
    jumping = kernel is not None and total_w > 0
    fixed = _state_free(chars)

    def intensity_at(xs, k):
        """lambda clipped at zero and the per-step jump probability."""
        lam = kernel.intensity_value(xs)
        # +inf (a path sitting on a pole) is a certain jump; NaN is not a rate
        if np.isnan(lam).any():
            raise IntensityBoundError(f"NaN jump intensity at t={k * dt:.6g}")
        if np.any(lam < -1e-12):
            raise IntensityBoundError(f"negative jump intensity {lam.min():.6g} at t={k * dt:.6g}")
        lam = np.clip(lam, 0.0, None)
        # exact per-step jump probability 1 - exp(-rate dt), which stays valid
        # as rates blow up
        return lam, -np.expm1(-(lam * total_w) * dt)

    def jump_sizes_at(xs, k):
        """(atoms, points, dim) jump sizes and their weighted sum, the
        compensated kernel's drift correction per unit intensity."""
        sizes = _jump_sizes(chars, xs)
        return np.stack(sizes, axis=0), sum(w * s for w, s in zip(weights, sizes))

    def diffusion_root_at(xs, k):
        """sqrt(a dt) in dimension one, else the symmetric square root of a."""
        a = chars.diffusion_values(xs)
        if dim == 1:
            av = a[:, 0, 0]
            if np.any(av < -1e-12):
                raise np.linalg.LinAlgError(f"diffusion a(x) negative ({av.min():.3e}) at t={k * dt:.6g}")
            return np.sqrt(np.clip(av, 0.0, None) * dt)[:, None]
        # symmetric square root: works for singular PSD matrices too
        w_eig, vecs = np.linalg.eigh(a)
        if np.any(w_eig < -1e-10):
            raise np.linalg.LinAlgError(f"diffusion not PSD (eig {w_eig.min():.3e}) at t={k * dt:.6g}")
        root = vecs * np.sqrt(np.clip(w_eig, 0.0, None))[:, None, :]
        return np.einsum("nik,njk->nij", root, vecs)

    # in the order a step evaluates and checks them
    drift = _per_run(fixed.drift is not None, lambda xs, k: chars.drift_values(xs), x0v)
    if jumping:
        intensity = _per_run(fixed.intensity is not None, intensity_at, x0v)
        jump_sizes = _per_run(fixed.sizes is not None, jump_sizes_at, x0v)
    diffusion_root = _per_run(fixed.diffusion is not None, diffusion_root_at, x0v)

    finals = []
    clamps = absorbed = jumps = 0
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
                step_hook(b_idx, x, frozen, dt)
            # views of the whole batch until the first absorption, masked
            # copies after it
            alive = ~frozen if frozen.any() else slice(None)
            xa = x[alive]
            if not len(xa):
                continue
            b = drift(xa, k)
            if jumping:
                lam, p_jump = intensity(xa, k)
                table, mean_jump = jump_sizes(xa, k)
                jumped = u_jump[alive] < p_jump
                b = b - lam[:, None] * mean_jump
            root = diffusion_root(xa, k)
            if dim == 1:
                inc = root * z[alive]
            else:
                inc = np.einsum("nij,nj->ni", root, z[alive]) * np.sqrt(dt)
            xn = xa + b * dt + inc
            if jumping and jumped.any():
                jr = np.flatnonzero(jumped)
                atom_idx = np.searchsorted(cum_w, u_atom[alive][jumped])
                atom_idx = np.minimum(atom_idx, len(weights) - 1)
                table = np.broadcast_to(table, (len(weights), len(xa), dim))
                xn[jr] = xa[jr] + table[atom_idx, jr, :]
                jumps += len(jr)
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
                new_frozen[alive] = xn[:, 0] < cfg.absorb_delta
                x[new_frozen] = 0.0
                frozen |= new_frozen
        absorbed += int(frozen.sum())
        finals.append(x)
    return np.concatenate(finals, axis=0), clamps, absorbed, jumps


def _estimate(values: np.ndarray, clamps: int, absorbed: int, jumps: int) -> McEstimate:
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return McEstimate(mean, stderr, len(values), clamps, absorbed, jumps)


def _real_values(values) -> np.ndarray:
    """f's values as float64; a nonzero imaginary part raises ValueError
    instead of being dropped."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        if np.any(v.imag != 0):
            raise ValueError("f returned values with a nonzero imaginary part; Monte Carlo estimates real payoffs only")
        v = v.real
    return np.asarray(v, dtype=float)


def simulate_expectation(chars: Characteristics, f, x0, T: float, cfg: McConfig) -> McEstimate:
    """E[f(X_T)] by Euler paths; f vectorised over final states, real-valued."""
    finals, *counts = _simulate(chars, x0, T, cfg)
    arg = finals[:, 0] if chars.dim == 1 else finals
    return _estimate(_real_values(f(arg)), *counts)


def _compensator(chars: Characteristics, f, paths: int):
    """A step hook for ``_simulate`` and the (paths,) array it fills with
    int_0^T A f(X_s) ds, the pointwise generator at each step's left
    endpoint, per path; absorbed paths add nothing."""
    integral = np.zeros(paths)

    def hook(b_idx: int, x: np.ndarray, frozen: np.ndarray, dt: float) -> None:
        part = integral[b_idx * _BATCH : b_idx * _BATCH + len(x)]
        if not frozen.any():
            part += generator_values(chars, f, x).real * dt
        elif not frozen.all():
            alive = ~frozen
            part[alive] += generator_values(chars, f, x[alive]).real * dt

    return hook, integral


def martingale_audit(chars: Characteristics, f, x0, T: float, cfg: McConfig) -> McEstimate:
    """Estimate E[f(X_T) - f(x_0) - int_0^T A f(X_s) ds]; should straddle zero.

    The compensator integral uses the pointwise generator on the visited
    states (left endpoints), so the audit exercises simulator and generator
    against each other with no series machinery involved.
    """
    hook, integral = _compensator(chars, f, cfg.paths)
    finals, *counts = _simulate(chars, x0, T, cfg, step_hook=hook)
    arg = finals[:, 0] if chars.dim == 1 else finals
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    f_end = _real_values(f(arg))
    start_arg = x0v if chars.dim == 1 else x0v[None, :]
    f_start = float(_real_values(f(start_arg)).reshape(-1)[0])
    vals = f_end - f_start - integral
    return _estimate(vals, *counts)
