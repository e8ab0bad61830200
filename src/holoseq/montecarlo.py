"""Monte Carlo cross-checks: Euler paths, generator by differences, martingale audit.

The simulator draws the uncompensated dynamics: since the kernel enters the
generator in compensated form, the effective Euler drift is
b(x) - lambda(x) sum_m w_m j_m(x). Dropping the correction simulates a
different process whenever the jump mean is nonzero.

Reproducibility: paths are processed in fixed-size batches, each with its own
stream keyed by (seed, batch index), and reduced in batch order; results are
bit-identical for a fixed config regardless of how batches would be scheduled.

One evaluation per step: ``_characteristics`` evaluates the drift, the
diffusion, the unclipped intensity and the jump sizes at a step's live
states. The step derives from that one result its diffusion root, clipped
intensity, jump probability, atom table and mean jump; the martingale
audit's generator by differences, ``generator_values``, reads the same
result, so an audit evaluates nothing twice. A characteristic whose series
has degree <= 0 does not depend on the state: it is evaluated once per
model and kept there, at a shape that broadcasts over the states, and what
the step derives from it once per run. Until the first path is absorbed, a
step reads and writes the batch arrays through views; boolean masks come
in only after that. A state at the origin of a pole kernel has an infinite
intensity: its jump is certain and its jump compensator zero, in the step
and in the generator. Every estimate is bit-identical to that of the loop
which evaluated each characteristic on every path at every step (kept in
the tests as ``reference_kernels.euler_paths``).

The generator's stencil works in f's own type, float64 for a real f, which
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
    # the kernel has an atom of positive weight; one without moves no path
    # and adds nothing to the generator
    jumps: bool


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
            k is not None and any(atom.weight > 0 for atom in k.atoms),
        )
        object.__setattr__(chars, "_state_free", fixed)
    return chars._state_free


class _Values(NamedTuple):
    """The raw characteristics at n states; one that does not depend on the
    state has its ``_StateFree`` shape, which broadcasts over the states."""

    drift: np.ndarray  # (n, dim)
    diffusion: np.ndarray  # (n, dim, dim)
    # both None when the kernel does not jump; the intensity is unclipped
    intensity: np.ndarray | None  # (n,)
    sizes: list[np.ndarray] | None  # (n, dim) per atom
    pole: np.ndarray  # indices of the states at the origin of a pole kernel


def _characteristics(chars: Characteristics, xs: np.ndarray) -> _Values:
    """The characteristics at the (n, dim) states ``xs``, each that depends on
    the state evaluated once; the rest are read from ``_state_free``."""
    fixed, k = _state_free(chars), chars.kernel
    lam = sizes = None
    pole = np.zeros(0, dtype=int)
    if fixed.jumps:
        lam = k.intensity_value(xs) if fixed.intensity is None else fixed.intensity
        sizes = _jump_sizes(chars, xs) if fixed.sizes is None else fixed.sizes
        if k.pole_order:
            pole = np.flatnonzero(xs[:, 0] == 0.0)
    return _Values(
        chars.drift_values(xs) if fixed.drift is None else fixed.drift,
        chars.diffusion_values(xs) if fixed.diffusion is None else fixed.diffusion,
        lam, sizes, pole,
    )


def _off_pole(lam: np.ndarray, term: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """lam * term, zero at the ``pole`` rows: a state at the origin of a pole
    kernel jumps with certainty and has no jump compensator."""
    if not len(pole):
        return lam * term
    with np.errstate(invalid="ignore"):  # inf * 0 at the pole
        out = lam * term
    out[pole] = 0.0
    return out


def generator_values(chars: Characteristics, f, xs: np.ndarray, values: _Values | None = None) -> np.ndarray:
    """Extended generator applied to f at many states, derivatives by differences.

    ``f`` must be vectorised: it maps an (n, dim) array (or (n,) in dimension
    one) to n values. The result has f's type: float64 when f returns real
    values, complex128 when it returns complex ones, and then equals the
    float64 result in its real part. Gradients and pure second derivatives
    use fourth-order central stencils with step 1e-4 (1 + |x_i|); cross
    partials use the second-order four-point cross. States sitting exactly
    at the origin of a pole-order kernel get a zero jump term (the
    absorbed-state limit). ``values`` are the characteristics at ``xs`` when
    the caller has them, as an Euler step does; otherwise they are evaluated
    here, the state-free ones once per model.
    """
    pts = real_points(xs, chars.dim)
    n, dim = pts.shape
    v = _characteristics(chars, pts) if values is None else values

    def call(q: np.ndarray) -> np.ndarray:
        return np.asarray(f(q[:, 0] if chars.dim == 1 else q), dtype=dtype)

    dtype = None  # f's own type, read from f0
    f0 = call(pts)
    dtype = np.complex128 if np.iscomplexobj(f0) else np.float64
    f0 = f0.astype(dtype, copy=False)
    h = 1e-4 * (1.0 + np.abs(pts))  # (n, dim) stencil steps
    grad = np.empty((n, dim), dtype=dtype)
    diag = np.empty((n, dim), dtype=dtype)
    unit = np.eye(dim)
    for i in range(dim):
        step, step2 = h[:, i : i + 1] * unit[i], 2 * h[:, i : i + 1] * unit[i]
        fp1, fm1 = call(pts + step), call(pts - step)
        fp2, fm2 = call(pts + step2), call(pts - step2)
        hi = h[:, i]
        hi12, neg_fp2 = 12 * hi, -fp2
        # a product with the reciprocal is what dividing a complex value by
        # a real one computes, so both types round alike
        grad[:, i] = (neg_fp2 + 8 * fp1 - 8 * fm1 + fm2) * (1.0 / hi12)
        diag[:, i] = (neg_fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) * (1.0 / (hi12 * hi))

    a = v.diffusion
    out = np.sum(v.drift * grad, axis=1) + 0.5 * np.sum(
        a[:, np.arange(dim), np.arange(dim)] * diag, axis=1
    )
    for i in range(dim):
        for j in range(i + 1, dim):
            hij = h[:, [i]] * unit[i] + h[:, [j]] * unit[j]
            hij_m = h[:, [i]] * unit[i] - h[:, [j]] * unit[j]
            cross = (call(pts + hij) - call(pts + hij_m) - call(pts - hij_m) + call(pts - hij)) * (
                1.0 / (4 * h[:, i] * h[:, j])
            )
            out += a[:, i, j] * cross

    if v.intensity is not None:
        jump_term = np.zeros(n, dtype=dtype)
        for atom, size in zip(chars.kernel.atoms, v.sizes):
            fj = call(pts + size)
            jump_term += atom.weight * (fj - f0 - np.sum(grad * size, axis=1))
        out += _off_pole(v.intensity, jump_term, v.pole)
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


def _simulate(chars: Characteristics, x0, T: float, cfg: McConfig, step_hook=None):
    """Run all batches; returns (final states (paths, dim), clamps, absorbed, jumps).

    ``step_hook(rows, alive, xa, values, dt)`` is called at each step with a
    live path, after the step's checks: ``rows`` slices the batch out of the
    run's paths, ``alive`` selects the live paths in it, ``xa`` are their
    states and ``values`` the step's ``_characteristics`` at ``xa``. The
    martingale audit accumulates its compensator integral there.
    """
    dim, dt = chars.dim, cfg.dt
    x0v, nsteps = check_run(chars, x0, T, cfg)
    kernel = chars.kernel
    weights = np.array([a.weight for a in kernel.atoms]) if kernel else np.zeros(0)
    total_w = weights.sum()
    cum_w = np.cumsum(weights) / total_w if total_w > 0 else None
    fixed = _state_free(chars)

    def intensity_at(lam, k):
        """lambda clipped at zero and the per-step jump probability."""
        # +inf (a path sitting on a pole) is a certain jump; NaN is not a rate
        if np.isnan(lam).any():
            raise IntensityBoundError(f"NaN jump intensity at t={k * dt:.6g}")
        if np.any(lam < -1e-12):
            raise IntensityBoundError(f"negative jump intensity {lam.min():.6g} at t={k * dt:.6g}")
        lam = np.clip(lam, 0.0, None)
        # exact per-step jump probability 1 - exp(-rate dt), which stays valid
        # as rates blow up
        return lam, -np.expm1(-(lam * total_w) * dt)

    def atom_table(sizes):
        """(atoms, points, dim) jump sizes and their weighted sum, the
        compensated kernel's drift correction per unit intensity."""
        return np.stack(sizes, axis=0), sum(w * s for w, s in zip(weights, sizes))

    def diffusion_root_at(a, k):
        """sqrt(a dt) in dimension one, else the symmetric square root of a."""
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

    # derived once per run from a state-free value, None where each step does
    rate0 = intensity_at(fixed.intensity, 0) if fixed.jumps and fixed.intensity is not None else None
    table0 = atom_table(fixed.sizes) if fixed.jumps and fixed.sizes is not None else None
    root0 = diffusion_root_at(fixed.diffusion, 0) if fixed.diffusion is not None else None

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
            # views of the whole batch until the first absorption, masked
            # copies after it
            alive = ~frozen if frozen.any() else slice(None)
            xa = x[alive]
            if not len(xa):
                continue
            v = _characteristics(chars, xa)
            b = v.drift
            if fixed.jumps:
                lam, p_jump = intensity_at(v.intensity, k) if rate0 is None else rate0
                table, mean_jump = atom_table(v.sizes) if table0 is None else table0
                jumped = u_jump[alive] < p_jump
                b = b - _off_pole(lam[:, None], mean_jump, v.pole)
            root = diffusion_root_at(v.diffusion, k) if root0 is None else root0
            if step_hook is not None:
                step_hook(slice(b_idx * _BATCH, b_idx * _BATCH + m), alive, xa, v, dt)
            if dim == 1:
                inc = root * z[alive]
            else:
                inc = np.einsum("nij,nj->ni", root, z[alive]) * np.sqrt(dt)
            xn = xa + b * dt + inc
            if fixed.jumps and jumped.any():
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


def _payoff(chars: Characteristics, f, states: np.ndarray) -> np.ndarray:
    """f at (n, dim) states as float64; a nonzero imaginary part raises
    ValueError instead of being dropped."""
    v = np.asarray(f(states[:, 0] if chars.dim == 1 else states))
    if np.iscomplexobj(v):
        if np.any(v.imag != 0):
            raise ValueError("f returned values with a nonzero imaginary part; Monte Carlo estimates real payoffs only")
        v = v.real
    return np.asarray(v, dtype=float)


def simulate_expectation(chars: Characteristics, f, x0, T: float, cfg: McConfig) -> McEstimate:
    """E[f(X_T)] by Euler paths; f vectorised over final states, real-valued."""
    finals, *counts = _simulate(chars, x0, T, cfg)
    return _estimate(_payoff(chars, f, finals), *counts)


def _compensator(chars: Characteristics, f, paths: int):
    """A step hook for ``_simulate`` and the (paths,) array it fills with
    int_0^T A f(X_s) ds, the pointwise generator at each step's left
    endpoint, per path; absorbed paths add nothing."""
    integral = np.zeros(paths)

    def hook(rows: slice, alive, xa: np.ndarray, values: _Values, dt: float) -> None:
        integral[rows][alive] += generator_values(chars, f, xa, values).real * dt

    return hook, integral


def martingale_audit(chars: Characteristics, f, x0, T: float, cfg: McConfig) -> McEstimate:
    """Estimate E[f(X_T) - f(x_0) - int_0^T A f(X_s) ds]; should straddle zero.

    The compensator integral uses the pointwise generator on the visited
    states (left endpoints), so the audit exercises simulator and generator
    against each other with no series machinery involved.
    """
    hook, integral = _compensator(chars, f, cfg.paths)
    finals, *counts = _simulate(chars, x0, T, cfg, step_hook=hook)
    f_start = float(_payoff(chars, f, real_points(x0, chars.dim)).reshape(-1)[0])
    return _estimate(_payoff(chars, f, finals) - f_start - integral, *counts)
