"""Model data for jump-diffusions: drift, diffusion, and jump kernel.

All entries are coefficient series (see :mod:`holoseq.series`), so the state
dependence of every characteristic is holomorphic. The jump kernel is a
finite atomic mixture: intensity lambda(x) times atoms (weight w_m, size
j_m(x)). The kernel convention is compensated: the generator integrand is
f(x + j) - f(x) - grad f(x) . j, so the drift series is the compensated one.

Intensities with a simple pole at the origin (state-proportional kill rates)
are carried in factored form lambda(x) = s(x) / x_1^p via ``pole_order``;
series-level operations multiply by s first and divide the product by the
coordinate, which is exact whenever the jump sizes vanish at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from holoseq import series as ser
from holoseq.checks import check_keys, is_finite_real, is_integer
from holoseq.series import CoeffSeries, RealEvaluator, SeriesMatrix, SeriesVector

__all__ = [
    "JumpAtom",
    "JumpKernel",
    "Characteristics",
    "Degrees",
    "GridFinding",
    "validate_on_grid",
    "characteristics_from_config",
    "series_from_config",
]


@dataclass(frozen=True)
class JumpAtom:
    """One atom of the jump measure: a finite weight >= 0 and a jump-size series per coordinate."""

    weight: float
    size: SeriesVector
    _size_eval: tuple[RealEvaluator, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (is_finite_real(self.weight) and self.weight >= 0):
            raise ValueError(f"atom weight must be finite and >= 0, got {self.weight}")
        object.__setattr__(self, "size", tuple(self.size))
        object.__setattr__(self, "_size_eval", tuple(RealEvaluator(s) for s in self.size))

    def size_values(self, xs) -> np.ndarray:
        """(npoints, dim) jump sizes at real state points (see ``series.real_points``)."""
        pts = ser.real_points(xs, len(self.size))
        return np.stack([ev(pts) for ev in self._size_eval], axis=1)


@dataclass(frozen=True)
class JumpKernel:
    """K(x, .) = lambda(x) sum_m w_m delta_{j_m(x)} with lambda = intensity / x_1^pole_order."""

    intensity: CoeffSeries
    atoms: tuple[JumpAtom, ...]
    pole_order: int = 0
    _intensity_eval: RealEvaluator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not (is_integer(self.pole_order) and self.pole_order >= 0):
            raise ValueError(f"pole_order must be an integer >= 0, got {self.pole_order!r}")
        if self.pole_order > 0 and self.intensity.dim != 1:
            raise ValueError("pole_order > 0 is supported for dim=1 kernels only")
        object.__setattr__(self, "_intensity_eval", RealEvaluator(self.intensity))

    def intensity_value(self, x) -> np.ndarray:
        """lambda at real state points (see ``series.real_points``)."""
        pts = ser.real_points(x, self.intensity.dim)
        vals = self._intensity_eval(pts)
        if self.pole_order:
            base = pts[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = vals / base**self.pole_order
        return vals


class Degrees(NamedTuple):
    """The highest nonzero degree of each characteristic, -1 for a zero one:
    over the drift components, over the diffusion entries, of the intensity,
    and over the jump sizes of each atom that moves the state (positive
    weight and a nonzero size)."""

    drift: int
    diffusion: int
    intensity: int
    atoms: tuple[int, ...]


@dataclass(frozen=True)
class Characteristics:
    """Differential characteristics (b, a, K) with series-valued state dependence."""

    dim: int
    drift: SeriesVector
    diffusion: SeriesMatrix
    kernel: JumpKernel | None = None
    _drift_eval: tuple[RealEvaluator, ...] = field(init=False, repr=False, compare=False)
    _diffusion_eval: tuple[tuple[RealEvaluator, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    # the generator matrix L with its 1-norm, and the quadratic rows of R,
    # compiled by ``holoseq.generator`` on first use
    _l_matrix: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    _l_norm: float | None = field(init=False, repr=False, compare=False, default=None)
    _r_rows: tuple[np.ndarray, ...] | None = field(init=False, repr=False, compare=False, default=None)
    degrees: Degrees = field(init=False, repr=False, compare=False)
    # the characteristics that do not depend on the state, evaluated by
    # ``holoseq.montecarlo`` on first use
    _state_free: tuple | None = field(init=False, repr=False, compare=False, default=None)
    # lower-order copies made by ``truncated``, by order, kept on the model
    # they were cut from; a copy names that model as its root
    _truncations: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _root: Characteristics | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "drift", tuple(self.drift))
        object.__setattr__(self, "diffusion", tuple(tuple(row) for row in self.diffusion))
        if len(self.drift) != self.dim:
            raise ValueError(f"drift needs {self.dim} components, got {len(self.drift)}")
        if len(self.diffusion) != self.dim or any(len(r) != self.dim for r in self.diffusion):
            raise ValueError(f"diffusion must be {self.dim}x{self.dim}")
        all_series = list(self.drift) + [s for row in self.diffusion for s in row]
        if self.kernel is not None:
            all_series.append(self.kernel.intensity)
            for atom in self.kernel.atoms:
                if len(atom.size) != self.dim:
                    raise ValueError("jump-size vector length must equal dim")
                all_series.extend(atom.size)
        dims = {s.dim for s in all_series}
        orders = {s.order for s in all_series}
        if dims != {self.dim} or len(orders) != 1:
            raise ValueError(
                f"characteristic series must share dim={self.dim} and one order; "
                f"got dims={sorted(dims)} orders={sorted(orders)}"
            )
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if not np.array_equal(self.diffusion[i][j].coeffs, self.diffusion[j][i].coeffs):
                    raise ValueError(f"diffusion series a[{i}][{j}] != a[{j}][{i}]")
        k = self.kernel
        sizes = [max(map(ser.degree, a.size)) for a in (k.atoms if k is not None else ()) if a.weight > 0]
        object.__setattr__(
            self,
            "degrees",
            Degrees(
                max(map(ser.degree, self.drift)),
                max(ser.degree(a) for row in self.diffusion for a in row),
                -1 if k is None else ser.degree(k.intensity),
                tuple(s for s in sizes if s >= 0),
            ),
        )
        object.__setattr__(self, "_drift_eval", tuple(RealEvaluator(b) for b in self.drift))
        # the upper triangle only: a[j][i] == a[i][j] was checked above
        object.__setattr__(
            self,
            "_diffusion_eval",
            tuple(
                tuple(RealEvaluator(a) for a in row[i:]) for i, row in enumerate(self.diffusion)
            ),
        )

    @property
    def order(self) -> int:
        return self.drift[0].order

    def truncated(self, order: int) -> "Characteristics":
        """The same characteristics at a lower order: each coefficient array
        cut to its prefix. Built once per order and kept on the root, the
        model the first cut was made from, so a copy of a copy is the root's
        copy, and the operators compiled on it are kept too."""
        if order == self.order:
            return self
        if not 0 <= order < self.order:
            raise ValueError(f"truncation order must be in [0, {self.order}], got {order}")
        root = self if self._root is None else self._root
        if order not in root._truncations:
            cut = lambda u: ser.with_order(u, order)  # noqa: E731
            k = root.kernel
            kernel = None
            if k is not None:
                atoms = tuple(JumpAtom(a.weight, tuple(map(cut, a.size))) for a in k.atoms)
                kernel = JumpKernel(cut(k.intensity), atoms, k.pole_order)
            diffusion = tuple(tuple(map(cut, row)) for row in root.diffusion)
            copy = Characteristics(root.dim, tuple(map(cut, root.drift)), diffusion, kernel)
            object.__setattr__(copy, "_root", root)
            root._truncations[order] = copy
        return root._truncations[order]

    def drift_values(self, xs) -> np.ndarray:
        """(npoints, dim) drift at real state points (see ``series.real_points``)."""
        pts = ser.real_points(xs, self.dim)
        return np.stack([ev(pts) for ev in self._drift_eval], axis=1)

    def diffusion_values(self, xs) -> np.ndarray:
        """(npoints, dim, dim) diffusion matrices at real state points."""
        pts = ser.real_points(xs, self.dim)
        out = np.empty((pts.shape[0], self.dim, self.dim))
        for i, row in enumerate(self._diffusion_eval):
            for j, ev in enumerate(row, start=i):
                out[:, i, j] = out[:, j, i] = ev(pts)
        return out


@dataclass(frozen=True)
class GridFinding:
    kind: str
    point: tuple[float, ...]
    detail: str


# a diffusion eigenvalue below -_PSD_TOL is reported as not PSD
_PSD_TOL = 1e-10


def validate_on_grid(
    chars: Characteristics,
    points: Iterable[Sequence[float]] | np.ndarray,
    box: tuple[Sequence[float], Sequence[float]] | None = None,
) -> tuple[GridFinding, ...]:
    """Spot-check model sanity on a state grid. Returns the findings, empty
    when the model passes; never raises.

    Checks: negative or NaN jump intensity, non-PSD diffusion, atoms whose
    jump size vanishes at a point while carrying weight (mass at zero jumps),
    and, when ``box`` is given, post-jump states leaving it (flagged only).
    The origin of a pole kernel absorbs, as in the simulator: an infinite
    intensity there is a certain jump and a zero jump size is expected.
    """
    pts = ser.real_points(points, chars.dim)
    findings: list[GridFinding] = []
    diff = chars.diffusion_values(pts)
    for p, a in zip(pts, diff):
        w = np.linalg.eigvalsh((a + a.T) / 2)
        if w.min() < -_PSD_TOL:
            findings.append(
                GridFinding(
                    "diffusion-not-psd", tuple(p.tolist()), f"min eigenvalue {w.min():.3e}"
                )
            )
    if chars.kernel is not None:
        k = chars.kernel
        lam = k.intensity_value(pts)
        for p, lv in zip(pts, lam):
            if np.isnan(lv) or lv < 0:
                findings.append(
                    GridFinding("negative-intensity", tuple(p.tolist()), f"lambda = {lv:.6g}")
                )
        at_pole = (pts[:, 0] == 0.0) & (k.pole_order > 0)
        for m, atom in enumerate(k.atoms):
            if atom.weight == 0:
                continue
            for p, j, pole in zip(pts, atom.size_values(pts), at_pole):
                if np.all(np.abs(j) < 1e-14):
                    if not pole:
                        findings.append(
                            GridFinding(
                                "zero-jump-size",
                                tuple(p.tolist()),
                                f"atom {m} jumps by 0 with weight {atom.weight}",
                            )
                        )
                elif box is not None:
                    lo = np.asarray(box[0], dtype=float)
                    hi = np.asarray(box[1], dtype=float)
                    target = p + j
                    if np.any(target < lo - 1e-12) or np.any(target > hi + 1e-12):
                        findings.append(
                            GridFinding(
                                "jump-leaves-box",
                                tuple(p.tolist()),
                                f"atom {m} lands at {tuple(np.round(target, 12).tolist())}",
                            )
                        )
    return tuple(findings)


# --- declarative config -------------------------------------------------------
#
# A series is a list of entries [alpha, real, imag] (alpha itself a list of
# exponents, or a bare int in dimension one). Missing entries are zero.


def series_from_config(spec, dim: int, order: int) -> CoeffSeries:
    """A series from its entries: exponents are integers >= 0 and values
    finite numbers; a bool or a string is an error, not coerced."""
    if spec is None:
        return ser.zero(dim, order)
    entries = []
    for item in spec:
        if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
            raise ValueError(f"series entry must be [alpha, re(, im)], got {item!r}")
        alpha = item[0] if isinstance(item[0], (list, tuple)) else [item[0]]
        if not all(is_integer(a) and a >= 0 for a in alpha):
            raise ValueError(f"series entry {item!r}: exponents must be integers >= 0")
        if not all(is_finite_real(v) for v in item[1:]):
            raise ValueError(f"series entry {item!r}: values must be finite numbers")
        im = item[2] if len(item) == 3 else 0.0
        entries.append((tuple(alpha), float(item[1]) + 1j * float(im)))
    return ser.from_entries(dim, order, entries)


def _named_series(spec, name: str, dim: int, order: int) -> CoeffSeries:
    """``series_from_config`` with its errors prefixed by the series' name."""
    try:
        return series_from_config(spec, dim, order)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


def _vector_from_config(spec, name: str, dim: int, order: int) -> SeriesVector:
    # dim 1: a single series config; dim > 1: one config per coordinate
    if dim == 1:
        return (_named_series(spec, f"{name}[0]", dim, order),)
    if spec is None:
        return tuple(ser.zero(dim, order) for _ in range(dim))
    if len(spec) != dim:
        raise ValueError(f"{name}: expected {dim} component configs, got {len(spec)}")
    return tuple(_named_series(c, f"{name}[{i}]", dim, order) for i, c in enumerate(spec))


def _atom_from_config(m: int, cfg, dim: int, order: int) -> JumpAtom:
    name = f"kernel atom {m}"
    check_keys(cfg, name, ("weight", "size"))
    for key in ("weight", "size"):
        if key not in cfg:
            raise ValueError(f"{name} needs a {key!r}")
    w = cfg["weight"]
    if not is_finite_real(w):
        raise ValueError(f"{name} weight must be a finite number, got {w!r}")
    return JumpAtom(float(w), _vector_from_config(cfg["size"], f"{name} size", dim, order))


def characteristics_from_config(cfg: dict, order: int) -> Characteristics:
    """Build Characteristics from a nested dict (parsed YAML): keys ``dim``,
    ``drift``, ``diffusion`` and ``kernel`` (``intensity``, ``atoms``,
    ``pole_order``; each atom ``weight`` and ``size``). An unknown key, a
    misshapen kernel or atom, or a value of the wrong type raises
    ValueError naming it."""
    check_keys(cfg, "model", ("dim", "drift", "diffusion", "kernel"))
    dim = cfg.get("dim", 1)
    if not is_integer(dim) or dim < 1:
        raise ValueError(f"model.dim must be an integer >= 1, got {dim!r}")
    drift = _vector_from_config(cfg.get("drift"), "drift", dim, order)
    diff_cfg = cfg.get("diffusion")
    if dim == 1:
        diffusion = ((_named_series(diff_cfg, "diffusion[0][0]", dim, order),),)
    elif diff_cfg is None:
        diffusion = tuple(tuple(ser.zero(dim, order) for _ in range(dim)) for _ in range(dim))
    else:
        diffusion = tuple(
            tuple(_named_series(c, f"diffusion[{i}][{j}]", dim, order) for j, c in enumerate(row))
            for i, row in enumerate(diff_cfg)
        )
    kernel = None
    kc = cfg.get("kernel")
    if kc is not None:
        check_keys(kc, "model.kernel", ("intensity", "atoms", "pole_order"))
        intensity = _named_series(kc.get("intensity", [[[0] * dim, 1.0]]), "kernel.intensity", dim, order)
        atoms = kc.get("atoms", [])
        if not isinstance(atoms, list):
            raise ValueError(f"model.kernel.atoms must be a list of atoms, got {atoms!r}")
        atoms = tuple(_atom_from_config(m, ac, dim, order) for m, ac in enumerate(atoms))
        kernel = JumpKernel(intensity, atoms, kc.get("pole_order", 0))
    return Characteristics(dim, drift, diffusion, kernel)
