"""Spans and counts around holoseq's public functions, from outside the package.

``Tracer.install()`` replaces each traced function (and method) with a wrapper
under every name a loaded holoseq module binds it to: ``cli`` imports the
expectation functions by name, ``models`` imports ``dopri5``, and ``series``
calls ``mul`` and ``shift`` through its own globals, so patching one name would
miss calls.  Each call records a span (name, start, end, parent, operation),
kept in compact arrays and written out when the run ends.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute path, span name); a name missing from the program is skipped
TARGETS = [
    ("holoseq.series", "mul", "series.mul"),
    ("holoseq.series", "shift", "series.shift"),
    ("holoseq.series", "compose_shift", "series.compose_shift"),
    ("holoseq.series", "exp_star", "series.exp_star"),
    ("holoseq.series", "log_star", "series.log_star"),
    ("holoseq.series", "evaluate", "series.evaluate"),
    ("holoseq.series", "evaluate_many", "series.evaluate_many"),
    ("holoseq.generator", "apply_l_composition", "generator.apply_l"),
    ("holoseq.generator", "apply_l_moment", "generator.apply_l"),
    ("holoseq.generator", "apply_r", "generator.apply_r"),
    ("holoseq.odeflow", "holomorphic_expectation", "odeflow.holomorphic_expectation"),
    ("holoseq.odeflow", "affine_expectation", "odeflow.affine_expectation"),
    ("holoseq.odeflow", "solve_linear", "odeflow.solve_linear"),
    ("holoseq.odeflow", "solve_riccati", "odeflow.solve_riccati"),
    ("holoseq.odeflow", "riccati_from_linear", "odeflow.riccati_from_linear"),
    ("holoseq.odeflow", "tail_mass", "odeflow.tail_mass"),
    ("holoseq.odeflow", "dopri5", "odeflow.integrate"),
    ("holoseq.odeflow", "rk4_fixed", "odeflow.integrate"),
    ("holoseq.characteristics", "Characteristics.drift_values", "characteristics.values"),
    ("holoseq.characteristics", "Characteristics.diffusion_values", "characteristics.values"),
    ("holoseq.characteristics", "JumpKernel.intensity_value", "characteristics.values"),
    # the simulator's own intensity and jump-size evaluators
    ("holoseq.montecarlo", "_lambda_values", "characteristics.values"),
    ("holoseq.montecarlo", "_jump_sizes", "characteristics.values"),
    ("holoseq.characteristics", "validate_on_grid", "characteristics.validate_on_grid"),
    ("holoseq.montecarlo", "simulate_expectation", "montecarlo.simulate"),
    ("holoseq.montecarlo", "martingale_audit", "montecarlo.simulate"),
    ("holoseq.montecarlo", "generator_values", "montecarlo.generator_values"),
    ("holoseq.models", "expm", "models.oracle"),
    ("holoseq.models", "chain_expectation", "models.oracle"),
    ("holoseq.models", "chain_affine_flow", "models.oracle"),
    ("holoseq.models", "chain_riccati_rhs", "models.oracle"),
    ("holoseq.models", "two_state_closed_form", "models.oracle"),
    ("holoseq.models", "UnitIntervalModel.dual_expectation", "models.oracle"),
    ("holoseq.models", "AffineSpec.transform", "models.oracle"),
    ("holoseq.cli", "run_config", "cli.run_config"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self.op = -1
        self.counting = True
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, n: float = 1) -> None:
        if self.counting:
            self.counts[key] = self.counts.get(key, 0) + n

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.span_name)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            tracer.span_self.append(0.0)
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            t0 = clock()
            tracer.span_start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                dur = t1 - t0
                tracer.span_end[idx] = t1
                tracer.span_self[idx] = dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            tracer._observe(name, args, out)
            return out

        return wrapper

    def _observe(self, name: str, args, out) -> None:
        """Counts read from a call's arguments or result."""
        self.count(f"{name}.calls")
        if name == "series.evaluate_many":
            self.count("series.evaluate_many.points", int(np.shape(args[1])[0]))
        elif name == "odeflow.integrate":
            stats = out[2]
            self.count("odeflow.rhs_calls", stats["nfev"])
            self.count("odeflow.steps_accepted", stats["accepted"])
            self.count("odeflow.steps_rejected", stats["rejected"])
        elif name == "montecarlo.simulate":
            self.count("montecarlo.absorbed", out.absorbed)
            self.count("montecarlo.clamps", out.clamps)

    def install(self) -> None:
        """Wrap every target under every module-level name bound to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "holoseq" or n.startswith("holoseq.")]
        for mod_name, path, span in TARGETS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            owner = mod
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self.wrap(original, span)
            if parents:  # a method: patch the class attribute
                self._patch(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # --- summaries --------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        selfs = np.frombuffer(self.span_self, dtype=np.float64)
        out = np.bincount(ids, weights=selfs, minlength=len(self.names))
        return {n: float(out[i]) for i, n in enumerate(self.names)}

    def total_seconds(self, name: str) -> float:
        """Inclusive time of the outermost spans with this name."""
        if name not in self._name_ids:
            return 0.0
        nid = self._name_ids[name]
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        mine = ids == nid
        nested = np.zeros_like(mine)
        nested[mine] = (parents[mine] >= 0) & (ids[np.maximum(parents[mine], 0)] == nid)
        return float(dur[mine & ~nested].sum())

    def write(self, path) -> None:
        """All spans as arrays in one .npz file, names alongside."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
