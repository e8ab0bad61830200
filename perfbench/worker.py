"""One workload in one process: set-up, then whole rounds for a fixed time.

Started by ``run.py`` with ``HOLOSEQ_THREADS=1``; prints one JSON line.  With
``--setup-only`` it stops after the set-up and prints the set-up time alone.
With ``--trace 1`` it wraps the program's functions after the set-up and
reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t-spawn", type=float, required=True, help="time.monotonic() at spawn")
    return p.parse_args(argv)


def _median(xs):
    return float(statistics.median(xs)) if xs else math.nan


def _per_round(records, kinds) -> float:
    """Median over rounds of the round's time per expectation for these kinds.

    Each round runs the same operations, so pooling a round's operations of
    one kind averages out noise of single calls; the median over rounds then
    discards a round that a burst of load on the machine slowed.
    """
    per = {}
    for r in records:
        if r["kind"] in kinds and not r["failed"]:
            secs, flows = per.get(r["round"], (0.0, 0))
            per[r["round"]] = (secs + r["seconds"], flows + r["flows"])
    return _median([s / n for s, n in per.values()])


def end_to_end(records) -> dict:
    """The end-to-end metrics of one untraced run, setup_s aside."""
    done = [r for r in records if not r["failed"]]
    errs = [r["rel_err"] for r in done if r["rel_err"] is not None]
    sims = [r for r in done if r["kind"] == "simulate"]
    m = {
        "ops_per_s": (len(done) / sum(r["seconds"] for r in records), "1/s"),
        "linear_s.p50": (_per_round(records, ("linear",)), "s"),
        "riccati_s.p50": (_per_round(records, ("riccati",)), "s"),
        "loglinear_s.p50": (_per_round(records, ("loglinear",)), "s"),
        "err_digits": (-math.log10(max(max(errs), 1e-16)) if errs else math.nan, "digits"),
        "simulate_s.p50": (_per_round(records, ("simulate",)), "s"),
        "audit_s.p50": (_per_round(records, ("audit",)), "s"),
        "path_steps_per_s": (sum(r["path_steps"] for r in sims) / sum(r["seconds"] for r in sims), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# per-layer self times: metric -> span names (seconds per round)
SELF_TIMES = {
    "series.mul.self_s": ["series.mul"],
    "series.shift.self_s": ["series.shift"],
    "series.compose_shift.self_s": ["series.compose_shift"],
    "series.exp_star.self_s": ["series.exp_star"],
    "series.log_star.self_s": ["series.log_star"],
    "series.evaluate.self_s": ["series.evaluate"],
    "series.evaluate_many.self_s": ["series.evaluate_many"],
    "generator.apply_l.self_s": ["generator.apply_l"],
    "generator.apply_r.self_s": ["generator.apply_r"],
    "odeflow.self_s": [
        "odeflow.holomorphic_expectation", "odeflow.affine_expectation", "odeflow.solve_linear",
        "odeflow.solve_riccati", "odeflow.riccati_from_linear", "odeflow.tail_mass", "odeflow.integrate",
    ],
    "characteristics.values.self_s": ["characteristics.values"],
    "characteristics.validate_on_grid.self_s": ["characteristics.validate_on_grid"],
    "montecarlo.simulate.self_s": ["montecarlo.simulate"],
    "montecarlo.generator_values.self_s": ["montecarlo.generator_values"],
    "models.oracle.self_s": ["models.oracle"],
    "cli.run_config.self_s": ["cli.run_config"],
}
# counts taken in the first round, which every run with the seed repeats exactly
COUNTS = [
    "series.mul.calls", "series.shift.calls", "series.compose_shift.calls", "series.exp_star.calls",
    "series.log_star.calls", "series.evaluate.calls", "series.evaluate_many.calls",
    "series.evaluate_many.points", "generator.apply_l.calls", "generator.apply_r.calls",
    "odeflow.rhs_calls", "odeflow.steps_accepted", "odeflow.steps_rejected",
    "characteristics.values.calls", "montecarlo.generator_values.calls",
    "montecarlo.absorbed", "montecarlo.clamps", "models.oracle.calls",
]


def per_layer(tracer, records, rounds, path_steps_round0, spans_round0) -> dict:
    selfs = tracer.self_seconds()
    m = {}
    for key in COUNTS:
        m[key] = (int(tracer.counts.get(key, 0)), "count")
    acc, rej = m["odeflow.steps_accepted"][0], m["odeflow.steps_rejected"][0]
    m["odeflow.step_accept_ratio"] = (acc / (acc + rej) if acc + rej else 0.0, "ratio")
    for key, names in SELF_TIMES.items():
        m[key] = (sum(selfs.get(n, 0.0) for n in names) / rounds, "s")
    m["montecarlo.path_steps"] = (path_steps_round0, "count")
    total_steps = sum(r["path_steps"] for r in records)
    mc_s = tracer.total_seconds("montecarlo.simulate")
    m["montecarlo.path_step_us"] = (1e6 * mc_s / total_steps if total_steps else 0.0, "us")
    done = [r for r in records if not r["failed"]]
    m["trace.ops_per_s"] = (len(done) / sum(r["seconds"] for r in records), "1/s")
    m["trace.spans_per_round"] = (spans_round0, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import holoseq  # noqa: F401  (fails fast outside a checkout)

    if not Path(holoseq.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"holoseq imported from {holoseq.__file__}, not from the checkout", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed, args.smoke)
    for op in ops:
        op.warm()
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    for op in ops:
        op.prepare()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    correct = True
    rounds = 0
    clock = time.perf_counter
    start = clock()
    while rounds == 0 or clock() - start < args.seconds:
        for op in ops:
            if tracer is not None:
                tracer.op = len(records)
                tracer.counting = rounds == 0
            failed = False
            t0 = clock()
            try:
                out = op.call(rounds)
            except Exception as e:  # an operation that raises counts as failed
                failed = True
                print(f"[failed] {op.name}: {type(e).__name__}: {e}", file=sys.stderr)
            seconds = clock() - t0
            check = None if failed else op.check(out)
            if check is not None and not check.ok:
                correct = False
                print(f"[wrong] {check.detail}", file=sys.stderr)
            records.append({
                "name": op.name, "kind": op.kind, "round": rounds, "seconds": seconds, "flows": op.flows,
                "path_steps": op.path_steps, "failed": failed,
                "rel_err": None if check is None else check.rel_err,
            })
        if rounds == 0 and tracer is not None:
            spans_round0 = len(tracer.span_name)
        rounds += 1

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (out_dir / f"ops-{tag}.json").write_text(json.dumps(records, indent=0))
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out_dir / f"spans-{tag}.npz")
        metrics = per_layer(tracer, records, rounds, sum(op.path_steps for op in ops), spans_round0)
    else:
        metrics = end_to_end(records)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "rounds": rounds,
        "setup_s": setup_s,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
