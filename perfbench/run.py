"""holoseq benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload {preset-runs,flow-nd,mc-euler} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in its own single-threaded process
(HOLOSEQ_THREADS=1).  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; ``setup_s`` is the median of SETUP_REPEATS
set-ups in fresh processes plus the measuring process's own.  With
``--trace 1`` a single traced process reports the per-layer metrics and writes
its spans to ``perfbench/out/``.  ``--smoke`` shrinks every input so the
benchmark's own tests finish in seconds; every check stays on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("preset-runs", "flow-nd", "mc-euler")
SETUP_REPEATS = 5
# a run must end within 180 s; leave room for the final round
DEADLINE_S = 170.0


def _spawn(args, extra, deadline):
    env = dict(os.environ)
    for var in ("HOLOSEQ_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t-spawn", repr(time.monotonic()), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "holoseq" / "__init__.py").is_file():
        print(f"no holoseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res = _spawn(args, [], deadline)
        else:
            setups = [_spawn(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
            res = _spawn(args, [], deadline)
            setups.append(res["setup_s"])
            res["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as e:
        print(f"benchmark failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    out = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
