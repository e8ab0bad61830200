"""The package's BLAS thread policy, checked in fresh interpreters: one
thread unless a standard thread variable is set, decided before numpy loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# records the thread variables at the moment numpy is first imported
PROBE = f"""
import json, os, sys
VARS = {THREAD_VARS!r}
seen = {{}}

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((v, os.environ.get(v)) for v in VARS)
        return None

assert "numpy" not in sys.modules
sys.meta_path.insert(0, Probe())
import holoseq
assert "numpy" in sys.modules
print(json.dumps({{"at_numpy_import": seen, "after": {{v: os.environ.get(v) for v in VARS}}}}))
"""


def _import_holoseq(**env_vars):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("HOLOSEQ_THREADS",)}
    env.update(env_vars, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "env_vars,want",
    [
        # the package-only alias of earlier versions is ignored
        ({"HOLOSEQ_THREADS": "4"}, dict.fromkeys(THREAD_VARS, "1")),
        ({"OMP_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": None}),
    ],
)
def test_thread_variables_set_before_numpy_loads(env_vars, want):
    seen = _import_holoseq(**env_vars)
    assert seen["at_numpy_import"] == want
    assert seen["after"] == want
