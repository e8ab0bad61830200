"""Expectations of holomorphic payoffs under jump-diffusions via sequence ODEs."""

import os as _os

# The flows' matrix-vector products are small, so a BLAS pool costs more than
# it saves; pools size themselves when numpy loads, so pin them before that.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if not any(_v in _os.environ for _v in _THREAD_VARS):
    _os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

from holoseq.series import (
    CoeffSeries,
    LeadingCoefficientError,
    compose_shift,
    evaluate,
    exp_star,
    from_entries,
    lin_comb,
    log_star,
    mul,
    shift,
    unit,
    zero,
)

__all__ = [
    "CoeffSeries",
    "LeadingCoefficientError",
    "compose_shift",
    "evaluate",
    "exp_star",
    "from_entries",
    "lin_comb",
    "log_star",
    "mul",
    "shift",
    "unit",
    "zero",
]

__version__ = "0.1.0"
