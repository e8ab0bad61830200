"""Expectations of holomorphic payoffs under jump-diffusions via sequence ODEs."""

import os as _os

# BLAS pools size themselves once, when numpy first loads, so HOLOSEQ_THREADS
# has to be translated to the usual knobs before any submodule imports numpy.
_t = _os.environ.get("HOLOSEQ_THREADS")
if _t:
    for _v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_v, _t)

from holoseq.series import (
    CoeffSeries,
    LeadingCoefficientError,
    abs_norm,
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
    "abs_norm",
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
