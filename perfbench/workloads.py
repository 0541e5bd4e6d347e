"""Workload definitions: one RunConfig mapping per workload.

Every workload uses cost-model timing with a fixed c_eval, so the work a run
does (solves, iterations, RK steps) is fixed by the config and only its speed
varies between runs.  Each config is the first ``n_trials`` candidates of a
larger reference run: the candidate stream does not depend on n_trials, so the
cut keeps those candidates' verdicts.
"""

from __future__ import annotations

import functools

from mpc_autotune.problems import register_problem
from mpc_autotune.pvtol import pvtol_problem

GENTLE_PROBLEM = "pvtol-gentle"

_COMMON = {"timing_mode": "cost-model", "duration": 0.5, "c_eval": 1.0e-6}

WORKLOADS = {
    # the acceptance suite's TUNE_SETTINGS, cut to its first candidate and
    # run in one process; eliminated at batch 2
    "desk": {
        **_COMMON,
        "problem": "pvtol",
        "seed": 7,
        "nb": 5,
        "nsb": 4,
        "n_trials": 1,
        "jobs": 1,
    },
    # the README default shape (nb=30, nsb=10) at seed 0, cut to its first
    # candidate; rejected at batch 1 by the step-3 contraction check
    "wide": {
        **_COMMON,
        "problem": "pvtol",
        "seed": 0,
        "nb": 30,
        "nsb": 10,
        "n_trials": 1,
        "jobs": 2,
        "dump_reports": True,
    },
    # the survivor-path config of the acceptance suite's gentle-envelope test
    # and demos/desk_tuning.py, cut to its first three candidates: one
    # elimination at batch 3, one step-3 rejection and one survivor
    "gentle": {
        **_COMMON,
        "problem": GENTLE_PROBLEM,
        "seed": 7,
        "nb": 3,
        "nsb": 2,
        "duration": 1.0,
        "c_eval": 2.0e-6,
        "n_trials": 3,
        "jobs": 2,
        "kappa_min": 2,
        "kappa_max": 10,
        "mu_d_min": 0.0,
        "mu_d_max": 1.0,
        "n_pred_min": 8,
        "n_pred_max": 20,
        "n_contr_min": 1,
        "n_contr_max": 3,
        "rho_f_min": 1.0,
        "rho_f_max": 30.0,
        "rho_constr_min": 1.0e3,
        "rho_constr_max": 1.0e5,
        "max_iter_min": 20,
        "max_iter_max": 45,
        "rho_log_space": True,
    },
}

# narrow initial-state box of the gentle envelope
gentle_problem = functools.partial(
    pvtol_problem,
    x_sample_min=(-1.0, -1.0, -0.25, -0.2, -0.2, -0.2),
    x_sample_max=(1.0, 1.0, 0.25, 0.2, 0.2, 0.2),
)


def register_workload_problems() -> None:
    register_problem(GENTLE_PROBLEM, gentle_problem)
