"""Per-layer tracing of one tuning run, from outside the package.

install() wraps the problem callbacks (through the problem registry) and the
public functions a tuning run goes through: controller.solve,
simulate_closed_loop, evaluate_on_set and find_alpha_max.  Each wrapper adds
to per-process accumulators: calls, total time, self time (its span minus
the wrapped calls inside it) and the callback calls inside the span, plus
counters read from the returned results.  A callback wrapper's own work
falls outside its timed call, into the self time of the span around it;
wrapper_self_s() measures it per call so that layer_metrics() can take it
out.

Pool workers are forked from the traced process (the default start method of
ProcessPoolExecutor on Linux), so they inherit the wrappers.  The accumulators
are module state because pickled callbacks and forked workers can only reach
state by import path; a fork resets them in the child.  After every task a
worker writes its cumulative state to the spill directory, and collect()
merges the parent's state with the last snapshot of each worker.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from pathlib import Path

import numpy as np

from mpc_autotune import controller, tuning
from mpc_autotune.controller import WORK_PER_RK_STEP
from mpc_autotune.problems import get_problem, register_problem

perf = time.perf_counter

_CALLBACKS = {
    "rhs": "pvtol.rhs",
    "rhs_jac": "pvtol.rhs_jac",
    "stage_cost": "pvtol.aux",
    "stage_cost_grad": "pvtol.aux",
    "terminal_penalty_base": "pvtol.aux",
    "terminal_penalty_grad": "pvtol.aux",
    "constraint_map": "pvtol.aux",
    "constraint_jac": "pvtol.aux",
}


class _State:
    """Accumulators of one process."""

    def __init__(self) -> None:
        # key -> [calls, total_s, self_s, callback calls inside]
        self.acc: dict[str, list[float]] = {}
        self.callbacks = 0  # callback calls so far
        self.stack = [0.0]  # child time of each open span
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {"solve": [], "sim": []}
        self.depth = 0  # nesting of tuning calls; 0 outside any task
        self.phase = 0


_STATE = _State()
_OWNER = {"pid": None, "spill": None, "dev_acc": 1.0}


def _reset_after_fork() -> None:
    global _STATE
    _STATE = _State()


def _add(key: str, total: float, self_time: float, callbacks: int = 0) -> None:
    a = _STATE.acc.get(key)
    if a is None:
        a = _STATE.acc[key] = [0, 0.0, 0.0, 0]
    a[0] += 1
    a[1] += total
    a[2] += self_time
    a[3] += callbacks


def _count(key: str, n: int = 1) -> None:
    _STATE.counts[key] = _STATE.counts.get(key, 0) + n


class TracedCallback:
    """Picklable timing wrapper around one problem callback."""

    def __init__(self, fn, key: str) -> None:
        self.fn = fn
        self.key = key

    def __call__(self, *args):
        t0 = perf()
        out = self.fn(*args)
        d = perf() - t0
        st = _STATE
        _add(self.key, d, d)
        st.stack[-1] += d
        st.callbacks += 1
        return out


def traced_problem(problem):
    """Copy of the problem with every callback it defines wrapped."""
    wrapped = {
        name: TracedCallback(getattr(problem, name), key)
        for name, key in _CALLBACKS.items()
        if getattr(problem, name) is not None
    }
    return dataclasses.replace(problem, **wrapped)


def _span(key: str, fn, after=None):
    """Wrap fn in a span; after(args, result, seconds) reads its result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = _STATE
        st.stack.append(0.0)
        callbacks = st.callbacks
        t0 = perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            d = perf() - t0
            child = st.stack.pop()
            st.stack[-1] += d
            _add(key, d, d - child, st.callbacks - callbacks)
        if after is not None:
            after(args, out, d)
        return out

    return wrapper


def _after_solve(args, result, seconds: float) -> None:
    st = _STATE
    _count("controller.solves")
    _count(f"tuning.phase{st.phase}_solves")
    _count("controller.iterations", result.iterations_used)
    _count("controller.work_units", result.work_units)
    st.samples["solve"].append(seconds)


def _plant_steps(report) -> int:
    """Fine plant steps a closed-loop report went through.

    Every successful step fills one row of states (row 0 is x0).  A plant
    divergence at update k leaves inputs[k] set and drops the failing step.
    """
    steps = int(np.count_nonzero(~np.isnan(report.states[:, 0]))) - 1
    k = report.diverged_at
    if k is not None and not np.isnan(report.inputs[k, 0]):
        steps += 1
    return steps


def _after_sim(args, report, seconds: float) -> None:
    _count("controller.sims")
    _count("integration.plant_steps", _plant_steps(report))
    if report.diverged:
        _count("controller.diverged_sims")
    # the real-time test of tuning.rt_excess: solver time past dev_acc * tau_u
    budget = _OWNER["dev_acc"] * report.tau_u
    times = report.solver_times[np.isfinite(report.solver_times)]  # updates that ran
    over = np.flatnonzero(times / budget - 1.0 > 0.0)
    if over.size:
        _count("controller.sims_rt_overrun")
        _count("controller.solves_after_overrun", report.n_solves - int(over[0]) - 1)
    _STATE.samples["sim"].append(seconds)


def _tuning_call(key: str, fn, phase_of_top: int, after=None):
    """Span around a tuning function that may be the top of a pool task;
    a top-level call is a phase-1 or phase-2 task."""
    inner = _span(key, fn, after)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = _STATE
        top = st.depth == 0
        if top:
            st.phase = phase_of_top
        st.depth += 1
        t0 = perf()
        try:
            out = inner(*args, **kwargs)
        finally:
            st.depth -= 1
        if top:
            _add(f"tuning.task.phase{st.phase}", perf() - t0, 0.0)
            if os.getpid() != _OWNER["pid"]:
                _spill()
        return out

    return wrapper


def _after_evaluate(args, ev, seconds: float) -> None:
    _count("tuning.evaluations")
    _count("tuning.scenarios_simulated", ev.n_scenarios)


def _snapshot(st: _State) -> dict:
    return {"acc": st.acc, "counts": st.counts, "samples": st.samples}


def _spill() -> None:
    path = Path(_OWNER["spill"]) / f"{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(_snapshot(_STATE)))
    os.replace(tmp, path)


def install(problem_name: str, spill_dir: Path, dev_acc: float) -> None:
    """Wrap the layers of one run in this process and its future workers."""
    spill_dir.mkdir(parents=True, exist_ok=True)
    _OWNER.update(pid=os.getpid(), spill=str(spill_dir), dev_acc=dev_acc)
    os.register_at_fork(after_in_child=_reset_after_fork)

    factory = get_problem(problem_name)
    register_problem(problem_name, lambda: traced_problem(factory()))

    controller.solve = _span("controller.solve", controller.solve, _after_solve)
    tuning.simulate_closed_loop = _span("controller.sim", tuning.simulate_closed_loop, _after_sim)
    tuning.evaluate_on_set = _tuning_call("tuning.evaluate_on_set", tuning.evaluate_on_set, 2, _after_evaluate)
    tuning.find_alpha_max = _tuning_call("tuning.find_alpha_max", tuning.find_alpha_max, 1)


def collect() -> tuple[dict, int]:
    """Merged state of this process and its workers, and the worker count."""
    merged = _snapshot(_STATE)
    merged = json.loads(json.dumps(merged))  # deep copy
    workers = 0
    for path in sorted(Path(_OWNER["spill"]).glob("*.json")):
        snap = json.loads(path.read_text())
        workers += 1
        for key, values in snap["acc"].items():
            a = merged["acc"].setdefault(key, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                a[i] += v
        for key, n in snap["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + n
        for key, values in snap["samples"].items():
            merged["samples"][key].extend(values)
    return merged, workers


def wrapper_self_s(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds a callback wrapper adds per call outside its timed inner call,
    beyond the cost of calling the callback directly: median over repeats of
    a loop of wrapped calls to a no-op, inside an open span."""
    global _STATE

    def noop(x, u, p):
        return None

    wrapped = TracedCallback(noop, "calibration")
    saved, samples = _STATE, []
    try:
        for _ in range(repeats):
            _STATE = _State()
            t0 = perf()
            for _ in range(calls):
                wrapped(0, 0, 0)
            t_wrapped = perf() - t0
            t0 = perf()
            for _ in range(calls):
                noop(0, 0, 0)
            t_direct = perf() - t0
            samples.append((t_wrapped - _STATE.acc["calibration"][1] - t_direct) / calls)
    finally:
        _STATE = saved
    return float(np.median(samples))


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# counters that are exact for a given config; two runs must agree on them
COUNT_METRICS = (
    "pvtol.rhs_calls",
    "pvtol.rhs_jac_calls",
    "pvtol.aux_calls",
    "integration.plant_steps",
    "controller.solves",
    "controller.iterations",
    "controller.work_units",
    "controller.sims",
    "controller.diverged_sims",
    "controller.sims_rt_overrun",
    "controller.solves_after_overrun",
    "tuning.dial_searches",
    "tuning.evaluations",
    "tuning.scenarios_simulated",
    "tuning.phase1_solves",
    "tuning.phase2_solves",
)


def layer_metrics(merged: dict, workers: int, tune_s: float, wrapper_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.  Timings are in the units their
    names carry; tail percentiles are p90 (see README for sample counts).
    wrapper_s is the per-call cost of a callback wrapper that lands in the
    span around it (wrapper_self_s())."""
    acc, counts, samples = merged["acc"], merged["counts"], merged["samples"]

    def calls(key):
        return int(acc.get(key, [0])[0])

    def total(key):
        return float(acc.get(key, [0, 0.0])[1])

    def self_s(key):
        return float(acc.get(key, [0, 0.0, 0.0])[2])

    def callbacks_in(key):
        return int(acc.get(key, [0, 0.0, 0.0, 0])[3])

    solves = counts.get("controller.solves", 0)
    work = counts.get("controller.work_units", 0)
    out = {
        "pvtol.rhs_calls": calls("pvtol.rhs"),
        "pvtol.rhs_s": total("pvtol.rhs"),
        "pvtol.rhs_jac_calls": calls("pvtol.rhs_jac"),
        "pvtol.rhs_jac_s": total("pvtol.rhs_jac"),
        "pvtol.aux_calls": calls("pvtol.aux"),
        "pvtol.aux_s": total("pvtol.aux"),
        "integration.plant_steps": counts.get("integration.plant_steps", 0),
        "controller.solves": solves,
        "controller.solve_ms_p50": 1e3 * _pct(samples["solve"], 50),
        "controller.solve_ms_tail": 1e3 * _pct(samples["solve"], 90),
        # solve calls the callbacks directly, so their wrappers' own cost
        # lands in its self time
        "controller.solve_self_s": self_s("controller.solve") - wrapper_s * callbacks_in("controller.solve"),
        "controller.iterations": counts.get("controller.iterations", 0),
        "controller.work_units": work,
        "controller.wall_per_work_us": 1e6 * total("controller.solve") / work if work else 0.0,
        "controller.sims": counts.get("controller.sims", 0),
        "controller.sim_s_p50": _pct(samples["sim"], 50),
        "controller.sim_s_tail": _pct(samples["sim"], 90),
        "controller.diverged_sims": counts.get("controller.diverged_sims", 0),
        "controller.sims_rt_overrun": counts.get("controller.sims_rt_overrun", 0),
        "controller.solves_after_overrun": counts.get("controller.solves_after_overrun", 0),
        "tuning.dial_searches": calls("tuning.find_alpha_max"),
        "tuning.evaluations": counts.get("tuning.evaluations", 0),
        "tuning.scenarios_simulated": counts.get("tuning.scenarios_simulated", 0),
        "tuning.phase1_solves": counts.get("tuning.phase1_solves", 0),
        "tuning.phase2_solves": counts.get("tuning.phase2_solves", 0),
        "tuning.phase1_s": total("tuning.task.phase1"),
        "tuning.phase2_s": total("tuning.task.phase2"),
        "tuning.tune_s": tune_s,
    }
    out["controller.useful_solve_ratio"] = (
        (solves - out["controller.solves_after_overrun"]) / solves if solves else 0.0
    )
    callbacks = out["pvtol.rhs_calls"] + out["pvtol.rhs_jac_calls"] + out["pvtol.aux_calls"]
    out["trace.wrapper_us"] = 1e6 * wrapper_s
    out["trace.wrapper_s"] = wrapper_s * callbacks
    # every solve-side RK step costs 4 rhs calls (cost pass) or 4 rhs_jac
    # calls (gradient pass, which reuses the cost pass's stage states); the
    # plant's steps cost 4 rhs calls each and no work units
    out["controller.work_identity_residual"] = work - (
        out["pvtol.rhs_calls"] - WORK_PER_RK_STEP * out["integration.plant_steps"] + out["pvtol.rhs_jac_calls"]
    )
    # the self times of the wrapped layers partition the task spans, so this
    # is also the share of tune_s (times processes) the layers account for
    busy = out["tuning.phase1_s"] + out["tuning.phase2_s"]
    capacity = max(workers, 1) * tune_s
    out["tuning.worker_busy_share"] = busy / capacity if capacity > 0 else 0.0
    return out
