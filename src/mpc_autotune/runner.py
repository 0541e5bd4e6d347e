"""Run orchestration and reporting.

run() wires a RunConfig into the two-phase tuner and writes the artifacts:
settings.csv (one row per candidate), trace.json (machine-readable run
summary), run.log (human-readable log with seeds and the certification
coverage note), and optionally reports.jsonl (every closed-loop report).
summarize() re-reads a finished run directory, re-checks invariants, prints
the survivor table, and emits elimination_curve.csv.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .controller import TimingSpec, calibrate_c_eval, update_count
from .design import DesignBounds, sample_shaping
from .problems import ProblemDefinition, generate_cloud, get_problem, make_batches
from .tuning import (
    ELIMINATED,
    INFEASIBLE_AT_A0,
    SURVIVING,
    CertificationParams,
    TuningResult,
    required_scenarios,
    tune,
)

# constants of the coverage note written to run.log
NOTE_ETA = 0.05
NOTE_DELTA = 1.0e-3

SETTINGS_COLUMNS = [
    "index",
    "status",
    "alpha_hat",
    "kappa",
    "mu_d",
    "N_pred",
    "n_contr",
    "rho_f",
    "rho_constr",
    "max_iter",
    "tau_u",
    "T",
    "cumulative_cost",
    "scenarios_evaluated",
    "eliminated_batch",
    "eliminated_criterion",
]


class ConfigError(ValueError):
    """Invalid run configuration or config file."""


class ResultFileError(RuntimeError):
    """Missing or corrupt run artifacts found by summarize()."""


# the defaults of the run's design box, thresholds and timing, stated where those types are
_BOUNDS, _PARAMS, _TIMING = DesignBounds(), CertificationParams(), TimingSpec()


@dataclass
class RunConfig:
    """Flat run configuration; keys of the config file match these names."""

    problem: str = "pvtol"
    n_trials: int = 100
    nb: int = 30
    nsb: int = 10
    sigma_bar: int = 3
    duration: float = 0.5
    gamma: float = _PARAMS.gamma
    eps: float = _PARAMS.eps
    dev_acc: float = _PARAMS.dev_acc
    c_max: float = _PARAMS.c_max
    seed: int = 0
    jobs: int = 1
    timing_mode: str = _TIMING.mode
    timing_repeats: int = _TIMING.repeats
    c_eval: float | None = _TIMING.c_eval
    dump_reports: bool = False
    out_dir: str = "tuning_output"
    rho_log_space: bool = _BOUNDS.rho_log_space
    kappa_min: int = _BOUNDS.kappa[0]
    kappa_max: int = _BOUNDS.kappa[1]
    mu_d_min: float = _BOUNDS.mu_d[0]
    mu_d_max: float = _BOUNDS.mu_d[1]
    n_pred_min: int = _BOUNDS.n_pred[0]
    n_pred_max: int = _BOUNDS.n_pred[1]
    n_contr_min: int = _BOUNDS.n_contr[0]
    n_contr_max: int = _BOUNDS.n_contr[1]
    rho_f_min: float = _BOUNDS.rho_f[0]
    rho_f_max: float = _BOUNDS.rho_f[1]
    rho_constr_min: float = _BOUNDS.rho_constr[0]
    rho_constr_max: float = _BOUNDS.rho_constr[1]
    max_iter_min: int = _BOUNDS.max_iter[0]
    max_iter_max: int = _BOUNDS.max_iter[1]

    def __post_init__(self) -> None:
        # comparisons are written so that NaN fails them
        if not self.n_trials >= 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")
        if not (self.nb >= 1 and self.nsb >= 1):
            raise ConfigError(f"nb and nsb must be >= 1, got nb={self.nb}, nsb={self.nsb}")
        if not self.sigma_bar >= 1:
            raise ConfigError(f"sigma_bar must be >= 1, got {self.sigma_bar}")
        if not self.duration > 0.0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if not self.jobs >= 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        try:
            TimingSpec(self.timing_mode, self.c_eval, self.timing_repeats)
            self.certification_params()
            self.design_bounds()
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def design_bounds(self) -> DesignBounds:
        return DesignBounds(
            kappa=(self.kappa_min, self.kappa_max),
            mu_d=(self.mu_d_min, self.mu_d_max),
            n_pred=(self.n_pred_min, self.n_pred_max),
            n_contr=(self.n_contr_min, self.n_contr_max),
            rho_f=(self.rho_f_min, self.rho_f_max),
            rho_constr=(self.rho_constr_min, self.rho_constr_max),
            max_iter=(self.max_iter_min, self.max_iter_max),
            rho_log_space=self.rho_log_space,
        )

    def certification_params(self) -> CertificationParams:
        return CertificationParams(gamma=self.gamma, eps=self.eps, dev_acc=self.dev_acc, c_max=self.c_max)

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - _FIELD_TYPES.keys())
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = {}
        for key, value in data.items():
            kwargs[key] = _coerce(key, value)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
        return cls.from_mapping(data)

    def to_mapping(self) -> dict:
        return dataclasses.asdict(self)

    def replaced(self, **overrides) -> "RunConfig":
        return dataclasses.replace(self, **{k: _coerce(k, v) for k, v in overrides.items()})


# field name -> annotation: "int", "float", "float | None", "bool" or "str"
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, value):
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key: {key}")
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be a boolean, got {value!r}")
        return value
    if value is None and kind == "float | None":
        return None
    if kind == "int":
        # is_integer() is False for NaN and +-inf
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return number


# artifact writers -------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _settings_rows(result: TuningResult, tau: float) -> list[list[str]]:
    records = result.records
    survivors = [records[j] for j in result.survivors]
    eliminated = [r for r in records if r.status == ELIMINATED]
    infeasible = [r for r in records if r.status == INFEASIBLE_AT_A0]
    rows = []
    for rec in survivors + eliminated + infeasible:
        row = _record_dict(rec)
        d = rec.design
        if d:
            row.update(d.as_dict(), N_pred=d.n_pred, tau_u=d.tau_u(tau), T=d.horizon(tau))
        rows.append([_fmt(row.get(c)) for c in SETTINGS_COLUMNS])
    return rows


def write_settings_csv(path: str | Path, result: TuningResult, tau: float) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(SETTINGS_COLUMNS)
        writer.writerows(_settings_rows(result, tau))


def _record_dict(rec) -> dict:
    return {
        "index": rec.index,
        "status": rec.status,
        "shaping": list(rec.shaping.exponents),
        "alpha_hat": rec.alpha_hat,
        "alpha_evaluations": rec.alpha_evaluations,
        "design": rec.design.as_dict() if rec.design else None,
        "cumulative_cost": rec.cumulative_cost,
        "scenarios_evaluated": rec.scenarios_evaluated,
        "eliminated_batch": rec.eliminated_batch,
        "eliminated_criterion": rec.eliminated_criterion,
    }


def trace_dict(result: TuningResult, config: RunConfig, seeds: dict) -> dict:
    echo = config.to_mapping()
    # jobs, output location, and timing repeats do not affect the result;
    # dropping them keeps the trace byte-identical across those knobs
    for key in ("jobs", "out_dir", "timing_repeats", "dump_reports"):
        echo.pop(key, None)
    best = result.best_record()
    return {
        "config": echo,
        "seeds": seeds,
        "n_candidates": len(result.records),
        "nb": result.nb,
        "nsb": result.nsb,
        "elimination_trace": result.elimination_trace,
        "ocp_solve_count": result.ocp_solve_count,
        "step3_rejections": result.step3_rejections,
        "survivors": result.survivors,
        "best": _record_dict(best) if best else None,
        "records": [_record_dict(r) for r in result.records],
    }


def write_trace_json(path: str | Path, result: TuningResult, config: RunConfig, seeds: dict) -> None:
    Path(path).write_text(json.dumps(trace_dict(result, config, seeds), indent=2, sort_keys=True) + "\n")


def coverage_note(nb: int, nsb: int, n_trials: int) -> list[str]:
    """Compare the scenario budget beyond the freezing batch against the
    closed-form certification sizes (single candidate vs all candidates)."""
    beyond = (nb - 1) * nsb
    single = required_scenarios(NOTE_ETA, NOTE_DELTA, 1)
    simultaneous = required_scenarios(NOTE_ETA, NOTE_DELTA, n_trials)
    lines = [
        f"certification coverage at eta={NOTE_ETA}, delta={NOTE_DELTA}:",
        f"  scenarios beyond the freezing batch: {beyond}",
        f"  single-candidate requirement: {single} ({'covered' if beyond >= single else 'not covered'})",
        f"  simultaneous requirement for {n_trials} candidates: {simultaneous}"
        f" ({'covered' if beyond >= simultaneous else 'not covered'})",
    ]
    return lines


def _check_derivative_callbacks(problem: ProblemDefinition, name: str) -> None:
    """Call rhs_jac, stage_cost_grad and constraint_jac once each on two
    stacked points, so that a callback written for single points stops the
    run with a ConfigError before any tuning."""
    x = np.stack([problem.x_min, problem.x_max])
    u = np.stack([problem.u_min, problem.u_max])
    p, q = problem.p_nom, problem.q_min
    checks = (
        ("rhs_jac", lambda: problem.rhs_jacobians(x, u, p)),
        ("stage_cost_grad", lambda: problem.stage_cost_grads(x, u, p, q)),
        ("constraint_jac", lambda: problem.constraint_jacobians(x, u, p, q)),
    )
    for callback, call in checks:
        if getattr(problem, callback) is None:
            continue
        try:
            call()
        except (IndexError, TypeError, ValueError) as err:  # how a callback indexing single points fails
            raise ConfigError(
                f"problem {name!r}: {callback} fails on two stacked points ({type(err).__name__}: {err}); "
                f"it must take x of shape (..., n_x) and u of shape (..., n_u)"
            ) from None


def run(config: RunConfig) -> int:
    """Execute one tuning run and write its artifacts.  Returns the exit code:
    0 when survivors exist, 3 when the survivor set is empty."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out}: {err}") from None

    logger = logging.getLogger(f"mpc_autotune.run.{id(config)}")
    logger.setLevel(logging.INFO)
    logger.propagate = False
    file_handler = logging.FileHandler(out / "run.log", mode="w")
    stream_handler = logging.StreamHandler(sys.stderr)
    fmt = logging.Formatter("%(asctime)s %(levelname)s %(message)s")
    for h in (file_handler, stream_handler):
        h.setFormatter(fmt)
        logger.addHandler(h)

    t_start = time.perf_counter()
    try:
        try:
            problem = get_problem(config.problem)()
        except KeyError as err:
            raise ConfigError(str(err)) from None
        _check_derivative_callbacks(problem, config.problem)
        if config.gamma < 1.0 and update_count(config.duration, config.kappa_min * problem.tau) == 1:
            raise ConfigError(
                f"duration {config.duration} allows one controller update even at kappa_min = {config.kappa_min}: "
                f"the contraction test J(m) <= gamma * J(1) with gamma = {config.gamma} < 1 fails every candidate"
            )

        jobs = config.jobs
        cpus = os.cpu_count() or 1
        if config.timing_mode == "wallclock" and jobs > cpus:
            logger.warning("jobs=%d exceeds %d cpus; clamping to keep wallclock timing valid", jobs, cpus)
            jobs = cpus

        seed_seq = np.random.SeedSequence(config.seed)
        sigma_seq, cloud_seq = seed_seq.spawn(2)
        sigma_rng = np.random.default_rng(sigma_seq)
        cloud_seed = int(cloud_seq.generate_state(1, dtype=np.uint64)[0])
        seeds = {"master": config.seed, "shaping_stream": "spawn:0", "cloud_seed": cloud_seed}
        logger.info("config: %s", json.dumps(config.to_mapping(), sort_keys=True))
        logger.info("seeds: %s", json.dumps(seeds, sort_keys=True))

        shapings = [sample_shaping(sigma_rng, config.sigma_bar) for _ in range(config.n_trials)]
        n_scenarios = config.nb * config.nsb
        try:
            scenarios = generate_cloud(problem, n_scenarios, cloud_seed, duration=config.duration)
        except (ValueError, MemoryError) as err:  # numpy cannot build arrays of that size
            raise ConfigError(f"cannot build a scenario cloud of nb*nsb = {n_scenarios:.6g} scenarios: {err}") from None
        batch_set = make_batches(scenarios, config.nb, config.nsb)

        c_eval = config.c_eval
        if config.timing_mode == "cost-model":
            if c_eval is None:
                c_eval = calibrate_c_eval(problem)
                logger.info("calibrated c_eval = %.3e s per stage evaluation", c_eval)
            timing = TimingSpec("cost-model", c_eval=c_eval)
        else:
            timing = TimingSpec("wallclock", repeats=config.timing_repeats)

        for line in coverage_note(config.nb, config.nsb, config.n_trials):
            logger.info("%s", line)

        with open(out / "reports.jsonl", "w") if config.dump_reports else contextlib.nullcontext() as dump:

            def sink(ctx: dict, rep) -> None:
                dump.write(json.dumps({"context": ctx, "report": rep.to_json_dict()}, sort_keys=True) + "\n")

            result = tune(
                problem,
                shapings,
                batch_set,
                config.design_bounds(),
                config.certification_params(),
                timing,
                jobs=jobs,
                report_sink=None if dump is None else sink,
                progress=logger.info,
            )

        write_settings_csv(out / "settings.csv", result, problem.tau)
        # echo the c_eval used, calibrated or given, so the trace's config replays the run
        write_trace_json(out / "trace.json", result, dataclasses.replace(config, c_eval=c_eval), seeds)

        elapsed = time.perf_counter() - t_start
        logger.info(
            "done in %.1f s: %d survivors of %d candidates, %d OCP solves",
            elapsed, len(result.survivors), config.n_trials, result.ocp_solve_count,
        )
        if result.survivors:
            best = result.best_record()
            logger.info("best candidate %d: alpha_hat=%s design=%s cost=%s",
                        best.index, best.alpha_hat, best.design.as_dict(), best.cumulative_cost)
            return 0
        logger.info("no admissible setting found")
        return 3
    finally:
        for h in (file_handler, stream_handler):
            logger.removeHandler(h)
            h.close()


# summarize --------------------------------------------------------------------


def _read_trace(path: Path) -> dict:
    if not path.is_file():
        raise ResultFileError(f"missing {path}")
    try:
        trace = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ResultFileError(f"corrupt {path}: {err}") from None
    if not isinstance(trace, dict):
        raise ResultFileError(f"corrupt {path}: root is not an object")
    for key in ("survivors", "elimination_trace"):
        value = trace.get(key, [])
        if not (isinstance(value, list) and all(type(v) is int for v in value)):
            raise ResultFileError(f"corrupt {path}: {key!r} is not a list of integers")
    if not isinstance(trace.get("best"), (dict, type(None))):
        raise ResultFileError(f"corrupt {path}: 'best' is not an object")
    return trace


def _float_or_none(text: str, path: Path, row: int, col: str) -> float | None:
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        raise ResultFileError(f"{path} row {row}: column {col!r} is not a number: {text!r}") from None


def _read_settings(path: Path) -> list[dict]:
    if not path.is_file():
        raise ResultFileError(f"missing {path}")
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != SETTINGS_COLUMNS:
            raise ResultFileError(f"{path}: unexpected header {reader.fieldnames}")
        for i, raw in enumerate(reader, start=2):  # header is line 1
            if None in raw or any(v is None for v in raw.values()):
                raise ResultFileError(f"{path} row {i}: wrong number of columns")
            try:
                index = int(raw["index"])
            except ValueError:
                raise ResultFileError(f"{path} row {i}: column 'index' is not an integer: {raw['index']!r}") from None
            status = raw["status"]
            if status not in (SURVIVING, ELIMINATED, INFEASIBLE_AT_A0):
                raise ResultFileError(f"{path} row {i}: unknown status {status!r}")
            alpha = _float_or_none(raw["alpha_hat"], path, i, "alpha_hat")
            if alpha is not None and not 0.0 <= alpha <= 1.0:
                raise ResultFileError(f"{path} row {i}: alpha_hat outside [0, 1]: {alpha}")
            n_pred = _float_or_none(raw["N_pred"], path, i, "N_pred")
            n_contr = _float_or_none(raw["n_contr"], path, i, "n_contr")
            if n_pred is not None and n_contr is not None and n_contr > n_pred:
                raise ResultFileError(f"{path} row {i}: n_contr {n_contr} exceeds N_pred {n_pred}")
            cost = _float_or_none(raw["cumulative_cost"], path, i, "cumulative_cost")
            rows.append({**raw, "_index": index, "_alpha": alpha, "_cost": cost})
    return rows


def summarize(in_dir: str | Path, stream=None) -> int:
    """Validate a finished run directory, print the survivor table, and write
    elimination_curve.csv.  Returns 0 when survivors exist, 3 otherwise."""
    stream = stream if stream is not None else sys.stdout
    in_dir = Path(in_dir)
    trace = _read_trace(in_dir / "trace.json")
    rows = _read_settings(in_dir / "settings.csv")

    trace_survivors = trace.get("survivors", [])
    csv_survivors = [r["_index"] for r in rows if r["status"] == SURVIVING]
    if sorted(csv_survivors) != sorted(trace_survivors):
        raise ResultFileError("settings.csv and trace.json disagree on the survivor set")
    if csv_survivors != trace_survivors:
        raise ResultFileError("settings.csv survivor rows are not in trace.json cost order")
    best = trace.get("best")
    if csv_survivors:
        if best is None or best.get("index") != csv_survivors[0]:
            raise ResultFileError("trace.json best does not match the first survivor row")
        costs = [r["_cost"] for r in rows if r["status"] == SURVIVING]
        if any(c is None for c in costs) or any(a > b for a, b in zip(costs, costs[1:])):
            raise ResultFileError("survivor rows are not sorted by cumulative cost")

    curve = trace.get("elimination_trace", [])
    if any(a > b for a, b in zip(curve, curve[1:])):
        raise ResultFileError("elimination_trace is not nondecreasing")
    with open(in_dir / "elimination_curve.csv", "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["batch", "cumulative_eliminated"])
        for offset, count in enumerate(curve):
            writer.writerow([offset + 2, count])

    header = ["index", "alpha_hat", "kappa", "mu_d", "N_pred", "n_contr",
              "rho_f", "rho_constr", "max_iter", "tau_u", "cumulative_cost"]
    print("  ".join(f"{h:>12}" for h in header), file=stream)
    survivor_rows = [r for r in rows if r["status"] == SURVIVING]
    for r in survivor_rows:
        print("  ".join(f"{r[h]:>12}" for h in header), file=stream)
    if not survivor_rows:
        print("no admissible setting", file=stream)
        return 3
    return 0
