"""Run orchestration: config handling, artifact writers, summarize, CLI."""

import csv
import dataclasses
import importlib.metadata
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mpc_autotune
import mpc_autotune.problems
from mpc_autotune.cli import main
from mpc_autotune.controller import TimingSpec
from mpc_autotune.design import DesignBounds, DesignVector, ShapingVector
from mpc_autotune.pvtol import pvtol_problem
from mpc_autotune.runner import (
    NOTE_DELTA,
    NOTE_ETA,
    SETTINGS_COLUMNS,
    ConfigError,
    ResultFileError,
    RunConfig,
    coverage_note,
    run,
    summarize,
    trace_dict,
    write_settings_csv,
    write_trace_json,
    _fmt,
)
from mpc_autotune.tuning import (
    ELIMINATED,
    INFEASIBLE_AT_A0,
    RT,
    RT_AT_ZERO,
    SURVIVING,
    CandidateRecord,
    CertificationParams,
    TuningResult,
    required_scenarios,
)

from conftest import (
    integrator_problem,
    point_pvtol_constraint_jac,
    point_pvtol_rhs_jac,
    point_pvtol_stage_cost_grad,
)


# RunConfig ---------------------------------------------------------------------------


def test_config_defaults_round_trip():
    cfg = RunConfig()
    assert RunConfig.from_mapping(cfg.to_mapping()) == cfg
    assert RunConfig.from_mapping({}) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = RunConfig(n_trials=7, gamma=0.9, timing_mode="cost-model", c_eval=2.5e-6)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_mapping()))
    assert RunConfig.from_file(path) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: not_a_knob"):
        RunConfig.from_mapping({"not_a_knob": 1})


def test_config_coercion():
    cfg = RunConfig.from_mapping({"n_trials": 5.0, "gamma": 1, "c_eval": None})
    assert cfg.n_trials == 5 and isinstance(cfg.n_trials, int)
    assert cfg.gamma == 1.0 and isinstance(cfg.gamma, float)
    assert cfg.c_eval is None
    with pytest.raises(ConfigError, match="must be an integer"):
        RunConfig.from_mapping({"n_trials": 5.5})
    with pytest.raises(ConfigError, match="must be an integer"):
        RunConfig.from_mapping({"n_trials": True})
    with pytest.raises(ConfigError, match="must be a string"):
        RunConfig.from_mapping({"problem": 3})
    with pytest.raises(ConfigError, match="must be a boolean"):
        RunConfig.from_mapping({"dump_reports": 1})
    with pytest.raises(ConfigError, match="must be a number"):
        RunConfig.from_mapping({"gamma": "high"})
    # non-finite numbers never reach int() or the certification tests
    for key in ("nb", "seed", "max_iter_max"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match="must be an integer"):
                RunConfig.from_mapping({key: value})
    for key in ("duration", "dev_acc", "c_max", "c_eval", "rho_f_max"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match="must be finite"):
                RunConfig.from_mapping({key: value})
    with pytest.raises(ConfigError, match="must be finite"):
        RunConfig.from_mapping({"duration": 10 ** 400})
    with pytest.raises(ConfigError, match="must be finite"):
        RunConfig().replaced(dev_acc=math.nan)


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_trials": 0},
        {"nb": 0},
        {"nsb": 0},
        {"sigma_bar": 0},
        {"duration": 0.0},
        {"jobs": 0},
        {"timing_mode": "gut-feeling"},
        {"timing_repeats": 0},
        {"c_eval": 0.0},
        {"gamma": 0.0},          # certification params reject it
        {"eps": 1.0},
        {"kappa_min": 0},        # design bounds reject it
        {"n_contr_min": 3, "n_contr_max": 2},
        # NaN fails every check, whichever way round it is written
        {"n_trials": math.nan},
        {"duration": math.nan},
        {"timing_repeats": math.nan},
        {"c_eval": math.nan},
        {"dev_acc": math.nan},
        {"c_max": math.nan},
        {"gamma": math.nan},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ConfigError):
        RunConfig(**overrides)


def test_config_from_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.from_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.from_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be an object"):
        RunConfig.from_file(arr)


def test_config_replaced():
    cfg = RunConfig()
    other = cfg.replaced(n_trials=3.0, seed=9)
    assert other.n_trials == 3 and other.seed == 9
    assert cfg.n_trials == RunConfig().n_trials  # original untouched
    with pytest.raises(ConfigError, match="unknown config key"):
        cfg.replaced(tries=3)


def test_config_maps_to_bounds_and_params():
    cfg = RunConfig(kappa_min=2, kappa_max=8, rho_f_min=5.0, rho_f_max=50.0,
                    rho_log_space=True, gamma=0.9, eps=0.2, dev_acc=2.0, c_max=0.3)
    bounds = cfg.design_bounds()
    assert bounds.kappa == (2, 8)
    assert bounds.rho_f == (5.0, 50.0)
    assert bounds.rho_log_space is True
    params = cfg.certification_params()
    assert (params.gamma, params.eps, params.dev_acc, params.c_max) == (0.9, 0.2, 2.0, 0.3)


def test_config_defaults_are_those_of_the_bounds_params_and_timing():
    cfg = RunConfig()
    assert cfg.design_bounds() == DesignBounds()
    assert cfg.certification_params() == CertificationParams()
    timing = TimingSpec()
    assert (cfg.timing_mode, cfg.c_eval, cfg.timing_repeats) == (timing.mode, timing.c_eval, timing.repeats)


# artifact writers --------------------------------------------------------------------


def test_fmt_values():
    assert _fmt(None) == ""
    assert _fmt(3) == "3"
    assert _fmt(0.1) == "0.1"
    assert _fmt(1e-06) == "1e-06"
    # repr round-trips doubles exactly
    v = 2527.069156186994
    assert float(_fmt(v)) == v


def make_design(kappa=2, n_pred=8):
    return DesignVector(kappa=kappa, mu_d=0.5, n_pred=n_pred, n_contr=2,
                        rho_f=10.0, rho_constr=1.0e4, max_iter=10)


def synthetic_result():
    sh = ShapingVector((1, 1, 1, 1, 1, 1, 1))
    records = [
        CandidateRecord(index=0, shaping=sh, status=SURVIVING, alpha_hat=0.5,
                        design=make_design(), cumulative_cost=7.25,
                        scenarios_evaluated=6, alpha_evaluations=4),
        CandidateRecord(index=1, shaping=sh, status=ELIMINATED, alpha_hat=0.25,
                        design=make_design(kappa=3), cumulative_cost=1.5,
                        scenarios_evaluated=4, alpha_evaluations=5,
                        eliminated_batch=2, eliminated_criterion=RT),
        CandidateRecord(index=2, shaping=sh, status=SURVIVING, alpha_hat=1.0,
                        design=make_design(n_pred=12), cumulative_cost=5.0,
                        scenarios_evaluated=6, alpha_evaluations=2),
        CandidateRecord(index=3, shaping=sh, status=INFEASIBLE_AT_A0,
                        scenarios_evaluated=2, alpha_evaluations=1,
                        eliminated_batch=1, eliminated_criterion=RT_AT_ZERO),
    ]
    return TuningResult(records=records, survivors=[2, 0], best_index=2,
                        elimination_trace=[1, 1], ocp_solve_count=123,
                        step3_rejections=0, nb=3, nsb=2)


def test_settings_csv_schema_and_ordering(tmp_path):
    path = tmp_path / "settings.csv"
    write_settings_csv(path, synthetic_result(), tau=0.01)
    # survivors by cost, then eliminated, then infeasible; every cell, with
    # tau_u = kappa * tau and T = N_pred * tau_u, and unix line endings on
    # every platform
    assert path.read_bytes() == (
        "index,status,alpha_hat,kappa,mu_d,N_pred,n_contr,rho_f,rho_constr,max_iter,tau_u,T,"
        "cumulative_cost,scenarios_evaluated,eliminated_batch,eliminated_criterion\n"
        "2,surviving,1.0,2,0.5,12,2,10.0,10000.0,10,0.02,0.24,5.0,6,,\n"
        "0,surviving,0.5,2,0.5,8,2,10.0,10000.0,10,0.02,0.16,7.25,6,,\n"
        "1,eliminated,0.25,3,0.5,8,2,10.0,10000.0,10,0.03,0.24,1.5,4,2,rt\n"
        "3,infeasible_at_A0,,,,,,,,,,,,2,1,rt_at_zero\n"
    ).encode()


def test_trace_dict_echo_and_content():
    result = synthetic_result()
    cfg = RunConfig(n_trials=4, nb=3, nsb=2, jobs=7, out_dir="somewhere",
                    timing_repeats=5, dump_reports=True)
    seeds = {"master": 0, "shaping_stream": "spawn:0", "cloud_seed": 42}
    trace = trace_dict(result, cfg, seeds)
    for key in ("jobs", "out_dir", "timing_repeats", "dump_reports"):
        assert key not in trace["config"]
    assert trace["config"]["n_trials"] == 4
    assert trace["seeds"] == seeds
    assert trace["survivors"] == [2, 0]
    assert trace["best"]["index"] == 2
    assert trace["elimination_trace"] == [1, 1]
    assert trace["ocp_solve_count"] == 123
    assert len(trace["records"]) == 4
    assert trace["records"][3]["design"] is None
    assert trace["records"][0]["shaping"] == [1, 1, 1, 1, 1, 1, 1]


def test_write_trace_json(tmp_path):
    path = tmp_path / "trace.json"
    write_trace_json(path, synthetic_result(), RunConfig(n_trials=4, nb=3, nsb=2), {"master": 0})
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["best"]["design"]["kappa"] == 2


def test_coverage_note_numbers():
    lines = coverage_note(nb=5, nsb=4, n_trials=10)
    single = required_scenarios(NOTE_ETA, NOTE_DELTA, 1)
    simultaneous = required_scenarios(NOTE_ETA, NOTE_DELTA, 10)
    text = "\n".join(lines)
    assert "scenarios beyond the freezing batch: 16" in text
    assert f"single-candidate requirement: {single} (not covered)" in text
    assert f"simultaneous requirement for 10 candidates: {simultaneous} (not covered)" in text
    big = "\n".join(coverage_note(nb=300, nsb=2, n_trials=1))
    assert f"single-candidate requirement: {single} (covered)" in big


# real tiny runs ----------------------------------------------------------------------


TINY = dict(problem="pvtol", n_trials=2, nb=2, nsb=1, duration=0.1,
            timing_mode="cost-model", c_eval=1e-6, seed=3)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    code = run(RunConfig(**TINY, out_dir=str(out)))
    return out, code


def test_run_writes_artifacts(tiny_run):
    out, code = tiny_run
    assert (out / "settings.csv").is_file()
    assert (out / "trace.json").is_file()
    assert (out / "run.log").is_file()
    assert not (out / "reports.jsonl").exists()
    trace = json.loads((out / "trace.json").read_text())
    assert code == (0 if trace["survivors"] else 3)
    assert trace["seeds"]["master"] == 3
    assert isinstance(trace["seeds"]["cloud_seed"], int)
    for key in ("jobs", "out_dir", "timing_repeats", "dump_reports"):
        assert key not in trace["config"]
    assert trace["config"]["n_trials"] == 2
    assert len(trace["records"]) == 2
    assert trace["ocp_solve_count"] > 0
    assert len(trace["elimination_trace"]) == trace["nb"] - 1
    with open(out / "settings.csv", newline="") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == SETTINGS_COLUMNS
        assert len(list(reader)) == 2
    log = (out / "run.log").read_text()
    assert "seeds" in log and "certification coverage" in log


def test_run_deterministic_across_runs_and_jobs(tiny_run, tmp_path):
    out, _ = tiny_run
    for jobs in (1, 2):
        repeat = tmp_path / f"repeat{jobs}"
        run(RunConfig(**TINY, jobs=jobs, out_dir=str(repeat)))
        assert (repeat / "settings.csv").read_bytes() == (out / "settings.csv").read_bytes()
        assert (repeat / "trace.json").read_bytes() == (out / "trace.json").read_bytes()


def test_run_dump_reports(tmp_path):
    out = tmp_path / "dump"
    run(RunConfig(**TINY, dump_reports=True, out_dir=str(out)))
    lines = (out / "reports.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert {"context", "report"} <= set(entry)
        assert entry["context"]["phase"] in (1, 2)
        assert "solver_times" in entry["report"]


def test_run_dump_reports_identical_across_jobs_in_candidate_order(tmp_path):
    dumps = []
    for jobs in (1, 2):
        out = tmp_path / f"dump{jobs}"
        run(RunConfig(**TINY, jobs=jobs, dump_reports=True, out_dir=str(out)))
        dumps.append((out / "reports.jsonl").read_bytes())
    assert dumps[0] == dumps[1]
    contexts = [json.loads(line)["context"] for line in dumps[0].decode().splitlines()]
    order = [(c["candidate"], c["phase"], c.get("batch", 1)) for c in contexts]
    assert order == sorted(order)
    assert {c["candidate"] for c in contexts} == {0, 1}


def test_run_problem_with_lambda_callbacks_on_a_pool(tmp_path, monkeypatch):
    # the pool's forked workers inherit the problem: it is never pickled
    monkeypatch.setitem(mpc_autotune.problems._REGISTRY, "integrator-toy", integrator_problem)
    runs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        run(RunConfig(**{**TINY, "problem": "integrator-toy", "duration": 0.5}, jobs=jobs, out_dir=str(out)))
        runs.append([(out / name).read_bytes() for name in ("settings.csv", "trace.json")])
    assert runs[0] == runs[1]


def test_run_rejects_a_duration_of_one_update(tmp_path, capsys):
    # m = 1 for every candidate: J(1) <= gamma * J(1) fails whenever gamma < 1
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"duration": 0.01, "n_trials": 1, "nb": 1, "nsb": 1, '
                        '"timing_mode": "cost-model", "c_eval": 1e-6}')
    assert main(["tune", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "duration" in capsys.readouterr().err.splitlines()[-1]
    assert main(["tune", "--config", str(cfg_path), "--gamma", "1.0", "--out", str(tmp_path / "out")]) in (0, 3)


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<pid>/children")
def test_cli_interrupt_ends_a_pooled_run_promptly(tmp_path):
    cfg_path = tmp_path / "config.json"
    # a hundred candidates: about ten seconds of work, so the interrupt falls mid-run
    cfg = RunConfig(problem="pvtol", n_trials=100, nb=5, nsb=4, duration=0.5, timing_mode="cost-model",
                    c_eval=1e-6, seed=7, jobs=2, out_dir=str(tmp_path / "out"))
    cfg_path.write_text(json.dumps(cfg.to_mapping()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(mpc_autotune.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "mpc_autotune.cli", "tune", "--config", str(cfg_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    workers: list[int] = []
    try:
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 60.0
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.1)
            workers = [int(pid) for pid in children.read_text().split()]
        assert len(workers) == 2, "the pool did not start"
        time.sleep(1.0)  # both workers are inside a candidate now
        proc.send_signal(signal.SIGINT)
        try:
            _, err = proc.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            pytest.fail("the interrupted run did not exit within 10 s")
        assert proc.returncode == 130, err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "interrupted"
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(_alive(pid) for pid in workers)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_run_wallclock_clamps_jobs(tmp_path):
    out = tmp_path / "wall"
    jobs = (os.cpu_count() or 1) + 1
    cfg = RunConfig(problem="pvtol", n_trials=1, nb=1, nsb=1, duration=0.05,
                    timing_mode="wallclock", seed=1, jobs=jobs, out_dir=str(out))
    run(cfg)
    assert "clamping" in (out / "run.log").read_text()


def test_run_calibrates_c_eval(tmp_path):
    out = tmp_path / "cal"
    cfg = RunConfig(problem="pvtol", n_trials=1, nb=1, nsb=1, duration=0.05,
                    timing_mode="cost-model", c_eval=None, seed=1, out_dir=str(out))
    run(cfg)
    assert "calibrated c_eval" in (out / "run.log").read_text()


def test_calibrated_run_replays_from_its_trace(tmp_path):
    first = tmp_path / "calibrated"
    run(RunConfig(**{**TINY, "c_eval": None}, out_dir=str(first)))
    echo = json.loads((first / "trace.json").read_text())["config"]
    assert echo["c_eval"] > 0.0  # the calibrated value, not null
    replay = tmp_path / "replay"
    run(RunConfig.from_mapping({**echo, "out_dir": str(replay)}))
    assert "calibrated c_eval" not in (replay / "run.log").read_text()
    for name in ("settings.csv", "trace.json"):
        assert (replay / name).read_bytes() == (first / name).read_bytes()


def test_cli_rejects_a_point_only_rhs_jac(tmp_path, capsys, monkeypatch):
    def point_jac_problem():
        return dataclasses.replace(pvtol_problem(), rhs_jac=point_pvtol_rhs_jac)

    monkeypatch.setitem(mpc_autotune.problems._REGISTRY, "pvtol-point-jac", point_jac_problem)
    out = tmp_path / "out"
    assert main(["tune", "--problem", "pvtol-point-jac", "--n-trials", "1", "--nb", "1", "--nsb", "1",
                 "--timing-mode", "cost-model", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: problem 'pvtol-point-jac': rhs_jac fails on two stacked points (IndexError:")
    assert "(..., n_x)" in err
    assert not (out / "trace.json").exists()


@pytest.mark.parametrize(
    "callback, point_only, error",
    [("stage_cost_grad", point_pvtol_stage_cost_grad, "TypeError"),
     ("constraint_jac", point_pvtol_constraint_jac, "ValueError")],
)
def test_cli_rejects_point_only_cost_and_constraint_derivatives(tmp_path, capsys, monkeypatch, callback, point_only,
                                                                 error):
    def point_problem():
        return dataclasses.replace(pvtol_problem(), **{callback: point_only})

    monkeypatch.setitem(mpc_autotune.problems._REGISTRY, "pvtol-point", point_problem)
    out = tmp_path / "out"
    assert main(["tune", "--problem", "pvtol-point", "--n-trials", "1", "--nb", "1", "--nsb", "1",
                 "--timing-mode", "cost-model", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith(f"error: problem 'pvtol-point': {callback} fails on two stacked points ({error}:")
    assert "(..., n_x)" in err
    assert not (out / "trace.json").exists()


def test_run_unknown_problem(tmp_path):
    cfg = RunConfig(**{**TINY, "problem": "warp-drive"}, out_dir=str(tmp_path / "x"))
    with pytest.raises(ConfigError, match="warp-drive"):
        run(cfg)


# summarize ---------------------------------------------------------------------------


def write_synthetic_dir(path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    result = synthetic_result()
    write_settings_csv(path / "settings.csv", result, tau=0.01)
    write_trace_json(path / "trace.json", result, RunConfig(n_trials=4, nb=3, nsb=2), {"master": 0})


def test_summarize_happy_path(tmp_path):
    write_synthetic_dir(tmp_path)
    stream = io.StringIO()
    assert summarize(tmp_path, stream=stream) == 0
    lines = stream.getvalue().splitlines()
    assert lines[0].split()[0] == "index"
    assert lines[1].split()[0] == "2"  # best survivor first
    assert lines[2].split()[0] == "0"
    with open(tmp_path / "elimination_curve.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["batch", "cumulative_eliminated"]
    assert rows[1:] == [["2", "1"], ["3", "1"]]


def test_summarize_no_survivors(tmp_path):
    result = synthetic_result()
    for rec in result.records:
        if rec.status == SURVIVING:
            rec.status = ELIMINATED
            rec.eliminated_batch = 2
            rec.eliminated_criterion = RT
    result.survivors = []
    result.best_index = None
    write_settings_csv(tmp_path / "settings.csv", result, tau=0.01)
    write_trace_json(tmp_path / "trace.json", result, RunConfig(n_trials=4, nb=3, nsb=2), {})
    stream = io.StringIO()
    assert summarize(tmp_path, stream=stream) == 3
    assert "no admissible setting" in stream.getvalue()


def test_summarize_on_real_run(tiny_run):
    out, code = tiny_run
    stream = io.StringIO()
    assert summarize(out, stream=stream) == code
    assert (out / "elimination_curve.csv").is_file()


def test_summarize_missing_and_corrupt_files(tmp_path):
    with pytest.raises(ResultFileError, match="missing"):
        summarize(tmp_path)
    (tmp_path / "trace.json").write_text("{broken")
    with pytest.raises(ResultFileError, match="corrupt"):
        summarize(tmp_path)
    (tmp_path / "trace.json").write_text("{}")
    with pytest.raises(ResultFileError, match="missing"):
        summarize(tmp_path)  # settings.csv still absent
    for text, match in (
        ("[]", "root is not an object"),
        ('{"survivors": null}', "'survivors' is not a list of integers"),
        ('{"elimination_trace": [1, "2"]}', "'elimination_trace' is not a list of integers"),
        ('{"best": 3}', "'best' is not an object"),
    ):
        (tmp_path / "trace.json").write_text(text)
        with pytest.raises(ResultFileError, match=match):
            summarize(tmp_path)


def tamper(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


def test_summarize_rejects_bad_header(tmp_path):
    write_synthetic_dir(tmp_path)
    tamper(tmp_path / "settings.csv", "index,status", "idx,status")
    with pytest.raises(ResultFileError, match="unexpected header"):
        summarize(tmp_path)


def test_summarize_rejects_bad_rows(tmp_path):
    write_synthetic_dir(tmp_path)
    tamper(tmp_path / "settings.csv", "2,surviving", "2,zombie")
    with pytest.raises(ResultFileError, match="row 2: unknown status"):
        summarize(tmp_path)

    write_synthetic_dir(tmp_path)
    tamper(tmp_path / "settings.csv", "2,surviving,1.0", "2,surviving,1.5")
    with pytest.raises(ResultFileError, match="alpha_hat outside"):
        summarize(tmp_path)

    write_synthetic_dir(tmp_path)
    tamper(tmp_path / "settings.csv", ",5.0,", ",five,")
    with pytest.raises(ResultFileError, match="not a number"):
        summarize(tmp_path)

    write_synthetic_dir(tmp_path)
    lines = (tmp_path / "settings.csv").read_text().splitlines()
    lines[1] += ",extra"
    (tmp_path / "settings.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ResultFileError, match="row 2: wrong number of columns"):
        summarize(tmp_path)

    write_synthetic_dir(tmp_path)
    tamper(tmp_path / "settings.csv", "2,surviving", "x,surviving")
    with pytest.raises(ResultFileError, match="row 2: column 'index' is not an integer"):
        summarize(tmp_path)


def test_summarize_rejects_inconsistent_survivors(tmp_path):
    write_synthetic_dir(tmp_path)
    tamper(tmp_path / "trace.json", '"survivors": [\n    2,\n    0\n  ]',
           '"survivors": [\n    2\n  ]')
    with pytest.raises(ResultFileError, match="disagree on the survivor set"):
        summarize(tmp_path)


def test_summarize_rejects_unsorted_survivor_costs(tmp_path):
    write_synthetic_dir(tmp_path)
    # make the first survivor row dearer than the second without touching order
    tamper(tmp_path / "settings.csv", ",5.0,", ",9.0,")
    with pytest.raises(ResultFileError, match="not sorted by cumulative cost"):
        summarize(tmp_path)


def test_summarize_rejects_decreasing_trace(tmp_path):
    write_synthetic_dir(tmp_path)
    tamper(tmp_path / "trace.json", '"elimination_trace": [\n    1,\n    1\n  ]',
           '"elimination_trace": [\n    1,\n    0\n  ]')
    with pytest.raises(ResultFileError, match="not nondecreasing"):
        summarize(tmp_path)


# command line ------------------------------------------------------------------------


def test_cli_tune_with_config_and_overrides(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(RunConfig(**TINY, out_dir="ignored").to_mapping()))
    out = tmp_path / "cli_out"
    code = main(["tune", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"])
    trace = json.loads((out / "trace.json").read_text())
    assert code == (0 if trace["survivors"] else 3)
    assert trace["config"]["n_trials"] == 2


def test_cli_tune_errors(tmp_path, capsys):
    assert main(["tune", "--config", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    out = tmp_path / "bad_problem"
    assert main(["tune", "--problem", "warp-drive", "--n-trials", "1",
                 "--nb", "1", "--nsb", "1", "--out", str(out)]) == 2
    assert "warp-drive" in capsys.readouterr().err


def test_cli_tune_out_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["tune", "--n-trials", "1", "--nb", "1", "--nsb", "1", "--out", str(out)]) == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_cli_rejects_non_finite_numbers(tmp_path, capsys):
    for text in ('{"nb": Infinity}', '{"nb": NaN}', '{"duration": NaN}', '{"dev_acc": NaN}'):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        assert main(["tune", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert main(["tune", "--dev-acc", "nan", "--out", str(tmp_path / "out")]) == 2
    assert "dev_acc" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_unbuildable_scenario_cloud(tmp_path, capsys, monkeypatch):
    # numpy refuses the array shape before allocating anything
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"nb": 1e300, "nsb": 1, "n_trials": 1}')
    assert main(["tune", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: cannot build a scenario cloud of nb*nsb = 1e+300 scenarios:")

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr("mpc_autotune.runner.generate_cloud", out_of_memory)
    assert main(["tune", "--nb", "2", "--nsb", "3", "--n-trials", "1", "--out", str(tmp_path / "out")]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "error: cannot build a scenario cloud of nb*nsb = 6 scenarios: Unable to allocate"


# a non-default value for every tune flag, and the RunConfig field it sets
TUNE_FLAGS = {
    "--problem": ("problem", "pvtol-other"),
    "--n-trials": ("n_trials", 7),
    "--nb": ("nb", 4),
    "--nsb": ("nsb", 6),
    "--dev-acc": ("dev_acc", 2.5),
    "--gamma": ("gamma", 0.9),
    "--eps": ("eps", 0.2),
    "--c-max": ("c_max", 0.3),
    "--seed": ("seed", 11),
    "--jobs": ("jobs", 3),
    "--timing-mode": ("timing_mode", "cost-model"),
    "--timing-repeats": ("timing_repeats", 5),
    "--out": ("out_dir", "elsewhere"),
}


def test_cli_every_tune_flag_reaches_config(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr("mpc_autotune.cli.run", lambda config: seen.append(config) or 0)
    argv = ["tune", "--dump-reports"]
    for flag, (_, value) in TUNE_FLAGS.items():
        argv += [flag, str(value)]
    assert main(argv) == 0
    (config,) = seen
    defaults = RunConfig()
    for field, value in TUNE_FLAGS.values():
        assert getattr(defaults, field) != value
        assert getattr(config, field) == value
    assert defaults.dump_reports is False and config.dump_reports is True

    # a flag left out keeps the config file's value, --dump-reports included
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(RunConfig(dump_reports=True, nb=9, c_eval=2e-6).to_mapping()))
    assert main(["tune", "--config", str(cfg_path), "--nsb", "2"]) == 0
    config = seen[-1]
    assert (config.dump_reports, config.nb, config.nsb, config.c_eval) == (True, 9, 2, 2e-6)
    assert config.out_dir == defaults.out_dir


def test_cli_summarize(tmp_path, capsys):
    write_synthetic_dir(tmp_path)
    assert main(["summarize", "--in", str(tmp_path)]) == 0
    assert main(["summarize", "--in", str(tmp_path / "void")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _assert_help_lists_subcommands(argv, env=None):
    proc = subprocess.run(argv + ["--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "tune" in proc.stdout and "summarize" in proc.stdout


def test_cli_entry_points_exist():
    """The console script pyproject.toml declares targets cli.main and runs."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "mpc-autotune" in scripts
    module_name, _, attr = scripts["mpc-autotune"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main

    # Run the package under test, not whatever the inherited PYTHONPATH finds.
    package_parent = str(Path(mpc_autotune.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p)
    _assert_help_lists_subcommands([sys.executable, "-m", "mpc_autotune.cli"], env)


def test_installed_console_script():
    """An installed mpc-autotune puts a working console script on PATH."""
    try:
        dist = importlib.metadata.distribution("mpc-autotune")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("mpc-autotune distribution is not installed")
    scripts = {ep.name: ep.value for ep in dist.entry_points
               if ep.group == "console_scripts"}
    assert scripts.get("mpc-autotune") == "mpc_autotune.cli:main"
    script = shutil.which("mpc-autotune")
    assert script is not None
    _assert_help_lists_subcommands([script])
