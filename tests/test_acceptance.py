"""Release acceptance suite: nine numbered criteria, one verdict line each.

Every test prints a single `criterion N: PASS` (or FAIL) line; run with -s to
see them.  Each criterion enforces its own wall-clock budget.  Criteria 8 and
9 share a module fixture that executes the full desk-scale experiment twice
through the public runner, once per worker count, so this file takes several
minutes of single-core time; everything else finishes in seconds.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import ACCEPTANCE_VERDICTS

from mpc_autotune.controller import (
    ClosedLoopReport,
    MpcSetting,
    TimingSpec,
    open_loop_cost,
    open_loop_gradient,
    simulate_closed_loop,
    update_count,
)
from mpc_autotune.design import (
    DesignBounds,
    DesignVector,
    ShapingVector,
    realize,
    sample_shaping,
    shape_value,
)
from mpc_autotune.integration import n_steps_for, rk4_step
from mpc_autotune.problems import Scenario, generate_cloud, get_problem, make_batches
from mpc_autotune.pvtol import pvtol_problem
from mpc_autotune.runner import RunConfig, run
from mpc_autotune.tuning import (
    CertificationParams,
    SetEvaluation,
    constraint_excess,
    contraction_excess,
    evaluate_on_set,
    find_alpha_max,
    required_scenarios,
    rt_excess,
    tune,
)
from mpc_autotune.tuning import ELIMINATED, INFEASIBLE_AT_A0


def _verdict(line: str) -> None:
    # printed inline (visible with -s) and echoed after the run summary
    print(line)
    ACCEPTANCE_VERDICTS.append(line)


def criterion(n: int, budget_s: float):
    """Wrap a test so it prints one verdict line and enforces a time budget.

    The wrapped test returns a short detail string for the PASS line.  Fixture
    setup happens before the wrapper runs, so the budget covers the test body
    only; criterion 8 asserts the run times of its fixture explicitly.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as err:
                _verdict(f"criterion {n}: FAIL ({err})")
                raise
            elapsed = time.perf_counter() - t0
            if elapsed >= budget_s:
                _verdict(f"criterion {n}: FAIL (budget {budget_s:.0f}s exceeded: {elapsed:.1f}s)")
                raise AssertionError(
                    f"criterion {n} exceeded its {budget_s:.0f}s budget: {elapsed:.1f}s"
                )
            extra = f" ({detail})" if detail else ""
            _verdict(f"criterion {n}: PASS in {elapsed:.2f}s{extra}")

        return wrapper

    return deco


# criterion 1: certification sizing table ---------------------------------------

# keys are (n_trials, eta) at confidence delta = 1e-3, one allowed failure
SIZING_TABLE = {
    (1, 0.1): 132,
    (1, 0.05): 264,
    (1, 0.01): 1317,
    (1, 0.001): 13164,
    (5, 0.1): 154,
    (5, 0.05): 308,
    (5, 0.01): 1536,
    (5, 0.001): 15354,
    (10, 0.1): 163,
    (10, 0.05): 326,
    (10, 0.01): 1628,
    (10, 0.001): 16280,
    (100, 0.1): 193,
    (100, 0.05): 386,
    (100, 0.01): 1930,
    (100, 0.001): 19299,
    (1000, 0.1): 223,
    (1000, 0.05): 445,
    (1000, 0.01): 2225,
    (1000, 0.001): 22249,
}


@criterion(1, 1.0)
def test_criterion_1_certification_sizes():
    for (n_trials, eta), expected in sorted(SIZING_TABLE.items()):
        assert required_scenarios(eta, 1.0e-3, n_trials) == expected
    return "all 20 table entries exact"


# criterion 2: prediction-precision substep rule ---------------------------------


@criterion(2, 1.0)
def test_criterion_2_substep_rule():
    assert n_steps_for(0.5, 3) == 2
    for kappa in range(1, 21):
        assert n_steps_for(0.0, kappa) == 1
        assert n_steps_for(1.0, kappa) == kappa
    return "dial endpoints and midpoint for kappa 1..20"


# criterion 3: integrator order ---------------------------------------------------


@criterion(3, 1.0)
def test_criterion_3_integrator_order():
    def decay(x, u, p):
        return -np.asarray(x)

    dummy = np.zeros(1)
    errors = {}
    for n in (8, 16):
        x = np.array([1.0])
        for _ in range(n):
            x = rk4_step(decay, x, dummy, dummy, 1.0 / n)
        errors[n] = abs(float(x[0]) - math.exp(-1.0))
    ratio = errors[8] / errors[16]
    # fourth order: halving the step shrinks the global error 16-fold
    assert 14.0 <= ratio <= 18.0
    return f"halving-step error ratio {ratio:.2f}"


# criterion 4: sensitivity gradient against finite differences -------------------


@criterion(4, 30.0)
def test_criterion_4_gradient_against_finite_differences():
    prob = pvtol_problem()
    design = DesignVector(
        kappa=3, mu_d=0.5, n_pred=8, n_contr=3, rho_f=10.0, rho_constr=1.0e4, max_iter=20
    )
    setting = MpcSetting.from_design(prob, design)
    # seed chosen so every draw stays strictly inside the constraint set: the
    # penalty is identically zero there and the cost is smooth in z
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, 6)
        x[2] = rng.uniform(-0.3, 0.3)
        x[5] = rng.uniform(-0.3, 0.3)
        q = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 1.0, 0.5])
        p = np.array(prob.p_nom) + rng.normal(0.0, 1.0, 2) * np.array(prob.p_std)
        z = np.tile([1.0, 0.0], 3) + rng.uniform(-0.1, 0.1, 6)
        grad = open_loop_gradient(setting, x, p, q, z)
        fd = np.empty(6)
        for i in range(6):
            zp = z.copy()
            zm = z.copy()
            zp[i] += 1.0e-6
            zm[i] -= 1.0e-6
            fd[i] = (
                open_loop_cost(setting, x, p, q, zp) - open_loop_cost(setting, x, p, q, zm)
            ) / 2.0e-6
        rel = float(np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad)))
        assert rel < 1.0e-5
        worst = max(worst, rel)
    return f"20 draws, worst relative error {worst:.1e}"


# criterion 5: hover equilibrium exactness ----------------------------------------


@criterion(5, 30.0)
def test_criterion_5_equilibrium_exactness():
    prob = pvtol_problem()
    trim_x = np.zeros(6)
    trim_u = np.array([1.0, 0.0])
    rng = np.random.default_rng(5)
    # the trim input cancels the model-parameter terms, so the vector field
    # vanishes at hover for every parameter draw
    for _ in range(100):
        p = np.array(prob.p_nom) + rng.normal(0.0, 1.0, 2) * np.array(prob.p_std)
        assert float(np.max(np.abs(prob.rhs(trim_x, trim_u, p)))) < 1.0e-12

    design = DesignVector(
        kappa=5, mu_d=1.0, n_pred=10, n_contr=2, rho_f=10.0, rho_constr=1.0e4, max_iter=15
    )
    setting = MpcSetting.from_design(prob, design)
    scenario = Scenario(
        x0=trim_x, p=np.array(prob.p_nom), q=np.array([0.0, 0.0, 1.0, 0.5]), duration=0.5
    )
    report = simulate_closed_loop(setting, scenario, TimingSpec("cost-model", c_eval=1.0e-9))
    assert not report.diverged
    assert report.closed_loop_cost < 1.0e-9
    assert rt_excess(report, setting.tau_u, 1.0) == 0.0
    assert contraction_excess(report, 0.98) == 0.0
    assert constraint_excess(report) == 0.0
    return "hover is a fixed point of the closed loop"


# criterion 6: dichotomic dial search ---------------------------------------------


def _flat_response(rt: float) -> SetEvaluation:
    return SetEvaluation(rt=rt, contraction=0.0, constraint=0.0, cost_sum=1.0)


@criterion(6, 1.0)
def test_criterion_6_dial_search():
    params = CertificationParams(gamma=0.98, eps=0.15, dev_acc=1.0, c_max=0.1)

    # synthetic response with its real-time boundary at alpha = 0.7
    boundary = find_alpha_max(lambda a: _flat_response(a - 0.7), params)
    assert boundary.alpha_hat is not None
    assert 0.55 <= boundary.alpha_hat <= 0.70
    assert boundary.n_evaluations <= 5

    infeasible = find_alpha_max(lambda a: _flat_response(1.0), params)
    assert infeasible.alpha_hat is None
    assert infeasible.n_evaluations == 1

    easy = find_alpha_max(lambda a: _flat_response(-1.0), params)
    assert easy.alpha_hat == 1.0
    assert easy.n_evaluations == 2
    return f"boundary dial kept at {boundary.alpha_hat}"


# criterion 7: shaping curves and realized monotonicity ---------------------------


@criterion(7, 5.0)
def test_criterion_7_shaping_and_monotonicity():
    exponents = [-3, -2, -1, 1, 2, 3]
    grid = np.linspace(0.0, 1.0, 101)

    for e in exponents:
        values = np.array([shape_value(e, a) for a in grid])
        assert values[0] == 0.0 and values[-1] == 1.0
        assert np.all(np.diff(values) > 0.0)

    rng = np.random.default_rng(17)
    for _ in range(200):
        sigma = sample_shaping(rng, 3)
        assert all(-3 <= e <= 3 and e != 0 for e in sigma.exponents)

    bounds = DesignBounds()
    for e in exponents:
        shaping = ShapingVector((e,) * 7)
        designs = [realize(shaping, a, bounds) for a in grid]
        # turning the dial up trades update rate for everything else
        kappas = [d.kappa for d in designs]
        assert all(nxt <= cur for cur, nxt in zip(kappas, kappas[1:]))
        assert kappas[0] == bounds.kappa[1] and kappas[-1] == bounds.kappa[0]
        for name in ("mu_d", "n_pred", "n_contr", "rho_f", "rho_constr", "max_iter"):
            values = [getattr(d, name) for d in designs]
            assert all(nxt >= cur for cur, nxt in zip(values, values[1:]))
            lo, hi = getattr(bounds, name)
            assert values[0] == lo and values[-1] == hi
    return "six exponents over a 101-point dial grid"


# criteria 8 and 9: desk-scale experiment through the public runner ---------------

TUNE_SETTINGS = dict(
    problem="pvtol",
    n_trials=10,
    nb=5,
    nsb=4,
    duration=0.5,
    timing_mode="cost-model",
    c_eval=1.0e-6,
    seed=7,
)


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """The same experiment twice: single worker, then a four-worker pool."""
    root = tmp_path_factory.mktemp("desk")
    runs = {}
    for tag, jobs, dump in (("solo", 1, False), ("pooled", 4, True)):
        out = root / tag
        config = RunConfig.from_mapping(
            {**TUNE_SETTINGS, "jobs": jobs, "dump_reports": dump, "out_dir": str(out)}
        )
        t0 = time.perf_counter()
        exit_code = run(config)
        runs[tag] = SimpleNamespace(
            config=config, out=out, exit_code=exit_code, elapsed=time.perf_counter() - t0
        )
    return runs


@pytest.mark.slow
@criterion(8, 930.0)
def test_criterion_8_desk_scale_experiment(desk_runs):
    solo, pooled = desk_runs["solo"], desk_runs["pooled"]
    for r in (solo, pooled):
        assert r.elapsed < 900.0
    assert solo.exit_code == pooled.exit_code

    # determinism: artifacts agree byte for byte across runs and worker counts
    for name in ("settings.csv", "trace.json"):
        assert (solo.out / name).read_bytes() == (pooled.out / name).read_bytes()

    trace = json.loads((solo.out / "trace.json").read_text())
    cfg = solo.config

    # solve budget: candidates x scenarios x updates x bisection depth
    m_max = update_count(cfg.duration, cfg.kappa_min * get_problem(cfg.problem)().tau)
    bound = cfg.n_trials * (cfg.nb * cfg.nsb) * m_max * math.ceil(math.log2(1.0 / cfg.eps))
    assert trace["ocp_solve_count"] <= bound

    assert solo.exit_code == (0 if trace["survivors"] else 3)

    for j, rec in enumerate(trace["records"]):
        assert rec["index"] == j
        if rec["status"] == "eliminated":
            assert 2 <= rec["eliminated_batch"] <= cfg.nb
            assert rec["eliminated_criterion"] in ("rt", "contraction", "constraints")
        elif rec["status"] == "infeasible_at_A0":
            assert rec["eliminated_batch"] == 1
            assert rec["eliminated_criterion"] in ("rt_at_zero", "contraction", "constraints")

    # survivors replay admissibly on the full scenario cloud
    problem = get_problem(cfg.problem)()
    scenarios = generate_cloud(
        problem, cfg.nb * cfg.nsb, trace["seeds"]["cloud_seed"], duration=cfg.duration
    )
    bounds = cfg.design_bounds()
    params = cfg.certification_params()
    timing = TimingSpec("cost-model", c_eval=cfg.c_eval)
    for j in trace["survivors"]:
        rec = trace["records"][j]
        shaping = ShapingVector(tuple(rec["shaping"]))
        assert realize(shaping, rec["alpha_hat"], bounds).as_dict() == rec["design"]
        assert rec["scenarios_evaluated"] == cfg.nb * cfg.nsb
        ev = evaluate_on_set(problem, shaping, rec["alpha_hat"], scenarios, bounds, params, timing)
        assert ev.rt == 0.0
        assert ev.contraction == 0.0
        assert ev.constraint <= params.c_max
    return (
        f"{len(trace['survivors'])} survivors, {trace['ocp_solve_count']} solves <= {bound}, "
        f"runs took {solo.elapsed:.0f}s and {pooled.elapsed:.0f}s"
    )


def _report_from_dict(d: dict) -> ClosedLoopReport:
    return ClosedLoopReport(
        solver_times=np.asarray(d["solver_times"], dtype=float),
        open_loop_costs=np.asarray(d["open_loop_costs"], dtype=float),
        max_violations=np.asarray(d["max_violations"], dtype=float),
        closed_loop_cost=d["closed_loop_cost"],
        m=d["m"],
        tau_u=d["tau_u"],
        states=np.asarray(d["states"], dtype=float),
        inputs=np.asarray(d["inputs"], dtype=float),
        diverged=d["diverged"],
        diverged_at=d["diverged_at"],
        n_solves=d["n_solves"],
        stopped_at=d["stopped_at"],
    )


@pytest.mark.slow
@criterion(9, 1.0)
def test_criterion_9_device_speed_monotonicity(desk_runs):
    lines = (desk_runs["pooled"].out / "reports.jsonl").read_text().splitlines()
    assert lines
    # a faster device can only shrink the real-time excess
    for line in lines:
        report = _report_from_dict(json.loads(line)["report"])
        assert rt_excess(report, report.tau_u, 2.0) <= rt_excess(report, report.tau_u, 1.0)
    return f"{len(lines)} simulation reports"


# supplementary: stopping at the first overrun keeps the verdicts -----------------


@pytest.mark.slow
def test_stop_on_rt_keeps_full_walk_verdicts():
    """On batch 1 of the desk cloud, the walk that stops at the first
    real-time overrun gives rt the sign of the full walk, and every
    evaluation with rt <= 0 is identical to the full one."""
    t0 = time.perf_counter()
    cfg = RunConfig.from_mapping(TUNE_SETTINGS)
    problem = get_problem(cfg.problem)()
    # the shaping stream and cloud seed of run(cfg)
    sigma_seq, cloud_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.default_rng(sigma_seq)
    shapings = [sample_shaping(rng, cfg.sigma_bar) for _ in range(2)]
    cloud_seed = int(cloud_seq.generate_state(1, dtype=np.uint64)[0])
    scenarios = generate_cloud(problem, cfg.nb * cfg.nsb, cloud_seed, duration=cfg.duration)
    batch1 = make_batches(scenarios, cfg.nb, cfg.nsb).batches[0]
    timing = TimingSpec("cost-model", c_eval=cfg.c_eval)
    args = (batch1, cfg.design_bounds(), cfg.certification_params(), timing)

    overruns = []
    for shaping in shapings:
        for alpha in (0.0, 0.5, 1.0):
            stopped = evaluate_on_set(problem, shaping, alpha, *args, stop_on_rt=True)
            full = evaluate_on_set(problem, shaping, alpha, *args)
            assert (stopped.rt > 0.0) == (full.rt > 0.0)
            if full.rt > 0.0:
                assert stopped.n_solves < full.n_solves
            else:
                assert dataclasses.astuple(stopped) == dataclasses.astuple(full)
            overruns.append(full.rt > 0.0)
    assert any(overruns) and not all(overruns)  # both verdicts are exercised
    _verdict(
        f"supplementary: PASS in {time.perf_counter() - t0:.1f}s "
        f"({sum(overruns)} of {len(overruns)} evaluations overrun)"
    )


# supplementary: a run shaped to leave survivors ----------------------------------


@pytest.mark.slow
def test_survivor_replay_on_gentle_envelope():
    """Library-API run on a mild scenario envelope with generous iteration
    budgets, sized so the admissibility replay is exercised non-vacuously:
    the expected outcome is one survivor, two later-batch eliminations and
    two rejections at the closed dial."""
    t0 = time.perf_counter()
    problem = pvtol_problem(
        x_sample_min=(-1.0, -1.0, -0.25, -0.2, -0.2, -0.2),
        x_sample_max=(1.0, 1.0, 0.25, 0.2, 0.2, 0.2),
    )
    bounds = DesignBounds(
        kappa=(2, 10),
        mu_d=(0.0, 1.0),
        n_pred=(8, 20),
        n_contr=(1, 3),
        rho_f=(1.0, 30.0),
        rho_constr=(1.0e3, 1.0e5),
        max_iter=(20, 45),
        rho_log_space=True,
    )
    params = CertificationParams(gamma=0.98, eps=0.15, dev_acc=1.0, c_max=0.1)
    timing = TimingSpec("cost-model", c_eval=2.0e-6)

    seq = np.random.SeedSequence(7)
    shaping_seq, cloud_seq = seq.spawn(2)
    rng = np.random.default_rng(shaping_seq)
    shapings = [sample_shaping(rng, 3) for _ in range(5)]
    cloud_seed = int(cloud_seq.generate_state(1, dtype=np.uint64)[0])
    scenarios = generate_cloud(problem, 6, cloud_seed, duration=1.0)

    result = tune(problem, shapings, make_batches(scenarios, 3, 2), bounds, params, timing)

    assert result.survivors, "expected at least one admissible setting"
    assert any(r.status == ELIMINATED for r in result.records)
    assert any(r.status == INFEASIBLE_AT_A0 for r in result.records)
    for j in result.survivors:
        rec = result.records[j]
        assert rec.scenarios_evaluated == 6
        ev = evaluate_on_set(problem, rec.shaping, rec.alpha_hat, scenarios, bounds, params, timing)
        assert ev.rt == 0.0
        assert ev.contraction == 0.0
        assert ev.constraint <= params.c_max

    best = result.best_record()
    _verdict(
        f"supplementary: PASS in {time.perf_counter() - t0:.1f}s "
        f"({len(result.survivors)} survivor(s), best dial {best.alpha_hat})"
    )
