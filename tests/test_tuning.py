import dataclasses
import functools
import math
import multiprocessing
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpc_autotune import (
    CertificationParams,
    DesignBounds,
    SetEvaluation,
    ShapingVector,
    TimingSpec,
    constraint_excess,
    contraction_excess,
    evaluate_on_set,
    find_alpha_max,
    generate_cloud,
    make_batches,
    pvtol_problem,
    required_scenarios,
    rt_excess,
    sample_shaping,
    tune,
)
from mpc_autotune.tuning import (
    CONSTRAINTS,
    CONTRACTION,
    ELIMINATED,
    INFEASIBLE_AT_A0,
    RT,
    RT_AT_ZERO,
    SURVIVING,
)

from conftest import stub_report

PARAMS = CertificationParams(gamma=0.98, eps=0.15, dev_acc=1.0, c_max=0.1)
ANY_SHAPING = ShapingVector((1, 1, 1, 1, 1, 1, 1))


# certification criteria -----------------------------------------------------------


def test_rt_excess_value():
    report = stub_report([0.05, 0.12, 0.08], tau_u=0.1)
    # worst overshoot: 0.12 / 0.1 - 1
    assert rt_excess(report, 0.1, 1.0) == pytest.approx(0.2, abs=1e-12)


def test_rt_excess_with_slower_device():
    report = stub_report([0.05, 0.12, 0.08], tau_u=0.1)
    # doubling the budget admits every solve
    assert rt_excess(report, 0.1, 2.0) == 0.0


def test_rt_excess_diverged():
    report = stub_report([0.01], tau_u=0.1, diverged=True)
    assert math.isinf(rt_excess(report, 0.1, 1.0))


def test_contraction_excess_value():
    report = stub_report([0.01] * 3, open_loop_costs=[100.0, 50.0, 99.0])
    # 99 - 0.98 * 100
    assert contraction_excess(report, 0.98) == pytest.approx(1.0, abs=1e-12)


def test_contraction_excess_satisfied():
    report = stub_report([0.01] * 3, open_loop_costs=[100.0, 90.0, 97.9])
    assert contraction_excess(report, 0.98) == 0.0


def test_contraction_excess_diverged():
    report = stub_report([0.01], diverged=True)
    assert math.isinf(contraction_excess(report, 0.98))


def test_constraint_excess_value():
    report = stub_report([0.01] * 3, max_violations=[-0.2, 0.05, 0.01])
    assert constraint_excess(report) == pytest.approx(0.05, abs=1e-12)


def test_constraint_excess_all_satisfied():
    report = stub_report([0.01] * 3, max_violations=[-0.2, -0.1, -0.3])
    assert constraint_excess(report) == 0.0


def test_constraint_excess_diverged():
    report = stub_report([0.01], diverged=True)
    assert math.isinf(constraint_excess(report))


def test_criteria_read_nan_as_failure():
    assert rt_excess(stub_report([0.05, math.nan]), 0.1, 1.0) == math.inf
    assert contraction_excess(stub_report([0.01] * 2, open_loop_costs=[100.0, math.nan]), 0.98) == math.inf
    with np.errstate(invalid="ignore"):  # inf - 0.98 * inf is NaN
        assert contraction_excess(stub_report([0.01] * 2, open_loop_costs=[math.inf] * 2), 0.98) == math.inf
    assert constraint_excess(stub_report([0.01] * 2, max_violations=[-0.1, math.nan])) == math.inf


def test_criteria_on_stopped_report():
    # stopped at update 1, the first overrun; update 2 never ran
    report = stub_report([0.05, 0.12, math.inf], open_loop_costs=[5.0, math.inf, math.inf],
                         max_violations=[-0.1, math.inf, math.inf], stopped_at=1)
    assert not report.diverged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dev_acc in (1.0, 2.0):  # the looser budget cannot certify the untimed updates
            assert rt_excess(report, 0.1, dev_acc) == math.inf
        assert contraction_excess(report, 0.98) == math.inf
        assert constraint_excess(report) == math.inf


# SetEvaluation verdicts -------------------------------------------------------------


def test_passes_respects_constraint_margin():
    assert SetEvaluation(0.0, 0.0, 0.1, 1.0).failed_criterion(PARAMS) is None
    assert SetEvaluation(0.0, 0.0, 0.11, 1.0).failed_criterion(PARAMS) == CONSTRAINTS
    assert SetEvaluation(1e-9, 0.0, 0.0, 1.0).failed_criterion(PARAMS) == RT
    assert SetEvaluation(0.0, 1e-9, 0.0, 1.0).failed_criterion(PARAMS) == CONTRACTION
    # a NaN fails
    for nan_case, criterion in (((math.nan, 0.0, 0.0), RT), ((0.0, math.nan, 0.0), CONTRACTION),
                                ((0.0, 0.0, math.nan), CONSTRAINTS)):
        assert SetEvaluation(*nan_case, 1.0).failed_criterion(PARAMS) == criterion


def test_failed_criterion_precedence():
    assert SetEvaluation(1.0, 1.0, 1.0, 0.0).failed_criterion(PARAMS) == RT
    assert SetEvaluation(0.0, 1.0, 1.0, 0.0).failed_criterion(PARAMS) == CONTRACTION
    assert SetEvaluation(0.0, 0.0, 1.0, 0.0).failed_criterion(PARAMS) == CONSTRAINTS
    assert SetEvaluation(0.0, 0.0, 0.05, 0.0).failed_criterion(PARAMS) is None


def test_certification_params_validation():
    with pytest.raises(ValueError):
        CertificationParams(gamma=0.0)
    with pytest.raises(ValueError):
        CertificationParams(eps=0.0)
    with pytest.raises(ValueError):
        CertificationParams(eps=1.5)
    with pytest.raises(ValueError):
        CertificationParams(dev_acc=0.0)
    with pytest.raises(ValueError):
        CertificationParams(c_max=-0.1)
    for bad in ({"dev_acc": math.nan}, {"c_max": math.nan}, {"gamma": math.nan}, {"eps": math.nan}):
        with pytest.raises(ValueError):
            CertificationParams(**bad)


# dichotomic dial search --------------------------------------------------------------


def stub_evaluator(feasible_rt, passes_rest=lambda a: True, costs=None):
    """Evaluator whose rt criterion fails iff feasible_rt(alpha) is False."""

    calls = []

    def evaluate(alpha: float) -> SetEvaluation:
        calls.append(alpha)
        rt = 0.0 if feasible_rt(alpha) else 1.0
        rest_ok = passes_rest(alpha)
        contraction = 0.0 if rest_ok else 1.0
        cost = costs(alpha) if costs is not None else 1.0
        return SetEvaluation(rt, contraction, 0.0, cost)

    evaluate.calls = calls
    return evaluate


def test_alpha_search_bisection_trace():
    # rt feasible iff alpha <= 0.7 with eps = 0.15:
    # evaluations 0, 1, 0.5, 0.75, 0.625 and alpha_hat = 0.625
    evaluate = stub_evaluator(lambda a: a <= 0.7)
    out = find_alpha_max(evaluate, PARAMS)
    assert evaluate.calls == [0.0, 1.0, 0.5, 0.75, 0.625]
    assert out.alpha_hat == pytest.approx(0.625)
    assert out.failure is None
    assert out.n_evaluations == 5
    assert out.upper_bound == pytest.approx(0.75)
    assert out.n_evaluations <= 2 + math.ceil(math.log2(1.0 / PARAMS.eps))


def test_alpha_search_accepts_full_dial():
    evaluate = stub_evaluator(lambda a: True)
    out = find_alpha_max(evaluate, PARAMS)
    assert out.alpha_hat == 1.0
    assert out.failure is None
    assert evaluate.calls == [0.0, 1.0]


def test_alpha_search_rejects_at_zero():
    evaluate = stub_evaluator(lambda a: False)
    out = find_alpha_max(evaluate, PARAMS)
    assert out.alpha_hat is None
    assert out.failure == RT_AT_ZERO
    assert evaluate.calls == [0.0]


def test_alpha_search_step3_rejection_after_bisection():
    # rt boundary at 0.7, but contraction fails everywhere: the kept dial
    # value 0.625 is rejected in the final re-check
    evaluate = stub_evaluator(lambda a: a <= 0.7, passes_rest=lambda a: False)
    out = find_alpha_max(evaluate, PARAMS)
    assert out.alpha_hat is None
    assert out.failure == CONTRACTION
    assert evaluate.calls == [0.0, 1.0, 0.5, 0.75, 0.625]


def test_alpha_search_full_rt_but_other_failure_at_one():
    # rt passes on the whole range, another criterion fails at alpha = 1
    evaluate = stub_evaluator(lambda a: True, passes_rest=lambda a: a < 0.9)
    out = find_alpha_max(evaluate, PARAMS)
    assert out.alpha_hat is None
    assert out.failure == CONTRACTION
    assert evaluate.calls == [0.0, 1.0]


def test_alpha_search_narrow_boundary():
    # rt feasible only at exactly 0: bisection collapses toward zero
    evaluate = stub_evaluator(lambda a: a <= 0.0)
    out = find_alpha_max(evaluate, PARAMS)
    assert out.alpha_hat == 0.0
    assert out.failure is None
    assert out.upper_bound == pytest.approx(0.125)


def test_alpha_search_cost_comes_from_kept_value():
    evaluate = stub_evaluator(lambda a: a <= 0.7, costs=lambda a: 100.0 + a)
    out = find_alpha_max(evaluate, PARAMS)
    assert out.cost_sum == pytest.approx(100.625)


@given(boundary=st.floats(min_value=0.0, max_value=1.0))
def test_alpha_search_bracket_property(boundary):
    evaluate = stub_evaluator(lambda a: a <= boundary + 1e-12)
    out = find_alpha_max(evaluate, PARAMS)
    assert out.alpha_hat is not None
    assert out.alpha_hat <= boundary + 1e-12
    if out.upper_bound is not None:
        assert out.upper_bound - out.alpha_hat <= PARAMS.eps + 1e-12
        assert out.upper_bound > boundary - 1e-12
    assert out.n_evaluations <= 2 + math.ceil(math.log2(1.0 / PARAMS.eps))


# two-phase tuning with stub evaluators ----------------------------------------------


def dummy_batches(nb=3, nsb=2):
    prob = pvtol_problem()
    return make_batches(generate_cloud(prob, nb * nsb, seed=0), nb, nsb), prob


def shapings(n):
    return [ShapingVector((1, 1, 1, 1, 1, 1, 1)) for _ in range(n)]


def test_tune_keeps_all_when_everything_passes():
    batch_set, prob = dummy_batches()
    log = []

    def evaluate(shaping, alpha, scenarios):
        log.append(alpha)
        return SetEvaluation(0.0, 0.0, 0.0, 1.0, n_solves=len(scenarios), n_scenarios=len(scenarios))

    result = tune(prob, shapings(3), batch_set, DesignBounds(), PARAMS,
                  TimingSpec(mode="cost-model", c_eval=1e-6), evaluate=evaluate)
    assert result.survivors == [0, 1, 2]
    assert result.best_index == 0
    assert result.elimination_trace == [0, 0]
    assert all(r.status == SURVIVING for r in result.records)
    assert all(r.alpha_hat == 1.0 for r in result.records)
    # phase 1 counts batch 1 once however many dial values it tried
    assert all(r.alpha_evaluations == 2 for r in result.records)
    assert all(r.scenarios_evaluated == 2 + 2 * 2 for r in result.records)
    # cost accumulates one unit per batch evaluated at the frozen dial
    assert all(r.cumulative_cost == pytest.approx(3.0) for r in result.records)
    assert result.ocp_solve_count == 3 * (2 * 2 + 2 * 2)


def test_tune_eliminates_at_later_batch():
    batch_set, prob = dummy_batches(nb=3, nsb=2)

    def evaluate(shaping, alpha, scenarios):
        # every candidate passes batch 1 but fails from batch 2 onward
        first_batch = scenarios is batch_set.batches[0]
        rt = 0.0 if first_batch else 1.0
        return SetEvaluation(rt, 0.0, 0.0, 1.0, n_solves=len(scenarios), n_scenarios=len(scenarios))

    result = tune(prob, shapings(4), batch_set, DesignBounds(), PARAMS,
                  TimingSpec(mode="cost-model", c_eval=1e-6), evaluate=evaluate)
    assert result.survivors == []
    assert result.best_index is None
    assert result.elimination_trace == [4, 4]
    assert all(r.status == ELIMINATED for r in result.records)
    assert all(r.eliminated_batch == 2 for r in result.records)
    assert all(r.eliminated_criterion == RT for r in result.records)
    # the failing batch contributes no cost: only the kept batch-1 cost remains
    assert all(r.cumulative_cost == pytest.approx(1.0) for r in result.records)


def test_tune_no_reevaluation_after_elimination():
    batch_set, prob = dummy_batches(nb=4, nsb=2)
    calls = {"n": 0}
    dead = ShapingVector((1, 1, 1, 1, 1, 1, 2))

    def evaluate(shaping, alpha, scenarios):
        calls["n"] += 1
        if shaping is dead and scenarios is batch_set.batches[1]:
            return SetEvaluation(0.0, 1.0, 0.0, 1.0, n_scenarios=len(scenarios))
        return SetEvaluation(0.0, 0.0, 0.0, 1.0, n_scenarios=len(scenarios))

    result = tune(prob, [ANY_SHAPING, dead], batch_set, DesignBounds(), PARAMS,
                  TimingSpec(mode="cost-model", c_eval=1e-6), evaluate=evaluate)
    # phase 1: 2 evals per candidate = 4 calls; phase 2: batch 2 both alive
    # (2 calls), batches 3 and 4 only the survivor (2 calls)
    assert calls["n"] == 4 + 2 + 1 + 1
    assert result.survivors == [0]
    assert result.records[1].status == ELIMINATED
    assert result.records[1].eliminated_batch == 2
    assert result.records[1].eliminated_criterion == CONTRACTION
    assert result.elimination_trace == [1, 1, 1]
    # the eliminated candidate stops accumulating scenarios after batch 2
    assert result.records[1].scenarios_evaluated == 2 + 2
    assert result.records[0].scenarios_evaluated == 2 + 3 * 2


def test_tune_ranks_survivors_by_cumulative_cost():
    batch_set, prob = dummy_batches(nb=2, nsb=2)
    cheap = ShapingVector((1, 1, 1, 1, 1, 1, 2))
    dear = ShapingVector((1, 1, 1, 1, 1, 1, 3))

    def evaluate(shaping, alpha, scenarios):
        cost = {dear: 50.0, cheap: 10.0}.get(shaping, 30.0)
        return SetEvaluation(0.0, 0.0, 0.0, cost, n_scenarios=len(scenarios))

    result = tune(prob, [dear, ANY_SHAPING, cheap], batch_set, DesignBounds(), PARAMS,
                  TimingSpec(mode="cost-model", c_eval=1e-6), evaluate=evaluate)
    assert result.survivors == [2, 1, 0]
    assert result.best_index == 2
    assert result.best_record().cumulative_cost == pytest.approx(20.0)


def test_tune_cost_ties_break_by_index():
    batch_set, prob = dummy_batches(nb=2, nsb=2)

    def evaluate(shaping, alpha, scenarios):
        return SetEvaluation(0.0, 0.0, 0.0, 7.0, n_scenarios=len(scenarios))

    result = tune(prob, shapings(3), batch_set, DesignBounds(), PARAMS,
                  TimingSpec(mode="cost-model", c_eval=1e-6), evaluate=evaluate)
    assert result.survivors == [0, 1, 2]


def test_tune_counts_step3_rejections():
    batch_set, prob = dummy_batches(nb=2, nsb=2)
    bad = ShapingVector((1, 1, 1, 1, 1, 1, 2))

    def evaluate(shaping, alpha, scenarios):
        if shaping is bad:
            return SetEvaluation(0.0, 1.0, 0.0, 1.0)  # contraction fails everywhere
        return SetEvaluation(0.0, 0.0, 0.0, 1.0)

    result = tune(prob, [ANY_SHAPING, bad], batch_set, DesignBounds(), PARAMS,
                  TimingSpec(mode="cost-model", c_eval=1e-6), evaluate=evaluate)
    assert result.step3_rejections == 1
    rec = result.records[1]
    assert rec.status == INFEASIBLE_AT_A0
    assert rec.eliminated_batch == 1
    assert rec.eliminated_criterion == CONTRACTION
    assert rec.alpha_hat is None
    assert rec.cumulative_cost is None


def test_tune_rt_at_zero_bookkeeping():
    batch_set, prob = dummy_batches(nb=2, nsb=2)

    def evaluate(shaping, alpha, scenarios):
        return SetEvaluation(1.0, 0.0, 0.0, 1.0, n_scenarios=len(scenarios))

    result = tune(prob, shapings(2), batch_set, DesignBounds(), PARAMS,
                  TimingSpec(mode="cost-model", c_eval=1e-6), evaluate=evaluate)
    assert result.survivors == []
    assert result.step3_rejections == 0
    for rec in result.records:
        assert rec.status == INFEASIBLE_AT_A0
        assert rec.eliminated_criterion == RT_AT_ZERO
        assert rec.alpha_evaluations == 1
        assert rec.scenarios_evaluated == 2


def test_tune_accumulates_solve_count():
    batch_set, prob = dummy_batches(nb=3, nsb=2)

    def evaluate(shaping, alpha, scenarios):
        return SetEvaluation(0.0, 0.0, 0.0, 1.0, n_solves=10 * len(scenarios), n_scenarios=len(scenarios))

    result = tune(prob, shapings(2), batch_set, DesignBounds(), PARAMS,
                  TimingSpec(mode="cost-model", c_eval=1e-6), evaluate=evaluate)
    # per candidate: phase 1 evaluates batches of 2 scenarios twice (alpha 0, 1)
    # then 2 more batches in phase 2: (2 + 2) * 2 scenarios * 10 solves
    assert result.ocp_solve_count == 2 * 10 * 2 * 4


def test_tune_report_sink_receives_tagged_reports():
    batch_set, prob = dummy_batches(nb=2, nsb=2)
    sink_calls = []

    def sink(tag, report):
        sink_calls.append(tag)

    def evaluate(shaping, alpha, scenarios):
        reports = [stub_report([0.01], tau_u=0.1) for _ in scenarios]
        return SetEvaluation(0.0, 0.0, 0.0, 1.0, n_scenarios=len(scenarios), reports=reports)

    tune(prob, shapings(1), batch_set, DesignBounds(), PARAMS,
         TimingSpec(mode="cost-model", c_eval=1e-6), evaluate=evaluate, report_sink=sink)
    phases = {t["phase"] for t in sink_calls}
    assert phases == {1, 2}
    phase1 = [t for t in sink_calls if t["phase"] == 1]
    phase2 = [t for t in sink_calls if t["phase"] == 2]
    assert {t["alpha"] for t in phase1} == {0.0, 1.0}
    assert all(t["batch"] == 2 for t in phase2)
    assert all(t["candidate"] == 0 for t in sink_calls)


def test_tune_derives_trace_and_rejections_per_candidate():
    # candidate 0 survives, 1 is rejected by the step-3 re-check, 2 fails batch 3
    batch_set, prob = dummy_batches(nb=4, nsb=2)
    step3, late = ShapingVector((1, 1, 1, 1, 1, 1, 2)), ShapingVector((1, 1, 1, 1, 1, 1, 3))
    sink_calls = []

    def evaluate(shaping, alpha, scenarios):
        contraction = 1.0 if shaping is step3 or (shaping is late and scenarios is batch_set.batches[2]) else 0.0
        reports = [stub_report([0.01]) for _ in scenarios]
        return SetEvaluation(0.0, contraction, 0.0, 1.0, n_scenarios=len(scenarios), reports=reports)

    result = tune(prob, [ANY_SHAPING, step3, late], batch_set, DesignBounds(), PARAMS,
                  TimingSpec(mode="cost-model", c_eval=1e-6), evaluate=evaluate,
                  report_sink=lambda tag, report: sink_calls.append(tag))
    assert [r.status for r in result.records] == [SURVIVING, INFEASIBLE_AT_A0, ELIMINATED]
    assert result.records[2].eliminated_batch == 3
    assert result.elimination_trace == [0, 1, 1]
    assert result.step3_rejections == 1
    # candidate by candidate: the dial search by alpha, then the later batches in order
    steps = [(t["candidate"], t["phase"], t.get("alpha", t.get("batch"))) for t in sink_calls if t["scenario"] == 0]
    assert steps == [(0, 1, 0.0), (0, 1, 1.0), (0, 2, 2), (0, 2, 3), (0, 2, 4),
                     (1, 1, 0.0), (1, 1, 1.0),
                     (2, 1, 0.0), (2, 1, 1.0), (2, 2, 2), (2, 2, 3)]
    assert len(sink_calls) == 2 * len(steps)


def test_tune_pool_raises_a_failing_candidate_at_once():
    # candidate 1 fails at once while candidate 0 is still running
    batch_set, prob = dummy_batches(nb=2, nsb=2)
    slow, failing = ShapingVector((1, 1, 1, 1, 1, 1, 2)), ShapingVector((1, 1, 1, 1, 1, 1, 3))

    def evaluate(shaping, alpha, scenarios):
        if shaping == slow:
            time.sleep(5.0)
        if shaping == failing:
            raise RuntimeError("candidate 1 failed")
        return SetEvaluation(0.0, 0.0, 0.0, 1.0, n_scenarios=len(scenarios))

    before = set(multiprocessing.active_children())
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="candidate 1 failed"):
        tune(prob, [slow, failing, ANY_SHAPING], batch_set, DesignBounds(), PARAMS,
             TimingSpec(mode="cost-model", c_eval=1e-6), jobs=2, evaluate=evaluate)
    assert time.monotonic() - t0 < 2.0
    deadline = time.monotonic() + 2.0
    while set(multiprocessing.active_children()) - before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not set(multiprocessing.active_children()) - before


# end-to-end evaluate_on_set on the real plant ----------------------------------------


def test_evaluate_on_set_real_plant_aggregates():
    prob = pvtol_problem()
    scenarios = generate_cloud(prob, 2, seed=5, duration=0.1)
    shaping = ShapingVector((-1, 1, -2, 1, 1, -1, 2))
    ev = evaluate_on_set(
        prob, shaping, 0.5, scenarios, DesignBounds(), PARAMS,
        TimingSpec(mode="cost-model", c_eval=1e-7), keep_reports=True,
    )
    assert len(ev.reports) == 2
    assert ev.n_solves == sum(r.n_solves for r in ev.reports)
    assert ev.cost_sum == pytest.approx(sum(r.closed_loop_cost for r in ev.reports))
    assert ev.rt == pytest.approx(
        max(rt_excess(r, ev.reports[0].tau_u, PARAMS.dev_acc) for r in ev.reports)
    )
    assert ev.constraint == pytest.approx(max(constraint_excess(r) for r in ev.reports))


# the early stops against the full walk ----------------------------------------------

# initial angles drawn past the |theta| <= 0.3 limit, so that constraint
# failures occur beside the rt and contraction ones
DIFF_PROBLEM = pvtol_problem(
    q4=0.3, x_sample_min=(-1.0, -1.0, -0.5, -1.0, -1.0, -1.0), x_sample_max=(1.0, 1.0, 0.5, 1.0, 1.0, 1.0)
)
DIFF_BOUNDS = DesignBounds(kappa=(1, 3), n_pred=(3, 6), n_contr=(1, 2), max_iter=(3, 6))


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log10_c_eval=st.floats(min_value=-7.0, max_value=-4.5),
    dev_acc=st.floats(min_value=0.3, max_value=3.0),
    gamma=st.floats(min_value=0.95, max_value=1.0),
    c_max=st.floats(min_value=0.0, max_value=0.1),
)
# the slowest solve at alpha = 0 takes exactly the budget: a real-time pass
@example(seed=0, log10_c_eval=-4.5, dev_acc=0.3288768766575115, gamma=1.0, c_max=0.1)
def test_early_stops_keep_every_verdict(seed, log10_c_eval, dev_acc, gamma, c_max):
    """The default evaluator stops at the first real-time overrun: the
    scenario walk, the closed loop and the cost-model solve.  Against the
    full walk on tiny PVTOL configs, only the scenarios walked on an rt
    failure and the solve count may be lower; and the stopped run gives
    the same result at jobs 1 and 2."""
    rng = np.random.default_rng(seed)
    shapings = [sample_shaping(rng, 3) for _ in range(3)]
    batch_set = make_batches(generate_cloud(DIFF_PROBLEM, 4, seed, duration=0.15), 2, 2)
    params = CertificationParams(gamma=gamma, eps=0.25, dev_acc=dev_acc, c_max=c_max)
    timing = TimingSpec("cost-model", c_eval=10.0**log10_c_eval)
    args = (DIFF_PROBLEM, shapings, batch_set, DIFF_BOUNDS, params, timing)
    stopped = tune(*args)
    full = tune(*args, evaluate=functools.partial(
        evaluate_on_set, DIFF_PROBLEM, bounds=DIFF_BOUNDS, params=params, timing=timing))

    assert stopped.ocp_solve_count <= full.ocp_solve_count
    assert dataclasses.replace(stopped, records=[], ocp_solve_count=0) == dataclasses.replace(
        full, records=[], ocp_solve_count=0)  # survivors, best_index and the rest
    for got, want in zip(stopped.records, full.records, strict=True):
        if got.eliminated_criterion in (RT, RT_AT_ZERO):
            assert got.scenarios_evaluated <= want.scenarios_evaluated
        else:
            assert got.scenarios_evaluated == want.scenarios_evaluated
        assert dataclasses.replace(got, scenarios_evaluated=0) == dataclasses.replace(want, scenarios_evaluated=0)
    assert tune(*args, jobs=2) == stopped


# scenario-count certificate ----------------------------------------------------------


# (n_trials, eta) -> required scenarios at delta = 1e-3, one allowed failure
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


@pytest.mark.parametrize("key,expected", sorted(SIZING_TABLE.items()))
def test_required_scenarios_table(key, expected):
    n_trials, eta = key
    assert required_scenarios(eta, 1e-3, n_trials) == expected


def test_required_scenarios_validation():
    with pytest.raises(ValueError):
        required_scenarios(0.0, 1e-3, 10)
    with pytest.raises(ValueError):
        required_scenarios(1.5, 1e-3, 10)
    with pytest.raises(ValueError):
        required_scenarios(0.1, 0.0, 10)
    with pytest.raises(ValueError):
        required_scenarios(0.1, 1e-3, 0)
    with pytest.raises(ValueError):
        required_scenarios(0.1, 1e-3, 10, allowed_failures=-1)


def test_required_scenarios_monotone():
    base = required_scenarios(0.05, 1e-3, 100)
    assert required_scenarios(0.01, 1e-3, 100) > base
    assert required_scenarios(0.05, 1e-4, 100) > base
    assert required_scenarios(0.05, 1e-3, 1000) > base
    assert required_scenarios(0.05, 1e-3, 100, allowed_failures=2) > base


def test_required_scenarios_zero_failures():
    # with no failure budget the bound reduces to log-term / eta
    n = required_scenarios(0.05, 1e-3, 100)
    assert required_scenarios(0.05, 1e-3, 100, allowed_failures=0) < n
