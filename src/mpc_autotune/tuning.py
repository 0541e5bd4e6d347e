"""Randomized tuning with batch-wise scenario certification.

Each candidate is a shaping vector.  Phase 1 runs a dichotomic search on the
first scenario batch to freeze the largest real-time-feasible dial value
alpha_hat (or reject the candidate).  Phase 2 replays the surviving settings
on the remaining batches and eliminates a candidate the first time any
certification criterion fails.  Closed-loop costs accumulate across batches
and rank the survivors.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import signal
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import compiled
from .controller import ClosedLoopReport, MpcSetting, TimingSpec, budget_excess, simulate_closed_loop
from .design import DesignBounds, DesignVector, ShapingVector, realize
from .problems import ProblemDefinition, Scenario, ScenarioBatchSet

# record status values
SURVIVING = "surviving"
INFEASIBLE_AT_A0 = "infeasible_at_A0"
ELIMINATED = "eliminated"

# criterion / failure labels
RT = "rt"
CONTRACTION = "contraction"
CONSTRAINTS = "constraints"
RT_AT_ZERO = "rt_at_zero"


@dataclass(frozen=True)
class CertificationParams:
    """Thresholds of the certification tests and the dial-search precision."""

    gamma: float = 0.98
    eps: float = 0.15
    dev_acc: float = 1.0
    c_max: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps!r}")
        if not self.dev_acc > 0.0:
            raise ValueError(f"dev_acc must be positive, got {self.dev_acc!r}")
        if not self.c_max >= 0.0:
            raise ValueError(f"c_max must be nonnegative, got {self.c_max!r}")


# certification criteria -----------------------------------------------------
#
# Each criterion is clipped at zero from below and reads a NaN as +inf, so a
# NaN can never pass.  A stopped report (one that ended at its first
# real-time overrun) was never timed past its stop and never reached the end
# of its horizon: like a diverged one it passes no criterion at any budget,
# and all three read +inf.


def _clipped(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return x if x > 0.0 else math.inf


def _unfinished(report: ClosedLoopReport) -> bool:
    return report.diverged or report.stopped_at is not None


def rt_excess(report: ClosedLoopReport, tau_u: float, dev_acc: float) -> float:
    """Worst relative overshoot of solver time past the real-time budget
    dev_acc * tau_u, clipped at zero.  +inf for diverged or stopped reports."""
    if _unfinished(report):
        return math.inf
    return _clipped(float(np.max(budget_excess(report.solver_times, dev_acc * tau_u))))


def contraction_excess(report: ClosedLoopReport, gamma: float) -> float:
    """Violation of the end-of-horizon decrease J_ol(m) <= gamma * J_ol(1)."""
    if _unfinished(report):
        return math.inf
    return _clipped(float(report.open_loop_costs[-1] - gamma * report.open_loop_costs[0]))


def constraint_excess(report: ClosedLoopReport) -> float:
    """Worst fine-grid constraint violation over the whole simulation."""
    if _unfinished(report):
        return math.inf
    return _clipped(float(np.max(report.max_violations)))


@dataclass
class SetEvaluation:
    """Max-aggregated criteria and summed cost of one setting over a scenario set."""

    rt: float
    contraction: float
    constraint: float
    cost_sum: float
    n_solves: int = 0
    n_scenarios: int = 0
    reports: list[ClosedLoopReport] | None = None

    def failed_criterion(self, params: CertificationParams) -> str | None:
        """First failed criterion in precedence order, or None; a NaN fails."""
        if not self.rt <= 0.0:
            return RT
        if not self.contraction <= 0.0:
            return CONTRACTION
        if not self.constraint <= params.c_max:
            return CONSTRAINTS
        return None


Evaluator = Callable[[float], SetEvaluation]


def evaluate_on_set(
    problem: ProblemDefinition,
    shaping: ShapingVector,
    alpha: float,
    scenarios: Sequence[Scenario],
    bounds: DesignBounds,
    params: CertificationParams,
    timing: TimingSpec,
    keep_reports: bool = False,
    stop_on_rt: bool = False,
) -> SetEvaluation:
    """Simulate the realized setting on every scenario and aggregate.

    With stop_on_rt the walk stops at the first scenario breaking the
    real-time budget: rt has the highest failure precedence, so the verdict
    cannot change and the remaining simulations would be discarded anyway.
    For the same reason each simulation gets the budget dev_acc * tau_u and
    stops at its first overrunning update.  The sign of rt is that of the
    full walk, and an evaluation with rt <= 0 is identical to it.
    """
    design = realize(shaping, alpha, bounds)
    setting = MpcSetting.from_design(problem, design)
    budget = params.dev_acc * setting.tau_u if stop_on_rt else None
    rt = contraction = constraint = 0.0
    cost_sum = 0.0
    n_solves = 0
    n_scenarios = 0
    reports: list[ClosedLoopReport] | None = [] if keep_reports else None
    for scenario in scenarios:
        report = simulate_closed_loop(setting, scenario, timing, budget=budget)
        rt = max(rt, rt_excess(report, setting.tau_u, params.dev_acc))
        contraction = max(contraction, contraction_excess(report, params.gamma))
        constraint = max(constraint, constraint_excess(report))
        cost_sum += report.closed_loop_cost
        n_solves += report.n_solves
        n_scenarios += 1
        if reports is not None:
            reports.append(report)
        if stop_on_rt and rt > 0.0:
            break
    return SetEvaluation(rt, contraction, constraint, cost_sum, n_solves, n_scenarios, reports)


# dichotomic dial search ------------------------------------------------------


@dataclass
class AlphaSearch:
    """Outcome of the dichotomic search on one scenario set.

    alpha_hat is None when the candidate is rejected; failure then names the
    reason.  The certificate fields retain the bracketing evaluations: the
    kept dial value is real-time feasible, and unless alpha_hat = 1 the upper
    endpoint is real-time infeasible.
    """

    alpha_hat: float | None
    failure: str | None
    cost_sum: float
    evaluations: list[tuple[float, SetEvaluation]]
    upper_bound: float | None = None

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)

    @property
    def n_solves(self) -> int:
        return sum(ev.n_solves for _, ev in self.evaluations)

    @property
    def n_scenarios(self) -> int:
        """Distinct scenarios touched; every evaluation walks the same batch
        from the start, so the longest walk covers all the others."""
        return max((ev.n_scenarios for _, ev in self.evaluations), default=0)


def find_alpha_max(evaluate: Evaluator, params: CertificationParams) -> AlphaSearch:
    """Largest dial value passing the real-time test, certified on one set.

    Step 1 checks alpha = 0 for real-time feasibility only (reject with
    failure 'rt_at_zero' otherwise).  Step 2 accepts alpha = 1 outright when
    every criterion passes there.  Otherwise the real-time boundary is
    bisected to precision eps, and step 3 re-checks the contraction and
    constraint criteria at the kept value, rejecting on failure.  Total
    evaluations: at most 2 + ceil(log2(1/eps)).
    """
    evaluations: list[tuple[float, SetEvaluation]] = []

    ev0 = evaluate(0.0)
    evaluations.append((0.0, ev0))
    if not ev0.rt <= 0.0:
        return AlphaSearch(None, RT_AT_ZERO, ev0.cost_sum, evaluations)

    ev1 = evaluate(1.0)
    evaluations.append((1.0, ev1))
    if ev1.rt <= 0.0:
        # real-time holds on the whole dial range, so alpha_hat = 1; a
        # failure at alpha = 1 is a step-3 rejection by another criterion
        failure = ev1.failed_criterion(params)
        return AlphaSearch(1.0 if failure is None else None, failure, ev1.cost_sum, evaluations)

    lo, lo_ev = 0.0, ev0
    hi = 1.0
    while hi - lo > params.eps:
        mid = 0.5 * (lo + hi)
        ev = evaluate(mid)
        evaluations.append((mid, ev))
        if ev.rt <= 0.0:
            lo, lo_ev = mid, ev
        else:
            hi = mid

    failure = lo_ev.failed_criterion(params)  # lo passed rt: any failure is a step-3 rejection
    return AlphaSearch(lo if failure is None else None, failure, lo_ev.cost_sum, evaluations, hi)


# two-phase tuning ------------------------------------------------------------


@dataclass
class CandidateRecord:
    """Bookkeeping of one shaping-vector candidate through the run.

    scenarios_evaluated counts distinct scenarios: the first batch counts
    once no matter how many dial values the search tried on it, so a
    survivor ends at exactly nb * nsb.  cumulative_cost sums the kept
    first-batch cost and every passed batch; a failed batch adds nothing.
    """

    index: int
    shaping: ShapingVector
    status: str = SURVIVING
    alpha_hat: float | None = None
    design: DesignVector | None = None
    cumulative_cost: float | None = None
    scenarios_evaluated: int = 0
    alpha_evaluations: int = 0
    eliminated_batch: int | None = None
    eliminated_criterion: str | None = None


@dataclass
class TuningResult:
    records: list[CandidateRecord]
    survivors: list[int]
    best_index: int | None
    elimination_trace: list[int]
    ocp_solve_count: int
    step3_rejections: int
    nb: int
    nsb: int

    def best_record(self) -> CandidateRecord | None:
        return None if self.best_index is None else self.records[self.best_index]


CandidateEvaluator = Callable[[ShapingVector, float, Sequence[Scenario]], SetEvaluation]
ReportSink = Callable[[dict, ClosedLoopReport], None]
Outcome = tuple[CandidateRecord, int, list[tuple[dict, ClosedLoopReport]]]


def _certify(
    evaluate: CandidateEvaluator,
    batches: Sequence[Sequence[Scenario]],
    params: CertificationParams,
    bounds: DesignBounds,
    index: int,
    shaping: ShapingVector,
) -> Outcome:
    """One candidate's task: the dial search on the first batch and, unless it
    rejects the candidate, the later batches at alpha_hat up to the first
    failing one.  Returns the candidate's record, the solves it ran and its
    (context, report) pairs in simulation order."""
    search = find_alpha_max(lambda alpha: evaluate(shaping, alpha, batches[0]), params)
    record = CandidateRecord(index, shaping, alpha_evaluations=search.n_evaluations,
                             scenarios_evaluated=search.n_scenarios)
    solves = search.n_solves
    reports = [({"phase": 1, "candidate": index, "alpha": alpha, "scenario": i}, rep)
               for alpha, ev in search.evaluations for i, rep in enumerate(ev.reports or ())]
    if search.alpha_hat is None:
        record.status, record.eliminated_batch, record.eliminated_criterion = INFEASIBLE_AT_A0, 1, search.failure
        return record, solves, reports
    record.alpha_hat = search.alpha_hat
    record.design = realize(shaping, search.alpha_hat, bounds)
    record.cumulative_cost = search.cost_sum
    for batch, scenarios in enumerate(batches[1:], start=2):
        ev = evaluate(shaping, search.alpha_hat, scenarios)
        record.scenarios_evaluated += ev.n_scenarios
        solves += ev.n_solves
        reports += [({"phase": 2, "candidate": index, "batch": batch, "scenario": i}, rep)
                    for i, rep in enumerate(ev.reports or ())]
        failed = ev.failed_criterion(params)
        if failed is not None:
            record.status, record.eliminated_batch, record.eliminated_criterion = ELIMINATED, batch, failed
            break
        record.cumulative_cost += ev.cost_sum
    return record, solves, reports


_worker_args: tuple = ()  # a pool worker's (evaluate, batches, params, bounds)


def _start_worker(*args) -> None:
    global _worker_args
    _worker_args = args
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles it by ending the workers


def _certify_in_worker(index: int, shaping: ShapingVector) -> Outcome:
    return _certify(*_worker_args, index, shaping)


def _in_order_failing_fast(futures: list[Future]):
    """The futures' results in order; an exception held by any future is
    raised as soon as it is set, not after the earlier futures finish."""
    pending = set(futures)
    for future in futures:
        while not future.done():
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for finished in done:
                finished.result()  # raises a failed candidate's exception
        yield future.result()


def tune(
    problem: ProblemDefinition,
    shapings: Sequence[ShapingVector],
    batch_set: ScenarioBatchSet,
    bounds: DesignBounds,
    params: CertificationParams,
    timing: TimingSpec,
    jobs: int = 1,
    evaluate: CandidateEvaluator | None = None,
    report_sink: ReportSink | None = None,
    progress: Callable[[str], None] | None = None,
) -> TuningResult:
    """Run the two-phase tuning loop over all candidates.

    Each candidate is one _certify task, run inline or on jobs forked workers
    that inherit the problem, so it need not be picklable; evaluate replaces
    evaluate_on_set (tests pass fakes).  The report sink gets the reports
    candidate by candidate.  Results are byte-reproducible for any worker
    count: scenario order, cost summation order, and elimination order are
    fixed by candidate and batch indices, never by completion time.  An
    exception in any candidate, or an interrupt, cancels the queued
    candidates and ends the workers at once.
    """
    if evaluate is None:
        evaluate = functools.partial(evaluate_on_set, problem, bounds=bounds, params=params, timing=timing,
                                     keep_reports=report_sink is not None, stop_on_rt=True)
    task_args = (evaluate, batch_set.batches, params, bounds)
    say = progress if progress is not None else (lambda _msg: None)
    records: list[CandidateRecord] = []
    solve_count = 0
    pool = None
    # before any solve is timed and before the fork, so that the workers inherit it all: one
    # that compiled even the RK4 kernel would page CPython's compiler in, about 0.7 MB of peak RSS
    compiled.warm_up(problem, [problem.n_u * n for n in range(1, bounds.n_contr[1] + 1)])
    try:
        if jobs > 1 and len(shapings) > 1:
            pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_start_worker, initargs=task_args)
            outcomes = _in_order_failing_fast([pool.submit(_certify_in_worker, *task) for task in enumerate(shapings)])
        else:
            outcomes = (_certify(*task_args, *task) for task in enumerate(shapings))
        for record, solves, reports in outcomes:
            records.append(record)
            solve_count += solves
            if report_sink is not None:
                for context, report in reports:
                    report_sink(context, report)
            why = f" at batch {record.eliminated_batch}: {record.eliminated_criterion}" if record.eliminated_batch else ""
            say(f"candidate {record.index}: {record.status}{why}")
    except BaseException:
        if pool is not None:
            workers = list(pool._processes.values())  # as terminate_workers() does from Python 3.14
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in workers:
                worker.terminate()
        raise
    if pool is not None:
        pool.shutdown()

    survivors = sorted(
        (r.index for r in records if r.status == SURVIVING),
        key=lambda j: (records[j].cumulative_cost, j),
    )
    eliminated_at = [r.eliminated_batch for r in records if r.status == ELIMINATED]
    return TuningResult(
        records=records,
        survivors=survivors,
        best_index=survivors[0] if survivors else None,
        elimination_trace=[sum(b <= ell for b in eliminated_at) for ell in range(2, batch_set.nb + 1)],
        ocp_solve_count=solve_count,
        step3_rejections=sum(r.eliminated_criterion in (CONTRACTION, CONSTRAINTS) for r in records
                             if r.status == INFEASIBLE_AT_A0),
        nb=batch_set.nb,
        nsb=batch_set.nsb,
    )


# scenario-count certificate ---------------------------------------------------

# ln(10) truncated to four decimals; the standard sizing tables for this
# bound were computed with this convention, and we reproduce them exactly
_LN10 = 2.3025


def required_scenarios(eta: float, delta: float, n_trials: int, allowed_failures: int = 1) -> int:
    """Number of certification scenarios guaranteeing, with confidence
    1 - delta, that each of n_trials candidates violates its criteria with
    probability below eta, allowing a fixed budget of observed failures.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials!r}")
    if allowed_failures < 0:
        raise ValueError(f"allowed_failures must be >= 0, got {allowed_failures!r}")
    log_term = _LN10 * math.log10(n_trials / delta)
    base = log_term + allowed_failures + 2.0 * math.sqrt(allowed_failures * log_term)
    return math.ceil(base / eta)
