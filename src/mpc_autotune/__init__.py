"""Offline auto-tuning of real-time-implementable NMPC design parameters.

The package selects the updating period, prediction down-sampling, horizon
lengths, penalty weights, and iteration cap of a gradient-based NMPC
controller by sampling random shaping vectors, searching a scalar compute
dial by dichotomy, and certifying candidates batch-wise on a cloud of
randomly drawn scenarios.
"""

from .controller import (
    WORK_PER_RK_STEP,
    ClosedLoopReport,
    MpcSetting,
    OpenLoopResult,
    TimingSpec,
    budget_excess,
    calibrate_c_eval,
    open_loop_cost,
    open_loop_gradient,
    shift_warm_start,
    simulate_closed_loop,
    solve,
    update_count,
)
from .design import (
    DesignBounds,
    DesignVector,
    ShapingVector,
    realize,
    sample_shaping,
    shape_value,
)
from .integration import (
    PropagationError,
    hold_input,
    n_steps_for,
    rk4_step,
)
from .problems import (
    ProblemDefinition,
    Scenario,
    ScenarioBatchSet,
    generate_cloud,
    get_problem,
    make_batches,
    register_problem,
)
from .pvtol import pvtol_problem
from .runner import ConfigError, ResultFileError, RunConfig, run, summarize
from .tuning import (
    AlphaSearch,
    CandidateRecord,
    CertificationParams,
    SetEvaluation,
    TuningResult,
    constraint_excess,
    contraction_excess,
    evaluate_on_set,
    find_alpha_max,
    required_scenarios,
    rt_excess,
    tune,
)

__version__ = "0.1.0"
