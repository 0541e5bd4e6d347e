"""One measured tuning run of a workload, in a fresh process.

    python3 perfbench/measure.py WORKLOAD OUT_DIR TRACE

Runs runner.run(RunConfig) on the workload's config and prints one JSON
object: exit code, wall times (set-up is the part of run() before its call
into runner.tune), peak memory, the per-candidate verdicts read back from
trace.json and, with TRACE=1, the per-layer metrics and kernel probes.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from mpc_autotune import runner  # noqa: E402
from mpc_autotune.runner import RunConfig  # noqa: E402

import probes  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

perf = time.perf_counter


def _verdicts(out_dir: Path) -> tuple[list[dict], int]:
    trace = json.loads((out_dir / "trace.json").read_text())
    keys = ("index", "status", "alpha_hat", "design", "cumulative_cost", "eliminated_batch", "eliminated_criterion")
    return [{k: rec[k] for k in keys} for rec in trace["records"]], trace["ocp_solve_count"]


def main(argv: list[str]) -> int:
    name, out_dir, trace = argv[0], Path(argv[1]), argv[2] == "1"
    workloads.register_workload_problems()
    config = RunConfig.from_mapping({**workloads.WORKLOADS[name], "out_dir": str(out_dir / "run")})
    result: dict = {"numpy": np.__version__}
    forks: list[int] = []  # pool workers this process starts
    os.register_at_fork(before=lambda: forks.append(1))

    spans = {}
    real_tune = runner.tune

    def timed_tune(*args, **kwargs):
        spans["tune_start"] = perf()
        try:
            return real_tune(*args, **kwargs)
        finally:
            spans["tune_end"] = perf()

    runner.tune = timed_tune
    if trace:
        tracer.install(config.problem, out_dir / "spill", config.dev_acc)

    t0 = perf()
    try:
        result["exit_code"] = runner.run(config)
    except Exception:  # reported as a failed run, never raised to the caller
        result["exit_code"] = None
        result["error"] = traceback.format_exc()
    t_end = perf()

    result["run_s"] = t_end - t0
    if "tune_end" in spans:
        result["setup_s"] = spans["tune_start"] - t0
        result["tune_s"] = spans["tune_end"] - spans["tune_start"]
        result["finish_s"] = t_end - spans["tune_end"]
    # each worker is counted at the largest worker's peak
    result["forks"] = len(forks)
    own = resource.getrusage(resource.RUSAGE_SELF)
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["peak_rss_mb"] = (own.ru_maxrss + len(forks) * child.ru_maxrss) / 1024.0
    result["cpu_s"] = own.ru_utime + own.ru_stime + child.ru_utime + child.ru_stime
    if result["exit_code"] is not None:
        result["records"], result["ocp_solve_count"] = _verdicts(Path(config.out_dir))
        reports = Path(config.out_dir) / "reports.jsonl"
        result["reports_bytes"] = reports.stat().st_size if reports.exists() else 0

    if trace and result["exit_code"] is not None:
        merged, n_workers = tracer.collect()
        layers = tracer.layer_metrics(merged, n_workers, result["tune_s"], tracer.wrapper_self_s())
        layers["runner.finish_s"] = result["finish_s"]
        layers["runner.reports_bytes"] = result["reports_bytes"]
        layers["runner.traced_run_s"] = result["run_s"]
        layers["tuning.ocp_solve_count"] = result["ocp_solve_count"]
        layers.update(probes.run_probes())
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
