"""Record perfbench/reference.json from the code in the checkout.

    python3 perfbench/record_reference.py

For every workload: one untraced run gives the reference verdicts, exit code
and OCP solve count; two traced runs must give identical counters, which are
kept with the workload's measured properties.  Run it only at a commit whose
verdicts are known to be right; the benchmark checks later commits against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _alive_per_batch(records: list[dict], nb: int) -> list[int]:
    """Candidates still in the race at each phase-2 batch 2..nb."""
    return [
        sum(r["alpha_hat"] is not None and (r["eliminated_batch"] is None or r["eliminated_batch"] >= b) for r in records)
        for b in range(2, nb + 1)
    ]


def record(name: str) -> dict:
    work = run.WORK / f"reference-{name}"
    plain = run.measure_once(name, work / "plain", False, 600.0)
    traced = [run.measure_once(name, work / f"traced{i}", True, 600.0) for i in range(2)]
    for r in (plain, *traced):
        if r.get("exit_code") is None:
            sys.exit(f"{name}: run failed: {r.get('error')}")
    counts = [{k: t["layers"][k] for k in tracer.COUNT_METRICS} for t in traced]
    if counts[0] != counts[1]:
        sys.exit(f"{name}: two traced runs disagree on counters: {counts}")
    if any(t["records"] != plain["records"] for t in traced):
        sys.exit(f"{name}: traced runs changed the verdicts")

    layers, config = traced[0]["layers"], workloads.WORKLOADS[name]
    solves, sims = layers["controller.solves"], layers["controller.sims"]
    return {
        "exit_code": plain["exit_code"],
        "candidates": plain["records"],
        "ocp_solve_count": plain["ocp_solve_count"],
        "counts": counts[0],
        "properties": {
            "batch_width": config["nsb"],
            "pool_workers": plain["forks"],
            "reports_dumped": bool(config.get("dump_reports")),
            "phase1_solve_share": layers["tuning.phase1_solves"] / solves,
            "phase2_solve_share": layers["tuning.phase2_solves"] / solves,
            "phase1_time_share": layers["tuning.phase1_s"] / (layers["tuning.phase1_s"] + layers["tuning.phase2_s"]),
            "rt_overrun_sim_share": layers["controller.sims_rt_overrun"] / sims,
            "solves_after_overrun_share": layers["controller.solves_after_overrun"] / solves,
            "alive_per_phase2_batch": _alive_per_batch(plain["records"], config["nb"]),
        },
    }


def main() -> None:
    reference = {name: record(name) for name in run.WORKLOADS}
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
