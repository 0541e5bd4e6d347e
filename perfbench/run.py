"""Tuning-run benchmark of mpc-autotune.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured run is one call of
runner.run(RunConfig), the call `mpc-autotune tune` makes, in a fresh
process (perfbench/measure.py).  With --trace 0 the benchmark makes one
run, then more while they fit in --seconds, and reports the medians of the
end-to-end metrics; with --trace 1 it makes one traced run and reports the
per-layer metrics and kernel probes.  Every run's verdicts are checked against
perfbench/reference.json.

The workload's tuning inputs are fixed by its config (see workloads.py):
verdicts are checked against a recorded reference, and cost-model timing
makes the work of a run identical on every run.  --seed therefore only names
the run's output directory; it is recorded in the environment line.

The last line of standard output is the result object; the line before it
stamps the environment (nproc, Python and numpy versions, load average
before and after, commit or source digest).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

WORKLOADS = ("desk", "wide", "gentle")
DEADLINE_S = 170.0  # the whole invocation, child runs included
COST_RTOL = 1e-9  # relative tolerance on cumulative closed-loop costs
PR_SET_CHILD_SUBREAPER = 36  # linux/prctl.h


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    """HEAD of the checkout, when the checkout is the top of a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _become_subreaper() -> None:
    """Adopt the pool workers of a killed run, so that they can be waited for."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _reap_orphans() -> None:
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def measure_once(workload: str, out_dir: Path, trace: bool, timeout: float) -> dict:
    """One run in a child process, killed with its pool workers (they share
    its process group) when it outlives the timeout."""
    cmd = [sys.executable, str(HERE / "measure.py"), workload, str(out_dir), "1" if trace else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    stdout = None
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        pass
    finally:
        # a timed-out run, or any worker a crashed run left behind
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        _reap_orphans()
    if stdout is None:
        return {"exit_code": None, "error": f"run exceeded {timeout:.0f} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": None, "error": f"measure.py exited with {proc.returncode}"}
    return json.loads(lines[-1])


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=COST_RTOL)


def _candidate_ok(got: dict, want: dict) -> bool:
    exact = ("index", "status", "alpha_hat", "design", "eliminated_batch", "eliminated_criterion")
    return all(got[k] == want[k] for k in exact) and _close(got["cumulative_cost"], want["cumulative_cost"])


def check_run(result: dict, reference: dict) -> int:
    """Candidates of one run that fail the reference: all of them when the run
    raised or returned another exit code, else those whose verdict differs."""
    want = reference["candidates"]
    if result.get("exit_code") != reference["exit_code"] or len(result.get("records", [])) != len(want):
        return len(want)
    return sum(not _candidate_ok(g, w) for g, w in zip(result["records"], want))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mpc_autotune" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'mpc_autotune'} is missing", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    _become_subreaper()

    start = time.monotonic()
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_before": os.getloadavg(),
        "commit": _commit(),
        "source_digest": _source_digest(),
    }

    runs: list[dict] = []
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    while True:
        remaining = DEADLINE_S - (time.monotonic() - start)
        runs.append(measure_once(args.workload, run_dir / str(len(runs)), bool(args.trace), remaining))
        elapsed = time.monotonic() - start
        if args.trace or runs[-1].get("exit_code") is None:
            break
        if elapsed + elapsed / len(runs) > min(args.seconds, DEADLINE_S):
            break

    shutil.rmtree(run_dir, ignore_errors=True)
    env["load_after"] = os.getloadavg()
    env["numpy"] = runs[0].get("numpy")
    failed = sum(check_run(r, reference) for r in runs)
    attempted = len(reference["candidates"]) * len(runs)
    for r in runs:
        if "error" in r:
            print(r["error"], file=sys.stderr)

    ok = [r for r in runs if r.get("exit_code") is not None and "setup_s" in r]  # runs that reached tune
    metrics: dict[str, dict] = {}
    if ok and args.trace:
        layers = dict(ok[0]["layers"])
        counts = reference["counts"]
        layers["trace.counts_changed"] = sum(layers[k] != v for k, v in counts.items())
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    elif ok:
        metrics = {
            "run_s": {"value": statistics.median(r["run_s"] for r in ok), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in ok), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in ok), "unit": "MB"},
        }
    env["runs"] = len(runs)
    env["run_s"] = [r.get("run_s") for r in runs]
    env["setup_s"] = [r.get("setup_s") for r in runs]
    env["cpu_s"] = [r.get("cpu_s") for r in runs]
    env["ocp_solve_count"] = [r.get("ocp_solve_count") for r in runs]
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0 and bool(ok), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
