"""Command-line entry points: `mpc-autotune tune` and `mpc-autotune summarize`."""

from __future__ import annotations

import argparse
import sys

from .runner import ConfigError, ResultFileError, RunConfig, run, summarize


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpc-autotune",
        description="Offline auto-tuning of real-time NMPC design parameters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune_p = sub.add_parser("tune", help="run the two-phase tuning loop")
    tune_p.add_argument("--config", help="JSON config file (flat keys matching RunConfig fields)")
    tune_p.add_argument("--problem", help="registered problem name (default pvtol)")
    tune_p.add_argument("--n-trials", type=int, dest="n_trials", help="number of shaping-vector candidates")
    tune_p.add_argument("--nb", type=int, help="number of scenario batches")
    tune_p.add_argument("--nsb", type=int, help="scenarios per batch")
    tune_p.add_argument("--dev-acc", type=float, dest="dev_acc", help="target/dev machine speed ratio")
    tune_p.add_argument("--gamma", type=float, help="contraction factor of the certification test")
    tune_p.add_argument("--eps", type=float, help="dial-search precision")
    tune_p.add_argument("--c-max", type=float, dest="c_max", help="admissible soft-constraint violation")
    tune_p.add_argument("--seed", type=int, help="master seed")
    tune_p.add_argument("--jobs", type=int, help="worker processes")
    tune_p.add_argument("--timing-mode", dest="timing_mode", choices=("wallclock", "cost-model"))
    tune_p.add_argument("--timing-repeats", type=int, dest="timing_repeats",
                        help="median-of-n wallclock timing repeats")
    tune_p.add_argument("--dump-reports", action="store_true", default=None, dest="dump_reports",
                        help="write every closed-loop report to reports.jsonl")
    tune_p.add_argument("--out", dest="out_dir", help="output directory")

    sum_p = sub.add_parser("summarize", help="validate and summarize a finished run directory")
    sum_p.add_argument("--in", dest="in_dir", required=True, help="run directory to summarize")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "tune":
            config = RunConfig.from_file(args.config) if args.config else RunConfig()
            # a flag left out parses to None and keeps the config file's value
            overrides = {
                k: v for k, v in vars(args).items() if k not in ("command", "config") and v is not None
            }
            if overrides:
                config = config.replaced(**overrides)
            return run(config)
        return summarize(args.in_dir)
    except (ConfigError, ResultFileError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
