"""Command-line front end: single runs, law comparisons, Monte Carlo campaigns,
and field-parameter feasibility checks.

Exit codes: 0 success, 1 domain failure (infeasible geometry, non-converged
trial, failed feasibility check), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, build_scenario, dump_settings, load_settings
from .guidance import validate_curvature_constraint
from .paths import UnboundedCurvatureError
from .simulation import (
    BLOCK_STEPS,
    GUIDANCE_LAWS,
    MAX_TRIALS,
    METRICS,
    MonteCarloSummary,
    Trajectory,
    TrialMetrics,
    check_laws,
    comparison_scenario,
    monte_carlo,
    run_trial,
)

# Every float the CSVs and the console write takes FLOAT_FORMAT.  A trajectory
# row is t, then the Trajectory channels named here, the phase last as %d.
FLOAT_FORMAT = "%.9g"
TRAJECTORY_CHANNELS = ("x", "y", "chi", "chi_c", "chi_d", "chi_dot", "d", "phase")
TRAJECTORY_HEADER = ",".join(("t",) + TRAJECTORY_CHANNELS)
TRAJECTORY_ROW = ",".join([FLOAT_FORMAT] * len(TRAJECTORY_CHANNELS) + ["%d"])


def _fmt(value: float) -> str:
    return FLOAT_FORMAT % value


def write_trajectory_csv(traj: Trajectory, out_file: Path) -> None:
    # Each BLOCK_STEPS rows are one (rows, 9) float table, formatted whole
    # by one % and written; %d writes the phase's float as the integer it
    # holds.  The block's t is built from dt, as Trajectory.t is.
    columns = [getattr(traj, name) for name in TRAJECTORY_CHANNELS]
    n = len(traj)
    with open(out_file, "w", encoding="utf-8") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for start in range(0, n, BLOCK_STEPS):
            stop = min(start + BLOCK_STEPS, n)
            t = np.arange(start, stop) * traj.dt
            table = np.column_stack([t] + [column[start:stop] for column in columns])
            fh.write((TRAJECTORY_ROW + "\n") * len(table) % tuple(table.ravel().tolist()))


# Header of the fields _trial_fields writes for one trial in both trial CSVs.
TRIAL_COLUMNS = "converged," + ",".join(METRICS) + ",failure_reason"


def _trial_fields(metrics: TrialMetrics) -> str:
    fields = ["true" if metrics.converged else "false"]
    fields += [_fmt(getattr(metrics, name)) for name in METRICS]
    fields.append(metrics.failure_reason or "")
    return ",".join(fields)


def write_metrics_csv(rows: list[tuple[str, TrialMetrics]], out_file: Path) -> None:
    lines = ["law," + TRIAL_COLUMNS]
    lines += [f"{law},{_trial_fields(metrics)}" for law, metrics in rows]
    out_file.write_text("\n".join(lines) + "\n", encoding="utf-8")


SUMMARY_HEADER = "law,metric,count,min,q1,median,q3,max,mean"


def write_summary_csv(summary: MonteCarloSummary, out_file: Path) -> None:
    lines = [SUMMARY_HEADER]
    for law in summary.laws:
        for metric in METRICS:
            s = summary.stats[(law, metric)]
            values = (s.minimum, s.q1, s.median, s.q3, s.maximum, s.mean)
            lines.append(",".join((law, metric, str(s.count), *map(_fmt, values))))
        lines.append(
            f"{law},converged_fraction,{summary.n_trials},,,,,,"
            + _fmt(summary.n_converged[law] / summary.n_trials)
        )
    out_file.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_per_trial_csv(summary: MonteCarloSummary, out_file: Path) -> None:
    lines = ["law,trial," + TRIAL_COLUMNS]
    for law in summary.laws:
        for i, metrics in enumerate(summary.trials[law]):
            lines.append(f"{law},{i},{_trial_fields(metrics)}")
    out_file.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_laws(raw: Optional[str], default: tuple[str, ...]) -> list[str]:
    if raw is None:
        return list(default)
    laws = [token.strip() for token in raw.split(",") if token.strip()]
    try:
        check_laws(laws)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return laws


def _out_dir(args) -> Path:
    """The output directory, made if missing; ConfigError when it cannot be."""
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output to {args.out}: {exc.strerror or exc}") from None
    return out_dir


def _print_metrics(law: str, metrics: TrialMetrics) -> None:
    status = "converged" if metrics.converged else "not converged"
    if metrics.failure_reason:
        status += f" ({metrics.failure_reason})"
    print(
        f"{law}: {status}  t_conv={_fmt(metrics.t_conv)} s  "
        f"d_rms={_fmt(metrics.d_rms)} m  chi_dot_rms={_fmt(metrics.chi_dot_rms)} rad/s  "
        f"max|chi_dot|={_fmt(metrics.chi_dot_max)} rad/s  "
        f"chattering={_fmt(metrics.chattering_index)} /s"
    )


def cmd_run(args, settings) -> int:
    laws = _parse_laws(args.law, ("switched",))
    if len(laws) != 1:
        raise ConfigError("run expects exactly one --law")
    law = laws[0]
    out_dir = _out_dir(args)
    config = build_scenario(settings, law)
    traj, metrics = run_trial(config, seed=args.seed)
    write_trajectory_csv(traj, out_dir / f"trajectory_{law}.csv")
    write_metrics_csv([(law, metrics)], out_dir / f"metrics_{law}.csv")
    _print_metrics(law, metrics)
    return 0 if metrics.converged else 1


def cmd_compare(args, settings) -> int:
    laws = _parse_laws(args.law, GUIDANCE_LAWS)
    out_dir = _out_dir(args)
    rows: list[tuple[str, TrialMetrics]] = []
    for law in laws:
        config = comparison_scenario(build_scenario(settings, law))
        traj, metrics = run_trial(config, seed=args.seed)
        write_trajectory_csv(traj, out_dir / f"trajectory_{law}.csv")
        rows.append((law, metrics))
        _print_metrics(law, metrics)
    write_metrics_csv(rows, out_dir / "comparison.csv")
    # A failed trial is never converged.
    return 0 if all(metrics.converged for _, metrics in rows) else 1


def cmd_montecarlo(args, settings) -> int:
    laws = _parse_laws(args.law, GUIDANCE_LAWS)
    out_dir = _out_dir(args)
    # Every campaign trial draws its own wind: check the base scenario for that.
    settings["sim"]["wind_sampled"] = True
    base = build_scenario(settings, laws[0])
    summary = monte_carlo(
        base,
        n_trials=args.trials,
        master_seed=args.seed,
        laws=laws,
        workers=1 if args.serial else None,
    )
    write_summary_csv(summary, out_dir / "montecarlo_summary.csv")
    if args.per_trial:
        write_per_trial_csv(summary, out_dir / "montecarlo_trials.csv")
    for law in laws:
        t_conv = summary.stats[(law, "t_conv")]
        chi_max = summary.stats[(law, "chi_dot_max")]
        print(
            f"{law}: converged {summary.n_converged[law]}/{summary.n_trials}  "
            f"median t_conv={_fmt(t_conv.median)} s  "
            f"median max|chi_dot|={_fmt(chi_max.median)} rad/s"
        )
    return 0


def cmd_validate(args, settings) -> int:
    config = build_scenario(settings, "switched")
    try:
        path_curvature = config.path.peak_curvature()
    except UnboundedCurvatureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = _out_dir(args)
    report = validate_curvature_constraint(config.guidance, path_curvature, config.kappa_max)
    # Rates at the worst-case ground speed, for the report only; the check
    # itself is in curvature and does not depend on it.
    v_g = config.airspeed.v_a + config.max_wind_speed
    k1_rate, k3_rate = report.k1_curvature * v_g, report.k3_curvature * v_g
    path_rate = path_curvature * v_g
    lines = [
        f"near-branch peak rate : {_fmt(k1_rate)} rad/s at |d| = {_fmt(report.k1_peak_distance)} m",
        f"far-branch peak rate  : {_fmt(k3_rate)} rad/s at |d| = {_fmt(report.k3_peak_distance)} m",
        f"near-branch curvature : {_fmt(report.k1_curvature)} 1/m",
        f"far-branch curvature  : {_fmt(report.k3_curvature)} 1/m",
        f"path course rate max  : {_fmt(path_rate)} rad/s",
        f"constraint LHS        : {_fmt(report.lhs)} 1/m",
        f"kappa_max             : {_fmt(report.kappa_max)} 1/m",
        f"result                : {'PASS' if report.passed else 'FAIL'}",
    ]
    if not report.path_fits:
        lines.append(f"fail: path curvature {_fmt(path_curvature)} 1/m > kappa_max {_fmt(report.kappa_max)} 1/m")
    if not report.exact:
        chi_inf = _fmt(config.guidance.chi_inf)
        lines.append(f"note: chi_inf = {chi_inf} < pi/2, so the rates and curvatures are upper bounds")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    (out_dir / "feasibility.txt").write_text(text, encoding="utf-8")
    values = (
        k1_rate, k3_rate, report.k1_curvature, report.k3_curvature, path_rate,
        report.lhs, report.kappa_max,
    )
    csv_lines = [
        "k1_peak_rate,k3_peak_rate,k1_curvature,k3_curvature,chi_p_dot_max,lhs,kappa_max,passed",
        ",".join((*map(_fmt, values), "true" if report.passed else "false")),
    ]
    (out_dir / "feasibility.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfpath",
        description="Vector-field path-following guidance simulator and benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, trials: bool = False, law: bool = True) -> None:
        p.add_argument("--config", default=None, help="scenario config file (INI)")
        if law:
            p.add_argument("--law", default=None, help="guidance law name(s), comma separated")
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--dt", type=float, default=None, help="override time step (s)")
        p.add_argument(
            "--dump-effective-config",
            action="store_true",
            help="print the effective configuration and exit",
        )
        if trials:
            p.add_argument(
                "--trials", type=int, default=200, help="number of random trials"
            )
            p.add_argument(
                "--per-trial",
                action="store_true",
                help="also write per-trial metrics",
            )
            p.add_argument(
                "--serial", action="store_true", help="disable trial parallelism"
            )

    p_run = sub.add_parser("run", help="run one trial of one guidance law")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run all selected laws on one scenario")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_mc = sub.add_parser("montecarlo", help="randomized benchmark campaign")
    common(p_mc, trials=True)
    p_mc.set_defaults(func=cmd_montecarlo)

    p_val = sub.add_parser("validate", help="field-parameter curvature feasibility check")
    common(p_val, law=False)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = load_settings(args.config)
        if args.dt is not None:
            settings["sim"]["dt"] = args.dt
        if args.dump_effective_config:
            build_scenario(settings)  # print only a scenario that can run
            print(dump_settings(settings), end="")
            return 0
        if getattr(args, "trials", None) is not None and not 1 <= args.trials <= MAX_TRIALS:
            raise ConfigError(f"--trials must be between 1 and {MAX_TRIALS}")
        if args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        return args.func(args, settings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
