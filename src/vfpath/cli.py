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

from .config import ConfigError, build_scenario, dump_settings, load_settings
from .guidance import validate_curvature_constraint
from .paths import UnboundedCurvatureError, max_path_course_rate
from .simulation import (
    GUIDANCE_LAWS,
    MonteCarloSummary,
    Trajectory,
    TrialMetrics,
    comparison_scenario,
    monte_carlo,
    run_trial,
)

TRAJECTORY_HEADER = "t,x,y,chi,chi_c,chi_d,chi_dot,d,phase"
METRIC_COLUMNS = ("t_conv", "d_rms", "chi_dot_rms", "chi_dot_max", "chattering_index")


def _fmt(value: float) -> str:
    return f"{value:.9g}"


# One trajectory row: the float channels as _fmt writes them, then the phase.
TRAJECTORY_ROW = ",".join(["%.9g"] * 8 + ["%d"])


def write_trajectory_csv(traj: Trajectory, out_file: Path) -> None:
    columns = (traj.t, traj.x, traj.y, traj.chi, traj.chi_c, traj.chi_d, traj.chi_dot, traj.d)
    rows = zip(*(c.tolist() for c in columns), traj.phase.tolist())
    lines = [TRAJECTORY_HEADER, *(TRAJECTORY_ROW % row for row in rows)]
    out_file.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _metrics_row(law: str, metrics: TrialMetrics) -> str:
    fields = [law, "true" if metrics.converged else "false"]
    fields += [_fmt(getattr(metrics, name)) for name in METRIC_COLUMNS]
    fields.append(metrics.failure_reason or "")
    return ",".join(fields)


METRICS_HEADER = "law,converged," + ",".join(METRIC_COLUMNS) + ",failure_reason"


def write_metrics_csv(rows: list[tuple[str, TrialMetrics]], out_file: Path) -> None:
    lines = [METRICS_HEADER]
    lines += [_metrics_row(law, metrics) for law, metrics in rows]
    out_file.write_text("\n".join(lines) + "\n", encoding="utf-8")


SUMMARY_HEADER = "law,metric,count,min,q1,median,q3,max,mean"


def write_summary_csv(summary: MonteCarloSummary, out_file: Path) -> None:
    lines = [SUMMARY_HEADER]
    for law in summary.laws:
        for metric in METRIC_COLUMNS:
            s = summary.stats[(law, metric)]
            values = (s.minimum, s.q1, s.median, s.q3, s.maximum, s.mean)
            lines.append(",".join((law, metric, str(s.count), *map(_fmt, values))))
        lines.append(
            f"{law},converged_fraction,{summary.n_trials},,,,,,"
            + _fmt(summary.n_converged[law] / summary.n_trials)
        )
    out_file.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_per_trial_csv(summary: MonteCarloSummary, out_file: Path) -> None:
    lines = ["law,trial," + METRICS_HEADER.split(",", 1)[1]]
    for law in summary.laws:
        for i, metrics in enumerate(summary.trials[law]):
            row = _metrics_row(law, metrics).split(",", 1)[1]
            lines.append(f"{law},{i},{row}")
    out_file.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_laws(raw: Optional[str], default: tuple[str, ...]) -> list[str]:
    if raw is None:
        return list(default)
    laws = [token.strip() for token in raw.split(",") if token.strip()]
    if not laws:
        raise ConfigError("at least one guidance law must be selected")
    for i, law in enumerate(laws):
        if law not in GUIDANCE_LAWS:
            raise ConfigError(
                f"unknown guidance law {law!r} (choose from {', '.join(GUIDANCE_LAWS)})"
            )
        if law in laws[:i]:
            raise ConfigError(f"guidance law {law!r} is selected twice")
    return laws


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
        print("run expects exactly one --law", file=sys.stderr)
        return 2
    law = laws[0]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = build_scenario(settings, law)
    traj, metrics = run_trial(config, seed=args.seed)
    write_trajectory_csv(traj, out_dir / f"trajectory_{law}.csv")
    write_metrics_csv([(law, metrics)], out_dir / f"metrics_{law}.csv")
    _print_metrics(law, metrics)
    if metrics.failure_reason or not metrics.converged:
        return 1
    return 0


def cmd_compare(args, settings) -> int:
    laws = _parse_laws(args.law, GUIDANCE_LAWS)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[tuple[str, TrialMetrics]] = []
    any_failed = False
    for law in laws:
        config = comparison_scenario(build_scenario(settings, law))
        traj, metrics = run_trial(config, seed=args.seed)
        write_trajectory_csv(traj, out_dir / f"trajectory_{law}.csv")
        rows.append((law, metrics))
        _print_metrics(law, metrics)
        if metrics.failure_reason or not metrics.converged:
            any_failed = True
    write_metrics_csv(rows, out_dir / "comparison.csv")
    return 1 if any_failed else 0


def cmd_montecarlo(args, settings) -> int:
    laws = _parse_laws(args.law, GUIDANCE_LAWS)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Every campaign trial draws its own wind: check the base scenario for that.
    settings["sim"]["wind_sampled"] = True
    base = build_scenario(settings, laws[0])
    summary = monte_carlo(
        base,
        n_trials=args.trials,
        master_seed=args.seed,
        laws=laws,
        parallel=not args.serial,
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
    # Peak rates at the worst-case ground speed; the constraint's left side
    # does not depend on it.
    v_g = config.airspeed.v_a + config.max_wind_speed
    try:
        chi_p_dot_max = max_path_course_rate(config.path, v_g)
    except UnboundedCurvatureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = validate_curvature_constraint(
        config.guidance, v_g, chi_p_dot_max, config.kappa_max
    )
    lines = [
        f"near-branch peak rate : {_fmt(report.k1_peak_rate)} rad/s at |d| = {_fmt(report.k1_peak_distance)} m",
        f"far-branch peak rate  : {_fmt(report.k3_peak_rate)} rad/s at |d| = {_fmt(report.k3_peak_distance)} m",
        f"near-branch curvature : {_fmt(report.k1_curvature)} 1/m",
        f"far-branch curvature  : {_fmt(report.k3_curvature)} 1/m",
        f"path course rate max  : {_fmt(chi_p_dot_max)} rad/s",
        f"constraint LHS        : {_fmt(report.lhs)} 1/m",
        f"kappa_max             : {_fmt(report.kappa_max)} 1/m",
        f"result                : {'PASS' if report.passed else 'FAIL'}",
    ]
    if not report.exact:
        chi_inf = _fmt(config.guidance.chi_inf)
        lines.append(f"note: chi_inf = {chi_inf} < pi/2, so the rates and curvatures are upper bounds")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "feasibility.txt").write_text(text, encoding="utf-8")
    values = (
        report.k1_peak_rate, report.k3_peak_rate, report.k1_curvature,
        report.k3_curvature, chi_p_dot_max, report.lhs, report.kappa_max,
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

    def common(p: argparse.ArgumentParser, trials: bool = False) -> None:
        p.add_argument("--config", default=None, help="scenario config file (INI)")
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
    common(p_val)
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
        if getattr(args, "trials", None) is not None and args.trials < 1:
            raise ConfigError("--trials must be at least 1")
        return args.func(args, settings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
