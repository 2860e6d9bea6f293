import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vfpath.cli import (
    TRAJECTORY_HEADER,
    TRAJECTORY_ROW,
    _fmt,
    build_parser,
    main,
    write_trajectory_csv,
)
from vfpath.config import (
    SCHEMA,
    ConfigError,
    build_scenario,
    default_settings,
    dump_settings,
    load_settings,
)
from vfpath.guidance import validate_curvature_constraint
from vfpath.paths import CirclePath, LinePath, SinusoidPath
from vfpath import simulation
from vfpath.simulation import BLOCK_STEPS, GUIDANCE_LAWS, Trajectory, benchmark_scenario

# Text that survives an INI line unchanged: no line breaks, no whitespace at
# the ends (the parser strips it).
_INI_TEXT = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
).map(str.strip)
_VALUES = {
    float: st.floats(),
    int: st.integers(),
    str: _INI_TEXT,
    bool: st.booleans(),
    Optional[float]: st.none() | st.floats(),
}
_SETTINGS = st.fixed_dictionaries(
    {
        section: st.fixed_dictionaries({key: _VALUES[kind] for key, (kind, _) in keys.items()})
        for section, keys in SCHEMA.items()
    }
)


def _path_params(path):
    return type(path), {k: v for k, v in vars(path).items() if not k.startswith("_")}


class TestConfig:
    def test_defaults_build(self):
        cfg = build_scenario(load_settings(None), "switched")
        assert cfg.dt == 0.01
        assert cfg.guidance.k1 == 0.01
        assert cfg.guidance.d_s == 10.0
        assert cfg.airspeed.v_a == 15.0
        assert isinstance(cfg.path, SinusoidPath)

    def test_unknown_key_named(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("[guidance]\nk9 = 1\n")
        with pytest.raises(ConfigError, match="k9"):
            load_settings(str(f))

    def test_unknown_section_named(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("[rocket]\nthrust = 1\n")
        with pytest.raises(ConfigError, match="rocket"):
            load_settings(str(f))

    def test_bad_value_named(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("[sim]\ndt = soon\n")
        with pytest.raises(ConfigError, match="dt"):
            load_settings(str(f))

    def test_missing_file_named(self):
        with pytest.raises(ConfigError, match="no/such/file.cfg"):
            load_settings("no/such/file.cfg")

    def test_round_trip(self, tmp_path):
        settings = default_settings()
        settings["sim"]["dt"] = 0.02
        settings["path"]["kind"] = "circle"
        text = dump_settings(settings)
        f = tmp_path / "dump.cfg"
        f.write_text(text)
        reparsed = load_settings(str(f))
        assert reparsed == settings
        assert dump_settings(reparsed) == text

    def test_path_kinds(self, tmp_path):
        settings = default_settings()
        settings["path"]["kind"] = "line"
        assert isinstance(build_scenario(settings, "switched").path, LinePath)
        settings["path"]["kind"] = "circle"
        assert isinstance(build_scenario(settings, "switched").path, CirclePath)
        settings["path"]["kind"] = "polyline"
        settings["path"]["file"] = ""
        with pytest.raises(ConfigError):
            build_scenario(settings, "switched")
        poly = tmp_path / "p.csv"
        poly.write_text("0,0\n100,0\n200,50\n")
        settings["path"]["file"] = str(poly)
        assert build_scenario(settings, "switched").path.s_max > 200.0

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("circle", "s_max", 10.0),
            ("circle", "amplitude", -5.0),
            ("sinusoid", "radius", 50.0),
            ("line", "file", "p.csv"),
            ("polyline", "heading", 1.0),
        ],
    )
    def test_key_of_another_path_kind_named(self, kind, key, value):
        settings = default_settings()
        settings["path"].update(kind=kind, file="p.csv" if kind == "polyline" else "")
        settings["path"][key] = value
        with pytest.raises(ConfigError, match=f"{key}.*{kind}"):
            build_scenario(settings, "switched")

    def test_kappa_max_zero_means_unbounded(self):
        settings = default_settings()
        settings["sim"]["kappa_max"] = 0.0
        cfg = build_scenario(settings, "switched")
        assert cfg.kappa_max == math.inf

    @given(settings=_SETTINGS)
    def test_every_key_round_trips(self, settings, tmp_path_factory):
        text = dump_settings(settings)
        f = tmp_path_factory.getbasetemp() / "round_trip.cfg"
        f.write_text(text, encoding="utf-8")
        assert dump_settings(load_settings(str(f))) == text

    def test_readme_config_block_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        sections = dict(re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block, re.M | re.S))
        assert list(sections) == list(SCHEMA)
        for section, keys in SCHEMA.items():
            for key in keys:
                assert re.search(rf"\b{key}\b", sections[section]), f"[{section}] {key}"

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    def test_defaults_are_the_benchmark_scenario(self, law):
        built = build_scenario(default_settings(), law)
        expected = benchmark_scenario(law)
        assert _path_params(built.path) == _path_params(expected.path)
        for f in dataclasses.fields(expected):
            if f.name != "path":
                assert getattr(built, f.name) == getattr(expected, f.name), f.name

    def test_invalid_guidance_rejected(self):
        settings = default_settings()
        settings["guidance"]["n"] = 4
        with pytest.raises(ConfigError):
            build_scenario(settings, "switched")


class TestCli:
    def test_missing_config_exits_2(self, capsys, tmp_path):
        rc = main(["run", "--config", "nope.cfg", "--out", str(tmp_path)])
        assert rc == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_unknown_law_exits_2(self, capsys, tmp_path):
        rc = main(["run", "--law", "wizardry", "--out", str(tmp_path)])
        assert rc == 2
        assert "wizardry" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "montecarlo"])
    def test_unknown_law_exits_2_before_any_output(self, command, tmp_path, capsys):
        rc = main([command, "--law", "switched,wizardry", "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "unknown guidance law 'wizardry'" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_run_writes_outputs_and_reruns_identically(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["run", "--law", "switched", "--seed", "7", "--out", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        traj = (out / "trajectory_switched.csv").read_bytes()
        mets = (out / "metrics_switched.csv").read_bytes()
        header = traj.decode().splitlines()[0]
        assert header == "t,x,y,chi,chi_c,chi_d,chi_dot,d,phase"
        assert main(args) == 0
        assert (out / "trajectory_switched.csv").read_bytes() == traj
        assert (out / "metrics_switched.csv").read_bytes() == mets

    def test_trajectory_csv_formats_each_value_like_fmt(self, tmp_path):
        # The row template must write what per-value _fmt and str(phase) wrote.
        specials = [math.nan, -0.0, 1e-300, 1e300, -math.inf, 0.1, -123456.789012345]
        n = len(specials)
        # t is k * dt; the specials roll through the seven other float columns.
        channels = {
            name: np.roll(specials, k)
            for k, name in enumerate(("x", "y", "chi", "chi_c", "chi_d", "chi_dot", "d"))
        }
        traj = Trajectory(
            dt=0.1, **channels, phase=np.arange(n, dtype=np.int8) % 4, chi_p=np.zeros(n)
        )
        out = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, out)
        columns = [traj.t.tolist()] + [
            channels[name].tolist() for name in TRAJECTORY_HEADER.split(",")[1:-1]
        ]
        expected = [TRAJECTORY_HEADER] + [
            ",".join([_fmt(v) for v in values] + [str(phase)])
            for *values, phase in zip(*columns, traj.phase.tolist())
        ]
        assert out.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")

    @pytest.mark.parametrize(
        "rows", [0, 1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 3]
    )
    def test_trajectory_csv_blocks_write_the_whole_table_bytes(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        specials = [math.nan, -0.0, 1e-300, -math.inf]
        channels = {}
        for name in ("x", "y", "chi", "chi_c", "chi_d", "chi_dot", "d", "chi_p"):
            values = rng.normal(size=rows) * 10.0 ** rng.integers(-5, 6, size=rows)
            values[: len(specials)] = specials[:rows]
            channels[name] = values
        # t is k * dt, so the specials sit only in the other float columns.
        traj = Trajectory(
            dt=0.01, **channels, phase=rng.integers(0, 4, size=rows).astype(np.int8)
        )
        out = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, out)
        # The whole table formatted by one %, as a single-block writer does.
        columns = (traj.t, traj.x, traj.y, traj.chi, traj.chi_c, traj.chi_d, traj.chi_dot, traj.d)
        table = np.column_stack((*columns, traj.phase))
        body = (TRAJECTORY_ROW + "\n") * len(table) % tuple(table.ravel().tolist())
        assert out.read_bytes() == (TRAJECTORY_HEADER + "\n" + body).encode("utf-8")

    def test_trajectory_csv_memory_is_bounded_by_a_block(self, tmp_path):
        # A writer that formats the whole table at once peaks near 0.5 kB a
        # row (15 MB here); one block at a time stays under 4 MB.
        traj, _ = simulation.run_trial(
            benchmark_scenario(stop_when_converged=False, max_time=300.0)
        )
        assert len(traj) == 30_001
        out = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, out)
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    def test_run_nlgl_far_offset_exits_1(self, tmp_path, capsys):
        # default d0 = 200 m exceeds the 110 m look-ahead
        rc = main(["run", "--law", "nlgl", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "look-ahead infeasible" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "reason",
        [
            "path end",
            "non-finite state",
            "look-ahead infeasible: cross-track error",
            "look-ahead infeasible: no look-ahead intersection",
        ],
    )
    def test_failure_reason_stays_in_its_csv_field(self, reason, tmp_path, capsys, monkeypatch):
        # The reason is written unquoted, so it must hold no comma.
        law = "switched"
        cfg = tmp_path / "short_line.cfg"
        cfg.write_text("[path]\nkind = line\ns_max = 50\n\n[sim]\nmax_time = 60\n")
        if reason == "non-finite state":
            def step_to_nan(state, *args):
                return (math.nan, state[1], state[2])

            monkeypatch.setattr(simulation, "step_vehicle", step_to_nan)
        elif reason.startswith("look-ahead infeasible"):
            law = "nlgl"
            if reason.endswith("cross-track error"):
                # |d| = 150 m > L1 = 110 m at the first step.
                cfg.write_text("[path]\nkind = line\n\n[sim]\nx_init = 0\ny_init = 150\n")
            else:
                # 14 m past the end of a 50 m line: no path point lies L1 away.
                cfg.write_text(
                    "[path]\nkind = line\ns_min = 0\ns_max = 50\n\n"
                    "[sim]\nx_init = 60\ny_init = 10\n"
                )
        out = tmp_path / "o"
        assert main(["run", "--law", law, "--config", str(cfg), "--out", str(out)]) == 1
        assert reason in capsys.readouterr().out
        header, row = (out / f"metrics_{law}.csv").read_text().splitlines()
        assert row.split(",")[-1].startswith(reason)
        assert len(row.split(",")) == len(header.split(","))
        args = ["montecarlo", "--law", law, "--trials", "2", "--config", str(cfg)]
        assert main([*args, "--out", str(out), "--per-trial", "--serial"]) == 0
        capsys.readouterr()
        header, *rows = (out / "montecarlo_trials.csv").read_text().splitlines()
        assert len(rows) == 2
        assert any(row.split(",")[-1].startswith(reason) for row in rows)
        for row in rows:
            assert len(row.split(",")) == len(header.split(","))

    def test_nlgl_starts_at_nlgl_d0_only_in_compare(self, tmp_path, capsys):
        # On a line the first row's d is the start offset itself.
        cfg = tmp_path / "line.cfg"
        cfg.write_text("[path]\nkind = line\n\n[sim]\nd0 = 150\nnlgl_d0 = 60\nmax_time = 1\n")
        for command, d_start in (("compare", 60.0), ("run", 150.0)):
            out = tmp_path / command
            rc = main([command, "--law", "nlgl", "--config", str(cfg), "--out", str(out)])
            assert rc == 1
            first = (out / "trajectory_nlgl.csv").read_text().splitlines()[1].split(",")
            assert float(first[7]) == pytest.approx(d_start, rel=1e-12)
        text = capsys.readouterr().out.splitlines()
        assert "look-ahead infeasible" not in text[0]
        assert "look-ahead infeasible" in text[1]

    def test_run_multiple_laws_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--law", "switched,plos", "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: run expects exactly one --law\n"
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_compare_table_order_follows_selection(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(
            [
                "compare",
                "--law",
                "plos,switched",
                "--seed",
                "1",
                "--out",
                str(out),
                "--dt",
                "0.02",
            ]
        )
        assert rc == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[1].startswith("plos,")
        assert rows[2].startswith("switched,")
        assert (out / "trajectory_plos.csv").exists()
        assert (out / "trajectory_switched.csv").exists()

    def test_validate_default_passes(self, tmp_path, capsys):
        rc = main(["validate", "--out", str(tmp_path / "v")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        assert (tmp_path / "v" / "feasibility.txt").exists()
        assert (tmp_path / "v" / "feasibility.csv").exists()

    def test_validate_takes_no_law(self, tmp_path, capsys):
        # validate checks the switched law's field whatever --law says, so
        # it does not accept the option; the trial commands do.
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--law", "plos", "--out", str(tmp_path / "v")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --law plos" in capsys.readouterr().err
        for command in ("run", "compare", "montecarlo"):
            assert build_parser().parse_args([command, "--law", "plos"]).law == "plos"

    def test_validate_notes_bound_below_half_pi(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path / "exact")]) == 0
        exact = capsys.readouterr().out
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text("[guidance]\nchi_inf = 1.0\n")
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "bound")]) == 0
        bound = capsys.readouterr().out
        assert "note" not in exact
        assert len(bound.splitlines()) == len(exact.splitlines()) + 1
        assert bound.splitlines()[-1].startswith("note: chi_inf = 1 < pi/2")
        assert "upper bounds" in bound.splitlines()[-1]
        headers = [
            (tmp_path / out / "feasibility.csv").read_text().splitlines()[0]
            for out in ("exact", "bound")
        ]
        assert headers[0] == headers[1]

    @pytest.mark.parametrize("command", ["compare", "montecarlo", "run"])
    def test_repeated_law_exits_2(self, command, tmp_path, capsys):
        laws = "plos,plos" if command == "run" else "plos,switched,plos"
        rc = main([command, "--law", laws, "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "'plos' is selected twice" in captured.err
        assert captured.out == ""

    def test_validate_aggressive_gain_fails(self, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("[guidance]\nk1 = 0.2\n")
        rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_path_sharper_than_vehicle_exits_1(self, tmp_path, capsys):
        # The circle's curvature 0.1 1/m is above kappa_max = 0.7 / 15 1/m,
        # though the constraint's left side alone is negative.
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("[path]\nkind = circle\nradius = 10\n")
        rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert "constraint LHS        : -0.0503096005 1/m" in lines
        assert "result                : FAIL" in lines
        assert "fail: path curvature 0.1 1/m > kappa_max 0.0466666667 1/m" in lines
        assert (tmp_path / "v" / "feasibility.csv").read_text().rstrip().endswith(",false")

    def test_validate_polyline_corner_exits_1(self, tmp_path, capsys):
        points = tmp_path / "corner.csv"
        points.write_text("0,0\n100,0\n100,100\n")
        cfg = tmp_path / "corner.cfg"
        cfg.write_text(f"[path]\nkind = polyline\nfile = {points}\n")
        rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert rc == 1
        captured = capsys.readouterr()
        assert "vertex 1 (100, 0) turns 1.5708 rad" in captured.err
        assert captured.out == ""

    def test_validate_unbounded_sentinel_passes(self, tmp_path, capsys):
        cfg = tmp_path / "free.cfg"
        cfg.write_text("[guidance]\nk1 = 0.2\n\n[sim]\nkappa_max = 0\n")
        rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_reports_rates_at_worst_case_ground_speed(self, tmp_path, capsys):
        cfg = tmp_path / "windy.cfg"
        cfg.write_text("[sim]\nwind_x = 3\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        windy = capsys.readouterr().out
        assert main(["validate"]) == 0
        calm = capsys.readouterr().out
        config = benchmark_scenario()
        v_g = 15.0 + 3.0
        report = validate_curvature_constraint(
            config.guidance, config.path.peak_curvature(), config.kappa_max
        )
        assert f"near-branch peak rate : {report.k1_curvature * v_g:.9g} rad/s" in windy
        assert f"far-branch peak rate  : {report.k3_curvature * v_g:.9g} rad/s" in windy
        # The constraint's left side and the verdict do not depend on V_g.
        lhs = [line for line in windy.splitlines() if line.startswith("constraint LHS")]
        assert lhs == [line for line in calm.splitlines() if line.startswith("constraint LHS")]
        assert "PASS" in windy

    def test_dump_effective_config_round_trips(self, tmp_path, capsys):
        rc = main(["run", "--dt", "0.05", "--dump-effective-config"])
        assert rc == 0
        text = capsys.readouterr().out
        f = tmp_path / "eff.cfg"
        f.write_text(text)
        settings = load_settings(str(f))
        assert settings["sim"]["dt"] == 0.05
        assert dump_settings(settings) == text

    def test_key_of_another_path_kind_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "circle.cfg"
        cfg.write_text("[path]\nkind = circle\ns_max = 10\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "s_max" in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "vfpath", "--help"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "montecarlo" in proc.stdout

    def test_fixed_wind_run_imports_neither_numpy_random_nor_ma(self, tmp_path):
        # numpy.random alone adds about 6 MB to the resident memory of a run.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[sim]\nmax_time = 60\n")
        script = (
            "import sys\n"
            "from vfpath.cli import main\n"
            f"rc = main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}])\n"
            "print(rc, 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False False"

    def test_campaign_does_not_import_numpy_ma(self, tmp_path):
        # np.percentile would import numpy.ma (about 2 MB) through np.unique.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        args = ["montecarlo", "--trials", "2", "--law", "switched", "--serial"]
        script = (
            "import sys\n"
            "from vfpath.cli import main\n"
            f"rc = main({args!r} + ['--out', {str(tmp_path / 'o')!r}])\n"
            "print(rc, 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_montecarlo_small_campaign(self, tmp_path, capsys):
        out = tmp_path / "mc"
        args = [
            "montecarlo",
            "--trials",
            "2",
            "--seed",
            "3",
            "--law",
            "switched",
            "--out",
            str(out),
            "--per-trial",
            "--serial",
        ]
        assert main(args) == 0
        capsys.readouterr()
        summary = (out / "montecarlo_summary.csv").read_bytes()
        trials = (out / "montecarlo_trials.csv").read_bytes()
        assert summary.decode().splitlines()[0] == (
            "law,metric,count,min,q1,median,q3,max,mean"
        )
        assert main(args) == 0
        assert (out / "montecarlo_summary.csv").read_bytes() == summary
        assert (out / "montecarlo_trials.csv").read_bytes() == trials

    @pytest.mark.parametrize(
        "command, config, key",
        [
            (["run"], "[sim]\nchi0 = nan\n", "chi0"),
            (["run", "--dt", "nan"], "", "dt"),
            (["run"], "[sim]\nmax_time = inf\n", "max_time"),
            (["run", "--dt", "1.5"], "", "dt"),
            (["run"], "[vehicle]\nairspeed = 2\n\n[sim]\nwind_x = 3\n", "airspeed"),
            (["run"], "[vehicle]\nairspeed = 2.5\n\n[sim]\nwind_sampled = true\n", "airspeed"),
            (["montecarlo", "--trials", "1"], "[vehicle]\nairspeed = 2.5\n", "airspeed"),
            (["run", "--dump-effective-config", "--dt", "-1"], "", "dt"),
            (["run"], "[sim]\ns0 = 10000\n", "s0"),
            (["run"], "[sim]\nx_init = 500\n", "x_init"),
            (
                ["run"],
                "[path]\nkind = line\nx0 = 1e308\ns_min = -1e308\ns_max = 1e308\n\n"
                "[sim]\ns0 = 1e308\n",
                "start",
            ),
            (["compare", "--law", "nlgl"], "[baselines]\nnlgl_l1 = nan\n", "nlgl_l1"),
            (["run"], "[guidance]\neta = inf\n", "eta"),
            (["run"], "[path]\nperiod = inf\n", "period"),
            (["validate"], "[sim]\nkappa_max = -1\n", "kappa_max"),
            (["validate"], "[guidance]\nk1 = nan\n", "k1"),
            (["validate"], "[sim]\nkappa_max = nan\n", "kappa_max"),
            (["run"], "[path]\nkind = line\ns_max = nan\n", "s_max"),
            (
                ["run"],
                "[path]\nkind = line\nheading = nan\n\n[sim]\nx_init = 0\ny_init = 100\n",
                "heading",
            ),
            (["run"], "[sim]\nd_threshold = inf\n", "d_threshold"),
            (["run"], "[sim]\nalign_threshold = inf\n", "align_threshold"),
            # max_time / dt overflows to inf: no finite step count.
            (["run", "--dt", "1e-320"], "", "dt"),
            # A finite plan of 3e11 steps, above simulation.MAX_STEPS.
            (["run", "--dt", "1e-9"], "", "dt = 1e-09"),
            # 2e6 steps at the default dt: the error names max_time too.
            (["run"], "[sim]\nmax_time = 20000\n", "max_time = 20000"),
            # Finite values whose squares or cubes a trial would overflow.
            (["run"], "[vehicle]\nairspeed = 1e300\n", "airspeed = 1e+300"),
            (
                ["montecarlo", "--trials", "2", "--serial"],
                "[vehicle]\nairspeed = 1e300\n",
                "airspeed = 1e+300",
            ),
            (["run"], "[vehicle]\nalpha = 1e300\n", "alpha = 1e+300"),
            (["run"], "[sim]\nd0 = 1e150\n", "d0 = 1e+150"),
            (["compare"], "[sim]\nnlgl_d0 = 1e300\n", "nlgl_d0 = 1e+300"),
            (["run"], "[sim]\nx_init = 1e300\ny_init = 0\n", "(x_init, y_init) = (1e+300, 0.0)"),
            # The shared checks name the key and give its value.
            (["run"], "[sim]\ndt = -1\n", "dt must be positive and finite, got -1.0"),
            (["run"], "[sim]\nwind_x = nan\n", "wind_x must be finite, got nan"),
        ],
    )
    def test_bad_scenario_value_exits_2(self, command, config, key, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        rc = main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("path", "amplitude", "1e-300"),  # (A w)^2 underflows to 0
            ("path", "amplitude", "1e300"),  # (A w)^2 overflows
            ("path", "period", "1e-300"),  # A w^2 overflows
            ("path", "period", "1e300"),  # A w^2 underflows to 0
            ("guidance", "d_s", "1e-300"),  # k3 = k1 / d_s^2 overflows
            ("guidance", "d_s", "1e300"),  # k3 underflows to 0
        ],
    )
    def test_derived_constant_out_of_range_exits_2(
        self, command, section, key, value, tmp_path, capsys
    ):
        # Each value passes its own key's check; the constant derived from
        # it does not.
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n\n[sim]\nmax_time = 3\n")
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"{key} = {float(value)!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_polyline_vertex_exits_2(self, bad, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text(f"x,y\n0,0\n100,{bad}\n200,0\n")
        cfg = tmp_path / "poly.cfg"
        cfg.write_text(f"[path]\nkind = polyline\nfile = {points}\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "vertex 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command", [["run"], ["validate"], ["compare"], ["montecarlo", "--trials", "2", "--serial"]]
    )
    @pytest.mark.parametrize(
        "vertices",
        [
            "0,0\n1e-300,0\n1,0\n",  # the squared length underflows to 0
            "0,0\n1e200,0\n",  # the squared length overflows
            "-1e308,0\n1e308,0\n",  # the length overflows
        ],
        ids=["underflow", "square-overflow", "overflow"],
    )
    def test_extreme_polyline_segment_exits_2(self, command, vertices, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("x,y\n" + vertices)
        cfg = tmp_path / "poly.cfg"
        cfg.write_text(f"[path]\nkind = polyline\nfile = {points}\n\n[sim]\nmax_time = 3\n")
        rc = main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "polyline segment 0 from vertex 0" in captured.err
        assert "must be positive and finite" in captured.err
        assert captured.out == ""

    def test_montecarlo_bad_trials_exits_2(self, tmp_path, capsys, monkeypatch):
        # A count past MAX_TRIALS is refused before a seed is spawned.
        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError("SeedSequence.spawn ran for a bad --trials")

        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        for trials in (0, simulation.MAX_TRIALS + 1):
            rc = main(["montecarlo", "--trials", str(trials), "--out", str(tmp_path / "x")])
            assert rc == 2, trials
            assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["run"], ["compare"], ["montecarlo", "--trials", "1", "--serial"], ["validate"]]
    )
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        # A sampled wind draws from the seed, which numpy rejects when negative.
        config = tmp_path / "windy.ini"
        config.write_text("[sim]\nwind_sampled = true\n", encoding="utf-8")
        out = tmp_path / "x"
        rc = main([*command, "--seed", "-5", "--config", str(config), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be non-negative\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["run"], ["compare"], ["montecarlo", "--trials", "1", "--serial"], ["validate"]]
    )
    def test_unusable_out_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "taken.csv"
        out.write_text("keep\n", encoding="utf-8")
        rc = main([*command, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        # No trial ran: nothing printed, and the file is left as it was.
        assert captured.err.startswith(f"error: cannot write output to {out}: ")
        assert captured.out == ""
        assert out.read_text(encoding="utf-8") == "keep\n"


# Every numeric INI key, each swept alone over extreme values.
_NUMERIC_KEYS = [
    (section, key)
    for section, keys in SCHEMA.items()
    for key, (kind, _) in keys.items()
    if kind not in (str, bool)
]
_EXTREMES = ["0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "1e-9"]
_SWEEP_COMMANDS = [
    ["run"], ["validate"], ["compare"], ["montecarlo", "--trials", "2", "--serial"]
]
# A line _print_metrics writes: the status, a failure reason in parentheses
# if any, then the scores.
_METRICS_LINE = re.compile(r"\w+: (?P<status>.*?)  t_conv=\S+ s  (?P<scores>d_rms=.*)")


@pytest.mark.parametrize("section, key", _NUMERIC_KEYS)
def test_extreme_value_ends_in_a_result_or_exit_2(section, key, tmp_path, capsys):
    # Each value passes its key's own check, or fails it with exit 2; a
    # quantity derived from it must not end the run in a traceback, nor a
    # trial without a failure reason in a nan score (t_conv is nan whenever
    # a trial does not converge).
    out = str(tmp_path / "o")
    for value in _EXTREMES:
        settings = {"sim": {"max_time": "3"}}
        settings.setdefault(section, {})[key] = value
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(
            "".join(
                f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                for name, keys in settings.items()
            )
        )
        for command in _SWEEP_COMMANDS:
            rc = main([*command, "--config", str(cfg), "--out", out])
            assert rc in (0, 1, 2), (command, value)
            printed = capsys.readouterr().out
            if command[0] in ("run", "compare"):
                for line in printed.splitlines():
                    match = _METRICS_LINE.fullmatch(line)
                    assert match, line
                    if "(" not in match["status"]:
                        assert "nan" not in match["scores"], (command, value, line)
