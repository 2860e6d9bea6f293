import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vfpath.cli import TRAJECTORY_HEADER, _fmt, main, write_trajectory_csv
from vfpath.config import (
    SCHEMA,
    ConfigError,
    build_scenario,
    default_settings,
    dump_settings,
    load_settings,
)
from vfpath.guidance import validate_curvature_constraint
from vfpath.paths import CirclePath, LinePath, SinusoidPath, max_path_course_rate
from vfpath.simulation import GUIDANCE_LAWS, Trajectory, benchmark_scenario

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
        channels = {
            name: np.roll(specials, k)
            for k, name in enumerate(("t", "x", "y", "chi", "chi_c", "chi_d", "chi_dot", "d"))
        }
        traj = Trajectory(
            **channels, phase=np.arange(n, dtype=np.int8) % 4, chi_p=np.zeros(n)
        )
        out = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, out)
        columns = [channels[name].tolist() for name in TRAJECTORY_HEADER.split(",")[:-1]]
        expected = [TRAJECTORY_HEADER] + [
            ",".join([_fmt(v) for v in values] + [str(phase)])
            for *values, phase in zip(*columns, traj.phase.tolist())
        ]
        assert out.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")

    def test_run_nlgl_far_offset_exits_1(self, tmp_path, capsys):
        # default d0 = 200 m exceeds the 110 m look-ahead
        rc = main(["run", "--law", "nlgl", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "look-ahead infeasible" in capsys.readouterr().out

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

    def test_run_multiple_laws_exits_2(self, tmp_path):
        rc = main(["run", "--law", "switched,plos", "--out", str(tmp_path / "o")])
        assert rc == 2

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

    @pytest.mark.parametrize("command", ["compare", "montecarlo"])
    def test_repeated_law_exits_2(self, command, tmp_path, capsys):
        rc = main([command, "--law", "plos,switched,plos", "--out", str(tmp_path / "o")])
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
            config.guidance, v_g, max_path_course_rate(config.path, v_g), config.kappa_max
        )
        assert f"near-branch peak rate : {report.k1_peak_rate:.9g} rad/s" in windy
        assert f"far-branch peak rate  : {report.k3_peak_rate:.9g} rad/s" in windy
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

    def test_montecarlo_bad_trials_exits_2(self, tmp_path):
        rc = main(["montecarlo", "--trials", "0", "--out", str(tmp_path / "x")])
        assert rc == 2
