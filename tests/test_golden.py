"""Golden digests of the CLI's fixed-seed outputs.

``vfpath compare --seed 0`` and ``vfpath montecarlo --seed 42 --trials 8
--serial --per-trial`` are rerun in a temporary directory and every file
they write is hashed, and so are the files ``vfpath validate`` writes for
five configurations, with its exit code, and the files ``vfpath run --seed 3``
writes on a line, a circle and a polyline under a fixed wind.  The digests were recorded on Python 3.11.7 with numpy
2.4.6; other numpy or libm builds may round a last digit differently.  A
change that means to alter these bytes re-records the digests and says so.
"""

import hashlib

import pytest

from vfpath.cli import main

GOLDEN = {
    ("compare", "--seed", "0"): {
        "comparison.csv": "d02d68f177e9d9b0c7be06aa3f7083301ef2cc2527f4f2d9017b876688de4559",
        "trajectory_basic_vf.csv": "89d418c5fc291bdc8797e6460b6c4eba2c32ef9d1e63cd52ca06417219e51b30",
        "trajectory_nlgl.csv": "73f242c4852c9b7132ee793b95843e19d57d5c879df9bafe44e68c13318935c8",
        "trajectory_plos.csv": "941cbbd98a757f9a458016700c32d3daf122e29c10bbb43bd00486a0812869cc",
        "trajectory_switched.csv": "3566b91e7242b1341303975996750f27f5d77a221d6f3955978d2e0f6dca2b33",
    },
    ("montecarlo", "--seed", "42", "--trials", "8", "--serial", "--per-trial"): {
        "montecarlo_summary.csv": "310f6c434f4a35be4f45da0ed278763a402bd4ba3e32c712afaa9466dd453536",
        "montecarlo_trials.csv": "48078878bc6dee71b8d8c724bc7b27646f2925a47965a3932e9e7972ac76e333",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: argv[0])
def test_fixed_seed_outputs_match_golden_digests(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    changed = sorted(
        name for name, digest in GOLDEN[argv].items() if digests.get(name) != digest
    )
    assert not changed, f"outputs differ from the golden digests: {', '.join(changed)}"
    assert sorted(digests) == sorted(GOLDEN[argv])


# vfpath validate: config text -> (exit code, digests of the files it writes).
VALIDATE_GOLDEN = {
    "": (0, {
        "feasibility.txt": "ef30272c40dd6b291883e2424b3dba423976138838710241abf7332ed8fce1ac",
        "feasibility.csv": "df86733e9b655aff3b219643d6674255de7b7ef4a9e59cc020d1115baae82328",
    }),
    "[sim]\nwind_x = 3\n": (0, {
        "feasibility.txt": "8da707116cea9632967288303dadf3f6146259007a5fe26bbf43826f1b85c770",
        "feasibility.csv": "c36f3306f2e7a3f7791c63bdb4fbec53ea8a5446f388e4e4582497dd5d183868",
    }),
    "[guidance]\nchi_inf = 1.2\n": (0, {
        "feasibility.txt": "3affae36bbefa0e4e570c62e0cabf15871d7652f9c9bfca1f475c276ba0691d5",
        "feasibility.csv": "df86733e9b655aff3b219643d6674255de7b7ef4a9e59cc020d1115baae82328",
    }),
    "[guidance]\nk1 = 0.2\n": (1, {
        "feasibility.txt": "30c7a4411d44a0217a9eaec191517b1f9e15e329e1b03290e396963de3afca4f",
        "feasibility.csv": "8de734b2fdeec2b1712e6de6a2e1e3a704702814f725acef22f781b9d53d4a31",
    }),
    "[path]\nkind = circle\nradius = 10\n": (1, {
        "feasibility.txt": "e8ab9a5069a9ca787ee83c4b1f7ec91f8d99ce87601d7e2ce2a37e701551c088",
        "feasibility.csv": "2d286bc5cffba0016434830b4ffc779e69236f2581023e2922f77b444df80860",
    }),
}


@pytest.mark.parametrize(
    "config", list(VALIDATE_GOLDEN), ids=["default", "wind", "chi_inf", "k1", "circle"]
)
def test_validate_outputs_match_golden_digests(config, tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    exit_code, golden = VALIDATE_GOLDEN[config]
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == exit_code
    assert capsys.readouterr().out == (out / "feasibility.txt").read_text()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == golden


# A square flown counter-clockwise: its headings step from pi to -pi/2.
SQUARE = "x,y\n0,0\n600,0\n600,600\n0,600\n0,0\n"
WIND = "[sim]\nwind_x = 2\nwind_y = -1.5\n"

# vfpath run --seed 3: config text -> digests of the files it writes.  The
# line's course and the circle's and the square's path courses cross +-pi.
RUN_GOLDEN = {
    "line": ("[path]\nkind = line\nheading = -3.0\n" + WIND, {
        "metrics_switched.csv": "704e82da23308260ec03d1cc9c2553f13aec097a2ccbd3cbd24250cfb827d968",
        "trajectory_switched.csv": "bedadb7f1b692c6471508eb7fd0d410b1c65809b9d48c75604cdd411e7f67b0a",
    }),
    "circle": ("[path]\nkind = circle\n" + WIND + "stop_when_converged = false\nmax_time = 140\n", {
        "metrics_switched.csv": "52477e1fd2c75dea57bd0f07c43be8fdfbbadc36ab28de54aab628a8815c1fa6",
        "trajectory_switched.csv": "fa2c46bc1dce378547846366a37ad7a690184c6489071b8b4b19192891a087c5",
    }),
    "polyline": ("[path]\nkind = polyline\nfile = {square}\n" + WIND
                 + "stop_when_converged = false\nmax_time = 160\n", {
        "metrics_switched.csv": "ac9a44980783784e53373e3d93073d42eb2e7685b76687d7ebd5db794ee309b3",
        "trajectory_switched.csv": "e2174bd373d3dcb1a8471c8547aff5b4ce4d9fb42edc349daca09052ff3d27fd",
    }),
}


@pytest.mark.parametrize("kind", list(RUN_GOLDEN))
def test_run_outputs_match_golden_digests(kind, tmp_path, capsys):
    square = tmp_path / "square.csv"
    square.write_text(SQUARE)
    config, golden = RUN_GOLDEN[kind]
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config.format(square=square))
    out = tmp_path / "out"
    assert main(["run", "--seed", "3", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == golden
