"""Golden digests of the CLI's fixed-seed outputs.

``vfpath compare --seed 0`` and ``vfpath montecarlo --seed 42 --trials 8
--serial --per-trial`` are rerun in a temporary directory and every file
they write is hashed.  The digests were recorded on Python 3.11.7 with numpy
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
        "trajectory_plos.csv": "6d480a1e4bf23dfe4c77e5c59f45853989d92fd59330e551f5a3a16ed6276e83",
        "trajectory_switched.csv": "cf9f5b597906dc5492fb7a51e4cd0699ddbef570ebac26ee7ff93c3333644a7d",
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
