"""sha256 digests of CLI output files at fixed specs.

Any change of rounding on these paths changes a digest, so it has to update
the digests on purpose and record the largest deviation from the previous
output in CHANGES.md. The ensemble digests pin `run_ensemble`'s arithmetic
and summation order, which its own tests compare only between runs of the
same code. Digests depend on the numpy build and the CPU, so they are
stored with the numpy version and machine they were made on, and the test
skips elsewhere.

Runs in about 3 s: six 640-trajectory ensembles of 200 steps, six
1000-step records, one `validate` at defaults and two 50-step classical
demos.
"""

import hashlib
import platform

import numpy as np
import pytest

from qsmooth import cli

MADE_WITH = {"numpy": "2.4.6", "machine": "x86_64"}

ENSEMBLE = ["ensemble", "--n-traj", "640", "--seed", "1", "--t-final", "0.2"]
SIMULATE = ["simulate", "--seed", "3", "--t-final", "1", "--smoothers", "petz_fuchs,swv"]
CLASSICAL = ["classical-demo", "--seed", "6", "--t-final", "0.5"]

# sha256 of the output file, by command-unraveling-format or command-format
DIGESTS = {
    "ensemble-jump-csv": "2b8e88eea6e37f5354eb4fc69ad028127bc2d051a1a266e61a6c4f187f180673",
    "ensemble-jump-json": "b7f1950adf6987c2db75caf65de6604958af9d855d3cf3629ae315ab877b0ca8",
    "ensemble-homodyne_x-csv": "883be601e80c905dfe2b8aa116d9a27cc40fab75ec6b6467cec7c97881c1d053",
    "ensemble-homodyne_x-json": "7dd013f4c0ab6b4bfdba2af1dfd7842b006e77e440592d0d4314160474f7b5a1",
    "ensemble-homodyne_y-csv": "68d96846d87e1bf0b754640cc5377c50e8ec597dffad9610a39809d3d4bf79c5",
    "ensemble-homodyne_y-json": "5672fb0035a7164031da707999138b0baeaf7fa53f55ea4272187a49359cffb1",
    "simulate-jump-csv": "1fef549d45ef2b0ca5737a4293898645cfc5307cd38dc6b2cdf01661031b1e2e",
    "simulate-jump-json": "b592046f30791601afbe27e67bc307b5e54993ac46f428a964cb93d6d2eb4c24",
    "simulate-homodyne_x-csv": "18433eebd723cc4b186651c64caab0d137d6fdd5e7bd1b5f3fd927fab171027d",
    "simulate-homodyne_x-json": "db7631f2ebcde5259dd30e31cd06eb60eec828501d4c1641358c01f026534224",
    "simulate-homodyne_y-csv": "b9a428fa73c081c94d2e5e8f3f66636b825de035479dffb9234536fd91f1eced",
    "simulate-homodyne_y-json": "c6d5d97e136e1b19d771f49030d7010882bd6a743daf5a14854e76dc3257ef86",
    "validate": "ea46793f0759d2c9c1759562746af1817164f4f8d49a187ec074e82f7012178a",
    "classical-demo-csv": "fd5f8cc295860bd862dd5a51ac6c935889bdf58708908b7e73bc8531d0e102f5",
    "classical-demo-json": "bd6531a7c134fc1dc9b338a58cad56354194849d5e7215e950030ebdd2ebc3ff",
}

HERE = {"numpy": np.__version__, "machine": platform.machine()}

pytestmark = pytest.mark.skipif(
    HERE != MADE_WITH,
    reason=f"digests were made with numpy {MADE_WITH['numpy']} on {MADE_WITH['machine']}, "
           f"this is numpy {HERE['numpy']} on {HERE['machine']}")


def _argv(case):
    if case == "validate":
        return ["validate"]
    if case.startswith("classical-demo-"):
        return CLASSICAL + ["--format", case.rsplit("-", 1)[1]]
    command, unraveling, fmt = case.split("-")
    base = ENSEMBLE if command == "ensemble" else SIMULATE
    return base + ["--unraveling", unraveling, "--format", fmt]


@pytest.mark.parametrize("case", list(DIGESTS))
def test_output_digest(case, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(_argv(case) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[case]
