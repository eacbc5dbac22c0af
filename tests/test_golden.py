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
    "ensemble-jump-csv": "18b5acc73dffaebbdbbf769150e237e01ea9fbb8432245f966d28d946f5d9364",
    "ensemble-jump-json": "2bc35a65a59fb3b18a35635677ed5a5959cecf362fd43a85692eb3e338fe7d28",
    "ensemble-homodyne_x-csv": "b0999c530f904581444f88335fd93e286ed9df88285a8d8360e55de9b91a7279",
    "ensemble-homodyne_x-json": "2303aa91a46e8228ffeee09760e5f58db19491404c32f98f0c41fbda16ac53f0",
    "ensemble-homodyne_y-csv": "d308e11e045926e020166dcb23b99bbdf23e97155a326fc362dc987b5d5d6efa",
    "ensemble-homodyne_y-json": "37f6fdcaf1bbc91a3eb112c3cd673ba3dd994325c08ea28cbd3a19e4c82d4d8b",
    "simulate-jump-csv": "d8cf724ad852b03bb6b51be5211850820be53714bb293f7ee0a33609e3617656",
    "simulate-jump-json": "4c2c3ab87cec87be8510d877858bc96ce08b881748367aec6c654a8f49e2fb07",
    "simulate-homodyne_x-csv": "722c73045caa1424c78d7a43952982e93af62a885744d15beafd670c53ca50bb",
    "simulate-homodyne_x-json": "5725c097b877163aa08608c105b892a118b42ad6faccb53be511053b4572c856",
    "simulate-homodyne_y-csv": "69fd5092321ee17b9639c50cf90e04f6af5111c2fd05a7b691dcedd80425becd",
    "simulate-homodyne_y-json": "bfe0c214cf5521ad90fb9ccc6c804e3f3fe5cf486aa6779733f39ab9e16aff61",
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
