"""The three seeded qsmooth workloads: inputs, ops, output checks, digests.

All three use the acceptance physics (omega = 5, nbar = 0.5, gamma = 1,
dt = 1e-3) and run as a closed loop with one client in one process: the
next op starts when the previous one returns. A workload hands out its ops
one cycle at a time; a cycle holds every op variant once, so any whole
number of cycles has the same mix.

Each op reports the trajectory-steps it did (`work`). `check` returns the
problems found in one output at the repository's own test tolerances, and
every number an op reports must be finite. `digest` is a sha256 of the
output; ops with equal keys get equal inputs and must give equal digests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from qsmooth import cli, ensemble, smoothing
from qsmooth.dynamics import ModelParams, build_step_operators, filter_trajectory

PHYSICS = dict(omega=5.0, nbar=0.5, gamma=1.0, dt=1e-3)
PSD_TOL = 1e-10          # smallest eigenvalue allowed, as in the test suite
TRACE_DEFECT_TOL = 1e-12  # criterion 2
PAIRING_TOL = 1e-8        # simulate's pairing_rel_spread, as in test_cli
UNIT_TRACE_TOL = 1e-10    # gw mixtures, as in test_gw


@dataclasses.dataclass
class Op:
    key: str                    # names the inputs
    work: int                   # trajectory-steps done by the op
    run: Callable[[], object]   # the timed call into qsmooth


def _finite_problems(name, value):
    arr = np.asarray(value, dtype=float)
    bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
    return [f"{name}: {bad} non-finite value(s)"] if bad else []


def _sha256(named_arrays):
    h = hashlib.sha256()
    for name, value in named_arrays:
        h.update(name.encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


class _Workload:
    """Defaults shared by the workloads."""

    def collect(self, out):
        """The op's output as `check` and `digest` take it."""
        return out

    def layer_counts(self, out):
        """Work the tracer cannot see from a call's arguments."""
        return {}


class EnsembleBatch(_Workload):
    """`run_ensemble` on jump, then on homodyne_y.

    640 trajectories are one full 512-trajectory chunk plus a 128-trajectory
    remainder, so a change of chunk size shows. The horizon is kept short
    (1000 steps, about 4 s per call) so that a run holds several cycles and
    the median resists the host's slow speed swings; the steady window
    still gives a purity gain of 5 sigma or more.
    """

    name = "ensemble_batch"
    unravelings = ("jump", "homodyne_y")

    # (n_traj, t_final, steady window); the quick size still clears the
    # 3-sigma purity-gain check
    FULL = (640, 1.0, (0.5, 1.0))
    QUICK = (96, 1.2, (0.6, 1.2))

    def __init__(self, seed, quick=False):
        self.seed = seed
        size = self.QUICK if quick else self.FULL
        self.n_traj = size[0]
        self.specs = {u: self._spec(u, size) for u in self.unravelings}

    def _spec(self, unraveling, size):
        n_traj, t_final, window = size
        return ensemble.EnsembleSpec(
            params=ModelParams(unraveling=unraveling, t_final=t_final,
                               seed=self.seed, **PHYSICS),
            n_traj=n_traj, steady_window=window)

    def warm_up(self):
        return ensemble.run_ensemble(self._spec(self.unravelings[0], self.QUICK))

    def cycle(self, index):
        return [Op(key=f"{self.name}/{u}/n{self.n_traj}/seed{self.seed}",
                   work=spec.n_traj * spec.params.n_steps,
                   run=lambda spec=spec: ensemble.run_ensemble(spec))
                for u, spec in self.specs.items()]

    @staticmethod
    def _arrays(res):
        return [(f.name, np.asarray(getattr(res, f.name), dtype=float))
                for f in dataclasses.fields(res)]

    def check(self, res):
        problems = []
        for name, arr in self._arrays(res):
            problems += _finite_problems(name, arr)
        if not res.min_smoothed_eigenvalue >= -PSD_TOL:
            problems.append(f"min smoothed eigenvalue {res.min_smoothed_eigenvalue:.3e}")
        if not res.max_smoothed_trace_defect <= TRACE_DEFECT_TOL:
            problems.append(f"trace defect {res.max_smoothed_trace_defect:.3e}")
        if not res.purity_gain_mean > 3.0 * res.purity_gain_se:
            problems.append(f"purity gain {res.purity_gain_mean:.4g} is not above "
                            f"3 sigma ({res.purity_gain_se:.4g})")
        tol = 4.0 / math.sqrt(res.n_traj) + 5.0 * PHYSICS["dt"]
        dev = max(np.max(np.abs(res.mean_bloch_filtered - res.uncond_bloch)),
                  np.max(np.abs(res.mean_bloch_smoothed - res.uncond_bloch)))
        if not dev < tol:
            problems.append(f"mean Bloch deviation {dev:.4f} (tol {tol:.4f})")
        return problems

    def digest(self, res):
        return _sha256(self._arrays(res))

    def inject_nan(self, res):
        bad = dataclasses.replace(res, avg_purity_smoothed=res.avg_purity_smoothed.copy())
        bad.avg_purity_smoothed[len(bad.avg_purity_smoothed) // 2] = np.nan
        return bad


class SimulateRecords(_Workload):
    """In-process `qsmooth simulate` requests, JSON output to a file.

    Each request has a fresh seed; requests cycle through the three
    unravelings, and every fourth one uses the recursive Petz smoother.
    """

    name = "simulate_records"
    # request n uses the n % 3-th unraveling, and the recursive smoother when
    # n % 4 == 3, so a cycle of 12 requests holds every combination once
    kinds = tuple((("jump", "homodyne_x", "homodyne_y")[n % 3],
                   "recursive,swv" if n % 4 == 3 else "petz_fuchs,swv")
                  for n in range(12))

    def __init__(self, seed, out_path, quick=False):
        self.seed = seed
        self.out_path = str(out_path)
        self.t_final = 0.25 if quick else 1.0
        self.n_steps = ModelParams(t_final=self.t_final, **PHYSICS).n_steps

    def _request(self, unraveling, smoothers, seed):
        argv = ["simulate", "--unraveling", unraveling, "--seed", str(seed),
                "--omega", str(PHYSICS["omega"]), "--nbar", str(PHYSICS["nbar"]),
                "--gamma", str(PHYSICS["gamma"]), "--dt", str(PHYSICS["dt"]),
                "--t-final", str(self.t_final), "--smoothers", smoothers,
                "--format", "json", "--out", self.out_path]

        def run():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return {"rc": rc, "stderr": err.getvalue()}
        return run

    def collect(self, out):
        """Read back what a request wrote; kept out of the timed call."""
        if out["rc"] != 0:
            return {**out, "raw": b"", "doc": None}
        path = Path(self.out_path)
        raw = path.read_bytes()
        path.unlink()
        return {**out, "raw": raw, "doc": json.loads(raw)}

    def warm_up(self):
        return self.collect(self._request(*self.kinds[0], seed=self.seed)())

    def cycle(self, index):
        ops = []
        for j, (unraveling, smoothers) in enumerate(self.kinds):
            seed = self.seed * 100_000 + index * len(self.kinds) + j
            ops.append(Op(key=f"{self.name}/{unraveling}/{smoothers}/t{self.t_final}/seed{seed}",
                          work=self.n_steps,
                          run=self._request(unraveling, smoothers, seed)))
        return ops

    def check(self, out):
        if out["rc"] != 0:
            return [f"exit code {out['rc']}: {out['stderr'].strip()[-200:]}"]
        doc = out["doc"]
        problems = []
        for key, value in doc.items():
            if key == "config":
                continue
            if key == "outcome":
                value = value[1:]  # the first row carries no outcome by design
            if key == "checks":
                value = list(value.values())
            # the CLI writes non-finite numbers as null
            arr = np.asarray(value, dtype=float) if value is not None else np.nan
            problems += _finite_problems(key, arr)
        checks = doc["checks"]
        if not checks["min_smoothed_eigenvalue"] >= -PSD_TOL:
            problems.append(f"min smoothed eigenvalue {checks['min_smoothed_eigenvalue']}")
        if not checks["pairing_rel_spread"] < PAIRING_TOL:
            problems.append(f"pairing spread {checks['pairing_rel_spread']}")
        return problems

    def digest(self, out):
        return hashlib.sha256(out["raw"]).hexdigest()

    def inject_nan(self, out):
        doc = json.loads(out["raw"])
        doc["purity_smoothed"][len(doc["purity_smoothed"]) // 2] = float("nan")
        return {**out, "doc": doc}

    def layer_counts(self, out):
        return {("cli.main", "output_bytes"): len(out["raw"])}


class GwImportance(_Workload):
    """`gw_smooth` on one fixed observed jump record.

    The second observer alternates between jump and homodyne_x. The record
    is 250 steps, so that a run holds many ops; n_bob keeps the 2000-wide
    stacks of the importance mixture.
    """

    name = "gw_importance"
    bob_unravelings = ("jump", "homodyne_x")

    def __init__(self, seed, quick=False):
        self.seed = seed
        self.n_bob = 200 if quick else 2000
        self.params = ModelParams(unraveling="jump", t_final=0.25, seed=seed, **PHYSICS)
        ops = build_step_operators(self.params)
        self.record = filter_trajectory(self.params, 0, ops=ops).record

    def _gw(self, bob, n_bob):
        return smoothing.gw_smooth(self.record, self.params, bob, n_bob, seed=self.seed)

    def warm_up(self):
        return self._gw(self.bob_unravelings[0], 200)

    def cycle(self, index):
        steps = self.params.n_steps
        return [Op(key=f"{self.name}/{bob}/n{self.n_bob}/steps{steps}/seed{self.seed}",
                   work=self.n_bob * steps,
                   run=lambda bob=bob: self._gw(bob, self.n_bob))
                for bob in self.bob_unravelings]

    @staticmethod
    def _arrays(res):
        return [("gw", res.gw), ("gw_pf", res.gw_pf), ("ess", res.ess)]

    def check(self, res):
        problems = []
        for name, arr in self._arrays(res):
            problems += _finite_problems(name, arr.view(float))
        for name, series in (("gw", res.gw), ("gw_pf", res.gw_pf)):
            defect = np.max(np.abs(np.einsum("tii->t", series).real - 1.0))
            if not defect < UNIT_TRACE_TOL:
                problems.append(f"{name} trace defect {defect:.3e}")
            # numpy directly: checks run while the tracer wraps qmath
            herm = 0.5 * (series + np.conj(np.swapaxes(series, -1, -2)))
            low = np.linalg.eigvalsh(herm).min()
            if not low >= -PSD_TOL:
                problems.append(f"{name} min eigenvalue {low:.3e}")
        if not res.ess.min() >= 2.0:
            problems.append(f"effective sample size {res.ess.min():.3f} < 2")
        return problems

    def digest(self, res):
        return _sha256(self._arrays(res))

    def inject_nan(self, res):
        bad = dataclasses.replace(res, gw=res.gw.copy())
        bad.gw[len(bad.gw) // 2, 0, 1] = np.nan
        return bad


def make(name, seed, scratch_dir, quick=False):
    """The workload called `name`, with inputs generated from `seed`."""
    if name == SimulateRecords.name:
        return SimulateRecords(seed, scratch_dir / "simulate.json", quick)
    return {EnsembleBatch.name: EnsembleBatch,
            GwImportance.name: GwImportance}[name](seed, quick)

