"""The benchmark's tracer still sees the qsmooth code it is meant to time.

`perfbench/spans.py` replaces (module, attribute) pairs of qsmooth with
timing wrappers; a renamed or removed attribute would otherwise surface
only in the slow benchmark self-test, and a call that bypasses the module
attribute would silently read as zero calls.
"""

import importlib
import importlib.util
from pathlib import Path

import qsmooth
import qsmooth.cli
from qsmooth import checks
from qsmooth.dynamics import ModelParams
from qsmooth.ensemble import EnsembleSpec, run_ensemble

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_attribute_resolves():
    spans = _load_spans()
    missing = [f"{module}.{attr}"
               for _, targets, _ in spans.LAYERS for module, attr in targets
               if not callable(getattr(importlib.import_module(f"qsmooth.{module}"),
                                       attr, None))]
    assert not missing, f"perfbench/spans.py wraps missing attributes: {missing}"


def test_ensemble_and_simulate_reach_the_traced_kernels(tmp_path, capsys):
    # one record and a batch reach the smoothed state through the same
    # module attribute, so the benchmark's span times both
    spans = _load_spans()
    p = ModelParams(omega=5.0, nbar=0.5, t_final=0.02, seed=1)
    argv = ["simulate", "--t-final", "0.02", "--smoothers", "petz_fuchs,swv",
            "--out", str(tmp_path / "sim.csv")]
    calls = {}
    for name, run in (("ensemble", lambda: run_ensemble(EnsembleSpec(params=p, n_traj=3))),
                      ("simulate", lambda: qsmooth.cli.main(argv))):
        with spans.Tracer(qsmooth) as tracer:
            run()
        calls[name] = {layer: tracer.totals[layer]["calls"]
                       for layer in ("smoothing.petz_fuchs_series",
                                     "smoothing.swv_purity_series",
                                     "dynamics.unconditional_series")}
    assert calls["ensemble"]["smoothing.petz_fuchs_series"] > 0
    # run_ensemble imports it at call time, so the span sees the call
    assert calls["ensemble"]["dynamics.unconditional_series"] > 0
    assert calls["simulate"]["smoothing.petz_fuchs_series"] > 0
    assert calls["simulate"]["smoothing.swv_purity_series"] > 0


def test_future_enumeration_reaches_the_traced_kernels():
    # criterion 1 walks its futures back and smooths them on the record path
    spans = _load_spans()
    with spans.Tracer(qsmooth) as tracer:
        checks.future_enumeration(ModelParams(omega=5.0, nbar=0.5, dt=1e-2, seed=1), 2, 3)
    assert tracer.totals["smoothing.backward_step"]["calls"] > 0
    assert tracer.totals["smoothing.petz_fuchs_series"]["calls"] > 0
