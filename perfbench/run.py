"""qsmooth benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`. The run
sets the workload up (import, step operators, inputs, one warm-up op), then
runs whole cycles of ops until `--seconds` have passed, checks each op's
outputs, and prints as its last line
`{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With `--trace 1` the run measures half its time
untraced and half with spans around the qsmooth module attributes
(`spans.py`), and reports the per-layer metrics, each per op, together with
the tracing overhead. Lines before the last one give the machine facts,
failure counts, sample counts and output digests; the same facts, the ops
and, for a traced run, every span are written under `.perfbench_out/`.

`setup_s` is the median of SETUP_PROBES set-ups in fresh interpreters plus
the run's own. Digests are kept per seed in `.perfbench_out/digests.json`,
keyed by a hash of the program source; an op whose digest differs from an
earlier op with the same key and the same source counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout as it was

from spans import LAYERS, Tracer  # noqa: E402  (this directory is sys.path[0])

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
WORKLOADS = ("ensemble_batch", "simulate_records", "gw_importance")
SETUP_PROBES = 3
# A run stops starting cycles after this long, whatever else it still wants,
# so that it ends well within its time limit.
HARD_STOP_S = 120.0
# simulate_records keeps going until its p90 has this many samples beyond it.
P90_TAIL = 10


def cap_blas_threads():
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        if not raw.isdigit() or not 1 <= int(raw) <= nproc:
            os.environ[var] = str(nproc)


def setup(name, seed, quick=False):
    """Import qsmooth from src/, make the workload and run one warm-up op."""
    t0 = time.perf_counter()
    if not (SRC / "qsmooth" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qsmooth source under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsmooth
    if Path(qsmooth.__file__).resolve().parent != SRC / "qsmooth":
        raise SystemExit(f"perfbench: imported qsmooth from {qsmooth.__file__}, "
                         f"not from {SRC}")
    import workloads
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(name, seed, OUT, quick)
    wl.warm_up()
    return wl, time.perf_counter() - t0


def probe_setup(name, seed, quick):
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def source_fingerprint():
    h = hashlib.sha256()
    for path in sorted((SRC / "qsmooth").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Output digests by op key, for one version of the program source."""

    def __init__(self, path, fingerprint):
        self.path = path
        self.fingerprint = fingerprint
        saved = json.loads(path.read_text()) if path.exists() else {}
        self.seen = saved.get(fingerprint, {})

    def check(self, key, digest):
        first = self.seen.setdefault(key, digest)
        if first == digest:
            return []
        return [f"digest {digest[:16]} differs from an earlier run's {first[:16]}"]

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({self.fingerprint: self.seen}, indent=0))
        os.replace(tmp, self.path)


def run_op(wl, op, store, tracer=None):
    """Run one op; returns its record. Any exception fails the op."""
    if tracer is not None:
        tracer.op += 1
    rec = {"key": op.key, "work": op.work, "digest": None, "problems": []}
    t0 = time.perf_counter()
    try:
        out = op.run()
        rec["latency_s"] = time.perf_counter() - t0
        out = wl.collect(out)
        rec["problems"] = wl.check(out)
        rec["digest"] = wl.digest(out)
        rec["problems"] += store.check(op.key, rec["digest"])
        if tracer is not None:
            for (layer, key), value in wl.layer_counts(out).items():
                tracer.add(layer, key, value)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        rec.setdefault("latency_s", time.perf_counter() - t0)
        rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
    return rec


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_cycles(wl, seconds, store, first_cycle=0, tracer=None, p90_tail=0):
    """Whole cycles until `seconds` pass (and the p90 tail is long enough)."""
    records = []
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in wl.cycle(first_cycle + cycles):
            records.append(run_op(wl, op, store, tracer))
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S:
            break
        lat = [r["latency_s"] for r in records]
        if p90_tail and sum(x > p90(lat) for x in lat) < p90_tail:
            continue
        if elapsed + elapsed / cycles > seconds:
            break
    return records, cycles


def machine_facts():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(records, setup_s):
    lat = [r["latency_s"] for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "traj_steps_per_s": (statistics.median(r["work"] / r["latency_s"] for r in records),
                             "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p90(lat), "s"),
        "peak_mb": (peak_mb(), "MB"),
    }


# counts kept by spans.py besides calls and self_s, with their units
_COUNT_UNITS = {"traj_steps": "count", "states_mb": "MB", "matrices": "count",
                "output_bytes": "bytes"}


def per_layer(tracer, traced, untraced):
    """Per-op layer metrics from the traced ops, plus the tracing overhead."""
    n_ops = len(traced)
    out = {}
    for name, _, counters in LAYERS:
        tot = tracer.totals[name]
        out[f"{name}.self_s"] = (tot["self_s"] / n_ops, "s")
        out[f"{name}.calls"] = (tot["calls"] / n_ops, "count")
        for key in counters:
            out[f"{name}.{key}"] = (tot[key] / n_ops, _COUNT_UNITS[key])
    fb = tracer.totals["dynamics.filter_batch"]
    out["dynamics.filter_batch.ns_per_traj_step"] = (
        1e9 * fb["self_s"] / fb["traj_steps"] if fb["traj_steps"] else 0.0, "ns")
    bs = tracer.totals["smoothing.backward_step"]
    out["smoothing.backward_step.traj_steps_per_call"] = (
        bs["traj_steps"] / bs["calls"] if bs["calls"] else 0.0, "count")
    out["cli.main.output_bytes"] = (
        tracer.totals["cli.main"]["output_bytes"] / n_ops, "bytes")
    traced_s = statistics.fmean(r["latency_s"] for r in traced)
    untraced_s = statistics.fmean(r["latency_s"] for r in untraced)
    out["trace.ops"] = (n_ops, "count")
    out["trace.spans"] = (len(tracer.spans) / n_ops, "count")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="self-test sizes instead of the benchmark sizes")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args(argv)
    cap_blas_threads()

    if args.setup_probe:
        _, setup_s = setup(args.workload, args.seed, args.quick)
        print(repr(setup_s))
        return 0

    wl, own_setup = setup(args.workload, args.seed, args.quick)
    setup_samples = [own_setup] + [probe_setup(args.workload, args.seed, args.quick)
                                   for _ in range(SETUP_PROBES)]
    store = DigestStore(OUT / "digests.json", source_fingerprint())
    p90_tail = P90_TAIL if wl.name == "simulate_records" and not args.quick else 0

    if args.trace:
        import qsmooth
        untraced, cycles = run_cycles(wl, args.seconds / 2, store)
        tracer = Tracer(qsmooth)
        with tracer:
            traced, _ = run_cycles(wl, args.seconds / 2, store, cycles, tracer)
        records = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
        tracer.dump(OUT / f"spans-{wl.name}-seed{args.seed}.tsv")
    else:
        records, _ = run_cycles(wl, args.seconds, store, p90_tail=p90_tail)
        metrics = end_to_end(records, statistics.median(setup_samples))
    store.save()

    failed = sum(1 for r in records if r["problems"])
    facts = machine_facts()
    lat = [r["latency_s"] for r in records]
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {wl.name} seed {args.seed}: {len(records)} ops, "
          f"{failed} failed, failed_frac = {failed / len(records)!r} ratio")
    print(f"latency samples = {len(lat)}, beyond p90 = "
          f"{sum(x > p90(lat) for x in lat)}; setup samples = "
          f"{[round(s, 4) for s in setup_samples]}")
    if wl.name == "gw_importance" and not args.trace:
        print(f"bob_steps_per_s = {metrics['traj_steps_per_s'][0]!r} 1/s")
    for r in records:
        print(f"op {r['key']} {r['latency_s']:.4f} s sha256 {r['digest']}"
              + "".join(f"\n  FAILED: {p}" for p in r["problems"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "machine": facts, "setup_samples": setup_samples,
                    "metrics": metrics, "ops": records}, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
