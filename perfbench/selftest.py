"""Quick-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload it runs `run.py --quick` with tracing off and on, and
checks that the result line holds exactly the metrics BENCHMARK.json names,
each with its unit, that every metric is also printed as `name = value
unit`, and that no op failed. In process it checks that two runs of one op
give one digest, and that a NaN injected into a copy of one op's output
makes that op count as failed. Last, it checks that a directory holding
only BENCHMARK.json and the benchmark exits nonzero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result_lines(bench, workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        "\n".join(line for line in lines if "FAILED" in line)
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        set(result["metrics"]) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]), f"{m['name']} not printed with its unit"
    return result


class _Injected:
    """The workload, with a NaN put into a copy of each collected output."""

    def __init__(self, wl):
        self.wl = wl

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def collect(self, out):
        return self.wl.inject_nan(self.wl.collect(out))


def check_digest_and_nan(workload):
    wl, _ = run.setup(workload, SEED, quick=True)
    store = run.DigestStore(run.OUT / "selftest-unsaved.json", "selftest")
    op = wl.cycle(0)[0]
    first = run.run_op(wl, op, store)
    again = run.run_op(wl, op, store)
    assert first["problems"] == [] and again["problems"] == [], (first, again)
    assert first["digest"] == again["digest"]
    bad = run.run_op(_Injected(wl), op, store)
    assert any("non-finite" in p for p in bad["problems"]), bad["problems"]


def check_bare_directory():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench")
    try:
        done = _run(bare, "simulate_records", 0)
        assert done.returncode != 0, "ran without the program source"
        assert '"metrics"' not in done.stdout, "printed a result without the program"
    finally:
        shutil.rmtree(bare)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    for workload in names:
        for trace in (0, 1):
            result = check_result_lines(bench, workload, trace)
            print(f"ok {workload} trace {trace}: {result['attempted']} ops, "
                  f"{len(result['metrics'])} metrics")
        check_digest_and_nan(workload)
        print(f"ok {workload}: digests repeat, injected NaN fails the op")
    check_bare_directory()
    print("ok bare directory exits nonzero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
