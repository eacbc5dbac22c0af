#!/usr/bin/env python3
"""Alternating parent/change pairs of the qsmooth benchmark, as one BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --tag NAME \\
        --pairs ensemble_batch=10 --pairs gw_importance=3

Each side of a pair runs `perfbench/run.py --workload W --seed S --seconds 40
--trace 0` from its own checkout, both sides with the same seed; the side
that runs first alternates from pair to pair. Every run's last stdout line
(the result line) is kept, and so is `ops_sha256`: a sha256 over the sorted
`op KEY sha256 DIGEST` lines of its output digests. It covers the op keys
that both runs of the pair ran, since a run stops after a time and
`simulate_records` gives every request a key of its own. The output is
`BENCH_<date>_<tag>.json` in `--out-dir` with the keys `tag`, `what`,
`machine`, `pairs` and `summary`. The summary gives, per workload,
`digests_equal`, the number of pairs whose two `ops_sha256` agree, and per
end-to-end metric, each side's median and quartiles, the pairs the change
won (by the direction BENCHMARK.json gives the metric), the ratio of the
medians, change over parent, and a verdict against the metric's relative
`bound` in BENCHMARK.json:

- `worse`: the change's median is worse than the parent's by more than the
  bound;
- `improved`: of at least ten pairs, the change wins at least nine tenths
  (ties count for neither), and its median is better than the parent's by
  more than the parent's q3 - q1; this is the rule for claiming a gain;
- `unresolved`: the parent's (q3 - q1) / median exceeds the bound, and not
  every change run beats every parent run;
- `within_bound`: otherwise.

`--quick` runs the benchmark at its self-test sizes with 1-second runs, to
check the tool itself; its numbers measure nothing.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 40.0  # the benchmark's run length


def parse_pairs(items):
    """{"workload": count} from `workload=count` items, in the given order."""
    out = {}
    for item in items:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise SystemExit(f"bench_pairs: --pairs takes workload=count, got {item!r}")
        out[name] = int(count)
    return out


def run_side(checkout, workload, seed, seconds, quick):
    """(result line, machine facts, the set of `(op key, digest)`) of one
    benchmark run from `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--quick"] if quick else [])
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    machine = next(json.loads(line.split(":", 1)[1]) for line in lines
                   if line.startswith("machine:"))
    # op KEY LATENCY s sha256 DIGEST
    ops = {(fields[1], fields[-1]) for fields in map(str.split, lines) if fields[:1] == ["op"]}
    return json.loads(lines[-1]), machine, ops


def ops_sha256(ops, keys):
    """sha256 over the sorted `op KEY sha256 DIGEST` lines of the given keys."""
    text = "\n".join(sorted(f"op {key} sha256 {digest}" for key, digest in ops if key in keys))
    return hashlib.sha256(text.encode()).hexdigest()


def verdict(row, parent, change, sign, bound):
    """`worse`, `improved`, `unresolved` or `within_bound` for one metric's
    summary row and its per-run values (see the module docstring); `sign` is
    1 when higher is better, -1 when lower is."""
    if sign * (row["parent_median"] - row["change_median"]) > bound * row["parent_median"]:
        return "worse"
    if (len(parent) >= 10 and 10 * row["change_wins"] >= 9 * len(parent)
            and sign * (row["change_median"] - row["parent_median"])
            > row["parent_q3"] - row["parent_q1"]):
        return "improved"
    spread = (row["parent_q3"] - row["parent_q1"]) / row["parent_median"]
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not beats_all:
        return "unresolved"
    return "within_bound"


def summarize(pairs, end_to_end):
    """Per-workload medians, quartiles, wins, ratios and verdicts of every
    metric; `end_to_end` maps a metric name to its BENCHMARK.json entry."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        entry = {"pairs": len(runs), "digests_equal": sum(
            p["ops_sha256"]["parent"] == p["ops_sha256"]["change"] for p in runs)}
        for metric in runs[0]["parent"]["metrics"]:
            sides = {side: [r[side]["metrics"][metric]["value"] for r in runs]
                     for side in ("parent", "change")}
            row = {}
            for side, values in sides.items():
                q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                                  if len(values) > 1 else values * 3)
                row.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
            better = end_to_end.get(metric, {}).get("better", "higher")
            sign = 1.0 if better == "higher" else -1.0
            row["change_wins"] = sum(sign * (c - p) > 0.0
                                     for p, c in zip(sides["parent"], sides["change"]))
            row["ratio_change_over_parent"] = row["change_median"] / row["parent_median"]
            if metric in end_to_end:
                row["verdict"] = verdict(row, sides["parent"], sides["change"], sign,
                                         end_to_end[metric]["bound"])
            entry[metric] = row
        entry["failed"] = {
            "parent": sum(r["parent"]["failed"] for r in runs),
            "change": sum(r["change"]["failed"] for r in runs),
            "attempted_parent": sum(r["parent"]["attempted"] for r in runs),
            "attempted_change": sum(r["change"]["attempted"] for r in runs)}
        summary[workload] = entry
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--tag", required=True, help="names the BENCH file")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=COUNT")
    ap.add_argument("--seed", type=int, default=9001,
                    help="seed of the first pair; pair k of the j-th workload runs "
                         "seed + 100 j + k")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    counts = parse_pairs(args.pairs)
    seconds = 1.0 if args.quick else SECONDS
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}

    pairs, machine = [], None
    for j, (workload, count) in enumerate(counts.items()):
        for k in range(count):
            seed = args.seed + 100 * j + k
            first = "parent" if len(pairs) % 2 == 0 else "change"
            pair = {"workload": workload, "seed": seed, "trace": 0, "first": first}
            order = ("parent", "change") if first == "parent" else ("change", "parent")
            ops = {}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                pair[side], machine, ops[side] = run_side(
                    checkout, workload, seed, seconds, args.quick)
            shared = {key for key, _ in ops["parent"]} & {key for key, _ in ops["change"]}
            pair["ops_sha256"] = {side: ops_sha256(ops[side], shared) for side in ops}
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} traj_steps_per_s {pair[side]['metrics']['traj_steps_per_s']['value']:.4g}"
                for side in ("parent", "change")), flush=True)

    doc = {
        "tag": args.tag,
        "what": ("Alternating parent/change pairs of `python3 perfbench/run.py --workload W "
                 f"--seed S --seconds {seconds:g} --trace 0`" + (" --quick" if args.quick else "")
                 + ", each side run from its own checkout; the first side of each pair "
                 "alternates. `parent` and `change` hold each run's last stdout line "
                 "(the result line); `ops_sha256` hashes each run's op output digests "
                 "over the op keys both runs of the pair ran."),
        "machine": machine,
        "pairs": pairs,
        "summary": summarize(pairs, end_to_end),
    }
    path = args.out_dir / f"BENCH_{datetime.date.today().isoformat()}_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
