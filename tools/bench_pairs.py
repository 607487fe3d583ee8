"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python tools/bench_pairs.py --parent DIR --change DIR [--pairs 10]
        [--seconds 45] [--seed0 N] [--workloads NAME ...] [--smoke] --out FILE

Each DIR is the root of a checkout with its own ``perfbench/`` and
``BENCHMARK.json`` (make the parent's, for example, with
``git archive HEAD | tar -x -C DIR``).  Pair k (from 1) runs every workload
once in each tree at seed seed0 + k - 1, the parent first in odd pairs and
the change first in even ones, with ``--trace 0``; the first run that exits
with an error stops the whole comparison.  The end-to-end metrics and their
bounds come from the change's ``BENCHMARK.json``.

FILE receives every run's result, the per-pair values and, per workload and
end-to-end metric: each side's quartiles, how many pairs the change won,
its median's relative change in the worse direction, the parent's
interquartile range over its median, the bound and a verdict:

- "worse than its bound": the change's median is worse than the parent's
  by more than the bound;
- "unresolved": the parent's interquartile range exceeds the bound, so a
  change of the bound's size cannot be told from the runs' spread;
- "within": neither.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_one(tree: Path, command: list, workload: str, seed: int, seconds: float,
            smoke: bool) -> dict:
    """One benchmark run in tree; exits on a failed run."""
    cmd = [sys.executable, *command[1:]] if command[0].startswith("python") else list(command)
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"] + (["--smoke"] if smoke else [])
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed in {tree} with status "
                         f"{proc.returncode}:\n{proc.stderr}")
    return {"status": proc.returncode, "wall": wall, "result": json.loads(lines[-1]),
            "stderr": proc.stderr}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "runs": values}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """The summary of one metric over the pairs, parent[k] and change[k]."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    spread = (p["q3"] - p["q1"]) / p["median"]
    if worse_by > bound:
        verdict = "worse than its bound"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"parent": p, "change": c,
            "change_won": sum(sign * (y - x) < 0 for x, y in zip(parent, change)),
            "worse_by": worse_by, "parent_iqr_over_median": spread, "bound": bound,
            "better": better, "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--smoke", action="store_true", help="the benchmark's tiny inputs")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for k in range(1, args.pairs + 1):
        seed = args.seed0 + k - 1
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for workload in workloads:
            for side in order:
                run = run_one(trees[side], spec["command"], workload, seed, args.seconds,
                              args.smoke)
                runs.append({"pair": k, "workload": workload, "side": side,
                             "first": order[0], "seed": seed, **run})
                print(f"pair {k} {workload} {side}: failed {run['result']['failed']} of "
                      f"{run['result']['attempted']}", file=sys.stderr)

    summary, by_pair = {}, {}
    for workload in workloads:
        # each side's results in pair order
        got = {side: [r["result"] for r in runs if (r["workload"], r["side"]) == (workload, side)]
               for side in trees}
        value = {side: {m["name"]: [x["metrics"][m["name"]]["value"] for x in got[side]]
                        for m in metrics} for side in trees}
        by_pair[workload] = [
            {"pair": k, "seed": args.seed0 + k - 1, "first": "parent" if k % 2 else "change",
             **{side: {name: v[k - 1] for name, v in value[side].items()} for side in trees}}
            for k in range(1, args.pairs + 1)]
        summary[workload] = {
            "pairs": args.pairs,
            "failed": {side: sum(x["failed"] for x in got[side]) for side in trees},
            "attempted": {side: sum(x["attempted"] for x in got[side]) for side in trees},
            "metrics": {m["name"]: compare(value["parent"][m["name"]], value["change"][m["name"]],
                                           m["better"], m["bound"]) for m in metrics},
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"{workload:<14}{name:<14}{s['parent']['median']:>12.4g}"
                  f"{s['change']['median']:>12.4g}{s['worse_by']:>+9.1%} "
                  f"won {s['change_won']}/{args.pairs}  IQR {s['parent_iqr_over_median']:.1%}"
                  f"  bound {s['bound']:.0%}  {s['verdict']}")
    args.out.write_text(json.dumps({
        "parent": str(trees["parent"]), "change": str(trees["change"]),
        "seconds": args.seconds, "smoke": args.smoke, "seeds": [args.seed0, args.seed0 + args.pairs - 1],
        "order": "parent first in odd pairs", "pairs": summary, "by_pair": by_pair, "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
