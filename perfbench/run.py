"""Entry point of the rootsource benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh child processes
(`workloads.py`) with one BLAS/OpenMP thread.  Four set-up-only children and
the measuring child each report when their inputs were ready; ``setup_s`` is
the median time from starting a child to that point (interpreter start,
``import rootsource``, input generation).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its per-layer
metrics with ``--trace 1``.  ``failed / attempted`` is the error rate.
Without ``src/rootsource`` next to this directory it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list, deadline: float) -> tuple[float, dict]:
    """Start workloads.py; return (its start time, its final JSON line)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"workload child exceeded the {DEADLINE_S:.0f} s deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload child failed with status {proc.returncode}")
    return started, json.loads(lines[-1])


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description="rootsource benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rootsource" / "__init__.py").is_file():
        print(f"no rootsource package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = t_start + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        common.append("--smoke")
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            started, probe = run_child(common + ["--setup-only"], deadline)
            setups.append(probe["ready"] - started)
    started, result = run_child(common, deadline)
    values = result["metrics"]
    if not args.trace:
        setups.append(result["ready"] - started)
        values["setup_s"] = statistics.median(setups)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"workload reported no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
