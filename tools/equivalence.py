"""Check that two checkouts compute byte-identical outputs on the benchmark's inputs.

    python tools/equivalence.py --parent DIR --change DIR [--smoke]

Each DIR is the root of a checkout with its own ``src/`` and ``perfbench/``
(make the parent's, for example, with ``git archive HEAD | tar -x -C DIR``).
One child process per tree imports that tree's package and its perfbench
``draw`` and ``initial_params`` (perfbench is only read) and, on instance 0
of perfbench seed 7 of each listed workload (the smoke sizes with
``--smoke``), records:

- the fitted rho, A, theta and gamma, and the ELBO trace, of ``rs.fit`` as
  perfbench calls it;
- ``elbo`` at the fitted parameters and at one further M-step, each without
  a prior and with the empirical-Bayes one;
- the fit's eta0 and eta_overlap, and the ``mini_conversations`` parents;
- the full, temporal and mark root passes at the fitted gamma and at
  gamma = 0 and 1, after the fit (on its events, whose layout and last
  E-step are alive) and cold (on a deep copy of them, one per pass).

It prints one line per array, "identical" or the largest absolute
difference, and exits with status 1 on any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 7
WORKLOADS = ("pipeline_w20", "fit_exact")
PASSES = ("full", "temporal", "mark")


def record(tree: Path, smoke: bool) -> dict:
    """Every compared array of one tree, by name; run in that tree's child."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import rootsource as rs
    import workloads as wl

    if not Path(rs.__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"imported {rs.__file__}, not the package of {tree}")
    passes = dict(zip(PASSES, (rs.root_probabilities, rs.root_probabilities_temporal,
                               rs.root_probabilities_mark)))
    out = {}
    for name in WORKLOADS:
        spec = (wl.SMOKE_SPECS if smoke else wl.SPECS)[name]
        events = wl.draw(spec, wl.instance_seed(SEED, 0))[0]
        report = rs.fit(events, init=wl.initial_params(events), window=spec.window, tol=wl.TOL)
        p = report.params
        out.update({f"{name} {k}": np.asarray(getattr(p, k)) for k in ("rho", "A", "theta", "gamma")})
        out[f"{name} elbo_trace"] = report.elbo_trace
        rho, A = rs.update_rho_alpha(events, report.eta, rs.PriorConfig.maximum_likelihood(events.S))
        theta, gamma = rs.update_theta_gamma(events, report.eta, (p.theta, p.gamma))
        further = rs.ModelParams(rho=rho, A=A, theta=theta, gamma=gamma, nu=p.nu)
        for where, params in (("fitted", p), ("one M-step further", further)):
            for label, prior in (("no prior", None),
                                 ("empirical Bayes", rs.PriorConfig.empirical_bayes(events))):
                out[f"{name} elbo {where}, {label}"] = np.float64(
                    rs.elbo(events, params, report.eta, prior))
        out[f"{name} eta0"] = report.eta.eta0
        out[f"{name} eta_overlap"] = report.eta.eta_overlap
        out[f"{name} mini_conversations parents"] = rs.mini_conversations(
            report.eta, events).branching.parent
        for g in (p.gamma, 0.0, 1.0):
            at = rs.ModelParams(rho=p.rho, A=p.A, theta=p.theta, gamma=g, nu=p.nu)
            label = "fitted gamma" if g is p.gamma else f"gamma {g:g}"
            for kind, compute in passes.items():
                out[f"{name} {kind} pass after a fit, {label}"] = compute(
                    events, at, window=spec.window).r
                out[f"{name} {kind} pass cold, {label}"] = compute(
                    copy.deepcopy(events), at, window=spec.window).r
    return out


def difference(a: np.ndarray, b: np.ndarray) -> str | None:
    """None when a and b are byte-identical arrays of one dtype and shape,
    else what differs: the largest absolute difference where they compare."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{a.dtype}{list(a.shape)} against {b.dtype}{list(b.shape)}"
    if a.tobytes() == b.tobytes():
        return None
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.where(a == b, 0.0, np.abs(a.astype(np.float64) - b.astype(np.float64)))
    return f"largest absolute difference {float(gap.max())!r}"


def compare(parent: dict, change: dict) -> list:
    """(name, None or what differs) per array of either side, in the parent's order."""
    rows = [(name, difference(value, change[name]) if name in change else "missing in the change")
            for name, value in parent.items()]
    return rows + [(name, "missing in the parent") for name in change if name not in parent]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--smoke", action="store_true", help="perfbench's smoke sizes")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)  # tree to record
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)  # the child's .npz
    args = ap.parse_args(argv)
    if args.child is not None:
        np.savez(args.out, **record(args.child.resolve(), args.smoke))
        return 0
    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")

    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side in ("parent", "change"):
            out = Path(tmp) / f"{side}.npz"
            subprocess.run([sys.executable, __file__, "--child", str(getattr(args, side)),
                            "--out", str(out)] + (["--smoke"] if args.smoke else []), check=True)
            with np.load(out) as data:
                got[side] = {name: data[name] for name in data.files}
    rows = compare(got["parent"], got["change"])
    width = max(len(name) for name, _ in rows)
    for name, what in rows:
        print(f"{name:<{width}}  {what or 'identical'}")
    differ = sum(what is not None for _, what in rows)
    print(f"{len(rows) - differ} of {len(rows)} arrays identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
