"""Workloads of the rootsource benchmark; one run of one workload per process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
                                   [--setup-only] [--smoke]

`run.py` starts this file as a child process with one BLAS thread, so that
``ru_maxrss`` is the workload's own peak.  The child prints one JSON object as
the last line of its standard output: the monotonic time at which its inputs
were ready, the operations and checks attempted and failed, and the metric
values (end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``).

Every input comes from ``--seed``: a run draws ``Spec.instances`` sequences,
each simulated from its own sub-seed and cut to exactly ``Spec.n`` events, so
timings compare across seeds at a fixed size.  Instances are run in turn until
``--seconds`` would be exceeded; each metric is the median over an instance's
repeats, averaged over the instances.  Correctness checks run outside the
timed spans; each one counts as attempted and, if it fails, as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import rootsource as rs  # noqa: E402
from rootsource import dataio  # noqa: E402

from tracing import Tracer  # noqa: E402

TOL = 1e-6          # rs.fit's default, the tolerance a CLI user gets
RATE = 2.5          # stationary events per time unit of the synthetic defaults
ORACLE_EVENTS = 10  # prefix length checked against the enumeration oracle
RW_M = 10           # running-window baseline RW10


@dataclass(frozen=True)
class Spec:
    n: int                      # events per instance
    instances: int              # distinct inputs per run, all from the seed
    window: float | None        # truncation window (None = exact mode)
    gamma: float = 0.3          # inheritance rate, simulated and supplied


# attribute_degenerate is not listed in BENCHMARK.json: its Python-bound
# timings spread more between runs on a shared 2-core host than the largest
# bound allows.  It still runs by name, with every check.
SPECS = {
    "pipeline_w20": Spec(n=8000, instances=3, window=20.0),
    "fit_exact": Spec(n=3000, instances=4, window=None),
    "attribute_degenerate": Spec(n=300, instances=3, window=20.0, gamma=1.0),
}
ATTRIBUTE_REPEATS = 5  # fit_exact's ~40 ms attribution step is timed as a median
# Tiny sizes for the smoke tests: every step and check, in about a second each.
SMOKE_SPECS = {
    "pipeline_w20": Spec(n=300, instances=2, window=20.0),
    "fit_exact": Spec(n=60, instances=2, window=None),
    "attribute_degenerate": Spec(n=30, instances=2, window=20.0, gamma=1.0),
}

# Function-level spans reported as "<name>.s" by the traced run.
LAYER_SPANS = (
    "simulate",
    "dataio.write_events", "dataio.read_events",
    "dataio.write_rootprob", "dataio.read_rootprob",
    "fitting.structure", "fitting.e_step", "fitting.m_rho_A",
    "fitting.m_theta_gamma", "fitting.objective",
    "rootprob.full", "rootprob.temporal", "rootprob.mark",
    "baselines.rw10", "metrics.evaluate", "metrics.mini_conversations",
)
# Counts that must repeat exactly whenever an instance is run again.
REPEATED_COUNTS = ("simulate.events", "fitting.pairs", "fitting.triples",
                   "rootprob.candidates", "fitting.sweeps")


# ------------------------------------------------------------------ inputs ---

def instance_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def prefix(events: rs.EventSequence, m: int) -> rs.EventSequence:
    """The first m events, observed up to midway to event m + 1."""
    ip = events.tok_indptr
    T = 0.5 * (events.times[m - 1] + events.times[m])
    return rs.EventSequence(events.times[:m], events.sources[:m], ip[:m + 1],
                            events.tok_index[:ip[m]], events.tok_count[:ip[m]],
                            T, events.S, events.V)


def draw(spec: Spec, seed: int):
    """Simulate the synthetic defaults until more than spec.n events, keep spec.n.

    Returns (events, true root sources, true parameters, events simulated).
    A prefix keeps the ground truth: parents precede their children.
    """
    params = rs.make_synthetic_params(seed=seed, gamma=spec.gamma)
    T = 1.2 * spec.n / RATE
    while True:
        events, truth = rs.simulate(rs.make_synthetic_config(T=T, seed=seed, params=params))
        if len(events) > spec.n:
            return prefix(events, spec.n), truth.roots[:spec.n], params, len(events)
        T *= 1.5


def initial_params(events: rs.EventSequence, nu: float = 10.0) -> rs.ModelParams:
    """The starting point `rootsource fit --nu 10` uses in maximum-likelihood mode.

    Passed explicitly to rs.fit so that the traced replay starts from the same
    point through public functions only.
    """
    S = events.S
    counts = events.token_counts_by_source() + 1.0
    n_s = np.bincount(events.sources, minlength=S).astype(np.float64)
    c = 0.1
    return rs.ModelParams(rho=n_s * c / events.T, A=np.full((S, S), (1.0 - c) / S),
                          theta=counts / counts.sum(axis=1, keepdims=True),
                          gamma=0.5, nu=nu)


def candidates(events: rs.EventSequence, window: float | None, nu: float) -> int:
    """Candidate parents a root pass visits: sum over i of i - lo_i."""
    n = len(events)
    if window is None:
        return n * (n - 1) // 2
    lo = np.searchsorted(events.times, events.times - window * nu, side="left")
    return int(np.sum(np.arange(n) - lo))


def structure_mb(structure: rs.PairStructure) -> float:
    """Computed size of the structure's own arrays (sum of nbytes), in MiB."""
    return sum(v.nbytes for v in vars(structure).values()
               if isinstance(v, np.ndarray)) / 2.0 ** 20


@dataclass
class Instance:
    k: int
    seed: int
    events: rs.EventSequence | None = None   # drawn in set-up, or in the pipeline
    roots: np.ndarray | None = None
    params: rs.ModelParams | None = None
    n_sim: int = 0
    sim_s: float = 0.0                        # traced set-up simulate span
    counts: dict | None = None                # first run's REPEATED_COUNTS


# ----------------------------------------------------------------- running ---

@dataclass
class Bench:
    name: str
    spec: Spec
    trace: bool
    workdir: Path
    plain: Tracer = field(default_factory=lambda: Tracer(detail=False))
    traced: Tracer = field(default_factory=lambda: Tracer(detail=True))
    attempted: int = 0
    failed: int = 0
    oracle_input: tuple | None = None   # (10-event prefix, parameters) of instance 0

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed [{self.name}]: {what} {detail}", file=sys.stderr)


def stochastic(r: np.ndarray) -> bool:
    return bool(np.all(r >= 0.0) and np.all(np.abs(r.sum(axis=1) - 1.0) <= 1e-9))


def fit_step(tr: Tracer, events, window, reference):
    """rs.fit to convergence, or with a reference fit its traced replay.

    The replay calls the public block updates in rs.fit's order for the
    number of sweeps the reference reported, with the last M-step skipped
    when the reference stopped on its tolerance test.
    Returns (params, final E-step state, report or None, clamps).
    """
    init = initial_params(events)
    if reference is None:
        report = rs.fit(events, init=init, window=window, tol=TOL)
        return report.params, report.eta, report, report.numerator_clamps
    trace = reference.elbo_trace
    tol_stop = (reference.converged and trace.size > 1
                and abs(trace[-1] - trace[-2]) <= TOL * max(1.0, abs(trace[-2])))
    prior = rs.PriorConfig.maximum_likelihood(events.S)
    with tr.layer("fitting.structure"):
        structure = rs.PairStructure(events, init.nu, window=window)
    params, diag = init, {}
    for sweep in range(1, reference.iterations + 1):
        with tr.layer("fitting.e_step"):
            state = rs.update_eta(events, params, structure)
        if sweep == reference.iterations and tol_stop:
            break
        with tr.layer("fitting.m_rho_A"):
            rho, A = rs.update_rho_alpha(events, state, prior, diag)
        with tr.layer("fitting.m_theta_gamma"):
            theta, gamma = rs.update_theta_gamma(events, state, (params.theta, params.gamma))
        params = rs.ModelParams(rho=rho, A=A, theta=theta, gamma=gamma, nu=params.nu)
    return params, state, None, diag.get("clamped", 0)


def pipeline_w20(b: Bench, tr: Tracer, inst: Instance, reference) -> dict:
    """README quick-start: simulate, events file, fit, root pass, RW10, evaluate,
    root-probability file."""
    spec = b.spec
    ev_path = b.workdir / "events.jsonl"
    rp_path = b.workdir / "rootprob.csv"
    with tr.span("pipeline"):
        with tr.layer("simulate"):
            events, roots, _, n_sim = draw(spec, inst.seed)
        with tr.layer("dataio.write_events"):
            dataio.write_events(events, ev_path)
        with tr.layer("dataio.read_events"):
            loaded = dataio.read_events(ev_path)
        with tr.span("fit"):
            params, state, report, clamps = fit_step(tr, loaded, spec.window, reference)
        with tr.span("attribute"):
            with tr.layer("rootprob.full"):
                r = rs.root_probabilities(loaded, params, window=spec.window)
        with tr.layer("baselines.rw10"):
            rw = rs.running_window(loaded, RW_M, loaded.S)
        with tr.layer("metrics.evaluate"):
            ev_r = rs.evaluate_root_probabilities(r, roots)
            ev_rw = rs.evaluate_root_probabilities(rw, roots)
        with tr.layer("dataio.write_rootprob"):
            dataio.write_rootprob(r, rp_path)
        with tr.layer("dataio.read_rootprob"):
            r_back = dataio.read_rootprob(rp_path)
    return dict(events=loaded, written=events, params=params, state=state,
                report=report, clamps=clamps, n_sim=n_sim, accuracy=ev_r.accuracy,
                rw_accuracy=ev_rw.accuracy, matrices=[r, rw, r_back], r=r, r_back=r_back,
                events_bytes=ev_path.stat().st_size, passes=1)


def pipeline_fit_exact(b: Bench, tr: Tracer, inst: Instance, reference) -> dict:
    """rs.fit with no window, then the threads of its most probable parents."""
    events = inst.events
    with tr.span("pipeline"):
        with tr.span("fit"):
            params, state, report, clamps = fit_step(tr, events, None, reference)
        with tr.span("attribute") as span:
            with tr.layer("metrics.mini_conversations"):
                conv = rs.mini_conversations(state, events)
    calls = [span[4] - span[3]]
    for _ in range(ATTRIBUTE_REPEATS - 1):
        t0 = time.perf_counter()
        rs.mini_conversations(state, events)
        calls.append(time.perf_counter() - t0)
    root_src = np.empty(len(events), dtype=np.int64)
    for members in conv.conversations:
        root_src[np.asarray(members) - 1] = events.sources[members[0] - 1]
    return dict(events=events, params=params, state=state, report=report,
                clamps=clamps, n_sim=inst.n_sim,
                accuracy=float(np.mean(root_src == inst.roots)), matrices=[], passes=0,
                attribute_s=statistics.median(calls))


def pipeline_degenerate(b: Bench, tr: Tracer, inst: Instance, reference) -> dict:
    """User-supplied parameters with gamma = 1: one E-step and three root passes."""
    events, params, w = inst.events, inst.params, b.spec.window
    with tr.span("pipeline"):
        with tr.span("fit"):
            with tr.layer("fitting.structure"):
                structure = rs.PairStructure(events, params.nu, window=w)
            with tr.layer("fitting.e_step"):
                state = rs.update_eta(events, params, structure)
        with tr.span("attribute"):
            with tr.layer("rootprob.full"):
                r = rs.root_probabilities(events, params, window=w)
            with tr.layer("rootprob.temporal"):
                r_t = rs.root_probabilities_temporal(events, params, window=w)
            with tr.layer("rootprob.mark"):
                r_m = rs.root_probabilities_mark(events, params, window=w)
    return dict(events=events, params=params, state=state, report=None, clamps=0,
                n_sim=inst.n_sim, accuracy=rs.identification_accuracy(r, inst.roots),
                matrices=[r, r_t, r_m], passes=3)


PIPELINES = {
    "pipeline_w20": pipeline_w20,
    "fit_exact": pipeline_fit_exact,
    "attribute_degenerate": pipeline_degenerate,
}


def check_outputs(b: Bench, out: dict) -> None:
    """Checks on one untraced pipeline's outputs (the ELBO one is separate)."""
    report = out["report"]
    if report is not None:
        trace = report.elbo_trace
        b.check("fit converged", report.converged, f"after {report.iterations} sweeps")
        worst = float(np.diff(trace).min()) if trace.size > 1 else 0.0
        b.check("ELBO trace does not decrease", worst >= -1e-8, f"worst step {worst:+.3e}")
    for m in out["matrices"]:
        b.check("root-probability rows are stochastic", stochastic(m.r), m.mode)
    state = out["state"]
    st = state.structure
    rows = state.eta0 + np.bincount(st.pair_i, weights=state.eta_pair, minlength=len(state))
    b.check("E-step rows are stochastic", bool(np.all(np.abs(rows - 1.0) <= 1e-9)))
    if b.name == "pipeline_w20":
        b.check("accuracy above RW10", out["accuracy"] > out["rw_accuracy"],
                f"{out['accuracy']:.4f} vs {out['rw_accuracy']:.4f}")
        ev, back = out["written"], out["events"]
        same = (ev.T == back.T and ev.S == back.S and ev.V == back.V
                and all(np.array_equal(getattr(ev, a), getattr(back, a))
                        for a in ("times", "sources", "tok_indptr", "tok_index", "tok_count")))
        b.check("events file round trip is bit-exact", same)
        b.check("root-probability file round trip is bit-exact",
                out["r_back"].mode == out["r"].mode
                and np.array_equal(out["r_back"].r, out["r"].r))


def check_elbo(b: Bench, events, params, state, report, tr: Tracer | None = None) -> None:
    """rs.elbo on the final state equals the last value of fit's trace."""
    prior = rs.PriorConfig.maximum_likelihood(events.S)
    if tr is None:
        value = rs.elbo(events, params, state, prior)
    else:
        with tr.layer("fitting.objective"):
            value = rs.elbo(events, params, state, prior)
    last = float(report.elbo_trace[-1])
    b.check("ELBO of final state equals fit's last trace value",
            abs(value - last) <= 1e-9 * max(1.0, abs(last)), f"{value!r} vs {last!r}")


def counts_of(b: Bench, out: dict) -> dict:
    st = out["state"].structure
    report = out["report"]
    return {
        "simulate.events": out["n_sim"],
        "fitting.pairs": int(st.n_pairs),
        "fitting.triples": int(st.tri_pair.size),
        "rootprob.candidates": out["passes"] * candidates(out["events"], b.spec.window,
                                                          out["params"].nu),
        "fitting.sweeps": report.iterations if report is not None else 0,
    }


def check_counts(b: Bench, inst: Instance, counts: dict) -> None:
    if inst.counts is None:
        inst.counts = counts
        return
    b.check("counts repeat exactly for the seed", counts == inst.counts,
            f"instance {inst.k}: {counts} vs {inst.counts}")


def iteration(b: Bench, inst: Instance) -> dict:
    """One untraced pipeline (and with tracing, its traced replay) plus checks.

    Returns the numbers this iteration contributes; big arrays die here.
    """
    pipeline = PIPELINES[b.name]
    first = len(b.plain.spans)
    out = pipeline(b, b.plain, inst, None)
    plain = b.plain.summary(first)["totals"]
    check_outputs(b, out)
    counts = counts_of(b, out)
    check_counts(b, inst, counts)
    if b.oracle_input is None:
        b.oracle_input = (prefix(out["events"], ORACLE_EVENTS), out["params"])
    if not b.trace:
        if out["report"] is not None:
            check_elbo(b, out["events"], out["params"], out["state"], out["report"])
        return {"pipeline_s": plain["pipeline"], "fit_s": plain["fit"],
                "attribute_s": out.get("attribute_s", plain["attribute"]),
                "id_accuracy": out["accuracy"]}

    first = len(b.traced.spans)
    traced = pipeline(b, b.traced, inst, out["report"])
    if out["report"] is not None:
        same = (np.array_equal(traced["params"].rho, out["params"].rho)
                and np.array_equal(traced["params"].A, out["params"].A)
                and np.array_equal(traced["params"].theta, out["params"].theta)
                and traced["params"].gamma == out["params"].gamma
                and np.array_equal(traced["state"].eta_pair, out["state"].eta_pair)
                and np.array_equal(traced["state"].eta0, out["state"].eta0))
        b.check("traced replay reproduces fit bit for bit", same)
        check_elbo(b, traced["events"], traced["params"], traced["state"],
                   out["report"], b.traced)
    summary = b.traced.summary(first)
    totals = summary["totals"]
    rec = {f"{name}.s": totals.get(name, 0.0) for name in LAYER_SPANS}
    rec.update({f"{layer}.self_s": s for layer, s in summary["self"].items()})
    rec["simulate.s"] += inst.sim_s
    rec["simulate.self_s"] += inst.sim_s
    rec["trace.overhead_s"] = totals["pipeline"] - plain["pipeline"]
    rec.update(counts)
    st = traced["state"].structure
    rec.update({
        "dataio.events_bytes": out.get("events_bytes", 0),
        "fitting.structure_mb": structure_mb(st),
        "fitting.e_step.calls": sum(1 for s in b.traced.spans[first:]
                                    if s[1] == "fitting.e_step"),
        "fitting.clamps": traced["clamps"],
    })
    return rec


def setup(name: str, spec: Spec, seed: int, tracer: Tracer) -> list:
    """Draw the instances; workloads other than pipeline_w20 simulate here."""
    instances = [Instance(k, instance_seed(seed, k)) for k in range(spec.instances)]
    if name == "pipeline_w20":
        return instances
    for inst in instances:
        with tracer.layer("simulate") as rec:
            inst.events, inst.roots, inst.params, inst.n_sim = draw(spec, inst.seed)
        if rec is not None:
            inst.sim_s = rec[4] - rec[3]
    return instances


def measure(b: Bench, instances: list, seconds: float) -> dict:
    """Run the instances in turn: one full round, then while time is left."""
    samples: dict[int, list] = {inst.k: [] for inst in instances}
    last: dict[int, float] = {}
    start = time.monotonic()
    i = 0
    while True:
        inst = instances[i % len(instances)]
        if i >= len(instances) and time.monotonic() - start + last[inst.k] > seconds:
            break
        t0 = time.monotonic()
        b.attempted += 1
        try:
            samples[inst.k].append(iteration(b, inst))
        except (rs.ValidationError, rs.NumericalError):
            b.failed += 1
            traceback.print_exc()
        last[inst.k] = time.monotonic() - t0
        i += 1
    return samples


def aggregate(samples: dict) -> dict:
    """Median over each instance's repeats, averaged over the instances."""
    per_inst = [recs for recs in samples.values() if recs]
    if len(per_inst) < len(samples):
        raise SystemExit("an instance produced no successful pipeline run")
    keys = per_inst[0][0].keys()
    return {key: statistics.fmean(statistics.median(r[key] for r in recs)
                                  for recs in per_inst) for key in keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not Path(rs.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rootsource imported from {rs.__file__}, not this checkout")
    spec = (SMOKE_SPECS if args.smoke else SPECS)[args.workload]
    trace = bool(args.trace)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    b = Bench(args.workload, spec, trace, workdir)
    instances = setup(args.workload, spec, args.seed, b.traced if trace else b.plain)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        samples = measure(b, instances, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = aggregate(samples)

    small, params = b.oracle_input
    want = rs.enumerate_oracle(small, params).r
    got = rs.root_probabilities(small, params, window=None).r
    worst = float(np.max(np.abs(want - got)))
    b.check("10-event prefix matches the enumeration oracle", worst <= 1e-10,
            f"max |diff| = {worst:.2e}")

    if trace:
        trace_path = HERE / ".work" / f"trace-{args.workload}-seed{args.seed}.json"
        b.traced.write(trace_path)
    else:
        metrics["events_per_s"] = spec.n / metrics["pipeline_s"]
        metrics["peak_rss_mb"] = peak_mb
    print(json.dumps({"ready": ready, "attempted": b.attempted, "failed": b.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
