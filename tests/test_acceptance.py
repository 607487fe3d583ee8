"""End-to-end acceptance suite.

Each criterion is one test that prints a single summary line (run with -s to
see them on passing runs).  The synthetic fits are shared across criteria via
a module fixture, so the whole module runs in a few minutes.
"""

import json
import pathlib
import time

import numpy as np
import pytest
from click.testing import CliRunner

import rootsource as rs
from rootsource.baselines import running_window
from rootsource.cli import cli
from rootsource.dataio import RawComment, ingest, read_raw_comments, write_events
from rootsource.fitting import elbo, fit, update_eta
from rootsource.metrics import identification_accuracy, relative_square_error
from rootsource.rootprob import (
    enumerate_oracle,
    enumerate_posteriors,
    root_probabilities,
    root_probabilities_mark,
    root_probabilities_temporal,
)
from rootsource.simulate import SimConfig, make_synthetic_config, simulate
from util import dense_eta, random_events, random_instance, random_params

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2, 3, 4)
SIZES = (1000, 3000, 10000)
RATE = 2.5  # stationary events per time unit of the synthetic setup
WINDOW = 20.0
BASELINE_KEYS = ("temporal", "mark", "rw1", "rw10", "rwinf")


@pytest.fixture(scope="module")
def synthetic_runs():
    """Five-seed synthetic study: fits at n in {1000, 3000, 10000} plus the
    n=10000 root-probability accuracies for every method."""
    out = {"rse_A": {n: [] for n in SIZES}, "rse_theta": [], "traces": [],
           "acc": {k: [] for k in ("true", "fit") + BASELINE_KEYS}}
    for seed in SEEDS:
        for n_target in SIZES:
            cfg = make_synthetic_config(T=n_target / RATE, seed=seed)
            events, truth = simulate(cfg)
            report = fit(events, nu=cfg.params.nu, window=WINDOW)
            out["traces"].append(report.elbo_trace)
            out["rse_A"][n_target].append(
                relative_square_error(report.params.A, cfg.params.A))
            if n_target != SIZES[-1]:
                continue
            out["rse_theta"].append([
                relative_square_error(report.params.theta[s], cfg.params.theta[s])
                for s in range(cfg.params.S)])
            roots = truth.roots
            acc = out["acc"]
            acc["true"].append(identification_accuracy(
                root_probabilities(events, cfg.params, window=WINDOW), roots))
            acc["fit"].append(identification_accuracy(
                root_probabilities(events, report.params, window=WINDOW), roots))
            acc["temporal"].append(identification_accuracy(
                root_probabilities_temporal(events, report.params, window=WINDOW),
                roots))
            acc["mark"].append(identification_accuracy(
                root_probabilities_mark(events, report.params, window=WINDOW),
                roots))
            acc["rw1"].append(identification_accuracy(
                running_window(events, 1, events.S), roots))
            acc["rw10"].append(identification_accuracy(
                running_window(events, 10, events.S), roots))
            acc["rwinf"].append(identification_accuracy(
                running_window(events, np.inf, events.S), roots))
    return out


def test_criterion_1_recursion_matches_enumeration():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))       # n <= 8
        S = int(rng.integers(1, 5))       # S <= 4
        V = int(rng.integers(2, 21))      # V <= 20
        events = random_events(rng, n, S, V)
        params = random_params(rng, S, V)
        got = root_probabilities(events, params).r
        want = enumerate_oracle(events, params).r
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, worst
    assert elapsed < 10.0, elapsed
    print(f"\n[criterion 1] PASS — recursion vs enumeration on 100 instances: "
          f"max |diff| = {worst:.2e} (<= 1e-10), {elapsed:.1f}s (< 10s)")


def test_criterion_2_estep_reproduces_exact_posteriors():
    rng = np.random.default_rng(202)
    worst_eta = worst_obj = 0.0
    for _ in range(25):
        events, params = random_instance(rng, n_max=7)  # n <= 6
        state = update_eta(events, params)
        got = dense_eta(state)
        _, eta_exact, log_marginal = enumerate_posteriors(events, params)
        worst_eta = max(worst_eta, float(np.abs(got - eta_exact).max()))
        worst_obj = max(worst_obj, abs(elbo(events, params, state) - log_marginal))
    assert worst_eta <= 1e-10, worst_eta
    assert worst_obj <= 1e-8, worst_obj
    print(f"\n[criterion 2] PASS — E-step vs exact posteriors on 25 instances: "
          f"max |eta diff| = {worst_eta:.2e} (<= 1e-10), "
          f"max |objective - log marginal| = {worst_obj:.2e} (<= 1e-8)")


def test_criterion_3_objective_is_monotone(synthetic_runs):
    rng = np.random.default_rng(303)
    worst = np.inf
    for _ in range(50):
        events, params = random_instance(rng)
        trace = fit(events, init=params).elbo_trace
        if trace.size > 1:
            worst = min(worst, float(np.diff(trace).min()))
    for trace in synthetic_runs["traces"]:  # includes the full-scale runs
        worst = min(worst, float(np.diff(trace).min()))
    assert worst >= -1e-8, worst
    print(f"\n[criterion 3] PASS — 50 small fits + 15 full-scale fits: "
          f"smallest sweep-to-sweep change = {worst:+.3e} (>= -1e-8)")


def test_criterion_4_parameter_recovery_trend(synthetic_runs):
    med_A = {n: float(np.median(synthetic_runs["rse_A"][n])) for n in SIZES}
    assert med_A[1000] > med_A[3000] > med_A[10000], med_A
    med_theta = np.median(np.array(synthetic_runs["rse_theta"]), axis=0)
    assert np.all(np.diff(med_theta) < 0), med_theta  # longer texts -> lower RSE
    print(f"\n[criterion 4] PASS — median RSE(A) over 5 seeds: "
          + " > ".join(f"{med_A[n]:.4f}@n={n}" for n in SIZES)
          + "; median RSE(theta) by source (mean lengths 10..50): "
          + " ".join(f"{v:.4f}" for v in med_theta))


def test_criterion_5_identification_ordering(synthetic_runs):
    acc = {k: np.array(v) for k, v in synthetic_runs["acc"].items()}
    marginal = {k: float(np.median(v)) for k, v in acc.items()}
    paired_true = float(np.median(acc["true"] - acc["fit"]))
    paired_base = {k: float(np.median(acc["fit"] - acc[k])) for k in BASELINE_KEYS}
    gap = float(np.median(np.abs(acc["fit"] - acc["true"])))
    # the fitted model converges to the true-parameter scorer at this scale,
    # so TRUE vs FIT is compared on paired per-seed differences (the marginal
    # medians can invert by well under the seed noise); both views printed
    assert paired_true >= 0.0, (paired_true, marginal)
    for k, v in paired_base.items():
        assert v > 0.0, (k, v, marginal)
    assert gap <= 0.05, gap
    print(f"\n[criterion 5] PASS — n=10000, 5 seeds. "
          f"paired medians: TRUE-FIT = {paired_true:+.4f} (>= 0), "
          + ", ".join(f"FIT-{k.upper()} = {paired_base[k]:+.4f}" for k in BASELINE_KEYS)
          + f" (all > 0); median |FIT-TRUE| = {gap:.4f} (<= 0.05); "
          f"marginal medians: "
          + " ".join(f"{k}={marginal[k]:.4f}"
                     for k in ("true", "fit") + BASELINE_KEYS))


def test_criterion_6_simulator_calibration():
    # (a) A = 0: per-source counts are Poisson(rho * T); dispersion is pooled
    # across the 5 identically-distributed sources for a stable statistic
    S, T = 5, 50.0
    params = rs.ModelParams(rho=np.full(S, 0.1), A=np.zeros((S, S)),
                            theta=np.random.default_rng(0).dirichlet(
                                np.ones(30), size=S),
                            gamma=0.3, nu=10.0)
    counts = np.empty((200, S))
    for seed in range(200):
        ev, _ = simulate(SimConfig(params=params, T=T, mean_text_length=3.0,
                                   seed=seed))
        counts[seed] = np.bincount(ev.sources, minlength=S)
    per_source = counts.var(axis=0, ddof=1) / counts.mean(axis=0)
    pooled = float(counts.var(ddof=1) / counts.mean())
    assert 0.8 <= pooled <= 1.2, (pooled, per_source)

    # (b) full A: mean count within 3 sigma of sum_s rho_s T / (1 - 0.8)
    totals = []
    for seed in range(1000, 1060):
        cfg = make_synthetic_config(T=1000.0, seed=seed, V=200)
        totals.append(len(simulate(cfg)[0]))
    totals = np.array(totals, dtype=float)
    expect = 5 * 0.1 * 1000.0 / (1.0 - 0.8)
    sigma = float(totals.std(ddof=1))
    gap = abs(float(totals.mean()) - expect)
    assert gap <= 3 * sigma, (totals.mean(), expect, sigma)

    # (c) offspring tokens are parent copies at rate gamma = 0.3
    inherited = total = 0.0
    for seed in range(8):
        events, truth = simulate(make_synthetic_config(T=2000.0, seed=seed))
        off = truth.branching.parent > 0
        inherited += truth.inherited_tokens[off].sum()
        total += events.lengths[off].sum()
    frac = inherited / total
    assert abs(frac - 0.3) <= 0.02, frac
    print(f"\n[criterion 6] PASS — A=0 dispersion: pooled {pooled:.3f} in "
          f"[0.8, 1.2] (per-source: "
          + " ".join(f"{v:.3f}" for v in per_source)
          + f"); full-A mean count {totals.mean():.1f} vs {expect:.0f} "
          f"(|gap| = {gap:.1f} <= 3 sigma = {3 * sigma:.1f}); "
          f"inheritance fraction {frac:.4f} in 0.3 +/- 0.02")


def test_criterion_7_invariance_properties():
    rng = np.random.default_rng(707)
    worst_scale = worst_prefix = 0.0
    for _ in range(20):
        events, params = random_instance(rng)
        base = root_probabilities(events, params).r
        for c in (1e-3, 7.0, 1e4):
            scaled = rs.ModelParams(rho=c * params.rho, A=c * params.A,
                                    theta=params.theta, gamma=params.gamma,
                                    nu=params.nu)
            got = root_probabilities(events, scaled).r
            worst_scale = max(worst_scale, float(np.abs(got - base).max()))
        for m in {len(events) // 2, len(events) - 1} - {0}:
            prefix = rs.EventSequence.from_events(list(events)[:m], T=events.T,
                                                  S=events.S, V=events.V)
            got = root_probabilities(prefix, params).r
            worst_prefix = max(worst_prefix, float(np.abs(got - base[:m]).max()))
    assert worst_scale <= 1e-12, worst_scale
    assert worst_prefix <= 1e-12, worst_prefix
    print(f"\n[criterion 7] PASS — invariance over 20 instances: intensity "
          f"rescaling {worst_scale:.2e}, prefix consistency {worst_prefix:.2e} "
          f"(both <= 1e-12)")


def test_criterion_8_pipeline_on_files(tmp_path):
    # reference metric numbers need external datasets that are not bundled;
    # this validates the identical pipeline and file formats on simulated
    # data, and the ingestion recipe on a synthesized raw-comment stream
    runner = CliRunner()
    d = tmp_path

    res = runner.invoke(cli, ["simulate", "--T", "200", "--S", "3", "--V", "100",
                              "--seed", "0", "--events", str(d / "ev.jsonl"),
                              "--truth", str(d / "tr.jsonl")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli, ["fit", "--events", str(d / "ev.jsonl"),
                              "--nu", "10.0", "--empirical-bayes", "--c", "0.1",
                              "--params-out", str(d / "fit.json")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli, ["root-prob", "--events", str(d / "ev.jsonl"),
                              "--params", str(d / "fit.json"),
                              "--out", str(d / "rp.csv")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli, ["evaluate", "--rootprob", str(d / "rp.csv"),
                              "--truth", str(d / "tr.jsonl"),
                              "--out", str(d / "eval.json")])
    assert res.exit_code == 0, res.output
    doc = json.loads((d / "eval.json").read_text())
    assert doc["schema"] == "eval-v1"
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert len(doc["power"]) == 3

    # raw-comment ingestion leg of the recipe
    rng = np.random.default_rng(8)
    words = [f"w{k}" for k in range(30)]
    lines = []
    for k in range(120):
        author = f"user{int(rng.integers(0, 6))}"
        text = " ".join(rng.choice(words, size=int(rng.integers(2, 8))))
        lines.append(json.dumps({"t": float(k) + float(rng.random()) * 0.5,
                                 "author": author, "text": text}))
    (d / "raw.jsonl").write_text("\n".join(lines) + "\n")
    raws = read_raw_comments(d / "raw.jsonl")
    events, vocab, source_map = ingest(raws, min_count=2, min_author_count=5,
                                       jitter=1e-6)
    assert vocab.V > 0 and len(source_map) >= 2
    write_events(events, d / "ingested.jsonl")
    res = runner.invoke(cli, ["fit", "--events", str(d / "ingested.jsonl"),
                              "--nu", "5.0", "--empirical-bayes",
                              "--max-iters", "30",
                              "--params-out", str(d / "ingested_fit.json")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli, ["root-prob", "--events", str(d / "ingested.jsonl"),
                              "--params", str(d / "ingested_fit.json"),
                              "--out", str(d / "ingested_rp.csv")])
    assert res.exit_code == 0, res.output

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    assert "Fitting your own comment data" in readme.read_text()
    print("\n[criterion 8] PASS — simulate/ingest -> fit -> root-prob -> "
          "evaluate ran end-to-end through the documented file formats; "
          "external-dataset recipe documented in README.md "
          f"(simulated-run accuracy {doc['accuracy']:.3f})")


def test_criterion_9_runtime_scaling():
    from rootsource.bench import run_bench

    # each row is the fastest of 16 sweeps of 2-30 ms, so that a burst of
    # load on a shared host has to cover all of them to move a row
    report = run_bench([1000, 2000, 4000, 8000], window=WINDOW, sweeps=16, seed=0)
    a, b, r2 = report.sweep_fit()
    assert r2 >= 0.95, (r2, [(r.n, r.sweep_seconds) for r in report.rows])

    exact = run_bench([1000, 2000, 4000], window=None, sweeps=2, seed=0)
    pairs = ", ".join(f"n={r.n}: {r.sweep_seconds:.3f}s" for r in exact.rows)
    print(f"\n[criterion 9] PASS — truncated-window sweep time vs n: "
          f"R^2 = {r2:.4f} (>= 0.95), slope {a:.2e}s/event; "
          f"exact mode (quadratic, no bar): {pairs}")
