import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rootsource as rs
from rootsource.cli import cli, main
from rootsource.fitting import default_init as _default_init
from rootsource.dataio import (
    read_events,
    read_params,
    read_rootprob,
    read_truth,
    write_events,
    write_params,
)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, runner):
    """Simulated dataset plus a fitted model, shared across CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    res = runner.invoke(cli, [
        "simulate", "--T", "60", "--S", "3", "--V", "80", "--nu", "5.0",
        "--seed", "1", "--events", str(d / "ev.jsonl"),
        "--truth", str(d / "tr.jsonl"), "--params-out", str(d / "true.json"),
    ])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli, [
        "fit", "--events", str(d / "ev.jsonl"), "--nu", "5.0",
        "--params-out", str(d / "fit.json"), "--trace-out", str(d / "trace.csv"),
    ])
    assert res.exit_code == 0, res.output
    return d


def test_simulate_outputs_are_consistent(workdir):
    events = read_events(workdir / "ev.jsonl")
    truth = read_truth(workdir / "tr.jsonl")
    params = read_params(workdir / "true.json")
    assert len(events) == len(truth.parent) > 20
    assert params.S == 3 and params.V == 80
    assert np.all(truth.root_sources < 3)


def test_simulate_deterministic_seed(runner, tmp_path):
    for name in ("a", "b"):
        res = runner.invoke(cli, ["simulate", "--T", "30", "--S", "2", "--V", "40",
                                  "--seed", "9", "--events",
                                  str(tmp_path / f"{name}.jsonl")])
        assert res.exit_code == 0
    a = (tmp_path / "a.jsonl").read_text()
    assert a == (tmp_path / "b.jsonl").read_text()
    res = runner.invoke(cli, ["simulate", "--T", "30", "--S", "2", "--V", "40",
                              "--seed", "10", "--events", str(tmp_path / "c.jsonl")])
    assert res.exit_code == 0
    assert a != (tmp_path / "c.jsonl").read_text()


def test_global_seed_flows_into_subcommand(runner, tmp_path):
    res = runner.invoke(cli, ["--seed", "9", "simulate", "--T", "30", "--S", "2",
                              "--V", "40", "--events", str(tmp_path / "g.jsonl")])
    assert res.exit_code == 0
    res2 = runner.invoke(cli, ["simulate", "--T", "30", "--S", "2", "--V", "40",
                               "--seed", "9", "--events", str(tmp_path / "l.jsonl")])
    assert res2.exit_code == 0
    assert (tmp_path / "g.jsonl").read_text() == (tmp_path / "l.jsonl").read_text()


def test_fit_outputs(workdir):
    fitted = read_params(workdir / "fit.json")
    assert 0 < fitted.gamma < 1
    assert np.all(fitted.rho >= 0) and np.all(fitted.A >= 0)
    lines = (workdir / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,elbo"
    vals = [float(r.split(",")[1]) for r in lines[1:]]
    assert len(vals) >= 2
    assert np.all(np.diff(vals) >= -1e-8)


def test_fit_reports_what_the_window_dropped(runner, workdir, tmp_path):
    res = runner.invoke(cli, ["fit", "--events", str(workdir / "ev.jsonl"), "--nu", "5.0",
                              "--truncate-window", "2", "--max-iters", "3",
                              "--params-out", str(tmp_path / "p.json")])
    assert res.exit_code == 0, res.output
    assert "[fit] the window dropped at most" in res.stderr
    res = runner.invoke(cli, ["fit", "--events", str(workdir / "ev.jsonl"), "--nu", "5.0",
                              "--max-iters", "3", "--params-out", str(tmp_path / "q.json")])
    assert res.exit_code == 0, res.output
    assert "window dropped" not in res.stderr


def test_root_prob_and_baseline_and_evaluate(runner, workdir):
    for mode, expect in [("full", "full"), ("temporal", "temporal_only"),
                         ("mark", "mark_only")]:
        res = runner.invoke(cli, [
            "root-prob", "--events", str(workdir / "ev.jsonl"),
            "--params", str(workdir / "fit.json"), "--mode", mode,
            "--out", str(workdir / f"rp_{mode}.csv"),
        ])
        assert res.exit_code == 0, res.output
        assert read_rootprob(workdir / f"rp_{mode}.csv").mode == expect

    res = runner.invoke(cli, [
        "baseline", "--events", str(workdir / "ev.jsonl"), "--rw", "5",
        "--out", str(workdir / "rw5.csv"),
    ])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli, [
        "baseline", "--events", str(workdir / "ev.jsonl"), "--rw", "inf",
        "--include-self", "--out", str(workdir / "rwinf.csv"),
    ])
    assert res.exit_code == 0, res.output
    assert read_rootprob(workdir / "rw5.csv").mode == "running_window"

    res = runner.invoke(cli, [
        "evaluate", "--rootprob", str(workdir / "rp_full.csv"),
        "--truth", str(workdir / "tr.jsonl"),
        "--est-params", str(workdir / "fit.json"),
        "--true-params", str(workdir / "true.json"),
        "--out", str(workdir / "eval.json"),
    ])
    assert res.exit_code == 0, res.output
    assert "accuracy" in res.output
    doc = json.loads((workdir / "eval.json").read_text())
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert doc["rse_A"] >= 0.0
    model_acc = doc["accuracy"]

    res = runner.invoke(cli, [
        "evaluate", "--rootprob", str(workdir / "rwinf.csv"),
        "--truth", str(workdir / "tr.jsonl"), "--ks", "1,2",
        "--out", str(workdir / "eval_rw.json"),
    ])
    assert res.exit_code == 0, res.output
    rw_doc = json.loads((workdir / "eval_rw.json").read_text())
    assert set(rw_doc["top_k"]) == {"1", "2"}
    # the fitted model should beat the heuristic on its own simulation
    assert model_acc > rw_doc["accuracy"]


def test_stdin_stdout_streaming(runner):
    res = runner.invoke(cli, ["simulate", "--T", "25", "--S", "2", "--V", "30",
                              "--seed", "3", "--events", "-"])
    assert res.exit_code == 0
    ev_text = res.stdout
    assert ev_text.startswith('{"schema": "events-v1"')
    res = runner.invoke(cli, ["fit", "--events", "-", "--nu", "10.0",
                              "--params-out", "-"], input=ev_text)
    assert res.exit_code == 0, res.output
    params = read_params(io.StringIO(res.stdout))
    assert params.nu == 10.0


def test_config_file_supplies_required_options(runner, workdir, tmp_path):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"nu = 5.0\nevents = {workdir / 'ev.jsonl'}\n"
                   "max-iters = 3  # keep it quick\n")
    res = runner.invoke(cli, ["fit", "--config", str(cfg), "--params-out",
                              str(tmp_path / "p.json")])
    assert res.exit_code == 0, res.output
    assert read_params(tmp_path / "p.json").nu == 5.0
    # explicit flags beat config values
    res = runner.invoke(cli, ["fit", "--config", str(cfg), "--nu", "7.0",
                              "--params-out", str(tmp_path / "p7.json")])
    assert res.exit_code == 0, res.output
    assert read_params(tmp_path / "p7.json").nu == 7.0


def test_config_rejects_unknown_keys(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nu = 5.0\nbanana = 1\n")
    res = runner.invoke(cli, ["fit", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "banana" in res.output


def test_bench_smoke(runner, tmp_path):
    res = runner.invoke(cli, ["bench", "--scales", "60,120", "--sweeps", "1",
                              "--out", str(tmp_path / "bench.json")])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["schema"] == "bench-v8"
    assert doc["import_seconds"] > 0
    assert [r["target"] for r in doc["rows"]] == [60, 120]
    assert all(r["pairs"] > 0 and r["triples"] >= 0 for r in doc["rows"])
    for r in doc["rows"]:
        phases = (r["e_step_seconds"], r["rho_A_seconds"], r["theta_gamma_seconds"])
        assert min(phases) > 0
        assert r["sweep_seconds"] == pytest.approx(sum(phases))
        assert r["objective_seconds"] > 0
        assert r["threads_seconds"] > 0
        assert r["simulate_seconds"] > 0
        assert r["structure_mb"] > 0
        assert r["peak_rss_mb"] > 0
    assert "R^2" in res.output
    assert "cold start (import rootsource.cli)" in res.output
    res = runner.invoke(cli, ["bench", "--scales", "60,120", "--sweeps", "1", "--exact"])
    assert res.exit_code == 0, res.output
    assert "exact mode is O(n^2); linear fit shown for reference" in res.output


def test_bench_structure_mb_counts_the_cells(monkeypatch):
    built = []

    def record(*args, **kwargs):
        built.append(rs.PairStructure(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr("rootsource.bench.PairStructure", record)
    row = rs.run_bench([120], window=None, sweeps=1, seed=7).rows[0]
    attrs = vars(built[0])
    arrays = [v for v in attrs.values() if isinstance(v, np.ndarray)]
    assert len(attrs["cells"]) == 6
    # the lazily built cells tuple used to be left out
    want = sum(a.nbytes for a in arrays + list(attrs["cells"])) / 2.0 ** 20
    assert row.structure_mb == want > sum(a.nbytes for a in arrays) / 2.0 ** 20


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": "events-v1", "T": 5.0, "S": 1, "V": 1}\nnot json\n')
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--events", str(bad), "--nu", "1.0"])
    assert exc.value.code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, files, field", [
    (["fit", "--events", "ev.jsonl", "--nu", "1.0"],
     {"ev.jsonl": '{"schema": "events-v1", "S": 1, "V": 1}\n'}, "missing field 'T'"),
    (["evaluate", "--rootprob", "r.csv", "--truth", "tr.jsonl"],
     {"r.csv": "# rootprob-v1 mode=full\nevent_index,r_1,argmax_source\n1,1.0,1\n",
      "tr.jsonl": '["truth-v1"]\n'}, "header must be a JSON object"),
    (["root-prob", "--events", "ev.jsonl", "--params", "p.json"],
     {"ev.jsonl": '{"schema": "events-v1", "T": 2.0, "S": 1, "V": 1}\n'
                  '{"i": 1, "t": 1.0, "s": 1, "x": {"0": 1}}\n',
      "p.json": '{"schema": "params-v1", "rho": [0.5], "A": [[0.1]], "theta": [[1.0]], '
                '"nu": 1.0}'}, "missing field 'gamma'"),
], ids=["events-header", "truth-header", "params-field"])
def test_exit_code_malformed_file_names_the_field(argv, files, field, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and field in err
    assert "Traceback" not in err


def test_exit_code_pairs_beyond_memory(workdir, monkeypatch, capsys):
    # a machine too small for the exact layout of this tiny sequence
    monkeypatch.setattr("rootsource.layout._physical_memory", lambda: 1000)
    argv = ["fit", "--events", str(workdir / "ev.jsonl"), "--nu", "5.0",
            "--params-out", os.devnull]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--truncate-window" in capsys.readouterr().err


@pytest.mark.parametrize("prior", ["--ml", "--empirical-bayes"])
def test_exit_code_sources_beyond_memory(prior, tmp_path, monkeypatch, capsys):
    # a header's S of 10^30 reads fine; the memory guard refuses it before the
    # prior allocates anything S-sized (numpy would raise a bare ValueError)
    monkeypatch.setattr("rootsource.layout._physical_memory", lambda: 2**33)
    ev = tmp_path / "ev.jsonl"
    ev.write_text('{"schema": "events-v1", "T": 5.0, "S": %d, "V": 3}\n'
                  '{"i": 1, "t": 1.0, "s": 1, "x": {"0": 2}}\n'
                  '{"i": 2, "t": 2.0, "s": 2, "x": {"0": 1, "1": 1}}\n' % 10**30)
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--events", str(ev), "--nu", "1.0", prior, "--params-out", os.devnull])
    assert exc.value.code == 2
    assert "use fewer sources or tokens" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--scales", "10,x"], "--scales"),
    (["evaluate", "--rootprob", "r.csv", "--truth", "t.jsonl", "--ks", "a"], "--ks"),
    (["simulate", "--T", "5", "--mean-lengths", "x"], "--mean-lengths"),
], ids=["scales", "ks", "mean-lengths"])
def test_exit_code_malformed_comma_list(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: {flag} must be a comma list" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--S", "0"], "S must be at least 1, got 0"),
    (["--mean-lengths", "1,2"], "2 mean text lengths given for 5 sources"),
    (["--max-events", "0"], "max_events must be at least 1, got 0"),
    (["--max-events", "-3"], "max_events must be at least 1, got -3"),
    (["--T", "nan"], "T must be positive and finite, got nan"),
    (["--T", "inf"], "T must be positive and finite, got inf"),
    (["--mean-lengths", "nan"], "mean text lengths must be positive and finite, got [nan]"),
    (["--mean-lengths", "1,inf,3,4,5"],
     "mean text lengths must be positive and finite, got [1.0, inf, 3.0, 4.0, 5.0]"),
    (["--V", "0"], "V must be at least 1, got 0"),
    (["--T", "1e300"], "T = 1e+300 is too long: rho[0] T = 1e+299 exceeds numpy's largest"),
    (["--mean-lengths", "1e300"], "mean text lengths must be at most numpy's largest Poisson"),
], ids=["no sources", "mean lengths", "no events", "negative events", "T nan", "T inf",
        "mean length nan", "mean length inf", "no tokens", "T huge", "mean length huge"])
def test_exit_code_simulate_config(argv, message, capsys):
    # the first two crashed inside numpy with a traceback, and exit code 1;
    # an event cap below 1 exited 3 with a cascade over the cap; a NaN or
    # infinite T or mean length crashed in numpy or in the event cap, and a
    # huge one with numpy's "lam value too large"; V = 0 exited 0 with
    # events whose marks were all empty
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--T", "5", "--events", os.devnull] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--T", "50", "--seed", "-1", "--events", os.devnull],
    ["fit", "--events", os.devnull, "--nu", "1.0", "--seed", "-2"],
    ["bench", "--scales", "200", "--sweeps", "1", "--seed", "-1"],
    ["--seed", "-1", "simulate", "--T", "5", "--events", os.devnull],
    ["simulate", "--T", "5", "--events", os.devnull, "--config", "seed.cfg"],
], ids=["simulate", "fit", "bench", "global", "config"])
def test_exit_code_negative_seed(argv, tmp_path, monkeypatch, capsys):
    # each ended in numpy's "expected non-negative integer", with exit code 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.cfg").write_text("seed = -1\n")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Invalid value for '--seed'" in err and "Traceback" not in err


def test_exit_code_fit_tol_nan(workdir, capsys):
    # NaN passed `tol <= 0`, so the fit ran every sweep and exited 0 unconverged
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--events", str(workdir / "ev.jsonl"), "--nu", "5.0", "--tol", "nan",
              "--params-out", os.devnull])
    assert exc.value.code == 2
    assert "error: tol must be positive" in capsys.readouterr().err


def test_exit_code_baseline_malformed_window(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--events", str(workdir / "ev.jsonl"), "--rw", "x",
              "--out", os.devnull])
    assert exc.value.code == 2
    assert "error: --rw must be a positive integer or 'inf', got 'x'" in capsys.readouterr().err


def test_fit_seed_jitters_the_default_start(runner, workdir, tmp_path):
    res = runner.invoke(cli, ["fit", "--events", str(workdir / "ev.jsonl"), "--nu", "5.0",
                              "--max-iters", "3", "--seed", "4",
                              "--params-out", str(tmp_path / "p.json")])
    assert res.exit_code == 0, res.output
    events = read_events(workdir / "ev.jsonl")
    init = rs.jitter_init(_default_init(events, rs.PriorConfig.maximum_likelihood(events.S),
                                        5.0), 4)
    want = rs.fit(events, init=init, max_iters=3).params
    got = read_params(tmp_path / "p.json")
    for name in ("rho", "A", "theta", "gamma", "nu"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_exit_code_missing_file(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--events", str(tmp_path / "nope.jsonl"), "--nu", "1.0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_exit_code_numerical_error(tmp_path, capsys):
    events = rs.EventSequence.from_events(
        [rs.Event.make(1, 1.0, 0, {1: 1})], T=2.0, S=1, V=2)
    write_events(events, tmp_path / "ev.jsonl")
    dead = rs.ModelParams(rho=np.array([0.5]), A=np.zeros((1, 1)),
                          theta=np.array([[1.0, 0.0]]), gamma=0.0, nu=1.0)
    write_params(dead, tmp_path / "p.json")
    with pytest.raises(SystemExit) as exc:
        main(["root-prob", "--events", str(tmp_path / "ev.jsonl"),
              "--params", str(tmp_path / "p.json")])
    assert exc.value.code == 3
    assert "numerical failure" in capsys.readouterr().err


SUBCOMMANDS = ("simulate", "fit", "root-prob", "baseline", "evaluate", "bench")


def _env_for_package():
    """Environment whose PYTHONPATH starts at the imported ``rootsource``.

    A subprocess then runs the package under test, not a stale installed
    copy, whatever the working directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(rs.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    return env


def _declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def test_installed_entry_point():
    env = _env_for_package()
    proc = subprocess.run([sys.executable, "-m", "rootsource.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for cmd in SUBCOMMANDS:
        assert cmd in proc.stdout

    # The console script pip installs: the declared target, run by the
    # launcher body pip writes.  Only its placement on PATH is left out;
    # test_console_script_on_path checks that where the script exists.
    scripts = _declared_scripts()
    assert scripts.get("rootsource") == "rootsource.cli:main"
    ep = importlib.metadata.EntryPoint(
        name="rootsource", value=scripts["rootsource"], group="console_scripts")
    assert ep.load() is main
    launcher = (f"import sys; from {ep.module} import {ep.attr}; "
                f"sys.argv[0] = {ep.name!r}; sys.exit({ep.attr}())")
    proc = subprocess.run([sys.executable, "-c", launcher, "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Usage: rootsource" in proc.stdout
    for cmd in SUBCOMMANDS:
        assert cmd in proc.stdout


NO_SCIPY_SCRIPT = """
import sys
import rootsource as rs
import rootsource.cli
from rootsource.dataio import RawComment, ingest

cfg = rs.make_synthetic_config(T=40.0, seed=3)
events, truth = rs.simulate(cfg)
for window, prior in ((10.0, None), (None, rs.PriorConfig.empirical_bayes(events))):
    report = rs.fit(events, nu=10.0, window=window, prior=prior, max_iters=4)
    rs.root_probabilities(events, report.params, window=window)
    rs.root_probabilities_mark(events, report.params, window=window)
    rs.elbo(events, report.params, report.eta, prior)
ingest([RawComment(t=float(k), author="ab"[k % 2], text="one two three")
        for k in range(12)], min_author_count=1)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_runs_without_importing_scipy():
    # scipy's import costs each CLI command about a third of a second; the
    # package must not load it on any path, the CLI's imports included
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], capture_output=True,
                          text=True, env=_env_for_package())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


LAZY_MODULES_SCRIPT = """
import sys
import numpy
before = set(sys.modules)
import rootsource
print(sorted(m for m in ("subprocess", "statistics", "fractions", "decimal")
             if m in sys.modules and m not in before))
"""


def test_package_import_loads_no_subprocess_or_statistics():
    # only the benchmark's cold-start timer uses them, and they cost every
    # CLI command and every benchmark child several milliseconds after numpy
    proc = subprocess.run([sys.executable, "-c", LAZY_MODULES_SCRIPT], capture_output=True,
                          text=True, env=_env_for_package())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(shutil.which("rootsource") is None,
                    reason="rootsource console script not installed")
def test_console_script_on_path():
    proc = subprocess.run(["rootsource", "--help"], capture_output=True,
                          text=True, env=_env_for_package())
    assert proc.returncode == 0
    for cmd in SUBCOMMANDS:
        assert cmd in proc.stdout
