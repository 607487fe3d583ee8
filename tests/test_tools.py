import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path, capsys):
    code_lines = _load("code_lines")
    (tmp_path / "mod.py").write_text(
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """A function docstring."""\n'
        "    y = '''a string\n"
        "that is code'''  # with a comment\n"
        "    return x + len(y)\n")
    # 9 lines; code: def, the two lines of the assigned string, return
    assert code_lines.count(tmp_path / "mod.py") == (9, 4)
    code_lines.main(["code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "9", "4"]


def test_bench_pairs_compares_two_checkouts(tmp_path):
    # one smoke pair of fit_exact, with this checkout on both sides
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "bench_pairs.py"), "--parent", str(ROOT), "--change",
         str(ROOT), "--pairs", "1", "--seconds", "1", "--seed0", "3", "--workloads",
         "fit_exact", "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(out.read_text())
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert [(r["side"], r["seed"], r["status"]) for r in got["runs"]] == [
        ("parent", 3, 0), ("change", 3, 0)]
    summary = got["pairs"]["fit_exact"]
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert list(summary["metrics"]) == names
    (pair,) = got["by_pair"]["fit_exact"]
    assert pair["first"] == "parent" and list(pair["parent"]) == names
    for name, s in summary["metrics"].items():
        assert s["parent"]["median"] == pair["parent"][name] > 0, name
        assert s["change"]["median"] == pair["change"][name], name
        assert s["parent_iqr_over_median"] == 0.0
        assert s["verdict"] == ("worse than its bound" if s["worse_by"] > s["bound"]
                                else "within"), name


def test_bench_pairs_verdicts():
    compare = _load("bench_pairs").compare
    steady = [1.0, 1.0, 1.0, 1.0, 1.0]
    # 30% slower against a 25% bound; a higher-is-better metric 30% lower
    slow = compare(steady, [1.3] * 5, "lower", 0.25)
    assert slow["verdict"] == "worse than its bound" and slow["change_won"] == 0
    assert slow["worse_by"] == pytest.approx(0.3)
    assert compare(steady, [0.7] * 5, "higher", 0.25)["verdict"] == "worse than its bound"
    # 20% faster: within, won in every pair
    fast = compare(steady, [0.8] * 5, "lower", 0.25)
    assert fast["verdict"] == "within" and fast["change_won"] == 5
    # the parent's runs spread wider than the bound
    wide = compare([0.5, 0.8, 1.0, 1.2, 1.5], steady, "lower", 0.25)
    assert wide["parent_iqr_over_median"] == pytest.approx(0.4)
    assert wide["verdict"] == "unresolved"


def test_equivalence_finds_this_checkout_identical_to_itself():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "equivalence.py"), "--parent", str(ROOT), "--change",
         str(ROOT), "--smoke"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "60 of 60 arrays identical"
    assert all(line.endswith("  identical") for line in lines[:-1])
    for name in ("pipeline_w20 elbo_trace", "fit_exact elbo one M-step further, empirical Bayes",
                 "fit_exact mark pass cold, gamma 1", "pipeline_w20 eta_overlap"):
        assert any(line.startswith(name + "  ") for line in lines), name


def test_equivalence_flags_a_one_ulp_change():
    equivalence = _load("equivalence")
    r = np.linspace(0.1, 0.9, 12).reshape(4, 3)
    nudged = r.copy()
    nudged[2, 1] = np.nextafter(nudged[2, 1], 1.0)
    assert equivalence.difference(r, r.copy()) is None
    assert equivalence.difference(np.float64(-3.5), np.float64(-3.5)) is None
    what = equivalence.difference(r, nudged)
    assert what == f"largest absolute difference {float(nudged[2, 1] - r[2, 1])!r}"
    assert float(what.split()[-1]) > 0
    # equal infinities compare as no gap; a dtype or a shape of its own differs
    inf = np.array([np.inf, 1.0])
    assert equivalence.difference(inf, inf + [0.0, 2.0]) == "largest absolute difference 2.0"
    assert equivalence.difference(r, r.astype(np.float32)) == "float64[4, 3] against float32[4, 3]"
    assert equivalence.compare({"a": r, "b": r}, {"a": nudged, "c": r}) == [
        ("a", what), ("b", "missing in the change"), ("c", "missing in the parent")]
