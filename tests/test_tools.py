import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


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
