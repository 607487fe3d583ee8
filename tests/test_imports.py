"""The package's modules share no private names: a module imports from a
sibling only what the sibling offers by a public name, except from the
`_numeric` helpers."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rootsource"


def private_imports(path: Path) -> list:
    """(line, module, name) of each private name that the file imports from a
    sibling module other than `_numeric`, relatively or by its full name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module
        elif (node.module or "").startswith("rootsource."):
            module = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            # from . import _numeric names the module itself
            if alias.name.startswith("_") and (module or alias.name) != "_numeric":
                found.append((node.lineno, module, alias.name))
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    found = {path.name: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {"fitting.py", "layout.py", "posterior.py", "rootprob.py"} <= set(found)
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_private_imports_are_found(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from . import dataio, _numeric\n"
        "from ._numeric import segment_max, _private\n"
        "from .fitting import PriorConfig, _default_init\n"
        "def f():\n"
        "    from .layout import _LIVE as live\n"
        "    from rootsource.posterior import _e_step\n"
        "    from numpy import _globals\n")
    assert private_imports(source) == [(3, "fitting", "_default_init"), (5, "layout", "_LIVE"),
                                       (6, "posterior", "_e_step")]
