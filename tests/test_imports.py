"""What the package imports.

No module imports a name that it never uses.  No linter ships with the test
environment, so this parses each module with the standard-library ``ast``.
``__init__.py`` is skipped there: it imports names to re-export them.

No module loads numpy or ``concurrent.futures`` at import time, and a CLI
command that serves one permutation or a closed form runs in a fresh
interpreter without loading either, or ``verification``.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bruhat_degrees"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom .perm import rank, ltr_maxima\nltr_maxima\n") == [
        "line 1: os", "line 2: rank"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# ---------------------------------------------------------------------------
# numpy and the process pool load only with the commands that use them

HEAVY = ("numpy", "concurrent.futures", "bruhat_degrees.verification")
LAZY_ROOTS = {"numpy", "concurrent"}  # imported only inside the functions that use them


def module_level_imports(source: str) -> list[str]:
    """The modules that a source imports when it is loaded: every import
    outside a function body, class bodies included."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


def test_detects_a_module_level_import():
    source = ("import numpy as np\nif True:\n    from concurrent import futures\n"
              "class K:\n    import json\n    def f(self):\n        import csv\n")
    assert module_level_imports(source) == ["numpy", "concurrent", "json"]


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_no_bulk_import_at_load_time(path):
    loaded = module_level_imports(path.read_text(encoding="utf-8"))
    assert [name for name in loaded if name.split(".")[0] in LAZY_ROOTS] == []


CHILD = """
import contextlib, io, json, sys
from bruhat_degrees import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "loaded": [m for m in %r if m in sys.modules]}))
""" % (HEAVY,)


def run_cold(argv: list[str]) -> dict:
    """Exit code of one CLI call in a fresh interpreter, and which of HEAVY
    that interpreter had loaded when the call returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    "degrees [3,1,4,2]",
    "degrees [3,1,4,2] --list",
    "descents [7,9,5,2,3,8,4,1,6] --r 2 --format json",
    "graph [3,1,4,2] --kind total",
    "reconstruct 4 {set_file}",
    "expect 9",
    "extremal 9 --stat total",
    "extremal 4 --format csv",
    "--help",
    "verify --help",
])
def test_scalar_commands_load_no_bulk_module(tmp_path, argv):
    set_file = tmp_path / "set.txt"
    set_file.write_text("t(1,3) t(2,3) t(2,4)\n", encoding="utf-8")
    result = run_cold([str(set_file) if word == "{set_file}" else word for word in argv.split()])
    assert result == {"code": 0, "loaded": []}


def test_distribution_loads_numpy():
    # the positive control: the probe above does see a load
    result = run_cold(["distribution", "4"])
    assert result["code"] == 0 and "numpy" in result["loaded"]
