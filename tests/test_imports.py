"""Every name a library or test module imports is used somewhere in that
module, and the CLI imports no module it does not need.

A name used only in an annotation counts as used, also when the annotation
is a string.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    [*(ROOT / "src" / "assoc_hermite").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module's imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations parsed as code."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= referenced_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


def test_cli_imports_no_dataclasses_or_inspect():
    """Every CLI call pays the package's import; the records are built
    without dataclasses, which would also load inspect."""
    code = (
        "import sys, assoc_hermite.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_verify_all_imports_no_multiprocessing_or_concurrent_futures():
    """verify-all forks its workers itself; the executor machinery alone
    took tens of milliseconds to import and start."""
    code = (
        "import io, sys, contextlib, assoc_hermite.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['verify-all', '--level', 'desk'])\n"
        "print(status, sorted({'multiprocessing', 'concurrent.futures'} & sys.modules.keys()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "0 []\n"


def test_modules_load_on_first_use():
    """The package loads no submodule until one of its names is read; a CLI
    call loads only what its command needs; and the star import still binds
    exactly the public names, each the object its defining module holds."""
    code = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import assoc_hermite
        loaded = sorted(m for m in sys.modules if m.startswith("assoc_hermite."))
        import assoc_hermite.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["poly", "hermite", "3"])
        deferred = {"assoc_hermite.verification", "assoc_hermite.maps",
                    "assoc_hermite.tableaux", "csv"}
        poly = [status, sorted(deferred & sys.modules.keys())]
        names = {}
        exec("from assoc_hermite import *", names)
        del names["__builtins__"]
        misplaced = []
        for name, value in names.items():
            home = "assoc_hermite." + assoc_hermite._ORIGIN[name]
            defined_in = getattr(value, "__module__", "")
            if value is not getattr(sys.modules[home], name) or (
                defined_in.startswith("assoc_hermite") and defined_in != home
            ):
                misplaced.append(name)
        print(json.dumps({
            "import assoc_hermite": loaded,
            "poly hermite 3": poly,
            "star import": [sorted(names) == sorted(assoc_hermite.__all__), len(names)],
            "misplaced": misplaced,
        }))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == {
        "import assoc_hermite": [],
        "poly hermite 3": [0, []],
        "star import": [True, 74],
        "misplaced": [],
    }
