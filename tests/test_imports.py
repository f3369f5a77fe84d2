"""Import-time properties of the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import kashin


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy must never be pulled in
    code = (
        "import sys, kashin, kashin.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kashin.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kashin"

# public names that no package, benchmark or acceptance code references,
# each with the reason it stays
UNCALLED = {
    "quantize.dequantize": "the `.kq` decoder will call it (ROADMAP item 5)",
    "conversion.default_scalar_map": "the map form of the built-in clip, "
                                     "which ROADMAP item 11 times against it",
}


def test_every_public_function_has_a_caller():
    public = {
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    callers = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    # names and attributes only: strings, docstrings and imports are not calls
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in callers
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    uncalled = {name for name in public if name.split(".")[1] not in referenced}
    assert uncalled == set(UNCALLED)
