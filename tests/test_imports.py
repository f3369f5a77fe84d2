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


# fields with a default that no package, benchmark or acceptance code
# passes by keyword, each with the reason it stays
UNSET: dict[str, str] = {}


def test_every_optional_field_has_a_caller():
    optional = {
        f"{node.name}.{item.target.id}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and item.value is not None
    }
    callers = [*PACKAGE.glob("*.py"),
               *(path for path in (ROOT / "perfbench").glob("*.py")
                 if path.name != "test_perfbench.py"),
               ROOT / "tests" / "test_acceptance.py"]
    passed = {
        keyword.arg
        for path in callers
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
    }
    unset = {name for name in optional if name.split(".")[1] not in passed}
    assert unset == set(UNSET)
