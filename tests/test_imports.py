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


def test_package_init_holds_only_its_docstring():
    # every public name lives in its module, and `import kashin` loads none
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value.value, str)


# keyword parameters with a default, of public functions and methods, that
# no package, benchmark or acceptance code passes, each with the reason it
# stays
UNPASSED: dict[str, str] = {}


def _optional_parameters(path: Path) -> dict[str, tuple[str, str, int | None]]:
    """``module.function.parameter`` -> (function, parameter, position
    after ``self`` or ``cls``, None if keyword-only) for each parameter with
    a default of a public function or public method in ``path``."""
    tree = ast.parse(path.read_text())
    scopes = [("", tree.body)] + [
        (f"{node.name}.", node.body) for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]
    out = {}
    for prefix, body in scopes:
        for node in body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args]
            skip = 1 if prefix and names[:1] in (["self"], ["cls"]) else 0
            for name in names[len(names) - len(args.defaults):]:
                out[f"{path.stem}.{prefix}{node.name}.{name}"] = (
                    node.name, name, names.index(name) - skip)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[f"{path.stem}.{prefix}{node.name}.{arg.arg}"] = (
                        node.name, arg.arg, None)
    return out


def test_every_optional_parameter_has_a_caller():
    optional = {
        key: value for path in PACKAGE.glob("*.py")
        for key, value in _optional_parameters(path).items()
    }
    callers = [*PACKAGE.glob("*.py"),
               *(path for path in (ROOT / "perfbench").glob("*.py")
                 if path.name != "test_perfbench.py"),
               ROOT / "tests" / "test_acceptance.py"]
    # per called name: the keywords it is given, and its most positional
    # arguments
    keywords: dict[str, set[str]] = {}
    positional: dict[str, int] = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            if not any(isinstance(a, ast.Starred) for a in node.args):
                positional[name] = max(positional.get(name, 0), len(node.args))
    unpassed = {
        key for key, (func, param, index) in optional.items()
        if param not in keywords.get(func, ())
        and (index is None or positional.get(func, 0) <= index)
    }
    assert optional  # the walk finds parameters at all
    assert unpassed == set(UNPASSED)


# public dataclasses that only the package fills, whose int and float
# fields need no argument check, each with the reason
FILLED_BY_THE_PACKAGE = {
    "UPWitness": "calibration builds it from a support and its eigen-solve",
    "DistortionReport": "distortion trials build it from measured norms",
    "ExperimentRow": "the sweeps build it from checked configurations",
    "DecaySweep": "decay_sweep builds it from checked configurations",
}


def test_every_numeric_field_is_checked_by_count_or_real():
    # a field annotated int or float is passed as `self.<field>` to
    # linalg.count or linalg.real in its class's __post_init__
    unchecked, filled = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_") or not any(
                    ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                continue
            if node.name in FILLED_BY_THE_PACKAGE:
                filled.add(node.name)
                continue
            numeric = [item.target.id for item in node.body
                       if isinstance(item, ast.AnnAssign)
                       and ast.unparse(item.annotation) in ("int", "float")]
            checked = {
                call.args[0].attr
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                for call in ast.walk(item)
                if isinstance(call, ast.Call)
                and ast.unparse(call.func) in ("linalg.count", "linalg.real")
                and ast.unparse(call.args[0]).startswith("self.")
            }
            unchecked += [f"{node.name}.{name}" for name in numeric if name not in checked]
    assert unchecked == []
    assert filled == set(FILLED_BY_THE_PACKAGE)
