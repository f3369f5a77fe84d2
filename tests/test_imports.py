"""Import-time properties of the package."""

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
