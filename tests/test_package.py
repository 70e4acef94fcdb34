import os
import subprocess
import sys
from pathlib import Path

import bfamily


def test_exports_unique_and_resolvable():
    names = bfamily.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(bfamily, name)] == []


def test_import_loads_no_scipy():
    # scipy is loaded at the first tridiagonal solve, so neither the package
    # nor the command line module pays for it at start-up.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bfamily, bfamily.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
