import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bfamily
from bfamily.cli import main

NAN = math.nan
U = bfamily.TorusField.cosine(1.0, 64)


def test_exports_unique_and_resolvable():
    names = bfamily.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(bfamily, name)] == []


def _src_env():
    # A fresh interpreter's environment, with this checkout's src/ first on
    # PYTHONPATH.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_readme_quick_reference_runs():
    # The README's one python block runs as written, in a fresh interpreter,
    # so a name it uses cannot be removed or renamed unnoticed.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    out = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]],
                         capture_output=True, text=True, env=_src_env())
    assert out.returncode == 0, out.stderr


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # Each `bfamily` line of the README's command-line block runs as written
    # (comments aside) and exits 0, its files written into a scratch directory.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.DOTALL | re.MULTILINE).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) == 6 and all(argv[0] == "bfamily" for argv in lines)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BFAMILY_OUT_DIR", raising=False)
    for argv in lines:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_import_loads_no_scipy():
    # scipy's LAPACK extension is loaded at the first tridiagonal solve, so
    # neither the package nor the command line module pays for it at
    # start-up; nor for packaging metadata, since manifests take the version
    # from the package.
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bfamily, bfamily.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
         "print('importlib.metadata' in sys.modules)"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "False"]


def _scipy_modules_after(code):
    # The scipy modules a fresh interpreter holds after running code.
    out = subprocess.run(
        [sys.executable, "-c",
         code + "; import sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split("\n")[-2]


def test_first_solve_loads_only_lapack():
    # The first solve runs scipy's own package init and loads its LAPACK
    # extension, but not scipy.linalg: it leaves the modules that
    # `import scipy` alone leaves.  A later import of scipy.linalg binds the
    # extension as usual and holds the same routine, so the bits of a solve
    # stay the same.
    after_solve = _scipy_modules_after(
        "import bfamily; bfamily.compute_j(2.0, 0.5)")
    assert after_solve == _scipy_modules_after("import scipy")
    assert "'scipy'" in after_solve and "scipy.linalg" not in after_solve
    assert "scipy._lib._util" not in after_solve
    out = subprocess.run(
        [sys.executable, "-c",
         "import bfamily; "
         "from bfamily.variational import _dptsv; "
         "first = bfamily.compute_j(2.0, 0.5).value; "
         "import scipy.linalg._flapack; "
         "from scipy.linalg.lapack import dptsv; "
         "print(dptsv is _dptsv().wrapper, scipy.linalg._flapack.dptsv is _dptsv().wrapper); "
         "print(bfamily.compute_j(2.0, 0.5).value.hex() == first.hex())"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True", "True"]


def test_concurrent_first_solve_loads_lapack_once():
    # A fresh process whose first solve is a 2^14 J, whose band's companion
    # is solved in a worker thread: the one cached routine is looked up and
    # its extension loaded once, before the worker starts, not once in each
    # thread.
    out = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util as util; load = util.module_from_spec; loaded = []; "
         "util.module_from_spec = lambda spec: loaded.append(spec.name) or load(spec); "
         "import bfamily; from bfamily.variational import _dptsv; "
         "bfamily.compute_j(2.0, 0.5, 2**14); "
         "print(loaded, _dptsv.cache_info().misses)"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["['scipy.linalg._flapack']", "1"]


def _cli(*argv):
    # The code that runs the command line on argv.
    return f"from bfamily.cli import main; main({list(argv)!r})"


_SIMULATE = ("simulate", "--b", "2", "--ic", "cos", "--n", "64", "--t-max", "0.001")


@pytest.mark.parametrize("code", [
    pytest.param(_cli("estimates", "--sweep", "1.5:2:3"), id="estimates"),
    pytest.param(_cli(*_SIMULATE, "--beta-b", "0.5"), id="simulate-beta-b"),
    pytest.param(_cli(*_SIMULATE, "--criterion-beta", "estimate"), id="simulate-estimate"),
])
def test_commands_that_never_solve_load_no_scipy(code):
    assert _scipy_modules_after(code) == "[]"


def test_default_simulate_loads_no_scipy_linalg():
    # At its defaults simulate finds beta_b by the threshold search, whose
    # solves load scipy's LAPACK extension, but still not scipy.linalg.
    after = _scipy_modules_after(_cli(*_SIMULATE))
    assert "'scipy'" in after and "scipy.linalg" not in after


def test_version_read_from_package():
    # pyproject.toml writes no version of its own: setuptools reads
    # bfamily.__version__, the one the manifests record.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert "version" in pyproject["project"]["dynamic"]
    assert "version" not in pyproject["project"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"] == "bfamily.__version__"


# Each exported callable that takes the family parameter b or the weight
# parameter beta, with that one argument NaN and the others valid.
@pytest.mark.parametrize("fn, args", [
    pytest.param(fn, args, id=f"{fn.__name__}({', '.join('u' if a is U else str(a) for a in args)})")
    for fn, args in [
        (bfamily.compute_j, (NAN, 0.5)),
        (bfamily.compute_j, (2.0, NAN)),
        (bfamily.compute_j, (3.0, NAN)),
        (bfamily.compute_j_bvp, (NAN, 0.5)),
        (bfamily.compute_j_bvp, (2.0, NAN)),
        (bfamily.compute_j_direct, (NAN, 0.5)),
        (bfamily.compute_j_direct, (2.0, NAN)),
        (bfamily.solve_euler_lagrange, (NAN, 0.5)),
        (bfamily.solve_euler_lagrange, (2.0, NAN)),
        (bfamily.check_convolution_bound, (U, NAN, 0.5)),
        (bfamily.check_convolution_bound, (U, 2.0, NAN)),
        (bfamily.f_discriminant, (NAN, 0.5)),
        (bfamily.f_discriminant, (2.0, NAN)),
        (bfamily.compute_beta_b, (NAN,)),
        (bfamily.estimate1, (NAN,)),
        (bfamily.estimate2, (NAN,)),
        (bfamily.estimate3, (NAN,)),
        (bfamily.delta_b, (NAN,)),
        (bfamily.degree_upsilon, (NAN,)),
        (bfamily.unit_weight, (NAN, 0.5)),
        (bfamily.SpectralJ, (NAN,)),
        (bfamily.SimConfig, (NAN, 1.0)),
        (bfamily.rhs, (U, NAN)),
        (bfamily.step, (U, NAN, 0.01)),
        (bfamily.lifespan_bound, (U, NAN, 1.0)),
    ]
])
def test_nan_b_or_beta_refused(fn, args):
    with pytest.raises(bfamily.BFamilyError):
        fn(*args)


def test_direct_route_takes_beta_from_kernel():
    # beta is checked before the solve, not left to the quadratic form's
    # positive-definiteness check.
    with pytest.raises(bfamily.BetaOutOfRange):
        bfamily.compute_j_direct(2.0, 5.0)
