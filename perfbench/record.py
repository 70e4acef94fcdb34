"""Records that only the traced run makes: the environment, L0 timed alone,
and the tier-1 test suite."""

import importlib
import os
import platform
import re
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BFAMILY_BACKEND")
MICRO_SIZES = (4096, 65536, 2**20)


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git; the
    benchmark may run in a copy that is not a repository."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy
    import scipy

    import bfamily

    return {
        "backend": bfamily.backend_name() if hasattr(bfamily, "backend_name") else "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(root),
    }


def _spd_system(n: int, seed: int = 0):
    import numpy as np

    rng = np.random.default_rng(seed)
    off = rng.standard_normal(n - 1)
    diag = np.abs(rng.standard_normal(n)) + 2.0
    diag[:-1] += np.abs(off)
    diag[1:] += np.abs(off)
    return diag, off, rng.standard_normal(n)


def l0_micro() -> dict:
    """Median and best time of one solve, alone, for the solver the program
    calls and for each solver module that imports, at each size."""
    from bfamily import variational

    solvers = {"active": variational.spd_solve}
    for label, module in (("python", "bfamily._core_py"), ("cython", "bfamily._core")):
        try:
            solvers[label] = importlib.import_module(module).spd_solve
        except (ImportError, AttributeError):
            solvers[label] = None
    out = {}
    for n in MICRO_SIZES:
        diag, off, rhs = _spd_system(n)
        reps = max(3, 400_000 // n)
        for label, solve in solvers.items():
            if solve is None:
                out[f"{label}.n{n}"] = None
                continue
            solve(diag, off, rhs)
            times = []
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(reps):
                    solve(diag, off, rhs)
                times.append((time.perf_counter() - t0) / reps * 1e6)
            out[f"{label}.n{n}"] = {"median_us": statistics.median(times),
                                    "best_us": min(times), "reps": reps, "repeats": 7}
    return out


_SUMMARY = re.compile(r"(\d+) (passed|failed|skipped|errors?|xfailed|xpassed)")
_DURATION = re.compile(r"^([\d.]+)s (call|setup|teardown)\s+(\S+)")


def tier1(root: str, out_dir: str, timeout: float = 150.0) -> dict:
    """Run the tier-1 suite once and record wall time, outcome counts and
    the five slowest tests.  Known failures stay failures: this is a record,
    not a gate."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", TMPDIR=out_dir,
               PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=5",
           "--basetemp", os.path.join(out_dir, "pytest"), os.path.join(root, "tests")]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout} s"}
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    for line in reversed(lines):
        found = _SUMMARY.findall(line)
        if found and " in " in line:
            counts.update({kind: int(num) for num, kind in found})
            break
    slowest = []
    for line in lines:
        hit = _DURATION.match(line.strip())
        if hit:
            slowest.append({"seconds": float(hit.group(1)), "phase": hit.group(2),
                            "test": hit.group(3)})
    failed_tests = [line.split(" ", 1)[1].split(" - ")[0] for line in lines
                    if line.startswith("FAILED ")]
    return {"wall_s": wall, "returncode": proc.returncode, **counts,
            "slowest": slowest[:5], "failed_tests": failed_tests}
