"""Workload inputs and the code that runs one round of each workload.

Shared by ``run.py`` (the benchmark) and ``make_reference.py`` (which records
the reference outputs), so both drive the program through the same calls.

Every workload is a sequence of rounds of fixed work, and every call into
the program in a round is timed on its own:

* ``sweep``: one segment, ``bfamily beta-b --sweep LO:HI:8``.  A block is a
  40-row main grid from about 1.3 to 3, cut into five segments, plus one
  8-row onset segment from about 1.005 to 1.06.  Every block has its own b
  values, so no row of a run repeats a key of ``compute_j``'s cache.
* ``breaking``: the five ``bfamily simulate`` runs of ``BREAKING_RUNS``.
* ``j-refine``: the 32 J values of ``J_REFINE_OPS``.

The seed chooses which blocks the sweep runs and in which order, and the
order of the operations inside every block or round; the same seed gives
the same inputs.  Nothing here imports numpy or bfamily at module level, so the
benchmark's set-up time includes the program's whole import.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import time

WORKLOADS = ("sweep", "breaking", "j-refine")

# ---------------------------------------------------------------- sweep

SWEEP_BLOCKS = 40
SEGMENT_ROWS = 8
MAIN_SEGMENTS = 5


def sweep_block(j: int) -> list:
    """The six segment specs of block j.  Block 0 is the grid of
    ``1.3:3:40`` in five pieces and ``1.005:1.06:8``; the others shift both
    ends by small, irregular steps so that no two blocks share a b value.
    The sweep is cut into segments so that each timed call lasts about a
    second, which lets the benchmark take the fastest of many."""
    lo, hi = 1.3 + 0.00037 * j, 3.0 - 0.00041 * j
    h = (hi - lo) / (MAIN_SEGMENTS * SEGMENT_ROWS - 1)
    specs = [f"{lo + 8 * i * h:.6f}:{lo + (8 * i + 7) * h:.6f}:{SEGMENT_ROWS}"
             for i in range(MAIN_SEGMENTS)]
    specs.append(f"{1.005 + 0.00013 * j:.5f}:{1.06 + 0.00011 * j:.5f}:{SEGMENT_ROWS}")
    return specs


def segment_kind(spec: str) -> str:
    return "onset" if float(spec.split(":")[0]) < 1.1 else "main"


# ---------------------------------------------------------------- breaking

# --beta-b is the FINITE threshold at each b (``bfamily beta-b --b B``,
# rounded), given so that no threshold search runs inside this workload.
BREAKING_RUNS = {
    "ch_cos_n1024": ["--b", "2", "--ic", "cos", "--n", "1024", "--beta-b", "0.51328"],
    "ch_cos_n2048": ["--b", "2", "--ic", "cos", "--n", "2048", "--beta-b", "0.51328"],
    "dp_cos_n2048": ["--b", "3", "--ic", "cos", "--n", "2048", "--beta-b", "1.22478"],
    "b2.5_oddsine_n1024": ["--b", "2.5", "--ic", "oddsine", "--n", "1024",
                           "--beta-b", "0.66616"],
    "b1.5_cos_n1024": ["--b", "1.5", "--ic", "cos", "--n", "1024", "--beta-b", "0.46329"],
}


def run_grid(name: str) -> int:
    args = BREAKING_RUNS[name]
    return int(args[args.index("--n") + 1])


# ---------------------------------------------------------------- j-refine

# (2.5, BETA_MAX) is the degenerate weight; BETA_MAX = (e+1)/(e-1) is spelled
# out so this module needs no import of the program.
BETA_MAX = 2.163953413738653
J_PAIRS = ((2.0, 0.0), (2.0, 1.0), (1.5, 0.5), (2.5, BETA_MAX))
J_GRIDS = (2**14, 2**16, 2**18, 2**20)
J_ROUTES = ("bvp", "direct")
J_REFINE_OPS = [(route, b, beta, n)
                for b, beta in J_PAIRS for n in J_GRIDS for route in J_ROUTES]


def j_key(route: str, b: float, beta: float, n: int) -> str:
    return f"{route}|{b!r}|{beta!r}|{n}"


# ---------------------------------------------------------------- inputs


def build_inputs(workload: str, seed: int) -> list:
    """Round inputs for a seed, in the order the rounds run.

    The sweep has one round per segment (6 * SWEEP_BLOCKS = 240 rounds); the
    other workloads give 512 shuffled copies of their operations.  A run
    that uses up its rounds ends early, which takes a program about ten
    times faster than the one the benchmark was written on.
    """
    rng = random.Random(seed)
    if workload == "sweep":
        return [[spec] for j in rng.sample(range(SWEEP_BLOCKS), SWEEP_BLOCKS)
                for spec in rng.sample(sweep_block(j), MAIN_SEGMENTS + 1)]
    if workload == "breaking":
        names = list(BREAKING_RUNS)
        return [rng.sample(names, len(names)) for _ in range(512)]
    if workload == "j-refine":
        return [rng.sample(J_REFINE_OPS, len(J_REFINE_OPS)) for _ in range(512)]
    raise ValueError(f"unknown workload {workload!r}")


def unit_of_work(workload: str) -> tuple[int, dict]:
    """(operations, {operation kind: calls}) of the work ``ops_per_s`` is
    stated for: a whole sweep block (48 rows), the five breaking runs, or
    the 32 J values."""
    if workload == "sweep":
        return (MAIN_SEGMENTS + 1) * SEGMENT_ROWS, {"main": MAIN_SEGMENTS, "onset": 1}
    if workload == "breaking":
        return len(BREAKING_RUNS), {name: 1 for name in BREAKING_RUNS}
    return len(J_REFINE_OPS), {j_key(*op): 1 for op in J_REFINE_OPS}


# ---------------------------------------------------------------- running


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli(call, argv: list, op: dict) -> tuple[int, str]:
    """``bfamily.cli.main(argv)`` with stdout captured; ``call`` runs it.
    The call's wall time goes to ``op["seconds"]``."""
    from bfamily import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = call("cli", cli.main, argv)
        finally:
            op["seconds"] = time.perf_counter() - t0
    return rc, buf.getvalue()


class SweepTap:
    """Keeps the rows ``bfamily.threshold.sweep`` returns to the CLI.

    The CSV has no ``sign_reversal_above`` column, so the checker reads it
    from these rows.  The tap is one extra Python call per CLI invocation.
    If the CLI stops calling ``threshold.sweep``, the tap stays empty and the
    checker reports ``sign_reversal_above`` as unchecked.
    """

    def __init__(self):
        from bfamily import threshold

        self.rows = []
        self._module = threshold
        self._original = threshold.sweep

        def tapped(*args, **kwargs):
            rows = self._original(*args, **kwargs)
            self.rows.extend(rows)
            return rows

        threshold.sweep = tapped

    def close(self):
        self._module.sweep = self._original


def run_sweep_round(block, out_dir: str, call, tap: SweepTap) -> list:
    ops = []
    for spec in block:
        path = os.path.join(out_dir, "sweep.csv")
        tap.rows.clear()
        op = {"spec": spec, "kind": segment_kind(spec)}
        try:
            rc, _ = _cli(call, ["beta-b", "--sweep", spec, "--out", path], op)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            csv_sha = _sha256(path)
            os.remove(path)
            error = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # the program raised: every row of the spec fails
            rc, lines, csv_sha, error = None, [], None, f"{type(exc).__name__}: {exc}"
        taps = {repr(r.b): r.result.sign_reversal_above
                for r in tap.rows if r.result is not None}
        op.update(rc=rc, error=error, csv_sha256=csv_sha,
                  header=lines[0] if lines else None,
                  rows=[line.split(",") for line in lines[1:]],
                  sign_reversal_above=taps if tap.rows else None)
        ops.append(op)
    return ops


def run_breaking_round(names, out_dir: str, call) -> list:
    ops = []
    for name in names:
        stem = os.path.join(out_dir, name)
        argv = ["simulate", *BREAKING_RUNS[name], "--out", stem]
        op = {"name": name, "kind": name, "n": run_grid(name)}
        try:
            rc, stdout = _cli(call, argv, op)
            op.update(rc=rc, error=None if rc == 0 else f"exit code {rc}",
                      report=json.loads(stdout) if rc == 0 else None)
            if rc == 0:
                with open(stem + ".series.csv", encoding="utf-8") as fh:
                    # header and the initial state, then one row per RK4 step
                    op["steps"] = sum(1 for _ in fh) - 2
                op["report_sha256"] = _sha256(stem + ".report.json")
                op["series_sha256"] = _sha256(stem + ".series.csv")
        except Exception as exc:
            op.update(rc=None, error=f"{type(exc).__name__}: {exc}", report=None)
        for suffix in (".report.json", ".series.csv", ".manifest.json"):
            if os.path.exists(stem + suffix):
                os.remove(stem + suffix)
        ops.append(op)
    return ops


def run_j_refine_round(items, call) -> list:
    from bfamily import variational

    ops = []
    for route, b, beta, n in items:
        op = {"key": j_key(route, b, beta, n)}
        op["kind"] = op["key"]
        fn = variational.compute_j_bvp if route == "bvp" else variational.compute_j_direct
        t0 = time.perf_counter()
        try:
            res = call(f"op.j_{route}", fn, b, beta, n)
            op["seconds"] = time.perf_counter() - t0
            op.update(error=None, value=float(res.value),
                      error_estimate=float(res.error_estimate), method=res.method)
        except Exception as exc:
            op.update(error=f"{type(exc).__name__}: {exc}")
        ops.append(op)
    return ops


def run_round(workload: str, inputs, out_dir: str, call, tap=None) -> list:
    """Run one round; ``call(name, fn, *args)`` makes every call into the
    program, so the traced run can record it as a span."""
    if workload == "sweep":
        return run_sweep_round(inputs, out_dir, call, tap)
    if workload == "breaking":
        return run_breaking_round(inputs, out_dir, call)
    return run_j_refine_round(inputs, call)


def direct_call(_name, fn, *args):
    return fn(*args)
