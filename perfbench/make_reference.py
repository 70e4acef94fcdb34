#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Runs every input any seed can choose (all sweep blocks, the five breaking
runs, the 32 J values) once through the same calls the benchmark makes and
writes ``perfbench/reference.json``.  Run it from the repository root:

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter the program's answers, and
say in the change which values moved and why.  Takes about five minutes on
two cores.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from check import SWEEP_HEADER  # noqa: E402
from workloads import direct_call  # noqa: E402


def _num(cell):
    return None if cell == "" else float(cell)


def sweep_reference(out_dir):
    tap = workloads.SweepTap()
    rows, shas = {}, {}
    try:
        for j in range(workloads.SWEEP_BLOCKS):
            block = workloads.sweep_block(j)
            for op in workloads.run_sweep_round(block, out_dir, direct_call, tap):
                if op["error"] or op["header"] != SWEEP_HEADER:
                    raise RuntimeError(f"{op['spec']}: {op['error']}")
                shas[op["spec"]] = op["csv_sha256"]
                for cells in op["rows"]:
                    b = cells[0]
                    if b in rows:
                        raise RuntimeError(f"b = {b} occurs in two sweep blocks")
                    rows[b] = {
                        "status": cells[2], "beta_b": _num(cells[1]),
                        "uncertainty": _num(cells[3]), "est1": _num(cells[4]),
                        "est2": _num(cells[5]), "est3": _num(cells[6]),
                        "sign_reversal_above": op["sign_reversal_above"][b],
                    }
            print(f"sweep block {j}: {block}", file=sys.stderr)
    finally:
        tap.close()
    return {"rows": rows, "csv_sha256": shas}


def breaking_reference(out_dir):
    ref = {}
    for op in workloads.run_breaking_round(list(workloads.BREAKING_RUNS), out_dir, direct_call):
        if op["error"]:
            raise RuntimeError(f"{op['name']}: {op['error']}")
        rep = op["report"]
        ref[op["name"]] = {
            "detected": rep["detected"], "stop_reason": rep["stop_reason"],
            "resolution_loss": rep["resolution_loss"], "steps": op["steps"],
            "n_criterion_points": len(rep["criterion_points"]),
            "t_detect": rep["t_detect"], "lifespan_bound": rep["lifespan_bound"],
            "report_sha256": op["report_sha256"], "series_sha256": op["series_sha256"],
        }
    return ref


def j_refine_reference():
    ref = {}
    for op in workloads.run_j_refine_round(workloads.J_REFINE_OPS, direct_call):
        if op["error"]:
            raise RuntimeError(f"{op['key']}: {op['error']}")
        ref[op["key"]] = {k: op[k] for k in ("value", "error_estimate", "method")}
    return ref


def main():
    with tempfile.TemporaryDirectory() as out_dir:
        reference = {
            "breaking": breaking_reference(out_dir),
            "j-refine": j_refine_reference(),
            "sweep": sweep_reference(out_dir),
        }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
