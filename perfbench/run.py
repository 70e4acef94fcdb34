#!/usr/bin/env python3
"""Layered benchmark of bfamily.

    python3 perfbench/run.py --workload sweep|breaking|j-refine \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of the
checkout the script sits in, never from an installed copy.

``--trace 0`` measures the end-to-end metrics: rounds of the workload run
back to back for S seconds (at least one round) and every output is checked
against ``reference.json``.  ``--trace 1`` alternates traced and untraced
rounds for S seconds and reports the per-layer metrics, the tracing overhead,
L0 timed alone and the tier-1 test suite.

The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it, and
``.bench_out/BENCH_<workload>_seed<N>_trace<T>.json``, hold the details.
See README.md in this directory.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "l0.spd_solve.calls": "count",
    "l0.spd_solve.self_s": "s",
    "l0.spd_solve.ns_per_unknown": "ns",
    "l0.spd_solve.bytes_computed": "B",
    "l0.spd_solve.failures": "count",
    "l0.micro.active_us.n4096": "us",
    "l0.micro.active_us.n65536": "us",
    "l0.micro.active_us.n1048576": "us",
    "l1.solve_euler_lagrange.calls": "count",
    "l1.solve_euler_lagrange.self_s": "s",
    "l1.compute_j_direct.calls": "count",
    "l1.compute_j_direct.self_s": "s",
    "l2.compute_j.calls": "count",
    "l2.compute_j.self_s": "s",
    "l2.compute_j.cache_hit_ratio": "ratio",
    "l2.solves_per_j": "count",
    "l3.compute_beta_b.calls": "count",
    "l3.compute_beta_b.p50_ms": "ms",
    "l3.compute_beta_b.p75_ms": "ms",
    "l3.compute_beta_b.self_s": "s",
    "l3.j_evals_per_beta_b": "count",
    "l3.solves_per_beta_b": "count",
    "l4.sweep.calls": "count",
    "l4.sweep.self_s": "s",
    "l4.sweep.error_rows": "count",
    "l4.estimates.self_s": "s",
    "s1.rk4_steps": "count",
    "s1.us_per_step.n1024": "us",
    "s1.us_per_step.n2048": "us",
    "s1.ffts_per_step": "count",
    "s1.fft.calls": "count",
    "s1.fft.self_s": "s",
    "s1.fft_share": "ratio",
    "s2.integrate.calls": "count",
    "s2.integrate.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "tier1.wall_s": "s",
    "tier1.passed": "count",
    "tier1.failed": "count",
    "tier1.skipped": "count",
}

# Work counts measured at the commit that introduced the benchmark; later
# changes may move them on purpose, so a difference is reported, not failed.
EXPECTED_COUNTS = {
    "sweep": {"l3.j_evals_per_beta_b": 263, "l3.solves_per_beta_b": 526,
              "l2.compute_j.cache_hit_ratio": 0.0},
    "breaking": {"s1.ffts_per_step": 27.0, "steps.ch_cos_n1024": 705,
                 "steps.ch_cos_n2048": 1435},
    "j-refine": {"l2.solves_per_j": 2.0},
}

# Workload-specific name under which the detail repeats the headline number
HEADLINE = {"sweep": "thresholds_per_s", "breaking": "breaking_s", "j-refine": "refine_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def setup(workload: str, seed: int):
    """Import the program and build the inputs: the set-up a user pays
    before the first call.  Returns (inputs, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "bfamily", "__init__.py")):
        sys.exit(f"error: no bfamily sources under {SRC}")
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import bfamily
    import bfamily.cli  # noqa: F401  (the CLI module is part of a CLI user's start-up)

    inputs = workloads.build_inputs(workload, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(bfamily.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported bfamily from {bfamily.__file__}, not from {SRC}")
    return inputs, elapsed


def setup_samples(args, first: float) -> list:
    """The in-process set-up plus SETUP_SAMPLES - 1 fresh interpreters."""
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def convergence_record(ops) -> dict:
    """Observed refinement ratios |J_n - J_n'| / |J_n' - J_n''| over the
    grid sequence (each level 4x finer, so second order gives 1/16), the
    observed order, and the gap between the two routes.  Informational."""
    vals = {op["key"]: op for op in ops if not op["error"]}
    record = {}
    for b, beta in workloads.J_PAIRS:
        entry = {}
        for route in workloads.J_ROUTES:
            seq = [vals.get(workloads.j_key(route, b, beta, n)) for n in workloads.J_GRIDS]
            if None in seq:
                continue
            js = [op["value"] for op in seq]
            ratios = []
            for k in range(2, len(js)):
                den = abs(js[k - 1] - js[k - 2])
                ratios.append(abs(js[k] - js[k - 1]) / den if den else None)
            entry[route] = {
                "values": js, "error_estimates": [op["error_estimate"] for op in seq],
                "ratios": ratios,
                "observed_order": [math.log(1.0 / r, 4.0) if r else None for r in ratios],
            }
        if len(entry) == 2:
            gaps = [abs(d - v) for d, v in zip(entry["direct"]["values"], entry["bvp"]["values"])]
            entry["gap_direct_minus_bvp"] = gaps
            richardson = entry["direct"]["error_estimates"][-1]
            entry["gap_over_direct_estimate_at_finest"] = (gaps[-1] / richardson
                                                           if richardson else None)
        record[f"b={b!r},beta={beta!r}"] = entry
    return {"grids": list(workloads.J_GRIDS), "pairs": record}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_seconds(op_seconds, unit_kinds, stat):
    """Time of one unit of work assembled from each operation kind's
    statistic over the run: sum of calls * stat(times of that kind).  None
    when a kind has no successful sample."""
    if any(not op_seconds.get(kind) for kind in unit_kinds):
        return None
    return sum(calls * stat(op_seconds[kind]) for kind, calls in unit_kinds.items())


def trace_overhead(traced, untraced, unit_kinds):
    """Tracing cost per unit of work: the median traced time minus the
    median untraced time of each kind sampled both ways, scaled up to the
    whole unit."""
    both = [kind for kind in unit_kinds if traced.get(kind) and untraced.get(kind)]
    if not both:
        return None
    covered = sum(unit_kinds[kind] for kind in both)
    extra = sum(unit_kinds[kind] * (statistics.median(traced[kind])
                                    - statistics.median(untraced[kind])) for kind in both)
    return extra * sum(unit_kinds.values()) / covered


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,name,start_s,end_s,tag\n")
        for i, (name, parent, t0, t1, tag) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{t0!r},{t1!r},{'' if tag is None else tag}\n")


def main(argv=None):
    args = parse_args(argv)
    inputs, first_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(first_setup))
        return 0

    import check
    import record
    import tracing

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    setup_s = setup_samples(args, first_setup) if not args.trace else [first_setup]

    tap = workloads.SweepTap() if args.workload == "sweep" else None
    tracer = tracing.Tracer() if args.trace else None
    untraced_s, traced_s, layer_rounds, count_rounds = [], [], [], []
    op_seconds = {}  # operation kind -> wall times in untraced rounds
    traced_op_seconds = {}  # the same in traced rounds
    attempted = failed = 0
    messages, identical, sr_unchecked = [], True, False
    first_ops = first_spans = None
    unit_ops, unit_kinds = workloads.unit_of_work(args.workload)
    rounds_per_unit = workloads.MAIN_SEGMENTS + 1 if args.workload == "sweep" else 1
    peak_rss_mb = None
    t_start = time.perf_counter()
    k = 0
    while k < len(inputs) and (k < 1 + args.trace
                               or time.perf_counter() - t_start < args.seconds):
        traced = args.trace and k % 2 == 0
        if traced:
            tracer.spans.clear()
            tracer.install()
        t0 = time.perf_counter()
        try:
            ops = workloads.run_round(args.workload, inputs[k], OUT_DIR,
                                      tracer.call if traced else workloads.direct_call, tap)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        (traced_s if traced else untraced_s).append(wall)
        for op in ops:
            if "seconds" in op and not op["error"]:
                (traced_op_seconds if traced else op_seconds).setdefault(
                    op["kind"], []).append(op["seconds"])
        if traced:
            m, counts = tracing.round_metrics(tracer.spans, ops, args.workload)
            layer_rounds.append(m)
            count_rounds.append(counts)
            if first_spans is None:
                first_spans = list(tracer.spans)
        res = check.check_ops(args.workload, ops, reference)
        attempted += res["attempted"]
        failed += res["failed"]
        messages.extend(res["messages"])
        identical = identical and res["outputs_identical"]
        sr_unchecked = sr_unchecked or res["sign_reversal_unchecked"]
        if first_ops is None:
            first_ops = ops
        k += 1
        if k == rounds_per_unit:
            # peak memory of one cold unit of work, so that it does not grow
            # with the number of rounds a faster program fits in the run
            peak_rss_mb = rss_mb()
    if tap is not None:
        tap.close()

    self_test = check.self_test(args.workload, first_ops, reference)
    correct = failed == 0 and all(self_test.values())
    unit_s = {name: unit_seconds(op_seconds, unit_kinds, stat)
              for name, stat in (("median", statistics.median), ("fastest", min))}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": k, "unit_ops": unit_ops, "unit_s": unit_s,
        "op_seconds": op_seconds,
        "round_s": untraced_s, "traced_round_s": traced_s,
        "failed_frac": failed / attempted, "outputs_identical": identical,
        "checker_self_test": self_test, "failures": messages[:20],
        "environment": record.environment(ROOT),
    }
    if sr_unchecked:
        detail["sign_reversal_above"] = "unchecked: the CLI no longer calls threshold.sweep"
    if args.workload == "j-refine":
        detail["convergence"] = convergence_record(first_ops)

    if not args.trace:
        metrics = {
            "ops_per_s": (unit_ops / unit_s["median"] if unit_s["median"]
                          else attempted / sum(untraced_s)),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb or rss_mb(),
        }
        detail["setup_s_samples"] = setup_s
        detail[HEADLINE[args.workload]] = (metrics["ops_per_s"] if args.workload == "sweep"
                                              else unit_s["median"])
        units = END_TO_END
    else:
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   for name in layer_rounds[0]}
        counts = count_rounds[0]
        for name, value in counts.items():
            if name in metrics:
                metrics[name] = value
        same_inputs = args.workload != "sweep"  # sweep rounds use different blocks
        repeat = all(c == counts for c in count_rounds) if same_inputs else None
        overhead = trace_overhead(traced_op_seconds, op_seconds, unit_kinds)
        if overhead is not None:
            metrics["trace.overhead_s"] = overhead
        micro = record.l0_micro()
        for n in record.MICRO_SIZES:
            if micro.get(f"active.n{n}"):
                metrics[f"l0.micro.active_us.n{n}"] = micro[f"active.n{n}"]["median_us"]
        tier1 = record.tier1(ROOT, OUT_DIR)
        for key in ("wall_s", "passed", "failed", "skipped"):
            if key in tier1:
                metrics[f"tier1.{key}"] = tier1[key]
        metrics = tracing.drop_absent(metrics, tracer.absent)
        observed = dict(metrics, **{f"steps.{n}": r["steps"] for n, r in counts["runs"].items()})
        expected = EXPECTED_COUNTS[args.workload]
        detail.update({
            "work_counts": counts,
            "work_counts_repeat_across_rounds": repeat,
            "work_counts_vs_seed_commit": {k: {"expected": v, "observed": observed.get(k)}
                                           for k, v in expected.items()},
            "l0_micro": micro, "tier1": tier1, "absent_spans": tracer.absent,
            "spans_file": os.path.relpath(
                os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.csv"), ROOT),
        })
        write_spans(first_spans, os.path.join(ROOT, detail["spans_file"]))
        if repeat is False:
            correct = False
            detail["benchmark_error"] = "work counts differ between identical rounds"
        units = PER_LAYER

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
