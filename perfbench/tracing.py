"""Spans around the calls into each layer, for the traced run.

Each target is replaced, for the duration of a traced round, by a wrapper
under the name its caller looks it up by, so the program itself is not
changed.  A span is ``[name, parent index, start, end, tag]``; spans stay in
memory and the benchmark writes them out at the end.  A span's self time is
its duration minus the time its child spans cover.

A target that no longer exists is skipped and listed in ``Tracer.absent``;
the metrics that need it are then left out instead of reported as zero.
"""

import importlib
import statistics
import time
from operator import attrgetter

RAISED = "raised"

# (span name, module, attribute, tag taken from the return value)
TARGETS = (
    ("l0.spd_solve", "bfamily.variational", "spd_solve", len),
    ("l1.solve_euler_lagrange", "bfamily.variational", "solve_euler_lagrange", None),
    ("l1.compute_j_direct", "bfamily.variational", "compute_j_direct", None),
    ("l2.compute_j", "bfamily.threshold", "compute_j", attrgetter("method")),
    ("l3.compute_beta_b", "bfamily.threshold", "compute_beta_b", attrgetter("status")),
    ("l4.estimates", "bfamily.threshold", "estimate1", None),
    ("l4.estimates", "bfamily.threshold", "estimate2", None),
    ("l4.estimates", "bfamily.threshold", "estimate3", None),
    ("l4.sweep", "bfamily.threshold", "sweep", None),
    ("s2.integrate", "bfamily.sim", "integrate", None),
    ("s1.fft", "numpy.fft", "rfft", None),
    ("s1.fft", "numpy.fft", "irfft", None),
    ("s1.fft", "scipy.fft", "rfft", None),
    ("s1.fft", "scipy.fft", "irfft", None),
)

# Metrics that need a target; left out when the target is absent.
NEEDS = {
    "l0.spd_solve": ("l0.",),
    "l1.solve_euler_lagrange": ("l1.solve_euler_lagrange.",),
    "l1.compute_j_direct": ("l1.compute_j_direct.",),
    "l2.compute_j": ("l2.",),
    "l3.compute_beta_b": ("l3.",),
    "l4.sweep": ("l4.sweep.calls", "l4.sweep.self_s"),
    "l4.estimates": ("l4.estimates.",),
    "s2.integrate": ("s1.rk4_steps", "s1.us_per_step", "s1.ffts_per_step", "s1.fft_share",
                     "s2."),
    "s1.fft": ("s1.fft", "s1.ffts_per_step"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []
        self.absent = []

    def _wrap(self, name, fn, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[3] = clock()
                rec[4] = RAISED
                stack.pop()
                raise
            rec[3] = clock()
            stack.pop()
            if tag is not None:
                rec[4] = tag(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a span of the benchmark's own (an operation)."""
        return self._wrap(name, fn, None)(*args)

    def install(self):
        for name, module, attr, tag in TARGETS:
            try:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            setattr(mod, attr, self._wrap(name, fn, tag))
            self._installed.append((mod, attr, fn))

    def uninstall(self):
        while self._installed:
            mod, attr, fn = self._installed.pop()
            setattr(mod, attr, fn)


def _nearest(spans, parents, match):
    """For every span, the index of its nearest ancestor-or-self matching
    ``match``, or -1.  Parents precede their children in ``spans``."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        if match(s[0]):
            out[i] = i
        elif parents[i] >= 0:
            out[i] = out[parents[i]]
    return out


def _pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def round_metrics(spans, ops, workload):
    """Per-layer metrics of one traced round plus its exact work counts."""
    parents = [s[1] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    covered = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        agg = by_name.setdefault(s[0], {"calls": 0, "dur": 0.0, "self": 0.0, "idx": []})
        agg["calls"] += 1
        agg["dur"] += dur[i]
        agg["self"] += dur[i] - covered[i]
        agg["idx"].append(i)

    def stat(name, key):
        return by_name.get(name, {"calls": 0, "dur": 0.0, "self": 0.0, "idx": []})[key]

    l3_of = _nearest(spans, parents, lambda n: n == "l3.compute_beta_b")
    l2_of = _nearest(spans, parents, lambda n: n == "l2.compute_j")
    int_of = _nearest(spans, parents, lambda n: n == "s2.integrate")
    op_of = _nearest(spans, parents, lambda n: n == "cli" or n.startswith("op."))
    # one operation span per entry of ``ops``, in the same order
    op_pos = {i: k for k, i in enumerate(i for i in range(len(spans)) if op_of[i] == i)}

    solves = stat("l0.spd_solve", "idx")
    unknowns = sum(spans[i][4] for i in solves if isinstance(spans[i][4], int))
    m = {
        "l0.spd_solve.calls": len(solves),
        "l0.spd_solve.self_s": stat("l0.spd_solve", "self"),
        "l0.spd_solve.ns_per_unknown": (stat("l0.spd_solve", "dur") / unknowns * 1e9
                                        if unknowns else 0.0),
        # diag, off, rhs and the solution, 8 bytes per entry
        "l0.spd_solve.bytes_computed": sum(8 * (4 * spans[i][4] - 1) for i in solves
                                           if isinstance(spans[i][4], int)),
        "l0.spd_solve.failures": sum(1 for i in solves if spans[i][4] == RAISED),
        "l1.solve_euler_lagrange.calls": stat("l1.solve_euler_lagrange", "calls"),
        "l1.solve_euler_lagrange.self_s": stat("l1.solve_euler_lagrange", "self"),
        "l1.compute_j_direct.calls": stat("l1.compute_j_direct", "calls"),
        "l1.compute_j_direct.self_s": stat("l1.compute_j_direct", "self"),
        "l2.compute_j.calls": stat("l2.compute_j", "calls"),
        "l2.compute_j.self_s": stat("l2.compute_j", "self"),
        "l3.compute_beta_b.calls": stat("l3.compute_beta_b", "calls"),
        "l3.compute_beta_b.self_s": stat("l3.compute_beta_b", "self"),
        "l4.sweep.calls": stat("l4.sweep", "calls"),
        "l4.sweep.self_s": stat("l4.sweep", "self"),
        "l4.estimates.self_s": stat("l4.estimates", "self"),
        "s2.integrate.calls": stat("s2.integrate", "calls"),
        "s2.integrate.self_s": stat("s2.integrate", "self"),
        "s1.fft.calls": stat("s1.fft", "calls"),
        "s1.fft.self_s": stat("s1.fft", "self"),
        "cli.self_s": stat("cli", "self"),
    }
    counts = {}

    # L2: a compute_j that reached no solve (and is not the exact b = 3
    # value) was served from a cache.
    j_spans = stat("l2.compute_j", "idx")
    solves_under_j = {}
    for i in solves:
        if l2_of[i] >= 0:
            solves_under_j[l2_of[i]] = solves_under_j.get(l2_of[i], 0) + 1
    hits = sum(1 for i in j_spans
               if i not in solves_under_j and spans[i][4] not in ("SPECIAL_B3", RAISED))
    j_evals = len(j_spans) + sum(stat(n, "calls") for n in ("op.j_bvp", "op.j_direct"))
    m["l2.compute_j.cache_hit_ratio"] = hits / len(j_spans) if j_spans else 0.0
    m["l2.solves_per_j"] = len(solves) / j_evals if j_evals else 0.0
    counts["compute_j_cache_hits"] = hits

    # L3: work per threshold, by status
    per_bb = {i: {"j": 0, "solves": 0} for i in stat("l3.compute_beta_b", "idx")}
    for i in j_spans:
        if l3_of[i] >= 0:
            per_bb[l3_of[i]]["j"] += 1
    for i in solves:
        if l3_of[i] >= 0:
            per_bb[l3_of[i]]["solves"] += 1
    by_status = {}
    for i, c in per_bb.items():
        entry = by_status.setdefault(str(spans[i][4]),
                                     {"calls": 0, "j_evals": set(), "solves": set()})
        entry["calls"] += 1
        entry["j_evals"].add(c["j"])
        entry["solves"].add(c["solves"])
    counts["per_beta_b_by_status"] = {
        k: {"calls": v["calls"], "j_evals": sorted(v["j_evals"]), "solves": sorted(v["solves"])}
        for k, v in sorted(by_status.items())}
    finite = [c for i, c in per_bb.items() if spans[i][4] == "FINITE"]
    m["l3.j_evals_per_beta_b"] = statistics.median(c["j"] for c in finite) if finite else 0.0
    m["l3.solves_per_beta_b"] = statistics.median(c["solves"] for c in finite) if finite else 0.0
    bb_ms = sorted(dur[i] * 1e3 for i in per_bb)
    m["l3.compute_beta_b.p50_ms"] = _pct(bb_ms, 50)
    m["l3.compute_beta_b.p75_ms"] = _pct(bb_ms, 75)

    # L4: rows the sweep reported as errors
    if workload == "sweep":
        m["l4.sweep.error_rows"] = sum(1 for op in ops for cells in op["rows"]
                                       if len(cells) > 2 and cells[2].startswith("ERROR"))
    else:
        m["l4.sweep.error_rows"] = 0

    # S1/S2: steps per run come from the series CSV, FFTs from the spans
    ffts_under = {}  # integrate span -> [FFT calls, FFT seconds]
    for i in stat("s1.fft", "idx"):
        if int_of[i] >= 0:
            acc = ffts_under.setdefault(int_of[i], [0, 0.0])
            acc[0] += 1
            acc[1] += dur[i]
    runs = []
    for i in stat("s2.integrate", "idx"):
        op = ops[op_pos[op_of[i]]] if op_of[i] in op_pos else {}
        if "steps" in op:
            ffts, fft_s = ffts_under.get(i, (0, 0.0))
            runs.append({"name": op["name"], "n": op["n"], "steps": op["steps"],
                         "ffts": ffts, "fft_s": fft_s, "integrate_s": dur[i]})
    steps = sum(r["steps"] for r in runs)
    m["s1.rk4_steps"] = steps
    for n in (1024, 2048):
        sel = [r for r in runs if r["n"] == n]
        n_steps = sum(r["steps"] for r in sel)
        m[f"s1.us_per_step.n{n}"] = (sum(r["integrate_s"] for r in sel) / n_steps * 1e6
                                     if n_steps else 0.0)
    # FFTs per step as the slope over the runs: each run also makes a fixed
    # number of FFTs outside its steps (initial record, criterion check).
    lo = min(runs, key=lambda r: r["steps"], default=None)
    hi = max(runs, key=lambda r: r["steps"], default=None)
    if lo is not None and hi["steps"] > lo["steps"]:
        per_step = (hi["ffts"] - lo["ffts"]) / (hi["steps"] - lo["steps"])
    else:
        per_step = sum(r["ffts"] for r in runs) / steps if steps else 0.0
    m["s1.ffts_per_step"] = per_step
    int_s = sum(r["integrate_s"] for r in runs)
    m["s1.fft_share"] = sum(r["fft_s"] for r in runs) / int_s if int_s else 0.0
    counts["runs"] = {r["name"]: {"steps": r["steps"], "ffts": r["ffts"],
                                  "ffts_outside_steps": r["ffts"] - per_step * r["steps"]}
                      for r in runs}
    counts.update({k: v for k, v in m.items() if k.endswith((".calls", ".failures"))
                   or k in ("l0.spd_solve.bytes_computed", "s1.rk4_steps")})
    return m, counts


def drop_absent(metrics, absent):
    prefixes = tuple(p for name in absent for p in NEEDS.get(name, ()))
    return {k: v for k, v in metrics.items() if not k.startswith(prefixes)}
