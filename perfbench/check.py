"""Compare a round's outputs with the reference outputs recorded by
``make_reference.py``.

Exact: sweep ``status`` and ``sign_reversal_above``; simulate ``detected``,
``stop_reason``, ``resolution_loss``, step count and number of criterion
points; J ``method``.  Within a tolerance:

* ``beta_b`` within the reference row's own ``uncertainty``; the new
  ``uncertainty`` in (0, TOL];
* closed-form estimates est1..est3 within 1e-9 relative;
* ``t_detect`` within 1e-6 relative, ``lifespan_bound`` within 1e-9 relative;
* J value and error estimate within 1e-6 * max(1, |J|) + 4 * the reference's
  own error estimate (round-off at n = 2**20 reaches ~5e-8).

Byte identity of the CLI's CSV and report files (J: bit identity of the
floats) is recorded as ``outputs_identical`` and is not a failure.
"""

import copy

SWEEP_HEADER = "b,beta_b,status,uncertainty,est1,est2,est3"
TOL = 1e-4  # the CLI's default --tol, so the certified bracket width


def _num(cell: str):
    return None if cell == "" else float(cell)


def _close(x, ref, rel: float) -> bool:
    if x is None or ref is None:
        return x is ref
    return abs(x - ref) <= rel * max(1.0, abs(ref))


def _rows_in(spec: str) -> int:
    return int(spec.rsplit(":", 1)[1])


def check_sweep_op(op, ref) -> tuple[int, int, list, bool]:
    """(attempted, failed, messages, identical) for one CLI sweep call."""
    attempted = _rows_in(op["spec"])
    if op["error"] or op["header"] != SWEEP_HEADER or len(op["rows"]) != attempted:
        return attempted, attempted, [f"{op['spec']}: {op['error'] or 'malformed CSV'}"], False
    failed, msgs = 0, []
    for cells in op["rows"]:
        if len(cells) != len(SWEEP_HEADER.split(",")):
            # an ERROR row whose message holds commas, or garbage
            failed += 1
            msgs.append(f"{op['spec']}: malformed row {','.join(cells)!r}")
            continue
        b, beta_b, status, unc = cells[0], _num(cells[1]), cells[2], _num(cells[3])
        r = ref["rows"].get(b)
        problems = []
        if r is None:
            problems.append("no reference row")
        else:
            if status != r["status"]:
                problems.append(f"status {status} != {r['status']}")
            elif status == "FINITE":
                if beta_b is None or abs(beta_b - r["beta_b"]) > r["uncertainty"]:
                    problems.append(f"beta_b {beta_b} outside {r['beta_b']} +- {r['uncertainty']}")
                if unc is None or not 0.0 < unc <= TOL:
                    problems.append(f"uncertainty {unc} not in (0, {TOL}]")
            elif beta_b is not None or unc is not None:
                problems.append("beta_b given for a non-FINITE row")
            for k, cell in zip(("est1", "est2", "est3"), cells[4:7]):
                if not _close(_num(cell), r[k], 1e-9):
                    problems.append(f"{k} {cell} != {r[k]}")
            taps = op["sign_reversal_above"]
            if taps is not None and taps.get(b) != r["sign_reversal_above"]:
                problems.append(f"sign_reversal_above {taps.get(b)} != {r['sign_reversal_above']}")
        if problems:
            failed += 1
            msgs.append(f"b={b}: " + "; ".join(problems))
    identical = op["csv_sha256"] == ref["csv_sha256"].get(op["spec"])
    return attempted, failed, msgs, identical


def check_breaking_op(op, ref) -> tuple[int, int, list, bool]:
    r = ref[op["name"]]
    if op["error"]:
        return 1, 1, [f"{op['name']}: {op['error']}"], False
    rep = op["report"]
    problems = []
    for k in ("detected", "stop_reason", "resolution_loss"):
        if rep[k] != r[k]:
            problems.append(f"{k} {rep[k]!r} != {r[k]!r}")
    if op["steps"] != r["steps"]:
        problems.append(f"steps {op['steps']} != {r['steps']}")
    if len(rep["criterion_points"]) != r["n_criterion_points"]:
        problems.append("criterion point count differs")
    if not _close(rep["t_detect"], r["t_detect"], 1e-6):
        problems.append(f"t_detect {rep['t_detect']} != {r['t_detect']}")
    if not _close(rep["lifespan_bound"], r["lifespan_bound"], 1e-9):
        problems.append(f"lifespan_bound {rep['lifespan_bound']} != {r['lifespan_bound']}")
    identical = (op["report_sha256"] == r["report_sha256"]
                 and op["series_sha256"] == r["series_sha256"])
    msgs = [f"{op['name']}: " + "; ".join(problems)] if problems else []
    return 1, int(bool(problems)), msgs, identical


def j_tolerance(r) -> float:
    return 1e-6 * max(1.0, abs(r["value"])) + 4.0 * r["error_estimate"]


def check_j_op(op, ref) -> tuple[int, int, list, bool]:
    r = ref.get(op["key"])
    if op["error"] or r is None:
        return 1, 1, [f"{op['key']}: {op['error'] or 'no reference'}"], False
    problems = []
    if op["method"] != r["method"]:
        problems.append(f"method {op['method']} != {r['method']}")
    tol = j_tolerance(r)
    for k in ("value", "error_estimate"):
        if not abs(op[k] - r[k]) <= tol:
            problems.append(f"{k} {op[k]!r} != {r[k]!r} (tol {tol:.3g})")
    identical = op["value"] == r["value"] and op["error_estimate"] == r["error_estimate"]
    msgs = [f"{op['key']}: " + "; ".join(problems)] if problems else []
    return 1, int(bool(problems)), msgs, identical


CHECKERS = {"sweep": check_sweep_op, "breaking": check_breaking_op, "j-refine": check_j_op}


def check_ops(workload: str, ops: list, reference: dict) -> dict:
    attempted = failed = 0
    identical = True
    msgs = []
    for op in ops:
        a, f, m, same = CHECKERS[workload](op, reference[workload])
        attempted, failed, identical = attempted + a, failed + f, identical and same
        msgs.extend(m)
    unchecked = workload == "sweep" and any(op["sign_reversal_above"] is None for op in ops)
    return {"attempted": attempted, "failed": failed, "messages": msgs,
            "outputs_identical": identical, "sign_reversal_unchecked": unchecked}


# ---------------------------------------------------------------- self-test


def _perturbations(workload: str, ops: list, reference: dict) -> dict:
    """Copies of the reference, each with one value changed that the
    checker must count as a failure on ``ops``."""
    out = {}
    ref = reference[workload]
    if workload == "sweep":
        b_keys = [cells[0] for op in ops for cells in op["rows"]]
        finite = [b for b in b_keys if ref["rows"].get(b, {}).get("status") == "FINITE"]
        if b_keys:
            p = copy.deepcopy(reference)
            row = p["sweep"]["rows"][b_keys[0]]
            row["status"] = "INFINITE_IN_BRACKET" if row["status"] == "FINITE" else "FINITE"
            out["flipped_status"] = p
        if finite:
            p = copy.deepcopy(reference)
            row = p["sweep"]["rows"][finite[0]]
            row["beta_b"] += 2.0 * row["uncertainty"]
            out["beta_b_shifted_past_uncertainty"] = p
    elif workload == "breaking":
        p = copy.deepcopy(reference)
        run = p["breaking"][ops[0]["name"]]
        run["stop_reason"] = "max_steps" if run["stop_reason"] != "max_steps" else "t_max"
        out["changed_stop_reason"] = p
    else:
        p = copy.deepcopy(reference)
        p["j-refine"][ops[0]["key"]]["method"] = "SPECIAL_B3"
        out["changed_method"] = p
        p = copy.deepcopy(reference)
        r = p["j-refine"][ops[0]["key"]]
        r["value"] += 2.0 * j_tolerance(r)
        out["value_shifted_past_tolerance"] = p
    return out


def self_test(workload: str, ops: list, reference: dict) -> dict:
    """Check ``ops`` against perturbed references.  Each entry says whether
    the perturbation raised the failed count above the unperturbed one."""
    base = check_ops(workload, ops, reference)["failed"]
    return {name: check_ops(workload, ops, p)["failed"] > base
            for name, p in _perturbations(workload, ops, reference).items()}

