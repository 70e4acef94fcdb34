"""Command-line interface.

Subcommands: ``j`` (one variational constant), ``beta-b`` (threshold, single
b or sweep), ``estimates`` (analytic bounds over a sweep), ``simulate``
(pseudo-spectral run with blow-up report).

Sweeps are ``min:max:steps``, inclusive; ``beta-b`` takes exactly one of
``--b B`` (the one-row sweep ``B:B:1``) and ``--sweep``.  Both sweep commands
refuse a non-finite or reversed range (exit 2) before any row is built.

Conventions: CSV files are UTF-8 with LF line endings, a header row, comma
delimiter, RFC 4180 quoting of a cell that holds a comma, and floats
rendered with Python's shortest round-trip repr; JSON objects have a fixed
key order.  Exit codes: 0 success, 1 usage error, 2 domain error,
3 internal error.  Relative output paths are resolved against
``BFAMILY_OUT_DIR`` when that variable is set.  Every invocation that writes
files also writes a ``<stem>.manifest.json`` referencing them.
"""

import argparse
import csv
import dataclasses
import datetime
import io
import json
import math
import os
import sys
from importlib.metadata import PackageNotFoundError, version as _pkg_version

import numpy as np

from . import estimates as est_mod
from . import sim as sim_mod
from . import threshold as thr_mod
from .errors import BFamilyError
from .variational import _DEFAULT_N, compute_j

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here is exit 1.
    def error(self, message):
        raise _UsageError(message)


def _tool_version() -> str:
    try:
        return _pkg_version("bfamily")
    except PackageNotFoundError:
        return "unknown"


def _fmt(value) -> str:
    """Shortest round-trip text for a CSV cell; empty cell for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        # repr of a numpy float is "np.float64(x)"; the float's is "x"
        return repr(float(value))
    return str(value)


def _resolve_out(path: str) -> str:
    # Once per output path: the result is final, never resolved again.
    base = os.environ.get("BFAMILY_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _params(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("fn", "command")}


def _write_manifest(stem: str, command: str, params: dict, outputs: list, rows=None):
    manifest = {
        "command": command,
        "parameters": params,
        "tool_version": _tool_version(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }
    if rows is not None:
        manifest["row_status"] = rows
    _write_text(stem + ".manifest.json", _dump_json(manifest))


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, already resolved, as UTF-8 with LF endings;
    every file the CLI writes goes through here."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _parse_sweep(text: str):
    # the one range check of both sweep commands
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"sweep must be min:max:steps (got {text!r})")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _UsageError(f"bad sweep range {text!r}: {exc}") from exc
    if steps < 1:
        raise _UsageError("sweep steps must be >= 1")
    # a domain error, before a grid of NaN or descending rows is built
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"sweep ends must be finite with min <= max (got {text!r})")
    return lo, hi, steps


def _csv_lines(header, rows) -> str:
    # RFC 4180 quoting, so an ERROR: detail holding a comma stays one cell;
    # cells without a comma, quote or line break are written bare.
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return buf.getvalue()


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return None
    path = _resolve_out(out)
    _write_text(path, text)
    return path


def _write_table(args, header, rows, statuses) -> int:
    # The CSV to stdout or --out (with its manifest); exit 0 if any row is ok.
    path = _emit(_csv_lines(header, rows), args.out)
    if path:
        _write_manifest(os.path.splitext(path)[0], args.command, _params(args), [path], statuses)
    return EXIT_OK if any(s["status"] != "error" for s in statuses) else EXIT_DOMAIN


# ---------------------------------------------------------------- commands


def _cmd_j(args) -> int:
    text = _dump_json(dataclasses.asdict(compute_j(args.b, args.beta, n=args.grid)))
    sys.stdout.write(text)
    if args.json:
        path = _emit(text, args.json)
        _write_manifest(os.path.splitext(path)[0], "j", _params(args), [path])
    return EXIT_OK


_BETAB_HEADER = ["b", "beta_b", "status", "uncertainty", "est1", "est2", "est3"]


def _est_cell(e):
    if e is not None and e.valid and e.bound is not None:
        return e.bound
    return None


def _cmd_beta_b(args) -> int:
    # --b B is the one-row sweep B:B:1
    lo, hi, steps = (args.b, args.b, 1) if args.sweep is None else _parse_sweep(args.sweep)
    rows, statuses = [], []
    for row in thr_mod.sweep(lo, hi, steps, tol=args.tol):
        r = row.result
        if r is None:
            rows.append([row.b, None, f"ERROR:{row.error}", None, None, None, None])
            statuses.append({"b": row.b, "status": "error", "detail": row.error})
        else:
            rows.append([row.b, r.beta_b, r.status, r.uncertainty,
                         _est_cell(row.est1), _est_cell(row.est2), _est_cell(row.est3)])
            statuses.append({"b": row.b, "status": r.status})
    return _write_table(args, _BETAB_HEADER, rows, statuses)


_EST_HEADER = [
    "b", "est1", "est1_valid", "est2", "est2_valid", "est3", "est3_valid",
    "alpha", "gamma", "status",
]


def _cmd_estimates(args) -> int:
    lo, hi, steps = _parse_sweep(args.sweep)
    th = est_mod.thresholds()
    rows, statuses = [], []
    for b in thr_mod.sweep_grid(lo, hi, steps):
        try:
            e1, e2, e3 = est_mod.estimate1(b), est_mod.estimate2(b), est_mod.estimate3(b)
            rows.append([
                b, e1.bound, e1.valid, e2.bound, e2.valid, e3.bound, e3.valid,
                th["alpha"], th["gamma"], "ok",
            ])
            statuses.append({"b": b, "status": "ok"})
        except BFamilyError as exc:
            rows.append([b, None, None, None, None, None, None,
                         th["alpha"], th["gamma"], f"ERROR:{exc}"])
            statuses.append({"b": b, "status": "error", "detail": str(exc)})
    return _write_table(args, _EST_HEADER, rows, statuses)


def _initial_condition(args) -> sim_mod.TorusField:
    if args.ic == "const":
        return sim_mod.TorusField.constant(args.amp, args.n)
    if args.ic == "cos":
        return sim_mod.TorusField.cosine(args.amp, args.n)
    if args.ic == "oddsine":
        return sim_mod.TorusField.odd_sine(args.amp, args.n)
    # fourier, the last of argparse's choices
    if not args.coeffs:
        raise _UsageError("--ic fourier requires --coeffs")
    try:
        vals = [float(tok) for tok in args.coeffs.split(",")]
    except ValueError as exc:
        raise _UsageError(f"bad --coeffs: {exc}") from exc
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"--coeffs must be finite (got {args.coeffs!r})")
    # a0, a1, b1, a2, b2, ...: cosine and sine amplitudes per mode
    cos_c = [vals[0]] + vals[1::2]
    sin_c = [0.0] + vals[2::2]
    return sim_mod.TorusField.from_coefficients(cos_c, sin_c, args.n)


def _cmd_simulate(args) -> int:
    # Checked here, not in TorusField: a run may end on a non-finite state,
    # but its inputs must be finite for report.json to be valid JSON.
    if not math.isfinite(args.amp):
        raise ValueError(f"--amp must be finite (got {args.amp})")
    if args.beta_b is not None and not (math.isfinite(args.beta_b) and args.beta_b > 0.0):
        raise ValueError(f"--beta-b must be finite and > 0 (got {args.beta_b})")
    u0 = _initial_condition(args)
    cfg = sim_mod.SimConfig(
        b=args.b, t_max=args.t_max, cfl=args.cfl,
        blowup_slope_threshold=args.slope_threshold,
        dealias=not args.no_dealias,
    )
    beta_b = args.beta_b
    if beta_b is None:
        if args.criterion_beta == "estimate":
            e3 = est_mod.estimate3(args.b)
            beta_b = e3.bound if e3.valid else None
        else:
            res = thr_mod.compute_beta_b(args.b, tol=args.beta_b_tol)
            beta_b = res.beta_b if res.status == thr_mod.STATUS_FINITE else None

    trajectory, report = sim_mod.integrate(u0, cfg, beta_b=beta_b)

    payload = {
        "b": args.b,
        "ic": args.ic,
        "amp": args.amp,
        "n": args.n,
        "beta_b": beta_b,
        "detected": report.detected,
        "t_detect": report.t_detect,
        "resolution_loss": report.resolution_loss,
        "stop_reason": report.stop_reason,
        "lifespan_bound": report.lifespan_bound,
        "criterion_points": [
            {"x": p.x, "u0": p.u0, "du0": p.du0, "margin": p.margin}
            for p in report.criterion_points
        ],
    }
    text = _dump_json(payload)
    sys.stdout.write(text)

    if args.out:
        stem = _resolve_out(args.out)
        report_path, series_path = stem + ".report.json", stem + ".series.csv"
        _write_text(report_path, text)
        series_rows = [
            [t, s, m, h, q]
            for (t, s), m, h, q in zip(
                report.min_slope_history, trajectory.mean_history,
                trajectory.h1_history, trajectory.tail_history,
            )
        ]
        _write_text(series_path, _csv_lines(
            ["t", "min_slope", "mean", "h1_energy", "tail_fraction"], series_rows))
        _write_manifest(stem, "simulate", _params(args), [report_path, series_path])
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="bfamily",
                     description="Blow-up thresholds for the periodic b-family of equations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("j", help="compute the variational constant J(b, beta)")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--grid", type=int, default=_DEFAULT_N)
    p.add_argument("--json", help="also write the JSON result to this path")
    p.set_defaults(fn=_cmd_j)

    p = sub.add_parser("beta-b", help="compute the blow-up threshold")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--b", type=float)
    one.add_argument("--sweep", help="b range as min:max:steps (inclusive)")
    p.add_argument("--tol", type=float, default=thr_mod._DEFAULT_TOL)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(fn=_cmd_beta_b)

    p = sub.add_parser("estimates", help="tabulate the analytic bounds")
    p.add_argument("--sweep", required=True, help="b range as min:max:steps (inclusive)")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(fn=_cmd_estimates)

    p = sub.add_parser("simulate", help="run the pseudo-spectral solver")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--ic", choices=["const", "cos", "oddsine", "fourier"], required=True)
    p.add_argument("--amp", type=float, default=1.0)
    p.add_argument("--coeffs", help="a0,a1,b1,a2,b2,... for --ic fourier")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--cfl", type=float, default=0.3)
    p.add_argument("--slope-threshold", type=float, default=1e4)
    p.add_argument("--no-dealias", action="store_true")
    p.add_argument("--beta-b", type=float, help="use this threshold value directly")
    p.add_argument("--beta-b-tol", type=float, default=thr_mod._DEFAULT_TOL)
    p.add_argument("--criterion-beta", choices=["numeric", "estimate"], default="numeric",
                   help="threshold source for the criterion check")
    p.add_argument("--out", help="output stem for report/series/manifest files")
    p.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BFamilyError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
