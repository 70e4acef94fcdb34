"""Command-line interface.

Subcommands: ``j`` (one variational constant), ``beta-b`` (threshold, single
b or sweep), ``estimates`` (analytic bounds over a sweep), ``simulate``
(pseudo-spectral run with blow-up report).

Sweeps are ``min:max:steps``, inclusive; ``beta-b`` takes exactly one of
``--b B`` (the one-row sweep ``B:B:1``) and ``--sweep``.  Every number a
command takes must be finite, or it exits 2 with nothing written; a sweep
must also run from min up to max, in at most 2^20 steps, and in one step
only where min = max (``MIN:MAX:1`` would drop max).

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
from functools import lru_cache

import numpy as np

from . import __version__
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


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_files(args, stem: str, files: dict, row_status=None) -> None:
    """Write ``files`` (resolved path -> text), then ``<stem>.manifest.json``
    naming them, each as UTF-8 with LF endings; every file the CLI writes
    goes through here."""
    manifest = {
        "command": args.command,
        "parameters": _params(args),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": list(files),
    }
    if row_status is not None:
        manifest["row_status"] = row_status
    for path, text in {**files, stem + ".manifest.json": _dump_json(manifest)}.items():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_sweep(text: str):
    # usage checks only; threshold.sweep_grid owns the range rule
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"sweep must be min:max:steps (got {text!r})")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _UsageError(f"bad sweep range {text!r}: {exc}") from exc
    if steps < 1:
        raise _UsageError("sweep steps must be >= 1")
    return lo, hi, steps


def _csv_lines(header, rows) -> str:
    # RFC 4180 quoting, so an ERROR: detail holding a comma stays one cell;
    # cells without a comma, quote or line break are written bare.
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return buf.getvalue()


def _write_table(args, header, rows, statuses) -> int:
    # The CSV to stdout or --out (with its manifest); exit 0 if any row is ok.
    text = _csv_lines(header, rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        path = _resolve_out(args.out)
        _write_files(args, os.path.splitext(path)[0], {path: text}, statuses)
    return EXIT_OK if any(s["status"] != "error" for s in statuses) else EXIT_DOMAIN


# ---------------------------------------------------------------- commands


def _cmd_j(args) -> int:
    text = _dump_json(dataclasses.asdict(compute_j(args.b, args.beta, n=args.grid)))
    sys.stdout.write(text)
    if args.json:
        path = _resolve_out(args.json)
        _write_files(args, os.path.splitext(path)[0], {path: text})
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


# The --ic presets in --help order; "fourier", from --coeffs, comes last.
_PRESETS = {"const": sim_mod.TorusField.constant, "cos": sim_mod.TorusField.cosine,
            "oddsine": sim_mod.TorusField.odd_sine}


def _initial_condition(args) -> sim_mod.TorusField:
    if args.ic in _PRESETS:
        return _PRESETS[args.ic](args.amp, args.n)
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
        "criterion_points": [dataclasses.asdict(p) for p in report.criterion_points],
    }
    text = _dump_json(payload)
    sys.stdout.write(text)

    if args.out:
        stem = _resolve_out(args.out)
        _write_files(args, stem, {
            stem + ".report.json": text,
            stem + ".series.csv": _csv_lines(sim_mod.SERIES_COLUMNS,
                                             trajectory.history.tolist()),
        })
    return EXIT_OK


# Built once per process, as parsing leaves the parser as it was: building
# it takes about a millisecond, which every main call paid.
@lru_cache(maxsize=None)
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
    p.add_argument("--ic", choices=[*_PRESETS, "fourier"], required=True)
    p.add_argument("--amp", type=float, default=1.0)
    p.add_argument("--coeffs", help="a0,a1,b1,a2,b2,... for --ic fourier")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--cfl", type=float, default=sim_mod.SimConfig.cfl)
    p.add_argument("--slope-threshold", type=float,
                   default=sim_mod.SimConfig.blowup_slope_threshold)
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
        # One rule over what the manifest records, before any work: a
        # non-finite number would reach the files as NaN/Infinity, not JSON.
        bad = [f"--{k.replace('_', '-')} = {v}" for k, v in _params(args).items()
               if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise ValueError(f"every number must be finite (got {', '.join(bad)})")
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
