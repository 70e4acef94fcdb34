import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bfamily import BETA_MAX, LinearSolveFailure, __version__, cli, threshold
from bfamily.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def _manifest(path):
    # NaN and Infinity are not JSON; json.loads accepts them unless told not to.
    # Every command's manifest records the package's one version.
    manifest = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert manifest["tool_version"] == __version__
    return manifest


def _series(path):
    header, *rows = path.read_text().splitlines()
    assert header == "t,min_slope,mean,h1_energy,tail_fraction"
    return [[float(c) for c in row.split(",")] for row in rows]


def _assert_close(got, want, path="$"):
    # Floats agree to 1e-10 relative; below 1e-3 in size, to 1e-13 absolute,
    # since the mean of cosine data (0) and the early tail fractions (~1e-29)
    # are roundoff.
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-3), (path, got, want)
    else:
        assert got == want, path


class TestFormat:
    def test_numpy_scalars_as_plain_text(self):
        # numpy scalars get the same cell text as the Python values
        assert cli._fmt(np.float64(0.1)) == cli._fmt(0.1) == "0.1"
        assert cli._fmt(np.float64(-4.336808689942018e-17)) == "-4.336808689942018e-17"
        assert cli._fmt(np.float32(0.5)) == "0.5"
        assert cli._fmt(True) == "true"
        assert cli._fmt(None) == ""
        assert cli._fmt("FINITE") == "FINITE"


class TestJ:
    def test_b2_beta0(self, capsys):
        code, out, _ = run_cli(capsys, "j", "--b", "2", "--beta", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] <= 1.0
        assert payload["method"] == "BVP_FLUX"
        assert payload["error_estimate"] >= 0.0

    def test_b3_special(self, capsys):
        code, out, _ = run_cli(capsys, "j", "--b", "3", "--beta", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 0.0
        assert payload["method"] == "SPECIAL_B3"

    def test_degenerate_weight_on_coarse_grid(self, capsys):
        # At beta = BETA_MAX the BVP route stays second order, so compute_j
        # keeps it on every grid; its band covers the error to J(2, BETA_MAX)
        # = (e+1)^2/(4e cosh 1).
        code, out, _ = run_cli(capsys, "j", "--b", "2", "--beta", repr(BETA_MAX),
                               "--grid", "512")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "BVP_FLUX"
        exact = (math.e + 1.0) ** 2 / (4.0 * math.e * math.cosh(1.0))
        assert abs(payload["value"] - exact) <= 1.1 * payload["error_estimate"]

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "j", "--b", "0.5", "--beta", "0")
        assert code == 2
        assert "domain error" in err

    @pytest.mark.parametrize("b", ["2", "3"])
    @pytest.mark.parametrize("grid", ["0", "-7"])
    def test_grid_below_64_refused_at_every_b(self, capsys, b, grid):
        # b = 3 needs no solve, but takes the same grid rule as every b.
        code, out, err = run_cli(capsys, "j", "--b", b, "--beta", "0", "--grid", grid)
        assert (code, out) == (2, "")
        assert f"need n >= 64 grid cells (got {grid})" in err

    @pytest.mark.parametrize("b", ["2", "3"])
    def test_oversized_grid_refused_at_every_b(self, capsys, b):
        # A domain error before any array is built, not a MemoryError (exit 3)
        code, out, err = run_cli(capsys, "j", "--b", b, "--beta", "0.5",
                                 "--grid", "100000000000")
        assert (code, out) == (2, "")
        assert "need n <= 16777216 grid cells (got 100000000000)" in err

    def test_usage_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "j", "--b", "2")
        assert code == 1
        assert "usage error" in err

    def test_json_file_and_manifest(self, capsys, tmp_path):
        target = tmp_path / "out" / "j.json"
        code, out, _ = run_cli(capsys, "j", "--b", "2", "--beta", "0",
                               "--json", str(target))
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)
        manifest = _manifest(tmp_path / "out" / "j.manifest.json")
        assert manifest["command"] == "j"
        assert str(target) in manifest["outputs"]


class TestBetaB:
    def test_single_b3(self, capsys):
        code, out, _ = run_cli(capsys, "beta-b", "--b", "3")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "b,beta_b,status,uncertainty,est1,est2,est3"
        cells = row.split(",")
        assert cells[2] == "FINITE"
        assert float(cells[1]) == pytest.approx(math.sqrt(1.5), abs=2e-4)
        # est columns populated and ordered est3 <= est2 <= est1
        e1, e2, e3 = float(cells[4]), float(cells[5]), float(cells[6])
        assert e3 <= e2 + 1e-9 <= e1 + 2e-9

    def test_est3_unavailable_next_to_three(self, capsys):
        # E3's Legendre series overflows just below b = 3; the row keeps its
        # certified threshold and leaves est3 empty.
        code, out, _ = run_cli(capsys, "beta-b", "--b", "2.9999999")
        assert code == 0
        cells = out.strip().split("\n")[1].split(",")
        assert cells[2] == "FINITE"
        assert cells[4] and cells[5] and cells[6] == ""

    def test_needs_exactly_one_selector(self, capsys):
        code, _, err = run_cli(capsys, "beta-b")
        assert code == 1
        code, _, _ = run_cli(capsys, "beta-b", "--b", "2", "--sweep", "1.5:2:2")
        assert code == 1

    def test_malformed_sweep(self, capsys):
        code, _, err = run_cli(capsys, "beta-b", "--sweep", "1.5:2")
        assert code == 1

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run_cli(capsys, "beta-b", "--b", "2.5")
        code2, out2, _ = run_cli(capsys, "beta-b", "--b", "2.5")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_out_file_and_manifest(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "beta-b", "--b", "3", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("b,beta_b,status")
        manifest = _manifest(tmp_path / "rows.manifest.json")
        assert manifest["row_status"][0]["status"] == "FINITE"

    def test_search_counts_not_written(self, capsys, tmp_path):
        # BetaBResult's solved_points, screened_points and max_gap stay out of
        # the CSV and the manifest.
        target = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "beta-b", "--b", "2", "--out", str(target))
        assert code == 0
        assert target.read_text().splitlines()[0] == "b,beta_b,status,uncertainty,est1,est2,est3"
        manifest_path = tmp_path / "rows.manifest.json"
        assert _manifest(manifest_path)["row_status"] == [{"b": 2.0, "status": "FINITE"}]
        manifest_text = manifest_path.read_text()
        for field in ("solved_points", "screened_points", "max_gap"):
            assert field not in manifest_text

    @pytest.mark.parametrize("failing, want_code", [({2.0}, 0), ({1.5, 2.0, 2.5}, 2)])
    def test_error_detail_with_commas_stays_one_cell(self, capsys, tmp_path, monkeypatch,
                                                     failing, want_code):
        detail = "tridiagonal system singular at b=2.0, beta=0.5, n=4096"
        compute = threshold.compute_beta_b

        def fail_at(b, **kwargs):
            if b in failing:
                raise LinearSolveFailure(detail)
            return compute(b, **kwargs)

        monkeypatch.setattr(threshold, "compute_beta_b", fail_at)
        target = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "beta-b", "--sweep", "1.5:2.5:3", "--out", str(target))
        assert code == want_code
        with open(target, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == 7 and [len(row) for row in rows] == [7, 7, 7]
        assert rows[1][2] == f"ERROR:LinearSolveFailure: {detail}"
        statuses = _manifest(tmp_path / "rows.manifest.json")["row_status"]
        assert [s["status"] == "error" for s in statuses] == [b in failing for b in (1.5, 2.0, 2.5)]

    def test_internal_error_exit_3(self, capsys, monkeypatch):
        def broken(b, **kwargs):
            raise TypeError("a bug, not a domain failure")

        monkeypatch.setattr(threshold, "compute_beta_b", broken)
        code, _, err = run_cli(capsys, "beta-b", "--b", "2")
        assert code == 3
        assert "internal error: TypeError" in err

    @pytest.mark.parametrize("spec", ["1.3:3:10", "1.005:1.06:8"])
    def test_sweep_matches_golden_file(self, capsys, tmp_path, spec):
        # The committed CSVs pin the sweep's bytes: a change that moves a scan
        # sign, a bisection step, a certificate verdict or a bound shows here.
        golden = DATA / f"beta_b_sweep_{spec.replace(':', '_')}.csv"
        target = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "beta-b", "--sweep", spec, "--out", str(target))
        assert code == 0
        assert target.read_bytes() == golden.read_bytes()

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BFAMILY_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "beta-b", "--b", "3", "--out", "sub/rows.csv")
        assert code == 0
        assert (tmp_path / "sub" / "rows.csv").exists()


class TestEstimates:
    def test_single_point_b2(self, capsys):
        code, out, _ = run_cli(capsys, "estimates", "--sweep", "2:2:1")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("b,est1,est1_valid,est2,est2_valid,est3,est3_valid")
        cells = row.split(",")
        assert float(cells[3]) == pytest.approx(1.0, abs=1e-12)
        assert cells[4] == "true"

    def test_est1_monotone_on_valid_range(self, capsys):
        code, out, _ = run_cli(capsys, "estimates", "--sweep", "1.28:3:50")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        vals = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_est3_validity_flips_near_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "estimates", "--sweep", "1.005:1.02:16")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        flags = [r[6] for r in rows]
        assert "false" in flags and "true" in flags
        flip_b = float(rows[flags.index("true")][0])
        assert flip_b == pytest.approx(1.012, abs=2e-3)

    def test_grid_joins_beta_b_sweep(self, capsys, monkeypatch):
        # Both commands must put the same b values on their rows, to the
        # last bit, so the two CSVs join on b.  The threshold search is
        # stubbed out: only the grid is under test.
        monkeypatch.setattr(threshold, "compute_beta_b",
                            lambda b, **kw: threshold.BetaBResult(
                                b=b, status=threshold.STATUS_INFINITE))
        spec = "1.28:3:100"
        code, beta_out, _ = run_cli(capsys, "beta-b", "--sweep", spec)
        assert code == 0
        code, est_out, _ = run_cli(capsys, "estimates", "--sweep", spec)
        assert code == 0
        beta_bs = [line.split(",")[0] for line in beta_out.strip().split("\n")[1:]]
        est_bs = [line.split(",")[0] for line in est_out.strip().split("\n")[1:]]
        assert len(est_bs) == 100
        assert est_bs == beta_bs

    def test_rows_ok_where_est3_unavailable(self, capsys):
        code, out, _ = run_cli(capsys, "estimates", "--sweep", "2.999998:3:3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [r[-1] for r in rows] == ["ok"] * 3
        assert all(r[1] and r[3] for r in rows)                  # E1 and E2 kept
        assert [(r[5], r[6]) for r in rows[:2]] == [("", "false")] * 2
        assert rows[2][6] == "true"                              # b = 3: sqrt(3/2)

    def test_out_file_and_manifest(self, capsys, tmp_path):
        target = tmp_path / "est.csv"
        code, _, _ = run_cli(capsys, "estimates", "--sweep", "1.0:2:2", "--out", str(target))
        assert code == 0
        manifest = _manifest(tmp_path / "est.manifest.json")
        assert manifest["outputs"] == [str(target)]
        assert [r["status"] for r in manifest["row_status"]] == ["error", "ok"]

    def test_out_of_domain_rows_reported(self, capsys):
        code, out, _ = run_cli(capsys, "estimates", "--sweep", "1.0:1.1:2")
        assert code == 0  # one good row is enough
        rows = out.strip().split("\n")[1:]
        assert rows[0].split(",")[-1].startswith("ERROR:")
        assert rows[1].split(",")[-1] == "ok"

    @pytest.mark.parametrize("command", ["estimates", "beta-b"])
    @pytest.mark.parametrize("spec", ["nan:2:3", "1.5:inf:3"])
    def test_non_finite_sweep_writes_nothing(self, capsys, tmp_path, command, spec):
        # A non-finite end is a domain error before any grid is built: no
        # NaN rows, no numpy RuntimeWarning from the grid, no file.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--sweep", spec,
                                     "--out", str(tmp_path / "rows.csv"))
        assert code == 2
        assert out == ""
        assert "finite" in err
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_constant_no_detection(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--b", "2", "--ic", "const", "--amp", "1",
            "--n", "256", "--t-max", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["detected"] is False
        assert payload["criterion_points"] == []
        assert payload["lifespan_bound"] is None

    @pytest.mark.parametrize("amp", ["1e-320", "1e-300", "1e154", "1e308"])
    def test_extreme_amplitudes_quiet(self, amp):
        # Tiny data: a lifespan bound beyond float range is null, not a
        # division by zero.  Huge data: the run stops on overflow without a
        # numpy warning, which -W error would turn into exit 3.
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "bfamily", "simulate", "--b", "2",
             "--ic", "cos", "--n", "64", "--beta-b", "0.5", "--amp", amp,
             "--t-max", "0.01"],
            capture_output=True, text=True, env=_checkout_env(),
        )
        assert (out.returncode, out.stderr) == (0, "")
        payload = json.loads(out.stdout, parse_constant=_reject_constant)
        assert payload["lifespan_bound"] != 0.0
        if float(amp) > 1e8:
            assert payload["stop_reason"] == "overflow"

    def test_cosine_detection_with_outputs(self, capsys, tmp_path):
        stem = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "simulate", "--b", "2", "--ic", "cos", "--amp", "1",
            "--n", "1024", "--t-max", "0.45", "--out", str(stem),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["detected"] is True
        assert payload["lifespan_bound"] == pytest.approx(1.0 / math.pi, abs=1e-3)
        assert payload["t_detect"] <= payload["lifespan_bound"] * 1.05
        series = (tmp_path / "run.series.csv").read_text().strip().split("\n")
        assert series[0] == "t,min_slope,mean,h1_energy,tail_fraction"
        assert len(series) > 10
        manifest = _manifest(tmp_path / "run.manifest.json")
        assert len(manifest["outputs"]) == 2

    def test_estimate_flag_for_criterion(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--b", "2", "--ic", "cos", "--amp", "1",
            "--n", "256", "--t-max", "0.01", "--criterion-beta", "estimate",
        )
        assert code == 0
        payload = json.loads(out)
        # conservative analytic threshold still certifies the cosine data
        assert payload["beta_b"] == pytest.approx(0.5932501380835192, abs=1e-9)
        assert payload["criterion_points"]

    def test_fourier_ic(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--b", "2.5", "--ic", "fourier",
            "--coeffs", "0.1,0.05,-0.02", "--n", "256", "--t-max", "0.01",
        )
        assert code == 0

    @pytest.mark.parametrize("suffix, extra", [("", ()), ("_nodealias", ("--no-dealias",))])
    def test_matches_golden_files(self, capsys, tmp_path, suffix, extra):
        # The committed report and series pin the stepping and the dealiasing:
        # row count, stop reason and verdict exactly, every float to 1e-10.
        golden = DATA / f"simulate_cos_b2_n256{suffix}"
        stem = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "simulate", "--b", "2", "--ic", "cos", "--n", "256", "--t-max", "0.5",
            "--beta-b", "0.51328", *extra, "--out", str(stem),
        )
        assert code == 0
        want = json.loads(Path(f"{golden}.report.json").read_text())
        got = json.loads((tmp_path / "run.report.json").read_text())
        assert (got["stop_reason"], got["detected"]) == (want["stop_reason"], want["detected"])
        _assert_close(got, want)
        want_rows = _series(Path(f"{golden}.series.csv"))
        assert "np." not in (tmp_path / "run.series.csv").read_text()
        got_rows = _series(tmp_path / "run.series.csv")
        assert len(got_rows) == len(want_rows)
        _assert_close(got_rows, want_rows)

    @pytest.mark.parametrize("bad", ["--amp=nan", "--beta-b=-inf", "--beta-b=-1", "--beta-b=0"])
    def test_bad_input_writes_no_file(self, capsys, tmp_path, bad):
        code, out, _ = run_cli(capsys, "simulate", "--b", "2", "--ic", "cos", "--n", "64",
                               bad, "--out", str(tmp_path / "run"))
        assert code == 2
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_relative_out_dir_env(self, capsys, tmp_path, monkeypatch):
        # A relative BFAMILY_OUT_DIR is joined to each output path once: the
        # three files land under it, not under out/out.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BFAMILY_OUT_DIR", "out")
        code, _, _ = run_cli(capsys, "simulate", "--b", "2", "--ic", "cos", "--n", "64",
                             "--t-max", "0.01", "--beta-b", "0.51328", "--out", "run")
        assert code == 0
        files = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
        assert files == [os.path.join("out", f"run.{ext}")
                         for ext in ("manifest.json", "report.json", "series.csv")]
        manifest = _manifest(tmp_path / "out" / "run.manifest.json")
        assert manifest["outputs"] == [os.path.join("out", "run.report.json"),
                                       os.path.join("out", "run.series.csv")]

    def test_bad_coeffs_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--b", "2", "--ic", "fourier", "--coeffs", "a,b",
        )
        assert code == 1


@pytest.mark.parametrize("argv, want", [
    (["j", "--b", "3.5", "--beta", "0.5"], 2),
    (["simulate", "--b", "2.5", "--ic", "oddsine", "--amp", "0.1", "--n", "64",
      "--t-max", "0.01"], 0),
    (["simulate", "--b", "2", "--ic", "fourier"], 1),
    (["simulate", "--b", "3.5", "--ic", "cos"], 2),
    (["beta-b", "--sweep", "1.3:3:0"], 1),
    (["beta-b", "--sweep", "a:b:3"], 1),
    # NaN is neither a valid tol nor a valid run parameter: a domain error,
    # not a row at the scan width or a run of NaN steps.
    (["beta-b", "--b", "2", "--tol", "nan"], 2),
    (["beta-b", "--sweep", "1.5:2:2", "--tol", "nan"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--beta-b-tol", "nan"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--cfl", "nan",
      "--beta-b", "0.51328"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--t-max", "nan",
      "--beta-b", "0.51328"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--slope-threshold", "nan",
      "--beta-b", "0.51328"], 2),
    # j takes no --method: compute_j is its one route.
    (["j", "--b", "2", "--beta", "0.5", "--method", "direct"], 1),
    # Non-finite data or threshold: refused before integrating, where the
    # report would have held NaN or Infinity, which is not JSON.
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--amp", "nan"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--amp", "inf"], 2),
    (["simulate", "--b", "2", "--ic", "fourier", "--n", "64", "--coeffs", "0.1,nan,0.2"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--beta-b", "nan"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--beta-b", "inf"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--beta-b", "-1"], 2),
    # A non-finite sweep end is a domain error for both sweeping commands.
    (["beta-b", "--sweep", "nan:2:3"], 2),
    (["estimates", "--sweep", "nan:2:3"], 2),
    (["estimates", "--sweep", "1.5:inf:3"], 2),
    # So is a reversed range.
    (["beta-b", "--sweep", "2:1.5:3"], 2),
    (["estimates", "--sweep", "2:1.5:3"], 2),
    # An infinite run parameter is refused too, not stepped on toward the
    # step cap or written to the manifest as Infinity; so is an unused one.
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--t-max", "inf",
      "--beta-b", "0.5"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--cfl", "inf",
      "--beta-b", "0.5"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--slope-threshold", "inf",
      "--beta-b", "0.5"], 2),
    (["simulate", "--b", "2", "--ic", "cos", "--n", "64", "--beta-b-tol", "inf",
      "--beta-b", "0.5"], 2),
])
def test_exit_code(capsys, argv, want):
    assert run_cli(capsys, *argv)[0] == want


# A run of each command that succeeds and writes files under {out}.
_GOOD_RUN = {
    "j": ["--b", "2", "--beta", "0.5", "--json", "{out}/j.json"],
    "beta-b": ["--b", "2", "--out", "{out}/rows.csv"],
    "estimates": ["--sweep", "1.5:2:2", "--out", "{out}/est.csv"],
    "simulate": ["--b", "2", "--ic", "cos", "--n", "64", "--t-max", "0.01",
                 "--beta-b", "0.5", "--out", "{out}/run"],
}


def _float_options():
    # Every float option the parser declares, so that one added later is
    # covered here without a new row.
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, parser in sub.choices.items()
            for action in parser._actions if action.type is float]


def test_float_options_found():
    assert ("simulate", "--t-max") in _float_options()
    assert {command for command, _ in _float_options()} <= _GOOD_RUN.keys()


def test_parser_built_once(capsys):
    # One parser per process; a refused command leaves it fit for the next.
    assert cli._build_parser() is cli._build_parser()
    assert main(["beta-b", "--b", "2", "--sweep", "1.5:2:3"]) == 1
    capsys.readouterr()
    assert main(["beta-b", "--b", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("3.0,")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", _float_options())
def test_non_finite_number_writes_nothing(capsys, tmp_path, command, flag, value):
    # A later occurrence of a flag overrides the good run's own value.
    argv = [arg.format(out=tmp_path) for arg in _GOOD_RUN[command]]
    code, out, err = run_cli(capsys, command, *argv, f"{flag}={value}")
    assert (code, out) == (2, "")
    assert f"{flag} = {value}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec, want", [
    ("1.5:2:2", 0), ("2:2:1", 0),
    ("2:1.5:3", 2), ("nan:2:3", 2), ("1.5:inf:3", 2),
    # one step drops max; 10^12 steps exceed the row cap
    ("1.5:2:1", 2), ("1.5:2:1000000000000", 2),
    ("1.5:2:0", 1), ("1.5:2", 1), ("a:b:3", 1),
])
def test_sweep_commands_share_range_check(capsys, tmp_path, spec, want):
    # beta-b and estimates give one spec the same exit code, and a refused
    # range writes nothing, to stdout or to --out.  An out-of-range b is not
    # in this table: there estimates writes ERROR: rows and beta-b exits 2
    # (test_sweep_end_outside_domain).
    for command in ("beta-b", "estimates"):
        code, out, _ = run_cli(capsys, command, "--sweep", spec)
        assert code == want, command
        assert bool(out) == (want == 0), command
        target = tmp_path / f"{command}.csv"
        code, out, _ = run_cli(capsys, command, "--sweep", spec, "--out", str(target))
        assert (code, out) == (want, ""), command
        assert target.exists() == (want == 0), command
    if want:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, want_code, want_statuses", [
    ("beta-b", 2, None),
    ("estimates", 0, ["ERROR:b = 1.0 is outside 1 < b <= 3", "ok", "ok"]),
])
def test_sweep_end_outside_domain(capsys, tmp_path, command, want_code, want_statuses):
    # b = 1.0 is outside 1 < b <= 3.  beta-b refuses the whole sweep, since
    # threshold.sweep checks both ends before any row; estimates records the
    # failure on that end's row and goes on.
    code, out, err = run_cli(capsys, command, "--sweep", "1:1.5:3")
    assert code == want_code
    target = tmp_path / "rows.csv"
    code, file_run_out, _ = run_cli(capsys, command, "--sweep", "1:1.5:3", "--out", str(target))
    assert (code, file_run_out) == (want_code, "")
    if want_statuses is None:
        assert out == ""
        assert "b = 1.0 is outside 1 < b <= 3" in err
        assert list(tmp_path.iterdir()) == []
    else:
        rows = list(csv.reader(out.splitlines()))[1:]
        assert [row[0] for row in rows] == ["1.0", "1.25", "1.5"]
        assert [row[-1] for row in rows] == want_statuses
        assert target.read_text() == out


def _checkout_env():
    # A child interpreter imports bfamily from this checkout, as pytest does
    # (pyproject.toml puts src/ on its path), installed or not.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


class TestConsoleScript:
    @pytest.mark.skipif(
        shutil.which("bfamily") is None,
        reason="the `bfamily` console script is not on PATH; it exists only "
               "where the package is installed (pip install -e . --no-build-isolation)",
    )
    def test_installed_entry_point(self):
        out = subprocess.run(
            ["bfamily", "j", "--b", "3", "--beta", "0"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["method"] == "SPECIAL_B3"

    def test_declared_entry_point_runs(self):
        # The part of the console-script contract that needs no install: the
        # declared target, run the way the generated wrapper runs it.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["bfamily"] == "bfamily.cli:main"
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; from bfamily.cli import main; sys.exit(main())",
             "j", "--b", "3", "--beta", "0"],
            capture_output=True, text=True, env=_checkout_env(),
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["method"] == "SPECIAL_B3"

    def test_python_m_bfamily(self):
        out = subprocess.run(
            [sys.executable, "-m", "bfamily", "j", "--b", "3", "--beta", "0"],
            capture_output=True, text=True, env=_checkout_env(),
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["method"] == "SPECIAL_B3"
