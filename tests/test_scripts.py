"""The runnable scripts in scripts/, each in its own interpreter, against the
CLI subcommands they share their code path with."""

import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from hgspdc import reference
from hgspdc.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PARAMS, main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)


def test_reproduce_reference_matrices_within_tolerance():
    proc = run_script("reproduce_reference_matrices.py")
    assert proc.returncode == 0, proc.stderr
    devs = [float(v) for v in
            re.findall(r"max \|deviation\| from reference: (\S+)", proc.stdout)]
    assert len(devs) == 2
    assert all(d <= reference.ENTRY_TOL for d in devs)


@pytest.mark.parametrize("rytov", ["2", "-1", "nan"])
def test_reproduce_reference_matrices_bad_rytov_exit_2(rytov):
    proc = run_script("reproduce_reference_matrices.py", "--rytov", rytov)
    assert proc.returncode == EXIT_PARAMS and proc.stdout == ""
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr


def test_reproduce_reference_matrices_numerical_failure(monkeypatch, capsys, corrupt_seeds):
    # in-process, so that a nan delta at the turbulent set can be injected
    corrupt_seeds(lambda seeds, gamma:
                  seeds._replace(delta=math.nan) if gamma > 0 else seeds)
    monkeypatch.setattr(sys, "argv", ["reproduce_reference_matrices.py"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "reproduce_reference_matrices.py"),
                       run_name="__main__")
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_NUMERICAL and out == ""
    assert err.startswith("error: numerical failure: ") and "Traceback" not in err


def test_turbulence_sweep_matches_cli(tmp_path):
    proc = run_script("turbulence_sweep.py", "--pairs", "00:00 00:01 11:11",
                      "--steps", "6", "--output", "script.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "6 grid points, 3 pairs" in proc.stdout
    grid = [0.1 * k / 5 for k in range(6)]
    cli_path = tmp_path / "cli.csv"
    code = main(["sweep", "--grid", ",".join(repr(g) for g in grid),
                 "--pairs", "00:00 00:01 11:11", "--output", str(cli_path)])
    assert code == EXIT_OK
    assert (tmp_path / "script.csv").read_text() == cli_path.read_text()


# the script's own flags fail with its usage, and a pair it passes on
# with the error line of `hgspdc sweep`
@pytest.mark.parametrize("args, error", [
    (["--steps", "1"], "usage:"), (["--steps", "0"], "usage:"),
    (["--pairs", "00-01"], "error: invalid parameters: pair token '00-01'"),
    (["--max-rytov", "-0.1"], "usage:"),
    (["--pairs", "a,b:00"], "error: invalid parameters: cannot parse mode token 'a,b'"),
    (["--pairs", "00,01:00"], "error: invalid parameters: mode token '00,01'"),
    (["--pairs", "00:01 0,0:0,1"], "error: invalid parameters: pair (00,01) is given"),
], ids=["1", "0", "pairs-00-01", "max-rytov-negative", "pairs-a,b:00",
        "pairs-comma-list", "pairs-repeated"])
def test_turbulence_sweep_rejects_too_few_steps(tmp_path, args, error):
    proc = run_script("turbulence_sweep.py", *args, "--output", "out.csv",
                      cwd=tmp_path)
    assert proc.returncode == EXIT_PARAMS and proc.stdout == ""
    assert error in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_turbulence_sweep_numerical_failure(tmp_path, monkeypatch, capsys, corrupt_seeds):
    # in-process, so that a negative delta at every turbulent point can be
    # injected
    corrupt_seeds(lambda seeds, gamma:
                  seeds._replace(delta=-seeds.delta) if gamma > 0 else seeds)
    monkeypatch.setattr(sys, "argv", ["turbulence_sweep.py", "--pairs", "9,0:10,0",
                                      "--output", "out.csv"])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "turbulence_sweep.py"), run_name="__main__")
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_NUMERICAL
    assert "numerical failure" in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_turbulence_sweep_unwritable_output(tmp_path):
    path = tmp_path / "missing" / "out.csv"
    proc = run_script("turbulence_sweep.py", "--output", str(path), cwd=tmp_path)
    assert proc.returncode == EXIT_PARAMS
    assert proc.stderr == f"error: invalid parameters: cannot write {path}: " \
                          "No such file or directory\n"
    assert proc.stdout == ""


def test_turbulence_sweep_vacuum_forbidden_high_orders(tmp_path):
    proc = run_script("turbulence_sweep.py", "--pairs", "9,0:10,0",
                      "--output", "out.csv", cwd=tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = [ln.split(",") for ln in (tmp_path / "out.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert [float(v) for v in rows[1]] == [0.0, 0.0]


@pytest.mark.parametrize("rytov, max_sum", [(0.02, 3), (0.05, 4), (0.0, 2)])
def test_rank_robust_modes_matches_cli(capsys, rytov, max_sum):
    proc = run_script("rank_robust_modes.py", "--rytov", str(rytov),
                      "--max-sum", str(max_sum))
    assert proc.returncode == 0, proc.stderr
    code = main(["rank", "--rytov", str(rytov), "--max-sum", str(max_sum)])
    assert code == EXIT_OK
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("args", [["--rytov", "-1"], ["--max-sum", "11"]],
                         ids=["rytov-negative", "max-sum-11"])
def test_rank_robust_modes_invalid_parameters(args):
    # the script is `hgspdc rank`, so it maps a bad input as the CLI does
    proc = run_script("rank_robust_modes.py", *args)
    assert proc.returncode == EXIT_PARAMS and proc.stdout == ""
    assert proc.stderr.startswith("error: invalid parameters: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
