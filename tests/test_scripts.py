"""The runnable scripts in scripts/, each in its own interpreter, against the
CLI subcommands they share their code path with."""

import os
import re
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


@pytest.mark.parametrize("args", [
    ["--steps", "1"], ["--steps", "0"],
    ["--pairs", "00-01"], ["--max-rytov", "-0.1"], ["--pairs", "a,b:00"],
], ids=["1", "0", "pairs-00-01", "max-rytov-negative", "pairs-a,b:00"])
def test_turbulence_sweep_rejects_too_few_steps(tmp_path, args):
    proc = run_script("turbulence_sweep.py", *args, "--output", "out.csv",
                      cwd=tmp_path)
    assert proc.returncode == EXIT_PARAMS
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_turbulence_sweep_numerical_failure(tmp_path):
    proc = run_script("turbulence_sweep.py", "--pairs", "9,0:10,0",
                      "--output", "out.csv", cwd=tmp_path)
    assert proc.returncode == EXIT_NUMERICAL
    assert "numerical failure" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_rank_robust_modes_matches_cli(capsys):
    proc = run_script("rank_robust_modes.py")
    assert proc.returncode == 0, proc.stderr
    code = main(["rank", "--rytov", "0.02"])
    assert code == EXIT_OK
    assert proc.stdout == capsys.readouterr().out
