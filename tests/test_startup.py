"""Start-up path: each command loads only the code it runs.

No command, the oracle's included, loads numpy: the package is stdlib only
and numpy is a test extra. No command loads dataclasses, import hgspdc
loads neither the validation suite nor the quadrature oracle, and no
matrix, sweep or rank loads the per-term references (hgspdc.perterm). Each
case runs in a fresh interpreter, since a module stays in sys.modules once
any test in this process has loaded it.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: modules that import hgspdc does not load
NOT_IMPORTED = ("dataclasses", "hgspdc.validate", "hgspdc.oracle", "hgspdc.perterm")


def loaded_after(code, modules=("numpy",)):
    """Run code in a fresh interpreter; return those of modules that it
    imported, in the order given. A module the interpreter loaded before
    the code ran, at start-up, does not count."""
    script = ("import sys\n_before = set(sys.modules)\n" + textwrap.dedent(code)
              + f"\nprint([m for m in {tuple(modules)!r} "
                "if m in sys.modules and m not in _before])\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", ["import hgspdc", "import hgspdc.cli"])
def test_import_leaves_numpy_unloaded(code):
    # and the per-term references
    assert not loaded_after(code, ("numpy", "hgspdc.perterm"))


_COMMANDS = [["matrix"], ["sweep", "--grid", "0,0.01"], ["rank", "--rytov", "0.02"]]
_COMMAND_IDS = ["matrix", "sweep", "rank"]


@pytest.mark.parametrize("argv", _COMMANDS, ids=_COMMAND_IDS)
def test_commands_leave_numpy_unloaded(argv):
    # run as `python -m hgspdc ...` runs it; dataclasses and the per-term
    # references stay unloaded too
    assert loaded_after(f"""
        import runpy
        sys.argv = ["hgspdc", *{argv!r}]
        try:
            runpy.run_module("hgspdc", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    """, ("numpy", "dataclasses", "hgspdc.perterm")) == []


def test_import_loads_the_oracle_on_first_use():
    # import hgspdc loads neither the oracle, validate nor the per-term
    # references; their names still resolve, in the star import too, and
    # load their modules. engine forwards the two kernels alone
    assert loaded_after(f"""
        import hgspdc
        loaded = [m for m in {NOT_IMPORTED!r} if m in sys.modules and m not in _before]
        assert not loaded, loaded
        namespace = {{}}
        exec("from hgspdc import *", namespace)
        from hgspdc import engine, oracle, perterm
        assert namespace["QuadratureSpec"] is hgspdc.QuadratureSpec is oracle.QuadratureSpec
        assert hgspdc.vacuum_overlap_1d is oracle.vacuum_overlap_1d
        assert hgspdc.vacuum_probability_oracle is oracle.vacuum_probability_oracle
        for name in ("f_kernel", "k_kernel", "sigma"):
            assert namespace[name] is getattr(hgspdc, name) is getattr(perterm, name)
        assert engine.f_kernel is perterm.f_kernel and engine.k_kernel is perterm.k_kernel
        assert not hasattr(engine, "sigma")
    """, NOT_IMPORTED) == ["hgspdc.oracle", "hgspdc.perterm"]


def test_validate_leaves_numpy_unloaded_and_oracle_agrees(tmp_path):
    report = tmp_path / "report.json"
    assert not loaded_after(f"""
        from hgspdc import cli
        assert cli.main(["validate", "--vacuum-only", "--output", {str(report)!r}]) == 0
    """)
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["oracle_agreement"]["passed"] is True


def test_import_builds_no_table_row():
    # the geometry-free fill and grid plans fill on first use
    assert not loaded_after("""
        import hgspdc
        from hgspdc import engine
        assert engine._plan.cache_info().currsize == 0
        assert engine._grid_plan.cache_info().currsize == 0
    """)
