"""Start-up path: no command, the oracle's included, loads numpy.

The package is stdlib only; numpy is a test extra. Each case runs in a fresh
interpreter, since numpy stays in sys.modules once any test in this process
has loaded it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def numpy_loaded_after(code):
    """Run code in a fresh interpreter; return whether numpy got imported."""
    script = textwrap.dedent(code) + (
        "\nimport sys\nprint('numpy-loaded', 'numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last in ("numpy-loaded True", "numpy-loaded False")
    return last == "numpy-loaded True"


@pytest.mark.parametrize("code", ["import hgspdc", "import hgspdc.cli"])
def test_import_leaves_numpy_unloaded(code):
    assert not numpy_loaded_after(code)


@pytest.mark.parametrize("argv", [
    ["matrix"],
    ["sweep", "--grid", "0,0.01"],
    ["rank", "--rytov", "0.02"],
], ids=["matrix", "sweep", "rank"])
def test_commands_leave_numpy_unloaded(argv):
    assert not numpy_loaded_after(f"""
        from hgspdc import cli
        assert cli.main({argv!r}) == cli.EXIT_OK
    """)


def test_validate_leaves_numpy_unloaded_and_oracle_agrees(tmp_path):
    report = tmp_path / "report.json"
    assert not numpy_loaded_after(f"""
        from hgspdc import cli
        assert cli.main(["validate", "--vacuum-only", "--output", {str(report)!r}]) == 0
    """)
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["oracle_agreement"]["passed"] is True


def test_import_builds_no_table_row():
    # the geometry-free fill plans and Gamma tables fill on first use
    assert not numpy_loaded_after("""
        import hgspdc
        from hgspdc import engine
        assert engine._plan.cache_info().currsize == 0
        assert engine._gamma_half.cache_info().currsize == 0
    """)
