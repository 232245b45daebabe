"""Fast smoke test of the benchmark harness itself (about half a minute).

    python -m pytest perfbench/test_smoke.py -q

Run from the root of a source checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import common  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def test_nearest_rank_and_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert common.nearest_rank(values, 99) == 99.0
    assert common.nearest_rank(values, 50) == 50.0
    assert common.beyond_count(100, 99) == 1
    assert common.beyond_count(80, 80) == 16
    # three windows; their medians are 50, 150 and 350
    series = values + [v + 100 for v in values] + [v + 300 for v in values]
    assert common.windowed_median(series, 3) == 550.0 / 3
    assert common.windowed_median(series, 1) == 150.0


def test_highorder_vacuum_ops_do_not_depend_on_the_seed():
    def first(seed):
        gen = common.highorder_inputs(seed)
        return [next(gen) for _ in range(2 * common.BLOCK["highorder"])]

    a, b = first(1), first(2)
    vacuum = [i for i, op in enumerate(a) if op[3] == 0.0]
    assert vacuum == [3, 7, 11, 15]
    assert [a[i] for i in vacuum] == [b[i] for i in vacuum]
    assert len({a[i] for i in vacuum}) == len(vacuum)
    assert a[0] != b[0]


def test_self_time_excludes_wrapped_children():
    tracer = spans.Tracer(span_cap=10)
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_fn():
        time.sleep(0.01)
        inner()

    tracer.wrap("outer", outer_fn)()
    assert tracer.calls["inner"] == tracer.calls["outer"] == 1
    assert 0.019 <= tracer.self_ns["inner"] / 1e9 < 0.2
    assert 0.009 <= tracer.self_ns["outer"] / 1e9 < 0.019
    inner_span, outer_span = tracer.spans
    assert inner_span[1] == outer_span[0]  # inner's parent is outer
    assert outer_span[1] == -1


def test_matrix_checks():
    orders = [(0, 0), (0, 1)]
    assert common.matrix_problems([[1.0, 0.0], [0.0, 0.5]], orders, vacuum=True) == []
    assert common.matrix_problems([[1.0, 0.1], [0.2, 0.5]], orders, vacuum=False)
    assert common.matrix_problems([[1.0, -0.1], [-0.1, 0.5]], orders, vacuum=False)
    assert common.matrix_problems([[1.0, 0.1], [0.1, 0.5]], orders, vacuum=True)
    assert common.matrix_problems([[1.0, float("nan")], [float("nan"), 0.5]], orders, False)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_untraced_runs_print_every_end_to_end_metric():
    names = {m["name"] for m in BENCH["end_to_end"]}
    for workload in ("sweep", "cli"):
        result = result_of(bench(ROOT, workload, 0))
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = result_of(bench(ROOT, "warm", 1, seconds="1.5"))
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    metrics = result["metrics"]
    # a fixed op count: an untraced and a traced pass over the same inputs
    ops = round(common.TRACE_OPS_PER_S["warm"] * 1.5)
    assert result["attempted"] == 2 * ops
    assert metrics["engine.probability_matrix.calls"]["value"] == ops
    assert metrics["engine.pi_factor.reuse_ratio"]["value"] > 0.99
    assert metrics["oracle.overlap_table.calls"]["value"] >= 1
    assert metrics["cli.main.self_s"]["value"] > 0
