"""Smoke tests: the experiment scripts run and write their CSV headers."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )


def test_reduction_tradeoff_script():
    proc = run_script("reduction_tradeoff.py", "--K", "6")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "Kprime,subspace,tracing,composite,composite_bound"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4", "5"]


def test_bounds_landscape_script():
    proc = run_script("bounds_landscape.py", "--K", "2", "4", "--steps", "11")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "K,F,ef_lower,ef_upper,ppt_bound,hashing_raw,hashing_clamped"
    assert len(lines) == 1 + 2 * 11


def test_bench_layer_rows(monkeypatch):
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "LAYER_KS", (6, 8))
    monkeypatch.setattr(bench, "PPT_KS", (2,))
    monkeypatch.setattr(bench, "EF_FIDELITIES", (1.0,))
    monkeypatch.setattr(bench, "EF_SEARCH_CASES", ((3, 1.0),))
    rows = bench.layer_rows(repeats=2)
    assert list(rows) == [
        "is_trace_preserving K=6", "apply_operation K=6", "reduce_dimension K=6 Kprime=3",
        "is_trace_preserving K=8", "apply_operation K=8", "reduce_dimension K=8 Kprime=7",
        "is_ppt_operation K=2", "ef_numeric_estimate K=2 F=1.0", "ef_numeric_search K=3 F=1.0",
    ]
    assert all(row["first_s"] > 0 and row["median_s"] > 0 for row in rows.values())
    search = rows["ef_numeric_search K=3 F=1.0"]
    assert search["stop"] == "gradient" and abs(search["gap"]) <= 1e-12
