"""Smoke tests: the experiment scripts run and write their CSV headers."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_reduction_tradeoff_exits_one_on_a_failing_point(monkeypatch, capsys):
    from entdist import protocols as pro

    closed_form = pro.subspace_measurement_fidelity
    monkeypatch.setattr(
        pro, "subspace_measurement_fidelity", lambda k, kp, f: closed_form(k, kp, f) + 1e-3
    )
    monkeypatch.setattr(sys, "argv", ["reduction_tradeoff.py", "--K", "4"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "reduction_tradeoff.py"), run_name="__main__")
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "Kprime,subspace,tracing,composite,composite_bound"
    assert "failed: protocol 1 Kprime=1" in err


def test_bench_layer_rows(monkeypatch):
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "LAYER_KS", (6, 8))
    monkeypatch.setattr(bench, "PPT_KS", (2,))
    monkeypatch.setattr(bench, "NON_PPT_KS", (3,))
    monkeypatch.setattr(bench, "EF_FIDELITIES", (1.0,))
    assert {(3, 0.99), (4, 0.99)} <= set(bench.EF_SEARCH_CASES)
    monkeypatch.setattr(bench, "EF_SEARCH_CASES", ((3, 1.0), (3, 0.99)))
    monkeypatch.setattr(bench, "DENSITY_KS", (4,))
    # K = 7 and 8 sit on either side of the twirl's switch from real to complex form
    assert {(7, 10**4), (8, 10**4)} <= set(bench.TWIRL_CASES)
    monkeypatch.setattr(bench, "TWIRL_CASES", ((2, 600), (3, 10), (7, 10)))
    monkeypatch.setattr(bench, "HAAR_DIMS", (2, 3))
    monkeypatch.setattr(bench, "COMPILE_KS", (100, 10**4))
    monkeypatch.setattr(bench, "COMPILE_BRANCHES", (2,))
    monkeypatch.setattr(bench, "RATES_STEPS", 3)
    rows = bench.layer_rows(repeats=2)
    assert list(rows) == [
        "is_trace_preserving K=6", "apply_operation K=6", "reduce_dimension K=6 Kprime=3",
        "is_trace_preserving K=8", "apply_operation K=8", "reduce_dimension K=8 Kprime=7",
        "apply_operation fresh d_in=3",
        "is_ppt_operation K=2", "classify K=2", "classify subspace-4-3", "classify subspace-6-3",
        "decode_operation subspace-6-3", "_class_verdicts subspace-6-3",
        "classify factor-4-2", "classify factor-6-2", "is_ppt_operation isometry K=3",
        "protocol1-closed-form seed=7", "protocol2-closed-form seed=7", "twirl seed=7",
        "lemma2-bound seed=7", "operation-algebra seed=7",
        "simulate --K 16 --Kprime 7 --protocol reduce --F-grid 0:1:0.1",
        "ef_numeric_estimate K=2 F=1.0", "ef_numeric_search K=3 F=1.0",
        "ef_numeric_search K=3 F=0.99",
        "isotropic K=4", "DensityOperator K=4", "DensityOperator._by_construction K=4",
        "monte_carlo_twirl K=2 samples=600", "monte_carlo_twirl K=3 samples=10",
        "monte_carlo_twirl K=7 samples=10",
        "haar_unitaries d=2 count=512", "haar_unitaries d=2 count=1",
        "haar_unitaries d=3 count=512", "haar_unitaries d=3 count=1",
        "compile k=100 branches=2", "compile k=10000 branches=2", "rates steps=3 branches=4",
    ]
    assert all(row["first_s"] > 0 and row["median_s"] > 0 for row in rows.values())
    assert rows["is_ppt_operation isometry K=3"]["ppt"] is False
    # classify's witness route next to the dense predicates, with equal verdicts
    assert rows["is_ppt_operation K=2"]["ppt"] is True
    for name in ("K=2", "subspace-4-3", "subspace-6-3", "factor-4-2", "factor-6-2"):
        row = rows[f"classify {name}"]
        assert row["dense_median_s"] > 0 and row["verdicts"] == row["dense_verdicts"] == (True,) * 3
    compiled = [rows[f"compile k={k} branches=2"] for k in (100, 10**4)]
    assert [row["failure_method"] for row in compiled] == ["exact", "chernoff"]
    assert 1 > compiled[0]["failure_probability"] > compiled[1]["failure_probability"] > 0
    search = rows["ef_numeric_search K=3 F=1.0"]
    assert search["stop"] == "gradient" and abs(search["gap"]) <= 1e-12
    assert search["evaluations"] >= search["iterations"] + 1
    # K = 3, F = 0.99 uses the whole budget of 400 iterations
    search = rows["ef_numeric_search K=3 F=0.99"]
    assert (search["stop"], search["iterations"]) == ("budget", 400) and abs(search["gap"]) <= 1e-9
    # verify --seed 7 runs lemma1-chain's four EF searches; each stops on the restart rule
    searches = bench.lemma1_searches()
    assert [(s["restart_stop"], s["restarts"] < 20) for s in searches] == [("converged", True)] * 4
    # the verify workload's EF calls, here at F = 1.0 only: oracle seeds 7-10
    ef = bench.ef_workload()
    assert list(ef) == ["calls", "evaluations", "worst_gap", "per_fidelity"] and ef["calls"] == 4
    assert ef["per_fidelity"] == {"1.0": {"evaluations": ef["evaluations"], "stops": ["gradient"] * 4}}
    assert isinstance(ef["evaluations"], int) and ef["evaluations"] >= 4
    assert isinstance(ef["worst_gap"], float) and abs(ef["worst_gap"]) <= 1e-9
    # off the isotropic line: two seeded two-qubit states against Wootters's
    # value, and the one restart at K = 3, F = 0.9 that stops short
    monkeypatch.setattr(bench, "EF_TWO_QUBIT_STATES", 2)
    off = bench.ef_off_isotropic()
    two_qubit = off["two_qubit"]
    assert two_qubit["states"] == 2 and isinstance(two_qubit["evaluations"], int)
    assert -1e-14 <= two_qubit["least_gap"] <= two_qubit["worst_gap"] <= 1e-9
    one = off["one_restart K=3 F=0.9 seed=0"]
    assert (one["stop"], one["evaluations"]) == ("no-descent", 107)
    assert one["gap"] == pytest.approx(3.36e-5, rel=1e-2)

    sizes = bench.sizes()
    assert list(sizes) == ["lines", "public_names", "defaulted_parameters", "subcommand_options"]
    assert {"src/entdist/cli.py", "scripts/bench.py"} <= set(sizes["lines"])
    assert all(isinstance(n, int) and n > 0 for n in sizes["lines"].values())
    assert all(path.startswith(("src/entdist/", "scripts/")) for path in sizes["lines"])
    assert sizes["public_names"] == [
        "EFSearch", "FormationBounds", "HashingRate", "binary_entropy", "ef_numeric_estimate",
        "ef_numeric_search", "formation_bounds_isotropic", "hashing_rate", "ppt_bound_isotropic",
        "BranchOutcome", "CompilerConfig", "CompileResult", "ProtocolTrace", "RateReport",
        "TraceStep", "dims_are_powers_of_two", "floor_dims_to_powers_of_two",
        "power_of_two_transform", "rate_report", "single_branch_rate", "tensor_power_compile",
        "BipartiteLabel", "DensityOperator", "haar_unitaries", "min_eigenvalue",
        "partial_transpose", "random_density",
        "QuantumOperation", "SeparableWitness", "SubOperation", "apply_operation", "choi_matrix",
        "compose", "forget", "identity_operation", "is_completely_positive", "is_ppt_operation",
        "is_trace_preserving", "make_local", "natural_product_witness", "ppt_choi",
        "verify_separable_form",
        "ReductionPlan", "exact_twirl", "factor_tracing_fidelity", "factor_tracing_op",
        "monte_carlo_twirl", "reduce_dimension", "reduce_dimension_fidelity",
        "subspace_measurement_fidelity", "subspace_measurement_op",
        "fidelity", "isotropic", "max_entangled_ket",
    ]
    assert sizes["defaulted_parameters"] == [
        "entdist.ef_numeric_estimate(budget=)", "entdist.ef_numeric_estimate(seed=)",
        "entdist.ef_numeric_search(budget=)", "entdist.ef_numeric_search(seed=)",
    ]
    options = sizes["subcommand_options"]
    assert list(options) == ["bounds", "simulate", "classify", "rates", "compile", "verify"]
    assert options["classify"] == ["input", "--out"]
    assert all(isinstance(o, str) for opts in options.values() for o in opts)
