"""Acceptance criteria, one test per criterion.

Criteria 1-9 run the `entdist.verify` suite that holds the criterion's
checks, so each check and its tolerance is written once, in `verify`.  Each
test prints one pass line on success; on failure its message lists the
failing checks, which name their grid point or case.  Criterion 10 pins the
determinism of the `verify` CLI.
"""

import subprocess
import sys
import time

from entdist.verify import run_suites

SEED = 7


def _accept(number, name, suite, budget_s, seeds=(SEED,)):
    start = time.time()
    for seed in seeds:
        (result,) = run_suites(seed, [suite])
        assert result.passed, f"{suite} seed={seed}: {result.failures}"
    elapsed = time.time() - start
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s"
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_01_protocol1_closed_form():
    _accept(1, "protocol-1 closed form", "protocol1-closed-form", 10)


def test_criterion_02_protocol2_closed_form():
    _accept(2, "protocol-2 closed form", "protocol2-closed-form", 10)


def test_criterion_03_twirl():
    _accept(3, "exact twirl and sampling oracle", "twirl", 60)


def test_criterion_04_reduction_bound():
    _accept(4, "dimension-reduction fidelity bound", "lemma2-bound", 60)


def test_criterion_05_formation_bound_chain():
    _accept(5, "formation bounds and numerical oracle", "lemma1-chain", 120)


def test_criterion_06_hashing_identity():
    _accept(6, "hashing-rate identity", "lemma3-identity", 60)


def test_criterion_07_operation_algebra():
    # One run draws 40 compose, 40 tensor and 20 forget cases; ten seeds
    # give at least 200 of each.
    _accept(7, "operation algebra", "operation-algebra", 60, seeds=range(10))


def test_criterion_08_power_of_two_transform():
    _accept(8, "power-of-two transform", "theorem2-transform", 60)


def test_criterion_09_tensor_power_compiler():
    _accept(9, "tensor-power compiler", "theorem3-compiler", 60)


def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "entdist.cli", "verify", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert b"TOTAL" in first.stdout
    print("ACCEPTANCE 10 deterministic verification CLI: PASS")
