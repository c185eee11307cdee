import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from entdist import bounds as bnd
from entdist.cli import (
    MAX_BOUNDS_ROWS,
    MAX_CHOI_DIM,
    MAX_F_GRID_POINTS,
    MAX_SIMULATE_K,
    PRECISIONS,
    build_parser,
    main,
    parse_f_grid,
)
from entdist.operations import (
    QuantumOperation, SubOperation, identity_operation, natural_product_witness,
)
from entdist.protocols import subspace_measurement_op
from entdist.linalg import BipartiteLabel
from entdist.serialize import (
    SchemaError,
    decode_matrix,
    decode_operation,
    decode_trace,
    encode_trace,
    format_number,
    load_json,
)
from entdist.verify import MC_TOL, MC_TOL_SAMPLES
from helpers import unmerged_subspace_measurement


def encode_matrix(m):
    """The wire form of a complex matrix: rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def encode_operation(op: QuantumOperation) -> dict:
    """The descriptor `entdist classify` reads, for a bipartite operation."""
    subs = [
        {
            "output": [sub.out_label.dim_a, sub.out_label.dim_b],
            "kraus": [encode_matrix(k) for k in sub.kraus],
        }
        for sub in op.subops
    ]
    return {"input": [op.in_label.dim_a, op.in_label.dim_b], "subops": subs}


def encode_witnessed(op: QuantumOperation, scale: float = 1.0) -> dict:
    """`encode_operation(op)` with op's natural product witness, both sides
    of each pair multiplied by scale."""
    doc = encode_operation(op)
    doc["witness"] = [
        [[encode_matrix(scale * a), encode_matrix(scale * b)] for a, b in pairs]
        for pairs in natural_product_witness(op)
    ]
    return doc


TRACE_DOC = {
    "steps": [
        {
            "n": 10,
            "branches": [
                {"p": 0.5, "K": 1024, "F": 0.99},
                {"p": 0.5, "K": 1, "F": 1},
            ],
        }
    ]
}


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(TRACE_DOC))
    return str(path)


@pytest.fixture
def identity_op_file(tmp_path):
    doc = encode_operation(identity_operation(BipartiteLabel(2, 2)))
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- serialization -----------------------------------------------------------


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(decode_matrix(encode_matrix(m), "matrix"), m, atol=1e-15)
    assert decode_matrix(encode_matrix(m), "matrix").tobytes() == m.tobytes()


def test_matrix_decode_diagnostics_name_the_field():
    with pytest.raises(SchemaError, match=r"matrix\[0\]\[1\]"):
        decode_matrix([[[1, 0], 5]], "matrix")
    with pytest.raises(SchemaError, match=r"matrix\[1\]"):
        decode_matrix([[[1, 0]], [[1, 0], [0, 0]]], "matrix")
    with pytest.raises(SchemaError, match=r"matrix\[0\]\[0\]: entry is a boolean"):
        decode_matrix([[[True, False]]], "matrix")
    with pytest.raises(SchemaError, match=r"matrix\[0\]\[1\]: entry is a boolean"):
        decode_matrix([[[1, 0], [0.5, False]]], "matrix")
    with pytest.raises(SchemaError, match=r"matrix\[0\]\[1\]: entry is not a finite number"):
        decode_matrix([[[1, 0], [0.5, float("nan")]]], "matrix")


# One input per kind of bad matrix, with the exact message it must produce.
BAD_MATRICES = [
    ([], "matrix: expected a non-empty list of rows"),
    ([[[1, 0]], []], "matrix[1]: expected a non-empty row"),
    ([[[1, 0], [0, 1]], [[1, 0]]], "matrix[1]: row length 1 != 2"),
    ([[[1, 0], 5]], "matrix[0][1]: complex entries are [re, im] pairs"),
    ([[[1, 0], [1, 0, 0]]], "matrix[0][1]: complex entries are [re, im] pairs"),
    ([[[1, 0], (1, 0)]], "matrix[0][1]: complex entries are [re, im] pairs"),
    ([[[1, 0], ["1", 0]]], "matrix[0][1]: complex entries are [re, im] pairs"),
    ([[[1, 0], [None, 0]]], "matrix[0][1]: complex entries are [re, im] pairs"),
    ([[[1, 0], [0.5, False]]], "matrix[0][1]: entry is a boolean, not a number"),
    ([[[1, 0], [0.5, float("nan")]]], "matrix[0][1]: entry is not a finite number"),
    ([[[1, 0]], [[float("inf"), 0]]], "matrix[1][0]: entry is not a finite number"),
    ([[[1, 0], [0, 10**400]]], "matrix[0][1]: entry is not a finite number"),
    # a boolean beside a non-number is a malformed pair, not a boolean entry
    ([[[1, 0], [False, "1"]]], "matrix[0][1]: complex entries are [re, im] pairs"),
    # JSON never yields a numpy scalar; a Python caller's np.float64, a float
    # subclass, is refused like any type other than int, float and Fraction
    ([[[1, 0], [0, np.float64(0.5)]]], "matrix[0][1]: complex entries are [re, im] pairs"),
]


@pytest.mark.parametrize("data, message", BAD_MATRICES)
def test_matrix_decode_messages_are_pinned(data, message):
    with pytest.raises(SchemaError) as info:
        decode_matrix(data, "matrix")
    assert str(info.value) == message


def test_matrix_decode_reads_json_literals_as_either_parse():
    text = '[[[1e400, 0]]]'
    for parse_float in (float, Fraction):
        with pytest.raises(SchemaError) as info:
            decode_matrix(json.loads(text, parse_float=parse_float), "k")
        assert str(info.value) == "k[0][0]: entry is not a finite number"
    text = '[[[0.1, -2], [1, 2.5e-3]], [[-3, 0.7], [0, 1e300]]]'
    as_float = decode_matrix(json.loads(text), "k")
    as_fraction = decode_matrix(json.loads(text, parse_float=Fraction), "k")
    expect = np.array([[0.1 - 2j, 1 + 2.5e-3j], [-3 + 0.7j, 1e300j]])
    assert as_float.tobytes() == as_fraction.tobytes() == expect.tobytes()
    assert as_float.dtype == complex and as_float.shape == (2, 2)


def test_operation_roundtrip():
    op = unmerged_subspace_measurement(3, 2)
    doc = encode_operation(op)
    back, witness = decode_operation(doc)
    assert witness is None
    assert len(back.subops) == len(op.subops)
    for a, b in zip(back.subops, op.subops):
        assert a.out_label == b.out_label
        for ka, kb in zip(a.kraus, b.kraus):
            assert np.allclose(ka, kb, atol=1e-15)


def test_operation_decode_diagnostics():
    with pytest.raises(SchemaError, match="input"):
        decode_operation({"subops": []})
    with pytest.raises(SchemaError, match=r"subops\[0\].kraus"):
        decode_operation({"input": [2, 2], "subops": [{"output": [2, 2], "kraus": []}]})


def test_operation_decode_reads_each_kraus_list_and_witness_side_as_one_array():
    op = subspace_measurement_op(3, 2)  # one branch of 9 Kraus matrices, 4 x 9
    doc = encode_witnessed(op)
    back, witness = decode_operation(doc)
    kraus = doc["subops"][0]["kraus"]
    want = np.stack([decode_matrix(k, "k") for k in kraus])
    assert back.subops[0].kraus.tobytes() == want.tobytes()
    (pairs,) = witness
    for side in (0, 1):
        views = [pair[side] for pair in pairs]
        assert len({id(v.base) for v in views}) == 1 and views[0].base is not None
        for v, (a_b) in zip(views, doc["witness"][0]):
            assert v.tobytes() == decode_matrix(a_b[side], "w").tobytes()


def test_operation_decode_names_the_first_bad_entry_of_a_stack():
    """A Kraus list or witness side that does not decode as one array is
    walked matrix by matrix, for the first bad entry; matrices of unequal
    shapes reach SubOperation, which cannot stack them."""
    op = subspace_measurement_op(3, 2)
    boolean, nan, unequal = (encode_witnessed(op) for _ in range(3))
    boolean["subops"][0]["kraus"][2][1][0][1] = True
    nan["witness"][0][1][1][0][1][0] = float("nan")
    kraus = unequal["subops"][0]["kraus"]
    kraus[1] = [row[:3] for row in kraus[1]]
    with pytest.raises(ValueError) as stacking:
        np.array(tuple(decode_matrix(k, "k") for k in kraus), dtype=complex)
    for doc, message in (
        (boolean, "subops[0].kraus[2][1][0]: entry is a boolean, not a number"),
        (nan, "witness[0][1][1][0][1]: entry is not a finite number"),
        (unequal, f"subops[0]: {stacking.value}"),
    ):
        with pytest.raises(SchemaError) as info:
            decode_operation(doc)
        assert str(info.value) == message


def test_trace_roundtrip_and_exactness(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(TRACE_DOC))
    trace = decode_trace(load_json(str(path), exact=True))
    from fractions import Fraction

    assert trace.steps[0].branches[0].p == Fraction(1, 2)
    assert trace.steps[0].branches[0].F == Fraction(99, 100)
    doc = encode_trace(trace)
    assert doc["steps"][0]["branches"][0]["K"] == 1024


def test_trace_decode_diagnostics():
    with pytest.raises(SchemaError, match=r"steps\[0\].branches\[0\].K"):
        decode_trace({"steps": [{"n": 1, "branches": [{"p": 1, "K": 0, "F": 1}]}]})
    with pytest.raises(SchemaError, match="increasing"):
        decode_trace(
            {
                "steps": [
                    {"n": 2, "branches": [{"p": 1, "K": 2, "F": 1}]},
                    {"n": 2, "branches": [{"p": 1, "K": 2, "F": 1}]},
                ]
            }
        )


def test_format_number_shortest_roundtrip():
    assert format_number(0.39, 12) == "0.39"
    assert format_number(1 / 3, 6) == "0.333333"
    assert format_number(7, 12) == "7"


def test_parse_f_grid():
    assert parse_f_grid("0:1:0.1") == [round(0.1 * i, 12) for i in range(11)]
    assert parse_f_grid("0.5:0.5:0.1") == [0.5]
    with pytest.raises(SchemaError):
        parse_f_grid("0:1")
    with pytest.raises(SchemaError):
        parse_f_grid("1:0:0.1")
    assert len(parse_f_grid(f"0:{MAX_F_GRID_POINTS - 1}:1")) == MAX_F_GRID_POINTS
    for spec in (f"0:{MAX_F_GRID_POINTS}:1", "0:1:1e-12", "0:1e308:1e-300"):
        with pytest.raises(SchemaError, match="more than"):
            parse_f_grid(spec)
    for spec in ("0:inf:0.1", "0:1:nan", "-inf:1:0.1"):
        with pytest.raises(SchemaError, match="finite"):
            parse_f_grid(spec)


# -- subcommands -------------------------------------------------------------


def test_bounds_row_count_and_values(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--K-list", "2", "--F-grid", "0:1:0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K,F,ef_lower,ef_upper,ppt_bound,hashing_raw,hashing_clamped"
    assert len(lines) == 12  # header + 11 rows
    last = lines[-1].split(",")
    assert last[:2] == ["2", "1.0"]
    assert all(v == "1.0" for v in last[2:])
    row09 = lines[-2].split(",")
    assert row09[5].startswith("0.3725081")


def test_bounds_json_includes_flag(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--K-list", "3", "--F-grid", "0.9:0.9:0.1", "--emit", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["hashing_established"] is False


def run_cli_usage_error(capsys, *argv) -> str:
    """Run argv, which argparse must reject (exit 2); return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    return out.err


BOUNDS_ROW = ("bounds", "--K-list", "2", "--F-grid", "0.5:0.5:0.1")


def test_precision_accepts_one_to_seventeen(capsys):
    assert (min(PRECISIONS), max(PRECISIONS)) == (1, 17)
    raw = bnd.hashing_rate(2, 0.5).raw  # -0.79248...
    code, out, _ = run_cli(capsys, *BOUNDS_ROW, "--precision", "1")
    assert code == 0 and out.splitlines()[1].split(",")[5] == "-0.8"
    code, out, _ = run_cli(capsys, *BOUNDS_ROW, "--precision", "17")
    # 17 significant digits round-trip the double
    assert code == 0 and float(out.splitlines()[1].split(",")[5]) == raw


@pytest.mark.parametrize("value", ["0", "-3", "18", "twelve"])
def test_precision_out_of_range_is_a_usage_error(capsys, value):
    err = run_cli_usage_error(capsys, *BOUNDS_ROW, "--precision", value)
    assert "argument --precision" in err


# Each subcommand takes only the options it reads; these it never read.
UNREAD_OPTIONS = [
    (BOUNDS_ROW, "--seed", "3"),
    (("classify", "op.json"), "--seed", "3"),
    (("rates", "trace.json"), "--seed", "3"),
    (("compile", "trace.json", "--k-list", "16"), "--seed", "3"),
    (("classify", "op.json"), "--precision", "5"),
    (("verify", "--suite", "twirl"), "--precision", "5"),
    (("classify", "op.json"), "--emit", "csv"),
]


@pytest.mark.parametrize("argv,option,value", UNREAD_OPTIONS)
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, argv, option, value):
    err = run_cli_usage_error(capsys, *argv, option, value)
    assert f"unrecognized arguments: {option} {value}" in err


@pytest.mark.parametrize("value,message", [
    ("-1", "must be a non-negative integer, got -1"),
    ("seven", "invalid nonnegative_int value: 'seven'"),
])
def test_seed_must_be_a_non_negative_integer(capsys, value, message):
    simulate = ("simulate", "--K", "2", "--Kprime", "2", "--protocol", "1", "--F-grid", "0:0:1")
    for argv in (simulate, ("verify", "--suite", "twirl")):
        err = run_cli_usage_error(capsys, *argv, "--seed", value)
        assert f"error: argument --seed: {message}" in err


def test_simulate_rejects_negative_mc_samples(capsys):
    argv = ("simulate", "--K", "2", "--Kprime", "2", "--protocol", "twirl", "--F-grid", "0:0:1")
    code, out, err = run_cli(capsys, *argv, "--mc-samples", "-5")
    assert code == 2 and out == ""
    assert "--mc-samples must be at least 0, got -5" in err
    code, out, _ = run_cli(capsys, *argv, "--mc-samples", "0", "--emit", "json")
    assert code == 0 and json.loads(out)[0]["bound"] is None


def test_simulate_protocol1(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--K", "4", "--Kprime", "2", "--protocol", "1",
        "--F-grid", "1:1:0.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K,Kprime,F_in,F_closed_form,F_simulated,bound,pass"
    row = lines[1].split(",")
    assert row[3] == "0.625" and row[6] == "true"


def test_simulate_reduce_and_twirl(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--K", "5", "--Kprime", "2", "--protocol", "reduce",
        "--F-grid", "0:1:0.5", "--emit", "json",
    )
    assert code == 0
    assert all(r["pass"] for r in json.loads(out))
    code, out, _ = run_cli(
        capsys,
        "simulate", "--K", "2", "--Kprime", "2", "--protocol", "twirl",
        "--F-grid", "0:0:1", "--mc-samples", "2000", "--seed", "5", "--emit", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["pass"] and row["bound"] < 1e-1


def test_simulate_twirl_tolerance_scales_with_the_sample_count(capsys):
    # deviations of 0.009-0.017 are ordinary noise for 50 samples; the fixed
    # 1e-2 of 10^4 samples failed most of these rows
    code, out, _ = run_cli(
        capsys,
        "simulate", "--K", "3", "--Kprime", "3", "--protocol", "twirl",
        "--F-grid", "0:1:0.1", "--mc-samples", "50", "--seed", "4", "--emit", "json",
    )
    rows = json.loads(out)
    assert code == 0 and len(rows) == 11 and all(r["pass"] for r in rows)
    assert max(r["bound"] for r in rows) > MC_TOL


@pytest.mark.parametrize("samples", [10_000, 2_500])
def test_simulate_twirl_still_fails_an_untwirled_state(capsys, monkeypatch, samples):
    import entdist.protocols as pro

    monkeypatch.setattr(pro, "monte_carlo_twirl", lambda rho, n, rng: rho.matrix)
    for k in ("2", "3"):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--K", k, "--Kprime", k, "--protocol", "twirl",
            "--F-grid", "0:1:0.1", "--mc-samples", str(samples), "--seed", "4", "--emit", "json",
        )
        rows = json.loads(out)
        assert code == 1 and not any(r["pass"] for r in rows)
        assert min(r["bound"] for r in rows) > MC_TOL * (MC_TOL_SAMPLES / samples) ** 0.5


def test_simulate_rejects_k_above_limit_before_allocating(capsys, monkeypatch):
    import tracemalloc

    import entdist.verify as ver

    def never(*args, **kwargs):
        raise AssertionError("simulate_grid called for a rejected K")

    monkeypatch.setattr(ver, "simulate_grid", never)
    k = str(MAX_SIMULATE_K + 1)
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "simulate", "--K", k, "--Kprime", k, "--protocol", "twirl",
            "--mc-samples", "512",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert f"exceeds the simulation limit {MAX_SIMULATE_K}" in err
    # one (K+1)^2 x (K+1)^2 complex matrix alone takes 16 (K+1)^4 bytes (18 MiB)
    assert peak < 1 << 20


def test_simulate_rejects_factor_tracing_below_dimension_two(capsys):
    code, out, err = run_cli(capsys, "simulate", "--K", "1", "--Kprime", "1", "--protocol", "2")
    assert code == 2 and out == ""
    assert "input dimension must be at least 2, got 1" in err


def test_simulate_grid_equals_the_simulation_at_every_point(monkeypatch):
    import entdist.verify as ver
    from entdist.operations import apply_operation
    from entdist.protocols import _reduction_op, factor_tracing_op, subspace_measurement_op
    from entdist.states import fidelity, isotropic

    applied = []

    def counted(op, rho):
        applied.append(rho)
        return apply_operation(op, rho)

    monkeypatch.setattr(ver, "apply_operation", counted)
    ops = {"1": subspace_measurement_op, "2": factor_tracing_op, "reduce": _reduction_op}
    rng = np.random.default_rng(21)
    for k in range(2, 9):
        for protocol, kp in [(p, kp) for p in ops for kp in range(1, k + 1)]:
            if protocol == "2" and k % kp:
                continue
            drawn = np.round(rng.random(int(rng.integers(1, 12))), 12).tolist()
            # sorted as the CLI's grids, as drawn, and with equal ends
            for grid in (sorted(drawn), drawn, [drawn[0], *drawn, drawn[0]]):
                applied.clear()
                draws = np.random.default_rng(0)
                state0 = draws.bit_generator.state
                rows = ver.simulate_grid(protocol, k, kp, grid, draws, 0)
                assert len(applied) == min(len(set(grid)), 2)
                assert draws.bit_generator.state == state0
                assert [r["F_in"] for r in rows] == grid and all(r["pass"] for r in rows)
                for f, row in zip(grid, rows):
                    ((_, state),) = apply_operation(ops[protocol](k, kp), isotropic(k, f))
                    if f in (min(grid), max(grid)):
                        assert row["F_simulated"] == fidelity(state)
                    else:
                        assert abs(row["F_simulated"] - fidelity(state)) <= 1e-14


def test_simulate_twirl_rejects_a_kprime_other_than_k(capsys):
    argv = ("simulate", "--K", "4", "--protocol", "twirl", "--F-grid", "0:0:1")
    code, out, err = run_cli(capsys, *argv, "--Kprime", "2")
    assert code == 2 and out == ""
    assert "--Kprime 2 must equal --K 4" in err
    code, out, _ = run_cli(capsys, *argv, "--Kprime", "4")
    assert code == 0 and out.splitlines()[1].startswith("4,4,")


def test_bounds_memory_at_the_row_limit(capsys):
    import tracemalloc

    # MAX_BOUNDS_ROWS is one K on a 1e-4 grid; JSON holds the most per row
    assert MAX_BOUNDS_ROWS == len(parse_f_grid("0:1:0.0001"))
    tracemalloc.start()
    try:
        code, out, _ = run_cli(
            capsys, "bounds", "--K-list", "2", "--F-grid", "0:1:0.0001", "--emit", "json"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(json.loads(out)) == MAX_BOUNDS_ROWS
    # measured 22 MiB (Python 3.11, numpy 2.4.6)
    assert peak < 48 << 20, f"peak {peak / 2**20:.1f} MiB"
    code, out, err = run_cli(capsys, "bounds", "--K-list", "2", "3", "--F-grid", "0:1:0.0001")
    assert code == 2 and out == ""
    assert f"exceed the row limit MAX_BOUNDS_ROWS = {MAX_BOUNDS_ROWS}" in err


def test_classify_rejects_branch_above_choi_limit_before_any_choi_matrix(
    capsys, tmp_path, monkeypatch
):
    import entdist.operations as ops

    def never(*args, **kwargs):
        raise AssertionError("Choi matrix built for a rejected descriptor")

    monkeypatch.setattr(ops, "choi_matrix", never)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(encode_operation(identity_operation(BipartiteLabel(6, 6)))))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert 36 * 36 > MAX_CHOI_DIM
    assert code == 2 and out == ""
    assert f"36 * 36 exceeds the Choi matrix limit MAX_CHOI_DIM = {MAX_CHOI_DIM}" in err


def test_classify_accepts_a_branch_at_the_choi_limit(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(encode_operation(identity_operation(BipartiteLabel(4, 8)))))
    assert 32 * 32 == MAX_CHOI_DIM
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out) == {"tp": True, "cp": True, "ppt": True, "separable_verified": None}


def test_classify_identity(capsys, identity_op_file):
    code, out, _ = run_cli(capsys, "classify", identity_op_file)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"tp": True, "cp": True, "ppt": True, "separable_verified": None}


def test_classify_with_witness(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(encode_witnessed(unmerged_subspace_measurement(2, 1))))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out)["separable_verified"] is True


def witnessed_near_boundary(depth: float) -> dict:
    """factor_tracing_op(4, 2) with its natural witness, plus one Kraus matrix
    sqrt(delta) M whose Choi vector is maximally entangled across the party
    cut, spread so that its largest entry is 3/4 of its Schmidt scale.  The
    partially transposed Choi matrix then has least eigenvalue -delta =
    -depth TAU_PPT tr C, while the entrywise witness gap is 3/4 delta."""
    from entdist.operations import TAU_PPT
    from entdist.protocols import factor_tracing_op

    op = factor_tracing_op(4, 2)
    (sub,) = op.subops
    c, s = np.sqrt(3) / 2, 1 / 2
    w = np.kron(np.eye(4), [[c, -s], [s, c]])  # rows (a_in, a_out), columns (b_in, b_out)
    tr = float(np.vdot(sub.kraus, sub.kraus).real)
    delta = depth * TAU_PPT * tr / (1 - 8 * depth * TAU_PPT)  # tr C grows by 8 delta
    extra = np.sqrt(delta) * w.reshape(4, 2, 4, 2).transpose(1, 3, 0, 2).reshape(4, 16)
    doc = encode_witnessed(op)
    doc["subops"][0]["kraus"].append(encode_matrix(extra))
    return doc


@pytest.mark.parametrize("depth", [0.75, 1.25])
def test_classify_prints_the_dense_ppt_verdict_near_the_boundary(capsys, tmp_path, depth):
    """The witness verifies the separable form, entrywise within TAU_ACTION
    tr C, but lies too far in Frobenius norm to certify p.p.t.: the dense
    test decides, on either side of its tolerance.  Certifying p.p.t.
    wherever the entrywise gap is within TAU_ACTION tr C would print true
    at depth 1.25."""
    from entdist.operations import (
        TAU_ACTION, TAU_PPT, choi_matrix, is_ppt_operation, ppt_choi,
    )

    doc = witnessed_near_boundary(depth)
    op, witness = decode_operation(doc)
    (sub,) = op.subops
    tr = float(np.trace(choi_matrix(sub)).real)
    prods = np.stack([np.kron(a, b) for a, b in witness[0]])
    gap = choi_matrix(sub) - choi_matrix(SubOperation(prods, sub.out_label))
    assert TAU_PPT * tr / 2 < np.max(np.abs(gap)) <= TAU_ACTION * tr < np.linalg.norm(gap)
    least = np.linalg.eigvalsh(ppt_choi(sub, op.in_label))[0] / tr
    assert least == pytest.approx(-depth * TAU_PPT, rel=1e-4)
    dense = is_ppt_operation(op)
    assert dense is (depth < 1)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out) == {"tp": False, "cp": True, "ppt": dense, "separable_verified": True}


def test_the_witness_is_read_past_the_first_branch_that_is_not_ppt():
    """Branch 0 matches its witness but is not p.p.t.; the one pass of
    `_class_verdicts` still reads the witness of branch 1, which fails or
    has the wrong shape."""
    from entdist.operations import _class_verdicts, is_ppt_operation, verify_separable_form

    op, (pairs,) = decode_operation(witnessed_near_boundary(1.25))
    op = QuantumOperation(op.subops * 2, op.in_label)
    bad = [(1.5 * a, b) for a, b in pairs]
    assert _class_verdicts(op, [pairs, pairs]) == (False, True)
    assert _class_verdicts(op, [pairs, bad]) == (False, False)
    assert (is_ppt_operation(op), verify_separable_form(op, [pairs, bad])) == (False, False)
    with pytest.raises(ValueError, match="witness product shape"):
        _class_verdicts(op, [pairs, [(np.eye(3), np.eye(3))]])


@pytest.mark.parametrize("which", ["creation", "cnot"])
def test_classify_takes_no_ppt_from_a_witness_with_a_trivial_party(capsys, tmp_path, which):
    """Each witness pair is ([[1]], K_j), so the products equal the branch's
    Kraus matrices, but the pairs cut no space of A from B: p.p.t. must come
    from the dense test, which fails for both operations, and the separable
    form is not verified."""
    label = BipartiteLabel(2, 2)
    if which == "creation":
        ket = np.eye(4)[[0, 3]].sum(axis=0) / np.sqrt(2)
        kraus = np.stack([np.outer(ket, e) for e in np.eye(4)])
    else:
        kraus = np.eye(4)[None, [0, 1, 3, 2]]
    doc = encode_operation(QuantumOperation((SubOperation(kraus, label),), label))
    doc["witness"] = [[[encode_matrix(np.ones((1, 1))), encode_matrix(k)] for k in kraus]]
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    # the pairs reproduce the branch, but a witness cut elsewhere verifies nothing
    assert json.loads(out) == {"tp": True, "cp": True, "ppt": False, "separable_verified": False}


def test_classify_verdicts_hold_at_large_kraus_scale(capsys, tmp_path):
    # one 4 x 4 Kraus matrix 1e4 (A (x) B): CP and p.p.t. by construction, not
    # trace preserving; its Choi matrix has norm around 1e8
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    label = BipartiteLabel(2, 2)
    op = QuantumOperation((SubOperation(1e4 * np.kron(a, b)[None], label),), label)
    doc = encode_operation(op)
    doc["witness"] = [[[encode_matrix(1e4 * a), encode_matrix(b)]]]
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out) == {"tp": False, "cp": True, "ppt": True, "separable_verified": True}


def test_classify_exits_2_where_the_choi_trace_underflows(capsys, tmp_path):
    # the identity on a qubit pair at scale 1e-165: tr C = 4e-330 rounds to 0
    label = BipartiteLabel(2, 2)
    op = QuantumOperation((SubOperation(1e-165 * np.eye(4)[None], label),), label)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(encode_operation(op)))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert "sub-operation 0: the Choi trace underflows" in err


@pytest.mark.parametrize("scale,what", [(1e160, "overflows"), (1e-165, "underflows")])
def test_classify_prints_only_the_error_line_where_the_choi_trace_is_not_finite_and_nonzero(
    capsys, tmp_path, scale, what
):
    # the identity on a qubit pair: at 1e160, tr C = 4e320 overflows, and so
    # would the Gram product of is_trace_preserving, with numpy warnings
    label = BipartiteLabel(2, 2)
    op = QuantumOperation((SubOperation(scale * np.eye(4)[None], label),), label)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(encode_operation(op)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out, err) == (2, "", f"error: sub-operation 0: the Choi trace {what}\n")
    assert caught == []


def test_classify_prints_only_the_error_line_where_the_witness_products_overflow(
    capsys, tmp_path
):
    # finite entries of 1e200 on both sides: products of 1e400, whose Choi
    # matrix would hold inf and NaN entries
    path = tmp_path / "op.json"
    path.write_text(json.dumps(encode_witnessed(subspace_measurement_op(2, 2), 1e200)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out, err) == (2, "", "error: sub-operation 0: the witness products overflow\n")
    assert caught == []


def test_classify_schema_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"input": [2, 2], "subops": "nope"}))
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "subops" in err


def test_classify_rejects_literals_beyond_double_range(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"input": [1, 1], "subops": [{"output": [1, 1], "kraus": [[[[1e400, 0]]]]}]}')
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "subops[0].kraus[0][0][0]: entry is not a finite number" in err


def test_classify_rejects_integer_literals_beyond_double_range(capsys, tmp_path):
    path = tmp_path / "big.json"
    big = "1" + "0" * 400
    path.write_text('{"input": [1, 1], "subops": [{"output": [1, 1], "kraus": [[[[%s, 0]]]]}]}' % big)
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "subops[0].kraus[0][0][0]: entry is not a finite number" in err


ONE_STEP = '{"steps": [{"n": %s, "branches": [{"p": %s, "K": %s, "F": %s}]}]}'
ONE_BRANCH = '{"input": %s, "subops": [{"output": %s, "kraus": [[[[1, 0]]]]}]}'


@pytest.mark.parametrize("command,text,field", [
    ("rates", ONE_STEP % ("true", 1, 2, 1), "steps[0].n: expected a positive integer"),
    ("rates", ONE_STEP % (1, 1, "true", 1), "steps[0].branches[0].K: expected a positive integer"),
    ("rates", ONE_STEP % (1, "Infinity", 2, 1), "steps[0].branches[0].p: expected a finite number"),
    ("compile", ONE_STEP % (1, 1, 2, "-Infinity"),
     "steps[0].branches[0].F: expected a finite number"),
    ("classify", ONE_BRANCH % ("[true, 1]", "[1, 1]"), "input: expected [dimA, dimB]"),
    ("classify", ONE_BRANCH % ("[1, 1]", "[1, true]"), "subops[0].output: expected [dimA, dimB]"),
])
def test_booleans_and_infinities_are_input_errors_naming_the_field(
    capsys, tmp_path, command, text, field
):
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = [command, str(path)] + (["--k-list", "10"] if command == "compile" else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert field in err


def test_rates_fixture(capsys, trace_file):
    code, out, _ = run_cli(capsys, "rates", trace_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["rate"] == 0.5
    assert doc["residual"] == 0.005
    assert doc["single_branch_rate"] is None
    assert doc["min_fidelity"] == 0.99


def test_rates_and_bounds_take_dimensions_beyond_double_range(capsys, tmp_path):
    k = 2**1100
    doc = {"steps": [{"n": 10, "branches": [{"p": 0.5, "K": k, "F": 0.99},
                                           {"p": 0.5, "K": 1, "F": 1}]}]}
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "rates", str(path))
    assert code == 0, err
    assert json.loads(out)["rate"] == 55.0
    code, out, err = run_cli(capsys, "bounds", "--K-list", str(k), "--F-grid", "0.9:0.9:0.1")
    assert code == 0, err
    assert out.splitlines()[1].startswith(f"{k},0.9,")


def test_compile_fixture(capsys, trace_file):
    code, out, _ = run_cli(
        capsys,
        "compile", trace_file, "--k-list", "1000",
        "--p-fraction", "0.9", "--rate-fraction", "0.99",
    )
    assert code == 0
    (doc,) = json.loads(out)
    assert doc["rate_bound"] == 0.39
    assert abs(doc["achieved_rate"] - 0.39204) < 1e-9
    assert doc["failure_method"] == "exact"


def test_compile_csv_names_how_each_failure_probability_was_obtained(capsys, trace_file):
    code, out, err = run_cli(
        capsys, "compile", trace_file, "--k-list", "1000", "8192", "--emit", "csv"
    )
    assert code == 0, err
    header, *rows = out.splitlines()
    assert header == "k,achieved_rate,failure_probability,failure_method,rate_bound"
    assert [row.split(",")[3] for row in rows] == ["exact", "chernoff"]


def test_compile_floors_each_count_exactly(capsys, trace_file):
    # p' k = (58/100)(1/2) 100 = 29, which floor(float(p') k) read as 28
    code, out, err = run_cli(capsys, "compile", trace_file, "--k-list", "100",
                             "--p-fraction", "0.58", "--precision", "17")
    assert code == 0, err
    (doc,) = json.loads(out)
    want = Fraction(sum(math.comb(100, c) for c in range(29)), 2**100)  # P(Bin(100, 1/2) < 29)
    assert doc["failure_method"] == "exact"
    assert doc["failure_probability"] == pytest.approx(float(want), rel=1e-12, abs=0)


def test_compile_labels_a_failure_probability_that_underflows(capsys, tmp_path):
    # m = floor((1/2)(4/5) 4096) = 1638: P(Bin(4096, 4/5) < 1638) is about 5.35e-683
    path = write_trace(tmp_path, [{"p": 0.8, "K": 1024, "F": 0.99}, {"p": 0.2, "K": 1, "F": 1}])
    argv = ["compile", path, "--k-list", "4096", "--p-fraction", "0.5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    (doc,) = json.loads(out)
    assert (doc["failure_probability"], doc["failure_method"]) == (0.0, "underflow")
    code, out, err = run_cli(capsys, *argv, "--emit", "csv")
    assert code == 0, err
    assert out.splitlines()[1].split(",")[2:4] == ["0.0", "underflow"]


def test_compile_writes_nothing_when_a_later_k_is_invalid(capsys, tmp_path, trace_file):
    path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "compile", trace_file, "--k-list", "10", "0",
                             "--out", str(path))
    assert (code, out) == (2, "")
    assert err == "error: tensor-power count must be positive, got 0\n"
    assert not path.exists()


def write_trace(tmp_path, branches, n=10):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"steps": [{"n": n, "branches": branches}]}))
    return str(path)


def test_compile_takes_a_zero_probability_branch(capsys, tmp_path):
    # the branch never occurs, so it takes no margin, as `rates` accepts it
    path = write_trace(tmp_path, [{"p": 0, "K": 1024, "F": 0.99}, {"p": 1, "K": 1, "F": 1}])
    code, out, err = run_cli(capsys, "compile", path, "--k-list", "10", "5000")
    assert code == 0, err
    for doc in json.loads(out):
        assert doc["achieved_rate"] == 0 and doc["failure_probability"] == 0
    assert run_cli(capsys, "rates", path)[0] == 0


def test_compile_names_the_hashing_requirement(capsys, tmp_path):
    path = write_trace(tmp_path, [{"p": 0.5, "K": 2, "F": 1}, {"p": 0.5, "K": 1024, "F": 0.99}])
    code, _, err = run_cli(capsys, "compile", path, "--k-list", "10")
    assert code == 2
    assert "K=2, F=1" in err and "(2F-1)*log2 K > 1" in err
    assert "explicit margins" not in err


def test_compile_refuses_a_converging_trace_that_rates_accepts(capsys, tmp_path):
    # n = i, K = 2^(3i), F = 1 - 1/(i+1): only the first step (K = 8, F = 0.5)
    # has (2F-1) log2 K <= 1, and that one branch stops the whole compile
    steps = [
        {"n": i, "branches": [{"p": 1, "K": 2 ** (3 * i), "F": 1 - 1 / (i + 1)}]}
        for i in range(1, 12)
    ]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"steps": steps}))
    code, out, err = run_cli(capsys, "rates", str(path))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["rate"] == 3.0 and len(doc["per_step"]) == 11
    code, out, err = run_cli(capsys, "compile", str(path), "--k-list", "10")
    assert (code, out) == (2, "")
    assert "K=8, F=0.5" in err and "(2F-1)*log2 K > 1" in err


@pytest.mark.parametrize(
    "option, value", [("--p-fraction", "1.5"), ("--p-fraction", "0"), ("--rate-fraction", "1")]
)
def test_compile_rejects_fractions_outside_the_unit_interval(capsys, trace_file, option, value):
    code, _, err = run_cli(capsys, "compile", trace_file, "--k-list", "10", option, value)
    assert code == 2
    assert "must lie in (0, 1)" in err


@pytest.mark.parametrize("option", ["--p-fraction", "--rate-fraction"])
def test_compile_rejects_a_zero_denominator(capsys, trace_file, option):
    code, out, err = run_cli(capsys, "compile", trace_file, "--k-list", "10", option, "1/0")
    assert (code, out) == (2, "")
    assert err == f"error: {option} '1/0' has a zero denominator\n"


def test_compile_names_a_refused_branch_as_the_input_gives_it(capsys, tmp_path):
    # as written (2F-1) log2 3 = 1.55 > 1, but flooring K = 3 to 2 leaves F = 0.33
    path = write_trace(tmp_path, [{"p": 1, "K": 3, "F": 0.99}], n=1)
    code, out, err = run_cli(capsys, "compile", path, "--k-list", "10")
    assert (code, out) == (2, "")
    assert err == (
        "error: step 0, branch 0: K=3, F=0.99, floored to K=2, F=0.33: "
        "the compiler needs (2F-1)*log2 K > 1, got -0.34\n"
    )
    # power-of-two input is not floored
    path = write_trace(tmp_path, [{"p": 0.5, "K": 1024, "F": 0.99}, {"p": 0.5, "K": 4, "F": 0.5}])
    code, out, err = run_cli(capsys, "compile", path, "--k-list", "10")
    assert (code, out) == (2, "")
    assert err == (
        "error: step 0, branch 1: K=4, F=0.5: the compiler needs (2F-1)*log2 K > 1, got 0\n"
    )


def classify_subspace_8_4(tmp_path):
    """The dense K = 8 subspace measurement with its natural witness: one
    branch at the largest Choi matrix `classify` accepts."""
    from entdist.operations import natural_product_witness
    from entdist.protocols import subspace_measurement_op

    op = subspace_measurement_op(8, 4)
    (sub,) = op.subops
    assert sub.dim_in * sub.dim_out == MAX_CHOI_DIM
    doc = encode_operation(op)
    doc["witness"] = [
        [[encode_matrix(a), encode_matrix(b)] for a, b in pairs]
        for pairs in natural_product_witness(op)
    ]
    path = tmp_path / "subspace-8-4.json"
    path.write_text(json.dumps(doc))
    return ["classify", str(path)]


def compile_four_branches(tmp_path):
    branches = [{"p": p, "K": 1024, "F": 0.99} for p in (0.3, 0.25, 0.2, 0.15)]
    return ["compile", write_trace(tmp_path, [*branches, {"p": 0.1, "K": 1, "F": 1}]),
            "--k-list", "4096"]


def csv_rows_pass(out, count):
    header, *rows = out.splitlines()
    return header.endswith(",pass") and len(rows) == count and all(
        row.endswith(",true") for row in rows
    )


@pytest.mark.parametrize(
    "make_argv, check",
    [
        (classify_subspace_8_4, lambda out: json.loads(out) == {
            "tp": True, "cp": True, "ppt": True, "separable_verified": True}),
        (compile_four_branches, lambda out: [
            (d["failure_method"], d["failure_probability"]) for d in json.loads(out)
        ] == [("exact", 0.00328181642116)]),
        (lambda _: ["simulate", "--K", "16", "--Kprime", "16", "--protocol", "twirl",
                    "--mc-samples", "64", "--F-grid", "0:0:0.1"],
         lambda out: csv_rows_pass(out, 1)),
        (lambda _: ["simulate", "--K", "16", "--Kprime", "7", "--protocol", "reduce",
                    "--F-grid", "0:1:0.1"],
         lambda out: csv_rows_pass(out, 11)),
    ],
    ids=["classify-subspace-8-4", "compile-four-branches-4096", "twirl-16", "reduce-16-to-7"],
)
def test_the_largest_commands_print_their_expected_results(capsys, tmp_path, make_argv, check):
    code, out, err = run_cli(capsys, *make_argv(tmp_path))
    assert code == 0, err
    assert check(out), out


def test_verify_suite_filter_and_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--seed", "7", "--suite", "lemma3-identity")
    code2, out2, _ = run_cli(capsys, "verify", "--seed", "7", "--suite", "lemma3-identity")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "[PASS] lemma3-identity" in out1


def test_verify_failure_names_grid_point(monkeypatch):
    import entdist.protocols as pro
    from entdist.verify import run_suites

    closed_form = pro.subspace_measurement_fidelity
    monkeypatch.setattr(
        pro, "subspace_measurement_fidelity", lambda k, kp, f: closed_form(k, kp, f) + 1e-3
    )
    results = run_suites(seed=7, suites=["protocol1-closed-form"])
    assert not results[0].passed
    assert "K=2 Kprime=1 F=0.0" in results[0].failures


def test_verify_ef_failure_says_how_the_search_stopped(monkeypatch):
    import dataclasses

    import entdist.bounds as bnd
    from entdist.verify import run_suites

    search = bnd.ef_numeric_search

    def shifted(rho, seed):
        ef = search(rho, budget=400, seed=seed)
        return dataclasses.replace(ef, value=ef.value + 0.5)

    monkeypatch.setattr(bnd, "ef_numeric_search", shifted)
    (result,) = run_suites(seed=7, suites=["lemma1-chain"])
    assert [f.split(" est=")[0] for f in result.failures] == [
        f"ef-estimate K=2 F={f}" for f in (0.5, 0.7, 0.9, 1.0)
    ]
    pattern = (
        r"ef-estimate K=2 F=\S+ est=\d\.\d{6} restarts=1 best=0 iterations=\d+ "
        r"grad_norm=\S+ evaluations=\d+ stop=(gradient|no-descent|budget) restart_stop=budget"
    )
    assert all(re.fullmatch(pattern, f) for f in result.failures)
    # F = 0.5 is the separability point; the descent reaches it within its budget
    counts = re.search(r"iterations=(\d+) .* evaluations=(\d+)", result.failures[0])
    used, evaluations = map(int, counts.groups())
    assert used < 400 and evaluations > used
    assert result.failures[0].endswith(" stop=no-descent restart_stop=budget")


@pytest.mark.parametrize("shift,fails", [(1e-5, True), (-1e-9, True), (1e-7, False)])
def test_verify_holds_ef_estimates_to_the_exact_value(monkeypatch, shift, fails):
    # every shift stays within the formation bounds, less 1e-6 and plus 1e-4,
    # at each F, so only the exact value catches the first two
    import dataclasses

    import entdist.bounds as bnd
    from entdist.verify import run_suites

    search = bnd.ef_numeric_search

    def shifted(rho, seed):
        ef = search(rho, budget=400, seed=seed)
        return dataclasses.replace(ef, value=ef.value + shift)

    monkeypatch.setattr(bnd, "ef_numeric_search", shifted)
    (result,) = run_suites(seed=7, suites=["lemma1-chain"])
    expect = [f"ef-estimate K=2 F={f}" for f in (0.5, 0.7, 0.9, 1.0)] if fails else []
    assert [f.split(" est=")[0] for f in result.failures] == expect


def test_simulate_exits_one_on_failing_rows(capsys, monkeypatch):
    import entdist.protocols as pro

    closed_form = pro.subspace_measurement_fidelity
    monkeypatch.setattr(
        pro, "subspace_measurement_fidelity", lambda k, kp, f: closed_form(k, kp, f) + 1e-3
    )
    code, out, _ = run_cli(
        capsys,
        "simulate", "--K", "4", "--Kprime", "2", "--protocol", "1", "--F-grid", "0:1:0.5",
    )
    assert code == 1
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 3 and all(r.endswith(",false") for r in rows)


def test_verify_cli_exits_one_on_failure(capsys, monkeypatch):
    import entdist.cli as cli
    from entdist.verify import SuiteResult

    points = [f"K=3 Kprime=2 F={i}" for i in range(8)]
    broken = SuiteResult("protocol1-closed-form", checks=10, failures=points)
    monkeypatch.setattr(cli.ver, "run_suites", lambda seed, suites: [broken])
    code, out, _ = run_cli(capsys, "verify", "--seed", "7")
    assert code == 1
    assert out.splitlines() == [
        "[FAIL] protocol1-closed-form: 2/10 checks",
        *(f"    failed: {p}" for p in points[:5]),
        "    ... and 3 more",
        "TOTAL: 1 suites, 0 passed, 1 failed, 8 failing checks",
    ]


def test_verify_json_report(capsys, monkeypatch):
    import entdist.cli as cli
    from entdist.verify import SuiteResult

    code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--suite", "lemma3-identity",
                           "--emit", "json")
    assert code == 0
    (doc,) = json.loads(out)
    assert doc == {"suite": "lemma3-identity", "checks": doc["checks"], "failed": 0, "failures": []}
    assert doc["checks"] > 0

    points = [f"K=2 Kprime=1 F={i}" for i in range(25)]
    broken = SuiteResult("protocol1-closed-form", checks=30, failures=points)
    monkeypatch.setattr(cli.ver, "run_suites", lambda seed, suites: [broken])
    code, out, _ = run_cli(capsys, "verify", "--emit", "json")
    assert code == 1
    (doc,) = json.loads(out)
    assert (doc["checks"], doc["failed"], doc["failures"]) == (30, 25, points[:20])


def test_verify_reports_a_suite_that_raises_and_runs_the_others(capsys, monkeypatch):
    import entdist.cli as cli

    def raising(rng):
        raise ValueError("apply_operation requires a trace-preserving operation")

    monkeypatch.setitem(cli.ver.SUITES, "twirl", raising)
    error = "error: ValueError: apply_operation requires a trace-preserving operation"
    argv = ("verify", "--seed", "7", "--suite", "lemma3-identity", "--suite", "twirl",
            "--suite", "theorem2-transform")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("[PASS] lemma3-identity: ")
    assert lines[1:3] == ["[FAIL] twirl: 0/1 checks", f"    failed: {error}"]
    assert lines[3].startswith("[PASS] theorem2-transform: ")
    assert lines[4] == "TOTAL: 3 suites, 2 passed, 1 failed, 1 failing checks"

    code, out, err = run_cli(capsys, *argv, "--emit", "json")
    assert (code, err) == (1, "")
    docs = json.loads(out)
    assert [(d["suite"], d["failed"]) for d in docs] == [
        ("lemma3-identity", 0), ("twirl", 1), ("theorem2-transform", 0)
    ]
    assert docs[1] == {"suite": "twirl", "checks": 1, "failed": 1, "failures": [error]}


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_calls_the_subcommand_function_it_finds_at_call_time(
    capsys, monkeypatch, trace_file
):
    import entdist.cli as cli

    calls = []
    monkeypatch.setattr(cli, "cmd_rates", lambda args: calls.append(args.input) or 0)
    assert main(["rates", trace_file]) == 0
    assert calls == [trace_file]
    assert capsys.readouterr().out == ""


def test_no_option_leaks_from_one_parse_to_the_next(monkeypatch):
    import entdist.cli as cli

    asked = []
    monkeypatch.setattr(cli.ver, "run_suites", lambda seed, suites: asked.append(suites) or [])
    monkeypatch.setattr(cli.ver, "render_text", lambda results: "")
    assert main(["verify", "--suite", "twirl"]) == 0
    assert main(["verify"]) == 0
    assert asked == [["twirl"], None]
    assert build_parser().parse_args(["verify"]).suite is None


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "rates", "/nonexistent/trace.json")
    assert code == 2
    assert "error" in err
